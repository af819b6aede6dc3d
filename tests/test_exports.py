"""Every exported name resolves, is declared once, and no constraint rule is exported.

The benchmark tracer calls getattr(module, name) on each __all__ entry of
the layer modules, so a stale entry would break every traced run.  It also
wraps every exported function; the *_violations rule functions run on
every sampled pair, and wrapping them would inflate the layers' call counts.
The package exports exactly the layers' names, in import order.
"""

import importlib

import pytest

LAYERS = ("sampler", "scc_core", "spectral_model", "linearized_resolvent", "edge_stats")
# every module the package re-exports, in the order it imports them
PACKAGE_LAYERS = ("errors", "spectral_model", "sampler", "scc_core", "linearized_resolvent",
                  "config", "edge_stats")


@pytest.mark.parametrize("module_name", ["scclab", "scclab.errors", "scclab.config"]
                         + [f"scclab.{layer}" for layer in LAYERS])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module_name", ["scclab", "scclab.config"]
                         + [f"scclab.{layer}" for layer in LAYERS])
def test_no_rule_function_exported(module_name):
    module = importlib.import_module(module_name)
    assert not [name for name in module.__all__ if name.endswith("_violations")]


def test_package_exports_the_layers_names():
    package = importlib.import_module("scclab")
    layers = [importlib.import_module(f"scclab.{layer}") for layer in PACKAGE_LAYERS]
    names = [name for layer in layers for name in layer.__all__]
    assert package.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)
    for layer in layers:
        assert all(getattr(package, name) is getattr(layer, name) for name in layer.__all__)
    assert "reject" not in names
