"""Every exported name resolves, and no constraint rule is exported.

The benchmark tracer calls getattr(module, name) on each __all__ entry of
the layer modules, so a stale entry would break every traced run.  It also
wraps every exported function; the *_violations rule functions run on
every sampled pair, and wrapping them would inflate the layers' call counts.
"""

import importlib

import pytest

LAYERS = ("sampler", "scc_core", "spectral_model", "linearized_resolvent", "edge_stats")


@pytest.mark.parametrize("module_name", ["scclab"] + [f"scclab.{layer}" for layer in LAYERS])
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
