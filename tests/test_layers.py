"""The package's modules import only from layers below their own.

Each module's relative imports, function-level ones included, are read
from its source with ast.  The layers, bottom first, are the order in
which a module may build on another; an import from a module's own layer
or one above it would make the layering circular.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scclab"
LAYERS = ("errors", "_linalg", "spectral_model", "sampler", "scc_core",
          "linearized_resolvent", "config", "edge_stats", "cli")
# the package's __init__ defines __version__ before it imports any layer
FROM_PACKAGE = {"__version__"}


def relative_imports(source: str) -> list[tuple[int, str]]:
    """(line, target) of every relative import, in line order.

    The target of `from .mod import x` is mod; each name of
    `from . import a, b` is a target of its own.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is not None:
                found.append((node.lineno, node.module.split(".")[0]))
            else:
                found += [(node.lineno, alias.name) for alias in node.names]
    return sorted(found)


def test_function_level_imports_are_read():
    source = "from .a import x\n\ndef f():\n    from .b import y\n    from . import c, d\n"
    assert relative_imports(source) == [(1, "a"), (4, "b"), (5, "c"), (5, "d")]


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down(module):
    below = set(LAYERS[: LAYERS.index(module)]) | FROM_PACKAGE
    source = (PACKAGE / f"{module}.py").read_text()
    upward = [(line, target) for line, target in relative_imports(source)
              if target not in below]
    assert not upward, f"{module} imports from its own layer or above: {upward}"
