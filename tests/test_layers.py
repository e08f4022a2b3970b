"""The package's modules import downward only, and only public names.

Each module of src/nessfold may import from the modules before it in LAYERS, never from
itself or one after it, so each layer can be read, tested and replaced without the ones
above it; and it imports no name that starts with "_", so a module's private helpers
stay its own.  Imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

import nessfold

LAYERS = ("exceptions", "model", "spectral", "folding", "tns", "pipeline", "oracle", "cli")
PACKAGE = Path(nessfold.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


def package_imports(module: str) -> list:
    """(line, imported module, names) of every from-import of the package in one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("nessfold."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        found.append((node.lineno, source.split(".")[0], [alias.name for alias in node.names]))
    return found


def test_every_module_has_a_layer():
    missing = sorted(set(MODULES) - set(LAYERS))
    assert not missing, f"modules {missing} have no place in LAYERS of {__file__}: add each where it belongs"


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down_and_stay_public(module):
    below = LAYERS[:LAYERS.index(module)] if module in LAYERS else ()
    faults = []
    for line, source, names in package_imports(module):
        if source not in below:
            faults.append(f"{module}.py:{line} imports from {source}, which does not come before {module}")
        private = [name for name in names if name.startswith("_")]
        if private:
            faults.append(f"{module}.py:{line} imports the private names {private} from {source}")
    assert not faults, "\n".join(faults + [
        f"the layer order is LAYERS = {LAYERS} in {__file__}: move shared code down, "
        f"and extend LAYERS when a module is added"])
