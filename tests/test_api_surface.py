"""The package is what the program, the benchmark and the README use.

Three checks, made on the source with ``ast`` alone:

* every name ``walkops/__init__.py`` re-exports is referenced outside its
  own definition: in a module of ``src/walkops`` other than ``__init__``,
  in ``perfbench/*.py``, or in ``README.md``.  A helper only tests reach
  fails here; it either gains a caller or goes, and its test with it;
* so is every module-level function and class of those modules, whether
  re-exported or private;
* every module-level import of a ``src/walkops`` module (``__init__``
  aside) is used in that module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "walkops"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _modules() -> list:
    return sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _referenced(tree: ast.AST) -> set:
    """Names and attribute names the code reads, leaving out what a
    definition reads of its own name (recursion is not a caller)."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def _reexports() -> list:
    return [alias.asname or alias.name
            for node in _parse(SRC / "__init__.py").body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _unreached(names) -> list:
    """The ``names`` that no module of ``src/walkops`` (``__init__``
    aside), no ``perfbench/*.py`` and not ``README.md`` references."""
    used = set()
    for path in _modules() + sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced(_parse(path))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [name for name in names
            if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]


def test_reexports_have_a_caller():
    names = _reexports()
    assert "convolution_powers" in names and "kernel_backend" in names
    unused = _unreached(names)
    assert not unused, f"re-exported but reached only by tests: {unused}"


def test_module_definitions_have_a_caller():
    defined = {}
    for path in _modules():
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.name}")
    assert "convolution_powers" in defined and "_pack" in defined
    unused = [where for name in _unreached(defined) for where in defined[name]]
    assert not unused, f"defined but reached only by tests: {unused}"


def test_module_imports_are_used():
    unused = []
    for path in _modules():
        tree = _parse(path)
        used = _referenced(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert len(_modules()) >= 12
    assert not unused, f"imported but unused: {unused}"
