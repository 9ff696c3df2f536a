"""The package is what the program, the benchmark and the README use.

Five checks, made on the source with ``ast`` alone:

* every name ``walkops/__init__.py`` re-exports is referenced outside its
  own definition: in a module of ``src/walkops`` other than ``__init__``,
  in ``perfbench/*.py``, or in ``README.md``.  A helper only tests reach
  fails here; it either gains a caller or goes, and its test with it;
* so is every module-level function and class of those modules, whether
  re-exported or private;
* so is the name of every public method of their module-level classes;
* every defaulted parameter of a public function, public method or
  ``__init__`` of those modules is set by some call in them, in
  ``perfbench/*.py`` or in a python block of ``README.md``: an option
  only tests set either gains a caller or becomes a constant;
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


def _class_defs():
    """(module file name, class node) for every module-level class."""
    return [(path.name, node) for path in _modules() for node in _parse(path).body
            if isinstance(node, ast.ClassDef)]


def _functions(body) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_public_methods_have_a_caller():
    methods = {}
    for module, cls in _class_defs():
        for node in _functions(cls.body):
            if not node.name.startswith("_"):
                methods.setdefault(node.name, []).append(f"{module}:{cls.name}.{node.name}")
    assert "log_column" in methods and "as_dict" in methods
    unused = [where for name in _unreached(methods) for where in methods[name]]
    assert not unused, f"methods reached only by tests: {unused}"


# the defaulted parameters only tests set, each with the reason it stays
_TEST_SET_OPTIONS = {
    "fock.py:build_R.inverse":
        "R' (inverse=True) is the paper's operator; test_fock checks R R'",
    "spectral.py:MartinTable.__init__.policy":
        "acceptance test 6s forces 'ladder'; ROADMAP item 11 decides which "
        "Martin evaluation stays",
}


def _calls() -> dict:
    """Callee name (a plain name or an attribute) -> the calls to it in
    ``src/walkops``, ``perfbench/*.py`` and the README's python blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees = [_parse(path) for path in _modules() + sorted((ROOT / "perfbench").glob("*.py"))]
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes the parameter ``name`` (at argument
    ``position`` after self, None when keyword-only)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return position is not None and position < len(call.args)


def _defaulted_parameters() -> list:
    """(label, callee name, parameter, position) of every defaulted
    parameter of a public function, public method or ``__init__``."""
    found = []

    def add(label, callee, fn, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            found.append((f"{label}.{arg.arg}", callee, arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((f"{label}.{arg.arg}", callee, arg.arg, None))

    for path in _modules():
        for node in _functions(_parse(path).body):
            if not node.name.startswith("_"):
                add(f"{path.name}:{node.name}", node.name, node, 0)
    for module, cls in _class_defs():
        for node in _functions(cls.body):
            if node.name == "__init__" or not node.name.startswith("_"):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                callee = cls.name if node.name == "__init__" else node.name
                add(f"{module}:{cls.name}.{node.name}", callee, node, 0 if static else 1)
    return found


def test_defaulted_parameters_have_a_caller():
    calls = _calls()
    set_by_program = {
        label: any(_sets(call, name, position) for call in calls.get(callee, []))
        for label, callee, name, position in _defaulted_parameters()
    }
    assert "ratiolimit.py:detect_radical.tol" in set_by_program
    assert "fock.py:FockWindow.select.fiber" in set_by_program
    unset = [label for label, is_set in set_by_program.items()
             if not is_set and label not in _TEST_SET_OPTIONS]
    assert not unset, f"options only tests set: {unset}"
    # the exemptions are exact: each names a parameter no program call sets
    assert {label: set_by_program.get(label) for label in _TEST_SET_OPTIONS} == {
        label: False for label in _TEST_SET_OPTIONS}


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
