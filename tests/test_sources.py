"""Static checks on the package and test sources, with the stdlib ast module only."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qsphere").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names a module imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_planted_name():
    source = "import os, sys\nfrom .x import a, b as c\nprint(sys.argv, a)\n"
    assert unused_imports(source) == ["c", "os"]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def defined_names(source):
    """Module-level functions, classes and constants of a module, sorted."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(n for n in names if not (n.startswith("__") and n.endswith("__")))


def read_names(source):
    """Names a module reads, as a variable or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def traced_names(source):
    """The names in the tracer's ENTRY_POINTS table ("Class.method" gives both)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
            return {part for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    for part in n.value.split(".")}
    return set()


def test_unread_names_finds_a_planted_name():
    source = "X = 1\nY, Z = 2, 3\n__all__ = []\ndef f():\n    return Y\nclass C:\n    pass\n"
    assert defined_names(source) == ["C", "X", "Y", "Z", "f"]
    assert [n for n in defined_names(source) if n not in read_names(source)] == ["C", "X", "Z", "f"]
    table = 'ENTRY_POINTS = (("layer", "qsphere.m", "C.f", True),)\n'
    assert traced_names(table) >= {"C", "f"}


def test_every_module_level_name_is_read():
    # a name is read when some module of src/, tests/ or bench/ reads it, or
    # when the tracer wraps it
    readers = (sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
               + sorted((ROOT / "bench").rglob("*.py")))
    read = set().union(*(read_names(path.read_text()) for path in readers))
    read |= traced_names((ROOT / "bench" / "tracer.py").read_text())
    unread = {}
    for path in sorted((ROOT / "src" / "qsphere").glob("*.py")):
        names = [n for n in defined_names(path.read_text()) if n not in read]
        if names:
            unread[path.name] = names
    assert unread == {}


def c_branches(source):
    """The functions ("Class.method" in a class) that branch on c: a call of
    c.is_infinity() or c.is_zero() on a name or attribute c, or any read of .variant."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and (
                    child.attr == "variant"
                    or child.attr in ("is_infinity", "is_zero")
                    and (getattr(child.value, "id", None) == "c"
                         or getattr(child.value, "attr", None) == "c")):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_c_branches_finds_a_planted_branch():
    source = ("class P:\n    def e0(self):\n        return self.c.is_infinity()\n"
              "    def rank(self, x):\n        return x.is_zero()\n"
              "def f(c):\n    return c.variant if c.is_zero() else None\n")
    assert c_branches(source) == {"P.e0", "f"}


def test_the_sphere_states_c_only_in_its_rules_counit_and_localization():
    # kappa = eps(e_0) is read off eps_weights, so e_0, the counit and the
    # coaction need no branch of their own on the parameter; the rules take
    # c as a value (`sphere_rules`, None at infinity)
    source = (ROOT / "src" / "qsphere" / "podles.py").read_text()
    allowed = {"PodlesAlgebra.eps_weights", "verify_localization"}
    assert c_branches(source) <= allowed


def bare_calls(source, names=("eval", "exec", "compile", "__import__")):
    """The bare names among `names` that a module calls, sorted; obj.eval(...) is not one."""
    return sorted({node.func.id for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in names})


def test_bare_calls_finds_a_planted_call():
    source = ("x = eval('1')\nEVALUATOR.eval(w)\nf = compile\n"
              "def g(s):\n    return __import__(s), exec(s)\n")
    assert bare_calls(source) == ["__import__", "eval", "exec"]


def test_no_module_evaluates_text_as_python():
    # parameter specs are read from their syntax tree, never run
    found = {path.name: bare_calls(path.read_text())
             for path in sorted((ROOT / "src" / "qsphere").glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
