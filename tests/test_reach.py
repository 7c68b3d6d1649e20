"""Every name and class member of the library is reached by library code or the benchmark.

A module-level function, class or constant of src/resoforge/, public or
private, that only its own definition, __init__.py and the tests refer to is
run by no CLI command, acceptance criterion or benchmark workload, so nothing
it computes is ever printed or checked: it is either wired into a check or
deleted.  The same holds for a method or property of a class (dunders are
called by Python itself).  A module-level name is reached by a name or
attribute, and a member by an attribute or keyword of that name, in another
module-level definition or member of src/resoforge/, or anywhere in
perfbench/*.py, whose tracer also names its targets in strings.  References
made only by unreached definitions do not count, so a helper of an unreached
function or method is unreached too, and so is every member of an unreached
class.  A member is known by its name alone, so one that shares its name with
a reached attribute of another object is not seen.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _identifiers(node, strings=False):
    """(identifier, whether it can name a member) for each reference under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, strings
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, True
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg, True
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from ((part, True) for part in sub.value.split("."))


def _defined(node):
    """The names a module-level statement binds; empty for other statements."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def _is_member(node):
    """A method or property; dunders are called by Python itself."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def unreached_names(root=ROOT):
    """Sorted "module.name" and "module.Class.member" of everything unreached under root."""
    module = {}   # every module-level name and "Class.member" of the library -> its module
    members = {}  # "Class.member" -> (class name, member name)
    refs = []     # (holders of the referring code, identifier, whether it can name a member)
    for path in sorted((root / "src" / "resoforge").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            holders = _defined(node)
            module.update((name, path.stem) for name in holders)
            inner = [sub for sub in node.body if _is_member(sub)] if isinstance(node, ast.ClassDef) else []
            for sub in inner:
                key = f"{node.name}.{sub.name}"
                module[key], members[key] = path.stem, (node.name, sub.name)
                refs += [([key], *ident) for ident in _identifiers(sub)]
            rest = [sub for sub in ast.iter_child_nodes(node) if not any(sub is m for m in inner)]
            refs += [(holders, *ident) for sub in rest for ident in _identifiers(sub)]
    for path in sorted((root / "perfbench").glob("*.py")):
        refs += [([], *ident) for ident in _identifiers(ast.parse(path.read_text()), strings=True)]
    unreached: set[str] = set()
    while True:
        # a statement binding nothing (an import, the __main__ guard) is always live
        live = [(holders, ident, attr) for holders, ident, attr in refs
                if not holders or any(h not in unreached for h in holders)]
        named = {ident for holders, ident, _ in live if ident not in holders}
        attrs = {}  # member-capable identifier -> the holders that use it
        for holders, ident, attr in live:
            if attr:
                attrs.setdefault(ident, set()).update(holders or [None])
        now = {name for name in module if name not in members and name not in named}
        now |= {key for key, (cls, name) in members.items()
                if cls in now or not attrs.get(name, set()) - {key}}
        if now == unreached:
            return sorted(f"{module[name]}.{name}" for name in unreached)
        unreached = now


def test_every_public_name_is_reached():
    # module-level names and class members, public and private alike
    names = unreached_names()
    assert not names, "reached only by tests and __init__.py: " + ", ".join(names)


def test_scan_follows_helpers_and_perfbench_strings(tmp_path):
    (tmp_path / "src" / "resoforge").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "resoforge" / "__init__.py").write_text("from .a import dead, helper, used\n")
    (tmp_path / "src" / "resoforge" / "a.py").write_text(
        "LIMIT = 2\n"
        "def helper():\n    return LIMIT\n"
        "def dead():\n    return helper() + dead()\n"
        "def used():\n    return Box().size + _private()\n"
        "def _private():\n    return 1\n"
        "def _unused():\n    return 1\n"
        "def traced():\n    return 1\n"
        "class Box:\n"
        "    limit = _CAP\n"
        "    def __init__(self):\n        self.n = 1\n"
        "    @property\n    def size(self):\n        return self.n\n"
        "    def dead_method(self):\n        return self.inner() + self.dead_method()\n"
        "    def inner(self):\n        return _grid()\n"
        "    def traced_method(self):\n        return 1\n"
        "def _grid():\n    return 1\n"
        "_CAP = 3\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "from resoforge.a import used\nTARGETS = ['a.traced', 'Box.traced_method']\nused()\n")
    assert unreached_names(tmp_path) == [
        "a.Box.dead_method", "a.Box.inner", "a.LIMIT", "a._grid", "a._unused", "a.dead", "a.helper"]
