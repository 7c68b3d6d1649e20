"""Every public name of the library is reached by library code or the benchmark.

A module-level public function, class or constant of src/resoforge/ that only
its own definition, __init__.py and the tests refer to is run by no CLI
command, acceptance criterion or benchmark workload, so nothing it computes is
ever printed or checked: it is either wired into a check or deleted.  A
reference is a name or attribute in another module-level definition of
src/resoforge/, or anywhere in perfbench/*.py, whose tracer also names its
targets in strings.  References made only by unreached definitions do not
count, so a helper of an unreached function is unreached too.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _identifiers(node, strings=False):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from sub.value.split(".")


def _defined(node):
    """The names a module-level statement binds; empty for other statements."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def unreached_names(root=ROOT):
    """Sorted "module.name" of every unreached public name under root."""
    module = {}  # every module-level name of the library -> its module
    refs = []    # (names bound by the referring statement, identifier)
    for path in sorted((root / "src" / "resoforge").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            holders = _defined(node)
            module.update((name, path.stem) for name in holders)
            refs += [(holders, ident) for ident in _identifiers(node)]
    for path in sorted((root / "perfbench").glob("*.py")):
        refs += [([], ident) for ident in _identifiers(ast.parse(path.read_text()), strings=True)]
    unreached: set[str] = set()
    while True:
        # a statement binding nothing (an import, the __main__ guard) is always live
        reached = {ident for holders, ident in refs
                   if not holders or any(h != ident and h not in unreached for h in holders)}
        now = {name for name in module if name not in reached}
        if now == unreached:
            return sorted(f"{module[name]}.{name}" for name in unreached if not name.startswith("_"))
        unreached = now


def test_every_public_name_is_reached():
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
        "def used():\n    return 1\n"
        "def traced():\n    return 1\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "from resoforge.a import used\nTARGETS = ['a.traced']\nused()\n")
    assert unreached_names(tmp_path) == ["a.LIMIT", "a.dead", "a.helper"]
