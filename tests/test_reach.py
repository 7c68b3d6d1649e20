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
class.  A field of a dataclass is reached only when live library code loads
it as an attribute, or perfbench/*.py names it in an identifier or string:
a field that is only ever passed to the constructor or assigned is written
and never read.  The one exception is a subclass of fourier.Record that
inherits its to_dict, or whose to_dict returns a dict that starts from
**super().to_dict() or a comprehension over each item of
super().to_dict().items(): the CLI's encoder prints every field of such a record,
so its fields are read while that to_dict is reached.  An attribute of super()
in a class names only the member of the first class up its bases that defines
it, so super().to_dict() in one override reaches its base's to_dict, not every
to_dict, and two overrides do not keep each other reached.  A member or field is
known by its name alone, so one that shares its name with a reached
attribute of another object is not seen.

So the static half covers names and dataclass fields, and a dynamic half
covers every def that is entered: run as a script,

    PYTHONPATH=src python tests/test_reach.py

it runs every CLI subcommand, `report --quick` and round 0 of seed 1 of each
benchmark workload in one process under sys.setprofile, and exits 1 on any
def of src/resoforge/*.py (module function, method, nested helper or
explicit dunder) whose code object none of them entered.  A def may stay
unentered only when it is listed in INPUT_DEPENDENT with the input that
reaches it, and a tier-1 test reaches it through that input.  Neither half
sees a field or instance attribute that is written and never read while its
name is shared with one that is read.
"""

import ast
import functools
import importlib.util
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# a def that only some inputs reach -> the input that reaches it
INPUT_DEPENDENT = {
    "morse._squarefree": "a multiple zero of a census row (tests/test_morse.py, a double zero)",
}


# what a reference can name: a module-level name, also a member, also a field
NAME, MEMBER, FIELD = 0, 1, 2


def _identifiers(node, strings=False, inherited=lambda name: None):
    """(identifier, what it can name) for each reference under node; in
    perfbench (strings=True) every reference can name anything.  An
    attribute of super() is the "Base.member" that inherited(name) gives,
    when it gives one."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, FIELD if strings else NAME
        elif isinstance(sub, ast.Attribute):
            base = _is_super(sub.value) and inherited(sub.attr)
            yield (base, MEMBER) if base else (sub.attr, FIELD if strings or isinstance(sub.ctx, ast.Load) else MEMBER)
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg, FIELD if strings else MEMBER
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from ((part, FIELD) for part in sub.value.split("."))


def _is_super(node):
    """A call super() without arguments."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super" and not node.args


def _inherited(classes, cls, name):
    """"Base.name" of the first class up cls's bases, depth first, that
    defines name, for classes {class: (base names, member names)}; else None."""
    for base in classes.get(cls, ((), ()))[0]:
        found = f"{base}.{name}" if name in classes.get(base, ((), ()))[1] else _inherited(classes, base, name)
        if found:
            return found
    return None


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


def _fields(node):
    """The annotated fields of a class decorated with dataclass."""
    if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return []
    return [sub.target.id for sub in node.body if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]


def _encoder(node):
    """The to_dict that prints every field of a class: "Record.to_dict" for
    a subclass of Record that inherits it, "Class.to_dict" for one whose
    to_dict returns {**super().to_dict(), ...} or a comprehension, keys
    renamed or not, over every item of super().to_dict().items(), else None."""
    if not any(ast.unparse(base).split(".")[-1] == "Record" for base in node.bases):
        return None
    own = [sub for sub in node.body if _is_member(sub) and sub.name == "to_dict"]
    if not own:
        return "Record.to_dict"
    starts = any(isinstance(sub, ast.Return) and (
        isinstance(sub.value, ast.Dict) and sub.value.keys[:1] == [None]
        and ast.unparse(sub.value.values[0]) == "super().to_dict()"
        or isinstance(sub.value, ast.DictComp) and len(sub.value.generators) == 1 and not sub.value.generators[0].ifs
        and ast.unparse(sub.value.generators[0].iter) == "super().to_dict().items()") for sub in ast.walk(own[0]))
    return f"{node.name}.to_dict" if starts else None


def unreached_names(root=ROOT):
    """Sorted "module.name", "module.Class.member" and "module.Class.field" of everything unreached under root."""
    module = {}   # every module-level name, "Class.member" and "Class.field" -> its module
    members = {}  # "Class.member" and "Class.field" -> (class name, name, what can name it)
    refs = []     # (holders of the referring code, identifier, what it can name)
    encoded = {}  # "Class.field" of a record the CLI prints -> the to_dict that prints it
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted((root / "src" / "resoforge").glob("*.py"))
             if path.name != "__init__.py"]
    classes = {node.name: ([ast.unparse(base).split(".")[-1] for base in node.bases],
                           {sub.name for sub in node.body if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))})
               for _, tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    for stem, tree in trees:
        for node in tree.body:
            holders = _defined(node)
            module.update((name, stem) for name in holders)
            inherited = functools.partial(_inherited, classes, getattr(node, "name", None))
            inner = [sub for sub in node.body if _is_member(sub)] if isinstance(node, ast.ClassDef) else []
            for sub in inner:
                key = f"{node.name}.{sub.name}"
                module[key], members[key] = stem, (node.name, sub.name, MEMBER)
                refs += [([key], *ident) for ident in _identifiers(sub, inherited=inherited)]
            to_dict = _encoder(node) if isinstance(node, ast.ClassDef) else None
            for name in _fields(node) if isinstance(node, ast.ClassDef) else []:
                module[f"{node.name}.{name}"] = stem
                members[f"{node.name}.{name}"] = (node.name, name, FIELD)
                if to_dict:
                    encoded[f"{node.name}.{name}"] = to_dict
            rest = [sub for sub in ast.iter_child_nodes(node) if not any(sub is m for m in inner)]
            refs += [(holders, *ident) for sub in rest for ident in _identifiers(sub, inherited=inherited)]
    for path in sorted((root / "perfbench").glob("*.py")):
        refs += [([], *ident) for ident in _identifiers(ast.parse(path.read_text()), strings=True)]
    unreached: set[str] = set()
    while True:
        # a statement binding nothing (an import, the __main__ guard) is always live
        live = [(holders, ident, kind) for holders, ident, kind in refs
                if not holders or any(h not in unreached for h in holders)]
        named = {ident for holders, ident, _ in live if ident not in holders}
        attrs = {}  # (identifier, what it can name) -> the holders that use it
        for holders, ident, kind in live:
            for level in range(MEMBER, kind + 1):
                attrs.setdefault((ident, level), set()).update(holders or [None])
        now = {name for name in module if name not in members and name not in named}
        printed = {key for key, to_dict in encoded.items() if to_dict not in unreached}
        now |= {key for key, (cls, name, kind) in members.items()
                if cls in now or key not in printed and key not in named and not attrs.get((name, kind), set()) - {key}}
        if now == unreached:
            return sorted(f"{module[name]}.{name}" for name in unreached)
        unreached = now


def _defs(path):
    """(first line, "module.Class.name") of every def in a module, nested ones
    included; the first line of a decorated def is its first decorator's."""
    out = []

    def walk(node, prefix):
        for sub in ast.iter_child_nodes(node):
            scope = isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if scope and not isinstance(sub, ast.ClassDef):
                out.append(((sub.decorator_list or [sub])[0].lineno, prefix + sub.name))
            walk(sub, prefix + sub.name + "." if scope else prefix)

    walk(ast.parse(path.read_text()), path.stem + ".")
    return out


def never_entered(run, root=ROOT):
    """Sorted "module.Class.name" of every def under root/src/resoforge/*.py
    whose code object run() never entered, apart from INPUT_DEPENDENT."""
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(before)
    seen = {(pathlib.Path(code.co_filename).resolve(), code.co_firstlineno) for code in entered}
    return sorted(name for path in sorted((root / "src" / "resoforge").glob("*.py"))
                  for line, name in _defs(path)
                  if (path.resolve(), line) not in seen and name not in INPUT_DEPENDENT)


def entry_points():
    """Every CLI subcommand, `report --quick`, and round 0 of seed 1 of each
    benchmark workload (each job's run, check and record), in one process."""
    sys.path[:0] = [str(ROOT / "tests" / "golden"), str(ROOT / "perfbench")]
    import regen
    import workloads
    from resoforge.cli import main

    regen.cli_documents()  # the golden CLI runs, each at its exit code
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "free.json").write_text(json.dumps(regen.FREE_N2))
        (tmp / "preset.json").write_text(
            json.dumps({"mode": "paper-preset", "n": 2, "s": 1.0, "epsilon": 1e-4, "K0": 2, "K": 12}))
        runs = [
            (["sample", "--s", "4.0", "--kmax", "20", "--seed", "3", "--out", f"{tmp}/f.json"], 0),
            (["check-generic", "--potential", f"{tmp}/f.json", "--delta", "0.1", "--beta", "1e-30",
              "--kmax", "20", "--out", f"{tmp}/g.json"], 0),
            (["cover", "classify", "--y", "0.3,0.1", "--params", f"{tmp}/preset.json",
              "--out", f"{tmp}/c.json"], 0),
            (["cover", "raster", "--params", f"{tmp}/free.json", "--grid", "16", "--csv", f"{tmp}/r.csv"], 0),
            (["cover", "measure", "--params", f"{tmp}/free.json", "--samples", "2000",
              "--csv", f"{tmp}/m.csv", "--csv-rows", "50", "--out", f"{tmp}/m.json"], 0),
            # the paper preset's divisor threshold is far above 1: a small divisor
            (["normalize", "--potential", "two-mode:s=1.0", "--eps", "1e-3", "--k0", "2", "--K", "12",
              "--base-point", "0.7,0.31", "--out", f"{tmp}/n.json"], 1),
            (["report", "--quick"], 0),
        ]
        for argv, code in runs:
            got = main(argv)
            if got != code:
                raise RuntimeError(f"{' '.join(argv)}: exit code {got}, not {code}")
    pins = workloads.load_pins()
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, 1, range(1), pins):
            out = job.run(job.make() if job.make is not None else None)
            job.check(out)
            if job.record is not None:
                job.record(out)


def test_every_public_name_is_reached():
    # module-level names and class members, public and private alike
    names = unreached_names()
    assert not names, "reached only by tests and __init__.py: " + ", ".join(names)


def test_scan_follows_helpers_and_perfbench_strings(tmp_path):
    (tmp_path / "src" / "resoforge").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "resoforge" / "__init__.py").write_text("from .a import dead, helper, used\n")
    (tmp_path / "src" / "resoforge" / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "LIMIT = 2\n"
        "def helper():\n    return LIMIT\n"
        "def dead():\n    return helper() + dead()\n"
        "def used():\n    return Box().size + _private() + report()\n"
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
        "@dataclass(frozen=False)\n"
        "class Report:\n"
        "    read: int\n"
        "    written: int\n"
        "    stored: int = 0\n"
        "    traced: int = 0\n"
        "def report():\n    rep = Report(read=1, written=2)\n    rep.stored = 3\n    return rep.read\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text(
        "from resoforge.a import used\nTARGETS = ['a.traced', 'Box.traced_method', 'Report.traced']\nused()\n")
    assert unreached_names(tmp_path) == [
        "a.Box.dead_method", "a.Box.inner", "a.LIMIT", "a.Report.stored", "a.Report.written",
        "a._grid", "a._unused", "a.dead", "a.helper"]


def test_scan_reads_the_fields_of_printed_records_only(tmp_path):
    # the encoder reads the fields of Inherits and Extends; Renames prints
    # other keys, Plain is no Record and nothing names Orphan
    (tmp_path / "src" / "resoforge").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "resoforge" / "a.py").write_text(
        "from dataclasses import dataclass, fields\n"
        "class Record:\n"
        "    def to_dict(self):\n        return {f.name: getattr(self, f.name) for f in fields(self)}\n"
        "@dataclass\nclass Inherits(Record):\n    printed: int\n"
        "@dataclass\nclass Extends(Record):\n    extended: int\n"
        "    def to_dict(self):\n        return {**super().to_dict(), 'twice': 2}\n"
        "@dataclass\nclass Renames(Record):\n    hidden: int\n"
        "    def to_dict(self):\n        return {'renamed': 0}\n"
        "@dataclass\nclass Plain:\n    unread: int\n"
        "@dataclass\nclass Orphan(Record):\n    lost: int\n"
        "def emit():\n    return [Inherits(1), Extends(2), Renames(3), Plain(4)]\n"
        "def encode(records):\n    return [r.to_dict() for r in records]\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text("from resoforge.a import emit, encode\nencode(emit())\n")
    assert unreached_names(tmp_path) == ["a.Orphan", "a.Orphan.lost", "a.Plain.unread", "a.Renames.hidden"]
    # with no live to_dict call, no field is printed
    (tmp_path / "perfbench" / "run.py").write_text("from resoforge.a import emit\nemit()\n")
    assert unreached_names(tmp_path) == [
        "a.Extends.extended", "a.Extends.to_dict", "a.Inherits.printed", "a.Orphan", "a.Orphan.lost",
        "a.Plain.unread", "a.Record.to_dict", "a.Renames.hidden", "a.Renames.to_dict", "a.encode"]
    # a comprehension over every item of super().to_dict().items() prints
    # every field, its keys renamed or not; one that filters them does not
    rekeys = "    def to_dict(self):\n        return {k.upper(): v for k, v in super().to_dict().items()%s}\n"
    (tmp_path / "src" / "resoforge" / "a.py").write_text(
        "from dataclasses import dataclass, fields\nclass Record:\n"
        "    def to_dict(self):\n        return {f.name: getattr(self, f.name) for f in fields(self)}\n"
        f"@dataclass\nclass Rekeys(Record):\n    rekeyed: int\n{rekeys % ''}"
        f"@dataclass\nclass Filters(Record):\n    dropped: int\n{rekeys % ' if v'}"
        "def encode():\n    return [r.to_dict() for r in (Rekeys(1), Filters(2))]\n")
    (tmp_path / "perfbench" / "run.py").write_text("from resoforge.a import encode\nencode()\n")
    assert unreached_names(tmp_path) == ["a.Filters.dropped"]


def test_super_call_reaches_the_base_member_alone(tmp_path):
    # each override starts from super().to_dict(), which names Record.to_dict
    # alone: with no to_dict call, neither override keeps the other reached,
    # so both, Record.to_dict and every field they print are listed
    (tmp_path / "src" / "resoforge").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "resoforge" / "a.py").write_text(
        "from dataclasses import dataclass, fields\n"
        "class Record:\n"
        "    def to_dict(self):\n        return {f.name: getattr(self, f.name) for f in fields(self)}\n"
        "@dataclass\nclass First(Record):\n    one: int\n"
        "    def to_dict(self):\n        return {**super().to_dict(), 'first': 1}\n"
        "@dataclass\nclass Second(Record):\n    two: int\n"
        "    def to_dict(self):\n        return {k.upper(): v for k, v in super().to_dict().items()}\n"
        "def build():\n    return [First(1), Second(2)]\n"
        "def encode(records):\n    return [r.to_dict() for r in records]\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text("from resoforge.a import build\nbuild()\n")
    assert unreached_names(tmp_path) == [
        "a.First.one", "a.First.to_dict", "a.Record.to_dict", "a.Second.to_dict", "a.Second.two", "a.encode"]
    # a live to_dict call reaches every to_dict, and so every printed field
    (tmp_path / "perfbench" / "run.py").write_text("from resoforge.a import build, encode\nencode(build())\n")
    assert unreached_names(tmp_path) == []


def test_dynamic_scan_finds_every_def_never_entered(tmp_path, monkeypatch):
    (tmp_path / "src" / "resoforge").mkdir(parents=True)
    path = tmp_path / "src" / "resoforge" / "a.py"
    path.write_text(
        "import functools\n"
        "def dead():\n    return 1\n"
        "def rare():\n    return 2\n"
        "@functools.cache\n"
        "def used(x):\n"
        "    def inner():\n        return x\n"
        "    def dead_inner():\n        return -x\n"
        "    return Box(inner()).size\n"
        "class Box:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    @property\n    def size(self):\n        return self.n\n"
        "    def dead_method(self):\n        return 0\n"
        "    def __repr__(self):\n        return 'Box'\n"
    )
    spec = importlib.util.spec_from_file_location("reach_self_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(INPUT_DEPENDENT, "a.rare", "an input this run does not give")
    # used and size are decorated: each is known by its decorator's line
    assert never_entered(lambda: module.used(3), tmp_path) == [
        "a.Box.__repr__", "a.Box.dead_method", "a.dead", "a.used.dead_inner"]


if __name__ == "__main__":
    findings = never_entered(entry_points)
    for name in findings:
        print(f"never entered: {name}")
    sys.exit(1 if findings else 0)
