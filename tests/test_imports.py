"""What the library and the tests import, each check in a fresh interpreter
or on the source: scipy is a test oracle that no module loads on import, no
test module imports another, and the first call of each kind of work imports
nothing."""

import ast
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _run(script: str):
    """The value of the expression printed last by script, run in a fresh
    interpreter that finds resoforge under src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy():
    loaded = _run("import sys, resoforge.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == []


def test_test_modules_load_no_scipy():
    # scipy.integrate costs about 0.4 s an interpreter; the DOP853 tests import it as they run
    modules = sorted(path.stem for path in TESTS.glob("test_*.py")) + ["regen"]
    loaded = _run(f"import sys\nsys.path[:0] = {[str(TESTS), str(TESTS / 'golden')]!r}\n"
                  f"for name in {modules!r}:\n    __import__(name)\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == []


def imports_of_test_modules(root):
    """"path:line" of each import of a test_* module in a .py file under root."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(part.startswith("test_") for name in names for part in name.split(".")):
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_test_module_imports_another(tmp_path):
    assert imports_of_test_modules(TESTS) == []
    (tmp_path / "a.py").write_text("import math\nfrom test_fourier import on_ray\n")
    (tmp_path / "b.py").write_text("import test_lieseries as t\n")
    (tmp_path / "c.py").write_text("from exact import gamma\nimport reference\n")
    assert imports_of_test_modules(tmp_path) == ["a.py:2", "b.py:1"]


FIRST_CALLS = """
import sys
import numpy as np
import resoforge as rf

def membership():
    f = rf.TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.3, (2, 1): 0.05})
    rf.check_membership(f, rf.GenericityParams(n=2, s=5.0, delta=1.0, beta=1e-3, K_max=12))

def reduction():
    params = rf.free_params(2, 1.0, alpha=0.03, K0=2, K=6)
    sf = rf.standardize(rf.two_mode_potential(1.0), 1.0, 1e-4, (1, 1), params,
                        np.array([0.5, -0.5]), beta=0.05, order=2)
    rf.verify_standard(sf, sf.fp.base_phat[None, :])

def averaging():
    ham = rf.NaturalHam(2, 1e-3, rf.TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7}))
    y0 = np.array([0.7, 0.31])
    nf = rf.lie_step_nonres(ham, rf.free_params(2, 1.0, alpha=0.02, K0=2, K=8), y0,
                            order=2, max_degree=3)
    rf.verify_conjugacy(ham, nf, [(y0, np.array([0.4, 1.3]))])

def cover():
    Y = np.random.default_rng(0).uniform(-0.7, 0.7, (64, 2))
    rf.classify_batch(Y, rf.free_params(2, 1.0, alpha=0.05, K0=2, K=5))

new = {}
for call in (membership, reduction, averaging, cover):
    before = set(sys.modules)
    call()
    new[call.__name__] = sorted(set(sys.modules) - before)
print(new)
"""


def test_first_calls_import_nothing():
    # a module numpy loads on first use would be imported inside the first
    # timed call of each kind of work
    new = _run(FIRST_CALLS)
    assert new == {"membership": [], "reduction": [], "averaging": [], "cover": []}
