"""The series algebra's, the CLI's and the standard-form maps' outputs, byte for byte, against committed digests.

`tests/golden/averaging.json` holds sha256 digests of normal forms, CLI
documents, Morse census reports and the values and Jacobians of the
reduction maps (see `tests/golden/regen.py`).  Every other bracket and merge test
compares to a tolerance or with the library's own kernel; this one fails on
any change in the bytes of a coefficient, the order of the terms or a dropped
mass.

The same digests, and the byte-equality of one-angle evaluation, must hold
under other kernels: `test_digests_hold_across_kernels` reruns both tests in
child interpreters with OpenBLAS's Haswell kernels, and with its Prescott
kernels and numpy's dispatch targets above the x86-64 baseline disabled
(`regen.kernel_matrix`).  Only x86-64 with numpy's bundled OpenBLAS is
covered: aarch64, and other BLAS builds (where OPENBLAS_CORETYPE does
nothing), are untested.
"""

import importlib.util
import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_match_golden():
    regen = _regen()
    golden = json.loads(regen.GOLDEN.read_text())
    assert len(golden) == 52
    now = regen.digests()
    assert sorted(now) == sorted(golden)
    assert [name for name in golden if now[name] != golden[name]] == []


def test_digests_hold_across_kernels():
    # a child fails if a digest or an evaluation's bytes differ under its kernels
    children = _regen().run_children([
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py::test_digests_match_golden",
        "tests/test_fourier.py::TestEvaluate::test_off_grid_angles_match_direct_sum",
        "tests/test_fourier.py::TestTrigValues::test_stack_equals_each_entry_alone"])
    assert {name: out[-3000:] for name, (code, out) in children.items() if code} == {}
