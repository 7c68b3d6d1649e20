"""The series algebra's, the CLI's and the standard-form maps' outputs, byte for byte, against committed digests.

`tests/golden/averaging.json` holds sha256 digests of normal forms, CLI
documents, Morse census reports and the values and Jacobians of the
reduction maps (see `tests/golden/regen.py`).  Every other bracket and merge test
compares to a tolerance or with the library's own kernel; this one fails on
any change in the bytes of a coefficient, the order of the terms or a dropped
mass.

The same digests, the byte-equality of one-angle evaluation and that of the
reduction maps' stacked and per-point calls must hold under other kernels:
`test_digests_hold_across_kernels` reruns those tests in child interpreters
with OpenBLAS's Haswell kernels, and with its Prescott kernels and numpy's
dispatch targets above the x86-64 baseline disabled
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
    # a child fails if a digest or an evaluation's bytes differ under its kernels;
    # the maps' stacked calls hold the decoupled potential's sums of a stack
    children = _regen().run_children([
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py::test_digests_match_golden",
        "tests/test_fourier.py::TestEvaluate::test_off_grid_angles_match_direct_sum",
        "tests/test_fourier.py::TestTrigValues::test_stack_equals_each_entry_alone",
        "tests/test_standard_form.py::TestMaps::test_stacked_calls_equal_per_point_calls"])
    assert {name: out[-3000:] for name, (code, out) in children.items() if code} == {}


def test_compare_classifies_each_kind_of_move():
    # float moves (a signed-zero flip among them), a reordered list and four
    # structural changes, on two dumps written as `--documents` writes them
    regen = _regen()
    before = {"same": {"a": [1.0, 2]},
              "floats": {"x": [1.0, 0.0, 1e-9, 0.5], "n": 3},
              "order": {"log": [{"k": [1, 0], "v": 0.5}, {"k": [0, 1], "v": 0.25}]},
              "length": [1.0], "key": {"a": 1.0}, "leaf": {"k": [1, 0]}, "gone": 1.0}
    after = {"same": {"a": [1.0, 2]},
             "floats": {"x": [1.0 + 2 ** -52, -0.0, 2e-9, 0.5], "n": 3},
             "order": {"log": [{"k": [0, 1], "v": 0.25}, {"k": [1, 0], "v": 0.5}]},
             "length": [1.0, 2.0], "key": {"b": 1.0}, "leaf": {"k": [1, 2]}, "new": 1.0}

    def dump(docs):
        return "".join(f"## {name}\n{json.dumps(doc, indent=1, sort_keys=True)}\n"
                       for name, doc in docs.items())

    assert regen.read_dump(dump(before)) == before
    rows, structural = regen.compare(regen.read_dump(dump(before)), regen.read_dump(dump(after)))
    cells = {row.split(" | ")[0][2:]: row.split(" | ")[1:] for row in rows[2:-1]}
    assert structural and rows[-1] == "\n7 of 8 documents moved, some structurally"
    # three moved leaves, one of them a zero's sign; the largest move is the
    # 1e-9 one, but 1e-9 is below 1e-6 of the largest magnitude 1.0, so the
    # largest relative move is the first entry's
    assert cells["floats"][:5] == ["float-only", "3", "1", "1.0e-09", "2.2e-16"]
    assert cells["floats"][5] == "x[0] |"
    assert cells["order"][0] == "reordered log"
    for name, change in (("length", "length at /"), ("key", "keys at /"),
                         ("leaf", "leaf at k[1]: 0 -> 2"), ("gone", "only before"), ("new", "only after")):
        assert cells[name][0].startswith("structural: ") and change in cells[name][0]
    assert "same" not in cells
