"""The series algebra's and the CLI's outputs, byte for byte, against committed digests.

`tests/golden/averaging.json` holds sha256 digests of normal forms and CLI
documents (see `tests/golden/regen.py`).  Every other bracket and merge test
compares to a tolerance or with the library's own kernel; this one fails on
any change in the bytes of a coefficient, the order of the terms or a dropped
mass.
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
    assert len(golden) == 31
    now = regen.digests()
    assert sorted(now) == sorted(golden)
    assert [name for name in golden if now[name] != golden[name]] == []
