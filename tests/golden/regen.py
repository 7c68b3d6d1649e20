"""Golden digests of the series algebra's outputs.

The sha256 of `json.dumps(doc, sort_keys=True)` for
- every `AveragedNF.to_dict()` of `lie_step_nonres` and `lie_step_res` at
  orders 2-5 and degree 3, on the draws of
  `TestArrayStorage::test_averaging_matches_dict_reference` (non-resonant at
  K = 8, resonant at K = 6);
- the CLI documents of `normalize` (resonant and non-resonant) and
  `standardize` on the two-mode preset, `check-generic` on a lacunary and a
  random preset, `cover measure` and `bezout`, without the timestamp and with
  file paths cut to their names.
A change that moves one byte of a coefficient (-0.0 included), the order of
the terms, a divisor or a dropped mass changes a digest.

    PYTHONPATH=src python tests/golden/regen.py    # rewrites averaging.json

Run it only where the outputs are meant to change, and say why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "averaging.json"
sys.path.insert(0, str(HERE.parent))

from resoforge.cli import main  # noqa: E402
from resoforge.cover import free_params  # noqa: E402
from resoforge.lieseries import NaturalHam, lie_step_nonres, lie_step_res  # noqa: E402
from test_lieseries import averaging_potential  # noqa: E402

# (seed, k) of the averaging draws
CASES = ((1, (1, 1)), (2, (1, -1)), (3, (1, 2)))

NORMALIZE = ["normalize", "--potential", "two-mode:s=1.0", "--eps", "1e-3", "--k0", "2", "--K", "6"]
FREE_N2 = {"mode": "free", "n": 2, "s": 1.0, "K0": 2, "alpha": 0.03, "K": 6}
# name -> (params file or None, argv, exit code)
CLI_RUNS = {
    "normalize_resonant": (None, [*NORMALIZE, "--alpha", "0.03", "--order", "2", "--degree", "3",
                                  "--base-point", "0.5,-0.5", "--resonant-k", "1,1"], 0),
    "normalize_nonresonant": (None, [*NORMALIZE, "--alpha", "0.02", "--base-point", "0.7,0.31"], 0),
    "standardize": (FREE_N2, ["standardize", "--potential", "two-mode:s=1.0", "--eps", "1e-6",
                              "--k", "1,1", "--params", "PARAMS", "--y0", "0.5,-0.5",
                              "--beta", "0.05"], 0),
    "check_generic_lacunary": (None, ["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20",
                                      "--delta", "1", "--beta", "1e-30", "--kmax", "20"], 0),
    # not in the class; the census runs on every low-mode projection
    "check_generic_random": (None, ["check-generic", "--potential", "random:n=2,s=1.0,kmax=70,seed=7",
                                    "--delta", "0.1", "--beta", "0.05", "--kmax", "70"], 1),
    "cover_measure": (FREE_N2, ["cover", "measure", "--params", "PARAMS", "--samples", "20000",
                                "--seed", "1"], 0),
    "bezout": (None, ["bezout", "--k", "3,5,7"], 0),
}


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def averaging_digests() -> dict[str, str]:
    out = {}
    for seed, k in CASES:
        rng = np.random.default_rng([2, seed, 0])
        u = np.array([-k[1], k[0]], dtype=float)
        cases = [(None, averaging_potential(rng), free_params(2, 1.0, alpha=0.02, K0=2, K=8),
                  np.array([0.7, 0.31])),
                 (k, averaging_potential(rng, must_have=k),
                  free_params(2, 1.0, alpha=0.03, K0=2, K=6), 0.7 * u / np.linalg.norm(u))]
        for kk, f, params, y0 in cases:
            ham = NaturalHam(2, 1e-3, f)
            for order in (2, 3, 4, 5):
                if kk is None:
                    nf = lie_step_nonres(ham, params, y0, order=order, max_degree=3)
                else:
                    nf = lie_step_res(ham, kk, params, y0, order=order, max_degree=3)
                kind = "nonres" if kk is None else "res"
                out[f"{kind}/seed={seed}/order={order}"] = _sha(nf.to_dict())
    return out


def cli_digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (params, argv, code) in CLI_RUNS.items():
            path, doc_path = pathlib.Path(tmp, "params.json"), pathlib.Path(tmp, f"{name}.json")
            if params is not None:
                path.write_text(json.dumps(params))
            argv = [str(path) if a == "PARAMS" else a for a in argv]
            if main([*argv, "--out", str(doc_path)]) != code:
                raise RuntimeError(f"{name}: exit code other than {code}")
            doc = json.loads(doc_path.read_text())
            doc.pop("timestamp")
            doc["config"].pop("out")
            if "params" in doc["config"]:
                doc["config"]["params"] = pathlib.Path(doc["config"]["params"]).name
            out[name] = _sha(doc)
    return out


def digests() -> dict[str, str]:
    return {**averaging_digests(), **cli_digests()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
