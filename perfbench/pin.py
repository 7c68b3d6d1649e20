"""Write pins.json: the membership verdicts and measure_R2 counts of the
benchmark's input pools, as the library under ``src/`` computes them.

The certify and cover workloads draw their membership potentials and
measure_R2 seeds from these fixed pools and compare each result with its pin.
Regenerate only when a pool definition in workloads.py changes, and only from
a commit whose results are trusted; a pin records what the code returned,
not a proof that it is right.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from resoforge import cover, genericity  # noqa: E402


def main() -> int:
    pins = {"membership": {}, "measure_R2": {}}
    for s, _per_round in W.MEMBERSHIP_WIDTHS:
        _N, K_max, _beta = W.membership_setup(s)
        rows = []
        for i in range(W.MEMBERSHIP_POOL):
            f = genericity.sample_product_measure(2, float(s), K_max, W.membership_pool_seed(s, i))
            rows.append(W.membership_signature(W.membership_run(f, s)))
        pins["membership"][f"s={s}"] = rows
        print(f"membership s={s}: {sum(not r[0] for r in rows)}/{len(rows)} not in class",
              flush=True)
    for n, _alpha, _K0, _K, samples, _points, _labels in W.COVER_CONFIGS:
        params = W.measure_params(n)
        pins["measure_R2"][f"n={n}"] = [
            W.measure_signature(cover.measure_R2(params, samples, W.measure_pool_seed(n, i)))
            for i in range(W.MEASURE_POOL)
        ]
        print(f"measure_R2 n={n}: {W.MEASURE_POOL} pins", flush=True)
    with open(W.PINS_PATH, "w") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
