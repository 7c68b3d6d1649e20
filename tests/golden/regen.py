"""Golden digests of the series algebra's outputs.

The sha256 of `json.dumps(doc, sort_keys=True)` for
- every `AveragedNF.to_dict()` of `lie_step_nonres` and `lie_step_res` at
  orders 2-5 and degree 3, on the draws of
  `TestArrayStorage::test_averaging_matches_dict_reference` (non-resonant at
  K = 8, resonant at K = 6), each series' entries printed in slot order,
  the order of its rows (`TaylorFourierSeries.to_entries`);
- the CLI documents of `normalize` (resonant and non-resonant) and
  `standardize` on the two-mode preset, `check-generic` on a lacunary and a
  random preset, `cover measure` (once within one sampling chunk, and at n = 2
  and n = 3 across three chunks), `bezout` and `report --quick`, without the
  timestamp or any criterion's runtime and with file paths cut to their names;
- the Morse census (count, critical points, beta and distinct_values) of
  criterion 3's 501 polynomials (`acceptance._morse_oracle_family`) and of
  the low-mode projections pi_k f, |k|_1 <= N, of one pool of the certify
  benchmark's membership jobs (`sample_product_measure` at s = 5, seed
  [101, 5, 0], delta 0.1, K_max = N + 10), each in one
  `critical_points_many` call;
- the same census, under its own name, of 300 close pairs drawn by the
  certify benchmark's census law (separation 10^U(-6, 0), amplitude
  U(0.5, 2), shift U(0, 2 pi); seed [42, 0]) in one `critical_points_many`
  call: most of them reach the exact integer path, which criterion 3's
  family reaches 57 times;
- the standard-form maps of criterion 8's two-action form
  (`acceptance._benchmark_standard_form`) and of the three-mode pipeline form
  (`reference.three_mode_standard_form`) at 20 seeded points each:
  `jacobian` of Phi2 and Phi3, `phi_diamond_jacobian`, `apply` of Phi2 and Phi3,
  Phi3's inverse round trip, `h0` and `check_reduction_identity`.  The maps
  take a stack of points, but here each is called on one point at a time,
  so the corpus pins the one-point path; `test_standard_form.py`'s
  `TestMaps::test_stacked_calls_equal_per_point_calls` requires the stacked
  call on the same points to give the same bytes.
A change that moves one byte of a coefficient (-0.0 included), the order of
the terms, a divisor or a dropped mass changes a digest.

    PYTHONPATH=src python tests/golden/regen.py    # rewrites averaging.json
    PYTHONPATH=src python tests/golden/regen.py --documents > docs.txt
    PYTHONPATH=src python tests/golden/regen.py --documents census > census.txt

`--documents` rewrites nothing: it prints each hashed document under its
name (`## name`, then the document as indented JSON), so the documents
before and after a change can be diffed and a moved digest read off.  A
name prefix after it (`census`, `maps/`, `res/`, `normalize`, ...) prints
only the documents whose names start with it, and computes only the
families that hold such names: the census documents of two trees diff in
about a second.

    PYTHONPATH=src python tests/golden/regen.py --compare before.txt after.txt

`--compare` reads two `--documents` dumps and classifies each document that
differs, one table row each (`compare`).  A structural change is a document
or dict key present on one side only, a list of another length, or a
non-float leaf that differs (a string, an integer, a boolean, a float
against a non-float).  A list whose entries are an exact permutation of the
parent's is "reordered".  Everything else is float-only: the row gives the
moved float leaves, how many of them only flipped the sign of a zero, the
largest move |b - a| over the largest magnitude in the parent's document,
and the largest relative move |b - a| / |a| among the leaves whose |a| is at
least 1e-6 of that magnitude, with its path.  It
exits 1 when a change is structural.

Run it only where the outputs are meant to change, and say why.  It first
computes the digests in one child interpreter per setting of
`kernel_matrix()` (other OpenBLAS kernels, and numpy without its dispatch
targets above the x86-64 baseline), and rewrites nothing unless every child
gives the digests that this process gives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "averaging.json"
sys.path.insert(0, str(HERE.parent))

import resoforge  # noqa: E402
from resoforge.acceptance import _benchmark_standard_form, _morse_oracle_family  # noqa: E402
from resoforge.cli import main  # noqa: E402
from resoforge.fourier import generators, lattice_projections  # noqa: E402
from resoforge.genericity import sample_product_measure, threshold_N  # noqa: E402
from resoforge.lieseries import NaturalHam  # noqa: E402
from resoforge.morse import critical_points_many  # noqa: E402
from reference import averaging_cases, close_pairs, lie_step, three_mode_standard_form  # noqa: E402

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
    # three 65,536-point sampling chunks each, the last one partial; at n = 3,
    # alpha = 0.02 puts about 0.7% of the points in R1
    "cover_measure_chunks_n2": ({**FREE_N2, "alpha": 0.05, "K": 5},
                                ["cover", "measure", "--params", "PARAMS", "--samples", "150000",
                                 "--seed", "2"], 0),
    "cover_measure_chunks_n3": ({**FREE_N2, "n": 3, "alpha": 0.02, "K": 4},
                                ["cover", "measure", "--params", "PARAMS", "--samples", "140000",
                                 "--seed", "3"], 0),
    "bezout": (None, ["bezout", "--k", "3,5,7"], 0),
    "report_quick": (None, ["report", "--quick"], 0),
}


# numpy's dispatch targets above its x86-64 baseline
NPY_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def kernel_matrix() -> dict[str, dict[str, str]]:
    """name -> environment settings of each child interpreter of the
    cross-kernel check: OpenBLAS's Haswell kernels, and its Prescott kernels
    with numpy's targets above the baseline disabled.  Only targets that this
    numpy reports as present are disabled: naming an absent one warns, and
    the tests turn warnings into errors."""
    found = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found") or []
    return {"haswell": {"OPENBLAS_CORETYPE": "Haswell"},
            "prescott": {"OPENBLAS_CORETYPE": "Prescott",
                         "NPY_DISABLE_CPU_FEATURES": " ".join(t for t in NPY_TARGETS if t in found)}}


def run_children(argv: list[str], timeout: float = 600.0) -> dict[str, tuple[int, str]]:
    """name -> (exit code, output) of argv run by one child interpreter per
    `kernel_matrix()` setting, all at once, from the repository root with the
    source tree of the imported resoforge first on the path; a child still
    running after timeout seconds is killed."""
    src = str(pathlib.Path(resoforge.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    children = {name: subprocess.Popen([sys.executable, *argv], cwd=HERE.parents[1], text=True,
                                       env={**os.environ, **setting, "PYTHONPATH": path},
                                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
                for name, setting in kernel_matrix().items()}
    done = {}
    for name, child in children.items():
        try:
            out = child.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            child.kill()
            out = child.communicate()[0] + f"\nkilled after {timeout} s"
        done[name] = (child.returncode, out)
    return done


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def averaging_documents() -> dict:
    out = {}
    for seed, k in CASES:
        for kk, f, params, y0 in averaging_cases(seed, k):
            ham = NaturalHam(2, 1e-3, f)
            for order in (2, 3, 4, 5):
                nf = lie_step(ham, kk, params, y0, order=order, max_degree=3)
                kind = "nonres" if kk is None else "res"
                out[f"{kind}/seed={seed}/order={order}"] = nf.to_dict()
    return out


def cli_documents() -> dict:
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
            for result in doc.get("results", []):
                result.pop("runtime")
            doc["config"].pop("out")
            if "params" in doc["config"]:
                doc["config"]["params"] = pathlib.Path(doc["config"]["params"]).name
            out[name] = doc
    return out


def _census(Fs) -> list:
    return [None if rep is None else {"count": rep.count, "points": rep.critical_points.tolist(),
                                      "beta": rep.beta, "distinct_values": rep.distinct_values}
            for rep in critical_points_many(Fs)]


def census_documents() -> dict:
    N = threshold_N(2, 5.0, 0.1)
    f = sample_product_measure(2, 5.0, N + 10.0, [101, 5, 0])
    families = {"criterion_3": _morse_oracle_family(500)[0],
                "membership_pool": lattice_projections(f, generators(2, N))}
    return {"census": {name: _census(Fs) for name, Fs in families.items()},
            "census_close_pairs": _census(close_pairs(300, [42, 0]))}


def map_documents() -> dict:
    out = {}
    forms = {"two_action": lambda: _benchmark_standard_form()[0], "three_mode": three_mode_standard_form}
    for name, build in forms.items():
        sf = build()
        n, r = sf.n, sf.form.r
        rng = np.random.default_rng(20)
        pts = [np.concatenate([rng.uniform(-r, r, 1), sf.fp.base_phat + rng.uniform(-r, r, n - 1),
                               rng.uniform(0, 2 * np.pi, n)]) for _ in range(20)]
        inverse = sf.phi3.inverse()
        for label, jacobian in (("phi2", sf.phi2.jacobian), ("phi3", sf.phi3.jacobian),
                                ("composite", sf.phi_diamond_jacobian)):
            out[f"maps/{name}/{label}/jacobian"] = [jacobian(z).tolist() for z in pts]
        for label, transform in (("phi2", sf.phi2), ("phi3", sf.phi3)):
            out[f"maps/{name}/{label}/apply"] = [transform.apply(z).tolist() for z in pts]
        out[f"maps/{name}/phi3/round_trip"] = [inverse.apply(sf.phi3.apply(z)).tolist() for z in pts]
        out[f"maps/{name}/h0"] = [float(sf._h0(sf.fp.read(z[1:n]).G0, z[1:n])) for z in pts]
        out[f"maps/{name}/reduction_identity"] = float(
            sf.check_reduction_identity([z[:n] for z in pts], [z[n] for z in pts]))
    return out


# the name prefixes of each family of documents
FAMILIES = {("nonres/", "res/"): averaging_documents, tuple(CLI_RUNS): cli_documents,
            ("census",): census_documents, ("maps/",): map_documents}


def documents(prefix: str = "") -> dict:
    """name -> the document whose digest averaging.json holds under that name,
    for the names that start with prefix; families with no such name are not
    computed."""
    return {name: doc for heads, build in FAMILIES.items()
            if any(head.startswith(prefix) or prefix.startswith(head) for head in heads)
            for name, doc in build().items() if name.startswith(prefix)}


def digests() -> dict[str, str]:
    return {name: _sha(doc) for name, doc in documents().items()}


def read_dump(text: str) -> dict:
    """name -> document of a `--documents` dump."""
    docs, name, lines = {}, None, []
    for line in text.splitlines() + ["## "]:
        if line.startswith("## "):
            if name is not None:
                docs[name] = json.loads("\n".join(lines))
            name, lines = line[3:], []
        else:
            lines.append(line)
    return docs


class _Moves:
    """What differs between a parent document and a new one (`compare`)."""

    def __init__(self):
        self.structural, self.reordered, self.floats = [], [], []

    def walk(self, a, b, path: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.structural.append(f"keys at {path or '/'}")
            for key in sorted(a.keys() & b.keys()):
                self.walk(a[key], b[key], f"{path}.{key}" if path else key)
        elif isinstance(a, list) and isinstance(b, list):
            ca, cb = list(map(_canonical, a)), list(map(_canonical, b))
            if len(a) != len(b):
                self.structural.append(f"length at {path or '/'}")
            elif ca != cb and sorted(ca) == sorted(cb):
                self.reordered.append(path or "/")
            elif ca != cb:
                for i, (u, v) in enumerate(zip(a, b)):
                    self.walk(u, v, f"{path}[{i}]")
        elif type(a) is float and type(b) is float:
            if _canonical(a) != _canonical(b):
                self.floats.append((path, a, b))
        elif type(a) is not type(b) or a != b:
            self.structural.append(f"leaf at {path}: {a!r} -> {b!r}")


def _canonical(x) -> str:
    """x's JSON text, which tells -0.0 from 0.0 and equals NaN to NaN."""
    return json.dumps(x, sort_keys=True)


def _float_leaves(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from _float_leaves(v)
    elif type(x) is float:
        yield x


def compare(before: dict, after: dict) -> tuple[list[str], bool]:
    """(markdown table rows, whether any change is structural) of the
    documents that differ between the dumps before and after."""
    rows = ["| document | change | moved floats | zero sign flips | max move / max magnitude "
            "| max relative move | at |", "|---|---|---|---|---|---|---|"]
    structural = False
    for name in sorted(before.keys() | after.keys()):
        if name not in before or name not in after:
            rows.append(f"| {name} | structural: only {'after' if name in after else 'before'} | | | | | |")
            structural = True
            continue
        if _canonical(before[name]) == _canonical(after[name]):
            continue
        moves = _Moves()
        moves.walk(before[name], after[name], "")
        if moves.structural:
            rows.append(f"| {name} | structural: {'; '.join(moves.structural[:3])} | | | | | |")
            structural = True
            continue
        scale = max((abs(v) for v in _float_leaves(before[name]) if math.isfinite(v)), default=0.0)
        flips = sum(a == b for _p, a, b in moves.floats)
        worst, at = 0.0, ""
        for path, a, b in moves.floats:
            if abs(a) >= 1e-6 * scale and a != b and abs(b - a) / abs(a) > worst:
                worst, at = abs(b - a) / abs(a), path
        kinds = (["float-only"] if moves.floats else []) + [f"reordered {p}" for p in moves.reordered]
        largest = max((abs(b - a) / scale for _p, a, b in moves.floats if scale), default=0.0)
        rows.append(f"| {name} | {'; '.join(kinds)} | {len(moves.floats)} | {flips} | "
                    f"{f'{largest:.1e}' if moves.floats else '-'} | {f'{worst:.1e}' if at else '-'} | "
                    f"{at or '-'} |")
    moved = len(rows) - 2
    rows.append(f"\n{moved} of {len(before.keys() | after.keys())} documents moved, "
                f"{'some' if structural else 'none'} structurally")
    return rows, structural


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: regen.py --compare BEFORE AFTER")
        table, structural = compare(*(read_dump(pathlib.Path(p).read_text()) for p in sys.argv[2:]))
        print("\n".join(table))
        sys.exit(1 if structural else 0)
    if sys.argv[1:2] == ["--documents"]:
        if len(sys.argv) > 3:
            sys.exit("usage: regen.py --documents [NAME_PREFIX]")
        with contextlib.redirect_stdout(io.StringIO()):
            docs = documents(*sys.argv[2:])
        for name, doc in sorted(docs.items()):
            print(f"## {name}\n{json.dumps(doc, indent=1, sort_keys=True)}")
        sys.exit()
    if sys.argv[1:] == ["--print"]:  # a child of the matrix: the digests as one JSON line
        with contextlib.redirect_stdout(io.StringIO()):
            now = digests()
        print(json.dumps(now))
        sys.exit()
    children = run_children([__file__, "--print"])
    now = digests()
    for name, (code, out) in children.items():
        if code:
            sys.exit(f"{name} child failed, {GOLDEN} not rewritten:\n{out}")
        other = json.loads(out.splitlines()[-1])
        differ = sorted(key for key in now if other.get(key) != now[key])
        if differ:
            sys.exit(f"under {name}, {differ} differ; {GOLDEN} not rewritten")
    GOLDEN.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
