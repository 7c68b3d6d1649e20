"""Command-line front end.

Subcommands: sample, check-generic, cover classify|measure|raster, bezout,
normalize, standardize, report.  Reports are JSON (CSV for bulk samples and
rasters) with the invoking configuration echoed, so a run is reproducible
from its report.  Exit codes: 0 all hard checks passed; 1 an invariant
failed, or a hypothesis of the construction failed on well-formed inputs
(fourier.HypothesisError); 2 an argument is not admissible
(fourier.ConfigError).  Each error prints one `error:` line; any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .cover import (
    CoveringParams,
    RegionLabel,
    ball_points,
    classify_batch,
    classify_point,
    derive_params,
    free_params,
    measure_R2,
)
from .fourier import (ConfigError, HypothesisError, Record, is_generator, lacunary_potential, load_potential,
                      save_potential, two_mode_potential)
from .genericity import GenericityParams, check_membership, sample_product_measure
from .lieseries import NaturalHam, lie_step_nonres, lie_step_res
from .standard_form import GRID, standardize, verify_standard, _THETA
from .unimodular import complete_to_sl, decoupling_matrix

EXIT_OK = 0
EXIT_INVARIANT = 1


def _parse_vector(option: str, text: str, n: int | None = None, dtype=float) -> list:
    """The comma-separated entries of an option, n of them when n is given."""
    try:
        vector = [dtype(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{option}: cannot parse vector {text!r}") from exc
    if n is not None and len(vector) != n:
        raise ConfigError(f"{option} needs {n} entries, got {len(vector)}")
    if not np.all(np.isfinite(vector)):
        raise ConfigError(f"{option} entries must be finite, got {text!r}")
    return vector


def _finite(option: str, value: float) -> float:
    if not np.isfinite(value):
        raise ConfigError(f"{option} must be finite, got {value!r}")
    return value


def _nonnegative(option: str, value: int) -> int:
    if value < 0:
        raise ConfigError(f"{option} must be nonnegative")
    return value


def _parse_mode(option: str, text: str, n: int) -> tuple[int, ...]:
    k = tuple(_parse_vector(option, text, n, int))
    if not any(k):
        raise ConfigError(f"{option} must be a nonzero integer vector")
    if not is_generator(k):
        raise ConfigError(f"{option} must be a generator: coprime entries, the first nonzero one positive")
    return k


def _load_params(path: str) -> CoveringParams:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read params file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"invalid params file {path}: expected a JSON object")
    mode = doc.get("mode", "free")
    if mode not in ("paper-preset", "free"):
        raise ConfigError(f"unknown params mode {mode!r}")
    real = "epsilon" if mode == "paper-preset" else "alpha"
    try:
        n, K0, K = (doc[key] for key in ("n", "K0", "K"))
        s, x = float(doc["s"]), float(doc[real])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params file {path}: {exc}") from exc
    if not all(type(v) is int for v in (n, K0, K)):
        raise ConfigError(f"invalid params file {path}: n, K0 and K must be integers")
    if not (np.isfinite(s) and np.isfinite(x)):
        raise ConfigError(f"invalid params file {path}: s and {real} must be finite")
    return (derive_params if mode == "paper-preset" else free_params)(n, s, x, K0, K)


_PRESET_KEYS = {"lacunary": ("n", "s", "kmax"), "two-mode": ("s",), "random": ("n", "s", "kmax", "seed")}


def _load_potential_arg(source: str):
    """A potential source: a JSON path or a preset name
    lacunary:n=2,s=1.0[,kmax=40] / two-mode:s=1.0 / random:n=2,s=1.0,kmax=20,seed=7."""
    if ":" in source and not source.endswith(".json"):
        name, _, rest = source.partition(":")
        if name not in _PRESET_KEYS:
            raise ConfigError(f"--potential {source}: unknown preset {name!r}")
        kv = {}
        for part in filter(None, rest.split(",")):
            key, eq, value = part.partition("=")
            if not eq:
                raise ConfigError(f"--potential {source}: {part!r} is not key=value")
            if key not in _PRESET_KEYS[name]:
                raise ConfigError(f"--potential {source}: unknown key {key!r} for {name} "
                                  f"(known: {', '.join(_PRESET_KEYS[name])})")
            kv[key] = value
        try:
            s, n, seed = float(kv.get("s", 1.0)), int(kv.get("n", 2)), int(kv.get("seed", 0))
            kmax = float(kv.get("kmax", 40 if name == "lacunary" else 20))
        except ValueError as exc:
            raise ConfigError(f"--potential {source}: {exc}") from exc
        for key, value in (("s", s), ("kmax", kmax)):
            _finite(f"--potential {source}: {key}", value)
        if name == "two-mode":
            return two_mode_potential(s), s
        if name == "lacunary":
            return lacunary_potential(n, s, kmax), s
        return sample_product_measure(n, s, kmax, _nonnegative(f"--potential {source}: seed", seed)), s
    try:
        return load_potential(source)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load potential {source}: {exc}") from exc


def _emit(doc: dict, out: str | None) -> None:
    """Write doc as JSON, each Record in it (nested ones too) as its
    to_dict(); a NaN or infinite number in it is a bug and raises ValueError,
    and any other value JSON cannot encode raises json's own TypeError."""
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False, default=lambda obj: (
        obj.to_dict() if isinstance(obj, Record) else json.JSONEncoder().default(obj)))
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {out}: {exc}") from exc
    else:
        print(text)


def _report_skeleton(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


# -- subcommand handlers ------------------------------------------------------

def cmd_sample(args) -> int:
    _finite("--s", args.s)
    _finite("--kmax", args.kmax)
    f = sample_product_measure(args.n, args.s, args.kmax, _nonnegative("--seed", args.seed))
    save_potential(f, args.s, args.out)
    print(f"wrote {args.out} ({len(f.coeffs)} modes)")
    return EXIT_OK


def cmd_check_generic(args) -> int:
    f, s = _load_potential_arg(args.potential)
    params = GenericityParams(n=f.n, s=s, delta=_finite("--delta", args.delta),
                              beta=_finite("--beta", args.beta), K_max=_finite("--kmax", args.kmax))
    report = check_membership(f, params)
    doc = _report_skeleton(args)
    doc["report"] = report
    _emit(doc, args.out)
    return EXIT_OK if report.in_class else EXIT_INVARIANT


def cmd_cover_classify(args) -> int:
    params = _load_params(args.params)
    y = _parse_vector("--y", args.y, params.n)
    labels = classify_point(np.array(y), params)
    doc = _report_skeleton(args)
    doc["labels"] = labels
    doc["params"] = params
    _emit(doc, args.out)
    return EXIT_OK if labels else EXIT_INVARIANT


def cmd_cover_measure(args) -> int:
    params = _load_params(args.params)
    if args.csv:
        _nonnegative("--csv-rows", args.csv_rows)
    est = measure_R2(params, args.samples, _nonnegative("--seed", args.seed))
    if args.csv:
        # the first csv_rows points measure_R2 classified, chunk by chunk
        m = min(args.samples, args.csv_rows)
        Y = np.empty((0, params.n))
        chunks = ball_points(params.n, args.samples, args.seed)
        while len(Y) < m:
            Y = np.concatenate([Y, next(chunks)[: m - len(Y)]])
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sample_index"] + [f"y{i+1}" for i in range(params.n)]
                + ["label_kind", "k", "l"]
            )
            # classify_point lists R0 first, so only the other rows need it
            r0 = classify_batch(Y, params).is_r0
            for i in range(m):
                lab = RegionLabel("R0") if r0[i] else classify_point(Y[i], params, all_pairs=False)[0]
                writer.writerow([
                    i, *Y[i], lab.kind,
                    " ".join(map(str, lab.k)) if lab.k else "",
                    " ".join(map(str, lab.l)) if lab.l else "",
                ])
    doc = _report_skeleton(args)
    doc["estimate"] = est
    _emit(doc, args.out)
    return EXIT_OK


def cmd_cover_raster(args) -> int:
    params = _load_params(args.params)
    if params.n != 2:
        raise ConfigError("raster export is two-dimensional")
    g = _nonnegative("--grid", args.grid)
    axis = np.linspace(-0.99, 0.99, g)
    pts = np.column_stack([np.repeat(axis, g), np.tile(axis, g)])
    pts = pts[np.linalg.norm(pts, axis=1) < 1.0]
    codes = classify_batch(pts, params).codes
    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y1", "y2", "region_code"])
        for (y1, y2), code in zip(pts, codes):
            writer.writerow([f"{y1:.6f}", f"{y2:.6f}", int(code)])
    print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_bezout(args) -> int:
    k = tuple(_parse_vector("--k", args.k, dtype=int))
    um = complete_to_sl(k)
    dm = decoupling_matrix(um)
    doc = _report_skeleton(args)
    doc.update(um.to_dict())
    doc["U"] = dm
    _emit(doc, args.out)
    return EXIT_OK if um.bounds_report()["bounds_ok"] else EXIT_INVARIANT


def cmd_normalize(args) -> int:
    f, s = _load_potential_arg(args.potential)
    _finite("--eps", args.eps)
    if args.alpha is not None:
        params = free_params(f.n, s, _finite("--alpha", args.alpha), args.k0, args.K)
    else:
        params = derive_params(f.n, s, args.eps, args.k0, args.K)
    y0 = np.array(_parse_vector("--base-point", args.base_point, f.n))
    if args.order < 1:
        raise ConfigError("--order must be at least 1")
    if args.degree < 2:
        raise ConfigError("--degree must be at least 2")
    ham = NaturalHam(f.n, args.eps, f)
    if args.resonant_k:
        k = _parse_mode("--resonant-k", args.resonant_k, f.n)
        nf = lie_step_res(ham, k, params, y0, order=args.order,
                          max_degree=args.degree)
    else:
        nf = lie_step_nonres(ham, params, y0, order=args.order,
                             max_degree=args.degree)
    doc = _report_skeleton(args)
    doc["normal_form"] = nf
    doc["params"] = params
    band_max = nf.band_coefficient_maxima()
    doc["band_coefficient_max"] = band_max
    _emit(doc, args.out)
    return EXIT_OK if band_max == 0.0 else EXIT_INVARIANT


def cmd_standardize(args) -> int:
    f, s = _load_potential_arg(args.potential)
    params = _load_params(args.params)
    if params.n != f.n:
        raise ConfigError(f"--params is for n = {params.n}, the potential has n = {f.n}")
    k = _parse_mode("--k", args.k, f.n)
    y0 = np.array(_parse_vector("--y0", args.y0, f.n))
    if args.order < 1:
        raise ConfigError("--order must be at least 1")
    for option, value in (("--beta", args.beta), ("--eps", args.eps)):
        if not 0.0 < value < np.inf:
            raise ConfigError(f"{option} must be finite and positive")
    sf = standardize(f, s, args.eps, k, params, y0, beta=args.beta,
                     delta=args.delta, order=args.order)
    phat0 = sf.fp.base_phat
    rng = np.random.default_rng(0)
    samples = phat0[None, :] + rng.uniform(-sf.chars.r, sf.chars.r,
                                           (8, f.n - 1))
    report = verify_standard(sf, samples)
    # 64 nodes of the q1 grid, so G, nu and the reduction identity below
    # read one grid solve
    rd = sf.fp.read(phat0, 1.0)
    theta = _THETA[::GRID // 64]
    doc = _report_skeleton(args)
    doc["characteristics"] = sf.chars
    doc["kappa"] = sf.chars.kappa
    doc["flags"] = report.flags
    doc["fixed_point"] = {
        "residual": sf.fp.residual,
        "contraction": sf.fp.contraction,
        "hypothesis_ok": sf.fp.hypothesis_ok,
        "p_bound_ok": sf.fp.pitale_ok,
    }
    doc["grids"] = {
        "q1": theta.tolist(),
        "G_bar": sf.G_bar.evaluate(theta).tolist(),
        "G": rd.G[::GRID // 64].tolist(),
        "nu": rd.grid.nu(0.0)[::GRID // 64].tolist(),
    }
    # hard invariant: the Taylor reduction identity at a sample point
    ident = sf.check_reduction_identity(np.concatenate([[0.5 * sf.chars.r], phat0]), 1.0, rd)
    doc["reduction_identity_residual"] = ident
    _emit(doc, args.out)
    return EXIT_OK if ident < 1e-8 else EXIT_INVARIANT


def cmd_report(args) -> int:
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    doc = _report_skeleton(args)
    doc["results"] = results
    doc["all_passed"] = all(r.passed for r in results)
    if args.out:
        _emit(doc, args.out)
    print()
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return EXIT_OK if doc["all_passed"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resoforge",
        description="genericity certificates, resonance coverings and "
                    "standard-form reductions for natural Hamiltonians",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a potential from the product measure")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--kmax", type=float, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="potential.json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check-generic", help="class membership over a finite window")
    p.add_argument("--potential", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kmax", type=float, default=80)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_generic)

    p = sub.add_parser("cover", help="resonance-zone covering")
    cover_sub = p.add_subparsers(dest="cover_command", required=True)
    pc = cover_sub.add_parser("classify")
    pc.add_argument("--y", required=True)
    pc.add_argument("--params", required=True)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_cover_classify)
    pm = cover_sub.add_parser("measure")
    pm.add_argument("--params", required=True)
    pm.add_argument("--samples", type=int, default=10 ** 6)
    pm.add_argument("--seed", type=int, default=1)
    pm.add_argument("--csv", default=None,
                    help="label CSV of the first --csv-rows points the measure sampled")
    pm.add_argument("--csv-rows", type=int, default=10 ** 4)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_cover_measure)
    pr = cover_sub.add_parser("raster")
    pr.add_argument("--params", required=True)
    pr.add_argument("--grid", type=int, default=256)
    pr.add_argument("--csv", required=True)
    pr.set_defaults(func=cmd_cover_raster)

    p = sub.add_parser("bezout", help="SL(n,Z) completion and decoupling matrix")
    p.add_argument("--k", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bezout)

    p = sub.add_parser("normalize", help="finite-order averaging normal form")
    p.add_argument("--potential", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k0", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="free-mode divisor threshold (omit for paper preset)")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--base-point", required=True)
    p.add_argument("--resonant-k", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("standardize", help="reduce a secular Hamiltonian to standard form")
    p.add_argument("--potential", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--y0", required=True, help="averaging base point on the resonance")
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("report", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true",
                   help="10x smaller Monte-Carlo sizes, widened ratio bands")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
