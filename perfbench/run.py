"""resoforge benchmark: four closed-loop workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client runs one job at a time; the next job starts after the previous
verdict.  ``--seconds`` fixes the amount of work: divided by the workload's
seconds-per-round constant it gives the number of rounds, so every version
of the library does the same jobs and a faster one finishes sooner.

End-to-end times are in reference-speed seconds.  The speed of a small
shared machine drifts by 15-30% over seconds.  Between jobs, untimed, a
calibration kernel that does not touch resoforge runs (calibration.py); each
round's times are divided by the median slowness of its kernel runs, so the
drift largely cancels.  OpenBLAS runs one thread unless the caller sets
OPENBLAS_NUM_THREADS: with one client on two CPUs a second BLAS thread
mostly adds scheduling noise.  Raw times are kept in the result file.

``--trace 0`` times the jobs untraced and prints the end-to-end metrics.
``--trace 1`` first runs an untraced reference pass on half as many further
rounds of the same seed, then traces the rounds that ``--trace 0`` times,
and prints the per-layer metrics (self times are raw seconds).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; full results,
metadata and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("certify", "averaging", "reduction", "cover")
SETUP_PROBES = 3

CAL_SHARE = 0.03     # calibration time after a job, as a share of the job's time

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}

# ROADMAP baseline rows: (metric, span name, span tag, statistic, configuration)
BASELINE_ROWS = (
    ("baseline.critical_points_ms", "morse.critical_points", None, "ms",
     "per call, 2^14-point grid; product-measure projections and census polynomials"),
    ("baseline.classify_batch_n2_K5_pts_per_s", "cover.classify_batch",
     "n=2,K=5,points=131072", "pts/s", "131,072 points, n=2, alpha=0.05, K0=2, K=5"),
    ("baseline.classify_batch_n3_K4_pts_per_s", "cover.classify_batch",
     "n=3,K=4,points=131072", "pts/s", "131,072 points, n=3, alpha=0.03, K0=2, K=4"),
    *((f"baseline.lie_step_nonres_o{d}_ms", "lieseries.lie_step_nonres", f"order={d}", "ms",
       f"order {d}; random 3-mode f, eps=1e-3, alpha=0.02, K0=2, K=8, degree 3")
      for d in (2, 3, 4, 5)),
    ("baseline.verify_standard_8phat_ms", "standard_form.verify_standard", "phat=8", "ms",
     "8 phat samples, n=2 two-mode family, eps=1e-6, order 2"),
    ("baseline.standardize_two_mode_ms", "standard_form.standardize", "modes=2", "ms",
     "two-mode family at k=(1,1) and (1,-1), eps=1e-6, order 2"),
)


def load_library():
    """Import resoforge from this checkout's src/, or exit with code 2."""
    if not (SRC / "resoforge" / "__init__.py").is_file():
        print(f"error: no resoforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import resoforge
    if Path(resoforge.__file__).resolve().parent != SRC / "resoforge":
        print(f"error: imported resoforge from {resoforge.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return resoforge


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten jobs beyond it."""
    import numpy as np
    p = max(50.0, 100.0 * (1.0 - 10.0 / len(latencies)))
    return p, float(np.percentile(latencies, p))


def run_jobs(jobs, workload: str, tracer=None) -> dict:
    """The closed loop: one job at a time.  Between jobs, untimed and
    untraced: the job's oracle, then calibration runs for CAL_SHARE of the
    job's time (at least one)."""
    import calibration
    latencies, cpus, cal = [], [], {}
    raised = broken = misses = 0
    problems, recorded = [], Counter()
    census = [0, 0]
    for job in jobs:
        inputs = job.make() if job.make is not None else None
        if tracer is not None:
            tracer.recording = True
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, error = job.run(inputs), None
        except Exception as exc:  # a job that raises is counted; the loop goes on
            out, error = None, f"{job.kind}: {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.recording = False
        latencies.append(t1 - t0)
        cpus.append(c1 - c0)
        problem = error if error is not None else job.check(out)
        if error is None and job.record is not None:
            recorded.update(f"{job.kind}: {fact}" for fact in job.record(out))
        del out
        round_cal, t_cal = cal.setdefault(job.round, []), time.perf_counter()
        while not round_cal or time.perf_counter() - t_cal < CAL_SHARE * (t1 - t0):
            round_cal.append(calibration.slowness(workload))
        if job.known_defect:
            census[0] += 1
            census[1] += problem is None
        if problem is None:
            continue
        if error is not None:
            raised += 1
        elif job.known_defect:
            misses += 1
        else:
            broken += 1
        problems.append(problem)
    scale = {r: 1.0 / statistics.median(v) for r, v in cal.items()}
    rounds = [job.round for job in jobs]
    kinds = [job.kind for job in jobs]
    return {
        "latencies": [x * scale[r] for x, r in zip(latencies, rounds)],
        "cpus": [x * scale[r] for x, r in zip(cpus, rounds)],
        "raw_latencies": latencies, "raw_cpus": cpus, "rounds": rounds, "kinds": kinds,
        "slowness": {r: 1.0 / v for r, v in scale.items()},
        "raised": raised, "broken": broken, "misses": misses, "problems": problems,
        "recorded": recorded, "census": census,
    }


def round_totals(res: dict, key: str) -> list[float]:
    totals = Counter()
    for r, x in zip(res["rounds"], res[key]):
        totals[r] += x
    return [totals[r] for r in sorted(totals)]


def probe_setup(args) -> tuple[float, float]:
    """(reference-speed seconds, raw seconds) from starting a fresh
    interpreter to the point where this workload's inputs are built (imports
    included), scaled by calibration runs just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    import calibration
    cal = [calibration.slowness("setup") for _ in range(10)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    cal += [calibration.slowness("setup") for _ in range(10)]
    return elapsed / statistics.median(cal), elapsed


def metadata() -> dict:
    import numpy
    import scipy
    env = os.environ
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "RESOFORGE_THREADS": env.get("RESOFORGE_THREADS", "unset (library default 1)"),
        "blas_threads": {var: env.get(var, "unset (OpenBLAS default: one per CPU)")
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def write_json(name: str, doc: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    return path


def summarize_loop(res: dict) -> dict:
    n = len(res["latencies"])
    by_kind: dict[str, list[float]] = {}
    for kind, x in zip(res["kinds"], res["latencies"]):
        by_kind.setdefault(kind, []).append(x)
    return {
        "jobs": n,
        "raised": res["raised"],
        "broken_invariants": res["broken"],
        "census_misses": res["misses"],
        "error_rate": (res["raised"] + res["broken"] + res["misses"]) / n,
        "problems": res["problems"][:50],
        "recorded_not_scored": dict(res["recorded"]),
        "job_kinds": {kind: {"jobs": len(v), "median_ms": 1e3 * statistics.median(v),
                             "sum_s": sum(v)} for kind, v in by_kind.items()},
        "slowness_by_round": list(res["slowness"].values()),
    }


def result_line(res: dict, metrics: dict) -> str:
    failed = res["raised"] + res["broken"]
    return json.dumps({"correct": failed == 0, "attempted": len(res["latencies"]),
                       "failed": failed, "metrics": metrics})


def untraced(args, jobs, meta) -> None:
    res = run_jobs(jobs, args.workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    lat = res["latencies"]
    p_tail, v_tail = tail(lat)
    # rounds x the median round time: a burst of host noise that slows one
    # round does not move the total
    round_wall, round_cpu = round_totals(res, "latencies"), round_totals(res, "cpus")
    n_rounds = len(round_wall)
    values = {
        "wall_s": n_rounds * statistics.median(round_wall),
        "cpu_s": n_rounds * statistics.median(round_cpu),
        "job_p50_ms": 1e3 * statistics.median(lat),
        "job_tail_ms": 1e3 * v_tail,
        "setup_s": statistics.median(p[0] for p in probes),
        "peak_rss_mb": peak_rss_mb,
    }
    summary = summarize_loop(res)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
           "meta": meta, "metrics": values, "job_tail_percentile": p_tail,
           "round_wall_s": round_wall,
           "raw": {"wall_s": sum(res["raw_latencies"]), "cpu_s": sum(res["raw_cpus"]),
                   "job_p50_ms": 1e3 * statistics.median(res["raw_latencies"]),
                   "setup_s": statistics.median(p[1] for p in probes)},
           "setup_probes_s": probes, **summary}
    path = write_json(f"{args.workload}-seed{args.seed}-trace0.json", doc)
    print(f"# {args.workload}: seed {args.seed}, {len(lat)} jobs in {n_rounds} rounds, "
          f"one closed-loop client; reference-speed times (raw wall {sum(res['raw_latencies']):.3f} s, "
          f"median calibration slowness {statistics.median(res['slowness'].values()):.3f})")
    for name, value in values.items():
        note = f"  (p{p_tail:.2f}, {len(lat)} jobs)" if name == "job_tail_ms" else ""
        print(f"{name:14s} {value:12.4f} {E2E_UNITS[name]}{note}")
    print(f"{'error_rate':14s} {summary['error_rate']:12.4f} ratio  "
          f"(raised {res['raised']}, broken invariants {res['broken']}, "
          f"census misses {res['misses']} of {res['census'][0]})")
    for fact, count in sorted(res["recorded"].items()):
        print(f"# recorded, not scored: {fact} x{count}")
    for problem in res["problems"][:5]:
        print(f"# problem: {problem}")
    print(f"# meta: {json.dumps(meta)}")
    print(f"# full result: {path.relative_to(ROOT)}")
    print(result_line(res, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}))


def traced(args, jobs, reference, meta) -> None:
    import numpy as np
    import tracer as tr

    ref = run_jobs(reference, args.workload)
    tracer = tr.Tracer()
    tracer.install()
    try:
        res = run_jobs(jobs, args.workload, tracer)
    finally:
        tracer.uninstall()
    layers, top_level_s = tracer.per_layer()
    wall, ref_wall = sum(res["latencies"]), sum(ref["latencies"])
    raw_wall = sum(res["raw_latencies"])
    metrics: dict[str, tuple[float, str]] = {}
    for name, vals in layers.items():
        metrics[f"{name}.calls"] = (vals["calls"], "count")
        metrics[f"{name}.self_s"] = (vals["self_s"], "s")
    for name, value in tracer.counters.items():
        metrics[name] = (value, "count")
    batch_s = layers["cover.classify_batch"]["self_s"]
    points = tracer.counters["cover.classify_batch.points"]
    metrics["cover.classify_batch.points_per_s"] = (points / batch_s if batch_s else 0.0, "1/s")
    attempted, matched = res["census"]
    metrics["morse.census_exact_ratio"] = (matched / attempted if attempted else 0.0, "ratio")
    metrics["bench.error_rate"] = (summarize_loop(res)["error_rate"], "ratio")
    per_round = statistics.median(round_totals(res, "latencies"))
    ref_per_round = statistics.median(round_totals(ref, "latencies"))
    metrics["trace.overhead"] = (per_round / ref_per_round - 1.0, "ratio")
    metrics["trace.top_level_share"] = (top_level_s / raw_wall, "ratio")
    baseline = {}
    for name, span, tag, unit, config in BASELINE_ROWS:
        dur = tracer.durations(span, tag)
        if unit == "ms":
            value = 1e3 * float(np.median(dur)) if len(dur) else 0.0
        else:
            size = int(tag.rsplit("=", 1)[1])
            value = float(np.median(size / dur)) if len(dur) else 0.0
        metrics[name] = (value, "ms" if unit == "ms" else "1/s")
        baseline[name] = {"value": value, "unit": unit, "calls": len(dur), "config": config}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.dump(spans_path)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 1,
           "meta": meta, "traced_wall_s": wall, "reference_wall_s": ref_wall,
           "traced_raw_wall_s": raw_wall,
           "spans": len(tracer.starts), "per_layer": {k: v[0] for k, v in metrics.items()},
           "baseline_rows": baseline, "layer_effects": tr.LAYER_EFFECTS,
           **summarize_loop(res)}
    path = write_json(f"{args.workload}-seed{args.seed}-trace1.json", doc)
    print(f"# {args.workload}: seed {args.seed}, traced {len(res['latencies'])} jobs, "
          f"{len(tracer.starts)} spans")
    print(f"# traced wall {wall:.3f} s vs untraced reference {ref_wall:.3f} s "
          f"(overhead {100 * metrics['trace.overhead'][0]:+.1f}%); top-level spans cover "
          f"{100 * metrics['trace.top_level_share'][0]:.1f}% of traced wall time")
    print(f"{'metric':44s} {'value':>14s} unit   should move (workload) | flat on")
    for name, (value, unit) in metrics.items():
        prefix = name.rsplit(".", 1)[0] if name.endswith((".calls", ".self_s")) else name
        prefix = prefix.replace(".points_per_s", "").replace(".points", "")
        effect = tr.LAYER_EFFECTS.get(prefix)
        where = f"  {effect[0]} ({effect[1]}) | {effect[2]}" if effect else ""
        print(f"{name:44s} {value:14.6g} {unit:6s}{where}")
    for name, row in baseline.items():
        shown = f"{row['value']:.6g} {row['unit']}" if row["calls"] else "not exercised here"
        print(f"# {name}: {shown} over {row['calls']} calls; {row['config']}")
    print(f"# spans: {spans_path.relative_to(ROOT)}; full result: {path.relative_to(ROOT)}")
    print(result_line(res, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))


def run_all(args) -> int:
    """Every workload untraced, then every workload traced, as child processes
    (so each peak RSS is its own), then one summary table."""
    ok = True
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            ok &= json.loads(lines[-1])["correct"]
    print(f"\n# summary, seed {args.seed}, --seconds {args.seconds}")
    print(f"{'workload':10s} {'wall_s':>9s} {'cpu_s':>9s} {'p50_ms':>9s} {'tail_ms':>10s} "
          f"{'error_rate':>10s} {'setup_s':>8s} {'rss_MB':>8s}")
    for name in WORKLOAD_NAMES:
        with open(OUT / f"{name}-seed{args.seed}-trace0.json") as fh:
            doc = json.load(fh)
        m = doc["metrics"]
        print(f"{name:10s} {m['wall_s']:9.3f} {m['cpu_s']:9.3f} {m['job_p50_ms']:9.2f} "
              f"{m['job_tail_ms']:7.1f}@p{doc['job_tail_percentile']:.1f} "
              f"{doc['error_rate']:10.4f} {m['setup_s']:8.3f} {m['peak_rss_mb']:8.1f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.workload == "all":
        return run_all(args)

    load_library()
    import workloads as wl

    _builder, nominal = wl.WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / nominal))
    pins = wl.load_pins()
    jobs = wl.build(args.workload, args.seed, range(rounds), pins)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    meta = metadata()
    if args.trace:
        reference = wl.build(args.workload, args.seed,
                             range(rounds, rounds + (rounds + 1) // 2), pins)
        traced(args, jobs, reference, meta)
    else:
        untraced(args, jobs, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
