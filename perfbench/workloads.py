"""Seeded job lists of the four benchmark workloads, and the oracle of each job.

A workload is a sequence of identical *rounds*; a round is a fixed mix of
job kinds whose inputs are drawn from ``(workload, seed, round index)``, so
round r is the same whether a run builds 5 rounds or 50, and no input repeats
within a run.  Each job builds its own library objects (parameters, normal
forms, fixed points) inside its timed call, so no job reads a cache filled
by another.

A job is ``run(inputs) -> output`` plus ``check(output) -> None | str``.
``make`` (optional) produces large inputs just before the job, untimed, so
that a run never holds every point cloud at once; ``record`` (optional)
returns facts that are reported but not scored.  Oracles are independent
of the code under test where one exists; membership verdicts and measure_R2
counts are compared with values pinned from the seed code (``pins.json``,
written by ``pin.py``).  A job marked ``known_defect`` is the closed-form
Morse census: a miss counts in the error rate but is the documented seed
defect (critical points closer than the 2^14 grid cell are merged), not a
broken invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from resoforge import acceptance, cover, fourier, genericity, lieseries, morse, standard_form, unimodular

TWO_PI = 2.0 * math.pi
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# certify: membership widths (s, jobs per round); N(delta) grows as s shrinks
MEMBERSHIP_WIDTHS = ((5, 1), (6, 3), (8, 2))
MEMBERSHIP_DELTA = 0.1
MEMBERSHIP_POOL = 160
CENSUS_PER_ROUND = 16
CENSUS_LOG10_SEP = (-6.0, 0.0)

# cover: (n, alpha, K0, K, measure_R2 samples, classify_batch points, label points)
COVER_CONFIGS = (
    (2, 0.05, 2, 5, 1 << 18, 1 << 17, 128),
    (3, 0.03, 2, 4, 3 << 16, 1 << 17, 64),
)
MEASURE_POOL = 800

# resonances of the lie_step_res jobs (n = 2)
RES_KS = ((1, 1), (1, -1), (1, 0), (0, 1), (1, 2), (2, 1))


@dataclass
class Job:
    kind: str
    run: Callable
    check: Callable
    make: Callable | None = None
    record: Callable | None = None
    known_defect: bool = False
    round: int = 0


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def membership_pool_seed(s: int, i: int) -> list[int]:
    return [101, s, i]


def measure_pool_seed(n: int, i: int) -> int:
    return 1_000_000 * n + i


def membership_setup(s: int):
    """(N, K_max, beta) for the membership check at width s.

    beta is 0.5 e^{-s floor(N)}, half the coefficient scale of the top
    low-mode shell, so the verdict depends on the drawn coefficients and
    both verdicts occur.
    """
    N = genericity.threshold_N(2, float(s), MEMBERSHIP_DELTA)
    return N, N + 10.0, 0.5 * math.exp(-s * math.floor(N))


def membership_run(f, s: int):
    N, K_max, beta = membership_setup(s)
    params = genericity.GenericityParams(n=2, s=float(s), delta=MEMBERSHIP_DELTA,
                                         beta=beta, K_max=K_max)
    return genericity.check_membership(f, params)


def membership_signature(report) -> list:
    return [bool(report.in_class), len(report.failures),
            report.n_checked_lower, report.n_checked_morse]


def measure_params(n: int):
    for cfg in COVER_CONFIGS:
        if cfg[0] == n:
            return cover.free_params(n, 1.0, alpha=cfg[1], K0=cfg[2], K=cfg[3])
    raise ValueError(f"no cover configuration for n={n}")


def measure_signature(est) -> list[int]:
    return [round(est.fraction_any * est.samples), round(est.fraction_only * est.samples)]


def _pool_slice(seed: int, tag: int, pool: int, per_round: int, r: int) -> np.ndarray:
    perm = np.random.default_rng([tag, seed]).permutation(pool)
    lo = r * per_round
    if lo + per_round > pool:
        raise ValueError(f"pinned pool of {pool} exhausted; use fewer --seconds")
    return perm[lo:lo + per_round]


def _ball(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    g = rng.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (rng.uniform(0.0, 1.0, m) ** (1.0 / n))[:, None]


# --------------------------------------------------------------------------
# certify: genericity + morse + fourier
# --------------------------------------------------------------------------

def _membership_job(s: int, i: int, pin: list) -> Job:
    _N, K_max, _beta = membership_setup(s)
    f = genericity.sample_product_measure(2, float(s), K_max, membership_pool_seed(s, i))

    def check(report):
        got = membership_signature(report)
        return None if got == pin else f"membership s={s} pool {i}: pinned {pin}, got {got}"

    return Job(f"membership_s{s}", lambda _: membership_run(f, s), check)


def _empirical_job(rng: np.random.Generator) -> Job:
    delta = float(rng.uniform(0.15, 0.3))
    trials = 300
    sub_seed = int(rng.integers(1 << 62))
    window = (1, 6)
    # independent oracle: |w| of a uniform disk variable is below t with
    # probability t^2, so a trial passes with probability prod(1 - t_k^2)
    gens = [k for k in fourier.generators(2, window[1]) if fourier.l1(k) >= window[0]]
    t = np.minimum(delta * np.array([fourier.l1(k) ** -2.0 for k in gens]), 1.0)
    p = float(np.prod(1.0 - t ** 2))
    sd = math.sqrt(trials * p * (1.0 - p))

    def run(_):
        return genericity.empirical_genericity(2, 1.0, delta, trials, sub_seed, window=window)

    def check(est):
        passed = est.fraction_pass * trials
        if abs(passed - trials * p) > 5.0 * sd + 0.5:
            return f"empirical_genericity: {passed:.0f}/{trials} passed, expected p={p:.4f}"
        return None

    return Job("empirical_genericity", run, check)


def _cosine_job(rng: np.random.Generator) -> Job:
    s = float(rng.choice([6.0, 8.0]))
    N = genericity.threshold_N(2, s, MEMBERSHIP_DELTA)
    lo, hi = math.ceil(N), N + 5.0
    # support up to twice the window so every ray carries its j >= 2 terms
    f = genericity.sample_product_measure(2, s, 2.0 * hi + 2.0, int(rng.integers(1 << 62)))
    window = fourier.generators(2, hi, min_order=lo)

    def run(_):
        return [morse.cosine_certificate(f, k) for k in window]

    def check(certs):
        # the high-mode theorem: every generator beyond N(delta) is
        # 2^-40-cosine-like; gamma recomputed from the coefficients
        for k, cert in zip(window, certs):
            fk = abs(f.coeff(k))
            j_max = int(f.max_order() // fourier.l1(k)) + 1
            ref = sum(abs(f.coeff(tuple(j * v for v in k))) * math.exp(j)
                      for j in range(2, j_max + 1)) / fk
            if not cert.gamma < 2.0 ** -40:
                return f"cosine certificate k={k}: gamma={cert.gamma:.3e} >= 2^-40"
            if abs(cert.gamma - ref) > 1e-9 * ref + 1e-300:
                return f"cosine certificate k={k}: gamma={cert.gamma:.6e}, recomputed {ref:.6e}"
        return None

    return Job("cosine_window", run, check)


def _census_job(rng: np.random.Generator) -> Job:
    """F = A (cos u - (a/4) cos 2u) shifted: F' = -A sin u (1 - a cos u), so
    for a > 1 it has exactly four critical points, two of them at +-acos(1/a),
    separated by sep = 2 acos(1/a), drawn log-uniformly down to 1e-6."""
    sep = 10.0 ** rng.uniform(*CENSUS_LOG10_SEP)
    a = 1.0 / math.cos(sep / 2.0)
    amp = float(rng.uniform(0.5, 2.0))
    shift = float(rng.uniform(0.0, TWO_PI))
    F = fourier.OneDTrigPoly({1: 0.5 * amp, 2: -amp * a / 8.0}).shifted(shift)

    def check(report):
        if report.count != 4:
            return f"census sep={sep:.2e}: {report.count} critical points, closed form 4"
        return None

    return Job("census", lambda _: morse.critical_points(F), check, known_defect=True)


def certify_round(seed: int, r: int, pins: dict) -> list[Job]:
    rng = np.random.default_rng([1, seed, r])
    jobs = []
    for s, per_round in MEMBERSHIP_WIDTHS:
        table = pins["membership"][f"s={s}"]
        for i in _pool_slice(seed, 100 + s, MEMBERSHIP_POOL, per_round, r):
            jobs.append(_membership_job(s, int(i), table[int(i)]))
    jobs += [_empirical_job(rng) for _ in range(2)]
    jobs.append(_cosine_job(rng))
    jobs += [_census_job(rng) for _ in range(CENSUS_PER_ROUND)]
    return jobs


# --------------------------------------------------------------------------
# averaging: lieseries build (lie_step_*) and evaluation (verify_conjugacy)
# --------------------------------------------------------------------------

# one mode from each l1 shell 1, 2, 3 (pairwise independent), so every
# drawn potential couples the same way and job costs stay comparable
_SHELLS = (((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 2), (2, 1), (1, -2), (2, -1)))


def _three_mode(rng: np.random.Generator, must_have=None) -> fourier.TrigPoly:
    modes = []
    for shell in _SHELLS:
        if must_have in shell:
            modes.append(must_have)
        else:
            modes.append(shell[int(rng.integers(len(shell)))])
    coeffs = {k: 0.5 * rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, TWO_PI))
              for k in modes}
    return fourier.TrigPoly(2, coeffs)


def _nonres_point(rng: np.random.Generator, K0: int) -> np.ndarray:
    gens = fourier.generators(2, K0)
    while True:
        y0 = _ball(rng, 1, 2)[0] * 0.85
        if min(abs(float(np.dot(y0, k))) for k in gens) >= 0.15:
            return y0


def _res_point(rng: np.random.Generator, k) -> np.ndarray:
    """A point on the resonance line k.y = 0 whose off-line divisors reach
    2 alpha K/|k| (they are multiples of a/|k|, and a >= 0.4 > 2 alpha K)."""
    u = np.array([-k[1], k[0]], dtype=float)
    u /= np.linalg.norm(u)
    return u * rng.uniform(0.4, 0.9) * rng.choice([-1.0, 1.0])


AVG_EPS = 1e-3
AVG_DEGREE = 3
NONRES = dict(alpha=0.02, K0=2, K=8)
RES = dict(alpha=0.03, K0=2, K=6)


def _nonres_job(rng: np.random.Generator, order: int) -> Job:
    f = _three_mode(rng)
    y0 = _nonres_point(rng, NONRES["K0"])

    def run(_):
        params = cover.free_params(2, 1.0, **NONRES)
        return lieseries.lie_step_nonres(lieseries.NaturalHam(2, AVG_EPS, f), params, y0,
                                         order=order, max_degree=AVG_DEGREE)

    def check(nf):
        band = nf.band_coefficient_maxima()
        return None if band == 0.0 else f"lie_step_nonres order {order}: band max {band:.3e}"

    return Job(f"lie_step_nonres_o{order}", run, check)


def _res_job(rng: np.random.Generator, order: int, k) -> Job:
    f = _three_mode(rng, must_have=k)
    y0 = _res_point(rng, k)

    def run(_):
        params = cover.free_params(2, 1.0, **RES)
        return lieseries.lie_step_res(lieseries.NaturalHam(2, AVG_EPS, f), k, params, y0,
                                      order=order, max_degree=AVG_DEGREE)

    def check(nf):
        line = nf.band_coefficient_maxima()
        return None if line == 0.0 else f"lie_step_res order {order} k={k}: line max {line:.3e}"

    return Job(f"lie_step_res_o{order}", run, check)


CONJ_POINTS = 3
CONJ_ORDER = 2


def _conjugacy_job(rng: np.random.Generator) -> Job:
    order = CONJ_ORDER
    f = _three_mode(rng)
    y0 = _nonres_point(rng, NONRES["K0"])
    pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0.0, TWO_PI, 2))
           for _ in range(CONJ_POINTS)]
    ham = lieseries.NaturalHam(2, AVG_EPS, f)

    def run(_):
        params = cover.free_params(2, 1.0, **NONRES)
        nf = lieseries.lie_step_nonres(ham, params, y0, order=order, max_degree=AVG_DEGREE)
        return lieseries.verify_conjugacy(ham, nf, pts, rtol=1e-12, atol=1e-13)

    # without the conjugacy the defect H - nf is of order eps sup|f|; a correct
    # order >= 1 normal form removes it to O(eps^2), far below a tenth of it
    limit = 0.1 * AVG_EPS * sum(2.0 * abs(c) for c in f.coeffs.values())

    def check(rep):
        if not rep.max_residual <= limit:
            return f"verify_conjugacy order {order}: residual {rep.max_residual:.3e} > {limit:.3e}"
        return None

    return Job(f"verify_conjugacy_o{order}", run, check)


def averaging_round(seed: int, r: int, pins: dict) -> list[Job]:
    """lie_step_* at orders 2-5, resonant order 5 twice (the costliest job,
    so the tail percentile falls inside its class), and 12 verify_conjugacy
    jobs (so the median falls inside theirs)."""
    rng = np.random.default_rng([2, seed, r])
    jobs = []
    for i, order in enumerate((2, 3, 4, 5, 5)):
        if i < 4:
            jobs.append(_nonres_job(rng, order))
        jobs.append(_res_job(rng, order, RES_KS[(5 * r + i) % len(RES_KS)]))
    jobs += [_conjugacy_job(rng) for _ in range(12)]
    return jobs


# --------------------------------------------------------------------------
# reduction: standard_form + unimodular
# --------------------------------------------------------------------------

def _int_det(rows) -> int:
    """Exact integer determinant by cofactor expansion (n <= 4 here)."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _int_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def _fixed_point_problems(fp) -> str | None:
    if not fp.hypothesis_ok:
        return None
    if fp.contraction > 1.0 / 8.0 + 1e-6:
        return f"fixed point: contraction {fp.contraction:.4f} > 1/8"
    if not fp.residual < 1e-13:
        return f"fixed point: residual {fp.residual:.3e} >= 1e-13"
    return None


def _fixed_point_job(rng: np.random.Generator) -> Job:
    """Criterion 7's randomized forms, redrawn until some term depends on
    Y1, so that the fixed point is not trivially zero."""
    n_hat = int(rng.integers(1, 3))
    form = acceptance.random_benchmark_form(rng, n_hat=n_hat)
    while not any(d >= 1 for (d, _m, _j) in form.Gf.terms):
        form = acceptance.random_benchmark_form(rng, n_hat=n_hat)
    phat = rng.uniform(-form.r, form.r, form.n_hat)
    return Job("solve_fixed_point",
               lambda _: standard_form.solve_fixed_point(form, phat), _fixed_point_problems)


SYMPLECTIC_POINTS = 2
K3 = (1, 1, 2)


def _two_action_form(rng: np.random.Generator):
    """Criterion 8's two-adiabatic-action form (the q_hat Hessian block is a
    genuine 2x2 check) with drawn radius, width and coefficients.  The term
    structure is fixed, so every job does the same amount of work."""
    r, sb = float(rng.uniform(0.04, 0.06)), float(rng.uniform(0.7, 0.9))
    target = 0.3 * 2.0 ** -10 * sb / (math.pi + sb) * r ** 2
    u = 1.0 / (4 * r)
    shape = {
        (0, (0, 0), 1): (1.0, 0.4, 0),
        (1, (0, 0), 1): (0.20, -0.1, 1),
        (1, (1, 0), 2): (0.08, 0.06, 2),
        (1, (0, 1), 1): (0.07, -0.05, 2),
        (2, (0, 0), 1): (0.06, 0.0, 2),
        (1, (1, 1), 0): (0.04, 0.0, 3),
        (2, (0, 1), 0): (0.03, 0.0, 3),
        (1, (2, 0), 2): (0.03, 0.02, 3),
    }
    terms = {key: (a * f * target * u ** p, b * f * target * u ** p)
             for key, (a, b, p) in shape.items()
             for f in [float(rng.uniform(0.5, 1.5)) * rng.choice([-1.0, 1.0])]}
    G = standard_form.PolyTrig1(2, terms)
    B = G.dep_majorant(4 * r, 4 * r, sb)
    return standard_form.DecoupledForm(Gf=G, G_osc=None, adiabatic=lambda ph: 0.0, r=r,
                                       s_breve=sb, theta_o_bound=max(B / 2, target), n_hat=2)


def _symplectic_job(rng: np.random.Generator) -> Job:
    """Phi2 of a two-adiabatic-action form (criterion 8's configuration)."""
    form = _two_action_form(rng)
    phat = rng.uniform(-0.5, 0.5, 2) * form.r
    pts = [np.concatenate([rng.uniform(-form.r, form.r, 1),
                           phat + rng.uniform(-form.r, form.r, 2),
                           rng.uniform(0.0, TWO_PI, 3)]) for _ in range(SYMPLECTIC_POINTS)]
    f3 = fourier.lacunary_potential(3, 1.0, 8)

    def run(_):
        fp = standard_form.solve_fixed_point(form, phat)
        params = cover.free_params(3, 1.0, alpha=0.05, K0=4, K=24)
        ch = standard_form.characteristics(K3, 3, 1.0, 1e-6, 0.1, f3, params,
                                           um=unimodular.complete_to_sl(K3))
        sf = standard_form.build_phi2_phi3(fp, ch, fourier.OneDTrigPoly({1: 1e-6}))
        return fp, standard_form.symplectic_check(sf.phi2, pts)

    def check(out):
        fp, residual = out
        if not residual <= 1e-9:
            return f"Phi2 symplectic residual {residual:.3e} > 1e-9"
        return _fixed_point_problems(fp)

    return Job("symplectic_phi2", run, check)


STD_EPS = 1e-6
STD_BETA = 0.05
STD_PHAT = 8


def _standardize_job(rng: np.random.Generator, k) -> Job:
    # the two-mode family 2a(cos((1,1).x) + cos((1,-1).x)) with drawn
    # amplitudes and phases, plus the mode k on the resonance line when it is
    # not one of the two
    scale = math.exp(-2.0)
    modes = {(1, 1), (1, -1), k}
    f = fourier.TrigPoly(2, {m: scale * rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, TWO_PI))
                             for m in sorted(modes)})
    y0 = _res_point(rng, k)
    sample_seed = int(rng.integers(1 << 62))
    check_seed = int(rng.integers(1 << 62))

    def run(_):
        params = cover.free_params(2, 1.0, **RES)
        sf = standard_form.standardize(f, 1.0, STD_EPS, k, params, y0, beta=STD_BETA, order=2)
        r = sf.chars.r
        phat = sf.fp.base_phat[None, :] + np.random.default_rng(sample_seed).uniform(
            -r, r, (STD_PHAT, 1))
        return sf, standard_form.verify_standard(sf, phat)

    def check(out):
        sf, _report = out
        rows = [list(row) for row in sf.form.um.rows]
        crng = np.random.default_rng(check_seed)
        r = sf.chars.r
        pts = [np.concatenate([crng.uniform(-r, r, 1), sf.fp.base_phat + crng.uniform(-r, r, 1)])
               for _ in range(2)]
        identity = sf.check_reduction_identity(pts, crng.uniform(0.0, TWO_PI, 2))
        det = _int_det(rows)
        if det != 1 or tuple(rows[0]) != tuple(k):
            return f"SL completion of {k}: det {det}, first row {rows[0]}"
        if not identity < 1e-8:
            return f"reduction identity {identity:.3e} >= 1e-8"
        return _fixed_point_problems(sf.fp)

    def record(out):
        # at eps = 1e-6 several estimate flags fail by design at desk scale
        return [f"{name} failed" for name, flag in out[1].flags.items() if not flag["ok"]]

    return Job("standardize_verify", run, check, record=record)


# resonances of the standardize jobs: (1, +-1) reduce the two-mode family
# itself, the others add a third mode on the line; (1, 0) and (0, 1) are left
# out because they cost half again as much as the rest, and a class of jobs
# alone at the top would put the tail percentile on a class boundary
STD_KS = ((1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1))


def reduction_round(seed: int, r: int, pins: dict) -> list[Job]:
    rng = np.random.default_rng([3, seed, r])
    jobs = [_fixed_point_job(rng)]
    jobs += [_standardize_job(rng, k) for k in STD_KS]
    jobs.append(_symplectic_job(rng))
    return jobs


# --------------------------------------------------------------------------
# cover
# --------------------------------------------------------------------------

def _codes_from_labels(labels) -> int:
    kinds = {lab.kind for lab in labels}
    return 0 if "R0" in kinds else (1 if "R1" in kinds else 2)


def _measure_job(n: int, i: int, samples: int, pin: list) -> Job:
    seed = measure_pool_seed(n, i)

    def run(_):
        return cover.measure_R2(measure_params(n), samples, seed)

    def check(est):
        got = measure_signature(est)
        return None if got == pin else f"measure_R2 n={n} pool {i}: pinned {pin}, got {got}"

    return Job(f"measure_R2_n{n}", run, check)


def _batch_job(n: int, points: int, point_seed: int) -> Job:
    def check(batch):
        missing = int(np.count_nonzero(~batch.covered))
        return None if missing == 0 else f"classify_batch n={n}: {missing} points uncovered"

    return Job(f"classify_batch_n{n}",
               lambda Y: cover.classify_batch(Y, measure_params(n)), check,
               make=lambda: _ball(np.random.default_rng(point_seed), points, n))


def _label_job(n: int, points: int, point_seed: int) -> Job:
    Y = _ball(np.random.default_rng(point_seed), points, n)

    def run(_):
        params = measure_params(n)
        return [cover.classify_point(y, params, all_pairs=True) for y in Y]

    def check(labels):
        if not all(labels):
            return f"classify_point n={n}: a point has no label"
        want = cover.classify_batch(Y, measure_params(n)).codes
        got = np.array([_codes_from_labels(lab) for lab in labels])
        bad = int(np.count_nonzero(got != want))
        return None if bad == 0 else f"classify_point n={n}: {bad} labels disagree with classify_batch"

    return Job(f"classify_point_n{n}", run, check)


MEASURE_PER_ROUND = 3


def cover_round(seed: int, r: int, pins: dict) -> list[Job]:
    rng = np.random.default_rng([4, seed, r])
    jobs = []
    for n, _alpha, _K0, _K, samples, points, label_points in COVER_CONFIGS:
        jobs.append(_label_job(n, label_points, int(rng.integers(1 << 62))))
        jobs.append(_batch_job(n, points, int(rng.integers(1 << 62))))
        table = pins["measure_R2"][f"n={n}"]
        for i in _pool_slice(seed, 200 + n, MEASURE_POOL, MEASURE_PER_ROUND, r):
            jobs.append(_measure_job(n, int(i), samples, table[int(i)]))
    return jobs


# name -> (round builder, seconds per round used to size a run: --seconds
# divided by it gives the number of rounds; close to the round time at
# reference speed)
WORKLOADS = {
    "certify": (certify_round, 4.0),
    "averaging": (averaging_round, 2.0),
    "reduction": (reduction_round, 4.0),
    "cover": (cover_round, 0.6),
}


def build(name: str, seed: int, rounds: range, pins: dict) -> list[Job]:
    builder, _nominal = WORKLOADS[name]
    jobs = []
    for r in rounds:
        for job in builder(seed, r, pins):
            job.round = r
            jobs.append(job)
    return jobs
