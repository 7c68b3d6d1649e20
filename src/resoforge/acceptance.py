"""The acceptance battery: every exit criterion with its pinned tolerance.

Each criterion runs standalone and reports pass/fail with margins and
runtime; the CLI `report` subcommand and the test suite both dispatch here.
Paper-preset asymptotics are not representable in double precision, so the
battery checks exact algebra, property invariants, and order-scaling trends
at desk-scale (free-mode) parameters, as the criteria specify.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cover import ball_points, classify_batch, free_params, measure_R2, fit_measure_constant
from .fourier import (
    OneDTrigPoly,
    Record,
    TrigPoly,
    TWO_PI,
    generators,
    l1,
    lacunary_potential,
    lattice_projections,
    two_mode_potential,
)
from .genericity import empirical_genericity, threshold_N
from .lieseries import NaturalHam, lie_step_nonres, verify_conjugacy
from .morse import COSINE_LIKE_THRESHOLD, c2_distances_to_cosine, cosine_certificate, critical_points_many
from .standard_form import (
    DecoupledForm,
    PolyTrig1,
    build_phi2_phi3,
    characteristics,
    kappa_uniform,
    solve_fixed_point,
    standardize,
    symplectic_defect,
    _THETA,
)
from .unimodular import (
    apply,
    complete_to_sl,
    decoupling_matrix,
    kinetic_split_residual,
    symplectic_residual_exact,
)


@dataclass
class CriterionResult(Record):
    cid: int
    name: str
    passed: bool
    details: dict
    runtime: float = 0.0  # set by _timed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.name} ({self.runtime:.2f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CriterionResult:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.runtime = time.perf_counter() - t0
        return result
    return wrapper


def _brute_force_generators(n: int, K: int) -> set[tuple[int, ...]]:
    """Independent oracle: full cube enumeration with gcd/sign filters."""
    axes = np.arange(-K, K + 1)
    grid = np.stack(np.meshgrid(*([axes] * n), indexing="ij"), axis=-1).reshape(-1, n)
    ok = (np.abs(grid).sum(axis=1) > 0) & (np.abs(grid).sum(axis=1) <= K)
    grid = grid[ok]
    gcds = np.gcd.reduce(np.abs(grid), axis=1)
    first_idx = np.argmax(grid != 0, axis=1)
    first = grid[np.arange(len(grid)), first_idx]
    keep = (gcds == 1) & (first > 0)
    return {tuple(int(v) for v in row) for row in grid[keep]}


@_timed
def criterion_1_generators() -> CriterionResult:
    """Count for (n=2, K=3) equals 8 against brute force; exhaustive gcd/sign
    invariants for n <= 4, K <= 10."""
    g23 = generators(2, 3)
    ok = len(g23) == 8 and set(g23) == _brute_force_generators(2, 3)
    mismatches = 0
    for n in range(1, 5):
        for K in range(1, 11):
            got = generators(n, K)
            if n == 1:
                want = {(1,)} if K >= 1 else set()
            else:
                want = _brute_force_generators(n, K)
            if set(got) != want or len(got) != len(want):
                mismatches += 1
            for k in got:
                first = next(v for v in k if v != 0)
                if first <= 0 or (len(k) > 1 and math.gcd(*k) != 1):
                    mismatches += 1
    return CriterionResult(
        1, "generator enumeration vs brute force",
        ok and mismatches == 0,
        {"count_2_3": len(g23), "mismatches": mismatches},
    )


@_timed
def criterion_2_sl_completion() -> CriterionResult:
    """det A = 1 exactly and all three max-norm bounds, exhaustively for
    n in {2,3,4}, |k|_1 <= 8."""
    failures = 0
    checked = 0
    for n in (2, 3, 4):
        for k in generators(n, 8):
            um = complete_to_sl(k)
            checked += 1
            rep = um.bounds_report()
            k_inf = max(abs(v) for v in k)
            exact = (
                um.det == 1
                and rep["A_hat_inf"] <= k_inf
                and rep["A_inf"] == k_inf
                and rep["A_inv_inf"] <= (n - 1) ** ((n - 1) / 2) * k_inf ** (n - 1)
            )
            if not exact:
                failures += 1
    return CriterionResult(
        2, "SL(n,Z) completion bounds (exhaustive)",
        failures == 0, {"checked": checked, "failures": failures},
    )


def _morse_oracle_family(instances: int) -> tuple[list[OneDTrigPoly], list[float]]:
    """Criterion 3's census: 2 cos, then `instances` shifted cosines, each plus
    a random perturbation scaled to a drawn C^2 distance c up to 0.49; and
    the c of each."""
    rng = np.random.default_rng(42)
    draws = []
    for _ in range(instances):
        shift = rng.uniform(0.0, TWO_PI)
        pert: dict[int, complex] = {}
        for j in range(1, 6):
            if rng.uniform() < 0.7:
                pert[j] = (rng.normal() + 1j * rng.normal()) * 0.1
        draws.append((shift, OneDTrigPoly(pert) if pert else OneDTrigPoly({2: 0.01}), rng.uniform(0.02, 0.49)))
    c_raws = c2_distances_to_cosine([OneDTrigPoly.from_cosine(1.0, shift).plus(raw) for shift, raw, _ in draws],
                                    [shift for shift, _, _ in draws])
    Fs, cs = [OneDTrigPoly.from_cosine(2.0)], []
    for (shift, raw, target), c_raw in zip(draws, c_raws):
        scale = target / c_raw
        Fs.append(OneDTrigPoly.from_cosine(1.0, shift).plus(raw.scaled(scale)))
        # delta^(k) = scale * raw^(k), so the distance of F scales with it
        cs.append(scale * c_raw)
    return Fs, cs


@_timed
def criterion_3_morse_oracle(instances: int = 500) -> CriterionResult:
    """beta(2 cos) = 2 within 1e-9; two-point property on random instances
    with c drawn up to 0.49, below its hypothesis bound 1/2 (exactly 2
    critical points, beta >= 1 - 2c)."""
    Fs, cs = _morse_oracle_family(instances)
    if not max(cs) < 0.5:
        raise ValueError("the two-point property needs c < 1/2")
    rep, *reps = critical_points_many(Fs)
    beta_err = abs(rep.beta - 2.0)
    ok = beta_err <= 1e-9 and rep.count == 2
    failures = sum(r.count != 2 or r.beta < (1.0 - 2.0 * c) - 1e-9 for r, c in zip(reps, cs))
    return CriterionResult(
        3, "Morse oracle and two-point property",
        ok and failures == 0,
        {"beta_2cos_error": beta_err, "instances": instances, "failures": failures, "c_max": max(cs)},
    )


@_timed
def criterion_4_cosine_likeness() -> CriterionResult:
    """Lacunary preset at delta = 1: every generator with N <= |k|_1 <= N+10
    has certificate gamma < 2^-40 (strict), and its pi_k f, in one census,
    exactly 2 critical points and beta >= |f_k| (the high-mode Morse claim)."""
    n, s, delta = 2, 1.0, 1.0
    N = threshold_N(n, s, delta)
    f = lacunary_potential(n, s, k_max=N + 12)
    gens = generators(n, N + 10, min_order=math.ceil(N))
    certs = [cosine_certificate(f, k) for k in gens]
    worst = max((cert.gamma for cert in certs), default=-1.0)
    # beta / |f_k| with |f_k| = eta / 2; 0 where the two-point conclusion fails
    ratios = [2.0 * rep.beta / cert.eta if rep is not None and rep.count == 2 else 0.0
              for cert, rep in zip(certs, critical_points_many(lattice_projections(f, gens)))]
    morse_failures = sum(ratio < 1.0 for ratio in ratios)
    ok = bool(gens) and worst < COSINE_LIKE_THRESHOLD and morse_failures == 0
    return CriterionResult(
        4, "high-mode cosine-likeness (lacunary)",
        ok, {"checked": len(gens), "worst_gamma": worst, "threshold": COSINE_LIKE_THRESHOLD,
             "morse_failures": morse_failures, "min_beta_over_fk": min(ratios, default=0.0)},
    )


@_timed
def criterion_5_covering(samples: int = 10 ** 6) -> CriterionResult:
    """Exhaustiveness: every sampled point of the ball receives a label,
    n = 2 and n = 3, free-mode alpha."""
    uncovered = {}
    for n, alpha, K0, K in ((2, 0.05, 2, 5), (3, 0.03, 2, 4)):
        params = free_params(n, 1.0, alpha=alpha, K0=K0, K=K)
        uncovered[f"n={n}"] = sum(
            int(np.count_nonzero(~classify_batch(Y, params).covered))
            for Y in ball_points(n, samples, 123 + n)
        )
    ok = all(v == 0 for v in uncovered.values())
    return CriterionResult(
        5, "covering exhaustiveness (1e6 samples, n=2,3)",
        ok, {"samples": samples, "uncovered": uncovered},
    )


@_timed
def criterion_6_measure_scaling(samples: int = 10 ** 6, ratio_tol: float = 0.15) -> CriterionResult:
    """Halving alpha scales the doubly-resonant measure by 4 (within 15%);
    the fitted envelope cbar alpha^2 K^{2n} dominates on five parameter sets."""
    pa = free_params(2, 1.0, alpha=0.04, K0=2, K=5)
    pb = free_params(2, 1.0, alpha=0.02, K0=2, K=5)
    ea = measure_R2(pa, samples, 7)
    eb = measure_R2(pb, samples, 8)
    ratio = ea.measure_any / eb.measure_any
    ratio_ok = abs(ratio - 4.0) <= 4.0 * ratio_tol

    sets = [
        free_params(2, 1.0, alpha=0.04, K0=2, K=5),
        free_params(2, 1.0, alpha=0.02, K0=2, K=5),
        free_params(2, 1.0, alpha=0.03, K0=2, K=6),
        free_params(3, 1.0, alpha=0.03, K0=2, K=4),
        free_params(2, 1.0, alpha=0.05, K0=3, K=7),
    ]
    estimates = [measure_R2(p, samples, 17 + i) for i, p in enumerate(sets)]
    cbar = fit_measure_constant(estimates)
    bound_ok = all(
        est.measure_any <= cbar * est.params.alpha ** 2 * est.params.K ** (2 * est.params.n)
        + 1e-12
        for est in estimates
    )
    return CriterionResult(
        6, "doubly-resonant measure: alpha^2 scaling and envelope",
        ratio_ok and bound_ok,
        {"ratio": ratio, "tolerance": f"4 +- {100*ratio_tol:.0f}%", "cbar_fit": cbar,
         "measures": [est.measure_any for est in estimates]},
    )


def random_benchmark_form(rng: np.random.Generator, n_hat: int = 1) -> DecoupledForm:
    """Random decoupled potential satisfying the smallness hypothesis with a
    certified margin: the Y1/phat-dependent part is rescaled so that
    theta_o/r^2 = rho * 2^-10 s/(pi+s) with rho in (0.1, 0.95)."""
    r = float(rng.uniform(0.02, 0.08))
    s_breve = float(rng.uniform(0.4, 1.0))
    terms: dict = {}
    for _ in range(rng.integers(3, 8)):
        d = int(rng.integers(0, 4))
        m = tuple(int(v) for v in rng.integers(0, 2, n_hat))
        j = int(rng.integers(0, 4))
        if d == 0 and sum(m) == 0:
            d = 1
        terms[(d, m, j)] = (float(rng.normal()), float(rng.normal()))
    raw = PolyTrig1(n_hat, terms)
    B_raw = raw.dep_majorant(4 * r, 4 * r, s_breve)
    rho = float(rng.uniform(0.1, 0.95))
    target_theta_o = rho * 2.0 ** -10 * s_breve / (math.pi + s_breve) * r ** 2
    scale = 2.0 * target_theta_o / B_raw
    scaled = {key: (a * scale, b * scale) for key, (a, b) in terms.items()}
    # a reference oscillatory part (no Y1/phat dependence; does not affect
    # the contraction), sized like the dependent part
    scaled[(0, (0,) * n_hat, 1)] = (target_theta_o, 0.5 * target_theta_o)
    G = PolyTrig1(n_hat, scaled)
    return DecoupledForm(
        Gf=G, adiabatic=lambda ph: 0.0,
        r=r, s_breve=s_breve, theta_o_bound=target_theta_o, n_hat=n_hat,
    )


@_timed
def criterion_7_contraction(instances: int = 100) -> CriterionResult:
    """On randomized forms under the smallness hypothesis: empirical
    contraction <= 1/8 + 1e-6, residual < 1e-13, the |p| bound, and the stated
    equation's residual max |p + 0.5 d_{Y1} Gf(p)| <= 1e-13 on a fresh reading's
    grid, Gf bound afresh, which a wrong `_step` fails and the first two do not."""
    rng = np.random.default_rng(2024)
    failures = []
    worst_contraction = 0.0
    worst_residual = 0.0
    worst_equation = 0.0
    for i in range(instances):
        form = random_benchmark_form(rng, n_hat=int(rng.integers(1, 3)))
        if not form.hypothesis_ok():
            failures.append((i, "hypothesis"))
            continue
        phat = rng.uniform(-form.r, form.r, form.n_hat)
        fp = solve_fixed_point(form, phat)
        worst_contraction = max(worst_contraction, fp.contraction)
        worst_residual = max(worst_residual, fp.residual)
        p = fp.read(phat).grid.p
        equation = float(np.max(np.abs(p + 0.5 * form.Gf.at(phat, _THETA)(p, 1))))
        worst_equation = max(worst_equation, equation)
        if fp.contraction > 1.0 / 8.0 + 1e-6:
            failures.append((i, "contraction"))
        if not fp.residual < 1e-13:
            failures.append((i, "residual"))
        if not fp.pitale_ok:
            failures.append((i, "p-bound"))
        if not equation <= 1e-13:
            failures.append((i, "equation"))
    return CriterionResult(
        7, "fixed-point contraction on randomized forms",
        not failures,
        {"instances": instances, "failures": failures,
         "worst_contraction": worst_contraction, "worst_residual": worst_residual,
         "worst_equation_residual": worst_equation},
    )


def _benchmark_standard_form():
    """A benchmark standard form with two adiabatic actions (so the q_hat
    Hessian block is a genuine 2x2 symmetry check) and a nontrivial Phi1
    from the resonance (1, 1, 2)."""
    rng = np.random.default_rng(5)
    r, sb = 0.05, 0.8
    target = 0.3 * 2.0 ** -10 * sb / (math.pi + sb) * r ** 2
    u = 1.0 / (4 * r)
    terms = {
        (0, (0, 0), 1): (target, 0.4 * target),
        (1, (0, 0), 1): (0.20 * target * u, -0.1 * target * u),
        (1, (1, 0), 2): (0.08 * target * u * u, 0.06 * target * u * u),
        (1, (0, 1), 1): (0.07 * target * u * u, -0.05 * target * u * u),
        (2, (0, 0), 1): (0.06 * target * u * u, 0.0),
        (1, (1, 1), 0): (0.04 * target * u ** 3, 0.0),
        (2, (0, 1), 0): (0.03 * target * u ** 3, 0.0),
        (1, (2, 0), 2): (0.03 * target * u ** 3, 0.02 * target * u ** 3),
    }
    G = PolyTrig1(2, terms)
    B = G.dep_majorant(4 * r, 4 * r, sb)
    form = DecoupledForm(Gf=G, adiabatic=lambda ph: 0.0,
                         r=r, s_breve=sb, theta_o_bound=max(B / 2, target), n_hat=2)
    fp = solve_fixed_point(form, np.array([0.01, -0.02]))
    params = free_params(3, 1.0, alpha=0.05, K0=4, K=24)
    ch = characteristics((1, 1, 2), 3, 1.0, 1e-6, 0.1, lacunary_potential(3, 1.0, 8), params)
    sf = build_phi2_phi3(fp, ch, OneDTrigPoly({1: 1e-6}), phi1=decoupling_matrix(complete_to_sl((1, 1, 2))))
    return sf, rng


@_timed
def criterion_8_symplecticity(points: int = 100) -> CriterionResult:
    """Phi1 rational residual exactly zero; Phi2, Phi3 and the composite
    within 1e-9 over sampled points, absolutely and relative to the largest
    entry of J - I; shear group law to 1e-12.  Doubling one off-diagonal
    entry of Phi2's q_hat-phat Hessian block fails only the relative gate.
    Doubling the whole symmetric block, or dp/dq1, stays symplectic by
    construction, so neither is a witness here.  composite_relative checks
    only the chain rule: Phi1's O(1) entries set its spread, so that Phi2
    fault, at 3.2e-7 in phi2_relative, moves it only to 5.0e-13.  Every map
    call, the group law's too, reads one `fp.read` of the points: one grid
    and one point solve at any number of points."""
    exact = symplectic_residual_exact(decoupling_matrix(complete_to_sl((2, 3))))
    phi1_exact_zero = exact == 0 and isinstance(exact, (int, Fraction))

    sf, rng = _benchmark_standard_form()
    # one row per point, drawn point by point, then mapped as one stack
    pts = np.array([np.concatenate([
        rng.uniform(-sf.form.r, sf.form.r, 1),
        np.array([0.01, -0.02]) + rng.uniform(-sf.form.r, sf.form.r, 2),
        rng.uniform(0, TWO_PI, 3),
    ]) for _ in range(points)])
    details = {"phi1_rational_residual": str(exact)}
    rd = sf.fp.read(pts[:, 1:sf.n], pts[:, sf.n])
    for name, jacobian in (("phi2", sf.phi2.jacobian), ("phi3", sf.phi3.jacobian),
                           ("composite", sf.phi_diamond_jacobian)):
        J = jacobian(pts, rd)
        details[name] = symplectic_defect(J)
        # relative companion of the absolute gate: Phi2 and Phi3 are within
        # ~1e-7 of the identity, where the absolute defect says little
        spread = float(np.max(np.abs(J - np.eye(J.shape[-1]))))
        details[name + "_relative"] = details[name] / spread if spread > 0 else 0.0

    a = sf.phi3
    details["group_law"] = float(np.max(np.abs(a.inverse().apply(a.apply(pts, rd), rd) - pts)))
    ok = (phi1_exact_zero and details["group_law"] <= 1e-12
          and all(details[name] <= 1e-9 and details[name + "_relative"] <= 1e-9
                  for name in ("phi2", "phi3", "composite")))
    return CriterionResult(8, "symplecticity of the reduction transforms", ok, details)


@_timed
def criterion_9_energy_identity(points: int = 100) -> CriterionResult:
    """Pipeline identity Hsec o Phi_diamond = (|k|^2/2)(H_k + h0) to 1e-12
    relative on the two-mode benchmark; exact kinetic split to 1e-12; the reduction
    identity of a form cubic in Y1, p moving with q1, to 1e-12 max|H| (it sees Phi2's shift and nu)."""
    k = (1, 1)
    sf = standardize(two_mode_potential(1.0), 1.0, 1e-5, k, free_params(2, 1.0, alpha=0.03, K0=2, K=6),
                     np.array([0.5, -0.5]), beta=0.05, order=2)
    sec = sf.form.secular
    kk2 = float(sum(v * v for v in k))
    phat0 = sf.fp.base_phat
    rng = np.random.default_rng(31)
    r = sf.chars.r
    # rows (p1, phat, q1), drawn in that order, then read in one stacked solve
    pts = np.array([(rng.uniform(-r, r), *(phat0 + rng.uniform(-r, r, 1)), rng.uniform(0, TWO_PI))
                    for _ in range(points)])
    ph, q1 = pts[:, 1:-1], pts[:, -1]
    rd = sf.fp.read(ph, q1)
    # Y1 of (p1, phat, q1, qhat = 0) through Phi3, then Phi2
    Y1 = sf.phi2.apply(sf.phi3.apply(np.concatenate([pts, np.zeros_like(ph)], axis=1), rd), rd)[:, 0]
    kinetic, G = sf._read(pts[:, 0], rd)
    # through U and then A^T, not their product, so the kinetic split is tested
    lhs = sec.value(apply(sf.form.dm.U, np.concatenate([Y1[:, None], ph], axis=-1)), q1)
    rhs = kk2 / 2.0 * ((kinetic + G) + sf._h0(rd.G0, ph))
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)))

    # exact rational kinetic-split identity
    split_worst = Fraction(0)
    rng2 = np.random.default_rng(32)
    for _ in range(20):
        Y = [Fraction(int(rng2.integers(-99, 99)), int(rng2.integers(1, 99)))
             for _ in range(2)]
        split_worst = max(split_worst, abs(kinetic_split_residual(sf.form.dm, Y)))

    # tier-1's cubic witness (TestReduction), built as its small_standard_form builds it
    G3 = PolyTrig1(1, {(1, (0,), 1): (0.1, 0.0), (3, (0,), 0): (1.0, 0.0), (2, (1,), 0): (0.05, 0.0)})
    fp3 = solve_fixed_point(DecoupledForm(G3, lambda _: 0.0, 0.1, 0.5, 1e-5, 1), np.zeros(1))
    sf3 = build_phi2_phi3(fp3, characteristics((1, 0), 2, 1.0, 1e-6, 0.1, lacunary_potential(2, 1.0, 10),
                                               free_params(2, 1.0, alpha=0.05, K0=2, K=12)), OneDTrigPoly({1: 1e-6}))
    w = np.random.default_rng(33).uniform((-0.1, -0.1, 0.0), (0.1, 0.1, TWO_PI), (points, 3))  # (p1, phat, q1)
    rd3 = sf3.fp.read(w[:, 1:2], w[:, 2])
    H3 = float(np.max(np.abs(np.add(*sf3._read(w[:, 0], rd3)) + rd3.G0)))  # max|H| up to the error
    cubic = sf3.check_reduction_identity(w[:, :2], w[:, 2], rd3)
    ok = worst <= 1e-12 and float(split_worst) <= 1e-12 and cubic <= 1e-12 * H3
    return CriterionResult(
        9, "pipeline energy identity (two-mode benchmark)",
        ok,
        {"relative_error": worst, "kinetic_split_residual": str(split_worst),
         "hypothesis_flag": sf.fp.hypothesis_ok, "cubic_identity_error": cubic},
    )


@_timed
def criterion_10_averaging() -> CriterionResult:
    """Exact emptiness of the remainder on the killed set (the band, and in
    the resonant case every mode off the line, read as `line_coeff_max`);
    Richardson remainder ratios 4 +- 20% (order 1, single mode) and 8 +- 25%
    (order 2, minimal parity-breaking pair), each residual >= 100 flow errors."""
    from .lieseries import lie_step_res

    rng = np.random.default_rng(3)
    y0 = np.array([0.7, 0.31])

    # exact support checks
    f1 = TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7, (3, 2): 0.4})
    params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
    nf = lie_step_nonres(NaturalHam(2, 1e-3, f1), params, y0, order=2, max_degree=3)
    band_max = nf.band_coefficient_maxima()
    y0r = np.array([0.5, -0.5])
    nfr = lie_step_res(NaturalHam(2, 1e-3, two_mode_potential(1.0)), (1, 1),
                       free_params(2, 1.0, alpha=0.03, K0=2, K=6), y0r,
                       order=2, max_degree=3)
    line_max = nfr.band_coefficient_maxima()

    pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0, TWO_PI, 2))
           for _ in range(6)]
    flow_shares = []

    def ratio(f, order, eps, deg):
        nfa = lie_step_nonres(NaturalHam(2, eps, f), params, y0, order=order,
                              max_degree=deg)
        nfb = lie_step_nonres(NaturalHam(2, eps / 2, f), params, y0, order=order,
                              max_degree=deg)
        ra = verify_conjugacy(NaturalHam(2, eps, f), nfa, pts,
                              rtol=1e-13, atol=1e-14)
        rb = verify_conjugacy(NaturalHam(2, eps / 2, f), nfb, pts,
                              rtol=1e-13, atol=1e-14)
        flow_shares.extend(r.flow_error / r.max_residual for r in (ra, rb))
        return ra.max_residual / rb.max_residual

    single = TrigPoly.from_cosines(2, {(1, 0): 1.0})
    r1 = ratio(single, 1, 1e-2, 3)
    pair = TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7})
    r2 = ratio(pair, 2, 5e-3, 5)
    ok = (band_max == 0.0 and line_max == 0.0
          and abs(r1 - 4.0) <= 0.8 and abs(r2 - 8.0) <= 2.0 and max(flow_shares) <= 0.01)
    return CriterionResult(
        10, "averaging structure: exact supports and order scaling",
        ok,
        {"band_coeff_max": band_max, "line_coeff_max": line_max,
         "ratio_order1": r1, "ratio_order2": r2, "flow_error_share": max(flow_shares)},
    )


@_timed
def criterion_11_kappa() -> CriterionResult:
    """kappa identical across every k in G^2_{10}; hand value
    kappa(2, 1, 0.1) = 80 sqrt(2) to 1e-9."""
    params = free_params(2, 1.0, alpha=0.01, K0=10, K=60)
    f = lacunary_potential(2, 1.0, 12)
    kappas = set()
    for k in generators(2, 10):
        ch = characteristics(k, 2, 1.0, 1e-6, 0.1, f, params)
        kappas.add(ch.kappa)
    hand = 80.0 * math.sqrt(2.0)  # 4 * 2^{3/2} * (5*2*1) at n=2, s=1, beta=0.1
    err = abs(kappa_uniform(2, 1.0, 0.1) - hand)
    ok = len(kappas) == 1 and err <= 1e-9
    return CriterionResult(
        11, "kappa uniformity across resonance labels",
        ok, {"distinct_kappas": len(kappas), "kappa": next(iter(kappas)),
             "hand_value_error": err},
    )


@_timed
def criterion_12_genericity_trend(trials: int = 20_000, factor: float = 2.0) -> CriterionResult:
    """(P1+) failure fraction at delta vs delta/2 has ratio 4 within a factor
    of 2 (the delta^2 product-measure trend), measured on the window
    |k|_1 in [1, 6] (see the decisions ledger for the window override).

    Each fraction is also held to the sampler's exact law: a uniform w on the
    disk has |w| < t with probability min(1, t^2), so a trial fails with
    probability 1 - prod_k (1 - min(1, (delta |k|_1^-2)^2)).  The two-sided
    binomial gate |z| <= 4.5 raises a false alarm about 7e-6 of the time
    per fraction."""
    delta, gens = 0.3, generators(2, 6, min_order=1)
    details, fails = {}, []
    for name, d, seed in (("delta", delta, 99), ("half", delta / 2, 100)):
        fail = 1.0 - empirical_genericity(2, 1.0, d, trials, seed, window=(1, 6)).fraction_pass
        exact = 1.0 - math.prod(1.0 - min(1.0, (d / l1(k) ** 2) ** 2) for k in gens)
        z = (fail - exact) * math.sqrt(trials / (exact * (1.0 - exact)))
        details |= {f"fail_fraction_{name}": fail, f"exact_fail_{name}": exact, f"z_{name}": z}
        fails.append((fail, z))
    (fail_a, z_a), (fail_b, z_b) = fails
    ratio = fail_a / fail_b if fail_b > 0 else math.inf
    ok = 4.0 / factor <= ratio <= 4.0 * factor and max(abs(z_a), abs(z_b)) <= 4.5
    return CriterionResult(
        12, "empirical genericity delta^2 trend",
        ok,
        {**details, "ratio": ratio, "band": [4.0 / factor, 4.0 * factor], "z_gate": 4.5,
         "melk_constant_fit": fail_a / delta ** 2, "window": [1, 6]},
    )


ALL_CRITERIA = [
    criterion_1_generators,
    criterion_2_sl_completion,
    criterion_3_morse_oracle,
    criterion_4_cosine_likeness,
    criterion_5_covering,
    criterion_6_measure_scaling,
    criterion_7_contraction,
    criterion_8_symplecticity,
    criterion_9_energy_identity,
    criterion_10_averaging,
    criterion_11_kappa,
    criterion_12_genericity_trend,
]

# run_all(quick=True)'s arguments, by criterion
QUICK = {
    criterion_3_morse_oracle: {"instances": 100},
    criterion_5_covering: {"samples": 10 ** 5},
    criterion_6_measure_scaling: {"samples": 10 ** 5, "ratio_tol": 0.30},
    criterion_7_contraction: {"instances": 30},
    criterion_8_symplecticity: {"points": 20},
    criterion_9_energy_identity: {"points": 20},
    criterion_12_genericity_trend: {"factor": 3.0},
}


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run the full battery; quick mode reduces Monte-Carlo sizes 10x (not
    criterion 12's, whose exact-law gate needs them) and widens the
    statistical ratio bands accordingly."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn(**(QUICK.get(fn, {}) if quick else {}))
        results.append(result)
        print(result.line())
    return results
