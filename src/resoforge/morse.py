"""Morse analysis of 1-D lattice projections and cosine-likeness certificates.

A periodic F is beta-Morse when min(|F'| + |F''|) >= beta on the circle and
all critical-value gaps are >= beta.  For projections pi_k f with a dominant
+-k mode pair the oscillatory residual

    F*(theta) = (1 / 2|f_k|) sum_{|j| >= 2} f_{jk} e^{i j theta}

is bounded in the strip-1 majorant; when that bound gamma is small the
projection is within eta*gamma of the shifted cosine eta*cos(theta + theta_k)
with eta = 2|f_k|, which pins down exactly two critical points and a Morse
constant >= |f_k| through the C^2 perturbation argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .fourier import Mode, OneDTrigPoly, TrigPoly, TWO_PI, l1, on_ray, project_lattice

GRID_SIZE = 1 << 14          # dense localization grid on [0, 2pi)
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
MERGE_TOL = 1e-8             # duplicate roots merged within this distance
COSINE_LIKE_THRESHOLD = 2.0 ** -40


class ConstantFunctionError(ValueError):
    """F' vanishes identically; critical points are undefined."""


class NotCosineCloseError(ValueError):
    """C^2 distance to every admissible shifted cosine exceeds the bound."""


class VanishingLeadingModeError(ValueError):
    """The +-k coefficient pair vanishes; no cosine normalization exists."""


class CosineLikenessError(ValueError):
    """Certificate residual exceeds the requested cosine-likeness level."""

    def __init__(self, message: str, witness: Mode | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass
class MorseReport:
    """Critical-point census of a 1-D projection.

    beta = min(min_grad_plus_hess, min_value_gap) is the certified-Morse
    constant of the sampled function; an even number of critical points with
    alternating maxima/minima is expected for analytic Morse functions.
    """

    critical_points: np.ndarray
    critical_values: np.ndarray
    beta: float
    min_value_gap: float
    min_grad_plus_hess: float
    distinct_values: bool
    max_second_derivative: float

    @property
    def count(self) -> int:
        return len(self.critical_points)

    def count_bound(self) -> float:
        """pi * sqrt(2 max|F''| / beta), valid whenever beta > 0."""
        if self.beta <= 0:
            return math.inf
        return math.pi * math.sqrt(2.0 * self.max_second_derivative / self.beta)

    def alternates(self) -> bool:
        """Maxima and minima alternate around the circle."""
        v = self.critical_values
        if len(v) < 2 or len(v) % 2 != 0:
            return False
        w = np.concatenate([v, v[:1]])
        signs = np.sign(np.diff(w))
        return bool(np.all(signs[:-1] * signs[1:] < 0))

    def to_dict(self) -> dict:
        return {
            "critical_points": self.critical_points.tolist(),
            "critical_values": self.critical_values.tolist(),
            "beta": self.beta,
            "min_value_gap": self.min_value_gap,
            "min_grad_plus_hess": self.min_grad_plus_hess,
            "distinct_values": self.distinct_values,
            "max_second_derivative": self.max_second_derivative,
            "count": self.count,
        }


@dataclass
class CosineCertificate:
    """Certified closeness of pi_k f to eta*cos(theta + theta0).

    residual_majorant bounds the strip-1 majorant of eta*F*, so
    gamma = residual_majorant / eta satisfies |pi_k f - eta cos(.+theta0)|_1
    <= eta*gamma; rescaling f leaves gamma unchanged.
    """

    eta: float
    theta0: float
    residual_majorant: float
    gamma: float

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "theta0": self.theta0,
            "residual_majorant": self.residual_majorant,
            "gamma": self.gamma,
        }


@dataclass
class HighModeMorseResult:
    certified_lower_bound: float
    computed_beta: float
    certificate: CosineCertificate
    report: MorseReport


def _refine_extremum(fun, theta0: float, h: float, minimum: bool = True) -> float:
    sign = 1.0 if minimum else -1.0
    res = minimize_scalar(
        lambda t: sign * fun(t),
        bounds=(theta0 - h, theta0 + h),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return sign * float(res.fun)


def critical_points(F: OneDTrigPoly, tol: float = NEWTON_TOL) -> MorseReport:
    """Locate all roots of F' on the circle and assemble the Morse report.

    Dense-grid bracketing (2^14 points; the grids of F, F' and F'' are one
    inverse real FFT each, see OneDTrigPoly.values_on_grid) plus Newton
    polishing on F'; duplicate roots within 1e-8 are merged.  min(|F'|+|F''|)
    and max|F''| are grid minima/maxima refined by local bounded search.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if F.is_zero:
        raise ConstantFunctionError("constant function")
    m = GRID_SIZE
    theta = np.arange(m) * (TWO_PI / m)
    f0 = F.values_on_grid(m, order=0)
    f1 = F.values_on_grid(m, order=1)
    f2 = F.values_on_grid(m, order=2)
    deriv_scale = float(np.max(np.abs(f1)))
    if deriv_scale < 1e-300:
        raise ConstantFunctionError("constant function")
    # root tolerance is relative to max|F'| so rescaled inputs behave identically
    tol_eff = tol * deriv_scale

    d1 = F.derivative(1)
    d2 = F.derivative(2)

    def fp(t: float) -> float:
        return d1.evaluate(t).real

    def fpp(t: float) -> float:
        return d2.evaluate(t).real

    roots: list[float] = []
    f1_next = np.roll(f1, -1)
    for i in np.nonzero((f1 * f1_next < 0) | (f1 == 0.0))[0]:
        a = theta[i]
        b = theta[i] + TWO_PI / m
        t = 0.5 * (a + b) if f1[i] != 0.0 else a
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            val = fp(t)
            if abs(val) < tol_eff:
                converged = True
                break
            der = fpp(t)
            if der == 0.0:
                break
            t_new = t - val / der
            if not (a - TWO_PI / m <= t_new <= b + TWO_PI / m):
                break
            t = t_new
        if not converged and f1[i] * f1_next[i] < 0:
            lo, hi = a, b
            flo = fp(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = fp(mid)
                if abs(fm) < tol_eff:
                    break
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            t = 0.5 * (lo + hi)
        roots.append(t % TWO_PI)

    roots.sort()
    merged: list[float] = []
    for t in roots:
        if merged and (abs(t - merged[-1]) < MERGE_TOL):
            continue
        merged.append(t)
    if len(merged) >= 2 and (merged[0] + TWO_PI) - merged[-1] < MERGE_TOL:
        merged.pop()
    pts = np.array(merged)
    vals = np.array([F.evaluate(t).real for t in pts])

    g = np.abs(f1) + np.abs(f2)
    i_min = int(np.argmin(g))
    min_gph = _refine_extremum(
        lambda t: abs(fp(t)) + abs(fpp(t)), theta[i_min], TWO_PI / m, minimum=True
    )
    i_max = int(np.argmax(np.abs(f2)))
    max_f2 = _refine_extremum(lambda t: abs(fpp(t)), theta[i_max], TWO_PI / m, minimum=False)

    if len(pts) >= 2:
        diffs = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(diffs, np.inf)
        min_gap = float(np.min(diffs))
    else:
        min_gap = math.inf
    value_scale = float(np.max(np.abs(f0)))
    distinct = bool(min_gap > 1e-9 * max(value_scale, 1e-300))

    return MorseReport(
        critical_points=pts,
        critical_values=vals,
        beta=min(min_gph, min_gap),
        min_value_gap=min_gap,
        min_grad_plus_hess=min_gph,
        distinct_values=distinct,
        max_second_derivative=max_f2,
    )


def c2_distance_to_cosine(F: OneDTrigPoly, theta0: float) -> float:
    """max over derivative orders 0..2 of sup_T |d^j(F - cos(theta+theta0))|."""
    delta = F.plus(OneDTrigPoly.from_cosine(-1.0, theta0))
    if delta.is_zero:
        return 0.0
    m = GRID_SIZE
    grid = np.arange(m) * (TWO_PI / m)
    worst = 0.0
    for order in range(3):
        d = delta.derivative(order)
        vals = np.abs(delta.values_on_grid(m, order=order))
        i = int(np.argmax(vals))
        worst = max(worst, _refine_extremum(
            lambda t: abs(d.evaluate(t).real), grid[i], TWO_PI / m, minimum=False
        ))
    return worst


def two_point_morse_check(F: OneDTrigPoly, c: float) -> MorseReport:
    """Check the two-critical-point conclusion for F within C^2 distance c of
    a shifted cosine; the shift is read off the phase of the j = 1 coefficient.

    Requires c < 1/2.  On success the report has exactly two critical points
    and beta >= 1 - 2c.
    """
    if not 0 <= c < 0.5:
        raise NotCosineCloseError("not cosine-close")
    c1 = F.coeff(1)
    if c1 == 0:
        raise NotCosineCloseError("not cosine-close")
    theta_bar = float(np.angle(c1)) % TWO_PI
    dist = c2_distance_to_cosine(F, theta_bar)
    if dist > c + 1e-12:
        raise NotCosineCloseError("not cosine-close")
    report = critical_points(F)
    if report.count != 2:
        raise RuntimeError(
            f"two-point conclusion failed: {report.count} critical points at c={c}"
        )
    if report.beta < (1.0 - 2.0 * c) - 1e-9:
        raise RuntimeError(
            f"Morse constant {report.beta} below certified 1-2c = {1 - 2 * c}"
        )
    return report


def cosine_certificate(f: TrigPoly, k: Mode, j_max: int | None = None) -> CosineCertificate:
    """Certify pi_k f ~ 2|f_k| cos(theta + theta_k) via the residual majorant.

    eta = 2|f_k|, e^{i theta_k} = f_k/|f_k|, and residual_majorant is the
    strip-1 ell^1 majorant sum_{|j|>=2} |f_{jk}| e^{|j|} of eta*F*; the
    certificate level is gamma = residual_majorant / eta, invariant under
    rescaling of f.
    """
    k = tuple(int(v) for v in k)
    fk = f.coeff(k)
    if fk == 0:
        raise VanishingLeadingModeError("vanishing leading mode")
    eta = 2.0 * abs(fk)
    theta0 = float(np.angle(fk)) % TWO_PI

    # query the ray multiples directly: coeff() consults the rule beyond the
    # materialized support, so the sum is complete up to j_max
    if j_max is None:
        cutoff = f.rule_cutoff if f.rule_cutoff is not None else f.max_order()
        j_max = max(1, int(cutoff // max(l1(k), 1)) + 1)
    residual = 0.0
    for j in range(2, j_max + 1):
        c = f.coeff(tuple(j * v for v in k))
        if c != 0:
            residual += 2.0 * abs(c) * math.exp(j)
    if f.rule is not None:
        residual += f.rule.line_tail_majorant(k, j_max + 1, 1.0)
    return CosineCertificate(
        eta=eta, theta0=theta0, residual_majorant=residual, gamma=residual / eta
    )


def morse_constant_high_mode(f: TrigPoly, k: Mode) -> HighModeMorseResult:
    """Certified Morse lower bound |f_k| for pi_k f at cosine-like modes.

    Requires the certificate residual gamma <= 2^-40 (the high-mode
    hypothesis); the numerically computed beta of pi_k f is returned alongside
    and must dominate the certified bound.
    """
    cert = cosine_certificate(f, k)
    if cert.gamma > COSINE_LIKE_THRESHOLD:
        witness = None
        best = 0.0
        for kp, c in f.coeffs.items():
            j = on_ray(kp, tuple(int(v) for v in k))
            if j is not None and j >= 2:
                contrib = 2.0 * abs(c) * math.exp(j)
                if contrib > best:
                    best, witness = contrib, kp
        raise CosineLikenessError(
            f"cosine-likeness hypothesis fails at mode {k}: gamma={cert.gamma:.3e}",
            witness=witness,
        )
    F = project_lattice(f, tuple(int(v) for v in k))
    report = critical_points(F)
    return HighModeMorseResult(
        certified_lower_bound=abs(f.coeff(k)),
        computed_beta=report.beta,
        certificate=cert,
        report=report,
    )
