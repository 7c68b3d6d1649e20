"""Morse analysis of 1-D lattice projections and cosine-likeness certificates.

A periodic F is beta-Morse when min(|F'| + |F''|) >= beta on the circle and
all critical-value gaps are >= beta; critical_points measures both with one
root primitive (_zeros).  For projections pi_k f with a dominant +-k mode
pair the oscillatory residual

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

from .fourier import Mode, OneDTrigPoly, TrigPoly, TWO_PI, l1, on_ray, project_lattice

GRID_SIZE = 1 << 14          # dense localization grid on [0, 2pi)
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


def _values(C: np.ndarray, js: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 Re sum_j C[r, j] e^{ijt} for every row r of C and every t: (len(t), rows)."""
    return 2.0 * (np.exp(1j * np.outer(t, js)) @ C.T).real


def _zeros(C: np.ndarray, js: np.ndarray, cells: np.ndarray, v_lo: np.ndarray,
           v_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, zero) for the zeros of P_r = 2 Re sum_j C[r, j] e^{ijt} in the grid
    cells [t_i, t_{i+1}], i = cells[k], t_i = 2 pi i / GRID_SIZE, with end
    values v_lo[r, k], v_hi[r, k].  One scan of the stack takes one zero from
    each cell with a sign change or a zero at its left end, polished inside
    the cell ([t_{i-1}, t_{i+1}] for a grid zero); nothing needs merging.
    """
    zero = v_lo == 0.0
    change = (np.signbit(v_lo) != np.signbit(v_hi)) & ~(zero | (v_hi == 0.0))
    row, k = np.divmod(np.flatnonzero(change | zero), v_lo.shape[1])
    on_node = zero[row, k]
    hi = v_hi[row, k]
    # a grid zero is bracketed as a simple zero at its bracket's midpoint
    lo = np.where(on_node, -hi, v_lo[row, k])
    h = TWO_PI / GRID_SIZE
    return row, _polish(C[row], js, (cells[k] - on_node) * h, (cells[k] + 1) * h, lo, hi) % TWO_PI


def _polish(coef: np.ndarray, js: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
    """The zero of P_b = 2 Re sum_j coef[b, j] e^{ijt} in [lo_b, hi_b] (end values
    v_lo_b, v_hi_b of opposite signs) by safeguarded Newton on all brackets at
    once from the secant point: a step solves the quadratic Taylor model (twice
    the Newton step if it has no real root), or bisects if it would leave the
    bracket or fails to halve the step before last (rtsafe, Numerical Recipes
    9.4).  Done at |P_b(t)| <= 4 eps sum_j |coef[b, j]| or a step below 1 ulp.
    """
    t = lo + (hi - lo) * v_lo / (v_lo - v_hi)
    ijs = 1j * js
    cd = 2.0 * np.stack([coef, coef * ijs, coef * ijs * ijs], axis=1)
    floor = 4.0 * np.finfo(float).eps * np.abs(coef).sum(axis=1)
    ulp = np.spacing(TWO_PI)
    adx = adx_old = hi - lo
    live = np.ones(len(t), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            p, dp, d2p = (cd @ np.exp(np.outer(t, ijs))[:, :, None]).real[:, :, 0].T
            root = np.sqrt(np.maximum(dp * dp - 2.0 * p * d2p, 0.0))
            step = 2.0 * p / (dp + np.copysign(root, dp))
            live &= (np.abs(p) > floor) & (np.abs(step) >= ulp)
            if not live.any():
                return t
            lo_side = (p < 0) == (v_lo < 0)
            lo, hi = np.where(lo_side, t, lo), np.where(lo_side, hi, t)
            t_new = t - step
            keep = (t_new >= lo) & (t_new <= hi) & (np.abs(step + step) <= adx_old)
            t_new = np.where(keep, t_new, 0.5 * (lo + hi))
            adx_old, adx = adx, np.abs(t_new - t)
            t = np.where(live, t_new, t)
            live &= adx >= ulp


def _derivative_rows(F: OneDTrigPoly, orders) -> tuple[np.ndarray, np.ndarray]:
    """(js, rows): row k holds the coefficients c_j (ij)^orders[k] of F^(orders[k])."""
    js = np.fromiter(F.coeffs, dtype=float, count=len(F.coeffs))
    c = np.fromiter(F.coeffs.values(), dtype=complex, count=len(js))
    return js, np.stack([c * (1j * js) ** k for k in orders])


def critical_points(F: OneDTrigPoly) -> MorseReport:
    """The zeros of F' (one per 3.8e-4 grid cell) and the Morse report of F.

    The 2^14-point grids of F' and F'' pick the cells: each sign change of F',
    and each cell where |F'| + |F''| or |F''| could pass its grid extreme (in
    half a cell of width h they move by at most h sum_j (j^2 + j^3)|c_j| and
    h sum_j j^3 |c_j|).  There _zeros finds the zeros of F', of F'' and
    F'' +- F''' (the kinks and stationary points of |F'| + |F''|) and of F'''.
    """
    m, h = GRID_SIZE, TWO_PI / GRID_SIZE
    f1, f2 = (F.values_on_grid(m, order=k) for k in (1, 2))
    a1, a2 = np.abs(f1), np.abs(f2)
    if float(np.max(a1)) < 1e-300:
        raise ConstantFunctionError("constant function")
    js, rows = _derivative_rows(F, range(4))
    c2, c3 = rows[2], rows[3]
    lip2, lip3 = h * np.abs(c2).sum(), h * np.abs(c3).sum()
    gph = a1 + a2
    gph_min = float(np.min(gph))
    f1_next = np.roll(f1, -1)
    cells = np.flatnonzero((f1 * f1_next <= 0)
                           | (np.minimum(gph, np.roll(gph, -1)) <= gph_min + lip2 + lip3)
                           | (np.maximum(a2, np.roll(a2, -1)) >= np.max(a2) - lip3))
    d2, d3 = _values(rows[2:], js, np.r_[cells, cells + 1] * h).T
    v = np.stack([np.r_[f1[cells], f1_next[cells]], d2, d2 + d3, d2 - d3, d3])
    row, t = _zeros(np.stack([rows[1], c2, c2 + c3, c2 - c3, c3]), js, cells,
                    v[:, :len(cells)], v[:, len(cells):])
    at = _values(rows[:3], js, t)
    crit = np.flatnonzero(row == 0)[np.argsort(t[row == 0])]
    pts, vals = t[crit], at[crit, 0]
    kinks = np.abs(at[row <= 3, 1:]).sum(axis=1)
    # a pair of zeros of F'' (two more kinks) inside one cell shows only as a
    # zero z of F''' where F'' has the other sign than at both cell ends
    z, g = t[row == 4], at[row == 4, 2]
    max_f2 = max(float(np.max(a2)), float(np.max(np.abs(g), initial=0.0)))
    i = (z // h).astype(int) % m
    pair = (np.sign(g) == -np.sign(f2[i])) & (np.sign(f2[i]) == np.sign(f2[(i + 1) % m]))
    if pair.any():
        z, g, i = z[pair], g[pair], i[pair]
        tz = _polish(np.broadcast_to(c2, (2 * len(z), len(js))), js, np.r_[i * h, z],
                     np.r_[z, (i + 1) * h], np.r_[f2[i], g], np.r_[g, f2[(i + 1) % m]])
        kinks = np.r_[kinks, np.abs(_values(rows[1:3], js, tz)).sum(axis=1)]
    min_gph = min(gph_min, float(np.min(kinks, initial=math.inf)))
    min_gap = float(np.min(np.diff(np.sort(vals)), initial=math.inf))
    # max|F| is attained at a critical point
    value_scale = float(np.max(np.abs(vals), initial=0.0))
    return MorseReport(critical_points=pts, critical_values=vals, beta=min(min_gph, min_gap),
                       min_value_gap=min_gap, min_grad_plus_hess=min_gph,
                       distinct_values=bool(min_gap > 1e-9 * max(value_scale, 1e-300)),
                       max_second_derivative=max_f2)


def c2_distance_to_cosine(F: OneDTrigPoly, theta0: float) -> float:
    """max over k = 0..2 of sup_T |delta^(k)|, delta = F - cos(theta + theta0):
    the grid maximum, or |delta^(k)| at a zero of delta^(k+1) in a cell whose
    ends come within h sum_j j^(k+1) |c_j| of it (its most in half a cell)."""
    delta = F.plus(OneDTrigPoly.from_cosine(-1.0, theta0))
    if delta.is_zero:
        return 0.0
    js, rows = _derivative_rows(delta, range(4))
    a = [np.abs(delta.values_on_grid(GRID_SIZE, order=k)) for k in range(3)]
    best = float(max(map(np.max, a)))
    reach = best - TWO_PI / GRID_SIZE * np.abs(rows[1:]).sum(axis=1)
    cells = np.unique(np.concatenate([np.flatnonzero(np.maximum(x, np.roll(x, -1)) >= r)
                                      for x, r in zip(a, reach) if np.max(x) >= r]))
    v = _values(rows[1:], js, np.r_[cells, cells + 1] * (TWO_PI / GRID_SIZE)).T
    row, t = _zeros(rows[1:], js, cells, v[:, :len(cells)], v[:, len(cells):])
    at = np.abs(_values(rows[:3], js, t))
    return float(np.max(at[np.arange(len(t)), row], initial=best))


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


def cosine_certificate(f: TrigPoly, k: Mode) -> CosineCertificate:
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
