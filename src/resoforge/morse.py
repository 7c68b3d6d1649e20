"""Morse analysis of 1-D lattice projections and cosine-likeness certificates.

A periodic F is beta-Morse when min(|F'| + |F''|) >= beta on the circle and
all critical-value gaps are >= beta; critical_points measures both with one
root primitive (_polish).  For projections pi_k f with a dominant +-k mode
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


def _brackets(cells: np.ndarray, v_lo: np.ndarray, v_hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """(k, row, t_lo, t_hi, v_lo, v_hi): one bracket of a zero of P_row in each
    cell [t_i, t_{i+1}], i = cells[k], t_i = 2 pi i / GRID_SIZE, whose end values
    v_lo[k, row], v_hi[k, row] change sign or vanish at t_i ([t_{i-1}, t_{i+1}])."""
    zero = v_lo == 0.0
    change = (np.signbit(v_lo) != np.signbit(v_hi)) & ~(zero | (v_hi == 0.0))
    k, row = np.divmod(np.flatnonzero(change | zero), v_lo.shape[1])
    on_node = zero[k, row]
    hi = v_hi[k, row]
    h = TWO_PI / GRID_SIZE
    # a grid zero is bracketed as a simple zero at its bracket's midpoint
    return k, row, (cells[k] - on_node) * h, (cells[k] + 1) * h, np.where(on_node, -hi, v_lo[k, row]), hi


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
    """The Morse report of F alone: critical_points_many([F])[0]."""
    if (report := critical_points_many([F])[0]) is None:
        raise ConstantFunctionError("constant function")
    return report


def critical_points_many(Fs) -> list[MorseReport | None]:
    """For each F, the zeros of F' (one per 3.8e-4 grid cell) and the Morse
    report of F, or None where F' vanishes.

    The 2^14-point grids of F' and F'' pick the cells: each sign change of F',
    and each cell where |F'| + |F''| or |F''| could pass its grid extreme (in
    half a cell of width h they move by at most h sum_j (j^2 + j^3)|c_j| and
    h sum_j j^3 |c_j|).  There _polish finds the zeros of F', of F'' and
    F'' +- F''' (the kinks and stationary points of |F'| + |F''|) and of F'''
    in one call for all F with the same modes in the same order; a zero does
    not depend on the other brackets of its call, so F gets its report alone.
    """
    m, h = GRID_SIZE, TWO_PI / GRID_SIZE
    out: list[MorseReport | None] = [None] * len(Fs)
    groups: dict[tuple, list[int]] = {}
    for at, F in enumerate(Fs):
        groups.setdefault(tuple(F.coeffs), []).append(at)
    for key, ats in groups.items():
        js = np.array(key, dtype=float)
        c = np.array([list(Fs[at].coeffs.values()) for at in ats], dtype=complex)
        rows = np.stack([c * (1j * js) ** k for k in range(4)], axis=1)  # [F, order, j]
        scans = []
        for at, r in zip(ats, rows):
            f1, f2 = Fs[at].grids(m, (1, 2))
            a1, a2 = np.abs(f1), np.abs(f2)
            if float(np.max(a1)) < 1e-300:
                continue
            lip2, lip3 = h * np.abs(r[2]).sum(), h * np.abs(r[3]).sum()
            gph = np.add(a1, a2, out=a1)
            gph_min, max_f2 = float(np.min(gph)), float(np.max(a2))
            near_extreme = (gph <= gph_min + lip2 + lip3) | (a2 >= max_f2 - lip3)
            sign_change = np.append(f1[:-1] * f1[1:] <= 0, f1[-1] * f1[0] <= 0)
            cells = np.flatnonzero(sign_change | near_extreme | np.roll(near_extreme, -1))
            ends = np.concatenate([cells, cells + 1])
            d2, d3 = _values(r[2:], js, ends * h).T
            v_lo, v_hi = np.stack([f1[ends % m], d2, d2 + d3, d2 - d3, d3], axis=1).reshape(2, -1, 5)
            # only the cells with a sign change or a zero at the left end hold brackets;
            # a zero of F''' bracketed in cell i has t // h in i - 2 .. i + 1
            keep = ((np.signbit(v_lo) != np.signbit(v_hi)) | (v_lo == 0.0)).any(axis=1)
            scans.append((at, r, cells[keep], v_lo[keep], v_hi[keep], gph_min, max_f2,
                          f2[(cells[keep, None] + np.arange(-2, 3)) % m]))
        if not scans:
            continue
        ats, rows, cells, v_lo, v_hi, min_gph, max_f2, f2 = zip(*scans)
        of = np.repeat(np.arange(len(ats)), [len(x) for x in cells])  # the F of each cell
        rows, min_gph, max_f2, f2 = np.array(rows), np.array(min_gph), np.array(max_f2), np.concatenate(f2)
        k, row, *bracket = _brackets(*map(np.concatenate, (cells, v_lo, v_hi)))
        cell, of = np.concatenate(cells)[k], of[k]
        c1, c2, c3 = rows[:, 1], rows[:, 2], rows[:, 3]
        coef = np.stack([c1, c2, c2 + c3, c2 - c3, c3], axis=1)
        t = _polish(coef[of, row], js, *bracket) % TWO_PI
        bounds = np.searchsorted(of, np.arange(len(ats) + 1))  # of is sorted
        vt = np.concatenate([_values(x[:3], js, t[a:b]) for x, a, b in zip(rows, bounds, bounds[1:])])
        np.minimum.at(min_gph, of[row <= 3], np.abs(vt[row <= 3, 1:]).sum(axis=1))
        # a pair of zeros of F'' (two more kinks) inside one cell shows only as a
        # zero z of F''' where F'' has the other sign than at both cell ends
        z, g, z_of, k, cell = t[row == 4], vt[row == 4, 2], of[row == 4], k[row == 4], cell[row == 4]
        np.maximum.at(max_f2, z_of, np.abs(g))
        i = (z // h).astype(int) % m
        lo, hi = (f2[k, (x - cell + 2) % m] for x in (i, i + 1))
        pair = (np.sign(g) == -np.sign(lo)) & (np.sign(lo) == np.sign(hi))
        if pair.any():
            z, g, i, lo, hi, z_of = z[pair], g[pair], i[pair], lo[pair], hi[pair], np.tile(z_of[pair], 2)
            tz = _polish(c2[z_of], js, *map(np.concatenate, ([i * h, z], [z, (i + 1) * h],
                                                                [lo, g], [g, hi])))
            for p in np.unique(z_of):
                kinks = np.abs(_values(rows[p, 1:3], js, tz[z_of == p])).sum(axis=1)
                min_gph[p] = min(min_gph[p], np.min(kinks))
        for p, (at, a, b) in enumerate(zip(ats, bounds, bounds[1:])):
            crit = a + np.flatnonzero(row[a:b] == 0)[np.argsort(t[a:b][row[a:b] == 0])]
            pts, vals = t[crit], vt[crit, 0]
            gph_p, gap_p = float(min_gph[p]), float(np.min(np.diff(np.sort(vals)), initial=math.inf))
            # max|F| is attained at a critical point
            value_scale = float(np.max(np.abs(vals), initial=0.0))
            out[at] = MorseReport(pts, vals, min(gph_p, gap_p), gap_p, gph_p,
                                  bool(gap_p > 1e-9 * max(value_scale, 1e-300)), float(max_f2[p]))
    return out


def c2_distance_to_cosine(F: OneDTrigPoly, theta0: float) -> float:
    """max over k = 0..2 of sup_T |delta^(k)|, delta = F - cos(theta + theta0):
    the grid maximum, or |delta^(k)| at a zero of delta^(k+1) in a cell whose
    ends come within h sum_j j^(k+1) |c_j| of it (its most in half a cell)."""
    delta = F.plus(OneDTrigPoly.from_cosine(-1.0, theta0))
    if delta.is_zero:
        return 0.0
    js, rows = _derivative_rows(delta, range(4))
    a = np.abs(delta.grids(GRID_SIZE, range(3)))
    best = float(np.max(a))
    reach = best - TWO_PI / GRID_SIZE * np.abs(rows[1:]).sum(axis=1)
    cells = np.unique(np.concatenate([np.flatnonzero(np.maximum(x, np.roll(x, -1)) >= r)
                                      for x, r in zip(a, reach) if np.max(x) >= r]))
    v = _values(rows[1:], js, np.r_[cells, cells + 1] * (TWO_PI / GRID_SIZE))
    _, row, *bracket = _brackets(cells, v[:len(cells)], v[len(cells):])
    t = _polish(rows[1:][row], js, *bracket) % TWO_PI
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
