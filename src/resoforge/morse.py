"""Morse analysis of 1-D lattice projections and cosine-likeness certificates.

A periodic F is beta-Morse when min(|F'| + |F''|) >= beta on the circle and
all critical-value gaps are >= beta; critical_points measures both at the
zeros of F' and its derivatives, which one primitive (_zeros) isolates with a
certificate: adaptive Taylor cells in floats, and exact integer arithmetic
where doubles cannot settle a cell, so a count is never a guess.  For
projections pi_k f with a dominant +-k mode pair the oscillatory residual

    F*(theta) = (1 / 2|f_k|) sum_{|j| >= 2} f_{jk} e^{i j theta}

is bounded in the strip-1 majorant; when that bound gamma is small the
projection is within eta*gamma of the shifted cosine eta*cos(theta + theta_k)
with eta = 2|f_k|, which pins down exactly two critical points and a Morse
constant >= |f_k| through the C^2 perturbation argument.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fourier import Mode, OneDTrigPoly, TrigPoly, TWO_PI, l1

COSINE_LIKE_THRESHOLD = 2.0 ** -40  # gamma below it: two critical points and beta >= |f_k|
_HALF_PI = 0.5 * math.pi
_EPS = float(np.finfo(float).eps)
_OFFSET = 0.0618033988749895 - math.pi  # where the cells of _zeros start: far from k pi / m
_LEVELS = 1                             # float levels of _zeros before the exact path, to degree 4
_MARGIN = 64 * _EPS                     # > the rounding of a cell's float midpoint and ends


class ConstantFunctionError(ValueError):
    """F' vanishes identically; critical points are undefined."""


class VanishingLeadingModeError(ValueError):
    """The +-k coefficient pair vanishes; no cosine normalization exists."""


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


def _values(C: np.ndarray, js: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 Re sum_j C[r, j] e^{ijt} for every row r of C and every t: (len(t), rows)."""
    return 2.0 * (np.exp(1j * np.outer(t, js)) @ C.T).real


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


def _zeros(C: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, t): every zero t in [0, 2 pi) of every P_row = 2 Re sum_j C[row, j] e^{ijt},
    by row and then t.  Each is certified, so the count of a row is exact, and
    no test reads another row, so neither are its zeros.

    The circle starts as max(32, 4 deg) cells at an irrational offset.  At a
    cell's float midpoint one product gives P, P', P''; each carries the
    rounding bound e_k = 8 (d + 2) eps S_k + 32 eps S_{k+1}, S_k = 2 sum_j
    j^k |c_j| (the second term moves the midpoint onto the true one), and S_3
    bounds |P'''|.  With R the half-width r widened by _MARGIN, the cell holds
    no zero if |P| > R |P'| + R^2/2 |P''| + R^3/6 S_3 (each test adds the
    e_k), and P is monotone on it if |P'| > R |P''| + R^2/2 S_3.  Then q -+ r P',
    q = P + r^2/2 P'', are its end values to within the bound of the first test
    at r plus _MARGIN S_1: if |q| - r |P'| exceeds that the cell holds no zero,
    and if r |P'| - |q| does, one, which _polish finds.  So no zero lies within
    _MARGIN of the end of a certified cell.  Other cells split, for _LEVELS
    levels up to degree 4 and 40 above, where the exact path costs more;
    those of a row left after that, or once they outnumber 8 (d + 1), go to
    _exact_zeros.
    """
    # a power of two per row: exact, and keeps the bounds clear of underflow
    d, e = int(js.max()), -np.frexp(np.abs(C).max(axis=1))[1][:, None]
    C = np.ldexp(np.ascontiguousarray(C).view(float), e).view(complex)
    S0, S1, S2, S3 = 2.0 * (np.abs(C)[:, None, :] * js ** np.arange(4.0)[:, None]).sum(axis=2).T
    e0, e1, e2 = 8 * (d + 2) * _EPS * np.array([S0, S1, S2]) + 32 * _EPS * np.array([S1, S2, S3])
    K, C3 = np.array([e0, e1, e2, S3, _MARGIN * S1]), C[:, None, :] * (2.0 * (1j * js) ** np.arange(3.0)[:, None])
    n, last = max(32, 4 * d), _LEVELS if d <= 4 else 40
    row, i = np.divmod(np.arange(len(C) * n), n)
    found, exact = [], []
    for level in range(last + 1):
        r = math.pi / (n << level)
        R, t = r + _MARGIN, (2 * i + 1) * r + _OFFSET
        lim_free, lim_mono, lim_end = (np.array([[1, R, R * R / 2, R ** 3 / 6, 0], [0, 1, R, R * R / 2, 0],
                                                 [1, r, r * r / 2, r ** 3 / 6, 1]])[:, :, None] * K).sum(axis=1)[:, row]
        p, p1, p2 = V = np.einsum("nkj,nj->kn", C3[row], np.exp(1j * np.multiply.outer(t, js))).real
        (a0, a1, a2), q = np.abs(V), p + 0.5 * r * r * p2
        gap, mono = np.abs(q) - r * a1, a1 - R * a2 > lim_mono
        one = mono & (gap < -lim_end)
        found.append((row[one], t[one] - r, t[one] + r, (q - r * p1)[one], (q + r * p1)[one]))
        live = ~((a0 - lim_free > R * (a1 + 0.5 * R * a2)) | mono & (np.abs(gap) > lim_end))
        row, i = row[live], i[live]
        # a row whose live cells outgrow 8 (d + 1), twice what its simple zeros can
        # hold, sits on a region doubles cannot resolve: it goes exact now
        if (over := np.bincount(row, minlength=len(C))[row] > 8 * (d + 1)).any():
            exact += [(at, i[over & (row == at)].tolist(), n << level) for at in np.unique(row[over])]
            row, i = row[~over], i[~over]
        if level == last or not len(row):
            break
        row, i = np.repeat(row, 2), (2 * i[:, None] + np.arange(2)).ravel()
    exact += [(at, i[row == at].tolist(), n << level) for at in np.unique(row)]
    of, *bracket = map(np.concatenate, zip(*found))
    t = _polish(C[of], js, *bracket)
    for at, cells, ncells in exact:
        x = _exact_zeros(C[at], js, cells, ncells)
        of, t = np.r_[of, np.full(len(x), at)], np.r_[t, x]
    t %= TWO_PI
    t[t == TWO_PI] = 0.0  # the image of a tiny negative zero
    order = np.lexsort((t, of))
    return of[order], t[order]


def _exact_zeros(c: np.ndarray, js: np.ndarray, cells: list[int], n: int) -> list[float]:
    """The zeros of P = 2 Re sum_j c_j e^{ijt} in the given cells of the n-cell
    grid of _zeros, counted in integers.

    On the quarter q pi/2 + [0, pi/2] put t = q pi/2 + 2 atan x, x in [0, 1].
    Every float is dyadic, so (1 + x^2)^d P = 2 Re sum_j c_j i^{jq} (1 + ix)^(d+j)
    (1 - ix)^(d-j) is, after one power of two, an integer polynomial Q.  A run
    of cells meets a quarter in some (x_lo, x_hi]: its float ends are off by
    less than _MARGIN, within which no zero lies, and quarters meet at x = 1
    and x = 0, where a zero counts once.  _roots01 counts the zeros of
    Q(x_lo + (x_hi - x_lo) y) from its Bernstein coefficients on y in [0, 1];
    should a split go 64 levels deep, as at a multiple zero, it counts those
    of the squarefree part of Q instead.
    """
    cuts = [k for k in range(1, len(cells)) if cells[k] != cells[k - 1] + 1]
    runs = [[cells[a], cells[b - 1] + 1] for a, b in zip([0, *cuts], [*cuts, len(cells)])]
    d, r, out = int(js.max()), math.pi / n, []
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n:  # the run across the offset
        runs[0][0] = runs.pop()[0] - n
    arcs = [(q, 0.0, 1.0) for q in range(4)] if runs == [[0, n]] else []  # the whole circle
    for start, end in runs if not arcs else ():
        start, end = 2 * start * r + _OFFSET, 2 * end * r + _OFFSET
        for q in range(math.floor(start / _HALF_PI), math.floor(end / _HALF_PI) + 1):
            lo, hi = start - q * _HALF_PI, end - q * _HALF_PI
            lo, hi = math.tan(0.5 * lo) if lo > 0 else 0.0, math.tan(0.5 * hi) if hi < _HALF_PI else 1.0
            arcs += [(q % 4, lo, hi)] if lo < hi else []
    ratios = [v.as_integer_ratio() for z in c.tolist() for v in (z.real, z.imag)]
    den = max(y for _, y in ratios)
    ints = [x * (den // y) for x, y in ratios]
    for q, lo, hi in arcs:
        Q = [0] * (2 * d + 1)
        for j, re, im in zip(js.astype(int).tolist(), ints[::2], ints[1::2]):
            for m, K in enumerate(_half_angle(d, j)):
                Q[m] += K * (re, -im, -re, im)[(j * q + m) % 4]  # Re(c_j i^(jq + m))
        while Q[-1] == 0:
            Q.pop()
        if (ys := _roots01(bern := _bernstein(Q, lo, hi), 64)) is None:
            ys = _roots01(bern := _bernstein(_squarefree(Q), lo, hi), math.inf)
        out += [q * _HALF_PI + 2.0 * math.atan(lo + (hi - lo) * y) for y in ys + [1.0] * (bern[-1] == 0)]
    return out


def _bernstein(Q: list[int], lo: float, hi: float) -> list[int]:
    """A positive integer multiple of the Bernstein coefficients of
    Q(lo + (hi - lo) y) on y in [0, 1]: b_k = p_k / C(n, k), p_k the
    coefficients of (1 + y)^n Q(lo + (hi - lo) y / (1 + y))."""
    (u, du), (w, dw) = lo.as_integer_ratio(), hi.as_integer_ratio()
    D = max(du, dw)
    u, w = u * (D // du), w * (D // dw) - u * (D // du)
    p = _shift([x * D ** (len(Q) - 1 - m) for m, x in enumerate(Q)], u)
    p = _shift([x * w ** m for m, x in enumerate(p)][::-1])[::-1]
    L = math.lcm(*(math.comb(len(p) - 1, k) for k in range(len(p))))
    return [x * (L // math.comb(len(p) - 1, k)) for k, x in enumerate(p)]


@functools.lru_cache(maxsize=None)
def _half_angle(d: int, j: int) -> tuple[int, ...]:
    """K_m with (1 + ix)^(d+j) (1 - ix)^(d-j) = sum_m i^m K_m x^m."""
    return tuple(sum((-1) ** b * math.comb(d + j, m - b) * math.comb(d - j, b)
                     for b in range(max(0, m - d - j), min(m, d - j) + 1)) for m in range(2 * d + 1))


def _shift(p: list[int], a: int = 1) -> list[int]:
    """p(x + a), coefficients low degree first, by repeated synthetic division."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += a * p[j + 1]
    return p


def _squarefree(Q: list[int]) -> list[int]:
    """Q / gcd(Q, Q') in Z[x]: the gcd by primitive pseudo-remainders, then the
    quotient, which has integer coefficients since the gcd is primitive."""
    a, b, quotient = Q, [m * x for m, x in enumerate(Q)][1:], []
    while b:
        while len(a) >= len(b):
            a = [x * b[-1] - a[-1] * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)][:-1]
            while a and a[-1] == 0:
                a.pop()
        g = math.gcd(*a) or 1
        a, b = b, [x // g for x in a]
    g = math.gcd(*a)
    g = [x // g for x in a]
    while len(Q) >= len(g) > 1:
        quotient.append(Q[-1] // g[-1])
        Q = [x - quotient[-1] * y for x, y in zip(Q, [0] * (len(Q) - len(g)) + g)][:-1]
    return quotient[::-1] or Q


def _roots01(b: list[int], depth: float) -> list[float] | None:
    """The zeros in (0, 1) of the polynomial with Bernstein coefficients b, by
    Descartes bisection (Vincent-Collins-Akritas; Rouillier and Zimmermann,
    J. Comput. Appl. Math. 162 (2004) 33-50): the sign changes of b bound the
    zeros in (0, 1) and count them when they are 0 or 1; else de Casteljau
    splits b at 1/2 into both halves, 2^n-scaled to stay integers.  None once a
    split would go deeper than depth."""
    out, todo = [], [(b, 0, 0)]
    while todo:
        b, c, k = todo.pop()
        if min(b) >= 0 or max(b) <= 0:
            continue
        signs = [x > 0 for x in b if x]
        if sum(map(operator.ne, signs, signs[1:])) == 1:
            out.append(math.ldexp(c + _refine(b), -k))
            continue
        if k >= depth:
            return None
        n, s, left, right = len(b) - 1, b, [b[0] << (len(b) - 1)], [b[-1] << (len(b) - 1)]
        for m in range(n - 1, -1, -1):
            s = list(map(operator.add, s, s[1:]))
            left.append(s[0] << m)
            right.append(s[-1] << m)
        if s[0] == 0:  # a zero at the cut
            out.append(math.ldexp(2 * c + 1, -k - 1))
        todo += [(left, 2 * c, k + 1), (right[::-1], 2 * c + 1, k + 1)]
    return out


def _refine(b: list[int]) -> float:
    """The one zero in (0, 1) of the polynomial with Bernstein coefficients b:
    safeguarded steps to the nearer zero of the quadratic Taylor model (as in
    _polish; a close zero outside (0, 1) slows Newton down) from the secant
    point, on its monomial coefficients rounded to floats, give x, kept if the
    exact signs at x -+ 2^-49 differ; else exact bisection goes on from the
    signs seen, to 2^-52."""
    n, K = len(b) - 1, 52
    p = _shift([math.comb(n, k) * x for k, x in enumerate(b)][::-1], -1)[::-1]
    scale = 1 << max(0, max(abs(x).bit_length() for x in p) - 60)
    f, up, lo, hi = [x / scale for x in reversed(p)], next(x for x in b if x) > 0, 0.0, 1.0
    x = b[0] / (b[0] - b[-1]) if b[0] * b[-1] < 0 else 0.5
    for _ in range(100):
        v = d1 = d2 = 0.0
        for a in f:
            v, d1, d2 = v * x + a, d1 * x + v, d2 * x + d1
        if v == 0.0:
            break
        lo, hi = (x, hi) if (v > 0) == up else (lo, x)
        root = math.sqrt(max(d1 * d1 - 4.0 * v * d2, 0.0))
        nx = x - 2.0 * v / (d1 + math.copysign(root, d1)) if d1 or root else lo
        if abs(nx - x) <= 2 * _EPS or hi - lo <= 2 * _EPS:
            break
        x = nx if lo < nx < hi else 0.5 * (lo + hi)
    lo, hi, probes = 0, 1 << K, [round(x * (1 << K)) + 8, round(x * (1 << K)) - 8]
    while hi - lo > 16 or probes:
        c = probes.pop() if probes else (lo + hi) // 2
        if lo < c < hi:
            v = 0
            for m in range(n, -1, -1):  # 2^(K n) p(c / 2^K)
                v = v * c + (p[m] << (K * (n - m)))
            if v == 0:
                return c / (1 << K)
            lo, hi = (c, hi) if (v > 0) == up else (lo, c)
    return x if lo / (1 << K) < x < hi / (1 << K) else (lo + hi) / (1 << (K + 1))


def critical_points(F: OneDTrigPoly) -> MorseReport:
    """The Morse report of F alone: critical_points_many([F])[0]."""
    if (report := critical_points_many([F])[0]) is None:
        raise ConstantFunctionError("constant function")
    return report


def _groups(Fs):
    """(indices, js, rows) for each group of Fs with the same modes in the same
    order; rows[F, k] holds the coefficients c_j (ij)^k of F^(k), k = 0..3."""
    groups: dict[tuple, list[int]] = {}
    for at, F in enumerate(Fs):
        groups.setdefault(tuple(F.coeffs), []).append(at)
    for key, ats in groups.items():
        js, c = np.array(key, dtype=float), np.array([list(Fs[at].coeffs.values()) for at in ats], dtype=complex)
        yield ats, js, c[:, None, :] * (1j * js) ** np.arange(4.0)[:, None]


def critical_points_many(Fs) -> list[MorseReport | None]:
    """For each F, the Morse report of F, or None where F is constant
    (sum_j j |c_j| < 1e-300).

    One _zeros call per group of F with the same modes in the same order finds
    every zero of F', F'', F'' + F''', F'' - F''' and F''': the critical points
    are the zeros of F'; min(|F'| + |F''|) is taken at the zeros of the first
    four, where every kink and every stationary point of it lies, and max|F''|
    at the zeros of F'''.  The zeros of a row do not depend on the other rows,
    so F gets its report alone.
    """
    out: list[MorseReport | None] = [None] * len(Fs)
    live = [at for at, F in enumerate(Fs) if sum(j * abs(c) for j, c in F.coeffs.items()) >= 1e-300]
    for ats, js, rows in _groups([Fs[at] for at in live]):
        c2, c3 = rows[:, 2], rows[:, 3]
        of, t = _zeros(np.stack([rows[:, 1], c2, c2 + c3, c2 - c3, c3], axis=1).reshape(-1, len(js)), js)
        of, kind = np.divmod(of, 5)
        bounds = np.searchsorted(of, np.arange(len(ats) + 1))
        for p, (at, a, b) in enumerate(zip(ats, bounds, bounds[1:])):
            v, kp = _values(rows[p, :3], js, t[a:b]), kind[a:b]
            pts, vals = t[a:b][kp == 0], v[kp == 0, 0]
            gph = float(np.abs(v[kp <= 3, 1:]).sum(axis=1).min())
            gap = float(np.diff(np.sort(vals)).min(initial=math.inf))
            # max|F| is attained at a critical point
            value_scale = float(np.abs(vals).max(initial=0.0))
            out[live[at]] = MorseReport(pts, vals, min(gph, gap), gap, gph,
                                        bool(gap > 1e-9 * max(value_scale, 1e-300)),
                                        float(np.abs(v[kp == 4, 2]).max()))
    return out


def c2_distances_to_cosine(Fs, theta0s) -> list[float]:
    """For each F and theta0, max over k = 0..2 of sup_T |delta^(k)|, delta =
    F - cos(theta + theta0), each taken at the zeros of delta^(k+1): one
    _zeros call per group of deltas with the same modes in the same order."""
    deltas = [F.plus(OneDTrigPoly.from_cosine(-1.0, theta0)) for F, theta0 in zip(Fs, theta0s)]
    out = [0.0] * len(deltas)
    for ats, js, rows in _groups(deltas):
        if len(js):
            row, t = _zeros(rows[:, 1:].reshape(-1, len(js)), js)
            (of, k), sup = np.divmod(row, 3), np.zeros(len(ats))
            at_t = np.einsum("nj,nj->n", rows[of, k], np.exp(1j * np.multiply.outer(t, js)))
            np.maximum.at(sup, of, np.abs(2.0 * at_t.real))
            for at, x in zip(ats, sup.tolist()):
                out[at] = x
    return out


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
