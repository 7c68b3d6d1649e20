"""Morse analysis of 1-D lattice projections and cosine-likeness certificates.

A periodic F is beta-Morse when min(|F'| + |F''|) >= beta on the circle and
all critical-value gaps are >= beta; critical_points measures both at the
zeros of F' and its derivatives, which one primitive (_zeros) isolates with a
certificate: adaptive Taylor cells in floats, and exact integer arithmetic
where doubles cannot settle a cell, so a count is never a guess.  Every
float value it reads comes from fourier.trig_values, so the report of a
polynomial does not depend on the others censused with it.  For projections
pi_k f with a dominant +-k mode pair the oscillatory residual

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

from .fourier import ConfigError, Mode, OneDTrigPoly, TrigPoly, TWO_PI, l1, trig_values

COSINE_LIKE_THRESHOLD = 2.0 ** -40  # gamma below it: two critical points and beta >= |f_k|
_HALF_PI = 0.5 * math.pi
_EPS = float(np.finfo(float).eps)
_OFFSET = 0.0618033988749895 - math.pi  # where the cells of _zeros start: far from k pi / m
_LEVELS = 1                             # float levels of _zeros before the exact path, to degree 4
_MARGIN = 64 * _EPS                     # > the rounding of a cell's float midpoint and ends
_ORDERS = np.broadcast_to(np.arange(4.0)[:, None], (4, 1))  # read-only: the orders k of the rows c_j (ij)^k


@dataclass
class MorseReport:
    """Critical-point census of a 1-D projection.

    beta = min(min(|F'| + |F''|), smallest gap between critical values) is
    the certified-Morse constant of F; distinct_values says that gap exceeds
    1e-9 max|F|.  An even number of critical points with alternating
    maxima/minima is expected for analytic Morse functions.
    """

    critical_points: np.ndarray
    beta: float
    distinct_values: bool

    @property
    def count(self) -> int:
        return len(self.critical_points)


@dataclass
class CosineCertificate:
    """Certified closeness of pi_k f to eta*cos(theta + theta_k).

    gamma bounds the strip-1 majorant of F*, so |pi_k f - eta cos(.+theta_k)|_1
    <= eta*gamma; rescaling f leaves gamma unchanged.
    """

    eta: float
    gamma: float


def _polish(rows: np.ndarray, js: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
    """The zero of P_b = 2 Re sum_j c_j e^{ijt} in [lo_b, hi_b] (end values
    v_lo_b, v_hi_b of opposite signs), rows[b, k] holding the c_j (ij)^k of
    P_b^(k) for k = 0..2, by safeguarded Newton on all brackets at once from
    the secant point: a step solves the quadratic Taylor model (twice the
    Newton step if it has no real root), or bisects if it would leave the
    bracket or fails to halve the step before last (rtsafe, Numerical Recipes
    9.4).  Done at |P_b(t)| <= 4 eps sum_j |c_j| or a step below 1 ulp; from
    the third evaluation on the value row comes first, and when no live bracket
    is above the floor there, t is returned without the derivative rows.
    """
    t = lo + (hi - lo) * v_lo / (v_lo - v_hi)
    floor, ulp, neg = 4.0 * _EPS * np.abs(rows[:, 0]).sum(axis=1), math.ulp(TWO_PI), v_lo < 0
    adx = adx_old = hi - lo
    live, evals = np.ones(len(t), dtype=bool), 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            evals += 1
            if evals > 2 and not np.count_nonzero(live & (np.abs(trig_values(rows[:, 0], js, t)) > floor)):
                return t
            p, dp, d2p = trig_values(rows, js, t[:, None]).T
            step = (p2 := 2.0 * p) / (dp + np.copysign(np.sqrt(np.maximum(dp * dp - p2 * d2p, 0.0)), dp))
            size = np.abs(step)
            live &= (np.abs(p) > floor) & (size >= ulp)
            if not np.count_nonzero(live):
                return t
            lo_side = (p < 0) == neg
            lo, hi = np.where(lo_side, t, lo), np.where(lo_side, hi, t)
            t_new = t - step
            keep = (t_new >= lo) & (t_new <= hi) & (size + size <= adx_old)
            t_new = np.where(keep, t_new, 0.5 * (lo + hi))
            adx_old, adx = adx, np.abs(t_new - t)
            t = np.where(live, t_new, t)
            live &= adx >= ulp


def _zeros(C: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, t): every zero t in [0, 2 pi) of every P_row = 2 Re sum_j C[row, j] e^{ijt},
    by row and then t.  Each is certified, so the count of a row is exact, and
    no test reads another row, so neither are its zeros.

    The circle starts as max(32, 4 deg) cells at an irrational offset.  At a
    cell's float midpoint one trig_values call gives P, P', P''; at level 0
    every row sits on the same n cells, so the call takes each cell angle once
    for all rows, in the (C[:, None], t[:, None]) layout.  Each value carries
    the rounding bound e_k = 8 (d + 2) eps S_k + 32 eps S_{k+1}, S_k = 2 sum_j
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
    d, e = int(max(js.tolist())), -np.frexp(np.abs(C).max(axis=1))[1][:, None]
    C = np.ldexp(np.ascontiguousarray(C).view(float), e).view(complex)
    S = 2.0 * (np.abs(C)[:, None, :] * js ** _ORDERS).sum(axis=2).T
    K = np.concatenate((8 * (d + 2) * _EPS * S[:3] + 32 * _EPS * S[1:], S[3:], _MARGIN * S[1:2]))
    C3, n, last = C[:, None, :] * (1j * js) ** _ORDERS[:3], max(32, 4 * d), _LEVELS if d <= 4 else 40
    row, h = np.divmod(np.arange(1, 2 * len(C) * n, 2), 2 * n)  # cell i of a row at (2 i + 1) r
    found, exact = [], []
    for level in range(last + 1):
        r, R, W = _level(n, level)
        t = h * r + _OFFSET
        lim_free, lim_mono, lim_end = (W * K).sum(axis=1)[:, row]
        p, p1, p2 = V = (trig_values(C3[row], js, t[:, None]) if level else
                         trig_values(C3[:, None], js, t[:n, None]).reshape(-1, 3)).T
        (a0, a1, a2), q = np.abs(V), p + 0.5 * r * r * p2
        gap, mono = np.abs(q) - r * a1, a1 - R * a2 > lim_mono
        if len(one := (mono & (gap < -lim_end)).nonzero()[0]) or not found:  # cells with one zero
            t1, q1, rp1 = t[one], q[one], r * p1[one]
            found.append((row[one], t1 - r, t1 + r, q1 - rp1, q1 + rp1))
        live = ~((a0 - lim_free > R * (a1 + 0.5 * R * a2)) | mono & (np.abs(gap) > lim_end))
        row, h = row[live], h[live]
        # a row whose live cells outgrow 8 (d + 1), twice what its simple zeros can
        # hold, sits on a region doubles cannot resolve: it goes exact now
        if len(row) > 8 * (d + 1) and (over := np.bincount(row, minlength=len(C))[row] > 8 * (d + 1)).any():
            exact.append((row[over], h[over], n << level))
            row, h = row[~over], h[~over]
        if level == last or not len(row):
            break
        row, h = row.repeat(2), np.add.outer(h + h, (-1, 1)).ravel()  # cell i holds cells 2 i and 2 i + 1
    of, *bracket = map(np.concatenate, zip(*found))
    t, cells = _polish(C3[of], js, *bracket), {}
    for rows, hs, ncells in [*exact, (row, h, n << level)]:
        for at, i in zip(rows.tolist(), (hs >> 1).tolist()):
            cells.setdefault((at, ncells), []).append(i)
    if x := [(at, z) for (at, ncells), ids in cells.items() for z in _exact_zeros(C[at], js, ids, ncells)]:
        of, t = map(np.concatenate, zip((of, t), zip(*x)))
    t %= TWO_PI
    t[t == TWO_PI] = 0.0  # the image of a tiny negative zero
    order = np.lexsort((t, of))
    return of[order], t[order]


@functools.cache
def _level(n: int, level: int) -> tuple[float, float, np.ndarray]:
    """r = pi / (n 2^level), R = r + _MARGIN and the weights of K in lim_free, lim_mono and lim_end (read-only)."""
    r, R = math.pi / (n << level), math.pi / (n << level) + _MARGIN
    W = np.array([[1, R, R * R / 2, R ** 3 / 6, 0], [0, 1, R, R * R / 2, 0], [1, r, r * r / 2, r ** 3 / 6, 1]])
    return r, R, np.broadcast_to(W[:, :, None], (3, 5, 1))


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
    d, r, out = max(js := js.astype(int).tolist()), math.pi / n, []
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
    terms = [(j, _half_angle(d, j), (re, -im, -re, im)) for j, re, im in zip(js, ints[::2], ints[1::2])]
    for q, lo, hi in arcs:
        Q = [0] * (2 * d + 1)
        for j, Ks, parts in terms:
            for m, K in enumerate(Ks):
                Q[m] += K * parts[(j * q + m) % 4]  # Re(c_j i^(jq + m))
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
    D, n = max(du, dw), len(Q) - 1
    u, w = u * (D // du), w * (D // dw) - u * (D // du)
    p = [x * D ** (n - m) for m, x in enumerate(Q)]
    for i in range(n):  # p(x + u) by repeated synthetic division
        for j in range(n - 1, i - 1, -1):
            p[j] += u * p[j + 1]
    p = [x * w ** m for m, x in enumerate(p)]
    return [sum(map(operator.mul, row, p)) for row in _binomials(n)[0]]


@functools.cache
def _binomials(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer rows, low degree first, of monomial to L times Bernstein coefficients, L the lcm of the
    C(n, k) (row k: C(n - m, k - m) L / C(n, k)), and back (row m: (-1)^(m - k) C(n, k) C(n - k, m - k))."""
    L = math.lcm(*(c := [math.comb(n, k) for k in range(n + 1)]))
    return (tuple(tuple(math.comb(n - m, k - m) * (L // c[k]) for m in range(k + 1)) for k in range(n + 1)),
            tuple(tuple((-1) ** (m - k) * c[k] * math.comb(n - k, m - k) for k in range(m + 1)) for m in range(n + 1)))


@functools.cache
def _half_angle(d: int, j: int) -> tuple[int, ...]:
    """K_m with (1 + ix)^(d+j) (1 - ix)^(d-j) = sum_m i^m K_m x^m."""
    return tuple(sum((-1) ** b * math.comb(d + j, m - b) * math.comb(d - j, b)
                     for b in range(max(0, m - d - j), min(m, d - j) + 1)) for m in range(2 * d + 1))


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
    p = [sum(map(operator.mul, row, b)) for row in _binomials(n)[1]]
    scale = 1 << max(0, max(map(int.bit_length, map(abs, p))) - 60)
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
        raise ConfigError("constant function")
    return report


def _groups(Fs):
    """(indices, js, rows) for each group of Fs with the same modes in the same
    order; rows[F, k] holds the coefficients c_j (ij)^k of F^(k), k = 0..3."""
    groups: dict[tuple, list[int]] = {}
    for at, F in enumerate(Fs):
        groups.setdefault(tuple(F.coeffs), []).append(at)
    for key, ats in groups.items():
        js, c = np.array(key, dtype=float), np.array([list(Fs[at].coeffs.values()) for at in ats], dtype=complex)
        yield ats, js, c[:, None, :] * (1j * js) ** _ORDERS


def critical_points_many(Fs) -> list[MorseReport | None]:
    """For each F, the Morse report of F, or None where F is constant
    (sum_j j |c_j| < 1e-300).

    One _zeros call per group of F with the same modes in the same order finds
    every zero of F', F'', F'' + F''' and F'' - F''': the critical points are
    the zeros of F', and min(|F'| + |F''|) is taken at the zeros of all four,
    where every kink and every stationary point of it lies.  The zeros of a
    row do not depend on the other rows, and one trig_values call takes each
    F at its own zeros alone, so F gets its report alone; the minima, gaps and
    max|F| of a group are then segment reductions.
    """
    out: list[MorseReport | None] = [None] * len(Fs)
    live = [at for at, F in enumerate(Fs) if sum(j * abs(c) for j, c in F.coeffs.items()) >= 1e-300]
    for ats, js, rows in _groups([Fs[at] for at in live]):
        c2, c3 = rows[:, 2:3], rows[:, 3:]
        of, t = _zeros(np.concatenate((rows[:, 1:3], c2 + c3, c2 - c3), axis=1).reshape(-1, len(js)), js)
        of, kind = np.divmod(of, 4)
        v = trig_values(rows[of, :3], js, t[:, None])
        gph = np.minimum.reduceat(np.abs(v[:, 1]) + np.abs(v[:, 2]), np.searchsorted(of, np.arange(len(ats))))
        crit = kind == 0
        of, pts, vals = of[crit], t[crit], v[crit, 0]
        cuts = np.searchsorted(of, np.arange(len(ats) + 1))
        # of is sorted, so the sorted values of each F follow on one another;
        # the last value of an F has no step to a next one within F.  Every F
        # has a maximum and a minimum, so no segment of reduceat is empty
        srt = vals[np.lexsort((vals, of))]
        step = np.empty_like(srt)
        step[:-1] = srt[1:] - srt[:-1]
        step[cuts[1:] - 1] = math.inf
        gap = np.minimum.reduceat(step, cuts[:-1])
        value_scale = np.maximum.reduceat(np.abs(vals), cuts[:-1])  # max|F| is attained at a critical point
        distinct = gap > 1e-9 * np.maximum(value_scale, 1e-300)
        cuts = cuts.tolist()
        for at, a, b, beta, ok in zip(ats, cuts, cuts[1:], np.minimum(gph, gap).tolist(), distinct.tolist()):
            out[live[at]] = MorseReport(pts[a:b], beta, ok)
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
            np.maximum.at(sup, of, np.abs(trig_values(rows[of, k], js, t)))
            for at, x in zip(ats, sup.tolist()):
                out[at] = x
    return out


def cosine_certificate(f: TrigPoly, k: Mode) -> CosineCertificate:
    """Certify pi_k f ~ 2|f_k| cos(theta + theta_k) via the residual majorant.

    eta = 2|f_k| and e^{i theta_k} = f_k/|f_k|; the certificate level gamma
    is the strip-1 ell^1 majorant sum_{|j|>=2} |f_{jk}| e^{|j|} of eta*F*
    over eta, invariant under rescaling of f.  Its tail beyond j_max is zero:
    a finite f has no mode there, and the lacunary rule, the only rule, has
    f_{jk} = 0 for |j| >= 2, since gcd(jk) = |j|.
    """
    k = tuple(int(v) for v in k)
    fk = f.coeff(k)
    if fk == 0:
        raise ConfigError("vanishing leading mode")
    eta = 2.0 * abs(fk)

    # query the ray multiples directly: coeff() consults the rule beyond the
    # materialized support, so the sum is complete up to j_max
    cutoff = f.rule_cutoff if f.rule_cutoff is not None else f.max_order()
    j_max = max(1, int(cutoff // max(l1(k), 1)) + 1)
    residual = 0.0
    for j in range(2, j_max + 1):
        c = f.coeff(tuple(j * v for v in k))
        if c != 0:
            residual += 2.0 * abs(c) * math.exp(j)
    return CosineCertificate(eta=eta, gamma=residual / eta)
