"""Finite-order Lie-series averaging for natural Hamiltonians 0.5|y|^2 + eps f(x).

The Hamiltonian is carried as a formal power series in eps,

    H = h + sum_{j>=1} eps^j H_j(y, x),    h = 0.5|y|^2,

each H_j a Taylor (in y, around a base point, bounded degree) x Fourier
(in x, bounded |k|_1) polynomial.  One averaging step at order j solves the
homological equation {h, chi_j} = -B_j for the band part B_j of H_j (modes
0 < |k|_1 <= K0 in the nonresonant case; modes off the resonance line Z k up
to the outer cutoff in the simply-resonant case) and pushes the Hamiltonian
through exp(L_{chi_j}).  Because L_{chi_j} raises the eps-grade by j, the
transform is exact within the truncated algebra: the killed coefficients
cancel as c + (-c), so the band support of the remainder is empty exactly,
not to a tolerance.  Degree/cutoff overflow is accumulated in a dropped-mass
ledger; the homological identity's own floating-point residue is at rounding
level and shows up only in the conjugacy defect.

Small divisors y0.k are logged for every killed mode and checked against the
covering thresholds (alpha/2, respectively 2 alpha K/|k|); a divisor below
threshold raises with the witness mode.  Both kinds run one step loop,
`_average`; a mode l is on Z k when `fourier.on_ray(l, k)` is its multiple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .cover import CoveringParams
from .fourier import Mode, OneDTrigPoly, TrigPoly, l1, on_ray

Mono = tuple[int, ...]


class SmallDivisorError(RuntimeError):
    """A divisor |y0.k| fell below the admissible threshold."""

    def __init__(self, message: str, mode: Mode, value: float):
        super().__init__(message)
        self.mode = mode
        self.value = value


class GeneratorFlowError(RuntimeError):
    """The numerical time-1 flow of a Lie generator did not complete."""


@dataclass
class TruncationLedger:
    """Accumulated absolute mass of coefficients dropped by truncation.

    Mass is recorded per eps-grade where the producer knows it (grade 0 is
    used otherwise).
    """

    by_grade: dict[int, float] = field(default_factory=dict)
    grade: int = 0

    @property
    def dropped(self) -> float:
        return sum(self.by_grade.values())

    def drop(self, amount: float, grade: int | None = None) -> None:
        g = self.grade if grade is None else grade
        self.by_grade[g] = self.by_grade.get(g, 0.0) + abs(amount)


# term pairs per block of the bracket's outer product
_BLOCK_PAIRS = 4096


class _Slots(NamedTuple):
    """The admissible keys (k, m) of an algebra, |k|_1 <= cutoff and |m| <=
    max_degree, one compact slot each: mode rank x len(monos) + monomial rank.
    A mode is ranked by a lookup over its packed digits (k_i + cutoff, radix
    2 cutoff + 1), a monomial over its digits (m_i, radix max_degree + 1)."""

    cutoff: int
    modes: np.ndarray      # (n_modes, n), in packed order
    monos: np.ndarray      # (n_monos, n), in packed order
    w_k: np.ndarray        # digit weights of a packed mode
    w_m: np.ndarray        # digit weights of a packed monomial
    mode_base: np.ndarray  # packed mode -> its rank x n_monos (negative off the algebra)
    mono_rank: np.ndarray  # packed monomial -> its rank (-1 off the algebra)

    def of(self, K: np.ndarray, M: np.ndarray) -> np.ndarray:
        """The slots of the admissible rows (K, M)."""
        return self.mode_base[(K + self.cutoff) @ self.w_k] + self.mono_rank[M @ self.w_m]


@cache
def _slots(n: int, cutoff: int, max_degree: int) -> _Slots:
    def ranked(radix: int, shift: int, bound: int):
        """(rows with l1 norm <= bound, digit weights, packed -> rank) over the
        digit box of the given radix, digits shifted down by shift."""
        box = np.indices((radix,) * n).reshape(n, -1).T - shift
        keep = np.abs(box).sum(axis=1) <= bound
        rank = np.full(len(box), -1)
        rank[keep] = np.arange(keep.sum())
        return box[keep], radix ** np.arange(n)[::-1], rank

    modes, w_k, mode_rank = ranked(2 * cutoff + 1, cutoff, cutoff)
    monos, w_m, mono_rank = ranked(max_degree + 1, 0, max_degree)
    return _Slots(cutoff, modes, monos, w_k, w_m, mode_rank * len(monos), mono_rank)


def _fold(table: _Slots, slot: np.ndarray, re: np.ndarray, im: np.ndarray) -> tuple:
    """(K, M, C) of the contributions re + i im at `slot`, taken in order:
    equal slots summed from 0.0 in that order, keys listed in order of first
    contribution, exact zeros dropped.  Sort-free: np.minimum.at gives each
    slot its first position, and np.bincount sums over those positions, so
    only the slots in use are touched and no array grows with the algebra."""
    at = np.arange(len(slot))
    first = np.empty(len(table.modes) * len(table.monos), dtype=np.int64)
    first[slot] = len(slot)
    np.minimum.at(first, slot, at)
    label = first[slot]
    pos = np.flatnonzero(label == at)
    re, im = np.bincount(label, re, len(slot))[pos], np.bincount(label, im, len(slot))[pos]
    live = (re != 0) | (im != 0)
    s = slot[pos[live]]
    C = np.empty(len(s), dtype=complex)
    C.real, C.imag = re[live], im[live]
    return table.modes[s // len(table.monos)], table.monos[s % len(table.monos)], C


@dataclass(eq=False)
class TaylorFourierSeries:
    """sum_t C_t (y - y0)^M_t e^{i K_t.x} with |K_t|_1 <= cutoff, |M_t| <= max_degree.

    Reality corresponds to c_{-k,m} = conj(c_{k,m}); all algebra preserves it.
    Rows of int64 K (T, n), int64 M (T, n) and complex C (T,) are the only
    storage: keys (k, m) unique, no coefficient zero, rows in order of first
    appearance.  The arrays are read-only and shared between series, and no
    method changes a series once built: every operation returns a new one.
    The evaluator's tables and `terms`, a read-only {(k, m): c} view, are
    built from the rows on first use.
    """

    n: int
    base_point: np.ndarray
    max_degree: int
    cutoff: int

    def __post_init__(self):
        empty = np.empty((0, self.n), dtype=np.int64)
        self._store(empty, empty, np.empty(0, dtype=complex))

    def _store(self, K: np.ndarray, M: np.ndarray, C: np.ndarray) -> "TaylorFourierSeries":
        """Hold the rows (K, M, C), read-only; drops what was built from the old rows."""
        for rows in (K, M, C):
            rows.setflags(write=False)
        self.K, self.M, self.C = K, M, C
        self._grad_tables = self._terms = None
        return self

    def _with(self, K: np.ndarray, M: np.ndarray, C: np.ndarray) -> "TaylorFourierSeries":
        """A series of this algebra holding (K, M, C), made without __init__'s empty rows."""
        out = object.__new__(TaylorFourierSeries)
        out.__dict__.update(self.__dict__)
        return out._store(K, M, C)

    def like(self) -> "TaylorFourierSeries":
        return TaylorFourierSeries(self.n, self.base_point, self.max_degree, self.cutoff)

    @property
    def terms(self) -> Mapping[tuple[Mode, Mono], complex]:
        if self._terms is None:
            self._terms = MappingProxyType(dict(zip(
                zip(map(tuple, self.K.tolist()), map(tuple, self.M.tolist())), self.C.tolist())))
        return self._terms

    @property
    def is_empty(self) -> bool:
        return not len(self.C)

    def _merged(self, *parts: tuple) -> tuple:
        """The one merge of the algebra: the rows (K, M, C) of parts, within
        this truncation, one part after another; equal keys summed from 0.0 in
        row order and listed in order of first appearance, exact zeros dropped."""
        K, M, C = (np.concatenate(rows) for rows in zip(*parts))
        table = _slots(self.n, self.cutoff, self.max_degree)
        return _fold(table, table.of(K, M), C.real, C.imag)

    def _sum(self, parts: list["TaylorFourierSeries"]) -> "TaylorFourierSeries":
        """The merge of parts' rows (self among them); one nonempty part sums to C + 0.0."""
        parts = [p for p in parts if not p.is_empty] or [self]
        if len(parts) == 1:
            return self._with(parts[0].K, parts[0].M, parts[0].C + 0.0)
        return self._with(*self._merged(*((p.K, p.M, p.C) for p in parts)))

    def _rows(self, rows, ledger: TruncationLedger | None = None) -> tuple:
        """(K, M, C) of the nonzero terms (k, m, c) within this truncation, each c
        summed from 0.0; the nonzero ones beyond it go to the ledger one by one."""
        kept = []
        for k, m, c in rows:
            if c != 0 and l1(k) <= self.cutoff and sum(m) <= self.max_degree:
                kept.append((k, m, c))
            elif c != 0 and ledger is not None:
                ledger.drop(abs(c))
        K = np.array([k for k, _, _ in kept], dtype=np.int64).reshape(len(kept), self.n)
        M = np.array([m for _, m, _ in kept], dtype=np.int64).reshape(len(kept), self.n)
        return K, M, np.array([c for _, _, c in kept], dtype=complex) + 0.0

    def plus(self, other: "TaylorFourierSeries") -> "TaylorFourierSeries":
        """self + other, other within this truncation (none of its terms is dropped)."""
        assert other.cutoff <= self.cutoff and other.max_degree <= self.max_degree
        return self._sum([self, other])

    def scaled(self, a: complex) -> "TaylorFourierSeries":
        """a times every coefficient, each product formed as Python's
        complex product forms it (so bitwise the scalar one)."""
        if a == 0:
            return self.like()
        a = complex(a)
        C = np.empty(len(self.C), dtype=complex)
        C.real = a.real * self.C.real - a.imag * self.C.imag
        C.imag = a.real * self.C.imag + a.imag * self.C.real
        return self._with(self.K, self.M, C)

    def split(self, predicate) -> tuple["TaylorFourierSeries", "TaylorFourierSeries"]:
        """(terms with predicate(k) true, the rest); predicate is asked once per mode."""
        sel = np.array(list(map(cache(predicate), map(tuple, self.K.tolist()))), dtype=bool)
        return (self._with(self.K[sel], self.M[sel], self.C[sel]),
                self._with(self.K[~sel], self.M[~sel], self.C[~sel]))

    def poisson(self, other: "TaylorFourierSeries", ledger: TruncationLedger | None = None
                ) -> "TaylorFourierSeries":
        """{F, G} = F_x . G_y - F_y . G_x, truncated to (cutoff, max_degree).

        The pair (k1, m1, c1) x (k2, m2, c2) contributes, for every coordinate
        j, i (k1_j m2_j - k2_j m1_j) c1 c2 at mode k1 + k2 and monomial
        m1 + m2 - e_j.  The outer product is formed block by block over the
        rows of self, and each kept contribution gets the slot of its (k, m)
        in the algebra (`_slots`).  `_fold` sums the contributions of all
        blocks at once, each key in term-pair order from 0.0, and lists the
        keys in order of first contribution, so the result does not depend on
        the block size.  Contributions beyond (cutoff, max_degree) go to the
        ledger as one drop.
        """
        if self.is_empty or other.is_empty:
            return self.like()
        n, cut, deg = self.n, self.cutoff, self.max_degree
        K1, M1, C1 = self.K, self.M, self.C
        K2, M2, C2 = other.K, other.M, other.C
        table = _slots(n, cut, deg)
        n2 = len(C2)
        rows = max(1, _BLOCK_PAIRS // n2)
        # blocks are laid out (coordinate, row of self, term of other), so every
        # elementwise loop runs contiguously over other's terms
        K1t, M1t = np.ascontiguousarray(K1.T), np.ascontiguousarray(M1.T)
        K2t, M2t = np.ascontiguousarray(K2.T)[:, None, :], np.ascontiguousarray(M2.T)[:, None, :]
        c1r, c1i, c2r, c2i = C1.real.copy(), C1.imag.copy(), C2.real.copy(), C2.imag.copy()

        def block(a0: int):
            """(slots, real and imaginary parts) of the kept contributions of
            rows a0.. of self, in term-pair order, and the mass of the dropped ones."""
            k1, m1 = K1t[:, a0:a0 + rows, None], M1t[:, a0:a0 + rows, None]
            ar, ai = c1r[a0:a0 + rows, None], c1i[a0:a0 + rows, None]
            ksum, msum = k1 + K2t, m1 + M2t
            d = k1 * M2t - K2t * m1
            # c1 c2 (i d) = (br + i bi)(i d) = -bi d + i br d, with br + i bi
            # formed as Python's complex product forms it; Python's product
            # with i d differs only in the sign of zero parts, which neither a
            # sum from +0.0 nor hypot can see
            br, bi = ar * c2r - ai * c2i, ar * c2i + ai * c2r
            live = (d != 0) & ((br != 0) | (bi != 0))
            fits = (np.abs(ksum).sum(axis=0) <= cut) & (msum.sum(axis=0) <= deg + 1)
            # dropped contributions, their mass summed in (coordinate, row, term) order
            at = np.flatnonzero(live & ~fits)
            pair, d_lost = at % fits.size, d.ravel()[at].astype(float)
            lost = float(np.hypot(bi.ravel()[pair] * d_lost, br.ravel()[pair] * d_lost).sum())
            # kept contributions in term-pair order: flat (row, term, coordinate)
            pair, j = np.divmod(np.flatnonzero((live & fits).transpose(1, 2, 0)), n)
            d_kept = d.reshape(n, -1)[j, pair].astype(float)
            # read at kept pairs only, whose digits are in range; d_j != 0 needs
            # m1_j or m2_j >= 1, so msum - e_j is a monomial
            mode = table.w_k @ (ksum + cut).reshape(n, -1)
            mono = table.w_m @ msum.reshape(n, -1)
            slot = table.mode_base[mode[pair]] + table.mono_rank[mono[pair] - table.w_m[j]]
            return slot, -(bi.ravel()[pair] * d_kept), br.ravel()[pair] * d_kept, lost

        blocks = [block(a0) for a0 in range(0, len(C1), rows)]
        dropped = sum(b[3] for b in blocks)
        if ledger is not None and dropped:
            ledger.drop(dropped)
        return self._with(*_fold(table, *(np.concatenate([b[i] for b in blocks]) for i in range(3))))

    # -- evaluation ---------------------------------------------------------

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Kt, S, R), built from (K, M, C) on first use.  Kt (n, T) holds the
        float modes.

        Row j of S and R gives one sum over terms t: its real part is dF/dy_j
        for j < n and the value for j = n, its imaginary part -dF/dx_i for
        j = n + 1 + i.  S (n, 2n+1, T) indexes the flat power table of one
        point, w_i^e at i (D+2) + e (D = max_degree) with a zero at e = D+1:
        S[i, j, t] reads exponent M[t, i] - [i == j], and -1 wraps to the zero
        column.  Coordinates lead, so their product runs on contiguous rows.
        R (2n+1, T) holds the rows M[t, j] c_t, then c_t, then K[t, i] c_t.
        """
        if self._grad_tables is None:
            K, M, C = self.K, self.M, self.C
            n, width = self.n, self.max_degree + 2
            shifted = M.T[:, None, :] - np.eye(n, 2 * n + 1, dtype=np.int64)[:, :, None]
            S = shifted % width + width * np.arange(n)[:, None, None]
            R = np.vstack([M.T * C, C, K.T * C])
            self._grad_tables = (K.T.astype(float), S, R)
        return self._grad_tables

    def _sums(self, y, x, rows: slice) -> np.ndarray:
        """sum_t R_jt w^(S_jt) e^(i k_t.x) for the given rows j at P points,
        shape (P, rows); y and x are (n,) or (P, n)."""
        Kt, S, R = self._tables()
        n = self.n
        w = np.asarray(y, dtype=float).reshape(-1, n) - self.base_point
        table = np.zeros((len(w), n, self.max_degree + 2))
        np.power(w[:, :, None], np.arange(self.max_degree + 1), out=table[:, :, :-1])
        mono = table.reshape(len(w), -1).take(S[:, rows], axis=1).prod(axis=1)
        # k.x for every term, (P, 1, T), as one vector-matrix product per point:
        # a (P, n) x (n, T) matrix product would page in BLAS GEMM buffers
        phase = np.exp(1j * np.matmul(np.asarray(x, dtype=float).reshape(-1, 1, n), Kt))
        return (R[rows] * mono * phase).sum(axis=2)

    def evaluate(self, y, x):
        """The complex sum at real (y, x) of shape (n,) or (P, n): a
        complex, or an array of P."""
        return self._sums(y, x, slice(self.n, self.n + 1)).reshape(np.shape(y)[:-1])[()]

    def eval_grads(self, y, x) -> tuple[float, np.ndarray, np.ndarray]:
        """(value, dF/dy, dF/dx), real parts, at real (y, x) of shape (n,)
        (a float and two (n,) arrays) or (P, n) (arrays (P,), (P, n), (P, n)).

        Per point: one power table, one gather-and-product for the monomials
        and every d/dy_j monomial (lowered exponents, so w_j = 0 needs no
        special case), one exp for the phases and one sum over terms.
        """
        n, lead = self.n, np.shape(y)[:-1]
        sums = self._sums(y, x, slice(None))
        return (sums[:, n].real.reshape(lead)[()], sums[:, :n].real.reshape(lead + (n,)),
                -sums[:, n + 1:].imag.reshape(lead + (n,)))

    def majorant(self, r: float, s_width: float) -> float:
        """sum |c| r^{|m|} e^{|k|_1 s_width}: bounds the sup over the
        polydisk |y_i - y0_i| <= r times the x-strip of width s_width."""
        return float(sum(
            abs(c) * r ** sum(m) * math.exp(l1(k) * s_width)
            for (k, m), c in self.terms.items()
        ))

    def ray_terms(self, k_res: Mode) -> list[tuple[int, Mono, complex]]:
        """Terms as (j, m, c) with mode = j * k_res (requires all modes on Z k_res)."""
        out = []
        for (k, m), c in self.terms.items():
            j = on_ray(k, k_res) if any(k) else 0
            if j is None:
                raise ValueError(f"mode {k} is not on the ray of {k_res}")
            out.append((j, m, c))
        return out

    def to_entries(self) -> list[dict]:
        return [
            {"k": list(k), "m": list(m), "re": float(c.real), "im": float(c.imag)}
            for (k, m), c in sorted(self.terms.items())
        ]


def kinetic_series(n: int, y0, max_degree: int, cutoff: int) -> TaylorFourierSeries:
    """0.5|y|^2 expanded exactly around y0 (degree 2)."""
    if max_degree < 2:
        raise ValueError("kinetic part needs max_degree >= 2")
    y0 = np.asarray(y0, dtype=float)
    n_ = len(y0)
    zero, e = (0,) * n_, np.eye(n_, dtype=int).tolist()
    rows = [(zero, zero, 0.5 * float(np.dot(y0, y0)))]
    for j in range(n_):
        rows += [(zero, e[j], float(y0[j])), (zero, [2 * v for v in e[j]], 0.5)]
    h = TaylorFourierSeries(n_, y0, max_degree, cutoff)
    return h._store(*h._rows(rows))


def _mode_pairs(n: int, coeffs) -> list[tuple[Mode, Mono, complex]]:
    """The y-independent terms (k, 0, c) and (-k, 0, conj c) of each (k, c)."""
    zero_m = (0,) * n
    return [row for k, c in coeffs
            for row in ((k, zero_m, c), (tuple(-v for v in k), zero_m, complex(np.conj(c))))]


def potential_series(
    f: TrigPoly, y0, max_degree: int, cutoff: int, ledger: TruncationLedger
) -> TaylorFourierSeries:
    """eps-grade-1 term: f as a y-independent series (both halves of its canonical modes)."""
    out = TaylorFourierSeries(f.n, np.asarray(y0, dtype=float), max_degree, cutoff)
    return out._store(*out._rows(_mode_pairs(f.n, f.coeffs.items()), ledger))


def ray_series(like: TaylorFourierSeries, p: OneDTrigPoly, k: Mode) -> TaylorFourierSeries:
    """p(k.x) = sum_j c_j e^{i j k.x} + conj, y-independent, in like's algebra (terms
    beyond it are left out): the Z k series of pi_k f for p = project_lattice(f, k).
    p stores only j >= 1, so every key is new."""
    return like._with(*like._rows(
        _mode_pairs(like.n, ((tuple(j * v for v in k), c) for j, c in p.coeffs.items()))))


@dataclass(frozen=True)
class NaturalHam:
    """H(y, x) = 0.5|y|^2 + eps f(x)."""

    n: int
    epsilon: float
    f: TrigPoly

    def value(self, y, x) -> float:
        y = np.asarray(y, dtype=float)
        return 0.5 * float(np.dot(y, y)) + self.epsilon * self.f.evaluate(x).real


def solve_homological(
    B: TaylorFourierSeries, y0, min_divisor: float, context: str
) -> tuple[TaylorFourierSeries, list[tuple[Mode, float]], float]:
    """chi with {h, chi} = -B within the truncated degrees.

    Solved mode by mode and degree by degree:
        i (y0.k) chi_{k,m} + i sum_j k_j chi_{k,m-e_j} = B_{k,m}.
    Returns (chi, divisor log, dropped overflow majorant); raises
    SmallDivisorError when |y0.k| <= min_divisor for a killed mode.
    """
    y0 = np.asarray(y0, dtype=float)
    n = B.n
    rows: list[tuple[Mode, Mono, complex]] = []
    log: list[tuple[Mode, float]] = []
    by_mode: dict[Mode, dict[Mono, complex]] = {}
    for (k, m), c in B.terms.items():
        by_mode.setdefault(k, {})[m] = c
    overflow = 0.0
    for k, monos in by_mode.items():
        div = float(np.dot(y0, k))
        if abs(div) <= min_divisor:
            raise SmallDivisorError(
                f"{context}: divisor |y0.k| = {abs(div):.3e} <= {min_divisor:.3e} "
                f"at mode {k}",
                mode=k,
                value=abs(div),
            )
        log.append((k, abs(div)))
        steps = [j for j in range(n) if k[j] != 0]
        solved: dict[Mono, complex] = {}
        level: list[Mono] = []
        for deg in range(B.max_degree + 1):
            # candidate monomials at this degree: direct B entries plus those
            # fed by the (w.k) recursion from the level solved just below
            level = sorted({m for m in monos if sum(m) == deg}.union(
                m[:j] + (m[j] + 1,) + m[j + 1:] for m in level for j in steps))
            for m in level:
                acc = complex(monos.get(m, 0.0))
                for j in steps:
                    if m[j] == 0:
                        continue
                    prev = solved.get(m[:j] + (m[j] - 1,) + m[j + 1:])
                    if prev is not None:
                        acc -= 1j * k[j] * prev
                solved[m] = acc / (1j * div)
        # each (k, m) is new and in range; 0.0 + c is the merge's sum (-0.0 -> +0.0)
        rows.extend((k, m, 0.0 + c) for m, c in solved.items() if c != 0)
        for m in level:
            overflow += l1(k) * abs(solved[m])
    K = np.array([k for k, _, _ in rows], dtype=np.int64).reshape(len(rows), n)
    M = np.array([m for _, m, _ in rows], dtype=np.int64).reshape(len(rows), n)
    return B._with(K, M, np.array([c for _, _, c in rows], dtype=complex)), log, overflow


def lie_transform(
    grades: list[TaylorFourierSeries],
    chi: TaylorFourierSeries,
    j: int,
    B: TaylorFourierSeries,
    ledger: TruncationLedger,
) -> list[TaylorFourierSeries]:
    """exp(L_chi) applied to the graded Hamiltonian, chi at eps-grade j.

    The chain from grade g0 adds {...{grades[g0], chi}..., chi}/i! to grade
    g0 + i j while that is retained; the kinetic chain's first term is
    {h, chi} = -B exactly (the homological identity), so the band part of
    grade j cancels coefficientwise.  Each grade is merged once per step.
    """
    D = len(grades) - 1
    parts = [[g] for g in grades]
    for g0, term in enumerate(grades):
        i = 0
        while not term.is_empty and g0 + (i + 1) * j <= D:
            i += 1
            ledger.grade = g0 + i * j
            term = (B.scaled(-1.0) if g0 == 0 and i == 1
                    else term.poisson(chi, ledger).scaled(1.0 / i))
            parts[g0 + i * j].append(term)
    ledger.grade = 0
    return [p[0] if len(p) == 1 else p[0]._sum(p) for p in parts]


@dataclass
class AveragedNF:
    """Output of the averaging steps.

    g_o[j]    y-only part of the eps^j term,
    g_res[j]  part supported on the resonance line Z k (resonant kind only),
    f_rem[j]  remaining oscillatory part: support excludes the killed band
              exactly (nonresonant: no modes 0 < |k|_1 <= K0; resonant:
              no modes on Z k).
    order counts homological steps = retained eps-grades; chi holds the
    generating series per step for building the conjugating flow.
    """

    kind: str
    n: int
    epsilon: float
    order: int
    base_point: np.ndarray
    kinetic: TaylorFourierSeries
    g_o: list[TaylorFourierSeries]
    f_rem: list[TaylorFourierSeries]
    chi: list[tuple[int, TaylorFourierSeries]]
    divisor_log: list[tuple[Mode, float]]
    dropped_mass: float
    K0: int
    K: int
    max_degree: int
    res_k: Mode | None = None
    g_res: list[TaylorFourierSeries] | None = None
    dropped_by_grade: dict[int, float] = field(default_factory=dict)

    def nf_value(self, y, x) -> float:
        total = complex(self.kinetic.evaluate(y, x))
        for j in range(1, self.order + 1):
            term = self.g_o[j].evaluate(y, x) + self.f_rem[j].evaluate(y, x)
            if self.g_res is not None:
                term += self.g_res[j].evaluate(y, x)
            total += self.epsilon ** j * term
        return float(total.real)

    def band_coefficient_maxima(self) -> float:
        """max |coefficient| of f_rem over the killed band (exact-zero check)."""
        if self.kind == "nonresonant":
            killed = lambda k: 0 < l1(k) <= self.K0
        else:
            killed = lambda k: on_ray(k, self.res_k) is not None
        return max([0.0] + [float(np.abs(t.split(killed)[0].C).max(initial=0.0))
                            for t in self.f_rem[1:self.order + 1]])

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "n": self.n,
            "epsilon": self.epsilon,
            "order": self.order,
            "base_point": self.base_point.tolist(),
            "K0": self.K0,
            "K": self.K,
            "max_degree": self.max_degree,
            "dropped_mass": self.dropped_mass,
            "dropped_by_grade": {str(g): m for g, m in sorted(self.dropped_by_grade.items())},
            "dropped_eps_weighted": float(sum(
                self.epsilon ** g * m for g, m in self.dropped_by_grade.items()
            )),
            "divisor_log": [
                {"k": list(k), "divisor": v} for k, v in self.divisor_log
            ],
            "grades": [
                {
                    "eps_power": j,
                    "g_o": self.g_o[j].to_entries(),
                    "f_rem": self.f_rem[j].to_entries(),
                    **(
                        {"g_res": self.g_res[j].to_entries()}
                        if self.g_res is not None
                        else {}
                    ),
                }
                for j in range(1, self.order + 1)
            ],
        }
        if self.res_k is not None:
            doc["res_k"] = list(self.res_k)
        return doc


def _average(ham: NaturalHam, params: CoveringParams, y0, order: int, max_degree: int,
             k: Mode | None) -> AveragedNF:
    """The averaging steps of both kinds: nonresonant for k None, else resonant
    along k.  The kind sets the killed band, the divisor threshold and the
    error context; the resonant kind keeps the part on Z k as g_res."""
    y0 = np.asarray(y0, dtype=float)
    if k is None:
        band_pred = lambda kk: 0 < l1(kk) <= params.K0
        min_divisor, context = params.alpha / 2.0, "resonant at base point"
    else:
        k = tuple(int(v) for v in k)
        band_pred = lambda kk: any(kk) and on_ray(kk, k) is None
        min_divisor = 2.0 * params.alpha * params.K / math.sqrt(sum(v * v for v in k))
        context = f"small divisor off the line Z{k}"
    ledger = TruncationLedger()
    ledger.grade = 1
    grades = [kinetic_series(ham.n, y0, max_degree, params.K)]
    grades.append(potential_series(ham.f, y0, max_degree, params.K, ledger))
    ledger.grade = 0
    for _ in range(2, order + 1):
        grades.append(grades[0].like())
    chis = []
    log: list[tuple[Mode, float]] = []
    for j in range(1, order + 1):
        band, _rest = grades[j].split(band_pred)
        if band.is_empty:
            continue
        chi, divisors, overflow = solve_homological(band, y0, min_divisor, context)
        ledger.drop(overflow, grade=j)
        log.extend(divisors)
        grades = lie_transform(grades, chi, j, band, ledger)
        chis.append((j, chi))
    g_o, g_res, f_rem = [grades[0].like()], [grades[0].like()], [grades[0].like()]
    for j in range(1, order + 1):
        osc, zero = grades[j].split(any)
        g_o.append(zero)
        if k is not None:
            line, osc = osc.split(lambda kk: on_ray(kk, k) is not None)
            g_res.append(line)
        f_rem.append(osc)
    return AveragedNF(
        kind="nonresonant" if k is None else "resonant", n=ham.n, epsilon=ham.epsilon,
        order=order, base_point=y0, kinetic=grades[0], g_o=g_o, f_rem=f_rem, chi=chis,
        divisor_log=log, dropped_mass=ledger.dropped, dropped_by_grade=dict(ledger.by_grade),
        K0=params.K0, K=params.K, max_degree=max_degree,
        res_k=k, g_res=None if k is None else g_res,
    )


def lie_step_nonres(
    ham: NaturalHam,
    params: CoveringParams,
    y0,
    order: int = 1,
    max_degree: int = 2,
) -> AveragedNF:
    """Nonresonant normal form at a base point with the R0 certificate.

    Kills all modes 0 < |k|_1 <= K0 at each retained eps-order; divisors
    |y0.k| must exceed alpha/2 (logged, error with the witness mode
    otherwise).  The remainder's band support is exactly empty; the
    conjugacy defect of the order-D form scales as eps^{D+1}.
    """
    return _average(ham, params, y0, order, max_degree, None)


def lie_step_res(
    ham: NaturalHam,
    k: Mode,
    params: CoveringParams,
    y0,
    order: int = 1,
    max_degree: int = 2,
) -> AveragedNF:
    """Simply-resonant normal form along k at a base point in R1_k.

    Kills all modes off the line Z k with |l|_1 <= K; divisors |y0.l|
    must reach 2 alpha K / |k|.  The Z k band is collected into g_res (at
    order one exactly the lattice projection of f); pi_k f_rem = 0 exactly.
    """
    return _average(ham, params, y0, order, max_degree, k)


# --------------------------------------------------------------------------
# conjugacy verification by numerical time-1 flows
# --------------------------------------------------------------------------

def _flow_time1(chi: TaylorFourierSeries, scale: float, z0: np.ndarray,
                rtol: float, atol: float) -> np.ndarray:
    """Time-1 flow of the Hamiltonian scale*chi from the rows (y, x) of the
    (P, 2n) array z0, integrated as one DOP853 state of size 2nP."""
    n = chi.n

    def rhs(_t, z):
        z = z.reshape(-1, 2 * n)
        _val, dy, dx = chi.eval_grads(z[:, :n], z[:, n:])
        return np.concatenate([-scale * dx, scale * dy], axis=1).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), z0.ravel(), method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise GeneratorFlowError(f"generator flow failed: {sol.message}")
    return sol.y[:, -1].reshape(z0.shape)


@dataclass
class ConjugacyReport:
    max_residual: float
    max_displacement: float
    residuals: np.ndarray
    displacements: np.ndarray
    displacement_threshold: float | None = None
    displacement_ok: bool | None = None


def verify_conjugacy(
    ham: NaturalHam,
    nf: AveragedNF,
    points: list[tuple[np.ndarray, np.ndarray]],
    rtol: float = 1e-12,
    atol: float = 1e-13,
    params: CoveringParams | None = None,
) -> ConjugacyReport:
    """max |H(Psi(y,x)) - nf(y,x)| over sample points, Psi the composed
    time-1 flows of the generating Hamiltonians (applied highest grade first,
    matching H o Phi_1 o ... o Phi_D), plus the action displacement
    sup |pi_y Psi - y|.  The residual sits at the formal order eps^{order+1}.
    All points flow together, as one DOP853 state per generator grade, driven
    by `eval_grads` on the stored generators, so the check does not run the
    bracket kernel that built the normal form.
    When covering params are supplied the displacement is compared (report
    only) against the preset displacement threshold r_o/(2^7 K0), resp.
    r_k/(2^7 K).
    """
    ys = np.array([y for y, _x in points], dtype=float)
    xs = np.array([x for _y, x in points], dtype=float)
    z = np.hstack([ys, xs])
    for j, chi in sorted(nf.chi, key=lambda t: -t[0]):
        z = _flow_time1(chi, nf.epsilon ** j, z, rtol, atol)
    residuals = np.array([abs(ham.value(zi[: nf.n], zi[nf.n:]) - nf.nf_value(y, x))
                          for zi, y, x in zip(z, ys, xs)])
    displacements = np.linalg.norm(z[:, : nf.n] - ys, axis=1)
    threshold = None
    ok = None
    if params is not None:
        if nf.kind == "nonresonant":
            threshold = params.r_o / (2.0 ** 7 * params.K0)
        else:
            threshold = params.r_k(nf.res_k) / (2.0 ** 7 * params.K)
        ok = bool(displacements.max() <= threshold)
    return ConjugacyReport(
        max_residual=float(residuals.max()),
        max_displacement=float(displacements.max()),
        residuals=residuals,
        displacements=displacements,
        displacement_threshold=threshold,
        displacement_ok=ok,
    )


def ray_majorant(grades: list[TaylorFourierSeries], k_res: Mode, r: float,
                 width: float) -> float:
    """sum over grades of sum |c| r^{|m|} e^{|j| width} for modes j*k_res."""
    total = 0.0
    for t in grades:
        for (j, m, c) in t.ray_terms(k_res):
            total += abs(c) * r ** sum(m) * math.exp(abs(j) * width)
    return total
