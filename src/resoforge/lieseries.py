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

Every series is real, c_{-k,m} = conj(c_{k,m}): the constructors build
real series, and all algebra preserves reality exactly, the float operations
at -k mirroring those at k.  The bracket relies on it: it forms half its term
pairs, those of the rows k >= 0 (lexicographically) of one operand, and reads
c_k = S_k + conj S_{-k} from their sums S.

Small divisors y0.k are logged for every killed mode and checked against the
covering thresholds (alpha/2, respectively 2 alpha K/|k|); a divisor below
threshold raises with the witness mode.  Both kinds run one step loop,
`_average`; a mode l is on Z k when it is an integer multiple of k, which
`_on_line` tests over a mode array at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .cover import CoveringParams
from .fourier import ConfigError, HypothesisError, Mode, OneDTrigPoly, Record, TrigPoly, l1, power_table

Mono = tuple[int, ...]


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
# entries of the largest digit box `_slots` builds, about 55 bytes each at n = 3
_BOX_ENTRIES = 1 << 21


class _Slots(NamedTuple):
    """The admissible keys (k, m) of an algebra, |k|_1 <= cutoff and |m| <=
    max_degree, one compact slot each: mode rank x len(monos) + monomial rank.
    A mode is ranked by a lookup over its packed digits (k_i + 2 cutoff, radix
    4 cutoff + 1, so a sum of two packs too), a monomial over its digits (m_i,
    radix max_degree + 1); both are ranked by l1 norm, then in packed order."""

    cutoff: int
    modes: np.ndarray      # (n_modes, n), in rank order
    monos: np.ndarray      # (n_monos, n), in rank order: by degree, then lex
    w_k: np.ndarray        # digit weights of a packed mode
    w_m: np.ndarray        # digit weights of a packed monomial
    mode_base: np.ndarray  # packed mode -> its rank x n_monos (negative beyond the cutoff)
    mono_rank: np.ndarray  # packed monomial -> its rank (-1 off the algebra)
    mirror: np.ndarray     # slot of (k, m) -> slot of (-k, m)

    def of(self, K: np.ndarray, M: np.ndarray) -> np.ndarray:
        """The slots of the admissible rows (K, M)."""
        return self.mode_base[(K + 2 * self.cutoff) @ self.w_k] + self.mono_rank[M @ self.w_m]


@cache
def _slots(n: int, cutoff: int, max_degree: int) -> _Slots:
    def ranked(radix: int, shift: int, bound: int):
        """(rows with l1 norm <= bound, digit weights, packed -> rank) over the
        digit box of the given radix, digits shifted down by shift."""
        if radix ** n > _BOX_ENTRIES:
            raise ConfigError(f"n = {n}, cutoff {cutoff}: a digit box of {radix}^{n} entries is over {_BOX_ENTRIES}")
        box = np.indices((radix,) * n).reshape(n, -1).T - shift
        norm = np.abs(box).sum(axis=1)
        keep = np.flatnonzero(norm <= bound)
        keep = keep[np.argsort(norm[keep], kind="stable")]
        rank = np.full(len(box), -1)
        rank[keep] = np.arange(len(keep))
        return box[keep], radix ** np.arange(n)[::-1], rank

    modes, w_k, mode_rank = ranked(4 * cutoff + 1, 2 * cutoff, cutoff)
    monos, w_m, mono_rank = ranked(max_degree + 1, 0, max_degree)
    mirror = (mode_rank[(2 * cutoff - modes) @ w_k, None] * len(monos) + np.arange(len(monos))).ravel()
    return _Slots(cutoff, modes, monos, w_k, w_m, mode_rank * len(monos), mono_rank, mirror)


@cache
def _levels(n: int, max_degree: int) -> tuple[list[int], np.ndarray]:
    """`solve_homological`'s sweep over the monomials of `_slots`: (starts,
    lower), the ranks of degree d being starts[d]:starts[d + 1] and lower[j]
    (n, n_monos) the rank of m - e_j, or n_monos (a zero row) where m_j = 0."""
    table = _slots(n, 0, max_degree)  # monomial ranks do not depend on the cutoff
    monos = table.monos
    # m - e_j is read for every m and kept where m_j > 0
    lower = np.where(monos.T > 0, table.mono_rank[monos @ table.w_m - table.w_m[:, None]], len(monos))
    return np.searchsorted(monos.sum(axis=1), np.arange(max_degree + 2)).tolist(), lower


def _fold(table: _Slots, blocks, mirrored: bool = False) -> tuple:
    """(K, M, C) of the contributions (slot, c) of the blocks, taken in order:
    equal slots summed from 0.0 in that order, rows in slot order, exact
    zeros dropped.  Sort-free and running: np.add.at adds each block into the
    slot sums, a slot being zeroed when a block first touches it, and the
    touched slots are listed, in slot order, by the nonzero entries of a
    boolean mask.  Only the slots in use are written, and nothing grows with
    the number of blocks.  With mirrored, the blocks give the sums S of half
    the contributions, the other half being their mirror images, and slot s
    reads S[s] + conj S[mirror(s)]."""
    size = len(table.modes) * len(table.monos)
    touched, sums = np.zeros(size, dtype=bool), np.empty(size, dtype=complex)
    for slot, c in blocks:
        new = slot[~touched[slot]]
        touched[new], sums[new] = True, 0.0
        np.add.at(sums, slot, c)
    if mirrored:
        new = table.mirror.take(touched.nonzero()[0])
        new = new[~touched[new]]
        touched[new], sums[new] = True, 0.0
    s = touched.nonzero()[0]
    C = sums.take(s) + sums.take(table.mirror.take(s)).conj() if mirrored else sums.take(s)
    live = C != 0
    mode, mono = np.divmod(s.compress(live), len(table.monos))
    return table.modes.take(mode, axis=0), table.monos.take(mono, axis=0), C.compress(live)


@dataclass(eq=False)
class TaylorFourierSeries:
    """sum_t C_t (y - y0)^M_t e^{i K_t.x} with |K_t|_1 <= cutoff, |M_t| <= max_degree.

    Every series is real, c_{-k,m} = conj(c_{k,m}) exactly: the constructors
    build real series and every operation preserves reality bit for bit.
    Rows of int64 K (T, n), int64 M (T, n) and complex C (T,) are the only
    storage: keys (k, m) unique, no coefficient zero, rows in slot order (by
    |k|_1, then k, then |m|, then m: the rank `_slots` gives each key), so the
    arrays depend only on the terms, not on how they were built.  The arrays
    are read-only and shared between series, and no method changes a series
    once built: every operation returns a new one.
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

    def _merged(self, *parts: "TaylorFourierSeries") -> "TaylorFourierSeries":
        """The one merge of the algebra: the terms of parts (series within this
        truncation) one after another, equal keys summed from 0.0 in that order,
        rows in slot order, exact zeros dropped; one nonempty part is C + 0.0.
        A key and its mirror sum conjugates in one order, so the merge is real."""
        parts = [p for p in parts if not p.is_empty] or [self]
        if len(parts) == 1:
            return self._with(parts[0].K, parts[0].M, parts[0].C + 0.0)
        K, M, C = (np.concatenate(rows) for rows in zip(*((p.K, p.M, p.C) for p in parts)))
        table = _slots(self.n, self.cutoff, self.max_degree)
        return self._with(*_fold(table, [(table.of(K, M), C)]))

    def _mode_pairs(self, K: np.ndarray, C: np.ndarray,
                    ledger: TruncationLedger | None = None) -> "TaylorFourierSeries":
        """The real series of the terms c e^{i k.x} + conj(c) e^{-i k.x} of the rows (k != 0,
        c), no key twice: by mode rank (slot order), each coefficient + 0.0 as `_merged` sums it,
        exact zeros dropped; each nonzero pair beyond the cutoff goes to the ledger as two |c|."""
        fits = np.abs(K).sum(axis=1) <= self.cutoff
        if ledger is not None:
            for c in C[~fits & (C != 0)].repeat(2).tolist():
                ledger.drop(abs(c))
        table, K, C = _slots(self.n, self.cutoff, self.max_degree), K[fits], C[fits]
        dense = np.zeros(len(table.modes), dtype=complex)
        dense[table.mode_base[(K + 2 * self.cutoff) @ table.w_k] // len(table.monos)] = C
        dense[table.mode_base[(2 * self.cutoff - K) @ table.w_k] // len(table.monos)] = C.conj()
        K = table.modes.take(rank := dense.nonzero()[0], axis=0)
        return self._with(K, np.zeros_like(K), dense.take(rank) + 0.0)

    def _check(self, other: "TaylorFourierSeries") -> None:
        """ConfigError unless other has this n and base point (a shared array
        is not compared) and lies within this truncation."""
        if (other.n != self.n or other.cutoff > self.cutoff or other.max_degree > self.max_degree
                or other.base_point is not self.base_point
                and not np.array_equal(other.base_point, self.base_point)):
            raise ConfigError(f"operand of n = {other.n} about {other.base_point.tolist()}, (K, D) = "
                              f"{other.cutoff, other.max_degree}, for {self}")

    def plus(self, other: "TaylorFourierSeries") -> "TaylorFourierSeries":
        """self + other, other within this truncation (none of its terms is dropped)."""
        self._check(other)
        return self._merged(self, other)

    def scaled(self, a: complex) -> "TaylorFourierSeries":
        """a times every coefficient, each product formed as Python's
        complex product forms it (so bitwise the scalar one); a real a keeps
        the series real."""
        if a == 0:
            return self.like()
        a = complex(a)
        C = np.empty(len(self.C), dtype=complex)
        C.real = a.real * self.C.real - a.imag * self.C.imag
        C.imag = a.real * self.C.imag + a.imag * self.C.real
        return self._with(self.K, self.M, C)

    def split(self, mask: np.ndarray) -> tuple["TaylorFourierSeries", "TaylorFourierSeries"]:
        """(terms whose row of mask is true, the rest), each in row order; mask
        is a boolean array over the rows of K, such as `_killed(K, K0, k)`.
        A mask that takes one value at k and -k, as the averaging masks do,
        gives real parts."""
        sel = np.asarray(mask, dtype=bool)
        if sel.shape != self.C.shape:
            raise ConfigError(f"split mask of shape {sel.shape} for {len(self.C)} terms")
        return (self._with(self.K[sel], self.M[sel], self.C[sel]),
                self._with(self.K[~sel], self.M[~sel], self.C[~sel]))

    def poisson(self, other: "TaylorFourierSeries", ledger: TruncationLedger | None = None
                ) -> "TaylorFourierSeries":
        """{F, G} = F_x . G_y - F_y . G_x, truncated to (cutoff, max_degree).

        The pair (k1, m1, c1) x (k2, m2, c2) contributes, for every coordinate
        j, i (k1_j m2_j - k2_j m1_j) c1 c2 at mode k1 + k2 and monomial
        m1 + m2 - e_j.  The outer product is formed block by block over the
        rows of self, its integer factors d in the narrowest dtype that holds
        +-2 cutoff max_degree, made float only where gathered.  One `_slots`
        lookup of the packed k1 + k2 (packing is linear in the digits) says
        whether the mode fits and gives the slot's mode part.  `_fold` adds
        each block into running slot sums, each key summed in term-pair order
        from 0.0, rows in slot order, so the result does not depend on the
        block size.  Contributions beyond (cutoff, max_degree) go to the
        ledger as one drop, summed block by block.
        Both operands being real, the bracket takes half the pairs, those of
        the rows k1 >= 0 of self (lexicographically), a zero-mode c1 halved
        (exactly): a pair's mirror adds the conjugate contribution at (-k, m),
        so with S the slot sums of the half, c_k = S_k + conj S_{-k} (`_fold`),
        exactly real, and the dropped mass is twice the half's."""
        self._check(other)
        if self.is_empty or other.is_empty:
            return self.like()
        n, cut, deg = self.n, self.cutoff, self.max_degree
        (K1, M1, C1), (K2, M2, C2) = (self.K, self.M, self.C), (other.K, other.M, other.C)
        table = _slots(n, cut, deg)
        # (k1 + k2 + 2 cut) . w_k = (k1 + 2 cut) . w_k + k2 . w_k; k = 0 packs to the
        # centre of the digit box, and k >= 0 to the packs from there on
        mode1, zero = (K1 + 2 * cut) @ table.w_k, len(table.mode_base) // 2
        half = mode1 >= zero
        K1, M1, C1, mode1 = K1[half], M1[half], C1[half], mode1[half]
        scale = np.where(mode1 == zero, 0.5, 1.0)
        rows = max(1, _BLOCK_PAIRS // len(C2))
        # blocks are laid out (coordinate, row of self, term of other), so every
        # elementwise loop runs contiguously over other's terms
        small = np.min_scalar_type(-2 * cut * deg - 1)
        K1t, M1t = K1.T.astype(small, order="C"), M1.T.astype(small, order="C")
        K2t, M2t = K2.T.astype(small, order="C")[:, None, :], M2.T.astype(small, order="C")[:, None, :]
        c1r, c1i, c2r, c2i = C1.real * scale, C1.imag * scale, C2.real.copy(), C2.imag.copy()
        mode2, mono1, mono2 = K2 @ table.w_k, M1 @ table.w_m, M2 @ table.w_m
        deg1, deg2, lost = M1t.sum(axis=0), M2t.sum(axis=0), []

        def block(r: slice):
            """(slots, coefficients) of the kept contributions of the rows r of
            self, in term-pair order; the mass of the dropped ones goes to `lost`."""
            d = K1t[:, r, None] * M2t - K2t * M1t[:, r, None]
            ar, ai = c1r[r, None], c1i[r, None]
            # c1 c2 (i d) = (br + i bi)(i d) = -bi d + i br d, with br + i bi
            # formed as Python's complex product forms it; Python's product
            # with i d differs only in the sign of zero parts, which neither a
            # sum from +0.0 nor hypot can see
            br, bi = ar * c2r - ai * c2i, ar * c2i + ai * c2r
            nonzero = (br != 0) | (bi != 0)
            base = table.mode_base[mode1[r, None] + mode2]
            fits = (base >= 0) & (deg1[r, None] + deg2 <= deg + 1)
            # dropped contributions, their mass summed in (coordinate, row, term) order
            at = np.flatnonzero(np.logical_and(d, nonzero > fits))
            pair, d_lost = at - at // fits.size * fits.size, d.take(at).astype(float)
            lost.append(float(np.hypot(bi.take(pair) * d_lost, br.take(pair) * d_lost).sum()))
            # kept contributions in term-pair order: flat (row, term, coordinate)
            keep, fits = np.empty((fits.size, n), dtype=bool), (fits & nonzero).ravel()
            for j in range(n):
                np.logical_and(d[j].ravel(), fits, out=keep[:, j])
            at = np.flatnonzero(keep)
            j = at - (pair := at // n) * n
            d_kept = d.take(j * fits.size + pair).astype(float)
            c = np.empty(len(pair), dtype=complex)
            c.real, c.imag = -bi.take(pair) * d_kept, br.take(pair) * d_kept
            # d_j != 0 needs m1_j or m2_j >= 1, so m1 + m2 - e_j is a monomial
            mono = (mono1[r, None] + mono2).take(pair) - table.w_m[j]
            return base.take(pair) + table.mono_rank[mono], c

        blocks = (block(slice(a0, a0 + rows)) for a0 in range(0, len(C1), rows))
        K, M, C = _fold(table, blocks, True)
        if ledger is not None and (dropped := sum(lost)):
            ledger.drop(2 * dropped)
        return self._with(K, M, C)

    # -- evaluation ---------------------------------------------------------

    def _tables(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Kt, S, R) with at least `rows` rows (the value row alone while no
        more is read), built from (K, M, C) on first use; Kt (n, T) holds the
        float modes.

        Row j of S and R gives one sum over terms t: its real part is the value
        for j = 0 and dF/dy_i for j = 1 + i, its imaginary part -dF/dx_i for
        j = n + 1 + i.  S (n, 2n+1, T) indexes the flat power table of one
        point, w_i^e at i (D+2) + e (D = max_degree) with a zero at e = D+1:
        S[i, j, t] reads exponent M[t, i] - [j == 1 + i], and -1 wraps to the
        zero column.  Coordinates lead, so their product runs on contiguous
        rows.  R (2n+1, T) holds the rows c_t, then M[t, i] c_t, then K[t, i] c_t.
        """
        if self._grad_tables is None or len(self._grad_tables[2]) < rows:
            K, M, C = self.K, self.M, self.C
            n, width = self.n, self.max_degree + 2
            shifted = M.T[:, None, :] - np.eye(n, rows, 1, dtype=np.int64)[:, :, None]
            S = shifted % width + width * np.arange(n)[:, None, None]
            R = C[None] if rows == 1 else np.vstack([C, M.T * C, K.T * C])
            self._grad_tables = (K.T.astype(float), S, R)
        return self._grad_tables

    def _sums(self, y, x, rows: int) -> np.ndarray:
        """sum_t R_jt w^(S_jt) e^(i k_t.x) for the first `rows` rows j at P
        points, shape (P, rows); y and x are (n,) or (P, n)."""
        Kt, S, R = self._tables(rows)
        n = self.n
        w = np.asarray(y, dtype=float).reshape(-1, n) - self.base_point
        table = np.zeros((len(w), n, self.max_degree + 2))
        table[:, :, :-1] = power_table(w, self.max_degree)
        mono = table.reshape(len(w), -1).take(S[:, :rows], axis=1).prod(axis=1)
        # k.x for every term, (P, 1, T), as one vector-matrix product per point:
        # a (P, n) x (n, T) matrix product would page in BLAS GEMM buffers
        phase = np.exp(1j * np.matmul(np.asarray(x, dtype=float).reshape(-1, 1, n), Kt))
        return (R[:rows] * mono * phase).sum(axis=2)

    def evaluate(self, y, x):
        """The complex sum at real (y, x) of shape (n,) or (P, n): a
        complex, or an array of P."""
        return self._sums(y, x, 1).reshape(np.shape(y)[:-1])[()]

    def eval_grads(self, y, x) -> tuple[float, np.ndarray, np.ndarray]:
        """(value, dF/dy, dF/dx), real parts, at real (y, x) of shape (n,)
        (a float and two (n,) arrays) or (P, n) (arrays (P,), (P, n), (P, n)).

        Per point: one power table, one gather-and-product for the monomials
        and every d/dy_j monomial (lowered exponents, so w_j = 0 needs no
        special case), one exp for the phases and one sum over terms.
        """
        n, lead = self.n, np.shape(y)[:-1]
        sums = self._sums(y, x, 2 * n + 1)
        return (sums[:, 0].real.reshape(lead)[()], sums[:, 1:n + 1].real.reshape(lead + (n,)),
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
        k = np.asarray(k_res, dtype=np.int64)
        if (off := self.K.any(axis=1) & ~_on_line(self.K, k)).any():
            raise ConfigError(f"mode {tuple(self.K[off.argmax()].tolist())} is not on the ray of {k_res}")
        return list(zip(((self.K @ k) // (k @ k)).tolist(), map(tuple, self.M.tolist()), self.C.tolist()))

    def to_entries(self) -> list[dict]:
        return [{"k": k, "m": m, "re": c.real, "im": c.imag}
                for k, m, c in zip(self.K.tolist(), self.M.tolist(), self.C.tolist())]


def kinetic_series(y0, max_degree: int, cutoff: int) -> TaylorFourierSeries:
    """0.5|y|^2 expanded exactly around y0 (degree 2), by monomial rank (slot order): real."""
    if max_degree < 2:
        raise ConfigError("kinetic part needs max_degree >= 2")
    y0 = np.asarray(y0, dtype=float)
    table = _slots(len(y0), cutoff, max_degree)
    dense = np.zeros(len(table.monos), dtype=complex)
    dense[0] = 0.5 * float(np.dot(y0, y0))
    dense[table.mono_rank[table.w_m]] = y0  # e_j packs to its digit weight
    dense[table.mono_rank[2 * table.w_m]] = 0.5
    M = table.monos.take(rank := dense.nonzero()[0], axis=0)
    return TaylorFourierSeries(len(y0), y0, max_degree, cutoff)._with(np.zeros_like(M), M, dense.take(rank) + 0.0)


def potential_series(
    f: TrigPoly, y0, max_degree: int, cutoff: int, ledger: TruncationLedger
) -> TaylorFourierSeries:
    """eps-grade-1 term: f as a y-independent series (both halves of its canonical modes)."""
    out = TaylorFourierSeries(f.n, np.asarray(y0, dtype=float), max_degree, cutoff)
    K = np.array(list(f.coeffs), dtype=np.int64).reshape(-1, f.n)
    return out._mode_pairs(K, np.fromiter(f.coeffs.values(), complex, len(f.coeffs)), ledger)


def ray_series(like: TaylorFourierSeries, p: OneDTrigPoly, k: Mode) -> TaylorFourierSeries:
    """p(k.x) = sum_j c_j e^{i j k.x} + conj, y-independent, in like's algebra (terms
    beyond it are left out): the Z k series of pi_k f for p = project_lattice(f, k).
    p stores only j >= 1, so every key is new."""
    js = np.fromiter(p.coeffs, np.int64, len(p.coeffs))
    C = np.fromiter(p.coeffs.values(), complex, len(p.coeffs))
    return like._mode_pairs(js[:, None] * np.array(k, dtype=np.int64), C)


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

    Solved for all modes at once, degree by degree:
        i (y0.k) chi_{k,m} + i sum_j k_j chi_{k,m-e_j} = B_{k,m}.
    B's rows are in slot order, so each mode's rows are adjacent; its modes,
    in that order, index dense tables over the monomial ranks (`_levels`).
    Each degree level starts from B, adds the parts of Python's
    acc -= 1j k_j chi_{m-e_j} coordinate by coordinate, and divides as
    Python's complex division by (0, y0.k) does, so every coefficient is
    bitwise the scalar recursion's up to the sign of zeros; monomials no B
    entry reaches solve to zero.  chi lists the nonzero coefficients, each
    + 0.0, in slot order.  Returns (chi, divisor log in slot order, dropped
    overflow majorant summed in that order over the top degree); raises
    HypothesisError at the first mode, in slot order, with |y0.k| <=
    min_divisor.
    """
    y0 = np.asarray(y0, dtype=float)
    table = _slots(B.n, B.cutoff, B.max_degree)
    starts, lower = _levels(B.n, B.max_degree)
    width = len(table.monos)
    mode, mono = np.divmod(table.of(B.K, B.M), width)
    new = np.ones(len(mode), dtype=bool)  # the first row of each mode
    np.not_equal(mode[1:], mode[:-1], out=new[1:])
    u, Ku = new.cumsum() - 1, B.K[new]
    kf, modes = Ku.astype(float), list(map(tuple, Ku.tolist()))
    # one (1, n) x (n, 1) product per mode: the bytes of np.dot(y0, k)
    divs = np.matmul(kf[:, None, :], y0[:, None]).ravel()
    log = list(zip(modes, np.abs(divs).tolist()))
    for k, div in log:
        if div <= min_divisor:
            raise HypothesisError(f"{context}: divisor |y0.k| = {div:.3e} <= {min_divisor:.3e} at mode {k}")
    # X[monomial rank, part, mode]: (Re, Im) of B until its level is solved,
    # then (Im, -Re) of chi; row `width` stays zero
    X, neg_div = np.zeros((width + 1, 2, len(Ku))), -divs
    X[mono, 0, u], X[mono, 1, u] = B.C.real, B.C.imag
    k_lower = kf.T[:, None, None, :]
    for lo, hi in zip(starts, starts[1:]):
        acc = X[lo:hi]
        for term in k_lower * X.take(lower[:, lo:hi], axis=0):
            acc += term  # (re, im) += k_j (Im, -Re) chi_{m-e_j}, j = 0, 1, ...
        # (Im, -Re) chi = (-re, -im) / div: chi = (im / div, -re / div)
        np.divide(acc, neg_div, out=acc)
    top = X[starts[-2]:width]
    # summed one by one, as a loop from 0.0 sums them (accumulate is sequential)
    overflow = np.add.accumulate((np.abs(Ku).sum(axis=1) * np.hypot(top[:, 1], top[:, 0])).T.ravel())
    re, im = -X[:width, 1].T, X[:width, 0].T
    mode, mono = np.nonzero((re != 0) | (im != 0))
    C = np.empty(len(mode), dtype=complex)
    C.real, C.imag = re[mode, mono] + 0.0, im[mode, mono] + 0.0
    # a real band gives a real chi: k -> -k negates every product and divisor exactly
    return B._with(Ku[mode], table.monos[mono], C), log, float(overflow[-1])


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
    return [p[0] if len(p) == 1 else p[0]._merged(*p) for p in parts]


@dataclass
class AveragedNF(Record):
    """Output of the averaging steps.

    g_o[j]    y-only part of the eps^j term,
    g_res[j]  part supported on the resonance line Z k (resonant kind only),
    f_rem[j]  remaining oscillatory part: support excludes the killed set
              `_killed` exactly (nonresonant: no modes 0 < |k|_1 <= K0;
              resonant: no modes off Z k, so f_rem is empty).
    order counts homological steps = retained eps-grades; chi holds the
    generating series per step for building the conjugating flow.
    """

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

    def nf_value(self, y, x):
        """The normal form's value, real part, at real (y, x) of shape (n,) (a
        float) or (P, n) (an array of P): each series is evaluated once over
        all rows, and the grades are summed row by row as at one point."""
        total = self.kinetic.evaluate(y, x)
        for j in range(1, self.order + 1):
            term = self.g_o[j].evaluate(y, x) + self.f_rem[j].evaluate(y, x)
            if self.g_res is not None:
                term = term + self.g_res[j].evaluate(y, x)
            total = total + self.epsilon ** j * term
        return total.real if np.ndim(total) else float(total.real)

    def band_coefficient_maxima(self) -> float:
        """max |coefficient| of f_rem over the whole killed set `_killed`
        (exact-zero check); a resonant f_rem is empty on correct code."""
        return max([0.0] + [float(np.abs(t.C[_killed(t.K, self.K0, self.res_k)]).max(initial=0.0))
                            for t in self.f_rem[1:self.order + 1]])

    def to_dict(self) -> dict:
        doc = {
            "kind": "nonresonant" if self.res_k is None else "resonant",
            "n": self.n,
            "epsilon": self.epsilon,
            "order": self.order,
            "base_point": self.base_point.tolist(),
            "K0": self.K0,
            "K": self.K,
            "max_degree": self.max_degree,
            "dropped_mass": self.dropped_mass,
            "dropped_by_grade": {str(g): m for g, m in sorted(self.dropped_by_grade.items())},
            "dropped_eps_weighted": float(sum(self.epsilon ** g * m for g, m in self.dropped_by_grade.items())),
            "divisor_log": [{"k": list(k), "divisor": v} for k, v in self.divisor_log],
            "grades": [{"eps_power": j, "g_o": self.g_o[j].to_entries(), "f_rem": self.f_rem[j].to_entries(),
                        **({} if self.g_res is None else {"g_res": self.g_res[j].to_entries()})}
                       for j in range(1, self.order + 1)],
        }
        if self.res_k is not None:
            doc["res_k"] = list(self.res_k)
        return doc


def _killed(K: np.ndarray, K0: int, k: Mode | None) -> np.ndarray:
    """The rows l of the (T, n) mode array K that averaging kills: for k None
    those with 0 < |l|_1 <= K0, else every l != 0 off the line Z k."""
    if k is not None:
        return K.any(axis=1) & ~_on_line(K, k)
    norm = np.abs(K).sum(axis=1)
    return (norm > 0) & (norm <= K0)


def _on_line(K: np.ndarray, k: Mode) -> np.ndarray:
    """The rows of the (T, n) mode array K that are j k for an integer j != 0:
    every 2x2 minor with k is zero (so the row is t k with t = row.k / k.k)
    and k.k divides row.k != 0.
    For a generator k the divisibility follows from the minors."""
    k = np.asarray(k, dtype=np.int64)
    parallel = (K[:, :, None] * k == K[:, None, :] * k[:, None]).all(axis=(1, 2))
    dot = K @ k
    return parallel & (dot != 0) & (dot % (k @ k) == 0)


def _average(ham: NaturalHam, params: CoveringParams, y0, order: int, max_degree: int,
             k: Mode | None) -> AveragedNF:
    """The averaging steps of both kinds: nonresonant for k None, else resonant
    along k.  The kind sets the killed band, the divisor threshold and the
    error context; the resonant kind keeps the part on Z k as g_res."""
    if order < 1:
        raise ConfigError("order must be at least 1")
    if not math.isfinite(ham.epsilon):
        raise ConfigError(f"epsilon must be finite, got {ham.epsilon!r}")
    y0 = np.asarray(y0, dtype=float)
    if k is None:
        min_divisor, context = params.alpha / 2.0, "resonant at base point"
    else:
        k = tuple(int(v) for v in k)
        min_divisor = 2.0 * params.alpha * params.K / math.sqrt(sum(v * v for v in k))
        context = f"small divisor off the line Z{k}"
    ledger = TruncationLedger(grade=1)
    grades = [kinetic_series(y0, max_degree, params.K)]
    grades.append(potential_series(ham.f, y0, max_degree, params.K, ledger))
    ledger.grade = 0
    for _ in range(2, order + 1):
        grades.append(grades[0].like())
    chis = []
    log: list[tuple[Mode, float]] = []
    for j in range(1, order + 1):
        band, _rest = grades[j].split(_killed(grades[j].K, params.K0, k))
        if band.is_empty:
            continue
        chi, divisors, overflow = solve_homological(band, y0, min_divisor, context)
        ledger.drop(overflow, grade=j)
        log.extend(divisors)
        grades = lie_transform(grades, chi, j, band, ledger)
        chis.append((j, chi))
    g_o, g_res, f_rem = [grades[0].like()], [grades[0].like()], [grades[0].like()]
    for j in range(1, order + 1):
        osc, zero = grades[j].split(grades[j].K.any(axis=1))
        g_o.append(zero)
        if k is not None:
            line, osc = osc.split(_on_line(osc.K, k))
            g_res.append(line)
        f_rem.append(osc)
    return AveragedNF(
        n=ham.n, epsilon=ham.epsilon,
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
    order one exactly the lattice projection of f), so f_rem is empty, as
    `band_coefficient_maxima` checks over the whole killed set.
    """
    return _average(ham, params, y0, order, max_degree, k)


# --------------------------------------------------------------------------
# conjugacy verification by numerical time-1 flows
# --------------------------------------------------------------------------

_MAX_STEPS = 1 << 8  # per time-1 flow; the near-identity eps^j chi flows meet 1e-13 by 4


def _flow_time1(chi: TaylorFourierSeries, scale: float, z0: np.ndarray,
                rtol: float, atol: float) -> tuple[np.ndarray, float]:
    """(time-1 flow, error estimate e) of the Hamiltonian scale*chi from the
    rows (y, x) of the (P, 2n) array z0, all rows stepped together: classical
    RK4 at N and 2N equal steps, N = 1, 2, 4, ..., until the Richardson
    estimate e = max|z_2N - z_N| / 15 is at most atol + rtol max|z_2N|; the
    flow is z_2N + (z_2N - z_N) / 15 (Hairer, Norsett & Wanner, Solving ODEs
    I, II.4).  HypothesisError when _MAX_STEPS steps do not meet it.

    Levels N = 1 and N = 2 share their first stage, at z0, so their first
    steps are one step of the stacked state (2, P, 2n) with h = (1, 1/2)
    per level: one `eval_grads` call per stage for both.  Level 2's second
    step and the levels from N = 4 on run alone.  Every row goes through the
    float operations of level-by-level stepping, so the flow does not depend
    on the stacking."""
    n = chi.n

    def rhs(z):
        _val, dy, dx = chi.eval_grads(z[..., :n], z[..., n:])
        return np.concatenate([-scale * dx, scale * dy], axis=-1)

    def step(z, h, k1):
        """One RK4 step of size h (broadcasting against z) from z, k1 = rhs(z)."""
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        return z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    start = rhs(z0)  # the first stage of every refinement level

    def rk4(steps: int) -> np.ndarray:
        z, h = z0, 1.0 / steps
        for i in range(steps):
            z = step(z, h, rhs(z) if i else start)
        return z

    coarse, fine = step(z0, np.array([1.0, 0.5])[:, None, None], start)
    fine, steps = step(fine, 0.5, rhs(fine)), 2
    while True:
        err = float(np.max(np.abs(fine - coarse))) / 15.0
        if err <= atol + rtol * float(np.max(np.abs(fine))):
            return fine + (fine - coarse) / 15.0, err
        if steps >= _MAX_STEPS:
            raise HypothesisError(f"generator flow failed: error estimate {err:.3e} at {steps} steps")
        coarse, steps = fine, 2 * steps
        fine = rk4(steps)


@dataclass
class ConjugacyReport:
    max_residual: float
    flow_error: float  # the flows' error estimates, summed over generator grades


def verify_conjugacy(
    ham: NaturalHam,
    nf: AveragedNF,
    points: list[tuple[np.ndarray, np.ndarray]],
    rtol: float = 1e-12,
    atol: float = 1e-13,
) -> ConjugacyReport:
    """max |H(Psi(y,x)) - nf(y,x)| over sample points, Psi the composed
    time-1 flows of the generating Hamiltonians (applied highest grade first,
    matching H o Phi_1 o ... o Phi_D).  The residual sits at the formal order
    eps^{order+1}.  All points flow together, one `_flow_time1` per generator
    grade driven by `eval_grads` on the stored generators, so the check does
    not run the bracket kernel that built the normal form; flow_error sums
    the flows' error estimates, each at most atol + rtol max|z|.  The normal
    form is read at all points in one `nf_value` call; H is evaluated point
    by point from f's own coefficients, the check's independent side.
    """
    ys = np.array([y for y, _x in points], dtype=float)
    xs = np.array([x for _y, x in points], dtype=float)
    z, flow_error = np.hstack([ys, xs]), 0.0
    for j, chi in sorted(nf.chi, key=lambda t: -t[0]):
        z, err = _flow_time1(chi, nf.epsilon ** j, z, rtol, atol)
        flow_error += err
    return ConjugacyReport(flow_error=flow_error, max_residual=float(max(
        abs(ham.value(zi[: nf.n], zi[nf.n:]) - v) for zi, v in zip(z, nf.nf_value(ys, xs)))))

