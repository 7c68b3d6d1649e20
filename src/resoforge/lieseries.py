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

import numpy as np
from scipy.integrate import solve_ivp

from .cover import CoveringParams
from .fourier import Mode, OneDTrigPoly, TrigPoly, l1, on_ray, project_lattice
from .genericity import threshold_N

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


class _Terms(dict):
    """A series' term dict that carries its compiled arrays; every write drops them."""

    arrays = None


def _dropping_arrays(name: str):
    write = getattr(dict, name)

    def method(self, *args, **kwargs):
        self.arrays = None
        return write(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in ("__setitem__", "__delitem__", "__ior__", "pop", "popitem", "clear",
              "update", "setdefault"):
    setattr(_Terms, _name, _dropping_arrays(_name))

# term pairs per block of the bracket's outer product
_BLOCK_PAIRS = 4096


@dataclass
class TaylorFourierSeries:
    """sum_{k,m} c_{k,m} (y - y0)^m e^{i k.x} with |k|_1 <= cutoff, |m| <= max_degree.

    Reality corresponds to c_{-k,m} = conj(c_{k,m}); all algebra preserves it.
    `terms` is the storage; the int64 mode/monomial arrays and complex
    coefficients that the bracket reads, and the evaluator's tables, are
    compiled from it on first use and dropped by any write to it.
    """

    n: int
    base_point: np.ndarray
    max_degree: int
    cutoff: int
    terms: dict[tuple[Mode, Mono], complex] = field(default_factory=_Terms)

    def __setattr__(self, name, value):
        if name == "terms" and type(value) is not _Terms:
            value = _Terms(value)
        object.__setattr__(self, name, value)

    def _with(self, terms: dict) -> "TaylorFourierSeries":
        """A series of this algebra holding `terms`."""
        return TaylorFourierSeries(self.n, self.base_point, self.max_degree, self.cutoff, terms)

    def copy(self) -> "TaylorFourierSeries":
        return self._with(_Terms(self.terms))

    def like(self) -> "TaylorFourierSeries":
        return self._with({})

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def add_term(self, k: Mode, m: Mono, c: complex, ledger: TruncationLedger | None = None):
        if c == 0:
            return
        if l1(k) > self.cutoff or sum(m) > self.max_degree:
            if ledger is not None:
                ledger.drop(abs(c))
            return
        key = (k, m)
        new = self.terms.get(key, 0.0) + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def plus(self, other: "TaylorFourierSeries") -> "TaylorFourierSeries":
        """self + other, other within this truncation (none of its terms is dropped)."""
        assert other.cutoff <= self.cutoff and other.max_degree <= self.max_degree
        terms = dict(self.terms)
        for key, c in other.terms.items():
            new = terms.get(key, 0.0) + c
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
        return self._with(terms)

    def scaled(self, a: complex) -> "TaylorFourierSeries":
        out = self.like()
        if a != 0:
            out.terms.update((key, a * c) for key, c in self.terms.items())
        return out

    def split(self, predicate) -> tuple["TaylorFourierSeries", "TaylorFourierSeries"]:
        """(terms with predicate(k) true, the rest); predicate is asked once per mode."""
        sel, rest, predicate = {}, {}, cache(predicate)
        for key, c in self.terms.items():
            (sel if predicate(key[0]) else rest)[key] = c
        return self._with(sel), self._with(rest)

    def poisson(self, other: "TaylorFourierSeries", ledger: TruncationLedger | None = None
                ) -> "TaylorFourierSeries":
        """{F, G} = F_x . G_y - F_y . G_x, truncated to (cutoff, max_degree).

        The pair (k1, m1, c1) x (k2, m2, c2) contributes, for every coordinate
        j, i (k1_j m2_j - k2_j m1_j) c1 c2 at mode k1 + k2 and monomial
        m1 + m2 - e_j.  The outer product is formed block by block over the
        rows of self; each (k, m) is packed into one int64 key (mixed radix
        2 cutoff + 1 per mode entry, max_degree + 1 per exponent) and equal
        keys are summed with np.unique + np.bincount into a running key list.
        Every key is summed in term-pair order, starting from its first
        contribution, and the output lists keys in order of first
        contribution, so the result does not depend on the block size.
        Contributions beyond (cutoff, max_degree) go to the ledger as one drop.
        """
        out = self.like()
        if not self.terms or not other.terms:
            return out
        n, cut, deg = self.n, self.cutoff, self.max_degree
        K1, M1, C1 = self._compiled()
        K2, M2, C2 = other._compiled()
        radix_k, radix_m = 2 * cut + 1, deg + 1
        assert (radix_k * radix_m) ** n < 2 ** 63, "packed (k, m) key overflows int64"
        w_m = radix_m ** np.arange(n, dtype=np.int64)
        w_k = radix_m ** n * radix_k ** np.arange(n, dtype=np.int64)
        n2 = len(C2)
        rows = max(1, _BLOCK_PAIRS // n2)
        # blocks are laid out (coordinate, row of self, term of other), so every
        # elementwise loop runs contiguously over other's terms
        K1t, M1t = np.ascontiguousarray(K1.T), np.ascontiguousarray(M1.T)
        K2t, M2t = np.ascontiguousarray(K2.T)[:, None, :], np.ascontiguousarray(M2.T)[:, None, :]
        c1r, c1i, c2r, c2i = C1.real.copy(), C1.imag.copy(), C2.real.copy(), C2.imag.copy()

        def block(a0: int):
            """(positions, keys, real and imaginary parts) of the kept
            contributions of rows a0.. of self, in term-pair order, and the
            mass of the dropped ones.  Its temporaries are gone before the merge."""
            k1, m1 = K1t[:, a0:a0 + rows, None], M1t[:, a0:a0 + rows, None]
            ar, ai = c1r[a0:a0 + rows, None], c1i[a0:a0 + rows, None]
            ksum, msum = k1 + K2t, m1 + M2t
            d = k1 * M2t - K2t * m1
            # c1 c2 (i d) spelled out in real arithmetic, operation by operation
            # as Python's complex product forms it, so every contribution is
            # bitwise the scalar one (numpy's vectorised complex multiply is not)
            br, bi = ar * c2r - ai * c2i, ar * c2i + ai * c2r
            dr = 0.0 * d - 0.0
            vr, vi = br * dr - bi * d, br * d + bi * dr
            live = (d != 0) & ((vr != 0) | (vi != 0))
            fits = (np.abs(ksum).sum(axis=0) <= cut) & (msum.sum(axis=0) <= deg + 1)
            lost = live & ~fits
            # kept contributions in term-pair order: flat (row, term, coordinate)
            idx = np.flatnonzero((live & fits).transpose(1, 2, 0))
            at = idx % n * fits.size + idx // n
            pair_key = np.tensordot(w_k, ksum + cut, 1) + np.tensordot(w_m, msum, 1)
            return (a0 * n2 * n + idx, pair_key.ravel()[idx // n] - w_m[idx % n],
                    vr.ravel()[at], vi.ravel()[at], float(np.hypot(vr[lost], vi[lost]).sum()))

        keys = first = np.empty(0, dtype=np.int64)
        re = im = np.empty(0)
        dropped = 0.0
        for a0 in range(0, len(C1), rows):
            b_first, b_keys, b_re, b_im, b_lost = block(a0)
            keys, pos, inv = np.unique(np.concatenate([keys, b_keys]),
                                       return_index=True, return_inverse=True)
            first = np.concatenate([first, b_first])[pos]
            re = np.bincount(inv, np.concatenate([re, b_re]), len(keys))
            im = np.bincount(inv, np.concatenate([im, b_im]), len(keys))
            dropped += b_lost
        if ledger is not None and dropped:
            ledger.drop(dropped)
        # positions are distinct; the stable sort is the one np.unique already
        # loaded, so the first bracket pages in no second sort (~0.4 MB RSS)
        order = np.argsort(first, kind="stable")
        order = order[(re[order] != 0) | (im[order] != 0)]
        keys = keys[order]
        coef = np.empty(len(keys), dtype=complex)
        coef.real, coef.imag = re[order], im[order]
        modes = (keys[:, None] // w_k) % radix_k - cut
        monos = (keys[:, None] // w_m) % radix_m
        out.terms.update(zip(zip(map(tuple, modes.tolist()), map(tuple, monos.tolist())),
                             coef.tolist()))
        return out

    def reality_defect(self) -> float:
        worst = 0.0
        for (k, m), c in self.terms.items():
            mirror = self.terms.get((tuple(-v for v in k), m), 0.0)
            worst = max(worst, abs(np.conj(c) - mirror))
        return worst

    # -- evaluation ---------------------------------------------------------

    def _compiled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K, M, C): int64 modes and monomials, complex coefficients, in term order."""
        terms = self.terms
        if terms.arrays is None:
            K = np.array([k for k, _ in terms], dtype=np.int64).reshape(len(terms), self.n)
            M = np.array([m for _, m in terms], dtype=np.int64).reshape(len(terms), self.n)
            C = np.array(list(terms.values()), dtype=complex)
            terms.arrays = (K, M, C, None)
        return terms.arrays[:3]

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Kt, S, R), compiled on first use beside (K, M, C), so a write to
        `terms` drops them too.  Kt (n, T) holds the float modes.

        Row j of S and R gives one sum over terms t: its real part is dF/dy_j
        for j < n and the value for j = n, its imaginary part -dF/dx_i for
        j = n + 1 + i.  S (n, 2n+1, T) indexes the flat power table of one
        point, w_i^e at i (D+2) + e (D = max_degree) with a zero at e = D+1:
        S[i, j, t] reads exponent M[t, i] - [i == j], and -1 wraps to the zero
        column.  Coordinates lead, so their product runs on contiguous rows.
        R (2n+1, T) holds the rows M[t, j] c_t, then c_t, then K[t, i] c_t.
        """
        K, M, C = self._compiled()
        terms = self.terms
        if terms.arrays[3] is None:
            n, width = self.n, self.max_degree + 2
            shifted = M.T[:, None, :] - np.eye(n, 2 * n + 1, dtype=np.int64)[:, :, None]
            S = shifted % width + width * np.arange(n)[:, None, None]
            R = np.vstack([M.T * C, C, K.T * C])
            terms.arrays = (K, M, C, (K.T.astype(float), S, R))
        return terms.arrays[3]

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
    h = TaylorFourierSeries(n_, y0, max_degree, cutoff)
    zero_k = (0,) * n_
    h.add_term(zero_k, (0,) * n_, 0.5 * float(np.dot(y0, y0)))
    for j in range(n_):
        m = [0] * n_
        m[j] = 1
        h.add_term(zero_k, tuple(m), float(y0[j]))
        m[j] = 2
        h.add_term(zero_k, tuple(m), 0.5)
    return h


def potential_series(
    f: TrigPoly, y0, max_degree: int, cutoff: int, ledger: TruncationLedger
) -> TaylorFourierSeries:
    """eps-grade-1 term: the potential as a y-independent series (both mode halves)."""
    y0 = np.asarray(y0, dtype=float)
    out = TaylorFourierSeries(f.n, y0, max_degree, cutoff)
    zero_m = (0,) * f.n
    for k, c in f.coeffs.items():
        out.add_term(k, zero_m, c, ledger)
        out.add_term(tuple(-v for v in k), zero_m, complex(np.conj(c)), ledger)
    return out


@dataclass(frozen=True)
class NaturalHam:
    """H(y, x) = 0.5|y|^2 + eps f(x)."""

    n: int
    epsilon: float
    f: TrigPoly

    def value(self, y, x) -> float:
        y = np.asarray(y, dtype=float)
        return 0.5 * float(np.dot(y, y)) + self.epsilon * self.f.evaluate(x).real

    def grad(self, y, x) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dy, dH/dx) at real points."""
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        dx = np.zeros(self.n)
        for k, c in self.f.coeffs.items():
            kv = np.asarray(k, dtype=float)
            phase = c * np.exp(1j * float(kv @ x))
            dx += -2.0 * kv * phase.imag  # d/dx 2 Re(c e^{ikx}) = -2 k Im(c e^{ikx})
        return y, self.epsilon * dx


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
    terms: dict[tuple[Mode, Mono], complex] = {}
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
        # each (k, m) is new and in range; 0.0 + c is add_term's sum (-0.0 -> +0.0)
        terms.update(((k, m), 0.0 + c) for m, c in solved.items() if c != 0)
        for m in level:
            overflow += l1(k) * abs(solved[m])
    return B._with(terms), log, overflow


def lie_transform(
    grades: list[TaylorFourierSeries],
    chi: TaylorFourierSeries,
    j: int,
    B: TaylorFourierSeries,
    ledger: TruncationLedger,
) -> list[TaylorFourierSeries]:
    """exp(L_chi) applied to the graded Hamiltonian, chi at eps-grade j.

    Uses {h, chi} = -B exactly (the homological identity), so the band part
    of grade j cancels coefficientwise; all other chains are bracketed out
    until they leave the retained grades.
    """
    D = len(grades) - 1
    out = [g.copy() for g in grades]
    # kinetic chain: h -> h - B + {-B, chi}/2! + ...
    out[j] = out[j].plus(B.scaled(-1.0))
    term = B.scaled(-1.0)
    i = 1
    while j * (i + 1) <= D:
        i += 1
        ledger.grade = j * i
        term = term.poisson(chi, ledger).scaled(1.0 / i)
        out[j * i] = out[j * i].plus(term)
    # perturbation chains from every retained grade
    for g0 in range(1, D + 1):
        src = grades[g0]
        if src.is_empty:
            continue
        term = src
        i = 0
        while g0 + (i + 1) * j <= D:
            i += 1
            ledger.grade = g0 + i * j
            term = term.poisson(chi, ledger).scaled(1.0 / i)
            out[g0 + i * j] = out[g0 + i * j].plus(term)
    ledger.grade = 0
    return out


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

    def g_o_value(self, y) -> float:
        """g(y) with eps*g(y) = sum_j eps^j g_o_j(y): the y-only normal part."""
        x0 = np.zeros(self.n)
        return float(sum(
            self.epsilon ** (j - 1) * self.g_o[j].evaluate(y, x0).real
            for j in range(1, self.order + 1)
        ))

    def band_coefficient_maxima(self) -> float:
        """max |coefficient| of f_rem over the killed band (exact-zero check)."""
        worst = 0.0
        for j in range(1, self.order + 1):
            for (k, _m), c in self.f_rem[j].terms.items():
                if self.kind == "nonresonant":
                    if 0 < l1(k) <= self.K0:
                        worst = max(worst, abs(c))
                else:
                    if on_ray(k, self.res_k) is not None:
                        worst = max(worst, abs(c))
        return worst

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


def nf_remainder_norm(nf: AveragedNF, r: float, s_prime: float) -> float:
    """ell^1 majorant of the remainder sum_j eps^j f_rem_j over the y-polydisk
    of radius r and the angle strip of width s_prime."""
    return float(sum(
        nf.epsilon ** j * nf.f_rem[j].majorant(r, s_prime)
        for j in range(1, nf.order + 1)
    ))


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


# --------------------------------------------------------------------------
# cosine-like rescaling of the resonant form
# --------------------------------------------------------------------------

@dataclass
class CosineRescaledForm:
    """H^k recast as 0.5|y|^2 + eps g_o(y) + 2|f_k| eps [cos(theta + theta_k)
    + F_star(theta) + g_star(y, theta) + f_star(y, x)], theta = k.x."""

    theta_k: float
    eta: float
    F_star: OneDTrigPoly
    g_star_grades: list[TaylorFourierSeries]
    f_star_grades: list[TaylorFourierSeries]
    epsilon: float
    res_k: Mode
    g_star_majorant: float
    f_star_majorant: float
    g_star_threshold: float
    f_star_threshold: float
    g_star_ok: bool
    f_star_ok: bool
    identity_residual: float

    def to_dict(self) -> dict:
        return {
            "theta_k": self.theta_k,
            "eta": self.eta,
            "g_star_majorant": self.g_star_majorant,
            "f_star_majorant": self.f_star_majorant,
            "g_star_threshold": self.g_star_threshold,
            "f_star_threshold": self.f_star_threshold,
            "g_star_ok": self.g_star_ok,
            "f_star_ok": self.f_star_ok,
            "identity_residual": self.identity_residual,
        }


def cosine_rescale(
    nf: AveragedNF,
    f: TrigPoly,
    delta: float,
    params: CoveringParams,
) -> CosineRescaledForm:
    """Rescale a resonant normal form by the leading cosine 2|f_k| eps.

    Requires |k|_1 >= N(delta) and the lower bound |f_k| >= delta |k|_1^{-n}
    e^{-|k|_1 s} at the resonance mode.  The majorants of g_star and f_star
    are compared against the thresholds K^{-5n} and e^{-K s / 7}; the flags
    report, they are never assumed.
    """
    if nf.kind != "resonant" or nf.res_k is None or nf.g_res is None:
        raise ValueError("cosine_rescale needs a resonant normal form")
    k = nf.res_k
    fk = f.coeff(k)
    if fk == 0:
        raise ValueError("vanishing leading mode")
    N = threshold_N(f.n, params.s, delta)
    if l1(k) < N:
        raise ValueError(f"|k|_1 = {l1(k)} below the threshold N = {N:.2f}")
    if abs(fk) < delta * l1(k) ** (-f.n) * math.exp(-l1(k) * params.s):
        raise ValueError("lower bound fails at the resonance mode")
    eta = 2.0 * abs(fk)
    theta_k = float(np.angle(fk)) % (2.0 * math.pi)
    pk = project_lattice(f, k)
    F_star = OneDTrigPoly(
        {j: c / eta for j, c in pk.coeffs.items() if j >= 2},
        tail_strip1=pk.tail_strip1 / eta,
    )

    # g_star grades: (g_res - pi_k f) / eta; the grade-1 projection cancels
    # coefficientwise, higher grades are divided through
    pk_series = nf.g_res[1].like()
    zero_m = (0,) * nf.n
    for j, c in pk.coeffs.items():
        pk_series.add_term(tuple(j * v for v in k), zero_m, c)
        pk_series.add_term(tuple(-j * v for v in k), zero_m, complex(np.conj(c)))
    g_star = [nf.g_res[0].like()]
    g_star.append(nf.g_res[1].plus(pk_series.scaled(-1.0)).scaled(1.0 / eta))
    for j in range(2, nf.order + 1):
        g_star.append(nf.g_res[j].scaled(nf.epsilon ** (j - 1) / eta))
    f_star = [nf.f_rem[0].like()]
    for j in range(1, nf.order + 1):
        f_star.append(nf.f_rem[j].scaled(nf.epsilon ** (j - 1) / eta))

    r_prime = params.r_k_prime(k)
    g_maj = ray_majorant(g_star, k, r_prime, 1.0)
    f_maj = float(sum(t.majorant(r_prime, params.s_star / 2.0) for t in f_star))
    g_thr = float(params.K) ** (-5 * nf.n)
    f_thr = math.exp(-params.K * params.s / 7.0)

    # reconstruction identity at sample points
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(32):
        y = nf.base_point + rng.uniform(-0.25, 0.25, nf.n) * r_prime
        x = rng.uniform(0.0, 2.0 * math.pi, nf.n)
        theta = float(np.dot(k, x))
        lhs = nf.nf_value(y, x)
        g_star_val = sum(t.evaluate(y, x).real for t in g_star[1:])
        f_star_val = sum(t.evaluate(y, x).real for t in f_star[1:])
        rhs = (
            0.5 * float(np.dot(y, y))
            + nf.epsilon * nf.g_o_value(y)
            + eta * nf.epsilon * (
                math.cos(theta + theta_k)
                + F_star.evaluate(theta).real
                + g_star_val
                + f_star_val
            )
        )
        worst = max(worst, abs(lhs - rhs))

    return CosineRescaledForm(
        theta_k=theta_k,
        eta=eta,
        F_star=F_star,
        g_star_grades=g_star,
        f_star_grades=f_star,
        epsilon=nf.epsilon,
        res_k=k,
        g_star_majorant=g_maj,
        f_star_majorant=f_maj,
        g_star_threshold=g_thr,
        f_star_threshold=f_thr,
        g_star_ok=g_maj <= g_thr,
        f_star_ok=f_maj <= f_thr,
        identity_residual=worst,
    )


def ray_majorant(grades: list[TaylorFourierSeries], k_res: Mode, r: float,
                 width: float) -> float:
    """sum over grades of sum |c| r^{|m|} e^{|j| width} for modes j*k_res."""
    total = 0.0
    for t in grades:
        for (j, m, c) in t.ray_terms(k_res):
            total += abs(c) * r ** sum(m) * math.exp(abs(j) * width)
    return total
