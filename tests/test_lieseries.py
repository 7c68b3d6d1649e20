import itertools
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from resoforge.cover import free_params
from resoforge.fourier import (
    TrigPoly,
    on_ray,
    project_lattice,
    two_mode_potential,
)
from resoforge.lieseries import (
    AveragedNF,
    NaturalHam,
    SmallDivisorError,
    TaylorFourierSeries,
    TruncationLedger,
    kinetic_series,
    lie_step_nonres,
    lie_step_res,
    ray_majorant,
    ray_series,
    _slots,
    solve_homological,
    verify_conjugacy,
)

TWO_PI = 2 * math.pi


def series(n=2, y0=(0.7, 0.31), deg=2, cutoff=8):
    return TaylorFourierSeries(n, np.asarray(y0, dtype=float), deg, cutoff)


def add_term(F, k, m, c, ledger=None):
    """Add c (y - y0)^m e^{i k.x} to F in place through the series' own merge:
    a zero c is skipped and a term beyond the truncation goes to the ledger."""
    F._store(*F._merged((F.K, F.M, F.C), F._rows([(k, m, c)], ledger)))


def reality_defect(F):
    """max |conj c_{k,m} - c_{-k,m}| over F's terms: 0 for a real series."""
    worst, terms = 0.0, F.terms
    for (k, m), c in terms.items():
        mirror = terms.get((tuple(-v for v in k), m), 0.0)
        worst = max(worst, abs(np.conj(c) - mirror))
    return worst


def natural_grad(ham, y, x):
    """(dH/dy, dH/dx) of the natural Hamiltonian ham at real points."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = np.zeros(ham.n)
    for k, c in ham.f.coeffs.items():
        kv = np.asarray(k, dtype=float)
        phase = c * np.exp(1j * float(kv @ x))
        dx += -2.0 * kv * phase.imag  # d/dx 2 Re(c e^{ikx}) = -2 k Im(c e^{ikx})
    return y, ham.epsilon * dx


class TestSeriesAlgebra:
    def test_kinetic_exact(self):
        rng = np.random.default_rng(0)
        h = kinetic_series(2, np.array([0.7, 0.31]), 3, 6)
        for _ in range(20):
            y = rng.normal(size=2)
            assert h.evaluate(y, np.zeros(2)).real == pytest.approx(
                0.5 * float(y @ y), rel=1e-14
            )

    def test_poisson_bracket_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        F = series(deg=3)
        add_term(F, (1, 0), (1, 0), 0.3 + 0.1j)
        add_term(F, (-1, 0), (1, 0), 0.3 - 0.1j)
        add_term(F, (0, 2), (0, 1), 0.2)
        add_term(F, (0, -2), (0, 1), 0.2)
        G = series(deg=3)
        add_term(G, (1, 1), (0, 0), 0.5)
        add_term(G, (-1, -1), (0, 0), 0.5)
        add_term(G, (0, 1), (2, 0), -0.1j)
        add_term(G, (0, -1), (2, 0), 0.1j)
        bracket = F.poisson(G, TruncationLedger())

        def fd_bracket(y, x, h=1e-6):
            def F_(y_, x_):
                return F.evaluate(y_, x_).real

            def G_(y_, x_):
                return G.evaluate(y_, x_).real

            total = 0.0
            for j in range(2):
                ey = np.zeros(2)
                ey[j] = h
                dF_y = (F_(y + ey, x) - F_(y - ey, x)) / (2 * h)
                dG_y = (G_(y + ey, x) - G_(y - ey, x)) / (2 * h)
                dF_x = (F_(y, x + ey) - F_(y, x - ey)) / (2 * h)
                dG_x = (G_(y, x + ey) - G_(y, x - ey)) / (2 * h)
                total += dF_x * dG_y - dF_y * dG_x
            return total

        for _ in range(10):
            y = np.array([0.7, 0.31]) + rng.uniform(-0.1, 0.1, 2)
            x = rng.uniform(0, TWO_PI, 2)
            assert bracket.evaluate(y, x).real == pytest.approx(
                fd_bracket(y, x), abs=5e-7
            )

    def test_reality_preserved(self):
        F = series()
        add_term(F, (1, 0), (0, 0), 0.3 + 0.2j)
        add_term(F, (-1, 0), (0, 0), 0.3 - 0.2j)
        G = series()
        add_term(G, (1, 1), (1, 0), 0.1j)
        add_term(G, (-1, -1), (1, 0), -0.1j)
        assert reality_defect(F.poisson(G, TruncationLedger())) < 1e-15

    def test_truncation_ledger(self):
        F = series(deg=1, cutoff=2)
        led = TruncationLedger()
        add_term(F, (3, 0), (0, 0), 2.0, led)       # beyond cutoff
        add_term(F, (1, 0), (1, 1), 1.5, led)       # beyond degree
        assert led.dropped == pytest.approx(3.5)
        assert F.is_empty

    def test_gradients(self):
        F = series(deg=2)
        add_term(F, (1, 1), (1, 0), 0.2 + 0.05j)
        add_term(F, (-1, -1), (1, 0), 0.2 - 0.05j)
        y = np.array([0.75, 0.28])
        x = np.array([0.4, 1.3])
        val, dy, dx = F.eval_grads(y, x)
        h = 1e-7
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            assert dy[j] == pytest.approx(
                (F.evaluate(y + e, x).real - F.evaluate(y - e, x).real) / (2 * h),
                abs=1e-6,
            )
            assert dx[j] == pytest.approx(
                (F.evaluate(y, x + e).real - F.evaluate(y, x - e).real) / (2 * h),
                abs=1e-6,
            )


@dataclass
class RefSeries:
    """The dict algebra the array storage replaced, kept as a test-only
    reference: `terms` in insertion order, `add_term` pops exact zeros, and
    `plus`, `scaled` and `split` are loops over the dict.  Its bracket is the
    library kernel on the same rows (pinned to `reference_poisson` below)."""

    n: int
    base_point: np.ndarray
    max_degree: int
    cutoff: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def of(cls, F):
        """F's algebra holding a copy of F's terms, in F's order."""
        return cls(F.n, F.base_point, F.max_degree, F.cutoff, dict(F.terms))

    def _with(self, terms):
        return RefSeries(self.n, self.base_point, self.max_degree, self.cutoff, terms)

    def like(self):
        return self._with({})

    @property
    def is_empty(self):
        return not self.terms

    def add_term(self, k, m, c, ledger=None):
        if c == 0:
            return
        if sum(abs(v) for v in k) > self.cutoff or sum(m) > self.max_degree:
            if ledger is not None:
                ledger.drop(abs(c))
            return
        key = (k, m)
        new = self.terms.get(key, 0.0) + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def plus(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            new = terms.get(key, 0.0) + c
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
        return self._with(terms)

    def scaled(self, a):
        out = self.like()
        if a != 0:
            out.terms.update((key, a * c) for key, c in self.terms.items())
        return out

    def split(self, predicate):
        sel, rest, predicate = {}, {}, cache(predicate)
        for key, c in self.terms.items():
            (sel if predicate(key[0]) else rest)[key] = c
        return self._with(sel), self._with(rest)

    def poisson(self, other, ledger=None):
        return RefSeries.of(to_series(self).poisson(to_series(other), ledger))


def to_series(F):
    """A library series holding F's terms exactly (-0.0 parts included), in
    F's order; F's keys are unique and its coefficients nonzero."""
    terms = F.terms
    K = np.array([k for k, _ in terms], dtype=np.int64).reshape(len(terms), F.n)
    M = np.array([m for _, m in terms], dtype=np.int64).reshape(len(terms), F.n)
    out = TaylorFourierSeries(F.n, F.base_point, F.max_degree, F.cutoff)
    return out._store(K, M, np.array(list(terms.values()), dtype=complex))


def exact_items(F):
    """F's terms in order, each coefficient as its repr (which tells -0.0 from 0.0)."""
    return [(key, repr(complex(c))) for key, c in F.terms.items()]


def reference_poisson(F, G, ledger):
    """{F, G} term pair by term pair: the double loop the array kernel replaced."""
    out = RefSeries.of(F).like()
    for (k1, m1), c1 in F.terms.items():
        for (k2, m2), c2 in G.terms.items():
            ksum = tuple(a + b for a, b in zip(k1, k2))
            base = c1 * c2
            for j in range(F.n):
                coef = 1j * (k1[j] * m2[j] - k2[j] * m1[j])
                if coef == 0:
                    continue
                msum = list(m1)
                for i in range(F.n):
                    msum[i] += m2[i]
                msum[j] -= 1
                out.add_term(ksum, tuple(msum), base * coef, ledger)
    return out


def random_real_series(rng, n, deg, cutoff, count):
    """A real series (c_{-k,m} = conj c_{k,m}) with random terms plus one
    term at |k|_1 = cutoff and one at |m| = max_degree."""
    F = TaylorFourierSeries(n, rng.uniform(-1, 1, n), deg, cutoff)
    edge_k = (cutoff,) + (0,) * (n - 1)
    edge_m = (0,) * (n - 1) + (deg,)
    picks = [(edge_k, (1,) + (0,) * (n - 1)), ((1,) + (0,) * (n - 1), edge_m)]
    while len(picks) < count:
        k = tuple(int(v) for v in rng.integers(-cutoff, cutoff + 1, n))
        m = tuple(int(v) for v in rng.integers(0, deg + 1, n))
        if sum(abs(v) for v in k) <= cutoff and sum(m) <= deg:
            picks.append((k, m))
    for k, m in picks:
        c = complex(rng.normal(), rng.normal())
        add_term(F, k, m, c)
        add_term(F, tuple(-v for v in k), m, c.conjugate())
    return F


def assert_bracket_matches(out, ref, led_out, led_ref, norm=None):
    """Coefficients within 1e-13 of the output's l1 norm (or of `norm`),
    dropped mass per grade within 1e-12 relative."""
    if norm is None:
        norm = sum(abs(c) for c in ref.terms.values())
    for key in set(out.terms) | set(ref.terms):
        assert abs(out.terms.get(key, 0.0) - ref.terms.get(key, 0.0)) <= 1e-13 * norm, key
    assert set(led_out.by_grade) == set(led_ref.by_grade)
    for g, mass in led_ref.by_grade.items():
        assert led_out.by_grade[g] == pytest.approx(mass, rel=1e-12)


class TestArrayBracket:
    @pytest.mark.parametrize("n, deg, cutoff", [(2, 3, 6), (2, 5, 8), (3, 3, 5), (3, 4, 4),
                                                (3, 3, 12)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, n, deg, cutoff, seed):
        rng = np.random.default_rng([n, deg, cutoff, seed])
        F = random_real_series(rng, n, deg, cutoff, 40)
        G = random_real_series(rng, n, deg, cutoff, 25)
        G.base_point = F.base_point
        led_out, led_ref = TruncationLedger(grade=2), TruncationLedger(grade=2)
        out = F.poisson(G, led_out)
        ref = reference_poisson(F, G, led_ref)
        assert ref.terms and led_ref.by_grade[2] > 0
        # the truncation edges are exercised: kept terms sit on both of them
        assert max(sum(abs(v) for v in k) for k, _m in ref.terms) == cutoff
        assert max(sum(m) for _k, m in ref.terms) == deg
        assert_bracket_matches(out, ref, led_out, led_ref)
        assert reality_defect(out) <= 1e-13 * sum(abs(c) for c in ref.terms.values())

    def test_block_boundaries(self, monkeypatch):
        # rows of self span several blocks, and a block is a single row
        import resoforge.lieseries as ls
        rng = np.random.default_rng(7)
        F = random_real_series(rng, 2, 4, 6, 60)
        G = random_real_series(rng, 2, 4, 6, 30)
        led_ref = TruncationLedger()
        ref = reference_poisson(F, G, led_ref)
        # every key is summed in term-pair order, so the coefficients have the same bytes
        whole = exact_items(F.poisson(G))
        for pairs in (1, 7, 100):
            monkeypatch.setattr(ls, "_BLOCK_PAIRS", pairs)
            led_out = TruncationLedger()
            out = F.poisson(G, led_out)
            assert_bracket_matches(out, ref, led_out, led_ref)
            assert exact_items(out) == whole

    @pytest.mark.parametrize("n, deg, cutoff, size", [(2, 3, 8, 1450), (2, 0, 3, 25),
                                                      (3, 3, 12, 52500), (3, 4, 4, 4515)])
    def test_one_slot_per_admissible_key(self, n, deg, cutoff, size):
        # the accumulator has one slot per (k, m) with |k|_1 <= cutoff, |m| <= deg,
        # numbered 0.. without gaps, not one per entry of the packed digit box
        table = _slots(n, cutoff, deg)
        keys = [(k, m) for k in itertools.product(range(-cutoff, cutoff + 1), repeat=n)
                if sum(map(abs, k)) <= cutoff
                for m in itertools.product(range(deg + 1), repeat=n) if sum(m) <= deg]
        assert len(keys) == size == len(table.modes) * len(table.monos)
        K = np.array([k for k, _m in keys]).reshape(-1, n)
        M = np.array([m for _k, m in keys]).reshape(-1, n)
        slot = table.of(K, M)
        assert sorted(slot.tolist()) == list(range(size))
        # a slot decodes to its key
        monos = len(table.monos)
        assert np.array_equal(table.modes[slot // monos], K)
        assert np.array_equal(table.monos[slot % monos], M)

    def test_empty_operand(self):
        rng = np.random.default_rng(3)
        F = random_real_series(rng, 3, 3, 4, 10)
        empty = F.like()
        led = TruncationLedger()
        assert F.poisson(empty, led).is_empty
        assert empty.poisson(F, led).is_empty
        assert led.by_grade == {}

    def test_cancelling_contributions(self):
        # {F, F} = 0: the pair (a, b) cancels (b, a); with one conjugate pair
        # every output key gets exactly c and -c, and no zero is kept
        F = series(deg=3, cutoff=5)
        add_term(F, (2, 1), (1, 1), 0.3 + 0.2j)
        add_term(F, (-2, -1), (1, 1), 0.3 - 0.2j)
        led_out, led_ref = TruncationLedger(), TruncationLedger()
        assert F.poisson(F, led_out).is_empty
        assert reference_poisson(F, F, led_ref).is_empty
        # many terms: cancellation leaves rounding residue, the same as the loop's
        rng = np.random.default_rng(4)
        F = random_real_series(rng, 2, 3, 5, 30)
        led_out, led_ref = TruncationLedger(), TruncationLedger()
        scale = sum(abs(c) for c in F.terms.values()) ** 2
        assert_bracket_matches(F.poisson(F, led_out), reference_poisson(F, F, led_ref),
                               led_out, led_ref, scale)
        # partial cancellation: {F, F + G} = {F, G} up to that residue
        G = random_real_series(rng, 2, 3, 5, 12)
        G.base_point = F.base_point
        led_out, led_ref = TruncationLedger(), TruncationLedger()
        assert_bracket_matches(F.poisson(F.plus(G), led_out),
                               reference_poisson(F, F.plus(G), led_ref), led_out, led_ref)

    def test_compiled_arrays_follow_in_place_writes(self):
        # `terms` and the arrays cannot be written; rebinding the rows, as
        # add_term does, drops the evaluator's tables, so the evaluator and
        # the bracket both see what it adds
        rng = np.random.default_rng(5)
        F = random_real_series(rng, 2, 3, 5, 12)
        G = random_real_series(rng, 2, 3, 5, 8)
        G.base_point = F.base_point
        y, x = F.base_point + 0.1, np.array([0.3, 1.1])
        before = F.evaluate(y, x)            # the evaluator's tables are built now
        (k, m), c = next(iter(F.terms.items()))
        with pytest.raises(TypeError):
            F.terms[(k, m)] = c + 0.25
        with pytest.raises(AttributeError):
            F.terms = {}
        with pytest.raises(ValueError):
            F.C[0] = c + 0.25
        assert F.evaluate(y, x) == before
        add_term(F, k, m, 0.25)               # same length, one new coefficient
        after = before + 0.25 * np.prod((y - F.base_point) ** np.array(m)) * np.exp(1j * np.dot(k, x))
        assert F.evaluate(y, x) == pytest.approx(after, rel=1e-14)
        led_out, led_ref = TruncationLedger(), TruncationLedger()
        assert_bracket_matches(F.poisson(G, led_out), reference_poisson(F, G, led_ref),
                               led_out, led_ref)
        # a new key is one more row, seen by both as well
        k_new, m_new = (0, 5), (1, 0)
        assert (k_new, m_new) not in F.terms
        add_term(F, k_new, m_new, 0.5)
        after += 0.5 * (y - F.base_point)[0] * np.exp(1j * 5 * x[1])
        assert F.evaluate(y, x) == pytest.approx(after, rel=1e-14)
        led_out, led_ref = TruncationLedger(), TruncationLedger()
        assert_bracket_matches(F.poisson(G, led_out), reference_poisson(F, G, led_ref),
                               led_out, led_ref)

    def test_deterministic_order(self):
        rng = np.random.default_rng(6)
        F = random_real_series(rng, 3, 3, 5, 30)
        G = random_real_series(rng, 3, 3, 5, 20)
        a, b = F.poisson(G), to_series(RefSeries.of(F)).poisson(to_series(RefSeries.of(G)))
        assert list(a.terms.items()) == list(b.terms.items())


def reference_eval_grads(F, y, x):
    """(value, dF/dy, dF/dx) at one real point: the per-coordinate loop the
    compiled evaluator replaced, with its recompute where w_l = 0."""
    if not F.terms:
        return 0.0, np.zeros(F.n), np.zeros(F.n)
    K = np.array([k for k, _ in F.terms], dtype=np.int64).reshape(len(F.terms), F.n)
    M = np.array([m for _, m in F.terms], dtype=np.int64).reshape(len(F.terms), F.n)
    C = np.array(list(F.terms.values()), dtype=complex)

    def powers(w, M):
        table = np.power(w[:, None], np.arange(F.max_degree + 1))
        table[:, 0] = 1.0
        return table[np.arange(F.n), M]

    w = np.asarray(y, dtype=float) - F.base_point
    mono = np.prod(powers(w, M), axis=1)
    base = C * np.exp(1j * (K @ np.asarray(x, dtype=float)))
    val = float(np.real(np.sum(base * mono)))
    dy = np.zeros(F.n)
    for lcomp in range(F.n):
        ml = M[:, lcomp]
        with np.errstate(divide="ignore", invalid="ignore"):
            reduced = np.where(ml > 0, mono * ml / np.where(w[lcomp] != 0, w[lcomp], 1.0), 0.0)
        if w[lcomp] == 0:
            sel = ml > 0
            if np.any(sel):
                Msel = M[sel].copy()
                Msel[:, lcomp] -= 1
                reduced = np.zeros_like(mono)
                reduced[sel] = np.prod(powers(w, Msel), axis=1) * ml[sel]
        dy[lcomp] = float(np.real(np.sum(base * reduced)))
    dx = np.real((1j * base * mono) @ K)
    return val, dy, np.asarray(dx, dtype=float)


class TestCompiledEvaluator:
    @staticmethod
    def tolerance(F):
        return 1e-14 * sum(abs(c) * (1 + sum(abs(v) for v in k)) for (k, _m), c in F.terms.items())

    def assert_matches_reference(self, F, ys, xs):
        tol = self.tolerance(F)
        val, dy, dx = F.eval_grads(ys, xs)
        values = F.evaluate(ys, xs)
        assert val.shape == (len(ys),) and dy.shape == dx.shape == (len(ys), F.n)
        for p, (y, x) in enumerate(zip(ys, xs)):
            ref_val, ref_dy, ref_dx = reference_eval_grads(F, y, x)
            assert abs(val[p] - ref_val) <= tol
            assert abs(values[p].real - ref_val) <= tol
            assert np.max(np.abs(dy[p] - ref_dy)) <= tol
            assert np.max(np.abs(dx[p] - ref_dx)) <= tol

    @pytest.mark.parametrize("n, deg, cutoff", [(2, 3, 6), (2, 5, 8), (3, 3, 5), (3, 4, 4)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_points(self, n, deg, cutoff, seed):
        rng = np.random.default_rng([n, deg, cutoff, seed, 1])
        F = random_real_series(rng, n, deg, cutoff, 30)
        ys = F.base_point + rng.uniform(-0.5, 0.5, (6, n))
        xs = rng.uniform(0, TWO_PI, (6, n))
        self.assert_matches_reference(F, ys, xs)

    @pytest.mark.parametrize("n, deg", [(2, 3), (3, 4)])
    def test_zero_offsets(self, n, deg):
        # every w_l = 0 at the base point, then one w_l = 0 at a time: the
        # d/dy_l monomials with m_l = 1 are the only nonzero ones there
        rng = np.random.default_rng([n, deg, 2])
        F = random_real_series(rng, n, deg, 5, 30)
        ys = [F.base_point.copy()]
        for lcomp in range(n):
            y = F.base_point + rng.uniform(-0.5, 0.5, n)
            y[lcomp] = F.base_point[lcomp]
            ys.append(y)
        xs = rng.uniform(0, TWO_PI, (len(ys), n))
        self.assert_matches_reference(F, np.array(ys), xs)
        _val, dy, _dx = F.eval_grads(F.base_point, xs[0])
        assert np.abs(dy).max() > 0

    def test_degree_zero_and_empty(self):
        rng = np.random.default_rng(8)
        F = random_real_series(rng, 2, 0, 4, 10)
        ys = F.base_point + rng.uniform(-0.5, 0.5, (4, 2))
        xs = rng.uniform(0, TWO_PI, (4, 2))
        self.assert_matches_reference(F, ys, xs)
        assert np.all(F.eval_grads(ys, xs)[1] == 0.0)
        empty = F.like()
        val, dy, dx = empty.eval_grads(ys[0], xs[0])
        assert val == 0.0 and dy.shape == dx.shape == (2,) and not dy.any() and not dx.any()
        val, dy, dx = empty.eval_grads(ys, xs)
        assert val.shape == (4,) and dy.shape == dx.shape == (4, 2)
        assert empty.evaluate(ys[0], xs[0]) == 0.0

    def test_single_point_matches_batch(self):
        rng = np.random.default_rng(9)
        F = random_real_series(rng, 3, 4, 5, 40)
        tol = self.tolerance(F)
        ys = F.base_point + rng.uniform(-0.5, 0.5, (5, 3))
        xs = rng.uniform(0, TWO_PI, (5, 3))
        val, dy, dx = F.eval_grads(ys, xs)
        values = F.evaluate(ys, xs)
        for p in range(5):
            for y, x in ((ys[p], xs[p]), (ys[p:p + 1], xs[p:p + 1])):
                one_val, one_dy, one_dx = F.eval_grads(y, x)
                assert np.shape(one_val) == np.shape(y)[:-1]
                assert one_dy.shape == one_dx.shape == np.shape(y)
                assert abs(one_val - val[p]) <= tol
                assert np.max(np.abs(one_dy - dy[p])) <= tol
                assert np.max(np.abs(one_dx - dx[p])) <= tol
                assert np.max(np.abs(F.evaluate(y, x) - values[p])) <= tol
            assert isinstance(F.eval_grads(ys[p], xs[p])[0], float)


class TestHomological:
    def test_single_mode_inverse(self):
        # chi for B = cos(k.x) must be sin(k.x)/(y0.k) at degree zero
        y0 = np.array([0.7, 0.31])
        B = series(deg=2, cutoff=4)
        add_term(B, (1, 1), (0, 0), 0.5)
        add_term(B, (-1, -1), (0, 0), 0.5)
        chi, log, _ = solve_homological(B, y0, 1e-6, "test")
        div = float(y0 @ [1, 1])
        assert chi.terms[((1, 1), (0, 0))] == pytest.approx(0.5 / (1j * div))
        assert dict(log)[(1, 1)] == pytest.approx(abs(div))

    def test_small_divisor_raises_with_witness(self):
        y0 = np.array([0.5, -0.5])
        B = series(deg=2, cutoff=4)
        add_term(B, (1, 1), (0, 0), 0.5)
        with pytest.raises(SmallDivisorError) as err:
            solve_homological(B, y0, 1e-6, "test")
        assert err.value.mode == (1, 1)

    def test_bracket_with_kinetic_cancels_band(self):
        # {h, chi} + B vanishes within the retained degrees
        y0 = np.array([0.7, 0.31])
        h = kinetic_series(2, y0, 4, 6)
        B = series(deg=4, cutoff=6)
        add_term(B, (1, 1), (0, 0), 0.5)
        add_term(B, (-1, -1), (0, 0), 0.5)
        add_term(B, (1, 0), (1, 0), 0.2)
        add_term(B, (-1, 0), (1, 0), 0.2)
        chi, _, _ = solve_homological(B, y0, 1e-6, "test")
        resid = h.poisson(chi, TruncationLedger()).plus(B)
        low = {key: c for key, c in resid.terms.items() if sum(key[1]) < 4}
        worst = max((abs(c) for c in low.values()), default=0.0)
        assert worst < 1e-14


def reference_solve_homological(B, y0, min_divisor, context):
    """solve_homological as it was before per-degree candidate levels: each
    degree rescans every solved monomial and sorts a fresh candidate set."""
    y0 = np.asarray(y0, dtype=float)
    n = B.n
    chi = RefSeries.of(B).like()
    log = []
    by_mode = {}
    for (k, m), c in B.terms.items():
        by_mode.setdefault(k, {})[m] = c
    overflow = 0.0
    for k, monos in by_mode.items():
        div = float(np.dot(y0, k))
        if abs(div) <= min_divisor:
            raise SmallDivisorError(context, mode=k, value=abs(div))
        log.append((k, abs(div)))
        solved = {}
        for deg in range(B.max_degree + 1):
            candidates = {m for m in monos if sum(m) == deg}
            for m_low in solved:
                if sum(m_low) != deg - 1:
                    continue
                for j in range(n):
                    if k[j] != 0:
                        up = list(m_low)
                        up[j] += 1
                        candidates.add(tuple(up))
            for m in sorted(candidates):
                acc = complex(monos.get(m, 0.0))
                for j in range(n):
                    if k[j] == 0 or m[j] == 0:
                        continue
                    lower = list(m)
                    lower[j] -= 1
                    prev = solved.get(tuple(lower))
                    if prev is not None:
                        acc -= 1j * k[j] * prev
                solved[m] = acc / (1j * div)
        for m, c in solved.items():
            chi.add_term(k, m, c)
            if sum(m) == B.max_degree:
                overflow += sum(abs(k[j]) for j in range(n)) * abs(c)
    return chi, log, overflow


# one mode from each l1 shell 1, 2, 3 with amplitudes 0.15-0.5 and random
# phases: the averaging benchmark's draw of three-mode potentials
SHELLS = (((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 2), (2, 1), (1, -2), (2, -1)))


def averaging_potential(rng, must_have=None):
    modes = [must_have if must_have in shell else shell[int(rng.integers(len(shell)))]
             for shell in SHELLS]
    return TrigPoly(2, {k: 0.5 * rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, TWO_PI))
                        for k in modes})


class TestHomologicalLevels:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chi_bit_identical_to_reference(self, seed, monkeypatch):
        # every band the averaging steps solve, nonresonant and resonant, at
        # orders up to 4 and degree 3: same keys, order, values and overflow
        import resoforge.lieseries as ls
        solve = ls.solve_homological
        calls = []

        def spy(B, y0, min_divisor, context):
            out = solve(B, y0, min_divisor, context)
            ref = reference_solve_homological(B, y0, min_divisor, context)
            assert list(out[0].terms.items()) == list(ref[0].terms.items())
            assert out[1] == ref[1] and out[2] == ref[2]
            calls.append(len(out[0].terms))
            return out

        monkeypatch.setattr(ls, "solve_homological", spy)
        rng = np.random.default_rng([2, seed, 0])
        ham = NaturalHam(2, 1e-3, averaging_potential(rng))
        lie_step_nonres(ham, free_params(2, 1.0, alpha=0.02, K0=2, K=8),
                        np.array([0.7, 0.31]), order=4, max_degree=3)
        k = (1, 1)
        ham = NaturalHam(2, 1e-3, averaging_potential(rng, must_have=k))
        lie_step_res(ham, k, free_params(2, 1.0, alpha=0.03, K0=2, K=6),
                     np.array([0.5, -0.5]), order=4, max_degree=3)
        assert len(calls) >= 6 and max(calls) > 20


def reference_lie_transform(grades, chi, j, B, ledger):
    """lie_transform in the dict algebra: each bracket term is added to its
    target grade by `plus` as soon as it is formed."""
    D = len(grades) - 1
    out = [RefSeries.of(g) for g in grades]
    out[j] = out[j].plus(B.scaled(-1.0))
    term = B.scaled(-1.0)
    i = 1
    while j * (i + 1) <= D:
        i += 1
        ledger.grade = j * i
        term = term.poisson(chi, ledger).scaled(1.0 / i)
        out[j * i] = out[j * i].plus(term)
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


def reference_average(ham, params, y0, order, max_degree, k):
    """The averaging steps in the dict algebra, built term by term with
    add_term: (kinetic, g_o, g_res, f_rem, chis, divisor log, dropped mass
    by grade), the grade lists indexed from grade 1."""
    y0 = np.asarray(y0, dtype=float)
    if k is None:
        band_pred = lambda kk: 0 < sum(abs(v) for v in kk) <= params.K0
        min_divisor = params.alpha / 2.0
    else:
        band_pred = lambda kk: any(kk) and on_ray(kk, k) is None
        min_divisor = 2.0 * params.alpha * params.K / math.sqrt(sum(v * v for v in k))
    n, ledger = ham.n, TruncationLedger()
    zero = (0,) * n
    h = RefSeries(n, y0, max_degree, params.K)
    h.add_term(zero, zero, 0.5 * float(np.dot(y0, y0)))
    for j in range(n):
        e_j = tuple(int(i == j) for i in range(n))
        h.add_term(zero, e_j, float(y0[j]))
        h.add_term(zero, tuple(2 * v for v in e_j), 0.5)
    f1 = h.like()
    ledger.grade = 1
    for kk, c in ham.f.coeffs.items():
        f1.add_term(kk, zero, c, ledger)
        f1.add_term(tuple(-v for v in kk), zero, complex(np.conj(c)), ledger)
    ledger.grade = 0
    grades = [h, f1] + [h.like() for _ in range(2, order + 1)]
    chis, log = [], []
    for j in range(1, order + 1):
        band, _rest = grades[j].split(band_pred)
        if band.is_empty:
            continue
        chi, divisors, overflow = reference_solve_homological(band, y0, min_divisor, "reference")
        ledger.drop(overflow, grade=j)
        log.extend(divisors)
        grades = reference_lie_transform(grades, chi, j, band, ledger)
        chis.append((j, chi))
    g_o, g_res, f_rem = [], [], []
    for j in range(1, order + 1):
        osc, zero_part = grades[j].split(any)
        g_o.append(zero_part)
        if k is not None:
            line, osc = osc.split(lambda kk: on_ray(kk, k) is not None)
            g_res.append(line)
        f_rem.append(osc)
    return grades[0], g_o, g_res, f_rem, chis, log, dict(ledger.by_grade)


def zero_part_series():
    """Coefficients with exact zero real or imaginary parts, of both signs,
    so that scaling makes -0.0 parts."""
    Z = series(deg=2, cutoff=4)
    for k, m, c in [((1, 0), (0, 0), 0.5j), ((-1, 0), (0, 0), -0.5j), ((0, 1), (1, 0), -0.25),
                    ((0, -1), (1, 0), -0.25), ((1, 1), (0, 1), complex(-1.5, 0.0)),
                    ((-1, -1), (0, 1), complex(-1.5, 0.0)), ((2, 0), (0, 0), -0.75j),
                    ((-2, 0), (0, 0), 0.75j)]:
        add_term(Z, k, m, c)
    return Z


class TestArrayStorage:
    @pytest.mark.parametrize("seed, k", [(1, (1, 1)), (2, (1, -1)), (3, (1, 2))])
    def test_averaging_matches_dict_reference(self, seed, k):
        # lie_step_nonres and lie_step_res at orders 2-5 on the averaging
        # benchmark's draws: every grade, chi, divisor and dropped mass is the
        # dict algebra's, in the same order and bit for bit (-0.0 included)
        rng = np.random.default_rng([2, seed, 0])
        u = np.array([-k[1], k[0]], dtype=float)
        cases = [(None, averaging_potential(rng), free_params(2, 1.0, alpha=0.02, K0=2, K=8),
                  np.array([0.7, 0.31])),
                 (k, averaging_potential(rng, must_have=k),
                  free_params(2, 1.0, alpha=0.03, K0=2, K=6), 0.7 * u / np.linalg.norm(u))]
        for kk, f, params, y0 in cases:
            ham = NaturalHam(2, 1e-3, f)
            for order in (2, 3, 4, 5):
                if kk is None:
                    nf = lie_step_nonres(ham, params, y0, order=order, max_degree=3)
                else:
                    nf = lie_step_res(ham, kk, params, y0, order=order, max_degree=3)
                kinetic, g_o, g_res, f_rem, chis, log, dropped = reference_average(
                    ham, params, y0, order, 3, kk)
                assert exact_items(nf.kinetic) == exact_items(kinetic)
                for j in range(1, order + 1):
                    assert exact_items(nf.g_o[j]) == exact_items(g_o[j - 1])
                    assert exact_items(nf.f_rem[j]) == exact_items(f_rem[j - 1])
                    if kk is not None:
                        assert exact_items(nf.g_res[j]) == exact_items(g_res[j - 1])
                assert [(j, exact_items(c)) for j, c in nf.chi] == \
                    [(j, exact_items(c)) for j, c in chis]
                assert nf.divisor_log == log and nf.dropped_by_grade == dropped
                assert len(nf.chi) == order and sum(len(c.terms) for _j, c in nf.chi) > 40

    def test_exact_cancellation_zero_parts_and_empty_operands(self):
        rng = np.random.default_rng(11)
        F = random_real_series(rng, 2, 2, 4, 10)
        Z = zero_part_series()
        Z.base_point = F.base_point
        empty = F.like()
        # G cancels three of F's terms exactly, changes two and adds new ones
        G = F.like()
        for (kk, m), c in list(F.terms.items())[:5]:
            add_term(G, kk, m, -c if len(G.terms) < 3 else 0.5 * c)
        G = G.plus(Z)
        minus = {a: x.scaled(-1.0) for a, x in (("F", F), ("Z", Z), ("G", G))}
        assert F.plus(minus["F"]).is_empty and minus["F"].plus(F).is_empty
        assert any(math.copysign(1.0, v) < 0 for c in minus["Z"].C for v in (c.real, c.imag)
                   if v == 0)
        for left in (F, G, Z, empty):
            for right in (F, G, Z, empty, *minus.values()):
                out = left.plus(right)
                ref = RefSeries.of(left).plus(RefSeries.of(right))
                assert exact_items(out) == exact_items(ref)
                # a merge sums every key from 0.0, so no part is -0.0
                assert not any(math.copysign(1.0, v) < 0 for c in out.C for v in (c.real, c.imag)
                               if v == 0)
        for x in (F, Z, G, empty):
            for a in (-1.0, 0.5, np.float64(-2.0), 1j, complex(0.3, -0.0), -0.0, 0):
                assert exact_items(x.scaled(a)) == exact_items(RefSeries.of(x).scaled(a))
            for predicate in (any, lambda kk: kk[0] > 0, lambda kk: True, lambda kk: False):
                for part, ref in zip(x.split(predicate), RefSeries.of(x).split(predicate)):
                    assert exact_items(part) == exact_items(ref)

    def test_add_term_sequence_matches_dict_reference(self):
        # zero terms skipped, terms beyond the truncation to the ledger one by
        # one, a cancelled key removed and appended again when it comes back
        F, ref = series(deg=2, cutoff=3), RefSeries.of(series(deg=2, cutoff=3))
        led, led_ref = TruncationLedger(), TruncationLedger()
        steps = [((1, 0), (0, 0), 0.5), ((0, 1), (1, 0), 0.25j), ((1, 0), (0, 0), -0.5),
                 ((2, 1), (0, 0), 0), ((3, 1), (0, 0), 1.5), ((0, 1), (1, 2), 2.0),
                 ((-1, 1), (2, 0), complex(0.0, -0.0) - 0.3), ((1, 0), (0, 0), 0.125),
                 ((0, 1), (1, 0), np.complex128(0.5 - 0.25j)), ((-1, 1), (2, 0), 0.3)]
        for kk, m, c in steps:
            add_term(F, kk, m, c, led)
            ref.add_term(kk, m, c, led_ref)
            assert exact_items(F) == exact_items(ref)
        assert list(F.terms) == [((0, 1), (1, 0)), ((1, 0), (0, 0))]
        assert led.by_grade == led_ref.by_grade == {0: 3.5}

    @pytest.mark.parametrize("k", [(1, 1), (1, -1), (2, 1)])
    def test_ray_series_matches_term_loops(self, k):
        # the Z k series of pi_k f, and g - pi_k f as standardize forms it,
        # against the per-term add_term loops they replaced
        f = TrigPoly(2, {(1, 1): 0.3 - 0.1j, (2, 2): -0.05j, (1, -1): 0.2, (2, -2): 0.01 + 0.02j,
                         (2, 1): 0.07, (4, 2): 0.003j, (6, 3): 1e-4, (3, 1): 0.2})
        pk = project_lattice(f, k)
        rng = np.random.default_rng(12)
        g = random_real_series(rng, 2, 2, 6, 8)
        for j, c in list(pk.coeffs.items())[:1]:
            add_term(g, tuple(j * v for v in k), (0, 0), 0.5 * c)
        zero = (0, 0)
        ref, diff = RefSeries.of(g.like()), RefSeries.of(g)
        for j, c in pk.coeffs.items():
            ref.add_term(tuple(j * v for v in k), zero, c)
            ref.add_term(tuple(-j * v for v in k), zero, complex(np.conj(c)))
            diff.add_term(tuple(j * v for v in k), zero, -c)
            diff.add_term(tuple(-j * v for v in k), zero, -complex(np.conj(c)))
        assert len(pk.coeffs) >= 2 and not ref.is_empty
        assert exact_items(ray_series(g, pk, k)) == exact_items(ref)
        assert exact_items(g.plus(ray_series(g, pk, k).scaled(-1.0))) == exact_items(diff)


def nonres_setup(eps=1e-3, order=1, deg=2, f=None):
    f = TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7}) if f is None else f
    params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
    y0 = np.array([0.7, 0.31])
    ham = NaturalHam(2, eps, f)
    return ham, lie_step_nonres(ham, params, y0, order=order, max_degree=deg), params, y0


class TestNonresonantStep:
    def test_band_support_exactly_empty(self):
        _, nf, _, _ = nonres_setup(order=2, deg=3)
        assert nf.band_coefficient_maxima() == 0.0

    def test_identity_step_when_no_band_modes(self):
        f = TrigPoly.from_cosines(2, {(3, 2): 0.6, (4, -3): 0.2})  # all above K0
        ham, nf, _, _ = nonres_setup(f=f)
        assert not nf.chi
        assert nf.g_o[1].is_empty
        # the remainder is the potential itself
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(0, TWO_PI, 2)
            assert nf.f_rem[1].evaluate(nf.base_point, x).real == pytest.approx(
                f.evaluate(x).real, abs=1e-14
            )

    def test_single_mode_normal_part_second_order(self):
        f = TrigPoly.from_cosines(2, {(1, 1): 1.0})
        _, nf, _, _ = nonres_setup(order=2, f=f)
        assert nf.g_o[1].is_empty            # zero average at first order
        assert not nf.g_o[2].is_empty        # O(eps^2) y-dependent normal part
        assert nf.band_coefficient_maxima() == 0.0

    def test_divisor_log_threshold(self):
        _, nf, params, y0 = nonres_setup()
        assert nf.divisor_log
        for mode, value in nf.divisor_log:
            assert value > params.alpha / 2
            assert value == pytest.approx(abs(float(np.dot(y0, mode))))

    def test_resonant_base_point_rejected(self):
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0})
        params = free_params(2, 1.0, alpha=0.3, K0=2, K=8)
        ham = NaturalHam(2, 1e-3, f)
        with pytest.raises(SmallDivisorError, match="resonant at base point"):
            lie_step_nonres(ham, params, np.array([0.1, 0.8]), order=1)


class TestResonantStep:
    def setup_method(self):
        self.f = two_mode_potential(1.0)
        self.params = free_params(2, 1.0, alpha=0.03, K0=2, K=6)
        self.y0 = np.array([0.5, -0.5])
        self.k = (1, 1)

    def test_projection_recovered_exactly_at_order_one(self):
        ham = NaturalHam(2, 1e-3, self.f)
        nf = lie_step_res(ham, self.k, self.params, self.y0, order=1)
        pk = project_lattice(self.f, self.k)
        # g_res grade 1 must equal pi_k f coefficientwise, exactly
        terms = dict(nf.g_res[1].terms)
        for j, c in pk.coeffs.items():
            mode = tuple(j * v for v in self.k)
            assert terms.pop((mode, (0, 0))) == c
            mode_neg = tuple(-j * v for v in self.k)
            assert terms.pop((mode_neg, (0, 0))) == np.conj(c)
        assert not terms

    def test_line_annihilation_exact(self):
        ham = NaturalHam(2, 1e-3, self.f)
        nf = lie_step_res(ham, self.k, self.params, self.y0, order=2, max_degree=3)
        assert nf.band_coefficient_maxima() == 0.0

    def test_pure_line_potential_untouched(self):
        f = TrigPoly.from_cosines(2, {(1, 1): 0.8})
        ham = NaturalHam(2, 1e-3, f)
        nf = lie_step_res(ham, self.k, self.params, self.y0, order=1)
        assert not nf.chi
        assert all(t.is_empty for t in nf.f_rem[1:])

    def test_off_line_divisor_guard(self):
        params = free_params(2, 1.0, alpha=0.2, K0=2, K=6)
        ham = NaturalHam(2, 1e-3, self.f)
        with pytest.raises(SmallDivisorError):
            lie_step_res(ham, self.k, params, np.array([0.05, -0.04]), order=1)


def nf_remainder_norm(nf, r, s_prime):
    """ell^1 majorant of sum_j eps^j f_rem_j on the r-polydisk and the s_prime-strip."""
    return sum(nf.epsilon ** j * nf.f_rem[j].majorant(r, s_prime) for j in range(1, nf.order + 1))


class TestRemainderNorm:
    def test_zero_remainder(self):
        f = TrigPoly.from_cosines(2, {(1, 1): 0.8})
        params = free_params(2, 1.0, alpha=0.03, K0=2, K=6)
        ham = NaturalHam(2, 1e-3, f)
        nf = lie_step_res(ham, (1, 1), params, np.array([0.5, -0.5]), order=1)
        assert nf_remainder_norm(nf, 0.1, 0.5) == 0.0

    def test_single_mode_amplitude(self):
        f = TrigPoly.from_cosines(2, {(2, 1): 0.0})
        params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
        nf = lie_step_nonres(NaturalHam(2, 0.5, f), params, np.array([0.7, 0.31]))
        a, m = 0.37, 3
        add_term(nf.f_rem[1], (2, 1), (0, 0), a)
        assert nf_remainder_norm(nf, 0.1, 0.8) == pytest.approx(
            0.5 * a * math.exp(m * 0.8)
        )

    def test_smoothing_factor(self):
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0, (3, 2): 0.5, (4, -2): 0.25})
        _, nf, _, _ = nonres_setup(order=1, f=f)
        s, sp = 0.8, 0.3
        minband = min(
            sum(abs(v) for v in k)
            for j in range(1, nf.order + 1)
            for (k, _m) in nf.f_rem[j].terms
        )
        lhs = nf_remainder_norm(nf, 0.05, sp)
        rhs = math.exp(-(s - sp) * minband) * nf_remainder_norm(nf, 0.05, s)
        assert lhs <= rhs * (1 + 1e-12)


    def test_ray_majorant_hand_value(self):
        F = series()
        add_term(F, (2, 2), (1, 0), 0.3)       # j = 2 on the ray of (1, 1)
        add_term(F, (-1, -1), (0, 0), 0.4j)    # j = -1
        G = series()
        add_term(G, (0, 0), (0, 2), -0.5)      # j = 0
        r, w = 0.2, 0.7
        expected = 0.3 * r * math.exp(2 * w) + 0.4 * math.exp(w) + 0.5 * r ** 2
        assert ray_majorant([F, G], (1, 1), r, w) == pytest.approx(expected, rel=1e-15)


class TestConjugacy:
    def test_zero_perturbation(self):
        f = TrigPoly(2, {})
        params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
        ham = NaturalHam(2, 1e-3, f)
        nf = lie_step_nonres(ham, params, np.array([0.7, 0.31]), order=1)
        rep = verify_conjugacy(ham, nf, [(np.array([0.7, 0.31]), np.zeros(2))])
        assert rep.max_residual == 0.0
        assert rep.max_displacement == 0.0

    @pytest.mark.parametrize("order, deg", [(1, 3), (2, 3), (3, 4)])
    def test_stacked_flow_matches_single_points(self, order, deg):
        # all points as one DOP853 state against one point per call
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7, (1, -2): 0.4})
        ham, nf, _, y0 = nonres_setup(eps=5e-3, order=order, deg=deg, f=f)
        rng = np.random.default_rng([order, deg])
        pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0, TWO_PI, 2))
               for _ in range(5)]
        pts.append((y0, np.zeros(2)))
        rep = verify_conjugacy(ham, nf, pts)
        singles = [verify_conjugacy(ham, nf, [pt]) for pt in pts]
        assert rep.residuals.shape == rep.displacements.shape == (len(pts),)
        assert np.max(rep.residuals) > 0
        for p, one in enumerate(singles):
            assert abs(rep.residuals[p] - one.residuals[0]) <= 1e-12
            assert abs(rep.displacements[p] - one.displacements[0]) <= 1e-12

    def test_order_one_richardson_ratio(self):
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0})
        params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
        y0 = np.array([0.7, 0.31])
        rng = np.random.default_rng(3)
        pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0, TWO_PI, 2))
               for _ in range(4)]
        res = {}
        for eps in (1e-2, 5e-3):
            ham = NaturalHam(2, eps, f)
            nf = lie_step_nonres(ham, params, y0, order=1, max_degree=3)
            res[eps] = verify_conjugacy(ham, nf, pts, rtol=1e-13, atol=1e-14)
        ratio = res[1e-2].max_residual / res[5e-3].max_residual
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_order_three_richardson_ratio(self):
        # criterion 10's pair potential, points and tolerances one order up:
        # the order-3 defect scales as eps^4, so halving eps divides it by 16
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7})
        params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
        y0 = np.array([0.7, 0.31])
        rng = np.random.default_rng(3)
        pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0, TWO_PI, 2))
               for _ in range(6)]

        def ratio(strip_grade=None):
            res = []
            for eps in (5e-3, 2.5e-3):
                ham = NaturalHam(2, eps, f)
                nf = lie_step_nonres(ham, params, y0, order=3, max_degree=6)
                nf.chi = [(j, chi) for j, chi in nf.chi if j != strip_grade]
                res.append(verify_conjugacy(ham, nf, pts, rtol=1e-13, atol=1e-14).max_residual)
            return res[0] / res[1]

        def gate(r):
            return abs(r - 16.0) <= 0.25 * 16.0

        assert gate(ratio())
        # without the grade-3 generator the defect is O(eps^3): ratio about 8
        assert not gate(ratio(strip_grade=3))

    def test_displacement_threshold_reported(self):
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0})
        params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
        y0 = np.array([0.7, 0.31])
        ham = NaturalHam(2, 1e-3, f)
        nf = lie_step_nonres(ham, params, y0, order=1)
        rep = verify_conjugacy(ham, nf, [(y0, np.zeros(2))], params=params)
        assert rep.displacement_threshold == pytest.approx(
            params.r_o / (2 ** 7 * params.K0)
        )
        assert rep.displacement_ok in (True, False)

    def test_energy_conserved_along_flow(self):
        # sanity: the natural Hamiltonian is conserved by its own flow
        f = two_mode_potential(1.0)
        ham = NaturalHam(2, 1e-2, f)

        def rhs(_t, z):
            dy, dx = natural_grad(ham, z[:2], z[2:])
            return np.concatenate([-dx, dy])

        z0 = np.array([0.4, -0.3, 1.0, 2.0])
        sol = solve_ivp(rhs, (0, 20.0), z0, method="DOP853",
                        rtol=1e-12, atol=1e-12)
        e0 = ham.value(z0[:2], z0[2:])
        e1 = ham.value(sol.y[:2, -1], sol.y[2:, -1])
        assert abs(e1 - e0) < 1e-10
