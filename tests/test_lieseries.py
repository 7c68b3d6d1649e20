import itertools
import math
import time
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from resoforge.cover import free_params
from resoforge.fourier import (
    ConfigError,
    HypothesisError,
    OneDTrigPoly,
    TrigPoly,
    generators,
    project_lattice,
    two_mode_potential,
)
from resoforge.lieseries import (
    NaturalHam,
    TaylorFourierSeries,
    TruncationLedger,
    _flow_time1,
    _killed,
    _on_line,
    kinetic_series,
    lie_step_nonres,
    lie_step_res,
    potential_series,
    ray_series,
    _levels,
    _slots,
    solve_homological,
    verify_conjugacy,
)
from exact import U, gamma, report, sqrt_enclosure
from reference import TWO_PI, add_term, averaging_cases, averaging_potential, from_rows, lie_step, on_ray


def series(n=2, y0=(0.7, 0.31), deg=2, cutoff=8):
    return TaylorFourierSeries(n, np.asarray(y0, dtype=float), deg, cutoff)


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


def slot_order(item):
    """The sort key of a term ((k, m), c) in slot order: |k|_1, k, |m|, m."""
    (k, m), _c = item
    return sum(map(abs, k)), k, sum(m), m


class RefSeries:
    """The dict algebra the array storage replaced, kept as a test-only
    reference: `terms` in slot order, `add_term` pops exact zeros, and
    `plus`, `scaled` and `split` are loops over the dict.  `add_term` puts a
    new key in unsorted and `terms` sorts once when next read, so a series
    built term by term is sorted once, not once per key; each key is summed
    in the order of its contributions either way.  Its bracket is the
    library kernel on the same rows (pinned to `reference_poisson` below)."""

    def __init__(self, n, base_point, max_degree, cutoff, terms=()):
        self.n, self.base_point, self.max_degree, self.cutoff = n, base_point, max_degree, cutoff
        self._terms, self._sorted = dict(terms), False

    @property
    def terms(self):
        if not self._sorted:
            self._terms, self._sorted = dict(sorted(self._terms.items(), key=slot_order)), True
        return self._terms

    @classmethod
    def of(cls, F):
        """F's algebra holding a copy of F's terms."""
        return cls(F.n, F.base_point, F.max_degree, F.cutoff, F.terms)

    def _with(self, terms):
        return RefSeries(self.n, self.base_point, self.max_degree, self.cutoff, terms)

    def like(self):
        return self._with({})

    @property
    def is_empty(self):
        return not self._terms

    def add_term(self, k, m, c, ledger=None):
        if c == 0:
            return
        if sum(abs(v) for v in k) > self.cutoff or sum(m) > self.max_degree:
            if ledger is not None:
                ledger.drop(abs(c))
            return
        key = (k, m)
        new = self._terms.get(key, 0.0) + c
        if new == 0:
            self._terms.pop(key, None)
        else:
            self._sorted &= key in self._terms
            self._terms[key] = new

    def plus(self, other):
        terms = dict(self._terms)
        for key, c in other.terms.items():
            new = terms.get(key, 0.0) + c
            if new == 0:
                terms.pop(key, None)
            else:
                terms[key] = new
        return self._with(terms)

    def scaled(self, a):
        return self._with({key: a * c for key, c in self._terms.items()} if a != 0 else {})

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


def exact_bytes(F):
    """F's row arrays: dtype, shape and bytes of K, M and C."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (F.K, F.M, F.C)]


def bracket_pairs(F, G):
    """(k1 + k2, m1 + m2 - e_j, d, c1, c2) of each contribution i d c1 c2 to
    {F, G} with d = k1_j m2_j - k2_j m1_j != 0, term pair by term pair: the
    double loop the array kernel replaced."""
    for (k1, m1), c1 in F.terms.items():
        for (k2, m2), c2 in G.terms.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            for j in range(F.n):
                d = k1[j] * m2[j] - k2[j] * m1[j]
                if d:
                    yield k, tuple(u + v - (i == j) for i, (u, v) in enumerate(zip(m1, m2))), d, c1, c2


def reference_poisson(F, G, ledger):
    """{F, G} from `bracket_pairs`, each key summed in their order."""
    out = RefSeries.of(F).like()
    for k, m, d, c1, c2 in bracket_pairs(F, G):
        out.add_term(k, m, (c1 * c2) * (1j * d), ledger)
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


def exact_bracket(F, G):
    """{F, G} in rational arithmetic over `bracket_pairs`: (kept, lost).
    kept maps each key within F's truncation to [Re, Im, N, A_re, A_im]: the
    exact sum, the number of contributions, and the sums of |d| (|a1 b2| +
    |b1 a2|) and |d| (|a1 a2| + |b1 b2|) over them.  lost lists, for each
    contribution beyond the truncation, its squared modulus and |d| times
    the sum of the four product magnitudes."""
    kept, lost = {}, []
    for k, m, d, c1, c2 in bracket_pairs(F, G):
        a1, b1, a2, b2 = map(Fraction, (c1.real, c1.imag, c2.real, c2.imag))
        re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        s_re, s_im = abs(a1 * a2) + abs(b1 * b2), abs(a1 * b2) + abs(b1 * a2)
        if sum(map(abs, k)) <= F.cutoff and sum(m) <= F.max_degree:
            # i d (re + i im) = -d im + i d re
            entry = kept.setdefault((k, m), [Fraction(0), Fraction(0), 0, Fraction(0), Fraction(0)])
            entry[0] -= d * im
            entry[1] += d * re
            entry[2] += 1
            entry[3] += abs(d) * s_im
            entry[4] += abs(d) * s_re
        else:
            lost.append((d * d * (re * re + im * im), abs(d) * (s_re + s_im)))
    return kept, lost


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
        G.base_point = F.base_point
        led_ref, led_whole = TruncationLedger(grade=3), TruncationLedger(grade=3)
        ref = reference_poisson(F, G, led_ref)
        # every key is summed in term-pair order, so the coefficients have the same bytes
        whole = exact_items(F.poisson(G, led_whole))
        assert list(led_whole.by_grade) == [3]
        for pairs in (1, 7, 100):
            monkeypatch.setattr(ls, "_BLOCK_PAIRS", pairs)
            led_out = TruncationLedger(grade=3)
            out = F.poisson(G, led_out)
            assert_bracket_matches(out, ref, led_out, led_ref)
            assert exact_items(out) == whole
            # the dropped mass is one drop at the ledger's grade, summed block by block
            assert list(led_out.by_grade) == [3]
            assert led_out.by_grade[3] == pytest.approx(led_whole.by_grade[3], rel=1e-13)

    def test_peak_memory_does_not_grow_with_blocks(self, monkeypatch):
        # each block is folded into the running slot sums as it is made, so a
        # bracket holds one block of contributions, not all of them
        import tracemalloc
        import resoforge.lieseries as ls
        rng = np.random.default_rng(8)
        G = random_real_series(rng, 2, 3, 8, 40)
        monkeypatch.setattr(ls, "_BLOCK_PAIRS", len(G.C))  # one row of self per block

        def peak(rows):
            F = random_real_series(rng, 2, 3, 8, rows)
            F.base_point = G.base_point
            F.poisson(G, TruncationLedger())  # the slot tables are built outside the trace
            tracemalloc.start()
            try:
                F.poisson(G, TruncationLedger())
                return len(F.C), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # about 200 and 600 blocks; both outputs fill nearly all 1,450 slots
        (few, small), (many, large) = peak(100), peak(400)
        assert 30 <= few < many // 3
        # the per-row keys of self grow with the rows; the 3x larger outer
        # product must not show (kept whole, it reads about 2.7x)
        assert large < 1.5 * small

    @pytest.mark.parametrize("cutoff, deg", [(128, 255), (64, 1)])
    def test_integer_factors_at_their_dtype_edge(self, cutoff, deg):
        # n = 1: d = k1 m2 - k2 m1 reaches cutoff (deg + 1) at a kept key, from
        # (cutoff, m1) x (-cutoff, m2) with m1 + m2 = deg + 1: 2^15 at cutoff
        # 128, degree 255, which needs int32, and 128 = 2 cutoff deg at cutoff
        # 64, degree 1, which int8 cannot hold; the bracket must equal the
        # scalar loop byte for byte
        F = TaylorFourierSeries(1, np.array([0.3]), deg, cutoff)
        G = TaylorFourierSeries(1, F.base_point, deg, cutoff)
        rng = np.random.default_rng([cutoff, deg])
        for S, edge in ((F, 1), (G, -1)):
            rows = [((cutoff * edge,), ((deg + 1) // 2,), 0.75 - 0.5j)]
            rows += [((int(k),), (int(m),), complex(rng.normal(), rng.normal()))
                     for k, m in zip(rng.integers(-cutoff, cutoff + 1, 24), rng.integers(0, deg + 1, 24))]
            T = from_rows(S, rows)
            S._store(T.K, T.M, T.C)
        led_out, led_ref = TruncationLedger(), TruncationLedger()
        out, ref = F.poisson(G, led_out), reference_poisson(F, G, led_ref)
        assert abs(out.terms[(0,), (2 * ((deg + 1) // 2) - 1,)]) > 0
        assert exact_items(out) == exact_items(ref)
        assert_bracket_matches(out, ref, led_out, led_ref)
        assert led_ref.by_grade[0] > 0

    def test_operands_of_another_algebra_are_refused(self):
        # a series about another base point or of another n is a different
        # expansion, and plus cannot take terms beyond its own truncation
        F = series(y0=(0.0, 0.0), deg=3, cutoff=8)
        add_term(F, (1, 0), (1, 0), 0.5)
        add_term(F, (-1, 0), (1, 0), 0.5)
        others = [series(y0=(0.5, 0.0), deg=3, cutoff=8), series(y0=(0.0, 0.0), deg=4, cutoff=8),
                  series(y0=(0.0, 0.0), deg=3, cutoff=9),
                  TaylorFourierSeries(3, np.zeros(3), 3, 8)]
        for G in others:
            add_term(G, (0,) * G.n, (1,) + (0,) * (G.n - 1), 1.0)
            for op in (F.plus, F.poisson):
                with pytest.raises(ConfigError, match="^operand of n = "):
                    op(G)
        # an equal base point need not be the same array, and a smaller
        # truncation fits into a larger one
        G = series(y0=(0.0, 0.0), deg=2, cutoff=3)
        add_term(G, (0, 1), (1, 0), 2.0)
        assert F.plus(G).terms[(0, 1), (1, 0)] == 2.0
        assert not F.poisson(G).is_empty

    def test_a_digit_box_over_the_budget_is_refused_before_it_is_built(self):
        # 97^8 int64 digits of 8 coordinates would be 446 PiB; the benchmark's
        # largest box, 49^3 at n = 3 and cutoff 12, is built in the test below
        with pytest.raises(ConfigError, match=r"^n = 8, cutoff 24: a digit box of 97\^8 entries is over"):
            _slots(8, 24, 2)

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
        G.base_point = F.base_point
        a, b = F.poisson(G), to_series(RefSeries.of(F)).poisson(to_series(RefSeries.of(G)))
        assert list(a.terms.items()) == list(b.terms.items())

    @pytest.mark.parametrize("n, deg, cutoff", [(2, 3, 6), (3, 3, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_within_forward_error_bounds_of_the_exact_bracket(self, n, deg, cutoff, seed):
        """Every double is a dyadic rational, so `exact_bracket` gives the
        exact slot sums and the exact dropped contributions of {F, G}.

        A kept contribution's real part is -d (a1 b2 + b1 a2) and its
        imaginary part d (a1 a2 - b1 b2), for c1 = a1 + i b1, c2 = a2 + i b2
        and the integer d.  Each of a part's two products passes three
        roundings (its own, the sum's and the product with d), so the part is
        within gamma_3 A of its exact value, A = |d| (|a1 b2| + |b1 a2|),
        respectively |d| (|a1 a2| + |b1 b2|).  A key's N contributions are then summed one
        by one from 0.0, within gamma_{N-1} of the sum of their magnitudes.
        Together each part of each coefficient is within gamma_{N+2} sum A
        of its exact value (Higham, Lemma 3.3 and eq. (4.4); gamma_k and u as
        in tests/exact.py).  A dropped contribution's
        mass hypot(d Im, d Re) is within gamma_3 A (1 + 2u) + 2u A, A = |d| (|a1
        a2| + |b1 b2| + |a1 b2| + |b1 a2|), taking hypot within one ulp (2u
        relative); the ledger's sum of the M dropped masses, in any order,
        adds gamma_{M-1} times the sum of their computed masses.

        The largest error of a draw, in units of its bound, is printed
        (`pytest -s`) and must be at most 1."""
        rng = np.random.default_rng([n, deg, cutoff, seed, 3])
        F = random_real_series(rng, n, deg, cutoff, 20)
        G = random_real_series(rng, n, deg, cutoff, 12)
        G.base_point = F.base_point
        ledger = TruncationLedger()
        out = F.poisson(G, ledger).terms
        kept, lost = exact_bracket(F, G)
        assert kept and lost and set(out) <= set(kept)
        worst = Fraction(0)
        for key, (re, im, count, a_re, a_im) in kept.items():
            c = complex(out.get(key, 0.0))
            for got, want, mass in ((c.real, re, a_re), (c.imag, im, a_im)):
                worst = max(worst, abs(Fraction(got) - want) / (gamma(count + 2) * mass))
        roots = [sqrt_enclosure(square) for square, _a in lost]
        lo, hi = sum(lo for lo, _hi in roots), sum(hi for _lo, hi in roots)
        each = [(gamma(3) * (1 + 2 * U) + 2 * U) * a for _square, a in lost]
        bound = sum(each) + gamma(len(lost) - 1) * sum(a + e for (_square, a), e in zip(lost, each))
        got = Fraction(ledger.by_grade[0])
        lost_ratio = max(abs(got - lo), abs(got - hi)) / bound
        report(f"n = {n}, seed {seed}", coefficients=worst, dropped_mass=lost_ratio)
        assert worst <= 1 and lost_ratio <= 1


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

    def test_value_row_alone_until_gradients_are_read(self):
        # a series that is only evaluated builds the value row of its tables;
        # the first gradient read builds all 2n + 1 rows, and neither the
        # values nor the gradients depend on which came first
        rng = np.random.default_rng(12)
        F = random_real_series(rng, 3, 3, 5, 30)
        ys = F.base_point + rng.uniform(-0.5, 0.5, (4, 3))
        xs = rng.uniform(0, TWO_PI, (4, 3))
        values = F.evaluate(ys, xs)
        assert [t.shape[-2] for t in F._grad_tables[1:]] == [1, 1]
        grads = F.eval_grads(ys, xs)
        assert [t.shape[-2] for t in F._grad_tables[1:]] == [7, 7]
        assert F.evaluate(ys, xs).tobytes() == values.tobytes()
        fresh = to_series(RefSeries.of(F))
        for got, want in zip(grads, fresh.eval_grads(ys, xs)):
            assert got.tobytes() == want.tobytes()
        assert fresh.evaluate(ys, xs).tobytes() == values.tobytes()
        self.assert_matches_reference(F, ys, xs)

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
        with pytest.raises(HypothesisError) as err:
            solve_homological(B, y0, 1e-6, "test")
        assert str(err.value).endswith("at mode (1, 1)")

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
            raise HypothesisError(f"{context} at mode {k}")
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


def assert_solve_matches_reference(B, y0, min_divisor, context):
    """solve_homological against the reference, byte for byte: K, M and C (the
    reference's coefficients + 0.0, as chi stores them), log and overflow."""
    out = solve_homological(B, y0, min_divisor, context)
    ref = reference_solve_homological(B, y0, min_divisor, context)
    want = to_series(ref[0])
    assert out[0].K.tobytes() == want.K.tobytes() and out[0].M.tobytes() == want.M.tobytes()
    assert out[0].C.tobytes() == (want.C + 0.0).tobytes()
    assert out[1] == ref[1] and out[2] == ref[2]
    return out


def spy_solves(monkeypatch, calls):
    """Route lieseries' solve_homological through the byte comparison,
    recording each band it solves."""
    import resoforge.lieseries as ls

    def spy(B, y0, min_divisor, context):
        calls.append(B)
        return assert_solve_matches_reference(B, y0, min_divisor, context)

    monkeypatch.setattr(ls, "solve_homological", spy)


# modes of a three-dimensional potential: the resonance (1, 0, -1) and three
# modes off it
N3_MODES = ((1, 0, 0), (0, 1, -1), (1, 0, -1), (1, 1, 1))


class TestHomologicalLevels:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chi_bit_identical_to_reference(self, seed, monkeypatch):
        # every band the averaging steps solve, nonresonant and resonant, at
        # orders up to 4 and degree 3: same keys, order, values and overflow
        calls = []
        spy_solves(monkeypatch, calls)
        rng = np.random.default_rng([2, seed, 0])
        ham = NaturalHam(2, 1e-3, averaging_potential(rng))
        lie_step_nonres(ham, free_params(2, 1.0, alpha=0.02, K0=2, K=8),
                        np.array([0.7, 0.31]), order=4, max_degree=3)
        k = (1, 1)
        ham = NaturalHam(2, 1e-3, averaging_potential(rng, must_have=k))
        lie_step_res(ham, k, free_params(2, 1.0, alpha=0.03, K0=2, K=6),
                     np.array([0.5, -0.5]), order=4, max_degree=3)
        assert len(calls) >= 6 and max(len(B.C) for B in calls) > 20

    @pytest.mark.parametrize("deg", [3, 4])
    def test_three_dimensional_bands(self, deg, monkeypatch):
        # n = 3: a nonresonant step, and a resonant one along (1, 0, -1);
        # band modes with a zero coordinate skip that coordinate's recursion
        calls = []
        spy_solves(monkeypatch, calls)
        rng = np.random.default_rng([3, deg])
        ham = NaturalHam(3, 1e-3, TrigPoly(3, {
            k: 0.5 * rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, TWO_PI)) for k in N3_MODES}))
        lie_step_nonres(ham, free_params(3, 1.0, alpha=0.02, K0=2, K=5),
                        np.array([0.7, 0.31, 0.53]), order=3, max_degree=deg)
        lie_step_res(ham, (1, 0, -1), free_params(3, 1.0, alpha=0.002, K0=2, K=4),
                     np.array([0.5, 0.3137, 0.5]), order=3, max_degree=deg)
        assert len(calls) == 6 and max(len(B.C) for B in calls) > 300
        assert all((B.K == 0).any() for B in calls)

    @pytest.mark.parametrize("n, deg", [(2, 1), (3, 1), (2, 4), (3, 4)])
    def test_random_bands(self, n, deg):
        # y-dependent bands at every degree, degree 1 included (the averaging
        # steps need degree >= 2 for the kinetic part)
        rng = np.random.default_rng([n, deg])
        F = random_real_series(rng, n, deg, 4, 30)
        B = F.split(F.K.any(axis=1))[0]
        y0 = np.array([0.7, 0.31, 0.53][:n]) + 1e-3 * rng.uniform(size=n)
        chi, log, overflow = assert_solve_matches_reference(B, y0, 1e-9, "test")
        assert max(sum(m) for _k, m in chi.terms) == deg and overflow > 0

    def test_witness_is_first_small_divisor_in_row_order(self):
        # both modes fall below the threshold; the later one in row (slot)
        # order is smaller, and the earlier one, added last, is the witness
        y0 = np.array([0.04, -0.02])
        B = series(deg=2, cutoff=4)
        add_term(B, (1, 1), (1, 0), 0.25)
        add_term(B, (1, 0), (0, 0), 0.5)
        assert list(B.terms) == [((1, 0), (0, 0)), ((1, 1), (1, 0))]
        with pytest.raises(HypothesisError) as err:
            solve_homological(B, y0, 0.05, "test")
        assert str(err.value) == "test: divisor |y0.k| = 4.000e-02 <= 5.000e-02 at mode (1, 0)"
        with pytest.raises(HypothesisError) as ref:
            reference_solve_homological(B, y0, 0.05, "test")
        assert str(ref.value) == "test at mode (1, 0)"

    @pytest.mark.parametrize("n, deg", [(1, 3), (2, 0), (2, 3), (3, 1), (3, 4)])
    def test_level_table(self, n, deg):
        # every monomial once, by degree and then lex; lower[j] is m - e_j,
        # or the zero row where m_j = 0
        starts, lower = _levels(n, deg)
        monos = [tuple(m) for m in _slots(n, 0, deg).monos.tolist()]
        assert monos == sorted(itertools.product(range(deg + 1), repeat=n),
                               key=lambda m: (sum(m), m))[:len(monos)]
        assert len(monos) == math.comb(n + deg, n) and len(set(monos)) == len(monos)
        assert starts == [sum(sum(m) < d for m in monos) for d in range(deg + 2)]
        assert lower.shape == (n, len(monos))
        for r, m in enumerate(monos):
            for j in range(n):
                want = monos.index(m[:j] + (m[j] - 1,) + m[j + 1:]) if m[j] else len(monos)
                assert lower[j, r] == want


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


class TestSplitMasks:
    @pytest.mark.parametrize("n, cutoff, k", [
        (2, 8, (1, 1)), (2, 8, (1, -2)), (2, 8, (0, 1)), (2, 8, (2, 2)),
        (3, 6, (1, 0, -1)), (3, 6, (1, 2, -1)), (3, 6, (0, 2, 3)), (3, 6, (2, 0, -4))])
    def test_masks_match_predicates(self, n, cutoff, k):
        # every mode with |k|_1 <= cutoff: the array masks of the band, of the
        # nonzero modes and of Z k (k a generator or not) against the
        # per-mode predicates they replaced
        K = _slots(n, cutoff, 0).modes
        modes = list(map(tuple, K.tolist()))
        for K0 in range(cutoff + 1):
            assert _killed(K, K0, None).tolist() == [0 < sum(map(abs, kk)) <= K0 for kk in modes]
        assert K.any(axis=1).tolist() == [any(kk) for kk in modes]
        line = _on_line(K, k)
        assert line.tolist() == [on_ray(kk, k) is not None for kk in modes]
        assert 0 < line.sum() < len(modes) - 1
        # the resonant kill takes every nonzero mode off Z k, whatever K0
        assert _killed(K, 0, k).tolist() == [any(kk) and on_ray(kk, k) is None for kk in modes]

    @pytest.mark.parametrize("k", [(1, 1), (1, -2), (0, 1), (2, 2)], ids=str)
    def test_ray_terms_take_j_from_the_scalar_oracle(self, k):
        # each term's j is on_ray's (0 at the zero mode), in row order, and a
        # mode off Z k raises, naming the first such row
        rng = np.random.default_rng(6)
        F = random_real_series(rng, 2, 2, 8, 20)
        for j in range(-2, 3):
            add_term(F, (j * k[0], j * k[1]), (j % 2, 1), complex(rng.normal(), rng.normal()))
        line, _ = F.split(~F.K.any(axis=1) | _on_line(F.K, k))
        assert len(line.terms) >= 5
        assert line.ray_terms(k) == [(on_ray(kk, k) or 0, m, c) for (kk, m), c in line.terms.items()]
        first = next(kk for kk in map(tuple, F.K.tolist()) if on_ray(kk, k) is None and any(kk))
        with pytest.raises(ConfigError, match=rf"^mode \({first[0]}, {first[1]}\) is not on the ray of"):
            F.ray_terms(k)

    def test_split_keeps_row_order_and_rejects_other_shapes(self):
        F = random_real_series(np.random.default_rng(4), 2, 2, 4, 12)
        mask = F.K[:, 0] > 0
        inside, rest = F.split(mask)
        assert np.array_equal(inside.C, F.C[mask]) and np.array_equal(rest.C, F.C[~mask])
        assert np.array_equal(inside.K, F.K[mask]) and np.array_equal(rest.M, F.M[~mask])
        for bad in (any, mask[1:], np.stack([mask, mask])):
            with pytest.raises(ConfigError, match="split mask"):
                F.split(bad)


class TestArrayStorage:
    @pytest.mark.parametrize("seed, k", [(1, (1, 1)), (2, (1, -1)), (3, (1, 2))])
    def test_averaging_matches_dict_reference(self, seed, k):
        # lie_step_nonres and lie_step_res at orders 2-5 on the averaging
        # benchmark's draws: every grade, chi, divisor and dropped mass is the
        # dict algebra's, in the same order and bit for bit (-0.0 included)
        for kk, f, params, y0 in averaging_cases(seed, k):
            ham = NaturalHam(2, 1e-3, f)
            for order in (2, 3, 4, 5):
                nf = lie_step(ham, kk, params, y0, order=order, max_degree=3)
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
                mask = [predicate(k) for k in map(tuple, x.K.tolist())]
                for part, ref in zip(x.split(mask), RefSeries.of(x).split(predicate)):
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


class TestSlotOrder:
    """A series holds its rows in slot order, so its arrays depend on its
    terms only, not on the operations that built it."""

    @pytest.mark.parametrize("seed, k", [(1, (1, 1)), (2, (1, -1)), (3, (1, 2))])
    def test_every_series_of_the_golden_draws_is_in_slot_order(self, seed, k):
        # kinetic, g_o, g_res, f_rem and each chi of the golden averaging
        # draws, orders 2-5 at degree 3: strictly increasing slots
        rows = 0
        for kk, f, params, y0 in averaging_cases(seed, k):
            ham = NaturalHam(2, 1e-3, f)
            table = _slots(2, params.K, 3)
            for order in (2, 3, 4, 5):
                nf = lie_step(ham, kk, params, y0, order=order, max_degree=3)
                held = [nf.kinetic, *nf.g_o[1:], *nf.f_rem[1:], *(nf.g_res or [None])[1:],
                        *(chi for _j, chi in nf.chi)]
                for F in held:
                    assert (np.diff(table.of(F.K, F.M)) > 0).all()
                    rows += len(F.C)
        assert rows > 2000

    @pytest.mark.parametrize("n, deg, cutoff", [(2, 3, 6), (3, 3, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_plus_commutes_byte_for_byte(self, n, deg, cutoff, seed):
        # keys of both operands are summed from 0.0 as 0.0 + a + b or 0.0 + b
        # + a, the same double, and the rows are listed in slot order
        rng = np.random.default_rng([n, deg, cutoff, seed, 4])
        a = random_real_series(rng, n, deg, cutoff, 20)
        b = random_real_series(rng, n, deg, cutoff, 12)
        b.base_point = a.base_point
        assert set(a.terms) & set(b.terms) and set(b.terms) - set(a.terms)
        ab, ba = a.plus(b), b.plus(a)
        for x, y in ((ab.K, ba.K), (ab.M, ba.M), (ab.C, ba.C)):
            assert x.tobytes() == y.tobytes()

    def test_potential_rows_do_not_depend_on_insertion_order(self):
        rng = np.random.default_rng(13)
        modes = [(1, 0), (0, 1), (1, 1), (1, -2), (2, 1), (3, -1), (5, 2)]
        coeffs = {k: complex(rng.normal(), rng.normal()) for k in modes}
        forward, backward = TrigPoly(2, coeffs), TrigPoly(2, dict(reversed(coeffs.items())))
        assert list(forward.coeffs) != list(backward.coeffs)
        led_f, led_b = TruncationLedger(), TruncationLedger()
        f = potential_series(forward, (0.7, 0.31), 3, 6, led_f)
        b = potential_series(backward, (0.7, 0.31), 3, 6, led_b)
        assert len(f.C) == 12 and led_f.by_grade == led_b.by_grade != {}
        for x, y in ((f.K, b.K), (f.M, b.M), (f.C, b.C)):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_built_series_equal_the_generic_fold(self, n):
        # kinetic_series, potential_series and ray_series against their
        # terms as (k, m, c) rows through the slot fold, byte for byte and
        # with the same ledger sums: zero and -0.0 parts, modes beyond the
        # cutoff
        rng = np.random.default_rng([n, 14])
        zero = (0,) * n
        e = np.eye(n, dtype=int).tolist()
        for y0 in (rng.normal(size=n), np.zeros(n), np.array([-0.0, 1.5, 0.0][:n])):
            rows = [(zero, zero, 0.5 * float(np.dot(y0, y0)))]
            for j in range(n):
                rows += [(zero, e[j], float(y0[j])), (zero, [2 * v for v in e[j]], 0.5)]
            for deg, cutoff in ((2, 0), (3, 4)):
                got, want = kinetic_series(n, y0, deg, cutoff), from_rows(series(n, y0, deg, cutoff), rows)
                assert exact_bytes(got) == exact_bytes(want)
        gens = generators(n, 7)
        modes = gens + [tuple(j * v for v in gens[0]) for j in (2, 5, 7)]
        coeffs = {k: complex(rng.normal(), rng.normal()) for k in modes[::2]}
        coeffs[modes[1]] = complex(-0.0, 0.25)
        f, like = TrigPoly(n, coeffs), series(n, rng.normal(size=n), 3, 4)
        pairs = [row for k, c in f.coeffs.items()
                 for row in ((k, zero, c), (tuple(-v for v in k), zero, complex(np.conj(c))))]
        led, led_ref = TruncationLedger(), TruncationLedger()
        got = potential_series(f, like.base_point, 3, 4, led)
        assert exact_bytes(got) == exact_bytes(from_rows(like, pairs, led_ref))
        assert led.by_grade == led_ref.by_grade != {}
        p = OneDTrigPoly({1: 0.5 - 0.25j, 2: complex(0.0, -0.0) + 0.125, 3: 0.0625j})
        k = gens[-1]
        pairs = [row for j, c in p.coeffs.items()
                 for row in ((tuple(j * v for v in k), zero, c), (tuple(-j * v for v in k), zero, complex(np.conj(c))))]
        assert exact_bytes(ray_series(like, p, k)) == exact_bytes(from_rows(like, pairs))


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
        with pytest.raises(HypothesisError, match="resonant at base point"):
            lie_step_nonres(ham, params, np.array([0.1, 0.8]), order=1)

    @pytest.mark.parametrize("k", [None, (1, 1)])
    def test_order_zero_rejected(self, k):
        # order 0 averages nothing: either kind refuses it
        ham = NaturalHam(2, 1e-3, TrigPoly.from_cosines(2, {(1, 0): 1.0}))
        params, y0 = free_params(2, 1.0, alpha=0.03, K0=2, K=6), np.array([0.5, -0.5])
        with pytest.raises(ConfigError, match="^order must be at least 1$"):
            lie_step(ham, k, params, y0, order=0)

    @pytest.mark.parametrize("k", [None, (1, 1)])
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, k, eps):
        # a NaN eps used to return a NaN normal form
        ham = NaturalHam(2, eps, TrigPoly.from_cosines(2, {(1, 0): 1.0}))
        params, y0 = free_params(2, 1.0, alpha=0.03, K0=2, K=6), np.array([0.5, -0.5])
        with pytest.raises(ConfigError, match="^epsilon must be finite, got "):
            lie_step(ham, k, params, y0, order=2)


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
        assert all(t.is_empty for t in nf.f_rem[1:])

    def test_band_check_reads_the_whole_killed_set(self):
        # one term off Z k left in the remainder, as a kill that stopped
        # short of the cutoff would leave it, must show in the check
        ham = NaturalHam(2, 1e-3, self.f)
        nf = lie_step_res(ham, self.k, self.params, self.y0, order=2, max_degree=3)
        add_term(nf.f_rem[2], (3, 1), (0, 0), 0.25)
        assert nf.band_coefficient_maxima() == 0.25

    def test_pure_line_potential_untouched(self):
        f = TrigPoly.from_cosines(2, {(1, 1): 0.8})
        ham = NaturalHam(2, 1e-3, f)
        nf = lie_step_res(ham, self.k, self.params, self.y0, order=1)
        assert not nf.chi
        assert all(t.is_empty for t in nf.f_rem[1:])

    def test_off_line_divisor_guard(self):
        params = free_params(2, 1.0, alpha=0.2, K0=2, K=6)
        ham = NaturalHam(2, 1e-3, self.f)
        with pytest.raises(HypothesisError):
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


    def test_majorant_on_ray_hand_value(self):
        # on the ray of (1, 1) the strip width w / |k|_1 weighs mode j k by e^{|j| w}
        F = series()
        add_term(F, (2, 2), (1, 0), 0.3)       # j = 2
        add_term(F, (-1, -1), (0, 0), 0.4j)    # j = -1
        add_term(F, (0, 0), (0, 2), -0.5)      # j = 0
        r, w = 0.2, 0.7
        expected = 0.3 * r * math.exp(2 * w) + 0.4 * math.exp(w) + 0.5 * r ** 2
        assert F.majorant(r, w / 2) == pytest.approx(expected, rel=1e-15)


def reference_flow_time1(chi, scale, z0, rtol, atol):
    """_flow_time1 level by level, N = 1, 2, 4, ..., each level's first
    stage the shared one at z0: the loop the stacked first step replaced."""
    n = chi.n

    def rhs(z):
        _val, dy, dx = chi.eval_grads(z[:, :n], z[:, n:])
        return np.hstack([-scale * dx, scale * dy])

    start = rhs(z0)

    def rk4(steps):
        z, h = z0, 1.0 / steps
        for step in range(steps):
            k1 = rhs(z) if step else start
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return z

    coarse, steps = rk4(1), 1
    while steps < 256:
        steps *= 2
        fine = rk4(steps)
        err = float(np.max(np.abs(fine - coarse))) / 15.0
        if err <= atol + rtol * float(np.max(np.abs(fine))):
            return fine + (fine - coarse) / 15.0, err
        coarse = fine
    raise HypothesisError(f"generator flow failed: error estimate {err:.3e} at {steps} steps")


def reference_nf_value(nf, y, x):
    """nf's value at one point (y, x), one series evaluation at a time."""
    total = complex(nf.kinetic.evaluate(y, x))
    for j in range(1, nf.order + 1):
        term = nf.g_o[j].evaluate(y, x) + nf.f_rem[j].evaluate(y, x)
        if nf.g_res is not None:
            term += nf.g_res[j].evaluate(y, x)
        total += nf.epsilon ** j * term
    return float(total.real)


def reference_verify_conjugacy(ham, nf, points, rtol=1e-12, atol=1e-13):
    """(max residual, flow error) of verify_conjugacy with level-by-level
    flows and nf read point by point."""
    ys = np.array([y for y, _x in points], dtype=float)
    xs = np.array([x for _y, x in points], dtype=float)
    z, flow_error = np.hstack([ys, xs]), 0.0
    for j, chi in sorted(nf.chi, key=lambda t: -t[0]):
        z, err = reference_flow_time1(chi, nf.epsilon ** j, z, rtol, atol)
        flow_error += err
    return float(max(abs(ham.value(zi[:nf.n], zi[nf.n:]) - reference_nf_value(nf, y, x))
                     for zi, y, x in zip(z, ys, xs))), flow_error


def conjugacy_points(rng, y0, count):
    return [(y0 + rng.uniform(-0.01, 0.01, len(y0)), rng.uniform(0, TWO_PI, len(y0)))
            for _ in range(count)]


class TestConjugacy:
    def test_stacked_levels_match_level_by_level(self, monkeypatch):
        # levels N = 1 and 2 stepped as one stacked state against the loop
        # that ran them one after the other: flows and error estimates equal,
        # on flows that settle at N = 2, 4, 8 and 16 (8, 23, 54 and 117 calls:
        # 3 fewer than level by level), stacked points and a single one
        rng = np.random.default_rng(5)
        _ham, nf, _, y0 = nonres_setup(eps=1e-3, order=2, deg=3, f=averaging_potential(rng))
        z = np.array([np.concatenate(pt) for pt in conjugacy_points(rng, y0, 3)])
        calls, grads = [], TaylorFourierSeries.eval_grads
        monkeypatch.setattr(TaylorFourierSeries, "eval_grads",
                            lambda chi, y, x: calls.append(1) or grads(chi, y, x))
        for rows in (z, z[1:2]):
            counts = []
            for scale in (1e-3, 3e-3, 5e-3, 1e-2):
                calls.clear()
                flow, err = _flow_time1(nf.chi[0][1], scale, rows, 1e-12, 1e-13)
                counts.append(len(calls))
                want, want_err = reference_flow_time1(nf.chi[0][1], scale, rows, 1e-12, 1e-13)
                assert np.array_equal(flow, want) and err == want_err
                assert len(calls) == 2 * counts[-1] + 3
            assert counts == [8, 23, 54, 117]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reports_match_point_by_point(self, seed):
        # the benchmark's conjugacy draws, nonresonant and resonant (with
        # g_res), against level-by-level flows and nf read point by point
        rng = np.random.default_rng([2, seed, 0])
        k = (1, 1)
        u = 0.6 * np.array([-k[1], k[0]]) / math.sqrt(2.0)
        cases = [(averaging_potential(rng), None, free_params(2, 1.0, alpha=0.02, K0=2, K=8),
                  np.array([0.7, 0.31])),
                 (averaging_potential(rng, must_have=k), k,
                  free_params(2, 1.0, alpha=0.03, K0=2, K=6), u)]
        for f, kk, params, y0 in cases:
            ham = NaturalHam(2, 1e-3, f)
            nf = lie_step(ham, kk, params, y0, order=2, max_degree=3)
            if kk is not None:
                assert any(not g.is_empty for g in nf.g_res)
            pts = conjugacy_points(rng, y0, 3)
            rep = verify_conjugacy(ham, nf, pts)
            assert rep.max_residual > 0
            assert (rep.max_residual, rep.flow_error) == reference_verify_conjugacy(ham, nf, pts)

    @pytest.mark.parametrize("k", [None, (1, 1), (1, -2)])
    def test_nf_value_rows_match_points(self, k):
        # one evaluation per series over (P, n) rows equals P calls at (n,)
        rng = np.random.default_rng(9)
        if k is None:
            _ham, nf, _, y0 = nonres_setup(eps=1e-2, order=3, deg=3, f=averaging_potential(rng))
        else:
            y0 = 0.6 * np.array([-k[1], k[0]]) / math.hypot(*k)
            nf = lie_step_res(NaturalHam(2, 1e-2, averaging_potential(rng, must_have=k)), k,
                              free_params(2, 1.0, alpha=0.03, K0=2, K=6), y0, order=3, max_degree=3)
        pts = conjugacy_points(rng, y0, 5)
        ys, xs = np.array([y for y, _ in pts]), np.array([x for _, x in pts])
        rows = nf.nf_value(ys, xs)
        assert rows.shape == (5,)
        assert rows.tolist() == [nf.nf_value(y, x) for y, x in pts]
        assert rows.tolist() == [reference_nf_value(nf, y, x) for y, x in pts]
        assert type(nf.nf_value(*pts[0])) is float

    def test_zero_perturbation(self):
        f = TrigPoly(2, {})
        params = free_params(2, 1.0, alpha=0.02, K0=2, K=8)
        ham = NaturalHam(2, 1e-3, f)
        nf = lie_step_nonres(ham, params, np.array([0.7, 0.31]), order=1)
        rep = verify_conjugacy(ham, nf, [(np.array([0.7, 0.31]), np.zeros(2))])
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("order, deg", [(1, 3), (2, 3), (3, 4)])
    def test_stacked_flow_matches_single_points(self, order, deg):
        # all points stepped together against one point per call: the
        # stacked flow takes the step count of its slowest point
        f = TrigPoly.from_cosines(2, {(1, 0): 1.0, (1, 1): 0.7, (1, -2): 0.4})
        ham, nf, _, y0 = nonres_setup(eps=5e-3, order=order, deg=deg, f=f)
        rng = np.random.default_rng([order, deg])
        pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0, TWO_PI, 2))
               for _ in range(5)]
        pts.append((y0, np.zeros(2)))
        z = np.array([np.concatenate(pt) for pt in pts])
        stacked = singles = z
        for j, chi in sorted(nf.chi, key=lambda t: -t[0]):
            stacked = _flow_time1(chi, nf.epsilon ** j, stacked, 1e-12, 1e-13)[0]
            singles = np.vstack([_flow_time1(chi, nf.epsilon ** j, row[None, :], 1e-12, 1e-13)[0]
                                 for row in singles])
        assert np.max(np.abs(stacked[:, :2] - z[:, :2])) > 0
        assert np.max(np.abs(stacked - singles)) <= 1e-12
        rep = verify_conjugacy(ham, nf, pts)
        assert rep.max_residual > 0
        one = max(verify_conjugacy(ham, nf, [pt]).max_residual for pt in pts)
        assert abs(rep.max_residual - one) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", [2, 3])
    def test_flows_match_dop853(self, seed, order):
        # scipy's DOP853 as the oracle, on the averaging benchmark's draws at
        # eps 1e-3 and 1e-2: every generator grade, stacked and point by point
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng([seed, order])
        f = averaging_potential(rng)
        for eps in (1e-3, 1e-2):
            _ham, nf, _, y0 = nonres_setup(eps=eps, order=order, deg=3, f=f)
            z = np.array([np.concatenate([y0 + rng.uniform(-0.01, 0.01, 2),
                                          rng.uniform(0, TWO_PI, 2)]) for _ in range(4)])
            for j, chi in nf.chi:
                scale = eps ** j

                def rhs(_t, w):
                    _val, dy, dx = chi.eval_grads(w[:2], w[2:])
                    return np.concatenate([-scale * dx, scale * dy])

                want = np.array([solve_ivp(rhs, (0.0, 1.0), row, method="DOP853", rtol=1e-13,
                                           atol=1e-14).y[:, -1] for row in z])
                stacked = _flow_time1(chi, scale, z, 1e-13, 1e-14)[0]
                singles = np.vstack([_flow_time1(chi, scale, row[None, :], 1e-13, 1e-14)[0]
                                     for row in z])
                assert np.max(np.abs(stacked - z)) > 1e-7
                np.testing.assert_allclose(stacked, want, rtol=1e-13, atol=1e-14)
                np.testing.assert_allclose(singles, want, rtol=1e-13, atol=1e-14)

    def test_flow_error_within_tolerance(self, monkeypatch):
        ham, nf, _, y0 = nonres_setup(eps=1e-2, order=3, deg=4)
        rng = np.random.default_rng(5)
        pts = [(y0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0, TWO_PI, 2)) for _ in range(4)]
        calls, grads = [], TaylorFourierSeries.eval_grads
        monkeypatch.setattr(TaylorFourierSeries, "eval_grads",
                            lambda chi, y, x: calls.append(1) or grads(chi, y, x))
        for rtol, atol in ((1e-13, 1e-14), (1e-4, 1e-5)):
            z, total, stages = np.array([np.concatenate(pt) for pt in pts]), 0.0, []
            for j, chi in sorted(nf.chi, key=lambda t: -t[0]):
                calls.clear()
                moved, err = _flow_time1(chi, nf.epsilon ** j, z, rtol, atol)
                stages.append(len(calls))
                assert np.max(np.abs(moved - z)) > 0 and err > 0
                assert err <= atol + rtol * np.max(np.abs(moved))
                z, total = moved, total + err
            rep = verify_conjugacy(ham, nf, pts, rtol=rtol, atol=atol)
            assert rep.flow_error == total
            assert rep.flow_error <= 0.01 * rep.max_residual
        # the loose tolerance settles every flow at N = 2: the stage at the
        # start point, which both levels share, 3 stages of their stacked
        # first steps and 4 of level 2's second step
        assert stages == [8, 8, 8]

    def test_step_cap_raises(self):
        # a tolerance below double rounding is never met: the flow stops at
        # the step cap instead of refining on
        _ham, nf, _, y0 = nonres_setup(eps=1e-2, order=1, deg=3)
        z = np.concatenate([y0, [0.4, 1.3]])[None, :]
        t0 = time.perf_counter()
        with pytest.raises(HypothesisError, match="at 256 steps"):
            _flow_time1(nf.chi[0][1], nf.epsilon, z, 1e-18, 0.0)
        assert time.perf_counter() - t0 < 0.5

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

    def test_energy_conserved_along_flow(self):
        # sanity: the natural Hamiltonian is conserved by its own flow
        from scipy.integrate import solve_ivp

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
