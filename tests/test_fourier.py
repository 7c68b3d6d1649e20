import itertools
import json
import math

import numpy as np
import pytest

from resoforge.fourier import (
    LacunaryRule,
    NotAGeneratorError,
    OneDTrigPoly,
    TrigPoly,
    generators,
    is_canonical,
    is_generator,
    iter_half_ball,
    l1,
    lacunary_potential,
    lattice_projections,
    load_potential,
    on_ray,
    project_lattice,
    save_potential,
    two_mode_potential,
)


def brute_force_generators(n, K):
    out = set()
    for k in itertools.product(range(-K, K + 1), repeat=n):
        if not 0 < sum(abs(v) for v in k) <= K:
            continue
        first = next(v for v in k if v != 0)
        if first > 0 and math.gcd(*k) == 1:
            out.add(k)
    return out


def random_poly(rng, n=2, kmax=4, modes=6):
    ball = [k for k in iter_half_ball(n, kmax)]
    picks = rng.choice(len(ball), size=min(modes, len(ball)), replace=False)
    coeffs = {ball[i]: complex(rng.normal(), rng.normal()) for i in picks}
    return TrigPoly(n, coeffs)


class TestGenerators:
    def test_one_dimensional(self):
        assert generators(1, 5) == [(1,)]

    def test_n2_k3_exact_list(self):
        assert generators(2, 3) == [
            (0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1),
        ]

    def test_unit_ball(self):
        assert generators(2, 1) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("K", [1, 4, 7, 10])
    def test_against_brute_force(self, n, K):
        assert set(generators(n, K)) == brute_force_generators(n, K)

    def test_gcd_and_sign_invariants(self):
        for n in (2, 3, 4):
            for k in generators(n, 10):
                assert math.gcd(*k) == 1
                assert next(v for v in k if v != 0) > 0

    def test_lexicographic_and_deterministic(self):
        g = generators(3, 6)
        assert g == sorted(g)
        assert g == generators(3, 6)

    def test_membership_helpers(self):
        assert is_canonical((0, 2)) and not is_canonical((-1, 3))
        assert is_generator((2, 3)) and not is_generator((2, 4))


class TestOnRay:
    """on_ray gives the signed multiple j != 0 with kp == j k, else None."""

    @pytest.mark.parametrize("k", [(1, 1), (1, -1), (2, -1), (1, 0), (0, 1), (1, -2, 3)], ids=str)
    def test_signed_multiples(self, k):
        for j in (-3, -2, -1, 1, 2, 5):
            assert on_ray(tuple(j * v for v in k), k) == j

    def test_negative_entries_in_k(self):
        assert on_ray((1, -1), (-1, 1)) == -1
        assert on_ray((-2, 2), (-1, 1)) == 2
        assert on_ray((0, -3), (0, -1)) == 3
        assert on_ray((4, -2), (-2, 1)) == -2

    def test_non_multiples(self):
        assert on_ray((1, 2), (1, 1)) is None
        assert on_ray((2, 1), (1, 2)) is None
        assert on_ray((1, 0), (2, 0)) is None
        assert on_ray((-1, 0), (2, 0)) is None
        assert on_ray((1, 1), (1, 0)) is None
        assert on_ray((3, -2), (-2, 1)) is None
        assert on_ray((2, 4, 7), (1, 2, 3)) is None

    def test_zero_mode(self):
        assert on_ray((0, 0), (1, 1)) is None
        assert on_ray((0, 0, 0), (1, -2, 3)) is None
        assert on_ray((1, 1), (0, 0)) is None

    def test_integer_result(self):
        assert type(on_ray((np.int64(-2), np.int64(2)), (1, -1))) is int


class TestProjection:
    def test_lacunary_projection_is_cosine(self):
        s = 1.0
        f = lacunary_potential(2, s, k_max=12)
        for k in ((1, 1), (2, -1), (1, 0)):
            F = project_lattice(f, k)
            assert set(F.coeffs) == {1}
            assert F.coeffs[1] == pytest.approx(math.exp(-s * l1(k)))

    def test_no_modes_on_ray(self):
        f = TrigPoly(2, {(1, 0): 1.0})
        assert project_lattice(f, (0, 1)).is_zero

    def test_direct_reindexing(self):
        a, b = 0.3 + 0.1j, -0.2 + 0.05j
        f = TrigPoly(2, {(1, 2): a, (2, 4): b})
        F = project_lattice(f, (1, 2))
        assert F.coeffs == {1: a, 2: b}

    def test_requires_generator(self):
        f = TrigPoly(2, {(1, 0): 1.0})
        with pytest.raises(NotAGeneratorError, match="not a generator"):
            project_lattice(f, (2, 4))

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_poly(rng, n=2, kmax=5, modes=8)
            projections = {
                k: project_lattice(f, k) for k in generators(2, f.max_order())
            }
            for _ in range(100):
                x = rng.uniform(0, 2 * np.pi, 2)
                total = sum(
                    F.evaluate(float(np.dot(k, x))).real
                    for k, F in projections.items()
                )
                assert total == pytest.approx(f.evaluate(x).real, abs=1e-12)


def reference_project_lattice(f, k):
    """pi_k f by the per-mode scan: on_ray of every stored mode against k."""
    k = tuple(int(v) for v in k)
    if not is_generator(k):
        raise NotAGeneratorError("not a generator")
    coeffs = {}
    for kp, c in f.coeffs.items():
        j = on_ray(kp, k)
        if j is not None:
            coeffs[j] = c
    if f.rule is not None:
        fresh = max((l1(kp) for kp in f.coeffs), default=0)
        cutoff = f.rule_cutoff if f.rule_cutoff is not None else fresh
        jm = max(2, int(cutoff // max(l1(k), 1)) + 2)
        for j in range(1, jm + 1):
            c = f.rule.coeff(tuple(j * v for v in k))
            if c != 0:
                coeffs[j] = c
    return OneDTrigPoly(coeffs)


def random_ray_poly(rng, n, rays=4, j_max=6, noise=4):
    """Multiples j k (2 <= #j <= j_max) on several generator rays, negative
    entries included, plus a few scattered modes, inserted in shuffled order."""
    gens = generators(n, 4)
    modes = []
    for i in rng.choice(len(gens), size=min(rays, len(gens)), replace=False):
        js = rng.choice(np.arange(1, j_max + 1), size=int(rng.integers(2, j_max + 1)), replace=False)
        modes += [tuple(int(j) * v for v in gens[i]) for j in js]
    ball = list(iter_half_ball(n, 5))
    modes += [ball[i] for i in rng.choice(len(ball), size=min(noise, len(ball)), replace=False)]
    order = rng.permutation(len(modes))
    return TrigPoly(n, {modes[i]: complex(rng.normal(), rng.normal()) for i in order})


def projection_items(F):
    return list(F.coeffs.items())


class TestLatticeProjections:
    """lattice_projections and project_lattice against the per-mode scan:
    the same coefficient items in the same order."""

    def assert_matches_reference(self, f, gens):
        want = [projection_items(reference_project_lattice(f, k)) for k in gens]
        assert [projection_items(F) for F in lattice_projections(f, gens)] == want
        assert [projection_items(project_lattice(f, k)) for k in gens] == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_ray_supports(self, n, seed):
        rng = np.random.default_rng([n, seed])
        f = random_ray_poly(rng, n)
        gens = generators(n, f.max_order())
        assert sum(len(F.coeffs) > 1 for F in lattice_projections(f, gens)) >= 1
        self.assert_matches_reference(f, gens)
        # any order and any subset of the generators
        subset = [gens[i] for i in rng.permutation(len(gens))[: max(1, len(gens) // 2)]]
        self.assert_matches_reference(f, subset)

    @pytest.mark.parametrize("cutoff", [None, 9.0])
    def test_rule_backed(self, cutoff):
        # stored modes that disagree with the rule, so its coefficients show
        coeffs = {(3, 3): 0.2, (1, 1): 0.05, (2, -4): 0.1j, (1, 0): 0.3, (4, 0): -0.1}
        f = TrigPoly(2, coeffs, rule=LacunaryRule(n=2, s=1.0), rule_cutoff=cutoff)
        gens = generators(2, 6)
        got = lattice_projections(f, gens)
        assert list(got[gens.index((1, 1))].coeffs) == [3, 1]
        self.assert_matches_reference(f, gens)

    def test_materialized_rule(self):
        for f in (lacunary_potential(2, 1.0, k_max=12), lacunary_potential(3, 2.0, k_max=6)):
            self.assert_matches_reference(f, generators(f.n, f.max_order() + 2))

    def test_empty_support(self):
        f = TrigPoly(2, {})
        gens = generators(2, 3)
        assert all(F.is_zero for F in lattice_projections(f, gens))
        self.assert_matches_reference(f, gens)
        assert lattice_projections(f, []) == []

    @pytest.mark.parametrize("gens", [
        [(2, 4)],
        [(1, 0), (1, 1), (2, 4)],
        [(0, 1), (-1, 1), (1, 0)],
        [(1, 0), (0, 0)],
        [(1, 2), (3, 0)],
    ])
    def test_non_generator_anywhere(self, gens):
        f = random_ray_poly(np.random.default_rng(0), 2)
        with pytest.raises(NotAGeneratorError, match="not a generator"):
            lattice_projections(f, gens)

    def test_generators_checked_before_the_support_is_read(self):
        class Unread:
            n, rule, rule_cutoff = 2, None, None

            @property
            def coeffs(self):
                raise AssertionError("support read before the generators were checked")

        with pytest.raises(NotAGeneratorError):
            lattice_projections(Unread(), [(1, 0), (2, 2)])

    def test_max_order_matches_fresh_recomputation(self):
        rng = np.random.default_rng(8)
        polys = [random_ray_poly(rng, n) for n in (1, 2, 3)]
        polys += [TrigPoly(2, {}), lacunary_potential(2, 1.0, k_max=12)]
        for f in polys:
            fresh = max((l1(k) for k in f.coeffs), default=0)
            # the second call reads the memoised value
            assert (f.max_order(), f.max_order()) == (fresh, fresh)


class TestEvaluate:
    def test_cosine_at_zero(self):
        F = OneDTrigPoly.from_cosine(2.0)
        assert F.evaluate(0.0) == pytest.approx(2.0)

    def test_cosine_at_i(self):
        F = OneDTrigPoly.from_cosine(2.0)
        assert F.evaluate(1j).real == pytest.approx(2 * math.cosh(1.0), rel=1e-14)

    def test_zero_everywhere(self):
        assert OneDTrigPoly({}).evaluate(1.234) == 0.0
        assert TrigPoly(2, {}).evaluate([0.3, 1.0]) == 0.0

    def test_reality_on_real_points(self):
        rng = np.random.default_rng(5)
        f = random_poly(rng)
        for _ in range(20):
            x = rng.uniform(0, 2 * np.pi, 2)
            assert abs(f.evaluate(x).imag) < 1e-14


def reference_values_on_grid(F, m, order=0):
    """Direct-sum evaluator: the (degree x m) phase matrix, no FFT, no folding."""
    theta = np.arange(m) * (2 * math.pi / m)
    if not F.coeffs:
        return np.zeros(m)
    js = np.array(sorted(F.coeffs), dtype=float)
    cs = np.array([F.coeffs[int(j)] for j in js]) * (1j * js) ** order
    return 2.0 * np.real(cs @ np.exp(1j * np.outer(js, theta)))


class TestValuesOnGrid:
    # (m, degree): 2*degree >= m folds modes into r = 0, r = m/2 and r > m/2
    CASES = [(1, 3), (2, 3), (7, 9), (8, 9), (16, 20), (17, 20), (64, 5), (1 << 14, 12)]

    @staticmethod
    def poly(degree, seed):
        rng = np.random.default_rng(seed)
        return OneDTrigPoly({j: complex(rng.normal(), rng.normal())
                             for j in range(1, degree + 1)})

    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("m,degree", CASES)
    def test_matches_direct_sum(self, m, degree, order):
        F = self.poly(degree, seed=m * 100 + degree)
        scale = sum(j ** order * abs(c) for j, c in F.coeffs.items())
        got = F.values_on_grid(m, order)
        assert got.shape == (m,)
        np.testing.assert_allclose(got, reference_values_on_grid(F, m, order),
                                   rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("m", [7, 8])
    def test_single_aliased_modes(self, m):
        # j = m lands on r = 0, m/2 on the Nyquist bin when m is even,
        # m - 1 on r > m/2, and 2m + 3 wraps twice onto r = 3
        for j in (m, m // 2, m - 1, 2 * m + 3):
            F = OneDTrigPoly({j: 0.3 - 0.7j})
            for order in range(4):
                np.testing.assert_allclose(F.values_on_grid(m, order),
                                           reference_values_on_grid(F, m, order),
                                           rtol=0, atol=1e-13 * j ** order)

    @pytest.mark.parametrize("m", [1, 7, 8])
    def test_empty_polynomial(self, m):
        for order in range(4):
            got = OneDTrigPoly({}).values_on_grid(m, order)
            assert got.shape == (m,) and not got.any()


def per_order_values_on_grid(F, m, order=0):
    """The single-order grid as one backward-normalized irfft scaled by m."""
    js = np.fromiter(F.coeffs, dtype=np.int64, count=len(F.coeffs))
    cs = np.fromiter(F.coeffs.values(), dtype=complex, count=len(js))
    cs = cs * (1j * js) ** order
    r = js % m
    low = r < m - r
    vals = np.where(low, cs, np.conj(cs))
    vals = np.where((r == 0) | (2 * r == m), 2.0 * cs.real, vals)
    X = np.zeros(m // 2 + 1, dtype=complex)
    np.add.at(X, np.where(low, r, m - r), vals)
    return m * np.fft.irfft(X, n=m)


class TestMultiOrderGrid:
    """values_on_grid takes each order from one unnormalized irfft.  For m a
    power of two, 1/m is exact, so it has the bytes of the per-order
    m * irfft."""

    @pytest.mark.parametrize("orders", [(0, 1, 2), (1, 2), (2, 0), (3,)])
    @pytest.mark.parametrize("m", [1, 2, 8, 16, 64, 512, 4096, 1 << 14])
    def test_rows_have_the_bytes_of_the_per_order_path(self, m, orders):
        rng = np.random.default_rng(m)
        for degree in (1, 5, 22, 3 * min(m, 64) + 1):
            for scale in (1.0, 1e-25, 1e3):
                js = rng.permutation(np.arange(1, degree + 1))[:max(1, degree // 2)]
                F = OneDTrigPoly({int(j): scale * complex(rng.normal(), rng.normal()) for j in js})
                for order in orders:
                    want = per_order_values_on_grid(F, m, order)
                    assert F.values_on_grid(m, order).tobytes() == want.tobytes()


class TestJson:
    def test_round_trip(self, tmp_path):
        f = TrigPoly(2, {(1, 0): 0.5 + 0.25j, (0, 1): -0.125})
        path = tmp_path / "f.json"
        save_potential(f, 0.75, path)
        g, s = load_potential(path)
        assert s == 0.75
        assert g.coeffs == f.coeffs

    def test_rule_round_trip(self, tmp_path):
        f = lacunary_potential(3, 0.5, k_max=6, amplitude=2.0)
        path = tmp_path / "f.json"
        save_potential(f, 0.5, path)
        g, s = load_potential(path)
        assert g.rule == f.rule
        assert g.coeffs == f.coeffs

    def test_rejects_noncanonical_modes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 2, "s": 1.0, "modes": [{"k": [-1, 0], "re": 1.0, "im": 0.0}]}
        ))
        with pytest.raises(ValueError, match="canonical"):
            load_potential(path)

    def test_two_mode_preset(self):
        f = two_mode_potential(1.0)
        assert set(f.coeffs) == {(1, 1), (1, -1)}
        assert f.coeff((1, 1)) == pytest.approx(math.exp(-2.0))
