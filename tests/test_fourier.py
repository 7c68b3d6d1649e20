import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from resoforge.fourier import (
    LacunaryRule,
    ConfigError,
    OneDTrigPoly,
    TrigPoly,
    generators,
    half_ball,
    is_canonical,
    is_generator,
    l1,
    lacunary_potential,
    lattice_projections,
    load_potential,
    power_table,
    project_lattice,
    save_potential,
    trig_values,
    two_mode_potential,
)

from exact import gamma, report
from reference import derivative, on_ray, product_power, reference_project_lattice, reference_values_on_grid


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
    ball = list(map(tuple, half_ball(n, kmax).tolist()))
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("K", [1.5, 4.7, 7.2])
    def test_window_lists_match_sorted_brute_force(self, n, K):
        # the lists themselves, order included, and min_order with n = 1,
        # where (1,) is the only generator and lies below min_order = 3
        top = math.floor(K)
        box = itertools.product(range(-top, top + 1), repeat=n)
        assert half_ball(n, K).tolist() == sorted(list(k) for k in box if 0 < l1(k) <= K and is_canonical(k))
        for m in (1, 3, top, top + 1):
            want = sorted(k for k in brute_force_generators(n, top) if l1(k) >= m)
            assert generators(n, K, min_order=m) == want

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
        assert not project_lattice(f, (0, 1)).coeffs

    def test_direct_reindexing(self):
        a, b = 0.3 + 0.1j, -0.2 + 0.05j
        f = TrigPoly(2, {(1, 2): a, (2, 4): b})
        F = project_lattice(f, (1, 2))
        assert F.coeffs == {1: a, 2: b}

    def test_requires_generator(self):
        f = TrigPoly(2, {(1, 0): 1.0})
        with pytest.raises(ConfigError, match="not a generator"):
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


def random_ray_poly(rng, n, rays=4, j_max=6, noise=4):
    """Multiples j k (2 <= #j <= j_max) on several generator rays, negative
    entries included, plus a few scattered modes, inserted in shuffled order."""
    gens = generators(n, 4)
    modes = []
    for i in rng.choice(len(gens), size=min(rays, len(gens)), replace=False):
        js = rng.choice(np.arange(1, j_max + 1), size=int(rng.integers(2, j_max + 1)), replace=False)
        modes += [tuple(int(j) * v for v in gens[i]) for j in js]
    ball = list(map(tuple, half_ball(n, 5).tolist()))
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
        assert all(not F.coeffs for F in lattice_projections(f, gens))
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
        with pytest.raises(ConfigError, match="not a generator"):
            lattice_projections(f, gens)

    def test_generators_checked_before_the_support_is_read(self):
        class Unread:
            n, rule, rule_cutoff = 2, None, None

            @property
            def coeffs(self):
                raise AssertionError("support read before the generators were checked")

        with pytest.raises(ConfigError):
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
    # m off-grid angles, a few of them far outside [0, 2 pi)
    ANGLES = np.random.default_rng(11).uniform(-40.0, 40.0, 6)

    @staticmethod
    def direct_sum(F, theta):
        """2 Re sum_j c_j e^{ij theta}, one angle and one mode at a time."""
        return sum(2.0 * (c * complex(math.cos(j * theta), math.sin(j * theta))).real
                   for j, c in F.coeffs.items())

    def test_cosine_at_zero(self):
        F = OneDTrigPoly.from_cosine(2.0)
        assert F.evaluate(0.0) == pytest.approx(2.0)

    def test_zero_everywhere(self):
        assert OneDTrigPoly({}).evaluate(1.234) == 0.0
        assert TrigPoly(2, {}).evaluate([0.3, 1.0]) == 0.0
        for shape in [(6,), (2, 3)]:
            got = OneDTrigPoly({}).evaluate(self.ANGLES.reshape(shape))
            assert got.shape == shape and not got.any()

    @pytest.mark.parametrize("shape", [(), (1,), (6,), (2, 3)])
    @pytest.mark.parametrize("degree", [1, 2, 5, 17])
    def test_off_grid_angles_match_direct_sum(self, degree, shape):
        # and an array call has the bytes of one call per angle
        F = TestValuesOnGrid.poly(degree, seed=degree)
        theta = self.ANGLES[:math.prod(shape)].reshape(shape)
        got = F.evaluate(theta)
        assert np.shape(got) == shape and np.asarray(got).dtype == float
        scalars = np.array([F.evaluate(t) for t in theta.ravel()]).reshape(shape)
        assert np.asarray(got).tobytes() == scalars.tobytes()
        want = np.vectorize(lambda t: self.direct_sum(F, t))(theta)
        scale = sum(abs(c) for c in F.coeffs.values())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_reality_on_real_points(self):
        rng = np.random.default_rng(5)
        f = random_poly(rng)
        for _ in range(20):
            x = rng.uniform(0, 2 * np.pi, 2)
            assert abs(f.evaluate(x).imag) < 1e-14


class TestTrigValues:
    """Each value of a trig_values call is its own sum: it has the bytes of
    the call on its row and angle alone, whatever the stack around it."""

    @staticmethod
    def alone(C, js, t):
        """trig_values over the broadcast stack of C and t, one (row, angle) pair a call."""
        shape = np.broadcast_shapes(C.shape[:-1], np.shape(t))
        rows, angles = np.broadcast_to(C, shape + C.shape[-1:]), np.broadcast_to(t, shape)
        return np.array([trig_values(rows[at], js, angles[at]) for at in np.ndindex(shape)]).reshape(shape)

    @pytest.mark.parametrize("degree", range(1, 18))
    def test_stack_equals_each_entry_alone(self, degree):
        rng = np.random.default_rng(degree)
        js = np.unique(np.r_[rng.integers(1, degree + 1, degree), degree]).astype(float)
        c = rng.normal(size=(5, len(js))) + 1j * rng.normal(size=(5, len(js)))
        rows = c[:, None, :] * (1j * js) ** np.arange(4.0)[:, None]  # as critical_points_many's groups
        of = np.sort(rng.integers(0, 5, 40))
        t = rng.uniform(-40.0, 40.0, 40)
        C3 = rows[:, :3]  # P, P', P'' as _zeros and _polish hold them
        stacks = {
            "zeros_cells": (C3[rng.integers(0, 5, 40)], t[:, None], (40, 3)),
            "zeros_level_0": (C3[:, None], t[:12, None], (5, 12, 3)),  # every row at the same n cells
            "polish_value_row": (np.ascontiguousarray(C3[of])[:, 0], t, (40,)),
            "polish_brackets": (np.ascontiguousarray(C3[of]), t[:, None], (40, 3)),
            "census_values": (rows[of, :3], t[:, None], (40, 3)),
            "c2_sups": (rows[of, of % 3], t, (40,)),
            "every_row_every_angle": (rows[:, 1], t[:6, None], (6, 5)),
            "evaluate_scalar": (c[0], t[0], ()),
            "evaluate_vector": (c[0], t[:6], (6,)),
            "evaluate_matrix": (c[0], t[:6].reshape(2, 3), (2, 3)),
        }
        for name, (C, angles, shape) in stacks.items():
            got = trig_values(C, js, angles)
            assert got.shape == shape and got.dtype == float, name
            assert got.tobytes() == self.alone(C, js, angles).tobytes(), name


class TestPowerTable:
    def test_equals_a_product_loop_at_zeros_subnormals_negatives_and_overflow(self):
        tiny = 5e-324
        v = np.array([0.0, -0.0, tiny, -tiny, 3e-310, -2.2e-308, -1.0, -3.5, 0.5, -0.75,
                      1e100, -1e200, 1.7e308, -np.inf, np.inf])
        with np.errstate(over="ignore"):
            got, want = power_table(v, 6), product_power(v[:, None], np.arange(7))
            assert power_table(v.reshape(3, 5), 6).tobytes() == want.tobytes()
        assert got.shape == (15, 7) and got.tobytes() == want.tobytes()
        assert got[:, 0].tobytes() == np.ones(15).tobytes() and got[:, 1].tobytes() == v.tobytes()
        # the sign of a zero power follows the parity, underflow keeps it too,
        # and overflow gives an inf of the power's sign
        assert np.signbit(got[1]).tolist() == [False, True, False, True, False, True, False]
        assert got[3, 2:].tolist() == [0.0] * 5 and np.signbit(got[3, 2:]).tolist() == [False, True] * 2 + [False]
        assert got[11, 2:].tolist() == [np.inf, -np.inf, np.inf, -np.inf, np.inf]
        assert power_table(v, 0).tobytes() == np.ones((15, 1)).tobytes()

    def test_within_gamma_of_the_exact_power_where_normal(self):
        # k - 1 rounded products are within gamma_{k-1} of the exact power
        rng = np.random.default_rng(44)
        v = np.concatenate([rng.uniform(-2.0, 2.0, 150),
                            rng.standard_normal(150) * np.exp(rng.uniform(-40.0, 40.0, 150))])
        top = 16
        with np.errstate(over="ignore"):
            table = power_table(v, top)
        worst, checked = Fraction(0), 0
        for x, row in zip(v.tolist(), table.tolist()):
            for k in range(2, top + 1):
                if not np.finfo(float).tiny <= abs(row[k]) < np.inf:
                    continue
                exact = Fraction(x) ** k
                worst = max(worst, abs(Fraction(row[k]) - exact) / (gamma(k - 1) * abs(exact)))
                checked += 1
        report(f"{checked} powers", largest=worst)
        assert checked > 3000 and 0 < worst <= 1, (checked, float(worst))


class TestValuesOnGrid:
    # (m, degree): 2*degree >= m puts modes at j = 0 and j = m/2 mod m
    CASES = [(1, 3), (2, 3), (7, 9), (8, 9), (16, 20), (17, 20), (64, 5), (1 << 14, 12)]

    @staticmethod
    def poly(degree, seed):
        rng = np.random.default_rng(seed)
        return OneDTrigPoly({j: complex(rng.normal(), rng.normal())
                             for j in range(1, degree + 1)})

    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("m,degree", CASES)
    def test_matches_direct_sum(self, m, degree, order):
        # the order-th derivative's coefficients, as the Morse census evaluates them
        F = self.poly(degree, seed=m * 100 + degree)
        scale = sum(j ** order * abs(c) for j, c in F.coeffs.items())
        got = derivative(F, order).values_on_grid(m)
        assert got.shape == (m,)
        grid = np.arange(m) * (2 * math.pi / m)
        assert got.tobytes() == derivative(F, order).evaluate(grid).tobytes()
        np.testing.assert_allclose(got, reference_values_on_grid(F, m, order),
                                   rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("m", [7, 8])
    def test_single_aliased_modes(self, m):
        # j = m is 1 on the grid, m/2 alternates in sign when m is even,
        # and m - 1 and 2m + 3 alias onto r = m - 1 and r = 3
        for j in (m, m // 2, m - 1, 2 * m + 3):
            F = OneDTrigPoly({j: 0.3 - 0.7j})
            np.testing.assert_allclose(F.values_on_grid(m), reference_values_on_grid(F, m),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 7, 8])
    def test_empty_polynomial(self, m):
        got = OneDTrigPoly({}).values_on_grid(m)
        assert got.shape == (m,) and not got.any()


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
        with pytest.raises(ConfigError, match="canonical"):
            load_potential(path)

    @pytest.mark.parametrize("mode", [{}, {"k": 5}, {"k": [1, 0, 0]}],
                             ids=["k_missing", "k_not_a_list", "k_wrong_length"])
    def test_rejects_malformed_k(self, tmp_path, mode):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "s": 1.0, "modes": [{**mode, "re": 1.0, "im": 0.0}]}))
        with pytest.raises(ConfigError, match='"k", a list of 2 integers'):
            load_potential(path)

    @pytest.mark.parametrize("doc, message", [
        ({"s": 1.0, "modes": [{"k": [1, 0], "re": math.nan, "im": 0.0}]},
         "mode (1, 0) needs a finite re and im, got (nan+0j)"),
        ({"s": 1.0, "modes": [{"k": [1, 0], "re": 1.0, "im": -math.inf}]},
         "mode (1, 0) needs a finite re and im, got (1-infj)"),
        ({"s": math.nan, "modes": []}, "potential file field s must be finite, got nan"),
        ({"s": math.inf, "rule": "exp-lacunary"}, "potential file field s must be finite, got inf"),
        ({"s": 4.0, "rule": "exp-lacunary", "params": {"k_max": math.inf}},
         "rule params s, k_max and amplitude must be finite, got {'s': 4.0, 'k_max': inf, 'amplitude': 1.0}"),
        ({"s": 4.0, "rule": "exp-lacunary", "params": {"s": math.nan, "amplitude": -math.inf}},
         "rule params s, k_max and amplitude must be finite, got {'s': nan, 'k_max': 40.0, 'amplitude': -inf}"),
    ], ids=["re_nan", "im_inf", "s_nan", "rule_file_s_inf", "rule_k_max_inf", "rule_s_nan_amplitude_inf"])
    def test_rejects_non_finite_fields(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, **doc}))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_potential(path)

    def test_two_mode_preset(self):
        f = two_mode_potential(1.0)
        assert set(f.coeffs) == {(1, 1), (1, -1)}
        assert f.coeff((1, 1)) == pytest.approx(math.exp(-2.0))
