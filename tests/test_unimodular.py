import math
from fractions import Fraction

import numpy as np
import pytest

from resoforge.fourier import ConfigError, generators
from resoforge.unimodular import (
    apply,
    complete_to_sl,
    decoupling_matrix,
    int_adjugate,
    int_det,
    kinetic_split_residual,
    mat_mul,
    mat_transpose,
    mat_vec,
    symplectic_residual_exact,
)


def random_rational_vector(rng, n):
    return [Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 50)))
            for _ in range(n)]


class TestIntLinalg:
    def test_det_known(self):
        assert int_det([[2, 3], [1, 2]]) == 1
        assert int_det([[1, 2], [2, 4]]) == 0
        assert int_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1

    def test_adjugate_inverse_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = [[int(rng.integers(-5, 6)) for _ in range(n)] for _ in range(n)]
            d = int_det(m)
            if d == 0:
                continue
            adj = int_adjugate(m)
            prod = [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]
            assert all(prod[i][j] == (d if i == j else 0)
                       for i in range(n) for j in range(n))


class TestCompletion:
    def test_unit_vector_gives_identity(self):
        for n in (2, 3, 4):
            k = (1,) + (0,) * (n - 1)
            um = complete_to_sl(k)
            assert um.rows == tuple(tuple(int(i == j) for j in range(n))
                                    for i in range(n))

    def test_known_completion_2_3(self):
        um = complete_to_sl((2, 3))
        assert um.rows == ((2, 3), (1, 2))
        assert um.det == 1
        rep = um.bounds_report()
        assert rep["A_hat_inf"] == 2 <= 3

    def test_exhaustive_small(self):
        for n in (2, 3, 4):
            for k in generators(n, 8):
                um = complete_to_sl(k)
                k_inf = max(abs(v) for v in k)
                assert um.det == 1
                assert um.k == k
                assert um.norm_inf(um.A_hat) <= k_inf
                assert um.norm_inf() == k_inf
                bound = (n - 1) ** ((n - 1) / 2) * k_inf ** (n - 1)
                assert um.norm_inf(um.inverse) <= bound

    def test_random_spot_checks_large(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 60:
            n = int(rng.integers(2, 5))
            k = tuple(int(v) for v in rng.integers(-25, 26, n))
            if sum(abs(v) for v in k) == 0 or sum(abs(v) for v in k) > 50:
                continue
            first = next(v for v in k if v != 0)
            if first < 0 or math.gcd(*k) != 1:
                continue
            um = complete_to_sl(k)
            assert um.det == 1
            k_inf = max(abs(v) for v in k)
            assert um.norm_inf(um.A_hat) <= k_inf
            assert um.norm_inf() == k_inf
            done += 1

    def test_rejects_non_generators(self):
        with pytest.raises(ConfigError, match="not a generator"):
            complete_to_sl((2, 4))
        with pytest.raises(ConfigError):
            complete_to_sl((-1, 2))
        with pytest.raises(ConfigError):
            complete_to_sl((0, 0))

    def test_one_not_a_generator_error(self):
        # cli.main maps the library's one ConfigError class to exit code 2
        with pytest.raises(ConfigError) as err:
            complete_to_sl((2, 4))
        assert type(err.value) is ConfigError and err.value.exit_code == 2

    def test_exact_inverse(self):
        for k in ((2, 3), (3, -2, 1), (0, 1, 2)):
            um = complete_to_sl(k)
            n = um.n
            prod = [[sum(um.rows[i][t] * um.inverse[t][j] for t in range(n))
                     for j in range(n)] for i in range(n)]
            assert all(prod[i][j] == int(i == j) for i in range(n) for j in range(n))


class TestDecoupling:
    def test_identity_when_ahat_k_zero(self):
        um = complete_to_sl((1, 0))
        dm = decoupling_matrix(um)
        assert dm.U == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    def test_decoupling_shear_2_3(self):
        dm = decoupling_matrix(complete_to_sl((2, 3)))
        assert dm.U[0] == [Fraction(1), Fraction(-8, 13)]
        assert dm.U[1] == [Fraction(0), Fraction(1)]

    def test_kinetic_split_exact(self):
        rng = np.random.default_rng(2)
        for k in ((2, 3), (1, 1), (3, -1, 2), (1, -2, 2, 1)):
            dm = decoupling_matrix(complete_to_sl(k))
            for _ in range(25):
                Y = random_rational_vector(rng, len(k))
                assert kinetic_split_residual(dm, Y) == 0

    def test_split_at_unit_first_coordinate(self):
        # at Y = e_1 the pulled-back kinetic form equals |k|^2
        for k in ((2, 3), (1, -2, 2)):
            dm = decoupling_matrix(complete_to_sl(k))
            n = len(k)
            Y = [Fraction(1)] + [Fraction(0)] * (n - 1)
            at = [list(r) for r in zip(*dm.um.rows)]
            w = mat_vec(at, mat_vec(dm.U, Y))
            assert sum(v * v for v in w) == sum(v * v for v in k)

    def test_affine_maps_are_the_exact_products(self):
        # the products built from U = I + e1 shear^T equal the generic ones,
        # invert each other exactly, and affine has first column k and every
        # other column orthogonal to k
        for k in ((2, 3), (1, 1), (1, 2), (1, 0), (3, -1, 2), (0, 1, 2), (1, -2, 2, 1)):
            dm = decoupling_matrix(complete_to_sl(k))
            n = len(k)
            assert dm.affine == mat_mul(mat_transpose(dm.um.rows), dm.U)
            assert dm.affine_inv == mat_mul(dm.U_inv, mat_transpose(dm.um.inverse))
            assert mat_mul(dm.affine, dm.affine_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
            assert [row[0] for row in dm.affine] == list(k)
            assert all(sum(row[j] * v for row, v in zip(dm.affine, k)) == 0 for j in range(1, n))

    def test_apply_rounds_each_entry_once_and_sums_in_column_order(self):
        # the bits of a scalar loop in Python floats, for a stack of points
        # and for one point
        M = [[Fraction(1, 3), 2, Fraction(-2, 5)], [0, Fraction(7, 9), 1]]
        v = np.random.default_rng(5).normal(size=(4, 5, 3))
        want = np.array([[[(float(r[0]) * x[0] + float(r[1]) * x[1]) + float(r[2]) * x[2] for r in M]
                          for x in row] for row in v.tolist()])
        got = apply(M, v)
        assert got.shape == (4, 5, 2) and got.tobytes() == want.tobytes()
        assert apply(M, v[1, 2]).tobytes() == want[1, 2].tobytes()

    def test_operator_norm_bound(self):
        for k in ((2, 3), (3, -1, 2), (1, -2, 2, 1)):
            dm = decoupling_matrix(complete_to_sl(k))
            nu, nui = dm.operator_norms()
            n = len(k)
            assert nu <= n ** 1.5 + 1e-9
            assert nui <= n ** 1.5 + 1e-9

    def test_operator_norms_closed_form(self):
        # (|w| + (|w|^2 + 4)^{1/2}) / 2 against an SVD of U and of U^{-1}, on
        # every generator with n <= 4 and |k|_1 <= 8; the golden k's bits
        assert decoupling_matrix(complete_to_sl((3, 5, 7))).operator_norms() == (1.0928925060735373,) * 2
        for n in (2, 3, 4):
            for k in generators(n, 8):
                dm = decoupling_matrix(complete_to_sl(k))
                for got, m in zip(dm.operator_norms(), (dm.U, dm.U_inv)):
                    want = float(np.linalg.norm(np.array(m, dtype=float), 2))
                    assert abs(got - want) <= 4 * math.ulp(want), k


class TestSymplecticMaps:
    def test_phi1_symplectic_residual_exactly_zero(self):
        for k in ((2, 3), (3, -1, 2)):
            dm = decoupling_matrix(complete_to_sl(k))
            assert symplectic_residual_exact(dm) == 0

    def test_phi1_composition_with_inverse(self):
        # Phi1 (Y, X) -> (U Y, U^{-T} X) and its inverse (U^{-1} y, U^T x), exactly
        rng = np.random.default_rng(3)
        dm = decoupling_matrix(complete_to_sl((3, -1, 2)))
        for _ in range(100):
            Y = random_rational_vector(rng, 3)
            X = random_rational_vector(rng, 3)
            yt, xt = mat_vec(dm.U, Y), mat_vec(mat_transpose(dm.U_inv), X)
            assert mat_vec(dm.U_inv, yt) == Y and mat_vec(mat_transpose(dm.U), xt) == X

    def test_identity_decoupling_is_fixed_point(self):
        dm = decoupling_matrix(complete_to_sl((1, 0, 0)))
        Y = [Fraction(1, 3), Fraction(2, 7), Fraction(-1, 2)]
        X = [Fraction(5, 9), Fraction(0), Fraction(3, 4)]
        assert mat_vec(dm.U, Y) == Y and mat_vec(mat_transpose(dm.U_inv), X) == X

    def test_lattice_adaptation_angle_identity(self):
        # x_tilde = A x has x_tilde_1 = k.x, and (A^T y_tilde, A^{-1} x_tilde)
        # inverts it, exactly in rationals
        rng = np.random.default_rng(4)
        for k in ((2, 3), (1, -2, 2)):
            um = complete_to_sl(k)
            for _ in range(50):
                y = random_rational_vector(rng, len(k))
                x = random_rational_vector(rng, len(k))
                yt, xt = mat_vec(mat_transpose(um.inverse), y), mat_vec(um.rows, x)
                assert xt[0] == sum(Fraction(ki) * xi for ki, xi in zip(k, x))
                assert mat_vec(mat_transpose(um.rows), yt) == y and mat_vec(um.inverse, xt) == x
