import dataclasses
import itertools
import math
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from resoforge.cover import free_params
from resoforge.fourier import ConfigError, HypothesisError, OneDTrigPoly, TrigPoly, generators, lacunary_potential, two_mode_potential
from resoforge.standard_form import (
    FIXED_POINT_TOL,
    GRID,
    BoundPotential,
    DecoupledForm,
    Phi2Map,
    PolyTrig1,
    ShearMap,
    build_phi1,
    build_phi2_phi3,
    c1_constant,
    c2_constant,
    characteristics,
    kappa_uniform,
    solve_fixed_point,
    standardize,
    symplectic_check,
    symplectic_defect,
    verify_standard,
    _antiderivative_at,
    _iterate,
    _THETA,
)
from resoforge.unimodular import apply, complete_to_sl, decoupling_matrix
from exact import dyadic, fraction, gamma, report
from reference import TWO_PI, add_term, product_power, three_mode_standard_form


def trivial_form(G, n_hat=1, r=0.1, sb=0.5, theta_o=1e-5):
    return DecoupledForm(Gf=G, adiabatic=lambda ph: 0.0,
                         r=r, s_breve=sb, theta_o_bound=theta_o, n_hat=n_hat)


def hsharp(form, Y1, ph, q1):
    """Hsharp(Y, X1) = Y1^2 + Gf(Y1, phat, X1) of a decoupled form."""
    return Y1 * Y1 + form.Gf.at(ph, q1)(Y1, 0)


def phi(fp, phat, x1):
    """The periodic primitive phi(phat, x1) = int_0^x1 ptilde of a fixed point."""
    return float(_antiderivative_at(fp.read(phat).grid.p, x1))


def shear_reader(tau, dtau, d2tau=None):
    """A ShearMap reader from closed forms of tau, dtau and (optionally) d2tau;
    a form that a stack of points reaches reads phat as ph[..., i]."""
    return lambda ph, q1: SimpleNamespace(tau=tau(ph), dtau=dtau(ph),
                                          d2tau=None if d2tau is None else d2tau(ph))


def standard_value(sf, p, q1):
    """(1 + nu) p1^2 + G(phat, q1), read as the reduction identity reads it."""
    kinetic, G = sf._read(p[..., 0], sf.fp.read(p[..., 1:], q1))
    return kinetic + G


def phi1_block(dm):
    """Phi1 as the float matrix diag(U, U^{-T}) of its decoupling matrix dm."""
    n = dm.um.n
    return np.block([[np.array(dm.U, dtype=float), np.zeros((n, n))],
                     [np.zeros((n, n)), np.array(dm.U_inv, dtype=float).T]])


def phi23_y1(sf, p1, phat, q1, rd):
    """Y1 of (p1, phat, q1, qhat = 0) through Phi3, then Phi2, under the reading rd."""
    z = np.concatenate([np.expand_dims(p1, -1), phat, np.expand_dims(q1, -1), np.zeros_like(phat)], axis=-1)
    return sf.phi2.apply(sf.phi3.apply(z, rd), rd)[..., 0]


def form_eps_k(form):
    """The scale 2 eps/|k|^2 that build_phi1 gives Gf."""
    return 2.0 * form.secular.eps / float(sum(v * v for v in form.secular.um.k))


def oscillatory_part(form):
    """The decoupled potential of the secular g series alone (zero q1
    average), re-expanded with the affine map and scale that build Gf."""
    return PolyTrig1.from_series(form.secular.g_series, form.dm, form_eps_k(form))


class TestCharacteristics:
    def test_constants_hand_values(self):
        assert c1_constant(2) == pytest.approx(10.0)
        assert c2_constant(2) == pytest.approx(4 * 2 ** 1.5 * 10, rel=1e-14)
        assert kappa_uniform(2, 1.0, 0.1) == pytest.approx(113.13708498984761, abs=1e-9)

    def test_kappa_branches(self):
        # kappa = max{c2, 4 c_s, c_s/beta}: tiny beta switches the branch
        assert kappa_uniform(2, 1.0, 1e-4) == pytest.approx(1e4)
        assert kappa_uniform(2, 0.01, 0.5) == pytest.approx(400.0)  # 4 c_s branch

    def test_lambda_and_radii(self):
        params = free_params(2, 1.0, alpha=0.05, K0=3, K=12)
        f = lacunary_potential(2, 1.0, 10)
        ch = characteristics((1, 1), 2, 1.0, 1e-4, 0.1, f, params)
        assert ch.lam == pytest.approx(12.0 ** -10)
        assert ch.R == pytest.approx(0.05 / 2)
        assert ch.r == pytest.approx(ch.R / c2_constant(2))
        assert ch.eps_k == pytest.approx(2 * 1e-4 / 2)

    def test_scales_divide_by_the_exact_square(self):
        # R and eps_k divide by the integer k.k, not by a rounded sqrt(k.k)^2
        for k, f in (((1, 1), lacunary_potential(2, 1.0, 10)), ((1, 2), lacunary_potential(2, 1.0, 10)),
                     ((1, 1, 2), lacunary_potential(3, 1.0, 8))):
            params = free_params(len(k), 1.0, alpha=0.03, K0=4, K=24)
            ch = characteristics(k, len(k), 1.0, 1e-6, 0.1, f, params)
            kk = sum(v * v for v in k)
            assert ch.eps_k == 2 * 1e-6 / kk
            assert ch.R == 0.03 / kk

    def test_branch_selection(self):
        params = free_params(2, 1.0, alpha=0.05, K0=3, K=12)
        f = lacunary_potential(2, 1.0, 80)
        low = characteristics((1, 1), 2, 1.0, 1e-4, 0.1, f, params)
        assert low.branch == "low"
        assert low.m == pytest.approx(low.eps_k * 0.1)
        assert low.sigma == pytest.approx(0.5)
        hi_k = (33, 31)  # |k|_1 = 64 >= N(1) ~ 62.5
        high = characteristics(hi_k, 2, 1.0, 1e-4, 0.1, f, params)
        assert high.branch == "high"
        assert high.m == pytest.approx(high.eps_k * abs(f.coeff(hi_k)))
        assert high.sigma == 1.0
        # the band ratio is exactly 4 c_s on the high branch
        assert high.eps_hat / high.m == pytest.approx(4.0)

    def test_eps_hat_over_m_at_least_half(self):
        params = free_params(2, 1.0, alpha=0.05, K0=3, K=12)
        f = lacunary_potential(2, 1.0, 80)
        for k, beta, s in (((1, 1), 0.1, 1.0), ((2, 1), 0.5, 0.4), ((33, 31), 0.2, 1.0)):
            ch = characteristics(k, 2, s, 1e-4, beta, f, params)
            assert ch.eps_hat / ch.m >= 0.5

    def test_kappa_uniform_across_labels(self):
        params = free_params(2, 1.0, alpha=0.05, K0=10, K=60)
        f = lacunary_potential(2, 1.0, 12)
        values = {
            characteristics(k, 2, 1.0, 1e-5, 0.1, f, params).kappa
            for k in generators(2, 10)
        }
        assert len(values) == 1


class TestFixedPoint:
    def test_y1_independent_potential_gives_zero(self):
        G = PolyTrig1(1, {(0, (0,), 1): (0.3, 0.1)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        assert fp.read([0.0], 1.2).point.p == 0.0
        assert fp.residual == 0.0

    def test_linear_potential_exact(self):
        c = 0.3
        G = PolyTrig1(1, {(1, (0,), 0): (c, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        assert fp.read([0.0], 0.3).point.p == pytest.approx(-c / 2, rel=1e-14)
        assert fp.iterations <= 3

    def test_expanding_reading_is_refused(self):
        # Gf = 0.01 Y1 + Y1^2 phat contracts at the base phat = 0, but at
        # phat = 1.5 the step u <- -0.005 - 1.5 u expands: a reading runs
        # the loop of the base solve, so its second step fails the
        # contraction check
        G = PolyTrig1(1, {(1, (0,), 0): (0.01, 0.0), (2, (1,), 0): (1.0, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        assert fp.read([0.0]).tau == pytest.approx(-0.005, rel=1e-14)
        with pytest.raises(HypothesisError, match=r"^contraction failed: step ratio 1\.500"):
            fp.read([1.5]).tau

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_reading_is_refused(self, bad):
        # a non-finite entry never settles and would stall its whole stack
        # for 200 steps: the reading is refused up front, naming the argument
        G = PolyTrig1(1, {(1, (0,), 0): (0.01, 0.0), (2, (1,), 0): (0.1, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        with pytest.raises(ConfigError, match="finite phat"):
            fp.read([[0.0], [bad]], [0.1, 0.2])
        with pytest.raises(ConfigError, match="finite q1"):
            fp.read([[0.0], [0.1]], [0.1, bad])
        assert np.isfinite(fp.read([[0.0], [0.1]], [0.1, 0.2]).point.p).all()

    def test_slow_contraction_stalls(self):
        # u <- -0.005 - 0.99 u contracts, but 200 steps leave it far from
        # FIXED_POINT_TOL
        G = PolyTrig1(1, {(1, (0,), 0): (0.01, 0.0), (2, (0,), 0): (0.99, 0.0)})
        with pytest.raises(HypothesisError, match="^fixed-point iteration stalled"):
            solve_fixed_point(trivial_form(G), np.zeros(1))

    def test_cosine_coupling_first_order(self):
        e = 0.01
        G = PolyTrig1(1, {(1, (0,), 1): (e, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        assert fp.read([0.0], 0.7).point.p == pytest.approx(-e / 2 * math.cos(0.7), rel=1e-12)
        assert fp.read([0.0]).tau == pytest.approx(0.0, abs=1e-16)
        assert phi(fp, [0.0], math.pi / 3) == pytest.approx(
            -e / 2 * math.sin(math.pi / 3), rel=1e-12
        )

    def test_p_tilde_zero_average_and_phi_periodic(self):
        G = PolyTrig1(1, {(1, (0,), 1): (0.01, 0.005), (2, (0,), 2): (0.002, 0.0),
                          (0, (0,), 1): (0.02, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        rd = fp.read(np.zeros(1))
        assert abs(np.mean(rd.grid.p - rd.tau)) < 1e-15
        assert abs(phi(fp, [0.0], TWO_PI) - phi(fp, [0.0], 0.0)) < 1e-13

    def test_divergence_detected(self):
        G = PolyTrig1(1, {(2, (0,), 0): (40.0, 0.0), (1, (0,), 1): (3.0, 0.0)})
        with pytest.raises(HypothesisError):
            solve_fixed_point(trivial_form(G), np.zeros(1))

    def test_implicit_phat_derivative(self):
        G = PolyTrig1(1, {(1, (1,), 1): (0.02, 0.01), (1, (0,), 1): (0.01, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.array([0.03]))
        h = 1e-6
        for q1 in (0.3, 2.2):
            fd = (fp.read([0.03 + h], q1).point.p - fp.read([0.03 - h], q1).point.p) / (2 * h)
            assert fp.read([0.03], q1).point.dp[0] == pytest.approx(fd, abs=1e-9)

    def test_implicit_q1_derivative(self):
        # dp/dq1 = d ptilde/dq1 is the (P1, Q1) entry of Phi2's Jacobian
        G = PolyTrig1(1, {(1, (0,), 1): (0.02, 0.01), (2, (0,), 2): (0.004, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        h = 1e-6
        for q1 in (0.5, 4.0):
            fd = (fp.read([0.0], q1 + h).point.p - fp.read([0.0], q1 - h).point.p) / (2 * h)
            J = Phi2Map(fp, 2).jacobian(np.array([0.0, 0.0, q1, 0.0]))
            assert J[0, 2] == fp.read([0.0], q1).point.dq == pytest.approx(fd, abs=1e-9)


def small_standard_form(G):
    """A standard form of G's one-action decoupled form `trivial_form(G)`."""
    fp = solve_fixed_point(trivial_form(G), np.zeros(1))
    params = free_params(2, 1.0, alpha=0.05, K0=2, K=12)
    ch = characteristics((1, 0), 2, 1.0, 1e-6, 0.1,
                         lacunary_potential(2, 1.0, 10), params)
    return build_phi2_phi3(fp, ch, OneDTrigPoly({1: 1e-6}))


class TestReduction:
    def test_quadratic_nu_exact(self):
        a = 0.04
        sf = small_standard_form(PolyTrig1(1, {(2, (0,), 0): (a, 0.0)}))
        assert sf.fp.read(np.zeros(1), 1.1).point.nu(0.37) == pytest.approx(a, rel=1e-12)
        # at p1 = 0 the standard form is G
        assert standard_value(sf, np.zeros(2), 1.3) == pytest.approx(0.0, abs=1e-15)
        # a Y1^2 + c Y1^3 + b Y1 cos q1: p moves with q1, so p != p_o, and the
        # Taylor tail about p is nu = a + 3 c p + c p1
        b, c = 0.02, 0.5
        sf = small_standard_form(PolyTrig1(1, {(2, (0,), 0): (a, 0.0), (3, (0,), 0): (c, 0.0),
                                               (1, (0,), 1): (b, 0.0)}))
        q1, p1 = np.array([0.3, 1.1, 2.9, 4.4]), np.array([0.37, -0.05, 0.0, -0.21])
        rd = sf.fp.read(np.zeros((4, 1)), q1)
        assert np.min(np.abs(rd.point.p - rd.tau)) > 1e-3
        np.testing.assert_allclose(rd.point.nu(p1), a + 3.0 * c * rd.point.p + c * p1, rtol=1e-12)

    def test_cubic_form_reduction_identity(self):
        # Gf cubic in Y1 with p varying in q1: a nu taken about the angle
        # average p_o, not about p(phat, q1), misses the identity by 1.2e-3
        # against max|H| = 9.9e-3
        sf = small_standard_form(PolyTrig1(1, {(1, (0,), 1): (0.1, 0.0), (3, (0,), 0): (1.0, 0.0),
                                               (2, (1,), 0): (0.05, 0.0)}))
        r = sf.form.r
        rng = np.random.default_rng(1)
        p1, ph, q1 = rng.uniform(-r, r, 50), rng.uniform(-r, r, 50), rng.uniform(0, TWO_PI, 50)
        pts = np.stack([p1, ph], axis=-1)
        rd = sf.fp.read(ph[:, None], q1)
        Y1 = p1 + rd.point.p
        H = float(np.max(np.abs(hsharp(sf.form, Y1, ph[:, None], q1))))
        assert sf.check_reduction_identity(pts, q1) <= 1e-12 * H

    def test_theta_independent_potential(self):
        sf = small_standard_form(PolyTrig1(1, {(2, (0,), 0): (0.03, 0.0), (1, (0,), 0): (0.01, 0.0)}))
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert standard_value(sf, np.zeros(2), rng.uniform(0, TWO_PI)) == pytest.approx(0.0, abs=1e-14)

    def test_reduction_identity_sampled(self):
        sf = small_standard_form(PolyTrig1(1, {(1, (0,), 1): (0.01, 0.004), (2, (0,), 1): (0.003, 0.0),
                                               (0, (0,), 2): (0.02, 0.01)}))
        rng = np.random.default_rng(1)
        pts = [np.array([rng.uniform(-0.05, 0.05), 0.0]) for _ in range(100)]
        q1s = rng.uniform(0, TWO_PI, 100)
        assert sf.check_reduction_identity(pts, q1s) < 1e-10


def phi1_identity_residual(form, points, thetas):
    """max |Hsec(Phi1(Y, X1)) - ((|k|^2/2) Hsharp + adiabatic)| over samples."""
    sec = form.secular
    kk2 = float(sum(v * v for v in sec.um.k))
    return max(abs(sec.value(apply(form.dm.U, Y), theta) - (0.5 * kk2 * hsharp(form, Y[0], Y[1:], theta) + form.adiabatic(Y[1:])))
               for Y, theta in zip(points, thetas))


class TestMaps:
    def test_shear_group_law(self):
        rng = np.random.default_rng(2)
        ta, dta = lambda ph: 0.1 * ph[0] - 0.05 * ph[1] ** 2, lambda ph: np.array([0.1, -0.1 * ph[1]])
        tb, dtb = lambda ph: 0.02 * ph[0] * ph[1], lambda ph: np.array([0.02 * ph[1], 0.02 * ph[0]])
        a = ShearMap(3, shear_reader(ta, dta))
        b = ShearMap(3, shear_reader(tb, dtb))
        pts = [rng.normal(size=6) for _ in range(100)]
        # Psi_a o Psi_b = Psi_{a+b}
        ab = ShearMap(3, shear_reader(lambda ph: ta(ph) + tb(ph), lambda ph: dta(ph) + dtb(ph)))
        assert max(float(np.max(np.abs(a.apply(b.apply(z)) - ab.apply(z)))) for z in pts) < 1e-12
        inv = a.inverse()
        worst = max(float(np.max(np.abs(inv.apply(a.apply(z)) - z))) for z in pts)
        assert worst < 1e-12

    def test_shear_symplectic(self):
        # symplectic_check maps all 50 points as one stack
        a = ShearMap(3, shear_reader(lambda ph: 0.1 * ph[..., 0] - 0.05 * ph[..., 1] ** 2,
                                  lambda ph: np.stack([np.full(ph.shape[:-1], 0.1),
                                                       -0.1 * ph[..., 1]], axis=-1),
                                  lambda ph: np.array([[0.0, 0.0], [0.0, -0.1]])))
        rng = np.random.default_rng(3)
        pts = [rng.normal(size=6) for _ in range(50)]
        assert symplectic_check(a, pts) < 1e-12

    def test_linear_block_symplectic(self):
        # with Gf = 0, p = 0 and Phi2 and Phi3 are the identity, so Phi_diamond's
        # Jacobian is Phi1's float block diag(U, U^{-T}) alone
        dm = decoupling_matrix(complete_to_sl((2, 3)))
        sf = dataclasses.replace(small_standard_form(PolyTrig1(1, {})), phi1=dm)
        J = sf.phi_diamond_jacobian(np.random.default_rng(4).normal(size=(1, 4)))
        assert J.tobytes() == phi1_block(dm)[None].tobytes()
        assert symplectic_defect(J) < 1e-15

    def test_phi_diamond_jacobian_matches_fd(self):
        # Phi1 is linear, so z -> J1 Phi2(Phi3(z)) - J1 z has the Jacobian
        # J - J1, and its differences carry no O(1) entry whose rounding
        # would swamp the ~1e-10 entries of J2 J3 - I
        sf = three_mode_standard_form()
        J1 = phi1_block(sf.phi1)
        h = 0.02 * sf.form.r
        for z in _jacobian_points(sf, 3, seed=16):
            J = sf.phi_diamond_jacobian(z)
            fd = _fd_jacobian(lambda w: J1 @ (sf.phi2.apply(sf.phi3.apply(w)) - w), z, h)
            scale = float(np.max(np.abs(J - J1)))
            assert scale > 0.0 and float(np.max(np.abs(J - J1 - fd))) < 1e-5 * scale

    @pytest.mark.parametrize("which", ["two_action", "three_mode"])
    def test_stacked_calls_equal_per_point_calls(self, which):
        # byte for byte: a stack of points runs the code that one point runs,
        # and tests/golden/regen.py pins the one-point results; the points
        # are the corpus's
        from resoforge.acceptance import _benchmark_standard_form

        sf = _benchmark_standard_form()[0] if which == "two_action" \
            else three_mode_standard_form()
        n, r = sf.n, sf.form.r
        rng = np.random.default_rng(20)
        pts = np.array([np.concatenate([rng.uniform(-r, r, 1),
                                        sf.fp.base_phat + rng.uniform(-r, r, n - 1),
                                        rng.uniform(0, TWO_PI, n)]) for _ in range(20)])
        inverse = sf.phi3.inverse()
        calls = {
            "phi2.apply": sf.phi2.apply,
            "phi2.jacobian": sf.phi2.jacobian,
            "phi3.apply": sf.phi3.apply,
            "phi3.jacobian": sf.phi3.jacobian,
            "phi_diamond_jacobian": sf.phi_diamond_jacobian,
            "phi3 round trip": lambda z: inverse.apply(sf.phi3.apply(z)),
            "h0": lambda z: sf._h0(sf.fp.read(z[..., 1:n]).G0, z[..., 1:n]),
        }
        if sf.form.secular is not None:  # criterion 8's form is built without one
            calls["SecularHam.value"] = lambda z: sf.form.secular.value(
                (phi1_block(sf.phi1) @ z[..., None])[..., :n, 0], z[..., n])
        for name, call in calls.items():
            got = call(pts)
            want = np.array([call(z) for z in pts])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestPipeline:
    def setup_method(self):
        self.f = two_mode_potential(1.0)
        self.params = free_params(2, 1.0, alpha=0.03, K0=2, K=6)
        self.y0 = np.array([0.5, -0.5])

    @pytest.mark.parametrize("name", ["beta", "eps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_beta_and_eps_not_finite_and_positive(self, name, value):
        # beta = 0 used to raise ZeroDivisionError, eps <= 0 returned a form
        args = {"eps": 1e-4, "beta": 0.05, name: value}
        with pytest.raises(ConfigError, match=f"^{name} must be finite and positive$"):
            standardize(self.f, 1.0, args["eps"], (1, 1), self.params, self.y0,
                        beta=args["beta"])

    def test_rejects_order_zero(self):
        # order 0 averages nothing, so there is no secular series to reduce
        with pytest.raises(ConfigError, match="^order must be at least 1$"):
            standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0, beta=0.05, order=0)

    def test_vanishing_secular_series_gives_pure_kinetic(self):
        # with g_o = g = 0 the decoupled form is Y1^2 and the adiabatic part
        # carries exactly half the squared transverse pullback
        from resoforge.lieseries import TaylorFourierSeries
        from resoforge.standard_form import SecularHam

        um = complete_to_sl((1, 1))
        empty = TaylorFourierSeries(2, self.y0, 2, 6)
        sec = SecularHam(um=um, eps=1e-4, g_o_series=empty, g_series=empty, base_point=self.y0)
        chars = characteristics((1, 1), 2, 1.0, 1e-4, 0.05, self.f, self.params)
        form = build_phi1(sec, decoupling_matrix(um), chars, theta_o_bound=1e-300)
        rng = np.random.default_rng(10)
        for _ in range(20):
            Y1 = rng.uniform(-0.3, 0.3)
            ph = rng.uniform(-1.5, 1.5, 1)
            q1 = rng.uniform(0, TWO_PI)
            assert hsharp(form, Y1, ph, q1) == Y1 * Y1
            ahat_t = np.array(um.A_hat, dtype=float).T
            v = ahat_t @ ph
            kv = np.array([1.0, 1.0])
            v = v - (v @ kv) / 2.0 * kv
            assert form.adiabatic(ph) == pytest.approx(0.5 * float(v @ v), rel=1e-14)
        assert phi1_identity_residual(
            form, [np.array([0.1, -0.8])], [0.3]
        ) < 1e-15

    def test_oscillatory_part_zero_average(self):
        # the angle average of the oscillatory decoupled potential vanishes
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        theta = np.arange(256) * (TWO_PI / 256)
        ph = np.array([-1.0])
        G_osc = oscillatory_part(sf.form)
        assert G_osc.terms
        vals = G_osc.at(ph, theta)(0.01, 0)
        assert abs(vals.mean()) < 1e-15

    def test_phi1_identity(self):
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        rng = np.random.default_rng(5)
        pts = [np.array([rng.uniform(-0.01, 0.01), -1.0 + rng.uniform(-0.01, 0.01)])
               for _ in range(50)]
        thetas = rng.uniform(0, TWO_PI, 50)
        assert phi1_identity_residual(sf.form, pts, thetas) < 1e-12

    def test_energy_identity_and_h0(self):
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        sec = sf.form.secular
        rng = np.random.default_rng(6)
        phat0 = np.array([-1.0])
        for _ in range(30):
            p1 = rng.uniform(-sf.chars.r, sf.chars.r)
            ph = phat0 + rng.uniform(-sf.chars.r, sf.chars.r, 1)
            q1 = rng.uniform(0, TWO_PI)
            rd = sf.fp.read(ph, q1)
            Y1 = phi23_y1(sf, p1, ph, q1, rd)
            kinetic, G = sf._read(p1, rd)
            lhs = sec.value(apply(sf.form.dm.U, np.concatenate([[Y1], ph])), q1)
            rhs = 1.0 * ((kinetic + G) + sf._h0(rd.G0, ph))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_gbar_is_scaled_projection(self):
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        a = math.exp(-2.0)
        assert sf.G_bar.coeffs[1] == pytest.approx(sf.chars.eps_k * a)

    def test_ray_weighted_majorant_sets_theta_o_bound(self):
        # the off-line modes (2, 1) and (1, 2) meet on 3 (1, 1) at second
        # order, so g - pi_k f has 12 terms (j = +-3), and its majorant, at
        # strip weight e^{|j| s_breve} on mode j k, sets theta_o far above the
        # g_o part; another strip weight gives another bound
        from resoforge.fourier import project_lattice
        from resoforge.lieseries import ray_series

        f = TrigPoly.from_cosines(2, {(2, 1): 0.3, (1, 2): 0.3, (1, 1): 0.2})
        k = (1, 1)
        sf = standardize(f, 1.0, 1e-6, k, self.params, self.y0, beta=0.05, order=2)
        sec, ch = sf.form.secular, sf.chars
        diff = sec.g_series.plus(ray_series(sec.g_series, project_lattice(f, k), k).scaled(-1.0))
        terms = diff.ray_terms(k)
        assert len(terms) == 12
        r_y = (4.0 * ch.r + abs(sf.form.Gf.center[0])) + 4.0 * ch.r + 1e-15  # |k|_inf = 1
        maj = float(sum(abs(c) * r_y ** sum(m) * math.exp(abs(j) * ch.s_breve) for j, m, c in terms))
        assert sf.form.theta_o_bound == ch.eps_k * maj == pytest.approx(4.66e-11, rel=1e-3)
        assert ch.eps_k * sec.g_o_series.majorant(r_y, 0.0) == pytest.approx(9.0e-13, rel=1e-2)

    def test_verify_standard_flags(self):
        # deep perturbative regime: every standard-form estimate holds
        sf = standardize(self.f, 1.0, 1e-20, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        phat0 = np.array([-1.0])
        rng = np.random.default_rng(7)
        samples = phat0[None, :] + rng.uniform(-sf.chars.r, sf.chars.r, (6, 1))
        report = verify_standard(sf, samples)
        assert all(flag["ok"] for flag in report.flags.values()), \
            {k: v for k, v in report.flags.items() if not v["ok"]}

    def test_moderate_eps_reports_margins(self):
        # at desk-scale eps the smallness flags may fail but are reported
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        phat0 = np.array([-1.0])
        report = verify_standard(sf, phat0[None, :])
        for payload in report.flags.values():
            assert "margin" in payload and "ok" in payload

    def test_full_transform_symplectic(self):
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        rng = np.random.default_rng(8)
        pts = [np.concatenate([
            rng.uniform(-sf.chars.r, sf.chars.r, 1),
            np.array([-1.0]) + rng.uniform(-sf.chars.r, sf.chars.r, 1),
            rng.uniform(0, TWO_PI, 2),
        ]) for _ in range(10)]
        assert symplectic_defect(sf.phi_diamond_jacobian(np.array(pts))) < 1e-9

    def test_phi1_is_a_shear_group_member(self):
        # the linear decoupling equals the shear with tau = -(Ahat k).phat/|k|^2
        um = complete_to_sl((2, 3))
        J1 = phi1_block(decoupling_matrix(um))
        ahat_k = float(
            (np.array(um.A_hat, dtype=float) @ np.array(um.k, dtype=float))[0]
        )
        kk2 = float(sum(v * v for v in um.k))
        shear = ShearMap(2, shear_reader(lambda ph: -ahat_k * ph[0] / kk2,
                                      lambda ph: np.array([-ahat_k / kk2]),
                                      lambda ph: np.zeros((1, 1))))
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.normal(size=4)
            assert np.allclose(J1 @ z, shear.apply(z), atol=1e-14)


class TestArgmaxInvariance:
    def test_critical_points_of_G_converge_to_Gbar(self):
        # benchmark with an explicit cosine reference: the q1-critical points
        # of G sit within the implicit-function window of Gbar's and converge
        # at the eps^2 rate of |G - Gbar|
        from resoforge.morse import critical_points as cp1d

        a = 0.02
        params = free_params(2, 1.0, alpha=0.05, K0=2, K=12)
        ch = characteristics((1, 0), 2, 1.0, 1e-6, 0.1,
                             lacunary_potential(2, 1.0, 10), params)
        gbar = OneDTrigPoly({1: a / 2})
        base_pts = np.sort(cp1d(gbar).critical_points)

        def g_critical_shift(eps):
            G = PolyTrig1(1, {(0, (0,), 1): (a, 0.0),
                              (1, (0,), 1): (eps, 0.3 * eps),
                              (1, (0,), 2): (0.5 * eps, 0.0)})
            fp = solve_fixed_point(trivial_form(G, r=0.2, theta_o=8 * eps), np.zeros(1))
            sf = build_phi2_phi3(fp, ch, gbar)
            theta = np.linspace(0, TWO_PI, 2048, endpoint=False)
            vals = standard_value(sf, np.zeros(2), theta)  # G, since p1 = 0
            # locate extrema of G by quadratic refinement around grid extrema
            shifts = []
            for idx in (int(np.argmax(vals)), int(np.argmin(vals))):
                stencil = vals[[(idx - 1) % 2048, idx, (idx + 1) % 2048]]
                denom = stencil[0] - 2 * stencil[1] + stencil[2]
                offset = 0.5 * (stencil[0] - stencil[2]) / denom
                loc = (theta[idx] + offset * (theta[1] - theta[0])) % TWO_PI
                circ = [abs(loc - t) % TWO_PI for t in base_pts]
                shifts.append(min(min(d, TWO_PI - d) for d in circ))
            return max(shifts)

        d_big = g_critical_shift(4e-3)
        d_small = g_critical_shift(1e-3)
        assert d_big < 0.05
        # |G - Gbar| scales as eps^2 here, so the shift drops ~16x; allow 4x
        assert d_small <= d_big / 4.0


# --------------------------------------------------------------------------
# array-valued potentials, the masked solver and the exact Jacobians
# --------------------------------------------------------------------------

def _potential_cases():
    from resoforge.acceptance import random_benchmark_form

    rng = np.random.default_rng(11)
    cases = []
    for n_hat in (1, 2):
        form = random_benchmark_form(rng, n_hat=n_hat)
        cases.append((form.Gf, rng.uniform(-form.r, form.r, n_hat), form.r))
    sf = three_mode_standard_form()
    cases.append((sf.form.Gf, sf.fp.base_phat + 0.3 * sf.chars.r, sf.chars.r))
    # twelve terms, whose sum at each point of an array call must be that of
    # a pointwise call
    keys = [(d, m, j) for d in range(3) for m in ((0, 0), (1, 0), (0, 1), (1, 1))
            for j in range(3)]
    pick = rng.choice(len(keys), 12, replace=False)
    G = PolyTrig1(2, {keys[i]: tuple(rng.uniform(-1e-3, 1e-3, 2)) for i in pick})
    cases.append((G, rng.uniform(-0.05, 0.05, 2), 0.05))
    return cases


# (order in Y1, order in phat, order in q1) of every derivative the fixed
# point and the standard form read: the value, G_Y, G_YY, G_YYY, G_Yq,
# G_{Y i}, G_{YY i} and G_{Y ij}
POTENTIAL_ORDERS = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (1, 0, 1), (1, 1, 0),
                    (2, 1, 0), (1, 2, 0))


def _fd_jacobian(apply, z, h):
    """Fourth-order central differences of apply, one column per input."""
    cols = []
    for i in range(len(z)):
        e = np.zeros_like(z)
        e[i] = h
        cols.append((8.0 * (apply(z + e) - apply(z - e))
                     - (apply(z + 2 * e) - apply(z - 2 * e))) / (12.0 * h))
    return np.array(cols).T


def _jacobian_mismatch(transform, z, h):
    """max |J - J_fd| over the rows of P1 and qhat, the only outputs the map
    changes, relative to the largest entry of J - I.  The other rows must be
    exactly those of the identity."""
    n = len(z) // 2
    J = transform.jacobian(z)
    moved = [0] + list(range(n + 1, 2 * n))
    still = [i for i in range(2 * n) if i not in moved]
    assert np.array_equal(J[still], np.eye(2 * n)[still])
    scale = float(np.max(np.abs(J - np.eye(2 * n))))
    assert scale > 0.0
    fd = _fd_jacobian(transform.apply, z, h)
    return float(np.max(np.abs(J[moved] - fd[moved]))) / scale


def _jacobian_points(sf, count, seed):
    # P1 = 0 and qhat = 0, so the rows under test carry no O(1) input whose
    # rounding would swamp the ~1e-7 (two-action) and ~1e-10 (pipeline)
    # entries of the Jacobian
    rng = np.random.default_rng(seed)
    r = sf.form.r
    n_hat = sf.form.n_hat
    return [np.concatenate([[0.0], sf.fp.base_phat + rng.uniform(-r, r, n_hat),
                            [rng.uniform(0, TWO_PI)], np.zeros(n_hat)])
            for _ in range(count)]


class TestArrayPotentials:
    @pytest.mark.parametrize("case", range(4))
    def test_array_equals_pointwise_loop(self, case):
        G, ph, r = _potential_cases()[case]
        rng = np.random.default_rng(12)
        Y = rng.uniform(-r, r, 40)
        q = rng.uniform(0, TWO_PI, 40)
        for orders in POTENTIAL_ORDERS:
            loop = np.array([G.at(ph, q[i])(Y[i], *orders) for i in range(len(Y))])
            assert np.array_equal(G.at(ph, q)(Y, *orders), loop), orders
            # Y1 and q1 broadcast against each other
            grid = G.at(ph, q[None, :7])(Y[:5, None], *orders)
            assert np.array_equal(grid[2, 3], G.at(ph, q[3])(Y[2], *orders)), orders

    def test_one_square_degree_array_equals_pointwise_calls(self):
        # every term is Y1^2, so each Y1 exponent table is a single 2, where
        # numpy's pow rounds an array call and a pointwise call apart
        G = PolyTrig1(1, {(2, (0,), 1): (0.7, 0.3), (2, (1,), 0): (0.2, 0.0)})
        rng = np.random.default_rng(0)
        Y, q = rng.uniform(-1.0, 1.0, 400), rng.uniform(0.0, TWO_PI, 400)
        for orders in POTENTIAL_ORDERS:
            loop = np.array([G.at([0.37], q[i])(Y[i], *orders) for i in range(len(Y))])
            assert G.at([0.37], q)(Y, *orders).tobytes() == loop.tobytes(), orders

    @pytest.mark.parametrize("case", range(4))
    def test_lazy_tables_equal_fresh_evaluator(self, case):
        # an evaluator builds its trig and phat tables on first use; whatever
        # it was asked before, each call equals a freshly bound evaluator's
        G, ph, r = _potential_cases()[case]
        rng = np.random.default_rng(18)
        q = rng.uniform(0, TWO_PI, 16)
        sequence = list(POTENTIAL_ORDERS[::-1]) + [POTENTIAL_ORDERS[i] for i in
                                                  rng.integers(0, len(POTENTIAL_ORDERS), 24)]
        for q1 in (q, q[3]):
            ev = G.at(ph, q1)
            for orders in sequence:
                Y = rng.uniform(-r, r, np.shape(q1))
                assert np.array_equal(ev(Y, *orders), G.at(ph, q1)(Y, *orders)), orders

    @pytest.mark.parametrize("case", range(4))
    def test_derivatives_match_fd(self, case):
        # each derivative against a fourth-order difference of the one a
        # single order below it; the potentials are polynomials of degree
        # <= 3 in Y1 and phat, where the stencil is exact up to rounding
        G, ph, r = _potential_cases()[case]
        rng = np.random.default_rng(16)
        Y = rng.uniform(-r, r, 6)
        q = rng.uniform(0, TWO_PI, 6)
        h, hq = 0.1 * r, 1e-3

        def diff(f, step):
            return (8.0 * (f(step) - f(-step)) - (f(2 * step) - f(-2 * step))) / (12.0 * step)

        for dy, dph, dq in POTENTIAL_ORDERS[1:]:
            exact = G.at(ph, q)(Y, dy, dph, dq)
            if dq:
                fd = diff(lambda t: G.at(ph, q + t)(Y, dy, dph, dq - 1), hq)
            elif dph:
                fd = np.stack([diff(lambda t: G.at(ph + t * e, q)(Y, dy, dph - 1), h)
                               for e in np.eye(len(ph))], axis=-1)
            else:
                fd = diff(lambda t: G.at(ph, q)(Y + t, dy - 1), h)
            scale = max(float(np.max(np.abs(exact))), 1e-300)
            assert np.max(np.abs(exact - fd)) <= 1e-6 * scale, (dy, dph, dq)

    @pytest.mark.parametrize("case", range(4))
    def test_masked_solve_equals_scalar_iteration(self, case):
        G, ph, _ = _potential_cases()[case]
        q = np.random.default_rng(13).uniform(0, TWO_PI, 64)

        def scalar(q1):
            ev = G.at(ph, q1)
            u = 0.0
            while True:
                nxt = -0.5 * ev(u, 1)
                if abs(nxt - u) < FIXED_POINT_TOL:
                    return nxt
                u = nxt

        expected = np.array([scalar(t) for t in q])
        assert np.array_equal(_iterate(G.at(ph, q))[0], expected)
        assert _iterate(G.at(ph, q[5]))[0] == expected[5]

    def test_terms_dict_is_kept(self):
        terms = {(1, (0,), 1): (0.01, 0.0), (0, (1,), 0): (0.02, 0.0)}
        G = PolyTrig1(1, terms)
        assert G.terms == terms
        assert G.dep_majorant(0.1, 0.1, 0.5) > 0.0

    @pytest.mark.parametrize("orders", [(1, 0, 2), (1, 0, 3), (-1, 0, 0), (0, -1, 0)])
    def test_derivative_orders_outside_the_contract_are_refused(self, orders):
        # dq is 0 or 1, dy and dph are >= 0; a q1 order of 2 or 3 would read
        # as the first one, and a negative order would raise the exponents
        G, ph, _ = _potential_cases()[0]
        for q1, Y1 in ((0.5, 0.01), (np.linspace(0.0, 1.0, 4), np.zeros(4))):
            with pytest.raises(ConfigError, match="^no derivative"):
                G.at(ph, q1)(Y1, *orders)


# --------------------------------------------------------------------------
# the evaluator against its one-pass formula, byte for byte
# --------------------------------------------------------------------------

def reference_bound_call(G, phat, q1, Y1, dy, dph=0, dq=0):
    """G.at(phat, q1)(Y1, dy, dph, dq) in one pass: each Y1 and phat power by
    `product_power`, exponents 0 and 1 included, and each point's terms
    added one at a time, left to right from +0.0, into a fresh C-ordered
    array.  The evaluator must equal it byte for byte, layout included:
    callers average its values over the q1 grid, in an order set by the
    layout."""
    q1 = np.asarray(q1, dtype=float)
    ph = np.asarray(phat, dtype=float) - G.center[1:]
    ph = ph.reshape(ph.shape[:-1] + (1,) * (q1.ndim - ph.ndim + 1) + ph.shape[-1:])
    coeff = np.ones(len(G._d))
    for k in range(dy):
        coeff = coeff * (G._d - k)
    rows = []
    for idx in itertools.product(range(G.n_hat), repeat=dph):
        c, m = coeff, G._m.astype(int)
        for i in idx:
            c = c * m[:, i]
            m[:, i] -= 1
        rows.append(c * np.prod(product_power(ph[..., None, :], np.maximum(m, 0)), axis=-1))
    jq = q1[..., None] * G._ju
    cos, sin = np.cos(jq)[..., G._jinv], np.sin(jq)[..., G._jinv]
    trig = G._a * cos + G._b * sin if dq == 0 else G._j * (G._b * cos - G._a * sin)
    v1 = np.asarray(Y1, dtype=float) - G.center[0]
    base = product_power(v1[..., None], np.maximum(G._d.astype(int) - dy, 0)) * trig
    terms = np.stack(rows, axis=-2) * base[..., None, :]
    out = np.zeros(terms.shape[:-1])
    for t in range(terms.shape[-1]):
        out += terms[..., t]
    return out.reshape(out.shape[:-1] + (G.n_hat,) * dph)


def _counted_potential(n_hat, count, seed, center=None):
    """count distinct terms of degree <= 3 in Y1 and <= 2 in each phat, j <= 5,
    with coefficients of both signs, about `center` (default zero)."""
    keys = [(d, m, j) for d in range(4) for m in itertools.product(range(3), repeat=n_hat)
            for j in range(6)]
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(keys), count, replace=False)
    return PolyTrig1(n_hat, {keys[i]: tuple(rng.uniform(-1.0, 1.0, 2)) for i in pick}, center)


@cache
def _reference_cases():
    """(G, scale of the offsets): the potentials of `_potential_cases`, potentials
    of 0 to 130 terms, one lone term whose every exponent array has one entry,
    and terms whose coefficients are all signed zeros, so whole rows of terms
    are zero."""
    cases = [(G, r) for G, _, r in _potential_cases()]
    for count in (0, 1, 7, 8, 9, 16, 17, 130):
        cases.append((_counted_potential(2, count, count), 0.5))
        if count <= 72:
            cases.append((_counted_potential(1, count, 100 + count), 0.5))
    cases.append((PolyTrig1(1, {(3, (2,), 1): (0.7, -0.3)}), 0.5))
    zeros = {(d, (m, 1 - m), j): (-0.0, 0.0 if j % 2 else -0.0)
             for d in range(3) for m in range(2) for j in range(3)}
    cases.append((PolyTrig1(2, zeros), 0.5))
    return cases


def _signed_offsets(rng, r, shape):
    """Offsets from the center in [-r, r], some exactly +0.0 and some -0.0."""
    v = rng.uniform(-r, r, shape)
    flat = v.reshape(-1)
    flat[::3] = 0.0
    flat[1::5] = -0.0
    return v


class TestEvaluatorBytes:
    @pytest.mark.parametrize("case", range(len(_reference_cases())))
    def test_every_order_equals_the_one_pass_formula(self, case):
        G, r = _reference_cases()[case]
        rng = np.random.default_rng(30 + case)
        n_hat = G.n_hat
        # a point, a q1 grid, a stack of points, and stacked phat with a q1
        # grid each, twice; Y1 - c and phat - c are negative, positive, +0.0
        # and -0.0
        binds = [(_signed_offsets(rng, r, n_hat), 0.7, _signed_offsets(rng, r, ())),
                 (_signed_offsets(rng, r, n_hat), rng.uniform(0, TWO_PI, 16),
                  _signed_offsets(rng, r, 16)),
                 (_signed_offsets(rng, r, (6, n_hat)), rng.uniform(0, TWO_PI, 6),
                  _signed_offsets(rng, r, 6)),
                 (_signed_offsets(rng, r, (3, 1, n_hat)), rng.uniform(0, TWO_PI, (1, 16)),
                  _signed_offsets(rng, r, (3, 16))),
                 # and a long stack of 2 x 4500 points
                 (_signed_offsets(rng, r, (2, 1, n_hat)), rng.uniform(0, TWO_PI, (1, 4500)),
                  _signed_offsets(rng, r, (2, 4500)))]
        for vhat, q1, v1 in binds:
            phat, Y1 = vhat + G.center[1:], v1 + G.center[0]
            ev = G.at(phat, q1)
            for dy, dph, dq in itertools.product(range(4), range(3), range(2)):
                got = ev(Y1, dy, dph, dq)
                want = reference_bound_call(G, phat, q1, Y1, dy, dph, dq)
                assert got.shape == want.shape and got.flags.c_contiguous, (dy, dph, dq)
                assert got.tobytes() == want.tobytes(), (dy, dph, dq)

    def test_row_tables_are_built_once_and_read_only(self):
        # a potential keeps one (coefficients, phat exponents) pair per
        # derivative for all its bound evaluators; none may write to it
        G = _counted_potential(2, 9, 9)
        c, e = G._row_tables(1, 2)
        assert G._row_tables(1, 2)[0] is c and c.shape == (4, 9) and e.shape == (4, 9, 2)
        assert not (c.flags.writeable or e.flags.writeable)


def exact_bound_call(G, phat, q1, Y1, dy, dph, dq):
    """G.at(phat, q1)(Y1, dy, dph, dq) in exact arithmetic: a list of
    (value, magnitudes) over the points in C order and then the phat index
    tuples, where value is the exact Fraction and magnitudes maps a rounding
    count k to the sum of the magnitudes A_t of the terms t with k_t = k
    (see `TestEvaluatorOracle`).  The offsets, every product and every sum
    are exact; cos and sin are mpmath's at 200 bits, so the value is within
    2^-190 sum A_t of the exact one, negligible against a bound of at least
    u sum A_t."""
    mpmath = pytest.importorskip("mpmath")
    q1, Y1 = np.asarray(q1, dtype=float), np.asarray(Y1, dtype=float)
    phat = np.asarray(phat, dtype=float)
    shape = np.broadcast_shapes(phat.shape[:-1], q1.shape, Y1.shape)
    phat = np.broadcast_to(phat, shape + phat.shape[-1:])
    q1, Y1 = np.broadcast_to(q1, shape), np.broadcast_to(Y1, shape)
    center = [Fraction(c) for c in G.center]
    terms = [(d, m, j, Fraction(a), Fraction(b)) for (d, m, j), (a, b) in G.terms.items()]
    out = []
    with mpmath.workprec(200):
        for point in np.ndindex(shape):
            v1 = Fraction(Y1[point]) - center[0]
            vhat = [Fraction(p) - c for p, c in zip(phat[point], center[1:])]
            q = mpmath.mpf(q1[point])
            trig = {j: (fraction(mpmath.cos(j * q)), fraction(mpmath.sin(j * q))) for _, _, j, _, _ in terms}
            for idx in itertools.product(range(G.n_hat), repeat=dph):
                value, magnitudes = Fraction(0), {}
                for d, m, j, a, b in terms:
                    e = [mi - idx.count(i) for i, mi in enumerate(m)]
                    poly = math.perm(d, dy) * math.prod(math.perm(mi, idx.count(i)) for i, mi in enumerate(m))
                    if not poly:
                        continue
                    poly *= v1 ** (d - dy) * math.prod(v ** k for v, k in zip(vhat, e))
                    cos, sin = trig[j]
                    parts = (a * cos, b * sin) if dq == 0 else (j * b * cos, -j * a * sin)
                    value += poly * sum(parts)
                    rounds = 4 + dq + max(d - dy - 1, 0) + sum(max(k - 1, 0) for k in e) + G.n_hat - 1 + 3
                    magnitudes[rounds] = magnitudes.get(rounds, 0) + abs(poly) * sum(abs(x) for x in parts)
                out.append((value, magnitudes))
    return out


class TestEvaluatorOracle:
    @pytest.mark.parametrize("n_hat, count", [(1, 1), (1, 7), (1, 9), (2, 8), (2, 17), (2, 130)])
    def test_within_forward_error_bounds_of_the_exact_sum(self, n_hat, count):
        """Every double is a dyadic rational, so `exact_bound_call` gives the
        exact value of each derivative at points whose offsets from the
        center, Y1 - c and phat - c, are computed exactly: the center's
        entries are multiples of 1/8 and the offsets of 2^-30.  q1 has at most
        50 significant bits, so j q1 is exact for j <= 5.

        A term t of the derivative (dy, dph, dq) is the product of an exact
        integer, v1^(d - dy), the powers vhat_i^(e_i) and its trig part,
        a cos + b sin (dq = 0) or j (b cos - a sin) (dq = 1).  Its roundings
        are: cos or sin, within one ulp (2u relative; numpy documents no
        bound), 2; its product with a or b, 1; the trig sum, 1; j times that
        sum, dq; a power k of an offset, max(k - 1, 0) (the running products
        of `power_table`); the product of the n_hat phat powers, n_hat - 1;
        the integer times that product, the Y1 power times the trig part and
        the one times the other, 3.  With k_t their total, the computed term
        is within gamma_{k_t} A_t of the exact one, A_t being the magnitude
        of the integer and the powers times |a cos| + |b sin| (dq = 0) or
        j (|b cos| + |a sin|) (dq = 1).  The T terms are then summed, in any
        order, with at most T - 1 roundings each, so the value is within
        sum_t gamma_{k_t + T - 1} A_t of the exact one (Higham, Lemma 3.3 and
        eq. (4.4); gamma_k and u as in tests/exact.py).

        All 24 derivatives with dy 0-3, dph 0-2 and dq 0-1 are read at a
        stack of 2 x 3 points.  The largest error, in units of the bound, is
        printed (`pytest -s`) and must be at most 1."""
        rng = np.random.default_rng([n_hat, count, 50])
        center = rng.integers(-8, 9, n_hat + 1) / 8.0
        G = _counted_potential(n_hat, count, count, center)
        phat = center[1:] + dyadic(rng.uniform(-0.5, 0.5, (2, 1, n_hat)), 30)
        q1 = dyadic(rng.uniform(0, TWO_PI, (1, 3)), 47)
        Y1 = center[0] + dyadic(rng.uniform(-0.5, 0.5, (2, 3)), 30)
        ev = G.at(phat, q1)
        worst = Fraction(0)
        for dy, dph, dq in itertools.product(range(4), range(3), range(2)):
            got = ev(Y1, dy, dph, dq).reshape(-1)
            for x, (value, magnitudes) in zip(got.tolist(), exact_bound_call(G, phat, q1, Y1, dy, dph, dq)):
                bound = sum(gamma(k + count - 1) * a for k, a in magnitudes.items())
                error = abs(Fraction(x) - value)
                assert error == 0 or bound > 0, (dy, dph, dq)
                worst = max(worst, error / bound if error else Fraction(0))
        report(f"{n_hat} phat, {count} terms", largest=worst)
        assert worst <= 1


# --------------------------------------------------------------------------
# the re-expanded pipeline potentials against the series they come from
# --------------------------------------------------------------------------

def _directional_derivative(series, v):
    """d/dt F(y + t v)|_{t=0} as a series (exact polynomial calculus)."""
    out = series.like()
    for (k, m), c in series.terms.items():
        for j in range(series.n):
            if m[j] > 0 and v[j] != 0:
                mm = list(m)
                mm[j] -= 1
                add_term(out, k, tuple(mm), c * m[j] * v[j])
    return out


def reference_series_potential(form, parts):
    """eps_k times the sum over `parts` (series on the ray Z k around the
    averaging base point) of Re g(affine @ (Y1, phat), theta), evaluated term
    by term at y - y0 (test-only).  Every derivative is an exact directional
    derivative of the series along the columns of affine; the q1 derivative
    is a factor i j on each term.  Returns evaluate(orders, Y1, phat, q1) for
    orders = (dy, dph, dq) as in POTENTIAL_ORDERS."""
    sec = form.secular
    affine = np.array(form.dm.affine, dtype=float)

    def series_sum(series, Y1, ph, q1, dq):
        terms = series.ray_terms(sec.um.k)
        if not terms:
            return np.zeros(np.broadcast(Y1, q1).shape)
        J = np.array([t[0] for t in terms], dtype=float)
        M = np.array([t[1] for t in terms], dtype=float).reshape(len(terms), len(affine))
        C = np.array([t[2] for t in terms])
        if dq:
            C = C * (1j * J)
        w = Y1[..., None] * affine[:, 0] + affine[:, 1:] @ ph - sec.base_point
        wp = np.where(M > 0, np.power(w[..., None, :], M), 1.0)
        phase = np.exp(1j * J * q1[..., None])
        return form_eps_k(form) * np.real(np.sum(C * np.prod(wp, axis=-1) * phase, axis=-1))

    def evaluate(orders, Y1, ph, q1):
        dy, dph, dq = orders
        Y1, ph, q1 = (np.asarray(v, dtype=float) for v in (Y1, ph, q1))
        out = np.zeros(np.broadcast(Y1, q1).shape + (form.n_hat,) * dph)
        for idx in np.ndindex((form.n_hat,) * dph):
            for series in parts:
                for i in [-1] * dy + list(idx):
                    series = _directional_derivative(series, affine[:, i + 1])
                out[(...,) + idx] += series_sum(series, Y1, ph, q1, dq)
        return out

    return evaluate


def _reexpansion_form(which):
    # an even f gives real series coefficients; the phase gives complex ones,
    # whose imaginary parts carry the sin terms of the folded modes
    if which == "three_mode":
        return three_mode_standard_form()
    if which == "three_mode_phased":
        return three_mode_standard_form(phase=0.5)
    k = np.array(which, dtype=float)
    y0 = 0.5 * np.array([-k[1], k[0]])
    return standardize(two_mode_potential(1.0), 1.0, 1e-4, which,
                       free_params(2, 1.0, alpha=0.03, K0=2, K=6), y0, beta=0.05, order=3)


class TestSeriesReexpansion:
    @pytest.mark.parametrize("which", ["three_mode", "three_mode_phased", (1, 1), (1, -1)], ids=str)
    def test_methods_match_series_reference(self, which):
        sf = _reexpansion_form(which)
        form, sec = sf.form, sf.form.secular
        rng = np.random.default_rng(17)
        r = sf.chars.r
        ph = sf.fp.base_phat + rng.uniform(-r, r, form.n_hat)
        Y = rng.uniform(-4 * r, 4 * r, 40)
        q = rng.uniform(0, TWO_PI, 40)
        for G, parts in ((form.Gf, [sec.g_o_series, sec.g_series]),
                         (oscillatory_part(form), [sec.g_series])):
            reference = reference_series_potential(form, parts)
            for orders in POTENTIAL_ORDERS:
                ref = reference(orders, Y, ph, q)
                err = np.max(np.abs(G.at(ph, q)(Y, *orders) - ref))
                assert err <= 1e-13 * np.max(np.abs(ref)) + 1e-30, orders

    def test_expansion_center_is_exact(self):
        # k.y0 = 0 in floats on the three-mode line k = (1, 2), so the center's
        # Y1 = k.y0/|k|^2 is exactly 0 (a LAPACK solve gave 2.98e-17), and the
        # fixed point's phat is the center's, byte for byte
        sf = three_mode_standard_form()
        y0, center = sf.form.secular.base_point, sf.form.Gf.center
        assert y0[0] + 2.0 * y0[1] == 0.0
        assert center[0] == 0.0
        assert sf.fp.base_phat.tobytes() == center[1:].tobytes()


class TestExactJacobians:
    def test_second_phat_derivative_matches_fd(self):
        # n_hat = 2 with a phat_1^2 term, so every entry of d2p/dphat2 is live
        from resoforge.acceptance import _benchmark_standard_form

        sf, _rng = _benchmark_standard_form()
        fp = sf.fp
        ph = fp.base_phat + np.array([0.004, -0.007])
        h = 1e-4
        q = np.array([0.3, 2.2, 5.0])
        exact = fp.read(ph, q).point.d2p
        dtau2 = sf.phi3.read(ph, q).d2tau
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (fp.read(ph + e, q).point.dp - fp.read(ph - e, q).point.dp) / (2 * h)
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(exact[:, :, j] - fd)) <= 1e-6 * scale
            fd_tau = (fp.read(ph + e).dtau - fp.read(ph - e).dtau) / (2 * h)
            assert np.max(np.abs(dtau2[:, j] - fd_tau)) <= 1e-6 * np.max(np.abs(dtau2))
        assert np.allclose(exact, np.swapaxes(exact, -1, -2), rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("which", ["two_action", "pipeline"])
    def test_phi2_phi3_jacobians_match_fd(self, which):
        from resoforge.acceptance import _benchmark_standard_form

        sf = _benchmark_standard_form()[0] if which == "two_action" \
            else three_mode_standard_form()
        h = 0.02 * sf.form.r
        for z in _jacobian_points(sf, 3, seed=14):
            assert _jacobian_mismatch(sf.phi2, z, h) < 1e-5
            assert _jacobian_mismatch(sf.phi3, z, h) < 1e-5

    @pytest.mark.parametrize("which", ["two_action", "pipeline"])
    def test_doubled_qhat_block_fails_fd_but_not_symplectic_gate(self, which):
        # the q_hat/phat block of Phi2 is small and symmetric, so doubling it
        # keeps J^T Omega J - Omega far below the 1e-9 gate; only the
        # comparison with the finite differences of apply can see it
        from resoforge.acceptance import _benchmark_standard_form

        sf = _benchmark_standard_form()[0] if which == "two_action" \
            else three_mode_standard_form()
        n = sf.n

        class Doubled(Phi2Map):
            def jacobian(self, z):
                J = super().jacobian(z)
                J[..., n + 1:, 1:n] *= 2.0
                return J

        broken = Doubled(sf.fp, n)
        h = 0.02 * sf.form.r
        pts = _jacobian_points(sf, 3, seed=15)
        assert symplectic_check(broken, pts) < 1e-9
        assert max(_jacobian_mismatch(broken, z, h) for z in pts) > 0.1


class TestOneSolvePerJet:
    def test_solve_counts(self, monkeypatch, tmp_path):
        # grid and point solves per call: one grid and one point solve for
        # Phi2, one grid solve for Phi3, and one stacked solve of each kind for
        # all the samples of the reduction identity, of each of criterion 9's
        # two forms and of verify_standard.  A map call on a stack of points solves as one on
        # a single point, and the composite and criterion 8 solve one
        # reading that every map call reads, so criterion 8 makes as many
        # solves at 20 points as at 100.  A reading's call of _iterate counts
        # once, as a grid solve when its q1 carries the GRID-node axis,
        # however many phat it stacks; the third column counts the base
        # solves of solve_fixed_point, which run the same loop
        import json
        import sys

        from resoforge import acceptance, standard_form
        from resoforge.acceptance import _benchmark_standard_form
        from resoforge.cli import main

        sf, rng = _benchmark_standard_form()
        n = sf.n
        z = np.concatenate([[0.01], sf.fp.base_phat + rng.uniform(-0.01, 0.01, n - 1),
                            rng.uniform(0, TWO_PI, n)])
        calls = []
        iterate = standard_form._iterate

        def counting(ev):
            base = sys._getframe(1).f_code is solve_fixed_point.__code__
            calls.append("base" if base else ev.q1.shape[-1:] == (GRID,))
            return iterate(ev)

        monkeypatch.setattr(standard_form, "_iterate", counting)

        def solves(call):
            calls.clear()
            call()
            return calls.count(True), calls.count(False), calls.count("base")

        params = tmp_path / "params.json"
        params.write_text(json.dumps({"mode": "free", "n": 2, "s": 1.0, "K0": 2, "alpha": 0.03, "K": 6}))
        standardize_cli = ["standardize", "--potential", "two-mode:s=1.0", "--eps", "1e-6",
                           "--k", "1,1", "--params", str(params), "--y0", "0.5,-0.5",
                           "--beta", "0.05", "--out", str(tmp_path / "sf.json")]
        samples = [z[:n]] * 3
        counts = {
            "phi2.jacobian": solves(lambda: sf.phi2.jacobian(z)),
            "phi2.apply": solves(lambda: sf.phi2.apply(z)),
            "phi3.jacobian": solves(lambda: sf.phi3.jacobian(z)),
            "phi3.apply": solves(lambda: sf.phi3.apply(z)),
            "phi_diamond_jacobian": solves(lambda: sf.phi_diamond_jacobian(z)),
            "check_reduction_identity, 3 samples": solves(
                lambda: sf.check_reduction_identity(samples, [z[n]] * 3)),
            "criterion 9, 10 points": solves(
                lambda: acceptance.criterion_9_energy_identity(points=10)),
            "criterion 8, 20 points": solves(
                lambda: acceptance.criterion_8_symplecticity(points=20)),
            "symplectic_check(phi2), 5 points": solves(lambda: symplectic_check(sf.phi2, [z] * 5)),
            # 1 grid and 1 point solve for the 8 verify_standard samples, 1
            # grid solve for the G and nu grids, which the reduction identity
            # reuses, and 1 point solve for it
            "standardize CLI": solves(lambda: main(standardize_cli)),
        }
        assert counts == {
            "phi2.jacobian": (1, 1, 0),
            "phi2.apply": (1, 1, 0),
            "phi3.jacobian": (1, 0, 0),
            "phi3.apply": (1, 0, 0),
            "phi_diamond_jacobian": (1, 1, 0),
            "check_reduction_identity, 3 samples": (1, 1, 0),
            "criterion 9, 10 points": (2, 2, 2),
            "criterion 8, 20 points": (1, 1, 1),
            "symplectic_check(phi2), 5 points": (1, 1, 0),
            "standardize CLI": (2, 2, 1),
        }

    def test_phi_diamond_jacobian_applies_no_map(self, monkeypatch):
        # Phi2 and Phi3 read z only through (phat, q1), which Phi3 leaves
        # alone, so Phi_diamond's Jacobian reads both at z: no apply call, and
        # one grid and one point solve for a stack of points
        from resoforge import standard_form

        sf = three_mode_standard_form()
        z = np.array(_jacobian_points(sf, 4, seed=17))
        applied, solves = [], []
        for cls in (Phi2Map, ShearMap):
            monkeypatch.setattr(cls, "apply", lambda self, z, rd=None: applied.append(self))
        iterate = standard_form._iterate
        monkeypatch.setattr(standard_form, "_iterate",
                            lambda ev: solves.append(ev.q1.shape[-1:] == (GRID,)) or iterate(ev))
        assert sf.phi_diamond_jacobian(z).shape == (4, 4, 4)
        assert applied == [] and sorted(solves) == [False, True]

    def test_only_phi2_point_jacobian_reads_dp_dq1(self, monkeypatch):
        # a reading computes only what is read: the grid's d2p/dphat2 makes
        # no q1-derivative pass, and Phi2's Jacobian makes one, at its own
        # q1; Phi2's apply reads neither dp/dq1 nor d2p/dphat2, and Phi3's
        # apply reads the grid alone, so it makes no point solve
        from resoforge.acceptance import _benchmark_standard_form

        sf, rng = _benchmark_standard_form()
        n = sf.n
        z = np.concatenate([[0.01], sf.fp.base_phat + rng.uniform(-0.01, 0.01, n - 1),
                            rng.uniform(0, TWO_PI, n)])
        passes = []
        call = BoundPotential.__call__

        def recording(ev, Y1, dy, dph=0, dq=0):
            passes.append((ev.q1.shape[-1:] == (GRID,), dph, dq))
            return call(ev, Y1, dy, dph, dq)

        monkeypatch.setattr(BoundPotential, "__call__", recording)

        def passes_of(read):
            passes.clear()
            read()
            assert passes
            return list(passes)

        assert all(dq == 0 for _, _, dq in passes_of(lambda: sf.fp.read(z[1:n]).d2tau))
        assert [(grid, dq) for grid, _, dq in passes_of(lambda: sf.phi2.jacobian(z)) if dq] == [(False, 1)]
        assert all(dq == 0 and dph < 2 for _, dph, dq in passes_of(lambda: sf.phi2.apply(z)))
        assert all(grid for grid, _, _ in passes_of(lambda: sf.phi3.apply(z)))


class TestOneStatedEquation:
    def test_one_step_moves_every_reader(self, monkeypatch):
        # Gf = c Y1 + e Y1 cos q1 has p = -(c + e cos q1)/2.  Editing the one
        # step to -0.45 moves solve_fixed_point's iterate (seen through its
        # |p| bound, set between 0.45 and 0.5 of max |p|), the reading, the
        # shear's p_o and Phi2's shift: the factor is written nowhere else
        from resoforge import standard_form

        c, e, r, q1 = 0.02, 0.01, 0.1, 0.7
        G = PolyTrig1(1, {(1, (0,), 0): (c, 0.0), (1, (0,), 1): (e, 0.0)})
        form = trivial_form(G, r=r, theta_o=3 * r * 0.475 * (c + e))
        for factor in (0.5, 0.45):
            if factor == 0.45:
                monkeypatch.setattr(standard_form, "_step", lambda ev, u: -0.45 * ev(u, 1))
            fp = solve_fixed_point(form, np.zeros(1))
            assert fp.pitale_ok == (factor == 0.45)
            p = fp.read([0.0], q1).point.p
            assert p == pytest.approx(-factor * (c + e * math.cos(q1)), rel=1e-13)
            assert fp.read([0.0]).tau == pytest.approx(-factor * c, rel=1e-13)
            shift = Phi2Map(fp, 2).apply(np.array([0.0, 0.0, q1, 0.0]))[0]
            assert shift == pytest.approx(-factor * e * math.cos(q1), rel=1e-12)

    def test_mismatched_jet_is_refused(self):
        # a reading holds for points of its own phat and q1 only: with P1 and
        # qhat moved it gives the bits of the map's own solve, and with phat
        # or q1 rolled over the stack, or another stack, it is refused, as
        # is a reading made without q1
        from resoforge.acceptance import _benchmark_standard_form

        sf, rng = _benchmark_standard_form()
        n, r = sf.n, sf.form.r
        pts = np.concatenate([rng.uniform(-r, r, (5, 1)),
                              sf.fp.base_phat + rng.uniform(-r, r, (5, n - 1)),
                              rng.uniform(0, TWO_PI, (5, n))], axis=1)
        rd = sf.fp.read(pts[:, 1:n], pts[:, n])
        no_q1 = sf.fp.read(pts[:, 1:n])
        moved, rolled_phat, rolled_q1 = pts.copy(), pts.copy(), pts.copy()
        moved[:, [0, n + 1, n + 2]] += 0.5
        rolled_phat[:, 1:n] = np.roll(pts[:, 1:n], 1, axis=0)
        rolled_q1[:, n] = np.roll(pts[:, n], 1)
        for call in (sf.phi2.apply, sf.phi2.jacobian, sf.phi3.apply, sf.phi3.jacobian,
                     sf.phi3.inverse().apply, sf.phi_diamond_jacobian):
            assert call(moved, rd).tobytes() == call(moved).tobytes()
            for bad in (rolled_phat, rolled_q1, pts[:4]):
                with pytest.raises(ConfigError, match="other phat or q1"):
                    call(bad, rd)
            with pytest.raises(ConfigError, match="other phat or q1"):
                call(pts, no_q1)


# --------------------------------------------------------------------------
# stacked phat: one bind and one solve for every sample
# --------------------------------------------------------------------------

def reference_verify_standard(sf, phat_samples):
    """verify_standard as a loop over the phat samples, one reading each, whose
    grid gives G and G0 and whose point jet at the sample's 8 q1 gives nu:
    the reference the stacked solves must equal."""
    from resoforge.morse import critical_points

    ch = sf.chars
    flags = {}

    def put(name, value, bound, ok, margin=None):
        flags[name] = {"value": value, "bound": bound, "ok": bool(ok),
                       "margin": (bound - value) if margin is None else margin}

    gbar_sup = 2.0 * sum(abs(c) * math.exp(j * ch.sigma) for j, c in sf.G_bar.coeffs.items())
    put("gbar_sup_le_eps_hat", gbar_sup, ch.eps_hat, gbar_sup <= ch.eps_hat)
    gbar_grid = sf.G_bar.values_on_grid(GRID)
    worst_dev = worst_nu = worst_h0 = 0.0
    rng = np.random.default_rng(7)
    for ph in phat_samples:
        ph = np.asarray(ph, dtype=float)
        q1 = rng.uniform(0, TWO_PI, 8)
        p1 = rng.uniform(-ch.r, ch.r, 8)
        rd = sf.fp.read(ph, q1)
        worst_dev = max(worst_dev, float(np.max(np.abs(rd.G - gbar_grid))))
        worst_nu = max(worst_nu, float(np.max(np.abs(rd.point.nu(p1)))))
        worst_h0 = max(worst_h0, abs(rd.G0))
    put("g_minus_gbar_le_eps_hat_lambda", worst_dev, ch.eps_hat * ch.lam,
        worst_dev <= ch.eps_hat * ch.lam)
    put("nu_le_lambda", worst_nu, ch.lam, worst_nu <= ch.lam)
    put("h0_dev_le_6_eps_k_lambda", worst_h0, 6.0 * ch.eps_k * ch.lam,
        worst_h0 <= 6.0 * ch.eps_k * ch.lam)
    ratio = ch.eps_hat / ch.m
    put("eps_hat_over_m_band", ratio, [0.5, ch.kappa], 0.5 <= ratio <= ch.kappa,
        margin=min(ratio - 0.5, ch.kappa - ratio))
    put("sigma_band", ch.sigma, [1.0 / ch.kappa, 1.0], 1.0 / ch.kappa <= ch.sigma <= 1.0,
        margin=min(ch.sigma - 1.0 / ch.kappa, 1.0 - ch.sigma))
    rr = ch.R / ch.r
    put("R_over_r_band", rr, [1.0, ch.kappa], 1.0 <= rr <= ch.kappa,
        margin=min(rr - 1.0, ch.kappa - rr))
    put("eps_hat_le_r2_216", ch.eps_hat, ch.r ** 2 / 2 ** 16, ch.eps_hat <= ch.r ** 2 / 2 ** 16)
    if sf.G_bar.coeffs:
        rep = critical_points(sf.G_bar)
        put("gbar_morse_ge_m", ch.m, rep.beta, rep.beta >= ch.m * (1 - 1e-9))
    return flags


def _stacked_case(which):
    """A standard form and its decoupled form's radius: two pipeline forms
    with one adiabatic action (the (1, 1) two-mode line at eps = 1e-6, and
    the (1, 2) line with a third mode) and criterion 8's two-action form."""
    if which == "two_action":
        from resoforge.acceptance import _benchmark_standard_form

        sf = _benchmark_standard_form()[0]
    elif which == "two_mode":
        sf = standardize(two_mode_potential(1.0), 1.0, 1e-6, (1, 1),
                         free_params(2, 1.0, alpha=0.03, K0=2, K=6), np.array([0.5, -0.5]),
                         beta=0.05)
    else:
        sf = three_mode_standard_form()
    return sf, sf.form.r


class TestStackedSamples:
    @pytest.mark.parametrize("which", ["two_mode", "three_mode", "two_action"])
    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_verify_standard_equals_per_sample_loop(self, which, count):
        sf, r = _stacked_case(which)
        rng = np.random.default_rng(count)
        samples = sf.fp.base_phat + rng.uniform(-r, r, (count, sf.form.n_hat))
        assert verify_standard(sf, samples).flags == reference_verify_standard(sf, samples)

    @pytest.mark.parametrize("case", range(4))
    def test_stacked_bind_equals_per_phat_binds(self, case):
        # byte for byte, for a stack of shape (2, 3) against each phat's own
        # bind: q1 per phat (grid and point) and one q1 grid shared by all
        G, ph, r = _potential_cases()[case]
        rng = np.random.default_rng(21)
        phs = ph + rng.uniform(-r, r, (2, 3, len(ph)))
        q = rng.uniform(0, TWO_PI, (2, 3, 5))
        Y = rng.uniform(-r, r, (2, 3, 5))
        shared = rng.uniform(0, TWO_PI, 5)
        for dy, dph, dq in itertools.product(range(4), range(3), range(2)):
            for q1, y1, own in ((q, Y, lambda i, j: q[i, j]),
                                (q[..., 0], Y[..., 0], lambda i, j: q[i, j, 0]),
                                (shared[None, None], Y, lambda i, j: shared)):
                got = G.at(phs, q1)(y1, dy, dph, dq)
                want = np.array([[G.at(phs[i, j], own(i, j))(y1[i, j], dy, dph, dq)
                                  for j in range(3)] for i in range(2)])
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                    (dy, dph, dq, q1.shape)

    @pytest.mark.parametrize("case", range(4))
    def test_stacked_solve_equals_per_phat_solves(self, case):
        G, ph, r = _potential_cases()[case]
        phs = ph + np.random.default_rng(22).uniform(-r, r, (6, len(ph)))
        got = _iterate(G.at(phs, _THETA[None, :]))[0]
        want = np.array([_iterate(G.at(p, _THETA))[0] for p in phs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", ["two_mode", "three_mode", "two_action"])
    def test_stacked_read_equals_per_point_reads(self, which):
        sf, r = _stacked_case(which)
        rng = np.random.default_rng(23)
        n_hat = sf.form.n_hat
        pts = np.concatenate([rng.uniform(-r, r, (7, 1)),
                              sf.fp.base_phat + rng.uniform(-r, r, (7, n_hat))], axis=1)
        q1s = rng.uniform(0, TWO_PI, 7)

        def read(p, q1):
            rd = sf.fp.read(p[..., 1:], q1)
            return (phi23_y1(sf, p[..., 0], p[..., 1:], q1, rd), *sf._read(p[..., 0], rd), rd.G0)

        got = read(pts, q1s)
        want = zip(*(read(p, q1) for p, q1 in zip(pts, q1s)))
        for a, b in zip(got, want):
            assert a.tobytes() == np.array(b).tobytes()
        # a reading made by the caller at one point, as the standardize CLI
        # passes it, gives the bits of the stacked identity's own, and one
        # made at other q1 is refused
        one = sf.check_reduction_identity(pts[:1], q1s[:1])
        assert sf.check_reduction_identity(pts[0], q1s[0], sf.fp.read(pts[0, 1:], q1s[0])) == one
        with pytest.raises(ConfigError, match="other phat or q1"):
            sf.check_reduction_identity(pts[:1], q1s[:1], sf.fp.read(pts[:1, 1:], q1s[1:2]))
