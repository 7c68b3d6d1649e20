import itertools
import math

import numpy as np
import pytest

from resoforge.cover import free_params
from resoforge.fourier import ConfigError, HypothesisError, OneDTrigPoly, TrigPoly, generators, lacunary_potential, two_mode_potential
from resoforge.standard_form import (
    FIXED_POINT_TOL,
    GRID,
    BoundPotential,
    ComposedMap,
    DecoupledForm,
    FixedPointSolution,
    LinearSymplectic,
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
    verify_standard,
    _antiderivative_at,
    _THETA,
)
from resoforge.unimodular import complete_to_sl, decoupling_matrix
from test_lieseries import add_term

TWO_PI = 2 * math.pi


def trivial_form(G, n_hat=1, r=0.1, sb=0.5, theta_o=1e-5):
    return DecoupledForm(Gf=G, G_osc=None, adiabatic=lambda ph: 0.0,
                         r=r, s_breve=sb, theta_o_bound=theta_o, n_hat=n_hat)


def hsharp(form, Y1, ph, q1):
    """Hsharp(Y, X1) = Y1^2 + Gf(Y1, phat, X1) of a decoupled form."""
    return Y1 * Y1 + form.Gf.at(ph, q1)(Y1, 0)


def phi(fp, phat, x1):
    """The periodic primitive phi(phat, x1) = int_0^x1 ptilde of a fixed point."""
    return float(_antiderivative_at(fp.jet(phat, _THETA, 0)[0], x1))


def shear_jet(tau, dtau, d2tau=None):
    """A ShearMap jet from closed forms of tau, dtau and (optionally) d2tau."""
    return lambda ph, order: (tau(ph), dtau(ph), None if d2tau is None else d2tau(ph))


def standard_value(sf, p, q1):
    """(1 + nu) p1^2 + G(phat, q1), read as the reduction identity reads it."""
    _, kinetic, _, G, _ = sf._read(p, q1)
    return kinetic + G


def oscillatory_part(form):
    """The decoupled potential of the secular g series alone (zero q1
    average), re-expanded with the affine map and scale that build Gf."""
    sec = form.secular
    U = np.array([[float(x) for x in row] for row in form.dm.U])
    affine = np.array(sec.um.rows, dtype=float).T @ U
    return PolyTrig1.from_series(sec.g_series, sec.k, affine, form.eps_k)


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
        assert fp.jet([0.0], 1.2, 0)[0] == 0.0
        assert fp.residual == 0.0

    def test_linear_potential_exact(self):
        c = 0.3
        G = PolyTrig1(1, {(1, (0,), 0): (c, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        assert fp.jet([0.0], 0.3, 0)[0] == pytest.approx(-c / 2, rel=1e-14)
        assert fp.iterations <= 3

    def test_cosine_coupling_first_order(self):
        e = 0.01
        G = PolyTrig1(1, {(1, (0,), 1): (e, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        assert fp.jet([0.0], 0.7, 0)[0] == pytest.approx(-e / 2 * math.cos(0.7), rel=1e-12)
        assert fp.shear([0.0], 0)[0] == pytest.approx(0.0, abs=1e-16)
        assert phi(fp, [0.0], math.pi / 3) == pytest.approx(
            -e / 2 * math.sin(math.pi / 3), rel=1e-12
        )

    def test_p_tilde_zero_average_and_phi_periodic(self):
        G = PolyTrig1(1, {(1, (0,), 1): (0.01, 0.005), (2, (0,), 2): (0.002, 0.0),
                          (0, (0,), 1): (0.02, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        grid = fp.jet(np.zeros(1), _THETA, 0)[0]
        assert abs(np.mean(grid - fp.shear([0.0], 0)[0])) < 1e-15
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
            fd = (fp.jet([0.03 + h], q1, 0)[0] - fp.jet([0.03 - h], q1, 0)[0]) / (2 * h)
            assert fp.jet([0.03], q1, 1)[1][0] == pytest.approx(fd, abs=1e-9)

    def test_implicit_q1_derivative(self):
        # dp/dq1 = d ptilde/dq1 is the (P1, Q1) entry of Phi2's Jacobian
        G = PolyTrig1(1, {(1, (0,), 1): (0.02, 0.01), (2, (0,), 2): (0.004, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        h = 1e-6
        for q1 in (0.5, 4.0):
            fd = (fp.jet([0.0], q1 + h, 0)[0] - fp.jet([0.0], q1 - h, 0)[0]) / (2 * h)
            J = Phi2Map(fp, 2).jacobian(np.array([0.0, 0.0, q1, 0.0]))
            assert J[0, 2] == pytest.approx(fd, abs=1e-9)


class TestReduction:
    def test_quadratic_nu_exact(self):
        a = 0.04
        G = PolyTrig1(1, {(2, (0,), 0): (a, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        params = free_params(2, 1.0, alpha=0.05, K0=2, K=12)
        ch = characteristics((1, 0), 2, 1.0, 1e-6, 0.1,
                             lacunary_potential(2, 1.0, 10), params)
        sf = build_phi2_phi3(fp, ch, OneDTrigPoly({1: 1e-6}))
        ph = np.zeros(1)
        assert sf._nu(0.37, sf._on_grid(ph)[0], ph, 1.1) == pytest.approx(a, rel=1e-12)
        # at p1 = 0 the standard form is G
        assert standard_value(sf, np.zeros(2), 1.3) == pytest.approx(0.0, abs=1e-15)

    def test_theta_independent_potential(self):
        G = PolyTrig1(1, {(2, (0,), 0): (0.03, 0.0), (1, (0,), 0): (0.01, 0.0)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        params = free_params(2, 1.0, alpha=0.05, K0=2, K=12)
        ch = characteristics((1, 0), 2, 1.0, 1e-6, 0.1,
                             lacunary_potential(2, 1.0, 10), params)
        sf = build_phi2_phi3(fp, ch, OneDTrigPoly({1: 1e-6}))
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert standard_value(sf, np.zeros(2), rng.uniform(0, TWO_PI)) == pytest.approx(0.0, abs=1e-14)

    def test_reduction_identity_sampled(self):
        G = PolyTrig1(1, {(1, (0,), 1): (0.01, 0.004), (2, (0,), 1): (0.003, 0.0),
                          (0, (0,), 2): (0.02, 0.01)})
        fp = solve_fixed_point(trivial_form(G), np.zeros(1))
        params = free_params(2, 1.0, alpha=0.05, K0=2, K=12)
        ch = characteristics((1, 0), 2, 1.0, 1e-6, 0.1,
                             lacunary_potential(2, 1.0, 10), params)
        sf = build_phi2_phi3(fp, ch, OneDTrigPoly({1: 1e-6}))
        rng = np.random.default_rng(1)
        pts = [np.array([rng.uniform(-0.05, 0.05), 0.0]) for _ in range(100)]
        q1s = rng.uniform(0, TWO_PI, 100)
        assert sf.check_reduction_identity(pts, q1s) < 1e-10


def phi1_identity_residual(form, points, thetas):
    """max |Hsec(Phi1(Y, X1)) - ((|k|^2/2) Hsharp + adiabatic)| over samples."""
    sec = form.secular
    U = np.array([[float(x) for x in row] for row in form.dm.U])
    kk2 = float(sum(v * v for v in sec.k))
    return max(abs(sec.value(U @ Y, theta) - (0.5 * kk2 * hsharp(form, Y[0], Y[1:], theta) + form.adiabatic(Y[1:])))
               for Y, theta in zip(points, thetas))


class TestMaps:
    def test_shear_group_law(self):
        rng = np.random.default_rng(2)
        ta, dta = lambda ph: 0.1 * ph[0] - 0.05 * ph[1] ** 2, lambda ph: np.array([0.1, -0.1 * ph[1]])
        tb, dtb = lambda ph: 0.02 * ph[0] * ph[1], lambda ph: np.array([0.02 * ph[1], 0.02 * ph[0]])
        a = ShearMap(3, shear_jet(ta, dta))
        b = ShearMap(3, shear_jet(tb, dtb))
        pts = [rng.normal(size=6) for _ in range(100)]
        # Psi_a o Psi_b = Psi_{a+b}
        ab = ShearMap(3, shear_jet(lambda ph: ta(ph) + tb(ph), lambda ph: dta(ph) + dtb(ph)))
        assert max(float(np.max(np.abs(a.apply(b.apply(z)) - ab.apply(z)))) for z in pts) < 1e-12
        inv = a.inverse()
        worst = max(float(np.max(np.abs(inv.apply(a.apply(z)) - z))) for z in pts)
        assert worst < 1e-12

    def test_shear_symplectic(self):
        a = ShearMap(3, shear_jet(lambda ph: 0.1 * ph[0] - 0.05 * ph[1] ** 2,
                                  lambda ph: np.array([0.1, -0.1 * ph[1]]),
                                  lambda ph: np.array([[0.0, 0.0], [0.0, -0.1]])))
        rng = np.random.default_rng(3)
        pts = [rng.normal(size=6) for _ in range(50)]
        assert symplectic_check(a, pts) < 1e-12

    def test_linear_block_symplectic(self):
        U = np.array([[1.0, -8.0 / 13.0], [0.0, 1.0]])
        lin = LinearSymplectic(U)
        pts = [np.random.default_rng(4).normal(size=4)]
        assert symplectic_check(lin, pts) < 1e-15

    def test_composition_associates(self):
        U = np.array([[1.0, 0.5], [0.25, 1.0]])
        lin = LinearSymplectic(U)
        shear = ShearMap(2, shear_jet(lambda ph: 0.1 * ph[0] ** 2, lambda ph: np.array([0.2 * ph[0]]),
                                      lambda ph: np.array([[0.2]])))
        comp = ComposedMap([lin, shear])
        z = np.array([0.3, -0.2, 1.0, 2.0])
        # the rightmost map acts first: the chain rule reads its Jacobian at z
        assert np.allclose(comp.jacobian(z), lin.jacobian(shear.apply(z)) @ shear.jacobian(z))
        assert not np.allclose(comp.jacobian(z), shear.jacobian(lin.apply(z)) @ lin.jacobian(z))


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

    def test_vanishing_secular_series_gives_pure_kinetic(self):
        # with g_o = g = 0 the decoupled form is Y1^2 and the adiabatic part
        # carries exactly half the squared transverse pullback
        from resoforge.lieseries import TaylorFourierSeries
        from resoforge.standard_form import SecularHam

        um = complete_to_sl((1, 1))
        empty = TaylorFourierSeries(2, self.y0, 2, 6)
        sec = SecularHam(um=um, eps=1e-4, g_o_series=empty, g_series=empty,
                         base_point=self.y0, k=(1, 1))
        form = build_phi1(sec, r=1e-3, s_breve=1.0, theta_o_bound=1e-300)
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
        U = np.array([[float(x) for x in row] for row in sf.form.dm.U])
        rng = np.random.default_rng(6)
        phat0 = np.array([-1.0])
        for _ in range(30):
            p1 = rng.uniform(-sf.chars.r, sf.chars.r)
            ph = phat0 + rng.uniform(-sf.chars.r, sf.chars.r, 1)
            q1 = rng.uniform(0, TWO_PI)
            Y1, kinetic, G0, G, _ = sf._read(np.concatenate([[p1], ph]), q1)
            lhs = sec.value(U @ np.concatenate([[Y1], ph]), q1)
            rhs = 1.0 * ((kinetic + G) + sf._h0(G0, ph))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_gbar_is_scaled_projection(self):
        sf = standardize(self.f, 1.0, 1e-4, (1, 1), self.params, self.y0,
                         beta=0.05, order=2)
        a = math.exp(-2.0)
        assert sf.G_bar.coeffs[1] == pytest.approx(sf.chars.eps_k * a)

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
        assert symplectic_check(sf.phi_diamond(), pts) < 1e-9

    def test_phi1_is_a_shear_group_member(self):
        # the linear decoupling equals the shear with tau = -(Ahat k).phat/|k|^2
        um = complete_to_sl((2, 3))
        dm = decoupling_matrix(um)
        U = np.array([[float(x) for x in row] for row in dm.U])
        lin = LinearSymplectic(U)
        ahat_k = float(
            (np.array(um.A_hat, dtype=float) @ np.array(um.k, dtype=float))[0]
        )
        kk2 = float(sum(v * v for v in um.k))
        shear = ShearMap(2, shear_jet(lambda ph: -ahat_k * ph[0] / kk2,
                                      lambda ph: np.array([-ahat_k / kk2]),
                                      lambda ph: np.zeros((1, 1))))
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.normal(size=4)
            assert np.allclose(lin.apply(z), shear.apply(z), atol=1e-14)


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

def _three_mode_standard_form(phase=0.0):
    # the (1, 2) line with a third mode on it, at order 3: both the averaged
    # and the oscillatory decoupled potentials depend on Y1, so p varies
    # with q1 and phat and neither Phi2 nor Phi3 is the identity
    a = math.exp(-2.0)
    k = (1, 2)
    f = TrigPoly(2, {(1, 1): complex(a), (1, -1): complex(a), k: 0.7 * a * np.exp(1j * phase)})
    u = np.array([-2.0, 1.0]) / math.sqrt(5.0)
    return standardize(f, 1.0, 1e-4, k, free_params(2, 1.0, alpha=0.03, K0=2, K=6),
                       0.6 * u, beta=0.05, order=3)


def _potential_cases():
    from resoforge.acceptance import random_benchmark_form

    rng = np.random.default_rng(11)
    cases = []
    for n_hat in (1, 2):
        form = random_benchmark_form(rng, n_hat=n_hat)
        cases.append((form.Gf, rng.uniform(-form.r, form.r, n_hat), form.r))
    sf = _three_mode_standard_form()
    cases.append((sf.form.Gf, sf.fp.base_phat + 0.3 * sf.chars.r, sf.chars.r))
    # twelve terms: numpy sums a contiguous axis pairwise from 8 entries on,
    # and an array call must sum each point's terms as a pointwise call does
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
        G, ph, r = _potential_cases()[case]
        fp = solve_fixed_point(trivial_form(G, n_hat=len(ph), r=r), ph)
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
        assert np.array_equal(fp.solve_at(G.at(ph, q)), expected)
        assert fp.solve_at(G.at(ph, q[5])) == expected[5]

    def test_terms_dict_is_kept(self):
        terms = {(1, (0,), 1): (0.01, 0.0), (0, (1,), 0): (0.02, 0.0)}
        G = PolyTrig1(1, terms)
        assert G.terms == terms
        assert G.dep_majorant(0.1, 0.1, 0.5) > 0.0


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
    U = np.array([[float(x) for x in row] for row in form.dm.U])
    affine = np.array(sec.um.rows, dtype=float).T @ U

    def series_sum(series, Y1, ph, q1, dq):
        terms = series.ray_terms(sec.k)
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
        return form.eps_k * np.real(np.sum(C * np.prod(wp, axis=-1) * phase, axis=-1))

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
        return _three_mode_standard_form()
    if which == "three_mode_phased":
        return _three_mode_standard_form(phase=0.5)
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


class TestExactJacobians:
    def test_second_phat_derivative_matches_fd(self):
        # n_hat = 2 with a phat_1^2 term, so every entry of d2p/dphat2 is live
        from resoforge.acceptance import _benchmark_standard_form

        sf, _rng = _benchmark_standard_form()
        fp = sf.fp
        ph = fp.base_phat + np.array([0.004, -0.007])
        h = 1e-4
        q = np.array([0.3, 2.2, 5.0])
        exact = fp.jet(ph, q, 2)[2]
        dtau2 = sf.phi3.jet(ph, 2)[2]
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (fp.jet(ph + e, q, 1)[1] - fp.jet(ph - e, q, 1)[1]) / (2 * h)
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(exact[:, :, j] - fd)) <= 1e-6 * scale
            fd_tau = (fp.shear(ph + e, 1)[1] - fp.shear(ph - e, 1)[1]) / (2 * h)
            assert np.max(np.abs(dtau2[:, j] - fd_tau)) <= 1e-6 * np.max(np.abs(dtau2))
        assert np.allclose(exact, np.swapaxes(exact, -1, -2), rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("which", ["two_action", "pipeline"])
    def test_phi2_phi3_jacobians_match_fd(self, which):
        from resoforge.acceptance import _benchmark_standard_form

        sf = _benchmark_standard_form()[0] if which == "two_action" \
            else _three_mode_standard_form()
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
            else _three_mode_standard_form()
        n = sf.n

        class Doubled(Phi2Map):
            def jacobian(self, z):
                J = super().jacobian(z)
                J[n + 1:, 1:n] *= 2.0
                return J

        broken = Doubled(sf.fp, n)
        h = 0.02 * sf.form.r
        pts = _jacobian_points(sf, 3, seed=15)
        assert symplectic_check(broken, pts) < 1e-9
        assert max(_jacobian_mismatch(broken, z, h) for z in pts) > 0.1


class TestOneSolvePerJet:
    def test_lower_orders_are_prefixes(self):
        # entries above the order are None, the others equal the full jet's
        from resoforge.acceptance import _benchmark_standard_form

        fp = _benchmark_standard_form()[0].fp
        ph = fp.base_phat + np.array([0.003, 0.002])
        for q1 in (1.1, _THETA):
            full = fp.jet(ph, q1, 2)
            for order, width in ((0, 1), (1, 2)):
                part = fp.jet(ph, q1, order)
                assert part[width:] == (None,) * (3 - width)
                for a, b in zip(part[:width], full):
                    assert np.array_equal(a, b)
        tau = fp.shear(ph, 2)
        assert fp.shear(ph, 0)[1:] == (None, None)
        assert tau[0] == float(np.mean(fp.jet(ph, _THETA, 0)[0]))

    def test_solve_counts(self, monkeypatch, tmp_path):
        # grid and point solves per call: one grid jet and one point jet for
        # Phi2, one grid jet for Phi3, and one stacked solve of each kind for
        # all the samples of the reduction identity, of criterion 9 and of
        # verify_standard.  A call counts once, as a grid solve when its q1
        # carries the GRID-node axis, however many phat it stacks
        import json

        from resoforge import acceptance
        from resoforge.acceptance import _benchmark_standard_form
        from resoforge.cli import main

        sf, rng = _benchmark_standard_form()
        n = sf.n
        z = np.concatenate([[0.01], sf.fp.base_phat + rng.uniform(-0.01, 0.01, n - 1),
                            rng.uniform(0, TWO_PI, n)])
        calls = []
        solve = FixedPointSolution.solve_at

        def counting(fp, ev):
            calls.append(ev.q1.shape[-1:] == (GRID,))
            return solve(fp, ev)

        monkeypatch.setattr(FixedPointSolution, "solve_at", counting)

        def solves(call):
            calls.clear()
            call()
            return calls.count(True), calls.count(False)

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
            "phi_diamond.jacobian": solves(lambda: sf.phi_diamond().jacobian(z)),
            "check_reduction_identity, 3 samples": solves(
                lambda: sf.check_reduction_identity(samples, [z[n]] * 3)),
            "criterion 9, 10 points": solves(
                lambda: acceptance.criterion_9_energy_identity(points=10)),
            # 1 for the 8 verify_standard samples, 1 for the G and nu grids,
            # and 1 grid and 1 point solve for the reduction identity
            "standardize CLI": solves(lambda: main(standardize_cli)),
        }
        assert counts == {
            "phi2.jacobian": (1, 1),
            "phi2.apply": (1, 1),
            "phi3.jacobian": (1, 0),
            "phi3.apply": (1, 0),
            "phi_diamond.jacobian": (4, 2),
            "check_reduction_identity, 3 samples": (1, 1),
            "criterion 9, 10 points": (1, 1),
            "standardize CLI": (3, 1),
        }

    def test_only_phi2_point_jacobian_reads_dp_dq1(self, monkeypatch):
        # dp/dq1 is read by no grid caller, so an order-2 grid jet makes no
        # q1-derivative pass; Phi2's Jacobian makes one, at its own q1
        from resoforge.acceptance import _benchmark_standard_form

        sf, rng = _benchmark_standard_form()
        n = sf.n
        z = np.concatenate([[0.01], sf.fp.base_phat + rng.uniform(-0.01, 0.01, n - 1),
                            rng.uniform(0, TWO_PI, n)])
        passes = []
        call = BoundPotential.__call__

        def recording(ev, Y1, dy, dph=0, dq=0):
            passes.append((ev.q1.ndim, dq))
            return call(ev, Y1, dy, dph, dq)

        monkeypatch.setattr(BoundPotential, "__call__", recording)
        sf.fp.jet(z[1:n], _THETA, 2)
        assert passes and all(dq == 0 for _, dq in passes)
        passes.clear()
        sf.phi2.jacobian(z)
        assert [(ndim, dq) for ndim, dq in passes if dq] == [(0, 1)]


# --------------------------------------------------------------------------
# stacked phat: one bind and one solve for every sample
# --------------------------------------------------------------------------

def reference_verify_standard(sf, phat_samples):
    """verify_standard as a loop over the phat samples, one grid solve and
    one nu quadrature each: the reference the stacked solve must equal."""
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
        p_o, G0, gv = sf._on_grid(ph)
        worst_dev = max(worst_dev, float(np.max(np.abs(gv - gbar_grid))))
        q1 = rng.uniform(0, TWO_PI, 8)
        p1 = rng.uniform(-ch.r, ch.r, 8)
        worst_nu = max(worst_nu, float(np.max(np.abs(sf._nu(p1, p_o, ph, q1)))))
        worst_h0 = max(worst_h0, abs(G0))
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
    if not sf.G_bar.is_zero:
        rep = critical_points(sf.G_bar)
        put("gbar_morse_ge_m", ch.m, rep.beta, rep.beta >= ch.m * (1 - 1e-9))
        flags["gbar_morse_computed"] = {"value": rep.beta, "bound": ch.m,
                                        "ok": rep.beta >= ch.m * (1 - 1e-9),
                                        "margin": rep.beta - ch.m}
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
        sf = _three_mode_standard_form()
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
        fp = solve_fixed_point(trivial_form(G, n_hat=len(ph), r=r), ph)
        phs = ph + np.random.default_rng(22).uniform(-r, r, (6, len(ph)))
        got = fp.solve_at(G.at(phs, _THETA[None, :]))
        want = np.array([fp.solve_at(G.at(p, _THETA)) for p in phs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", ["two_mode", "three_mode", "two_action"])
    def test_stacked_read_equals_per_point_reads(self, which):
        sf, r = _stacked_case(which)
        rng = np.random.default_rng(23)
        n_hat = sf.form.n_hat
        pts = np.concatenate([rng.uniform(-r, r, (7, 1)),
                              sf.fp.base_phat + rng.uniform(-r, r, (7, n_hat))], axis=1)
        q1s = rng.uniform(0, TWO_PI, 7)
        got = sf._read(pts, q1s)[:4]
        want = zip(*(sf._read(p, q1)[:4] for p, q1 in zip(pts, q1s)))
        for a, b in zip(got, want):
            assert a.tobytes() == np.array(b).tobytes()
