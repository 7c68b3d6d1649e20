"""Symplectic reduction of secular Hamiltonians to Generic Standard Form.

Around a simple resonance k the averaged (secular) Hamiltonian

    Hsec(yt, theta) = 0.5 |A^T yt|^2 + eps g_o(A^T yt) + eps g(A^T yt, theta)

is driven through three exact symplectic maps:

  Phi1  the rational shear (U Y, U^{-T} X) that block-diagonalizes the
        kinetic form: Hsec o Phi1 = (|k|^2/2) Hsharp + 0.5|P_k^perp Ahat^T Yhat|^2
        with Hsharp(Y, X1) = Y1^2 + Gsharp_o(Y) + Gsharp(Y, X1);
  Phi2  the fixed-point shift Y1 = P1 + ptilde(Phat, Q1) generated by
        P.X + phi(Phat, X1), where p solves p = -0.5 d_{Y1}[Gsharp_o+Gsharp](p)
        (a 1/8-contraction under the smallness hypothesis); by Taylor's
        formula about p, Hsharp o Phi2 = (1 + nutilde)(P1 - p_o)^2 + G0(Phat) + G(Phat, Q1);
  Phi3  the momentum translation P1 = p1 + p_o(phat) placing the secular
        equilibria on the angle axis.

The outcome is the 1-DOF Hamiltonian (1 + nu) p1^2 + G(phat, q1), nu =
sum_{i=2..D} d^i_{Y1} Gf(p) p1^(i-2)/i! the exact Taylor tail of Gf (Y1-degree
D) about the p(phat, q1) that Phi2 o Phi3 adds to p1, with reference potential
Gbar = eps_k pi_k f, characteristics (R, r, sigma, m, eps_hat, lambda) and the
single scale parameter

    kappa = max{c2, 4 c_s, c_s / beta},   c2 = 4 n^{3/2} c1,
    c1 = 5 n (n-1)^{(n-1)/2},             c_s = max{1, 1/s},

which is independent of the resonance label k.  The adiabatic-action domain
Dhat of the characteristics is not materialized, because no check reads it.

Evaluation: one kernel, PolyTrig1, holds every decoupled potential.  The
pipeline's secular series is re-expanded exactly into its terms
Y1^d phat^m (a cos j q1 + b sin j q1) about the averaging base point, so all
derivatives are closed-form.  `PolyTrig1.at(phat, q1)` binds a phat, or a
stack of them, with a q1 grid or points, and gives any derivative at an
array of Y1 in one pass over the terms.  `_step` states the equation and
`_implicit` its derivatives, once each.  `_iterate` is the one fixed-point
loop, on every entry of an evaluator at once (each entry stops on its own
step, exactly as the pointwise iteration would), and refuses steps that do
not contract; the base solve of `solve_fixed_point` and every reading run
it.  `FixedPointSolution.read(phat, q1)` is the one reading of the fixed
point at a stack of points, a PointJet that solves, differentiates
p + 0.5 d_{Y1} Gf(p) = 0 and averages over the q1 grid only what is read,
once each, so the Jacobians of Phi2 and Phi3 are exact.  A map takes points
z of shape L + (2n,), one point being L = (), gives L + (2n,) or, as a
Jacobian, L + (2n, 2n), and reads the reading it is passed or makes its own.
Phi2 and Phi3 read z only through (phat, q1), which Phi3 leaves alone, so
Phi_diamond's Jacobian is diag(U, U^{-T}) @ (J2 @ J3) under one reading, no
map applied; the reduction identity takes Y1 from Phi2(Phi3(z)), G0, G and nu
(`_Jet.nu`) from its reading, and `verify_standard` nu from one point solve.

Config note: the fully certified asymptotic regime additionally requires the
inner cutoff K0 to exceed a dimensional gate (at least c2, plus an inexplicit
averaging constant).  Nothing here assumes that gate is satisfied: every
estimate-style statement is emitted as a pass/fail flag with margins, and the
exact algebraic identities hold at any parameter values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import numpy.fft  # numpy loads these lazily: at import here, not inside the first call
import numpy.random

from .cover import CoveringParams
from .fourier import (ConfigError, HypothesisError, Mode, OneDTrigPoly, Record, TrigPoly, TWO_PI, l1, power_table,
                      project_lattice)
from .genericity import c_s, threshold_N
from .lieseries import AveragedNF, TaylorFourierSeries, ray_series
from .morse import critical_points
from .unimodular import DecouplingMatrix, UnimodularMatrix, apply, complete_to_sl, decoupling_matrix, mat_transpose

GRID = 256            # q1 collocation grid (spectral accuracy for analytic data)
FIXED_POINT_TOL = 1e-14  # fixed-point iteration stops once a step is below this
_THETA = np.arange(GRID) * (TWO_PI / GRID)


# --------------------------------------------------------------------------
# the decoupled potential and its evaluator bound to one (phat, q1)
# --------------------------------------------------------------------------

@dataclass
class PolyTrig1:
    """The decoupled potential Gf(Y1, phat, q1): the real function
    sum v1^d vhat^m (a cos(j q1) + b sin(j q1)) of the offsets
    (v1, vhat) = (Y1, phat) - center from an expansion point.

    terms: dict[(d, m, j)] -> (a, b) with j >= 0; the terms are compiled into
    arrays once, at construction.  center is 0 for hand-built forms;
    `from_series` expands the pipeline's series about the averaging base
    point.  `at(phat, q1)` gives the closed-form value and derivatives.
    """

    n_hat: int
    terms: dict[tuple[int, tuple[int, ...], int], tuple[float, float]]
    center: np.ndarray | None = None

    def __post_init__(self):
        keys = list(self.terms)
        count = len(keys)
        self.center = (np.zeros(self.n_hat + 1) if self.center is None
                       else np.asarray(self.center, dtype=float))
        self._d = np.array([d for d, _, _ in keys], dtype=float)
        self._m = np.array([m for _, m, _ in keys], dtype=float).reshape(count, self.n_hat)
        self._j = np.array([j for _, _, j in keys], dtype=float)
        # trig values are evaluated once per distinct j
        self._ju, self._jinv = np.unique(self._j, return_inverse=True)
        self._a, self._b = np.array([self.terms[key] for key in keys],
                                    dtype=float).reshape(count, 2).T
        self._tables = {}

    @classmethod
    def from_series(cls, series: TaylorFourierSeries, dm: DecouplingMatrix,
                    scale: float) -> "PolyTrig1":
        """scale * Re g(dm.affine (Y1, phat), q1 k/|k|^2) for a series g whose
        modes lie on Z k (k = dm.um.k), re-expanded about center = dm.affine_inv y0 (y0 the
        series' base point).  With v = (Y1, phat) - center, each
        (y - y0)^m = (affine v)^m is a multinomial product, and the mode j k
        folds onto |j| by Re(z e^{ijq}) = Re z cos jq -/+ Im z sin jq."""
        n = dm.um.n
        # row i of affine as the linear form {exponents of v: coefficient}
        rows = [{tuple(int(i == l) for i in range(n)): float(a) for l, a in enumerate(row) if a != 0}
                for row in dm.affine]

        @cache
        def expand(m: tuple[int, ...]) -> dict:
            """(affine v)^m as {exponents of v: coefficient}."""
            if not any(m):
                return {(0,) * n: 1.0}
            i = next(i for i, e in enumerate(m) if e)
            out: dict = {}
            for e1, c1 in expand(m[:i] + (m[i] - 1,) + m[i + 1:]).items():
                for e2, c2 in rows[i].items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return out

        terms: dict = {}
        for j, m, c in series.ray_terms(dm.um.k):
            sign = (j > 0) - (j < 0)
            for e, coeff in expand(m).items():
                z = scale * c * coeff
                key = (e[0], e[1:], abs(j))
                a, b = terms.get(key, (0.0, 0.0))
                terms[key] = (a + z.real, b - sign * z.imag)
        return cls(n - 1, terms, apply(dm.affine_inv, series.base_point))

    def at(self, phat, q1) -> "BoundPotential":
        """This potential bound to phat of shape L + (n_hat,) (L = () for one
        phat) and q1 of shape L + S; see BoundPotential."""
        return BoundPotential(self, phat, q1)

    def _row_tables(self, dy: int, dph: int) -> tuple[np.ndarray, np.ndarray]:
        """(c, e) of the derivative (dy, dph), built once and read-only: one row
        per phat index tuple of order dph, c its coefficient of each term and e
        its phat exponents; a derivative multiplies by the exponent, then lowers it."""
        if (dy, dph) not in self._tables:
            coeff = np.ones(len(self._d))
            for k in range(dy):
                coeff = coeff * (self._d - k)
            cs, es = [], []
            for idx in itertools.product(range(self.n_hat), repeat=dph):
                c, m = coeff, self._m.copy()
                for i in idx:
                    c = c * m[:, i]
                    m[:, i] -= 1.0
                cs.append(c)
                es.append(np.maximum(m, 0.0))
            self._tables[dy, dph] = np.array(cs), np.array(es, dtype=np.intp)
            for table in self._tables[dy, dph]:
                table.flags.writeable = False
        return self._tables[dy, dph]

    def dep_majorant(self, rY1: float, rph: float, width: float) -> float:
        """Bound on the Y1- or phat-dependent part over |Y1 - c_0| <= rY1,
        |phat_i - c_i| <= rph, |Im q1| <= width (c the expansion point)."""
        total = 0.0
        for (d, m, j), (a, b) in self.terms.items():
            if d == 0 and sum(m) == 0:
                continue
            total += (abs(a) + abs(b)) * math.pow(rY1, d) * math.pow(rph, sum(m)) * math.exp(j * width)
        return total


class BoundPotential:
    """Gf bound to a stack of phat of shape L + (n_hat,), one phat being
    L = (), and q1 of shape `shape` = L + S, where an axis of L may be 1.

    `ev(Y1, dy, dph=0, dq=0)` is d^dy/dY1^dy d^dq/dq1^dq (dq <= 1) followed
    by dph derivatives in phat, one trailing axis of length n_hat each; Y1
    broadcasts against q1.  The trig table of each dq, at q1's own shape, and
    the coefficient rows of each (dy, dph) are built on first use and kept,
    so a call pays only the Y1 powers and one pass over the terms.  Powers are running
    products and a point's T terms are added left to right from +0.0: a point has the bits
    of a pointwise call, within sum_t gamma_{k_t+T-1} A_t of the exact value (TestEvaluatorOracle).
    """

    def __init__(self, G: PolyTrig1, phat, q1):
        self.G = G
        ph = np.asarray(phat, dtype=float) - G.center[1:]
        self.q1 = np.asarray(q1, dtype=float)
        # L + (1,) * len(S) + (n_hat,), so the rows broadcast against q1
        self.ph = ph.reshape(ph.shape[:-1] + (1,) * (self.q1.ndim - ph.ndim + 1) + ph.shape[-1:])
        self.shape = np.broadcast_shapes(self.ph.shape[:-1], self.q1.shape)
        self._rows = {}
        self._trig = {}

    def _coefficient_rows(self, dy: int, dph: int) -> np.ndarray:
        """L + (1,) * len(S) + (one row per phat index tuple of order dph, one
        column per term): G's row coefficients times the phat powers."""
        if (dy, dph) not in self._rows:
            c, e = self.G._row_tables(dy, dph)
            powers = power_table(self.ph, e.max(initial=0))[..., np.arange(self.G.n_hat), e]
            self._rows[dy, dph] = c * np.prod(powers, axis=-1)
        return self._rows[dy, dph]

    def _trig_table(self, dq: int) -> np.ndarray:
        """a cos(j q1) + b sin(j q1) per term (dq = 0), or its q1 derivative."""
        if dq not in self._trig:
            G = self.G
            jq = self.q1[..., None] * G._ju
            cos, sin = np.cos(jq)[..., G._jinv], np.sin(jq)[..., G._jinv]
            self._trig[dq] = (G._a * cos + G._b * sin if dq == 0
                              else G._j * (G._b * cos - G._a * sin))
        return self._trig[dq]

    def __call__(self, Y1, dy: int, dph: int = 0, dq: int = 0) -> np.ndarray:
        if dq not in (0, 1) or dy < 0 or dph < 0:
            raise ConfigError(f"no derivative dy={dy}, dph={dph}, dq={dq}: dy, dph >= 0 and dq is 0 or 1")
        G = self.G
        v1 = np.asarray(Y1, dtype=float) - G.center[0]
        d = np.maximum(G._d - dy, 0.0).astype(np.intp)
        base = power_table(v1, d.max(initial=0))[..., d] * self._trig_table(dq)
        X = self._coefficient_rows(dy, dph) * base[..., None, :]
        # whole columns left to right from +0.0, whatever the layout; C order for the q1-grid averages
        out = np.ascontiguousarray(sum((X[..., t] for t in range(X.shape[-1])), np.zeros(X.shape[:-1])))
        return out.reshape(out.shape[:-1] + (G.n_hat,) * dph)


# --------------------------------------------------------------------------
# characteristics and kappa
# --------------------------------------------------------------------------

def c1_constant(n: int) -> float:
    return 5.0 * n * math.pow(n - 1, (n - 1) / 2.0)


def c2_constant(n: int) -> float:
    return 4.0 * n ** 1.5 * c1_constant(n)


def kappa_uniform(n: int, s: float, beta: float) -> float:
    """kappa(n, s, beta) = max{c2, 4 c_s, c_s/beta}: independent of k."""
    return max(c2_constant(n), 4.0 * c_s(s), c_s(s) / beta)


@dataclass
class Characteristics(Record):
    """(R, r, sigma, m, eps_hat, lam) plus kappa and branch data."""

    k: Mode
    R: float
    r: float
    sigma: float
    m: float
    eps_hat: float
    lam: float
    kappa: float
    eps_k: float
    chi_k: float
    s_breve: float
    branch: str
    c1: float
    c2: float
    c_s: float
    N: float

    def to_dict(self) -> dict:
        return {"lambda" if name == "lam" else name: value for name, value in super().to_dict().items()}


def characteristics(
    k: Mode,
    n: int,
    s: float,
    eps: float,
    beta: float,
    f: TrigPoly,
    params: CoveringParams,
    delta: float = 1.0,
    um: UnimodularMatrix | None = None,  # unused; perfbench/workloads.py passes um=
) -> Characteristics:
    """Analyticity characteristics of the standard form at resonance k.

    Low modes (|k|_1 < N) take the Morse constant from the class parameter
    beta; high modes take it from the leading coefficient |f_k|.  kappa is
    the same for every k.
    """
    k = tuple(int(v) for v in k)
    kk = float(sum(v * v for v in k))  # |k|^2, exact
    c1 = c1_constant(n)
    c2 = c2_constant(n)
    cs = c_s(s)
    N = threshold_N(n, s, delta)
    R = params.alpha / kk
    r = R / c2
    eps_k = 2.0 * eps / kk
    lam = math.pow(params.K, -5 * n)
    if l1(k) < N:
        branch = "low"
        m = eps_k * beta
        chi = 1.0
        sigma = min(s / 2.0, 1.0)
        s_breve = params.s_k_prime(k)
    else:
        branch = "high"
        fk = abs(f.coeff(k))
        m = eps_k * fk
        chi = fk
        sigma = 1.0
        s_breve = 1.0
    eps_hat = 4.0 * cs * eps_k * chi
    return Characteristics(
        k=k, R=R, r=r, sigma=sigma, m=m, eps_hat=eps_hat, lam=lam,
        kappa=kappa_uniform(n, s, beta), eps_k=eps_k, chi_k=chi, s_breve=s_breve,
        branch=branch, c1=c1, c2=c2, c_s=cs, N=N,
    )


# --------------------------------------------------------------------------
# secular Hamiltonian and the kinetic decoupling Phi1
# --------------------------------------------------------------------------

@dataclass
class SecularHam:
    """0.5|A^T yt|^2 + eps g_o(A^T yt) + eps g(A^T yt, theta) built from a
    resonant averaged normal form (series around the averaging base point)."""

    um: UnimodularMatrix
    eps: float
    g_o_series: TaylorFourierSeries
    g_series: TaylorFourierSeries
    base_point: np.ndarray

    @classmethod
    def from_averaged(cls, nf: AveragedNF, um: UnimodularMatrix) -> "SecularHam":
        if nf.res_k is None:
            raise ConfigError("secular Hamiltonian needs a resonant normal form")
        g_o = nf.g_o[1].like()
        g = nf.g_res[1].like()
        for j in range(1, nf.order + 1):
            w = math.pow(nf.epsilon, j - 1)
            g_o = g_o.plus(nf.g_o[j].scaled(w))
            g = g.plus(nf.g_res[j].scaled(w))
        return cls(um=um, eps=nf.epsilon, g_o_series=g_o, g_series=g, base_point=nf.base_point)

    def value(self, yt, theta):
        """Hsec at yt of shape L + (n,) and theta of shape L; shape L."""
        y = apply(mat_transpose(self.um.rows), yt)
        zero_x = np.zeros(len(self.base_point))
        g_o = self.g_o_series.evaluate(y, zero_x).real
        # the g series lives on the ray Z k, so it depends on x only through
        # theta = k.x; x = theta k/|k|^2 is a representative with k.x = theta
        kv = np.array(self.um.k, dtype=float)
        g = self.g_series.evaluate(y, np.asarray(theta, dtype=float)[..., None] * kv / (kv @ kv)).real
        return 0.5 * sum(y[..., i] * y[..., i] for i in range(y.shape[-1])) + self.eps * (g_o + g)


@dataclass
class DecoupledForm:
    """Hsharp(Y, X1) = Y1^2 + Gf(Y1, phat, X1) with Gf = Gsharp_o + Gsharp,
    plus the adiabatic part 0.5|P_k^perp Ahat^T phat|^2 split off by Phi1."""

    Gf: PolyTrig1
    adiabatic: object          # callable(phat of shape L + (n_hat,)) -> shape L
    r: float
    s_breve: float
    theta_o_bound: float
    n_hat: int
    G_osc: PolyTrig1 | None = None  # unused; perfbench/workloads.py passes G_osc=None
    um: UnimodularMatrix | None = None
    dm: DecouplingMatrix | None = None
    secular: SecularHam | None = None

    def hypothesis_ok(self) -> bool:
        """Smallness gate theta_o/r^2 < 2^-10 s_breve/(pi + s_breve)."""
        return (
            self.theta_o_bound / self.r ** 2
            < 2.0 ** -10 * self.s_breve / (math.pi + self.s_breve)
        )


def build_phi1(secular: SecularHam, dm: DecouplingMatrix, chars: Characteristics,
               theta_o_bound: float) -> DecoupledForm:
    """The decoupled 1-DOF form of secular under the shear dm, at chars' eps_k, r and s_breve.

    The exact identity Hsec o Phi1 = (|k|^2/2) Hsharp + adiabatic holds by the
    kinetic split |A^T U Y|^2 = |k|^2 Y1^2 + |P_k^perp Ahat^T Yhat|^2.
    """
    Gf = PolyTrig1.from_series(secular.g_o_series.plus(secular.g_series), dm, chars.eps_k)
    perp = np.asarray([row[1:] for row in dm.affine], dtype=float)  # P_k^perp Ahat^T, rounded once

    def adiabatic(phat):
        v = apply(perp, phat)
        return 0.5 * sum(v[..., i] * v[..., i] for i in range(v.shape[-1]))

    return DecoupledForm(
        Gf=Gf,
        adiabatic=adiabatic,
        r=chars.r,
        s_breve=chars.s_breve,
        theta_o_bound=theta_o_bound,
        n_hat=dm.um.n - 1,
        um=dm.um,
        dm=dm,
        secular=secular,
    )


# --------------------------------------------------------------------------
# fixed point of the momentum shift (Phi2) and the final translation (Phi3)
# --------------------------------------------------------------------------

def _antiderivative_at(values: np.ndarray, x):
    """int_0^x, at x of shape L, of the zero-average trig interpolant of
    grid values of shape L + (GRID,) + K; the result is L + K."""
    vals = np.moveaxis(values, np.ndim(x), -1)
    vals = vals - vals.mean(axis=-1, keepdims=True)
    coeff = np.fft.rfft(vals, axis=-1) / vals.shape[-1]
    j = np.arange(1, coeff.shape[-1])
    jx = j * np.reshape(x, np.shape(x) + (1,) * (vals.ndim - np.ndim(x)))
    # 2 Re sum_j c_j (e^{ijx} - 1)/(ij), in real arithmetic
    terms = (coeff.real[..., 1:] * np.sin(jx) + coeff.imag[..., 1:] * (np.cos(jx) - 1.0)) / j
    return 2.0 * np.sum(terms, axis=-1)


def _step(ev: BoundPotential, u):
    """u <- -0.5 d_{Y1} Gf(u), one step of the fixed-point equation of p."""
    return -0.5 * ev(u, 1)


def _iterate(ev: BoundPotential):
    """(p, steps): `_step` iterated from u = 0 on every entry of ev at once,
    the one fixed-point loop.  Each entry freezes at its first iterate whose
    own step is below FIXED_POINT_TOL, so it equals the scalar iteration at
    that entry; steps[i] is max |u_{i+1} - u_i| over the entries, and the
    loop ends at the first step below FIXED_POINT_TOL.  A step ratio >= 1,
    or 200 steps, raises HypothesisError."""
    u = np.zeros(ev.shape)
    live = np.ones(ev.shape, dtype=bool)
    steps = []
    for _ in range(200):
        nxt = _step(ev, u)
        delta = np.abs(nxt - u)
        steps.append(float(np.max(delta, where=live, initial=0.0)))
        if len(steps) > 1 and steps[-1] >= steps[-2]:
            raise HypothesisError(f"contraction failed: step ratio {steps[-1] / steps[-2]:.3f}")
        u = np.where(live, nxt, u)
        if steps[-1] < FIXED_POINT_TOL:
            return u[()], steps
        live &= ~(delta < FIXED_POINT_TOL)
    raise HypothesisError(f"fixed-point iteration stalled: no step below {FIXED_POINT_TOL} in 200")


def _implicit(D, rhs):
    """x with D x = -0.5 rhs, D = 1 + 0.5 G_YY of shape L and rhs L + K: the
    solve of every derivative of p + 0.5 d_{Y1} Gf(p) = 0."""
    return -0.5 * rhs / D[(...,) + (None,) * (rhs.ndim - D.ndim)]


class _Jet:
    """p on one evaluator ev and its exact derivatives, each computed on first
    read and kept.  Differentiating p + 0.5 d_{Y1} Gf(p) = 0 gives D p_i =
    -0.5 G_{Y i} and D p_q = -0.5 G_{Y q} with D = 1 + 0.5 G_YY, and once more
    D p_ij = -0.5 (G_YYY p_i p_j + G_{YY i} p_j + G_{YY j} p_i + G_{Y ij})."""

    def __init__(self, ev: BoundPotential):
        self.ev = ev

    @cached_property
    def p(self):
        return _iterate(self.ev)[0]

    @cached_property
    def D(self):
        return np.asarray(1.0 + 0.5 * self.ev(self.p, 2))

    @cached_property
    def dp(self):  # dp/dphat
        return _implicit(self.D, self.ev(self.p, 1, 1))

    @cached_property
    def d2p(self):  # d2p/dphat2
        ev, p, pi = self.ev, self.p, self.dp
        cross = ev(p, 2, 1)[..., :, None] * pi[..., None, :]
        return _implicit(self.D, ev(p, 3)[..., None, None] * pi[..., :, None] * pi[..., None, :]
                         + cross + np.swapaxes(cross, -1, -2) + ev(p, 1, 2))

    @cached_property
    def dq(self):  # dp/dq1
        return _implicit(self.D, self.ev(self.p, 1, dq=1))

    @cached_property
    def value(self):  # Gf at p
        return self.ev(self.p, 0)

    def nu(self, p1):
        """(Gf(p + p1) - Gf(p) - G_Y(p) p1) / p1^2 at momenta p1 broadcasting
        against p: the Taylor tail sum_{i=2..D} d^i_{Y1} Gf(p) p1^(i-2) / i!,
        exact for Gf's Y1-degree D, its terms added from i = 2 up."""
        D = int(self.ev.G._d.max(initial=0))
        powers = power_table(p1, max(D - 2, 0))
        return sum((self.ev(self.p, i) * powers[..., i - 2] / math.factorial(i) for i in range(2, D + 1)),
                   np.zeros(np.broadcast_shapes(np.shape(self.p), np.shape(p1))))


class PointJet:
    """The reading of p at phat of shape L + (n_hat,) and, when given, q1 of
    shape L: the _Jets `grid`, on each phat's q1 grid, and `point`, at q1.
    Each entry is computed on first read and kept: tau = p_o, dtau and d2tau
    (p's angle average and its phat derivatives, the shear of Phi3), and G0
    and G on the grid, p^2 + Gf(p) = G0 + G.  Phi2 and Phi3 leave phat and
    q1 alone, so one reading serves a composition of them."""

    def __init__(self, fp: "FixedPointSolution", phat, q1=None):
        self.phat, self.q1 = np.array(phat, dtype=float), None if q1 is None else np.array(q1, dtype=float)
        theta = _THETA.reshape((1,) * (self.phat.ndim - 1) + (GRID,))  # the q1 grid of each phat
        self.grid = _Jet(fp.form.Gf.at(self.phat, theta))
        self.point = None if q1 is None else _Jet(fp.form.Gf.at(self.phat, self.q1))

    @cached_property
    def tau(self):
        return np.mean(self.grid.p, axis=-1)

    @cached_property
    def dtau(self):
        return self.grid.dp.mean(axis=-2)

    @cached_property
    def d2tau(self):
        return self.grid.d2p.mean(axis=-3)

    @cached_property
    def G0(self):
        return np.mean(self.grid.p ** 2, axis=-1) + np.mean(self.grid.value, axis=-1)

    @cached_property
    def G(self):
        return self.grid.p * self.grid.p + self.grid.value - self.G0[..., None]


@dataclass
class FixedPointSolution:
    """Solution p(phat, q1) of p = -0.5 d_{Y1} Gf(p, phat, q1), read at a
    stack of points as a PointJet by `read(phat, q1)`.  The empirical
    contraction factor must stay below 1/8 (+ roundoff) whenever the
    smallness hypothesis holds."""

    form: DecoupledForm
    residual: float
    contraction: float
    iterations: int
    hypothesis_ok: bool
    pitale_ok: bool
    base_phat: np.ndarray = None

    def read(self, phat, q1=None) -> PointJet:
        # a non-finite point never settles, and it would stall its whole stack
        for name, x in (("phat", phat), ("q1", q1)):
            if x is not None and not np.isfinite(x).all():
                raise ConfigError(f"a reading needs a finite {name}")
        return PointJet(self, phat, q1)


def solve_fixed_point(form: DecoupledForm, phat) -> FixedPointSolution:
    """`_iterate` on the q1 grid at the base phat.

    Records the last step as the residual (the residual |u + 0.5 d_{Y1} Gf(u)|
    of an iterate is its next step) and the largest ratio of consecutive
    steps before it as the empirical contraction factor, and checks the |p|
    bound theta_o/(3r).  When the smallness hypothesis fails the solver
    still runs, flagged as outside the certified regime.
    """
    ph = np.asarray(phat, dtype=float)
    p, steps = _iterate(form.Gf.at(ph, _THETA))
    return FixedPointSolution(
        form=form,
        residual=steps[-1],
        contraction=max((b / a for a, b in zip(steps[:-2], steps[1:-1])), default=0.0),
        iterations=len(steps) - 1,
        hypothesis_ok=form.hypothesis_ok(),
        pitale_ok=float(np.max(np.abs(p))) < form.theta_o_bound / (3.0 * form.r),
        base_phat=ph.copy(),
    )


# --------------------------------------------------------------------------
# transform objects with Jacobians
# --------------------------------------------------------------------------

def _reading(read, phat, q1, rd: PointJet | None) -> PointJet:
    """rd, refused unless it was made at phat and q1, or else read(phat, q1)."""
    if rd is None:
        return read(phat, q1)
    if not (rd.q1 is not None and np.array_equal(phat, rd.phat, equal_nan=True)
            and np.array_equal(q1, rd.q1, equal_nan=True)):
        raise ConfigError("a reading was used at other phat or q1 than it was made at")
    return rd


class ShearMap:
    """Momentum-shear group element: (p, q) -> (p1 + tau(phat), phat, q1,
    qhat - q1 dtau(phat)); symplectic for every smooth tau.  read(phat, q1),
    of shapes L + (n_hat,) and L, gives tau, dtau and d2tau of shapes L,
    L + (n_hat,) and L + (n_hat, n_hat) (Phi3's is fp.read, whose tau is p_o),
    unless a call is given a reading; the inverse is the map of sign -1."""

    def __init__(self, n: int, read, sign: float = 1.0):
        self.n, self.read, self.sign = n, read, sign

    def apply(self, z: np.ndarray, rd: PointJet | None = None) -> np.ndarray:
        n = self.n
        rd = _reading(self.read, z[..., 1:n], z[..., n], rd)
        out = z.astype(float)
        out[..., 0] = z[..., 0] + self.sign * rd.tau
        out[..., n + 1:] = z[..., n + 1:] - z[..., n, None] * (self.sign * rd.dtau)
        return out

    def inverse(self) -> "ShearMap":
        return ShearMap(self.n, self.read, -self.sign)

    def jacobian(self, z: np.ndarray, rd: PointJet | None = None) -> np.ndarray:
        n = self.n
        rd = _reading(self.read, z[..., 1:n], z[..., n], rd)
        dtau = self.sign * rd.dtau
        J = np.tile(np.eye(2 * n), z.shape[:-1] + (1, 1))
        J[..., 0, 1:n] = dtau
        J[..., n + 1:, 1:n] = -z[..., n, None, None] * (self.sign * rd.d2tau)
        J[..., n + 1:, n] = -dtau
        return J


class Phi2Map:
    """The generating-function map of the fixed-point shift:
    Y1 = P1 + ptilde(Phat, Q1), X̂ = Q̂ + q_hat(Phat, Q1).  Each call reads the
    reading it is given, or makes its own."""

    def __init__(self, fp: FixedPointSolution, n: int):
        self.fp, self.n = fp, n

    def apply(self, z: np.ndarray, rd: PointJet | None = None) -> np.ndarray:
        n = self.n
        rd = _reading(self.fp.read, z[..., 1:n], z[..., n], rd)
        out = z.astype(float)
        out[..., 0] = z[..., 0] + (rd.point.p - rd.tau)
        out[..., n + 1:] = z[..., n + 1:] - _antiderivative_at(rd.grid.dp, z[..., n])
        return out

    def jacobian(self, z: np.ndarray, rd: PointJet | None = None) -> np.ndarray:
        n = self.n
        rd = _reading(self.fp.read, z[..., 1:n], z[..., n], rd)
        J = np.tile(np.eye(2 * n), z.shape[:-1] + (1, 1))
        p_ph = rd.point.dp - rd.dtau  # d ptilde / d phat
        J[..., 0, 1:n] = p_ph
        J[..., 0, n] = rd.point.dq  # d ptilde / d q1
        J[..., n + 1:, 1:n] = -_antiderivative_at(rd.grid.d2p, z[..., n])
        J[..., n + 1:, n] = -p_ph
        return J


def symplectic_defect(J: np.ndarray) -> float:
    """max entry of |J^T Omega J - Omega| over Jacobians of shape L + (2n, 2n)."""
    n = J.shape[-1] // 2
    O = np.zeros((2 * n, 2 * n))
    O[:n, n:], O[n:, :n] = np.eye(n), -np.eye(n)
    return float(np.max(np.abs(J.mT @ O @ J - O)))


def symplectic_check(transform, points) -> float:
    """max entry of |J^T Omega J - Omega| over points of shape L + (2n,), in one call."""
    return symplectic_defect(transform.jacobian(np.asarray(points, dtype=float)))


# --------------------------------------------------------------------------
# the standard form
# --------------------------------------------------------------------------

@dataclass
class StandardFormHam:
    """(1 + nu) p1^2 + G(phat, q1) with reference potential Gbar, reached by Phi1 o Phi2 o Phi3 (phi1 None: Phi1 = I)."""

    k: Mode
    n: int
    chars: Characteristics
    fp: FixedPointSolution
    form: DecoupledForm
    G_bar: OneDTrigPoly
    phi1: DecouplingMatrix | None
    phi2: Phi2Map
    phi3: ShearMap

    def _read(self, p1, rd: PointJet):
        """At momenta p1 and rd's phat and q1, of shape L: (1 + nu) p1^2 (nu
        about p) and G(phat, q1), from rd's solves."""
        pq = rd.point.p
        return (1.0 + rd.point.nu(p1)) * p1 ** 2, pq * pq + rd.point.value - rd.G0

    def _h0(self, G0, phat):
        """h0 = G0 + 2 adiabatic(phat)/|k|^2, for G0 of shape L and phat L + (n_hat,)."""
        return G0 + 2.0 * self.form.adiabatic(phat) / float(sum(v * v for v in self.k))

    def phi_diamond_jacobian(self, z: np.ndarray, rd: PointJet | None = None) -> np.ndarray:
        """diag(U, U^{-T}) @ (J2 @ J3) at z under one reading, rd's if made at
        z: Phi2 and Phi3 read z only through (phat, q1), which Phi3 leaves
        alone, so J2 is read at z and no map is applied."""
        n = self.n
        rd = _reading(self.fp.read, z[..., 1:n], z[..., n], rd)
        J = self.phi2.jacobian(z, rd) @ self.phi3.jacobian(z, rd)
        if self.phi1 is None:
            return J
        J1 = np.zeros((2 * n, 2 * n))
        J1[:n, :n], J1[n:, n:] = np.array(self.phi1.U, dtype=float), np.array(self.phi1.U_inv, dtype=float).T
        return J1 @ J

    def check_reduction_identity(self, points, q1s, rd: PointJet | None = None) -> float:
        """max |Hsharp(Y1, phat, q1) - ((1+nu)p1^2 + G0 + G)| over the points
        (p1, phat), Y1 the first coordinate of Phi2(Phi3(p1, phat, q1, 0)), all
        read through one grid and one point solve: rd's, if made there."""
        p, q1 = np.asarray(points, dtype=float), np.asarray(q1s, dtype=float)
        rd = _reading(self.fp.read, p[..., 1:], q1, rd)
        z = np.concatenate([p, q1[..., None], np.zeros(p.shape[:-1] + (self.n - 1,))], axis=-1)
        Y1 = self.phi2.apply(self.phi3.apply(z, rd), rd)[..., 0]
        kinetic, G = self._read(p[..., 0], rd)
        return float(np.max(np.abs(Y1 * Y1 + rd.point.ev(Y1, 0) - (kinetic + rd.G0 + G))))


def build_phi2_phi3(fp: FixedPointSolution, chars: Characteristics,
                    G_bar: OneDTrigPoly, phi1: DecouplingMatrix | None = None
                    ) -> StandardFormHam:
    """Assemble the standard form and its three transforms from a converged
    fixed point."""
    n = fp.form.n_hat + 1
    return StandardFormHam(k=chars.k, n=n, chars=chars, fp=fp, form=fp.form, G_bar=G_bar,
                           phi1=phi1, phi2=Phi2Map(fp, n), phi3=ShearMap(n, fp.read))


# --------------------------------------------------------------------------
# verification of the standard-form estimates
# --------------------------------------------------------------------------

@dataclass
class StandardFormReport:
    flags: dict


def verify_standard(sf: StandardFormHam, phat_samples: np.ndarray) -> StandardFormReport:
    """Check every standard-form estimate with margins.

    sup|Gbar| vs eps_hat, sup|G - Gbar| vs eps_hat*lambda, sup|nu| vs lambda,
    |h0 - adiabatic pullback| vs 6 eps_k lambda, the band 1/2 <= eps_hat/m <=
    kappa, 1/kappa <= sigma <= 1, 1 <= R/r <= kappa, and the Morse constant of
    Gbar against its branch value.  Each flag reports (value, bound, margin).
    """
    ch = sf.chars
    flags: dict[str, dict] = {}

    def put(name, value, bound, ok=None, margin=None):
        flags[name] = {
            "value": value,
            "bound": bound,
            "ok": bool(value <= bound if ok is None else ok),
            "margin": (bound - value) if margin is None else margin,
        }

    # sup |Gbar| over the sigma strip via the coefficient majorant
    gbar_sup = 2.0 * sum(
        abs(c) * math.exp(j * ch.sigma) for j, c in sf.G_bar.coeffs.items()
    )
    put("gbar_sup_le_eps_hat", gbar_sup, ch.eps_hat)

    # all phat samples in one grid solve: G - Gbar on the grid and |h0 - adiabatic
    # pullback| = |G0|; in one point solve |nu| at 8 random (q1, p1) per sample
    ph = np.asarray(phat_samples, dtype=float)
    rng = np.random.default_rng(7)
    q1, p1 = np.array([(rng.uniform(0, TWO_PI, 8), rng.uniform(-ch.r, ch.r, 8))
                       for _ in ph]).transpose(1, 0, 2)
    rd = sf.fp.read(ph)
    worst_dev = float(np.max(np.abs(rd.G - sf.G_bar.values_on_grid(GRID))))
    worst_nu = float(np.max(np.abs(_Jet(sf.form.Gf.at(ph, q1)).nu(p1))))
    worst_h0 = float(np.max(np.abs(rd.G0)))
    put("g_minus_gbar_le_eps_hat_lambda", worst_dev, ch.eps_hat * ch.lam)
    put("nu_le_lambda", worst_nu, ch.lam)
    put("h0_dev_le_6_eps_k_lambda", worst_h0, 6.0 * ch.eps_k * ch.lam)

    # scale bands
    ratio = ch.eps_hat / ch.m
    put("eps_hat_over_m_band", ratio, [0.5, ch.kappa],
        0.5 <= ratio <= ch.kappa, margin=min(ratio - 0.5, ch.kappa - ratio))
    put("sigma_band", ch.sigma, [1.0 / ch.kappa, 1.0],
        1.0 / ch.kappa <= ch.sigma <= 1.0,
        margin=min(ch.sigma - 1.0 / ch.kappa, 1.0 - ch.sigma))
    rr = ch.R / ch.r
    put("R_over_r_band", rr, [1.0, ch.kappa], 1.0 <= rr <= ch.kappa,
        margin=min(rr - 1.0, ch.kappa - rr))
    put("eps_hat_le_r2_216", ch.eps_hat, ch.r ** 2 / 2 ** 16)

    if sf.G_bar.coeffs:
        rep = critical_points(sf.G_bar)
        put("gbar_morse_ge_m", ch.m, rep.beta, rep.beta >= ch.m * (1 - 1e-9))

    return StandardFormReport(flags=flags)


# --------------------------------------------------------------------------
# full pipeline driver
# --------------------------------------------------------------------------

def standardize(
    f: TrigPoly,
    s: float,
    eps: float,
    k: Mode,
    params: CoveringParams,
    y0,
    beta: float,
    delta: float = 1.0,
    order: int = 2,
) -> StandardFormHam:
    """Run resonant averaging at k and reduce the secular Hamiltonian to
    Generic Standard Form; returns the assembled Hamiltonian with transforms.
    beta and eps must be finite and positive."""
    from .lieseries import NaturalHam, lie_step_res

    for name, value in (("beta", beta), ("eps", eps)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and positive")
    k = tuple(int(v) for v in k)
    ham = NaturalHam(f.n, eps, f)
    nf = lie_step_res(ham, k, params, y0, order=order, max_degree=3)
    dm = decoupling_matrix(complete_to_sl(k))
    secular = SecularHam.from_averaged(nf, dm.um)
    chars = characteristics(k, f.n, s, eps, beta, f, params, delta=delta)
    # Gf's center is the base point in standard-form coordinates,
    # (Y1c, phat0) = U^{-1} A^{-T} y0; the bound below reads Y1c, so it is set after
    form = build_phi1(secular, dm, chars, theta_o_bound=math.inf)

    # certified bound on |Gf - Gbar| over the working domain: series majorants
    # around the base point; the Y-excursion |Y1 - Y1c| <= 4r maps to a
    # y-polydisk of radius (4r + |Y1c|) |k|_inf plus the phat sampling slack
    eps_k = chars.eps_k
    pk = project_lattice(f, k)
    k_inf = max(abs(v) for v in k)
    r_y = (4.0 * chars.r + abs(form.Gf.center[0])) * k_inf + 4.0 * chars.r + 1e-15
    g_o_maj = secular.g_o_series.majorant(r_y, 0.0)
    diff = secular.g_series.plus(ray_series(secular.g_series, pk, k).scaled(-1.0))
    g_diff_maj = diff.majorant(r_y, chars.s_breve / l1(k))  # e^{|j| s_breve} at mode j k
    form.theta_o_bound = max(eps_k * g_o_maj, eps_k * g_diff_maj, 1e-300)
    fp = solve_fixed_point(form, form.Gf.center[1:])
    return build_phi2_phi3(fp, chars, pk.scaled(eps_k), phi1=dm)
