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
        formula Hsharp o Phi2 = (1 + nutilde)(P1 - p_o)^2 + G0(Phat) + G(Phat, Q1);
  Phi3  the momentum translation P1 = p1 + p_o(phat) placing the secular
        equilibria on the angle axis.

The outcome is the 1-DOF Hamiltonian (1 + nu(p, q1)) p1^2 + G(phat, q1) with
reference potential Gbar = eps_k pi_k f, characteristics
(R, r, sigma, m, eps_hat, lambda) and the single scale parameter

    kappa = max{c2, 4 c_s, c_s / beta},   c2 = 4 n^{3/2} c1,
    c1 = 5 n (n-1)^{(n-1)/2},             c_s = max{1, 1/s},

which is independent of the resonance label k.  The adiabatic-action domain
Dhat of the characteristics is not materialized, because no check reads it.

Evaluation: one kernel, PolyTrig1, holds every decoupled potential.  The
pipeline's secular series is re-expanded exactly into its terms
Y1^d phat^m (a cos j q1 + b sin j q1) about the averaging base point, so all
derivatives are closed-form.  `PolyTrig1.at(phat, q1)` binds a phat, or a
stack of them, with a q1 grid or points, and gives any derivative at an
array of Y1 in one pass over the terms, so the fixed point is solved on the
whole grid of every phat at once (each entry stops on its own step, exactly
as the pointwise iteration would).  `FixedPointSolution.jet` solves once and
differentiates p + 0.5 d_{Y1} Gf(p) = 0 implicitly on the same evaluator, so
the Jacobians of Phi2 and Phi3 are exact.  A map call reads one solve on the
q1 grid and at most one at its q1; `verify_standard` and the reduction
identity read all their samples through one stacked solve of each kind.

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
from functools import cache

import numpy as np
import numpy.fft  # numpy loads these lazily: at import here, not inside the first call
import numpy.random

from .cover import CoveringParams
from .fourier import ConfigError, HypothesisError, Mode, OneDTrigPoly, TrigPoly, TWO_PI, l1, project_lattice
from .genericity import c_s, threshold_N
from .lieseries import AveragedNF, TaylorFourierSeries, ray_majorant, ray_series
from .morse import critical_points
from .unimodular import DecouplingMatrix, UnimodularMatrix, complete_to_sl, decoupling_matrix

GRID = 256            # q1 collocation grid (spectral accuracy for analytic data)
GAUSS_NODES = 32      # Taylor-integral quadrature nodes
FIXED_POINT_TOL = 1e-14  # fixed-point iteration stops once a step is below this
_THETA = np.arange(GRID) * (TWO_PI / GRID)


# --------------------------------------------------------------------------
# the decoupled potential and its evaluator bound to one (phat, q1)
# --------------------------------------------------------------------------

def _distinct(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and the position of each value among them."""
    distinct = sorted(set(values))
    return (np.array(distinct, dtype=float),
            np.array([distinct.index(v) for v in values], dtype=int))


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
        # trig and Y1 powers are evaluated once per distinct j and d
        self._ju, self._jinv = _distinct([j for _, _, j in keys])
        self._du, self._dinv = _distinct([d for d, _, _ in keys])
        self._a, self._b = np.array([self.terms[key] for key in keys],
                                    dtype=float).reshape(count, 2).T

    @classmethod
    def from_series(cls, series: TaylorFourierSeries, k: Mode, affine: np.ndarray,
                    scale: float) -> "PolyTrig1":
        """scale * Re g(affine @ (Y1, phat), q1 k/|k|^2) for a series g whose
        modes lie on Z k, re-expanded exactly about center = affine^-1 y0
        (y0 the series' base point).  With v = (Y1, phat) - center, each
        (y - y0)^m = (affine v)^m is a multinomial product, and the mode j k
        folds onto |j| by Re(z e^{ijq}) = Re z cos jq -/+ Im z sin jq."""
        n = len(affine)
        # row i of affine as the linear form {exponents of v: coefficient}
        rows = [{tuple(int(i == l) for i in range(n)): a for l, a in enumerate(row) if a != 0}
                for row in affine]

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
        for j, m, c in series.ray_terms(k):
            sign = (j > 0) - (j < 0)
            for e, coeff in expand(m).items():
                z = scale * c * coeff
                key = (e[0], e[1:], abs(j))
                a, b = terms.get(key, (0.0, 0.0))
                terms[key] = (a + z.real, b - sign * z.imag)
        return cls(n - 1, terms, np.linalg.solve(affine, series.base_point))

    def at(self, phat, q1) -> "BoundPotential":
        """This potential bound to phat of shape L + (n_hat,) (L = () for one
        phat) and q1 of shape L + S; see BoundPotential."""
        return BoundPotential(self, phat, q1)

    def dep_majorant(self, rY1: float, rph: float, width: float) -> float:
        """Bound on the Y1- or phat-dependent part over |Y1 - c_0| <= rY1,
        |phat_i - c_i| <= rph, |Im q1| <= width (c the expansion point)."""
        total = 0.0
        for (d, m, j), (a, b) in self.terms.items():
            if d == 0 and sum(m) == 0:
                continue
            total += (abs(a) + abs(b)) * rY1 ** d * rph ** sum(m) * math.exp(j * width)
        return total


class BoundPotential:
    """Gf bound to a stack of phat of shape L + (n_hat,), one phat being
    L = (), and q1 of shape `shape` = L + S, where an axis of L may be 1.

    `ev(Y1, dy, dph=0, dq=0)` is d^dy/dY1^dy d^dq/dq1^dq (dq <= 1) followed
    by dph derivatives in phat, one trailing axis of length n_hat each; Y1
    broadcasts against q1.  The trig table of each dq, at q1's own shape, and
    the coefficient rows of each (dy, dph) are built on first use and kept,
    so a call pays only the Y1 powers and one pass over the terms.
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
        column per term); a derivative multiplies by the exponent, then lowers it."""
        if (dy, dph) not in self._rows:
            G = self.G
            coeff = np.ones(len(G._d))
            for k in range(dy):
                coeff = coeff * (G._d - k)
            rows = []
            for idx in itertools.product(range(G.n_hat), repeat=dph):
                c, m = coeff, G._m.copy()
                for i in idx:
                    c = c * m[:, i]
                    m[:, i] -= 1.0
                rows.append(c * np.prod(self.ph[..., None, :] ** np.maximum(m, 0.0), axis=-1))
            self._rows[dy, dph] = np.stack(rows, axis=-2)
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
        G = self.G
        du = np.maximum(G._du - dy, 0.0)
        v1 = np.asarray(Y1, dtype=float) - G.center[0]
        base = (v1[..., None] ** du)[..., G._dinv] * self._trig_table(dq)
        # the gathers come out term-major; a contiguous term axis is summed
        # pairwise, as it is for one point, so arrays equal pointwise calls
        rows = self._coefficient_rows(dy, dph)
        out = np.sum(np.ascontiguousarray(rows * base[..., None, :]), axis=-1)
        return out.reshape(out.shape[:-1] + (G.n_hat,) * dph)


# --------------------------------------------------------------------------
# characteristics and kappa
# --------------------------------------------------------------------------

def c1_constant(n: int) -> float:
    return 5.0 * n * (n - 1) ** ((n - 1) / 2.0)


def c2_constant(n: int) -> float:
    return 4.0 * n ** 1.5 * c1_constant(n)


def kappa_uniform(n: int, s: float, beta: float) -> float:
    """kappa(n, s, beta) = max{c2, 4 c_s, c_s/beta}: independent of k."""
    return max(c2_constant(n), 4.0 * c_s(s), c_s(s) / beta)


@dataclass
class Characteristics:
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
        return {
            "k": list(self.k),
            "R": self.R,
            "r": self.r,
            "sigma": self.sigma,
            "m": self.m,
            "eps_hat": self.eps_hat,
            "lambda": self.lam,
            "kappa": self.kappa,
            "eps_k": self.eps_k,
            "chi_k": self.chi_k,
            "s_breve": self.s_breve,
            "branch": self.branch,
            "c1": self.c1,
            "c2": self.c2,
            "c_s": self.c_s,
            "N": self.N,
        }


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
    kk = math.sqrt(sum(v * v for v in k))
    c1 = c1_constant(n)
    c2 = c2_constant(n)
    cs = c_s(s)
    N = threshold_N(n, s, delta)
    R = params.alpha / kk ** 2
    r = R / c2
    eps_k = 2.0 * eps / kk ** 2
    lam = float(params.K) ** (-5 * n)
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
    k: Mode

    @classmethod
    def from_averaged(cls, nf: AveragedNF, um: UnimodularMatrix) -> "SecularHam":
        if nf.kind != "resonant" or nf.g_res is None:
            raise ConfigError("secular Hamiltonian needs a resonant normal form")
        g_o = nf.g_o[1].like()
        g = nf.g_res[1].like()
        for j in range(1, nf.order + 1):
            w = nf.epsilon ** (j - 1)
            g_o = g_o.plus(nf.g_o[j].scaled(w))
            g = g.plus(nf.g_res[j].scaled(w))
        return cls(
            um=um, eps=nf.epsilon, g_o_series=g_o, g_series=g,
            base_point=nf.base_point, k=nf.res_k,
        )

    def value(self, yt, theta: float) -> float:
        at = np.array(self.um.rows, dtype=float).T
        y = at @ np.asarray(yt, dtype=float)
        zero_x = np.zeros(len(self.base_point))
        g_o = self.g_o_series.evaluate(y, zero_x).real
        # the g series lives on the ray Z k, so it depends on x only through
        # theta = k.x; x = theta k/|k|^2 is a representative with k.x = theta
        kv = np.array(self.k, dtype=float)
        g = self.g_series.evaluate(y, theta * kv / (kv @ kv)).real
        return 0.5 * float(y @ y) + self.eps * (g_o + g)


@dataclass
class DecoupledForm:
    """Hsharp(Y, X1) = Y1^2 + Gf(Y1, phat, X1) with Gf = Gsharp_o + Gsharp,
    plus the adiabatic part 0.5|P_k^perp Ahat^T phat|^2 split off by Phi1."""

    Gf: PolyTrig1
    adiabatic: object          # callable(phat) -> float
    r: float
    s_breve: float
    theta_o_bound: float
    n_hat: int
    G_osc: PolyTrig1 | None = None  # unused; perfbench/workloads.py passes G_osc=None
    um: UnimodularMatrix | None = None
    dm: DecouplingMatrix | None = None
    secular: SecularHam | None = None
    eps_k: float | None = None

    def hypothesis_ok(self) -> bool:
        """Smallness gate theta_o/r^2 < 2^-10 s_breve/(pi + s_breve)."""
        return (
            self.theta_o_bound / self.r ** 2
            < 2.0 ** -10 * self.s_breve / (math.pi + self.s_breve)
        )


def build_phi1(secular: SecularHam, r: float, s_breve: float,
               theta_o_bound: float) -> DecoupledForm:
    """Apply the rational shear and return the decoupled 1-DOF form.

    The exact identity Hsec o Phi1 = (|k|^2/2) Hsharp + adiabatic holds by the
    kinetic split |A^T U Y|^2 = |k|^2 Y1^2 + |P_k^perp Ahat^T Yhat|^2.
    """
    um = secular.um
    dm = decoupling_matrix(um)
    k = secular.k
    kk2 = float(sum(v * v for v in k))
    eps_k = 2.0 * secular.eps / kk2
    at = np.array(um.rows, dtype=float).T
    U = np.array([[float(x) for x in row] for row in dm.U])
    affine = at @ U  # y = affine @ Y; first column equals k exactly
    n = um.n

    Gf = PolyTrig1.from_series(secular.g_o_series.plus(secular.g_series), k, affine, eps_k)
    ahat_t = np.array(um.A_hat, dtype=float).T
    kv = np.array(k, dtype=float)

    def adiabatic(phat) -> float:
        v = ahat_t @ np.asarray(phat, dtype=float)
        v = v - (v @ kv) / (kv @ kv) * kv
        return 0.5 * float(v @ v)

    return DecoupledForm(
        Gf=Gf,
        adiabatic=adiabatic,
        r=r,
        s_breve=s_breve,
        theta_o_bound=theta_o_bound,
        n_hat=n - 1,
        um=um,
        dm=dm,
        secular=secular,
        eps_k=eps_k,
    )


# --------------------------------------------------------------------------
# fixed point of the momentum shift (Phi2) and the final translation (Phi3)
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_NODES)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def _antiderivative_at(values: np.ndarray, x):
    """int_0^x of the zero-average trig interpolant of grid values; the grid
    runs along the first axis, the other axes are kept."""
    m = len(values)
    vals = np.moveaxis(values, 0, -1)
    vals = vals - vals.mean(axis=-1, keepdims=True)
    coeff = np.fft.rfft(vals, axis=-1) / m
    j = np.arange(1, coeff.shape[-1])
    terms = coeff[..., 1:] * (np.exp(1j * j * x) - 1.0) / (1j * j)
    return 2.0 * np.real(np.sum(terms, axis=-1))


@dataclass
class FixedPointSolution:
    """Solution p(phat, q1) of p = -0.5 d_{Y1} Gf(p, phat, q1).

    `jet` solves once, on a scalar q1 or an array of them, and returns p with
    its exact phat derivatives up to the requested order.  On the q1 grid the jet
    gives everything else: the angle average p_o and its derivatives
    (`shear`, the tau of Phi3), ptilde = p - p_o, and through the periodic
    primitive phi of ptilde the map q_hat = -d_phat phi of Phi2.  Nothing is
    cached, so each call solves afresh on the points it is given.  The
    empirical contraction factor must stay below 1/8 (+ roundoff) whenever the
    smallness hypothesis holds.
    """

    form: DecoupledForm
    residual: float
    contraction: float
    iterations: int
    hypothesis_ok: bool
    pitale_ok: bool
    base_phat: np.ndarray = None

    def solve_at(self, ev: BoundPotential):
        """Iterate u <- -0.5 d_{Y1} Gf(u) from u = 0 on every entry of the
        evaluator's q1 at once; each entry freezes at the first iterate whose
        own step is below FIXED_POINT_TOL, so it equals the scalar iteration
        at that q1."""
        u = np.zeros(ev.shape)
        live = np.ones(ev.shape, dtype=bool)
        for _ in range(200):
            nxt = -0.5 * ev(u, 1)
            moving = ~(np.abs(nxt - u) < FIXED_POINT_TOL)
            u = np.where(live, nxt, u)
            live &= moving
            if not live.any():
                return u[()]
        raise HypothesisError("pointwise fixed-point iteration stalled")

    def jet(self, phat, q1, order: int):
        """(p, dp/dphat, d2p/dphat2) at q1 from one solve and its evaluator;
        entries above `order` are None.  Differentiating
        p + 0.5 d_{Y1} Gf(p) = 0 gives D p_i = -0.5 G_{Y i} with
        D = 1 + 0.5 G_YY, and once more
        D p_ij = -0.5 (G_YYY p_i p_j + G_{YY i} p_j + G_{YY j} p_i + G_{Y ij})."""
        ev = self.form.Gf.at(phat, q1)
        p = self.solve_at(ev)
        if order < 1:
            return p, None, None
        denom = np.asarray(1.0 + 0.5 * ev(p, 2))
        pi = -0.5 * ev(p, 1, 1) / denom[..., None]
        if order < 2:
            return p, pi, None
        cross = ev(p, 2, 1)[..., :, None] * pi[..., None, :]
        total = (ev(p, 3)[..., None, None] * pi[..., :, None] * pi[..., None, :]
                 + cross + np.swapaxes(cross, -1, -2) + ev(p, 1, 2))
        return p, pi, -0.5 * total / denom[..., None, None]

    def shear(self, phat, order: int):
        """(p_o, d p_o/dphat, d2 p_o/dphat2), the angle average of p and its
        derivatives, from one grid jet; entries above `order` are None."""
        p, pi, pij = self.jet(phat, _THETA, order)
        return (float(np.mean(p)), None if pi is None else pi.mean(axis=0),
                None if pij is None else pij.mean(axis=0))


def solve_fixed_point(form: DecoupledForm, phat) -> FixedPointSolution:
    """Iterate u <- -0.5 d_{Y1} Gf(u, phat, .) on the spectral grid.

    Records the empirical contraction factor and residual; checks the |p|
    bound theta_o/(3r).  A step ratio >= 1 raises HypothesisError.  When
    the smallness hypothesis fails the solver still runs, flagged as outside
    the certified regime.  The residual |u + 0.5 d_{Y1} Gf(u)| of an iterate
    is the next step, so each iteration evaluates d_{Y1} Gf once.
    """
    ph = np.asarray(phat, dtype=float)
    ev = form.Gf.at(ph, _THETA)
    u = np.zeros(GRID)
    nxt = -0.5 * ev(u, 1)
    contraction = 0.0
    prev_step = None
    residual = math.inf
    for it in range(1, 200):
        after = -0.5 * ev(nxt, 1)
        step = float(np.max(np.abs(nxt - u)))
        residual = float(np.max(np.abs(nxt - after)))
        if prev_step is not None and prev_step > 0:
            ratio = step / prev_step
            contraction = max(contraction, ratio)
            if ratio >= 1.0:
                raise HypothesisError(f"contraction failed: step ratio {ratio:.3f}")
        prev_step = step
        u, nxt = nxt, after
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise HypothesisError(f"no convergence below {FIXED_POINT_TOL}")
    return FixedPointSolution(
        form=form,
        residual=residual,
        contraction=contraction,
        iterations=it,
        hypothesis_ok=form.hypothesis_ok(),
        pitale_ok=float(np.max(np.abs(u))) < form.theta_o_bound / (3.0 * form.r),
        base_phat=ph.copy(),
    )


# --------------------------------------------------------------------------
# transform objects with Jacobians
# --------------------------------------------------------------------------

def omega_matrix(n: int) -> np.ndarray:
    O = np.zeros((2 * n, 2 * n))
    O[:n, n:] = np.eye(n)
    O[n:, :n] = -np.eye(n)
    return O


class ShearMap:
    """Momentum-shear group element: (p, q) -> (p1 + tau(phat), phat, q1,
    qhat - q1 dtau(phat)); symplectic for every smooth tau.  `jet(phat,
    order)` returns (tau, dtau, d2tau) with the entries above `order` None;
    `apply` reads order 1, and `jacobian` order 2, which needs the Hessian."""

    def __init__(self, n: int, jet):
        self.n = n
        self.jet = jet

    def apply(self, z: np.ndarray) -> np.ndarray:
        n = self.n
        p, q = z[:n], z[n:]
        tau, dtau, _ = self.jet(p[1:], 1)
        out = z.astype(float).copy()
        out[0] = p[0] + float(tau)
        out[n + 1:] = q[1:] - q[0] * np.asarray(dtau)
        return out

    def inverse(self) -> "ShearMap":
        return ShearMap(self.n, lambda ph, order: tuple(
            None if v is None else -np.asarray(v) for v in self.jet(ph, order)))

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        n = self.n
        _, dtau, d2tau = self.jet(z[1:n], 2)
        J = np.eye(2 * n)
        J[0, 1:n] = dtau
        J[n + 1:, 1:n] = -z[n] * np.asarray(d2tau)
        J[n + 1:, n] = -np.asarray(dtau)
        return J


class Phi2Map:
    """The generating-function map of the fixed-point shift:
    Y1 = P1 + ptilde(Phat, Q1), X̂ = Q̂ + q_hat(Phat, Q1).  Each call reads
    one jet on the q1 grid and one solve at Q1."""

    def __init__(self, fp: FixedPointSolution, n: int):
        self.fp = fp
        self.n = n

    def apply(self, z: np.ndarray) -> np.ndarray:
        n = self.n
        P, Q = z[:n], z[n:]
        ph = P[1:]
        grid, grid_ph, _ = self.fp.jet(ph, _THETA, 1)
        out = z.astype(float).copy()
        out[0] = P[0] + (self.fp.jet(ph, Q[0], 0)[0] - float(np.mean(grid)))
        out[n + 1:] = Q[1:] - _antiderivative_at(grid_ph, Q[0])
        return out

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        n = self.n
        ph = z[1:n]
        q1 = z[n]
        _, grid_ph, grid_phph = self.fp.jet(ph, _THETA, 2)
        # the first-order jet at q1 with dp/dq1, which only this map reads:
        # D p_q = -0.5 G_{Y q}, as for dp/dphat
        ev = self.fp.form.Gf.at(ph, q1)
        p = self.fp.solve_at(ev)
        denom = 1.0 + 0.5 * ev(p, 2)
        J = np.eye(2 * n)
        p_ph = -0.5 * ev(p, 1, 1) / denom - grid_ph.mean(axis=0)  # d ptilde / d phat
        J[0, 1:n] = p_ph
        J[0, n] = -0.5 * ev(p, 1, dq=1) / denom                   # d ptilde / d q1
        J[n + 1:, 1:n] = -_antiderivative_at(grid_phph, q1)
        J[n + 1:, n] = -p_ph
        return J


class LinearSymplectic:
    """Block map (Y, X) -> (U Y, U^{-T} X)."""

    def __init__(self, U: np.ndarray):
        self.U = U
        self.Uinv_t = np.linalg.inv(U).T
        n = U.shape[0]
        self.J = np.zeros((2 * n, 2 * n))
        self.J[:n, :n] = U
        self.J[n:, n:] = self.Uinv_t
        self.n = n

    def apply(self, z: np.ndarray) -> np.ndarray:
        n = self.n
        return np.concatenate([self.U @ z[:n], self.Uinv_t @ z[n:]])

    def jacobian(self, _z: np.ndarray) -> np.ndarray:
        return self.J


class ComposedMap:
    """maps[0] o maps[1] o ... (rightmost applied first)."""

    def __init__(self, maps):
        self.maps = list(maps)

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        J = None
        for m in reversed(self.maps):
            Jm = m.jacobian(z)
            J = Jm if J is None else Jm @ J
            z = m.apply(z)
        return J


def symplectic_defect(J: np.ndarray) -> float:
    """max entry of |J^T Omega J - Omega|."""
    O = omega_matrix(J.shape[0] // 2)
    return float(np.max(np.abs(J.T @ O @ J - O)))


def symplectic_check(transform, points) -> float:
    """max over points of |J^T Omega J - Omega| (max entry)."""
    return max((symplectic_defect(transform.jacobian(np.asarray(z, dtype=float)))
                for z in points), default=0.0)


# --------------------------------------------------------------------------
# the standard form
# --------------------------------------------------------------------------

@dataclass
class StandardFormHam:
    """(1 + nu(p, q1)) p1^2 + G(phat, q1) with reference potential Gbar."""

    k: Mode
    n: int
    eps: float
    chars: Characteristics
    fp: FixedPointSolution
    form: DecoupledForm
    G_bar: OneDTrigPoly
    phi1: LinearSymplectic | None
    phi2: Phi2Map
    phi3: ShearMap

    def _on_grid(self, ph: np.ndarray):
        """p_o(phat) and G0(phat), shape L, and G(phat, .) on the q1 grid,
        L + (GRID,), for phat of shape L + (n_hat,), from one grid solve."""
        ev = self.form.Gf.at(ph, _THETA.reshape((1,) * (ph.ndim - 1) + (GRID,)))
        pg = self.fp.solve_at(ev)
        gvals = ev(pg, 0)
        G0 = np.mean(pg ** 2, axis=-1) + np.mean(gvals, axis=-1)
        return np.mean(pg, axis=-1), G0, pg * pg + gvals - G0[..., None]

    def _nu(self, p1, p_o, ph, q1):
        """int_0^1 (1-t) d2_{Y1} Gf(p_o + t p1) dt by Gauss-Legendre, all
        nodes at once, for phat of shape L + (n_hat,) and p_o, p1, q1 broadcasting to L + S."""
        p_o = np.asarray(p_o, dtype=float)[..., None]
        pts = p_o + _GL_T * ((p_o + np.asarray(p1, dtype=float)[..., None]) - p_o)
        ev = self.form.Gf.at(ph, np.asarray(q1, dtype=float)[..., None])
        return np.sum(_GL_W * (1.0 - _GL_T) * ev(pts, 2), axis=-1)

    def _read(self, p, q1):
        """At p of shape L + (n,) and q1 of shape L, from one grid solve and
        one at q1: the Y1 that Phi2 o Phi3 sends p to, (1 + nu) p1^2,
        G0(phat), G(phat, q1), and the evaluator at (phat, q1)."""
        p = np.asarray(p, dtype=float)
        p1, ph = p[..., 0], p[..., 1:]
        p_o, G0, _ = self._on_grid(ph)
        ev = self.form.Gf.at(ph, q1)
        pq = self.fp.solve_at(ev)
        return (p1 + p_o + (pq - p_o), (1.0 + self._nu(p1, p_o, ph, q1)) * p1 ** 2,
                G0, pq * pq + ev(pq, 0) - G0, ev)

    def _h0(self, G0: float, phat) -> float:
        """h0(phat) = G0(phat) + 2 adiabatic(phat)/|k|^2."""
        return G0 + 2.0 * self.form.adiabatic(phat) / float(sum(v * v for v in self.k))

    def phi_diamond(self) -> ComposedMap:
        maps = [self.phi2, self.phi3]
        if self.phi1 is not None:
            maps.insert(0, self.phi1)
        return ComposedMap(maps)

    def check_reduction_identity(self, points, q1s) -> float:
        """max |Hsharp(Phi2(Phi3(p, q1))) - ((1+nu)p1^2 + G0 + G)| over the
        points, all read through one grid and one point solve."""
        Y1, kinetic, G0, G, ev = self._read(points, q1s)
        return float(np.max(np.abs(Y1 * Y1 + ev(Y1, 0) - (kinetic + G0 + G))))


def build_phi2_phi3(fp: FixedPointSolution, chars: Characteristics,
                    G_bar: OneDTrigPoly, phi1: LinearSymplectic | None = None
                    ) -> StandardFormHam:
    """Assemble the standard form and its three transforms from a converged
    fixed point."""
    form = fp.form
    n = form.n_hat + 1
    phi3 = ShearMap(n, fp.shear)
    phi2 = Phi2Map(fp, n)
    eps = chars.eps_k * float(sum(v * v for v in chars.k)) / 2.0
    return StandardFormHam(
        k=chars.k, n=n, eps=eps,
        chars=chars, fp=fp, form=form, G_bar=G_bar,
        phi1=phi1, phi2=phi2, phi3=phi3,
    )


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

    def put(name, value, bound, ok, margin=None):
        flags[name] = {
            "value": value,
            "bound": bound,
            "ok": bool(ok),
            "margin": (bound - value) if margin is None else margin,
        }

    # sup |Gbar| over the sigma strip via the coefficient majorant
    gbar_sup = 2.0 * sum(
        abs(c) * math.exp(j * ch.sigma) for j, c in sf.G_bar.coeffs.items()
    )
    put("gbar_sup_le_eps_hat", gbar_sup, ch.eps_hat, gbar_sup <= ch.eps_hat)

    # all phat samples in one grid solve: G - Gbar on the grid, |nu| at 8
    # random (q1, p1) drawn per sample, and |h0 - adiabatic pullback| = |G0|
    ph = np.asarray(phat_samples, dtype=float)
    rng = np.random.default_rng(7)
    q1, p1 = np.array([(rng.uniform(0, TWO_PI, 8), rng.uniform(-ch.r, ch.r, 8))
                       for _ in ph]).transpose(1, 0, 2)
    p_o, G0, gv = sf._on_grid(ph)
    worst_dev = float(np.max(np.abs(gv - sf.G_bar.values_on_grid(GRID))))
    worst_nu = float(np.max(np.abs(sf._nu(p1, p_o[:, None], ph, q1))))
    worst_h0 = float(np.max(np.abs(G0)))
    put("g_minus_gbar_le_eps_hat_lambda", worst_dev, ch.eps_hat * ch.lam,
        worst_dev <= ch.eps_hat * ch.lam)
    put("nu_le_lambda", worst_nu, ch.lam, worst_nu <= ch.lam)
    put("h0_dev_le_6_eps_k_lambda", worst_h0, 6.0 * ch.eps_k * ch.lam,
        worst_h0 <= 6.0 * ch.eps_k * ch.lam)

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
    put("eps_hat_le_r2_216", ch.eps_hat, ch.r ** 2 / 2 ** 16,
        ch.eps_hat <= ch.r ** 2 / 2 ** 16)

    if not sf.G_bar.is_zero:
        rep = critical_points(sf.G_bar)
        put("gbar_morse_ge_m", ch.m, rep.beta, rep.beta >= ch.m * (1 - 1e-9))
        flags["gbar_morse_computed"] = {"value": rep.beta, "bound": ch.m,
                                        "ok": rep.beta >= ch.m * (1 - 1e-9),
                                        "margin": rep.beta - ch.m}

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
    um = complete_to_sl(k)
    secular = SecularHam.from_averaged(nf, um)
    chars = characteristics(k, f.n, s, eps, beta, f, params, delta=delta)

    # standard-form coordinates of the averaging base point: Y_c = U^{-1} A^{-T} y0
    dm = decoupling_matrix(um)
    at_inv = np.array(um.inverse, dtype=float).T  # A^{-T}
    Uinv = np.array([[float(x) for x in row] for row in dm.U_inv])
    Yc = Uinv @ (at_inv @ np.asarray(y0, dtype=float))
    phat0 = Yc[1:]

    # certified bound on |Gf - Gbar| over the working domain: series majorants
    # around the base point; the Y-excursion |Y1 - Y1c| <= 4r maps to a
    # y-polydisk of radius (4r + |Y1c|) |k|_inf plus the phat sampling slack
    eps_k = chars.eps_k
    pk = project_lattice(f, k)
    k_inf = max(abs(v) for v in k)
    r_y = (4.0 * chars.r + abs(Yc[0])) * k_inf + 4.0 * chars.r + 1e-15
    g_o_maj = secular.g_o_series.majorant(r_y, 0.0)
    diff = secular.g_series.plus(ray_series(secular.g_series, pk, k).scaled(-1.0))
    g_diff_maj = ray_majorant([diff], k, r_y, chars.s_breve)
    theta_o_bound = max(eps_k * g_o_maj, eps_k * g_diff_maj, 1e-300)

    form = build_phi1(secular, r=chars.r, s_breve=chars.s_breve, theta_o_bound=theta_o_bound)
    fp = solve_fixed_point(form, phat0)
    G_bar = pk.scaled(eps_k)
    U = np.array([[float(x) for x in row] for row in dm.U])
    phi1 = LinearSymplectic(U)
    return build_phi2_phi3(fp, chars, G_bar, phi1=phi1)
