"""Resonance-zone covering of the unit action ball.

For cutoffs K >= 6 K0 >= 12 and a divisor threshold alpha the ball splits into

    R0        min |y.k| > alpha/2 over generators with |k|_1 <= K0
    R1_k      |y.k| < alpha and |P_k^perp y . l| > 3 alpha K / |k|
              for all generators l with |l|_1 <= K off the line Z k
    R2_{k,l}  |y.k| < alpha and |P_k^perp y . l| <= 3 alpha K / |k|

(|k| Euclidean in the per-k radii, ell^1 in the cutoff balls).  Every point of
the ball receives at least one label.  R0 points are (alpha/2)-nonresonant up
to order K0 and R1_k points are (2 alpha K/|k|)-nonresonant modulo Z k up to
order K.  The
doubly-resonant remainder R2 has measure O(alpha^2 K^{2n}), estimated here by
Monte Carlo.

In the paper-preset parameter regime alpha = sqrt(eps) K^nu with
nu = (9/2)n + 2, which underflows/overflows double precision at useful
cutoffs; free mode decouples alpha as an independent knob and every report
records which mode produced it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import Mode, generators, l1


class OutsideDomainError(ValueError):
    """Query point lies outside the open unit ball."""


class CutoffOrderError(ValueError):
    """Paper-preset cutoffs must satisfy K >= 6 K0 >= 12."""


@dataclass(frozen=True)
class CoveringParams:
    """Covering parameters; 'paper-preset' derives alpha = sqrt(eps) K^nu,
    'free' takes alpha as an independent knob (hypothesis flags recorded)."""

    n: int
    s: float
    K0: int
    K: int
    alpha: float
    mode: str
    epsilon: float | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.n < 1 or self.s <= 0:
            raise ValueError("need n >= 1 and s > 0")
        if self.alpha < 0 or (self.alpha == 0 and self.mode != "free"):
            raise ValueError("alpha must be positive (zero allowed in free mode)")

    # analyticity radii of the averaging domains; r_k uses the Euclidean |k|
    @property
    def r_o(self) -> float:
        return self.alpha / (16.0 * self.K0)

    @property
    def s_o(self) -> float:
        return self.s * (1.0 - 1.0 / self.K0)

    @property
    def s_star(self) -> float:
        return self.s * (1.0 - 1.0 / self.K)

    @property
    def s_star_prime(self) -> float:
        return self.s_star * (1.0 - 1.0 / self.K)

    def r_k(self, k: Mode) -> float:
        return self.alpha / _euclid(k)

    def s_k_prime(self, k: Mode) -> float:
        return l1(k) * self.s_star_prime

    def r1_threshold(self, k: Mode) -> float:
        """The transverse gap 3 alpha K / |k| defining R1_k vs R2_{k,l}."""
        return 3.0 * self.alpha * self.K / _euclid(k)

    @cached_property
    def generators_K0(self) -> list[Mode]:
        return generators(self.n, self.K0)

    @cached_property
    def generators_K(self) -> list[Mode]:
        return generators(self.n, self.K)

    @cached_property
    def transverse_generators(self) -> dict[Mode, tuple[list[Mode], np.ndarray]]:
        """For each k in generators_K0, the order-K generators off the line
        Z k (every generator but k itself), in generator order, with their
        float matrix of shape (len, n)."""
        out = {}
        for k in self.generators_K0:
            others = [ell for ell in self.generators_K if ell != k]
            out[k] = (others, np.array(others, dtype=float).reshape(-1, self.n))
        return out

    @property
    def alpha_reachable(self) -> bool:
        """Whether alpha/2 is below the ball scale, so R0 can be nonempty."""
        return self.alpha < 1.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "K0": self.K0,
            "K": self.K,
            "alpha": self.alpha,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "nu": self.nu,
            "r_o": self.r_o,
            "s_o": self.s_o,
            "s_star": self.s_star,
            "alpha_reachable": self.alpha_reachable,
        }


def _euclid(k) -> float:
    return math.sqrt(sum(float(v) ** 2 for v in k))


def derive_params(n: int, s: float, epsilon: float, K0: int, K: int) -> CoveringParams:
    """Paper-preset parameters: nu = (9/2) n + 2, alpha = sqrt(eps) K^nu.

    Requires K >= 6 K0 >= 12.  When alpha reaches the ball scale the preset
    regime is numerically unreachable and the params carry a warning flag.
    """
    if not (K >= 6 * K0 >= 12):
        raise CutoffOrderError("paper-preset cutoffs must satisfy K >= 6*K0 >= 12")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    nu = 4.5 * n + 2.0
    alpha = math.sqrt(epsilon) * float(K) ** nu
    return CoveringParams(
        n=n, s=s, K0=K0, K=K, alpha=alpha, mode="paper-preset", epsilon=epsilon, nu=nu
    )


def free_params(n: int, s: float, alpha: float, K0: int, K: int) -> CoveringParams:
    """Free-mode parameters: alpha decoupled from (eps, K) so that desk-scale
    property tests are meaningful; provenance recorded as 'free'."""
    if K < K0 or K0 < 1:
        raise CutoffOrderError("need K >= K0 >= 1")
    return CoveringParams(n=n, s=s, K0=K0, K=K, alpha=alpha, mode="free")


@dataclass(frozen=True)
class RegionLabel:
    kind: str  # "R0" | "R1" | "R2"
    k: Mode | None = None
    l: Mode | None = None

    def __str__(self):
        if self.kind == "R0":
            return "R0"
        if self.kind == "R1":
            return f"R1[k={self.k}]"
        return f"R2[k={self.k},l={self.l}]"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": list(self.k) if self.k else None,
            "l": list(self.l) if self.l else None,
        }


def classify_point(y, params: CoveringParams, all_pairs: bool = True) -> list[RegionLabel]:
    """Every region label whose defining inequalities hold at y (|y| < 1).

    Always nonempty: a point not in R0 has some |y.k| <= alpha/2 < alpha, and
    for that k either the transverse gaps all hold (R1_k) or some witnessing
    l produces an R2_{k,l} label.  Witnesses are listed in generator order;
    with all_pairs=False only the first witnessing l per k is enumerated.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (params.n,):
        raise ValueError(f"point must have dimension {params.n}")
    if np.linalg.norm(y) >= 1.0:
        raise OutsideDomainError("outside unit ball")
    labels: list[RegionLabel] = []
    gens0 = params.generators_K0
    prods = np.array([float(np.dot(y, k)) for k in gens0])
    if np.all(np.abs(prods) > params.alpha / 2.0):
        labels.append(RegionLabel("R0"))
    for i, k in enumerate(gens0):
        if abs(prods[i]) >= params.alpha:
            continue
        e_k = np.asarray(k, dtype=float) / _euclid(k)
        y_perp = y - np.dot(y, e_k) * e_k
        others, G = params.transverse_generators[k]
        witnesses = np.flatnonzero(np.abs(G @ y_perp) <= params.r1_threshold(k))
        if witnesses.size == 0:
            labels.append(RegionLabel("R1", k=k))
        else:
            if not all_pairs:
                witnesses = witnesses[:1]
            labels.extend(RegionLabel("R2", k=k, l=others[j]) for j in witnesses)
    return labels


@dataclass
class BatchClassification:
    """Vectorized classification of many points.

    codes: 0 where R0 holds, else 1 where some R1_k holds, else 2 (RegionLabel
    priority for rasters); the boolean masks carry the full structure."""

    covered: np.ndarray
    is_r0: np.ndarray
    is_r1: np.ndarray
    is_r2: np.ndarray
    codes: np.ndarray


def classify_batch(Y: np.ndarray, params: CoveringParams) -> BatchClassification:
    """Classify the rows of Y, shape (m, n), with the inequalities of
    classify_point.

    The kernel reads Yt = Y.T as a C-ordered (n, m) array, copied only when Y
    is not such a view (_sample_ball's output is one), and never writes it.
    The squared norms' buffer then holds |k.y|, one (n,) @ (n, m) product per
    k in generators_K0; one bool buffer holds the R0 gate, then the strip
    |y.k| < alpha, whose points' P_k^perp y meet the order-K generators off
    the line Z k in one product; the minimum is set against the R1 threshold."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != params.n:
        raise ValueError(f"points must have shape (m, {params.n})")
    Yt = np.ascontiguousarray(Y.T)
    sq = Yt[0] * Yt[0]
    for row in Yt[1:]:
        sq += row * row
    if np.any(sq >= 1.0):
        raise OutsideDomainError("outside unit ball")
    m = Y.shape[0]
    p_k, mask = sq, np.empty(m, dtype=bool)
    is_r0 = np.ones(m, dtype=bool)
    is_r1 = np.zeros(m, dtype=bool)
    is_r2 = np.zeros(m, dtype=bool)
    for k in params.generators_K0:
        kv = np.asarray(k, dtype=float)
        np.abs(np.matmul(kv, Yt, out=p_k), out=p_k)
        is_r0 &= np.greater(p_k, params.alpha / 2.0, out=mask)
        idx = np.flatnonzero(np.less(p_k, params.alpha, out=mask))
        if idx.size == 0:
            continue
        e_k = kv / _euclid(k)
        Yn = Yt.take(idx, axis=1)
        Yperp = Yn - np.outer(e_k, e_k @ Yn)
        Q = params.transverse_generators[k][1] @ Yperp
        min_q = np.abs(Q, out=Q).min(axis=0, initial=np.inf)
        r1_here = min_q > params.r1_threshold(k)
        is_r1[idx[r1_here]] = True
        is_r2[idx[~r1_here]] = True
    covered = is_r0 | is_r1 | is_r2
    codes = np.where(is_r0, np.int8(0), np.subtract(2, is_r1, dtype=np.int8))
    return BatchClassification(covered, is_r0, is_r1, is_r2, codes)


# --------------------------------------------------------------------------
# Monte-Carlo measure of the doubly-resonant set
# --------------------------------------------------------------------------

def ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _sample_ball(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform points of the open unit ball: normalized Gaussians times a
    U^{1/n} radial factor.

    The (m, n) draw is transposed once to a C-ordered (n, m) array, which is
    normalized and scaled in place; its (m, n) view is returned, so
    classify_batch reads it without a copy.  The squared norm adds the rows
    in order, as np.linalg.norm(g, axis=1) adds along an axis shorter than 8,
    so the points are the same bit for bit."""
    Yt = np.ascontiguousarray(rng.standard_normal((m, n)).T)
    sq = Yt[0] * Yt[0]
    for row in Yt[1:]:
        sq += row * row
    Yt /= np.sqrt(sq, out=sq)
    Yt *= rng.uniform(0.0, 1.0, size=m) ** (1.0 / n)
    return Yt.T


@dataclass
class R2MeasureEstimate:
    measure_any: float
    measure_only: float
    ci_any: tuple[float, float]
    ci_only: tuple[float, float]
    fraction_any: float
    fraction_only: float
    samples: int
    seed: int
    params: CoveringParams

    def to_dict(self) -> dict:
        return {
            "measure_any": self.measure_any,
            "measure_only": self.measure_only,
            "ci_any": list(self.ci_any),
            "ci_only": list(self.ci_only),
            "fraction_any": self.fraction_any,
            "fraction_only": self.fraction_only,
            "samples": self.samples,
            "seed": self.seed,
            "params": self.params.to_dict(),
        }


_CHUNK = 1 << 16  # fixed so results depend on the seed only


def ball_points(n: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The seeded points of measure_R2, one (m, n) chunk at a time.

    Chunk i holds points i*_CHUNK onward, drawn by _sample_ball from its own
    Philox stream spawned from SeedSequence(seed)."""
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        yield _sample_ball(np.random.Generator(np.random.Philox(ss)),
                           min(_CHUNK, samples - i * _CHUNK), n)


def measure_R2(params: CoveringParams, samples: int, seed: int) -> R2MeasureEstimate:
    """Monte-Carlo measure of the doubly-resonant set inside the unit ball.

    Reports both the measure of points carrying any R2 label and of points
    carrying only R2 labels (no R0, no R1), with binomial confidence
    intervals scaled by the ball volume.  The points are those of
    ball_points(params.n, samples, seed).
    """
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    n_any = n_only = 0
    for Y in ball_points(params.n, samples, seed):
        batch = classify_batch(Y, params)
        n_any += int(np.count_nonzero(batch.is_r2))
        n_only += int(np.count_nonzero(batch.is_r2 & ~batch.is_r0 & ~batch.is_r1))

    vol = ball_volume(params.n)

    def ci(count: int) -> tuple[float, float]:
        p = count / samples
        half = 1.96 * math.sqrt(max(p * (1 - p), 1e-300) / samples)
        return (max(0.0, p - half) * vol, min(1.0, p + half) * vol)

    return R2MeasureEstimate(
        measure_any=n_any / samples * vol,
        measure_only=n_only / samples * vol,
        ci_any=ci(n_any),
        ci_only=ci(n_only),
        fraction_any=n_any / samples,
        fraction_only=n_only / samples,
        samples=samples,
        seed=seed,
        params=params,
    )


def fit_measure_constant(estimates: list[R2MeasureEstimate]) -> float:
    """Fitted envelope constant cbar = max estimate / (alpha^2 K^{2n}).

    The doubly-resonant measure is bounded by cbar(n) alpha^2 K^{2n} for some
    dimensional constant; the fit reports the smallest constant consistent
    with the given estimates and is never asserted as a universal value.
    """
    return max(
        est.measure_any / (est.params.alpha ** 2 * est.params.K ** (2 * est.params.n))
        for est in estimates
    )
