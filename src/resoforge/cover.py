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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .fourier import ConfigError, Mode, Record, generators, l1, seed_sequence


@dataclass(frozen=True)
class CoveringParams(Record):
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
            raise ConfigError("need n >= 1 and s > 0")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha!r}")
        if self.alpha < 0 or (self.alpha == 0 and self.mode != "free"):
            raise ConfigError("alpha must be positive (zero allowed in free mode)")

    # analyticity radii of the averaging domains
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

    def s_k_prime(self, k: Mode) -> float:
        return l1(k) * self.s_star_prime

    def r1_threshold(self, k: Mode) -> float:
        """The transverse gap 3 alpha K / |k| defining R1_k vs R2_{k,l}."""
        return 3.0 * self.alpha * self.K / _euclid(k)

    @property
    def tables(self) -> _Tables:  # shared by every params of this (n, K0, K)
        return _tables(self.n, self.K0, self.K)

    @cached_property
    def generators_K0(self) -> list[Mode]:
        return list(self.tables.strips)

    @property
    def alpha_reachable(self) -> bool:
        """Whether alpha/2 is below the ball scale, so R0 can be nonempty."""
        return self.alpha < 1.0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "r_o": self.r_o, "s_o": self.s_o, "s_star": self.s_star,
                "alpha_reachable": self.alpha_reachable}


def _euclid(k) -> float:
    return math.sqrt(sum(float(v) ** 2 for v in k))


class _Strip(NamedTuple):
    """The tables of the strip |y.k| < alpha of one k in generators_K0."""

    kv: np.ndarray            # k as floats
    e_k: np.ndarray           # k / |k|
    others: tuple[Mode, ...]  # the order-K generators off the line Z k (all but k), in generator order
    G: np.ndarray             # their float rows
    rows: np.ndarray          # G by the exact |k|^2 |P_k^perp l|^2 = |k|^2 |l|^2 - (k.l)^2 ascending
                              # (ties in generator order): likeliest witnesses first


class _Tables(NamedTuple):
    G0: np.ndarray                 # generators_K0 as float rows
    strips: Mapping[Mode, _Strip]  # in generator order


@lru_cache(maxsize=8)
def _tables(n: int, K0: int, K: int) -> _Tables:
    """The covering tables of a cutoff, built once and held read-only."""
    gens, strips = generators(n, K), {}
    for k in generators(n, K0):
        others = tuple(ell for ell in gens if ell != k)
        G, kv = np.array(others, dtype=float).reshape(-1, n), np.array(k, dtype=float)
        rows = G[np.argsort((G * G).sum(axis=1) * sum(v * v for v in k) - (G @ k) ** 2, kind="stable")]
        strips[k] = _Strip(kv, kv / _euclid(k), others, G, rows)
    G0 = np.array(list(strips), dtype=float)
    for table in (G0, *(a for strip in strips.values() for a in (strip.kv, strip.e_k, strip.G, strip.rows))):
        table.setflags(write=False)
    return _Tables(G0, MappingProxyType(strips))


def derive_params(n: int, s: float, epsilon: float, K0: int, K: int) -> CoveringParams:
    """Paper-preset parameters: nu = (9/2) n + 2, alpha = sqrt(eps) K^nu.

    Requires K >= 6 K0 >= 12.  When alpha reaches the ball scale the preset
    regime is numerically unreachable and the params carry a warning flag.
    """
    if not (K >= 6 * K0 >= 12):
        raise ConfigError("paper-preset cutoffs must satisfy K >= 6*K0 >= 12")
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    nu = 4.5 * n + 2.0
    alpha = math.sqrt(epsilon) * float(K) ** nu
    return CoveringParams(
        n=n, s=s, K0=K0, K=K, alpha=alpha, mode="paper-preset", epsilon=epsilon, nu=nu
    )


def free_params(n: int, s: float, alpha: float, K0: int, K: int) -> CoveringParams:
    """Free-mode parameters: alpha decoupled from (eps, K) so that desk-scale
    property tests are meaningful; provenance recorded as 'free'."""
    if K < K0 or K0 < 1:
        raise ConfigError("need K >= K0 >= 1")
    return CoveringParams(n=n, s=s, K0=K0, K=K, alpha=alpha, mode="free")


@dataclass(frozen=True)
class RegionLabel(Record):
    kind: str  # "R0" | "R1" | "R2"
    k: Mode | None = None
    l: Mode | None = None


def classify_point(y, params: CoveringParams, all_pairs: bool = True) -> list[RegionLabel]:
    """Every region label whose defining inequalities hold at y (|y| < 1).

    Always nonempty: a point not in R0 has some |y.k| <= alpha/2 < alpha, and
    for that k either the transverse gaps all hold (R1_k) or some witnessing
    l produces an R2_{k,l} label.  Witnesses are listed in generator order;
    with all_pairs=False only the first witnessing l per k is enumerated.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (params.n,):
        raise ConfigError(f"point must have dimension {params.n}")
    if not np.linalg.norm(y) < 1.0:
        raise ConfigError("outside unit ball")
    labels: list[RegionLabel] = []
    strips = [(k, params.tables.strips[k]) for k in params.generators_K0]
    prods = np.array([float(np.dot(y, strip.kv)) for _, strip in strips])
    if np.all(np.abs(prods) > params.alpha / 2.0):
        labels.append(RegionLabel("R0"))
    for (k, strip), prod in zip(strips, prods):
        if abs(prod) >= params.alpha:
            continue
        y_perp = y - np.dot(y, strip.e_k) * strip.e_k
        witnesses = np.flatnonzero(np.abs(strip.G @ y_perp) <= params.r1_threshold(k))
        if witnesses.size == 0:
            labels.append(RegionLabel("R1", k=k))
        else:
            if not all_pairs:
                witnesses = witnesses[:1]
            labels.extend(RegionLabel("R2", k=k, l=strip.others[j]) for j in witnesses)
    return labels


@dataclass
class BatchClassification:
    """Vectorized classification of many points.

    codes: 0 where R0 holds, else 1 where some R1_k holds, else 2 (RegionLabel
    priority for rasters); the boolean masks carry the full structure."""

    is_r0: np.ndarray
    is_r1: np.ndarray
    is_r2: np.ndarray
    covered: np.ndarray = field(init=False)
    codes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.covered = self.is_r0 | self.is_r1 | self.is_r2
        self.codes = np.where(self.is_r0, np.int8(0), np.subtract(2, self.is_r1, dtype=np.int8))


def _cover(Y: np.ndarray, params: CoveringParams) -> tuple:
    """The kernel of classify_batch and measure_R2 on the rows of Y, shape
    (m, n): (is_r0, cand, r1, r2), the R0 gate over all m points, the indices
    of the candidates (min |k.y| < alpha) and the masks of some R1_k and of
    some R2_{k,l} over the candidates only.  Y is read through Yt = Y.T, in
    the caller's layout, never copied or written; per _BLOCK points one
    product with G0 gives min |k.y|.  The candidates are gathered along the
    contiguous axis (columns of a C-ordered Yt, else rows of Y, transposed
    once).  Each strip |y.k| < alpha meets the first _STAGE witness rows, and
    the rest, per _BLOCK points, only where no witness was found."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != params.n:
        raise ConfigError(f"points must have shape (m, {params.n})")
    Yt = Y.T
    sq = Yt[0] * Yt[0]
    for row in Yt[1:]:
        sq += row * row
    if not np.all(sq < 1.0):
        raise ConfigError("outside unit ball")
    m = Y.shape[0]
    product = np.dot if params.n == 1 else np.matmul  # matmul skips BLAS at n = 1
    G0, strips = params.tables
    block = np.empty(len(G0) * _BLOCK)
    for a in range(0, m, _BLOCK):
        P = block[:len(G0) * min(_BLOCK, m - a)].reshape(len(G0), -1)
        np.abs(product(G0, Yt[:, a:a + _BLOCK], out=P), out=P).min(axis=0, out=sq[a:a + _BLOCK])
    is_r0 = sq > params.alpha / 2.0
    cand = np.flatnonzero(sq < params.alpha)
    Yc = Yt.take(cand, axis=1) if Yt.flags.c_contiguous else Y.take(cand, axis=0).T.copy()
    p_k, mask = np.empty(cand.size), np.empty(cand.size, dtype=bool)
    r1, r2 = np.zeros(cand.size, dtype=bool), np.zeros(cand.size, dtype=bool)
    for k, s in strips.items():
        np.abs(product(s.kv, Yc, out=p_k), out=p_k)
        strip = np.flatnonzero(np.less(p_k, params.alpha, out=mask))
        Yn = Yc.take(strip, axis=1)
        Yperp, thr = Yn - np.outer(s.e_k, s.e_k @ Yn), params.r1_threshold(k)
        Q = s.rows[:_STAGE] @ Yperp
        min_q = np.abs(Q, out=Q).min(axis=0, initial=np.inf)
        rest = np.flatnonzero(min_q > thr)
        for a in range(0, rest.size, _BLOCK):
            Q = s.rows[_STAGE:] @ Yperp.take(rest[a:a + _BLOCK], axis=1)
            min_q[rest[a:a + _BLOCK]] = np.abs(Q, out=Q).min(axis=0, initial=np.inf)
        hit = min_q > thr
        r1[strip.compress(hit)] = True
        r2[strip.compress(~hit)] = True
    return is_r0, cand, r1, r2


def classify_batch(Y: np.ndarray, params: CoveringParams) -> BatchClassification:
    """Classify the rows of Y, shape (m, n), with the inequalities of
    classify_point: _cover's candidate masks, scattered once onto all m points."""
    is_r0, cand, r1, r2 = _cover(Y, params)
    is_r1, is_r2 = np.zeros((2, is_r0.size), dtype=bool)
    is_r1[cand], is_r2[cand] = r1, r2
    return BatchClassification(is_r0, is_r1, is_r2)


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
    Yt *= rng.random(m) ** (1.0 / n)
    return Yt.T


@dataclass
class R2MeasureEstimate(Record):
    measure_any: float
    measure_only: float
    ci_any: tuple[float, float]
    ci_only: tuple[float, float]
    fraction_any: float
    fraction_only: float
    samples: int
    seed: int
    params: CoveringParams


_CHUNK = 1 << 16  # fixed so results depend on the seed only
_BLOCK = 1 << 12  # points per gate product of _cover
_STAGE = 8  # witness rows that every strip point of _cover meets


def ball_points(n: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The seeded points of measure_R2, one (m, n) chunk at a time.

    Chunk i holds points i*_CHUNK onward, drawn by _sample_ball from its own
    Philox stream spawned from SeedSequence(seed), refused at the call."""
    streams = seed_sequence(seed).spawn((samples + _CHUNK - 1) // _CHUNK)
    return (_sample_ball(np.random.Generator(np.random.Philox(ss)), min(_CHUNK, samples - i * _CHUNK), n)
            for i, ss in enumerate(streams))


def measure_R2(params: CoveringParams, samples: int, seed: int) -> R2MeasureEstimate:
    """Monte-Carlo measure of the doubly-resonant set inside the unit ball.

    Reports both the measure of points carrying any R2 label and of points
    carrying only R2 labels (no R0, no R1), with binomial confidence
    intervals scaled by the ball volume.  The points are those of
    ball_points(params.n, samples, seed), counted chunk by chunk on _cover's
    candidate masks: no mask over all the points but the R0 gate.
    """
    if samples < 1000:
        raise ConfigError("need at least 10^3 samples")
    n_any = n_only = 0
    for Y in ball_points(params.n, samples, seed):
        is_r0, cand, r1, r2 = _cover(Y, params)
        n_any += int(np.count_nonzero(r2))
        n_only += int(np.count_nonzero(r2 & ~r1 & ~is_r0[cand]))

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
