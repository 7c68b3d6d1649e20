"""Membership machinery for the generic potential classes.

A potential f (zero average, unit weighted-sup ball at width s) is admitted at
level (delta, beta) when

  * |f_k| >= delta |k|_1^{-n} e^{-|k|_1 s} for every generator with
    |k|_1 >= N(delta)   (high-mode lower bound), and
  * pi_k f is beta-Morse with distinct critical values for every generator
    with |k|_1 <= N(delta)   (low-mode Morse condition),

where the threshold N(delta) = 2 max{1, (1/s) log(c_d / (s^n delta))} with
c_d = 2^44 (2n/e)^n is calibrated so that beyond it every projection is
2^-40-cosine-like.  Membership is certified on a finite window [N, K_max];
only rule-backed potentials can carry a symbolic proof beyond the cutoff.

The module also samples the product probability measure on coefficients
(f_k = w_k e^{-|k|_1 s}, w_k uniform on the unit disk) and estimates the
measure of the admissible set empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import ConfigError, Mode, TrigPoly, generators, half_ball, l1, lattice_projections
from .morse import critical_points_many


def threshold_N(n: int, s: float, delta: float) -> float:
    """High-mode threshold N(delta) = 2 max{1, (1/s) log(c_d/(s^n delta))}.

    c_d = 2^44 (2n/e)^n.  Monotone decreasing in delta and in s, and always
    >= 2 max{1, 1/s}.
    """
    if n < 1 or s <= 0 or not 0 < delta <= 1:
        raise ConfigError("need n >= 1, s > 0, 0 < delta <= 1")
    c_d = 2.0 ** 44 * (2.0 * n / math.e) ** n
    return 2.0 * max(1.0, math.log(c_d / (s ** n * delta)) / s)


def c_s(s: float) -> float:
    """The width constant max{1, 1/s}."""
    return max(1.0, 1.0 / s)


@dataclass(frozen=True)
class GenericityParams:
    n: int
    s: float
    delta: float
    beta: float
    K_max: float
    N: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be finite and nonnegative, got {self.beta!r}")
        object.__setattr__(self, "N", threshold_N(self.n, self.s, self.delta))


@dataclass
class Failure:
    k: Mode
    reason: str  # "lower-bound" | "morse" | "distinct-values"

    def to_dict(self) -> dict:
        return {"k": list(self.k), "reason": self.reason}


@dataclass
class MembershipReport:
    in_class: bool
    failures: list[Failure]
    window: tuple[float, float]
    delta: float
    beta: float
    n_checked_lower: int
    n_checked_morse: int
    proved_beyond_cutoff: bool
    margins: dict

    def to_dict(self) -> dict:
        return {
            "in_class": self.in_class,
            "failures": [f.to_dict() for f in self.failures],
            "window": list(self.window),
            "delta": self.delta,
            "beta": self.beta,
            "n_checked_lower": self.n_checked_lower,
            "n_checked_morse": self.n_checked_morse,
            "proved_beyond_cutoff": self.proved_beyond_cutoff,
            "margins": self.margins,
        }


def check_lower_bound(f: TrigPoly, params: GenericityParams) -> tuple[list[Failure], int, float]:
    """Verify |f_k| >= delta |k|_1^{-n} e^{-|k|_1 s} on the window [N, K_max].

    Returns (failures, number of generators checked, worst margin), where the
    margin is the minimum over checked k of |f_k|/(delta |k|_1^{-n} e^{-|k|_1 s}) - 1.
    Boundary equality passes.  The bound is computed once per order, and the
    ratios, margin and failures (in generator order) are read off arrays.
    """
    if params.K_max < math.ceil(params.N):  # orders are integers: an empty window has no margin
        raise ConfigError("cutoff below threshold: no order |k|_1 in the window [N, K_max]")
    lo, n = max(1, math.ceil(params.N)), f.n
    gens = generators(n, params.K_max, min_order=lo)
    orders = np.abs(np.array(gens, dtype=np.int64).reshape(-1, n)).sum(axis=1)
    bound = np.array([params.delta * l ** (-n) * math.exp(-l * params.s)
                      for l in range(lo, int(math.floor(params.K_max)) + 1)])
    rule = f.rule.coeff if f.rule is not None else lambda k: 0.0
    # |f_k| by the builtin abs, whose rounding np.abs does not share
    ratio = np.array([abs(f.coeffs.get(k) or rule(k)) for k in gens]) / bound[orders - lo]
    failures = [Failure(gens[i], "lower-bound") for i in np.flatnonzero(ratio < 1.0)]
    # fmin skips a NaN ratio, as a running min() does
    return failures, len(gens), float(np.fmin.reduce(ratio - 1.0, initial=math.inf))


def check_low_mode_morse(f: TrigPoly, params: GenericityParams) -> tuple[list[Failure], int, float]:
    """Check that pi_k f is beta-Morse with distinct values for |k|_1 <= N.

    One lattice_projections call and one critical_points_many call; a vanishing
    projection is recorded as a failure, not raised.  Returns (failures,
    generators checked, worst beta margin = min computed beta - beta).
    """
    failures: list[Failure] = []
    worst = math.inf
    gens = generators(f.n, params.N)
    for k, report in zip(gens, critical_points_many(lattice_projections(f, gens))):
        # beta >= 0, so a vanishing projection sets the margin to -beta for good
        worst = min(worst, (0.0 if report is None else report.beta) - params.beta)
        if report is None or report.beta < params.beta:
            failures.append(Failure(k, "morse"))
        elif not report.distinct_values:
            failures.append(Failure(k, "distinct-values"))
    return failures, len(gens), worst


def check_membership(f: TrigPoly, params: GenericityParams) -> MembershipReport:
    """Full class check over the finite window; reports window and margins."""
    lb_failures, n_lb, lb_margin = check_lower_bound(f, params)
    morse_failures, n_m, morse_margin = check_low_mode_morse(f, params)
    failures = lb_failures + morse_failures
    proved = False
    if f.rule is not None and not lb_failures:
        proved = f.rule.provable_lower_bound(params.delta)
    return MembershipReport(
        in_class=not failures,
        failures=failures,
        window=(params.N, params.K_max),
        delta=params.delta,
        beta=params.beta,
        n_checked_lower=n_lb,
        n_checked_morse=n_m,
        proved_beyond_cutoff=proved,
        margins={"lower_bound": lb_margin, "morse_beta": morse_margin},
    )


# --------------------------------------------------------------------------
# product-measure sampling
# --------------------------------------------------------------------------

_BLOCK = 64  # trials of empirical_genericity per array pass; memory is O(_BLOCK x size)


def _disks(rngs: list[np.random.Generator], size: int) -> np.ndarray:
    """Uniform samples on the closed unit disk, one row of `size` per stream.

    Row i is what rejection from the square draws from rngs[i] round by
    round: every open slot, in slot order, reads its stream's next unread
    pair of uniform(-1, 1) draws and keeps x + 1j*y if x**2 + y**2 <= 1.
    Each stream is drawn in one call of about 4/pi x size pairs plus slack,
    and drawn on from where it stopped while its row keeps fewer than `size`
    pairs; then all rows are replayed at once.
    """
    cap = int(4.0 / math.pi * size + 2.0 * math.sqrt(size)) + 2
    pairs = np.empty((len(rngs), cap, 2))
    for i, rng in enumerate(rngs):
        pairs[i] = rng.uniform(-1.0, 1.0, size=(cap, 2))
    while True:
        m, cap = pairs.shape[:2]
        ok = pairs[..., 0] ** 2 + pairs[..., 1] ** 2 <= 1.0
        kept = ok.cumsum(1)
        short = (kept[:, -1] < size).nonzero()[0]
        if not short.size:
            break
        more = np.zeros((m, cap, 2))  # a row's reads end at its size-th kept pair
        for i in short:
            more[i] = rngs[i].uniform(-1.0, 1.0, size=(cap, 2))
        pairs = np.concatenate([pairs, more], axis=1)
    # the slots rejected in a round queue up in column order for the next,
    # so the one rejected at column c reads column size + (pairs rejected
    # before c) = c + size - (pairs kept before c), whichever round it is
    at = np.arange(m * cap).reshape(m, cap)
    nxt = np.where(ok, at, at + size - kept)
    t = nxt[:, :size].ravel()
    nxt = nxt.ravel()
    # follow each slot's reads to the pair it keeps
    while not ((u := nxt[t]) == t).all():
        t = u
    w = pairs.reshape(-1, 2)[t]
    return (w[:, 0] + 1j * w[:, 1]).reshape(m, size)


def _philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_product_measure(n: int, s: float, K_max: float, seed) -> TrigPoly:
    """Draw f with f_k = w_k e^{-|k|_1 s}, w_k independent uniform on the disk.

    Every k in Z^n_* with |k|_1 <= K_max receives a coefficient, drawn in
    lexicographic mode order from a counter-based (Philox) generator, so the
    result is reproducible across platforms and chunkings.
    """
    modes = half_ball(n, K_max)
    w = _disks([_philox(seed)], len(modes))[0]
    scale = np.array([math.exp(-l * s) for l in range(int(math.floor(K_max)) + 1)])[np.abs(modes).sum(axis=1)]
    return TrigPoly(n, dict(zip(map(tuple, modes.tolist()), (w * scale).tolist())))


@dataclass
class GenericityEstimate:
    fraction_pass: float


def empirical_genericity(
    n: int,
    s: float,
    delta: float,
    trials: int,
    seed,
    window: tuple[float, float],
) -> GenericityEstimate:
    """Fraction of product-measure samples satisfying the lower bound at delta.

    The bound |f_k| >= delta |k|_1^{-n} e^{-|k|_1 s} reduces to
    |w_k| >= delta |k|_1^{-n} for the sampled disk variables, checked for
    the generators with |k|_1 in the window [lo, hi].  The window is given,
    not N(delta), because at the derived threshold failures are too rare to
    measure at desk scale.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    lo, hi = window
    gens = generators(n, hi, min_order=lo)
    if not gens:
        raise ConfigError("empty generator window")
    thresholds = np.array([delta * l1(k) ** (-n) for k in gens])

    streams = np.random.SeedSequence(seed).spawn(trials)
    n_pass = 0
    for i in range(0, trials, _BLOCK):
        W = _disks([_philox(ss) for ss in streams[i:i + _BLOCK]], len(gens))
        n_pass += int(np.count_nonzero(np.all(np.abs(W) >= thresholds, axis=1)))
    return GenericityEstimate(fraction_pass=n_pass / trials)
