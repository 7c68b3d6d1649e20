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

from .fourier import ConfigError, Mode, Record, TrigPoly, generators, half_ball, l1, lattice_projections, seed_sequence
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
class Failure(Record):
    k: Mode
    reason: str  # "lower-bound" | "morse" | "distinct-values"


@dataclass
class MembershipReport(Record):
    in_class: bool
    failures: list[Failure]
    window: tuple[float, float]
    delta: float
    beta: float
    n_checked_lower: int
    n_checked_morse: int
    proved_beyond_cutoff: bool
    margins: dict


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


def _spawn_keys(seed, count: int) -> np.ndarray:
    """The Philox keys of SeedSequence(seed).spawn(count), one uint64 pair a row.

    Row i is child i's generate_state(2, np.uint64): numpy's hashing and
    constants, in uint32 passes over i.  Child i mixes word i into each parent
    pool word, the hash constant resuming after the parent's 16 + 4 max(0, L - 4)
    hashes of its L entropy words; the 4 words are hashed out in little-endian
    pairs.  The first and last rows are checked against numpy's own.
    """
    ss, m = seed_sequence(seed), 1 << 32
    words = lambda x: (max(1, -(-int(x).bit_length() // 32)) if isinstance(x, (int, np.integer))
                       else sum(map(words, x)))
    a, b = 0x43B0D7E5 * pow(0x931E8875, 16 + 4 * max(0, words(ss.entropy) - 4), m) % m, 0x8B51F9DD
    i, out = np.arange(count, dtype=np.uint32), []
    for p in ss.pool.tolist():
        a, v = a * 0x931E8875 % m, i ^ np.uint32(a)  # hashmix(i) by INIT_A, MULT_A
        v *= np.uint32(a)
        v = np.uint32(0xCA01F9DD * p % m) - np.uint32(0x4973F715) * (v ^ v >> 16)  # mix(pool word, .)
        b, v = b * 0x58F38DED % m, v ^ v >> 16 ^ np.uint32(b)  # generate_state's hash, INIT_B, MULT_B
        v *= np.uint32(b)
        out.append((v ^ v >> 16).astype(np.uint64))
    keys = np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)
    for r in {0, count - 1}:
        if not np.array_equal(keys[r], np.random.SeedSequence(ss.entropy, spawn_key=(r,)).generate_state(2, np.uint64)):
            raise AssertionError("numpy's SeedSequence no longer hashes as _spawn_keys does")
    return keys


def _disks(keys: np.ndarray, size: int) -> np.ndarray:
    """Uniform samples on the closed unit disk, one row of `size` per Philox key.

    Row i is what rejection from the square draws from the stream of keys[i]
    (counter 0) round by round: every open slot, in slot order, reads its
    stream's next unread pair of uniform(-1, 1) draws and keeps x + 1j*y if
    x**2 + y**2 <= 1.  One Philox, reset to each key, draws about 4/pi x size
    pairs plus slack; a row that keeps fewer than `size` draws its stream again
    with twice the count and keeps the tail.  Then all rows are replayed at once.
    """
    bitgen = np.random.Philox(0)
    rng, zero = np.random.Generator(bitgen), np.zeros(4, np.uint64)

    def stream(i, count):  # the first `count` pairs of stream i
        bitgen.state = {"bit_generator": "Philox", "state": {"counter": zero, "key": keys[i]},
                        "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return rng.uniform(-1.0, 1.0, size=(count, 2))

    cap = int(4.0 / math.pi * size + 2.0 * math.sqrt(size)) + 2
    pairs = np.stack([stream(i, cap) for i in range(len(keys))])
    while True:
        m, cap = pairs.shape[:2]
        ok = pairs[..., 0] ** 2 + pairs[..., 1] ** 2 <= 1.0
        kept = ok.cumsum(1)
        short = (kept[:, -1] < size).nonzero()[0]
        if not short.size:
            break
        more = np.zeros((m, cap, 2))  # a row's reads end at its size-th kept pair
        for i in short:
            more[i] = stream(i, 2 * cap)[cap:]
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


def sample_product_measure(n: int, s: float, K_max: float, seed) -> TrigPoly:
    """Draw f with f_k = w_k e^{-|k|_1 s}, w_k independent uniform on the disk.

    Every k in Z^n_* with |k|_1 <= K_max receives a coefficient, drawn in
    lexicographic mode order from a counter-based (Philox) generator, so the
    result is reproducible across platforms and chunkings.
    """
    modes = half_ball(n, K_max)
    w = _disks(seed_sequence(seed).generate_state(2, np.uint64)[None], len(modes))[0]
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

    keys = _spawn_keys(seed, trials)
    n_pass = 0
    for i in range(0, trials, _BLOCK):
        W = _disks(keys[i:i + _BLOCK], len(gens))
        n_pass += int(np.count_nonzero(np.all(np.abs(W) >= thresholds, axis=1)))
    return GenericityEstimate(fraction_pass=n_pass / trials)
