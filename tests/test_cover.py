import math

import numpy as np
import pytest

from resoforge import cover
from resoforge.cover import (
    CutoffOrderError,
    OutsideDomainError,
    BatchClassification,
    _euclid,
    _sample_ball,
    ball_points,
    ball_volume,
    classify_batch,
    classify_point,
    derive_params,
    fit_measure_constant,
    free_params,
    measure_R2,
)


# --------------------------------------------------------------------------
# reference kernels: the row-major (m, n) versions of classify_batch,
# classify_point and _sample_ball, kept here to check the library's kernels
# --------------------------------------------------------------------------

def reference_classify_batch(Y, params):
    Y = np.asarray(Y, dtype=float)
    if np.any(np.linalg.norm(Y, axis=1) >= 1.0):
        raise OutsideDomainError("outside unit ball")
    gens0 = params.generators_K0
    G0 = np.array(gens0, dtype=float)
    P = np.abs(Y @ G0.T)
    is_r0 = np.all(P > params.alpha / 2.0, axis=1)
    is_r1 = np.zeros(len(Y), dtype=bool)
    is_r2 = np.zeros(len(Y), dtype=bool)
    GK = np.array(params.generators_K, dtype=float)
    for i, k in enumerate(gens0):
        near = P[:, i] < params.alpha
        if not np.any(near):
            continue
        kv = np.asarray(k, dtype=float)
        e_k = kv / _euclid(k)
        Yn = Y[near]
        Yperp = Yn - np.outer(Yn @ e_k, e_k)
        Q = np.abs(Yperp @ GK.T)
        mask_same = np.array([ell == k for ell in params.generators_K])
        Q[:, mask_same] = np.inf
        min_q = Q.min(axis=1)
        thr = params.r1_threshold(k)
        r1_here = min_q > thr
        idx = np.nonzero(near)[0]
        is_r1[idx[r1_here]] = True
        is_r2[idx[~r1_here]] = True
    covered = is_r0 | is_r1 | is_r2
    codes = np.where(is_r0, 0, np.where(is_r1, 1, 2)).astype(np.int8)
    return BatchClassification(covered, is_r0, is_r1, is_r2, codes)


def reference_classify_point(y, params, all_pairs=True):
    y = np.asarray(y, dtype=float)
    labels = []
    gens0 = params.generators_K0
    prods = np.array([float(np.dot(y, k)) for k in gens0])
    if np.all(np.abs(prods) > params.alpha / 2.0):
        labels.append(("R0", None, None))
    for i, k in enumerate(gens0):
        if abs(prods[i]) >= params.alpha:
            continue
        e_k = np.asarray(k, dtype=float) / _euclid(k)
        y_perp = y - np.dot(y, e_k) * e_k
        threshold = params.r1_threshold(k)
        witnesses = []
        for ell in params.generators_K:
            if ell == k:
                continue
            if abs(float(np.dot(y_perp, ell))) <= threshold:
                witnesses.append(ell)
                if not all_pairs:
                    break
        if witnesses:
            labels.extend(("R2", k, ell) for ell in witnesses)
        else:
            labels.append(("R1", k, None))
    return labels


def reference_sample_ball(rng, m, n):
    g = rng.standard_normal((m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, size=m) ** (1.0 / n)
    return g * radii[:, None]


def reference_sample_chunks(samples, seed, chunk):
    """The sampling chunks measure_R2 drew before ball_points: one Philox
    generator per chunk, spawned from SeedSequence(seed), and its size."""
    n_chunks = (samples + chunk - 1) // chunk
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    return [
        (np.random.Generator(np.random.Philox(ss)), min(chunk, samples - i * chunk))
        for i, ss in enumerate(streams)
    ]


def reference_ball_points(n, samples, seed, chunk):
    return [_sample_ball(rng, m, n) for rng, m in reference_sample_chunks(samples, seed, chunk)]


MASKS = ("covered", "is_r0", "is_r1", "is_r2", "codes")

# (alpha, K0, K) per dimension
KERNEL_PARAMS = {1: (0.05, 2, 5), 2: (0.05, 2, 5), 3: (0.03, 2, 4), 4: (0.03, 2, 3)}


def kernel_params(n, alpha=None):
    a, K0, K = KERNEL_PARAMS[n]
    return free_params(n, 1.0, alpha=a if alpha is None else alpha, K0=K0, K=K)


def assert_masks_match_reference(Y, params):
    got = classify_batch(Y, params)
    want = reference_classify_batch(Y, params)
    for name in MASKS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    return got


def philox(*seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed))))


def ulps(x):
    """x one ulp below, x, and x one ulp above."""
    return np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)


class TestParams:
    def test_paper_preset_example(self):
        p = derive_params(2, 1.0, 1e-4, 2, 12)
        assert p.nu == 11.0
        assert p.alpha == pytest.approx(0.01 * 12 ** 11)
        assert not p.alpha_reachable  # flagged numerically unreachable
        assert p.mode == "paper-preset"

    def test_preset_radii(self):
        p = derive_params(2, 1.0, 1e-4, 2, 12)
        assert p.r_o == pytest.approx(p.alpha / 32)
        assert p.s_o == pytest.approx(0.5)
        assert p.s_star == pytest.approx(1 - 1 / 12)
        assert p.r_k((2, 1)) == pytest.approx(p.alpha / math.sqrt(5))
        assert p.s_k_prime((1, 1)) == pytest.approx(2 * p.s_star_prime)

    def test_free_mode_passthrough(self):
        p = free_params(2, 1.0, 0.05, 2, 5)
        assert p.mode == "free" and p.alpha == 0.05
        assert p.alpha_reachable

    def test_boundary_cutoffs_accepted(self):
        p = derive_params(2, 1.0, 1e-8, 2, 12)  # K = 6 K0 exactly
        assert p.K == 12

    def test_cutoff_ordering_enforced(self):
        with pytest.raises(CutoffOrderError):
            derive_params(2, 1.0, 1e-4, 2, 11)
        with pytest.raises(CutoffOrderError):
            derive_params(2, 1.0, 1e-4, 1, 6)


class TestClassification:
    def setup_method(self):
        self.params = free_params(2, 1.0, alpha=0.05, K0=2, K=5)

    def test_origin_fully_resonant(self):
        labels = classify_point((0.0, 0.0), self.params)
        kinds = {lab.kind for lab in labels}
        assert kinds == {"R2"}
        # every (k, l) pair witnesses
        n_k = len(self.params.generators_K0)
        n_l = len(self.params.generators_K) - 1
        assert len(labels) == n_k * n_l

    def test_constructed_nonresonant_point(self):
        y = np.array([0.31, 0.47])
        prods = [abs(np.dot(y, k)) for k in self.params.generators_K0]
        assert min(prods) > self.params.alpha / 2
        labels = classify_point(y, self.params)
        assert any(lab.kind == "R0" for lab in labels)

    def test_outside_ball_rejected(self):
        with pytest.raises(OutsideDomainError, match="outside unit ball"):
            classify_point((0.8, 0.7), self.params)

    def test_labels_carry_their_nonresonance_bounds(self):
        # R0: |y.k| > alpha/2 for every order-K0 generator; R1_k: |y.l| >= 2 alpha K/|k|
        # for every order-K generator l off Z k (a multiple j l only scales |y.l| up)
        p, seen = self.params, {"R0": 0, "R1": 0}
        for y in _sample_ball(np.random.default_rng(3), 300, 2):
            for lab in classify_point(y, p, all_pairs=False):
                if lab.kind == "R0":
                    for k in p.generators_K0:
                        assert abs(float(np.dot(y, k))) > p.alpha / 2
                elif lab.kind == "R1":
                    for ell in p.generators_K:
                        if ell != lab.k:
                            assert abs(float(np.dot(y, ell))) >= 2 * p.alpha * p.K / _euclid(lab.k)
                seen[lab.kind] = seen.get(lab.kind, 0) + 1
        assert seen["R0"] > 0 and seen["R1"] > 0

    def test_exhaustiveness_sampled(self):
        rng = np.random.default_rng(0)
        Y = _sample_ball(rng, 50_000, 2)
        batch = classify_batch(Y, self.params)
        assert bool(batch.covered.all())

    def test_batch_matches_pointwise(self):
        for n, params in ((2, self.params), (3, free_params(3, 1.0, alpha=0.01, K0=2, K=4))):
            rng = np.random.default_rng(1)
            Y = _sample_ball(rng, 200, n)
            batch = classify_batch(Y, params)
            for i, y in enumerate(Y):
                labels = classify_point(y, params, all_pairs=False)
                kinds = {lab.kind for lab in labels}
                assert batch.is_r0[i] == ("R0" in kinds)
                assert batch.is_r1[i] == ("R1" in kinds)
                assert batch.is_r2[i] == ("R2" in kinds)
            assert batch.is_r1.any() and batch.is_r2.any()

    def test_three_dimensional_coverage(self):
        params = free_params(3, 1.0, alpha=0.03, K0=2, K=4)
        rng = np.random.default_rng(2)
        Y = _sample_ball(rng, 20_000, 3)
        assert bool(classify_batch(Y, params).covered.all())


# tails that keep every k in generators_K0 other than e_1 far from the
# alpha/2 and alpha gates, so only |y.e_1| = y_1 decides
GATE_TAILS = {2: (0.6,), 3: (0.5, 0.3), 4: (0.5, 0.3, 0.1)}
# (alpha, y_1, tail): y_1 < alpha puts the point near e_1; with P^perp y =
# (0, t, *tail) the minimum of |P^perp y . l| over l != e_1 is |t|, attained
# only by the l with l_2 = +-1 and no other nonzero entry past l_1, and the
# next value is at least twice the R1 threshold
R1_TAILS = {2: (0.05, 0.01, ()), 3: (0.01, 0.002, (0.6,)), 4: (0.01, 0.002, (0.5, 0.8))}


class TestBatchKernel:
    """The coordinate-major classify_batch and _sample_ball against the
    row-major references: every mask and every sample exactly equal."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_masks_match_reference_on_seeded_samples(self, n):
        seen = np.zeros(3, dtype=int)
        for alpha in (KERNEL_PARAMS[n][0], 0.01):
            params = kernel_params(n, alpha)
            for seed in range(3):
                Y = reference_sample_ball(philox(n, seed), 1 << 15, n)
                batch = assert_masks_match_reference(Y, params)
                assert batch.covered.all()
                seen += [batch.is_r0.sum(), batch.is_r1.sum(), batch.is_r2.sum()]
        assert (seen > 0).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_masks_match_reference_near_resonances(self, n):
        # points crowded into the resonance zones, where the R1/R2 split and
        # the R0 gate are decided
        params = kernel_params(n)
        rng = philox(7, n)
        Y = reference_sample_ball(rng, 1 << 13, n)
        k = np.array(params.generators_K0[-1], dtype=float)
        Y -= np.outer(Y @ k - rng.uniform(-params.alpha, params.alpha, len(Y)), k / (k @ k))
        Y = Y[np.linalg.norm(Y, axis=1) < 1.0]
        batch = assert_masks_match_reference(Y, params)
        assert batch.is_r1.any() or batch.is_r2.any()

    def test_alpha_zero_matches_reference(self):
        Y = reference_sample_ball(philox(3), 1 << 12, 2)
        Y[:10, 0] = 0.0  # on the resonance y.(1,0) = 0
        batch = assert_masks_match_reference(Y, kernel_params(2, 0.0))
        assert not batch.is_r0[:10].any() and not (batch.is_r1 | batch.is_r2).any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_r0_gate_at_one_ulp(self, n):
        params = kernel_params(n)
        Y = np.array([(t, *GATE_TAILS[n]) for t in ulps(params.alpha / 2.0)])
        Y = np.vstack([Y, -Y])
        batch = assert_masks_match_reference(Y, params)
        # |y.k| > alpha/2 is strict: the point at alpha/2 is not in R0
        assert batch.is_r0.tolist() == [False, False, True] * 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_gate_at_one_ulp(self, n):
        params = kernel_params(n)
        Y = np.array([(t, *GATE_TAILS[n]) for t in ulps(params.alpha)])
        batch = assert_masks_match_reference(Y, params)
        # only points with |y.k| < alpha (strict) are checked against R1_k
        assert (batch.is_r1 | batch.is_r2).tolist() == [True, False, False]
        assert batch.is_r0.all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_r1_threshold_at_one_ulp(self, n):
        alpha, y1, tail = R1_TAILS[n]
        params = kernel_params(n, alpha)
        e1 = (1,) + (0,) * (n - 1)
        thr = params.r1_threshold(e1)
        others, G = params.transverse_generators[e1]
        values = np.abs(G @ np.array((0.0, thr, *tail)))
        assert values.min() == thr and np.sort(values[values > thr])[0] >= 2.0 * thr
        Y = np.array([(y1, t, *tail) for t in ulps(thr)])
        batch = assert_masks_match_reference(Y, params)
        # the transverse gap min |P^perp y . l| > threshold is strict
        assert batch.is_r1.tolist() == [False, False, True]
        assert batch.is_r2.tolist() == [True, True, False]

    def test_ball_boundary_matches_reference(self):
        one_minus = np.nextafter(1.0, 0.0)
        rows = [(one_minus, 0.0), (0.0, -one_minus), (1.0, 0.0), (0.6, 0.8), (0.8, 0.6),
                (math.sqrt(0.5), math.sqrt(0.5)), (one_minus * math.sqrt(0.5),) * 2]
        for row in rows:
            Y = np.array([row])
            try:
                want = reference_classify_batch(Y, kernel_params(2))
            except OutsideDomainError:
                with pytest.raises(OutsideDomainError):
                    classify_batch(Y, kernel_params(2))
            else:
                got = classify_batch(Y, kernel_params(2))
                for name in MASKS:
                    assert np.array_equal(getattr(got, name), getattr(want, name))
        with pytest.raises(OutsideDomainError):
            classify_batch(np.array([[0.3, 0.3], [1.0, 0.0]]), kernel_params(2))
        classify_batch(np.array([[one_minus, 0.0]]), kernel_params(2))

    def test_empty_and_misshapen_batches(self):
        batch = assert_masks_match_reference(np.zeros((0, 2)), kernel_params(2))
        assert batch.codes.shape == (0,)
        with pytest.raises(ValueError):
            classify_batch(np.zeros((4, 3)), kernel_params(2))
        with pytest.raises(ValueError):
            classify_batch(np.zeros(2), kernel_params(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_sample_ball_bit_identical(self, n):
        for seed, m in ((0, 1), (1, 1000), (2, 1 << 16)):
            got = _sample_ball(philox(n, seed), m, n)
            want = reference_sample_ball(philox(n, seed), m, n)
            assert got.shape == want.shape == (m, n)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_sample_ball_is_coordinate_major(self, n):
        # classify_batch reads the transpose of sampled points without a copy
        Y = _sample_ball(philox(n, 5), 1000, n)
        assert Y.shape == (1000, n) and Y.T.flags.c_contiguous

    @pytest.mark.parametrize("n", [2, 3])
    def test_masks_match_reference_in_every_layout(self, n):
        # for coordinate-major input the kernel's Yt aliases the caller's
        # points, so its reused buffers must never be that memory
        params = kernel_params(n, 0.05 if n == 2 else 0.01)
        sampled = _sample_ball(philox(13, n), 1 << 13, n)
        rows = np.ascontiguousarray(sampled)
        for Y in (rows, sampled, rows[::2]):
            before = Y.tobytes()
            batch = assert_masks_match_reference(Y, params)
            assert Y.tobytes() == before
            assert batch.is_r0.any() and batch.is_r1.any() and batch.is_r2.any()

    @pytest.mark.parametrize("n", [2, 3])
    def test_point_labels_match_reference(self, n):
        params = kernel_params(n, 0.05 if n == 2 else 0.01)
        Y = np.vstack([np.zeros((1, n)), reference_sample_ball(philox(11, n), 300, n)])
        for y in Y:
            for all_pairs in (True, False):
                got = [(lab.kind, lab.k, lab.l)
                       for lab in classify_point(y, params, all_pairs=all_pairs)]
                assert got == reference_classify_point(y, params, all_pairs=all_pairs)


class TestBallPoints:
    """ball_points yields the points of the chunk layout measure_R2 used
    before it, bit for bit."""

    @staticmethod
    def assert_matches_reference(n, samples, seed, chunk):
        got = list(ball_points(n, samples, seed))
        want = reference_ball_points(n, samples, seed, chunk)
        assert [Y.shape for Y in got] == [Y.shape for Y in want]
        assert sum(len(Y) for Y in got) == samples
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("samples", [0, 1000, 65_536, 65_537, 200_000])
    def test_matches_chunk_reference(self, n, samples):
        self.assert_matches_reference(n, samples, 29 + n, 1 << 16)

    @pytest.mark.parametrize("samples", [999, 1000, 3000, 3500])
    def test_matches_chunk_reference_at_a_small_chunk(self, samples, monkeypatch):
        monkeypatch.setattr(cover, "_CHUNK", 1000)
        self.assert_matches_reference(2, samples, 6, 1000)

    def test_seed_picks_the_stream(self):
        a, b = next(ball_points(2, 10, 1)), next(ball_points(2, 10, 2))
        assert a.tobytes() == next(ball_points(2, 10, 1)).tobytes() != b.tobytes()


class TestMeasure:
    def test_alpha_scaling(self):
        pa = free_params(2, 1.0, alpha=0.04, K0=2, K=5)
        pb = free_params(2, 1.0, alpha=0.02, K0=2, K=5)
        ea = measure_R2(pa, 300_000, 1)
        eb = measure_R2(pb, 300_000, 2)
        ratio = ea.measure_any / eb.measure_any
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_degenerate_alpha_zero(self):
        p = free_params(2, 1.0, alpha=0.0, K0=2, K=5)
        est = measure_R2(p, 10_000, 3)
        assert est.measure_any == 0.0

    def test_envelope_constant(self):
        sets = [
            free_params(2, 1.0, alpha=a, K0=2, K=5) for a in (0.02, 0.04)
        ]
        ests = [measure_R2(p, 100_000, 5 + i) for i, p in enumerate(sets)]
        cbar = fit_measure_constant(ests)
        for est in ests:
            bound = cbar * est.params.alpha ** 2 * est.params.K ** 4
            assert est.measure_any <= bound + 1e-12

    def test_deterministic_given_seed(self):
        p = free_params(2, 1.0, alpha=0.03, K0=2, K=5)
        a = measure_R2(p, 50_000, 11)
        b = measure_R2(p, 50_000, 11)
        assert a.measure_any == b.measure_any
        assert a.measure_only == b.measure_only

    def test_counts_the_points_of_ball_points(self, monkeypatch):
        monkeypatch.setattr(cover, "_CHUNK", 1000)
        p = free_params(2, 1.0, alpha=0.03, K0=2, K=5)
        batches = [classify_batch(Y, p) for Y in reference_ball_points(2, 3500, 13, 1000)]
        est = measure_R2(p, 3500, 13)
        assert est.fraction_any == sum(int(b.is_r2.sum()) for b in batches) / 3500
        assert est.fraction_only == sum(
            int((b.is_r2 & ~b.is_r0 & ~b.is_r1).sum()) for b in batches
        ) / 3500

    def test_sample_floor(self):
        p = free_params(2, 1.0, alpha=0.03, K0=2, K=5)
        with pytest.raises(ValueError):
            measure_R2(p, 100, 1)

    def test_ball_volume(self):
        assert ball_volume(2) == pytest.approx(math.pi)
        assert ball_volume(3) == pytest.approx(4 * math.pi / 3)
