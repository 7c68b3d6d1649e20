import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from resoforge.fourier import (
    ConfigError,
    OneDTrigPoly,
    TrigPoly,
    generators,
    lacunary_potential,
    lattice_projections,
    project_lattice,
    trig_values,
)
from resoforge import morse
from resoforge.genericity import sample_product_measure, threshold_N
from resoforge.morse import (
    _bernstein as bernstein,
    _exact_zeros as exact_zeros,
    _polish,
    _roots01 as roots01,
    _squarefree as squarefree,
    c2_distances_to_cosine,
    cosine_certificate,
    critical_points,
    critical_points_many,
)
from reference import TWO_PI, close_pair_family, close_pairs, derivative, per_order_values_on_grid, reference_values_on_grid

EPS = float(np.finfo(float).eps)
GRID_SIZE = 1 << 14  # the grid of the reference census below


def critical_values(F, rep):
    """F at the census's critical points, in their order."""
    return F.evaluate(rep.critical_points)


def alternates(F, rep):
    """Maxima and minima of a census alternate around the circle."""
    v = critical_values(F, rep)
    if len(v) < 2 or len(v) % 2 != 0:
        return False
    signs = np.sign(np.diff(np.concatenate([v, v[:1]])))
    return bool(np.all(signs[:-1] * signs[1:] < 0))


def count_bound(F, rep):
    """pi sqrt(2 max|F''| / beta): at most this many critical points when beta > 0;
    max|F''| from a 2^16-point grid, where it is within 1e-8 relative."""
    return math.pi * math.sqrt(2.0 * float(np.max(np.abs(reference_values_on_grid(F, 1 << 16, 2)))) / rep.beta)


def brute_force_critical_count(F, m=1 << 16):
    """Independent oracle: sign changes of F' on a fine grid, evaluated by
    direct summation so it shares no code with the census's trig_values."""
    vals = reference_values_on_grid(F, m, order=1)
    return int(np.count_nonzero(vals * np.roll(vals, -1) < 0) +
               np.count_nonzero(vals == 0.0))


class TestCriticalPoints:
    def test_two_cosine(self):
        F = OneDTrigPoly.from_cosine(2.0)
        rep = critical_points(F)
        assert np.allclose(sorted(rep.critical_points), [0.0, math.pi], atol=1e-10)
        assert np.allclose(sorted(critical_values(F, rep)), [-2.0, 2.0], atol=1e-12)
        assert rep.beta == pytest.approx(2.0, abs=1e-9)

    def test_sine(self):
        F = OneDTrigPoly({1: 0.5 / 1j})  # sin theta
        rep = critical_points(F)
        assert np.allclose(sorted(rep.critical_points),
                           [math.pi / 2, 3 * math.pi / 2], atol=1e-10)
        assert np.allclose(sorted(critical_values(F, rep)), [-1.0, 1.0], atol=1e-12)
        assert rep.beta == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_cosine_count_matches_oracle(self):
        F = OneDTrigPoly({1: 0.5, 2: 0.05})  # cos + 0.1 cos 2theta
        rep = critical_points(F)
        assert rep.count == brute_force_critical_count(F) == 2

    def test_multi_well_count_matches_oracle(self):
        F = OneDTrigPoly({1: 0.5, 3: 0.4})
        rep = critical_points(F)
        assert rep.count == brute_force_critical_count(F)

    def test_constant_function_raises(self):
        with pytest.raises(ConfigError, match="constant function"):
            critical_points(OneDTrigPoly({}))

    @pytest.mark.parametrize("value", [math.nan, complex(0.5, -math.inf)], ids=["nan", "im_inf"])
    def test_non_finite_coefficient_is_refused(self, value):
        # a NaN mode used to reach the census, which called F "constant function"
        with pytest.raises(ConfigError, match=re.escape(f"mode 2 needs a finite re and im, got {complex(value)}")):
            critical_points(OneDTrigPoly({1: 1.0, 2: value}))

    def test_even_count_and_alternation(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            coeffs = {j: 0.3 * complex(rng.normal(), rng.normal())
                      for j in range(1, 5) if rng.uniform() < 0.8}
            if not coeffs:
                continue
            F = OneDTrigPoly(coeffs)
            rep = critical_points(F)
            assert rep.count % 2 == 0
            assert alternates(F, rep)

    def test_count_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            coeffs = {j: 0.4 * complex(rng.normal(), rng.normal())
                      for j in range(1, 6) if rng.uniform() < 0.7}
            if not coeffs:
                continue
            F = OneDTrigPoly(coeffs)
            rep = critical_points(F)
            if rep.beta > 1e-6:
                assert rep.count <= count_bound(F, rep) + 1e-9

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        F = OneDTrigPoly({1: 0.5, 2: 0.07 + 0.02j, 3: 0.03})
        base = critical_points(F)
        for _ in range(10):
            shift = rng.uniform(0, TWO_PI)
            shifted = critical_points(F.shifted(shift))
            expected = np.sort((base.critical_points - shift) % TWO_PI)
            assert np.allclose(np.sort(shifted.critical_points), expected, atol=1e-10)

    def test_scaling_tiny_amplitudes(self):
        # the rounding floor scales with the coefficients, so rescaled inputs
        # behave identically
        rep = critical_points(OneDTrigPoly.from_cosine(2e-25))
        assert rep.beta == pytest.approx(2e-25, rel=1e-9)
        assert rep.count == 2

    def test_min_grad_plus_hess_not_above_a_finer_grid(self):
        # two basins of |F'| + |F''| nearly tie; refining the grid argmin
        # within one cell lands in the wrong one and overstates the minimum
        F = project_lattice(sample_product_measure(2, 8.0, 17.353691669127937, [101, 8, 12]),
                            (0, 1))
        assert max(F.coeffs) == 17
        # |F'| + |F''| by direct summation on 2^20 points, in chunks
        js = np.array(sorted(F.coeffs), dtype=float)
        d1 = np.array([F.coeffs[int(j)] for j in js]) * (1j * js)
        fine = math.inf
        for theta in np.split(np.arange(1 << 20) * (TWO_PI / (1 << 20)), 16):
            e = np.exp(1j * np.outer(js, theta))
            g = np.abs(2.0 * (d1 @ e).real) + np.abs(2.0 * ((d1 * 1j * js) @ e).real)
            fine = min(fine, float(np.min(g)))
        assert fine == pytest.approx(2.5048690e-4, rel=1e-7)
        # beta = min(min(|F'| + |F''|), value gap), and the gap is larger
        rep = critical_points(F)
        assert np.diff(np.sort(critical_values(F, rep))).min() > fine
        assert rep.beta <= fine


def mp_critical_count(F, centre, halfwidth=1e-4, coarse=1 << 10, fine=2001):
    """Independent oracle for the stored coefficients: sign changes and exact
    zeros of F' at 400-bit precision, on a uniform grid of the circle merged
    with a fine grid of spacing 1e-7 over centre +- halfwidth."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(400):
        terms = [(j, mpmath.mpf(c.real), mpmath.mpf(c.imag)) for j, c in F.coeffs.items()]
        window = [(centre + halfwidth * (2.0 * k / (fine - 1) - 1.0)) % TWO_PI for k in range(fine)]
        nodes = sorted({2 * mpmath.pi * i / coarse for i in range(coarse)}
                       | {mpmath.mpf(t) for t in window})
        # F' = -2 sum_j j (Re c_j sin jt + Im c_j cos jt)
        signs = [mpmath.sign(sum(j * (a * mpmath.sin(j * t) + b * mpmath.cos(j * t))
                                 for j, a, b in terms)) for t in nodes]
    return sum(1 for s, s_next in zip(signs, signs[1:] + signs[:1]) if s * s_next < 0 or s == 0)


class TestCloseCriticalPoints:
    """Close critical points: the census counts the zeros of F' exactly, also
    three of them inside one cell of the 2^14-point grid (3.8e-4) that an
    earlier census counted as one.

    Below a separation of about 1e-5 the rounded phases of the shifted family
    leave its stored coefficients with two critical points only; the
    unshifted family has real coefficients, so F'(0) = 0 exactly and the
    stored polynomial keeps all four."""

    @pytest.mark.parametrize("sep", [1.0, 1e-1, 1e-2, 1e-3])
    def test_four_points_above_the_grid_cell(self, sep):
        F = close_pair_family(sep)
        assert critical_points(F).count == brute_force_critical_count(F) == 4

    @pytest.mark.parametrize("sep, shift", [(1e-4, 0.4), (1e-6, 0.0)])
    def test_four_points_below_the_grid_cell(self, sep, shift):
        assert critical_points(close_pair_family(sep, shift=shift)).count == 4

    @pytest.mark.parametrize("sep, shift", [(1e-4, 0.4), (1e-6, 0.0)])
    def test_stored_polynomial_of_each_witness_has_four(self, sep, shift):
        assert mp_critical_count(close_pair_family(sep, shift=shift), -shift % TWO_PI) == 4

    @pytest.mark.parametrize("sep", [1e-5, 1e-6])
    def test_census_matches_stored_count_below_the_grid_cell(self, sep):
        F = close_pair_family(sep)
        assert critical_points(F).count == mp_critical_count(F, -0.4 % TWO_PI) == 2

    @pytest.mark.parametrize("sep", [1e-4, 3e-5, 2e-5, 1e-5])
    def test_points_sit_on_zeros_of_the_derivative(self, sep):
        # polished inside its cell, each point is a zero of F' to rounding
        # and lies in the cluster; it is not a point where F' is merely small
        shift = 0.4
        F = close_pair_family(sep, shift=shift)
        d1 = derivative(F, 1)
        scale = sum(j * abs(c) for j, c in F.coeffs.items())
        roots = np.array([0.0, math.pi, sep / 2.0, -sep / 2.0]) - shift
        for t in critical_points(F).critical_points:
            assert abs(d1.evaluate(t).real) <= 1e-14 * scale
            assert np.min(np.abs((t - roots + math.pi) % TWO_PI - math.pi)) <= 1e-5


def derivative_rows(F, orders):
    """(js, rows): row k holds the coefficients c_j (ij)^orders[k] of F^(orders[k])."""
    js = np.fromiter(F.coeffs, dtype=float, count=len(F.coeffs))
    c = np.fromiter(F.coeffs.values(), dtype=complex, count=len(js))
    return js, np.stack([c * (1j * js) ** k for k in orders])


def reference_critical_points(F):
    """The per-polynomial census: F' and F'' from two per-order grids, the
    cells picked with np.roll, and one _polish call for F's brackets alone."""
    m, h = GRID_SIZE, TWO_PI / GRID_SIZE
    f1, f2 = (per_order_values_on_grid(F, m, order=k) for k in (1, 2))
    a1, a2 = np.abs(f1), np.abs(f2)
    if float(np.max(a1)) < 1e-300:
        raise ConfigError("constant function")
    js, rows = derivative_rows(F, range(4))
    c2, c3 = rows[2], rows[3]
    lip2, lip3 = h * np.abs(c2).sum(), h * np.abs(c3).sum()
    gph = a1 + a2
    gph_min = float(np.min(gph))
    f1_next = np.roll(f1, -1)
    cells = np.flatnonzero((f1 * f1_next <= 0)
                           | (np.minimum(gph, np.roll(gph, -1)) <= gph_min + lip2 + lip3)
                           | (np.maximum(a2, np.roll(a2, -1)) >= np.max(a2) - lip3))
    d2, d3 = trig_values(rows[2:], js, np.r_[cells, cells + 1][:, None] * h).T
    v_lo = np.stack([f1[cells], d2[:len(cells)], (d2 + d3)[:len(cells)],
                     (d2 - d3)[:len(cells)], d3[:len(cells)]])
    v_hi = np.stack([f1_next[cells], d2[len(cells):], (d2 + d3)[len(cells):],
                     (d2 - d3)[len(cells):], d3[len(cells):]])
    C = np.stack([rows[1], c2, c2 + c3, c2 - c3, c3])
    zero = v_lo == 0.0
    change = (np.signbit(v_lo) != np.signbit(v_hi)) & ~(zero | (v_hi == 0.0))
    row, k = np.divmod(np.flatnonzero(change | zero), len(cells))
    on_node = zero[row, k]
    hi = v_hi[row, k]
    lo = np.where(on_node, -hi, v_lo[row, k])
    t = _polish(C[row, None] * (1j * js) ** np.arange(3.0)[:, None], js, (cells[k] - on_node) * h,
                (cells[k] + 1) * h, lo, hi) % TWO_PI
    at = trig_values(rows[:3], js, t[:, None])
    crit = np.flatnonzero(row == 0)[np.argsort(t[row == 0])]
    pts, vals = t[crit], at[crit, 0]
    kinks = np.abs(at[row <= 3, 1:]).sum(axis=1)
    z, g = t[row == 4], at[row == 4, 2]
    i = (z // h).astype(int) % m
    pair = (np.sign(g) == -np.sign(f2[i])) & (np.sign(f2[i]) == np.sign(f2[(i + 1) % m]))
    if pair.any():
        z, g, i = z[pair], g[pair], i[pair]
        tz = _polish(np.broadcast_to(derivative_rows(F, (2, 3, 4))[1], (2 * len(z), 3, len(js))), js,
                     np.r_[i * h, z], np.r_[z, (i + 1) * h], np.r_[f2[i], g], np.r_[g, f2[(i + 1) % m]])
        kinks = np.r_[kinks, np.abs(trig_values(rows[1:3], js, tz[:, None])).sum(axis=1)]
    min_gph = min(gph_min, float(np.min(kinks, initial=math.inf)))
    min_gap = float(np.min(np.diff(np.sort(vals)), initial=math.inf))
    value_scale = float(np.max(np.abs(vals), initial=0.0))
    return ReferenceReport(pts, vals, min(min_gph, min_gap), min_gap,
                           bool(min_gap > 1e-9 * max(value_scale, 1e-300)))


@dataclass
class ReferenceReport:
    """The reference census's report: a MorseReport with its critical values
    and their smallest gap."""

    critical_points: np.ndarray
    critical_values: np.ndarray
    beta: float
    min_value_gap: float
    distinct_values: bool

    @property
    def count(self) -> int:
        return len(self.critical_points)


def report_bytes(rep):
    """Every MorseReport field, the floats as their bytes; None stays None."""
    if rep is None:
        return None
    return (rep.critical_points.tobytes(), np.float64(rep.beta).tobytes(),
            rep.distinct_values, type(rep.beta), type(rep.distinct_values))


def circular_gaps(ts, zeros):
    """For each t, the distance on the circle to the nearest of zeros."""
    d = np.abs(np.subtract.outer(np.asarray(ts), np.asarray(zeros)))
    return np.minimum(d, TWO_PI - d).min(axis=1, initial=math.inf)


# The census against the grid census it replaced (reference_critical_points),
# where both count alike.  Measured on the 480 polynomials of the tests below
# that both count alike: points within 8.9e-16 where that width is below
# 1e-15, and the other fields within 1.4e-15 of their scales S_k = 2 sum_j
# j^k |c_j| (beta: S_1 + S_2; the critical values, F at the census's points,
# and their gap: S_0).  A zero of F' is only fixed to
# the width 16 eps S_1 / |F''| in which |F'| is below its rounding error, and
# near close pairs both censuses stop anywhere in it (at most 0.17 of it).
REFERENCE_TOL = 1e-14


def assert_matches_reference(F, rep):
    """rep is the census of F: it matches the grid reference within
    REFERENCE_TOL, or, where they count differently, the 400-bit zeros of F'
    side with the census."""
    try:
        ref = reference_critical_points(F)
    except ConfigError:
        assert rep is None
        return
    if rep.count != ref.count:
        zeros = mp_zeros(derivative(F, 1))
        assert rep.count == len(zeros) != ref.count
        return
    js = np.array(list(F.coeffs), dtype=float)
    S0, S1, S2 = (2.0 * np.sum(js ** k * np.abs(list(F.coeffs.values()))) for k in range(3))
    f2 = np.abs([derivative(F, 2).evaluate(t).real for t in ref.critical_points])
    width = REFERENCE_TOL + 16 * np.finfo(float).eps * S1 / f2
    assert np.all(circular_gaps(ref.critical_points, rep.critical_points) <= width)
    assert abs(rep.beta - ref.beta) <= REFERENCE_TOL * (S1 + S2)
    values = np.sort(critical_values(F, rep))
    assert np.all(np.abs(values - np.sort(ref.critical_values)) <= REFERENCE_TOL * S0)
    if rep.count > 1:
        assert abs(np.diff(values).min() - ref.min_value_gap) <= REFERENCE_TOL * S0
    assert rep.distinct_values == ref.distinct_values


def pi_cluster(sep):
    """F = -cos u - (a/4) cos 2u, a = 1/cos(sep/2): F' = sin u (1 + a cos u) has
    real coefficients, so F'(pi) = 0 exactly, with two zeros sep/2 from it."""
    return OneDTrigPoly({1: -0.5, 2: -0.125 / math.cos(sep / 2.0)})


# F' = 3 sin u (cos u -+ 1/2)^2, from dyadic coefficients: double zeros of F'
# inside two quarters of the exact path, and simple ones at 0 and pi
DOUBLE_ZEROS = [
    ({1: -0.75, 2: 0.375, 3: -0.125}, (0.0, math.pi / 3, math.pi, 5 * math.pi / 3)),
    ({1: -0.75, 2: -0.375, 3: -0.125}, (0.0, 2 * math.pi / 3, math.pi, 4 * math.pi / 3)),
]
# F' = (1 + cos u)(cos u - 1/2): a double zero at pi, where two quarters meet
SEAM_DOUBLE_ZERO = ({1: -0.25j, 2: -0.125j}, (math.pi / 3, math.pi, 5 * math.pi / 3))


def mixed_batch(seed):
    """Degrees 1-22 with the same modes in several insertion orders, tiny
    amplitudes, close pairs (around 0 and around pi), double zeros and two
    constant polynomials, shuffled."""
    rng = np.random.default_rng(seed)
    Fs = []
    for degree in range(1, 23):
        modes = [j for j in range(1, degree + 1) if j == degree or rng.uniform() < 0.6]
        for scale in (1.0, 1e-25):
            coeffs = {j: scale * complex(rng.normal(), rng.normal()) * 0.7 ** j for j in modes}
            for order in (modes, modes[::-1], list(rng.permutation(modes))):
                Fs.append(OneDTrigPoly({int(j): coeffs[j] for j in order}))
    for sep in (1.0, 1e-2, 1e-4, 1e-6):
        Fs += [close_pair_family(sep, shift=shift) for shift in (0.0, 0.4, 2.5)]
        Fs += [pi_cluster(sep), close_pair_family(sep, amplitude=1e-25, shift=1.0)]
    Fs += [OneDTrigPoly(coeffs) for coeffs, _ in DOUBLE_ZEROS + [SEAM_DOUBLE_ZERO]]
    Fs += [OneDTrigPoly({}), OneDTrigPoly({3: 1e-310})]
    return [Fs[i] for i in rng.permutation(len(Fs))]


@pytest.fixture
def exact_calls(monkeypatch):
    """The rows that go to the exact integer path, counted."""
    calls = []

    def spy(c, js, cells, n):
        calls.append(len(cells))
        return exact_zeros(c, js, cells, n)

    monkeypatch.setattr(morse, "_exact_zeros", spy)
    return calls


class TestCensusBatch:
    """critical_points_many finds the zeros of all F with the same modes in
    the same order in one call; each report must be the one F gets alone,
    bit for bit, and match the grid census it replaced."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_reports_equal_lone_reports(self, seed, exact_calls):
        Fs = mixed_batch(seed)
        assert len({tuple(F.coeffs) for F in Fs}) < len(Fs)  # groups of several F
        got = critical_points_many(Fs)
        assert exact_calls  # some rows went to the exact path inside the batch
        for F, rep in zip(Fs, got):
            if rep is None:
                with pytest.raises(ConfigError):
                    critical_points(F)
            else:
                assert report_bytes(rep) == report_bytes(critical_points(F))

    def test_capped_rows_equal_lone_reports(self, exact_calls):
        # sub-resolution clusters at degree 22 reach the exact path through the
        # live-cell cap of their own rows, next to a row of the same modes that
        # the float stage settles
        Fs = [OneDTrigPoly({11: 0.5, 22: -0.125 / math.cos(sep / 2)}) for sep in (1e-6, 1e-5)]
        Fs.append(OneDTrigPoly({11: 0.5, 22: 0.1}))
        got = critical_points_many(Fs)
        assert exact_calls and [rep.count for rep in got] == [44, 44, 22]
        for F, rep in zip(Fs, got):
            assert report_bytes(rep) == report_bytes(critical_points(F))

    def test_lone_reports_equal_reference(self):
        # a double zero stalls the 400-bit roots: there the zeros are known
        known = {tuple(coeffs.items()): zeros for coeffs, zeros in DOUBLE_ZEROS + [SEAM_DOUBLE_ZERO]}
        for F in mixed_batch(2):
            rep = critical_points_many([F])[0]
            if (zeros := known.get(tuple(F.coeffs.items()))) is not None:
                assert rep.count == len(zeros)
                assert np.all(circular_gaps(rep.critical_points, zeros) <= 1e-12)
            else:
                assert_matches_reference(F, rep)

    @pytest.mark.parametrize("s, pools", [(5, (0,)), (6, (0, 1)), (8, (0, 1, 2))])
    def test_certify_pool_projections_equal_reference(self, s, pools):
        # the low-mode projections of the benchmark's membership pools:
        # delta 0.1, window [N, N + 10], pool seed [101, s, i]
        N = threshold_N(2, float(s), 0.1)
        gens = generators(2, N)
        for i in pools:
            f = sample_product_measure(2, float(s), N + 10.0, [101, s, i])
            Fs = lattice_projections(f, gens)
            for F, rep in zip(Fs, critical_points_many(Fs)):
                assert_matches_reference(F, rep)

    @pytest.mark.parametrize("shift", [0.25, 0.5, 0.75])
    def test_zero_in_the_last_grid_cell(self, shift):
        # a critical point in (2pi - h, 2pi), h = 2pi / 2^14, a cell of the old grid
        h = TWO_PI / GRID_SIZE
        Fs = [OneDTrigPoly.from_cosine(a, shift * h) for a in (1.0, -2.0)]
        for F, rep in zip(Fs, critical_points_many(Fs)):
            assert rep.count == 2
            assert np.allclose(rep.critical_points, [math.pi - shift * h, TWO_PI - shift * h],
                               rtol=0, atol=1e-12)
            assert_matches_reference(F, rep)
        # each critical point of a generic F in turn, where |F''| is not extreme
        F = OneDTrigPoly({1: 0.5 - 0.2j, 2: 0.3j, 3: -0.15 + 0.1j, 4: 0.05})
        base = critical_points(F)
        Gs = [F.shifted(c - TWO_PI + shift * h) for c in base.critical_points]
        for G, rep in zip(Gs, critical_points_many(Gs)):
            assert rep.count == base.count
            assert_matches_reference(G, rep)

    def test_zeros_on_grid_nodes_equal_reference(self):
        # dyadic cosine and sine series: derivatives vanish exactly at nodes of
        # the old grid, where its brackets came from a zero at a cell's left end
        Fs = [OneDTrigPoly({4: 1j}), OneDTrigPoly({4: -0.125 - 0.125j}),
              OneDTrigPoly({1: 0.125j, 3: 2j, 5: 0.25j}),
              OneDTrigPoly({2: -0.25, 3: -0.5, 4: -0.5, 5: 0.5}),
              OneDTrigPoly({1: 3.0, 3: -2.0, 4: 0.5, 5: 0.0625})]
        for F, rep in zip(Fs, critical_points_many(Fs)):
            assert_matches_reference(F, rep)

    def test_level_0_takes_each_cell_angle_once(self, monkeypatch):
        # eight F of the same modes give _zeros 32 rows on max(32, 4 deg) = 32
        # cells; the first evaluation takes the 32 cell angles, not 32 x 32
        rng = np.random.default_rng(45)
        Fs = [OneDTrigPoly({j: complex(rng.normal(), rng.normal()) for j in (1, 2, 3)}) for _ in range(8)]
        angles = []
        monkeypatch.setattr(morse, "trig_values", lambda C, js, t: angles.append(np.size(t)) or trig_values(C, js, t))
        got = critical_points_many(Fs)
        assert angles[0] == 32
        monkeypatch.undo()
        for F, rep in zip(Fs, got):
            assert report_bytes(rep) == report_bytes(critical_points(F))

    def test_constant_entries_are_none_between_others(self):
        F, G = OneDTrigPoly({1: 0.5, 3: 0.2}), OneDTrigPoly({1: 0.5, 3: 0.3})
        tiny = OneDTrigPoly({1: 1e-310, 3: 1e-311})  # sum_j j |c_j| < 1e-300
        got = critical_points_many([F, tiny, OneDTrigPoly({}), G])
        assert got[1] is None and got[2] is None
        assert report_bytes(got[0]) == report_bytes(critical_points(F))
        assert report_bytes(got[3]) == report_bytes(critical_points(G))
        with pytest.raises(ConfigError, match="constant function"):
            critical_points(tiny)
        assert critical_points_many([]) == []


def mp_zeros(P):
    """The zeros on the circle of P = 2 Re sum_j c_j e^{iju}: the arguments of
    the roots of z^d P(z) at 400 bits (mpmath.polyroots) of modulus 1; a root
    off the circle comes with its mirror 1 / conj(z)."""
    mpmath = pytest.importorskip("mpmath")
    d = max(P.coeffs)
    with mpmath.workprec(400):
        coeffs = [mpmath.mpc(0)] * (2 * d + 1)
        for j, c in P.coeffs.items():
            coeffs[d + j] += mpmath.mpc(c.real, c.imag)
            coeffs[d - j] += mpmath.mpc(c.real, -c.imag)
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=100, extraprec=50)
        return sorted(float(mpmath.arg(z)) % TWO_PI for z in roots
                      if abs(abs(z) - 1) < mpmath.mpf(2) ** -100)


class TestExactCount:
    """The counts of the census against 400-bit roots: close pairs far below
    what doubles can resolve go to the exact integer path."""

    def test_close_pairs_match_400_bit_roots(self, exact_calls):
        rng = np.random.default_rng(16)
        for _ in range(300):
            sep = 10.0 ** rng.uniform(-6.0, 0.0)
            F = close_pair_family(sep, amplitude=rng.uniform(0.5, 2.0), shift=rng.uniform(0.0, TWO_PI))
            zeros = mp_zeros(derivative(F, 1))
            rep = critical_points(F)
            assert rep.count == len(zeros), sep
            # each point within the width where |F'| is below its rounding error
            f2 = np.abs([derivative(F, 2).evaluate(z).real for z in zeros])
            assert np.all(circular_gaps(zeros, rep.critical_points) <= 1e-14 + 4e-14 / f2), sep
        assert len(exact_calls) > 100

    @pytest.mark.parametrize("sep", [1e-2, 1e-4, 1e-6])
    def test_cluster_at_pi(self, sep, exact_calls):
        # pi is where two quarters of the exact path meet: its zero counts once
        F = pi_cluster(sep)
        rep, zeros = critical_points(F), mp_zeros(derivative(F, 1))
        assert rep.count == len(zeros) == 4
        assert np.min(np.abs(rep.critical_points - math.pi)) <= 1e-15
        f2 = np.abs([derivative(F, 2).evaluate(z).real for z in zeros])
        assert np.all(circular_gaps(zeros, rep.critical_points) <= 1e-14 + 4e-14 / f2)
        assert exact_calls

    def test_sub_resolution_clusters_at_high_degree(self, exact_calls):
        # F(t) = G(11 t), G the unshifted close pair at sep 1e-6: eleven clusters
        # of four zeros of F' that doubles cannot resolve.  Past degree 4 the
        # float stage may split for 40 levels; the live-cell cap of each row
        # sends such a region to the exact path long before its cells pile up
        F = OneDTrigPoly({11: 0.5, 22: -0.125 / math.cos(5e-7)})
        assert critical_points(F).count == 44
        assert 0 < max(exact_calls) <= 16 * 23

    def test_zero_on_a_cut(self):
        # P = (3 sin t - 4 cos t)(15 sin t - 8 cos t)(-cos t), every cell live:
        # each quarter goes whole to Descartes bisection, and its first cut
        # x = 1/2 is t = 2 atan(1/2), a zero; the other at x = 1/4, and pi/2
        zeros = exact_zeros(np.array([-17.625 - 10.5j, 1.625 - 10.5j]), np.array([1.0, 3.0]),
                            list(range(32)), 32)
        want = [2 * math.atan(x) + q for q in (0.0, math.pi) for x in (0.25, 0.5)]
        assert np.allclose(np.sort(np.mod(zeros, TWO_PI)), np.sort(want + [math.pi / 2, 3 * math.pi / 2]),
                           rtol=0, atol=1e-15)

    def test_refinement_beside_a_zero_at_the_end(self):
        # (y - 1)(2^30 y - 2^30 + 1): a zero 2^-30 from the one at the end of
        # the interval, which the rounded coefficients misplace by about 5e-10
        b = bernstein([2 ** 30 - 1, -(2 ** 31 - 1), 2 ** 30], 0.0, 1.0)
        assert roots01(b, 64) == [1.0 - 2.0 ** -30]

    @pytest.mark.parametrize("coeffs, zeros", DOUBLE_ZEROS)
    def test_double_zero_counts_once(self, coeffs, zeros, monkeypatch):
        # Descartes bisection ends at a double zero only on the squarefree part
        calls = []
        monkeypatch.setattr(morse, "_squarefree", lambda Q: calls.append(Q) or squarefree(Q))
        rep = critical_points(OneDTrigPoly(coeffs))
        assert calls
        assert rep.count == 4
        assert np.all(circular_gaps(rep.critical_points, zeros) <= 1e-12)
        assert rep.beta <= 1e-15


def reference_polish(rows, js, lo, hi, v_lo, v_hi):
    """_polish with every evaluation on all three rows: the stopping test
    reads |P| and the step after each full evaluation.  _polish, which may
    stop on the value row alone, must return the same t byte for byte."""
    t = lo + (hi - lo) * v_lo / (v_lo - v_hi)
    floor, ulp, neg = 4.0 * EPS * np.abs(rows[:, 0]).sum(axis=1), math.ulp(TWO_PI), v_lo < 0
    adx = adx_old = hi - lo
    live = np.ones(len(t), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            p, dp, d2p = trig_values(rows, js, t[:, None]).T
            step = (p2 := 2.0 * p) / (dp + np.copysign(np.sqrt(np.maximum(dp * dp - p2 * d2p, 0.0)), dp))
            size = np.abs(step)
            live &= (np.abs(p) > floor) & (size >= ulp)
            if not np.count_nonzero(live):
                return t
            lo_side = (p < 0) == neg
            lo, hi = np.where(lo_side, t, lo), np.where(lo_side, hi, t)
            t_new = t - step
            keep = (t_new >= lo) & (t_new <= hi) & (size + size <= adx_old)
            t_new = np.where(keep, t_new, 0.5 * (lo + hi))
            adx_old, adx = adx, np.abs(t_new - t)
            t = np.where(live, t_new, t)
            live &= adx >= ulp


@pytest.fixture
def polish_calls(monkeypatch):
    """The arguments of every _polish call, which _polish leaves as they are."""
    calls = []
    monkeypatch.setattr(morse, "_polish", lambda *args: calls.append(args) or _polish(*args))
    return calls


class TestPolish:
    """_polish confirms on the value row alone from its third evaluation on;
    every t must be the one of the loop that evaluates all three rows."""

    def test_close_pairs_equal_reference(self, polish_calls):
        for F in close_pairs(300, 45):
            critical_points(F)
        assert len(polish_calls) == 300
        for args in polish_calls:
            assert _polish(*args).tobytes() == reference_polish(*args).tobytes()

    def test_membership_pool_equals_reference(self, polish_calls):
        # a membership pool of the benchmark's certify workload: s = 5, delta 0.1, seed [101, 5, 0]
        N = threshold_N(2, 5.0, 0.1)
        critical_points_many(lattice_projections(sample_product_measure(2, 5.0, N + 10.0, [101, 5, 0]),
                                                 generators(2, N)))
        assert sum(len(args[2]) for args in polish_calls) > 500
        for args in polish_calls:
            assert _polish(*args).tobytes() == reference_polish(*args).tobytes()

    def test_live_value_row_takes_three_rows(self, monkeypatch):
        # P = cos t on [0.1, 3] is done at the third evaluation and on [0.5, 2]
        # is not: the value row leaves one bracket live, so the three rows are
        # evaluated again, and stopping once any bracket is done would move
        # the second t
        js, rows = np.array([1.0]), np.array([[[0.5], [0.5j], [-0.5]]] * 2)
        lo, hi = np.array([0.1, 0.5]), np.array([3.0, 2.0])
        args = (rows, js, lo, hi, np.cos(lo), np.cos(hi))
        full = []
        monkeypatch.setattr(morse, "trig_values", lambda C, js, t: full.append(C.ndim == 3) or trig_values(C, js, t))
        got = morse._polish(*args)
        assert full == [True, True, False, True, False]
        assert got.tobytes() == reference_polish(*args).tobytes()
        assert np.allclose(got, 0.5 * math.pi, rtol=0, atol=1e-15)


class TestTables:
    """_zeros, _exact_zeros, _bernstein and _refine read tables built once per
    degree or level (functools.cache); no call may leave in them anything that
    a later call reads."""

    def test_a_census_after_other_degrees_equals_the_first(self, exact_calls):
        tables = (morse._level, morse._binomials, morse._half_angle)
        for table in tables:
            table.cache_clear()
        rng = np.random.default_rng(42)
        first = close_pair_family(1e-6, shift=1.0)
        reports, calls = [critical_points(first)], [len(exact_calls)]
        for degree, decay in ((7, 0.8), (40, 0.95)):
            critical_points(OneDTrigPoly({j: complex(rng.normal(), rng.normal()) * decay ** j
                                          for j in range(1, degree + 1)}))
        calls.append(len(exact_calls))
        built = [table.cache_info().misses for table in tables]
        reports.append(critical_points(first))
        assert calls[0] > 0 and len(exact_calls) - calls[1] == calls[0]
        assert report_bytes(reports[1]) == report_bytes(reports[0])
        # the last census read only tables that the calls before it built
        assert [table.cache_info().misses for table in tables] == built
        assert morse._level.cache_info().currsize > 2

    def test_tables_are_read_only(self):
        critical_points(close_pair_family(1e-6, shift=1.0))
        with pytest.raises(ValueError, match="read-only"):
            morse._level(32, 0)[2][0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            morse._ORDERS[1, 0] = 0.0
        for table in (*morse._binomials(4), morse._binomials(4)[0][1], morse._half_angle(2, 1)):
            with pytest.raises(TypeError):
                table[0] = 0


class TestC2Distance:
    def test_batch_equals_lone(self):
        # one _zeros call per group of deltas; each distance is the one its F gets alone
        rng = np.random.default_rng(7)
        Fs, shifts = [OneDTrigPoly.from_cosine(1.0, 0.77)], [0.77]  # delta = 0
        for _ in range(60):
            shifts.append(rng.uniform(0.0, TWO_PI))
            pert = {j: (rng.normal() + 1j * rng.normal()) * 0.1 for j in range(1, 6) if rng.uniform() < 0.7}
            Fs.append(OneDTrigPoly.from_cosine(1.0, shifts[-1]).plus(OneDTrigPoly(pert)))
        assert len({tuple(F.coeffs) for F in Fs}) < len(Fs)
        got = c2_distances_to_cosine(Fs, shifts)
        assert got == [c2_distances_to_cosine([F], [shift])[0] for F, shift in zip(Fs, shifts)]
        assert got[0] == 0.0

    def test_exact_match_is_zero(self):
        F = OneDTrigPoly.from_cosine(1.0, 0.77)
        assert c2_distances_to_cosine([F], [0.77]) == [0.0]

    def test_scaled_cosine(self):
        a = 0.3
        F = OneDTrigPoly.from_cosine(1.0 + a)
        assert c2_distances_to_cosine([F], [0.0])[0] == pytest.approx(a, rel=1e-12)

    def test_second_harmonic_dominated_by_second_derivative(self):
        b = 0.07
        F = OneDTrigPoly({1: 0.5, 2: b / 2})
        assert c2_distances_to_cosine([F], [0.0])[0] == pytest.approx(4 * b, rel=1e-10)

    def test_distance_scales_with_the_perturbation(self):
        # delta^(k) of cos + s raw is s raw^(k), so its distance is s times that
        # of cos + raw; criterion 3 draws its instances this way and uses it
        rng = np.random.default_rng(42)
        for _ in range(200):
            shift = rng.uniform(0.0, TWO_PI)
            pert = {j: (rng.normal() + 1j * rng.normal()) * 0.1
                    for j in range(1, 6) if rng.uniform() < 0.7}
            raw = OneDTrigPoly(pert) if pert else OneDTrigPoly({2: 0.01})
            base = OneDTrigPoly.from_cosine(1.0, shift)
            c_raw, = c2_distances_to_cosine([base.plus(raw)], [shift])
            s = rng.uniform(0.02, 0.49) / c_raw
            c, = c2_distances_to_cosine([base.plus(raw.scaled(s))], [shift])
            assert c == pytest.approx(s * c_raw, rel=1e-12, abs=0.0)


class TestTwoPointCheck:
    """Within C^2 distance c < 1/2 of a shifted cosine, F has exactly two
    critical points and beta >= 1 - 2c; criterion 3 checks this in batches."""

    def test_pure_cosine(self):
        rep = critical_points(OneDTrigPoly.from_cosine(1.0))
        assert rep.count == 2
        assert rep.beta >= 1.0 - 1e-12

    def test_small_sin3_perturbation(self):
        F = OneDTrigPoly({1: 0.5, 3: 0.05 / (2j)})
        c, = c2_distances_to_cosine([F], [0.0])
        rep = critical_points(F)
        assert rep.count == 2
        assert rep.beta >= 1 - 2 * c - 1e-9

    def test_randomized_property(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            shift = rng.uniform(0, TWO_PI)
            pert = {j: 0.05 * complex(rng.normal(), rng.normal())
                    for j in range(2, 6)}
            raw = OneDTrigPoly(pert)
            base = OneDTrigPoly.from_cosine(1.0, shift)
            c_raw, = c2_distances_to_cosine([base.plus(raw)], [shift])
            scale = rng.uniform(0.05, 0.49) / c_raw
            F = base.plus(raw.scaled(scale))
            c, = c2_distances_to_cosine([F], [shift])
            assert c < 0.5
            rep = critical_points(F)
            assert rep.count == 2
            assert rep.beta >= 1 - 2 * c - 1e-9


class TestCosineCertificate:
    def test_pure_mode_pair_gamma_zero(self):
        f = TrigPoly(2, {(1, 1): 0.4})
        cert = cosine_certificate(f, (1, 1))
        assert cert.gamma == 0.0
        assert cert.eta == pytest.approx(0.8)

    def test_lacunary_certificate_below_threshold(self):
        n, s = 2, 1.0
        N = threshold_N(n, s, 1.0)
        f = lacunary_potential(n, s, k_max=N + 4)
        for k in ((8, 7), (1, 0), (33, 31)):
            cert = cosine_certificate(f, k)
            assert cert.gamma <= 2.0 ** -40

    def test_single_second_harmonic(self):
        # two-sided majorant: modes +-2k contribute |f_2k| e^2 each
        eps2 = 0.01
        f = TrigPoly(2, {(1, 0): 1.0, (2, 0): eps2})
        cert = cosine_certificate(f, (1, 0))
        assert cert.gamma == pytest.approx(eps2 * math.e ** 2, rel=1e-14)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        f = TrigPoly(2, {(1, 0): 0.5 + 0.1j, (2, 0): 0.01, (3, 0): 0.002j})
        base = cosine_certificate(f, (1, 0))
        for _ in range(10):
            lam = rng.uniform(0.01, 50.0)
            scaled = cosine_certificate(TrigPoly(2, {k: lam * c for k, c in f.coeffs.items()}), (1, 0))
            assert scaled.gamma == pytest.approx(base.gamma, rel=1e-12)

    def test_vanishing_leading_mode(self):
        f = TrigPoly(2, {(2, 0): 1.0})
        with pytest.raises(ConfigError, match="vanishing leading mode"):
            cosine_certificate(f, (1, 0))


class TestHighModeMorse:
    """A 2^-40-cosine-like pi_k f has beta >= |f_k|; criterion 4 checks this
    on every generator of its window in one census."""

    def test_lacunary_certified_bound(self):
        f = lacunary_potential(2, 1.0, k_max=16)
        for k in ((2, 1), (3, -2)):
            beta = critical_points(project_lattice(f, k)).beta
            assert beta >= abs(f.coeff(k))
            # pure cosine projection: beta = 2|f_k|
            assert beta == pytest.approx(2 * abs(f.coeff(k)), rel=1e-9)

    def test_projection_beta_dominates_certificate(self):
        # within the cosine-like regime the certified chain applies
        f = TrigPoly(2, {(1, 0): 1.0, (2, 0): 1e-14})
        assert cosine_certificate(f, (1, 0)).gamma <= 2.0 ** -40
        assert critical_points(project_lattice(f, (1, 0))).beta >= 1.0
