"""Acceptance battery: every exit criterion at its stated tolerance.

Each test delegates to the corresponding criterion in resoforge.acceptance
(the same code path the CLI `report` subcommand runs), asserts the pass flag,
and prints the one-line pass/fail summary.  MUTANTS lists one-line edits of
the library, each of which `report --quick` must fail.
"""

import __future__
import dataclasses
import functools
import inspect
import json
import textwrap

import numpy as np
import pytest

from resoforge import acceptance, cover, genericity, standard_form
from resoforge.cli import EXIT_INVARIANT, main
from resoforge.morse import critical_points_many
from resoforge.standard_form import Phi2Map

# name: (module, function, old text, new text, the criterion that fails); report --quick fails each
MUTANTS = {
    # a disk test of <= 2.0 keeps the square's pairs: criterion 12's ratio holds, its exact law does not
    "square_law": (genericity, "_disks", "pairs[..., 1] ** 2 <= 1.0", "pairs[..., 1] ** 2 <= 2.0",
                   acceptance.criterion_12_genericity_trend),
    # -0.45 d_{Y1} Gf still contracts and settles; criterion 7's residual of the stated equation reads 5.3e-8
    "fixed_point": (standard_form, "_step", "return -0.5 * ev(u, 1)", "return -0.45 * ev(u, 1)",
                    acceptance.criterion_7_contraction),
    # P1 shifted by p - 0.9 p_o: only criterion 9's cubic witness, whose p moves with q1, sees it (3.6e-5)
    "phi2_shift": (standard_form, "Phi2Map.apply", "(rd.point.p - rd.tau)", "(rd.point.p - 0.9 * rd.tau)",
                   acceptance.criterion_9_energy_identity),
    # nu cut to its i = 2 term: the two-mode Gf is quadratic in Y1, the cubic witness reads 6.5e-4
    "nu_truncation": (standard_form, "_Jet.nu", "range(2, D + 1)", "range(2, 3)",
                      acceptance.criterion_9_energy_identity),
    # Gf expanded about 0 instead of affine^-1 y0
    "expansion_point": (standard_form, "PolyTrig1.from_series",
                        "return cls(n - 1, terms, apply(dm.affine_inv, series.base_point))",
                        "return cls(n - 1, terms)", acceptance.criterion_9_energy_identity),
}


def mutate(monkeypatch, name):
    """Patch MUTANTS[name] in: its function, compiled from its own source with the old text replaced,
    in a copy of its module's namespace.  The old text must occur once in the function and once in its file."""
    module, qualname, old, new, _ = MUTANTS[name]
    *path, attr = qualname.split(".")
    owner = functools.reduce(getattr, path, module)
    source = textwrap.dedent(inspect.getsource(getattr(owner, attr)))
    assert source.count(old) == 1 and inspect.getsource(module).count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec", __future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    monkeypatch.setattr(owner, attr, namespace[attr])


@pytest.mark.parametrize("name", MUTANTS)
def test_report_kills_the_mutant(monkeypatch, name):
    mutate(monkeypatch, name)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [MUTANTS[name][-1]])
    assert main(["report", "--quick"]) == EXIT_INVARIANT


def _run(fn, **kwargs):
    result = fn(**kwargs)
    print()
    print(result.line())
    print("   ", json.dumps(result.details, default=str)[:240])
    assert result.passed, result.details
    return result


def test_criterion_01_generator_enumeration():
    result = _run(acceptance.criterion_1_generators)
    assert result.details["count_2_3"] == 8
    assert result.runtime < 1.0


def test_criterion_02_sl_completion():
    result = _run(acceptance.criterion_2_sl_completion)
    assert result.details["failures"] == 0
    assert result.runtime < 5.0


def test_criterion_03_morse_oracle():
    result = _run(acceptance.criterion_3_morse_oracle, instances=500)
    assert result.details["beta_2cos_error"] <= 1e-9
    assert result.details["failures"] == 0
    # the two-point property is tested up to its hypothesis bound c < 1/2
    assert 0.48 < result.details["c_max"] < 0.5


def test_criterion_03_rejects_a_dropped_critical_point(monkeypatch):
    def drop_one(Fs):
        return [dataclasses.replace(rep, critical_points=rep.critical_points[1:])
                for rep in critical_points_many(Fs)]

    monkeypatch.setattr(acceptance, "critical_points_many", drop_one)
    result = acceptance.criterion_3_morse_oracle(instances=5)
    assert not result.passed
    assert result.details["failures"] == 5


def test_criterion_04_cosine_likeness():
    result = _run(acceptance.criterion_4_cosine_likeness)
    assert result.details["worst_gamma"] < 2.0 ** -40
    assert result.details["checked"] == 792
    assert result.details["morse_failures"] == 0
    # each pi_k f is the pure cosine 2|f_k| cos(theta + theta_k), so beta = 2|f_k|
    assert result.details["min_beta_over_fk"] == pytest.approx(2.0, rel=1e-9)
    assert result.runtime < 10.0


@pytest.mark.parametrize("break_one", [
    lambda rep: dataclasses.replace(rep, critical_points=np.r_[rep.critical_points, 1.0]),
    lambda rep: dataclasses.replace(rep, beta=0.49 * rep.beta),
], ids=["extra-critical-point", "beta-times-0.49"])
def test_criterion_04_rejects_a_failed_high_mode_census(monkeypatch, break_one):
    def census(Fs):
        reps = critical_points_many(Fs)
        reps[len(reps) // 2] = break_one(reps[len(reps) // 2])
        return reps

    monkeypatch.setattr(acceptance, "critical_points_many", census)
    result = acceptance.criterion_4_cosine_likeness()
    assert not result.passed
    assert result.details["morse_failures"] == 1


def test_criterion_05_covering_exhaustiveness():
    result = _run(acceptance.criterion_5_covering, samples=10 ** 6)
    assert all(v == 0 for v in result.details["uncovered"].values())


def test_criterion_05_rejects_an_uncovered_point(monkeypatch):
    # a classifier that leaves the first point of every batch unlabelled
    sizes = []

    def leaky(Y, params):
        sizes.append(len(Y))
        batch = cover.classify_batch(Y, params)
        batch.covered[0] = False
        return batch

    monkeypatch.setattr(acceptance, "classify_batch", leaky)
    result = acceptance.criterion_5_covering(samples=70_000)
    assert not result.passed
    assert sizes == [65_536, 4_464] * 2
    assert result.details["uncovered"] == {"n=2": 2, "n=3": 2}


def test_criterion_06_measure_scaling():
    result = _run(acceptance.criterion_6_measure_scaling, samples=10 ** 6)
    assert result.details["ratio"] == pytest.approx(4.0, rel=0.15)


def test_criterion_07_contraction_solver():
    result = _run(acceptance.criterion_7_contraction, instances=100)
    assert result.details["worst_contraction"] <= 1 / 8 + 1e-6
    assert result.details["worst_residual"] < 1e-13
    assert result.details["worst_equation_residual"] <= 1e-13


def test_criterion_08_symplecticity():
    result = _run(acceptance.criterion_8_symplecticity, points=100)
    assert result.details["phi1_rational_residual"] == "0"
    for key in ("phi2", "phi3", "composite"):
        assert result.details[key] <= 1e-9
        assert result.details[key + "_relative"] <= 1e-9
    assert result.details["group_law"] <= 1e-12


def test_criterion_08_rejects_one_doubled_hessian_entry(monkeypatch):
    # one off-diagonal entry of Phi2's q_hat-phat Hessian block doubled: the
    # absolute defect stays far below its gate, the relative one does not
    jacobian = Phi2Map.jacobian

    def doubled(self, z, rd=None):
        J = jacobian(self, z, rd)
        J[..., self.n + 1, 2] *= 2.0
        return J

    monkeypatch.setattr(Phi2Map, "jacobian", doubled)
    result = acceptance.criterion_8_symplecticity(points=20)
    assert not result.passed
    assert result.details["phi2"] <= 1e-9
    assert result.details["phi2_relative"] > 1e-9


def test_criterion_09_energy_identity():
    result = _run(acceptance.criterion_9_energy_identity, points=100)
    assert result.details["relative_error"] <= 1e-12
    assert result.details["kinetic_split_residual"] == "0"
    assert result.details["hypothesis_flag"]
    assert result.details["cubic_identity_error"] <= 1e-15


@pytest.mark.parametrize("mutant", ["phi2_shift", "nu_truncation"])
def test_criterion_09_rejects_a_wrong_shift_or_nu(monkeypatch, mutant):
    # the two-mode identity cannot see either, as its Gf is quadratic in Y1
    # and its p barely moves, so only the cubic witness fails
    mutate(monkeypatch, mutant)
    result = acceptance.criterion_9_energy_identity(points=20)
    assert not result.passed
    assert result.details["relative_error"] <= 1e-12 < 1e-6 < result.details["cubic_identity_error"]


def test_criterion_09_rejects_a_wrong_expansion_point(monkeypatch):
    mutate(monkeypatch, "expansion_point")
    result = acceptance.criterion_9_energy_identity(points=20)
    assert not result.passed
    assert result.details["relative_error"] > 1e-12


def test_criterion_10_averaging_structure():
    result = _run(acceptance.criterion_10_averaging)
    assert result.details["band_coeff_max"] == 0.0
    assert result.details["line_coeff_max"] == 0.0
    assert result.details["ratio_order1"] == pytest.approx(4.0, abs=0.8)
    assert result.details["ratio_order2"] == pytest.approx(8.0, abs=2.0)
    assert 0 < result.details["flow_error_share"] <= 0.01


def test_criterion_10_rejects_an_unresolved_flow(monkeypatch):
    # at criterion 10's eps the first refinement (1 against 2 RK4 steps)
    # already estimates each flow's error below 1e-4 of the residual, whatever
    # the tolerance, so the witness is a report whose flow error is 2% of its
    # residual: the ratios still pass
    verify = acceptance.verify_conjugacy

    def unresolved(*args, **kwargs):
        rep = verify(*args, **kwargs)
        return dataclasses.replace(rep, flow_error=0.02 * rep.max_residual)

    monkeypatch.setattr(acceptance, "verify_conjugacy", unresolved)
    result = acceptance.criterion_10_averaging()
    assert not result.passed
    assert result.details["flow_error_share"] == pytest.approx(0.02)
    assert result.details["ratio_order1"] == pytest.approx(4.0, abs=0.8)
    assert result.details["ratio_order2"] == pytest.approx(8.0, abs=2.0)


def test_criterion_11_kappa_uniformity():
    result = _run(acceptance.criterion_11_kappa)
    assert result.details["distinct_kappas"] == 1
    assert result.details["hand_value_error"] <= 1e-9


def test_criterion_12_genericity_trend():
    result = _run(acceptance.criterion_12_genericity_trend)
    assert 2.0 <= result.details["ratio"] <= 8.0
    assert result.details["exact_fail_delta"] == pytest.approx(0.187132, abs=1e-6)
    assert result.details["exact_fail_half"] == pytest.approx(0.048912, abs=1e-6)
    assert abs(result.details["z_delta"]) <= 4.5 and abs(result.details["z_half"]) <= 4.5


def test_criterion_12_rejects_a_square_law_sampler(monkeypatch):
    # the square's pairs have |w| < t with probability pi t^2 / 4, not t^2:
    # both failure fractions fall by about pi / 4, so their ratio holds and
    # only the exact law sees it
    mutate(monkeypatch, "square_law")
    result = acceptance.criterion_12_genericity_trend()
    assert not result.passed
    assert 2.0 <= result.details["ratio"] <= 8.0
    assert result.details["z_delta"] < -4.5
