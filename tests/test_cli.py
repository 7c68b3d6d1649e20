import ast
import csv
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from resoforge import cli, cover, fourier, genericity
from resoforge.cli import EXIT_INVARIANT, EXIT_OK, main
from resoforge.fourier import ConfigError, HypothesisError


EXIT_CONFIG = ConfigError.exit_code
NORMALIZE = ["normalize", "--potential", "two-mode:s=1.0", "--eps", "1e-3", "--k0", "2", "--K", "6"]


def raising(exc):
    def fail(*_args, **_kwargs):
        raise exc
    return fail


@pytest.fixture
def free_params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"mode": "free", "n": 2, "s": 1.0, "alpha": 0.05, "K0": 2, "K": 5}
    ))
    return str(path)


class TestSampleAndCheck:
    def test_sample_then_check(self, tmp_path):
        pot = tmp_path / "f.json"
        assert main(["sample", "--n", "2", "--s", "1.0", "--kmax", "6",
                     "--seed", "7", "--out", str(pot)]) == EXIT_OK
        out = tmp_path / "report.json"
        code = main(["check-generic", "--potential", str(pot), "--delta", "0.9",
                     "--beta", "0.01", "--kmax", "70", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["report"]["in_class"] in (True, False)
        assert code in (EXIT_OK, EXIT_INVARIANT)
        assert doc["report"]["window"][1] == 70

    @pytest.mark.parametrize("potential, delta, beta, kmax, failures", [
        # one coefficient of the window below delta |k|_1^-n e^-s|k|_1
        ("random:n=2,s=5.0,kmax=20,seed=1", "1", "1e-30", "20", [{"k": [11, -2], "reason": "lower-bound"}]),
        # two low-mode projections whose Morse constant is below beta
        ("random:n=2,s=5.0,kmax=14,seed=2", "0.1", "4e-27", "14",
         [{"k": [5, -7], "reason": "morse"}, {"k": [7, 5], "reason": "morse"}]),
    ])
    def test_failing_potential_prints_its_failures(self, capsys, potential, delta, beta, kmax, failures):
        code = main(["check-generic", "--potential", potential, "--delta", delta, "--beta", beta, "--kmax", kmax])
        assert code == EXIT_INVARIANT
        report = json.loads(capsys.readouterr().out)["report"]
        assert sorted(report) == ["beta", "delta", "failures", "in_class", "margins", "n_checked_lower",
                                  "n_checked_morse", "proved_beyond_cutoff", "window"]
        assert report["in_class"] is False
        assert report["failures"] == failures

    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["sample", "--kmax", "5", "--seed", "3", "--out", str(a)])
        main(["sample", "--kmax", "5", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_lacunary_preset_in_class(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20",
                     "--delta", "1.0", "--beta", "1e-30", "--kmax", "20",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["report"]["in_class"] is True
        assert doc["report"]["proved_beyond_cutoff"] is True


    def test_nan_coefficient_is_config_error(self, tmp_path, capsys):
        # the lacunary preset of test_lacunary_preset_in_class, written mode
        # by mode with f_(1,17) = NaN: a NaN ratio fails no lower bound, so
        # the file must be refused before any check
        f = fourier.lacunary_potential(2, 4.0, 20)
        modes = [{"k": list(k), "re": c.real, "im": c.imag} for k, c in sorted(f.coeffs.items())]
        next(m for m in modes if m["k"] == [1, 17])["re"] = float("nan")
        pot, out = tmp_path / "f.json", tmp_path / "rep.json"
        pot.write_text(json.dumps({"n": 2, "s": 4.0, "modes": modes}))
        assert main(["check-generic", "--potential", str(pot), "--delta", "1.0",
                     "--beta", "1e-30", "--kmax", "20", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mode (1, 17) needs a finite re and im" in err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["s", "k_max", "amplitude"])
    def test_non_finite_rule_param_is_config_error(self, tmp_path, capsys, param):
        # "k_max": Infinity used to leave with an OverflowError traceback from half_ball
        pot, out = tmp_path / "f.json", tmp_path / "rep.json"
        pot.write_text(json.dumps({"n": 2, "s": 4.0, "rule": "exp-lacunary", "params": {param: float("inf")}}))
        assert main(["check-generic", "--potential", str(pot), "--delta", "1.0",
                     "--beta", "1e-30", "--kmax", "20", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert err.startswith("error: cannot load potential") and f"'{param}': inf" in err
        assert not out.exists()

class TestBezout:
    def test_known_completion(self, tmp_path, capsys):
        assert main(["bezout", "--k", "2,3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["A"] == [[2, 3], [1, 2]]
        assert doc["A_inv"] == [[2, -3], [-1, 2]]
        assert doc["bounds"]["det"] == 1
        assert doc["U"]["U_num"][0] == [1, -8]
        assert doc["U"]["U_den"][0] == [1, 13]

    def test_gcd_two_is_config_error(self, capsys):
        assert main(["bezout", "--k", "2,4"]) == EXIT_CONFIG
        assert "not a generator" in capsys.readouterr().err


class TestCover:
    def test_classify_point(self, free_params_file, capsys):
        code = main(["cover", "classify", "--y", "0.31,0.47",
                     "--params", free_params_file])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert any(lab["kind"] == "R0" for lab in doc["labels"])

    @pytest.mark.parametrize("y, labels", [
        # 0.025 < |y.(0, 1)| < 0.05 and every l != (0, 1) off by at least 0.9
        ("-0.9,-0.04", [{"kind": "R0", "k": None, "l": None}, {"kind": "R1", "k": [0, 1], "l": None}]),
        # 0.025 < |y.(1, -1)| < 0.05; each witness l has |l.P^perp y| = 0.4,
        # under the gap 0.75/sqrt(2), and every other l at least 0.8
        ("-0.38,-0.42", [{"kind": "R0", "k": None, "l": None}]
         + [{"kind": "R2", "k": [1, -1], "l": list(l)}
            for l in [(0, 1), (1, -2), (1, 0), (2, -3), (2, -1), (3, -2)]]),
    ])
    def test_classify_prints_every_label(self, free_params_file, capsys, y, labels):
        # R1 and R2 never meet at one point: |y.k'| < alpha for the R2
        # label's k' puts k' within the R1 gap of any other k
        assert main(["cover", "classify", f"--y={y}", "--params", free_params_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["labels"] == labels

    def test_classify_outside_ball_is_config_error(self, free_params_file, capsys):
        code = main(["cover", "classify", "--y", "0.9,0.9",
                     "--params", free_params_file])
        assert code == EXIT_CONFIG
        assert "outside unit ball" in capsys.readouterr().err

    def test_measure_with_csv(self, free_params_file, tmp_path, capsys):
        csv_path = tmp_path / "labels.csv"
        code = main(["cover", "measure", "--params", free_params_file,
                     "--samples", "20000", "--seed", "1",
                     "--csv", str(csv_path), "--csv-rows", "100"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"]["measure_any"] > 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "sample_index,y1,y2,label_kind,k,l"
        assert len(lines) == 101

    @staticmethod
    def _csv_points(csv_path):
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return rows, np.array([[float(v) for v in row[1:3]] for row in rows])

    def test_csv_rows_are_first_points_of_chunk_zero(self, free_params_file, tmp_path):
        csv_path = tmp_path / "labels.csv"
        main(["cover", "measure", "--params", free_params_file, "--samples", "20000",
              "--seed", "4", "--csv", str(csv_path), "--csv-rows", "50"])
        rows, Y = self._csv_points(csv_path)
        measured = next(cover.ball_points(2, 20000, 4))
        assert np.array_equal(Y, measured[:50])
        params = cover.free_params(2, 1.0, alpha=0.05, K0=2, K=5)
        for row, y in zip(rows, Y):
            lab = cover.classify_point(y, params, all_pairs=False)[0]
            assert row[3:] == [lab.kind, " ".join(map(str, lab.k)) if lab.k else "",
                               " ".join(map(str, lab.l)) if lab.l else ""]

    @pytest.mark.parametrize("n, alpha, K", [(2, 0.05, 5), (3, 0.01, 4)])
    def test_csv_matches_per_row_labels(self, tmp_path, n, alpha, K, monkeypatch):
        # the labels used to come from one classify_point call per row
        monkeypatch.setattr(cover, "_CHUNK", 1000)
        params_path, csv_path = tmp_path / "params.json", tmp_path / "labels.csv"
        params_path.write_text(json.dumps(
            {"mode": "free", "n": n, "s": 1.0, "alpha": alpha, "K0": 2, "K": K}))
        assert main(["cover", "measure", "--params", str(params_path), "--samples", "2500",
                     "--seed", "3", "--csv", str(csv_path), "--csv-rows", "2500"]) == EXIT_OK
        params = cover.free_params(n, 1.0, alpha=alpha, K0=2, K=K)
        ref_path = tmp_path / "per_row.csv"
        with open(ref_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", *[f"y{i+1}" for i in range(n)], "label_kind", "k", "l"])
            for i, y in enumerate(np.concatenate(list(cover.ball_points(n, 2500, 3)))):
                lab = cover.classify_point(y, params, all_pairs=False)[0]
                writer.writerow([i, *y, lab.kind, " ".join(map(str, lab.k)) if lab.k else "",
                                 " ".join(map(str, lab.l)) if lab.l else ""])
        kinds = {row.split(",")[n + 1] for row in csv_path.read_text().splitlines()[1:]}
        assert kinds == {"R0", "R1", "R2"}
        assert csv_path.read_bytes() == ref_path.read_bytes()

    def test_csv_rows_continue_into_the_next_chunk(self, free_params_file, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(cover, "_CHUNK", 1000)
        csv_path = tmp_path / "labels.csv"
        main(["cover", "measure", "--params", free_params_file, "--samples", "3500",
              "--seed", "6", "--csv", str(csv_path), "--csv-rows", "1300"])
        rows, Y = self._csv_points(csv_path)
        chunks = list(cover.ball_points(2, 3500, 6))
        assert [len(Y) for Y in chunks] == [1000, 1000, 1000, 500]
        want = np.concatenate(chunks[:2])
        assert [int(row[0]) for row in rows] == list(range(1300))
        assert np.array_equal(Y, want[:1300])

    def test_csv_rows_bounds(self, free_params_file, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "labels.csv"
        args = ["cover", "measure", "--params", free_params_file, "--samples", "2000",
                "--seed", "1", "--csv", str(csv_path), "--csv-rows"]
        assert main(args + ["0"]) == EXIT_OK
        assert csv_path.read_text().strip().splitlines() == ["sample_index,y1,y2,label_kind,k,l"]
        assert main(args + ["5000"]) == EXIT_OK  # capped at --samples
        assert len(csv_path.read_text().strip().splitlines()) == 2001

        def no_measure(*_):
            raise AssertionError("measure_R2 ran before --csv-rows was checked")

        # a negative row count is rejected before the measure is sampled
        monkeypatch.setattr(cli, "measure_R2", no_measure)
        assert main(args + ["-1"]) == EXIT_CONFIG
        assert "--csv-rows must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,K0,K,grid",[(0.05, 2, 5, 57), (0.03, 4, 9, 40)])
    def test_raster_matches_row_by_row_output(self, tmp_path, alpha, K0, K, grid):
        # the raster used to classify one grid row per classify_batch call;
        # one call over the whole grid must write the same bytes
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(
            {"mode": "free", "n": 2, "s": 1.0, "alpha": alpha, "K0": K0, "K": K}))
        csv_path = tmp_path / "raster.csv"
        assert main(["cover", "raster", "--params", str(params_path),
                     "--grid", str(grid), "--csv", str(csv_path)]) == EXIT_OK
        params = cover.free_params(2, 1.0, alpha=alpha, K0=K0, K=K)
        ref_path = tmp_path / "row_by_row.csv"
        axis = np.linspace(-0.99, 0.99, grid)
        with open(ref_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y1", "y2", "region_code"])
            for y1 in axis:
                row_pts = np.column_stack([np.full(grid, y1), axis])
                inside = np.linalg.norm(row_pts, axis=1) < 1.0
                codes = cover.classify_batch(row_pts[inside], params).codes
                for y2, code in zip(axis[inside], codes):
                    writer.writerow([f"{y1:.6f}", f"{y2:.6f}", int(code)])
        assert csv_path.read_bytes() == ref_path.read_bytes()

    def test_raster(self, free_params_file, tmp_path, capsys):
        csv_path = tmp_path / "raster.csv"
        code = main(["cover", "raster", "--params", free_params_file,
                     "--grid", "32", "--csv", str(csv_path)])
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "y1,y2,region_code"
        codes = {line.split(",")[2] for line in lines[1:]}
        assert codes <= {"0", "1", "2"} and codes

    # the configurations of TestNormalize and TestStandardize
    @pytest.mark.parametrize("params, argv", [
        ({"alpha": 0.05, "K": 5}, ["cover", "measure", "--params", "PARAMS",
                                   "--samples", "5000", "--seed", "9"]),
        (None, [*NORMALIZE, "--alpha", "0.03", "--order", "2", "--degree", "3",
                "--base-point", "0.5,-0.5", "--resonant-k", "1,1"]),
        (None, [*NORMALIZE, "--alpha", "0.02", "--base-point", "0.7,0.31"]),
        ({"alpha": 0.03, "K": 6}, ["standardize", "--potential", "two-mode:s=1.0",
                                   "--eps", "1e-6", "--k", "1,1", "--params", "PARAMS",
                                   "--y0", "0.5,-0.5", "--beta", "0.05"]),
    ], ids=["cover_measure", "normalize_resonant", "normalize_nonresonant", "standardize"])
    def test_determinism_modulo_timestamp(self, params, argv, tmp_path):
        path = tmp_path / "params.json"
        if params is not None:
            path.write_text(json.dumps({"mode": "free", "n": 2, "s": 1.0, "K0": 2, **params}))
        argv = [str(path) if a == "PARAMS" else a for a in argv]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub / "est.json"
            out.parent.mkdir()
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            doc = json.loads(out.read_text())
            doc.pop("timestamp")
            doc["config"].pop("out")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


class TestNormalize:
    def test_resonant_normal_form(self, tmp_path):
        out = tmp_path / "nf.json"
        code = main(["normalize", "--potential", "two-mode:s=1.0",
                     "--eps", "1e-3", "--k0", "2", "--K", "6", "--alpha", "0.03",
                     "--order", "2", "--degree", "3",
                     "--base-point", "0.5,-0.5", "--resonant-k", "1,1",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        nf = doc["normal_form"]
        assert nf["kind"] == "resonant" and nf["order"] == 2
        assert doc["band_coefficient_max"] == 0.0
        assert nf["divisor_log"]

    def test_nonresonant_normal_form(self, tmp_path):
        out = tmp_path / "nf.json"
        code = main(["normalize", "--potential", "two-mode:s=1.0",
                     "--eps", "1e-3", "--k0", "2", "--K", "6", "--alpha", "0.02",
                     "--base-point", "0.7,0.31", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["normal_form"]["kind"] == "nonresonant"

    def test_small_divisor_exit(self, tmp_path, capsys):
        code = main(["normalize", "--potential", "two-mode:s=1.0",
                     "--eps", "1e-3", "--k0", "2", "--K", "6", "--alpha", "0.5",
                     "--base-point", "0.1,0.1"])
        assert code == EXIT_INVARIANT

    def test_paper_preset_requires_cutoff_order(self, capsys):
        code = main(["normalize", "--potential", "two-mode:s=1.0",
                     "--eps", "1e-3", "--k0", "2", "--K", "6",
                     "--base-point", "0.7,0.31"])
        # K < 6 K0: configuration error from the preset validation
        assert code == EXIT_CONFIG


class TestStandardize:
    def test_two_mode_pipeline(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(
            {"mode": "free", "n": 2, "s": 1.0, "alpha": 0.03, "K0": 2, "K": 6}
        ))
        out = tmp_path / "sf.json"
        code = main(["standardize", "--potential", "two-mode:s=1.0",
                     "--eps", "1e-6", "--k", "1,1", "--params", str(params),
                     "--y0", "0.5,-0.5", "--beta", "0.05", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kappa"] == pytest.approx(113.13708498984761)
        assert doc["fixed_point"]["hypothesis_ok"] is True
        assert doc["reduction_identity_residual"] < 1e-8
        assert len(doc["grids"]["G_bar"]) == 64


STANDARDIZE = ["standardize", "--potential", "two-mode:s=1.0", "--eps", "1e-6",
               "--params", "PARAMS"]


FREE = {"mode": "free", "n": 2, "s": 1.0, "alpha": 0.05, "K0": 2, "K": 5}
# params files that are refused as a whole: not an object, a non-integer
# cutoff or dimension (2.5 was truncated to 2, "2" parsed), a non-finite real
BAD_PARAMS = {
    "params_not_object": [FREE],
    "params_K0_not_integer": {**FREE, "K0": 2.5},
    "params_K_float": {**FREE, "K": 5.0},
    "params_n_string": {**FREE, "n": "2"},
    "params_alpha_nan": {**FREE, "alpha": "nan"},
    "params_s_infinite": {**FREE, "s": float("inf")},
    "params_epsilon_nan": {"mode": "paper-preset", "n": 2, "s": 1.0, "epsilon": "nan",
                           "K0": 2, "K": 12},
}


class TestConfigErrors:
    """Malformed inputs exit 2 with one error line naming the argument."""

    @pytest.mark.parametrize("argv, option", [
        (["cover", "classify", "--y", "0.3,0.1", "--params", "PARAMS",
          "--out", "MISSING/x.json"], "--out"),
        (["cover", "classify", "--y", "0.3", "--params", "PARAMS"], "--y"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.3,0.1",
          "--resonant-k", "0,0"], "--resonant-k"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.3,0.1",
          "--resonant-k", "1,1,1"], "--resonant-k"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.5,-0.5",
          "--resonant-k", "2,2"], "--resonant-k"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.5,-0.5",
          "--resonant-k=-1,1"], "--resonant-k"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.3"], "--base-point"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.3,0.1", "--order", "0"], "--order"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "0.3,0.1", "--degree", "1"], "--degree"),
        ([*STANDARDIZE, "--k", "1,1", "--y0", "0.5,-0.5", "--order", "0"], "--order"),
        ([*STANDARDIZE, "--k", "1,1", "--y0", "0.5"], "--y0"),
        ([*STANDARDIZE, "--k", "0,0", "--y0", "0.5,-0.5"], "--k"),
        ([*STANDARDIZE, "--k", "1,1,1", "--y0", "0.5,-0.5"], "--k"),
        ([*STANDARDIZE, "--k", "1,x", "--y0", "0.5,-0.5"], "--k"),
        ([*STANDARDIZE, "--k", "2,2", "--y0", "0.5,-0.5"], "--k"),
        ([*STANDARDIZE, "--k=-1,1", "--y0", "0.5,-0.5"], "--k"),
        ([*STANDARDIZE[:-1], "PARAMS3", "--k", "1,1", "--y0", "0.5,-0.5"], "--params"),
        (["check-generic", "--potential", "lacunary:n=2,sx=3", "--delta", "1", "--beta", "0.1"],
         "--potential"),
        (["normalize", "--potential", "two-mode:s=1,n=3", *NORMALIZE[3:], "--alpha", "0.05",
          "--base-point", "0.3,0.1"], "--potential"),
        (["check-generic", "--potential", "random:n=2,s=1,kmax=6,seed=1,beta=2", "--delta", "1",
          "--beta", "0.1"], "--potential"),
        (["check-generic", "--potential", "lacunary:n=2,s", "--delta", "1", "--beta", "0.1"],
         "--potential"),
        (["check-generic", "--potential", "random:n=2,s=1,kmax=6,seed=-1", "--delta", "1",
          "--beta", "0.1"], "--potential"),
        (["sample", "--seed", "-1", "--out", "MISSING.json"], "--seed"),
        (["cover", "measure", "--params", "PARAMS", "--samples", "2000", "--seed", "-1"], "--seed"),
        (["cover", "raster", "--params", "PARAMS", "--grid", "-1", "--csv", "MISSING.csv"], "--grid"),
        (["cover", "classify", "--y", "nan,0.1", "--params", "PARAMS"], "--y"),
        ([*NORMALIZE, "--alpha", "0.05", "--base-point", "nan,0.31"], "--base-point"),
        *[([*STANDARDIZE, "--k", "1,1", "--y0", "0.5,-0.5", f"{option}={value}"], option)
          for option in ("--beta", "--eps") for value in ("0", "-1", "nan")],
        *[(["cover", "classify", "--y", "0.3,0.1", "--params", name], "invalid params file")
          for name in BAD_PARAMS],
        (["normalize", "--potential", "two-mode:s=inf", *NORMALIZE[3:], "--alpha", "0.05",
          "--base-point", "0.7,0.31"], "--potential"),
        (["check-generic", "--potential", "lacunary:n=2,s=1,kmax=inf", "--delta", "1",
          "--beta", "0.1"], "--potential"),
        (["check-generic", "--potential", "random:n=2,s=nan,kmax=6,seed=1", "--delta", "1",
          "--beta", "0.1"], "--potential"),
        ([*NORMALIZE[:4], "nan", *NORMALIZE[5:], "--alpha", "0.05", "--base-point", "0.7,0.31"],
         "--eps"),
        ([*NORMALIZE[:4], "inf", *NORMALIZE[5:], "--base-point", "0.7,0.31"], "--eps"),
        ([*NORMALIZE, "--alpha", "nan", "--base-point", "0.7,0.31"], "--alpha"),
        (["sample", "--s", "nan", "--out", "MISSING.json"], "--s must be finite"),
        (["sample", "--kmax", "inf", "--out", "MISSING.json"], "--kmax"),
        *[(["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20", "--kmax", "20",
            *args], option)
          for args, option in ((["--delta", "1", "--beta", "nan"], "--beta"),
                               (["--delta", "1", "--beta", "inf"], "--beta"),
                               (["--delta", "nan", "--beta", "0.1"], "--delta"))],
        *[(["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20", "--delta", "1",
            "--beta", "0.1", "--kmax", kmax], "--kmax") for kmax in ("inf", "nan")],
    ], ids=["out_dir_missing", "y_length", "resonant_k_zero", "resonant_k_length",
            "resonant_k_not_generator", "resonant_k_negative", "base_point_length",
            "normalize_order_zero", "normalize_degree_one", "order_zero", "y0_length", "k_zero",
            "k_length", "k_unparsable", "k_not_generator", "k_negative", "params_dimension",
            "lacunary_unknown_key", "two_mode_unknown_key", "random_unknown_key",
            "preset_part_without_value", "random_seed_negative", "sample_seed_negative",
            "measure_seed_negative", "raster_grid_negative", "y_nan", "base_point_nan",
            "beta_zero", "beta_negative", "beta_nan", "eps_zero", "eps_negative", "eps_nan",
            *BAD_PARAMS, "two_mode_s_inf", "lacunary_kmax_inf", "random_s_nan",
            "normalize_eps_nan", "preset_eps_inf", "alpha_nan", "sample_s_nan",
            "sample_kmax_inf", "check_generic_beta_nan", "check_generic_beta_inf",
            "check_generic_delta_nan", "check_generic_kmax_inf", "check_generic_kmax_nan"])
    def test_one_error_line(self, argv, option, free_params_file, tmp_path, capsys):
        params3 = tmp_path / "params3.json"
        params3.write_text(json.dumps(
            {"mode": "free", "n": 3, "s": 1.0, "alpha": 0.03, "K0": 2, "K": 4}))
        paths = {"PARAMS": free_params_file, "PARAMS3": str(params3)}
        for name, doc in BAD_PARAMS.items():
            paths[name] = str(tmp_path / f"{name}.json")
            pathlib.Path(paths[name]).write_text(json.dumps(doc))
        argv = [paths.get(a, a.replace("MISSING", str(tmp_path / "no"))) for a in argv]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}") and err.count("\n") == 1
        assert not list(tmp_path.glob("no*"))  # a refused command writes no output


class TestLibraryConfigErrors:
    """Inputs that the library rejects exit 2 with its message as the one error line."""

    @pytest.mark.parametrize("call, message", [
        (lambda: fourier.half_ball(2, np.inf), "cutoff K must be finite"),
        (lambda: fourier.half_ball(2, np.nan), "cutoff K must be finite"),
        (lambda: fourier.generators(2, np.inf), "cutoff K must be finite"),
        (lambda: fourier.lacunary_potential(2, 1.0, np.inf), "cutoff K must be finite"),
        (lambda: genericity.sample_product_measure(2, 1.0, np.inf, 1), "cutoff K must be finite"),
        (lambda: genericity.check_membership(fourier.lacunary_potential(2, 4.0, 20),
                                             genericity.GenericityParams(2, 4.0, 1.0, 0.1, np.inf)),
         "cutoff K must be finite"),
        (lambda: genericity.sample_product_measure(2, 1.0, 5.0, -1), "seed must be a nonnegative integer"),
        (lambda: genericity.empirical_genericity(2, 1.0, 0.1, 10, -1, (1, 4)), "seed must be a nonnegative integer"),
        (lambda: cover.ball_points(2, 10, -1), "seed must be a nonnegative integer"),
        (lambda: cover.measure_R2(cover.free_params(2, 1.0, 0.05, 2, 12), 1000, -1),
         "seed must be a nonnegative integer"),
        *[(lambda s=s: genericity.threshold_N(2, s, 0.5), "need n >= 1, 0 < s < inf, 0 < delta <= 1")
          for s in (np.nan, np.inf)],
        (lambda: genericity.check_membership(fourier.lacunary_potential(2, 4.0, 40, amplitude=1e-3),
                                             genericity.GenericityParams(2, np.nan, 0.5, 1e-30, 30)),
         "need n >= 1, 0 < s < inf, 0 < delta <= 1"),
        *[(lambda s=s: cover.free_params(2, s, 0.05, 2, 12), "need n >= 1 and 0 < s < inf") for s in (np.nan, np.inf)],
        *[(lambda s=s: genericity.sample_product_measure(2, s, 5.0, 1), "need 0 < s < inf") for s in (np.nan, np.inf)],
        *[(lambda delta=delta: genericity.empirical_genericity(2, 1.0, delta, 10, 1, (1, 4)), "need 0 < delta <= 1")
          for delta in (np.nan, np.inf, -0.3)],
    ], ids=["half_ball_inf", "half_ball_nan", "generators_inf", "lacunary_inf", "sample_inf",
            "membership_inf", "sample_seed", "empirical_seed", "ball_points_seed", "measure_seed",
            "threshold_s_nan", "threshold_s_inf", "membership_s_nan", "free_params_s_nan", "free_params_s_inf",
            "sample_s_nan", "sample_s_inf", "empirical_delta_nan", "empirical_delta_inf", "empirical_delta_negative"])
    def test_library_refuses_what_the_cli_guards(self, call, message):
        # the CLI checks these itself; a library call used to escape with an
        # OverflowError, numpy's bare ValueError for a negative seed or math's
        # for an infinite s, or to run on with a NaN s or a delta outside (0, 1]
        with pytest.raises(ConfigError, match=f"^{message}"):
            call()

    @pytest.mark.parametrize("argv, message", [
        (["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20", "--delta", "2",
          "--beta", "0.1"], "need n >= 1, 0 < s < inf, 0 < delta <= 1"),
        (["cover", "measure", "--params", "PARAMS", "--samples", "10"], "need at least 10^3 samples"),
        (["normalize", "--potential", "two-mode:s=1.0", "--eps", "0", "--k0", "2", "--K", "12",
          "--base-point", "0.7,0.31"], "epsilon must be positive"),
        ([*NORMALIZE, "--alpha", "-1", "--base-point", "0.7,0.31"],
         "alpha must be positive (zero allowed in free mode)"),
        (["cover", "classify", "--y", "0.9,0.9", "--params", "PARAMS"], "outside unit ball"),
        (["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20", "--delta", "1",
          "--beta=-1"], "beta must be finite and nonnegative, got -1.0"),
        *[(["sample", "--n", n, "--out", "MISSING.json"], "dimension must be >= 1")
          for n in ("0", "-1")],
        # N = 14.25 here, so [N, 14.5] holds no order |k|_1 and no margin to report
        (["check-generic", "--potential", "lacunary:n=2,s=4.0,kmax=20", "--delta", "1",
          "--beta", "0.1", "--kmax", "14.5"],
         "cutoff below threshold: no order |k|_1 in the window [N, K_max]"),
    ], ids=["delta_above_one", "too_few_samples", "preset_eps_zero", "alpha_negative",
            "outside_ball", "check_generic_beta_negative", "sample_n_zero", "sample_n_negative",
            "check_generic_empty_window"])
    def test_message_is_the_error_line(self, argv, message, free_params_file, tmp_path, capsys):
        argv = [free_params_file if a == "PARAMS" else a.replace("MISSING", str(tmp_path / "no"))
                for a in argv]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("no*"))

    def test_a_series_algebra_over_the_memory_budget_exits_2(self, tmp_path, capsys):
        # n = 8 at --K 24 asks the series algebra for a digit box of 97^8 entries
        pot = tmp_path / "f8.json"
        pot.write_text(json.dumps({"n": 8, "s": 1.0, "modes": [{"k": [1] + [0] * 7, "re": 0.01, "im": 0.0}]}))
        argv = ["normalize", "--potential", str(pot), "--eps", "0.01", "--k0", "1", "--K", "24",
                "--alpha", "0.05", "--base-point", ",".join(["0.1"] * 8)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: n = 8, cutoff 24: a digit box of 97^8 entries") and err.count("\n") == 1

    def test_internal_value_error_propagates(self, monkeypatch):
        # a bug in a command is neither a configuration error nor a failed hypothesis
        exc = ValueError("internal bug: shapes (3,) and (2,) not aligned")
        monkeypatch.setattr(cli, "lie_step_nonres", raising(exc))
        with pytest.raises(ValueError) as err:
            main([*NORMALIZE, "--alpha", "0.02", "--base-point", "0.7,0.31"])
        assert err.value is exc


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_output_raises(value, monkeypatch, tmp_path, capsys):
    # a non-finite number in a report is a bug, not a result: it raises, and
    # no JSON with NaN or Infinity is printed or written
    skeleton = cli._report_skeleton
    monkeypatch.setattr(cli, "_report_skeleton", lambda args: {**skeleton(args), "x": value})
    out = tmp_path / "out.json"
    for argv in (["bezout", "--k", "2,3"], ["bezout", "--k", "2,3", "--out", str(out)]):
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(argv)
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", [Fraction(1, 3), np.int64(3)])
def test_unencodable_output_raises(value, capsys):
    # a value JSON cannot encode is a bug too: it is not printed as a string
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._emit({"x": value}, None)
    assert capsys.readouterr().out == ""


# the raises of src/resoforge/ that are neither class: internal invariants,
# never caught, so a traceback and not an exit code if one ever fails
INVARIANTS = {
    ("acceptance.py", "ValueError"): "criterion 3 draws c from [0.02, 0.49], so c < 1/2 holds",
    ("unimodular.py", "AssertionError"): "the completion of a generator has det 1",
    ("genericity.py", "AssertionError"): "_spawn_keys hashes as numpy's SeedSequence; its end rows are checked",
}


def test_every_raise_is_an_error_class_or_an_invariant():
    # an input check written as a bare ValueError again would exit with a traceback
    others = []
    for path in sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "resoforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # not a bare re-raise
                name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
                if name not in ("ConfigError", "HypothesisError"):
                    others.append((path.name, name))
    assert sorted(others) == sorted(INVARIANTS)


class TestInvariantErrors:
    """Failed hypotheses exit 1 with one error line, not a traceback."""

    def test_fixed_point_divergence(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(
            {"mode": "free", "n": 2, "s": 1.0, "alpha": 0.03, "K0": 2, "K": 6}
        ))
        code = main(["standardize", "--potential", "random:n=2,s=0.3,kmax=6,seed=1",
                     "--eps", "10", "--k", "1,1", "--params", str(params),
                     "--y0", "0.5,-0.5"])
        assert code == EXIT_INVARIANT
        assert capsys.readouterr().err.startswith("error: contraction failed")

    def test_generator_flow_error(self, monkeypatch, capsys):
        # verify_conjugacy is not a CLI command; normalize raises it instead
        exc = HypothesisError("generator flow failed: step size too small")
        monkeypatch.setattr(cli, "lie_step_nonres", raising(exc))
        code = main(["normalize", "--potential", "two-mode:s=1.0", "--eps", "1e-3",
                     "--k0", "2", "--K", "6", "--alpha", "0.02",
                     "--base-point", "0.7,0.31"])
        assert code == EXIT_INVARIANT
        assert capsys.readouterr().err == f"error: {exc}\n"
