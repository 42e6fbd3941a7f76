import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import spherecone
from spherecone import cli, lds, wce
from spherecone.errors import NumericError
from spherecone.spheremap import SpacePoints
from spherecone.wce import KernelParams


def no_draw(*keys):
    raise AssertionError("a random stream was opened")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env(**overrides):
    """Environment for a child interpreter: the parent's, plus ``overrides``,
    with the directory holding the imported ``spherecone`` first on
    ``PYTHONPATH`` so the child runs the same copy from any working directory,
    installed or not."""
    src = str(pathlib.Path(spherecone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **overrides, "PYTHONPATH": path}


def read_csv_text(text):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


class TestPoints:
    def test_sobol_points(self, capsys):
        code, out, _ = run_cli(["points", "--dim", "2", "--n", "4",
                                "--gen", "sobol"], capsys)
        assert code == 0
        header, rows = read_csv_text(out)
        assert header == ["x1", "x2"]
        np.testing.assert_allclose(rows[0], [0.5, 0.5])

    def test_sphere_points_are_normal_shaped(self, capsys):
        code, out, _ = run_cli(["points", "--dim", "3", "--n", "64",
                                "--gen", "sphere", "--scramble"], capsys)
        assert code == 0
        header, rows = read_csv_text(out)
        assert header == ["x1", "x2", "x3"] and rows.shape == (64, 3)

    def test_polar_output_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        code = cli.main(["points", "--dim", "3", "--n", "16",
                         "--gen", "sphere", "--polar", "--scramble",
                         "--output", str(path)])
        assert code == 0
        header, rows = read_csv_text(path.read_text())
        assert header[0] == "radius"
        np.testing.assert_allclose(np.linalg.norm(rows[:, 1:], axis=1), 1.0,
                                   atol=1e-12)

    def test_random_generator(self, capsys):
        code, out, _ = run_cli(["points", "--dim", "2", "--n", "8",
                                "--gen", "random", "--seed", "5"], capsys)
        assert code == 0
        _, rows = read_csv_text(out)
        assert rows.shape == (8, 2)

    def test_sobol_polar_rejected(self, capsys):
        # cube points have no radius; --polar was dropped silently
        code, out, err = run_cli(["points", "--dim", "3", "--n", "4",
                                  "--gen", "sobol", "--polar"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --polar needs lifted points")

    @pytest.mark.parametrize("gen", ["sphere", "sobol", "random"])
    def test_negative_count_exit_2(self, capsys, gen):
        code, out, err = run_cli(["points", "--dim", "3", "--n", "-1",
                                  "--gen", gen], capsys)
        assert code == 2 and out == ""
        assert err == "error: count must be >= 0, got -1\n"

    @pytest.mark.parametrize("gen", [["sobol", "--scramble"],
                                     ["sphere", "--scramble"], ["random"]])
    def test_negative_seed_exit_2(self, capsys, gen):
        code, out, err = run_cli(["points", "--dim", "2", "--n", "4",
                                  "--seed", "-1", "--gen", *gen], capsys)
        assert code == 2 and out == ""
        assert err == ("error: seed keys must be non-negative integers, "
                       "got -1\n")


class TestExhaustion:
    # a Sobol' stream holds 2^31 - 1 points from index 1, and --gen
    # random as many; both raise before they allocate or draw
    @pytest.mark.parametrize("command", [
        ["points", "--gen", "sobol"], ["sphere-map"],
        ["points", "--gen", "random"], ["sphere-map", "--gen", "random"]])
    def test_past_stream_end_exit_2(self, capsys, monkeypatch, command):
        monkeypatch.setattr(lds, "_rng", no_draw)
        code, out, err = run_cli([*command, "--dim", "2", "--n",
                                  str(2**31)], capsys)
        assert code == 2 and out == ""
        assert err == ("error: stream exhausted: index 1 + 2147483648 "
                       "exceeds 2^31\n")


class TestSphereMap:
    def test_unit_norms(self, capsys):
        code, out, _ = run_cli(["sphere-map", "--dim", "3", "--n", "32",
                                "--gen", "sobol", "--scramble"], capsys)
        assert code == 0
        header, rows = read_csv_text(out)
        assert len(header) == 4
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0,
                                   atol=1e-12)


class TestWceCommand:
    def test_matches_library(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        cli.main(["points", "--dim", "3", "--n", "32", "--gen", "sphere",
                  "--scramble", "--seed", "3", "--output", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(["wce", "--input", str(path),
                                "--mu", "1.5", "--A", "1.5", "--B", "3"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        header, rows = read_csv_text(path.read_text())
        pts = SpacePoints.from_cartesian(rows)
        report = wce.wce_nakagami(KernelParams(1.5, 1.5, 3.0, d=2), pts)
        assert payload["wce"] == pytest.approx(report.wce, rel=1e-12)
        assert payload["n_points"] == 32
        assert payload["wce"]**2 == pytest.approx(
            payload["double_sum_term"] - payload["single_sum_term"],
            abs=1e-13)

    def test_raw_square_in_json(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        cli.main(["points", "--dim", "3", "--n", "32", "--gen", "sphere",
                  "--scramble", "--seed", "3", "--output", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(["wce", "--input", str(path),
                                "--mu", "1.5", "--A", "1.5", "--B", "3"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"wce", "double_sum_term", "single_sum_term",
                                "W_K", "n_points", "wce_sq_raw"}
        assert payload["wce_sq_raw"] == (payload["double_sum_term"]
                                         - payload["single_sum_term"])

    def test_polar_csv_accepted(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        cli.main(["points", "--dim", "3", "--n", "16", "--gen", "sphere",
                  "--polar", "--scramble", "--seed", "3",
                  "--output", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(["wce", "--input", str(path),
                                "--mu", "1.5", "--A", "1.5", "--B", "3"],
                               capsys)
        assert code == 0
        assert json.loads(out)["wce"] > 0

    def test_seventeen_digit_roundtrip(self, capsys, tmp_path):
        # CSV output must preserve every bit of the doubles
        path = tmp_path / "pts.csv"
        cli.main(["points", "--dim", "2", "--n", "64", "--gen", "random",
                  "--seed", "9", "--output", str(path)])
        capsys.readouterr()
        _, rows = read_csv_text(path.read_text())
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([9])))
        cube = rng.random((64, 2))
        from spherecone.spheremap import lift_to_space
        np.testing.assert_array_equal(rows, lift_to_space(cube).cartesian)


def read_points_loop(path):
    """Per-element CSV reader: the reference for cli._read_points."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    if header and header[0] == "radius":
        return SpacePoints(rows[:, 1:], rows[:, 0])
    return SpacePoints.from_cartesian(rows)


class TestReadPoints:
    @pytest.mark.parametrize("polar", [False, True])
    def test_matches_loop_reader(self, capsys, tmp_path, polar):
        path = tmp_path / "pts.csv"
        cli.main(["points", "--dim", "4", "--n", "200", "--gen", "sphere",
                  "--scramble", "--seed", "8", "--output", str(path)]
                 + ["--polar"] * polar)
        capsys.readouterr()
        got, ref = cli._read_points(path), read_points_loop(path)
        np.testing.assert_array_equal(got.radii, ref.radii)
        np.testing.assert_array_equal(got.directions, ref.directions)

    @pytest.mark.parametrize("text", ["", "x1,x2,x3\n", "x1,x2,x3\n1,2,abc\n",
                                      "x1,x2,x3\n1,2,3\n1,2\n"])
    def test_empty_or_malformed_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        code, _, err = run_cli(["wce", "--input", str(path), "--mu", "1.5",
                                "--A", "1.5", "--B", "3"], capsys)
        assert code == 2 and "error" in err


    @pytest.mark.parametrize("text, message", [
        ("radius,y1,y2\n1.0,0.6,0.8\nnan,0.6,0.8\n", "radii must be finite"),
        ("x1,x2,x3\n0.5,1.0,0.2\nnan,0.2,0.3\n",
         "point coordinates must be finite")], ids=["polar", "cartesian"])
    def test_non_finite_input_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        code, _, err = run_cli(["wce", "--input", str(path), "--mu", "1.5",
                                "--A", "1.5", "--B", "3"], capsys)
        assert code == 2 and f"error: {message}" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text, huge", [
        ("radius,y1,y2,y3\n{r},0.6,0,0.8\n0.7,0,1,0\n1.5,1,0,0\n", "1e200"),
        ("x1,x2,x3\n{r},0,0\n0,0.7,0\n0,0,1.5\n", "1e300")],
        ids=["polar", "cartesian"])
    def test_overflowing_squares_are_scored(self, capsys, tmp_path, text,
                                            huge):
        # a finite radius or coordinate whose square overflows scores as
        # a radius of 1e150 does, where Phi = 1, P = 1 and the psi tail
        # is 0 already, without a warning
        reports = []
        for r in (huge, "1e150"):
            path = tmp_path / "pts.csv"
            path.write_text(text.format(r=r))
            code, out, _ = run_cli(["wce", "--input", str(path), "--mu",
                                    "1.5", "--A", "1.5", "--B", "3"], capsys)
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0] == reports[1]


def emit_csv_loop(header, rows, path):
    """Per-element csv writer: the reference for cli._emit_csv."""
    with open(path, "w", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._FMT % v if isinstance(v, float) else v
                             for v in row])


class TestEmitCsv:
    @pytest.mark.parametrize("argv", [
        ["points", "--dim", "3", "--n", "300", "--gen", "sphere",
         "--scramble", "--seed", "4"],
        ["points", "--dim", "4", "--n", "50", "--gen", "random", "--polar"],
        ["points", "--dim", "2", "--n", "16", "--gen", "sobol"],
        ["table", "--n-list", "256", "--kind", "digital"],
        ["strata", "--mu", "1.5", "--A", "1.5", "--B", "3",
         "--M-list", "16,64", "--draws", "2"],
        ["price", "--N", "64", "--reps", "4", "--gen", "sphere"],
        ["trial-integral", "--dim", "4", "--n-list", "64,256",
         "--gen", "inverse_beta,random"],
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_matches_loop_writer(self, capsys, tmp_path, monkeypatch, argv):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        assert cli.main(argv + ["--output", str(got)]) == 0
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        monkeypatch.setattr(cli, "_emit_csv", emit_csv_loop)
        assert cli.main(argv + ["--output", str(ref)]) == 0
        assert got.read_bytes() == ref.read_bytes()
        assert stdout == ref.read_bytes().decode()


class TestRmsWce:
    def test_json_fields(self, capsys, tmp_path):
        path = tmp_path / "dirs.csv"
        cli.main(["points", "--dim", "3", "--n", "8", "--gen", "sphere",
                  "--polar", "--scramble", "--output", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(["rms-wce", "--mu", "1.5", "--A", "1.5",
                                "--B", "3", "--N", "10",
                                "--input", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        p = KernelParams(1.5, 1.5, 3.0, d=2)
        assert payload["iid_constant"] == pytest.approx(wce.rms_wce_iid(p))
        assert payload["iid_expected_wce_sq"] == pytest.approx(
            wce.rms_wce_iid(p) / 10)
        assert payload["fixed_directions_expected_wce_sq"] > 0

    def test_negative_n_exit_2(self, capsys):
        code, out, err = run_cli(["rms-wce", "--mu", "1.5", "--A", "1.5",
                                  "--B", "3", "--N", "-4"], capsys)
        assert code == 2 and out == ""
        assert err == "error: --N must be >= 0, got -4\n"

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pts5.csv"
        cli.main(["points", "--dim", "5", "--n", "8", "--gen", "sphere",
                  "--output", str(path)])
        capsys.readouterr()
        code, out, err = run_cli(["rms-wce", "--mu", "1.5", "--A", "1.5",
                                  "--B", "3", "--d", "2",
                                  "--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "ambient dimension 5" in err


class TestLambda:
    def test_exact_value(self, capsys):
        code, out, _ = run_cli(["lambda", "--mu", "1", "--c", "2",
                                "--K", "4"], capsys)
        assert code == 0
        expect = 1 / 3 + 1 / 8 + 1 / 96
        assert float(out.strip()) == pytest.approx(expect, rel=1e-13)


class TestTrialIntegral:
    def test_errors_reported(self, capsys):
        code, out, _ = run_cli(
            ["trial-integral", "--dim", "4", "--n-list", "64,256",
             "--gen", "inverse_beta,random", "--seed", "1"], capsys)
        assert code == 0
        header, rows = None, []
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["generator", "N", "abs_error"]
        assert len(lines) == 5

    def test_nonpositive_n_exit_2(self, capsys):
        code, out, err = run_cli(
            ["trial-integral", "--dim", "4", "--n-list", "0,16"], capsys)
        assert code == 2 and out == ""
        assert err == "error: N must be at least 1, got 0\n"

    def test_unknown_generator_exit_2(self, capsys):
        code, out, err = run_cli(
            ["trial-integral", "--dim", "4", "--n-list", "16", "--gen",
             "foo"], capsys)
        assert code == 2 and out == ""
        assert err == "error: unknown generator 'foo'\n"

    @pytest.mark.parametrize("gen", ["inverse_beta", "inverse_normal",
                                     "random"])
    @pytest.mark.parametrize("dim", ["1", "0"])
    def test_dimension_below_two_exit_2(self, capsys, gen, dim):
        code, out, err = run_cli(
            ["trial-integral", "--dim", dim, "--n-list", "16", "--gen", gen],
            capsys)
        assert code == 2 and out == ""
        assert err == f"error: trial integral needs dim >= 2, got {dim}\n"


class TestStrata:
    def test_formula_rows_and_slope(self, capsys):
        code, out, err = run_cli(
            ["strata", "--mu", "1.5", "--A", "1.5", "--B", "3",
             "--M-list", "16,64", "--draws", "2"], capsys)
        assert code == 0
        header, rows = read_csv_text(out)
        assert header[:4] == ["M", "K", "N", "formula"]
        assert "empirical" in header
        assert rows.shape[0] == 2
        assert "slope" in err

    def test_formula_ignores_seed(self, capsys):
        # --seed seeds the --draws columns only
        runs = {run_cli(["strata", "--mu", "1.5", "--A", "1.5", "--B", "3",
                         "--M-list", "16,64", "--draws", "0", "--seed",
                         seed], capsys) for seed in ("0", "3", "7")}
        assert len(runs) == 1
        code, out, _ = runs.pop()
        assert code == 0 and out

    @pytest.mark.parametrize("argv, message", [
        (["--M-list", ""], "at least one M"),
        (["--M-list", "16,16"], "distinct"),
        (["--M-list=-4"], "positive integer"),
        (["--M-list", "16", "--draws", "1"], "draws must be 0 or at least 2"),
        (["--M-list", "16", "--draws", "-1"], "draws must be 0 or at least 2"),
    ])
    def test_bad_input_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(
            ["strata", "--mu", "1.5", "--A", "1.5", "--B", "3", *argv],
            capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("seed", ["-5", "-1001"])
    def test_negative_seed_exit_2(self, capsys, seed):
        # the message names the seed typed, not a derived draw seed
        code, out, err = run_cli(
            ["strata", "--mu", "1.5", "--A", "1.5", "--B", "3",
             "--M-list", "4,9", "--draws", "2", "--seed", seed], capsys)
        assert code == 2 and out == ""
        assert err == f"error: seed must be non-negative, got {seed}\n"

    @pytest.mark.parametrize("d", ["2", "3"])
    def test_d_option_removed(self, capsys, d):
        # strata is d = 2 only; --d is refused, not taken for --draws
        with pytest.raises(SystemExit) as exc:
            cli.main(["strata", "--mu", "1.5", "--A", "1.5", "--B", "3",
                      "--M-list", "4", "--d", d])
        assert exc.value.code == 2
        assert "unrecognized arguments: --d" in capsys.readouterr().err


class TestPriceAndTable:
    def test_price_sigma_zero(self, capsys):
        code, out, _ = run_cli(
            ["price", "--N", "64", "--reps", "4", "--sigma", "0",
             "--gen", "sobol", "--construction", "pca"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        row = lines[1].split(",")
        t = np.arange(1, 31) / 30
        expect = math.exp(-0.05) * max(
            float(np.mean(100 * np.exp(0.05 * t))) - 100, 0.0)
        assert float(row[5]) == pytest.approx(expect, abs=1e-12)

    def test_table_shape(self, capsys):
        code, out, _ = run_cli(
            ["table", "--n-list", "256", "--kind", "digital"], capsys)
        assert code == 0
        header, rows = read_csv_text(out)
        assert len(header) == 6 and rows.shape == (1, 6)
        assert rows[0, 0] == 256

    def test_indivisible_n_rejected(self, capsys):
        code, _, err = run_cli(["price", "--N", "100", "--reps", "8"],
                               capsys)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv, message", [
        (["--S0", "nan"], "S0 must be positive and finite, got nan"),
        (["--sigma", "nan"], "sigma must be nonnegative and finite, got nan"),
        (["--r", "nan"], "r must be nonnegative and finite, got nan"),
        (["--T", "inf"], "T must be positive and finite, got inf"),
        (["--K", "inf"], "K_strike must be positive and finite, got inf"),
        (["--kind", "barrier", "--barrier", "nan"],
         "barrier option needs a finite barrier_b > S0, got nan"),
    ], ids=["S0", "sigma", "r", "T", "K", "barrier"])
    def test_non_finite_contract_exit_2(self, capsys, argv, message):
        # these priced a row of nan, or a price of 0, with exit code 0
        code, out, err = run_cli(["price", "--N", "64", "--reps", "4"]
                                 + argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_zero_reps_exit_2(self, capsys):
        code, out, err = run_cli(["price", "--N", "100", "--reps", "0"],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "error: --reps must be at least 1, got 0\n"

    @pytest.mark.parametrize("n_list, message", [
        ("-5", "N must be at least 1, got -5"),
        ("0", "N must be at least 1, got 0"),
        ("256,-128", "N must be at least 1, got -128"),
        (",", "need at least one N"),
    ])
    def test_table_bad_n_list_exit_2(self, capsys, n_list, message):
        code, out, err = run_cli(["table", "--n-list", n_list], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_replicate_task_error_exit_2(self, capsys):
        # the sphere lift of a one-step path raises inside each replicate
        # task; the typed error still reaches the CLI
        code, out, err = run_cli(
            ["price", "--N", "64", "--reps", "4", "--gen", "sphere",
             "--steps", "1"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: need dimension >= 2 to split direction and "
                       "radius\n")


class TestErrors:
    def test_bad_kernel_params_exit_2(self, capsys):
        code, _, err = run_cli(["rms-wce", "--mu", "1", "--A", "3",
                                "--B", "2"], capsys)
        assert code == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(["wce", "--input", "/nonexistent.csv",
                              "--mu", "1", "--A", "1", "--B", "2"], capsys)
        assert code == 2

    def test_bad_barrier_exit_2(self, capsys):
        code, _, _ = run_cli(["price", "--N", "128", "--kind", "barrier",
                              "--barrier", "50"], capsys)
        assert code == 2

    def test_nonpositive_iid_constant_exit_3(self, capsys, monkeypatch):
        # c = 1 - (A/B)^mu - W(K) <= 0 must raise, also under python -O
        monkeypatch.setattr(wce, "w_kernel", lambda p: 1.0)
        with pytest.raises(NumericError):
            wce.rms_wce_iid(KernelParams(1.5, 1.5, 3.0, d=2))
        code, _, err = run_cli(["rms-wce", "--mu", "1.5", "--A", "1.5",
                                "--B", "3"], capsys)
        assert code == 3 and "numeric error" in err

    def test_bad_dirfile_exit_2(self, capsys, tmp_path):
        f = tmp_path / "dirs.txt"
        f.write_text("2 1 0 2\n")  # even m is invalid
        code, _, _ = run_cli(["points", "--dim", "2", "--n", "4",
                              "--gen", "sobol", "--dirfile", str(f)],
                             capsys)
        assert code == 2


# a fixed point file for the wce and rms-wce digests: eight points of R^3
GOLDEN_POINTS = """x1,x2,x3
0.5,-1.25,0.75
-0.3,0.2,1.9
1.1,0.4,-0.6
-0.8,-0.9,-0.2
0.05,1.7,0.3
2.2,-0.1,0.45
-1.4,0.6,-1.1
0.3,0.35,-0.05
"""
KERNEL_ARGS = ["--mu", "1.5", "--A", "1.5", "--B", "3"]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


NO_OUTPUT = sha256("")

# name: (argv, sha256 of stdout, sha256 of stderr, exit code); "{points}"
# in an argv stands for the path of a file holding GOLDEN_POINTS
GOLDEN = {
    "points-sphere": (
        ["points", "--dim", "3", "--n", "16", "--gen", "sphere",
         "--scramble", "--seed", "2"],
        "7965b049127b5bc90788832a39afeea71c0ab4bd2b33a4f3e96bf53464311b93",
        NO_OUTPUT, 0),
    "points-sobol": (
        ["points", "--dim", "2", "--n", "8", "--gen", "sobol", "--scramble",
         "--seed", "1"],
        "05b922e548608de58764a2efc50bef1e0502646b2f9d79e5b20cf72ae48a117a",
        NO_OUTPUT, 0),
    "points-random": (
        ["points", "--dim", "3", "--n", "8", "--gen", "random", "--seed",
         "5"],
        "ea75f10a7152e74e51b244493ec5ff1e76d0de63f3175641230c13dfe355b109",
        NO_OUTPUT, 0),
    "points-polar": (
        ["points", "--dim", "4", "--n", "8", "--gen", "sphere", "--polar",
         "--seed", "3"],
        "6d719f3ed404f10b314868931f3b09d9f2a90a4542ef259845d8435112e6b714",
        NO_OUTPUT, 0),
    "sphere-map-sobol": (
        ["sphere-map", "--dim", "3", "--n", "16", "--gen", "sobol",
         "--scramble", "--seed", "2"],
        "7eea0dd5328adbc94a8c483d94d8d62fe4f21a58a636773df7f497e7ce50bdf2",
        NO_OUTPUT, 0),
    "sphere-map-random": (
        ["sphere-map", "--dim", "2", "--n", "8", "--gen", "random", "--seed",
         "4"],
        "ec405f3a8cbb22961f6950df6a24b77c06df5ccaceac0b2776d745a6f683702b",
        NO_OUTPUT, 0),
    "wce": (
        ["wce", "--input", "{points}", *KERNEL_ARGS],
        "81073b67489565193a93b16153048a857e2028c7171d1e8fcf70319c2128996e",
        NO_OUTPUT, 0),
    "rms-wce": (
        ["rms-wce", *KERNEL_ARGS, "--N", "8", "--input", "{points}"],
        "5748983f16eae533919d2564685dcdab48922389706d4b13f7bc0b1b73a61a24",
        NO_OUTPUT, 0),
    "trial-integral-inverse_beta": (
        ["trial-integral", "--dim", "4", "--n-list", "16,64", "--gen",
         "inverse_beta", "--seed", "1"],
        "7ba5e07411d364d41e699e9c227007b3b5077dd574b36966a4ee6f8e175c97a6",
        NO_OUTPUT, 0),
    "trial-integral-inverse_normal": (
        ["trial-integral", "--dim", "4", "--n-list", "16,64", "--gen",
         "inverse_normal", "--seed", "1"],
        "906cbea7c77efaea5cda9231947408c60567920275e552d256031e7ed7199927",
        NO_OUTPUT, 0),
    "trial-integral-random": (
        ["trial-integral", "--dim", "4", "--n-list", "16,64", "--gen",
         "random", "--seed", "1"],
        "7c883943622df45667e147e76b215cfada97d3ac7f35ec121889ad3a10dad694",
        NO_OUTPUT, 0),
    "strata": (
        ["strata", *KERNEL_ARGS, "--M-list", "4,9", "--draws", "2", "--seed",
         "3"],
        "cd8fdce95671864b3b52aae8a0451fcdeba2d089bec08a09f3b2649ede64914d",
        "6f913f8d70a8da707204937d2a0984e25e5a3f98e32f386384d3d5a80442faed",
        0),
    "lambda": (
        ["lambda", "--mu", "1.5", "--c", "2", "--K", "8"],
        "fc7db843b8f0d99b1c62b565e0552cf1231fa28af85c5dca13ebb29edf330958",
        NO_OUTPUT, 0),
    "price-mc": (
        ["price", "--N", "64", "--reps", "4", "--gen", "mc"],
        "6f34a659fa422d3bed080a22c4d50c2382039a7f5fa19786ad782066ccd7063b",
        NO_OUTPUT, 0),
    "price-sobol": (
        ["price", "--N", "64", "--reps", "4", "--gen", "sobol"],
        "bdc27c04c0ee093593109925b54c4dc43e175a3f43be11c7d2a41b0ff853b97d",
        NO_OUTPUT, 0),
    "price-sphere": (
        ["price", "--N", "64", "--reps", "4", "--gen", "sphere"],
        "bea367f42ade0917aa604a165e918438b05b1c345c7e1673bc6a30f55cb00b9b",
        NO_OUTPUT, 0),
    "table": (
        ["table", "--n-list", "256"],
        "1c0ba933730d2480ccc4fdfe56315c5ccf22367356a5d6a2cf56d1a45d50d1d4",
        NO_OUTPUT, 0),
}


class TestGolden:
    """Every subcommand's stdout, stderr and exit code, pinned by digest
    so that a refactor which is meant to keep outputs byte-identical is
    checked as such; a deliberate change of an output re-pins its entry."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_digest(self, capsys, tmp_path, name):
        argv, out_sha, err_sha, want_code = GOLDEN[name]
        points = tmp_path / "points.csv"
        points.write_text(GOLDEN_POINTS)
        argv = [str(points) if a == "{points}" else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (sha256(out), sha256(err), code) == (out_sha, err_sha,
                                                    want_code)


class TestConsoleScript:
    def test_entry_point_runs(self):
        out = subprocess.run(
            [sys.executable, "-m", "spherecone.cli", "lambda", "--mu", "1",
             "--c", "2", "--K", "16"],
            capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert float(out.stdout.strip()) > 0

    @pytest.mark.parametrize("argv", [
        ["price", "--N", "64", "--reps", "4"],
        ["strata", "--mu", "1.5", "--A", "1.5", "--B", "3", "--M-list", "4,9",
         "--draws", "2"]], ids=["price", "strata"])
    def test_does_not_load_quadrature(self, argv):
        # no command imports scipy.integrate; only the test oracles use it
        code = ("import sys; from spherecone import cli; "
                f"rc = cli.main({argv!r}); "
                "print(rc, 'scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_import_leaves_out_multiprocessing(self):
        # the worker pool forks bare processes; importing it would add
        # some milliseconds to every start of the command
        code = ("import sys, spherecone.cli; "
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert out.stdout.strip() == "False"

    def test_dirfile_env_var(self, tmp_path):
        f = tmp_path / "dirs.txt"
        f.write_text("2 1 0 1\n")
        out = subprocess.run(
            [sys.executable, "-m", "spherecone.cli", "points", "--dim", "3",
             "--n", "4", "--gen", "sobol"],
            capture_output=True, text=True,
            env=child_env(SPHERECONE_DIRFILE=str(f)))
        # the two-dimension table cannot serve dimension 3; the embedded
        # table serves 192, so this message shows the child read the file
        assert out.returncode == 2
        assert "at most 2 dimensions" in out.stderr
