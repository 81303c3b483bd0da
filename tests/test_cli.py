"""End-to-end CLI tests.

The table goldens under tests/golden/ were produced by the CLI
itself, then spot-audited cell by cell against the frozen analytic
pins before being committed; comparing bytes here keeps header
wording, column order, and the %.17g cell format all locked at once.
The roc and collision goldens were recorded the same way and pin the
Monte Carlo columns too, which are fixed by the seed. The 20 dB
tables and the 25 dB chi-square roc pin the regime where the Marcum
series runs to hundreds of terms; they were recorded while each term
still called reg_upper_gamma afresh, so they hold the running-sum
series to the bytes of the plain one. The default-SNR tables 3 and 4,
the roc and collision goldens and the bisect trace were all recorded
while their headers were spelled-out literals, so they hold the
named-column rows to the bytes of those headers.
"""

from __future__ import annotations

import csv
import os

import pytest

from crn_sense import cli, montecarlo
from crn_sense.cli import build_parser, main
from crn_sense.detector import ThresholdPair
from crn_sense.montecarlo import TrialConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def rows_of(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestTables:
    @pytest.mark.parametrize("which", ["2", "3", "4", "5"])
    def test_matches_golden(self, tmp_path, which):
        out = str(tmp_path / f"t{which}.csv")
        assert main(["tables", "--which", which, "--out", out]) == 0
        assert read(out) == read(os.path.join(GOLDEN_DIR, f"tables{which}.csv"))

    @pytest.mark.parametrize("which", ["2", "3", "4", "5"])
    def test_20db_matches_golden(self, tmp_path, which):
        # at 20 dB the Marcum series runs to a few hundred terms, so these
        # pin the long-series bytes that the default -14 dB tables do not
        out = str(tmp_path / f"t{which}.csv")
        assert main(["tables", "--which", which, "--snr-db", "20", "--out", out]) == 0
        assert read(out) == read(os.path.join(GOLDEN_DIR, f"tables{which}_20db.csv"))

    def test_table2_resolved_thresholds(self, tmp_path):
        out = str(tmp_path / "t2.csv")
        main(["tables", "--which", "2", "--out", out])
        got = [float(row["lambda_opt"]) for row in rows_of(out)]
        assert got == [12.375, 13.875, 17.625, 15.375, 16.125, 17.625, 16.875, 17.625]

    def test_table3_and_4_shape(self, tmp_path):
        out3 = str(tmp_path / "t3.csv")
        out4 = str(tmp_path / "t4.csv")
        assert main(["tables", "--which", "3", "--out", out3]) == 0
        assert main(["tables", "--which", "4", "--out", out4]) == 0
        rows3, rows4 = rows_of(out3), rows_of(out4)
        assert len(rows3) == len(rows4) == 8
        assert "paper_printed_pf_opt" in rows3[0]
        assert "paper_printed_deterioration" in rows3[0]
        assert "paper_printed_pm_opt" in rows4[0]
        assert "paper_printed_improvement" in rows4[0]

    def test_table5_published_thresholds(self, tmp_path):
        out = str(tmp_path / "t5.csv")
        main(["tables", "--which", "5", "--out", out])
        got = [float(row["lambda_opt"]) for row in rows_of(out)]
        assert got == [14.75, 21.0625, 15.0, 13.8125, 13.375, 14.0, 13.6875, 14.8125]

    def test_manifest_written(self, tmp_path):
        out = str(tmp_path / "t2.csv")
        main(["tables", "--which", "2", "--out", out])
        manifest = read(out + ".manifest.txt")
        lines = manifest.strip().splitlines()
        assert lines[0] == "command=tables"
        assert lines[1].startswith("version=")
        assert f"outputs={out}" in lines
        assert lines[-1].startswith("duration_seconds=")
        assert "which=2" in lines


class TestBisect:
    def test_stdout_trace(self, capsys):
        assert main(["bisect", "--energy", "12.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "15,13.5,12.75,12.375\n12.375\n"

    def test_stdout_tie_trace(self, capsys):
        code = main([
            "bisect", "--lambda-low", "7", "--lambda-high", "22", "--energy", "14.5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == "14.5,18.25,20.125,21.0625\n21.0625\n"

    def test_trace_csv(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        assert main(["bisect", "--energy", "12.5", "--out", out]) == 0
        capsys.readouterr()
        assert read(out) == (
            "iteration,midpoint,is_final\n"
            "1,15,0\n2,13.5,0\n3,12.75,0\n4,12.375,1\n"
        )
        assert os.path.exists(out + ".manifest.txt")

    def test_energy_outside_band_is_usage_error(self, capsys):
        assert main(["bisect", "--energy", "25"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sensing_flags_are_not_accepted(self, capsys):
        # the trace depends on the band, the energy and the depth only
        for flag, value in (("--snr-db", "99"), ("--u", "3"), ("--samples", "7"), ("--noise-var", "5")):
            assert main(["bisect", "--energy", "12.5", flag, value]) == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err


class TestRoc:
    ARGS = [
        "roc", "--grid", "6:18:5", "--trials", "2048", "--seed", "3",
    ]

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("roc_chisq", []),
            ("roc_sample", ["--model", "sample", "--grid", "0.9:1.1:5", "--lambda-low", "0.97", "--lambda-high", "1.03"]),
            (
                "roc_chisq25",
                ["--snr-db", "25", "--grid", "630:660:3", "--lambda-low", "0", "--lambda-high", "30", "--seed", "5"],
            ),
        ],
    )
    def test_matches_golden(self, tmp_path, name, extra):
        out = str(tmp_path / f"{name}.csv")
        assert main(self.ARGS + extra + ["--out", out]) == 0
        for suffix in ("single", "double", "optimum"):
            got = read(str(tmp_path / f"{name}_{suffix}.csv"))
            assert got == read(os.path.join(GOLDEN_DIR, f"{name}_{suffix}.csv")), suffix

    def test_writes_three_variant_files(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        assert main(self.ARGS + ["--out", out]) == 0
        for suffix in ("single", "double", "optimum"):
            path = str(tmp_path / f"curve_{suffix}.csv")
            content = read(path)
            assert content.splitlines()[0] == "lambda,pf_analytic,pd_analytic,pf_emp,pd_emp,pf_ci,pd_ci"
            assert len(content.splitlines()) == 6
        manifest = read(out + ".manifest.txt")
        assert "command=roc" in manifest
        assert "curve_single.csv" in manifest and "curve_optimum.csv" in manifest

    def test_zero_threshold_row_is_all_ones(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        main(["roc", "--grid", "0:0:1", "--trials", "1024", "--seed", "3", "--out", out])
        row = rows_of(str(tmp_path / "curve_single.csv"))[0]
        assert float(row["pf_emp"]) == 1.0
        assert float(row["pd_emp"]) == 1.0
        assert float(row["pf_analytic"]) == 1.0
        assert float(row["pd_analytic"]) == 1.0

    def test_chunk_count_leaves_bytes_unchanged(self, tmp_path):
        serial = str(tmp_path / "serial.csv")
        threaded = str(tmp_path / "threaded.csv")
        main(self.ARGS + ["--out", serial, "--chunks", "1"])
        main(self.ARGS + ["--out", threaded, "--chunks", "4"])
        for suffix in ("single", "double", "optimum"):
            a = read(str(tmp_path / f"serial_{suffix}.csv"))
            b = read(str(tmp_path / f"threaded_{suffix}.csv"))
            assert a == b, suffix

    def test_rows_ordered_by_decreasing_threshold(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        main(self.ARGS + ["--out", out])
        lams = [float(r["lambda"]) for r in rows_of(str(tmp_path / "curve_single.csv"))]
        assert lams == sorted(lams, reverse=True)

    def test_single_and_double_views_are_shifted(self, tmp_path):
        # the double detector's upper level sits one band width above,
        # so its row at lambda equals the single row at lambda + width
        out = str(tmp_path / "curve.csv")
        main(self.ARGS + ["--out", out, "--lambda-low", "12", "--lambda-high", "18"])
        single = {float(r["lambda"]): r for r in rows_of(str(tmp_path / "curve_single.csv"))}
        double = {float(r["lambda"]): r for r in rows_of(str(tmp_path / "curve_double.csv"))}
        assert double[12.0]["pf_emp"] == single[18.0]["pf_emp"]
        assert double[12.0]["pd_emp"] == single[18.0]["pd_emp"]


class TestCollision:
    def test_published_bands(self, tmp_path):
        out = str(tmp_path / "coll.csv")
        code = main([
            "collision", "--paper-table5", "--trials", "4096", "--seed", "9", "--out", out,
        ])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 8
        assert [float(r["lambda_opt"]) for r in rows] == [
            14.75, 21.0625, 15.0, 13.8125, 13.375, 14.0, 13.6875, 14.8125,
        ]
        assert all(float(r["sensed_energy"]) == 14.5 for r in rows)
        assert read(out) == read(os.path.join(GOLDEN_DIR, "collision_table5.csv"))

    def test_explicit_pairs(self, tmp_path):
        out = str(tmp_path / "coll.csv")
        code = main([
            "collision", "--pair", "12:18", "--pair", "8:20", "--energy", "14.5",
            "--trials", "2048", "--seed", "9", "--out", out,
        ])
        assert code == 0
        rows = rows_of(out)
        assert [float(r["lambda_opt"]) for r in rows] == [14.625, 14.75]

    def test_usage_errors(self, tmp_path, capsys):
        out = str(tmp_path / "coll.csv")
        assert main(["collision", "--out", out]) == 2
        assert main(["collision", "--pair", "12:18", "--out", out]) == 2  # no --energy
        assert main([
            "collision", "--paper-table5", "--pair", "12:18", "--energy", "1", "--out", out,
        ]) == 2
        assert main(["collision", "--paper-table5", "--energy", "3", "--out", out]) == 2
        assert main([
            "collision", "--pair", "18:12", "--energy", "14.5", "--out", out,
        ]) == 2
        capsys.readouterr()


class TestSeedResolution:
    ARGS = ["collision", "--pair", "12:18", "--energy", "14.5", "--trials", "2048"]

    def test_env_seed_matches_flag_seed(self, tmp_path, monkeypatch):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        monkeypatch.delenv("CRN_SENSE_SEED", raising=False)
        main(self.ARGS + ["--seed", "77", "--out", a])
        monkeypatch.setenv("CRN_SENSE_SEED", "77")
        main(self.ARGS + ["--out", b])
        assert read(a) == read(b)

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        monkeypatch.setenv("CRN_SENSE_SEED", "123456")
        main(self.ARGS + ["--seed", "77", "--out", a])
        monkeypatch.delenv("CRN_SENSE_SEED")
        main(self.ARGS + ["--seed", "77", "--out", b])
        assert read(a) == read(b)

    def test_garbage_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CRN_SENSE_SEED", "not-a-number")
        assert main(self.ARGS + ["--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()

    def test_seed_recorded_in_manifest(self, tmp_path, monkeypatch):
        out = str(tmp_path / "a.csv")
        monkeypatch.delenv("CRN_SENSE_SEED", raising=False)
        main(self.ARGS + ["--seed", "77", "--out", out])
        assert "seed=77" in read(out + ".manifest.txt")


class TestExitCodes:
    def test_unwritable_output_is_runtime_error(self, capsys):
        code = main(["tables", "--which", "2", "--out", "/nonexistent-dir/t.csv"])
        assert code == 1
        assert "i/o failure" in capsys.readouterr().err

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "crn-sense" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        code = main(["roc", "--grid", "5:1:10", "--trials", "16", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        capsys.readouterr()

    def test_roc_fails_before_drawing_trials(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(cli, "draw_statistics", no_draw)
        out = str(tmp_path / "r.csv")
        # a negative lower level is rejected; a 30 dB Marcum series fails
        assert main(["roc", "--model", "sample", "--grid=-1:1:3", "--trials", "20000", "--out", out]) == 2
        assert "lambda_low" in capsys.readouterr().err
        assert main(["roc", "--snr-db", "30", "--trials", "20000", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "SNR a^2/2 = 1000 (30.00 dB)" in err and "28.7 dB" in err
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_order_above_10_6_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(cli, "draw_statistics", no_draw)
        table = str(tmp_path / "t.csv")
        assert main(["tables", "--which", "2", "--u", "2000000", "--out", table]) == 2
        err = capsys.readouterr().err
        assert "integer order" in err and "2000000" in err
        assert not os.path.exists(table)
        out = str(tmp_path / "r.csv")
        assert main(["roc", "--model", "chisq", "--u", "2000000", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "integer order" in err and "2000000" in err
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_collision_fails_before_drawing_trials(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(montecarlo, "draw_statistics", no_draw)
        out = str(tmp_path / "c.csv")
        # the sensed energy lies outside the band, so no threshold resolves
        argv = ["collision", "--pair", "12:18", "--energy", "30", "--trials", "20000", "--out", out]
        assert main(argv) == 2
        assert "outside the fuzzy band" in capsys.readouterr().err
        assert not os.path.exists(out)
        with pytest.raises(ValueError, match="outside the fuzzy band"):
            montecarlo.collision_sweep([ThresholdPair(12.0, 18.0)], [30.0], TrialConfig(num_trials=20000, seed=0))


class TestParser:
    def test_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["roc", "--out", "x.csv"])
        assert args.model == "chisq"
        assert args.mode == "baseband"
        assert args.trials == 100000
        assert args.seed is None
        assert args.max_iter == 4
        assert (args.lambda_low, args.lambda_high) == (12.0, 18.0)
