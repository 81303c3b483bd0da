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
import subprocess
import sys

import pytest

from crn_sense import analytic, montecarlo
from crn_sense.cli import build_parser, main
from crn_sense.detector import ThresholdPair
from crn_sense.montecarlo import TrialConfig
from oracles import noncentral_chi2_sf_oracle

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    @pytest.mark.parametrize("which", ["2", "5"])
    def test_levels_are_in_units_of_the_noise(self, tmp_path, which):
        # the tables' pair is taken at unit noise: --samples and
        # --noise-var are validated and recorded, never computed with
        plain, scaled = str(tmp_path / "plain.csv"), str(tmp_path / "scaled.csv")
        assert main(["tables", "--which", which, "--out", plain]) == 0
        assert main(["tables", "--which", which, "--noise-var", "3", "--samples", "50", "--out", scaled]) == 0
        assert read(scaled) == read(plain)

    def test_samples_are_still_validated(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        assert main(["tables", "--which", "2", "--samples", "0", "--out", out]) == 2
        assert "num_samples must be an integer >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)


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

    def test_tiny_band_brackets_the_energy(self, capsys):
        # 0.3125 of the band, as on 0..1; a product sign test underflowed
        # here and walked up to 9.375e-301
        argv = ["bisect", "--lambda-low", "0", "--lambda-high", "1e-300", "--energy", "3e-301"]
        assert main(argv) == 0
        assert float(capsys.readouterr().out.splitlines()[-1]) == pytest.approx(3.125e-301, rel=1e-15, abs=0.0)

    def test_huge_band_midpoints_stay_in_band(self, capsys):
        # 1e308 + 1.5e308 overflows; every midpoint printed as inf
        argv = ["bisect", "--lambda-low", "1e308", "--lambda-high", "1.5e308", "--energy", "1.2e308"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "1.25e+308,1.125e+308,1.1875e+308,1.21875e+308\n1.21875e+308\n"

    def test_depth_past_the_last_moving_midpoint_is_usage_error(self, capsys):
        assert main(["bisect", "--energy", "14", "--max-iter", "100000000"]) == 2
        assert "max_iter must lie in [1, 2099], got 100000000" in capsys.readouterr().err

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
        montecarlo._block.cache_clear()
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

    def test_only_the_band_width_is_used(self, tmp_path):
        # each grid point lambda gets the band (lambda, lambda + width)
        main(self.ARGS + ["--out", str(tmp_path / "a.csv"), "--lambda-low", "12", "--lambda-high", "18"])
        main(self.ARGS + ["--out", str(tmp_path / "b.csv"), "--lambda-low", "0", "--lambda-high", "6"])
        for suffix in ("single", "double", "optimum"):
            assert (tmp_path / f"a_{suffix}.csv").read_bytes() == (tmp_path / f"b_{suffix}.csv").read_bytes(), suffix

    def test_sample_window_sum_past_the_largest_double(self, tmp_path):
        # a 1000-sample window's sum of squares passes the largest
        # double at this noise variance, though its mean does not
        out = str(tmp_path / "huge.csv")
        args = [
            "roc", "--model", "sample", "--noise-var", "1e306", "--grid", "0.9e306:1.1e306:3",
            "--lambda-low", "0", "--lambda-high", "0", "--trials", "2048", "--seed", "1", "--out", out,
        ]
        assert main(args) == 0
        for row in rows_of(str(tmp_path / "huge_single.csv")):
            for rate in ("pf", "pd"):
                emp, ci, analytic = (float(row[f"{rate}{column}"]) for column in ("_emp", "_ci", "_analytic"))
                assert abs(emp - analytic) <= 4 * ci, (row["lambda"], rate, emp, analytic)

    def test_order_1000_thresholds_past_x_700_match_scipy(self, tmp_path):
        # every level puts b^2/2 near 1000, past x = 700, where each
        # tail after the first adds one log-space term to the one before
        out = str(tmp_path / "u1000.csv")
        args = [
            "roc", "--model", "chisq", "--u", "1000", "--grid", "1900:2100:31", "--lambda-low", "0",
            "--lambda-high", "20", "--max-iter", "8", "--trials", "200", "--out", out,
        ]
        assert main(args) == 0
        noncentrality = 2.0 * 10.0 ** (-14.0 / 10.0)
        for suffix, shift in (("single", 0.0), ("double", 20.0)):
            for row in rows_of(str(tmp_path / f"u1000_{suffix}.csv")):
                level = float(row["lambda"]) + shift
                pf, pd = float(row["pf_analytic"]), float(row["pd_analytic"])
                assert abs(pf - noncentral_chi2_sf_oracle(level, 2000, 0.0)) <= 5e-12, (suffix, level)
                assert abs(pd - noncentral_chi2_sf_oracle(level, 2000, noncentrality)) <= 5e-12, (suffix, level)
                assert pd >= pf - 1.2e-12, (suffix, level)


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

    def test_huge_band_raises_no_warning(self, tmp_path, capsys):
        # pytest turns warnings into errors; a product sign test overflowed here
        out = str(tmp_path / "c.csv")
        assert main(["collision", "--pair", "0:1e308", "--energy", "5", "--trials", "10", "--out", out]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            assert float(next(csv.DictReader(fh))["lambda_opt"]) == 1e308 / 16
        capsys.readouterr()

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

        monkeypatch.setattr(montecarlo, "draw_statistics", no_draw)
        out = str(tmp_path / "r.csv")
        # a negative lower level is rejected; a 30 dB Marcum series fails
        assert main(["roc", "--model", "sample", "--grid=-1:1:3", "--trials", "20000", "--out", out]) == 2
        assert "lambda_low" in capsys.readouterr().err
        assert main(["roc", "--snr-db", "30", "--trials", "20000", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "SNR a^2/2 = 1000 (30.00 dB)" in err and "28.50 dB" in err
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_tiny_noise_variance_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(montecarlo, "draw_statistics", no_draw)
        out = str(tmp_path / "r.csv")
        # the top level 20 + 6 over 1e-320 overflows; the closed forms
        # reported it as an inf threshold
        argv = ["roc", "--noise-var", "1e-320", "--grid", "10:20:3", "--trials", "10", "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --noise-var 1e-320 is too small for level 26.0: their ratio is no finite double\n"
        )
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_order_above_10_6_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(montecarlo, "draw_statistics", no_draw)
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

    def test_oversized_block_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # a 1024-trial block of more than 2^23 normals is refused before
        # any block is filled
        def no_fill(*args, **kwargs):
            raise AssertionError("block filled before the failure")

        monkeypatch.setattr(montecarlo, "_block", no_fill)
        out = str(tmp_path / "r.csv")
        assert main(["roc", "--model", "chisq", "--u", "1000000", "--trials", "2000", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "chisq model" in err and "time_bandwidth=1000000" in err
        assert main(["roc", "--model", "sample", "--samples", "8193", "--trials", "2000", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "sample model" in err and "num_samples=8193" in err
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_allocation_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(montecarlo, "draw_statistics", no_memory)
        out = str(tmp_path / "r.csv")
        assert main(["roc", "--trials", "1000000000000", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("memory failure: Unable to allocate 7.28 TiB")
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_depth_past_an_ulp_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(montecarlo, "draw_statistics", no_draw)
        out = str(tmp_path / "r.csv")
        # the top grid level comes first: the 12..18 width at 30
        assert main(["roc", "--max-iter", "60", "--out", out]) == 2
        assert "max_iter=60 splits band 30.0..36.0" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_collision_fails_before_drawing_trials(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        # collision draws each hypothesis on its own, not through draw_statistics
        monkeypatch.setattr(montecarlo, "_statistics", no_draw)
        out = str(tmp_path / "c.csv")
        # the sensed energy lies outside the band, so no threshold resolves
        argv = ["collision", "--pair", "12:18", "--energy", "30", "--trials", "20000", "--out", out]
        assert main(argv) == 2
        assert "outside the fuzzy band" in capsys.readouterr().err
        assert not os.path.exists(out)
        with pytest.raises(ValueError, match="outside the fuzzy band"):
            montecarlo.collision_sweep([ThresholdPair(12.0, 18.0)], [30.0], TrialConfig(num_trials=20000, seed=0))

    def test_snr_past_a_finite_power_ratio_is_usage_error(self, tmp_path, capsys):
        table = str(tmp_path / "t.csv")
        assert main(["tables", "--which", "2", "--snr-db", "3090", "--out", table]) == 2
        assert "at most 3082.547155599167 dB, got 3090.0" in capsys.readouterr().err
        assert not os.path.exists(table)

    def test_subnormal_marcum_start_is_runtime_error(self, tmp_path, capsys):
        # at 28.72 dB the series started from a subnormal exp(-a^2/2) and
        # wrote pd_analytic 0.265 at 1520, where ncx2.sf gives 0.391
        out = str(tmp_path / "r.csv")
        argv = ["roc", "--model", "chisq", "--snr-db", "28.72", "--grid", "1440:1520:3",
                "--lambda-low", "0", "--lambda-high", "1", "--trials", "10", "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "(28.72 dB)" in err and "28.50 dB" in err
        assert not os.path.exists(str(tmp_path / "r_single.csv"))

    def test_any_arithmetic_error_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(analytic, "pd_marcum", overflow)
        assert main(["tables", "--which", "2", "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == "numeric failure: math range error\n"


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

    def test_trials_help_says_how_each_command_counts(self, capsys):
        # roc draws --trials under each hypothesis; collision splits
        # them, H1 taking the odd one, so it needs at least 2
        def trials_help(command):
            assert main([command, "--help"]) == 0
            text = " ".join(capsys.readouterr().out.split())
            return text[text.rindex("--trials TRIALS") :]

        assert trials_help("roc").startswith("--trials TRIALS Monte Carlo trials per hypothesis --seed")
        assert trials_help("collision").startswith(
            "--trials TRIALS Monte Carlo trials in all, split between H0 and H1 (H1 gets the odd one), "
            "so at least 2 --seed"
        )


class TestCpuDispatch:
    """CSV bytes do not follow numpy's SIMD dispatch level.

    The statistics' bits may (numpy's tan and log1p round differently
    with and without AVX512), but the counts and closed forms in the
    CSVs must not. A run with every dispatched target disabled through
    NPY_DISABLE_CPU_FEATURES is compared with a default run; each child
    prints the dispatched targets it has enabled before running the
    command, so a setting that did not take shows.
    """

    CHILD = (
        "import sys\n"
        "from numpy._core import _multiarray_umath as umath\n"
        "from crn_sense.cli import main\n"
        "print(' '.join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    ARGS = {
        "sample": ["--model", "sample", "--grid", "0.9:1.1:5", "--lambda-low", "0.97", "--lambda-high", "1.03"],
        "chisq": ["--model", "chisq", "--grid", "6:18:5"],
    }

    def run(self, out, argv, disabled):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", self.CHILD, *argv, "--out", out],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    @pytest.mark.parametrize("model", ["sample", "chisq"])
    def test_csv_bytes_do_not_follow_the_dispatch(self, tmp_path, model):
        dispatched = list(pytest.importorskip("numpy._core._multiarray_umath").__cpu_dispatch__)
        if not dispatched:
            pytest.skip("numpy dispatches no target above its baseline on this build")
        argv = ["roc", *self.ARGS[model], "--trials", "4096", "--seed", "3"]
        self.run(str(tmp_path / "default.csv"), argv, [])
        assert self.run(str(tmp_path / "baseline.csv"), argv, dispatched) == []
        for suffix in ("single", "double", "optimum"):
            default = (tmp_path / f"default_{suffix}.csv").read_bytes()
            assert (tmp_path / f"baseline_{suffix}.csv").read_bytes() == default, suffix
