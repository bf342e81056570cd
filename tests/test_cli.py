"""Tests for the command-line data exporters."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from spindiscord import cli, correlators, distribution, spinchain
from spindiscord.spinchain import ConvergenceError


ABOVE_MAX_DELTA = ("delta=5000.0 above 1000: the energy's rounding there exceeds the Lanczos "
                   "tolerance 1e-12")


def run(argv):
    return cli.main(argv)


def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestGroundStateCommand:
    def test_prints_energy(self, tmp_path, capsys):
        code = run(["ground-state", "--n", "4", "--delta", "1.0"] + cache_args(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        energy = float(out.splitlines()[0].split()[1])
        assert out.startswith("energy ")
        assert energy == approx(-2.0, abs=1e-9)

    def test_odd_ring_is_usage_error(self, tmp_path, capsys):
        code = run(["ground-state", "--n", "3", "--delta", "1.0"] + cache_args(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "even" in err

    def test_ferromagnetic_regime_is_usage_error(self, tmp_path, capsys):
        code = run(["ground-state", "--n", "12", "--delta", "-2.0"] + cache_args(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "polarized" in err

    def test_tolerance_window_enforced(self, tmp_path, capsys):
        # The solver tolerance is the constant spinchain.TOL: --tol is refused as unknown.
        out_file = tmp_path / "out.txt"
        code = run(["ground-state", "--n", "8", "--tol", "1e-10", "--out", str(out_file)]
                   + cache_args(tmp_path))
        assert code == 1
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
        assert not out_file.exists()
        assert not (tmp_path / "cache").exists()

    def test_json_document(self, tmp_path, capsys):
        code = run(
            ["ground-state", "--n", "4", "--delta", "1.0", "--format", "json"]
            + cache_args(tmp_path)
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["energy"] == approx(-2.0, abs=1e-9)
        assert doc["config"]["n"] == 4
        assert doc["cache"].endswith(".bin")

    def test_writes_cache_entry(self, tmp_path, capsys):
        cache = tmp_path / "warm"
        code = run(["ground-state", "--n", "6", "--delta", "0.5", "--cache-dir", str(cache)])
        capsys.readouterr()
        assert code == 0
        assert list(cache.glob("gs_n06_*.bin"))

    def test_env_var_sets_cache_dir(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "from_env"
        monkeypatch.setenv("SPINDISCORD_CACHE", str(cache))
        code = run(["ground-state", "--n", "4", "--delta", "1.0"])
        capsys.readouterr()
        assert code == 0
        assert list(cache.glob("gs_n04_*.bin"))

    @pytest.mark.parametrize(
        "argv", [["ground-state", "--n", "8"], ["fig3", "--n", "8", "--delta-range", "0:1:0.5"]]
    )
    def test_empty_env_var_is_the_default_cache(self, tmp_path, capsys, monkeypatch, argv):
        """An empty SPINDISCORD_CACHE counts as unset: entries go to ./cache, not the cwd."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPINDISCORD_CACHE", "")
        code = run(argv + ["--deterministic"])
        capsys.readouterr()
        assert code == 0
        assert list(tmp_path.glob("gs_*.bin")) == []
        assert list((tmp_path / "cache").glob("gs_n08_*.bin"))

    def test_empty_cache_dir_refused(self, tmp_path, capsys, monkeypatch):
        """An empty --cache-dir is refused before the n > 22 warning, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        code = run(["ground-state", "--n", "24", "--cache-dir", "", "--out", "out.txt"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --cache-dir is empty"]
        assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_bad_range(self, capsys):
        assert run(["fig1", "--delta-range", "1:0:0.5"]) == 1
        assert run(["fig1", "--delta-range", "0.5-1.5"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["-inf:0:0.5", "0:inf:0.5", "0:1:inf"])
    def test_non_finite_range_rejected(self, tmp_path, capsys, text):
        assert run(["fig3", "--n", "4", "--delta-range", text] + cache_args(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --delta-range: range {text!r} is not finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ["0:1:1e-320", "0:1:1e-12", "0:1:1e-6"])
    def test_oversized_range_refused_before_any_list(self, tmp_path, capsys, text):
        tracemalloc.start()
        try:
            code = run(["fig3", "--n", "4", "--delta-range", text] + cache_args(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"range {text!r} has more than 1,000,000 points" in captured.err
        assert "Traceback" not in captured.err
        assert peak < 1 << 20  # a 10^6-point list alone would take ~ 32 MB

    def test_range_repeating_rounded_points_refused(self, tmp_path, capsys):
        text = "0:1e-10:1e-13"  # 1,001 points, 101 of them distinct at 12 decimals
        assert run(["fig3", "--n", "4", "--delta-range", text] + cache_args(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"range {text!r} repeats points once rounded to 12 decimals" in captured.err
        assert "Traceback" not in captured.err

    def test_range_at_the_rounding_step_keeps_every_point(self):
        points = cli._range_arg("0:1e-10:1e-12")
        assert len(points) == len(set(points)) == 101
        assert points == sorted(points)

    @pytest.mark.parametrize(
        "command, count, first, last",
        [("fig3", 81, -1.5, 2.5), ("fig4", 41, 0.0, 2.0), ("fig6", 21, 0.0, 2.0)],
    )
    def test_default_grids_unchanged(self, command, count, first, last):
        grid = cli._build_parser().parse_args([command]).delta_range
        assert (len(grid), grid[0], grid[-1]) == (count, first, last)
        assert len(set(grid)) == count
        assert 1.0 in grid and 0.0 in grid

    def test_range_point_limit_is_inclusive(self):
        # 0:1:1e-6 (refused above) has 1,000,001 points; one step less is allowed
        assert len(cli._range_arg("0:0.999999:1e-6")) == 1_000_000

    @pytest.mark.parametrize(
        "argv, message",
        [(["ground-state", "--delta", "inf"], "delta=inf is not finite"),
         (["fig2", "--delta", "nan"], "delta=nan is not finite")],
    )
    def test_non_finite_delta_rejected(self, tmp_path, capsys, argv, message):
        out_file = tmp_path / "out.csv"
        code = run(argv + ["--n", "8", "--out", str(out_file)] + cache_args(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "polarized" not in err
        assert not out_file.exists()

    # 24: refused before the large-ring warning
    @pytest.mark.parametrize("n, r", [("8", "9"), ("24", "30")], ids=["8", "24"])
    def test_bad_separation_refused_before_a_polarized_row(self, tmp_path, capsys, n, r):
        out_file = tmp_path / "out.csv"
        code = run(["fig3", "--n", n, "--rs", r, "--delta-range", "-1.5:-1:0.5",
                    "--out", str(out_file)] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: separation {r} outside [1, {int(n) - 1}]"]
        assert not out_file.exists()
        assert not (tmp_path / "cache").exists()

    def test_tolerance_is_not_an_option(self, tmp_path, capsys):
        out_file = tmp_path / "out.csv"
        code = run(["fig3", "--n", "8", "--rs", "1", "--delta-range", "0:1:0.5", "--tol", "1e-10",
                    "--out", str(out_file)] + cache_args(tmp_path))
        assert code == 1
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
        assert not out_file.exists()
        assert not (tmp_path / "cache").exists()


    @pytest.mark.parametrize(
        "argv, message",
        [(["ground-state", "--n", "24", "--delta", "nan"], "delta=nan is not finite"),
         (["fig2", "--n", "24", "--delta", "nan"], "delta=nan is not finite"),
         (["fig5", "--n", "24", "--r", "30"], "separation 30 outside [1, 23]"),
         (["fig3", "--n", "24", "--rs", "30", "--delta-range", "0:1:0.5"],
          "separation 30 outside [1, 23]"),
         (["fig6", "--n", "24", "--rs", "1", "--delta-range", "0:1:0.5", "--quadrature", "16x16"],
          "grid of 16x16 points is below the 1000-point minimum"),
         (["fig5", "--n", "8", "--delta", "nan", "--scheme", "angle", "--quadrature", "16x16"],
          "delta=nan is not finite"),
         (["ground-state", "--n", "24", "--delta", "-2"],
          "delta=-2.0 <= -1: ground state is fully polarized and leaves the S^z = 0 sector; "
          "pair discord vanishes there"),
         (["fig5", "--n", "24", "--scheme", "mc", "--quadrature", "16x16", "--samples", "1000"],
          "--quadrature sizes a grid scheme, not --scheme mc"),
         (["fig5", "--n", "24", "--samples", "1000"],
          "--samples sizes --scheme mc, not --scheme gauss"),
         (["fig6", "--n", "24", "--rs", "1", "--delta-range", "0:1:0.5", "--scheme", "angle",
           "--quadrature", "40x40", "--samples", "1000"],
          "--samples sizes --scheme mc, not --scheme angle"),
         (["fig5", "--n", "24", "--seed", "3"], "--seed seeds --scheme mc, not --scheme gauss"),
         (["fig6", "--n", "24", "--rs", "1", "--delta-range", "0:1:0.5", "--scheme", "angle",
           "--quadrature", "40x40", "--seed", "3"],
          "--seed seeds --scheme mc, not --scheme angle"),
         (["ground-state", "--n", "24", "--delta", "5000"], ABOVE_MAX_DELTA),
         (["fig3", "--n", "24", "--rs", "1", "--delta-range", "-2:5000:5002"], ABOVE_MAX_DELTA),
         (["fig5", "--n", "24", "--scheme", "mc", "--seed", "-1", "--samples", "1000"],
          "seed -1 is negative"),
         (["fig6", "--n", "24", "--rs", "1", "--delta-range", "0:1:0.5", "--scheme", "mc",
           "--seed", "-1", "--samples", "1000"], "seed -1 is negative")],
        ids=["ground_state_delta", "fig2_delta", "fig5_r", "fig3_rs", "fig6_grid",
             "fig5_delta_before_grid", "ground_state_polarized", "quadrature_under_mc",
             "samples_under_gauss", "samples_under_angle", "seed_under_gauss",
             "seed_under_angle", "ground_state_above_max_delta", "fig3_above_max_delta",
             "negative_seed_fig5", "negative_seed_fig6"],
    )
    def test_solve_request_refused_before_the_large_ring_warning(
        self, tmp_path, capsys, argv, message
    ):
        out_file = tmp_path / "out.csv"
        code = run(argv + ["--out", str(out_file)] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out_file.exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["fig3", "--delta-range", "0:1:0"],
          "argument --delta-range: range step 0.0 must be positive"),
         (["fig3", "--rs", ","], "argument --rs: empty separation list"),
         (["fig5", "--quadrature", "32xab"],
          "argument --quadrature: quadrature '32xab' is not of the form NxM"),
         (["fig2", "--delta", "0.5", "--delta-range", "1:1:1"],
          "argument --delta-range: not allowed with argument --delta")],
        ids=["zero_step", "empty_rs", "non_int_quadrature", "fig2_delta_and_range"],
    )
    def test_malformed_argument_is_a_usage_line(self, tmp_path, capsys, argv, message):
        out_file = tmp_path / "out.csv"
        code = run(argv + ["--n", "8", "--out", str(out_file)] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"spindiscord {argv[0]}: error: {message}"
        assert not out_file.exists()
        assert not (tmp_path / "cache").exists()

    def test_bad_separation_list(self, tmp_path, capsys):
        code = run(["fig3", "--n", "4", "--rs", "a,b"] + cache_args(tmp_path))
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["fig3", "fig4", "fig6"])
    def test_repeated_separation_refused(self, tmp_path, capsys, command):
        code = run([command, "--n", "8", "--rs", "1,1"] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "argument --rs: separation list '1,1' repeats a value" in captured.err
        assert not (tmp_path / "cache").exists()  # refused before any solve

    def test_distinct_separations_keep_their_order(self):
        args = cli._build_parser().parse_args(["fig3", "--rs", "1,2,4"])
        assert args.rs == [1, 2, 4]
        assert cli._build_parser().parse_args(["fig3", "--rs", "4,1"]).rs == [4, 1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--n", "30", "--delta-range", "-2:-1.5:0.5"],
            ["fig3", "--n", "17"],
            ["fig5", "--n", "17", "--delta", "-2"],
            ["ground-state", "--n", "28", "--delta", "1.0"],
        ],
    )
    def test_unsupported_ring_refused_before_any_row(self, tmp_path, capsys, argv):
        out_file = tmp_path / "out.csv"
        code = run(argv + ["--deterministic", "--out", str(out_file)] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert not out_file.exists()
        assert captured.out == ""
        assert "warning" not in captured.err
        assert "n_sites" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["ground-state"], ["fig2"], ["fig3", "--rs", "1", "--delta-range", "0:1:0.5"],
         ["fig4", "--rs", "1", "--delta-range", "0:1:0.5"]],
    )
    def test_seed_only_for_monte_carlo_commands(self, tmp_path, capsys, argv):
        base = argv + ["--n", "4", "--format", "json", "--deterministic"] + cache_args(tmp_path)
        assert run(base + ["--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert run(base) == 0
        assert "seed" not in json.loads(capsys.readouterr().out)["config"]

    @pytest.mark.parametrize("argv", [["fig5"], ["fig6", "--rs", "1", "--delta-range", "0:1:0.5"]])
    def test_monte_carlo_commands_echo_their_seed(self, tmp_path, capsys, argv):
        code = run(
            argv + ["--n", "4", "--scheme", "mc", "--samples", "1000", "--seed", "3",
                    "--format", "json", "--deterministic"] + cache_args(tmp_path)
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3

    @pytest.mark.parametrize("argv", [["fig5"], ["fig6", "--rs", "1", "--delta-range", "0:1:0.5"]])
    def test_monte_carlo_seed_defaults_to_zero(self, tmp_path, capsys, argv):
        """Without `--seed`, mc draws and echoes seed 0: the same bytes as `--seed 0`."""
        base = argv + ["--n", "4", "--scheme", "mc", "--samples", "1000", "--format", "json",
                       "--deterministic"] + cache_args(tmp_path)
        assert run(base) == 0
        unset = capsys.readouterr().out
        assert run(base + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == unset
        assert json.loads(unset)["config"]["seed"] == 0

    def test_bad_quadrature(self, tmp_path, capsys):
        code = run(["fig5", "--n", "4", "--quadrature", "256"] + cache_args(tmp_path))
        assert code == 1
        capsys.readouterr()

    def test_oversized_quadrature_refused_at_once(self, tmp_path, capsys):
        code = run(["fig5", "--n", "4", "--quadrature", "100000x256"] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "n_theta 100000 is above the 2048-node Gauss maximum" in captured.err
        assert 100000 not in distribution._GAUSS_NODES
        assert not (tmp_path / "cache").exists()  # refused before any solve

    @pytest.mark.parametrize("command", [["fig5"], ["fig6", "--rs", "1", "--delta-range", "0:1:0.5"]])
    def test_bin_width_refused_before_any_solve(self, tmp_path, capsys, command):
        """The bin width is `distribution.BIN_WIDTH`: `--bin-width` is an unknown argument."""
        out_file = tmp_path / "out.csv"
        code = run(command + ["--n", "8", "--bin-width", "0.01", "--out", str(out_file)]
                   + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "unrecognized arguments: --bin-width 0.01" in captured.err
        assert not out_file.exists()
        assert not (tmp_path / "cache").exists()

    def test_undersized_scheme_rejected(self, tmp_path, capsys):
        code = run(
            ["fig5", "--n", "4", "--scheme", "angle", "--quadrature", "16x16"]
            + cache_args(tmp_path)
        )
        assert code == 1
        capsys.readouterr()


class TestFig1:
    def test_curves_peak_at_critical_point(self, capsys):
        code = run(["fig1", "--deterministic"])
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "nn", "far"]
        assert len(rows) == 201
        by_t = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        assert by_t["1.0"] == (1.0, 1.0)
        for t, (nn, far) in by_t.items():
            if t != "1.0":
                assert nn < 1.0
                assert far < 1.0

    @pytest.mark.parametrize("r", ["1", "2", "3", "0", "-3"])
    def test_far_pair_below_four_refused(self, capsys, r):
        code = run(["fig1", "--r", r, "--deterministic"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: far-pair separation r={r} needs r >= 4: its t = 1 correlator -1/r "
            "is below -1/4, which no pair state has\n"
        )

    def test_far_pair_at_four_runs(self, capsys):
        code = run(["fig1", "--r", "4", "--delta-range", "0.5:1.5:0.5", "--deterministic"])
        header, rows = parse_csv(capsys.readouterr().out)
        assert code == 0
        assert [row[0] for row in rows] == ["0.5", "1.0", "1.5"]
        assert float(rows[1][2]) == 1.0
        assert all(0.0 < float(row[2]) < 1.0 for row in (rows[0], rows[2]))

    def test_timestamp_suppressed(self, capsys):
        run(["fig1", "--delta-range", "0.5:1.5:0.5"])
        stamped = capsys.readouterr().out
        run(["fig1", "--delta-range", "0.5:1.5:0.5", "--deterministic"])
        plain = capsys.readouterr().out
        assert stamped.startswith("# generated ")
        assert plain.startswith("t,nn,far")
        assert stamped.splitlines()[1:] == plain.splitlines()


class TestNegativeZeroDelta:
    @pytest.mark.parametrize("command", ["ground-state", "fig5"])
    def test_minus_zero_is_the_zero_entry(self, tmp_path, capsys, command):
        outs = []
        for delta in ("--delta=0", "--delta=-0"):
            assert run([command, "--n", "8", delta, "--deterministic"] + cache_args(tmp_path)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            spinchain.cache_path(tmp_path, 8, 4, 0.0).name
        ]

    def test_fig2_rows_and_echo_read_zero(self, tmp_path, capsys):
        for fmt in ("csv", "json"):
            code = run(["fig2", "--n", "8", "--delta=-0", "--format", fmt, "--deterministic"]
                       + cache_args(tmp_path))
            assert code == 0
            out = capsys.readouterr().out
            assert "-0.0" not in out
        doc = json.loads(out)
        assert [row[0] for row in doc["rows"]] == [0.0] * 4
        assert doc["config"]["deltas"] == [0.0]


class TestFig2:
    def test_profile_rows(self, tmp_path, capsys):
        code = run(
            ["fig2", "--n", "8", "--delta", "1.0", "--deterministic"]
            + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "r", "discord", "symmetric_form", "isotropic_form"]
        assert [int(row[1]) for row in rows] == [1, 2, 3, 4]
        for row in rows:
            assert float(row[2]) == approx(float(row[4]), abs=1e-9)

    def test_polarized_rows_are_analytic(self, tmp_path, capsys):
        code = run(
            ["fig2", "--n", "8", "--delta-range", "-1.5:0.5:0.5", "--deterministic"]
            + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows[::4]] == ["-1.5", "-1.0", "-0.5", "0.0", "0.5"]
        for row in rows[:8]:
            assert row[2] == "0.0"
        assert all(float(row[2]) > 0.0 for row in rows[8:])


class TestFig3:
    def test_header_and_polarized_rows(self, tmp_path, capsys):
        code = run(
            ["fig3", "--n", "4", "--rs", "1", "--delta-range", "-1.5:1.5:0.5",
             "--deterministic"] + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "r", "discord", "k", "basis"]
        by_delta = {row[0]: row for row in rows}
        assert float(by_delta["-1.5"][2]) == 0.0
        assert by_delta["-1.5"][4] == "zero"
        assert float(by_delta["1.0"][2]) > 0.0

    def test_range_through_zero_has_no_negative_zero(self, tmp_path, capsys):
        # -0.9 + 3 * 0.3 rounds to -0.0; the sweep must use the 0.0 that
        # `ground-state --delta 0` caches under
        [zero] = [d for d in cli._range_arg("-0.9:0.9:0.3") if d == 0.0]
        assert math.copysign(1.0, zero) == 1.0
        code = run(
            ["fig3", "--n", "4", "--rs", "1", "--delta-range", "-0.9:0.9:0.3",
             "--deterministic"] + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-0.0" not in out
        assert [row[0] for row in parse_csv(out)[1]].count("0.0") == 1
        names = [p.name for p in (tmp_path / "cache").iterdir()]
        assert any("_d0_" in name for name in names)
        assert not any("_d-0_" in name for name in names)

    def test_large_ring_warns_once_and_solves_nothing_when_polarized(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(spinchain.MomentumSector, "__init__", None)  # building one raises
        code = run(["fig3", "--n", "24", "--rs", "1", "--delta-range", "-2:-1.5:0.5",
                    "--deterministic"] + cache_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 0
        [line] = captured.err.splitlines()
        assert line.startswith("warning: n=24 ")
        assert captured.out.splitlines() == [
            "delta,r,discord,k,basis", "-2.0,1,0.0,0.0,zero", "-1.5,1,0.0,0.0,zero",
        ]
        assert not (tmp_path / "cache").exists()


class TestSweepColumns:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_header_is_the_record_fields(self, tmp_path, capsys, fmt):
        """fig2, fig3 and fig6 print their record's field names; fig4 is fig3 without discord."""

        def header(*argv):
            code = run([*argv, "--n", "4", "--delta-range", "1:1:1", "--format", fmt,
                        "--deterministic"] + cache_args(tmp_path))
            out = capsys.readouterr().out
            assert code == 0
            return json.loads(out)["columns"] if fmt == "json" else parse_csv(out)[0]

        fig3 = list(correlators.DiscordByAnisotropy._fields)
        assert header("fig2") == list(correlators.DiscordByDistance._fields)
        assert header("fig3", "--rs", "1") == fig3
        assert header("fig4", "--rs", "1") == [name for name in fig3 if name != "discord"]
        assert header("fig6", "--rs", "1", "--quadrature", "32x32") == list(
            distribution.MomentsByAnisotropy._fields
        )


class TestFig4:
    def test_basis_switch_columns(self, tmp_path, capsys):
        code = run(
            ["fig4", "--n", "8", "--rs", "1", "--delta-range", "0.5:1.5:1",
             "--deterministic"] + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "r", "k", "basis"]
        assert rows[0][3] == "ninety"
        assert rows[-1][3] == "zero"
        assert float(rows[0][2]) > 2.0 > float(rows[-1][2])

    def test_json_stamp_is_the_second_key(self, tmp_path, capsys):
        code = run(["fig4", "--n", "8", "--rs", "1", "--delta-range", "0:0.5:0.5",
                    "--format", "json"] + cache_args(tmp_path))
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert list(doc)[:2] == ["command", "generated"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", doc["generated"])


class TestFig5:
    def test_single_bin_at_isotropic_point(self, tmp_path, capsys):
        out_file = tmp_path / "hist.csv"
        code = run(
            ["fig5", "--n", "8", "--delta", "1.0", "--r", "1", "--deterministic",
             "--out", str(out_file)] + cache_args(tmp_path)
        )
        capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header == ["bin_left", "bin_right", "mass"]
        assert len(rows) == 1
        assert float(rows[0][2]) == approx(1.0, abs=1e-9)
        summary = json.loads((tmp_path / "hist.summary.json").read_text())
        assert summary["variance"] == approx(0.0, abs=1e-10)
        assert float(rows[0][0]) <= summary["mean"] <= float(rows[0][1])
        assert summary["scheme"] == {"kind": "gauss", "n_theta": 256, "n_phi": 256}

    def test_polarized_regime_histogram(self, tmp_path, capsys):
        out_file = tmp_path / "hist.csv"
        code = run(
            ["fig5", "--n", "8", "--delta", "-2", "--r", "1", "--deterministic",
             "--out", str(out_file)] + cache_args(tmp_path)
        )
        capsys.readouterr()
        assert code == 0
        _, rows = parse_csv(out_file.read_text())
        assert sum(float(row[2]) for row in rows) == approx(1.0, abs=1e-9)
        summary = json.loads((tmp_path / "hist.summary.json").read_text())
        # diagonal u = v = 1/2 pair state: C(theta) = H((1 + cos theta)/2),
        # whose solid-angle mean is 1/(2 ln 2)
        assert summary["mean"] == approx(1.0 / (2.0 * math.log(2.0)), abs=1e-6)
        assert not list((tmp_path / "cache").glob("*.bin"))

    def test_json_embeds_summary(self, tmp_path, capsys):
        code = run(
            ["fig5", "--n", "4", "--delta", "1.0", "--r", "1", "--format", "json",
             "--deterministic"] + cache_args(tmp_path)
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["columns"] == ["bin_left", "bin_right", "mass"]
        assert sum(row[2] for row in doc["rows"]) == approx(1.0, abs=1e-9)
        assert doc["summary"]["min_c"] <= doc["summary"]["mean"] <= doc["summary"]["max_c"]

    def test_monte_carlo_scheme(self, tmp_path, capsys):
        code = run(
            ["fig5", "--n", "4", "--delta", "0.5", "--r", "1", "--scheme", "mc",
             "--samples", "2000", "--deterministic"] + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        assert sum(float(row[2]) for row in rows) == approx(1.0, abs=1e-9)


class TestFig6:
    def test_moment_columns(self, tmp_path, capsys):
        code = run(
            ["fig6", "--n", "8", "--rs", "1", "--delta-range", "0.5:1.5:0.5",
             "--quadrature", "32x32", "--deterministic"] + cache_args(tmp_path)
        )
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "r", "mean_c", "var_c", "min_c", "max_c"]
        by_delta = {row[0]: row for row in rows}
        assert float(by_delta["1.0"][3]) == approx(0.0, abs=1e-10)
        assert float(by_delta["0.5"][3]) > 1e-4


class TestDeterminism:
    def test_numpy_floats_written_like_floats(self):
        cells = (0.1, np.float64(0.1), 1e-300, float("nan"), None, 3)
        assert [cli._cell(v) for v in cells] == ["0.1", "0.1", "1e-300", "nan", "", "3"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig3", "--n", "8", "--rs", "1,2", "--delta-range", "0.5:1.5:0.25",
                "--deterministic"] + cache_args(tmp_path)
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        # second run is served from cache; bytes must not change
        assert a.read_bytes() == b.read_bytes()

    def test_json_reruns_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fig6", "--n", "4", "--rs", "1", "--delta-range", "0.5:1.5:0.5",
                "--quadrature", "32x32", "--format", "json",
                "--deterministic"] + cache_args(tmp_path)
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestReusedParser:
    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_default_run_after_a_non_default_one(self, tmp_path, capsys):
        argv = ["fig3", "--n", "8", "--format", "json", "--deterministic"] + cache_args(tmp_path)
        first, custom, again = (tmp_path / f"{stem}.json" for stem in ("first", "custom", "again"))
        cli._build_parser.cache_clear()  # the first default run builds the parser
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--rs", "1", "--delta-range", "0:1:0.5", "--out", str(custom)]) == 0
        assert run(argv + ["--out", str(again)]) == 0
        capsys.readouterr()
        assert json.loads(custom.read_text())["config"]["rs"] == [1]
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("argv, code", [(["fig3", "--rs", "1,1"], 1), (["--help"], 0)])
    def test_valid_call_after_an_early_exit(self, tmp_path, capsys, argv, code):
        assert run(argv) == code
        capsys.readouterr()
        assert run(["fig1", "--delta-range", "0.5:1.5:0.5", "--deterministic"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,nn,far\n")
        assert captured.err == ""


class TestUnwritablePaths:
    def test_missing_output_directory(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "x.csv"
        code = run(["fig1", "--deterministic", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(out_file) in captured.err
        assert "Traceback" not in captured.err
        assert not out_file.exists()

    def test_cache_dir_is_a_regular_file(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.write_text("not a directory")
        code = run(["ground-state", "--n", "4", "--delta", "1.0", "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")
        assert str(cache) in captured.err
        assert "Traceback" not in captured.err
        assert cache.read_text() == "not a directory"


def stalling_after(limit):
    """A `ground_states` that yields the states up to `limit`, then stalls."""
    real = correlators.ground_states

    def stalling(n_sites, deltas, **kwargs):
        deltas = list(deltas)
        solved = [delta for delta in deltas if delta <= limit]
        yield from real(n_sites, solved, **kwargs)
        if len(solved) < len(deltas):
            raise ConvergenceError("stalled")

    return stalling


class TestIncompleteSweep:
    def test_partial_csv_gets_trailer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(correlators, "ground_states", stalling_after(1.0))
        out_file = tmp_path / "partial.csv"
        code = run(
            ["fig3", "--n", "4", "--rs", "1", "--delta-range", "0.5:1.5:0.5",
             "--deterministic", "--out", str(out_file)] + cache_args(tmp_path)
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "stalled" in err
        lines = out_file.read_text().strip().splitlines()
        assert lines[-1] == "# INCOMPLETE"
        assert lines[0] == "delta,r,discord,k,basis"
        assert len(lines) == 4

    def test_partial_json_flagged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(correlators, "ground_states", stalling_after(1.0))
        out_file = tmp_path / "partial.json"
        code = run(
            ["fig3", "--n", "4", "--rs", "1", "--delta-range", "0.5:1.5:0.5",
             "--format", "json", "--deterministic", "--out", str(out_file)]
            + cache_args(tmp_path)
        )
        capsys.readouterr()
        assert code == 2
        doc = json.loads(out_file.read_text())
        assert doc["incomplete"] is True
        assert len(doc["rows"]) == 2

    def test_failure_with_no_rows_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(correlators, "ground_states", stalling_after(-math.inf))
        out_file = tmp_path / "never.csv"
        code = run(
            ["fig3", "--n", "4", "--rs", "1", "--delta-range", "0.5:1.5:0.5",
             "--deterministic", "--out", str(out_file)] + cache_args(tmp_path)
        )
        capsys.readouterr()
        assert code == 2
        assert not out_file.exists()

    def test_unwritable_cache_mid_sweep_keeps_the_rows_so_far(self, tmp_path, capsys, monkeypatch):
        """At N = 18 each Δ is solved and saved alone; the second save fails."""
        save, saved = spinchain.save_ground_state, []

        def failing_second(path, state):
            saved.append(state.delta)
            if len(saved) == 2:
                raise PermissionError(13, "Permission denied", str(path))
            save(path, state)

        monkeypatch.setattr(spinchain, "save_ground_state", failing_second)
        out_file = tmp_path / "partial.csv"
        code = run(
            ["fig3", "--n", "18", "--rs", "1", "--delta-range", "0.5:1.5:0.5",
             "--deterministic", "--out", str(out_file)] + cache_args(tmp_path)
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1].startswith("error: ") and "Permission denied" in err
        assert saved == [0.5, 1.0]
        lines = out_file.read_text().splitlines()
        assert lines[0] == "delta,r,discord,k,basis"
        assert [line.split(",")[0] for line in lines[1:-1]] == ["0.5"]
        assert lines[-1] == "# INCOMPLETE"

    def test_failure_mid_block_keeps_the_cache_of_the_deltas_before_it(
        self, tmp_path, capsys, monkeypatch, spoil_first_check
    ):
        """All five Δ share one block; Δ = 0.5 fails in it, after 0 and 0.25 are written."""
        steps = spinchain.ground_state(12, 0.5).iterations
        spoil_first_check(0.5, steps)
        monkeypatch.setattr(spinchain, "_MAX_CYCLES", 1)  # no cycle left for the restart
        out_file = tmp_path / "partial.csv"
        code = run(
            ["fig3", "--n", "12", "--rs", "1", "--delta-range", "0:1:0.25",
             "--deterministic", "--out", str(out_file)] + cache_args(tmp_path)
        )
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        lines = out_file.read_text().strip().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:-1]] == [0.0, 0.25]
        assert lines[-1] == "# INCOMPLETE"
        cache = tmp_path / "cache"
        expected = {spinchain.cache_path(cache, 12, 6, d).name for d in (0.0, 0.25)}
        assert {path.name for path in cache.iterdir()} == expected
