"""Command-line interface: config parsing, report shapes, determinism,
exit codes.

Runs go through ``main(argv)`` with small grids and path counts; reports
are parsed back from CSV.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest

import liqshock.cli as cli
from liqshock.cli import build_parser, load_config, main, parse_config_text


DATA = Path(__file__).parent / "data"


def run_cli(tmp_path, *argv):
    """Run main() writing to a temp CSV; return (exit_code, rows)."""
    out = tmp_path / "report.csv"
    code = main([*argv, "--out", str(out)])
    rows = []
    if out.exists():
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
    return code, rows


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestParseConfigText:
    def test_empty_and_comments(self):
        assert parse_config_text("") == {}
        assert parse_config_text("# all defaults\n\n   \n") == {}

    def test_typed_values(self):
        out = parse_config_text(
            "mu0 = 0.1      # drift\n"
            "nsteps = 500\n"
            "spots = 8, 10, 12\n"
            "payoff = digital_put\n")
        assert out == {"mu0": 0.1, "nsteps": 500,
                       "spots": (8.0, 10.0, 12.0), "payoff": "digital_put"}

    def test_duplicate_key_names_key_and_line(self):
        with pytest.raises(ValueError, match=r"cfg:3: duplicate config key 'mu0'"):
            parse_config_text("mu0 = 0.1\nsigma0 = 0.2\nmu0 = 0.3\n",
                              origin="cfg")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'volatility'"):
            parse_config_text("volatility = 0.3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ValueError, match="'mu0': expected a number"):
            parse_config_text("mu0 = fast\n")
        with pytest.raises(ValueError, match="'nsteps': expected an integer"):
            parse_config_text("nsteps = 2.5\n")
        with pytest.raises(ValueError, match="'payoff': must be one of"):
            parse_config_text("payoff = american_call\n")


class TestLoadConfig:
    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, "gamma = 1.5\nnsteps = 50\nseed = 5\n")
        args = build_parser().parse_args(
            ["price", "--config", path, "--gamma", "2.5", "--seed", "9"])
        cfg = load_config(args)
        assert cfg.gamma == 2.5          # flag beats file
        assert cfg.nsteps == 50          # file beats default
        assert cfg.seed == 9
        assert {"gamma", "nsteps", "seed"} <= set(cfg.explicit)

    def test_spot_list_flag(self):
        args = build_parser().parse_args(["price", "--spots", "9.5,10.5"])
        cfg = load_config(args)
        assert cfg.spots == (9.5, 10.5)

    def test_invalid_values_rejected(self, tmp_path):
        for text in ("sigma0 = -0.3\n", "paths = 10\n", "contracts = 0\n",
                     "spots = -8\n"):
            path = write_config(tmp_path, text)
            args = build_parser().parse_args(["price", "--config", path])
            with pytest.raises(ValueError):
                load_config(args)


class TestPriceCommand:
    def test_method_blocks_and_quantities(self, tmp_path):
        path = write_config(tmp_path,
                            "nsteps = 100\ncontracts = 2, -3\nspots = 9, 11\n")
        code, rows = run_cli(tmp_path, "price", "--config", path)
        assert code == 0
        assert rows[0] == ["method", "spot", "n", "gamma", "price"]
        body = rows[1:]
        methods = {r[0] for r in body}
        assert methods == {"BS", "AdjBS", "MMM", "MEMM", "IndiffBuyer",
                           "IndiffWriter", "SingleShock", "Asympt1"}
        # single-shock is buyer-only: rows exist for n=2, none for n=-3
        ss_n = {r[2] for r in body if r[0] == "SingleShock"}
        assert ss_n == {"2"}
        asympt_n = {r[2] for r in body if r[0] == "Asympt1"}
        assert asympt_n == {"2", "-3"}
        # two spots per method block
        assert sum(r[0] == "BS" for r in body) == 2
        # linear methods leave n and gamma empty
        bs_row = next(r for r in body if r[0] == "BS")
        assert bs_row[2] == "" and bs_row[3] == ""

    def test_no_shock_collapses_methods(self, tmp_path):
        """With nu01 = 0 the measure tilts vanish: MMM and MEMM rows are
        byte-identical and AdjBS equals BS."""
        path = write_config(tmp_path, "nu01 = 0\nnsteps = 200\ncontracts = 1\n")
        code, rows = run_cli(tmp_path, "price", "--config", path)
        assert code == 0
        by_method = {}
        for r in rows[1:]:
            by_method.setdefault(r[0], []).append((r[1], r[4]))
        assert by_method["MMM"] == by_method["MEMM"]
        assert by_method["BS"] == by_method["AdjBS"]

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, "nsteps = 100\ncontracts = 1\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["price", "--config", path, "--out", str(out_a)]) == 0
        assert main(["price", "--config", path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        path = write_config(tmp_path, "nsteps = 100\ncontracts = 1\n")
        out = tmp_path / "r.csv"
        assert main(["price", "--config", path, "--out", str(out)]) == 0
        assert main(["price", "--config", path, "--out", "-"]) == 0
        # csv to stdout uses \r\n line ends; compare parsed content
        stdout_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        with open(out, newline="") as fh:
            file_rows = list(csv.reader(fh))
        assert stdout_rows == file_rows


    @pytest.mark.parametrize("golden, config", [
        ("price_default.csv", ""),
        ("price_digital_call.csv", "payoff = digital_call\n"),
    ])
    def test_default_grid_matches_golden(self, tmp_path, golden, config):
        """The goldens were written by per-contract marches through
        scipy's solve_banded; stacked dgtsv marches must print the same
        bytes."""
        path = write_config(tmp_path, config)
        out = tmp_path / "report.csv"
        assert main(["price", "--config", path, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()


class TestTtmCommand:
    def test_sweep_shapes_and_terminal_row(self, tmp_path):
        path = write_config(tmp_path, "nsteps = 200\n")
        code, rows = run_cli(tmp_path, "ttm", "--config", path)
        assert code == 0
        t_rows = [r for r in rows[1:] if r[0] == "t"]
        s_rows = [r for r in rows[1:] if r[0] == "S"]
        assert len(t_rows) == 21
        assert len(s_rows) == 41
        first = t_rows[0]
        assert float(first[3]) == pytest.approx(0.9289940694655064, abs=1e-9)
        assert float(first[4]) == pytest.approx(0.8520711664139224, abs=1e-9)
        last = t_rows[-1]   # t = T: zero horizon, implied pinned at 0
        assert float(last[2]) == 0.0
        assert float(last[5]) == 0.0

    def test_digital_payoff_rejected(self, tmp_path):
        path = write_config(tmp_path, "payoff = digital_call\n")
        code, rows = run_cli(tmp_path, "ttm", "--config", path)
        assert code == 2
        assert rows == []


class TestClockGoldens:
    @pytest.mark.parametrize("golden, argv", [
        ("ttm_default.csv", ["ttm"]),
        ("hedge_default.csv", ["hedge"]),
        ("hedge_n10_gamma3.csv", ["hedge", "--contracts", "10", "--gamma", "3",
                                  "--spots", "2,5,8,10,12,20,40,58"]),
    ])
    def test_default_grid_matches_golden(self, tmp_path, golden, argv):
        """The goldens were written by one scalar implied-clock bisection
        and one hedge report per spot; the swept inversion must print the
        same bytes.  The n = 10, gamma = 3 sweep has two low-confidence
        rows (S = 40, 58) whose quotes sit below intrinsic value."""
        out = tmp_path / "report.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()


class TestHedgeCommand:
    def test_vanilla_decomposition_columns(self, tmp_path):
        path = write_config(tmp_path, "nsteps = 200\ncontracts = 1\n")
        code, rows = run_cli(tmp_path, "hedge", "--config", path)
        assert code == 0
        header = rows[0]
        i_delta = header.index("delta_indiff")
        i_base = header.index("base_delta")
        i_adj = header.index("adjusted_ttm_spread")
        i_imp = header.index("implied_ttm_spread")
        i_smile = header.index("smile_correction")
        i_low = header.index("low_confidence")
        usable = [r for r in rows[1:] if r[i_low] == "0" and r[i_adj] != ""]
        assert usable, "expected confident decomposition rows"
        for r in usable:
            total = (float(r[i_base]) + float(r[i_adj]) + float(r[i_imp])
                     + float(r[i_smile]))
            assert total == pytest.approx(float(r[i_delta]), abs=1e-8)

    def test_digital_leaves_clock_columns_empty(self, tmp_path):
        path = write_config(tmp_path,
                            "payoff = digital_call\nnsteps = 200\ncontracts = 1\n")
        code, rows = run_cli(tmp_path, "hedge", "--config", path)
        assert code == 0
        header = rows[0]
        i_adj = header.index("adjusted_ttm_spread")
        i_imp = header.index("implied_ttm_spread")
        i_ttm = header.index("implied_ttm")
        for r in rows[1:]:
            assert r[i_adj] == "" and r[i_imp] == "" and r[i_ttm] == ""


class TestConvergeCommand:
    def test_healthy_run_passes(self, tmp_path):
        path = write_config(tmp_path, "nsteps = 400\npaths = 2000\n")
        code, rows = run_cli(tmp_path, "converge", "--config", path)
        assert code == 0
        statuses = [r[4] for r in rows[1:] if r[4]]
        assert statuses and all(s == "PASS" for s in statuses)
        checks = {r[0] for r in rows[1:]}
        assert checks == {"ladder", "ladder_monotone", "pde_vs_mc"}

    def test_matches_golden(self, tmp_path):
        """The golden was written by ``liqshock converge --nsteps 200
        --paths 2000 --seed 7`` before the samplers shared one thinning
        kernel; the MC cells must print the same bytes."""
        out = tmp_path / "report.csv"
        assert main(["converge", "--nsteps", "200", "--paths", "2000",
                     "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "converge_seed7.csv").read_bytes()

    @pytest.mark.parametrize("nsteps,memm_marches", [(200, 4), (201, 5)])
    def test_memm_at_nsteps_marched_once(self, tmp_path, monkeypatch,
                                         nsteps, memm_marches):
        """When a ladder rung is the nsteps grid (4 * (nsteps // 4) ==
        nsteps), the MC block reuses that rung's MEMM march."""
        calls = []

        def counting(params, payoff, measure, grid, keep=None):
            calls.append((measure, grid.n_time))
            return real(params, payoff, measure, grid, keep)

        real = cli.linear_price
        monkeypatch.setattr(cli, "linear_price", counting)
        code, _ = run_cli(tmp_path, "converge", "--nsteps", str(nsteps),
                          "--paths", "200")
        assert code in (0, 4)
        assert [m for m, _ in calls].count("MEMM") == memm_marches
        assert ("MMM", nsteps) in calls

    def test_failed_checks_exit_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_converge",
                            lambda cfg: (["check"], [["boom"]], False))
        out = tmp_path / "r.csv"
        assert main(["converge", "--out", str(out)]) == 4
        assert "convergence checks failed" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "volatility = 0.3\n")
        assert main(["price", "--config", path, "--out", "-"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, argv, text", [
        ("spots", ["--spots", ","], ""),
        ("contracts", [], "contracts =\n"),
        ("spots", ["--spots", "8,,10"], ""),
        ("contracts", [], "contracts = 1,\n"),
    ])
    def test_empty_list_exits_2_naming_the_key(self, tmp_path, capsys, key,
                                               argv, text):
        path = write_config(tmp_path, text)
        assert main(["price", "--config", path, *argv, "--out", "-"]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        (key, value) for key, values in (
            ("mu0", ("0", "1e-300", "1e8", "1e10")),
            ("sigma0", ("0", "5e-324", "1e-300", "1e10")),
            ("nu01", ("0", "5e-324", "1e-300", "1e10")),
            ("nu10", ("0", "5e-324", "1e-300", "1e10")),
            ("gamma", ("0", "1e-300", "1e10")),
            ("maturity", ("0", "1e-300", "1e10")),
            ("strike", ("0", "1e-300", "1e10")))
        for value in values])
    def test_edge_values_end_in_an_exit_code(self, tmp_path, capsys, key,
                                             value):
        """Every command ends an extreme single-key config with exit code
        0, 2, 3 or 4: no exception, and (warnings being errors in this
        suite) no warning, escapes main."""
        path = write_config(tmp_path, f"{key} = {value}\n")
        for command in ("price", "ttm", "hedge", "converge"):
            code = main([command, "--config", path, "--nsteps", "20",
                         "--paths", "1000", "--out", "-"])
            assert code in (0, 2, 3, 4), command
        capsys.readouterr()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["price", "--config", str(tmp_path / "nope.cfg"),
                     "--out", "-"]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/report.csv", "."])
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, target):
        """A path in a missing directory, or a directory, is named; the
        report is not written anywhere."""
        out = str(tmp_path / target)
        assert main(["ttm", "--nsteps", "50", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write output file {out!r}" in captured.err

    def test_failed_run_leaves_an_existing_output_untouched(self, tmp_path):
        out = tmp_path / "report.csv"
        out.write_text("kept\n")
        assert main(["ttm", "--spots", "1,10", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"

    def test_numerical_guard_exits_3(self, tmp_path, capsys):
        # nu10 = 800 trips the single-shock exponent cap during `price`
        path = write_config(tmp_path,
                            "nu10 = 800\nnsteps = 100\ncontracts = 1\n")
        assert main(["price", "--config", path, "--out", "-"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, shown", [
        (["price", "--gamma", "1e-12", "--contracts", "1"], "1e-12"),
        (["price", "--contracts", "1e-200"], "1e-200"),
        (["hedge", "--gamma", "1e-9"], "1e-08")],       # 10 contracts
        ids=["price-gamma", "price-contracts", "hedge-gamma"])
    def test_tiny_gamma_eff_exits_3(self, argv, shown, capsys):
        """A gamma_eff the march cannot resolve is refused by value instead
        of priced (1e-12 printed a buyer price above MEMM, 1e-200 a
        single-shock price of 1e+181)."""
        assert main(argv + ["--spots", "10", "--nsteps", "100", "--out", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"gamma_eff = {shown} is below 1e-06" in captured.err

    # Sizes numpy refuses up front (tens of TiB per array), so no memory is
    # ever touched; never test with a size that could be allocated.
    @pytest.mark.parametrize("argv", [["converge", "--paths", "100000000000000"],
                                      ["ttm", "--nsteps", "10000000000000"]],
                             ids=["paths", "nsteps"])
    def test_out_of_memory_exits_3(self, argv, capsys):
        assert main(argv + ["--out", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("out of memory: Unable to allocate")
        for key in ("nsteps", "width", "paths"):
            assert key in captured.err

    @pytest.mark.parametrize("width", ["1e300", "1e308"])
    def test_oversized_width_exits_2(self, tmp_path, width, capsys):
        path = write_config(tmp_path, f"width = {width}\n")
        assert main(["ttm", "--config", path, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: width = {float(width)}")

    @pytest.mark.parametrize("flag, value, expected", [
        ("--nsteps", "x", "expected an integer"),
        ("--gamma", "inf", "value must be finite"),
        ("--seed", "1.5", "expected an integer")])
    def test_malformed_flag_value_is_named_as_a_config_key(self, flag, value,
                                                           expected, capsys):
        assert main(["price", flag, value, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key '{flag[2:]}': {expected}" in captured.err

    @pytest.mark.parametrize("seed", [str(2 ** 63), "-1"])
    def test_seed_outside_the_sampler_range_exits_2(self, seed, capsys):
        assert main(["converge", "--seed", seed, "--paths", "1000",
                     "--nsteps", "200", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config key 'seed'" in captured.err

    def test_unrepresentable_intensity_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "nu10 = 1e160\nnsteps = 100\n")
        assert main(["price", "--config", path, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nu10" in captured.err

    def test_intensity_past_the_exponent_cap_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            "nu10 = 1e150\nnsteps = 100\ncontracts = 1\n")
        assert main(["price", "--config", path, "--out", "-"]) == 3
        assert "exceeds the exponent cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ttm", "hedge"])
    def test_out_of_domain_spot_is_named(self, command, capsys):
        assert main([command, "--spots", "1,10", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spot 1.0 outside the grid domain" in captured.err

    @pytest.mark.parametrize("command, config", [
        ("ttm", "spots = 1, 10\n"),
        ("ttm", "spot = 0.5\nspots = 100\n"),     # the anchor is named first
        ("hedge", "spots = 1, 10\n"),
        ("hedge", "spots = 10, 100\ncontracts = -1\n"),
        ("converge", "spot = 0.5\n"),             # on the first rung's grid
        ("converge", "spots = 10, 100\n"),        # on the nsteps grid
    ])
    def test_off_grid_spots_are_refused_before_the_march(
            self, tmp_path, monkeypatch, capsys, command, config):
        argv = [command, "--config", write_config(tmp_path, config),
                "--nsteps", "200", "--out", "-"]
        assert main(argv) == 2
        expected = capsys.readouterr().err
        assert "outside the grid domain" in expected

        def no_march(*args, **kwargs):
            raise AssertionError("marched before the spots were checked")

        for name in ("linear_price", "solve_buyer", "solve_writer",
                     "mc_linear_price"):
            monkeypatch.setattr(cli, name, no_march)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == expected

    def test_spots_off_an_overflowing_grid_are_refused_first(self, tmp_path,
                                                             capsys):
        # At strike 1e300 the expansion's squares would overflow; the
        # default spots lie off the grid, which is refused before any march.
        path = write_config(tmp_path, "strike = 1e300\nnsteps = 200\n")
        assert main(["price", "--config", path, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spot 8.0 outside the grid domain" in captured.err

    def test_payoff_range_whose_square_overflows_exits_3(self, tmp_path,
                                                          capsys):
        path = write_config(tmp_path,
                            "strike = 1e300\nspots = 1e300\nnsteps = 200\n")
        assert main(["price", "--config", path, "--out", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "payoff range 5.1339e+300 on the grid squares beyond double" \
            in captured.err

    @pytest.mark.parametrize("command", ["price", "ttm", "hedge", "converge"])
    def test_grid_past_the_largest_double_exits_2(self, tmp_path, command,
                                                  capsys):
        path = write_config(tmp_path, "strike = 1e308\nspots = 1e308\n")
        assert main([command, "--config", path, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strike = 1e+308 puts the grid's largest spot beyond" \
            in captured.err

    @pytest.mark.parametrize("contracts", ["1000", "1,1000"])
    def test_late_time_value_guard_exits_3(self, contracts, capsys):
        """At gamma_eff = 1000 on 300 steps only the later Black-Scholes
        rows pass the exponent cap, so the single-shock guard trips during
        the march, at the block of rows that first reaches it."""
        assert main(["price", "--contracts", contracts, "--spots", "10",
                     "--nsteps", "300", "--out", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gamma_eff * time value|" in captured.err
        assert "at gamma_eff = 1000;" in captured.err

    def test_unresolved_single_shock_table_exits_3(self, tmp_path, capsys):
        # gamma_eff = 40 on 500 steps: the digital's Simpson source table
        # reaches -545 next to the strike, which would make the shock
        # intensity negative.
        path = write_config(tmp_path,
                            "payoff = digital_call\nnsteps = 500\ncontracts = 40\n")
        assert main(["price", "--config", path, "--out", "-"]) == 3
        captured = capsys.readouterr()
        assert "SingleShock" not in captured.out
        assert "source table not positive" in captured.err
        assert "gamma_eff = 40" in captured.err
        assert "nsteps = 500" in captured.err
