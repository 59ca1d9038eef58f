"""Row-selective marches and the stacked passes of ``price``.

A march that keeps only some time rows must store exactly those rows of
the full march; the single-shock stack, the MMM + expansion pass and a
risk-aversion sweep as one quantity stack must reproduce their
one-surface solves bit for bit (``np.array_equal`` throughout).  The
source-table quadrature must round as scipy's cumulative Simpson rule
does, without importing ``scipy.integrate`` at run time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import liqshock
import liqshock.cli as cli
from liqshock import (
    GridSpec,
    NumericalError,
    Payoff,
    PriceSurface,
    linear_price,
    mmm_and_expansion,
    single_shock_zero_order,
    solve_indifference,
    solve_single_shock,
)
from conftest import STRIKE
from liqshock import pde

N_TIME = 300
ROWS = (0, 7, 150, N_TIME)
PARTIAL = (0, 1, 150, 299)           # without the terminal row


@pytest.fixture(scope="module")
def grid(params) -> GridSpec:
    return GridSpec.build(params, STRIKE, n_time=N_TIME)


def same_rows(kept: PriceSurface, full: PriceSurface) -> bool:
    assert full.keep == tuple(range(N_TIME + 1))
    return np.array_equal(kept.values, full.values[list(kept.keep)])


@pytest.mark.parametrize("keep", [ROWS, PARTIAL])
class TestKeptRowsEqualFullMarch:
    def test_linear(self, params, grid, keep):
        for measure in ("MMM", "MEMM"):
            full = linear_price(params, Payoff("vanilla_put", STRIKE), measure, grid)
            kept = linear_price(params, Payoff("vanilla_put", STRIKE), measure,
                                grid, keep)
            assert same_rows(kept.surface_p, full.surface_p)
            assert same_rows(kept.surface_q, full.surface_q)

    def test_expansion_and_two_block_linear_pass(self, params, grid, keep):
        unit = Payoff("digital_call", STRIKE)
        full = mmm_and_expansion(params, unit, grid)[1]
        full_mmm = linear_price(params, unit, "MMM", grid)
        mmm, bundle = mmm_and_expansion(params, unit, grid, keep)
        for name in ("p0", "q0", "p1", "q1"):
            assert same_rows(getattr(bundle, name), getattr(full, name))
        assert same_rows(mmm.surface_p, full_mmm.surface_p)
        assert same_rows(mmm.surface_q, full_mmm.surface_q)

    def test_indifference_stack(self, params, grid, keep):
        quantities = (10.0, 1.0, -1.0, -10.0)
        full = solve_indifference(params, Payoff("vanilla_call", STRIKE), grid,
                                  quantities)
        kept = solve_indifference(params, Payoff("vanilla_call", STRIKE), grid,
                                  quantities, keep)
        for (p, q), (p_full, q_full) in zip(kept, full):
            assert same_rows(p, p_full) and same_rows(q, q_full)

    def test_single_shock_stack(self, params, grid, keep):
        quantities = (10.0, 5.0, 1.0)
        full = solve_single_shock(params, Payoff("digital_put", STRIKE), grid,
                                  quantities)
        kept = solve_single_shock(params, Payoff("digital_put", STRIKE), grid,
                                  quantities, keep)
        for surf, surf_full in zip(kept, full):
            assert same_rows(surf, surf_full)


class TestKeptRowSurface:
    def test_unkept_time_is_refused_by_name(self, params, grid):
        unit = Payoff("vanilla_call", STRIKE)
        surf = linear_price(params, unit, "MEMM", grid, (0, 150)).surface_p
        full = linear_price(params, unit, "MEMM", grid).surface_p
        t_kept = 150 * grid.delta_t
        assert surf.quote(10.0, t_kept) == full.quote(10.0, t_kept)
        t = 7 * grid.delta_t
        with pytest.raises(ValueError, match=f"t={t} is not a stored row"):
            surf.quote(10.0, t)
        with pytest.raises(ValueError, match=f"t={t} is not a stored row"):
            surf.delta(10.0, t)

    def test_keep_is_validated(self, params, grid):
        unit = Payoff("vanilla_call", STRIKE)
        with pytest.raises(ValueError, match="keep row 301"):
            linear_price(params, unit, "MMM", grid, (0, N_TIME + 1))
        with pytest.raises(ValueError, match="keep row -1"):
            linear_price(params, unit, "MMM", grid, (-1,))
        with pytest.raises(ValueError, match="at least one"):
            linear_price(params, unit, "MMM", grid, ())
        with pytest.raises(ValueError, match="values shape"):
            PriceSurface(np.zeros((3, grid.n_space)), grid, 0, keep=(0, 1))

    @pytest.mark.parametrize("entry", [True, np.True_, 0.0, np.float64(1.0)])
    def test_non_integer_keep_is_refused_by_value(self, params, grid, entry):
        """A bool is not a row index (``operator.index(True)`` is 1), and a
        float row is refused by value rather than by a bare TypeError."""
        unit = Payoff("vanilla_call", STRIKE)
        match = re.escape(f"keep row must be an integer, got {entry!r}")
        with pytest.raises(ValueError, match=match):
            linear_price(params, unit, "MMM", grid, [0, entry])
        with pytest.raises(ValueError, match=match):
            PriceSurface(np.zeros((2, grid.n_space)), grid, 0, keep=(0, entry))

    def test_keep_is_sorted_and_deduplicated(self, params, grid):
        unit = Payoff("vanilla_call", STRIKE)
        a = linear_price(params, unit, "MMM", grid, (150, 0, 150)).surface_p
        b = linear_price(params, unit, "MMM", grid, (0, 150)).surface_p
        assert a.keep == (0, 150)
        assert np.array_equal(a.values, b.values)

    def test_keep_out_of_order_is_refused(self, params, grid):
        """``keep`` names the time of each row of ``values`` in order, so a
        surface cannot re-sort it without misreading its rows."""
        unit = Payoff("vanilla_call", STRIKE)
        full = linear_price(params, unit, "MMM", grid).surface_p
        for keep in ((150, 0), (0, 0, 150)):
            with pytest.raises(ValueError, match="keep must list distinct"):
                PriceSurface(full.values[list(keep)], grid, 0, keep=keep)
        kept = PriceSurface(full.values[[0, 150]], grid, 0, keep=(0, 150))
        assert kept.quote(10.0) == full.quote(10.0)


def first_step_iterations(params, kind, n, grid, monkeypatch) -> int:
    """Newton iterations of a solo single-shock march's first step: every
    other step makes one tridiagonal solve."""
    calls = []
    solve = pde._Stepper.solve

    def counted(self, *args):
        calls.append(1)
        return solve(self, *args)

    with monkeypatch.context() as m:
        m.setattr(pde._Stepper, "solve", counted)
        solve_single_shock(params, Payoff(kind, STRIKE), grid, [n])
    return len(calls) - (grid.n_time - 1)


def traced_peak(fn) -> int:
    """tracemalloc peak of a call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSingleShockStack:
    @pytest.mark.parametrize("kind, quantities", [
        ("vanilla_call", (1.0, 10.0, 3.0)),
        ("digital_call", (20.0, 1.0)),
    ])
    def test_stack_equals_solo_solves(self, params, grid, monkeypatch, kind,
                                      quantities):
        """Blocks whose first-step Newton converges in fewer iterations are
        frozen while the others iterate on, so each stays bit-identical."""
        iterations = {first_step_iterations(params, kind, n, grid, monkeypatch)
                      for n in quantities}
        assert len(iterations) > 1
        stacked = solve_single_shock(params, Payoff(kind, STRIKE), grid,
                                     quantities)
        for n, surf in zip(quantities, stacked):
            solo = solve_single_shock(params, Payoff(kind, STRIKE), grid, [n])[0]
            assert np.array_equal(surf.values, solo.values)
            assert surf.regime == solo.regime == 0

    def test_buyer_only(self, params, grid):
        with pytest.raises(ValueError, match="quantity > 0"):
            solve_single_shock(params, Payoff("vanilla_call", STRIKE), grid,
                               (1.0, -1.0))

    def test_table_guard_names_the_block(self, params):
        grid = GridSpec.build(params, STRIKE, n_time=500)
        with pytest.raises(NumericalError,
                           match=r"source table not positive .* gamma_eff = 40,"):
            solve_single_shock(params, Payoff("digital_call", STRIKE), grid,
                               (1.0, 40.0, 2.0))

    def test_exponent_guard_names_the_block(self, params, grid):
        with pytest.raises(NumericalError,
                           match=r"time value\| reached .* at gamma_eff = 1000;"):
            solve_single_shock(params, Payoff("vanilla_call", STRIKE), grid,
                               (1.0, 1000.0))

    @staticmethod
    def extra_peak(params, grid) -> int:
        """tracemalloc peak of an eight-buyer stack over a one-buyer one."""
        def peak(quantities) -> int:
            return traced_peak(lambda: solve_single_shock(
                params, Payoff("vanilla_call", STRIKE), grid, quantities, (0,)))

        return peak([float(n) for n in range(1, 9)]) - peak([1.0])

    def test_memory_does_not_grow_by_whole_tables(self, params, grid_default):
        """Each block's source table is integrated row by row as the march
        reaches it, so on the default grid eight buyers cost less than one
        more whole (N + 1) x M table over a single buyer."""
        table = (grid_default.n_time + 1) * grid_default.n_space * 8
        assert self.extra_peak(params, grid_default) < table

    def test_memory_per_extra_buyer_is_a_few_source_chunks(self, params, grid):
        """What a buyer adds is its source-chunk state: the integrand rows,
        the rows a Simpson block reads, half a chunk of scratch, and the
        integrated chunk of this block and of the one before, each
        _SOURCE_CHUNK (+ 3) rows x M, about five such chunks in all.  A
        whole table per buyer would be N / _SOURCE_CHUNK ~ 9.4 chunks at
        N = 300."""
        chunk = pde._SOURCE_CHUNK * grid.n_space * 8
        assert self.extra_peak(params, grid) / 7 <= 6 * chunk

    def test_one_buyer_holds_under_a_quarter_table(self, params, grid_default):
        """No whole (N + 1) x M table is left in a single-shock march: the
        Black-Scholes rows are computed a Simpson block at a time as the
        march reaches them, turned into time values and guarded there."""
        table = (grid_default.n_time + 1) * grid_default.n_space * 8
        peak = traced_peak(lambda: solve_single_shock(
            params, Payoff("vanilla_call", STRIKE), grid_default, [1.0], (0,)))
        assert peak < table / 4

    def test_zero_order_holds_its_surface_and_source_chunks(self, params,
                                                            grid_default):
        """The gamma -> 0 single-shock march keeps every row, so its surface
        is one whole table; its Black-Scholes rows and source rows are
        computed and integrated a chunk at a time, not as further tables."""
        table = (grid_default.n_time + 1) * grid_default.n_space * 8
        peak = traced_peak(lambda: single_shock_zero_order(
            params, Payoff("vanilla_call", STRIKE), grid_default))
        assert peak <= 1.25 * table

    @pytest.mark.parametrize("argv", [
        ["price"],
        ["price", "--nsteps", "8000", "--contracts", "1"]],
        ids=["default", "nsteps-8000"])
    def test_price_holds_under_half_a_table(self, argv):
        """`price` stores row 0 of each march and streams the single-shock
        Black-Scholes rows, so it never holds an (N + 1) x M table; at
        N = 8000 a table is about 69 MB."""
        cfg = cli.load_config(cli.build_parser().parse_args(argv))
        grid = cfg.grid()
        table = (grid.n_time + 1) * grid.n_space * 8
        assert traced_peak(lambda: cli.cmd_price(cfg)) < table / 2

    @pytest.mark.parametrize("solve", ["stack", "zero_order"])
    def test_every_black_scholes_row_is_computed_once(self, params, grid,
                                                      monkeypatch, solve):
        """Each time row of the Black-Scholes table is evaluated exactly
        once, in ascending order, one bs_price call per Simpson block: the
        rows that neighbouring blocks share are kept, not recomputed."""
        ttms = []
        bs_price = liqshock.bs.bs_price

        def counted(payoff, ttm, spot, sigma):
            ttms.append(np.array(ttm).ravel())
            return bs_price(payoff, ttm, spot, sigma)

        monkeypatch.setattr(liqshock.bs, "bs_price", counted)
        payoff = Payoff("vanilla_call", STRIKE)
        if solve == "stack":
            solve_single_shock(params, payoff, grid, (1.0, 3.0), (0,))
        else:
            single_shock_zero_order(params, payoff, grid)
        assert len(ttms) == len(range(0, grid.n_time, pde._SOURCE_CHUNK))
        assert np.array_equal(np.concatenate(ttms), grid.times())

    def test_exponent_guard_refuses_the_block_it_reaches(self, params, grid,
                                                         monkeypatch):
        """The time-value guard checks each block of Black-Scholes rows
        before its exponentials: here a later block is the first whose
        gamma_eff * |P_BS - h| passes the cap, and the message reports that
        block's largest value, below the whole table's."""
        payoff = Payoff("vanilla_call", STRIKE)
        h = payoff.value(grid.spot_nodes())
        blocks = []
        bs_price = liqshock.bs.bs_price

        def recorded(*args):
            out = bs_price(*args)
            blocks.append(np.max(np.abs(out - h)))
            return out

        monkeypatch.setattr(liqshock.bs, "bs_price", recorded)
        with pytest.raises(NumericalError) as exc:
            solve_single_shock(params, payoff, grid, (1.0, 1000.0), (0,))
        assert len(blocks) > 1
        assert all(1000.0 * v <= pde._EXP_CAP for v in blocks[:-1])
        whole = np.max(np.abs(bs_price(payoff, grid.times()[:, None],
                                       grid.spot_nodes(), params.sigma0) - h))
        assert blocks[-1] < whole
        assert (f"|gamma_eff * time value| reached {1000.0 * blocks[-1]:.6g} "
                "> 700 at gamma_eff = 1000;") in str(exc.value)

    @pytest.mark.parametrize("quantities, named", [
        ((1.0, 2000.0, 1000.0), 2000.0),
        ((1.0, 1000.0, 2000.0), 2000.0)])
    def test_exponent_guard_names_the_first_block_to_trip(
            self, params, grid, quantities, named):
        """The guard trips at the first block of rows where any buyer's
        time value passes the cap and names the first such buyer in stack
        order; a larger gamma_eff reaches the cap in an earlier block."""
        with pytest.raises(NumericalError,
                           match=rf"time value\| reached .* at gamma_eff = "
                                 rf"{named:g};"):
            solve_single_shock(params, Payoff("vanilla_call", STRIKE), grid,
                               quantities)

    def test_stacked_exponent_guard_names_the_first_offending_block(self):
        x = np.zeros((3, 4))
        x[1, 2] = -701.0
        x[2, 0] = np.inf
        with pytest.raises(NumericalError,
                           match=r"reached 701 > 700 at gamma_eff = 2;"):
            pde._check_exponent(x, "gamma_eff * (p - h)", np.array([1., 2., 3.]))
        pde._check_exponent(x[:1], "gamma_eff * (p - h)", np.array([1.]))


class TestStepGuard:
    """The guard the march steps call (one abs into scratch, one max)
    decides as ``_check_exponent`` does and raises its very message."""

    WHATS = ("gamma_eff * (q - p)", "gamma_eff * (p - h)")
    GAMMAS = np.array([1.0, 2.0, 3.0])

    @staticmethod
    def check(x, what, gammas) -> str | None:
        try:
            pde._check_exponent(x, what, gammas)
        except NumericalError as exc:
            return str(exc)
        return None

    def guard(self, x, what, gammas) -> str | None:
        try:
            pde._guard_exponent(x, np.empty_like(x), what, gammas)
        except NumericalError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("what", WHATS)
    def test_cap_itself_passes(self, what):
        x = np.zeros((3, 4))
        x[1, 2], x[2, 0] = 700.0, -700.0
        assert self.guard(x, what, self.GAMMAS) is None
        assert self.check(x, what, self.GAMMAS) is None

    @pytest.mark.parametrize("what", WHATS)
    @pytest.mark.parametrize("bad", [np.nextafter(700.0, np.inf),
                                     -np.nextafter(700.0, np.inf),
                                     np.inf, -np.inf, np.nan],
                             ids=["above", "below", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("block", [0, 2])
    def test_refusals_match_the_full_check(self, what, bad, block):
        x = np.full((3, 4), 699.0)
        x[block, 3] = bad
        msg = self.guard(x, what, self.GAMMAS)
        assert msg is not None and msg == self.check(x, what, self.GAMMAS)
        assert f"at gamma_eff = {self.GAMMAS[block]:g};" in msg
        one = x[block:block + 1]
        assert self.guard(one, what, self.GAMMAS[:1]) == self.check(
            one, what, self.GAMMAS[:1])

    def test_every_step_guard_goes_through_it(self, params, monkeypatch):
        """Both guards of each indifference step and the guard of each
        single-shock step call ``_guard_exponent`` on the exponent
        ``_check_exponent`` would see, in stacks and in one-block marches
        alike."""
        calls: dict[str, int] = {}
        real = pde._guard_exponent

        def spy(x, buf, what, gamma_eff):
            calls[what] = calls.get(what, 0) + 1
            assert x.shape == buf.shape == (gamma_eff.size, grid.n_space)
            assert self.check(x, what, gamma_eff) is None
            real(x, buf, what, gamma_eff)

        monkeypatch.setattr(pde, "_guard_exponent", spy)
        grid = GridSpec.build(params, STRIKE, n_time=40)
        unit = Payoff("vanilla_call", STRIKE)
        for quantities in ((1.0, -2.0), (1.0,), (-2.0,)):
            calls.clear()
            solve_indifference(params, unit, grid, quantities, (0,))
            assert calls == {"gamma_eff * (q - p)": 2 * grid.n_time}
        for quantities in ((1.0, 2.0), (1.0,)):
            calls.clear()
            solve_single_shock(params, unit, grid, quantities, (0,))
            # Newton's first step takes at least two linearizations.
            assert calls["gamma_eff * (p - h)"] > grid.n_time
            assert list(calls) == ["gamma_eff * (p - h)"]


def test_indifference_stack_guard_names_the_block(params):
    grid = GridSpec.build(params, STRIKE, n_time=100)
    with pytest.raises(NumericalError,
                       match=r"\(q - p\)\| reached .* at gamma_eff = 10000;"):
        solve_indifference(params, Payoff("digital_call", STRIKE), grid,
                           (1.0, 2.0, 1e4))


@pytest.mark.parametrize("solve", [solve_indifference, solve_single_shock])
def test_empty_quantities_are_refused_by_name(params, grid, solve):
    with pytest.raises(ValueError, match="quantities must name at least one"):
        solve(params, Payoff("vanilla_call", STRIKE), grid, [])


@pytest.mark.parametrize("quantity", [float("inf"), float("nan")])
@pytest.mark.parametrize("solve", [solve_indifference, solve_single_shock])
def test_nonfinite_quantities_are_refused_by_value(params, grid, solve,
                                                   quantity):
    with pytest.raises(ValueError, match="gamma_eff must be finite and nonzero"):
        solve(params, Payoff("vanilla_call", STRIKE), grid, [quantity])


@pytest.mark.parametrize("quantity, shown", [(9.9e-7, "9.9e-07"),
                                             (-9.9e-7, "-9.9e-07"),
                                             (1e-200, "1e-200")])
@pytest.mark.parametrize("solve", [solve_indifference, solve_single_shock])
def test_tiny_gamma_eff_is_refused_by_value(params, grid, solve, quantity,
                                            shown):
    """Below |gamma_eff| = 1e-6 the march's two 1/gamma_eff terms cancel to
    rounding of about 1e-17 / |gamma_eff|, which would swamp the price."""
    with pytest.raises(NumericalError,
                       match=f"gamma_eff = {shown} is below 1e-06 .* "
                             "mmm_and_expansion"):
        solve(params, Payoff("vanilla_call", STRIKE), grid, [1.0, quantity])


@pytest.mark.parametrize("march", [
    lambda params, grid: linear_price(params, Payoff("vanilla_call", STRIKE),
                                      "MEMM", grid),
    lambda params, grid: solve_indifference(
        params, Payoff("vanilla_call", STRIKE), grid, [1.0, -1.0])],
    ids=["linear_price", "solve_indifference"])
def test_marches_leave_the_sampler_bounds_uncomputed(params, grid, monkeypatch,
                                                     march):
    """Only the Monte Carlo sampler reads a curve's thinning bounds."""
    curves = []

    def recorded(*args):
        curves.append(liqshock.model.intensity_curve(*args))
        return curves[-1]

    monkeypatch.setattr(pde, "intensity_curve", recorded)
    march(params, grid)
    assert [c.measure for c in curves] == ["MEMM"]
    assert not {"bound01", "bound10"} & set(vars(curves[0]))


@pytest.mark.parametrize("march", [
    lambda params, grid: linear_price(params, Payoff("vanilla_call", STRIKE),
                                      "MEMM", grid),
    lambda params, grid: mmm_and_expansion(
        params, Payoff("vanilla_call", STRIKE), grid),
    lambda params, grid: solve_indifference(
        params, Payoff("vanilla_call", STRIKE), grid, [1.0, -1.0])],
    ids=["linear_price", "mmm_and_expansion", "solve_indifference"])
def test_a_march_evaluates_the_discount_factors_once(params, grid,
                                                     factor_calls, march):
    """A march takes both MEMM intensities on its N + 1 time rows from one
    evaluation of the discount factors; ``merton_factors`` checks them at
    t = 0 and T when it builds them."""
    march(params, grid)
    assert factor_calls == [2, grid.n_time + 1]


class TestLinearPass:
    @pytest.mark.parametrize("kind", ["vanilla_call", "digital_call"])
    def test_bundle_p0_is_the_memm_price(self, params, kind):
        grid = GridSpec.build(params, STRIKE, n_time=N_TIME)
        unit = Payoff(kind, STRIKE)
        mmm, bundle = mmm_and_expansion(params, unit, grid)
        memm = linear_price(params, unit, "MEMM", grid)
        assert np.array_equal(bundle.p0.values, memm.surface_p.values)
        assert np.array_equal(bundle.q0.values, memm.surface_q.values)
        ref_mmm = linear_price(params, unit, "MMM", grid)
        assert np.array_equal(mmm.surface_p.values, ref_mmm.surface_p.values)
        assert np.array_equal(mmm.surface_q.values, ref_mmm.surface_q.values)
        ref = mmm_and_expansion(params, unit, grid)[1]
        assert np.array_equal(bundle.p1.values, ref.p1.values)
        assert np.array_equal(bundle.q1.values, ref.q1.values)


@pytest.mark.parametrize("quantity", [1.0, -5.0])
def test_gamma_stack_equals_per_gamma_solves(params, grid, quantity):
    """A quantity stack at gamma = 1 over quantity * g is the risk-aversion
    sweep over g, bit for bit."""
    gammas = [0.25, 0.5, 1.0, 2.0]
    unit = Payoff("vanilla_call", STRIKE)
    swept = solve_indifference(replace(params, gamma=1.0), unit, grid,
                               [quantity * g for g in gammas], keep=(0,))
    for (p, q), g in zip(swept, gammas):
        (p_ref, q_ref), = solve_indifference(replace(params, gamma=g), unit,
                                             grid, [quantity], keep=(0,))
        assert np.array_equal(p.values, p_ref.values)
        assert np.array_equal(q.values, q_ref.values)


@pytest.mark.parametrize("n_rows", [2, 3, 4, 301, 2001])
def test_cumulative_simpson_rounds_as_scipy(n_rows):
    rng = np.random.default_rng(n_rows)
    dx = 1.0 / max(n_rows - 1, 1)
    for shape in ((n_rows,), (n_rows, 538), (n_rows, 3, 5)):
        y = np.exp(3.0 * rng.standard_normal(shape))
        ref = cumulative_simpson(y, dx=dx, axis=0, initial=0.0)
        n = n_rows - 1                      # one block of the whole table
        table, = pde._cumulative_simpson_chunks(lambda lo, hi: y[lo:hi], n, dx,
                                                n + n % 2)
        assert np.array_equal(table, ref[1:])


@pytest.mark.parametrize("chunk", [2, 4, 64])
def test_cumulative_simpson_chunks_equal_the_whole_table(chunk):
    """Blocks of any size give the whole table's rows, and the row
    function is asked for each row once: adjacent ascending ranges, at
    most one per block."""
    rng = np.random.default_rng(chunk)
    for n_rows in (2, 3, 4, 5, 6, 7, 8, 9, 301):
        y = np.exp(3.0 * rng.standard_normal((n_rows, 3, 7)))
        dx = 1.0 / (n_rows - 1)
        ranges = []

        def rows(lo, hi):
            ranges.append((lo, hi))
            return y[lo:hi]

        blocks = list(pde._cumulative_simpson_chunks(rows, n_rows - 1, dx,
                                                     chunk))
        assert all(len(block) <= chunk for block in blocks)
        assert len(ranges) <= len(blocks)
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == n_rows
        ref = cumulative_simpson(y, dx=dx, axis=0, initial=0.0)
        assert np.array_equal(np.concatenate(blocks), ref[1:])


def test_cli_import_leaves_out_scipy_integrate():
    code = ("import sys, liqshock.cli; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(liqshock.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
