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
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import liqshock
from liqshock import (
    GridSpec,
    NumericalError,
    Payoff,
    PriceSurface,
    asymptotic_expansion,
    linear_price,
    mmm_and_expansion,
    single_shock_zero_order,
    solve_indifference,
    solve_single_shock,
    solve_single_shock_buyer,
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
    assert kept.keep is not None and full.keep is None
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
        full = asymptotic_expansion(params, unit, grid)
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


def first_step_iterations(params, payoff, grid, monkeypatch) -> int:
    """Newton iterations of a solo single-shock march's first step: every
    other step makes one tridiagonal solve."""
    calls = []
    solve = pde._Stepper.solve

    def counted(self, *args):
        calls.append(1)
        return solve(self, *args)

    with monkeypatch.context() as m:
        m.setattr(pde._Stepper, "solve", counted)
        solve_single_shock_buyer(params, payoff, grid)
    return len(calls) - (grid.n_time - 1)


class TestSingleShockStack:
    @pytest.mark.parametrize("kind, quantities", [
        ("vanilla_call", (1.0, 10.0, 3.0)),
        ("digital_call", (20.0, 1.0)),
    ])
    def test_stack_equals_solo_solves(self, params, grid, monkeypatch, kind,
                                      quantities):
        """Blocks whose first-step Newton converges in fewer iterations are
        frozen while the others iterate on, so each stays bit-identical."""
        iterations = {first_step_iterations(params, Payoff(kind, STRIKE, n),
                                             grid, monkeypatch)
                      for n in quantities}
        assert len(iterations) > 1
        stacked = solve_single_shock(params, Payoff(kind, STRIKE), grid,
                                     quantities)
        for n, surf in zip(quantities, stacked):
            solo = solve_single_shock_buyer(params, Payoff(kind, STRIKE, n), grid)
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
            tracemalloc.start()
            try:
                solve_single_shock(params, Payoff("vanilla_call", STRIKE), grid,
                                   quantities, (0,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        return peak([float(n) for n in range(1, 9)]) - peak([1.0])

    def test_memory_does_not_grow_by_whole_tables(self, params, grid_default):
        """Each block's source table is integrated row by row as the march
        reaches it, so on the default grid eight buyers cost less than one
        more whole (N + 1) x M table over a single buyer."""
        table = (grid_default.n_time + 1) * grid_default.n_space * 8
        assert self.extra_peak(params, grid_default) < table

    def test_memory_per_extra_buyer_is_a_few_source_chunks(self, params, grid):
        """What a buyer adds is its source-chunk state: the integrand rows,
        the exponent temporary and the integrated chunk, each _SOURCE_CHUNK
        (+ 3) rows x M, about four such chunks in all.  A whole table per
        buyer would be N / _SOURCE_CHUNK ~ 9.4 chunks at N = 300."""
        chunk = pde._SOURCE_CHUNK * grid.n_space * 8
        assert self.extra_peak(params, grid) / 7 <= 6 * chunk

    def test_one_buyer_holds_about_one_table(self, params, grid_default):
        """The Black-Scholes table is the one whole (N + 1) x M table of a
        single-shock march: its time values overwrite it in place, and the
        exponent guard takes their largest magnitude without a second
        table."""
        table = (grid_default.n_time + 1) * grid_default.n_space * 8
        tracemalloc.start()
        try:
            solve_single_shock(params, Payoff("vanilla_call", STRIKE),
                               grid_default, [1.0], (0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table

    def test_zero_order_holds_the_table_and_its_surface(self, params,
                                                        grid_default):
        """The gamma -> 0 single-shock march keeps every row, so it holds its
        surface next to the Black-Scholes table; its source rows are
        integrated a chunk at a time, not as a third whole table."""
        table = (grid_default.n_time + 1) * grid_default.n_space * 8
        tracemalloc.start()
        try:
            single_shock_zero_order(params, Payoff("vanilla_call", STRIKE),
                                    grid_default)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * table

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
        ref = asymptotic_expansion(params, unit, grid)
        assert np.array_equal(bundle.p1.values, ref.p1.values)
        assert np.array_equal(bundle.q1.values, ref.q1.values)


    def test_standalone_bundle_owns_its_surfaces(self, params):
        """``asymptotic_expansion`` keeps no view into the two-block march,
        so the MMM block is freed: the bundle holds its four surfaces and
        no more, bit-identical to ``mmm_and_expansion``'s."""
        grid = GridSpec.build(params, STRIKE, n_time=N_TIME)
        unit = Payoff("vanilla_put", STRIKE)
        tracemalloc.start()
        try:
            bundle = asymptotic_expansion(params, unit, grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        surface_bytes = (N_TIME + 1) * grid.n_space * 8
        assert held < 4.5 * surface_bytes
        _, ref = mmm_and_expansion(params, unit, grid)
        for name in ("p0", "q0", "p1", "q1"):
            values = getattr(bundle, name).values
            assert values.base is None
            assert np.array_equal(values, getattr(ref, name).values)


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
        assert np.array_equal(pde._cumulative_simpson(y, dx), ref)


@pytest.mark.parametrize("chunk", [2, 4, 64])
def test_cumulative_simpson_chunks_equal_the_whole_table(chunk):
    rng = np.random.default_rng(chunk)
    for n_rows in (2, 3, 4, 5, 6, 7, 8, 9, 301):
        y = np.exp(3.0 * rng.standard_normal((n_rows, 3, 7)))
        dx = 1.0 / (n_rows - 1)
        blocks = list(pde._cumulative_simpson_chunks(
            lambda lo, hi: y[lo:hi], n_rows - 1, dx, chunk))
        assert all(len(block) <= chunk for block in blocks)
        assert np.array_equal(np.concatenate(blocks), pde._cumulative_simpson(y, dx)[1:])


def test_cli_import_leaves_out_scipy_integrate():
    code = ("import sys, liqshock.cli; "
            "print('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(liqshock.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
