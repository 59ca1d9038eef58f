"""Output checks, run after the timed loop.

Each check takes one finished job and returns ``(cause, measures)``:
``cause`` is ``None`` for a good job or a one-line reason, and ``measures``
carries the accuracy figures the report aggregates (``mmm_oracle_err`` on
book, ``mc_z_max`` on crosscheck).
"""

from __future__ import annotations

import csv
import io
import math

from workloads import BOOK_CONTRACTS, BOOK_SPOTS, CLOCKS_SPOTS, Job

# Exit codes of ``liqshock.cli.main`` that mean the job completed; converge
# exits 4 when one of its own evidence checks fails, which is a reported
# verdict (it feeds mc_z_max), not a failed job.
COMPLETED_EXIT = {"price": {0}, "ttm": {0}, "hedge": {0}, "converge": {0, 4}}

# The MMM price on the default grid is O(dt) away from the exact
# occupation-density price.  Over the corners of the parameter box the
# largest error is 0.91 * dt (vanilla, sigma0 0.4, nu01 2, nu10 24); the
# check allows 1.5 * dt.
MMM_ORACLE_DT_FACTOR = 1.5
# Implied-clock round trip: bisection stops within this price tolerance.
IMPLIED_PRICE_TOL = 1e-10
# CSV numbers carry 10 significant digits: relative rounding <= 5e-10.
CSV_REL_ROUNDING = 5e-10

BOOK_BLOCK_ROWS = {
    "BS": len(BOOK_SPOTS),
    "AdjBS": len(BOOK_SPOTS),
    "MMM": len(BOOK_SPOTS),
    "MEMM": len(BOOK_SPOTS),
    "IndiffBuyer": len(BOOK_SPOTS) * sum(n > 0 for n in BOOK_CONTRACTS),
    "IndiffWriter": len(BOOK_SPOTS) * sum(n < 0 for n in BOOK_CONTRACTS),
    "SingleShock": len(BOOK_SPOTS) * sum(n > 0 for n in BOOK_CONTRACTS),
    "Asympt1": len(BOOK_SPOTS) * len(BOOK_CONTRACTS),
}
TTM_TIME_ROWS = 21


class CheckFailed(Exception):
    """A job's output is malformed or wrong; the message is the cause."""


def _table(text: str, header: list[str]) -> list[dict[str, str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckFailed(f"malformed CSV: header {rows[:1]!r}")
    out = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise CheckFailed(f"malformed CSV row {row!r}")
        out.append(dict(zip(header, row)))
    return out


def _num(row: dict[str, str], key: str, optional: bool = False) -> float | None:
    text = row[key]
    if optional and text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"column {key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"column {key}: non-finite value {text!r}")
    return value


class Checker:
    """Checks for one workload.  ``oracle`` is the read-only occupation
    oracle module (needed by book only)."""

    def __init__(self, workload: str, cli, oracle=None):
        self.workload = workload
        self.cli = cli
        self.oracle = oracle

    def check(self, job: Job, status: int | None, stdout: str) -> tuple[str | None, dict]:
        if status not in COMPLETED_EXIT[job.command]:
            return f"exit status {status}", {}
        try:
            cfg = self.cli.load_config(self.cli.build_parser().parse_args(job.argv))
            return None, getattr(self, f"_check_{job.command}")(cfg, status, stdout)
        except CheckFailed as exc:
            return str(exc), {}

    def _check_price(self, cfg, status, stdout) -> dict:
        rows = _table(stdout, ["method", "spot", "n", "gamma", "price"])
        counts: dict[str, int] = {}
        for row in rows:
            counts[row["method"]] = counts.get(row["method"], 0) + 1
            _num(row, "spot")
            _num(row, "price")
        if counts != BOOK_BLOCK_ROWS:
            raise CheckFailed(f"block row counts {counts} != {BOOK_BLOCK_ROWS}")
        params = cfg.params()
        unit = cfg.make_payoff(1.0)
        bound = MMM_ORACLE_DT_FACTOR * params.T / cfg.nsteps
        worst = 0.0
        for row in rows:
            if row["method"] != "MMM":
                continue
            spot = _num(row, "spot")
            exact = self.oracle.constant_intensity_price(params, unit, spot)
            err = abs(_num(row, "price") - exact)
            if err > bound:
                raise CheckFailed(f"MMM S={spot:g}: |PDE - oracle| = {err:.3g} "
                                  f"> {bound:.3g}")
            worst = max(worst, err)
        return {"mmm_oracle_err": worst}

    def _check_converge(self, cfg, status, stdout) -> dict:
        rows = _table(stdout, ["check", "detail", "measured", "bound", "status"])
        kinds: dict[str, int] = {}
        z_max = 0.0
        any_fail = False
        for row in rows:
            kinds[row["check"]] = kinds.get(row["check"], 0) + 1
            measured = _num(row, "measured")
            if row["check"] == "ladder":
                continue
            bound = _num(row, "bound")
            verdict = "PASS" if measured <= bound else "FAIL"
            if row["status"] != verdict:
                raise CheckFailed(f"row {row['detail']!r}: status {row['status']} "
                                  f"but measured {measured:g}, bound {bound:g}")
            any_fail |= verdict == "FAIL"
            if row["check"] == "pde_vs_mc":
                z_max = max(z_max, 3.0 * measured / bound)
        expected = {"ladder": 3, "ladder_monotone": 2,
                    "pde_vs_mc": 2 * len(cfg.spots)}
        if kinds != expected:
            raise CheckFailed(f"row counts {kinds} != {expected}")
        if any_fail != (status == 4):
            raise CheckFailed(f"exit status {status} disagrees with the FAIL rows")
        return {"mc_z_max": z_max, "exit4": status == 4}

    def _check_ttm(self, cfg, status, stdout) -> dict:
        from liqshock import GridSpec, bs_greeks, bs_price, linear_price
        rows = _table(stdout, ["sweep", "x", "horizon", "adjusted_ttm_liquid",
                               "adjusted_ttm_shock", "implied_ttm",
                               "low_confidence"])
        t_rows = [r for r in rows if r["sweep"] == "t"]
        s_rows = [r for r in rows if r["sweep"] == "S"]
        if (len(t_rows), len(s_rows)) != (TTM_TIME_ROWS, len(CLOCKS_SPOTS)) \
                or len(rows) != len(t_rows) + len(s_rows):
            raise CheckFailed(f"row counts t={len(t_rows)} S={len(s_rows)} "
                              f"total={len(rows)}")
        params = cfg.params()
        pay = cfg.make_payoff(1.0)
        grid = GridSpec.build(params, cfg.strike, n_time=cfg.nsteps, width=cfg.width)
        lin = linear_price(params, pay, "MEMM", grid)
        points = [(cfg.spot, _num(r, "x"), r) for r in t_rows]
        points += [(s, 0.0, r) for s, r in zip(CLOCKS_SPOTS, s_rows)]
        for spot, t, row in points:
            for key in ("horizon", "adjusted_ttm_liquid", "adjusted_ttm_shock"):
                _num(row, key)
            ttm = _num(row, "implied_ttm")
            if row["low_confidence"] != "0" or _num(row, "horizon") <= 0.0:
                continue
            quote = float(lin.quote(spot, t=t))
            rounding = 0.0 if ttm == 0.0 else CSV_REL_ROUNDING * ttm * abs(
                bs_greeks(pay, ttm, spot, params.sigma0).theta_ttm)
            err = abs(float(bs_price(pay, ttm, spot, params.sigma0)) - quote)
            if err > IMPLIED_PRICE_TOL + rounding:
                raise CheckFailed(
                    f"implied clock at S={spot:g}, t={t:g}: bs_price misses the "
                    f"MEMM quote by {err:.3g}")
        return {}

    def _check_hedge(self, cfg, status, stdout) -> dict:
        rows = _table(stdout, ["spot", "n", "delta_indiff", "delta_bs",
                               "delta_bs_adjusted", "base_delta",
                               "adjusted_ttm_spread", "implied_ttm_spread",
                               "smile_correction", "implied_ttm",
                               "merton_dollar_position", "low_confidence"])
        if len(rows) != len(CLOCKS_SPOTS):
            raise CheckFailed(f"{len(rows)} rows, expected {len(CLOCKS_SPOTS)}")
        for row in rows:
            for key in ("spot", "n", "delta_bs", "delta_bs_adjusted",
                        "merton_dollar_position"):
                _num(row, key)
            _num(row, "implied_ttm", optional=True)
            terms = [_num(row, "base_delta"), _num(row, "smile_correction")]
            terms += [_num(row, k, optional=True) or 0.0
                      for k in ("adjusted_ttm_spread", "implied_ttm_spread")]
            total = _num(row, "delta_indiff")
            # Each printed term carries its own 10-digit rounding.
            tol = 2 * CSV_REL_ROUNDING * (abs(total) + sum(abs(x) for x in terms)) \
                + 1e-15
            if abs(sum(terms) - total) > tol:
                raise CheckFailed(f"S={row['spot']}: decomposition sums to "
                                  f"{sum(terms):.12g}, delta_indiff {total:.12g}")
        return {}
