"""Command-line front end: pricing jobs driven by a flat config file.

Subcommands
-----------
price     Price the configured payoff with every method (closed forms,
          linear measure prices, indifference solves, single-shock,
          first-order expansion) across the configured spots.
ttm       Adjusted and implied time-to-maturity sweeps (in calendar time at
          the anchor spot, and in spot at t = 0).  Vanilla payoffs only.
hedge     Spot sweep of the indifference delta next to the plain and
          adjusted-clock Black-Scholes deltas, with the decomposition terms.
converge  Evidence run: time-grid halving ladder plus PDE-vs-Monte-Carlo
          agreement checks, one PASS/FAIL row each.

Config file: flat ``key = value`` lines, ``#`` starts a comment, unknown or
duplicate keys are rejected.  Every key has a default (the worked example:
mu0 0.06, sigma0 0.3, nu01 1, nu10 12, strike 10, maturity 1, gamma 1), so
all commands run with no config at all.  Recognized keys:

    mu0 sigma0 nu01 nu10 gamma      model parameters
    strike maturity payoff          contract (payoff in {vanilla_call,
                                    vanilla_put, digital_call, digital_put})
    spots contracts spot            evaluation spots, signed quantity list
                                    (positive = buyer, negative = writer),
                                    and the anchor spot for time sweeps
    nsteps width                    time steps and half-width (in terminal
                                    standard deviations) of the PDE grid
    paths seed                      Monte Carlo controls
    out                             output path ('-' = stdout)

Flags override config values and are parsed as config values are;
``--out -`` writes CSV to stdout.  All output is RFC-4180 CSV with
10-significant-digit numbers, so a fixed config and seed reproduce
byte-identical reports.  The single-shock solver is buyer-side only, so
negative quantities produce no SingleShock rows.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
failure (guard or convergence) or out of memory (the grid or the sample is
too large), 4 convergence-evidence check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bs as _bs
from .errors import NumericalError
from .mc import mc_linear_price
from .model import PAYOFF_KINDS, ModelParams, Payoff
from .pde import (GridSpec, hedge_report, linear_price, mmm_and_expansion,
                  solve_buyer, solve_indifference, solve_single_shock,
                  solve_writer)

# perfbench/spans.py patches these two names here; `price` calls the stacked
# solves, so those spans read 0.  The aliases go when the spans move to the
# solves `price` calls (ROADMAP item 1).
solve_single_shock_buyer = solve_single_shock
asymptotic_expansion = mmm_and_expansion

__all__ = ["RunConfig", "cmd_price", "cmd_ttm", "cmd_hedge", "cmd_converge",
           "main"]

# Numbers travel as 10-significant-digit decimal strings (stable goldens).
_FLOAT_FORMAT = ".10g"

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_CHECK_FAILED = 4

# Points used by the default spot sweeps of `ttm` and `hedge` (0.5 K .. 1.5 K)
# and by the calendar sweep of `ttm` (21 rows, t = 0 .. T).
_SWEEP_SPOT_POINTS = 41
_SWEEP_TIME_POINTS = 21
# Quote changes below this are considered converged regardless of ordering
# (the ladder otherwise compares rounding noise when nu01 = 0).
_LADDER_FLOOR = 1e-10
# Time rows stored by marches that are quoted at t = 0 only.
_FIRST_ROW = (0,)


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, _FLOAT_FORMAT)


def _fmt_opt(x: float) -> str:
    """A term that may not exist: NaN prints as an empty field."""
    return "" if math.isnan(x) else _fmt(x)


def _flag(b: bool) -> str:
    return "1" if b else "0"


@dataclass(frozen=True)
class RunConfig:
    """One resolved run: model, contract, grids, sweeps, output.

    Defaults reproduce the worked example (mu0 0.06, sigma0 0.3, nu01 1,
    nu10 12, strike 10, maturity 1, gamma 1).  ``explicit`` records which
    keys were set by the config file or flags, so commands can tell a
    deliberate ``spots`` list from the default one.
    """

    mu0: float = 0.06
    sigma0: float = 0.3
    nu01: float = 1.0
    nu10: float = 12.0
    gamma: float = 1.0
    strike: float = 10.0
    maturity: float = 1.0
    payoff: str = "vanilla_call"
    spots: tuple[float, ...] = (8.0, 10.0, 12.0)
    contracts: tuple[float, ...] = (10.0, 5.0, 1.0, -1.0, -5.0, -10.0)
    spot: float = 10.0
    nsteps: int = 2000
    width: float = 6.0
    paths: int = 100_000
    seed: int = 0
    out: str = "-"
    explicit: frozenset[str] = field(default_factory=frozenset)

    def params(self) -> ModelParams:
        return ModelParams(mu0=self.mu0, sigma0=self.sigma0, nu01=self.nu01,
                           nu10=self.nu10, gamma=self.gamma, T=self.maturity)

    def make_payoff(self, quantity: float = 1.0) -> Payoff:
        return Payoff(kind=self.payoff, strike=self.strike, quantity=quantity)

    def grid(self, n_time: int | None = None) -> GridSpec:
        return GridSpec.build(self.params(), self.strike,
                              n_time=self.nsteps if n_time is None else n_time,
                              width=self.width)


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"config key {key!r}: value must be finite, got {value!r}")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected an integer, got {value!r}") from None


def _parse_float_list(key: str, value: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in value.split(",")]
    if not all(items):
        raise ValueError(f"config key {key!r}: expected a comma-separated "
                         f"list with no empty item, got {value!r}")
    return tuple(_parse_float(key, piece) for piece in items)


def _parse_payoff_kind(key: str, value: str) -> str:
    if value not in PAYOFF_KINDS:
        raise ValueError(
            f"config key {key!r}: must be one of {', '.join(PAYOFF_KINDS)}, got {value!r}")
    return value


def _parse_str(key: str, value: str) -> str:
    return value


_CONFIG_PARSERS = {
    "mu0": _parse_float,
    "sigma0": _parse_float,
    "nu01": _parse_float,
    "nu10": _parse_float,
    "gamma": _parse_float,
    "strike": _parse_float,
    "maturity": _parse_float,
    "payoff": _parse_payoff_kind,
    "spots": _parse_float_list,
    "contracts": _parse_float_list,
    "spot": _parse_float,
    "nsteps": _parse_int,
    "width": _parse_float,
    "paths": _parse_int,
    "seed": _parse_int,
    "out": _parse_str,
}

# The config keys a flag of every subcommand overrides, in help order,
# each with its metavar and help text.  A flag value is parsed by its
# key's config parser.
_FLAGS = {
    "out": ("PATH", "output CSV path ('-' = stdout, the default)"),
    "seed": ("U64", "Monte Carlo seed"),
    "spots": ("LIST", "comma-separated evaluation spots"),
    "contracts": ("LIST", "comma-separated signed quantities"),
    "gamma": ("F", "risk aversion"),
    "nsteps": ("N", "time steps of the PDE grid"),
    "paths": ("N", "Monte Carlo paths"),
}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, object]:
    """Parse flat key=value config text into typed values.

    Unknown keys, duplicate keys, and malformed lines raise ValueError with
    the offending key/line named.
    """
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValueError(
                f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{origin}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ValueError(f"{origin}:{lineno}: duplicate config key {key!r}")
        out[key] = _CONFIG_PARSERS[key](key, value)
    return out


def load_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    values: dict[str, object] = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config!r}: {exc}") from None
        values.update(parse_config_text(text, origin=args.config))
    for key in _FLAGS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = _CONFIG_PARSERS[key](key, flag_value)
    cfg = RunConfig(**values, explicit=frozenset(values))
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    cfg.params()                      # model parameter validation
    for s in cfg.spots:
        if s <= 0.0:
            raise ValueError(f"config key 'spots': spots must be > 0, got {s}")
    if cfg.spot <= 0.0:
        raise ValueError(f"config key 'spot': must be > 0, got {cfg.spot}")
    for n in cfg.contracts:
        if n == 0.0:
            raise ValueError("config key 'contracts': quantities must be nonzero")
    if cfg.nsteps < 1:
        raise ValueError(f"config key 'nsteps': must be >= 1, got {cfg.nsteps}")
    if cfg.width <= 0.0:
        raise ValueError(f"config key 'width': must be > 0, got {cfg.width}")
    if cfg.paths < 100:
        raise ValueError(f"config key 'paths': must be >= 100, got {cfg.paths}")
    if not 0 <= cfg.seed < 2 ** 63:
        raise ValueError(f"config key 'seed': must be in [0, 2**63), got {cfg.seed}")


def _default_spot_sweep(strike: float) -> tuple[float, ...]:
    lo, hi = 0.5 * strike, 1.5 * strike
    return tuple(np.linspace(lo, hi, _SWEEP_SPOT_POINTS))


def _sweep_spots(cfg: RunConfig) -> tuple[float, ...]:
    return cfg.spots if "spots" in cfg.explicit else _default_spot_sweep(cfg.strike)


Report = tuple[list[str], list[list[str]]]


def cmd_price(cfg: RunConfig) -> Report:
    """Price table: every method at every configured spot.

    Linear methods (BS, AdjBS, MMM, MEMM) leave the n and gamma columns
    empty; the indifference blocks report per-contract prices for each
    signed quantity in ``contracts`` (buyers positive, writers negative).
    The SingleShock block covers the positive quantities only, and Asympt1
    is the first-order expansion p0 + n*gamma*p1 for every quantity.

    Three marches, each storing row 0 only: the linear pass (MMM next to
    the expansion, whose p0 is the MEMM price), one indifference stack of
    every contract, and one single-shock stack of the buyers.
    """
    params = cfg.params()
    unit = cfg.make_payoff(1.0)
    grid = cfg.grid()
    spots = cfg.spots
    grid.log_spots(spots)             # refuse off-grid spots before any march
    gamma_s = _fmt(params.gamma)
    header = ["method", "spot", "n", "gamma", "price"]
    rows: list[list[str]] = []

    def linear_rows(method: str, prices) -> None:
        for s, v in zip(spots, prices):
            rows.append([method, _fmt(s), "", "", _fmt(v)])

    def contract_rows(method: str, n: float, prices) -> None:
        for s, v in zip(spots, prices):
            rows.append([method, _fmt(s), _fmt(n), gamma_s, _fmt(v)])

    spot_arr = np.asarray(spots, dtype=float)
    linear_rows("BS", _bs.bs_price(unit, params.T, spot_arr, params.sigma0))
    t_adj = float(_bs.adjusted_ttm(params, params.T, 0))
    linear_rows("AdjBS", _bs.bs_price(unit, t_adj, spot_arr, params.sigma0))
    mmm, bundle = mmm_and_expansion(params, unit, grid, _FIRST_ROW)
    linear_rows("MMM", mmm.quote(spot_arr))
    linear_rows("MEMM", bundle.p0.quote(spot_arr))

    buyers = [n for n in cfg.contracts if n > 0.0]
    writers = [n for n in cfg.contracts if n < 0.0]
    quantities = buyers + writers
    pairs = solve_indifference(params, unit, grid, quantities, _FIRST_ROW)
    for n, (p, _) in zip(quantities, pairs):
        contract_rows("IndiffBuyer" if n > 0.0 else "IndiffWriter", n,
                      p.quote(spot_arr))
    if buyers:
        surfaces = solve_single_shock(params, unit, grid, buyers, _FIRST_ROW)
        for n, surf in zip(buyers, surfaces):
            contract_rows("SingleShock", n, surf.quote(spot_arr))
    for n in cfg.contracts:
        contract_rows("Asympt1", n,
                      bundle.first_order_quote(spot_arr, n * params.gamma))
    return header, rows


def cmd_ttm(cfg: RunConfig) -> Report:
    """Adjusted/implied time-to-maturity report (vanilla payoffs only).

    Block one sweeps calendar time at the anchor spot; block two sweeps the
    spot at t = 0 (the implied clock dips lowest near the strike).  The
    implied clock inverts the Black-Scholes price of the linear MEMM quote.
    """
    params = cfg.params()
    pay = cfg.make_payoff(1.0)
    if pay.is_digital:
        raise ValueError(
            "the ttm command needs a vanilla payoff: digital prices are not "
            "monotone in maturity, so no implied time-to-maturity exists")
    grid = cfg.grid()
    spots = np.asarray(_sweep_spots(cfg), dtype=float)
    # Refuse off-grid spots before the march, the anchor first.
    grid.log_spots(cfg.spot)
    grid.log_spots(spots)
    n_t = grid.n_time
    indices = sorted({round(k * n_t / (_SWEEP_TIME_POINTS - 1))
                      for k in range(_SWEEP_TIME_POINTS)})
    times = [i * grid.delta_t for i in indices]
    lin = linear_price(params, pay, "MEMM", grid, indices)
    header = ["sweep", "x", "horizon", "adjusted_ttm_liquid",
              "adjusted_ttm_shock", "implied_ttm", "low_confidence"]
    rows: list[list[str]] = []

    # Horizons fall as t rises, so the rows with time left are a prefix.
    horizons = params.T - np.array(times)
    n_live = int(np.count_nonzero(horizons > 0.0))
    # One inversion over the live time rows (anchor spot) and the spot sweep.
    imp = _bs.implied_ttm(
        pay, np.concatenate([np.full(n_live, cfg.spot), spots]),
        np.concatenate([[lin.quote(cfg.spot, t=t) for t in times[:n_live]],
                        lin.quote(spots, t=0.0)]),
        params.sigma0,
        np.concatenate([horizons[:n_live], np.full(spots.size, params.T)]))
    failed = np.flatnonzero(imp.failure != "")
    if failed.size:
        raise ValueError(imp.failure[failed[0]])

    # One adjusted-clock call per regime: the time rows' horizons, then T
    # for the spot rows.
    adj0 = _bs.adjusted_ttm(params, np.append(horizons, params.T), 0)
    adj1 = _bs.adjusted_ttm(params, np.append(horizons, params.T), 1)
    for k, t in enumerate(times):
        if k < n_live:
            implied, low_conf = imp.ttm[k], imp.low_confidence[k]
        else:
            implied, low_conf = 0.0, float(pay.value(cfg.spot)) > 0.0
        rows.append(["t", _fmt(t), _fmt(horizons[k]), _fmt(adj0[k]),
                     _fmt(adj1[k]), _fmt(implied), _flag(low_conf)])

    for s, implied, low_conf in zip(spots, imp.ttm[n_live:],
                                    imp.low_confidence[n_live:]):
        rows.append(["S", _fmt(s), _fmt(params.T), _fmt(adj0[-1]),
                     _fmt(adj1[-1]), _fmt(implied), _flag(low_conf)])
    return header, rows


def cmd_hedge(cfg: RunConfig) -> Report:
    """Spot sweep of deltas at t = 0 for the first configured quantity.

    Reports the indifference delta dp/dS next to the plain Black-Scholes
    delta and the adjusted-clock delta, plus the decomposition terms (the
    base delta, the two clock shifts, and the residual sum to the
    indifference delta; digitals carry base + residual only).
    """
    params = cfg.params()
    quantity = cfg.contracts[0]
    pay_n = cfg.make_payoff(quantity)
    grid = cfg.grid()
    spots = np.asarray(_sweep_spots(cfg), dtype=float)
    grid.log_spots(spots)             # refuse off-grid spots before the march
    if quantity > 0.0:
        surf, _ = solve_buyer(params, pay_n, grid, _FIRST_ROW)
    else:
        surf, _ = solve_writer(params, pay_n, grid, _FIRST_ROW)
    header = ["spot", "n", "delta_indiff", "delta_bs", "delta_bs_adjusted",
              "base_delta", "adjusted_ttm_spread", "implied_ttm_spread",
              "smile_correction", "implied_ttm", "merton_dollar_position",
              "low_confidence"]
    rep = hedge_report(params, pay_n, surf, 0.0, spots)
    n_s, merton = _fmt(quantity), _fmt(rep.merton_dollar_position)
    rows: list[list[str]] = []
    for k, s in enumerate(spots):
        rows.append([
            _fmt(s), n_s, _fmt(rep.indiff_delta[k]), _fmt(rep.base_delta[k]),
            _fmt_opt(rep.adjusted_delta[k]), _fmt(rep.base_delta[k]),
            _fmt_opt(rep.adjusted_ttm_spread[k]),
            _fmt_opt(rep.implied_ttm_spread[k]), _fmt(rep.smile_correction[k]),
            _fmt_opt(rep.implied_ttm_value[k]), merton,
            _flag(rep.low_confidence[k])])
    return header, rows


def cmd_converge(cfg: RunConfig) -> tuple[list[str], list[list[str]], bool]:
    """Convergence evidence: grid ladder plus PDE-vs-MC agreement.

    The ladder solves the linear MEMM price on time grids nsteps/4, /2, x1,
    x2 and checks that consecutive quote changes shrink; the MC block
    compares PDE quotes with the path oracle at 3 standard errors.  Returns
    the report plus an overall pass flag (exit code 4 on failure).
    """
    params = cfg.params()
    unit = cfg.make_payoff(1.0)
    header = ["check", "detail", "measured", "bound", "status"]
    rows: list[list[str]] = []
    all_ok = True

    base = max(1, cfg.nsteps // 4)
    ladder = [base, 2 * base, 4 * base, 8 * base]
    # Refuse off-grid spots before any march or sampling: the anchor on
    # each rung's grid in ladder order, then the spot list on the nsteps grid.
    rungs = []
    for n_time in ladder:
        rung = cfg.grid(n_time=n_time)
        rung.log_spots(cfg.spot)
        rungs.append(rung)
    grid = cfg.grid()
    grid.log_spots(cfg.spots)
    quotes = []
    # The MEMM march on the nsteps grid, when a rung is that grid; the MC
    # block below reuses it.
    memm_at_nsteps = None
    for rung in rungs:
        result = linear_price(params, unit, "MEMM", rung, _FIRST_ROW)
        if rung.n_time == cfg.nsteps:
            memm_at_nsteps = result
        quotes.append(float(result.quote(cfg.spot)))
    diffs = [abs(b - a) for a, b in zip(quotes, quotes[1:])]
    for (n_a, n_b), d in zip(zip(ladder, ladder[1:]), diffs):
        rows.append(["ladder", f"MEMM quote change N={n_a}->N={n_b}",
                     _fmt(d), "", ""])
    for k in range(1, len(diffs)):
        bound = max(diffs[k - 1], _LADDER_FLOOR)
        ok = diffs[k] <= bound
        all_ok &= ok
        rows.append(["ladder_monotone",
                     f"|change N={ladder[k]}->N={ladder[k + 1]}| shrinks",
                     _fmt(diffs[k]), _fmt(bound), "PASS" if ok else "FAIL"])

    cell = 0
    for measure in ("MMM", "MEMM"):
        if measure == "MEMM" and memm_at_nsteps is not None:
            result = memm_at_nsteps
        else:
            result = linear_price(params, unit, measure, grid, _FIRST_ROW)
        for s in cfg.spots:
            est = mc_linear_price(params, unit, measure, float(s), cfg.paths,
                                  (cfg.seed + cell) % 2 ** 63)
            cell += 1
            diff = abs(float(result.quote(s)) - est.mean)
            bound = 3.0 * est.std_error
            ok = diff <= bound
            all_ok &= ok
            rows.append(["pde_vs_mc", f"{measure} S={_fmt(s)}", _fmt(diff),
                         _fmt(bound), "PASS" if ok else "FAIL"])
    return header, rows, all_ok


def _write_report(out: str, header: list[str], rows: list[list[str]]) -> None:
    """Write the finished report; the file is opened only now, so a run
    that fails earlier leaves an existing file untouched."""
    try:
        stream = (contextlib.nullcontext(sys.stdout) if out == "-"
                  else open(out, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise ValueError(f"cannot write output file {out!r}: {exc}") from None
    with stream as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liqshock",
        description="Option pricing under liquidity shocks: closed forms, "
                    "indifference PDE solves, and Monte Carlo cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's report function (read when the parser is built, so a
    # patched ``cmd_*`` is the one that runs) and its help text.
    commands = {
        "price": (cmd_price, "price the payoff with every method across the spot list"),
        "ttm": (cmd_ttm, "adjusted / implied time-to-maturity sweeps (vanilla only)"),
        "hedge": (cmd_hedge, "delta curves and hedge decomposition across a spot sweep"),
        "converge": (cmd_converge,
                     "grid-ladder and PDE-vs-MC evidence run (exit 4 on failure)"),
    }
    for name, (report, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(report=report)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="flat key=value config file ('#' comments)")
        for key, (metavar, flag_help) in _FLAGS.items():
            p.add_argument(f"--{key}", default=None, metavar=metavar,
                           help=flag_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        # `converge` adds an overall pass flag to its report.
        header, rows, *ok = args.report(cfg)
        status = _EXIT_OK if all(ok) else _EXIT_CHECK_FAILED
        _write_report(cfg.out, header, rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}; the PDE grid (nsteps, width) or the "
              "Monte Carlo sample (paths) is too large for this machine",
              file=sys.stderr)
        return _EXIT_NUMERICAL
    if status == _EXIT_CHECK_FAILED:
        print("convergence checks failed (see report)", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
