"""Seeded inputs for the liqshock benchmark.

Every workload draws its model parameters from one box centred on the
paper's worked example (mu0 0.06, sigma0 0.3, nu01 1, nu10 12, gamma 1),
with T = 1 and K = 10:

    sigma0 in [0.2, 0.4]   nu01 in [0.5, 2]   nu10 in [6, 24]
    gamma  in [0.5, 2]     mu0  in [0.03, 0.09]

Each workload owns a fixed-size pool of draws.  The draws are a centred
Latin hypercube over the box: every parameter takes the midpoint of each of
its pool-size strata once, and the seed picks how the parameters' levels
are combined.  The work a job does depends on its draw (the Monte Carlo
sampler's grows about twofold from nu01 = 0.5 to nu01 = 2), so fixing the
levels keeps the work of a pool the same from seed to seed while the seed
still chooses every config.  The timed loop cycles through the pool.

The program sees only the config files written here and the subcommand
flags; the seed reaches it only as the Monte Carlo seed that ``crosscheck``
derives from it and writes into the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BOX = {
    "sigma0": (0.2, 0.4),
    "nu01": (0.5, 2.0),
    "nu10": (6.0, 24.0),
    "gamma": (0.5, 2.0),
    "mu0": (0.03, 0.09),
}
STRIKE = 10.0
MATURITY = 1.0

PAYOFF_KINDS = ("vanilla_call", "vanilla_put", "digital_call", "digital_put")
BOOK_CONTRACTS = (10.0, 5.0, 1.0, -1.0, -5.0, -10.0)
BOOK_SPOTS = (8.0, 10.0, 12.0)
CROSSCHECK_PATHS = 400_000
CLOCKS_SPOTS = tuple(float(s) for s in np.linspace(5.0, 15.0, 201))
CLOCKS_QUANTITIES = (10.0, 5.0, 1.0, -1.0, -5.0, -10.0)

# Why each workload exists (what it stresses, what it leaves idle):
WHY = {
    # price jobs: the pde march does the work (6 nonlinear, 3 single-shock,
    # 1 first-order and 2 linear marches, ~26k tridiagonal solves per job on
    # the default 2000 x 538 grid); mc is bypassed and bs runs only as one
    # vectorised table per single-shock solve.
    "book": "price jobs: the fixed-grid pde marches do ~90% of the work; "
            "mc is bypassed and bs runs vectorised",
    # converge jobs at 400k paths: the mc thinning sampler does ~70% of the
    # work; pde runs only linear marches, on the N = 500..4000 ladder, so it
    # exercises march size scaling rather than book's fixed grid.
    "crosscheck": "converge jobs at 400k paths: the mc thinning sampler "
                  "dominates; pde runs only linear marches on a grid ladder",
    # alternating ttm/hedge jobs on a 201-point spot sweep: bs runs as
    # ~14k scalar bs_price calls per pair (implied-clock bisection and hedge
    # decomposition) instead of one vectorised call; one march per job.
    "clocks": "ttm and hedge jobs on a 201-point spot sweep: scalar bs_price "
              "calls in implied-clock bisection dominate; one march per job",
}

# Pool sizes: draws per seed.  Book and crosscheck jobs take 2-3.5 s, so a
# 30 s run passes through a pool of 4 two to three times; clocks uses each
# draw for one ttm and one hedge job (0.4-0.8 s each).
POOL_SIZE = {"book": 4, "crosscheck": 4, "clocks": 8}
WORKLOAD_INDEX = {name: i for i, name in enumerate(WHY)}


@dataclass(frozen=True)
class Job:
    """One CLI call: the argv handed to ``liqshock.cli.main``."""

    command: str
    config: Path

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", "-"]


def _latin_hypercube(rng: np.random.Generator, n: int) -> list[dict[str, float]]:
    cols = {}
    for key, (lo, hi) in BOX.items():
        u = (rng.permutation(n) + 0.5) / n
        cols[key] = lo + (hi - lo) * u
    return [{key: float(cols[key][i]) for key in BOX} for i in range(n)]


def _config_text(draw: dict[str, float], extra: dict[str, str]) -> str:
    lines = [f"{key} = {value!r}" for key, value in draw.items()]
    lines += [f"strike = {STRIKE!r}", f"maturity = {MATURITY!r}"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def make_jobs(workload: str, seed: int, config_dir: Path) -> list[Job]:
    """Write the workload's config files and return its job cycle."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WHY)}")
    rng = np.random.default_rng([seed, WORKLOAD_INDEX[workload]])
    draws = _latin_hypercube(rng, POOL_SIZE[workload])
    config_dir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def add(command: str, k: int, draw: dict[str, float], payoff: str,
            extra: dict[str, str]) -> None:
        path = config_dir / f"{workload}-{k:02d}-{command}.cfg"
        path.write_text(_config_text(draw, {"payoff": payoff, **extra}),
                        encoding="utf-8")
        jobs.append(Job(command, path))

    if workload == "book":
        for k, draw in enumerate(draws):
            add("price", k, draw, PAYOFF_KINDS[k % len(PAYOFF_KINDS)],
                {"spots": _floats(BOOK_SPOTS),
                 "contracts": _floats(BOOK_CONTRACTS)})
    elif workload == "crosscheck":
        mc_seeds = rng.integers(0, 2 ** 62, size=len(draws))
        for k, draw in enumerate(draws):
            add("converge", k, draw, "vanilla_call",
                {"paths": str(CROSSCHECK_PATHS), "seed": str(int(mc_seeds[k]))})
    else:
        quantities = rng.permutation(np.resize(CLOCKS_QUANTITIES, len(draws)))
        for k, draw in enumerate(draws):
            payoff = ("vanilla_call", "vanilla_put")[k % 2]
            extra = {"spots": _floats(CLOCKS_SPOTS),
                     "contracts": repr(float(quantities[k]))}
            add("ttm", k, draw, payoff, extra)
            add("hedge", k, draw, payoff, extra)
    return jobs
