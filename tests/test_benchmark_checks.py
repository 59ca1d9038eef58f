"""The benchmark's output checks (``perfbench/checks.py``) pass on one small
job per command and catch a truncated output.

The checks call the package's API (``linear_price(...).quote(spot, t=)``,
``RunConfig.make_payoff``, ``bs_greeks(...).theta_ttm`` among others), so a
change that breaks it fails here, not first in a benchmark run.  Each job's
config is shaped like its workload's, at the centre of the parameter box and
on a 200-step grid.  The benchmark's files are only read; the configs are
written to a temporary directory.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from conftest import load_perfbench
from liqshock import cli
import oracle_occupation

workloads, checks = load_perfbench("workloads", "checks")

CENTRE = {key: 0.5 * (lo + hi) for key, (lo, hi) in workloads.BOX.items()}
BOOK = {"spots": workloads._floats(workloads.BOOK_SPOTS),
        "contracts": workloads._floats(workloads.BOOK_CONTRACTS)}
CLOCKS = {"spots": workloads._floats(workloads.CLOCKS_SPOTS),
          "contracts": "1.0"}
# command: (workload, config keys beyond the draw and the grid)
JOBS = {
    "price": ("book", {"payoff": "vanilla_call", **BOOK}),
    "converge": ("crosscheck", {"payoff": "vanilla_call", "paths": "2000",
                                "seed": "7"}),
    "ttm": ("clocks", {"payoff": "vanilla_call", **CLOCKS}),
    "hedge": ("clocks", {"payoff": "vanilla_put", **CLOCKS}),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """command -> (workload, job, exit status, stdout) of one run each."""
    config_dir = tmp_path_factory.mktemp("configs")
    out = {}
    for command, (workload, extra) in JOBS.items():
        path = config_dir / f"{command}.cfg"
        path.write_text(workloads._config_text(CENTRE, {"nsteps": "200", **extra}),
                        encoding="utf-8")
        job = workloads.Job(command, path)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(job.argv)
        out[command] = workload, job, status, stdout.getvalue()
    return out


def check(workload, job, status, stdout):
    return checks.Checker(workload, cli, oracle_occupation).check(
        job, status, stdout)[0]


@pytest.mark.parametrize("command", JOBS)
def test_each_command_passes_its_check(outputs, command):
    assert check(*outputs[command]) is None


@pytest.mark.parametrize("command", JOBS)
def test_a_truncated_output_is_caught(outputs, command):
    workload, job, status, stdout = outputs[command]
    truncated = "".join(stdout.splitlines(keepends=True)[:-1])
    assert check(workload, job, status, truncated) is not None
