"""liqshock benchmark: closed-loop CLI jobs with output checks and tracing.

Run from the repository root:

    python3 perfbench/run.py --workload book --seed 1 --seconds 30 --trace 0

One client in one process runs jobs back to back; a job is one call of
``liqshock.cli.main`` on a config file the benchmark generated from the
seed (see ``workloads.py``).  BLAS and OpenMP pools are pinned to one
thread.  Outputs are checked after the timed loop (``checks.py``).

``--trace 0`` measures the end-to-end metrics.  The timings it gates on are
normalised to a nominal host speed with ``hostprobe.py``, which times a
fixed kernel during each job; the wall-clock values are reported beside
them.  ``--trace 1`` runs every job
twice, untraced and traced in alternating order, and reports the per-layer
metrics of ``spans.py`` plus the tracing overhead.  The last line of stdout
is one JSON object; the lines before it are the full report, and the same
report with provenance is written to ``perfbench/work/results/``.

``python3 perfbench/selfcheck.py`` runs one short run per workload and
confirms every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Thread pools pinned to one thread; set before numpy is first imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"

# Set-ups measured per run (each in a fresh process); setup_s is their median.
# setup_s is not normalised to the host speed: over 30 runs, set-up time
# moved with the probe time only to the power 0.4 (log-log slope), so
# dividing by it added more noise than it removed.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# job_s_tail is the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s_norm": "jobs/s",
    "job_s_p50_norm": "s",
    "peak_rss_mb": "MB",
}
# Reported with the end-to-end metrics but not in the final JSON line, as
# none can hold a regression bound from seed to seed: wall-clock job times
# follow the load other tenants put on the host (the final line carries
# them normalised to a nominal host speed); a 30 s run of book or
# crosscheck holds about 10 jobs, so its tail is the fastest job; a failure
# share is 0 on a healthy run; the two accuracy figures follow the seed's
# parameter draws and exist on one workload each (see README.md).
REPORT_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "failed_frac": "ratio",
    "mmm_oracle_err": "price",
    "mc_z_max": "SE",
    "host_probe_ms": "ms",
}
LAYER_UNITS = {
    "cli.config_s": "s/job",
    "cli.self_s": "s/job",
    "pde.nonlinear_calls": "calls/job",
    "pde.nonlinear_s": "s/job",
    "pde.single_shock_s": "s/job",
    "pde.asymptotic_s": "s/job",
    "pde.steps": "steps/job",
    "pde.us_per_step": "us/step",
    "pde.surface_mb": "MB/job",
    "pde.hedge_s": "s/job",
    "pde.quote_calls": "calls/job",
    "pde.guard_trips": "count",
    "emm.linear_calls": "calls/job",
    "emm.linear_s": "s/job",
    "mc.sampler_s": "s/job",
    "mc.price_s": "s/job",
    "mc.paths_per_s": "paths/s",
    "mc.accept_ratio": "ratio",
    "bs.price_calls": "calls/job",
    "bs.price_s": "s/job",
    "bs.price_calls_per_implied": "calls/call",
    "bs.implied_s": "s/job",
    "bs.greeks_s": "s/job",
    "model.factors_s": "s/job",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources, bad input)."""


@dataclass
class Prepared:
    cli: object
    oracle: object
    jobs: list


@dataclass
class Outcome:
    job: object
    status: int | None
    stdout: str
    seconds: float
    cause: str | None = None
    probe_s: float | None = None    # mean host probe during the job


def prepare(workload: str, seed: int) -> Prepared:
    """Everything before the first job: import, generate inputs, load configs."""
    package = ROOT / "src" / "liqshock" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no liqshock sources at {package.parent}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("liqshock.cli")
    if Path(cli.__file__).resolve().parent != package.parent.resolve():
        raise SetupError(f"imported liqshock from {cli.__file__}, not the checkout")
    oracle = None
    if workload == "book":
        path = ROOT / "tests" / "oracle_occupation.py"
        if not path.is_file():
            raise SetupError(f"missing occupation oracle {path}")
        spec = importlib.util.spec_from_file_location("oracle_occupation", path)
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
    from workloads import make_jobs
    try:
        jobs = make_jobs(workload, seed, WORK / "configs" / f"{workload}-s{seed}")
    except ValueError as exc:
        raise SetupError(str(exc)) from None
    parser = cli.build_parser()
    for job in jobs:
        cli.load_config(parser.parse_args(job.argv))
    return Prepared(cli, oracle, jobs)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to first job ready, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                "--workload", workload, "--seed", str(seed)]
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def run_job(main, job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    cause = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(job.argv)
    except SystemExit as exc:          # argparse rejects the arguments
        status = exc.code
    except Exception as exc:           # any traceback is a failed job
        status, cause = None, f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if cause is None and status not in (0, 4):
        cause = f"exit {status}: {err.getvalue().strip()}"
    return Outcome(job, status, out.getvalue(), seconds, cause)


def _heap_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def timed_loop(prep: Prepared, seconds: float, tracer=None):
    """Run the job cycle until ``seconds`` have passed.

    Untraced: each job runs under ``hostprobe.Sampler``; its outcome
    carries the mean host probe during the job and its time without the
    probes; returns (outcomes, wall), wall without the probes.  Traced:
    every job runs untraced and traced, in alternating order; returns
    (untraced, traced, wall).

    After each job the heap is collected and trimmed, as the exit of a CLI
    process would leave it; otherwise the peak memory of a job depends on
    what earlier jobs left in the allocator, and peak_rss_mb on job order."""
    import hostprobe
    trim = _heap_trim()
    plain, traced = [], []
    sampler = hostprobe.Sampler() if tracer is None else None
    if sampler is not None:
        hostprobe.probe()       # the first call pays scipy's lazy set-up
    probing = 0.0
    start = perf_counter()
    i = 0
    while True:
        job = prep.jobs[i % len(prep.jobs)]
        for use_tracer in ((False,) if tracer is None
                           else (False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer.installed(i) as main:
                    traced.append(run_job(main, job))
            elif sampler is None:
                plain.append(run_job(prep.cli.main, job))
            else:
                t0 = perf_counter()
                with sampler:
                    outcome = run_job(prep.cli.main, job)
                outcome.seconds -= sampler.spent
                outcome.probe_s = sampler.probe_s
                plain.append(outcome)
                probing += perf_counter() - t0 - outcome.seconds
            gc.collect()
            trim(0)
        i += 1
        if perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    if tracer is not None:
        return plain, traced, wall
    return plain, wall - probing


def check_outcomes(prep: Prepared, workload: str, outcomes) -> list[dict]:
    from checks import Checker
    checker = Checker(workload, prep.cli, prep.oracle)
    measures = []
    for o in outcomes:
        if o.cause is None:
            o.cause, found = checker.check(o.job, o.status, o.stdout)
            measures.append(found)
    return measures


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; with too few jobs, the fastest job at percentile 0."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def provenance(workload: str, seed: int, seconds: float, trace: int,
               jobs_run: int, pool: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs_per_run": jobs_run,
        "pool_size": pool,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<10} {note}".rstrip()


def end_to_end(prep, args) -> tuple[dict, dict, list, list]:
    setups = measure_setup(args.workload, args.seed)
    outcomes, wall = timed_loop(prep, args.seconds)
    measures = check_outcomes(prep, args.workload, outcomes)
    from hostprobe import normalise
    times = [o.seconds for o in outcomes]
    norm = [normalise(o.seconds, o.probe_s) for o in outcomes]
    probes = [o.probe_s for o in outcomes]
    ok = sum(o.cause is None for o in outcomes)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s_norm": ok / sum(norm),
        "job_s_p50_norm": statistics.median(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    report = {"jobs_per_s": ok / wall,
              "job_s_p50": statistics.median(times),
              "job_s_tail": tail_s,
              "failed_frac": (len(outcomes) - ok) / len(outcomes),
              "host_probe_ms": 1e3 * statistics.median(probes)}
    for key in ("mmm_oracle_err", "mc_z_max"):
        found = [m[key] for m in measures if key in m]
        if found:
            report[key] = max(found)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{t:.3f}" for t in setups),
        "jobs_per_s": f"{ok} jobs in {wall:.2f} s",
        "host_probe_ms": f"median over jobs; range "
                         f"{1e3 * min(probes):.1f}-{1e3 * max(probes):.1f}",
        "job_s_tail": f"p{tail_pct:.1f} of {len(times)} jobs",
        "failed_frac": f"{len(outcomes) - ok} of {len(outcomes)}",
    }
    if "mc_z_max" in report:
        exit4 = sum(bool(m.get("exit4")) for m in measures)
        notes["mc_z_max"] = f"{exit4} of {len(measures)} jobs exit 4 (a reported verdict)"
    lines = [_line(k, v, E2E_UNITS[k], notes.get(k, "")) for k, v in metrics.items()]
    lines += [_line(k, v, REPORT_UNITS[k], notes.get(k, "")) for k, v in report.items()]
    return metrics, {**report, "setup_samples": setups, "probe_samples": probes,
                     "tail_percentile": tail_pct,
                     "wall_s": wall}, outcomes, lines


def per_layer(prep, args) -> tuple[dict, dict, list, list]:
    from spans import Tracer
    tracer = Tracer()
    plain, traced, wall = timed_loop(prep, args.seconds, tracer)
    check_outcomes(prep, args.workload, plain + traced)
    for p, t in zip(plain, traced):
        if t.cause is None and (t.status, t.stdout) != (p.status, p.stdout):
            t.cause = "traced output differs from the untraced output"
    metrics = tracer.layer_metrics()
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    metrics["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    shares = tracer.layer_shares()
    tracer.write(WORK / "spans" / f"{args.workload}-s{args.seed}.jsonl.gz")
    lines = [_line(k, v, LAYER_UNITS[k]) for k, v in metrics.items()]
    lines.append("  self-time share of traced job time: "
                 + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return metrics, {"layer_shares": shares, "wall_s": wall,
                     "spans": len(tracer.spans)}, plain + traced, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)     # inherited by the set-up probes
    try:
        prep = prepare(args.workload, args.seed)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, extra, outcomes, lines = run(prep, args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = LAYER_UNITS if args.trace else E2E_UNITS
    failures = [o for o in outcomes if o.cause is not None]
    prov = provenance(args.workload, args.seed, args.seconds, args.trace,
                      len(outcomes), len(prep.jobs))
    print(f"liqshock benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} jobs={len(outcomes)}")
    print("\n".join(lines))
    for o in failures:
        print(f"  FAILED {o.job.command} {o.job.config.name}: {o.cause}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "metrics": metrics, **extra,
              "failures": [{"config": o.job.config.name, "cause": o.cause}
                           for o in failures],
              "jobs": [{"command": o.job.command, "config": o.job.config.name,
                        "status": o.status, "seconds": o.seconds}
                       for o in outcomes]}
    results = WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
