"""Fast self-check of the benchmark's output contract.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json, runs ``run.py`` for one second with
``--trace 0`` and ``--trace 1`` (so about one job each) and confirms that the
last stdout line names exactly the declared metrics, each with its declared
unit, and that the outputs passed their checks.  It is not part of the
test suite; it takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = spec["command"] + ["--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{where}: metrics {emitted} != {declared[trace]}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"{where}: {len(emitted)} metrics, {result['attempted']} jobs, "
                  f"correct={result['correct']}")
    for line in problems:
        print(f"PROBLEM {line}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
