#!/usr/bin/env python3
"""Collect the benchmark's metric lines for every workload into one JSON object.

    python3 scripts/bench_record.py --seed 1 --seconds 10 > BENCH_<label>.json
    python3 scripts/bench_record.py --checkout OTHER_TREE --seed 1 --seconds 10

Runs the checkout's `perfbench/run.py` (default: this repository's) once
per workload listed in the checkout's `BENCHMARK.json` with `--trace 0`
and three times with `--trace 1`, one process at a time, and prints to
stdout one JSON object holding the settings and, under
`runs[workload]["trace0"|"trace1"]`, a run's final line (its metrics)
with the source digest, Python and CPU from the line before it.  The
`trace1` record is the first traced run's, each per-layer metric replaced
by its median over the three, so that one slow pass does not set a self
time.  Nothing is written to disk here or by `run.py`; redirect stdout to
keep it.  Exits 1 if a run exits nonzero or a count differs between the
traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INFO_KEYS = ("source_sha256", "python", "cpu_model", "cpu_count", "fail_frac")
TRACED_RUNS = 3


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    *_, info_line, metrics_line = done.stdout.splitlines()
    info = json.loads(info_line)["info"]
    return {"info": {key: info.get(key) for key in INFO_KEYS}, **json.loads(metrics_line)}


def run_traced(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    runs = [run_once(checkout, workload, seed, seconds, 1) for _ in range(TRACED_RUNS)]
    record = runs[0]
    for name, metric in record["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        if metric["unit"] == "count" and len(set(values)) > 1:
            raise RuntimeError(f"{workload}: {name} differs between the traced runs: {values}")
        metric["value"] = statistics.median(values)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.checkout / "BENCHMARK.json").read_text())
    runs: dict[str, dict] = {}
    try:
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs[workload] = {
                "trace0": run_once(args.checkout, workload, args.seed, args.seconds, 0),
                "trace1": run_traced(args.checkout, workload, args.seed, args.seconds),
            }
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "runs": runs}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
