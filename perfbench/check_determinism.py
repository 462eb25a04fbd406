#!/usr/bin/env python3
"""Check that per-layer counts do not depend on Python's hash seed.

    python3 perfbench/check_determinism.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs the traced benchmark twice per workload, with PYTHONHASHSEED 1 and 2,
and compares every count: the per-layer metrics that are not times or
ratios, and the call count of every traced function.  Exits 1 and names
the counts that differ, 0 when all agree; a later change can then cite
these counts as exact.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def counts(workload: str, seed: int, seconds: float, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    lines = subprocess.run(
        cmd, check=True, cwd=HERE.parent, env=env, capture_output=True, text=True
    ).stdout.splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed: {info['failures']}")
    out = {
        name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"
    }
    out.update({f"calls:{name}": n for name, n in info["all_calls"].items()})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    differing = 0
    for workload in args.workloads:
        first = counts(workload, args.seed, args.seconds, "1")
        second = counts(workload, args.seed, args.seconds, "2")
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        differing += len(diff)
        print(f"{workload}: {len(first)} counts, {len(diff)} differ {diff}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
