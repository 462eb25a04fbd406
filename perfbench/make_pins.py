#!/usr/bin/env python3
"""Write pins.json: the sha256 of every query's canonical output.

    python3 perfbench/make_pins.py

Run it only on code whose outputs are known to be right; the benchmark
then fails any query whose output changes by a single byte.  For
`random_structure` it pins, per shape, the report fields that do not
depend on the seed, and the full report for each seed in PINNED_SEEDS.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def outputs(name: str, seed: int) -> dict[str, str]:
    out = {}
    for query in workloads.build(name, seed, pins={}):
        if query.fresh_process:
            workloads.groebner.clear_cache()
        code, text = query.run()
        if code != 0:
            raise SystemExit(f"{name} {query.key}: exit code {code}")
        out[query.key] = text
    return out


def main() -> int:
    pins: dict[str, dict[str, str]] = {}
    for name in ("grassmann_analyze", "verify_catalogue"):
        pins[name] = {k: workloads.digest(v) for k, v in sorted(outputs(name, 0).items())}
    shapes: dict[str, str] = {}
    full: dict[str, str] = {}
    for seed in workloads.PINNED_SEEDS:
        for key, text in outputs("random_structure", seed).items():
            shape = workloads.digest(workloads.shape_fields(text))
            if shapes.setdefault(f"shape:{key}", shape) != shape:
                raise SystemExit(f"seed {seed} {key}: the seed-independent fields changed")
            full[f"{seed}:{key}"] = workloads.digest(text)
    pins["random_structure"] = dict(sorted(shapes.items())) | full
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
