#!/usr/bin/env python3
"""Sweep the graded-quotient structure checks over a family of examples.

Runs the full structure report (finite dimensionality, one-dimensional
socle spanned by the Jacobian determinant, perfect pairing, palindromic
Poincare polynomial, agreement with the equivariant multiplicity series)
over every small Grassmannian presentation and a batch of randomized
zero-dimensional quasi-homogeneous complete intersections, then prints
one row per example.  Exits nonzero if any clause fails anywhere, so the
sweep doubles as a smoke check.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multalg.grassmann import grassmann_presentation
from multalg.groebner import ReductionLimits
from multalg.multiplicity import random_zero_dimensional_map, verify_structure_theorem


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--random", type=int, default=10, metavar="COUNT")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-reductions", type=int, default=200_000)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.max_reductions <= 0:
        print("error: --max-reductions must be positive", file=sys.stderr)
        return 2

    limits = ReductionLimits(max_pair_reductions=args.max_reductions)
    jobs = []
    for n in range(2, args.max_n + 1):
        for k in range(1, n):
            jobs.append((f"Gr({k},{n})", grassmann_presentation(n, k).as_map()))
    rng = random.Random(args.seed)
    for i in range(args.random):
        m = random_zero_dimensional_map(rng, n_vars=rng.randint(1, 4), limits=limits)
        label = f"random[{i}] degrees={m.degrees} weights={m.grading.weights}"
        jobs.append((label, m))

    failures = 0
    rows = []
    for label, m in jobs:
        report = verify_structure_theorem(m, limits)
        ok = report.finite_dimensional and report.all_true()
        failures += 0 if ok else 1
        if args.json:
            rows.append({"label": label, "report": report.to_json_dict()})
        else:
            if report.finite_dimensional:
                print(
                    f"{'ok ' if ok else 'FAIL'} {label}: dim={report.dimension} "
                    f"top={report.top_degree} poincare={report.poincare}"
                )
            else:
                print(f"FAIL {label}: not finite dimensional")
    if args.json:
        print(json.dumps({"failures": failures, "rows": rows}, indent=2, sort_keys=True))
    else:
        print(f"{len(jobs)} examples, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
