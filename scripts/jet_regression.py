#!/usr/bin/env python3
"""Archive jet-ring invariants of the small Grassmannian presentations.

Walks Gr(k, n) for 2 <= n <= max-n, 1 <= k <= n-1 and jet orders up to
max-order, records Krull dimension, finiteness, and Hilbert series of
each jet ideal, and writes the table to a JSON archive.  Rows that blow
past the pair-reduction cap are recorded as skipped with the cap value
rather than silently dropped, so the archive stays an honest record of
what was actually computed.

The k <-> n-k rows are presentations of the same ring with the variable
blocks swapped, so their invariants must agree; the archive keeps both
as a cross-check (test_scripts.py enforces it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multalg.grassmann import grassmann_presentation
from multalg.groebner import ReductionLimits, ResourceLimitExceeded
from multalg.jets import MAX_JET_VARIABLES, jet_invariants, jet_presentation

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "data" / "jet_regression.json"


def sweep_rows(max_n: int, max_order: int, limits: ReductionLimits) -> list[dict]:
    rows = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            base = grassmann_presentation(n, k)
            for order in range(1, max_order + 1):
                jet = jet_presentation(base, order)
                row = {
                    "n": n,
                    "k": k,
                    "order": order,
                    "variables": len(jet.ring.variables),
                    "relations": len(jet.ring.relations),
                }
                started = time.monotonic()
                try:
                    inv = jet_invariants(jet, limits)
                except ResourceLimitExceeded as e:
                    row["status"] = "skipped"
                    row["reason"] = f"resource cap of {e.cap} pair reductions hit"
                else:
                    row["status"] = "ok"
                    row.update(inv.to_json_dict())
                    del row["grading_assumption"]  # the same on every row
                row["seconds"] = round(time.monotonic() - started, 3)
                rows.append(row)
                print(
                    f"Gr({k},{n}) order {order}: {row['status']}"
                    + (
                        f" krull={row.get('krull_dimension')} hilbert={row.get('hilbert_series')}"
                        if row["status"] == "ok"
                        else f" ({row['reason']})"
                    ),
                    file=sys.stderr,
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--max-order", type=int, default=3)
    parser.add_argument("--max-reductions", type=int, default=200_000)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.max_reductions <= 0:
        print("error: --max-reductions must be positive", file=sys.stderr)
        return 2
    # below these the sweep has no row, and its empty archive would
    # overwrite the checked one
    if args.max_order < 1 or args.max_n < 2:
        print("error: --max-order must be at least 1 and --max-n at least 2", file=sys.stderr)
        return 2
    # Gr(k, n) has n variables, so the largest jet ring has max-n * max-order.
    if args.max_n * args.max_order > MAX_JET_VARIABLES:
        print(
            f"error: --max-n {args.max_n} at --max-order {args.max_order} needs "
            f"{args.max_n * args.max_order} jet variables, over the cap of {MAX_JET_VARIABLES}",
            file=sys.stderr,
        )
        return 2

    rows = sweep_rows(
        args.max_n, args.max_order, ReductionLimits(max_pair_reductions=args.max_reductions)
    )
    archive = {
        "generated_by": "scripts/jet_regression.py",
        "max_pair_reductions": args.max_reductions,
        "grading_note": (
            "series_weights records the grading each Hilbert series was "
            "computed under: unit weights when the jet ideal is homogeneous "
            "in the ordinary sense, the level-shifted jet weights otherwise"
        ),
        "rows": rows,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(archive, indent=2, sort_keys=True) + "\n")
    skipped = sum(1 for r in rows if r["status"] == "skipped")
    print(f"wrote {len(rows)} rows ({skipped} skipped) to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
