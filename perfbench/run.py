#!/usr/bin/env python3
"""Benchmark of multalg's user-facing commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are described in
`workloads.py` and BENCHMARK.json.  Each is a closed loop with one client:
the queries run one after another, in an order fixed by the seed, in
passes over the whole query list, until S seconds have been measured.

With `--trace 0` the last line of stdout holds the end-to-end metrics:
  wall_s       median time of one pass (the sum of its query latencies);
  query_p50_s, query_p90_s
               nearest-rank percentiles over the queries, each query's
               latency being the median of its samples in the run;
  peak_rss_mb  peak resident set size of this process;
  setup_s      median, over several fresh processes, of the time from
               process start to the first query (imports, fixtures and the
               random maps with their finiteness check).
With `--trace 1` it holds the per-layer metrics of one traced pass, made
after untraced passes for S/2 seconds; `trace.overhead_s` is the traced
pass time minus the median untraced one.  End-to-end numbers come only
from untraced runs.

A query fails when it raises, hits a resource cap, exits nonzero, fails
its oracle or changes its pinned output digest; `failed`/`attempted` is
the workload's failure fraction.  The line before the last one records
the Python version, the CPU, the commit and the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("grassmann_analyze", "random_structure", "verify_catalogue")
SETUP_REPEATS = 3

# Per-layer metrics.  `<span>.calls` and `<span>.self_s` come from the
# tracer's spans and counters, sizes from `Tracer.work`, and the rest from
# `per_layer` below.
PER_LAYER = (
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.groebner_basis.hit_frac", "ratio"),
    ("groebner.basis.elements", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.standard_monomials.self_s", "s"),
    ("groebner.standard_monomials.count", "count"),
    ("groebner.hilbert_series.self_s", "s"),
    ("groebner.krull_dimension.self_s", "s"),
    ("groebner.certify.self_s", "s"),
    ("orders.key.calls", "count"),
    ("poly.mono_divides.calls", "count"),
    ("poly.jacobian_determinant.calls", "count"),
    ("poly.jacobian_determinant.self_s", "s"),
    ("poly.parse_polynomial.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.max_cells", "count"),
    ("multiplicity.socle.calls", "count"),
    ("multiplicity.socle.self_s", "s"),
    ("multiplicity.pairing_matrices.self_s", "s"),
    ("multiplicity.jacobian_spans_socle.self_s", "s"),
    ("multiplicity.build_quotient.self_s", "s"),
    ("multiplicity.verify_structure_theorem.self_s", "s"),
    ("series.RationalSeries.calls", "count"),
    ("series.RationalSeries.self_s", "s"),
    ("jets.jet_presentation.self_s", "s"),
    ("jets.jet_presentation.relations", "count"),
    ("jets.jet_invariants.self_s", "s"),
    ("grassmann.grassmann_presentation.self_s", "s"),
    ("rings.PresentedRing.loads.self_s", "s"),
    ("weights.lower_set.self_s", "s"),
    ("verification.case.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, timed by its parent
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs passes over a workload's queries and keeps their latencies."""

    def __init__(self, queries, clear_cache):
        self.queries = queries
        self.clear_cache = clear_cache
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> list[float]:
        """One pass; returns each query's latency in seconds."""
        gc.collect()
        self.clear_cache()  # a pass starts as a fresh process
        latencies = []
        for index, query in enumerate(self.queries):
            if query.fresh_process:
                self.clear_cache()
                gc.collect()
            if tracer is not None:
                tracer.query = index
            error = None
            start = time.perf_counter()
            try:
                if tracer is not None and query.span is not None:
                    code, output = tracer.span(query.span, query.run)
                else:
                    code, output = query.run()
            except Exception as e:  # a crash or a resource cap fails the query
                error = f"{type(e).__name__}: {e}"
            latencies.append(time.perf_counter() - start)
            if error is None:
                try:
                    error = query.check(code, output)
                except Exception as e:
                    error = f"check raised {type(e).__name__}: {e}"
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{query.key}: {error}")
        return latencies

    def measure(self, seconds: float) -> list[list[float]]:
        """Whole passes until `seconds` have gone by (at least one)."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        return passes


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Time SETUP_REPEATS fresh processes that set the workload up and exit."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(runner: Runner, args: argparse.Namespace) -> tuple[dict, dict]:
    setup = setup_samples(args)
    passes = runner.measure(args.seconds)
    per_query = [statistics.median(samples) for samples in zip(*passes)]
    metrics = {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "query_p50_s": (nearest_rank(per_query, 0.5), "s"),
        "query_p90_s": (nearest_rank(per_query, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {
        "passes": len(passes),
        "queries": len(per_query),
        "query_samples": len(per_query) * len(passes),
        "setup_samples": setup,
    }
    return metrics, info


def per_layer(runner: Runner, args: argparse.Namespace) -> tuple[dict, dict]:
    untraced = [sum(p) for p in runner.measure(args.seconds / 2)]
    tracer = Tracer()
    tracer.install()
    try:
        latencies = runner.run_pass(tracer)
    finally:
        lost = tracer.uninstall()
    if lost:
        runner.failures.append(f"tracer did not restore {lost}")
    if tracer.negative_self_spans():
        runner.failures.append(f"{tracer.negative_self_spans()} spans with negative self time")
    traced = tracer.traced_seconds_by_query()
    remainders = [wall - traced.get(i, 0.0) for i, wall in enumerate(latencies)]
    if min(remainders) < -1e-6:
        runner.failures.append("span self times exceed a query's wall time")

    calls, self_s, work = tracer.calls(), tracer.self_seconds(), tracer.work
    special = {
        "groebner.groebner_basis.hit_frac": tracer.cache_hit_fraction(),
        "trace.remainder_s": sum(remainders),
        "trace.overhead_s": sum(latencies) - statistics.median(untraced),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]]
        else:
            value = work[name]
        metrics[name] = (value, unit)
    info = {
        "untraced_wall_s": untraced,
        "traced_wall_s": sum(latencies),
        "spans": len(tracer.spans),
        "all_calls": dict(sorted(calls.items())),
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import multalg
    except ImportError as e:
        print(f"error: cannot import multalg from {SRC}: {e}", file=sys.stderr)
        return 2
    if not Path(multalg.__file__).resolve().is_relative_to(SRC):
        print(f"error: multalg imported from {multalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from multalg import groebner

    queries = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0
    runner = Runner(queries, groebner.clear_cache)
    measure = per_layer if args.trace else end_to_end
    metrics, info = measure(runner, args)
    info.update(
        environment(args.seed),
        workload=args.workload,
        source_sha256=workloads.source_digest(),
        fail_frac=len(runner.failures) / runner.attempted,
        failures=runner.failures[:20],
    )
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
