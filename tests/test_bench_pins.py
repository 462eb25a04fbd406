"""The benchmark's pinned report digests, checked as part of the test suite.

`perfbench/workloads.py` pins a sha256 of every report its queries print.
These tests run a few of those queries with the workload's own oracle and
digest check, so a change to the bytes of a pinned report fails here and
not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from multalg import groebner

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_checked(queries):
    failures = {}
    for query in queries:
        if query.fresh_process:
            groebner.clear_cache()
        reason = query.check(*query.run())
        if reason is not None:
            failures[query.key] = reason
    return failures


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


def test_random_structure_reports_match_pins(workloads):
    for seed in range(4):
        assert seed in workloads.PINNED_SEEDS
        queries = workloads.build("random_structure", seed)
        assert len(queries) == len(workloads.SHAPES)
        assert run_checked(queries) == {}, f"seed {seed}"


def test_grassmann_reports_match_pins(workloads):
    queries = [
        q
        for q in workloads.build("grassmann_analyze", 0)
        if int(q.key.rsplit("_", 1)[1]) <= 6
    ]
    assert len(queries) == sum(n - 1 for n in range(2, 7))
    assert run_checked(queries) == {}


def test_verify_catalogue_matches_pins(workloads):
    # every case's {"name", "witness"} bytes, the negative control's witness included
    queries = workloads.build("verify_catalogue", 0)
    assert len(queries) == 108
    assert run_checked(queries) == {}
