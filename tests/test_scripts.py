import hashlib
import importlib.util
import json
import sys
from math import comb
from pathlib import Path

import pytest

from multalg.cli import main as multalg_main
from multalg.grassmann import gaussian_binomial

ROOT = Path(__file__).resolve().parent.parent
ARCHIVE = ROOT / "data" / "jet_regression.json"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # registered as an import would register it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def archive():
    return json.loads(ARCHIVE.read_text())


def test_archive_schema(archive):
    rows = archive["rows"]
    assert len(rows) == 30  # n in 2..5, k in 1..n-1, order in 1..3
    seen = set()
    for row in rows:
        key = (row["n"], row["k"], row["order"])
        assert key not in seen
        seen.add(key)
        assert row["status"] in {"ok", "skipped"}
        if row["status"] == "ok":
            assert 0 <= row["krull_dimension"] <= row["variables"]
            assert row["finite"] == (row["krull_dimension"] == 0)
            assert len(row["series_weights"]) == row["variables"]
        else:
            assert "cap" in row["reason"]


def test_archive_order_one_rows_are_the_base_rings(archive):
    for row in archive["rows"]:
        if row["order"] != 1 or row["status"] != "ok":
            continue
        n, k = row["n"], row["k"]
        assert row["finite"] is True
        assert row["krull_dimension"] == 0
        assert row["dimension"] == comb(n, k)
        assert row["hilbert_series"] == str(gaussian_binomial(n, k))


def test_archive_respects_block_swap_symmetry(archive):
    # Gr(k,n) and Gr(n-k,n) present the same ring with the two variable
    # blocks exchanged: every invariant must agree row-for-row
    by_key = {(r["n"], r["k"], r["order"]): r for r in archive["rows"]}
    for (n, k, order), row in by_key.items():
        mirror = by_key[(n, n - k, order)]
        assert row["status"] == mirror["status"]
        if row["status"] == "ok":
            assert row["krull_dimension"] == mirror["krull_dimension"]
            assert row["finite"] == mirror["finite"]
            assert row["dimension"] == mirror["dimension"]
            assert row["hilbert_series"] == mirror["hilbert_series"]
            assert sorted(row["series_weights"]) == sorted(mirror["series_weights"])


def test_regression_script_reproduces_archive_rows(tmp_path, capsys):
    script = load_script("jet_regression")
    out = tmp_path / "archive.json"
    rc = script.main(["--max-n", "5", "--out", str(out)])
    assert rc == 0
    fresh = {
        (r["n"], r["k"], r["order"]): r for r in json.loads(out.read_text())["rows"]
    }
    committed = {
        (r["n"], r["k"], r["order"]): r for r in json.loads(ARCHIVE.read_text())["rows"]
    }
    assert set(fresh) == set(committed)
    for key, row in fresh.items():
        expect = dict(committed[key])
        row = dict(row)
        row.pop("seconds"), expect.pop("seconds")
        assert row == expect, key


def test_structure_sweep_script_passes(capsys):
    script = load_script("structure_sweep")
    rc = script.main(["--max-n", "3", "--random", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failures" in out
    assert "FAIL" not in out


def test_structure_sweep_rejects_a_nonpositive_cap(capsys):
    script = load_script("structure_sweep")
    assert script.main(["--max-n", "2", "--random", "0", "--max-reductions", "0"]) == 2
    captured = capsys.readouterr()
    assert "--max-reductions must be positive" in captured.err
    assert captured.out == ""


def test_jet_regression_rejects_a_nonpositive_cap_before_writing(tmp_path, capsys):
    script = load_script("jet_regression")
    out = tmp_path / "archive.json"
    assert script.main(["--max-n", "2", "--max-reductions", "-5", "--out", str(out)]) == 2
    assert "--max-reductions must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [("--max-order", "0"), ("--max-order", "-3"), ("--max-n", "1"), ("--max-n", "0")]
)
def test_jet_regression_rejects_an_empty_sweep_before_writing(tmp_path, capsys, argv):
    script = load_script("jet_regression")
    out = tmp_path / "archive.json"
    assert script.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--max-order must be at least 1" in err
    assert "Gr(" not in err  # no row was computed
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--max-n", "10", "--max-order", "13"), ("--max-order", "65")])
def test_jet_regression_rejects_an_oversized_sweep_before_any_row(tmp_path, capsys, argv):
    script = load_script("jet_regression")
    out = tmp_path / "archive.json"
    assert script.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over the cap of 128" in err
    assert "Gr(" not in err  # no row was computed
    assert not out.exists()


def test_output_digests_verify_line_matches_a_direct_cli_run(capsys):
    script = load_script("output_digests")
    made = dict(script.entries())["verify"]()  # in a fresh interpreter
    rc = multalg_main(["verify"])
    expected = hashlib.sha256(f"exit {rc}\n{capsys.readouterr().out}".encode()).hexdigest()
    assert script.digest(made) == expected


def test_bench_record_takes_workloads_from_benchmark_json(tmp_path, monkeypatch, capsys):
    script = load_script("bench_record")
    benchmark = {"workloads": [{"name": "first"}, {"name": "second"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, trace))
        return {"trace": trace, "metrics": {}}

    monkeypatch.setattr(script, "run_once", fake_run_once)
    assert script.main(["--checkout", str(tmp_path), "--seed", "1", "--seconds", "1"]) == 0
    assert calls == [(tmp_path, w, t) for w in ("first", "second") for t in (0, 1, 1, 1)]
    assert sorted(json.loads(capsys.readouterr().out)["runs"]) == ["first", "second"]


def test_bench_record_keeps_the_median_of_three_traced_runs(tmp_path, monkeypatch, capsys):
    script = load_script("bench_record")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "only"}]}))
    self_times = iter([0.030, 0.045, 0.031])

    def fake_run_once(checkout, workload, seed, seconds, trace):
        return {"metrics": {
            "a.calls": {"value": 7, "unit": "count"},
            "a.self_s": {"value": next(self_times) if trace else 0.5, "unit": "s"},
        }}

    monkeypatch.setattr(script, "run_once", fake_run_once)
    assert script.main(["--checkout", str(tmp_path), "--seed", "1", "--seconds", "1"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]["only"]
    assert runs["trace1"]["metrics"] == {
        "a.calls": {"value": 7, "unit": "count"},
        "a.self_s": {"value": 0.031, "unit": "s"},
    }
    assert runs["trace0"]["metrics"]["a.self_s"]["value"] == 0.5
    # a count that moves between the traced runs is an error, not a median
    counts = iter([7, 7, 8])

    def moving_count(checkout, workload, seed, seconds, trace):
        return {"metrics": {"a.calls": {"value": next(counts) if trace else 7, "unit": "count"}}}

    monkeypatch.setattr(script, "run_once", moving_count)
    assert script.main(["--checkout", str(tmp_path), "--seed", "1", "--seconds", "1"]) == 1
    assert "a.calls differs between the traced runs: [7, 7, 8]" in capsys.readouterr().err
