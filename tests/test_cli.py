import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multalg
from multalg.cli import build_parser, main
from multalg.grassmann import MAX_GAUSSIAN_DEGREE, MAX_MULTIPLICITY_DEGREE, grassmann_presentation
from multalg.jets import MAX_JET_VARIABLES
from multalg.multiplicity import MAX_EQUIVARIANT_DEGREE, MAX_HITCHIN_WEIGHTS
from multalg.rings import PresentedRing


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_fixture(tmp_path, ring, name="ring.json"):
    path = tmp_path / name
    path.write_text(ring.dumps())
    return str(path)


# ---------------------------------------------------------------- output


def test_gaussian_text(capsys):
    rc, out, _ = run(capsys, "gaussian", "-n", "4", "-k", "2")
    assert rc == 0
    assert out == "1 + t + 2*t^2 + t^3 + t^4\n"


def test_gaussian_json(capsys):
    rc, out, _ = run(capsys, "gaussian", "-n", "4", "-k", "2", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 1, 2, 1, 1]
    assert data["value_at_1"] == 6


_COMPACT = {
    ("gaussian", "-n", "4", "-k", "2"): (
        "1 + t + 2*t^2 + t^3 + t^4\n",
        '{"coefficients": [1, 1, 2, 1, 1], "k": 2, "n": 4, "text": "1 + t + 2*t^2 + t^3 + t^4", '
        '"value_at_1": 6}\n',
    ),
    ("multiplicity", "-n", "3", "-m", "1,1"): (
        "1 + 2*t + 3*t^2 + 2*t^3 + t^4\n",
        '{"coefficients": [1, 2, 3, 2, 1], "m": [1, 1], "n": 3, '
        '"text": "1 + 2*t + 3*t^2 + 2*t^3 + t^4", "value_at_1": 9}\n',
    ),
    ("equivariant", "--domain", "2", "--codomain", "3"): (
        "(1 + t + t^2)/(1 + t)\n",
        '{"codomain": [3], "domain": [2], "series": "(1 + t + t^2)/(1 + t)"}\n',
    ),
    ("hitchin-weights", "-n", "2", "-g", "2"): (
        "weights: 1 1 2 2 2\ncardinality: 5\n",
        '{"cardinality": 5, "g": 2, "n": 2, "weights": [1, 1, 2, 2, 2]}\n',
    ),
    ("dominance", "1,1", "2,0"): (
        "true\n",
        '{"below": true, "lambda": [1, 1], "mu": [2, 0]}\n',
    ),
    ("orbit", "3,3,0,0"): (
        "6\n",
        '{"orbit_size": 6, "weight": [3, 3, 0, 0]}\n',
    ),
}


@pytest.mark.parametrize("argv", _COMPACT, ids=lambda argv: argv[0])
def test_compact_subcommands_print_exact_text_and_json(capsys, argv):
    text, compact = _COMPACT[argv]
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, compact, "")


def test_grassmann_json_round_trips(capsys):
    rc, out, _ = run(capsys, "grassmann", "-n", "3", "-k", "1", "--json")
    assert rc == 0
    assert PresentedRing.loads(out) == grassmann_presentation(3, 1)


def test_multiplicity(capsys):
    rc, out, _ = run(capsys, "multiplicity", "-n", "2", "-m", "2")
    assert rc == 0
    assert out.strip() == "1 + 2*t + t^2"
    rc, out, _ = run(capsys, "multiplicity", "-n", "3", "-m", "1,0", "--json")
    assert json.loads(out)["value_at_1"] == 3


def test_analyze_text_and_json(capsys, tmp_path):
    path = write_fixture(tmp_path, grassmann_presentation(2, 1))
    rc, out, _ = run(capsys, "analyze", path)
    assert rc == 0
    assert "dimension: 2" in out

    rc, out, _ = run(capsys, "analyze", path, "--json")
    data = json.loads(out)
    assert data["all_clauses_true"] is True
    assert data["dimension"] == 2
    assert data["poincare"] == "1 + t"


def test_analyze_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(grassmann_presentation(2, 1).dumps()))
    rc, out, _ = run(capsys, "analyze", "-", "--json")
    assert rc == 0
    assert json.loads(out)["all_clauses_true"] is True


def test_equivariant(capsys):
    rc, out, _ = run(capsys, "equivariant", "--domain", "1,1", "--codomain", "1,2")
    assert rc == 0
    assert out.strip() == "1 + t"


def test_hitchin_weights(capsys):
    rc, out, _ = run(capsys, "hitchin-weights", "-n", "2", "-g", "2")
    assert rc == 0
    assert "weights: 1 1 2 2 2" in out
    assert "cardinality: 5" in out
    rc, out, _ = run(capsys, "hitchin-weights", "-n", "3", "-g", "2", "--json")
    assert json.loads(out)["cardinality"] == 10


def test_jet_output_is_a_fixture(capsys, tmp_path):
    path = write_fixture(tmp_path, grassmann_presentation(2, 1))
    rc, out, _ = run(capsys, "jet", path, "-d", "2", "--json")
    assert rc == 0
    jet_ring = PresentedRing.loads(out)
    assert jet_ring.variables == ("p1_0", "p1_1", "q1_0", "q1_1")
    assert jet_ring.weights == (1, 2, 1, 2)
    # and the jet fixture itself feeds back into analyze (which reports the
    # order-2 jet ring of a point as the infinite-dimensional thing it is)
    path2 = tmp_path / "jet.json"
    path2.write_text(out)
    rc, out, _ = run(capsys, "analyze", str(path2), "--json")
    assert rc == 0
    assert json.loads(out) == {"finite_dimensional": False}


def test_jet_invariants_json(capsys, tmp_path):
    ring = PresentedRing.loads('{"variables": ["a"], "generators": ["a^2"]}')
    path = write_fixture(tmp_path, ring)
    rc, out, _ = run(capsys, "jet", path, "-d", "2", "--invariants", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["invariants"]["hilbert_series"] == "(1 + t - t^2)/(1 - t)"
    assert data["invariants"]["krull_dimension"] == 1
    assert data["invariants"]["finite"] is False
    assert "z carries weight 1" in data["invariants"]["grading_assumption"]


_GR_4_2_TEXT = """\
variables: p1 p2 q1 q2
weights:   1 2 1 2
relations:
  [degree 1] p1 + q1
  [degree 2] p1*q1 + p2 + q2
  [degree 3] p2*q1 + p1*q2
  [degree 4] p2*q2
"""

_GRADING_ASSUMPTION = (
    "grading_assumption: weight(x_i^(j)) = weight(x_i) + j"
    " (z carries weight 1 on top of the base scaling)\n"
)

_JET_INVARIANTS_TEXT = {
    "1": """\
variables: p1_0 q1_0 q2_0
weights:   1 1 2
relations:
  [degree 1] p1_0 + q1_0
  [degree 2] p1_0*q1_0 + q2_0
  [degree 3] p1_0*q2_0
krull_dimension: 0
hilbert_series: 1 + t + t^2
series_weights: 1 1 2
dimension: 3
""" + _GRADING_ASSUMPTION,
    "2": """\
variables: p1_0 p1_1 q1_0 q1_1 q2_0 q2_1
weights:   1 2 1 2 2 3
relations:
  [degree 1] p1_0 + q1_0
  [degree 2] p1_1 + q1_1
  [degree 2] p1_0*q1_0 + q2_0
  [degree 3] p1_1*q1_0 + p1_0*q1_1 + q2_1
  [degree 3] p1_0*q2_0
  [degree 4] p1_1*q2_0 + p1_0*q2_1
krull_dimension: 1
hilbert_series: (1 + t^2 - t^3)/(1 - t)
series_weights: 1 2 1 2 2 3
""" + _GRADING_ASSUMPTION,
}

_INFINITE_ANALYZE_TEXT = (
    "finite_dimensional: false\n"
    "(the quotient has positive Krull dimension; no multiplicity data)\n"
)


def test_grassmann_text(capsys):
    assert run(capsys, "grassmann", "-n", "4", "-k", "2") == (0, _GR_4_2_TEXT, "")


@pytest.mark.parametrize("order", sorted(_JET_INVARIANTS_TEXT))
def test_jet_invariants_text(capsys, tmp_path, order):
    # the ring, then the invariants read off the Hilbert series; order 1 is
    # Gr(1, 3) itself, finite, and order 2 has Krull dimension 1
    path = write_fixture(tmp_path, grassmann_presentation(3, 1))
    expected = _JET_INVARIANTS_TEXT[order]
    assert run(capsys, "jet", path, "-d", order, "--invariants") == (0, expected, "")


def test_analyze_text_of_an_infinite_quotient(capsys, tmp_path):
    # the order-2 jets of Gr(1, 3), and (x^2, x*y), whose line x = 0 is not a point
    path = write_fixture(tmp_path, grassmann_presentation(3, 1))
    _, out, _ = run(capsys, "jet", path, "-d", "2", "--json")
    jets = write_fixture(tmp_path, PresentedRing.loads(out), "jet.json")
    text = '{"variables": ["x", "y"], "generators": ["x^2", "x*y"]}'
    monomials = write_fixture(tmp_path, PresentedRing.loads(text), "monomials.json")
    for path in (jets, monomials):
        assert run(capsys, "analyze", path) == (0, _INFINITE_ANALYZE_TEXT, "")


def test_jet_of_a_high_power(capsys, monkeypatch):
    # the truncated powers of x0 + x1*z are built in a loop, so an exponent
    # far above the recursion limit is no RecursionError
    monkeypatch.setattr("sys.stdin", io.StringIO('{"variables": ["x"], "generators": ["x^1000"]}'))
    rc, out, _ = run(capsys, "jet", "-", "-d", "2", "--json")
    assert rc == 0
    assert json.loads(out)["generators"] == ["x0^1000", "1000*x0^999*x1"]



def test_jet_text_prints_a_zero_relation_as_0(capsys, monkeypatch):
    # each jet of the zero generator is a zero relation, kept in the listing
    monkeypatch.setattr("sys.stdin", io.StringIO('{"variables": ["x"], "generators": ["x^2", "0"]}'))
    rc, out, _ = run(capsys, "jet", "-", "-d", "2")
    assert rc == 0
    assert out.splitlines()[-4:] == ["  [degree 2] x0^2", "  [degree 3] 2*x0*x1", "  0", "  0"]

def test_dominance(capsys):
    rc, out, _ = run(capsys, "dominance", "1,1", "2,0")
    assert rc == 0 and out.strip() == "true"
    rc, out, _ = run(capsys, "dominance", "2,0", "1,1")
    assert rc == 0 and out.strip() == "false"
    rc, out, _ = run(capsys, "dominance", "(1, 1)", "(2, 0)", "--json")
    assert json.loads(out)["below"] is True


def test_orbit(capsys):
    rc, out, _ = run(capsys, "orbit", "2,1,0")
    assert rc == 0 and out.strip() == "6"


def test_closure(capsys):
    rc, out, _ = run(capsys, "closure", "3,0")
    assert rc == 0
    assert "no closed formula" in out
    assert "order-2 jets" in out
    rc, out, _ = run(capsys, "closure", "3,0", "--json")
    data = json.loads(out)
    assert data["mu"] == [3, 0]
    assert len(data["strata"]) == 2


def test_verify_filtered(capsys):
    rc, out, _ = run(capsys, "verify", "--filter", "poly.")
    assert rc == 0
    data = json.loads(out)
    assert data["failed"] == []
    assert data["counts"]["passed"] > 0
    assert data["untested"]


def test_verify_negative_control_drives_exit_code(capsys):
    rc, out, _ = run(
        capsys, "verify", "--filter", "negative_control", "--include-negative-controls"
    )
    assert rc == 1
    data = json.loads(out)
    assert len(data["failed"]) == 1
    assert data["failed"][0]["witness"]


def test_verify_with_tiny_cap_skips(capsys):
    rc, out, _ = run(
        capsys, "--max-reductions", "1", "verify", "--filter", "grassmann.product_hilbert"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["counts"]["skipped"] > 0


def test_cli_import_leaves_the_catalogue_unloaded():
    # a fresh interpreter, since this one has imported the catalogue already
    code = (
        "import sys, multalg.cli\n"
        "print('multalg.verification' in sys.modules)\n"
        "from multalg import run_all\n"
        "print(run_all.__module__)"
    )
    src = str(Path(multalg.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["False", "multalg.verification"]


# ------------------------------------------------------------ exit codes


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


def test_malformed_int_list_exits_2(capsys):
    rc, _, err = run(capsys, "multiplicity", "-n", "2", "-m", "1,zebra")
    assert rc == 2 and "error:" in err
    # integers are ASCII [+-]?[0-9]+: no digit separators, no non-ASCII digits
    for domain, codomain in (("1_0", "10"), ("10", "١٠"), ("1,2", "1,٢")):
        rc, _, err = run(capsys, "equivariant", "--domain", domain, "--codomain", codomain)
        assert rc == 2 and "error:" in err, (domain, codomain)



def test_empty_integer_list_exits_2(capsys):
    rc, out, err = run(capsys, "equivariant", "--domain", "()", "--codomain", "2")
    assert rc == 2 and out == ""
    assert "--domain: expected a list of integers" in err

def test_bad_weight_vector_exits_2(capsys):
    rc, _, err = run(capsys, "orbit", "1,2")
    assert rc == 2 and "error:" in err


def test_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, "analyze", "/nonexistent/fixture.json")
    assert rc == 2 and "error:" in err


def test_invalid_json_fixture_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2 and "error:" in err


def test_missing_generators_key_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"variables": ["x"]}')
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 2 and "error:" in err


def test_nonpositive_cap_exits_2(capsys):
    rc, _, err = run(capsys, "--max-reductions", "0", "gaussian", "-n", "2", "-k", "1")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [  # each the first input over its cap, by one
        ("hitchin-weights", "-n", "1", "-g", str(MAX_HITCHIN_WEIGHTS + 1)),
        ("hitchin-weights", "-n", "2", "-g", str(MAX_HITCHIN_WEIGHTS // 4 + 1)),
        ("gaussian", "-n", str(MAX_GAUSSIAN_DEGREE + 2), "-k", "1"),
        ("gaussian", "-n", str(MAX_GAUSSIAN_DEGREE + 2), "-k", str(MAX_GAUSSIAN_DEGREE + 1)),
        ("multiplicity", "-n", "2", "-m", str(MAX_MULTIPLICITY_DEGREE + 1)),
        ("grassmann", "-n", "2001", "-k", "1"),  # the cap is Gr(1,2000)'s 2000^2 * 2 entries
        ("grassmann", "-n", "1000", "-k", "500"),  # 501,000,000 entries; ran out of memory
        ("jet", "-d", str(MAX_JET_VARIABLES // 3 + 1), "-"),  # on Gr(1,3), from stdin
        ("jet", "-d", "100000", "-"),
        ("equivariant", "--domain", "1", "--codomain", f"{MAX_EQUIVARIANT_DEGREE},1"),
        ("equivariant", "--domain", ",".join(["1"] * 200), "--codomain", ",".join(["300"] * 200)),
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[2::2]),
)
def test_oversized_output_exits_2_before_any_work(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(grassmann_presentation(3, 1).dumps()))
    started = time.perf_counter()
    rc, out, err = run(capsys, *argv, "--json")
    assert time.perf_counter() - started < 1
    assert rc == 2 and out == "" and "over the cap" in err


def test_jet_over_the_work_cap_exits_2_quickly(capsys, monkeypatch):
    # 40 jet variables, under their cap, but 177,970 terms and 149 M units
    # of work, three times the cap: it takes 5 s
    monkeypatch.setattr("sys.stdin", io.StringIO('{"variables": ["x"], "generators": ["x^40"]}'))
    started = time.perf_counter()
    rc, out, err = run(capsys, "jet", "-", "-d", "40")
    assert time.perf_counter() - started < 1
    assert rc == 2 and out == "" and "over the cap" in err


def test_closure_over_the_strata_cap_exits_2_quickly(capsys):
    # (40, 0, ..., 0) has 37,338 strata; the walk stops at the cap
    started = time.perf_counter()
    rc, out, err = run(capsys, "closure", ",".join(["40"] + ["0"] * 39))
    assert time.perf_counter() - started < 2
    assert rc == 2 and out == "" and "over the cap" in err


def test_resource_cap_exits_3(capsys, tmp_path):
    path = write_fixture(tmp_path, grassmann_presentation(4, 2))
    rc, _, err = run(capsys, "--max-reductions", "1", "analyze", path)
    assert rc == 3
    assert "cap" in err


# ------------------------------------------------------------------ parser
# A subcommand's parser is built only when that subcommand is parsed.


def test_every_subcommand_prints_its_help(capsys):
    names = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1).split(",")
    assert len(names) == 11
    for name in names:
        with pytest.raises(SystemExit) as exit_:
            main([name, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: multalg {name} [-h]")


def test_a_call_builds_only_the_parsers_it_uses(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "orbit", "2,1,0") == (0, "6\n", "")
    assert built == ["multalg", "multalg orbit"]
