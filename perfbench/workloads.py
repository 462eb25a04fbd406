"""The benchmark workloads: their queries and their correctness oracles.

A query is one thing a user runs.  For `grassmann_analyze` and
`random_structure` it is one `multalg` CLI call, made
in-process through `multalg.cli.main` with the fixture on stdin and
stdout captured; the Groebner cache is cleared first, because every CLI
call is a fresh process.  For `verify_catalogue` it is one case of the
`multalg verify` catalogue; the cases share one process in the CLI, so
the cache is cleared only when a pass starts.

The oracles do not trust the code under test: dimensions, q-binomials and
products of degree ratios are computed here with integers, and every
canonical output is compared with a sha256 pinned in `pins.json` from the
code the benchmark was defined on.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from math import comb, prod
from pathlib import Path
from typing import Callable

import multalg
from multalg import cli, groebner
from multalg.grassmann import grassmann_presentation
from multalg.multiplicity import NotFinite, build_quotient
from multalg.rings import PresentedRing
from multalg.verification import catalogue

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

# Gr(k,n) for 2 <= n <= 7, plus Gr(4,8).  Gr(3,8) alone takes several
# seconds longer than the rest together and is left out.
GRASSMANNIANS = tuple((k, n) for n in range(2, 8) for k in range(1, n)) + ((4, 8),)

# Quasi-homogeneous complete intersections of fixed shape: (weights, degrees).
# Only the coefficients come from the seed, so the cost of a pass barely
# depends on it.  Each component has every monomial of its degree.
SHAPES = (
    ((1, 1, 1), (2, 3, 4)),
    ((1, 1, 1, 2), (2, 3, 4, 4)),
    ((1, 1, 1, 1), (2, 3, 3, 3)),
    ((1, 1, 1, 1), (3, 3, 3, 3)),
)
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)
VARIABLES = ("x", "y", "z", "w")

# random_structure seeds whose full report digests are pinned; every seed
# is checked against the per-shape digest of the seed-independent fields.
PINNED_SEEDS = range(20)


@dataclass
class Query:
    key: str
    run: Callable[[], tuple[int, str]]  # () -> (exit code, canonical output)
    check: Callable[[int, str], "str | None"]  # failure reason, or None
    fresh_process: bool  # clear the Groebner cache before the query
    span: "str | None" = None  # span the tracer opens around the query


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def cli_call(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Run `multalg ARGV` in-process with the fixture on stdin.

    Returns the exit code and stdout, or stderr when the code is nonzero.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, (out if code == 0 else err).getvalue()


def _report(code: int, output: str) -> dict:
    if code != 0:
        raise ValueError(f"exit code {code}: {output.strip()}")
    return json.loads(output)


def _pin_check(expected: "str | None", output: str) -> "str | None":
    if expected is None:
        return "no pinned digest"
    return None if digest(output) == expected else "output digest differs from the pinned one"


# -- grassmann_analyze -------------------------------------------------------


def q_binomial(n: int, k: int) -> list[int]:
    """Coefficients of [n k]_t by [n k] = [n-1 k-1] + t^k [n-1 k]."""
    if k < 0 or k > n:
        return [0]
    if k == 0 or k == n:
        return [1]
    left, right = q_binomial(n - 1, k - 1), q_binomial(n - 1, k)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return out


def parse_poly_t(text: str) -> list[int]:
    """Coefficient list of a univariate text such as '1 + t + 2*t^2 - t^4'."""
    coeffs: dict[int, int] = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        body = token.lstrip("-")
        if "t" not in body:
            coeff, power = int(body), 0
        else:
            head, _, mono = body.rpartition("*") if "*" in body else ("1", "", body)
            coeff = int(head)
            power = int(mono.split("^")[1]) if "^" in mono else 1
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def _grassmann_check(k: int, n: int, pin: "str | None"):
    def check(code: int, output: str) -> "str | None":
        report = _report(code, output)
        if not report.get("finite_dimensional") or report.get("dimension") != comb(n, k):
            return f"dimension {report.get('dimension')} != C({n},{k})"
        if parse_poly_t(report["poincare"]) != q_binomial(n, k):
            return "Poincare polynomial is not the q-binomial"
        if report.get("all_clauses_true") is not True:
            return "a structure clause failed"
        return _pin_check(pin, output)

    return check


def grassmann_analyze(seed: int, pins: dict) -> list[Query]:
    queries = []
    for k, n in GRASSMANNIANS:
        fixture = grassmann_presentation(n, k).dumps()
        key = f"gr_{k}_{n}"
        queries.append(
            Query(
                key,
                functools.partial(cli_call, ["analyze", "-", "--json"], fixture),
                _grassmann_check(k, n, pins.get(key)),
                fresh_process=True,
            )
        )
    return queries


# -- random_structure --------------------------------------------------------


def monomials(weights: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given weighted degree, in lexicographic order."""
    if len(weights) == 1:
        return [(degree // weights[0],)] if degree % weights[0] == 0 else []
    out = []
    for e in range(degree // weights[0], -1, -1):
        out += [(e,) + rest for rest in monomials(weights[1:], degree - e * weights[0])]
    return out


def _term_text(coeff: int, exps: tuple[int, ...]) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, exps) if e]
    return "*".join([str(abs(coeff))] + factors)


def random_fixture(rng: random.Random, weights: tuple[int, ...], degrees: tuple[int, ...]) -> str:
    """Fixture JSON of a map whose components have every monomial of their degree."""
    generators = []
    for d in degrees:
        text = ""
        for exps in monomials(weights, d):
            c = rng.choice(COEFFICIENTS)
            sign = "-" if c < 0 else "+"
            text += f" {sign} " if text else ("-" if c < 0 else "")
            text += _term_text(c, exps)
        generators.append(text)
    return json.dumps(
        {"variables": list(VARIABLES[: len(weights)]), "weights": list(weights), "generators": generators},
        sort_keys=True,
    )


def shape_key(weights: tuple[int, ...], degrees: tuple[int, ...]) -> str:
    return "w" + "".join(map(str, weights)) + "_d" + "".join(map(str, degrees))


def shape_fields(output: str) -> str:
    """The report without its socle basis: fixed by the shape, not the seed."""
    report = json.loads(output)
    report.pop("socle_basis", None)
    return json.dumps(report, sort_keys=True)


def _random_check(weights, degrees, shape_pin, full_pin):
    expected_dim = prod(d // w for w, d in zip(weights, degrees))

    def check(code: int, output: str) -> "str | None":
        report = _report(code, output)
        if not report.get("finite_dimensional") or report.get("dimension") != expected_dim:
            return f"dimension {report.get('dimension')} != {expected_dim}"
        if report.get("all_clauses_true") is not True or not all(report["clauses"].values()):
            return "a structure clause failed"
        if shape_pin is None or digest(shape_fields(output)) != shape_pin:
            return "seed-independent report fields differ from the pinned ones"
        return None if full_pin is None else _pin_check(full_pin, output)

    return check


def random_structure(seed: int, pins: dict) -> list[Query]:
    rng = random.Random(seed)
    queries = []
    for weights, degrees in SHAPES:
        while True:
            fixture = random_fixture(rng, weights, degrees)
            try:
                build_quotient(PresentedRing.loads(fixture).as_map())
                break
            except NotFinite:
                continue  # non-generic coefficients: draw again
        key = shape_key(weights, degrees)
        full = pins.get(f"{seed}:{key}") if seed in PINNED_SEEDS else None
        queries.append(
            Query(
                key,
                functools.partial(cli_call, ["analyze", "-", "--json"], fixture),
                _random_check(weights, degrees, pins.get(f"shape:{key}"), full),
                fresh_process=True,
            )
        )
    return queries


# -- verify_catalogue --------------------------------------------------------


def _run_case(case) -> tuple[int, str]:
    witness = case.run(groebner.DEFAULT_LIMITS)
    return 0, json.dumps({"name": case.name, "witness": witness})


def _case_check(negative_control: bool, pin: "str | None"):
    def check(code: int, output: str) -> "str | None":
        witness = json.loads(output)["witness"]
        if negative_control and witness is None:
            return "the negative control passed"
        if not negative_control and witness is not None:
            return f"case failed: {witness}"
        return _pin_check(pin, output)

    return check


def verify_catalogue(seed: int, pins: dict) -> list[Query]:
    # The catalogue is that of `multalg verify` with its default seed, run
    # in its own (name) order as the CLI runs it, so the workload seed
    # changes nothing here.  The catalogue's own seed feeds its random
    # structure sweep, whose cost swings 70-fold between seeds; and since
    # the cases share the Groebner cache, a shuffled order moves the cost of
    # a shared basis from case to case and with it the latency percentiles.
    return [
        Query(
            case.name,
            functools.partial(_run_case, case),
            _case_check(case.negative_control, pins.get(case.name)),
            fresh_process=False,
            span="verification.case",
        )
        for case in catalogue()
    ]


# ---------------------------------------------------------------------------


BUILDERS = {
    "grassmann_analyze": grassmann_analyze,
    "random_structure": random_structure,
    "verify_catalogue": verify_catalogue,
}


def build(name: str, seed: int, pins: "dict | None" = None) -> list[Query]:
    """Make the workload's queries from the seed.

    The seed also fixes the order of the CLI queries, which start from an
    empty cache each; the catalogue cases keep the CLI's order.
    """
    pins = load_pins().get(name, {}) if pins is None else pins
    queries = BUILDERS[name](seed, pins)
    if name != "verify_catalogue":
        random.Random(f"{name}:{seed}").shuffle(queries)
    groebner.clear_cache()
    return queries


def source_digest() -> str:
    """sha256 over the package's source files, to name the code measured."""
    h = hashlib.sha256()
    for path in sorted(Path(multalg.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
