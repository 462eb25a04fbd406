"""Command-line front end.

Every subcommand answers one question about local multiplicity algebras:
Gaussian binomials and intersection-ring presentations, structure reports
for quotients by quasi-homogeneous maps, jet presentations, equivariant
multiplicity series, and dominance-order closures.  Ring fixtures travel
as JSON objects with "variables", "weights", "generators", and an
optional "provenance" string; `-` reads the fixture from stdin, and the
`jet` output is itself a valid fixture, so commands compose by piping.

Exit codes: 0 on success, 2 on malformed input or usage errors, 3 when
the Groebner pair-reduction cap is hit, and for `verify` the number of
failed checks (capped at 125).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .grassmann import (
    DivisorData,
    closure_vs_grassmann_dimensions,
    gaussian_binomial,
    grassmann_multiplicity,
    grassmann_presentation,
)
from .groebner import DEFAULT_LIMITS, ReductionLimits, ResourceLimitExceeded
from .jets import jet_invariants, jet_presentation
from .multiplicity import equivariant_multiplicity, hitchin_base_weights, verify_structure_theorem
from .poly import polynomial_to_text, weighted_degree
from .rings import PresentedRing
from .series import UniPoly
from .weights import DominantWeight, dominance_leq, weyl_orbit_size

__all__ = ["main", "build_parser"]


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """Accept '1,2,3', '(1, 2, 3)', or '1 2 3'; integers are ASCII [+-]?[0-9]+."""
    cleaned = text.strip().strip("()[]").replace(",", " ")
    parts = cleaned.split()
    if not parts:
        raise ValueError(f"{flag}: expected a list of integers, got {text!r}")
    if not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
        raise ValueError(f"{flag}: expected integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _load_ring(path: str) -> PresentedRing:
    if path == "-":
        return PresentedRing.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return PresentedRing.loads(handle.read())


def _emit(as_json: bool, data: dict, text: str) -> None:
    """Print `data` as compact sorted JSON, or `text`."""
    print(json.dumps(data, sort_keys=True) if as_json else text)


def _poly_fields(poly: UniPoly) -> dict:
    """The JSON fields `gaussian` and `multiplicity` share."""
    coefficients = [int(c) for c in poly.coeffs]
    return {"coefficients": coefficients, "text": str(poly), "value_at_1": int(poly(1))}


def _print_ring(ring: PresentedRing, as_json: bool) -> None:
    if as_json:
        print(ring.dumps())
        return
    grading = ring.grading()
    print("variables:", " ".join(ring.variables))
    print("weights:  ", " ".join(str(w) for w in ring.weights))
    print("relations:")
    for rel in ring.relations:
        if rel.is_zero():
            print("  0")
        else:
            degree = weighted_degree(rel, grading)
            print(f"  [degree {degree}] {polynomial_to_text(rel)}")


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return
    if not report.finite_dimensional:
        print("finite_dimensional: false")
        print("(the quotient has positive Krull dimension; no multiplicity data)")
        return
    print("finite_dimensional: true")
    print(f"dimension: {report.dimension}")
    print(f"top_degree: {report.top_degree} (expected {report.expected_top_degree})")
    print(f"poincare: {report.poincare}")
    print(f"value_at_1: {report.m_at_1}")
    print(f"socle_degree: {report.socle_degree}")
    print(f"socle_basis: {' '.join(report.socle_basis)}")
    print(f"equivariant_multiplicity: {report.equivariant}")
    print("clauses:")
    for name, ok in sorted(report.clauses.items()):
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    print(f"all_clauses_true: {'true' if report.all_true() else 'false'}")


class _ArgumentCalls(list):
    """A subcommand's `add_argument` calls, kept as (args, kwargs) pairs."""

    def add_argument(self, *args, **kwargs) -> None:
        self.append((args, kwargs))


class _Subcommands(argparse._SubParsersAction):
    """Subparsers built only when their subcommand is parsed.

    `add_parser` records the choice, its help line and its `add_argument`
    calls; `__call__` builds the chosen parser from them, as argparse's own
    `add_parser` would have.  A call then builds two parsers, not twelve,
    and usage, help and error text stay the same.
    """

    def add_parser(self, name: str, help: str) -> _ArgumentCalls:
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = calls = _ArgumentCalls()
        return calls

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        calls = self._name_parser_map[name]
        if isinstance(calls, _ArgumentCalls):
            sub = self._name_parser_map[name] = self._parser_class(prog=f"{self._prog_prefix} {name}")
            for args, kwargs in calls:
                sub.add_argument(*args, **kwargs)
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the `multalg` command line.

    Each subcommand's own parser is built when that subcommand is parsed
    (see `_Subcommands`), so `main` pays for one subcommand, not eleven.
    """
    parser = argparse.ArgumentParser(
        prog="multalg",
        description=(
            "Exact computations with local multiplicity algebras of "
            "quasi-homogeneous maps: Gaussian binomials, intersection-ring "
            "presentations and their graded quotient structure, jet rings, "
            "equivariant multiplicity series, and dominance-order closures."
        ),
    )
    parser.add_argument(
        "--max-reductions",
        type=int,
        default=DEFAULT_LIMITS.max_pair_reductions,
        metavar="N",
        help="Groebner pair-reduction cap before giving up (exit 3)",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)

    p = sub.add_parser(
        "gaussian",
        help="Gaussian binomial [n k]: the graded dimension count of k-planes in n-space",
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "grassmann",
        help="presentation of the cohomology ring of k-planes in n-space by the monic product relation",
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "multiplicity",
        help="product of Gaussian binomials [n i]^(m_i) for divisor data m",
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=str, required=True, help="comma-separated multiplicities, length n-1")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "analyze",
        help=(
            "full structure report for the quotient by a ring fixture: finiteness, "
            "Poincare polynomial, one-dimensional socle spanned by the Jacobian "
            "determinant, perfect multiplication pairing, palindromic symmetry, and "
            "agreement with the equivariant multiplicity of the grading data"
        ),
    )
    p.add_argument("fixture", help="path to a ring fixture JSON, or - for stdin")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "equivariant",
        help="equivariant multiplicity: product of (1-t^d) over codomain degrees divided by (1-t^w) over domain weights",
    )
    p.add_argument("--domain", required=True, help="comma-separated domain weights")
    p.add_argument("--codomain", required=True, help="comma-separated codomain degrees")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "hitchin-weights",
        help="scaling weights of the rank-n genus-g spectral base: g ones plus (2i-1)(g-1) copies of each i",
    )
    p.add_argument("-n", type=int, required=True, help="rank")
    p.add_argument("-g", type=int, required=True, help="genus, at least 2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "jet",
        help="truncated-arc presentation of a ring fixture: order-d jets with the level-shifted grading",
    )
    p.add_argument("fixture", help="path to a ring fixture JSON, or - for stdin")
    p.add_argument("-d", "--order", type=int, required=True, dest="order")
    p.add_argument("--invariants", action="store_true", help="also compute Krull dimension and Hilbert series")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "dominance",
        help="whether the first weight lies below the second in dominance order (partial sums)",
    )
    p.add_argument("lam", metavar="LAMBDA", help="comma-separated weakly decreasing entries")
    p.add_argument("mu", metavar="MU", help="comma-separated weakly decreasing entries")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "orbit",
        help="size of the symmetric-group orbit of a dominant weight",
    )
    p.add_argument("weight", help="comma-separated weakly decreasing entries")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "closure",
        help=(
            "strata below a dominant weight in dominance order, each with its "
            "multiplicity polynomial when the stratum is a product of Gaussian binomials"
        ),
    )
    p.add_argument("weight", help="comma-separated weakly decreasing entries")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "verify",
        help="run the example catalogue and print a JSON summary; exit code counts failures",
    )
    p.add_argument("--filter", default=None, metavar="SUBSTRING", help="run only cases whose name contains this")
    p.add_argument(
        "--include-negative-controls",
        action="store_true",
        help="also run the deliberately corrupted fixtures (they are expected to fail)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized structure sweeps")

    return parser


def _run(args: argparse.Namespace, limits: ReductionLimits) -> int:
    if args.command == "gaussian":
        poly = gaussian_binomial(args.n, args.k)
        _emit(args.json, {"n": args.n, "k": args.k, **_poly_fields(poly)}, str(poly))
        return 0

    if args.command == "grassmann":
        _print_ring(grassmann_presentation(args.n, args.k), args.json)
        return 0

    if args.command == "multiplicity":
        m = _parse_int_list(args.m, "-m")
        poly = grassmann_multiplicity(DivisorData(args.n, m))
        _emit(args.json, {"n": args.n, "m": list(m), **_poly_fields(poly)}, str(poly))
        return 0

    if args.command == "analyze":
        ring = _load_ring(args.fixture)
        report = verify_structure_theorem(ring.as_map(), limits)
        _print_report(report, args.json)
        return 0

    if args.command == "equivariant":
        domain = _parse_int_list(args.domain, "--domain")
        codomain = _parse_int_list(args.codomain, "--codomain")
        series = str(equivariant_multiplicity(domain, codomain))
        data = {"domain": list(domain), "codomain": list(codomain), "series": series}
        _emit(args.json, data, series)
        return 0

    if args.command == "hitchin-weights":
        weights = hitchin_base_weights(args.n, args.g)
        _emit(
            args.json,
            {"n": args.n, "g": args.g, "weights": list(weights), "cardinality": len(weights)},
            f"weights: {' '.join(map(str, weights))}\ncardinality: {len(weights)}",
        )
        return 0

    if args.command == "jet":
        ring = _load_ring(args.fixture)
        jet = jet_presentation(ring, args.order)
        if args.invariants:
            inv = jet_invariants(jet, limits)
            if args.json:
                print(json.dumps(
                    {"ring": jet.ring.to_json_dict(), "invariants": inv.to_json_dict()},
                    indent=2, sort_keys=True))
            else:
                _print_ring(jet.ring, False)
                print(f"krull_dimension: {inv.krull_dimension}")
                print(f"hilbert_series: {inv.hilbert}")
                print("series_weights:", " ".join(str(w) for w in inv.series_weights))
                if inv.finite:
                    print(f"dimension: {inv.dimension}")
                print(f"grading_assumption: {inv.grading_assumption}")
        else:
            _print_ring(jet.ring, args.json)
        return 0

    if args.command == "dominance":
        lam = DominantWeight(_parse_int_list(args.lam, "LAMBDA"))
        mu = DominantWeight(_parse_int_list(args.mu, "MU"))
        below = dominance_leq(lam, mu)
        _emit(
            args.json,
            {"lambda": list(lam.entries), "mu": list(mu.entries), "below": below},
            "true" if below else "false",
        )
        return 0

    if args.command == "orbit":
        weight = DominantWeight(_parse_int_list(args.weight, "WEIGHT"))
        size = weyl_orbit_size(weight)
        _emit(args.json, {"weight": list(weight.entries), "orbit_size": size}, str(size))
        return 0

    if args.command == "closure":
        weight = DominantWeight(_parse_int_list(args.weight, "WEIGHT"))
        report = closure_vs_grassmann_dimensions(weight)
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        else:
            for stratum in report.strata:
                head = "(" + ",".join(str(e) for e in stratum.weight) + ")"
                if stratum.status == "multiplicity":
                    line = f"{head}: {stratum.polynomial} ({stratum.point_count} at t=1)"
                else:
                    line = f"{head}: no closed formula"
                if stratum.note:
                    line += f"  [{stratum.note}]"
                print(line)
        return 0

    if args.command == "verify":
        from .verification import run_all

        summary = run_all(
            filter_substring=args.filter,
            include_negative_controls=args.include_negative_controls,
            limits=limits,
            seed=args.seed,
        )
        print(summary.to_json())
        return min(summary.failure_count, 125)

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """Run `multalg ARGV` (sys.argv[1:] when None) and return its exit code.

    Every call builds a new parser with `build_parser`.
    """
    args = build_parser().parse_args(argv)
    if args.max_reductions <= 0:
        print("error: --max-reductions must be positive", file=sys.stderr)
        return 2
    limits = ReductionLimits(max_pair_reductions=args.max_reductions)
    try:
        return _run(args, limits)
    except ResourceLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # fixture, parse and JSON errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
