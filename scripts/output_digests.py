#!/usr/bin/env python3
"""Print one `name sha256` line per user-facing output of this tree.

Two trees print the same lines exactly when their outputs are
byte-identical, so a change that claims identical outputs is checked with

    python3 scripts/output_digests.py > after.txt   # in each tree
    diff before.txt after.txt

The listing is committed as `scripts/output_digests.txt`, and CI diffs a
fresh one against it, so an output change that is not declared fails.
Regenerate that file only together with a declared output change:

    python3 scripts/output_digests.py > scripts/output_digests.txt

Every output is made by the tree's own `multalg` CLI or scripts, each run
in a fresh interpreter with the tree's `src` on the path:

  - `analyze` text and `--json` on every Gr(k,n), n <= 7;
  - `jet -d 1|2|3 --invariants --json` on every Gr(k,n), n <= 5;
  - `jet`, text and `--json`, on (x^100) at order 20 and on
    (x^7*y^3 - 2*z^10 + x*y*z^8) at order 9, whose powers have exponents
    above and below the order;
  - `verify`, by default and with `--include-negative-controls --seed 7`:
    the exit code, then stdout;
  - `scripts/structure_sweep.py`, text and `--json`, by default and with
    `--seed 4 --random 60`, whose random maps reach dimension 200;
  - `gaussian`, `multiplicity`, `equivariant` and `closure`, text and
    `--json`, on fixed inputs up to `gaussian -n 120 -k 60`,
    `multiplicity -n 2 -m 2400` and `closure 25,0,...,0` (1,958 strata);
  - each row of `scripts/jet_regression.py --max-n 5` without its
    `seconds`, and the rest of that archive.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], stdin: str = "") -> tuple[int, str]:
    """(exit code, stdout) of a command run from the tree's root on its `src`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, *command], input=stdin, capture_output=True, text=True, cwd=ROOT, env=env
    )
    return done.returncode, done.stdout


def cli(*argv: str, stdin: str = "") -> tuple[int, str]:
    return run(["-m", "multalg", *argv], stdin)


def stdout_of(*argv: str, stdin: str = "") -> str:
    code, out = cli(*argv, stdin=stdin)
    if code:
        raise SystemExit(f"multalg {' '.join(argv)} exited {code}")
    return out


def verify_text(*flags: str) -> str:
    """What `multalg verify` reports: its exit code, then its stdout."""
    code, out = cli("verify", *flags)
    return f"exit {code}\n{out}"


def jet_regression_rows() -> Iterator[tuple[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "archive.json"
        code, _ = run(["scripts/jet_regression.py", "--max-n", "5", "--out", str(out)])
        if code:
            raise SystemExit(f"scripts/jet_regression.py exited {code}")
        archive = json.loads(out.read_text())
    for row in archive.pop("rows"):
        del row["seconds"]
        name = f"jet_regression Gr({row['k']},{row['n']}) order {row['order']}"
        yield name, json.dumps(row, sort_keys=True)
    yield "jet_regression archive", json.dumps(archive, sort_keys=True)


def entries() -> Iterator[tuple[str, Callable[[], str]]]:
    """(name, output maker) of every entry, made only when called."""
    grassmannians = [(k, n) for n in range(2, 8) for k in range(1, n)]
    fixtures: dict[tuple[int, int], str] = {}

    def fixture(k: int, n: int) -> str:
        if (k, n) not in fixtures:
            fixtures[k, n] = stdout_of("grassmann", "-n", str(n), "-k", str(k), "--json")
        return fixtures[k, n]

    for k, n in grassmannians:
        for flags in ((), ("--json",)):
            name = " ".join(("analyze", *flags, f"Gr({k},{n})"))
            yield name, lambda k=k, n=n, flags=flags: stdout_of("analyze", "-", *flags, stdin=fixture(k, n))
    for k, n in [(k, n) for k, n in grassmannians if n <= 5]:
        for d in ("1", "2", "3"):
            argv = ("jet", "-", "-d", d, "--invariants", "--json")
            yield f"jet -d {d} Gr({k},{n})", lambda k=k, n=n, argv=argv: stdout_of(*argv, stdin=fixture(k, n))
    powers = [("x", "x^100", "20"), ("x,y,z", "x^7*y^3 - 2*z^10 + x*y*z^8", "9")]
    for variables, relation, d in powers:
        ring = json.dumps({"variables": variables.split(","), "generators": [relation]})
        for flags in ((), ("--json",)):
            name = " ".join(("jet -d", d, *flags, f"({relation.replace(' ', '')})"))
            yield name, lambda ring=ring, d=d, flags=flags: stdout_of("jet", "-", "-d", d, *flags, stdin=ring)
    yield "verify", verify_text
    yield "verify --include-negative-controls --seed 7", lambda: verify_text(
        "--include-negative-controls", "--seed", "7"
    )
    for args in ((), ("--seed", "4", "--random", "60")):
        for flags in ((), ("--json",)):
            yield " ".join(("structure_sweep", *args, *flags)), lambda argv=(*args, *flags): run(
                ["scripts/structure_sweep.py", *argv]
            )[1]
    compact = [
        ("gaussian", "-n", "6", "-k", "3"),
        ("gaussian", "-n", "120", "-k", "60"),
        ("multiplicity", "-n", "4", "-m", "1,0,2"),
        ("multiplicity", "-n", "6", "-m", "40,20,10,20,40"),
        ("multiplicity", "-n", "2", "-m", "2400"),
        ("equivariant", "--domain", "1,2,3", "--codomain", "4,6,8"),
        ("equivariant", "--domain", "2,3", "--codomain", "6"),
        ("closure", "4,2,1,0"),
        ("closure", ",".join(["12"] + ["0"] * 11)),
        ("closure", ",".join(["25"] + ["0"] * 24)),
    ]
    for argv in compact:
        for flags in ((), ("--json",)):
            yield " ".join((*argv, *flags)), lambda argv=argv, flags=flags: stdout_of(*argv, *flags)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    for name, make in entries():
        print(name, digest(make()), flush=True)
    for name, text in jet_regression_rows():
        print(name, digest(text), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
