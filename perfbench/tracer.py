"""Span tracer that instruments `multalg` from outside the package.

`Tracer.install` replaces every binding of every public function of every
loaded `multalg.*` module (for example both `poly.mono_divides` and the
`groebner.mono_divides` that imports it), plus the methods in `METHODS`,
with a wrapper.  A wrapper records a span: name, start, end, self time,
parent span and query id.  The functions in `COUNT_ONLY` run millions of
times per query; their wrappers only count calls, and their time falls to
the self time of the span that called them.  `Tracer.uninstall` puts every
original object back and reports any binding it could not restore.

A span is named after the module that defines the function, so calls
through any binding add up under one name.  Self time is a span's duration
minus the durations of its child spans; the self times of one query's
spans therefore add up to the duration of its outermost span.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

PACKAGE = "multalg"

# Exponent-tuple helpers and order keys: counted, never timed.
COUNT_ONLY = frozenset(
    {
        "poly.mono_mul",
        "poly.mono_divides",
        "poly.mono_div",
        "poly.mono_lcm",
        "poly.mono_degree",
        "orders.key",
        "groebner.leading_exponents",
    }
)

# (module, class, attribute, span name) for methods the per-layer metrics need.
METHODS = (
    ("orders", "WeightedGrevlex", "key", "orders.key"),
    ("orders", "Lex", "key", "orders.key"),
    ("orders", "EliminationOrder", "key", "orders.key"),
    ("series", "RationalSeries", "__init__", "series.RationalSeries"),
    ("rings", "PresentedRing", "loads", "rings.PresentedRing.loads"),
)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Spans and counts of one traced pass; see the module docstring."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, self_ns, parent index or -1, query id)
        self.spans: list[tuple[str, int, int, int, int, object]] = []
        self.work: Counter[str] = Counter()  # sizes read off arguments and results
        self.query: object = None
        self._open: list[int] = []  # indices of the spans now running
        self._child_ns: list[int] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        self._count_cells: dict[str, list[int]] = {}

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        spans = self.spans
        parent = self._open[-1] if self._open else -1
        index = len(spans)
        spans.append(None)  # type: ignore[arg-type]
        self._open.append(index)
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            child = self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += end - start
            spans[index] = (name, start, end, end - start - child, parent, self.query)

    def _span_wrapper(self, name: str, fn):
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if post is not None:
                post(self.work, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self._count_cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if (key == PACKAGE or key.startswith(PACKAGE + ".")) and m is not None
        ]
        public: dict[int, str] = {}
        for m in modules:
            for attr, obj in vars(m).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == m.__name__
                    and obj.__name__ == attr
                ):
                    public[id(obj)] = f"{_short(m.__name__)}.{attr}"
        wrappers: dict[int, object] = {}
        for m in modules:
            for attr, obj in list(vars(m).items()):
                name = public.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._saved.append((m, attr, obj))
                setattr(m, attr, wrappers[id(obj)])
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> list[str]:
        """Restore every original; return the bindings that did not come back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        lost = []
        for owner, attr, original in self._saved:
            now = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                lost.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._saved.clear()
        return lost

    # -- summaries -------------------------------------------------------

    def calls(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for name, cell in self._count_cells.items():
            out[name] += cell[0]
        for span in self.spans:
            out[span[0]] += 1
        return out

    def self_seconds(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for name, _start, _end, self_ns, _parent, _query in self.spans:
            out[name] += self_ns
        return Counter({name: ns / 1e9 for name, ns in out.items()})

    def traced_seconds_by_query(self) -> Counter[object]:
        """Per query, the sum of its spans' self times."""
        out: Counter[object] = Counter()
        for _name, _start, _end, self_ns, _parent, query in self.spans:
            out[query] += self_ns
        return Counter({q: ns / 1e9 for q, ns in out.items()})

    def negative_self_spans(self) -> int:
        return sum(1 for span in self.spans if span[3] < 0)

    def cache_hit_fraction(self) -> float:
        """Share of `groebner_basis` requests answered without a Buchberger run."""
        requests = {i for i, span in enumerate(self.spans) if span[0] == "groebner.groebner_basis"}
        if not requests:
            return 0.0
        misses = {span[4] for span in self.spans if span[0] == "groebner.buchberger"} & requests
        return (len(requests) - len(misses)) / len(requests)


def _basis_elements(work, args, result):
    work["groebner.basis.elements"] += len(result.basis)


def _staircase(work, args, result):
    work["groebner.standard_monomials.count"] += len(result)


def _rref_cells(work, args, result):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    work["linalg.rref.cells"] += cells
    work["linalg.rref.max_cells"] = max(work["linalg.rref.max_cells"], cells)


def _jet_relations(work, args, result):
    work["jets.jet_presentation.relations"] += len(result.ring.relations)


_POST = {
    "groebner.buchberger": _basis_elements,
    "groebner.standard_monomials": _staircase,
    "linalg.rref": _rref_cells,
    "jets.jet_presentation": _jet_relations,
}
