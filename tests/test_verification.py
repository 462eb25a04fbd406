import hashlib
import json

import pytest

from multalg import verification
from multalg.grassmann import closure_vs_grassmann_dimensions
from multalg.groebner import DEFAULT_LIMITS, ReductionLimits, ResourceLimitExceeded
from multalg.verification import catalogue, run_all
from multalg.weights import DominantWeight


def test_catalogue_is_well_formed():
    cases = catalogue()
    names = [c.name for c in cases]
    assert len(names) == len(set(names))
    assert names == sorted(names)
    for c in cases:
        assert c.tag in {"paper", "trivial", "derived"}
        assert c.anchor.strip()
    assert sum(1 for c in cases if c.negative_control) == 1
    # one home per pinned fact: no two rows state one value of one computation
    rows = verification._ROWS
    shared = [
        (r.name, s.name)
        for i, r in enumerate(rows)
        for s in rows[i + 1:]
        if _same_compute(r.compute, s.compute) and r.expected == s.expected
    ]
    assert shared == []


def _same_compute(f, g):
    # two lambdas with the same code compute the same value; a named
    # function only shares its computation with itself
    if f.__name__ == g.__name__ == "<lambda>":
        a, b = f.__code__, g.__code__
        return (a.co_code, a.co_consts, a.co_names) == (b.co_code, b.co_consts, b.co_names)
    return f is g


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalogue_and_verify_json_are_pinned():
    # the verify JSON omits tags and anchors, so the metadata is pinned apart
    meta = [[c.name, c.module, c.tag, c.anchor, c.negative_control] for c in catalogue()]
    assert _sha256(json.dumps(meta)) == (
        "950ac40f29887a75df2063211fee769763cf4bfdbbaf6d451cda7908a57fed51"
    )
    assert _sha256(run_all().to_json()) == (
        "25db4c11e4a5047b11944b01b92c33fa3d0f1a2b03289775e8872a0cc5d34985"
    )
    assert _sha256(run_all(include_negative_controls=True).to_json()) == (
        "684ff1acfd2b17e033d4d348e6407856d08735e7760543d0b049bb74565fd3c3"
    )


def _row(name, compute, expected):
    return verification.CheckCase(name, "trivial", "a test row", compute, expected)


@pytest.mark.parametrize("name", ["poly.parse_zero", "multiplicity.structure_random_sweep"])
def test_duplicate_case_name_is_rejected(name, monkeypatch):
    before = [(c.name, c.anchor) for c in catalogue()]
    duplicate = _row(name, lambda limits: 0, 0)
    with monkeypatch.context() as patch:
        patch.setattr(verification, "_ROWS", verification._ROWS + (duplicate,))
        with pytest.raises(ValueError, match="duplicate"):
            catalogue()
    assert [(c.name, c.anchor) for c in catalogue()] == before
    assert len(before) == 108


def _run_extra_row(monkeypatch, compute, expected):
    extra = _row("zz.extra_row", compute, expected)
    monkeypatch.setattr(verification, "_ROWS", verification._ROWS + (extra,))
    return run_all(filter_substring="zz.extra_row")


def test_row_with_wrong_expected_value_fails_with_both_values(monkeypatch):
    summary = _run_extra_row(monkeypatch, lambda limits: ["p1 + q1", "q1^2"], ["p1 + q1"])
    assert summary.failed == (
        ("zz.extra_row", "got ['p1 + q1', 'q1^2'], expected ['p1 + q1']"),
    )
    assert summary.modules["zz"] == {"total": 1, "run": 1, "passed": 0}


def test_raising_compute_is_a_failure_with_its_message(monkeypatch):
    def compute(limits):
        raise ZeroDivisionError("series denominator is zero")

    summary = _run_extra_row(monkeypatch, compute, 0)
    assert summary.failed == (("zz.extra_row", "ZeroDivisionError: series denominator is zero"),)


def test_resource_cap_in_compute_is_a_skip(monkeypatch):
    def compute(limits):
        raise ResourceLimitExceeded(limits.max_pair_reductions)

    summary = _run_extra_row(monkeypatch, compute, 0)
    assert summary.failed == ()
    cap = DEFAULT_LIMITS.max_pair_reductions
    assert summary.skipped == (("zz.extra_row", f"resource cap of {cap} pair reductions hit"),)


def test_default_run_is_all_green():
    summary = run_all()
    assert summary.failed == ()
    assert summary.skipped == ()
    assert len(summary.excluded_negative_controls) == 1
    assert len(summary.passed) == len(catalogue()) - 1
    assert summary.failure_count == 0


def test_negative_control_fails_with_witness():
    summary = run_all(include_negative_controls=True)
    assert summary.failure_count == 1
    ((name, witness),) = summary.failed
    assert "negative_control" in name
    assert witness  # a concrete polynomial, not a bare assertion
    assert summary.excluded_negative_controls == ()


def test_every_module_is_covered():
    summary = run_all()
    assert set(summary.modules) == {c.module for c in catalogue()}
    for counts in summary.modules.values():
        assert counts["total"] > 0
        assert counts["run"] > 0
        assert counts["passed"] == counts["run"]


def test_json_output_is_deterministic():
    a = run_all().to_json()
    b = run_all().to_json()
    assert a == b
    data = json.loads(a)
    assert data["failed"] == []
    assert data["counts"]["passed"] == len(catalogue()) - 1


def test_filter_populates_untested():
    summary = run_all(filter_substring="jets.")
    assert summary.passed
    assert summary.untested
    total = (
        len(summary.passed)
        + len(summary.untested)
        + len(summary.excluded_negative_controls)
    )
    assert total == len(catalogue())
    for name in summary.passed:
        assert "jets." in name
    for name in summary.untested:
        assert "jets." not in name


def test_filter_with_no_matches():
    summary = run_all(filter_substring="no-such-case")
    assert summary.passed == ()
    assert len(summary.untested) == len(catalogue())


def test_tiny_cap_produces_skips_with_cap_value():
    limits = ReductionLimits(max_pair_reductions=1)
    summary = run_all(limits=limits)
    assert summary.skipped
    for name, reason in summary.skipped:
        assert "1" in reason and "cap" in reason
    # skips are not failures
    assert summary.failure_count == 0


def test_seed_changes_random_cases_not_the_contract():
    a = run_all(seed=1)
    b = run_all(seed=2)
    assert a.failure_count == b.failure_count == 0
    assert len(a.passed) == len(b.passed)


# ------------------------------------------------------- report helpers


def test_closure_report_shapes():
    rep = closure_vs_grassmann_dimensions(DominantWeight((1, 1, 0)))
    assert rep.mu == (1, 1, 0)
    assert rep.strata
    statuses = {s.status for s in rep.strata}
    assert statuses <= {"multiplicity", "no_paper_formula"}
    for s in rep.strata:
        if s.status == "multiplicity":
            assert s.polynomial is not None and s.point_count is not None
        else:
            assert s.polynomial is None and s.point_count is None
    # (1,1,0) is minuscule: a single stratum, multiplicity [3 2]_t
    assert len(rep.strata) == 1
    assert rep.strata[0].polynomial == "1 + t + t^2"
    assert rep.strata[0].point_count == 3


def test_closure_report_central_note():
    rep = closure_vs_grassmann_dimensions(DominantWeight((1, 1)))
    # mu = (1,1) is central: alpha_1 = 0, only the determinant character
    (stratum,) = rep.strata
    assert stratum.note == "central"
    assert stratum.point_count == 1


def test_closure_report_jet_note():
    # a single coefficient >= 2 names the jet order it corresponds to
    rep = closure_vs_grassmann_dimensions(DominantWeight((3, 0)))
    notes = [s.note for s in rep.strata if "jet" in s.note]
    assert notes
    assert any("order-2" in n for n in notes)
    # and the weight right below (3,0), namely (2,1), is a point of Gr(1,2)
    below = {s.weight: s for s in rep.strata}
    assert below[(2, 1)].status == "multiplicity"


def test_closure_report_json():
    rep = closure_vs_grassmann_dimensions(DominantWeight((2, 0)))
    data = rep.to_json_dict()
    assert data["mu"] == [2, 0]
    assert len(data["strata"]) == 2
    json.dumps(data)  # serializable as-is
