"""Weight rules, the face-count bound engines, angle enumeration, and the
diagram pipeline."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound import bounds
from moribound.bounds import (
    AngleData,
    CustomRule,
    DiagramInstance,
    Theorem12Rule,
    Theorem258Rule,
    count_condition_b,
    diagram_from_json,
    diagram_pipeline,
    diagram_to_json,
    enumerate_angles,
    lemma14_max_n,
    max_integer_below,
    sigma,
    theorem12_bound,
    validate_diagram,
    verify_lemma14,
)
from moribound.core import INF, rational
from moribound.generate import polytope_family
from moribound.polytope import PolytopeError, cube, product, simplex
from moribound.raysystem import RayDivisorSystem

FIXTURES = "tests/fixtures"


def load_diagram(path: str) -> DiagramInstance:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_json(json.load(fh))


# --- weight rules ----------------------------------------------------------


def test_two_band_rule_weights():
    rule = Theorem12Rule(2)
    table = {1: "2/3", 2: "2/3", 3: "1/2", 4: "1/2", 5: "1/2", 6: "0", 0: "0"}
    for dist, expect in table.items():
        assert sigma(rule, dist) == rational(expect)
    assert sigma(rule, INF) == 0
    # The band table against the rule's stated branches, for widths 1..4.
    for d in range(1, 5):
        for dist in [*range(2 * d + 4), INF]:
            if 1 <= dist <= d:
                expect = Fraction(2, 3)
            elif d + 1 <= dist <= 2 * d + 1:
                expect = Fraction(1, 2)
            else:
                expect = Fraction(0)
            assert sigma(Theorem12Rule(d), dist) == expect, (d, dist)


def test_two_band_rule_rejects_bad_band():
    with pytest.raises(ValueError):
        Theorem12Rule(0)


def test_contact_only_rule_weights():
    rule = Theorem258Rule()
    assert sigma(rule, 1) == Fraction(2, 3)
    for dist in (0, 2, 3, 10, INF):
        assert sigma(rule, dist) == 0
    for dist in [*range(12), INF]:
        assert sigma(rule, dist) == (Fraction(2, 3) if dist == 1 else 0), dist


def test_custom_rule_table():
    rule = CustomRule.of([((1, 1), "1/3"), ((2, 3), "1/6")])
    assert sigma(rule, 1) == Fraction(1, 3)
    assert sigma(rule, 2) == Fraction(1, 6)
    assert sigma(rule, 3) == Fraction(1, 6)
    assert sigma(rule, 4) == 0
    assert sigma(rule, INF) == 0


def test_rule_descriptions_distinguish_rules():
    assert Theorem12Rule(2).describe() != Theorem12Rule(3).describe()
    assert "d=2" in Theorem12Rule(2).describe()
    assert Theorem258Rule().describe() != Theorem12Rule(1).describe()


# --- the two bound engines ---------------------------------------------------


def test_max_n_frozen_table():
    table = {
        ("0", "2/3"): 6,
        ("2/3", "0"): 10,
        ("0", "0"): 4,
        ("1/3", "0"): 8,
        ("1", "0"): 13,
        ("2", "0"): 21,
        ("10/3", "0"): 32,
    }
    for (c, d), expect in table.items():
        assert lemma14_max_n(c, d) == expect, (c, d)


@given(st.fractions(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_max_n_is_below_coarse_line(c):
    # With D = 0 the even branch caps n strictly below 8C + 6.
    n = lemma14_max_n(c, 0)
    assert n < 8 * c + 6


def test_max_n_rejects_negative():
    with pytest.raises(ValueError):
        lemma14_max_n(-1, 0)


def test_face_dimension_bound_frozen():
    assert theorem12_bound(1, 0) == Fraction(34, 3)
    assert theorem12_bound(0, 0) == 6
    assert theorem12_bound("2/7", 0) == Fraction(158, 21)


def test_max_integer_below():
    assert max_integer_below(Fraction(34, 3)) == 11
    assert max_integer_below(5) == 4
    assert max_integer_below(Fraction(158, 21)) == 7
    assert max_integer_below(Fraction(1, 10)) == 0


# --- angle enumeration ----------------------------------------------------------


def test_cube_angle_count():
    angles = enumerate_angles(cube(3))
    assert len(angles) == 48  # 8 vertices x C(3,2) pairs x 2 orders
    per_vertex = {}
    for a in angles:
        per_vertex[a.vertex] = per_vertex.get(a.vertex, 0) + 1
    assert set(per_vertex.values()) == {6}
    for a in angles:
        assert len(a.plane) == 4


def test_simplex_angle_count():
    # n+1 vertices x C(n,2) facet pairs x 2 orientations
    for n in (2, 3, 4):
        assert len(enumerate_angles(simplex(n))) == (n + 1) * n * (n - 1)


def _angles_by_intersection(p):
    """Reference enumeration: each angle's 2-face is cut out by intersecting
    the other facets through its vertex."""
    out = []
    for v in p.vertices:
        through = [i for i, f in enumerate(p.facets) if v in f]
        for f, g in combinations(through, 2):
            plane = frozenset(p.vertices)
            for i in through:
                if i not in (f, g):
                    plane &= p.facets[i]
            assert p.face_dim(plane) == 2
            out += [AngleData(v, plane, f, g), AngleData(v, plane, g, f)]
    return out


@pytest.mark.parametrize(
    "name,p", polytope_family() + [("cube-3-x-simplex-2", product(cube(3), simplex(2)))]
)
def test_angles_match_facet_intersection(name, p):
    assert enumerate_angles(p) == _angles_by_intersection(p), name


def test_angles_require_simple_polytope():
    from moribound.polytope import CombinatorialPolytope

    pyramid = CombinatorialPolytope.of(
        3,
        ["a", "b", "c", "d", "t"],
        [["a", "b", "c", "d"], ["a", "b", "t"], ["b", "c", "t"],
         ["c", "d", "t"], ["d", "a", "t"]],
    )
    with pytest.raises(PolytopeError):
        enumerate_angles(pyramid)


# --- direct weight verification ---------------------------------------------------


def test_cube_uniform_quarter_weights():
    p = cube(3)
    weights = {a: Fraction(1, 4) for a in enumerate_angles(p)}
    report = verify_lemma14(p, weights, 1, 0)
    assert report.conditions_hold
    assert report.chain == {
        "lhs": Fraction(24),
        "total": Fraction(12),
        "rhs": Fraction(6),
        "lhs_ok": True,
        "rhs_ok": True,
        "average_k": Fraction(4),
    }
    assert report.implied_bound["max_admissible_n"] == 13


def test_cube_zero_weights_fail_face_condition():
    p = cube(3)
    weights = {a: 0 for a in enumerate_angles(p)}
    report = verify_lemma14(p, weights, 1, 0)
    assert report.condition1_holds
    assert not report.condition2_holds
    assert len(report.failing_faces) == 6
    assert not report.conditions_hold


def test_missing_weight_rejected():
    p = cube(3)
    angles = enumerate_angles(p)
    weights = {a: Fraction(1, 4) for a in angles[1:]}
    with pytest.raises(ValueError, match="missing weight"):
        verify_lemma14(p, weights, 1, 0)


def test_report_json_shape():
    p = simplex(3)
    weights = {a: Fraction(1, 3) for a in enumerate_angles(p)}
    report = verify_lemma14(p, weights, "2/3", 0)
    data = report.to_json()
    json.dumps(data)
    assert data["C"] == "2/3"
    assert data["conditions_hold"] is True
    assert data["chain"]["lhs_ok"] is True
    assert data["chain"]["lhs"] == "8"
    assert data["chain"]["total"] == "8"
    assert data["chain"]["rhs"] == "8"


# --- diagram instances -----------------------------------------------------------


def test_triangle_pipeline_frozen_values():
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    report = diagram_pipeline(inst, 2, Theorem12Rule(2))
    assert report.conforming
    assert report.counterexamples == ()
    assert report.empirical_c1 == Fraction(1, 2)
    assert report.empirical_c2 == 0
    assert report.c == Fraction(1, 3)
    assert report.d == 0
    assert report.chain["lhs"] == 2
    assert report.chain["total"] == 2
    assert report.chain["rhs"] == 2
    assert report.chain["average_k"] == 3
    assert report.implied_bound["max_admissible_n"] == 8
    assert report.rule == Theorem12Rule(2).describe()


def test_square_pipeline_replay_agrees():
    inst = load_diagram(f"{FIXTURES}/diagram_square_258.json")
    report = diagram_pipeline(inst, 1, Theorem258Rule())
    assert report.conforming
    assert report.replay == {
        "C": Fraction(0),
        "D": Fraction(2, 3),
        "max_vertex_sum": Fraction(2, 3),
        "agrees": True,
    }
    assert report.chain["lhs"] == Fraction(8, 3)
    assert report.chain["total"] == Fraction(4, 3)
    assert report.chain["rhs"] == 1
    audited = {frozenset(e["rays"]) for e in report.eset_audit}
    assert audited == {frozenset({"T1", "T3"}), frozenset({"T2", "T4"})}
    for entry in report.eset_audit:
        assert entry["diameter"] == 1
        assert entry["ok"]
        assert entry["full_nef_combination"]


def test_bad_quadrangle_counterexamples():
    inst = load_diagram(f"{FIXTURES}/diagram_bad_quadrangle.json")
    report = diagram_pipeline(inst, 1, Theorem258Rule())
    assert not report.conforming
    kinds = sorted(cx["kind"] for cx in report.counterexamples)
    assert kinds == [
        "2-face-weight-deficit",
        "eset-diameter-exceeds-band",
        "eset-diameter-exceeds-band",
    ]
    deficit = [cx for cx in report.counterexamples
               if cx["kind"] == "2-face-weight-deficit"][0]
    assert rational(deficit["sum"]) < rational(deficit["required"])
    band = [cx for cx in report.counterexamples
            if cx["kind"] == "eset-diameter-exceeds-band"][0]
    assert band["diameter"] == "inf"
    assert rational(band["limit"]) == 1


def test_custom_rule_pipeline_budget():
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    rule = CustomRule.of([((1, 2), "2/3")])
    report = diagram_pipeline(inst, 2, rule)
    # Custom budget: C = 0, D = the worst vertex sum, so condition (1) is
    # tight but never violated.
    assert report.c == 0
    assert report.d == max(report.vertex_sums.values())
    assert report.condition1_holds


@pytest.mark.parametrize("fixture,d,rule", [
    ("diagram_triangle.json", 2, Theorem12Rule(2)),
    ("diagram_square_258.json", 1, Theorem258Rule()),
    ("diagram_bad_quadrangle.json", 1, Theorem258Rule()),
    ("diagram_triangle.json", 2, CustomRule.of([((1, 2), "2/3")])),
])
def test_pipeline_verifies_through_verify_lemma14(monkeypatch, fixture, d, rule):
    calls = []

    def counted(p, weights, c, dd, **extra):
        calls.append((p, weights, c, dd))
        return verify_lemma14(p, weights, c, dd, **extra)

    monkeypatch.setattr(bounds, "verify_lemma14", counted)
    inst = load_diagram(f"{FIXTURES}/{fixture}")
    report = diagram_pipeline(inst, d, rule)
    assert len(calls) == 1
    p, weights, c, dd = calls[0]
    assert p is inst.polytope
    direct = verify_lemma14(p, weights, c, dd)
    assert (report.c, report.d) == (c, dd)
    assert report.vertex_sums == direct.vertex_sums
    assert report.face_sums == direct.face_sums
    assert report.chain == direct.chain


def test_pipeline_rejects_band_width_mismatch(monkeypatch):
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    # Nothing else may run first: the check precedes validation.
    monkeypatch.setattr(bounds, "validate_diagram", None)
    for d, e in [(2, 1), (1, 3)]:
        with pytest.raises(ValueError, match=f"band width {e} .* d = {d}"):
            diagram_pipeline(inst, d, Theorem12Rule(e))


def test_validate_diagram_errors():
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    validate_diagram(inst)  # baseline passes

    def check(facet_rays, pattern, system=None):
        broken = DiagramInstance.of(
            system=system or inst.system,
            polytope=inst.polytope,
            facet_rays=facet_rays,
        )
        with pytest.raises(ValueError, match=pattern):
            validate_diagram(broken)

    check(["S1", "S2"], "facet")  # 3 facets need 3 rays
    check(["S1", "S2", "S2"], "distinct")
    check(["S1", "S2", "S9"], "unknown")
    check(["S1", "S2", "S3"], "face structure",
          system=inst.system.with_faces(None))


def test_vertex_rayset_must_be_a_declared_face():
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    trimmed = inst.system.with_faces([[], ["S1"], ["S2"], ["S3"]])
    with pytest.raises(ValueError, match="face"):
        validate_diagram(
            DiagramInstance.of(
                system=trimmed, polytope=inst.polytope,
                facet_rays=list(inst.facet_rays),
            )
        )


def test_count_condition_b_shapes():
    sq = load_diagram(f"{FIXTURES}/diagram_square_258.json")
    s = sq.system
    assert count_condition_b(s, ["T1", "T2"], [], 1) == (1, 0)
    assert count_condition_b(s, ["T1", "T2"], ["T1"], 1) == (0, 0)
    assert count_condition_b(s, ["T1"], [], 1) == (0, 0)
    with pytest.raises(ValueError, match="extremal"):
        count_condition_b(s, ["T1", "T3"], [], 1)
    with pytest.raises(ValueError, match="perp"):
        count_condition_b(s, ["T1", "T2"], ["T3"], 1)


@given(st.integers(1, 4))
@settings(max_examples=8, deadline=None)
def test_band_widening_only_grows_counts(d):
    sq = load_diagram(f"{FIXTURES}/diagram_square_258.json")
    near, far = count_condition_b(sq.system, ["T1", "T2"], [], d)
    wider_near, wider_far = count_condition_b(sq.system, ["T1", "T2"], [], d + 1)
    assert wider_near >= near
    assert wider_near + wider_far >= near + far


# --- serialization ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["diagram_triangle", "diagram_square_258", "diagram_bad_quadrangle"],
)
def test_diagram_json_round_trip(name):
    inst = load_diagram(f"{FIXTURES}/{name}.json")
    data = diagram_to_json(inst)
    json.dumps(data)
    again = diagram_from_json(data)
    assert again.facet_rays == inst.facet_rays
    assert again.perp_rays == inst.perp_rays
    assert again.system == inst.system
    assert again.polytope == inst.polytope


def test_diagram_from_json_rejects_malformed():
    from moribound.raysystem import SystemFormatError

    with pytest.raises(SystemFormatError):
        diagram_from_json({"system": {}})
