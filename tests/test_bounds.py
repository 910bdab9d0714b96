"""Weight rules, the face-count bound engines, angle enumeration, and the
diagram pipeline."""

import functools
import glob
import json
import math
import os
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distance_table
from moribound import bounds
from moribound.bounds import (
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
from moribound.core import INF, RVector, mask_names, rational
from moribound.generate import polytope_family, realized_b2
from moribound.polytope import (
    CombinatorialPolytope,
    PolytopeError,
    cube,
    cyclic_dual,
    product,
    simplex,
)
from moribound.raysystem import RayDivisorSystem
from moribound.realized import RealizedModel
from moribound.structure import find_esets

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


def test_lemma14_max_n_matches_a_scan():
    def scan(c, d):  # the admissible n below the horizon, one by one
        horizon = math.ceil(8 * c + 8 * d + 16)
        return max(n for n in range(1, horizon + 1) if n < bounds._lemma14_rhs(n, c, d))

    grid = [Fraction(p, q) for q in (1, 2, 3, 7) for p in range(10)]
    for c in grid:
        for d in grid:
            assert lemma14_max_n(c, d) == scan(c, d), (c, d)


def test_lemma14_max_n_answers_large_constants_at_once():
    start = time.perf_counter()
    assert lemma14_max_n(10**9, 10**9) == 8_000_000_006
    assert lemma14_max_n(1_000_000, 0) == 8_000_005
    for c in (1, 10**17, 10**19, 10**30):  # past sys.maxsize from 10**18 on
        assert lemma14_max_n(c, 0) == 8 * c + 5, c
    assert time.perf_counter() - start < 1.0


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


def _oriented_angles(p):
    """The oriented angles of the `enumerate_angles` rows, both orders of
    each facet pair, as ((vertex, side1, side2), vertex set of the 2-face),
    each 2-face read here from its mask."""
    out = []
    for v, pairs in enumerate_angles(p):
        for f, g, face in pairs:
            plane = frozenset(u for u in p.vertices if p._bit[u] & face)
            out += [((v, f, g), plane), ((v, g, f), plane)]
    return out


def _angle_keys(p):
    """The `verify_lemma14` weight keys, in the order it reads them."""
    return [key for key, _ in _oriented_angles(p)]


def test_cube_angle_count():
    rows = enumerate_angles(cube(3))
    assert len(rows) == 8 and {len(pairs) for _, pairs in rows} == {3}
    angles = _oriented_angles(cube(3))
    assert len(angles) == 48  # 8 vertices x C(3,2) pairs x 2 orders
    assert Counter(v for (v, _, _), _ in angles) == dict.fromkeys(cube(3).vertices, 6)
    for _, plane in angles:
        assert len(plane) == 4


def test_simplex_angle_count():
    # n+1 vertices x C(n,2) facet pairs x 2 orientations
    for n in (2, 3, 4):
        assert len(_oriented_angles(simplex(n))) == (n + 1) * n * (n - 1)


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
            out += [((v, f, g), plane), ((v, g, f), plane)]
    return out


@pytest.mark.parametrize(
    "name,p", polytope_family() + [("cube-3-x-simplex-2", product(cube(3), simplex(2)))]
)
def test_angles_match_facet_intersection(name, p):
    assert [v for v, _ in enumerate_angles(p)] == list(p.vertices), name
    assert _oriented_angles(p) == _angles_by_intersection(p), name


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


def test_angles_refuse_a_vertex_whose_facet_complement_cuts_no_2_face():
    # Simple, with f-vector (10, 14, 14, 7, 1), and every facet a 3-face; yet
    # the facets through vertex 0 other than some pair meet in a face that
    # lies in further facets.
    p = CombinatorialPolytope.of(4, range(10), [
        [3, 4, 5, 6, 7, 8, 9], [0, 1, 2, 4, 5, 6, 8, 9], [0, 4, 7, 9], [1, 2, 3, 5, 8],
        [0, 2, 7, 9], [1, 2, 3, 4, 5, 6], [0, 1, 3, 6, 7, 8],
    ])
    assert p.is_simple and p.fvector().counts == (10, 14, 14, 7, 1)
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(PolytopeError) as got:
            enumerate_angles(p)
        assert str(got.value) == "facet complement at vertex 0 does not cut a 2-face"


@pytest.mark.parametrize("p", [simplex(1), cube(1)])
def test_a_segment_has_no_angles(p):
    assert p.faces(2) == [] and enumerate_angles(p) == tuple((v, ()) for v in p.vertices)


# --- direct weight verification ---------------------------------------------------


def test_cube_uniform_quarter_weights():
    p = cube(3)
    weights = {a: Fraction(1, 4) for a in _angle_keys(p)}
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
    weights = {a: 0 for a in _angle_keys(p)}
    report = verify_lemma14(p, weights, 1, 0)
    assert report.condition1_holds
    assert not report.condition2_holds
    assert len(report.failing_faces) == 6
    assert not report.conditions_hold


def test_the_strict_inequality_fails_where_n_meets_its_right_hand_side():
    # At C = D = 0 the even branch's right-hand side 8C + 6 + 8D/n is 6, so
    # n = 6 is not strictly below it.
    p = cube(6)
    report = verify_lemma14(p, dict.fromkeys(_angle_keys(p), 0), 0, 0)
    assert report.implied_bound["rhs_for_n"] == 6
    assert report.implied_bound["strict_ok"] is False
    assert report.implied_bound["max_admissible_n"] == 4  # n = 5 fails the odd branch


def test_missing_weight_rejected():
    p = cube(3)
    angles = _angle_keys(p)
    weights = {a: Fraction(1, 4) for a in angles[1:]}
    with pytest.raises(ValueError, match="missing weight"):
        verify_lemma14(p, weights, 1, 0)


def _seeded_weights(angles, rng):
    """Mixed-denominator weights, some negative, as Fractions, ints and
    strings."""
    out = {}
    for a in angles:
        num, den = rng.randint(-7, 9), rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 12))
        out[a] = rng.choice((Fraction(num, den), num, f"{num}/{den}", "3/4"))
    return out


def _fraction_report(p, weights, c, d):
    """Reference: the sums accumulated as Fractions angle by angle, and the
    failing faces and chain derived from them."""
    vertex_sums = dict.fromkeys(p.vertices, Fraction(0))
    face_sums = dict.fromkeys(p.faces(2), Fraction(0))
    for (v, f, g), plane in _oriented_angles(p):
        w = rational(weights[v, f, g])
        vertex_sums[v] += w
        face_sums[plane] += w
    total = sum(vertex_sums.values(), Fraction(0))
    budget = c * p.dim + d
    failing_faces = tuple(sorted(
        (f for f in face_sums if face_sums[f] < 5 - len(f)),
        key=lambda f: sorted(str(v) for v in f),
    ))
    alpha0, alpha2 = len(vertex_sums), len(face_sums)
    avg_k = Fraction(sum(map(len, face_sums)), alpha2) if alpha2 else Fraction(0)
    chain = {
        "lhs": budget * alpha0,
        "total": total,
        "rhs": alpha2 * (5 - avg_k),
        "lhs_ok": budget * alpha0 >= total,
        "rhs_ok": total >= alpha2 * (5 - avg_k),
        "average_k": avg_k,
    }
    return vertex_sums, face_sums, failing_faces, chain


@pytest.mark.parametrize(
    "p", [cube(4), cyclic_dual(4, 8), product(simplex(2), cube(2)), simplex(1)]
)
def test_common_denominator_sums_match_fraction_accumulation(p):
    angles = _angle_keys(p)
    c, d = Fraction(2, 3), Fraction(1, 2)
    for seed in range(5):
        weights = _seeded_weights(angles, random.Random(seed))
        vertex_sums, face_sums, failing_faces, chain = _fraction_report(p, weights, c, d)
        report = verify_lemma14(p, weights, c, d)
        assert list(report.vertex_sums.items()) == list(vertex_sums.items())
        assert list(report.face_sums.items()) == list(face_sums.items())
        assert report.failing_faces == failing_faces
        assert report.chain == chain
    if not angles:  # simplex(1)
        return
    # Weights are read in angle order: the first gap is named even with a
    # non-rational weight later on, and a non-rational weight before it wins.
    del weights[angles[9]], weights[angles[3]]
    weights[angles[5]] = 0.5
    with pytest.raises(ValueError, match=re.escape(f"missing weight for angle {angles[3]}")):
        verify_lemma14(p, weights, c, d)
    weights[angles[1]] = 0.5
    with pytest.raises(TypeError, match="cannot interpret 0.5"):
        verify_lemma14(p, weights, c, d)
    # Within a facet pair (f, g), (vertex, f, g) is read before (vertex, g, f).
    v, f, g = angles[2]
    assert angles[3] == (v, g, f)
    weights = _seeded_weights(angles, random.Random(0))
    del weights[v, g, f], weights[v, f, g]
    with pytest.raises(ValueError, match=re.escape(f"missing weight for angle {(v, f, g)}")):
        verify_lemma14(p, weights, c, d)


def test_report_json_shape():
    p = simplex(3)
    weights = {a: Fraction(1, 3) for a in _angle_keys(p)}
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


def test_triangle_pipeline_replay_disagrees():
    # Arrows run both ways between every two rays, so each vertex carries two
    # angles at distance 1: 4/3 against the contact-only budget 2/3.
    s = RayDivisorSystem.of(
        rays=[(rid, "II", f"D{rid}") for rid in "ABC"],
        divisors=["DA", "DB", "DC"],
        pairing=[[-1, 1, 1], [1, -1, 1], [1, 1, -1]],
        meets=[("DA", "DB"), ("DB", "DC"), ("DA", "DC")],
        faces=[[], ["A"], ["B"], ["C"], ["A", "B"], ["B", "C"], ["A", "C"]],
    )
    report = diagram_pipeline(DiagramInstance.of(s, simplex(2), "ABC"), 1, Theorem258Rule())
    assert report.replay == {
        "C": Fraction(0),
        "D": Fraction(2, 3),
        "max_vertex_sum": Fraction(4, 3),
        "agrees": False,
    }
    assert report.failing_vertices == (0, 1, 2) and not report.conforming


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


# Seeded contact bundles (see `_contact_bundle`) by name, beside the fixtures.
CONTACT_POLYTOPES = {
    "cube-3": lambda: cube(3),
    "cube-4": lambda: cube(4),
    "cube-5": lambda: cube(5),
    "cube-6": lambda: cube(6),
    "cyclic_dual-4-8": lambda: cyclic_dual(4, 8),
    "cyclic_dual-5-10": lambda: cyclic_dual(5, 10),
    "simplex3xcube3": lambda: product(simplex(3), cube(3)),
}


@functools.lru_cache(maxsize=None)
def _bundle(name):
    """A diagram fixture by file name, or a seeded contact bundle by
    polytope name."""
    if name in CONTACT_POLYTOPES:
        return _contact_bundle(CONTACT_POLYTOPES[name](), 1)
    return load_diagram(f"{FIXTURES}/{name}")


RULES_BY_D = [(d, Theorem12Rule(d)) for d in (1, 2, 3)] + [(2, Theorem258Rule())]


@pytest.mark.parametrize("fixture,d,rule", [
    ("diagram_triangle.json", 2, Theorem12Rule(2)),
    ("diagram_square_258.json", 1, Theorem258Rule()),
    ("diagram_bad_quadrangle.json", 1, Theorem258Rule()),
] + [
    pytest.param(name, d, rule, id=f"{name}-{rule.describe()}")
    for name in sorted(map(os.path.basename, glob.glob(
        os.path.join(os.path.dirname(__file__), "fixtures", "diagram_*.json")
    ))) + list(CONTACT_POLYTOPES)
    for d, rule in RULES_BY_D
])
def test_pipeline_verifies_through_verify_lemma14(fixture, d, rule):
    """The pipeline sums integer weight numerators on the angle rows.
    `verify_lemma14`, given the weights keyed by (vertex, side1, side2) and
    built here from `sigma` of each angle's side distance in the reference
    table, reports the same sums, failures, chain and implied bound."""
    inst = _bundle(fixture)
    report = diagram_pipeline(inst, d, rule)
    p, rel, rays = inst.polytope, inst.system.relations, inst.facet_rays
    perp = rel.mask(inst.perp_rays)
    dists = {v: distance_table(rel, inst.face_mask(p._bit[v], perp)) for v in p.vertices}
    weights = {(v, f, g): sigma(rule, dists[v][rays[f], rays[g]])
               for v, f, g in _angle_keys(p)}
    direct = verify_lemma14(p, weights, report.c, report.d)
    assert list(report.vertex_sums.items()) == list(direct.vertex_sums.items())
    assert list(report.face_sums.items()) == list(direct.face_sums.items())
    for name in ("chain", "failing_vertices", "failing_faces", "implied_bound",
                 "condition1_holds", "condition2_holds"):
        assert getattr(report, name) == getattr(direct, name), name
    if isinstance(rule, Theorem258Rule):
        assert (report.c, report.d) == (0, Fraction(2, 3))


# Contact bundles whose vertex graphs hold perp rays, which paths may pass.
PERP_BUNDLES = {
    "cube-4+perp2": (lambda: cube(4), 2),
    "cyclic_dual-4-8+perp1": (lambda: cyclic_dual(4, 8), 1),
    "simplex3xcube3+perp3": (lambda: product(simplex(3), cube(3)), 3),
}


@functools.lru_cache(maxsize=None)
def _perp_bundle(name):
    polytope, perp = PERP_BUNDLES[name]
    return _contact_bundle(polytope(), 3, perp)


@pytest.mark.parametrize("name", sorted(map(os.path.basename, glob.glob(
    os.path.join(os.path.dirname(__file__), "fixtures", "diagram_*.json")
))) + list(CONTACT_POLYTOPES) + list(PERP_BUNDLES))
def test_pipeline_bands_match_distance_tables(name):
    """The pipeline reads distances as bands of breadth-first searches cut
    at d and 2d + 1.  Under both rules at d = 1..4 its vertex sums, 2-face
    sums and empirical C1, C2 equal a reference built here from whole
    `distance_table` tables: `sigma` of each angle's side distance, and
    condition (b)'s counts over each vertex's outer rays.  The bands of every
    facet ray through a vertex are the rays its table puts in each band."""
    inst = _perp_bundle(name) if name in PERP_BUNDLES else _bundle(name)
    p, rel, rays = inst.polytope, inst.system.relations, inst.facet_rays
    perp = rel.mask(inst.perp_rays)
    raysets = {v: inst.face_mask(p._bit[v], perp) for v in p.vertices}
    dists = {v: distance_table(rel, rayset) for v, rayset in raysets.items()}
    outers = {v: rel.names(rayset & ~perp) for v, rayset in raysets.items()}
    if perp:  # some shortest path passes a perp ray
        assert any(distance_table(rel, rayset & ~perp).items() - dists[v].items()
                   for v, rayset in raysets.items())
    for d in (1, 2, 3, 4):
        cuts = sorted({1, d, 2 * d + 1})
        for v, dist in dists.items():
            for f in p.facets_through(frozenset([v])):
                k = rel.bit[rays[f]].bit_length() - 1
                want = [rel.mask(b for (a, b), x in dist.items() if a == rays[f] and lo < x <= hi)
                        for lo, hi in zip([0] + cuts, cuts)]
                assert rel.bands(raysets[v], k, cuts) == want
        c1 = c2 = Fraction(0)
        for v, outer in outers.items():
            apart = [dists[v][a, b] for a in outer for b in outer if a != b]
            if outer:
                c1 = max(c1, Fraction(sum(1 <= x <= d for x in apart), len(outer)))
                c2 = max(c2, Fraction(sum(d < x <= 2 * d + 1 for x in apart), len(outer)))
        for rule in (Theorem12Rule(d), Theorem258Rule()):
            report = diagram_pipeline(inst, d, rule)
            vertex_sums = dict.fromkeys(p.vertices, Fraction(0))
            face_sums = Counter()
            for (v, f, g), plane in _oriented_angles(p):
                w = sigma(rule, dists[v][rays[f], rays[g]])
                vertex_sums[v] += w
                face_sums[plane] += w
            assert list(report.vertex_sums.items()) == list(vertex_sums.items()), (d, rule)
            assert report.face_sums == dict(face_sums), (d, rule)
            assert (report.empirical_c1, report.empirical_c2) == (c1, c2), (d, rule)
            if isinstance(rule, Theorem12Rule):
                assert report.c == Fraction(2, 3) * c1 + Fraction(1, 2) * c2


def test_audit_diameters_match_distance_tables():
    """Each E-set the pipeline audits prints the diameter of its members in
    the reference `distance_table` of the E-set with the perp rays, "inf"
    when one member reaches no other, and is ok exactly when that is at most
    d."""
    names = sorted(map(os.path.basename, glob.glob(
        os.path.join(os.path.dirname(__file__), "fixtures", "diagram_*.json")
    ))) + list(CONTACT_POLYTOPES)
    bundles = [_bundle(name) for name in names] + [_perp_bundle(name) for name in PERP_BUNDLES]
    seen = Counter()
    for inst in bundles:
        rel = inst.system.relations
        for d in (1, 2, 3):
            for entry in diagram_pipeline(inst, d, Theorem12Rule(d)).eset_audit:
                rays = entry["rays"]
                dist = distance_table(rel, rel.mask(set(rays) | inst.perp_rays))
                diam = max(dist[a, b] for a in rays for b in rays)
                assert entry["diameter"] == ("inf" if diam == INF else diam), (rays, d)
                assert entry["ok"] == (diam <= d), (rays, d)
                seen[entry["diameter"]] += 1
    assert {1, 2, 3, "inf"} <= set(seen), seen


@pytest.mark.parametrize("fixture,d,rule", [
    ("diagram_triangle.json", 2, Theorem12Rule(2)),
    ("diagram_square_258.json", 1, Theorem258Rule()),
    ("diagram_bad_quadrangle.json", 1, Theorem258Rule()),
])
def test_pipeline_enumerates_the_angles_once(monkeypatch, fixture, d, rule):
    """A verdict reads its angles through `bounds.enumerate_angles`, once per
    verdict, and builds a polytope's rows once: a second verdict on it reads
    the kept rows.  Each verdict decodes the 2-faces once, for the 2-face
    sums."""
    lookups, calls = [], []
    faces, rows_of = CombinatorialPolytope.faces, bounds.enumerate_angles

    def counted_faces(p, k=None):
        lookups.append(k)
        return faces(p, k)

    def counted_rows(p):
        calls.append(p)
        return rows_of(p)

    rows_of(simplex(3))  # so no earlier run has this polytope's angles
    misses = rows_of.cache_info().misses
    monkeypatch.setattr(CombinatorialPolytope, "faces", counted_faces)
    monkeypatch.setattr(bounds, "enumerate_angles", counted_rows)
    inst = load_diagram(f"{FIXTURES}/{fixture}")
    p = inst.polytope
    report = diagram_pipeline(inst, d, rule)
    assert len(calls) == 1 and calls[0] is p
    assert lookups == [2]
    assert rows_of.cache_info().misses == misses + 1
    again = diagram_pipeline(inst, d, rule)
    assert len(calls) == 2 and calls[1] is p
    assert lookups == [2, 2]
    assert rows_of.cache_info().misses == misses + 1
    assert again == report and rows_of(p) is rows_of(p)
    if isinstance(rule, Theorem258Rule):
        assert report.replay["agrees"] == report.condition1_holds
        assert report.replay["max_vertex_sum"] == max(report.vertex_sums.values())


def test_pipeline_rejects_band_width_mismatch(monkeypatch):
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    # Nothing else may run first: the check precedes validation.
    monkeypatch.setattr(bounds, "validate_diagram", None)
    for d, e in [(2, 1), (1, 3)]:
        with pytest.raises(ValueError, match=f"band width {e} .* d = {d}"):
            diagram_pipeline(inst, d, Theorem12Rule(e))


@pytest.mark.parametrize("d", [0, -3])
@pytest.mark.parametrize(
    "rule",
    [Theorem12Rule(1), Theorem258Rule()],
    ids=["theorem12", "theorem258"],
)
def test_pipeline_rejects_band_width_below_one(monkeypatch, rule, d):
    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    # Nothing else may run first: the check precedes validation.
    monkeypatch.setattr(bounds, "validate_diagram", None)
    with pytest.raises(ValueError, match="band width d must be at least 1"):
        diagram_pipeline(inst, d, rule)


def test_validate_diagram_refuses_vertex_ids_that_print_alike():
    sq = load_diagram(f"{FIXTURES}/diagram_square_258.json")
    validate_diagram(sq)
    # The square's vertices renamed 1, "1", 2, "2": reports key vertices by
    # their printed ids, so two pairs would merge.
    rename = {"v12": 1, "v23": "1", "v34": 2, "v41": "2"}
    polytope = CombinatorialPolytope.of(
        2, list(rename.values()), [[rename[v] for v in f] for f in sq.polytope.facets]
    )
    renamed = DiagramInstance.of(sq.system, polytope, sq.facet_rays)
    with pytest.raises(ValueError, match="vertex ids 1 and '1' print alike"):
        validate_diagram(renamed)


def test_validate_diagram_refuses_a_non_simple_cross_section():
    # The square pyramid's apex lies in four facets.
    pyramid = CombinatorialPolytope.of(
        3,
        ["a", "b", "c", "d", "t"],
        [["a", "b", "c", "d"], ["a", "b", "t"], ["b", "c", "t"],
         ["c", "d", "t"], ["d", "a", "t"]],
    )
    ids = [f"F{i}" for i in range(5)]
    s = RayDivisorSystem.of(
        rays=[(rid, "II", f"D{rid}") for rid in ids],
        divisors=[f"D{rid}" for rid in ids],
        pairing=[[-1 if i == j else 0 for j in range(5)] for i in range(5)],
        faces=[[]] + [[rid] for rid in ids],
    )
    with pytest.raises(ValueError, match="the cross-section must be a simple polytope"):
        validate_diagram(DiagramInstance.of(s, pyramid, ids))


def test_a_segment_bundle_audits_only_extendable_esets_with_two_outer_rays():
    # A segment whose facets kill F0 and F1, a perp ray P, and a ray X of no
    # polytope face.  Of the E-sets, {P, X} has one ray outside the perp set,
    # and {F0, X} and {F1, X} do not extend by P, since {P, X} is no face: only
    # {F0, F1} is audited.  At n = 1 the right-hand side is infinite.
    ids = ["F0", "F1", "P", "X"]
    s = RayDivisorSystem.of(
        rays=[(rid, "II", f"D{rid}") for rid in ids],
        divisors=[f"D{rid}" for rid in ids],
        pairing=[[-1 if i == j else 0 for j in range(4)] for i in range(4)],
        faces=[[], ["F0"], ["F1"], ["P"], ["X"], ["F0", "P"], ["F1", "P"]],
    )
    assert sorted(map(sorted, find_esets(s, ids))) == [
        ["F0", "F1"], ["F0", "X"], ["F1", "X"], ["P", "X"],
    ]
    inst = DiagramInstance.of(s, simplex(1), ["F0", "F1"], ["P"])
    data = diagram_pipeline(inst, 1, Theorem12Rule(1)).to_json()
    assert data["eset_audit"] == [
        {"rays": ["F0", "F1"], "diameter": "inf", "full_nef_combination": False, "ok": False},
    ]
    assert data["implied_bound"] == {
        "rhs_for_n": "inf", "strict_ok": True, "max_admissible_n": "4",
    }


def test_validate_diagram_refuses_a_model_not_simple_in_the_ambient_face():
    # The triangle with rays in rank 2, S3 = -S1: the face {S1, S3} spans
    # rank 1, so the model is not simple over the empty perp face.
    tri = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    rays = {"S1": (1, 0), "S2": (0, 1), "S3": (-1, 0)}
    divisors = {"D1": (-1, 1), "D2": (1, -1), "D3": (1, 0)}
    system = RayDivisorSystem.of(
        rays=[(rid, "II", f"D{rid[1]}") for rid in rays],
        divisors=list(divisors),
        pairing=[[sum(a * b for a, b in zip(r, d)) for d in divisors.values()]
                 for r in rays.values()],
        meets=[("D1", "D2"), ("D1", "D3"), ("D2", "D3")],
        faces=tri.system.faces,
    )
    model = RealizedModel(
        rho=2,
        base_system=system,
        ray_vectors={rid: RVector.of(v) for rid, v in rays.items()},
        divisor_vectors={did: RVector.of(v) for did, v in divisors.items()},
    )
    validate_diagram(DiagramInstance.of(system, tri.polytope, tri.facet_rays))
    with pytest.raises(ValueError, match="not simple in the ambient face"):
        validate_diagram(
            DiagramInstance.of(system, tri.polytope, tri.facet_rays, model=model)
        )


def _unit_model(system):
    """The system realized with unit ray vectors: each divisor's vector is its
    pairing column."""
    n = len(system.rays)
    return RealizedModel(
        rho=n,
        base_system=system,
        ray_vectors={
            rid: RVector.of([int(i == j) for j in range(n)])
            for i, rid in enumerate(system.ray_ids)
        },
        divisor_vectors={
            did: RVector.of([row[c] for row in system.pairing])
            for c, did in enumerate(system.divisors)
        },
    )


def test_validate_diagram_maps_each_face_through_the_perp_rays():
    """A polytope face maps to its facets' rays plus every perp ray, so the
    triangle with a perp ray P corresponds to the faces that all hold P, and
    not to the faces without it."""
    with open(f"{FIXTURES}/diagram_triangle.json", encoding="utf-8") as fh:
        bundle = json.load(fh)
    s = bundle["system"]
    s["rays"].append({"id": "P", "type": "I", "divisor": "DP"})
    for row in s["pairing"]:
        row.append("0")
    s["divisors"].append("DP")
    s["pairing"].append(["0"] * (len(s["divisors"]) - 1) + ["-1"])
    s["anticanonical"].append("1")
    bundle["perp_rays"] = ["P"]
    listed = s["faces"]
    s["faces"] = [f + ["P"] for f in listed]
    validate_diagram(diagram_from_json(bundle))
    s["faces"] = listed
    with pytest.raises(ValueError, match=r"maps to ray set \['P'.*\] which is not a listed face"):
        validate_diagram(diagram_from_json(bundle))


@pytest.mark.parametrize("d,rule", [(1, Theorem258Rule()), (2, Theorem12Rule(2))])
def test_diagram_verdicts_build_no_face_view(d, rule):
    """`validate_diagram` and `diagram_pipeline` answer on the face masks:
    afterwards the system's `faces` view is still unbuilt, also when a
    realized model asks `is_simple_in_face`."""
    bundles = [load_diagram(path) for path in sorted(glob.glob(f"{FIXTURES}/diagram_*.json"))]
    tri = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    bundles.append(DiagramInstance.of(tri.system, tri.polytope, tri.facet_rays,
                                      model=_unit_model(tri.system)))
    assert len(bundles) >= 4
    for inst in bundles:
        validate_diagram(inst)
        assert "faces" not in vars(inst.system)
        diagram_pipeline(inst, d, rule)
        assert "faces" not in vars(inst.system)


def _contact_bundle(p, seed, perp=0):
    """One type II ray per facet of `p`, and `perp` more that vanish on the
    whole cross-section, each on its own divisor, with a seeded 0/1 contact
    pattern.  The system's faces are the ray sets of the polytope's faces,
    each with the perp rays; the bundle is read back from JSON, as a file
    is."""
    rng = random.Random(seed)
    ids = [f"T{i + 1}" for i in range(len(p.facets))] + [f"P{j + 1}" for j in range(perp)]
    perps = frozenset(ids[len(p.facets):])
    divisors = [f"D{rid}" for rid in ids]
    pairing = [[-1 if a == b else rng.randint(0, 1) for b in ids] for a in ids]
    meets = {tuple(sorted((divisors[i], divisors[j])))
             for i, row in enumerate(pairing) for j, q in enumerate(row) if i != j and q > 0}
    system = RayDivisorSystem.of(
        rays=[(rid, "II", div) for rid, div in zip(ids, divisors)],
        divisors=divisors,
        pairing=pairing,
        meets=sorted(meets),
        faces={frozenset(ids[i] for i in p.facets_through(face)) | perps for face in p.faces()},
    )
    inst = DiagramInstance.of(system, p, ids[:len(p.facets)], perps)
    return diagram_from_json(diagram_to_json(inst))


@pytest.mark.parametrize("d,rule", [(1, Theorem258Rule()), (2, Theorem12Rule(2))])
def test_diagram_verdicts_decode_only_2_faces(monkeypatch, d, rule):
    """A polytope keeps its faces as masks: a diagram verdict decodes the
    vertex set of each of its cross-section's 2-faces, which Lemma 14 reads,
    once, and of no other face."""
    bundles = [load_diagram(path) for path in sorted(glob.glob(f"{FIXTURES}/diagram_*.json"))]
    assert len(bundles) >= 3
    bundles.append(_contact_bundle(cube(6), 6))
    decoded = []

    def recorded(ids, mask):
        decoded.append(mask)
        return mask_names(ids, mask)

    monkeypatch.setattr("moribound.polytope.mask_names", recorded)
    for inst in bundles:
        decoded.clear()
        diagram_pipeline(inst, d, rule)
        p = inst.polytope
        # Each 2-face once, and no other face.
        assert decoded and Counter(decoded) == Counter(p._by_dim[2]), p.fvector()


def test_validate_diagram_refuses_a_model_of_another_system():
    tri = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    s = tri.system
    validate_diagram(DiagramInstance.of(s, tri.polytope, tri.facet_rays, model=_unit_model(s)))
    # A model without faces realizes the same system.
    unfaced = _unit_model(s.with_faces(None))
    validate_diagram(DiagramInstance.of(s, tri.polytope, tri.facet_rays, model=unfaced))
    flipped = [list(row) for row in s.pairing]
    flipped[0][1] += 1
    others = {
        "rays": realized_b2(0)[0],  # rays C1 and C2
        "divisors": _unit_model(RayDivisorSystem.of(
            rays=s.rays, divisors=s.divisors[::-1], pairing=[row[::-1] for row in s.pairing],
        )),
        "pairing": _unit_model(RayDivisorSystem.of(
            rays=s.rays, divisors=s.divisors, pairing=flipped,
        )),
    }
    for part, model in others.items():
        inst = DiagramInstance.of(s, tri.polytope, tri.facet_rays, model=model)
        with pytest.raises(ValueError, match=f"differs from the bundle's in its {part}$"):
            validate_diagram(inst)


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


@pytest.mark.parametrize("rid", ["S3", "X"])
def test_validate_diagram_refuses_small_facet_and_perp_rays(small_ray_bundles, rid):
    inst = diagram_from_json(small_ray_bundles[rid])
    with pytest.raises(ValueError, match=f"^ray {rid} is small and cannot enter the graph$"):
        validate_diagram(inst)


def test_pipeline_refuses_other_rule_objects():
    class BandTable:  # a weight table that is neither of the paper's rules
        table = (((1, 2), Fraction(2, 3)),)

    inst = load_diagram(f"{FIXTURES}/diagram_triangle.json")
    with pytest.raises(TypeError, match="unknown weight rule BandTable"):
        diagram_pipeline(inst, 2, BandTable())


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
    for d in (0, -1):
        with pytest.raises(ValueError, match="band width d must be at least 1"):
            count_condition_b(s, ["T1", "T2"], [], d)


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
