"""Combinatorial polytopes: lattices, f-vectors, and face-average bounds."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound.core import binomial
from moribound.polytope import (
    CombinatorialPolytope,
    PolytopeError,
    a02_bound,
    average_faces,
    cube,
    cyclic_dual,
    lemma13_bound,
    polytope_from_json,
    polytope_to_json,
    product,
    simplex,
)
from moribound.generate import polytope_family


# Frozen f-vectors, hand-counted.
FVECTORS = {
    "simplex-3": (4, 6, 4, 1),
    "cube-3": (8, 12, 6, 1),
    "simplex-4": (5, 10, 10, 5, 1),
    "cube-4": (16, 32, 24, 8, 1),
}


def test_frozen_fvectors():
    assert simplex(3).fvector().counts == FVECTORS["simplex-3"]
    assert cube(3).fvector().counts == FVECTORS["cube-3"]
    assert simplex(4).fvector().counts == FVECTORS["simplex-4"]
    assert cube(4).fvector().counts == FVECTORS["cube-4"]


def test_cyclic_dual_small_cases():
    # The dual of a 3-dimensional cyclic polytope on 6 points: every
    # simplicial 3-polytope with 6 vertices has 2*6 - 4 = 8 facets, so the
    # dual has 8 vertices and 6 facets.
    p = cyclic_dual(3, 6)
    assert p.dim == 3
    assert len(p.facets) == 6
    assert len(p.vertices) == 8
    assert p.is_simple
    # One more point: 2*7 - 4 = 10 dual vertices.
    assert len(cyclic_dual(3, 7).vertices) == 10


def test_product_prism():
    prism = product(simplex(2), simplex(1))
    assert prism.dim == 3
    assert prism.fvector().counts == (6, 9, 5, 1)
    assert prism.is_simple


def test_simplex_faces_are_binomial():
    p = simplex(5)
    for k in range(6):
        assert len(p.faces(k)) == binomial(6, k + 1)


@pytest.mark.parametrize("name,p", polytope_family())
def test_family_euler_alternating_sum(name, p):
    fv = p.fvector().counts
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 1, name


@pytest.mark.parametrize("name,p", polytope_family())
def test_family_is_simple_and_vertex_incidence(name, p):
    assert p.is_simple, name
    for v in p.vertices:
        assert sum(1 for f in p.facets if v in f) == p.dim


def test_face_dim_by_chains():
    p = cube(3)
    for face in p.faces(1):
        assert p.face_dim(face) == 1
        assert len(face) == 2
    assert p.face_dim(frozenset(p.vertices)) == 3


def test_facets_through_vertex_count():
    p = simplex(4)
    for v in p.vertices:
        assert len(p.facets_through(frozenset([v]))) == 4


def test_average_faces_frozen_values():
    assert average_faces(cube(3), 0, 2) == 4
    assert average_faces(simplex(5), 0, 2) == 3
    # Average vertices per edge is always 2.
    assert average_faces(cube(4), 0, 1) == 2


def test_counting_identity_on_family():
    # Every vertex of a simple n-polytope lies on exactly C(n, 2) two-faces,
    # so summing face sizes over 2-faces double-counts to a0 * C(n, 2).
    for name, p in polytope_family():
        lhs = len(p.vertices) * binomial(p.dim, 2)
        rhs = sum(len(f) for f in p.faces(2))
        assert lhs == rhs, name


def test_a02_bound_closed_form():
    # 4n/(n-1) for odd n, 4(n-1)/(n-2) for even n, hand-evaluated.
    assert a02_bound(3) == 6
    assert a02_bound(4) == 6
    assert a02_bound(5) == 5
    assert a02_bound(6) == 5
    assert a02_bound(7) == Fraction(14, 3)


def test_lemma13_matches_a02_and_decreases():
    values = {n: lemma13_bound(n, 0, 2) for n in range(3, 30)}
    for n in range(3, 30):
        assert values[n] == a02_bound(n)
        assert values[n] > 4
    for n in range(5, 30):
        assert values[n] < values[n - 2]


def test_bound_is_strict_on_family():
    for name, p in polytope_family():
        assert average_faces(p, 0, 2) < a02_bound(p.dim), name


def test_construction_rejections():
    with pytest.raises(PolytopeError):
        CombinatorialPolytope.of(dim=0, vertices=["a"], facets=[["a"]])
    with pytest.raises(PolytopeError):
        CombinatorialPolytope.of(dim=2, vertices=["a", "a"], facets=[["a"]])
    with pytest.raises(PolytopeError):
        # facet mentioning an unknown vertex
        CombinatorialPolytope.of(dim=2, vertices=["a", "b"], facets=[["a", "c"]])


def square_pyramid() -> CombinatorialPolytope:
    return CombinatorialPolytope.of(
        dim=3,
        vertices=["A", "B", "C", "D", "T"],
        facets=[
            ["A", "B", "C", "D"],
            ["A", "B", "T"],
            ["B", "C", "T"],
            ["C", "D", "T"],
            ["D", "A", "T"],
        ],
    )


def test_non_simple_detected():
    assert not square_pyramid().is_simple


@pytest.mark.parametrize(
    "name,p", polytope_family() + [("square-pyramid", square_pyramid())]
)
def test_face_dims_match_all_pairs_chain_grading(name, p):
    # Reference grading: longest chain below each face, over all smaller faces.
    dims: dict = {}
    for face in sorted(p.faces(), key=len):
        below = [dims[g] for g in dims if g < face]
        dims[face] = 1 + max(below) if below else 0
    assert {face: p.face_dim(face) for face in p.faces()} == dims, name


@pytest.mark.parametrize(
    "name,p",
    polytope_family()
    + [
        ("square-pyramid", square_pyramid()),
        ("square-pyramid-x-segment", product(square_pyramid(), simplex(1))),
    ],
)
def test_faces_carry_their_facets(name, p):
    for face in p.faces():
        scan = tuple(i for i, f in enumerate(p.facets) if face <= f)
        assert p.facets_through(face) == scan, name
        assert p.face_on(reversed(scan)) == face, name
    faces = set(p.faces())
    pairs = (frozenset(pair) for pair in combinations(p.vertices, 2))
    non_faces = [frozenset(), frozenset({"no-such-vertex"})]
    non_faces += [q for q in pairs if q not in faces][:1]
    for q in non_faces:
        with pytest.raises(PolytopeError, match="is not a face"):
            p.facets_through(q)
    with pytest.raises(PolytopeError, match="no face lies in exactly facets"):
        p.face_on(range(len(p.facets)))


@pytest.mark.parametrize("p", [simplex(3), cube(3), cyclic_dual(3, 7)])
def test_json_round_trip(p):
    data = polytope_to_json(p)
    json.dumps(data)  # must be serializable as-is
    q = polytope_from_json(data)
    assert q.dim == p.dim
    assert tuple(q.vertices) == tuple(p.vertices)
    assert set(q.facets) == set(p.facets)
    assert q.fvector().counts == p.fvector().counts


@given(st.integers(1, 6))
@settings(max_examples=6, deadline=None)
def test_simplex_and_cube_dimensions(n):
    assert simplex(n).dim == n
    assert cube(n).dim == n
    assert len(simplex(n).vertices) == n + 1
    assert len(cube(n).vertices) == 2**n
