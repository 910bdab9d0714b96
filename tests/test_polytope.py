"""Combinatorial polytopes: lattices, f-vectors, and face-average bounds."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound.core import binomial, vertex_key
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
    # In dimension 1 only two points give a polytope, the segment.
    assert cyclic_dual(1, 2).fvector().counts == (2, 1)
    for m in (3, 4, 7):
        with pytest.raises(ValueError, match=f"segment with 2 facets, got m={m}"):
            cyclic_dual(1, m)


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_averages_need_i_below_k(k):
    with pytest.raises(ValueError, match="need 0 <= i < k"):
        average_faces(cube(3), k, k)
    with pytest.raises(ValueError, match="need 0 <= i < k"):
        lemma13_bound(5, k, k)


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
    with pytest.raises(PolytopeError, match="^facet 2 is empty$"):
        CombinatorialPolytope.of(dim=1, vertices=["a", "b"], facets=[["a"], ["b"], []])
    with pytest.raises(PolytopeError, match="^facet 0 is empty$"):
        CombinatorialPolytope.of(dim=1, vertices=["a", "b"], facets=[[], ["a"], ["b"], []])


@pytest.mark.parametrize("alias", [True, 1.0])
@pytest.mark.parametrize("where", ["vertices", "facets", "both"])
def test_vertex_ids_are_strings_or_integers(alias, where):
    """`alias == 1` and they hash alike, so a tetrahedron with `alias` in
    place of the id 1 would equal the one with 1 while `vertex_key` orders
    its vertices, and so lays out its masks, differently; the rows that
    `enumerate_angles` keeps by value would then be handed across."""
    vertices, facets = [0, 1, 2, 3], [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    CombinatorialPolytope.of(3, vertices, facets)
    if where != "facets":
        vertices = [alias if v == 1 else v for v in vertices]
    if where != "vertices":
        facets = [[alias if v == 1 else v for v in f] for f in facets]
    with pytest.raises(PolytopeError, match=f"^vertex id {alias!r} is not a string or an integer$"):
        CombinatorialPolytope.of(3, vertices, facets)


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
def test_average_faces_matches_containment_scan(name, p):
    for k in range(1, p.dim + 1):
        kfaces = p.faces(k)
        for i in range(k):
            scan = sum(1 for big in kfaces for small in p.faces(i) if small <= big)
            assert average_faces(p, i, k) == Fraction(scan, len(kfaces)), (name, i, k)


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
    faces = set(p.faces())
    pairs = (frozenset(pair) for pair in combinations(p.vertices, 2))
    non_faces = [frozenset(), frozenset({"no-such-vertex"})]
    non_faces += [q for q in pairs if q not in faces][:1]
    for q in non_faces:
        with pytest.raises(PolytopeError, match="is not a face"):
            p.facets_through(q)
    for q in non_faces[1], frozenset({p.vertices[0], "no-such-vertex"}):
        for query in p.face_dim, p.facets_through:
            with pytest.raises(PolytopeError, match=r"^\[.*'no-such-vertex'.*\] is not a face$"):
                query(q)


def mixed_id_square() -> CombinatorialPolytope:
    # Vertex keys are (type name, str): the int 9 sorts before the str "10".
    return CombinatorialPolytope.of(
        dim=2,
        vertices=["B", 9, 1, "10"],
        facets=[[9, "10"], ["10", "B"], ["B", 1], [1, 9]],
    )


@pytest.mark.parametrize(
    "name,p",
    polytope_family()
    + [("square-pyramid", square_pyramid()), ("mixed-id-square", mixed_id_square())],
)
def test_faces_ordered_by_dimension_size_and_vertex_keys(name, p):
    lattice = {frozenset(p.vertices)}
    frontier = list(lattice)
    while frontier:
        cuts = {face & f for face in frontier for f in p.facets} - lattice - {frozenset()}
        lattice |= cuts
        frontier = list(cuts)
    ordered = sorted(lattice, key=lambda f: (
        p.face_dim(f), len(f), sorted((type(v).__name__, str(v)) for v in f)
    ))
    assert p.faces() == ordered, name
    for k in range(-1, p.dim + 2):
        assert p.faces(k) == [f for f in ordered if p.face_dim(f) == k], name
    counts = [0] * (p.dim + 1)
    for f in lattice:
        counts[p.face_dim(f)] += 1
    assert p.fvector().counts == tuple(counts), name
    # Chain dimension grows strictly under inclusion, so no face outranks the
    # top one, whose dimension construction pins to `dim`.
    assert max(map(p.face_dim, lattice)) == p.dim, name


def frozenset_lattice(dim, vertices, facets):
    """Reference: an incidence checked, and its lattice walked, graded and
    checked, on frozensets of vertex ids.  Returns each face with its
    dimension and the facets through it, by dimension, size, then sorted
    vertex keys, or raises the PolytopeError that construction raises.
    Equal-size faces are graded in sorted vertex-key order, so an error that
    names one of them names the same face on every hash seed."""
    top = frozenset(vertices)
    if dim < 1:
        raise PolytopeError("dimension must be at least 1")
    if len(top) != len(vertices):
        raise PolytopeError("duplicate vertex ids")
    if not top:
        raise PolytopeError("a polytope needs at least one vertex")
    if frozenset() in facets:
        raise PolytopeError(f"facet {facets.index(frozenset())} is empty")
    if len(set(facets)) != len(facets):
        raise PolytopeError("duplicate facets")
    for f in facets:
        if not f <= top:
            raise PolytopeError(f"facet {sorted(f, key=vertex_key)} uses unknown vertices")
        if f == top:
            raise PolytopeError("a facet may not contain every vertex")
    incident = {v: sum(v in f for f in facets) for v in vertices}
    for v in vertices:
        if incident[v] < dim:
            raise PolytopeError(f"vertex {v!r} lies in {incident[v]} facets, fewer than dim {dim}")
    faces = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for face in frontier:
            for facet in facets:
                cut = face & facet
                if cut and cut not in faces:
                    faces.add(cut)
                    nxt.append(cut)
        frontier = nxt
    dims: dict = {}
    facets_of: dict = {}
    rank = {v: i for i, v in enumerate(sorted(vertices, key=vertex_key))}
    for face in sorted(faces, key=lambda f: (len(f), sorted(map(rank.get, f)))):
        through, below = [], []
        for i, facet in enumerate(facets):
            if face <= facet:
                through.append(i)
            elif cut := face & facet:
                below.append(dims[cut])
        facets_of[face] = tuple(through)
        if below:
            dims[face] = 1 + max(below)
        else:
            if len(face) != 1:
                raise PolytopeError(
                    f"minimal face {sorted(face, key=vertex_key)} is not a single vertex"
                )
            dims[face] = 0
    if dims[top] != dim:
        raise PolytopeError(f"face chains reach dimension {dims[top]}, declared dim is {dim}")
    for v in vertices:
        if frozenset((v,)) not in dims:
            raise PolytopeError(f"vertex {v!r} is not separated by the facets")
    if all(incident[v] == dim for v in vertices):
        for face, d in dims.items():
            if d != dim - len(facets_of[face]):
                raise PolytopeError(
                    "simple polytope has a face whose facet count and chain "
                    f"length disagree: {sorted(face, key=vertex_key)}"
                )
    for f in facets:
        if dims[f] != dim - 1:
            raise PolytopeError(
                f"facet {sorted(f, key=vertex_key)} has dimension {dims[f]}, not {dim - 1}"
            )
    order = sorted(dims, key=lambda f: (dims[f], len(f), sorted(map(rank.get, f))))
    return [(face, dims[face], facets_of[face]) for face in order]


# Ids whose sorted-key order differs from their numeric and insertion order,
# with the int 3 and the str "3" both present in the mixed pool.
ID_POOLS = {
    "int": [10, 3, 7, 0, 12, 5, 1, 9, 4, 2],
    "str": ["v10", "b", "v2", "A", "a", "v1", "c", "B", "v9", "x"],
    "mixed": ["3", 3, "b", 10, "10", "a", 2, "B", 0, "0"],
}
BASES = [
    simplex(2), simplex(3), cube(2), cube(3), cyclic_dual(3, 6),
    product(simplex(2), simplex(1)), square_pyramid(),
]


def _random_incidences(count):
    """Seeded (dim, vertices, facets) inputs over int, str and mixed ids:
    arbitrary facet families, and relabelled polytopes, as they are or with
    one incidence flipped, a facet dropped or the dimension shifted."""
    for seed in range(count):
        rng = random.Random(seed)
        pool = ID_POOLS[("int", "str", "mixed")[seed % 3]]
        if seed % 2:
            ids = rng.sample(pool, rng.randint(2, 7))
            dim = rng.randint(1, 3)
            facets = [rng.sample(ids, rng.randint(1, len(ids) - 1)) for _ in range(8)]
            for v in ids:  # most vertices get `dim` facets, past the first check
                for f in rng.sample(facets, dim):
                    if v not in f and len(f) < len(ids) - 1:
                        f.append(v)
            facets = [list(f) for f in dict.fromkeys(map(frozenset, facets))]
        else:
            base = rng.choice(BASES)
            label = dict(zip(base.vertices, rng.sample(pool, len(base.vertices))))
            ids = list(label.values())
            dim = base.dim
            facets = [[label[v] for v in f] for f in base.facets]
            kind = seed // 2 % 4
            if kind == 1:
                f = rng.choice(facets)
                v = rng.choice(ids)
                f.remove(v) if v in f else f.append(v)
            elif kind == 2:
                facets.pop(rng.randrange(len(facets)))
            elif kind == 3:
                dim += rng.choice((-1, 1))
        rng.shuffle(ids)
        rng.shuffle(facets)
        for f in facets:
            rng.shuffle(f)
        yield dim, ids, facets


# Rejections the seeded inputs rarely reach: a simple incidence whose face
# {1, 3} lies in two facets but has chain dimension 0, a vertex 1 that no
# facet intersection isolates, and two minimal edges listed against key
# order, of which the error must name {0, 1}.
RARE_INCIDENCES = [
    (3, [0, 1, 2, 3], [[0, 1, 2], [0, 2, 3], [0, 3], [1], [1, 3], [2]]),
    (3, [0, 1, 2, 3], [[0, 1], [0, 1, 2], [0, 1, 3], [0, 2, 3], [2, 3]]),
    (1, [3, 2, 1, 0], [[2, 3], [0, 1]]),
]


def _big_incidences():
    """Cubes, cyclic duals and products, up to thousands of faces."""
    for p in [
        *map(cube, range(3, 9)), cyclic_dual(5, 10), cyclic_dual(6, 12), cyclic_dual(7, 14),
        product(simplex(3), cube(3)), product(cube(3), cube(3)), product(simplex(4), simplex(3)),
    ]:
        yield p.dim, p.vertices, p.facets


def test_mask_lattice_matches_frozenset_lattice():
    outcomes = {}
    cases = [*_random_incidences(300), *RARE_INCIDENCES, *_big_incidences()]
    for dim, ids, facets in cases:
        args = (dim, tuple(ids), tuple(frozenset(f) for f in facets))
        try:
            want = frozenset_lattice(*args)
        except PolytopeError as exc:
            with pytest.raises(PolytopeError) as got:
                CombinatorialPolytope(*args)
            assert str(got.value) == str(exc), args
            key = "facet-dimension" if "has dimension" in str(exc) else str(exc).split()[0]
        else:
            p = CombinatorialPolytope(*args)
            assert p.faces() == [face for face, _, _ in want], args
            counts = [0] * (dim + 1)
            for face, d, through in want:
                counts[d] += 1
                assert p.face_dim(face) == d, args
                assert p.facets_through(face) == through, args
            assert p.fvector().counts == tuple(counts), args
            for k in range(-1, dim + 2):
                assert p.faces(k) == [face for face, d, _ in want if d == k], args
            key = "valid"
        outcomes[key] = outcomes.get(key, 0) + 1
    # Valid inputs and the lattice-level rejections are all exercised.
    for start in ("valid", "minimal", "face", "simple", "facet-dimension"):
        assert outcomes.get(start, 0) >= 1, outcomes


def _simple_incidences(count):
    """Seeded simple (dim, vertices, facets) inputs over int, str and mixed
    ids, each vertex in exactly dim facets: at random, or a simple polytope
    relabelled."""
    bases = [b for b in BASES if b.is_simple]
    for seed in range(count):
        rng = random.Random(seed)
        pool = ID_POOLS[("int", "str", "mixed")[seed % 3]]
        if seed % 4:
            dim = rng.randint(2, 4)
            ids = rng.sample(pool, rng.randint(dim + 1, 10))
            m = rng.randint(dim + 1, 7)
            at = {v: rng.sample(range(m), dim) for v in ids}
            facets = [f for f in ([v for v in ids if i in at[v]] for i in range(m)) if f]
        else:
            base = rng.choice(bases)
            label = dict(zip(base.vertices, rng.sample(pool, len(base.vertices))))
            ids, dim = list(label.values()), base.dim
            facets = [[label[v] for v in f] for f in base.facets]
        rng.shuffle(ids)
        rng.shuffle(facets)
        yield dim, ids, facets


# A simple incidence the chain build accepts, though facets 4 and 5 meet
# only in vertex 8, the face of facets 2, 4 and 5: two facet subsets cut the
# same face, so the facet-subset walk must decline it.
REPEATED_CUT = (3, range(9), [[1, 2, 4, 6, 7], [0, 3, 5, 6, 7], [1, 2, 3, 5, 8],
                              [0, 4, 6], [0, 2, 3, 4, 8], [1, 5, 7, 8]])


def test_facet_subset_lattice_matches_frozenset_lattice(monkeypatch):
    """On simple incidences the facet-subset walk builds the lattice, or
    declines and leaves it to the chain build, which builds it or raises.
    Either way each face, dimension and facet tuple, and each error text,
    is the reference's, and an accepted table is the chain build's."""
    chain_calls, chain = [], CombinatorialPolytope._chain_lattice

    def counted(self, *args):
        chain_calls.append(self.dim)
        return chain(self, *args)

    monkeypatch.setattr(CombinatorialPolytope, "_chain_lattice", counted)
    outcomes = {}
    for dim, ids, facets in [*_simple_incidences(1200), REPEATED_CUT]:
        args = (dim, tuple(ids), tuple(frozenset(f) for f in facets))
        chain_calls.clear()
        try:
            want = frozenset_lattice(*args)
        except PolytopeError as exc:
            with pytest.raises(PolytopeError) as got:
                CombinatorialPolytope(*args)
            assert str(got.value) == str(exc), args
            key = "rejected"
        else:
            p = CombinatorialPolytope(*args)
            assert p.is_simple, args
            got = [(face, p.face_dim(face), p.facets_through(face)) for face in p.faces()]
            assert got == want, args
            key = "chain" if chain_calls else "subsets"
            table = chain(p, p._ids, p._bit, p._facet_masks)
            assert table == (p._lattice, p._by_dim), args
        outcomes[key] = outcomes.get(key, 0) + 1
    assert key == "chain", "the repeated cut must fall back"
    for key in ("subsets", "chain", "rejected"):
        assert outcomes.get(key, 0) >= 1, outcomes


def test_simple_families_take_the_facet_subset_walk(monkeypatch):
    """The standing family, cubes, cyclic duals and the benchmark's products
    build without the chain build, so a walk that always declines fails
    here though every lattice would still come out right."""
    def refused(self, *args):
        raise AssertionError(f"chain build on a simple {self.dim}-polytope")

    monkeypatch.setattr(CombinatorialPolytope, "_chain_lattice", refused)
    built = [
        *(p for _, p in polytope_family()), *map(cube, range(3, 9)),
        cyclic_dual(4, 8), cyclic_dual(5, 10), cyclic_dual(7, 14),
        product(simplex(3), cube(3)), product(cube(3), cube(3)), product(simplex(4), simplex(3)),
        product(simplex(2), simplex(2)), product(cube(3), simplex(2)),
    ]
    assert all(p.is_simple for p in built)


# A facet inside another facet: the incidence is otherwise consistent, and
# simple in the first case, but the nested facet is not a (dim - 1)-face.
NESTED_FACETS = [
    ((3, range(6), [[1, 3], [0, 2, 5], [0, 1, 3, 4, 5], [2, 3, 4, 5], [0, 1, 2, 4]]),
     "facet [1, 3] has dimension 1, not 2"),
    ((3, cube(3).vertices, [*cube(3).facets, ["000", "001"]]),
     "facet ['000', '001'] has dimension 1, not 2"),
]


@pytest.mark.parametrize("args,message", NESTED_FACETS, ids=["simple", "cube-3-with-an-edge"])
def test_a_facet_must_be_a_face_of_codimension_one(args, message):
    with pytest.raises(PolytopeError) as got:
        CombinatorialPolytope.of(*args)
    assert str(got.value) == message


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


def test_every_dimension_has_faces():
    # The top face has dimension `dim` and every face of dimension d > 0 has
    # a facet cut of dimension d - 1, so the grading leaves no layer empty.
    for name, p in polytope_family():
        assert len(p.fvector().counts) == p.dim + 1, name
        assert all(p.faces(k) for k in range(p.dim + 1)), name
        assert p.faces(p.dim + 1) == [], name
        assert p.fvector().counts[p.dim] == 1, name


def test_lemma13_bound_needs_k_of_two():
    # At k = 1 the closed form is 2 for every n: each edge has exactly two
    # vertices, so the average is attained, not strictly bounded.
    for name, p in polytope_family():
        assert average_faces(p, 0, 1) == 2, name
    for n in range(1, 12):
        with pytest.raises(ValueError, match="need k >= 2"):
            lemma13_bound(n, 0, 1)
    assert lemma13_bound(3, 1, 2) == 6  # edges per 2-face, strictly below 6
