"""Combinatorial polytopes described by vertex-facet incidence.

Everything here is coordinate-free: a polytope is its incidence data, the
face lattice is generated by intersecting facets, and the only numerics are
exact rational averages and the closed-form face-count bounds used by the
weighted-angle engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Sequence

from .core import (KINDS, binomial, bit_order, face_order, mask_names, to_json,
                   vertex_key, walk)

VertexId = object  # JSON scalar: str or int


class PolytopeError(ValueError):
    """Incidence data does not describe a consistent polytope."""


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension, alpha_0 ... alpha_n."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class CombinatorialPolytope:
    """An abstract polytope of dimension ``dim`` given by its facets.

    The face lattice (all nonempty intersections of facet subsets, plus the
    full vertex set as the unique top face) is computed eagerly on vertex
    masks, each face with its dimension and the indices of the facets
    containing it, which name it uniquely, and ordered once.  A simple
    incidence is walked once over facet subsets and graded by facet count;
    when that walk cannot vouch for the result, and for every other
    incidence, the lattice is closed from the top face and graded by
    longest chains.  Both give the same lattice wherever both apply.  Every
    facet must be a (dim - 1)-face.  Only the mask table is kept: `faces`
    decodes the vertex sets of the dimensions asked on each call.
    """

    dim: int
    vertices: tuple[VertexId, ...]
    facets: tuple[frozenset, ...]
    is_simple: bool = field(init=False, repr=False, compare=False)
    # The vertices by bit position, each one's bit, each facet's mask; face
    # mask -> (facets through it, dimension); each dimension's face masks.
    _ids: tuple = field(init=False, repr=False, compare=False)
    _bit: dict = field(init=False, repr=False, compare=False)
    _facet_masks: tuple = field(init=False, repr=False, compare=False)
    _lattice: dict = field(init=False, repr=False, compare=False)
    _by_dim: tuple = field(init=False, repr=False, compare=False)

    @staticmethod
    def of(dim: int, vertices: Sequence[VertexId], facets: Iterable[Iterable[VertexId]]) -> "CombinatorialPolytope":
        return CombinatorialPolytope(
            int(dim), tuple(vertices), tuple(frozenset(f) for f in facets)
        )

    def __post_init__(self) -> None:
        self._validate_incidence()
        self._build_lattice()

    # -- construction ------------------------------------------------------

    def _validate_incidence(self) -> None:
        if self.dim < 1:
            raise PolytopeError("dimension must be at least 1")
        for v in chain(self.vertices, *self.facets):  # `core.VERTEX`; True == 1 == 1.0
            if type(v) not in (str, int):
                raise PolytopeError(f"vertex id {v!r} is not a string or an integer")
        if len(set(self.vertices)) != len(self.vertices):
            raise PolytopeError("duplicate vertex ids")
        vset = set(self.vertices)
        if not vset:
            raise PolytopeError("a polytope needs at least one vertex")
        for k, f in enumerate(self.facets):
            if not f:
                raise PolytopeError(f"facet {k} is empty")
        if len(set(self.facets)) != len(self.facets):
            raise PolytopeError("duplicate facets")
        for f in self.facets:
            if not f <= vset:
                raise PolytopeError(f"facet {sorted(f, key=vertex_key)} uses unknown vertices")
            if f == vset:
                raise PolytopeError("a facet may not contain every vertex")
        simple = True
        for v in self.vertices:
            incident = sum(1 for f in self.facets if v in f)
            if incident < self.dim:
                raise PolytopeError(
                    f"vertex {v!r} lies in {incident} facets, fewer than dim {self.dim}"
                )
            simple = simple and incident == self.dim
        object.__setattr__(self, "is_simple", simple)

    def _build_lattice(self) -> None:
        ids, bit = bit_order(self.vertices, vertex_key)
        masks = tuple(sum(map(bit.__getitem__, facet)) for facet in self.facets)
        # The facet-subset walk costs one AND per subset tried; the chain
        # build, two passes over every (face, facet) pair.
        lattice, by_dim = (self.is_simple and self._subset_lattice(masks, len(ids))
                           or self._chain_lattice(ids, bit, masks))
        for name, value in (("_ids", ids), ("_bit", bit), ("_facet_masks", masks),
                            ("_lattice", lattice), ("_by_dim", by_dim)):
            object.__setattr__(self, name, value)

    def _subset_lattice(self, masks: tuple, n: int) -> tuple | None:
        """The lattice of a simple incidence graded by facet count, or None
        when the walk cannot vouch for it.

        Each facet subset S is reached once, from S without its highest
        index, as the AND of its facets' masks, and kept while that is
        nonzero, so every nonempty intersection of facets is reached.  On a
        simple polytope a face's dimension is dim - |S| (Ziegler, *Lectures
        on Polytopes*, ch. 2).  The walk vouches for that when no two
        subsets cut the same face and the dim-subsets number the vertices:
        then S is exactly the facets through its face, the chain grading
        agrees face by face, the minimal faces are the vertices and every
        facet has dimension dim - 1, so `_chain_lattice` builds the same
        table."""
        pairs = tuple(enumerate(masks))
        tails = [pairs[j:] for j in range(len(pairs) + 1)]
        top = (1 << n) - 1
        lattice = {top: ((), self.dim)}
        by_dim = [()] * self.dim + [(top,)]
        level, reached = [(top, (), pairs)], 1
        for d in range(self.dim - 1, -1, -1):
            nxt = []
            for face, through, rest in level:
                for i, fm in rest:
                    cut = face & fm
                    if cut:
                        s = (*through, i)
                        lattice[cut] = (s, d)
                        nxt.append((cut, s, tails[i + 1]))
            level, reached = nxt, reached + len(nxt)
            by_dim[d] = tuple(face_order([cut for cut, _, _ in nxt]))
        # On a simple incidence no dim + 1 facets share a vertex, so the
        # walk ends at the dim-subsets.
        if len(lattice) != reached or len(level) != n:
            return None
        return lattice, tuple(by_dim)

    def _chain_lattice(self, ids: tuple, bit: dict, masks: tuple) -> tuple:
        """The lattice closed from the top face by facet cuts and graded by
        longest chains, for any incidence, or the PolytopeError that names
        what is wrong with it."""
        top = (1 << len(ids)) - 1
        found, frontier = {top}, [top]
        while frontier:
            nxt = []
            for face in frontier:
                for fm in masks:
                    cut = face & fm
                    if cut and cut not in found:
                        found.add(cut)
                        nxt.append(cut)
            frontier = nxt
        # Dimension = longest strictly increasing chain from a minimal face,
        # which is the grading of a genuine polytope lattice and stays
        # meaningful for non-simple inputs.  Every face below `face` lies in
        # one of its facet cuts (Kaibel & Pfetsch 2002), so the chain only
        # needs those.  The facets containing `face` are recorded on the way:
        # they name the face.
        lattice: dict = {}
        for face in face_order(found):
            through, below = [], []
            for i, fm in enumerate(masks):
                cut = face & fm
                if cut == face:
                    through.append(i)
                elif cut:
                    below.append(lattice[cut][1])
            if not below and face.bit_count() != 1:
                raise PolytopeError(f"minimal face {mask_names(ids, face)} is not a single vertex")
            lattice[face] = (tuple(through), 1 + max(below) if below else 0)
        if lattice[top][1] != self.dim:
            raise PolytopeError(
                f"face chains reach dimension {lattice[top][1]}, declared dim is {self.dim}"
            )
        # So no dimension lacks faces: a face of dimension d > 0 has a facet
        # cut of dimension d - 1, down from the top face to the vertices.
        for v in self.vertices:
            if bit[v] not in lattice:
                raise PolytopeError(f"vertex {v!r} is not separated by the facets")
        by_dim: list = [[] for _ in range(self.dim + 1)]
        for face, (through, d) in lattice.items():
            # For simple polytopes the chain grading must agree with the
            # facet-count grading (codim k faces lie in exactly k facets).
            if self.is_simple and d != self.dim - len(through):
                raise PolytopeError(
                    "simple polytope has a face whose facet count and chain "
                    f"length disagree: {mask_names(ids, face)}"
                )
            by_dim[d].append(face)
        for fm in masks:
            if lattice[fm][1] != self.dim - 1:
                raise PolytopeError(f"facet {mask_names(ids, fm)} has dimension "
                                    f"{lattice[fm][1]}, not {self.dim - 1}")
        return lattice, tuple(map(tuple, by_dim))

    # -- queries -----------------------------------------------------------

    def faces(self, k: int | None = None) -> list[frozenset]:
        """All faces, or just the k-dimensional ones, by dimension, size, then
        sorted vertex keys, decoded from their masks on each call."""
        layers = self._by_dim if k is None else self._by_dim[k : k + 1] if k >= 0 else ()
        ids = self._ids
        return [frozenset(mask_names(ids, m)) for m in chain.from_iterable(layers)]

    def face_dim(self, face: frozenset) -> int:
        return self._entry(face)[1]

    def facets_through(self, face: frozenset) -> tuple[int, ...]:
        """Indices of the facets containing a face, in facet order."""
        return self._entry(face)[0]

    def _entry(self, face: frozenset) -> tuple:
        try:
            return self._lattice[sum(map(self._bit.__getitem__, frozenset(face)))]
        except KeyError:
            raise PolytopeError(f"{sorted(face, key=vertex_key)} is not a face") from None

    def fvector(self) -> FVector:
        return FVector(tuple(map(len, self._by_dim)))


def average_faces(p: CombinatorialPolytope, i: int, k: int) -> Fraction:
    """Average number of i-faces per k-face, exactly."""
    if not 0 <= i < k <= p.dim:
        raise ValueError(f"need 0 <= i < k <= dim, got i={i}, k={k}, dim={p.dim}")
    kfaces = p._by_dim[k]  # on face masks; no dimension lacks faces
    if i == 0:  # every vertex of a k-face is one of its 0-faces
        total = sum(map(int.bit_count, kfaces))
    else:
        total = sum(1 for big in kfaces for small in p._by_dim[i] if not small & ~big)
    return Fraction(total, len(kfaces))


def lemma13_bound(n: int, i: int, k: int) -> Fraction:
    """Closed-form strict upper bound for the average i-face count per k-face
    of a simple n-polytope, for k >= 2.  At k = 1 the formula gives 2, the
    exact vertex count of every edge, so no strict bound exists there."""
    if not (isinstance(n, int) and isinstance(i, int) and isinstance(k, int)):
        raise ValueError("arguments must be integers")
    if i < 0 or not i < k:
        raise ValueError(f"need 0 <= i < k, got i={i}, k={k}")
    if k < 2:
        raise ValueError(
            "need k >= 2: at k = 1 the formula gives 2, which every edge "
            "attains exactly, not a strict bound"
        )
    if n < 2 * k - 1:
        raise ValueError(f"need n >= 2k-1, got n={n}, k={k}")
    half = n // 2
    numer = binomial(n - i, n - k) * (binomial(half, i) + binomial(n - half, i))
    denom = binomial(half, k) + binomial(n - half, k)
    return Fraction(numer, denom)


def a02_bound(n: int) -> Fraction:
    """Specialized strict bound for the average vertex count of 2-faces."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"need an integer n >= 3, got {n!r}")
    if n % 2 == 0:
        return Fraction(4 * (n - 1), n - 2)
    return Fraction(4 * n, n - 1)


# ---------------------------------------------------------------------------
# Deterministic constructors (the generator family).
# ---------------------------------------------------------------------------


def simplex(n: int) -> CombinatorialPolytope:
    """The n-simplex: n+1 vertices, facets are the n-element subsets."""
    if n < 1:
        raise ValueError("simplex dimension must be >= 1")
    verts = list(range(n + 1))
    facets = [frozenset(verts) - {v} for v in verts]
    return CombinatorialPolytope.of(n, verts, facets)


def cube(n: int) -> CombinatorialPolytope:
    """The n-cube with bitstring vertex ids and 2n coordinate facets."""
    if n < 1:
        raise ValueError("cube dimension must be >= 1")
    verts = [format(x, f"0{n}b") for x in range(2**n)]
    facets = []
    for axis in range(n):
        for bit in "01":
            facets.append(frozenset(v for v in verts if v[axis] == bit))
    return CombinatorialPolytope.of(n, verts, facets)


def _gale_even(subset: frozenset, m: int) -> bool:
    outside = [x for x in range(m) if x not in subset]
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            i, j = outside[a], outside[b]
            if sum(1 for s in subset if i < s < j) % 2 == 1:
                return False
    return True


def cyclic_dual(d: int, m: int) -> CombinatorialPolytope:
    """The simple d-polytope dual to the cyclic polytope on m points.

    Vertices are the cyclic polytope's facets (selected by the evenness rule
    on the point line), and the i-th facet collects the vertices whose subset
    contains point i; hence the dual has exactly m facets.
    """
    if d < 1 or m < d + 1:
        raise ValueError(f"need m >= d+1 points, got d={d}, m={m}")
    if d == 1 and m != 2:
        raise ValueError(f"a 1-polytope is a segment with 2 facets, got m={m}")
    subsets = sorted(
        (
            s
            for s in map(frozenset, combinations(range(m), d))
            if _gale_even(s, m)
        ),
        key=sorted,
    )
    verts = ["".join(str(x) for x in sorted(s)) if m <= 10 else repr(sorted(s)) for s in subsets]
    facets = [
        frozenset(verts[idx] for idx, s in enumerate(subsets) if point in s)
        for point in range(m)
    ]
    return CombinatorialPolytope.of(d, verts, facets)


def product(p: CombinatorialPolytope, q: CombinatorialPolytope) -> CombinatorialPolytope:
    """Direct product; faces are products of faces, so dims and f-vectors add."""
    verts = [f"{a}|{b}" for a in p.vertices for b in q.vertices]
    facets = []
    for f in p.facets:
        facets.append(frozenset(f"{a}|{b}" for a in f for b in q.vertices))
    for g in q.facets:
        facets.append(frozenset(f"{a}|{b}" for a in p.vertices for b in g))
    return CombinatorialPolytope.of(p.dim + q.dim, verts, facets)


# ---------------------------------------------------------------------------
# JSON wire format: { "dim": n, "vertices": [ids], "facets": [[ids]] }.
# ---------------------------------------------------------------------------


def polytope_to_json(p: CombinatorialPolytope) -> dict:
    return to_json(p, "polytope")


def polytope_from_json(data: dict) -> CombinatorialPolytope:
    return CombinatorialPolytope.of(**walk(data, KINDS["polytope"]))
