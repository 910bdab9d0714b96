"""Combinatorial polytopes described by vertex-facet incidence.

Everything here is coordinate-free: a polytope is its incidence data, the
face lattice is generated by intersecting facets, and the only numerics are
exact rational averages and the closed-form face-count bounds used by the
weighted-angle engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import binomial
from .raysystem import SystemFormatError

VertexId = object  # JSON scalar: str or int


class PolytopeError(ValueError):
    """Incidence data does not describe a consistent polytope."""


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension, alpha_0 ... alpha_n."""

    counts: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    @property
    def dim(self) -> int:
        return len(self.counts) - 1


def _sort_key(v: VertexId) -> tuple[str, str]:
    return (type(v).__name__, str(v))


@dataclass(frozen=True)
class CombinatorialPolytope:
    """An abstract polytope of dimension ``dim`` given by its facets.

    The face lattice (all nonempty intersections of facet subsets, plus the
    full vertex set as the unique top face) is computed eagerly, each face
    with its dimension and the indices of the facets containing it, which
    name it uniquely, and ordered once; instances are immutable afterwards.
    """

    dim: int
    vertices: tuple[VertexId, ...]
    facets: tuple[frozenset, ...]
    is_simple: bool = field(init=False, repr=False, compare=False)
    _dims: dict = field(init=False, repr=False, compare=False)
    # The faces of each dimension, by size, then by sorted vertex keys.
    _by_dim: tuple = field(init=False, repr=False, compare=False)
    _facets_of: dict = field(init=False, repr=False, compare=False)
    _face_on: dict = field(init=False, repr=False, compare=False)

    @staticmethod
    def of(dim: int, vertices: Sequence[VertexId], facets: Iterable[Iterable[VertexId]]) -> "CombinatorialPolytope":
        return CombinatorialPolytope(
            int(dim), tuple(vertices), tuple(frozenset(f) for f in facets)
        )

    def __post_init__(self) -> None:
        self._validate_incidence()
        self._build_lattice()
        self._check_consistency()

    # -- construction ------------------------------------------------------

    def _validate_incidence(self) -> None:
        if self.dim < 1:
            raise PolytopeError("dimension must be at least 1")
        if len(set(self.vertices)) != len(self.vertices):
            raise PolytopeError("duplicate vertex ids")
        vset = set(self.vertices)
        if not vset:
            raise PolytopeError("a polytope needs at least one vertex")
        if len(set(self.facets)) != len(self.facets):
            raise PolytopeError("duplicate facets")
        for f in self.facets:
            if not f <= vset:
                raise PolytopeError(f"facet {sorted(f, key=_sort_key)} uses unknown vertices")
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
        top = frozenset(self.vertices)
        faces = {top}
        frontier = [top]
        while frontier:
            nxt = []
            for face in frontier:
                for facet in self.facets:
                    cut = face & facet
                    if cut and cut not in faces:
                        faces.add(cut)
                        nxt.append(cut)
            frontier = nxt
        # Dimension = longest strictly increasing chain from a minimal face,
        # which is the grading of a genuine polytope lattice and stays
        # meaningful for non-simple inputs.  Every face below `face` lies in
        # one of its facet cuts (Kaibel & Pfetsch 2002), so the chain only
        # needs those.  The facets containing `face` are recorded on the way:
        # they name the face.
        dims: dict = {}
        facets_of: dict = {}
        for face in sorted(faces, key=len):
            through, below = [], []
            for i, facet in enumerate(self.facets):
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
                        f"minimal face {sorted(face, key=_sort_key)} is not a single vertex"
                    )
                dims[face] = 0
        rank = {v: i for i, v in enumerate(sorted(self.vertices, key=_sort_key))}
        by_dim: list = [[] for _ in range(max(dims.values()) + 1)]
        for face in sorted(dims, key=lambda f: (dims[f], len(f), sorted(map(rank.get, f)))):
            by_dim[dims[face]].append(face)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_by_dim", tuple(map(tuple, by_dim)))
        object.__setattr__(self, "_facets_of", facets_of)
        object.__setattr__(self, "_face_on", {ids: face for face, ids in facets_of.items()})

    def _check_consistency(self) -> None:
        top = frozenset(self.vertices)
        if self._dims[top] != self.dim:
            raise PolytopeError(
                f"face chains reach dimension {self._dims[top]}, declared dim is {self.dim}"
            )
        if len(self._by_dim) > self.dim + 1:
            raise PolytopeError("face dimension exceeds the polytope dimension")
        for k, layer in enumerate(self._by_dim):
            if not layer:
                raise PolytopeError(f"no faces of dimension {k}")
        for v in self.vertices:
            if frozenset((v,)) not in self._dims:
                raise PolytopeError(f"vertex {v!r} is not separated by the facets")
        if self.is_simple:
            # For simple polytopes the chain grading must agree with the
            # facet-count grading (codim k faces lie in exactly k facets).
            for face, d in self._dims.items():
                if d != self.dim - len(self._facets_of[face]):
                    raise PolytopeError(
                        "simple polytope has a face whose facet count and chain "
                        f"length disagree: {sorted(face, key=_sort_key)}"
                    )

    # -- queries -----------------------------------------------------------

    def faces(self, k: int | None = None) -> list[frozenset]:
        """All faces, or just the k-dimensional ones, by dimension, size, then
        sorted vertex keys."""
        if k is None:
            return [face for layer in self._by_dim for face in layer]
        return list(self._by_dim[k]) if 0 <= k <= self.dim else []

    def face_dim(self, face: frozenset) -> int:
        return self._lookup(self._dims, face)

    def facets_through(self, face: frozenset) -> tuple[int, ...]:
        """Indices of the facets containing a face, in facet order."""
        return self._lookup(self._facets_of, face)

    def face_on(self, facets: Iterable[int]) -> frozenset:
        """The face whose facet set is exactly `facets` (indices, any order)."""
        key = tuple(sorted(facets))
        try:
            return self._face_on[key]
        except KeyError:
            raise PolytopeError(f"no face lies in exactly facets {list(key)}") from None

    def _lookup(self, table: dict, face: frozenset):
        try:
            return table[face]
        except KeyError:
            raise PolytopeError(f"{sorted(face, key=_sort_key)} is not a face") from None

    def fvector(self) -> FVector:
        return FVector(tuple(map(len, self._by_dim)))


def average_faces(p: CombinatorialPolytope, i: int, k: int) -> Fraction:
    """Average number of i-faces per k-face, exactly."""
    if not 0 <= i < k <= p.dim:
        raise ValueError(f"need 0 <= i < k <= dim, got i={i}, k={k}, dim={p.dim}")
    kfaces = p.faces(k)
    if not kfaces:
        raise ValueError(f"no {k}-dimensional faces")
    ifaces = p.faces(i)
    total = sum(1 for big in kfaces for small in ifaces if small <= big)
    return Fraction(total, len(kfaces))


def lemma13_bound(n: int, i: int, k: int) -> Fraction:
    """Closed-form strict upper bound for the average i-face count per k-face
    of a simple n-polytope."""
    if not (isinstance(n, int) and isinstance(i, int) and isinstance(k, int)):
        raise ValueError("arguments must be integers")
    if i < 0 or not i < k:
        raise ValueError(f"need 0 <= i < k, got i={i}, k={k}")
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
    return {
        "dim": p.dim,
        "vertices": list(p.vertices),
        "facets": [sorted(f, key=_sort_key) for f in p.facets],
    }


def polytope_from_json(data: dict) -> CombinatorialPolytope:
    try:
        dim = data["dim"]
        vertices = data["vertices"]
        facets = data["facets"]
    except (KeyError, TypeError) as exc:
        raise SystemFormatError(f"missing polytope field: {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise SystemFormatError("dim must be an integer")
    try:
        return CombinatorialPolytope.of(dim, vertices, facets)
    except TypeError as exc:  # non-scalar vertex ids, non-list facets
        raise SystemFormatError(f"malformed polytope: {exc}") from exc
