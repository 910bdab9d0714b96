"""Abstract ray-divisor systems.

A system records finitely many rays (each either carrying a divisor or
"small"), the rational pairing matrix between rays and divisors, an explicit
symmetric contact relation between divisors, and optionally a face structure
and an anticanonical column.  The validator enforces the model invariants;
everything downstream (graphs, classification, bound engines) assumes a
validated system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .core import INF, format_rational, rational


class RayType(Enum):
    I = "I"
    II = "II"
    SMALL = "small"


@dataclass(frozen=True)
class Ray:
    id: str
    type: RayType
    divisor: Optional[str] = None

    @property
    def is_divisorial(self) -> bool:
        return self.type in (RayType.I, RayType.II)

    @staticmethod
    def of(spec: object) -> "Ray":
        """Coerce a Ray, an (id, type) pair, or an (id, type, divisor)
        triple; the type may be given as a string."""
        if isinstance(spec, Ray):
            return spec
        rid, rtype, *rest = spec  # type: ignore[misc]
        if not isinstance(rtype, RayType):
            rtype = RayType(rtype)
        divisor = rest[0] if rest else None
        return Ray(rid, rtype, divisor)


@dataclass(frozen=True)
class Violation:
    """One failed model invariant, named by what it forbids."""

    code: str
    subjects: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        subj = ", ".join(self.subjects)
        return f"{self.code} [{subj}]: {self.detail}"


class SystemFormatError(ValueError):
    """The instance data is structurally unusable (not merely invalid)."""


@dataclass(frozen=True)
class RayDivisorSystem:
    rays: tuple[Ray, ...]
    divisors: tuple[str, ...]
    pairing: tuple[tuple[Fraction, ...], ...]
    meets: frozenset  # frozenset of 2-element frozensets of divisor ids
    faces: Optional[tuple[frozenset, ...]] = None  # deduplicated, by (size, sorted ids)
    anticanonical: Optional[tuple[Fraction, ...]] = None
    fano_mode: bool = False
    _ray_index: dict = field(init=False, repr=False, compare=False)
    _div_index: dict = field(init=False, repr=False, compare=False)
    # With faces only: each ray's bit, and each face of `faces` as the sum of
    # its rays' bits.  The first id in sorted order holds the highest bit, so
    # among sets of one size, the one whose sorted ids come first (the one
    # holding the first id that the two do not share) has the larger mask.
    _bit: Optional[dict] = field(init=False, repr=False, compare=False)
    _face_masks: Optional[tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sets = None if self.faces is None else {frozenset(f) for f in self.faces}
        ray_index = {r.id: i for i, r in enumerate(self.rays)}
        div_index = {d: i for i, d in enumerate(self.divisors)}
        if len(ray_index) != len(self.rays):
            raise SystemFormatError("duplicate ray ids")
        if len(div_index) != len(self.divisors):
            raise SystemFormatError("duplicate divisor ids")
        for r in self.rays:
            if r.divisor is not None and r.divisor not in div_index:
                raise SystemFormatError(f"ray {r.id} names unknown divisor {r.divisor}")
        if len(self.pairing) != len(self.rays) or any(
            len(row) != len(self.divisors) for row in self.pairing
        ):
            raise SystemFormatError("pairing matrix shape does not match rays x divisors")
        for pair in self.meets:
            if len(pair) != 2:
                raise SystemFormatError(f"contact entry {sorted(pair)} must join two distinct divisors")
            for d in pair:
                if d not in div_index:
                    raise SystemFormatError(f"contact entry names unknown divisor {d}")
        if self.anticanonical is not None and len(self.anticanonical) != len(self.rays):
            raise SystemFormatError("anticanonical column length does not match rays")
        object.__setattr__(self, "_ray_index", ray_index)
        object.__setattr__(self, "_div_index", div_index)
        bit = masks = None
        if sets is not None:
            bit = {rid: 1 << k for k, rid in enumerate(sorted(ray_index, reverse=True))}
            try:
                order = sorted((len(f), -sum(map(bit.__getitem__, f)), f) for f in sets)
            except KeyError as exc:
                raise SystemFormatError(f"face names unknown ray {exc.args[0]}") from None
            masks = tuple(-entry[1] for entry in order)
            object.__setattr__(self, "faces", tuple(entry[2] for entry in order))
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_face_masks", masks)

    @staticmethod
    def of(
        rays: Sequence[Ray],
        divisors: Sequence[str],
        pairing: Sequence[Sequence[object]],
        meets: Iterable[Iterable[str]] = (),
        faces: Optional[Iterable[Iterable[str]]] = None,
        anticanonical: Optional[Sequence[object]] = None,
        fano_mode: bool = False,
    ) -> "RayDivisorSystem":
        return RayDivisorSystem(
            rays=tuple(Ray.of(r) for r in rays),
            divisors=tuple(divisors),
            pairing=tuple(tuple(rational(x) for x in row) for row in pairing),
            meets=frozenset(frozenset(pair) for pair in meets),
            faces=faces,
            anticanonical=None
            if anticanonical is None
            else tuple(rational(x) for x in anticanonical),
            fano_mode=fano_mode,
        )

    # -- lookups -----------------------------------------------------------

    @property
    def ray_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rays)

    def ray(self, rid: str) -> Ray:
        try:
            return self.rays[self._ray_index[rid]]
        except KeyError:
            raise ValueError(f"unknown ray {rid}") from None

    def q(self, rid: str, did: str) -> Fraction:
        try:
            return self.pairing[self._ray_index[rid]][self._div_index[did]]
        except KeyError as exc:
            raise ValueError(f"unknown ray or divisor: {exc}") from None

    def divisor_of(self, rid: str) -> Optional[str]:
        return self.ray(rid).divisor

    def anticanonical_degree(self, rid: str) -> Fraction:
        if self.anticanonical is None:
            raise ValueError("system has no anticanonical column")
        return self.anticanonical[self._ray_index[rid]]

    def joined(self, d1: str, d2: str) -> bool:
        """Whether two divisors share points (equal, or in explicit contact)."""
        for d in (d1, d2):
            if d not in self._div_index:
                raise ValueError(f"unknown divisor {d}")
        return d1 == d2 or frozenset((d1, d2)) in self.meets

    @property
    def divisorial_rays(self) -> tuple[Ray, ...]:
        return tuple(r for r in self.rays if r.is_divisorial)

    @property
    def small_rays(self) -> tuple[Ray, ...]:
        return tuple(r for r in self.rays if r.type is RayType.SMALL)

    def with_faces(self, faces: Optional[Iterable[Iterable[str]]]) -> "RayDivisorSystem":
        return replace(self, faces=faces)

    # -- faces as ray masks ------------------------------------------------

    def ray_mask(self, rids: Iterable[str]) -> int:
        """The bits of the given rays; needs a face structure."""
        try:
            return sum(map(self._bit.__getitem__, frozenset(rids)))
        except KeyError as exc:
            raise ValueError(f"unknown ray {exc.args[0]}") from None

    def masks_to_sets(self, masks: Iterable[int]) -> list[frozenset]:
        """The ray sets of the given masks, smallest first, ties by sorted ids."""
        return [
            frozenset(rid for rid, b in self._bit.items() if m & b)
            for m in sorted(masks, key=lambda m: (m.bit_count(), -m))
        ]

    @cached_property
    def maximal_masks(self) -> tuple[int, ...]:
        """Masks of the inclusion-maximal faces, ordered like `faces`.  The
        empty face is maximal only when it is the sole face."""
        found: list[int] = []
        for m in reversed(self._face_masks or ()):  # largest first
            for big in found:
                if m | big == big:
                    break
            else:
                found.append(m)
        return tuple(reversed(found))

    @cached_property
    def maximal_faces(self) -> tuple[frozenset, ...]:
        """The inclusion-maximal faces, ordered like `faces`."""
        keep = set(self.maximal_masks)
        return tuple(
            f for f, m in zip(self.faces or (), self._face_masks or ()) if m in keep
        )


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate(s: RayDivisorSystem) -> list[Violation]:
    """All model-invariant violations, deterministically ordered."""
    out: list[Violation] = []

    def flag(code: str, subjects: Sequence[str], detail: str) -> None:
        out.append(Violation(code, tuple(subjects), detail))

    for r in s.rays:
        if r.is_divisorial and r.divisor is None:
            flag("ray-divisor-missing", (r.id,), f"{r.type.value} ray must carry a divisor")
        if r.type is RayType.SMALL and r.divisor is not None:
            flag("small-ray-with-divisor", (r.id,), "small rays carry no divisor")

    for r in s.rays:
        if r.divisor is None:
            continue
        if s.q(r.id, r.divisor) >= 0:
            flag(
                "self-pairing-not-negative",
                (r.id, r.divisor),
                f"Q[{r.id}][{r.divisor}] = {format_rational(s.q(r.id, r.divisor))} must be < 0",
            )

    by_divisor: dict[str, list[Ray]] = {}
    for r in s.rays:
        if r.divisor is not None:
            by_divisor.setdefault(r.divisor, []).append(r)
    for did, owners in sorted(by_divisor.items()):
        if len(owners) > 2:
            flag(
                "divisor-overloaded",
                tuple(o.id for o in owners),
                f"divisor {did} is carried by {len(owners)} rays (max 2)",
            )
        elif len(owners) == 2 and not all(o.type is RayType.II for o in owners):
            flag(
                "shared-divisor-not-type-ii",
                tuple(o.id for o in owners),
                f"divisor {did} is shared, so both rays must have type II",
            )

    divisorial = [r for r in s.rays if r.divisor is not None]
    for r in divisorial:
        for did in s.divisors:
            if did == r.divisor:
                continue
            v = s.q(r.id, did)
            if v < 0:
                flag(
                    "negative-cross-pairing",
                    (r.id, did),
                    f"Q[{r.id}][{did}] = {format_rational(v)}: a divisorial ray pairs "
                    "negatively only with its own divisor",
                )
            if v != 0 and not s.joined(r.divisor, did):
                flag(
                    "pairing-without-meet",
                    (r.id, did),
                    f"Q[{r.id}][{did}] = {format_rational(v)} but divisors "
                    f"{r.divisor} and {did} are not in contact",
                )

    for i, r1 in enumerate(divisorial):
        for r2 in divisorial[i + 1 :]:
            d1, d2 = r1.divisor, r2.divisor
            if d1 == d2:
                continue
            touching = s.joined(d1, d2)
            types = {r1.type, r2.type}
            if not touching:
                continue
            if types == {RayType.I}:
                flag(
                    "type-i-divisors-meet",
                    (r1.id, r2.id),
                    f"divisors {d1} and {d2} of two type I rays may not touch",
                )
            elif types == {RayType.I, RayType.II}:
                if s.q(r1.id, d2) <= 0 or s.q(r2.id, d1) <= 0:
                    flag(
                        "mixed-meeting-pair-crosses",
                        (r1.id, r2.id),
                        "touching divisors of a type II / type I pair force both "
                        f"cross pairings positive, got {format_rational(s.q(r1.id, d2))} "
                        f"and {format_rational(s.q(r2.id, d1))}",
                    )
            else:  # both type II
                if s.q(r1.id, d2) == 0 and s.q(r2.id, d1) == 0:
                    flag(
                        "meeting-pair-no-contact",
                        (r1.id, r2.id),
                        f"divisors {d1} and {d2} touch but both cross pairings vanish",
                    )

    for r in s.rays:
        if r.type is not RayType.II or r.divisor is None:
            continue
        neighbors = [
            q.id
            for q in divisorial
            if q.type is RayType.I and q.divisor != r.divisor and s.joined(r.divisor, q.divisor)
        ]
        if len(neighbors) > 1:
            flag(
                "multiple-type-i-neighbors",
                (r.id, *neighbors),
                f"divisor {r.divisor} touches divisors of {len(neighbors)} type I rays (max 1)",
            )

    if s.fano_mode:
        for r in s.rays:
            if r.type is RayType.II and r.divisor is not None and not is_simple_ray(s, r.id):
                flag(
                    "nonsimple-ray-in-fano-mode",
                    (r.id,),
                    "every type II ray must be simple here",
                )
        if s.anticanonical is not None:
            for r, a in zip(s.rays, s.anticanonical):
                if a <= 0:
                    flag(
                        "anticanonical-not-positive",
                        (r.id,),
                        f"A[{r.id}] = {format_rational(a)} must be > 0",
                    )

    if s.faces is not None:
        out.extend(_validate_faces(s))

    return out


def _validate_faces(s: RayDivisorSystem) -> list[Violation]:
    out: list[Violation] = []
    faces = set(s._face_masks)
    if 0 not in faces:
        out.append(Violation("faces-missing-empty", (), "the empty set must be a face"))
    for r in s.rays:
        if s._bit[r.id] not in faces:
            out.append(
                Violation(
                    "singleton-not-a-face",
                    (r.id,),
                    "every single ray spans a face of the cone",
                )
            )
    # A face is full when all its subsets are faces: walked smallest first,
    # that is when every f minus one bit is full.  f1 & f2 is a face whenever
    # f1 or f2 is full, so only pairs of faces that are not full are cut.
    full: set[int] = set()
    partial: list[tuple[int, frozenset]] = []
    for f, face in zip(s._face_masks, s.faces):
        for b in iter_bits(f):
            if f ^ b not in full:
                partial.append((f, face))
                break
        else:
            full.add(f)
    for i, (f1, face1) in enumerate(partial):
        for f2, face2 in partial[i + 1 :]:
            if f1 & f2 not in faces:
                out.append(
                    Violation(
                        "faces-not-intersection-closed",
                        (",".join(sorted(face1)), ",".join(sorted(face2))),
                        f"intersection {sorted(face1 & face2)} is missing from the face list",
                    )
                )
    return out


def iter_bits(mask: int) -> Iterable[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def check_normalization(s: RayDivisorSystem) -> list[Violation]:
    """Audit the standard scaling: type II rays with Q[R][D(R)] = -1 and,
    when an anticanonical column is present, A[R] = 1."""
    out: list[Violation] = []
    for r in s.rays:
        if r.type is not RayType.II or r.divisor is None:
            continue
        if s.q(r.id, r.divisor) != -1:
            out.append(
                Violation(
                    "nonnormalized-self-pairing",
                    (r.id,),
                    f"Q[{r.id}][{r.divisor}] = {format_rational(s.q(r.id, r.divisor))}, "
                    "standard scaling is -1",
                )
            )
        if s.anticanonical is not None and s.anticanonical_degree(r.id) != 1:
            out.append(
                Violation(
                    "nonnormalized-anticanonical-degree",
                    (r.id,),
                    f"A[{r.id}] = {format_rational(s.anticanonical_degree(r.id))}, "
                    "standard scaling is 1",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Oriented graphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrientedGraph:
    nodes: tuple[str, ...]
    arrows: frozenset  # of (tail, head) pairs
    dist: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Fill `dist[(a, b)]`, the length of a shortest oriented path from a
        to b (INF if unreachable), with one breadth-first search per node."""
        succ: dict[str, list[str]] = {n: [] for n in self.nodes}
        for tail, head in sorted(self.arrows):
            succ[tail].append(head)
        dist: dict[tuple[str, str], int | float] = {}
        for a in self.nodes:
            seen = {a: 0}
            queue = deque([a])
            while queue:
                cur = queue.popleft()
                for nxt in succ[cur]:
                    if nxt not in seen:
                        seen[nxt] = seen[cur] + 1
                        queue.append(nxt)
            for b in self.nodes:
                dist[a, b] = seen.get(b, INF)
        object.__setattr__(self, "dist", dist)


def build_graph(s: RayDivisorSystem, subset: Iterable[str]) -> OrientedGraph:
    """The oriented graph on the given divisorial rays: an arrow runs from R1
    to R2 exactly when Q[R1][D(R2)] > 0.  Its all-pairs distances are
    computed here, once, in `OrientedGraph.dist`."""
    nodes = sorted(set(subset))
    for rid in nodes:
        r = s.ray(rid)
        if not r.is_divisorial:
            raise ValueError(f"ray {rid} is small and cannot enter the graph")
    arrows = set()
    for r1 in nodes:
        for r2 in nodes:
            if r1 == r2:
                continue
            if s.q(r1, s.divisor_of(r2)) > 0:
                arrows.add((r1, r2))
    return OrientedGraph(tuple(nodes), frozenset(arrows))


def distance(g: OrientedGraph, a: str, b: str) -> int | float:
    """Length of a shortest oriented path from a to b (INF if unreachable)."""
    for n in (a, b):
        if (n, n) not in g.dist:
            raise ValueError(f"unknown node {n}")
    return g.dist[a, b]


def diameter(g: OrientedGraph) -> int | float:
    """Largest pairwise distance; 0 for graphs with fewer than two nodes."""
    return max(g.dist.values(), default=0)


def divisorial_components(
    s: RayDivisorSystem, subset: Iterable[str]
) -> list[frozenset]:
    """Partition of the subset into contact components: two rays are joined
    when their divisors are equal or touch."""
    nodes = sorted(set(subset))
    for rid in nodes:
        if not s.ray(rid).is_divisorial:
            raise ValueError(f"ray {rid} is small and has no divisor")
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, r1 in enumerate(nodes):
        for r2 in nodes[i + 1 :]:
            if s.joined(s.divisor_of(r1), s.divisor_of(r2)):
                parent[find(r1)] = find(r2)
    groups: dict[str, set[str]] = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    return sorted((frozenset(g) for g in groups.values()), key=lambda g: sorted(g))


def is_single_arrow_connected(s: RayDivisorSystem, subset: Iterable[str]) -> bool:
    """Whether every ordered pair of distinct rays is joined by an oriented
    path inside the subset's graph."""
    return INF not in build_graph(s, subset).dist.values()


def is_simple_ray(s: RayDivisorSystem, rid: str) -> bool:
    """A type II ray stays nonnegative against its divisor plus any divisor it
    pairs positively with (quantified over the listed divisors)."""
    r = s.ray(rid)
    if r.type is not RayType.II:
        raise ValueError(f"ray {rid} has type {r.type.value}; simplicity applies to type II")
    own = s.q(rid, r.divisor)
    for did in s.divisors:
        v = s.q(rid, did)
        if v > 0 and own + v < 0:
            return False
    return True


def check_lemma227(s: RayDivisorSystem, r1: str, r2: str) -> bool:
    """Product inequality for a touching pair of type II rays on distinct
    divisors: cross pairings multiply to strictly less than the self pairings."""
    a, b = s.ray(r1), s.ray(r2)
    if a.type is not RayType.II or b.type is not RayType.II:
        raise ValueError("both rays must have type II")
    if a.divisor is None or b.divisor is None or a.divisor == b.divisor:
        raise ValueError("rays must carry distinct divisors")
    if not s.joined(a.divisor, b.divisor):
        raise ValueError(f"divisors {a.divisor} and {b.divisor} are not in contact")
    cross = s.q(r1, b.divisor) * s.q(r2, a.divisor)
    selfs = s.q(r1, a.divisor) * s.q(r2, b.divisor)
    return cross < selfs


def contact_violations(s: RayDivisorSystem) -> list[Violation]:
    """Co-facial type II pairs on distinct touching divisors that fail the
    product inequality of `check_lemma227`.

    Kept apart from `validate`: `enumerate_sign_systems` yields every system
    that `validate` accepts, and many of those fail this check once crossed
    with a face family.
    """
    if s.faces is None:
        return []
    cofacial: set[tuple[str, str]] = set()
    for face in s.maximal_faces:
        for a, b in combinations(sorted(face), 2):
            cofacial.add((a, b))
    bad = []
    for a, b in sorted(cofacial):
        ra, rb = s.ray(a), s.ray(b)
        if ra.type is not RayType.II or rb.type is not RayType.II:
            continue
        if ra.divisor is None or rb.divisor is None or ra.divisor == rb.divisor:
            continue
        if not s.joined(ra.divisor, rb.divisor):
            continue
        if not check_lemma227(s, a, b):
            bad.append(
                Violation(
                    "contact-product",
                    (a, b),
                    "cross pairings do not multiply below the self pairings",
                )
            )
    return bad


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def system_to_json(s: RayDivisorSystem) -> dict:
    data: dict = {
        "rays": [
            {"id": r.id, "type": r.type.value}
            | ({"divisor": r.divisor} if r.divisor is not None else {})
            for r in s.rays
        ],
        "divisors": list(s.divisors),
        "pairing": [[format_rational(v) for v in row] for row in s.pairing],
        "meets": sorted(sorted(pair) for pair in s.meets),
        "fano_mode": s.fano_mode,
    }
    if s.faces is not None:
        data["faces"] = [sorted(f) for f in s.faces]
    if s.anticanonical is not None:
        data["anticanonical"] = [format_rational(v) for v in s.anticanonical]
    return data


def system_from_json(data: Mapping) -> RayDivisorSystem:
    try:
        rays_raw = data["rays"]
        divisors = list(data["divisors"])
        pairing_raw = data["pairing"]
    except (KeyError, TypeError) as exc:
        raise SystemFormatError(f"missing system field: {exc}") from exc
    for name, value in (("rays", rays_raw), ("pairing", pairing_raw)):
        if not isinstance(value, (list, tuple)):
            raise SystemFormatError(f"{name} must be a list, got {value!r}")
    rays = []
    for entry in rays_raw:
        try:
            rtype = RayType(entry["type"])
            rays.append(Ray(str(entry["id"]), rtype, entry.get("divisor")))
        except ValueError as exc:
            raise SystemFormatError(f"unknown ray type {entry.get('type')!r}") from exc
        except (KeyError, TypeError, AttributeError) as exc:
            raise SystemFormatError(f"malformed ray entry {entry!r}") from exc
    if not all(isinstance(row, (list, tuple)) for row in pairing_raw):
        raise SystemFormatError("pairing must be a list of rows, one per ray")
    try:
        return RayDivisorSystem.of(
            rays=rays,
            divisors=[str(d) for d in divisors],
            pairing=pairing_raw,
            meets=data.get("meets", ()),
            faces=data.get("faces"),
            anticanonical=data.get("anticanonical"),
            fano_mode=bool(data.get("fano_mode", False)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SystemFormatError):
            raise
        raise SystemFormatError(str(exc)) from exc
