"""Abstract ray-divisor systems.

A system records finitely many rays (each either carrying a divisor or
"small"), the rational pairing matrix between rays and divisors, an explicit
symmetric contact relation between divisors, and optionally a face structure
and an anticanonical column.  The validator enforces the model invariants;
everything downstream (graphs, classification, bound engines) assumes a
validated system.
"""

from __future__ import annotations

import reprlib
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from fractions import Fraction
from types import SimpleNamespace
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .core import (INF, KINDS, Leaf, Opt, RayType, SystemFormatError, bit_order, face_order,
                   format_rational, mask_names, number, positions, to_json, walk)


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


class _FaceView:
    """A system's `faces`: one frozenset of ray ids per face mask, in mask
    order, built on first read and then kept on the system; None when the
    system has no faces."""

    def __get__(self, s: Optional["RayDivisorSystem"], owner: Optional[type] = None):
        if s is None or s._face_masks is None:
            return None
        ids = s.relations.ids
        view = s.__dict__["faces"] = tuple(frozenset(mask_names(ids, m)) for m in s._face_masks)
        return view


@dataclass(frozen=True)
class RayDivisorSystem:
    rays: tuple[Ray, ...]
    divisors: tuple[str, ...]
    pairing: tuple[tuple[int | Fraction, ...], ...]  # int where integral
    meets: frozenset  # frozenset of 2-element frozensets of divisor ids
    # Stored only as `_face_masks`; reading `faces` gives the view.
    faces: InitVar[Optional[Iterable[Collection[str]]]] = _FaceView()
    anticanonical: Optional[tuple[int | Fraction, ...]] = None  # int where integral
    fano_mode: bool = False
    # The distinct faces, each the sum of its rays' `Relations.bit`s, in
    # `core.face_order`.
    _face_masks: Optional[tuple[int, ...]] = field(init=False)
    # Derived by `_set_faces` alone: the inclusion-maximal faces, ordered like
    # `faces` (the empty one only as the sole face), and a dense family's maps.
    maximal_masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _face_maps: Optional[SubsetMaps] = field(init=False, compare=False, repr=False)

    def __post_init__(self, faces: Optional[Iterable[Collection[str]]]) -> None:
        divisors = set(self.divisors)
        if len({r.id for r in self.rays}) != len(self.rays):
            raise SystemFormatError("duplicate ray ids", "rays")
        if len(divisors) != len(self.divisors):
            raise SystemFormatError("duplicate divisor ids", "divisors")
        for k, r in enumerate(self.rays):
            if (r.divisor is None) != (r.type is RayType.SMALL):
                why = (f"small ray {r.id} carries no divisor" if r.divisor is not None
                       else f"type {r.type.value} ray {r.id} must carry a divisor")
            elif r.divisor is not None and r.divisor not in divisors:
                why = f"unknown divisor {r.divisor}"
            else:
                continue
            raise SystemFormatError(why, "rays", k, "divisor")
        if len(self.pairing) != len(self.rays) or any(
            len(row) != len(self.divisors) for row in self.pairing
        ):
            raise SystemFormatError("shape does not match rays x divisors", "pairing")
        bad = sorted(sorted(p) for p in self.meets if len(p) != 2 or not p.issubset(divisors))
        if bad:
            raise SystemFormatError(f"{bad[0]} must join two distinct listed divisors", "meets")
        if self.anticanonical is not None and len(self.anticanonical) != len(self.rays):
            raise SystemFormatError("length does not match rays", "anticanonical")
        self._set_faces(faces)

    def _set_faces(self, faces: Optional[Iterable[Collection[str]]]) -> None:
        """Store the distinct faces (or None) as masks with the family's maximal
        faces and, as `SubsetMaps.of` rules, its subset maps.  A face that
        repeats an id sums one bit twice, which its popcount shows."""
        masks = maps = None
        if faces is not None:
            faces = tuple(faces)
            bit = self.relations.bit
            get, found = bit.__getitem__, set()
            try:
                for f in faces:
                    m = sum(map(get, f))
                    found.add(m if m.bit_count() == len(f) else sum(map(get, set(f))))
            except (KeyError, TypeError):  # an unknown or an unhashable entry
                _raise_on_unknown_entry(faces, bit)
                raise
            masks = tuple(face_order(found))
            maps = SubsetMaps.of(masks, len(self.rays))
        self.__dict__.update(_face_masks=masks, _face_maps=maps, maximal_masks=(
            _maximal_by_loop(masks or ()) if maps is None else _maximal_by_map(maps)))

    @staticmethod
    def of(
        rays: Sequence[Ray],
        divisors: Sequence[str],
        pairing: Sequence[Sequence[object]],
        meets: Iterable[Iterable[str]] = (),
        faces: Optional[Iterable[Collection[str]]] = None,
        anticanonical: Optional[Sequence[object]] = None,
        fano_mode: bool = False,
    ) -> "RayDivisorSystem":
        return RayDivisorSystem(
            rays=tuple(Ray.of(r) for r in rays),
            divisors=tuple(divisors),
            pairing=tuple(tuple(map(number, row)) for row in pairing),
            meets=frozenset(frozenset(pair) for pair in meets),
            faces=faces,
            anticanonical=None if anticanonical is None else tuple(map(number, anticanonical)),
            fano_mode=fano_mode,
        )

    # -- lookups -----------------------------------------------------------

    @property
    def ray_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rays)

    def ray(self, rid: str) -> Ray:
        try:
            return self.rays[self.relations.index[rid]]
        except KeyError:
            raise ValueError(f"unknown ray {rid}") from None

    def q(self, rid: str, did: str) -> int | Fraction:
        rel = self.relations
        try:
            return self.pairing[rel.index[rid]][rel.div_index[did]]
        except KeyError as exc:
            raise ValueError(f"unknown ray or divisor: {exc}") from None

    def divisor_of(self, rid: str) -> Optional[str]:
        return self.ray(rid).divisor

    def anticanonical_degree(self, rid: str) -> int | Fraction:
        if self.anticanonical is None:
            raise ValueError("system has no anticanonical column")
        return self.anticanonical[self.relations.index[rid]]

    def joined(self, d1: str, d2: str) -> bool:
        """Whether two divisors share points (equal, or in explicit contact)."""
        for d in (d1, d2):
            if d not in self.relations.div_index:
                raise ValueError(f"unknown divisor {d}")
        return d1 == d2 or frozenset((d1, d2)) in self.meets

    @property
    def divisorial_rays(self) -> tuple[Ray, ...]:
        return tuple(r for r in self.rays if r.is_divisorial)

    def with_faces(self, faces: Optional[Iterable[Collection[str]]]) -> "RayDivisorSystem":
        """This system with another face structure.  The new system shares
        this one's validated data fields; `_set_faces` checks only the faces,
        as at construction, and derives their family."""
        new = object.__new__(RayDivisorSystem)
        new.__dict__.update({f.name: self.__dict__[f.name] for f in fields(self) if f.init})
        new._set_faces(faces)
        return new

    @cached_property
    def relations(self) -> "Relations":
        """The pairwise ray relations and id lookups, derived on first use
        (at construction, for a system with faces) and kept for the life of
        this system object."""
        return Relations(self)

    # -- faces as ray masks ------------------------------------------------

    def ray_mask(self, rids: Iterable[str], small: Optional[str] = None) -> int:
        """The mask of the given rays.  In sorted order the first unknown ray
        raises ValueError, and, when `small` is given, so does the first
        small ray, as "ray ... is small and <small>"."""
        rel = self.relations
        rids = set(rids)
        mask = rel.mask(rids)
        if mask is None or small is not None and mask & ~rel.divisorial:
            for rid in sorted(rids):
                b = rel.bit.get(rid)
                if b is None:
                    raise ValueError(f"unknown ray {rid}")
                if small is not None and not b & rel.divisorial:
                    raise ValueError(f"ray {rid} is small and {small}")
        return mask


def _raise_on_unknown_entry(faces: Sequence[Collection], bit: Mapping[str, int]) -> None:
    """Raise for the first face with an entry that is not a ray id, naming
    its smallest unknown id when every such entry is a str, else its first
    other entry by its (abbreviated) repr."""
    for k, f in enumerate(faces):
        unknown = [v for v in f if not _is_key(v, bit)]
        if unknown:
            other = [v for v in unknown if type(v) is not str]
            name = reprlib.repr(other[0]) if other else min(unknown)
            raise SystemFormatError(f"face names unknown ray {name}", "faces", k) from None


def _is_key(v: object, table: Mapping) -> bool:
    try:
        return v in table
    except TypeError:  # unhashable
        return False


def _maximal_by_loop(masks: Sequence[int]) -> tuple[int, ...]:
    """`maximal_masks` by testing each face against the maximal faces found
    so far, largest first."""
    found: list[int] = []
    for m in reversed(masks):
        for big in found:
            if m | big == big:
                break
        else:
            found.append(m)
    return tuple(reversed(found))


def _maximal_by_map(maps: "SubsetMaps") -> tuple[int, ...]:
    """`maximal_masks` on subset maps: the maximal sets of the faces'
    downward closure are the maximal faces."""
    return tuple(maps.members(maps.maximal(maps.down(maps.faces))))


class Relations:
    """A system's pairwise ray relations, derived once and read as bitmasks.

    `index` and `div_index` map ray and divisor ids to their positions in
    `rays` and `divisors`.  Ray `ids[k]` holds bit `bit[ids[k]]` = 1 << k,
    the bit it holds in face masks, in `core.bit_order`; `order` lists the
    positions in declaration order.  `column[k]` is the index of D(ids[k]) and
    `toward[k][j]` is q(ids[k], D(ids[j])) (None when ids[j] carries no
    divisor).  `touching[c]` is the mask, by divisor index, of the listed
    divisors that equal or touch the c-th, carried by a ray or not.  Per ray
    k, over the rays j that carry divisors: `contact[k]` holds those whose
    divisor equals or touches D(ids[k]) (k itself included), `arrows[k]`
    those j != k with toward[k][j] > 0 and `zeros[k]` those j != k with
    toward[k][j] == 0.  `type_i`, `type_ii`, `divisorial` and `simple` are
    masks of rays.
    """

    __slots__ = (
        "index", "div_index", "ids", "bit", "order", "column", "touching", "toward",
        "contact", "arrows", "zeros", "type_i", "type_ii", "divisorial", "simple",
    )

    def __init__(self, s: RayDivisorSystem) -> None:
        self.index = index = {r.id: i for i, r in enumerate(s.rays)}
        self.div_index = div_index = {d: i for i, d in enumerate(s.divisors)}
        self.ids, self.bit = ids, bit = bit_order(index)
        self.order = order = tuple([bit[r.id].bit_length() - 1 for r in s.rays])
        n = len(ids)
        column = [None] * n
        for k, r in zip(order, s.rays):
            column[k] = div_index.get(r.divisor)  # None for a small ray
        self.column = column = tuple(column)
        touching = [1 << c for c in range(len(s.divisors))]
        for pair in s.meets:
            a, b = map(div_index.__getitem__, pair)
            touching[a] |= 1 << b
            touching[b] |= 1 << a
        self.touching = tuple(touching)
        carried = [(1 << j, c) for j, c in enumerate(column) if c is not None]
        toward, contact, arrows, zeros = [None] * n, [0] * n, [0] * n, [0] * n
        type_i = type_ii = simple = 0
        for k, r, row in zip(order, s.rays, s.pairing):
            toward[k] = tuple([None if c is None else row[c] for c in column])
            near = 0 if column[k] is None else touching[column[k]]
            touches = up = level = 0
            for b, c in carried:
                if near >> c & 1:
                    touches |= b
                if row[c] > 0:
                    up |= b
                elif row[c] == 0:
                    level |= b
            contact[k] = touches
            arrows[k] = up & ~(1 << k)
            zeros[k] = level & ~(1 << k)
            if r.type is RayType.I:
                type_i |= 1 << k
            elif r.type is RayType.II:
                type_ii |= 1 << k
                # Simple: its own pairing plus any positive pairing with a
                # listed divisor stays >= 0.
                own = row[column[k]]
                if all(v <= 0 or own + v >= 0 for v in row):
                    simple |= 1 << k
        self.toward = tuple(toward)
        self.contact = tuple(contact)
        self.arrows = tuple(arrows)
        self.zeros = tuple(zeros)
        self.type_i, self.type_ii, self.simple = type_i, type_ii, simple
        self.divisorial = type_i | type_ii

    def mask(self, rids: Iterable[str]) -> Optional[int]:
        """The mask of the given rays, or None when one of them is unknown."""
        try:
            return sum(map(self.bit.__getitem__, set(rids)))
        except KeyError:
            return None

    def names(self, mask: int) -> list[str]:
        """The sorted ids of a mask's rays."""
        return mask_names(self.ids, mask)

    def closure(self, table: Sequence[int], mask: int, seed: int) -> int:
        """The rays of `mask` reached from the rays of `seed` along `table`."""
        found = frontier = seed
        while frontier:
            k = frontier.bit_length() - 1
            frontier ^= 1 << k
            new = table[k] & mask & ~found
            found |= new
            frontier |= new
        return found

    def bands(self, mask: int, k: int, cuts: Sequence[int]) -> list[int]:
        """The rays of a mask whose shortest oriented path from the ray at
        position `k`, along arrows inside the mask, has more than cuts[i - 1]
        and at most cuts[i] steps: one mask per cut, read from 0 up.  One
        breadth-first search, stopped after cuts[-1] steps."""
        arrows = self.arrows
        seen = frontier = 1 << k
        steps, out = 0, []
        for cut in cuts:
            band = 0
            while steps < cut and frontier:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    reached |= arrows[low.bit_length() - 1]
                    frontier ^= low
                frontier = reached & mask & ~seen
                seen |= frontier
                band |= frontier
                steps += 1
            out.append(band)
        return out

    def components(self, mask: int) -> list[int]:
        """The contact components of a set of divisorial rays, ordered by
        their first ids."""
        out = []
        while mask:
            comp = self.closure(self.contact, mask, 1 << (mask.bit_length() - 1))
            out.append(comp)
            mask ^= comp
        return out


class SubsetMaps:
    """Families of subsets of the rays at positions 0..n-1, each held as
    one int, its subset map: bit f is set for each member mask f.
    `faces` maps the given faces, `hold[j]` every subset that holds ray j.
    Each closure below is then n shift-and-mask steps over 2^n bits, whatever
    the size of the family, so `of` builds maps only for a dense face family."""

    __slots__ = ("n", "hold", "faces")

    def __init__(self, n: int, masks: Iterable[int]) -> None:
        self.n = n
        hold = []
        for j in range(n):
            # 2^j subsets without ray j, then 2^j with it, and again.
            step = 1 << j
            block, width = (1 << step) - 1 << step, 2 * step
            while width < 1 << n:
                block |= block << width
                width *= 2
            hold.append(block)
        self.hold = tuple(hold)
        self.faces = self.family(masks)

    @staticmethod
    def of(masks: Collection[int], n: int) -> Optional["SubsetMaps"]:
        """The maps for a family of faces over n rays when it is dense: at
        least 64 faces, and at most 8 map bits per face.  Otherwise None,
        and the family stays on the loops, whose memory stays linear in it:
        a few faces over 40 rays would need a map of 2^40 bits."""
        if len(masks) < 64 or 1 << n > 8 * len(masks):
            return None
        return SubsetMaps(n, masks)

    def family(self, masks: Iterable[int]) -> int:
        """The subset map of the given masks."""
        text = bytearray(b"0") * (1 << self.n)
        for m in masks:
            text[m] = 49  # "1"
        return int(text[::-1], 2)  # int() reads the highest bit first

    @staticmethod
    def members(family: int) -> list[int]:
        """The member masks of a subset map, in `core.face_order`."""
        text, out = bin(family)[:1:-1], []  # bit f at index f
        f = text.find("1")
        while f >= 0:
            out.append(f)
            f = text.find("1", f + 1)
        return face_order(out)

    def down(self, family: int) -> int:
        """Every subset of a member."""
        for j, hold in enumerate(self.hold):
            family |= (family & hold) >> (1 << j)
        return family

    def up(self, family: int) -> int:
        """Every set of the n rays that contains a member."""
        for j, hold in enumerate(self.hold):
            family |= family << (1 << j) & hold
        return family

    def maximal(self, family: int) -> int:
        """The members with no member one ray larger: on a downward closed
        family, its maximal members."""
        short = 0
        for j, hold in enumerate(self.hold):
            short |= (family & hold) >> (1 << j)
        return family & ~short

    def minimal(self, family: int) -> int:
        """The members with no member one ray smaller: on a family closed
        upward inside some set, its minimal members."""
        more = 0
        for j, hold in enumerate(self.hold):
            more |= family << (1 << j) & hold
        return family & ~more


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate(s: RayDivisorSystem) -> list[Violation]:
    """All model-invariant violations, deterministically ordered.  Every
    rule reads the system's `Relations`: its own, built at construction, when
    it has faces, else a fresh one, so nothing is kept on it."""
    rel = s.relations if s._face_masks is not None else Relations(s)
    ids, column, toward, contact = rel.ids, rel.column, rel.toward, rel.contact
    divisor = [None if c is None else s.divisors[c] for c in column]
    walk = [k for k in rel.order if rel.divisorial >> k & 1]  # declaration order
    out: list[Violation] = []

    def flag(code: str, subjects: Sequence[str], detail: str) -> None:
        out.append(Violation(code, tuple(subjects), detail))

    owners: dict[str, list[int]] = {}
    for k in walk:
        owners.setdefault(divisor[k], []).append(k)
        if toward[k][k] >= 0:
            flag("self-pairing-not-negative", (ids[k], divisor[k]),
                 f"Q[{ids[k]}][{divisor[k]}] = {format_rational(toward[k][k])} must be < 0")
    for did, ks in sorted(owners.items()):
        if len(ks) > 2:
            flag("divisor-overloaded", [ids[k] for k in ks],
                 f"divisor {did} is carried by {len(ks)} rays (max 2)")
        elif len(ks) == 2 and sum(1 << k for k in ks) & ~rel.type_ii:
            flag("shared-divisor-not-type-ii", [ids[k] for k in ks],
                 f"divisor {did} is shared, so both rays must have type II")

    # These two range over every listed divisor, carried by a ray or not.
    for row, k in zip(s.pairing, rel.order):
        if column[k] is None:
            continue
        near = rel.touching[column[k]]
        for c, v in enumerate(row):
            if v == 0 or c == column[k]:
                continue
            did = s.divisors[c]
            if v < 0:
                flag("negative-cross-pairing", (ids[k], did),
                     f"Q[{ids[k]}][{did}] = {format_rational(v)}: a divisorial ray pairs "
                     "negatively only with its own divisor")
            if not near >> c & 1:
                flag("pairing-without-meet", (ids[k], did),
                     f"Q[{ids[k]}][{did}] = {format_rational(v)} but divisors "
                     f"{divisor[k]} and {did} are not in contact")

    for i, a in enumerate(walk):
        for b in walk[i + 1 :]:
            if column[a] == column[b] or not contact[a] >> b & 1:
                continue
            pair, d1, d2 = 1 << a | 1 << b, divisor[a], divisor[b]
            if not pair & rel.type_ii:
                flag("type-i-divisors-meet", (ids[a], ids[b]),
                     f"divisors {d1} and {d2} of two type I rays may not touch")
            elif not pair & rel.type_i:  # both type II
                if rel.zeros[a] >> b & 1 and rel.zeros[b] >> a & 1:
                    flag("meeting-pair-no-contact", (ids[a], ids[b]),
                         f"divisors {d1} and {d2} touch but both cross pairings vanish")
            elif not (rel.arrows[a] >> b & 1 and rel.arrows[b] >> a & 1):
                flag("mixed-meeting-pair-crosses", (ids[a], ids[b]),
                     "touching divisors of a type II / type I pair force both cross "
                     f"pairings positive, got {format_rational(toward[a][b])} "
                     f"and {format_rational(toward[b][a])}")

    type_ii = [k for k in walk if rel.type_ii >> k & 1]
    for k in type_ii:
        near = contact[k] & rel.type_i
        neighbors = [ids[j] for j in walk if near >> j & 1 and column[j] != column[k]]
        if len(neighbors) > 1:
            flag("multiple-type-i-neighbors", (ids[k], *neighbors),
                 f"divisor {divisor[k]} touches divisors of {len(neighbors)} type I rays (max 1)")

    if s.fano_mode:
        for k in type_ii:
            if not rel.simple >> k & 1:
                flag("nonsimple-ray-in-fano-mode", (ids[k],),
                     "every type II ray must be simple here")
        for k, a in zip(rel.order, s.anticanonical or ()):
            if a <= 0:
                flag("anticanonical-not-positive", (ids[k],),
                     f"A[{ids[k]}] = {format_rational(a)} must be > 0")

    if s._face_masks is not None:
        out.extend(_validate_faces(s, rel))
    return out


def _validate_faces(s: RayDivisorSystem, rel: Relations) -> list[Violation]:
    masks = s._face_masks
    faces = set(masks)
    out = []
    if 0 not in faces:
        out.append(Violation("faces-missing-empty", (), "the empty set must be a face"))
    for k in rel.order:
        if 1 << k not in faces:
            out.append(Violation("singleton-not-a-face", (rel.ids[k],),
                                 "every single ray spans a face of the cone"))
    # A face is full when all its subsets are faces.  f1 & f2 is a face
    # whenever f1 or f2 is full, so only pairs of partial faces are cut.
    partial = _partial_by_loop(masks) if s._face_maps is None else _partial_by_map(s._face_maps)
    for i, f1 in enumerate(partial):
        for f2 in partial[i + 1 :]:
            if f1 & f2 not in faces:
                out.append(Violation(
                    "faces-not-intersection-closed",
                    (",".join(rel.names(f1)), ",".join(rel.names(f2))),
                    f"intersection {rel.names(f1 & f2)} is missing from the face list",
                ))
    return out


def _partial_by_loop(masks: Sequence[int]) -> list[int]:
    """The faces, in face order, that are not full.  Walked smallest first,
    a face is full when every face one ray smaller is."""
    full: set[int] = set()
    partial: list[int] = []
    for f in masks:
        rest = f
        while rest:
            low = rest & -rest
            if f ^ low not in full:
                partial.append(f)
                break
            rest ^= low
        else:
            full.add(f)
    return partial


def _partial_by_map(maps: SubsetMaps) -> list[int]:
    """`_partial_by_loop` on subset maps: the faces that contain a set that
    is not a face."""
    return maps.members(maps.faces & maps.up(~maps.faces))


def check_normalization(s: RayDivisorSystem) -> list[Violation]:
    """Audit the standard scaling: type II rays with Q[R][D(R)] = -1 and,
    when an anticanonical column is present, A[R] = 1."""
    out: list[Violation] = []
    for r in s.rays:
        if r.type is not RayType.II:
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
    """The oriented graph on some divisorial rays.  `dist[(a, b)]` is the
    length of a shortest oriented path from a to b (INF if unreachable);
    every query of the graph reads it."""

    nodes: tuple[str, ...]
    arrows: frozenset  # of (tail, head) pairs
    dist: dict = field(repr=False, compare=False)


def build_graph(s: RayDivisorSystem, subset: Iterable[str]) -> OrientedGraph:
    """The oriented graph on the given divisorial rays: an arrow runs from R1
    to R2 exactly when Q[R1][D(R2)] > 0, read off the system's arrow masks
    restricted to the subset.  Its distances, keyed by id pairs in sorted id
    order, come from one `Relations.bands` search per ray, a band per step up
    to the longest possible path."""
    rel = s.relations
    mask = graph_nodes(s, subset)
    ids, ks = rel.ids, positions(mask)
    dist = {}
    for a in ks:
        bands = [1 << a, *rel.bands(mask, a, range(1, len(ks)))]
        for b in ks:
            dist[ids[a], ids[b]] = next((i for i, band in enumerate(bands) if band >> b & 1), INF)
    return OrientedGraph(
        tuple(ids[k] for k in ks),
        frozenset((ids[k], ids[j]) for k in ks for j in positions(rel.arrows[k] & mask)),
        dist,
    )


def graph_nodes(s: RayDivisorSystem, subset: Iterable[str]) -> int:
    """The mask of a graph's nodes, which must be divisorial rays of `s`."""
    return s.ray_mask(subset, small="cannot enter the graph")


def distance(g: OrientedGraph, a: str, b: str) -> int | float:
    """Length of a shortest oriented path from a to b (INF if unreachable)."""
    for n in (a, b):
        if (n, n) not in g.dist:
            raise ValueError(f"unknown node {n}")
    return g.dist[a, b]


def divisorial_components(
    s: RayDivisorSystem, subset: Iterable[str]
) -> list[frozenset]:
    """Partition of the subset into contact components: two rays are joined
    when their divisors are equal or touch."""
    rel = s.relations
    return [
        frozenset(rel.names(comp))
        for comp in rel.components(s.ray_mask(subset, small="has no divisor"))
    ]


def is_single_arrow_connected(s: RayDivisorSystem, subset: Iterable[str]) -> bool:
    """Whether every ordered pair of distinct rays is joined by an oriented
    path inside the subset's graph: whether the arrows reach the whole subset
    from each of its rays."""
    rel = s.relations
    mask = graph_nodes(s, subset)
    return all(rel.closure(rel.arrows, mask, 1 << k) == mask for k in positions(mask))


# ---------------------------------------------------------------------------
# JSON wire format.
# ---------------------------------------------------------------------------


def system_to_json(s: RayDivisorSystem) -> dict:
    """`s` as JSON.  Its faces are written from their masks, each as its
    sorted ids, so writing builds no `faces` view."""
    written = {key: getattr(s, key) for key in KINDS["system"] if key != "faces"}
    masks, ids = s._face_masks, s.relations.ids
    written["faces"] = None if masks is None else [mask_names(ids, m) for m in masks]
    return to_json(SimpleNamespace(**written), "system")


# The system's table with each face read only as a list: `_set_faces` checks
# its entries by the lookups that turn it into a mask, as only a listed ray id,
# which is a str, has a bit.
_FACES_AS_LISTS = {**KINDS["system"], "faces": Opt([Leaf("a list", {list})])}


def system_from_json(data: Mapping) -> RayDivisorSystem:
    """The system a JSON object describes.  When the object does not make
    one, `walk` reads it by the full table before the error is raised, so
    the first field at fault in declaration and list order is reported."""
    try:
        f = walk(data, _FACES_AS_LISTS)
        f["rays"] = [Ray(**r) for r in f["rays"]]
        return RayDivisorSystem.of(**f)
    except Exception:  # whatever failed, a field the full walk refuses comes first
        walk(data, KINDS["system"])
        raise
