"""Classification machinery over ray-divisor systems.

This module decides the component types of extremal sets, the two cone
feasibility conditions used throughout the bound engines (condition (ii) on a
co-facial pair is also the contact check of Lemma 2.27), extremality and
minimal non-extremal ("E-") sets against an explicit face structure, the
four-case classification of E-sets, the bipartition-arrow connectivity check,
and the witness searches involving small rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Iterable, Iterator, Optional, Sequence, TypeVar

from .core import face_order, format_rational, positions, scale_primitive, solve_inequalities
from .raysystem import (
    RayDivisorSystem,
    Relations,
    SubsetMaps,
    Violation,
    divisorial_components,  # re-exported: callers take it from here too
    is_single_arrow_connected,
)


@dataclass(frozen=True)
class ComponentType:
    """One of the structural component kinds: A1, B2, C:m, D2, E2."""

    kind: str  # "A1" | "B2" | "C" | "D2" | "E2"
    m: Optional[int] = None  # only for kind "C"
    hub: Optional[str] = None  # only for kind "C" with m >= 2
    hub_ambiguous: bool = False

    @property
    def label(self) -> str:
        if self.kind == "C":
            return f"C:{self.m}"
        return self.kind


@dataclass(frozen=True)
class EsetType:
    """E-set classification outcome: case a, b (with coefficients), c (with
    the auxiliary ray), or d."""

    kind: str  # "a" | "b" | "c" | "d"
    m1: Optional[Fraction] = None
    m2: Optional[Fraction] = None
    witness: Optional[str] = None

    def to_json(self) -> object:
        if self.kind == "b":
            return [format_rational(self.m1), format_rational(self.m2)]
        if self.kind == "c":
            return self.witness
        return None


class ClassificationFailure(Exception):
    """A set has no matching type under the model's hypotheses.

    Only `classify_component` and `classify_eset` raise it, and nothing in the
    package catches it: the reports and the `realized` constructions read the
    mask-level classifiers' reason, a key of `FAILURES`, instead.
    """

    def __init__(self, reason: str, rays: Iterable[str]):
        self.reason = reason
        self.rays = tuple(sorted(rays))
        self.detail = FAILURES[reason]
        super().__init__(f"{reason} [{', '.join(self.rays)}]: {self.detail}")


# Every reason a classification fails for, with the hypothesis it breaks: the
# reasons of the component types, then those of the E-set cases.
FAILURES = {
    "small-pair-not-contracting":
        "a {type II, small} pair needs the small ray negative on the divisor",
    "small-ray-in-component": "small rays only classify inside a dedicated pair",
    "shared-divisor-not-type-ii": "only two type II rays may share a divisor",
    "joined-type-i-pair": "two type I rays never have touching divisors in a valid system",
    "mixed-pair-cone-not-pointed":
        "some nonnegative divisor combination is nonnegative on both rays",
    "mixed-pair-crosses-not-positive":
        "a touching type II / type I pair needs both cross pairings positive",
    "oversized-component-with-type-i":
        "no component type admits a type I ray among 3 or more rays",
    "no-hub-ray":
        "no ray has all spokes positive on its divisor, zero back, and pairwise "
        "non-touching spoke divisors",
    "small-ray-unclassified": "a small ray gets a type only in a {type II, small} pair",
    "shared-divisor-pair": "a shared-divisor pair spans a face and cannot be an E-set",
    "type-i-pair": "two type I rays never have touching divisors",
    "hub-pattern-pair-not-extremal":
        "a touching pair with a one-sided pairing spans a face and cannot be an E-set",
    "connected-pair-unclassifiable":
        "no positive combination works and no zero partner exists",
    "connected-triple-not-cyclic":
        "the three-element case needs all rays of type II, in a cyclic orientation with "
        "strict forward and zero backward pairings",
    "cyclic-triple-rejects-unit-combination":
        "the unit divisor sum fails to be nonnegative on some ray",
    "nonsimple-type-ii-member": "the case analysis requires simple type II rays",
    "disconnected-eset-not-pairwise-disjoint":
        "a disconnected E-set must split into single rays with pairwise non-touching divisors",
    "disjoint-eset-with-type-i": "the pairwise-disjoint case needs all rays of type II",
    "oversized-connected-eset":
        "connected E-sets of four or more rays fall outside the case analysis",
}

_T = TypeVar("_T")


def _or_raise(rel: Relations, mask: int, result: _T | str) -> _T:
    """A mask-level classifier's type, or its reason raised as a
    ClassificationFailure on the mask's rays (on the non-simple members
    alone for `nonsimple-type-ii-member`)."""
    if not isinstance(result, str):
        return result
    if result == "nonsimple-type-ii-member":
        mask &= rel.type_ii & ~rel.simple
    raise ClassificationFailure(result, rel.names(mask))


@dataclass(frozen=True)
class ClassificationReport:
    rays: frozenset
    components: tuple  # of (frozenset, ComponentType)
    failures: tuple  # of (frozenset, str)

    @property
    def passes_theorem258(self) -> bool:
        """Whether the component multiset is one of the four admissible
        shapes for a k-ray extremal set: A1 + (k-1) C:1, D2 + (k-2) C:1,
        C:2 + (k-2) C:1, or k C:1."""
        return _admissible(self.components + self.failures)


# ---------------------------------------------------------------------------
# Component classification.
# ---------------------------------------------------------------------------


def classify_component(s: RayDivisorSystem, comp: Iterable[str]) -> ComponentType:
    """Type of one contact-connected component (or a {type II, small} pair).

    Raises ClassificationFailure when no type fits."""
    mask = s.ray_mask(comp)
    if not mask:
        raise ValueError("empty component")
    return _or_raise(s.relations, mask, _component_type(s.relations, mask))


def _component_type(rel: Relations, mask: int) -> ComponentType | str:
    """`classify_component` on a nonzero mask, with the reason for a failure."""
    small = mask & ~rel.divisorial
    if small:
        if mask.bit_count() == 2 and small.bit_count() == 1:
            other = mask ^ small
            toward = rel.toward[small.bit_length() - 1][other.bit_length() - 1]
            if other & rel.type_ii and toward < 0:
                return ComponentType("E2")
            return "small-pair-not-contracting"
        return "small-ray-in-component"

    if mask.bit_count() == 1:
        return ComponentType("A1") if mask & rel.type_i else ComponentType("C", m=1)

    ks = positions(mask)
    if len(ks) == 2 and rel.column[ks[0]] == rel.column[ks[1]]:
        if not mask & rel.type_i:
            return ComponentType("B2")
        return "shared-divisor-not-type-ii"

    if mask & rel.type_i:
        if len(ks) == 2:
            if not mask & rel.type_ii:
                return "joined-type-i-pair"
            a, b = ks
            if rel.arrows[a] >> b & 1 and rel.arrows[b] >> a & 1:
                if _cone_witness(_rows(rel, ks, ks), 2, False) is None:
                    return ComponentType("D2")
                return "mixed-pair-cone-not-pointed"
            return "mixed-pair-crosses-not-positive"
        return "oversized-component-with-type-i"

    # All type II: a hub pairs zero with every spoke's divisor, every spoke
    # pairs positively with the hub's, and no two spoke divisors touch.
    hubs = [
        k
        for k in ks
        if not (others := mask ^ 1 << k) & ~rel.zeros[k]
        and all(rel.arrows[o] >> k & 1 for o in positions(others))
        and not any(rel.contact[o] & others & ~(1 << o) for o in positions(others))
    ]
    if not hubs:
        return "no-hub-ray"
    return ComponentType(
        "C", m=len(ks), hub=rel.ids[hubs[0]], hub_ambiguous=len(hubs) > 1
    )


def classify_extremal_set(s: RayDivisorSystem, rays: Iterable[str]) -> ClassificationReport:
    """Component decomposition of one extremal set, with per-component types,
    recorded failures, and the shape filter verdict."""
    rel = s.relations
    mask = s.ray_mask(rays)
    parts = [(frozenset(rel.names(m)), t) for m, t in _decompose(rel, mask)]
    return ClassificationReport(
        rays=frozenset(rel.names(mask)),
        components=tuple((m, t) for m, t in parts if not isinstance(t, str)),
        failures=tuple((m, t) for m, t in parts if isinstance(t, str)),
    )


def _decompose(rel: Relations, mask: int) -> list[tuple[int, ComponentType | str]]:
    """`classify_extremal_set` on masks: each contact component with its type
    or reason, then each small ray, which fails on its own."""
    comps = rel.components(mask & rel.divisorial)
    decomposition = [(comp, _component_type(rel, comp)) for comp in comps]
    for k in positions(mask & ~rel.divisorial):
        decomposition.append((1 << k, "small-ray-unclassified"))
    return decomposition


def _admissible(decomposition: Iterable[tuple[object, ComponentType | str]]) -> bool:
    """The Theorem 2.58 verdict on a decomposition: no reason, and at most one
    component not C:1, that one A1, D2 or C:2."""
    rest = []
    for _, t in decomposition:
        if isinstance(t, str):
            return False
        if t.label != "C:1":
            rest.append(t.label)
    return not rest or (len(rest) == 1 and rest[0] in ("A1", "D2", "C:2"))


# ---------------------------------------------------------------------------
# Feasibility conditions.
# ---------------------------------------------------------------------------


# The bound holds every matrix of a full 4-ray sweep: its classify + esets
# verdicts ask about 7,537 distinct ones, 4.9 MB of keys and witnesses.
@lru_cache(maxsize=8192)
def _cone_witness(
    rows: tuple[tuple[int | Fraction, ...], ...], nvars: int, positive: bool
) -> Optional[tuple[Fraction, ...]]:
    """A primitive integer vector m with every row . m >= 0 and m >= 0,
    m != 0 (or, when `positive`, every m_i >= 1), or None when there is none.

    Every solver question of this module is this one, and the sweeps ask it
    about the same few matrices again and again, so the answer is memoised by
    the exact rows.  Every m_i has a lower bound row, so the solver's witness
    is the lexicographic minimum (m_0 first) of the feasible set, which no
    row order, positive row scaling or repeated row changes: a remembered
    witness is the one a fresh solve would give."""
    units = [
        (tuple(int(i == j) for j in range(nvars)), int(positive))
        for i in range(nvars)
    ]
    cone = [(row, 0) for row in rows]
    if positive:
        constraints = units + cone
    else:
        constraints = cone + units + [((1,) * nvars, 1)]  # scale-invariant m != 0
    witness = solve_inequalities(constraints, nvars)
    if witness is None:
        return None
    return scale_primitive(witness)


def condition_ii_witness(
    s: RayDivisorSystem, e: Iterable[str]
) -> Optional[tuple[Fraction, ...]]:
    """The violating combination for condition (ii), if any: m >= 0, m != 0
    with every member ray pairing >= 0 against sum m_i D(R_i).  Coefficient
    order follows sorted ray ids."""
    rel = s.relations
    ks = positions(_member_mask(s, e))
    return _cone_witness(_rows(rel, ks, ks), len(ks), False)


def _rows(rel: Relations, probes: Iterable[int], ks: Sequence[int]) -> tuple:
    """One row per probe ray p: its pairings q(p, D(k)) for the rays k of ks."""
    return tuple(tuple(rel.toward[p][k] for k in ks) for p in probes)


def _member_mask(s: RayDivisorSystem, ids: Iterable[str]) -> int:
    """The mask of a nonempty set of divisorial rays, for conditions (ii)
    and (iii)."""
    mask = s.ray_mask(ids, small="carries no divisor")
    if not mask:
        raise ValueError("empty ray set")
    return mask


def check_condition_ii(s: RayDivisorSystem, e: Iterable[str]) -> bool:
    """True when every nonzero nonnegative divisor combination from the set is
    strictly negative on at least one member ray."""
    return condition_ii_witness(s, e) is None


def contact_violations(s: RayDivisorSystem) -> list[Violation]:
    """Co-facial type II pairs on distinct touching divisors that fail
    condition (ii) on the pair, in sorted id order.  With negative self
    pairings and nonnegative cross pairings this is Lemma 2.27's
    q(R1, D2) q(R2, D1) < q(R1, D1) q(R2, D2) failing.

    Kept apart from `validate`: `enumerate_sign_systems` yields exactly the
    candidates that `validate` accepts, and many of those fail this check
    once crossed with a face family.
    """
    rel = s.relations
    pairs = {
        (a, b)
        for face in s.maximal_masks
        for a in positions(face & rel.type_ii)
        for b in positions(face & rel.type_ii & rel.contact[a] & (1 << a) - 1)
        if rel.column[a] != rel.column[b]
    }
    return [
        Violation(
            "contact-product",
            (rel.ids[a], rel.ids[b]),
            "some nonzero nonnegative combination of the two divisors is nonnegative "
            "on both rays (condition (ii) fails on the pair)",
        )
        for a, b in sorted(pairs, reverse=True)  # highest bits first: sorted ids
        if _cone_witness(_rows(rel, (a, b), (a, b)), 2, False) is not None
    ]


def check_condition_iii(
    s: RayDivisorSystem, l: Iterable[str]
) -> Optional[tuple[Fraction, ...]]:
    """A nonzero nonnegative coefficient vector making sum a_i D(Q_i)
    nonnegative against every ray of the system, or None.  The all-ones
    vector is preferred when it works."""
    rel = s.relations
    return _nef_combination(rel, positions(_member_mask(s, l)))


def _nef_combination(rel: Relations, ks: Sequence[int]) -> Optional[tuple[Fraction, ...]]:
    """`check_condition_iii` on the positions of the member rays."""
    rows = _rows(rel, rel.order, ks)
    if all(sum(row) >= 0 for row in rows):
        return (Fraction(1),) * len(ks)
    return _cone_witness(rows, len(ks), False)


def condition_iii_full(
    s: RayDivisorSystem, l: Iterable[str]
) -> Optional[tuple[Fraction, ...]]:
    """The complete E-set hypothesis: every nonempty proper subset satisfies
    condition (ii), and some nonzero effective combination of the member
    divisors is nonnegative on the whole system.  Returns that combination
    (coefficients in sorted ray order) or None.

    Condition (ii) failures pass up to supersets when every cross pairing
    q(a, D(b)) between distinct members is >= 0 (on a validated system this
    fails only for a shared divisor or a negative cross pairing): a witness
    on a subset, padded with zeros, is one on every larger subset, since each
    added ray pairs >= 0 with it.  Then the k subsets of size k-1 decide the
    hypothesis and only they are solved; otherwise every size is walked."""
    rel = s.relations
    ids = sorted(set(l))
    mask = rel.mask(ids)
    if mask is None or mask & ~rel.divisorial:
        # The walk meets each unknown or small ray as a singleton, in sorted
        # order, and raises there unless a singleton before it fails (ii).
        for rid in ids:
            if not check_condition_ii(s, (rid,)):
                return None
    if not mask:
        raise ValueError("empty ray set")
    ks = positions(mask)
    sizes = range(1, len(ks))
    if _cross_pairings_nonnegative(s, ids):
        sizes = sizes[-1:]
    for size in sizes:
        for sub in combinations(ks, size):
            if _cone_witness(_rows(rel, sub, sub), size, False) is not None:
                return None
    return _nef_combination(rel, ks)


def _cross_pairings_nonnegative(s: RayDivisorSystem, ids: Sequence[str]) -> bool:
    """Whether all members are divisorial rays of `s` and q(a, D(b)) >= 0 for
    distinct members a, b.  Unknown or small rays give False, not an error,
    so the full subset walk decides such sets and raises on them."""
    rel = s.relations
    mask = rel.mask(ids)
    return mask is not None and not mask & ~rel.divisorial and all(
        not mask & ~(1 << k) & ~(rel.arrows[k] | rel.zeros[k]) for k in positions(mask)
    )


# ---------------------------------------------------------------------------
# Extremality and E-sets.
# ---------------------------------------------------------------------------


def is_extremal(s: RayDivisorSystem, subset: Iterable[str]) -> bool:
    """Whether some face contains the subset, hence some maximal face does."""
    if s._face_masks is None:
        raise ValueError("system has no face structure")
    return _extremal(s, s.ray_mask(subset))


def _extremal(s: RayDivisorSystem, mask: int) -> bool:
    return any(not mask & ~face for face in s.maximal_masks)


def find_esets(s: RayDivisorSystem, within: Iterable[str]) -> list[frozenset]:
    """All inclusion-minimal non-extremal subsets of `within`.

    A subset of W is non-extremal exactly when it meets W - F for every
    maximal face F, so these are the minimal transversals of those sets."""
    rel = s.relations
    return [frozenset(rel.names(m)) for m in _eset_masks(s, within)]


def _eset_masks(s: RayDivisorSystem, within: Iterable[str]) -> list[int]:
    """`find_esets` as masks, smallest first, ties by sorted ids."""
    if s._face_masks is None:
        raise ValueError("system has no face structure")
    # A ray is extremal on its own when some maximal face holds its bit.
    rel, covered = s.relations, 0
    for face in s.maximal_masks:
        covered |= face
    ids = sorted(set(within))
    for rid in ids:
        if rid not in rel.bit:
            raise ValueError(f"unknown ray {rid}")
        if not rel.bit[rid] & covered:
            raise ValueError(f"ray {rid} is not extremal on its own")
    if not ids:
        return []
    whole = s.ray_mask(ids)
    if s._face_maps is None:
        return _esets_by_transversals(s.maximal_masks, whole)
    return _esets_by_map(s._face_maps, whole)


def _esets_by_transversals(maximal: Iterable[int], whole: int) -> list[int]:
    """`_eset_masks` as the minimal transversals of W - F over the maximal
    faces F."""
    edges = {whole & ~face for face in maximal}
    if 0 in edges:  # W lies in a face
        return []
    return face_order(_minimal_transversals(edges))


def _esets_by_map(maps: SubsetMaps, whole: int) -> list[int]:
    """`_eset_masks` on subset maps: the subsets of W that lie in no face
    although every one-smaller subset does."""
    outside = maps.down(1 << whole) & ~maps.down(maps.faces)
    return maps.members(maps.minimal(outside))


def _minimal_transversals(edges: Iterable[int]) -> list[int]:
    """The inclusion-minimal sets meeting every edge, by Berge's method: add
    the edges one at a time, growing each transversal that misses the new
    edge by one of its bits.

    A grown set is minimal unless it contains a kept transversal, one that
    already met the edge.  Nothing else can nest: the kept ones were minimal
    before, and two grown sets are two incomparable transversals that miss
    the edge, each plus one bit of it.  A kept set inside t | b meets the
    edge in exactly b, so the kept sets are grouped by their hit on the edge
    and t | b is checked against b's group alone."""
    minimal: list[int] = []
    for edge in sorted(edges, key=int.bit_count):
        for e in minimal:
            if not e & ~edge:
                break  # an edge contained in this one implies it
        else:
            minimal.append(edge)
    found = [0]
    for edge in minimal:
        kept, missing, by_hit = [], [], {}
        for t in found:
            hit = t & edge
            if not hit:
                missing.append(t)
                continue
            kept.append(t)
            if not hit & (hit - 1):  # a single bit
                by_hit.setdefault(hit, []).append(t)
        bits, rest = [], edge
        while rest:  # lowest first
            bits.append(rest & -rest)
            rest &= rest - 1
        bits.reverse()
        for t in missing:
            for b in bits:
                group = by_hit.get(b)
                if group is None or all(k & ~(t | b) for k in group):
                    kept.append(t | b)
        found = kept
    return found


# ---------------------------------------------------------------------------
# E-set classification.
# ---------------------------------------------------------------------------


def _eset_preconditions(s: RayDivisorSystem, l: Iterable[str]) -> int:
    """The mask of a candidate E-set, after checking that it is one."""
    rel = s.relations
    mask = s.ray_mask(l)
    if mask.bit_count() < 2:
        raise ValueError("an E-set contains at least two rays")
    if mask & ~rel.divisorial:
        rid = rel.names(mask & ~rel.divisorial)[0]
        raise ValueError(f"ray {rid} is small; E-set members carry divisors")
    if s._face_masks is not None:
        if _extremal(s, mask):
            raise ValueError("the set is extremal, hence not an E-set")
        # Subsets of an extremal set are extremal, so the largest proper subsets
        # decide minimality, met in `combinations` order: lowest bit dropped first.
        for k in reversed(positions(mask)):
            if not _extremal(s, mask ^ 1 << k):
                raise ValueError(
                    f"proper subset {rel.names(mask ^ 1 << k)} is already non-extremal; "
                    "the set is not minimal"
                )
    return mask


def _case_b_witness(rel: Relations, k1: int, k2: int) -> Optional[tuple[Fraction, Fraction]]:
    """Positive m1, m2 making m1 D(R1) + m2 D(R2) nonnegative against every
    listed type I ray and every listed simple type II ray."""
    probes = rel.type_i | rel.simple
    rows = _rows(rel, (p for p in rel.order if probes >> p & 1), (k1, k2))
    return _cone_witness(rows, 2, True)


def _case_c_witness(rel: Relations, k1: int, k2: int) -> Optional[str]:
    """A simple type II partner on one member's divisor that is orthogonal to
    the other member's divisor (while the other member is positive on it)."""
    if (1 << k1 | 1 << k2) & ~rel.type_ii:
        return None
    for x, y in ((k1, k2), (k2, k1)):
        for r in positions(rel.simple & ~(1 << x)):
            if (
                rel.column[r] == rel.column[x]
                and rel.zeros[r] >> y & 1
                and rel.arrows[y] >> r & 1
            ):
                return rel.ids[r]
    return None


def _classify_connected_pair(rel: Relations, mask: int) -> EsetType | str:
    k1, k2 = positions(mask)
    if rel.column[k1] == rel.column[k2]:
        return "shared-divisor-pair"
    if not mask & rel.type_ii:
        return "type-i-pair"
    if not (rel.arrows[k1] >> k2 & 1 and rel.arrows[k2] >> k1 & 1):
        return "hub-pattern-pair-not-extremal"
    witness = _case_b_witness(rel, k1, k2)
    if witness is not None:
        return EsetType("b", m1=witness[0], m2=witness[1])
    partner = _case_c_witness(rel, k1, k2)
    if partner is not None:
        return EsetType("c", witness=partner)
    return "connected-pair-unclassifiable"


def _classify_connected_triple(rel: Relations, mask: int) -> EsetType | str:
    if mask & ~rel.type_ii:
        return "connected-triple-not-cyclic"
    arrows, zeros = rel.arrows, rel.zeros
    ks = positions(mask)
    for x, y, z in permutations(ks):
        strict = arrows[x] >> y & 1 and arrows[y] >> z & 1 and arrows[z] >> x & 1
        zero = zeros[y] >> x & 1 and zeros[z] >> y & 1 and zeros[x] >> z & 1
        if strict and zero:
            if all(sum(row) >= 0 for row in _rows(rel, rel.order, ks)):
                return EsetType("a")
            return "cyclic-triple-rejects-unit-combination"
    return "connected-triple-not-cyclic"


def classify_eset(s: RayDivisorSystem, l: Iterable[str]) -> EsetType:
    """Which of the four E-set cases the set falls into.

    Raises ClassificationFailure when the set matches none of them (the model
    instance then violates the hypotheses the case analysis needs), and
    ValueError when the set is not an E-set.
    """
    mask = _eset_preconditions(s, l)
    return _or_raise(s.relations, mask, _eset_type(s.relations, mask))


def _eset_type(rel: Relations, mask: int) -> EsetType | str:
    """`classify_eset` on the mask of an E-set, with the reason for a failure."""
    nonsimple = mask & rel.type_ii & ~rel.simple
    if nonsimple:
        return "nonsimple-type-ii-member"
    comps = rel.components(mask)
    if len(comps) > 1:
        if any(c & (c - 1) for c in comps):
            return "disconnected-eset-not-pairwise-disjoint"
        if mask & rel.type_i:
            return "disjoint-eset-with-type-i"
        return EsetType("d")
    if mask.bit_count() == 2:
        return _classify_connected_pair(rel, mask)
    if mask.bit_count() == 3:
        return _classify_connected_triple(rel, mask)
    return "oversized-connected-eset"


# ---------------------------------------------------------------------------
# Bipartition arrows (the connectivity lemma) and small-ray witnesses.
# ---------------------------------------------------------------------------


def check_lemma11(s: RayDivisorSystem, l: Iterable[str]) -> bool:
    """Whether every bipartition of the set has a crossing arrow in both
    directions, that is, whether the set's graph is strongly connected.

    The full E-set hypothesis is verified first (every proper subset
    satisfies condition (ii) and a nonzero effective nef combination of the
    member divisors exists); a set that fails it raises ValueError.
    """
    ids = sorted(set(l))
    if len(ids) < 2:
        raise ValueError("need at least two rays")
    if condition_iii_full(s, ids) is None:
        raise ValueError("the set does not satisfy the nef-combination hypothesis")
    return is_single_arrow_connected(s, ids)


def detect_e2_pairs(s: RayDivisorSystem) -> list[tuple[str, str]]:
    """All (type II ray, small ray) pairs where the small ray is strictly
    negative on the divisor, sorted."""
    rel = s.relations
    small = (1 << len(rel.ids)) - 1 & ~rel.divisorial
    pairs = ((r, k) for k in positions(small) for r in positions(rel.type_ii))
    return sorted((rel.ids[r], rel.ids[k]) for r, k in pairs if rel.toward[k][r] < 0)


# ---------------------------------------------------------------------------
# Whole-system report.
# ---------------------------------------------------------------------------


def _eset_answers(s: RayDivisorSystem) -> Iterator[tuple[list[str], EsetType | str]]:
    """Each E-set of the system's divisorial rays, as its sorted ids with its
    case or the reason it has none.  An E-set is a minimal non-extremal set
    of divisorial rays, which is all `classify_eset` checks before it
    classifies.  Raises ValueError on a system without faces."""
    rel = s.relations
    for eset in _eset_masks(s, rel.names(rel.divisorial)):
        yield rel.names(eset), _eset_type(rel, eset)


def classify_report(s: RayDivisorSystem) -> dict:
    """Classify every maximal face and every E-set of the system.

    The result is JSON-shaped: component types per maximal face, E-set cases,
    and all recorded classification failures.
    """
    rel = s.relations
    components: list[dict] = []
    esets: list[dict] = []
    failures: list[dict] = []
    maximal: list[dict] = []
    if s._face_masks is not None:
        answers: dict[int, ComponentType | str] = {}  # the first face's answer wins
        for face in filter(None, s.maximal_masks):
            decomposition = _decompose(rel, face)
            maximal.append(
                {"rays": rel.names(face), "passes_theorem258": _admissible(decomposition)}
            )
            for comp, answer in decomposition:
                answers.setdefault(comp, answer)
        named = ((rel.names(comp), answer) for comp, answer in answers.items())
        for ids, answer in chain(named, _eset_answers(s)):
            if isinstance(answer, str):
                failures.append({"rays": ids, "reason": answer})
            elif isinstance(answer, ComponentType):
                components.append({"rays": ids, "type": answer.label})
            else:
                esets.append({"rays": ids, "case": answer.kind, "witness": answer.to_json()})

    components.sort(key=lambda c: c["rays"])
    return {
        "components": components,
        "esets": esets,
        "failures": failures,
        "maximal_sets": maximal,
        "e2_pairs": [list(p) for p in detect_e2_pairs(s)],
    }


def esets_report(s: RayDivisorSystem) -> dict:
    """Every E-set of the system's divisorial rays, with its case or failure,
    condition (ii) on the members, the condition (iii) combination and, when
    there is one, whether Lemma 11's arrows cross every bipartition.

    The result is JSON-shaped, the twin of `classify_report`.  Each E-set is
    asked each question once: with the combination known, the arrows are all
    `check_lemma11` has left to ask.
    """
    entries: list[dict] = []
    for ids, etype in _eset_answers(s):
        entry: dict = {"rays": ids}
        if isinstance(etype, str):
            entry["failure"] = etype
        else:
            entry["case"] = etype.kind
            entry["witness"] = etype.to_json()
        entry["condition_ii_members"] = check_condition_ii(s, ids)
        full = condition_iii_full(s, ids)
        entry["condition_iii_full"] = (
            None if full is None else [format_rational(c) for c in full]
        )
        if full is not None:
            entry["bipartition_arrows"] = is_single_arrow_connected(s, ids)
        entries.append(entry)
    return {"esets": entries}
