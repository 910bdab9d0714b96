"""Classification machinery over ray-divisor systems.

This module decides the component types of extremal sets, the two cone
feasibility conditions used throughout the bound engines, extremality and
minimal non-extremal ("E-") sets against an explicit face structure, the
four-case classification of E-sets, the bipartition-arrow connectivity check,
and the witness searches involving small rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .core import (
    format_rational,
    rational,
    scale_primitive,
    solve_inequalities,
)
from .raysystem import (
    Ray,
    RayDivisorSystem,
    RayType,
    divisorial_components,
    is_simple_ray,
    is_single_arrow_connected,
    iter_bits,
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

    This is a first-class result: callers that aggregate reports catch it and
    record which hypothesis failed for which rays.
    """

    def __init__(self, reason: str, rays: Iterable[str], detail: str = ""):
        self.reason = reason
        self.rays = tuple(sorted(rays))
        self.detail = detail
        msg = f"{reason} [{', '.join(self.rays)}]"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class ClassificationReport:
    rays: frozenset
    components: tuple  # of (frozenset, ComponentType)
    failures: tuple  # of (frozenset, str)

    @property
    def passes_theorem258(self) -> bool:
        return theorem258_filter(self, len(self.rays))


# ---------------------------------------------------------------------------
# Component classification.
# ---------------------------------------------------------------------------


def _rays_by_id(s: RayDivisorSystem, ids: Iterable[str]) -> list[Ray]:
    return [s.ray(rid) for rid in sorted(set(ids))]


def classify_component(s: RayDivisorSystem, comp: Iterable[str]) -> ComponentType:
    """Type of one contact-connected component (or a {type II, small} pair)."""
    members = _rays_by_id(s, comp)
    if not members:
        raise ValueError("empty component")

    smalls = [r for r in members if r.type is RayType.SMALL]
    if smalls:
        if len(members) == 2 and len(smalls) == 1:
            other = next(r for r in members if r.type is not RayType.SMALL)
            if other.type is RayType.II and s.q(smalls[0].id, other.divisor) < 0:
                return ComponentType("E2")
            raise ClassificationFailure(
                "small-pair-not-contracting",
                (r.id for r in members),
                "a {type II, small} pair needs the small ray negative on the divisor",
            )
        raise ClassificationFailure(
            "small-ray-in-component",
            (r.id for r in members),
            "small rays only classify inside a dedicated pair",
        )

    if len(members) == 1:
        only = members[0]
        if only.type is RayType.I:
            return ComponentType("A1")
        return ComponentType("C", m=1)

    types = {r.type for r in members}
    divisors = {r.divisor for r in members}

    if len(members) == 2 and len(divisors) == 1:
        if types == {RayType.II}:
            return ComponentType("B2")
        raise ClassificationFailure(
            "shared-divisor-not-type-ii",
            (r.id for r in members),
            "only two type II rays may share a divisor",
        )

    if RayType.I in types:
        if len(members) == 2:
            if types == {RayType.I}:
                raise ClassificationFailure(
                    "joined-type-i-pair",
                    (r.id for r in members),
                    "two type I rays never have touching divisors in a valid "
                    "system",
                )
            s2 = next(r for r in members if r.type is RayType.I)
            s1 = next(r for r in members if r.type is RayType.II)
            if s.q(s1.id, s2.divisor) > 0 and s.q(s2.id, s1.divisor) > 0:
                if d2_condition(s, s1.id, s2.id):
                    return ComponentType("D2")
                raise ClassificationFailure(
                    "mixed-pair-cone-not-pointed",
                    (r.id for r in members),
                    "some nonnegative divisor combination is nonnegative on both rays",
                )
            raise ClassificationFailure(
                "mixed-pair-crosses-not-positive",
                (r.id for r in members),
                "a touching type II / type I pair needs both cross pairings positive",
            )
        raise ClassificationFailure(
            "oversized-component-with-type-i",
            (r.id for r in members),
            "no component type admits a type I ray among 3 or more rays",
        )

    # All type II on pairwise distinct divisors: hub-and-spokes or nothing.
    hubs = []
    for cand in members:
        others = [r for r in members if r.id != cand.id]
        if any(s.q(cand.id, o.divisor) != 0 for o in others):
            continue
        if any(s.q(o.id, cand.divisor) <= 0 for o in others):
            continue
        if any(
            s.joined(a.divisor, b.divisor)
            for a, b in combinations(others, 2)
        ):
            continue
        hubs.append(cand.id)
    if not hubs:
        raise ClassificationFailure(
            "no-hub-ray",
            (r.id for r in members),
            "no ray has all spokes positive on its divisor, zero back, and "
            "pairwise non-touching spoke divisors",
        )
    hubs.sort()
    return ComponentType(
        "C", m=len(members), hub=hubs[0], hub_ambiguous=len(hubs) > 1
    )


def d2_condition(s: RayDivisorSystem, s1: str, s2: str) -> bool:
    """No nonzero nonnegative combination of the two divisors pairs >= 0 with
    both rays.  With negative self pairings and positive crosses this is a
    2x2 determinant sign."""
    r1, r2 = s.ray(s1), s.ray(s2)
    if r1.type is not RayType.II or r2.type is not RayType.I:
        raise ValueError("expected (type II, type I) in that order")
    q11 = s.q(s1, r1.divisor)
    q12 = s.q(s1, r2.divisor)
    q21 = s.q(s2, r1.divisor)
    q22 = s.q(s2, r2.divisor)
    if q11 >= 0 or q22 >= 0 or q12 <= 0 or q21 <= 0:
        raise ValueError(
            "need negative self pairings and positive crosses, got "
            f"({q11}, {q12}; {q21}, {q22})"
        )
    # The axis generators fail on the negative diagonal; an interior witness
    # exists exactly when the determinant is <= 0.
    return q11 * q22 - q12 * q21 > 0


def classify_extremal_set(s: RayDivisorSystem, rays: Iterable[str]) -> ClassificationReport:
    """Component decomposition of one extremal set, with per-component types,
    recorded failures, and the shape filter verdict."""
    ids = sorted(set(rays))
    divisorial = [rid for rid in ids if s.ray(rid).is_divisorial]
    small = [rid for rid in ids if not s.ray(rid).is_divisorial]
    components: list[tuple[frozenset, ComponentType]] = []
    failures: list[tuple[frozenset, str]] = []
    for comp in divisorial_components(s, divisorial):
        try:
            components.append((comp, classify_component(s, comp)))
        except ClassificationFailure as fail:
            failures.append((comp, fail.reason))
    for rid in small:
        failures.append((frozenset((rid,)), "small-ray-unclassified"))
    return ClassificationReport(
        rays=frozenset(ids), components=tuple(components), failures=tuple(failures)
    )


def theorem258_filter(report: ClassificationReport, k: int) -> bool:
    """Whether the component multiset is one of the four admissible shapes
    for a k-element extremal set: A1 + (k-1) C:1, D2 + (k-2) C:1,
    C:2 + (k-2) C:1, or k C:1."""
    total = sum(len(c) for c, _ in report.components) + sum(
        len(c) for c, _ in report.failures
    )
    if total != k:
        raise ValueError(f"report covers {total} rays, filter called with k={k}")
    if report.failures:
        return False
    labels = sorted(t.label for _, t in report.components)
    singles = [lab for lab in labels if lab == "C:1"]
    rest = [lab for lab in labels if lab != "C:1"]
    if not rest:
        return True  # k C:1 (including k = 0)
    if len(rest) != 1:
        return False
    return rest[0] in ("A1", "D2", "C:2")


# ---------------------------------------------------------------------------
# Feasibility conditions.
# ---------------------------------------------------------------------------


# The bound holds every matrix of a full 4-ray sweep: its classify + esets
# verdicts ask about 7,537 distinct ones, 4.9 MB of keys and witnesses.
@lru_cache(maxsize=8192)
def _cone_witness(
    rows: tuple[tuple[Fraction, ...], ...], nvars: int, positive: bool
) -> Optional[tuple[Fraction, ...]]:
    """A primitive integer vector m with every row . m >= 0 and m >= 0,
    m != 0 (or, when `positive`, every m_i >= 1), or None when there is none.

    Every solver question of this module is this one, and the sweeps ask it
    about the same few matrices again and again, so the answer is memoised by
    the exact rows.  Fourier-Motzkin is deterministic in its constraints, so a
    remembered witness is the one a fresh solve would give."""
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
    ids = sorted(set(e))
    if not ids:
        raise ValueError("empty ray set")
    for rid in ids:
        if not s.ray(rid).is_divisorial:
            raise ValueError(f"ray {rid} is small and carries no divisor")
    cols = [s.divisor_of(rid) for rid in ids]
    rows = tuple(tuple(s.q(rid, d) for d in cols) for rid in ids)
    return _cone_witness(rows, len(ids), False)


def check_condition_ii(s: RayDivisorSystem, e: Iterable[str]) -> bool:
    """True when every nonzero nonnegative divisor combination from the set is
    strictly negative on at least one member ray."""
    return condition_ii_witness(s, e) is None


def accepts_nef_combination(
    s: RayDivisorSystem, rays: Sequence[str], coeffs: Sequence[object]
) -> bool:
    """Whether sum coeffs_i * D(rays_i) is >= 0 against every listed ray
    (coeffs must be >= 0 and not all zero)."""
    ids = list(rays)
    values = [rational(c) for c in coeffs]
    if len(ids) != len(values):
        raise ValueError("coefficient count does not match rays")
    if any(v < 0 for v in values) or all(v == 0 for v in values):
        return False
    cols = [s.divisor_of(rid) for rid in ids]
    for probe in s.ray_ids:
        total = sum(
            (v * s.q(probe, d) for v, d in zip(values, cols)), Fraction(0)
        )
        if total < 0:
            return False
    return True


def check_condition_iii(
    s: RayDivisorSystem, l: Iterable[str]
) -> Optional[tuple[Fraction, ...]]:
    """A nonzero nonnegative coefficient vector making sum a_i D(Q_i)
    nonnegative against every ray of the system, or None.  The all-ones
    vector is preferred when it works."""
    ids = sorted(set(l))
    if not ids:
        raise ValueError("empty ray set")
    for rid in ids:
        if not s.ray(rid).is_divisorial:
            raise ValueError(f"ray {rid} is small and carries no divisor")
    cols = [s.divisor_of(rid) for rid in ids]
    rows = tuple(tuple(s.q(probe, d) for d in cols) for probe in s.ray_ids)
    if all(sum(row) >= 0 for row in rows):
        return (Fraction(1),) * len(ids)
    return _cone_witness(rows, len(ids), False)


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
    ids = sorted(set(l))
    sizes = range(1, len(ids))
    if _cross_pairings_nonnegative(s, ids):
        sizes = sizes[-1:]
    for size in sizes:
        for sub in combinations(ids, size):
            if not check_condition_ii(s, sub):
                return None
    return check_condition_iii(s, ids)


def _cross_pairings_nonnegative(s: RayDivisorSystem, ids: Sequence[str]) -> bool:
    """Whether all members are divisorial rays of `s` and q(a, D(b)) >= 0 for
    distinct members a, b.  Unknown or small rays give False, not an error,
    so the full subset walk decides such sets and raises on them."""
    try:
        rays = [s.ray(rid) for rid in ids]
        return all(r.is_divisorial for r in rays) and all(
            s.q(a.id, b.divisor) >= 0 for a in rays for b in rays if a is not b
        )
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Extremality and E-sets.
# ---------------------------------------------------------------------------


def is_extremal(s: RayDivisorSystem, subset: Iterable[str]) -> bool:
    """Whether some face contains the subset, hence some maximal face does."""
    if s.faces is None:
        raise ValueError("system has no face structure")
    want = s.ray_mask(subset)
    return any(not want & ~face for face in s.maximal_masks)


def find_esets(s: RayDivisorSystem, within: Iterable[str]) -> list[frozenset]:
    """All inclusion-minimal non-extremal subsets of `within`.

    A subset of W is non-extremal exactly when it meets W - F for every
    maximal face F, so these are the minimal transversals of those sets."""
    if s.faces is None:
        raise ValueError("system has no face structure")
    ids = sorted(set(within))
    for rid in ids:
        if not is_extremal(s, (rid,)):
            raise ValueError(f"ray {rid} is not extremal on its own")
    if not ids:
        return []
    whole = s.ray_mask(ids)
    edges = {whole & ~face for face in s.maximal_masks}
    if 0 in edges:  # W lies in a face
        return []
    return s.masks_to_sets(_minimal_transversals(edges))


def _minimal_transversals(edges: Iterable[int]) -> list[int]:
    """The inclusion-minimal sets meeting every edge, by Berge's method: add
    the edges one at a time, growing each transversal that misses the new
    edge by one of its bits.

    A grown set is minimal unless it contains a kept transversal, one that
    already met the edge.  Nothing else can nest: the kept ones were minimal
    before, and two grown sets are two incomparable transversals that miss
    the edge, each plus one bit of it."""
    minimal: list[int] = []
    for edge in sorted(edges, key=int.bit_count):
        if any(not e & ~edge for e in minimal):
            continue  # an edge contained in this one implies it
        minimal.append(edge)
    found = [0]
    for edge in minimal:
        kept = [t for t in found if t & edge]
        grown = [t | b for t in found if not t & edge for b in iter_bits(edge)]
        found = kept + [g for g in grown if all(k & ~g for k in kept)]
    return found


# ---------------------------------------------------------------------------
# E-set classification.
# ---------------------------------------------------------------------------


def _eset_preconditions(s: RayDivisorSystem, l: Iterable[str]) -> list[Ray]:
    members = _rays_by_id(s, l)
    if len(members) < 2:
        raise ValueError("an E-set contains at least two rays")
    for r in members:
        if not r.is_divisorial:
            raise ValueError(f"ray {r.id} is small; E-set members carry divisors")
    if s.faces is not None:
        ids = [r.id for r in members]
        if is_extremal(s, ids):
            raise ValueError("the set is extremal, hence not an E-set")
        # Subsets of an extremal set are extremal, so the largest proper
        # subsets decide minimality.
        for sub in combinations(ids, len(ids) - 1):
            if not is_extremal(s, sub):
                raise ValueError(
                    f"proper subset {sorted(sub)} is already non-extremal; "
                    "the set is not minimal"
                )
    return members


def _case_b_witness(
    s: RayDivisorSystem, r1: Ray, r2: Ray
) -> Optional[tuple[Fraction, Fraction]]:
    """Positive m1, m2 making m1 D(R1) + m2 D(R2) nonnegative against every
    listed type I ray and every listed simple type II ray."""
    probes = []
    for r in s.rays:
        if r.type is RayType.I:
            probes.append(r.id)
        elif r.type is RayType.II and is_simple_ray(s, r.id):
            probes.append(r.id)
    rows = tuple((s.q(rid, r1.divisor), s.q(rid, r2.divisor)) for rid in probes)
    return _cone_witness(rows, 2, True)


def _case_c_witness(s: RayDivisorSystem, r1: Ray, r2: Ray) -> Optional[str]:
    """A simple type II partner on one member's divisor that is orthogonal to
    the other member's divisor (while the other member is positive on it)."""
    for x, y in ((r1, r2), (r2, r1)):
        if x.type is not RayType.II or y.type is not RayType.II:
            continue
        partners = sorted(
            r.id
            for r in s.rays
            if r.id != x.id
            and r.type is RayType.II
            and r.divisor == x.divisor
            and is_simple_ray(s, r.id)
            and s.q(r.id, y.divisor) == 0
            and s.q(y.id, r.divisor) > 0
        )
        if partners:
            return partners[0]
    return None


def _classify_connected_pair(s: RayDivisorSystem, r1: Ray, r2: Ray) -> EsetType:
    if r1.divisor == r2.divisor:
        raise ClassificationFailure(
            "shared-divisor-pair",
            (r1.id, r2.id),
            "a shared-divisor pair spans a face and cannot be an E-set",
        )
    types = {r1.type, r2.type}
    if types == {RayType.I}:
        raise ClassificationFailure(
            "type-i-pair",
            (r1.id, r2.id),
            "two type I rays never have touching divisors",
        )
    cross12 = s.q(r1.id, r2.divisor)
    cross21 = s.q(r2.id, r1.divisor)
    if cross12 <= 0 or cross21 <= 0:
        raise ClassificationFailure(
            "hub-pattern-pair-not-extremal",
            (r1.id, r2.id),
            "a touching pair with a one-sided pairing spans a face and cannot "
            "be an E-set",
        )
    witness = _case_b_witness(s, r1, r2)
    if witness is not None:
        return EsetType("b", m1=witness[0], m2=witness[1])
    partner = _case_c_witness(s, r1, r2)
    if partner is not None:
        return EsetType("c", witness=partner)
    raise ClassificationFailure(
        "connected-pair-unclassifiable",
        (r1.id, r2.id),
        "no positive combination works and no zero partner exists",
    )


def _classify_connected_triple(s: RayDivisorSystem, members: list[Ray]) -> EsetType:
    if any(r.type is not RayType.II for r in members):
        raise ClassificationFailure(
            "connected-triple-not-cyclic",
            (r.id for r in members),
            "the three-element case needs all rays of type II",
        )
    ids = [r.id for r in members]
    for order in permutations(ids):
        x, y, z = order
        strict = (
            s.q(x, s.divisor_of(y)) > 0
            and s.q(y, s.divisor_of(z)) > 0
            and s.q(z, s.divisor_of(x)) > 0
        )
        zero = (
            s.q(y, s.divisor_of(x)) == 0
            and s.q(z, s.divisor_of(y)) == 0
            and s.q(x, s.divisor_of(z)) == 0
        )
        if strict and zero:
            ones = (Fraction(1),) * 3
            if accepts_nef_combination(s, sorted(ids), ones):
                return EsetType("a")
            raise ClassificationFailure(
                "cyclic-triple-rejects-unit-combination",
                ids,
                "the unit divisor sum fails to be nonnegative on some ray",
            )
    raise ClassificationFailure(
        "connected-triple-not-cyclic",
        ids,
        "no cyclic orientation has strict forward and zero backward pairings",
    )


def classify_eset(s: RayDivisorSystem, l: Iterable[str]) -> EsetType:
    """Which of the four E-set cases the set falls into.

    Raises ClassificationFailure when the set matches none of them (the model
    instance then violates the hypotheses the case analysis needs).
    """
    members = _eset_preconditions(s, l)
    nonsimple = [
        r.id
        for r in members
        if r.type is RayType.II and not is_simple_ray(s, r.id)
    ]
    if nonsimple:
        raise ClassificationFailure(
            "nonsimple-type-ii-member",
            nonsimple,
            "the case analysis requires simple type II rays",
        )
    comps = divisorial_components(s, [r.id for r in members])
    if len(comps) > 1:
        if any(len(c) > 1 for c in comps):
            raise ClassificationFailure(
                "disconnected-eset-not-pairwise-disjoint",
                (r.id for r in members),
                "a disconnected E-set must split into single rays with "
                "pairwise non-touching divisors",
            )
        if any(r.type is not RayType.II for r in members):
            raise ClassificationFailure(
                "disjoint-eset-with-type-i",
                (r.id for r in members),
                "the pairwise-disjoint case needs all rays of type II",
            )
        return EsetType("d")
    if len(members) == 2:
        return _classify_connected_pair(s, members[0], members[1])
    if len(members) == 3:
        return _classify_connected_triple(s, members)
    raise ClassificationFailure(
        "oversized-connected-eset",
        (r.id for r in members),
        "connected E-sets of four or more rays fall outside the case analysis",
    )


# ---------------------------------------------------------------------------
# Bipartition arrows (the connectivity lemma) and small-ray witnesses.
# ---------------------------------------------------------------------------


def check_lemma11(
    s: RayDivisorSystem,
    l: Iterable[str],
    certificate: Optional[Sequence[object]] = None,
) -> bool:
    """Whether every bipartition of the set has a crossing arrow in both
    directions, that is, whether the set's graph is strongly connected.

    Without a certificate the full E-set hypothesis is verified first (every
    proper subset satisfies condition (ii) and a nonzero effective nef
    combination of the member divisors exists); a supplied certificate is
    trusted as that hypothesis and is not re-verified.
    """
    ids = sorted(set(l))
    if len(ids) < 2:
        raise ValueError("need at least two rays")
    if certificate is None:
        if condition_iii_full(s, ids) is None:
            raise ValueError(
                "the set does not satisfy the nef-combination hypothesis"
            )
    return is_single_arrow_connected(s, ids)


def detect_e2_pairs(s: RayDivisorSystem) -> list[tuple[str, str]]:
    """All (type II ray, small ray) pairs where the small ray is strictly
    negative on the divisor."""
    out = []
    for small in s.small_rays:
        for r in s.divisorial_rays:
            if r.type is RayType.II and s.q(small.id, r.divisor) < 0:
                out.append((r.id, small.id))
    return sorted(out)


def lemma251_witness(
    s: RayDivisorSystem, e: Sequence[str]
) -> Optional[tuple[str, int]]:
    """A small ray that blocks extremality of a pairwise-disjoint type II set:
    negative against anticanonical-plus-one-divisor and zero on the others.
    Returns (small ray id, 1-based index of the distinguished member)."""
    if s.anticanonical is None:
        raise ValueError("anticanonical column required")
    if not s.fano_mode:
        raise ValueError("witness search applies to fano_mode systems")
    ids = list(e)
    members = [s.ray(rid) for rid in ids]
    for r in members:
        if r.type is not RayType.II:
            raise ValueError(f"ray {r.id} must have type II")
    for a, b in combinations(members, 2):
        if s.joined(a.divisor, b.divisor):
            raise ValueError(
                f"divisors of {a.id} and {b.id} touch; the set must be pairwise disjoint"
            )
    for small in s.small_rays:
        degrees = [s.q(small.id, r.divisor) for r in members]
        for i, r in enumerate(members):
            if s.anticanonical_degree(small.id) + degrees[i] >= 0:
                continue
            if all(degrees[j] == 0 for j in range(len(members)) if j != i):
                return (small.id, i + 1)
    return None


# ---------------------------------------------------------------------------
# Whole-system report.
# ---------------------------------------------------------------------------


def classify_report(s: RayDivisorSystem) -> dict:
    """Classify every maximal face and every E-set of the system.

    The result is JSON-shaped: component types per maximal face, E-set cases,
    and all recorded classification failures.
    """
    components: list[dict] = []
    esets: list[dict] = []
    failures: list[dict] = []
    maximal: list[dict] = []

    if s.faces is not None:
        seen: set = set()
        for face in filter(None, s.maximal_faces):
            report = classify_extremal_set(s, face)
            maximal.append(
                {
                    "rays": sorted(face),
                    "passes_theorem258": report.passes_theorem258,
                }
            )
            for comp, ctype in report.components:
                if comp in seen:
                    continue
                seen.add(comp)
                components.append({"rays": sorted(comp), "type": ctype.label})
            for comp, reason in report.failures:
                if comp in seen:
                    continue
                seen.add(comp)
                failures.append({"rays": sorted(comp), "reason": reason})

        divisorial = [r.id for r in s.divisorial_rays]
        for eset in find_esets(s, divisorial):
            try:
                etype = classify_eset(s, eset)
                esets.append(
                    {
                        "rays": sorted(eset),
                        "case": etype.kind,
                        "witness": etype.to_json(),
                    }
                )
            except ClassificationFailure as fail:
                failures.append({"rays": sorted(eset), "reason": fail.reason})

    components.sort(key=lambda c: c["rays"])
    return {
        "components": components,
        "esets": esets,
        "failures": failures,
        "maximal_sets": maximal,
        "e2_pairs": [list(p) for p in detect_e2_pairs(s)],
    }
