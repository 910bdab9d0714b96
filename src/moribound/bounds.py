"""Weighted-angle bound engine over simple polytopes.

The machinery: weight rules assigning a rational to each oriented angle from a
combinatorial distance, the self-referential dimension inequality and its
resolution by bisection, the linear face-dimension bound, oriented-angle
enumeration on simple polytopes, the per-vertex / per-2-face weight-sum
verifier with its inequality-chain audit, and the full diagram pipeline that
ties a ray-divisor system to a polytope cross-section and extracts the
dimension bound or a structured counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .core import (INF, KINDS, format_rational, integral, mask_names, positions, rational,
                   to_json, walk)
from .polytope import CombinatorialPolytope, PolytopeError, polytope_from_json
from .raysystem import RayDivisorSystem, graph_nodes, system_from_json
from .structure import condition_iii_full, find_esets, is_extremal
from .realized import RealizedModel, _check_realizes, is_simple_in_face, model_from_json


# ---------------------------------------------------------------------------
# Weight rules.
# ---------------------------------------------------------------------------


def check_band_width(d: int) -> None:
    """Raise ValueError unless the band width d is at least 1."""
    if d < 1:
        raise ValueError("band width d must be at least 1")


@dataclass(frozen=True)
class Theorem12Rule:
    """Two-band rule: 2/3 up to distance d, 1/2 up to 2d+1, then 0."""

    d: int
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_band_width(self.d)
        object.__setattr__(self, "table", (
            ((1, self.d), Fraction(2, 3)),
            ((self.d + 1, 2 * self.d + 1), Fraction(1, 2)),
        ))

    def describe(self) -> str:
        return f"Theorem12Rule(d={self.d})"


@dataclass(frozen=True)
class Theorem258Rule:
    """Contact-only rule: 2/3 at distance exactly 1, otherwise 0."""

    table = (((1, 1), Fraction(2, 3)),)

    def describe(self) -> str:
        return "Theorem258Rule"


def sigma(rule: Theorem12Rule | Theorem258Rule, dist: object) -> Fraction:
    """Weight of an oriented angle whose sides sit at the given distance: that
    of the first band of the rule's table holding it, else 0."""
    for (lo, hi), weight in rule.table:
        if lo <= dist <= hi:
            return weight
    return Fraction(0)


# ---------------------------------------------------------------------------
# The dimension inequality.
# ---------------------------------------------------------------------------


def _lemma14_rhs(n: int, c: Fraction, d: Fraction) -> object:
    """Right-hand side of the dimension inequality at a given n (INF at 1,
    where the odd branch degenerates)."""
    if n == 1:
        return INF
    if n % 2 == 0:
        return 8 * c + 6 + 8 * d / n
    return 8 * c + 5 + (8 * c + 8 * d) / (n - 1)


def lemma14_max_n(c: object, d: object) -> int:
    """Largest n >= 1 satisfying the parity-dependent strict inequality
    n < 8C + 5 + (1 + 8D/n | (8C+8D)/(n-1)).

    n = 1 always admits.  Within one parity the left side grows and the right
    side does not for n >= 2, so the admissible n of each parity are a
    prefix, found by bisection.  Past 8C + 8D + 16 both right-hand sides stay
    below n, which bounds the search.
    """
    cc, dd = rational(c), rational(d)
    if cc < 0 or dd < 0:
        raise ValueError("constants must be nonnegative")
    horizon = math.ceil(8 * cc + 8 * dd + 16)
    best = 1
    for first in (2, 3):
        # The admitted n of this parity are first + 2j for j < lo, bisected on
        # plain integers: a range past sys.maxsize cannot be indexed.
        lo, hi = 0, (horizon - first) // 2 + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if first + 2 * mid < _lemma14_rhs(first + 2 * mid, cc, dd):
                lo = mid + 1
            else:
                hi = mid
        best = max(best, first + 2 * lo - 2)  # first - 2 <= 1 when none is admitted
    return best


def theorem12_bound(c1: object, c2: object) -> Fraction:
    """The linear face-dimension bound (16/3) C1 + 4 C2 + 6."""
    a, b = rational(c1), rational(c2)
    if a < 0 or b < 0:
        raise ValueError("constants must be nonnegative")
    return Fraction(16, 3) * a + 4 * b + 6


def max_integer_below(q: object) -> int:
    """Largest integer strictly less than q."""
    return math.ceil(rational(q)) - 1


# ---------------------------------------------------------------------------
# Oriented angles.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def enumerate_angles(p: CombinatorialPolytope) -> tuple:
    """The oriented angles of the last simple polytope asked, as integer
    rows: per vertex, in vertex order, the vertex and its facet pairs
    (f, g), f before g in facet order, each with the vertex mask of its
    2-face.  A pair stands for the two angles (f, g) and (g, f).  The
    2-face is the AND of the masks of the vertex's other facets; on a simple
    polytope it is a 2-face exactly when those are all the facets through
    it.  The rows are kept by value: equal polytopes have the same ids,
    types included.  A refusal raises again on every call."""
    if not p.is_simple:
        raise PolytopeError("angles are defined on simple polytopes only")
    top = (1 << len(p._ids)) - 1
    rows = []
    for v in p.vertices:
        through = p._lattice[p._bit[v]][0]
        pairs = []
        for f, g in combinations(through, 2):
            others = tuple(i for i in through if i != f and i != g)
            face = top
            for i in others:
                face &= p._facet_masks[i]
            if p._lattice[face][0] != others:  # face holds v, so it is listed
                raise PolytopeError(f"facet complement at vertex {v!r} does not cut a 2-face")
            pairs.append((f, g, face))
        rows.append((v, tuple(pairs)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    n: int
    c: Fraction
    d: Fraction
    vertex_sums: dict
    face_sums: dict  # plane frozenset -> Fraction
    condition1_holds: bool
    condition2_holds: bool
    failing_vertices: tuple
    failing_faces: tuple
    implied_bound: dict
    chain: dict
    rule: Optional[str] = None
    empirical_c1: Optional[Fraction] = None
    empirical_c2: Optional[Fraction] = None
    replay: Optional[dict] = None
    eset_audit: Optional[tuple] = None
    counterexamples: Optional[tuple] = None
    conforming: Optional[bool] = None

    @property
    def conditions_hold(self) -> bool:
        return self.condition1_holds and self.condition2_holds

    def to_json(self) -> dict:
        def fmt(x):
            if isinstance(x, bool):
                return x
            if x == INF:
                return "inf"
            return format_rational(x) if isinstance(x, (Fraction, int)) else x

        out = {
            "n": self.n,
            "C": fmt(self.c),
            "D": fmt(self.d),
            "vertex_sums": {str(v): fmt(s) for v, s in sorted(
                self.vertex_sums.items(), key=lambda kv: str(kv[0])
            )},
            "face_sums": [
                {"face": face, "k": k, "sum": format_rational(s)}
                for face, k, s in sorted(
                    ((sorted(map(str, plane)), len(plane), s)
                     for plane, s in self.face_sums.items()),
                    key=itemgetter(0),
                )
            ],
            "condition1_holds": self.condition1_holds,
            "condition2_holds": self.condition2_holds,
            "conditions_hold": self.conditions_hold,
            "failing_vertices": [str(v) for v in self.failing_vertices],
            "failing_faces": [sorted(str(v) for v in f) for f in self.failing_faces],
            "implied_bound": {k: fmt(v) for k, v in self.implied_bound.items()},
            "chain": {k: fmt(v) for k, v in self.chain.items()},
        }
        if self.rule is not None:
            out["rule"] = self.rule
        if self.empirical_c1 is not None:
            out["empirical_C1"] = fmt(self.empirical_c1)
        if self.empirical_c2 is not None:
            out["empirical_C2"] = fmt(self.empirical_c2)
        if self.replay is not None:
            out["replay"] = {k: fmt(v) for k, v in self.replay.items()}
        if self.eset_audit is not None:
            out["eset_audit"] = [
                {k: fmt(v) if not isinstance(v, (list, tuple)) else v for k, v in entry.items()}
                for entry in self.eset_audit
            ]
        if self.counterexamples is not None:
            out["counterexamples"] = list(self.counterexamples)
        if self.conforming is not None:
            out["conforming"] = self.conforming
        return out


def verify_lemma14(
    p: CombinatorialPolytope,
    weights: dict,
    c: object,
    d: object,
) -> BoundReport:
    """Check the two weight-sum conditions on a simple polytope and audit the
    inequality chain they feed.

    Condition (1): at every vertex the oriented-angle weights sum to at most
    C n + D.  Condition (2): on every 2-face with k vertices they sum to at
    least 5 - k.  The chain audit recomputes
    (C n + D) alpha_0 >= total >= alpha_2 (5 - average k).

    `weights` is keyed by oriented angle `(vertex, side1, side2)`, the two
    side facets by index, and read in the order of the `enumerate_angles`
    rows: per facet pair (f, g) of a vertex, (vertex, f, g) and then
    (vertex, g, f).  The weights become integer numerators over their common
    denominator, and `_bound_report`, which `diagram_pipeline` shares, sums
    them on the rows.
    """
    rows = enumerate_angles(p)
    cc, dd = rational(c), rational(d)
    try:
        ws = [rational(weights[key]) for v, pairs in rows for f, g, _ in pairs
              for key in ((v, f, g), (v, g, f))]
    except KeyError as exc:
        raise ValueError(f"missing weight for angle {exc.args[0]}") from None
    ints, den = integral(ws)
    nums = iter(ints)
    # Consecutive angles are the two orders of one pair.
    return _bound_report(p, rows, map(sum, zip(nums, nums)), den, cc, dd)


def _bound_report(p: CombinatorialPolytope, rows: tuple, nums: Iterable[int], den: int,
                  c: Fraction, d: Fraction) -> BoundReport:
    """The `verify_lemma14` report from `nums`, one integer weight numerator
    over `den` per facet pair of the `enumerate_angles` rows (its two angles
    together), in row order.  The 2-face sums are kept by mask and keyed by
    vertex set once, at the end, from one decode."""
    n = p.dim
    planes = dict(zip(p._by_dim[2] if n > 1 else (), p.faces(2)))  # 2-face mask -> vertex set
    vertex_nums, face_nums = {}, dict.fromkeys(planes, 0)
    nums = iter(nums)
    for v, pairs in rows:
        at_v = 0
        for (_, _, face), num in zip(pairs, nums):  # pairs first: no num is skipped
            at_v += num
            face_nums[face] += num
        vertex_nums[v] = at_v
    vertex_sums = {v: Fraction(s, den) for v, s in vertex_nums.items()}
    face_sums = {planes[f]: Fraction(s, den) for f, s in face_nums.items()}
    total = Fraction(sum(vertex_nums.values()), den)

    budget = c * n + d
    failing_vertices = tuple(
        v for v in p.vertices if vertex_sums[v] > budget
    )
    failing_faces = tuple(
        sorted(
            (f for f in face_sums if face_sums[f] < 5 - len(f)),
            key=lambda f: sorted(str(v) for v in f),
        )
    )
    alpha0 = len(p.vertices)
    alpha2 = len(face_sums)
    avg_k = (
        Fraction(sum(len(f) for f in face_sums), alpha2) if alpha2 else Fraction(0)
    )
    chain = {
        "lhs": budget * alpha0,
        "total": total,
        "rhs": alpha2 * (5 - avg_k),
        "lhs_ok": budget * alpha0 >= total,
        "rhs_ok": total >= alpha2 * (5 - avg_k),
        "average_k": avg_k,
    }
    rhs_n = _lemma14_rhs(n, c, d)
    implied = {
        "rhs_for_n": rhs_n,
        "strict_ok": True if rhs_n == INF else n < rhs_n,
        "max_admissible_n": lemma14_max_n(c, d),
    }
    return BoundReport(
        n=n,
        c=c,
        d=d,
        vertex_sums=vertex_sums,
        face_sums=face_sums,
        condition1_holds=not failing_vertices,
        condition2_holds=not failing_faces,
        failing_vertices=failing_vertices,
        failing_faces=failing_faces,
        implied_bound=implied,
        chain=chain,
    )


# ---------------------------------------------------------------------------
# Diagram instances: system + polytope cross-section.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramInstance:
    """A ray-divisor system whose face structure is realized by a simple
    polytope cross-section: facet i of the polytope kills facet_rays[i], and
    every ray in perp_rays vanishes on the whole cross-section."""

    system: RayDivisorSystem
    polytope: CombinatorialPolytope
    facet_rays: tuple  # ray id per facet, aligned with polytope.facets
    perp_rays: frozenset = frozenset()
    model: Optional[RealizedModel] = None

    @staticmethod
    def of(
        system: RayDivisorSystem,
        polytope: CombinatorialPolytope,
        facet_rays: Sequence[str],
        perp_rays: Iterable[str] = (),
        model: Optional[RealizedModel] = None,
    ) -> "DiagramInstance":
        return DiagramInstance(
            system=system,
            polytope=polytope,
            facet_rays=tuple(facet_rays),
            perp_rays=frozenset(perp_rays),
            model=model,
        )

    @cached_property
    def _facet_bits(self) -> tuple[int, ...]:
        """Each facet's ray bit, aligned with `polytope.facets`."""
        return tuple(map(self.system.relations.bit.__getitem__, self.facet_rays))

    def face_mask(self, face: int, perp: int) -> int:
        """The mask of the rays killed on the polytope face of vertex mask
        `face`: those of the facets containing it, plus `perp`, the mask of
        the perp rays.  The facet rays must be known and pairwise distinct,
        which `validate_diagram` checks first."""
        return perp | sum(map(self._facet_bits.__getitem__, self.polytope._lattice[face][0]))


def validate_diagram(inst: DiagramInstance) -> None:
    """Raise when the facet-ray correspondence does not match the system's
    face structure, when a facet or perp ray is small and so cannot enter a
    vertex's graph, or when the bundle's realized model realizes another
    system or is not simple in the ambient face."""
    s, p = inst.system, inst.polytope
    if len(inst.facet_rays) != len(p.facets):
        raise ValueError(
            f"{len(p.facets)} facets but {len(inst.facet_rays)} facet rays"
        )
    if len(set(inst.facet_rays)) != len(inst.facet_rays):
        raise ValueError("facet rays must be pairwise distinct")
    for rid in list(inst.facet_rays) + sorted(inst.perp_rays):
        graph_nodes(s, (rid,))  # raises on unknown and small ids
    if s._face_masks is None:
        raise ValueError("system has no face structure to correspond to")
    if not p.is_simple:
        raise ValueError("the cross-section must be a simple polytope")
    # Reports key vertices by their printed ids, so no two may print alike.
    first = {str(v): v for v in reversed(p.vertices)}
    for v in p.vertices:
        if first[str(v)] is not v:
            raise ValueError(f"vertex ids {first[str(v)]!r} and {v!r} print alike")
    listed, perp = set(s._face_masks), s.relations.mask(inst.perp_rays)
    for face in chain.from_iterable(p._by_dim):  # in the order of `p.faces()`
        rayset = inst.face_mask(face, perp)
        if rayset not in listed:
            raise ValueError(
                f"polytope face {sorted(map(str, mask_names(p._ids, face)))} maps to ray set "
                f"{s.relations.names(rayset)} which is not a listed face"
            )
    if inst.model is not None:
        _check_realizes(inst.model, s, "the bundle's")
        if not is_simple_in_face(inst.model, s, inst.perp_rays):
            raise ValueError(
                "the realized model is not simple in the ambient face"
            )


def count_condition_b(
    s: RayDivisorSystem,
    e: Iterable[str],
    perp: Iterable[str],
    d: int,
) -> tuple[int, int]:
    """Ordered pairs of non-orthogonal rays of an extremal set at graph
    distance within [1, d] and within [d+1, 2d+1], from one search per
    non-orthogonal ray, cut at d and 2d + 1."""
    check_band_width(d)
    eset = sorted(set(e))
    perpset = frozenset(perp)
    if not perpset <= set(eset):
        raise ValueError("perp rays must belong to the extremal set")
    if s._face_masks is not None and not is_extremal(s, eset):
        raise ValueError("the ray set is not extremal")
    rel, mask = s.relations, graph_nodes(s, eset)
    outer = mask & ~rel.mask(perpset)
    count1 = count2 = 0
    for k in positions(outer):
        near, far = rel.bands(mask, k, (d, 2 * d + 1))
        count1 += (near & outer).bit_count()
        count2 += (far & outer).bit_count()
    return (count1, count2)


def _eset_condition_a_audit(inst: DiagramInstance, d: int) -> list[dict]:
    """Check every E-set with at least two rays outside the ambient
    orthogonal set and extremal proper extensions: its members must sit at
    pairwise distance <= d."""
    s = inst.system
    rel, divisorial = s.relations, [r.id for r in s.divisorial_rays]
    audit = []
    for eset in find_esets(s, divisorial):
        outside = eset - inst.perp_rays
        if len(outside) < 2:
            continue
        # Extremality passes to subsets, so the largest proper subsets decide.
        extendable = all(
            is_extremal(s, (eset - {rid}) | inst.perp_rays) for rid in eset
        )
        if not extendable:
            continue
        # One search per member, a band per step up to the longest possible
        # path; two or more members, so each reaches another or the diameter
        # is INF.  validate_diagram made every perp ray divisorial.
        members, mask = rel.mask(eset), rel.mask(eset | inst.perp_rays)
        diam = 0
        for k in positions(members):
            bands = rel.bands(mask, k, range(1, mask.bit_count()))
            if members & ~sum(bands) & ~(1 << k):
                diam = INF
                break
            diam = max(diam, max(i for i, band in enumerate(bands, 1) if band & members))
        audit.append(
            {
                "rays": sorted(eset),
                "diameter": "inf" if diam == INF else diam,
                "full_nef_combination": condition_iii_full(s, eset) is not None,
                "ok": diam != INF and diam <= d,
            }
        )
    return audit


def diagram_pipeline(
    inst: DiagramInstance, d: int, rule: Theorem12Rule | Theorem258Rule
) -> BoundReport:
    """Weight every oriented angle of the cross-section by the distance of
    its side rays in the contact graph of the rays vanishing at its vertex,
    then verify the weight-sum conditions.  Distances are read as bands: at
    each vertex, one breadth-first search per facet ray through it, stopped
    after 2d + 1 steps, gives the masks of the rays in each band, and an
    angle's weight and condition (b)'s counts are read from them.  The
    weights are summed as integer numerators on the `enumerate_angles` rows
    and reported by the tail `verify_lemma14` shares, which decodes the
    2-faces once.

    With the two-band rule the budget constants are computed empirically from
    the vertices' extremal sets (C = 2/3 C1 + 1/2 C2, D = 0); with the
    contact-only rule the stated constants (C, D) = (0, 2/3) are replayed and
    any vertex whose empirical sum exceeds that budget is flagged as a
    disagreement.  Any other rule object is a TypeError.  A two-band rule
    must have band width d (at least 1), the width that condition (b) and the
    E-set audit use.
    """
    if not isinstance(rule, (Theorem12Rule, Theorem258Rule)):
        raise TypeError(
            f"unknown weight rule {type(rule).__name__}: "
            "use Theorem12Rule or Theorem258Rule"
        )
    check_band_width(d)
    if isinstance(rule, Theorem12Rule) and rule.d != d:
        raise ValueError(
            f"Theorem12Rule band width {rule.d} differs from the pipeline's d = {d}"
        )
    validate_diagram(inst)
    s, p = inst.system, inst.polytope
    rows = enumerate_angles(p)

    # Each vertex's graph is the system's arrow masks restricted to the rays
    # vanishing there.  A breadth-first search from each facet ray through
    # the vertex cuts the rays it reaches into bands of distance, on each of
    # which both the rule's weight and condition (b)'s band are constant: the
    # cuts are d, 2d + 1 and the ends of the rule's bands, past which every
    # weight is 0.  validate_diagram made every facet and perp ray divisorial.
    cuts = sorted({d, 2 * d + 1}.union(*((lo - 1, hi) for (lo, hi), _ in rule.table)) - {0})
    near, far = cuts.index(d) + 1, cuts.index(2 * d + 1) + 1
    # Each band's weight, as an integer numerator over the bands' common lcm.
    band_nums, den = integral([sigma(rule, cut) for cut in cuts])
    rel, perp = s.relations, s.relations.mask(inst.perp_rays)
    at = [rel.bit[rid].bit_length() - 1 for rid in inst.facet_rays]

    nums = []
    c1_emp = c2_emp = Fraction(0)
    for v, pairs in rows:
        rayset = inst.face_mask(p._bit[v], perp)
        outer = rayset & ~perp
        count1 = count2 = 0
        # Per facet f through v: the weight numerator, by ray position, of
        # each ray in a weighed band of f's ray.
        weight = {}
        for f in p._lattice[p._bit[v]][0]:
            bands = rel.bands(rayset, at[f], cuts)
            weight[f] = {k: num for band, num in zip(bands, band_nums) if num
                         for k in positions(band)}
            # Condition (b) counts ordered pairs of outer rays, all of them
            # facet rays through v.  The bands are disjoint, so their sum is
            # their union.  validate_diagram made the vertex ray set a listed
            # face, which is all count_condition_b would check.
            if outer >> at[f] & 1:
                count1 += (sum(bands[:near]) & outer).bit_count()
                count2 += (sum(bands[near:far]) & outer).bit_count()
        nums += [weight[f].get(at[g], 0) + weight[g].get(at[f], 0) for f, g, _ in pairs]
        if outer:
            c1_emp = max(c1_emp, Fraction(count1, outer.bit_count()))
            c2_emp = max(c2_emp, Fraction(count2, outer.bit_count()))

    if isinstance(rule, Theorem12Rule):
        c = Fraction(2, 3) * c1_emp + Fraction(1, 2) * c2_emp
        dd = Fraction(0)
    else:
        c, dd = Fraction(0), Fraction(2, 3)

    audit = _eset_condition_a_audit(inst, d)
    report = _bound_report(p, rows, nums, den, c, dd)
    replay = None
    if isinstance(rule, Theorem258Rule):
        replay = {
            "C": c,
            "D": dd,
            "max_vertex_sum": max(report.vertex_sums.values(), default=Fraction(0)),
            "agrees": report.condition1_holds,
        }
    counterexamples = []
    for f in report.failing_faces:
        counterexamples.append(
            {
                "kind": "2-face-weight-deficit",
                "face": sorted(str(v) for v in f),
                "sum": format_rational(report.face_sums[f]),
                "required": format_rational(Fraction(5 - len(f))),
            }
        )
    for entry in audit:
        if not entry["ok"]:
            counterexamples.append(
                {
                    "kind": "eset-diameter-exceeds-band",
                    "rays": entry["rays"],
                    "diameter": str(entry["diameter"]),
                    "limit": str(d),
                }
            )
    return replace(
        report,
        rule=rule.describe(),
        empirical_c1=c1_emp,
        empirical_c2=c2_emp,
        replay=replay,
        eset_audit=tuple(audit),
        counterexamples=tuple(counterexamples),
        conforming=report.conditions_hold and all(e["ok"] for e in audit),
    )


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def diagram_to_json(inst: DiagramInstance) -> dict:
    return to_json(inst, "diagram")


def diagram_from_json(data: dict) -> DiagramInstance:
    parsers = {"system": system_from_json, "polytope": polytope_from_json,
               "realized": model_from_json}
    return DiagramInstance.of(**walk(data, KINDS["diagram"], parsers))
