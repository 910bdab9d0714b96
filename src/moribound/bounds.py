"""Weighted-angle bound engine over simple polytopes.

The machinery: weight rules assigning a rational to each oriented angle from a
combinatorial distance, the self-referential dimension inequality and its
resolution by scan, the linear face-dimension bound, oriented-angle
enumeration on simple polytopes, the per-vertex / per-2-face weight-sum
verifier with its inequality-chain audit, and the full diagram pipeline that
ties a ray-divisor system to a polytope cross-section and extracts the
dimension bound or a structured counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import INF, format_rational, rational
from .polytope import (
    CombinatorialPolytope,
    PolytopeError,
    polytope_from_json,
    polytope_to_json,
)
from .raysystem import (
    OrientedGraph,
    RayDivisorSystem,
    SystemFormatError,
    build_graph,
    system_from_json,
    system_to_json,
)
from .structure import condition_iii_full, find_esets, is_extremal
from .realized import RealizedModel, is_simple_in_face, model_from_json, model_to_json


# ---------------------------------------------------------------------------
# Weight rules.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem12Rule:
    """Two-band rule: 2/3 up to distance d, 1/2 up to 2d+1, then 0."""

    d: int
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("band width d must be at least 1")
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


@dataclass(frozen=True)
class CustomRule:
    """Explicit table of ((lo, hi), weight) distance bands; hi may be INF."""

    table: tuple  # of ((lo, hi), Fraction)

    @staticmethod
    def of(entries: Iterable[tuple[tuple[object, object], object]]) -> "CustomRule":
        rows = []
        for (lo, hi), w in entries:
            weight = rational(w)
            if weight < 0:
                raise ValueError("weights must be nonnegative")
            rows.append(((lo, hi), weight))
        return CustomRule(tuple(rows))

    def describe(self) -> str:
        return "CustomRule"


WeightRule = object  # Theorem12Rule | Theorem258Rule | CustomRule, each with a `table`


def sigma(rule: WeightRule, dist: object) -> Fraction:
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
    n < 8C + 5 + (1 + 8D/n | (8C+8D)/(n-1)), found by upward scan.

    Both branch right-hand sides stay below 8C + 8D + 16, so the scan horizon
    is safe.
    """
    cc, dd = rational(c), rational(d)
    if cc < 0 or dd < 0:
        raise ValueError("constants must be nonnegative")
    horizon = math.ceil(8 * cc + 8 * dd + 16)
    best = None
    for n in range(1, horizon + 1):
        if n < _lemma14_rhs(n, cc, dd):
            best = n
    assert best is not None  # n = 1 always admits
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


@dataclass(frozen=True)
class AngleData:
    """An oriented angle: a vertex, the 2-face it lives on, and the ordered
    pair of side facets."""

    vertex: object
    plane: frozenset  # vertex set of the 2-face
    side1: int  # facet index determining the first side
    side2: int  # facet index determining the second side


def enumerate_angles(p: CombinatorialPolytope) -> list[AngleData]:
    """All oriented angles of a simple polytope: per vertex, per pair of
    facets through it, both side orders.  The angle's 2-face is the face
    lying in the other facets through the vertex; on a simple polytope that
    face has dimension 2 exactly when it exists."""
    if not p.is_simple:
        raise PolytopeError("angles are defined on simple polytopes only")
    out: list[AngleData] = []
    for v in p.vertices:
        through = p.facets_through(frozenset((v,)))
        for f, g in combinations(through, 2):
            try:
                plane = p.face_on(i for i in through if i != f and i != g)
            except PolytopeError:
                raise PolytopeError(
                    f"facet complement at vertex {v!r} does not cut a 2-face"
                ) from None
            out.append(AngleData(v, plane, f, g))
            out.append(AngleData(v, plane, g, f))
    return out


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
                {
                    "face": sorted(str(v) for v in plane),
                    "k": len(plane),
                    "sum": fmt(s),
                }
                for plane, s in sorted(
                    self.face_sums.items(), key=lambda kv: sorted(str(v) for v in kv[0])
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
    """
    angles = enumerate_angles(p)
    cc, dd = rational(c), rational(d)
    n = p.dim
    vertex_sums = dict.fromkeys(p.vertices, Fraction(0))
    face_sums = dict.fromkeys(p.faces(2), Fraction(0))
    for a in angles:
        if a not in weights:
            raise ValueError(f"missing weight for angle {a}")
        w = rational(weights[a])
        vertex_sums[a.vertex] += w
        face_sums[a.plane] += w
    total = sum(vertex_sums.values(), Fraction(0))

    budget = cc * n + dd
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
    rhs_n = _lemma14_rhs(n, cc, dd)
    implied = {
        "rhs_for_n": rhs_n,
        "strict_ok": True if rhs_n == INF else n < rhs_n,
        "max_admissible_n": lemma14_max_n(cc, dd),
    }
    return BoundReport(
        n=n,
        c=cc,
        d=dd,
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

    def face_rayset(self, face: frozenset) -> frozenset:
        """Rays killed on a polytope face: those of the facets containing it,
        plus the globally orthogonal rays."""
        return self.perp_rays.union(
            self.facet_rays[i] for i in self.polytope.facets_through(face)
        )


def validate_diagram(inst: DiagramInstance) -> None:
    """Raise when the facet-ray correspondence does not match the system's
    face structure."""
    s, p = inst.system, inst.polytope
    if len(inst.facet_rays) != len(p.facets):
        raise ValueError(
            f"{len(p.facets)} facets but {len(inst.facet_rays)} facet rays"
        )
    if len(set(inst.facet_rays)) != len(inst.facet_rays):
        raise ValueError("facet rays must be pairwise distinct")
    for rid in list(inst.facet_rays) + sorted(inst.perp_rays):
        s.ray(rid)  # raises on unknown ids
    if s.faces is None:
        raise ValueError("system has no face structure to correspond to")
    if not p.is_simple:
        raise ValueError("the cross-section must be a simple polytope")
    listed = set(s.faces)
    for face in p.faces():
        rayset = inst.face_rayset(face)
        if rayset not in listed:
            raise ValueError(
                f"polytope face {sorted(str(v) for v in face)} maps to ray set "
                f"{sorted(rayset)} which is not a listed face"
            )
    if inst.model is not None:
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
    distance within [1, d] and within [d+1, 2d+1]."""
    eset = sorted(set(e))
    perpset = frozenset(perp)
    if not perpset <= set(eset):
        raise ValueError("perp rays must belong to the extremal set")
    if s.faces is not None and not is_extremal(s, eset):
        raise ValueError("the ray set is not extremal")
    outer = [rid for rid in eset if rid not in perpset]
    return _count_condition_b(build_graph(s, eset), outer, d)


def _count_condition_b(
    g: OrientedGraph, outer: Iterable[str], d: int
) -> tuple[int, int]:
    """`count_condition_b` over the rays `outer` of an already built graph."""
    dists = [g.dist[a, b] for a in outer for b in outer if a != b]
    count1 = sum(1 <= x <= d for x in dists)
    count2 = sum(d + 1 <= x <= 2 * d + 1 for x in dists)
    return (count1, count2)


def _eset_condition_a_audit(
    inst: DiagramInstance, d: int
) -> tuple[list[dict], bool]:
    """Check every E-set with at least two rays outside the ambient
    orthogonal set and extremal proper extensions: its members must sit at
    pairwise distance <= d."""
    s = inst.system
    divisorial = [r.id for r in s.divisorial_rays]
    audit = []
    all_ok = True
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
        g = build_graph(s, eset | inst.perp_rays)
        # Two or more rays, so the zero self-distances never decide the max.
        diam = max(g.dist[a, b] for a in eset for b in eset)
        ok = diam != INF and diam <= d
        audit.append(
            {
                "rays": sorted(eset),
                "diameter": "inf" if diam == INF else diam,
                "full_nef_combination": condition_iii_full(s, eset) is not None,
                "ok": ok,
            }
        )
        all_ok = all_ok and ok
    return audit, all_ok


def diagram_pipeline(
    inst: DiagramInstance, d: int, rule: WeightRule
) -> BoundReport:
    """Weight every oriented angle of the cross-section by the distance of
    its side rays in the contact graph of the rays vanishing at its vertex,
    then verify the weight-sum conditions.

    With the two-band rule the budget constants are computed empirically from
    the vertices' extremal sets (C = 2/3 C1 + 1/2 C2, D = 0); with the
    contact-only rule the stated constants (C, D) = (0, 2/3) are replayed and
    any vertex whose empirical sum exceeds that budget is flagged as a
    disagreement; a custom rule gets the trivial budget C = 0,
    D = max vertex sum.  A two-band rule must have band width d, the width
    that condition (b) and the E-set audit use.
    """
    if isinstance(rule, Theorem12Rule) and rule.d != d:
        raise ValueError(
            f"Theorem12Rule band width {rule.d} differs from the pipeline's d = {d}"
        )
    validate_diagram(inst)
    s, p = inst.system, inst.polytope
    angles = enumerate_angles(p)

    graphs: dict = {}
    raysets: dict = {}
    for v in p.vertices:
        rayset = inst.face_rayset(frozenset((v,)))
        raysets[v] = rayset
        graphs[v] = build_graph(s, rayset)

    weights: dict = {}
    for a in angles:
        r1 = inst.facet_rays[a.side1]
        r2 = inst.facet_rays[a.side2]
        weights[a] = sigma(rule, graphs[a.vertex].dist[r1, r2])

    c1_emp = c2_emp = Fraction(0)
    for v in p.vertices:
        # validate_diagram made every vertex ray set a listed face, which is
        # all count_condition_b would check.
        outer = raysets[v] - inst.perp_rays
        count1, count2 = _count_condition_b(graphs[v], outer, d)
        if outer:
            c1_emp = max(c1_emp, Fraction(count1, len(outer)))
            c2_emp = max(c2_emp, Fraction(count2, len(outer)))

    if isinstance(rule, Theorem12Rule):
        c = Fraction(2, 3) * c1_emp + Fraction(1, 2) * c2_emp
        dd = Fraction(0)
    elif isinstance(rule, Theorem258Rule):
        c, dd = Fraction(0), Fraction(2, 3)
    else:
        vertex_sums = dict.fromkeys(p.vertices, Fraction(0))
        for a, w in weights.items():
            vertex_sums[a.vertex] += w
        c, dd = Fraction(0), max(vertex_sums.values())

    audit, audit_ok = _eset_condition_a_audit(inst, d)
    report = verify_lemma14(p, weights, c, dd)
    replay = None
    if isinstance(rule, Theorem258Rule):
        max_sum = max(report.vertex_sums.values(), default=Fraction(0))
        replay = {
            "C": c,
            "D": dd,
            "max_vertex_sum": max_sum,
            "agrees": max_sum <= c * p.dim + dd,
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
        conforming=report.conditions_hold and audit_ok,
    )


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def diagram_to_json(inst: DiagramInstance) -> dict:
    out = {
        "system": system_to_json(inst.system),
        "polytope": polytope_to_json(inst.polytope),
        "facet_rays": list(inst.facet_rays),
        "perp_rays": sorted(inst.perp_rays),
    }
    if inst.model is not None:
        out["model"] = model_to_json(inst.model)
    return out


def diagram_from_json(data: dict) -> DiagramInstance:
    try:
        system = system_from_json(data["system"])
        polytope = polytope_from_json(data["polytope"])
        facet_rays = tuple(data["facet_rays"])
        perp_rays = frozenset(data.get("perp_rays", ()))
        model = model_from_json(data["model"]) if "model" in data else None
    except (KeyError, TypeError) as exc:
        raise SystemFormatError(f"malformed diagram instance: {exc}") from exc
    for rid in (*facet_rays, *perp_rays):
        if not isinstance(rid, str):
            raise SystemFormatError(f"facet and perp rays must be ray ids, got {rid!r}")
    return DiagramInstance(
        system=system,
        polytope=polytope,
        facet_rays=facet_rays,
        perp_rays=perp_rays,
        model=model,
    )

