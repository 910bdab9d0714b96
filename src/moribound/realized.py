"""Exact vector realizations of ray-divisor systems.

A realized model pins every ray to a curve-class vector and every divisor to a
dual-space vector so that the abstract pairing matrix is literally a table of
dot products.  On top of that live the nef-element construction maps for the
component types, the numerical dimension of a nef class, linear-dependence
analysis among ray classes, the paired-ray span invariants, and the
face-simplicity rank test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import (
    RVector,
    TrilinearForm,
    format_rational,
    kernel_of_columns,
    rational,
    rank,
    scale_primitive,
    span_rank,
)
from .raysystem import (
    RayDivisorSystem,
    RayType,
    SystemFormatError,
    divisorial_components,
    system_from_json,
    system_to_json,
)
from .structure import ClassificationFailure, classify_component


@dataclass(frozen=True)
class RealizedModel:
    """A ray-divisor system together with explicit classes realizing it."""

    rho: int
    base_system: RayDivisorSystem
    ray_vectors: dict  # ray id -> RVector (dim rho)
    divisor_vectors: dict  # divisor id -> RVector (dim rho)
    intersection_form: Optional[TrilinearForm] = None
    anticanonical_vector: Optional[RVector] = None

    def __post_init__(self):
        if self.rho < 1:
            raise ValueError("rho must be positive")
        s = self.base_system
        for rid in s.ray_ids:
            if rid not in self.ray_vectors:
                raise ValueError(f"ray {rid} has no vector")
            vec = self.ray_vectors[rid]
            if vec.dim != self.rho:
                raise ValueError(f"ray {rid} vector has dim {vec.dim}, not {self.rho}")
            if vec.is_zero():
                raise ValueError(f"ray {rid} vector is zero")
        for did in s.divisors:
            if did not in self.divisor_vectors:
                raise ValueError(f"divisor {did} has no vector")
            if self.divisor_vectors[did].dim != self.rho:
                raise ValueError(f"divisor {did} vector has wrong dimension")
        if self.intersection_form is not None and self.intersection_form.dim != self.rho:
            raise ValueError("intersection form dimension does not match rho")
        if (
            self.anticanonical_vector is not None
            and self.anticanonical_vector.dim != self.rho
        ):
            raise ValueError("anticanonical vector dimension does not match rho")
        for rid in s.ray_ids:
            for did in s.divisors:
                got = self.ray_vectors[rid].dot(self.divisor_vectors[did])
                want = s.q(rid, did)
                if got != want:
                    raise ValueError(
                        f"pairing mismatch at ({rid}, {did}): "
                        f"vectors give {got}, table says {want}"
                    )
        if self.anticanonical_vector is not None and s.anticanonical is not None:
            for rid in s.ray_ids:
                got = self.ray_vectors[rid].dot(self.anticanonical_vector)
                want = s.anticanonical_degree(rid)
                if got != want:
                    raise ValueError(
                        f"anticanonical mismatch at {rid}: "
                        f"vector gives {got}, column says {want}"
                    )


@dataclass(frozen=True)
class NefCertificate:
    vector: RVector
    orthogonal_rays: frozenset
    cube: Optional[Fraction] = None

    @property
    def degenerate(self) -> bool:
        return self.vector.is_zero()


def is_nef(m: RealizedModel, h: RVector) -> bool:
    """True when h pairs >= 0 with every listed ray vector."""
    return all(h.dot(m.ray_vectors[rid]) >= 0 for rid in m.base_system.ray_ids)


def nef_certificate(m: RealizedModel, h: RVector) -> Optional[NefCertificate]:
    """Certificate for a nef class: its orthogonal rays, and its cube when the
    intersection form is available.  None when h is not nef."""
    if not is_nef(m, h):
        return None
    orth = frozenset(
        rid for rid in m.base_system.ray_ids if h.dot(m.ray_vectors[rid]) == 0
    )
    cube = None
    if m.intersection_form is not None:
        cube = m.intersection_form.evaluate(h, h, h)
    return NefCertificate(vector=h, orthogonal_rays=orth, cube=cube)


def numerical_kodaira_dim(m: RealizedModel, h: RVector) -> int:
    """3 when the cube of h is positive, 2 when the cube vanishes but the
    square does not, 1 when the square vanishes identically."""
    if m.intersection_form is None:
        raise ValueError("intersection form required")
    if h.is_zero():
        raise ValueError("need a nonzero class")
    cube = m.intersection_form.evaluate(h, h, h)
    if cube > 0:
        return 3
    square = m.intersection_form.contract(h, h)
    if not square.is_zero():
        return 2
    return 1


# ---------------------------------------------------------------------------
# Nef construction maps.
# ---------------------------------------------------------------------------


def b2_nef_combine(
    m: RealizedModel,
    h1: RVector,
    h2: RVector,
    c1: str,
    c2: str,
    d: str,
) -> RVector:
    """Combine two nef classes, each orthogonal to one ray of a shared-divisor
    pair, into one class orthogonal to both."""
    s = m.base_system
    ctype = classify_component(s, [c1, c2])
    if ctype.kind != "B2" or s.divisor_of(c1) != d or s.divisor_of(c2) != d:
        raise ValueError(f"{c1}, {c2} is not a shared-divisor pair on {d}")
    v1, v2 = m.ray_vectors[c1], m.ray_vectors[c2]
    dvec = m.divisor_vectors[d]
    if h1.dot(v1) != 0:
        raise ValueError("first class must be orthogonal to the first ray")
    if h2.dot(v2) != 0:
        raise ValueError("second class must be orthogonal to the second ray")
    if not is_nef(m, h1) or not is_nef(m, h2):
        raise ValueError("input classes must be nef")
    d_c1 = dvec.dot(v1)
    d_c2 = dvec.dot(v2)
    h2_c1 = h2.dot(v1)
    h1_c2 = h1.dot(v2)
    return (
        h1.scale(-d_c2 * h2_c1)
        + h2.scale(-d_c1 * h1_c2)
        + dvec.scale(h2_c1 * h1_c2)
    )


def cm_nef_extension(
    m: RealizedModel, h: RVector, spokes: Sequence[tuple[str, str]]
) -> RVector:
    """Add multiples of the spoke divisors to kill the pairing with every
    spoke ray, leaving rays away from those divisors untouched."""
    s = m.base_system
    seen_divisors = []
    for rid, did in spokes:
        denom = s.q(rid, did)
        if denom == 0:
            raise ValueError(f"ray {rid} pairs zero with {did}; cannot divide")
        if denom > 0:
            raise ValueError(f"ray {rid} must pair negatively with {did}")
        seen_divisors.append(did)
    if len(set(seen_divisors)) != len(seen_divisors):
        raise ValueError("spoke divisors must be pairwise distinct")
    for a, b in combinations(seen_divisors, 2):
        if s.joined(a, b):
            raise ValueError(f"spoke divisors {a} and {b} touch")
    out = h
    for rid, did in spokes:
        coeff = -h.dot(m.ray_vectors[rid]) / s.q(rid, did)
        out = out + m.divisor_vectors[did].scale(coeff)
    return out


def d2_nef_extension(m: RealizedModel, h: RVector, s1: str, s2: str) -> RVector:
    """Correct a nef class orthogonal to the contracted-curve ray of a mixed
    pair so it becomes orthogonal to both rays."""
    s = m.base_system
    if s.ray(s1).type is not RayType.II or s.ray(s2).type is not RayType.I:
        raise ValueError("expected (type II, type I) in that order")
    ctype = classify_component(s, [s1, s2])
    if ctype.kind != "D2":
        raise ValueError(f"{s1}, {s2} is not a mixed pair of the pointed-cone type")
    v1, v2 = m.ray_vectors[s1], m.ray_vectors[s2]
    d1 = m.divisor_vectors[s.divisor_of(s1)]
    d2 = m.divisor_vectors[s.divisor_of(s2)]
    if h.dot(v2) != 0:
        raise ValueError("the class must be orthogonal to the type I ray")
    denom = d2.dot(v2) * d1.dot(v1) - d1.dot(v2) * d2.dot(v1)
    if denom <= 0:
        raise ValueError(f"correction denominator {denom} is not positive")
    w = d1.scale(-d2.dot(v2)) + d2.scale(d1.dot(v2))
    return h + w.scale(h.dot(v1) / denom)


def fano_nef_sum(m: RealizedModel, rays: Sequence[str]) -> RVector:
    """The anticanonical class plus the listed rays' divisors."""
    if m.anticanonical_vector is None:
        raise ValueError("anticanonical vector required")
    s = m.base_system
    divisors = []
    for rid in rays:
        did = s.divisor_of(rid)
        if did is None:
            raise ValueError(f"ray {rid} carries no divisor")
        divisors.append(did)
    if len(set(divisors)) != len(divisors):
        raise ValueError("listed rays must have pairwise distinct divisors")
    out = m.anticanonical_vector
    for did in divisors:
        out = out + m.divisor_vectors[did]
    return out


# ---------------------------------------------------------------------------
# Linear dependence among ray classes.
# ---------------------------------------------------------------------------


def _combine_full_support(basis: Sequence[Sequence[Fraction]]) -> Optional[list]:
    """A linear combination of the basis vectors whose support is the union of
    the basis supports, i.e. zero only where every basis vector is zero."""
    if not basis:
        return None
    n = len(basis[0])
    out = [Fraction(0)] * n
    for vec in basis:
        bad = {-out[j] / vec[j] for j in range(n) if vec[j] != 0}
        lam = Fraction(1)
        while lam in bad or lam == 0:
            lam += 1
        out = [out[j] + lam * vec[j] for j in range(n)]
    return out


def linear_dependence(
    m: RealizedModel, rays: Sequence[str]
) -> Optional[tuple[Fraction, ...]]:
    """A rational dependence among the listed ray classes with every
    coefficient nonzero, if such a dependence exists."""
    ids = list(rays)
    if len(ids) < 2:
        raise ValueError("need at least two rays")
    basis = kernel_of_columns([m.ray_vectors[rid] for rid in ids])
    combined = _combine_full_support(basis)
    if combined is None or any(x == 0 for x in combined):
        return None
    out = list(scale_primitive(combined))
    if out[0] < 0:
        out = [-x for x in out]
    return tuple(out)


def check_prop238_form(
    m: RealizedModel,
    s: RayDivisorSystem,
    rays: Sequence[str],
    coeffs: Sequence[object],
) -> bool:
    """Whether an all-nonzero dependence has the paired form: every component
    of the ray set is a shared-divisor pair, there are at least two pairs, and
    the two coefficients within each pair have opposite signs."""
    ids = list(rays)
    values = [rational(c) for c in coeffs]
    if len(ids) != len(values):
        raise ValueError("coefficient count does not match rays")
    if any(v == 0 for v in values):
        return False
    comps = divisorial_components(s, ids)
    if len(comps) < 2:
        return False
    by_id = dict(zip(ids, values))
    for comp in comps:
        try:
            ctype = classify_component(s, comp)
        except ClassificationFailure:
            return False
        if ctype.kind != "B2":
            return False
        a, b = sorted(comp)
        if (by_id[a] > 0) == (by_id[b] > 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Paired-ray span invariants.
# ---------------------------------------------------------------------------


def b2_pairs(s: RayDivisorSystem) -> list[frozenset]:
    """All shared-divisor pairs of the system, sorted."""
    pairs = []
    for comp in divisorial_components(s, [r.id for r in s.divisorial_rays]):
        try:
            if classify_component(s, comp).kind == "B2":
                pairs.append(comp)
        except ClassificationFailure:
            continue
    return sorted(pairs, key=sorted)


def _pair_witness(s: RayDivisorSystem, pair: Iterable[str]) -> bool:
    """Whether some other divisorial ray pins the pair: positive both ways
    against one member and zero against the other."""
    a, b = sorted(pair)
    for r in s.divisorial_rays:
        if r.id in (a, b):
            continue
        for first, second in ((a, b), (b, a)):
            if (
                s.q(first, r.divisor) > 0
                and s.q(r.id, s.divisor_of(first)) > 0
                and s.q(second, r.divisor) == 0
            ):
                return True
    return False


def b2_invariants(m: RealizedModel, s: RayDivisorSystem) -> dict:
    """Span bookkeeping for the shared-divisor pairs: counts of independent
    and dependent pairs, the span defect, the residual rank, and the witness
    split of the independent pairs."""
    pairs = b2_pairs(s)
    n = len(pairs)
    all_vecs = [m.ray_vectors[rid] for pair in pairs for rid in sorted(pair)]
    total_rank = span_rank(all_vecs) if all_vecs else 0
    independent = []
    dependent = []
    for pair in pairs:
        rest = [
            m.ray_vectors[rid]
            for other in pairs
            if other != pair
            for rid in sorted(other)
        ]
        rest_rank = span_rank(rest) if rest else 0
        if total_rank - rest_rank == 2:
            independent.append(pair)
        else:
            dependent.append(pair)
    mm = len(independent)
    k = len(dependent)
    delta = total_rank - 2 * mm - k
    if not (k == delta == 0 or (k >= 2 and 1 <= delta < k)):
        raise ValueError(
            f"inadmissible dependent-pair shape: k={k}, delta={delta} "
            "(needs k=delta=0 or k>=2 with 1<=delta<k)"
        )
    m1 = sum(1 for pair in independent if _pair_witness(s, pair))
    return {
        "n": n,
        "m": mm,
        "k": k,
        "delta": delta,
        "rho0": m.rho - total_rank,
        "m1": m1,
        "m2": mm - m1,
    }


# ---------------------------------------------------------------------------
# Face simplicity.
# ---------------------------------------------------------------------------


def is_simple_in_face(m: RealizedModel, s: RayDivisorSystem, face: Iterable[str]) -> bool:
    """Rank test: inside the span of rays touching the dual face, every
    extremal set containing the face's own rays is linearly independent
    modulo them."""
    if s.faces is None:
        raise ValueError("system has no face structure")
    perp = frozenset(face)
    if perp not in s.faces:
        raise ValueError(f"{sorted(perp)} is not a listed face")
    # Every extremal set between the face's rays and the rays touching the
    # dual face sits inside some maximal face containing this one, and a rank
    # defect carries over to every larger face, so those maximal faces are
    # the only sets that need testing.
    perp_vecs = [m.ray_vectors[rid] for rid in sorted(perp)]
    perp_rank = span_rank(perp_vecs) if perp_vecs else 0
    for f in s.maximal_faces:
        if not (perp <= f):
            continue
        extra = sorted(f - perp)
        vecs = perp_vecs + [m.ray_vectors[rid] for rid in extra]
        if span_rank(vecs) - perp_rank != len(extra):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _vector_to_json(v: RVector) -> list:
    return [format_rational(x) for x in v]


def _vector_from_json(data: Sequence[object]) -> RVector:
    return RVector.of([rational(x) for x in data])


def model_to_json(m: RealizedModel) -> dict:
    out = {
        "rho": m.rho,
        "base_system": system_to_json(m.base_system),
        "ray_vectors": {
            rid: _vector_to_json(m.ray_vectors[rid])
            for rid in m.base_system.ray_ids
        },
        "divisor_vectors": {
            did: _vector_to_json(m.divisor_vectors[did])
            for did in m.base_system.divisors
        },
    }
    if m.intersection_form is not None:
        out["intersection_form"] = [
            [i, j, k, format_rational(v)]
            for (i, j, k), v in m.intersection_form.coeffs
        ]
    if m.anticanonical_vector is not None:
        out["anticanonical_vector"] = _vector_to_json(m.anticanonical_vector)
    return out


def model_from_json(data: dict) -> RealizedModel:
    try:
        rho = int(data["rho"])
        base = system_from_json(data["base_system"])
        rays = {
            rid: _vector_from_json(vec) for rid, vec in data["ray_vectors"].items()
        }
        divisors = {
            did: _vector_from_json(vec)
            for did, vec in data["divisor_vectors"].items()
        }
        form = None
        if "intersection_form" in data:
            form = TrilinearForm.of(
                rho,
                [
                    ((int(i), int(j), int(k)), rational(v))
                    for i, j, k, v in data["intersection_form"]
                ],
            )
        anti = None
        if "anticanonical_vector" in data:
            anti = _vector_from_json(data["anticanonical_vector"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, SystemFormatError):
            raise
        raise SystemFormatError(f"malformed realized model: {exc}") from exc
    return RealizedModel(
        rho=rho,
        base_system=base,
        ray_vectors=rays,
        divisor_vectors=divisors,
        intersection_form=form,
        anticanonical_vector=anti,
    )
