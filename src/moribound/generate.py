"""Deterministic generators for polytopes, ray-divisor systems, and realized
models.

Everything here is seeded or closed-form: the same arguments always produce
the same instance, and every generated instance passes the validators of its
owning module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product as iproduct
from typing import Iterable, Iterator, Optional

from .core import RVector, TrilinearForm
from .polytope import CombinatorialPolytope, cube, cyclic_dual, product, simplex
from .raysystem import Ray, RayDivisorSystem, RayType, contact_violations, validate
from .realized import RealizedModel


# ---------------------------------------------------------------------------
# Polytope family.
# ---------------------------------------------------------------------------


def polytope_family(min_dim: int = 3, max_dim: int = 7) -> list[tuple[str, CombinatorialPolytope]]:
    """The standing test family: simplices, cubes, duals of cyclic polytopes
    with at most 10 facets, and a spread of products."""
    out: list[tuple[str, CombinatorialPolytope]] = []
    for n in range(min_dim, max_dim + 1):
        out.append((f"simplex-{n}", simplex(n)))
        out.append((f"cube-{n}", cube(n)))
    for d, m in ((3, 6), (3, 8), (3, 10), (4, 7), (4, 9), (5, 8), (5, 10), (6, 9), (7, 10)):
        if min_dim <= d <= max_dim:
            out.append((f"cyclic-dual-{d}-{m}", cyclic_dual(d, m)))
    products = (
        ("prism-3", simplex(2), simplex(1)),
        ("square-prism-3", cube(2), simplex(1)),
        ("product-s2-s2", simplex(2), simplex(2)),
        ("product-s2-c2", simplex(2), cube(2)),
        ("product-s3-s2", simplex(3), simplex(2)),
        ("product-c3-s2", cube(3), simplex(2)),
        ("product-s3-c3", simplex(3), cube(3)),
        ("product-s4-s3", simplex(4), simplex(3)),
        ("product-s5-s2", simplex(5), simplex(2)),
    )
    for name, a, b in products:
        if min_dim <= a.dim + b.dim <= max_dim:
            out.append((name, product(a, b)))
    return out


def make_polytope(family: str, n: int = 3, m: Optional[int] = None) -> CombinatorialPolytope:
    """CLI-facing constructor for the polytope families."""
    if family == "simplex":
        return simplex(n)
    if family == "cube":
        return cube(n)
    if family == "cyclic-dual":
        return cyclic_dual(n, m if m is not None else 2 * n)
    if family == "product":
        return product(simplex(n), simplex(m if m is not None else 2))
    raise ValueError(f"unknown polytope family {family!r}")


# ---------------------------------------------------------------------------
# Ray-divisor system templates.
# ---------------------------------------------------------------------------


def _powerset_faces(ids: Iterable[str]) -> list[list[str]]:
    rays = sorted(ids)
    return [list(c) for size in range(len(rays) + 1) for c in combinations(rays, size)]


def _proper_subset_faces(ids: Iterable[str]) -> list[list[str]]:
    rays = sorted(ids)
    return [list(c) for size in range(len(rays)) for c in combinations(rays, size)]


def system_c2() -> RayDivisorSystem:
    """A hub-and-spoke pair: the spoke pairs positively with the hub divisor,
    the hub vanishes on the spoke divisor."""
    return RayDivisorSystem.of(
        rays=[("S1", "II", "D1"), ("S2", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 0], [1, -1]],
        meets=[("D1", "D2")],
        faces=_powerset_faces(["S1", "S2"]),
        anticanonical=[1, 1],
        fano_mode=True,
    )


def system_cm(m: int) -> RayDivisorSystem:
    """Hub ray plus m - 1 spokes on pairwise non-touching divisors."""
    if m < 1:
        raise ValueError("need at least one ray")
    ids = [f"S{i}" for i in range(1, m + 1)]
    divisors = [f"D{i}" for i in range(1, m + 1)]
    pairing = []
    for i in range(m):
        row = [0] * m
        row[i] = -1
        if i > 0:
            row[0] = 1
        pairing.append(row)
    return RayDivisorSystem.of(
        rays=[(ids[i], "II", divisors[i]) for i in range(m)],
        divisors=divisors,
        pairing=pairing,
        meets=[("D1", d) for d in divisors[1:]],
        faces=_powerset_faces(ids),
        anticanonical=[1] * m,
        fano_mode=True,
    )


def system_d2() -> RayDivisorSystem:
    """A touching (type II, type I) pair whose divisor cone is pointed."""
    return RayDivisorSystem.of(
        rays=[("S1", "II", "D1"), ("S2", "I", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 1], [1, -2]],
        meets=[("D1", "D2")],
        faces=_powerset_faces(["S1", "S2"]),
        anticanonical=[1, 1],
        fano_mode=True,
    )


def system_b2() -> RayDivisorSystem:
    """Two type II rays sharing one divisor."""
    return RayDivisorSystem.of(
        rays=[("R1", "II", "D1"), ("R2", "II", "D1")],
        divisors=["D1"],
        pairing=[[-1], [-1]],
        meets=[],
        faces=_powerset_faces(["R1", "R2"]),
        anticanonical=[1, 1],
        fano_mode=True,
    )


def system_eset_a() -> RayDivisorSystem:
    """Three rays in a strict cycle; every proper subset is a face but the
    whole triple is not."""
    ids = ["S1", "S2", "S3"]
    return RayDivisorSystem.of(
        rays=[(i, "II", d) for i, d in zip(ids, ["D1", "D2", "D3"])],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 1, 0], [0, -1, 1], [1, 0, -1]],
        meets=[("D1", "D2"), ("D2", "D3"), ("D1", "D3")],
        faces=_proper_subset_faces(ids),
        anticanonical=[1, 1, 1],
        fano_mode=True,
    )


def system_eset_d(k: int) -> RayDivisorSystem:
    """k pairwise non-touching rays whose union is minimally non-extremal."""
    if k < 2:
        raise ValueError("a minimal non-extremal set needs at least two rays")
    ids = [f"S{i}" for i in range(1, k + 1)]
    divisors = [f"D{i}" for i in range(1, k + 1)]
    pairing = [[-1 if i == j else 0 for j in range(k)] for i in range(k)]
    return RayDivisorSystem.of(
        rays=[(ids[i], "II", divisors[i]) for i in range(k)],
        divisors=divisors,
        pairing=pairing,
        meets=[],
        faces=_proper_subset_faces(ids),
        anticanonical=[1] * k,
        fano_mode=True,
    )


def random_valid_system(
    seed: int, max_rays: int = 4
) -> tuple[RayDivisorSystem, int]:
    """Rejection-sample a system that passes `validate` and
    `contact_violations`: random types, shared-divisor blocks, and 0/1 cross
    pairings.  Returns the system and the rejection count."""
    rng = random.Random(seed)
    rejections = 0
    while True:
        n = rng.randint(1, max_rays)
        types = [rng.choice(["I", "II"]) for _ in range(n)]
        # Pair up some type II rays on shared divisors.
        block_of = list(range(n))
        free = [i for i in range(n) if types[i] == "II"]
        rng.shuffle(free)
        while len(free) >= 2 and rng.random() < 0.4:
            a = free.pop()
            b = free.pop()
            block_of[max(a, b)] = min(a, b)
        blocks = sorted({min(i, block_of[i]) for i in range(n)})
        divisor_of = {
            i: f"D{blocks.index(block_of[i]) + 1}" for i in range(n)
        }
        divisors = [f"D{j + 1}" for j in range(len(blocks))]
        pairing = []
        for i in range(n):
            row = []
            for d in divisors:
                if divisor_of[i] == d:
                    row.append(-1)
                else:
                    row.append(rng.choice([0, 0, 1]))
            pairing.append(row)
        meets = set()
        for i in range(n):
            for j, d in enumerate(divisors):
                if divisor_of[i] != d and pairing[i][j] != 0:
                    meets.add(frozenset((divisor_of[i], d)))
        ids = [f"R{i + 1}" for i in range(n)]
        system = RayDivisorSystem.of(
            rays=[(ids[i], types[i], divisor_of[i]) for i in range(n)],
            divisors=divisors,
            pairing=pairing,
            meets=[tuple(sorted(pair)) for pair in sorted(meets, key=sorted)],
            faces=_powerset_faces(ids),
        )
        if validate(system) or contact_violations(system):
            rejections += 1
            continue
        return system, rejections


def make_system(
    family: str, seed: int = 0, m: int = 3, k: int = 3
) -> tuple[RayDivisorSystem, int]:
    """CLI-facing constructor; returns (system, rejection count)."""
    if family == "c2":
        return system_c2(), 0
    if family == "cm":
        return system_cm(m), 0
    if family == "d2":
        return system_d2(), 0
    if family == "b2":
        return system_b2(), 0
    if family == "eset-a":
        return system_eset_a(), 0
    if family == "eset-d":
        return system_eset_d(k), 0
    if family == "random-valid":
        return random_valid_system(seed)
    raise ValueError(f"unknown system family {family!r}")


# ---------------------------------------------------------------------------
# Realized models.
# ---------------------------------------------------------------------------


def realized_b2(seed: int) -> tuple[RealizedModel, dict]:
    """A shared-divisor pair in rank 3 with two nef classes, each orthogonal
    to one ray.  Returns the model and the pieces the combine map needs."""
    rng = random.Random(seed)
    a, b, c = (rng.randint(1, 4) for _ in range(3))
    p, q = rng.randint(1, 4), rng.randint(0, 4)
    r, s = rng.randint(1, 4), rng.randint(0, 4)
    system = RayDivisorSystem.of(
        rays=[("C1", "II", "D"), ("C2", "II", "D")],
        divisors=["D"],
        pairing=[[-a], [-b]],
        meets=[],
    )
    model = RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={"C1": RVector.of([1, 0, 0]), "C2": RVector.of([0, 1, 0])},
        divisor_vectors={"D": RVector.of([-a, -b, c])},
    )
    data = {
        "h1": RVector.of([0, p, q]),
        "h2": RVector.of([r, 0, s]),
        "c1": "C1",
        "c2": "C2",
        "d": "D",
    }
    return model, data


def realized_cm(seed: int, m: int = 3) -> tuple[RealizedModel, dict]:
    """A hub with m - 1 spokes in rank m + 1, plus a nef class orthogonal to
    the hub, ready for the spoke-killing extension."""
    if m < 2:
        raise ValueError("need at least one spoke")
    rng = random.Random(seed)
    rho = m + 1
    ids = [f"S{i}" for i in range(1, m + 1)]
    divisors = [f"D{i}" for i in range(1, m + 1)]
    a = [rng.randint(1, 3) for _ in range(m)]
    c = [rng.randint(1, 3) for _ in range(m - 1)]
    b = [rng.randint(0, 3) for _ in range(m - 1)]
    hub_div = [0] * rho
    hub_div[0] = -a[0]
    for i in range(1, m):
        hub_div[i] = c[i - 1]
    divisor_vectors = {"D1": RVector.of(hub_div)}
    for i in range(1, m):
        vec = [0] * rho
        vec[i] = -a[i]
        vec[m] = b[i - 1]
        divisor_vectors[divisors[i]] = RVector.of(vec)
    ray_vectors = {ids[i]: RVector.unit(rho, i) for i in range(m)}
    pairing = [
        [ray_vectors[ids[i]].dot(divisor_vectors[d]) for d in divisors]
        for i in range(m)
    ]
    system = RayDivisorSystem.of(
        rays=[(ids[i], "II", divisors[i]) for i in range(m)],
        divisors=divisors,
        pairing=pairing,
        meets=[("D1", d) for d in divisors[1:]],
    )
    model = RealizedModel(
        rho=rho,
        base_system=system,
        ray_vectors=ray_vectors,
        divisor_vectors=divisor_vectors,
    )
    h = [0] + [rng.randint(0, 3) for _ in range(m - 1)] + [rng.randint(1, 3)]
    data = {
        "h": RVector.of(h),
        "spokes": [(ids[i], divisors[i]) for i in range(1, m)],
        "hub": ids[0],
    }
    return model, data


def realized_d2(seed: int) -> tuple[RealizedModel, dict]:
    """A pointed mixed pair in rank 3 with a nef class orthogonal to the
    type I ray."""
    rng = random.Random(seed)
    while True:
        x, y = rng.randint(1, 4), rng.randint(1, 4)
        u, v = rng.randint(1, 4), rng.randint(1, 4)
        if x * y - u * v > 0:
            break
    w1, w2 = rng.randint(0, 3), rng.randint(0, 3)
    system = RayDivisorSystem.of(
        rays=[("S1", "II", "D1"), ("S2", "I", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-x, v], [u, -y]],
        meets=[("D1", "D2")],
    )
    model = RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={"S1": RVector.of([1, 0, 0]), "S2": RVector.of([0, 1, 0])},
        divisor_vectors={
            "D1": RVector.of([-x, u, w1]),
            "D2": RVector.of([v, -y, w2]),
        },
    )
    h = RVector.of([rng.randint(0, 4), 0, rng.randint(1, 4)])
    return model, {"h": h, "s1": "S1", "s2": "S2"}


def realized_fano(seed: int, m: int = 3) -> tuple[RealizedModel, dict]:
    """Normalized rays on pairwise distinct divisors plus one extra ray, with
    an explicit anticanonical vector."""
    rng = random.Random(seed)
    rho = m + 1
    d = [rng.randint(0, 1) for _ in range(m)]
    ids = [f"R{i}" for i in range(1, m + 1)] + ["C"]
    divisors = [f"D{i}" for i in range(1, m + 1)] + ["DC"]
    divisor_vectors = {}
    for i in range(m):
        vec = [0] * rho
        vec[i] = -1
        vec[m] = d[i]
        divisor_vectors[divisors[i]] = RVector.of(vec)
    last = [0] * rho
    last[m] = -1
    divisor_vectors["DC"] = RVector.of(last)
    ray_vectors = {ids[i]: RVector.unit(rho, i) for i in range(rho)}
    pairing = [
        [ray_vectors[rid].dot(divisor_vectors[did]) for did in divisors]
        for rid in ids
    ]
    anticanonical_vector = RVector.of([1] * rho)
    system = RayDivisorSystem.of(
        rays=[(ids[i], "II", divisors[i]) for i in range(rho)],
        divisors=divisors,
        pairing=pairing,
        meets=[
            (divisors[i], "DC") for i in range(m) if d[i] != 0
        ],
        anticanonical=[1] * rho,
        fano_mode=True,
    )
    model = RealizedModel(
        rho=rho,
        base_system=system,
        ray_vectors=ray_vectors,
        divisor_vectors=divisor_vectors,
        anticanonical_vector=anticanonical_vector,
    )
    return model, {"rays": ids[:m], "extra": "C"}


def planted_dependence(t: int, seed: int) -> tuple[RealizedModel, tuple]:
    """t shared-divisor pairs in rank 2t - 1 with one planted all-nonzero
    dependence; returns the model and the expected primitive kernel vector
    (coefficients in ray order R11, R12, ..., Rt1, Rt2)."""
    if t < 2:
        raise ValueError("need at least two pairs")
    rng = random.Random(seed)
    rho = 2 * t - 1
    c1 = [rng.randint(1, 5) for _ in range(t)]
    c2 = [rng.randint(1, 5) for _ in range(t - 1)]
    ray_vectors = {}
    ids = []
    for i in range(t - 1):
        ray_vectors[f"R{i + 1}1"] = RVector.unit(rho, 2 * i)
        ray_vectors[f"R{i + 1}2"] = RVector.unit(rho, 2 * i + 1)
        ids += [f"R{i + 1}1", f"R{i + 1}2"]
    last = [0] * rho
    for i in range(t - 1):
        last[2 * i] = c1[i]
        last[2 * i + 1] = -c2[i]
    last[2 * t - 2] = c1[t - 1]
    ray_vectors[f"R{t}1"] = RVector.unit(rho, 2 * t - 2)
    ray_vectors[f"R{t}2"] = RVector.of(last)
    ids += [f"R{t}1", f"R{t}2"]
    divisor_vectors = {}
    divisors = []
    for i in range(t - 1):
        vec = [0] * rho
        vec[2 * i] = -c2[i]
        vec[2 * i + 1] = -c1[i]
        divisor_vectors[f"D{i + 1}"] = RVector.of(vec)
        divisors.append(f"D{i + 1}")
    vec = [0] * rho
    vec[2 * t - 2] = -1
    divisor_vectors[f"D{t}"] = RVector.of(vec)
    divisors.append(f"D{t}")
    pairing = [
        [ray_vectors[rid].dot(divisor_vectors[did]) for did in divisors]
        for rid in ids
    ]
    system = RayDivisorSystem.of(
        rays=[
            (ids[2 * i + j], "II", divisors[i])
            for i in range(t)
            for j in range(2)
        ],
        divisors=divisors,
        pairing=pairing,
        meets=[],
    )
    model = RealizedModel(
        rho=rho,
        base_system=system,
        ray_vectors=ray_vectors,
        divisor_vectors=divisor_vectors,
    )
    expected = []
    for i in range(t - 1):
        expected += [Fraction(c1[i]), Fraction(-c2[i])]
    expected += [Fraction(c1[t - 1]), Fraction(-1)]
    return model, tuple(expected)


def planted_with_a1(t: int, seed: int) -> tuple[RealizedModel, str]:
    """The planted-dependence model extended by one independent type I ray;
    no all-nonzero dependence exists once it is included."""
    base, _ = planted_dependence(t, seed)
    rho = base.rho + 1
    ray_vectors = {
        rid: RVector.of(list(vec) + [0]) for rid, vec in base.ray_vectors.items()
    }
    divisor_vectors = {
        did: RVector.of(list(vec) + [0])
        for did, vec in base.divisor_vectors.items()
    }
    a1 = [0] * rho
    a1[-1] = 1
    ray_vectors["A"] = RVector.of(a1)
    da = [0] * rho
    da[-1] = -1
    divisor_vectors["DA"] = RVector.of(da)
    old = base.base_system
    ids = list(old.ray_ids) + ["A"]
    divisors = list(old.divisors) + ["DA"]
    pairing = [
        [ray_vectors[rid].dot(divisor_vectors[did]) for did in divisors]
        for rid in ids
    ]
    system = RayDivisorSystem.of(
        rays=[Ray(r.id, r.type, r.divisor) for r in old.rays] + [("A", "I", "DA")],
        divisors=divisors,
        pairing=pairing,
        meets=[],
    )
    model = RealizedModel(
        rho=rho,
        base_system=system,
        ray_vectors=ray_vectors,
        divisor_vectors=divisor_vectors,
    )
    return model, "A"


# ---------------------------------------------------------------------------
# Exhaustive sign-pattern enumeration.
# ---------------------------------------------------------------------------


def _divisor_matchings(types: tuple[str, ...]) -> Iterator[list[list[int]]]:
    """All partitions of ray indices into divisor blocks of size at most two,
    where two-element blocks pair type II rays."""
    n = len(types)

    def rec(remaining: list[int]) -> Iterator[list[list[int]]]:
        if not remaining:
            yield []
            return
        first, rest = remaining[0], remaining[1:]
        for tail in rec(rest):
            yield [[first]] + tail
        if types[first] == "II":
            for j in rest:
                if types[j] != "II":
                    continue
                others = [x for x in rest if x != j]
                for tail in rec(others):
                    yield [[first, j]] + tail

    return rec(list(range(n)))


def enumerate_sign_systems(
    max_rays: int = 4, with_faces: bool = False
) -> Iterator[RayDivisorSystem | tuple[RayDivisorSystem, tuple]]:
    """Every valid system with at most max_rays divisorial rays, pairings in
    {-1, 0, 1} (own divisor -1), and contact derived from nonzero pairings.

    With with_faces=True, yields (system, face-variant) pairs where each
    variant is a downward-closed face family: the full powerset and, for each
    ray subset of size >= 2, the family of sets not containing it.
    """
    for n in range(1, max_rays + 1):
        ids = [f"R{i + 1}" for i in range(n)]
        variants = tuple(face_variants(ids)) if with_faces else ()
        for types in iproduct(("I", "II"), repeat=n):
            for blocks in _divisor_matchings(types):
                blocks = sorted(blocks)
                divisors = [f"D{b + 1}" for b in range(len(blocks))]
                divisor_of = {}
                for b, block in enumerate(blocks):
                    for i in block:
                        divisor_of[i] = divisors[b]
                cross_cells = [
                    (i, b)
                    for i in range(n)
                    for b in range(len(blocks))
                    if divisor_of[i] != divisors[b]
                ]
                for combo in iproduct((0, 1), repeat=len(cross_cells)):
                    pairing = [
                        [-1 if divisor_of[i] == d else 0 for d in divisors]
                        for i in range(n)
                    ]
                    for (i, b), value in zip(cross_cells, combo):
                        pairing[i][b] = value
                    meets = set()
                    for (i, b), value in zip(cross_cells, combo):
                        if value:
                            meets.add(frozenset((divisor_of[i], divisors[b])))
                    system = RayDivisorSystem.of(
                        rays=[(ids[i], types[i], divisor_of[i]) for i in range(n)],
                        divisors=divisors,
                        pairing=pairing,
                        meets=[tuple(sorted(p)) for p in sorted(meets, key=sorted)],
                    )
                    if validate(system):
                        continue
                    if not with_faces:
                        yield system
                        continue
                    for variant in variants:
                        yield system, variant


def face_variants(ids: list[str]) -> Iterator[tuple]:
    """Downward-closed face families over the given rays: the powerset and,
    for each subset of size >= 2, all sets avoiding it."""
    rays = sorted(ids)
    powerset = [
        tuple(c) for size in range(len(rays) + 1) for c in combinations(rays, size)
    ]
    yield tuple(powerset)
    for size in range(2, len(rays) + 1):
        for blocked in combinations(rays, size):
            blocked_set = set(blocked)
            yield tuple(
                f for f in powerset if not blocked_set <= set(f)
            )
