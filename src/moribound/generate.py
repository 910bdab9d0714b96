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

from .core import RVector
from .polytope import CombinatorialPolytope, cube, cyclic_dual, product, simplex
from .raysystem import Ray, RayDivisorSystem, RayType, validate
from .realized import RealizedModel
from .structure import contact_violations


# ---------------------------------------------------------------------------
# Polytope family.
# ---------------------------------------------------------------------------


def polytope_family() -> list[tuple[str, CombinatorialPolytope]]:
    """The standing test family in dimensions 3 to 7: simplices, cubes, duals
    of cyclic polytopes with at most 10 facets, and a spread of products."""
    out: list[tuple[str, CombinatorialPolytope]] = []
    for n in range(3, 8):
        out.append((f"simplex-{n}", simplex(n)))
        out.append((f"cube-{n}", cube(n)))
    for d, m in ((3, 6), (3, 8), (3, 10), (4, 7), (4, 9), (5, 8), (5, 10), (6, 9), (7, 10)):
        out.append((f"cyclic-dual-{d}-{m}", cyclic_dual(d, m)))
    for name, a, b in (
        ("prism-3", simplex(2), simplex(1)),
        ("square-prism-3", cube(2), simplex(1)),
        ("product-s2-s2", simplex(2), simplex(2)),
        ("product-s2-c2", simplex(2), cube(2)),
        ("product-s3-s2", simplex(3), simplex(2)),
        ("product-c3-s2", cube(3), simplex(2)),
        ("product-s3-c3", simplex(3), cube(3)),
        ("product-s4-s3", simplex(4), simplex(3)),
        ("product-s5-s2", simplex(5), simplex(2)),
    ):
        out.append((name, product(a, b)))
    return out


# family name -> builder from the `gen` options (`n`, `m`, `k`, `seed`).
POLYTOPES = {
    "simplex": lambda o: simplex(o.n),
    "cube": lambda o: cube(o.n),
    "cyclic-dual": lambda o: cyclic_dual(o.n, 2 * o.n if o.m is None else o.m),
    "product": lambda o: product(simplex(o.n), simplex(2 if o.m is None else o.m)),
}


# ---------------------------------------------------------------------------
# Ray-divisor system templates.
# ---------------------------------------------------------------------------


def _powerset(ids: Iterable[str], proper: bool = False) -> list[tuple[str, ...]]:
    """Every subset of the rays (every proper one with proper=True), each
    sorted, by size and then lexicographically."""
    rays = sorted(ids)
    return [c for size in range(len(rays) + (not proper)) for c in combinations(rays, size)]


def system_c2() -> RayDivisorSystem:
    """A hub-and-spoke pair, `system_cm(2)`: the spoke pairs positively with
    the hub divisor, the hub vanishes on the spoke divisor."""
    return system_cm(2)


def system_cm(m: int) -> RayDivisorSystem:
    """Hub ray plus m - 1 spokes whose divisors touch the hub's and not each other."""
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
        faces=_powerset(ids),
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
        faces=_powerset(["S1", "S2"]),
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
        faces=_powerset(["R1", "R2"]),
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
        faces=_powerset(ids, proper=True),
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
        faces=_powerset(ids, proper=True),
        anticanonical=[1] * k,
        fano_mode=True,
    )


def random_valid_system(seed: int) -> tuple[RayDivisorSystem, int]:
    """Rejection-sample a system of one to four rays that passes `validate`
    and `contact_violations`: random types, shared-divisor blocks, and 0/1
    cross pairings.  Returns the system and the rejection count."""
    rng = random.Random(seed)
    rejections = 0
    while True:
        n = rng.randint(1, 4)
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
            faces=_powerset(ids),
        )
        if validate(system) or contact_violations(system):
            rejections += 1
            continue
        return system, rejections


# family name -> builder from the `gen` options to (system, rejection count),
# the count None for a closed-form template.
SYSTEMS = {
    "c2": lambda o: (system_c2(), None),
    "cm": lambda o: (system_cm(3 if o.m is None else o.m), None),
    "d2": lambda o: (system_d2(), None),
    "b2": lambda o: (system_b2(), None),
    "eset-a": lambda o: (system_eset_a(), None),
    "eset-d": lambda o: (system_eset_d(o.k), None),
    "random-valid": lambda o: random_valid_system(o.seed),
}


# ---------------------------------------------------------------------------
# Realized models.
# ---------------------------------------------------------------------------


def _realize(
    rho: int,
    rays: Iterable,
    ray_vectors: dict,
    divisor_vectors: dict,
    meets: Iterable[Iterable[str]] = (),
    anticanonical_vector: Optional[RVector] = None,
    **system,
) -> RealizedModel:
    """The model that pins `rays` (Rays or (id, type, divisor) triples) and
    the divisors, in the order of `divisor_vectors`, to these vectors.  Its
    pairing is their dot products; `system` holds the remaining arguments of
    `RayDivisorSystem.of`."""
    rays = [Ray.of(r) for r in rays]
    divisors = list(divisor_vectors)
    base = RayDivisorSystem.of(
        rays=rays,
        divisors=divisors,
        pairing=[[ray_vectors[r.id].dot(divisor_vectors[d]) for d in divisors] for r in rays],
        meets=meets,
        **system,
    )
    return RealizedModel(
        rho=rho,
        base_system=base,
        ray_vectors=ray_vectors,
        divisor_vectors=divisor_vectors,
        anticanonical_vector=anticanonical_vector,
    )


def realized_b2(seed: int) -> tuple[RealizedModel, dict]:
    """A shared-divisor pair in rank 3 with two nef classes, each orthogonal
    to one ray.  Returns the model and the pieces the combine map needs."""
    rng = random.Random(seed)
    a, b, c = (rng.randint(1, 4) for _ in range(3))
    p, q = rng.randint(1, 4), rng.randint(0, 4)
    r, s = rng.randint(1, 4), rng.randint(0, 4)
    model = _realize(
        3,
        [("C1", "II", "D"), ("C2", "II", "D")],
        {"C1": RVector.of([1, 0, 0]), "C2": RVector.of([0, 1, 0])},
        {"D": RVector.of([-a, -b, c])},
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
    divisor_vectors = {"D1": RVector.of([-a[0], *c, 0])}
    for i in range(1, m):
        vec = [0] * rho
        vec[i] = -a[i]
        vec[m] = b[i - 1]
        divisor_vectors[divisors[i]] = RVector.of(vec)
    model = _realize(
        rho,
        [(ids[i], "II", divisors[i]) for i in range(m)],
        {ids[i]: RVector.unit(rho, i) for i in range(m)},
        divisor_vectors,
        meets=[("D1", d) for d in divisors[1:]],
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
    model = _realize(
        3,
        [("S1", "II", "D1"), ("S2", "I", "D2")],
        {"S1": RVector.of([1, 0, 0]), "S2": RVector.of([0, 1, 0])},
        {"D1": RVector.of([-x, u, w1]), "D2": RVector.of([v, -y, w2])},
        meets=[("D1", "D2")],
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
    divisor_vectors["DC"] = -RVector.unit(rho, m)
    model = _realize(
        rho,
        [(ids[i], "II", divisors[i]) for i in range(rho)],
        {ids[i]: RVector.unit(rho, i) for i in range(rho)},
        divisor_vectors,
        meets=[(divisors[i], "DC") for i in range(m) if d[i] != 0],
        anticanonical_vector=RVector.of([1] * rho),
        anticanonical=[1] * rho,
        fano_mode=True,
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
    for i in range(t - 1):
        ray_vectors[f"R{i + 1}1"] = RVector.unit(rho, 2 * i)
        ray_vectors[f"R{i + 1}2"] = RVector.unit(rho, 2 * i + 1)
    last = [0] * rho
    for i in range(t - 1):
        last[2 * i] = c1[i]
        last[2 * i + 1] = -c2[i]
    last[2 * t - 2] = c1[t - 1]
    ray_vectors[f"R{t}1"] = RVector.unit(rho, 2 * t - 2)
    ray_vectors[f"R{t}2"] = RVector.of(last)
    divisor_vectors = {}
    for i in range(t - 1):
        vec = [0] * rho
        vec[2 * i] = -c2[i]
        vec[2 * i + 1] = -c1[i]
        divisor_vectors[f"D{i + 1}"] = RVector.of(vec)
    divisor_vectors[f"D{t}"] = -RVector.unit(rho, 2 * t - 2)
    model = _realize(
        rho,
        [(f"R{i + 1}{j}", "II", f"D{i + 1}") for i in range(t) for j in (1, 2)],
        ray_vectors,
        divisor_vectors,
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

    def widened(vectors: dict) -> dict:
        return {key: RVector.of([*vec, 0]) for key, vec in vectors.items()}

    model = _realize(
        rho,
        [*base.base_system.rays, ("A", "I", "DA")],
        widened(base.ray_vectors) | {"A": RVector.unit(rho, rho - 1)},
        widened(base.divisor_vectors) | {"DA": -RVector.unit(rho, rho - 1)},
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

    The candidates come per ray types and divisor matching, in `product`
    order of their 0/1 cross pairings.  A divisor is shared only by two type
    II rays and every meet comes from a nonzero pairing, so only four of
    `validate`'s rules can reject a candidate.  They are decided here on
    integer masks of the positive pairings and touching divisors, and
    `validate` is not called: type-i-divisors-meet (no type I ray pairs
    positively with a type I divisor), meeting-pair-no-contact,
    mixed-meeting-pair-crosses and multiple-type-i-neighbors.  Only the
    candidates that pass are built.

    With with_faces=True, yields (system, face-variant) pairs where each
    variant is a downward-closed face family: the full powerset and, for each
    ray subset of size >= 2, the family of sets not containing it.
    """
    # Equal rays, pairing rows, pairings and contact sets are shared between
    # the systems, built once each: a sweep holds thousands of systems.
    shared: dict = {}

    def share(value):
        return shared.setdefault(value, value)

    names = tuple(f"D{b + 1}" for b in range(max_rays))
    ray_of = {
        (i, t, d): Ray(f"R{i + 1}", RayType(t), d)
        for i in range(max_rays)
        for t in ("I", "II")
        for d in names
    }
    for n in range(1, max_rays + 1):
        ids = [f"R{i + 1}" for i in range(n)]
        variants = tuple(face_variants(ids)) if with_faces else ()
        for types in iproduct(("I", "II"), repeat=n):
            for blocks in _divisor_matchings(types):
                m = len(blocks)
                divisors = share(names[:m])
                col = [0] * n  # each ray's divisor index
                for b, block in enumerate(sorted(blocks)):
                    for i in block:
                        col[i] = b
                rays = share(tuple(ray_of[i, types[i], divisors[col[i]]] for i in range(n)))
                type_i = sum(1 << col[i] for i in range(n) if types[i] == "I")
                # Per ray, its rows in `product` order of its cross cells, each
                # with `up`, the divisors it pairs positively with, and `meet`,
                # the touching divisor pairs it makes (bits a * m + b and
                # b * m + a).  The cross cells are ordered by ray, so `product`
                # over these lists walks the candidates in `product` order of
                # all cross cells.  A type I row pairing positively with a
                # type I divisor breaks type-i-divisors-meet and is left out.
                options = []
                for i in range(n):
                    cells = [b for b in range(m) if b != col[i]]
                    rows = []
                    for combo in iproduct((0, 1), repeat=len(cells)):
                        row = [0] * m
                        row[col[i]] = -1
                        up = meet = 0
                        for b, value in zip(cells, combo):
                            row[b] = value
                            if value:
                                up |= 1 << b
                                meet |= 1 << col[i] * m + b | 1 << b * m + col[i]
                        if not (types[i] == "I" and up & type_i):
                            rows.append((share(tuple(row)), up, meet))
                    options.append(rows)
                pairs = [
                    (i, j, types[i] == types[j])
                    for i, j in combinations(range(n), 2)
                    if col[i] != col[j] and "II" in (types[i], types[j])
                ]
                type_ii = [i for i in range(n) if types[i] == "II"]
                for choice in iproduct(*options):
                    touch = _touching(choice, col, pairs, type_ii, type_i)
                    if touch is None:
                        continue
                    meets = frozenset(
                        share(frozenset((divisors[a], divisors[b])))
                        for a, b in combinations(range(m), 2)
                        if touch >> a * m + b & 1
                    )
                    system = RayDivisorSystem(
                        rays=rays,
                        divisors=divisors,
                        pairing=share(tuple(row for row, _, _ in choice)),
                        meets=share(meets),
                    )
                    if not with_faces:
                        yield system
                        continue
                    for variant in variants:
                        yield system, variant


def _touching(
    choice: tuple, col: list[int], pairs: list, type_ii: list[int], type_i: int
) -> Optional[int]:
    """The touching divisor pairs of one sign-system candidate as a mask of
    bits a * m + b, or None when the candidate breaks meeting-pair-no-contact,
    mixed-meeting-pair-crosses or multiple-type-i-neighbors.

    `choice` holds each ray's (row, up, meet), `col` each ray's divisor index,
    `pairs` the (i, j, both type II) ray pairs on distinct divisors with a
    type II ray among them, and `type_i` the mask of type I divisors."""
    m = len(choice[0][0])
    touch = 0
    for _, _, meet in choice:
        touch |= meet
    for i, j, both_ii in pairs:
        if touch >> col[i] * m + col[j] & 1:
            there = choice[i][1] >> col[j] & 1
            back = choice[j][1] >> col[i] & 1
            # Two type II rays need one positive cross pairing, a mixed pair both.
            if not (there or back if both_ii else there and back):
                return None
    for i in type_ii:
        if (touch >> col[i] * m & type_i).bit_count() > 1:
            return None
    return touch


def face_variants(ids: list[str]) -> Iterator[tuple]:
    """Downward-closed face families over the given rays: the powerset and,
    for each subset of size >= 2, all sets avoiding it."""
    rays = sorted(ids)
    powerset = tuple(_powerset(rays))
    yield powerset
    for size in range(2, len(rays) + 1):
        for blocked in combinations(rays, size):
            blocked_set = set(blocked)
            yield tuple(
                f for f in powerset if not blocked_set <= set(f)
            )
