"""Seeded input generators for the `wide` and `cross_section` workloads.

Every input is drawn from a finite pool, so that one expected-verdict file
covers every seed: the run seed only chooses which pool members a run uses
and in what order the items are sent.  Pool members are named, and their
content depends on the name alone.  Only public constructors are used.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

from moribound import polytope as poly
from moribound.bounds import DiagramInstance, diagram_to_json
from moribound.generate import (
    planted_dependence,
    realized_cm,
    system_cm,
    system_eset_d,
)
from moribound.raysystem import RayDivisorSystem, system_to_json, validate
from moribound.realized import model_to_json

POOL = 8  # members per seeded family; the expected files cover all of them

FIXTURES = (
    "tests/fixtures/diagram_triangle.json",
    "tests/fixtures/diagram_square_258.json",
    "tests/fixtures/diagram_bad_quadrangle.json",
)

SYSTEM_COMMANDS = ("check", "classify", "esets")
DIAGRAM_RULES = ("theorem12", "theorem258")


# ---------------------------------------------------------------------------
# wide: ray-divisor systems with 6-12 divisorial rays, and realized models.
# ---------------------------------------------------------------------------


def random_blocked_system(n: int, member: int) -> RayDivisorSystem:
    """A valid system with n divisorial rays whose faces are the ray sets
    avoiding two disjoint blocked subsets, of two and three rays: those are
    its E-sets.  Fixing their sizes keeps the cost of one size's members
    alike, so the seed moves the verdicts more than the run's cost."""
    rng = random.Random(f"wide-random-{n}-{member}")
    ids = [f"R{i + 1}" for i in range(n)]
    types = ["I" if rng.random() < 0.15 else "II" for _ in range(n)]
    divisor_of = {}
    divisors: list[str] = []
    free = [i for i in range(n) if types[i] == "II"]
    rng.shuffle(free)
    while len(free) >= 2 and rng.random() < 0.3:
        a, b = sorted((free.pop(), free.pop()))
        divisors.append(f"D{len(divisors) + 1}")
        divisor_of[a] = divisor_of[b] = divisors[-1]
    for i in range(n):
        if i not in divisor_of:
            divisors.append(f"D{len(divisors) + 1}")
            divisor_of[i] = divisors[-1]
    carries_i = {divisor_of[i] for i in range(n) if types[i] == "I"}
    type_i_neighbors = {d: 0 for d in divisors}
    pairing = [[-1 if divisor_of[i] == d else 0 for d in divisors] for i in range(n)]
    meets = []
    for d, e in combinations(divisors, 2):
        if rng.random() < 0.7:
            continue
        mixed = (d in carries_i) + (e in carries_i)
        if mixed == 2:
            continue  # divisors of two type I rays may not touch
        if mixed == 1:
            other = e if d in carries_i else d
            if type_i_neighbors[other]:
                continue  # at most one type I neighbour per divisor
            type_i_neighbors[other] += 1
            sources = (d, e)  # a mixed touching pair pairs positively both ways
        else:
            # Type II rays on touching divisors pair positively one way only,
            # so the cross pairings multiply below the self pairings.
            sources = rng.choice(((d,), (e,)))
        meets.append((d, e))
        for i in range(n):
            if divisor_of[i] in sources:
                target = e if divisor_of[i] == d else d
                pairing[i][divisors.index(target)] = 1
    shuffled = rng.sample(ids, 5)
    blocked = (frozenset(shuffled[:2]), frozenset(shuffled[2:]))
    faces = [
        face
        for size in range(n + 1)
        for face in map(frozenset, combinations(ids, size))
        if not any(b <= face for b in blocked)
    ]
    system = RayDivisorSystem.of(
        rays=[(ids[i], types[i], divisor_of[i]) for i in range(n)],
        divisors=divisors,
        pairing=pairing,
        meets=meets,
        faces=faces,
    )
    violations = validate(system)
    if violations:
        raise ValueError(f"generated an invalid system: {violations[0]}")
    return system


def wide_pool() -> dict[str, tuple[str, ...]]:
    """Every `wide` input family: name prefix -> pool member names."""
    return {
        **{f"eset_d-{k}": (f"eset_d-{k}",) for k in range(8, 13)},
        **{f"cm-{m}": (f"cm-{m}",) for m in range(6, 11)},
        **{f"random-{n}": tuple(f"random-{n}-{j}" for j in range(POOL)) for n in range(6, 11)},
        **{f"realized_cm-{m}": tuple(f"realized_cm-{m}-{j}" for j in range(POOL)) for m in range(3, 7)},
        **{f"planted-{t}": tuple(f"planted-{t}-{j}" for j in range(POOL)) for t in range(2, 6)},
    }


def wide_payload(name: str) -> dict:
    """The instance file content of one named `wide` input."""
    family, *params = name.split("-")
    params = [int(p) for p in params]
    if family == "eset_d":
        return system_to_json(system_eset_d(*params))
    if family == "cm":
        return system_to_json(system_cm(*params))
    if family == "random":
        return system_to_json(random_blocked_system(*params))
    if family == "realized_cm":
        m, j = params
        return model_to_json(realized_cm(j, m)[0])
    if family == "planted":
        t, j = params
        return model_to_json(planted_dependence(t, j)[0])
    raise ValueError(f"unknown wide input {name!r}")


def wide_commands(name: str) -> tuple[tuple[str, ...], ...]:
    """Realized models go through `check` only; systems through all three."""
    if name.startswith(("realized_cm-", "planted-")):
        return (("check",),)
    return tuple((c,) for c in SYSTEM_COMMANDS)


# ---------------------------------------------------------------------------
# cross_section: polytope files and diagram bundles.
# ---------------------------------------------------------------------------

# Constructors are reached through the module, so that a traced run, which
# rebinds module attributes, sees them.
STATS_POLYTOPES = {
    "cube-6": lambda: poly.cube(6),
    "cube-7": lambda: poly.cube(7),
    "cube-8": lambda: poly.cube(8),
    "cyclic_dual-5-10": lambda: poly.cyclic_dual(5, 10),
    "cyclic_dual-6-12": lambda: poly.cyclic_dual(6, 12),
    "cyclic_dual-7-14": lambda: poly.cyclic_dual(7, 14),
    "simplex3xcube3": lambda: poly.product(poly.simplex(3), poly.cube(3)),
    "cube3xcube3": lambda: poly.product(poly.cube(3), poly.cube(3)),
    "simplex4xsimplex3": lambda: poly.product(poly.simplex(4), poly.simplex(3)),
}

# Cross-sections of at most ~1,000 faces, so one `diagram` verdict stays short.
BUNDLE_POLYTOPES = {
    "cube-4": lambda: poly.cube(4),
    "cube-5": lambda: poly.cube(5),
    "cube-6": lambda: poly.cube(6),
    "cyclic_dual-4-8": lambda: poly.cyclic_dual(4, 8),
    "cyclic_dual-5-10": lambda: poly.cyclic_dual(5, 10),
    "simplex2xsimplex2": lambda: poly.product(poly.simplex(2), poly.simplex(2)),
    "cube3xsimplex2": lambda: poly.product(poly.cube(3), poly.simplex(2)),
    "simplex3xcube3": lambda: poly.product(poly.simplex(3), poly.cube(3)),
}


# One density for every pattern keeps the cost of one polytope's bundles
# alike, so the seed moves the verdicts more than the run's cost.
CONTACT_DENSITY = 0.5


def contact_bundle(polytope_name: str, member: int) -> DiagramInstance:
    """One type II ray per facet of the polytope, each on its own divisor,
    with a seeded 0/1 contact pattern.  The system's faces are the ray sets
    of the polytope's faces, so the facet-ray correspondence holds."""
    p = BUNDLE_POLYTOPES[polytope_name]()
    rng = random.Random(f"cross-bundle-{polytope_name}-{member}")
    ids = [f"T{i + 1}" for i in range(len(p.facets))]
    divisors = [f"D{i + 1}" for i in range(len(p.facets))]
    pairing = [
        [-1 if i == j else int(rng.random() < CONTACT_DENSITY) for j in range(len(ids))]
        for i in range(len(ids))
    ]
    meets = {
        (divisors[min(i, j)], divisors[max(i, j)])
        for i in range(len(ids))
        for j in range(len(ids))
        if i != j and pairing[i][j] > 0
    }
    faces = {frozenset(ids[i] for i in p.facets_through(face)) for face in p.faces()}
    system = RayDivisorSystem.of(
        rays=[(rid, "II", d) for rid, d in zip(ids, divisors)],
        divisors=divisors,
        pairing=pairing,
        meets=sorted(meets),
        faces=faces,
    )
    return DiagramInstance.of(system=system, polytope=p, facet_rays=ids)


def cross_pool() -> dict[str, tuple[str, ...]]:
    """Every `cross_section` input family: name prefix -> pool member names."""
    return {
        **{f"stats-{name}": (f"stats-{name}",) for name in STATS_POLYTOPES},
        **{
            f"bundle-{name}": tuple(f"bundle-{name}-{j}" for j in range(POOL))
            for name in BUNDLE_POLYTOPES
        },
    }


def cross_payload(name: str) -> dict:
    """The instance file content of one named `cross_section` input."""
    kind, rest = name.split("-", 1)
    if kind == "stats":
        return poly.polytope_to_json(STATS_POLYTOPES[rest]())
    if kind == "bundle":
        polytope_name, member = rest.rsplit("-", 1)
        return diagram_to_json(contact_bundle(polytope_name, int(member)))
    raise ValueError(f"unknown cross_section input {name!r}")


def cross_commands(name: str) -> tuple[tuple[str, ...], ...]:
    """`polytope-stats` on polytope files, `diagram` under both rules on
    bundles (the fixtures included)."""
    if name.startswith("stats-"):
        return (("polytope-stats",),)
    return tuple(("diagram", "--rule", rule) for rule in DIAGRAM_RULES)


# ---------------------------------------------------------------------------
# Writing a run's inputs.
# ---------------------------------------------------------------------------


def write_inputs(names: list[str], payload, directory: str) -> dict[str, str]:
    """Write each named input to `directory`; returns name -> relative path.
    A fixture is named by its path and read in place."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in names:
        if name in FIXTURES:
            paths[name] = name
            continue
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload(name), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths
