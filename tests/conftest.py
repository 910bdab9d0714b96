"""Inputs and references shared by the bounds and CLI tests."""

import json

import pytest

from moribound.core import INF, positions

FIXTURES = "tests/fixtures"


def distance_table(rel, mask: int) -> dict:
    """Reference distances: the length of a shortest oriented path between
    any two rays of a mask, along `rel`'s arrows inside it (INF when there is
    none), keyed by id pairs in sorted id order.  One breadth-first search to
    exhaustion per ray, a layer of masks at a time."""
    ids, arrows = rel.ids, rel.arrows
    ks = positions(mask)
    dist = {}
    for a in ks:
        source = ids[a]
        for b in ks:
            dist[source, ids[b]] = INF
        seen = frontier = 1 << a
        steps = 0
        while frontier:
            reached = 0
            for k in positions(frontier):
                dist[source, ids[k]] = steps
                reached |= arrows[k]
            frontier = reached & mask & ~seen
            seen |= frontier
            steps += 1
    return dist


def retype_small(bundle: dict, rid: str) -> None:
    """Make ray `rid` of a bundle's system small, leaving its divisor unused."""
    for ray in bundle["system"]["rays"]:
        if ray["id"] == rid:
            ray["type"], ray["divisor"] = "small", None


def add_small_perp_ray(bundle: dict, rid: str, faces: bool = True) -> None:
    """Add a small ray `rid`, orthogonal to every divisor, to a bundle's system
    and list it in `perp_rays`.  With `faces`, every face also gets a copy with
    `rid` in it, so that the face family still passes `validate` and the
    polytope's faces still map to listed faces."""
    s = bundle["system"]
    s["rays"].append({"divisor": None, "id": rid, "type": "small"})
    s["pairing"].append(["0"] * len(s["divisors"]))
    s["anticanonical"].append("1")
    if faces:
        s["faces"] += [f + [rid] for f in s["faces"]]
    bundle["perp_rays"] = sorted(bundle["perp_rays"] + [rid])


@pytest.fixture
def small_ray_bundles() -> dict:
    """Two well-formed bundles whose systems pass `validate` but that name a
    small ray where a vertex's graph needs a divisorial one, keyed by that ray:
    the triangle with its facet ray S3 retyped small, and the square with a
    small ray X in `perp_rays` and in a copy of every face."""
    with open(f"{FIXTURES}/diagram_triangle.json", encoding="utf-8") as fh:
        triangle = json.load(fh)
    retype_small(triangle, "S3")
    with open(f"{FIXTURES}/diagram_square_258.json", encoding="utf-8") as fh:
        square = json.load(fh)
    add_small_perp_ray(square, "X")
    return {"S3": triangle, "X": square}
