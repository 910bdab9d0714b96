"""Exact output of every generator: each realized model over seeds 0-19 with
the helper data it returns, each `system_*` template, `random_valid_system`
with its rejection count, `face_variants` on 1-4 rays, `polytope_family()` and
the `enumerate_sign_systems` sequence up to four rays, with and without face
variants.

Each case is one sha256 digest of a canonical JSON rendering that keeps list
and key order, so a change to any value or to any order fails.  The rendering
of a case's list is hashed an element at a time, so the 91,604 sign-system
pairs are never held at once.  After a deliberate output change, print the
new table with

    PYTHONPATH=src python3 tests/test_generate.py

`validate` is also the oracle for `enumerate_sign_systems`: on every candidate
of up to three rays it accepts exactly what the generator yields.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from moribound.core import RVector, format_rational
from moribound import generate
from moribound.generate import (
    _divisor_matchings,
    enumerate_sign_systems,
    face_variants,
    planted_dependence,
    planted_with_a1,
    polytope_family,
    random_valid_system,
    realized_b2,
    realized_cm,
    realized_d2,
    realized_fano,
    system_b2,
    system_c2,
    system_cm,
    system_d2,
    system_eset_a,
    system_eset_d,
)
from moribound.polytope import polytope_to_json
from moribound.raysystem import RayDivisorSystem, system_to_json, validate
from moribound.realized import RealizedModel, model_to_json

SEEDS = range(20)


def _canon(x):
    """A JSON-ready rendering of generator output that keeps every order."""
    if isinstance(x, (str, int)):  # the common leaves, kept as they are
        return x
    if isinstance(x, RealizedModel):
        return {
            "json": model_to_json(x),
            "ray_order": list(x.ray_vectors),
            "divisor_order": list(x.divisor_vectors),
        }
    if isinstance(x, RVector):
        return {"vector": [format_rational(v) for v in x]}
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, dict):
        return [[k, _canon(v)] for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    return x


def _sign_pairs(max_rays: int):
    """Each (system, face variant) pair in yield order, the system rendered
    once per run of pairs that share it."""
    base = rendered = None
    for s, variant in enumerate_sign_systems(max_rays, with_faces=True):
        if s is not base:
            base, rendered = s, system_to_json(s)
        yield [rendered, variant]


CASES = {
    "realized_b2": lambda: [realized_b2(seed) for seed in SEEDS],
    "realized_d2": lambda: [realized_d2(seed) for seed in SEEDS],
    **{
        f"realized_cm m={m}": lambda m=m: [realized_cm(seed, m) for seed in SEEDS]
        for m in range(2, 7)
    },
    **{
        f"realized_fano m={m}": lambda m=m: [realized_fano(seed, m) for seed in SEEDS]
        for m in range(2, 7)
    },
    **{
        f"planted_dependence t={t}": lambda t=t: [planted_dependence(t, seed) for seed in SEEDS]
        for t in range(2, 6)
    },
    **{
        f"planted_with_a1 t={t}": lambda t=t: [planted_with_a1(t, seed) for seed in SEEDS]
        for t in range(2, 6)
    },
    "system templates": lambda: [
        system_to_json(s)
        for s in [system_c2(), system_d2(), system_b2(), system_eset_a()]
        + [system_cm(m) for m in range(1, 7)]
        + [system_eset_d(k) for k in range(2, 7)]
    ],
    "random_valid_system": lambda: [
        [system_to_json(s), rejections]
        for s, rejections in (random_valid_system(seed) for seed in SEEDS)
    ],
    "face_variants": lambda: [
        list(face_variants([f"R{i}" for i in range(n, 0, -1)])) for n in range(1, 5)
    ],
    "polytope_family": lambda: [
        [name, polytope_to_json(p)] for name, p in polytope_family()
    ],
    "enumerate_sign_systems max_rays=4": lambda: (
        system_to_json(s) for s in enumerate_sign_systems(max_rays=4)
    ),
    "enumerate_sign_systems max_rays=4 with_faces": lambda: _sign_pairs(4),
}

DIGESTS = {
    "realized_b2": "23cd5b3d71052e0e9a171b5b885541420a862b3a5dea9e1c56b0605ae8f675e3",
    "realized_d2": "8e577eb6195a3f8a8bd97026a39bc23c7ac5487a9e2d2eab29d3c300987835a5",
    "realized_cm m=2": "a82e17335141ad3de46894db8e3fdbd29caefe452cc4a77d771447940ce27b84",
    "realized_cm m=3": "2eb2f3c0ccc2032c58f3c0aae3d23063b22e245ef1651c934805ce5315cc51f5",
    "realized_cm m=4": "03ea8ed23c887d68f4a99a9ca89a519b4e7310486c800fe7a541a2de1987093c",
    "realized_cm m=5": "6999a79776f9011b038668366029f28221c1b749728752cad8c277e805bab368",
    "realized_cm m=6": "822e90c5a552d3b5a5594561a0a2fb51370098ee267a086d378df6e5ae7ea3f1",
    "realized_fano m=2": "a08965c5f965e898ad2a08aa13384f5bfa57a3784f97b8e725a9ffbdacdb881b",
    "realized_fano m=3": "b23140b39f158a30304493ba1adb32bc522aa29b616cba27379181e4f422d633",
    "realized_fano m=4": "5a8bd8c8a863958f518b0fcb8d01ef2e80f1aa92ba860679019da8d17354058b",
    "realized_fano m=5": "57c28f8a4c039220ab5c0b790faefd6315b2199c021c3bee4c0fe9dd78776929",
    "realized_fano m=6": "8669ea02b9a72d823015c3a7a2547b1903b13e28ce9e61e1df8f9847634233ed",
    "planted_dependence t=2": "12c12ae0eea2e16100100fd5b4e999fff27d5627576975c8dd60c5695b8e814a",
    "planted_dependence t=3": "ea4c8883b05e37befda0c9e161925a72b160312a3ebc0a79aecfc19ced398547",
    "planted_dependence t=4": "c49b69eb44326c4c41f87a90043bcf6290c4c67e962c0d781d9311c7851f5448",
    "planted_dependence t=5": "2740a8ec0566bfef196b0d402b824d199e21fcc91327c33de9089b40273c3816",
    "planted_with_a1 t=2": "3d1458e30912232fd65c998bec7bed57b38d2a545f3d65952c425d454b55c594",
    "planted_with_a1 t=3": "1ea8f949fdf7fefbcbd3682adb16c1047e880a111438a0374a78aae924ef80c7",
    "planted_with_a1 t=4": "5cf45ecfaaadf59d2cf04b8c48c9b09221d7ea162ebd9704dddc3b51673ce05e",
    "planted_with_a1 t=5": "b124639f1027c7aa8ca013fd246a3c6b134aa4438f561a2617b5c9928fbe9244",
    "system templates": "70b066bdc3f91dec4438c66cc1c1b3c1e117f0ea65429c51ed2f2aa619d69ec2",
    "random_valid_system": "598228371012b75e437aeac3806b7cd7a211f8b797c297ee51d83d8c2ef21886",
    "face_variants": "15f9a477ba82265a9ca1391b5f098a580b57afd280bd6f493712b765916dffd1",
    "polytope_family": "27c331b83bbd926fbd2d439d76d6b4037fd1690e34d666ade508d0d2e9fb811f",
    "enumerate_sign_systems max_rays=4": "15fb5e639b6232a62c4d089f3673509c67c0a7089df8ba77b5533579e7bf983e",
    "enumerate_sign_systems max_rays=4 with_faces": "727e8df3cec540220e3165cce0ac00405a92d1908f9c78bf9cc20e5932da503b",
}


def digest(name: str) -> str:
    """The sha256 of `json.dumps` of the case's rendered list, fed one
    element at a time."""
    h = hashlib.sha256(b"[")
    for k, item in enumerate(CASES[name]()):
        text = json.dumps(_canon(item), separators=(",", ":"))
        h.update((text if k == 0 else "," + text).encode())
    h.update(b"]")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_generator_output_is_unchanged(name):
    assert digest(name) == DIGESTS[name]


# The only `validate` rules that a sign-system candidate can break.
SIGN_RULES = {
    "type-i-divisors-meet",
    "meeting-pair-no-contact",
    "mixed-meeting-pair-crosses",
    "multiple-type-i-neighbors",
}


def _sign_candidates(max_rays: int):
    """Every candidate of the sign-system space, unfiltered, in the order
    `enumerate_sign_systems` walks it: per ray count, ray types and divisor
    matching, every 0/1 filling of the cross cells in `product` order, with a
    meet for each nonzero cross pairing."""
    for n in range(1, max_rays + 1):
        for types in product(("I", "II"), repeat=n):
            for blocks in _divisor_matchings(types):
                divisors = [f"D{b + 1}" for b in range(len(blocks))]
                divisor = {i: divisors[b] for b, block in enumerate(sorted(blocks)) for i in block}
                cells = [(i, d) for i in range(n) for d in divisors if d != divisor[i]]
                for combo in product((0, 1), repeat=len(cells)):
                    value = dict(zip(cells, combo))
                    yield RayDivisorSystem.of(
                        rays=[(f"R{i + 1}", types[i], divisor[i]) for i in range(n)],
                        divisors=divisors,
                        pairing=[[value.get((i, d), -1) for d in divisors] for i in range(n)],
                        meets=[(divisor[i], d) for (i, d), v in value.items() if v],
                    )


def test_sign_systems_are_the_candidates_validate_accepts():
    accepted, fired = [], set()
    for s in _sign_candidates(3):
        codes = {v.code for v in validate(s)}
        assert codes <= SIGN_RULES, (codes, s)
        fired |= codes
        if not codes:
            accepted.append(s)
    # Each of the four rules rejects some candidate, so dropping any one of
    # them from the generator lets a candidate through.
    assert fired == SIGN_RULES, fired
    assert list(enumerate_sign_systems(3)) == accepted
    assert list(enumerate_sign_systems(3, with_faces=True)) == [
        (s, v) for s in accepted for v in face_variants(list(s.ray_ids))
    ]


def test_sign_systems_build_only_what_they_yield(monkeypatch):
    built = []
    post_init = RayDivisorSystem.__post_init__

    def counted(self, faces):
        built.append(self)
        post_init(self, faces)

    def refuse(s):
        raise AssertionError("validate called")

    monkeypatch.setattr(RayDivisorSystem, "__post_init__", counted)
    monkeypatch.setattr(generate, "validate", refuse)
    yielded = list(enumerate_sign_systems(4))
    assert len(yielded) == 7729
    assert built == yielded and all(a is b for a, b in zip(built, yielded))


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{digest(case)}",')
    print("}")
