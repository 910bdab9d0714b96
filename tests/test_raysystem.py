"""Ray-divisor systems: invariants, contact graphs, serialization."""

import glob
import json
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound.bounds import count_condition_b
from moribound.cli import detect_kind
from moribound.core import INF, KINDS, format_rational, scale_primitive, solve_inequalities, to_json
from moribound.generate import (
    enumerate_sign_systems,
    face_variants,
    random_valid_system,
    system_b2,
    system_c2,
    system_cm,
    system_d2,
    system_eset_a,
    system_eset_d,
)
from moribound.polytope import cube, cyclic_dual
from moribound.raysystem import (
    Ray,
    RayDivisorSystem,
    RayType,
    Relations,
    SystemFormatError,
    Violation,
    _validate_faces,
    build_graph,
    check_normalization,
    distance,
    divisorial_components,
    is_single_arrow_connected,
    system_from_json,
    system_to_json,
    validate,
)
from moribound.structure import (
    _cross_pairings_nonnegative,
    check_condition_ii,
    check_lemma11,
    classify_report,
    condition_ii_witness,
    condition_iii_full,
    contact_violations,
    esets_report,
    find_esets,
)

FIXTURES = "tests/fixtures"


def codes(violations):
    return sorted(v.code for v in violations)


def test_ray_of_coercions():
    r = Ray.of(("X", "II", "D"))
    assert r.type is RayType.II and r.divisor == "D"
    assert Ray.of(("Y", "small")).divisor is None
    assert Ray.of(r) is r
    with pytest.raises(ValueError):
        Ray.of(("Z", "weird"))


def test_system_queries():
    s = system_eset_a()
    assert s.q("S1", "D2") == 1
    assert s.q("S2", "D1") == 0
    assert s.divisor_of("S3") == "D3"
    assert s.joined("D1", "D2")
    assert s.joined("D1", "D1")
    assert s.anticanonical_degree("S1") == 1


def test_faces_are_normalized_and_deduplicated():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D1")],
        divisors=["D1"],
        pairing=[[-1], [-1]],
        meets=[],
        faces=[["B", "A"], ["A", "B"], [], ["A"], ["B"]],
    )
    assert s.faces == (
        frozenset(),
        frozenset({"A"}),
        frozenset({"B"}),
        frozenset({"A", "B"}),
    )


@pytest.mark.parametrize(
    "s",
    [system_c2(), system_cm(4), system_d2(), system_b2(), system_eset_a(), system_eset_d(3)],
)
def test_generated_families_are_valid(s):
    assert validate(s) == []


# --- single-mutation detection ------------------------------------------


def mutate_eset_a(**overrides):
    base = dict(
        rays=[("S1", "II", "D1"), ("S2", "II", "D2"), ("S3", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 1, 0], [0, -1, 1], [1, 0, -1]],
        meets=[("D1", "D2"), ("D2", "D3"), ("D1", "D3")],
        faces=[[], ["S1"], ["S2"], ["S3"], ["S1", "S2"], ["S2", "S3"], ["S1", "S3"]],
        anticanonical=[1, 1, 1],
        fano_mode=True,
    )
    base.update(overrides)
    return RayDivisorSystem.of(**base)


def test_nonnegative_self_pairing_flagged():
    s = mutate_eset_a(pairing=[[0, 1, 0], [0, -1, 1], [1, 0, -1]])
    assert "self-pairing-not-negative" in codes(validate(s))


def test_negative_cross_pairing_flagged():
    s = mutate_eset_a(pairing=[[-1, 1, 0], [0, -1, 1], [-1, 0, -1]])
    assert "negative-cross-pairing" in codes(validate(s))


def test_meet_without_contact_flagged():
    # D1 and D2 are listed as touching but every cross pairing between the
    # pair vanishes.
    s = mutate_eset_a(pairing=[[-1, 0, 0], [0, -1, 1], [1, 0, -1]])
    assert "meeting-pair-no-contact" in codes(validate(s))


def test_pairing_without_meet_flagged():
    s = mutate_eset_a(meets=[("D1", "D2"), ("D2", "D3")])
    assert "pairing-without-meet" in codes(validate(s))


def test_shared_divisor_must_be_type_ii():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "I", "D1")],
        divisors=["D1"],
        pairing=[[-1], [-1]],
        meets=[],
    )
    assert "shared-divisor-not-type-ii" in codes(validate(s))


@pytest.mark.parametrize("rays,message", [
    pytest.param([("A", "II", "D1"), ("B", "II")], "type II ray B must carry a divisor",
                 id="type-ii-without-divisor"),
    pytest.param([("A", "I")], "type I ray A must carry a divisor", id="type-i-without-divisor"),
    pytest.param([("A", "small", "D1")], "small ray A carries no divisor",
                 id="small-with-divisor"),
])
def test_ray_carries_a_divisor_exactly_when_its_type_is_divisorial(rays, message):
    rays = [Ray.of(r) for r in rays]
    pairing = [[-1] for _ in rays]
    with pytest.raises(SystemFormatError, match=message):
        RayDivisorSystem.of(rays=rays, divisors=["D1"], pairing=pairing)
    with pytest.raises(SystemFormatError, match=message):
        RayDivisorSystem(
            rays=tuple(rays),
            divisors=("D1",),
            pairing=tuple(tuple(map(Fraction, row)) for row in pairing),
            meets=frozenset(),
        )
    data = {
        "rays": [{"id": r.id, "type": r.type.value}
                 | ({"divisor": r.divisor} if r.divisor else {}) for r in rays],
        "divisors": ["D1"],
        "pairing": pairing,
    }
    with pytest.raises(SystemFormatError, match=message):
        system_from_json(data)


def test_face_family_closure_flagged():
    s = mutate_eset_a(
        faces=[[], ["S1"], ["S2"], ["S3"], ["S1", "S2"], ["S2", "S3"]],
    )
    # {S1,S2} and {S2,S3} are fine, but a face list must be checked as given;
    # dropping {S1,S3} keeps closure, so this one stays valid.
    assert validate(s) == []
    t = mutate_eset_a(
        faces=[[], ["S1"], ["S2"], ["S3"], ["S1", "S2", "S3"], ["S1", "S2"]],
    )
    # {S1,S2,S3} and {S1,S2} are closed under intersection only with the
    # singletons present; removing {S2,S3} etc. is acceptable, but dropping a
    # singleton is not.
    u = mutate_eset_a(faces=[[], ["S1"], ["S2"], ["S1", "S2"]])
    assert "singleton-not-a-face" in codes(validate(u))
    assert "faces-missing-empty" in codes(
        validate(mutate_eset_a(faces=[["S1"], ["S2"], ["S3"]]))
    )
    v = mutate_eset_a(
        faces=[[], ["S1"], ["S2"], ["S3"], ["S1", "S2"], ["S1", "S3"],
               ["S2", "S3"], ["S1", "S2", "S3"]],
    )
    assert validate(v) == []


def test_intersection_closure_violation():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2"), ("C", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        meets=[],
        faces=[[], ["A"], ["C"], ["A", "B"], ["B", "C"]],
    )
    found = codes(validate(s))
    assert "faces-not-intersection-closed" in found or "singleton-not-a-face" in found


def _all_pairs_face_violations(s):
    """Reference: the face checks with every pair of faces intersected."""
    out = []
    faces = set(s.faces or ())
    if frozenset() not in faces:
        out.append(Violation("faces-missing-empty", (), "the empty set must be a face"))
    for r in s.rays:
        if frozenset((r.id,)) not in faces:
            out.append(Violation("singleton-not-a-face", (r.id,),
                                 "every single ray spans a face of the cone"))
    face_list = sorted(faces, key=lambda f: (len(f), sorted(f)))
    for i, f1 in enumerate(face_list):
        for f2 in face_list[i + 1 :]:
            cut = f1 & f2
            if cut not in faces:
                out.append(Violation(
                    "faces-not-intersection-closed",
                    (",".join(sorted(f1)), ",".join(sorted(f2))),
                    f"intersection {sorted(cut)} is missing from the face list",
                ))
    return out


def _random_face_family(rng, ids, closed):
    """All subsets of a few random sets, some random extras, and now and then
    the empty face or a singleton dropped; closed under intersection on
    request, otherwise redrawn until it is not."""
    while True:
        faces = set()
        for _ in range(rng.randint(1, 3)):
            top = rng.sample(ids, rng.randint(0, len(ids)))
            faces.update(frozenset(c) for k in range(len(top) + 1)
                         for c in combinations(top, k))
        faces.update(frozenset(rng.sample(ids, rng.randint(1, len(ids))))
                     for _ in range(rng.randint(0, 4)))
        faces.update(frozenset((rid,)) for rid in ids)
        if rng.random() < 0.2:
            faces.discard(frozenset())
        if rng.random() < 0.2:
            faces.discard(frozenset((rng.choice(ids),)))
        grown = True
        while closed and grown:
            cuts = {f & g for f in faces for g in faces} - faces
            faces |= cuts
            grown = bool(cuts)
        is_closed = all(f & g in faces for f in faces for g in faces)
        if closed or not is_closed:
            return faces


def _facet_ray_system(p):
    ids = [f"F{i}" for i in range(len(p.facets))]
    faces = {frozenset(ids[i] for i in p.facets_through(face)) for face in p.faces()}
    return _system_on(ids, faces)


def _system_on(ids, faces):
    return RayDivisorSystem.of(
        rays=[(rid, "II", f"D{rid}") for rid in ids],
        divisors=[f"D{rid}" for rid in ids],
        pairing=[[-1 if a == b else 0 for b in ids] for a in ids],
        faces=faces,
    )


def test_face_checks_match_all_pairs_scan():
    systems = [_facet_ray_system(cube(3)), _facet_ray_system(cyclic_dual(4, 8))]
    for seed in range(400):
        rng = random.Random(seed)
        closed = seed % 2 == 0
        ids = [f"R{i}" for i in range(rng.randint(1 if closed else 2, 6))]
        systems.append(_system_on(ids, _random_face_family(rng, ids, closed)))
    flagged = 0
    for s in systems:
        want = _all_pairs_face_violations(s)
        assert _validate_faces(s, Relations(s)) == want, s.faces
        flagged += any(v.code == "faces-not-intersection-closed" for v in want)
    assert flagged == 200


# Ids whose string order differs from both their insertion order and their
# numeric order.
ODD_IDS = ["R10", "R2", "b", "a", "R1", "B", "R9", "A", "c", "R3"]


def _odd_face_families(count):
    """Seeded face families over 1-10 odd-named rays, listed in random
    order: arbitrary sets (mostly not intersection-closed), downward closures
    of a few tops with a singleton now and then missing, the empty face
    alone, and the whole powerset."""
    for seed in range(count):
        rng = random.Random(seed)
        ids = ODD_IDS[: rng.randint(1, 10)]
        kind = seed % 5
        if kind == 0:
            faces = [[]]
        elif kind == 1:
            faces = [list(c) for k in range(len(ids) + 1) for c in combinations(ids, k)]
        elif kind == 2:
            faces = [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(rng.randint(0, 12))]
        else:
            faces = [[rid] for rid in ids if rng.random() < 0.9]
            for _ in range(rng.randint(1, 4)):
                top = rng.sample(ids, rng.randint(0, len(ids)))
                faces += [list(c) for k in range(len(top) + 1) for c in combinations(top, k)]
        rng.shuffle(faces)
        yield ids, faces


def _frozenset_face_violations(s):
    """Reference: the face checks on frozensets of ids, full faces found
    smallest first and only the other faces intersected pairwise."""
    out = []
    faces = set(s.faces)
    if frozenset() not in faces:
        out.append(Violation("faces-missing-empty", (), "the empty set must be a face"))
    for r in s.rays:
        if frozenset((r.id,)) not in faces:
            out.append(Violation("singleton-not-a-face", (r.id,),
                                 "every single ray spans a face of the cone"))
    full = set()
    for f in sorted(faces, key=len):
        if all(f - {x} in full for x in f):
            full.add(f)
    partial = sorted(faces - full, key=lambda f: (len(f), sorted(f)))
    for i, f1 in enumerate(partial):
        for f2 in partial[i + 1 :]:
            cut = f1 & f2
            if cut not in faces:
                out.append(Violation(
                    "faces-not-intersection-closed",
                    (",".join(sorted(f1)), ",".join(sorted(f2))),
                    f"intersection {sorted(cut)} is missing from the face list",
                ))
    return out


def test_face_masks_match_frozenset_algebra():
    def key(f):
        return len(f), sorted(f)

    flagged = 0
    for ids, faces in _odd_face_families(300):
        s = _system_on(ids, faces)
        listed = {frozenset(f) for f in faces}
        assert list(s.faces) == sorted(listed, key=key)
        maximal = {f for f in listed if not any(f < g for g in listed)}
        decoded = [frozenset(s.relations.names(m)) for m in s.maximal_masks]
        assert decoded == sorted(maximal, key=key), faces
        want = _frozenset_face_violations(s)
        assert _validate_faces(s, Relations(s)) == want, faces
        flagged += any(v.code == "faces-not-intersection-closed" for v in want)
    assert flagged > 20


def test_validate_large_simplicial_family():
    # 65,535 faces: an all-pairs intersection scan would take about 2 * 10^9
    # steps, the full-face walk about 5 * 10^5.
    assert validate(system_eset_d(16)) == []


def test_fano_mode_requires_positive_degrees():
    s = mutate_eset_a(anticanonical=[1, 0, 1])
    assert any("anticanonical" in c or "degree" in c for c in codes(validate(s)))


def test_normalization_audit():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-2, 1], [1, -1]],
        meets=[("D1", "D2")],
    )
    assert validate(s) == []  # scaling is not an invariant violation
    audit = check_normalization(s)
    assert [v.subjects for v in audit] == [("A",)]


def test_divisor_overloaded_flagged():
    s = RayDivisorSystem.of(
        rays=[("C", "II", "D1"), ("A", "II", "D1"), ("B", "II", "D1")],
        divisors=["D1"],
        pairing=[[-1], [-1], [-1]],
    )
    assert validate(s) == [
        Violation("divisor-overloaded", ("C", "A", "B"),
                  "divisor D1 is carried by 3 rays (max 2)"),
    ]


def test_nonsimple_ray_in_fano_mode_flagged():
    # B's own pairing -2 plus its positive cross pairing 1 dips below zero.
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 1], [1, -2]],
        meets=[("D1", "D2")],
        fano_mode=True,
    )
    assert validate(s) == [
        Violation("nonsimple-ray-in-fano-mode", ("B",), "every type II ray must be simple here"),
    ]
    assert validate(replace(s, fano_mode=False)) == []


VALIDATE_CODES = {
    "self-pairing-not-negative", "divisor-overloaded", "shared-divisor-not-type-ii",
    "negative-cross-pairing", "pairing-without-meet", "type-i-divisors-meet",
    "mixed-meeting-pair-crosses", "meeting-pair-no-contact", "multiple-type-i-neighbors",
    "nonsimple-ray-in-fano-mode", "anticanonical-not-positive", "faces-missing-empty",
    "singleton-not-a-face", "faces-not-intersection-closed",
}


def _scan_validate(s):
    """Reference: the model invariants read one pairing at a time through
    `q` and `joined`, simplicity by `_fraction_simple`, faces by
    `_frozenset_face_violations`."""
    out = []

    def flag(code, subjects, detail):
        out.append(Violation(code, tuple(subjects), detail))

    fmt = format_rational
    for r in s.rays:
        if r.divisor is not None and s.q(r.id, r.divisor) >= 0:
            flag("self-pairing-not-negative", (r.id, r.divisor),
                 f"Q[{r.id}][{r.divisor}] = {fmt(s.q(r.id, r.divisor))} must be < 0")
    by_divisor = {}
    for r in s.rays:
        if r.divisor is not None:
            by_divisor.setdefault(r.divisor, []).append(r)
    for did, owners in sorted(by_divisor.items()):
        if len(owners) > 2:
            flag("divisor-overloaded", tuple(o.id for o in owners),
                 f"divisor {did} is carried by {len(owners)} rays (max 2)")
        elif len(owners) == 2 and not all(o.type is RayType.II for o in owners):
            flag("shared-divisor-not-type-ii", tuple(o.id for o in owners),
                 f"divisor {did} is shared, so both rays must have type II")
    divisorial = s.divisorial_rays
    for r in divisorial:
        for did in s.divisors:
            if did == r.divisor:
                continue
            v = s.q(r.id, did)
            if v < 0:
                flag("negative-cross-pairing", (r.id, did),
                     f"Q[{r.id}][{did}] = {fmt(v)}: a divisorial ray pairs "
                     "negatively only with its own divisor")
            if v != 0 and not s.joined(r.divisor, did):
                flag("pairing-without-meet", (r.id, did),
                     f"Q[{r.id}][{did}] = {fmt(v)} but divisors "
                     f"{r.divisor} and {did} are not in contact")
    for i, r1 in enumerate(divisorial):
        for r2 in divisorial[i + 1 :]:
            d1, d2 = r1.divisor, r2.divisor
            if d1 == d2 or not s.joined(d1, d2):
                continue
            types = {r1.type, r2.type}
            if types == {RayType.I}:
                flag("type-i-divisors-meet", (r1.id, r2.id),
                     f"divisors {d1} and {d2} of two type I rays may not touch")
            elif types == {RayType.I, RayType.II}:
                if s.q(r1.id, d2) <= 0 or s.q(r2.id, d1) <= 0:
                    flag("mixed-meeting-pair-crosses", (r1.id, r2.id),
                         "touching divisors of a type II / type I pair force both "
                         f"cross pairings positive, got {fmt(s.q(r1.id, d2))} "
                         f"and {fmt(s.q(r2.id, d1))}")
            elif s.q(r1.id, d2) == 0 and s.q(r2.id, d1) == 0:
                flag("meeting-pair-no-contact", (r1.id, r2.id),
                     f"divisors {d1} and {d2} touch but both cross pairings vanish")
    for r in s.rays:
        if r.type is not RayType.II:
            continue
        neighbors = [
            q.id for q in divisorial
            if q.type is RayType.I and q.divisor != r.divisor and s.joined(r.divisor, q.divisor)
        ]
        if len(neighbors) > 1:
            flag("multiple-type-i-neighbors", (r.id, *neighbors),
                 f"divisor {r.divisor} touches divisors of {len(neighbors)} type I rays (max 1)")
    if s.fano_mode:
        for r in s.rays:
            if r.type is RayType.II and not _fraction_simple(s, r.id):
                flag("nonsimple-ray-in-fano-mode", (r.id,), "every type II ray must be simple here")
        for r, a in zip(s.rays, s.anticanonical or ()):
            if a <= 0:
                flag("anticanonical-not-positive", (r.id,), f"A[{r.id}] = {fmt(a)} must be > 0")
    if s.faces is not None:
        out.extend(_frozenset_face_violations(s))
    return out


def _random_model_system(rng):
    """One to six odd-named rays, now and then a small one, on divisors
    drawn with repeats, so some are shared or overloaded and some carried by
    no ray; own pairings mostly negative, the others in -2 ... 2 with halves
    and leaning to 0 and 1; meets, faces (or none), an anticanonical column
    (or none) and `fano_mode` at random."""
    ids = rng.sample(ODD_IDS, rng.randint(1, 6))
    divisors = [f"D{i}" for i in range(rng.randint(1, len(ids) + 1))]
    rays = [
        (rid, "small") if rng.random() < 0.15
        else (rid, rng.choice(("I", "II")), rng.choice(divisors))
        for rid in ids
    ]
    entries = HALVES + [0, 0, 0, 1, 1]
    pairing = [[rng.choice(entries) for _ in divisors] for _ in rays]
    for row, ray in zip(pairing, rays):
        if len(ray) == 3 and rng.random() < 0.8:
            row[divisors.index(ray[2])] = rng.choice((-1, -2, Fraction(-1, 2)))
    faces = None
    if rng.random() < 0.7:
        faces = [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.7:
            faces += [[]] + [[rid] for rid in ids]
    return RayDivisorSystem.of(
        rays=rays,
        divisors=divisors,
        pairing=pairing,
        meets=[p for p in combinations(divisors, 2) if rng.random() < 0.5],
        faces=faces,
        anticanonical=None if rng.random() < 0.5
        else [rng.choice((1, 1, 2, Fraction(1, 2), 0, -1)) for _ in rays],
        fano_mode=rng.random() < 0.5,
    )


def test_validate_matches_the_scan_on_random_systems():
    seen = Counter()
    for seed in range(5000):
        s = _random_model_system(random.Random(seed))
        before = dict(s.__dict__)
        got = validate(s)
        assert s.__dict__ == before  # validate keeps no tables on the system
        assert got == _scan_validate(s), (seed, system_to_json(s))
        seen.update({v.code for v in got})
    assert seen.keys() == VALIDATE_CODES, seen


def _tuple_sorted_faces(s, faces):
    """Reference: the faces and masks sorted as (size, -mask, face) tuples."""
    faces = tuple(faces)
    bit = s.relations.bit
    try:
        order = sorted(
            (len(f), -sum(map(bit.__getitem__, f)), f) for f in dict.fromkeys(map(frozenset, faces))
        )
    except KeyError:
        k, unknown = min(
            (k, min(set(f) - bit.keys())) for k, f in enumerate(faces) if set(f) - bit.keys()
        )
        raise SystemFormatError(f"face names unknown ray {unknown}", "faces", k) from None
    return tuple(e[2] for e in order), tuple(-e[1] for e in order)


def test_face_normalization_matches_the_tuple_sort():
    unknown = 0
    for seed, (ids, faces) in enumerate(_odd_face_families(300)):
        rng = random.Random(seed)
        faces += [rng.sample(f, len(f)) for f in rng.sample(faces, len(faces) // 2)]
        rng.shuffle(faces)
        if rng.random() < 0.3:
            faces.insert(rng.randint(0, len(faces)), [*rng.sample(ids, 1), "ZZ", "Q"])
        base = _system_on(ids, [])
        try:
            want = _tuple_sorted_faces(base, faces)
        except SystemFormatError as exc:
            unknown += 1
            with pytest.raises(SystemFormatError) as got:
                base.with_faces(faces)
            assert str(got.value) == str(exc) and "face names unknown ray Q" in str(exc)
            continue
        for s in (base.with_faces(faces), _system_on(ids, faces)):
            assert (s.faces, s._face_masks) == want, faces
    assert unknown > 50


def _frozenset_set_faces(s, faces):
    """Reference: the face normalization on frozensets of ids that a system
    ran at construction when it kept a frozenset per face.  The distinct
    faces keyed by mask, and the masks, by size, then by descending mask."""
    faces = tuple(faces)
    bit = s.relations.bit
    try:
        by_mask = {sum(map(bit.__getitem__, f)): f for f in map(frozenset, faces)}
    except KeyError:
        k, unknown = min(
            (k, min(set(f) - bit.keys())) for k, f in enumerate(faces) if set(f) - bit.keys()
        )
        raise SystemFormatError(f"face names unknown ray {unknown}", "faces", k) from None
    masks = tuple(sorted(sorted(by_mask, reverse=True), key=int.bit_count))
    return tuple(map(by_mask.__getitem__, masks)), masks


def _frozenset_written(s, faces):
    """Reference: the JSON text of `s` with its faces written from frozensets."""
    fields = {key: getattr(s, key) for key in KINDS["system"] if key != "faces"}
    return json.dumps(to_json(SimpleNamespace(faces=faces, **fields), "system"))


def _untidy(rng, ids, faces):
    """The face list with ids repeated inside some faces, some faces listed
    twice in shuffled order, the empty face now and then, all shuffled, and
    a face naming unknown ids about one time in four."""
    faces = [f + rng.choices(f, k=rng.randint(1, 3)) if f and rng.random() < 0.3 else f
             for f in faces]
    faces += [rng.sample(f, len(f)) for f in rng.sample(faces, len(faces) // 3)]
    if rng.random() < 0.5:
        faces.append([])
    rng.shuffle(faces)
    if rng.random() < 0.25:
        faces.insert(rng.randint(0, len(faces)), [*rng.sample(ids, 1), "ZZ", "Q", "Q"])
    return faces


def test_mask_only_faces_match_the_frozenset_faces():
    """A system keeps its faces only as masks; built by `of`, `with_faces` or
    `system_from_json`, it reads, compares, hashes and writes as when it kept
    the frozensets, and an unknown id fails with the same message and path."""
    by_ids = {}
    unknown = repeated = 0
    for seed, (ids, faces) in enumerate(_odd_face_families(300)):
        rng = random.Random(seed)
        faces = _untidy(rng, ids, faces)
        repeated += any(len(set(f)) < len(f) for f in faces)
        base = _system_on(ids, None)
        data = system_to_json(base) | {"faces": faces}
        makers = (
            lambda: _system_on(ids, faces),
            lambda: base.with_faces(faces),
            lambda: system_from_json(json.loads(json.dumps(data))),
        )
        try:
            want, masks = _frozenset_set_faces(base, faces)
        except SystemFormatError as exc:
            unknown += 1
            for make in makers:
                with pytest.raises(SystemFormatError) as got:
                    make()
                assert str(got.value) == str(exc) and got.value.path == exc.path
            continue
        text = _frozenset_written(base, want)
        built = [make() for make in makers]
        for s in built:
            assert s._face_masks == masks, faces
            assert json.dumps(system_to_json(s)) == text, faces
            assert "faces" not in vars(s)  # writing builds no view
            assert type(s.faces) is tuple and s.faces == want, faces
            assert s.faces is s.faces  # built once
            assert s == built[0] and hash(s) == hash(built[0])
        for other_want, other in by_ids.get(tuple(ids), []):
            assert (built[0] == other) == (other_want == want)
            if other_want == want:
                assert hash(built[0]) == hash(other)
        by_ids.setdefault(tuple(ids), []).append((want, built[0]))
    assert unknown > 50 and repeated > 100
    assert sum(len(v) for v in by_ids.values()) > 200


def test_verdicts_build_no_face_view():
    """`check`, `classify` and `esets` answer on the face masks: after each,
    a system's `faces` view is still unbuilt."""
    systems = [system_eset_d(12)]
    for path in sorted(glob.glob(f"{FIXTURES}/*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if detect_kind(data) == "system":
            systems.append(system_from_json(data))
    assert len(systems) >= 3
    for s in systems:
        assert s._face_masks is not None
        for verdict in (validate, contact_violations, check_normalization,
                        classify_report, esets_report):
            verdict(s)
            assert "faces" not in vars(s), verdict.__name__


# --- graphs ---------------------------------------------------------------


def test_triangle_graph_cycle():
    s = system_eset_a()
    g = build_graph(s, ["S1", "S2", "S3"])
    assert distance(g, "S1", "S2") == 1
    assert distance(g, "S1", "S3") == 2
    assert distance(g, "S3", "S2") == 2
    assert max(g.dist.values()) == 2
    assert is_single_arrow_connected(s, ["S1", "S2", "S3"])


def test_disjoint_graph_infinite_distance():
    s = system_eset_d(3)
    g = build_graph(s, ["S1", "S2", "S3"])
    assert distance(g, "S1", "S2") == INF
    assert max(g.dist.values()) == INF
    assert not is_single_arrow_connected(s, ["S1", "S2"])


def test_distance_is_zero_on_self():
    g = build_graph(system_eset_a(), ["S1", "S2"])
    assert distance(g, "S1", "S1") == 0


@given(st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_distance_triangle_inequality(seed):
    s, _ = random_valid_system(seed)
    ids = [r.id for r in s.divisorial_rays]
    g = build_graph(s, ids)
    for a in ids:
        for b in ids:
            for c in ids:
                assert distance(g, a, c) <= distance(g, a, b) + distance(g, b, c)


@given(st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_distance_shrinks_in_larger_subsets(seed):
    s, _ = random_valid_system(seed)
    ids = sorted(r.id for r in s.divisorial_rays)
    if len(ids) < 3:
        return
    small = ids[:-1]
    g_small = build_graph(s, small)
    g_full = build_graph(s, ids)
    for a in small:
        for b in small:
            assert distance(g_full, a, b) <= distance(g_small, a, b)


def _bfs_distance(succ, a, b):
    """Shortest oriented path length by a fresh search per pair."""
    if a == b:
        return 0
    seen = {a: 0}
    frontier = [a]
    while frontier:
        nxt_frontier = []
        for cur in frontier:
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return seen.get(b, INF)


def test_distance_table_matches_per_pair_search():
    diameters = set()  # over graphs of two or more nodes
    for seed in range(300):
        rng = random.Random(seed)
        ids = [f"R{i}" for i in range(rng.randint(1, 8))]
        cross = {(a, b): rng.randint(0, 1) for a in ids for b in ids if a != b}
        s = RayDivisorSystem.of(
            rays=[(rid, "II", f"D{rid}") for rid in ids],
            divisors=[f"D{rid}" for rid in ids],
            pairing=[[-1 if a == b else cross[a, b] for b in ids] for a in ids],
        )
        nodes = sorted(rng.sample(ids, rng.randint(0, len(ids))))
        succ = {a: [b for b in nodes if cross.get((a, b))] for a in nodes}
        want = {(a, b): _bfs_distance(succ, a, b) for a in nodes for b in nodes}

        g = build_graph(s, nodes)
        assert {(a, b): distance(g, a, b) for a in nodes for b in nodes} == want
        assert max(g.dist.values(), default=0) == max(want.values(), default=0)
        assert is_single_arrow_connected(s, nodes) == (INF not in want.values())
        for rid in set(ids) - set(nodes):
            with pytest.raises(ValueError):
                distance(g, rid, rid)
        perp = set(rng.sample(nodes, rng.randint(0, len(nodes))))
        outer = [rid for rid in nodes if rid not in perp]
        for d in (1, 2, 3):
            count1 = count2 = 0
            for a in outer:
                for b in outer:
                    x = want[a, b]
                    if a == b or x == INF:
                        continue
                    if 1 <= x <= d:
                        count1 += 1
                    elif d + 1 <= x <= 2 * d + 1:
                        count2 += 1
            assert count_condition_b(s, nodes, perp, d) == (count1, count2)
        if len(nodes) > 1:
            diameters.add(max(g.dist.values()))
    assert {1, 2, 3, INF} <= diameters


def test_divisorial_components_split():
    s = system_eset_d(3)
    comps = divisorial_components(s, ["S1", "S2", "S3"])
    assert comps == [frozenset({"S1"}), frozenset({"S2"}), frozenset({"S3"})]
    t = system_b2()
    assert divisorial_components(t, ["R1", "R2"]) == [frozenset({"R1", "R2"})]


def test_components_reject_small_rays():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("X", "small")],
        divisors=["D1"],
        pairing=[[-1], [1]],
        meets=[],
    )
    with pytest.raises(ValueError):
        divisorial_components(s, ["A", "X"])


# --- per-ray predicates ----------------------------------------------------


def _simple(s, rid):
    """Whether the ray's bit is set in the system's `Relations.simple` mask."""
    rel = s.relations
    return bool(rel.simple & rel.bit[rid])


def test_is_simple_ray():
    s = system_c2()
    assert _simple(s, "S1")
    assert _simple(s, "S2")  # -1 + 1 = 0 stays nonnegative
    t = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 0], [1, -2]],
        meets=[("D1", "D2")],
    )
    # own -2 plus positive cross 1 dips below zero, so B is not simple
    assert not _simple(t, "B")


def _lemma227(s, a, b):
    """Lemma 2.27's inequality on two type II rays on distinct divisors."""
    da, db = s.divisor_of(a), s.divisor_of(b)
    return s.q(a, db) * s.q(b, da) < s.q(a, da) * s.q(b, db)


def test_contact_product_inequality():
    # The contact check flags a co-facial touching type II pair exactly when
    # Lemma 2.27's product inequality fails on it.
    s = system_c2()
    assert _lemma227(s, "S1", "S2")  # 1 * 0 < (-1)(-1)
    assert contact_violations(s) == []
    t = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 1], [1, -1]],
        meets=[("D1", "D2")],
        faces=[[], ["A"], ["B"], ["A", "B"]],
    )
    assert not _lemma227(t, "A", "B")  # 1*1 == (-1)(-1), not strict
    assert [v.subjects for v in contact_violations(t)] == [("A", "B")]
    # Divisors that are shared or do not touch make no pair of the lemma,
    # whatever the pairings: these two would fail condition (ii).
    assert contact_violations(system_b2()) == []
    shared = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D1")],
        divisors=["D1"],
        pairing=[[1], [1]],
        faces=[[], ["A"], ["B"], ["A", "B"]],
    )
    assert not check_condition_ii(shared, ["A", "B"])
    assert contact_violations(shared) == []
    apart = replace(t, meets=frozenset())
    assert not check_condition_ii(apart, ["A", "B"])
    assert contact_violations(apart) == []


HALVES = [Fraction(k, 2) for k in range(-4, 5)]


@pytest.mark.parametrize("seed", range(4))
def test_lemma227_is_condition_ii_on_the_pair(seed):
    # Lemma 2.27 and condition (ii) on the pair agree while the self pairings
    # are negative and the cross pairings nonnegative; both signs are drawn
    # from that range only.  A third type II ray on its own divisor puts the
    # pair at seeded positions of a larger touching system.  With every set
    # a face, the contact check flags exactly the pairs that fail the lemma.
    rng = random.Random(seed)
    selfs = [q for q in HALVES if q < 0]
    crosses = [q for q in HALVES if q >= 0]
    for _ in range(150):
        ids = rng.sample(["A", "B", "C"], 3)
        pairing = [[rng.choice(crosses) for _ in range(3)] for _ in range(3)]
        for k in range(3):
            pairing[k][k] = rng.choice(selfs)
        s = RayDivisorSystem.of(
            rays=[(rid, "II", f"D{rid}") for rid in ids],
            divisors=[f"D{rid}" for rid in ids],
            pairing=pairing,
            meets=[(f"D{a}", f"D{b}") for a, b in combinations(ids, 2)],
        )
        a, b = rng.sample(ids, 2)
        assert _lemma227(s, a, b) == check_condition_ii(s, [a, b]), system_to_json(s)
        every = s.with_faces(next(face_variants(ids)))
        assert [v.subjects for v in contact_violations(every)] == [
            pair for pair in combinations("ABC", 2) if not _lemma227(s, *pair)
        ], system_to_json(s)


def test_contact_violations_on_cofacial_type_ii_pairs():
    # Type II rays A, B, C on touching divisors, a type I ray E and a small
    # ray F.  The products of cross pairings: A-B 1, A-C 0, B-C 2 against
    # the self products 1; A-E is a mixed pair and F carries no divisor.
    s = RayDivisorSystem.of(
        rays=[("C", "II", "DC"), ("B", "II", "DB"), ("A", "II", "DA"),
              ("E", "I", "DE"), ("F", "small")],
        divisors=["DA", "DB", "DC", "DE"],
        pairing=[[0, 1, -1, 0], [1, -1, 2, 0], [-1, 1, 1, 1],
                 [1, 0, 0, -1], [0, 0, 0, 0]],
        meets=[("DA", "DB"), ("DA", "DC"), ("DB", "DC"), ("DA", "DE")],
    )
    assert contact_violations(s) == []  # no faces, so no pair is co-facial
    everything = next(face_variants(list(s.ray_ids)))
    detail = ("some nonzero nonnegative combination of the two divisors is "
              "nonnegative on both rays (condition (ii) fails on the pair)")
    assert contact_violations(s.with_faces(everything)) == [
        Violation("contact-product", ("A", "B"), detail),
        Violation("contact-product", ("B", "C"), detail),
    ]
    # Only co-facial pairs count: B and C share no face here.
    apart = [f for f in everything if not {"B", "C"} <= set(f)]
    assert [v.subjects for v in contact_violations(s.with_faces(apart))] == [("A", "B")]


# --- serialization ----------------------------------------------------------


@pytest.mark.parametrize(
    "s",
    [system_c2(), system_cm(3), system_d2(), system_b2(), system_eset_a(), system_eset_d(4)],
)
def test_json_round_trip(s):
    data = system_to_json(s)
    json.dumps(data)
    t = system_from_json(data)
    assert t == s


def test_json_round_trip_with_small_ray():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("X", "small")],
        divisors=["D1"],
        pairing=[[-1], ["1/2"]],
        meets=[],
        faces=[[], ["A"], ["X"]],
        anticanonical=["2/3", 1],
        fano_mode=False,
    )
    t = system_from_json(system_to_json(s))
    assert t == s
    assert t.q("X", "D1") == Fraction(1, 2)


def test_malformed_json_rejected():
    with pytest.raises(SystemFormatError):
        system_from_json({"rays": []})
    good = system_to_json(system_c2())
    bad = dict(good)
    bad["pairing"] = [[-1], [1]]  # wrong arity
    with pytest.raises(SystemFormatError):
        system_from_json(bad)


# --- relation tables, face variants, the verdict memo ----------------------


def _random_relation_system(rng):
    """Up to six rays, now and then a small one or two sharing a divisor;
    pairings in -2 ... 2 with halves, contacts at random.  No model
    invariant is enforced."""
    n = rng.randint(1, 6)
    divisors = [f"D{i}" for i in range(rng.randint(max(1, n - 2), n))]
    rays = [
        (f"R{i}", "small") if rng.random() < 0.1
        else (f"R{i}", rng.choice(("I", "II")), divisors[i % len(divisors)])
        for i in range(n)
    ]
    rng.shuffle(rays)  # declaration order differs from sorted id order
    entries = [Fraction(k, 2) for k in range(-4, 5)] + [0] * 6
    return RayDivisorSystem.of(
        rays=rays,
        divisors=divisors,
        pairing=[[rng.choice(entries) for _ in divisors] for _ in rays],
        meets=[p for p in combinations(divisors, 2) if rng.random() < 0.4],
    )


def _fraction_components(s, nodes):
    """Reference: union-find over `joined` on the rays' divisors."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if s.joined(s.divisor_of(a), s.divisor_of(b)):
                parent[find(a)] = find(b)
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


def _fraction_simple(s, rid):
    own = s.q(rid, s.divisor_of(rid))
    return all(not (s.q(rid, d) > 0 and own + s.q(rid, d) < 0) for d in s.divisors)


def _fraction_cross_nonnegative(s, ids):
    rays = [s.ray(rid) for rid in ids]
    return all(r.is_divisorial for r in rays) and all(
        s.q(a.id, b.divisor) >= 0 for a in rays for b in rays if a is not b
    )


def _fraction_condition_ii(s, ids):
    """Reference: the member rows as `Fraction`s, solved afresh."""
    cols = [s.divisor_of(rid) for rid in ids]
    rows = [tuple(s.q(rid, d) for d in cols) for rid in ids]
    k = len(ids)
    units = [(tuple(int(i == j) for j in range(k)), 0) for i in range(k)]
    witness = solve_inequalities(
        [(row, 0) for row in rows] + units + [((1,) * k, 1)], k
    )
    return None if witness is None else scale_primitive(witness)


def test_relation_tables_match_fraction_scans():
    seen_halves = seen_small = 0
    for seed in range(300):
        rng = random.Random(seed)
        s = _random_relation_system(rng)
        rel = s.relations
        assert rel.ids == tuple(sorted(s.ray_ids, reverse=True))
        for r in s.rays:
            row = s.pairing[s.ray_ids.index(r.id)]
            assert all(
                type(v) is int or v.denominator > 1
                for v in rel.toward[rel.bit[r.id].bit_length() - 1] if v is not None
            )
            seen_halves += any(v.denominator > 1 for v in row)
            if r.type is RayType.II:
                assert _simple(s, r.id) == _fraction_simple(s, r.id), seed
        divisorial = sorted(r.id for r in s.divisorial_rays)
        seen_small += len(divisorial) < len(s.rays)
        for k in range(len(divisorial) + 1):
            for nodes in combinations(divisorial, k):
                nodes = list(nodes)
                assert divisorial_components(s, nodes) == _fraction_components(s, nodes)
                arrows = {
                    (a, b) for a in nodes for b in nodes
                    if a != b and s.q(a, s.divisor_of(b)) > 0
                }
                g = build_graph(s, nodes)
                assert g.nodes == tuple(nodes) and g.arrows == arrows, seed
                succ = {a: [b for b in nodes if (a, b) in arrows] for a in nodes}
                want = {(a, b): _bfs_distance(succ, a, b) for a in nodes for b in nodes}
                assert g.dist == want and list(g.dist) == list(want)
                assert is_single_arrow_connected(s, nodes) == (INF not in want.values())
                assert _cross_pairings_nonnegative(s, nodes) == _fraction_cross_nonnegative(
                    s, nodes
                )
                if nodes:
                    assert condition_ii_witness(s, nodes) == _fraction_condition_ii(
                        s, nodes
                    ), (seed, nodes)
        # Small and unknown rays on the mask paths fail as the scans do.
        for rid in set(s.ray_ids) - set(divisorial):
            assert not _cross_pairings_nonnegative(s, [rid, *divisorial[:1]])
            with pytest.raises(ValueError, match=f"ray {rid} is small and has no divisor"):
                divisorial_components(s, [rid])
            with pytest.raises(ValueError, match="is small and carries no divisor"):
                condition_ii_witness(s, [rid])
        with pytest.raises(ValueError, match="unknown ray ZZ"):
            build_graph(s, ["ZZ"])
        assert not _cross_pairings_nonnegative(s, ["ZZ"])
    assert seen_halves > 200 and seen_small > 50


def test_with_faces_matches_a_fresh_system():
    """A variant equals, hashes and prints as a fresh system with its faces.
    On the 3-ray base every family is sparse; on eset-d with k = 8 (8 rays)
    the dense ones carry subset maps, which like `maximal_masks` stay out of
    equality, hashing and repr."""
    base = system_eset_a()
    dense = system_eset_d(8)
    runs = [(base, faces) for faces in face_variants(list(base.ray_ids))] + [
        (base, [[], ["S1"], ["S2"], ["S3"]]),
        (base, [["S2", "S1"], ["S1", "S2"], ["S3"]]),
        (base, None),
        *((dense, faces) for faces in islice(face_variants(list(dense.ray_ids)), 12)),
        (dense, dense.faces),
        (dense, None),
    ]
    maps = 0
    for source, faces in runs:
        variant = source.with_faces(faces)
        # The same data objects, so that `meets` prints in the same order.
        fresh = RayDivisorSystem(
            rays=source.rays,
            divisors=source.divisors,
            pairing=source.pairing,
            meets=source.meets,
            faces=faces,
            anticanonical=source.anticanonical,
            fano_mode=source.fano_mode,
        )
        assert variant == fresh
        assert hash(variant) == hash(fresh)
        assert repr(variant) == repr(fresh)
        assert "maximal_masks" not in repr(variant) and "_face_maps" not in repr(variant)
        assert variant.faces == fresh.faces
        assert variant._face_masks == fresh._face_masks
        assert variant.relations.bit == fresh.relations.bit
        assert variant.maximal_masks == fresh.maximal_masks
        assert (variant._face_maps is None) == (fresh._face_maps is None)
        if variant._face_maps is not None:
            assert variant._face_maps is not fresh._face_maps
            assert variant._face_maps.faces == fresh._face_maps.faces
            maps += 1
        if faces is not None:
            want = sorted({frozenset(f) for f in faces}, key=lambda f: (len(f), sorted(f)))
            assert list(variant.faces) == want
            assert variant._face_masks == tuple(variant.ray_mask(f) for f in want)
            assert validate(variant) == validate(fresh)
        for name in ("rays", "divisors", "pairing", "meets"):
            assert getattr(variant, name) is getattr(source, name)
    assert maps == 13
    for make in (base.with_faces, lambda faces: replace(base, faces=faces)):
        with pytest.raises(SystemFormatError, match="face names unknown ray X"):
            make([[], ["S1", "X"]])
    with pytest.raises(ValueError, match="unknown ray X"):
        base.ray_mask(["S1", "X", "Y"])


def test_systems_keep_only_their_data_and_relations_index_them():
    """A sweep system stores its dataclass fields and nothing else until a
    question is asked; its `Relations` maps ids to positions, and gives the
    first id in sorted order the highest bit."""
    data = {f.name for f in fields(RayDivisorSystem)}
    count = 0
    for s in enumerate_sign_systems(4):
        assert vars(s).keys() == data
        rel = Relations(s)
        assert rel.index == {r.id: i for i, r in enumerate(s.rays)}
        assert rel.div_index == {d: i for i, d in enumerate(s.divisors)}
        ids = sorted(rel.index)
        assert rel.bit == {rid: 1 << (len(ids) - 1 - k) for k, rid in enumerate(ids)}
        assert vars(s).keys() == data
        count += 1
    assert count == 7729


def _verdict(s):
    """A sweep verdict on `s`: the classification, the E-set report, and the
    E-set questions asked one by one through the public functions."""
    esets = []
    for eset in find_esets(s, [r.id for r in s.divisorial_rays]):
        full = condition_iii_full(s, eset)
        esets.append((
            sorted(eset),
            check_condition_ii(s, eset),
            full,
            None if full is None else check_lemma11(s, eset),
        ))
    return classify_report(s), esets_report(s), esets


def test_verdicts_leave_the_base_untouched():
    """A verdict on a face variant changes nothing on the base, and leaves
    nothing on the variant but its dataclass fields (the face family derived
    when its faces were set included) and the cached relation tables: it
    equals the verdict on a fresh variant.  The 158 sweep bases up to 3 rays
    are built without faces, so they carry the derived fields from
    construction."""
    kept = {f.name for f in fields(RayDivisorSystem)} | {"relations"}
    esets = bases = 0
    for base in (system_eset_a(), system_cm(3), system_d2(), system_eset_d(3),
                 *enumerate_sign_systems(3)):
        bases += 1
        before = dict(base.__dict__)
        for faces in face_variants(list(base.ray_ids)):
            s = base.with_faces(faces)
            verdict = _verdict(s)
            assert s.__dict__.keys() <= kept, faces
            assert _verdict(base.with_faces(faces)) == verdict, faces
            esets += len(verdict[2])
        assert base.__dict__ == before
        assert base.__dict__.keys() == before.keys()
    assert bases == 4 + 158
    assert esets > 10
