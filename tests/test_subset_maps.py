"""Subset maps against the loops they stand in for.

`raysystem.SubsetMaps` holds a face family over n rays as one int, bit f set
for each face mask f, and answers in n shift-and-mask steps what the loops
answer face by face: the maximal faces, the E-sets inside a ray set, and the
faces that are not full.  A system builds the maps once, when its faces are
set, and only for a dense family (at least 64 faces, at most 8 map bits per
face); every caller reads them there.  Here both paths run on the same
seeded families, on both sides of that rule, and must give the same answers
in the same order.
"""

import io
import random
import time
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations

from moribound.cli import main
from moribound.generate import enumerate_sign_systems
from moribound.raysystem import (
    RayDivisorSystem,
    SubsetMaps,
    _maximal_by_loop,
    _maximal_by_map,
    _partial_by_loop,
    _partial_by_map,
    _validate_faces,
    validate,
)
from moribound.structure import (
    _eset_masks,
    _esets_by_map,
    _esets_by_transversals,
    classify_report,
    esets_report,
    find_esets,
)


def _system_on(n, faces=None, kind="II"):
    """n rays of one type, each on its own divisor, none touching."""
    ids = [f"R{i:02d}" for i in range(n)]
    return RayDivisorSystem.of(
        rays=[(rid, kind, f"D{rid}") for rid in ids],
        divisors=[f"D{rid}" for rid in ids],
        pairing=[[-1 if a == b else 0 for b in ids] for a in ids],
        faces=faces,
    )


def _down(tops):
    return {frozenset(c) for top in tops for k in range(len(top) + 1) for c in combinations(top, k)}


def _meets(sets):
    """The sets closed under intersection."""
    closed = set(sets)
    while True:
        more = {a & b for a in closed for b in closed} - closed
        if not more:
            return closed
        closed |= more


def _families(count):
    """Seeded face families over 1-10 rays, with the ray count: the subsets
    of a few tops and the singletons, as they are, plus some intersection
    closed sets whose subsets are not all faces, or missing the empty face
    or a singleton.  Many tops over 7-10 rays make dense ones."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        ids = [f"R{i:02d}" for i in range(n)]
        tops = [rng.sample(ids, rng.randint(0, n)) for _ in range(rng.randint(1, 6))]
        faces = _down(tops) | {frozenset((rid,)) for rid in ids}
        kind = seed % 4
        if kind == 1:  # still intersection-closed
            faces |= _meets(frozenset(rng.sample(ids, rng.randint(1, n))) for _ in range(4))
        elif kind == 2:
            faces.discard(frozenset())
        elif kind == 3:
            faces.discard(frozenset((rng.choice(ids),)))
        yield n, [sorted(f) for f in faces]


def _answers(base, faces, withins):
    """The three callers' answers on a fresh variant: the maximal faces, the
    E-set masks (or the error text) for each `within`, and the face
    violations."""
    s = base.with_faces(faces)
    esets = []
    for within in withins:
        try:
            esets.append(_eset_masks(s, within))
        except ValueError as exc:
            esets.append(str(exc))
    return s.maximal_masks, esets, _validate_faces(s, s.relations)


def _take_maps(monkeypatch, always):
    """Make every system build the maps (always=True) or none, so that every
    caller takes the maps or the loops."""
    def of(masks, n):
        return SubsetMaps(n, masks) if always else None

    monkeypatch.setattr(SubsetMaps, "of", staticmethod(of))


def test_density_rule():
    assert SubsetMaps.of(range(63), 3) is None  # too few faces
    assert SubsetMaps.of(range(64), 9).n == 9  # 512 bits, 8 per face
    assert SubsetMaps.of(range(64), 10) is None  # 16 bits per face
    assert SubsetMaps.of(range(4095), 12).n == 12


def test_maps_and_loops_agree_on_seeded_families(monkeypatch):
    bases = {n: _system_on(n) for n in range(1, 11)}
    runs, dense = [], 0
    for seed, (n, faces) in enumerate(_families(240)):
        rng = random.Random(seed)
        ids = list(bases[n].ray_ids)
        withins = [rng.sample(ids, rng.randint(0, n)) for _ in range(4)] + [ids, ["R99"]]
        runs.append((bases[n], faces, withins))
        dense += bases[n].with_faces(faces)._face_maps is not None
    # Both sides of the density rule, and every kind of family.
    assert 20 < dense < 200
    want = [_answers(*run) for run in runs]
    assert sum(isinstance(e, list) and len(e) > 0 for _, esets, _ in want for e in esets) > 100
    assert sum(bool(violations) for _, _, violations in want) > 100
    with monkeypatch.context() as m:
        _take_maps(m, True)
        assert [_answers(*run) for run in runs] == want
    with monkeypatch.context() as m:
        _take_maps(m, False)
        assert [_answers(*run) for run in runs] == want


def test_map_functions_match_loops_on_sampled_sweep_pairs():
    """5,000 seeded pairs of the exhaustive 4-ray sweep, whose families are
    sparse and so stay on the loops, through the map functions directly."""
    sample = set(random.Random(38).sample(range(91604), 5000))
    checked = 0
    for i, (base, variant) in enumerate(enumerate_sign_systems(max_rays=4, with_faces=True)):
        if i not in sample:
            continue
        s = base.with_faces(variant)
        masks, whole = s._face_masks, s.relations.divisorial
        maps = SubsetMaps(len(s.rays), masks)
        maximal = _maximal_by_loop(masks)
        assert _maximal_by_map(maps) == maximal
        assert _partial_by_map(maps) == _partial_by_loop(masks)
        assert _esets_by_map(maps, whole) == _esets_by_transversals(maximal, whole)
        checked += 1
    assert checked == 5000


def test_sparse_family_over_many_rays_stays_on_the_loops(monkeypatch):
    """Forty rays whose faces are the empty set, the singletons and three
    pairs: their map would take 2^40 bits, so no map is built and the loops
    answer at once."""
    n = 40
    ids = [f"R{i:02d}" for i in range(n)]
    faces = [[], *([rid] for rid in ids), ids[:2], ids[2:4], [ids[1], ids[5]]]

    def refuse(self, n, masks):
        raise AssertionError(f"a subset map over {n} rays was built")

    monkeypatch.setattr(SubsetMaps, "__init__", refuse)
    start = time.perf_counter()
    s = _system_on(n, faces, kind="I")
    assert validate(s) == []
    esets = find_esets(s, ids)
    report = classify_report(s)
    assert time.perf_counter() - start < 1.0
    assert len(esets) == n * (n - 1) // 2 - 3
    assert len(report["failures"]) == len(esets)
    assert {f["reason"] for f in report["failures"]} == {"disjoint-eset-with-type-i"}


def _count_builds(monkeypatch):
    """A counter of the `SubsetMaps` built and the family maps drawn."""
    counts = Counter()
    init, family = SubsetMaps.__init__, SubsetMaps.family

    def counted_init(self, n, masks):
        counts["maps"] += 1
        init(self, n, masks)

    def counted_family(self, masks):
        counts["family"] += 1
        return family(self, masks)

    monkeypatch.setattr(SubsetMaps, "__init__", counted_init)
    monkeypatch.setattr(SubsetMaps, "family", counted_family)
    return counts


def test_a_dense_file_builds_one_map_per_command(monkeypatch, tmp_path):
    """check, classify and esets on eset-d with k = 12 (4,095 faces) and cm
    with m = 10 (1,024 faces) build one map each, where the faces are set,
    and every caller reads it."""
    counts = _count_builds(monkeypatch)
    for name, opts in (("eset-d", ["--k", "12"]), ("cm", ["--m", "10"])):
        path = str(tmp_path / f"{name}.json")
        with redirect_stdout(io.StringIO()):
            assert main(["gen", "--family", name, *opts, "--out", path]) == 0
            for command in ("check", "classify", "esets"):
                counts.clear()
                assert main([command, path]) == 0
                assert counts == {"maps": 1, "family": 1}, (name, command)


def test_sparse_families_build_no_map(monkeypatch):
    """The 40-ray system of the test above and 500 seeded sweep pairs build
    no map through validation, classification and the E-set report."""
    counts = _count_builds(monkeypatch)
    ids = [f"R{i:02d}" for i in range(40)]
    faces = [[], *([rid] for rid in ids), ids[:2], ids[2:4], [ids[1], ids[5]]]
    systems = [_system_on(40, faces, kind="I")]
    sample = set(random.Random(39).sample(range(91604), 500))
    for i, (base, variant) in enumerate(enumerate_sign_systems(max_rays=4, with_faces=True)):
        if i in sample:
            systems.append(base.with_faces(variant))
    for s in systems:
        validate(s)
        classify_report(s)
        esets_report(s)
    assert len(systems) == 501
    assert counts == {}
