"""Component and E-set classification, feasibility conditions, filters."""

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations, product

import pytest

from moribound import structure
from moribound.core import format_rational, scale_primitive, solve_inequalities
from moribound.cli import main
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
from moribound.raysystem import (
    RayDivisorSystem,
    RayType,
    SystemFormatError,
    is_single_arrow_connected,
    system_to_json,
    validate,
)
from moribound.structure import (
    FAILURES,
    ClassificationFailure,
    _cross_pairings_nonnegative,
    check_condition_ii,
    check_condition_iii,
    check_lemma11,
    classify_component,
    classify_eset,
    classify_extremal_set,
    classify_report,
    condition_ii_witness,
    condition_iii_full,
    contact_violations,
    detect_e2_pairs,
    esets_report,
    find_esets,
    is_extremal,
)


def powerset_faces(ids):
    ids = sorted(ids)
    return [list(c) for k in range(len(ids) + 1) for c in combinations(ids, k)]


# --- component classification ------------------------------------------------


def test_single_rays():
    s = system_d2()
    assert classify_component(s, ["S1"]).label == "C:1"
    assert classify_component(s, ["S2"]).label == "A1"


def test_shared_divisor_pair_is_b2():
    t = classify_component(system_b2(), ["R1", "R2"])
    assert t.label == "B2"


def test_hub_pair_is_c2():
    t = classify_component(system_c2(), ["S1", "S2"])
    assert t.label == "C:2"
    assert t.hub == "S1"
    assert not t.hub_ambiguous


def test_hub_star_is_cm():
    t = classify_component(system_cm(4), ["S1", "S2", "S3", "S4"])
    assert t.label == "C:4"
    assert t.hub == "S1"


def test_mixed_pair_is_d2():
    t = classify_component(system_d2(), ["S1", "S2"])
    assert t.label == "D2"


def test_contracting_small_pair_is_e2():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("X", "small")],
        divisors=["D1"],
        pairing=[[-1], [-1]],
        meets=[],
    )
    assert classify_component(s, ["A", "X"]).kind == "E2"


# --- classification failures at the public edge -------------------------------


def _failure(reason, call, s, rays, subject=None, variant=""):
    """One row of FAILURE_CASES: `call(s, rays)` must fail for `reason`,
    naming `subject` (by default the rays)."""
    return pytest.param(
        reason, call, s, rays, sorted(subject or rays), id=reason + variant
    )


def _touching(types, pairing, meets=None, faces=None):
    """Rays A, B, ... of the given types on divisors D1, D2, ..., each
    divisor touching the next unless `meets` says otherwise."""
    divisors = [f"D{i}" for i in range(1, len(types) + 1)]
    return RayDivisorSystem.of(
        rays=[(chr(ord("A") + i), t, d) for i, (t, d) in enumerate(zip(types, divisors))],
        divisors=divisors,
        pairing=pairing,
        meets=list(zip(divisors, divisors[1:])) if meets is None else meets,
        faces=faces,
    )


FAILURE_CASES = [
    _failure(
        "small-pair-not-contracting",
        classify_component,
        RayDivisorSystem.of(
            rays=[("A", "II", "D1"), ("X", "small")],
            divisors=["D1"],
            pairing=[[-1], [1]],
            meets=[],
        ),
        ["A", "X"],
    ),
    # A small ray contracts only on a strictly negative pairing.
    _failure(
        "small-pair-not-contracting",
        classify_component,
        RayDivisorSystem.of(
            rays=[("A", "II", "D1"), ("X", "small")],
            divisors=["D1"],
            pairing=[[-1], [0]],
            meets=[],
        ),
        ["A", "X"],
        variant="-at-zero",
    ),
    _failure(
        "small-ray-in-component",
        classify_component,
        RayDivisorSystem.of(
            rays=[("A", "II", "D1"), ("B", "II", "D2"), ("X", "small")],
            divisors=["D1", "D2"],
            pairing=[[-1, 0], [1, -1], [-1, 0]],
            meets=[("D1", "D2")],
        ),
        ["A", "B", "X"],
    ),
    _failure(
        "shared-divisor-not-type-ii",
        classify_component,
        RayDivisorSystem.of(
            rays=[("A", "II", "D1"), ("B", "I", "D1")],
            divisors=["D1"],
            pairing=[[-1], [-1]],
            meets=[],
        ),
        ["A", "B"],
    ),
    _failure(
        "joined-type-i-pair",
        classify_component,
        _touching(["I", "I"], [[-1, 1], [1, -1]]),
        ["A", "B"],
    ),
    _failure(
        "mixed-pair-crosses-not-positive",
        classify_component,
        _touching(["II", "I"], [[-1, 0], [1, -1]]),
        ["A", "B"],
    ),
    _failure(
        "mixed-pair-cone-not-pointed",
        classify_component,
        _touching(["II", "I"], [[-1, 2], [2, -1]]),
        ["A", "B"],
    ),
    _failure(
        "oversized-component-with-type-i",
        classify_component,
        _touching(
            ["II", "II", "I"],
            [[-1, 0, 0], [1, -1, 0], [1, 0, -1]],
            meets=[("D1", "D2"), ("D1", "D3")],
        ),
        ["A", "B", "C"],
    ),
    # A path: A -> B -> C in contact, but no single ray vanishes on all the
    # others' divisors while they are positive on its own.
    _failure(
        "no-hub-ray",
        classify_component,
        _touching(["II", "II", "II"], [[-1, 1, 0], [1, -1, 1], [0, 1, -1]]),
        ["A", "B", "C"],
    ),
    _failure(
        "shared-divisor-pair",
        classify_eset,
        system_b2().with_faces([[], ["R1"], ["R2"]]),
        ["R1", "R2"],
    ),
    _failure(
        "type-i-pair",
        classify_eset,
        _touching(["I", "I"], [[-1, 1], [1, -1]]),
        ["A", "B"],
    ),
    # hub-shaped pair: one-sided pairing
    _failure(
        "hub-pattern-pair-not-extremal",
        classify_eset,
        _touching(["II", "II"], [[-1, 0], [1, -1]], faces=[[], ["A"], ["B"]]),
        ["A", "B"],
    ),
    # C, of type I, is negative on both divisors: no case (b) combination.
    _failure(
        "connected-pair-unclassifiable",
        classify_eset,
        _touching(
            ["II", "II", "I"],
            [[-1, 1, 0], [1, -1, 0], [-1, -1, -1]],
            meets=[("D1", "D2")],
        ),
        ["A", "B"],
    ),
    # A -> B -> C -> A strict forward, zero back, but C is of type I.
    _failure(
        "connected-triple-not-cyclic",
        classify_eset,
        _touching(["II", "II", "I"], [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]),
        ["A", "B", "C"],
        variant="-type-i",
    ),
    _failure(
        "connected-triple-not-cyclic",
        classify_eset,
        _touching(["II", "II", "II"], [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]),
        ["A", "B", "C"],
        variant="-no-cycle",
    ),
    # A -> B -> C -> A strict forward, zero back; D, of type I, is negative
    # on D1, so the unit sum D1 + D2 + D3 is not nef.
    _failure(
        "cyclic-triple-rejects-unit-combination",
        classify_eset,
        _touching(
            ["II", "II", "II", "I"],
            [[-1, 1, 0, 0], [0, -1, 1, 0], [1, 0, -1, 0], [-1, 0, 0, -1]],
            meets=[("D1", "D2"), ("D2", "D3"), ("D1", "D3")],
        ),
        ["A", "B", "C"],
    ),
    # Only the non-simple member A is named: -2 + 1 < 0.
    _failure(
        "nonsimple-type-ii-member",
        classify_eset,
        _touching(["II", "II"], [[-2, 1], [1, -1]]),
        ["A", "B"],
        subject=["A"],
    ),
    _failure(
        "disconnected-eset-not-pairwise-disjoint",
        classify_eset,
        _touching(
            ["II", "II", "II"], [[-1, 1, 0], [1, -1, 0], [0, 0, -1]], meets=[("D1", "D2")]
        ),
        ["A", "B", "C"],
    ),
    _failure(
        "disjoint-eset-with-type-i",
        classify_eset,
        _touching(["II", "I"], [[-1, 0], [0, -1]], meets=[]),
        ["A", "B"],
    ),
    _failure(
        "oversized-connected-eset",
        classify_eset,
        _touching(["II"] * 4, [[-1 if i == j else 1 for j in range(4)] for i in range(4)]),
        ["A", "B", "C", "D"],
    ),
]


@pytest.mark.parametrize("reason, call, s, rays, subject", FAILURE_CASES)
def test_failure_at_the_public_edge(reason, call, s, rays, subject):
    with pytest.raises(ClassificationFailure) as exc:
        call(s, rays)
    assert (exc.value.reason, list(exc.value.rays)) == (reason, subject)
    assert str(exc.value) == f"{reason} [{', '.join(subject)}]: {FAILURES[reason]}"


def test_failure_cases_cover_every_raised_reason():
    # `small-ray-unclassified` is only ever recorded, never raised.
    raised = {case.values[0] for case in FAILURE_CASES}
    assert raised == FAILURES.keys() - {"small-ray-unclassified"}


# The per-reason tests the table replaced keep their names and run their rows.
def _raises_as_listed(*ids):
    cases = [case for case in FAILURE_CASES if case.id in ids]
    assert len(cases) == len(ids)
    for case in cases:
        test_failure_at_the_public_edge(*case.values)


def test_noncontracting_small_pair_rejected():
    _raises_as_listed("small-pair-not-contracting")


def test_small_ray_in_larger_component_rejected():
    _raises_as_listed("small-ray-in-component")


def test_shared_divisor_with_type_i_rejected():
    _raises_as_listed("shared-divisor-not-type-ii")


def test_mixed_pair_needs_positive_crosses():
    _raises_as_listed("mixed-pair-crosses-not-positive")


def test_mixed_pair_cone_not_pointed():
    _raises_as_listed("mixed-pair-cone-not-pointed")


def test_type_i_in_large_component_rejected():
    _raises_as_listed("oversized-component-with-type-i")


def test_no_hub_rejected():
    _raises_as_listed("no-hub-ray")


def test_eset_failures():
    _raises_as_listed("shared-divisor-pair", "hub-pattern-pair-not-extremal")


def test_hub_ambiguity_flagged():
    # Both rays vanish on each other's divisor... impossible; ambiguity needs
    # two valid hubs, which for a pair means both directions hub-shaped.
    # Build a 3-star where two centers qualify via zero spokes.
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 0], [1, -1]],
        meets=[("D1", "D2")],
    )
    t = classify_component(s, ["A", "B"])
    assert t.hub == "A" and not t.hub_ambiguous


def _determinant(s, a, b):
    """Oracle for the D2 label: the determinant of a pair's 2 x 2 pairing."""
    da, db = s.divisor_of(a), s.divisor_of(b)
    return s.q(a, da) * s.q(b, db) - s.q(a, db) * s.q(b, da)


def _d2_label(s, rays):
    """Whether `classify_component` labels the pair D2 (False on a failure)."""
    try:
        return classify_component(s, rays).label == "D2"
    except ClassificationFailure:
        return False


def test_d2_condition_determinant():
    s = system_d2()  # pairing [[-1, 1], [1, -2]]: 2 - 1 = 1 > 0
    assert _d2_label(s, ["S1", "S2"]) and _determinant(s, "S1", "S2") > 0
    t = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "I", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 2], [2, -1]],
        meets=[("D1", "D2")],
    )
    assert not _d2_label(t, ["A", "B"]) and _determinant(t, "A", "B") < 0
    assert not _d2_label(t, ["B", "A"])  # the order of the rays does not matter


def test_d2_verdict_matches_the_determinant_on_every_small_mixed_pair():
    # With negative self pairings and positive crosses, the divisor cone of a
    # touching (type II, type I) pair is pointed exactly when the determinant
    # is positive.  A nonnegative self pairing is a witness on its own axis.
    for q11, q12, q21, q22 in product(range(-2, 3), repeat=4):
        s = RayDivisorSystem.of(
            rays=[("A", "II", "D1"), ("B", "I", "D2")],
            divisors=["D1", "D2"],
            pairing=[[q11, q12], [q21, q22]],
            meets=[("D1", "D2")],
        )
        report = classify_extremal_set(s, ["A", "B"])
        got = ([t.label for _, t in report.components], [why for _, why in report.failures])
        if q12 <= 0 or q21 <= 0:
            assert got == ([], ["mixed-pair-crosses-not-positive"])
        elif q11 < 0 and q22 < 0 and q11 * q22 - q12 * q21 > 0:
            assert got == (["D2"], [])
        else:
            assert got == ([], ["mixed-pair-cone-not-pointed"])
        if q11 < 0 and q22 < 0 and q12 > 0 and q21 > 0:
            assert _d2_label(s, ["A", "B"]) == (_determinant(s, "A", "B") > 0)
        else:
            with pytest.raises(ClassificationFailure, match="mixed-pair"):
                classify_component(s, ["A", "B"])


# --- extremal-set reports and the shape filter -------------------------------


def test_classify_extremal_set_and_filter():
    s = system_c2()
    report = classify_extremal_set(s, ["S1", "S2"])
    assert report.passes_theorem258
    labels = sorted(t.label for _, t in report.components)
    assert labels == ["C:2"]

    b = classify_extremal_set(system_b2(), ["R1", "R2"])
    assert not b.passes_theorem258  # B2 is not an admissible shape

    d = classify_extremal_set(system_d2(), ["S1", "S2"])
    assert d.passes_theorem258


def test_filter_empty_set_passes():
    report = classify_extremal_set(system_c2(), [])
    assert report.passes_theorem258


def test_filter_rejects_two_specials():
    # Two A1 components: each a lone type I ray on disjoint divisors.
    s = RayDivisorSystem.of(
        rays=[("A", "I", "D1"), ("B", "I", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 0], [0, -1]],
        meets=[],
    )
    report = classify_extremal_set(s, ["A", "B"])
    assert not report.passes_theorem258


# --- feasibility conditions --------------------------------------------------


def test_condition_ii_on_shared_pair():
    # Any nonnegative combination of a single shared divisor is strictly
    # negative on both rays, so the exclusion holds.
    assert check_condition_ii(system_b2(), ["R1", "R2"])


def test_condition_ii_witness_on_cycle():
    s = system_eset_a()
    w = condition_ii_witness(s, ["S1", "S2", "S3"])
    assert w is not None
    # verify the witness by hand
    ids = ["S1", "S2", "S3"]
    for rid in ids:
        assert sum(c * s.q(rid, s.divisor_of(o)) for c, o in zip(w, ids)) >= 0
    assert check_condition_ii(s, ids) is False


def _unit_row_sums(s, ids):
    """Oracle for the condition (iii) row sums: every ray's pairing with the
    sum of the members' divisors, added up as Fractions."""
    return [
        sum((Fraction(s.q(p, s.divisor_of(r))) for r in ids), Fraction(0))
        for p in s.ray_ids
    ]


def test_condition_iii_prefers_unit_vector():
    s = system_eset_a()
    w = check_condition_iii(s, ["S1", "S2", "S3"])
    assert w == (Fraction(1), Fraction(1), Fraction(1))
    assert min(_unit_row_sums(s, ["S1", "S2", "S3"])) >= 0


def test_condition_iii_takes_all_ones_when_a_unit_row_sum_is_zero():
    # R1 and R2 pair 0 with the unit divisor sum and R3 pairs 1; the cone's
    # lexicographically least witness is (0, 1, 1), but all ones is preferred.
    s = RayDivisorSystem.of(
        rays=[("R1", "I", "D1"), ("R2", "II", "D2"), ("R3", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 0, 1], [0, -1, 1], [1, 1, -1]],
        meets=[("D1", "D3"), ("D2", "D3")],
    )
    ids = ["R1", "R2", "R3"]
    assert _unit_row_sums(s, ids) == [0, 0, 1]
    assert check_condition_iii(s, ids) == (Fraction(1), Fraction(1), Fraction(1))


def test_condition_iii_full_gate():
    s = system_eset_a()
    assert condition_iii_full(s, ["S1", "S2", "S3"]) is not None
    # Any proper subset is extremal; the full hypothesis fails on it since the
    # set itself then satisfies condition (ii)... the gate simply returns None.
    assert condition_iii_full(s, ["S1", "S2"]) is None


def _subset_walk(s, ids, condition_ii):
    """Reference: condition (ii) on all 2^k - 2 proper subsets, then (iii)."""
    ids = sorted(set(ids))
    for size in range(1, len(ids)):
        for sub in combinations(ids, size):
            if not condition_ii(sub):
                return None
    return check_condition_iii(s, ids)


def _random_unvalidated_system(rng):
    """Up to five rays, some small, some sharing a divisor, pairings in
    {-2, ..., 2}; in half the systems a ray pairs < 0 with its own divisor
    and >= 0 with every other.  No model invariant is enforced."""
    n = rng.randint(1, 5)
    divisors = [f"D{i}" for i in range(rng.randint(max(1, n - 1), n))]
    slots = rng.sample(range(n), n)  # with n - 1 divisors, two rays share one
    rays = [
        (f"R{i}", "small") if rng.random() < 0.1
        else (f"R{i}", rng.choice(("I", "II")), divisors[slot % len(divisors)])
        for i, slot in enumerate(slots)
    ]
    own, other = rng.choice((((-2, 2), (-2, 2)), ((-2, -1), (0, 2))))
    pairing = [
        [rng.randint(*(own if ray[-1] == d else other)) for d in divisors]
        for ray in rays
    ]
    return RayDivisorSystem.of(rays=rays, divisors=divisors, pairing=pairing)


def test_condition_iii_full_matches_subset_walk():
    pruned = set()  # outcomes seen where only the largest subsets are solved
    for seed in range(300):
        s = _random_unvalidated_system(random.Random(seed))
        condition_ii = cache(lambda sub: check_condition_ii(s, sub))
        for k in range(1, len(s.rays) + 1):
            for ids in combinations(s.ray_ids, k):
                want = _outcome(lambda: _subset_walk(s, ids, condition_ii))
                assert _outcome(lambda: condition_iii_full(s, ids)) == want, (seed, ids)
                if k > 2 and _cross_pairings_nonnegative(s, ids):
                    pruned.add(want is None)
    assert pruned == {True, False}


def test_condition_iii_full_solves_only_the_largest_subsets(monkeypatch):
    s = system_eset_d(12)
    calls = []
    real = structure._cone_witness

    def counted(rows, nvars, positive):
        calls.append(nvars)
        return real(rows, nvars, positive)

    monkeypatch.setattr(structure, "_cone_witness", counted)
    assert condition_iii_full(s, s.ray_ids) is None
    assert 0 < len(calls) <= 13  # the 12 subsets of 11 rays, then (iii)


def _fresh_cone_witness(rows, nvars, positive):
    """Reference: the constraints written out and solved with no memo."""
    if positive:  # m_i >= 1, as case (b) asks
        constraints = [
            (tuple(int(i == j) for j in range(nvars)), 1) for i in range(nvars)
        ] + [(row, 0) for row in rows]
    else:  # m >= 0, sum m >= 1
        constraints = (
            [(row, 0) for row in rows]
            + [(tuple(int(i == j) for j in range(nvars)), 0) for i in range(nvars)]
            + [((1,) * nvars, 1)]
        )
    witness = solve_inequalities(constraints, nvars)
    return None if witness is None else scale_primitive(witness)


def test_memoised_cone_witness_matches_fresh_solve():
    # Entries -2 ... 2 with halves, about half of them zero: dense mixed-sign
    # rows blow the unpruned Fourier-Motzkin up from five columns on.
    entries = [Fraction(n, 2) for n in range(-4, 5)] + [Fraction(0)] * 8
    structure._cone_witness.cache_clear()
    feasible = infeasible = 0
    for seed in range(400):
        rng = random.Random(seed)
        k = 1 + seed % 6
        rows = tuple(
            tuple(rng.choice(entries) for _ in range(k))
            for _ in range(rng.randint(0, k))
        )
        # Both variants on the same rows, twice: a key shared between them,
        # or a cached answer that differs from a fresh one, shows here.
        for _ in range(2):
            for positive in (False, True):
                got = structure._cone_witness(rows, k, positive)
                assert got == _fresh_cone_witness(rows, k, positive), (seed, positive)
                if got is None:
                    infeasible += 1
                    continue
                feasible += 1
                assert all(m.denominator == 1 for m in got)
                assert all(m >= (1 if positive else 0) for m in got) and any(got)
                for row in rows:
                    assert sum(a * m for a, m in zip(row, got)) >= 0
    assert feasible and infeasible
    assert structure._cone_witness.cache_info().hits >= 800


def test_equal_member_matrices_share_one_solve(monkeypatch):
    first = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D2"), ("C", "I", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 2, 0], [2, -1, 1], [1, 1, -1]],
    )
    second = RayDivisorSystem.of(
        rays=[("P", "I", "E1"), ("Q", "II", "E2"), ("R", "II", "E3")],
        divisors=["E1", "E2", "E3"],
        pairing=[[-2, 0, 0], [1, -1, 2], [0, 2, -1]],
    )
    solves = []
    real = structure.solve_inequalities

    def counted(constraints, nvars):
        solves.append(nvars)
        return real(constraints, nvars)

    structure._cone_witness.cache_clear()
    monkeypatch.setattr(structure, "solve_inequalities", counted)
    witness = condition_ii_witness(first, ["A", "B"])
    assert witness is not None and len(solves) == 1
    assert condition_ii_witness(second, ["Q", "R"]) == witness
    assert len(solves) == 1


def test_check_lemma11_on_cycle():
    s = system_eset_a()
    assert check_lemma11(s, ["S1", "S2", "S3"])


def test_check_lemma11_fails_without_back_arrows():
    # Two disjoint rays: no arrows at all, so some bipartition lacks crossings.
    # The pair fails the E-set hypothesis, which `check_lemma11` always asks.
    s = system_eset_d(2)
    assert not is_single_arrow_connected(s, ["S1", "S2"])
    with pytest.raises(ValueError, match="nef-combination hypothesis"):
        check_lemma11(s, ["S1", "S2"])


def _crossing_both_ways(ids, arrows):
    """Reference: every bipartition has an arrow from each side to the other."""
    for size in range(1, len(ids)):
        for part in combinations(ids, size):
            rest = set(ids) - set(part)
            if not any((a, b) in arrows for a in part for b in rest):
                return False
    return True


@pytest.mark.parametrize("k", [2, 3, 4])
def test_check_lemma11_matches_bipartition_scan(k):
    ids = [f"R{i}" for i in range(k)]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    for bits in product((0, 1), repeat=len(pairs)):
        arrows = {pair for pair, bit in zip(pairs, bits) if bit}
        s = RayDivisorSystem.of(
            rays=[(rid, "II", f"D{rid}") for rid in ids],
            divisors=[f"D{rid}" for rid in ids],
            pairing=[
                [-1 if a == b else int((a, b) in arrows) for b in ids] for a in ids
            ],
        )
        # Most of these arrow sets fail the E-set hypothesis, so the answer
        # `check_lemma11` gives once it holds is asked directly.
        got = is_single_arrow_connected(s, ids)
        assert got == _crossing_both_ways(ids, arrows), sorted(arrows)


# --- E-sets -------------------------------------------------------------------


def _esets_by_parts(s):
    """Reference for `esets_report`: the E-sets found, then each question
    asked of the public function that answers it alone."""
    entries = []
    for eset in find_esets(s, [r.id for r in s.divisorial_rays]):
        entry = {"rays": sorted(eset)}
        try:
            etype = classify_eset(s, eset)
            entry["case"], entry["witness"] = etype.kind, etype.to_json()
        except ClassificationFailure as fail:
            entry["failure"] = fail.reason
        entry["condition_ii_members"] = check_condition_ii(s, eset)
        full = condition_iii_full(s, eset)
        entry["condition_iii_full"] = (
            None if full is None else [format_rational(c) for c in full]
        )
        if full is not None:
            entry["bipartition_arrows"] = check_lemma11(s, eset)
        entries.append(entry)
    return {"esets": entries}


def test_esets_report_matches_the_public_functions():
    pairs = enumerate_sign_systems(3, with_faces=True)
    systems = [base.with_faces(faces) for base, faces in pairs]
    assert len(systems) == 752
    systems += [system_eset_a()]
    systems += [system_eset_d(k) for k in range(2, 9)]
    systems += [system_cm(k) for k in range(2, 7)]
    seen = Counter()
    for s in systems:
        report = esets_report(s)
        assert report == _esets_by_parts(s), system_to_json(s)
        for e in report["esets"]:
            seen[e.get("case", "failure"), e.get("bipartition_arrows")] += 1
    # Every case, failures, and E-sets with and without a nef combination.
    assert {case for case, _ in seen} == {"a", "b", "c", "d", "failure"}
    assert {arrows for _, arrows in seen} == {None, True}


def test_reports_build_no_failure_and_print_only_table_reasons(monkeypatch):
    built = []
    init = ClassificationFailure.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClassificationFailure, "__init__", counting_init)
    reasons = set()
    for base, faces in enumerate_sign_systems(3, with_faces=True):
        s = base.with_faces(faces)
        reasons.update(f["reason"] for f in classify_report(s)["failures"])
        reasons.update(e["failure"] for e in esets_report(s)["esets"] if "failure" in e)
    assert built == []
    assert reasons <= FAILURES.keys() and len(reasons) == 8, sorted(reasons)


def test_find_esets_on_cycle():
    s = system_eset_a()
    assert find_esets(s, ["S1", "S2", "S3"]) == [frozenset({"S1", "S2", "S3"})]


def test_find_esets_minimality():
    s = RayDivisorSystem.of(
        rays=[("R1", "II", "D1"), ("R2", "II", "D2"), ("R3", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        meets=[],
        faces=[[], ["R1"], ["R2"], ["R3"], ["R1", "R2"]],
    )
    # {R1,R3} and {R2,R3} are non-extremal and minimal; {R1,R2,R3} contains
    # both, so it is not minimal.
    assert find_esets(s, ["R1", "R2", "R3"]) == [
        frozenset({"R1", "R3"}),
        frozenset({"R2", "R3"}),
    ]


def test_find_esets_rejects_nonextremal_singleton():
    s = RayDivisorSystem.of(
        rays=[("R1", "II", "D1"), ("R2", "II", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 0], [0, -1]],
        meets=[],
        faces=[[], ["R1"]],
    )
    with pytest.raises(ValueError):
        find_esets(s, ["R1", "R2"])


# Ids whose string order differs from both their insertion order and their
# numeric order.
ODD_IDS = ["R10", "R2", "b", "a", "R1", "B", "R9", "A", "c", "R3"]


def _walk_esets(s, within):
    """Reference: the minimal non-extremal subsets of `within`, found by
    walking its subsets smallest first against the listed faces."""
    ids = sorted(set(within))
    if any(not any(rid in f for f in s.faces) for rid in ids):
        raise ValueError("a ray is not extremal on its own")
    found = []
    for size in range(2, len(ids) + 1):
        for combo in combinations(ids, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if not any(cand <= f for f in s.faces):
                found.append(cand)
    return sorted(found, key=lambda f: (len(f), sorted(f)))


def _random_face_case(seed):
    """A seeded system over 1-10 odd-named rays, a face family (arbitrary
    sets, downward closures of a few tops, or an edge case) and a `within`."""
    rng = random.Random(seed)
    ids = ODD_IDS[: rng.randint(1, 10)]
    kind = seed % 5
    if kind == 0:
        faces = [[]]
    elif kind == 1:
        faces = [list(c) for k in range(len(ids) + 1) for c in combinations(ids, k)]
    elif kind == 2:
        faces = [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(rng.randint(0, 12))]
        faces += [[rid] for rid in ids]
    else:
        faces = [[rid] for rid in ids if rng.random() < 0.9]
        for _ in range(rng.randint(1, 4)):
            top = rng.sample(ids, rng.randint(0, len(ids)))
            faces += [list(c) for k in range(len(top) + 1) for c in combinations(top, k)]
    rng.shuffle(faces)
    within = [] if seed % 7 == 0 else rng.sample(ids, rng.randint(1, len(ids)))
    return _system_over(ids, faces), within


def _system_over(ids, faces):
    return RayDivisorSystem.of(
        rays=[(rid, "II", f"D{rid}") for rid in ids],
        divisors=[f"D{rid}" for rid in ids],
        pairing=[[-1 if a == b else 0 for b in ids] for a in ids],
        faces=faces,
    )


def test_find_esets_matches_subset_walk():
    nonempty = raised = 0
    for seed in range(300):
        s, within = _random_face_case(seed)
        try:
            want = _walk_esets(s, within)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="not extremal on its own"):
                find_esets(s, within)
            continue
        assert find_esets(s, within) == want, (s.faces, within)
        nonempty += len(want) > 1
    assert nonempty > 30 and raised > 10


def test_find_esets_edge_families():
    ids = ["R10", "R2", "b", "a"]
    whole = _system_over(ids, [[], *([rid] for rid in ids), ids])
    assert find_esets(whole, ids) == []
    assert find_esets(whole, []) == []
    assert find_esets(_system_over(ids, [[]]), []) == []
    assert find_esets(_system_over(ids, []), []) == []
    singletons = _system_over(ids, [[rid] for rid in ids])
    assert find_esets(singletons, ids) == [
        frozenset(pair) for pair in combinations(sorted(ids), 2)
    ]


def _brute_minimal_transversals(edges, width):
    """Every inclusion-minimal subset of `width` bits meeting each edge, by
    testing all 2^width subsets."""
    hitting = [t for t in range(1 << width) if all(t & edge for edge in edges)]
    return sorted(t for t in hitting if not any(u != t and not u & ~t for u in hitting))


def test_minimal_transversals_match_brute_force():
    """Berge's method, with each grown set checked only against the kept sets
    hitting the edge in its new bit, finds the minimal transversals of a
    subset scan: on seeded edge families of up to 9 bits (nested, repeated
    and single-bit edges among them), on no edges and on an empty edge."""
    rng = random.Random(30)
    assert structure._minimal_transversals([]) == [0]
    assert structure._minimal_transversals([0, 3]) == []
    grew = 0
    for _ in range(600):
        width = rng.randint(1, 9)
        edges = [rng.randrange(1, 1 << width) for _ in range(rng.randint(1, 8))]
        edges += [e & rng.randrange(1 << width) or e for e in rng.sample(edges, len(edges) // 2)]
        edges += rng.sample(edges, len(edges) // 3)
        found = structure._minimal_transversals(edges)
        assert len(found) == len(set(found)), edges
        assert sorted(found) == _brute_minimal_transversals(edges, width), edges
        grew += len(found) > len(edges)
    assert grew > 50


def test_find_esets_checks_only_singletons(monkeypatch):
    calls = []

    def counted(s, subset):
        calls.append(subset)
        return is_extremal(s, subset)

    monkeypatch.setattr(structure, "is_extremal", counted)
    s = system_eset_d(14)
    assert find_esets(s, s.ray_ids) == [frozenset(s.ray_ids)]
    # Each singleton is tested against the union of the maximal faces, so
    # no set of rays, single or not, is asked of `is_extremal`.
    assert calls == []


@pytest.mark.parametrize("within, error", [
    (["C", "B", "A"], "ray B is not extremal on its own"),  # B sorts before unknown C
    (["B", "AA", "A"], "unknown ray AA"),  # unknown AA sorts before B
])
def test_find_esets_reports_the_first_bad_ray_in_sorted_order(within, error):
    s = _system_over(["A", "B"], [[], ["A"]])  # B lies in no face
    with pytest.raises(ValueError) as exc:
        find_esets(s, within)
    assert str(exc.value) == error


def test_eset_case_a_cycle():
    s = system_eset_a()
    t = classify_eset(s, ["S1", "S2", "S3"])
    assert t.kind == "a"
    assert t.to_json() is None


def test_eset_case_d_disjoint():
    s = system_eset_d(3)
    t = classify_eset(s, ["S1", "S2", "S3"])
    assert t.kind == "d"


def test_eset_case_b_square_diagonal():
    s = RayDivisorSystem.of(
        rays=[
            ("T1", "II", "D1"),
            ("T2", "II", "D2"),
            ("T3", "II", "D3"),
            ("T4", "II", "D4"),
        ],
        divisors=["D1", "D2", "D3", "D4"],
        pairing=[[-1, 0, 1, 0], [1, -1, 0, 1], [1, 0, -1, 0], [0, 1, 1, -1]],
        meets=[("D1", "D2"), ("D1", "D3"), ("D2", "D4"), ("D3", "D4")],
        faces=[[], ["T1"], ["T2"], ["T3"], ["T4"],
               ["T1", "T2"], ["T2", "T3"], ["T3", "T4"], ["T1", "T4"]],
    )
    t = classify_eset(s, ["T1", "T3"])
    assert t.kind == "b"
    assert t.m1 >= 1 and t.m2 >= 1
    # the witness really is nonnegative on every probe ray
    for rid in ("T1", "T2", "T3", "T4"):
        val = t.m1 * s.q(rid, "D1") + t.m2 * s.q(rid, "D3")
        if rid in ("T2", "T4"):
            assert val >= 0


def test_eset_case_c_zero_partner():
    # R1 and R2 touch with mutual positive crosses, but a type I probe makes
    # the positive-combination search infeasible; S1 shares R1's divisor, is
    # orthogonal to R2's divisor, and R2 is positive on D1.
    s = RayDivisorSystem.of(
        rays=[
            ("R1", "II", "D1"),
            ("R2", "II", "D2"),
            ("S1", "II", "D1"),
            ("P", "I", "D3"),
        ],
        divisors=["D1", "D2", "D3"],
        pairing=[
            [-1, 1, 0],
            [1, -1, 0],
            [-1, 0, 0],
            [0, -1, -1],
        ],
        meets=[("D1", "D2")],
        faces=[[], ["R1"], ["R2"], ["S1"], ["P"],
               ["R1", "S1"], ["R2", "P"]],
    )
    t = classify_eset(s, ["R1", "R2"])
    assert t.kind == "c"
    assert t.witness == "S1"


def test_eset_rejects_nonminimal_input():
    s = RayDivisorSystem.of(
        rays=[("R1", "II", "D1"), ("R2", "II", "D2"), ("R3", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        meets=[],
        faces=[[], ["R1"], ["R2"], ["R3"], ["R1", "R2"]],
    )
    # Both {R1,R3} and {R2,R3} are non-extremal; the first in `combinations`
    # order is named.
    with pytest.raises(ValueError, match=r"proper subset \['R1', 'R3'\] .* not minimal"):
        classify_eset(s, ["R1", "R2", "R3"])


def test_eset_refuses_one_ray_a_small_member_and_an_extremal_set():
    s = RayDivisorSystem.of(
        rays=[("R1", "II", "D1"), ("R2", "II", "D2"), ("X", "small")],
        divisors=["D1", "D2"],
        pairing=[[-1, 0], [0, -1], [0, 0]],
        meets=[],
        faces=[[], ["R1"], ["R2"], ["X"], ["R1", "R2"]],
    )
    with pytest.raises(ValueError, match="an E-set contains at least two rays"):
        classify_eset(s, ["R1"])
    with pytest.raises(ValueError, match="ray X is small; E-set members carry divisors"):
        classify_eset(s, ["R1", "X"])
    with pytest.raises(ValueError, match="the set is extremal, hence not an E-set"):
        classify_eset(s, ["R1", "R2"])


def test_is_extremal_uses_faces():
    s = system_eset_a()
    assert is_extremal(s, ["S1", "S2"])
    assert not is_extremal(s, ["S1", "S2", "S3"])


def _three_ray_system(faces):
    return RayDivisorSystem.of(
        rays=[("R1", "II", "D1"), ("R2", "II", "D2"), ("R3", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        faces=faces,
    )


def _maximal_faces(s):
    return [frozenset(s.relations.names(m)) for m in s.maximal_masks]


def test_maximal_faces_and_is_extremal_match_face_scan():
    # Every family of subsets of three rays, the empty family included.
    subsets = [frozenset(c) for k in range(4) for c in combinations("R1 R2 R3".split(), k)]
    for bits in product((0, 1), repeat=len(subsets)):
        faces = [f for f, bit in zip(subsets, bits) if bit]
        s = _three_ray_system(faces)
        maximal = {f for f in faces if not any(f < g for g in faces)}
        assert _maximal_faces(s) == sorted(maximal, key=lambda f: (len(f), sorted(f)))
        for want in subsets:
            assert is_extremal(s, want) == any(want <= f for f in faces), (faces, want)


def test_maximal_faces_edge_cases():
    assert _three_ray_system([]).maximal_masks == ()
    assert not is_extremal(_three_ray_system([]), [])
    assert _three_ray_system([[]]).maximal_masks == (0,)
    assert is_extremal(_three_ray_system([[]]), [])
    only_small = RayDivisorSystem.of(
        rays=[("X", "small")], divisors=[], pairing=[[]], faces=[[]]
    )
    assert classify_report(only_small)["maximal_sets"] == []
    listed_twice = [["R1", "R2"], ["R2", "R1"], ["R3"], ["R3"]]
    s = _three_ray_system(listed_twice)
    expected = [frozenset({"R3"}), frozenset({"R1", "R2"})]
    assert _maximal_faces(s) == expected
    unnormalized = replace(s, faces=tuple(frozenset(f) for f in listed_twice))
    assert _maximal_faces(unnormalized) == expected


# --- small-ray structure ------------------------------------------------------


def _e2_pairs_by_fractions(s):
    """Oracle for `detect_e2_pairs` on `Fraction` lookups."""
    out = []
    for small in [r for r in s.rays if r.type is RayType.SMALL]:
        for r in s.divisorial_rays:
            if r.type is RayType.II and s.q(small.id, r.divisor) < 0:
                out.append((r.id, small.id))
    return sorted(out)


def _cyclic_triple_by_fractions(s, ids):
    """Oracle for the three-ray E-set case on `Fraction` lookups: the case,
    or the reason it fails for."""
    members = [s.ray(rid) for rid in ids]
    if any(r.type is not RayType.II for r in members):
        return "connected-triple-not-cyclic"
    for x, y, z in permutations(members):
        strict = all(s.q(a.id, b.divisor) > 0 for a, b in ((x, y), (y, z), (z, x)))
        zero = all(s.q(b.id, a.divisor) == 0 for a, b in ((x, y), (y, z), (z, x)))
        if strict and zero:
            if min(_unit_row_sums(s, ids)) >= 0:
                return structure.EsetType("a")
            return "cyclic-triple-rejects-unit-combination"
    return "connected-triple-not-cyclic"


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return ("error", str(exc))


def _unvalidated_system(rng):
    """Three to six rays of any type, small ones included, on one to four
    divisors, pairings in -2..2 with halves and random contact.  In even
    draws the first three rays are type II on three touching divisors with a
    cyclic pattern: strict forward and zero backward pairings.  A draw that
    leaves a type I or II ray without a divisor is malformed: it must fail
    to build, and gives None."""
    n, k = rng.randint(3, 6), rng.randint(1, 4)
    divisors = [f"D{j}" for j in range(k)]
    entries = (-2, -1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-1, 2))
    types = [rng.choice(("I", "II", "II", "small")) for _ in range(n)]
    owners = [
        None if t == "small" or rng.random() < 0.1 else rng.choice(divisors)
        for t in types
    ]
    pairing = [[rng.choice(entries) for _ in divisors] for _ in range(n)]
    meets = {pair for pair in combinations(divisors, 2) if rng.random() < 0.5}
    if rng.random() < 0.5 and k >= 3:
        types[:3], owners[:3] = ["II"] * 3, divisors[:3]
        meets |= set(combinations(divisors[:3], 2))
        for i in range(3):
            pairing[i][i] = -1
            pairing[i][(i + 1) % 3] = rng.choice((1, 2))
            pairing[(i + 1) % 3][i] = 0
    build = partial(
        RayDivisorSystem.of,
        rays=[(f"R{i}", t, d) for i, (t, d) in enumerate(zip(types, owners))],
        divisors=divisors,
        pairing=pairing,
        meets=sorted(meets),
    )
    if any(t != "small" and d is None for t, d in zip(types, owners)):
        with pytest.raises(SystemFormatError, match="ray R[0-9] must carry a divisor"):
            build()
        return None
    return build()


def test_e2_pairs_and_cyclic_triples_match_fraction_oracles():
    seen = set()
    for seed in range(300):
        s = _unvalidated_system(random.Random(seed))
        if s is None:
            seen.add("malformed")
            continue
        e2 = _outcome(detect_e2_pairs, s)
        assert e2 == _outcome(_e2_pairs_by_fractions, s), seed
        seen.add(f"e2-{bool(e2)}")
        rel = s.relations
        for ids in combinations(sorted(s.ray_ids), 3):
            got = structure._classify_connected_triple(rel, s.ray_mask(ids))
            assert got == _cyclic_triple_by_fractions(s, list(ids)), (seed, ids)
            seen.add(got if isinstance(got, str) else got.kind)
    assert seen >= {
        "malformed", "e2-True", "e2-False", "a",
        "cyclic-triple-rejects-unit-combination", "connected-triple-not-cyclic",
    }


def test_detect_e2_pairs():
    s = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("X", "small")],
        divisors=["D1"],
        pairing=[[-1], [-1]],
        meets=[],
    )
    assert detect_e2_pairs(s) == [("A", "X")]


# --- whole-system report -------------------------------------------------------


def test_classify_report_shape():
    rep = classify_report(system_eset_a())
    assert set(rep) == {"components", "esets", "failures", "maximal_sets", "e2_pairs"}
    assert rep["esets"][0]["case"] == "a"
    assert all(ms["passes_theorem258"] for ms in rep["maximal_sets"])
    assert rep["failures"] == []
    import json

    json.dumps(rep)  # report must be wire-ready


# --- relabeling invariance ------------------------------------------------------


def _relabeled(s, rng):
    """`s` with its rays and divisors renamed by a seeded bijection that
    changes their sorted order, and with rays, divisors, contacts and faces
    declared in shuffled order; plus the map from new ray names to old."""

    def rename(ids, prefix):
        old = sorted(ids)
        perm = rng.sample(range(len(old)), len(old))
        if perm == sorted(perm):
            perm.reverse()
        return {o: f"{prefix}{k:02d}" for o, k in zip(old, perm)}

    rays, divs = rename(s.ray_ids, "X"), rename(s.divisors, "Y")
    order = rng.sample(range(len(s.rays)), len(s.rays))
    columns = rng.sample(range(len(s.divisors)), len(s.divisors))
    meets = sorted(map(sorted, s.meets))
    new = RayDivisorSystem.of(
        rays=[(rays[s.rays[i].id], s.rays[i].type, divs.get(s.rays[i].divisor))
              for i in order],
        divisors=[divs[s.divisors[j]] for j in columns],
        pairing=[[s.pairing[i][j] for j in columns] for i in order],
        meets=[[divs[d] for d in pair] for pair in rng.sample(meets, len(meets))],
        faces=None if s.faces is None
        else [[rays[r] for r in f] for f in rng.sample(s.faces, len(s.faces))],
        anticanonical=None if s.anticanonical is None
        else [s.anticanonical[i] for i in order],
        fano_mode=s.fano_mode,
    )
    return new, {v: k for k, v in rays.items()}


def _named_verdicts(s, back):
    """The classification and E-set answers of `s` as multisets, with ray
    names mapped through `back`.  Witness vectors are left out: the lexmin
    depends on the variable order."""

    def names(rids):
        return tuple(sorted(back[r] for r in rids))

    report = classify_report(s)
    esets = {}
    for eset in find_esets(s, [r.id for r in s.divisorial_rays]):
        full = condition_iii_full(s, eset)
        esets[names(eset)] = (
            check_condition_ii(s, eset),
            full is not None,
            full is not None and check_lemma11(s, eset),
        )
    return {
        "components": Counter((names(c["rays"]), c["type"]) for c in report["components"]),
        "failures": Counter((names(f["rays"]), f["reason"]) for f in report["failures"]),
        "shape filter": Counter(
            (names(m["rays"]), m["passes_theorem258"]) for m in report["maximal_sets"]
        ),
        "eset cases": Counter((names(e["rays"]), e["case"]) for e in report["esets"]),
        "e2 pairs": Counter((back[a], back[b]) for a, b in report["e2_pairs"]),
        "esets": esets,
    }


def _relabeling_cases():
    """Seeded random valid systems, every other one with a small ray added,
    crossed with their face variants; then the templates."""
    for seed in range(150):
        s, _ = random_valid_system(seed)
        if seed % 2:
            rng = random.Random(seed)
            s = RayDivisorSystem.of(
                rays=[*s.rays, ("Z", "small")],
                divisors=s.divisors,
                pairing=[*s.pairing, [rng.choice((-1, 0, 1)) for _ in s.divisors]],
                meets=s.meets,
            )
        for faces in face_variants([r.id for r in s.divisorial_rays]):
            yield s.with_faces(faces)
    yield from (system_c2(), system_d2(), system_b2(), system_eset_a())
    yield from (system_cm(m) for m in (1, 3, 4))
    yield from (system_eset_d(k) for k in (2, 3, 4))


def test_verdicts_are_invariant_under_relabeling():
    rng = random.Random(0)
    seen = Counter()
    for s in _relabeling_cases():
        new, back = _relabeled(s, rng)
        if len(s.rays) > 1:
            assert sorted(back) != sorted(back, key=back.get)
        want = _named_verdicts(s, {rid: rid for rid in s.ray_ids})
        assert _named_verdicts(new, back) == want, system_to_json(s)
        seen.update(key for key, found in want.items() if found)
    # Every kind of answer is exercised.
    assert min(seen.values()) >= 30 and len(seen) == 6, seen


# --- the contact check: Lemma 2.27 as condition (ii) on a pair ---------------------

CONTACT = (
    "contact-product",
    "some nonzero nonnegative combination of the two divisors is nonnegative "
    "on both rays (condition (ii) fails on the pair)",
)


def _lemma227_violations(s):
    """The co-facial pairs of type II rays on distinct touching divisors whose
    cross pairings do not multiply below the self pairings (Lemma 2.27), in
    sorted id order, read from the listed faces and the pairing."""
    out = []
    for a, b in combinations(sorted(s.ray_ids), 2):
        ra, rb = s.ray(a), s.ray(b)
        if (
            ra.type is RayType.II
            and rb.type is RayType.II
            and frozenset((ra.divisor, rb.divisor)) in s.meets
            and any({a, b} <= f for f in s.faces)
            and s.q(a, rb.divisor) * s.q(b, ra.divisor)
            >= s.q(a, ra.divisor) * s.q(b, rb.divisor)
        ):
            out.append((a, b))
    return out


def _redrawn(s, rng):
    """`s` with every nonzero pairing entry redrawn from 1/2, 1, 3/2 and 2
    in size, its sign kept, so that `validate` gives the same answer."""
    sizes = [Fraction(k, 2) for k in range(1, 5)]
    return replace(s, pairing=tuple(
        tuple(v and (1 if v > 0 else -1) * rng.choice(sizes) for v in row)
        for row in s.pairing
    ))


def _contact_cases(rng):
    """Systems that `validate` accepts, with order-changing names: every sign
    pattern of one to three rays, four times with redrawn pairings, and
    seeded random systems of up to four rays."""
    sign_patterns = list(enumerate_sign_systems(max_rays=3))
    for base in (
        *(_redrawn(s, rng) for s in sign_patterns for _ in range(4)),
        *(random_valid_system(k)[0] for k in range(100)),
    ):
        yield _relabeled(base, rng)[0]


@pytest.mark.parametrize("seed", range(3))
def test_contact_violations_keep_the_product_meaning_on_valid_systems(seed):
    # On a system that `validate` accepts, self pairings are negative and
    # cross pairings nonnegative, so condition (ii) on a pair is Lemma 2.27's
    # product inequality: the check flags what the product oracle flags, in
    # the same order, under every face variant.
    rng = random.Random(seed)
    pairs = Counter()
    for s in _contact_cases(rng):
        assert validate(s) == [], system_to_json(s)
        for faces in face_variants(list(s.ray_ids)):
            v = s.with_faces(faces)
            got = contact_violations(v)
            want = _lemma227_violations(v)
            assert [x.subjects for x in got] == want, system_to_json(v)
            assert {(x.code, x.detail) for x in got} <= {CONTACT}
            pairs[len(want)] += 1
    assert pairs[0] > 1000 and pairs[1] > 300 and pairs[2] > 30, pairs


def test_an_invalid_system_still_fails_check(capsys, tmp_path):
    # Off the model's sign rules the product and the cone question part ways:
    # this seeded system has a positive self pairing, so condition (ii) fails
    # on pairs whose products look fine.  `check` still exits 1 on it, for
    # `validate` refuses it first.
    rng = random.Random(0)
    while True:
        ids = ["A", "B", "C"]
        s = RayDivisorSystem.of(
            rays=[(rid, "II", f"D{rid}") for rid in ids],
            divisors=[f"D{rid}" for rid in ids],
            pairing=[[rng.choice(range(-2, 3)) for _ in ids] for _ in ids],
            meets=[(f"D{a}", f"D{b}") for a, b in combinations(ids, 2)],
            faces=next(face_variants(ids)),
        )
        got = [v.subjects for v in contact_violations(s)]
        if validate(s) and got != _lemma227_violations(s):
            break
    assert "self-pairing-not-negative" in {v.code for v in validate(s)}
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(system_to_json(s)))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    for v in validate(s) + contact_violations(s):
        assert str(v) in out
