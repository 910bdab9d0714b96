"""Realized models: consistency, nef machinery, orthogonal extensions,
dependence detection."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound.core import RVector, TrilinearForm, span_rank
from moribound.generate import (
    planted_dependence,
    planted_with_a1,
    realized_b2,
    realized_cm,
    realized_d2,
    realized_fano,
)
from moribound.raysystem import RayDivisorSystem
from moribound.realized import (
    RealizedModel,
    b2_invariants,
    b2_nef_combine,
    check_prop238_form,
    cm_nef_extension,
    d2_nef_extension,
    fano_nef_sum,
    is_nef,
    is_simple_in_face,
    linear_dependence,
    model_from_json,
    model_to_json,
    nef_certificate,
    numerical_kodaira_dim,
)


def two_ray_model(pairing, d1=(-1, 0, 0), d2=(0, -1, 0), types=("II", "II")):
    system = RayDivisorSystem.of(
        rays=[("R1", types[0], "D1"), ("R2", types[1], "D2")],
        divisors=["D1", "D2"],
        pairing=pairing,
        meets=[("D1", "D2")] if any(
            pairing[i][j] != 0 for i in range(2) for j in range(2) if i != j
        ) else [],
    )
    return RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={"R1": RVector.of([1, 0, 0]), "R2": RVector.of([0, 1, 0])},
        divisor_vectors={"D1": RVector.of(d1), "D2": RVector.of(d2)},
    )


# --- construction-time consistency ------------------------------------------


def test_pairing_mismatch_rejected():
    with pytest.raises(ValueError, match="pairing mismatch"):
        two_ray_model([[-1, 1], [0, -1]])  # table says 1, vectors give 0


def test_anticanonical_mismatch_rejected():
    system = RayDivisorSystem.of(
        rays=[("R1", "II", "D1")],
        divisors=["D1"],
        pairing=[[-1]],
        meets=[],
        anticanonical=[2],
        fano_mode=True,
    )
    with pytest.raises(ValueError, match="anticanonical"):
        RealizedModel(
            rho=2,
            base_system=system,
            ray_vectors={"R1": RVector.of([1, 0])},
            divisor_vectors={"D1": RVector.of([-1, 0])},
            anticanonical_vector=RVector.of([1, 1]),  # degree 1, table says 2
        )


def test_zero_ray_vector_rejected():
    with pytest.raises(ValueError):
        RealizedModel(
            rho=2,
            base_system=RayDivisorSystem.of(
                rays=[("R1", "II", "D1")], divisors=["D1"],
                pairing=[[-1]], meets=[],
            ),
            ray_vectors={"R1": RVector.zero(2)},
            divisor_vectors={"D1": RVector.of([-1, 0])},
        )


# --- nef predicates ------------------------------------------------------------


def test_is_nef_and_certificate():
    m = two_ray_model([[-1, 0], [0, -1]])
    h = RVector.of([1, 0, 5])
    assert is_nef(m, h)
    cert = nef_certificate(m, h)
    assert cert is not None
    assert cert.orthogonal_rays == frozenset({"R2"})
    assert not cert.degenerate
    assert nef_certificate(m, RVector.of([-1, 0, 0])) is None


def test_degenerate_certificate():
    m = two_ray_model([[-1, 0], [0, -1]])
    cert = nef_certificate(m, RVector.zero(3))
    assert cert is not None and cert.degenerate


def test_numerical_kodaira_dim():
    form = TrilinearForm.of(2, [((0, 0, 0), 1)])
    system = RayDivisorSystem.of(
        rays=[("R1", "II", "D1")], divisors=["D1"], pairing=[[-1]], meets=[],
    )
    m = RealizedModel(
        rho=2,
        base_system=system,
        ray_vectors={"R1": RVector.of([0, 1])},
        divisor_vectors={"D1": RVector.of([1, -1])},
        intersection_form=form,
    )
    assert numerical_kodaira_dim(m, RVector.of([1, 0])) == 3  # cube = 1
    # x0 = 0: cube zero and every contraction zero -> bottom class
    assert numerical_kodaira_dim(m, RVector.of([0, 1])) == 1
    mixed = TrilinearForm.of(2, [((0, 0, 1), 1)])
    m2 = RealizedModel(
        rho=2,
        base_system=system,
        ray_vectors={"R1": RVector.of([0, 1])},
        divisor_vectors={"D1": RVector.of([1, -1])},
        intersection_form=mixed,
    )
    # cube of (1,0) is 0 but T(H,H,-) = (0,1) != 0
    assert numerical_kodaira_dim(m2, RVector.of([1, 0])) == 2


# --- orthogonal extensions: frozen cases --------------------------------------


def test_d2_extension_frozen_case():
    system = RayDivisorSystem.of(
        rays=[("C1", "II", "D1"), ("C2", "I", "D2")],
        divisors=["D1", "D2"],
        pairing=[[-1, 3], [2, -7]],
        meets=[("D1", "D2")],
    )
    m = RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={"C1": RVector.of([1, 0, 0]), "C2": RVector.of([0, 1, 0])},
        divisor_vectors={
            "D1": RVector.of([-1, 2, 1]),
            "D2": RVector.of([3, -7, 2]),
        },
    )
    h = RVector.of([5, 0, 1])
    out = d2_nef_extension(m, h, "C1", "C2")
    assert tuple(out) == (Fraction(0), Fraction(0), Fraction(56))


def test_d2_extension_type_order_enforced():
    m, data = realized_d2(0)
    with pytest.raises(ValueError):
        d2_nef_extension(m, data["h"], data["s2"], data["s1"])


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_b2_combine_orthogonality(seed):
    m, data = realized_b2(seed)
    h = b2_nef_combine(m, data["h1"], data["h2"], data["c1"], data["c2"], data["d"])
    assert h.dot(m.ray_vectors["C1"]) == 0
    assert h.dot(m.ray_vectors["C2"]) == 0


@given(st.integers(0, 200), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_cm_extension_kills_all_spokes(seed, m_rays):
    model, data = realized_cm(seed, m=m_rays)
    out = cm_nef_extension(model, data["h"], data["spokes"])
    for rid in model.ray_vectors:
        assert out.dot(model.ray_vectors[rid]) == 0


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_fano_sum_pairings(seed):
    m, data = realized_fano(seed, m=3)
    h = fano_nef_sum(m, data["rays"])
    for rid in data["rays"]:
        assert h.dot(m.ray_vectors[rid]) == 0
    assert h.dot(m.ray_vectors[data["extra"]]) > 0


def test_b2_combine_preconditions():
    m, data = realized_b2(1)
    # H1 must vanish on C1
    with pytest.raises(ValueError):
        b2_nef_combine(m, RVector.of([1, 1, 1]), data["h2"], "C1", "C2", "D")


# --- dependence detection -------------------------------------------------------


def test_planted_dependence_closed_form():
    m, expected = planted_dependence(2, 3)
    order = ["R11", "R12", "R21", "R22"]
    found = linear_dependence(m, order)
    assert found is not None
    combo = RVector.zero(m.rho)
    for c, rid in zip(found, order):
        combo = combo + m.ray_vectors[rid].scale(c)
    assert combo.is_zero()
    assert check_prop238_form(m, m.base_system, order, found)


def test_dependence_none_for_independent_rays():
    m = two_ray_model([[-1, 0], [0, -1]])
    assert linear_dependence(m, ["R1", "R2"]) is None


def test_a1_extension_defeats_dependence():
    for t in (2, 3):
        m, a1 = planted_with_a1(t, 11)
        order = [f"R{i}{j}" for i in range(1, t + 1) for j in (1, 2)]
        assert linear_dependence(m, order + [a1]) is None
        base, expected = planted_dependence(t, 11)
        fabricated = tuple(list(expected) + [Fraction(1)])
        assert not check_prop238_form(m, m.base_system, order + [a1], fabricated)


def test_prop_form_requires_opposite_signs_in_pair():
    m, expected = planted_dependence(2, 3)
    order = ["R11", "R12", "R21", "R22"]
    same_sign = tuple(abs(c) for c in expected)
    assert not check_prop238_form(m, m.base_system, order, same_sign)


# --- pair invariants -------------------------------------------------------------


def test_b2_invariants_planted_pairs():
    m, _ = planted_dependence(2, 5)
    out = b2_invariants(m, m.base_system)
    assert out["n"] == 2
    assert out["m"] == 0
    assert out["k"] == 2
    assert out["delta"] == 1
    assert out["rho0"] == 0


def test_b2_invariants_guard():
    # One independent pair: k = 0 and delta = 0 is fine.
    system = RayDivisorSystem.of(
        rays=[("A", "II", "D"), ("B", "II", "D")],
        divisors=["D"],
        pairing=[[-1], [-1]],
        meets=[],
    )
    m = RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={"A": RVector.of([1, 0, 0]), "B": RVector.of([0, 1, 0])},
        divisor_vectors={"D": RVector.of([-1, -1, 0])},
    )
    out = b2_invariants(m, system)
    assert (out["m"], out["k"], out["delta"]) == (1, 0, 0)


# --- face simplicity ---------------------------------------------------------------


def test_is_simple_in_face():
    m, _ = planted_dependence(2, 7)
    s = m.base_system.with_faces(
        [[], ["R11"], ["R12"], ["R21"], ["R22"], ["R11", "R21"],
         ["R11", "R12", "R21", "R22"]]
    )
    # The four rays carry a dependence, so the full face of four rays spans
    # only rank 3: not simple over the empty perp.
    assert not is_simple_in_face(m, s, [])
    t = m.base_system.with_faces([[], ["R11"], ["R21"], ["R11", "R21"]])
    assert is_simple_in_face(m, t, [])


def _simple_in_face_over_every_face(m, s, face):
    """Reference: the rank test run on every listed face containing `face`."""
    perp = frozenset(face)
    perp_vecs = [m.ray_vectors[rid] for rid in sorted(perp)]
    perp_rank = span_rank(perp_vecs) if perp_vecs else 0
    for f in s.faces:
        if not (perp <= f):
            continue
        extra = sorted(f - perp)
        vecs = perp_vecs + [m.ray_vectors[rid] for rid in extra]
        if span_rank(vecs) - perp_rank != len(extra):
            return False
    return True


def _low_rank_model(rng):
    """Random rays in rank 2 or 3, so that many ray sets are dependent."""
    rho, ids = rng.randint(2, 3), [f"R{i + 1}" for i in range(rng.randint(4, 6))]
    vecs = {}
    for rid in ids:
        vec = [0] * rho
        while not any(vec):
            vec = [rng.randint(-1, 1) for _ in range(rho)]
        vecs[rid] = RVector.of(vec)
    system = RayDivisorSystem.of(
        rays=[(rid, "I", None) for rid in ids], divisors=[], pairing=[[] for _ in ids]
    )
    return RealizedModel(rho=rho, base_system=system, ray_vectors=vecs, divisor_vectors={})


def test_is_simple_in_face_maximal_faces_decide():
    # Random downward-closed families: every subset of a few random tops.
    answers = []
    for seed in range(60):
        rng = random.Random(seed)
        if seed % 2:
            m = _low_rank_model(rng)
        else:
            m, _ = planted_dependence(rng.randint(2, 4), seed)
        ids = list(m.base_system.ray_ids)
        tops = [rng.sample(ids, rng.randint(0, len(ids))) for _ in range(rng.randint(1, 4))]
        s = m.base_system.with_faces(
            {c for top in tops for k in range(len(top) + 1) for c in combinations(top, k)}
        )
        for perp in rng.sample(s.faces, min(8, len(s.faces))):
            got = is_simple_in_face(m, s, perp)
            assert got == _simple_in_face_over_every_face(m, s, perp), (seed, perp)
            answers.append(got)
    assert True in answers and False in answers


# --- serialization ------------------------------------------------------------------


def test_model_json_round_trip():
    m, _ = realized_d2(4)
    data = model_to_json(m)
    json.dumps(data)
    again = model_from_json(data)
    assert again == m


def test_model_json_with_form_and_anticanonical():
    m, _ = realized_fano(9, m=2)
    form = TrilinearForm.of(m.rho, [((0, 1, 2), "1/2"), ((0, 0, 0), -3)])
    enriched = RealizedModel(
        rho=m.rho,
        base_system=m.base_system,
        ray_vectors=m.ray_vectors,
        divisor_vectors=m.divisor_vectors,
        anticanonical_vector=m.anticanonical_vector,
        intersection_form=form,
    )
    again = model_from_json(model_to_json(enriched))
    assert again == enriched
    assert again.intersection_form.coeffs == form.coeffs
