"""Realized models: consistency, nef machinery, orthogonal extensions,
dependence detection."""

import json
import random
import re
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
from moribound.raysystem import RayDivisorSystem, system_from_json, system_to_json, validate
from moribound.structure import ClassificationFailure, classify_component
from moribound.realized import (
    RealizedModel,
    b2_invariants,
    b2_pairs,
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


def _first_mismatch(model_args):
    """Reference: the first pairing, then anticanonical, mismatch of a model's
    vectors, found with `Fraction` dot products, as its error text."""
    s, rays, divisors = model_args["base_system"], model_args["ray_vectors"], model_args["divisor_vectors"]
    for rid in s.ray_ids:
        for did in s.divisors:
            got, want = rays[rid].dot(divisors[did]), s.q(rid, did)
            if got != want:
                return f"pairing mismatch at ({rid}, {did}): vectors give {got}, table says {want}"
    anti = model_args.get("anticanonical_vector")
    for rid in s.ray_ids if anti is not None else ():
        got, want = rays[rid].dot(anti), s.anticanonical_degree(rid)
        if got != want:
            return f"anticanonical mismatch at {rid}: vector gives {got}, column says {want}"
    return None


@pytest.mark.parametrize("seed", range(8))
def test_pairing_checked_in_integers_matches_fraction_dots(seed):
    """Seeded models with fractional and negative entries pass, and one
    perturbed entry raises the first mismatch that `Fraction` dot products
    find.  Odd seeds give each ray's divisor the ray's own id."""
    rng = random.Random(seed)
    rho, n = rng.randint(2, 4), rng.randint(2, 5)

    def vector():
        while True:
            v = RVector.of(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
                           for _ in range(rho))
            if not v.is_zero():
                return v

    ids = [f"X{i}" for i in range(n)]
    divs = ids if seed % 2 else [f"D{i}" for i in range(n)]
    rays = {rid: vector() for rid in ids}
    divisors = {did: vector() for did in divs}
    anti = vector()
    system = RayDivisorSystem.of(
        rays=[(rid, "II", did) for rid, did in zip(ids, divs)],
        divisors=divs,
        pairing=[[rays[rid].dot(divisors[did]) for did in divs] for rid in ids],
        anticanonical=[rays[rid].dot(anti) for rid in ids],
        fano_mode=True,
    )
    args = dict(rho=rho, base_system=system, ray_vectors=rays, divisor_vectors=divisors,
                anticanonical_vector=anti)
    assert _first_mismatch(args) is None
    RealizedModel(**args)
    for _ in range(6):
        part = rng.choice(("ray_vectors", "divisor_vectors", "anticanonical_vector"))
        vectors = dict(rays if part == "ray_vectors" else divisors)
        key = rng.choice(list(vectors))
        old = anti if part == "anticanonical_vector" else vectors[key]
        entries = list(old)
        k = rng.randrange(rho)
        entries[k] += Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 5)))
        if part == "anticanonical_vector":
            bad = dict(args, anticanonical_vector=RVector(tuple(entries)))
        else:
            vectors[key] = RVector(tuple(entries))
            bad = dict(args, **{part: vectors})
        want = _first_mismatch(bad)
        if want is None or RVector(tuple(entries)).is_zero():
            continue  # the entry pairs to zero everywhere, or the vector vanished
        with pytest.raises(ValueError) as got:
            RealizedModel(**bad)
        assert str(got.value) == want


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


def _hub_and_two_spokes(meets=(("D1", "D2"), ("D1", "D3"))):
    """S1 carries D1 and S2, S3 carry D2, D3, with T a small ray: rays are the
    unit vectors e1 ... e4, and the pairing is the table of dot products."""
    rays = [("S1", "II", "D1"), ("S2", "II", "D2"), ("S3", "II", "D3"), ("T", "small")]
    divisors = {"D1": (-1, 1, 1, 0), "D2": (0, -1, 0, 1), "D3": (0, 0, -1, -1)}
    system = RayDivisorSystem.of(
        rays=rays,
        divisors=list(divisors),
        pairing=[[d[i] for d in divisors.values()] for i in range(4)],
        meets=list(meets),
    )
    return RealizedModel(
        rho=4,
        base_system=system,
        ray_vectors={ray[0]: RVector.of([int(i == j) for j in range(4)])
                     for i, ray in enumerate(rays)},
        divisor_vectors={did: RVector.of(d) for did, d in divisors.items()},
    )


def test_cm_extension_kills_the_spokes_of_a_hub():
    m = _hub_and_two_spokes()
    assert validate(m.base_system) == []
    out = cm_nef_extension(m, RVector.of([0, 1, 1, 1]), [("S2", "D2"), ("S3", "D3")])
    assert [out.dot(v) for v in m.ray_vectors.values()] == [0, 0, 0, 1]


@pytest.mark.parametrize("spokes, text", [
    ([("S1", "D2")], "ray S1 pairs zero with D2; cannot divide"),
    ([("S2", "D1")], "ray S2 must pair negatively with D1"),
    # T pairs -1 with D3 but carries no divisor: the answer would pair 1 with T.
    ([("S2", "D2"), ("T", "D3")], "ray T does not carry D3"),
    ([("S2", "D2"), ("S2", "D2")], "spoke divisors must be pairwise distinct"),
    ([("S1", "D1"), ("S2", "D2")], "spoke divisors D1 and D2 touch"),
])
def test_cm_extension_refuses_a_spoke_it_cannot_kill(spokes, text):
    m = _hub_and_two_spokes()
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        cm_nef_extension(m, RVector.of([0, 1, 1, 1]), spokes)


def test_cm_extension_refuses_a_spoke_that_pairs_with_another_spokes_divisor():
    # Without the meet D1-D3, S3 pairs 1 with D1 where no meet allows it.
    m = _hub_and_two_spokes(meets=[("D1", "D2")])
    assert {v.code for v in validate(m.base_system)} == {"pairing-without-meet"}
    with pytest.raises(ValueError, match="^spoke ray S3 pairs nonzero with D1$"):
        cm_nef_extension(m, RVector.of([1, 1, 1, 1]), [("S1", "D1"), ("S3", "D3")])


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


def _label(s, rays):
    """The component type's label, or the reason it fails to classify."""
    try:
        return classify_component(s, rays).label
    except ClassificationFailure as fail:
        return fail.reason


@pytest.mark.parametrize("pairing, d1, d2, types, label", [
    # Touching type II and type I rays, with R1 zero on D2.
    ([[-1, 0], [2, -7]], (-1, 2, 0), (0, -7, 0), ("II", "I"), "mixed-pair-crosses-not-positive"),
    # Two type II rays on distinct divisors, with zero cross pairings.
    ([[-1, 0], [0, -1]], (-1, 0, 0), (0, -1, 0), ("II", "II"), "no-hub-ray"),
    # A hub pair: R2 is zero on D1, and R1 positive on D2.
    ([[-1, 1], [0, -1]], (-1, 0, 0), (1, -1, 0), ("II", "II"), "C:2"),
])
def test_a_refused_pair_raises_the_constructions_own_value_error(pairing, d1, d2, types, label):
    m = two_ray_model(pairing, d1, d2, types)
    assert _label(m.base_system, ["R1", "R2"]) == label
    h = RVector.of([0, 0, 1])
    if types == ("II", "I"):
        def call(other):
            return d2_nef_extension(m, h, "R1", other)
        text = "R1, R2 is not a mixed pair of the pointed-cone type"
    else:
        def call(other):
            return b2_nef_combine(m, h, h, "R1", other, "D1")
        text = "R1, R2 is not a shared-divisor pair on D1"
    with pytest.raises(ValueError, match=re.escape(text)) as exc:
        call("R2")
    assert not isinstance(exc.value, ClassificationFailure)
    with pytest.raises(ValueError, match="unknown ray Z"):
        call("Z")


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


def test_prop_form_requires_nonzero_coefficients_and_two_pairs():
    m, expected = planted_dependence(2, 3)
    order = ["R11", "R12", "R21", "R22"]
    assert not check_prop238_form(m, m.base_system, order, (0,) + expected[1:])
    # One shared-divisor pair alone is a single component.
    assert check_prop238_form(m, m.base_system, order[2:], expected[2:]) is False


def test_prop_form_is_false_on_a_component_that_fails_to_classify():
    # A and B share D1; C and E touch and pair positively both ways, so
    # neither is a hub of the other.
    ids = ["A", "B", "C", "E"]
    system = RayDivisorSystem.of(
        rays=[("A", "II", "D1"), ("B", "II", "D1"), ("C", "II", "D2"), ("E", "II", "D3")],
        divisors=["D1", "D2", "D3"],
        pairing=[[-1, 0, 0], [-1, 0, 0], [0, -1, 1], [0, 1, -1]],
        meets=[("D2", "D3")],
    )
    m = RealizedModel(
        rho=4,
        base_system=system,
        ray_vectors={rid: RVector.of([int(i == j) for j in range(4)]) for i, rid in enumerate(ids)},
        divisor_vectors={
            did: RVector.of([row[c] for row in system.pairing])
            for c, did in enumerate(system.divisors)
        },
    )
    assert _label(system, ["C", "E"]) == "no-hub-ray"
    assert check_prop238_form(m, system, ids, [1, -1, 1, -1]) is False


@pytest.mark.parametrize("call", [
    pytest.param(lambda m, s: check_prop238_form(m, s, ["R11", "R12", "R21", "R22"],
                                                 [1, -1, 1, -1]), id="check_prop238_form"),
    pytest.param(b2_invariants, id="b2_invariants"),
    pytest.param(lambda m, s: is_simple_in_face(m, s.with_faces([[]]), []),
                 id="is_simple_in_face"),
])
def test_a_construction_refuses_a_system_its_model_does_not_realize(call):
    m, _ = planted_dependence(2, 3)
    data = system_to_json(m.base_system)
    assert data["pairing"][0][0] == "-5"
    data["pairing"][0][0] = "-4"
    call(m, m.base_system)
    text = "the realized model's system differs from the given system's in its pairing"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(m, system_from_json(data))


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


def test_b2_invariants_counts_a_pinned_pair_as_a_witness():
    # A and B share D; C pairs positively with D, A positively with D(C) = E,
    # and B is orthogonal to E: C pins the pair.  D and E are not listed in
    # contact, so the system fails `validate` (pairing without a meet); the
    # pair is read from the rays all the same.
    rays = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1)}
    divisors = {"D": (-1, -1, 1), "E": (1, 0, -1)}
    system = RayDivisorSystem.of(
        rays=[("A", "II", "D"), ("B", "II", "D"), ("C", "I", "E")],
        divisors=list(divisors),
        pairing=[[sum(a * b for a, b in zip(r, d)) for d in divisors.values()]
                 for r in rays.values()],
    )
    assert [list(row) for row in system.pairing] == [[-1, 1], [-1, 0], [1, -1]]
    assert {v.code for v in validate(system)} == {"pairing-without-meet"}
    m = RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={rid: RVector.of(v) for rid, v in rays.items()},
        divisor_vectors={did: RVector.of(v) for did, v in divisors.items()},
    )
    out = b2_invariants(m, system)
    assert (out["n"], out["m"], out["k"], out["delta"]) == (1, 1, 0, 0)
    assert (out["m1"], out["m2"]) == (1, 0)


def test_b2_pairs_inside_a_larger_contact_component():
    # R1 and R2 share D, R3 carries E and D touches E, so all three rays form
    # one contact component; R3 pins the pair, as in the test above, and the
    # system is valid.
    rays = {"R1": (1, 0, 0), "R2": (0, 1, 0), "R3": (0, 0, 1)}
    divisors = {"D": (-1, -1, 1), "E": (1, 0, -1)}
    system = RayDivisorSystem.of(
        rays=[("R1", "II", "D"), ("R2", "II", "D"), ("R3", "II", "E")],
        divisors=list(divisors),
        pairing=[[sum(a * b for a, b in zip(r, d)) for d in divisors.values()]
                 for r in rays.values()],
        meets=[("D", "E")],
    )
    assert [list(row) for row in system.pairing] == [[-1, 1], [-1, 0], [1, -1]]
    assert validate(system) == []
    assert b2_pairs(system) == [frozenset({"R1", "R2"})]
    m = RealizedModel(
        rho=3,
        base_system=system,
        ray_vectors={rid: RVector.of(v) for rid, v in rays.items()},
        divisor_vectors={did: RVector.of(v) for did, v in divisors.items()},
    )
    out = b2_invariants(m, system)
    assert (out["n"], out["m"], out["m1"], out["m2"]) == (1, 1, 1, 0)


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
        rays=[(rid, "small") for rid in ids], divisors=[], pairing=[[] for _ in ids]
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


def test_is_simple_in_face_refuses_an_unlisted_face():
    m, _ = planted_dependence(3, 0)
    ids = sorted(m.base_system.ray_ids)
    s = m.base_system.with_faces([[], *([rid] for rid in ids)])
    assert is_simple_in_face(m, s, ids[:1])
    for face in (ids[:2], ["nope"], [ids[0], "nope"]):
        with pytest.raises(ValueError, match=re.escape(f"{sorted(face)} is not a listed face")):
            is_simple_in_face(m, s, face)
    with pytest.raises(ValueError, match="no face structure"):
        is_simple_in_face(m, s.with_faces(None), [])


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
