"""Exact-arithmetic kernel: vectors, forms, elimination, feasibility."""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound.core import (
    INF,
    KINDS,
    DimensionMismatch,
    RVector,
    SystemFormatError,
    TrilinearForm,
    _primitive,
    binomial,
    format_rational,
    integral,
    kernel_of_columns,
    number,
    rank,
    rational,
    scale_primitive,
    solve_inequalities,
    span_rank,
    walk,
)
from moribound.raysystem import RayDivisorSystem, system_from_json

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def vectors(dim: int):
    return st.lists(small_fractions, min_size=dim, max_size=dim).map(RVector.of)


def test_rational_coercions():
    assert rational(3) == Fraction(3)
    assert rational("3/4") == Fraction(3, 4)
    assert rational(" -2 ") == Fraction(-2)
    assert rational(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        rational(0.5)  # floats are never silently accepted


@pytest.mark.parametrize("value", [1, "2/2", "-3", " 3 ", "+2", "1e3", "-4/2"])
def test_number_is_an_int_where_integral(value):
    assert type(number(value)) is int
    assert number(value) == rational(value)


@pytest.mark.parametrize("value", ["1/2", "1.5", Fraction(-3, 4)])
def test_number_stays_a_fraction_otherwise(value):
    assert type(number(value)) is Fraction
    assert number(value) == rational(value)


def test_number_refuses_what_rational_refuses():
    for value in (True, 0.5, None):
        with pytest.raises(TypeError):
            number(value)
    for value in ("x", "1/0", ""):
        with pytest.raises(ValueError):
            number(value)


def test_pairings_are_ints_from_parse_on_and_both_spellings_agree():
    def data(pairing):
        return {
            "rays": [{"id": "A", "type": "II", "divisor": "D"}, {"id": "X", "type": "small"}],
            "divisors": ["D"],
            "pairing": pairing,
            "anticanonical": ["2/2", 1],
        }

    parsed = system_from_json(data([[-1], [" 3 "]]))
    spelled = system_from_json(data([["-2/2"], ["6/2"]]))
    built = RayDivisorSystem.of(
        rays=[("A", "II", "D"), ("X", "small")], divisors=["D"],
        pairing=[[Fraction(-1)], ["3"]], anticanonical=[Fraction(1), "1"],
    )
    for s in (parsed, spelled, built):
        assert [type(v) for row in s.pairing for v in row] == [int, int]
        assert [type(v) for v in s.anticanonical] == [int, int]
    as_fractions = RayDivisorSystem(
        rays=built.rays, divisors=built.divisors, meets=built.meets,
        pairing=((Fraction(-1),), (Fraction(3),)), anticanonical=(Fraction(1), Fraction(1)),
    )
    assert parsed == spelled == built == as_fractions
    assert len({hash(s) for s in (parsed, spelled, built, as_fractions)}) == 1
    half = system_from_json(data([[-1], ["1/2"]]))
    assert half.pairing[1][0] == Fraction(1, 2) and type(half.pairing[1][0]) is Fraction


# --- the field tables and their walker --------------------------------------


def test_walk_reads_every_shape():
    table = {
        "n": KINDS["polytope"]["dim"],
        "q": KINDS["system"]["pairing"],
        "opt": KINDS["system"]["fano_mode"],
        "map": KINDS["realized"]["ray_vectors"],
        "rows": KINDS["realized"]["intersection_form"],
    }
    got = walk({"n": 3, "q": [["1", "1/2"]], "map": {"R": [0, "-2/2"]},
                "rows": [[0, 1, 2, "4/2"]], "extra": None}, table)
    assert got == {"n": 3, "q": [[1, Fraction(1, 2)]], "opt": False,
                   "map": {"R": [0, -1]}, "rows": [[0, 1, 2, 2]]}
    assert type(got["rows"][0][3]) is int


@pytest.mark.parametrize("data,message", [
    ({"rays": 7}, "rays: expected a list, got 7"),
    ({"rays": [{"id": "A", "type": "II", "divisor": "D"}, {"id": "B", "type": "II", "divisor": 7}]},
     "rays[1].divisor: expected a string, got 7"),
    ({"rays": [{"id": "A", "type": "III"}]}, "rays[0].type: expected I, II or small, got 'III'"),
    ({"rays": [{"type": "I"}]}, "rays[0].id: missing"),
    ({"rays": [], "divisors": ["D", 1]}, "divisors[1]: expected a string, got 1"),
    ({"rays": [], "divisors": [], "pairing": [[1], [1, "1/0"]]},
     "pairing[1][1]: expected an integer or a \"p/q\" string, got '1/0'"),
    ({"rays": [], "divisors": [], "pairing": [], "meets": [["D", 1]]},
     "meets[0][1]: expected a string, got 1"),
    ({"rays": [], "divisors": [], "pairing": [], "faces": [[], ["A", None]]},
     "faces[1][1]: expected a string, got None"),
    ({"rays": [], "divisors": [], "pairing": [], "fano_mode": "no"},
     "fano_mode: expected true or false, got 'no'"),
])
def test_walk_names_the_first_bad_field_by_its_path(data, message):
    with pytest.raises(SystemFormatError) as caught:
        walk(data, KINDS["system"])
    assert str(caught.value) == message


def test_walk_reports_the_first_bad_field_in_declaration_then_list_order():
    data = {"fano_mode": 1, "pairing": [[0, None], [True]], "divisors": "D", "rays": []}
    with pytest.raises(SystemFormatError, match=r"^divisors: expected a list"):
        walk(data, KINDS["system"])
    with pytest.raises(SystemFormatError, match=r"^pairing\[0\]\[1\]: "):
        walk(dict(data, divisors=[]), KINDS["system"])


def test_walk_puts_the_outer_path_in_front_of_a_nested_kind():
    def system(data):
        return walk(data, KINDS["system"])

    bad = {"rho": 1, "base_system": {"rays": [{"id": 7}]},
           "ray_vectors": {}, "divisor_vectors": {}}
    with pytest.raises(SystemFormatError) as caught:
        walk(bad, KINDS["realized"], {"system": system})
    assert str(caught.value) == "base_system.rays[0].id: expected a string, got 7"
    assert caught.value.path == ["base_system", "rays", 0, "id"]


def test_format_rational_round_trip():
    for text in ("0", "5", "-5", "3/4", "-17/3"):
        assert format_rational(rational(text)) == text
        assert format_rational(number(text)) == text  # an int where integral


def test_binomial_small_table():
    assert [binomial(4, k) for k in range(6)] == [1, 4, 6, 4, 1, 0]
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_rvector_basics():
    v = RVector.of([1, "1/2", -3])
    w = RVector.unit(3, 1)
    assert v.dot(w) == Fraction(1, 2)
    assert (v + w)[1] == Fraction(3, 2)
    assert (v - v).is_zero()
    assert v.scale("2")[2] == -6
    with pytest.raises(DimensionMismatch):
        v.dot(RVector.zero(2))


@given(vectors(4), vectors(4))
def test_dot_is_symmetric(v, w):
    assert v.dot(w) == w.dot(v)


@given(vectors(3), vectors(3), small_fractions)
def test_dot_is_linear(v, w, c):
    u = v.scale(c) + w
    probe = RVector.of([1, -2, "1/3"])
    assert u.dot(probe) == c * v.dot(probe) + w.dot(probe)


sparse_forms = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        small_fractions,
    ),
    max_size=5,
).map(lambda entries: TrilinearForm.of(3, entries))


@given(sparse_forms, vectors(3), vectors(3), vectors(3))
@settings(max_examples=60)
def test_trilinear_form_is_symmetric(t, a, b, c):
    base = t.evaluate(a, b, c)
    assert t.evaluate(b, a, c) == base
    assert t.evaluate(c, b, a) == base
    assert t.evaluate(a, c, b) == base


@given(sparse_forms, vectors(3), vectors(3), vectors(3))
@settings(max_examples=60)
def test_contract_matches_evaluate(t, a, b, c):
    # Both against the dense sum over all 27 index triples, each coefficient
    # read from its sorted triple.
    coeff = dict(t.coeffs)
    dense = sum(
        coeff.get(tuple(sorted(idx)), 0) * a[idx[0]] * b[idx[1]] * c[idx[2]]
        for idx in product(range(3), repeat=3)
    )
    assert t.contract(a, b).dot(c) == dense
    assert t.evaluate(a, b, c) == dense


def test_form_refuses_an_index_equal_to_its_dimension():
    with pytest.raises(DimensionMismatch, match="out of range for dim 2"):
        TrilinearForm.of(2, [((0, 0, 2), 1)])
    assert TrilinearForm.of(2, [((0, 0, 1), 1)]).coeffs == (((0, 0, 1), 1),)


def test_form_merges_duplicate_index_triples():
    t = TrilinearForm.of(2, [((0, 0, 1), 2), ((1, 0, 0), -2)])
    assert t.coeffs == ()


int_matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(int_matrices)
def test_rank_kernel_dimension_count(rows):
    cols = [RVector.of(col) for col in zip(*rows)]
    r = rank(rows)
    kern = kernel_of_columns(cols)
    assert r == span_rank(cols)  # row rank equals column rank
    assert r + len(kern) == len(cols)
    for coeffs in kern:
        combo = RVector.zero(len(rows))
        for c, v in zip(coeffs, cols):
            combo = combo + v.scale(c)
        assert combo.is_zero()


constraint_systems = st.lists(
    st.tuples(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        st.integers(-3, 3),
    ),
    min_size=1,
    max_size=5,
)


@given(constraint_systems)
@settings(max_examples=80)
def test_inequality_witnesses_actually_satisfy(cons):
    witness = solve_inequalities(cons, 2)
    if witness is not None:
        for coeffs, rhs in cons:
            assert sum(c * x for c, x in zip(coeffs, witness)) >= rhs


@given(constraint_systems)
@settings(max_examples=60)
def test_infeasible_systems_have_no_small_grid_point(cons):
    # One-sided completeness check: when elimination reports infeasibility,
    # no point of a coarse rational grid may satisfy all constraints.
    if solve_inequalities(cons, 2) is not None:
        return
    for a, b in product(range(-12, 13), repeat=2):
        point = (Fraction(a, 2), Fraction(b, 2))
        assert not all(
            sum(c * x for c, x in zip(coeffs, point)) >= rhs
            for coeffs, rhs in cons
        )


def test_inequalities_fixed_cases():
    # x >= 1 together with -x >= 0 cannot hold.
    assert solve_inequalities([((1,), 1), ((-1,), 0)], 1) is None
    w = solve_inequalities([((1, 1), 1), ((1, -1), 0)], 2)
    assert w is not None and w[0] + w[1] >= 1 and w[0] >= w[1]


def _fraction_elimination(cons, nvars):
    """Reference: Fourier-Motzkin on Fraction rows, dividing by each pivot and
    keeping every row, with the same back-substitution rules as the solver."""
    if nvars == 0:
        return () if all(rhs <= 0 for _, rhs in cons) else None
    k = nvars - 1
    lowers, uppers, projected = [], [], []
    for coeffs, rhs in cons:
        a = coeffs[k]
        if a == 0:
            projected.append((coeffs[:k], rhs))
        else:  # x_k >= (or <=) c . x' + const
            (lowers if a > 0 else uppers).append((tuple(-h / a for h in coeffs[:k]), rhs / a))
    for lc, lconst in lowers:
        for uc, uconst in uppers:
            projected.append((tuple(u - l for u, l in zip(uc, lc)), lconst - uconst))
    sub = _fraction_elimination(projected, k)
    if sub is None:
        return None
    at = [sum((c * x for c, x in zip(coeffs, sub)), const) for coeffs, const in lowers or uppers]
    return sub + (max(at) if lowers else min([Fraction(0), *at]),)


def _random_system(rng, nvars):
    """Rows of halves in -2..2, unit and all-ones rows among them, and a
    right-hand side in {-1, 0, 1/2, 1}: some variables have no lower bound."""
    halves = [Fraction(i, 2) for i in range(-4, 5)]
    cons = []
    for _ in range(rng.randint(1, 7)):
        pick = rng.random()
        if pick < 0.2:
            unit = rng.randrange(nvars)
            coeffs = tuple(int(j == unit) for j in range(nvars))
        elif pick < 0.3:
            coeffs = (1,) * nvars
        else:
            coeffs = tuple(rng.choice(halves) for _ in range(nvars))
        cons.append((coeffs, rng.choice([-1, 0, Fraction(1, 2), 1])))
    return cons


def test_solver_matches_fraction_elimination_on_seeded_systems():
    rng = random.Random(20)
    infeasible = 0
    for _ in range(5000):
        nvars = rng.randint(1, 4)
        cons = _random_system(rng, nvars)
        want = _fraction_elimination([(tuple(map(Fraction, c)), Fraction(r)) for c, r in cons], nvars)
        got = solve_inequalities(cons, nvars)
        assert got == want, cons
        if got is None:
            infeasible += 1
        else:
            assert all(type(x) is Fraction for x in got)
    assert 500 < infeasible < 4500  # both answers are exercised


def _cone_system(rng, nvars, positive):
    """The constraints of a cone question on a random square matrix: rows
    . m >= 0 with m >= 0 and 1 . m >= 1, or every m_i >= 1 when `positive`."""
    halves = [Fraction(i, 2) for i in range(-4, 5)]
    units = [(tuple(int(i == j) for j in range(nvars)), int(positive)) for i in range(nvars)]
    cone = [(tuple(rng.choice(halves) for _ in range(nvars)), 0) for _ in range(nvars)]
    return units + cone + ([] if positive else [((1,) * nvars, 1)])


def test_cone_witness_is_invariant_under_row_order_scaling_and_repetition():
    rng = random.Random(27)
    feasible = 0
    for trial in range(600):
        nvars = rng.randint(1, 4)
        cons = _cone_system(rng, nvars, positive=trial % 2 == 1)
        want = solve_inequalities(cons, nvars)
        feasible += want is not None
        for _ in range(3):
            variant = [(tuple(k * c for c in coeffs), k * rhs)
                       for coeffs, rhs in cons for k in [rng.randint(1, 5)]]
            variant += rng.sample(variant, rng.randint(0, len(variant)))
            rng.shuffle(variant)
            assert solve_inequalities(variant, nvars) == want, (cons, variant)
    assert 60 < feasible < 540


@given(st.lists(small_fractions, min_size=1, max_size=5))
def test_scale_primitive_properties(values):
    out = scale_primitive(values)
    if all(v == 0 for v in values):
        assert all(v == 0 for v in out)
        return
    assert all(v.denominator == 1 for v in out)
    from math import gcd

    g = 0
    for v in out:
        g = gcd(g, abs(v.numerator))
    assert g == 1
    # Positive scaling only: the direction is preserved exactly.
    i = next(k for k, v in enumerate(values) if v != 0)
    ratio = out[i] / values[i]
    assert ratio > 0
    for a, b in zip(values, out):
        assert b == a * ratio


def test_integral_scales_by_the_lcm_of_the_denominators():
    """On seeded rows of ints and Fractions, negatives, zeros, the empty row
    and all-zero rows among them: each integer over the scale is its entry,
    the scale is the lcm of the denominators, and `_primitive` agrees with
    its earlier one-pass form, which scaled and divided in place."""

    def one_pass_primitive(row):
        lcm = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (lcm // x.denominator) for x in row]
        g = math.gcd(*ints) or 1
        return tuple(x // g for x in ints)

    def entry(rng):
        if rng.random() < 0.4:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-40, 40), rng.randint(1, 15))

    rng = random.Random(33)
    rows = [(), (0,), (Fraction(0),), (0, Fraction(0), 0), (Fraction(0, 7),) * 5]
    while len(rows) < 2000:
        zero = rng.random() < 0.1
        rows.append(tuple(rng.choice((0, Fraction(0))) if zero else entry(rng)
                          for _ in range(rng.randint(0, 7))))
    for row in rows:
        ints, scale = integral(row)
        assert all(type(x) is int for x in ints) and scale >= 1
        assert [Fraction(x, scale) for x in ints] == list(row), row
        dens = [Fraction(x).denominator for x in row]
        assert scale == reduce(lambda a, b: a * b // math.gcd(a, b), dens, 1), row
        assert _primitive(row) == one_pass_primitive(row), row
    assert sum(1 for row in rows if row and not any(row)) > 100


def test_inf_sentinel():
    assert INF == float("inf")
    assert 10**9 < INF
