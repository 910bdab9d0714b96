"""Exact-arithmetic kernel: vectors, forms, elimination, feasibility."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moribound.core import (
    INF,
    DimensionMismatch,
    RVector,
    TrilinearForm,
    binomial,
    format_rational,
    kernel_of_columns,
    rank,
    rational,
    scale_primitive,
    solve_inequalities,
    span_rank,
)

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


def test_format_rational_round_trip():
    for text in ("0", "5", "-5", "3/4", "-17/3"):
        assert format_rational(rational(text)) == text


def test_binomial_small_table():
    assert [binomial(4, k) for k in range(6)] == [1, 4, 6, 4, 1, 0]
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


def test_inf_sentinel():
    assert INF == float("inf")
    assert 10**9 < INF
