"""Leibniz identity checking, canonical ideals, and Lie quotients.

Expected ideal bases below were computed by hand from the bracket tables and
frozen here; the quotient tests then cross-check the projection against them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackalg.errors import IdealSandwichViolation, LeibnizViolation, SchemaError
from rackalg.exact_core import Basis, FinMap, FinVec, SpanSolver
from rackalg.fixtures import load
from rackalg.leibniz import (
    LeibnizAlgebra,
    check_leibniz,
    is_lie,
    left_center,
    quotient_lie,
    squares_ideal,
)

F = Fraction


@pytest.fixture(scope="module")
def sq2():
    return load("sq2")


@pytest.fixture(scope="module")
def lie2():
    return load("lie2")


@pytest.fixture(scope="module")
def nonlie3():
    return load("nonlie3")


def vec(h, coeffs):
    return FinVec.build(h.basis, {i: F(c) for i, c in coeffs.items()})


# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------


def test_named_fixtures_satisfy_leibniz():
    for name in ("abelian1", "abelian2", "abelian3", "sq2", "lie2",
                 "nonlie3", "heis3", "sl2"):
        check_leibniz(load(name))


def test_lie_flags():
    assert is_lie(load("lie2"))
    assert is_lie(load("sl2"))
    assert is_lie(load("abelian3"))
    assert not is_lie(load("sq2"))
    assert not is_lie(load("nonlie3"))


def test_negative_fixture_rejected_with_first_witness():
    # [e1,e2] = e1 = [e2,e1]: at (1,2,2) the left side is 0 but the right
    # side is [e1,e2] + [e2,e1] = 2 e1
    neg = load("neg_leibniz")
    with pytest.raises(LeibnizViolation) as exc:
        check_leibniz(neg)
    e = exc.value
    assert (e.j, e.k, e.l) == (1, 2, 2)
    assert e.lhs.is_zero
    assert e.rhs == vec(neg, {1: 2})


def test_bracket_of_is_bilinear(sq2):
    x = vec(sq2, {1: F(2), 2: F(3)})
    y = vec(sq2, {1: F(1, 2)})
    z = vec(sq2, {1: F(-1), 2: F(5)})
    assert sq2.bracket_of(x + z, y) == sq2.bracket_of(x, y) + sq2.bracket_of(z, y)
    assert sq2.bracket_of(x, y.scale(F(7))) == sq2.bracket_of(x, y).scale(F(7))


def test_ad_is_a_derivation_of_the_bracket():
    # equivalent form of the Leibniz identity on arbitrary vectors
    h = load("sl2")
    x = vec(h, {1: 1, 3: 2})
    y = vec(h, {2: 1})
    z = vec(h, {1: 1, 2: -1})
    adx = h.ad(x)
    assert adx(h.bracket_of(y, z)) == h.bracket_of(adx(y), z) + h.bracket_of(y, adx(z))


# ---------------------------------------------------------------------------
# ideals: frozen bases
# ---------------------------------------------------------------------------


def test_sq2_squares_and_center_are_span_e2(sq2):
    assert [dict(v.entries) for v in squares_ideal(sq2)] == [{2: F(1)}]
    assert [dict(v.entries) for v in left_center(sq2)] == [{2: F(1)}]


def test_lie2_ideals_are_trivial(lie2):
    assert squares_ideal(lie2) == []
    assert left_center(lie2) == []


def test_nonlie3_sandwich_is_strict(nonlie3):
    q = squares_ideal(nonlie3)
    z = left_center(nonlie3)
    assert [dict(v.entries) for v in q] == [{3: F(1)}]
    assert SpanSolver(z).dim == 2
    span = SpanSolver(z)
    assert span.contains(vec(nonlie3, {2: 1}))
    assert span.contains(vec(nonlie3, {3: 1}))
    assert not span.contains(vec(nonlie3, {1: 1}))


def test_squares_sit_inside_left_center():
    for name in ("sq2", "nonlie3", "sl2", "heis3"):
        h = load(name)
        center = SpanSolver(left_center(h))
        for v in squares_ideal(h):
            assert center.contains(v)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def test_sq2_quotient_is_abelian_line(sq2):
    q = quotient_lie(sq2)
    assert q.algebra.dim == 1
    assert q.algebra.is_abelian()
    assert q.p(vec(sq2, {2: 1})).is_zero
    assert q.p.compose(q.section) == FinMap.identity(q.algebra.basis)


def test_lie_algebra_is_its_own_quotient(lie2):
    q = quotient_lie(lie2)
    assert q.algebra.dim == 2
    assert q.z_basis == ()
    # same structure constants under the label-preserving section
    for (j, k), v in lie2.bracket.items():
        assert q.section(q.algebra.table.vector(j, k)) == v


def test_nonlie3_quotients_by_both_sandwich_ends(nonlie3):
    by_squares = quotient_lie(nonlie3)
    assert by_squares.algebra.dim == 2
    assert by_squares.algebra.is_abelian()
    by_center = quotient_lie(nonlie3, z=left_center(nonlie3))
    assert by_center.algebra.dim == 1
    assert by_center.algebra.is_abelian()


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3", "sq2", "lie2",
                                  "nonlie3", "heis3", "sl2"])
@pytest.mark.parametrize("end", [squares_ideal, left_center])
def test_both_sandwich_quotients_are_lie_algebras(name, end):
    # quotient_lie checks neither; its docstring proves both from the sandwich
    h = load(name)
    g = quotient_lie(h, z=end(h)).algebra
    check_leibniz(g)
    assert is_lie(g)


def test_quotient_projection_kills_exactly_z(nonlie3):
    q = quotient_lie(nonlie3)
    z_span = SpanSolver(list(q.z_basis))
    for j in nonlie3.basis.labels:
        v = FinVec.unit(nonlie3.basis, j)
        assert q.p(v).is_zero == z_span.contains(v)


def test_quotient_respects_bracket(nonlie3):
    # p([x, y]) = [p(x), p(y)] for all basis pairs
    q = quotient_lie(nonlie3)
    for j in nonlie3.basis.labels:
        for k in nonlie3.basis.labels:
            lhs = q.p(nonlie3.table.vector(j, k))
            x = q.p(FinVec.unit(nonlie3.basis, j))
            y = q.p(FinVec.unit(nonlie3.basis, k))
            assert lhs == q.algebra.bracket_of(x, y)


def test_sandwich_violations(sq2, nonlie3):
    # z not containing the squares ideal
    with pytest.raises(IdealSandwichViolation):
        quotient_lie(sq2, z=[])
    # z escaping the left center
    with pytest.raises(IdealSandwichViolation):
        quotient_lie(sq2, z=[vec(sq2, {1: 1}), vec(sq2, {2: 1})])
    with pytest.raises(IdealSandwichViolation):
        quotient_lie(nonlie3, z=[vec(nonlie3, {1: 1}), vec(nonlie3, {3: 1})])


@pytest.mark.parametrize("make", [
    # another basis, with a label that is not one of h's
    lambda h: FinVec(Basis("X", (9,)), {9: 1}),
    # another basis whose labels are h's
    lambda h: FinVec(Basis("X", h.basis.labels), {2: 1}),
    # h's basis, with a label outside it
    lambda h: FinVec(h.basis, {2: 1, 9: 1}),
])
def test_a_foreign_ideal_vector_is_a_schema_error(sq2, make):
    with pytest.raises(SchemaError):
        quotient_lie(sq2, z=[make(sq2)])
    with pytest.raises(SchemaError):
        quotient_lie(sq2, z=[vec(sq2, {2: 1}), make(sq2)])


def test_quotient_rejects_non_leibniz_input():
    with pytest.raises(LeibnizViolation):
        quotient_lie(load("neg_leibniz"))


# ---------------------------------------------------------------------------
# structural properties on random members of a verified family
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_two_dim_family_with_parameter(a, b):
    # [e1,e1] = a e2, [e1,e2] = 0 = [e2,*]: always left Leibniz since the
    # derived subalgebra is central
    h = LeibnizAlgebra.from_table(2, {(1, 1): {2: a}, (2, 2): {2: b * 0}})
    check_leibniz(h)
    if a:
        assert [dict(v.entries) for v in squares_ideal(h)] == [{2: F(1)}]
        q = quotient_lie(h)
        assert q.algebra.dim == 1
