"""Coalgebra axioms, the primitive filtration, convolution, and S(V).

Binomial coproduct values and filtration dimensions are frozen from hand
computation: dim S(V)_k = C(n+k-1, k) for dim V = n, and the level-k
filtration of S(V) is exactly the polynomials of degree <= k.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackalg.exact_core as exact_core
import rackalg.groups as groups
import rackalg.symcoalg as symcoalg
from oracles import (
    convolution,
    convolution_inverse,
    convolution_unit,
    flip_map,
    sym_product_map,
    table_of,
    tensor_product_map,
)
from rackalg.errors import AxiomViolation, RackalgError, SchemaError
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    SeriesScalar,
    SpanSolver,
    split_label,
    tensor_basis,
)
from rackalg.symcoalg import (
    Coalgebra,
    check_coalgebra,
    check_coalgebra_map,
    check_cocommutative,
    check_multiplicative,
    coalgebra_filtration,
    filtration_order,
    is_cocommutative,
    is_connected,
    is_group_like,
    primitives,
    restrict_coalgebra,
    symmetric_coalgebra,
    tensor_coalgebra,
)

F = Fraction


def group_like_coalgebra(labels, unit_label):
    """K[X] with every basis element group-like (used as a non-connected foil)."""
    basis = Basis("KX", tuple(labels))
    square = tensor_basis(basis, basis)
    delta = FinMap.from_function(basis, square,
                                 lambda l: FinVec.unit(square, (l, l)))
    counit = {l: F(1) for l in labels}
    return Coalgebra(basis, delta, counit, FinVec.unit(basis, unit_label))


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_symmetric_coalgebra_passes_axioms():
    for n, cap in ((1, 3), (2, 2), (3, 2)):
        V = Basis("V", tuple(range(1, n + 1)))
        S = symmetric_coalgebra(V, cap)
        assert S.basis.dim == sum(math.comb(n + k - 1, k) for k in range(cap + 1))
        check_coalgebra(S)
        assert is_cocommutative(S)


def test_group_like_coalgebra_passes_axioms():
    c = group_like_coalgebra(("e", "g"), "e")
    check_coalgebra(c)
    assert is_cocommutative(c)
    assert is_group_like(c, FinVec.unit(c.basis, "g"))
    assert is_group_like(c, FinVec.unit(c.basis, "g", SeriesScalar.one(3)))
    assert not is_group_like(c, FinVec.unit(c.basis, "g").scale(F(2)))


def test_broken_coassociativity_is_caught():
    # delta(g) = g (x) g + e (x) g: the two reassociations differ in the
    # g (x) e (x) g term
    basis = Basis("C", ("e", "g"))
    square = tensor_basis(basis, basis)

    def col(l):
        if l == "e":
            return FinVec.unit(square, ("e", "e"))
        return FinVec.unit(square, ("g", "g")) + FinVec.unit(square, ("e", "g"))

    bad = Coalgebra(basis, FinMap.from_function(basis, square, col),
                    {"e": F(1), "g": F(1)}, FinVec.unit(basis, "e"))
    with pytest.raises(AxiomViolation) as exc:
        check_coalgebra(bad)
    assert exc.value.axiom == "coassociativity"
    assert exc.value.witness == "g"


def test_broken_counit_is_caught():
    # delta is group-like-shaped but the counit misses g
    basis = Basis("C", ("e", "g"))
    square = tensor_basis(basis, basis)
    delta = FinMap.from_function(basis, square, lambda l: FinVec.unit(square, (l, l)))
    bad = Coalgebra(basis, delta, {"e": F(1)}, FinVec.unit(basis, "e"))
    with pytest.raises(AxiomViolation) as exc:
        check_coalgebra(bad)
    assert exc.value.axiom == "left counit"
    assert exc.value.witness == "g"


def test_non_group_like_unit_is_caught():
    S = symmetric_coalgebra(Basis("V", (1,)), 2)
    bad = Coalgebra(S.basis, S.delta, S.counit, FinVec.unit(S.basis, (1,)))
    with pytest.raises(AxiomViolation) as exc:
        check_coalgebra(bad)
    assert exc.value.axiom == "counit of unit"


def test_coproduct_into_another_square_is_refused():
    # the same labels, but the coproduct lands in the square of basis D
    basis = Basis("C", ("e", "g"))
    other = tensor_basis(Basis("D", ("e", "g")), Basis("D", ("e", "g")))
    delta = FinMap.from_function(basis, other, lambda l: FinVec.unit(other, (l, l)))
    bad = Coalgebra(basis, delta, {"e": 1, "g": 1}, FinVec.unit(basis, "e"))
    with pytest.raises(SchemaError):
        check_coalgebra(bad)
    with pytest.raises(SchemaError):
        check_cocommutative(bad)


def test_constructors_hand_over_their_square():
    V = Basis("V", (1, 2))
    S = symmetric_coalgebra(V, 2)
    K = groups.group_like_coalgebra("KX", ("e", "g"), "e")
    for c in (S, K, tensor_coalgebra(S, K), restrict_coalgebra(S, [(), (1,)], "S1")):
        assert c.square is c.delta.codomain
        check_coalgebra(c)


def test_a_hand_built_coproduct_is_not_trusted_for_the_square():
    # S's own basis, but the coproduct lands in the square of another basis
    # with the same labels: the square is built from the basis, so the
    # mismatch is seen although the delta looks like a constructor's
    S = symmetric_coalgebra(Basis("V", (1,)), 2)
    W = Basis("W", S.basis.labels)
    other = tensor_basis(W, W)
    delta = FinMap(S.basis, other, {lab: FinVec(other, col.entries)
                                    for lab, col in S.delta.columns.items()})
    bad = Coalgebra(S.basis, delta, S.counit, S.unit)
    assert bad.square is not delta.codomain and bad.square != delta.codomain
    with pytest.raises(SchemaError):
        check_coalgebra(bad)
    with pytest.raises(SchemaError):
        check_cocommutative(bad)


def test_function_coalgebra_is_not_cocommutative(function_coalgebra_s3):
    c = function_coalgebra_s3
    check_coalgebra(c)
    assert not is_cocommutative(c)
    with pytest.raises(AxiomViolation) as exc:
        check_cocommutative(c)
    assert exc.value.axiom == "cocommutativity"
    col = c.delta.column(exc.value.witness)
    assert (exc.value.lhs, exc.value.rhs) == (flip_map(c.basis, c.basis)(col), col)


# ---------------------------------------------------------------------------
# the leg-wise checks against the composed-map formulas
# ---------------------------------------------------------------------------


def reference_coalgebra_failure(c):
    """First failing axiom of check_coalgebra, from composed maps: (axiom, witness, lhs, rhs)."""
    ident = FinMap.identity(c.basis)
    left = tensor_product_map(c.delta, ident).compose(c.delta)
    right = tensor_product_map(ident, c.delta).compose(c.delta)
    for lab in c.basis.labels:
        if left.column(lab) != right.column(lab):
            return "coassociativity", lab, left.column(lab), right.column(lab)
    for lab in c.basis.labels:
        b = FinVec.unit(c.basis, lab)
        terms = [(*split_label(c.basis, pair), w) for pair, w in c.delta.column(lab)]
        eps_id = FinVec.build(c.basis, ((l2, w * c.counit.get(l1, 0)) for l1, l2, w in terms))
        id_eps = FinVec.build(c.basis, ((l1, w * c.counit.get(l2, 0)) for l1, l2, w in terms))
        if eps_id != b:
            return "left counit", lab, eps_id, b
        if id_eps != b:
            return "right counit", lab, id_eps, b
    if c.eps_of(c.unit) != 1:
        return "counit of unit", "1", c.eps_of(c.unit), 1
    if c.delta(c.unit) != c.unit.tensor(c.unit, c.square):
        return "unit group-like", "1", c.delta(c.unit), c.unit.tensor(c.unit, c.square)
    return None


def reference_cocommutativity_failure(c):
    tau = flip_map(c.basis, c.basis)
    for lab in c.basis.labels:
        col = c.delta.column(lab)
        if tau(col) != col:
            return "cocommutativity", lab, tau(col), col
    return None


def failure_of(check, c):
    try:
        check(c)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness, exc.lhs, exc.rhs
    return None


PERTURBED = (
    symmetric_coalgebra(Basis("V", (1, 2)), 3),
    group_like_coalgebra(("e", "g", "h"), "e"),
    tensor_coalgebra(symmetric_coalgebra(Basis("W", ("x",)), 2),
                     group_like_coalgebra(("e", "g"), "e")),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PERTURBED), st.integers(min_value=0), st.integers(min_value=0),
       st.integers(min_value=-3, max_value=3))
def test_leg_checks_match_composed_maps(base, label_pick, target_pick, coeff):
    # add coeff times one target of the square to one delta column
    lab = base.basis.labels[label_pick % base.basis.dim]
    square = base.delta.codomain
    target = square.labels[target_pick % square.dim]
    cols = dict(base.delta.columns)
    cols[lab] = base.delta.column(lab) + FinVec.unit(square, target, coeff)
    c = Coalgebra(base.basis, FinMap(base.basis, square, cols), base.counit, base.unit)
    assert failure_of(check_coalgebra, c) == reference_coalgebra_failure(c)
    assert failure_of(check_cocommutative, c) == reference_cocommutativity_failure(c)


def test_coalgebra_checks_build_no_tensor_cube(monkeypatch):
    c = symmetric_coalgebra(Basis("V", (1, 2, 3)), 4)
    sizes = []

    def counting(*bases):
        out = tensor_basis(*bases)
        sizes.append(out.dim)
        return out

    monkeypatch.setattr(exact_core, "tensor_basis", counting)
    monkeypatch.setattr(symcoalg, "tensor_basis", counting)
    check_coalgebra(c)
    check_cocommutative(c)
    assert max(sizes, default=0) <= c.basis.dim ** 2


# ---------------------------------------------------------------------------
# binomial coproduct values
# ---------------------------------------------------------------------------


def test_square_and_legs_are_built_once():
    c = symmetric_coalgebra(Basis("V", ("x", "y")), 2)
    assert c.square is c.square
    assert c.square == tensor_basis(c.basis, c.basis)
    assert c.legs(("x", "y")) is c.legs(("x", "y"))
    assert c.legs(("x", "y")) == c.sweedler(FinVec.unit(c.basis, ("x", "y")))


def test_coalgebra_map_checker_names_the_failing_identity():
    c = symmetric_coalgebra(Basis("V", ("x", "y")), 2)
    labels = c.basis.labels
    check_coalgebra_map(c, c, FinMap.identity(c.basis).column, labels, "identity")
    doubled = FinMap.identity(c.basis).scale(F(2))
    with pytest.raises(AxiomViolation) as exc:
        check_coalgebra_map(c, c, doubled.column, labels, "doubling")
    assert (exc.value.axiom, exc.value.witness) == ("doubling comultiplicativity", ())
    # letters go to zero, so the coproduct of x^2 loses its middle term x (x) x
    kill = FinMap.from_function(c.basis, c.basis, lambda m: FinVec.unit(c.basis, m)
                                if len(m) != 1 else FinVec.zero(c.basis))
    with pytest.raises(RackalgError) as exc:
        check_coalgebra_map(c, c, kill.column, labels, "kill", RackalgError)
    assert type(exc.value) is RackalgError


def test_multiplicative_checker_names_the_failing_identity():
    c = group_like_coalgebra(("e", "a"), "e")
    table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}

    def pair(p, q):
        return FinVec.unit(c.basis, table[p, q])

    pairs = [(p, q) for p in c.basis.labels for q in c.basis.labels]
    labels = c.basis.labels
    check_multiplicative(c, table_of(c.basis, pair, labels), pairs, "coproduct", "counit")
    with pytest.raises(AxiomViolation) as exc:
        check_multiplicative(c, table_of(c.basis, lambda p, q: pair(p, q).scale(F(2)), labels),
                             pairs, "coproduct", "counit")
    assert (exc.value.axiom, exc.value.witness) == ("counit", ("e", "e"))
    with pytest.raises(AxiomViolation) as exc:
        check_multiplicative(c, table_of(c.basis, lambda p, q: pair(p, q) + FinVec.unit(
            c.basis, "a") - FinVec.unit(c.basis, "e"), labels), pairs, "coproduct", "counit")
    # e e = a is still group-like; e a = 2a - e is not
    assert (exc.value.axiom, exc.value.witness) == ("coproduct", ("e", "a"))


def test_multiplicative_checker_takes_the_acting_coalgebra():
    # K[Z2] acting trivially on S(V)<=1 is a module coalgebra: g.x = x
    g = group_like_coalgebra(("e", "a"), "e")
    c = symmetric_coalgebra(Basis("V", (1,)), 1)
    pairs = [(p, q) for p in g.basis.labels for q in c.basis.labels]
    labels = (g.basis.labels, c.basis.labels)
    check_multiplicative(c, table_of(c.basis, lambda p, q: FinVec.unit(c.basis, q), *labels),
                         pairs, "coproduct", "counit", left=g)
    with pytest.raises(AxiomViolation) as exc:
        check_multiplicative(c, table_of(c.basis, lambda p, q: FinVec.unit(c.basis, q).scale(
            1 if p == "e" else 0), *labels), pairs, "coproduct", "counit", left=g)
    assert (exc.value.axiom, exc.value.witness) == ("counit", ("a", ()))


def test_restriction_needs_a_label_set_closed_under_the_coproduct():
    s = symmetric_coalgebra(Basis("V", (1, 2)), 2)
    sub = restrict_coalgebra(s, [(), (1,), (1, 1)], "S(x)<=2")
    check_coalgebra(sub)
    assert dict(sub.delta.column((1, 1)).entries) == {
        ((), (1, 1)): 1, ((1,), (1,)): 2, ((1, 1), ()): 1}
    with pytest.raises(RackalgError):
        restrict_coalgebra(s, [(), (1, 1)], "bad")


def test_delta_of_square_monomial():
    S = symmetric_coalgebra(Basis("V", (1, 2)), 2)
    d = S.delta(FinVec.unit(S.basis, (1, 1)))
    assert dict(d.entries) == {
        ((), (1, 1)): F(1),
        ((1,), (1,)): F(2),
        ((1, 1), ()): F(1),
    }


def test_delta_of_mixed_cube_monomial():
    S = symmetric_coalgebra(Basis("V", (1, 2)), 3)
    d = S.delta(FinVec.unit(S.basis, (1, 1, 2)))
    assert dict(d.entries) == {
        ((), (1, 1, 2)): F(1),
        ((1,), (1, 2)): F(2),
        ((2,), (1, 1)): F(1),
        ((1, 1), (2,)): F(1),
        ((1, 2), (1,)): F(2),
        ((1, 1, 2), ()): F(1),
    }


def test_sweedler_iteration_matches_delta():
    S = symmetric_coalgebra(Basis("V", (1, 2)), 2)
    v = FinVec.unit(S.basis, (1, 2)) + FinVec.unit(S.basis, (1,)).scale(F(3))
    terms = S.sweedler(v)
    total = FinVec.zero(S.square)
    for l1, l2, c in terms:
        total = total + FinVec.unit(S.basis, l1).tensor(FinVec.unit(S.basis, l2),
                                                        S.square).scale(c)
    assert total == S.delta(v)


# ---------------------------------------------------------------------------
# primitives and filtration
# ---------------------------------------------------------------------------


def test_primitives_of_sym_are_degree_one():
    S = symmetric_coalgebra(Basis("V", (1, 2, 3)), 2)
    prim = primitives(S)
    assert sorted(list(v.entries) for v in prim) == [[(1,)], [(2,)], [(3,)]]


def test_filtration_levels_are_degree_levels():
    n, cap = 2, 3
    S = symmetric_coalgebra(Basis("V", tuple(range(1, n + 1))), cap)
    levels = coalgebra_filtration(S)
    expected = [sum(math.comb(n + j - 1, j) for j in range(k + 1))
                for k in range(cap + 1)]
    assert [len(l) for l in levels] == expected
    assert is_connected(S)
    # each level is spanned by the monomials of that degree bound
    for k, level in enumerate(levels):
        span = SpanSolver(level)
        for mono in S.basis.labels:
            assert span.contains(FinVec.unit(S.basis, mono)) == (len(mono) <= k)


def test_filtration_order_values():
    S = symmetric_coalgebra(Basis("V", (1, 2)), 2)
    assert filtration_order(S, S.unit) == 0
    assert filtration_order(S, FinVec.unit(S.basis, (2,))) == 1
    assert filtration_order(S, FinVec.unit(S.basis, (1, 2))) == 2
    mixed = FinVec.unit(S.basis, (1,)) + FinVec.unit(S.basis, (2, 2)).scale(F(5))
    assert filtration_order(S, mixed) == 2


def test_group_like_coalgebra_is_not_connected():
    c = group_like_coalgebra(("e", "g"), "e")
    levels = coalgebra_filtration(c)
    assert [len(l) for l in levels] == [1]
    assert not is_connected(c)
    assert filtration_order(c, FinVec.unit(c.basis, "g")) is None


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolution_unit_is_two_sided_identity():
    V = Basis("V", (1, 2))
    S = symmetric_coalgebra(V, 2)
    mul = sym_product_map(S, V)
    e = convolution_unit(S, S.unit)
    f = FinMap.from_function(S.basis, S.basis,
                             lambda m: FinVec.unit(S.basis, m).scale(F(len(m) + 1)))
    assert convolution(S, mul, e, f) == f
    assert convolution(S, mul, f, e) == f


def test_convolution_inverse_of_identity_is_signed_reflection():
    # on S(V) the convolution inverse of id sends a monomial m to (-1)^|m| m
    V = Basis("V", (1, 2))
    S = symmetric_coalgebra(V, 3)
    mul = sym_product_map(S, V)
    inv = convolution_inverse(S, mul, S.unit, FinMap.identity(S.basis))
    for mono in S.basis.labels:
        expected = FinVec.unit(S.basis, mono).scale(F((-1) ** len(mono)))
        assert inv(FinVec.unit(S.basis, mono)) == expected
    e = convolution_unit(S, S.unit)
    assert convolution(S, mul, FinMap.identity(S.basis), inv) == e
    assert convolution(S, mul, inv, FinMap.identity(S.basis)) == e


def test_convolution_inverse_requires_termination():
    # on the group-like coalgebra the geometric series never terminates
    c = group_like_coalgebra(("e", "g"), "e")
    square = tensor_basis(c.basis, c.basis)
    # group multiplication of Z/2
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    mul = FinMap.from_function(square, c.basis,
                               lambda p: FinVec.unit(c.basis, table[p]))
    with pytest.raises(RackalgError):
        convolution_inverse(c, mul, c.unit, FinMap.identity(c.basis))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_convolution_is_associative_on_scaling_maps(a, b):
    V = Basis("V", (1, 2))
    S = symmetric_coalgebra(V, 2)
    mul = sym_product_map(S, V)

    def scaling(c):
        return FinMap.from_function(S.basis, S.basis,
                                    lambda m: FinVec.unit(S.basis, m).scale(F(c) ** len(m)))

    f, g, h = scaling(a), scaling(b), scaling(a + b)
    lhs = convolution(S, mul, convolution(S, mul, f, g), h)
    rhs = convolution(S, mul, f, convolution(S, mul, g, h))
    assert lhs == rhs
