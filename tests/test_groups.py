"""Finite groups, their group-like coalgebras, and group algebra Hopf structure."""

import itertools
from fractions import Fraction

import pytest

from rackalg.errors import AxiomViolation, SchemaError
from rackalg.exact_core import FinVec
from rackalg.fixtures import load
from rackalg.groups import (
    FiniteGroup,
    cyclic_group,
    group_hopf,
    group_like_coalgebra,
    symmetric_group,
)
from rackalg.right_hopf_dialg import hopf_as_dialgebra
from rackalg.symcoalg import check_coalgebra, is_cocommutative

F = Fraction


# ---------------------------------------------------------------------------
# group construction
# ---------------------------------------------------------------------------


def test_cyclic_group_orders():
    for n in (1, 2, 3, 5, 8):
        g = cyclic_group(n)
        assert g.order == n
        assert g.is_abelian()
        if n > 1:
            assert g.mul("r1", f"r{n - 1}") == "r0"


def test_cyclic_group_inverses():
    g = cyclic_group(6)
    for x in g.elements:
        assert g.mul(x, g.inverse(x)) == g.unit


def test_symmetric_group_s3():
    g = symmetric_group(3)
    assert g.order == 6
    assert not g.is_abelian()
    # (12) composed with (23): first swap 2,3 then swap 1,2
    assert g.mul("s213", "s132") == "s231"
    assert g.mul("s132", "s213") == "s312"


def test_symmetric_group_s4_order():
    assert symmetric_group(4).order == 24


def test_symmetric_group_rejects_large_n():
    with pytest.raises(SchemaError):
        symmetric_group(5)


def test_group_from_fixture_matches_builtin():
    g = load("s3")
    built = symmetric_group(3)
    assert g.elements == built.elements
    assert all(g.mul(a, b) == built.mul(a, b)
               for a, b in itertools.product(g.elements, repeat=2))


def test_broken_associativity_rejected():
    elems = ("e", "a", "b")
    table = {("e", x): x for x in elems} | {(x, "e"): x for x in elems}
    table |= {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "a", ("b", "b"): "e"}
    with pytest.raises(AxiomViolation) as exc:
        FiniteGroup("bad", elems, "e", table)
    assert exc.value.axiom == "associativity"


def test_missing_inverse_rejected():
    elems = ("e", "x")
    table = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "x"}
    with pytest.raises(AxiomViolation) as exc:
        FiniteGroup("bad", elems, "e", table)
    assert exc.value.axiom == "inverses"


def test_missing_table_entry_rejected():
    with pytest.raises(SchemaError):
        FiniteGroup("bad", ("e", "x"), "e", {("e", "e"): "e"})


def test_conjugate():
    g = symmetric_group(3)
    for a, b in itertools.product(g.elements, repeat=2):
        assert g.mul(g.mul(a, b), g.inverse(a)) == g.conjugate(a, b)


# ---------------------------------------------------------------------------
# group-like coalgebra and Hopf structure
# ---------------------------------------------------------------------------


def test_group_like_coalgebra_axioms():
    c = group_like_coalgebra("C", ("e", "a", "b"), "e")
    check_coalgebra(c)
    assert is_cocommutative(c)
    for lab in c.basis.labels:
        v = FinVec.unit(c.basis, lab)
        assert c.delta(v) == v.tensor(v, c.square)
        assert c.eps_of(v) == F(1)


def test_group_like_coalgebra_needs_unit_element():
    with pytest.raises(SchemaError):
        group_like_coalgebra("C", ("a", "b"), "e")


@pytest.mark.parametrize("make", [lambda: cyclic_group(4), lambda: symmetric_group(3)])
def test_group_hopf_axioms(make):
    h = group_hopf(make())
    hopf_as_dialgebra(h)


def test_group_hopf_antipode_is_inversion():
    g = symmetric_group(3)
    h = group_hopf(g)
    anti = h.antipode
    for lab in h.basis.labels:
        assert anti.column(lab) == FinVec.unit(h.basis, g.inverse(lab))


def test_group_hopf_product_bilinear():
    g = cyclic_group(3)
    h = group_hopf(g)
    a = FinVec.build(h.basis, {"r0": F(2), "r1": F(1)})
    b = FinVec.build(h.basis, {"r2": F(3)})
    assert h.product(a, b) == FinVec.build(h.basis, {"r2": F(6), "r0": F(3)})


def test_group_hopf_degrees_are_zero_and_uncapped():
    h = group_hopf(cyclic_group(3))
    assert h.table.cap is None
    assert all(h.table.degree(x) == 0 for x in h.basis.labels)
    assert h.table.vector("r1", "r2") == FinVec.unit(h.basis, "r0")
