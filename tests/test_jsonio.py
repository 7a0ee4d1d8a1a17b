"""Input grammar of the JSON documents: rationals, dimensions and the unit
of a group."""

import time
from fractions import Fraction

import pytest

from rackalg.errors import SchemaError
from rackalg.fixtures import load_raw
from rackalg.jsonio import (
    MAX_DIM,
    MAX_RATIONAL_CHARS,
    group_from_json,
    leibniz_from_json,
    leibniz_to_json,
    right_group_from_json,
)


def _doc(coeff, dim=2):
    return {"kind": "leibniz_algebra", "name": "t", "dim": dim,
            "bracket": {"1,1": {"2": coeff}}}


@pytest.mark.parametrize("coeff,want", [
    ("1", Fraction(1)), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)), (2, Fraction(2)),
])
def test_accepted_rationals(coeff, want):
    h = leibniz_from_json(_doc(coeff))
    assert h.table.vector(1, 1)[2] == want


@pytest.mark.parametrize("coeff", [
    "1e1000000", "1e10", "1_000", True, False, "1.5", " 1", "+1", "1/-2", "1/0", "", "--1",
    "١", 1.0, None, "1" * (MAX_RATIONAL_CHARS + 1),
])
def test_rejected_rationals(coeff):
    with pytest.raises(SchemaError):
        leibniz_from_json(_doc(coeff))


def test_huge_exponent_rejected_without_evaluating_it():
    # Fraction("1e1000000") takes about 0.3 s; the grammar refuses it unread.
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        leibniz_from_json(_doc("1e1000000"))
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("dim", [True, 0, -1, "2", 2.0, MAX_DIM + 1, 10 ** 12])
def test_rejected_dimensions(dim):
    # the bound is checked before a basis of that size is built
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        leibniz_from_json(_doc("1", dim=dim))
    assert time.perf_counter() - start < 0.2


def _keyed(key, inner="2", dim=10):
    return {"kind": "leibniz_algebra", "name": "t", "dim": dim, "bracket": {key: {inner: "1"}}}


@pytest.mark.parametrize("key,inner", [
    ("1_0,1", "2"), ("\u0662,1", "2"), ("+2,1", "2"), ("-1,1", "2"), ("1,", "2"), ("1.0,1", "2"),
    ("1,1", "1_0"), ("1,1", "\u0662"), ("1,1", "+2"), ("1,1", ""), ("1,1", "0"), ("1,1", "11"),
    ("1,1", "1" * 1000), ("0" * 10 + "1,1", "2"),
])
def test_rejected_indices(key, inner):
    # "1_0,1" would be the pair (10, 1) and "\u0662" (Arabic-Indic two) would be 2 under int()
    with pytest.raises(SchemaError):
        leibniz_from_json(_keyed(key, inner))


def test_accepted_indices():
    h = leibniz_from_json(_keyed(" 10 , 1", " 2 "))
    assert h.table.vector(10, 1)[2] == 1
    assert leibniz_from_json(_keyed("01,1", "02")).table.vector(1, 1)[2] == 1
    assert leibniz_from_json(_keyed("1,1", "1", dim=MAX_DIM)).dim == MAX_DIM


@pytest.mark.parametrize("name", ["sq2", "heis3", "sl2", "nonlie3"])
def test_fixture_round_trip(name):
    doc = load_raw(name)
    assert leibniz_to_json(leibniz_from_json(doc)) == doc


@pytest.mark.parametrize("coeff,want,kind", [
    (2, 2, int), ("4/2", 2, int), ("-6", -6, int), ("1/2", Fraction(1, 2), Fraction),
])
def test_integral_rationals_load_as_int(coeff, want, kind):
    got = leibniz_from_json(_doc(coeff)).table.vector(1, 1)[2]
    assert got == want and type(got) is kind


@pytest.mark.parametrize("unit", [["e"], {"e": "e"}, 1, None])
def test_a_group_unit_that_is_not_a_string_is_a_schema_error(unit):
    # a list or a dict unit used to escape as TypeError (unhashable type)
    # from FiniteGroup, both directly and inside a right group
    doc = dict(load_raw("s3"), unit=unit)
    with pytest.raises(SchemaError, match="'unit' must be a string"):
        group_from_json(doc)
    outer = load_raw("rg_z2e2")
    with pytest.raises(SchemaError, match="'unit' must be a string"):
        right_group_from_json(dict(outer, group=dict(outer["group"], unit=unit)))
