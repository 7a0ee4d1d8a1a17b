"""Input grammar of the JSON documents: rationals and dimensions."""

import time
from fractions import Fraction

import pytest

from rackalg.errors import SchemaError
from rackalg.fixtures import load_raw
from rackalg.jsonio import MAX_DIM, MAX_RATIONAL_CHARS, leibniz_from_json, leibniz_to_json


def _doc(coeff, dim=2):
    return {"kind": "leibniz_algebra", "name": "t", "dim": dim,
            "bracket": {"1,1": {"2": coeff}}}


@pytest.mark.parametrize("coeff,want", [
    ("1", Fraction(1)), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)), (2, Fraction(2)),
])
def test_accepted_rationals(coeff, want):
    h = leibniz_from_json(_doc(coeff))
    assert h.bracket_of_labels(1, 1)[2] == want


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
    assert h.bracket_of_labels(10, 1)[2] == 1
    assert leibniz_from_json(_keyed("01,1", "02")).bracket_of_labels(1, 1)[2] == 1
    assert leibniz_from_json(_keyed("1,1", "1", dim=MAX_DIM)).dim == MAX_DIM


@pytest.mark.parametrize("name", ["sq2", "heis3", "sl2", "nonlie3"])
def test_fixture_round_trip(name):
    doc = load_raw(name)
    assert leibniz_to_json(leibniz_from_json(doc)) == doc
