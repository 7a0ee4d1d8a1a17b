"""Deformation complex of UR(h): coderivation spaces, faces, H^2, and the
dual-number cross-checks.

Frozen dimensions come from exact elimination; the cross-checks hold by the
theory of the complex: a degree-2 cochain deforms the product over the dual
numbers exactly when it is a cocycle, and the coboundary of any degree-1
cochain integrates to an equivalence id + hbar*alpha.
"""

import pytest

from rackalg.deformation import (
    coderivation_report,
    deformation_complex,
    differential,
    equivalence_check,
    h2,
    infinitesimal_selfdist,
    verify_complex,
)
from rackalg.errors import SchemaError
from rackalg.exact_core import FinMap, FinVec, kernel_basis
from rackalg.fixtures import load
from rackalg.groups import symmetric_group
from rackalg.rack_bialg import conjugation_rack, rack_group_algebra, ur


@pytest.fixture(scope="module")
def ur_sq2():
    return ur(load("sq2"))


@pytest.fixture(scope="module")
def complex_sq2(ur_sq2):
    return deformation_complex(ur_sq2, 2)


@pytest.fixture(scope="module")
def ur_lie2():
    return ur(load("lie2"))


@pytest.fixture(scope="module")
def complex_lie2(ur_lie2):
    return deformation_complex(ur_lie2, 2)


@pytest.mark.parametrize("name,want", [
    ("abelian1", {"z2": 2, "b2": 0, "h2": 2}),
    ("sq2", {"z2": 4, "b2": 2, "h2": 2}),
    ("lie2", {"z2": 2, "b2": 2, "h2": 0}),
])
def test_h2_dimensions(name, want):
    assert h2(ur(load(name))) == want


def test_h2_of_the_s3_conjugation_rack_algebra_vanishes():
    rb = rack_group_algebra(conjugation_rack(symmetric_group(3)))
    assert h2(rb) == {"z2": 0, "b2": 0, "h2": 0}


def test_verify_complex_sq2(ur_sq2):
    rep = verify_complex(ur_sq2, 1)
    assert rep.passed and rep.checked == 32
    assert rep.detail == "dim C^1=4, dim C^2=12; cubical=16, extra=12"


def test_verify_complex_lie2(ur_lie2):
    rep = verify_complex(ur_lie2, 1)
    assert rep.passed and rep.checked == 32
    assert rep.detail == "dim C^1=4, dim C^2=12; cubical=16, extra=12"


def test_cochain_space_dimensions(complex_sq2):
    assert [len(space) for space in complex_sq2.spaces] == [4, 12, 36]


def test_basis_cochains_are_coderivations(ur_sq2, complex_sq2):
    for n, space in enumerate(complex_sq2.spaces[:2], start=1):
        for f in space:
            assert coderivation_report(ur_sq2, n, f.map).passed


def test_differential_matches_the_matrix(ur_sq2, complex_sq2):
    d1 = complex_sq2.differentials[0]
    c2 = complex_sq2.spaces[1]
    for j, f in enumerate(complex_sq2.spaces[0]):
        image = differential(ur_sq2, 1, f).map
        want = _combination(c2, d1.column(j), ur_sq2.basis)
        assert image == want


def _combination(space, coords, basis):
    domain = space[0].map.domain
    return FinMap.from_function(domain, basis, lambda t: FinVec.build(
        basis, ((lab, c * v) for j, c in coords for lab, v in space[j].map.column(t))))


def _check_cocycles_deform(rb, cx, n_cocycles):
    d2 = cx.differentials[1]
    c2 = cx.spaces[1]
    cocycles = kernel_basis(d2)
    assert len(cocycles) == n_cocycles
    for v in cocycles:
        assert infinitesimal_selfdist(rb, _combination(c2, v, rb.basis)).passed
    for j, f in enumerate(c2):
        rep = infinitesimal_selfdist(rb, f)
        assert rep.passed == d2.column(j).is_zero
        if not rep.passed:
            assert rep.axiom == "self-distributivity mod hbar^2"


def _check_coboundaries_integrate(rb, cx):
    for f in cx.spaces[0]:
        rep = equivalence_check(rb, f.map)
        assert rep.passed and rep.checked == 12


def test_cocycles_deform_and_the_rest_do_not(ur_sq2, complex_sq2):
    _check_cocycles_deform(ur_sq2, complex_sq2, 4)


def test_cocycles_deform_and_the_rest_do_not_on_lie2(ur_lie2, complex_lie2):
    _check_cocycles_deform(ur_lie2, complex_lie2, 2)


def test_coboundaries_integrate(ur_sq2, complex_sq2):
    _check_coboundaries_integrate(ur_sq2, complex_sq2)


def test_coboundaries_integrate_on_lie2(ur_lie2, complex_lie2):
    _check_coboundaries_integrate(ur_lie2, complex_lie2)


def test_differential_rejects_wrong_degree(ur_sq2, complex_sq2):
    with pytest.raises(SchemaError):
        differential(ur_sq2, 2, complex_sq2.spaces[0][0])
