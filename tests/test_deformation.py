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
    star_mu1,
    verify_complex,
)
from rackalg.errors import SchemaError
from rackalg.exact_core import FinMap, FinVec, kernel_basis
from rackalg.fixtures import load
from rackalg.groups import symmetric_group
from rackalg.rack_bialg import conjugation_rack, rack_group_algebra, trivial, uar_infinity, ur
from rackalg.star_product import monomial_function, psi_function, star
from rackalg.symcoalg import symmetric_coalgebra


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


@pytest.fixture(scope="module")
def ur_heis3():
    return ur(load("heis3"))


@pytest.fixture(scope="module")
def complex_heis3(ur_heis3):
    return deformation_complex(ur_heis3, 2)


@pytest.mark.parametrize("name,want", [
    ("abelian1", {"z2": 2, "b2": 0, "h2": 2}),
    ("sq2", {"z2": 4, "b2": 2, "h2": 2}),
    ("lie2", {"z2": 2, "b2": 2, "h2": 0}),
    ("heis3", {"z2": 13, "b2": 3, "h2": 10}),
])
def test_h2_dimensions(name, want):
    assert h2(ur(load(name))) == want


def _truncated_trivial(h):
    return trivial(symmetric_coalgebra(h.basis, 2))


def _uar2(h):
    return uar_infinity(h, 2).rack


@pytest.mark.parametrize("build,name,want", [
    (ur, "sl2", (6, 6, 0)),
    (ur, "nonlie3", (14, 5, 9)),
    (_truncated_trivial, "lie2", (60, 0, 60)),
    (_uar2, "lie2", (8, 8, 0)),
    # 10-dim carriers: C^3 would need 10^4 unknowns, past the default budget
    (_truncated_trivial, "heis3", (270, 0, 270)),
    (_uar2, "heis3", (59, 18, 41)),
    (_uar2, "sl2", (24, 24, 0)),
], ids=["ur-sl2", "ur-nonlie3", "trivial-lie2", "uar2-lie2", "trivial-heis3", "uar2-heis3",
        "uar2-sl2"])
def test_h2_needs_no_third_cochain_space(build, name, want, monkeypatch):
    monkeypatch.delenv("RACKALG_MAX_UNKNOWNS", raising=False)
    assert h2(build(load(name))) == dict(zip(("z2", "b2", "h2"), want))


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


def test_verify_complex_heis3():
    rep = verify_complex(ur(load("heis3")), 1)
    assert rep.passed and rep.checked == 72
    assert rep.detail == "dim C^1=9, dim C^2=36; cubical=36, extra=27"


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
    """Returns the number of basis C^2 cochains that fail to deform."""
    d2 = cx.differentials[1]
    c2 = cx.spaces[1]
    cocycles = kernel_basis(d2)
    assert len(cocycles) == n_cocycles
    for v in cocycles:
        assert infinitesimal_selfdist(rb, _combination(c2, v, rb.basis)).passed
    failed = 0
    for j, f in enumerate(c2):
        rep = infinitesimal_selfdist(rb, f)
        assert rep.passed == d2.column(j).is_zero
        if not rep.passed:
            assert rep.axiom == "self-distributivity mod hbar^2"
            failed += 1
    return failed


def _check_coboundaries_integrate(rb, cx, n_checked):
    for f in cx.spaces[0]:
        rep = equivalence_check(rb, f.map)
        assert rep.passed and rep.checked == n_checked


def test_cocycles_deform_and_the_rest_do_not(ur_sq2, complex_sq2):
    _check_cocycles_deform(ur_sq2, complex_sq2, 4)


def test_cocycles_deform_and_the_rest_do_not_on_lie2(ur_lie2, complex_lie2):
    _check_cocycles_deform(ur_lie2, complex_lie2, 2)


def test_cocycles_deform_and_the_rest_do_not_on_heis3(ur_heis3, complex_heis3):
    assert len(complex_heis3.spaces[1]) == 36
    assert _check_cocycles_deform(ur_heis3, complex_heis3, 13) == 30


def test_coboundaries_integrate(ur_sq2, complex_sq2):
    _check_coboundaries_integrate(ur_sq2, complex_sq2, 12)


def test_coboundaries_integrate_on_lie2(ur_lie2, complex_lie2):
    _check_coboundaries_integrate(ur_lie2, complex_lie2, 12)


def test_coboundaries_integrate_on_heis3(ur_heis3, complex_heis3):
    assert len(complex_heis3.spaces[0]) == 9
    _check_coboundaries_integrate(ur_heis3, complex_heis3, 20)


def test_differential_rejects_wrong_degree(ur_sq2, complex_sq2):
    with pytest.raises(SchemaError):
        differential(ur_sq2, 2, complex_sq2.spaces[0][0])


@pytest.mark.parametrize("name,pairs,nonzero,triples", [("lie2", 36, 6, 216),
                                                        ("heis3", 100, 8, 1000)])
def test_star_mu1_is_the_first_order_term_of_the_star_product(name, pairs, nonzero, triples):
    """star_mu1 is the hbar^1 coefficient of the star product on S(h)<=2, and a cocycle."""
    h = load(name)
    rb, mu1 = star_mu1(h, 2)
    labels = rb.carrier.basis.labels
    assert len(labels) ** 2 == pairs and len(mu1.map.columns) == nonzero
    for a in labels:
        for b in labels:
            product = star(h, monomial_function(h, a, 3), monomial_function(h, b, 3))
            first = {m: c.coeffs[1] for m, c in product.terms.items() if c.coeffs[1]}
            want = psi_function(h, mu1.map.column((a, b)), 3)
            assert first == {m: c.coeffs[0] for m, c in want.terms.items()}, (a, b)
    assert differential(rb, 2, mu1).map.columns == {}
    rep = infinitesimal_selfdist(rb, mu1)
    assert rep.passed and rep.checked == triples
