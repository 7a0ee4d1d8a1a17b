"""Self-distributivity read per label pair against the triple-by-triple oracle.

``rack_bialg._first_selfdist_failure`` compares L_a o L_b with
sum L_(a1 |> b) o L_(a2) on every c at once.  The oracle reads one basis
triple at a time (``oracles.first_selfdist_failure_by_triples``).  Both
give the same first triple, the same two sides (with the types of their
coefficients) and the same count of triples that held before it: on
coefficient dicts for every single-entry change of three small products and
a seeded sample of changes of two 10-dim ones, on label maps for every
single-label replacement of the S3 conjugation rack, and on the dual-number
tables of ``infinitesimal_selfdist``.  The changes fail at more than one
position of c within a pair, and basis cochains of C^2, perturbed ones and
coboundaries cover both outcomes of the dual-number check.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rackalg.deformation import _Faces, deformation_complex, differential, infinitesimal_selfdist
from rackalg.env_hopf import enveloping_hopf
from rackalg.exact_core import FinMap, FinVec
from rackalg.fixtures import load
from rackalg.groups import symmetric_group
from rackalg.rack_bialg import (
    _OnDicts,
    _OnLabels,
    _first_selfdist_failure,
    _label_maps,
    conjugation_rack,
    hopf_adjoint,
    rack_group_algebra,
    uar_infinity,
    ur,
)

from oracles import first_selfdist_failure_by_triples, table_of

CHANGES = (1, -1, Fraction(1, 2))


def _typed(v):
    """A side as comparable data: a label, or entries with their types."""
    if isinstance(v, dict):
        return {lab: (type(x), x) for lab, x in v.items()}
    return type(v), v


def _agree(ev, c):
    got = _first_selfdist_failure(ev, c)
    want = first_selfdist_failure_by_triples(ev, c)
    assert (got[0], _typed(got[1]), _typed(got[2]), got[3]) == \
        (want[0], _typed(want[1]), _typed(want[2]), want[3])
    return got


def _changed(rb, la, lb, lab, delta):
    """The table of ``rb`` with delta added to the lab-coefficient of la |> lb."""
    basis, t = rb.basis, rb.table

    def entry(x, y):
        v = FinVec(basis, t.entry(x, y))
        return v + FinVec.unit(basis, lab).scale(delta) if (x, y) == (la, lb) else v

    return table_of(basis, entry, basis.labels)


def _changes(rb):
    labels = rb.basis.labels
    return list(itertools.product(labels, labels, labels, CHANGES))


CARRIERS = {
    "ur(sl2)": lambda: ur(load("sl2")),
    "UAR(sq2,1)": lambda: uar_infinity(load("sq2"), 1).rack,
    "UAR(heis3,1)": lambda: uar_infinity(load("heis3"), 1).rack,
}


def _positions(rb, changes):
    """The positions of c, within its pair, of the first failing triples of
    ``changes``, the product of ``rb`` itself holding."""
    assert _agree(_OnDicts(((rb.table, rb.basis),), ()), rb.carrier)[0] is None
    positions = set()
    for change in changes:
        triple, _, _, checked = _agree(_OnDicts(((_changed(rb, *change), rb.basis),), ()),
                                       rb.carrier)
        if triple is not None:
            positions.add(checked % rb.basis.dim)
    return positions


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_every_single_entry_change_fails_alike_per_pair_and_per_triple(name):
    rb = CARRIERS[name]()
    assert len(_positions(rb, _changes(rb))) > 1


SAMPLED = {
    "Ad(U(heis3))<=2": lambda: hopf_adjoint(enveloping_hopf(load("heis3"), 3)),
    # legs with coefficient 2 on a carrier where the legs x (x) x act
    "UAR(sl2,2)": lambda: uar_infinity(load("sl2"), 2).rack,
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_a_seeded_sample_of_changes_of_a_10_dim_carrier_fails_alike(name):
    rb = SAMPLED[name]()
    assert rb.basis.dim == 10
    assert len(_positions(rb, random.Random(29).sample(_changes(rb), 400))) > 1


def test_every_single_label_replacement_of_the_s3_conjugation_rack_fails_alike():
    rb = rack_group_algebra(conjugation_rack(symmetric_group(3)))
    c, labels = rb.carrier, rb.basis.labels
    sets = _label_maps((c,), ((rb.table, rb.basis),), ())
    assert sets is not None
    (m,), maps = sets
    assert _agree(_OnLabels([m], maps), c)[0] is None
    positions = set()
    for key in itertools.product(labels, labels):
        for lab in labels:
            if lab != m[key]:
                triple, _, _, checked = _agree(_OnLabels([{**m, key: lab}], maps), c)
                if triple is not None:
                    positions.add(checked % len(labels))
    assert len(positions) > 1


@pytest.mark.parametrize("name", ["sq2", "lie2"])
def test_infinitesimal_selfdist_fails_alike_on_basis_and_perturbed_cochains(name):
    rb = ur(load(name))
    faces, basis = _Faces(rb), rb.basis
    cx = deformation_complex(rb, 2)
    cochains = [f.map for f in cx.spaces[1]]
    square = cochains[0].domain
    rng = random.Random(name)
    perturbed = []
    for omega in cochains:
        pair, lab = rng.choice(square.labels), rng.choice(basis.labels)
        columns = dict(omega.columns)
        columns[pair] = columns.get(pair, FinVec.zero(basis)) + FinVec.unit(basis, lab)
        perturbed.append(FinMap(square, basis, columns))
    coboundaries = [differential(rb, 1, f).map for f in cx.spaces[0]]
    outcomes = set()
    for omega in cochains + perturbed + coboundaries:
        triple, _, _, checked = _agree(_OnDicts(((faces.deformed(omega), basis),), ()),
                                       rb.carrier)
        rep = infinitesimal_selfdist(rb, omega)
        assert (rep.passed, rep.witness or None, rep.checked) == (triple is None, triple, checked)
        outcomes.add(rep.passed)
    assert outcomes == {True, False}
