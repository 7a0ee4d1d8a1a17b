"""The set path of the certifiers and of the splittings.

``certify``, ``certify_augmented``, ``certify_dialgebra``, the Hopf record
certifier (``certify_one_sided``, ``hopf_as_dialgebra``),
``hopf_dialgebra_rack``, ``structure_decomposition`` and ``suschkewitsch``
read a linearised set structure (group-like labels, one-label tables and
maps, no cap) on label maps, and every other input on coefficient dicts;
``rack_bialg._label_maps`` is the one choice between the two.  The oracle
of the set path is the generic path, forced by answering None from that
choice: on every input both give the same report or decomposition, or the
same failure (type, identity, witness and both sides).
"""

import ast
import collections
import dataclasses
import itertools
import pathlib
from fractions import Fraction

import pytest

import rackalg.rack_bialg as rack_bialg
import rackalg.right_hopf_dialg as right_hopf_dialg
import rackalg.exact_core as exact_core
from rackalg.env_hopf import HopfAlgebra
from rackalg.errors import AxiomViolation, DecompositionFailure, RackalgError
from rackalg.exact_core import Basis, FinMap, FinVec, PairTable, tensor_basis
from rackalg.fixtures import load
from rackalg.groups import cyclic_group, group_hopf, symmetric_group
from rackalg.rack_bialg import (
    RackBialgebra,
    augmented_conjugation,
    certify,
    certify_augmented,
    rack_group_algebra,
)
from rackalg.right_hopf_dialg import (
    DialgebraDecomposition,
    HopfDialgebra,
    certify_dialgebra,
    certify_one_sided,
    dialgebra_from_augmented,
    from_group_hopf,
    hopf_as_dialgebra,
    hopf_dialgebra_rack,
    right_group_hopf,
    structure_decomposition,
    suschkewitsch,
    universal_dialgebra,
)
from rackalg.symcoalg import Coalgebra
import test_right_hopf_dialg
from test_right_hopf_dialg import (
    _steiner_loop_dialgebra,
    pair_columns,
    perturbation_census,
    table_with,
)

AV = "AxiomViolation"
SELECTING = (rack_bialg, right_hopf_dialg)


def _side(v):
    """A failure side as comparable data: basis and entries with their types."""
    if isinstance(v, FinVec):
        return v.basis, {lab: (type(x), x) for lab, x in v.entries.items()}
    return type(v), v


def _decomposition(out):
    """A splitting as comparable data: dimensions, vectors, Psi and report."""
    parts = (out.idempotent_part, out.hopf_part)
    psi = out.psi
    report = out.report if isinstance(out, DialgebraDecomposition) else None
    return (True, tuple(map(len, parts)), tuple(tuple(map(_side, vs)) for vs in parts),
            psi.domain, psi.codomain, {lab: _side(col) for lab, col in psi.columns.items()},
            report and (report.passed, report.checked, report.detail))


def _outcome(check, obj):
    """The report (``(True,)`` for a certifier without one), the splitting,
    or the failure."""
    try:
        out = check(obj)
    except AxiomViolation as err:
        return "AxiomViolation", err.axiom, err.witness, _side(err.lhs), _side(err.rhs)
    except DecompositionFailure as err:
        return "DecompositionFailure", err.identity, err.witness, _side(err.lhs), _side(err.rhs)
    except RackalgError as err:
        return type(err).__name__, str(err)
    if hasattr(out, "psi"):
        return _decomposition(out)
    report = getattr(out, "report", None)
    return (True,) if report is None else (report.passed, report.checked, report.detail)


@pytest.fixture
def both_paths(monkeypatch):
    """run(check, obj): the outcome as chosen, the outcome on the generic
    path, and what each call of the choice answered (True: label maps)."""
    select = rack_bialg._label_maps

    def run(check, obj):
        chosen = []

        def spy(*args):
            out = select(*args)
            chosen.append(out is not None)
            return out

        with monkeypatch.context() as m:
            for module in SELECTING:
                m.setattr(module, "_label_maps", spy)
            got = _outcome(check, obj)
        with monkeypatch.context() as m:
            for module in SELECTING:
                m.setattr(module, "_label_maps", lambda *args: None)
            generic = _outcome(check, obj)
        return got, generic, chosen

    return run


def _bare(d):
    return dataclasses.replace(d, certified=False, report=None)


def _group_dialgebra(n):
    return _bare(hopf_as_dialgebra(group_hopf(symmetric_group(3) if n == 6 else
                                              cyclic_group(n))))


def _augmented(n):
    return dataclasses.replace(
        augmented_conjugation(symmetric_group(3) if n == 6 else cyclic_group(n)),
        certified=False)


def _z2_dialgebra():
    return _bare(dialgebra_from_augmented(augmented_conjugation(cyclic_group(2))))


def _identity_antipode_z3():
    # K[Z3] with S = id, not x -> x^-1, acting trivially on itself: left
    # regularity holds whatever S is, and the adjoint h a S(h) = h a h is not
    # the trivial action, so both paths fail "augmentation intertwines adjoint"
    arb = _augmented(3)
    return dataclasses.replace(arb, hopf=dataclasses.replace(
        arb.hopf, antipode=FinMap.identity(arb.hopf.basis)))


def _steiner_loop_record():
    d = _steiner_loop_dialgebra()
    return HopfAlgebra(d.coalgebra, d.vdash_table, d.antipode)


SET_INPUTS = {
    "K[Z2]": lambda: (certify_dialgebra, _group_dialgebra(2)),
    "K[Z3]": lambda: (certify_dialgebra, _group_dialgebra(3)),
    "K[S3]": lambda: (certify_dialgebra, _group_dialgebra(6)),
    "Z2 augmented dialgebra": lambda: (certify_dialgebra, _z2_dialgebra()),
    "S3 augmented dialgebra": lambda: (certify_dialgebra, _bare(dialgebra_from_augmented(
        augmented_conjugation(symmetric_group(3))))),
    "augmented_conjugation(Z2)": lambda: (certify_augmented, _augmented(2)),
    "augmented_conjugation(S3)": lambda: (certify_augmented, _augmented(6)),
    "conj_s3": lambda: (rack_group_algebra, load("conj_s3")),
    "conj_z2": lambda: (rack_group_algebra, load("conj_z2")),
    "corrupt_rack_s3": lambda: (rack_group_algebra, load("corrupt_rack_s3")),
    "Steiner loop": lambda: (certify_dialgebra, _steiner_loop_dialgebra()),
    "Steiner loop record": lambda: (hopf_as_dialgebra, _steiner_loop_record()),
    "Z3 with an identity antipode map": lambda: (certify_augmented, _identity_antipode_z3()),
    "K[S3] record": lambda: (hopf_as_dialgebra, group_hopf(symmetric_group(3))),
    "right K[S3 x E3]": lambda: (certify_one_sided, dataclasses.replace(
        right_group_hopf(symmetric_group(3), "pqr", "p"), certified=False)),
    "left K[Z3]": lambda: (certify_one_sided, dataclasses.replace(
        group_hopf(cyclic_group(3)), side="left")),
}

SET_FAILURES = {"corrupt_rack_s3": "self-distributivity", "Steiner loop": "associativity (|-)",
                "Steiner loop record": "associativity (|-)",
                "Z3 with an identity antipode map": "augmentation intertwines adjoint"}


@pytest.mark.parametrize("name", sorted(SET_INPUTS))
def test_set_built_inputs_take_the_set_path_and_agree(both_paths, name):
    check, obj = SET_INPUTS[name]()
    got, generic, chosen = both_paths(check, obj)
    assert chosen[0] is True
    assert got == generic
    if name in SET_FAILURES:
        assert got[:2] == ("AxiomViolation", SET_FAILURES[name])
    else:
        assert got[0] is True


def _replacements(obj, tables):
    """(table, key, copy of ``obj``) for every replacement of one column of
    one of ``tables`` by a basis label other than its value: a dialgebra
    product or a record's table over every label pair, a map over its domain
    labels."""
    basis = obj.basis
    for table in tables:
        cols = getattr(obj, table)
        if isinstance(cols, FinMap):
            keys, current = cols.domain.labels, dict(cols.columns)
        elif isinstance(cols, PairTable):
            current = pair_columns(cols)
            keys = list(current)
        else:
            keys, current = list(itertools.product(basis.labels, repeat=2)), dict(cols)
        for key in keys:
            for target in basis.labels:
                v = FinVec.unit(basis, target)
                if current.get(key) == v:
                    continue
                changed = dict(current)
                changed[key] = v
                if isinstance(cols, FinMap):
                    changed = FinMap(cols.domain, cols.codomain, changed)
                elif isinstance(cols, PairTable):
                    changed = table_with(cols, changed)
                yield table, key, dataclasses.replace(obj, **{table: changed})


def _augmented_replacements(arb):
    """Every replacement of one column of ``mu`` or of ``action`` by a
    carrier label other than its value, as an uncertified structure."""
    basis = arb.carrier.basis
    for table, fmap in (("mu", arb.rack.mu), ("action", arb.action)):
        for key in fmap.domain.labels:
            for target in basis.labels:
                v = FinVec.unit(basis, target)
                if fmap.column(key) == v:
                    continue
                cols = dict(fmap.columns)
                cols[key] = v
                bad = FinMap(fmap.domain, fmap.codomain, cols)
                if table == "mu":
                    yield table, key, dataclasses.replace(
                        arb, rack=RackBialgebra(arb.carrier, bad), certified=False)
                else:
                    yield table, key, dataclasses.replace(arb, action=bad, certified=False)


# The identities each census reaches on the set path, and equally on the
# generic path: every single-entry label replacement fails, and fails there.
CENSUSES = {
    "K[Z3]": {
        "antipode antihomomorphism (-|)": 4, "antipode antihomomorphism (|-)": 4,
        "antipode convolution square (|-)": 2,
        "antipode flip identity (-|)": 2, "antipode flip identity (|-)": 2,
        "antipode unit absorption (-|)": 2, "antipode unit absorption (|-)": 2,
        "balanced": 4, "bar-unit left": 6, "bar-unit right": 6,
        "left antipode for -|": 2, "right antipode for |-": 6},
    "K[S3]": {
        "antipode antihomomorphism (-|)": 100, "antipode antihomomorphism (|-)": 100,
        "antipode convolution square (|-)": 5,
        "antipode flip identity (-|)": 5, "antipode flip identity (|-)": 5,
        "antipode unit absorption (-|)": 5, "antipode unit absorption (|-)": 5,
        "balanced": 40, "bar-unit left": 30, "bar-unit right": 30,
        "left antipode for -|": 20, "right antipode for |-": 45},
    "Z2 augmented dialgebra": {
        "antipode antihomomorphism (-|)": 12, "antipode antihomomorphism (|-)": 12,
        "antipode flip identity (-|)": 5, "antipode flip identity (|-)": 5,
        "associativity (-|)": 1, "balanced": 12, "bar-unit left": 12, "bar-unit right": 12,
        "inner associativity": 6, "left antipode for -|": 6, "left products agree": 7,
        "right antipode for |-": 18},
    "augmented_conjugation(S3)": {
        "action associativity": 125, "action fixes coaugmentation": 25, "action unit": 30,
        "induced product": 180},
    # the record certifier: each side of a record fails alike, and the Z2 and
    # Z3 counts are those of the one-sided censuses of test_right_hopf_dialg
    **{f"{side} K[Z2 x E2]": {"antipode unit": 3, "associativity": 48, "defining antipode": 9}
       for side in ("right", "left")},
    **{f"{side} K[S3 x E3]": {"antipode convolution square": 17, "antipode unit": 17,
                              "associativity": 5508, "defining antipode": 272}
       for side in ("right", "left")},
    **{f"{side} K[Z3]": {"antipode convolution square": 2, "antipode unit": 2,
                         "associativity": 18, "defining antipode": 2}
       for side in ("right", "left")},
}


# one-sided records, certified by the record certifier
RECORDS = {
    "right K[Z2 x E2]": lambda: right_group_hopf(cyclic_group(2), "pq", "p"),
    "left K[Z2 x E2]": lambda: right_group_hopf(cyclic_group(2), "pq", "p", side="left"),
    "right K[S3 x E3]": lambda: right_group_hopf(symmetric_group(3), "pqr", "p"),
    "left K[S3 x E3]": lambda: right_group_hopf(symmetric_group(3), "pqr", "p", side="left"),
    "right K[Z3]": lambda: from_group_hopf(group_hopf(cyclic_group(3)), "right"),
    "left K[Z3]": lambda: from_group_hopf(group_hopf(cyclic_group(3)), "left"),
}


def _census_inputs(name):
    if name in RECORDS:
        h = dataclasses.replace(RECORDS[name](), certified=False)
        return certify_one_sided, _replacements(h, ("table", "antipode"))
    if name == "augmented_conjugation(S3)":
        return certify_augmented, _augmented_replacements(_augmented(6))
    d = _group_dialgebra(3) if name == "K[Z3]" else (
        _group_dialgebra(6) if name == "K[S3]" else _z2_dialgebra())
    return certify_dialgebra, _replacements(d, ("vdash", "dashv", "antipode"))


@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_every_single_label_replacement_fails_alike_on_both_paths(both_paths, name):
    check, inputs = _census_inputs(name)
    fired = collections.Counter()
    for table, key, bad in inputs:
        got, generic, chosen = both_paths(check, bad)
        assert chosen[0] is True, (table, key)
        assert got == generic, (table, key)
        assert got[0] == "AxiomViolation", (table, key, got)
        fired[got[1]] += 1
    assert fired == CENSUSES[name]


# ---------------------------------------------------------------------------
# near misses: one condition of the choice fails, and the generic path runs
# ---------------------------------------------------------------------------


def _changed(cols, key, value, basis):
    """A copy of the columns ``cols`` with the column at ``key`` set to the
    coefficients ``value``, or removed for None."""
    out = dict(cols)
    if value is None:
        del out[key]
    else:
        out[key] = FinVec(basis, value)
    return out


def _changed_map(fmap, key, value):
    return FinMap(fmap.domain, fmap.codomain, _changed(fmap.columns, key, value, fmap.codomain))


def _dialgebra_with(value, key=("r1", "r1")):
    d = _group_dialgebra(3)
    return certify_dialgebra, dataclasses.replace(d, vdash=_changed(d.vdash, key, value, d.basis))


def _rack_with(value, key=("r1", "r1")):
    rb = rack_group_algebra(load("conj_z2"))
    return certify, RackBialgebra(rb.carrier, _changed_map(rb.mu, key, value))


def _action_with(value, key=("r1", "r1")):
    arb = _augmented(2)
    return certify_augmented, dataclasses.replace(arb, action=_changed_map(arb.action, key, value))


def _mixed_coalgebra():
    """Group-like e and g and a primitive x: delta(x) = x (x) e + e (x) x."""
    basis = Basis("K[Z2]+x", ("e", "g", "x"))
    square = tensor_basis(basis, basis)
    legs = {"e": {("e", "e"): 1}, "g": {("g", "g"): 1}, "x": {("x", "e"): 1, ("e", "x"): 1}}
    delta = FinMap.from_function(basis, square, lambda lab: FinVec(square, legs[lab]))
    return Coalgebra(basis, delta, {"e": 1, "g": 1}, FinVec(basis, {"e": 1}), square)


def _primitive_rack():
    # a |> b = b: one label everywhere, but x |> e = e is not eps(x) e = 0
    c = _mixed_coalgebra()
    return certify, RackBialgebra(c, FinMap.from_pairs(c.basis, c.basis, c.square, c.basis,
                                                       lambda la, lb: {lb: 1}))


def _primitive_dialgebra():
    # Z2 on e, g with x x = e and x acting as g: one label everywhere
    c = _mixed_coalgebra()
    basis = c.basis
    z2 = {"e": 0, "g": 1, "x": 1}
    table = {(a, b): FinVec.unit(basis, "eg"[(z2[a] + z2[b]) % 2])
             for a, b in itertools.product(basis.labels, repeat=2)}
    return certify_dialgebra, HopfDialgebra(c, table, table, FinMap.identity(basis), {})


def _capped_dialgebra():
    d = _group_dialgebra(3)
    return certify_dialgebra, dataclasses.replace(d, cap=0)


def _antipode_with(value):
    d = _group_dialgebra(3)
    return certify_dialgebra, dataclasses.replace(d, antipode=_changed_map(d.antipode, "r1", value))


def _phi_with(value):
    arb = _augmented(2)
    return certify_augmented, dataclasses.replace(arb, phi=_changed_map(arb.phi, "r1", value))


def _unit_with(value, check):
    if check is certify:
        rb = rack_group_algebra(load("conj_z2"))
        c = rb.carrier
        return certify, RackBialgebra(dataclasses.replace(c, unit=FinVec(c.basis, value)),
                                      rb.mu)
    d = _group_dialgebra(3)
    c = d.coalgebra
    return certify_dialgebra, dataclasses.replace(
        d, coalgebra=dataclasses.replace(c, unit=FinVec(c.basis, value)))


# The outcome each near miss gave before the set path existed: a report
# (passed, checked, detail), (True,) for a certifier without one, or the
# failure's type, identity and witness.
REPORT_Z3 = (True, 39, "labels skipped=0, pairs skipped=0, triples skipped=0")
NEAR_MISSES = {
    "coefficient 2 in |-": (lambda: _dialgebra_with({"r2": 2}),
                            (AV, "product counit (|-)", ("r1", "r1"))),
    "coefficient -1 in |-": (lambda: _dialgebra_with({"r2": -1}),
                             (AV, "product counit (|-)", ("r1", "r1"))),
    "two labels in |-": (lambda: _dialgebra_with({"r2": 1, "r0": 1}),
                         (AV, "product counit (|-)", ("r1", "r1"))),
    "absent pair in |-": (lambda: _dialgebra_with(None, ("r1", "r2")),
                          (AV, "right antipode for |-", "r1")),
    "coefficient 2 in mu": (lambda: _rack_with({"r1": 2}),
                            (AV, "counit multiplicativity", ("r1", "r1"))),
    "coefficient -1 in mu": (lambda: _rack_with({"r1": -1}),
                             (AV, "counit multiplicativity", ("r1", "r1"))),
    "two labels in mu": (lambda: _rack_with({"r1": 1, "r0": 1}),
                         (AV, "counit multiplicativity", ("r1", "r1"))),
    "absent pair in mu": (lambda: _rack_with(None),
                          (AV, "counit multiplicativity", ("r1", "r1"))),
    "coefficient 2 in the action": (lambda: _action_with({"r1": 2}),
                                    (AV, "action associativity", ("r1", "r1", "r1"))),
    "coefficient -1 in the action": (lambda: _action_with({"r1": -1}),
                                     (AV, "action counit", ("r1", "r1"))),
    "two labels in the action": (lambda: _action_with({"r1": 1, "r0": 1}),
                                 (AV, "action associativity", ("r1", "r1", "r1"))),
    "absent pair in the action": (lambda: _action_with(None),
                                  (AV, "action associativity", ("r1", "r1", "r1"))),
    "capped table": (_capped_dialgebra, REPORT_Z3),
    "primitive label, rack": (_primitive_rack, (AV, "unit absorption", "x")),
    "primitive label, dialgebra": (_primitive_dialgebra, (AV, "bar-unit left", "x")),
    "antipode of two labels": (lambda: _antipode_with({"r2": 1, "r0": 1}),
                               (AV, "antipode comultiplicativity", "r1")),
    "antipode with coefficient 2": (lambda: _antipode_with({"r2": 2}),
                                    (AV, "antipode comultiplicativity", "r1")),
    "phi of two labels": (lambda: _phi_with({"r1": 1, "r0": 1}),
                          (AV, "augmentation comultiplicativity", "r1")),
    "two-term unit, rack": (lambda: _unit_with({"r0": 1, "r1": 0}, certify), (True,)),
    "two-term unit, dialgebra": (lambda: _unit_with({"r0": 1, "r1": 0}, certify_dialgebra),
                                 REPORT_Z3),
    "two-label unit": (lambda: _unit_with({"r0": 1, "r1": 1}, certify_dialgebra),
                       (AV, "counit of unit", "1")),
}


def _summary(out):
    return out[:3] if out[0] in (AV, "DecompositionFailure") else out


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_misses_take_the_generic_path(both_paths, name):
    build, before = NEAR_MISSES[name]
    got, generic, chosen = both_paths(*build())
    assert True not in chosen
    assert got == generic
    assert _summary(got) == before


def test_every_two_entry_label_replacement_of_the_z2_dialgebra_fails_alike(both_paths):
    # two replaced product entries reach identities that no single one does,
    # among them "associativity (|-)" and "double antipode (|-)" on two tables
    d = _z2_dialgebra()
    singles = [(table, key, getattr(bad, table)[key])
               for table, key, bad in _replacements(d, ("vdash", "dashv"))]
    fired = collections.Counter()
    for (t1, k1, v1), (t2, k2, v2) in itertools.combinations(singles, 2):
        if (t1, k1) == (t2, k2):
            continue
        tables = {"vdash": dict(d.vdash), "dashv": dict(d.dashv)}
        tables[t1][k1] = v1
        tables[t2][k2] = v2
        got, generic, chosen = both_paths(certify_dialgebra, dataclasses.replace(d, **tables))
        assert chosen[0] is True and got == generic, (k1, k2)
        fired[got[1] if got[0] == AV else got[0]] += 1
    assert fired == {
        "antipode antihomomorphism (-|)": 276, "antipode antihomomorphism (|-)": 300,
        "antipode flip identity (-|)": 221, "antipode flip identity (|-)": 261,
        "associativity (-|)": 16, "associativity (|-)": 2, "balanced": 846,
        "bar-unit left": 870, "bar-unit right": 834, "double antipode (|-)": 6,
        "inner associativity": 12, "left antipode for -|": 363, "left products agree": 61,
        "right antipode for |-": 396}


# ---------------------------------------------------------------------------
# the splittings: structure_decomposition, suschkewitsch and the rack of a
# dialgebra on label maps
# ---------------------------------------------------------------------------


def _certified_group_dialgebra(n):
    return hopf_as_dialgebra(group_hopf(symmetric_group(3) if n == 6 else cyclic_group(n)))


def _certified_z2_dialgebra():
    return dialgebra_from_augmented(augmented_conjugation(cyclic_group(2)))


def _left_algebra(d):
    """(A, -|, S) of a dialgebra as a certified left Hopf algebra."""
    return certify_one_sided(HopfAlgebra(d.coalgebra, d.dashv_table, d.antipode, "left"))


SPLIT_INPUTS = {
    "K[Z2]": lambda: (structure_decomposition, _certified_group_dialgebra(2)),
    "K[Z3]": lambda: (structure_decomposition, _certified_group_dialgebra(3)),
    "K[S3]": lambda: (structure_decomposition, _certified_group_dialgebra(6)),
    "Z2 augmented dialgebra": lambda: (structure_decomposition, _certified_z2_dialgebra()),
    "S3 augmented dialgebra": lambda: (structure_decomposition, dialgebra_from_augmented(
        augmented_conjugation(symmetric_group(3)))),
    "right K[Z2 x E2]": lambda: (suschkewitsch, right_group_hopf(cyclic_group(2), "pq", "p")),
    "left K[Z2 x E2]": lambda: (suschkewitsch, right_group_hopf(cyclic_group(2), "pq", "p",
                                                                side="left")),
    "right K[S3 x E3]": lambda: (suschkewitsch, right_group_hopf(symmetric_group(3), "pqr", "p")),
    "left K[S3 x E2]": lambda: (suschkewitsch, right_group_hopf(symmetric_group(3), "pq", "p",
                                                                side="left")),
    "right K[S3 x E1]": lambda: (suschkewitsch, right_group_hopf(symmetric_group(3), "p", "p")),
    "left algebra of K[S3]": lambda: (suschkewitsch, _left_algebra(_certified_group_dialgebra(6))),
    "left algebra of the Z2 dialgebra": lambda: (suschkewitsch,
                                                 _left_algebra(_certified_z2_dialgebra())),
    "rack of K[S3]": lambda: (hopf_dialgebra_rack, _certified_group_dialgebra(6)),
    "rack of the Z2 dialgebra": lambda: (hopf_dialgebra_rack, _certified_z2_dialgebra()),
    "rack of the S3 dialgebra": lambda: (hopf_dialgebra_rack, dialgebra_from_augmented(
        augmented_conjugation(symmetric_group(3)))),
}

# (dim E, dim H) and the report's checked count of each decomposition
SPLIT_SIZES = {"K[Z2]": ((1, 2), 22), "K[Z3]": ((1, 3), 42), "K[S3]": ((1, 6), 138),
               "Z2 augmented dialgebra": ((2, 2), 60),
               "S3 augmented dialgebra": ((6, 6), 2988)}


@pytest.mark.parametrize("name", sorted(SPLIT_INPUTS))
def test_set_built_splittings_take_the_set_path_and_agree(both_paths, name):
    check, obj = SPLIT_INPUTS[name]()
    got, generic, chosen = both_paths(check, obj)
    assert chosen[-1] is True
    assert got == generic
    assert got[0] is True
    if name in SPLIT_SIZES:
        assert (got[1], got[-1][1]) == SPLIT_SIZES[name]


def _split_census(both_paths, check, obj, tables):
    fired = collections.Counter()
    for table, key, bad in _replacements(obj, tables):
        got, generic, chosen = both_paths(check, bad)
        assert chosen[-1] is True, (table, key)
        assert got == generic, (table, key)
        fired[got[1] if got[0] in (AV, "DecompositionFailure") else "passed"] += 1
    return fired


# The identities every single-entry label replacement of a certified
# structure reaches, on both paths; "passed" counts the ones that split.
SPLIT_CENSUSES = {
    ("decomposition", "z2"): (
        lambda: (structure_decomposition, _certified_z2_dialgebra(),
                 ("vdash", "dashv", "antipode")),
        {"generalized bar-unit (-|)": 15, "generalized bar-unit (|-)": 24,
         "generalized idempotent (-|)": 8, "hopf part antipode closure": 1,
         "hopf part closure": 2, "hopf part products agree": 6, "hopf part projector": 4,
         "idempotent antipode": 3, "idempotent projector": 12, "projection merges products": 12,
         "projection multiplicative": 9, "psi antipode": 1, "psi left inverse": 2,
         "psi multiplicative (-|)": 3, "psi multiplicative (|-)": 6}),
    ("decomposition", "z3"): (
        lambda: (structure_decomposition, _certified_group_dialgebra(3),
                 ("vdash", "dashv", "antipode")),
        {"generalized bar-unit (-|)": 4, "generalized bar-unit (|-)": 6,
         "generalized idempotent (-|)": 4, "hopf part antipode closure": 4,
         "hopf part products agree": 16, "idempotent projector": 8}),
    ("suschkewitsch", "right z2"): (
        lambda: (suschkewitsch, right_group_hopf(cyclic_group(2), "pq", "p"), ("table", "antipode")),
        {"generalized idempotent": 8, "generalized unit": 15, "hopf part antipode closure": 1,
         "hopf part closure": 2, "hopf part projector": 4, "idempotent antipode": 3,
         "idempotent projector": 12, "projection multiplicative": 9, "psi antipode": 1,
         "psi left inverse": 2, "psi multiplicative": 3}),
    ("suschkewitsch", "left z2"): (
        lambda: (suschkewitsch, right_group_hopf(cyclic_group(2), "pq", "p", side="left"),
                 ("table", "antipode")),
        {"generalized idempotent": 8, "generalized unit": 15, "hopf part antipode closure": 1,
         "hopf part closure": 2, "hopf part projector": 4, "idempotent antipode": 3,
         "idempotent projector": 12, "projection multiplicative": 9, "psi antipode": 1,
         "psi left inverse": 2, "psi multiplicative": 3}),
    # the rack certifies on a copy still marked certified, so some replacements pass
    ("rack", "z2"): (
        lambda: (hopf_dialgebra_rack, _certified_z2_dialgebra(), ("vdash", "dashv")),
        {"left unit": 18, "module algebra (-|)": 5, "module algebra (|-)": 1,
         "module identity (-|)": 29, "module identity (|-)": 1, "passed": 24,
         "unit absorption": 12, "unit square": 6}),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CENSUSES))
def test_every_single_label_replacement_splits_alike_on_both_paths(both_paths, name):
    build, census = SPLIT_CENSUSES[name]
    assert _split_census(both_paths, *build()) == census


def test_every_two_entry_label_replacement_of_the_z2_dialgebra_splits_alike(both_paths):
    # "associativity ideal" is never reached on label maps: the identities
    # before it imply it there (see structure_decomposition)
    d = _certified_z2_dialgebra()
    singles = [(table, key, getattr(bad, table)[key])
               for table, key, bad in _replacements(d, ("vdash", "dashv"))]
    fired = collections.Counter()
    for (t1, k1, v1), (t2, k2, v2) in itertools.combinations(singles, 2):
        if (t1, k1) == (t2, k2):
            continue
        tables = {"vdash": dict(d.vdash), "dashv": dict(d.dashv)}
        tables[t1][k1] = v1
        tables[t2][k2] = v2
        got, generic, chosen = both_paths(structure_decomposition,
                                          dataclasses.replace(d, **tables))
        assert chosen == [True] and got == generic, (k1, k2)
        fired[got[1]] += 1
    assert fired == {
        "generalized bar-unit (-|)": 1143, "generalized bar-unit (|-)": 828,
        "generalized idempotent (-|)": 310, "hopf part antipode closure": 2,
        "hopf part closure": 124, "hopf part products agree": 117, "hopf part projector": 255,
        "idempotent antipode": 84, "idempotent projector": 714, "projection merges products": 120,
        "projection multiplicative": 501, "psi left inverse": 104, "psi multiplicative (-|)": 147,
        "psi multiplicative (|-)": 15}


DECOMPOSITION_SOURCES = {"z2": _certified_z2_dialgebra,
                         "z3": lambda: _certified_group_dialgebra(3),
                         "sq2": lambda: universal_dialgebra(load("sq2"), 2)}


AUGMENTED = test_right_hopf_dialg.TestAugmentedDialgebra


def _parametrized(test):
    """The argument values of the parametrize mark of ``test``."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


@pytest.mark.parametrize(
    "case", _parametrized(AUGMENTED.test_perturbed_entry_fails_decomposition))
def test_pinned_decomposition_perturbations_agree_on_both_paths(both_paths, case):
    # a one-label replacement of a group-like dialgebra takes the set path; an
    # emptied entry and the capped universal dialgebra of sq2 do not
    source, table, key, value, identity, witness = case
    d = DECOMPOSITION_SOURCES[source]()
    changed = dict(getattr(d, table))
    changed[key] = FinVec.build(d.basis, {lab: Fraction(c) for lab, c in value.items()})
    got, generic, chosen = both_paths(structure_decomposition,
                                      dataclasses.replace(d, **{table: changed}))
    assert got == generic
    assert got[:3] == ("DecompositionFailure", identity, witness)
    assert chosen == [source != "sq2" and len(value) == 1]


@pytest.mark.parametrize("source,table,census", _parametrized(
    AUGMENTED.test_every_single_entry_perturbation_fails_decomposition))
def test_census_perturbations_take_the_set_path_on_label_maps(monkeypatch, source, table,
                                                              census):
    d = DECOMPOSITION_SOURCES[source]()
    chosen = []
    select = rack_bialg._label_maps
    monkeypatch.setattr(right_hopf_dialg, "_label_maps",
                        lambda *args: chosen.append(select(*args) is not None) or select(*args))
    fired = perturbation_census(d, (table,), structure_decomposition, certified=True,
                                stored=source == "sq2")
    assert fired == census
    assert chosen == [source != "sq2"] * sum(census.values())


def _decomposition_with(table, value):
    d = _certified_group_dialgebra(3)
    if table == "antipode":
        return structure_decomposition, dataclasses.replace(
            d, antipode=_changed_map(d.antipode, "r1", value))
    return structure_decomposition, dataclasses.replace(
        d, **{table: _changed(getattr(d, table), ("r1", "r1"), value, d.basis)})


def _splitting_with(table, key, value):
    h = right_group_hopf(cyclic_group(2), "pq", "p")
    if table == "table":
        changed = table_with(h.table, _changed(pair_columns(h.table), key, value, h.basis))
    else:
        changed = _changed_map(h.antipode, key, value)
    return suschkewitsch, dataclasses.replace(h, **{table: changed})


# The outcome each near miss gave before the set path of the splitting existed.
DF = "DecompositionFailure"
SPLIT_NEAR_MISSES = {
    "coefficient 2 in |-": (lambda: _decomposition_with("vdash", {"r2": 2}),
                            (DF, "hopf part products agree", (1, 1))),
    "two labels in |-": (lambda: _decomposition_with("vdash", {"r2": 1, "r0": 1}),
                         (DF, "hopf part products agree", (1, 1))),
    "coefficient 2 in -|": (lambda: _decomposition_with("dashv", {"r2": 2}),
                            (DF, "hopf part products agree", (1, 1))),
    "two labels in -|": (lambda: _decomposition_with("dashv", {"r2": 1, "r0": 1}),
                         (DF, "hopf part products agree", (1, 1))),
    "antipode of two labels": (lambda: _decomposition_with("antipode", {"r2": 1, "r0": 1}),
                               (DF, "idempotent projector", "r1")),
    "antipode with coefficient 2": (lambda: _decomposition_with("antipode", {"r2": 2}),
                                    (DF, "psi left inverse", "r1")),
    "coefficient 2 in a one-sided product": (
        lambda: _splitting_with("table", (("r1", "p"), ("r1", "q")), {("r1", "q"): 2}),
        (DF, "idempotent projector", ("r1", "q"))),
    "one-sided antipode of two labels": (
        lambda: _splitting_with("antipode", ("r1", "q"), {("r1", "p"): 1, ("r0", "p"): 1}),
        (DF, "idempotent projector", ("r1", "q"))),
}


@pytest.mark.parametrize("name", sorted(SPLIT_NEAR_MISSES))
def test_near_miss_splittings_take_the_generic_path(both_paths, name):
    build, before = SPLIT_NEAR_MISSES[name]
    got, generic, chosen = both_paths(*build())
    assert True not in chosen
    assert got == generic
    assert _summary(got) == before


def test_the_set_path_splits_k_s3_without_table_reads(monkeypatch):
    d = _certified_group_dialgebra(6)
    read = exact_core._read
    calls = []
    monkeypatch.setattr(exact_core, "_read", lambda *args: calls.append(1) or read(*args))
    dec = structure_decomposition(d)
    assert dec.report.checked == 138
    assert calls == []


# ---------------------------------------------------------------------------
# the guard: every certifier entry asks the one choice
# ---------------------------------------------------------------------------


# public entry -> the function that checks for it
ENTRIES = {
    rack_bialg: {"certify": "_check_product", "certify_augmented": "certify_augmented"},
    right_hopf_dialg: {"certify_dialgebra": "certify_dialgebra",
                       "certify_one_sided": "_check_hopf", "hopf_as_dialgebra": "_check_hopf",
                       "suschkewitsch": "_split", "structure_decomposition": "_split"},
}


def _calls(tree):
    """The names each top-level function of ``tree`` calls, nested code included."""
    return {fn.name: {n.func.id for n in ast.walk(fn)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def _unconsulted(tree, entries):
    """The checking functions of ``entries`` that neither call ``_label_maps``
    nor are called only from functions that do and pass its answer on (as
    ``_split`` is), and the entries that do not call their checking function."""
    calls = _calls(tree)
    out = set()
    for entry, checker in entries.items():
        if checker not in calls[entry] | {entry}:
            out.add(entry)
        callers = [f for f, names in calls.items() if checker in names]
        if "_label_maps" not in calls[checker] and not (
                callers and all("_label_maps" in calls[f] for f in callers)):
            out.add(checker)
    return out


def test_every_certifier_entry_consults_the_label_map_choice():
    # a set-built structure can then never take only the generic path unasked
    for module, entries in ENTRIES.items():
        path = pathlib.Path(module.__file__)
        assert _unconsulted(ast.parse(path.read_text(), str(path)), entries) == set()
    snippet = ("def certify(x): return _check(x)\n"
               "def _check(x): return x\n"
               "def split_a(x): return _split(x, _label_maps(x))\n"
               "def split_b(x): return _split(x, None)\n"
               "def _split(x, sets): return sets\n"
               "def other(x): return x\n")
    assert _unconsulted(ast.parse(snippet), {"certify": "_check", "split_a": "_split",
                                            "other": "_check"}) == {"_check", "_split", "other"}
