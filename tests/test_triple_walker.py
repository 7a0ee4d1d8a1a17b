"""The one triple walker against the loops over triples it replaced.

``rack_bialg._walk`` reads every identity on basis triples per label pair,
as an equation of two operators in c.  The loops it replaced, one basis
triple at a time, are the oracles of ``oracles``.  A spy on the walker runs
the matching oracle on every call a certifier makes and asserts the same
outcome: the first failing identity, its triple, both sides with the types
of their coefficients, and the triples checked and skipped before it, or the
same refused read (needed degree, cap and product).  Each input is certified
on the evaluator the certifier chooses and again on coefficient dicts.  The
inputs are the single-entry replacements the censuses build: the set-built
structures of ``test_label_maps``, the capped U(lie2), U(sl2) and sq2
dialgebras and the Z2 dialgebra of ``test_right_hopf_dialg``, the rack of
the Z2 dialgebra, and the Steiner loop.  The replacements of K[S3 x E3] are
compared on label maps, and a seeded sample of them on coefficient dicts.

Then the guards: no function of ``rack_bialg`` or ``right_hopf_dialg`` but
the walker nests three loops over basis labels, and the set checks of
groups and racks find the first failing triple per pair of rows.
"""

import ast
import collections
import itertools
import pathlib
import random
from typing import Mapping

import pytest

import rackalg.rack_bialg as rack_bialg
import rackalg.right_hopf_dialg as right_hopf_dialg
from rackalg.env_hopf import enveloping_hopf
from rackalg.errors import AxiomViolation, DegreeCapExceeded, RackalgError
from rackalg.exact_core import FinMap, FinVec
from rackalg.fixtures import load
from rackalg.groups import FiniteGroup, cyclic_group, symmetric_group
from rackalg.rack_bialg import FiniteRack, check_rack, conjugation_rack
from rackalg.right_hopf_dialg import (
    HopfDialgebra,
    certify_dialgebra,
    hopf_as_dialgebra,
    hopf_dialgebra_rack,
    universal_dialgebra,
)

import test_label_maps
from oracles import (
    action_associativity_by_triples,
    associativity_by_triples,
    dialgebra_identities_by_triples,
    module_identities_by_triples,
    selfdist_by_triples,
)
from test_right_hopf_dialg import SHARED_FIXTURES, _record_and_copied, perturbation_census

SELECTING = (rack_bialg, right_hopf_dialg)

DIALGEBRA = ("associativity (|-)", "left products agree", "associativity (-|)",
             "right products agree", "inner associativity")
MODULE = ("module identity (|-)", "module identity (-|)", "module algebra (|-)",
          "module algebra (-|)")

# the oracle of each walk, by the names of its identities
ORACLES = {
    ("self-distributivity",): lambda ev, labels, legs, t, left: selfdist_by_triples(
        ev, labels, legs),
    ("associativity",): lambda ev, labels, legs, t, left: associativity_by_triples(
        ev, labels, t, "associativity"),
    ("associativity (|-)",): lambda ev, labels, legs, t, left: associativity_by_triples(
        ev, labels, t, "associativity (|-)"),
    DIALGEBRA: lambda ev, labels, legs, t, left: dialgebra_identities_by_triples(ev, labels, t),
    MODULE: lambda ev, labels, legs, t, left: module_identities_by_triples(ev, labels, legs, t),
    ("action associativity",): lambda ev, labels, legs, t, left: action_associativity_by_triples(
        ev, labels, t, left),
}


def _typed(v):
    """A side as comparable data: a label, or entries with their types."""
    if isinstance(v, Mapping):
        return {lab: (type(x), x) for lab, x in v.items()}
    return type(v), v


def _summary(result):
    """A walk outcome as comparable data."""
    if isinstance(result, DegreeCapExceeded):
        return "refused", result.needed, result.cap, str(result)
    failure, checked, skipped = result
    if failure is None:
        return None, checked, skipped
    name, triple, got, want = failure
    return name, triple, _typed(got), _typed(want), checked, skipped


def _run(f, *args):
    try:
        return f(*args)
    except DegreeCapExceeded as err:
        return err


@pytest.fixture
def compared(monkeypatch):
    """certify(check, obj): run ``check`` on ``obj`` as chosen and on
    coefficient dicts, every walk compared with its oracle; the counter of
    (evaluator, first failing identity or None) over the walks compared."""
    walk, select = rack_bialg._walk, rack_bialg._label_maps
    seen = collections.Counter()

    def spy(ev, identities, labels, legs=None, t=None, left=None):
        args = ev, labels, legs, t, left
        result = _run(walk, ev, identities, labels, legs, t, left)
        oracle = ORACLES[tuple(name for name, *_ in identities)]
        got = _summary(result)
        assert got == _summary(_run(oracle, *args)), got
        seen[type(ev).__name__, got[0]] += 1
        if isinstance(result, DegreeCapExceeded):
            raise result
        return result

    monkeypatch.setattr(rack_bialg, "_walk", spy)

    def certify(check, obj, paths=(False, True), raises=False):
        """The counter, or with ``raises`` the first path's failure raised."""
        failures = []
        for generic in paths:
            with monkeypatch.context() as m:
                for module in SELECTING:
                    m.setattr(module, "_label_maps", (lambda *args: None) if generic else select)
                try:
                    check(obj)
                except RackalgError as err:
                    failures.append(err)
        if raises and failures:
            raise failures[0]
        return seen

    return certify


def _assert_failures_on_both(seen):
    """Both evaluators walked, and on each some walk found a failing triple."""
    for evaluator in ("_OnLabels", "_OnDicts"):
        assert {name for ev, name in seen if ev == evaluator} - {None, "refused"}, seen


# the censuses whose replacements reach a triple identity: every replacement
# of K[Z3] and K[S3] as dialgebras fails at a label or pair identity first
WALKING_CENSUSES = ["Z2 augmented dialgebra", "augmented_conjugation(S3)",
                    "left K[Z2 x E2]", "left K[Z3]", "right K[Z2 x E2]", "right K[Z3]"]


@pytest.mark.parametrize("name", WALKING_CENSUSES)
def test_every_census_replacement_walks_as_its_oracle(compared, name):
    check, inputs = test_label_maps._census_inputs(name)
    inputs = list(inputs)
    for _, _, bad in inputs:
        seen = compared(check, bad)
    _assert_failures_on_both(seen)


@pytest.mark.parametrize("side", ["right", "left"])
def test_every_k_s3_x_e3_replacement_walks_as_its_oracle(compared, side):
    # on label maps every replacement; on coefficient dicts a seeded sample,
    # since each costs a walk and a loop over triples of up to 18^3 reads
    check, inputs = test_label_maps._census_inputs(f"{side} K[S3 x E3]")
    inputs = [bad for _, _, bad in inputs]
    for bad in inputs:
        compared(check, bad, paths=(False,))
    for bad in random.Random(side).sample(inputs, 150):
        seen = compared(check, bad, paths=(True,))
    assert seen["_OnLabels", "associativity"] == 5508
    assert seen["_OnDicts", "associativity"] > 100


def test_the_set_inputs_walk_as_their_oracles(compared):
    for name, build in sorted(test_label_maps.SET_INPUTS.items()):
        seen = compared(*build())
    # the Steiner loop fails associativity on both evaluators, through both
    # certifiers; the corrupt rack fails self-distributivity
    for evaluator in ("_OnLabels", "_OnDicts"):
        assert seen[evaluator, "associativity (|-)"] == 2
        assert seen[evaluator, "self-distributivity"] >= 1
        assert seen[evaluator, None] >= 1


@pytest.mark.parametrize("source,tables", [
    ("z2", ("vdash", "dashv", "antipode")), ("lie2", ("vdash", "dashv")),
    ("lie2", ("antipode",)), ("sq2", ("vdash", "dashv")), ("sq2", ("antipode",)),
])
def test_every_dialgebra_perturbation_walks_as_its_oracle(compared, source, tables):
    d = {"z2": test_label_maps._certified_z2_dialgebra,
         "lie2": lambda: hopf_as_dialgebra(enveloping_hopf(load("lie2"), 2)),
         "sq2": lambda: universal_dialgebra(load("sq2"), 2)}[source]()
    paths = (False, True) if source == "z2" else (False,)  # the chooser refuses a cap
    perturbation_census(d, tables, lambda bad: compared(certify_dialgebra, bad, paths, True),
                        stored=source != "z2")


@pytest.mark.parametrize("source", ["lie2", "sl2"])
def test_every_shared_table_perturbation_walks_as_its_oracle(compared, source):
    # the capped enveloping algebras, as a two-sided record and as a
    # dialgebra with two tables, over their stored keys
    d = hopf_as_dialgebra(SHARED_FIXTURES[source]())
    assert d.cap is not None
    for key in list(d.vdash):
        for target in d.basis.labels:
            v = FinVec.unit(d.basis, target)
            if d.vdash.get(key) == v:
                continue
            record, copied = _record_and_copied(d, {**d.vdash, key: v})
            compared(hopf_as_dialgebra, record, paths=(False,))
            seen = compared(certify_dialgebra, copied, paths=(False,))
    assert {ev for ev, _ in seen} == {"_OnDicts"}


def test_every_rack_of_the_z2_dialgebra_walks_as_its_oracle(compared):
    d = test_label_maps._certified_z2_dialgebra()
    for _, _, bad in test_label_maps._replacements(d, ("vdash", "dashv")):
        seen = compared(hopf_dialgebra_rack, bad)
    assert {name for _, name in seen} >= {None, "module identity (|-)", "module identity (-|)",
                                         "module algebra (|-)", "module algebra (-|)"}
    compared(hopf_dialgebra_rack, universal_dialgebra(load("sq2"), 2))


def test_a_refused_read_walks_as_its_oracle(compared):
    # U(abelian1) regraded so that (x x) x needs degree 4 > 3, as a dialgebra
    # with one shared table and with two
    d = hopf_as_dialgebra(enveloping_hopf(load("abelian1"), 3))
    degrees = {(1,): 1, (1, 1): 3, (1, 1, 1): 4}
    table = {k: v for k, v in d.vdash.items()
             if degrees.get(k[0], 0) + degrees.get(k[1], 0) <= 3}
    anti = FinMap(d.basis, d.basis, {lab: v for lab, v in d.antipode.columns.items()
                                     if degrees.get(lab, 0) <= 3})
    for dashv in (table, dict(table)):
        seen = compared(certify_dialgebra, HopfDialgebra(d.coalgebra, table, dashv, anti,
                                                         degrees, 3))
    assert seen["_OnDicts", "refused"] == 4


# ---------------------------------------------------------------------------
# the guard: one walker nests the loops over triples
# ---------------------------------------------------------------------------


def _label_loops(node) -> int:
    """How many loops over basis labels a ``for`` or a comprehension clause
    makes: one per label sequence it iterates (``labels``, ``labs``,
    ``x.labels``, ``elements``, ``left``, ``cs``, or ``enumerate`` of one),
    ``itertools.product`` of them one per factor, ``repeat`` times."""
    it = node.iter

    def labelish(e):
        if isinstance(e, ast.Call) and getattr(e.func, "id", None) == "enumerate":
            e = e.args[0]
        name = e.id if isinstance(e, ast.Name) else getattr(e, "attr", None)
        return isinstance(name, str) and (name.endswith("labels") or name in {
            "labs", "elements", "left", "cs"})

    if isinstance(it, ast.Call) and getattr(it.func, "attr", None) == "product":
        repeat = next((kw.value.value for kw in it.keywords if kw.arg == "repeat"), 1)
        return sum(labelish(a) for a in it.args) * repeat
    return int(labelish(it))


def label_loop_depth(node) -> int:
    """The deepest nesting of loops over basis labels in ``node``: a loop
    body, the later clauses of a comprehension and its element nest in the
    loops around them; nested functions count where they are defined."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        best = total = 0
        for gen in node.generators:
            best = max(best, total + label_loop_depth(gen.iter))
            total += _label_loops(gen)
            best = max([best, total] + [total + label_loop_depth(c) for c in gen.ifs])
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return max([best] + [total + label_loop_depth(e) for e in elts])
    if isinstance(node, ast.For):
        inner = max((label_loop_depth(s) for s in node.body), default=0)
        outer = max((label_loop_depth(s) for s in node.orelse), default=0)
        return max(label_loop_depth(node.iter), outer, _label_loops(node) + inner)
    return max((label_loop_depth(c) for c in ast.iter_child_nodes(node)), default=0)


# The braid relation is an identity of maps on the cube, read one cube label
# at a time and reported, not an equation of the walker's operator forms.
NESTING_ALLOWED = {"yang_baxter_check"}


@pytest.mark.parametrize("module", [rack_bialg, right_hopf_dialg])
def test_only_the_walker_nests_three_loops_over_labels(module):
    # the walker itself nests two, over the pairs; its third runs over c
    # inside the operators, and one at a time only in _first_triple
    path = pathlib.Path(module.__file__)
    tree = ast.parse(path.read_text(), str(path))
    depths = {fn.name: label_loop_depth(fn) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)}
    assert {name for name, n in depths.items() if n >= 3} - NESTING_ALLOWED == set()
    if module is rack_bialg:
        assert (depths["_walk"], depths["_first_triple"], depths["yang_baxter_check"]) == (2, 1, 3)


def test_the_nesting_guard_sees_triple_loops_in_every_shape():
    snippet = ("def a(labs):\n"
               " for x in labs:\n"
               "  for y in labs:\n"
               "   for i, z in enumerate(labs): pass\n"
               "def b(basis):\n"
               " for x, y, z in itertools.product(basis.labels, repeat=3): pass\n"
               "def c(rows, labels):\n"
               " for x in labels:\n"
               "  for y in rows[x]:\n"
               "   [z for z in labels for w in labels]\n"
               "def d(legs, labels):\n"
               " for x in labels:\n"
               "  for y in labels:\n"
               "   for a1, a2, w in legs[x]: pass\n")
    depths = {fn.name: label_loop_depth(fn) for fn in ast.parse(snippet).body}
    assert depths == {"a": 3, "b": 3, "c": 3, "d": 2}
    # the five loops the walker replaced nest three
    snippet = ("def certify_dialgebra(d):\n"
               " for la in labs:\n"
               "  for lb in labs:\n"
               "   for lc in labs: pass\n"
               "def certify_augmented(arb):\n"
               " for lu in hb.labels:\n"
               "  for lv in hb.labels:\n"
               "   for la, va in [(la, am[lv, la]) for la in cb.labels]: pass\n")
    assert [label_loop_depth(fn) for fn in ast.parse(snippet).body] == [3, 3]


# ---------------------------------------------------------------------------
# the set checks: per pair of rows, the witness of a loop over triples
# ---------------------------------------------------------------------------


def _first_non_associative(elements, table):
    for x, y, z in itertools.product(elements, repeat=3):
        lhs, rhs = table[table[x, y], z], table[x, table[y, z]]
        if lhs != rhs:
            return (x, y, z), lhs, rhs
    return None


def test_every_group_table_replacement_fails_associativity_at_the_first_triple():
    g = symmetric_group(3)
    failing = 0
    for x, y in itertools.product(g.elements, repeat=2):
        if g.unit in (x, y):
            continue
        for z in g.elements:
            if z == g.table[x, y]:
                continue
            table = {**g.table, (x, y): z}
            want = _first_non_associative(g.elements, table)
            try:
                FiniteGroup("S3'", g.elements, g.unit, table)
            except AxiomViolation as err:
                if err.axiom == "associativity":
                    failing += 1
                    assert (err.witness, err.lhs, err.rhs) == want
                continue
            assert want is None
    assert failing == 125


def _first_non_distributive(x):
    for a, b, c in itertools.product(x.elements, repeat=3):
        lhs, rhs = x.op[a, x.op[b, c]], x.op[x.op[a, b], x.op[a, c]]
        if lhs != rhs:
            return (a, b, c), lhs, rhs
    return None


@pytest.mark.parametrize("group", [symmetric_group(3), cyclic_group(4)])
def test_every_row_swap_of_a_conjugation_rack_fails_at_the_first_triple(group):
    # swapping two entries of a row keeps each left multiplication a bijection
    rack = conjugation_rack(group)
    outcomes = collections.Counter()
    for a in rack.elements:
        for b, c in itertools.combinations(rack.elements, 2):
            op = {**rack.op, (a, b): rack.op[a, c], (a, c): rack.op[a, b]}
            x = FiniteRack.build("X", rack.elements, rack.unit, op)
            want = _first_non_distributive(x)
            try:
                check_rack(x)
            except AxiomViolation as err:
                outcomes[err.axiom] += 1
                if err.axiom == "rack self-distributivity":
                    assert (err.witness, err.lhs, err.rhs) == want
                continue
            outcomes["passed"] += 1
            assert want is None
    assert outcomes["rack self-distributivity"] > 0


def test_set_likes_of_the_s3_dialgebra_rack_need_no_second_rack_check(monkeypatch):
    # certification already holds every rack law on the set-likes
    d = test_label_maps._certified_group_dialgebra(6)
    rb = hopf_dialgebra_rack(d)
    monkeypatch.setattr(rack_bialg, "check_rack", None)
    x = rack_bialg.set_likes(rb)
    assert len(x.elements) == 6
    check_rack(x)
