"""The one table type of every bilinear product (``exact_core.PairTable``).

Each structure reads its product from a table built from its own public
field: a field swapped by ``dataclasses.replace`` reaches the certifier and
fails with the same identity and witness as when the product was read through
a label-pair callable.  A table refuses inexact coefficients and stray keys,
and a capped table refuses exactly the pairs whose degrees sum beyond the cap.
Also here: the label formula of tensor bases, the one check of truncation
degrees and caps, and a guard that keeps reader calls out of per-term loops.
"""

import ast
import dataclasses
import itertools
import pathlib
from fractions import Fraction

import pytest

from oracles import table_of, tensor_basis_labels
from rackalg import exact_core, rack_bialg, right_hopf_dialg, symcoalg
from rackalg.deformation import deformation_complex, verify_complex
from rackalg.env_hopf import HopfAlgebra, enveloping_hopf
from rackalg.errors import AxiomViolation, DegreeCapExceeded, LeibnizViolation, SchemaError
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    PairTable,
    SeriesScalar,
    bilinear,
    label_times,
    tensor_basis,
    times_label,
)
from rackalg.fixtures import load
from rackalg.groups import cyclic_group, group_hopf, symmetric_group
from rackalg.leibniz import LeibnizAlgebra
from rackalg.rack_bialg import (
    RackBialgebra,
    augmented_from_action,
    certify,
    certify_augmented,
    conjugation_rack,
    hopf_adjoint,
    rack_group_algebra,
    uar_infinity,
    ur,
)
from rackalg.right_hopf_dialg import (
    certify_dialgebra,
    certify_one_sided,
    hopf_as_dialgebra,
    hopf_dialgebra_rack,
    universal_dialgebra,
)
from rackalg.symcoalg import check_multiplicative, symmetric_coalgebra

F = Fraction


# ---------------------------------------------------------------------------
# tensor bases
# ---------------------------------------------------------------------------


def test_tensor_basis_labels_match_the_part_formula():
    atom = Basis("A", ("x", "y", "z"))
    other = Basis("B", (1, 2))
    sym = symmetric_coalgebra(Basis("V", ("p", "q")), 2).basis
    pairs = tensor_basis(atom, other)
    cases = [(atom,), (atom, atom), (atom, other, atom), (sym, sym),
             (pairs,), (pairs, pairs), (pairs, atom), (atom, pairs, other), (sym, pairs)]
    for bases in cases:
        got = tensor_basis(*bases)
        assert got.labels == tensor_basis_labels(*bases), [b.name for b in bases]
        assert got.factors == sum((b.factors or (b,) for b in bases), ())


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def test_a_table_holds_each_column_as_a_row_and_as_a_column():
    b = Basis("V", ("x", "y"))
    t = table_of(b, lambda p, q: FinVec.unit(b, p) if p == "x" else FinVec.zero(b), b.labels)
    assert t.rows == {"x": {"x": {"x": 1}, "y": {"x": 1}}}
    assert t.cols == {"x": {"x": {"x": 1}}, "y": {"x": {"x": 1}}}
    assert t.rows["x"]["y"] is t.cols["y"]["x"]
    op = t.opposite()
    assert (op.rows, op.cols) == (t.cols, t.rows)
    assert dict(op.entry("y", "x")) == {"x": 1} and dict(op.entry("x", "y")) == {}
    u = FinVec.build(b, {"x": F(1, 2), "y": 3})
    assert bilinear(op, u, u) == bilinear(t, u, u)  # u u is read the same in both orders
    assert times_label(t, u.entries, "y") == label_times(op, "y", u.entries) == {"x": F(1, 2)}


def test_a_table_refuses_inexact_coefficients_and_stray_labels():
    b = Basis("V", ("x", "y"))
    for bad in (1.0, True, F(1, 2) + 0.5):
        with pytest.raises(SchemaError):
            PairTable.build(b, [("x", "y", FinVec(b, {"x": bad}))])
    with pytest.raises(SchemaError):
        PairTable.build(b, [("x", "y", FinVec(b, {"z": 1}))])
    with pytest.raises(SchemaError):
        PairTable.build(b, [("x", "z", FinVec.unit(b, "x"))], b, b)
    with pytest.raises(ValueError):  # a column from another space with the same labels
        PairTable.build(b, [("x", "y", FinVec.unit(Basis("W", ("x", "y")), "x"))])
    sq = tensor_basis(b, b)
    with pytest.raises(SchemaError):
        PairTable.from_map(FinMap(sq, b, {("x", "z"): FinVec.unit(b, "x")}), b, b)
    with pytest.raises(SchemaError):
        PairTable.from_map(FinMap(b, b, {}), b, b)


def test_a_zero_term_leaves_a_sum_as_it_was():
    # hbar * hbar is zero in Q[hbar]/hbar^2: adding it must not turn the int 1 into a series
    b = Basis("V", ("x",))
    hbar = SeriesScalar.hbar(2)
    t = table_of(b, lambda p, q: FinVec(b, {"x": hbar}), b.labels)
    for read in (lambda acc: label_times(t, "x", {"x": hbar}, acc),
                 lambda acc: times_label(t, {"x": hbar}, "x", acc)):
        acc = read({"x": 1})
        assert acc == {"x": 1} and type(acc["x"]) is int


def test_the_multiplicativity_check_refuses_a_leg_pair_beyond_the_cap():
    # the unit has degree 1 here, so (x, 1) fits the cap while its leg pair (1, 1) does not
    c = symmetric_coalgebra(Basis("V", ("x",)), 1)
    t = table_of(c.basis, lambda p, q: FinVec.unit(c.basis, q) if not p else FinVec.zero(c.basis),
                 c.basis.labels, degrees={(): 1}, cap=1)
    with pytest.raises(DegreeCapExceeded) as exc:
        check_multiplicative(c, t, [(("x",), ())], "coproduct", "counit")
    assert (exc.value.needed, exc.value.cap) == (2, 1)


def _float_rack():
    rb = rack_group_algebra(conjugation_rack(cyclic_group(2)))
    cols = {key: FinVec(rb.basis, {lab: 1.0 for lab in col.entries})
            for key, col in rb.mu.columns.items()}
    return RackBialgebra(rb.carrier, FinMap(rb.mu.domain, rb.mu.codomain, cols))


def _stray_rack():
    rb = ur(load("sq2"))
    cols = dict(rb.mu.columns)
    cols[((1,), (3,))] = FinVec.unit(rb.basis, (1,))
    return dataclasses.replace(rb, certified=False, mu=FinMap(rb.mu.domain, rb.mu.codomain, cols))


def _float_action():
    arb = uar_infinity(load("sq2"), 1)
    cols = {key: FinVec(col.basis, {lab: float(c) for lab, c in col.entries.items()})
            for key, col in arb.action.columns.items()}
    return arb, FinMap(arb.action.domain, arb.action.codomain, cols)


def _float_dialgebra():
    d = hopf_as_dialgebra(group_hopf(cyclic_group(3)))
    vdash = {key: FinVec(v.basis, {lab: float(c) for lab, c in v.entries.items()})
             for key, v in d.vdash.items()}
    return dataclasses.replace(d, certified=False, report=None, vdash=vdash)


def _float_one_sided():
    kg = group_hopf(cyclic_group(2))
    cols = {(a, b): kg.table.vector(a, b) for a in kg.basis.labels for b in kg.basis.labels}
    cols[("r1", "r1")] = FinVec(kg.basis, {"r0": 1.0})
    table = PairTable.build(kg.basis, ((a, b, v) for (a, b), v in cols.items()))
    return HopfAlgebra(kg.coalgebra, table, kg.antipode, "right")


def _float_bracket():
    h = load("sl2")
    bracket = dict(h.bracket)
    key = next(iter(bracket))
    bracket[key] = FinVec(h.basis, {lab: float(c) for lab, c in bracket[key].entries.items()})
    return ur(LeibnizAlgebra(h.basis, bracket))


@pytest.mark.parametrize("build", [
    lambda: certify(_float_rack()),
    lambda: certify(_stray_rack()),
    lambda: augmented_from_action(*(lambda arb, act: (arb.carrier, arb.hopf, arb.phi, act))(
        *_float_action())),
    lambda: certify_dialgebra(_float_dialgebra()),
    lambda: certify_one_sided(_float_one_sided()),
    _float_bracket,
], ids=["mu float", "mu stray key", "action float", "vdash float", "mul float", "bracket float"])
def test_every_product_kind_refuses_floats_and_stray_keys(build):
    with pytest.raises(SchemaError):
        build()


def test_a_stray_action_column_is_refused():
    # U(sq2 mod z) has no word (1, 2): the column was silently ignored before
    arb = uar_infinity(load("sq2"), 1)
    cols = dict(arb.action.columns)
    cols[((1, 2), (2,))] = FinVec.unit(arb.carrier.basis, ())
    bad = dataclasses.replace(arb, certified=False, action=FinMap(
        arb.action.domain, arb.action.codomain, cols))
    with pytest.raises(SchemaError):
        certify_augmented(bad)


# ---------------------------------------------------------------------------
# one check for truncation degrees and caps
# ---------------------------------------------------------------------------


DEGREE_CALLS = {
    "uar_infinity k": lambda v: uar_infinity(load("sq2"), v),
    "uar_infinity env_cap": lambda v: uar_infinity(load("sq2"), 0, env_cap=v),
    "enveloping_hopf cap": lambda v: enveloping_hopf(load("lie2"), v),
    "symmetric_coalgebra cap": lambda v: symmetric_coalgebra(Basis("V", ("x",)), v),
    "universal_dialgebra cap": lambda v: universal_dialgebra(load("sq2"), v),
    "deformation_complex max_degree": lambda v: deformation_complex(ur(load("lie2")), v),
    "verify_complex max_n": lambda v: verify_complex(ur(load("lie2")), v),
    "hopf_adjoint degree": lambda v: hopf_adjoint(enveloping_hopf(load("lie2"), 3), v),
    "hopf_dialgebra_rack degree": lambda v: hopf_dialgebra_rack(
        hopf_as_dialgebra(group_hopf(cyclic_group(2))), v),
    "certify_dialgebra cap": lambda v: certify_dialgebra(
        dataclasses.replace(_lie2_dialgebra(), cap=v)),
    "certify_dialgebra degree": lambda v: certify_dialgebra(
        dataclasses.replace(_lie2_dialgebra(), degrees={(1,): v})),
    "PairTable.build cap": lambda v: PairTable.build(Basis("V", ("x",)), (), cap=v),
    "PairTable.build degree": lambda v: PairTable.build(Basis("V", ("x",)), (), degrees={"x": v}),
}


def _lie2_dialgebra():
    return hopf_as_dialgebra(enveloping_hopf(load("lie2"), 2))


@pytest.mark.parametrize("value", [True, 1.5, -1, "2"])
@pytest.mark.parametrize("call", sorted(DEGREE_CALLS))
def test_degrees_and_caps_are_nonnegative_ints(call, value):
    with pytest.raises(SchemaError):
        DEGREE_CALLS[call](value)


def test_a_degree_outside_the_basis_is_refused():
    with pytest.raises(SchemaError):
        PairTable.build(Basis("V", ("x",)), (), degrees={"y": 1})
    d = _lie2_dialgebra()
    with pytest.raises(SchemaError):
        certify_dialgebra(dataclasses.replace(d, degrees={**d.degrees, (9,): 1}))


def test_a_table_owns_the_degrees_and_the_cap():
    t = enveloping_hopf(load("lie2"), 2).table
    assert [t.degree(w) for w in ((), (1,), (1, 2))] == [0, 1, 2]
    assert [t.fits(n) for n in (0, 2, 3)] == [True, True, False]
    assert group_hopf(cyclic_group(2)).table.fits(10**6)


# ---------------------------------------------------------------------------
# caps: a table read refuses exactly the pairs beyond the cap
# ---------------------------------------------------------------------------


def refused(read, la, lb):
    """(needed, cap, context) of the refusal of a read, or None."""
    try:
        read(la, lb)
    except DegreeCapExceeded as exc:
        return exc.needed, exc.cap, str(exc)
    return None


def test_a_capped_dialgebra_refuses_exactly_the_pairs_beyond_its_cap():
    d = universal_dialgebra(load("sq2"), 2)
    labels = d.basis.labels
    refusals = 0
    for la, lb in itertools.product(labels, repeat=2):
        need = d.vdash_table.degree(la) + d.vdash_table.degree(lb)
        for sign, t, prod in (("|-", d.vdash_table, d.vprod), ("-|", d.dashv_table, d.dprod)):
            want = None if need <= d.cap else (
                need, d.cap, f"operation needs filtration degree {need} but the cap is "
                             f"{d.cap} (product {sign})")
            ua, ub = FinVec.unit(d.basis, la), FinVec.unit(d.basis, lb)
            for read in (t.entry, t.vector, lambda a, b: prod(ua, ub),
                         lambda a, b: label_times(t, a, {b: 1}),
                         lambda a, b: times_label(t, {a: 1}, b)):
                assert refused(read, la, lb) == want, (la, lb, sign)
            assert refused(t.opposite().entry, lb, la) == want
            refusals += want is not None
    assert refusals > 0


def test_a_capped_envelope_refuses_exactly_the_pairs_beyond_its_cap():
    env = enveloping_hopf(load("heis3"), 3)
    t = env.table
    refusals = 0
    for wa, wb in itertools.product(env.basis.labels, repeat=2):
        need = len(wa) + len(wb)
        want = None if need <= 3 else (
            need, 3, f"operation needs filtration degree {need} but the cap is 3 (product)")
        ua, ub = FinVec.unit(env.basis, wa), FinVec.unit(env.basis, wb)
        assert refused(t.entry, wa, wb) == want
        assert refused(lambda a, b: env.product(ua, ub), wa, wb) == want
        if want is None:
            assert t.vector(wa, wb) == env.straighten(wa + wb)
        refusals += want is not None
    assert refusals > 0


# ---------------------------------------------------------------------------
# a swapped field reaches the certifier
# ---------------------------------------------------------------------------


def moved_map(fmap, key, lab, coeff=1):
    cols = dict(fmap.columns)
    cols[key] = cols.get(key, FinVec.zero(fmap.codomain)) + FinVec.unit(fmap.codomain, lab, coeff)
    return FinMap(fmap.domain, fmap.codomain, cols)


def failure(call):
    try:
        call()
    except LeibnizViolation as exc:
        return "leibniz", (exc.j, exc.k, exc.l)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


# (key, added label, the identity and witness the certifier reports)
MU_CASES = [
    (((1,), (2,)), (), ("counit multiplicativity", ((1,), (2,)))),
    (((), (1,)), (2,), ("left unit", (1,))),
    (((2,), (2,)), (1,), ("self-distributivity", ((1,), (1,), (2,)))),
]
ACTION_CASES = [
    (((1,), (1,)), (2,), ("induced product", ((1,), (1,)))),
    (((1, 1), (2,)), (), ("action associativity", ((1,), (1,), (2,)))),
    (((), ()), (1,), ("action unit", ())),
]
VDASH_CASES = [
    (("s132", "s213"), "s123", ("product counit (|-)", ("s132", "s213"))),
    (("s231", "s312"), "s321", ("right antipode for |-", "s231")),
]
BRACKET_CASES = [
    ((1, 2), 1, ("leibniz", (1, 2, 2))),
    ((3, 1), 2, ("leibniz", (1, 2, 1))),
]


@pytest.mark.parametrize("key,lab,want", MU_CASES)
def test_a_replaced_mu_fails_with_its_identity(key, lab, want):
    rb = ur(load("sq2"))
    bad = dataclasses.replace(rb, certified=False, mu=moved_map(rb.mu, key, lab))
    assert bad.table is not rb.table and bad.table.vector(*key) == bad.mu.column(key)
    assert failure(lambda: certify(bad)) == want


@pytest.mark.parametrize("key,lab,want", ACTION_CASES)
def test_a_replaced_action_fails_with_its_identity(key, lab, want):
    arb = uar_infinity(load("sq2"), 1)
    bad = dataclasses.replace(arb, certified=False, action=moved_map(arb.action, key, lab))
    assert bad.table.vector(*key) == bad.action.column(key)
    assert failure(lambda: certify_augmented(bad)) == want


@pytest.mark.parametrize("key,lab,want", VDASH_CASES)
def test_a_replaced_vdash_fails_with_its_identity(key, lab, want):
    d = hopf_as_dialgebra(group_hopf(symmetric_group(3)))
    vdash = dict(d.vdash)
    vdash[key] = vdash[key] + FinVec.unit(d.basis, lab, F(1, 2))
    bad = dataclasses.replace(d, certified=False, report=None, vdash=vdash)
    assert bad.vdash_table.vector(*key) == vdash[key] != d.vdash_table.vector(*key)
    assert failure(lambda: certify_dialgebra(bad)) == want


@pytest.mark.parametrize("key,lab,want", BRACKET_CASES)
def test_a_replaced_bracket_fails_with_its_identity(key, lab, want):
    h = load("sl2")
    bracket = dict(h.bracket)
    bracket[key] = bracket.get(key, FinVec.zero(h.basis)) + FinVec.unit(h.basis, lab)
    bad = dataclasses.replace(h, bracket=bracket)
    assert bad.table.vector(*key) == bracket[key]
    assert failure(lambda: ur(bad)) == want


def test_a_certified_copy_keeps_the_tables_it_was_checked_on():
    rb = ur(load("sq2"))
    arb = uar_infinity(load("sq2"), 1)
    d = hopf_as_dialgebra(group_hopf(cyclic_group(3)))
    for obj, names in ((rb, ("table",)), (arb, ("table",)), (arb.rack, ("table",)),
                       (d, ("vdash_table", "dashv_table"))):
        assert obj.certified
        for name in names:
            assert name in obj.__dict__
            t = getattr(obj, name)
            assert t is getattr(obj, name)


# ---------------------------------------------------------------------------
# the guard: no reader call in a per-term loop
# ---------------------------------------------------------------------------


READERS = {"entry", "vector", "pair", "vpair", "dpair", "act_pair", "bracket_of_labels",
           "action_columns", "merge_labels", "_accumulate", "FinVec", "column"}
TERM_ITERS = {"items", "legs"}


def _named(node, owner):
    scope, *rest = owner.split(".")
    node = next(n for n in node.body if getattr(n, "name", None) == scope)
    if rest:
        node = next(n for n in node.body if getattr(n, "name", None) == rest[0])
    return node


def _iterates_terms(it):
    """A loop over the terms of a vector: ``v.items()``, ``c.legs(a)`` or a
    name bound to legs."""
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
        return it.func.attr in TERM_ITERS
    return isinstance(it, ast.Name) and it.id in {"legs", "legs_a", "legs_b", "left"}


def _called(nodes):
    names = set()
    for node in nodes:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names


def per_term_calls(tree, owner):
    """Names called inside the per-term loops of ``owner``: the body of a
    ``for`` and the element of a comprehension iterating over terms, and
    the iterables of the loops nested in them."""
    out = set()
    for node in ast.walk(_named(tree, owner)):
        if isinstance(node, ast.For) and _iterates_terms(node.iter):
            out |= _called(node.body)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for i, gen in enumerate(node.generators):
                if _iterates_terms(gen.iter):
                    later = [g.iter for g in node.generators[i + 1:]] + [
                        c for g in node.generators[i:] for c in g.ifs]
                    elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
                    out |= _called(later + elts)
                    break
    return out


GUARDED = {
    exact_core: ["label_times", "times_label", "bilinear"],
    symcoalg: ["check_multiplicative", "_delta_legs", "_add_tensor"],
    rack_bialg: ["_check_product", "_walk", "_first_triple", "_OnDicts.sides"],
    right_hopf_dialg: ["certify_dialgebra", "hopf_dialgebra_rack"],
}


def test_per_term_loops_call_no_reader():
    found = {}
    for module, owners in GUARDED.items():
        path = pathlib.Path(module.__file__)
        tree = ast.parse(path.read_text(), str(path))
        found.update({owner: per_term_calls(tree, owner) & READERS for owner in owners})
    assert found == {owner: set() for owners in GUARDED.values() for owner in owners}


def test_the_reader_guard_sees_term_loops_only():
    snippet = ("def label_times(t, label, v):\n"
               " for lab, cv in v.items():\n"
               "  acc = t.entry(label, lab)\n"
               " for lab in labels:\n"
               "  x = FinVec.unit(b, lab)\n"
               "def check(c, t):\n"
               " left = [merge_labels(b, l) for a1, a2, w in c.legs(a) for l in t.vector(a1, b)]\n"
               " for a1, a2, w in legs:\n"
               "  _accumulate(acc, w, t.rows.get(a1).items())\n")
    tree = ast.parse(snippet)
    assert per_term_calls(tree, "label_times") & READERS == {"entry"}
    assert per_term_calls(tree, "check") & READERS == {"merge_labels", "vector", "_accumulate"}


def test_no_label_pair_callable_is_left_in_the_package():
    package = pathlib.Path(exact_core.__file__).parent
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    assert names & {"pair", "vpair", "dpair", "act_pair", "action_columns",
                    "bracket_of_labels"} == set()


# ---------------------------------------------------------------------------
# the guard: one place decides what fits under a cap
# ---------------------------------------------------------------------------


CAP_RULE = {"fits", "degree"}


def cap_rule_copies(tree):
    """The functions and methods named ``fits`` or ``degree`` in a module, and
    the members ``cap``, ``degree`` and ``fits`` of a ``HopfBackend`` class.
    A ``degree`` property is the degree of the object itself (a polynomial's),
    not a rule on labels, and is not counted."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in CAP_RULE and not any(
                isinstance(dec, ast.Name) and dec.id == "property" for dec in node.decorator_list):
            out.add(node.name)
        if isinstance(node, ast.ClassDef) and node.name == "HopfBackend":
            for member in node.body:
                target = getattr(member, "target", None)
                name = target.id if isinstance(target, ast.Name) else getattr(member, "name", None)
                if name in CAP_RULE | {"cap"}:
                    out.add(f"HopfBackend.{name}")
    return out


def test_only_the_pair_table_decides_what_fits():
    package = pathlib.Path(exact_core.__file__).parent
    found = {path.name: cap_rule_copies(ast.parse(path.read_text(), str(path)))
             for path in sorted(package.rglob("*.py"))}
    assert found.pop("exact_core.py") == CAP_RULE
    assert {name: copies for name, copies in found.items() if copies} == {}


def test_the_cap_rule_guard_sees_methods_and_protocol_members():
    snippet = ("class HopfBackend(Protocol):\n"
               " cap: int | None\n"
               " def table(self): ...\n"
               "class Env:\n"
               " def fits(self, degree):\n"
               "  def degree(label):\n"
               "   return 0\n"
               "  return True\n"
               "class Poly:\n"
               " @property\n"
               " def degree(self):\n"
               "  return 0\n")
    assert cap_rule_copies(ast.parse(snippet)) == {"HopfBackend.cap", "fits", "degree"}
