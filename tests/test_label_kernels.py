"""The Leibniz identity, the coalgebra-morphism checks, the U(g) adjoint, the
braid relation and the Yetter-Drinfeld identity against their vector
formulas, and guards that keep those kernels on label reads.

The references below are the formulas written with vectors and maps:
brackets of unit vectors through ``bracket_of``, delta(ab) against a
``tensor_sum`` of pair products, the adjoint as a fold of ``product``
commutators, and the braid and Yetter-Drinfeld sides through composed maps
built with ``tests/oracles.py``.  Every kernel must report the same first
failure (name, witness and both sides) or the same result as its reference.
"""

import ast
import dataclasses
import itertools
import pathlib
from fractions import Fraction

import pytest

from oracles import table_of, tensor_product_map
from rackalg import env_hopf, leibniz, rack_bialg, symcoalg
from rackalg.env_hopf import enveloping_hopf
from rackalg.errors import (
    AxiomViolation,
    DecompositionFailure,
    DegreeCapExceeded,
    LeibnizViolation,
    RackalgError,
)
from rackalg.exact_core import (
    ZERO,
    Basis,
    FinMap,
    FinVec,
    SeriesScalar,
    label_times,
    linear_sum,
    scalar_eq,
    split_label,
    tensor_basis,
    tensor_sum,
)
from rackalg.fixtures import fixture_names, load, load_raw
from rackalg.groups import cyclic_group, group_hopf, group_like_coalgebra, symmetric_group
from rackalg.leibniz import LeibnizAlgebra, check_leibniz, quotient_lie
from rackalg.rack_bialg import (
    CheckReport,
    RackBialgebra,
    augmented_conjugation,
    conjugation_rack,
    rack_group_algebra,
    trivial,
    uar_infinity,
    ur,
    yang_baxter_check,
    yetter_drinfeld_check,
)
from rackalg.symcoalg import (
    check_coalgebra_map,
    check_multiplicative,
    is_cocommutative,
    symmetric_coalgebra,
    tensor_coalgebra,
)

F = Fraction


def outcome(fn, *args, **kwargs):
    """None when ``fn`` passes, else the raised error as a comparable tuple."""
    try:
        fn(*args, **kwargs)
    except LeibnizViolation as exc:
        return "leibniz", (exc.j, exc.k, exc.l), exc.lhs, exc.rhs
    except DegreeCapExceeded as exc:
        return "cap", exc.needed, exc.cap
    except (AxiomViolation, DecompositionFailure) as exc:
        name = exc.axiom if isinstance(exc, AxiomViolation) else exc.identity
        return type(exc).__name__, name, exc.witness, exc.lhs, exc.rhs
    return None


def same_outcome(a, b):
    """Equal outcomes; scalar sides are compared exactly across kinds."""
    if a is None or b is None or len(a) != 5:
        return a == b
    return a[:3] == b[:3] and all(
        x == y if isinstance(x, FinVec) else scalar_eq(x, y) for x, y in zip(a[3:], b[3:]))


# ---------------------------------------------------------------------------
# the Leibniz identity
# ---------------------------------------------------------------------------


def reference_leibniz(h):
    """check_leibniz through brackets of unit vectors."""
    for j, k, l in itertools.product(h.basis.labels, repeat=3):
        ej, ek, el = (FinVec.unit(h.basis, x) for x in (j, k, l))
        lhs = h.bracket_of(ej, h.bracket_of(ek, el))
        rhs = h.bracket_of(h.bracket_of(ej, ek), el) + h.bracket_of(ek, h.bracket_of(ej, el))
        if lhs != rhs:
            raise LeibnizViolation(j, k, l, lhs, rhs)


LEIBNIZ_FIXTURES = [name for name in fixture_names()
                    if load_raw(name).get("kind") == "leibniz_algebra"]


def test_the_fixture_list_holds_the_leibniz_algebras():
    assert {"abelian1", "heis3", "neg_leibniz", "nonlie3", "sl2", "sq2"} <= set(LEIBNIZ_FIXTURES)


@pytest.mark.parametrize("name", LEIBNIZ_FIXTURES)
def test_leibniz_check_matches_the_unit_vector_form_on_fixtures(name):
    h = load(name)
    assert outcome(check_leibniz, h) == outcome(reference_leibniz, h)
    assert (outcome(check_leibniz, h) is None) == (name != "neg_leibniz")


def perturbed_brackets(h):
    """Every bracket table with one entry [e_j, e_k]_i moved by 1 or by -1/2."""
    for j, k, i in itertools.product(h.basis.labels, repeat=3):
        for step in (1, F(-1, 2)):
            bracket = dict(h.bracket)
            bracket[j, k] = h.table.vector(j, k) + FinVec.unit(h.basis, i, step)
            yield (j, k, i, step), LeibnizAlgebra(h.basis, bracket)


@pytest.mark.parametrize("name", ["sl2", "heis3", "nonlie3"])
def test_leibniz_check_matches_the_unit_vector_form_on_perturbations(name):
    failing = 0
    for where, h in perturbed_brackets(load(name)):
        got = outcome(check_leibniz, h)
        assert got == outcome(reference_leibniz, h), where
        failing += got is not None
    assert failing > 0


# ---------------------------------------------------------------------------
# coalgebra morphisms
# ---------------------------------------------------------------------------


def table_multiplicative(c, pair, pairs, coproduct, counit, left=None):
    """check_multiplicative on the table of ``pair`` over every label pair."""
    labels = (c if left is None else left).basis.labels
    check_multiplicative(c, table_of(c.basis, pair, labels, c.basis.labels), pairs,
                         coproduct, counit, left=left)


def reference_multiplicative(c, pair, pairs, coproduct, counit, left=None):
    """check_multiplicative with delta(ab) against a tensor_sum of pair products."""
    left = c if left is None else left
    square = c.delta.codomain
    for la, lb in pairs:
        ab = pair(la, lb)
        got = c.eps_of(ab)
        want = left.counit.get(la, ZERO) * c.counit.get(lb, ZERO)
        if not scalar_eq(got, want):
            raise AxiomViolation(counit, (la, lb), got, want)
        lhs = c.delta(ab)
        rhs = tensor_sum(square, ((pair(a1, b1), pair(a2, b2), ca * cb)
                                  for a1, a2, ca in left.legs(la) for b1, b2, cb in c.legs(lb)))
        if lhs != rhs:
            raise AxiomViolation(coproduct, (la, lb), lhs, rhs)


def reference_coalgebra_map(source, target, f, labels, name, error=AxiomViolation):
    """check_coalgebra_map with delta(f(a)) against a tensor_sum of f(a1), f(a2)."""
    square = target.delta.codomain
    for lab in labels:
        fa = f(lab)
        lhs = target.delta(fa)
        rhs = tensor_sum(square, ((f(l1), f(l2), w) for l1, l2, w in source.legs(lab)))
        if lhs != rhs:
            raise error(f"{name} comultiplicativity", lab, lhs, rhs)
        got = target.eps_of(fa)
        want = source.counit.get(lab, ZERO)
        if not scalar_eq(got, want):
            raise error(f"{name} counit", lab, got, want)


def moved(read, key, add):
    """``read`` with ``add`` added to its column at ``key``."""
    def out(*lab):
        v = read(*lab)
        return v + add if lab == key else v
    return out


def trivial_product(c):
    zero = FinVec.zero(c.basis)
    return lambda la, lb: FinVec.unit(c.basis, lb, c.counit[la]) if la in c.counit else zero


def _tables():
    """(name, carrier, pair, pairs, left): valid products given on label pairs."""
    rb = ur(load("sq2"))
    yield ("ur(sq2)", rb.carrier, rb.table.vector,
           list(itertools.product(rb.basis.labels, repeat=2)), None)
    arb = uar_infinity(load("sq2"), 1)
    hc = arb.hopf.coalgebra
    yield ("action of uar(sq2)", arb.carrier, arb.table.vector,
           list(itertools.product(hc.basis.labels, arb.carrier.basis.labels)), hc)
    env = enveloping_hopf(load("lie2"), 2)
    zero = FinVec.zero(env.basis)
    yield "U(lie2)<=2", env.coalgebra, lambda a, b: (
        env.table.vector(a, b) if len(a) + len(b) <= 2 else zero), [
        (a, b) for a, b in itertools.product(env.basis.labels, repeat=2)
        if len(a) + len(b) <= 2], None
    kg = group_hopf(symmetric_group(3))
    yield ("K[S3]", kg.coalgebra, kg.table.vector,
           list(itertools.product(kg.basis.labels, repeat=2)), None)
    tc = tensor_coalgebra(symmetric_coalgebra(Basis("W", ("x",)), 2),
                          group_hopf(symmetric_group(2)).coalgebra)
    yield ("trivial on S(W)<=2 (x) K[S2]", tc, trivial_product(tc),
           list(itertools.product(tc.basis.labels, repeat=2)), None)
    one = SeriesScalar.one(2)
    yield ("ur(sq2) over Q[hbar]/hbar^2", rb.carrier,
           lambda la, lb: rb.table.vector(la, lb).scale(one),
           list(itertools.product(rb.basis.labels, repeat=2)), None)


TABLES = list(_tables())


@pytest.mark.parametrize("table", TABLES, ids=[t[0] for t in TABLES])
def test_multiplicative_check_matches_the_tensor_sum_form(table):
    name, c, pair, pairs, left = table
    args = (pairs, "coproduct multiplicativity", "counit multiplicativity")
    assert outcome(table_multiplicative, c, pair, *args, left=left) is None
    assert outcome(reference_multiplicative, c, pair, *args, left=left) is None
    hbar = SeriesScalar.hbar(2)
    kinds = set()
    first, last = (FinVec.unit(c.basis, lab) for lab in (c.basis.labels[0], c.basis.labels[-1]))
    # the last move keeps the counit of a group-like carrier
    moves = (last, first.scale(F(-1, 2)), (last - first).scale(hbar))
    for key, add in itertools.product(pairs, moves):
        bad = moved(pair, key, add)
        got = outcome(table_multiplicative, c, bad, *args, left=left)
        assert same_outcome(got, outcome(reference_multiplicative, c, bad, *args, left=left)), \
            (key, add)
        kinds.add(got and got[1])
    assert {"coproduct multiplicativity", "counit multiplicativity"} <= kinds


def _maps():
    """(name, source, target, f): valid coalgebra maps given on labels."""
    sym = symmetric_coalgebra(Basis("V", ("x", "y")), 2)
    yield "identity of S(V)<=2", sym, sym, FinMap.identity(sym.basis).column
    arb = uar_infinity(load("sq2"), 1)
    yield "phi of uar(sq2)", arb.carrier, arb.hopf.coalgebra, arb.phi.column
    kg = group_hopf(symmetric_group(3))
    yield "antipode of K[S3]", kg.coalgebra, kg.coalgebra, kg.antipode.column
    tc = tensor_coalgebra(sym, kg.coalgebra)
    yield "identity of S(V)<=2 (x) K[S3]", tc, tc, FinMap.identity(tc.basis).column


MAPS = list(_maps())


@pytest.mark.parametrize("fmap", MAPS, ids=[m[0] for m in MAPS])
def test_coalgebra_map_check_matches_the_tensor_sum_form(fmap):
    name, source, target, f = fmap
    labels = source.basis.labels
    for error in (AxiomViolation, DecompositionFailure):
        assert outcome(check_coalgebra_map, source, target, f, labels, "m", error) is None
        assert outcome(reference_coalgebra_map, source, target, f, labels, "m", error) is None
    kinds = set()
    for lab in labels:
        for target_lab, coeff in ((target.basis.labels[-1], 1), (target.basis.labels[0], F(1, 3))):
            bad = moved(f, (lab,), FinVec.unit(target.basis, target_lab, coeff))
            for error in (AxiomViolation, DecompositionFailure):
                got = outcome(check_coalgebra_map, source, target, bad, labels, "m", error)
                assert same_outcome(
                    got, outcome(reference_coalgebra_map, source, target, bad, labels, "m", error)
                ), (lab, target_lab, coeff)
                kinds.add(got and (got[0], got[1]))
    assert {("AxiomViolation", "m comultiplicativity"),
            ("DecompositionFailure", "m comultiplicativity")} <= kinds


def foreign(v):
    """The same entries over another basis with the same labels."""
    return FinVec(Basis("other", v.basis.labels, v.basis.factors), v.entries)


def test_a_product_column_from_another_space_is_refused():
    c = symmetric_coalgebra(Basis("V", ("x",)), 1)
    pair = trivial_product(c)
    labels = c.basis.labels
    pairs = list(itertools.product(labels, repeat=2))
    table_multiplicative(c, pair, pairs, "coproduct", "counit")
    for key in pairs:
        def swapped(*lab, key=key):
            return foreign(pair(*lab)) if lab == key else pair(*lab)

        for check in (table_multiplicative, reference_multiplicative):
            with pytest.raises(ValueError):
                check(c, swapped, pairs, "coproduct", "counit")
    # a column with a label outside the carrier, where the counit agrees
    outside = FinVec(Basis("other", ("z",)), {"z": 1})
    for check in (table_multiplicative, reference_multiplicative):
        with pytest.raises(ValueError):
            check(c, lambda la, lb: outside if la == lb == ("x",) else pair(la, lb), pairs,
                  "coproduct", "counit")
    # pair((), ()) is read only as a term of sum a1 b1 (x) a2 b2
    with pytest.raises(ValueError):
        table_multiplicative(c, lambda la, lb: foreign(pair(la, lb)) if (la, lb) == ((), ())
                             else pair(la, lb), [(("x",), ())], "coproduct", "counit")


def test_a_map_column_from_another_space_is_refused():
    c = symmetric_coalgebra(Basis("V", ("x",)), 1)
    f = FinMap.identity(c.basis).column
    for lab in c.basis.labels:
        def bad(l, lab=lab):
            return foreign(f(l)) if l == lab else f(l)

        for check in (check_coalgebra_map, reference_coalgebra_map):
            with pytest.raises(ValueError):
                check(c, c, bad, c.basis.labels, "m")
    outside = FinVec(Basis("other", ("z",)), {"z": 1})
    for check in (check_coalgebra_map, reference_coalgebra_map):
        with pytest.raises(ValueError):
            check(c, c, lambda l: outside if l == ("x",) else f(l), c.basis.labels, "m")
    # f(()) is read only as a term of sum f(a1) (x) f(a2)
    with pytest.raises(ValueError):
        check_coalgebra_map(c, c, lambda l: foreign(f(l)) if l == () else f(l), [("x",)], "m")


def test_an_adjoint_argument_from_another_space_is_refused():
    env = enveloping_hopf(load("lie2"), 2)
    v = FinVec.unit(env.basis, (1,))
    for u in (env.unit, FinVec.unit(env.basis, (2,))):
        assert env.adjoint(u, v).basis is env.basis
        with pytest.raises(ValueError):
            env.adjoint(u, foreign(v))


# ---------------------------------------------------------------------------
# the adjoint of U(g)
# ---------------------------------------------------------------------------


def reference_adjoint(env, u, v):
    """ad_u(v) as a fold of product commutators over unit letters."""
    def fold(word):
        acc = v
        for lab in reversed(word):
            letter = FinVec.unit(env.basis, (lab,))
            acc = env.product(letter, acc) - env.product(acc, letter)
        return acc

    return linear_sum(env.basis, ((fold(word), cu) for word, cu in u.entries.items()))


def adjoint_outcome(adjoint, env, u, v):
    try:
        return adjoint(env, u, v)
    except DegreeCapExceeded as exc:
        return "cap", exc.needed, exc.cap


LIE = {"lie2": lambda: load("lie2"), "sq2/Q": lambda: quotient_lie(load("sq2")).algebra,
       "heis3": lambda: load("heis3"), "sl2": lambda: load("sl2")}


@pytest.mark.parametrize("name", list(LIE))
def test_adjoint_matches_the_product_fold_on_every_label_pair(name):
    env = enveloping_hopf(LIE[name](), 3)
    refused = 0
    for wa, wb in itertools.product(env.basis.labels, repeat=2):
        u, v = FinVec.unit(env.basis, wa), FinVec.unit(env.basis, wb)
        got = adjoint_outcome(type(env).adjoint, env, u, v)
        assert got == adjoint_outcome(reference_adjoint, env, u, v), (wa, wb)
        refused += isinstance(got, tuple)
    assert refused > 0
    # a vector argument on both sides
    u = linear_sum(env.basis, ((FinVec.unit(env.basis, w), i + 1)
                               for i, w in enumerate(env.basis.labels) if len(w) <= 1))
    v = linear_sum(env.basis, ((FinVec.unit(env.basis, w), F(1, i + 1))
                               for i, w in enumerate(env.basis.labels) if len(w) <= 2))
    assert env.adjoint(u, v) == reference_adjoint(env, u, v)


# ---------------------------------------------------------------------------
# the braid relation and the Yetter-Drinfeld identity
# ---------------------------------------------------------------------------


def reference_yang_baxter(rb):
    """yang_baxter_check through R12 R23 R12 and R23 R12 R23 composed on the cube."""
    if not rb.certified:
        raise RackalgError("yang_baxter_check needs a certified rack bialgebra")
    c = rb.carrier
    if not is_cocommutative(c):
        raise RackalgError("yang_baxter_check needs a cocommutative carrier")
    basis, square = c.basis, c.square

    def r_col(pair):
        la, lb = split_label(basis, pair)
        return tensor_sum(square, ((FinVec.unit(basis, b1), rb.table.vector(b2, la), cb)
                                   for b1, b2, cb in c.legs(lb)))

    r = FinMap.from_function(square, square, r_col)
    ident = FinMap.identity(basis)
    r12 = tensor_product_map(r, ident)
    r23 = tensor_product_map(ident, r)
    lhs = r12.compose(r23).compose(r12)
    rhs = r23.compose(r12).compose(r23)
    checked = 0
    for lab in lhs.domain.labels:
        checked += 1
        if lhs.column(lab) != rhs.column(lab):
            return CheckReport(False, checked, axiom="braid relation", witness=(lab,))
    return CheckReport(True, checked, axiom="braid relation")


def reference_yetter_drinfeld(arb):
    """yetter_drinfeld_check with the coaction rho = (phi (x) id) o delta composed."""
    if not arb.certified:
        raise RackalgError("yetter_drinfeld_check needs a certified structure")
    bc, hopf = arb.carrier, arb.hopf
    hc = hopf.coalgebra
    mixed = arb.action.domain
    rho = tensor_product_map(arb.phi, FinMap.identity(bc.basis)).compose(bc.delta)
    anti = hopf.antipode
    checked = skipped = 0
    for lh in hc.basis.labels:
        hsw3 = hc.sweedler3(FinVec.unit(hc.basis, lh))
        for la in bc.basis.labels:
            bsw = bc.legs(la)
            worst = max((hopf.table.degree(w) for b1, _, _ in bsw
                         for w in arb.phi.column(b1).entries), default=0)
            if not hopf.table.fits(hopf.table.degree(lh) + worst):
                skipped += 1
                continue
            checked += 1
            lhs = rho(arb.table.vector(lh, la))
            rhs = tensor_sum(mixed, (
                (hopf.product(FinVec(hc.basis, label_times(hopf.table, h1,
                                                           arb.phi.column(b1).entries)),
                              anti.column(h3)),
                 arb.table.vector(h2, b2), ch * cb)
                for h1, h2, h3, ch in hsw3 for b1, b2, cb in bsw))
            if lhs != rhs:
                return CheckReport(False, checked, axiom="yetter-drinfeld compatibility",
                                   witness=(lh, la),
                                   detail=f"{skipped} pairs beyond the degree cap skipped")
    return CheckReport(True, checked, axiom="yetter-drinfeld compatibility",
                       detail=f"{skipped} pairs beyond the degree cap skipped")


def c2_table():
    """a |> a = e with a |> e = a: a certified-flagged product that is not
    self-distributive."""
    c = group_like_coalgebra("C2", ("e", "a"), "e")
    table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    mu = FinMap.from_function(tensor_basis(c.basis, c.basis), c.basis,
                              lambda pair: FinVec.unit(c.basis, table[pair]))
    return RackBialgebra(c, mu, certified=True)


def factored():
    """The left-trivial product on S(W)<=1 (x) K[C2], whose labels are flat pairs."""
    return trivial(tensor_coalgebra(symmetric_coalgebra(Basis("W", ("x",)), 1),
                                    group_like_coalgebra("C2", ("e", "a"), "e")))


RACKS = {
    "ur(sq2)": lambda: ur(load("sq2")),
    "ur(heis3)": lambda: ur(load("heis3")),
    "ur(lie2)": lambda: ur(load("lie2")),
    "K[Conj(S3)]": lambda: rack_group_algebra(conjugation_rack(symmetric_group(3))),
    "uar(sq2, 2)": lambda: uar_infinity(load("sq2"), 2).rack,
    "C2 table": c2_table,
    "trivial on S(W)<=1 (x) K[C2]": factored,
}


@pytest.mark.parametrize("name", list(RACKS))
def test_braid_check_matches_the_composed_form(name):
    rb = RACKS[name]()
    got = yang_baxter_check(rb)
    assert got == reference_yang_baxter(rb)
    assert got.passed == (name != "C2 table")


def bumped(m, key, lab):
    """The map ``m`` with 1 added to its column ``key`` at label ``lab``."""
    cols = dict(m.columns)
    cols[key] = m.column(key) + FinVec.unit(m.codomain, lab)
    return FinMap(m.domain, m.codomain, cols)


@pytest.mark.parametrize("name", ["ur(sq2)", "C2 table", "trivial on S(W)<=1 (x) K[C2]"])
def test_braid_check_matches_the_composed_form_on_perturbations(name):
    rb = RACKS[name]()
    failing = []
    for key, lab in itertools.product(rb.mu.domain.labels, rb.basis.labels):
        bad = RackBialgebra(rb.carrier, bumped(rb.mu, key, lab), certified=True)
        got = yang_baxter_check(bad)
        assert got == reference_yang_baxter(bad), (key, lab)
        failing += [got.witness] if not got.passed else []
    assert failing
    # on the factored carrier a witness is a merged cube label of flat pairs
    assert all(len(w[0]) == (6 if name.startswith("trivial") else 3) for w in failing)


def test_braid_check_refuses_what_its_reference_refuses(function_coalgebra_s3):
    for rb in (dataclasses.replace(c2_table(), certified=False), trivial(function_coalgebra_s3)):
        with pytest.raises(RackalgError) as exc:
            yang_baxter_check(rb)
        with pytest.raises(RackalgError) as ref:
            reference_yang_baxter(rb)
        assert str(exc.value) == str(ref.value)


AUGMENTED = {
    "conj(C2)": lambda: augmented_conjugation(cyclic_group(2)),
    "conj(S3)": lambda: augmented_conjugation(symmetric_group(3)),
    "uar(sq2, 2)": lambda: uar_infinity(load("sq2"), 2),
}


@pytest.mark.parametrize("name", list(AUGMENTED))
def test_yetter_drinfeld_check_matches_the_composed_form_on_perturbations(name):
    arb = AUGMENTED[name]()
    got = yetter_drinfeld_check(arb)
    assert got == reference_yetter_drinfeld(arb) and got.passed
    skipped = int(got.detail.split()[0])
    assert (skipped > 0) == (name == "uar(sq2, 2)")
    failing = 0
    for key, lab in itertools.product(arb.action.domain.labels, arb.carrier.basis.labels):
        bad = dataclasses.replace(arb, action=bumped(arb.action, key, lab))
        got = yetter_drinfeld_check(bad)
        assert got == reference_yetter_drinfeld(bad), (key, lab)
        failing += not got.passed
    assert failing


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------


VECTOR_BUILDS = {"FinVec.unit", "bilinear", "bracket_of", "tensor_sum", "self.product"}


def _calls(tree, owner):
    """Names called inside the function or method ``owner`` ("f" or "Class.f")
    of a module tree, nested calls included; an attribute call is listed as
    its attribute name and, on a plain name, as ``name.attr``."""
    scope, *rest = owner.split(".")
    node = next(n for n in tree.body if getattr(n, "name", None) == scope)
    if rest:
        node = next(n for n in node.body if getattr(n, "name", None) == rest[0])
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            names.add(call.func.id)
        elif isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            names.add(call.func.attr)
            if isinstance(call.func.value, ast.Name):
                names.add(f"{call.func.value.id}.{call.func.attr}")
    return names


GUARDED = {
    leibniz: ["check_leibniz"],
    symcoalg: ["check_multiplicative", "check_coalgebra_map", "_delta_legs", "_add_tensor"],
    env_hopf: ["EnvelopingHopf.adjoint"],
    rack_bialg: ["_walk", "_first_triple", "_OnDicts.sides", "_OnLabels.sides"],
}


def test_label_kernels_build_no_vectors_per_term():
    found = {}
    for module, owners in GUARDED.items():
        path = pathlib.Path(module.__file__)
        tree = ast.parse(path.read_text(), str(path))
        found.update({owner: _calls(tree, owner) & VECTOR_BUILDS for owner in owners})
    assert found == {owner: set() for owners in GUARDED.values() for owner in owners}


def test_the_vector_build_guard_sees_nested_calls():
    snippet = ("class EnvelopingHopf:\n"
               " def adjoint(self, u, v):\n"
               "  def fold(w): return self.product(FinVec.unit(b, w), v)\n"
               "  return bilinear(b, p, u, v)\n"
               "def check_leibniz(h):\n"
               " return [h.bracket_of(x, x) for x in tensor_sum(s, [])]\n"
               "def other(h):\n"
               " return itertools.product(h)\n")
    tree = ast.parse(snippet)
    assert _calls(tree, "EnvelopingHopf.adjoint") & VECTOR_BUILDS == {
        "self.product", "FinVec.unit", "bilinear"}
    assert _calls(tree, "check_leibniz") & VECTOR_BUILDS == {"bracket_of", "tensor_sum"}
    assert _calls(tree, "other") & VECTOR_BUILDS == set()


MAP_COMPOSITIONS = {"tensor_product_map", "flip_map", "compose"}
BRAID_AND_YD = ["yang_baxter_check", "yetter_drinfeld_check"]


def test_braid_and_yetter_drinfeld_checks_compose_no_maps():
    path = pathlib.Path(rack_bialg.__file__)
    tree = ast.parse(path.read_text(), str(path))
    assert {owner: _calls(tree, owner) & MAP_COMPOSITIONS for owner in BRAID_AND_YD} == {
        owner: set() for owner in BRAID_AND_YD}


def test_the_map_composition_guard_sees_nested_calls():
    snippet = ("def yang_baxter_check(rb):\n"
               " r12 = tensor_product_map(r, ident)\n"
               " return r12.compose(r23).compose(r12)\n"
               "def yetter_drinfeld_check(arb):\n"
               " def rho(v): return flip_map(a, b)(v)\n"
               " return rho\n"
               "def other(arb):\n"
               " return composed(arb)\n")
    tree = ast.parse(snippet)
    assert _calls(tree, "yang_baxter_check") & MAP_COMPOSITIONS == {
        "tensor_product_map", "compose"}
    assert _calls(tree, "yetter_drinfeld_check") & MAP_COMPOSITIONS == {"flip_map"}
    assert _calls(tree, "other") & MAP_COMPOSITIONS == set()
