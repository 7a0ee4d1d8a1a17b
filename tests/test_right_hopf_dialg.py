"""One-sided Hopf algebras, their unit/idempotent splitting, and Hopf
dialgebras.

Frozen expectations come from closed forms computed by hand: the right
group algebra K[G x E] multiplies as (g, x)(h, y) = (gh, y) and splits
with Psi((g, x)) = (g, x0) (x) (e, x); the dialgebra of an augmented
conjugation structure racks group-like pairs by simultaneous conjugation;
the universal dialgebra of the one-relation Leibniz algebra sq2 has
e1 |- e1 = e2 (x) 1 + e1 (x) xi and e1 -| e1 = e1 (x) xi.
"""

import ast
import collections
import dataclasses
import itertools
import pathlib
import traceback
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flip_map
from rackalg.env_hopf import HopfAlgebra, enveloping_hopf
from rackalg.errors import (
    AxiomViolation,
    DecompositionFailure,
    DegreeCapExceeded,
    RackalgError,
    SchemaError,
)
import rackalg.exact_core as exact_core
import rackalg.rack_bialg as rack_bialg
import rackalg.right_hopf_dialg as right_hopf_dialg
from rackalg.exact_core import (
    FinMap,
    FinVec,
    PairTable,
    SpanSolver,
    kernel_basis,
    linear_sum,
    span_basis,
    split_label,
)
from rackalg.fixtures import load
from rackalg.groups import cyclic_group, group_hopf, group_like_coalgebra, symmetric_group
from rackalg.rack_bialg import augmented_conjugation, augmented_from_action, hopf_adjoint
from rackalg.right_hopf_dialg import (
    HopfDialgebra,
    augmented_idempotent_basis,
    certify_dialgebra,
    certify_one_sided,
    dialgebra_from_augmented,
    dialgebra_leibniz,
    dialgebra_rack_product,
    from_group_hopf,
    hopf_as_dialgebra,
    hopf_dialgebra_rack,
    hopf_part_projector,
    idempotent_projector,
    right_group_hopf,
    structure_decomposition,
    suschkewitsch,
    trivial_one_sided_hopf,
    universal_dialgebra,
    universal_property_instance,
)
from rackalg.symcoalg import primitives, tensor_coalgebra

F = Fraction


@pytest.fixture(scope="module")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="module")
def ks3(s3):
    return group_hopf(s3)


@pytest.fixture(scope="module")
def rg_z2():
    return right_group_hopf(cyclic_group(2), ("p", "q"), "p")


@pytest.fixture(scope="module")
def rg_s3(s3):
    return right_group_hopf(s3, ("p", "q", "r"), "p")


@pytest.fixture(scope="module")
def dec_s3(rg_s3):
    return suschkewitsch(rg_s3)


@pytest.fixture(scope="module")
def d36(s3):
    return dialgebra_from_augmented(augmented_conjugation(s3))


@pytest.fixture(scope="module")
def ud_sq2():
    return universal_dialgebra(load("sq2"), 2)


def table_with(t, changed):
    """The table ``t`` with its pairs set to the columns of ``changed``, a dict
    keyed by label pairs; its degrees and cap kept."""
    return PairTable.build(t.basis, ((la, lb, v) for (la, lb), v in changed.items()),
                           degrees=t.degrees, cap=t.cap)


def pair_columns(t):
    """The columns of a product table as a dict keyed by every label pair."""
    return {(la, lb): t.vector(la, lb)
            for la, lb in itertools.product(t.basis.labels, repeat=2)}


def perturbation_census(obj, tables, check, certified=False, stored=False):
    """The failures ``check`` raises, counted over every replacement of one
    column of one of ``tables`` by a unit vector other than its value.

    A table is a ``FinMap``, a ``PairTable`` or a dict of columns keyed by
    label pairs: every label pair, or with ``stored`` only the stored keys
    of a dict.  The perturbed copy
    is marked ``certified`` as given.  A failure counts under the axiom or
    identity it names, any other package error under its type name, and a
    replacement that passes fails the test.
    """
    basis = obj.basis
    fired = collections.Counter()
    for table in tables:
        cols = getattr(obj, table)
        if isinstance(cols, FinMap):
            keys, current = cols.domain.labels, dict(cols.columns)
        elif isinstance(cols, PairTable):
            current = pair_columns(cols)
            keys = list(current)
        else:
            keys = list(cols) if stored else list(itertools.product(basis.labels, repeat=2))
            current = dict(cols)
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
                with pytest.raises(RackalgError) as exc:
                    check(dataclasses.replace(obj, certified=certified, **{table: changed}))
                err = exc.value
                name = (err.axiom if isinstance(err, AxiomViolation) else
                        err.identity if isinstance(err, DecompositionFailure) else
                        type(err).__name__)
                fired[name] += 1
    return fired


# ---------------------------------------------------------------------------
# one-sided Hopf algebras
# ---------------------------------------------------------------------------


class TestOneSided:
    def test_group_algebra_certifies_on_both_sides(self, ks3):
        for side in ("right", "left"):
            h = from_group_hopf(ks3, side)
            assert h.certified
        z4 = group_hopf(cyclic_group(4))
        assert from_group_hopf(z4, "left").certified

    def test_side_must_be_right_or_left(self, ks3):
        with pytest.raises(SchemaError):
            certify_one_sided(dataclasses.replace(ks3, side="middle"))
        with pytest.raises(SchemaError):
            certify_one_sided(ks3)

    def test_corrupted_antipode_is_rejected(self):
        h = right_group_hopf(cyclic_group(2), ("p", "q"), "p")
        bad = FinMap.identity(h.basis)
        with pytest.raises(AxiomViolation) as exc:
            certify_one_sided(dataclasses.replace(h, antipode=bad, certified=False))
        assert exc.value.axiom in ("defining antipode", "double antipode")

    @pytest.mark.parametrize("table,key,value,axiom,witness", [
        ("table", (("r1", "p"), ("r1", "q")), {("r0", "p"): 1},
         "associativity", (("r1", "p"), ("r0", "q"), ("r1", "q"))),
        ("antipode", ("r1", "q"), {("r1", "p"): 2}, "antipode comultiplicativity", ("r1", "q")),
        ("antipode", ("r1", "q"), {}, "antipode counit", ("r1", "q")),
        ("antipode", ("r1", "q"), {("r1", "q"): 1}, "defining antipode", ("r1", "q")),
        ("antipode", ("r0", "p"), {("r0", "q"): 1}, "antipode unit", "1"),
    ])
    def test_perturbed_entry_names_the_identity(self, rg_z2, table, key, value, axiom, witness):
        v = FinVec.build(rg_z2.basis, {lab: F(c) for lab, c in value.items()})
        if table == "table":
            changed = table_with(rg_z2.table, {**pair_columns(rg_z2.table), key: v})
        else:
            changed = FinMap(rg_z2.basis, rg_z2.basis, {**rg_z2.antipode.columns, key: v})
        bad = dataclasses.replace(rg_z2, certified=False, **{table: changed})
        with pytest.raises(AxiomViolation) as exc:
            certify_one_sided(bad)
        assert (exc.value.axiom, exc.value.witness) == (axiom, witness)

    def test_every_single_entry_perturbation_of_a_left_right_group(self):
        h = right_group_hopf(cyclic_group(2), ("p", "q"), "p", side="left")
        fired = perturbation_census(h, ("table", "antipode"), certify_one_sided)
        assert fired == {"associativity": 48, "defining antipode": 9, "antipode unit": 3}

    @pytest.mark.parametrize("make,sides,census", [
        (lambda side: right_group_hopf(cyclic_group(2), ("p", "q"), "p", side=side), ("right",),
         {"associativity": 48, "defining antipode": 9, "antipode unit": 3}),
        (lambda side: trivial_one_sided_hopf(group_hopf(cyclic_group(3)).coalgebra, side),
         ("right", "left"), {"associativity": 18, "defining antipode": 4, "antipode unit": 2}),
        (lambda side: from_group_hopf(group_hopf(cyclic_group(3)), side), ("right", "left"),
         {"associativity": 18, "antipode convolution square": 2, "antipode unit": 2,
          "defining antipode": 2}),
    ], ids=["right-group-Z2", "trivial-Z3", "K[Z3]"])
    def test_every_single_entry_perturbation_names_a_one_sided_identity(self, make, sides,
                                                                       census):
        # the left right group's census is pinned above
        for side in sides:
            fired = perturbation_census(make(side), ("table", "antipode"), certify_one_sided)
            assert fired == census, side

    @pytest.mark.parametrize("side,relabelled", [("right", "left"), ("left", "right")])
    def test_right_group_with_the_other_side_fails_the_unit_law(self, side, relabelled):
        h = right_group_hopf(cyclic_group(2), ("p", "q"), "p", side=side)
        with pytest.raises(AxiomViolation) as exc:
            certify_one_sided(dataclasses.replace(h, side=relabelled, certified=False))
        assert (exc.value.axiom, exc.value.witness) == ("one-sided unit", ("r0", "q"))

    def test_right_group_unit_is_one_sided_only(self, rg_z2):
        one = rg_z2.unit
        a = FinVec.unit(rg_z2.basis, ("r1", "q"))
        assert rg_z2.product(one, a) == a
        assert rg_z2.product(a, one) == FinVec.unit(rg_z2.basis, ("r1", "p"))

    def test_right_group_rejects_bad_points(self):
        z2 = cyclic_group(2)
        with pytest.raises(SchemaError):
            right_group_hopf(z2, (), "p")
        with pytest.raises(SchemaError):
            right_group_hopf(z2, ("p", "p"), "p")
        with pytest.raises(SchemaError):
            right_group_hopf(z2, ("p", "q"), "x")

    def test_non_cocommutative_carrier_is_rejected(self, ks3, function_coalgebra_s3):
        h = HopfAlgebra(function_coalgebra_s3, ks3.table, ks3.antipode, "right")
        with pytest.raises(AxiomViolation) as exc:
            certify_one_sided(h)
        assert (exc.value.axiom, exc.value.witness) == ("cocommutativity", "s132")

    def test_a_one_sided_record_is_refused_where_a_hopf_algebra_is_needed(self, rg_z2, s3):
        conj = augmented_conjugation(s3)
        left = from_group_hopf(group_hopf(s3), "left")
        for h in (rg_z2, left):
            with pytest.raises(SchemaError):
                hopf_as_dialgebra(h)
            with pytest.raises(SchemaError):
                hopf_adjoint(h)
        with pytest.raises(SchemaError):
            augmented_from_action(conj.carrier, left, conj.phi, conj.action)

    def test_a_capped_one_sided_record_is_refused(self):
        env = enveloping_hopf(load("lie2"), 2)
        with pytest.raises(SchemaError):
            certify_one_sided(HopfAlgebra(env.coalgebra, env.table, env.antipode, "right"))

    def test_suschkewitsch_requires_certification(self, ks3):
        raw = dataclasses.replace(ks3, side="right")
        with pytest.raises(RackalgError):
            suschkewitsch(raw)


class TestSuschkewitsch:
    def test_right_group_splitting_frozen(self, rg_z2):
        dec = suschkewitsch(rg_z2)
        basis = rg_z2.basis
        sq = rg_z2.coalgebra.square
        # Psi((g, x)) = (g, p) (x) (e, x)
        for g in ("r0", "r1"):
            for x in ("p", "q"):
                want = FinVec.unit(basis, (g, "p")).tensor(
                    FinVec.unit(basis, ("r0", x)), sq)
                assert dec.psi.column((g, x)) == want
        assert span_basis(list(dec.hopf_part)) == span_basis(
            [FinVec.unit(basis, ("r0", "p")), FinVec.unit(basis, ("r1", "p"))])
        assert span_basis(list(dec.idempotent_part)) == span_basis(
            [FinVec.unit(basis, ("r0", "p")), FinVec.unit(basis, ("r0", "q"))])
        assert dec.psi_inv is rg_z2.table

    def test_right_group_left_side_mirror(self, s3):
        h = right_group_hopf(s3, ("p", "q"), "p", side="left")
        dec = suschkewitsch(h)
        basis = h.basis
        sq = h.coalgebra.square
        # Psi((g, x)) = (e, x) (x) (g, p), idempotent leg first
        for g in s3.elements:
            for x in ("p", "q"):
                want = FinVec.unit(basis, ("s123", x)).tensor(
                    FinVec.unit(basis, (g, "p")), sq)
                assert dec.psi.column((g, x)) == want
        assert len(dec.hopf_part) == 6
        assert len(dec.idempotent_part) == 2

    @staticmethod
    def _opposite(h):
        """The opposite product of ``h``, certified as a right Hopf algebra."""
        return certify_one_sided(HopfAlgebra(h.coalgebra, h.table.opposite(), h.antipode,
                                             "right"))

    @pytest.mark.parametrize("make", [
        lambda: from_group_hopf(group_hopf(symmetric_group(3)), "left"),
        lambda: trivial_one_sided_hopf(group_hopf(symmetric_group(3)).coalgebra, "left"),
        lambda: right_group_hopf(symmetric_group(3), ("p", "q"), "p", side="left"),
        lambda: right_group_hopf(cyclic_group(2), ("p", "q", "r"), "p", side="left"),
    ], ids=["K[S3]", "trivial", "S3xE2", "Z2xE3"])
    def test_left_structure_is_its_opposite_right_structure(self, make):
        h = make()
        op = self._opposite(h)
        assert op.certified and h.side == "left"
        assert idempotent_projector(op) == idempotent_projector(h)
        assert hopf_part_projector(op) == hopf_part_projector(h)
        dec, dec_op = suschkewitsch(h), suschkewitsch(op)
        assert span_basis(list(dec.hopf_part)) == span_basis(list(dec_op.hopf_part))
        assert span_basis(list(dec.idempotent_part)) == span_basis(list(dec_op.idempotent_part))
        assert dec.psi == flip_map(h.basis, h.basis).compose(dec_op.psi)
        assert dec.psi_inv is h.table

    def test_single_point_right_group_is_the_group_algebra(self, s3):
        h = right_group_hopf(s3, ("p",), "p")
        dec = suschkewitsch(h)
        assert len(dec.hopf_part) == 6
        assert len(dec.idempotent_part) == 1

    def test_ordinary_hopf_splits_trivially(self, ks3):
        for side in ("right", "left"):
            dec = suschkewitsch(from_group_hopf(ks3, side))
            assert len(dec.hopf_part) == 6
            assert span_basis(list(dec.idempotent_part)) == span_basis([ks3.unit])

    def test_trivial_product_splits_oppositely(self, ks3):
        for side in ("right", "left"):
            h = trivial_one_sided_hopf(ks3.coalgebra, side)
            dec = suschkewitsch(h)
            assert span_basis(list(dec.hopf_part)) == span_basis([ks3.unit])
            assert len(dec.idempotent_part) == 6
            iota = idempotent_projector(h)
            assert iota == FinMap.identity(h.basis)

    def test_projectors_of_the_right_group(self, rg_s3):
        iota = idempotent_projector(rg_s3)
        rho = hopf_part_projector(rg_s3)
        basis = rg_s3.basis
        for g in ("s123", "s231", "s321"):
            for x in ("p", "q", "r"):
                assert iota.column((g, x)) == FinVec.unit(basis, ("s123", x))
                assert rho.column((g, x)) == FinVec.unit(basis, (g, "p"))

    def test_full_splitting_of_the_larger_right_group(self, rg_s3, dec_s3):
        assert len(dec_s3.hopf_part) * len(dec_s3.idempotent_part) == rg_s3.basis.dim

    def test_corrupted_product_fails_decomposition(self, rg_z2):
        cols = pair_columns(rg_z2.table)
        del cols[(("r0", "p"), ("r0", "q"))]
        broken = dataclasses.replace(rg_z2, table=table_with(rg_z2.table, cols))
        with pytest.raises(DecompositionFailure):
            suschkewitsch(broken)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_every_single_entry_perturbation_fails_the_splitting(self, side):
        # still marked certified: the splitting's own checks must catch it
        h = right_group_hopf(cyclic_group(2), ("p", "q"), "p", side=side)
        fired = perturbation_census(h, ("table", "antipode"), suschkewitsch, certified=True)
        assert fired == {
            "idempotent projector": 12, "generalized idempotent": 8, "idempotent antipode": 3,
            "generalized unit": 15, "hopf part projector": 4, "hopf part antipode closure": 1,
            "hopf part closure": 2, "projection multiplicative": 9, "psi left inverse": 2,
            "psi multiplicative": 3, "psi antipode": 1}

    @pytest.mark.parametrize("side", ["middle", "Left"])
    def test_projectors_refuse_an_unknown_side(self, ks3, side):
        # the record refuses the side before a projector can read it
        with pytest.raises(SchemaError):
            idempotent_projector(dataclasses.replace(ks3, side=side))
        with pytest.raises(SchemaError):
            hopf_part_projector(dataclasses.replace(ks3, side=side))

    def test_fixed_space_of_mu_delta_is_strictly_larger(self, ks3):
        # the image of iota is 1-dimensional, yet mu(Delta(c)) = c has a
        # 2-dimensional solution space: the generalized-idempotent equation
        # does not characterize the idempotent part
        h = from_group_hopf(ks3, "right")
        iota = idempotent_projector(h)
        image = span_basis([iota.column(lab) for lab in h.basis.labels])
        mul = FinMap.from_function(h.coalgebra.square, h.basis,
                                   lambda pair: h.table.vector(*split_label(h.basis, pair)))
        mu_delta = mul.compose(h.coalgebra.delta)
        fixed = kernel_basis(mu_delta - FinMap.identity(h.basis))
        assert len(image) == 1
        assert len(fixed) == 2
        c = FinVec.unit(h.basis, "s231") + FinVec.unit(h.basis, "s312")
        assert mu_delta(c) == c
        assert iota(c) == h.unit.scale(F(2))
        sol = SpanSolver(image)
        assert all(sol.contains(iota.column(lab)) for lab in h.basis.labels)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("s123", "s132", "s213", "s231", "s312", "s321")),
           st.sampled_from(("p", "q", "r")),
           st.sampled_from(("s123", "s132", "s213", "s231", "s312", "s321")),
           st.sampled_from(("p", "q", "r")))
    def test_psi_turns_products_into_pairs(self, dec_s3, s3, ga, xa, gb, xb):
        h = dec_s3.hopf
        prod = h.product(FinVec.unit(h.basis, (ga, xa)), FinVec.unit(h.basis, (gb, xb)))
        assert prod == FinVec.unit(h.basis, (s3.mul(ga, gb), xb))
        # Psi(ab) = (g_a g_b, p) (x) (e, x_b) straight from the closed form
        want = FinVec.unit(h.basis, (s3.mul(ga, gb), "p")).tensor(
            FinVec.unit(h.basis, ("s123", xb)), h.coalgebra.square)
        assert dec_s3.psi.column((s3.mul(ga, gb), xb)) == want


# ---------------------------------------------------------------------------
# Hopf dialgebras
# ---------------------------------------------------------------------------


class TestHopfDialgebra:
    def test_group_algebra_as_dialgebra(self, s3, ks3):
        d = hopf_as_dialgebra(ks3)
        assert d.certified and d.cap is None
        a = FinVec.unit(d.basis, "s213")
        b = FinVec.unit(d.basis, "s132")
        assert d.vprod(a, b) == d.dprod(a, b)
        assert d.vprod(a, b) == FinVec.unit(d.basis, s3.mul("s213", "s132"))
        assert d.report.checked > 0

    def test_enveloping_algebra_as_dialgebra(self):
        env = enveloping_hopf(load("heis3"), 3)
        d = hopf_as_dialgebra(env)
        assert d.certified and d.cap == 3
        x = FinVec.unit(d.basis, (1,))
        y = FinVec.unit(d.basis, (2,))
        assert d.vprod(x, y) == FinVec.unit(d.basis, (1, 2))
        assert d.vprod(y, x) == FinVec.unit(d.basis, (1, 2)) - FinVec.unit(d.basis, (3,))

    def test_no_dialgebra_for_unknown_carriers(self):
        with pytest.raises(SchemaError):
            hopf_as_dialgebra(object())

    def test_commutator_bracket_on_primitives(self):
        for name, cap in (("heis3", 3), ("sl2", 2)):
            h = load(name)
            d = hopf_as_dialgebra(enveloping_hopf(h, cap))
            lz = dialgebra_leibniz(d)
            assert lz.dim == h.dim
            prims = primitives(d.coalgebra)
            assert [tuple(p.entries) for p in prims] == [((j,),) for j in h.basis.labels]
            for j, k in itertools.product(h.basis.labels, repeat=2):
                want = h.table.vector(j, k)
                got = lz.table.vector(j, k)
                assert dict(got.entries) == dict(want.entries)

    def test_non_cocommutative_carrier_is_rejected(self, function_coalgebra_s3):
        d = hopf_as_dialgebra(group_hopf(symmetric_group(3)))
        bad = dataclasses.replace(d, coalgebra=function_coalgebra_s3, certified=False)
        with pytest.raises(AxiomViolation) as exc:
            certify_dialgebra(bad)
        assert (exc.value.axiom, exc.value.witness) == ("cocommutativity", "s132")

    def test_unbalanced_products_are_rejected(self):
        # K[Z2] (x) K[Z2] with b(b1 (x) b2)b' = bb1 (x) b2b' is a dialgebra
        # candidate whose two products share no balanced bar-unit
        g = cyclic_group(2)
        gh = group_hopf(g)
        c = tensor_coalgebra(gh.coalgebra, gh.coalgebra)
        basis = c.basis
        vdash = {}
        dashv = {}
        for x in basis.labels:
            for y in basis.labels:
                px = g.mul(x[0], x[1])
                vdash[(x, y)] = FinVec.unit(basis, (g.mul(px, y[0]), y[1]))
                py = g.mul(y[0], y[1])
                dashv[(x, y)] = FinVec.unit(basis, (x[0], g.mul(x[1], py)))
        s = FinMap.from_function(
            basis, basis,
            lambda lab: FinVec.unit(basis, ("r0", g.inverse(g.mul(lab[0], lab[1])))))
        with pytest.raises(AxiomViolation) as exc:
            certify_dialgebra(HopfDialgebra(c, vdash, dashv, s, {}, None))
        assert exc.value.axiom == "balanced"
        assert exc.value.witness == ("r0", "r1")

    @pytest.mark.parametrize("table,key,value,axiom,witness", [
        ("vdash", ("r0", "r1"), {"r2": 1}, "bar-unit left", "r1"),
        ("dashv", ("r1", "r0"), {"r2": 1}, "bar-unit right", "r1"),
        ("vdash", ("r1", "r0"), {"r2": 1}, "balanced", "r1"),
        ("vdash", ("r1", "r2"), {"r1": 1}, "right antipode for |-", "r1"),
        ("dashv", ("r1", "r2"), {"r1": 1}, "antipode flip identity (-|)", "r1"),
        ("vdash", ("r1", "r1"), {}, "product counit (|-)", ("r1", "r1")),
        ("dashv", ("r1", "r1"), {}, "product counit (-|)", ("r1", "r1")),
        ("vdash", ("r1", "r1"), {"r2": 1, "r0": 1, "r1": -1},
         "product comultiplicativity (|-)", ("r1", "r1")),
        ("dashv", ("r1", "r1"), {"r2": 1, "r0": 1, "r1": -1},
         "product comultiplicativity (-|)", ("r1", "r1")),
        ("vdash", ("r1", "r1"), {"r0": 1}, "antipode antihomomorphism (|-)", ("r1", "r1")),
        ("dashv", ("r1", "r1"), {"r0": 1}, "antipode antihomomorphism (-|)", ("r1", "r1")),
        ("antipode", "r1", {"r2": 2}, "antipode comultiplicativity", "r1"),
        ("antipode", "r1", {}, "antipode counit", "r1"),
        ("antipode", "r1", {"r1": 1}, "right antipode for |-", "r1"),
    ])
    def test_perturbed_entry_names_the_identity(self, table, key, value, axiom, witness):
        d = hopf_as_dialgebra(group_hopf(cyclic_group(3)))
        v = FinVec.build(d.basis, {lab: F(c) for lab, c in value.items()})
        if table == "antipode":
            cols = dict(d.antipode.columns)
            cols[key] = v
            changed = FinMap(d.basis, d.basis, cols)
        else:
            changed = dict(getattr(d, table))
            changed[key] = v
        bad = dataclasses.replace(d, certified=False, report=None, **{table: changed})
        with pytest.raises(AxiomViolation) as exc:
            certify_dialgebra(bad)
        assert (exc.value.axiom, exc.value.witness) == (axiom, witness)

    def test_every_single_entry_perturbation_names_a_dialgebra_identity(self):
        d = hopf_as_dialgebra(group_hopf(cyclic_group(3)))
        fired = perturbation_census(d, ("vdash", "dashv", "antipode"), certify_dialgebra)
        assert fired == {
            "antipode antihomomorphism (|-)": 4, "antipode antihomomorphism (-|)": 4,
            "antipode convolution square (|-)": 2,
            "antipode flip identity (|-)": 2, "antipode flip identity (-|)": 2,
            "antipode unit absorption (|-)": 2, "antipode unit absorption (-|)": 2,
            "balanced": 4, "bar-unit left": 6, "bar-unit right": 6,
            "left antipode for -|": 2, "right antipode for |-": 6}

    @pytest.mark.parametrize("source,tables,census", [
        ("z2", ("vdash", "dashv", "antipode"), {
            "antipode antihomomorphism (-|)": 12, "antipode antihomomorphism (|-)": 12,
            "antipode flip identity (-|)": 5, "antipode flip identity (|-)": 5,
            "associativity (-|)": 1, "balanced": 12, "bar-unit left": 12, "bar-unit right": 12,
            "inner associativity": 6, "left antipode for -|": 6, "left products agree": 7,
            "right antipode for |-": 18}),
        ("lie2", ("vdash", "dashv"), {
            "balanced": 50, "bar-unit left": 30, "bar-unit right": 30,
            "left antipode for -|": 21, "right antipode for |-": 21}),
        ("lie2", ("antipode",), {"antipode comultiplicativity": 28, "right antipode for |-": 5}),
        ("sq2", ("vdash", "dashv"), {
            "DegreeCapExceeded": 8, "antipode flip identity (-|)": 10,
            "antipode flip identity (|-)": 10, "balanced": 64, "bar-unit left": 56,
            "bar-unit right": 56, "left antipode for -|": 16, "left products agree": 2,
            "product comultiplicativity (-|)": 16, "product comultiplicativity (|-)": 16,
            "product counit (-|)": 2, "product counit (|-)": 2, "right antipode for |-": 16}),
        ("sq2", ("antipode",), {"SchemaError": 18, "antipode comultiplicativity": 48,
                                "right antipode for |-": 12}),
    ])
    def test_every_single_entry_perturbation_of_a_larger_dialgebra(self, ud_sq2, source,
                                                                   tables, census):
        # the Z2-augmented dialgebra over every label pair, the capped ones over
        # their stored keys
        d = {"z2": lambda: dialgebra_from_augmented(augmented_conjugation(cyclic_group(2))),
             "lie2": lambda: hopf_as_dialgebra(enveloping_hopf(load("lie2"), 2)),
             "sq2": lambda: ud_sq2}[source]()
        fired = perturbation_census(d, tables, certify_dialgebra, stored=source != "z2")
        assert fired == census

    def test_schema_rejections(self, ks3):
        d = hopf_as_dialgebra(ks3)
        with pytest.raises(SchemaError):
            certify_dialgebra(dataclasses.replace(d, degrees={"nope": 1}))
        with pytest.raises(SchemaError):
            certify_dialgebra(dataclasses.replace(d, degrees={"s123": -1}))
        env = enveloping_hopf(load("lie2"), 2)
        de = hopf_as_dialgebra(env)
        overfull = dict(de.vdash)
        overfull[((1,), (1, 1))] = FinVec.unit(de.basis, (1,))
        with pytest.raises(SchemaError):
            certify_dialgebra(dataclasses.replace(de, vdash=overfull))

    def test_degree_guards(self, ud_sq2):
        b = ud_sq2.basis
        deep = FinVec.unit(b, ((), (1, 1)))
        with pytest.raises(DegreeCapExceeded):
            ud_sq2.vprod(deep, deep)
        with pytest.raises(DegreeCapExceeded):
            ud_sq2.s(FinVec.unit(b, ((1,), (1, 1))))
        # missing pairs inside the cap multiply to zero, not an error
        e2 = FinVec.unit(b, ((2,), ()))
        assert ud_sq2.vprod(e2, e2).is_zero
        assert ud_sq2.dprod(e2, e2).is_zero

    @pytest.mark.parametrize("copy,product", [(False, "|- = -|"), (True, "|-")])
    def test_ungraded_entry_is_refused_in_the_triple_loop(self, copy, product):
        # U(abelian1) regraded so that x x = x^2 lands in degree 3 > 1 + 1:
        # every label and pair identity stays inside the cap, but the triple
        # (x, x, x) reads (x x) x = x^2 x, which needs degree 4; a refused read
        # of one table shared by both products names both of them
        d = hopf_as_dialgebra(enveloping_hopf(load("abelian1"), 3))
        degrees = {(1,): 1, (1, 1): 3, (1, 1, 1): 4}

        def deg(lab):
            return degrees.get(lab, 0)

        table = {k: v for k, v in d.vdash.items() if deg(k[0]) + deg(k[1]) <= 3}
        anti = FinMap(d.basis, d.basis,
                      {lab: v for lab, v in d.antipode.columns.items() if deg(lab) <= 3})
        regraded = HopfDialgebra(d.coalgebra, table, dict(table) if copy else table, anti,
                                 degrees, 3)
        assert (regraded.dashv_table is regraded.vdash_table) is not copy
        with pytest.raises(DegreeCapExceeded) as exc:
            certify_dialgebra(regraded)
        assert (exc.value.needed, exc.value.cap) == (4, 3)
        assert str(exc.value).endswith(f"(product {product})")
        loop, _ = _checked_loop(right_hopf_dialg, "certify_dialgebra", "associativity (|-)")
        frames = [f for f in traceback.extract_tb(exc.value.__traceback__)
                  if f.name == "certify_dialgebra"]
        assert len(frames) == 1 and loop.lineno <= frames[0].lineno <= loop.end_lineno

    Z2 = ("r0", "r0"), ("r0", "r1"), ("r1", "r0"), ("r1", "r1")
    E, X, Y = ((), ()), ((1,), ()), ((), (1,))

    @pytest.mark.parametrize("source,table,key,value,axiom,witness", [
        ("z2", "vdash", (Z2[1], Z2[2]), {Z2[0]: 1}, "left products agree", (Z2[0], Z2[2], Z2[2])),
        ("z2", "vdash", (Z2[1], Z2[3]), {Z2[1]: 1}, "left products agree", (Z2[0], Z2[2], Z2[3])),
        ("z2", "dashv", (Z2[1], Z2[3]), {Z2[2]: 1}, "associativity (-|)", (Z2[0], Z2[1], Z2[3])),
        ("z2", "dashv", (Z2[2], Z2[1]), {Z2[0]: 1}, "inner associativity", (Z2[1], Z2[2], Z2[1])),
        ("sq2", "vdash", (Y, X), {((1,), (1,)): 1}, "left products agree", (E, X, X)),
        ("sq2", "dashv", (X, Y), {((1,), (1,)): 1, ((2,), ()): 1}, "associativity (-|)",
         (X, E, X)),
    ])
    def test_triple_witness_is_the_vector_product(self, ud_sq2, source, table, key, value,
                                                  axiom, witness):
        d = {"z2": lambda: dialgebra_from_augmented(augmented_conjugation(cyclic_group(2))),
             "sq2": lambda: ud_sq2}[source]()
        changed = dict(getattr(d, table))
        changed[key] = FinVec.build(d.basis, {lab: F(c) for lab, c in value.items()})
        bad = dataclasses.replace(d, certified=False, report=None, **{table: changed})
        with pytest.raises(AxiomViolation) as exc:
            certify_dialgebra(bad)
        assert (exc.value.axiom, exc.value.witness) == (axiom, witness)
        # the sides as the vector products of the dialgebra give them
        la, lb, lc = witness
        a, c = FinVec.unit(d.basis, la), FinVec.unit(d.basis, lc)
        v, w = bad.vprod, bad.dprod
        vt, dt = bad.vdash_table.vector, bad.dashv_table.vector
        oracle = {
            "associativity (|-)": (v(vt(la, lb), c), v(a, vt(lb, lc))),
            "left products agree": (v(dt(la, lb), c), v(vt(la, lb), c)),
            "associativity (-|)": (w(dt(la, lb), c), w(a, dt(lb, lc))),
            "right products agree": (w(a, vt(lb, lc)), w(a, dt(lb, lc))),
            "inner associativity": (w(vt(la, lb), c), v(a, dt(lb, lc))),
        }
        lhs, rhs = oracle[axiom]
        assert exc.value.lhs.basis == exc.value.rhs.basis == d.basis
        assert (exc.value.lhs, exc.value.rhs) == (lhs, rhs)
        assert dict(exc.value.lhs.entries) == dict(lhs.entries)
        assert dict(exc.value.rhs.entries) == dict(rhs.entries)


SHARED_FIXTURES = {
    "z3": lambda: group_hopf(cyclic_group(3)),
    "s3": lambda: group_hopf(symmetric_group(3)),
    "lie2": lambda: enveloping_hopf(load("lie2"), 3),
    "sl2": lambda: enveloping_hopf(load("sl2"), 3),
}


def _outcome(check, obj):
    """What certifying ``obj`` by ``check`` gives: the report, or the failure's
    type with the identity it names and its witness (a cap failure: needed
    degree and cap)."""
    try:
        report = check(obj).report
    except AxiomViolation as err:
        return "AxiomViolation", err.axiom, err.witness
    except DegreeCapExceeded as err:
        return "DegreeCapExceeded", err.needed, err.cap
    except RackalgError as err:
        return type(err).__name__, str(err)
    return report.passed, report.checked, report.detail


def _record_and_copied(d, products):
    """The two-sided Hopf record with the product ``products`` and the
    antipode of ``d``, and ``d`` with |- the dict ``products`` and -| a copy."""
    record = HopfAlgebra(d.coalgebra, table_with(d.vdash_table, products), d.antipode)
    return record, dataclasses.replace(d, vdash=products, dashv=dict(products), certified=False,
                                       report=None)


def _steiner_loop_dialgebra():
    """K[L] for the Steiner loop L of order 10 (e and the nine points of the
    affine plane over Z3, x x = e, x y the third point -x-y of the line
    through x and y), with S = id, as a dialgebra with |- = -|.  L is a
    commutative inverse-property loop of exponent 2, so every label and pair
    identity holds, but it is not associative."""
    points = tuple(itertools.product(range(3), repeat=2))
    labels = ("e",) + points
    c = group_like_coalgebra("K[Steiner10]", labels, "e")

    def mul(x, y):
        if x == "e" or y == "e":
            return y if x == "e" else x
        return "e" if x == y else tuple(-(i + j) % 3 for i, j in zip(x, y))

    table = {(x, y): FinVec.unit(c.basis, mul(x, y)) for x in labels for y in labels}
    s = FinMap.from_function(c.basis, c.basis, lambda lab: FinVec.unit(c.basis, lab))
    return HopfDialgebra(c, table, table, s, {})


class TestSharedTable:
    """A Hopf algebra is certified once, as a two-sided record, by the record
    certifier behind hopf_as_dialgebra; the oracle is the same product as a
    dialgebra with -| a copy of the dict, certified by certify_dialgebra."""

    @pytest.mark.parametrize("source", sorted(SHARED_FIXTURES))
    def test_one_table_serves_both_products(self, source):
        d = hopf_as_dialgebra(SHARED_FIXTURES[source]())
        assert d.dashv is d.vdash and d.dashv_table is d.vdash_table
        record, copied = _record_and_copied(d, d.vdash)
        shared = hopf_as_dialgebra(record)
        assert shared.dashv_table is shared.vdash_table
        assert shared.vdash_table.rows is record.table.rows
        assert copied.dashv_table is not copied.vdash_table
        assert _outcome(hopf_as_dialgebra, record) == _outcome(certify_dialgebra, copied) == (
            True, d.report.checked, d.report.detail)

    @pytest.mark.parametrize("source", sorted(SHARED_FIXTURES))
    def test_every_perturbation_of_the_shared_table_fails_as_on_two_tables(self, source):
        # every label pair, or under a cap the stored keys, set to each unit
        # vector other than its value, in the one product of the record
        d = hopf_as_dialgebra(SHARED_FIXTURES[source]())
        labels = d.basis.labels
        keys = list(d.vdash) if d.cap is not None else list(itertools.product(labels, repeat=2))
        count = 0
        for key in keys:
            for target in labels:
                v = FinVec.unit(d.basis, target)
                if d.vdash.get(key) == v:
                    continue
                changed = dict(d.vdash)
                changed[key] = v
                record, copied = _record_and_copied(d, changed)
                got = _outcome(hopf_as_dialgebra, record)
                assert got[0] is not True, (key, target)
                assert got == _outcome(certify_dialgebra, copied), (key, target)
                count += 1
        assert count >= len(keys) * (len(labels) - 1)

    def test_a_non_associative_shared_product_fails_as_on_two_tables(self):
        d = _steiner_loop_dialgebra()
        record, copied = _record_and_copied(d, d.vdash)
        got = _outcome(hopf_as_dialgebra, record)
        assert got[:2] == ("AxiomViolation", "associativity (|-)")
        assert got == _outcome(certify_dialgebra, copied)
        a, b, c = (FinVec.unit(d.basis, lab) for lab in got[2])
        assert d.vprod(d.vprod(a, b), c) != d.vprod(a, d.vprod(b, c))

    def test_the_shared_path_makes_under_half_the_table_reads(self, ks3, monkeypatch):
        # U(lie2)<=3 is capped and takes the generic path either way; K[S3] is
        # read on its label maps, so certifying it reads no table at all
        d = hopf_as_dialgebra(SHARED_FIXTURES["lie2"]())
        group = hopf_as_dialgebra(ks3)
        read = exact_core._read
        counts = []
        for dialgebra in (d, group):
            record, copied = _record_and_copied(dialgebra, dialgebra.vdash)
            for check, bare in ((hopf_as_dialgebra, record), (certify_dialgebra, copied)):
                calls = []
                monkeypatch.setattr(exact_core, "_read",
                                    lambda *args: calls.append(1) or read(*args))
                check(bare)
                counts.append(len(calls))
        shared, copied, *group_reads = counts
        assert 0 < 2 * shared < copied
        assert group_reads == [0, 0]


class TestAugmentedDialgebra:
    def test_conjugation_dialgebra_certifies(self, d36):
        assert d36.certified
        assert d36.basis.dim == 36
        assert d36.cap is None

    def test_rack_of_group_dialgebra_is_simultaneous_conjugation(self, d36, s3):
        a = FinVec.unit(d36.basis, ("s213", "s231"))
        b = FinVec.unit(d36.basis, ("s132", "s321"))
        u = s3.mul("s213", "s231")
        want = FinVec.unit(d36.basis, (s3.conjugate(u, "s132"), s3.conjugate(u, "s321")))
        assert dialgebra_rack_product(d36, a, b) == want

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(("s123", "s132", "s213", "s231", "s312", "s321")),
           st.sampled_from(("s123", "s132", "s213", "s231", "s312", "s321")),
           st.sampled_from(("s123", "s132", "s213", "s231", "s312", "s321")),
           st.sampled_from(("s123", "s132", "s213", "s231", "s312", "s321")))
    def test_rack_closed_form_on_group_likes(self, d36, s3, g, k, b, h):
        a_vec = FinVec.unit(d36.basis, (g, k))
        b_vec = FinVec.unit(d36.basis, (b, h))
        u = s3.mul(g, k)
        want = FinVec.unit(d36.basis, (s3.conjugate(u, b), s3.conjugate(u, h)))
        assert dialgebra_rack_product(d36, a_vec, b_vec) == want

    def test_structure_decomposition_of_the_conjugation_dialgebra(self, d36, s3):
        dec = structure_decomposition(d36)
        assert len(dec.idempotent_part) == 6
        assert len(dec.hopf_part) == 6
        assert len(dec.idempotent_part) * len(dec.hopf_part) == d36.basis.dim
        arb = augmented_conjugation(s3)
        named = augmented_idempotent_basis(arb)
        sol = SpanSolver(list(dec.idempotent_part))
        assert all(sol.contains(v) for v in named)
        back = SpanSolver(named)
        assert all(back.contains(v) for v in dec.idempotent_part)
        # hopf part is 1 -| A = 1 (x) K[S3]
        expect_h = [FinVec.unit(d36.basis, ("s123", g)) for g in s3.elements]
        solh = SpanSolver(expect_h)
        assert all(solh.contains(v) for v in dec.hopf_part)

    R00, R01, R10, R11 = ("r0", "r0"), ("r0", "r1"), ("r1", "r0"), ("r1", "r1")

    @pytest.mark.parametrize("source,table,key,value,identity,witness", [
        ("z2", "vdash", (R00, R00), {}, "generalized bar-unit (|-)", (0, R00)),
        ("z2", "vdash", (R01, R00), {}, "hopf part products agree", (1, 0)),
        ("z2", "vdash", (R01, R10), {}, "projection merges products", (R01, R10)),
        ("z2", "vdash", (R01, R10), {R00: 1}, "psi multiplicative (|-)", (R01, R10)),
        ("z2", "dashv", (R00, R00), {}, "idempotent projector", R01),
        ("z2", "dashv", (R00, R01), {}, "hopf part projector", R10),
        ("z2", "dashv", (R00, R10), {}, "projection multiplicative", (R01, R10)),
        ("z2", "dashv", (R01, R01), {R01: 1}, "idempotent antipode", 1),
        ("z2", "dashv", (R10, R01), {R10: 1}, "generalized idempotent (-|)", 1),
        ("z2", "dashv", (R10, R01), {R00: 1}, "psi left inverse", R10),
        ("z2", "dashv", (R01, R10), {R11: 1}, "psi multiplicative (-|)", (R01, R10)),
        ("sq2", "dashv", (((), ()), ((), ())), {}, "hopf part unit", "1"),
        ("sq2", "vdash", (((), ()), ((), ())), {((1,), ()): 1},
         "generalized bar-unit (|-)", (0, ((), ()))),
        ("z3", "dashv", ("r0", "r1"), {}, "hopf part antipode closure", 1),
    ])
    def test_perturbed_entry_fails_decomposition(self, ud_sq2, source, table, key, value,
                                                 identity, witness):
        d = {"z2": lambda: dialgebra_from_augmented(augmented_conjugation(cyclic_group(2))),
             "sq2": lambda: ud_sq2,
             "z3": lambda: hopf_as_dialgebra(group_hopf(cyclic_group(3)))}[source]()
        structure_decomposition(d)
        changed = dict(getattr(d, table))
        changed[key] = FinVec.build(d.basis, {lab: F(c) for lab, c in value.items()})
        # still marked certified: the decomposition's own checks must catch it
        bad = dataclasses.replace(d, **{table: changed})
        assert bad.certified
        with pytest.raises(DecompositionFailure) as exc:
            structure_decomposition(bad)
        assert (exc.value.identity, exc.value.witness) == (identity, witness)

    @pytest.mark.parametrize("source,table,census", [
        ("z2", "vdash", {"generalized bar-unit (|-)": 24, "hopf part products agree": 6,
                         "projection merges products": 12, "psi multiplicative (|-)": 6}),
        ("z2", "dashv", {"idempotent projector": 8, "idempotent antipode": 1,
                         "generalized idempotent (-|)": 4, "generalized bar-unit (-|)": 15,
                         "hopf part projector": 4, "hopf part closure": 2,
                         "projection multiplicative": 9, "psi left inverse": 2,
                         "psi multiplicative (-|)": 3}),
        ("z3", "vdash", {"generalized bar-unit (|-)": 6, "hopf part products agree": 12}),
        ("z3", "dashv", {"idempotent projector": 4, "generalized idempotent (-|)": 2,
                         "generalized bar-unit (-|)": 4, "hopf part antipode closure": 4,
                         "hopf part products agree": 4}),
        ("sq2", "vdash", {"DegreeCapExceeded": 2, "generalized bar-unit (|-)": 122,
                          "hopf part products agree": 8, "projection merges products": 5,
                          "psi multiplicative (|-)": 1}),
        ("sq2", "dashv", {"DegreeCapExceeded": 26, "idempotent projector": 58,
                          "idempotent antipode": 2, "generalized idempotent (-|)": 12,
                          "generalized bar-unit (-|)": 31, "hopf part projector": 4,
                          "projection multiplicative": 3}),
    ])
    def test_every_single_entry_perturbation_fails_decomposition(self, ud_sq2, source, table,
                                                                 census):
        # z2 and z3 over every label pair, the capped sq2 over its stored keys; the
        # splitting of (A, -|, S) is checked before the |- identities, so a -|
        # perturbation is caught by it first
        d = {"z2": lambda: dialgebra_from_augmented(augmented_conjugation(cyclic_group(2))),
             "sq2": lambda: ud_sq2,
             "z3": lambda: hopf_as_dialgebra(group_hopf(cyclic_group(3)))}[source]()
        fired = perturbation_census(d, (table,), structure_decomposition, certified=True,
                                    stored=source == "sq2")
        assert fired == census

    @pytest.mark.parametrize("make", [
        lambda: dialgebra_from_augmented(augmented_conjugation(cyclic_group(2))),
        lambda: hopf_as_dialgebra(group_hopf(symmetric_group(3))),
        None,
    ], ids=["Z2-augmented", "K[S3]", "S3-augmented"])
    def test_decomposition_is_the_splitting_of_the_left_algebra(self, d36, make):
        # (A, -|, S) is a left Hopf algebra, and the dialgebra splits as it does
        d = d36 if make is None else make()
        left = certify_one_sided(HopfAlgebra(d.coalgebra, d.dashv_table, d.antipode, "left"))
        dec, sus = structure_decomposition(d), suschkewitsch(left)
        assert span_basis(list(dec.idempotent_part)) == span_basis(list(sus.idempotent_part))
        assert span_basis(list(dec.hopf_part)) == span_basis(list(sus.hopf_part))
        assert dec.psi == sus.psi

    def test_a_hopf_algebra_decomposes_on_one_label_map_scan(self, monkeypatch):
        # the uncapped product of K[S3] is scanned once, when the Hopf record is
        # certified; the dialgebra carries that table, and its scan, as both products
        scanned = collections.Counter()
        scan = rack_bialg._label_table

        def counted(t, left):
            scanned[id(t)] += 1
            return scan(t, left)

        monkeypatch.setattr(rack_bialg, "_label_table", counted)
        hopf = group_hopf(symmetric_group(3))
        structure_decomposition(hopf_as_dialgebra(hopf))
        assert scanned == {id(hopf.table): 1}

    def test_dialgebra_needs_certified_augmented_structure(self, s3):
        arb = augmented_conjugation(s3)
        with pytest.raises(RackalgError):
            dialgebra_from_augmented(dataclasses.replace(arb, certified=False))

    @pytest.mark.parametrize("source", ["ks3", "sq2"])
    def test_rack_table_matches_the_unit_vector_oracle(self, ks3, ud_sq2, source):
        d = {"ks3": lambda: hopf_as_dialgebra(ks3), "sq2": lambda: ud_sq2}[source]()
        rb = hopf_dialgebra_rack(d)

        def unit(lab):
            return FinVec.unit(d.basis, lab)

        for pair in rb.mu.domain.labels:
            la, lb = split_label(rb.basis, pair)
            # a |> b = sum (a1 |- b) -| S(a2), every product over unit vectors
            want = linear_sum(d.basis, ((d.dprod(d.vprod(unit(l1), unit(lb)), d.s(unit(l2))), cw)
                                        for l1, l2, cw in d.coalgebra.legs(la)))
            assert dict(rb.mu.column(pair).entries) == dict(want.entries)

    def test_group_dialgebra_rack_matches_hopf_adjoint(self, ks3):
        d = hopf_as_dialgebra(ks3)
        rb = hopf_dialgebra_rack(d)
        ad = hopf_adjoint(ks3)
        assert rb.carrier.basis.labels == ad.carrier.basis.labels
        for pair in rb.mu.domain.labels:
            assert dict(rb.mu.column(pair).entries) == dict(ad.mu.column(pair).entries)

    @staticmethod
    def _perturbed_z3(table, key, target):
        # still marked certified: the rack's own certification must catch it
        d = hopf_as_dialgebra(group_hopf(cyclic_group(3)))
        changed = dict(getattr(d, table))
        changed[key] = changed[key] + FinVec.unit(d.basis, target)
        bad = dataclasses.replace(d, **{table: changed})
        assert bad.certified
        return bad

    @pytest.mark.parametrize("table,key,target,axiom,witness", [
        ("vdash", ("r1", "r1"), "r0", "counit multiplicativity", ("r1", "r1")),
        ("dashv", ("r0", "r1"), "r2", "counit multiplicativity", ("r2", "r1")),
        ("vdash", ("r0", "r2"), "r1", "left unit", "r2"),
        ("dashv", ("r1", "r2"), "r0", "unit absorption", "r1"),
        ("vdash", ("r0", "r0"), "r2", "unit square", "1"),
    ])
    def test_perturbed_entry_fails_the_dialgebra_rack(self, table, key, target, axiom, witness):
        with pytest.raises(AxiomViolation) as exc:
            hopf_dialgebra_rack(self._perturbed_z3(table, key, target))
        assert (exc.value.axiom, exc.value.witness) == (axiom, witness)

    def test_every_single_entry_perturbation_fails_the_dialgebra_rack(self):
        labels = ("r0", "r1", "r2")
        fired = collections.Counter()
        for table in ("vdash", "dashv"):
            for key in itertools.product(labels, repeat=2):
                for target in labels:
                    with pytest.raises(AxiomViolation) as exc:
                        hopf_dialgebra_rack(self._perturbed_z3(table, key, target))
                    fired[exc.value.axiom] += 1
        assert fired == {"counit multiplicativity": 24, "left unit": 12,
                         "unit absorption": 12, "unit square": 6}


# ---------------------------------------------------------------------------
# the universal dialgebra
# ---------------------------------------------------------------------------


class TestUniversalDialgebra:
    def test_frozen_products_of_sq2(self, ud_sq2):
        b = ud_sq2.basis
        e1 = FinVec.unit(b, ((1,), ()))
        e2 = FinVec.unit(b, ((2,), ()))
        xi = FinVec.unit(b, ((), (1,)))
        assert ud_sq2.vprod(e1, e1) == e2 + FinVec.unit(b, ((1,), (1,)))
        assert ud_sq2.dprod(e1, e1) == FinVec.unit(b, ((1,), (1,)))
        assert ud_sq2.vprod(e1, e1) - ud_sq2.dprod(e1, e1) == e2
        assert ud_sq2.vprod(xi, e1) == e2 + FinVec.unit(b, ((1,), (1,)))
        assert ud_sq2.dprod(e1, xi) == FinVec.unit(b, ((1,), (1,)))
        assert ud_sq2.vprod(e1, xi) == FinVec.unit(b, ((), (1, 1)))
        assert ud_sq2.dprod(xi, e1) == FinVec.unit(b, ((), (1, 1)))

    def test_primitive_leibniz_of_sq2(self, ud_sq2):
        b = ud_sq2.basis
        lz = dialgebra_leibniz(ud_sq2)
        assert lz.dim == 3
        e1 = FinVec.unit(b, ((1,), ()))
        e2 = FinVec.unit(b, ((2,), ()))
        xi = FinVec.unit(b, ((), (1,)))

        def br(x, y):
            return ud_sq2.vprod(x, y) - ud_sq2.dprod(y, x)

        assert br(e1, e1) == e2
        assert br(xi, e1) == e2
        assert br(e1, xi).is_zero
        assert br(e1, e2).is_zero
        assert br(e2, e1).is_zero
        assert br(xi, xi).is_zero

    def test_summand_dimensions(self, ud_sq2):
        labels = ud_sq2.basis.labels
        dial = [lab for lab in labels if len(lab[0]) == 1]
        env = [lab for lab in labels if len(lab[0]) == 0]
        assert len(dial) == 6 and len(env) == 3
        # the enveloping summand is associative: both products agree there
        t = ud_sq2.vdash_table
        for x, y in itertools.product(env, repeat=2):
            if not t.fits(t.degree(x) + t.degree(y)):
                continue
            vx = FinVec.unit(ud_sq2.basis, x)
            vy = FinVec.unit(ud_sq2.basis, y)
            assert ud_sq2.vprod(vx, vy) == ud_sq2.dprod(vx, vy)

    def test_cap_below_two_is_rejected(self):
        with pytest.raises(SchemaError):
            universal_dialgebra(load("sq2"), 1)

    def test_three_dimensional_instance(self):
        h3 = load("heis3")
        ud = universal_dialgebra(h3, 2)
        assert ud.certified
        lz = dialgebra_leibniz(ud)
        # three carrier generators plus the primitives of U(heis3 / Q)
        q_dim = 3  # heis3 is Lie, so the squares ideal vanishes
        assert lz.dim == 3 + q_dim

    def test_decomposition_of_universal_dialgebra(self, ud_sq2):
        dec = structure_decomposition(ud_sq2)
        b = ud_sq2.basis
        e_named = [
            ud_sq2.unit,
            FinVec.unit(b, ((1,), ())) - FinVec.unit(b, ((), (1,))),
            FinVec.unit(b, ((2,), ())),
        ]
        sol = SpanSolver(list(dec.idempotent_part))
        assert len(dec.idempotent_part) == 3
        assert all(sol.contains(v) for v in e_named)
        h_named = [ud_sq2.unit,
                   FinVec.unit(b, ((), (1,))),
                   FinVec.unit(b, ((), (1, 1)))]
        solh = SpanSolver(list(dec.hopf_part))
        assert len(dec.hopf_part) == 3
        assert all(solh.contains(v) for v in h_named)
        assert "skipped" in dec.report.detail

    def test_rack_of_universal_dialgebra(self, ud_sq2):
        rb = hopf_dialgebra_rack(ud_sq2)
        assert rb.certified
        assert rb.carrier.basis.dim == 4
        b = ud_sq2.basis
        e1 = FinVec.unit(b, ((1,), ()))
        assert dialgebra_rack_product(ud_sq2, e1, e1) == FinVec.unit(b, ((2,), ()))
        with pytest.raises(DegreeCapExceeded):
            hopf_dialgebra_rack(ud_sq2, degree=2)

    @pytest.mark.parametrize("degree", [-1, 1.5, True])
    def test_rack_degree_must_be_a_nonnegative_int(self, ud_sq2, degree):
        with pytest.raises(SchemaError):
            hopf_dialgebra_rack(ud_sq2, degree=degree)

    def test_capped_censuses(self, ud_sq2):
        assert ud_sq2.report.checked == 75
        assert ud_sq2.report.detail == "labels skipped=2, pairs skipped=59, triples skipped=683"
        dec = structure_decomposition(ud_sq2)
        assert (len(dec.idempotent_part), len(dec.hopf_part)) == (3, 3)
        assert (dec.report.checked, dec.report.detail) == (102, "skipped=67")


class TestUniversalProperty:
    def test_identity_extension(self, ud_sq2):
        sq2 = load("sq2")
        b = ud_sq2.basis
        phi = FinMap.from_function(sq2.basis, b,
                                   lambda j: FinVec.unit(b, ((j,), ())))
        hat = universal_property_instance(ud_sq2, sq2, phi, ud_sq2)
        for lab in b.labels:
            if ud_sq2.vdash_table.fits(ud_sq2.vdash_table.degree(lab)):
                assert hat.column(lab) == FinVec.unit(b, lab)

    def test_collapse_extension(self, ud_sq2):
        sq2 = load("sq2")
        from rackalg.leibniz import LeibnizAlgebra
        l1 = LeibnizAlgebra.from_table(1, {}, name="l1")
        tgt = universal_dialgebra(l1, 2)
        tb = tgt.basis
        phi = FinMap(sq2.basis, tb, {1: FinVec.unit(tb, ((1,), ()))})
        hat = universal_property_instance(ud_sq2, sq2, phi, tgt)
        assert hat.column(((2,), ())).is_zero
        assert hat.column(((), ())) == tgt.unit
        assert hat.column(((1,), ())) == FinVec.unit(tb, ((1,), ()))
        assert hat.column(((1,), (1,))) == FinVec.unit(tb, ((1,), (1,)))
        assert hat.column(((), (1,))) == FinVec.unit(tb, ((), (1,)))

    def test_non_morphism_is_rejected(self, ud_sq2):
        sq2 = load("sq2")
        b = ud_sq2.basis
        bad = FinMap.from_function(sq2.basis, b,
                                   lambda j: FinVec.unit(b, ((1,), ())))
        with pytest.raises(AxiomViolation) as exc:
            universal_property_instance(ud_sq2, sq2, bad, ud_sq2)
        assert exc.value.axiom == "leibniz morphism"

    def test_non_primitive_image_is_rejected(self, ud_sq2):
        sq2 = load("sq2")
        b = ud_sq2.basis
        bad = FinMap.from_function(sq2.basis, b,
                                   lambda j: FinVec.unit(b, ((), (1, 1))))
        with pytest.raises(AxiomViolation) as exc:
            universal_property_instance(ud_sq2, sq2, bad, ud_sq2)
        assert exc.value.axiom == "primitive image"

    def test_requires_certified_structures(self, ud_sq2):
        sq2 = load("sq2")
        b = ud_sq2.basis
        phi = FinMap.from_function(sq2.basis, b,
                                   lambda j: FinVec.unit(b, ((j,), ())))
        raw = dataclasses.replace(ud_sq2, certified=False)
        with pytest.raises(RackalgError):
            universal_property_instance(raw, sq2, phi, ud_sq2)


def _side_readers(tree):
    """Names of the top-level functions and methods of ``tree`` (or "<module>")
    that read an attribute ``side``."""
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [(f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef)]
        else:
            owners.append((getattr(node, "name", "<module>"), node))
    return {name for name, owner in owners for n in ast.walk(owner)
            if isinstance(n, ast.Attribute) and n.attr == "side" and isinstance(n.ctx, ast.Load)}


def test_the_antipode_side_is_read_only_by_the_certifiers_and_the_splitting():
    # _right_product takes the side as an argument; these pass it or branch on it
    path = pathlib.Path(right_hopf_dialg.__file__)
    readers = _side_readers(ast.parse(path.read_text(), str(path)))
    assert readers == {"_check_hopf", "certify_one_sided", "suschkewitsch",
                       "idempotent_projector", "hopf_part_projector"}
    snippet = "class A:\n def f(self):\n  def g(): return self.side\nx = h.side\ny.side = 1"
    assert _side_readers(ast.parse(snippet)) == {"A.f", "<module>"}


SHARED_IDENTITIES = ("idempotent projector", "hopf part projector", "idempotent part",
                     "hopf part unit", "hopf part antipode closure", "hopf part closure",
                     "psi left inverse", "psi factor exchange", "dimension product",
                     "psi antipode")


def _constant_owners(tree, names):
    """For each of ``names``, the top-level functions of ``tree`` in which it
    occurs as a string constant, nested functions and f-string parts included."""
    owners = {name: set() for name in names}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Constant) and n.value in owners:
                    owners[n.value].add(fn.name)
    return owners


def test_the_splitting_identities_are_checked_in_one_function():
    path = pathlib.Path(right_hopf_dialg.__file__)
    owners = _constant_owners(ast.parse(path.read_text(), str(path)), SHARED_IDENTITIES)
    assert owners == {name: {"_split"} for name in SHARED_IDENTITIES}
    snippet = ("def f():\n def g(): raise E('psi antipode')\n"
               "def h(): return 'psi antipode', f'hopf part unit{1}', 'a hopf part unit'\n"
               "x = 'dimension product'")
    assert _constant_owners(ast.parse(snippet), ("psi antipode", "hopf part unit",
                                                 "dimension product")) == {
        "psi antipode": {"f", "h"}, "hopf part unit": {"h"}, "dimension product": set()}


HALF_IDENTITIES = ("balanced", "triple antipode", "product comultiplicativity",
                   "product counit", "antipode antihomomorphism")
CONSEQUENCES = ("antipode flip identity", "antipode convolution square", "double antipode",
                "antipode unit absorption")


def test_the_one_sided_identities_are_checked_in_one_function():
    path = pathlib.Path(right_hopf_dialg.__file__)
    owners = _constant_owners(ast.parse(path.read_text(), str(path)),
                              HALF_IDENTITIES + CONSEQUENCES)
    assert owners == {**{name: {"_check_halves"} for name in HALF_IDENTITIES},
                      **{name: {"_check_right_antipode"} for name in CONSEQUENCES}}
    snippet = ("def f(tag):\n for t in ts: g(t, f'product counit{tag}', 'balanced (|-)')\n"
               "def h(): raise E(f'double antipode{1}', 'balanced')\n")
    assert _constant_owners(ast.parse(snippet), ("product counit", "balanced",
                                                 "double antipode")) == {
        "product counit": {"f"}, "balanced": {"h"}, "double antipode": {"h"}}


VIOLATION_BUILDERS = {"AxiomViolation", "DecompositionFailure", "_differ"}


def _name_of(node):
    """A string constant, or the leading text of an f-string; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values and isinstance(node.values[0], ast.Constant):
        return node.values[0].value
    return None


def _identity_statements(tree):
    """For each identity name of ``tree``, the number of statements in which it
    occurs as a string (a constant, or the leading text of an f-string).  An
    identity name is the first argument of a violation builder or ``axiom=`` of
    ``CheckReport``."""
    names = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            f = call.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in VIOLATION_BUILDERS and call.args:
                names.add(_name_of(call.args[0]))
            elif called == "CheckReport":
                names.update(_name_of(kw.value) for kw in call.keywords if kw.arg == "axiom")
    names.discard(None)
    statements = {name: set() for name in names}

    def visit(node, statement):
        statement = node if isinstance(node, ast.stmt) else statement
        if _name_of(node) in statements:
            statements[_name_of(node)].add(statement)
        if not isinstance(node, ast.JoinedStr):  # its parts are counted with it
            for child in ast.iter_child_nodes(node):
                visit(child, statement)

    visit(tree, None)
    return {name: len(found) for name, found in statements.items()}


@pytest.mark.parametrize("module", [rack_bialg, right_hopf_dialg])
def test_every_identity_is_named_in_one_statement(module):
    path = pathlib.Path(module.__file__)
    counts = _identity_statements(ast.parse(path.read_text(), str(path)))
    assert counts
    assert {name: n for name, n in counts.items() if n != 1} == {}
    snippet = ("def f(m, tag):\n"
               " if m[1] != 1: _differ('unit law', 1, m[1], 1, b)\n"
               " for axiom, got in (('unit law', m[2]), ('flip', m[3])):\n"
               "  raise AxiomViolation(f'flip{tag}', 2, got, 1)\n"
               " return CheckReport(True, 1, axiom='braid'), g('x', axiom='no name')\n")
    assert _identity_statements(ast.parse(snippet)) == {"unit law": 2, "flip": 2, "braid": 1}


def _checked_loop(module, function, axiom):
    """The outermost loop of ``module.function`` that raises ``axiom`` (any
    loop for ``None``), and the functions nested in ``function`` by name."""
    path = pathlib.Path(module.__file__)
    tree = ast.parse(path.read_text(), str(path))
    return _loop_in(tree, function, axiom)


def _loop_in(tree, function, axiom):
    loops, nested = _loops_in(tree, function, axiom)
    return loops[0], nested


def _loops_in(tree, function, axiom):
    """Every loop of ``function`` in ``tree`` that names ``axiom`` (every loop
    for ``None``), outermost first, and the functions nested in it by name."""
    fn = tree
    for name in function.split("."):  # a method is named "Class.method"
        fn = next(n for n in fn.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                  and n.name == name)
    loops = [n for n in ast.walk(fn) if isinstance(n, ast.For) and (axiom is None or any(
        isinstance(c, ast.Constant) and c.value == axiom for c in ast.walk(n)))]
    nested = {n.name: n for n in ast.walk(fn) if isinstance(n, ast.FunctionDef) and n is not fn}
    return loops, nested


def _called_names(loop, nested):
    """Names the loop calls (``FinVec.unit`` spelled out), following the nested
    functions it calls."""
    names, todo, seen = set(), [loop], set()
    while todo:
        for node in ast.walk(todo.pop()):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
                if f.id in nested and f.id not in seen:
                    seen.add(f.id)
                    todo.append(nested[f.id])
            elif isinstance(f, ast.Attribute):
                owner = f.value.id + "." if isinstance(f.value, ast.Name) else ""
                names.update({f.attr, owner + f.attr})
    return names


VECTOR_PRODUCTS = {"bilinear", "vprod", "dprod", "FinVec.unit"}


@pytest.mark.parametrize("module,function,axiom", [
    (right_hopf_dialg, "certify_dialgebra", "associativity (|-)"),
    (right_hopf_dialg, "_check_associative", None),
    (rack_bialg, "_first_selfdist_failure", None),
    (rack_bialg, "_OnDicts.composed", None),
    (rack_bialg, "_OnDicts.distribute", None),
    (right_hopf_dialg, "hopf_dialgebra_rack", "module identity (|-)"),
    (right_hopf_dialg, "structure_decomposition", "projection merges products"),
    (right_hopf_dialg, "structure_decomposition", "psi multiplicative (|-)"),
    (rack_bialg, "certify_augmented", "action associativity"),
    (rack_bialg, "certify_augmented", "left regularity"),
    (right_hopf_dialg, "_split", "projection multiplicative"),
    (right_hopf_dialg, "_split", "psi multiplicative"),
])
def test_label_product_loops_read_stored_columns(module, function, axiom):
    # the generic loop and, on a certifier with a set path, the label-map loop
    path = pathlib.Path(module.__file__)
    loops, nested = _loops_in(ast.parse(path.read_text(), str(path)), function, axiom)
    assert loops
    assert [_called_names(loop, nested) & VECTOR_PRODUCTS for loop in loops] == [set()] * len(loops)


def test_the_column_read_guard_sees_through_nested_functions():
    snippet = ("def f(b):\n"
               " def g(v): return FinVec.unit(b, v)\n"
               " for x in b:\n"
               "  if g(x): raise E('name')\n"
               " bilinear(b, b)\n")
    names = _called_names(*_loop_in(ast.parse(snippet), "f", "name"))
    assert names & VECTOR_PRODUCTS == {"FinVec.unit"}


def test_the_column_read_guard_sees_every_loop_that_names_the_axiom():
    snippet = ("def f(b, m):\n"
               " if m:\n"
               "  for x in b:\n"
               "   if m[x] != x: raise E('name')\n"
               " for x in b:\n"
               "  if bilinear(b, x) != x: raise E('name')\n"
               " for x in b:\n"
               "  FinVec.unit(b, x)\n")
    loops, nested = _loops_in(ast.parse(snippet), "f", "name")
    assert [_called_names(loop, nested) & VECTOR_PRODUCTS for loop in loops] == [{"bilinear"},
                                                                                  set()]
