"""One-sided Hopf algebras, their unit/idempotent splitting, and Hopf
dialgebras.

Frozen expectations come from closed forms computed by hand: the right
group algebra K[G x E] multiplies as (g, x)(h, y) = (gh, y) and splits
with Psi((g, x)) = (g, x0) (x) (e, x); the dialgebra of an augmented
conjugation structure racks group-like pairs by simultaneous conjugation;
the universal dialgebra of the one-relation Leibniz algebra sq2 has
e1 |- e1 = e2 (x) 1 + e1 (x) xi and e1 -| e1 = e1 (x) xi.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackalg.env_hopf import enveloping_hopf
from rackalg.errors import (
    AxiomViolation,
    DecompositionFailure,
    DegreeCapExceeded,
    RackalgError,
    SchemaError,
)
from rackalg.exact_core import FinMap, FinVec, SpanSolver, kernel_basis, span_basis
from rackalg.fixtures import load
from rackalg.groups import cyclic_group, group_hopf, symmetric_group
from rackalg.rack_bialg import augmented_conjugation, hopf_adjoint
from rackalg.right_hopf_dialg import (
    HopfDialgebra,
    RightHopfAlgebra,
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
            certify_one_sided(RightHopfAlgebra(
                ks3.coalgebra, ks3.mul_map(), ks3.antipode_map(), side="middle"))

    def test_corrupted_antipode_is_rejected(self):
        h = right_group_hopf(cyclic_group(2), ("p", "q"), "p")
        bad = FinMap.identity(h.basis)
        with pytest.raises(AxiomViolation) as exc:
            certify_one_sided(dataclasses.replace(h, antipode=bad, certified=False))
        assert exc.value.axiom in ("defining antipode", "double antipode")

    @pytest.mark.parametrize("table,key,value,axiom,witness", [
        ("mul", (("r1", "p"), ("r1", "q")), {("r0", "p"): 1},
         "associativity", (("r1", "p"), ("r0", "q"), ("r1", "q"))),
        ("antipode", ("r1", "q"), {("r1", "p"): 2}, "antipode comultiplicativity", ("r1", "q")),
        ("antipode", ("r1", "q"), {}, "antipode counit", ("r1", "q")),
        ("antipode", ("r1", "q"), {("r1", "q"): 1}, "defining antipode", ("r1", "q")),
        ("antipode", ("r0", "p"), {("r0", "q"): 1}, "antipode unit", "1"),
    ])
    def test_perturbed_entry_names_the_identity(self, rg_z2, table, key, value, axiom, witness):
        fmap = getattr(rg_z2, table)
        cols = dict(fmap.columns)
        cols[key] = FinVec.build(fmap.codomain, {lab: F(c) for lab, c in value.items()})
        bad = dataclasses.replace(rg_z2, certified=False,
                                  **{table: FinMap(fmap.domain, fmap.codomain, cols)})
        with pytest.raises(AxiomViolation) as exc:
            certify_one_sided(bad)
        assert (exc.value.axiom, exc.value.witness) == (axiom, witness)

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

    def test_suschkewitsch_requires_certification(self, ks3):
        raw = RightHopfAlgebra(ks3.coalgebra, ks3.mul_map(), ks3.antipode_map())
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
        assert dec.psi_inv is rg_z2.mul

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
        cols = dict(rg_z2.mul.columns)
        square = rg_z2.coalgebra.square
        del cols[(("r0", "p"), ("r0", "q"))]
        broken = dataclasses.replace(rg_z2, mul=FinMap(square, rg_z2.basis, cols))
        with pytest.raises(DecompositionFailure):
            suschkewitsch(broken)

    def test_fixed_space_of_mu_delta_is_strictly_larger(self, ks3):
        # the image of iota is 1-dimensional, yet mu(Delta(c)) = c has a
        # 2-dimensional solution space: the generalized-idempotent equation
        # does not characterize the idempotent part
        h = from_group_hopf(ks3, "right")
        iota = idempotent_projector(h)
        image = span_basis([iota.column(lab) for lab in h.basis.labels])
        mu_delta = h.mul.compose(h.coalgebra.delta)
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
    def test_group_algebra_as_dialgebra(self, ks3):
        d = hopf_as_dialgebra(ks3)
        assert d.certified and d.cap is None
        a = FinVec.unit(d.basis, "s213")
        b = FinVec.unit(d.basis, "s132")
        assert d.vprod(a, b) == d.dprod(a, b)
        assert d.vprod(a, b) == FinVec.unit(d.basis, ks3.group.mul("s213", "s132"))
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
                want = h.bracket_of_labels(j, k)
                got = lz.bracket_of_labels(j, k)
                assert dict(got.entries) == dict(want.entries)

    def test_unbalanced_products_are_rejected(self):
        # K[Z2] (x) K[Z2] with b(b1 (x) b2)b' = bb1 (x) b2b' is a dialgebra
        # candidate whose two products share no balanced bar-unit
        gh = group_hopf(cyclic_group(2))
        c = tensor_coalgebra(gh.coalgebra, gh.coalgebra)
        basis = c.basis
        g = gh.group
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

    def test_dialgebra_needs_certified_augmented_structure(self, s3):
        arb = augmented_conjugation(s3)
        with pytest.raises(RackalgError):
            dialgebra_from_augmented(dataclasses.replace(arb, certified=False))

    def test_group_dialgebra_rack_matches_hopf_adjoint(self, ks3):
        d = hopf_as_dialgebra(ks3)
        rb = hopf_dialgebra_rack(d)
        ad = hopf_adjoint(ks3)
        assert rb.carrier.basis.labels == ad.carrier.basis.labels
        for pair in rb.mu.domain.labels:
            assert dict(rb.mu.column(pair).entries) == dict(ad.mu.column(pair).entries)


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
        for x, y in itertools.product(env, repeat=2):
            if not ud_sq2.fits(ud_sq2.degree(x) + ud_sq2.degree(y)):
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


class TestUniversalProperty:
    def test_identity_extension(self, ud_sq2):
        sq2 = load("sq2")
        b = ud_sq2.basis
        phi = FinMap.from_function(sq2.basis, b,
                                   lambda j: FinVec.unit(b, ((j,), ())))
        hat = universal_property_instance(ud_sq2, sq2, phi, ud_sq2)
        for lab in b.labels:
            if ud_sq2.fits(ud_sq2.degree(lab)):
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
