"""One-sided Hopf algebras, their unit/idempotent decomposition, and
Hopf dialgebras.

A *right Hopf algebra* is a cocommutative bialgebra whose product is
associative and left-unital (1 a = a, while a 1 need not return a) and
whose antipode satisfies only the right convolution identity

    sum a1 S(a2) = eps(a) 1.

A *left Hopf algebra* is the mirror (right-unital, sum S(a1) a2 = eps(a) 1).
Every such algebra splits: the projector rho(a) = a 1 cuts out an honest
Hopf algebra H1, the projector iota(a) = sum S(a1) a2 cuts out the
coalgebra E of generalized units, and

    Psi(a) = sum (a1 1) (x) (S(a2) a3)

is a linear isomorphism H ~ H1 (x) E inverted by multiplication.  E is the
fixed space of iota; every element of E also satisfies mu(Delta(c)) = c,
but the converse containment fails already for K[S3], so the fixed-space
description is the one used throughout.

A *Hopf dialgebra* carries two associative products |- and -| sharing a
bar-unit (1 |- a = a = a -| 1), balanced (a |- 1 = 1 -| a), compatible in
the dialgebra sense, and an antipode making (A, |-) a right and (A, -|) a
left Hopf algebra.  Such structures produce Leibniz brackets on
primitives, rack products a |> b = sum (a1 |- b) -| S(a2), and a mirror of
the unit/idempotent decomposition.  The main source of examples is an
augmented rack bialgebra: the carrier tensored with its Hopf algebra is a
Hopf dialgebra, and applying this to the universal augmented structure of
a Leibniz algebra yields its universal enveloping dialgebra.

Degree-capped instances store sparse product tables with explicit degree
guards; identities whose evaluation would leave the cap are skipped and
counted, never silently truncated.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from rackalg.env_hopf import EnvelopingHopf
from rackalg.errors import (
    AxiomViolation,
    DecompositionFailure,
    DegreeCapExceeded,
    RackalgError,
    SchemaError,
)
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    Label,
    SpanSolver,
    bilinear,
    flip_map,
    kernel_basis,
    linear_sum,
    merge_labels,
    nullspace,
    span_basis,
    split_label,
    tensor_basis,
    tensor_product_map,
    tensor_sum,
)
from rackalg.groups import FiniteGroup, GroupHopf, group_like_coalgebra
from rackalg.leibniz import LeibnizAlgebra, check_leibniz, quotient_lie
from rackalg.rack_bialg import (
    AugmentedRackBialgebra,
    CheckReport,
    RackBialgebra,
    certify,
    uar_infinity,
)
from rackalg.symcoalg import (
    Coalgebra,
    check_coalgebra,
    check_coalgebra_map,
    check_multiplicative,
    primitives,
    tensor_coalgebra,
)

ZERO = Fraction(0)
ONE = Fraction(1)

__all__ = [
    "DialgebraDecomposition",
    "HopfDialgebra",
    "RightHopfAlgebra",
    "SuschkewitschDecomposition",
    "augmented_idempotent_basis",
    "certify_dialgebra",
    "certify_one_sided",
    "dialgebra_from_augmented",
    "dialgebra_leibniz",
    "dialgebra_rack_product",
    "from_group_hopf",
    "hopf_as_dialgebra",
    "hopf_dialgebra_rack",
    "hopf_part_projector",
    "idempotent_projector",
    "right_group_hopf",
    "structure_decomposition",
    "suschkewitsch",
    "trivial_one_sided_hopf",
    "universal_dialgebra",
    "universal_property_instance",
]


# ---------------------------------------------------------------------------
# one-sided Hopf algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RightHopfAlgebra:
    """Cocommutative bialgebra with a one-sided unit and one-sided antipode.

    ``side`` is the side of the antipode identity: "right" means the algebra
    is left-unital with sum a1 S(a2) = eps(a) 1; "left" is the mirror.
    ``certified`` is set only by :func:`certify_one_sided`.
    """

    coalgebra: Coalgebra
    mul: FinMap
    antipode: FinMap
    side: str = "right"
    certified: bool = False

    @property
    def basis(self) -> Basis:
        return self.coalgebra.basis

    @property
    def unit(self) -> FinVec:
        return self.coalgebra.unit

    def pair(self, la: Label, lb: Label) -> FinVec:
        """Product of two basis labels: a column of ``mul``."""
        return self.mul.column(merge_labels(self.basis, la, lb))

    def product(self, a: FinVec, b: FinVec) -> FinVec:
        return bilinear(self.basis, self.pair, a, b)


def certify_one_sided(h: RightHopfAlgebra) -> RightHopfAlgebra:
    """Full axiom suite for a one-sided Hopf algebra.

    Checks the carrier coalgebra, cocommutativity, associativity, the
    one-sided unit law, multiplicativity of the coproduct and counit, that
    the antipode is a coalgebra endomorphism, the defining convolution
    identity, and the standard consequences: the flipped convolution
    against the unit, the double and triple antipode formulas, the
    convolution square, unit absorption, and antimultiplicativity.
    """
    if h.side not in ("right", "left"):
        raise SchemaError(f"antipode side must be 'right' or 'left', got {h.side!r}")
    c = h.coalgebra
    basis = c.basis
    square = c.square
    if h.mul.domain != square or h.mul.codomain != basis:
        raise SchemaError("product must map the tensor square to the carrier")
    if h.antipode.domain != basis or h.antipode.codomain != basis:
        raise SchemaError("antipode must be an endomorphism of the carrier")
    check_coalgebra(c)
    flip = flip_map(basis, basis)
    for lab in basis.labels:
        col = c.delta.column(lab)
        if flip(col) != col:
            raise AxiomViolation("cocommutativity", lab, flip(col), col)

    labels = basis.labels
    one = c.unit
    s = h.antipode
    for la, lb, lc in itertools.product(labels, repeat=3):
        lhs = h.product(h.pair(la, lb), FinVec.unit(basis, lc))
        rhs = h.product(FinVec.unit(basis, la), h.pair(lb, lc))
        if lhs != rhs:
            raise AxiomViolation("associativity", (la, lb, lc), lhs, rhs)

    for lab in labels:
        a = FinVec.unit(basis, lab)
        got = h.product(one, a) if h.side == "right" else h.product(a, one)
        if got != a:
            raise AxiomViolation("one-sided unit", lab, got, a)

    check_multiplicative(c, h.pair, itertools.product(labels, repeat=2),
                         "product comultiplicativity", "product counit")
    if h.product(one, one) != one:
        raise AxiomViolation("unit idempotent", "1", h.product(one, one), one)

    check_coalgebra_map(c, c, s.column, labels, "antipode")
    if s(one) != one:
        raise AxiomViolation("antipode unit", "1", s(one), one)

    ident = FinMap.identity(basis)
    ss = s.compose(s)
    for lab in labels:
        a = FinVec.unit(basis, lab)
        want = one.scale(c.counit.get(lab, ZERO))

        def conv(f: FinMap, g: FinMap) -> FinVec:
            return linear_sum(basis, ((h.product(f.column(l1), g.column(l2)), cw)
                                      for l1, l2, cw in c.legs(lab)))

        if h.side == "right":
            if conv(ident, s) != want:
                raise AxiomViolation("defining antipode", lab, conv(ident, s), want)
            got = h.product(conv(s, ident), one)
            if got != want:
                raise AxiomViolation("antipode flip identity", lab, got, want)
            if ss.column(lab) != h.product(a, one):
                raise AxiomViolation("double antipode", lab, ss.column(lab), h.product(a, one))
            if conv(s, ss) != want:
                raise AxiomViolation("antipode convolution square", lab, conv(s, ss), want)
            if h.product(s.column(lab), one) != s.column(lab):
                raise AxiomViolation("antipode unit absorption", lab,
                                     h.product(s.column(lab), one), s.column(lab))
        else:
            if conv(s, ident) != want:
                raise AxiomViolation("defining antipode", lab, conv(s, ident), want)
            got = h.product(one, conv(ident, s))
            if got != want:
                raise AxiomViolation("antipode flip identity", lab, got, want)
            if ss.column(lab) != h.product(one, a):
                raise AxiomViolation("double antipode", lab, ss.column(lab), h.product(one, a))
            if conv(ss, s) != want:
                raise AxiomViolation("antipode convolution square", lab, conv(ss, s), want)
            if h.product(one, s.column(lab)) != s.column(lab):
                raise AxiomViolation("antipode unit absorption", lab,
                                     h.product(one, s.column(lab)), s.column(lab))
        if s(s(s(a))) != s(a):
            raise AxiomViolation("triple antipode", lab, s(s(s(a))), s(a))

    for la, lb in itertools.product(labels, repeat=2):
        lhs = s(h.pair(la, lb))
        rhs = h.product(s.column(lb), s.column(la))
        if lhs != rhs:
            raise AxiomViolation("antipode antihomomorphism", (la, lb), lhs, rhs)

    return dataclasses.replace(h, certified=True)


def from_group_hopf(gh: GroupHopf, side: str = "right") -> RightHopfAlgebra:
    """K[G] viewed one-sidedly; a genuine Hopf algebra satisfies both sides."""
    return certify_one_sided(
        RightHopfAlgebra(gh.coalgebra, gh.mul_map(), gh.antipode_map(), side))


def trivial_one_sided_hopf(c: Coalgebra, side: str = "right") -> RightHopfAlgebra:
    """The one-sidedly trivial product on a cocommutative coalgebra.

    Side "right" takes a b = eps(a) b with S = 1 eps; every element is then
    a generalized unit and the Hopf part collapses to the coaugmentation.
    Side "left" is the mirror a b = eps(b) a.
    """
    basis = c.basis
    square = c.square

    def col(pair: Label) -> FinVec:
        la, lb = split_label(basis, pair)
        if side == "right":
            return FinVec.unit(basis, lb).scale(c.counit.get(la, ZERO))
        return FinVec.unit(basis, la).scale(c.counit.get(lb, ZERO))

    mul = FinMap.from_function(square, basis, col)
    s = FinMap.from_function(basis, basis,
                             lambda lab: c.unit.scale(c.counit.get(lab, ZERO)))
    return certify_one_sided(RightHopfAlgebra(c, mul, s, side))


def right_group_hopf(group: FiniteGroup, points: Sequence[str], base: str,
                     side: str = "right") -> RightHopfAlgebra:
    """The algebra of a right group G x E on pair labels (g, x).

    The product (g, x)(h, y) = (gh, y) keeps the point of the right factor
    (side "left" keeps the left one), 1 = (e, base) is a one-sided unit,
    and S((g, x)) = (g^-1, base) is a one-sided antipode.
    """
    points = tuple(points)
    if not points:
        raise SchemaError("a right group needs at least one point")
    if len(set(points)) != len(points):
        raise SchemaError("duplicate points")
    if base not in points:
        raise SchemaError(f"base point {base!r} not among the points")
    labels = tuple((g, x) for g in group.elements for x in points)
    c = group_like_coalgebra(f"K[{group.name}xE{len(points)}]", labels, (group.unit, base))
    basis = c.basis
    square = c.square

    def col(pair: Label) -> FinVec:
        (g, x), (k, y) = split_label(basis, pair)
        return FinVec.unit(basis, (group.mul(g, k), y if side == "right" else x))

    mul = FinMap.from_function(square, basis, col)
    s = FinMap.from_function(
        basis, basis, lambda lab: FinVec.unit(basis, (group.inverse(lab[0]), base)))
    return certify_one_sided(RightHopfAlgebra(c, mul, s, side))


def idempotent_projector(h: RightHopfAlgebra) -> FinMap:
    """iota = S * id (side right) or id * S (side left); its image is E."""
    c = h.coalgebra
    s = h.antipode

    def term(l1: Label, l2: Label) -> FinVec:
        if h.side == "right":
            return h.product(s.column(l1), FinVec.unit(c.basis, l2))
        return h.product(FinVec.unit(c.basis, l1), s.column(l2))

    def col(lab: Label) -> FinVec:
        return linear_sum(c.basis, ((term(l1, l2), cw) for l1, l2, cw in c.legs(lab)))

    return FinMap.from_function(c.basis, c.basis, col)


def hopf_part_projector(h: RightHopfAlgebra) -> FinMap:
    """rho(a) = a 1 (side right) or 1 a (side left); its image is H1."""
    c = h.coalgebra

    def col(lab: Label) -> FinVec:
        a = FinVec.unit(c.basis, lab)
        return h.product(a, c.unit) if h.side == "right" else h.product(c.unit, a)

    return FinMap.from_function(c.basis, c.basis, col)


@dataclass(frozen=True)
class SuschkewitschDecomposition:
    """H ~ H1 (x) E: the Hopf part, the generalized units, and the splitting.

    ``psi_inv`` is the multiplication map; for side "right" the Hopf leg of
    ``psi`` comes first, for side "left" the idempotent leg does.
    """

    hopf: RightHopfAlgebra
    hopf_part: tuple[FinVec, ...]
    idempotent_part: tuple[FinVec, ...]
    psi: FinMap
    psi_inv: FinMap


def suschkewitsch(h: RightHopfAlgebra) -> SuschkewitschDecomposition:
    """Split a one-sided Hopf algebra into its Hopf part and its
    generalized units, verifying every structural identity on the way.

    Raises :class:`DecompositionFailure` with the first failing identity
    and a basis witness.
    """
    if not h.certified:
        raise RackalgError("suschkewitsch needs a certified one-sided Hopf algebra")
    c = h.coalgebra
    basis = c.basis
    square = c.square
    one = c.unit
    s = h.antipode

    def u(lab: Label) -> FinVec:
        return FinVec.unit(basis, lab)

    def eps(v: FinVec) -> Fraction:
        return c.eps_of(v)

    iota = idempotent_projector(h)
    if iota.compose(iota) != iota:
        raise DecompositionFailure("idempotent projector", "iota", iota.compose(iota), iota)
    check_coalgebra_map(c, c, iota.column, basis.labels, "idempotent", DecompositionFailure)

    e_basis = span_basis([iota.column(lab) for lab in basis.labels])
    fixed = kernel_basis(iota - FinMap.identity(basis))
    if span_basis(fixed) != e_basis:
        raise DecompositionFailure("idempotent part", "fixed space",
                                   len(fixed), len(e_basis))
    for i, ev in enumerate(e_basis):
        if iota(ev) != ev:
            raise DecompositionFailure("idempotent fixed", i, iota(ev), ev)
        # one-way containment: generalized idempotents include E, never conversely
        if h.mul(c.delta(ev)) != ev:
            raise DecompositionFailure("generalized idempotent", i, h.mul(c.delta(ev)), ev)
        for lab in basis.labels:
            b = u(lab)
            got = h.product(ev, b) if h.side == "right" else h.product(b, ev)
            if got != b.scale(eps(ev)):
                raise DecompositionFailure("generalized unit", (i, lab), got, b.scale(eps(ev)))
        if s(ev) != one.scale(eps(ev)):
            raise DecompositionFailure("idempotent antipode", i, s(ev), one.scale(eps(ev)))

    rho = hopf_part_projector(h)
    if rho.compose(rho) != rho:
        raise DecompositionFailure("hopf part projector", "rho", rho.compose(rho), rho)
    h1_solver = SpanSolver([rho.column(lab) for lab in basis.labels])
    h1_basis = h1_solver.vectors
    if not h1_solver.contains(one):
        raise DecompositionFailure("hopf part unit", "1", one, None)
    for i, uv in enumerate(h1_basis):
        if not h1_solver.contains(s(uv)):
            raise DecompositionFailure("hopf part antipode closure", i, s(uv), None)
        for j, vv in enumerate(h1_basis):
            if not h1_solver.contains(h.product(uv, vv)):
                raise DecompositionFailure("hopf part closure", (i, j),
                                           h.product(uv, vv), None)
        for which, fv, gv in (("right", FinMap.identity(basis), s),
                              ("left", s, FinMap.identity(basis))):
            acc = linear_sum(basis, ((h.product(fv.column(l1), gv.column(l2)), cw)
                                     for l1, l2, cw in c.sweedler(uv)))
            if acc != one.scale(eps(uv)):
                raise DecompositionFailure(f"hopf part {which} antipode", i, acc,
                                           one.scale(eps(uv)))
        got = h.product(uv, one) if h.side == "right" else h.product(one, uv)
        if got != uv:
            raise DecompositionFailure("hopf part unit law", i, got, uv)

    if basis.dim != len(h1_basis) * len(e_basis):
        raise DecompositionFailure("dimension product", basis.name,
                                   basis.dim, len(h1_basis) * len(e_basis))

    def psi_term(l1: Label, l2: Label, l3: Label, cw: Fraction
                 ) -> tuple[FinVec, FinVec, Fraction]:
        if h.side == "right":
            return h.product(u(l1), one), h.product(s.column(l2), u(l3)), cw
        return h.product(u(l1), s.column(l2)), h.product(one, u(l3)), cw

    def psi_col(lab: Label) -> FinVec:
        legs = c.sweedler3(u(lab))
        out = tensor_sum(square, (psi_term(l1, l2, l3, cw) for l1, l2, l3, cw in legs))
        alt = tensor_sum(square, (psi_term(l1, l3, l2, cw) for l1, l2, l3, cw in legs))
        if out != alt:
            raise DecompositionFailure("coproduct ordering", lab, out, alt)
        return out

    psi = FinMap.from_function(basis, square, psi_col)
    for lab in basis.labels:
        got = h.mul(psi.column(lab))
        if got != u(lab):
            raise DecompositionFailure("psi left inverse", lab, got, u(lab))
    for i, uv in enumerate(h1_basis):
        for j, ev in enumerate(e_basis):
            if h.side == "right":
                got = psi(h.product(uv, ev))
                want = uv.tensor(ev, square)
            else:
                got = psi(h.product(ev, uv))
                want = ev.tensor(uv, square)
            if got != want:
                raise DecompositionFailure("psi factor exchange", (i, j), got, want)

    s0 = FinMap.from_function(basis, basis,
                              lambda lab: one.scale(c.counit.get(lab, ZERO)))

    def transfer(va: FinVec, vb: FinVec) -> FinVec:
        def terms():
            for pa, ca in va.entries.items():
                a1, a2 = split_label(basis, pa)
                for pb, cb in vb.entries.items():
                    b1, b2 = split_label(basis, pb)
                    if h.side == "right":
                        # (u (x) c)(u' (x) c') = u u' (x) eps(c) c'
                        yield h.pair(a1, b1), u(b2), ca * cb * c.counit.get(a2, ZERO)
                    else:
                        # (c (x) u)(c' (x) u') = eps(c') c (x) u u'
                        yield u(a1), h.pair(a2, b2), ca * cb * c.counit.get(b1, ZERO)

        return tensor_sum(square, terms())

    for la, lb in itertools.product(basis.labels, repeat=2):
        lhs = psi(h.pair(la, lb))
        rhs = transfer(psi.column(la), psi.column(lb))
        if lhs != rhs:
            raise DecompositionFailure("psi multiplicative", (la, lb), lhs, rhs)
    s_pair = tensor_product_map(s, s0, square, square) if h.side == "right" \
        else tensor_product_map(s0, s, square, square)
    for lab in basis.labels:
        lhs = psi(s.column(lab))
        rhs = s_pair(psi.column(lab))
        if lhs != rhs:
            raise DecompositionFailure("psi antipode", lab, lhs, rhs)

    return SuschkewitschDecomposition(h, tuple(h1_basis), tuple(e_basis), psi, h.mul)


# ---------------------------------------------------------------------------
# Hopf dialgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopfDialgebra:
    """Cocommutative coalgebra with two products |- and -|, a shared
    bar-unit, and an antipode one-sided for each product.

    Product tables are sparse on label pairs; a missing pair whose degrees
    fit under ``cap`` multiplies to zero, while pairs beyond the cap raise
    :class:`DegreeCapExceeded`.  ``degrees`` is sparse with default 0.
    """

    coalgebra: Coalgebra
    vdash: Mapping[tuple[Label, Label], FinVec]
    dashv: Mapping[tuple[Label, Label], FinVec]
    antipode: FinMap
    degrees: Mapping[Label, int]
    cap: int | None = None
    certified: bool = False
    report: CheckReport | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_zero", FinVec.zero(self.basis))

    @property
    def basis(self) -> Basis:
        return self.coalgebra.basis

    @property
    def unit(self) -> FinVec:
        return self.coalgebra.unit

    def degree(self, lab: Label) -> int:
        return self.degrees.get(lab, 0)

    def fits(self, degree: int) -> bool:
        return self.cap is None or degree <= self.cap

    def _entry(self, table: Mapping[tuple[Label, Label], FinVec],
               la: Label, lb: Label, context: str) -> FinVec:
        need = self.degree(la) + self.degree(lb)
        if not self.fits(need):
            raise DegreeCapExceeded(need, self.cap, context)
        col = table.get((la, lb))
        return self._zero if col is None else col

    def vpair(self, la: Label, lb: Label) -> FinVec:
        """la |- lb on basis labels."""
        return self._entry(self.vdash, la, lb, "product |-")

    def dpair(self, la: Label, lb: Label) -> FinVec:
        """la -| lb on basis labels."""
        return self._entry(self.dashv, la, lb, "product -|")

    def vprod(self, a: FinVec, b: FinVec) -> FinVec:
        """a |- b."""
        return bilinear(self.basis, self.vpair, a, b)

    def dprod(self, a: FinVec, b: FinVec) -> FinVec:
        """a -| b."""
        return bilinear(self.basis, self.dpair, a, b)

    def s(self, a: FinVec) -> FinVec:
        """Antipode, guarded: undefined beyond the cap rather than zero."""
        for lab in a.entries:
            if not self.fits(self.degree(lab)):
                raise DegreeCapExceeded(self.degree(lab), self.cap, "antipode")
        return self.antipode(a)


def certify_dialgebra(d: HopfDialgebra) -> HopfDialgebra:
    """Full dialgebra axiom suite; returns a certified copy with a report.

    Bar-unit laws, balancedness, associativity of both products, the three
    mixed dialgebra axioms, multiplicativity of the coproduct and counit
    for both products, the coalgebra-endomorphism property of the antipode
    and both one-sided convolution identities, plus their standard
    consequences.  Identities touching degrees beyond the cap are skipped
    and counted in the report.
    """
    c = d.coalgebra
    basis = c.basis
    if d.antipode.domain != basis or d.antipode.codomain != basis:
        raise SchemaError("antipode must be an endomorphism of the carrier")
    if d.cap is not None and d.cap < 0:
        raise SchemaError("degree cap must be nonnegative")
    for lab, dg in d.degrees.items():
        if lab not in basis:
            raise SchemaError(f"degree assigned to unknown label {lab!r}")
        if not isinstance(dg, int) or dg < 0:
            raise SchemaError(f"degree of {lab!r} must be a nonnegative integer")
    for name, table in (("|-", d.vdash), ("-|", d.dashv)):
        for (la, lb), val in table.items():
            if la not in basis or lb not in basis:
                raise SchemaError(f"{name} table keyed by unknown labels ({la!r}, {lb!r})")
            if val.basis != basis:
                raise SchemaError(f"{name} table value escapes the carrier at ({la!r}, {lb!r})")
            if not d.fits(d.degree(la) + d.degree(lb)):
                raise SchemaError(f"{name} table entry ({la!r}, {lb!r}) beyond the cap")
    for lab in d.antipode.columns:
        if not d.fits(d.degree(lab)):
            raise SchemaError(f"antipode column {lab!r} beyond the cap")
    check_coalgebra(c)
    flip = flip_map(basis, basis)
    for lab in basis.labels:
        col = c.delta.column(lab)
        if flip(col) != col:
            raise AxiomViolation("cocommutativity", lab, flip(col), col)

    labs = basis.labels
    deg = {lab: d.degree(lab) for lab in labs}
    one = c.unit
    s = d.antipode

    def u(lab: Label) -> FinVec:
        return FinVec.unit(basis, lab)

    checked = 0
    skipped_labels = 0
    skipped_pairs = 0
    skipped_triples = 0

    for lab in labs:
        if not d.fits(deg[lab]):
            skipped_labels += 1
            continue
        a = u(lab)
        want = one.scale(c.counit.get(lab, ZERO))
        got = d.vprod(one, a)
        if got != a:
            raise AxiomViolation("bar-unit left", lab, got, a)
        got = d.dprod(a, one)
        if got != a:
            raise AxiomViolation("bar-unit right", lab, got, a)
        lhs = d.vprod(a, one)
        rhs = d.dprod(one, a)
        if lhs != rhs:
            raise AxiomViolation("balanced", lab, lhs, rhs)
        check_coalgebra_map(c, c, s.column, (lab,), "antipode")
        sa = s.column(lab)
        legs = c.legs(lab)

        def conv(term) -> FinVec:
            return linear_sum(basis, ((term(l1, l2), cw) for l1, l2, cw in legs))

        acc_r = conv(lambda l1, l2: d.vprod(u(l1), s.column(l2)))
        acc_l = conv(lambda l1, l2: d.dprod(s.column(l1), u(l2)))
        flip_r = conv(lambda l1, l2: d.vprod(d.vprod(s.column(l1), u(l2)), one))
        flip_l = conv(lambda l1, l2: d.dprod(one, d.dprod(u(l1), s.column(l2))))
        conv_r = conv(lambda l1, l2: d.vprod(s.column(l1), s(s.column(l2))))
        conv_l = conv(lambda l1, l2: d.dprod(s(s.column(l1)), s.column(l2)))
        if acc_r != want:
            raise AxiomViolation("right antipode for |-", lab, acc_r, want)
        if acc_l != want:
            raise AxiomViolation("left antipode for -|", lab, acc_l, want)
        if flip_r != want:
            raise AxiomViolation("antipode flip identity (|-)", lab, flip_r, want)
        if flip_l != want:
            raise AxiomViolation("antipode flip identity (-|)", lab, flip_l, want)
        if conv_r != want:
            raise AxiomViolation("antipode convolution square (|-)", lab, conv_r, want)
        if conv_l != want:
            raise AxiomViolation("antipode convolution square (-|)", lab, conv_l, want)
        ss = s(sa)
        if ss != d.vprod(a, one):
            raise AxiomViolation("double antipode (|-)", lab, ss, d.vprod(a, one))
        if ss != d.dprod(one, a):
            raise AxiomViolation("double antipode (-|)", lab, ss, d.dprod(one, a))
        if s(ss) != sa:
            raise AxiomViolation("triple antipode", lab, s(ss), sa)
        if d.vprod(sa, one) != sa:
            raise AxiomViolation("antipode unit absorption (|-)", lab, d.vprod(sa, one), sa)
        if d.dprod(one, sa) != sa:
            raise AxiomViolation("antipode unit absorption (-|)", lab, d.dprod(one, sa), sa)
        checked += 1
    if s(one) != one:
        raise AxiomViolation("antipode unit", "1", s(one), one)

    for la, lb in itertools.product(labs, repeat=2):
        if not d.fits(deg[la] + deg[lb]):
            skipped_pairs += 1
            continue
        for name, pair in (("|-", d.vpair), ("-|", d.dpair)):
            check_multiplicative(c, pair, ((la, lb),), f"product comultiplicativity ({name})",
                                 f"product counit ({name})")
        lhs = s(d.vpair(la, lb))
        rhs = d.vprod(s.column(lb), s.column(la))
        if lhs != rhs:
            raise AxiomViolation("antipode antihomomorphism (|-)", (la, lb), lhs, rhs)
        lhs = s(d.dpair(la, lb))
        rhs = d.dprod(s.column(lb), s.column(la))
        if lhs != rhs:
            raise AxiomViolation("antipode antihomomorphism (-|)", (la, lb), lhs, rhs)
        checked += 1

    for la, lb, lc in itertools.product(labs, repeat=3):
        if not d.fits(deg[la] + deg[lb] + deg[lc]):
            skipped_triples += 1
            continue
        a, cc = u(la), u(lc)
        ab_v = d.vpair(la, lb)
        ab_d = d.dpair(la, lb)
        bc_v = d.vpair(lb, lc)
        bc_d = d.dpair(lb, lc)
        lhs = d.vprod(ab_v, cc)
        rhs = d.vprod(a, bc_v)
        if lhs != rhs:
            raise AxiomViolation("associativity (|-)", (la, lb, lc), lhs, rhs)
        if d.vprod(ab_d, cc) != lhs:
            raise AxiomViolation("left products agree", (la, lb, lc),
                                 d.vprod(ab_d, cc), lhs)
        lhs = d.dprod(ab_d, cc)
        rhs = d.dprod(a, bc_d)
        if lhs != rhs:
            raise AxiomViolation("associativity (-|)", (la, lb, lc), lhs, rhs)
        if d.dprod(a, bc_v) != rhs:
            raise AxiomViolation("right products agree", (la, lb, lc),
                                 d.dprod(a, bc_v), rhs)
        lhs = d.dprod(ab_v, cc)
        rhs = d.vprod(a, bc_d)
        if lhs != rhs:
            raise AxiomViolation("inner associativity", (la, lb, lc), lhs, rhs)
        checked += 1

    report = CheckReport(
        True, checked,
        detail=(f"labels skipped={skipped_labels}, pairs skipped={skipped_pairs}, "
                f"triples skipped={skipped_triples}"))
    return dataclasses.replace(d, certified=True, report=report)


def hopf_as_dialgebra(hopf) -> HopfDialgebra:
    """A cocommutative Hopf algebra as the dialgebra with |- = -| = product."""
    if isinstance(hopf, GroupHopf):
        basis = hopf.basis
        table = {(x, y): FinVec.unit(basis, hopf.group.mul(x, y))
                 for x in hopf.group.elements for y in hopf.group.elements}
        return certify_dialgebra(HopfDialgebra(
            hopf.coalgebra, table, table, hopf.antipode_map(), {}, None))
    if isinstance(hopf, EnvelopingHopf):
        basis = hopf.basis
        degrees = {w: len(w) for w in basis.labels if len(w)}
        table: dict[tuple[Label, Label], FinVec] = {}
        for wa in basis.labels:
            for wb in basis.labels:
                if hopf.fits(len(wa) + len(wb)):
                    val = hopf.straighten(wa + wb)
                    if not val.is_zero:
                        table[(wa, wb)] = val
        return certify_dialgebra(HopfDialgebra(
            hopf.coalgebra, table, table, hopf.antipode_map(), degrees, hopf.cap))
    raise SchemaError(f"no dialgebra structure for {type(hopf).__name__}")


def _carrier_degree(hopf, lab: Label) -> int:
    bl, hl = lab
    return (len(bl) if isinstance(bl, tuple) else 0) + hopf.degree(hl)


def dialgebra_from_augmented(arb: AugmentedRackBialgebra) -> HopfDialgebra:
    """The Hopf dialgebra on carrier (x) Hopf of an augmented rack bialgebra.

    With Phi(b (x) h) = phi(b) h, the products are x |- y = Phi(x).y (the
    Hopf algebra acting diagonally: on the carrier leg through the module
    action, on its own leg by multiplication) and x -| y = x.Phi(y) (right
    multiplication on the Hopf leg), with S(x) = 1 (x) S(Phi(x)).  After
    certification, brackets of primitive elements are verified to land as
    the action and the commutator predict.
    """
    if not arb.certified:
        raise RackalgError("dialgebra_from_augmented needs a certified augmented structure")
    bc = arb.carrier
    hopf = arb.hopf
    hc = hopf.coalgebra
    carrier = tensor_coalgebra(bc, hc)
    basis = carrier.basis
    degrees = {lab: _carrier_degree(hopf, lab) for lab in basis.labels
               if _carrier_degree(hopf, lab)}
    phi_cache: dict[Label, FinVec] = {}

    def phi_full(lab: Label) -> FinVec:
        v = phi_cache.get(lab)
        if v is None:
            bl, hl = lab
            v = hopf.product(arb.phi.column(bl), FinVec.unit(hc.basis, hl))
            phi_cache[lab] = v
        return v

    s_hopf = hopf.antipode_map()
    vdash: dict[tuple[Label, Label], FinVec] = {}
    dashv: dict[tuple[Label, Label], FinVec] = {}
    for x in basis.labels:
        dx = degrees.get(x, 0)
        if not hopf.fits(dx):
            continue
        ux = phi_full(x)
        sw_x = hc.sweedler(ux)
        for y in basis.labels:
            if not hopf.fits(dx + degrees.get(y, 0)):
                continue
            by, hy = y
            acc = tensor_sum(basis, ((arb.act(FinVec.unit(hc.basis, u1), FinVec.unit(bc.basis, by)),
                                      hopf.pair(u2, hy), cw) for u1, u2, cw in sw_x))
            if not acc.is_zero:
                vdash[(x, y)] = acc
    for x in basis.labels:
        dx = degrees.get(x, 0)
        bx, hx = x
        for y in basis.labels:
            if not hopf.fits(dx + degrees.get(y, 0)):
                continue
            val = FinVec.unit(bc.basis, bx).tensor(
                hopf.product(FinVec.unit(hc.basis, hx), phi_full(y)), basis)
            if not val.is_zero:
                dashv[(x, y)] = val

    s_cols: dict[Label, FinVec] = {}
    for lab in basis.labels:
        if not hopf.fits(degrees.get(lab, 0)):
            continue
        val = bc.unit.tensor(s_hopf(phi_full(lab)), basis)
        if not val.is_zero:
            s_cols[lab] = val
    antipode = FinMap(basis, basis, s_cols)

    d = certify_dialgebra(HopfDialgebra(carrier, vdash, dashv, antipode, degrees, hopf.cap))

    prim_b = primitives(bc)
    prim_h = primitives(hc)
    unit_b = bc.unit
    unit_h = hc.unit
    if hopf.fits(2):
        def emb_b(x: FinVec) -> FinVec:
            return x.tensor(unit_h, basis)

        def emb_h(x: FinVec) -> FinVec:
            return unit_b.tensor(x, basis)

        def bracket(a: FinVec, b: FinVec) -> FinVec:
            return d.vprod(a, b) - d.dprod(b, a)

        def comm(x: FinVec, y: FinVec) -> FinVec:
            return hopf.product(x, y) - hopf.product(y, x)

        for i, x in enumerate(prim_b):
            px = arb.phi(x)
            for j, y in enumerate(prim_b):
                lhs = bracket(emb_b(x), emb_b(y))
                rhs = emb_b(arb.act(px, y))
                if lhs != rhs:
                    raise AxiomViolation("primitive bracket", ("carrier", i, j), lhs, rhs)
            for j, eta in enumerate(prim_h):
                lhs = bracket(emb_b(x), emb_h(eta))
                rhs = emb_h(comm(px, eta))
                if lhs != rhs:
                    raise AxiomViolation("primitive bracket", ("mixed", i, j), lhs, rhs)
        for i, xi in enumerate(prim_h):
            for j, y in enumerate(prim_b):
                lhs = bracket(emb_h(xi), emb_b(y))
                rhs = emb_b(arb.act(xi, y))
                if lhs != rhs:
                    raise AxiomViolation("primitive bracket", ("action", i, j), lhs, rhs)
            for j, eta in enumerate(prim_h):
                lhs = bracket(emb_h(xi), emb_h(eta))
                rhs = emb_h(comm(xi, eta))
                if lhs != rhs:
                    raise AxiomViolation("primitive bracket", ("hopf", i, j), lhs, rhs)
    return d


def dialgebra_rack_product(d: HopfDialgebra, a: FinVec, b: FinVec) -> FinVec:
    """a |> b = sum (a1 |- b) -| S(a2)."""
    c = d.coalgebra
    basis = c.basis
    return linear_sum(basis, (
        (d.dprod(d.vprod(FinVec.unit(basis, l1), b), d.s(FinVec.unit(basis, l2))), ca * cw)
        for la, ca in a.entries.items() for l1, l2, cw in c.legs(la)))


def dialgebra_leibniz(d: HopfDialgebra) -> LeibnizAlgebra:
    """The bracket [a, b] = a |- b - b -| a restricted to primitives.

    The restriction closes on the primitive subspace and satisfies the
    Leibniz identity, both of which are verified.
    """
    if not d.certified:
        raise RackalgError("dialgebra_leibniz needs a certified dialgebra")
    prims = primitives(d.coalgebra)
    solver = SpanSolver(prims)
    entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    for j, x in enumerate(prims, start=1):
        for k, y in enumerate(prims, start=1):
            v = d.vprod(x, y) - d.dprod(y, x)
            coords = solver.coordinates(v)
            if coords is None:
                raise RackalgError("dialgebra bracket of primitives left the primitive subspace")
            entries[(j, k)] = {i: cv for i, cv in enumerate(coords, start=1) if cv}
    h = LeibnizAlgebra.from_table(len(prims), entries, name=f"Leibniz({d.basis.name})")
    check_leibniz(h)
    return h


def _restrict_coalgebra(c: Coalgebra, keep: Sequence[Label], name: str) -> Coalgebra:
    """Subcoalgebra spanned by a degree-closed subset of basis labels."""
    sub = Basis(name, tuple(keep))
    square = tensor_basis(sub, sub)

    def col(lab: Label) -> FinVec:
        items = []
        for l1, l2, cw in c.legs(lab):
            if l1 not in sub or l2 not in sub:
                raise RackalgError(f"label set is not a subcoalgebra at {lab!r}")
            items.append(((l1, l2), cw))
        return FinVec.build(square, items)

    delta = FinMap.from_function(sub, square, col)
    counit = {lab: c.counit[lab] for lab in keep if lab in c.counit}
    unit = FinVec.build(sub, c.unit.entries)
    return Coalgebra(sub, delta, counit, unit)


def hopf_dialgebra_rack(d: HopfDialgebra, degree: int | None = None) -> RackBialgebra:
    """The rack bialgebra a |> b = sum (a1 |- b) -| S(a2) of a Hopf dialgebra.

    A capped dialgebra restricts the carrier to degrees <= cap // 2 (or to
    the requested ``degree``) so that every product pair fits; the rack
    product preserves the degree of its second argument, so the truncation
    is closed.  Module identities tying |> back to both dialgebra products
    are verified on every triple within the cap.
    """
    if not d.certified:
        raise RackalgError("hopf_dialgebra_rack needs a certified dialgebra")
    c = d.coalgebra
    if d.cap is None:
        carrier = c
    else:
        t = d.cap // 2 if degree is None else degree
        if 2 * t > d.cap:
            raise DegreeCapExceeded(2 * t, d.cap, "rack products need pairs inside the cap")
        keep = [lab for lab in c.basis.labels if d.degree(lab) <= t]
        carrier = _restrict_coalgebra(c, keep, f"{c.basis.name} (deg<={t})")
    basis = carrier.basis

    rack_tab: dict[tuple[Label, Label], FinVec] = {}

    def rack_units(la: Label, lb: Label) -> FinVec:
        col = rack_tab.get((la, lb))
        if col is None:
            col = dialgebra_rack_product(
                d, FinVec.unit(c.basis, la), FinVec.unit(c.basis, lb))
            rack_tab[(la, lb)] = col
        return col

    def mu_col(pair: Label) -> FinVec:
        la, lb = split_label(basis, pair)
        val = rack_units(la, lb)
        for lab in val.entries:
            if lab not in basis:
                raise DegreeCapExceeded(d.degree(lab), d.cap,
                                        "rack product left the truncated carrier")
        return FinVec.build(basis, val.entries)

    rb = certify(RackBialgebra(carrier, FinMap.from_function(carrier.square, basis, mu_col)))

    labs = c.basis.labels
    deg = {lab: d.degree(lab) for lab in labs}
    for la, lb, lc in itertools.product(labs, repeat=3):
        if not d.fits(deg[la] + deg[lb] + deg[lc]):
            continue
        a = FinVec.unit(c.basis, la)
        b = FinVec.unit(c.basis, lb)
        cc = FinVec.unit(c.basis, lc)
        lhs = bilinear(c.basis, rack_units, a, rack_units(lb, lc))
        r1 = bilinear(c.basis, rack_units, d.vprod(a, b), cc)
        if lhs != r1:
            raise AxiomViolation("module identity (|-)", (la, lb, lc), lhs, r1)
        r2 = bilinear(c.basis, rack_units, d.dprod(a, b), cc)
        if lhs != r2:
            raise AxiomViolation("module identity (-|)", (la, lb, lc), lhs, r2)
        for name, pr in (("|-", d.vprod), ("-|", d.dprod)):
            lhs2 = bilinear(c.basis, rack_units, a, pr(b, cc))
            rhs2 = linear_sum(c.basis, ((pr(rack_units(l1, lb), rack_units(l2, lc)), cw)
                                        for l1, l2, cw in c.legs(la)))
            if lhs2 != rhs2:
                raise AxiomViolation(f"module algebra ({name})", (la, lb, lc), lhs2, rhs2)
    return rb


# ---------------------------------------------------------------------------
# structure decomposition of a Hopf dialgebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DialgebraDecomposition:
    """A ~ E (x) H: -| idempotents, the associative quotient image 1 -| A,
    and the splitting Psi(a) = sum (a1 -| S(a2)) (x) (1 -| a3)."""

    dialgebra: HopfDialgebra
    idempotent_part: tuple[FinVec, ...]
    hopf_part: tuple[FinVec, ...]
    psi: FinMap
    report: CheckReport


def structure_decomposition(d: HopfDialgebra) -> DialgebraDecomposition:
    """Split a Hopf dialgebra into generalized bar-units and its Hopf part.

    E is the image (equivalently fixed space) of iota(a) = sum a1 -| S(a2);
    H is the image of pi(a) = 1 -| a, on which both products agree and
    which absorbs the associativity defect: ker pi is exactly the span of
    the differences x |- y - x -| y.  The transferred products on E (x) H,
    the antipode exchange, and the splitting of primitives into a central
    ideal and a Leibniz-closed Hopf summand are all verified.
    """
    if not d.certified:
        raise RackalgError("structure_decomposition needs a certified dialgebra")
    c = d.coalgebra
    basis = c.basis
    square = c.square
    one = c.unit
    labs = basis.labels
    fit_labels = [lab for lab in labs if d.fits(d.degree(lab))]
    checked = 0
    skipped = len(labs) - len(fit_labels)

    def u(lab: Label) -> FinVec:
        return FinVec.unit(basis, lab)

    def eps(v: FinVec) -> Fraction:
        return c.eps_of(v)

    def apply_cols(cols: dict[Label, FinVec], v: FinVec, target: Basis, context: str) -> FinVec:
        """The linear map given by ``cols`` on the labels within the cap."""
        def col(lab: Label) -> FinVec:
            got = cols.get(lab)
            if got is None:
                raise DegreeCapExceeded(d.degree(lab), d.cap, context)
            return got

        return linear_sum(target, ((col(lab), cv) for lab, cv in v.entries.items()))

    iota_cols = {lab: linear_sum(basis, ((d.dprod(u(l1), d.s(u(l2))), cw)
                                         for l1, l2, cw in c.legs(lab)))
                 for lab in fit_labels}

    def iota(v: FinVec) -> FinVec:
        return apply_cols(iota_cols, v, basis, "idempotent projector")

    for lab in fit_labels:
        v = iota_cols[lab]
        if iota(v) != v:
            raise DecompositionFailure("idempotent projector", lab, iota(v), v)
        checked += 1
    e_solver = SpanSolver(list(iota_cols.values()))
    e_basis = e_solver.vectors
    fit_basis = Basis(f"{basis.name} (within cap)", tuple(fit_labels))
    delta_map = FinMap(fit_basis, basis,
                       {lab: iota_cols[lab] - u(lab) for lab in fit_labels
                        if not (iota_cols[lab] - u(lab)).is_zero})
    fixed = [FinVec.build(basis, v.entries) for v in kernel_basis(delta_map)]
    if span_basis(fixed) != e_basis:
        raise DecompositionFailure("idempotent part", "fixed space",
                                   len(fixed), len(e_basis))
    for i, ev in enumerate(e_basis):
        sweedler_sums = linear_sum(basis, ((d.dpair(l1, l2), cw) for l1, l2, cw in c.sweedler(ev)))
        if sweedler_sums != ev:
            raise DecompositionFailure("generalized idempotent (-|)", i, sweedler_sums, ev)
        if d.s(ev) != one.scale(eps(ev)):
            raise DecompositionFailure("idempotent antipode", i, d.s(ev), one.scale(eps(ev)))
        ev_deg = max((d.degree(lab) for lab in ev.entries), default=0)
        for lab in fit_labels:
            if not d.fits(ev_deg + d.degree(lab)):
                skipped += 1
                continue
            b = u(lab)
            got = d.vprod(ev, b)
            if got != b.scale(eps(ev)):
                raise DecompositionFailure("generalized bar-unit (|-)", (i, lab),
                                           got, b.scale(eps(ev)))
            got = d.dprod(b, ev)
            if got != b.scale(eps(ev)):
                raise DecompositionFailure("generalized bar-unit (-|)", (i, lab),
                                           got, b.scale(eps(ev)))
            checked += 1

    pi_cols = {lab: d.dprod(one, u(lab)) for lab in fit_labels}

    def pi(v: FinVec) -> FinVec:
        return apply_cols(pi_cols, v, basis, "hopf part projector")

    for lab in fit_labels:
        if pi(pi_cols[lab]) != pi_cols[lab]:
            raise DecompositionFailure("hopf part projector", lab,
                                       pi(pi_cols[lab]), pi_cols[lab])
    h_solver = SpanSolver(list(pi_cols.values()))
    h_basis = h_solver.vectors
    if not h_solver.contains(one):
        raise DecompositionFailure("hopf part unit", "1", one, None)

    def vec_deg(v: FinVec) -> int:
        return max((d.degree(lab) for lab in v.entries), default=0)

    for i, uv in enumerate(h_basis):
        if not h_solver.contains(d.s(uv)):
            raise DecompositionFailure("hopf part antipode closure", i, d.s(uv), None)
        for j, vv in enumerate(h_basis):
            if not d.fits(vec_deg(uv) + vec_deg(vv)):
                skipped += 1
                continue
            left = d.vprod(uv, vv)
            right = d.dprod(uv, vv)
            if left != right:
                raise DecompositionFailure("hopf part products agree", (i, j), left, right)
            if not h_solver.contains(right):
                raise DecompositionFailure("hopf part closure", (i, j), right, None)
            checked += 1

    for la, lb in itertools.product(fit_labels, repeat=2):
        if not d.fits(d.degree(la) + d.degree(lb)):
            skipped += 1
            continue
        merged_v = pi(d.vprod(u(la), u(lb)))
        merged_d = pi(d.dprod(u(la), u(lb)))
        if merged_v != merged_d:
            raise DecompositionFailure("projection merges products", (la, lb),
                                       merged_v, merged_d)
        split = d.dprod(pi_cols[la], pi_cols[lb])
        if merged_d != split:
            raise DecompositionFailure("projection multiplicative", (la, lb),
                                       merged_d, split)
        checked += 1

    pi_map = FinMap(fit_basis, basis,
                    {lab: pi_cols[lab] for lab in fit_labels if not pi_cols[lab].is_zero})
    pi_kernel = [FinVec.build(basis, v.entries) for v in kernel_basis(pi_map)]
    ideal_gens = []
    for la, lb in itertools.product(fit_labels, repeat=2):
        if not d.fits(d.degree(la) + d.degree(lb)):
            continue
        g = d.vprod(u(la), u(lb)) - d.dprod(u(la), u(lb))
        if not g.is_zero:
            ideal_gens.append(g)
    ideal = span_basis(ideal_gens)
    if span_basis(pi_kernel) != ideal:
        raise DecompositionFailure("associativity ideal", "kernel",
                                   len(pi_kernel), len(ideal))

    psi_cols = {lab: tensor_sum(square, ((d.dprod(u(l1), d.s(u(l2))), d.dprod(one, u(l3)), cw)
                                         for l1, l2, l3, cw in c.sweedler3(u(lab))))
                for lab in fit_labels}
    psi = FinMap(basis, square, {lab: v for lab, v in psi_cols.items() if not v.is_zero})

    def psi_apply(v: FinVec) -> FinVec:
        return apply_cols(psi_cols, v, square, "psi")

    def legs(w: FinVec) -> list[tuple[Label, Label, Fraction]]:
        """Terms (l1, l2, coefficient) of a vector of the tensor square."""
        return [split_label(basis, pair) + (cw,) for pair, cw in w.entries.items()]

    for lab in fit_labels:
        acc = linear_sum(basis, ((d.dpair(l1, l2), cw) for l1, l2, cw in legs(psi_cols[lab])))
        if acc != u(lab):
            raise DecompositionFailure("psi left inverse", lab, acc, u(lab))
        checked += 1

    for i, ev in enumerate(e_basis):
        for j, uv in enumerate(h_basis):
            if not d.fits(vec_deg(ev) + vec_deg(uv)):
                skipped += 1
                continue
            w = d.dprod(ev, uv)
            got = psi_apply(w)
            want = ev.tensor(uv, square)
            if got != want:
                raise DecompositionFailure("psi factor exchange", (i, j), got, want)
            checked += 1

    if d.cap is None and basis.dim != len(e_basis) * len(h_basis):
        raise DecompositionFailure("dimension product", basis.name,
                                   basis.dim, len(e_basis) * len(h_basis))

    eps_lab = {lab: c.counit.get(lab, ZERO) for lab in labs}
    for la, lb in itertools.product(fit_labels, repeat=2):
        if not d.fits(d.degree(la) + d.degree(lb)):
            skipped += 1
            continue
        try:
            # transferred |-: (c (x) h)(c' (x) h') = eps(c) sum (h1 |> c') (x) (h2 -| h')
            lhs = psi_apply(d.vpair(la, lb))
            legs_a = legs(psi_cols[la])
            legs_b = legs(psi_cols[lb])
            rhs = tensor_sum(square, (
                (dialgebra_rack_product(d, u(h1), u(b1)), d.dpair(h2, b2),
                 ca * cb * eps_lab[a1] * cw)
                for a1, a2, ca in legs_a if eps_lab[a1]
                for b1, b2, cb in legs_b
                for h1, h2, cw in c.legs(a2)))
            if lhs != rhs:
                raise DecompositionFailure("psi multiplicative (|-)", (la, lb), lhs, rhs)
            # transferred -|: (c (x) h)(c' (x) h') = eps(c') c (x) (h -| h')
            lhs = psi_apply(d.dpair(la, lb))
            rhs = tensor_sum(square, ((u(a1), d.dpair(a2, b2), ca * cb * eps_lab[b1])
                                      for a1, a2, ca in legs_a
                                      for b1, b2, cb in legs_b if eps_lab[b1]))
            if lhs != rhs:
                raise DecompositionFailure("psi multiplicative (-|)", (la, lb), lhs, rhs)
            checked += 1
        except DegreeCapExceeded:
            skipped += 1
    for lab in fit_labels:
        try:
            lhs = psi_apply(d.s(u(lab)))
            rhs = tensor_sum(square, ((one, d.s(u(l2)), ca * eps_lab[l1])
                                      for l1, l2, ca in legs(psi_cols[lab])))
            if lhs != rhs:
                raise DecompositionFailure("psi antipode", lab, lhs, rhs)
            checked += 1
        except DegreeCapExceeded:
            skipped += 1

    prims = primitives(c)

    def intersect(solver: SpanSolver) -> list[FinVec]:
        rows: dict[Label, dict[int, Fraction]] = {}
        for i, p in enumerate(prims):
            for lab, cv in solver.residue(p).entries.items():
                rows.setdefault(lab, {})[i] = cv
        combos = nullspace(rows.values(), len(prims))
        return [linear_sum(basis, ((prims[i], cv) for i, cv in combo.items())) for combo in combos]

    pe = intersect(e_solver)
    ph = intersect(h_solver)
    prim_solver = SpanSolver(pe + ph)
    if len(pe) + len(ph) != len(prims) or not all(prim_solver.contains(p) for p in prims):
        raise DecompositionFailure("primitive splitting", "dimension",
                                   len(pe) + len(ph), len(prims))

    def bracket(a: FinVec, b: FinVec) -> FinVec:
        return d.vprod(a, b) - d.dprod(b, a)

    ph_solver = SpanSolver(ph)
    for i, z in enumerate(pe):
        for j, w in enumerate(pe + ph):
            if not d.fits(vec_deg(z) + vec_deg(w)):
                skipped += 1
                continue
            got = bracket(z, w)
            if not got.is_zero:
                raise DecompositionFailure("central ideal", (i, j), got, None)
            checked += 1
    for i, xi in enumerate(ph):
        for j, z in enumerate(pe):
            if not d.fits(vec_deg(xi) + vec_deg(z)):
                skipped += 1
                continue
            got = bracket(xi, z)
            want = dialgebra_rack_product(d, xi, z)
            if got != want:
                raise DecompositionFailure("mixed bracket is the action", (i, j), got, want)
            checked += 1
        for j, eta in enumerate(ph):
            if not d.fits(vec_deg(xi) + vec_deg(eta)):
                skipped += 1
                continue
            if not ph_solver.contains(bracket(xi, eta)):
                raise DecompositionFailure("hopf part bracket closure", (i, j),
                                           bracket(xi, eta), None)
            checked += 1

    report = CheckReport(True, checked, detail=f"skipped={skipped}")
    return DialgebraDecomposition(d, tuple(e_basis), tuple(h_basis), psi, report)


def augmented_idempotent_basis(arb: AugmentedRackBialgebra) -> list[FinVec]:
    """Spanning vectors sum b1 (x) S(phi(b2)) of the idempotent part of the
    dialgebra built on carrier (x) Hopf, one per carrier basis label."""
    bc = arb.carrier
    hopf = arb.hopf
    hc = hopf.coalgebra
    carrier = tensor_coalgebra(bc, hc)
    s_hopf = hopf.antipode_map()
    return [tensor_sum(carrier.basis, ((FinVec.unit(bc.basis, b1), s_hopf(arb.phi.column(b2)), cw)
                                       for b1, b2, cw in bc.legs(bl)))
            for bl in bc.basis.labels]


# ---------------------------------------------------------------------------
# the universal dialgebra of a Leibniz algebra
# ---------------------------------------------------------------------------


def universal_dialgebra(h: LeibnizAlgebra, cap: int) -> HopfDialgebra:
    """The universal enveloping dialgebra of a Leibniz algebra, truncated.

    The carrier is (K + h) (x) U(h / Q(h)) with the enveloping factor
    capped at ``cap``.  The h-degree-one labels span a summand closed
    under both products, as does the enveloping degree-zero part, and the
    two summands are verified to not leak into each other.
    """
    if cap < 2:
        raise SchemaError("the universal dialgebra needs cap >= 2 for bracket headroom")
    arb = uar_infinity(h, 1, env_cap=cap)
    d = dialgebra_from_augmented(arb)
    basis = d.basis

    def part(lab: Label) -> int:
        return len(lab[0])

    for pname, want in (("enveloping", 0), ("dialgebra", 1)):
        members = [lab for lab in basis.labels if part(lab) == want]
        for x, y in itertools.product(members, repeat=2):
            if not d.fits(d.degree(x) + d.degree(y)):
                continue
            for sym, pr in (("|-", d.vprod), ("-|", d.dprod)):
                val = pr(FinVec.unit(basis, x), FinVec.unit(basis, y))
                for lab in val.entries:
                    if part(lab) != want:
                        raise DecompositionFailure(
                            f"{pname} summand closure", (x, y, sym), val, None)
    return d


def universal_property_instance(ud: HopfDialgebra, h: LeibnizAlgebra, phi: FinMap,
                                target: HopfDialgebra) -> FinMap:
    """Extend a Leibniz morphism h -> Prim(target) over the universal
    dialgebra of h and verify the extension is a dialgebra morphism.

    ``phi`` sends basis elements of h to primitive elements whose dialgebra
    bracket matches the h bracket.  The returned map sends 1 (x) w to the
    -| product of the projected generator images and x (x) w to phi(x) -|
    that; it fixes the bar-unit and restricts to phi on the generators.
    """
    if not ud.certified or not target.certified:
        raise RackalgError("universal_property_instance needs certified dialgebras")
    tc = target.coalgebra
    if phi.domain != h.basis or phi.codomain != tc.basis:
        raise SchemaError("phi must map the Leibniz basis into the target carrier")
    t_one = tc.unit
    t_square = tc.square
    for j in h.basis.labels:
        v = phi.column(j)
        want = v.tensor(t_one, t_square) + t_one.tensor(v, t_square)
        if tc.delta(v) != want:
            raise AxiomViolation("primitive image", j, tc.delta(v), want)
    for j, k in itertools.product(h.basis.labels, repeat=2):
        lhs = phi(h.bracket_of_labels(j, k))
        rhs = target.vprod(phi.column(j), phi.column(k)) - target.dprod(
            phi.column(k), phi.column(j))
        if lhs != rhs:
            raise AxiomViolation("leibniz morphism", (j, k), lhs, rhs)

    q = quotient_lie(h)
    barred = {lab: target.dprod(t_one, phi(q.section.column(lab)))
              for lab in q.algebra.basis.labels}
    basis = ud.basis

    def hat_col(lab: Label) -> FinVec:
        if not ud.fits(ud.degree(lab)):
            return FinVec.zero(tc.basis)
        bl, wl = lab
        acc = t_one
        for letter in wl:
            acc = target.dprod(acc, barred[letter])
        if len(bl):
            acc = target.dprod(phi.column(bl[0]), acc)
        return acc

    hat = FinMap.from_function(basis, tc.basis, hat_col)

    unit_lab = next(lab for lab in basis.labels
                    if len(lab[0]) == 0 and len(lab[1]) == 0)
    if hat_col(unit_lab) != t_one:
        raise DecompositionFailure("bar-unit preserved", unit_lab,
                                   hat_col(unit_lab), t_one)
    for j in h.basis.labels:
        lab = ((j,), ())
        if lab in basis and hat_col(lab) != phi.column(j):
            raise DecompositionFailure("generator extension", j,
                                       hat_col(lab), phi.column(j))

    for x, y in itertools.product(basis.labels, repeat=2):
        if not ud.fits(ud.degree(x) + ud.degree(y)):
            continue
        hx = hat_col(x)
        hy = hat_col(y)
        for sym, src, tgt in (("|-", ud.vprod, target.vprod),
                              ("-|", ud.dprod, target.dprod)):
            try:
                rhs = tgt(hx, hy)
            except DegreeCapExceeded:
                continue
            lhs = hat(src(FinVec.unit(basis, x), FinVec.unit(basis, y)))
            if lhs != rhs:
                raise DecompositionFailure("dialgebra morphism", (x, y, sym), lhs, rhs)
    return hat
