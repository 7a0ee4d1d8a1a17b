"""Rack bialgebras and their augmented refinements.

A rack bialgebra is a counital coaugmented coalgebra together with a
product ``a |> b`` that is a coalgebra morphism, fixes the coaugmentation
from the left, collapses it from the right, and is self-distributive:

    1 |> a = a,    a |> 1 = eps(a) 1,
    a |> (b |> c) = sum_(a) (a1 |> b) |> (a2 |> c).

The product is in general neither associative nor unital.  An augmented
structure factors it through a Hopf algebra acting on the carrier,
``a |> b = phi(a).b``, which upgrades self-distributivity to genuine
module identities.  Certification is exhaustive over basis labels; by
multilinearity that is equivalent to the identities holding everywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from rackalg.env_hopf import HopfBackend, _require_hopf, enveloping_hopf, module_action, phi_map
from rackalg.errors import (
    AxiomViolation,
    DecompositionFailure,
    DegreeCapExceeded,
    GaugeEquivarianceViolation,
    RackalgError,
    SchemaError,
)
from rackalg.exact_core import (
    ONE,
    ZERO,
    Basis,
    Coeff,
    FinMap,
    FinVec,
    Label,
    PairTable,
    Rational,
    SpanSolver,
    _NO_ENTRIES,
    _accumulate,
    _kernel_coordinates,
    _require_degree,
    _row,
    bilinear,
    div,
    label_times,
    merge_labels,
    same_entries,
    split_label,
    tensor_basis,
    times_label,
)
from rackalg.groups import FiniteGroup, group_hopf, group_like_coalgebra
from rackalg.leibniz import LeibnizAlgebra, check_leibniz, left_center, quotient_lie
from rackalg.symcoalg import (
    Coalgebra,
    check_coalgebra,
    check_coalgebra_map,
    check_multiplicative,
    coalgebra_filtration,
    is_cocommutative,
    is_group_like,
    primitives,
    restrict_coalgebra,
    symmetric_coalgebra,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a property check: what passed, how much was covered."""

    passed: bool
    checked: int
    axiom: str = ""
    witness: tuple = ()
    detail: str = ""


# ---------------------------------------------------------------------------
# finite racks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteRack:
    """Pointed rack on a finite set: tables for x |> y and for the inverse
    of each left multiplication.

    Construction validates shapes only; :func:`check_rack` verifies the
    unit and self-distributivity laws, so broken tables can be built for
    negative tests.
    """

    name: str
    elements: tuple[str, ...]
    unit: str
    op: Mapping[tuple[str, str], str]
    left_mult_inverse: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise SchemaError(f"rack {self.name}: duplicate elements")
        if self.unit not in self.elements:
            raise SchemaError(f"rack {self.name}: unit {self.unit!r} is not an element")
        for x, y in itertools.product(self.elements, repeat=2):
            if (x, y) not in self.op:
                raise SchemaError(f"rack {self.name}: missing product {x!r} |> {y!r}")
            if self.op[(x, y)] not in self.elements:
                raise SchemaError(f"rack {self.name}: product {x!r} |> {y!r} escapes")
        for (x, y), v in self.op.items():
            if self.left_mult_inverse.get((x, v)) != y:
                raise SchemaError(f"rack {self.name}: left inverse table wrong at ({x!r}, {v!r})")

    @staticmethod
    def build(name: str, elements: Sequence[str], unit: str,
              op: Mapping[tuple[str, str], str]) -> "FiniteRack":
        """Derive the inverse table; fails when some row is not a bijection."""
        inverse: dict[tuple[str, str], str] = {}
        for x in elements:
            row = [op[(x, y)] for y in elements]
            if sorted(row) != sorted(elements):
                raise AxiomViolation("left multiplication bijectivity", (x,), tuple(row), None)
            for y in elements:
                inverse[(x, op[(x, y)])] = y
        return FiniteRack(name, tuple(elements), unit, dict(op), inverse)

    def apply(self, x: str, y: str) -> str:
        return self.op[(x, y)]


def check_rack(x: FiniteRack) -> None:
    """Unit laws and self-distributivity on every triple."""
    for y in x.elements:
        if x.apply(x.unit, y) != y:
            raise AxiomViolation("rack left unit", (y,), x.apply(x.unit, y), y)
        if x.apply(y, x.unit) != x.unit:
            raise AxiomViolation("rack unit absorption", (y,), x.apply(y, x.unit), x.unit)
    for a, b, c in itertools.product(x.elements, repeat=3):
        lhs = x.apply(a, x.apply(b, c))
        rhs = x.apply(x.apply(a, b), x.apply(a, c))
        if lhs != rhs:
            raise AxiomViolation("rack self-distributivity", (a, b, c), lhs, rhs)


def conjugation_rack(g: FiniteGroup) -> FiniteRack:
    """The group as a pointed rack under x |> y = x y x^-1."""
    op = {(a, b): g.conjugate(a, b) for a in g.elements for b in g.elements}
    rack = FiniteRack.build(f"Conj({g.name})", g.elements, g.unit, op)
    check_rack(rack)
    return rack


# ---------------------------------------------------------------------------
# rack bialgebras
# ---------------------------------------------------------------------------


def _certified(obj, **changes):
    """A certified copy of a structure; the product tables it has built carry
    over, since the copy shares the fields they were built from."""
    out = dataclasses.replace(obj, certified=True, **changes)
    out.__dict__.update((k, v) for k, v in obj.__dict__.items() if isinstance(v, PairTable))
    return out


@dataclass(frozen=True)
class RackBialgebra:
    """Coalgebra carrier plus the product mu on the tensor square.

    ``table`` is ``mu`` on label pairs, built from it on first read.
    ``certified`` is set only by :func:`certify`.
    """

    carrier: Coalgebra
    mu: FinMap
    certified: bool = False

    @property
    def basis(self) -> Basis:
        return self.carrier.basis

    @cached_property
    def table(self) -> PairTable:
        return PairTable.from_map(self.mu, self.basis, self.basis)

    def apply(self, a: FinVec, b: FinVec) -> FinVec:
        return bilinear(self.table, a, b)


def certify(rb: RackBialgebra) -> RackBialgebra:
    """Run the complete axiom suite; returns a copy with ``certified`` set.

    The carrier is checked as a coalgebra, then the product is checked to
    be a coalgebra morphism, to fix the coaugmentation from the left and
    collapse it from the right, and to be self-distributive on every basis
    triple.

    A linearised finite rack is checked as a set: when every carrier label
    is group-like, the unit is a label and the uncapped product sends each
    label pair to one label with the int coefficient 1 (:func:`_label_maps`),
    every identity is read on the label map, and by the lemma there the
    two multiplicativity identities hold without being computed.  Any other
    input takes the generic path; both give the same outcome.
    """
    check_coalgebra(rb.carrier)
    _check_product(rb)
    return _certified(rb)


def _violation(basis: Basis, axiom: str, witness: tuple, lhs: Mapping[Label, Coeff],
               rhs: Mapping[Label, Coeff] | None, error: type = AxiomViolation) -> RackalgError:
    """A failed identity whose sides were read into coefficient dicts, raised
    as ``error``; a membership identity has no right side (None)."""
    return error(axiom, witness, FinVec(basis, lhs), None if rhs is None else FinVec(basis, rhs))


def _one_label(v: Mapping[Label, Coeff], basis: Basis) -> Label | None:
    """The label of ``v`` when it is one label of ``basis`` with the int
    coefficient 1, else None."""
    if len(v) == 1:
        ((lab, x),) = v.items()
        if type(x) is int and x == 1 and lab in basis._index:
            return lab
    return None


def _label_maps(coalgebras: Sequence[Coalgebra],
                structure: Callable[[], tuple[Sequence[tuple[PairTable, Basis]],
                                              Sequence[FinMap]]]
                ) -> tuple[list[dict[tuple[Label, Label], Label]], list[dict[Label, Label]]] | None:
    """The tables and maps of a linearised set structure as label maps, or
    None: the one choice between the set and the generic path of a certifier
    or a splitting.

    The set path is taken when every basis label l of each coalgebra is
    group-like as stored (its coproduct the one leg l (x) l with coefficient
    1, and eps(l) = 1), each unit is one label with the int coefficient 1,
    and then, read from ``structure()`` (called only then), each table
    (t, left) is uncapped and sends every pair of a ``left`` label and a
    label of ``t.basis`` to one label with the int coefficient 1, and each
    map sends every label of its domain to one label of its codomain so.  A
    table is returned as {(a, b): c}, a map as {a: c}.

    Lemma.  On such a structure every identity the certifiers read on basis
    labels is the matching set identity.  Each side of an identity is built
    from basis labels and the unit by products, maps, coproduct legs and the
    counit; by induction each of these yields one label with coefficient 1:
    a product or map of such terms is one by hypothesis, a label has the one
    leg l (x) l, and eps(l) = 1 scales by 1.  Two sides of that form agree
    exactly when their labels do, which is the set identity.  The coalgebra
    map identities hold outright: for a map f of this kind and a label l,
    delta(f(l)) = f(l) (x) f(l) = sum f(l1) (x) f(l2) and eps(f(l)) = 1 =
    eps(l), and for a product, delta(ab) = ab (x) ab = sum a1 b1 (x) a2 b2 and
    eps(ab) = 1 = eps(a) eps(b).  So comultiplicativity and counit of a
    product or an action, S a coalgebra map and the augmentation are counted
    and not computed on the set path.

    Spans.  A linear map f sending each label to one label spans its image
    by the unit vectors of the distinct image labels; listed in basis order
    they are the reduced echelon basis of that image, and a unit vector lies
    in it exactly when its label is an image label.  When f is idempotent
    its fixed space is its image.  So the splitting
    (:func:`~rackalg.right_hopf_dialg._split`) reads its span identities on
    labels, with no elimination.

    Primitives.  A group-like coalgebra over Q has Prim = 0.  Let
    x = sum x_g g with delta(x) = x (x) 1 + 1 (x) x.  The coefficient of
    g (x) g for g != 1 is x_g on the left and 0 on the right, so x_g = 0.
    The coefficient of 1 (x) 1 is then x_1 on the left and 2 x_1 on the
    right, so x_1 = 0.
    """
    for c in coalgebras:
        if _one_label(c.unit.entries, c.basis) is None:
            return None
        counit = c.counit
        for lab in c.basis.labels:
            if counit.get(lab) != 1 or c.legs(lab) != [(lab, lab, 1)]:
                return None
    tables, maps = structure()
    label_tables = []
    for t, left in tables:
        if t.cap is not None:
            return None
        rows, right = t.rows, t.basis.labels
        m = {}
        for la in left.labels:
            row = rows.get(la, _NO_ENTRIES)
            for lb in right:
                v = row.get(lb, _NO_ENTRIES)
                if len(v) != 1:
                    return None
                for lab, x in v.items():  # the one entry; its label is in t.basis
                    if type(x) is not int or x != 1:
                        return None
                m[la, lb] = lab
        label_tables.append(m)
    label_maps = []
    for f in maps:
        m = {}
        for lab in f.domain.labels:
            col = f.columns.get(lab)
            if col is None or col.basis is not f.codomain or \
                    (image := _one_label(col.entries, f.codomain)) is None:
                return None
            m[lab] = image
        label_maps.append(m)
    return label_tables, label_maps


def _check_product(rb: RackBialgebra) -> None:
    """The product checks of :func:`certify`, on a carrier already checked.

    Every product with a basis label on one side is read from the stored
    columns into a plain dict (:func:`~rackalg.exact_core.label_times`,
    :func:`~rackalg.exact_core.times_label`), self-distributivity by
    :func:`_first_selfdist_failure`.  Vectors are built only to compare with
    a unit and for a failure's witness.  On a label map (:func:`_label_maps`)
    the same identities are read on labels, and the two multiplicativity
    identities hold by its lemma.
    """
    c = rb.carrier
    basis = c.basis
    labels = basis.labels
    if rb.mu.domain != c.square or rb.mu.codomain != basis:
        raise SchemaError(f"product of {basis.name} must map its tensor square to itself")
    t = rb.table
    one = c.unit
    maps = _label_maps((c,), lambda: (((t, basis),), ()))
    m = None if maps is None else maps[0][0]
    if m is None:
        got = bilinear(t, one, one)
        if got != one:
            raise AxiomViolation("unit square", "1", got, one)
        for lab in labels:
            a = FinVec.unit(basis, lab)
            lhs = FinVec(basis, times_label(t, one.entries, lab))
            if lhs != a:
                raise AxiomViolation("left unit", lab, lhs, a)
            lhs = FinVec(basis, label_times(t, lab, one.entries))
            rhs = one.scale(c.counit.get(lab, ZERO))
            if lhs != rhs:
                raise AxiomViolation("unit absorption", lab, lhs, rhs)
        check_multiplicative(c, t, itertools.product(labels, repeat=2),
                             "coproduct multiplicativity", "counit multiplicativity")
    else:
        (u,) = one.entries
        if m[u, u] != u:
            raise _violation(basis, "unit square", "1", {m[u, u]: ONE}, one.entries)
        for lab in labels:
            for axiom, got, want in (("left unit", m[u, lab], lab),
                                     ("unit absorption", m[lab, u], u)):
                if got != want:
                    raise _violation(basis, axiom, lab, {got: ONE}, {want: ONE})
    triple, lhs, rhs, _ = _first_selfdist_failure(t, c.legs, labels, m)
    if triple is not None:
        raise _violation(basis, "self-distributivity", triple, lhs, rhs)


def _first_selfdist_failure(t: PairTable, legs_of: Callable[[Label], list],
                            labels: Sequence[Label],
                            m: Mapping[tuple[Label, Label], Label] | None = None
                            ) -> tuple[tuple | None, dict, dict, int]:
    """The first basis triple, in ``itertools.product`` order, with a |> (b |> c)
    != sum (a1 |> b) |> (a2 |> c) for the uncapped ``t`` and coproduct legs
    ``legs_of(a)``, both sides as dicts and the number of triples that held
    before it; (None, {}, {}, n) when all n hold.  The right side is read as
    sum_l (a1 |> b)_l (l |> (a2 |> c)), the terms of a1 |> b listed once per (a, b).
    Given ``t`` as the label map ``m`` (:func:`_label_maps`), the identity is
    read there as a |> (b |> c) = (a |> b) |> (a |> c).
    """
    checked = 0
    if m is not None:
        for la in labels:
            for lb in labels:
                ab = m[la, lb]
                for lc in labels:
                    lhs, rhs = m[la, m[lb, lc]], m[ab, m[la, lc]]
                    if lhs != rhs:
                        return (la, lb, lc), {lhs: ONE}, {rhs: ONE}, checked
                    checked += 1
        return None, {}, {}, checked
    rows = t.rows  # an uncapped product: every row is read directly
    for la in labels:
        legs = legs_of(la)
        for lb in labels:
            left = [(l, ca * cl, rows.get(a2, _NO_ENTRIES)) for a1, a2, ca in legs
                    for l, cl in rows.get(a1, _NO_ENTRIES).get(lb, _NO_ENTRIES).items()]
            row_b = rows.get(lb, _NO_ENTRIES)
            for lc in labels:
                lhs = label_times(t, la, row_b.get(lc, _NO_ENTRIES))
                rhs: dict[Label, Coeff] = {}
                for l, w, row in left:
                    label_times(t, l, row.get(lc, _NO_ENTRIES), rhs, w)
                if not same_entries(lhs, rhs):
                    return (la, lb, lc), lhs, rhs, checked
                checked += 1
    return None, {}, {}, checked


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def trivial(carrier: Coalgebra) -> RackBialgebra:
    """The left-trivial product a |> b = eps(a) b on any coalgebra."""
    basis = carrier.basis
    counit = carrier.counit

    def col(la: Label, lb: Label) -> Mapping[Label, Coeff]:
        e = counit.get(la, ZERO)
        return {lb: e} if e else {}

    return certify(RackBialgebra(carrier, FinMap.from_pairs(basis, basis, carrier.square, basis,
                                                            col)))


def rack_group_algebra(x: FiniteRack) -> RackBialgebra:
    """The rack algebra of a finite rack: set-like basis, linearized table."""
    coalg = group_like_coalgebra(f"K[{x.name}]", x.elements, x.unit)
    basis = coalg.basis
    mu = FinMap.from_pairs(basis, basis, coalg.square, basis, lambda la, lb: {x.op[(la, lb)]: ONE})
    return certify(RackBialgebra(coalg, mu))


def ur(h: LeibnizAlgebra) -> RackBialgebra:
    """The unital rack bialgebra on K + h.

    Primitives multiply by the bracket, the coaugmentation acts as left
    unit and is absorbed on the right:
    (l 1 + x) |> (l' 1 + x') = l l' 1 + l x' + [x, x'].
    """
    check_leibniz(h)
    carrier = symmetric_coalgebra(h.basis, 1, name=f"UR({h.basis.name})")
    basis = carrier.basis
    bracket = h.table

    def col(la: Label, lb: Label) -> Mapping[Label, Coeff]:
        if not la:
            return {lb: ONE}
        if not lb:
            return {}
        return {(i,): c for i, c in bracket.entry(la[0], lb[0]).items()}

    return certify(RackBialgebra(carrier, FinMap.from_pairs(basis, basis, carrier.square, basis,
                                                            col)))


def gauge(rb: RackBialgebra, f: FinMap) -> RackBialgebra:
    """The f-gauge: same coalgebra, product (a, b) -> f(a) |> b.

    f must be a coalgebra endomorphism fixing the coaugmentation and
    commuting with every left multiplication.
    """
    c = rb.carrier
    basis = c.basis
    if f.domain != basis or f.codomain != basis:
        raise SchemaError("gauge map must be an endomorphism of the carrier")
    if f(c.unit) != c.unit:
        raise AxiomViolation("gauge fixes coaugmentation", "1", f(c.unit), c.unit)
    check_coalgebra_map(c, c, f.column, basis.labels, "gauge")
    t = rb.table
    for la in basis.labels:
        for lb in basis.labels:
            lhs = f(t.vector(la, lb))
            rhs = FinVec(basis, label_times(t, la, f.column(lb).entries))
            if lhs != rhs:
                raise GaugeEquivarianceViolation(
                    f"f(a |> b) != a |> f(b) at basis pair ({la!r}, {lb!r})")
    mu = FinMap.from_pairs(basis, basis, c.square, basis,
                           lambda la, lb: times_label(t, f.column(la).entries, lb))
    return certify(RackBialgebra(c, mu))


def hopf_adjoint(hopf: HopfBackend, degree: int | None = None) -> RackBialgebra:
    """The adjoint rack bialgebra h |> h' = sum h1 h' S(h2) on a
    cocommutative Hopf algebra.

    The carrier is the subcoalgebra on labels of degree <= k, where k is
    ``degree`` or one below the cap, so that every commutator stays
    representable; an uncapped algebra keeps every label.
    """
    _require_hopf(hopf, "hopf_adjoint")
    if degree is not None:
        _require_degree(degree)
    c = hopf.coalgebra
    t = hopf.table
    if t.cap is not None:
        k = t.cap - 1 if degree is None else degree
        if k + 1 > t.cap:
            raise DegreeCapExceeded(k + 1, t.cap, "adjoint rack needs one degree of headroom")
        c = restrict_coalgebra(c, [lab for lab in c.basis.labels if t.degree(lab) <= k],
                               f"Ad({hopf.basis.name})<={k}")
    basis = c.basis
    units = {lab: FinVec.unit(hopf.basis, lab) for lab in basis.labels}

    def col(wa: Label, wb: Label) -> Mapping[Label, Coeff]:
        v = hopf.adjoint(units[wa], units[wb])
        assert all(lab in basis for lab in v.entries)
        return v.entries

    return certify(RackBialgebra(c, FinMap.from_pairs(basis, basis, c.square, basis, col)))


# ---------------------------------------------------------------------------
# augmented rack bialgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentedRackBialgebra:
    """Rack bialgebra presented through a Hopf algebra action.

    ``phi`` maps the carrier into the Hopf algebra as coalgebras; the
    action makes the carrier a module coalgebra; the induced product is
    a |> b = phi(a).b.
    """

    rack: RackBialgebra
    hopf: HopfBackend
    phi: FinMap
    action: FinMap
    certified: bool = False

    @property
    def carrier(self) -> Coalgebra:
        return self.rack.carrier

    @cached_property
    def table(self) -> PairTable:
        """``action`` on label pairs (lh, la), built from it on first read."""
        return PairTable.from_map(self.action, self.hopf.basis, self.carrier.basis)

    def act(self, u: FinVec, a: FinVec) -> FinVec:
        return bilinear(self.table, u, a)


def certify_augmented(arb: AugmentedRackBialgebra) -> AugmentedRackBialgebra:
    """Full axiom suite for the augmented structure and its induced rack.

    Identities whose verification would need Hopf products beyond a capped
    envelope's degree budget are restricted to the pairs that fit; all
    carrier-side checks are exhaustive.  The carrier and the Hopf coalgebra
    are checked as coalgebras once each, and once in all when they are one
    object (a Hopf algebra acting on itself).

    A linearised augmented rack is checked as a set: when the carrier and
    the Hopf algebra have group-like labels and their units among them, and
    the action, the Hopf product, phi and the Hopf antipode send each label
    pair or label to one label with the int coefficient 1
    (:func:`_label_maps`), every identity is read on the label maps, in the
    same order and under the same names.  By the lemma there, augmentation
    and action comultiplicativity and counit hold without being computed.
    ad_h(phi(a)) = sum h1 phi(a) S(h2) is then h phi(a) S(h), and the induced
    product is read from its table; once that has passed, it is the label
    map a |> b = phi(a).b.  Any other input takes the generic path; both
    give the same outcome.
    """
    bc = arb.carrier
    hopf = arb.hopf
    _require_hopf(hopf, "an augmented rack bialgebra")
    hc = hopf.coalgebra
    phi = arb.phi
    if phi.domain != bc.basis or phi.codomain != hc.basis:
        raise SchemaError("phi must map the carrier into the Hopf algebra")
    if arb.action.codomain != bc.basis:
        raise SchemaError("action must map hopf (x) carrier into the carrier")
    act = arb.table
    check_coalgebra(bc)
    if hc is not bc:  # a group acting on itself shares one coalgebra
        check_coalgebra(hc)

    sets = _label_maps((bc, hc), lambda: (((act, hc.basis), (hopf.table, hc.basis)),
                                          (phi, hopf.antipode)))
    if sets is not None:
        (am, hm), (pm, sm) = sets
        cb, hb = bc.basis, hc.basis
        (ub,), (uh,) = bc.unit.entries, hc.unit.entries
        if pm[ub] != uh:
            raise _violation(hb, "augmentation coaugmentation", "1", {pm[ub]: ONE}, {uh: ONE})
        for la in cb.labels:
            if am[uh, la] != la:
                raise _violation(cb, "action unit", la, {am[uh, la]: ONE}, {la: ONE})
        for lh in hb.labels:
            if am[lh, ub] != ub:
                raise _violation(cb, "action fixes coaugmentation", lh, {am[lh, ub]: ONE},
                                 {ub: ONE})
        for lu in hb.labels:
            for lv in hb.labels:
                uv = hm[lu, lv]
                for la in cb.labels:
                    lhs, rhs = am[uv, la], am[lu, am[lv, la]]
                    if lhs != rhs:
                        raise _violation(cb, "action associativity", (lu, lv, la), {lhs: ONE},
                                         {rhs: ONE})
        for lh in hb.labels:
            for la in cb.labels:
                lhs, rhs = pm[am[lh, la]], hm[hm[lh, pm[la]], sm[lh]]
                if lhs != rhs:
                    raise _violation(hb, "augmentation intertwines adjoint", (lh, la),
                                     {lhs: ONE}, {rhs: ONE})
        rack_t = arb.rack.table
        for la in cb.labels:
            for lb in cb.labels:
                want = {am[pm[la], lb]: ONE}
                if not same_entries(rack_t.entry(la, lb), want):
                    raise AxiomViolation("induced product", (la, lb), rack_t.vector(la, lb),
                                         FinVec(cb, want))
        for la in cb.labels:
            pa, spa = pm[la], sm[pm[la]]
            for lb in cb.labels:
                for axiom, got in (("left regularity", am[pa, am[spa, lb]]),
                                   ("left regularity flipped", am[spa, am[pa, lb]])):
                    if got != lb:
                        raise _violation(cb, axiom, (la, lb), {got: ONE}, {lb: ONE})
        _check_product(arb.rack)
        return _certified(arb, rack=_certified(arb.rack))

    check_coalgebra_map(bc, hc, phi.column, bc.basis.labels, "augmentation")
    if phi(bc.unit) != hc.unit:
        raise AxiomViolation("augmentation coaugmentation", "1", phi(bc.unit), hc.unit)

    for la in bc.basis.labels:
        a = FinVec.unit(bc.basis, la)
        got = FinVec(bc.basis, times_label(act, hc.unit.entries, la))
        if got != a:
            raise AxiomViolation("action unit", la, got, a)
    for lh in hc.basis.labels:
        got = FinVec(bc.basis, label_times(act, lh, bc.unit.entries))
        want = bc.unit.scale(hc.counit.get(lh, ZERO))
        if got != want:
            raise AxiomViolation("action fixes coaugmentation", lh, got, want)

    # (uv).a is uv read against a, and u.(v.a) is u read against v.a
    hopf_t = hopf.table
    for lu in hc.basis.labels:
        for lv in hc.basis.labels:
            if not hopf_t.fits(hopf_t.degree(lu) + hopf_t.degree(lv)):
                continue
            uv = hopf_t.entry(lu, lv)
            for la in bc.basis.labels:
                lhs = times_label(act, uv, la)
                rhs = label_times(act, lu, act.entry(lv, la))
                if not same_entries(lhs, rhs):
                    raise _violation(bc.basis, "action associativity", (lu, lv, la), lhs, rhs)

    check_multiplicative(bc, act, itertools.product(hc.basis.labels, bc.basis.labels),
                         "action comultiplicativity", "action counit", left=hc)

    for lh in hc.basis.labels:
        u = FinVec.unit(hc.basis, lh)
        for la in bc.basis.labels:
            pa = phi.column(la)
            if not hopf_t.fits(max(map(hopf_t.degree, pa.entries), default=0) + 1):
                continue
            lhs = phi(act.vector(lh, la))
            rhs = hopf.adjoint(u, pa)
            if lhs != rhs:
                raise AxiomViolation("augmentation intertwines adjoint", (lh, la), lhs, rhs)

    rack_t = arb.rack.table
    for la in bc.basis.labels:
        pa = phi.column(la).entries
        for lb in bc.basis.labels:
            want = FinVec(bc.basis, times_label(act, pa, lb))
            got = rack_t.vector(la, lb)
            if got != want:
                raise AxiomViolation("induced product", (la, lb), got, want)

    # sum a1 |> (S(phi(a2)).b), and sum S(phi(a1)).(a2 |> b) term by term of S(phi(a1))
    anti = hopf.antipode
    s_phi = {lab: anti(phi.column(lab)).entries for lab in bc.basis.labels}
    for la in bc.basis.labels:
        legs = bc.legs(la)
        eps_a = bc.counit.get(la, ZERO)
        for lb in bc.basis.labels:
            want = {lb: eps_a} if eps_a else {}
            acc1: dict[Label, Coeff] = {}
            acc2: dict[Label, Coeff] = {}
            for a1, a2, ca in legs:
                label_times(rack_t, a1, times_label(act, s_phi[a2], lb), acc1, ca)
                ab = rack_t.entry(a2, lb)
                for w, cw in s_phi[a1].items():
                    label_times(act, w, ab, acc2, ca * cw)
            for axiom, got in (("left regularity", acc1), ("left regularity flipped", acc2)):
                if not same_entries(got, want):
                    raise _violation(bc.basis, axiom, (la, lb), got, want)

    _check_product(arb.rack)
    return _certified(arb, rack=_certified(arb.rack))


def augmented_from_action(carrier: Coalgebra, hopf: HopfBackend, phi: FinMap,
                          action: FinMap) -> AugmentedRackBialgebra:
    """Assemble and certify the augmented structure with a |> b = phi(a).b."""
    return certify_augmented(_assemble(carrier, hopf, phi, action))


def _assemble(carrier: Coalgebra, hopf: HopfBackend, phi: FinMap,
              action: FinMap) -> AugmentedRackBialgebra:
    """The uncertified structure; mu is filled row by row as phi(a).b, read
    from the table of ``action``, which the structure keeps as its own."""
    basis = carrier.basis
    act = PairTable.from_map(action, hopf.basis, basis)
    phi_cols = {la: phi.column(la).entries for la in basis.labels}
    mu = FinMap.from_pairs(basis, basis, carrier.square, basis,
                           lambda la, lb: times_label(act, phi_cols[la], lb))
    arb = AugmentedRackBialgebra(RackBialgebra(carrier, mu), hopf, phi, action)
    arb.__dict__["table"] = act
    return arb


def trivial_augmented(carrier: Coalgebra, hopf: HopfBackend,
                      action: FinMap) -> AugmentedRackBialgebra:
    """Augmentation through phi = eps * 1; the induced product is left-trivial."""
    hc = hopf.coalgebra
    phi = FinMap.from_function(
        carrier.basis, hc.basis,
        lambda lab: hc.unit.scale(carrier.counit.get(lab, ZERO)))
    return augmented_from_action(carrier, hopf, phi, action)


def augmented_conjugation(g: FiniteGroup) -> AugmentedRackBialgebra:
    """The group algebra acting on itself by conjugation, phi = id."""
    hopf = group_hopf(g)
    c = hopf.coalgebra
    action = FinMap.from_pairs(c.basis, c.basis, c.square, c.basis,
                               lambda lg, lx: {g.conjugate(lg, lx): ONE})
    return augmented_from_action(c, hopf, FinMap.identity(c.basis), action)


def augmented_rack_algebra(x: FiniteRack, g: FiniteGroup,
                           to_group: Mapping[str, str],
                           action_table: Mapping[tuple[str, str], str]) -> AugmentedRackBialgebra:
    """Linearize a rack fibered over a group: phi from ``to_group`` and the
    group action on the rack from ``action_table``; all compatibilities are
    certified exhaustively."""
    carrier = group_like_coalgebra(f"K[{x.name}]", x.elements, x.unit)
    hopf = group_hopf(g)
    hc = hopf.coalgebra
    phi = FinMap.from_function(
        carrier.basis, hc.basis, lambda lab: FinVec.unit(hc.basis, to_group[lab]))
    action = FinMap.from_pairs(hc.basis, carrier.basis, tensor_basis(hc.basis, carrier.basis),
                               carrier.basis, lambda lg, lx: {action_table[(lg, lx)]: ONE})
    return augmented_from_action(carrier, hopf, phi, action)


def _uar_build(h: LeibnizAlgebra, k: int, z: Sequence[FinVec] | None,
               env_cap: int | None, sym: Coalgebra) -> AugmentedRackBialgebra:
    """The uncertified structure on the carrier ``sym`` = S(h)<=k, over the
    envelope of h modulo z (the squares ideal when z is None)."""
    q = quotient_lie(h, z=z)
    env = enveloping_hopf(q.algebra, k + 1 if env_cap is None else env_cap)
    ph = phi_map(env, q, sym)
    def col(word: Label, mono: Label) -> Mapping[Label, Coeff]:
        return module_action(env, q, sym, FinVec.unit(env.basis, word),
                             FinVec.unit(sym.basis, mono)).entries

    action = FinMap.from_pairs(env.basis, sym.basis, tensor_basis(env.basis, sym.basis),
                               sym.basis, col)
    return _assemble(sym, env, ph, action)


def uar_infinity(h: LeibnizAlgebra, k: int,
                 z: Sequence[FinVec] | None = None,
                 env_cap: int | None = None) -> AugmentedRackBialgebra:
    """The universal augmented rack bialgebra of a Leibniz algebra,
    truncated at symmetric degree k.

    The carrier is S(h) in degrees <= k; the Hopf algebra is the enveloping
    algebra of h modulo a sandwich ideal, capped at k + 1 for commutator
    headroom.  A word of generators acts letterwise by bracket derivations,
    and phi symmetrizes monomials into the envelope.

    With ``z`` unspecified the construction runs twice, over the squares
    ideal and over the left center, and the two products are compared
    column by column; the result is independent of the choice, so a
    mismatch means a bug.  Only the squares-ideal build is certified and
    returned.  The left-center build is a guard, not a result: its product
    must equal the certified one entry for entry, which carries every rack
    identity over, and its envelope, phi and action are discarded, so
    certifying it would check the same table a second time.  Both builds
    share one carrier.
    """
    check_leibniz(h)
    _require_degree(k, "truncation order")
    if env_cap is not None:
        _require_degree(env_cap, "envelope cap")
        if env_cap < k + 1:
            raise SchemaError("envelope cap must leave commutator headroom")
    sym = symmetric_coalgebra(h.basis, k)
    if z is not None:
        return certify_augmented(_uar_build(h, k, list(z), env_cap, sym))
    built_sq = certify_augmented(_uar_build(h, k, None, env_cap, sym))
    mu_sq = built_sq.rack.mu
    mu_zc = _uar_build(h, k, left_center(h), env_cap, sym).rack.mu
    for pair in mu_sq.domain.labels:
        if mu_sq.column(pair) != mu_zc.column(pair):
            raise DecompositionFailure("sandwich ideal independence", pair,
                                       mu_sq.column(pair), mu_zc.column(pair))
    return built_sq


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------


def primitives_leibniz(rb: RackBialgebra) -> LeibnizAlgebra:
    """Restrict the product to primitives; self-distributivity makes the
    restriction a Leibniz bracket, which is verified on the result."""
    if not rb.certified:
        raise RackalgError("primitives_leibniz needs a certified rack bialgebra")
    return _primitive_leibniz(rb.carrier, rb.apply, f"Prim({rb.basis.name})",
                              "product of primitives left the primitive subspace")


def _primitive_leibniz(c: Coalgebra, bracket: Callable[[FinVec, FinVec], FinVec],
                       name: str, escaped: str) -> LeibnizAlgebra:
    """The Leibniz algebra ``name`` of ``bracket`` on the primitives of ``c``:
    the kernel basis ``primitives(c)`` gives each bracket its entries at the
    free labels as coordinates, and rebuilding it checks that it stayed in
    Prim (``escaped`` is the error when not).  The Leibniz identity is verified."""
    prims = primitives(c)
    kernel = [_row(c.basis, p) for p in prims]
    entries: dict[tuple[int, int], dict[int, Rational]] = {}
    for j, x in enumerate(prims, start=1):
        for k, y in enumerate(prims, start=1):
            coords = _kernel_coordinates(kernel, _row(c.basis, bracket(x, y)))
            if coords is None:
                raise RackalgError(escaped)
            entries[(j, k)] = {i: cv for i, cv in enumerate(coords, start=1) if cv}
    h = LeibnizAlgebra.from_table(len(prims), entries, name=name)
    check_leibniz(h)
    return h


def _solve_set_like_system(c: Coalgebra) -> list[FinVec]:
    """All rational solutions of delta(a) = a (x) a, eps(a) = 1, found by an
    exact quadratic solve.  Parametric and irrational branches are dropped."""
    import sympy

    n = c.basis.dim
    syms = list(sympy.symbols(f"c0:{n}"))

    def to_sym(q: Rational):
        return sympy.Rational(q.numerator, q.denominator)

    delta_rows: dict[Label, object] = {}
    for i, lab in enumerate(c.basis.labels):
        for sq_lab, coeff in c.delta.column(lab).entries.items():
            delta_rows[sq_lab] = delta_rows.get(sq_lab, sympy.Integer(0)) + to_sym(coeff) * syms[i]
    eqs = []
    for sq_lab in c.square.labels:
        l1, l2 = split_label(c.basis, sq_lab)
        lhs = delta_rows.get(sq_lab, sympy.Integer(0))
        eqs.append(sympy.Eq(lhs, syms[c.basis.index(l1)] * syms[c.basis.index(l2)]))
    eps_expr = sympy.Integer(0)
    for i, lab in enumerate(c.basis.labels):
        e = c.counit.get(lab)
        if e:
            eps_expr += to_sym(e) * syms[i]
    eqs.append(sympy.Eq(eps_expr, 1))
    solutions = sympy.solve(eqs, syms, dict=True)
    out: list[FinVec] = []
    for sol in solutions:
        if len(sol) < n:
            continue
        vals = [sol[s] for s in syms]
        if any(getattr(v, "free_symbols", None) for v in vals):
            continue
        try:
            fracs = [div(int(sympy.Rational(v).p), int(sympy.Rational(v).q)) for v in vals]
        except (TypeError, ValueError):
            continue
        v = FinVec.build(c.basis, zip(c.basis.labels, fracs))
        if all(v != w for w in out):
            out.append(v)
    return out


def set_like_elements(rb: RackBialgebra) -> list[tuple[str, FinVec]]:
    """Named set-like elements of the carrier.

    Basis vectors are always scanned; carriers of dimension at most 6 get
    the full exact quadratic solve, so every rational set-like is found
    there.  Larger carriers may have undetected set-likes outside the
    basis, which the callers of this function accept.
    """
    c = rb.carrier
    found: list[tuple[str, FinVec]] = []
    for lab in c.basis.labels:
        v = FinVec.unit(c.basis, lab)
        if is_group_like(c, v):
            found.append((str(lab) if isinstance(lab, str) else "", v))
    if c.basis.dim <= 6:
        for v in _solve_set_like_system(c):
            if all(v != w for _, w in found):
                found.append(("", v))
    named: list[tuple[str, FinVec]] = []
    counter = 0
    for name, v in found:
        if not name:
            if v == c.unit:
                name = "1"
            else:
                counter += 1
                name = f"g{counter}"
        named.append((name, v))
    return named


def set_likes(rb: RackBialgebra) -> FiniteRack:
    """The finite rack of detected set-like elements under the product."""
    if not rb.certified:
        raise RackalgError("set_likes needs a certified rack bialgebra")
    named = set_like_elements(rb)
    names = [name for name, _ in named]
    unit_name = None
    for name, v in named:
        if v == rb.carrier.unit:
            unit_name = name
    if unit_name is None:
        raise RackalgError("coaugmentation not detected among set-likes")
    op: dict[tuple[str, str], str] = {}
    for na, va in named:
        for nb, vb in named:
            w = rb.apply(va, vb)
            target = next((nc for nc, vc in named if vc == w), None)
            if target is None:
                raise RackalgError(
                    f"product of set-likes {na!r} |> {nb!r} escapes the detected set")
            op[(na, nb)] = target
    rack = FiniteRack.build(f"Slike({rb.basis.name})", names, unit_name, op)
    check_rack(rack)
    return rack


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------


def yang_baxter_check(rb: RackBialgebra) -> CheckReport:
    """Braid relation for R(a (x) b) = sum b1 (x) (b2 |> a) on basis triples.

    R is read once per label pair from the legs of b and the columns of the
    product, as a dict keyed by label pairs, and applied at positions (1, 2)
    or (2, 3) of a dict keyed by label triples.  For each triple e, in cube
    order, R12 R23 R12(e) is compared with R23 R12 R23(e); the first triple
    where they differ is the witness, as a cube label.
    """
    if not rb.certified:
        raise RackalgError("yang_baxter_check needs a certified rack bialgebra")
    c = rb.carrier
    if not is_cocommutative(c):
        raise RackalgError("yang_baxter_check needs a cocommutative carrier")
    basis = c.basis
    labels = basis.labels
    t = rb.table
    r: dict[tuple[Label, Label], dict[tuple[Label, Label], Coeff]] = {}
    for la, lb in itertools.product(labels, repeat=2):
        acc = r[la, lb] = {}
        for b1, b2, cb in c.legs(lb):
            _accumulate(acc, cb, (((b1, l), w) for l, w in t.entry(b2, la).items()))

    def r_at(i: int, v: Mapping[tuple, Coeff]) -> dict[tuple, Coeff]:
        """R applied at positions (i + 1, i + 2) of every label triple of v."""
        out: dict[tuple, Coeff] = {}
        for t, w in v.items():
            _accumulate(out, w, ((t[:i] + pq + t[i + 2:], x) for pq, x in r[t[i:i + 2]].items()))
        return out

    checked = 0
    for triple in itertools.product(labels, repeat=3):
        checked += 1
        e = {triple: ONE}
        if not same_entries(r_at(0, r_at(1, r_at(0, e))), r_at(1, r_at(0, r_at(1, e)))):
            return CheckReport(False, checked, axiom="braid relation",
                               witness=(merge_labels(basis, *triple),))
    return CheckReport(True, checked, axiom="braid relation")


def yetter_drinfeld_check(arb: AugmentedRackBialgebra) -> CheckReport:
    """Comodule-module compatibility over the Hopf algebra.

    The coaction is rho(v) = sum phi(v1) (x) v2; the relation checked on
    basis pairs (h, b) is

        rho(h.b) = sum (h1 phi(b1) S(h3)) (x) (h2.b2).

    Both sides are dicts keyed by (Hopf label, carrier label): the left one
    reads the legs of each term of h.b, the right one the legs of h and b,
    with h1 phi(b1) S(h3) read through the Hopf algebra's ``table``.  Pairs
    whose right side needs products beyond a capped envelope's degree budget
    are skipped and counted in the report detail.
    """
    if not arb.certified:
        raise RackalgError("yetter_drinfeld_check needs a certified structure")
    bc = arb.carrier
    hopf = arb.hopf
    hc = hopf.coalgebra
    phi = {lab: arb.phi.column(lab).entries for lab in bc.basis.labels}
    act, hopf_t = arb.table, hopf.table
    anti = hopf.antipode
    checked = skipped = 0
    for lh in hc.basis.labels:
        hsw3 = hc.sweedler3(FinVec.unit(hc.basis, lh))
        for la in bc.basis.labels:
            bsw = bc.legs(la)
            worst = max((hopf_t.degree(w) for b1, _, _ in bsw for w in phi[b1]), default=0)
            if not hopf_t.fits(hopf_t.degree(lh) + worst):
                skipped += 1
                continue
            checked += 1
            lhs: dict[tuple[Label, Label], Coeff] = {}
            for v, cv in act.entry(lh, la).items():
                for v1, v2, w in bc.legs(v):
                    _accumulate(lhs, cv * w, (((p, v2), cp) for p, cp in phi[v1].items()))
            rhs: dict[tuple[Label, Label], Coeff] = {}
            for h1, h2, h3, ch in hsw3:
                for b1, b2, cb in bsw:
                    h1b1 = label_times(hopf_t, h1, phi[b1])
                    left: dict[Label, Coeff] = {}
                    for s, cs in anti.column(h3).entries.items():
                        times_label(hopf_t, h1b1, s, left, cs)
                    right = act.entry(h2, b2)
                    for p, cp in left.items():
                        _accumulate(rhs, ch * cb * cp, (((p, q), cq) for q, cq in right.items()))
            if not same_entries(lhs, rhs):
                return CheckReport(False, checked, axiom="yetter-drinfeld compatibility",
                                   witness=(lh, la),
                                   detail=f"{skipped} pairs beyond the degree cap skipped")
    return CheckReport(True, checked, axiom="yetter-drinfeld compatibility",
                       detail=f"{skipped} pairs beyond the degree cap skipped")


def filtration_stable(rb: RackBialgebra) -> CheckReport:
    """Left multiplications preserve every coalgebra filtration level."""
    if not rb.certified:
        raise RackalgError("filtration_stable needs a certified rack bialgebra")
    checked = 0
    for r, level in enumerate(coalgebra_filtration(rb.carrier)):
        solver = SpanSolver(level)
        for lab in rb.basis.labels:
            for v in level:
                checked += 1
                if not solver.contains(FinVec(rb.basis, label_times(rb.table, lab, v.entries))):
                    return CheckReport(False, checked, axiom="filtration stability",
                                       witness=(lab, r))
    return CheckReport(True, checked, axiom="filtration stability")


__all__ = [
    "AugmentedRackBialgebra", "CheckReport", "FiniteRack", "RackBialgebra",
    "augmented_conjugation", "augmented_from_action",
    "augmented_rack_algebra", "certify", "certify_augmented", "check_rack",
    "conjugation_rack", "filtration_stable", "gauge", "hopf_adjoint",
    "primitives_leibniz", "rack_group_algebra", "set_like_elements", "set_likes",
    "trivial", "trivial_augmented", "uar_infinity", "ur", "yang_baxter_check",
    "yetter_drinfeld_check",
]
