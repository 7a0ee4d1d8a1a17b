"""One-sided Hopf algebras, their unit/idempotent decomposition, and
Hopf dialgebras.

A *right Hopf algebra* is a cocommutative bialgebra whose product is
associative and left-unital (1 a = a, while a 1 need not return a) and
whose antipode satisfies only the right convolution identity

    sum a1 S(a2) = eps(a) 1.

A *left Hopf algebra* is the mirror (right-unital, sum S(a1) a2 = eps(a) 1).
Because the coproduct is cocommutative, a left Hopf algebra is a right Hopf
algebra for its opposite product b a, with the same antipode; so every
one-sided identity is written once, for a right antipode, and a left
structure is checked through its opposite product.  One function checks
the halves of a one-sided Hopf algebra, of a Hopf algebra (S a right
antipode of the product and of its opposite) and of a Hopf dialgebra.  The
first two are one record, :class:`~rackalg.env_hopf.HopfAlgebra`, whose
``side`` chooses its halves for the one certifier :func:`_check_hopf`.

Every right Hopf algebra splits (the Suschkewitsch splitting): the
projector rho(a) = a 1 cuts out an honest Hopf algebra H1, the projector
iota(a) = sum S(a1) a2 cuts out the coalgebra E of generalized units, and
Psi(a) = sum (a1 1) (x) (S(a2) a3) is a linear isomorphism H ~ H1 (x) E
inverted by multiplication; a left Hopf algebra splits mirrored, as
E (x) H1.  E is the fixed space of iota; every element of E also satisfies
mu(Delta(c)) = c, but the converse containment fails already for K[S3], so
the fixed-space description is the one used throughout.

A *Hopf dialgebra* carries two associative products |- and -| sharing a
bar-unit (1 |- a = a = a -| 1), balanced (a |- 1 = 1 -| a), compatible in
the dialgebra sense, and an antipode making (A, |-) a right and (A, -|) a
left Hopf algebra.  A Hopf algebra is the case |- = -|, certified as a
two-sided record and then converted (:func:`hopf_as_dialgebra`).  Such
structures produce Leibniz brackets on primitives and rack products
a |> b = sum (a1 |- b) -| S(a2).  Their decomposition A ~ E (x) H is the
Suschkewitsch splitting of the left Hopf algebra (A, -|, S) plus the
identities of |-.  The main source of examples is an augmented rack
bialgebra: the carrier tensored with its Hopf algebra is a Hopf dialgebra,
and applying this to the universal augmented structure of a Leibniz algebra
yields its universal enveloping dialgebra.

Degree-capped instances store sparse product tables with explicit degree
guards; identities whose evaluation would leave the cap are skipped and
counted, never silently truncated.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from rackalg.env_hopf import HopfAlgebra, HopfBackend, _require_hopf
from rackalg.errors import (
    AxiomViolation,
    DecompositionFailure,
    DegreeCapExceeded,
    RackalgError,
    SchemaError,
)
from rackalg.exact_core import (
    ONE,
    ZERO,
    Basis,
    FinMap,
    FinVec,
    Label,
    PairTable,
    Rational,
    SpanSolver,
    _NO_ENTRIES,
    _require_degree,
    bilinear,
    kernel_basis,
    label_times,
    linear_sum,
    merge_labels,
    nullspace,
    same_entries,
    span_basis,
    split_label,
    tensor_sum,
    times_label,
)
from rackalg.groups import FiniteGroup, group_like_coalgebra
from rackalg.leibniz import LeibnizAlgebra, quotient_lie
from rackalg.rack_bialg import (
    AugmentedRackBialgebra,
    CheckReport,
    RackBialgebra,
    _certified,
    _label_maps,
    _primitive_leibniz,
    _violation,
    certify,
    uar_infinity,
)
from rackalg.symcoalg import (
    Coalgebra,
    check_coalgebra,
    check_coalgebra_map,
    check_cocommutative,
    check_multiplicative,
    primitives,
    restrict_coalgebra,
    tensor_coalgebra,
)


__all__ = [
    "DialgebraDecomposition",
    "HopfDialgebra",
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


def _right_product(t: PairTable, side: str) -> PairTable:
    """The product S is a right antipode for: ``t`` for sides "right" and
    "two-sided", the opposite product lb la for side "left"."""
    return t.opposite() if side == "left" else t


def _check_right_antipode(c: Coalgebra, t: PairTable, s: FinMap,
                          lab: Label, defining: str, tag: str,
                          sets: tuple[Mapping[tuple[Label, Label], Label],
                                      Mapping[Label, Label]] | None = None) -> None:
    """The right antipode identities of ``s`` for the product m = ``t`` at ``lab``.

    In order: the defining identity sum m(a1, S(a2)) = eps(a) 1, raised as
    ``defining``, then, each name followed by ``tag``, the flip identity
    m(sum m(S(a1), a2), 1) = eps(a) 1, the convolution square
    sum m(S(a1), S(S(a2))) = eps(a) 1, the double antipode S(S(a)) = m(a, 1)
    and unit absorption m(S(a), 1) = S(a).  With ``sets``, m and S as label
    maps (:func:`~rackalg.rack_bialg._label_maps`), each side is one label
    and the same identities are read on labels.
    """
    basis = c.basis
    one = c.unit
    if sets is not None:
        m, sm = sets
        (u,) = one.entries
        sa = sm[lab]
        for axiom, got, want in ((defining, m[lab, sa], u),
                                 (f"antipode flip identity{tag}", m[m[sa, lab], u], u),
                                 (f"antipode convolution square{tag}", m[sa, sm[sa]], u),
                                 (f"double antipode{tag}", sm[sa], m[lab, u]),
                                 (f"antipode unit absorption{tag}", m[sa, u], sa)):
            if got != want:
                raise _violation(basis, axiom, lab, {got: ONE}, {want: ONE})
        return
    legs = c.legs(lab)
    want = one.scale(c.counit.get(lab, ZERO))
    got = linear_sum(basis, ((FinVec(basis, label_times(t, l1, s.column(l2).entries)), cw)
                             for l1, l2, cw in legs))
    if got != want:
        raise AxiomViolation(defining, lab, got, want)
    flip = linear_sum(basis, ((FinVec(basis, times_label(t, s.column(l1).entries, l2)), cw)
                              for l1, l2, cw in legs))
    got = bilinear(t, flip, one)
    if got != want:
        raise AxiomViolation(f"antipode flip identity{tag}", lab, got, want)
    got = linear_sum(basis, ((bilinear(t, s.column(l1), s(s.column(l2))), cw)
                             for l1, l2, cw in legs))
    if got != want:
        raise AxiomViolation(f"antipode convolution square{tag}", lab, got, want)
    sa = s.column(lab)
    got = FinVec(basis, label_times(t, lab, one.entries))
    if s(sa) != got:
        raise AxiomViolation(f"double antipode{tag}", lab, s(sa), got)
    got = bilinear(t, sa, one)
    if got != sa:
        raise AxiomViolation(f"antipode unit absorption{tag}", lab, got, sa)


def _check_halves(c: Coalgebra, s: FinMap,
                  halves: Sequence[tuple[PairTable, PairTable, str, str, str]], products: int,
                  sets: tuple[Mapping[Label, Label],
                              Sequence[Mapping[tuple[Label, Label], Label]]] | None = None
                  ) -> tuple[int, int, int]:
    """The label and pair identities of one-sided Hopf algebras on ``c`` with
    the antipode ``s``: the halves of a one-sided Hopf algebra, a Hopf
    algebra or a Hopf dialgebra.

    A half (t, r, unit, defining, tag) has the product ``t`` and the product
    ``r`` (``t`` or its opposite) that S is a right antipode for; the first
    ``products`` halves have distinct products (a Hopf algebra has one, its
    halves S a right antipode of t and of its opposite).  Per label: each
    half's r(1, a) = a (``unit``), "balanced" (the halves of distinct
    products agree on r(a, 1)), S a coalgebra map, each half's
    :func:`_check_right_antipode` and S(S(S(a))) = S(a).  Per label pair:
    each distinct product's comultiplicativity and counit, then its
    S(ab) = S(b) S(a).  Per-half names end in ``tag``.  The pair identities
    read only t, so each product is checked once; "balanced" on one product
    t is given by the two unit laws at a, t(1, a) = a and t(a, 1) = a,
    checked just before it.  Returns the number of labels and pairs
    checked, then of labels and of pairs skipped beyond the cap of the
    first table.

    ``sets`` is S and, per half, t as label maps
    (:func:`~rackalg.rack_bialg._label_maps`); then the same identities are
    read on labels, and by its lemma S is a coalgebra map and each product
    comultiplicative and counital without being computed.  Label maps are
    uncapped, so nothing is skipped.
    """
    basis = c.basis
    one = c.unit
    capped = halves[0][0]
    distinct = halves[:products]
    checked = skipped_labels = skipped_pairs = 0
    if sets is not None:
        sm, t_maps = sets
        # r as a label map: t's own, or t's read backwards for the opposite
        half_maps = [(tm, tm if r is t else {(lb, la): x for (la, lb), x in tm.items()})
                     for tm, (t, r, *_) in zip(t_maps, halves)]
        (u,) = one.entries
        for lab in basis.labels:
            for (_, _, unit, _, _), (_, rm) in zip(halves, half_maps):
                if rm[u, lab] != lab:
                    raise _violation(basis, unit, lab, {rm[u, lab]: ONE}, {lab: ONE})
            for _, rm in half_maps[1:products]:
                lhs, rhs = half_maps[0][1][lab, u], rm[lab, u]
                if lhs != rhs:
                    raise _violation(basis, "balanced", lab, {lhs: ONE}, {rhs: ONE})
            for (_, r, _, defining, tag), (_, rm) in zip(halves, half_maps):
                _check_right_antipode(c, r, s, lab, defining, tag, (rm, sm))
            if sm[sm[sm[lab]]] != sm[lab]:
                raise _violation(basis, "triple antipode", lab, {sm[sm[sm[lab]]]: ONE},
                                 {sm[lab]: ONE})
            checked += 1
        for la, lb in itertools.product(basis.labels, repeat=2):
            for (tm, _), (_, _, _, _, tag) in zip(half_maps, distinct):
                lhs, rhs = sm[tm[la, lb]], tm[sm[lb], sm[la]]
                if lhs != rhs:
                    raise _violation(basis, f"antipode antihomomorphism{tag}", (la, lb),
                                     {lhs: ONE}, {rhs: ONE})
            checked += 1
        return checked, skipped_labels, skipped_pairs
    for lab in basis.labels:
        if not capped.fits(capped.degree(lab)):
            skipped_labels += 1
            continue
        a = FinVec.unit(basis, lab)
        for _, r, unit, _, _ in halves:
            got = FinVec(basis, times_label(r, one.entries, lab))
            if got != a:
                raise AxiomViolation(unit, lab, got, a)
        for _, r, *_ in distinct[1:]:
            lhs = FinVec(basis, label_times(halves[0][1], lab, one.entries))
            rhs = FinVec(basis, label_times(r, lab, one.entries))
            if lhs != rhs:
                raise AxiomViolation("balanced", lab, lhs, rhs)
        check_coalgebra_map(c, c, s.column, (lab,), "antipode")
        for _, r, _, defining, tag in halves:
            _check_right_antipode(c, r, s, lab, defining, tag)
        sa = s.column(lab)
        if s(s(sa)) != sa:
            raise AxiomViolation("triple antipode", lab, s(s(sa)), sa)
        checked += 1

    for la, lb in itertools.product(basis.labels, repeat=2):
        if not capped.fits(capped.degree(la) + capped.degree(lb)):
            skipped_pairs += 1
            continue
        for t, _, _, _, tag in distinct:
            check_multiplicative(c, t, ((la, lb),), f"product comultiplicativity{tag}",
                                 f"product counit{tag}")
        for t, _, _, _, tag in distinct:
            lhs = s(t.vector(la, lb))
            rhs = bilinear(t, s.column(lb), s.column(la))
            if lhs != rhs:
                raise AxiomViolation(f"antipode antihomomorphism{tag}", (la, lb), lhs, rhs)
        checked += 1
    return checked, skipped_labels, skipped_pairs


def _refuse_beyond_cap(tables: Sequence[tuple[str, PairTable]], s: FinMap) -> None:
    """Refuse, with SchemaError, a stored entry of the (name, table)
    ``tables`` or a column of S beyond the cap of the first table, where no
    read would check it."""
    t = tables[0][1]
    if t.cap is None:
        return
    for name, table in tables:
        for la, row in table.rows.items():
            for lb in row:
                if not t.fits(t.degree(la) + t.degree(lb)):
                    raise SchemaError(f"{name} table entry ({la!r}, {lb!r}) beyond the cap")
    for lab in s.columns:
        if not t.fits(t.degree(lab)):
            raise SchemaError(f"antipode column {lab!r} beyond the cap")


def _check_associative(basis: Basis, t: PairTable, axiom: str,
                       m: Mapping[tuple[Label, Label], Label] | None) -> tuple[int, int]:
    """(ab)c = a(bc) on every label triple under the cap of ``t`` (on the
    label map ``m`` of t when given), raised as ``axiom``; ab is read once per
    (a, b), bc from the row of b.  Returns the triples checked and skipped."""
    labs = basis.labels
    if m is not None:
        for la, lb, lc in itertools.product(labs, repeat=3):
            lhs, rhs = m[m[la, lb], lc], m[la, m[lb, lc]]
            if lhs != rhs:
                raise _violation(basis, axiom, (la, lb, lc), {lhs: ONE}, {rhs: ONE})
        return len(labs) ** 3, 0
    deg = {lab: t.degree(lab) for lab in labs}
    checked = skipped = 0
    for la in labs:
        for lb in labs:
            d_ab = deg[la] + deg[lb]
            if not t.fits(d_ab):
                skipped += len(labs)
                continue
            ab = t.entry(la, lb)
            row = t.rows.get(lb, _NO_ENTRIES)
            for lc in labs:
                if not t.fits(d_ab + deg[lc]):
                    skipped += 1
                    continue
                lhs = times_label(t, ab, lc)
                rhs = label_times(t, la, row.get(lc, _NO_ENTRIES))
                if not same_entries(lhs, rhs):
                    raise _violation(basis, axiom, (la, lb, lc), lhs, rhs)
                checked += 1
    return checked, skipped


def _check_hopf(h: HopfBackend) -> CheckReport:
    """The one certifier of a Hopf record of any side, or of a Hopf backend
    (side "two-sided"); returns the report or raises the first failure.

    After the carrier coalgebra and its cocommutativity, the side chooses
    the halves of :func:`_check_halves`, each checked once, and
    associativity is checked once per label triple.  Side "right" has one
    half: 1 a = a ("one-sided unit") and S a right antipode ("defining
    antipode"); side "left" has it for the opposite product, which
    cocommutativity makes a right Hopf algebra.  "associativity" and
    S(1) = 1 ("antipode unit") come first; 1 1 = 1 is the unit law at 1.
    Side "two-sided" is the Hopf dialgebra with |- = -| = the product, under
    its names: the halves (A, |-, S) and (A, -|, S), then "associativity
    (|-)".  Its other triple identities would read that one again, and
    S(1) = 1 is 1 |- S(1) = 1, the right antipode identity at 1, by the left
    bar-unit law; so the report and the first failure are those of
    :func:`certify_dialgebra` on the product as two tables.  Identities
    beyond the cap are skipped and counted; a linearised set structure is
    read on its label maps (:func:`~rackalg.rack_bialg._label_maps`).
    """
    c = h.coalgebra
    basis = c.basis
    t, s = h.table, h.antipode
    _refuse_beyond_cap((("product", t),), s)
    check_coalgebra(c)
    check_cocommutative(c)
    sets = _label_maps((c,), lambda: (((t, basis),), (s,)))
    m, sm = (None, None) if sets is None else (sets[0][0], sets[1][0])
    if h.side == "two-sided":
        halves = ((t, t, "bar-unit left", "right antipode for |-", " (|-)"),
                  (t, t.opposite(), "bar-unit right", "left antipode for -|", " (-|)"))
        checked, skipped_labels, skipped_pairs = _check_halves(
            c, s, halves, 1, None if m is None else (sm, (m, m)))
        triples, skipped_triples = _check_associative(basis, t, "associativity (|-)", m)
    else:
        triples, skipped_triples = _check_associative(basis, t, "associativity", m)
        if s(c.unit) != c.unit:
            raise AxiomViolation("antipode unit", "1", s(c.unit), c.unit)
        half = (t, _right_product(t, h.side), "one-sided unit", "defining antipode", "")
        checked, skipped_labels, skipped_pairs = _check_halves(
            c, s, (half,), 1, None if m is None else (sm, (m,)))
    return CheckReport(
        True, checked + triples,
        detail=(f"labels skipped={skipped_labels}, pairs skipped={skipped_pairs}, "
                f"triples skipped={skipped_triples}"))


def certify_one_sided(h: HopfAlgebra) -> HopfAlgebra:
    """Full axiom suite for a one-sided Hopf algebra, by :func:`_check_hopf`;
    returns a certified copy.  A record of side "two-sided" (certified by
    :func:`hopf_as_dialgebra`) or with a capped table raises SchemaError.
    """
    if h.side == "two-sided":
        raise SchemaError("certify_one_sided needs side 'right' or 'left', got 'two-sided'")
    if h.table.cap is not None:
        raise SchemaError("a one-sided Hopf algebra has an uncapped table")
    _check_hopf(h)
    return _certified(h)


def from_group_hopf(gh: HopfAlgebra, side: str = "right") -> HopfAlgebra:
    """K[G] viewed one-sidedly; a genuine Hopf algebra satisfies both sides."""
    return certify_one_sided(dataclasses.replace(gh, side=side))


def trivial_one_sided_hopf(c: Coalgebra, side: str = "right") -> HopfAlgebra:
    """The one-sidedly trivial product on a cocommutative coalgebra.

    Side "right" takes a b = eps(a) b with S = 1 eps; every element is then
    a generalized unit and the Hopf part collapses to the coaugmentation.
    Side "left" is the mirror a b = eps(b) a.
    """
    basis = c.basis

    def column(la: Label, lb: Label) -> tuple[Label, Label, FinVec]:
        kept, other = (lb, la) if side == "right" else (la, lb)
        return la, lb, FinVec.build(basis, {kept: c.counit.get(other, ZERO)})

    table = PairTable.build(basis, (column(la, lb) for la in basis.labels for lb in basis.labels))
    s = FinMap.from_function(basis, basis,
                             lambda lab: c.unit.scale(c.counit.get(lab, ZERO)))
    return certify_one_sided(HopfAlgebra(c, table, s, side))


def right_group_hopf(group: FiniteGroup, points: Sequence[str], base: str,
                     side: str = "right") -> HopfAlgebra:
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
    table = PairTable.build(basis, (
        (gx, ky, FinVec.unit(basis, (group.mul(gx[0], ky[0]), ky[1] if side == "right" else gx[1])))
        for gx in labels for ky in labels))
    s = FinMap.from_function(
        basis, basis, lambda lab: FinVec.unit(basis, (group.inverse(lab[0]), base)))
    return certify_one_sided(HopfAlgebra(c, table, s, side))


def _iota_column(c: Coalgebra, r: PairTable, s_col: Callable[[Label], FinVec],
                 lab: Label) -> FinVec:
    """iota(a) = sum S(a1) a2 in the product ``r`` S is a right antipode for."""
    return linear_sum(c.basis, ((FinVec(c.basis, times_label(r, s_col(l1).entries, l2)), cw)
                                for l1, l2, cw in c.legs(lab)))


def _rho_column(c: Coalgebra, r: PairTable, lab: Label) -> FinVec:
    """rho(a) = a 1 in the product ``r``."""
    return FinVec(c.basis, label_times(r, lab, c.unit.entries))


def idempotent_projector(h: HopfAlgebra) -> FinMap:
    """iota(a) = sum S(a1) a2 (side right) or sum a1 S(a2) (side left), with
    image E: both are sum S(a1) a2 in the product the antipode is a right
    antipode for, as the coproduct is cocommutative."""
    r = _right_product(h.table, h.side)
    return FinMap.from_function(h.basis, h.basis, lambda lab: _iota_column(
        h.coalgebra, r, h.antipode.column, lab))


def hopf_part_projector(h: HopfAlgebra) -> FinMap:
    """rho(a) = a 1 (side right) or 1 a (side left), with image H1: both are
    a 1 in the product the antipode is a right antipode for."""
    r = _right_product(h.table, h.side)
    return FinMap.from_function(h.basis, h.basis, lambda lab: _rho_column(h.coalgebra, r, lab))


def _degree(t: PairTable, v: FinVec) -> int:
    """The largest degree of a label of v."""
    return max((t.degree(lab) for lab in v.entries), default=0)


def _apply(m: FinMap, v: FinVec, t: PairTable, context: str) -> FinVec:
    """m(v), refused for a label of v beyond the cap of ``t``."""
    for lab in v.entries:
        if not t.fits(t.degree(lab)):
            raise DegreeCapExceeded(t.degree(lab), t.cap, context)
    return m(v)


@dataclass(frozen=True)
class _Splitting:
    """What :func:`_split` built (the label pairs under the cap, iota, rho, Psi
    and the legs of its columns, the reduced echelon bases of E and H and,
    on the generic path, their solvers) and how many identities it checked
    and skipped."""

    pairs: list[tuple[Label, Label]]
    iota: FinMap
    rho: FinMap
    psi: FinMap
    psi_legs: dict[Label, list[tuple[Label, Label, Rational]]]
    e: list[FinVec]
    h: list[FinVec]
    spans: tuple[SpanSolver, SpanSolver] | None
    checked: int
    skipped: int


def _differ(space: Basis, identity: str, witness, got: Label, want: Label) -> None:
    """Raise the :class:`DecompositionFailure` of an identity read on labels
    of ``space`` when its sides, the labels got and want, differ."""
    if got != want:
        raise _violation(space, identity, witness, {got: ONE}, {want: ONE}, DecompositionFailure)


def _split(c: Coalgebra, r: PairTable, s_col: Callable[[Label], FinVec],
           labels: Sequence[Label], unit: str, tag: str,
           sets: tuple[Mapping[tuple[Label, Label], Label], Mapping[Label, Label]] | None = None
           ) -> _Splitting:
    """The Suschkewitsch splitting A ~ E (x) H, checked identity by identity.

    ``r`` is the product the antipode is a right antipode for, so a.b = r(b, a)
    is a left Hopf algebra ((A, -|, S) for a dialgebra), and the splitting is
    written as that algebra's: a witness pair (a, b) names a.b.  E is the
    image (equivalently fixed space) of iota(a) = sum a1.S(a2) = sum
    r(S(a1), a2), H that of rho(a) = 1.a = r(a, 1), and Psi(a) =
    sum iota(a1) (x) rho(a2).  ``s_col`` reads the antipode at a label,
    ``labels`` are the labels under the cap of ``r``, and identities beyond
    the cap are skipped and counted.  ``unit`` names the generalized unit
    identity; ``tag`` ends its name and the names of the generalized
    idempotent and psi multiplicative identities.  Once iota passes the
    projector check its image is its fixed space, so the idempotent part
    identity re-checks only the two eliminations.

    ``sets`` is r and S as label maps (:func:`~rackalg.rack_bialg._label_maps`,
    whose lemma makes each side one label): then iota(a) = r(S(a), a) and
    rho(a) = r(a, 1) are labels, E and H are spanned by the unit vectors of
    their image labels in basis order (its span lemma: the same reduced
    echelon bases), a membership in H is a label in the image of rho, and
    the idempotent part identity holds once iota is idempotent.  Every other
    identity is read on labels in the same order, with the same witnesses
    and counts; nothing is eliminated and nothing is skipped.
    """
    basis = c.basis
    square = c.square
    one = c.unit
    eps = c.eps_of
    eps_lab = {lab: c.counit.get(lab, ZERO) for lab in basis.labels}
    units = {lab: FinVec.unit(basis, lab) for lab in basis.labels}
    pairs = list(itertools.product(labels, repeat=2))
    if r.cap is not None:
        pairs = [(la, lb) for la, lb in pairs if r.fits(r.degree(la) + r.degree(lb))]
    checked = 0
    # labels beyond the cap, and the pairs beyond it in the two pair loops
    skipped = basis.dim - len(labels) + 2 * (len(labels) ** 2 - len(pairs))

    if sets is not None:
        m, sm = sets
        (u,) = one.entries
        im = {a: m[sm[a], a] for a in labels}
        for a in labels:
            _differ(basis, "idempotent projector", a, im[im[a]], im[a])
        e_labs = [a for a in labels if im[a] == a]
        for i, x in enumerate(e_labs):
            _differ(basis, f"generalized idempotent{tag}", i, m[x, x], x)
            _differ(basis, "idempotent antipode", i, sm[x], u)
            for a in labels:
                _differ(basis, f"{unit}{tag}", (i, a), m[x, a], a)
        rm = {a: m[a, u] for a in labels}
        for a in labels:
            _differ(basis, "hopf part projector", a, rm[rm[a]], rm[a])
        h_labs = [a for a in labels if rm[a] == a]
        in_h = set(h_labs)
        if u not in in_h:
            raise DecompositionFailure("hopf part unit", "1", one, None)
        for i, y in enumerate(h_labs):
            if sm[y] not in in_h:
                raise _violation(basis, "hopf part antipode closure", i, {sm[y]: ONE}, None,
                                 DecompositionFailure)
            for j, z in enumerate(h_labs):
                if m[z, y] not in in_h:
                    raise _violation(basis, "hopf part closure", (i, j), {m[z, y]: ONE}, None,
                                     DecompositionFailure)
        for la, lb in pairs:
            _differ(basis, "projection multiplicative", (la, lb), rm[m[lb, la]], m[rm[lb], rm[la]])
        pair = {a: merge_labels(basis, im[a], rm[a]) for a in labels}
        for a in labels:
            _differ(basis, "psi left inverse", a, m[rm[a], im[a]], a)
        for i, x in enumerate(e_labs):
            for j, y in enumerate(h_labs):
                _differ(square, "psi factor exchange", (i, j), pair[m[y, x]],
                        merge_labels(basis, x, y))
        if basis.dim != len(e_labs) * len(h_labs):
            raise DecompositionFailure("dimension product", basis.name,
                                       basis.dim, len(e_labs) * len(h_labs))
        for la, lb in pairs:
            _differ(square, f"psi multiplicative{tag}", (la, lb), pair[m[lb, la]],
                    merge_labels(basis, im[la], m[rm[lb], rm[la]]))
        for a in labels:
            _differ(square, "psi antipode", a, pair[sm[a]], merge_labels(basis, u, sm[rm[a]]))
        # per label: projector, psi left inverse, psi antipode and one unit law
        # per idempotent; per pair: projection and psi multiplicative; per pair
        # of H and per idempotent with H: closure and factor exchange
        n = len(labels)
        checked = n * (3 + len(e_labs) + 2 * n) + len(h_labs) * (len(h_labs) + len(e_labs))
        return _Splitting(
            pairs, FinMap(basis, basis, {a: units[im[a]] for a in labels}),
            FinMap(basis, basis, {a: units[rm[a]] for a in labels}),
            FinMap(basis, square, {a: FinVec(square, {pair[a]: ONE}) for a in labels}),
            {a: [(im[a], rm[a], ONE)] for a in labels}, [units[x] for x in e_labs],
            [units[y] for y in h_labs], None, checked, 0)

    def s(v: FinVec) -> FinVec:
        return linear_sum(basis, ((s_col(lab), cv) for lab, cv in v.entries.items()))

    iota = FinMap(basis, basis, {lab: v for lab in labels
                                 if not (v := _iota_column(c, r, s_col, lab)).is_zero})
    for lab in labels:
        got = _apply(iota, iota.column(lab), r, "idempotent projector")
        if got != iota.column(lab):
            raise DecompositionFailure("idempotent projector", lab, got, iota.column(lab))
        checked += 1
    e = SpanSolver([iota.column(lab) for lab in labels])
    e_basis = e.vectors
    moved = FinMap(Basis(f"{basis.name} (within cap)", tuple(labels)), basis, {
        lab: v for lab in labels if not (v := iota.column(lab) - units[lab]).is_zero})
    fixed = [FinVec.build(basis, v.entries) for v in kernel_basis(moved)]
    if span_basis(fixed) != e_basis:
        raise DecompositionFailure("idempotent part", "fixed space", len(fixed), len(e_basis))
    for i, ev in enumerate(e_basis):
        got = linear_sum(basis, ((r.vector(l1, l2), cw) for l1, l2, cw in c.sweedler(ev)))
        if got != ev:
            raise DecompositionFailure(f"generalized idempotent{tag}", i, got, ev)
        if s(ev) != one.scale(eps(ev)):
            raise DecompositionFailure("idempotent antipode", i, s(ev), one.scale(eps(ev)))
        ev_deg = _degree(r, ev)
        for lab in labels:
            if not r.fits(ev_deg + r.degree(lab)):
                skipped += 1
                continue
            # lab.e = eps(e) lab
            want = units[lab].scale(eps(ev))
            got = FinVec(basis, times_label(r, ev.entries, lab))
            if got != want:
                raise DecompositionFailure(f"{unit}{tag}", (i, lab), got, want)
            checked += 1

    rho = FinMap(basis, basis, {lab: v for lab in labels
                                if not (v := _rho_column(c, r, lab)).is_zero})
    for lab in labels:
        got = _apply(rho, rho.column(lab), r, "hopf part projector")
        if got != rho.column(lab):
            raise DecompositionFailure("hopf part projector", lab, got, rho.column(lab))
    h = SpanSolver([rho.column(lab) for lab in labels])
    h_basis = h.vectors
    if not h.contains(one):
        raise DecompositionFailure("hopf part unit", "1", one, None)
    for i, uv in enumerate(h_basis):
        if not h.contains(s(uv)):
            raise DecompositionFailure("hopf part antipode closure", i, s(uv), None)
        for j, vv in enumerate(h_basis):
            if not r.fits(_degree(r, uv) + _degree(r, vv)):
                skipped += 1
                continue
            got = bilinear(r, vv, uv)
            if not h.contains(got):
                raise DecompositionFailure("hopf part closure", (i, j), got, None)
            checked += 1
    for la, lb in pairs:
        # rho(a.b) = rho(a).rho(b), the right side read term by term of rho(a)
        got = _apply(rho, r.vector(lb, la), r, "hopf part projector")
        want = linear_sum(basis, ((FinVec(basis, times_label(r, rho.column(lb).entries, l)), cl)
                                  for l, cl in rho.column(la).entries.items()))
        if got != want:
            raise DecompositionFailure("projection multiplicative", (la, lb), got, want)
        checked += 1

    psi = FinMap(basis, square, {lab: tensor_sum(square, (
        (iota.column(l1), rho.column(l2), cw) for l1, l2, cw in c.legs(lab))) for lab in labels})
    psi_legs = {lab: [split_label(basis, pair) + (cw,) for pair, cw in col.entries.items()]
                for lab, col in psi.columns.items()}
    for lab in labels:
        got = linear_sum(basis, ((r.vector(l2, l1), cw) for l1, l2, cw in psi_legs[lab]))
        if got != units[lab]:
            raise DecompositionFailure("psi left inverse", lab, got, units[lab])
        checked += 1
    for i, ev in enumerate(e_basis):
        for j, uv in enumerate(h_basis):
            if not r.fits(_degree(r, ev) + _degree(r, uv)):
                skipped += 1
                continue
            got = _apply(psi, bilinear(r, uv, ev), r, "psi")
            if got != ev.tensor(uv, square):
                raise DecompositionFailure("psi factor exchange", (i, j), got,
                                           ev.tensor(uv, square))
            checked += 1
    if r.cap is None and basis.dim != len(e_basis) * len(h_basis):
        raise DecompositionFailure("dimension product", basis.name,
                                   basis.dim, len(e_basis) * len(h_basis))
    for la, lb in pairs:
        try:
            # (c (x) h).(c' (x) h') = eps(c') c (x) h.h'
            lhs = _apply(psi, r.vector(lb, la), r, "psi")
            rhs = tensor_sum(square, ((units[a1], r.vector(b2, a2), ca * cb * eps_lab[b1])
                                      for a1, a2, ca in psi_legs[la]
                                      for b1, b2, cb in psi_legs[lb] if eps_lab[b1]))
            if lhs != rhs:
                raise DecompositionFailure(f"psi multiplicative{tag}", (la, lb), lhs, rhs)
            checked += 1
        except DegreeCapExceeded:
            skipped += 1
    for lab in labels:
        try:
            # Psi(S(a)) = sum eps(c) 1 (x) S(h) over Psi(a) = sum c (x) h
            lhs = _apply(psi, s_col(lab), r, "psi")
            rhs = tensor_sum(square, ((one, s_col(l2), cw * eps_lab[l1])
                                      for l1, l2, cw in psi_legs[lab]))
            if lhs != rhs:
                raise DecompositionFailure("psi antipode", lab, lhs, rhs)
            checked += 1
        except DegreeCapExceeded:
            skipped += 1
    return _Splitting(pairs, iota, rho, psi, psi_legs, e_basis, h_basis, (e, h), checked, skipped)


@dataclass(frozen=True)
class SuschkewitschDecomposition:
    """H ~ H1 (x) E: the Hopf part, the generalized units, and the splitting.

    A left Hopf algebra is split as the right Hopf algebra of its opposite
    product.  ``psi_inv`` is the product table, the inverse of Psi by
    multiplication; for side "right" the Hopf leg of ``psi`` comes first,
    for side "left" the idempotent leg does.
    """

    hopf: HopfAlgebra
    hopf_part: tuple[FinVec, ...]
    idempotent_part: tuple[FinVec, ...]
    psi: FinMap
    psi_inv: PairTable


def suschkewitsch(h: HopfAlgebra) -> SuschkewitschDecomposition:
    """Split a one-sided Hopf algebra into its Hopf part and its
    generalized units, verifying every structural identity on the way.

    The splitting is :func:`_split` of the product the antipode is a right
    antipode for (a b for side "right", b a for side "left"), so a witness
    pair (a, b) names a b for a left algebra and b a for a right one; Psi,
    built idempotent leg first, is flipped for side "right".  On top of it
    S is an antipode on H1 on the other side too (iota(u) = eps(u) 1).  The
    rest of "S is two-sided on H1 with unit 1" is not checked again: the
    algebra's own side is the defining identity :func:`certify_one_sided`
    checked on every label, and u 1 = u in r is rho(u) = u, true on the
    image of rho once :func:`_split` checked rho(rho(a)) = rho(a) on every
    label.  Two more identities are implied by what the certifier checked
    on the uncapped table of a certified algebra, and are not checked:

    - iota = r o (S (x) id) o Delta is a coalgebra map.  Delta is one on a
      coassociative, cocommutative carrier; S (x) id is one as S is a
      coalgebra map; r is one as it is comultiplicative and counital on
      every label pair; and coalgebra maps compose.
    - Psi(a) = sum iota(a1) (x) rho(a2) = sum S(a1) a2 (x) a3 1 does not
      depend on the order of the legs a1, a2, a3: on a coassociative,
      cocommutative carrier the iterated coproduct is symmetric in them.

    The splitting takes the set path of :func:`_split` when the product and
    the antipode are label maps (:func:`~rackalg.rack_bialg._label_maps`);
    the check on top of it is read on the unit vectors of H1.  Raises
    :class:`DecompositionFailure` with the first failing identity and its
    witness: a basis label or label pair, an index into the basis of E or
    H1 (or a pair of them), or for a whole-space identity its name ("fixed
    space", "1", the carrier's name).
    """
    if not h.certified:
        raise RackalgError("suschkewitsch needs a certified one-sided Hopf algebra")
    c = h.coalgebra
    basis = c.basis
    s = h.antipode
    rprod = _right_product(h.table, h.side)
    eps = c.eps_of

    maps = _label_maps((c,), lambda: (((rprod, basis),), (s,)))
    sp = _split(c, rprod, s.column, basis.labels, "generalized unit", "",
                None if maps is None else (maps[0][0], maps[1][0]))
    # S is an antipode on the other side too: iota(u) = eps(u) 1 on H1
    other = "left" if h.side == "right" else "right"
    for i, uv in enumerate(sp.h):
        got = sp.iota(uv)
        if got != c.unit.scale(eps(uv)):
            raise DecompositionFailure(f"hopf part {other} antipode", i, got,
                                       c.unit.scale(eps(uv)))

    psi = sp.psi
    if h.side == "right":
        square = c.square
        psi = FinMap.from_function(basis, square, lambda lab: FinVec.build(square, (
            (merge_labels(basis, l2, l1), cw) for l1, l2, cw in sp.psi_legs[lab])))
    return SuschkewitschDecomposition(h, tuple(sp.h), tuple(sp.e), psi, h.table)


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
    ``vdash_table`` and ``dashv_table`` are the two products as tables
    (:class:`~rackalg.exact_core.PairTable`), built on first read; they check
    ``degrees`` and ``cap`` and own them from then on, so every capped check
    asks ``vdash_table.degree`` and ``vdash_table.fits``.  When ``vdash`` and
    ``dashv`` are one mapping (a Hopf algebra with |- = -|), one table is
    stored as both ``vdash_table`` and ``dashv_table``; a read beyond its
    cap names the product "|- = -|".  That is storage only: every identity
    of both products is still checked.
    """

    coalgebra: Coalgebra
    vdash: Mapping[tuple[Label, Label], FinVec]
    dashv: Mapping[tuple[Label, Label], FinVec]
    antipode: FinMap
    degrees: Mapping[Label, int]
    cap: int | None = None
    certified: bool = False
    report: CheckReport | None = dataclasses.field(default=None, compare=False)

    @property
    def basis(self) -> Basis:
        return self.coalgebra.basis

    @property
    def unit(self) -> FinVec:
        return self.coalgebra.unit

    def _table(self, products: Mapping[tuple[Label, Label], FinVec], name: str) -> PairTable:
        return PairTable.build(self.basis, ((la, lb, v) for (la, lb), v in products.items()),
                               self.basis, self.basis, degrees=self.degrees, cap=self.cap,
                               context=f"product {name}")

    @cached_property
    def vdash_table(self) -> PairTable:
        return self._table(self.vdash, "|- = -|" if self.dashv is self.vdash else "|-")

    @cached_property
    def dashv_table(self) -> PairTable:
        if self.dashv is self.vdash:
            return self.vdash_table
        return self._table(self.dashv, "-|")

    def vprod(self, a: FinVec, b: FinVec) -> FinVec:
        """a |- b."""
        return bilinear(self.vdash_table, a, b)

    def dprod(self, a: FinVec, b: FinVec) -> FinVec:
        """a -| b."""
        return bilinear(self.dashv_table, a, b)

    def s(self, a: FinVec) -> FinVec:
        """Antipode, guarded: undefined beyond the cap rather than zero."""
        if self.cap is not None:
            for lab in a.entries:
                self.s_label(lab)
        return self.antipode(a)

    def s_label(self, lab: Label) -> FinVec:
        """S of one basis label: a column of the antipode, guarded as in :meth:`s`."""
        t = self.vdash_table
        if not t.fits(t.degree(lab)):
            raise DegreeCapExceeded(t.degree(lab), t.cap, "antipode")
        return self.antipode.column(lab)


def certify_dialgebra(d: HopfDialgebra) -> HopfDialgebra:
    """Full dialgebra axiom suite; returns a certified copy with a report.

    First the identities of the right Hopf algebra (A, |-, S) and the left
    one (A, -|, S), by :func:`_check_halves`: bar-unit laws, balancedness,
    S a coalgebra map, both one-sided convolution identities (for -|, the
    right antipode identities of the opposite product b -| a) and their
    standard consequences, multiplicativity of the coproduct and counit,
    and antimultiplicativity.  Then, per triple, associativity of both
    products and the three mixed dialgebra axioms.  Identities touching
    degrees beyond the cap are skipped and counted in the report.  S(1) = 1
    needs no check of its own: 1 is group-like, so the right antipode
    identity for |- at 1 reads 1 |- S(1) = 1, whose left side is S(1) by
    the left bar-unit law.

    A product with a basis label on one side is read from the tables
    (:func:`~rackalg.exact_core.times_label`, :func:`~rackalg.exact_core.label_times`),
    so under a cap an entry with a term beyond its degree raises
    :class:`DegreeCapExceeded`; in the triple loop ab is read once per (a, b).

    A linearised set structure (the group algebra of a finite group, or the
    dialgebra of an augmented finite rack) is checked as a set: when every
    carrier label is group-like, the unit is a label and the uncapped
    products and the antipode send each label pair or label to one label
    with the int coefficient 1 (:func:`~rackalg.rack_bialg._label_maps`),
    each identity above is read on the label maps, in the same order, under
    the same names and with the same ``checked``.  By the lemma there each
    side is one label, and S a coalgebra map and the multiplicativity of
    both products hold without being computed.  Any other input, a capped
    one included, takes the generic path; both give the same outcome.
    """
    c = d.coalgebra
    basis = c.basis
    if d.antipode.domain != basis or d.antipode.codomain != basis:
        raise SchemaError("antipode must be an endomorphism of the carrier")
    vt, dt = d.vdash_table, d.dashv_table
    deg = {lab: vt.degree(lab) for lab in basis.labels}
    _refuse_beyond_cap((("|-", vt), ("-|", dt)), d.antipode)
    check_coalgebra(c)
    check_cocommutative(c)

    labs = basis.labels
    # S is a left antipode for -|: a right antipode for the opposite product
    halves = ((vt, vt, "bar-unit left", "right antipode for |-", " (|-)"),
              (dt, dt.opposite(), "bar-unit right", "left antipode for -|", " (-|)"))
    sets = _label_maps((c,), lambda: (((vt, basis), (dt, basis)), (d.antipode,)))
    skipped_triples = 0
    if sets is None:
        checked, skipped_labels, skipped_pairs = _check_halves(c, d.antipode, halves, 2)
        # b c is read from the rows of b: within the cap, as a b c fits
        for la in labs:
            for lb in labs:
                d_ab = deg[la] + deg[lb]
                if not vt.fits(d_ab):
                    skipped_triples += len(labs)
                    continue
                ab_v = vt.entry(la, lb)
                ab_d = dt.entry(la, lb)
                row_v = vt.rows.get(lb, _NO_ENTRIES)
                row_d = dt.rows.get(lb, _NO_ENTRIES)
                for lc in labs:
                    if not vt.fits(d_ab + deg[lc]):
                        skipped_triples += 1
                        continue
                    bc_v = row_v.get(lc, _NO_ENTRIES)
                    lhs = times_label(vt, ab_v, lc)
                    rhs = label_times(vt, la, bc_v)
                    if not same_entries(lhs, rhs):
                        raise _violation(basis, "associativity (|-)", (la, lb, lc), lhs, rhs)
                    checked += 1
                    bc_d = row_d.get(lc, _NO_ENTRIES)
                    got = times_label(vt, ab_d, lc)
                    if not same_entries(got, lhs):
                        raise _violation(basis, "left products agree", (la, lb, lc), got, lhs)
                    lhs = times_label(dt, ab_d, lc)
                    rhs = label_times(dt, la, bc_d)
                    if not same_entries(lhs, rhs):
                        raise _violation(basis, "associativity (-|)", (la, lb, lc), lhs, rhs)
                    got = label_times(dt, la, bc_v)
                    if not same_entries(got, rhs):
                        raise _violation(basis, "right products agree", (la, lb, lc), got, rhs)
                    lhs = times_label(dt, ab_v, lc)
                    rhs = label_times(vt, la, bc_d)
                    if not same_entries(lhs, rhs):
                        raise _violation(basis, "inner associativity", (la, lb, lc), lhs, rhs)
    else:
        (mv, md), (sm,) = sets
        checked, skipped_labels, skipped_pairs = _check_halves(
            c, d.antipode, halves, 2, (sm, (mv, md)))
        for la in labs:
            for lb in labs:
                ab_v, ab_d = mv[la, lb], md[la, lb]
                for lc in labs:
                    bc_v = mv[lb, lc]
                    lhs, rhs = mv[ab_v, lc], mv[la, bc_v]
                    if lhs != rhs:
                        raise _violation(basis, "associativity (|-)", (la, lb, lc), {lhs: ONE},
                                         {rhs: ONE})
                    checked += 1
                    bc_d = md[lb, lc]
                    for axiom, got, want in (
                            ("left products agree", mv[ab_d, lc], lhs),
                            ("associativity (-|)", md[ab_d, lc], md[la, bc_d]),
                            ("right products agree", md[la, bc_v], md[la, bc_d]),
                            ("inner associativity", md[ab_v, lc], mv[la, bc_d])):
                        if got != want:
                            raise _violation(basis, axiom, (la, lb, lc), {got: ONE}, {want: ONE})

    report = CheckReport(
        True, checked,
        detail=(f"labels skipped={skipped_labels}, pairs skipped={skipped_pairs}, "
                f"triples skipped={skipped_triples}"))
    return _certified(d, report=report)


def hopf_as_dialgebra(hopf: HopfBackend) -> HopfDialgebra:
    """A cocommutative Hopf algebra, certified, as the Hopf dialgebra with
    |- = -| = its product.

    The backend is certified once, as a record of side "two-sided", by
    :func:`_check_hopf`, whose report and first failure are those of
    :func:`certify_dialgebra` on the same product as two tables.  The
    dialgebra then has one dict, the pairs under the cap, as both products,
    and carries the backend's table as both of its tables.  Anything but a
    Hopf algebra (a one-sided record, an object that is no Hopf backend) is
    refused with SchemaError."""
    _require_hopf(hopf, "hopf_as_dialgebra")
    report = _check_hopf(hopf)
    t = hopf.table
    table = {(x, y): FinVec(hopf.basis, v) for x in t.rows for y, v in t.rows[x].items()}
    d = HopfDialgebra(hopf.coalgebra, table, table, hopf.antipode, t.degrees, t.cap,
                      certified=True, report=report)
    shared = dataclasses.replace(t, context="product |- = -|")
    d.__dict__.update(vdash_table=shared, dashv_table=shared)
    return d


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
    action, hopf_t = arb.table, hopf.table
    degrees = {(bl, hl): dg for bl, hl in basis.labels
               if (dg := (len(bl) if isinstance(bl, tuple) else 0) + hopf_t.degree(hl))}
    phi_full = {(bl, hl): FinVec(hc.basis, times_label(hopf_t, arb.phi.column(bl).entries, hl))
                for bl, hl in basis.labels if hopf_t.fits(degrees.get((bl, hl), 0))}

    s_hopf = hopf.antipode
    vdash: dict[tuple[Label, Label], FinVec] = {}
    dashv: dict[tuple[Label, Label], FinVec] = {}
    for x in basis.labels:
        dx = degrees.get(x, 0)
        if not hopf_t.fits(dx):
            continue
        sw_x = hc.sweedler(phi_full[x])
        bx, hx = x
        for y in basis.labels:
            if not hopf_t.fits(dx + degrees.get(y, 0)):
                continue
            by, hy = y
            vdash[x, y] = tensor_sum(basis, ((action.vector(u1, by), hopf_t.vector(u2, hy), cw)
                                             for u1, u2, cw in sw_x))
            dashv[x, y] = FinVec.unit(bc.basis, bx).tensor(
                FinVec(hc.basis, label_times(hopf_t, hx, phi_full[y].entries)), basis)
    vdash = {xy: v for xy, v in vdash.items() if not v.is_zero}
    dashv = {xy: v for xy, v in dashv.items() if not v.is_zero}

    s_cols: dict[Label, FinVec] = {}
    for lab in basis.labels:
        if not hopf_t.fits(degrees.get(lab, 0)):
            continue
        val = bc.unit.tensor(s_hopf(phi_full[lab]), basis)
        if not val.is_zero:
            s_cols[lab] = val
    antipode = FinMap(basis, basis, s_cols)

    d = certify_dialgebra(HopfDialgebra(carrier, vdash, dashv, antipode, degrees, hopf_t.cap))

    if hopf_t.fits(2):
        def emb_b(y: FinVec) -> FinVec:
            return y.tensor(hc.unit, basis)

        def emb_h(y: FinVec) -> FinVec:
            return bc.unit.tensor(y, basis)

        def comm(u: FinVec, y: FinVec) -> FinVec:
            return hopf.product(u, y) - hopf.product(y, u)

        # [x, y] = x |- y - y -| x on primitives of either leg is y acted on by
        # x's image in the Hopf algebra: phi(x) on the carrier leg, x on its own
        prim_b, prim_h = primitives(bc), primitives(hc)
        phi_b = [arb.phi(x) for x in prim_b]
        for family, xs, images, emb_x, ys, emb_y, act in (
                ("carrier", prim_b, phi_b, emb_b, prim_b, emb_b, arb.act),
                ("mixed", prim_b, phi_b, emb_b, prim_h, emb_h, comm),
                ("action", prim_h, prim_h, emb_h, prim_b, emb_b, arb.act),
                ("hopf", prim_h, prim_h, emb_h, prim_h, emb_h, comm)):
            for i, (x, u) in enumerate(zip(xs, images)):
                for j, y in enumerate(ys):
                    lhs = d.vprod(emb_x(x), emb_y(y)) - d.dprod(emb_y(y), emb_x(x))
                    rhs = emb_y(act(u, y))
                    if lhs != rhs:
                        raise AxiomViolation("primitive bracket", (family, i, j), lhs, rhs)
    return d


def _rack_pair(d: HopfDialgebra, la: Label, lb: Label) -> FinVec:
    """la |> lb = sum (l1 |- lb) -| S(l2) on basis labels, every read guarded."""
    vt, dt = d.vdash_table, d.dashv_table
    return linear_sum(d.basis, ((bilinear(dt, vt.vector(l1, lb), d.s_label(l2)), cw)
                                for l1, l2, cw in d.coalgebra.legs(la)))


def dialgebra_rack_product(d: HopfDialgebra, a: FinVec, b: FinVec) -> FinVec:
    """a |> b = sum (a1 |- b) -| S(a2)."""
    return linear_sum(d.basis, ((_rack_pair(d, la, lb), ca * cb) for la, ca in a.entries.items()
                                for lb, cb in b.entries.items()))


def dialgebra_leibniz(d: HopfDialgebra) -> LeibnizAlgebra:
    """The bracket [a, b] = a |- b - b -| a restricted to primitives.

    The restriction closes on the primitive subspace and satisfies the
    Leibniz identity, both of which are verified.
    """
    if not d.certified:
        raise RackalgError("dialgebra_leibniz needs a certified dialgebra")
    return _primitive_leibniz(d.coalgebra, lambda x, y: d.vprod(x, y) - d.dprod(y, x),
                              f"Leibniz({d.basis.name})",
                              "dialgebra bracket of primitives left the primitive subspace")


def hopf_dialgebra_rack(d: HopfDialgebra, degree: int | None = None) -> RackBialgebra:
    """The rack bialgebra a |> b = sum (a1 |- b) -| S(a2) of a Hopf dialgebra.

    A capped dialgebra restricts the carrier to degrees <= cap // 2 (or to
    the requested ``degree``) so that every product pair fits; the rack
    product preserves the degree of its second argument, so the truncation
    is closed.  Module identities tying |> back to both dialgebra products
    are verified on every triple within the cap.

    Label pairs of |> within the cap are computed once into a table and read
    as in :func:`certify_dialgebra`; a |- b, a -| b and the terms of a1 |> b
    are read once per (a, b).  When the coalgebra is group-like and both
    products and |> are label maps (:func:`~rackalg.rack_bialg._label_maps`),
    the module identities are read on labels, in the same order: by its
    lemma a |> (b * c) = (a |> b) * (a |> c) for each product *.
    """
    if degree is not None:
        _require_degree(degree)
    if not d.certified:
        raise RackalgError("hopf_dialgebra_rack needs a certified dialgebra")
    c = d.coalgebra
    vt, dt = d.vdash_table, d.dashv_table
    if d.cap is None:
        carrier = c
    else:
        t = d.cap // 2 if degree is None else degree
        if 2 * t > d.cap:
            raise DegreeCapExceeded(2 * t, d.cap, "rack products need pairs inside the cap")
        keep = [lab for lab in c.basis.labels if vt.degree(lab) <= t]
        carrier = restrict_coalgebra(c, keep, f"{c.basis.name} (deg<={t})")
    basis = carrier.basis
    labs = c.basis.labels
    deg = {lab: vt.degree(lab) for lab in labs}
    rack = PairTable.build(c.basis, ((la, lb, _rack_pair(d, la, lb))
                                     for la, lb in itertools.product(labs, repeat=2)
                                     if vt.fits(deg[la] + deg[lb])),
                           degrees=d.degrees, cap=d.cap, context="product |-")

    def mu_col(la: Label, lb: Label) -> Mapping[Label, Rational]:
        val = rack.entry(la, lb)
        for lab in val:
            if lab not in basis:
                raise DegreeCapExceeded(vt.degree(lab), d.cap,
                                        "rack product left the truncated carrier")
        return val

    mu = FinMap.from_pairs(basis, basis, carrier.square, basis, mu_col)
    rb = certify(RackBialgebra(carrier, mu))

    sets = _label_maps((c,), lambda: (((vt, c.basis), (dt, c.basis), (rack, c.basis)), ()))
    if sets is not None:
        (mv, md, mr), _ = sets
        for la, lb in itertools.product(labs, repeat=2):
            xv, xd, ab = mv[la, lb], md[la, lb], mr[la, lb]
            for lc in labs:
                lhs, ac = mr[la, mr[lb, lc]], mr[la, lc]
                sides = ((lhs, mr[xv, lc]), (lhs, mr[xd, lc]),
                         (mr[la, mv[lb, lc]], mv[ab, ac]), (mr[la, md[lb, lc]], md[ab, ac]))
                for axiom, (got, want) in zip(("module identity (|-)", "module identity (-|)",
                                               "module algebra (|-)", "module algebra (-|)"),
                                              sides):
                    if got != want:
                        raise _violation(c.basis, axiom, (la, lb, lc), {got: ONE}, {want: ONE})
        return rb
    for la, lb in itertools.product(labs, repeat=2):
        if not vt.fits(deg[la] + deg[lb]):  # no c fits, and a |- b is refused
            continue
        ab = (("module identity (|-)", vt.entry(la, lb)),
              ("module identity (-|)", dt.entry(la, lb)))
        left = [(l, cw * cl, l2) for l1, l2, cw in c.legs(la)
                for l, cl in rack.entry(l1, lb).items()]
        for lc in labs:
            if not vt.fits(deg[la] + deg[lb] + deg[lc]):
                continue
            lhs = label_times(rack, la, rack.entry(lb, lc))
            for axiom, x in ab:
                rhs = times_label(rack, x, lc)
                if not same_entries(lhs, rhs):
                    raise _violation(c.basis, axiom, (la, lb, lc), lhs, rhs)
            for name, prod in (("|-", vt), ("-|", dt)):
                lhs = label_times(rack, la, prod.entry(lb, lc))
                rhs = {}
                for l, cl, l2 in left:
                    label_times(prod, l, rack.entry(l2, lc), rhs, cl)
                if not same_entries(lhs, rhs):
                    raise _violation(c.basis, f"module algebra ({name})", (la, lb, lc), lhs, rhs)
    return rb


# ---------------------------------------------------------------------------
# structure decomposition of a Hopf dialgebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DialgebraDecomposition:
    """A ~ E (x) H: the Suschkewitsch splitting of the left Hopf algebra
    (A, -|, S) into -| idempotents and the associative quotient image
    1 -| A, with Psi(a) = sum (a1 -| S(a2)) (x) (1 -| a3)."""

    dialgebra: HopfDialgebra
    idempotent_part: tuple[FinVec, ...]
    hopf_part: tuple[FinVec, ...]
    psi: FinMap
    report: CheckReport


def structure_decomposition(d: HopfDialgebra) -> DialgebraDecomposition:
    """Split a Hopf dialgebra into generalized bar-units and its Hopf part.

    The splitting is the Suschkewitsch splitting of the left Hopf algebra
    (A, -|, S), :func:`_split` of b -| a: E is the image of
    iota(a) = sum a1 -| S(a2), H that of pi(a) = 1 -| a.  On top of it the
    |- identities hold: E is made of |- bar-units too, both products agree
    on H and pi merges them, ker pi is spanned by the differences
    x |- y - x -| y, Psi transfers |-, and the primitives split into a
    central ideal and a Leibniz-closed Hopf summand.  Products with a basis
    label on one side are read from the stored columns.

    When the coalgebra is group-like and both products and the antipode are
    uncapped label maps (:func:`~rackalg.rack_bialg._label_maps`), the
    splitting takes the set path of :func:`_split` and the |- identities
    are read on labels, in the same order and with the same witnesses.  By
    the lemmas there the primitives are 0, so the primitive identities hold
    with nothing to check, and "associativity ideal" says that the pairs
    (a |- b, a -| b) connect each fibre of pi.  They do, once the identities
    before it hold: let pi(b) = pi(a) and x = iota(b), a label of E.  By
    "psi multiplicative (-|)", Psi(x -| a) = iota(x) (x) (pi(x) -| pi(a)),
    where iota(x) = x, pi(x) = 1 -| x = 1 ("generalized bar-unit (-|)" at 1)
    and 1 -| pi(a) = pi(a) ("hopf part projector").  So Psi(x -| a) = Psi(b),
    and x -| a = b as Psi is one-to-one ("psi left inverse"), while
    x |- a = a ("generalized bar-unit (|-)"): the pair at (x, a) is (a, b).
    """
    if not d.certified:
        raise RackalgError("structure_decomposition needs a certified dialgebra")
    c = d.coalgebra
    basis = c.basis
    square = c.square
    labs = basis.labels
    vt, dt = d.vdash_table, d.dashv_table
    fit_labels = [lab for lab in labs if vt.fits(vt.degree(lab))]
    sets = _label_maps((c,), lambda: (((vt, basis), (dt, basis)), (d.antipode,)))
    if sets is not None:
        (mv, md), (sm,) = sets
    sp = _split(c, dt.opposite(), d.s_label, fit_labels, "generalized bar-unit", " (-|)",
                None if sets is None else ({(b, a): x for (a, b), x in md.items()}, sm))
    e_basis, h_basis = sp.e, sp.h
    checked, skipped = sp.checked, sp.skipped
    eps = c.eps_of

    if sets is not None:
        (u,) = c.unit.entries
        im = {a: md[a, sm[a]] for a in labs}
        rm = {a: md[u, a] for a in labs}
        e_labs, h_labs = ([lab for v in part for lab in v.entries] for part in (e_basis, h_basis))
        for i, x in enumerate(e_labs):
            for a in labs:
                _differ(basis, "generalized bar-unit (|-)", (i, a), mv[x, a], a)
        for i, y in enumerate(h_labs):
            for j, z in enumerate(h_labs):
                _differ(basis, "hopf part products agree", (i, j), mv[y, z], md[y, z])
        for la, lb in sp.pairs:
            _differ(basis, "projection merges products", (la, lb), rm[mv[la, lb]], rm[md[la, lb]])
        # the associativity ideal holds here, by the argument in the docstring
        for la, lb in sp.pairs:
            z, ra = mv[la, lb], rm[la]
            _differ(square, "psi multiplicative (|-)", (la, lb), merge_labels(basis, im[z], rm[z]),
                    merge_labels(basis, md[mv[ra, im[lb]], sm[ra]], md[ra, rm[lb]]))
        # Prim = 0, so "primitive splitting" is 0 = 0 and its loops are empty
        return DialgebraDecomposition(d, tuple(e_basis), tuple(h_basis), sp.psi,
                                      CheckReport(True, checked, detail=f"skipped={skipped}"))

    for i, ev in enumerate(e_basis):
        ev_deg = _degree(vt, ev)
        for lab in fit_labels:
            if not vt.fits(ev_deg + vt.degree(lab)):
                continue
            want = FinVec.unit(basis, lab, eps(ev))
            got = FinVec(basis, times_label(vt, ev.entries, lab))
            if got != want:
                raise DecompositionFailure("generalized bar-unit (|-)", (i, lab), got, want)

    for i, uv in enumerate(h_basis):
        for j, vv in enumerate(h_basis):
            if not vt.fits(_degree(vt, uv) + _degree(vt, vv)):
                continue
            if d.vprod(uv, vv) != d.dprod(uv, vv):
                raise DecompositionFailure("hopf part products agree", (i, j),
                                           d.vprod(uv, vv), d.dprod(uv, vv))

    def pi(v: FinVec) -> FinVec:
        return _apply(sp.rho, v, vt, "projection merges products")

    ideal_gens = []
    for la, lb in sp.pairs:
        g = vt.vector(la, lb) - dt.vector(la, lb)
        if not pi(g).is_zero:
            raise DecompositionFailure("projection merges products", (la, lb),
                                       pi(vt.vector(la, lb)), pi(dt.vector(la, lb)))
        if not g.is_zero:
            ideal_gens.append(g)
    fit_basis = Basis(f"{basis.name} (within cap)", tuple(fit_labels))
    pi_kernel = [FinVec.build(basis, v.entries)
                 for v in kernel_basis(FinMap(fit_basis, basis, sp.rho.columns))]
    ideal = span_basis(ideal_gens)
    if span_basis(pi_kernel) != ideal:
        raise DecompositionFailure("associativity ideal", "kernel",
                                   len(pi_kernel), len(ideal))

    eps_lab = {lab: c.counit.get(lab, ZERO) for lab in labs}
    for la, lb in sp.pairs:
        try:
            # transferred |-: (c (x) h)(c' (x) h') = eps(c) sum (h1 |> c') (x) (h2 -| h')
            lhs = _apply(sp.psi, vt.vector(la, lb), vt, "psi")
            rhs = tensor_sum(square, (
                (_rack_pair(d, h1, b1), dt.vector(h2, b2), ca * cb * eps_lab[a1] * cw)
                for a1, a2, ca in sp.psi_legs[la] if eps_lab[a1]
                for b1, b2, cb in sp.psi_legs[lb]
                for h1, h2, cw in c.legs(a2)))
            if lhs != rhs:
                raise DecompositionFailure("psi multiplicative (|-)", (la, lb), lhs, rhs)
        except DegreeCapExceeded:
            skipped += 1

    prims = primitives(c)

    def intersect(solver: SpanSolver) -> list[FinVec]:
        rows: dict[Label, dict[int, Rational]] = {}
        for i, p in enumerate(prims):
            for lab, cv in solver.residue(p).entries.items():
                rows.setdefault(lab, {})[i] = cv
        combos = nullspace(rows.values(), len(prims))
        return [linear_sum(basis, ((prims[i], cv) for i, cv in combo.items())) for combo in combos]

    e_span, h_span = sp.spans
    pe = intersect(e_span)
    ph = intersect(h_span)
    # pe and ph lie in Prim, so they split it when they are len(prims) independent vectors
    if len(pe) + len(ph) != len(prims) or len(span_basis(pe + ph)) != len(prims):
        raise DecompositionFailure("primitive splitting", "dimension",
                                   len(pe) + len(ph), len(prims))

    def bracket(a: FinVec, b: FinVec) -> FinVec:
        return d.vprod(a, b) - d.dprod(b, a)

    ph_solver = SpanSolver(ph)
    for i, z in enumerate(pe):
        for j, w in enumerate(pe + ph):
            if not vt.fits(_degree(vt, z) + _degree(vt, w)):
                skipped += 1
                continue
            got = bracket(z, w)
            if not got.is_zero:
                raise DecompositionFailure("central ideal", (i, j), got, None)
            checked += 1
    for i, xi in enumerate(ph):
        for j, z in enumerate(pe):
            if not vt.fits(_degree(vt, xi) + _degree(vt, z)):
                skipped += 1
                continue
            got = bracket(xi, z)
            want = dialgebra_rack_product(d, xi, z)
            if got != want:
                raise DecompositionFailure("mixed bracket is the action", (i, j), got, want)
            checked += 1
        for j, eta in enumerate(ph):
            if not vt.fits(_degree(vt, xi) + _degree(vt, eta)):
                skipped += 1
                continue
            if not ph_solver.contains(bracket(xi, eta)):
                raise DecompositionFailure("hopf part bracket closure", (i, j),
                                           bracket(xi, eta), None)
            checked += 1

    report = CheckReport(True, checked, detail=f"skipped={skipped}")
    return DialgebraDecomposition(d, tuple(e_basis), tuple(h_basis), sp.psi, report)


def augmented_idempotent_basis(arb: AugmentedRackBialgebra) -> list[FinVec]:
    """Spanning vectors sum b1 (x) S(phi(b2)) of the idempotent part of the
    dialgebra built on carrier (x) Hopf, one per carrier basis label."""
    bc = arb.carrier
    hopf = arb.hopf
    hc = hopf.coalgebra
    carrier = tensor_coalgebra(bc, hc)
    s_hopf = hopf.antipode
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
    _require_degree(cap, "dialgebra cap")
    if cap < 2:
        raise SchemaError("the universal dialgebra needs cap >= 2 for bracket headroom")
    arb = uar_infinity(h, 1, env_cap=cap)
    d = dialgebra_from_augmented(arb)
    basis = d.basis
    vt = d.vdash_table

    def part(lab: Label) -> int:
        return len(lab[0])

    for pname, want in (("enveloping", 0), ("dialgebra", 1)):
        members = [lab for lab in basis.labels if part(lab) == want]
        for x, y in itertools.product(members, repeat=2):
            if not vt.fits(vt.degree(x) + vt.degree(y)):
                continue
            for sym, prod in (("|-", vt), ("-|", d.dashv_table)):
                val = prod.vector(x, y)
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
        lhs = phi(h.table.vector(j, k))
        rhs = target.vprod(phi.column(j), phi.column(k)) - target.dprod(
            phi.column(k), phi.column(j))
        if lhs != rhs:
            raise AxiomViolation("leibniz morphism", (j, k), lhs, rhs)

    q = quotient_lie(h)
    barred = {lab: target.dprod(t_one, phi(q.section.column(lab)))
              for lab in q.algebra.basis.labels}
    basis = ud.basis
    ut = ud.vdash_table

    def hat_col(lab: Label) -> FinVec:
        if not ut.fits(ut.degree(lab)):
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
        if not ut.fits(ut.degree(x) + ut.degree(y)):
            continue
        hx = hat_col(x)
        hy = hat_col(y)
        for sym, src, tgt in (("|-", ud.vdash_table.vector, target.vprod),
                              ("-|", ud.dashv_table.vector, target.dprod)):
            try:
                rhs = tgt(hx, hy)
            except DegreeCapExceeded:
                continue
            lhs = hat(src(x, y))
            if lhs != rhs:
                raise DecompositionFailure("dialgebra morphism", (x, y, sym), lhs, rhs)
    return hat
