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

Each identity is stated once and read by the evaluator that
:func:`~rackalg.rack_bialg._label_maps` chooses: on the label maps of a
linearised set structure (group algebras, the dialgebra of an augmented
finite rack), else on coefficient dicts, which alone know the cap.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cache, cached_property
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
    _require_degree,
    bilinear,
    label_times,
    linear_sum,
    merge_labels,
    nullspace,
    span_basis,
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
    _counit,
    _degree,
    _differ,
    _entries,
    _evaluator,
    _hold,
    _label_maps,
    _legs,
    _primitive_leibniz,
    certify,
    uar_infinity,
)
from rackalg.symcoalg import (
    Coalgebra,
    check_coalgebra,
    check_cocommutative,
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


def _check_right_antipode(ev, basis: Basis, r, s, ss, u, lab: Label, legs_a: Sequence[tuple],
                          want, defining: str, tag: str) -> None:
    """The right antipode identities of ``s`` for the product m = ``r`` at
    ``lab``, read by the evaluator ``ev``: ``r``, ``s`` and ``ss`` (S o S)
    are its readers, ``u`` its unit, ``legs_a`` the legs of lab and ``want``
    = eps(a) 1.

    In order: the defining identity sum m(a1, S(a2)) = eps(a) 1, raised as
    ``defining``, then, each name followed by ``tag``, the flip identity
    m(sum m(S(a1), a2), 1) = eps(a) 1, the convolution square
    sum m(S(a1), S(S(a2))) = eps(a) 1, the double antipode S(S(a)) = m(a, 1)
    and unit absorption m(S(a), 1) = S(a).
    """
    convolve = ev.convolve
    got = convolve(r, None, s, legs_a)
    if got != want:
        _differ(defining, lab, got, want, basis)
    got = r[convolve(r, s, None, legs_a), u]
    if got != want:
        _differ(f"antipode flip identity{tag}", lab, got, want, basis)
    got = convolve(r, s, ss, legs_a)
    if got != want:
        _differ(f"antipode convolution square{tag}", lab, got, want, basis)
    sa = s[lab]
    got, rhs = s[sa], r[lab, u]
    if got != rhs:
        _differ(f"double antipode{tag}", lab, got, rhs, basis)
    got = r[sa, u]
    if got != sa:
        _differ(f"antipode unit absorption{tag}", lab, got, sa, basis)


def _dialgebra_halves(vt: PairTable, mv, dt: PairTable, md) -> tuple[tuple, tuple]:
    """The halves (A, |-, S) and (A, -|, S) of a Hopf dialgebra, its tables
    with their readers; S is a left antipode for -|, a right one for the
    opposite product."""
    return ((vt, mv, "bar-unit left", "right antipode for |-", " (|-)", False),
            (dt, md, "bar-unit right", "left antipode for -|", " (-|)", True))


def _check_halves(c: Coalgebra, ev, s_map: FinMap, halves: Sequence[tuple],
                  products: int) -> tuple[int, int, int]:
    """The label and pair identities of one-sided Hopf algebras on ``c`` with
    the antipode ``s_map``, read by the evaluator ``ev``: the halves of a
    one-sided Hopf algebra, a Hopf algebra or a Hopf dialgebra.

    A half (t, p, unit, defining, tag, opposite) has the product ``t``, its
    reader ``p`` and the product r S is a right antipode for: ``t``, or its
    opposite when ``opposite``.  The first ``products`` halves have distinct products (a
    Hopf algebra has one, its halves S a right antipode of t and of its
    opposite).  Per label: each half's r(1, a) = a (``unit``), "balanced"
    (the halves of distinct products agree on r(a, 1)), S a coalgebra map,
    each half's :func:`_check_right_antipode` and S(S(S(a))) = S(a).  Per
    label pair: each distinct product's comultiplicativity and counit, then
    its S(ab) = S(b) S(a).  Per-half names end in ``tag``.  The pair
    identities read only t, so each product is checked once; "balanced" on
    one product t is given by the two unit laws at a, t(1, a) = a and
    t(a, 1) = a, checked just before it.  Returns the number of labels and
    pairs checked, then of labels and of pairs skipped beyond the cap of the
    first table.
    """
    basis = c.basis
    capped = halves[0][0]
    (s,) = ev.maps
    u = ev.unit(c)
    legs, eps = _legs(c), _counit(c)
    ss = ev.as_map({lab: s[s[lab]] for lab in basis.labels})
    readers = [(p, ev.opposite(p) if opposite else p) for _, p, *_, opposite in halves]
    r0 = readers[0][1]
    checked = skipped_labels = skipped_pairs = 0
    for lab in basis.labels:
        if capped.cap is not None and not capped.fits(capped.degree(lab)):
            skipped_labels += 1
            continue
        for (_, _, unit, *_), (_, r) in zip(halves, readers):
            if r[u, lab] != lab:
                _differ(unit, lab, r[u, lab], lab, basis)
        for _, r in readers[1:products]:
            if r0[lab, u] != r[lab, u]:
                _differ("balanced", lab, r0[lab, u], r[lab, u], basis)
        ev.coalgebra_map(c, c, s_map.column, (lab,), "antipode")
        want = ev.total([(u, eps[lab])])
        for (*_, defining, tag, _), (_, r) in zip(halves, readers):
            _check_right_antipode(ev, basis, r, s, ss, u, lab, legs[lab], want, defining, tag)
        sa = s[lab]
        if s[s[sa]] != sa:
            _differ("triple antipode", lab, s[s[sa]], sa, basis)
        checked += 1

    distinct = [(t, p, f"product comultiplicativity{tag}", f"product counit{tag}",
                 f"antipode antihomomorphism{tag}")
                for (t, p, *_, tag, _) in halves[:products]]
    for la, lb in itertools.product(basis.labels, repeat=2):
        if capped.cap is not None and not capped.fits(capped.degree(la) + capped.degree(lb)):
            skipped_pairs += 1
            continue
        for t, _, comultiplicativity, counit, _ in distinct:
            ev.multiplicative(c, t, ((la, lb),), comultiplicativity, counit)
        for _, p, _, _, antihomomorphism in distinct:
            lhs, rhs = s[p[la, lb]], p[s[lb], s[la]]
            if lhs != rhs:
                _differ(antihomomorphism, (la, lb), lhs, rhs, basis)
        checked += 1
    return checked, skipped_labels, skipped_pairs


def _report(halves: tuple[int, int, int], triples: tuple[int, int]) -> CheckReport:
    """The report from the counts of :func:`_check_halves` and of the triples."""
    (checked, labels, pairs), (n, skipped) = halves, triples
    return CheckReport(True, checked + n, detail=(
        f"labels skipped={labels}, pairs skipped={pairs}, triples skipped={skipped}"))


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


def _check_hopf(h: HopfBackend) -> CheckReport:
    """The one certifier of a Hopf record of any side, or of a Hopf backend
    (side "two-sided"); returns the report or raises the first failure.

    After the carrier coalgebra and its cocommutativity, the side chooses
    the halves of :func:`_check_halves`, each checked once, and the triple
    walker (see :mod:`~rackalg.rack_bialg`) reads associativity as
    L_(ab) = L_a o L_b.  Side "right" has one half: 1 a = a ("one-sided
    unit") and S a right antipode ("defining antipode"); side "left" has it
    for the opposite product, which cocommutativity makes a right Hopf
    algebra.  "associativity" and
    S(1) = 1 ("antipode unit") come first; 1 1 = 1 is the unit law at 1.
    Side "two-sided" is the Hopf dialgebra with |- = -| = the product, under
    its names: the halves (A, |-, S) and (A, -|, S), then "associativity
    (|-)".  Its other triple identities would read that one again, and
    S(1) = 1 is 1 |- S(1) = 1, the right antipode identity at 1, by the left
    bar-unit law; so the report and the first failure are those of
    :func:`certify_dialgebra` on the product as two tables.
    """
    c = h.coalgebra
    basis = c.basis
    t, s = h.table, h.antipode
    _refuse_beyond_cap((("product", t),), s)
    check_coalgebra(c)
    check_cocommutative(c)
    tables, maps = ((t, basis),), (s,)
    ev = _evaluator(_label_maps((c,), tables, maps), tables, maps)
    (p,), (sm,) = ev.products, ev.maps
    halves = _dialgebra_halves(t, p, t, p) if h.side == "two-sided" else (
        (t, p, "one-sided unit", "defining antipode", "", h.side == "left"),)
    associativity = ((f"associativity{halves[0][4]}", ("product", p, p), ("compose", p, p)),)
    if h.side == "two-sided":
        counts = _check_halves(c, ev, s, halves, 1)
        return _report(counts, _hold(ev, associativity, basis, t=t))
    triples = _hold(ev, associativity, basis, t=t)
    u = ev.unit(c)
    if sm[u] != u:
        _differ("antipode unit", "1", sm[u], u, basis)
    return _report(_check_halves(c, ev, s, halves, 1), triples)


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


@dataclass(frozen=True)
class _Splitting:
    """What :func:`_split` built (pairs under the cap, iota and rho as values,
    Psi and its legs, E and H as vectors and values, the readers of rho and
    Psi, on dicts the solvers of E and H) and the identities it counted."""

    pairs: list[tuple[Label, Label]]
    iota: dict[Label, object]
    rho: dict[Label, object]
    psi: FinMap
    psi_legs: dict[Label, list[tuple[Label, Label, Rational]]]
    e: list[FinVec]
    h: list[FinVec]
    values: tuple[list, list]
    readers: tuple
    spans: tuple[SpanSolver | None, SpanSolver | None]
    checked: int
    skipped: int


def _merged(basis: Basis, v):
    """A tensor value (a label pair, or a dict keyed by them) on merged labels."""
    if isinstance(v, tuple):
        return merge_labels(basis, *v)
    return {merge_labels(basis, x, y): w for (x, y), w in v.items()}


def _finmap(domain: Basis, codomain: Basis, values: Mapping[Label, object]) -> FinMap:
    """The map with the nonzero evaluator values ``values`` as its columns."""
    return FinMap(domain, codomain, {a: FinVec(codomain, v) for a, x in values.items()
                                     if (v := _entries(x))})


def _split(c: Coalgebra, ev, r, s, t: PairTable, labels: Sequence[Label], unit: str,
           tag: str) -> _Splitting:
    """The Suschkewitsch splitting A ~ E (x) H, checked identity by identity.

    ``r`` is the evaluator's reader of the product the antipode is a right
    antipode for, so a.b = r(b, a) is a left Hopf algebra ((A, -|, S) for a
    dialgebra), and the splitting is written as that algebra's: a witness
    pair (a, b) names a.b.  E is the image (equivalently fixed space) of
    iota(a) = sum a1.S(a2) = sum r(S(a1), a2), H that of rho(a) = 1.a =
    r(a, 1), and Psi(a) = sum iota(a1) (x) rho(a2).  ``s`` reads the
    antipode, ``t`` is the table of r, whose cap the ``labels`` are under,
    and identities beyond the cap are skipped and counted.  ``unit`` names
    the generalized unit identity; ``tag`` ends its name and the names of
    the generalized idempotent and psi multiplicative identities.  Once iota
    passes the projector check its image is its fixed space, so the
    idempotent part identity re-checks only the two eliminations.

    Each identity is read by the evaluator ``ev``; on label maps E and H are
    spanned by their image labels (the span lemma of
    :func:`~rackalg.rack_bialg._label_maps`), so nothing is eliminated.
    """
    basis = c.basis
    square = c.square
    u = ev.unit(c)
    legs, eps = _legs(c), _counit(c)
    total, tensor_total = ev.total, ev.tensor_total
    capped = t.cap is not None
    pairs = list(itertools.product(labels, repeat=2))
    if capped:
        pairs = [(la, lb) for la, lb in pairs if t.fits(t.degree(la) + t.degree(lb))]
    checked = 0
    # labels beyond the cap, and the pairs beyond it in the two pair loops
    skipped = basis.dim - len(labels) + 2 * (len(labels) ** 2 - len(pairs))

    iota = {a: ev.convolve(r, s, None, legs[a]) for a in labels}
    im = ev.as_map(iota, t, "iota")
    for a in labels:
        if im[iota[a]] != iota[a]:
            _differ("idempotent projector", a, im[iota[a]], iota[a], basis, DecompositionFailure)
        checked += 1
    e_vals, _, e_span = ev.span(basis, iota.values())
    fixed = ev.fixed_space(basis, labels, iota, e_vals)
    if fixed != e_vals:
        raise DecompositionFailure("idempotent part", "fixed space", len(fixed), len(e_vals))
    for i, x in enumerate(e_vals):
        terms = _entries(x).items()
        got = total([(r[x1, x2], w * cw) for l, w in terms for x1, x2, cw in legs[l]])
        if got != x:
            _differ(f"generalized idempotent{tag}", i, got, x, basis, DecompositionFailure)
        eps_x = sum(w * eps[l] for l, w in terms)
        got, want = s[x], ev.total([(u, eps_x)])
        if got != want:
            _differ("idempotent antipode", i, got, want, basis, DecompositionFailure)
        x_deg = capped and _degree(t, x)
        for a in labels:
            if capped and not t.fits(x_deg + t.degree(a)):
                skipped += 1
                continue
            # a.x = eps(x) a
            got, want = r[x, a], ev.total([(a, eps_x)])
            if got != want:
                _differ(f"{unit}{tag}", (i, a), got, want, basis, DecompositionFailure)
            checked += 1

    rho = {a: r[a, u] for a in labels}
    rm = ev.as_map(rho, t, "rho")
    for a in labels:
        if rm[rho[a]] != rho[a]:
            _differ("hopf part projector", a, rm[rho[a]], rho[a], basis, DecompositionFailure)
    h_vals, in_h, h_span = ev.span(basis, rho.values())
    if not in_h(u):
        raise DecompositionFailure("hopf part unit", "1", c.unit, None)
    for i, y in enumerate(h_vals):
        if not in_h(s[y]):
            _differ("hopf part antipode closure", i, s[y], None, basis, DecompositionFailure)
        for j, z in enumerate(h_vals):
            if capped and not t.fits(_degree(t, y) + _degree(t, z)):
                skipped += 1
                continue
            if not in_h(r[z, y]):
                _differ("hopf part closure", (i, j), r[z, y], None, basis, DecompositionFailure)
            checked += 1
    for la, lb in pairs:
        # rho(a.b) = rho(a).rho(b)
        got, want = rm[r[lb, la]], r[rho[lb], rho[la]]
        if got != want:
            _differ("projection multiplicative", (la, lb), got, want, basis, DecompositionFailure)
        checked += 1

    psi = {a: tensor_total([(im[a1], rm[a2], w) for a1, a2, w in legs[a]]) for a in labels}
    psi_legs = {a: [(x, y, w) for (x, y), w in _entries(psi[a]).items()] for a in labels}
    pm = ev.as_map(psi, t, "psi")
    for a in labels:
        got = total([(r[y, x], w) for x, y, w in psi_legs[a]])
        if got != a:
            _differ("psi left inverse", a, got, a, basis, DecompositionFailure)
        checked += 1
    for i, x in enumerate(e_vals):
        for j, y in enumerate(h_vals):
            if capped and not t.fits(_degree(t, x) + _degree(t, y)):
                skipped += 1
                continue
            got, want = pm[r[y, x]], tensor_total([(x, y, ONE)])
            if got != want:
                _differ("psi factor exchange", (i, j), _merged(basis, got), _merged(basis, want),
                        square, DecompositionFailure)
            checked += 1
    if not capped and basis.dim != len(e_vals) * len(h_vals):
        raise DecompositionFailure("dimension product", basis.name,
                                   basis.dim, len(e_vals) * len(h_vals))
    # sum eps(c') h' over the terms c' (x) h' of Psi(b)
    tails = {b: total([(y, w * eps[x]) for x, y, w in psi_legs[b]]) for b in labels}
    for la, lb in pairs:
        try:
            # (c (x) h).(c' (x) h') = eps(c') c (x) h.h'
            got = pm[r[lb, la]]
            want = tensor_total([(x, r[tails[lb], y], w) for x, y, w in psi_legs[la]])
            if got != want:
                _differ(f"psi multiplicative{tag}", (la, lb), _merged(basis, got),
                        _merged(basis, want), square, DecompositionFailure)
            checked += 1
        except DegreeCapExceeded:
            skipped += 1
    for a in labels:
        try:
            # Psi(S(a)) = sum eps(c) 1 (x) S(h) over Psi(a) = sum c (x) h
            got = pm[s[a]]
            want = tensor_total([(u, s[y], w * eps[x]) for x, y, w in psi_legs[a]])
            if got != want:
                _differ("psi antipode", a, _merged(basis, got), _merged(basis, want), square,
                        DecompositionFailure)
            checked += 1
        except DegreeCapExceeded:
            skipped += 1
    return _Splitting(
        pairs, iota, rho, _finmap(basis, square, {a: _merged(basis, v) for a, v in psi.items()}),
        psi_legs,
        [FinVec(basis, _entries(x)) for x in e_vals], [FinVec(basis, _entries(y)) for y in h_vals],
        (e_vals, h_vals), (rm, pm), (e_span, h_span), checked, skipped)


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

    The splitting is read by the evaluator of
    :func:`~rackalg.rack_bialg._label_maps`; the check on top of it is read
    on the vectors of H1.  Raises
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

    tables, maps = ((rprod, basis),), (s,)
    ev = _evaluator(_label_maps((c,), tables, maps), tables, maps)
    (r,), (sm,) = ev.products, ev.maps
    sp = _split(c, ev, r, sm, rprod, basis.labels, "generalized unit", "")
    # S is an antipode on the other side too: iota(u) = eps(u) 1 on H1
    other = "left" if h.side == "right" else "right"
    iota = _finmap(basis, basis, sp.iota)
    for i, uv in enumerate(sp.h):
        got = iota(uv)
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
    and antimultiplicativity.  Then associativity of both products and the
    three mixed dialgebra axioms, read by the triple walker under its cap
    rule (see :mod:`~rackalg.rack_bialg`), the triples skipped counted in
    the report.  S(1) = 1 needs no check of its own: 1 is group-like, so the
    right antipode identity for |- at 1 reads 1 |- S(1) = 1, whose left side
    is S(1) by the left bar-unit law.  Each identity is read by the evaluator
    of :func:`~rackalg.rack_bialg._label_maps`; under a cap a table entry
    with a term beyond its degree raises :class:`DegreeCapExceeded`.
    """
    c = d.coalgebra
    basis = c.basis
    if d.antipode.domain != basis or d.antipode.codomain != basis:
        raise SchemaError("antipode must be an endomorphism of the carrier")
    vt, dt = d.vdash_table, d.dashv_table
    _refuse_beyond_cap((("|-", vt), ("-|", dt)), d.antipode)
    check_coalgebra(c)
    check_cocommutative(c)

    tables, maps = ((vt, basis), (dt, basis)), (d.antipode,)
    ev = _evaluator(_label_maps((c,), tables, maps), tables, maps)
    mv, md = ev.products
    halves = _check_halves(c, ev, d.antipode, _dialgebra_halves(vt, mv, dt, md), 2)
    triples = _hold(ev, (
        ("associativity (|-)", ("product", mv, mv), ("compose", mv, mv)),
        ("left products agree", ("product", mv, md), ("product", mv, mv)),
        ("associativity (-|)", ("product", md, md), ("compose", md, md)),
        ("right products agree", ("compose", md, mv), ("compose", md, md)),
        ("inner associativity", ("product", md, mv), ("compose", mv, md))), basis, t=vt)
    return _certified(d, report=_report(halves, triples))


def hopf_as_dialgebra(hopf: HopfBackend) -> HopfDialgebra:
    """A cocommutative Hopf algebra, certified, as the Hopf dialgebra with
    |- = -| = its product.

    The backend is certified once, as a record of side "two-sided", by
    :func:`_check_hopf`, whose report and first failure are those of
    :func:`certify_dialgebra` on the same product as two tables.  The
    dialgebra then has one dict, the pairs under the cap, as both products,
    and carries the backend's table as both of its tables: the table itself
    when uncapped, so its label-map scan is kept, and under a cap a copy
    whose refusals name the product "|- = -|".  Anything but a Hopf algebra
    (a one-sided record, an object that is no Hopf backend) is refused with
    SchemaError."""
    _require_hopf(hopf, "hopf_as_dialgebra")
    report = _check_hopf(hopf)
    t = hopf.table
    table = {(x, y): FinVec(hopf.basis, v) for x in t.rows for y, v in t.rows[x].items()}
    d = HopfDialgebra(hopf.coalgebra, table, table, hopf.antipode, t.degrees, t.cap,
                      certified=True, report=report)
    shared = t if t.cap is None else dataclasses.replace(t, context="product |- = -|")
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
    is closed.  The module identities tying |> back to both products,
    L_a o L_b = L_(a |- b) = L_(a -| b) and L_a o L^|-_b =
    sum L^|-_(a1 |> b) o L_(a2) (and for -|), are read by the triple walker
    under its cap rule (see :mod:`~rackalg.rack_bialg`), on a table of the
    pairs of |> within the cap, by the evaluator of
    :func:`~rackalg.rack_bialg._label_maps`.
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
    rack = PairTable.build(c.basis, ((la, lb, _rack_pair(d, la, lb))
                                     for la, lb in itertools.product(c.basis.labels, repeat=2)
                                     if vt.fits(vt.degree(la) + vt.degree(lb))),
                           degrees=d.degrees, cap=d.cap, context="product |-")

    def mu_col(la: Label, lb: Label) -> Mapping[Label, Rational]:
        val = rack.entry(la, lb)
        for lab in val:
            if lab not in basis:
                raise DegreeCapExceeded(vt.degree(lab), d.cap,
                                        "rack product left the truncated carrier")
        return val

    rb = RackBialgebra(carrier, FinMap.from_pairs(basis, basis, carrier.square, basis, mu_col))
    if d.cap is None:  # the carrier is c, and ``rack`` is the table of mu
        rb.__dict__["table"] = rack
    rb = certify(rb)

    tables = ((vt, c.basis), (dt, c.basis), (rack, c.basis))
    ev = _evaluator(_label_maps((c,), tables, ()), tables, ())
    mv, md, mr = ev.products
    _hold(ev, (("module identity (|-)", ("compose", mr, mr), ("product", mr, mv)),
               ("module identity (-|)", ("compose", mr, mr), ("product", mr, md)),
               ("module algebra (|-)", ("compose", mr, mv), ("distribute", mv, mr)),
               ("module algebra (-|)", ("compose", mr, md), ("distribute", md, mr))),
          c.basis, _legs(c), vt)
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

    The splitting and the |- identities are read by the evaluator of
    :func:`~rackalg.rack_bialg._label_maps`.  On label maps, by the lemmas
    there, the primitives are 0, so the primitive identities hold with
    nothing to check, and "associativity ideal" says that the pairs
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
    tables, maps = ((vt, basis), (dt, basis)), (d.antipode,)
    ev = _evaluator(_label_maps((c,), tables, maps), tables, maps)
    (mv, md), (sm,) = ev.products, ev.maps
    s = ev.as_map(sm, vt, "antipode")
    sp = _split(c, ev, ev.opposite(md), s, dt, fit_labels, "generalized bar-unit", " (-|)")
    checked, skipped = sp.checked, sp.skipped
    (e_vals, h_vals), (rho, psi) = sp.values, sp.readers
    capped = vt.cap is not None

    eps = _counit(c)
    for i, x in enumerate(e_vals):
        eps_x = sum(w * eps[l] for l, w in _entries(x).items())
        x_deg = capped and _degree(vt, x)
        for a in fit_labels:
            if capped and not vt.fits(x_deg + vt.degree(a)):
                continue
            got, want = mv[x, a], ev.total([(a, eps_x)])
            if got != want:
                _differ("generalized bar-unit (|-)", (i, a), got, want, basis,
                        DecompositionFailure)

    for i, y in enumerate(h_vals):
        for j, z in enumerate(h_vals):
            if capped and not vt.fits(_degree(vt, y) + _degree(vt, z)):
                continue
            if mv[y, z] != md[y, z]:
                _differ("hopf part products agree", (i, j), mv[y, z], md[y, z], basis,
                        DecompositionFailure)

    for la, lb in sp.pairs:
        got, want = rho[mv[la, lb]], rho[md[la, lb]]
        if got != want:
            _differ("projection merges products", (la, lb), got, want, basis,
                    DecompositionFailure)
    kernel, ideal = ev.kernel_and_ideal(basis, fit_labels, sp.rho, mv, md, sp.pairs)
    if kernel != ideal:
        raise DecompositionFailure("associativity ideal", "kernel", len(kernel), len(ideal))

    legs, total = _legs(c), ev.total

    @cache
    def rack(x: Label, y: Label):
        """x |> y = sum (x1 |- y) -| S(x2)."""
        return total([(md[mv[x1, y], s[x2]], w) for x1, x2, w in legs[x]])

    # the legs of sum eps(c) h over the terms c (x) h of Psi(a)
    heads = {}
    for a in fit_labels:
        h_part = total([(h, w * eps[x]) for x, h, w in sp.psi_legs[a]])
        heads[a] = [(h1, h2, w * cw) for h, w in _entries(h_part).items() for h1, h2, cw in legs[h]]
    for la, lb in sp.pairs:
        try:
            # transferred |-: (c (x) h)(c' (x) h') = eps(c) sum (h1 |> c') (x) (h2 -| h')
            got = psi[mv[la, lb]]
            want = ev.tensor_total([(rack(h1, b1), md[h2, b2], w * cb) for h1, h2, w in heads[la]
                                    for b1, b2, cb in sp.psi_legs[lb]])
            if got != want:
                _differ("psi multiplicative (|-)", (la, lb), _merged(basis, got),
                        _merged(basis, want), square, DecompositionFailure)
        except DegreeCapExceeded:
            skipped += 1

    prims = ev.primitives(c)

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
            if not vt.fits(_degree(vt, z.entries) + _degree(vt, w.entries)):
                skipped += 1
                continue
            got = bracket(z, w)
            if not got.is_zero:
                raise DecompositionFailure("central ideal", (i, j), got, None)
            checked += 1
    for i, xi in enumerate(ph):
        for j, z in enumerate(pe):
            if not vt.fits(_degree(vt, xi.entries) + _degree(vt, z.entries)):
                skipped += 1
                continue
            got = bracket(xi, z)
            want = dialgebra_rack_product(d, xi, z)
            if got != want:
                raise DecompositionFailure("mixed bracket is the action", (i, j), got, want)
            checked += 1
        for j, eta in enumerate(ph):
            if not vt.fits(_degree(vt, xi.entries) + _degree(vt, eta.entries)):
                skipped += 1
                continue
            if not ph_solver.contains(bracket(xi, eta)):
                raise DecompositionFailure("hopf part bracket closure", (i, j),
                                           bracket(xi, eta), None)
            checked += 1

    report = CheckReport(True, checked, detail=f"skipped={skipped}")
    return DialgebraDecomposition(d, tuple(sp.e), tuple(sp.h), sp.psi, report)


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
