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

Every identity on basis triples (a, b, c), here and in
:mod:`~rackalg.right_hopf_dialg`, is read by the one walker :func:`_walk` per
pair (a, b) as an equation of operators in c, each L_(a.b): c -> p(q(a, b), c),
L_a o L'_b: c -> p(a, q(b, c)) or sum L_(a1 . b) o L'_(a2) over the legs of a:
associativity is L_(ab) = L_a o L_b, self-distributivity
L_a o L_b = sum L_(a1 |> b) o L_(a2).  A pair whose sides differ is read again
one c at a time, in label order, for the first failing triple, its sides and
the count before it.  Under a degree cap a pair with deg a + deg b > cap skips
its dim triples; else c runs over the labels of degree <= cap - deg a - deg b,
the others skipped and counted, and a read refused there raises from the re-read.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from rackalg import exact_core
from rackalg.env_hopf import HopfBackend, _envelope, _require_hopf, _word_action, phi_map
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
    _refuse,
    _require_degree,
    _row,
    bilinear,
    kernel_basis,
    label_times,
    merge_labels,
    same_entries,
    span_basis,
    tensor_basis,
    times_label,
)
from rackalg.groups import FiniteGroup, group_hopf, group_like_coalgebra
from rackalg.leibniz import LeibnizAlgebra, QuotientLie, _quotient, check_leibniz, left_center
from rackalg.symcoalg import (
    Coalgebra,
    check_coalgebra,
    check_coalgebra_map,
    check_multiplicative,
    coalgebra_filtration,
    group_likes,
    is_cocommutative,
    primitives,
    restrict_coalgebra,
    symmetric_coalgebra,
)


# a value of the coefficient-dict evaluator; every other value is a basis label
_VALUES = (dict, MappingProxyType)


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
    """Unit laws, then self-distributivity by the walker on label maps."""
    for y in x.elements:
        if x.apply(x.unit, y) != y:
            raise AxiomViolation("rack left unit", (y,), x.apply(x.unit, y), y)
        if x.apply(y, x.unit) != x.unit:
            raise AxiomViolation("rack unit absorption", (y,), x.apply(y, x.unit), x.unit)
    legs = {a: [(a, a, 1)] for a in x.elements}
    if (failure := _walk(_OnLabels([x.op], []), _selfdistributivity(x.op), x.elements, legs)[0]):
        raise AxiomViolation("rack self-distributivity", *failure[1:])


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

    Each identity is read by the evaluator that :func:`_label_maps` chooses:
    on the label map of a linearised finite rack, where by its lemma the two
    multiplicativity identities hold, or on coefficient dicts.
    """
    check_coalgebra(rb.carrier)
    _check_product(rb)
    return _certified(rb)


def _one_label(v: Mapping[Label, Coeff], basis: Basis) -> Label | None:
    """The label of ``v`` when it is one label of ``basis`` with the int
    coefficient 1, else None."""
    if len(v) == 1:
        ((lab, x),) = v.items()
        if type(x) is int and x == 1 and lab in basis._index:
            return lab
    return None


def _label_table(t: PairTable, left: Basis) -> dict[tuple[Label, Label], Label] | None:
    """``t`` as {(a, b): c} on ``left`` x ``t.basis`` labels (see :func:`_label_maps`), or None."""
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
    return m


def _label_maps(coalgebras: Sequence[Coalgebra], tables: Sequence[tuple[PairTable, Basis]],
                maps: Sequence[FinMap]
                ) -> tuple[list[dict[tuple[Label, Label], Label]], list[dict[Label, Label]]] | None:
    """The one choice of evaluator (:func:`_evaluator`) for a certifier or a
    splitting: the label maps of a linearised set structure, read by
    :class:`_OnLabels`, or None, and :class:`_OnDicts` reads coefficient dicts.

    Label maps are found when every basis label l of each coalgebra is
    group-like as stored (the one leg l (x) l with coefficient 1, and
    eps(l) = 1), each unit is one label with the int coefficient 1, each
    table (t, left) is uncapped and sends every pair of a ``left`` label and
    a label of ``t.basis`` to one label with the int coefficient 1, and each
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
    label_tables = []
    for t, left in tables:
        # a table is scanned once per left basis; the scan is kept on the table
        seen, m = t.__dict__.get("_label_table", (None, None))
        if seen is not left:
            m = _label_table(t, left)
            t.__dict__["_label_table"] = (left, m)
        if m is None:
            return None
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


def _entries(v) -> Mapping[Label, Coeff]:
    """A value of either evaluator as a coefficient dict: a label is that
    label with coefficient 1."""
    return v if isinstance(v, _VALUES) else {v: ONE}


def _differ(axiom: str, witness, got, want, space: Basis, error: type = AxiomViolation) -> None:
    """The one violation builder: raise ``error`` for ``axiom`` at ``witness``
    unless its sides, values of either evaluator (a membership has no right
    side), agree in ``space``.  Callers test ``got != want`` first."""
    got = _entries(got)
    if want is not None:
        want = _entries(want)
        if same_entries(got, want):
            return
    raise error(axiom, witness, FinVec(space, got), None if want is None else FinVec(space, want))


def _degree(t: PairTable, v) -> int:
    """The degree under ``t`` of a label, or the largest of the labels of a dict."""
    if isinstance(v, _VALUES):
        return max((t.degree(lab) for lab in v), default=0)
    return t.degree(v)


class _Product:
    """A product table read on coefficient dicts: ``p[x, y]`` for x and y each
    a basis label or a dict, refused beyond the cap as the table refuses it."""

    __slots__ = ("t", "rows", "cols", "cap")

    def __init__(self, t: PairTable) -> None:
        self.t, self.rows, self.cols, self.cap = t, t.rows, t.cols, t.cap

    def __getitem__(self, key: tuple) -> Mapping[Label, Coeff]:
        x, y = key
        if isinstance(x, _VALUES):
            if isinstance(y, _VALUES):
                acc: dict[Label, Coeff] = {}
                for lab, c in x.items():
                    exact_core._read(self.t, self.rows, lab, y, acc, c)
                return acc
            return exact_core._read(self.t, self.cols, y, x, {}, ONE)
        if isinstance(y, _VALUES):
            return exact_core._read(self.t, self.rows, x, y, {}, ONE)
        if self.cap is not None:
            _refuse(self.t, x, (y,))
        return self.rows.get(x, _NO_ENTRIES).get(y, _NO_ENTRIES)


_FREE = PairTable(Basis("operators", ()), {}, {})  # the lines of operator sums, never capped


class _Map:
    """A map read on coefficient dicts: ``f[x]`` for x a label (its column in
    ``cols``) or a dict; a label beyond the cap of ``t`` is refused."""

    __slots__ = ("cols", "t", "context")

    def __init__(self, cols: Mapping[Label, Mapping[Label, Coeff]] | _Map,
                 t: PairTable | None = None, context: str = "") -> None:
        self.cols, self.context = cols.cols if isinstance(cols, _Map) else cols, context
        self.t = t if t is not None and t.cap is not None else None

    def __getitem__(self, x) -> Mapping[Label, Coeff]:
        labels = x if isinstance(x, _VALUES) else (x,)
        t = self.t
        if t is not None:
            for lab in labels:
                if not t.fits(t.degree(lab)):
                    raise DegreeCapExceeded(t.degree(lab), t.cap, self.context)
        if labels is not x:
            return self.cols.get(x, _NO_ENTRIES)
        acc: dict[Label, Coeff] = {}
        for lab, c in x.items():
            col = self.cols.get(lab)
            if col:
                _accumulate(acc, c, col.items())
        return acc


def _legs(c: Coalgebra) -> dict[Label, list]:
    """The legs of every label of ``c``: on a linearised set, l (x) l alone."""
    return {lab: c.legs(lab) for lab in c.basis.labels}


def _counit(c: Coalgebra) -> dict[Label, Coeff]:
    """eps of every label of ``c``: on a linearised set, 1."""
    return {lab: c.counit.get(lab, ZERO) for lab in c.basis.labels}


class _OnDicts:
    """The evaluator on coefficient dicts, the only one that computes what the
    lemma of :func:`_label_maps` makes free on a set: coalgebra maps,
    multiplicativity, the eliminations and the primitives."""

    coalgebra_map = staticmethod(check_coalgebra_map)
    multiplicative = staticmethod(check_multiplicative)
    primitives = staticmethod(primitives)
    as_map = _Map

    def __init__(self, tables: Sequence[tuple[PairTable, Basis]], maps: Sequence[FinMap]) -> None:
        self.products = [_Product(t) for t, _ in tables]
        self.maps = [_Map({lab: v.entries for lab, v in f.columns.items()}) for f in maps]

    def unit(self, c: Coalgebra) -> Mapping[Label, Coeff]:
        return c.unit.entries

    def opposite(self, p: _Product) -> _Product:
        return _Product(p.t.opposite())

    def total(self, terms: Iterable[tuple]) -> dict[Label, Coeff]:
        """sum w v over the (v, w) of ``terms``."""
        acc: dict[Label, Coeff] = {}
        for v, w in terms:
            _accumulate(acc, w, _entries(v).items())
        return acc

    def convolve(self, p: _Product, f: _Map | None, g: _Map | None,
                 legs_a: Sequence[tuple]) -> dict[Label, Coeff]:
        """sum p(f(a1), g(a2)) over the legs of a; None is the identity."""
        return self.total([(p[a1 if f is None else f[a1], a2 if g is None else g[a2]], w)
                           for a1, a2, w in legs_a])

    def tensor_total(self, terms: Iterable[tuple]) -> dict[tuple[Label, Label], Coeff]:
        """sum w x (x) y over the (x, y, w) of ``terms``."""
        acc: dict[tuple[Label, Label], Coeff] = {}
        for x, y, w in terms:
            ys = _entries(y).items()
            for l1, c1 in _entries(x).items():
                _accumulate(acc, w * c1, (((l1, l2), c2) for l2, c2 in ys))
        return acc

    def spread(self, r: _Product, left: Iterable[tuple]) -> list[tuple]:
        """The terms (x, w, y) for :meth:`fold`, x by its labels, a label y with its row."""
        out = []
        for x, w, y in left:
            row = None if isinstance(y, _VALUES) else r.rows.get(y, _NO_ENTRIES)
            for lab, cx in x.items() if isinstance(x, _VALUES) else ((x, ONE),):
                out.append((lab, w * cx, y, row))
        return out

    def fold(self, q: _Product, r: _Product, left: Sequence[tuple], c: Label) -> dict[Label, Coeff]:
        """sum w q(x, r(y, c)) over the terms (x, w, y) of ``left``, spread."""
        t, rows, read = q.t, q.rows, exact_core._read
        acc: dict[Label, Coeff] = {}
        for x, w, y, row in left:
            if row is None:
                v = r[y, c]
            else:
                if r.cap is not None:
                    _refuse(r.t, y, (c,))
                v = row.get(c, _NO_ENTRIES)
            read(t, rows, x, v, acc, w)
        return acc

    def sides(self, legs: Mapping[Label, list] | None, within: Mapping) -> Callable:
        """The sides of :func:`_walk` on the c of ``within[r]``: dicts {(c, l): x}
        read as a loop over triples reads them; a distribution sums the rows
        after[p, q, r][x][y] of y . (x . c) (built on first read, or all at once
        uncapped) by ``_read``, with them as its lines."""
        read, after = exact_core._read, {}
        inside = {r: None if r is None else set(cs) for r, cs in within.items()}

        def touch(p: _Product, q: _Product, r, x: Label, ys: Iterable[Label]) -> dict:
            m = after.setdefault((p, q, r), {})
            if x not in m:
                if q.cap is not None:
                    _refuse(q.t, x, within[r])
                m[x] = {}
            col, row, ins = m[x], q.rows.get(x, _NO_ENTRIES), inside[r]
            for y in ys:
                if y not in col:
                    col[y] = {(c, l): v for c, xc in row.items() if ins is None or c in ins
                              for l, v in read(p.t, p.rows, y, xc, {}, ONE).items()}
            return col

        def side(spec: tuple, r) -> Callable:
            form, p, q = spec
            if form == "product":
                cs = within[r]
                return lambda a, b: {(c, l): v for x in (q[a, b],) for c in cs
                                     for l, v in read(p.t, p.cols, c, x, {}, ONE).items()}
            m = after.setdefault((p, q, r), {})
            if form == "compose":
                return lambda a, b: (m[b] if b in m and a in m[b] else touch(p, q, r, b, (a,)))[a]
            capped = p.cap is not None or q.cap is not None
            for x in within[r] if not capped else ():
                touch(p, q, r, x, within[r])

            def distribution(a: Label, b: Label) -> dict:
                acc: dict[tuple[Label, Label], Coeff] = {}
                for a1, a2, w in legs[a]:
                    if q.cap is not None:
                        _refuse(q.t, a1, (b,))
                    if v := q.rows.get(a1, _NO_ENTRIES).get(b):
                        if capped:
                            touch(p, q, r, a2, v)
                        read(_FREE, m, a2, v, acc, w)
                return acc
            return distribution

        return side

    def adjoint(self, hopf: HopfBackend, hm: _Product, sm: _Map) -> Callable:
        """ad_h(x) = sum h1 x S(h2) for a label h, by the backend."""
        hb = hopf.basis
        units = {h: FinVec.unit(hb, h) for h in hb.labels}
        return lambda h, x: hopf.adjoint(units[h], FinVec(hb, x)).entries

    def span(self, space: Basis, values: Iterable) -> tuple[list, Callable, SpanSolver]:
        """The echelon basis of the span of ``values``, its membership test, its solver."""
        solver = SpanSolver([FinVec(space, _entries(v)) for v in values])
        return ([v.entries for v in solver.vectors],
                lambda v: solver.contains(FinVec(space, _entries(v))), solver)

    def fixed_space(self, space: Basis, labels: Sequence[Label], f: Mapping[Label, object],
                    image: list) -> list:
        """The echelon basis of the fixed space of the values ``f`` on ``labels``."""
        moved = {lab: v for lab in labels
                 if not (v := FinVec(space, _entries(f[lab])) - FinVec.unit(space, lab)).is_zero}
        return [v.entries for v in _kernel(space, labels, moved)]

    def kernel_and_ideal(self, space: Basis, labels: Sequence[Label], pi: Mapping[Label, dict],
                         p: _Product, q: _Product, pairs: Iterable[tuple[Label, Label]]
                         ) -> tuple[list, list]:
        """The echelon bases of the kernel of the values ``pi`` and of the p - q."""
        diffs = (FinVec(space, p[la, lb]) - FinVec(space, q[la, lb]) for la, lb in pairs)
        kernel = _kernel(space, labels, {a: FinVec(space, v) for a, v in pi.items() if v})
        return kernel, span_basis([g for g in diffs if not g.is_zero])


def _kernel(space: Basis, labels: Sequence[Label], columns: Mapping[Label, FinVec]) -> list:
    """The echelon basis of the kernel of the map with ``columns`` on ``labels``."""
    within = Basis(f"{space.name} (within cap)", tuple(labels))
    return span_basis([FinVec.build(space, v.entries)
                       for v in kernel_basis(FinMap(within, space, columns))])


class _OnLabels:
    """The evaluator on the label maps of :func:`_label_maps`: a value is a
    label and a tensor a label pair; every sum over the legs l (x) l has one
    term, a span is spanned by its image labels, and nothing is capped."""

    def __init__(self, label_tables: list[dict], maps: list[dict]) -> None:
        self.products, self.maps = label_tables, maps

    def coalgebra_map(self, *args, **kwargs) -> None:
        pass

    multiplicative = coalgebra_map

    def primitives(self, c: Coalgebra) -> list:
        return []

    def unit(self, c: Coalgebra) -> Label:
        (u,) = c.unit.entries
        return u

    def opposite(self, m: dict) -> dict:
        return {(lb, la): x for (la, lb), x in m.items()}

    def as_map(self, cols: dict, *guard) -> dict:
        return cols

    def total(self, terms: Sequence[tuple]) -> Label:
        ((v, _),) = terms
        return v

    def convolve(self, p: dict, f: dict | None, g: dict | None, legs_a: Sequence[tuple]) -> Label:
        ((a, _, _),) = legs_a
        return p[a if f is None else f[a], a if g is None else g[a]]

    def tensor_total(self, terms: Sequence[tuple]) -> tuple[Label, Label]:
        ((x, y, _),) = terms
        return x, y

    def spread(self, r: dict, left: list[tuple]) -> list[tuple]:
        return left

    def fold(self, q: dict, r: dict, left: Sequence[tuple], c: Label) -> Label:
        ((x, _, y),) = left
        return q[x, r[y, c]]

    def sides(self, legs, within: Mapping) -> Callable:
        """The sides of :func:`_walk` on every c: L_x the tuple of the positions of
        x . c, v o L_x one itemgetter call (a bare label on a 1-label basis)."""
        (labels,) = within.values()
        pos, lines = {lab: i for i, lab in enumerate(labels)}, {}

        def line(p: dict) -> tuple[dict, dict]:
            if id(p) not in lines:
                rows = {x: tuple([pos[p[x, c]] for c in labels])
                        for x in dict.fromkeys(x for x, _ in p)}
                lines[id(p)] = rows, {x: itemgetter(*row) for x, row in rows.items()}
            return lines[id(p)]

        def side(spec: tuple, r) -> Callable:
            form, p, q = spec
            lp = line(p)[0]
            if form == "product":
                return lambda a, b: lp[q[a, b]]
            gq = line(q)[1]
            if form == "compose":
                return lambda a, b: gq[b](lp[a])
            return lambda a, b: gq[a](lp[q[a, b]])

        return side

    def adjoint(self, hopf: HopfBackend, hm: dict, sm: dict) -> Callable:
        return lambda h, x: hm[hm[h, x], sm[h]]

    def span(self, space: Basis, values: Iterable[Label]) -> tuple[list, Callable, None]:
        image = set(values)
        return [lab for lab in space.labels if lab in image], image.__contains__, None

    def fixed_space(self, space: Basis, labels: Sequence[Label], f: dict, image: list) -> list:
        """The image, which an idempotent label map fixes."""
        return image

    def kernel_and_ideal(self, *args) -> tuple[list, list]:
        """Nothing to eliminate (see :func:`~rackalg.right_hopf_dialg.structure_decomposition`)."""
        return [], []


def _evaluator(sets, tables: Sequence[tuple[PairTable, Basis]],
               maps: Sequence[FinMap]) -> _OnLabels | _OnDicts:
    """The evaluator on the label maps ``sets`` of ``tables`` and ``maps``, or
    on their coefficient dicts when :func:`_label_maps` found none."""
    return _OnDicts(tables, maps) if sets is None else _OnLabels(*sets)


def _check_product(rb: RackBialgebra, induced: bool = False) -> None:
    """The product checks of :func:`certify` on a checked carrier, read by the
    evaluator of :func:`_label_maps`: the unit laws, multiplicativity (on
    dicts only) and self-distributivity (:func:`_selfdistributivity`).  An
    ``induced`` product, which :func:`certify_augmented` has just compared
    with phi(a).b entry by entry, is read for self-distributivity alone."""
    c = rb.carrier
    basis = c.basis
    if rb.mu.domain != c.square or rb.mu.codomain != basis:
        raise SchemaError(f"product of {basis.name} must map its tensor square to itself")
    t = rb.table
    tables = ((t, basis),)
    ev = _evaluator(_label_maps((c,), tables, ()), tables, ())
    (m,) = ev.products
    if not induced:
        u = ev.unit(c)
        eps = _counit(c)
        if m[u, u] != u:
            _differ("unit square", "1", m[u, u], u, basis)
        for lab in basis.labels:
            for axiom, got, want in (("left unit", m[u, lab], lab),
                                     ("unit absorption", m[lab, u], ev.total([(u, eps[lab])]))):
                if got != want:
                    _differ(axiom, lab, got, want, basis)
        ev.multiplicative(c, t, itertools.product(basis.labels, repeat=2),
                          "coproduct multiplicativity", "counit multiplicativity")
    _hold(ev, _selfdistributivity(m), basis, _legs(c))


def _selfdistributivity(m) -> tuple:
    """a |> (b |> c) = sum (a1 |> b) |> (a2 |> c) for :func:`_walk`."""
    return (("self-distributivity", ("compose", m, m), ("distribute", m, m)),)


def _first_selfdist_failure(ev: _OnLabels | _OnDicts, c: Coalgebra) -> tuple:
    """The first triple of ``c`` failing self-distributivity for the product
    of ``ev``, both sides and the triples held before it, or (None, None, None, n)."""
    (m,) = ev.products
    failure, checked, _ = _walk(ev, _selfdistributivity(m), c.basis.labels, _legs(c))
    return (None, None, None, checked) if failure is None else (*failure[1:], checked)


def _walk(ev: _OnLabels | _OnDicts, identities: Sequence[tuple], labels: Sequence[Label],
          legs=None, t: PairTable | None = None, left: Sequence[Label] | None = None) -> tuple:
    """The one walker (module docstring): the first failure (name, (a, b, c),
    got, want) of ``identities`` (name, got, want), a side (form, p, q) being
    "product" L_(a.b), "compose" L_a o L'_b or "distribute" (over ``legs``),
    or None, and the triples checked and skipped before it.  a, b run over
    ``left`` (c then of degree 0) or ``labels``, c over ``labels``, under the
    cap of ``t``; a pair that differs or refuses a read goes to :func:`_first_triple`."""
    same, left = left is None, labels if left is None else left
    n, cap = len(labels), None if t is None else t.cap
    deg = {} if cap is None else {lab: t.degree(lab) for lab in left}
    within = {None: labels} if cap is None or not same else {
        r: [c for c in labels if deg[c] <= r] for r in range(cap + 1)}
    side = ev.sides(legs, within)
    operators = {r: [(side(got, r), side(want, r)) for _, got, want in identities] for r in within}
    checked = skipped = 0
    for a in left:
        for b in left:
            r = None
            if cap is not None:
                r = cap - deg[a] - deg[b]
                if r < 0:
                    skipped += n
                    continue
                r = r if same else None
            cs = within[r]
            held = True
            try:
                for f, g in operators[r]:
                    if f(a, b) != g(a, b):
                        held = False
                        break
            except DegreeCapExceeded:
                held = False
            if not held and (failure := _first_triple(ev, identities, legs, a, b, cs)):
                i, c = failure[4], failure[1][2]
                return failure[:4], checked + i, skipped + labels.index(c) - i
            checked += len(cs)
            skipped += n - len(cs)
    return None, checked, skipped


def _first_triple(ev: _OnLabels | _OnDicts, identities: Sequence[tuple], legs, a: Label,
                  b: Label, cs: Sequence[Label]) -> tuple | None:
    """The first failure of ``identities`` at (a, b, c), c in ``cs``, and the
    index of c, or None, read as a loop over triples: the pair's values first."""
    fixed = {(form, id(q)): q[a, b] if form == "product" else
             ev.spread(q, [(q[a1, b], w, a2) for a1, a2, w in legs[a]])
             for _, *pair in identities for form, _, q in pair if form != "compose"}

    def at(spec: tuple, c: Label):
        form, p, q = spec
        if form == "compose":
            return p[a, q[b, c]]
        if form == "product":
            return p[fixed[form, id(q)], c]
        return ev.fold(p, q, fixed[form, id(q)], c)

    for i, c in enumerate(cs):
        for name, got, want in identities:
            x, y = at(got, c), at(want, c)
            if x != y and not same_entries(_entries(x), _entries(y)):
                return name, (a, b, c), x, y, i


def _hold(ev, identities: Sequence[tuple], space: Basis, legs=None, t=None, left=None) -> tuple:
    """:func:`_walk` on the labels of ``space``, raising its failure there."""
    failure, checked, skipped = _walk(ev, identities, space.labels, legs, t, left)
    if failure is not None:
        _differ(*failure, space)
    return checked, skipped


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

    Each identity is read by the evaluator that :func:`_label_maps` chooses
    for the action, the Hopf product, phi and the Hopf antipode; on label
    maps the augmentation and the action comultiplicativity and counit hold
    by its lemma.  An induced product a1 |> x is read as phi(a1).x once
    "induced product" has passed.

    Of the rack's own identities only self-distributivity is read, on every
    triple, since caps skip some adjoint and associativity instances.  Its
    unit laws and multiplicativity follow from the induced product and the
    exhaustive checks on the uncapped action table: the action unit and
    phi(1) = 1 give 1 |> b = b; the action fixing the coaugmentation and
    eps(phi(a)) = eps(a) give a |> 1 = eps(a) 1; action comultiplicativity,
    phi a coalgebra map, give delta(phi(a).b) = sum phi(a1).b1 (x) phi(a2).b2,
    and the action counit eps(phi(a).b) = eps(a) eps(b).  :func:`certify`
    still reads them all.
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

    cb, hb = bc.basis, hc.basis
    hopf_t = hopf.table
    tables, maps = ((act, hb), (hopf_t, hb)), (phi, hopf.antipode)
    ev = _evaluator(_label_maps((bc, hc), tables, maps), tables, maps)
    (am, hm), (pm, sm) = ev.products, ev.maps
    ub, uh = ev.unit(bc), ev.unit(hc)
    ev.coalgebra_map(bc, hc, phi.column, cb.labels, "augmentation")
    if pm[ub] != uh:
        _differ("augmentation coaugmentation", "1", pm[ub], uh, hb)
    for la in cb.labels:
        if am[uh, la] != la:
            _differ("action unit", la, am[uh, la], la, cb)
    eps_h = _counit(hc)
    for lh in hb.labels:
        got, want = am[lh, ub], ev.total([(ub, eps_h[lh])])
        if got != want:
            _differ("action fixes coaugmentation", lh, got, want, cb)

    _hold(ev, (("action associativity", ("product", am, hm), ("compose", am, am)),), cb,
          t=hopf_t, left=hb.labels)

    ev.multiplicative(bc, act, itertools.product(hb.labels, cb.labels),
                      "action comultiplicativity", "action counit", left=hc)

    ad, capped = ev.adjoint(hopf, hm, sm), hopf_t.cap is not None
    for lh in hb.labels:
        for la in cb.labels:
            pa = pm[la]
            if capped and not hopf_t.fits(_degree(hopf_t, pa) + 1):
                continue
            lhs, rhs = pm[am[lh, la]], ad(lh, pa)
            if lhs != rhs:
                _differ("augmentation intertwines adjoint", (lh, la), lhs, rhs, hb)

    rack_rows = arb.rack.table.rows
    for la in cb.labels:
        row, pa = rack_rows.get(la, _NO_ENTRIES), pm[la]
        for lb in cb.labels:
            got, want = row.get(lb, _NO_ENTRIES), _entries(am[pa, lb])
            if got != want:
                _differ("induced product", (la, lb), got, want, cb)

    # sum a1 |> (S(phi(a2)).b) and sum S(phi(a1)).(a2 |> b), a1 |> x read as phi(a1).x
    legs, eps_b, fold = _legs(bc), _counit(bc), ev.fold
    for la in cb.labels:
        regular = ev.spread(am, [(pm[a1], w, sm[pm[a2]]) for a1, a2, w in legs[la]])
        flipped = ev.spread(am, [(sm[pm[a1]], w, pm[a2]) for a1, a2, w in legs[la]])
        for lb in cb.labels:
            want = ev.total([(lb, eps_b[la])])
            for axiom, got in (("left regularity", fold(am, am, regular, lb)),
                               ("left regularity flipped", fold(am, am, flipped, lb))):
                if got != want:
                    _differ(axiom, (la, lb), got, want, cb)

    _check_product(arb.rack, induced=True)
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


def _uar_build(q: QuotientLie, cap: int, sym: Coalgebra) -> AugmentedRackBialgebra:
    """The uncertified structure on the carrier ``sym`` = S(h)<=k, over the
    envelope of the quotient ``q`` capped at ``cap``; the action is filled
    from one word memo (:func:`~rackalg.env_hopf._word_action`)."""
    env = _envelope(q.algebra, cap)
    action = FinMap.from_pairs(env.basis, sym.basis, tensor_basis(env.basis, sym.basis),
                               sym.basis, _word_action(q, sym))
    return _assemble(sym, env, phi_map(env, q, sym), action)


def _induced_product(q: QuotientLie, k: int, sym: Coalgebra) -> FinMap:
    """mu(a, b) = phi(a).b over the quotient ``q`` on ``sym`` = S(h)<=k, with
    nothing else of the structure: phi(a) has words of length <= k, so its
    envelope is capped at k, and each word acts through the word memo."""
    ph, act = phi_map(_envelope(q.algebra, k), q, sym), _word_action(q, sym)

    def col(la: Label, lb: Label) -> dict[Label, Coeff]:
        out: dict[Label, Coeff] = {}
        for word, c in ph.column(la).entries.items():
            _accumulate(out, c, act(word, lb).items())
        return out

    return FinMap.from_pairs(sym.basis, sym.basis, sym.square, sym.basis, col)


def uar_infinity(h: LeibnizAlgebra, k: int,
                 z: Sequence[FinVec] | None = None,
                 env_cap: int | None = None) -> AugmentedRackBialgebra:
    """The universal augmented rack bialgebra of a Leibniz algebra,
    truncated at symmetric degree k.

    The carrier is S(h) in degrees <= k; the Hopf algebra is the enveloping
    algebra of h modulo a sandwich ideal, capped at k + 1 for commutator
    headroom.  A word of generators acts letterwise by bracket derivations,
    and phi symmetrizes monomials into the envelope.  h is checked once, here,
    and its quotient and the quotient's envelope not again (see
    :func:`~rackalg.leibniz.quotient_lie`); the action is filled from one
    word memo.

    With ``z`` unspecified the structure is built over the squares ideal,
    certified and returned, and its product is compared column by column with
    the product over the left center; the result is independent of the
    choice, so a mismatch means a bug.  The guard builds that product alone,
    mu(a, b) = phi(a).b (:func:`_induced_product`): equal entry for entry,
    it carries every rack identity over.  Both share one carrier.
    """
    check_leibniz(h)
    _require_degree(k, "truncation order")
    if env_cap is not None:
        _require_degree(env_cap, "envelope cap")
        if env_cap < k + 1:
            raise SchemaError("envelope cap must leave commutator headroom")
    cap = k + 1 if env_cap is None else env_cap
    sym = symmetric_coalgebra(h.basis, k)
    if z is not None:
        return certify_augmented(_uar_build(_quotient(h, list(z)), cap, sym))
    built_sq = certify_augmented(_uar_build(_quotient(h, None), cap, sym))
    mu_sq = built_sq.rack.mu
    mu_zc = _induced_product(_quotient(h, left_center(h)), k, sym)
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


def set_like_elements(rb: RackBialgebra) -> list[tuple[str, FinVec]]:
    """Every set-like element of the carrier over Q, named.

    They are the group-likes of the carrier (:func:`~rackalg.symcoalg.group_likes`):
    the group-like basis labels first, named by their labels when these are
    strings, then the others, as common eigenvector lines of the hit
    operators.  A set-like that is not a string label is named "1" when it
    is the coaugmentation and g1, g2, ... otherwise.
    """
    c = rb.carrier
    named: list[tuple[str, FinVec]] = []
    counter = 0
    for v in group_likes(c):
        name = _one_label(v.entries, c.basis)
        if not isinstance(name, str):
            if v == c.unit:
                name = "1"
            else:
                counter += 1
                name = f"g{counter}"
        named.append((name, v))
    return named


def set_likes(rb: RackBialgebra) -> FiniteRack:
    """The finite rack of the set-like elements under the product: the
    set-like functor, under which K[X] gives X back.

    The rack laws are not checked again: the set-likes are group-likes of a
    certified rack bialgebra, closed under the product (the lookup checks
    it), whose unit laws and self-distributivity are, on group-likes, the
    rack laws.  ``FiniteRack.build`` checks bijectivity."""
    if not rb.certified:
        raise RackalgError("set_likes needs a certified rack bialgebra")
    named = set_like_elements(rb)
    names = [name for name, _ in named]
    # A vector's normalised entries (no zeros, integral values as ints) are
    # its canonical key, so each product is found by one dict lookup.
    by_entries = {frozenset(v.entries.items()): name for name, v in named}
    unit_name = by_entries.get(frozenset(rb.carrier.unit.entries.items()))
    if unit_name is None:
        raise RackalgError("coaugmentation not detected among set-likes")
    op: dict[tuple[str, str], str] = {}
    for na, va in named:
        for nb, vb in named:
            target = by_entries.get(frozenset(rb.apply(va, vb).entries.items()))
            if target is None:
                raise RackalgError(
                    f"product of set-likes {na!r} |> {nb!r} escapes the detected set")
            op[(na, nb)] = target
    return FiniteRack.build(f"Slike({rb.basis.name})", names, unit_name, op)


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

    checked, witness = 0, ()
    for triple in itertools.product(labels, repeat=3):
        checked += 1
        e = {triple: ONE}
        if not same_entries(r_at(0, r_at(1, r_at(0, e))), r_at(1, r_at(0, r_at(1, e)))):
            witness = (merge_labels(basis, *triple),)
            break
    return CheckReport(not witness, checked, axiom="braid relation", witness=witness)


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
    witness = ()
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
                witness = (lh, la)
                break
        if witness:
            break
    return CheckReport(not witness, checked, axiom="yetter-drinfeld compatibility",
                       witness=witness, detail=f"{skipped} pairs beyond the degree cap skipped")


def filtration_stable(rb: RackBialgebra) -> CheckReport:
    """Left multiplications preserve every coalgebra filtration level."""
    if not rb.certified:
        raise RackalgError("filtration_stable needs a certified rack bialgebra")
    checked, witness = 0, ()
    for r, level in enumerate(coalgebra_filtration(rb.carrier)):
        solver = SpanSolver(level)
        for lab, v in itertools.product(rb.basis.labels, level):
            checked += 1
            if not solver.contains(FinVec(rb.basis, label_times(rb.table, lab, v.entries))):
                witness = (lab, r)
                break
        if witness:
            break
    return CheckReport(not witness, checked, axiom="filtration stability", witness=witness)


__all__ = [
    "AugmentedRackBialgebra", "CheckReport", "FiniteRack", "RackBialgebra",
    "augmented_conjugation", "augmented_from_action",
    "augmented_rack_algebra", "certify", "certify_augmented", "check_rack",
    "conjugation_rack", "filtration_stable", "gauge", "hopf_adjoint",
    "primitives_leibniz", "rack_group_algebra", "set_like_elements", "set_likes",
    "trivial", "trivial_augmented", "uar_infinity", "ur", "yang_baxter_check",
    "yetter_drinfeld_check",
]
