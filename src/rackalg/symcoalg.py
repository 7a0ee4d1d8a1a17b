"""Coalgebras on labelled bases: axioms, filtration, tensor products, S(V).

A coalgebra here is always counital and coaugmented: it carries a coproduct,
a counit functional, and a distinguished group-like element written 1.  The
module provides the axiom checker, the primitive filtration

    C_(0) = K 1,   C_(k+1) = { x : delta(x) - x (x) 1 - 1 (x) x in C_(k) (x) C_(k) },

the tensor product of two coalgebras, the truncated symmetric coalgebra
S(V) with its binomial coproduct, and :func:`group_likes`, every group-like
element over Q, found without any size cutoff by the lemma in its docstring.

It holds the one copy of each coalgebra identity the certifiers check.
:func:`check_coalgebra` (coassociativity, counit laws, group-like unit) and
:func:`check_cocommutative` compare Sweedler legs label by label and build
no tensor cube or flip map; the cube appears only in a coassociativity
failure report.
:func:`check_multiplicative` (a product given on label pairs is a coalgebra
morphism C (x) C -> C) and :func:`check_coalgebra_map` (a linear map given
on labels is a coalgebra map) are the two compatibilities every certifier
needs.  They compare the legs of delta(ab) (or of delta(f(a))) with the
products of legs read on label pairs, as dicts keyed by leg-label pairs,
and build tensor-square vectors only for a failure report.  Scalars are
compared with :func:`~rackalg.exact_core.scalar_eq`, so rational and series
coefficients mix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from typing import Callable, Iterable, Mapping, Sequence

from rackalg.errors import AxiomViolation, RackalgError, SchemaError
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
    Row,
    SpanSolver,
    _NO_ENTRIES,
    _flat_factors,
    _rational_eigenvalues,
    _refuse,
    _require_basis,
    _require_degree,
    _vector,
    div,
    kernel_basis,
    merge_labels,
    nullspace,
    same_entries,
    scalar_eq,
    split_label,
    tensor_basis,
)


@dataclass(frozen=True)
class Coalgebra:
    """Counital coaugmented coalgebra presented by structure data on a basis.

    ``delta`` maps into the flattened tensor square of ``basis``; ``counit``
    is sparse (missing labels evaluate to zero); ``unit`` is the coaugmentation
    and must be group-like.  A constructor that has built
    ``tensor_basis(basis, basis)`` for its coproduct passes it as
    ``built_square``; it is taken as the tensor square unchecked.
    """

    basis: Basis
    delta: FinMap
    counit: Mapping[Label, Rational]
    unit: FinVec
    built_square: InitVar[Basis | None] = None

    def __post_init__(self, built_square: Basis | None) -> None:
        object.__setattr__(self, "_square", built_square)
        object.__setattr__(self, "_legs", {})

    @property
    def square(self) -> Basis:
        """The tensor square of the basis: ``built_square``, or built on first use."""
        if self._square is None:
            object.__setattr__(self, "_square", tensor_basis(self.basis, self.basis))
        return self._square

    def legs(self, label: Label) -> list[tuple[Label, Label, Coeff]]:
        """Sweedler terms of a basis vector, computed once per label."""
        legs = self._legs.get(label)
        if legs is None:
            legs = self._legs[label] = self.sweedler(FinVec.unit(self.basis, label))
        return legs

    def eps_of(self, v: FinVec) -> Coeff:
        acc: Coeff = ZERO
        for lab, c in v.entries.items():
            e = self.counit.get(lab)
            if e:
                acc = acc + c * e
        return acc

    def sweedler(self, v: FinVec) -> list[tuple[Label, Label, Coeff]]:
        """Terms (v1, v2, coefficient) of delta(v)."""
        out = []
        for lab, c in self.delta(v).entries.items():
            left, right = split_label(self.basis, lab)
            out.append((left, right, c))
        return out

    def sweedler3(self, v: FinVec) -> list[tuple[Label, Label, Label, Coeff]]:
        """Terms (v1, v2, v3, coefficient) of the iterated coproduct."""
        out = []
        for l12, l3, c in self.sweedler(v):
            for l1, l2, c2 in self.legs(l12):
                out.append((l1, l2, l3, c * c2))
        return out


def _require_square(c: Coalgebra) -> None:
    if c.delta.domain != c.basis or c.delta.codomain != c.square:
        raise SchemaError(f"coproduct of {c.basis.name} must map it into its tensor square")


def check_coalgebra(c: Coalgebra) -> None:
    """Coassociativity, both counit laws, and group-likeness of the unit.

    Coassociativity is compared label by label on the Sweedler legs:
    sum a11 (x) a12 (x) a2 against sum a1 (x) a21 (x) a22, as dicts
    keyed by label triples.  The tensor cube is built only to report a
    failure.
    """
    _require_square(c)
    basis = c.basis
    for lab in basis.labels:
        legs = c.legs(lab)
        left: dict[tuple[Label, Label, Label], Coeff] = {}
        right: dict[tuple[Label, Label, Label], Coeff] = {}
        for l1, l2, w in legs:
            for l11, l12, w1 in c.legs(l1):
                key = (l11, l12, l2)
                left[key] = left.get(key, ZERO) + w * w1
            for l21, l22, w2 in c.legs(l2):
                key = (l1, l21, l22)
                right[key] = right.get(key, ZERO) + w * w2
        if not same_entries(left, right):
            cube = tensor_basis(basis, basis, basis)
            raise AxiomViolation("coassociativity", lab, _tensor_vec(cube, basis, left),
                                 _tensor_vec(cube, basis, right))
    for lab in basis.labels:
        b = FinVec.unit(basis, lab)
        legs = c.legs(lab)
        eps_id = FinVec.build(basis, ((l2, w * c.counit.get(l1, ZERO)) for l1, l2, w in legs))
        id_eps = FinVec.build(basis, ((l1, w * c.counit.get(l2, ZERO)) for l1, l2, w in legs))
        if eps_id != b:
            raise AxiomViolation("left counit", lab, eps_id, b)
        if id_eps != b:
            raise AxiomViolation("right counit", lab, id_eps, b)
    if not scalar_eq(c.eps_of(c.unit), ONE):
        raise AxiomViolation("counit of unit", "1", c.eps_of(c.unit), ONE)
    if c.delta(c.unit) != c.unit.tensor(c.unit, c.square):
        raise AxiomViolation("unit group-like", "1", c.delta(c.unit),
                             c.unit.tensor(c.unit, c.square))


def _tensor_vec(power: Basis, basis: Basis, terms: Mapping[tuple, Coeff]) -> FinVec:
    """The vector in a tensor power of ``basis`` with coefficients keyed by label tuples."""
    return FinVec.build(power, ((merge_labels(basis, *key), w) for key, w in terms.items()))


def check_cocommutative(c: Coalgebra) -> None:
    """delta = tau o delta, compared leg by leg: each (a1, a2) against (a2, a1)."""
    _require_square(c)
    basis = c.basis
    for lab in basis.labels:
        legs = c.legs(lab)
        flipped = {(l2, l1): w for l1, l2, w in legs}
        if not same_entries(flipped, {(l1, l2): w for l1, l2, w in legs}):
            raise AxiomViolation("cocommutativity", lab, _tensor_vec(c.square, basis, flipped),
                                 c.delta.column(lab))


def _delta_legs(c: Coalgebra, v: Mapping[Label, Coeff]) -> dict[tuple[Label, Label], Coeff]:
    """delta of the coefficients ``v`` as a dict keyed by leg-label pairs, read
    from the cached legs."""
    out: dict[tuple[Label, Label], Coeff] = {}
    for lab, cv in v.items():
        for l1, l2, w in c.legs(lab):
            key = (l1, l2)
            out[key] = out.get(key, ZERO) + cv * w
    return out


def _add_tensor(acc: dict[tuple[Label, Label], Coeff], w: Coeff, x: Mapping[Label, Coeff],
                y: Mapping[Label, Coeff]) -> None:
    """acc += w (x (x) y), keyed by label pairs."""
    for lx, cx in x.items():
        wx = w * cx
        for ly, cy in y.items():
            key = (lx, ly)
            acc[key] = acc.get(key, ZERO) + wx * cy


def check_multiplicative(c: Coalgebra, t: PairTable, pairs: Iterable[tuple[Label, Label]],
                         coproduct: str, counit: str, left: Coalgebra | None = None) -> None:
    """The product ``t`` is a coalgebra morphism ``left`` (x) C -> C; ``left``
    defaults to C itself.

    For each label pair (a, b), first eps(ab) = eps(a) eps(b), then
    delta(ab) = sum a1 b1 (x) a2 b2, both sides as dicts keyed by leg-label
    pairs: the legs of each label of ab, and the products of the legs of a
    and b read from the rows of ``t``.  Raises :class:`AxiomViolation` named
    ``counit`` or ``coproduct`` with the pair as witness; the tensor-square
    vectors are built only for the report.  Under a cap each read is refused
    where :meth:`PairTable.entry` refuses it.
    """
    left = c if left is None else left
    rows, cap = t.rows, t.cap
    for la, lb in pairs:
        ab = t.entry(la, lb)
        got = c.eps_of(FinVec(c.basis, ab))
        want = left.counit.get(la, ZERO) * c.counit.get(lb, ZERO)
        if not scalar_eq(got, want):
            raise AxiomViolation(counit, (la, lb), got, want)
        lhs = _delta_legs(c, ab)
        rhs: dict[tuple[Label, Label], Coeff] = {}
        legs_b = c.legs(lb)
        for a1, a2, ca in left.legs(la):
            row1 = rows.get(a1, _NO_ENTRIES)
            row2 = rows.get(a2, _NO_ENTRIES)
            for b1, b2, cb in legs_b:
                if cap is not None:
                    _refuse(t, a1, (b1,))
                    _refuse(t, a2, (b2,))
                x = row1.get(b1)
                y = row2.get(b2)
                if x and y:
                    _add_tensor(rhs, ca * cb, x, y)
        if not same_entries(lhs, rhs):
            raise AxiomViolation(coproduct, (la, lb), c.delta(FinVec(c.basis, ab)),
                                 _tensor_vec(c.delta.codomain, c.basis, rhs))


def check_coalgebra_map(source: Coalgebra, target: Coalgebra, f: Callable[[Label], FinVec],
                        labels: Iterable[Label], name: str,
                        error: type = AxiomViolation) -> None:
    """The linear map given by ``f`` on basis labels of ``source`` is a
    coalgebra map into ``target``.

    For each label a, first delta(f(a)) = sum f(a1) (x) f(a2), both sides as
    dicts keyed by leg-label pairs of ``target`` (the legs of each label of
    f(a), and the terms of f(a1), f(a2) over the legs of a), then
    eps(f(a)) = eps(a).  Raises ``error`` named "<name> comultiplicativity"
    or "<name> counit" with the label as witness; the tensor-square vectors
    are built only for the report.
    """
    tbasis = target.basis
    for lab in labels:
        fa = f(lab)
        if fa.basis is not tbasis:
            _require_basis(target.delta.domain, fa.basis)
        lhs = _delta_legs(target, fa.entries)
        rhs: dict[tuple[Label, Label], Coeff] = {}
        for l1, l2, w in source.legs(lab):
            x, y = f(l1), f(l2)
            if x.basis is not tbasis or y.basis is not tbasis:
                _require_basis(target.delta.codomain.factors,
                               _flat_factors(x.basis) + _flat_factors(y.basis))
            _add_tensor(rhs, w, x.entries, y.entries)
        if not same_entries(lhs, rhs):
            raise error(f"{name} comultiplicativity", lab, target.delta(fa),
                        _tensor_vec(target.delta.codomain, target.basis, rhs))
        got = target.eps_of(fa)
        want = source.counit.get(lab, ZERO)
        if not scalar_eq(got, want):
            raise error(f"{name} counit", lab, got, want)


def restrict_coalgebra(c: Coalgebra, keep: Sequence[Label], name: str) -> Coalgebra:
    """Subcoalgebra spanned by a subset of basis labels closed under the coproduct."""
    sub = Basis(name, tuple(keep))
    square = tensor_basis(sub, sub)

    def col(lab: Label) -> FinVec:
        legs = c.legs(lab)
        if any(l1 not in sub or l2 not in sub for l1, l2, _ in legs):
            raise RackalgError(f"label set is not a subcoalgebra at {lab!r}")
        return FinVec.build(square, (((l1, l2), cw) for l1, l2, cw in legs))

    counit = {lab: c.counit[lab] for lab in keep if lab in c.counit}
    return Coalgebra(sub, FinMap.from_function(sub, square, col), counit,
                     FinVec.build(sub, c.unit.entries), square)


def is_cocommutative(c: Coalgebra) -> bool:
    try:
        check_cocommutative(c)
    except AxiomViolation:
        return False
    return True


def is_group_like(c: Coalgebra, v: FinVec) -> bool:
    return not v.is_zero and scalar_eq(c.eps_of(v), ONE) and c.delta(v) == v.tensor(v, c.square)


def _reduced_delta_map(c: Coalgebra) -> FinMap:
    """x -> delta(x) - x (x) 1 - 1 (x) x, whose kernel is the primitives."""
    square = c.square

    def col(lab: Label) -> FinVec:
        b = FinVec.unit(c.basis, lab)
        return c.delta(b) - b.tensor(c.unit, square) - c.unit.tensor(b, square)

    return FinMap.from_function(c.basis, square, col)


def primitives(c: Coalgebra) -> list[FinVec]:
    """Basis of Prim(C) = { x : delta(x) = x (x) 1 + 1 (x) x }."""
    return kernel_basis(_reduced_delta_map(c))


def group_likes(c: Coalgebra) -> list[FinVec]:
    """Every group-like element g of C over Q: delta(g) = g (x) g, eps(g) = 1.

    First the basis labels that are group-like as stored, in basis order;
    then the others, found as common eigenvector lines of the hit operators.

    Lemma.  Let T_a(v) = sum e^a(v1) v2 for each basis label a, e^a the dual
    basis.  Then delta(v) = sum_a a (x) T_a(v).  If T_a v = l_a v for every
    a, then delta(v) = w (x) v with w = sum_a l_a a.  The counit laws give
    v = (eps (x) id) delta(v) = eps(w) v, so eps(w) = 1, and
    v = (id (x) eps) delta(v) = eps(v) w, so eps(v) != 0 and v / eps(v) = w
    is group-like.  Conversely T_a g = g_a g for a group-like g.  So every
    nonzero common eigenspace is one line, spanned by the group-like whose
    coordinates are its eigenvalues; no cocommutativity is needed.

    Group-likes are linearly independent, so when every basis label is one
    there is no other and no eigenproblem is solved.  Otherwise the space is
    split label by label.  A part is a common eigenspace of the labels read
    so far, the :func:`~rackalg.exact_core.nullspace` of their equations
    (T_b - l_b) v = 0.  Label a cuts it by the equations of T_a - l for each
    rational eigenvalue l of T_a
    (:func:`~rackalg.exact_core._rational_eigenvalues`); a line is set aside
    and a zero part dropped.  A group-like lies in exactly one part at every
    step, so it ends up as the normalised vector of a line, and a line is
    kept when that vector is group-like.  Group-likes with irrational
    coordinates are not over Q and are not returned.
    """
    basis, n = c.basis, c.basis.dim
    found = [FinVec.unit(basis, lab) for lab in basis.labels
             if c.legs(lab) == [(lab, lab, ONE)] and c.counit.get(lab) == ONE]
    if len(found) == n:
        return found
    hits: dict[Label, dict[int, Row]] = {}  # the rows of each T_a, over basis indices
    for j, lab in enumerate(basis.labels):
        for l1, l2, w in c.legs(lab):
            hits.setdefault(l1, {}).setdefault(basis.index(l2), {})[j] = w
    parts: list[list[Row]] = [[]]  # each part is the kernel of its equations
    lines = []
    for lab in basis.labels:
        if not parts:
            break
        t = hits.get(lab, {})
        cut = []
        for value in _rational_eigenvalues(t, n):
            shifted = [{**t.get(i, _NO_ENTRIES), i: t.get(i, _NO_ENTRIES).get(i, ZERO) - value}
                       for i in range(n)]
            for equations in parts:
                sub = equations + shifted
                kernel = nullspace(sub, n)
                if len(kernel) == 1:
                    lines.append(kernel[0])
                elif kernel:
                    cut.append(sub)
        parts = cut
    for row in lines:
        v = _vector(basis, row)
        e = c.eps_of(v)
        if e:
            g = FinVec(basis, {lab: div(x, e) for lab, x in v.entries.items()})
            if is_group_like(c, g) and g not in found:
                found.append(g)
    return found


def coalgebra_filtration(c: Coalgebra) -> list[list[FinVec]]:
    """Increasing filtration levels, stopping when stable.

    The last level equals the whole space iff the coalgebra is connected.
    """
    reduced = _reduced_delta_map(c)
    levels: list[list[FinVec]] = [[c.unit]]
    while True:
        current = levels[-1]
        prods = [u.tensor(v, c.square) for u in current for v in current]
        span = SpanSolver(prods)
        residue_map = FinMap.from_function(
            c.basis, c.square, lambda lab: span.residue(reduced.column(lab)))
        nxt = kernel_basis(residue_map)
        # every level is a kernel basis (or [unit]), so its length is its dimension
        if len(nxt) <= len(current):
            return levels
        levels.append(nxt)
        if len(nxt) == c.basis.dim:
            return levels


def filtration_order(c: Coalgebra, v: FinVec) -> int | None:
    """Least k with v in C_(k), or None when v lies outside every level."""
    for k, level in enumerate(coalgebra_filtration(c)):
        if SpanSolver(level).contains(v):
            return k
    return None


def is_connected(c: Coalgebra) -> bool:
    return len(coalgebra_filtration(c)[-1]) == c.basis.dim


# ---------------------------------------------------------------------------
# symmetric coalgebra
# ---------------------------------------------------------------------------


def tensor_coalgebra(left: Coalgebra, right: Coalgebra, name: str | None = None) -> Coalgebra:
    """Tensor product coalgebra on pair labels (l, r).

    The coproduct interleaves the two Sweedler expansions, the counit is the
    product of the counits, and the unit is 1 (x) 1.  Cocommutativity of both
    factors is inherited because the middle flip acts inside each leg.
    """
    basis = tensor_basis(left.basis, right.basis)
    if name is not None:
        basis = Basis(name, basis.labels, basis.factors)
    square = tensor_basis(basis, basis)

    def delta_col(pair: Label) -> FinVec:
        lab_l, lab_r = pair
        items = []
        for l1, l2, cl in left.legs(lab_l):
            for r1, r2, cr in right.legs(lab_r):
                items.append((merge_labels(basis, (l1, r1), (l2, r2)), cl * cr))
        return FinVec.build(square, items)

    counit: dict[Label, Rational] = {}
    for lab_l, el in left.counit.items():
        for lab_r, er in right.counit.items():
            if el * er:
                counit[(lab_l, lab_r)] = el * er
    delta = FinMap.from_function(basis, square, delta_col)
    return Coalgebra(basis, delta, counit, left.unit.tensor(right.unit, basis), square)


def _sym_monomials(source: Basis, max_degree: int) -> tuple[tuple[Label, ...], ...]:
    """Monomial labels of S(V) up to the cap: sorted tuples in basis order."""
    out: list[tuple[Label, ...]] = []
    for k in range(max_degree + 1):
        out.extend(itertools.combinations_with_replacement(source.labels, k))
    return tuple(out)


def _multiset_counts(source: Basis, mono: Sequence[Label]) -> list[tuple[Label, int]]:
    counts: dict[Label, int] = {}
    for lab in mono:
        counts[lab] = counts.get(lab, 0) + 1
    return sorted(counts.items(), key=lambda kv: source.index(kv[0]))


def sort_monomial(source: Basis, word: Sequence[Label]) -> tuple[Label, ...]:
    return tuple(sorted(word, key=source.index))


def symmetric_coalgebra(source: Basis, cap: int, name: str | None = None) -> Coalgebra:
    """Truncated symmetric coalgebra S(V) in degrees <= cap.

    The coproduct splits a monomial over all sub-multisets with binomial
    multiplicities; it preserves total degree, so the truncation is a genuine
    subcoalgebra.  The empty monomial () is the coaugmentation.
    """
    _require_degree(cap, "symmetric degree cap")
    basis = Basis(name or f"S({source.name})<={cap}", _sym_monomials(source, cap))
    square = tensor_basis(basis, basis)

    def delta_col(mono: Label) -> FinVec:
        assert isinstance(mono, tuple)
        counts = _multiset_counts(source, mono)
        items = []
        for picks in itertools.product(*(range(c + 1) for _, c in counts)):
            coeff = ONE
            left: list[Label] = []
            right: list[Label] = []
            for (lab, c), a in zip(counts, picks):
                coeff *= math.comb(c, a)
                left.extend([lab] * a)
                right.extend([lab] * (c - a))
            items.append(((tuple(left), tuple(right)), coeff))
        return FinVec.build(square, items)

    delta = FinMap.from_function(basis, square, delta_col)
    counit = {(): ONE}
    return Coalgebra(basis, delta, counit, FinVec.unit(basis, ()), square)


__all__ = [
    "Coalgebra", "check_coalgebra", "check_coalgebra_map", "check_cocommutative",
    "check_multiplicative", "coalgebra_filtration", "filtration_order",
    "group_likes", "is_cocommutative", "is_connected", "is_group_like", "primitives",
    "restrict_coalgebra", "sort_monomial",
    "symmetric_coalgebra", "tensor_coalgebra",
]
