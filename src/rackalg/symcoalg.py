"""Coalgebras on labelled bases: axioms, filtration, convolution, S(V).

A coalgebra here is always counital and coaugmented: it carries a coproduct,
a counit functional, and a distinguished group-like element written 1.  The
module provides the axiom checker, the primitive filtration

    C_(0) = K 1,   C_(k+1) = { x : delta(x) - x (x) 1 - 1 (x) x in C_(k) (x) C_(k) },

convolution of linear maps into an algebra, the geometric-series convolution
inverse (which terminates exactly on connected coalgebras), and the truncated
symmetric coalgebra S(V) with its binomial coproduct.

It is also the one place that checks the two compatibilities every
certifier needs: :func:`check_multiplicative` (a product given on label
pairs is a coalgebra morphism C (x) C -> C) and :func:`check_coalgebra_map`
(a linear map given on labels is a coalgebra map).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from rackalg.errors import AxiomViolation, RackalgError
from rackalg.exact_core import (
    Basis,
    Coeff,
    FinMap,
    FinVec,
    Label,
    SpanSolver,
    flip_map,
    kernel_basis,
    merge_labels,
    split_label,
    tensor_basis,
    tensor_product_map,
    tensor_sum,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Coalgebra:
    """Counital coaugmented coalgebra presented by structure data on a basis.

    ``delta`` maps into the flattened tensor square of ``basis``; ``counit``
    is sparse (missing labels evaluate to zero); ``unit`` is the coaugmentation
    and must be group-like.
    """

    basis: Basis
    delta: FinMap
    counit: Mapping[Label, Fraction]
    unit: FinVec

    def __post_init__(self) -> None:
        object.__setattr__(self, "_square", None)
        object.__setattr__(self, "_legs", {})

    @property
    def square(self) -> Basis:
        """The tensor square of the basis, built on first use."""
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


def check_coalgebra(c: Coalgebra) -> None:
    """Coassociativity, both counit laws, and group-likeness of the unit."""
    ident = FinMap.identity(c.basis)
    left = tensor_product_map(c.delta, ident).compose(c.delta)
    right = tensor_product_map(ident, c.delta).compose(c.delta)
    for lab in c.basis.labels:
        if left.column(lab) != right.column(lab):
            raise AxiomViolation("coassociativity", lab, left.column(lab), right.column(lab))
    for lab in c.basis.labels:
        b = FinVec.unit(c.basis, lab)
        legs = c.legs(lab)
        eps_id = FinVec.build(c.basis, ((l2, w * c.counit.get(l1, ZERO)) for l1, l2, w in legs))
        id_eps = FinVec.build(c.basis, ((l1, w * c.counit.get(l2, ZERO)) for l1, l2, w in legs))
        if eps_id != b:
            raise AxiomViolation("left counit", lab, eps_id, b)
        if id_eps != b:
            raise AxiomViolation("right counit", lab, id_eps, b)
    if c.eps_of(c.unit) != ONE:
        raise AxiomViolation("counit of unit", "1", c.eps_of(c.unit), ONE)
    if c.delta(c.unit) != c.unit.tensor(c.unit, c.square):
        raise AxiomViolation("unit group-like", "1", c.delta(c.unit),
                             c.unit.tensor(c.unit, c.square))


def check_multiplicative(c: Coalgebra, pair: Callable[[Label, Label], FinVec],
                         pairs: Iterable[tuple[Label, Label]],
                         coproduct: str, counit: str) -> None:
    """The product given by ``pair`` on basis labels is a coalgebra morphism.

    For each label pair (a, b), first eps(ab) = eps(a) eps(b), then
    delta(ab) = sum a1 b1 (x) a2 b2.  Raises :class:`AxiomViolation` named
    ``counit`` or ``coproduct`` with the pair as witness.
    """
    square = c.delta.codomain
    for la, lb in pairs:
        ab = pair(la, lb)
        got = c.eps_of(ab)
        want = c.counit.get(la, ZERO) * c.counit.get(lb, ZERO)
        if got != want:
            raise AxiomViolation(counit, (la, lb), got, want)
        lhs = c.delta(ab)
        rhs = tensor_sum(square, ((pair(a1, b1), pair(a2, b2), ca * cb)
                                  for a1, a2, ca in c.legs(la) for b1, b2, cb in c.legs(lb)))
        if lhs != rhs:
            raise AxiomViolation(coproduct, (la, lb), lhs, rhs)


def check_coalgebra_map(source: Coalgebra, target: Coalgebra, f: Callable[[Label], FinVec],
                        labels: Iterable[Label], name: str,
                        error: type = AxiomViolation) -> None:
    """The linear map given by ``f`` on basis labels of ``source`` is a
    coalgebra map into ``target``.

    For each label a, first delta(f(a)) = sum f(a1) (x) f(a2), then
    eps(f(a)) = eps(a).  Raises ``error`` named "<name> comultiplicativity"
    or "<name> counit" with the label as witness.
    """
    square = target.delta.codomain
    for lab in labels:
        fa = f(lab)
        lhs = target.delta(fa)
        rhs = tensor_sum(square, ((f(l1), f(l2), w) for l1, l2, w in source.legs(lab)))
        if lhs != rhs:
            raise error(f"{name} comultiplicativity", lab, lhs, rhs)
        got = target.eps_of(fa)
        want = source.counit.get(lab, ZERO)
        if got != want:
            raise error(f"{name} counit", lab, got, want)


def is_cocommutative(c: Coalgebra) -> bool:
    tau = flip_map(c.basis, c.basis)
    return tau.compose(c.delta) == c.delta


def is_group_like(c: Coalgebra, v: FinVec) -> bool:
    return not v.is_zero and c.delta(v) == v.tensor(v, c.square) and c.eps_of(v) == ONE


def reduced_delta_map(c: Coalgebra) -> FinMap:
    """x -> delta(x) - x (x) 1 - 1 (x) x, whose kernel is the primitives."""
    square = c.square

    def col(lab: Label) -> FinVec:
        b = FinVec.unit(c.basis, lab)
        return c.delta(b) - b.tensor(c.unit, square) - c.unit.tensor(b, square)

    return FinMap.from_function(c.basis, square, col)


def primitives(c: Coalgebra) -> list[FinVec]:
    """Basis of Prim(C) = { x : delta(x) = x (x) 1 + 1 (x) x }."""
    return kernel_basis(reduced_delta_map(c))


def coalgebra_filtration(c: Coalgebra) -> list[list[FinVec]]:
    """Increasing filtration levels, stopping when stable.

    The last level equals the whole space iff the coalgebra is connected.
    """
    reduced = reduced_delta_map(c)
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
# convolution
# ---------------------------------------------------------------------------


def convolution(c: Coalgebra, mul: FinMap, f: FinMap, g: FinMap) -> FinMap:
    """f * g = mul o (f (x) g) o delta for maps C -> A and mul: A (x) A -> A."""
    return mul.compose(tensor_product_map(f, g)).compose(c.delta)


def convolution_unit(c: Coalgebra, target_unit: FinVec) -> FinMap:
    """The convolution identity b -> counit(b) * 1_A."""
    return FinMap.from_function(
        c.basis, target_unit.basis,
        lambda lab: target_unit.scale(c.counit.get(lab, ZERO)))


def convolution_inverse(c: Coalgebra, mul: FinMap, target_unit: FinVec,
                        f: FinMap) -> FinMap:
    """Inverse of f under convolution via the geometric series.

    With e the convolution unit, sum_r (e - f)^{*r} inverts f whenever the
    series terminates; on a connected coalgebra with f(1) = 1 the r-th power
    vanishes on the r-th filtration level, so it always does.
    """
    e = convolution_unit(c, target_unit)
    eta = e - f
    total = e
    term = eta
    steps = 0
    while not term.is_zero:
        total = total + term
        term = convolution(c, mul, term, eta)
        steps += 1
        if steps > c.basis.dim + 1:
            raise RackalgError("convolution series does not terminate; "
                               "the coalgebra is not connected or f(1) != 1")
    return total


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

    counit: dict[Label, Fraction] = {}
    for lab_l, el in left.counit.items():
        for lab_r, er in right.counit.items():
            if el * er:
                counit[(lab_l, lab_r)] = el * er
    delta = FinMap.from_function(basis, square, delta_col)
    return Coalgebra(basis, delta, counit, left.unit.tensor(right.unit, basis))


def sym_monomials(source: Basis, max_degree: int) -> tuple[tuple[Label, ...], ...]:
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
    basis = Basis(name or f"S({source.name})<={cap}", sym_monomials(source, cap))
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
    return Coalgebra(basis, delta, counit, FinVec.unit(basis, ()))


def sym_product_map(sym: Coalgebra, source: Basis) -> FinMap:
    """Commutative product on the truncated S(V), discarding overflow.

    Degrees beyond the cap are quotiented away.  The result is the algebra
    S(V)/(degree > cap); together with the coproduct this is only a bialgebra
    below the cap, which is all convolution arguments may rely on.
    """
    square = sym.square

    def col(pair: Label) -> FinVec:
        left, right = split_label(sym.basis, pair)
        merged = sort_monomial(source, tuple(left) + tuple(right))
        if merged not in sym.basis:
            return FinVec.zero(sym.basis)
        return FinVec.unit(sym.basis, merged)

    return FinMap.from_function(square, sym.basis, col)


def sym_algebra_map(f: FinMap, dom_sym: Coalgebra, cod_sym: Coalgebra) -> FinMap:
    """Functorial extension of a linear map on generators to S(V) monomials.

    A monomial goes to the commutative product of the images of its letters.
    Degree is preserved, so any codomain cap at least the domain cap keeps
    every image inside the truncation.
    """
    cod_source = f.codomain

    def col(mono: Label) -> FinVec:
        assert isinstance(mono, tuple)
        acc = FinVec.unit(cod_sym.basis, ())
        for lab in mono:
            image = f.column(lab)
            items = []
            for m, c in acc.entries.items():
                for wl, wc in image.entries.items():
                    items.append((sort_monomial(cod_source, (*m, wl)), c * wc))
            acc = FinVec.build(cod_sym.basis, items)
        return acc

    return FinMap.from_function(dom_sym.basis, cod_sym.basis, col)


__all__ = [
    "Coalgebra", "check_coalgebra", "check_coalgebra_map", "check_multiplicative",
    "coalgebra_filtration", "convolution",
    "convolution_inverse", "convolution_unit", "filtration_order",
    "is_cocommutative", "is_connected", "is_group_like", "primitives",
    "reduced_delta_map", "sort_monomial", "sym_algebra_map", "sym_monomials",
    "sym_product_map", "symmetric_coalgebra", "tensor_coalgebra",
]
