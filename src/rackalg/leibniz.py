"""Finite dimensional left Leibniz algebras over the rationals.

A left Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [[x, y], z] + [y, [x, z]],

i.e. every left multiplication is a derivation.  Lie algebras are exactly the
antisymmetric examples.  The module verifies the identity on basis triples,
computes the two canonical ideals (the squares ideal Q and the left center),
and forms the Lie quotient by any ideal sandwiched between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from rackalg.errors import IdealSandwichViolation, LeibnizViolation
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    Label,
    SpanSolver,
    bilinear,
    kernel_basis,
    rational,
    span_basis,
)


@dataclass(frozen=True)
class LeibnizAlgebra:
    """Bracket table over a labelled basis; missing pairs bracket to zero.

    ``bracket[(j, k)]`` is the vector [e_j, e_k].  Construction validates
    shapes only; the Leibniz identity itself is checked by
    :func:`check_leibniz`, so intentionally broken tables can be built for
    negative tests.
    """

    basis: Basis
    bracket: Mapping[tuple[Label, Label], FinVec]

    def __post_init__(self) -> None:
        for (j, k), v in self.bracket.items():
            if j not in self.basis or k not in self.basis:
                raise ValueError(f"bracket key ({j!r}, {k!r}) not in basis {self.basis.name}")
            if v.basis is not self.basis and v.basis != self.basis:
                raise ValueError(f"bracket value for ({j!r}, {k!r}) lives in the wrong space")
        object.__setattr__(self, "_zero", FinVec.zero(self.basis))

    @staticmethod
    def from_table(dim: int,
                   entries: Mapping[tuple[int, int], Mapping[int, Fraction | int | str]],
                   name: str = "h") -> "LeibnizAlgebra":
        """Build from 1-based index data: entries[(j, k)][i] = coeff of e_i in [e_j, e_k]."""
        basis = Basis(name, tuple(range(1, dim + 1)))
        bracket: dict[tuple[Label, Label], FinVec] = {}
        for (j, k), coeffs in entries.items():
            v = FinVec.build(basis, {i: rational(c) for i, c in coeffs.items()})
            if not v.is_zero:
                bracket[(j, k)] = v
        return LeibnizAlgebra(basis, bracket)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def bracket_of_labels(self, j: Label, k: Label) -> FinVec:
        return self.bracket.get((j, k)) or self._zero

    def bracket_of(self, x: FinVec, y: FinVec) -> FinVec:
        """Bilinear extension of the bracket table."""
        return bilinear(self.basis, self.bracket_of_labels, x, y)

    def ad(self, x: FinVec) -> FinMap:
        """Left adjoint map ad_x = [x, -]."""
        return FinMap.from_function(
            self.basis, self.basis,
            lambda k: self.bracket_of(x, FinVec.unit(self.basis, k)))

    def is_abelian(self) -> bool:
        return all(v.is_zero for v in self.bracket.values())


def check_leibniz(h: LeibnizAlgebra) -> None:
    """Verify the left Leibniz identity on every basis triple.

    Raises :class:`LeibnizViolation` carrying the first offending triple in
    lexicographic label order, together with both evaluated sides.
    """
    labs = h.basis.labels
    for j, k, l in itertools.product(labs, repeat=3):
        ej = FinVec.unit(h.basis, j)
        ek = FinVec.unit(h.basis, k)
        el = FinVec.unit(h.basis, l)
        lhs = h.bracket_of(ej, h.bracket_of(ek, el))
        rhs = h.bracket_of(h.bracket_of(ej, ek), el) + h.bracket_of(ek, h.bracket_of(ej, el))
        if lhs != rhs:
            raise LeibnizViolation(j, k, l, lhs, rhs)


def is_lie(h: LeibnizAlgebra) -> bool:
    """Antisymmetry of the bracket table ([e_j,e_k] = -[e_k,e_j], squares zero)."""
    labs = h.basis.labels
    return all(
        h.bracket_of_labels(j, k) == -h.bracket_of_labels(k, j)
        for j, k in itertools.product(labs, repeat=2))


def squares_ideal(h: LeibnizAlgebra) -> list[FinVec]:
    """Basis of Q(h), the span of all squares [x, x].

    By polarization Q(h) is spanned by the diagonal brackets [e_i, e_i]
    together with the symmetrized off-diagonal ones [e_i, e_j] + [e_j, e_i].
    In a left Leibniz algebra Q(h) acts trivially on the left, so it sits
    inside the left center.
    """
    labs = h.basis.labels
    spanning: list[FinVec] = []
    for i, j in itertools.combinations_with_replacement(labs, 2):
        if i == j:
            spanning.append(h.bracket_of_labels(i, i))
        else:
            spanning.append(h.bracket_of_labels(i, j) + h.bracket_of_labels(j, i))
    return span_basis([v for v in spanning if not v.is_zero])


def left_center(h: LeibnizAlgebra) -> list[FinVec]:
    """Basis of z(h) = { x : [x, y] = 0 for all y }, the kernel of x -> ad_x."""
    labs = h.basis.labels
    stacked = Basis(f"{h.basis.name}-ad-target", tuple((k, i) for k in labs for i in labs))

    def col(j: Label) -> FinVec:
        items = []
        for k in labs:
            for i, c in h.bracket_of_labels(j, k).entries.items():
                items.append(((k, i), c))
        return FinVec.build(stacked, items)

    return kernel_basis(FinMap.from_function(h.basis, stacked, col))


@dataclass(frozen=True)
class QuotientLie:
    """Lie quotient g = h/z with projection p and a label-preserving section.

    The quotient basis reuses the labels of the chosen representative basis
    vectors of h, so ``section`` maps each quotient basis vector to the h
    basis vector with the same label and ``p.compose(section)`` is the
    identity of g.
    """

    source: LeibnizAlgebra
    algebra: LeibnizAlgebra
    z_basis: tuple[FinVec, ...]
    p: FinMap
    section: FinMap


def quotient_lie(h: LeibnizAlgebra, z: Sequence[FinVec] | None = None,
                 name: str | None = None) -> QuotientLie:
    """Quotient of h by an ideal z with Q(h) <= z <= z(h).

    With z in that sandwich the bracket descends ([z,h] = 0 since z is in the
    left center, and [h,z] <= Q(h) <= z by polarization) and the quotient is a
    Lie algebra (squares die).  Defaults to z = Q(h), the smallest choice.
    Raises :class:`IdealSandwichViolation` when the sandwich fails.
    """
    check_leibniz(h)
    squares = squares_ideal(h)
    if z is None:
        z = squares
    z = list(z)

    center_span = SpanSolver(left_center(h))
    for v in z:
        if not center_span.contains(v):
            raise IdealSandwichViolation(
                f"requested ideal is not inside the left center: offending vector {v!r}")
    z_span = SpanSolver([v for v in z if not v.is_zero])
    for q in squares:
        if not z_span.contains(q):
            raise IdealSandwichViolation(
                f"requested ideal does not contain the squares ideal: missing {q!r}")

    pivots = set(z_span.pivot_indices)
    rep_labels = tuple(lab for i, lab in enumerate(h.basis.labels) if i not in pivots)
    g_basis = Basis(name or f"{h.basis.name}-mod-z", rep_labels)

    def p_col(j: Label) -> FinVec:
        r = z_span.residue(FinVec.unit(h.basis, j))
        return FinVec.build(g_basis, dict(r.entries))

    p = FinMap.from_function(h.basis, g_basis, p_col)
    section = FinMap.from_function(g_basis, h.basis,
                                   lambda lab: FinVec.unit(h.basis, lab))

    bracket: dict[tuple[Label, Label], FinVec] = {}
    for s, t in itertools.product(rep_labels, repeat=2):
        w = p(h.bracket_of_labels(s, t))
        if not w.is_zero:
            bracket[(s, t)] = w
    g = LeibnizAlgebra(g_basis, bracket)
    check_leibniz(g)
    if not is_lie(g):
        raise IdealSandwichViolation("quotient bracket is not antisymmetric")
    return QuotientLie(source=h, algebra=g, z_basis=tuple(z_span.vectors),
                       p=p, section=section)


__all__ = [
    "LeibnizAlgebra", "QuotientLie", "check_leibniz", "is_lie", "left_center",
    "quotient_lie", "squares_ideal",
]
