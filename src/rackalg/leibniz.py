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
from typing import Mapping, Sequence

from rackalg.errors import IdealSandwichViolation, LeibnizViolation, SchemaError
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    Label,
    PairTable,
    Rational,
    SpanSolver,
    bilinear,
    kernel_basis,
    label_times,
    rational,
    same_entries,
    span_basis,
    times_label,
)


@dataclass(frozen=True)
class LeibnizAlgebra:
    """Bracket table over a labelled basis; missing pairs bracket to zero.

    ``bracket[(j, k)]`` is the vector [e_j, e_k]; ``table`` is the same
    product as a :class:`~rackalg.exact_core.PairTable`, built on construction.
    Construction validates shapes and exact coefficients only; the Leibniz
    identity itself is checked by
    :func:`check_leibniz`, so intentionally broken tables can be built for
    negative tests.
    """

    basis: Basis
    bracket: Mapping[tuple[Label, Label], FinVec]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", PairTable.build(
            self.basis, ((j, k, v) for (j, k), v in self.bracket.items()),
            self.basis, self.basis, context="bracket"))

    @staticmethod
    def from_table(dim: int,
                   entries: Mapping[tuple[int, int], Mapping[int, Rational | str]],
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

    def bracket_of(self, x: FinVec, y: FinVec) -> FinVec:
        """Bilinear extension of the bracket table."""
        return bilinear(self.table, x, y)

    def ad(self, x: FinVec) -> FinMap:
        """Left adjoint map ad_x = [x, -]."""
        return FinMap.from_function(
            self.basis, self.basis,
            lambda k: FinVec(self.basis, times_label(self.table, x.entries, k)))

    def is_abelian(self) -> bool:
        return not self.table.rows


def check_leibniz(h: LeibnizAlgebra) -> None:
    """Verify the left Leibniz identity on every basis triple.

    Raises :class:`LeibnizViolation` carrying the first offending triple in
    lexicographic label order, together with both evaluated sides.  Each
    bracket with a basis label on one side is read from the stored columns
    into a coefficient dict; vectors are built only for a violation.
    """
    t = h.table
    for j, k, l in itertools.product(h.basis.labels, repeat=3):
        lhs = label_times(t, j, t.entry(k, l))
        rhs = times_label(t, t.entry(j, k), l)
        label_times(t, k, t.entry(j, l), rhs)
        if not same_entries(lhs, rhs):
            raise LeibnizViolation(j, k, l, FinVec(h.basis, lhs), FinVec(h.basis, rhs))


def is_lie(h: LeibnizAlgebra) -> bool:
    """Antisymmetry of the bracket table ([e_j,e_k] = -[e_k,e_j], squares zero)."""
    labs = h.basis.labels
    return all(
        h.table.vector(j, k) == -h.table.vector(k, j)
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
            spanning.append(h.table.vector(i, i))
        else:
            spanning.append(h.table.vector(i, j) + h.table.vector(j, i))
    return span_basis([v for v in spanning if not v.is_zero])


def left_center(h: LeibnizAlgebra) -> list[FinVec]:
    """Basis of z(h) = { x : [x, y] = 0 for all y }, the kernel of x -> ad_x."""
    labs = h.basis.labels
    stacked = Basis(f"{h.basis.name}-ad-target", tuple((k, i) for k in labs for i in labs))

    def col(j: Label) -> FinVec:
        items = []
        for k in labs:
            for i, c in h.table.entry(j, k).items():
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

    Defaults to z = Q(h), the smallest choice.  Raises
    :class:`LeibnizViolation` when h is not a Leibniz algebra,
    :class:`SchemaError` for a vector of z that is not over h's basis, and
    :class:`IdealSandwichViolation` when the sandwich fails.

    The quotient is a Lie algebra with no check of its own.  Once h is
    Leibniz and z <= z(h), Q(h) <= z hold, z is a two-sided ideal: [z, h] = 0,
    and [x, v] = ([x, v] + [v, x]) - [v, x] lies in Q(h) for v in z.  So
    p: h -> g = h/z is an onto homomorphism for the bracket p[s, t] stored on
    representative labels, and maps each Leibniz triple of h to one of g.
    Antisymmetry: [p x, p x] = p[x, x] lies in p(Q(h)) = 0; polarize.
    """
    check_leibniz(h)
    return _quotient(h, z, name)


def _quotient(h: LeibnizAlgebra, z: Sequence[FinVec] | None,
              name: str | None = None) -> QuotientLie:
    """:func:`quotient_lie` of an h whose Leibniz identity the caller has
    checked: the sandwich checks and the quotient, and nothing else."""
    squares = squares_ideal(h)
    if z is None:
        z = squares
    z = list(z)
    for v in z:
        if v.basis != h.basis or any(lab not in h.basis for lab in v.entries):
            raise SchemaError(f"requested ideal vector {v!r} is not over {h.basis.name}")

    # z <= z(h) when [v, e_k] = 0 for every v in z and every basis label k
    for v in z:
        if any(times_label(h.table, v.entries, k) for k in h.basis.labels):
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
        w = p(h.table.vector(s, t))
        if not w.is_zero:
            bracket[(s, t)] = w
    return QuotientLie(source=h, algebra=LeibnizAlgebra(g_basis, bracket),
                       z_basis=tuple(z_span.vectors), p=p, section=section)


__all__ = [
    "LeibnizAlgebra", "QuotientLie", "check_leibniz", "is_lie", "left_center",
    "quotient_lie", "squares_ideal",
]
