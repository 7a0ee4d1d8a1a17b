"""Finite groups and their group algebras.

K[G] carries the group-like coalgebra, the multiplication table product and
the inversion antipode.  :func:`group_hopf` builds it as a
:class:`~rackalg.env_hopf.HopfAlgebra` record, the Hopf backend of every
finite construction; the capped enveloping algebra is the other backend.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from rackalg.env_hopf import HopfAlgebra
from rackalg.errors import AxiomViolation, SchemaError
from rackalg.exact_core import Basis, FinMap, FinVec, Label, PairTable, tensor_basis
from rackalg.symcoalg import Coalgebra

__all__ = [
    "FiniteGroup",
    "cyclic_group",
    "symmetric_group",
    "group_like_coalgebra",
    "group_hopf",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    Closure, associativity, the unit law and existence of inverses are all
    checked on construction; the element order fixes the basis order of the
    group algebra.
    """

    name: str
    elements: tuple[str, ...]
    unit: str
    table: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise SchemaError(f"group {self.name}: duplicate elements")
        if self.unit not in elems:
            raise SchemaError(f"group {self.name}: unit {self.unit!r} not an element")
        for x, y in itertools.product(self.elements, repeat=2):
            z = self.table.get((x, y))
            if z is None:
                raise SchemaError(f"group {self.name}: missing product {x!r}*{y!r}")
            if z not in elems:
                raise SchemaError(f"group {self.name}: product {x!r}*{y!r} = {z!r} escapes")
        if len(self.table) != len(self.elements) ** 2:
            raise SchemaError(f"group {self.name}: extra table entries")
        for x in self.elements:
            if self.table[(self.unit, x)] != x or self.table[(x, self.unit)] != x:
                raise AxiomViolation("unit law", (x,), self.table[(self.unit, x)], x)
        rows = {x: {z: self.table[(x, z)] for z in self.elements} for x in self.elements}
        for x, y in itertools.product(self.elements, repeat=2):  # (xy)z = x(yz) per pair of rows
            lhs, rhs = tuple(rows[rows[x][y]].values()), tuple(map(rows[x].get, rows[y].values()))
            if lhs != rhs:
                k = next(k for k, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                raise AxiomViolation("associativity", (x, y, self.elements[k]), lhs[k], rhs[k])
        inv: dict[str, str] = {}
        for x in self.elements:
            for y in self.elements:
                if self.table[(x, y)] == self.unit and self.table[(y, x)] == self.unit:
                    inv[x] = y
                    break
            else:
                raise AxiomViolation("inverses", (x,), None, self.unit)
        object.__setattr__(self, "_inverse", inv)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, x: str, y: str) -> str:
        return self.table[(x, y)]

    def inverse(self, x: str) -> str:
        return self._inverse[x]

    def conjugate(self, g: str, h: str) -> str:
        """g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inverse(g))

    def is_abelian(self) -> bool:
        return all(self.mul(x, y) == self.mul(y, x)
                   for x, y in itertools.combinations(self.elements, 2))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise SchemaError("cyclic group order must be positive")
    elements = tuple(f"r{k}" for k in range(n))
    table = {(f"r{a}", f"r{b}"): f"r{(a + b) % n}" for a in range(n) for b in range(n)}
    return FiniteGroup(f"Z{n}", elements, "r0", table)


def _perm_label(perm: tuple[int, ...]) -> str:
    return "s" + "".join(str(i + 1) for i in perm)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n in one-line notation; (p*q)(i) = p(q(i))."""
    if not 1 <= n <= 4:
        raise SchemaError("symmetric group supported for 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    table = {}
    for p, q in itertools.product(perms, repeat=2):
        table[(_perm_label(p), _perm_label(q))] = _perm_label(tuple(p[q[i]] for i in range(n)))
    return FiniteGroup(f"S{n}", tuple(_perm_label(p) for p in perms),
                       _perm_label(tuple(range(n))), table)


def group_like_coalgebra(name: str, labels: tuple[Label, ...], unit_label: Label) -> Coalgebra:
    """The coalgebra with every basis element set-like, pointed at ``unit_label``."""
    basis = Basis(name, labels)
    if unit_label not in basis:
        raise SchemaError(f"coalgebra {name}: unit {unit_label!r} not a basis label")
    square = tensor_basis(basis, basis)
    delta = FinMap.from_function(basis, square, lambda lab: FinVec.unit(square, (lab, lab)))
    counit = {lab: 1 for lab in labels}
    return Coalgebra(basis, delta, counit, FinVec.unit(basis, unit_label), square)


def group_hopf(g: FiniteGroup) -> HopfAlgebra:
    """K[G]: the multiplication table on the group-like labels, uncapped,
    with the antipode x -> x^-1."""
    c = group_like_coalgebra(f"K[{g.name}]", tuple(g.elements), g.unit)
    basis = c.basis
    table = PairTable.build(basis, ((x, y, FinVec.unit(basis, g.mul(x, y)))
                                    for x in basis.labels for y in basis.labels))
    antipode = FinMap.from_function(basis, basis,
                                    lambda lab: FinVec.unit(basis, g.inverse(lab)))
    return HopfAlgebra(c, table, antipode)
