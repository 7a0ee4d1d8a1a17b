"""Seeded single-entry corruptions for the reject phases.

A corruption adds ``coeff`` times one basis vector to one column of a
product table.  The column is drawn stratified over the table's key order:
corruption ``k`` of ``n`` lands in the ``k``-th of ``n`` equal slices of the
keys.  Certifiers walk their identities in key order and stop at the first
failure, so stratification keeps the total rejection work nearly the same
for every seed, while each seed still picks different columns, targets and
coefficients.

The specs are plain numbers made from the seed alone; ``apply`` resolves a
spec against a concrete table of ``FinVec`` columns, so specs can be drawn
during set-up before any table exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Hashable, Mapping, Sequence

COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Corruption:
    """Add ``coeff`` * e_target to the column at ``position`` of table ``table``.

    ``position`` and ``target`` are fractions in [0, 1) of the table's key
    list and of the allowed target labels.
    """

    table: str
    position: float
    target: float
    coeff: int


def draw(seed: int, tables: Sequence[str], count: int) -> list[Corruption]:
    """``count`` corruptions per table, stratified over each table's keys.

    When ``count`` is a multiple of a table's key count, every key is hit
    equally often and the seed picks only the targets and coefficients.
    """
    rng = random.Random(seed)
    out = []
    for table in tables:
        for k in range(count):
            out.append(Corruption(table, (k + rng.random()) / count, rng.random(),
                                  rng.choice(COEFFS)))
    return out


def apply(c: Corruption, columns: Mapping[Hashable, Any], keys: Sequence[Hashable],
          targets: Sequence[Hashable], zero: Any) -> tuple[Hashable, dict]:
    """A copy of ``columns`` with the corrupted column; returns (key, copy).

    ``keys`` lists every column in certification order, ``targets`` the
    labels the extra term may hit, and ``zero`` is the zero vector of the
    columns' space, read for a missing column.
    """
    key = keys[int(c.position * len(keys))]
    label = targets[int(c.target * len(targets))]
    out = dict(columns)
    out[key] = out.get(key, zero) + type(zero).unit(zero.basis, label, Fraction(c.coeff))
    return key, out
