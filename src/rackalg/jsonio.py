"""JSON schemas for the input corpus.

Documents are plain JSON objects with a ``kind`` discriminator.  All basis
indices are 1-based and all scalars are exact rationals serialized as "p" or
"p/q" strings (ints are accepted on input).  Malformed documents raise
:class:`SchemaError` with a message naming the offending key.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from rackalg.errors import SchemaError
from rackalg.exact_core import Rational, format_rational, rational
from rackalg.groups import FiniteGroup
from rackalg.leibniz import LeibnizAlgebra
from rackalg.rack_bialg import FiniteRack

KIND_LEIBNIZ = "leibniz_algebra"
KIND_RACK = "rack"
KIND_GROUP = "group"
KIND_RIGHT_GROUP = "right_group"


def _require(doc: Mapping[str, Any], key: str, kind: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{kind} document is missing key {key!r}")
    return doc[key]


def _string(doc: Mapping[str, Any], key: str, kind: str, default: str | None = None) -> str:
    """The string at ``key``, required unless it has a ``default``."""
    value = _require(doc, key, kind) if default is None else doc.get(key, default)
    if not isinstance(value, str):
        raise SchemaError(f"'{key}' must be a string, got {value!r}")
    return value


# Longer strings and larger dimensions are refused before parsing, so
# oversized input fails fast.
MAX_RATIONAL_CHARS = 200
MAX_DIM = 10_000
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INDEX = re.compile(r"[0-9]{1,%d}" % len(str(MAX_DIM)))


def _as_rational(value: Any, where: str) -> Rational:
    """An int (not a bool) or a "p" / "p/q" string of at most MAX_RATIONAL_CHARS."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str) or len(value) > MAX_RATIONAL_CHARS \
            or not _RATIONAL.fullmatch(value):
        raise SchemaError(f"{where}: expected an int or a 'p/q' string, got {value!r:.80}")
    try:
        return rational(value)
    except ZeroDivisionError as exc:
        raise SchemaError(f"{where}: zero denominator in {value!r}") from exc


def document_kind(doc: Mapping[str, Any]) -> str:
    return _string(doc, "kind", "input")


def _parse_index(text: str, dim: int, where: str) -> int:
    """A 1-based index: ASCII digits only, around optional whitespace."""
    if not _INDEX.fullmatch(text.strip()):
        raise SchemaError(f"{where}: index {text!r:.80} is not a decimal integer")
    i = int(text)
    if not 1 <= i <= dim:
        raise SchemaError(f"{where}: index {i} out of range 1..{dim}")
    return i


def leibniz_from_json(doc: Mapping[str, Any]) -> LeibnizAlgebra:
    """Parse a leibniz_algebra document.

    Shape: {"kind": "leibniz_algebra", "name": str, "dim": int,
            "bracket": {"j,k": {"i": "p/q", ...}, ...}}
    where bracket["j,k"]["i"] is the coefficient of e_i in [e_j, e_k].
    """
    if document_kind(doc) != KIND_LEIBNIZ:
        raise SchemaError(f"expected kind {KIND_LEIBNIZ!r}, got {doc.get('kind')!r}")
    dim = _require(doc, "dim", KIND_LEIBNIZ)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"'dim' must be a positive integer, got {dim!r:.80}")
    if dim > MAX_DIM:
        raise SchemaError(f"'dim' is larger than {MAX_DIM}")
    name = _string(doc, "name", KIND_LEIBNIZ, "h")
    raw = _require(doc, "bracket", KIND_LEIBNIZ)
    if not isinstance(raw, Mapping):
        raise SchemaError("'bracket' must be an object keyed by 'j,k' pairs")
    table: dict[tuple[int, int], dict[int, Rational]] = {}
    for key, coeffs in raw.items():
        parts = str(key).split(",")
        if len(parts) != 2:
            raise SchemaError(f"bracket key {key!r} is not of the form 'j,k'")
        j = _parse_index(parts[0], dim, f"bracket key {key!r}")
        k = _parse_index(parts[1], dim, f"bracket key {key!r}")
        if (j, k) in table:
            raise SchemaError(f"duplicate bracket key for pair ({j},{k})")
        if not isinstance(coeffs, Mapping):
            raise SchemaError(f"bracket[{key!r}] must be an object keyed by basis index")
        vec: dict[int, Rational] = {}
        for i_text, c in coeffs.items():
            i = _parse_index(str(i_text), dim, f"bracket[{key!r}]")
            vec[i] = _as_rational(c, f"bracket[{key!r}][{i_text!r}]")
        table[(j, k)] = vec
    return LeibnizAlgebra.from_table(dim, table, name=name)


def leibniz_to_json(h: LeibnizAlgebra) -> dict[str, Any]:
    """Inverse of :func:`leibniz_from_json` (requires the 1..dim int labels)."""
    idx = {lab: n for n, lab in enumerate(h.basis.labels, start=1)}
    bracket: dict[str, dict[str, str]] = {}
    for (j, k), v in sorted(h.bracket.items(), key=lambda kv: (idx[kv[0][0]], idx[kv[0][1]])):
        if v.is_zero:
            continue
        bracket[f"{idx[j]},{idx[k]}"] = {
            str(idx[lab]): format_rational(c)
            for lab, c in sorted(v.entries.items(), key=lambda e: idx[e[0]])
        }
    return {"kind": KIND_LEIBNIZ, "name": h.basis.name, "dim": h.dim, "bracket": bracket}


def _string_list(doc: Mapping[str, Any], key: str, kind: str) -> tuple[str, ...]:
    raw = _require(doc, key, kind)
    if not isinstance(raw, list) or not raw or not all(isinstance(x, str) for x in raw):
        raise SchemaError(f"'{key}' must be a non-empty list of strings")
    return tuple(raw)


def _binary_table(doc: Mapping[str, Any], key: str, elements: tuple[str, ...],
                  kind: str) -> dict[tuple[str, str], str]:
    """Parse a nested {x: {y: value}} operation table over ``elements``."""
    raw = _require(doc, key, kind)
    if not isinstance(raw, Mapping):
        raise SchemaError(f"'{key}' must be an object keyed by element")
    table: dict[tuple[str, str], str] = {}
    universe = set(elements)
    for x, row in raw.items():
        if x not in universe:
            raise SchemaError(f"{key}[{x!r}]: unknown element")
        if not isinstance(row, Mapping):
            raise SchemaError(f"{key}[{x!r}] must be an object keyed by element")
        for y, v in row.items():
            if y not in universe:
                raise SchemaError(f"{key}[{x!r}][{y!r}]: unknown element")
            if not isinstance(v, str) or v not in universe:
                raise SchemaError(f"{key}[{x!r}][{y!r}]: value {v!r} is not an element")
            table[(x, y)] = v
    for x in elements:
        for y in elements:
            if (x, y) not in table:
                raise SchemaError(f"{key}: missing entry for ({x!r}, {y!r})")
    return table


def rack_from_json(doc: Mapping[str, Any]) -> FiniteRack:
    """Parse a rack document.

    Shape: {"kind": "rack", "name": str, "elements": [str], "unit": str,
            "op": {x: {y: value}}}.  Left-multiplication rows must be
    bijections; the unit and self-distributivity laws are checked later by
    the consumers, so deliberately broken tables load fine.
    """
    if document_kind(doc) != KIND_RACK:
        raise SchemaError(f"expected kind {KIND_RACK!r}, got {doc.get('kind')!r}")
    name = _string(doc, "name", KIND_RACK, "X")
    elements = _string_list(doc, "elements", KIND_RACK)
    unit = _require(doc, "unit", KIND_RACK)
    if unit not in elements:
        raise SchemaError(f"rack unit {unit!r} is not an element")
    op = _binary_table(doc, "op", elements, KIND_RACK)
    return FiniteRack.build(name, elements, unit, op)


def rack_to_json(x: FiniteRack) -> dict[str, Any]:
    """Inverse of :func:`rack_from_json`."""
    op: dict[str, dict[str, str]] = {}
    for a in x.elements:
        op[a] = {b: x.op[(a, b)] for b in x.elements}
    return {"kind": KIND_RACK, "name": x.name, "elements": list(x.elements),
            "unit": x.unit, "op": op}


def group_from_json(doc: Mapping[str, Any]) -> FiniteGroup:
    """Parse a group document.

    Shape: {"kind": "group", "name": str, "elements": [str], "unit": str,
            "table": {x: {y: value}}}.  Group axioms are validated on
    construction, so a broken table fails here.
    """
    if document_kind(doc) != KIND_GROUP:
        raise SchemaError(f"expected kind {KIND_GROUP!r}, got {doc.get('kind')!r}")
    name = _string(doc, "name", KIND_GROUP, "G")
    elements = _string_list(doc, "elements", KIND_GROUP)
    unit = _string(doc, "unit", KIND_GROUP)
    table = _binary_table(doc, "table", elements, KIND_GROUP)
    return FiniteGroup(name, elements, unit, table)


def right_group_from_json(doc: Mapping[str, Any]) -> tuple[FiniteGroup, tuple[str, ...], str]:
    """Parse a right_group document: a group crossed with a pointed idempotent set.

    Shape: {"kind": "right_group", "name": str, "group": {group document},
            "points": [str], "base": str}.  Returns (group, points, base).
    """
    if document_kind(doc) != KIND_RIGHT_GROUP:
        raise SchemaError(f"expected kind {KIND_RIGHT_GROUP!r}, got {doc.get('kind')!r}")
    raw_group = _require(doc, "group", KIND_RIGHT_GROUP)
    if not isinstance(raw_group, Mapping):
        raise SchemaError("'group' must be an inline group document")
    group = group_from_json(raw_group)
    points = _string_list(doc, "points", KIND_RIGHT_GROUP)
    if len(set(points)) != len(points):
        raise SchemaError("'points' must be distinct")
    base = _require(doc, "base", KIND_RIGHT_GROUP)
    if base not in points:
        raise SchemaError(f"base point {base!r} is not among the points")
    return group, points, base


__all__ = [
    "KIND_GROUP", "KIND_LEIBNIZ", "KIND_RACK", "KIND_RIGHT_GROUP",
    "document_kind", "group_from_json", "leibniz_from_json", "leibniz_to_json",
    "rack_from_json", "rack_to_json", "right_group_from_json",
]
