"""Exact scalars, sparse vectors over labelled bases, and rational linear algebra.

Coefficients are either ``fractions.Fraction`` or :class:`SeriesScalar`
(truncated formal power series in the deformation parameter with Fraction
coefficients).  No floating point is used anywhere; every equality test in the
package is exact.

Vectors and maps are sparse and keyed by basis *labels* (arbitrary hashable
values: ints, strings, tuples of labels for tensor factors).  Tensor-product
bases flatten their labels, so ``(A (x) B) (x) C`` and ``A (x) (B (x) C)``
agree on the nose.

Every product of the package is given on pairs of basis labels and extended
by :func:`bilinear`, the one place that does so.  Sums are built in one pass,
never by repeated copies: :func:`linear_sum` for sum c v and
:func:`tensor_sum` for Sweedler-type sums sum c (x (x) y).

All elimination goes through one private kernel, ``_Echelon``: sparse rows in
reduced row-echelon form, each keyed by its pivot, the smallest column of the
row, normalized to 1 there, and zero at every other pivot.  :func:`nullspace`,
:func:`rank_of`, :func:`kernel_basis`, :func:`rank`, :func:`span_basis` and
:class:`SpanSolver` read from it.  With one pivot rule the reduced form of a
span is unique, so every basis they return is the same for every order (and,
for spans, every nonzero rescaling) of their input.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, Union

Label = Hashable
Coeff = Union[Fraction, "SeriesScalar"]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(text: str | int | Fraction) -> Fraction:
    """Parse a rational from an int, a Fraction or a "p/q" string."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    """Serialize a rational as "p" or "p/q" (lowest terms, positive denominator)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


def _coerce_coeffs(values: Iterable[Fraction | int | str], order: int) -> tuple[Fraction, ...]:
    out = [rational(v) for v in values]
    if len(out) > order:
        raise ValueError(f"{len(out)} coefficients exceed truncation order {order}")
    out.extend([ZERO] * (order - len(out)))
    return tuple(out)


@dataclass(frozen=True)
class SeriesScalar:
    """Element of Q[[hbar]] / (hbar^N) with N = ``order``.

    ``coeffs[i]`` is the coefficient of hbar^i.  All ring operations truncate
    at the common order; mixing different orders is an error, mixing with
    Fraction or int coerces the scalar into degree zero.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs truncation order >= 1")

    @staticmethod
    def make(values: Iterable[Fraction | int | str], order: int) -> "SeriesScalar":
        return SeriesScalar(_coerce_coeffs(values, order))

    @staticmethod
    def constant(value: Fraction | int, order: int) -> "SeriesScalar":
        return SeriesScalar.make([rational(value)], order)

    @staticmethod
    def zero(order: int) -> "SeriesScalar":
        return SeriesScalar.make([], order)

    @staticmethod
    def one(order: int) -> "SeriesScalar":
        return SeriesScalar.constant(1, order)

    @staticmethod
    def hbar(order: int) -> "SeriesScalar":
        return SeriesScalar.make([0, 1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _lift(self, other: Any) -> "SeriesScalar | None":
        if isinstance(other, SeriesScalar):
            if other.order != self.order:
                raise ValueError("mixed truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return SeriesScalar.constant(other, self.order)
        return None

    def __add__(self, other: Any) -> "SeriesScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return SeriesScalar(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "SeriesScalar":
        return SeriesScalar(tuple(-a for a in self.coeffs))

    def __sub__(self, other: Any) -> "SeriesScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Any) -> "SeriesScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Any) -> "SeriesScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = self.order
        out = [ZERO] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return SeriesScalar(tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "SeriesScalar":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        n = self.order
        inv = [ONE / c0] + [ZERO] * (n - 1)
        # recursively solve (sum_i a_i h^i)(sum_j b_j h^j) = 1
        for m in range(1, n):
            acc = ZERO
            for i in range(1, m + 1):
                acc += self.coeffs[i] * inv[m - i]
            inv[m] = -acc / c0
        return SeriesScalar(tuple(inv))

    def __truediv__(self, other: Any) -> "SeriesScalar":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def shift(self, powers: int) -> "SeriesScalar":
        """Multiply by hbar^powers (truncating)."""
        return SeriesScalar(tuple([ZERO] * powers + list(self.coeffs))[: self.order])

    def __repr__(self) -> str:
        return "series[" + ", ".join(format_rational(c) for c in self.coeffs) + "]"


def series_exp(s: SeriesScalar) -> SeriesScalar:
    """exp of a series with zero constant term, truncated at its order."""
    if s.coeffs[0]:
        raise ValueError("series_exp needs zero constant term to stay rational")
    result = SeriesScalar.one(s.order)
    term = SeriesScalar.one(s.order)
    for r in range(1, s.order):
        term = term * s / Fraction(r)
        result = result + term
    return result


# ---------------------------------------------------------------------------
# bases, vectors, maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Basis:
    """An ordered, labelled basis.

    Equality is by value (name, labels, factor structure) with an identity
    fast path in the vector operations, so independently rebuilt tensor bases
    of the same factors are interchangeable.
    """

    name: str
    labels: tuple[Label, ...]
    factors: tuple["Basis", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})
        if len(self._index) != len(self.labels):
            raise ValueError(f"duplicate labels in basis {self.name}")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        return self._index[label]

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        return f"Basis({self.name}, dim={self.dim})"


def _label_parts(basis: Basis, label: Label) -> tuple[Label, ...]:
    return tuple(label) if basis.factors else (label,)


def merge_labels(basis: Basis, *labels: Label) -> Label:
    """Label of a pure tensor in ``tensor_basis(basis, ..., basis)``.

    Flattens component labels the same way :func:`tensor_basis` does, so the
    result indexes the tensor-square (or higher power) basis directly.
    """
    return tuple(itertools.chain.from_iterable(labels)) if basis.factors else labels


def tensor_basis(*bases: Basis) -> Basis:
    """Tensor product basis with flattened tuple labels, lexicographic order."""
    flat: list[Basis] = []
    for b in bases:
        flat.extend(b.factors if b.factors else (b,))
    labels = tuple(
        tuple(itertools.chain.from_iterable(_label_parts(b, lab) for b, lab in zip(bases, combo)))
        for combo in itertools.product(*(b.labels for b in bases))
    )
    name = " (x) ".join(b.name for b in flat)
    return Basis(name, labels, tuple(flat))


@dataclass(frozen=True, eq=False)
class FinVec:
    """Sparse vector over a basis; zero entries are never stored."""

    basis: Basis
    entries: Mapping[Label, Coeff]

    @staticmethod
    def zero(basis: Basis) -> "FinVec":
        return FinVec(basis, {})

    @staticmethod
    def unit(basis: Basis, label: Label, coeff: Coeff = ONE) -> "FinVec":
        if label not in basis:
            raise KeyError(f"label {label!r} not in basis {basis.name}")
        return FinVec(basis, {label: coeff} if coeff else {})

    @staticmethod
    def build(basis: Basis, items: Iterable[tuple[Label, Coeff]] | Mapping[Label, Coeff]) -> "FinVec":
        if isinstance(items, Mapping):
            items = items.items()
        acc: dict[Label, Coeff] = {}
        for lab, c in items:
            if not c:
                continue
            prev = acc.get(lab)
            s = c if prev is None else prev + c
            if s:
                acc[lab] = s
            elif prev is not None:
                del acc[lab]
        return FinVec(basis, acc)

    def __iter__(self) -> Iterator[tuple[Label, Coeff]]:
        return iter(self.entries.items())

    def __getitem__(self, label: Label) -> Coeff:
        return self.entries.get(label, ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "FinVec") -> "FinVec":
        self._check(other)
        acc = dict(self.entries)
        for lab, c in other.entries.items():
            s = acc.get(lab, ZERO) + c
            if s:
                acc[lab] = s
            elif lab in acc:
                del acc[lab]
        return FinVec(self.basis, acc)

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-other)

    def __neg__(self) -> "FinVec":
        return FinVec(self.basis, {lab: -c for lab, c in self.entries.items()})

    def scale(self, c: Coeff) -> "FinVec":
        if not c:
            return FinVec.zero(self.basis)
        return FinVec.build(self.basis, ((lab, c * v) for lab, v in self.entries.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinVec):
            return NotImplemented
        if self.basis is not other.basis and self.basis != other.basis:
            return False
        a, b = self.entries, other.entries
        # a Fraction and a SeriesScalar are never ==, so a mismatch is
        # confirmed by their difference, which is zero when they are equal
        for lab, x in a.items():
            y = b.get(lab, ZERO)
            if x != y and x - y:
                return False
        return not any(y for lab, y in b.items() if lab not in a)

    def __hash__(self) -> int:  # pragma: no cover - vectors are not dict keys
        raise TypeError("FinVec is not hashable")

    def tensor(self, other: "FinVec", product: Basis | None = None) -> "FinVec":
        if product is None:
            product = tensor_basis(self.basis, other.basis)
        items = []
        for la, ca in self.entries.items():
            pa = _label_parts(self.basis, la)
            for lb, cb in other.entries.items():
                items.append((pa + _label_parts(other.basis, lb), ca * cb))
        return FinVec.build(product, items)

    def _check(self, other: "FinVec") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis.name} vs {other.basis.name}")

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({c})*{lab!r}" for lab, c in sorted(
            self.entries.items(), key=lambda kv: str(kv[0])))


@dataclass(frozen=True, eq=False)
class FinMap:
    """Sparse linear map given by its columns on domain basis labels."""

    domain: Basis
    codomain: Basis
    columns: Mapping[Label, FinVec]

    @staticmethod
    def zero(domain: Basis, codomain: Basis) -> "FinMap":
        return FinMap(domain, codomain, {})

    @staticmethod
    def identity(basis: Basis) -> "FinMap":
        return FinMap(basis, basis, {lab: FinVec.unit(basis, lab) for lab in basis.labels})

    @staticmethod
    def from_function(domain: Basis, codomain: Basis,
                      fn: Callable[[Label], FinVec]) -> "FinMap":
        cols: dict[Label, FinVec] = {}
        for lab in domain.labels:
            v = fn(lab)
            if not v.is_zero:
                cols[lab] = v
        return FinMap(domain, codomain, cols)

    def column(self, label: Label) -> FinVec:
        return self.columns.get(label) or FinVec.zero(self.codomain)

    def __call__(self, v: FinVec | Label) -> FinVec:
        if not isinstance(v, FinVec):
            return self.column(v)
        if v.basis is not self.domain and v.basis != self.domain:
            raise ValueError(f"map expects {self.domain.name}, got {v.basis.name}")
        out = FinVec.zero(self.codomain)
        items: list[tuple[Label, Coeff]] = []
        for lab, c in v.entries.items():
            col = self.columns.get(lab)
            if col is None:
                continue
            items.extend((l2, c * c2) for l2, c2 in col.entries.items())
        return FinVec.build(self.codomain, items) if items else out

    def compose(self, inner: "FinMap") -> "FinMap":
        """self o inner."""
        if inner.codomain is not self.domain and inner.codomain != self.domain:
            raise ValueError("composition basis mismatch")
        return FinMap.from_function(inner.domain, self.codomain,
                                    lambda lab: self(inner.column(lab)))

    def __add__(self, other: "FinMap") -> "FinMap":
        if (self.domain is not other.domain and self.domain != other.domain) or (
                self.codomain is not other.codomain and self.codomain != other.codomain):
            raise ValueError("map addition basis mismatch")
        return FinMap.from_function(self.domain, self.codomain,
                                    lambda lab: self.column(lab) + other.column(lab))

    def __sub__(self, other: "FinMap") -> "FinMap":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Coeff) -> "FinMap":
        return FinMap.from_function(self.domain, self.codomain,
                                    lambda lab: self.column(lab).scale(c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinMap):
            return NotImplemented
        if (self.domain is not other.domain and self.domain != other.domain) or (
                self.codomain is not other.codomain and self.codomain != other.codomain):
            return False
        return all(self.column(l) == other.column(l) for l in self.domain.labels)

    def __hash__(self) -> int:  # pragma: no cover
        raise TypeError("FinMap is not hashable")

    @property
    def is_zero(self) -> bool:
        return all(col.is_zero for col in self.columns.values())

    def __repr__(self) -> str:
        return f"FinMap({self.domain.name} -> {self.codomain.name})"


def bilinear(basis: Basis, pair: Callable[[Label, Label], FinVec],
             a: FinVec, b: FinVec) -> FinVec:
    """The product of a and b, extended bilinearly from ``pair``.

    ``pair(la, lb)`` is the product of two basis vectors, in ``basis``; it may
    raise (for example :class:`~rackalg.errors.DegreeCapExceeded`) to refuse
    a pair.
    """
    items: list[tuple[Label, Coeff]] = []
    for la, ca in a.entries.items():
        for lb, cb in b.entries.items():
            v = pair(la, lb)
            if not v.entries:
                continue
            _require_basis(basis, v.basis)
            c = ca * cb
            items.extend((lab, c * cv) for lab, cv in v.entries.items())
    return FinVec.build(basis, items)


def linear_sum(basis: Basis, terms: Iterable[tuple[FinVec, Coeff]]) -> FinVec:
    """sum c v over the (v, c) terms, in ``basis``."""
    items: list[tuple[Label, Coeff]] = []
    for v, c in terms:
        _require_basis(basis, v.basis)
        items.extend((lab, c * cv) for lab, cv in v.entries.items())
    return FinVec.build(basis, items)


def tensor_sum(product: Basis, terms: Iterable[tuple[FinVec, FinVec, Coeff]]) -> FinVec:
    """sum c (x (x) y) over the (x, y, c) terms, in ``product`` = x.basis (x) y.basis."""
    items: list[tuple[Label, Coeff]] = []
    for x, y, c in terms:
        _require_basis(product.factors, _flat_factors(x.basis) + _flat_factors(y.basis))
        for la, ca in x.entries.items():
            pa = _label_parts(x.basis, la)
            items.extend((pa + _label_parts(y.basis, lb), c * ca * cb)
                         for lb, cb in y.entries.items())
    return FinVec.build(product, items)


def _flat_factors(basis: Basis) -> tuple[Basis, ...]:
    return basis.factors or (basis,)


def _require_basis(want: Basis | tuple[Basis, ...], got: Basis | tuple[Basis, ...]) -> None:
    """Refuse a term from another space: labels alone may collide."""
    if got is not want and got != want:
        raise ValueError(f"basis mismatch: expected {want!r}, got {got!r}")


def tensor_product_map(f: FinMap, g: FinMap,
                       domain: Basis | None = None,
                       codomain: Basis | None = None) -> FinMap:
    """(f (x) g) on the flattened product bases."""
    if domain is None:
        domain = tensor_basis(f.domain, g.domain)
    if codomain is None:
        codomain = tensor_basis(f.codomain, g.codomain)
    nf = len(f.domain.factors) if f.domain.factors else 1

    def col(label: Label) -> FinVec:
        assert isinstance(label, tuple)
        la = label[:nf] if f.domain.factors else label[0]
        lb = label[nf:] if g.domain.factors else label[nf]
        va = f.column(la)
        vb = g.column(lb)
        return va.tensor(vb, codomain)

    return FinMap.from_function(domain, codomain, col)


def split_label(basis: Basis, label: Label, parts: int = 2) -> tuple[Label, ...]:
    """Split a label of ``basis`` tensored with itself ``parts`` times.

    Inverse of label flattening: each returned component is a valid label of
    ``basis`` (an atom when the basis has no tensor factors, a flat tuple of
    its factor labels otherwise).
    """
    if basis.factors:
        k = len(basis.factors)
        assert isinstance(label, tuple) and len(label) == parts * k
        return tuple(label[i * k:(i + 1) * k] for i in range(parts))
    assert isinstance(label, tuple) and len(label) == parts
    return tuple(label)


def flip_map(a: Basis, b: Basis) -> FinMap:
    """tau: A (x) B -> B (x) A on flattened labels."""
    dom = tensor_basis(a, b)
    cod = tensor_basis(b, a)
    na = len(a.factors) if a.factors else 1

    def col(label: Label) -> FinVec:
        assert isinstance(label, tuple)
        return FinVec.unit(cod, label[na:] + label[:na])

    return FinMap.from_function(dom, cod, col)


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------


Row = dict[int, Fraction]


def _sub_multiple(row: Row, f: Fraction, other: Row) -> None:
    """row -= f * other, in place, dropping the entries that cancel."""
    for col, val in other.items():
        s = row.get(col, ZERO) - f * val
        if s:
            row[col] = s
        else:
            del row[col]


class _Echelon:
    """Reduced row-echelon form of sparse rows: the one eliminator.

    ``rows`` maps each pivot column, the smallest column of its row, to that
    row, normalized to 1 at the pivot and zero at every other pivot column.
    With ``combos`` each row also keeps its sparse combination of the
    inserted rows, keyed by the tag each was inserted with.
    """

    def __init__(self, rows: Iterable[Row] = (), combos: bool = False) -> None:
        self.rows: dict[int, Row] = {}
        self.combos: dict[int, Row] | None = {} if combos else None
        # rows with the smallest support first: cheap heuristic against fill-in
        for row in sorted(rows, key=len):
            self.insert(row)

    def reduce(self, row: Row) -> tuple[Row, list[tuple[int, Fraction]]]:
        """row minus multiples of the stored rows, and the multiples taken.

        The stored rows vanish on each other's pivots, so subtracting one
        never changes the row at another pivot: one sweep over the pivot
        columns of the row clears them all.
        """
        row = {c: v for c, v in row.items() if v}
        taken = [(j, row[j]) for j in row if j in self.rows]
        for j, f in taken:
            _sub_multiple(row, f, self.rows[j])
        return row, taken

    def insert(self, row: Row, tag: int = 0) -> bool:
        """Reduce, and store the row if it is independent.  True if stored."""
        row, taken = self.reduce(row)
        if not row:
            return False
        j = min(row)
        inv = ONE / row[j]
        row = {c: v * inv for c, v in row.items()}
        combo = None
        if self.combos is not None:
            combo = {tag: ONE}
            for pj, f in taken:
                _sub_multiple(combo, f, self.combos[pj])
            self.combos[j] = combo = {t: v * inv for t, v in combo.items()}
        # back-substitute, so every stored row vanishes on the new pivot
        for pj, prow in self.rows.items():
            f = prow.get(j)
            if f:
                _sub_multiple(prow, f, row)
                if combo is not None:
                    _sub_multiple(self.combos[pj], f, combo)
        self.rows[j] = row
        return True


def nullspace(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Exact basis of the right kernel of the sparse row system.

    One vector per free column f, equal to 1 at f and 0 at the other free
    columns; the basis is the same for every order of the rows.
    """
    pivots = _Echelon(rows).rows
    basis: list[Row] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec: Row = {f: ONE}
        for pj, prow in pivots.items():
            c = prow.get(f)
            if c:
                vec[pj] = -c
        basis.append(vec)
    return basis


def rank_of(rows: Iterable[Row], ncols: int) -> int:
    return len(_Echelon(rows).rows)


def _map_rows(m: FinMap) -> list[Row]:
    """The rows of the matrix of m, over the domain indices."""
    rows: dict[Label, Row] = {}
    for j, lab in enumerate(m.domain.labels):
        col = m.columns.get(lab)
        if col is None:
            continue
        for out_lab, c in col.entries.items():
            if not isinstance(c, Fraction):
                raise TypeError("exact elimination needs Fraction entries")
            rows.setdefault(out_lab, {})[j] = c
    return list(rows.values())


def kernel_basis(m: FinMap) -> list[FinVec]:
    """Exact basis of the kernel of a linear map between finite bases."""
    return [_vector(m.domain, vec) for vec in nullspace(_map_rows(m), m.domain.dim)]


def rank(m: FinMap) -> int:
    return rank_of(_map_rows(m), m.domain.dim)


def _row(basis: Basis, v: FinVec) -> Row:
    return {basis.index(lab): c for lab, c in v.entries.items()}


def _vector(basis: Basis, row: Row) -> FinVec:
    return FinVec(basis, {basis.labels[j]: c for j, c in sorted(row.items())})


class SpanSolver:
    """Echelonized span of a list of vectors with coordinate recovery.

    ``coordinates(v)`` returns the exact coefficients expressing v in the
    generating vectors, or None when v is outside the span.
    """

    def __init__(self, vectors: Sequence[FinVec]) -> None:
        self.basis: Basis | None = vectors[0].basis if vectors else None
        self.generators = list(vectors)
        self._echelon = _Echelon(combos=True)
        for i, v in enumerate(self.generators):
            self._echelon.insert(_row(self.basis, v), i)

    @property
    def dim(self) -> int:
        return len(self._echelon.rows)

    @property
    def vectors(self) -> list[FinVec]:
        """The reduced echelon basis of the span, equal to ``span_basis``."""
        return [_vector(self.basis, self._echelon.rows[j]) for j in self.pivot_indices]

    @property
    def pivot_indices(self) -> list[int]:
        return sorted(self._echelon.rows)

    def contains(self, v: FinVec) -> bool:
        return self.residue(v).is_zero

    def coordinates(self, v: FinVec) -> list[Fraction] | None:
        if self.basis is None:
            return None if not v.is_zero else []
        row, taken = self._echelon.reduce(_row(self.basis, v))
        if row:
            return None
        coords: Row = {}
        for j, f in taken:
            _sub_multiple(coords, -f, self._echelon.combos[j])
        return [coords.get(i, ZERO) for i in range(len(self.generators))]

    def residue(self, v: FinVec) -> FinVec:
        """Canonical representative of v modulo the span.

        The result is supported away from the pivot coordinates and satisfies
        v - residue(v) in span; residue(v).is_zero iff v is in the span.
        """
        if self.basis is None:
            return v
        return _vector(self.basis, self._echelon.reduce(_row(self.basis, v))[0])


def span_basis(vectors: Sequence[FinVec]) -> list[FinVec]:
    """The reduced echelon basis of the span of the given vectors.

    It is the same for every order and every nonzero rescaling of the vectors.
    """
    if not vectors:
        return []
    basis = vectors[0].basis
    rows = _Echelon(_row(basis, v) for v in vectors).rows
    return [_vector(basis, rows[j]) for j in sorted(rows)]


__all__ = [
    "Basis", "Coeff", "FinMap", "FinVec", "Label", "SeriesScalar", "SpanSolver",
    "bilinear", "flip_map", "format_rational", "kernel_basis", "linear_sum", "merge_labels",
    "nullspace", "rank", "rank_of", "rational", "series_exp", "span_basis", "split_label",
    "tensor_basis", "tensor_product_map", "tensor_sum",
]
