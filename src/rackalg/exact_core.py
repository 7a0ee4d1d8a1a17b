"""Exact scalars, sparse vectors over labelled bases, and rational linear algebra.

Coefficients are rationals or :class:`SeriesScalar` (truncated formal power
series in the deformation parameter with rational coefficients).  A rational
is an ``int`` first: structure constants, units, counits and signs are ints,
and ``fractions.Fraction`` appears only where a real denominator does
(elimination pivots, 1/r! weights, inverted series).  :func:`div` is the one
division on scalars; it returns an ``int`` when the quotient is integral and
never a float.  No floating point is used anywhere; every equality test in the
package is exact.

Vectors and maps are sparse and keyed by basis *labels* (arbitrary hashable
values: ints, strings, tuples of labels for tensor factors).  Tensor-product
bases flatten their labels, so ``(A (x) B) (x) C`` and ``A (x) (B (x) C)``
agree on the nose.

Every product is read through one :class:`PairTable` built from its public
field (``mu``, ``action``, ``mul``, ``vdash``/``dashv``, ``bracket``): its
columns keyed by basis-label pairs, held as rows {la: {lb: column}} and as
columns {lb: {la: column}}, validated once (exact coefficients, keys in the
domain, entries in the codomain, nonnegative int degrees and cap).  The table
alone holds the degrees and the cap of a truncated algebra: it says which
degrees fit and refuses the pairs beyond the cap.  A product with
a basis label on one side is read by :func:`times_label` (v . l) and
:func:`label_times` (l . v), and two vectors are multiplied by
:func:`bilinear`; each adds the stored columns inside its own loop, so a term
costs one dict lookup.  Sums are built in one pass, never by repeated copies:
:func:`linear_sum` for sum c v, and :func:`tensor_sum` for a Sweedler-type sum
sum c (x (x) y) that is wanted as a vector (an identity compares such sums as
dicts keyed by label pairs, see :mod:`rackalg.symcoalg`).  Every other sum and
product of vectors is formed in one private in-place accumulator,
``_accumulate``, which drops zeros and keeps integral sums ints; the table
readers inline the same rule.

All elimination goes through one private kernel, ``_Echelon``: sparse rows in
reduced row-echelon form, each keyed by its pivot, the smallest column of the
row, normalized to 1 there, and zero at every other pivot; it has one mode.
:func:`nullspace`, :func:`rank_of`, :func:`kernel_basis`, :func:`rank`,
:func:`span_basis` and :class:`SpanSolver` (membership, no coordinates) read
from it.  With one pivot rule the reduced form of a span is unique, so every
basis they return is the same for every order (and, for spans, every nonzero
rescaling) of their input.  A kernel is never eliminated twice: each of its
vectors is 1 at its largest column and 0 at the others' largest columns, so
``_kernel_coordinates`` reads coordinates off those columns.  The rational
eigenvalues of a square matrix (``_rational_eigenvalues``) are read off its
characteristic polynomial in integer arithmetic, with no elimination.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, Union

from rackalg.errors import DegreeCapExceeded, SchemaError

Label = Hashable
Rational = Union[int, Fraction]
Coeff = Union[int, Fraction, "SeriesScalar"]

ZERO = 0
ONE = 1


def _integral(q: Rational) -> Rational:
    return q.numerator if q.denominator == 1 else q


def div(a: Rational, b: Rational) -> Rational:
    """a / b, exactly: an int when the quotient is integral, else a Fraction."""
    return _integral(Fraction(a) / b)


def rational(text: str | Rational) -> Rational:
    """Parse a rational from an int, a Fraction or a "p/q" string; an int if integral."""
    if isinstance(text, str):
        text = Fraction(text.strip())
    elif not isinstance(text, (int, Fraction)):
        raise TypeError(f"not an exact rational: {text!r}")
    return _integral(text)


def format_rational(q: Rational) -> str:
    """Serialize a rational as "p" or "p/q" (lowest terms, positive denominator)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


def _coerce_coeffs(values: Iterable[Rational | str], order: int) -> tuple[Rational, ...]:
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
    an int or a Fraction coerces the scalar into degree zero.
    """

    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs truncation order >= 1")

    @staticmethod
    def make(values: Iterable[Rational | str], order: int) -> "SeriesScalar":
        return SeriesScalar(_coerce_coeffs(values, order))

    @staticmethod
    def constant(value: Rational, order: int) -> "SeriesScalar":
        return SeriesScalar.make([value], order)

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
        return SeriesScalar(tuple(s.numerator if type(s) is Fraction and s.denominator == 1 else s
                                  for s in map(operator.add, self.coeffs, o.coeffs)))

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
        if isinstance(other, (int, Fraction)):
            # A scalar scales each coefficient; no lift to a series and no
            # O(n^2) product.  As in the product, zeros stay the int 0 and an
            # integral coefficient is an int.
            a = rational(other)
            return SeriesScalar(tuple(_integral(a * c) if a and c else ZERO for c in self.coeffs))
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
        return SeriesScalar(tuple(map(_integral, out)))

    __rmul__ = __mul__

    def inverse(self) -> "SeriesScalar":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        n = self.order
        inv = [div(ONE, c0)] + [ZERO] * (n - 1)
        # recursively solve (sum_i a_i h^i)(sum_j b_j h^j) = 1
        for m in range(1, n):
            acc = ZERO
            for i in range(1, m + 1):
                acc += self.coeffs[i] * inv[m - i]
            inv[m] = div(-acc, c0)
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


def scalar_eq(x: Coeff, y: Coeff) -> bool:
    """x == y for exact scalars of any kind.

    A rational and a :class:`SeriesScalar` are never ``==``, so a mismatch
    is confirmed by their difference, which is zero when they are equal.
    Every scalar comparison of a certifier goes through here, directly or
    through :class:`FinVec` equality.
    """
    return x == y or not (x - y)


def same_entries(a: Mapping[Label, Coeff], b: Mapping[Label, Coeff]) -> bool:
    """Two coefficient dicts agree label by label (a missing label reads as 0),
    by :func:`scalar_eq`."""
    if a == b:
        return True
    for lab, x in a.items():
        if not scalar_eq(x, b.get(lab, ZERO)):
            return False
    return not any(y for lab, y in b.items() if lab not in a)


def series_exp(s: SeriesScalar) -> SeriesScalar:
    """exp of a series with zero constant term, truncated at its order."""
    if s.coeffs[0]:
        raise ValueError("series_exp needs zero constant term to stay rational")
    result = SeriesScalar.one(s.order)
    term = SeriesScalar.one(s.order)
    for r in range(1, s.order):
        term = term * s * div(ONE, r)
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
    if any(b.factors for b in bases):
        parts = [[_label_parts(b, lab) for lab in b.labels] for b in bases]
        labels = tuple(tuple(itertools.chain.from_iterable(combo))
                       for combo in itertools.product(*parts))
    else:
        labels = tuple(itertools.product(*(b.labels for b in bases)))
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
        _accumulate(acc, ONE, items)
        return FinVec(basis, acc)

    def __iter__(self) -> Iterator[tuple[Label, Coeff]]:
        return iter(self.entries.items())

    def __getitem__(self, label: Label) -> Coeff:
        return self.entries.get(label, ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "FinVec") -> "FinVec":
        if other.basis is not self.basis:
            self._check(other)
        acc = dict(self.entries)
        _accumulate(acc, ONE, other.entries.items())
        return FinVec(self.basis, acc)

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-other)

    def __neg__(self) -> "FinVec":
        return FinVec(self.basis, {lab: -c for lab, c in self.entries.items()})

    def scale(self, c: Coeff) -> "FinVec":
        return linear_sum(self.basis, ((self, c),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinVec):
            return NotImplemented
        if self.basis is not other.basis and self.basis != other.basis:
            return False
        return same_entries(self.entries, other.entries)

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

    @staticmethod
    def from_pairs(left: Basis, right: Basis, domain: Basis, codomain: Basis,
                   col: Callable[[Label, Label], Mapping[Label, Coeff]]) -> "FinMap":
        """The map on ``domain`` = left (x) right whose column at the merged
        label of (la, lb) is the coefficient dict ``col(la, lb)``, filled row
        by row."""
        pairs = zip(itertools.product(left.labels, right.labels), domain.labels)
        return FinMap(domain, codomain, {key: FinVec(codomain, e) for (la, lb), key in pairs
                                         if (e := col(la, lb))})

    def column(self, label: Label) -> FinVec:
        return self.columns.get(label) or FinVec.zero(self.codomain)

    def __call__(self, v: FinVec | Label) -> FinVec:
        if not isinstance(v, FinVec):
            return self.column(v)
        if v.basis is not self.domain and v.basis != self.domain:
            raise ValueError(f"map expects {self.domain.name}, got {v.basis.name}")
        acc: dict[Label, Coeff] = {}
        for lab, c in v.entries.items():
            col = self.columns.get(lab)
            if col is not None:
                _accumulate(acc, c, col.entries.items())
        return FinVec(self.codomain, acc)

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
        return self + other.scale(-1)

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


_NO_ENTRIES: Mapping[Label, Coeff] = MappingProxyType({})


@dataclass(frozen=True, eq=False)
class PairTable:
    """A bilinear product on basis labels: the one form every product is read in.

    ``rows[la][lb]`` and ``cols[lb][la]`` are the same coefficient dict, the
    product of la and lb in ``basis``; an absent pair multiplies to zero.
    With a ``cap``, a pair whose ``degrees`` (sparse, default 0) sum beyond it
    is refused with :class:`DegreeCapExceeded`, stored or not.  Every capped
    check of the package asks the table which degrees fit.
    """

    basis: Basis
    rows: Mapping[Label, Mapping[Label, Mapping[Label, Coeff]]]
    cols: Mapping[Label, Mapping[Label, Mapping[Label, Coeff]]]
    degrees: Mapping[Label, int] = field(default_factory=dict)
    cap: int | None = None
    context: str = "product"

    @staticmethod
    def build(basis: Basis, columns: Iterable[tuple[Label, Label, FinVec]],
              left: Basis | None = None, right: Basis | None = None,
              degrees: Mapping[Label, int] = MappingProxyType({}), cap: int | None = None,
              context: str = "product") -> "PairTable":
        """The table of the (la, lb, la lb) columns, each entry checked once: a
        column from another space raises ValueError; an inexact coefficient, an
        entry outside ``basis``, a key outside ``left`` x ``right``, a degree of
        a label outside ``basis`` or a degree or cap that is not a nonnegative
        int SchemaError."""
        if cap is not None:
            _require_degree(cap, "degree cap")
        for lab, dg in degrees.items():
            if lab not in basis._index:
                raise SchemaError(f"degree assigned to unknown label {lab!r}")
            _require_degree(dg, f"degree of {lab!r}")
        rows: dict[Label, dict[Label, Mapping[Label, Coeff]]] = {}
        cols: dict[Label, dict[Label, Mapping[Label, Coeff]]] = {}
        for la, lb, v in columns:
            if left is not None and (la not in left._index or lb not in right._index):
                raise SchemaError(f"key {(la, lb)!r} is not in {left.name} x {right.name}")
            if v.basis is not basis:
                _require_basis(basis, v.basis)
            for lab, c in v.entries.items():
                if type(c) is not int and not isinstance(c, (Fraction, SeriesScalar)):
                    raise SchemaError(f"coefficient {c!r} at {(la, lb)!r} is not exact")
                if lab not in basis._index:
                    raise SchemaError(f"entry {lab!r} at {(la, lb)!r} is not in {basis.name}")
            if v.entries:
                rows.setdefault(la, {})[lb] = cols.setdefault(lb, {})[la] = v.entries
        return PairTable(basis, rows, cols, degrees, cap, context)

    @staticmethod
    def from_map(fmap: FinMap, left: Basis, right: Basis, **kwargs: Any) -> "PairTable":
        """The table of a map on ``left (x) right``, whose column at the merged
        label of (la, lb) is the product of la and lb."""
        dom, cols = fmap.domain, fmap.columns
        if dom.factors != _flat_factors(left) + _flat_factors(right) or \
                dom.dim != left.dim * right.dim or not dom._index.keys() >= cols.keys():
            raise SchemaError(f"columns of {dom.name} are not keyed by "
                              f"{left.name} (x) {right.name}")
        # tensor_basis lists the merged labels in the order of the label pairs
        pairs = zip(itertools.product(left.labels, right.labels), dom.labels)
        return PairTable.build(fmap.codomain, ((la, lb, cols[key]) for (la, lb), key in pairs
                                              if key in cols), **kwargs)

    def degree(self, label: Label) -> int:
        """The filtration degree of a basis label."""
        return self.degrees.get(label, 0)

    def fits(self, degree: int) -> bool:
        """Whether an element of this degree lies under the cap."""
        return self.cap is None or degree <= self.cap

    def entry(self, la: Label, lb: Label) -> Mapping[Label, Coeff]:
        """The product of two basis labels as a coefficient dict."""
        if self.cap is not None:
            _refuse(self, la, (lb,))
        return self.rows.get(la, _NO_ENTRIES).get(lb, _NO_ENTRIES)

    def vector(self, la: Label, lb: Label) -> FinVec:
        return FinVec(self.basis, self.entry(la, lb))

    def opposite(self) -> "PairTable":
        """The product lb la: rows and columns swapped."""
        return PairTable(self.basis, self.cols, self.rows, self.degrees, self.cap, self.context)


def _refuse(t: PairTable, label: Label, v: Iterable[Label]) -> None:
    """Raise as reading label with each l of ``v``, on either side, does."""
    d = t.degrees.get(label, 0)
    for lab in v:
        if d + t.degrees.get(lab, 0) > t.cap:
            raise DegreeCapExceeded(d + t.degrees.get(lab, 0), t.cap, t.context)


def bilinear(t: PairTable, a: FinVec, b: FinVec) -> FinVec:
    """The product of a and b, extended bilinearly from the table ``t``."""
    acc: dict[Label, Coeff] = {}
    for la, ca in a.entries.items():
        _read(t, t.rows, la, b.entries, acc, ca)
    return FinVec(t.basis, acc)


def times_label(t: PairTable, v: Mapping[Label, Coeff], label: Label,
                acc: dict[Label, Coeff] | None = None, c: Coeff = ONE) -> dict[Label, Coeff]:
    """v . label = sum_l v_l (l . label) for coefficients ``v``, read from the
    column of ``label``; added c times into ``acc`` (a new dict by default)."""
    return _read(t, t.cols, label, v, {} if acc is None else acc, c)


def label_times(t: PairTable, label: Label, v: Mapping[Label, Coeff],
                acc: dict[Label, Coeff] | None = None, c: Coeff = ONE) -> dict[Label, Coeff]:
    """label . v = sum_m v_m (label . m), read from the row of ``label``; the
    mirror of :func:`times_label`."""
    return _read(t, t.rows, label, v, {} if acc is None else acc, c)


def _read(t: PairTable, lines: Mapping[Label, Mapping[Label, Mapping[Label, Coeff]]],
          label: Label, v: Mapping[Label, Coeff], acc: dict[Label, Coeff],
          c: Coeff) -> dict[Label, Coeff]:
    """acc += c sum_l v_l lines[label][l]: the innermost loop of every
    certifier, with the rule of ``_accumulate`` written inline."""
    if t.cap is not None:
        _refuse(t, label, v)
    line = lines.get(label)
    if not line:
        return acc
    one = type(c) is int and c == 1
    for lab, cv in v.items():
        col = line.get(lab)
        if col is None:
            continue
        w = cv if one else c * cv
        unit = type(w) is int and w == 1
        for l, x in col.items():
            term = x if unit else w * x
            if not term:
                continue
            prev = acc.get(l)
            s = term if prev is None else prev + term
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                acc[l] = s
            elif prev is not None:
                del acc[l]
    return acc


def linear_sum(basis: Basis, terms: Iterable[tuple[FinVec, Coeff]]) -> FinVec:
    """sum c v over the (v, c) terms, in ``basis``."""
    acc: dict[Label, Coeff] = {}
    for v, c in terms:
        if v.basis is not basis:
            _require_basis(basis, v.basis)
        _accumulate(acc, c, v.entries.items())
    return FinVec(basis, acc)


def _accumulate(acc: dict[Label, Coeff], c: Coeff, items: Iterable[tuple[Label, Coeff]]) -> None:
    """acc += c * items, in place: the one place where sums and products of
    vectors are formed.  Zero terms and zero sums are dropped, an integral
    Fraction is stored as an int, and c = 1 (an int) is not multiplied."""
    one = type(c) is int and c == 1
    for lab, v in items:
        t = v if one else c * v
        if not t:
            continue
        prev = acc.get(lab)
        s = t if prev is None else prev + t
        if type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            acc[lab] = s
        elif prev is not None:
            del acc[lab]


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


def _require_degree(degree: Any, what: str = "truncation degree") -> None:
    """A truncation degree or cap is a nonnegative int (a bool is not)."""
    if type(degree) is not int or degree < 0:
        raise SchemaError(f"{what} must be a nonnegative integer, got {degree!r}")


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


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------


Row = dict[int, Rational]


def _sub_multiple(row: Row, f: Rational, other: Row) -> None:
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
    """

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        self.rows: dict[int, Row] = {}
        # rows with the smallest support first: cheap heuristic against fill-in
        for row in sorted(rows, key=len):
            self.insert(row)

    def reduce(self, row: Row) -> Row:
        """row minus multiples of the stored rows, zero at every pivot.

        The stored rows vanish on each other's pivots, so subtracting one
        never changes the row at another pivot: one sweep over the pivot
        columns of the row clears them all.
        """
        row = {c: v for c, v in row.items() if v}
        for j, f in [(j, row[j]) for j in row if j in self.rows]:
            _sub_multiple(row, f, self.rows[j])
        return row

    def insert(self, row: Row) -> bool:
        """Reduce, and store the row if it is independent.  True if stored."""
        row = self.reduce(row)
        if not row:
            return False
        j = min(row)
        p = row[j]
        if p != ONE:
            row = {c: div(v, p) for c, v in row.items()}
        # back-substitute, so every stored row vanishes on the new pivot
        for prow in self.rows.values():
            f = prow.get(j)
            if f:
                _sub_multiple(prow, f, row)
        self.rows[j] = row
        return True


def nullspace(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Exact basis of the right kernel of the sparse row system.

    One vector per free column f, equal to 1 at f and 0 at the other free
    columns; the basis is the same for every order of the rows.  Its other
    entries sit at pivots, each smaller than f, so f is its largest column.
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


def _horner(p: Sequence[int], x: int) -> int:
    """The polynomial with coefficients ``p``, highest degree first, at x."""
    y = 0
    for c in p:
        y = y * x + c
    return y


def _integer_roots(p: list[int]) -> list[int]:
    """The integer roots of a monic integer polynomial, highest degree first.

    No half-integer is a root, so the Sturm sequence of p counts its distinct
    real roots between two half-integers exactly.  Bisecting from the Cauchy
    bound down to intervals holding one integer k each, and keeping k when
    p(k) = 0, takes O(deg p * log(bound)) counts; no float is used and
    nothing is factored.  Each member of the sequence is kept as a primitive
    integer polynomial q of degree d (a positive multiple: the signs are
    kept), and its sign at k + 1/2 is that of 2^d q((2k + 1) / 2), an integer.
    """
    n = len(p) - 1
    chain = [p, [(n - i) * c for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        r, lead = list(chain[-2]), chain[-1]
        while len(r) >= len(lead):
            f = div(r[0], lead[0])
            for i, c in enumerate(lead):
                r[i] -= f * c
            r.pop(0)
        while r and not r[0]:
            r.pop(0)
        if not r:
            break
        den = math.lcm(*(c.denominator for c in r))
        r = [int(c * den) for c in r]
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    doubled = [[c << i for i, c in enumerate(q)] for q in chain]

    def changes(k: int) -> int:
        """Sign changes along the sequence at k + 1/2."""
        signs = [y > 0 for q in doubled if (y := _horner(q, 2 * k + 1))]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    roots = []
    bound = 1 + max(map(abs, p))
    # (lo, hi, changes at lo - 1/2, changes at hi + 1/2) over integer intervals
    todo = [(-bound, bound, changes(-bound - 1), changes(bound))]
    while todo:
        lo, hi, at_lo, at_hi = todo.pop()
        if at_lo == at_hi:
            continue
        if lo == hi:
            if not _horner(p, lo):
                roots.append(lo)
            continue
        mid = (lo + hi) // 2
        at_mid = changes(mid)
        todo += [(lo, mid, at_lo, at_mid), (mid + 1, hi, at_mid, at_hi)]
    return sorted(roots)


def _rational_eigenvalues(rows: Mapping[int, Row], n: int) -> list[Rational]:
    """The rational eigenvalues of the n x n matrix A with sparse ``rows``
    (or columns: A and its transpose have the same eigenvalues).

    With D the least common denominator of the entries, DA is an integer
    matrix, and its characteristic polynomial is monic with integer
    coefficients, here by Faddeev-LeVerrier (M_1 = I, c_k = -tr(DA M_k) / k,
    an exact division, and M_(k+1) = DA M_k + c_k I).  A rational root of a
    monic integer polynomial is an integer, so the eigenvalues are r / D for
    the integer roots r of that polynomial (:func:`_integer_roots`).
    """
    scale = math.lcm(1, *(v.denominator for row in rows.values() for v in row.values()))
    a = [(i, [(j, int(v * scale)) for j, v in row.items()]) for i, row in rows.items()]
    p = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[0] * n for _ in range(n)]
        for i, row in a:
            out = am[i]
            for j, v in row:
                mj = m[j]
                for col in range(n):
                    out[col] += v * mj[col]
        p.append(-sum(am[i][i] for i in range(n)) // k)
        m = am
        for i in range(n):
            m[i][i] += p[-1]
    return [div(r, scale) for r in _integer_roots(p)]


def _kernel_coordinates(kernel: Sequence[Row], row: Row) -> list[Rational] | None:
    """The coordinates of ``row`` in a :func:`nullspace` basis, None outside its
    span: the row's entries at the vectors' largest columns, if they rebuild it."""
    coords = [row.get(max(vec), ZERO) for vec in kernel]
    rebuilt: Row = {}
    for vec, c in zip(kernel, coords):
        if c:
            _accumulate(rebuilt, c, vec.items())
    return coords if same_entries(rebuilt, row) else None


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
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact elimination needs int or Fraction entries, got {c!r}")
            rows.setdefault(out_lab, {})[j] = c
    return list(rows.values())


def kernel_basis(m: FinMap) -> list[FinVec]:
    """Exact basis of the kernel of a linear map between finite bases: each
    vector is 1 at its last label in basis order, 0 at the others' last labels."""
    return [_vector(m.domain, vec) for vec in nullspace(_map_rows(m), m.domain.dim)]


def rank(m: FinMap) -> int:
    return rank_of(_map_rows(m), m.domain.dim)


def _row(basis: Basis, v: FinVec) -> Row:
    return {basis.index(lab): c for lab, c in v.entries.items()}


def _vector(basis: Basis, row: Row) -> FinVec:
    return FinVec(basis, {basis.labels[j]: c for j, c in sorted(row.items())})


class SpanSolver:
    """Echelonized span of a list of vectors, for membership and residues; no
    coordinates (a solved kernel basis gives those, see ``_kernel_coordinates``)."""

    def __init__(self, vectors: Sequence[FinVec]) -> None:
        self.basis: Basis | None = vectors[0].basis if vectors else None
        self._echelon = _Echelon(_row(self.basis, v) for v in vectors)

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

    def residue(self, v: FinVec) -> FinVec:
        """Canonical representative of v modulo the span.

        The result is supported away from the pivot coordinates and satisfies
        v - residue(v) in span; residue(v).is_zero iff v is in the span.
        """
        if self.basis is None:
            return v
        return _vector(self.basis, self._echelon.reduce(_row(self.basis, v)))


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
    "Basis", "Coeff", "FinMap", "FinVec", "Label", "PairTable", "Rational", "SeriesScalar",
    "SpanSolver",
    "bilinear", "div", "format_rational", "kernel_basis", "label_times",
    "linear_sum", "merge_labels", "nullspace", "rank", "rank_of", "rational", "same_entries",
    "scalar_eq", "series_exp", "span_basis",
    "split_label", "tensor_basis", "tensor_sum", "times_label",
]
