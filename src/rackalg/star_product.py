"""Deformation of the evaluation product on polynomial functions of a dual space.

A finite dimensional Leibniz algebra h with basis e_1 .. e_n has coordinate
functions alpha_1 .. alpha_n on its dual; polynomials in them form Pol(h*).
The undeformed product here is evaluation at the origin, (f, g) -> f(0) g,
and the deformation direction is the family of degree-preserving vector
fields

    ad~_i(f) = sum_j hat([e_i, e_j]) df/dalpha_j,      hat(x) = sum_i x_i alpha_i,

which extend the left adjoint maps ad_{e_i} from linear coordinates to all of
Pol(h*).  The deformed product is the bidifferential series

    (f |> g) = sum_r (hbar^r / r!) sum_{i_1 .. i_r}
               (d^r f / dalpha_{i_1} .. dalpha_{i_r})(0)
               (ad~_{i_1} o ... o ad~_{i_r})(g).

All coefficients are truncated rational series in hbar (``SeriesScalar`` of a
fixed order N), so equality of the results is exact modulo hbar^N.  Because
every ad~_i preserves polynomial degree and the r-jet of f enters with weight
hbar^r, cutting exponentials at polynomial degree N - 1 and dropping r >= N
loses nothing: on exponentials the product obeys

    exp(hat x) |> exp(hat y) = exp(hat(x |>_hbar y)),
    x |>_hbar y = exp(hbar ad_x)(y),

and the right side inherits self-distributivity from the vector level, where
exp(hbar ad_x) is a bracket automorphism by the left Leibniz identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from rackalg.env_hopf import derivation_action
from rackalg.errors import AxiomViolation, DecompositionFailure, SchemaError
from rackalg.exact_core import (
    Coeff,
    FinVec,
    Label,
    Rational,
    SeriesScalar,
    _accumulate,
    div,
    rational,
)
from rackalg.leibniz import LeibnizAlgebra
from rackalg.rack_bialg import CheckReport, uar_infinity

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class PolyFunction:
    """Sparse polynomial in alpha_1 .. alpha_nvars with truncated-series coefficients.

    Terms map full exponent tuples (position p is the p-th basis label of the
    algebra the polynomial lives over) to nonzero ``SeriesScalar`` values of a
    shared hbar order.  Zero terms are never stored, so dataclass equality is
    exact equality of polynomials modulo hbar^order.
    """

    nvars: int
    order: int
    terms: Mapping[Exponents, SeriesScalar]

    def __post_init__(self) -> None:
        for m, c in self.terms.items():
            if len(m) != self.nvars or any(e < 0 for e in m):
                raise SchemaError(f"exponent tuple {m!r} does not fit {self.nvars} variables")
            if not isinstance(c, SeriesScalar) or c.order != self.order:
                raise SchemaError(f"coefficient of {m!r} is not a series of order {self.order}")

    @staticmethod
    def _trusted(nvars: int, order: int, terms: dict[Exponents, SeriesScalar]) -> "PolyFunction":
        """Wrap terms built in this module from valid ones, without re-validation.

        Only for results of the module's own operations: every exponent tuple
        already fits ``nvars`` and every coefficient is a nonzero series of
        ``order``.  Outside input goes through the public constructor or
        ``build``, which validate.
        """
        p = object.__new__(PolyFunction)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "order", order)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero(nvars: int, order: int) -> "PolyFunction":
        return PolyFunction(nvars, order, {})

    @staticmethod
    def build(nvars: int, order: int,
              items: Iterable[tuple[Exponents, Coeff]] | Mapping[Exponents, Coeff],
              ) -> "PolyFunction":
        if isinstance(items, Mapping):
            items = items.items()
        acc: dict[Exponents, SeriesScalar] = {}
        _accumulate(acc, 1, ((tuple(m), c if isinstance(c, SeriesScalar)
                                else SeriesScalar.constant(c, order)) for m, c in items))
        return PolyFunction(nvars, order, acc)

    @staticmethod
    def linear_sum(nvars: int, order: int,
                   terms: Iterable[tuple["PolyFunction", Coeff]]) -> "PolyFunction":
        """sum w p over the (p, w) terms, built in one pass."""
        return PolyFunction.build(nvars, order, ((m, v * w) for p, w in terms
                                                 for m, v in p.terms.items()))

    @staticmethod
    def constant(value: Coeff, nvars: int, order: int) -> "PolyFunction":
        return PolyFunction.build(nvars, order, [((0,) * nvars, value)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def _check(self, other: "PolyFunction") -> None:
        if self.nvars != other.nvars:
            raise SchemaError("polynomials live on different spaces")
        if self.order != other.order:
            raise SchemaError("polynomials use different hbar truncation orders")

    def __add__(self, other: "PolyFunction") -> "PolyFunction":
        self._check(other)
        acc = dict(self.terms)
        _accumulate(acc, 1, other.terms.items())
        return PolyFunction._trusted(self.nvars, self.order, acc)

    def __neg__(self) -> "PolyFunction":
        return PolyFunction._trusted(self.nvars, self.order,
                                     {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "PolyFunction") -> "PolyFunction":
        return self + (-other)

    def scale(self, c: Coeff) -> "PolyFunction":
        # hbar-multiples can annihilate top coefficients, so prune again.
        return PolyFunction.build(self.nvars, self.order,
                                  ((m, v * c) for m, v in self.terms.items()))

    def __mul__(self, other: "PolyFunction") -> "PolyFunction":
        self._check(other)
        acc: dict[Exponents, SeriesScalar] = {}
        for ma, ca in self.terms.items():
            _accumulate(acc, ca, ((tuple(a + b for a, b in zip(ma, mb)), cb)
                                  for mb, cb in other.terms.items()))
        return PolyFunction._trusted(self.nvars, self.order, acc)

    def partial(self, pos: int) -> "PolyFunction":
        """Derivative with respect to the coordinate at 0-based position ``pos``."""
        acc: dict[Exponents, SeriesScalar] = {}
        for m, c in self.terms.items():
            e = m[pos]
            if e:
                acc[m[:pos] + (e - 1,) + m[pos + 1:]] = c * e
        return PolyFunction._trusted(self.nvars, self.order, acc)

    def at_zero(self) -> SeriesScalar:
        return self.terms.get((0,) * self.nvars, SeriesScalar.zero(self.order))

    def truncate(self, degree: int) -> "PolyFunction":
        return PolyFunction._trusted(self.nvars, self.order,
                                     {m: c for m, c in self.terms.items() if sum(m) <= degree})

    def __repr__(self) -> str:
        if not self.terms:
            return "PolyFunction(0)"
        parts = []
        for m in sorted(self.terms):
            mono = "*".join(f"a{p + 1}^{e}" if e > 1 else f"a{p + 1}"
                            for p, e in enumerate(m) if e) or "1"
            parts.append(f"({self.terms[m]!r})*{mono}")
        return " + ".join(parts)


@dataclass(frozen=True)
class ExpFunction:
    """The exponential function e^{hat(vector)}, closed under the operations here.

    Pointwise products add exponent vectors, and the deformed product of two
    exponentials is again an exponential with exponent x |>_hbar y, so both
    stay representable without expanding; ``expand`` produces the polynomial
    truncation when a ``PolyFunction`` is needed.
    """

    vector: FinVec
    order: int

    def _check(self, other: "ExpFunction") -> None:
        if self.vector.basis != other.vector.basis:
            raise SchemaError("exponential functions live on different spaces")
        if self.order != other.order:
            raise SchemaError("exponential functions use different hbar truncation orders")

    def __mul__(self, other: "ExpFunction") -> "ExpFunction":
        self._check(other)
        return ExpFunction(self.vector + other.vector, self.order)

    def expand(self, h: LeibnizAlgebra, degree: int | None = None) -> PolyFunction:
        return exp_hat(h, self.vector, self.order,
                       self.order - 1 if degree is None else degree)


def rack_exp(h: LeibnizAlgebra, a: ExpFunction, b: ExpFunction) -> ExpFunction:
    """The deformed product of exponentials as an exponential: exponent a |>_hbar b."""
    a._check(b)
    return ExpFunction(lie_rack_product(h, a.vector, b.vector, a.order), a.order)


def hat_function(h: LeibnizAlgebra, x: FinVec, order: int) -> PolyFunction:
    """The linear coordinate hat(x) = sum_i x_i alpha_i of a vector x in h."""
    if x.basis != h.basis:
        raise SchemaError("vector does not live in the given algebra")
    items = []
    for lab, c in x.entries.items():
        m = [0] * h.dim
        m[h.basis.index(lab)] = 1
        items.append((tuple(m), c))
    return PolyFunction.build(h.dim, order, items)


def monomial_function(h: LeibnizAlgebra, mono: tuple[Label, ...], order: int) -> PolyFunction:
    """Product of coordinate functions over the letters of a monomial label."""
    m = [0] * h.dim
    for letter in mono:
        m[h.basis.index(letter)] += 1
    return PolyFunction.build(h.dim, order, [(tuple(m), 1)])


def psi_function(h: LeibnizAlgebra, a: FinVec, order: int) -> PolyFunction:
    """Symmetric-algebra elements as functions: x_1 ... x_k -> hat(x_1) ... hat(x_k)."""
    return PolyFunction.linear_sum(h.dim, order, ((monomial_function(h, mono, order), c)
                                                  for mono, c in a.entries.items()))


def exp_hat(h: LeibnizAlgebra, x: FinVec, order: int, degree: int) -> PolyFunction:
    """exp(hat(x)) cut at polynomial degree ``degree``, in closed form.

    exp(hat x) = prod_p exp(x_p alpha_p), so the multinomial expansion gives
    the coefficient of alpha^m as

        prod_p x_p^(m_p) / m_p!        for |m| <= degree.

    The coordinates x_p are rationals or series of the same ``order`` (such
    as the output of ``lie_rack_product``); a power that vanishes modulo
    hbar^order ends its variable's expansion.  Degree N - 1 is lossless
    modulo hbar^N against the deformed product: the dropped jets of the left
    factor carry hbar^N, and the right factor is only ever hit by
    degree-preserving operators.
    """
    if x.basis != h.basis:
        raise SchemaError("vector does not live in the given algebra")
    terms: dict[Exponents, Coeff] = {(0,) * h.dim: 1}
    for lab, c in x.entries.items():
        if not isinstance(c, SeriesScalar):
            c = rational(c)
        elif c.order != order:
            raise SchemaError(f"coordinate {lab!r} is not a series of order {order}")
        powers: list[Coeff] = [1]  # x_p^e / e!
        for e in range(1, degree + 1):
            power = powers[-1] * c * div(1, e)
            if not power:
                break
            powers.append(power)
        p = h.basis.index(lab)
        grown: dict[Exponents, Coeff] = {}
        for m, v in terms.items():
            for e, w in enumerate(powers[:max(degree - sum(m), 0) + 1]):
                vw = v * w
                if vw:
                    grown[m[:p] + (e,) + m[p + 1:]] = vw
        terms = grown
    pad = (0,) * (order - 1)
    return PolyFunction._trusted(h.dim, order, {
        m: v if isinstance(v, SeriesScalar) else SeriesScalar((rational(v),) + pad)
        for m, v in terms.items()})


Row = list[Rational]


def _add_row(rows: dict[Exponents, Row], m: Exponents, coeffs: Sequence[Rational],
             w: Rational, shift: int = 0) -> None:
    """rows[m] += w hbar^shift coeffs, coefficient by coefficient, cut at the order."""
    row = rows.get(m)
    if row is None:
        rows[m] = [0] * shift + [w * c if c else 0 for c in coeffs[:len(coeffs) - shift]]
        return
    for t in range(len(coeffs) - shift):
        c = coeffs[t]
        if c:
            row[t + shift] += w * c


def _poly(nvars: int, order: int, rows: Mapping[Exponents, Row]) -> PolyFunction:
    """The polynomial of accumulated coefficient rows; rows that cancelled are
    dropped, and an integral coefficient is stored as an int."""
    return PolyFunction._trusted(nvars, order, {m: SeriesScalar(tuple(map(rational, r)))
                                                for m, r in rows.items() if any(r)})


def ad_tilde(h: LeibnizAlgebra, i: Label, f: PolyFunction) -> PolyFunction:
    """The vector field sum_j hat([e_i, e_j]) d/dalpha_j applied to f.

    This is the unique degree-preserving derivation with
    ad~_i(hat(y)) = hat([e_i, y]).  Its coefficients are constant, so with
    [e_i, e_j] = sum_k c_ij^k e_k it acts on monomials through the
    structure constants alone:

        ad~_i(alpha^m) = sum_j m_j sum_k c_ij^k alpha^(m - e_j + e_k).

    The row of the bracket table at i is read once per call; every series
    coefficient of f is only scaled by the rational m_j c_ij^k.
    """
    if f.nvars != h.dim:
        raise SchemaError("polynomial does not live on the dual of the algebra")
    index = h.basis.index
    line = h.table.rows.get(i, {})
    row = [(index(j), [(index(k), c) for k, c in line[j].items()])
           for j in h.basis.labels if j in line]
    rows: dict[Exponents, Row] = {}
    for m, s in f.terms.items():
        for pj, column in row:
            e = m[pj]
            if not e:
                continue
            lowered = m[:pj] + (e - 1,) + m[pj + 1:]
            for pk, c in column:
                _add_row(rows, lowered[:pk] + (lowered[pk] + 1,) + lowered[pk + 1:],
                         s.coeffs, e * c)
    return _poly(f.nvars, f.order, rows)


def star(h: LeibnizAlgebra, f: PolyFunction, g: PolyFunction) -> PolyFunction:
    """Deformed product f |> g of polynomial functions on h*.

    The jet sum stops at deg f, and r >= order contributes nothing since it
    carries hbar^r.  For an exponent tuple m, S(m) is the sum of the ad~
    chains into g over the distinct orderings of the letters of m.  Every
    ordering starts with one letter p followed by an ordering of m - e_p, so

        S(0) = g,    S(m) = sum_{p: m_p > 0} ad~_p(S(m - e_p)),

    memoized over sub-multisets: ad~ runs once per (sub-multiset, letter)
    pair, polynomially many in the jet degree.  Each S(m) and the jet sum are
    accumulated as coefficient rows, and the hbar^r weight of a jet is a
    shift of those rows.
    """
    if f.nvars != h.dim or g.nvars != h.dim:
        raise SchemaError("polynomials do not live on the dual of the algebra")
    f._check(g)
    order = f.order
    chains: dict[Exponents, PolyFunction] = {(0,) * h.dim: g}

    def chain(m: Exponents) -> PolyFunction:
        got = chains.get(m)
        if got is None:
            rows: dict[Exponents, Row] = {}
            for p, e in enumerate(m):
                if e:
                    sub = chain(m[:p] + (e - 1,) + m[p + 1:])
                    for mm, s in ad_tilde(h, h.basis.labels[p], sub).terms.items():
                        _add_row(rows, mm, s.coeffs, 1)
            got = chains[m] = _poly(h.dim, order, rows)
        return got

    rows: dict[Exponents, Row] = {}
    for m, c in f.terms.items():
        r = sum(m)
        if r >= order:
            continue
        weights = [(r + s, w) for s, w in enumerate(c.coeffs[:order - r]) if w]
        if not weights:
            continue
        # (1/r!) sum over all r! orderings = (prod m_p! / r!) sum over distinct ones.
        norm = div(math.prod(math.factorial(e) for e in m), math.factorial(r))
        for mm, v in chain(m).terms.items():
            for shift, w in weights:
                _add_row(rows, mm, v.coeffs, w * norm, shift)
    return _poly(h.dim, order, rows)


def lie_rack_product(h: LeibnizAlgebra, x: FinVec, y: FinVec, order: int) -> FinVec:
    """x |>_hbar y = exp(hbar ad_x)(y), coordinates in Q[hbar]/(hbar^order).

    The r-th term is (hbar / r) [x, term_(r-1)]: a shift and a rational scale.
    ad_x is formed once, as its columns j -> [x, e_j].
    """

    def lift(c: Coeff) -> SeriesScalar:
        return c if isinstance(c, SeriesScalar) else SeriesScalar.constant(c, order)

    ad_x = h.ad(x)
    term = FinVec.build(h.basis, ((lab, lift(c)) for lab, c in y.entries.items()))
    terms = [term]
    for r in range(1, order):
        step = div(1, r)
        term = FinVec.build(h.basis, ((lab, c.shift(1) * step)
                                      for lab, c in ad_x(term).entries.items()))
        if term.is_zero:
            break
        terms.append(term)
    return FinVec.build(h.basis, (item for t in terms for item in t.entries.items()))


def _first_hbar_difference(a: PolyFunction, b: PolyFunction,
                           ) -> tuple[int, dict[Exponents, Rational], dict[Exponents, Rational]]:
    """Lowest hbar power whose coefficient polynomials differ, with both rows."""
    for p in range(a.order):
        row_a = {m: c.coeffs[p] for m, c in a.terms.items() if c.coeffs[p]}
        row_b = {m: c.coeffs[p] for m, c in b.terms.items() if c.coeffs[p]}
        if row_a != row_b:
            return p, row_a, row_b
    return -1, {}, {}


def star_exp(h: LeibnizAlgebra, x: FinVec, y: FinVec, order: int,
             degree: int | None = None) -> PolyFunction:
    """exp(hat x) |> exp(hat y), checked against exp(hat(x |>_hbar y)).

    ``degree`` caps the polynomial degree of the right factor and of the
    comparison exponential; the default order - 1 is exact modulo
    hbar^order, and any lower cap compares the matching jets only.
    """
    if degree is None:
        degree = order - 1
    f = exp_hat(h, x, order, order - 1)
    g = exp_hat(h, y, order, degree)
    lhs = star(h, f, g)
    rhs = exp_hat(h, lie_rack_product(h, x, y, order), order, degree)
    if lhs != rhs:
        power, row_l, row_r = _first_hbar_difference(lhs, rhs)
        raise DecompositionFailure("exponential rack identity",
                                   (dict(x.entries), dict(y.entries), f"hbar^{power}"),
                                   row_l, row_r)
    return lhs


def star_rack_selfdist_check(h: LeibnizAlgebra, x: FinVec, y: FinVec, z: FinVec,
                             order: int, degree: int | None = None) -> CheckReport:
    """Self-distributivity of |>_hbar on vectors and on exponential functions.

    The function-level check nests deformed products of exponentials
    directly, so it does not assume the exponential identity that
    ``star_exp`` verifies.
    """
    if degree is None:
        degree = order - 1
    lhs_v = lie_rack_product(h, x, lie_rack_product(h, y, z, order), order)
    rhs_v = lie_rack_product(h, lie_rack_product(h, x, y, order),
                             lie_rack_product(h, x, z, order), order)
    if lhs_v != rhs_v:
        raise DecompositionFailure("rack self-distributivity",
                                   (dict(x.entries), dict(y.entries), dict(z.entries)),
                                   lhs_v, rhs_v)
    f_x = exp_hat(h, x, order, order - 1)
    f_y = exp_hat(h, y, order, order - 1)
    g_z = exp_hat(h, z, order, degree)
    lhs = star(h, f_x, star(h, f_y, g_z))
    rhs = star(h, star(h, f_x, f_y), star(h, f_x, g_z))
    if lhs != rhs:
        power, row_l, row_r = _first_hbar_difference(lhs, rhs)
        raise DecompositionFailure("exponential self-distributivity",
                                   (dict(x.entries), dict(y.entries), dict(z.entries),
                                    f"hbar^{power}"),
                                   row_l, row_r)
    return CheckReport(True, checked=2, detail=f"order={order} degree={degree}")


def check_hat_morphism(h: LeibnizAlgebra, k: int = 3, order: int | None = None) -> CheckReport:
    """Monomials-to-functions against the degree-capped augmented rack bialgebra.

    Three families, each on every monomial (pair) of degree at most ``k``:
    the map turns the symmetric product into the polynomial product, it
    intertwines ad~_i with the derivation action, and the deformed product
    of two images is hbar^(deg a) times the image of the bialgebra product.
    """
    if order is None:
        order = k + 2
    arb = uar_infinity(h, k)
    sym = arb.carrier
    monos: list[tuple[Label, ...]] = [m for m in sym.basis.labels if isinstance(m, tuple)]
    images = {m: monomial_function(h, m, order) for m in monos}
    checked = 0
    for a in monos:
        for b in monos:
            if len(a) + len(b) <= k:
                prod = tuple(sorted(a + b, key=h.basis.index))
                if images[a] * images[b] != images[prod]:
                    raise AxiomViolation("hat algebra morphism", (a, b),
                                         images[a] * images[b], images[prod])
                checked += 1
    for i in h.basis.labels:
        e_i = FinVec.unit(h.basis, i)
        for a in monos:
            lhs = ad_tilde(h, i, images[a])
            rhs = psi_function(h, derivation_action(h, sym, e_i, FinVec.unit(sym.basis, a)),
                               order)
            if lhs != rhs:
                raise AxiomViolation("adjoint intertwiner", (i, a), lhs, rhs)
            checked += 1
    for a in monos:
        shift = SeriesScalar.one(order).shift(len(a))
        for b in monos:
            lhs = star(h, images[a], images[b])
            rhs = psi_function(h, arb.rack.apply(FinVec.unit(sym.basis, a),
                                                 FinVec.unit(sym.basis, b)),
                               order).scale(shift)
            if lhs != rhs:
                raise AxiomViolation("star against enveloping product", (a, b), lhs, rhs)
            checked += 1
    return CheckReport(True, checked, detail=f"degree cap {k}, hbar order {order}")


__all__ = [
    "ExpFunction",
    "PolyFunction",
    "ad_tilde",
    "check_hat_morphism",
    "exp_hat",
    "hat_function",
    "lie_rack_product",
    "monomial_function",
    "psi_function",
    "rack_exp",
    "star",
    "star_exp",
    "star_rack_selfdist_check",
]
