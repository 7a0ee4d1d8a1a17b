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

ad~ and |> run on integer coefficient rows {exponents: [c_0 .. c_(N-1)]}:
``_rows`` and ``_lines`` clear the denominators of a polynomial and of the
structure constants on entry, ``_ad_rows`` is the one ad~ kernel, and
``_poly`` divides a result by its one common denominator as it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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
        """Wrap terms that the module's own operations built valid and nonzero,
        without re-validation; outside input goes through the constructor or ``build``."""
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
        return exp_hat(h, self.vector, self.order, self.order - 1 if degree is None else degree)


def rack_exp(h: LeibnizAlgebra, a: ExpFunction, b: ExpFunction) -> ExpFunction:
    """The deformed product of exponentials as an exponential: exponent a |>_hbar b."""
    a._check(b)
    return ExpFunction(lie_rack_product(h, a.vector, b.vector, a.order), a.order)


def hat_function(h: LeibnizAlgebra, x: FinVec, order: int) -> PolyFunction:
    """The linear coordinate hat(x) = sum_i x_i alpha_i of a vector x in h."""
    if x.basis != h.basis:
        raise SchemaError("vector does not live in the given algebra")
    return PolyFunction.linear_sum(h.dim, order, ((monomial_function(h, (lab,), order), c)
                                                  for lab, c in x.entries.items()))


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
    the coefficient of alpha^m as prod_p x_p^(m_p) / m_p!, for |m| <= degree.
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
        powers: list[Coeff] = [1]  # x_p^e / e! for e = 0, 1, .. until one vanishes
        while len(powers) <= degree and (power := powers[-1] * c * div(1, len(powers))):
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


Row = list[int]
Line = list[tuple[int, list[tuple[int, int]]]]


def _rows(f: PolyFunction) -> tuple[dict[Exponents, Row], int]:
    """f as integer coefficient rows over one common denominator: f = rows / den."""
    den = math.lcm(*{c.denominator for s in f.terms.values() for c in s.coeffs})
    return {m: [c.numerator * (den // c.denominator) for c in s.coeffs]
            for m, s in f.terms.items()}, den


def _lines(h: LeibnizAlgebra) -> tuple[dict[Label, Line], int]:
    """Each letter's row of the bracket table by positions, (j, [(k, d c_ij^k)]),
    with the structure constants cleared by their common denominator d."""
    index, rows = h.basis.index, h.table.rows
    d = math.lcm(*{c.denominator for line in rows.values() for col in line.values()
                   for c in col.values()})
    return {i: [(index(j), [(index(k), c.numerator * (d // c.denominator))
                            for k, c in col.items()])
                for j, col in line.items()]
            for i, line in rows.items()}, d


def _ad_rows(line: Line, rows: Mapping[Exponents, Row], out: dict[Exponents, Row]) -> None:
    """out += ad~_i(rows) for the letter i of ``line``: the one ad~ kernel,
    ad~_i(alpha^m) = sum_j m_j sum_k c_ij^k alpha^(m - e_j + e_k), which only
    scales each row of hbar coefficients by m_j times a cleared constant d c_ij^k."""
    for m, row in rows.items():
        for pj, column in line:
            e = m[pj]
            if e:
                lowered = m[:pj] + (e - 1,) + m[pj + 1:]
                for pk, c in column:
                    t = lowered[:pk] + (lowered[pk] + 1,) + lowered[pk + 1:]
                    w, acc = e * c, out.get(t)
                    out[t] = ([w * v for v in row] if acc is None
                              else [a + w * v for a, v in zip(acc, row)])


def _poly(nvars: int, order: int, rows: Mapping[Exponents, Row], den: int) -> PolyFunction:
    """The polynomial rows / den, the one division: rows that cancelled are
    dropped, and a coefficient is an int when integral."""
    return PolyFunction._trusted(nvars, order, {
        m: SeriesScalar(tuple(r) if den == 1 else
                        tuple(c // den if c % den == 0 else Fraction(c, den) for c in r))
        for m, r in rows.items() if any(r)})


def ad_tilde(h: LeibnizAlgebra, i: Label, f: PolyFunction) -> PolyFunction:
    """The vector field sum_j hat([e_i, e_j]) d/dalpha_j applied to f: the
    unique degree-preserving derivation with ad~_i(hat(y)) = hat([e_i, y]),
    run by the row kernel of ``star`` between one conversion in and one out."""
    if f.nvars != h.dim:
        raise SchemaError("polynomial does not live on the dual of the algebra")
    return _ad_tilde(_lines(h), i, f)


def _ad_tilde(bracket: tuple, i: Label, f: PolyFunction) -> PolyFunction:
    """:func:`ad_tilde` on the ``bracket`` lines of :func:`_lines`."""
    (lines, d), (rows, den) = bracket, _rows(f)
    out: dict[Exponents, Row] = {}
    _ad_rows(lines.get(i, []), rows, out)
    return _poly(f.nvars, f.order, out, den * d)


def star(h: LeibnizAlgebra, f: PolyFunction, g: PolyFunction) -> PolyFunction:
    """Deformed product f |> g of polynomial functions on h* (see :func:`_star`)."""
    return _star(h, _lines(h), f, g)


def _star(h: LeibnizAlgebra, bracket: tuple, f: PolyFunction, g: PolyFunction) -> PolyFunction:
    """:func:`star` on the ``bracket`` lines of :func:`_lines`, built once per call.

    The jet sum stops at deg f, and r >= order contributes nothing since it
    carries hbar^r.  For an exponent tuple m, S(m) is the sum of the ad~
    chains into g over the distinct orderings of the letters of m.  Every
    ordering starts with one letter p followed by an ordering of m - e_p, so

        S(0) = g,    S(m) = sum_{p: m_p > 0} ad~_p(S(m - e_p)),

    memoized over sub-multisets: ad~ runs once per (sub-multiset, letter)
    pair.  On integer rows: g is scaled by the lcm D_g of its denominators and
    the structure constants by theirs, d, so S(m) is d^|m| D_g times the chain;
    the jet weights w (prod m_p!) / (r! d^r) of f are scaled by the lcm D_f of
    theirs, and the hbar^r of a jet shifts rows.  Chains and jet sum add ints
    only; the result is divided by D_f D_g once.
    """
    if f.nvars != h.dim or g.nvars != h.dim:
        raise SchemaError("polynomials do not live on the dual of the algebra")
    f._check(g)
    order = f.order
    lines, d = bracket
    letters = [lines.get(i, []) for i in h.basis.labels]
    rows, den = _rows(g)
    chains: dict[Exponents, dict[Exponents, Row]] = {(0,) * h.dim: rows}

    def chain(m: Exponents) -> dict[Exponents, Row]:
        got = chains.get(m)
        if got is None:
            got = chains[m] = {}
            for p, e in enumerate(m):
                if e:
                    _ad_rows(letters[p], chain(m[:p] + (e - 1,) + m[p + 1:]), got)
        return got

    jets = []
    for m, c in f.terms.items():
        r = sum(m)
        if r < order:
            # (1/r!) sum over all r! orderings = (prod m_p! / r!) sum over distinct ones.
            norm = Fraction(math.prod(math.factorial(e) for e in m), math.factorial(r) * d ** r)
            jets += [(m, r + s, w * norm) for s, w in enumerate(c.coeffs[:order - r]) if w]
    scale = math.lcm(*{w.denominator for _, _, w in jets})
    out: dict[Exponents, Row] = {}
    for m, shift, w in jets:
        w = w.numerator * (scale // w.denominator)
        for mm, row in chain(m).items():
            acc = out[mm] = out.get(mm) or [0] * order
            for s in range(order - shift):
                if row[s]:
                    acc[s + shift] += w * row[s]
    return _poly(h.dim, order, out, den * scale)


def lie_rack_product(h: LeibnizAlgebra, x: FinVec, y: FinVec, order: int) -> FinVec:
    """x |>_hbar y = exp(hbar ad_x)(y), coordinates in Q[hbar]/(hbar^order)."""
    return _exp_ad(h, h.ad(x), y, order)


def _exp_ad(h: LeibnizAlgebra, ad_x, y: FinVec, order: int) -> FinVec:
    """exp(hbar ad_x)(y) for ad_x = ``h.ad(x)``, formed once per x; the r-th
    term is (hbar / r) [x, term_(r-1)]: a shift and a rational scale."""
    terms = [FinVec.build(h.basis, ((lab, c if isinstance(c, SeriesScalar)
                                     else SeriesScalar.constant(c, order))
                                    for lab, c in y.entries.items()))]
    for r in range(1, order):
        step = div(1, r)
        term = FinVec.build(h.basis, ((lab, c.shift(1) * step)
                                      for lab, c in ad_x(terms[-1]).entries.items()))
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


def _require_equal(identity: str, witness: tuple, lhs: PolyFunction, rhs: PolyFunction) -> None:
    """Raise DecompositionFailure at the lowest hbar power where the sides differ."""
    if lhs != rhs:
        power, row_l, row_r = _first_hbar_difference(lhs, rhs)
        raise DecompositionFailure(identity, witness + (f"hbar^{power}",), row_l, row_r)


def star_exp(h: LeibnizAlgebra, x: FinVec, y: FinVec, order: int,
             degree: int | None = None) -> PolyFunction:
    """exp(hat x) |> exp(hat y), checked against exp(hat(x |>_hbar y)).

    ``degree`` caps the polynomial degree of the right factor and of the
    comparison exponential; the default order - 1 is exact modulo
    hbar^order, and any lower cap compares the matching jets only.
    """
    if degree is None:
        degree = order - 1
    lhs = star(h, exp_hat(h, x, order, order - 1), exp_hat(h, y, order, degree))
    rhs = exp_hat(h, lie_rack_product(h, x, y, order), order, degree)
    _require_equal("exponential rack identity", (dict(x.entries), dict(y.entries)), lhs, rhs)
    return lhs


def star_rack_selfdist_check(h: LeibnizAlgebra, x: FinVec, y: FinVec, z: FinVec,
                             order: int, degree: int | None = None) -> CheckReport:
    """Self-distributivity of |>_hbar on vectors and on exponential functions;
    the function-level check nests deformed products of exponentials directly,
    so it does not assume the exponential identity that ``star_exp`` verifies."""
    if degree is None:
        degree = order - 1
    ad_x, bracket = h.ad(x), _lines(h)
    witness = (dict(x.entries), dict(y.entries), dict(z.entries))
    lhs_v = _exp_ad(h, ad_x, lie_rack_product(h, y, z, order), order)
    rhs_v = lie_rack_product(h, _exp_ad(h, ad_x, y, order), _exp_ad(h, ad_x, z, order), order)
    if lhs_v != rhs_v:
        raise DecompositionFailure("rack self-distributivity", witness, lhs_v, rhs_v)
    f_x, f_y = (exp_hat(h, v, order, order - 1) for v in (x, y))
    g_z = exp_hat(h, z, order, degree)
    lhs = _star(h, bracket, f_x, _star(h, bracket, f_y, g_z))
    rhs = _star(h, bracket, _star(h, bracket, f_x, f_y), _star(h, bracket, f_x, g_z))
    _require_equal("exponential self-distributivity", witness, lhs, rhs)
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
    arb, bracket = uar_infinity(h, k), _lines(h)
    sym = arb.carrier
    monos: list[tuple[Label, ...]] = [m for m in sym.basis.labels if isinstance(m, tuple)]
    images = {m: monomial_function(h, m, order) for m in monos}
    checked = 0
    for a in monos:
        for b in monos:
            if len(a) + len(b) <= k:
                prod = tuple(sorted(a + b, key=h.basis.index))
                if (ab := images[a] * images[b]) != images[prod]:
                    raise AxiomViolation("hat algebra morphism", (a, b), ab, images[prod])
                checked += 1
    for i in h.basis.labels:
        e_i = FinVec.unit(h.basis, i)
        for a in monos:
            lhs = _ad_tilde(bracket, i, images[a])
            rhs = psi_function(h, derivation_action(h, sym, e_i, FinVec.unit(sym.basis, a)),
                               order)
            if lhs != rhs:
                raise AxiomViolation("adjoint intertwiner", (i, a), lhs, rhs)
            checked += 1
    for a in monos:
        shift = SeriesScalar.one(order).shift(len(a))
        for b in monos:
            lhs = _star(h, bracket, images[a], images[b])
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
