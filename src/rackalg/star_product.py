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

ad~, |>, exp(hat x) and exp(hbar ad_x) run on integer rows {key: [c_0 .. c_(N-1)]}
over one common denominator, keyed by exponent tuples or, for vectors, basis
positions: ``_rows``, ``_vec_rows`` and ``_lines`` clear denominators on entry,
the kernels add and convolve ints only, and ``_poly`` and ``_vec`` divide once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from rackalg.env_hopf import derivation_action
from rackalg.errors import AxiomViolation, DecompositionFailure, SchemaError
from rackalg.exact_core import Coeff, FinVec, Label, SeriesScalar, _accumulate
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
        p.__dict__.update(nvars=nvars, order=order, terms=terms)
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
        return PolyFunction._trusted(self.nvars, self.order, {
            m[:pos] + (m[pos] - 1,) + m[pos + 1:]: c * m[pos]
            for m, c in self.terms.items() if m[pos]})

    def at_zero(self) -> SeriesScalar:
        return self.terms.get((0,) * self.nvars, SeriesScalar.zero(self.order))

    def truncate(self, degree: int) -> "PolyFunction":
        return PolyFunction._trusted(self.nvars, self.order,
                                     {m: c for m, c in self.terms.items() if sum(m) <= degree})

    def __repr__(self) -> str:
        monos = {m: "*".join(f"a{p + 1}^{e}" if e > 1 else f"a{p + 1}"
                             for p, e in enumerate(m) if e) or "1" for m in self.terms}
        return " + ".join(f"({self.terms[m]!r})*{monos[m]}"
                          for m in sorted(monos)) or "PolyFunction(0)"


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

    def __post_init__(self) -> None:
        _cut(self.order)

    def _check(self, other: "ExpFunction") -> None:
        if self.vector.basis != other.vector.basis:
            raise SchemaError("exponential functions live on different spaces")
        if self.order != other.order:
            raise SchemaError("exponential functions use different hbar truncation orders")

    def __mul__(self, other: "ExpFunction") -> "ExpFunction":
        self._check(other)
        return ExpFunction(self.vector + other.vector, self.order)

    def expand(self, h: LeibnizAlgebra, degree: int | None = None) -> PolyFunction:
        return exp_hat(h, self.vector, self.order, _cut(self.order, degree))


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
    """exp(hat(x)) cut at polynomial degree ``degree`` (see :func:`_exp_rows`);
    the x_p are rationals or series of ``order``, as ``lie_rack_product`` gives.
    Degree N - 1 is lossless modulo hbar^N against the deformed product: the
    dropped jets of a left factor carry hbar^N, and a right factor only meets
    degree-preserving ad~."""
    _cut(order, degree)
    return _poly(h.dim, order, _exp_rows(h.dim, _vec_rows(h, x, order), order, degree))


Row = list[int]
Line = list[tuple[int, list[tuple[int, int]]]]
Rows = tuple[dict, int]  # ({exponent tuple or basis position: Row}, common denominator)


def _cut(order: int, degree: int | None = None) -> int:
    """The degree cap, order - 1 by default, of a truncation that keeps an hbar power."""
    degree = order - 1 if degree is None else degree
    if order < 1 or degree < 0:
        raise SchemaError(f"need hbar order >= 1 and degree >= 0, not {order} and {degree}")
    return degree


def _rows(terms: Mapping) -> Rows:
    """Series coefficients as integer rows over one common denominator: rows / den."""
    den = math.lcm(*{c.denominator for s in terms.values() for c in s.coeffs})
    return {key: [c.numerator * (den // c.denominator) for c in s.coeffs]
            for key, s in terms.items()}, den


def _vec_rows(h: LeibnizAlgebra, x: FinVec, order: int) -> Rows:
    """The coordinates of x, rationals or series of ``order``, as rows by basis position."""
    if x.basis != h.basis or any(isinstance(c, SeriesScalar) and c.order != order
                                 for c in x.entries.values()):
        raise SchemaError(f"vector is not over the algebra in coordinates of hbar order {order}")
    return _rows({h.basis.index(lab): c if isinstance(c, SeriesScalar)
                  else SeriesScalar.constant(c, order) for lab, c in x.entries.items()})


def _series(f: Rows) -> dict:
    """rows / den, the one division: cancelled rows are dropped, integral values are ints."""
    rows, den = f
    return {key: SeriesScalar(tuple(r) if den == 1 else tuple(
        c // den if c % den == 0 else Fraction(c, den) for c in r))
        for key, r in rows.items() if any(r)}


def _poly(nvars: int, order: int, f: Rows) -> PolyFunction:
    return PolyFunction._trusted(nvars, order, _series(f))


def _vec(h: LeibnizAlgebra, v: Rows) -> FinVec:
    return FinVec(h.basis, {h.basis.labels[p]: s for p, s in _series(v).items()})


def _lines(h: LeibnizAlgebra) -> tuple[list[Line], int]:
    """Each letter's row of the bracket table by positions, (j, [(k, d c_ij^k)]),
    with the structure constants cleared by their common denominator d."""
    index, rows = h.basis.index, h.table.rows
    d = math.lcm(*{c.denominator for line in rows.values() for col in line.values()
                   for c in col.values()})
    return [[(index(j), [(index(k), c.numerator * (d // c.denominator)) for k, c in col.items()])
             for j, col in rows.get(i, {}).items()]
            for i in h.basis.labels], d


def _conv(a: Row, b: Row) -> Row:
    """a b in Z[hbar]/(hbar^N) for rows of length N."""
    out = [0] * len(b)
    for s, c in enumerate(a):
        if c:
            for t in range(len(b) - s):
                out[s + t] += c * b[t]
    return out


def _exp_rows(nvars: int, x: Rows, order: int, degree: int) -> Rows:
    """exp(hat x) cut at degree ``degree``, for x = X / D on rows by position:
    exp(hat x) = prod_p exp(x_p alpha_p) gives alpha^m, |m| <= deg, the
    coefficient prod_p x_p^(m_p) / m_p!, over deg! D^deg the integer row
    prod_p X_p^(m_p) (deg! / prod_p m_p!) D^(deg - |m|).  A power that
    vanishes modulo hbar^order ends its variable's expansion."""
    (xs, den), one = x, [1] + [0] * (order - 1)
    terms = {(0,) * nvars: one}
    for p, xp in xs.items():
        powers = [one]  # X_p^e for e = 0, 1, .. until one vanishes
        while len(powers) <= degree and any(power := _conv(powers[-1], xp)):
            powers.append(power)
        terms = {m[:p] + (e,) + m[p + 1:]: t for m, v in terms.items()
                 for e in range(min(len(powers), degree - sum(m) + 1))
                 if any(t := _conv(v, powers[e]) if e else v)}
    fact, out = [math.factorial(e) for e in range(degree + 1)], {}
    for m, v in terms.items():
        w = fact[degree] // math.prod(fact[e] for e in m) * den ** (degree - sum(m))
        out[m] = [c * w for c in v]
    return out, fact[degree] * den ** degree


def _exp_ad_rows(bracket: tuple, x: Rows, y: Rows, order: int) -> Rows:
    """exp(hbar ad_x)(y) for x = X / D_x and y on rows by position.  Term r is
    (hbar / r) [x, term_(r-1)]: a bracket step sum_i X_i d c_ij^k on the cleared
    constants (X_i may be a series) and one hbar shift.  Horner's rule folds
    the step's r D_x d into the sum so far, so all terms share one denominator."""
    (letters, d), (xs, dx), (term, den) = bracket, x, y
    out, zero = term, [0] * order
    for r in range(1, order):
        step: dict[int, Row] = {}
        for i, xi in xs.items():
            for pj, column in letters[i]:
                if (v := term.get(pj)) and any(v):
                    xv = [0] + _conv(xi, v)[:-1]
                    for pk, c in column:
                        step[pk] = [a + c * b for a, b in zip(step.get(pk, zero), xv)]
        if not any(any(row) for row in step.values()):
            break
        w, den, term = r * dx * d, den * r * dx * d, step
        out = {pk: [w * a + b for a, b in zip(out.get(pk, zero), step.get(pk, zero))]
               for pk in out.keys() | step.keys()}
    return out, den


def _star(bracket: tuple, f: Rows, g: Rows, order: int) -> Rows:
    """The deformed product f |> g on rows.  The jet sum stops at deg f, and
    r >= order carries hbar^r.  S(m), the sum of the ad~ chains into g over the
    distinct orderings of the letters of m, starts with a letter p, so

        S(0) = g,    S(m) = sum_{p: m_p > 0} ad~_p(S(m - e_p)),

    memoized: ad~ runs once per (sub-multiset, letter), and S(m) carries d^|m|.
    The jet weight (prod m_p!) / (r! d^r) is an int over R! d^R, R the top jet
    degree, so the result is an int sum over D_f D_g R! d^R."""
    (letters, d), (frows, fden), (grows, gden) = bracket, f, g
    chains: dict[Exponents, dict[Exponents, Row]] = {(0,) * len(letters): grows}

    def chain(m: Exponents) -> dict[Exponents, Row]:
        got = chains.get(m)
        if got is None:
            got = chains[m] = {}
            for p, e in enumerate(m):
                if e:
                    _ad_rows(letters[p], chain(m[:p] + (e - 1,) + m[p + 1:]), got)
        return got

    top = max((r for m in frows if (r := sum(m)) < order), default=0)
    fact = [math.factorial(e) for e in range(top + 1)]
    out: dict[Exponents, Row] = {}
    for m, c in frows.items():
        if (r := sum(m)) < order:
            # (1/r!) sum over all r! orderings = (prod m_p! / r!) sum over distinct ones.
            norm = math.prod(fact[e] for e in m) * (fact[top] // fact[r]) * d ** (top - r)
            jets = [(r + s, w * norm) for s, w in enumerate(c[:order - r]) if w]
            for mm, row in (chain(m).items() if jets else ()):
                acc = out.setdefault(mm, [0] * order)
                for shift, w in jets:
                    for s in range(order - shift):
                        if row[s]:
                            acc[s + shift] += w * row[s]
    return out, fden * gden * fact[top] * d ** top


def _same(a: Rows, b: Rows) -> bool:
    """a == b exactly: each side's rows times the other side's denominator."""
    return ({key: [c * b[1] for c in r] for key, r in a[0].items() if any(r)}
            == {key: [c * a[1] for c in r] for key, r in b[0].items() if any(r)})


def _ad_rows(line: Line, rows: Mapping[Exponents, Row], out: dict[Exponents, Row]) -> dict:
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
    return out


def ad_tilde(h: LeibnizAlgebra, i: Label, f: PolyFunction) -> PolyFunction:
    """The vector field sum_j hat([e_i, e_j]) d/dalpha_j applied to f: the
    unique degree-preserving derivation with ad~_i(hat(y)) = hat([e_i, y]),
    run by the row kernel of ``star`` between one conversion in and one out."""
    if f.nvars != h.dim or i not in h.basis:
        raise SchemaError("polynomial or letter does not live on the algebra")
    (letters, d), (rows, den) = _lines(h), _rows(f.terms)
    return _poly(f.nvars, f.order, (_ad_rows(letters[h.basis.index(i)], rows, {}), den * d))


def star(h: LeibnizAlgebra, f: PolyFunction, g: PolyFunction) -> PolyFunction:
    """Deformed product f |> g of polynomial functions on h*, by :func:`_star`."""
    if f.nvars != h.dim or g.nvars != h.dim:
        raise SchemaError("polynomials do not live on the dual of the algebra")
    f._check(g)
    return _poly(h.dim, f.order, _star(_lines(h), _rows(f.terms), _rows(g.terms), f.order))


def lie_rack_product(h: LeibnizAlgebra, x: FinVec, y: FinVec, order: int) -> FinVec:
    """x |>_hbar y = exp(hbar ad_x)(y), coordinates in Q[hbar]/(hbar^order)."""
    _cut(order)
    return _vec(h, _exp_ad_rows(_lines(h), _vec_rows(h, x, order), _vec_rows(h, y, order), order))


def _first_hbar_difference(a: PolyFunction, b: PolyFunction) -> tuple[int, dict, dict]:
    """Lowest hbar power whose coefficient polynomials differ, with both rows."""
    for p in range(a.order):
        row_a, row_b = ({m: c.coeffs[p] for m, c in f.terms.items() if c.coeffs[p]} for f in (a, b))
        if row_a != row_b:
            return p, row_a, row_b
    return -1, {}, {}


def _require_equal(identity: str, witness: tuple, nvars: int, order: int,
                   lhs: Rows, rhs: Rows) -> None:
    """Raise DecompositionFailure at the lowest hbar power where the sides differ."""
    if not _same(lhs, rhs):
        power, row_l, row_r = _first_hbar_difference(*(_poly(nvars, order, f) for f in (lhs, rhs)))
        raise DecompositionFailure(identity, witness + (f"hbar^{power}",), row_l, row_r)


def star_exp(h: LeibnizAlgebra, x: FinVec, y: FinVec, order: int,
             degree: int | None = None) -> PolyFunction:
    """exp(hat x) |> exp(hat y), checked against exp(hat(x |>_hbar y)): a
    cross-check of the ad~ chains of :func:`_star` on the jets of exp(hat x)
    against the vector exp(hbar ad_x) of :func:`_exp_ad_rows`.  ``degree``
    caps the degree of the right factor and of the comparison exponential;
    the default order - 1 is exact modulo hbar^order, and any lower cap
    compares the matching jets only."""
    degree = _cut(order, degree)
    bracket, xs, ys = _lines(h), _vec_rows(h, x, order), _vec_rows(h, y, order)
    lhs = _star(bracket, _exp_rows(h.dim, xs, order, order - 1),
                _exp_rows(h.dim, ys, order, degree), order)
    rhs = _exp_rows(h.dim, _exp_ad_rows(bracket, xs, ys, order), order, degree)
    _require_equal("exponential rack identity", (dict(x.entries), dict(y.entries)),
                   h.dim, order, lhs, rhs)
    return _poly(h.dim, order, lhs)


def star_rack_selfdist_check(h: LeibnizAlgebra, x: FinVec, y: FinVec, z: FinVec,
                             order: int, degree: int | None = None) -> CheckReport:
    """Self-distributivity of |>_hbar on vectors, by the kernel of
    :func:`_exp_ad_rows`, and on exponential functions, by nesting the ad~
    chains of :func:`_star` directly: the two cross-check each other, and
    neither assumes the exponential identity that ``star_exp`` verifies."""
    degree = _cut(order, degree)
    bracket, witness = _lines(h), (dict(x.entries), dict(y.entries), dict(z.entries))
    xs, ys, zs = (_vec_rows(h, v, order) for v in (x, y, z))
    lhs_v = _exp_ad_rows(bracket, xs, _exp_ad_rows(bracket, ys, zs, order), order)
    rhs_v = _exp_ad_rows(bracket, _exp_ad_rows(bracket, xs, ys, order),
                         _exp_ad_rows(bracket, xs, zs, order), order)
    if not _same(lhs_v, rhs_v):
        raise DecompositionFailure("rack self-distributivity", witness, _vec(h, lhs_v),
                                   _vec(h, rhs_v))
    f_x, f_y, g_z = (_exp_rows(h.dim, v, order, c) for v, c in
                     ((xs, order - 1), (ys, order - 1), (zs, degree)))
    lhs = _star(bracket, f_x, _star(bracket, f_y, g_z, order), order)
    rhs = _star(bracket, _star(bracket, f_x, f_y, order), _star(bracket, f_x, g_z, order), order)
    _require_equal("exponential self-distributivity", witness, h.dim, order, lhs, rhs)
    return CheckReport(True, checked=2, detail=f"order={order} degree={degree}")


def check_hat_morphism(h: LeibnizAlgebra, k: int = 3, order: int | None = None) -> CheckReport:
    """Monomials-to-functions against the degree-capped augmented rack bialgebra.

    Three families, each on every monomial (pair) of degree at most ``k``:
    the map turns the symmetric product into the polynomial product, it
    intertwines ad~_i with the derivation action, and the deformed product
    of two images is hbar^(deg a) times the image of the bialgebra product.
    """
    order = k + 2 if order is None else order
    arb, (letters, d) = uar_infinity(h, k), _lines(h)
    sym, bracket = arb.carrier, (letters, d)
    monos: list[tuple[Label, ...]] = [m for m in sym.basis.labels if isinstance(m, tuple)]
    images = {m: monomial_function(h, m, order) for m in monos}
    rows, checked = {m: _rows(f.terms) for m, f in images.items()}, 0
    for a in monos:
        for b in monos:
            if len(a) + len(b) <= k:
                prod = tuple(sorted(a + b, key=h.basis.index))
                if (ab := images[a] * images[b]) != images[prod]:
                    raise AxiomViolation("hat algebra morphism", (a, b), ab, images[prod])
                checked += 1
    for p, i in enumerate(h.basis.labels):
        e_i = FinVec.unit(h.basis, i)
        for a in monos:
            lhs = _poly(h.dim, order, (_ad_rows(letters[p], rows[a][0], {}), rows[a][1] * d))
            rhs = psi_function(h, derivation_action(h, sym, e_i, FinVec.unit(sym.basis, a)),
                               order)
            if lhs != rhs:
                raise AxiomViolation("adjoint intertwiner", (i, a), lhs, rhs)
            checked += 1
    for a in monos:
        shift = SeriesScalar.one(order).shift(len(a))
        for b in monos:
            lhs = _poly(h.dim, order, _star(bracket, rows[a], rows[b], order))
            rhs = psi_function(h, arb.rack.apply(FinVec.unit(sym.basis, a),
                                                 FinVec.unit(sym.basis, b)),
                               order).scale(shift)
            if lhs != rhs:
                raise AxiomViolation("star against enveloping product", (a, b), lhs, rhs)
            checked += 1
    return CheckReport(True, checked, detail=f"degree cap {k}, hbar order {order}")


__all__ = ["ExpFunction", "PolyFunction", "ad_tilde", "check_hat_morphism", "exp_hat",
           "hat_function", "lie_rack_product", "monomial_function", "psi_function", "rack_exp",
           "star", "star_exp", "star_rack_selfdist_check"]
