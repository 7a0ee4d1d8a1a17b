"""Deformation complex of a rack bialgebra and its cubical differential.

Cochains of degree n are coderivations f: R^(x)n -> R along the iterated
product mu^n(r_1, .., r_n) = r_1 |> (r_2 |> (.. |> r_n)), i.e. linear maps
with Delta f = (f (x) mu^n + mu^n (x) f) Delta.  Such maps are exactly the
directions in which mu^n can move inside the coalgebra morphisms, so degree-2
cocycles are infinitesimal deformations of the rack product over the dual
numbers, and coboundaries are the deformations absorbed by a coalgebra
automorphism id + hbar*alpha.

The differential combines cubical faces with one extra face:

    d_{i,1} w (r_1..r_{n+1}) = mu^i(r_1^(1)..r_{i-1}^(1), r_i)
                               |> w(r_1^(2)..r_{i-1}^(2), r_{i+1}..r_{n+1}),
    d_{i,0} w (r_1..r_{n+1}) = w(r_1..r_{i-1}, r_i^(1) |> r_{i+1}, ..,
                               r_i^(n+1-i) |> r_{n+1}),
    d_{n+1} w (r_1..r_{n+1}) = w(r_1^(1)..r_{n-1}^(1), r_n)
                               |> mu^n(r_1^(2)..r_{n-1}^(2), r_{n+1}),

    d = sum_{i=1..n} (-1)^(i+1) (d_{i,1} - d_{i,0}) + (-1)^(n+1) d_{n+1}.

d squares to zero through the cubical identities d_{j,a} d_{i,b} =
d_{i+1,b} d_{j,a} for j <= i together with two extra relations tying the
faces to d_{n+1}; all of them are verified on the solved cochain bases as
exact matrix identities, never assumed.  Coderivation spaces are kernels of
exact sparse linear systems, so every dimension and rank below is exact.

At n = 2 the five terms of d w (a, b, c), in the order d_{1,1}, d_{1,0},
d_{2,1}, d_{2,0}, d_3, are

    a |> w(b, c) - w(a1 |> b, a2 |> c) - (a1 |> b) |> w(a2, c)
        + w(a, b |> c) - w(a1, b) |> (a2 |> c),

term by term the hbar-coefficient of the self-distributivity defect
a |> (b |> c) - (a1 |> b) |> (a2 |> c) of mu + hbar*w over the dual numbers:
the hbar^0 terms cancel because mu is self-distributive, and each hbar^1 term
puts w in one slot.  Nothing here asks w to be a coderivation, so the identity
holds for every map w: R (x) R -> R, linearly in its (dim R)^3 unknowns.  Z^2
is therefore the kernel of the coderivation rows of C^2 together with the rows
of d, one elimination with no C^3, and :func:`h2` reads it so.

Each public call builds one ``_Faces``, which owns the tensor powers and mu^n
of each degree, built once.  Faces, the extra face, d and the coderivation
condition are read on label tuples: each column is one coefficient dict filled
from the stored columns of the cochain, of mu^i and of mu.  The dual-number
checks read mu + hbar*w on label pairs, one series column per pair.
Each cochain space is eliminated once, and d is read in the solved bases: a
basis cochain is 1 at its own free unknown and 0 at the others', so d f has
its values there as coordinates, and rebuilding d f from them checks it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping

from rackalg.env_hopf import derivation_action
from rackalg.errors import AxiomViolation, BudgetExceeded, RackalgError, SchemaError
from rackalg.exact_core import (
    ONE,
    ZERO,
    Basis,
    Coeff,
    FinMap,
    FinVec,
    Label,
    PairTable,
    Rational,
    SeriesScalar,
    Row,
    _accumulate,
    _kernel_coordinates,
    _require_degree,
    label_times,
    nullspace,
    rank_of,
    same_entries,
    tensor_basis,
)
from rackalg.leibniz import LeibnizAlgebra
from rackalg.rack_bialg import (CheckReport, RackBialgebra, _OnDicts, _first_selfdist_failure,
                                trivial)
from rackalg.symcoalg import symmetric_coalgebra

Parts = tuple[Label, ...]


def _max_unknowns() -> int:
    return int(os.environ.get("RACKALG_MAX_UNKNOWNS", "4096"))


def _tensor_power(basis: Basis, n: int) -> Basis:
    if n < 1:
        raise SchemaError("tensor powers need n >= 1")
    return basis if n == 1 else tensor_basis(*([basis] * n))


def _tlabel(parts: Parts) -> Label:
    # R^(x)1 keeps the carrier's own labels instead of 1-tuples.
    return parts[0] if len(parts) == 1 else parts


def _tparts(n: int, label: Label) -> Parts:
    return (label,) if n == 1 else label  # type: ignore[return-value]


def _entries(fmap: FinMap, label: Label) -> Mapping[Label, Coeff]:
    """The stored column of ``fmap`` at ``label`` as a coefficient dict."""
    col = fmap.columns.get(label)
    return col.entries if col is not None else {}


def _series(const: Mapping[Label, Coeff], lin: Mapping[Label, Coeff]) -> dict[Label, Coeff]:
    """const + hbar*lin as one coefficient dict over Q[hbar]/hbar^2."""
    return {l: SeriesScalar.make((const.get(l, ZERO), lin.get(l, ZERO)), 2)
            for l in {**const, **lin}}


@dataclass(frozen=True)
class Cochain:
    """A coderivation R^(x)degree -> R along the iterated product."""

    degree: int
    map: FinMap


class _Faces:
    """Face maps of one rack bialgebra, read on label tuples.

    Owns the tensor power and mu^n of each degree (built once), the product
    of mu on label pairs and the iterated Sweedler legs it reads.
    """

    def __init__(self, rb: RackBialgebra) -> None:
        if rb.basis.factors:
            raise SchemaError("the deformation complex needs an atomic carrier basis")
        self.rb = rb
        self.basis = rb.basis
        self.legs = rb.carrier.legs
        self._powers: dict[int, Basis] = {}
        self._mu: dict[int, FinMap] = {1: FinMap.identity(self.basis)}
        self._klegs: dict[tuple[Label, int], list[tuple[Parts, Coeff]]] = {}
        self._splits: dict[Parts, list[tuple[Parts, Parts, Coeff]]] = {}
        self.table = rb.table

    def power(self, n: int) -> Basis:
        if n not in self._powers:
            self._powers[n] = _tensor_power(self.basis, n)
        return self._powers[n]

    def mu(self, n: int) -> FinMap:
        """mu^n, read as r_1 |> mu^(n-1)(r_2..r_n)."""
        if n < 1:
            raise SchemaError("mu^n needs n >= 1")
        if n not in self._mu:
            prev = self.mu(n - 1)
            self._mu[n] = self._build(n, lambda parts, acc: label_times(
                self.table, parts[0], _entries(prev, _tlabel(parts[1:])), acc))
        return self._mu[n]

    def _build(self, m: int, fill: Callable[[Parts, dict[Label, Coeff]], object]) -> FinMap:
        """The map R^(x)m -> R whose column at (r_1..r_m) ``fill`` adds into a dict."""
        cols = {}
        for t in self.power(m).labels:
            acc: dict[Label, Coeff] = {}
            fill(_tparts(m, t), acc)
            if acc:
                cols[t] = FinVec(self.basis, acc)
        return FinMap(self.power(m), self.basis, cols)

    def split(self, labels: Parts) -> list[tuple[Parts, Parts, Coeff]]:
        """(first legs, second legs, weight), one Sweedler term chosen per label;
        listed once per label tuple."""
        out = self._splits.get(labels)
        if out is None:
            out = self._splits[labels] = [
                (tuple(l1 for l1, _, _ in combo), tuple(l2 for _, l2, _ in combo),
                 math.prod(w for _, _, w in combo))
                for combo in itertools.product(*[self.legs(l) for l in labels])]
        return out

    def klegs(self, lab: Label, k: int) -> list[tuple[Parts, Coeff]]:
        """Legs of the (k-1)-iterated comultiplication of a basis label."""
        if (lab, k) not in self._klegs:
            if k == 1:
                out = [((lab,), ONE)]
            else:
                out = [((l1,) + rest, w * w2)
                       for l1, l2, w in self.legs(lab)
                       for rest, w2 in self.klegs(l2, k - 1)]
            self._klegs[(lab, k)] = out
        return self._klegs[(lab, k)]

    def degree_of(self, omega: FinMap) -> int:
        n = len(omega.domain.factors) or 1
        if omega.domain != self.power(n) or omega.codomain != self.basis:
            raise SchemaError("cochain is not a map R^(x)n -> R over the carrier")
        return n

    def _times(self, x: FinMap, y: FinMap, parts: Parts, i: int,
               acc: dict[Label, Coeff], c: Coeff) -> None:
        """acc += c x(r_1^(1)..r_{i-1}^(1), r_i) |> y(r_1^(2)..r_{i-1}^(2), r_{i+1}..)."""
        for lefts, rights, w in self.split(parts[:i - 1]):
            ys = _entries(y, _tlabel(rights + parts[i:]))
            if ys:
                for l, xl in _entries(x, _tlabel(lefts + (parts[i - 1],))).items():
                    label_times(self.table, l, ys, acc, c * w * xl)

    def _substitute(self, omega: FinMap, parts: Parts, i: int,
                    acc: dict[Label, Coeff], c: Coeff) -> None:
        """acc += c omega(r_1..r_{i-1}, r_i^(1) |> r_{i+1}, .., r_i^(k) |> r_{i+k})."""
        heads, k = parts[:i - 1], len(parts) - i
        for legs, w in self.klegs(parts[i - 1], k):
            factors = [self.table.entry(legs[m], parts[i + m]).items() for m in range(k)]
            for combo in itertools.product(*factors):
                col = _entries(omega, _tlabel(heads + tuple(l for l, _ in combo)))
                _accumulate(acc, c * w * math.prod(cv for _, cv in combo), col.items())

    def face(self, omega: FinMap, i: int, eps: int) -> FinMap:
        """The cubical face d_{i,eps} of a cochain (degree read off the domain)."""
        n = self.degree_of(omega)
        if not 1 <= i <= n or eps not in (0, 1):
            raise SchemaError(f"face index ({i},{eps}) out of range for degree {n}")
        if eps == 1:
            mu_i = self.mu(i)
            return self._build(n + 1, lambda parts, acc: self._times(
                mu_i, omega, parts, i, acc, ONE))
        return self._build(n + 1, lambda parts, acc: self._substitute(
            omega, parts, i, acc, ONE))

    def extra_face(self, omega: FinMap) -> FinMap:
        """The extra face d_{n+1} pairing the cochain with mu^n."""
        n = self.degree_of(omega)
        mu_nn = self.mu(n)
        return self._build(n + 1, lambda parts, acc: self._times(
            omega, mu_nn, parts, n, acc, ONE))

    def differential(self, omega: FinMap) -> FinMap:
        """d omega, its signed faces summed per column."""
        n = self.degree_of(omega)
        mus = [self.mu(i) for i in range(1, n + 1)]

        def fill(parts: Parts, acc: dict[Label, Coeff]) -> None:
            self._times(omega, mus[n - 1], parts, n, acc, (-1) ** (n + 1))
            for i in range(1, n + 1):
                sign = (-1) ** (i + 1)
                self._times(mus[i - 1], omega, parts, i, acc, sign)
                self._substitute(omega, parts, i, acc, -sign)

        return self._build(n + 1, fill)

    def d2_rows(self) -> dict[int, Row]:
        """d on every map w: R (x) R -> R, as sparse rows over the unknowns of
        ``_space(self, 2)``: the row keyed by the unknown ((a, b, c), o) of a
        degree-3 map (see ``_unknowns``) is the o-coefficient of the five terms
        of d w (a, b, c) in the module docstring.  Rows that vanish are left out."""
        labels = self.basis.labels
        dim = len(labels)
        at = {l: p for p, l in enumerate(labels)}
        # the first unknown of w(x, y): w(x, y) at output l is off[x, y] + at[l]
        off = {t: j * dim for j, t in enumerate(self.power(2).labels)}
        entry, mu3 = self.table.entry, self.mu(3)
        rows: dict[int, Row] = {}
        for k, (a, b, c) in enumerate(self.power(3).labels):
            # d_{1,0} and d_{2,0}: w(x, y) at output o, the same for every o
            same: list[tuple[int, Coeff]] = [(off[a, x], cx) for x, cx in entry(b, c).items()]
            # d_{1,1} and d_{2,1} as (first unknown of w(y, c), vector v, weight),
            # each w * v |> w(y, c); then d_3, per output o
            lefts = [(off[b, c], {a: ONE}, ONE)]
            outs: dict[Label, list[tuple[int, Coeff]]] = {}
            for a1, a2, w in self.legs(a):
                ab = entry(a1, b)
                lefts.append((off[a2, c], ab, -w))
                for x, cx in ab.items():
                    for y, cy in entry(a2, c).items():
                        same.append((off[x, y], -w * cx * cy))
                first = off[a1, b]
                for l in labels:
                    for o, v in _entries(mu3, (l, a2, c)).items():
                        outs.setdefault(o, []).append((first + at[l], -w * v))
            for first, vec, w in lefts:
                for m, cm in vec.items():
                    for l in labels:
                        for o, v in entry(m, l).items():
                            outs.setdefault(o, []).append((first + at[l], w * cm * v))
            for o in labels:
                row: Row = {}
                _accumulate(row, ONE, outs.get(o, ()))
                _accumulate(row, ONE, ((j + at[o], cj) for j, cj in same))
                if row:
                    rows[k * dim + at[o]] = row
        return rows

    def deformed(self, omega: FinMap) -> PairTable:
        """mu + hbar*omega on label pairs over Q[hbar]/hbar^2, one series
        column per pair."""
        basis = self.basis
        return PairTable.build(basis, (
            (la, lb, FinVec(basis, _series(self.table.entry(la, lb), _entries(omega, (la, lb)))))
            for la, lb in self.power(2).labels))


def _report(faces: _Faces, n: int, omega: FinMap) -> CheckReport:
    if faces.degree_of(omega) != n:
        raise SchemaError(f"cochain domain does not match degree {n}")
    delta = faces.rb.carrier.delta
    mu = faces.mu(n)
    checked = 0
    for t in faces.power(n).labels:
        lhs: dict[Label, Coeff] = {}
        for l, c in _entries(omega, t).items():
            _accumulate(lhs, c, _entries(delta, l).items())
        rhs: dict[Label, Coeff] = {}
        for lefts, rights, w in faces.split(_tparts(n, t)):
            lt, rt = _tlabel(lefts), _tlabel(rights)
            for x, y in ((omega, mu), (mu, omega)):  # f (x) mu^n + mu^n (x) f
                ys = _entries(y, rt)
                for l, xl in _entries(x, lt).items():
                    _accumulate(rhs, w * xl, (((l, m), ym) for m, ym in ys.items()))
        if not same_entries(lhs, rhs):
            return CheckReport(False, checked, axiom=f"coderivation along mu^{n}",
                               witness=(t,))
        checked += 1
    return CheckReport(True, checked, detail=f"degree {n}")


def coderivation_report(rb: RackBialgebra, n: int, omega: FinMap) -> CheckReport:
    """Check Delta f = (f (x) mu^n + mu^n (x) f) Delta on every basis label."""
    return _report(_Faces(rb), n, omega)


def _coderivation_rows(faces: _Faces, n: int) -> tuple[list[Row], int]:
    """The coderivation condition on a map R^(x)n -> R as sparse rows over its
    (dim R)^n * dim R unknowns (numbered as in ``_unknowns``), and that count;
    refused past the budget before any row is built."""
    basis = faces.basis
    dom = faces.power(n)
    unknowns = dom.dim * basis.dim
    if unknowns > _max_unknowns():
        raise BudgetExceeded("coderivation unknowns", unknowns, _max_unknowns())
    mu, delta = faces.mu(n), faces.rb.carrier.delta
    var = {(t, l): j * basis.dim + p
           for j, t in enumerate(dom.labels) for p, l in enumerate(basis.labels)}
    rows: list[Row] = []
    for t in dom.labels:
        # the terms of each row, keyed by the label pair of R (x) R it reads
        terms: dict[tuple[Label, Label], list[tuple[int, Rational]]] = {}
        for l in basis.labels:
            for pair, c in _entries(delta, l).items():
                terms.setdefault(pair, []).append((var[t, l], c))
        for lefts, rights, w in faces.split(_tparts(n, t)):
            lt, rt = _tlabel(lefts), _tlabel(rights)
            for m, mc in _entries(mu, rt).items():
                for l in basis.labels:
                    terms.setdefault((l, m), []).append((var[lt, l], -w * mc))
            for m, mc in _entries(mu, lt).items():
                for l in basis.labels:
                    terms.setdefault((m, l), []).append((var[rt, l], -w * mc))
        for items in terms.values():
            row: Row = {}
            _accumulate(row, ONE, items)
            if row:
                rows.append(row)
    return rows, unknowns


def _space(faces: _Faces, n: int) -> list[Cochain]:
    basis = faces.basis
    dom = faces.power(n)
    out = []
    for combo in nullspace(*_coderivation_rows(faces, n)):
        cols: dict[Label, dict[Label, Rational]] = {}
        for idx, val in combo.items():
            cols.setdefault(dom.labels[idx // basis.dim], {})[basis.labels[idx % basis.dim]] = val
        fmap = FinMap(dom, basis, {t: FinVec.build(basis, c) for t, c in cols.items()})
        out.append(Cochain(n, fmap))
    return out


def _unknowns(faces: _Faces, omega: FinMap) -> Row:
    """The unknowns of ``_space`` that a cochain sets: its nullspace combination."""
    basis = faces.basis
    return {omega.domain.index(t) * basis.dim + basis.index(l): c
            for t, col in omega.columns.items() for l, c in col.entries.items()}


def coderivation_space(rb: RackBialgebra, n: int) -> list[Cochain]:
    """Exact basis of C^n(R;R), the coderivations along mu^n."""
    return _space(_Faces(rb), n)


def differential(rb: RackBialgebra, n: int, f: Cochain | FinMap) -> Cochain:
    """Apply d to a degree-n coderivation; the output is verified, not assumed."""
    omega = f.map if isinstance(f, Cochain) else f
    faces = _Faces(rb)
    rep = _report(faces, n, omega)
    if rep.passed:
        out = faces.differential(omega)
        rep = _report(faces, n + 1, out)
    if not rep.passed:
        raise AxiomViolation(rep.axiom, rep.witness, "delta of the image",
                             "coderivation combination")
    return Cochain(n + 1, out)


@dataclass(frozen=True)
class DeformationComplex:
    """Solved cochain bases with the differential as exact matrices between them."""

    rb: RackBialgebra
    max_degree: int
    spaces: tuple[tuple[Cochain, ...], ...]
    differentials: tuple[FinMap, ...]


def _complex(faces: _Faces, max_degree: int) -> tuple[DeformationComplex, list[FinMap]]:
    """The complex, and the images under d of the basis of C^max_degree."""
    _require_degree(max_degree, "max degree")
    if max_degree < 1:
        raise SchemaError("the complex needs max_degree >= 1")
    rb = faces.rb
    spaces = [tuple(_space(faces, n)) for n in range(1, max_degree + 2)]
    cbases = [Basis(f"C^{n + 1}({rb.basis.name})", tuple(range(len(sp))))
              for n, sp in enumerate(spaces)]
    mats = []
    for n in range(1, max_degree + 1):
        kernel = [_unknowns(faces, f.map) for f in spaces[n]]
        images = [faces.differential(f.map) for f in spaces[n - 1]]
        cols: dict[Label, FinVec] = {}
        for j, image in enumerate(images):
            if not image.columns:
                continue
            # the coordinates of d f are its values at the free unknowns of C^(n+1)
            coords = _kernel_coordinates(kernel, _unknowns(faces, image))
            if coords is None:
                raise RackalgError("differential image left the solved cochain space")
            cols[j] = FinVec.build(cbases[n], list(enumerate(coords)))
        mats.append(FinMap(cbases[n - 1], cbases[n], cols))
    return DeformationComplex(rb, max_degree, tuple(spaces), tuple(mats)), images


def deformation_complex(rb: RackBialgebra, max_degree: int = 2) -> DeformationComplex:
    """Bases of C^1..C^(max_degree+1) and matrices of d between them."""
    return _complex(_Faces(rb), max_degree)[0]


def verify_complex(rb: RackBialgebra, max_n: int = 2) -> CheckReport:
    """d^2 = 0, the cubical identities, and both extra face relations.

    All three families are checked on the solved coderivation bases; d^2 = 0
    is a matrix identity where both cochain spaces are solved and a direct
    zero-map evaluation at the top degree.
    """
    faces = _Faces(rb)
    cx, tops = _complex(faces, max_n)
    checked = 0
    for n in range(1, max_n):
        if cx.differentials[n].compose(cx.differentials[n - 1]).columns:
            return CheckReport(False, checked, axiom="d squared zero", witness=("matrix", n))
        checked += 1
    for image in tops:
        if faces.differential(image).columns:
            return CheckReport(False, checked, axiom="d squared zero", witness=("direct", max_n))
        checked += 1
    # the 2n first faces of each basis cochain of degree n, computed once
    firsts = [[{(i, b): faces.face(f.map, i, b) for i in range(1, n + 1) for b in (0, 1)}
               for f in cx.spaces[n - 1]] for n in range(1, max_n + 1)]
    cubical = 0
    for n in range(1, max_n + 1):
        for first in firsts[n - 1]:
            for i in range(1, n + 1):
                for j, a, b in itertools.product(range(1, i + 1), (0, 1), (0, 1)):
                    lhs = faces.face(first[i, b], j, a)
                    rhs = faces.face(first[j, a], i + 1, b)
                    if lhs != rhs:
                        return CheckReport(False, checked, axiom="cubical identity",
                                           witness=(n, i, j, a, b))
                    checked += 1
                    cubical += 1
    extra = 0
    for n in range(1, max_n + 1):
        for f, first in zip(cx.spaces[n - 1], firsts[n - 1]):
            lifted = faces.extra_face(f.map)
            for i, a in itertools.product(range(1, n + 1), (0, 1)):
                if faces.face(lifted, i, a) != faces.extra_face(first[i, a]):
                    return CheckReport(False, checked, axiom="extra relation with the faces",
                                       witness=(n, i, a))
                checked += 1
                extra += 1
            lhs = faces.face(lifted, n + 1, 0)
            rhs = faces.extra_face(lifted) + faces.face(lifted, n + 1, 1)
            if lhs != rhs:
                return CheckReport(False, checked, axiom="extra relation with the extra face",
                                   witness=(n,))
            checked += 1
            extra += 1
    dims = ", ".join(f"dim C^{n + 1}={len(sp)}" for n, sp in enumerate(cx.spaces))
    return CheckReport(True, checked, detail=f"{dims}; cubical={cubical}, extra={extra}")


def h2(rb: RackBialgebra) -> dict[str, int]:
    """Exact dimensions of 2-cocycles, 2-coboundaries, and H^2.

    For every map w: R (x) R -> R, coderivation or not, d w (a, b, c) is

        a |> w(b, c) - w(a1 |> b, a2 |> c) - (a1 |> b) |> w(a2, c)
            + w(a, b |> c) - w(a1, b) |> (a2 |> c),

    the hbar-coefficient of the self-distributivity defect of mu + hbar*w (see
    the module docstring), linear in the (dim R)^3 unknowns of w.  So Z^2, the
    coderivations that d sends to zero, is the kernel of the coderivation rows
    of C^2 together with the rows of d (``_Faces.d2_rows``): one elimination,
    and no C^3.  B^2 is the rank of the coordinates of d f in that Z^2 basis,
    over the solved basis of C^1; a d f outside Z^2 is refused.
    """
    faces = _Faces(rb)
    rows, unknowns = _coderivation_rows(faces, 2)
    cocycles = nullspace(rows + list(faces.d2_rows().values()), unknowns)
    coords = []
    for f in _space(faces, 1):
        image = _kernel_coordinates(cocycles, _unknowns(faces, faces.differential(f.map)))
        if image is None:
            raise RackalgError("coboundary left the solved cocycle space")
        coords.append({j: c for j, c in enumerate(image) if c})
    z2, b2 = len(cocycles), rank_of(coords, len(cocycles))
    return {"z2": z2, "b2": b2, "h2": z2 - b2}


def star_mu1(h: LeibnizAlgebra, k: int) -> tuple[RackBialgebra, Cochain]:
    """First-order term of the deformed product on the trivial rack bialgebra S(h)_(k).

    Degree-r monomials enter the deformed product with weight hbar^r, so the
    hbar coefficient acts only from single letters, as the extension of ad to
    a coalgebra derivation.
    """
    sym = symmetric_coalgebra(h.basis, k)
    rb = trivial(sym)

    def col(pair: Label) -> FinVec:
        a, b = _tparts(2, pair)
        if len(a) != 1:
            return FinVec.zero(sym.basis)
        return derivation_action(h, sym, FinVec.unit(h.basis, a[0]),
                                 FinVec.unit(sym.basis, b))

    fmap = FinMap.from_function(sym.square, sym.basis, col)
    faces = _Faces(rb)
    rep = _report(faces, 2, fmap)
    if not rep.passed:
        raise RackalgError(f"the first-order star term is not a coderivation at {rep.witness}")
    return rb, Cochain(2, fmap)


def infinitesimal_selfdist(rb: RackBialgebra, mu1: Cochain | FinMap) -> CheckReport:
    """Self-distributivity of mu + hbar*mu1 over the dual numbers, exact in hbar.

    Passing is equivalent to d(mu1) = 0: the hbar coefficient of the defect is
    exactly the five-term cocycle combination of the module docstring, for
    every map mu1, read as in :func:`certify`.  :func:`h2` solves the same
    combination as rows (``_Faces.d2_rows``).
    """
    omega = mu1.map if isinstance(mu1, Cochain) else mu1
    t = _Faces(rb).deformed(omega)
    triple, _, _, checked = _first_selfdist_failure(_OnDicts(((t, rb.basis),), ()), rb.carrier)
    if triple is not None:
        return CheckReport(False, checked, axiom="self-distributivity mod hbar^2",
                           witness=triple)
    return CheckReport(True, checked)


def equivalence_check(rb: RackBialgebra, alpha: FinMap) -> CheckReport:
    """Coboundaries integrate: phi = id + hbar*alpha carries mu + hbar*d(alpha) to mu.

    Verifies phi(a |>_hbar b) = phi(a) |> phi(b) over the dual numbers on all
    basis pairs, with |>_hbar the product deformed by the coboundary of alpha.
    """
    faces = _Faces(rb)
    rep = _report(faces, 1, alpha)
    if not rep.passed:
        return rep
    deformed = faces.deformed(faces.differential(alpha))
    labels = faces.basis.labels
    phi = {l: _series({l: ONE}, _entries(alpha, l)) for l in labels}
    checked = rep.checked
    for la in labels:
        for lb in labels:
            lhs: dict[Label, Coeff] = {}
            for l, x in deformed.entry(la, lb).items():
                _accumulate(lhs, x, phi[l].items())
            rhs: dict[Label, Coeff] = {}
            for l, x in phi[la].items():
                label_times(faces.table, l, phi[lb], rhs, x)
            if not same_entries(lhs, rhs):
                return CheckReport(False, checked, axiom="equivalence of deformations",
                                   witness=(la, lb))
            checked += 1
    return CheckReport(True, checked)


__all__ = [
    "Cochain",
    "DeformationComplex",
    "coderivation_report",
    "coderivation_space",
    "deformation_complex",
    "differential",
    "equivalence_check",
    "h2",
    "infinitesimal_selfdist",
    "star_mu1",
    "verify_complex",
]
