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
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from rackalg.env_hopf import derivation_action
from rackalg.errors import AxiomViolation, BudgetExceeded, RackalgError, SchemaError
from rackalg.exact_core import (
    ONE,
    Basis,
    Coeff,
    FinMap,
    FinVec,
    Label,
    Rational,
    SeriesScalar,
    SpanSolver,
    label_times,
    linear_sum,
    nullspace,
    span_basis,
    tensor_basis,
    tensor_sum,
)
from rackalg.leibniz import LeibnizAlgebra
from rackalg.rack_bialg import CheckReport, RackBialgebra, trivial
from rackalg.symcoalg import symmetric_coalgebra


def _max_unknowns() -> int:
    return int(os.environ.get("RACKALG_MAX_UNKNOWNS", "4096"))


def tensor_power(basis: Basis, n: int) -> Basis:
    if n < 1:
        raise SchemaError("tensor powers need n >= 1")
    return basis if n == 1 else tensor_basis(*([basis] * n))


def _tlabel(parts: tuple[Label, ...]) -> Label:
    # R^(x)1 keeps the carrier's own labels instead of 1-tuples.
    return parts[0] if len(parts) == 1 else parts


def _tparts(n: int, label: Label) -> tuple[Label, ...]:
    return (label,) if n == 1 else label  # type: ignore[return-value]


def mu_n(rb: RackBialgebra, n: int) -> FinMap:
    """The iterated right-nested product r_1 |> (r_2 |> (.. |> r_n))."""
    if n < 1:
        raise SchemaError("mu_n needs n >= 1")
    basis = rb.basis
    if n == 1:
        return FinMap.identity(basis)
    prev = mu_n(rb, n - 1)

    def col(t: Label) -> FinVec:
        parts = _tparts(n, t)
        inner = prev.column(_tlabel(parts[1:]))
        return FinVec(basis, label_times(rb.pair, parts[0], inner.entries))

    return FinMap.from_function(tensor_power(basis, n), basis, col)


@dataclass(frozen=True)
class Cochain:
    """A coderivation R^(x)degree -> R along the iterated product."""

    degree: int
    map: FinMap
    along: FinMap


class _Faces:
    """Face maps of one rack bialgebra with shared mu^n and sweedler caches."""

    def __init__(self, rb: RackBialgebra) -> None:
        if rb.basis.factors:
            raise SchemaError("the deformation complex needs an atomic carrier basis")
        self.rb = rb
        self.legs = rb.carrier.legs
        self._mu: dict[int, FinMap] = {}
        self._klegs: dict[tuple[Label, int], list[tuple[tuple[Label, ...], Coeff]]] = {}

    def mu(self, n: int) -> FinMap:
        if n not in self._mu:
            self._mu[n] = mu_n(self.rb, n)
        return self._mu[n]

    def split(self, labels: Sequence[Label]
              ) -> Iterator[tuple[tuple[Label, ...], tuple[Label, ...], Coeff]]:
        """(first legs, second legs, weight), one Sweedler term chosen per label."""
        for combo in itertools.product(*[self.legs(l) for l in labels]):
            w: Coeff = ONE
            for _, _, lw in combo:
                w = w * lw
            yield tuple(l1 for l1, _, _ in combo), tuple(l2 for _, l2, _ in combo), w

    def klegs(self, lab: Label, k: int) -> list[tuple[tuple[Label, ...], Coeff]]:
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
        if omega.domain != tensor_power(self.rb.basis, n) or omega.codomain != self.rb.basis:
            raise SchemaError("cochain is not a map R^(x)n -> R over the carrier")
        return n

    def face(self, omega: FinMap, i: int, eps: int) -> FinMap:
        """The cubical face d_{i,eps} of a cochain (degree read off the domain)."""
        n = self.degree_of(omega)
        if not 1 <= i <= n or eps not in (0, 1):
            raise SchemaError(f"face index ({i},{eps}) out of range for degree {n}")
        rb, basis = self.rb, self.rb.basis
        mu_i = self.mu(i)

        def col_1(t: Label) -> FinVec:
            parts = _tparts(n + 1, t)
            return linear_sum(basis, (
                (rb.apply(mu_i.column(_tlabel(lefts + (parts[i - 1],))),
                          omega.column(_tlabel(rights + parts[i:]))), w)
                for lefts, rights, w in self.split(parts[:i - 1])))

        def col_0(t: Label) -> FinVec:
            parts = _tparts(n + 1, t)
            k = n + 1 - i
            heads = [FinVec.unit(basis, l) for l in parts[:i - 1]]
            return linear_sum(basis, (
                (_eval_multi(omega, heads + [rb.pair(legs[m], parts[i + m]) for m in range(k)]), w)
                for legs, w in self.klegs(parts[i - 1], k)))

        return FinMap.from_function(tensor_power(basis, n + 1), basis,
                                    col_1 if eps == 1 else col_0)

    def extra_face(self, omega: FinMap) -> FinMap:
        """The extra face d_{n+1} pairing the cochain with mu^n."""
        n = self.degree_of(omega)
        rb, basis = self.rb, self.rb.basis
        mu_nn = self.mu(n)

        def col(t: Label) -> FinVec:
            parts = _tparts(n + 1, t)
            return linear_sum(basis, (
                (rb.apply(omega.column(_tlabel(lefts + (parts[n - 1],))),
                          mu_nn.column(_tlabel(rights + (parts[n],)))), w)
                for lefts, rights, w in self.split(parts[:n - 1])))

        return FinMap.from_function(tensor_power(basis, n + 1), basis, col)

    def differential(self, omega: FinMap) -> FinMap:
        n = self.degree_of(omega)
        basis = self.rb.basis
        terms = [(self.extra_face(omega), (-1) ** (n + 1))]
        for i in range(1, n + 1):
            sign = (-1) ** (i + 1)
            terms += [(self.face(omega, i, 1), sign), (self.face(omega, i, 0), -sign)]
        return FinMap.from_function(tensor_power(basis, n + 1), basis, lambda t: linear_sum(
            basis, ((f.column(t), c) for f, c in terms)))


def _eval_multi(omega: FinMap, vecs: Sequence[FinVec]) -> FinVec:
    """Evaluate a map stored on a tensor-power basis on a tuple of vectors."""
    if len(vecs) == 1:
        return omega(vecs[0])

    def terms() -> Iterator[tuple[FinVec, Coeff]]:
        for combo in itertools.product(*[list(v.entries.items()) for v in vecs]):
            w: Coeff = ONE
            for _, c in combo:
                w = w * c
            yield omega.column(tuple(lab for lab, _ in combo)), w

    return linear_sum(omega.codomain, terms())


def coderivation_report(rb: RackBialgebra, n: int, omega: FinMap) -> CheckReport:
    """Check Delta f = (f (x) mu^n + mu^n (x) f) Delta on every basis label."""
    faces = _Faces(rb)
    if faces.degree_of(omega) != n:
        raise SchemaError(f"cochain domain does not match degree {n}")
    c = rb.carrier
    mu = faces.mu(n)
    checked = 0
    for t in tensor_power(rb.basis, n).labels:
        lhs = c.delta(omega.column(t))
        rhs = tensor_sum(c.square, (
            term for lefts, rights, w in faces.split(_tparts(n, t))
            for term in ((omega.column(_tlabel(lefts)), mu.column(_tlabel(rights)), w),
                         (mu.column(_tlabel(lefts)), omega.column(_tlabel(rights)), w))))
        if lhs != rhs:
            return CheckReport(False, checked, axiom=f"coderivation along mu^{n}",
                               witness=(t,))
        checked += 1
    return CheckReport(True, checked, detail=f"degree {n}")


def coderivation_space(rb: RackBialgebra, n: int) -> list[Cochain]:
    """Exact basis of C^n(R;R), the coderivations along mu^n."""
    faces = _Faces(rb)
    basis = rb.basis
    dom = tensor_power(basis, n)
    unknowns = dom.dim * basis.dim
    if unknowns > _max_unknowns():
        raise BudgetExceeded("coderivation unknowns", unknowns, _max_unknowns())
    mu = faces.mu(n)
    var = {(t, l): j * basis.dim + p
           for j, t in enumerate(dom.labels) for p, l in enumerate(basis.labels)}
    # Delta columns of the carrier, as {(la, lb): coeff} per output label.
    delta_of = {l: {_tparts(2, sq): c
                    for sq, c in rb.carrier.delta.column(l).entries.items()}
                for l in basis.labels}
    rows: list[dict[int, Rational]] = []
    for t in dom.labels:
        parts = _tparts(n, t)
        acc: dict[tuple[Label, Label], dict[int, Rational]] = {}

        def add(pair: tuple[Label, Label], idx: int, val: Rational) -> None:
            row = acc.setdefault(pair, {})
            got = row.get(idx, 0) + val
            if got:
                row[idx] = got
            else:
                row.pop(idx, None)

        for l in basis.labels:
            for pair, c in delta_of[l].items():
                add(pair, var[(t, l)], c)
        for lt, rt, w in faces.split(parts):
            for mlab, mc in mu.column(_tlabel(rt)).entries.items():
                for l in basis.labels:
                    add((l, mlab), var[(_tlabel(lt), l)], -w * mc)
            for mlab, mc in mu.column(_tlabel(lt)).entries.items():
                for l in basis.labels:
                    add((mlab, l), var[(_tlabel(rt), l)], -w * mc)
        rows.extend(row for row in acc.values() if row)
    out = []
    for combo in nullspace(rows, unknowns):
        cols: dict[Label, dict[Label, Rational]] = {}
        for idx, val in combo.items():
            t = dom.labels[idx // basis.dim]
            l = basis.labels[idx % basis.dim]
            cols.setdefault(t, {})[l] = val
        fmap = FinMap(dom, basis, {t: FinVec.build(basis, c) for t, c in cols.items()})
        out.append(Cochain(n, fmap, mu))
    return out


def differential(rb: RackBialgebra, n: int, f: Cochain | FinMap) -> Cochain:
    """Apply d to a degree-n coderivation; the output is verified, not assumed."""
    omega = f.map if isinstance(f, Cochain) else f
    faces = _Faces(rb)
    if faces.degree_of(omega) != n:
        raise SchemaError(f"cochain domain does not match degree {n}")
    rep = coderivation_report(rb, n, omega)
    if not rep.passed:
        raise AxiomViolation(rep.axiom, rep.witness, "delta of the image",
                             "coderivation combination")
    out = faces.differential(omega)
    rep = coderivation_report(rb, n + 1, out)
    if not rep.passed:
        raise AxiomViolation(rep.axiom, rep.witness, "delta of the image",
                             "coderivation combination")
    return Cochain(n + 1, out, faces.mu(n + 1))


@dataclass(frozen=True)
class DeformationComplex:
    """Solved cochain bases with the differential as exact matrices between them."""

    rb: RackBialgebra
    max_degree: int
    spaces: tuple[tuple[Cochain, ...], ...]
    differentials: tuple[FinMap, ...]

    def dim(self, n: int) -> int:
        return len(self.spaces[n - 1])


def _flat_vec(basis: Basis, omega: FinMap, flat: Basis) -> FinVec:
    items = []
    for t, col in omega.columns.items():
        for l, c in col.entries.items():
            items.append(((t, l), c))
    return FinVec.build(flat, items)


def deformation_complex(rb: RackBialgebra, max_degree: int = 2) -> DeformationComplex:
    """Bases of C^1..C^(max_degree+1) and matrices of d between them."""
    if max_degree < 1:
        raise SchemaError("the complex needs max_degree >= 1")
    faces = _Faces(rb)
    spaces = [coderivation_space(rb, n) for n in range(1, max_degree + 2)]
    cbases = [Basis(f"C^{n + 1}({rb.basis.name})", tuple(range(len(sp))))
              for n, sp in enumerate(spaces)]
    mats = []
    for n in range(1, max_degree + 1):
        dom = tensor_power(rb.basis, n + 1)
        flat = Basis(f"flat{n + 1}({rb.basis.name})",
                     tuple((t, l) for t in dom.labels for l in rb.basis.labels))
        target = spaces[n]
        solver = SpanSolver([_flat_vec(rb.basis, f.map, flat) for f in target]) \
            if target else None
        cols: dict[Label, FinVec] = {}
        for j, f in enumerate(spaces[n - 1]):
            image = faces.differential(f.map)
            if not image.columns:
                continue
            if solver is None:
                raise RackalgError("differential image left the solved cochain space")
            coords = solver.coordinates(_flat_vec(rb.basis, image, flat))
            if coords is None:
                raise RackalgError("differential image left the solved cochain space")
            cols[j] = FinVec.build(cbases[n], list(enumerate(coords)))
        mats.append(FinMap(cbases[n - 1], cbases[n], cols))
    return DeformationComplex(rb, max_degree, tuple(tuple(sp) for sp in spaces),
                              tuple(mats))


def verify_complex(rb: RackBialgebra, max_n: int = 2) -> CheckReport:
    """d^2 = 0, the cubical identities, and both extra face relations.

    All three families are checked on the solved coderivation bases; d^2 = 0
    is a matrix identity where both cochain spaces are solved and a direct
    zero-map evaluation at the top degree.
    """
    faces = _Faces(rb)
    cx = deformation_complex(rb, max_n)
    checked = 0
    for n in range(1, max_n):
        prod = cx.differentials[n].compose(cx.differentials[n - 1])
        if prod.columns:
            return CheckReport(False, checked, axiom="d squared zero",
                               witness=("matrix", n))
        checked += 1
    for f in cx.spaces[max_n - 1]:
        if faces.differential(faces.differential(f.map)).columns:
            return CheckReport(False, checked, axiom="d squared zero",
                               witness=("direct", max_n))
        checked += 1
    cubical = 0
    for n in range(1, max_n + 1):
        for f in cx.spaces[n - 1]:
            for i in range(1, n + 1):
                for j in range(1, i + 1):
                    for a in (0, 1):
                        for b in (0, 1):
                            lhs = faces.face(faces.face(f.map, i, b), j, a)
                            rhs = faces.face(faces.face(f.map, j, a), i + 1, b)
                            if lhs != rhs:
                                return CheckReport(False, checked,
                                                   axiom="cubical identity",
                                                   witness=(n, i, j, a, b))
                            checked += 1
                            cubical += 1
    extra = 0
    for n in range(1, max_n + 1):
        for f in cx.spaces[n - 1]:
            lifted = faces.extra_face(f.map)
            for i in range(1, n + 1):
                for a in (0, 1):
                    if faces.face(lifted, i, a) != faces.extra_face(faces.face(f.map, i, a)):
                        return CheckReport(False, checked,
                                           axiom="extra relation with the faces",
                                           witness=(n, i, a))
                    checked += 1
                    extra += 1
            lhs = faces.face(lifted, n + 1, 0)
            rhs = faces.extra_face(lifted) + faces.face(lifted, n + 1, 1)
            if lhs != rhs:
                return CheckReport(False, checked,
                                   axiom="extra relation with the extra face",
                                   witness=(n,))
            checked += 1
            extra += 1
    dims = ", ".join(f"dim C^{n + 1}={len(sp)}" for n, sp in enumerate(cx.spaces))
    return CheckReport(True, checked,
                       detail=f"{dims}; cubical={cubical}, extra={extra}")


def h2(rb: RackBialgebra) -> dict[str, int]:
    """Exact dimensions of 2-cocycles, 2-coboundaries, and H^2."""
    cx = deformation_complex(rb, 2)
    d1, d2 = cx.differentials
    b2 = len(span_basis([d1.column(l) for l in d1.domain.labels
                         if not d1.column(l).is_zero]))
    rank2 = len(span_basis([d2.column(l) for l in d2.domain.labels
                            if not d2.column(l).is_zero]))
    z2 = cx.dim(2) - rank2
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
    rep = coderivation_report(rb, 2, fmap)
    if not rep.passed:
        raise RackalgError(f"the first-order star term is not a coderivation at {rep.witness}")
    return rb, Cochain(2, fmap, mu_n(rb, 2))


def _lift(v: FinVec, order: int) -> FinVec:
    return FinVec.build(v.basis, ((lab, SeriesScalar.constant(c, order)
                                   if not isinstance(c, SeriesScalar) else c)
                                  for lab, c in v.entries.items()))


def infinitesimal_selfdist(rb: RackBialgebra, mu1: Cochain | FinMap) -> CheckReport:
    """Self-distributivity of mu + hbar*mu1 over the dual numbers, exact in hbar.

    Passing is equivalent to d(mu1) = 0: the hbar coefficient of the defect is
    exactly the five-term cocycle combination.
    """
    omega = mu1.map if isinstance(mu1, Cochain) else mu1
    c = rb.carrier
    hbar = SeriesScalar.hbar(2)

    def apply_h(a: FinVec, b: FinVec) -> FinVec:
        return _lift(rb.apply(a, b), 2) + _lift(_eval_multi(omega, [a, b]), 2).scale(hbar)

    checked = 0
    for la in c.basis.labels:
        a = _lift(FinVec.unit(c.basis, la), 2)
        legs = c.legs(la)
        for lb in c.basis.labels:
            b = _lift(FinVec.unit(c.basis, lb), 2)
            for lc in c.basis.labels:
                cc = _lift(FinVec.unit(c.basis, lc), 2)
                lhs = apply_h(a, apply_h(b, cc))
                rhs = linear_sum(c.basis, (
                    (apply_h(apply_h(_lift(FinVec.unit(c.basis, l1), 2), b),
                             apply_h(_lift(FinVec.unit(c.basis, l2), 2), cc)), w)
                    for l1, l2, w in legs))
                if lhs != rhs:
                    return CheckReport(False, checked, axiom="self-distributivity mod hbar^2",
                                       witness=(la, lb, lc))
                checked += 1
    return CheckReport(True, checked)


def equivalence_check(rb: RackBialgebra, alpha: FinMap) -> CheckReport:
    """Coboundaries integrate: phi = id + hbar*alpha carries mu + hbar*d(alpha) to mu.

    Verifies phi(a |>_hbar b) = phi(a) |> phi(b) over the dual numbers on all
    basis pairs, with |>_hbar the product deformed by the coboundary of alpha.
    """
    rep = coderivation_report(rb, 1, alpha)
    if not rep.passed:
        return rep
    faces = _Faces(rb)
    omega = faces.differential(alpha)
    c = rb.carrier
    hbar = SeriesScalar.hbar(2)

    def phi(v: FinVec) -> FinVec:
        return _lift(v, 2) + _lift(alpha(v), 2).scale(hbar)

    checked = rep.checked
    for la in c.basis.labels:
        a = FinVec.unit(c.basis, la)
        for lb in c.basis.labels:
            b = FinVec.unit(c.basis, lb)
            deformed = _lift(rb.apply(a, b), 2) + _lift(_eval_multi(omega, [a, b]), 2).scale(hbar)
            lhs = phi(deformed)
            rhs = _lift(rb.apply(phi(a), phi(b)), 2)
            if lhs != rhs:
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
    "mu_n",
    "star_mu1",
    "tensor_power",
    "verify_complex",
]
