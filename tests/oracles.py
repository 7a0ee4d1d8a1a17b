"""Reference maps that the tests compose: tensor products and flips of maps,
convolution on a coalgebra, the product and functoriality of the truncated
S(V), and the truncating product of U(g); the label formula of tensor bases,
the product table of a function given on label pairs, and self-distributivity
read one basis triple at a time.

The package checks every identity by comparing Sweedler legs label by label
and never composes whole maps.  These are the composed-map forms of the same
structures, kept as independent oracles for the tests.
"""

from rackalg.env_hopf import EnvelopingHopf
from rackalg.errors import RackalgError
import itertools

from rackalg.exact_core import (
    ZERO,
    Basis,
    FinMap,
    FinVec,
    Label,
    PairTable,
    _label_parts,
    same_entries,
    split_label,
    tensor_basis,
)
from rackalg.rack_bialg import _entries, _legs
from rackalg.symcoalg import Coalgebra, sort_monomial


def tensor_basis_labels(*bases: Basis) -> tuple:
    """The labels of ``tensor_basis(*bases)``: each combination's parts,
    split per factor and flattened."""
    return tuple(
        tuple(itertools.chain.from_iterable(_label_parts(b, lab) for b, lab in zip(bases, combo)))
        for combo in itertools.product(*(b.labels for b in bases)))


def table_of(basis: Basis, pair, left, right=None, **kwargs) -> PairTable:
    """The table of the product ``pair(la, lb)`` (a vector of ``basis``) on
    every pair of the labels ``left`` x ``right`` (``right`` defaults to
    ``left``); keyword arguments go to :meth:`PairTable.build`."""
    right = left if right is None else right
    return PairTable.build(basis, ((la, lb, pair(la, lb)) for la in left for lb in right),
                           **kwargs)


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
        return f.column(la).tensor(g.column(lb), codomain)

    return FinMap.from_function(domain, codomain, col)


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
# convolution
# ---------------------------------------------------------------------------


def convolution(c: Coalgebra, mul: FinMap, f: FinMap, g: FinMap) -> FinMap:
    """f * g = mul o (f (x) g) o delta for maps C -> A and mul: A (x) A -> A."""
    return mul.compose(tensor_product_map(f, g)).compose(c.delta)


def convolution_unit(c: Coalgebra, target_unit: FinVec) -> FinMap:
    """The convolution identity b -> counit(b) * 1_A."""
    return FinMap.from_function(
        c.basis, target_unit.basis,
        lambda lab: target_unit.scale(c.counit.get(lab, ZERO)))


def convolution_inverse(c: Coalgebra, mul: FinMap, target_unit: FinVec,
                        f: FinMap) -> FinMap:
    """Inverse of f under convolution via the geometric series.

    With e the convolution unit, sum_r (e - f)^{*r} inverts f whenever the
    series terminates; on a connected coalgebra with f(1) = 1 the r-th power
    vanishes on the r-th filtration level, so it always does.
    """
    e = convolution_unit(c, target_unit)
    eta = e - f
    total = e
    term = eta
    steps = 0
    while not term.is_zero:
        total = total + term
        term = convolution(c, mul, term, eta)
        steps += 1
        if steps > c.basis.dim + 1:
            raise RackalgError("convolution series does not terminate; "
                               "the coalgebra is not connected or f(1) != 1")
    return total


# ---------------------------------------------------------------------------
# products on the truncated S(V) and U(g)
# ---------------------------------------------------------------------------


def sym_product_map(sym: Coalgebra, source: Basis) -> FinMap:
    """Commutative product on the truncated S(V), discarding overflow.

    Degrees beyond the cap are quotiented away.  The result is the algebra
    S(V)/(degree > cap); together with the coproduct this is a bialgebra
    only below the cap, which is all a convolution may rely on.
    """
    def col(pair: Label) -> FinVec:
        left, right = split_label(sym.basis, pair)
        merged = sort_monomial(source, tuple(left) + tuple(right))
        if merged not in sym.basis:
            return FinVec.zero(sym.basis)
        return FinVec.unit(sym.basis, merged)

    return FinMap.from_function(sym.square, sym.basis, col)


def sym_algebra_map(f: FinMap, dom_sym: Coalgebra, cod_sym: Coalgebra) -> FinMap:
    """Functorial extension of a linear map on generators to S(V) monomials.

    A monomial goes to the commutative product of the images of its letters.
    Degree is preserved, so any codomain cap at least the domain cap keeps
    every image inside the truncation.
    """
    cod_source = f.codomain

    def col(mono: Label) -> FinVec:
        assert isinstance(mono, tuple)
        acc = FinVec.unit(cod_sym.basis, ())
        for lab in mono:
            image = f.column(lab)
            items = []
            for m, c in acc.entries.items():
                for wl, wc in image.entries.items():
                    items.append((sort_monomial(cod_source, (*m, wl)), c * wc))
            acc = FinVec.build(cod_sym.basis, items)
        return acc

    return FinMap.from_function(dom_sym.basis, cod_sym.basis, col)


def truncating_mul_map(env: EnvelopingHopf) -> FinMap:
    """Multiplication of U(g) as a map on the tensor square, overflow quotiented.

    Safe wherever total degree cannot exceed the cap, e.g. inside
    convolutions against the degree-preserving coproduct.
    """
    def col(pair: Label) -> FinVec:
        wa, wb = split_label(env.basis, pair)
        if not env.table.fits(len(wa) + len(wb)):
            return FinVec.zero(env.basis)
        return env.straighten(wa + wb)

    return FinMap.from_function(env.coalgebra.square, env.basis, col)


# ---------------------------------------------------------------------------
# self-distributivity, triple by triple
# ---------------------------------------------------------------------------


def first_selfdist_failure_by_triples(ev, c: Coalgebra) -> tuple:
    """``rack_bialg._first_selfdist_failure`` read one basis triple at a time,
    in ``itertools.product`` order, through the evaluator's ``spread`` and
    ``fold``: a |> (b |> c) against sum (a1 |> b) |> (a2 |> c) per c."""
    (m,) = ev.products
    labels = c.basis.labels
    legs, spread, fold = _legs(c), ev.spread, ev.fold
    rows = [(lb, [(lc, m[lb, lc]) for lc in labels]) for lb in labels]
    products = {(lb, lc): x for lb, row in rows for lc, x in row}
    checked = 0
    for la in labels:
        legs_a, ma = legs[la], ev.row(m, la, labels)
        for lb, row in rows:
            left = spread(m, [(products[a1, lb], w, a2) for a1, a2, w in legs_a])
            for lc, bc in row:
                lhs, rhs = ma[bc], fold(m, m, left, lc)
                if lhs != rhs and not same_entries(_entries(lhs), _entries(rhs)):
                    return (la, lb, lc), lhs, rhs, checked
                checked += 1
    return None, None, None, checked
