"""Reference maps that the tests compose: tensor products and flips of maps,
convolution on a coalgebra, the product and functoriality of the truncated
S(V), and the truncating product of U(g); the label formula of tensor bases,
the product table of a function given on label pairs, the triple identities
of the certifiers (self-distributivity, associativity, the dialgebra laws,
the module identities of a dialgebra's rack, action associativity) read one
basis triple at a time, exp(hbar ad_x) and exp(hat x) as their defining
series, term by term, the U(g)-action on S(h) applied letter by letter, and
the product of the full left-center build of UAR(h).

The package checks every identity by comparing Sweedler legs label by label
and never composes whole maps.  These are the composed-map forms of the same
structures, kept as independent oracles for the tests.
"""

import itertools
import math
from fractions import Fraction

from rackalg.env_hopf import EnvelopingHopf, derivation_action, enveloping_hopf, phi_map
from rackalg.errors import RackalgError

from rackalg.exact_core import (
    ZERO,
    Basis,
    FinMap,
    FinVec,
    Label,
    PairTable,
    SeriesScalar,
    _label_parts,
    linear_sum,
    same_entries,
    split_label,
    tensor_basis,
    times_label,
)
from rackalg.leibniz import left_center, quotient_lie
from rackalg.rack_bialg import _entries, _legs
from rackalg.star_product import PolyFunction, hat_function
from rackalg.symcoalg import Coalgebra, sort_monomial, symmetric_coalgebra


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
# the triple identities, triple by triple
# ---------------------------------------------------------------------------


def _fails(got, want) -> bool:
    """Two values of an evaluator differ, as ``rack_bialg._differ`` tests it."""
    return got != want and not same_entries(_entries(got), _entries(want))


def first_selfdist_failure_by_triples(ev, c: Coalgebra) -> tuple:
    """``rack_bialg._first_selfdist_failure`` read one basis triple at a time:
    the triple, both sides and the triples that held before it, or
    (None, None, None, n)."""
    failure, checked, _ = selfdist_by_triples(ev, c.basis.labels, _legs(c))
    return (None, None, None, checked) if failure is None else (*failure[1:], checked)


def selfdist_by_triples(ev, labels, legs) -> tuple:
    """Self-distributivity of the one product of ``ev``, in
    ``itertools.product`` order, through the evaluator's ``spread`` and
    ``fold``: a |> (b |> c) against sum (a1 |> b) |> (a2 |> c) per c; the
    first failure ("self-distributivity", triple, lhs, rhs) or None, and the
    triples checked and skipped (none) before it."""
    (m,) = ev.products
    spread, fold = ev.spread, ev.fold
    rows = [(lb, [(lc, m[lb, lc]) for lc in labels]) for lb in labels]
    products = {(lb, lc): x for lb, row in rows for lc, x in row}
    checked = 0
    for la in labels:
        legs_a = legs[la]
        for lb, row in rows:
            left = spread(m, [(products[a1, lb], w, a2) for a1, a2, w in legs_a])
            for lc, bc in row:
                lhs, rhs = m[la, bc], fold(m, m, left, lc)
                if _fails(lhs, rhs):
                    return ("self-distributivity", (la, lb, lc), lhs, rhs), checked, 0
                checked += 1
    return None, checked, 0


def _triples(labels, t):
    """The pairs (a, b) and the triples (a, b, c) of ``labels`` under the cap
    of ``t``, in ``itertools.product`` order, as a loop over triples skips
    them: yields (a, b, c) for a triple to read, (a, b, None) first for each
    pair to read, and None for each triple skipped (dim of them for a pair
    beyond the cap)."""
    cap = None if t is None else t.cap
    deg = {lab: 0 if t is None else t.degree(lab) for lab in labels}
    for la in labels:
        for lb in labels:
            d_ab = deg[la] + deg[lb]
            if cap is not None and d_ab > cap:
                yield from [None] * len(labels)
                continue
            yield la, lb, None
            for lc in labels:
                yield None if cap is not None and d_ab + deg[lc] > cap else (la, lb, lc)


def associativity_by_triples(ev, labels, t, axiom: str) -> tuple:
    """``right_hopf_dialg``'s former ``_check_associative``: (ab)c = a(bc) for
    the one product of ``ev`` on every triple under the cap of ``t``, read
    one triple at a time; the first failure (``axiom``, triple, lhs, rhs) or
    None, and the triples checked and skipped before it."""
    (p,) = ev.products
    checked = skipped = 0
    for triple in _triples(labels, t):
        if triple is None:
            skipped += 1
            continue
        la, lb, lc = triple
        if lc is None:
            ab = p[la, lb]
            continue
        lhs, rhs = p[ab, lc], p[la, p[lb, lc]]
        if _fails(lhs, rhs):
            return (axiom, triple, lhs, rhs), checked, skipped
        checked += 1
    return None, checked, skipped


def dialgebra_identities_by_triples(ev, labels, t) -> tuple:
    """``certify_dialgebra``'s former triple loop: associativity of |- and -|
    and the three mixed dialgebra laws, in its order, for the products
    (|-, -|) of ``ev`` on every triple under the cap of ``t``."""
    mv, md = ev.products
    checked = skipped = 0
    for triple in _triples(labels, t):
        if triple is None:
            skipped += 1
            continue
        la, lb, lc = triple
        if lc is None:
            ab_v, ab_d = mv[la, lb], md[la, lb]
            continue
        bc_v, bc_d = mv[lb, lc], md[lb, lc]
        lhs, rhs = mv[ab_v, lc], mv[la, bc_v]
        if _fails(lhs, rhs):
            return ("associativity (|-)", triple, lhs, rhs), checked, skipped
        got = mv[ab_d, lc]
        if _fails(got, lhs):
            return ("left products agree", triple, got, lhs), checked, skipped
        lhs, rhs = md[ab_d, lc], md[la, bc_d]
        if _fails(lhs, rhs):
            return ("associativity (-|)", triple, lhs, rhs), checked, skipped
        got = md[la, bc_v]
        if _fails(got, rhs):
            return ("right products agree", triple, got, rhs), checked, skipped
        lhs, rhs = md[ab_v, lc], mv[la, bc_d]
        if _fails(lhs, rhs):
            return ("inner associativity", triple, lhs, rhs), checked, skipped
        checked += 1
    return None, checked, skipped


def module_identities_by_triples(ev, labels, legs, t) -> tuple:
    """``hopf_dialgebra_rack``'s former triple loop: a |> (b |> c) against
    (a |- b) |> c and (a -| b) |> c, and a |> (b |- c) against
    sum (a1 |> b) |- (a2 |> c) (and for -|), for the products (|-, -|, |>)
    of ``ev`` on every triple under the cap of ``t``."""
    mv, md, mr = ev.products
    checked = skipped = 0
    for triple in _triples(labels, t):
        if triple is None:
            skipped += 1
            continue
        la, lb, lc = triple
        if lc is None:
            halves = (("module identity (|-)", "module algebra (|-)", mv, mv[la, lb]),
                      ("module identity (-|)", "module algebra (-|)", md, md[la, lb]))
            left = ev.spread(mr, [(mr[a1, lb], w, a2) for a1, a2, w in legs[la]])
            continue
        lhs = mr[la, mr[lb, lc]]
        for identity, _, _, ab in halves:
            rhs = mr[ab, lc]
            if _fails(lhs, rhs):
                return (identity, triple, lhs, rhs), checked, skipped
        for _, algebra, p, _ in halves:
            got, want = mr[la, p[lb, lc]], ev.fold(p, mr, left, lc)
            if _fails(got, want):
                return (algebra, triple, got, want), checked, skipped
        checked += 1
    return None, checked, skipped


def action_associativity_by_triples(ev, labels, t, left) -> tuple:
    """``certify_augmented``'s former "action associativity" loop:
    (uv).a = u.(v.a) for the action and the Hopf product of ``ev``, u and v
    in ``left`` with deg u + deg v under the cap of ``t``, a in ``labels``."""
    am, hm = ev.products
    checked = skipped = 0
    for lu in left:
        for lv in left:
            if not t.fits(t.degree(lu) + t.degree(lv)):
                skipped += len(labels)
                continue
            uv = hm[lu, lv]
            for la in labels:
                lhs, rhs = am[uv, la], am[lu, am[lv, la]]
                if _fails(lhs, rhs):
                    return ("action associativity", (lu, lv, la), lhs, rhs), checked, skipped
                checked += 1
    return None, checked, skipped


# ---------------------------------------------------------------------------
# exponentials, term by term
# ---------------------------------------------------------------------------


def lie_rack_product_by_steps(h, x: FinVec, y: FinVec, order: int) -> FinVec:
    """exp(hbar ad_x)(y) = sum_r hbar^r / r! ad_x^r(y): each step brackets x
    against the previous term with ``h.bracket_of``, shifts by one hbar power
    and divides by r.  The coordinates of x and y may be rationals or series."""
    def lift(c):
        return c if isinstance(c, SeriesScalar) else SeriesScalar.constant(c, order)

    term = FinVec.build(h.basis, ((lab, lift(c)) for lab, c in y.entries.items()))
    x = FinVec.build(h.basis, ((lab, lift(c)) for lab, c in x.entries.items()))
    total = term
    for r in range(1, order):
        term = FinVec.build(h.basis, ((lab, c.shift(1) * Fraction(1, r))
                                      for lab, c in h.bracket_of(x, term).entries.items()))
        total = total + term
    return total


def exp_hat_by_powers(h, x: FinVec, order: int, degree: int) -> PolyFunction:
    """sum_{r <= degree} hat(x)^r / r! with the polynomial product."""
    base = hat_function(h, x, order)
    power = out = PolyFunction.constant(1, h.dim, order)
    for r in range(1, degree + 1):
        power = power * base
        out = out + power.scale(Fraction(1, math.factorial(r)))
    return out


def module_action(env: EnvelopingHopf, q, sym: Coalgebra, u: FinVec, m: FinVec) -> FinVec:
    """Left U(g)-action on S(h): each word of u acts on the vector m by its
    letters, rightmost first, each letter by ``derivation_action`` of its
    representative in h."""
    def act_word(word: tuple) -> FinVec:
        acc = m
        for letter in reversed(word):
            acc = derivation_action(q.source, sym, q.section.column(letter), acc)
        return acc

    return linear_sum(sym.basis, ((act_word(word), cu) for word, cu in u.entries.items()))


def left_center_build_mu(h, k: int, env_cap: int | None = None) -> FinMap:
    """mu of the full build of UAR(h) over the left center, on S(h)<=k: the
    envelope capped at ``env_cap`` (k + 1 by default), every PBW word acting
    on every monomial through :func:`module_action` as the columns of an
    action map, its table, and mu(a, b) = phi(a).b read from that table."""
    q = quotient_lie(h, z=left_center(h))
    env = enveloping_hopf(q.algebra, k + 1 if env_cap is None else env_cap)
    sym = symmetric_coalgebra(h.basis, k)
    action = FinMap.from_pairs(
        env.basis, sym.basis, tensor_basis(env.basis, sym.basis), sym.basis,
        lambda w, m: module_action(env, q, sym, FinVec.unit(env.basis, w),
                                   FinVec.unit(sym.basis, m)).entries)
    act = PairTable.from_map(action, env.basis, sym.basis)
    ph = phi_map(env, q, sym)
    return FinMap.from_pairs(sym.basis, sym.basis, sym.square, sym.basis,
                             lambda la, lb: times_label(act, ph.column(la).entries, lb))
