"""Enveloping algebra of a Lie algebra as a Hopf algebra, degree-capped.

The basis is the set of Poincare-Birkhoff-Witt monomials: words sorted in the
basis order of the Lie algebra, of length at most ``cap``.  Products
straighten arbitrary words by the diamond lemma (swap an adjacent inversion,
pay a bracket term), which terminates because (length, inversion count)
drops.  Since the bracket lowers word length, straightening never leaves the
cap; only concatenation can, and then :class:`DegreeCapExceeded` is raised
rather than silently truncating.

In the PBW basis the coproduct takes the same binomial form as in the
symmetric coalgebra (subwords of sorted words are sorted), so the coalgebra
is shared with :mod:`rackalg.symcoalg`.  The antipode reverses words with a
parity sign.

:class:`HopfBackend` is the interface the rack and dialgebra constructions
use for a cocommutative Hopf algebra.  :class:`EnvelopingHopf` implements it,
and so does :class:`HopfAlgebra`, the record of K[G] and of the one-sided
Hopf algebras; no caller dispatches on the concrete type.  Every backend is
certified by the record certifier of :mod:`rackalg.right_hopf_dialg`.

The second half of the module is the adjoint machinery for a Leibniz algebra
h with Lie quotient g = h/z: U(g) acts on the truncated S(h) by bracket
derivations, S(g) maps into U(g) by symmetrization, and phi is the composite
S(h) -> S(g) -> U(g).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Protocol, runtime_checkable

from rackalg.errors import AxiomViolation, DegreeCapExceeded, SchemaError
from rackalg.exact_core import (
    ONE,
    Basis,
    Coeff,
    FinMap,
    FinVec,
    Label,
    PairTable,
    _accumulate,
    _require_basis,
    _require_degree,
    bilinear,
    div,
    label_times,
    linear_sum,
    times_label,
)
from rackalg.leibniz import LeibnizAlgebra, QuotientLie, check_leibniz, is_lie
from rackalg.symcoalg import Coalgebra, sort_monomial, symmetric_coalgebra


@runtime_checkable
class HopfBackend(Protocol):
    """A cocommutative Hopf algebra on a labelled basis.

    ``table`` is the product on basis labels.  It holds the filtration
    degrees and the cap (``None`` when uncapped): ``table.degree`` and
    ``table.fits`` decide what lies under the cap, and reads of pairs beyond
    it are refused.  ``antipode`` is S; ``side`` is "two-sided", or "right"
    or "left" for a one-sided record.  ``adjoint(u, v)`` is ad_u(v) =
    sum u1 v S(u2).  The basis and unit are the coalgebra's.
    """

    coalgebra: Coalgebra
    table: PairTable
    antipode: FinMap
    side: str = "two-sided"

    @property
    def basis(self) -> Basis:
        return self.coalgebra.basis

    @property
    def unit(self) -> FinVec:
        return self.coalgebra.unit

    def product(self, a: FinVec, b: FinVec) -> FinVec: ...
    def adjoint(self, u: FinVec, v: FinVec) -> FinVec: ...


def _require_hopf(hopf: object, context: str) -> None:
    """Refuse, with SchemaError, anything but a Hopf algebra: a one-sided
    record, or an object that is no Hopf backend at all."""
    if getattr(hopf, "side", None) != "two-sided":
        raise SchemaError(f"{context} needs a Hopf algebra, not {type(hopf).__name__} "
                          f"with side {getattr(hopf, 'side', None)!r}")


@dataclass(frozen=True)
class HopfAlgebra(HopfBackend):
    """A cocommutative Hopf algebra (side "two-sided"), or a right or left
    one (:mod:`rackalg.right_hopf_dialg`), as one record.  A side outside the
    three, or a table or antipode over another basis, raises SchemaError.
    ``certified`` is set only by
    :func:`~rackalg.right_hopf_dialg.certify_one_sided`.
    """

    coalgebra: Coalgebra
    table: PairTable
    antipode: FinMap
    side: str = "two-sided"
    certified: bool = False

    def __post_init__(self) -> None:
        basis = self.coalgebra.basis
        if self.side not in ("two-sided", "right", "left"):
            raise SchemaError(f"side must be 'two-sided', 'right' or 'left', got {self.side!r}")
        if self.table.basis != basis:
            raise SchemaError(f"product table over {self.table.basis.name}, not {basis.name}")
        if self.antipode.domain != basis or self.antipode.codomain != basis:
            raise SchemaError("antipode must be an endomorphism of the carrier")

    def product(self, a: FinVec, b: FinVec) -> FinVec:
        return bilinear(self.table, a, b)

    def adjoint(self, u: FinVec, v: FinVec) -> FinVec:
        """ad_u(v) = sum u1 v S(u2): u1 v read from the row of u1, then each
        label of S(u2) from its column."""
        if v.basis is not self.basis:
            _require_basis(self.basis, v.basis)
        t, s = self.table, self.antipode
        out: dict[Label, Coeff] = {}
        for lu, cu in u.entries.items():
            for l1, l2, cw in self.coalgebra.legs(lu):
                left = label_times(t, l1, v.entries)
                for m, cm in s.column(l2).entries.items():
                    times_label(t, left, m, out, cu * cw * cm)
        return FinVec(self.basis, out)


@dataclass(frozen=True)
class EnvelopingHopf(HopfBackend):
    """U(g) up to filtration degree ``cap`` in the PBW monomial basis."""

    lie: LeibnizAlgebra
    cap: int
    coalgebra: Coalgebra
    # not init fields: a replaced copy (another algebra or cap) starts empty
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _ad_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def embed(self, x: FinVec) -> FinVec:
        """Inclusion g -> U(g) as length-one words."""
        return FinVec.build(self.basis, (((lab,), c) for lab, c in x.entries.items()))

    def straighten(self, word: Iterable[Label]) -> FinVec:
        """Expand an arbitrary word in the PBW basis."""
        word = tuple(word)
        if len(word) > self.cap:
            raise DegreeCapExceeded(len(word), self.cap, "straighten")
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        idx = self.lie.basis.index
        for i in range(len(word) - 1):
            if idx(word[i]) > idx(word[i + 1]):
                break
        else:
            result = FinVec.unit(self.basis, word)
            self._memo[word] = result
            return result
        x, y = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        result = linear_sum(self.basis, [(self.straighten(head + (y, x) + tail), ONE)] + [
            (self.straighten(head + (lab,) + tail), c)
            for lab, c in self.lie.table.entry(x, y).items()])
        self._memo[word] = result
        return result

    @cached_property
    def table(self) -> PairTable:
        """Products of two PBW words, every pair under the cap straightened
        once; the degree of a word is its length, and a pair beyond the cap
        is refused."""
        words = self.basis.labels
        return PairTable.build(
            self.basis, ((wa, wb, self.straighten(wa + wb)) for wa in words for wb in words
                         if len(wa) + len(wb) <= self.cap),
            degrees={w: len(w) for w in words if w}, cap=self.cap)

    def product(self, a: FinVec, b: FinVec) -> FinVec:
        return bilinear(self.table, a, b)

    @cached_property
    def antipode(self) -> FinMap:
        """Words reverse with a parity sign; reversal then straightens."""
        return FinMap.from_function(
            self.basis, self.basis,
            lambda w: self.straighten(tuple(reversed(w))).scale((-1) ** len(w)))

    def adjoint(self, u: FinVec, v: FinVec) -> FinVec:
        """ad_u(v), word by word of u and label by label of v (:meth:`_ad`);
        each letter needs one degree of headroom, as commutators keep the
        degree."""
        if v.basis is not self.basis:
            _require_basis(self.basis, v.basis)
        out: dict[Label, Coeff] = {}
        for word, cu in u.entries.items():
            for lab, cv in v.entries.items():
                _accumulate(out, cu * cv, self._ad(word, lab).items())
        return FinVec(self.basis, out)

    def _ad(self, word: tuple[Label, ...], lab: Label) -> Mapping[Label, Coeff]:
        """ad_word(lab) as a coefficient dict, memoised by (word, label).

        A letter x gives one commutator x lab - lab x, read from the table, so
        a pair beyond the cap is refused; a longer word (x,) + w applies it to
        each label of the memoised ad_w(lab), as ad_(x w) = ad_x o ad_w."""
        got = self._ad_memo.get((word, lab))
        if got is None:
            t = self.table
            if not word:
                got = {lab: ONE}
            elif len(word) == 1:
                got = times_label(t, {lab: ONE}, word, label_times(t, word, {lab: ONE}), -1)
            else:
                got = {}
                for m, c in self._ad(word[1:], lab).items():
                    _accumulate(got, c, self._ad(word[:1], m).items())
            self._ad_memo[word, lab] = got
        return got


def enveloping_hopf(lie: LeibnizAlgebra, cap: int, name: str | None = None) -> EnvelopingHopf:
    """Build U(g) for a genuine Lie algebra g (Jacobi and antisymmetry checked)."""
    _require_degree(cap, "envelope cap")
    check_leibniz(lie)
    if not is_lie(lie):
        raise AxiomViolation("antisymmetry", lie.basis.name,
                             "bracket table", "its opposite negated")
    return _envelope(lie, cap, name)


def _envelope(lie: LeibnizAlgebra, cap: int, name: str | None = None) -> EnvelopingHopf:
    """:func:`enveloping_hopf` of a Lie algebra the caller has checked, such
    as a quotient just built by :func:`~rackalg.leibniz.quotient_lie`."""
    coalg = symmetric_coalgebra(lie.basis, cap, name=name or f"U({lie.basis.name})<={cap}")
    return EnvelopingHopf(lie=lie, cap=cap, coalgebra=coalg)


# ---------------------------------------------------------------------------
# the adjoint module S(h) over U(g)
# ---------------------------------------------------------------------------


def derivation_action(h: LeibnizAlgebra, sym: Coalgebra, x: FinVec, m: FinVec) -> FinVec:
    """Extend ad_x = [x, -] on h to S(h) as a coalgebra derivation.

    Degree is preserved, so the truncated S(h) is closed under the action.
    Each [x, letter] is read from the bracket columns once per letter.
    """
    ad: dict[Label, dict[Label, Coeff]] = {}
    for mono in m.entries:
        for letter in mono:
            if letter not in ad:
                ad[letter] = times_label(h.table, x.entries, letter)
    return FinVec.build(sym.basis, (
        (sort_monomial(h.basis, mono[:i] + (lab,) + mono[i + 1:]), cm * c)
        for mono, cm in m.entries.items()
        for i, letter in enumerate(mono)
        for lab, c in ad[letter].items()))


def _word_action(q: QuotientLie, sym: Coalgebra) -> Callable[[tuple, Label], dict]:
    """act(w, m), the left U(g)-action on S(h) of a word w on a monomial m, as
    coefficient dicts memoised by (w, m) for one build.  A word acts by its
    letters, rightmost first: act(w, m) = x.act(w', m) for w = (x,) + w'.  A
    letter, a g-basis label, acts by :func:`derivation_action` of its
    representative in h, which is independent of the choice because the
    quotient kernel sits inside the left center."""
    memo: dict[tuple, dict[Label, Coeff]] = {}

    def act(word: tuple[Label, ...], mono: Label) -> dict[Label, Coeff]:
        got = memo.get((word, mono))
        if got is None:
            got = memo[word, mono] = {mono: ONE} if not word else derivation_action(
                q.source, sym, q.section.column(word[0]),
                FinVec(sym.basis, act(word[1:], mono))).entries
        return got

    return act


def _symmetrize_word(env: EnvelopingHopf, word: tuple[Label, ...]) -> FinVec:
    """Average of all orderings of the word, straightened into U(g)."""
    k = len(word)
    if k == 0:
        return env.unit
    weight = div(ONE, math.factorial(k))
    return linear_sum(env.basis, ((env.straighten(perm), weight)
                                  for perm in itertools.permutations(word)))


def symmetrize(env: EnvelopingHopf, v: FinVec) -> FinVec:
    """Coalgebra isomorphism S(g) -> U(g) on the shared monomial labels."""
    return linear_sum(env.basis, ((_symmetrize_word(env, mono), c)
                                  for mono, c in v.entries.items()))


def phi(env: EnvelopingHopf, q: QuotientLie, sym: Coalgebra, a: FinVec) -> FinVec:
    """S(h) -> U(g): push letters through the projection, then symmetrize."""
    def terms():
        for mono, cm in a.entries.items():
            images = [q.p(FinVec.unit(q.source.basis, letter)) for letter in mono]
            for combo in itertools.product(*(list(img.entries.items()) for img in images)):
                coeff = cm
                for _, c in combo:
                    coeff = coeff * c
                yield _symmetrize_word(env, tuple(lab for lab, _ in combo)), coeff

    return linear_sum(env.basis, terms())


def phi_map(env: EnvelopingHopf, q: QuotientLie, sym: Coalgebra) -> FinMap:
    return FinMap.from_function(
        sym.basis, env.basis,
        lambda mono: phi(env, q, sym, FinVec.unit(sym.basis, mono)))


__all__ = [
    "EnvelopingHopf", "HopfAlgebra", "HopfBackend", "derivation_action", "enveloping_hopf",
    "phi", "phi_map", "symmetrize",
]
