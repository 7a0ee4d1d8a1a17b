"""Deformed products on polynomial functions and the exponential rack identities."""

import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exp_hat_by_powers, lie_rack_product_by_steps

from rackalg.errors import DecompositionFailure, LeibnizViolation, SchemaError
from rackalg.exact_core import FinVec, SeriesScalar, series_exp
import rackalg.star_product as star_product
from rackalg.fixtures import load
from rackalg.leibniz import LeibnizAlgebra, check_leibniz
from rackalg.star_product import (
    ExpFunction,
    PolyFunction,
    _first_hbar_difference,
    ad_tilde,
    check_hat_morphism,
    exp_hat,
    hat_function,
    lie_rack_product,
    monomial_function,
    psi_function,
    rack_exp,
    star,
    star_exp,
    star_rack_selfdist_check,
)

N = 5
CORPUS = ("abelian1", "abelian2", "abelian3", "sq2", "lie2", "heis3", "sl2", "nonlie3")


def vec(h, coords):
    return FinVec.build(h.basis, {lab: Fraction(c) for lab, c in coords.items()})


def small_vec(h, seed):
    coords = {}
    for lab in h.basis.labels:
        seed = seed * 48271 % 2147483647
        coords[lab] = seed % 7 - 3
    return vec(h, coords)


small_coeff = st.integers(min_value=-3, max_value=3)


def poly_strategy(nvars, order, max_degree=3):
    expts = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * nvars)
    return st.dictionaries(expts, small_coeff, max_size=4).map(
        lambda d: PolyFunction.build(nvars, order, {m: Fraction(c) for m, c in d.items()}))


class TestPolyFunction:
    def test_build_prunes_and_accumulates(self):
        f = PolyFunction.build(2, N, [((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
        assert f.terms == {(0, 1): SeriesScalar.constant(1, N)}
        assert PolyFunction.build(2, N, {}).is_zero
        assert PolyFunction.constant(0, 2, N).is_zero

    def test_schema_rejections(self):
        with pytest.raises(SchemaError):
            PolyFunction(2, N, {(1,): SeriesScalar.one(N)})
        with pytest.raises(SchemaError):
            PolyFunction(2, N, {(1, 0): Fraction(1)})
        with pytest.raises(SchemaError):
            PolyFunction(2, N, {(1, -1): SeriesScalar.one(N)})
        with pytest.raises(SchemaError):
            PolyFunction.constant(1, 2, N) + PolyFunction.constant(1, 2, N + 1)
        with pytest.raises(SchemaError):
            PolyFunction.constant(1, 2, N) * PolyFunction.constant(1, 3, N)

    def test_degree_truncate_at_zero(self):
        f = PolyFunction.build(2, N, [((2, 1), 1), ((0, 0), 7)])
        assert f.degree == 3
        assert f.truncate(2) == PolyFunction.constant(7, 2, N)
        assert f.at_zero() == SeriesScalar.constant(7, N)
        assert f.truncate(0).degree == 0

    def test_scale_by_hbar_prunes_annihilated_terms(self):
        top = SeriesScalar.make([0, 0, 0, 0, 1], N)
        f = PolyFunction.build(2, N, [((1, 0), top), ((0, 1), 1)])
        g = f.scale(SeriesScalar.hbar(N))
        assert (1, 0) not in g.terms
        assert g.terms[(0, 1)] == SeriesScalar.hbar(N)

    @given(poly_strategy(2, 4), poly_strategy(2, 4), poly_strategy(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_ring_identities(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == PolyFunction.zero(2, 4)

    @given(poly_strategy(2, 4), poly_strategy(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_partial_is_a_derivation(self, a, b):
        for pos in range(2):
            assert (a * b).partial(pos) == a.partial(pos) * b + a * b.partial(pos)


class TestHatFunctions:
    def test_hat_is_linear_coordinates(self):
        h = load("lie2")
        f = hat_function(h, vec(h, {1: 3, 2: -2}), N)
        assert f.terms == {(1, 0): SeriesScalar.constant(3, N),
                           (0, 1): SeriesScalar.constant(-2, N)}
        with pytest.raises(SchemaError):
            hat_function(h, FinVec.unit(load("sl2").basis, 1), N)

    def test_monomial_and_psi_agree(self):
        h = load("heis3")
        assert monomial_function(h, (1, 2, 2), N).terms == {
            (1, 2, 0): SeriesScalar.one(N)}
        f = hat_function(h, vec(h, {1: 1}), N) * hat_function(h, vec(h, {2: 1}), N)
        assert monomial_function(h, (1, 2), N) == f

    def test_psi_is_injective_on_the_window(self):
        # Distinct monomial labels land on distinct single exponent tuples.
        from rackalg.symcoalg import _sym_monomials
        h = load("heis3")
        seen = {}
        for mono in _sym_monomials(h.basis, 3):
            f = monomial_function(h, mono, N)
            (expt, c), = f.terms.items()
            assert c == SeriesScalar.one(N)
            assert expt not in seen
            seen[expt] = mono

    def test_exp_hat_matches_series_expansion(self):
        h = load("abelian2")
        f = exp_hat(h, vec(h, {1: 1}), N, 3)
        assert f.terms == {(r, 0): SeriesScalar.constant(Fraction(1, math.factorial(r)), N)
                           for r in range(4)}


class TestAdTilde:
    def test_abelian_gives_zero(self):
        h = load("abelian3")
        f = PolyFunction.build(3, N, [((2, 1, 0), 5), ((0, 0, 3), -1)])
        for i in h.basis.labels:
            assert ad_tilde(h, i, f).is_zero

    def test_standard_lie2_values(self):
        h = load("lie2")
        a1 = hat_function(h, vec(h, {1: 1}), N)
        a2 = hat_function(h, vec(h, {2: 1}), N)
        assert ad_tilde(h, 1, a2) == a2
        assert ad_tilde(h, 1, a1).is_zero
        assert ad_tilde(h, 2, a1) == -a2
        assert ad_tilde(h, 2, a2).is_zero

    def test_matches_bracket_on_linear_coordinates(self):
        for name in CORPUS:
            h = load(name)
            x = small_vec(h, 11)
            y = small_vec(h, 23)
            lhs = PolyFunction.zero(h.dim, N)
            for i, c in x.entries.items():
                lhs = lhs + ad_tilde(h, i, hat_function(h, y, N)).scale(c)
            assert lhs == hat_function(h, h.bracket_of(x, y), N)

    @given(poly_strategy(3, 4), poly_strategy(3, 4))
    @settings(max_examples=25, deadline=None)
    def test_derivation_product_rule(self, f, g):
        h = load("sl2")
        for i in h.basis.labels:
            assert ad_tilde(h, i, f * g) == ad_tilde(h, i, f) * g + f * ad_tilde(h, i, g)

    def test_schema_rejections(self):
        h = load("sl2")
        with pytest.raises(SchemaError):
            ad_tilde(h, 4, monomial_function(h, (1,), N))
        with pytest.raises(SchemaError):
            ad_tilde(h, 1, PolyFunction.constant(1, 2, N))

    def test_preserves_polynomial_degree(self):
        h = load("sl2")
        f = monomial_function(h, (1, 2, 3), N)
        out = ad_tilde(h, 2, f)
        assert all(sum(m) == 3 for m in out.terms)


class TestStar:
    def test_constant_left_factor_evaluates_at_zero(self):
        h = load("sl2")
        g = PolyFunction.build(3, N, [((1, 1, 0), 2), ((0, 0, 2), -3)])
        f = PolyFunction.constant(Fraction(5, 2), 3, N)
        assert star(h, f, g) == g.scale(Fraction(5, 2))

    def test_lie2_generator_pairing(self):
        h = load("lie2")
        a1 = hat_function(h, vec(h, {1: 1}), N)
        a2 = hat_function(h, vec(h, {2: 1}), N)
        assert star(h, a1, a2) == a2.scale(SeriesScalar.hbar(N))

    def test_linear_coordinates_give_hbar_bracket(self):
        for name in CORPUS:
            h = load(name)
            x = small_vec(h, 5)
            y = small_vec(h, 17)
            got = star(h, hat_function(h, x, N), hat_function(h, y, N))
            want = hat_function(h, h.bracket_of(x, y), N).scale(SeriesScalar.hbar(N))
            assert got == want, name

    def test_hbar_order_tracks_jet_degree(self):
        h = load("sl2")
        g = exp_hat(h, small_vec(h, 29), N, N - 1)
        f = monomial_function(h, (1, 2), N) + monomial_function(h, (3, 3, 3), N)
        out = star(h, f, g)
        # f has jets only in degrees 2 and 3, so only hbar^2 and hbar^3 survive.
        for c in out.terms.values():
            assert c.coeffs[0] == 0 and c.coeffs[1] == 0 and c.coeffs[4] == 0

    def test_jets_at_or_beyond_the_order_vanish(self):
        h = load("sl2")
        f = monomial_function(h, (1,) * N, N)
        g = exp_hat(h, small_vec(h, 3), N, N - 1)
        assert star(h, f, g).is_zero

    def test_schema_rejections(self):
        h = load("lie2")
        f = PolyFunction.constant(1, 2, N)
        with pytest.raises(SchemaError):
            star(h, f, PolyFunction.constant(1, 3, N))
        with pytest.raises(SchemaError):
            star(h, f, PolyFunction.constant(1, 2, N + 1))
        with pytest.raises(SchemaError):
            star(load("sl2"), f, f)


def star_by_orderings(h, f, g):
    """The jet sum of the module docstring, term by term: (1/r!) sum over all r! orderings.

    A monomial c alpha^m has r-th derivatives at 0 only along orderings of
    the letters of m, so each of the r! permutations of those letters
    contributes c times its ad~ chain into g.
    """
    terms = []
    for m, c in f.terms.items():
        r = sum(m)
        if r >= f.order:
            continue
        letters = [h.basis.labels[p] for p in range(h.dim) for _ in range(m[p])]
        for seq in itertools.permutations(letters):
            chain = g
            for i in reversed(seq):
                chain = ad_tilde(h, i, chain)
            terms.append((chain, c.shift(r) * Fraction(1, math.factorial(r))))
    return PolyFunction.linear_sum(h.dim, f.order, terms)


class TestStarRecursion:
    @pytest.mark.parametrize("name", ["lie2", "heis3", "sl2"])
    def test_matches_the_sum_over_all_orderings(self, name):
        h = load(name)

        # Series-valued left factors reach star in star_rack_selfdist_check.
        polys = st.one_of(poly_strategy(h.dim, 4), series_poly_strategy(h.dim, 4))

        @given(polys, polys)
        @settings(max_examples=25, deadline=None)
        def check(f, g):
            assert star(h, f, g) == star_by_orderings(h, f, g)

        check()

    def test_ad_tilde_runs_once_per_sub_multiset_and_letter(self, monkeypatch):
        # star applies the row-level ad~ kernel, one call per (sub-multiset, letter).
        h = load("sl2")
        order = 6
        calls = []
        kernel = star_product._ad_rows

        def counting(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(star_product, "_ad_rows", counting)
        star_exp(h, vec(h, {1: 1, 2: -2, 3: 1}), vec(h, {1: 2, 2: 1, 3: -1}), order)
        # Non-empty sub-multisets of at most order - 1 letters, times their distinct letters.
        pairs = sum(sum(1 for e in m if e)
                    for m in itertools.product(range(order), repeat=h.dim) if 0 < sum(m) < order)
        assert pairs == 105
        assert 0 < len(calls) <= pairs


def ad_tilde_by_partials(h, i, f):
    """Reference oracle: sum_j hat([e_i, e_j]) * df/dalpha_j with the polynomial product."""
    out = PolyFunction.zero(h.dim, f.order)
    for j in h.basis.labels:
        out = out + hat_function(h, h.table.vector(i, j), f.order) * f.partial(
            h.basis.index(j))
    return out


nonzero_coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])


def series_poly_strategy(nvars, order, max_degree=3):
    """Polynomials whose every coefficient has nonzero hbar^1 and hbar^2 terms."""
    expts = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * nvars)
    coeff = st.tuples(small_coeff, nonzero_coeff, nonzero_coeff).map(
        lambda cs: SeriesScalar.make(cs, order))
    return st.dictionaries(expts, coeff, max_size=4).map(
        lambda d: PolyFunction.build(nvars, order, d))


def assert_trusted(p):
    """A result built without validation passes the public constructor and stores no zero."""
    assert PolyFunction(p.nvars, p.order, dict(p.terms)) == p
    assert all(p.terms.values())


class TestKernelOracles:
    @pytest.mark.parametrize("name", CORPUS)
    def test_ad_tilde_matches_the_partials_formula(self, name):
        h = load(name)

        @given(st.one_of(poly_strategy(h.dim, 4), series_poly_strategy(h.dim, 4)))
        @settings(max_examples=15, deadline=None)
        def check(f):
            for i in h.basis.labels:
                got = ad_tilde(h, i, f)
                assert got == ad_tilde_by_partials(h, i, f)
                assert_trusted(got)

        check()

    @pytest.mark.parametrize("name", ["lie2", "sq2", "heis3", "sl2"])
    def test_exp_hat_matches_the_power_series(self, name):
        h = load(name)
        coords = st.lists(small_coeff, min_size=h.dim, max_size=h.dim)

        @given(coords, coords, st.integers(min_value=2, max_value=4),
               st.sampled_from(["int", "fraction", "series"]), st.integers(min_value=2, max_value=5),
               st.integers(min_value=0, max_value=4))
        @settings(max_examples=30, deadline=None)
        def check(a, b, den, kind, order, degree):
            x = FinVec.build(h.basis, dict(zip(h.basis.labels, a)))
            if kind == "fraction":
                x = x.scale(Fraction(1, den))
            elif kind == "series":
                x = lie_rack_product(h, x, FinVec.build(h.basis, dict(zip(h.basis.labels, b))),
                                     order)
            got = exp_hat(h, x, order, degree)
            assert got == exp_hat_by_powers(h, x, order, degree)
            assert_trusted(got)

        check()

    def test_exp_hat_below_the_lossless_degree_is_a_truncation(self):
        h = load("sl2")
        x = lie_rack_product(h, small_vec(h, 5), small_vec(h, 12), N)
        assert x.entries and all(isinstance(c, SeriesScalar) for _, c in x)
        full = exp_hat(h, x, N, N - 1)
        for degree in range(N - 1):
            assert exp_hat(h, x, N, degree) == full.truncate(degree)

    def test_exp_hat_schema_rejections(self):
        h = load("sl2")
        with pytest.raises(SchemaError):
            exp_hat(h, small_vec(load("lie2"), 1), N, 2)
        with pytest.raises(SchemaError):
            exp_hat(h, lie_rack_product(h, small_vec(h, 1), small_vec(h, 2), N + 1), N, 2)


def rescaled(h, s):
    """h in the basis e_i / s: [e_i/s, e_j/s] = sum_k (c_ij^k / s) e_k/s, so
    every structure constant c becomes the rational c / s."""
    return LeibnizAlgebra(h.basis, {jk: v.scale(Fraction(1, s)) for jk, v in h.bracket.items()})


class TestRationalStructureConstants:
    @pytest.mark.parametrize("name", ["sl2", "heis3"])
    @pytest.mark.parametrize("s", [2, 3])
    def test_star_matches_the_orderings_and_stays_exact(self, name, s):
        h = rescaled(load(name), s)
        check_leibniz(h)
        assert any(type(c) is Fraction for v in h.bracket.values() for c in v.entries.values())
        polys = st.one_of(poly_strategy(h.dim, 4), series_poly_strategy(h.dim, 4))

        @given(polys, polys)
        @settings(max_examples=15, deadline=None)
        def check(f, g):
            got = star(h, f, g)
            assert got == star_by_orderings(h, f, g)
            assert_trusted(got)
            assert not [c for v in got.terms.values() for c in v.coeffs
                        if type(c) is Fraction and c.denominator == 1]
            for i in h.basis.labels:
                d = ad_tilde(h, i, f)
                assert d == ad_tilde_by_partials(h, i, f)
                assert_trusted(d)

        check()

    @pytest.mark.parametrize("s", [2, 3])
    def test_exponential_identities(self, s):
        h = rescaled(load("sl2"), s)
        x, y, z = small_vec(h, 3), small_vec(h, 9), small_vec(h, 15)
        assert_trusted(star_exp(h, x, y, 4))
        assert star_rack_selfdist_check(h, x, y, z, 3).passed


class TestTrustedResults:
    def test_outputs_revalidate_and_store_no_zero_term(self):
        h = load("sl2")
        x, y, z = small_vec(h, 2), small_vec(h, 6), small_vec(h, 14)
        f, g = exp_hat(h, x, N, N - 1), exp_hat(h, y, N, N - 1)
        for out in (f, ad_tilde(h, 2, g), star(h, f, g), star_exp(h, x, y, N),
                    exp_hat(h, lie_rack_product(h, x, z, N), N, N - 1),
                    star(h, f, star(h, g, exp_hat(h, z, N, 2)))):
            assert not out.is_zero
            assert_trusted(out)

    def test_integral_coefficients_are_stored_as_ints(self):
        # 1/r! weights meet integer coordinates: 2^2 / 2! must come out as the int 2
        h = load("sl2")
        x, y = vec(h, {1: 2, 2: -2, 3: 1}), vec(h, {1: 2, 2: 1, 3: -1})
        series = [s for f in (exp_hat(h, vec(h, {1: 2}), 3, 2), star_exp(h, x, y, 4))
                  for s in f.terms.values()]
        series += list(lie_rack_product(h, x, y, 6).entries.values())
        series.append(SeriesScalar.make([1, 2], 2) * Fraction(1, 2))
        coeffs = [c for s in series for c in s.coeffs]
        assert sum(type(c) is Fraction for c in coeffs) > 0
        assert [c for c in coeffs if type(c) is Fraction and c.denominator == 1] == []

    def test_cancelled_terms_are_dropped(self):
        # The Casimir a3^2 + 4 a1 a2 of sl2 is ad-invariant, so every ad~ of it
        # and every jet of a linear left factor against it cancel to zero.
        h = load("sl2")
        casimir = PolyFunction.build(3, N, {(0, 0, 2): 1, (1, 1, 0): 4})
        for i in h.basis.labels:
            assert ad_tilde(h, i, casimir).terms == {}
            assert star(h, hat_function(h, FinVec.unit(h.basis, i), N), casimir).terms == {}
        out = star(h, exp_hat(h, small_vec(h, 8), N, N - 1), casimir)
        assert out == casimir
        assert_trusted(out)


def test_importing_the_package_loads_no_sympy():
    src = pathlib.Path(star_product.__file__).resolve().parents[1]
    modules = ["star_product", "deformation", "rack_bialg", "right_hopf_dialg",
               "env_hopf", "groups", "leibniz", "jsonio", "fixtures"]
    code = ("import sys\n"
            + "".join(f"import rackalg.{name}\n" for name in modules)
            + "assert 'sympy' not in sys.modules, sorted(m for m in sys.modules if 'sympy' in m)[:5]\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestLieRackProduct:
    def test_abelian_fixes_the_right_argument(self):
        h = load("abelian2")
        y = vec(h, {1: 2, 2: -1})
        out = lie_rack_product(h, vec(h, {1: 1}), y, N)
        assert out == FinVec.build(h.basis, {lab: SeriesScalar.constant(c, N)
                                             for lab, c in y.entries.items()})

    def test_lie2_exponential_eigenvector(self):
        h = load("lie2")
        out = lie_rack_product(h, vec(h, {1: 1}), vec(h, {2: 1}), N)
        assert out == FinVec.build(h.basis, {2: series_exp(SeriesScalar.hbar(N))})

    def test_square_fixture_truncates_after_one_step(self):
        h = load("sq2")
        out = lie_rack_product(h, vec(h, {1: 1}), vec(h, {1: 1}), N)
        assert out == FinVec.build(h.basis, {1: SeriesScalar.one(N),
                                             2: SeriesScalar.hbar(N)})

    def test_zero_arguments(self):
        h = load("sl2")
        x = small_vec(h, 7)
        assert lie_rack_product(h, FinVec.zero(h.basis), x, N) == FinVec.build(
            h.basis, {lab: SeriesScalar.constant(c, N) for lab, c in x.entries.items()})
        assert lie_rack_product(h, x, FinVec.zero(h.basis), N).is_zero

    @pytest.mark.parametrize("name", ["sl2", "heis3"])
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_the_bracket_at_every_step(self, name, order):
        # oracle: each step brackets x against the previous term directly
        h = load(name)
        for seed in (1, 2, 3):
            x, y = small_vec(h, seed), small_vec(h, seed + 10)
            assert lie_rack_product(h, x, y, order) == lie_rack_product_by_steps(h, x, y, order)


class TestStarExp:
    def test_abelian_left_factor_drops_out(self):
        h = load("abelian2")
        y = vec(h, {1: 2})
        out = star_exp(h, vec(h, {1: 3, 2: -1}), y, 4)
        assert out == exp_hat(h, y, 4, 3)

    def test_lie2_frozen_series(self):
        # e^{hbar ad_{e1}} e2 = e^hbar e2, so the product is exp(e^hbar alpha_2).
        h = load("lie2")
        out = star_exp(h, vec(h, {1: 1}), vec(h, {2: 1}), N)
        e = series_exp(SeriesScalar.hbar(N))
        power = SeriesScalar.one(N)
        for d in range(N):
            assert out.terms[(0, d)] == power * Fraction(1, math.factorial(d))
            power = power * e

    def test_self_pairing_all_fixtures(self):
        for name in CORPUS:
            h = load(name)
            x = small_vec(h, 13)
            star_exp(h, x, x, 4)

    def test_random_pairs_all_fixtures(self):
        for name in CORPUS:
            h = load(name)
            for seed in (1, 2, 3):
                star_exp(h, small_vec(h, seed), small_vec(h, seed + 40), 4)

    def test_lower_degree_cap_compares_matching_jets(self):
        h = load("sl2")
        out = star_exp(h, small_vec(h, 9), small_vec(h, 31), 4, degree=2)
        assert out.degree <= 2


class TestExpFunction:
    def test_product_adds_exponents(self):
        h = load("sl2")
        a, b = ExpFunction(small_vec(h, 3), 4), ExpFunction(small_vec(h, 19), 4)
        assert (a * b).vector == a.vector + b.vector
        full = a.expand(h) * b.expand(h)
        assert full.truncate(3) == (a * b).expand(h)

    def test_rack_image_is_the_deformed_product(self):
        h = load("heis3")
        a, b = ExpFunction(small_vec(h, 8), N), ExpFunction(small_vec(h, 21), N)
        assert star(h, a.expand(h), b.expand(h)) == rack_exp(h, a, b).expand(h)

    def test_schema_rejections(self):
        h = load("sl2")
        with pytest.raises(SchemaError):
            ExpFunction(small_vec(h, 1), 4) * ExpFunction(small_vec(h, 1), 5)
        with pytest.raises(SchemaError):
            ExpFunction(small_vec(h, 1), 4) * ExpFunction(small_vec(load("lie2"), 1), 4)


class TestSelfDistributivity:
    def test_zero_right_argument(self):
        h = load("lie2")
        rep = star_rack_selfdist_check(h, vec(h, {1: 1}), vec(h, {2: 1}),
                                       FinVec.zero(h.basis), 4)
        assert rep.passed

    def test_abelian(self):
        h = load("abelian3")
        rep = star_rack_selfdist_check(h, small_vec(h, 1), small_vec(h, 2),
                                       small_vec(h, 3), 4)
        assert rep.passed

    def test_square_fixture_random_triples(self):
        h = load("sq2")
        for seed in (1, 5, 9, 13):
            rep = star_rack_selfdist_check(h, small_vec(h, seed), small_vec(h, seed + 1),
                                           small_vec(h, seed + 2), N)
            assert rep.passed and rep.checked == 2

    def test_remaining_fixtures_one_triple_each(self):
        for name in ("lie2", "heis3", "nonlie3"):
            h = load(name)
            assert star_rack_selfdist_check(h, small_vec(h, 4), small_vec(h, 6),
                                            small_vec(h, 10), N).passed

    def test_sl2_full_order(self):
        h = load("sl2")
        rep = star_rack_selfdist_check(h, vec(h, {1: 1, 2: -1}), vec(h, {3: 2}),
                                       vec(h, {1: 1, 3: 1}), 6)
        assert rep.passed

    def test_non_leibniz_bracket_fails_with_witness(self):
        # [e1,e2] = e1 violates the Leibniz identity on the triple (1,2,2).
        bad = LeibnizAlgebra.from_table(2, {(1, 2): {1: 1}}, name="bad2")
        with pytest.raises(LeibnizViolation):
            check_leibniz(bad)
        with pytest.raises(DecompositionFailure) as exc:
            star_rack_selfdist_check(bad, vec(bad, {1: 1}), vec(bad, {2: 1}),
                                     vec(bad, {2: 1}), 4)
        assert exc.value.identity == "rack self-distributivity"

    def test_first_hbar_difference_reports_lowest_power(self):
        a = PolyFunction.build(2, 4, [((1, 0), SeriesScalar.make([1, 0, 2, 0], 4))])
        b = PolyFunction.build(2, 4, [((1, 0), SeriesScalar.make([1, 0, 5, 0], 4))])
        power, row_a, row_b = _first_hbar_difference(a, b)
        assert power == 2
        assert row_a == {(1, 0): Fraction(2)} and row_b == {(1, 0): Fraction(5)}
        assert _first_hbar_difference(a, a) == (-1, {}, {})


class TestHatMorphism:
    def test_square_fixture_full_window(self):
        rep = check_hat_morphism(load("sq2"), 3)
        assert rep.passed and rep.checked == 155

    def test_lie2_full_window(self):
        assert check_hat_morphism(load("lie2"), 3).passed

    def test_heisenberg(self):
        assert check_hat_morphism(load("heis3"), 3).passed

    def test_sl2(self):
        assert check_hat_morphism(load("sl2"), 2).passed

    def test_non_lie_leibniz(self):
        # nonlie3, [e1, e1] = [e1, e2] = e3: left Leibniz but not Lie, the paper's case.
        rep = check_hat_morphism(load("nonlie3"), 3)
        assert rep.passed and rep.checked == 544


class TestTruncationRejections:
    """An hbar order below 1 or a negative polynomial degree is refused with
    a SchemaError at every entry point, before any arithmetic."""

    def test_exp_hat(self):
        h = load("sl2")
        for order, degree in ((0, 0), (-1, 2), (3, -1)):
            with pytest.raises(SchemaError):
                exp_hat(h, small_vec(h, 1), order, degree)

    def test_lie_rack_product(self):
        h = load("sl2")
        for order in (0, -2):
            with pytest.raises(SchemaError):
                lie_rack_product(h, small_vec(h, 1), small_vec(h, 2), order)

    def test_star_exp(self):
        h = load("sl2")
        for order, degree in ((0, None), (0, 0), (3, -2)):
            with pytest.raises(SchemaError):
                star_exp(h, small_vec(h, 1), small_vec(h, 2), order, degree=degree)

    def test_star_rack_selfdist_check(self):
        h = load("sl2")
        x, y, z = small_vec(h, 1), small_vec(h, 2), small_vec(h, 3)
        for order, degree in ((0, None), (0, 0), (3, -1)):
            with pytest.raises(SchemaError):
                star_rack_selfdist_check(h, x, y, z, order, degree)

    def test_exp_function(self):
        h = load("sl2")
        for order in (0, -1):
            with pytest.raises(SchemaError):
                ExpFunction(small_vec(h, 1), order)
        with pytest.raises(SchemaError):
            ExpFunction(small_vec(h, 1), 3).expand(h, -1)


# Every hbar order 1-5 with every polynomial degree 0 .. order - 1.
CUTS = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n - 1)))
KINDS = st.sampled_from(["int", "fraction", "series"])


@st.composite
def vectors(draw, h, order, kind):
    """A vector of h in int, Fraction or series coordinates; a series has a
    drawn constant term and rational higher terms."""
    values = draw(st.lists(small_coeff, min_size=h.dim, max_size=h.dim))
    if kind == "fraction":
        den = draw(st.integers(min_value=2, max_value=4))
        values = [Fraction(v, den) for v in values]
    elif kind == "series":
        tail = st.builds(Fraction, small_coeff, st.integers(min_value=1, max_value=3))
        values = [SeriesScalar.make([v] + draw(st.lists(tail, min_size=order - 1,
                                                         max_size=order - 1)), order)
                  for v in values]
    return FinVec.build(h.basis, dict(zip(h.basis.labels, values)))


def assert_trusted_vector(v, order):
    """Coordinates are nonzero series of ``order`` that store integral values as ints."""
    assert all(isinstance(c, SeriesScalar) and c.order == order and c for c in v.entries.values())
    assert not [q for c in v.entries.values() for q in c.coeffs
                if type(q) is Fraction and q.denominator == 1]


def corpus_algebra(name, s):
    return load(name) if s == 1 else rescaled(load(name), s)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("name", CORPUS)
class TestExponentialKernelOracles:
    """The integer-row kernels of exp(hat x) and exp(hbar ad_x) against their
    defining series (tests/oracles.py), on every fixture of the corpus in its
    own basis and in the bases e_i / 2 and e_i / 3."""

    def test_exp_hat_matches_the_powers(self, name, s):
        h = corpus_algebra(name, s)

        @given(CUTS, KINDS, st.data())
        @settings(max_examples=8, deadline=None)
        def check(cut, kind, data):
            order, degree = cut
            x = data.draw(vectors(h, order, kind))
            got = exp_hat(h, x, order, degree)
            assert got == exp_hat_by_powers(h, x, order, degree)
            assert_trusted(got)

        check()

    def test_lie_rack_product_matches_the_steps(self, name, s):
        h = corpus_algebra(name, s)

        @given(CUTS, KINDS, KINDS, st.data())
        @settings(max_examples=8, deadline=None)
        def check(cut, kind_x, kind_y, data):
            order = cut[0]
            x, y = data.draw(vectors(h, order, kind_x)), data.draw(vectors(h, order, kind_y))
            got = lie_rack_product(h, x, y, order)
            assert got == lie_rack_product_by_steps(h, x, y, order)
            assert_trusted_vector(got, order)

        check()

    def test_star_exp_matches_both_sides_by_the_oracles(self, name, s):
        h = corpus_algebra(name, s)

        @given(CUTS, KINDS, KINDS, st.data())
        @settings(max_examples=6, deadline=None)
        def check(cut, kind_x, kind_y, data):
            order, degree = cut
            x, y = data.draw(vectors(h, order, kind_x)), data.draw(vectors(h, order, kind_y))
            got = star_exp(h, x, y, order, degree)
            assert got == star(h, exp_hat_by_powers(h, x, order, order - 1),
                               exp_hat_by_powers(h, y, order, degree))
            assert got == exp_hat_by_powers(h, lie_rack_product_by_steps(h, x, y, order),
                                            order, degree)
            assert_trusted(got)

        check()


def drop_half_of_degree_two(kernel):
    """``_exp_rows`` with the 1/2! of its degree-2 coefficients dropped."""
    def broken(*args):
        rows, den = kernel(*args)
        return {m: [2 * c for c in r] if sum(m) == 2 else r for m, r in rows.items()}, den
    return broken


class TestExponentialIdentityFailures:
    """For scalar x, exp(hbar D_x) with D_x = sum x_i ad~_i is the exponential of
    a derivation, hence an automorphism, for any bilinear bracket, so no
    bracket reaches these two identities: a broken exponential kernel does."""

    def test_exponential_rack_identity(self, monkeypatch):
        h = load("sl2")
        x, y = small_vec(h, 3), small_vec(h, 9)
        monkeypatch.setattr(star_product, "_exp_rows", drop_half_of_degree_two(
            star_product._exp_rows))
        with pytest.raises(DecompositionFailure) as exc:
            star_exp(h, x, y, 4)
        power, row_l, row_r = _first_hbar_difference(
            star(h, exp_hat(h, x, 4, 3), exp_hat(h, y, 4, 3)),
            exp_hat(h, lie_rack_product(h, x, y, 4), 4, 3))
        assert power == 2
        assert exc.value.identity == "exponential rack identity"
        assert exc.value.witness == (dict(x.entries), dict(y.entries), "hbar^2")
        assert (exc.value.lhs, exc.value.rhs) == (row_l, row_r)

    def test_exponential_self_distributivity(self, monkeypatch):
        h = load("sl2")
        x, y, z = small_vec(h, 3), small_vec(h, 9), small_vec(h, 15)
        monkeypatch.setattr(star_product, "_exp_rows", drop_half_of_degree_two(
            star_product._exp_rows))
        with pytest.raises(DecompositionFailure) as exc:
            star_rack_selfdist_check(h, x, y, z, 4)
        f_x, f_y, g_z = (exp_hat(h, v, 4, 3) for v in (x, y, z))
        power, row_l, row_r = _first_hbar_difference(
            star(h, f_x, star(h, f_y, g_z)), star(h, star(h, f_x, f_y), star(h, f_x, g_z)))
        assert power == 3
        assert exc.value.identity == "exponential self-distributivity"
        assert exc.value.witness == (dict(x.entries), dict(y.entries), dict(z.entries),
                                     "hbar^3")
        assert (exc.value.lhs, exc.value.rhs) == (row_l, row_r)


ROW_KERNELS = ("_ad_rows", "_star", "_exp_rows", "_exp_ad_rows", "_conv", "_same")
ROW_ENTRY_POINTS = ("exp_hat", "lie_rack_product", "star_exp", "star_rack_selfdist_check")
BOXED = {"SeriesScalar", "PolyFunction", "FinVec"}


def names_in_body(name):
    """Names and attributes read in the body of a module-level function of
    star_product, annotations left out."""
    tree = ast.parse(pathlib.Path(star_product.__file__).read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("name", ROW_KERNELS)
def test_row_kernels_name_no_series_polynomial_or_vector(name):
    assert names_in_body(name) & BOXED == set()


@pytest.mark.parametrize("name", ROW_ENTRY_POINTS)
def test_row_entry_points_convert_only_through_the_boundary_helpers(name):
    # _vec_rows converts on the way in, _poly and _vec on the way out.
    names = names_in_body(name)
    assert names & BOXED == set()
    assert "_vec_rows" in names and names & {"_poly", "_vec"}
