"""Exact linear algebra and truncated series: oracle checks and ring laws.

The dense oracle below re-implements kernel computation with textbook
Gauss-Jordan over Fraction matrices, independently of the sparse eliminator
under test.
"""

import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackalg
from oracles import flip_map, table_of, tensor_product_map
from rackalg.errors import DegreeCapExceeded
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    SeriesScalar,
    SpanSolver,
    _integer_roots,
    _kernel_coordinates,
    _rational_eigenvalues,
    bilinear,
    div,
    format_rational,
    kernel_basis,
    label_times,
    linear_sum,
    nullspace,
    rank,
    rank_of,
    rational,
    same_entries,
    scalar_eq,
    series_exp,
    span_basis,
    tensor_basis,
    tensor_sum,
    times_label,
)

F = Fraction


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------


def dense_kernel(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis via dense Gauss-Jordan; rows of `matrix` are equations."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    pivot_col_of_row: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_col_of_row.append(c)
        r += 1
    pivots = set(pivot_col_of_row)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for row_idx, pc in enumerate(pivot_col_of_row):
            vec[pc] = -m[row_idx][free]
        basis.append(vec)
    return basis


def map_as_matrix(f: FinMap) -> list[list[Fraction]]:
    rows = []
    for out_lab in f.codomain.labels:
        rows.append([f.column(lab)[out_lab] for lab in f.domain.labels])
    return rows


def span_of(vectors):
    """Row space as a canonical set of reduced rows, for basis comparison."""
    if not vectors:
        return frozenset()
    basis = vectors[0].basis
    mat = [[v[lab] for lab in basis.labels] for v in vectors]
    m = [row[:] for row in mat]
    nrows, ncols = len(m), basis.dim
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return frozenset(tuple(row) for row in m[:r])


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rational_round_trip():
    assert rational("3/4") == F(3, 4)
    assert rational("-7") == F(-7)
    assert rational(5) == F(5)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-2)) == "-2"
    assert format_rational(F(6, -8)) == "-3/4"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_exp_frozen_values():
    # exp(h) truncated at order 4: 1, 1, 1/2, 1/6
    e = series_exp(SeriesScalar.hbar(4))
    assert e.coeffs == (F(1), F(1), F(1, 2), F(1, 6))


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(SeriesScalar.one(4))


def test_series_exp_inverse_law():
    for order in (2, 3, 5, 8):
        s = SeriesScalar.make([0, 2, -1, "1/3"][: min(order, 4)], order)
        prod = series_exp(s) * series_exp(-s)
        assert prod == SeriesScalar.one(order)


def test_series_inverse_and_division():
    s = SeriesScalar.make([1, 1], 5)
    assert s * s.inverse() == SeriesScalar.one(5)
    # geometric series: 1/(1+h) = 1 - h + h^2 - ...
    assert s.inverse().coeffs == (F(1), F(-1), F(1), F(-1), F(1))
    with pytest.raises(ZeroDivisionError):
        SeriesScalar.hbar(3).inverse()


def test_series_shift_truncates():
    s = SeriesScalar.make([1, 2, 3], 3)
    assert s.shift(1).coeffs == (F(0), F(1), F(2))
    assert s.shift(3) == SeriesScalar.zero(3)


def test_series_mixed_order_rejected():
    with pytest.raises(ValueError):
        SeriesScalar.one(3) + SeriesScalar.one(4)


small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=8)


@st.composite
def series(draw, order=None):
    n = order if order is not None else draw(st.integers(min_value=1, max_value=8))
    coeffs = draw(st.lists(small_fracs, min_size=n, max_size=n))
    return SeriesScalar(tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(series(order=6), series(order=6), series(order=6))
def test_series_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + SeriesScalar.zero(6) == a
    assert a * SeriesScalar.one(6) == a


@settings(max_examples=40, deadline=None)
@given(series(order=5))
def test_series_inverse_round_trip(s):
    if not s.coeffs[0]:
        with pytest.raises(ZeroDivisionError):
            s.inverse()
    else:
        assert s * s.inverse() == SeriesScalar.one(5)


@settings(max_examples=40, deadline=None)
@given(series(order=5), series(order=5))
def test_series_exp_is_homomorphism(a, b):
    # exp(a+b) = exp(a)exp(b) in the commutative truncated ring
    a = a - SeriesScalar.constant(a.coeffs[0], 5)
    b = b - SeriesScalar.constant(b.coeffs[0], 5)
    assert series_exp(a + b) == series_exp(a) * series_exp(b)


# ---------------------------------------------------------------------------
# bases, vectors, maps
# ---------------------------------------------------------------------------


def test_basis_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Basis("bad", ("a", "a"))


def test_tensor_basis_flattening_is_associative():
    a = Basis("A", ("a1", "a2"))
    b = Basis("B", ("b1",))
    c = Basis("C", ("c1", "c2"))
    left = tensor_basis(tensor_basis(a, b), c)
    right = tensor_basis(a, tensor_basis(b, c))
    assert left.labels == right.labels
    assert left == right
    assert left.labels[0] == ("a1", "b1", "c1")


def test_vector_arithmetic_and_sparsity():
    b = Basis("V", ("x", "y", "z"))
    u = FinVec.build(b, {"x": F(1), "y": F(2)})
    v = FinVec.build(b, {"y": F(-2), "z": F(3)})
    s = u + v
    assert dict(s.entries) == {"x": F(1), "z": F(3)}  # y cancelled, not stored
    assert (u - u).is_zero
    assert u.scale(F(0)).is_zero
    assert u.scale(F(2))["y"] == F(4)
    assert u != v
    assert u == FinVec.build(b, [("y", F(2)), ("x", F(1))])


def test_one_pass_sums_match_repeated_addition():
    b = Basis("V", ("x", "y", "z"))
    sq = tensor_basis(b, b)
    table = {(p, q): FinVec.build(b, {p: F(1), q: F(-2)}) for p in b.labels for q in b.labels}
    u = FinVec.build(b, {"x": F(1, 2), "y": F(-3)})
    v = FinVec.build(b, {"y": F(5), "z": F(2, 3)})
    want = FinVec.zero(b)
    for la, ca in u:
        for lb, cb in v:
            want = want + table[la, lb].scale(ca * cb)
    assert bilinear(table_of(b, lambda p, q: table[p, q], b.labels), u, v) == want
    assert linear_sum(b, [(u, F(2)), (v, F(-1)), (u, F(-2))]) == -v
    assert tensor_sum(sq, [(u, v, F(3)), (v, u, F(-1))]) == \
        u.tensor(v, sq).scale(F(3)) - v.tensor(u, sq)
    assert tensor_sum(sq, []).is_zero


def test_bilinear_passes_refusals_through():
    b = Basis("V", ("x", "y"))
    # y has degree 1 and the cap is 1: only the pair (y, y) is refused
    pair = table_of(b, lambda p, q: FinVec.unit(b, "x"), b.labels, degrees={"y": 1}, cap=1,
                    context="test")

    assert bilinear(pair, FinVec.unit(b, "x"), FinVec.unit(b, "y")) == FinVec.unit(b, "x")
    with pytest.raises(DegreeCapExceeded):
        bilinear(pair, FinVec.unit(b, "y"), FinVec.unit(b, "y"))


def test_vector_basis_mismatch_raises():
    u = FinVec.unit(Basis("A", ("a",)), "a")
    v = FinVec.unit(Basis("B", ("b",)), "b")
    with pytest.raises(ValueError):
        u + v


def test_equality_across_scalar_types_and_bases():
    b = Basis("V", ("x", "y"))
    frac = FinVec(b, {"x": F(2)})
    series = FinVec(b, {"x": SeriesScalar.constant(2, 3)})
    assert frac == series and series == frac
    assert frac != FinVec(b, {"x": SeriesScalar.make([2, 1], 3)})
    assert frac != FinVec(b, {"x": F(2), "y": SeriesScalar.make([0, 1], 3)})
    stored_zero = FinVec(b, {"y": SeriesScalar.zero(3)})
    assert stored_zero == FinVec.zero(b) and FinVec.zero(b) == stored_zero
    assert frac != FinVec(Basis("W", ("x", "y")), {"x": F(2)})  # another basis
    m = FinMap(b, b, {"x": frac})
    assert m == FinMap(b, b, {"x": series}) and m != FinMap(b, b, {"y": frac})


def test_scalar_eq_compares_rationals_with_series():
    one = SeriesScalar.one(3)
    assert scalar_eq(one, 1) and scalar_eq(1, one) and scalar_eq(F(2), 2 * one)
    assert one != 1  # plain == never matches a rational against a series
    assert not scalar_eq(one, 2) and not scalar_eq(1, one + SeriesScalar.hbar(3))
    assert scalar_eq(SeriesScalar.zero(3), 0)
    assert same_entries({"x": one}, {"x": 1}) and same_entries({"y": 0}, {})
    assert not same_entries({"x": one}, {"x": 1, "y": SeriesScalar.hbar(3)})


def test_one_pass_sums_reject_terms_from_another_basis():
    # Both bases use the labels 1, 2: only the basis check tells them apart.
    a = Basis("A", (1, 2))
    b = Basis("B", (1, 2))
    ua, ub = FinVec.unit(a, 1), FinVec.unit(b, 1)
    with pytest.raises(ValueError):
        linear_sum(a, [(ua, F(1)), (ub, F(1))])
    with pytest.raises(ValueError):
        tensor_sum(tensor_basis(a, a), [(ua, ub, F(1))])
    with pytest.raises(ValueError):
        bilinear(table_of(a, lambda p, q: FinVec.unit(b, p), a.labels), ua, ua)
    assert tensor_sum(tensor_basis(a, b), [(ua, ub, F(1))]) == ua.tensor(ub)


def test_rebuilt_tensor_bases_interoperate():
    a = Basis("A", ("a1", "a2"))
    u = FinVec.unit(a, "a1").tensor(FinVec.unit(a, "a2"))
    v = FinVec.unit(a, "a1").tensor(FinVec.unit(a, "a2"))
    assert u.basis is not v.basis
    assert u == v
    assert not (u + v).is_zero


def test_map_call_compose_identity():
    b = Basis("V", ("x", "y"))
    swap = FinMap.from_function(b, b, lambda l: FinVec.unit(b, "y" if l == "x" else "x"))
    assert swap.compose(swap) == FinMap.identity(b)
    v = FinVec.build(b, {"x": F(1), "y": F(5)})
    assert swap(v) == FinVec.build(b, {"x": F(5), "y": F(1)})
    assert (swap - swap).is_zero


def test_tensor_product_map_against_kronecker_oracle():
    a = Basis("A", ("a1", "a2"))
    b = Basis("B", ("b1", "b2", "b3"))
    f = FinMap.from_function(a, a, lambda l: FinVec.build(
        a, {"a1": F(1, 2), "a2": F(3) if l == "a1" else F(-1)}))
    g = FinMap.from_function(b, b, lambda l: FinVec.build(
        b, {l: F(2), "b1": F(1)}))
    fg = tensor_product_map(f, g)
    mf = map_as_matrix(f)
    mg = map_as_matrix(g)
    mfg = map_as_matrix(fg)
    # Kronecker product blocks: (f (x) g)[(i,k),(j,l)] = f[i][j] * g[k][l]
    for i in range(2):
        for k in range(3):
            for j in range(2):
                for l in range(3):
                    assert mfg[3 * i + k][3 * j + l] == mf[i][j] * mg[k][l]


def test_flip_map_is_involutive_transposition():
    a = Basis("A", ("a1", "a2"))
    b = Basis("B", ("b1", "b2"))
    tau = flip_map(a, b)
    tau_back = flip_map(b, a)
    u = FinVec.build(a, {"a1": F(1), "a2": F(2)})
    v = FinVec.build(b, {"b1": F(3), "b2": F(-1)})
    assert tau(u.tensor(v)) == v.tensor(u)
    assert tau_back.compose(tau) == FinMap.identity(tensor_basis(a, b))


# ---------------------------------------------------------------------------
# kernels and ranks
# ---------------------------------------------------------------------------


def test_kernel_of_injective_map_is_trivial():
    b = Basis("V", ("x", "y"))
    assert kernel_basis(FinMap.identity(b)) == []


def test_kernel_of_sum_map():
    # (x, y) -> x + y has kernel spanned by (1, -1)
    b2 = Basis("V2", ("1", "2"))
    b1 = Basis("V1", ("s",))
    m = FinMap.from_function(b2, b1, lambda l: FinVec.unit(b1, "s"))
    ker = kernel_basis(m)
    assert len(ker) == 1
    k = ker[0]
    assert k["1"] * F(-1) == k["2"]
    assert m(k).is_zero


def test_kernel_of_zero_map_is_everything():
    b = Basis("V", ("x", "y", "z"))
    ker = kernel_basis(FinMap.zero(b, b))
    assert len(ker) == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.data())
def test_kernel_matches_dense_oracle_and_rank_nullity(nr, nc, data):
    dom = Basis("D", tuple(f"d{j}" for j in range(nc)))
    cod = Basis("C", tuple(f"c{i}" for i in range(nr)))
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1),
                  st.fractions(min_value=-6, max_value=6, max_denominator=3)),
        max_size=10))
    mat = [[F(0)] * nc for _ in range(nr)]
    for i, j, q in entries:
        mat[i][j] += q
    m = FinMap.from_function(dom, cod, lambda lab: FinVec.build(
        cod, {f"c{i}": mat[i][int(lab[1:])] for i in range(nr)}))
    ker = kernel_basis(m)
    oracle = dense_kernel(mat, nc)
    assert len(ker) == len(oracle)
    assert rank(m) + len(ker) == nc  # rank-nullity
    for v in ker:
        assert m(v).is_zero
    oracle_vecs = [FinVec.build(dom, {f"d{j}": c for j, c in enumerate(vec)})
                   for vec in oracle]
    assert span_of(ker) == span_of(oracle_vecs)


def test_rank_of_explicit_map():
    b = Basis("V", ("x", "y", "z"))
    # columns (1,1,0), (1,1,0), (0,0,1): rank 2
    m = FinMap.from_function(b, b, lambda l: FinVec.build(
        b, {"z": F(1)} if l == "z" else {"x": F(1), "y": F(1)}))
    assert rank(m) == 2
    assert len(kernel_basis(m)) == 1


# ---------------------------------------------------------------------------
# coordinates in a solved kernel basis
# ---------------------------------------------------------------------------
# A kernel basis is independent, so the dependent-generator case of the former
# SpanSolver coordinates has no counterpart here.


def test_kernel_coordinates_recombine():
    # x0 + x1 - x2 = 0: free x1, x2 give (-1, 1, 0) and (1, 0, 1)
    kernel = nullspace([{0: 1, 1: 1, 2: -1}], 3)
    assert kernel == [{0: -1, 1: 1}, {0: 1, 2: 1}]
    assert _kernel_coordinates(kernel, {0: 1, 1: 2, 2: 3}) == [2, 3]
    assert _kernel_coordinates(kernel, {}) == [0, 0]
    assert _kernel_coordinates([], {}) == []


def test_kernel_coordinates_refuse_outside_vectors():
    kernel = nullspace([{0: 1, 1: 1, 2: -1}], 3)
    assert _kernel_coordinates(kernel, {0: 1}) is None
    assert _kernel_coordinates(kernel, {0: 1, 1: 2, 2: 4}) is None
    assert _kernel_coordinates([], {1: F(1, 2)}) is None
    assert _kernel_coordinates(kernel, {0: F(7, 3), 2: F(7, 3)}) == [0, F(7, 3)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_kernel_coordinates_random_recombination(nc, data):
    rows = data.draw(sparse_rows(nc))
    kernel = nullspace(rows, nc)
    weights = data.draw(st.lists(small_fracs, min_size=len(kernel), max_size=len(kernel)))
    target = {}
    for w, vec in zip(weights, kernel):
        for j, c in vec.items():
            target[j] = target.get(j, 0) + w * c
    assert _kernel_coordinates(kernel, target) == weights
    # any row gets coordinates exactly when the system annihilates it
    other = data.draw(st.dictionaries(st.integers(0, nc - 1), nonzero_fracs, max_size=nc))
    solves = all(sum(c * other.get(j, 0) for j, c in row.items()) == 0 for row in rows)
    assert (_kernel_coordinates(kernel, other) is not None) == solves


# ---------------------------------------------------------------------------
# rational eigenvalues: integer roots of a monic integer polynomial
# ---------------------------------------------------------------------------


def expand(roots, factor):
    """prod (x - r) over ``roots`` times ``factor``, highest degree first."""
    p = list(factor)
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=5),
       st.sampled_from([(1,), (1, 0, -2), (1, 1, 1), (1, 0, 0, -3)]))
def test_integer_roots_are_isolated_among_irrational_and_complex_ones(roots, factor):
    # roots up to 10^12 in size: the count bisects, it never walks the candidates
    assert _integer_roots(expand(roots, factor)) == sorted(set(roots))


def test_rational_eigenvalues_of_a_triangular_block_and_a_sqrt2_block():
    rows = {0: {0: F(1, 2), 1: 5}, 1: {1: F(1, 2), 2: F(2, 3)}, 2: {2: -3},
            3: {4: 1}, 4: {3: 2}}
    assert _rational_eigenvalues(rows, 5) == [-3, F(1, 2)]
    assert _rational_eigenvalues({}, 2) == [0]


# ---------------------------------------------------------------------------
# one canonical output: reduced echelon form with the leftmost pivot
# ---------------------------------------------------------------------------

nonzero_fracs = small_fracs.filter(bool)


def sparse_rows(ncols):
    return st.lists(st.dictionaries(st.integers(0, ncols - 1), nonzero_fracs, max_size=ncols),
                    min_size=1, max_size=5)


def test_kernel_basis_is_the_reduced_echelon_one():
    # 2 x0 + 3 x2 = 0 and -x0 + 2 x1 = 0: pivots x0, x1, free x2, in either order
    rows = [{0: F(2), 2: F(3)}, {0: F(-1), 1: F(2)}]
    want = [{0: F(-3, 2), 1: F(-3, 4), 2: F(1)}]
    assert nullspace(rows, 3) == want
    assert nullspace(rows[::-1], 3) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_kernel_and_rank_do_not_depend_on_row_order(nc, data):
    rows = data.draw(sparse_rows(nc))
    order = data.draw(st.permutations(range(len(rows))))
    permuted = [rows[i] for i in order]
    ker = nullspace(rows, nc)
    assert nullspace(permuted, nc) == ker
    assert nullspace(list(reversed(rows)), nc) == ker
    assert rank_of(permuted, nc) == rank_of(rows, nc) == nc - len(ker)
    # the same system as a map: the codomain label of a row is its position,
    # and the entries of each column are listed in permuted row order
    dom = Basis("D", tuple(range(nc)))
    cod = Basis("C", tuple(range(len(rows))))

    def as_map(row_order):
        return FinMap.from_function(dom, cod, lambda j: FinVec.build(
            cod, [(i, rows[i][j]) for i in row_order if j in rows[i]]))

    m, m_permuted = as_map(range(len(rows))), as_map(order)
    assert kernel_basis(m_permuted) == kernel_basis(m)
    assert [dict(v.entries) for v in kernel_basis(m)] == ker
    assert rank(m_permuted) == rank(m) == nc - len(ker)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_span_basis_does_not_depend_on_generator_order_or_scale(nc, data):
    b = Basis("V", tuple(f"v{j}" for j in range(nc)))
    gens = [FinVec.build(b, {b.labels[j]: c for j, c in row.items()})
            for row in data.draw(sparse_rows(nc))]
    order = data.draw(st.permutations(range(len(gens))))
    scales = data.draw(st.lists(nonzero_fracs, min_size=len(gens), max_size=len(gens)))
    want = span_basis(gens)
    assert span_basis([gens[i].scale(scales[i]) for i in order]) == want
    # reduced echelon form: leading entry 1 at a pivot where every other row vanishes
    leads = [b.index(min(v.entries, key=b.index)) for v in want]
    assert leads == sorted(set(leads))
    for v, lead in zip(want, leads):
        assert v[b.labels[lead]] == 1
        assert all(not w[b.labels[lead]] for w in want if w is not v)


def test_span_solver_vectors_are_the_span_basis():
    b = Basis("V", ("1", "2", "3"))
    gens = [FinVec.build(b, {"2": F(2), "3": F(1)}), FinVec.build(b, {"1": F(3), "2": F(1)}),
            FinVec.build(b, {"1": F(3), "2": F(3), "3": F(1)})]
    sp = SpanSolver(gens)
    assert sp.vectors == span_basis(gens) == span_basis(gens[::-1])
    assert [dict(v.entries) for v in sp.vectors] == [{"1": F(1), "3": F(-1, 6)},
                                                     {"2": F(1), "3": F(1, 2)}]
    assert sp.pivot_indices == [0, 1] and sp.dim == 2
    assert sp.contains(FinVec.zero(b)) and not sp.contains(FinVec.unit(b, "3"))
    assert SpanSolver([]).vectors == []


# ---------------------------------------------------------------------------
# integer-first scalars
# ---------------------------------------------------------------------------


def _exact(c):
    """True for an exact rational: an int or a Fraction, never a float or a bool."""
    return type(c) in (int, Fraction)


def test_div_is_exact_and_integer_first():
    assert div(4, 2) == 2 and type(div(4, 2)) is int
    assert div(F(3, 2), F(3, 4)) == 2 and type(div(F(3, 2), F(3, 4))) is int
    assert div(1, 2) == F(1, 2) and type(div(1, 2)) is Fraction
    assert div(-3, 6) == F(-1, 2)
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


def test_rational_is_integer_first():
    assert rational("4/2") == 2 and type(rational("4/2")) is int
    assert type(rational(F(6, 3))) is int and type(rational(7)) is int
    assert rational("1/2") == F(1, 2) and type(rational("1/2")) is Fraction
    with pytest.raises(TypeError):
        rational(1.5)


def test_structure_constants_stay_int():
    b = Basis("V", ("x", "y"))
    v = FinVec.unit(b, "x") - FinVec.unit(b, "y").scale(3)
    assert all(type(c) is int for _, c in v)
    assert type(SeriesScalar.one(3).coeffs[0]) is int


def _true_divisions(tree, allowed):
    """Line numbers of the `/` and `/=` nodes of ``tree`` outside ``allowed``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            and id(node) not in allowed]


def test_div_is_the_only_division_in_the_package():
    found = []
    for path in sorted(pathlib.Path(rackalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "exact_core.py":
            div_defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "div"]
            assert len(div_defs) == 1
            allowed = {id(n) for n in ast.walk(div_defs[0])}
            assert _true_divisions(div_defs[0], set()), "div must divide"
        found += [f"{path.name}:{line}" for line in _true_divisions(tree, allowed)]
    assert found == []


int_rows = st.lists(st.dictionaries(st.integers(0, 4), st.integers(-6, 6).filter(bool),
                                    max_size=5), max_size=6)


@settings(max_examples=60, deadline=None)
@given(int_rows)
def test_elimination_of_int_rows_stays_exact(rows):
    nc = 5
    for vec in nullspace(rows, nc):
        assert all(_exact(c) for c in vec.values())
    b = Basis("V", tuple(range(nc)))
    gens = [FinVec.build(b, row) for row in rows]
    for v in span_basis(gens):
        assert all(_exact(c) for _, c in v)
    # coordinates read off the solved kernel stay exact and recombine
    kernel = nullspace(rows, nc)
    total = {}
    for i, vec in enumerate(kernel, start=1):
        for j, c in vec.items():
            total[j] = total.get(j, 0) + i * c
    coords = _kernel_coordinates(kernel, total)
    assert all(_exact(c) for c in coords)
    assert coords == list(range(1, len(kernel) + 1))


@settings(max_examples=60, deadline=None)
@given(int_rows)
def test_kernel_vectors_are_one_at_their_largest_column(rows):
    nc = 5
    kernel = nullspace(rows, nc)
    frees = [max(vec) for vec in kernel]
    for vec, f in zip(kernel, frees):
        assert vec[f] == 1 and type(vec[f]) is int
        assert all(not vec.get(g) for g in frees if g != f)
    # kernel_basis: the same at the last label of each vector in basis order
    b = Basis("V", tuple(f"v{j}" for j in range(nc)))
    cod = Basis("R", tuple(range(len(rows))))
    m = FinMap.from_function(b, cod, lambda lab: FinVec.build(
        cod, [(i, row[b.index(lab)]) for i, row in enumerate(rows) if b.index(lab) in row]))
    basis = kernel_basis(m)
    lasts = [max(v.entries, key=b.index) for v in basis]
    assert [b.index(lab) for lab in lasts] == frees
    for v, last in zip(basis, lasts):
        assert v[last] == 1
        assert all(not v[other] for other in lasts if other != last)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=5, max_size=5))
def test_series_of_ints_stay_exact(coeffs):
    s = SeriesScalar.make(coeffs, 5)
    assert all(_exact(c) for c in series_exp(s - s.coeffs[0]).coeffs)
    if coeffs[0]:
        assert all(_exact(c) for c in s.inverse().coeffs)
        assert s * s.inverse() == SeriesScalar.one(5)


@settings(max_examples=60, deadline=None)
@given(series(order=5), st.one_of(st.integers(-5, 5), small_fracs, st.booleans()))
def test_scalar_times_series_is_the_lifted_product(s, c):
    # Mix int and Fraction coefficients, Fraction(0) among them, to pin result types.
    s = SeriesScalar(tuple(int(q) if q.denominator == 1 and q % 2 else q for q in s.coeffs))
    lifted = s * SeriesScalar.constant(c, 5)
    for got in (c * s, s * c):
        assert got == lifted
        assert [type(q) for q in got.coeffs] == [type(q) for q in lifted.coeffs]
        assert all(_exact(q) for q in got.coeffs)


def test_scalar_times_series_keeps_its_errors():
    s = SeriesScalar.make([1, 2], 3)
    with pytest.raises(TypeError):
        2.0 * s
    with pytest.raises(TypeError):
        s * 0.5
    with pytest.raises(ValueError):
        s * SeriesScalar.one(4)


@settings(max_examples=40, deadline=None)
@given(int_rows)
def test_int_and_fraction_entries_eliminate_alike(rows):
    dom = Basis("D", tuple(range(5)))
    cod = Basis("C", tuple(range(len(rows))))

    def as_map(scalar):
        return FinMap.from_function(dom, cod, lambda j: FinVec.build(
            cod, [(i, scalar(row[j])) for i, row in enumerate(rows) if j in row]))

    m_int, m_frac = as_map(int), as_map(Fraction)
    assert rank(m_int) == rank(m_frac)
    assert kernel_basis(m_int) == kernel_basis(m_frac)


@pytest.mark.parametrize("bad", [1.0, 0.5, True])
def test_elimination_refuses_float_and_bool_entries(bad):
    b = Basis("V", ("x", "y"))
    m = FinMap(b, b, {"x": FinVec(b, {"x": bad}), "y": FinVec.unit(b, "y")})
    with pytest.raises(TypeError):
        rank(m)
    with pytest.raises(TypeError):
        kernel_basis(m)


# ---------------------------------------------------------------------------
# one accumulator: the kernel entry points against the items + build formulas
# ---------------------------------------------------------------------------


def _oracle_build(basis, items):
    """FinVec.build as a plain loop over (label, coefficient) items."""
    acc = {}
    for lab, c in items:
        if not c:
            continue
        prev = acc.get(lab)
        total = c if prev is None else prev + c
        if total:
            acc[lab] = total
        elif prev is not None:
            del acc[lab]
    return FinVec(basis, acc)


def _oracle_bilinear(basis, pair, a, b):
    items = []
    for la, ca in a.entries.items():
        for lb, cb in b.entries.items():
            v = pair(la, lb)
            c = ca * cb
            items.extend((lab, c * cv) for lab, cv in v.entries.items())
    return _oracle_build(basis, items)


def _oracle_linear_sum(basis, terms):
    items = []
    for v, c in terms:
        items.extend((lab, c * cv) for lab, cv in v.entries.items())
    return _oracle_build(basis, items)


def _oracle_call(m, v):
    items = []
    for lab, c in v.entries.items():
        items.extend((l2, c * c2) for l2, c2 in m.column(lab).entries.items())
    return _oracle_build(m.codomain, items)


def _oracle_add(u, v):
    return _oracle_build(u.basis, list(u.entries.items()) + list(v.entries.items()))


# a few values, so that sums cancel exactly and Fractions add up to integers
_pool = [1, -1, 2, F(1, 2), F(-1, 2), F(3, 2)]
_ints = st.sampled_from([1, -1, 2, -2])
_fracs = st.sampled_from([F(1, 2), F(-1, 2), F(3, 2), F(-3, 2)])
_series = st.lists(st.sampled_from([0] + _pool), min_size=3, max_size=3).map(
    lambda cs: SeriesScalar(tuple(cs)))
_coeff_kinds = {"int": _ints, "fraction": _fracs, "series": _series,
                "mixed": st.one_of(_ints, _fracs, _series)}
_V = Basis("V", ("x", "y", "z"))


def _sparse_vectors(coeffs):
    return st.lists(st.tuples(st.sampled_from(_V.labels), coeffs), max_size=4).map(
        lambda items: FinVec.build(_V, items))


def _well_formed(v):
    """No zero entry is stored, and no rational entry is an integral Fraction."""
    for c in v.entries.values():
        assert c, v
        if isinstance(c, SeriesScalar):
            assert all(type(q) is int or q.denominator != 1 for q in c.coeffs), v
        else:
            assert type(c) is int or c.denominator != 1, v


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_coeff_kinds)), st.data())
def test_accumulator_entry_points_match_the_item_oracles(kind, data):
    coeffs = _coeff_kinds[kind]
    vectors = _sparse_vectors(coeffs)
    u, v = data.draw(vectors), data.draw(vectors)
    table = {(p, q): data.draw(vectors) for p in _V.labels for q in _V.labels}
    cols = {lab: data.draw(vectors) for lab in _V.labels}
    terms = data.draw(st.lists(st.tuples(st.sampled_from([u, v, -u, -v]), coeffs), max_size=5))
    items = data.draw(st.lists(st.tuples(st.sampled_from(_V.labels), coeffs), max_size=6))
    m = FinMap(_V, _V, {lab: col for lab, col in cols.items() if not col.is_zero})

    def pair(p, q):
        return table[p, q]

    for got, want in ((FinVec.build(_V, items), _oracle_build(_V, items)),
                      (bilinear(table_of(_V, pair, _V.labels), u, v),
                       _oracle_bilinear(_V, pair, u, v)),
                      (linear_sum(_V, terms), _oracle_linear_sum(_V, terms)),
                      (m(u), _oracle_call(m, u)),
                      (u + v, _oracle_add(u, v)),
                      (u - u, FinVec.zero(_V))):
        assert got.basis is _V
        assert dict(got.entries) == dict(want.entries)
        _well_formed(got)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_coeff_kinds)), st.data())
def test_label_readers_match_bilinear_over_a_unit(kind, data):
    coeffs = _coeff_kinds[kind]
    vectors = _sparse_vectors(coeffs)
    u, v = data.draw(vectors), data.draw(vectors)
    table = {(p, q): data.draw(vectors) for p in _V.labels for q in _V.labels}
    lab = data.draw(st.sampled_from(_V.labels))
    c = data.draw(coeffs)
    e = FinVec.unit(_V, lab)

    def pair(p, q):
        return table[p, q]

    def flipped(p, q):
        return table[q, p]

    t = table_of(_V, pair, _V.labels)
    for t, pair in ((t, pair), (t.opposite(), flipped)):
        for got, want in (
                (times_label(t, v.entries, lab), _oracle_bilinear(_V, pair, v, e)),
                (label_times(t, lab, v.entries), _oracle_bilinear(_V, pair, e, v)),
                (times_label(t, v.entries, lab, dict(u.entries), c),
                 _oracle_linear_sum(_V, [(u, 1), (_oracle_bilinear(_V, pair, v, e), c)])),
                (label_times(t, lab, v.entries, dict(u.entries), c),
                 _oracle_linear_sum(_V, [(u, 1), (_oracle_bilinear(_V, pair, e, v), c)])),
                (bilinear(t, u, v), _oracle_bilinear(_V, pair, u, v))):
            got = FinVec(_V, got.entries if isinstance(got, FinVec) else got)
            assert dict(got.entries) == dict(want.entries)
            _well_formed(got)


def test_accumulator_entry_points_refuse_another_basis_with_the_same_labels():
    a = Basis("A", ("x", "y"))
    b = Basis("B", ("x", "y"))
    ua, ub = FinVec.unit(a, "x"), FinVec.unit(b, "x")
    with pytest.raises(ValueError):
        bilinear(table_of(a, lambda p, q: FinVec.unit(b, p), a.labels), ua, ua)
    with pytest.raises(ValueError):
        linear_sum(a, [(ub, 1)])
    with pytest.raises(ValueError):
        FinMap.identity(a)(ub)
    with pytest.raises(ValueError):
        ua + ub
    with pytest.raises(ValueError):
        ua - ub


def test_sums_keep_the_int_first_rule():
    v = FinVec.build(_V, {"x": F(1, 2)})
    for got in (FinVec.build(_V, [("x", F(1, 2)), ("x", F(1, 2))]), v + v,
                linear_sum(_V, [(v, 2)]),
                bilinear(table_of(_V, lambda p, q: v, _V.labels), v, v.scale(8)),
                FinMap(_V, _V, {"x": v})(v.scale(4)), v.scale(2)):
        assert dict(got.entries) == {"x": 1} and type(got["x"]) is int
    s = SeriesScalar.make(["1/2", "3/2"], 2)
    for total in (s + s, s - (-s)):
        assert total.coeffs == (1, 3) and [type(q) for q in total.coeffs] == [int, int]
    assert [type(q) for q in (s + F(1, 2)).coeffs] == [int, Fraction]
