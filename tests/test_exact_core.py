"""Exact linear algebra and truncated series: oracle checks and ring laws.

The dense oracle below re-implements kernel computation with textbook
Gauss-Jordan over Fraction matrices, independently of the sparse eliminator
under test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackalg.errors import DegreeCapExceeded
from rackalg.exact_core import (
    Basis,
    FinMap,
    FinVec,
    SeriesScalar,
    SpanSolver,
    bilinear,
    flip_map,
    format_rational,
    kernel_basis,
    linear_sum,
    nullspace,
    rank,
    rank_of,
    rational,
    series_exp,
    span_basis,
    tensor_basis,
    tensor_product_map,
    tensor_sum,
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
    assert bilinear(b, lambda p, q: table[p, q], u, v) == want
    assert linear_sum(b, [(u, F(2)), (v, F(-1)), (u, F(-2))]) == -v
    assert tensor_sum(sq, [(u, v, F(3)), (v, u, F(-1))]) == \
        u.tensor(v, sq).scale(F(3)) - v.tensor(u, sq)
    assert tensor_sum(sq, []).is_zero


def test_bilinear_passes_refusals_through():
    b = Basis("V", ("x", "y"))

    def pair(p, q):
        if p == q == "y":
            raise DegreeCapExceeded(2, 1, "test")
        return FinVec.unit(b, "x")

    assert bilinear(b, pair, FinVec.unit(b, "x"), FinVec.unit(b, "y")) == FinVec.unit(b, "x")
    with pytest.raises(DegreeCapExceeded):
        bilinear(b, pair, FinVec.unit(b, "y"), FinVec.unit(b, "y"))


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
        bilinear(a, lambda p, q: FinVec.unit(b, p), ua, ua)
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
# span solver
# ---------------------------------------------------------------------------


def test_span_solver_coordinates_recombine():
    b = Basis("V", ("1", "2"))
    v1 = FinVec.build(b, {"1": F(1), "2": F(1)})
    v2 = FinVec.build(b, {"1": F(1), "2": F(-1)})
    sp = SpanSolver([v1, v2])
    target = FinVec.build(b, {"1": F(3), "2": F(1)})
    coords = sp.coordinates(target)
    assert coords == [F(2), F(1)]
    assert sp.dim == 2
    assert sp.contains(FinVec.zero(b))


def test_span_solver_detects_outside_vectors():
    b = Basis("V", ("1", "2", "3"))
    v1 = FinVec.build(b, {"1": F(1), "2": F(1)})
    sp = SpanSolver([v1])
    assert sp.coordinates(FinVec.unit(b, "3")) is None
    assert sp.coordinates(v1.scale(F(7, 3))) == [F(7, 3)]


def test_span_solver_handles_dependent_generators():
    b = Basis("V", ("1", "2"))
    v1 = FinVec.build(b, {"1": F(1), "2": F(2)})
    v2 = v1.scale(F(3))
    sp = SpanSolver([v1, v2])
    assert sp.dim == 1
    coords = sp.coordinates(v1.scale(F(5)))
    assert coords is not None
    got = FinVec.zero(b)
    for c, g in zip(coords, sp.generators):
        got = got + g.scale(c)
    assert got == v1.scale(F(5))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_span_solver_random_recombination(n, data):
    b = Basis("V", tuple(str(i) for i in range(4)))
    gens = []
    for _ in range(n):
        ent = data.draw(st.lists(
            st.tuples(st.sampled_from(b.labels), small_fracs), max_size=4))
        gens.append(FinVec.build(b, ent))
    sp = SpanSolver(gens)
    weights = data.draw(st.lists(small_fracs, min_size=n, max_size=n))
    target = FinVec.zero(b)
    for w, g in zip(weights, gens):
        target = target + g.scale(w)
    coords = sp.coordinates(target)
    assert coords is not None
    got = FinVec.zero(b)
    for c, g in zip(coords, gens):
        got = got + g.scale(c)
    assert got == target


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
    assert SpanSolver([]).vectors == []
