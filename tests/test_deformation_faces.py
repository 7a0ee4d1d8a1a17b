"""Faces of the deformation complex against the vector formulas, the rows of
d on C^2 against d and the dual-number defect, the failure paths of the
degree-n checks and of h2, and a guard that keeps the label-tuple readers free
of per-term vectors.

The oracle below evaluates d_{i,eps} and d_{n+1} as they are written in the
module docstring: products over unit vectors (``rb.apply``) and the
multilinear evaluation of a cochain on a tuple of vectors.
"""

import ast
import hashlib
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from rackalg import deformation
from rackalg.deformation import (
    _Faces,
    coderivation_report,
    coderivation_space,
    deformation_complex,
    differential,
    equivalence_check,
    h2,
    infinitesimal_selfdist,
    _tensor_power,
    verify_complex,
)
from rackalg.errors import AxiomViolation, BudgetExceeded, RackalgError
from rackalg.exact_core import FinMap, FinVec, linear_sum, nullspace
from rackalg.fixtures import load
from rackalg.groups import symmetric_group
from rackalg.rack_bialg import conjugation_rack, rack_group_algebra, uar_infinity, ur


@pytest.fixture(scope="module")
def ur_sq2():
    return ur(load("sq2"))


@pytest.fixture(scope="module")
def ur_lie2():
    return ur(load("lie2"))


@pytest.fixture(scope="module")
def conj_s3():
    return rack_group_algebra(conjugation_rack(symmetric_group(3)))


# ---------------------------------------------------------------------------
# the vector oracle
# ---------------------------------------------------------------------------


class VectorFaces:
    """d_{i,eps}, d_{n+1} and d through products of vectors."""

    def __init__(self, rb):
        self.rb = rb
        self.basis = rb.basis
        self._mu = {}

    def unit(self, lab):
        return FinVec.unit(self.basis, lab)

    def mu(self, parts):
        """r_1 |> (r_2 |> (.. |> r_n)) over unit vectors."""
        if parts not in self._mu:
            head = self.unit(parts[0])
            self._mu[parts] = head if len(parts) == 1 else self.rb.apply(head, self.mu(parts[1:]))
        return self._mu[parts]

    def split(self, labels):
        for combo in itertools.product(*[self.rb.carrier.legs(l) for l in labels]):
            w = 1
            for _, _, lw in combo:
                w *= lw
            yield tuple(l1 for l1, _, _ in combo), tuple(l2 for _, l2, _ in combo), w

    def klegs(self, lab, k):
        if k == 1:
            return [((lab,), 1)]
        return [((l1,) + rest, w * w2) for l1, l2, w in self.rb.carrier.legs(lab)
                for rest, w2 in self.klegs(l2, k - 1)]

    @staticmethod
    def evaluate(omega, vecs):
        """omega on a tuple of vectors, multilinearly."""
        if len(vecs) == 1:
            return omega(vecs[0])
        terms = []
        for combo in itertools.product(*[list(v.entries.items()) for v in vecs]):
            w = 1
            for _, c in combo:
                w *= c
            terms.append((omega.column(tuple(lab for lab, _ in combo)), w))
        return linear_sum(omega.codomain, terms)

    def _map(self, n, col):
        return FinMap.from_function(_tensor_power(self.basis, n + 1), self.basis,
                                    lambda t: col(tuple(t)))

    def face(self, omega, n, i, eps):
        def col_1(parts):
            return linear_sum(self.basis, (
                (self.rb.apply(self.mu(lefts + (parts[i - 1],)),
                               self.evaluate(omega, [self.unit(l) for l in rights + parts[i:]])),
                 w) for lefts, rights, w in self.split(parts[:i - 1])))

        def col_0(parts):
            heads = [self.unit(l) for l in parts[:i - 1]]
            return linear_sum(self.basis, (
                (self.evaluate(omega, heads + [self.rb.apply(self.unit(legs[m]),
                                                             self.unit(parts[i + m]))
                                               for m in range(n + 1 - i)]), w)
                for legs, w in self.klegs(parts[i - 1], n + 1 - i)))

        return self._map(n, col_1 if eps == 1 else col_0)

    def extra_face(self, omega, n):
        def col(parts):
            return linear_sum(self.basis, (
                (self.rb.apply(self.evaluate(omega, [self.unit(l) for l in lefts + (parts[n - 1],)]),
                               self.mu(rights + (parts[n],))), w)
                for lefts, rights, w in self.split(parts[:n - 1])))

        return self._map(n, col)

    def differential(self, omega, n):
        total = self.extra_face(omega, n).scale((-1) ** (n + 1))
        for i in range(1, n + 1):
            total = total + (self.face(omega, n, i, 1) - self.face(omega, n, i, 0)).scale(
                (-1) ** (i + 1))
        return total


def _check_faces(rb, n, maps):
    faces, oracle = _Faces(rb), VectorFaces(rb)
    for omega in maps:
        for i, eps in itertools.product(range(1, n + 1), (0, 1)):
            assert faces.face(omega, i, eps) == oracle.face(omega, n, i, eps), (i, eps)
        assert faces.extra_face(omega) == oracle.extra_face(omega, n)
        assert faces.differential(omega) == oracle.differential(omega, n)


@pytest.mark.parametrize("name", ["sq2", "lie2"])
@pytest.mark.parametrize("n", [1, 2])
def test_faces_match_the_vector_formulas_on_basis_cochains(name, n, ur_sq2, ur_lie2):
    rb = {"sq2": ur_sq2, "lie2": ur_lie2}[name]
    space = coderivation_space(rb, n)
    assert space
    _check_faces(rb, n, [f.map for f in space])


def _elementary_maps(rb, n):
    dom = _tensor_power(rb.basis, n)
    return [FinMap(dom, rb.basis, {t: FinVec.unit(rb.basis, l)})
            for t in dom.labels for l in rb.basis.labels]


def _dense_map(rb, n):
    dom = _tensor_power(rb.basis, n)
    return FinMap(dom, rb.basis, {t: FinVec.build(rb.basis, (
        (l, Fraction(1 + (j * 7 + p * 3) % 5, 1 + p)) for p, l in enumerate(rb.basis.labels)))
        for j, t in enumerate(dom.labels)})


def test_faces_match_the_vector_formulas_on_a_carrier_that_is_not_connected(conj_s3):
    # C^1 of K[Conj S3] is zero, so its faces are compared on every
    # elementary map R -> R and on one dense map in degrees 1 and 2.
    assert coderivation_space(conj_s3, 1) == []
    _check_faces(conj_s3, 1, _elementary_maps(conj_s3, 1) + [_dense_map(conj_s3, 1)])
    _check_faces(conj_s3, 2, [_dense_map(conj_s3, 2)])


def test_faces_match_the_vector_formulas_with_weighted_legs_and_long_heads(ur_sq2):
    # UAR(sq2)<=2 has Sweedler weights 2 (Delta x^2 = x^2 (x) 1 + 2 x (x) x + 1 (x) x^2)
    # and a product that is not trivial; degree 3 gives d_{3,0} two head labels.
    rb = uar_infinity(load("sq2"), 2).rack
    _check_faces(rb, 1, [f.map for f in coderivation_space(rb, 1)] + [_dense_map(rb, 1)])
    _check_faces(rb, 2, [f.map for f in coderivation_space(rb, 2)[::6]] + [_dense_map(rb, 2)])
    _check_faces(ur_sq2, 3, [_dense_map(ur_sq2, 3)])


def _map_digest(fmap):
    h = hashlib.sha256()
    for t in fmap.domain.labels:
        col = fmap.column(t)
        h.update(repr((t, [(l, str(Fraction(col[l]))) for l in fmap.codomain.labels
                           if col[l]])).encode())
    return h.hexdigest()[:16]


def test_the_cochain_spans_and_matrices_of_sq2_are_pinned(ur_sq2):
    cx = deformation_complex(ur_sq2, 2)
    spaces = [hashlib.sha256("".join(_map_digest(f.map) for f in space).encode()).hexdigest()[:16]
              for space in cx.spaces]
    assert spaces == ["0539b59375ab622e", "ae2f69ecf79e2ddf", "9b13c4c1e1870d36"]
    assert [_map_digest(d) for d in cx.differentials] == ["cb536c9aa64a62ab",
                                                          "c270624d04935769"]


# ---------------------------------------------------------------------------
# the rows of d on C^2
# ---------------------------------------------------------------------------


def _apply(rows, unknowns):
    out = {}
    for key, row in rows.items():
        v = sum(c * unknowns.get(j, 0) for j, c in row.items())
        if v:
            out[key] = v
    return out


def _map_of(faces, unknowns):
    """The map R (x) R -> R that sets the given unknowns of ``_space(faces, 2)``."""
    basis, dom = faces.basis, faces.power(2)
    cols = {}
    for j, c in unknowns.items():
        cols.setdefault(dom.labels[j // basis.dim], []).append((basis.labels[j % basis.dim], c))
    return FinMap(dom, basis, {t: FinVec.build(basis, items) for t, items in cols.items()})


def _random_maps(faces, rows, rng):
    """Three dense random maps, and two random combinations of the maps that the
    rows of d annihilate."""
    basis, dom = faces.basis, faces.power(2)
    unknowns = dom.dim * basis.dim
    maps = [_map_of(faces, {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for j in range(unknowns)}) for _ in range(3)]
    closed = nullspace(list(rows.values()), unknowns)
    for _ in range(2):
        combo = {}
        for vec in closed:
            c = rng.choice((-2, -1, 1, 2))
            for j, v in vec.items():
                combo[j] = combo.get(j, 0) + c * v
        maps.append(_map_of(faces, {j: v for j, v in combo.items() if v}))
    return maps


@pytest.mark.parametrize("name", ["abelian1", "sq2", "lie2", "heis3", "sl2", "nonlie3"])
def test_the_rows_of_d_are_the_differential_and_the_selfdist_defect(name):
    rb = ur(load(name))
    faces = _Faces(rb)
    rows = faces.d2_rows()
    assert all(rows.values())
    maps = [f.map for f in coderivation_space(rb, 2)]
    maps += _random_maps(faces, rows, random.Random(name))
    annihilated = 0
    for omega in maps:
        image = _apply(rows, deformation._unknowns(faces, omega))
        assert image == deformation._unknowns(faces, faces.differential(omega))
        assert infinitesimal_selfdist(rb, omega).passed == (not image)
        annihilated += not image
    assert 2 <= annihilated < len(maps)
    # on sl2 every map that d annihilates is a coderivation; elsewhere the
    # random ones are not
    outside = [not coderivation_report(rb, 2, m).passed for m in maps[-5:]]
    assert outside == [True] * 3 + [name != "sl2"] * 2


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


def _perturbed(rb, n, t):
    """The first basis cochain of degree n with 1 added to its entry (t, unit)."""
    f = coderivation_space(rb, n)[0].map
    cols = dict(f.columns)
    cols[t] = f.column(t) + FinVec.unit(rb.basis, ())
    return FinMap(f.domain, f.codomain, cols)


@pytest.mark.parametrize("n,t", [(1, (2,)), (2, ((1,), (2,)))])
def test_a_changed_cochain_entry_fails_every_degree_n_check(ur_sq2, n, t):
    bad = _perturbed(ur_sq2, n, t)
    rep = coderivation_report(ur_sq2, n, bad)
    assert not rep.passed
    assert (rep.axiom, rep.witness) == (f"coderivation along mu^{n}", (t,))
    with pytest.raises(AxiomViolation) as exc:
        differential(ur_sq2, n, bad)
    assert (exc.value.axiom, exc.value.witness) == (rep.axiom, rep.witness)
    if n == 1:
        assert equivalence_check(ur_sq2, bad) == rep


def test_an_image_outside_the_solved_space_is_refused(ur_sq2, monkeypatch):
    t = ((1,), (2,))
    basis = ur_sq2.basis
    extra = FinMap(_tensor_power(basis, 2), basis, {t: FinVec.unit(basis, ())})
    assert not coderivation_report(ur_sq2, 2, extra).passed
    d = _Faces.differential
    monkeypatch.setattr(_Faces, "differential", lambda self, omega: d(self, omega) + extra)
    with pytest.raises(RackalgError, match="differential image left the solved cochain space"):
        deformation_complex(ur_sq2, 1)


def test_coderivation_space_refuses_before_elimination(ur_sq2, monkeypatch):
    def no_elimination(rows, ncols):
        raise AssertionError("eliminated past the budget")

    monkeypatch.delenv("RACKALG_MAX_UNKNOWNS", raising=False)
    assert deformation._max_unknowns() == 4096
    monkeypatch.setattr(deformation, "nullspace", no_elimination)
    monkeypatch.setenv("RACKALG_MAX_UNKNOWNS", "26")  # 9 label pairs x 3 outputs
    with pytest.raises(BudgetExceeded) as exc:
        coderivation_space(ur_sq2, 2)
    assert (exc.value.needed, exc.value.budget) == (27, 26)
    monkeypatch.setenv("RACKALG_MAX_UNKNOWNS", "27")
    with pytest.raises(AssertionError, match="past the budget"):
        coderivation_space(ur_sq2, 2)


def test_h2_refuses_before_elimination(ur_sq2, monkeypatch):
    def no_elimination(rows, ncols):
        raise AssertionError("eliminated past the budget")

    monkeypatch.setattr(deformation, "nullspace", no_elimination)
    monkeypatch.setenv("RACKALG_MAX_UNKNOWNS", "26")  # (dim R)^3 - 1
    with pytest.raises(BudgetExceeded) as exc:
        h2(ur_sq2)
    assert (exc.value.what, exc.value.needed, exc.value.budget) == (
        "coderivation unknowns", 27, 26)
    monkeypatch.setenv("RACKALG_MAX_UNKNOWNS", "27")
    with pytest.raises(AssertionError, match="past the budget"):
        h2(ur_sq2)


def test_a_coboundary_outside_the_cocycles_is_refused(ur_sq2, monkeypatch):
    extra = next(f.map for f in coderivation_space(ur_sq2, 2)
                 if not infinitesimal_selfdist(ur_sq2, f.map).passed)
    d = _Faces.differential
    monkeypatch.setattr(_Faces, "differential", lambda self, omega: d(self, omega) + extra)
    with pytest.raises(RackalgError, match="coboundary left the solved cocycle space"):
        h2(ur_sq2)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda rb, f: deformation_complex(rb, 1),
    lambda rb, f: verify_complex(rb, 1),
    lambda rb, f: h2(rb),
    lambda rb, f: coderivation_space(rb, 2),
    lambda rb, f: coderivation_report(rb, 1, f),
    lambda rb, f: differential(rb, 1, f),
    lambda rb, f: equivalence_check(rb, f),
], ids=["deformation_complex", "verify_complex", "h2", "coderivation_space",
        "coderivation_report", "differential", "equivalence_check"])
def test_every_public_call_builds_one_faces(ur_sq2, monkeypatch, call):
    f = coderivation_space(ur_sq2, 1)[0].map
    built = []
    init = _Faces.__init__

    def counting_init(self, rb):
        built.append(rb)
        init(self, rb)

    monkeypatch.setattr(_Faces, "__init__", counting_init)
    call(ur_sq2, f)
    assert len(built) == 1


VECTOR_READS = {"FinVec.unit", "apply", "_lift", "_tensor_power", "_eval_multi"}


def _calls_by_owner(tree):
    """{owner: called names} for the methods of ``_Faces`` and the top-level
    functions; an attribute call is listed as its attribute name and, on a
    plain name, as ``name.attr``."""
    owners = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "_Faces":
            owners.update({f"_Faces.{item.name}": item for item in node.body
                           if isinstance(item, ast.FunctionDef)})
        elif isinstance(node, ast.FunctionDef):
            owners[node.name] = node
    calls = {}
    for name, owner in owners.items():
        names = calls[name] = set()
        for node in ast.walk(owner):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
                if isinstance(node.func.value, ast.Name):
                    names.add(f"{node.func.value.id}.{node.func.attr}")
    return calls


def test_faces_and_dual_number_checks_build_no_vectors_per_term():
    path = pathlib.Path(deformation.__file__)
    calls = _calls_by_owner(ast.parse(path.read_text(), str(path)))
    guarded = [name for name in calls if name.startswith("_Faces.") and name != "_Faces.power"]
    guarded += ["infinitesimal_selfdist", "equivalence_check"]
    assert len(guarded) > 10
    assert {name: calls[name] & VECTOR_READS for name in guarded} == {
        name: set() for name in guarded}
    assert "_tensor_power" in calls["_Faces.power"]


def test_the_vector_read_guard_sees_nested_calls():
    snippet = ("class _Faces:\n"
               " def f(self, rb):\n"
               "  def g(v): return rb.apply(v, FinVec.unit(b, l))\n"
               "  return _tensor_power(b, 2)\n"
               "def equivalence_check(v):\n"
               " return _lift(v, 2)\n")
    calls = _calls_by_owner(ast.parse(snippet))
    assert calls["_Faces.f"] & VECTOR_READS == {"apply", "FinVec.unit", "_tensor_power"}
    assert calls["equivalence_check"] & VECTOR_READS == {"_lift"}
