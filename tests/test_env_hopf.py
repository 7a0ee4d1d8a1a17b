"""PBW straightening, Hopf axioms of U(g), symmetrization, adjoint module.

The straightening oracle below resolves inversions with the opposite
scheduling strategy (rightmost inversion first, no memo); diamond-lemma
confluence says both must give the same normal form.
"""

import ast
import dataclasses
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackalg
from oracles import (
    convolution_inverse,
    module_action,
    sym_product_map,
    tensor_product_map,
    truncating_mul_map,
)
from rackalg.errors import AxiomViolation, DegreeCapExceeded, SchemaError
from rackalg.exact_core import FinMap, FinVec
from rackalg.env_hopf import (
    HopfBackend,
    derivation_action,
    enveloping_hopf,
    phi,
    phi_map,
    symmetrize,
    _symmetrize_word,
    _word_action,
)
from rackalg.fixtures import load
from rackalg.groups import cyclic_group, group_hopf, symmetric_group
from rackalg.leibniz import quotient_lie
from rackalg.right_hopf_dialg import certify_dialgebra, hopf_as_dialgebra, right_group_hopf
from rackalg.symcoalg import (
    check_coalgebra,
    is_cocommutative,
    symmetric_coalgebra,
)

F = Fraction


def oracle_straighten(env, word):
    """Rightmost-inversion-first straightening, memo-free."""
    idx = env.lie.basis.index
    spots = [i for i in range(len(word) - 1) if idx(word[i]) > idx(word[i + 1])]
    if not spots:
        return FinVec.unit(env.basis, tuple(word))
    i = spots[-1]
    x, y = word[i], word[i + 1]
    out = oracle_straighten(env, word[:i] + (y, x) + word[i + 2:])
    for lab, c in env.lie.table.vector(x, y).entries.items():
        out = out + oracle_straighten(env, word[:i] + (lab,) + word[i + 2:]).scale(c)
    return out


@pytest.fixture(scope="module")
def env_sl2():
    return enveloping_hopf(load("sl2"), 3)


# ---------------------------------------------------------------------------
# straightening
# ---------------------------------------------------------------------------


def test_straighten_frozen_values():
    env = enveloping_hopf(load("lie2"), 4)
    # labels 1 = x, 2 = y with [x, y] = y: yx = xy - y
    assert dict(env.straighten((2, 1)).entries) == {(1, 2): F(1), (2,): F(-1)}
    # yyx = xyy - 2yy
    assert dict(env.straighten((2, 2, 1)).entries) == {(1, 2, 2): F(1), (2, 2): F(-2)}


def test_straighten_sl2_value(env_sl2):
    # labels 1 = e, 2 = f, 3 = h with [e,f] = h, [h,e] = 2e, [h,f] = -2f:
    # fe = ef - h
    assert dict(env_sl2.straighten((2, 1)).entries) == {(1, 2): F(1), (3,): F(-1)}
    # he = eh + 2e
    assert dict(env_sl2.straighten((3, 1)).entries) == {(1, 3): F(1), (1,): F(2)}


def test_straighten_confluence_against_oracle(env_sl2):
    labels = env_sl2.lie.basis.labels
    for word in itertools.product(labels, repeat=3):
        assert env_sl2.straighten(word) == oracle_straighten(env_sl2, word)


def test_straighten_sorted_words_are_fixed(env_sl2):
    for word in env_sl2.basis.labels:
        assert env_sl2.straighten(word) == FinVec.unit(env_sl2.basis, word)


def test_a_replaced_copy_does_not_read_the_old_memos():
    # lie2 has [e1, e2] = e2, abelian2 no bracket: the word e2 e1 straightens
    # apart once the lie2 envelope has memoised it
    env = enveloping_hopf(load("lie2"), 3)
    b = env.basis
    assert env.straighten((2, 1)) == FinVec.build(b, {(1, 2): 1, (2,): -1})
    assert dataclasses.replace(env, lie=load("abelian2")).straighten((2, 1)) == \
        FinVec.unit(b, (1, 2))


def test_degree_cap_enforced(env_sl2):
    with pytest.raises(DegreeCapExceeded):
        env_sl2.straighten((1, 1, 1, 1))
    x = FinVec.unit(env_sl2.basis, (1, 1))
    with pytest.raises(DegreeCapExceeded):
        env_sl2.product(x, x)
    with pytest.raises(DegreeCapExceeded):
        env_sl2.table.vector((1, 1), (1, 1))
    assert [env_sl2.table.degree(w) for w in ((), (2,), (1, 3))] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------


def test_hopf_axioms_small_caps():
    for name, cap in (("lie2", 4), ("sl2", 3), ("heis3", 3), ("abelian2", 3)):
        q = quotient_lie(load(name))
        env = enveloping_hopf(q.algebra, cap)
        check_coalgebra(env.coalgebra)
        assert is_cocommutative(env.coalgebra)
        hopf_as_dialgebra(env)


def test_enveloping_rejects_non_lie_input():
    with pytest.raises(AxiomViolation):
        enveloping_hopf(load("sq2"), 3)


def test_antipode_is_convolution_inverse_of_identity(env_sl2):
    inv = convolution_inverse(env_sl2.coalgebra, truncating_mul_map(env_sl2),
                              env_sl2.unit, FinMap.identity(env_sl2.basis))
    assert inv == env_sl2.antipode


def test_antipode_frozen_value(env_sl2):
    # S(ef) = fe = ef - h
    s = env_sl2.antipode(FinVec.unit(env_sl2.basis, (1, 2)))
    assert dict(s.entries) == {(1, 2): F(1), (3,): F(-1)}


def test_check_hopf_catches_wrong_antipode(env_sl2):
    with pytest.raises(AxiomViolation) as exc:
        certify_dialgebra(dataclasses.replace(hopf_as_dialgebra(env_sl2), certified=False,
                                              antipode=FinMap.identity(env_sl2.basis)))
    assert "antipode" in exc.value.axiom


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------


def test_symmetrize_frozen_value():
    env = enveloping_hopf(load("lie2"), 3)
    assert dict(_symmetrize_word(env, (1, 2)).entries) == {(1, 2): F(1), (2,): F(-1, 2)}
    assert dict(_symmetrize_word(env, (2, 1)).entries) == {(1, 2): F(1), (2,): F(-1, 2)}
    assert _symmetrize_word(env, ()) == env.unit


def test_symmetrize_is_coalgebra_morphism(env_sl2):
    # Delta_U o omega = (omega (x) omega) o Delta_S on S(g)
    sym_g = symmetric_coalgebra(env_sl2.lie.basis, env_sl2.cap)
    omega = FinMap.from_function(sym_g.basis, env_sl2.basis,
                                 lambda m: _symmetrize_word(env_sl2, m))
    lhs = env_sl2.coalgebra.delta.compose(omega)
    rhs = tensor_product_map(omega, omega).compose(sym_g.delta)
    assert lhs == rhs


def test_symmetrize_is_adjoint_equivariant(env_sl2):
    # omega(ad_x(m)) = x omega(m) - omega(m) x for primitive x
    env = env_sl2
    g = env.lie
    sym_g = symmetric_coalgebra(g.basis, env.cap)
    for x_lab in g.basis.labels:
        x = FinVec.unit(g.basis, x_lab)
        xu = env.embed(x)
        for mono in sym_g.basis.labels:
            if len(mono) + 1 > env.cap:
                continue
            acted = derivation_action(g, sym_g, x, FinVec.unit(sym_g.basis, mono))
            lhs = symmetrize(env, acted)
            om = _symmetrize_word(env, mono)
            rhs = env.product(xu, om) - env.product(om, xu)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# adjoint module and phi
# ---------------------------------------------------------------------------


def test_derivation_action_frozen_value():
    sq2 = load("sq2")
    sym = symmetric_coalgebra(sq2.basis, 3)
    x = FinVec.unit(sq2.basis, 1)
    m = FinVec.unit(sym.basis, (1, 1))
    # ad_{e1}(e1) = e2, so the derivation gives e2 e1 + e1 e2 = 2 e1 e2
    acted = derivation_action(sq2, sym, x, m)
    assert dict(acted.entries) == {(1, 2): F(2)}


def test_derivation_action_is_a_derivation():
    h = load("nonlie3")
    sym = symmetric_coalgebra(h.basis, 4)
    mul = sym_product_map(sym, h.basis)
    x = FinVec.build(h.basis, {1: F(1), 2: F(3)})
    m1 = FinVec.unit(sym.basis, (1, 2))
    m2 = FinVec.unit(sym.basis, (1,)) + FinVec.unit(sym.basis, (3,)).scale(F(2))
    prod = mul(m1.tensor(m2, sym.square))
    lhs = derivation_action(h, sym, x, prod)
    rhs = mul(derivation_action(h, sym, x, m1).tensor(m2, sym.square)) + \
        mul(m1.tensor(derivation_action(h, sym, x, m2), sym.square))
    assert lhs == rhs


def test_module_action_respects_products():
    # (uv).m = u.(v.m) for words in U(g), including bracket corrections
    h = load("sl2")
    q = quotient_lie(h)
    env = enveloping_hopf(q.algebra, 3)
    sym = symmetric_coalgebra(h.basis, 2)
    u = env.embed(FinVec.unit(q.algebra.basis, 3))
    v = env.embed(FinVec.unit(q.algebra.basis, 1))
    m = FinVec.unit(sym.basis, (1, 2))
    uv = env.product(u, v)
    assert module_action(env, q, sym, uv, m) == \
        module_action(env, q, sym, u, module_action(env, q, sym, v, m))
    vu = env.product(v, u)
    commutator_action = module_action(env, q, sym, uv - vu, m)
    bracket = q.algebra.bracket_of(FinVec.unit(q.algebra.basis, 3),
                                   FinVec.unit(q.algebra.basis, 1))
    assert commutator_action == module_action(env, q, sym, env.embed(bracket), m)


@pytest.mark.parametrize("name,k", [("sq2", 2), ("heis3", 2), ("sl2", 2), ("nonlie3", 2),
                                    ("lie2", 3)])
def test_the_word_memo_acts_as_the_letterwise_oracle(name, k):
    h = load(name)
    q = quotient_lie(h)
    env = enveloping_hopf(q.algebra, k + 1)
    sym = symmetric_coalgebra(h.basis, k)
    act = _word_action(q, sym)
    for word in env.basis.labels:
        u = FinVec.unit(env.basis, word)
        for mono in sym.basis.labels:
            want = module_action(env, q, sym, u, FinVec.unit(sym.basis, mono))
            assert FinVec(sym.basis, act(word, mono)) == want


def test_module_action_kills_quotient_kernel():
    h = load("nonlie3")
    q = quotient_lie(h, z=None)
    env = enveloping_hopf(q.algebra, 3)
    sym = symmetric_coalgebra(h.basis, 3)
    # e3 spans the squares ideal, p(e3) = 0, so e3 acts as zero through p
    for z in q.z_basis:
        assert q.p(z).is_zero
        for mono in sym.basis.labels:
            acted = derivation_action(h, sym, z, FinVec.unit(sym.basis, mono))
            # z is in the left center, so even the h-level action vanishes
            assert acted.is_zero


def test_phi_frozen_values():
    sq2 = load("sq2")
    q = quotient_lie(sq2)
    env = enveloping_hopf(q.algebra, 3)
    sym = symmetric_coalgebra(sq2.basis, 3)
    assert dict(phi(env, q, sym, FinVec.unit(sym.basis, (1, 1))).entries) == \
        {(1, 1): F(1)}
    assert phi(env, q, sym, FinVec.unit(sym.basis, (2,))).is_zero
    assert phi(env, q, sym, sym.unit) == env.unit


def test_phi_is_coalgebra_morphism():
    h = load("nonlie3")
    q = quotient_lie(h)
    env = enveloping_hopf(q.algebra, 3)
    sym = symmetric_coalgebra(h.basis, 3)
    pm = phi_map(env, q, sym)
    lhs = env.coalgebra.delta.compose(pm)
    rhs = tensor_product_map(pm, pm).compose(sym.delta)
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.permutations([1, 1, 2, 3]))
def test_straighten_agrees_with_oracle_on_heis3_words(word):
    env = enveloping_hopf(load("heis3"), 4)
    assert env.straighten(tuple(word)) == oracle_straighten(env, tuple(word))


def _backend_type_checks(tree):
    """Line numbers of the isinstance calls of ``tree`` that name a concrete Hopf backend."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if names & {"HopfAlgebra", "EnvelopingHopf"}:
                found.append(node.lineno)
    return found


def test_hopf_backends_are_used_through_the_protocol():
    found = []
    for path in sorted(pathlib.Path(rackalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}" for line in _backend_type_checks(tree)]
    assert found == []
    assert _backend_type_checks(ast.parse("isinstance(h, (HopfAlgebra, m.EnvelopingHopf))"))
    assert isinstance(group_hopf(symmetric_group(3)), HopfBackend)
    assert isinstance(right_group_hopf(symmetric_group(3), "pq", "p", "left"), HopfBackend)
    assert isinstance(enveloping_hopf(load("heis3"), 3), HopfBackend)
    assert not isinstance(object(), HopfBackend)


@pytest.mark.parametrize("side", ["middle", "Left", "", None])
def test_the_record_refuses_an_unknown_side(side):
    with pytest.raises(SchemaError):
        dataclasses.replace(group_hopf(symmetric_group(3)), side=side)


def test_the_record_refuses_a_table_or_antipode_over_another_basis():
    # K[Z6] has as many labels as K[S3], but its table and antipode are not on K[S3]
    ks3, kz6 = group_hopf(symmetric_group(3)), group_hopf(cyclic_group(6))
    with pytest.raises(SchemaError):
        dataclasses.replace(ks3, table=kz6.table)
    with pytest.raises(SchemaError):
        dataclasses.replace(ks3, antipode=kz6.antipode)
