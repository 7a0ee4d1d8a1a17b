"""Fixtures shared by several test modules."""

import pytest

from rackalg.exact_core import FinMap, FinVec
from rackalg.groups import group_hopf, symmetric_group
from rackalg.symcoalg import Coalgebra


@pytest.fixture(scope="session")
def function_coalgebra_s3():
    """Functions on S3: delta(d_x) = sum_{hk = x} d_h (x) d_k, counit at the
    unit, coaugmentation sum d_x.

    A coassociative, counital coalgebra that is not cocommutative, on the
    basis of the group algebra K[S3].
    """
    g = symmetric_group(3)
    kg = group_hopf(g).coalgebra
    basis, square = kg.basis, kg.square
    delta = FinMap.from_function(basis, square, lambda x: FinVec.build(
        square, (((h, k), 1) for h in g.elements for k in g.elements if g.mul(h, k) == x)))
    unit = FinVec.build(basis, ((x, 1) for x in g.elements))
    return Coalgebra(basis, delta, {g.unit: 1}, unit)
