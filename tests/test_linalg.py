from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetalg import (
    BilinearOp,
    LinearMap,
    Space,
    TensorElement,
    direct_sum,
    eta_embed,
    sharp,
    unsharp,
)

S3 = Space.make(3)
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def tensors(space=S3):
    rows = st.lists(fractions, min_size=space.dim, max_size=space.dim)
    grid = st.lists(rows, min_size=space.dim, max_size=space.dim)
    return grid.map(lambda m: TensorElement(space, space, m))


def test_duplicate_structure_constant_rejected():
    with pytest.raises(ValueError, match=r"duplicate structure constant"):
        BilinearOp.from_entries(S3, S3, S3,
                                [(0, 1, 2, Fraction(1)), (0, 1, 2, Fraction(2))])


def test_bilinear_apply():
    # e1*e2 = 2 e3 is the only product
    op = BilinearOp.from_entries(S3, S3, S3, [(0, 1, 2, Fraction(2))])
    out = op.apply({0: Fraction(3)}, {1: Fraction(5)})
    assert out == {2: Fraction(30)}
    assert op.apply({1: Fraction(1)}, {0: Fraction(1)}) == {}


def test_linear_map_compose_transpose_power():
    f = LinearMap(S3, S3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert f.compose(f).column(2) == {0: Fraction(1)}
    assert f.compose(f).compose(f).is_zero()
    ft = LinearMap(S3, S3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert ft.column(0) == {1: Fraction(1)}
    assert f.compose(ft).column(0) == {0: Fraction(1)}


def test_identity_unsharp_is_sum_of_pairings():
    r = unsharp(LinearMap.identity(S3))
    assert r.left == S3 and r.right == S3.dual()
    assert sorted(r.nonzero()) == [(i, i, Fraction(1)) for i in range(3)]


def test_direct_sum_primes_duplicate_labels():
    d = direct_sum(S3, S3)
    assert d.dim == 6
    assert len(set(d.labels)) == 6


def test_eta_embedding_blocks_and_twist():
    amb = direct_sum(S3, S3.dual())
    r = TensorElement.from_entries(S3, S3, [(0, 2, Fraction(4))])
    e = eta_embed(r, amb)
    # the embedded tensor pairs the plain block with the dual block
    assert sorted(e.nonzero()) == [(0, 3 + 2, Fraction(4))]
    assert sorted(e.twist().nonzero()) == [(3 + 2, 0, Fraction(4))]


@given(tensors())
def test_sym_skew_decomposition(r):
    skew = r.sub(r.sym())
    assert r.sym().twist() == r.sym()
    assert skew.twist() == skew.neg()


@given(tensors())
def test_twist_involution(r):
    assert r.twist().twist() == r


@given(tensors())
def test_sharp_unsharp_round_trip(r):
    assert unsharp(sharp(r)) == r


def test_sharp_sends_dual_basis_to_rows():
    r = TensorElement.from_entries(S3, S3, [(1, 2, Fraction(7))])
    f = sharp(r)
    assert f.domain == S3.dual()
    # pairing the second slot: sharp(r)(e2*) = 7 e1
    assert f.column(2) == {1: Fraction(7)}
    assert f.column(0) == {}
