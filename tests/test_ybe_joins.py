"""Sparse tensors and the joined integer Yang-Baxter residuals against the
dense pair loops they replaced.

ybe_oracle.py keeps the dense-matrix tensor, the residuals that loop over
every pair of nonzero cells of r, the per-x invariance residual and the
transfer evaluated on the jet-valued presentation.  Derandomized property
tests compare both on random sparse rational algebras of dims 1 to 4, on
the tri-aybe and post-pybe bundle tensors with and without one moved cell,
and on transfers through deformations with one moved cell in a layer
s >= 1: residual cells with their scalar types, invariance tuples, and
transfer reports.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybe_oracle as oracle
from jetalg import (
    BilinearOp,
    DeformationJet,
    LinearMap,
    Space,
    StructurePresentation,
    TensorElement,
    construct_solutions,
    deformation_transfer,
    dual_semidirect_jet,
    eta_embed,
    gen_product_shift,
    invariance_residual,
    qcl,
    sharp,
    tridendriform_bimodule_jet,
    truncated_polynomial_algebra,
    unsharp,
    ybe_residual,
)
from jetalg.yangbaxter import YBE_KINDS
from test_identity_engine import SCALARS, _moved, failure_rows
from test_yangbaxter import idempotent_line

CELLS = st.sampled_from((Fraction(0), Fraction(0), Fraction(1))) | SCALARS


def tensors(left: Space, right: Space):
    """A random sparse rational tensor: a dense matrix, mostly zeros."""
    return st.lists(st.lists(CELLS, min_size=right.dim, max_size=right.dim),
                    min_size=left.dim, max_size=left.dim).map(
        lambda rows: TensorElement(left, right, rows))


def _sparse_op(draw, space, scalars):
    n = space.dim
    index = st.integers(0, n - 1)
    cells = draw(st.dictionaries(st.tuples(index, index, index), scalars, max_size=2 * n))
    return BilinearOp(space, space, space, cells)


@st.composite
def poisson_ambients(draw):
    """Random sparse circ and bracket on one space, read as a Poisson ambient
    (the residuals do not need the identities to hold)."""
    space = Space.make(draw(st.integers(1, 4)))
    return StructurePresentation(
        space, {role: _sparse_op(draw, space, SCALARS) for role in ("bracket", "circ")},
        "poisson")


def cells(t):
    # repr keeps the scalar type: a Jet cell must not turn into a Fraction
    return [(key, repr(c)) for key, c in t.sorted_entries()]


def residual_rows(kind, r, p):
    got = ybe_residual(kind, r, p)
    want = oracle.ybe_residual(kind, oracle.to_dense(r), p)
    if kind == "pybe":
        return [cells(t) for t in got], [cells(t) for t in want]
    return cells(got), cells(want)


def invariance_rows(kind, b, p):
    got = invariance_residual(kind, b, p)
    want = oracle.invariance_residual(kind, oracle.to_dense(b), p)
    assert all(isinstance(t, TensorElement) for t in got)
    return ([[(i, j, repr(c)) for i, j, c in t.nonzero()] for t in got],
            [[(i, j, repr(c)) for i, j, c in t.nonzero()] for t in want])


def assert_same_residuals(r, p, kinds=YBE_KINDS):
    for kind in kinds:
        got, want = residual_rows(kind, r, p)
        assert got == want, kind
    for kind in ("associative", "lie"):
        if kind == "lie" and "bracket" not in p.ops:
            continue
        got, want = invariance_rows(kind, r, p)
        assert got == want, kind


# ---------------------------------------------------------------------------
# the sparse tensor against the dense one

def assert_same_tensor(got: TensorElement, want: "oracle.DenseTensor"):
    assert (got.left, got.right) == (want.left, want.right)
    assert repr(got.matrix) == repr(want.matrix)
    assert list(got.nonzero()) == list(want.nonzero())
    assert all(c != 0 for c in got.entries.values())
    assert got.is_zero() == want.is_zero()
    assert repr(got) == repr(want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_tensor_operations_agree_with_the_dense_oracle(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    left, right = Space.make(n), Space.make(m, prefix="f")
    a, b = data.draw(tensors(left, right)), data.draw(tensors(left, right))
    da, db = oracle.to_dense(a), oracle.to_dense(b)
    factor = data.draw(CELLS)
    assert_same_tensor(a, da)
    assert_same_tensor(a.add(b), da.add(db))
    assert_same_tensor(a.sub(b), da.sub(db))
    assert_same_tensor(a.sub(a), da.sub(da))
    assert_same_tensor(a.scale(factor), da.scale(factor))
    assert_same_tensor(a.neg(), da.neg())
    assert (a == b) == (da == db)
    assert_same_tensor(eta_embed(a), oracle.eta_embed(da))
    assert sharp(a) == oracle.sharp(da)
    f = LinearMap(right, left, da.matrix)
    assert_same_tensor(unsharp(f), oracle.unsharp(f))
    items = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), CELLS),
                               max_size=3 * n))
    assert_same_tensor(TensorElement.from_entries(left, right, items),
                       oracle.DenseTensor.from_entries(left, right, items))
    square = data.draw(tensors(left, left))
    dense = oracle.to_dense(square)
    assert_same_tensor(square.twist(), dense.twist())
    assert_same_tensor(square.sym(), dense.sym())
    assert_same_tensor(TensorElement.zero(left, right), oracle.DenseTensor.zero(left, right))


def test_tensor_rejects_what_the_dense_one_rejects():
    left, right = Space.make(2), Space.make(3)
    with pytest.raises(ValueError, match="shape"):
        TensorElement(left, right, [[0, 0, 0]])
    with pytest.raises(ValueError, match="out of range"):
        TensorElement.from_entries(left, right, [(0, 3, 1)])
    with pytest.raises(ValueError, match="twist needs equal"):
        TensorElement.zero(left, right).twist()
    with pytest.raises(ValueError, match="different spaces"):
        TensorElement.zero(left, right).add(TensorElement.zero(right, left))


# ---------------------------------------------------------------------------
# residuals against the pair loops

@settings(derandomize=True, max_examples=200, deadline=None)
@given(poisson_ambients(), st.data())
def test_residuals_agree_with_the_pair_loops(p, data):
    assert_same_residuals(data.draw(tensors(p.space, p.space)), p)


def test_residuals_raise_as_the_pair_loops_do():
    space = Space.make(2)
    circ = BilinearOp.on(space, [(0, 0, 1, 1)])
    assoc = StructurePresentation(space, {"circ": circ}, "associative")
    r = TensorElement.from_entries(space, space, [(0, 1, 1)])
    other = TensorElement.zero(Space.make(3), Space.make(3))
    cases = [(ybe_residual, oracle.ybe_residual, kind, t)
             for kind in ("cybe", "pybe", "bogus") for t in (r, other)]
    cases += [(invariance_residual, oracle.invariance_residual, kind, t)
              for kind in ("lie", "bogus") for t in (r, other)]
    for new, old, kind, t in cases:
        with pytest.raises(ValueError) as want:
            old(kind, oracle.to_dense(t), assoc)
        with pytest.raises(ValueError, match=str(want.value)):
            new(kind, t, assoc)


@pytest.fixture(scope="module")
def bundles(poly2):
    return (construct_solutions("tri-aybe", poly2.presentation),
            construct_solutions("post-pybe", qcl(poly2.jet)),
            construct_solutions("tri-aybe", gen_product_shift(idempotent_line(), 2)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_bundle_tensors_agree_with_the_pair_loops(bundles, data):
    bundle = data.draw(st.sampled_from(bundles))
    r = bundle.tensors[data.draw(st.sampled_from(sorted(bundle.tensors)))]
    n = bundle.ambient.space.dim
    if data.draw(st.booleans()):
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        r = r.add(TensorElement.from_entries(r.left, r.right, [(i, j, data.draw(SCALARS))]))
    kinds = ("pybe",) if bundle.ambient.kind == "poisson" else ("aybe", "aybe-op")
    assert_same_residuals(r, bundle.ambient, kinds)
    assert_same_residuals(r.sym(), bundle.ambient, ())


# ---------------------------------------------------------------------------
# transfer: per layer against the jet-valued presentation

def transfer_rows(r, j, invariance_only):
    def run(fn, t):
        try:
            rep = fn(t, j, invariance_only=invariance_only)
        except ValueError as exc:
            return ("raised", str(exc))
        return (rep.passed, rep.checked, rep.subject, failure_rows(rep.failures))
    return (run(deformation_transfer, r),
            run(oracle.deformation_transfer, oracle.to_dense(r)))


@pytest.fixture(scope="module")
def transfer_cases(poly2):
    ehat = dual_semidirect_jet(tridendriform_bimodule_jet(poly2.jet).semidirect_jet())
    return ehat, construct_solutions("tri-aybe", poly2.presentation)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(st.data())
def test_transfer_agrees_with_the_jet_presentation(transfer_cases, data):
    """Bundle tensors through the deformed ambient, with maybe one moved cell
    in r and maybe one in a layer s >= 1 of the product."""
    ehat, bundle = transfer_cases
    r = bundle.tensors[data.draw(st.sampled_from(sorted(bundle.tensors)))]
    n = ehat.space.dim
    index = st.integers(0, n - 1)
    if data.draw(st.booleans()):
        i, j = data.draw(st.tuples(index, index))
        r = r.add(TensorElement.from_entries(r.left, r.right, [(i, j, data.draw(SCALARS))]))
    layers = list(ehat.layers["circ"])
    moved_at = data.draw(st.integers(0, ehat.order))
    if moved_at:
        layers[moved_at] = _moved(layers[moved_at], data.draw(st.tuples(index, index, index)),
                                  data.draw(SCALARS))
    j = DeformationJet(ehat.kind, ehat.order, {"circ": layers})
    for invariance_only in (False, True):
        got, want = transfer_rows(r, j, invariance_only)
        assert got == want


def test_a_moved_cell_in_layer_s_fails_at_order_s(transfer_cases):
    ehat, bundle = transfer_cases
    r = bundle.tensors["alpha1-plus"]
    for s in range(1, ehat.order + 1):
        layers = list(ehat.layers["circ"])
        key = next(iter(sorted(layers[0].entries)))
        layers[s] = _moved(layers[s], key, Fraction(1, 3))
        j = DeformationJet(ehat.kind, ehat.order, {"circ": layers})
        for invariance_only in (False, True):
            got, want = transfer_rows(r, j, invariance_only)
            assert got == want
            assert got[0] is False and {row[3] for row in got[3]} == {s}


@st.composite
def small_jets(draw):
    """A commutative layer 0 and 0 to 3 random sparse layers above it, with
    a random sparse tensor or the zero one (whose hypotheses hold)."""
    layer0 = truncated_polynomial_algebra(draw(st.integers(1, 3)))
    space = layer0.space
    order = draw(st.integers(0, 3))
    layers = [layer0.op("circ")] + [_sparse_op(draw, space, SCALARS) for _ in range(order)]
    j = DeformationJet(draw(st.sampled_from(("associative", "commutative-associative"))),
                       order, {"circ": layers})
    r = draw(st.sampled_from((TensorElement.zero(space, space),)) | tensors(space, space))
    return r, j


@settings(derandomize=True, max_examples=80, deadline=None)
@given(small_jets())
def test_transfer_agrees_on_random_small_jets(case):
    r, j = case
    for invariance_only in (False, True):
        got, want = transfer_rows(r, j, invariance_only)
        assert got == want
