"""Sparse linear maps against the dense matrices they replaced.

module_oracle.DenseMap keeps the dense-matrix map.  Derandomized property
tests compare both on random sparse rational maps of dims 1 to 4, on the
zero map, the identity, diagonals with zero entries and on products that
cancel to zero: dense views, columns, zero tests, equality, composition,
blocks, block sums and the sharp/unsharp round trip.  Operations pulled
back and pushed forward along random maps are compared with the sums that
define them, cell by cell.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetalg import BilinearOp, LinearMap, Space, direct_sum, sharp, unsharp
from jetalg.linalg import block_diag, pullback, pushforward
from module_oracle import DenseMap
from test_identity_engine import SCALARS

CELLS = st.sampled_from((Fraction(0), Fraction(0), 0, Fraction(1))) | SCALARS
SPACES = st.integers(1, 4).map(Space.make)
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def _matrix(draw, domain: Space, codomain: Space):
    """A dense matrix, mostly zeros."""
    return draw(st.lists(st.lists(CELLS, min_size=domain.dim, max_size=domain.dim),
                         min_size=codomain.dim, max_size=codomain.dim))


@st.composite
def maps(draw, domain=None, codomain=None):
    """A sparse map and its dense twin: random, zero, identity or diagonal."""
    domain = domain or draw(SPACES)
    codomain = codomain or draw(SPACES)
    shapes = ["random", "random", "zero"]
    if domain == codomain:
        shapes += ["identity", "diagonal"]
    shape = draw(st.sampled_from(shapes))
    if shape in ("identity", "diagonal"):
        n = domain.dim
        if shape == "identity":
            values, f = [1] * n, LinearMap.identity(domain)
        else:
            values = draw(st.lists(CELLS, min_size=n, max_size=n))
            f = LinearMap.diagonal(domain, values)
        rows = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        rows = (_matrix(draw, domain, codomain) if shape == "random"
                else [[0] * domain.dim for _ in range(codomain.dim)])
        f = LinearMap(domain, codomain, rows)
    return f, DenseMap(domain, codomain, rows)


@PROPERTY
@given(maps())
def test_views_agree_with_the_dense_map(pair):
    f, dense = pair
    assert repr(f.matrix) == repr(dense.matrix)
    assert all(c != 0 for c in f.entries.values())
    for j in range(f.domain.dim):
        assert f.column(j) == dense.column(j)
    assert f.is_zero() == all(c == 0 for row in dense.matrix for c in row)
    assert f == LinearMap(f.domain, f.codomain, dense.matrix)


@PROPERTY
@given(st.data())
def test_equality_and_composition_agree(data):
    u, v, w = (data.draw(SPACES) for _ in range(3))
    f, df = data.draw(maps(v, w))
    g, dg = data.draw(maps(u, v))
    other, dother = data.draw(maps(v, w))
    assert (f == other) == (df == dother)
    h = f.compose(g)
    assert (h.domain, h.codomain) == (u, w)
    assert repr(h.matrix) == repr(df.compose(dg).matrix)
    assert h.is_zero() == all(c == 0 for row in h.matrix for c in row)


@PROPERTY
@given(st.data())
def test_products_that_cancel_are_zero(data):
    # [a | a] after [b ; -b] is ab - ab, with every product ab computed
    u, v, w = (data.draw(SPACES) for _ in range(3))
    _, da = data.draw(maps(v, w))
    _, db = data.draw(maps(u, v))
    vv = direct_sum(v, v)
    df = DenseMap(vv, w, [row + row for row in da.matrix])
    dg = DenseMap(u, vv, db.matrix + db.neg().matrix)
    h = LinearMap(vv, w, df.matrix).compose(LinearMap(u, vv, dg.matrix))
    assert h.is_zero() and h.entries == {}
    assert repr(h.matrix) == repr(df.compose(dg).matrix)
    assert h == LinearMap(u, w, [[0] * u.dim for _ in range(w.dim)])


@PROPERTY
@given(st.data())
def test_blocks_and_block_sums_agree(data):
    s, t = data.draw(SPACES), data.draw(SPACES)
    a, da = data.draw(maps(s, s))
    b, db = data.draw(maps(t, t))
    n, m = s.dim, t.dim
    total = block_diag(a, b)
    want = [list(row) + [0] * m for row in da.matrix] + [[0] * n + list(row) for row in db.matrix]
    assert repr(total.matrix) == repr(DenseMap(total.domain, total.codomain, want).matrix)
    assert total.block(range(n), range(n), s, s) == a
    assert total.block(range(n, n + m), range(n, n + m), t, t) == b
    assert total.block(range(n), range(n, n + m), t, s).is_zero()
    assert block_diag(a, b, total.domain) == total
    f, df = data.draw(maps())
    rows = range(data.draw(st.integers(0, f.codomain.dim - 1)), f.codomain.dim)
    cols = range(data.draw(st.integers(0, f.domain.dim - 1)), f.domain.dim)
    sub = f.block(rows, cols, Space.make(len(cols)), Space.make(len(rows)))
    assert repr(sub.matrix) == repr(tuple(tuple(df.matrix[i][j] for j in cols) for i in rows))


@PROPERTY
@given(maps())
def test_sharp_unsharp_round_trip(pair):
    f, dense = pair
    r = unsharp(f)
    assert (r.left, r.right) == (f.codomain, f.domain.dual())
    assert repr(r.matrix) == repr(dense.matrix)
    assert sharp(r) == f


def _op(draw, left: Space, right: Space, out: Space):
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, left.dim - 1), st.integers(0, right.dim - 1),
                  st.integers(0, out.dim - 1)),
        CELLS, max_size=2 * max(left.dim, right.dim, out.dim)))
    return BilinearOp(left, right, out, cells)


def _clean(acc: dict) -> dict:
    return {key: c for key, c in acc.items() if c != 0}


@PROPERTY
@given(st.data())
def test_pullback_and_pushforward_agree_with_their_sums(data):
    x, y, z, u1, u2, w = (data.draw(SPACES) for _ in range(6))
    op = _op(data.draw, x, y, z)
    f, df = data.draw(maps(u1, x))
    g, dg = data.draw(maps(u2, y))
    h, dh = data.draw(maps(z, w))
    c = op.entries.get
    # op(f e_a, g e_b) and h(op(e_a, e_b)) on every basis pair, from the matrices
    want_pull = _clean({
        (a, b, k): sum((df.matrix[i][a] * dg.matrix[j][b] * c((i, j, k), 0)
                        for i in range(x.dim) for j in range(y.dim)), Fraction(0))
        for a in range(u1.dim) for b in range(u2.dim) for k in range(z.dim)})
    want_push = _clean({
        (a, b, k): sum((dh.matrix[k][m] * c((a, b, m), 0) for m in range(z.dim)), Fraction(0))
        for a in range(x.dim) for b in range(y.dim) for k in range(w.dim)})
    pulled, pushed = pullback(op, f, g), pushforward(h, op)
    assert (pulled.left, pulled.right, pulled.out) == (u1, u2, z)
    assert (pushed.left, pushed.right, pushed.out) == (x, y, w)
    assert pulled.entries == want_pull
    assert pushed.entries == want_push


def test_public_constructor_validates_shape_and_cells():
    s2, s3 = Space.make(2), Space.make(3)
    with pytest.raises(ValueError, match=r"matrix shape 2x3 does not match codomain 3 x domain 2"):
        LinearMap(s2, s3, [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match=r"matrix shape"):
        LinearMap(s2, s2, [[1, 0], [0]])
    with pytest.raises(TypeError, match=r"cannot interpret"):
        LinearMap(s2, s2, [[1, 0], [None, 1]])
    f = LinearMap(s2, s2, [[1, "2/3"], [0, 0]])
    assert f.entries == {(0, 0): Fraction(1), (0, 1): Fraction(2, 3)}
