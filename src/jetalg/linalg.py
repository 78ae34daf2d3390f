"""Finite-dimensional spaces, sparse bilinear operations, maps and tensors.

Vectors are sparse dicts {basis index: scalar}.  Bilinear operations are
stored by structure constants, and so are module actions, as operations
base x carrier -> carrier; rank-2 tensors and rank-3 residuals are sparse
dicts of their nonzero cells, and linear maps are dense matrices.  Scalars
may be rationals or truncated h-jets as long as each object is homogeneous
in the scalar type it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .scalars import ZERO, Jet, rational, scalar_is_zero

ONE = Fraction(1)
HALF = Fraction(1, 2)


def _coerce_scalar(c):
    if isinstance(c, (Jet, Fraction)):
        return c
    return rational(c)


@dataclass(frozen=True)
class Space:
    """A based vector space: a dimension plus distinct basis labels."""

    dim: int
    labels: tuple[str, ...]

    @staticmethod
    def make(dim: int, labels=None, prefix: str = "e") -> "Space":
        if dim <= 0:
            raise ValueError("space dimension must be positive")
        if labels is None:
            labels = tuple(f"{prefix}{i + 1}" for i in range(dim))
        labels = tuple(labels)
        if len(labels) != dim:
            raise ValueError(f"{len(labels)} labels for dimension {dim}")
        if len(set(labels)) != dim:
            raise ValueError("basis labels must be distinct")
        return Space(dim, labels)

    def dual(self) -> "Space":
        # starring is an involution on label level
        if all(l.endswith("*") for l in self.labels):
            return Space(self.dim, tuple(l[:-1] for l in self.labels))
        return Space(self.dim, tuple(l + "*" for l in self.labels))

    def check_index(self, i: int):
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for dim {self.dim}")

    def label(self, i: int) -> str:
        return self.labels[i]


def direct_sum(a: Space, b: Space) -> Space:
    """Concatenate bases; the right block is primed until labels are distinct."""
    right = list(b.labels)
    taken = set(a.labels)
    while taken & set(right):
        right = [l + "'" for l in right]
    return Space(a.dim + b.dim, a.labels + tuple(right))


# ---------------------------------------------------------------------------
# sparse vectors

def vec_clean(v: dict) -> dict:
    return {i: c for i, c in v.items() if not scalar_is_zero(c)}


# ---------------------------------------------------------------------------

class BilinearOp:
    """One bilinear operation, stored by structure constants.

    entries maps (i, j, k) to the coefficient of out-basis k in
    op(left_i, right_j).  Zero coefficients are never stored.
    """

    __slots__ = ("left", "right", "out", "entries", "_by_ij")

    def __init__(self, left: Space, right: Space, out: Space, entries: Mapping):
        canon = {}
        by_ij = {}
        for (i, j, k), c in entries.items():
            left.check_index(i)
            right.check_index(j)
            out.check_index(k)
            c = _coerce_scalar(c)
            if scalar_is_zero(c):
                continue
            canon[(i, j, k)] = c
            by_ij.setdefault((i, j), []).append((k, c))
        self.left = left
        self.right = right
        self.out = out
        self.entries = canon
        self._by_ij = by_ij

    @classmethod
    def from_entries(cls, left, right, out, items: Iterable, combine: bool = False):
        """Build from (i, j, k, c) tuples; duplicates are an error unless
        combine is set, in which case they are summed."""
        acc = {}
        for i, j, k, c in items:
            key = (i, j, k)
            if key in acc:
                if not combine:
                    raise ValueError(f"duplicate structure constant at {key}")
                acc[key] = acc[key] + _coerce_scalar(c)
            else:
                acc[key] = _coerce_scalar(c)
        return cls(left, right, out, acc)

    @classmethod
    def zero(cls, left, right, out):
        return cls(left, right, out, {})

    @classmethod
    def on(cls, space: Space, items: Iterable, combine: bool = False):
        return cls.from_entries(space, space, space, items, combine=combine)

    def basis(self, i: int, j: int) -> dict:
        """op(e_i, e_j) as a sparse vector."""
        return dict(self._by_ij.get((i, j), ()))

    def apply(self, u: Mapping, v: Mapping) -> dict:
        acc = {}
        for i, ui in u.items():
            for j, vj in v.items():
                cell = self._by_ij.get((i, j))
                if not cell:
                    continue
                f = ui * vj
                for k, c in cell:
                    acc[k] = acc.get(k, 0) + f * c
        return vec_clean(acc)

    def add(self, other: "BilinearOp") -> "BilinearOp":
        self._require_same_spaces(other)
        acc = dict(self.entries)
        for key, c in other.entries.items():
            acc[key] = acc.get(key, 0) + c
        return BilinearOp(self.left, self.right, self.out, acc)

    def sub(self, other: "BilinearOp") -> "BilinearOp":
        return self.add(other.scale(-1))

    def scale(self, factor) -> "BilinearOp":
        return BilinearOp(
            self.left, self.right, self.out,
            {key: factor * c for key, c in self.entries.items()},
        )

    def neg(self) -> "BilinearOp":
        return self.scale(-1)

    def arg_swap(self) -> "BilinearOp":
        """The opposite operation op^op(x, y) = op(y, x)."""
        return BilinearOp(
            self.right, self.left, self.out,
            {(j, i, k): c for (i, j, k), c in self.entries.items()},
        )

    def map_scalars(self, fn) -> "BilinearOp":
        return BilinearOp(
            self.left, self.right, self.out,
            {key: fn(c) for key, c in self.entries.items()},
        )

    def is_zero(self) -> bool:
        return not self.entries

    def sorted_entries(self):
        return sorted(self.entries.items())

    def _require_same_spaces(self, other):
        if (self.left, self.right, self.out) != (other.left, other.right, other.out):
            raise ValueError("bilinear operations live on different spaces")

    def __eq__(self, other):
        if not isinstance(other, BilinearOp):
            return NotImplemented
        return (
            (self.left, self.right, self.out) == (other.left, other.right, other.out)
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return f"BilinearOp({len(self.entries)} entries on dim {self.left.dim})"


# ---------------------------------------------------------------------------

class LinearMap:
    """Dense linear map; matrix[i][j] is the e_i-coefficient of f(e_j)."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: Space, codomain: Space, matrix):
        rows = tuple(tuple(_coerce_scalar(c) for c in row) for row in matrix)
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise ValueError(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not "
                f"match codomain {codomain.dim} x domain {domain.dim}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = rows

    @classmethod
    def identity(cls, space: Space):
        n = space.dim
        return cls(space, space, [[ONE if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, space: Space, values):
        values = list(values)
        if len(values) != space.dim:
            raise ValueError("diagonal length does not match dimension")
        return cls(space, space,
                   [[values[i] if i == j else 0 for j in range(space.dim)]
                    for i in range(space.dim)])

    def column(self, j: int) -> dict:
        return vec_clean({i: self.matrix[i][j] for i in range(self.codomain.dim)})

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        n, m, p = self.codomain.dim, self.domain.dim, other.domain.dim
        a, b = self.matrix, other.matrix
        out = [[0] * p for _ in range(n)]
        for i in range(n):
            for t in range(m):
                c = a[i][t]
                if scalar_is_zero(c):
                    continue
                for j in range(p):
                    d = b[t][j]
                    if not scalar_is_zero(d):
                        out[i][j] = out[i][j] + c * d
        return LinearMap(other.domain, self.codomain, out)

    def commutes_with(self, other: "LinearMap") -> bool:
        return self.compose(other) == other.compose(self)

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for row in self.matrix for c in row)

    def block(self, rows: range, cols: range, domain: Space, codomain: Space) -> "LinearMap":
        mat = [[self.matrix[i][j] for j in cols] for i in rows]
        return LinearMap(domain, codomain, mat)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return ((self.domain, self.codomain) == (other.domain, other.codomain)
                and self.matrix == other.matrix)

    __hash__ = None

    def __repr__(self):
        return f"LinearMap({self.domain.dim} -> {self.codomain.dim})"


def block_diag(a: LinearMap, b: LinearMap, space: Space = None) -> LinearMap:
    """Block-diagonal endomorphism on the direct sum of two endomorphism spaces."""
    if a.domain != a.codomain or b.domain != b.codomain:
        raise ValueError("block_diag expects endomorphisms")
    if space is None:
        space = direct_sum(a.domain, b.domain)
    n, m = a.domain.dim, b.domain.dim
    mat = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            mat[i][j] = a.matrix[i][j]
    for i in range(m):
        for j in range(m):
            mat[n + i][n + j] = b.matrix[i][j]
    return LinearMap(space, space, mat)


# ---------------------------------------------------------------------------
# operations pulled back and pushed forward along linear maps

def pullback(op: BilinearOp, f: LinearMap, g: LinearMap) -> BilinearOp:
    """op(f x, g y) as an operation on f.domain x g.domain."""
    if (f.codomain, g.codomain) != (op.left, op.right):
        raise ValueError("pullback maps do not land in the operation's arguments")
    rows_f, rows_g = _nonzero_rows(f), _nonzero_rows(g)
    acc = {}
    for (i, j, k), c in op.entries.items():
        for a, fa in rows_f[i]:
            fc = fa * c
            for b, gb in rows_g[j]:
                key = (a, b, k)
                acc[key] = acc.get(key, 0) + fc * gb
    return BilinearOp(f.domain, g.domain, op.out, acc)


def pushforward(f: LinearMap, op: BilinearOp) -> BilinearOp:
    """f(op(x, y)) as an operation into f.codomain."""
    if f.domain != op.out:
        raise ValueError("pushforward map does not start where the operation lands")
    cols = [[] for _ in range(f.domain.dim)]
    for k, row in enumerate(f.matrix):
        for m, c in enumerate(row):
            if not scalar_is_zero(c):
                cols[m].append((k, c))
    acc = {}
    for (a, b, m), c in op.entries.items():
        for k, fk in cols[m]:
            key = (a, b, k)
            acc[key] = acc.get(key, 0) + fk * c
    return BilinearOp(op.left, op.right, f.codomain, acc)


def _nonzero_rows(f: LinearMap):
    """Row i of f as (j, c) pairs: the nonzero e_i-coefficients of f(e_j)."""
    return [[(j, c) for j, c in enumerate(row) if not scalar_is_zero(c)]
            for row in f.matrix]


# ---------------------------------------------------------------------------

class TensorElement:
    """Element of left (x) right, stored sparsely.

    entries maps (i, j) to the coefficient of e_i (x) e_j; zero
    coefficients are never stored.  matrix is a dense view, built on demand.
    """

    __slots__ = ("left", "right", "entries")

    def __init__(self, left: Space, right: Space, matrix):
        if len(matrix) != left.dim or any(len(row) != right.dim for row in matrix):
            raise ValueError("tensor matrix shape does not match its spaces")
        entries = {}
        for i, row in enumerate(matrix):
            for j, c in enumerate(row):
                c = _coerce_scalar(c)
                if not scalar_is_zero(c):
                    entries[(i, j)] = c
        self.left = left
        self.right = right
        self.entries = entries

    @classmethod
    def _of(cls, left: Space, right: Space, entries: dict) -> "TensorElement":
        """From a mapping {(i, j): c} of in-range cells; zero cells are dropped."""
        t = cls.__new__(cls)
        t.left = left
        t.right = right
        t.entries = {key: c for key, c in entries.items() if not scalar_is_zero(c)}
        return t

    @classmethod
    def zero(cls, left: Space, right: Space):
        return cls._of(left, right, {})

    @classmethod
    def from_entries(cls, left: Space, right: Space, items: Iterable):
        """Build from (i, j, c) tuples; repeated cells are summed."""
        acc = {}
        for i, j, c in items:
            left.check_index(i)
            right.check_index(j)
            acc[(i, j)] = acc.get((i, j), 0) + _coerce_scalar(c)
        return cls._of(left, right, acc)

    @property
    def matrix(self) -> tuple:
        cells = self.entries
        return tuple(tuple(cells.get((i, j), ZERO) for j in range(self.right.dim))
                     for i in range(self.left.dim))

    def nonzero(self) -> Iterator[tuple]:
        """(i, j, c) for every nonzero cell, in row-major order."""
        for (i, j), c in sorted(self.entries.items()):
            yield i, j, c

    def add(self, other: "TensorElement") -> "TensorElement":
        self._require_same_spaces(other)
        acc = dict(self.entries)
        for key, c in other.entries.items():
            acc[key] = acc[key] + c if key in acc else c
        return TensorElement._of(self.left, self.right, acc)

    def sub(self, other: "TensorElement") -> "TensorElement":
        return self.add(other.scale(-1))

    def scale(self, factor) -> "TensorElement":
        return TensorElement._of(self.left, self.right,
                                 {key: factor * c for key, c in self.entries.items()})

    def neg(self) -> "TensorElement":
        return self.scale(-1)

    def twist(self) -> "TensorElement":
        if self.left != self.right:
            raise ValueError("twist needs equal left and right spaces")
        return TensorElement._of(self.left, self.right,
                                 {(j, i): c for (i, j), c in self.entries.items()})

    def sym(self) -> "TensorElement":
        return self.add(self.twist()).scale(HALF)

    def is_zero(self) -> bool:
        return not self.entries

    def _require_same_spaces(self, other):
        if (self.left, self.right) != (other.left, other.right):
            raise ValueError("tensors live on different spaces")

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return ((self.left, self.right) == (other.left, other.right)
                and self.entries == other.entries)

    __hash__ = None

    def __repr__(self):
        return f"TensorElement({self.left.dim}x{self.right.dim}, {len(self.entries)} nonzero)"


class Tensor3:
    """Sparse element of S1 (x) S2 (x) S3, used for residuals."""

    __slots__ = ("spaces", "entries")

    def __init__(self, spaces, entries: Mapping):
        s1, s2, s3 = spaces
        canon = {}
        for (i, j, k), c in entries.items():
            s1.check_index(i)
            s2.check_index(j)
            s3.check_index(k)
            c = _coerce_scalar(c)
            if not scalar_is_zero(c):
                canon[(i, j, k)] = c
        self.spaces = (s1, s2, s3)
        self.entries = canon

    def is_zero(self) -> bool:
        return not self.entries

    def sorted_entries(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.spaces == other.spaces and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"Tensor3({len(self.entries)} nonzero)"


# ---------------------------------------------------------------------------
# canonical identifications

def sharp(r: TensorElement) -> LinearMap:
    """Read r in W (x) V as a map V* -> W: row i, column j is r's (i, j) cell."""
    mat = [[0] * r.right.dim for _ in range(r.left.dim)]
    for (i, j), c in r.entries.items():
        mat[i][j] = c
    return LinearMap(r.right.dual(), r.left, mat)


def unsharp(f: LinearMap) -> TensorElement:
    """Inverse of sharp: a map V -> W becomes sum_j f(e_j) (x) e_j^* in W (x) V*."""
    return TensorElement._of(f.codomain, f.domain.dual(),
                             {(i, j): c for i, row in enumerate(f.matrix)
                              for j, c in enumerate(row)})


def eta_embed(r: TensorElement, ambient: Space = None) -> TensorElement:
    """Embed V (x) W into (V + W) (x) (V + W), V-block first."""
    s = direct_sum(r.left, r.right)
    if ambient is not None:
        if ambient.dim != s.dim:
            raise ValueError("ambient dimension does not match V + W")
        s = ambient
    nv = r.left.dim
    return TensorElement._of(s, s, {(i, nv + j): c for (i, j), c in r.entries.items()})
