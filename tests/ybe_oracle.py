"""The Yang-Baxter layer as it was written for dense tensors and jet scalars.

DenseTensor is the dense-matrix rank-2 tensor with its operations, and
sharp, unsharp and eta_embed work on its matrix.  The residuals loop over
every pair of nonzero cells of r and probe the product for each; the
invariance residual builds one dense tensor per basis vector x; and the
transfer evaluates both hypotheses on the jet-valued presentation of the
deformation, in jet arithmetic.  The sparse integer joins in
jetalg.yangbaxter must agree with these on every report.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from jetalg import (
    AxiomFailure,
    AxiomReport,
    BilinearOp,
    DeformationJet,
    LinearMap,
    Space,
    StructurePresentation,
    Tensor3,
    TensorElement,
    qcl,
)
from jetalg.linalg import direct_sum
from jetalg.scalars import Jet, rational, scalar_is_zero

YBE_KINDS = ("aybe", "aybe-op", "cybe", "pybe")

HALF = Fraction(1, 2)


def _coerce_scalar(c):
    if isinstance(c, (Jet, Fraction)):
        return c
    return rational(c)


def _op_for(p: StructurePresentation, which: str) -> BilinearOp:
    if which not in p.ops:
        raise ValueError(f"structure of kind {p.kind!r} has no {which!r} operation")
    return p.ops[which]


def _check_tensor_space(r, p: StructurePresentation):
    if r.left != p.space or r.right != p.space:
        raise ValueError("tensor does not live on the structure's space")


def to_dense(t: TensorElement) -> "DenseTensor":
    return DenseTensor(t.left, t.right, t.matrix)


def from_dense(t: "DenseTensor") -> TensorElement:
    return TensorElement(t.left, t.right, t.matrix)


class DenseTensor:
    """Element of left (x) right, stored as a dense matrix."""

    __slots__ = ("left", "right", "matrix")

    def __init__(self, left: Space, right: Space, matrix):
        rows = tuple(tuple(_coerce_scalar(c) for c in row) for row in matrix)
        if len(rows) != left.dim or any(len(r) != right.dim for r in rows):
            raise ValueError("tensor matrix shape does not match its spaces")
        self.left = left
        self.right = right
        self.matrix = rows

    @classmethod
    def zero(cls, left: Space, right: Space):
        return cls(left, right, [[0] * right.dim for _ in range(left.dim)])

    @classmethod
    def from_entries(cls, left: Space, right: Space, items: Iterable):
        mat = [[0] * right.dim for _ in range(left.dim)]
        for i, j, c in items:
            left.check_index(i)
            right.check_index(j)
            mat[i][j] = mat[i][j] + _coerce_scalar(c)
        return cls(left, right, mat)

    def entry(self, i: int, j: int):
        return self.matrix[i][j]

    def nonzero(self) -> Iterator[tuple]:
        for i, row in enumerate(self.matrix):
            for j, c in enumerate(row):
                if not scalar_is_zero(c):
                    yield i, j, c

    def add(self, other: "DenseTensor") -> "DenseTensor":
        self._require_same_spaces(other)
        return DenseTensor(self.left, self.right,
                             [[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.matrix, other.matrix)])

    def sub(self, other: "DenseTensor") -> "DenseTensor":
        return self.add(other.scale(-1))

    def scale(self, factor) -> "DenseTensor":
        return DenseTensor(self.left, self.right,
                             [[factor * c for c in row] for row in self.matrix])

    def neg(self) -> "DenseTensor":
        return self.scale(-1)

    def twist(self) -> "DenseTensor":
        if self.left != self.right:
            raise ValueError("twist needs equal left and right spaces")
        n = self.left.dim
        return DenseTensor(self.left, self.right,
                             [[self.matrix[j][i] for j in range(n)] for i in range(n)])

    def sym(self) -> "DenseTensor":
        return self.add(self.twist()).scale(HALF)

    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for row in self.matrix for c in row)

    def map_scalars(self, fn) -> "DenseTensor":
        return DenseTensor(self.left, self.right,
                             [[fn(c) for c in row] for row in self.matrix])

    def _require_same_spaces(self, other):
        if (self.left, self.right) != (other.left, other.right):
            raise ValueError("tensors live on different spaces")

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return ((self.left, self.right) == (other.left, other.right)
                and self.matrix == other.matrix)

    __hash__ = None

    def __repr__(self):
        nz = sum(1 for _ in self.nonzero())
        return f"TensorElement({self.left.dim}x{self.right.dim}, {nz} nonzero)"


# canonical identifications

def sharp(r: DenseTensor) -> LinearMap:
    """Read r in W (x) V as a map V* -> W; the matrix is reused unchanged."""
    return LinearMap(r.right.dual(), r.left, r.matrix)


def unsharp(f: LinearMap) -> DenseTensor:
    """Inverse of sharp: a map V -> W becomes sum_j f(e_j) (x) e_j^* in W (x) V*."""
    return DenseTensor(f.codomain, f.domain.dual(), f.matrix)


def eta_embed(r: DenseTensor, ambient: Space = None) -> DenseTensor:
    """Embed V (x) W into (V + W) (x) (V + W), V-block first."""
    s = direct_sum(r.left, r.right)
    if ambient is not None:
        if ambient.dim != s.dim:
            raise ValueError("ambient dimension does not match V + W")
        s = ambient
    nv = r.left.dim
    out = [[0] * s.dim for _ in range(s.dim)]
    for i, j, c in r.nonzero():
        out[i][nv + j] = c
    return DenseTensor(s, s, out)


# residuals

def _assoc_residual(r: DenseTensor, mul: BilinearOp, opposite: bool) -> Tensor3:
    """r12 r13 + r13 r23 - r23 r12, or the opposite-order version."""
    entries = {}

    def put(key, value):
        entries[key] = entries.get(key, 0) + value

    nz = list(r.nonzero())
    for u1, v1, c1 in nz:
        for u2, v2, c2 in nz:
            f = c1 * c2
            if not opposite:
                for k, c in mul.basis(u1, u2).items():
                    put((k, v1, v2), f * c)
                for k, c in mul.basis(v1, v2).items():
                    put((u1, u2, k), f * c)
                for k, c in mul.basis(u1, v2).items():
                    put((u2, k, v1), -(f * c))
            else:
                for k, c in mul.basis(u1, u2).items():
                    put((k, v2, v1), f * c)
                for k, c in mul.basis(v1, v2).items():
                    put((u2, u1, k), f * c)
                for k, c in mul.basis(v1, u2).items():
                    put((u1, k, v2), -(f * c))
    s = r.left
    return Tensor3((s, s, s), entries)


def _lie_residual(r: DenseTensor, br: BilinearOp) -> Tensor3:
    """[r12, r13] + [r12, r23] + [r13, r23]."""
    entries = {}

    def put(key, value):
        entries[key] = entries.get(key, 0) + value

    nz = list(r.nonzero())
    for u1, v1, c1 in nz:
        for u2, v2, c2 in nz:
            f = c1 * c2
            for k, c in br.basis(u1, u2).items():
                put((k, v1, v2), f * c)
            for k, c in br.basis(v1, u2).items():
                put((u1, k, v2), f * c)
            for k, c in br.basis(v1, v2).items():
                put((u1, u2, k), f * c)
    s = r.left
    return Tensor3((s, s, s), entries)


def ybe_residual(kind: str, r: DenseTensor, p: StructurePresentation):
    """Residual tensor(s) of the named Yang-Baxter equation.

    "aybe" and "aybe-op" contract with the associative product, "cybe" with
    the bracket; "pybe" returns the (aybe, cybe) pair for a Poisson ambient.
    """
    if kind not in YBE_KINDS:
        raise ValueError(f"unknown Yang-Baxter kind {kind!r}")
    _check_tensor_space(r, p)
    if kind == "aybe":
        return _assoc_residual(r, _op_for(p, "circ"), opposite=False)
    if kind == "aybe-op":
        return _assoc_residual(r, _op_for(p, "circ"), opposite=True)
    if kind == "cybe":
        return _lie_residual(r, _op_for(p, "bracket"))
    if p.kind != "poisson":
        raise ValueError("the Poisson equation needs a Poisson ambient")
    return (
        _assoc_residual(r, _op_for(p, "circ"), opposite=False),
        _lie_residual(r, _op_for(p, "bracket")),
    )


def invariance_residual(kind: str, b: DenseTensor, p: StructurePresentation):
    """One residual tensor per basis vector x.

    kind "associative": (id (x) L(x) - R(x) (x) id) b, which vanishes for
    invariant tensors; kind "lie": (ad(x) (x) id + id (x) ad(x)) b.
    """
    _check_tensor_space(b, p)
    n = p.space.dim
    out = []
    if kind == "associative":
        mul = _op_for(p, "circ")
        for x in range(n):
            items = []
            for i, j, c in b.nonzero():
                for k, v in mul.basis(x, j).items():
                    items.append((i, k, c * v))
                for k, v in mul.basis(i, x).items():
                    items.append((k, j, -(c * v)))
            out.append(DenseTensor.from_entries(p.space, p.space, items))
        return tuple(out)
    if kind == "lie":
        br = _op_for(p, "bracket")
        for x in range(n):
            items = []
            for i, j, c in b.nonzero():
                for k, v in br.basis(x, i).items():
                    items.append((k, j, c * v))
                for k, v in br.basis(x, j).items():
                    items.append((i, k, c * v))
            out.append(DenseTensor.from_entries(p.space, p.space, items))
        return tuple(out)
    raise ValueError(f"unknown invariance kind {kind!r}")


def _tensor3_failures(axiom, t: Tensor3, limit=4):
    out = []
    for key, val in t.sorted_entries()[:limit]:
        order = val.low_order() if isinstance(val, Jet) else 0
        out.append(AxiomFailure(axiom, key, {0: val}, order))
    return out


def _invariance_failures(axiom, tensors, limit=4):
    out = []
    for x, t in enumerate(tensors):
        for i, j, c in t.nonzero():
            order = c.low_order() if isinstance(c, Jet) else 0
            out.append(AxiomFailure(axiom, (x, i, j), {0: c}, order))
            if len(out) >= limit:
                return out
    return out


def deformation_transfer(r: DenseTensor, j: DeformationJet,
                         invariance_only: bool = False) -> AxiomReport:
    """Push a Yang-Baxter solution through the quasiclassical limit.

    Hypotheses: r solves the associative equation with jet coefficients
    (skipped in invariance-only mode) and r + twist(r) is invariant for the
    jet product.  Conclusions, only evaluated when the hypotheses hold: the
    limit Poisson structure satisfies both residuals for r (or, in
    invariance-only mode, bracket invariance of r + twist(r)).
    """
    if j.kind not in ("associative", "commutative-associative"):
        raise ValueError("transfer expects an associative ambient jet")
    p_jet = j.jet_presentation()
    _check_tensor_space(r, p_jet)
    beta = r.add(r.twist())

    failures = []
    checked = []

    hyp_ok = True
    if not invariance_only:
        checked.append("hypothesis:jet-aybe")
        res = ybe_residual("aybe", r, p_jet)
        if not res.is_zero():
            failures.extend(_tensor3_failures("hypothesis:jet-aybe", res))
            hyp_ok = False
    checked.append("hypothesis:jet-invariance")
    inv = invariance_residual("associative", beta, p_jet)
    if not all(t.is_zero() for t in inv):
        failures.extend(_invariance_failures("hypothesis:jet-invariance", inv))
        hyp_ok = False

    if hyp_ok:
        limit = qcl(j)
        if invariance_only:
            checked.append("conclusion:qcl-bracket-invariance")
            inv_lie = invariance_residual("lie", beta, limit)
            if not all(t.is_zero() for t in inv_lie):
                failures.extend(
                    _invariance_failures("conclusion:qcl-bracket-invariance", inv_lie))
        else:
            res_a, res_c = ybe_residual("pybe", r, limit)
            checked.append("conclusion:qcl-aybe")
            if not res_a.is_zero():
                failures.extend(_tensor3_failures("conclusion:qcl-aybe", res_a))
            checked.append("conclusion:qcl-cybe")
            if not res_c.is_zero():
                failures.extend(_tensor3_failures("conclusion:qcl-cybe", res_c))
            checked.append("conclusion:qcl-invariance")
            inv_a = invariance_residual("associative", beta, limit)
            inv_l = invariance_residual("lie", beta, limit)
            bad = [t for t in inv_a + inv_l if not t.is_zero()]
            if bad:
                failures.extend(
                    _invariance_failures("conclusion:qcl-invariance", inv_a + inv_l))

    return AxiomReport(not failures, tuple(failures), tuple(checked),
                       "transfer through the quasiclassical limit")
