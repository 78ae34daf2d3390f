"""The four-branch module constructions, kept as oracles for the role table.

Module actions used to be stored as one dense carrier matrix per base basis
vector, and every construction spelled out each base kind in its own
branch.  The functions below are those constructions, unchanged apart from
the matrix type: `DenseMap` carries the dense-matrix methods they used.
`to_old` and `from_old` convert between that layout and ModuleData's
BilinearOp actions, whose entry (i, c, r) is matrix[r][c] of base element i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from jetalg import BilinearOp, LinearMap, ModuleData, Space, StructurePresentation, direct_sum
from jetalg.linalg import vec_clean
from jetalg.scalars import Jet, rational, scalar_is_zero
from jetalg.structures import MODULE_CARRIER_ROLES
from vectors import vec_iadd, vec_unit


def _coerce(c):
    return c if isinstance(c, (Jet, Fraction)) else rational(c)


class DenseMap:
    """Dense linear map; matrix[i][j] is the e_i-coefficient of f(e_j)."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: Space, codomain: Space, matrix):
        rows = tuple(tuple(_coerce(c) for c in row) for row in matrix)
        if len(rows) != codomain.dim or any(len(r) != domain.dim for r in rows):
            raise ValueError("matrix shape does not match its spaces")
        self.domain = domain
        self.codomain = codomain
        self.matrix = rows

    @classmethod
    def of(cls, f: LinearMap) -> "DenseMap":
        return cls(f.domain, f.codomain, f.matrix)

    @classmethod
    def zero(cls, domain: Space, codomain: Space):
        return cls(domain, codomain, [[0] * domain.dim for _ in range(codomain.dim)])

    @classmethod
    def from_columns(cls, domain: Space, codomain: Space, columns):
        cols = list(columns)
        matrix = [[cols[j].get(i, 0) for j in range(domain.dim)]
                  for i in range(codomain.dim)]
        return cls(domain, codomain, matrix)

    def apply(self, v: Mapping) -> dict:
        acc = {}
        for j, cj in v.items():
            for i in range(self.codomain.dim):
                m = self.matrix[i][j]
                if not scalar_is_zero(m):
                    acc[i] = acc.get(i, 0) + m * cj
        return vec_clean(acc)

    def column(self, j: int) -> dict:
        return vec_clean({i: self.matrix[i][j] for i in range(self.codomain.dim)})

    def compose(self, other: "DenseMap") -> "DenseMap":
        """self after other."""
        n, m, p = self.codomain.dim, self.domain.dim, other.domain.dim
        out = [[sum((self.matrix[i][t] * other.matrix[t][j] for t in range(m)), Fraction(0))
                for j in range(p)] for i in range(n)]
        return DenseMap(other.domain, self.codomain, out)

    def add(self, other: "DenseMap") -> "DenseMap":
        return DenseMap(self.domain, self.codomain,
                        [[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.matrix, other.matrix)])

    def scale(self, factor) -> "DenseMap":
        return DenseMap(self.domain, self.codomain,
                        [[factor * c for c in row] for row in self.matrix])

    def neg(self) -> "DenseMap":
        return self.scale(-1)

    def transpose(self, domain: Space, codomain: Space) -> "DenseMap":
        n, m = self.codomain.dim, self.domain.dim
        return DenseMap(domain, codomain, [[self.matrix[i][j] for i in range(n)]
                                           for j in range(m)])

    def __eq__(self, other):
        return ((self.domain, self.codomain) == (other.domain, other.codomain)
                and self.matrix == other.matrix)

    __hash__ = None


@dataclass(frozen=True)
class OldModule:
    """Module data with actions[role][i] the matrix of base element e_i."""

    base: StructurePresentation
    carrier: Space
    carrier_ops: Mapping[str, BilinearOp]
    actions: Mapping[str, tuple]

    @property
    def kind(self) -> str:
        return self.base.kind

    def is_plain(self) -> bool:
        return all(op.is_zero() for op in self.carrier_ops.values())


def to_old(m: ModuleData) -> OldModule:
    nv = m.carrier.dim
    actions = {}
    for role, op in m.actions.items():
        mats = [[[0] * nv for _ in range(nv)] for _ in range(m.base.space.dim)]
        for (i, c, r), v in op.entries.items():
            mats[i][r][c] = v
        actions[role] = tuple(DenseMap(m.carrier, m.carrier, mat) for mat in mats)
    return OldModule(m.base, m.carrier, dict(m.carrier_ops), actions)


def from_old(m: OldModule) -> ModuleData:
    actions = {}
    for role, table in m.actions.items():
        entries = {(i, c, r): v for i, mat in enumerate(table)
                   for r, row in enumerate(mat.matrix) for c, v in enumerate(row)
                   if not scalar_is_zero(v)}
        actions[role] = BilinearOp(m.base.space, m.carrier, m.carrier, entries)
    return ModuleData(m.base, m.carrier, m.carrier_ops, actions)


# ---------------------------------------------------------------------------
# the constructions, one branch per base kind


def left_multiplications(op: BilinearOp) -> tuple:
    """L(e_i): x -> op(e_i, x) for each basis vector of the left space."""
    n = op.left.dim
    maps = []
    for i in range(n):
        cols = [op.basis(i, j) for j in range(op.right.dim)]
        maps.append(DenseMap.from_columns(op.right, op.out, cols))
    return tuple(maps)


def right_multiplications(op: BilinearOp) -> tuple:
    """R(e_j): x -> op(x, e_j) for each basis vector of the right space."""
    n = op.right.dim
    maps = []
    for j in range(n):
        cols = [op.basis(i, j) for i in range(op.left.dim)]
        maps.append(DenseMap.from_columns(op.left, op.out, cols))
    return tuple(maps)


def semidirect(m: OldModule) -> StructurePresentation:
    """Assemble the product(s) on base + carrier from the module data."""
    base = m.base
    na = base.space.dim
    total = direct_sum(base.space, m.carrier)

    def base_entries(op):
        for (i, j, k), c in op.entries.items():
            yield i, j, k, c

    def carrier_entries(op):
        for (i, j, k), c in op.entries.items():
            yield na + i, na + j, na + k, c

    def left_entries(table, sign=1):
        # base element acts from the left: (e_i, v_b) -> table[i] v_b
        for i, mat in enumerate(table):
            for r in range(m.carrier.dim):
                for c in range(m.carrier.dim):
                    v = mat.matrix[r][c]
                    yield i, na + c, na + r, v if sign == 1 else -v

    def right_entries(table, sign=1):
        # base element acts from the right: (v_a, e_j) -> table[j] v_a
        for j, mat in enumerate(table):
            for r in range(m.carrier.dim):
                for c in range(m.carrier.dim):
                    v = mat.matrix[r][c]
                    yield na + c, j, na + r, v if sign == 1 else -v

    def build(parts):
        items = [x for part in parts for x in part]
        return BilinearOp.from_entries(total, total, total, items, combine=True)

    kind = base.kind
    if kind == "associative":
        circ = build([
            base_entries(base.op("circ")),
            left_entries(m.actions["left"]),
            right_entries(m.actions["right"]),
            carrier_entries(m.carrier_ops["dot"]),
        ])
        return StructurePresentation(total, {"circ": circ}, "associative")
    if kind == "commutative-associative":
        circ = build([
            base_entries(base.op("circ")),
            left_entries(m.actions["act"]),
            right_entries(m.actions["act"]),
            carrier_entries(m.carrier_ops["dot"]),
        ])
        return StructurePresentation(total, {"circ": circ}, "commutative-associative")
    if kind == "lie":
        bracket = build([
            base_entries(base.op("bracket")),
            left_entries(m.actions["bracket_act"]),
            right_entries(m.actions["bracket_act"], sign=-1),
            carrier_entries(m.carrier_ops["bracket"]),
        ])
        return StructurePresentation(total, {"bracket": bracket}, "lie")
    if kind == "poisson":
        bracket = build([
            base_entries(base.op("bracket")),
            left_entries(m.actions["bracket_act"]),
            right_entries(m.actions["bracket_act"], sign=-1),
            carrier_entries(m.carrier_ops["bracket"]),
        ])
        circ = build([
            base_entries(base.op("circ")),
            left_entries(m.actions["circ_act"]),
            right_entries(m.actions["circ_act"]),
            carrier_entries(m.carrier_ops["dot"]),
        ])
        return StructurePresentation(total, {"bracket": bracket, "circ": circ}, "poisson")
    raise ValueError(f"no semidirect assembly for base kind {kind!r}")  # pragma: no cover


def dualize_module(m: OldModule) -> OldModule:
    """Dual module on the dual carrier; requires a plain module.

    The dual action pairs by <f(x)u*, v> = -<u*, g(x)v> against the matching
    original action g, which in matrix form is the positive transpose; for
    Lie-type actions (bracket side) the coadjoint rule -transpose applies.
    """
    if not m.is_plain():
        raise ValueError("dualize_module needs trivial carrier operations")
    dual = m.carrier.dual()

    def t(mat, sign=1):
        return mat.transpose(dual, dual).scale(sign)

    kind = m.kind
    if kind == "associative":
        actions = {
            "left": tuple(t(mat) for mat in m.actions["right"]),
            "right": tuple(t(mat) for mat in m.actions["left"]),
        }
    elif kind == "commutative-associative":
        actions = {"act": tuple(t(mat) for mat in m.actions["act"])}
    elif kind == "lie":
        actions = {"bracket_act": tuple(t(mat, -1) for mat in m.actions["bracket_act"])}
    elif kind == "poisson":
        actions = {
            "bracket_act": tuple(t(mat, -1) for mat in m.actions["bracket_act"]),
            "circ_act": tuple(t(mat) for mat in m.actions["circ_act"]),
        }
    else:  # pragma: no cover
        raise ValueError(f"no dual for base kind {kind!r}")
    carrier_ops = {
        role: BilinearOp.zero(dual, dual, dual) for role in MODULE_CARRIER_ROLES[kind]
    }
    return OldModule(m.base, dual, carrier_ops, actions)


def _zero_carrier(kind: str, carrier: Space):
    return {role: BilinearOp.zero(carrier, carrier, carrier)
            for role in MODULE_CARRIER_ROLES[kind]}


def regular_bimodule(p: StructurePresentation) -> OldModule:
    """The structure acting on itself, carrier operations included."""
    kind = p.kind
    if kind == "associative":
        circ = p.op("circ")
        return OldModule(p, p.space, {"dot": circ},
                         {"left": left_multiplications(circ),
                          "right": right_multiplications(circ)})
    if kind == "commutative-associative":
        circ = p.op("circ")
        return OldModule(p, p.space, {"dot": circ},
                         {"act": left_multiplications(circ)})
    if kind == "lie":
        b = p.op("bracket")
        return OldModule(p, p.space, {"bracket": b},
                         {"bracket_act": left_multiplications(b)})
    if kind == "poisson":
        b, c = p.op("bracket"), p.op("circ")
        return OldModule(p, p.space, {"bracket": b, "dot": c},
                         {"bracket_act": left_multiplications(b),
                          "circ_act": left_multiplications(c)})
    raise ValueError(f"no regular module for kind {kind!r}")


def regular_module(p: StructurePresentation) -> OldModule:
    """Regular actions with the carrier operations forgotten."""
    full = regular_bimodule(p)
    return OldModule(full.base, full.carrier, _zero_carrier(p.kind, full.carrier),
                     full.actions)


def _act(table, xvec: Mapping, w: Mapping) -> dict:
    """Apply the action of a sparse base vector to a carrier vector."""
    acc = {}
    for p, c in xvec.items():
        vec_iadd(acc, table[p].apply(w), c)
    return vec_clean(acc)


def induce_splitting(m: OldModule, T: LinearMap, lam) -> StructurePresentation:
    """Split the base product through T into shifted operations on the carrier.

    Associative contexts give dendriform or tridendriform presentations;
    Poisson contexts give pre- or post-Poisson; Lie contexts give pre- or
    post-Lie.  The carrier operations enter scaled by the weight.
    """
    nv = m.carrier.dim
    carrier = m.carrier

    def op_from(fn):
        items = []
        for a in range(nv):
            for b in range(nv):
                for k, c in fn(a, b).items():
                    items.append((a, b, k, c))
        return BilinearOp.on(carrier, items)

    kind = m.kind
    if kind in ("associative", "commutative-associative"):
        if kind == "associative":
            left, right = m.actions["left"], m.actions["right"]
        else:
            left = right = m.actions["act"]
        succ = op_from(lambda a, b: _act(left, T.column(a), vec_unit(b)))
        prec = op_from(lambda a, b: _act(right, T.column(b), vec_unit(a)))
        dot = m.carrier_ops["dot"].scale(lam)
        if dot.is_zero():
            return StructurePresentation(carrier, {"succ": succ, "prec": prec}, "dendriform")
        return StructurePresentation(
            carrier, {"succ": succ, "prec": prec, "dot": dot}, "tridendriform")
    if kind == "poisson":
        tb, tc = m.actions["bracket_act"], m.actions["circ_act"]
        triangle = op_from(lambda a, b: _act(tb, T.column(a), vec_unit(b)))
        succ = op_from(lambda a, b: _act(tc, T.column(a), vec_unit(b)))
        bracket = m.carrier_ops["bracket"].scale(lam)
        dot = m.carrier_ops["dot"].scale(lam)
        if bracket.is_zero() and dot.is_zero():
            return StructurePresentation(
                carrier, {"triangle": triangle, "succ": succ}, "pre-poisson")
        return StructurePresentation(
            carrier,
            {"bracket": bracket, "triangle": triangle, "succ": succ, "dot": dot},
            "post-poisson")
    if kind == "lie":
        table = m.actions["bracket_act"]
        triangle = op_from(lambda a, b: _act(table, T.column(a), vec_unit(b)))
        bracket = m.carrier_ops["bracket"].scale(lam)
        if bracket.is_zero():
            return StructurePresentation(carrier, {"triangle": triangle}, "pre-lie")
        return StructurePresentation(
            carrier, {"bracket": bracket, "triangle": triangle}, "post-lie")
    raise ValueError(f"no splitting for base kind {kind!r}")  # pragma: no cover
