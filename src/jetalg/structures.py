"""Structure kinds, axiom checking, semidirect products and duals.

A StructurePresentation is a based space with one BilinearOp per named role;
the kind tag fixes the roles and the defining identities, which one table
(IDENTITIES) states as signed sums of words of degree one or two, each
identity of a single degree.  The evaluator takes structure constants per
h-order (one layer for a rational structure, N+1 for a deformation or a
jet-valued presentation), scales them all by the common denominator L and
works in Python integers.  It evaluates each word only where its structure
constants are nonzero, by joining the tables of its operations, with the
order-s part of a degree-two word summing the joins of layers p and s - p.
On every basis tuple where an identity fails it reports the exact residual,
divided back by L^degree.
Module data is validated through its semidirect product: the data is valid
precisely when the assembled structure on base + carrier passes the checker
of the base kind.  Each action is one bilinear operation base x carrier ->
carrier, and one table (MODULE_ROLES) states every base kind's module
shape, from which the semidirect product, the dual module and the regular
and splitting modules are built by one loop each.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Mapping

from .linalg import BilinearOp, Space, direct_sum
from .scalars import Jet, scalar_low_order

KIND_ROLES = {
    "associative": ("circ",),
    "commutative-associative": ("circ",),
    "lie": ("bracket",),
    "poisson": ("bracket", "circ"),
    "zinbiel": ("succ",),
    "dendriform": ("succ", "prec"),
    "tridendriform": ("succ", "prec", "dot"),
    "pre-lie": ("triangle",),
    "post-lie": ("bracket", "triangle"),
    "pre-poisson": ("triangle", "succ"),
    "post-poisson": ("bracket", "triangle", "succ", "dot"),
}

# kinds whose operations sum to an associative / Lie / Poisson total
SPLITTING_TOTALS = {
    "dendriform": "associative",
    "tridendriform": "associative",
    "zinbiel": "commutative-associative",
    "pre-lie": "lie",
    "post-lie": "lie",
    "pre-poisson": "poisson",
    "post-poisson": "poisson",
}


# base kind -> (action rows, carrier rows, split kinds).  An action row is
# (role, feeds, sides, dual): the action feeds the semidirect product of
# base role `feeds`, from each side in `sides`, (side, sign, split), with
# that sign, and an operator T splits it there into the carrier operation
# `split` (None: none from that side); the dual module takes this role's
# action from role `dual`, transposed.  A carrier row is (carrier role,
# base role it adds to); scaled by the weight, the carrier role is also a
# split operation of its name.  The split kinds are those with all carrier
# operations zero, and otherwise.
MODULE_ROLES = {
    "associative": (
        (("left", "circ", (("left", 1, "succ"),), "right"),
         ("right", "circ", (("right", 1, "prec"),), "left")),
        (("dot", "circ"),), ("dendriform", "tridendriform")),
    "commutative-associative": (
        (("act", "circ", (("left", 1, "succ"), ("right", 1, "prec")), "act"),),
        (("dot", "circ"),), ("dendriform", "tridendriform")),
    "lie": (
        (("bracket_act", "bracket", (("left", 1, "triangle"), ("right", -1, None)),
          "bracket_act"),),
        (("bracket", "bracket"),), ("pre-lie", "post-lie")),
    "poisson": (
        (("bracket_act", "bracket", (("left", 1, "triangle"), ("right", -1, None)),
          "bracket_act"),
         ("circ_act", "circ", (("left", 1, "succ"), ("right", 1, None)), "circ_act")),
        (("bracket", "bracket"), ("dot", "circ")), ("pre-poisson", "post-poisson")),
}

MODULE_ACTION_ROLES = {kind: tuple(role for role, *_ in rows)
                       for kind, (rows, _, _) in MODULE_ROLES.items()}
MODULE_CARRIER_ROLES = {kind: tuple(role for role, _ in carrier)
                        for kind, (_, carrier, _) in MODULE_ROLES.items()}


@dataclass(frozen=True)
class StructurePresentation:
    space: Space
    ops: Mapping[str, BilinearOp]
    kind: str

    def __post_init__(self):
        if self.kind not in KIND_ROLES:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        roles = KIND_ROLES[self.kind]
        got = tuple(sorted(self.ops))
        if got != tuple(sorted(roles)):
            raise ValueError(
                f"kind {self.kind!r} needs roles {sorted(roles)}, got {sorted(got)}"
            )
        for role, op in self.ops.items():
            if (op.left, op.right, op.out) != (self.space, self.space, self.space):
                raise ValueError(f"operation {role!r} does not live on the space")
        object.__setattr__(self, "ops", dict(self.ops))

    def op(self, role: str) -> BilinearOp:
        return self.ops[role]

    def map_scalars(self, fn) -> "StructurePresentation":
        return StructurePresentation(
            self.space, {r: op.map_scalars(fn) for r, op in self.ops.items()}, self.kind
        )

    def __eq__(self, other):
        if not isinstance(other, StructurePresentation):
            return NotImplemented
        return (self.space, self.kind) == (other.space, other.kind) and self.ops == other.ops

    __hash__ = None


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    indices: tuple[int, ...]
    residual: Mapping[int, object]
    order: int | None = None

    def describe(self, space: Space | None = None) -> str:
        if space is not None:
            where = ", ".join(space.label(i) for i in self.indices)
        else:
            where = ", ".join(map(str, self.indices))
        at = "" if self.order is None else f" at order h^{self.order}"
        parts = []
        for k in sorted(self.residual):
            coord = space.label(k) if space is not None else str(k)
            val = self.residual[k]
            text = str(val) if isinstance(val, (Fraction, int)) else repr(val)
            parts.append(f"{coord}: {text}")
        return f"{self.axiom} fails on ({where}){at}: residual {{{', '.join(parts)}}}"


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    failures: tuple[AxiomFailure, ...]
    checked: tuple[str, ...]
    subject: str = ""

    def failing_axioms(self) -> tuple[str, ...]:
        seen = []
        for f in self.failures:
            if f.axiom not in seen:
                seen.append(f.axiom)
        return tuple(seen)

    def first_failing_order(self):
        orders = [f.order for f in self.failures if f.order is not None]
        return min(orders) if orders else None

    def summary(self, space: Space | None = None, limit: int = 6) -> str:
        head = f"{self.subject or 'check'}: {'PASS' if self.passed else 'FAIL'}"
        lines = [head, f"  axioms checked: {', '.join(self.checked)}"]
        for f in self.failures[:limit]:
            lines.append("  " + f.describe(space))
        extra = len(self.failures) - limit
        if extra > 0:
            lines.append(f"  ... and {extra} more failures")
        return "\n".join(lines)


def _residual_order(residual):
    orders = [scalar_low_order(c) for c in residual.values()]
    orders = [o for o in orders if o is not None]
    return min(orders) if orders else None


# ---------------------------------------------------------------------------
# identity table
#
# Words are written over one-letter role symbols (ROLE_SYMBOLS) and the
# variables x, y, z.  Each kind lists its derived symbols in order, each a
# signed sum of degree-one words in x and y ("0" is the empty sum): c is the
# assembled product of a splitting, B the assembled post-Poisson bracket, and
# pre-Poisson reads as post-Poisson with zero bracket and dot.  Then come the
# defining identities in report order, and the symmetry conditions a
# quasiclassical limit needs, or None where the kind has no such notion.

ROLE_SYMBOLS = {"bracket": "b", "circ": "c", "dot": "d", "prec": "p",
                "succ": "s", "triangle": "t"}

_COMM = ("Comm", "c(x,y) - c(y,x)")
_ASSOC = ("Assoc", "c(c(x,y),z) - c(x,c(y,z))")
_LIE = (("AntiSym", "b(x,y) + b(y,x)"),
        ("Jacobi", "b(b(x,y),z) + b(b(y,z),x) + b(b(z,x),y)"))
_SPLIT = ("p(p(x,y),z) - p(x,c(y,z))",
          "p(s(x,y),z) - s(x,p(y,z))",
          "s(c(x,y),z) - s(x,s(y,z))")
_DEN = tuple((f"Den{i}", body) for i, body in enumerate(_SPLIT, 1))
_TRI = tuple((f"Tri{i}", body) for i, body in enumerate(_SPLIT + (
    "d(s(x,y),z) - s(x,d(y,z))",
    "d(p(x,y),z) - d(x,s(y,z))",
    "p(d(x,y),z) - d(x,p(y,z))",
    "d(d(x,y),z) - d(x,d(y,z))"), 1))
_PRELIE = ("PreLie", "t(x,t(y,z)) - t(t(x,y),z) - t(y,t(x,z)) + t(t(y,x),z)")
_POSTLIE = (("PostL1", "t(x,b(y,z)) - b(t(x,y),z) - b(y,t(x,z))"),
            ("PostL2", "t(b(x,y),z) - t(x,t(y,z)) + t(t(x,y),z) + t(y,t(x,z))"
                       " - t(t(y,x),z)"))
_COMMDOT = ("CommDot", "d(x,y) - d(y,x)")
_MIRROR = ("SuccPrecMirror", "s(x,y) - p(y,x)")
_POISSON_COMPAT = (("PostP2a", "b(x,s(y,z)) - s(y,b(x,z)) + d(z,t(y,x))"),
                   ("PostP2b", "t(x,d(y,z)) - d(t(x,y),z) - d(y,t(x,z))"),
                   ("PostP5a", "t(c(x,y),z) - s(x,t(y,z)) - s(y,t(x,z))"),
                   ("PostP5b", "t(x,s(y,z)) - s(y,t(x,z)) - s(B(x,y),z)"))

_TABLE = {
    "associative": ({}, (_ASSOC,), (_COMM,)),
    "commutative-associative": ({}, (_COMM, _ASSOC), (_COMM,)),
    "lie": ({}, _LIE, None),
    "poisson": ({}, _LIE + (_COMM, _ASSOC,
                            ("Leibniz", "b(x,c(y,z)) - c(b(x,y),z) - c(y,b(x,z))")), None),
    "zinbiel": ({"p": "s(y,x)", "c": "s(x,y) + p(x,y)"}, _DEN, ()),
    "dendriform": ({"c": "s(x,y) + p(x,y)"}, _DEN, (_MIRROR,)),
    "tridendriform": ({"c": "s(x,y) + p(x,y) + d(x,y)"}, _TRI, (_MIRROR, _COMMDOT)),
    "pre-lie": ({}, (_PRELIE,), None),
    "post-lie": ({}, _LIE + _POSTLIE, None),
    "pre-poisson": ({"p": "s(y,x)", "c": "s(x,y) + p(x,y)", "b": "0", "d": "0",
                     "B": "t(x,y) - t(y,x)"},
                    (_PRELIE,) + _DEN + _POISSON_COMPAT, None),
    "post-poisson": ({"p": "s(y,x)", "c": "s(x,y) + p(x,y) + d(x,y)",
                      "B": "t(x,y) - t(y,x) + b(x,y)"},
                     _LIE + _POSTLIE + (_COMMDOT,) + _TRI
                     + (("PostP1", "B(x,c(y,z)) - c(B(x,y),z) - c(y,B(x,z))"),)
                     + _POISSON_COMPAT,
                     None),
}


def _terms(text: str):
    """Signed words of a sum such as "c(c(x,y),z) - c(x,c(y,z))".

    A word is (outer, inner, side, variables): inner is None for op(a, b),
    side 0 for outer(inner(a, b), c) and 1 for outer(a, inner(b, c));
    variables name the basis vectors in reading order.
    """
    def walk(node, sign):
        if isinstance(node, ast.BinOp):
            yield from walk(node.left, sign)
            yield from walk(node.right, sign if isinstance(node.op, ast.Add) else -sign)
        elif isinstance(node, ast.Call):
            a, b = node.args
            if isinstance(a, ast.Call):
                yield sign, (node.func.id, a.func.id, 0, (a.args[0].id, a.args[1].id, b.id))
            elif isinstance(b, ast.Call):
                yield sign, (node.func.id, b.func.id, 1, (a.id, b.args[0].id, b.args[1].id))
            else:
                yield sign, (node.func.id, None, None, (a.id, b.id))
        elif not (isinstance(node, ast.Constant) and node.value == 0):
            raise ValueError(f"not a sum of words: {ast.unparse(node)}")

    return tuple(walk(ast.parse(text, mode="eval").body, 1))


def _identity(name: str, text: str):
    terms = _terms(text)
    # one degree per identity: scaling every table by L scales the residual
    # by L^degree, which is what lets the evaluator work in integers
    degrees = {1 if word[1] is None else 2 for _, word in terms}
    if len(degrees) != 1:
        raise ValueError(f"identity {name} is not homogeneous: {text}")
    return name, len({v for _, word in terms for v in word[3]}), degrees.pop(), terms


# kind -> (derived symbols, identities, symmetry conditions or None); every
# identity is (name, arity, degree, ((sign, word), ...))
IDENTITIES = {
    kind: ({sym: _terms(text) for sym, text in derived.items()},
           tuple(_identity(*row) for row in rows),
           None if symmetry is None else tuple(_identity(*row) for row in symmetry))
    for kind, (derived, rows, symmetry) in _TABLE.items()
}


def _layers_of(p: StructurePresentation):
    """Role -> per-order structure constants of p, and the jet order.

    A rational presentation is one layer, with order None.  In a jet-valued
    one, layer s holds the h^s coefficients, and a rational constant reads
    as a constant jet.
    """
    orders = {c.order for op in p.ops.values() for c in op.entries.values()
              if isinstance(c, Jet)}
    if not orders:
        return {role: (op.entries,) for role, op in p.ops.items()}, None
    if len(orders) > 1:
        low, high = sorted(orders)[:2]
        raise ValueError(f"jet order mismatch: {low} vs {high}")
    order = orders.pop()
    layers = {}
    for role, op in p.ops.items():
        per_order = [{} for _ in range(order + 1)]
        for key, c in op.entries.items():
            if isinstance(c, Jet):
                for layer, coeff in zip(per_order, c.coeffs):
                    if coeff:
                        layer[key] = coeff
            else:
                per_order[0][key] = c
        layers[role] = tuple(per_order)
    return layers, order


def _int_ops(layers, derived):
    """(L, role symbol -> per-order {(i, j, k): int}): every table scaled by
    the lcm L of all denominators, derived symbols summed from them."""
    scale = math.lcm(*{c.denominator for per_order in layers.values()
                       for entries in per_order for c in entries.values()})
    ops = {ROLE_SYMBOLS[role]: tuple({key: c.numerator * (scale // c.denominator)
                                      for key, c in entries.items()}
                                     for entries in per_order)
           for role, per_order in layers.items()}
    orders = len(next(iter(ops.values())))
    for sym, terms in derived.items():
        per_order = []
        for s in range(orders):
            total = {}
            for sign, (role, _, _, variables) in terms:
                swap = variables != ("x", "y")
                for (i, j, k), c in ops[role][s].items():
                    key = (j, i, k) if swap else (i, j, k)
                    total[key] = total.get(key, 0) + (c if sign > 0 else -c)
            per_order.append({key: c for key, c in total.items() if c})
        ops[sym] = tuple(per_order)
    return scale, ops


def _word_values(ops, outer, inner, side):
    """Per h-order, ((slot indices, output index), coefficient) for every pair
    of nonzero structure constants that meet in the word.

    A degree-one word at order s is layer s.  For a degree-two word, inner's
    output joins outer's input slot, and order s sums the joins of inner's
    layer p with outer's layer s - p; the slot indices are inner's two
    inputs, then outer's other input.
    """
    if inner is None:
        return [layer.items() for layer in ops[outer]]
    slots = []
    for layer in ops[outer]:
        by_slot = {}
        for (i, j, k), c in layer.items():
            slot, other = (i, j) if side == 0 else (j, i)
            by_slot.setdefault(slot, []).append((other, k, c))
        slots.append(by_slot)
    inner_layers = ops[inner]
    return [chain.from_iterable(
                (((i, j, other, k), c1 * c2)
                 for (i, j, m), c1 in inner_layers[p].items()
                 for other, k, c2 in by_slot.get(m, ()))
                for p, by_slot in enumerate(reversed(slots[:s + 1])))
            for s in range(len(slots))]


def _failures(scale, ops, identities, order) -> list:
    """Failures of each identity on basis tuples, in identity then tuple order.

    scale and ops are _int_ops's L and integer tables; residuals come out
    divided by L^degree, as rationals for order None and as jets of that
    order otherwise.  Each distinct word is joined once per call; a word
    that a later term reuses is kept until that last use, every other one
    is streamed.
    """
    orders = 1 if order is None else order + 1
    uses = Counter(word[:3] for *_, terms in identities for _, word in terms)
    kept = {}
    failures = []
    for name, arity, degree, terms in identities:
        accs = [{} for _ in range(orders)]
        for sign, (outer, inner, side, variables) in terms:
            key = (outer, inner, side)
            uses[key] -= 1
            if key in kept:
                values = kept[key] if uses[key] else kept.pop(key)
            else:
                values = _word_values(ops, *key)
                if uses[key]:
                    values = kept[key] = [list(v) for v in values]
            # slot indices in reading order: outer(a, inner(b, c)) joins as
            # (b, c, a)
            reading = (2, 0, 1) if side == 1 else (0, 1, 2)
            place = itemgetter(*(reading[variables.index(v)] for v in "xyz"[:arity]), arity)
            for acc, layer in zip(accs, values):
                if sign > 0:
                    for at, c in layer:
                        at = place(at)
                        acc[at] = acc.get(at, 0) + c
                else:
                    for at, c in layer:
                        at = place(at)
                        acc[at] = acc.get(at, 0) - c
        bad = {}
        for s, acc in enumerate(accs):
            for at, c in acc.items():
                if c:
                    bad.setdefault(at[:-1], {}).setdefault(at[-1], [0] * orders)[s] = c
        denominator = scale ** degree
        for idx in sorted(bad):
            cells = bad[idx]
            if order is None:
                residual = {k: Fraction(cs[0], denominator) for k, cs in cells.items()}
                low = 0
            else:
                residual = {k: Jet.from_layers([Fraction(c, denominator) if c else 0
                                                 for c in cs], order)
                            for k, cs in cells.items()}
                low = min(next(s for s, c in enumerate(cs) if c) for cs in cells.values())
            failures.append(AxiomFailure(name, idx, residual, low))
    return failures


def check_layers(kind: str, layers, order, subject: str) -> AxiomReport:
    """Evaluate every defining identity of kind on structure constants given
    per h-order: layers maps each role to order + 1 mappings (i, j, k) ->
    rational, one for each power of h.  order None reads a single layer as a
    rational structure."""
    derived, identities, _ = IDENTITIES[kind]
    failures = _failures(*_int_ops(layers, derived), identities, order)
    return AxiomReport(
        passed=not failures,
        failures=tuple(failures),
        checked=tuple(name for name, *_ in identities),
        subject=subject,
    )


def check_structure(p: StructurePresentation, subject: str = "") -> AxiomReport:
    """Evaluate every defining identity of p.kind on all basis tuples; a
    jet-valued p is checked layer by layer and reports jet residuals."""
    layers, order = _layers_of(p)
    return check_layers(p.kind, layers, order, subject or f"{p.kind} on dim {p.space.dim}")


def commutativity_failures(p: StructurePresentation) -> tuple[AxiomFailure, ...]:
    """Symmetry conditions needed before taking a quasiclassical limit."""
    derived, _, symmetry = IDENTITIES[p.kind]
    if symmetry is None:
        raise ValueError(f"no commutativity notion for kind {p.kind!r}")
    layers, order = _layers_of(p)
    return tuple(_failures(*_int_ops(layers, derived), symmetry, order))


# ---------------------------------------------------------------------------
# modules

@dataclass(frozen=True)
class ModuleData:
    """A module (algebra) over a base structure, given by bilinear actions.

    actions[role] is one BilinearOp from base x carrier to the carrier:
    entry (i, c, r) is the coefficient of v_r in e_i acting on v_c, for
    left and right actions alike (MODULE_ROLES says from which side each
    role acts).  carrier_ops hold the operations on the carrier itself; an
    all-zero family presents a plain module.
    """

    base: StructurePresentation
    carrier: Space
    carrier_ops: Mapping[str, BilinearOp]
    actions: Mapping[str, BilinearOp]

    def __post_init__(self):
        kind = self.base.kind
        if kind not in MODULE_ROLES:
            raise ValueError(f"no module notion for base kind {kind!r}")
        if tuple(sorted(self.actions)) != tuple(sorted(MODULE_ACTION_ROLES[kind])):
            raise ValueError(
                f"base kind {kind!r} needs action roles {MODULE_ACTION_ROLES[kind]}"
            )
        if tuple(sorted(self.carrier_ops)) != tuple(sorted(MODULE_CARRIER_ROLES[kind])):
            raise ValueError(
                f"base kind {kind!r} needs carrier roles {MODULE_CARRIER_ROLES[kind]}"
            )
        for role, op in self.actions.items():
            if not isinstance(op, BilinearOp) or (op.left, op.right, op.out) != (
                    self.base.space, self.carrier, self.carrier):
                raise ValueError(f"action {role!r} must act from the base space on the carrier")
        for role, op in self.carrier_ops.items():
            if (op.left, op.right, op.out) != (self.carrier, self.carrier, self.carrier):
                raise ValueError(f"carrier operation {role!r} does not live on the carrier")
        object.__setattr__(self, "carrier_ops", dict(self.carrier_ops))
        object.__setattr__(self, "actions", dict(self.actions))

    @property
    def kind(self) -> str:
        return self.base.kind

    def is_plain(self) -> bool:
        return all(op.is_zero() for op in self.carrier_ops.values())

    def map_scalars(self, fn) -> "ModuleData":
        return ModuleData(
            self.base.map_scalars(fn),
            self.carrier,
            {r: op.map_scalars(fn) for r, op in self.carrier_ops.items()},
            {r: op.map_scalars(fn) for r, op in self.actions.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, ModuleData):
            return NotImplemented
        return (
            self.base == other.base
            and self.carrier == other.carrier
            and self.carrier_ops == other.carrier_ops
            and self.actions == other.actions
        )

    __hash__ = None


def oriented(op: BilinearOp, side: str) -> BilinearOp:
    """op read from a side: itself from the left, the opposite operation
    from the right.  An action of op's left factor acting from that side
    is this view of op, and so is the split operation of a pulled-back
    action."""
    return op if side == "left" else op.arg_swap()


def semidirect(m: ModuleData) -> StructurePresentation:
    """Assemble the product(s) on base + carrier from the module data.

    Each base role collects its own entries, every action that feeds it
    (from each of its sides, with that side's sign) and the carrier
    operation that adds to it.
    """
    rows, carrier_rows, _ = MODULE_ROLES[m.kind]
    na = m.base.space.dim
    total = direct_sum(m.base.space, m.carrier)
    items = {role: [(i, j, k, c) for (i, j, k), c in op.entries.items()]
             for role, op in m.base.ops.items()}
    for role, feeds, sides, _ in rows:
        for side, sign, _ in sides:
            part = items[feeds]
            for (i, c, r), v in m.actions[role].entries.items():
                v = v if sign > 0 else -v
                # from the left (e_i, v_c) -> v_r, from the right (v_c, e_i) -> v_r
                part.append((i, na + c, na + r, v) if side == "left" else (na + c, i, na + r, v))
    for role, feeds in carrier_rows:
        items[feeds].extend((na + i, na + j, na + k, c)
                            for (i, j, k), c in m.carrier_ops[role].entries.items())
    ops = {role: BilinearOp.from_entries(total, total, total, part, combine=True)
           for role, part in items.items()}
    return StructurePresentation(total, ops, m.kind)


def check_module(m: ModuleData, subject: str = "") -> AxiomReport:
    """Module validity is defined through the semidirect criterion."""
    return check_structure(semidirect(m), subject or f"module over {m.kind} base")


def as_bimodule_layout(m: ModuleData) -> ModuleData:
    """View a commutative module algebra as an associative bimodule algebra."""
    if m.kind == "associative":
        return m
    if m.kind != "commutative-associative":
        raise ValueError(f"no bimodule layout for base kind {m.kind!r}")
    base = StructurePresentation(m.base.space, {"circ": m.base.op("circ")}, "associative")
    return ModuleData(base, m.carrier, {"dot": m.carrier_ops["dot"]},
                      {"left": m.actions["act"], "right": m.actions["act"]})


def dualize_module(m: ModuleData) -> ModuleData:
    """Dual module on the dual carrier; requires a plain module.

    Each dual action is the transpose (i, c, r) -> (i, r, c) of its dual
    partner's action (over an associative base, left and right swap),
    negated when the row's side signs multiply to -1: the coadjoint rule
    for an action that feeds a bracket.
    """
    if not m.is_plain():
        raise ValueError("dualize_module needs trivial carrier operations")
    dual = m.carrier.dual()
    rows, carrier_rows, _ = MODULE_ROLES[m.kind]
    actions = {}
    for role, _, sides, partner in rows:
        op = m.actions[partner]
        positive = math.prod(sign for _, sign, _ in sides) > 0
        actions[role] = BilinearOp(
            op.left, dual, dual,
            {(i, r, c): v if positive else -v for (i, c, r), v in op.entries.items()})
    carrier_ops = {role: BilinearOp.zero(dual, dual, dual) for role, _ in carrier_rows}
    return ModuleData(m.base, dual, carrier_ops, actions)


# ---------------------------------------------------------------------------
# assembly and derived module data

def assemble_total(p: StructurePresentation) -> StructurePresentation:
    """Sum the split operations into the associative / Lie / Poisson total."""
    target = SPLITTING_TOTALS.get(p.kind)
    if target is None:
        raise ValueError(f"kind {p.kind!r} has no assembled total")
    if p.kind == "dendriform":
        circ = p.op("succ").add(p.op("prec"))
        return StructurePresentation(p.space, {"circ": circ}, "associative")
    if p.kind == "tridendriform":
        circ = p.op("succ").add(p.op("prec")).add(p.op("dot"))
        return StructurePresentation(p.space, {"circ": circ}, "associative")
    if p.kind == "zinbiel":
        s = p.op("succ")
        circ = s.add(s.arg_swap())
        return StructurePresentation(p.space, {"circ": circ}, "commutative-associative")
    if p.kind == "pre-lie":
        t = p.op("triangle")
        return StructurePresentation(p.space, {"bracket": t.sub(t.arg_swap())}, "lie")
    if p.kind == "post-lie":
        t = p.op("triangle")
        bracket = t.sub(t.arg_swap()).add(p.op("bracket"))
        return StructurePresentation(p.space, {"bracket": bracket}, "lie")
    if p.kind == "pre-poisson":
        t, s = p.op("triangle"), p.op("succ")
        return StructurePresentation(
            p.space,
            {"bracket": t.sub(t.arg_swap()), "circ": s.add(s.arg_swap())},
            "poisson",
        )
    if p.kind == "post-poisson":
        t, s, d = p.op("triangle"), p.op("succ"), p.op("dot")
        bracket = t.sub(t.arg_swap()).add(p.op("bracket"))
        circ = s.add(s.arg_swap()).add(d)
        return StructurePresentation(p.space, {"bracket": bracket, "circ": circ}, "poisson")
    raise ValueError(f"kind {p.kind!r} has no assembled total")  # pragma: no cover


def regular_bimodule(p: StructurePresentation) -> ModuleData:
    """The structure acting on itself, carrier operations included: each
    action is the base operation it feeds, read from its first side."""
    if p.kind not in MODULE_ROLES:
        raise ValueError(f"no regular module for kind {p.kind!r}")
    rows, carrier_rows, _ = MODULE_ROLES[p.kind]
    return ModuleData(p, p.space, {role: p.op(feeds) for role, feeds in carrier_rows},
                      {role: oriented(p.op(feeds), sides[0][0])
                       for role, feeds, sides, _ in rows})


def regular_module(p: StructurePresentation) -> ModuleData:
    """Regular actions with the carrier operations forgotten."""
    full = regular_bimodule(p)
    zero = BilinearOp.zero(p.space, p.space, p.space)
    return ModuleData(full.base, full.carrier, {role: zero for role in full.carrier_ops},
                      full.actions)


def _splitting_module(q: StructurePresentation, base: StructurePresentation) -> ModuleData:
    """The module that the split operations of q make over base: each action
    is the split operation of its first side, read from that side, and each
    carrier operation is q's role of that name.  The identity of q's space
    splits it back into q."""
    rows, carrier_rows, _ = MODULE_ROLES[base.kind]
    actions = {}
    for role, _, sides, _ in rows:
        side, _, split = sides[0]
        actions[role] = oriented(q.op(split), side)
    return ModuleData(base, q.space, {role: q.op(role) for role, _ in carrier_rows}, actions)


def as_tridendriform(p: StructurePresentation) -> StructurePresentation:
    """Embed dendriform (zero dot) and zinbiel (mirrored, zero dot) presentations."""
    if p.kind == "tridendriform":
        return p
    if p.kind == "dendriform":
        zero = BilinearOp.zero(p.space, p.space, p.space)
        return StructurePresentation(
            p.space, {"succ": p.op("succ"), "prec": p.op("prec"), "dot": zero},
            "tridendriform")
    if p.kind == "zinbiel":
        s = p.op("succ")
        zero = BilinearOp.zero(p.space, p.space, p.space)
        return StructurePresentation(
            p.space, {"succ": s, "prec": s.arg_swap(), "dot": zero}, "tridendriform")
    raise ValueError(f"cannot view kind {p.kind!r} as tridendriform")


def as_post_poisson(p: StructurePresentation) -> StructurePresentation:
    if p.kind == "post-poisson":
        return p
    if p.kind == "pre-poisson":
        zero = BilinearOp.zero(p.space, p.space, p.space)
        return StructurePresentation(
            p.space,
            {"bracket": zero, "triangle": p.op("triangle"),
             "succ": p.op("succ"), "dot": zero},
            "post-poisson")
    raise ValueError(f"cannot view kind {p.kind!r} as post-poisson")


def tridendriform_bimodule(p: StructurePresentation, commutative: bool = False) -> ModuleData:
    """(carrier, dot, L_succ, R_prec) over the assembled associative total.

    With commutative=True the mirrored presentation collapses to a module
    algebra over the commutative total with the single action L_succ.
    """
    q = as_tridendriform(p)
    total = assemble_total(q)
    if commutative:
        fails = commutativity_failures(q)
        if fails:
            raise ValueError("presentation is not commutative: " + fails[0].describe(q.space))
        total = StructurePresentation(total.space, total.ops, "commutative-associative")
    return _splitting_module(q, total)


def post_poisson_module(p: StructurePresentation) -> ModuleData:
    """(carrier, bracket, dot, L_triangle, L_succ) over the assembled Poisson total."""
    q = as_post_poisson(p)
    return _splitting_module(q, assemble_total(q))


def post_lie_module(p: StructurePresentation) -> ModuleData:
    """(carrier, bracket, L_triangle) over the assembled Lie total."""
    if p.kind in ("pre-poisson", "post-poisson"):
        q = as_post_poisson(p)
        total = StructurePresentation(
            q.space, {"bracket": assemble_total(q).op("bracket")}, "lie")
    elif p.kind in ("post-lie", "pre-lie"):
        q = p
        if p.kind == "pre-lie":
            zero = BilinearOp.zero(p.space, p.space, p.space)
            q = StructurePresentation(
                p.space, {"bracket": zero, "triangle": p.op("triangle")}, "post-lie")
        total = assemble_total(q)
    else:
        raise ValueError(f"cannot derive a Lie module from kind {p.kind!r}")
    return _splitting_module(q, total)
