"""Formal deformations as truncated h-jets and their quasiclassical limits.

A deformation is stored layerwise: for each operation role a list of N+1
rational BilinearOps, layer 0 being the undeformed structure.  Checking a
deformation runs the ordinary axiom checker on those layers: the h^s part
of a word with two operations sums the joins of layer p with layer s - p,
evaluated in integers, so one code path certifies all orders at once
without jet arithmetic.  Module jets are checked through their layerwise
semidirect product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .linalg import (
    BilinearOp,
    LinearMap,
    Space,
    block_diag,
    pullback,
    pushforward,
)
from .structures import (
    KIND_ROLES,
    AxiomReport,
    ModuleData,
    StructurePresentation,
    as_bimodule_layout,
    check_layers,
    check_module,
    check_structure,
    commutativity_failures,
    semidirect,
    tridendriform_bimodule,
)


def _layers_consistent(layers, order, space):
    for role, ops in layers.items():
        if len(ops) != order + 1:
            raise ValueError(f"role {role!r} needs {order + 1} layers, got {len(ops)}")
        for op in ops:
            if (op.left, op.right, op.out) != (space, space, space):
                raise ValueError(f"layer of role {role!r} lives on the wrong space")


def _antisym(op: BilinearOp) -> BilinearOp:
    return op.sub(op.arg_swap())


@dataclass(frozen=True)
class DeformationJet:
    """Layerwise deformation of a structure of the given kind."""

    kind: str
    order: int
    layers: Mapping[str, tuple[BilinearOp, ...]]

    def __post_init__(self):
        if self.kind not in KIND_ROLES:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        if tuple(sorted(self.layers)) != tuple(sorted(KIND_ROLES[self.kind])):
            raise ValueError(f"kind {self.kind!r} needs layer roles {KIND_ROLES[self.kind]}")
        if self.order < 0:
            raise ValueError("jet order must be nonnegative")
        layers = {r: tuple(ops) for r, ops in self.layers.items()}
        _layers_consistent(layers, self.order, self.space)
        object.__setattr__(self, "layers", layers)

    @property
    def space(self) -> Space:
        return next(iter(self.layers.values()))[0].left

    def layer(self, s: int) -> StructurePresentation:
        return StructurePresentation(
            self.space, {r: ops[s] for r, ops in self.layers.items()}, self.kind
        )

    def layer0(self) -> StructurePresentation:
        return self.layer(0)

    def __eq__(self, other):
        if not isinstance(other, DeformationJet):
            return NotImplemented
        return (self.kind, self.order) == (other.kind, other.order) and self.layers == other.layers

    __hash__ = None


@dataclass(frozen=True)
class ModuleDeformationJet:
    """Layerwise deformation of bimodule-algebra data over an associative base.

    Fixed roles: base "circ", carrier "dot", actions "left" and "right";
    layer s of an action is one BilinearOp laid out as ModuleData.actions.
    Commutative-base module algebras deform into this shape as well, since
    the two deformed actions differ from order 1 on.
    """

    order: int
    base_layers: Mapping[str, tuple[BilinearOp, ...]]
    carrier_layers: Mapping[str, tuple[BilinearOp, ...]]
    action_layers: Mapping[str, tuple[BilinearOp, ...]]

    def __post_init__(self):
        if tuple(sorted(self.base_layers)) != ("circ",):
            raise ValueError("module jets carry exactly the base role 'circ'")
        if tuple(sorted(self.carrier_layers)) != ("dot",):
            raise ValueError("module jets carry exactly the carrier role 'dot'")
        if tuple(sorted(self.action_layers)) != ("left", "right"):
            raise ValueError("module jets carry exactly the actions 'left' and 'right'")
        base_layers = {r: tuple(ops) for r, ops in self.base_layers.items()}
        carrier_layers = {r: tuple(ops) for r, ops in self.carrier_layers.items()}
        action_layers = {r: tuple(ops) for r, ops in self.action_layers.items()}
        _layers_consistent(base_layers, self.order, self.base_space)
        _layers_consistent(carrier_layers, self.order, self.carrier)
        for role, ops in action_layers.items():
            if len(ops) != self.order + 1:
                raise ValueError(f"action {role!r} needs {self.order + 1} layers")
            for op in ops:
                if not isinstance(op, BilinearOp) or (op.left, op.right, op.out) != (
                        self.base_space, self.carrier, self.carrier):
                    raise ValueError(
                        f"action {role!r} must act from the base space on the carrier")
        object.__setattr__(self, "base_layers", base_layers)
        object.__setattr__(self, "carrier_layers", carrier_layers)
        object.__setattr__(self, "action_layers", action_layers)

    @classmethod
    def of_layers(cls, modules) -> "ModuleDeformationJet":
        """Collect bimodule-algebra data over associative bases, layer s from
        modules[s]."""
        return cls(len(modules) - 1,
                   {"circ": tuple(m.base.op("circ") for m in modules)},
                   {"dot": tuple(m.carrier_ops["dot"] for m in modules)},
                   {role: tuple(m.actions[role] for m in modules) for role in ("left", "right")})

    @property
    def base_space(self) -> Space:
        return self.base_layers["circ"][0].left

    @property
    def carrier(self) -> Space:
        return self.carrier_layers["dot"][0].left

    def layer(self, s: int) -> ModuleData:
        base = StructurePresentation(
            self.base_space, {"circ": self.base_layers["circ"][s]}, "associative"
        )
        return ModuleData(
            base,
            self.carrier,
            {"dot": self.carrier_layers["dot"][s]},
            {"left": self.action_layers["left"][s], "right": self.action_layers["right"][s]},
        )

    def layer0(self) -> ModuleData:
        return self.layer(0)

    def semidirect_jet(self) -> DeformationJet:
        """Assemble each layer on base + carrier into an associative jet."""
        circ_layers = tuple(
            semidirect(self.layer(s)).op("circ") for s in range(self.order + 1)
        )
        return DeformationJet("associative", self.order, {"circ": circ_layers})

    def __eq__(self, other):
        if not isinstance(other, ModuleDeformationJet):
            return NotImplemented
        return (self.order == other.order
                and self.base_layers == other.base_layers
                and self.carrier_layers == other.carrier_layers
                and self.action_layers == other.action_layers)

    __hash__ = None


# ---------------------------------------------------------------------------
# checking and quasiclassical limits

def check_deformation(j) -> AxiomReport:
    """Check all defining identities order by order on the rational layers.

    Failures carry the lowest h-order at which the identity breaks.  An
    invalid layer 0 is an input error, not a deformation failure.  Module
    jets are checked through their layerwise semidirect product.
    """
    if isinstance(j, DeformationJet):
        base_report = check_structure(j.layer0(), "layer 0")
        if not base_report.passed:
            raise ValueError("layer 0 is not a valid structure:\n" + base_report.summary(j.space))
        subject = f"{j.kind} deformation through order {j.order}"
    elif isinstance(j, ModuleDeformationJet):
        base_report = check_module(j.layer0(), "layer 0")
        if not base_report.passed:
            raise ValueError("layer 0 is not a valid module:\n" + base_report.summary())
        subject = f"module deformation through order {j.order}"
        j = j.semidirect_jet()
    else:
        raise TypeError("check_deformation expects a deformation jet")
    layers = {role: tuple(op.entries for op in ops) for role, ops in j.layers.items()}
    return check_layers(j.kind, layers, j.order, subject)


def _require_commutative_layer0(p: StructurePresentation):
    fails = commutativity_failures(p)
    if fails:
        raise ValueError("layer 0 is not commutative: " + fails[0].describe(p.space))


def qcl(j):
    """Quasiclassical limit: first-order antisymmetric data over layer 0.

    Commutative associative jets yield Poisson structures, commutative
    tridendriform jets yield post-Poisson structures, mirrored dendriform
    jets yield pre-Poisson structures, and module jets with commutative
    layer 0 yield Poisson module data.
    """
    if isinstance(j, DeformationJet):
        if j.order < 1:
            raise ValueError("a quasiclassical limit needs order >= 1")
        if j.kind in ("associative", "commutative-associative"):
            _require_commutative_layer0(j.layer0())
            circ = j.layers["circ"]
            return StructurePresentation(
                j.space,
                {"bracket": _antisym(circ[1]), "circ": circ[0]},
                "poisson",
            )
        if j.kind == "tridendriform":
            _require_commutative_layer0(j.layer0())
            succ, prec, dot = j.layers["succ"], j.layers["prec"], j.layers["dot"]
            triangle = succ[1].sub(prec[1].arg_swap())
            return StructurePresentation(
                j.space,
                {"bracket": _antisym(dot[1]), "triangle": triangle,
                 "succ": succ[0], "dot": dot[0]},
                "post-poisson",
            )
        if j.kind == "dendriform":
            _require_commutative_layer0(j.layer0())
            succ, prec = j.layers["succ"], j.layers["prec"]
            triangle = succ[1].sub(prec[1].arg_swap())
            return StructurePresentation(
                j.space, {"triangle": triangle, "succ": succ[0]}, "pre-poisson"
            )
        raise ValueError(f"no quasiclassical limit for kind {j.kind!r}")
    if isinstance(j, ModuleDeformationJet):
        if j.order < 1:
            raise ValueError("a quasiclassical limit needs order >= 1")
        circ = j.base_layers["circ"]
        dot = j.carrier_layers["dot"]
        left, right = j.action_layers["left"], j.action_layers["right"]
        base0 = StructurePresentation(j.base_space, {"circ": circ[0]},
                                      "commutative-associative")
        comm_fails = commutativity_failures(base0)
        if comm_fails:
            raise ValueError("layer-0 base is not commutative: "
                             + comm_fails[0].describe(j.base_space))
        if not _antisym(dot[0]).is_zero():
            raise ValueError("layer-0 carrier product is not commutative")
        if left[0] != right[0]:
            raise ValueError("layer-0 actions differ; need a module algebra at h = 0")
        base = StructurePresentation(
            j.base_space, {"bracket": _antisym(circ[1]), "circ": circ[0]}, "poisson"
        )
        return ModuleData(
            base,
            j.carrier,
            {"bracket": _antisym(dot[1]), "dot": dot[0]},
            {"bracket_act": left[1].sub(right[1]), "circ_act": left[0]},
        )
    raise TypeError("qcl expects a deformation jet")


# ---------------------------------------------------------------------------
# derivation-generated deformations

@dataclass(frozen=True)
class DerivationPair:
    """Two commuting endomorphisms driving an exponential-style deformation."""

    d1: LinearMap
    d2: LinearMap

    def __post_init__(self):
        for d in (self.d1, self.d2):
            if d.domain != d.codomain:
                raise ValueError("derivations must be endomorphisms")
        if self.d1.domain != self.d2.domain:
            raise ValueError("the two derivations must act on the same space")
        if not self.d1.commutes_with(self.d2):
            raise ValueError("the two derivations must commute")

    @property
    def space(self) -> Space:
        return self.d1.domain


def derivation_failures(d: LinearMap, op: BilinearOp):
    """Basis pairs where d fails the Leibniz rule for op."""
    ident = LinearMap.identity(op.left)
    residual = pushforward(d, op).sub(pullback(op, d, ident)).sub(pullback(op, ident, d))
    return sorted({(i, j) for i, j, _ in residual.entries})


def _check_derivations(pair: DerivationPair, ops: Mapping[str, BilinearOp]):
    for name, d in (("d1", pair.d1), ("d2", pair.d2)):
        for role, op in ops.items():
            bad = derivation_failures(d, op)
            if bad:
                raise ValueError(
                    f"{name} is not a derivation of role {role!r}; "
                    f"first failing basis pair {bad[0]}"
                )


def _powers(d: LinearMap, order: int):
    out = [LinearMap.identity(d.domain)]
    for _ in range(order):
        out.append(d.compose(out[-1]))
    return out


def _derived_layers(op: BilinearOp, p1, p2, order: int) -> tuple[BilinearOp, ...]:
    """Layer s sends (x, y) to op(d1^s x, d2^s y) / s!."""
    n_l, n_r = op.left.dim, op.right.dim
    layers = []
    for s in range(order + 1):
        inv = Fraction(1, math.factorial(s))
        items = []
        d2_cols = [p2[s].column(j) for j in range(n_r)]
        for i in range(n_l):
            u = p1[s].column(i)
            for j, v in enumerate(d2_cols):
                for k, c in op.apply(u, v).items():
                    items.append((i, j, k, inv * c))
        layers.append(BilinearOp.from_entries(op.left, op.right, op.out, items, combine=True))
    return tuple(layers)


def derive_deformation(target, pair: DerivationPair, order: int):
    """Deform by x *_s y = op(d1^s x, d2^s y) / s! for every operation role.

    For module data the rule is read off the semidirect product, so the
    right action deforms with the roles of d1 and d2 swapped.
    """
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    if isinstance(target, StructurePresentation):
        if pair.space != target.space:
            raise ValueError("derivations do not act on the structure's space")
        _check_derivations(pair, target.ops)
        p1 = _powers(pair.d1, order)
        p2 = _powers(pair.d2, order)
        layers = {role: _derived_layers(op, p1, p2, order)
                  for role, op in target.ops.items()}
        return DeformationJet(target.kind, order, layers)

    if isinstance(target, ModuleData):
        if target.kind not in ("associative", "commutative-associative"):
            raise ValueError("module deformations are built over associative bases")
        total = semidirect(target)
        if pair.space != total.space:
            raise ValueError("derivations must act on the semidirect space")
        na = target.base.space.dim
        nv = target.carrier.dim
        rows_a, rows_v = range(na), range(na, na + nv)
        for name, d in (("d1", pair.d1), ("d2", pair.d2)):
            off1 = d.block(rows_a, rows_v, target.carrier, target.base.space)
            off2 = d.block(rows_v, rows_a, target.base.space, target.carrier)
            if not (off1.is_zero() and off2.is_zero()):
                raise ValueError(f"{name} does not preserve the base and carrier blocks")
        _check_derivations(pair, total.ops)

        def blocks(d):
            return (d.block(rows_a, rows_a, target.base.space, target.base.space),
                    d.block(rows_v, rows_v, target.carrier, target.carrier))

        a1, v1 = blocks(pair.d1)
        a2, v2 = blocks(pair.d2)
        pa1, pv1 = _powers(a1, order), _powers(v1, order)
        pa2, pv2 = _powers(a2, order), _powers(v2, order)

        m = as_bimodule_layout(target)

        def action_layers(op, alg_pows, mod_pows):
            return tuple(pullback(op, alg_pows[s], mod_pows[s]).scale(
                Fraction(1, math.factorial(s))) for s in range(order + 1))

        return ModuleDeformationJet(
            order,
            {"circ": _derived_layers(m.base.op("circ"), pa1, pa2, order)},
            {"dot": _derived_layers(m.carrier_ops["dot"], pv1, pv2, order)},
            {"left": action_layers(m.actions["left"], pa1, pv2),
             "right": action_layers(m.actions["right"], pa2, pv1)},
        )

    raise TypeError("derive_deformation expects a structure or module data")


def module_derivation_pair(mA: DerivationPair, mV: DerivationPair, m: ModuleData) -> DerivationPair:
    """Assemble block-diagonal derivations on the semidirect space."""
    total = semidirect(m).space
    return DerivationPair(
        block_diag(mA.d1, mV.d1, total),
        block_diag(mA.d2, mV.d2, total),
    )


# ---------------------------------------------------------------------------
# derived module jets

def tridendriform_bimodule_jet(j: DeformationJet) -> ModuleDeformationJet:
    """Layerwise (carrier, dot_s, L_{succ_s}, R_{prec_s}) over circ_s.

    Dendriform jets are accepted as the dot = 0 degenerate case; the carrier
    product layers then vanish and the result is a plain-module deformation.
    """
    if j.kind not in ("tridendriform", "dendriform"):
        raise ValueError("expected a tridendriform or dendriform deformation")
    return ModuleDeformationJet.of_layers(
        [tridendriform_bimodule(j.layer(s)) for s in range(j.order + 1)])


def regular_bimodule_jet(j: DeformationJet, plain: bool = False) -> ModuleDeformationJet:
    """The jet acting on itself; with plain=True the carrier product is dropped."""
    if "circ" not in j.layers:
        raise ValueError("expected an associative-family deformation")
    circ = j.layers["circ"]
    zero = BilinearOp.zero(j.space, j.space, j.space)
    dot = tuple(zero for _ in circ) if plain else circ
    return ModuleDeformationJet(
        j.order,
        {"circ": circ},
        {"dot": dot},
        {"left": circ, "right": tuple(c.arg_swap() for c in circ)},
    )


# ---------------------------------------------------------------------------
# worked-example generators

def gen_product_shift(base: StructurePresentation, n: int, base_jet: DeformationJet = None):
    """Componentwise product plus strictly-lower-index shifted products on n copies.

    Copy t of the basis receives dot products within copy t, and the shifted
    products collect base products of any strictly earlier copy with copy t.
    Returns a tridendriform presentation, or its deformation when a base jet
    is supplied.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    if base.kind not in ("associative", "commutative-associative"):
        raise ValueError("the shifted-product construction starts from an associative base")
    if base_jet is not None:
        if base_jet.kind != base.kind or base_jet.layer0() != base:
            raise ValueError("base jet must deform the given base structure")

    nb = base.space.dim
    labels = tuple(f"{lbl}[{t + 1}]" for t in range(n) for lbl in base.space.labels)
    space = Space.make(n * nb, labels)

    def build(diamond: BilinearOp):
        dot_items, succ_items, prec_items = [], [], []
        for (p, q, k), c in diamond.entries.items():
            for t in range(n):
                dot_items.append((t * nb + p, t * nb + q, t * nb + k, c))
                for u in range(t):
                    succ_items.append((u * nb + p, t * nb + q, t * nb + k, c))
                    prec_items.append((t * nb + p, u * nb + q, t * nb + k, c))
        return {
            "dot": BilinearOp.on(space, dot_items),
            "succ": BilinearOp.on(space, succ_items),
            "prec": BilinearOp.on(space, prec_items),
        }

    if base_jet is None:
        return StructurePresentation(space, build(base.op("circ")), "tridendriform")

    per_layer = [build(base_jet.layers["circ"][s]) for s in range(base_jet.order + 1)]
    layers = {role: tuple(layer[role] for layer in per_layer)
              for role in ("succ", "prec", "dot")}
    return DeformationJet("tridendriform", base_jet.order, layers)


def truncated_polynomial_algebra(D: int, labels_prefix: str = "t") -> StructurePresentation:
    """Nonunital Q[t]/(t^(D+1)): basis t..t^D with truncated products."""
    if D < 1:
        raise ValueError("need degree at least 1")
    labels = tuple("t" if a == 1 else f"t^{a}" for a in range(1, D + 1))
    space = Space.make(D, labels)
    items = []
    for a in range(1, D + 1):
        for b in range(1, D + 1):
            if a + b <= D:
                items.append((a - 1, b - 1, a + b - 1, 1))
    circ = BilinearOp.on(space, items)
    return StructurePresentation(space, {"circ": circ}, "commutative-associative")


def _monomials(D: int):
    out = []
    for d in range(1, D + 1):
        for i1 in range(d, -1, -1):
            out.append((i1, d - i1))
    return out


def _monomial_label(i1: int, i2: int) -> str:
    parts = []
    if i1 == 1:
        parts.append("x1")
    elif i1 > 1:
        parts.append(f"x1^{i1}")
    if i2 == 1:
        parts.append("x2")
    elif i2 > 1:
        parts.append(f"x2^{i2}")
    return "".join(parts)


@dataclass(frozen=True)
class TruncatedPolyExample:
    """Two-variable truncated monomial algebra with a diagonal weight-1 operator.

    The splitting succ carries the coefficient q^I / (1 - q^I); the two
    commuting derivations scale by the partial degrees, so every jet layer
    stays diagonal in the monomial basis.
    """

    q1: Fraction
    q2: Fraction
    D: int
    N: int
    space: Space
    monomials: tuple[tuple[int, int], ...]
    presentation: StructurePresentation
    jet: DeformationJet
    qcl_closed: StructurePresentation
    operator: LinearMap
    derivations: DerivationPair

    def index(self, i1: int, i2: int) -> int:
        return self.monomials.index((i1, i2))


def gen_truncated_poly_example(q1, q2, D: int, N: int) -> TruncatedPolyExample:
    q1, q2 = Fraction(q1), Fraction(q2)
    if D < 1 or N < 0:
        raise ValueError("need D >= 1 and N >= 0")
    # the diagonal coefficients need q^I != 1 for every exponent in range
    for i1 in range(2 * D + 1):
        for i2 in range(2 * D + 1 - i1):
            if (i1, i2) != (0, 0) and q1 ** i1 * q2 ** i2 == 1:
                raise ValueError(
                    f"degenerate parameters: q1^{i1} * q2^{i2} = 1"
                )

    monos = tuple(_monomials(D))
    space = Space.make(len(monos), tuple(_monomial_label(*m) for m in monos))
    idx = {m: i for i, m in enumerate(monos)}

    def qf(m):
        val = q1 ** m[0] * q2 ** m[1]
        return val / (1 - val)

    dot_items, succ_items, prec_items = [], [], []
    for a, ma in enumerate(monos):
        for b, mb in enumerate(monos):
            tot = (ma[0] + mb[0], ma[1] + mb[1])
            k = idx.get(tot)
            if k is None:
                continue
            dot_items.append((a, b, k, 1))
            succ_items.append((a, b, k, qf(ma)))
            prec_items.append((a, b, k, qf(mb)))
    presentation = StructurePresentation(
        space,
        {"succ": BilinearOp.on(space, succ_items),
         "prec": BilinearOp.on(space, prec_items),
         "dot": BilinearOp.on(space, dot_items)},
        "tridendriform",
    )

    derivations = DerivationPair(
        LinearMap.diagonal(space, [m[0] for m in monos]),
        LinearMap.diagonal(space, [m[1] for m in monos]),
    )
    jet = derive_deformation(presentation, derivations, N)

    bracket_items, triangle_items = [], []
    for a, ma in enumerate(monos):
        for b, mb in enumerate(monos):
            tot = (ma[0] + mb[0], ma[1] + mb[1])
            k = idx.get(tot)
            if k is None:
                continue
            w = Fraction(ma[0] * mb[1] - ma[1] * mb[0])
            if w:
                bracket_items.append((a, b, k, w))
                triangle_items.append((a, b, k, w * qf(ma)))
    qcl_closed = StructurePresentation(
        space,
        {"bracket": BilinearOp.on(space, bracket_items),
         "triangle": BilinearOp.on(space, triangle_items),
         "succ": presentation.op("succ"),
         "dot": presentation.op("dot")},
        "post-poisson",
    )

    operator = LinearMap.diagonal(space, [qf(m) for m in monos])
    return TruncatedPolyExample(
        q1, q2, D, N, space, monos, presentation, jet, qcl_closed, operator, derivations
    )


@dataclass(frozen=True)
class ZinbielExample:
    """Two-variable truncated monomials with the degree-splitting product.

    succ carries 1/|I|; it integrates the left factor, giving a mirrored
    dendriform pair whose identity map is a weightless operator for the
    assembled commutative product.
    """

    D: int
    N: int
    space: Space
    monomials: tuple[tuple[int, int], ...]
    zinbiel: StructurePresentation
    dendriform: StructurePresentation
    jet: DeformationJet
    qcl_closed: StructurePresentation
    derivations: DerivationPair

    def index(self, i1: int, i2: int) -> int:
        return self.monomials.index((i1, i2))


def gen_integration_zinbiel(D: int, N: int) -> ZinbielExample:
    if D < 1 or N < 0:
        raise ValueError("need D >= 1 and N >= 0")
    monos = tuple(_monomials(D))
    space = Space.make(len(monos), tuple(_monomial_label(*m) for m in monos))
    idx = {m: i for i, m in enumerate(monos)}

    succ_items, triangle_items = [], []
    for a, ma in enumerate(monos):
        deg = Fraction(1, ma[0] + ma[1])
        for b, mb in enumerate(monos):
            tot = (ma[0] + mb[0], ma[1] + mb[1])
            k = idx.get(tot)
            if k is None:
                continue
            succ_items.append((a, b, k, deg))
            w = ma[0] * mb[1] - ma[1] * mb[0]
            if w:
                triangle_items.append((a, b, k, w * deg))
    succ = BilinearOp.on(space, succ_items)
    zinbiel = StructurePresentation(space, {"succ": succ}, "zinbiel")
    dendriform = StructurePresentation(
        space, {"succ": succ, "prec": succ.arg_swap()}, "dendriform"
    )
    derivations = DerivationPair(
        LinearMap.diagonal(space, [m[0] for m in monos]),
        LinearMap.diagonal(space, [m[1] for m in monos]),
    )
    jet = derive_deformation(dendriform, derivations, N)
    qcl_closed = StructurePresentation(
        space,
        {"triangle": BilinearOp.on(space, triangle_items), "succ": succ},
        "pre-poisson",
    )
    return ZinbielExample(D, N, space, monos, zinbiel, dendriform, jet, qcl_closed, derivations)
