"""Relative Rota-Baxter style operators: checking, deformation, splitting.

An operator is a linear map T from a module carrier into the base
structure; the weight scales the carrier operations.  Every base family
(associative, Lie, Poisson) states its defining identity the same way, as
the graph of T: T(u) o T(v) = T(u o_T v) for each base operation o, where
o_T is the assembled total of the splitting that T induces.  One
contraction evaluates it, pulling o back along T and pushing o_T forward
through T; it is generic in the scalar type.  Over a deformed module the
matrix of T stays fixed, so the identity is linear in the layers: order s
is checked on layer s alone, in rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .deform import DeformationJet, ModuleDeformationJet, qcl
from .errors import ConsistencyError
from .linalg import BilinearOp, LinearMap, pullback, pushforward
from .scalars import Jet
from .structures import (
    KIND_ROLES,
    MODULE_ROLES,
    AxiomFailure,
    AxiomReport,
    ModuleData,
    StructurePresentation,
    _residual_order,
    as_bimodule_layout,
    assemble_total,
    oriented,
)

# base family -> its identities in report order, each with the base role it reads
_IDENTITIES = {
    "associative": (("OCirc", "circ"),),
    "commutative-associative": (("OCirc", "circ"),),
    "lie": (("OBracket", "bracket"),),
    "poisson": (("OBracket", "bracket"), ("OCirc", "circ")),
}


@dataclass(frozen=True)
class OOperatorSpec:
    """A candidate operator T: carrier -> base with a weight and its context."""

    operator: LinearMap
    weight: Fraction
    context: ModuleData

    def __post_init__(self):
        if self.operator.domain != self.context.carrier:
            raise ValueError("operator domain must be the module carrier")
        if self.operator.codomain != self.context.base.space:
            raise ValueError("operator codomain must be the base space")


def _residuals(spec: OOperatorSpec) -> list:
    """Entries (a, b, k) of T(e_a) o T(e_b) - T(e_a o_T e_b), one table per identity."""
    T, base = spec.operator, spec.context.base
    total = assemble_total(induce_splitting(spec))
    return [pullback(base.op(role), T, T).sub(pushforward(T, total.op(role))).entries
            for _, role in _IDENTITIES[spec.context.kind]]


def _report(spec: OOperatorSpec, cells, subject: str) -> AxiomReport:
    """cells maps (a, b, identity number) to a nonzero residual; failures come
    sorted by carrier pair, then in identity order."""
    axioms = tuple(axiom for axiom, _ in _IDENTITIES[spec.context.kind])
    failures = tuple(AxiomFailure(axioms[r], (a, b), residual, _residual_order(residual))
                     for (a, b, r), residual in sorted(cells.items()))
    return AxiomReport(not failures, failures, axioms, subject)


def check_o_operator(spec: OOperatorSpec, subject: str = "") -> AxiomReport:
    """Verify the operator identity of the context's family on all carrier pairs."""
    cells = {}
    for r, entries in enumerate(_residuals(spec)):
        for (a, b, k), c in entries.items():
            cells.setdefault((a, b, r), {})[k] = c
    return _report(spec, cells,
                   subject or f"weight-{spec.weight} operator over {spec.context.kind} base")


def _layer_specs(spec: OOperatorSpec, mj: ModuleDeformationJet) -> list:
    """T with its weight over every layer of mj, whose layer 0 is T's context."""
    if mj.layer0() != as_bimodule_layout(spec.context):
        raise ValueError("module jet does not deform the operator's context")
    return [OOperatorSpec(spec.operator, spec.weight, mj.layer(s))
            for s in range(mj.order + 1)]


def check_scalar_deformation(spec: OOperatorSpec, mj: ModuleDeformationJet,
                             subject: str = "") -> AxiomReport:
    """Check that the unchanged matrix of T stays an operator for the deformed
    module data, order by order; failures carry the first failing h-order."""
    order = mj.order
    coeffs = {}
    for s, layer_spec in enumerate(_layer_specs(spec, mj)):
        for r, entries in enumerate(_residuals(layer_spec)):
            for (a, b, k), c in entries.items():
                coeffs.setdefault((a, b, r), {}).setdefault(k, [0] * (order + 1))[s] = c
    cells = {key: {k: Jet.from_layers(cs, order) for k, cs in residual.items()}
             for key, residual in coeffs.items()}
    return _report(spec, cells, subject or f"operator with coefficients through order {order}")


def induce_splitting(spec: OOperatorSpec) -> StructurePresentation:
    """Split the base product through T into shifted operations on the carrier.

    Each action pulled back along T, (u, v) -> T(u) acting on v, is the split
    operation of its left side, and its opposite that of its right side;
    the carrier operations enter scaled by the weight.  Associative contexts
    give dendriform or tridendriform presentations, Poisson contexts pre- or
    post-Poisson, Lie contexts pre- or post-Lie: the first kind of each pair
    when every weighted carrier operation is zero.
    """
    m = spec.context
    rows, carrier_rows, (plain_kind, kind) = MODULE_ROLES[m.kind]
    ident = LinearMap.identity(m.carrier)
    ops = {}
    for role, _, sides, _ in rows:
        pulled = pullback(m.actions[role], spec.operator, ident)
        for side, _, split in sides:
            if split is not None:
                ops[split] = oriented(pulled, side)
    carrier = {role: m.carrier_ops[role].scale(spec.weight) for role, _ in carrier_rows}
    if all(op.is_zero() for op in carrier.values()):
        return StructurePresentation(m.carrier, ops, plain_kind)
    return StructurePresentation(m.carrier, {**carrier, **ops}, kind)


def induce_splitting_jet(spec: OOperatorSpec, mj: ModuleDeformationJet) -> DeformationJet:
    """Split every layer of mj through the unchanged T into one deformation.

    Dendriform or tridendriform is decided from all layers at once: when any
    layer has a nonzero weighted carrier product, the others get a zero dot.
    """
    splits = [induce_splitting(layer_spec) for layer_spec in _layer_specs(spec, mj)]
    kind = "tridendriform" if any(p.kind == "tridendriform" for p in splits) else "dendriform"
    zero = BilinearOp.zero(mj.carrier, mj.carrier, mj.carrier)
    layers = {role: tuple(p.ops.get(role, zero) for p in splits) for role in KIND_ROLES[kind]}
    return DeformationJet(kind, mj.order, layers)


def transfer_qcl_operator(spec: OOperatorSpec, mj: ModuleDeformationJet) -> AxiomReport:
    """Push the operator through the quasiclassical limit of its deformed context.

    Hypotheses (T stays an operator for the jet; commutative layer 0) are
    input errors when violated.  The limit check itself is guaranteed, so a
    failure there raises ConsistencyError.
    """
    jet_report = check_scalar_deformation(spec, mj)
    if not jet_report.passed:
        raise ValueError(
            "operator does not survive the deformation:\n" + jet_report.summary())
    limit = qcl(mj)
    limit_spec = OOperatorSpec(spec.operator, spec.weight, limit)
    report = check_o_operator(
        limit_spec, f"weight-{spec.weight} operator on quasiclassical limit")
    if not report.passed:
        raise ConsistencyError(
            "operator failed on the quasiclassical limit although the jet check "
            "passed; this should be impossible:\n" + report.summary())
    return report
