"""The merged-jet view of a deformation, kept as oracle input.

The library stores a deformation as rational layers, one per power of h,
and checks it layer by layer.  The functions below merge those layers into
one jet-valued operation, presentation or module, which the dense oracles
then evaluate in jet arithmetic, and split a jet-valued presentation back
into the per-order tables that `check_layers` takes.
"""

from __future__ import annotations

from jetalg import BilinearOp, DeformationJet, ModuleData, ModuleDeformationJet, StructurePresentation
from jetalg.scalars import Jet


def merge_layers(ops: tuple[BilinearOp, ...], order: int) -> BilinearOp:
    """Collapse rational layers into a single jet-valued operation."""
    keys = set()
    for op in ops:
        keys.update(op.entries)
    space = ops[0].left
    entries = {}
    for key in keys:
        coeffs = [op.entries.get(key, 0) for op in ops]
        entries[key] = Jet.from_layers(coeffs, order)
    return BilinearOp(space, ops[0].right, ops[0].out, entries)


def jet_presentation(j: DeformationJet) -> StructurePresentation:
    return StructurePresentation(
        j.space, {r: merge_layers(ops, j.order) for r, ops in j.layers.items()}, j.kind)


def jet_module(mj: ModuleDeformationJet) -> ModuleData:
    """Merge a module jet into one jet-valued module: the reference the
    layerwise module and operator checks are held against."""
    order = mj.order
    base = StructurePresentation(
        mj.base_space,
        {"circ": merge_layers(mj.base_layers["circ"], order)},
        "associative",
    )
    return ModuleData(
        base,
        mj.carrier,
        {"dot": merge_layers(mj.carrier_layers["dot"], order)},
        {role: merge_layers(ops, order) for role, ops in mj.action_layers.items()},
    )


def split_layers(p: StructurePresentation, order: int):
    """Role -> the order + 1 tables {(i, j, k): h^s coefficient} of a
    jet-valued presentation of that order, zero coefficients dropped."""
    layers = {}
    for role, op in p.ops.items():
        per_order = [{} for _ in range(order + 1)]
        for key, c in op.entries.items():
            for layer, coeff in zip(per_order, c.coeffs):
                if coeff:
                    layer[key] = coeff
        layers[role] = tuple(per_order)
    return layers


def order0_module(m: ModuleData) -> ModuleData:
    """Every jet coefficient of a module replaced by its h^0 part."""
    def at0(op):
        return BilinearOp(op.left, op.right, op.out,
                          {key: c.coeff(0) for key, c in op.entries.items()})

    base = StructurePresentation(m.base.space, {r: at0(op) for r, op in m.base.ops.items()},
                                 m.base.kind)
    return ModuleData(base, m.carrier, {r: at0(op) for r, op in m.carrier_ops.items()},
                      {r: at0(op) for r, op in m.actions.items()})
