"""JSON formats for every object the command line moves between stages.

Scalars travel as "p/q" strings (or "p" for integers).  Emission is
deterministic: keys are sorted and sparse entries are emitted in index
order, so re-serializing a loaded artifact is byte-identical.  Loaders
validate eagerly and raise FileFormatError naming the file and the entry.

Formats
  structure    {"dim", "basis", "kind", "ops": {role: [[i, j, k, "p/q"], ...]}}
  module       structure fields for the carrier, plus
               {"base": <structure or path>, "actions": {role: [matrix, ...]}},
               one carrier matrix per base element; in memory each role is
               one BilinearOp with entries (i, c, r)
  deformation  {"dim", "basis", "kind", "order",
                "layers": {role: [[entries of layer 0], [layer 1], ...]}}
  operator     {"weight": "p/q", "matrix": [[...]], "context": <module or path>}
  tensor       {"matrix": [[...]]} over a structure given separately; in
               memory only the nonzero cells are kept
  derivations  {"d1": [[...]], "d2": [[...]]}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .deform import DeformationJet
from .linalg import BilinearOp, LinearMap, Space, TensorElement
from .operators import OOperatorSpec
from .scalars import Jet
from .structures import (
    KIND_ROLES,
    MODULE_ACTION_ROLES,
    MODULE_CARRIER_ROLES,
    ModuleData,
    StructurePresentation,
)


class FileFormatError(ValueError):
    """Raised for unparsable or invariant-violating input files."""


# ---------------------------------------------------------------------------
# scalars

def _is_int(value) -> bool:
    """JSON integers only: true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_scalar(text, where: str) -> Fraction:
    """An integer, or a "p" / "p/q" string; nothing else is a scalar."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a rational string, got {text!r}")
    if not _RATIONAL.fullmatch(text):
        raise FileFormatError(f"{where}: bad rational {text!r} (expected p or p/q)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"{where}: bad rational {text!r} ({exc})") from None


def scalar_text(value) -> str:
    return str(Fraction(value))


def scalar_json(value):
    """Rationals as strings, jets as coefficient lists; text passes through."""
    if isinstance(value, Jet):
        return {"jet": [scalar_text(c) for c in value.coeffs]}
    if isinstance(value, str):
        return value
    return scalar_text(value)


# ---------------------------------------------------------------------------
# shared pieces

def _load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return data


def _dump_json(data, path):
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise FileFormatError(f"{where}: missing field {key!r}")
    return d[key]


def _space_from(d: dict, where: str) -> Space:
    dim = _need(d, "dim", where)
    basis = _need(d, "basis", where)
    if not _is_int(dim) or dim <= 0:
        raise FileFormatError(f"{where}: dim must be a positive integer")
    if not isinstance(basis, list) or len(basis) != dim \
            or not all(isinstance(b, str) for b in basis):
        raise FileFormatError(f"{where}: basis must list {dim} labels")
    try:
        return Space.make(dim, basis)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def _entries_from(items, space: Space, where: str):
    if not isinstance(items, list):
        raise FileFormatError(f"{where}: expected a list of [i, j, k, scalar] entries")
    out = []
    seen = set()
    for pos, item in enumerate(items):
        if not (isinstance(item, list) and len(item) == 4):
            raise FileFormatError(f"{where}[{pos}]: expected [i, j, k, scalar]")
        i, j, k, c = item
        for idx in (i, j, k):
            if not _is_int(idx) or not 0 <= idx < space.dim:
                raise FileFormatError(
                    f"{where}[{pos}]: index {idx!r} out of range for dim {space.dim}")
        if (i, j, k) in seen:
            raise FileFormatError(f"{where}[{pos}]: duplicate entry ({i}, {j}, {k})")
        seen.add((i, j, k))
        out.append((i, j, k, parse_scalar(c, f"{where}[{pos}]")))
    return out


def _entries_to(op: BilinearOp):
    return [[i, j, k, scalar_text(c)] for (i, j, k), c in op.sorted_entries()]


def _matrix_from(rows, codomain: Space, domain: Space, where: str):
    if not isinstance(rows, list) or len(rows) != codomain.dim:
        raise FileFormatError(f"{where}: expected {codomain.dim} matrix rows")
    mat = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != domain.dim:
            raise FileFormatError(f"{where}[{i}]: expected {domain.dim} columns")
        mat.append([parse_scalar(c, f"{where}[{i}][{j}]") for j, c in enumerate(row)])
    return mat


def _matrix_to(mat):
    return [[scalar_text(c) for c in row] for row in mat]


def _check_kind(kind, where: str) -> str:
    if not isinstance(kind, str) or kind not in KIND_ROLES:
        known = ", ".join(sorted(KIND_ROLES))
        raise FileFormatError(f"{where}: unknown kind {kind!r}; expected one of {known}")
    return kind


# ---------------------------------------------------------------------------
# structures

def structure_to_dict(p: StructurePresentation) -> dict:
    return {
        "dim": p.space.dim,
        "basis": list(p.space.labels),
        "kind": p.kind,
        "ops": {role: _entries_to(op) for role, op in sorted(p.ops.items())},
    }


def structure_from_dict(d: dict, where: str = "structure") -> StructurePresentation:
    space = _space_from(d, where)
    kind = _check_kind(_need(d, "kind", where), where)
    ops_data = _need(d, "ops", where)
    if not isinstance(ops_data, dict):
        raise FileFormatError(f"{where}: ops must map role names to entry lists")
    wanted = set(KIND_ROLES[kind])
    missing = wanted - set(ops_data)
    if missing:
        raise FileFormatError(
            f"{where}: kind {kind!r} is missing roles {sorted(missing)}")
    extra = set(ops_data) - wanted
    if extra:
        raise FileFormatError(
            f"{where}: kind {kind!r} does not use roles {sorted(extra)}")
    ops = {
        role: BilinearOp.on(space, _entries_from(ops_data[role], space,
                                                 f"{where}.ops[{role!r}]"))
        for role in sorted(ops_data)
    }
    return StructurePresentation(space, ops, kind)


def save_structure(p: StructurePresentation, path):
    _dump_json(structure_to_dict(p), path)


def load_structure(path) -> StructurePresentation:
    return structure_from_dict(_load_json(path), str(path))


# ---------------------------------------------------------------------------
# modules

def module_to_dict(m: ModuleData, base_ref: str | None = None) -> dict:
    return {
        "dim": m.carrier.dim,
        "basis": list(m.carrier.labels),
        "kind": m.kind,
        "ops": {role: _entries_to(op) for role, op in sorted(m.carrier_ops.items())},
        "base": base_ref if base_ref is not None else structure_to_dict(m.base),
        "actions": {role: _action_matrices(op) for role, op in sorted(m.actions.items())},
    }


def _action_matrices(op: BilinearOp):
    """One dense carrier matrix per base element: entry (i, c, r) of the
    action sits in row r, column c of matrix i."""
    mats = [[[0] * op.right.dim for _ in range(op.out.dim)] for _ in range(op.left.dim)]
    for (i, c, r), v in op.entries.items():
        mats[i][r][c] = v
    return [_matrix_to(mat) for mat in mats]


def module_from_dict(d: dict, where: str = "module",
                     base_dir: Path | None = None) -> ModuleData:
    carrier = _space_from(d, where)
    base_data = _need(d, "base", where)
    if isinstance(base_data, str):
        base_path = Path(base_data)
        if base_dir is not None and not base_path.is_absolute():
            base_path = base_dir / base_path
        base = load_structure(base_path)
    elif isinstance(base_data, dict):
        base = structure_from_dict(base_data, f"{where}.base")
    else:
        raise FileFormatError(f"{where}: base must be a structure object or a path")
    kind = base.kind
    if "kind" in d and d["kind"] != kind:
        raise FileFormatError(
            f"{where}: kind {d['kind']!r} does not match the base kind {kind!r}")
    if kind not in MODULE_CARRIER_ROLES:
        raise FileFormatError(f"{where}: no module layout over base kind {kind!r}")

    ops_data = d.get("ops", {})
    if not isinstance(ops_data, dict):
        raise FileFormatError(f"{where}: ops must map carrier role names to entry lists")
    wanted_ops = set(MODULE_CARRIER_ROLES[kind])
    if set(ops_data) != wanted_ops:
        raise FileFormatError(
            f"{where}: carrier ops must be exactly {sorted(wanted_ops)}")
    carrier_ops = {
        role: BilinearOp.on(carrier, _entries_from(ops_data[role], carrier,
                                                   f"{where}.ops[{role!r}]"))
        for role in sorted(ops_data)
    }

    actions_data = _need(d, "actions", where)
    wanted = set(MODULE_ACTION_ROLES[kind])
    if not isinstance(actions_data, dict) or set(actions_data) != wanted:
        raise FileFormatError(f"{where}: actions must be exactly {sorted(wanted)}")
    nb = base.space.dim
    actions = {}
    for role in sorted(actions_data):
        tables = actions_data[role]
        if not isinstance(tables, list) or len(tables) != nb:
            raise FileFormatError(
                f"{where}.actions[{role!r}]: expected {nb} matrices, one per base element")
        entries = {}
        for i in range(nb):
            mat = _matrix_from(tables[i], carrier, carrier, f"{where}.actions[{role!r}][{i}]")
            entries.update(((i, c, r), v) for r, row in enumerate(mat)
                           for c, v in enumerate(row) if v)
        actions[role] = BilinearOp(base.space, carrier, carrier, entries)
    return ModuleData(base, carrier, carrier_ops, actions)


def save_module(m: ModuleData, path, base_ref: str | None = None):
    _dump_json(module_to_dict(m, base_ref), path)


def load_module(path) -> ModuleData:
    return module_from_dict(_load_json(path), str(path), Path(path).parent)


# ---------------------------------------------------------------------------
# deformations

def deformation_to_dict(j: DeformationJet) -> dict:
    return {
        "dim": j.space.dim,
        "basis": list(j.space.labels),
        "kind": j.kind,
        "order": j.order,
        "layers": {role: [_entries_to(layer) for layer in layers]
                   for role, layers in sorted(j.layers.items())},
    }


def deformation_from_dict(d: dict, where: str = "deformation") -> DeformationJet:
    space = _space_from(d, where)
    kind = _check_kind(_need(d, "kind", where), where)
    order = _need(d, "order", where)
    if not _is_int(order) or order < 0:
        raise FileFormatError(f"{where}: order must be a nonnegative integer")
    layers_data = _need(d, "layers", where)
    wanted = set(KIND_ROLES[kind])
    if not isinstance(layers_data, dict) or set(layers_data) != wanted:
        raise FileFormatError(f"{where}: layers must be exactly {sorted(wanted)}")
    layers = {}
    for role in sorted(layers_data):
        per_order = layers_data[role]
        if not isinstance(per_order, list) or len(per_order) != order + 1:
            raise FileFormatError(
                f"{where}.layers[{role!r}]: expected {order + 1} layers")
        layers[role] = tuple(
            BilinearOp.on(space, _entries_from(per_order[s], space,
                                               f"{where}.layers[{role!r}][{s}]"))
            for s in range(order + 1)
        )
    return DeformationJet(kind, order, layers)


def save_deformation(j: DeformationJet, path):
    _dump_json(deformation_to_dict(j), path)


def load_deformation(path) -> DeformationJet:
    return deformation_from_dict(_load_json(path), str(path))


# ---------------------------------------------------------------------------
# operators, tensors, derivations

def operator_to_dict(spec: OOperatorSpec, context_ref: str | None = None) -> dict:
    return {
        "weight": scalar_text(spec.weight),
        "matrix": _matrix_to(spec.operator.matrix),
        "context": context_ref if context_ref is not None
        else module_to_dict(spec.context),
    }


def operator_from_dict(d: dict, where: str = "operator",
                       base_dir: Path | None = None) -> OOperatorSpec:
    weight = parse_scalar(_need(d, "weight", where), f"{where}.weight")
    context_data = _need(d, "context", where)
    if isinstance(context_data, str):
        ctx_path = Path(context_data)
        if base_dir is not None and not ctx_path.is_absolute():
            ctx_path = base_dir / ctx_path
        context = load_module(ctx_path)
    elif isinstance(context_data, dict):
        context = module_from_dict(context_data, f"{where}.context", base_dir)
    else:
        raise FileFormatError(f"{where}: context must be a module object or a path")
    matrix = _matrix_from(_need(d, "matrix", where), context.base.space,
                          context.carrier, f"{where}.matrix")
    operator = LinearMap(context.carrier, context.base.space, matrix)
    return OOperatorSpec(operator, weight, context)


def save_operator(spec: OOperatorSpec, path, context_ref: str | None = None):
    _dump_json(operator_to_dict(spec, context_ref), path)


def load_operator(path) -> OOperatorSpec:
    return operator_from_dict(_load_json(path), str(path), Path(path).parent)


def tensor_to_dict(r: TensorElement) -> dict:
    rows = [["0"] * r.right.dim for _ in range(r.left.dim)]
    for (i, j), c in r.entries.items():
        rows[i][j] = scalar_text(c)
    return {"matrix": rows}


def tensor_from_dict(d: dict, space: Space, where: str = "tensor") -> TensorElement:
    matrix = _matrix_from(_need(d, "matrix", where), space, space, f"{where}.matrix")
    return TensorElement.from_entries(space, space, ((i, j, c) for i, row in enumerate(matrix)
                                                     for j, c in enumerate(row) if c))


def save_tensor(r: TensorElement, path):
    _dump_json(tensor_to_dict(r), path)


def load_tensor(path, space: Space) -> TensorElement:
    return tensor_from_dict(_load_json(path), space, str(path))


def derivations_to_dict(pair) -> dict:
    return {"d1": _matrix_to(pair.d1.matrix), "d2": _matrix_to(pair.d2.matrix)}


def derivations_from_dict(d: dict, space: Space, where: str = "derivations"):
    from .deform import DerivationPair

    d1 = LinearMap(space, space, _matrix_from(_need(d, "d1", where), space, space,
                                              f"{where}.d1"))
    d2 = LinearMap(space, space, _matrix_from(_need(d, "d2", where), space, space,
                                              f"{where}.d2"))
    return DerivationPair(d1, d2)


def load_derivations(path, space: Space):
    return derivations_from_dict(_load_json(path), space, str(path))


def save_derivations(pair, path):
    _dump_json(derivations_to_dict(pair), path)


# ---------------------------------------------------------------------------
# reports

def report_to_dict(report, space: Space | None = None) -> dict:
    failures = []
    for f in report.failures:
        failures.append({
            "axiom": f.axiom,
            "indices": list(f.indices),
            "labels": [space.label(i) for i in f.indices]
            if space is not None and all(
                isinstance(i, int) and 0 <= i < space.dim for i in f.indices)
            else None,
            "residual": {str(k): scalar_json(v) for k, v in sorted(
                f.residual.items(), key=lambda kv: str(kv[0]))},
            "order": f.order,
        })
    return {
        "subject": report.subject,
        "passed": report.passed,
        "checked": list(report.checked),
        "failures": failures,
    }
