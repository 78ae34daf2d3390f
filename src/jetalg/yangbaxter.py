"""Yang-Baxter residuals, solution constructors, and deformation transfer.

Residuals are sparse rank-3 tensors; a candidate solves the equation
exactly when its residual has no nonzero entry.  Each residual is one join
of the tensor's nonzero cells with the product's structure constants, run
in integers; a jet-valued product is split into its h-layers, joined layer
by layer and merged back into jet cells.  Solution constructors always
rebuild their ambient algebras through the semidirect and dualization code
paths and re-verify every tensor they emit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping

from .deform import DeformationJet, ModuleDeformationJet
from .errors import ConsistencyError
from .linalg import (
    BilinearOp,
    LinearMap,
    Space,
    Tensor3,
    TensorElement,
    direct_sum,
    eta_embed,
    pullback,
    sharp,
    unsharp,
)
from .operators import OOperatorSpec, check_o_operator
from .scalars import Jet
from .structures import (
    AxiomFailure,
    AxiomReport,
    ModuleData,
    StructurePresentation,
    _layers_of,
    as_post_poisson,
    as_tridendriform,
    dualize_module,
    oriented,
    post_lie_module,
    post_poisson_module,
    regular_bimodule,
    regular_module,
    semidirect,
    tridendriform_bimodule,
)

YBE_KINDS = ("aybe", "aybe-op", "cybe", "pybe")


def _op_for(p: StructurePresentation, which: str) -> BilinearOp:
    if which not in p.ops:
        raise ValueError(f"structure of kind {p.kind!r} has no {which!r} operation")
    return p.ops[which]


def _check_tensor_space(r: TensorElement, p: StructurePresentation):
    if r.left != p.space or r.right != p.space:
        raise ValueError("tensor does not live on the structure's space")


# Each residual is a sum of terms.  A term takes every entry of t (r, or b
# for invariance), puts its slot `row` into argument `pos` of the product
# and walks the product entries with that argument.  It joins their other
# argument with the entries of t on slot `side`, or with None keeps it
# free.  With a the other slot of the first entry of t, b the joined
# entry's other slot (or the free argument) and k the product's output, it
# adds sign * (product of the coefficients) at the cell that `place` picks
# from (a, b, k).  Rows: (row, pos, side, place, sign).
_AYBE = ((0, 0, 0, (2, 0, 1), 1), (1, 0, 1, (0, 1, 2), 1), (0, 0, 1, (1, 2, 0), -1))
_AYBE_OP = ((0, 0, 0, (2, 1, 0), 1), (1, 0, 1, (1, 0, 2), 1), (1, 0, 0, (0, 2, 1), -1))
_CYBE = ((0, 0, 0, (2, 0, 1), 1), (1, 0, 0, (0, 2, 1), 1), (1, 0, 1, (0, 1, 2), 1))
# invariance cells are (x, i, j), x the free argument
_INV_ASSOC = ((1, 1, None, (1, 0, 2), 1), (0, 0, None, (1, 2, 0), -1))
_INV_LIE = ((0, 1, None, (1, 2, 0), 1), (1, 1, None, (1, 0, 2), 1))
_YBE_PARTS = {"aybe": (("circ", _AYBE),), "aybe-op": (("circ", _AYBE_OP),),
              "cybe": (("bracket", _CYBE),),
              "pybe": (("circ", _AYBE), ("bracket", _CYBE))}
_INVARIANCE_PARTS = {"associative": ("circ", _INV_ASSOC), "lie": ("bracket", _INV_LIE)}


def _join(t_int, product, terms):
    rows = ({}, {})
    for (i, j, k), c in product.items():
        rows[0].setdefault(i, []).append((j, k, c))
        rows[1].setdefault(j, []).append((i, k, c))
    slots = ({}, {})
    for (u, v), c in t_int.items():
        slots[0].setdefault(u, []).append((v, c))
        slots[1].setdefault(v, []).append((u, c))
    acc = {}
    for row, pos, side, place, sign in terms:
        place = itemgetter(*place)
        for key, c1 in t_int.items():
            a = key[1 - row]
            for arg, k, c in rows[pos].get(key[row], ()):
                f = sign * c1 * c
                for b, c2 in ((arg, 1),) if side is None else slots[side].get(arg, ()):
                    at = place((a, b, k))
                    acc[at] = acc.get(at, 0) + f * c2
    return acc


def _int_layers(layers):
    """(L, each layer's entries times L, as ints), L the lcm of all their
    denominators."""
    scale = math.lcm(*{c.denominator for entries in layers for c in entries.values()})
    return scale, [{key: c.numerator * (scale // c.denominator) for key, c in entries.items()}
                   for entries in layers]


def _merge(layers, order):
    """Cells given per h-order as one mapping: jets of that order, or the one
    rational layer itself for order None."""
    if order is None:
        return layers[0]
    return {key: Jet.from_layers([cells.get(key, 0) for cells in layers], order)
            for key in set().union(*layers)}


def _joined(terms, t: TensorElement, p: StructurePresentation, role, degree):
    """Nonzero cells of a residual of degree `degree` in t and linear in p's
    role.  t (rational) and each h-layer of the operation are scaled to
    integers by the lcm of their denominators and joined; only nonzero cells
    are divided back.  A jet-valued p gives jet cells of its order."""
    _op_for(p, role)
    layers, order = _layers_of(p)
    scale_t, (t_int,) = _int_layers((t.entries,))
    scale_m, products = _int_layers(layers[role])
    denominator = scale_t ** degree * scale_m
    return _merge([{key: Fraction(c, denominator)
                    for key, c in _join(t_int, product, terms).items() if c}
                   for product in products], order)


def ybe_residual(kind: str, r: TensorElement, p: StructurePresentation):
    """Residual tensor(s) of the named Yang-Baxter equation.

    "aybe" is r12 r13 + r13 r23 - r23 r12 and "aybe-op" its opposite-order
    version, contracted with the associative product; "cybe" is
    [r12, r13] + [r12, r23] + [r13, r23] with the bracket; "pybe" returns the
    (aybe, cybe) pair for a Poisson ambient.
    """
    if kind not in YBE_KINDS:
        raise ValueError(f"unknown Yang-Baxter kind {kind!r}")
    _check_tensor_space(r, p)
    if kind == "pybe" and p.kind != "poisson":
        raise ValueError("the Poisson equation needs a Poisson ambient")
    s = r.left
    parts = tuple(Tensor3((s, s, s), _joined(terms, r, p, role, 2))
                  for role, terms in _YBE_PARTS[kind])
    return parts if kind == "pybe" else parts[0]


def invariance_residual(kind: str, b: TensorElement, p: StructurePresentation):
    """One residual tensor per basis vector x.

    kind "associative": (id (x) L(x) - R(x) (x) id) b, which vanishes for
    invariant tensors; kind "lie": (ad(x) (x) id + id (x) ad(x)) b.
    """
    _check_tensor_space(b, p)
    if kind not in _INVARIANCE_PARTS:
        raise ValueError(f"unknown invariance kind {kind!r}")
    role, terms = _INVARIANCE_PARTS[kind]
    per_x = [{} for _ in range(p.space.dim)]
    for (x, i, j), c in _joined(terms, b, p, role, 1).items():
        per_x[x][(i, j)] = c
    return tuple(TensorElement._of(p.space, p.space, cells) for cells in per_x)


def _all_invariant(kind, b, p) -> bool:
    return all(t.is_zero() for t in invariance_residual(kind, b, p))


# ---------------------------------------------------------------------------
# dual products induced by an invariant symmetric part

def aw1_induce(r: TensorElement, p: StructurePresentation):
    """Dual module structure induced by the symmetric part beta of r, plus
    the equivalence between the Yang-Baxter residual of r and the operator
    property of sharp(r).

    Associative ambients produce a dual bimodule algebra whose product is
    a* . b* = 2 R*(sharp(beta) a*) b*; Poisson ambients add the bracket
    [a*, b*] = -2 ad*(sharp(beta) a*) b*.  The returned report records both
    sides; disagreement between them raises ConsistencyError.
    """
    _check_tensor_space(r, p)
    beta = r.sym()
    dual = p.space.dual()
    sharp_beta = sharp(beta)

    family = "poisson" if p.kind == "poisson" else "associative"
    if family == "associative" and p.kind not in ("associative", "commutative-associative"):
        raise ValueError("dual induction needs an associative or Poisson ambient")

    if not _all_invariant("associative", beta, p):
        raise ValueError("the symmetric part of r is not invariant for the product")
    if family == "poisson" and not _all_invariant("lie", beta, p):
        raise ValueError("the symmetric part of r is not invariant for the bracket")

    # R*(x) = -transpose(R(x)) for the right multiplication R of circ, and
    # the dual action of the bracket is ad*(x) = -transpose(ad(x)); the
    # induced product is 2 R*(sharp(beta) a*) b* and the bracket
    # -2 ad*(sharp(beta) a*) b*
    base_module = dualize_module(regular_module(p))
    ident = LinearMap.identity(dual)
    right = oriented(p.op("circ"), "right")
    r_star = BilinearOp(right.left, dual, dual,
                        {(i, k, c): -v for (i, c, k), v in right.entries.items()})
    carrier_ops = {"dot": pullback(r_star, sharp_beta, ident).scale(2)}
    if family == "poisson":
        carrier_ops = {"bracket": pullback(base_module.actions["bracket_act"], sharp_beta,
                                           ident).scale(-2), **carrier_ops}
    if family == "associative":
        residual = ybe_residual("aybe", r, p)
        residual_zero = residual.is_zero()
        res_failures = [
            AxiomFailure("AybeResidual", key, {0: val})
            for key, val in residual.sorted_entries()[:4]
        ]
    else:
        res_a, res_c = ybe_residual("pybe", r, p)
        residual_zero = res_a.is_zero() and res_c.is_zero()
        res_failures = [
            AxiomFailure("AybeResidual", key, {0: val})
            for key, val in res_a.sorted_entries()[:4]
        ] + [
            AxiomFailure("CybeResidual", key, {0: val})
            for key, val in res_c.sorted_entries()[:4]
        ]

    module = ModuleData(p, dual, carrier_ops, base_module.actions)
    spec = OOperatorSpec(sharp(r), Fraction(1), module)
    op_report = check_o_operator(spec, "sharp(r) on the induced dual module")

    if residual_zero != op_report.passed:
        raise ConsistencyError(
            "Yang-Baxter residual and dual operator check disagree: "
            f"residual zero = {residual_zero}, operator passed = {op_report.passed}"
        )

    failures = tuple(res_failures) + op_report.failures
    report = AxiomReport(
        residual_zero and op_report.passed,
        failures,
        ("AybeResidual", "DualOOperator", "Biconditional") if family == "associative"
        else ("AybeResidual", "CybeResidual", "DualOOperator", "Biconditional"),
        "dual induction equivalence",
    )
    return module, report


# ---------------------------------------------------------------------------
# the four averaging-style operators and the solution bundles

def alpha_block_maps(space: Space):
    """Four endomorphisms of the doubled space, by blocks:
    (x,y) -> (-x+y, 0), -(y,y), -(x,x), (0, x-y)."""
    hat = direct_sum(space, space)
    n = space.dim
    one = Fraction(1)

    def build(blocks):
        mat = [[0] * (2 * n) for _ in range(2 * n)]
        for (bi, bj), sign in blocks.items():
            for d in range(n):
                mat[bi * n + d][bj * n + d] = sign * one
        return LinearMap(hat, hat, mat)

    a1 = build({(0, 0): -1, (0, 1): 1})
    a2 = build({(0, 1): -1, (1, 1): -1})
    a3 = build({(0, 0): -1, (1, 0): -1})
    a4 = build({(1, 0): 1, (1, 1): -1})
    return hat, (a1, a2, a3, a4)


def alpha_operators(p: StructurePresentation):
    """The four block maps, each verified as a weight-one Rota-Baxter
    operator on the doubled associative algebra built from p, and on the
    doubled Lie algebra as well when p has a Poisson-compatible refinement.

    Raises ConsistencyError if any verification fails; returns the maps
    together with the doubled associative algebra they act on.
    """
    if p.kind in ("post-poisson", "pre-poisson"):
        pp = as_post_poisson(p)
        succ = pp.op("succ")
        trid = StructurePresentation(
            pp.space,
            {"succ": succ, "prec": succ.arg_swap(), "dot": pp.op("dot")},
            "tridendriform",
        )
        lie_hat = semidirect(post_lie_module(pp))
    else:
        trid = as_tridendriform(p)
        lie_hat = None
    hat = semidirect(tridendriform_bimodule(trid))
    expected, maps = alpha_block_maps(trid.space)
    if expected != hat.space:
        raise ConsistencyError("doubled space does not match the semidirect space")
    one = Fraction(1)
    for i, alpha in enumerate(maps, start=1):
        spots = [("doubled algebra", hat)]
        if lie_hat is not None:
            spots.append(("doubled Lie algebra", lie_hat))
        for where, total in spots:
            rep = check_o_operator(
                OOperatorSpec(alpha, one, regular_bimodule(total)),
                subject=f"alpha{i} on the {where}")
            if not rep.passed:
                raise ConsistencyError(
                    f"alpha{i} fails the weight-one identity on the {where}:\n"
                    + rep.summary())
    return hat, maps


@dataclass(frozen=True)
class SolutionBundle:
    source: str
    ambient: StructurePresentation
    tensors: Mapping[str, TensorElement]
    hat: StructurePresentation | None = None
    module: ModuleData | None = None


def _verify_solution(name, r, ambient, poisson: bool):
    if poisson:
        res_a, res_c = ybe_residual("pybe", r, ambient)
        if not (res_a.is_zero() and res_c.is_zero()):
            raise ConsistencyError(
                f"constructed tensor {name!r} fails its Yang-Baxter equation")
    else:
        if not ybe_residual("aybe", r, ambient).is_zero():
            raise ConsistencyError(
                f"constructed tensor {name!r} fails its Yang-Baxter equation")


def skew_graph_tensor(spec: OOperatorSpec):
    """Ambient semidirect-with-dual algebra and the skew graph tensor of T.

    No verification happens here; construct_solutions wraps this and insists
    on the operator property first.
    """
    m = spec.context
    if not m.is_plain():
        raise ValueError("the graph construction needs a plain module")
    dualm = dualize_module(m)
    ambient = semidirect(dualm)
    t = eta_embed(unsharp(spec.operator), ambient.space)
    return ambient, t.sub(t.twist())


def construct_solutions(source: str, data) -> SolutionBundle:
    """Build verified Yang-Baxter solutions from a splitting structure or an
    operator.

    "tri-aybe": eight tensors eta(alpha~) - twist +/- eta(id~) in the
    semidirect-with-dual extension of the doubled tridendriform algebra.
    "post-pybe": the same tensors over the doubled post-Poisson algebra,
    verified against both Poisson residuals.  "skew-from-operator": the skew
    graph tensor of a weightless operator on a plain module.
    """
    if source == "tri-aybe":
        q = as_tridendriform(data)
        hat, alphas = alpha_operators(q)
        poisson = False
    elif source == "post-pybe":
        q = as_post_poisson(data)
        _, alphas = alpha_operators(q)
        hat = semidirect(post_poisson_module(q))
        poisson = True
    elif source == "skew-from-operator":
        spec = data
        report = check_o_operator(spec)
        if not report.passed:
            raise ValueError(
                "input is not an operator; its graph tensor would not solve:\n"
                + report.summary())
        ambient, rt = skew_graph_tensor(spec)
        poisson = spec.context.kind == "poisson"
        _verify_solution("skew-graph", rt, ambient, poisson)
        return SolutionBundle("skew-from-operator", ambient, {"skew-graph": rt})
    else:
        raise ValueError(f"unknown solution source {source!r}")

    dualm = dualize_module(regular_module(hat))
    ambient = semidirect(dualm)
    t_id = eta_embed(unsharp(LinearMap.identity(hat.space)), ambient.space)
    tensors = {}
    for i, alpha in enumerate(alphas, start=1):
        t = eta_embed(unsharp(alpha), ambient.space)
        skew = t.sub(t.twist())
        tensors[f"alpha{i}-plus"] = skew.add(t_id)
        tensors[f"alpha{i}-minus"] = skew.sub(t_id.twist())
    for name, r in tensors.items():
        _verify_solution(name, r, ambient, poisson)
    return SolutionBundle(source, ambient, tensors, hat=hat, module=dualm)


# ---------------------------------------------------------------------------
# transfer along deformations

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


def deformation_transfer(r: TensorElement, j: DeformationJet,
                         invariance_only: bool = False) -> AxiomReport:
    """Push a Yang-Baxter solution through the quasiclassical limit.

    Hypotheses: r solves the associative equation with jet coefficients
    (skipped in invariance-only mode) and r + twist(r) is invariant for the
    jet product.  Conclusions, only evaluated when the hypotheses hold: the
    limit Poisson structure satisfies both residuals for r (or, in
    invariance-only mode, bracket invariance of r + twist(r)).
    """
    from .deform import qcl

    if j.kind not in ("associative", "commutative-associative"):
        raise ValueError("transfer expects an associative ambient jet")
    # both hypotheses are linear in the product and r is rational, so their
    # h^s part is the rational residual on layer s alone
    layers = [j.layer(s) for s in range(j.order + 1)]
    _check_tensor_space(r, layers[0])
    space = j.space
    beta = r.add(r.twist())

    failures = []
    checked = []
    if not invariance_only:
        checked.append("hypothesis:jet-aybe")
        res = _merge([ybe_residual("aybe", r, layer).entries for layer in layers], j.order)
        failures.extend(_tensor3_failures("hypothesis:jet-aybe", Tensor3((space,) * 3, res)))
    checked.append("hypothesis:jet-invariance")
    per_layer = [invariance_residual("associative", beta, layer) for layer in layers]
    inv = [TensorElement._of(space, space, _merge([ts[x].entries for ts in per_layer], j.order))
           for x in range(space.dim)]
    failures.extend(_invariance_failures("hypothesis:jet-invariance", inv))

    if not failures:
        limit = qcl(j)
        if invariance_only:
            checked.append("conclusion:qcl-bracket-invariance")
            failures.extend(_invariance_failures("conclusion:qcl-bracket-invariance",
                                                 invariance_residual("lie", beta, limit)))
        else:
            res_a, res_c = ybe_residual("pybe", r, limit)
            checked.append("conclusion:qcl-aybe")
            failures.extend(_tensor3_failures("conclusion:qcl-aybe", res_a))
            checked.append("conclusion:qcl-cybe")
            failures.extend(_tensor3_failures("conclusion:qcl-cybe", res_c))
            checked.append("conclusion:qcl-invariance")
            inv_a = invariance_residual("associative", beta, limit)
            inv_l = invariance_residual("lie", beta, limit)
            failures.extend(_invariance_failures("conclusion:qcl-invariance", inv_a + inv_l))

    return AxiomReport(not failures, tuple(failures), tuple(checked),
                       "transfer through the quasiclassical limit")


def dualize_deformation(mj: ModuleDeformationJet) -> ModuleDeformationJet:
    """Layerwise dual of a plain bimodule jet: actions transpose and swap."""
    if any(not op.is_zero() for op in mj.carrier_layers["dot"]):
        raise ValueError("dualize_deformation needs trivial carrier operations")
    return ModuleDeformationJet.of_layers(
        [dualize_module(mj.layer(s)) for s in range(mj.order + 1)])


def dual_semidirect_jet(j: DeformationJet) -> DeformationJet:
    """Deformed semidirect-with-dual ambient of an associative jet."""
    from .deform import regular_bimodule_jet

    plain = regular_bimodule_jet(j, plain=True)
    return dualize_deformation(plain).semidirect_jet()
