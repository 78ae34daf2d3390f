"""Yang-Baxter residuals, solution constructors, and deformation transfer.

Residuals are computed in coordinates as rank-3 tensors; a candidate solves
the equation exactly when its residual has no nonzero entry.  Solution
constructors always rebuild their ambient algebras through the semidirect
and dualization code paths and re-verify every tensor they emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .scalars import Jet, scalar_is_zero
from .structures import (
    AxiomFailure,
    AxiomReport,
    ModuleData,
    StructurePresentation,
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


def _assoc_residual(r: TensorElement, mul: BilinearOp, opposite: bool) -> Tensor3:
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


def _lie_residual(r: TensorElement, br: BilinearOp) -> Tensor3:
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


def ybe_residual(kind: str, r: TensorElement, p: StructurePresentation):
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


def invariance_residual(kind: str, b: TensorElement, p: StructurePresentation):
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
            out.append(TensorElement.from_entries(p.space, p.space, items))
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
            out.append(TensorElement.from_entries(p.space, p.space, items))
        return tuple(out)
    raise ValueError(f"unknown invariance kind {kind!r}")


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
