"""The dual induction over a deformed product, layer by layer, against the
merged-jet path it replaced.

aw1_induce_jet evaluates every step on the rational layers of the
deformation.  The reference below merges the layers into one jet-valued
presentation (jet_oracle) and runs each step in jet arithmetic through the
oracles in this directory: the dense invariance and AYBE residuals
(ybe_oracle), the induced product written from its definition, the
branch-per-kind dual module and semidirect product (module_oracle), the
per-family operator loop (test_operators) and the dense identity checker
(test_identity_engine).  A derandomized property test requires the same
report, module, module check, left-square difference and raised errors on
the tri-aybe and skew graph tensors of the pro-w1 route at D=2, N=1..3,
with and without one skew or single-cell perturbation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import module_oracle
import ybe_oracle
from jetalg import (
    BilinearOp,
    ConsistencyError,
    DeformationJet,
    LinearMap,
    ModuleData,
    OOperatorSpec,
    StructurePresentation,
    TensorElement,
    as_bimodule_layout,
    aw1_induce,
    aw1_induce_jet,
    construct_solutions,
    dual_semidirect_jet,
    dualize_deformation,
    gen_integration_zinbiel,
    gen_truncated_poly_example,
    sharp,
    tridendriform_bimodule_jet,
)
from jetalg.diagrams import _first_difference
from jetalg.structures import check_layers
from jet_oracle import jet_module, jet_presentation, order0_module
from test_identity_engine import SCALARS, dense_check_structure, failure_rows
from test_operators import loop_check_o_operator

MODULE_SUBJECT = "module over associative base"
OPERATOR_SUBJECT = "sharp(r) on the induced dual module"


def merged_dual_module(p: StructurePresentation, beta: TensorElement) -> ModuleData:
    """The dual module induced over a jet-valued associative p: the dual of
    the regular module, with a* . b* = 2 R*(sharp(beta) a*) b*, whose
    b*-coefficient at e_k* reads -2 sum_i beta[i][a] circ(e_k, e_i)_b."""
    dual = p.space.dual()
    regular = module_oracle.dualize_module(module_oracle.regular_module(p))
    dot = {}
    for (k, i, b), c in p.op("circ").entries.items():
        for (i2, a), v in beta.entries.items():
            if i2 == i:
                dot[(a, b, k)] = dot.get((a, b, k), 0) - 2 * v * c
    dot = BilinearOp(dual, dual, dual, {key: c for key, c in dot.items() if c != 0})
    return as_bimodule_layout(ModuleData(
        p, dual, {"dot": dot}, module_oracle.from_old(regular).actions))


def merged_aw1_induce(r: TensorElement, j):
    p = jet_presentation(j)
    if r.left != p.space or r.right != p.space:
        raise ValueError("tensor does not live on the structure's space")
    if j.kind not in ("associative", "commutative-associative"):
        raise ValueError("dual induction expects an associative ambient jet")
    beta = r.sym()
    invariance = ybe_oracle.invariance_residual("associative", ybe_oracle.to_dense(beta), p)
    if not all(t.is_zero() for t in invariance):
        raise ValueError("the symmetric part of r is not invariant for the product")
    module = merged_dual_module(p, beta)
    residual = ybe_oracle.ybe_residual("aybe", ybe_oracle.to_dense(r), p)
    op_report = loop_check_o_operator(OOperatorSpec(sharp(r), Fraction(1), module),
                                      OPERATOR_SUBJECT)
    if residual.is_zero() != op_report.passed:
        raise ConsistencyError(
            "Yang-Baxter residual and dual operator check disagree: "
            f"residual zero = {residual.is_zero()}, operator passed = {op_report.passed}")
    failures = [(("AybeResidual", key, [(0, repr(val))], None))
                for key, val in residual.sorted_entries()[:4]]
    report = (residual.is_zero() and op_report.passed,
              ("AybeResidual", "DualOOperator", "Biconditional"),
              "dual induction equivalence",
              failures + failure_rows(op_report.failures))
    return module, report


def report_rows(report):
    return (report.passed, report.checked, report.subject, failure_rows(report.failures))


# the dense module check is the slow step, and a skew perturbation leaves
# the module alone: one check per (deformation, beta)
_DENSE_MODULE_CHECKS = {}


def dense_module_check(j, module, beta):
    key = (id(j), tuple(sorted(beta.entries.items())))
    if key not in _DENSE_MODULE_CHECKS:
        total = module_oracle.semidirect(module_oracle.to_old(module))
        _DENSE_MODULE_CHECKS[key] = report_rows(dense_check_structure(total, MODULE_SUBJECT))
    return _DENSE_MODULE_CHECKS[key]


def library_rows(r, j):
    try:
        mj, report = aw1_induce_jet(r, j)
    except (ValueError, ConsistencyError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    circ = tuple(op.entries for op in mj.semidirect_jet().layers["circ"])
    module_check = check_layers("associative", {"circ": circ}, mj.order, MODULE_SUBJECT)
    square = _first_difference(mj.layer0(), aw1_induce(r, j.layer0())[0])
    return (report_rows(report), jet_module(mj), report_rows(module_check), square)


def reference_rows(r, j):
    try:
        module, report = merged_aw1_induce(r, j)
    except (ValueError, ConsistencyError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    square = _first_difference(order0_module(module), aw1_induce(r, j.layer0())[0])
    return (report, module, dense_module_check(j, module, r.sym()), square)


def _instances():
    """(deformed ambient, tensor) pairs of the pro-w1 route at D=2: the
    eight tri-aybe tensors in the doubled dual ambient of the poly example,
    and the skew graph tensor of the identity on the integration example."""
    out = []
    for order in (1, 2, 3):
        ex = gen_truncated_poly_example(2, 3, 2, order)
        ehat = dual_semidirect_jet(tridendriform_bimodule_jet(ex.jet).semidirect_jet())
        bundle = construct_solutions("tri-aybe", ex.jet.layer0())
        out += [(ehat, r) for _, r in sorted(bundle.tensors.items())]
        zx = gen_integration_zinbiel(2, order)
        zmj = tridendriform_bimodule_jet(zx.jet)
        spec = OOperatorSpec(LinearMap.identity(zx.space), Fraction(0), zmj.layer0())
        skew = construct_solutions("skew-from-operator", spec).tensors["skew-graph"]
        out.append((dualize_deformation(zmj).semidirect_jet(), skew))
    return out


INSTANCES = _instances()


@st.composite
def induction_cases(draw):
    """An instance as it is, or with r moved by c (E_ij - E_ji), which keeps
    beta, or by c E_ij at one cell, which moves beta."""
    order = draw(st.sampled_from((1, 2, 3)))
    j, r = draw(st.sampled_from([case for case in INSTANCES if case[0].order == order]))
    how = draw(st.sampled_from(("none", "skew", "cell")))
    if how != "none":
        n = j.space.dim
        i, k = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        c = draw(SCALARS)
        cells = [(i, k, c)] + ([(k, i, -c)] if how == "skew" else [])
        r = r.add(TensorElement.from_entries(r.left, r.right, cells))
    return r, j


def test_every_instance_passes_unperturbed():
    for j, r in INSTANCES:
        assert library_rows(r, j)[0][0] is True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(induction_cases())
def test_layered_dual_induction_agrees_with_the_merged_jet_path(case):
    r, j = case
    assert library_rows(r, j) == reference_rows(r, j)


def test_an_order_zero_jet_induces_the_undeformed_module():
    j, r = INSTANCES[0]
    j0 = DeformationJet(j.kind, 0, {"circ": j.layers["circ"][:1]})
    mj, report = aw1_induce_jet(r, j0)
    module, want = aw1_induce(r, j.layer0())
    assert mj.order == 0 and mj.layer0() == module
    assert report.passed and want.passed


def test_a_non_associative_jet_is_rejected():
    zx = gen_integration_zinbiel(2, 1)
    r = TensorElement.zero(zx.space, zx.space)
    with pytest.raises(ValueError, match="dual induction expects an associative ambient jet"):
        aw1_induce_jet(r, zx.jet)
