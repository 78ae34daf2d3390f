"""Operator identities, their deformations and induced splittings.

The second half holds the reference implementations the contraction
replaced: one loop per base family over every carrier pair, run on
rational or jet-valued module data, and the merged-jet path for deformed
modules and their splittings.  Derandomized property tests require the same
reports: verdict, checked ids, subject, and failures in order with indices,
residuals (scalar types included) and orders.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetalg import (
    AxiomFailure,
    AxiomReport,
    BilinearOp,
    ConsistencyError,
    DeformationJet,
    Jet,
    LinearMap,
    ModuleDeformationJet,
    OOperatorSpec,
    check_o_operator,
    check_scalar_deformation,
    derive_deformation,
    gen_truncated_poly_example,
    induce_splitting,
    induce_splitting_jet,
    post_poisson_module,
    qcl,
    regular_bimodule,
    regular_bimodule_jet,
    regular_module,
    semidirect,
    transfer_qcl_operator,
    tridendriform_bimodule,
    tridendriform_bimodule_jet,
)
from jetalg.linalg import vec_clean
from vectors import vec_iadd, vec_is_zero, vec_sub, vec_unit
from jetalg.structures import (
    StructurePresentation,
    _residual_order,
    as_bimodule_layout,
    post_lie_module,
)
from jetalg.yangbaxter import alpha_block_maps
from module_oracle import DenseMap, to_old
from test_identity_engine import SCALARS, assert_same_failures, module_jets
from jet_oracle import jet_module

ONE = Fraction(1)


def comm_base(poly):
    return StructurePresentation(
        poly.space, {"circ": poly.presentation.op("dot")},
        "commutative-associative")


def diagonal_spec(poly):
    return OOperatorSpec(poly.operator, ONE, regular_bimodule(comm_base(poly)))


def test_diagonal_operator_is_weight_one(poly3):
    rep = check_o_operator(diagonal_spec(poly3))
    assert rep.passed
    assert rep.checked == ("OCirc",)


def test_identity_is_weight_one_for_the_splitting_bimodule(poly3):
    m = tridendriform_bimodule(poly3.presentation)
    spec = OOperatorSpec(LinearMap.identity(poly3.space), ONE, m)
    assert check_o_operator(spec).passed


def test_wrong_weight_fails():
    from jetalg import truncated_polynomial_algebra

    p = truncated_polynomial_algebra(3)
    base = StructurePresentation(p.space, p.ops, "commutative-associative")
    spec = OOperatorSpec(LinearMap.identity(p.space), ONE, regular_bimodule(base))
    rep = check_o_operator(spec)
    # id against the regular bimodule counts every product three times
    assert not rep.passed
    assert rep.failures[0].axiom == "OCirc"


def test_operator_dimension_mismatch_rejected(poly3, poly2):
    with pytest.raises(ValueError):
        OOperatorSpec(poly2.operator, ONE, regular_bimodule(comm_base(poly3)))


def test_induced_splitting_reproduces_the_example(poly3):
    assert induce_splitting(diagonal_spec(poly3)) == poly3.presentation


def test_identity_on_zinbiel_gives_the_dendriform_pair(zin2):
    from jetalg import BilinearOp

    succ, prec = zin2.dendriform.op("succ"), zin2.dendriform.op("prec")
    half = tridendriform_bimodule(
        StructurePresentation(zin2.space, {
            "succ": succ,
            "prec": prec,
            "dot": BilinearOp.zero(zin2.space, zin2.space, zin2.space),
        }, "tridendriform"))
    spec = OOperatorSpec(LinearMap.identity(zin2.space), Fraction(0), half)
    assert check_o_operator(spec).passed
    assert induce_splitting(spec) == zin2.dendriform


def test_scalar_deformation_orderwise(poly3):
    base_jet = derive_deformation(comm_base(poly3), poly3.derivations, 3)
    rep = check_scalar_deformation(diagonal_spec(poly3),
                                   regular_bimodule_jet(base_jet))
    assert rep.passed


def test_scalar_deformation_context_must_match(poly3):
    mj = tridendriform_bimodule_jet(poly3.jet)
    with pytest.raises(ValueError):
        check_scalar_deformation(diagonal_spec(poly3), mj)


def test_identity_scalar_deformation(poly3):
    mj = tridendriform_bimodule_jet(poly3.jet)
    spec = OOperatorSpec(LinearMap.identity(poly3.space), ONE, mj.layer0())
    assert check_scalar_deformation(spec, mj).passed


def test_operator_survives_the_poisson_limit(poly3):
    base_jet = derive_deformation(comm_base(poly3), poly3.derivations, 3)
    limit = qcl(base_jet)
    spec = OOperatorSpec(poly3.operator, ONE, regular_bimodule(limit))
    assert check_o_operator(spec).passed
    split = induce_splitting(spec)
    assert split.kind == "post-poisson"


def test_identity_on_the_post_poisson_limit(poly3):
    pp = qcl(poly3.jet)
    spec = OOperatorSpec(LinearMap.identity(poly3.space), ONE,
                         post_poisson_module(pp))
    assert check_o_operator(spec).passed


def test_transfer_requires_the_jet_to_pass(poly3):
    base_jet = derive_deformation(comm_base(poly3), poly3.derivations, 3)
    mj = regular_bimodule_jet(base_jet)
    spec = diagonal_spec(poly3)
    rep = transfer_qcl_operator(spec, mj)
    assert rep.passed

    shifted = [[c + (i == j) for j, c in enumerate(row)]
               for i, row in enumerate(poly3.operator.matrix)]
    broken = OOperatorSpec(
        LinearMap(poly3.space, poly3.space, shifted), ONE, spec.context)
    with pytest.raises(ValueError):
        transfer_qcl_operator(broken, mj)


def test_poisson_family_checks_both_identities(poly2):
    base_jet = derive_deformation(comm_base(poly2), poly2.derivations, 3)
    limit = qcl(base_jet)
    spec = OOperatorSpec(poly2.operator, ONE, regular_bimodule(limit))
    rep = check_o_operator(spec)
    assert rep.passed
    assert set(rep.checked) == {"OCirc", "OBracket"}


# ---------------------------------------------------------------------------
# reference: one loop per family, and the merged-jet path

def _act(table, xvec, w):
    """Apply the action of a sparse base vector to a carrier vector."""
    acc = {}
    for p, c in xvec.items():
        vec_iadd(acc, table[p].apply(w), c)
    return vec_clean(acc)


def _o_operator_failures(spec: OOperatorSpec):
    m = to_old(spec.context)
    T = DenseMap.of(spec.operator)
    lam = spec.weight
    nv = m.carrier.dim
    failures = []

    def record(axiom, a, b, residual):
        if not vec_is_zero(residual):
            failures.append(AxiomFailure(axiom, (a, b), residual, _residual_order(residual)))

    kind = m.kind
    if kind in ("associative", "commutative-associative"):
        circ = m.base.op("circ")
        dot = m.carrier_ops["dot"]
        if kind == "associative":
            left, right = m.actions["left"], m.actions["right"]
        else:
            left = right = m.actions["act"]
        for a in range(nv):
            tu = T.column(a)
            for b in range(nv):
                tv = T.column(b)
                u, v = vec_unit(a), vec_unit(b)
                lhs = circ.apply(tu, tv)
                rhs = dict(T.apply(_act(left, tu, v)))
                vec_iadd(rhs, T.apply(_act(right, tv, u)))
                if lam:
                    vec_iadd(rhs, T.apply(dot.apply(u, v)), lam)
                record("OCirc", a, b, vec_sub(lhs, rhs))
        checked = ("OCirc",)
    elif kind == "lie":
        br = m.base.op("bracket")
        cbr = m.carrier_ops["bracket"]
        table = m.actions["bracket_act"]
        for a in range(nv):
            tu = T.column(a)
            for b in range(nv):
                tv = T.column(b)
                u, v = vec_unit(a), vec_unit(b)
                lhs = br.apply(tu, tv)
                rhs = dict(T.apply(_act(table, tu, v)))
                vec_iadd(rhs, T.apply(_act(table, tv, u)), -1)
                if lam:
                    vec_iadd(rhs, T.apply(cbr.apply(u, v)), lam)
                record("OBracket", a, b, vec_sub(lhs, rhs))
        checked = ("OBracket",)
    elif kind == "poisson":
        br, circ = m.base.op("bracket"), m.base.op("circ")
        cbr, cdot = m.carrier_ops["bracket"], m.carrier_ops["dot"]
        tb, tc = m.actions["bracket_act"], m.actions["circ_act"]
        for a in range(nv):
            tu = T.column(a)
            for b in range(nv):
                tv = T.column(b)
                u, v = vec_unit(a), vec_unit(b)
                lhs = br.apply(tu, tv)
                rhs = dict(T.apply(_act(tb, tu, v)))
                vec_iadd(rhs, T.apply(_act(tb, tv, u)), -1)
                if lam:
                    vec_iadd(rhs, T.apply(cbr.apply(u, v)), lam)
                record("OBracket", a, b, vec_sub(lhs, rhs))
                lhs = circ.apply(tu, tv)
                rhs = dict(T.apply(_act(tc, tu, v)))
                vec_iadd(rhs, T.apply(_act(tc, tv, u)))
                if lam:
                    vec_iadd(rhs, T.apply(cdot.apply(u, v)), lam)
                record("OCirc", a, b, vec_sub(lhs, rhs))
        checked = ("OBracket", "OCirc")
    else:  # pragma: no cover
        raise ValueError(f"no operator identity for base kind {kind!r}")
    return failures, checked


def loop_check_o_operator(spec: OOperatorSpec, subject: str = "") -> AxiomReport:
    failures, checked = _o_operator_failures(spec)
    return AxiomReport(not failures, tuple(failures), checked,
                       subject or f"weight-{spec.weight} operator over {spec.context.kind} base")


def merged_check_scalar_deformation(spec: OOperatorSpec, mj: ModuleDeformationJet,
                                    subject: str = "") -> AxiomReport:
    layer0 = as_bimodule_layout(spec.context)
    if mj.layer0() != layer0:
        raise ValueError("module jet does not deform the operator's context")
    jet_context = jet_module(mj)
    jet_spec = OOperatorSpec(spec.operator, spec.weight, jet_context)
    failures, checked = _o_operator_failures(jet_spec)
    return AxiomReport(not failures, tuple(failures), checked,
                       subject or f"operator with coefficients through order {mj.order}")


def _split_jet_op(op: BilinearOp, order: int) -> tuple[BilinearOp, ...]:
    layers = []
    for s in range(order + 1):
        entries = {}
        for key, c in op.entries.items():
            if not isinstance(c, Jet):
                raise ValueError("expected jet-valued structure constants")
            entries[key] = c.coeff(s)
        layers.append(BilinearOp(op.left, op.right, op.out, entries))
    return tuple(layers)


def deformation_from_presentation(p: StructurePresentation, order: int) -> DeformationJet:
    """Split a jet-valued presentation back into rational layers."""
    layers = {role: _split_jet_op(op, order) for role, op in p.ops.items()}
    return DeformationJet(p.kind, order, layers)


def merged_splitting_jet(spec: OOperatorSpec, mj: ModuleDeformationJet) -> DeformationJet:
    jet_spec = OOperatorSpec(spec.operator, spec.weight, jet_module(mj))
    return deformation_from_presentation(induce_splitting(jet_spec), mj.order)


# ---------------------------------------------------------------------------
# agreement

EX = gen_truncated_poly_example(2, 3, 2, 2)
IDENT = LinearMap.identity(EX.space)


def _operator_contexts():
    """(T, context) pairs on which T is a weight-one operator: every base
    family, the four block maps on doubled associative and Lie algebras,
    and one jet-valued module."""
    base_jet = derive_deformation(comm_base(EX), EX.derivations, 2)
    pp = qcl(EX.jet)
    out = [
        (EX.operator, regular_bimodule(comm_base(EX))),
        (IDENT, tridendriform_bimodule(EX.presentation)),
        (IDENT, post_lie_module(pp)),
        (IDENT, post_poisson_module(pp)),
        (EX.operator, regular_bimodule(qcl(base_jet))),
        (IDENT, jet_module(tridendriform_bimodule_jet(EX.jet))),
    ]
    _, alphas = alpha_block_maps(EX.space)
    for doubled in (semidirect(tridendriform_bimodule(EX.presentation)),
                    semidirect(post_lie_module(pp))):
        out += [(alpha, regular_bimodule(doubled)) for alpha in alphas]
    return out


OPERATOR_CONTEXTS = _operator_contexts()
WEIGHTS = st.sampled_from((Fraction(0), ONE)) | SCALARS


def _moved_cell(draw, T: LinearMap) -> LinearMap:
    rows = [list(row) for row in T.matrix]
    i = draw(st.integers(0, T.codomain.dim - 1))
    j = draw(st.integers(0, T.domain.dim - 1))
    rows[i][j] += draw(SCALARS)
    return LinearMap(T.domain, T.codomain, rows)


@st.composite
def operator_specs(draw):
    """A context with its operator, maybe one matrix cell moved, at weight
    0, 1 or a random rational."""
    T, context = draw(st.sampled_from(OPERATOR_CONTEXTS))
    if draw(st.booleans()):
        T = _moved_cell(draw, T)
    return OOperatorSpec(T, draw(WEIGHTS), context)


@st.composite
def deformed_specs(draw):
    """A derived module jet, maybe moved at one layer, with the identity or
    the diagonal operator, maybe moved at one cell, over its layer 0."""
    mj = draw(module_jets())
    T = draw(st.sampled_from((IDENT, EX.operator)))
    if draw(st.booleans()):
        T = _moved_cell(draw, T)
    return OOperatorSpec(T, draw(WEIGHTS), mj.layer0()), mj


def test_every_operator_context_passes_at_weight_one():
    for T, context in OPERATOR_CONTEXTS:
        spec = OOperatorSpec(T, ONE, context)
        assert check_o_operator(spec).passed
        assert loop_check_o_operator(spec).passed
    kinds = {context.kind for _, context in OPERATOR_CONTEXTS}
    assert kinds == {"associative", "commutative-associative", "lie", "poisson"}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(operator_specs())
def test_operator_checks_agree_with_the_family_loops(spec):
    assert_same_failures(check_o_operator(spec), loop_check_o_operator(spec))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(deformed_specs())
def test_layerwise_operator_deformation_agrees_with_the_merged_module(case):
    spec, mj = case
    assert_same_failures(check_scalar_deformation(spec, mj),
                         merged_check_scalar_deformation(spec, mj))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(deformed_specs())
def test_layerwise_splitting_agrees_with_the_merged_module_split_back(case):
    spec, mj = case
    assert induce_splitting_jet(spec, mj) == merged_splitting_jet(spec, mj)


def test_layerwise_splitting_decides_the_kind_from_every_layer():
    base_jet = derive_deformation(comm_base(EX), EX.derivations, 2)
    plain = regular_bimodule_jet(base_jet, plain=True)
    dots = list(plain.carrier_layers["dot"])
    dots[1] = base_jet.layers["circ"][1]
    mj = ModuleDeformationJet(plain.order, plain.base_layers, {"dot": dots},
                              plain.action_layers)
    spec = OOperatorSpec(EX.operator, ONE, mj.layer0())
    got = induce_splitting_jet(spec, mj)
    assert got.kind == "tridendriform"
    assert got.layers["dot"][0].is_zero() and not got.layers["dot"][1].is_zero()
    assert got == merged_splitting_jet(spec, mj)
