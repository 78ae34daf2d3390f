from fractions import Fraction

import pytest

from jetalg import (
    BilinearOp,
    ConsistencyError,
    LinearMap,
    OOperatorSpec,
    Space,
    StructurePresentation,
    TensorElement,
    aw1_induce,
    check_deformation,
    check_o_operator,
    construct_solutions,
    deformation_transfer,
    derive_deformation,
    dual_semidirect_jet,
    eta_embed,
    gen_product_shift,
    invariance_residual,
    qcl,
    sharp,
    tridendriform_bimodule_jet,
    unsharp,
    ybe_residual,
)


def idempotent_line():
    sp = Space.make(1, ("e",))
    circ = BilinearOp.from_entries(sp, sp, sp, [(0, 0, 0, Fraction(1))])
    return StructurePresentation(sp, {"circ": circ}, "commutative-associative")


@pytest.fixture(scope="module")
def tri_bundle():
    shift = gen_product_shift(idempotent_line(), 2)
    return construct_solutions("tri-aybe", shift)


@pytest.fixture(scope="module")
def pybe_bundle(poly2):
    return construct_solutions("post-pybe", qcl(poly2.jet))


# ---------------------------------------------------------------------------
# residual oracles

def test_dim1_idempotent_residual():
    p = StructurePresentation(
        idempotent_line().space, idempotent_line().ops, "associative")
    r = TensorElement.from_entries(p.space, p.space, [(0, 0, Fraction(1))])
    res = ybe_residual("aybe", r, p)
    # r13 r12 - r12 r23 + r23 r13 contracts to a single cubic term
    assert res.sorted_entries() == [((0, 0, 0), Fraction(1))]


def test_zero_tensor_solves_everything(poly2):
    limit = qcl(derive_deformation(
        StructurePresentation(poly2.space,
                              {"circ": poly2.presentation.op("dot")},
                              "commutative-associative"),
        poly2.derivations, 3))
    zero = TensorElement.zero(limit.space, limit.space)
    a, c = ybe_residual("pybe", zero, limit)
    assert a.is_zero() and c.is_zero()


def test_invariance_negative_on_a_square_nilpotent():
    sp = Space.make(2)
    circ = BilinearOp.from_entries(sp, sp, sp, [(0, 0, 1, Fraction(1))])
    p = StructurePresentation(sp, {"circ": circ}, "associative")
    b = TensorElement.from_entries(sp, sp, [(0, 0, Fraction(1))])
    res = invariance_residual("associative", b, p)
    assert sorted(res[0].nonzero()) == [(0, 1, Fraction(1)), (1, 0, Fraction(-1))]
    assert res[1].is_zero()


# ---------------------------------------------------------------------------
# solution bundles

def test_tri_aybe_bundle_shape(tri_bundle):
    assert tri_bundle.ambient.kind == "associative"
    assert tri_bundle.ambient.space.dim == 8
    assert sorted(tri_bundle.tensors) == [
        f"alpha{i}-{sign}" for i in (1, 2, 3, 4) for sign in ("minus", "plus")]


def test_bundle_tensors_solve_both_aybe_forms(tri_bundle):
    for r in tri_bundle.tensors.values():
        assert ybe_residual("aybe", r, tri_bundle.ambient).is_zero()
        assert ybe_residual("aybe-op", r, tri_bundle.ambient).is_zero()


def test_bundle_tensors_pair_the_two_blocks(tri_bundle):
    half = tri_bundle.ambient.space.dim // 2
    for r in tri_bundle.tensors.values():
        for i, j, _ in r.nonzero():
            assert (i < half) != (j < half)


def test_identity_symmetric_part_is_invariant(tri_bundle):
    hat_dim = tri_bundle.ambient.space.dim // 2
    hat = Space.make(hat_dim, tri_bundle.ambient.space.labels[:hat_dim])
    t_id = eta_embed(unsharp(LinearMap.identity(hat)), tri_bundle.ambient.space)
    res = invariance_residual("associative", t_id.sym(), tri_bundle.ambient)
    assert all(t.is_zero() for t in res)


def test_post_pybe_bundle(pybe_bundle):
    assert pybe_bundle.ambient.kind == "poisson"
    assert pybe_bundle.ambient.space.dim == 20
    for r in pybe_bundle.tensors.values():
        a, c = ybe_residual("pybe", r, pybe_bundle.ambient)
        assert a.is_zero() and c.is_zero()


# ---------------------------------------------------------------------------
# dual induction biconditional

def test_dual_induction_positive(tri_bundle):
    module, rep = aw1_induce(tri_bundle.tensors["alpha1-plus"],
                             tri_bundle.ambient)
    assert rep.passed
    assert rep.checked == ("AybeResidual", "DualOOperator", "Biconditional")
    assert module.carrier == tri_bundle.ambient.space.dual()


def test_dual_induction_negative_fails_both_sides(tri_bundle):
    amb = tri_bundle.ambient
    delta = TensorElement.from_entries(
        amb.space, amb.space, [(0, 5, Fraction(1)), (5, 0, Fraction(-1))])
    bad = tri_bundle.tensors["alpha1-plus"].add(delta)
    module, rep = aw1_induce(bad, amb)  # no ConsistencyError: sides agree
    assert not rep.passed
    assert "AybeResidual" in rep.failing_axioms()
    assert "OCirc" in rep.failing_axioms()
    # a residual of r is a rational cell, reported at order 0
    assert all(set(f.residual) == {0} for f in rep.failures if f.axiom == "AybeResidual")


def test_dual_induction_poisson(pybe_bundle):
    module, rep = aw1_induce(pybe_bundle.tensors["alpha2-plus"],
                             pybe_bundle.ambient)
    assert rep.passed
    assert "CybeResidual" in rep.checked


def test_dual_induction_poisson_negative_reports_both_residuals(pybe_bundle):
    amb = pybe_bundle.ambient
    delta = TensorElement.from_entries(
        amb.space, amb.space, [(0, 5, Fraction(1)), (5, 0, Fraction(-1))])
    module, rep = aw1_induce(pybe_bundle.tensors["alpha2-plus"].add(delta), amb)
    assert not rep.passed
    assert {"AybeResidual", "CybeResidual", "OCirc", "OBracket"} <= set(rep.failing_axioms())
    residuals = [f for f in rep.failures if f.axiom.endswith("Residual")]
    assert {f.axiom for f in residuals} == {"AybeResidual", "CybeResidual"}
    assert all(set(f.residual) == {0} for f in residuals)


def test_dual_induction_rejects_noninvariant_symmetric_part():
    sp = Space.make(2)
    circ = BilinearOp.from_entries(sp, sp, sp, [(0, 0, 1, Fraction(1))])
    p = StructurePresentation(sp, {"circ": circ}, "associative")
    b = TensorElement.from_entries(sp, sp, [(0, 0, Fraction(1))])
    with pytest.raises(ValueError, match="not invariant"):
        aw1_induce(b, p)


def test_dual_induction_uses_right_multiplications_under_a_commutative_label():
    # M_2 with E_ij E_kl = delta_jk E_il is not commutative; a deformation of
    # a commutative-associative target keeps that label on such products.
    # The induced product is 2 R*(sharp(beta) a*) b* whatever the label.
    sp = Space.make(4)
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    circ = BilinearOp.on(sp, [(a, b, cells.index((cells[a][0], cells[b][1])), Fraction(1))
                              for a in range(4) for b in range(4)
                              if cells[a][1] == cells[b][0]])
    assert circ != circ.arg_swap()
    casimir = TensorElement.from_entries(
        sp, sp, [(0, 0, Fraction(1)), (1, 2, Fraction(1)), (2, 1, Fraction(1)),
                 (3, 3, Fraction(1))])
    sb = sharp(casimir.sym())
    # R(e_i) x = x o e_i; a* . b* has -2 sb[i][a] <e_b*, e_j o e_i> on e_j*
    expected = BilinearOp.on(sp.dual(), [
        (a, b, j, -2 * sb.matrix[i][a] * v)
        for (j, i, b), v in circ.entries.items() for a in range(4)], combine=True)
    for kind in ("commutative-associative", "associative"):
        module, _ = aw1_induce(casimir, StructurePresentation(sp, {"circ": circ}, kind))
        assert module.carrier_ops["dot"] == expected


# ---------------------------------------------------------------------------
# skew graphs

def skew_spec(zin2):
    from jetalg import tridendriform_bimodule

    succ, prec = zin2.dendriform.op("succ"), zin2.dendriform.op("prec")
    m = tridendriform_bimodule(
        StructurePresentation(zin2.space, {
            "succ": succ, "prec": prec,
            "dot": BilinearOp.zero(zin2.space, zin2.space, zin2.space),
        }, "tridendriform"))
    return OOperatorSpec(LinearMap.identity(zin2.space), Fraction(0), m)


def test_skew_graph_three_way_agreement(zin2):
    bundle = construct_solutions("skew-from-operator", skew_spec(zin2))
    r = bundle.tensors["skew-graph"]
    assert r.twist() == r.neg()  # fully skew-symmetric
    assert ybe_residual("aybe", r, bundle.ambient).is_zero()
    module, rep = aw1_induce(r, bundle.ambient)
    assert rep.passed
    # beta = 0 so the induced dual product vanishes
    assert module.carrier_ops["dot"].is_zero()


def test_skew_graph_from_zero_operator(zin2):
    spec = skew_spec(zin2)
    zero_spec = OOperatorSpec(LinearMap.diagonal(zin2.space, [0] * zin2.space.dim),
                              Fraction(0), spec.context)
    bundle = construct_solutions("skew-from-operator", zero_spec)
    assert bundle.tensors["skew-graph"].is_zero()


def test_skew_source_gates_on_the_operator_check(zin2):
    # a projection onto the first monomial is not an operator for this module
    spec = skew_spec(zin2)
    values = [Fraction(1)] + [Fraction(0)] * (zin2.space.dim - 1)
    bad = OOperatorSpec(LinearMap.diagonal(zin2.space, values), Fraction(0),
                        spec.context)
    assert not check_o_operator(bad).passed
    with pytest.raises(ValueError, match="not an operator"):
        construct_solutions("skew-from-operator", bad)


# ---------------------------------------------------------------------------
# transfer through the limit

@pytest.fixture(scope="module")
def ambient_jet(poly2):
    return dual_semidirect_jet(
        tridendriform_bimodule_jet(poly2.jet).semidirect_jet())


def test_ambient_jet_is_a_valid_deformation(ambient_jet):
    assert check_deformation(ambient_jet).passed
    circ0 = ambient_jet.layer0().op("circ")
    assert circ0 == circ0.arg_swap()


def test_transfer_passes_on_the_identity_chain(poly2, ambient_jet):
    bundle = construct_solutions("tri-aybe", poly2.presentation)
    assert bundle.ambient == ambient_jet.layer0()
    rep = deformation_transfer(bundle.tensors["alpha1-plus"], ambient_jet)
    assert rep.passed
    assert rep.checked == (
        "hypothesis:jet-aybe", "hypothesis:jet-invariance",
        "conclusion:qcl-aybe", "conclusion:qcl-cybe",
        "conclusion:qcl-invariance")


def test_transfer_invariance_only_mode(poly2, ambient_jet):
    bundle = construct_solutions("tri-aybe", poly2.presentation)
    rep = deformation_transfer(bundle.tensors["alpha3-minus"], ambient_jet,
                               invariance_only=True)
    assert rep.passed
    assert rep.checked == (
        "hypothesis:jet-invariance", "conclusion:qcl-bracket-invariance")


def test_transfer_hypothesis_at_order_zero_is_the_plain_residual(tri_bundle):
    """With a constant jet the first hypothesis is the plain residual."""
    from jetalg import DeformationJet

    circ = tri_bundle.ambient.op("circ")
    zero = BilinearOp.zero(*[tri_bundle.ambient.space] * 3)
    j0 = DeformationJet("associative", 1, {"circ": (circ, zero)})
    good = tri_bundle.tensors["alpha2-plus"]
    rep = deformation_transfer(good, j0)
    assert rep.passed

    bad = good.add(TensorElement.from_entries(
        tri_bundle.ambient.space, tri_bundle.ambient.space,
        [(0, 4, Fraction(1))]))
    rep_bad = deformation_transfer(bad, j0)
    jet_fail = any(f.axiom == "hypothesis:jet-aybe" for f in rep_bad.failures)
    assert jet_fail == (not ybe_residual("aybe", bad, tri_bundle.ambient).is_zero())


def test_transfer_skips_conclusions_when_hypotheses_fail(ambient_jet):
    space = ambient_jet.space
    lopsided = TensorElement.from_entries(space, space, [(0, 0, Fraction(1))])
    rep = deformation_transfer(lopsided, ambient_jet)
    assert not rep.passed
    assert all(f.axiom.startswith("hypothesis:") for f in rep.failures)
    assert not any(name.startswith("conclusion:") for name in rep.checked)
