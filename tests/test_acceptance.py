"""Acceptance gate: one timed criterion per test, one printed line each.

Every check is exact rational arithmetic; the only tolerances are the
runtime bounds stated per criterion.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from jetalg import (
    BilinearOp,
    LinearMap,
    OOperatorSpec,
    Space,
    StructurePresentation,
    TensorElement,
    aw1_induce,
    check_deformation,
    check_module,
    check_o_operator,
    check_scalar_deformation,
    check_structure,
    construct_solutions,
    deformation_transfer,
    derive_deformation,
    dual_semidirect_jet,
    dualize_deformation,
    dualize_module,
    eta_embed,
    gen_product_shift,
    gen_integration_zinbiel,
    gen_truncated_poly_example,
    invariance_residual,
    post_poisson_module,
    qcl,
    regular_bimodule,
    regular_bimodule_jet,
    tridendriform_bimodule,
    tridendriform_bimodule_jet,
    truncated_polynomial_algebra,
    unsharp,
    verify_diagram,
    ybe_residual,
)


def announce(number, label, started, bound):
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s < {bound:.0f}s)")
    assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def perturb(pres, role, i, j, k):
    op = pres.ops[role]
    bump = BilinearOp.from_entries(op.left, op.right, op.out,
                                   [(i, j, k, Fraction(1))])
    ops = dict(pres.ops)
    ops[role] = op.add(bump)
    return StructurePresentation(pres.space, ops, pres.kind)


def assert_named_failure(report):
    assert not report.passed
    first = report.failures[0]
    assert first.axiom
    assert len(first.indices) in (2, 3)
    assert first.residual


@pytest.fixture(scope="module")
def poly3():
    return gen_truncated_poly_example(2, 3, 3, 3)


@pytest.fixture(scope="module")
def poly2():
    return gen_truncated_poly_example(2, 3, 2, 3)


def comm_base(poly):
    return StructurePresentation(
        poly.space, {"circ": poly.presentation.op("dot")},
        "commutative-associative")


def test_criterion_1_axiom_suites(poly3):
    started = time.perf_counter()
    quartic = truncated_polynomial_algebra(3)
    assert check_structure(quartic).passed
    assert_named_failure(check_structure(perturb(quartic, "circ", 0, 1, 2)))
    announce(1, "axioms: truncated polynomial base", started, 1.0)

    for n in (2, 3):
        started = time.perf_counter()
        shift = gen_product_shift(quartic, n)
        assert check_structure(shift).passed
        assert_named_failure(check_structure(perturb(shift, "succ", 0, 0, 1)))
        announce(1, f"axioms: product shift n={n}", started, 1.0)

    started = time.perf_counter()
    assert check_structure(poly3.presentation).passed
    assert_named_failure(
        check_structure(perturb(poly3.presentation, "dot", 0, 1, 3)))
    announce(1, "axioms: truncated-poly splitting D=3", started, 1.0)


def test_criterion_2_deformation_chain(poly3):
    started = time.perf_counter()
    assert check_deformation(poly3.jet).passed
    limit = qcl(poly3.jet)
    assert check_structure(limit).passed
    assert limit == poly3.qcl_closed

    # closed forms, coefficient for coefficient over every monomial pair
    bracket, triangle = limit.op("bracket"), limit.op("triangle")
    monos = poly3.monomials
    lookup = {m: i for i, m in enumerate(monos)}
    for a, (i1, i2) in enumerate(monos):
        qI = Fraction(2) ** i1 * Fraction(3) ** i2
        for b, (j1, j2) in enumerate(monos):
            total = (i1 + j1, i2 + j2)
            coeff = Fraction(i1 * j2 - i2 * j1)
            out = lookup.get(total)
            expect_br = {out: coeff} if out is not None and coeff else {}
            assert bracket.apply({a: Fraction(1)}, {b: Fraction(1)}) == expect_br
            tri_coeff = coeff * qI / (1 - qI)
            expect_tri = {out: tri_coeff} if out is not None and tri_coeff else {}
            assert triangle.apply({a: Fraction(1)}, {b: Fraction(1)}) == expect_tri
    announce(2, "deformation jet, limit, closed forms", started, 5.0)


def test_criterion_3_operator_suite(poly3):
    started = time.perf_counter()
    base = comm_base(poly3)
    diag = OOperatorSpec(poly3.operator, Fraction(1), regular_bimodule(base))
    ident = OOperatorSpec(LinearMap.identity(poly3.space), Fraction(1),
                          tridendriform_bimodule(poly3.presentation))
    assert check_o_operator(diag).passed
    assert check_o_operator(ident).passed

    base_jet = derive_deformation(base, poly3.derivations, 3)
    assert check_scalar_deformation(diag, regular_bimodule_jet(base_jet)).passed
    assert check_scalar_deformation(
        ident, tridendriform_bimodule_jet(poly3.jet)).passed

    poisson = qcl(base_jet)
    assert check_o_operator(
        OOperatorSpec(poly3.operator, Fraction(1),
                      regular_bimodule(poisson))).passed
    assert check_o_operator(
        OOperatorSpec(LinearMap.identity(poly3.space), Fraction(1),
                      post_poisson_module(qcl(poly3.jet)))).passed
    announce(3, "operators at order 0, orderwise, and in the limit",
             started, 5.0)


@pytest.mark.parametrize("tag", ["pro-diagotri", "pro-diaid", "pro-w2",
                                 "pro-skews", "dendriform-final"])
def test_criterion_4_commuting_diagrams(tag):
    started = time.perf_counter()
    report = verify_diagram(tag)
    assert report.passed, report.summary()
    announce(4, f"diagram {tag}", started, 10.0)


def test_criterion_5_yang_baxter_constructions(poly2):
    started = time.perf_counter()

    line = Space.make(1, ("e",))
    circ = BilinearOp.from_entries(line, line, line, [(0, 0, 0, Fraction(1))])
    base = StructurePresentation(line, {"circ": circ},
                                 "commutative-associative")
    bundle = construct_solutions("tri-aybe", gen_product_shift(base, 2))
    assert bundle.ambient.space.dim == 8
    assert len(bundle.tensors) == 8
    for r in bundle.tensors.values():
        assert ybe_residual("aybe", r, bundle.ambient).is_zero()

    pbundle = construct_solutions("post-pybe", qcl(poly2.jet))
    for r in pbundle.tensors.values():
        res_a, res_c = ybe_residual("pybe", r, pbundle.ambient)
        assert res_a.is_zero() and res_c.is_zero()

    zin = gen_integration_zinbiel(2, 3)
    succ, prec = zin.dendriform.op("succ"), zin.dendriform.op("prec")
    plain = tridendriform_bimodule(StructurePresentation(zin.space, {
        "succ": succ, "prec": prec,
        "dot": BilinearOp.zero(zin.space, zin.space, zin.space),
    }, "tridendriform"))
    skew_spec = OOperatorSpec(LinearMap.identity(zin.space), Fraction(0), plain)
    sbundle = construct_solutions("skew-from-operator", skew_spec)
    skew = sbundle.tensors["skew-graph"]
    assert ybe_residual("aybe", skew, sbundle.ambient).is_zero()

    # the skew biconditional, positive and negative
    module, rep = aw1_induce(skew, sbundle.ambient)
    assert rep.passed
    delta = TensorElement.from_entries(
        sbundle.ambient.space, sbundle.ambient.space,
        [(0, 1, Fraction(1)), (1, 0, Fraction(-1))])
    module, rep_bad = aw1_induce(skew.add(delta), sbundle.ambient)
    assert not rep_bad.passed
    failing = rep_bad.failing_axioms()
    assert "AybeResidual" in failing and "OCirc" in failing
    announce(5, "solution bundles and the skew biconditional", started, 30.0)


def test_criterion_6_transfer(poly2):
    started = time.perf_counter()
    ehat = dual_semidirect_jet(
        tridendriform_bimodule_jet(poly2.jet).semidirect_jet())
    space = ehat.space

    # invariance is linear in the product: it holds for the jet exactly
    # when it holds on every layer
    half = space.dim // 2
    hat = Space.make(half, space.labels[:half])
    t_id = eta_embed(unsharp(LinearMap.identity(hat)), space)
    for s in range(ehat.order + 1):
        res = invariance_residual("associative", t_id.sym(), ehat.layer(s))
        assert all(t.is_zero() for t in res)

    bundle = construct_solutions("tri-aybe", poly2.presentation)
    assert bundle.ambient == ehat.layer0()
    for name in ("alpha1-plus", "alpha4-minus"):
        rep = deformation_transfer(bundle.tensors[name], ehat)
        assert rep.passed, rep.summary()
    rep = deformation_transfer(bundle.tensors["alpha2-plus"], ehat,
                               invariance_only=True)
    assert rep.passed
    assert rep.checked == ("hypothesis:jet-invariance",
                           "conclusion:qcl-bracket-invariance")
    announce(6, "orderwise transfer with invariant identity part",
             started, 30.0)


def test_criterion_7_dual_commutes_with_limits(poly2):
    started = time.perf_counter()
    base_jet = derive_deformation(comm_base(poly2), poly2.derivations, 3)
    mj = regular_bimodule_jet(base_jet, plain=True)
    dual = dualize_deformation(mj)
    assert check_deformation(dual.semidirect_jet()).passed
    assert check_module(qcl(dual)).passed
    assert qcl(dual) == dualize_module(qcl(mj))
    announce(7, "dual of the jet equals jet of the dual", started, 5.0)
