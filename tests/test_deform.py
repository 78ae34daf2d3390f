from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetalg import (
    BilinearOp,
    DeformationJet,
    DerivationPair,
    LinearMap,
    check_deformation,
    check_module,
    check_structure,
    derive_deformation,
    dualize_deformation,
    dualize_module,
    gen_truncated_poly_example,
    qcl,
    regular_bimodule_jet,
    regular_module,
    truncated_polynomial_algebra,
    tridendriform_bimodule_jet,
)
from jetalg.deform import derivation_failures
from vectors import vec_is_zero, vec_sub, vec_unit
from module_oracle import DenseMap
from jetalg.structures import StructurePresentation
from test_identity_engine import SCALARS, presentations


def comm_base(poly):
    return StructurePresentation(
        poly.space, {"circ": poly.presentation.op("dot")},
        "commutative-associative")


def test_orderwise_check_passes_on_the_generated_jet(poly3):
    rep = check_deformation(poly3.jet)
    assert rep.passed
    assert rep.checked == ("Tri1", "Tri2", "Tri3", "Tri4", "Tri5", "Tri6", "Tri7")


def test_first_failing_order_points_at_the_broken_layer():
    """A cochain that is not a Hochschild cocycle must fail at order one."""
    p = truncated_polynomial_algebra(2)
    zero = BilinearOp.zero(p.space, p.space, p.space)
    bad1 = BilinearOp.from_entries(p.space, p.space, p.space,
                                   [(0, 1, 0, Fraction(1))])
    j = DeformationJet("commutative-associative", 2,
                       {"circ": (p.op("circ"), bad1, zero)})
    rep = check_deformation(j)
    assert not rep.passed
    assert rep.first_failing_order() == 1
    failure = next(f for f in rep.failures if f.axiom == "Assoc")
    assert failure.indices == (0, 0, 0)
    assert failure.order == 1
    residual = failure.residual[0]
    assert residual.coeff(0) == 0 and residual.coeff(1) == Fraction(-1)


def test_derivation_pair_must_commute_and_derive():
    p = truncated_polynomial_algebra(3)
    not_a_derivation = LinearMap.diagonal(p.space, [Fraction(1), Fraction(0),
                                                    Fraction(0)])
    with pytest.raises(ValueError):
        derive_deformation(p, DerivationPair(not_a_derivation, not_a_derivation), 2)


def test_zero_derivations_give_the_constant_exact_jet():
    p = truncated_polynomial_algebra(3)
    z = LinearMap.diagonal(p.space, [0] * p.space.dim)
    j = derive_deformation(p, DerivationPair(z, z), 3)
    assert all(j.layer(s).op("circ").is_zero() for s in range(1, 4))
    assert j.layer0() == p


def test_derived_jet_matches_generator(poly3):
    j = derive_deformation(poly3.presentation, poly3.derivations, 3)
    assert j == poly3.jet


def test_base_product_deforms_with_exponential_coefficients(poly3):
    """x1 *_h x2 picks up coefficients 1, 1, 1/2, 1/6 through order three."""
    base = comm_base(poly3)
    j = derive_deformation(base, poly3.derivations, 3)
    a, b, out = poly3.index(1, 0), poly3.index(0, 1), poly3.index(1, 1)
    expect = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]
    for s, c in enumerate(expect):
        layer = j.layers["circ"][s].apply({a: Fraction(1)}, {b: Fraction(1)})
        assert layer == ({out: c} if c else {})


def test_operator_and_succ_coefficients(poly3):
    assert poly3.operator.column(0) == {0: Fraction(-2)}
    x1x2 = poly3.index(1, 1)
    assert poly3.operator.column(x1x2) == {x1x2: Fraction(-6, 5)}
    a, b = poly3.index(1, 0), poly3.index(0, 1)
    got = poly3.presentation.op("succ").apply({a: Fraction(1)}, {b: Fraction(1)})
    assert got == {x1x2: Fraction(-2)}


def test_qcl_matches_closed_form(poly3):
    limit = qcl(poly3.jet)
    assert limit == poly3.qcl_closed
    assert check_structure(limit).passed


def test_qcl_closed_form_coefficients(poly3):
    """bracket carries i1*j2 - i2*j1; triangle carries the same times q^I/(1-q^I)."""
    limit = qcl(poly3.jet)
    x1, x2 = poly3.index(1, 0), poly3.index(0, 1)
    out = poly3.index(1, 1)
    br = limit.op("bracket").apply({x1: Fraction(1)}, {x2: Fraction(1)})
    assert br == {out: Fraction(1)}
    tri = limit.op("triangle").apply({x1: Fraction(1)}, {x2: Fraction(1)})
    assert tri == {out: Fraction(-2)}  # 1 * q1/(1-q1) = 2/(1-2)


def test_zinbiel_jet_and_limit(zin2):
    assert check_deformation(zin2.jet).passed
    assert qcl(zin2.jet) == zin2.qcl_closed
    x1 = zin2.index(1, 0)
    out = zin2.index(2, 0)
    got = zin2.zinbiel.op("succ").apply({x1: Fraction(1)}, {x1: Fraction(1)})
    assert got == {out: Fraction(1)}  # x1 > x1 = x1^2 / |(1,0)|


def test_module_jets_are_valid(poly2):
    trid = tridendriform_bimodule_jet(poly2.jet)
    assert check_deformation(trid.semidirect_jet()).passed
    base = derive_deformation(comm_base(poly2), poly2.derivations, 3)
    reg = regular_bimodule_jet(base)
    assert check_deformation(reg.semidirect_jet()).passed


def test_module_qcl_is_a_valid_poisson_module(poly2):
    base = derive_deformation(comm_base(poly2), poly2.derivations, 3)
    mj = regular_bimodule_jet(base)
    assert check_module(qcl(mj)).passed


def test_dual_commutes_with_qcl(poly2):
    base = derive_deformation(comm_base(poly2), poly2.derivations, 3)
    mj = regular_bimodule_jet(base, plain=True)
    dual = dualize_deformation(mj)
    assert check_deformation(dual.semidirect_jet()).passed
    assert qcl(dual) == dualize_module(qcl(mj))


def test_dualize_rejects_nontrivial_carrier(poly2):
    base = derive_deformation(comm_base(poly2), poly2.derivations, 3)
    with pytest.raises(ValueError):
        dualize_deformation(regular_bimodule_jet(base))


def test_qcl_needs_commutative_layer0():
    sp = truncated_polynomial_algebra(2).space
    succ = BilinearOp.from_entries(sp, sp, sp, [(0, 0, 1, Fraction(1))])
    prec = BilinearOp.zero(sp, sp, sp)
    j = DeformationJet("dendriform", 1, {"succ": (succ, prec), "prec": (prec, prec)})
    with pytest.raises(ValueError):
        qcl(j)


def dense_derivation_failures(d: LinearMap, op: BilinearOp):
    """Reference Leibniz check: every basis pair in turn."""
    bad = []
    n = op.left.dim
    d = DenseMap.of(d)
    for i in range(n):
        for j in range(n):
            u, v = vec_unit(i), vec_unit(j)
            lhs = d.apply(op.apply(u, v))
            rhs = op.apply(d.apply(u), v)
            for k, c in op.apply(u, d.apply(v)).items():
                rhs[k] = rhs.get(k, 0) + c
            if not vec_is_zero(vec_sub(lhs, rhs)):
                bad.append((i, j))
    return bad


@pytest.mark.parametrize("D", (3, 4))
def test_leibniz_contraction_agrees_with_the_pairwise_loop(D):
    ex = gen_truncated_poly_example(2, 3, D, 0)
    d1, d2 = ex.derivations.d1, ex.derivations.d2
    shifted = LinearMap(ex.space, ex.space, [[c + (i == j) for j, c in enumerate(row)]
                                             for i, row in enumerate(d1.matrix)])
    for op in ex.presentation.ops.values():
        for d in (d1, d2):
            assert derivation_failures(d, op) == dense_derivation_failures(d, op) == []
        bad = derivation_failures(shifted, op)
        assert bad and bad == dense_derivation_failures(shifted, op)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_leibniz_contraction_agrees_on_random_maps(data):
    p = data.draw(presentations())
    n = p.space.dim
    cell = st.sampled_from((0, 0, 0, 1, -1)) | SCALARS
    d = LinearMap(p.space, p.space, data.draw(
        st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)))
    for op in p.ops.values():
        assert derivation_failures(d, op) == dense_derivation_failures(d, op)
