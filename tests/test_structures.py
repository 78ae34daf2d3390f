from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetalg import (
    AxiomFailure,
    AxiomReport,
    BilinearOp,
    ModuleData,
    Space,
    StructurePresentation,
    as_bimodule_layout,
    as_post_poisson,
    as_tridendriform,
    assemble_total,
    check_module,
    check_structure,
    derive_deformation,
    dualize_module,
    gen_product_shift,
    post_lie_module,
    post_poisson_module,
    qcl,
    regular_bimodule,
    regular_module,
    semidirect,
    tridendriform_bimodule,
    truncated_polynomial_algebra,
)
from vectors import vec_is_zero, vec_sub, vec_unit
from jetalg.structures import _residual_order
from module_oracle import DenseMap, left_multiplications, to_old


def perturb(pres, role, i, j, k, eps=Fraction(1)):
    op = pres.ops[role]
    bump = BilinearOp.from_entries(op.left, op.right, op.out, [(i, j, k, eps)])
    ops = dict(pres.ops)
    ops[role] = op.add(bump)
    return StructurePresentation(pres.space, ops, pres.kind)


# ---------------------------------------------------------------------------
# axiom suites on the stock instances

def test_truncated_polynomial_algebra_is_commutative_associative():
    p = truncated_polynomial_algebra(3)
    rep = check_structure(p)
    assert rep.passed
    assert rep.checked == ("Comm", "Assoc")


@pytest.mark.parametrize("n", [2, 3])
def test_product_shift_is_tridendriform(n):
    shift = gen_product_shift(truncated_polynomial_algebra(3), n)
    assert shift.space.dim == 3 * n
    assert check_structure(shift).passed


def test_truncated_poly_presentation_is_tridendriform(poly3):
    assert check_structure(poly3.presentation).passed


def test_poly_qcl_is_post_poisson(poly3):
    assert check_structure(qcl(poly3.jet)).passed


# ---------------------------------------------------------------------------
# single-entry perturbations fail with a named axiom and named tuple

def test_perturbed_polynomial_algebra_names_axiom_and_pair():
    bad = perturb(truncated_polynomial_algebra(3), "circ", 0, 1, 2)
    rep = check_structure(bad)
    assert not rep.passed
    assert rep.failing_axioms() == ("Comm", "Assoc")
    by_axiom = {}
    for f in rep.failures:
        by_axiom.setdefault(f.axiom, f)
    assert by_axiom["Comm"].indices == (0, 1)
    assert by_axiom["Comm"].residual == {2: Fraction(1)}
    assert by_axiom["Assoc"].indices == (0, 0, 0)
    assert "Comm fails on (t, t^2)" in rep.summary(bad.space)


def test_perturbed_product_shift_names_axiom_and_triple():
    shift = gen_product_shift(truncated_polynomial_algebra(3), 2)
    rep = check_structure(perturb(shift, "succ", 0, 0, 1))
    assert not rep.passed
    assert rep.failures[0].axiom == "Tri1"
    assert rep.failures[0].indices == (3, 0, 0)


def test_perturbed_poly_example_names_axiom_and_triple(poly3):
    rep = check_structure(perturb(poly3.presentation, "dot", 0, 1, 3))
    assert not rep.passed
    assert rep.failures[0].axiom == "Tri1"
    assert len(rep.failures[0].indices) == 3


def test_role_set_is_enforced():
    p = truncated_polynomial_algebra(2)
    with pytest.raises(ValueError):
        StructurePresentation(p.space, {"circ": p.op("circ")}, "dendriform")
    with pytest.raises(ValueError):
        StructurePresentation(p.space, p.ops, "no-such-kind")


# ---------------------------------------------------------------------------
# splittings assemble to their totals

def test_tridendriform_total_is_associative(poly3):
    total = assemble_total(poly3.presentation)
    assert total.kind == "associative"
    assert check_structure(total).passed


def test_post_poisson_total_is_poisson(poly2):
    total = assemble_total(qcl(poly2.jet))
    assert total.kind == "poisson"
    assert check_structure(total).passed


def test_zinbiel_mirror_gives_one_tridendriform(zin2):
    assert check_structure(zin2.zinbiel).passed
    assert check_structure(zin2.dendriform).passed
    assert as_tridendriform(zin2.zinbiel) == as_tridendriform(zin2.dendriform)


# ---------------------------------------------------------------------------
# modules: the semidirect criterion and the equational cross-check

def bimodule_equations_report(m: ModuleData, subject: str = "") -> AxiomReport:
    """Direct equational form of bimodule(-algebra) validity over an
    associative base: the oracle for check_module's semidirect criterion."""
    if m.kind != "associative":
        raise ValueError("equational cross-check is implemented for associative bases")
    base = m.base
    circ = base.op("circ")
    dot = m.carrier_ops["dot"]
    left, right = to_old(m).actions["left"], to_old(m).actions["right"]
    na, nv = base.space.dim, m.carrier.dim
    failures = []

    def lmap_of(vec, table):
        acc = DenseMap.zero(m.carrier, m.carrier)
        for p, c in vec.items():
            acc = acc.add(table[p].scale(c))
        return acc

    def record(name, idx, lhs, rhs):
        r = vec_sub(lhs, rhs)
        if not vec_is_zero(r):
            failures.append(AxiomFailure(name, idx, r, _residual_order(r)))

    for i in range(na):
        for j in range(na):
            prod = circ.basis(i, j)
            lhs_l = lmap_of(prod, left)
            rhs_l = left[i].compose(left[j])
            if lhs_l != rhs_l:
                for b in range(nv):
                    record("BimComp1", (i, j, b), lhs_l.column(b), rhs_l.column(b))
            mid_l = left[i].compose(right[j])
            mid_r = right[j].compose(left[i])
            if mid_l != mid_r:
                for b in range(nv):
                    record("BimComp2", (i, j, b), mid_l.column(b), mid_r.column(b))
            lhs_r = lmap_of(prod, right)
            rhs_r = right[j].compose(right[i])
            if lhs_r != rhs_r:
                for b in range(nv):
                    record("BimComp3", (i, j, b), lhs_r.column(b), rhs_r.column(b))

    for i in range(na):
        for a in range(nv):
            for b in range(nv):
                u, v = vec_unit(a), vec_unit(b)
                record("BimAlg1", (i, a, b),
                       left[i].apply(dot.apply(u, v)),
                       dot.apply(left[i].apply(u), v))
                record("BimAlg2", (i, a, b),
                       dot.apply(right[i].apply(u), v),
                       dot.apply(u, left[i].apply(v)))
                record("BimAlg3", (i, a, b),
                       right[i].apply(dot.apply(u, v)),
                       dot.apply(u, right[i].apply(v)))

    checked = ("BimComp1", "BimComp2", "BimComp3", "BimAlg1", "BimAlg2", "BimAlg3")
    return AxiomReport(not failures, tuple(failures), checked,
                       subject or "bimodule equations")


def comm_base(poly):
    return StructurePresentation(
        poly.space, {"circ": poly.presentation.op("dot")},
        "commutative-associative")


def idempotent_line():
    """One-dimensional algebra e*e = e; nothing nilpotent to hide behind."""
    sp = Space.make(1, ("e",))
    circ = BilinearOp.from_entries(sp, sp, sp, [(0, 0, 0, Fraction(1))])
    return StructurePresentation(sp, {"circ": circ}, "commutative-associative")


def test_regular_bimodule_is_valid(poly2):
    m = regular_bimodule(comm_base(poly2))
    rep = check_module(m)
    assert rep.passed
    assert semidirect(m).space.dim == 2 * poly2.space.dim


def test_bimodule_equations_agree_with_semidirect(poly2):
    base = comm_base(poly2)
    m = regular_bimodule(base)
    assoc_layout = ModuleData(
        StructurePresentation(base.space, {"circ": base.op("circ")}, "associative"),
        m.carrier, m.carrier_ops,
        {"left": m.actions["act"], "right": m.actions["act"]})
    assert bimodule_equations_report(assoc_layout).passed


def test_bimodule_equations_and_semidirect_fail_together():
    base = idempotent_line()
    m = regular_bimodule(base)
    assoc_layout = ModuleData(
        StructurePresentation(base.space, {"circ": base.op("circ")}, "associative"),
        m.carrier, m.carrier_ops,
        {"left": m.actions["act"], "right": m.actions["act"]})
    assert bimodule_equations_report(assoc_layout).passed
    assert check_module(assoc_layout).passed

    bad_actions = dict(assoc_layout.actions)
    bad_actions["left"] = assoc_layout.actions["left"].scale(Fraction(2))
    bad = ModuleData(assoc_layout.base, assoc_layout.carrier,
                     assoc_layout.carrier_ops, bad_actions)
    assert not bimodule_equations_report(bad).passed
    assert not check_module(bad).passed


BIMODULES = [as_bimodule_layout(regular_bimodule(b))
             for b in (idempotent_line(), truncated_polynomial_algebra(2),
                       truncated_polynomial_algebra(3))]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_check_module_agrees_with_the_bimodule_equations(data):
    """One moved action coefficient over an associative base and carrier:
    the semidirect criterion and the equations give the same verdict."""
    m = data.draw(st.sampled_from(BIMODULES))
    role = data.draw(st.sampled_from(("left", "right")))
    na, nv = m.base.space.dim, m.carrier.dim
    i = data.draw(st.integers(0, na - 1))
    r, c = data.draw(st.integers(0, nv - 1)), data.draw(st.integers(0, nv - 1))
    bump = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    entries = dict(m.actions[role].entries)
    entries[(i, c, r)] = entries.get((i, c, r), 0) + bump
    moved = ModuleData(m.base, m.carrier, m.carrier_ops, dict(
        m.actions, **{role: BilinearOp(m.base.space, m.carrier, m.carrier, entries)}))
    assert bimodule_equations_report(moved).passed == check_module(moved).passed


def test_dual_module_uses_transposed_actions(poly2):
    base = comm_base(poly2)
    dual = dualize_module(regular_module(base))
    assert check_module(dual).passed
    act = base.op("circ")
    # the dual action matrices are plus-transposes of the multiplications
    muls = left_multiplications(act)
    for got, mul in zip(to_old(dual).actions["act"], muls):
        assert got == mul.transpose(dual.carrier, dual.carrier)


def test_dual_module_sign_flip_fails():
    # on a non-nilpotent base the transposed-action sign is forced
    base = idempotent_line()
    dual = dualize_module(regular_module(base))
    assert check_module(dual).passed
    flipped = ModuleData(dual.base, dual.carrier, dual.carrier_ops,
                         {"act": dual.actions["act"].neg()})
    assert not check_module(flipped).passed


def test_tridendriform_bimodule_identity_context(poly2):
    m = tridendriform_bimodule(poly2.presentation)
    assert check_module(m).passed


def test_poisson_limit_modules(poly2):
    pp = qcl(poly2.jet)
    assert check_module(post_poisson_module(pp)).passed
    assert check_module(post_lie_module(pp)).passed


def test_poisson_regular_and_dual_modules(poly2):
    limit = qcl(derive_deformation(comm_base(poly2), poly2.derivations, poly2.N))
    assert limit.kind == "poisson"
    assert check_structure(limit).passed
    m = regular_module(limit)
    assert check_module(m).passed
    assert check_module(dualize_module(m)).passed
