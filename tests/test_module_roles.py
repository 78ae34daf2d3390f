"""The module-role table against the four-branch constructions it replaced.

module_oracle.py keeps semidirect, dualize_module, regular_bimodule and
induce_splitting as they were written for dense action matrices, one branch
per base kind.  Derandomized property tests run both on random sparse module
data of every base kind and require equal presentations, dual modules and
splittings (kinds included), and equal check_module and check_o_operator
reports.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import module_oracle as oracle
from jetalg import (
    KIND_ROLES,
    BilinearOp,
    LinearMap,
    ModuleData,
    OOperatorSpec,
    Space,
    StructurePresentation,
    check_module,
    check_o_operator,
    check_structure,
    dualize_module,
    induce_splitting,
    regular_bimodule,
    regular_bimodule_jet,
    regular_module,
    semidirect,
    tridendriform_bimodule_jet,
)
from jetalg.diagrams import _first_difference
from jetalg.structures import MODULE_ACTION_ROLES, MODULE_CARRIER_ROLES, MODULE_ROLES
from module_oracle import from_old, to_old
from test_identity_engine import MODULE_JETS, SCALARS, assert_same_failures, jet_module
from test_operators import EX, IDENT, WEIGHTS, loop_check_o_operator, operator_specs


def _sparse(draw, left, right, out, scalars=SCALARS):
    index = st.tuples(st.integers(0, left.dim - 1), st.integers(0, right.dim - 1),
                      st.integers(0, out.dim - 1))
    cells = draw(st.dictionaries(index, scalars, max_size=2 * out.dim))
    return BilinearOp(left, right, out, cells)


@st.composite
def modules(draw):
    """Random sparse rational module data of a random base kind, dims 1 to 4,
    with zero or random carrier operations."""
    kind = draw(st.sampled_from(sorted(MODULE_ROLES)))
    base_space = Space.make(draw(st.integers(1, 4)))
    carrier = Space.make(draw(st.integers(1, 4)), prefix="v")
    base = StructurePresentation(
        base_space, {role: _sparse(draw, base_space, base_space, base_space)
                     for role in KIND_ROLES[kind]}, kind)
    plain = draw(st.booleans())
    carrier_ops = {role: BilinearOp.zero(carrier, carrier, carrier) if plain
                   else _sparse(draw, carrier, carrier, carrier)
                   for role in MODULE_CARRIER_ROLES[kind]}
    actions = {role: _sparse(draw, base_space, carrier, carrier)
               for role in MODULE_ACTION_ROLES[kind]}
    return ModuleData(base, carrier, carrier_ops, actions)


@st.composite
def module_specs(draw):
    """Random module data with a random operator matrix and weight."""
    m = draw(modules())
    cells = st.sampled_from((Fraction(0), Fraction(0), Fraction(1))) | SCALARS
    matrix = [[draw(cells) for _ in range(m.carrier.dim)] for _ in range(m.base.space.dim)]
    return OOperatorSpec(LinearMap(m.carrier, m.base.space, matrix), draw(WEIGHTS), m)


def old_split(spec):
    return oracle.induce_splitting(to_old(spec.context), spec.operator, spec.weight)


def module_subject(m):
    return f"module over {m.kind} base"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(modules())
def test_semidirect_agrees_with_the_branch_oracle(m):
    assert from_old(to_old(m)) == m
    want = oracle.semidirect(to_old(m))
    assert semidirect(m) == want
    assert_same_failures(check_module(m), check_structure(want, module_subject(m)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(modules())
def test_dual_module_agrees_with_the_branch_oracle(m):
    if not m.is_plain():
        with pytest.raises(ValueError, match="trivial carrier operations"):
            dualize_module(m)
        with pytest.raises(ValueError, match="trivial carrier operations"):
            oracle.dualize_module(to_old(m))
        return
    got = dualize_module(m)
    want = oracle.dualize_module(to_old(m))
    assert got == from_old(want)
    assert_same_failures(check_module(got),
                         check_structure(oracle.semidirect(want), module_subject(m)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(modules())
def test_regular_modules_agree_with_the_branch_oracle(m):
    p = m.base
    assert regular_bimodule(p) == from_old(oracle.regular_bimodule(p))
    assert regular_module(p) == from_old(oracle.regular_module(p))
    assert dualize_module(regular_module(p)) == from_old(
        oracle.dualize_module(oracle.regular_module(p)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(module_specs())
def test_random_splittings_agree_with_the_branch_oracle(spec):
    got = induce_splitting(spec)
    assert got == old_split(spec) and got.kind == old_split(spec).kind
    assert_same_failures(check_o_operator(spec), loop_check_o_operator(spec))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(operator_specs())
def test_operator_splittings_agree_with_the_branch_oracle(spec):
    """T valid on its context or with one moved cell, at weight 0, 1 or a
    random rational."""
    got = induce_splitting(spec)
    assert got == old_split(spec) and got.kind == old_split(spec).kind


def test_a_jet_valued_module_agrees_with_the_branch_oracle():
    mj = jet_module(tridendriform_bimodule_jet(EX.jet))
    assert semidirect(mj) == oracle.semidirect(to_old(mj))
    for weight in (Fraction(0), Fraction(1)):
        spec = OOperatorSpec(IDENT, weight, mj)
        assert induce_splitting(spec) == old_split(spec)
        assert_same_failures(check_o_operator(spec), loop_check_o_operator(spec))
    plain = jet_module(regular_bimodule_jet(
        tridendriform_bimodule_jet(EX.jet).semidirect_jet(), plain=True))
    assert dualize_module(plain) == from_old(oracle.dualize_module(to_old(plain)))


def test_module_data_rejects_the_matrix_layout():
    m = regular_module(StructurePresentation(
        EX.space, {"circ": EX.presentation.op("dot")}, "associative"))
    with pytest.raises(ValueError, match="must act from the base space on the carrier"):
        ModuleData(m.base, m.carrier, m.carrier_ops, to_old(m).actions)


# ---------------------------------------------------------------------------
# the first difference is still reported as in one matrix per base element


def _matrix_scan(a, b):
    """Where two old-layout action tables first differ, in (i, r, c) order."""
    for i, (ma, mb) in enumerate(zip(a, b)):
        for r, (ra, rb) in enumerate(zip(ma.matrix, mb.matrix)):
            for c, (va, vb) in enumerate(zip(ra, rb)):
                if va != vb:
                    return (i, r, c), va, vb
    return None


def _moved_cells(draw, op):
    """op with one to three cells moved by nonzero amounts."""
    entries = dict(op.entries)
    for _ in range(draw(st.integers(1, 3))):
        key = (draw(st.integers(0, op.left.dim - 1)), draw(st.integers(0, op.right.dim - 1)),
               draw(st.integers(0, op.out.dim - 1)))
        entries[key] = entries.get(key, 0) + draw(SCALARS)
    return BilinearOp(op.left, op.right, op.out, entries)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(modules(), st.data())
def test_a_moved_action_cell_is_found_where_the_matrices_differ(m, data):
    role = data.draw(st.sampled_from(sorted(m.actions)))
    moved = ModuleData(m.base, m.carrier, m.carrier_ops,
                       dict(m.actions, **{role: _moved_cells(data.draw, m.actions[role])}))
    want = _matrix_scan(to_old(moved).actions[role], to_old(m).actions[role])
    got = _first_difference(moved, m)
    if want is None:
        assert got is None
    else:
        where, va, vb = want
        assert got == ((role,) + where, va, vb)
        assert repr(got[1:]) == repr(want[1:])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(MODULE_JETS), st.data())
def test_a_moved_action_layer_cell_is_found_where_the_matrices_differ(mj, data):
    role = data.draw(st.sampled_from(("left", "right")))
    s = data.draw(st.integers(0, mj.order))
    layers = list(mj.action_layers[role])
    layers[s] = _moved_cells(data.draw, layers[s])
    moved = type(mj)(mj.order, mj.base_layers, mj.carrier_layers,
                     dict(mj.action_layers, **{role: layers}))
    want = _matrix_scan(to_old(moved.layer(s)).actions[role],
                        to_old(mj.layer(s)).actions[role])
    got = _first_difference(moved, mj)
    if want is None:
        assert got is None
    else:
        where, va, vb = want
        assert got == ((role, s) + where, va, vb)
