"""The sparse identity engine against the dense reference checker.

The oracle below evaluates each identity as closures over sparse basis
vectors on every basis tuple, in the dense loop order, with rational or
jet-valued scalars.  check_structure, commutativity_failures and
check_deformation must give the same verdict, the same checked ids and the
same failures (axiom, indices, residual, order), in the same order.  The
library evaluates a jet-valued presentation only by its rational layers
(check_layers, check_deformation); the oracle evaluates it merged.
"""

from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetalg import (
    DIAGRAM_TAGS,
    KIND_ROLES,
    AxiomFailure,
    AxiomReport,
    BilinearOp,
    DeformationJet,
    Jet,
    LinearMap,
    ModuleDeformationJet,
    OOperatorSpec,
    Space,
    StructurePresentation,
    TensorElement,
    aw1_induce,
    check_deformation,
    check_module,
    check_scalar_deformation,
    check_structure,
    construct_solutions,
    deformation_transfer,
    derive_deformation,
    dual_semidirect_jet,
    gen_product_shift,
    gen_truncated_poly_example,
    invariance_residual,
    module_derivation_pair,
    qcl,
    regular_bimodule,
    regular_bimodule_jet,
    semidirect,
    tridendriform_bimodule_jet,
    truncated_polynomial_algebra,
    verify_diagram,
    ybe_residual,
)
from jetalg import structures
from jetalg.linalg import vec_clean
from vectors import vec_iadd, vec_is_zero, vec_sub, vec_unit
from jetalg.structures import _residual_order, check_layers, commutativity_failures
from jet_oracle import jet_module, jet_presentation, split_layers


# ---------------------------------------------------------------------------
# dense oracle: every axiom as a closure, evaluated on all n^arity tuples

def _axioms_for(kind: str, ops: Mapping[str, BilinearOp]):
    axioms = []

    def comm(op, name):
        axioms.append((name, 2, lambda x, y: vec_sub(op.apply(x, y), op.apply(y, x))))

    def antisym(op, name="AntiSym"):
        axioms.append((name, 2, lambda x, y: vec_clean(
            vec_iadd(dict(op.apply(x, y)), op.apply(y, x)))))

    def assoc(op, name="Assoc"):
        axioms.append((name, 3, lambda x, y, z: vec_sub(
            op.apply(op.apply(x, y), z), op.apply(x, op.apply(y, z)))))

    def jacobi(b, name="Jacobi"):
        def fn(x, y, z):
            acc = dict(b.apply(b.apply(x, y), z))
            vec_iadd(acc, b.apply(b.apply(y, z), x))
            vec_iadd(acc, b.apply(b.apply(z, x), y))
            return vec_clean(acc)
        axioms.append((name, 3, fn))

    def leibniz(b, c, name="Leibniz"):
        def fn(x, y, z):
            lhs = b.apply(x, c.apply(y, z))
            rhs = vec_iadd(dict(c.apply(b.apply(x, y), z)), c.apply(y, b.apply(x, z)))
            return vec_sub(lhs, rhs)
        axioms.append((name, 3, fn))

    def dendriform(s, p, c, tag=""):
        axioms.append((f"Den1{tag}", 3, lambda x, y, z: vec_sub(
            p.apply(p.apply(x, y), z), p.apply(x, c.apply(y, z)))))
        axioms.append((f"Den2{tag}", 3, lambda x, y, z: vec_sub(
            p.apply(s.apply(x, y), z), s.apply(x, p.apply(y, z)))))
        axioms.append((f"Den3{tag}", 3, lambda x, y, z: vec_sub(
            s.apply(c.apply(x, y), z), s.apply(x, s.apply(y, z)))))

    def tridendriform(s, p, d, c):
        axioms.append(("Tri1", 3, lambda x, y, z: vec_sub(
            p.apply(p.apply(x, y), z), p.apply(x, c.apply(y, z)))))
        axioms.append(("Tri2", 3, lambda x, y, z: vec_sub(
            p.apply(s.apply(x, y), z), s.apply(x, p.apply(y, z)))))
        axioms.append(("Tri3", 3, lambda x, y, z: vec_sub(
            s.apply(c.apply(x, y), z), s.apply(x, s.apply(y, z)))))
        axioms.append(("Tri4", 3, lambda x, y, z: vec_sub(
            d.apply(s.apply(x, y), z), s.apply(x, d.apply(y, z)))))
        axioms.append(("Tri5", 3, lambda x, y, z: vec_sub(
            d.apply(p.apply(x, y), z), d.apply(x, s.apply(y, z)))))
        axioms.append(("Tri6", 3, lambda x, y, z: vec_sub(
            p.apply(d.apply(x, y), z), d.apply(x, p.apply(y, z)))))
        axioms.append(("Tri7", 3, lambda x, y, z: vec_sub(
            d.apply(d.apply(x, y), z), d.apply(x, d.apply(y, z)))))

    def prelie(t, name="PreLie"):
        def fn(x, y, z):
            acc = dict(t.apply(x, t.apply(y, z)))
            vec_iadd(acc, t.apply(t.apply(x, y), z), -1)
            vec_iadd(acc, t.apply(y, t.apply(x, z)), -1)
            vec_iadd(acc, t.apply(t.apply(y, x), z))
            return vec_clean(acc)
        axioms.append((name, 3, fn))

    def postlie(b, t):
        axioms.append(("PostL1", 3, lambda x, y, z: vec_sub(
            t.apply(x, b.apply(y, z)),
            vec_iadd(dict(b.apply(t.apply(x, y), z)), b.apply(y, t.apply(x, z))))))

        def postl2(x, y, z):
            acc = dict(t.apply(b.apply(x, y), z))
            vec_iadd(acc, t.apply(x, t.apply(y, z)), -1)
            vec_iadd(acc, t.apply(t.apply(x, y), z))
            vec_iadd(acc, t.apply(y, t.apply(x, z)))
            vec_iadd(acc, t.apply(t.apply(y, x), z), -1)
            return vec_clean(acc)
        axioms.append(("PostL2", 3, postl2))

    def post_poisson_compat(b, b_full, t, s, d, c):
        # b is the bare bracket role, b_full / c the assembled bracket and product
        def pp2a(x, y, z):
            acc = dict(b.apply(x, s.apply(y, z)))
            vec_iadd(acc, s.apply(y, b.apply(x, z)), -1)
            vec_iadd(acc, d.apply(z, t.apply(y, x)))
            return vec_clean(acc)
        axioms.append(("PostP2a", 3, pp2a))
        axioms.append(("PostP2b", 3, lambda x, y, z: vec_sub(
            t.apply(x, d.apply(y, z)),
            vec_iadd(dict(d.apply(t.apply(x, y), z)), d.apply(y, t.apply(x, z))))))
        axioms.append(("PostP5a", 3, lambda x, y, z: vec_sub(
            t.apply(c.apply(x, y), z),
            vec_iadd(dict(s.apply(x, t.apply(y, z))), s.apply(y, t.apply(x, z))))))
        axioms.append(("PostP5b", 3, lambda x, y, z: vec_sub(
            t.apply(x, s.apply(y, z)),
            vec_iadd(dict(s.apply(y, t.apply(x, z))), s.apply(b_full.apply(x, y), z)))))

    if kind == "associative":
        assoc(ops["circ"])
    elif kind == "commutative-associative":
        comm(ops["circ"], "Comm")
        assoc(ops["circ"])
    elif kind == "lie":
        antisym(ops["bracket"])
        jacobi(ops["bracket"])
    elif kind == "poisson":
        antisym(ops["bracket"])
        jacobi(ops["bracket"])
        comm(ops["circ"], "Comm")
        assoc(ops["circ"])
        leibniz(ops["bracket"], ops["circ"])
    elif kind == "zinbiel":
        s = ops["succ"]
        p = s.arg_swap()
        dendriform(s, p, s.add(p))
    elif kind == "dendriform":
        s, p = ops["succ"], ops["prec"]
        dendriform(s, p, s.add(p))
    elif kind == "tridendriform":
        s, p, d = ops["succ"], ops["prec"], ops["dot"]
        tridendriform(s, p, d, s.add(p).add(d))
    elif kind == "pre-lie":
        prelie(ops["triangle"])
    elif kind == "post-lie":
        antisym(ops["bracket"])
        jacobi(ops["bracket"])
        postlie(ops["bracket"], ops["triangle"])
    elif kind == "pre-poisson":
        t, s = ops["triangle"], ops["succ"]
        p = s.arg_swap()
        c = s.add(p)
        zero = BilinearOp.zero(s.left, s.right, s.out)
        prelie(t)
        dendriform(s, p, c)
        post_poisson_compat(zero, t.sub(t.arg_swap()), t, s, zero, c)
    elif kind == "post-poisson":
        b, t, s, d = ops["bracket"], ops["triangle"], ops["succ"], ops["dot"]
        p = s.arg_swap()
        c = s.add(p).add(d)
        antisym(b)
        jacobi(b)
        postlie(b, t)
        comm(d, "CommDot")
        tridendriform(s, p, d, c)
        b_full = t.sub(t.arg_swap()).add(b)
        leibniz(b_full, c, "PostP1")
        post_poisson_compat(b, b_full, t, s, d, c)
    else:  # pragma: no cover
        raise ValueError(f"no axiom set for kind {kind!r}")
    return axioms


def dense_check_structure(p: StructurePresentation, subject: str = "") -> AxiomReport:
    """Evaluate every defining identity of p.kind on every basis tuple."""
    n = p.space.dim
    axioms = _axioms_for(p.kind, p.ops)
    failures = []
    for name, arity, fn in axioms:
        if arity == 2:
            tuples = ((i, j) for i in range(n) for j in range(n))
        else:
            tuples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        for idx in tuples:
            residual = fn(*(vec_unit(i) for i in idx))
            if not vec_is_zero(residual):
                failures.append(AxiomFailure(name, idx, residual, _residual_order(residual)))
    return AxiomReport(
        passed=not failures,
        failures=tuple(failures),
        checked=tuple(name for name, _, _ in axioms),
        subject=subject or f"{p.kind} on dim {n}",
    )


def dense_commutativity_failures(p: StructurePresentation) -> tuple[AxiomFailure, ...]:
    """Symmetry conditions needed before taking a quasiclassical limit."""
    fails = []

    def sym_check(op_a, op_b, name):
        n = p.space.dim
        for i in range(n):
            for j in range(n):
                r = vec_sub(op_a.basis(i, j), op_b.basis(j, i))
                if not vec_is_zero(r):
                    fails.append(AxiomFailure(name, (i, j), r, _residual_order(r)))

    if p.kind in ("associative", "commutative-associative"):
        c = p.op("circ")
        sym_check(c, c, "Comm")
    elif p.kind in ("dendriform", "tridendriform"):
        sym_check(p.op("succ"), p.op("prec"), "SuccPrecMirror")
        if p.kind == "tridendriform":
            d = p.op("dot")
            sym_check(d, d, "CommDot")
    elif p.kind == "zinbiel":
        pass  # mirrored by definition
    else:
        raise ValueError(f"no commutativity notion for kind {p.kind!r}")
    return tuple(fails)


# ---------------------------------------------------------------------------
# agreement

def failure_rows(failures):
    # repr keeps the scalar type: a Jet residual must not turn into a Fraction
    return [(f.axiom, f.indices, sorted((k, repr(c)) for k, c in f.residual.items()),
             f.order) for f in failures]


def assert_same_failures(got, want):
    assert (got.passed, got.checked, got.subject) == (want.passed, want.checked, want.subject)
    assert failure_rows(got.failures) == failure_rows(want.failures)


def assert_same_report(p):
    assert_same_failures(check_structure(p), dense_check_structure(p))
    try:
        want_sym = dense_commutativity_failures(p)
    except ValueError:
        with pytest.raises(ValueError):
            commutativity_failures(p)
        return
    assert failure_rows(commutativity_failures(p)) == failure_rows(want_sym)


def assert_same_layered_report(p, order, subject=""):
    """A jet-valued p of the given order, evaluated by its rational layers,
    against the dense oracle on p itself."""
    layers = split_layers(p, order)
    subject = subject or f"{p.kind} on dim {p.space.dim}"
    assert_same_failures(check_layers(p.kind, layers, order, subject),
                         dense_check_structure(p, subject))
    derived, _, symmetry = structures.IDENTITIES[p.kind]
    try:
        want_sym = dense_commutativity_failures(p)
    except ValueError:
        assert symmetry is None
        return
    got_sym = structures._failures(*structures._int_ops(layers, derived), symmetry, order)
    assert failure_rows(got_sym) == failure_rows(want_sym)


SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


# order-2 jets with rational coefficients, so the evaluator's common
# denominator is not 1; BilinearOp drops the zero jet like any zero coefficient
JETS = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                min_size=3, max_size=3).map(Jet)


@st.composite
def presentations(draw, scalars=SCALARS, max_dim=4):
    """A sparse presentation of a random kind: 0 to 2 dim entries per role."""
    kind = draw(st.sampled_from(sorted(KIND_ROLES)))
    n = draw(st.integers(1, max_dim))
    space = Space.make(n)
    index = st.integers(0, n - 1)
    ops = {}
    for role in KIND_ROLES[kind]:
        cells = draw(st.dictionaries(st.tuples(index, index, index), scalars,
                                     max_size=2 * n))
        ops[role] = BilinearOp(space, space, space, cells)
    return StructurePresentation(space, ops, kind)


def with_zero(space, kind, **ops):
    zero = BilinearOp.zero(space, space, space)
    return StructurePresentation(space, {r: ops.get(r, zero) for r in KIND_ROLES[kind]}, kind)


def valid_small():
    """Valid presentations of dim <= 4: the zero structure of every kind,
    truncated polynomial algebras read three ways, and a product shift."""
    out = [with_zero(Space.make(n), kind) for kind in sorted(KIND_ROLES) for n in (2, 3)]
    for D in (2, 3, 4):
        comm = truncated_polynomial_algebra(D)
        out += [with_zero(comm.space, kind, circ=comm.op("circ"))
                for kind in ("associative", "commutative-associative", "poisson")]
    out.append(gen_product_shift(truncated_polynomial_algebra(2), 2))
    return out


VALID = valid_small()


@st.composite
def perturbed(draw):
    """A valid presentation with one structure constant moved."""
    p = draw(st.sampled_from(VALID))
    role = draw(st.sampled_from(sorted(p.ops)))
    n = p.space.dim
    key = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    entries = dict(p.op(role).entries)
    entries[key] = entries.get(key, 0) + draw(SCALARS)
    ops = dict(p.ops)
    ops[role] = BilinearOp(p.space, p.space, p.space, entries)
    return StructurePresentation(p.space, ops, p.kind)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(presentations())
def test_random_sparse_presentations_agree_with_the_dense_oracle(p):
    assert_same_report(p)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(perturbed())
def test_single_entry_perturbations_agree_with_the_dense_oracle(p):
    assert_same_report(p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(presentations(scalars=JETS, max_dim=3))
def test_jet_valued_presentations_agree_with_the_dense_oracle(p):
    assert_same_layered_report(p, 2)


def test_every_valid_instance_passes_both_checkers():
    for p in VALID:
        assert dense_check_structure(p).passed and check_structure(p).passed


def test_perturbed_poly_jet_agrees_with_the_dense_oracle(poly2):
    layers = dict(poly2.jet.layers)
    dots = list(layers["dot"])
    entries = dict(dots[2].entries)
    entries[(0, 1, 0)] = entries.get((0, 1, 0), 0) + Fraction(3, 2)
    dots[2] = BilinearOp(poly2.space, poly2.space, poly2.space, entries)
    layers["dot"] = tuple(dots)
    jet = DeformationJet(poly2.jet.kind, poly2.jet.order, layers)
    report = check_deformation(jet)
    assert not report.passed and report.first_failing_order() == 2
    subject = f"{jet.kind} deformation through order {jet.order}"
    assert_same_failures(report, dense_check_structure(jet_presentation(jet), subject))
    assert_same_layered_report(jet_presentation(jet), jet.order, subject)


# ---------------------------------------------------------------------------
# deformations: layer by layer against the oracle on the merged jet

def _moved(op, key, amount):
    entries = dict(op.entries)
    entries[key] = entries.get(key, 0) + amount
    return BilinearOp(op.left, op.right, op.out, entries)


@st.composite
def deformation_jets(draw):
    """A valid layer 0 of a random kind and N = 0..3 rational layers above
    it, each a scaled copy of layer 0 (which keeps every identity) or random
    sparse constants; then maybe one structure constant moved at a random
    layer."""
    p = draw(st.sampled_from(VALID))
    order = draw(st.integers(0, 3))
    n = p.space.dim
    key = st.tuples(*[st.integers(0, n - 1)] * 3)
    scaled = draw(st.booleans())
    layers = {}
    for role, op in p.ops.items():
        per_order = [op]
        for _ in range(order):
            if scaled:
                per_order.append(op.scale(draw(SCALARS)))
            else:
                cells = draw(st.dictionaries(key, SCALARS, max_size=n))
                per_order.append(BilinearOp(p.space, p.space, p.space, cells))
        layers[role] = per_order
    if draw(st.booleans()):
        role = draw(st.sampled_from(sorted(layers)))
        s = draw(st.integers(0, order))
        layers[role][s] = _moved(layers[role][s], draw(key), draw(SCALARS))
    return DeformationJet(p.kind, order, layers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(deformation_jets())
def test_deformation_checks_agree_with_the_dense_oracle_on_the_merged_jet(j):
    if not dense_check_structure(j.layer0()).passed:
        with pytest.raises(ValueError, match="layer 0 is not a valid structure"):
            check_deformation(j)
        return
    subject = f"{j.kind} deformation through order {j.order}"
    assert_same_failures(check_deformation(j),
                         dense_check_structure(jet_presentation(j), subject))


def _small_module_jets():
    """Module jets derived from the D=2 poly example at N = 1..3: its
    tridendriform bimodule, its regular bimodule with and without carrier
    product, and a module deformed by derivations of a commutative base."""
    out = []
    for order in (1, 2, 3):
        ex = gen_truncated_poly_example(2, 3, 2, order)
        base = StructurePresentation(ex.space, {"circ": ex.presentation.op("dot")},
                                     "commutative-associative")
        context = regular_bimodule(base)
        pair = module_derivation_pair(ex.derivations, ex.derivations, context)
        out += [tridendriform_bimodule_jet(ex.jet),
                regular_bimodule_jet(derive_deformation(base, ex.derivations, order)),
                regular_bimodule_jet(derive_deformation(base, ex.derivations, order),
                                     plain=True),
                derive_deformation(context, pair, order)]
    return out


MODULE_JETS = _small_module_jets()


@st.composite
def module_jets(draw):
    """A derived module jet, maybe with one coefficient moved at a random
    layer: an action matrix cell, a carrier product or a base product."""
    mj = draw(st.sampled_from(MODULE_JETS))
    where = draw(st.sampled_from(("none", "left", "right", "dot", "circ")))
    if where == "none":
        return mj
    s = draw(st.integers(0, mj.order))
    amount = draw(SCALARS)
    base_layers, carrier_layers = dict(mj.base_layers), dict(mj.carrier_layers)
    action_layers = dict(mj.action_layers)
    if where in ("left", "right"):
        nv = mj.carrier.dim
        i = draw(st.integers(0, mj.base_space.dim - 1))
        r, c = draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1))
        per_order = list(action_layers[where])
        per_order[s] = _moved(per_order[s], (i, c, r), amount)
        action_layers[where] = per_order
    else:
        layers = carrier_layers if where == "dot" else base_layers
        n = (mj.carrier if where == "dot" else mj.base_space).dim
        per_order = list(layers[where])
        per_order[s] = _moved(per_order[s], draw(st.tuples(*[st.integers(0, n - 1)] * 3)),
                              amount)
        layers[where] = per_order
    return ModuleDeformationJet(mj.order, base_layers, carrier_layers, action_layers)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(module_jets())
def test_module_deformation_checks_agree_with_the_merged_jet_module(mj):
    if not check_module(mj.layer0()).passed:
        with pytest.raises(ValueError, match="layer 0 is not a valid module"):
            check_deformation(mj)
        return
    subject = f"module deformation through order {mj.order}"
    assert_same_failures(check_deformation(mj),
                         dense_check_structure(semidirect(jet_module(mj)), subject))


def test_deformation_checks_make_no_jet_multiplications(poly3, poly2, monkeypatch):
    module_jet = tridendriform_bimodule_jet(poly3.jet)
    spec = OOperatorSpec(LinearMap.identity(poly3.space), Fraction(1), module_jet.layer0())
    ehat = dual_semidirect_jet(tridendriform_bimodule_jet(poly2.jet).semidirect_jet())
    r = construct_solutions("tri-aybe", poly2.presentation).tensors["alpha1-plus"]
    calls = []
    mul = Jet.__mul__

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    assert check_deformation(poly3.jet).passed
    assert check_deformation(module_jet).passed
    assert check_scalar_deformation(spec, module_jet).passed
    assert deformation_transfer(r, ehat).passed
    assert deformation_transfer(r, ehat, invariance_only=True).passed
    for tag in DIAGRAM_TAGS:
        assert verify_diagram(tag).passed, tag
    assert calls == []
    Jet.h(1) * 2
    assert len(calls) == 1


def test_integer_evaluators_reject_jet_valued_presentations(poly2):
    """The evaluators take rational constants only; one jet cell, even
    beside rational ones, raises ValueError naming the layered entry points."""
    space = poly2.space
    circ = dict(poly2.presentation.op("dot").entries)
    circ[(0, 0, 2)] = Jet.h(2)
    p = StructurePresentation(space, {"circ": BilinearOp(space, space, space, circ)},
                              "commutative-associative")
    r = TensorElement.zero(space, space)
    rational = StructurePresentation(space, {"circ": poly2.presentation.op("dot")},
                                     "commutative-associative")
    jet_r = TensorElement.from_entries(space, space, [(0, 1, Jet.h(2))])
    calls = [lambda: check_structure(p), lambda: commutativity_failures(p),
             lambda: aw1_induce(r, p), lambda: invariance_residual("associative", r, p),
             lambda: ybe_residual("aybe", jet_r, rational)]
    calls += [lambda kind=kind: ybe_residual(kind, r, p) for kind in ("aybe", "aybe-op")]
    for call in calls:
        with pytest.raises(ValueError, match="jet-valued scalars are not evaluated; "
                                             "pass a deformation by its rational layers"):
            call()


def test_each_word_is_joined_once_per_check(poly2, monkeypatch):
    """The evaluator keeps a word that a later term reuses instead of joining
    it again: one _word_values call per distinct (outer, inner, side)."""
    limit = qcl(poly2.jet)
    _, identities, _ = structures.IDENTITIES[limit.kind]
    words = {word[:3] for *_, terms in identities for _, word in terms}
    calls = []
    word_values = structures._word_values

    def counted(ops, outer, inner, side):
        calls.append((outer, inner, side))
        return word_values(ops, outer, inner, side)

    monkeypatch.setattr(structures, "_word_values", counted)
    assert check_structure(limit).passed
    assert len(calls) == len(set(calls)) and set(calls) == words
