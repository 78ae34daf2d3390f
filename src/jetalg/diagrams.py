"""Commuting-square verifications tying together deformations, splittings,
operators and Yang-Baxter tensors.

Every route listed in DIAGRAM_TAGS rebuilds the objects on each composition
path from scratch; nothing is shared between the paths except the declared
input data.  Comparisons are exact, coefficient by coefficient, and a
failing comparison reports the first differing entry.  The step names of a
route appear in the report's checked tuple, so a report documents exactly
which equalities and axiom suites were exercised.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .deform import (
    DeformationJet,
    ModuleDeformationJet,
    check_deformation,
    derive_deformation,
    gen_integration_zinbiel,
    gen_truncated_poly_example,
    module_derivation_pair,
    qcl,
    tridendriform_bimodule_jet,
)
from .errors import ConsistencyError
from .linalg import BilinearOp, LinearMap, TensorElement
from .operators import (
    OOperatorSpec,
    check_o_operator,
    check_scalar_deformation,
    induce_splitting,
    induce_splitting_jet,
)
from .scalars import ZERO
from .structures import (
    AxiomFailure,
    AxiomReport,
    ModuleData,
    StructurePresentation,
    as_tridendriform,
    check_layers,
    check_module,
    check_structure,
    commutativity_failures,
    dualize_module,
    post_poisson_module,
    regular_bimodule,
    semidirect,
)
from .yangbaxter import (
    aw1_induce,
    aw1_induce_jet,
    construct_solutions,
    deformation_transfer,
    dual_semidirect_jet,
    dualize_deformation,
)

DIAGRAM_TAGS = (
    "pro-diagotri",
    "pro-diaid",
    "pro-w1",
    "pro-w2",
    "pro-skews",
    "dendriform-final",
)


# ---------------------------------------------------------------------------
# step bookkeeping

class _Run:
    """Accumulates named steps; each step either folds in a sub-report,
    asserts an exact equality, or guards a constructor that may raise."""

    def __init__(self, subject: str):
        self.subject = subject
        self.checked: list[str] = []
        self.failures: list[AxiomFailure] = []

    def sub(self, name: str, report: AxiomReport) -> bool:
        self.checked.append(name)
        for f in report.failures:
            self.failures.append(
                AxiomFailure(f"{name}:{f.axiom}", f.indices, f.residual, f.order))
        return report.passed

    def equal(self, name: str, left, right) -> bool:
        self.checked.append(name)
        diff = _first_difference(left, right)
        if diff is None:
            return True
        where, va, vb = diff
        self.failures.append(AxiomFailure(name, where, {0: f"{va!r} != {vb!r}"}))
        return False

    def ok(self, name: str, cond: bool, detail: str = "") -> bool:
        self.checked.append(name)
        if not cond:
            self.failures.append(AxiomFailure(name, (), {0: detail or "failed"}))
        return bool(cond)

    def guard(self, name: str, fn):
        try:
            out = fn()
            self.checked.append(name)
            return out
        except (ConsistencyError, ValueError) as exc:
            self.checked.append(name)
            self.failures.append(AxiomFailure(name, (), {0: str(exc)}))
            return None

    def report(self) -> AxiomReport:
        return AxiomReport(
            not self.failures, tuple(self.failures), tuple(self.checked), self.subject)


def _first_difference(a, b):
    """First differing coefficient of two objects of the same shape, or None.

    Returns (where, left_value, right_value); `where` is a tuple of hashable
    coordinates (role names, layer orders, matrix indices)."""
    if type(a) is not type(b):
        return ((), type(a).__name__, type(b).__name__)
    if isinstance(a, StructurePresentation):
        if a.kind != b.kind:
            return (("kind",), a.kind, b.kind)
        if a.space != b.space:
            return (("space",), a.space, b.space)
        return _dict_difference(a.ops, b.ops, ())
    if isinstance(a, BilinearOp):
        return _cell_difference(a.entries, b.entries, 0)
    if isinstance(a, LinearMap):
        return _cell_difference(a.entries, b.entries, ZERO)
    if isinstance(a, TensorElement):
        if (a.left, a.right) != (b.left, b.right):
            return (("space",), (a.left, a.right), (b.left, b.right))
        return _cell_difference(a.entries, b.entries, ZERO)
    if isinstance(a, DeformationJet):
        if a.kind != b.kind:
            return (("kind",), a.kind, b.kind)
        if a.order != b.order:
            return (("order",), a.order, b.order)
        for role in sorted(set(a.layers) | set(b.layers)):
            for s, (la, lb) in enumerate(zip(a.layers[role], b.layers[role])):
                diff = _first_difference(la, lb)
                if diff is not None:
                    where, va, vb = diff
                    return ((role, s) + tuple(where), va, vb)
        return None
    if isinstance(a, ModuleDeformationJet):
        if a.order != b.order:
            return (("order",), a.order, b.order)
        for tag, da, db in (("base", a.base_layers, b.base_layers),
                            ("carrier", a.carrier_layers, b.carrier_layers)):
            for role in sorted(set(da) | set(db)):
                for s, (la, lb) in enumerate(zip(da[role], db[role])):
                    diff = _first_difference(la, lb)
                    if diff is not None:
                        where, va, vb = diff
                        return ((tag, role, s) + tuple(where), va, vb)
        for role in sorted(set(a.action_layers) | set(b.action_layers)):
            for s, (la, lb) in enumerate(zip(a.action_layers[role], b.action_layers[role])):
                diff = _action_difference(la, lb)
                if diff is not None:
                    where, va, vb = diff
                    return ((role, s) + where, va, vb)
        return None
    if isinstance(a, ModuleData):
        diff = _first_difference(a.base, b.base)
        if diff is not None:
            where, va, vb = diff
            return (("base",) + tuple(where), va, vb)
        if a.carrier != b.carrier:
            return (("carrier",), a.carrier, b.carrier)
        diff = _dict_difference(a.carrier_ops, b.carrier_ops, ("carrier",))
        if diff is not None:
            return diff
        for role in sorted(set(a.actions) | set(b.actions)):
            diff = _action_difference(a.actions[role], b.actions[role])
            if diff is not None:
                where, va, vb = diff
                return ((role,) + where, va, vb)
        return None
    return None if a == b else ((), a, b)


def _cell_difference(ea, eb, zero):
    """First differing cell of two sparse entry dicts, absent cells reading zero."""
    for key in sorted(set(ea) | set(eb)):
        va, vb = ea.get(key, zero), eb.get(key, zero)
        if va != vb:
            return (key, va, vb)
    return None


def _action_difference(a: BilinearOp, b: BilinearOp):
    """First differing cell of two module actions, found as in one carrier
    matrix per base element: where is (i, r, c) for entry (i, c, r), and an
    absent cell reads as a zero matrix cell."""
    for i, c, r in sorted(set(a.entries) | set(b.entries), key=itemgetter(0, 2, 1)):
        va, vb = a.entries.get((i, c, r), ZERO), b.entries.get((i, c, r), ZERO)
        if va != vb:
            return ((i, r, c), va, vb)
    return None


def _dict_difference(da, db, prefix):
    roles = sorted(set(da) | set(db))
    if set(da) != set(db):
        return (prefix + ("roles",), sorted(da), sorted(db))
    for role in roles:
        diff = _first_difference(da[role], db[role])
        if diff is not None:
            where, va, vb = diff
            return (prefix + (role,) + tuple(where), va, vb)
    return None


# ---------------------------------------------------------------------------
# the routes

def _diagotri(q1, q2, D, N):
    """Splitting through an operator commutes with deriving the deformation,
    and the square closes again on the quasiclassical limits."""
    run = _Run(f"operator splitting vs. deformation (D={D}, N={N})")
    ex = gen_truncated_poly_example(q1, q2, D, N)
    base = StructurePresentation(
        ex.space, {"circ": ex.presentation.op("dot")}, "commutative-associative")
    context = regular_bimodule(base)
    spec = OOperatorSpec(ex.operator, Fraction(1), context)
    run.sub("operator", check_o_operator(spec))

    pair = ex.derivations
    mj = derive_deformation(context, module_derivation_pair(pair, pair, context), N)
    run.sub("module-jet", check_deformation(mj))
    run.sub("jet-operator", check_scalar_deformation(spec, mj))

    split0 = induce_splitting(spec)
    run.sub("splitting", check_structure(split0, "induced splitting"))
    jet_a = derive_deformation(split0, pair, N)
    jet_b = induce_splitting_jet(spec, mj)
    run.equal("paths-agree", jet_a, jet_b)
    run.sub("jet-splitting", check_deformation(jet_b))

    limit_spec = OOperatorSpec(ex.operator, Fraction(1), qcl(mj))
    run.sub("limit-operator", check_o_operator(limit_spec))
    limit = qcl(jet_b)
    run.equal("limit-square", limit, induce_splitting(limit_spec))
    run.sub("limit-splitting", check_structure(limit, "limit splitting"))
    return run.report()


def _diaid(q1, q2, D, N):
    """The identity map splits a deformation back into itself: inducing the
    module jet, checking the identity operator on it, and re-splitting
    reproduce the original layers at order zero, all orders, and the limit."""
    run = _Run(f"identity-operator round trip (D={D}, N={N})")
    ex = gen_truncated_poly_example(q1, q2, D, N)
    j = ex.jet
    run.sub("jet-splitting", check_deformation(j))
    mj = tridendriform_bimodule_jet(j)
    run.sub("module-jet", check_deformation(mj))

    m0 = mj.layer0()
    lam = Fraction(0) if m0.is_plain() else Fraction(1)
    ident = LinearMap.identity(j.space)
    spec = OOperatorSpec(ident, lam, m0)
    run.sub("operator", check_o_operator(spec))
    run.equal("split-roundtrip", induce_splitting(spec), j.layer0())

    run.sub("jet-operator", check_scalar_deformation(spec, mj))
    run.equal("jet-roundtrip", induce_splitting_jet(spec, mj), j)

    run.equal("limit-module", qcl(mj), post_poisson_module(qcl(j)))
    limit_spec = OOperatorSpec(ident, lam, qcl(mj))
    run.sub("limit-operator", check_o_operator(limit_spec))
    run.equal("limit-roundtrip", induce_splitting(limit_spec), qcl(j))
    return run.report()


def _w1_instance(run, pfx, r, ehat):
    got0 = run.guard(f"{pfx}:layer0-induce", lambda: aw1_induce(r, ehat.layer0()))
    if got0 is not None:
        m0, rep0 = got0
        run.sub(f"{pfx}:layer0-residuals", rep0)
        run.sub(f"{pfx}:layer0-module", check_module(m0))
    goth = run.guard(f"{pfx}:jet-induce", lambda: aw1_induce_jet(r, ehat))
    if goth is not None:
        mj, reph = goth
        run.sub(f"{pfx}:jet-residuals", reph)
        # every order of the module check, as check_deformation runs it after
        # its layer-0 gate; the gate would raise where layer0-module reports
        circ = tuple(op.entries for op in mj.semidirect_jet().layers["circ"])
        run.sub(f"{pfx}:jet-module", check_layers(
            "associative", {"circ": circ}, mj.order, "module over associative base"))
        if got0 is not None:
            run.equal(f"{pfx}:left-square", mj.layer0(), got0[0])
    gotl = run.guard(f"{pfx}:limit-induce", lambda: aw1_induce(r, qcl(ehat)))
    if gotl is not None:
        pl, repl = gotl
        run.sub(f"{pfx}:limit-residuals", repl)
        run.sub(f"{pfx}:limit-module", check_module(pl))


def _w1(q1, q2, D, N):
    """The induced dual module and operator correspondences hold for the
    deformed product layer by layer, and their order-zero coefficients are
    the undeformed correspondence.  Run on an identity-block tensor (whose
    symmetric part is invariant) and on a skew graph tensor (symmetric part
    zero)."""
    run = _Run(f"dual induction across deformation (D={D}, N={N})")
    ex = gen_truncated_poly_example(q1, q2, D, N)
    mj = tridendriform_bimodule_jet(ex.jet)
    ehat = dual_semidirect_jet(mj.semidirect_jet())
    bundle = run.guard("id-based:solutions",
                       lambda: construct_solutions("tri-aybe", ex.jet.layer0()))
    if bundle is not None:
        run.equal("id-based:ambient", bundle.ambient, ehat.layer0())
        _w1_instance(run, "id-based", bundle.tensors["alpha1-plus"], ehat)

    zx = gen_integration_zinbiel(D, N)
    zmj = tridendriform_bimodule_jet(zx.jet)
    zehat = dualize_deformation(zmj).semidirect_jet()
    spec = OOperatorSpec(LinearMap.identity(zx.space), Fraction(0), zmj.layer0())
    zbundle = run.guard("skew:solutions",
                        lambda: construct_solutions("skew-from-operator", spec))
    if zbundle is not None:
        run.equal("skew:ambient", zbundle.ambient, zehat.layer0())
        _w1_instance(run, "skew", zbundle.tensors["skew-graph"], zehat)
    return run.report()


def _w2(q1, q2, D, N):
    """The eight doubled-algebra tensors stay Yang-Baxter solutions with jet
    coefficients, and the limit of the deformed ambient is exactly the
    Poisson ambient whose solutions are the same eight tensors."""
    run = _Run(f"solution transfer through the doubled dual (D={D}, N={N})")
    ex = gen_truncated_poly_example(q1, q2, D, N)
    j = ex.jet
    run.sub("jet-splitting", check_deformation(j))
    hat_jet = tridendriform_bimodule_jet(j).semidirect_jet()
    run.sub("doubled-jet", check_deformation(hat_jet))
    ehat = dual_semidirect_jet(hat_jet)
    run.sub("ambient-jet", check_deformation(ehat))
    fails = commutativity_failures(ehat.layer0())
    run.ok("ambient-commutative", not fails,
           fails[0].describe() if fails else "")

    bundle = run.guard("layer0-solutions",
                       lambda: construct_solutions("tri-aybe", j.layer0()))
    if bundle is None:
        return run.report()
    run.equal("layer0-ambient", bundle.ambient, ehat.layer0())
    for name in sorted(bundle.tensors):
        run.sub(f"transfer:{name}", deformation_transfer(bundle.tensors[name], ehat))

    pp = qcl(j)
    run.sub("limit-splitting", check_structure(pp, "limit splitting"))
    pbundle = run.guard("limit-solutions",
                        lambda: construct_solutions("post-pybe", pp))
    if pbundle is not None:
        run.equal("limit-ambient", pbundle.ambient, qcl(ehat))
        for name in sorted(bundle.tensors):
            run.equal(f"limit-tensor:{name}",
                      pbundle.tensors[name], bundle.tensors[name])
    return run.report()


def _skews(D, N):
    """The skew graph tensor of a weightless operator solves the equation in
    the dual semidirect algebra, keeps solving it with jet coefficients, and
    its limit solves the Poisson equations in the limit ambient."""
    run = _Run(f"skew graph transfer (D={D}, N={N})")
    zx = gen_integration_zinbiel(D, N)
    j = zx.jet
    run.sub("jet-splitting", check_deformation(j))
    mj = tridendriform_bimodule_jet(j)
    run.sub("module-jet", check_deformation(mj))

    ident = LinearMap.identity(zx.space)
    spec = OOperatorSpec(ident, Fraction(0), mj.layer0())
    run.sub("operator", check_o_operator(spec))
    run.sub("jet-operator", check_scalar_deformation(spec, mj))

    ehat = dualize_deformation(mj).semidirect_jet()
    run.sub("ambient-jet", check_deformation(ehat))
    fails = commutativity_failures(ehat.layer0())
    run.ok("ambient-commutative", not fails,
           fails[0].describe() if fails else "")

    bundle = run.guard("layer0-solution",
                       lambda: construct_solutions("skew-from-operator", spec))
    if bundle is None:
        return run.report()
    r = bundle.tensors["skew-graph"]
    run.equal("layer0-ambient", bundle.ambient, ehat.layer0())
    run.sub("transfer", deformation_transfer(r, ehat))

    limit_m = qcl(mj)
    run.equal("limit-ambient", qcl(ehat), semidirect(dualize_module(limit_m)))
    limit_spec = OOperatorSpec(ident, Fraction(0), limit_m)
    run.sub("limit-operator", check_o_operator(limit_spec))
    pbundle = run.guard("limit-solution",
                        lambda: construct_solutions("skew-from-operator", limit_spec))
    if pbundle is not None:
        run.equal("limit-solution-ambient", pbundle.ambient, qcl(ehat))
        run.equal("limit-tensor", pbundle.tensors["skew-graph"], r)
    return run.report()


def _dendriform_final(D, N):
    """The mirrored weightless chain: the integration example splits the
    commutative product through the identity, the round trips close at every
    order and in the limit, and the graph tensors transfer."""
    run = _Run(f"weightless splitting chain (D={D}, N={N})")
    zx = gen_integration_zinbiel(D, N)
    run.sub("zinbiel", check_structure(zx.zinbiel))
    run.equal("mirror", as_tridendriform(zx.zinbiel), as_tridendriform(zx.dendriform))
    run.sub("dendriform", check_structure(zx.dendriform))

    j = zx.jet
    run.sub("jet-splitting", check_deformation(j))
    limit = qcl(j)
    run.sub("limit-splitting", check_structure(limit))
    run.equal("limit-closed-form", limit, zx.qcl_closed)

    mj = tridendriform_bimodule_jet(j)
    run.sub("module-jet", check_deformation(mj))
    ident = LinearMap.identity(zx.space)
    spec = OOperatorSpec(ident, Fraction(0), mj.layer0())
    run.sub("operator", check_o_operator(spec))
    run.equal("split-roundtrip", induce_splitting(spec), j.layer0())
    run.sub("jet-operator", check_scalar_deformation(spec, mj))
    run.equal("jet-roundtrip", induce_splitting_jet(spec, mj), j)
    limit_spec = OOperatorSpec(ident, Fraction(0), qcl(mj))
    run.sub("limit-operator", check_o_operator(limit_spec))
    run.equal("limit-roundtrip", induce_splitting(limit_spec), limit)

    bundle = run.guard("layer0-solution",
                       lambda: construct_solutions("skew-from-operator", spec))
    ehat = dualize_deformation(mj).semidirect_jet()
    run.sub("ambient-jet", check_deformation(ehat))
    if bundle is not None:
        run.equal("layer0-ambient", bundle.ambient, ehat.layer0())
        run.sub("transfer", deformation_transfer(bundle.tensors["skew-graph"], ehat))
        run.equal("limit-ambient", qcl(ehat), semidirect(dualize_module(qcl(mj))))
        pbundle = run.guard("limit-solution",
                            lambda: construct_solutions("skew-from-operator", limit_spec))
        if pbundle is not None:
            run.equal("limit-tensor",
                      pbundle.tensors["skew-graph"], bundle.tensors["skew-graph"])
    return run.report()


_DRIVERS = {
    "pro-diagotri": _diagotri,
    "pro-diaid": _diaid,
    "pro-w1": _w1,
    "pro-w2": _w2,
    "pro-skews": _skews,
    "dendriform-final": _dendriform_final,
}

_DEFAULTS = {
    "pro-diagotri": {"q1": 2, "q2": 3, "D": 3, "N": 3},
    "pro-diaid": {"q1": 2, "q2": 3, "D": 3, "N": 3},
    "pro-w1": {"q1": 2, "q2": 3, "D": 2, "N": 2},
    "pro-w2": {"q1": 2, "q2": 3, "D": 2, "N": 3},
    "pro-skews": {"D": 2, "N": 3},
    "dendriform-final": {"D": 2, "N": 3},
}


def verify_diagram(tag: str, **overrides) -> AxiomReport:
    """Run one named route on its default generated instance; keyword
    overrides (a subset of q1, q2, D, N, depending on the route) resize it.

    Overrides with value None are ignored so CLI plumbing can pass optional
    flags through unconditionally."""
    if tag not in _DRIVERS:
        raise ValueError(f"unknown diagram tag {tag!r}; expected one of {DIAGRAM_TAGS}")
    params = dict(_DEFAULTS[tag])
    supplied = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(supplied) - set(params)
    if unknown:
        raise ValueError(
            f"diagram {tag!r} does not take parameters {sorted(unknown)}")
    params.update(supplied)
    return _DRIVERS[tag](**params)
