"""Command line front end.

Subcommands move JSON artifacts between pipeline stages so every check is
independently re-runnable: generators write files, checkers read them and
emit pass/fail reports.  Exit status: 0 all assertions verified, 1 a
mathematical check failed (nonzero residual or broken guaranteed
conclusion), 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .deform import (
    check_deformation,
    derive_deformation,
    gen_product_shift,
    gen_truncated_poly_example,
    qcl,
    regular_bimodule_jet,
    tridendriform_bimodule_jet,
    truncated_polynomial_algebra,
)
from .diagrams import DIAGRAM_TAGS, verify_diagram
from .errors import ConsistencyError
from .operators import (
    OOperatorSpec,
    check_o_operator,
    check_scalar_deformation,
    induce_splitting,
)
from .scalars import scalar_low_order
from .serialize import (
    FileFormatError,
    load_deformation,
    load_derivations,
    load_module,
    load_operator,
    load_structure,
    load_tensor,
    report_to_dict,
    save_deformation,
    save_derivations,
    save_operator,
    save_structure,
    save_tensor,
    structure_to_dict,
)
from .structures import AxiomFailure, AxiomReport, check_module, check_structure
from .yangbaxter import (
    YBE_KINDS,
    construct_solutions,
    deformation_transfer,
    ybe_residual,
)


def _emit(report: AxiomReport, fmt: str, space=None) -> int:
    if fmt == "json":
        print(json.dumps(report_to_dict(report, space), indent=2, sort_keys=True))
    else:
        print(report.summary(space))
    return 0 if report.passed else 1


def _residual_entries(name, tensor, failures, limit=6):
    for key, val in tensor.sorted_entries()[:limit]:
        failures.append(AxiomFailure(name, key, {0: val}, scalar_low_order(val)))


# ---------------------------------------------------------------------------
# handlers

def _cmd_check(args) -> int:
    p = load_structure(args.file)
    if args.kind is not None and p.kind != args.kind:
        raise FileFormatError(
            f"{args.file}: kind is {p.kind!r}, expected {args.kind!r}")
    return _emit(check_structure(p, str(args.file)), args.format, p.space)


def _cmd_module_check(args) -> int:
    m = load_module(args.file)
    report = check_module(m, str(args.file))
    return _emit(report, args.format, None)


def _cmd_deform_check(args) -> int:
    j = load_deformation(args.file)
    return _emit(check_deformation(j), args.format, j.space)


def _cmd_deform_derive(args) -> int:
    p = load_structure(args.structure)
    pair = load_derivations(args.derivations, p.space)
    j = derive_deformation(p, pair, args.N)
    save_deformation(j, args.output)
    print(f"wrote order-{args.N} jet of {p.kind} structure to {args.output}")
    return 0


def _cmd_deform_qcl(args) -> int:
    j = load_deformation(args.file)
    limit = qcl(j)
    save_structure(limit, args.output)
    print(f"wrote {limit.kind} limit to {args.output}")
    return 0


def _cmd_gen_product_shift(args) -> int:
    if (args.base is None) == (args.base_D is None):
        raise FileFormatError("give exactly one of --base and --base-D")
    if args.base is not None:
        base = load_structure(args.base)
    else:
        base = truncated_polynomial_algebra(args.base_D)
    base_jet = load_deformation(args.base_jet) if args.base_jet else None
    result = gen_product_shift(base, args.n, base_jet)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if base_jet is None:
        save_structure(result, outdir / "product-shift.json")
        written.append(outdir / "product-shift.json")
    else:
        save_deformation(result, outdir / "product-shift-jet.json")
        written.append(outdir / "product-shift-jet.json")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_gen_poly_example(args) -> int:
    ex = gen_truncated_poly_example(args.q1, args.q2, args.D, args.N)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_structure(ex.presentation, outdir / "poly-structure.json")
    save_deformation(ex.jet, outdir / "poly-jet.json")
    save_structure(ex.qcl_closed, outdir / "poly-qcl-closed.json")
    save_derivations(ex.derivations, outdir / "poly-derivations.json")
    from fractions import Fraction

    from .structures import StructurePresentation, regular_bimodule

    base = StructurePresentation(
        ex.space, {"circ": ex.presentation.op("dot")}, "commutative-associative")
    save_deformation(derive_deformation(base, ex.derivations, args.N),
                     outdir / "poly-base-jet.json")
    spec = OOperatorSpec(ex.operator, Fraction(1), regular_bimodule(base))
    save_operator(spec, outdir / "poly-operator.json")
    for name in ("poly-structure.json", "poly-jet.json", "poly-qcl-closed.json",
                 "poly-derivations.json", "poly-base-jet.json",
                 "poly-operator.json"):
        print(f"wrote {outdir / name}")
    return 0


def _cmd_oop_check(args) -> int:
    spec = load_operator(args.file)
    return _emit(check_o_operator(spec, str(args.file)), args.format,
                 spec.context.base.space)


def _module_jet_from(j, how: str):
    if how == "tridendriform":
        return tridendriform_bimodule_jet(j)
    if how == "regular":
        return regular_bimodule_jet(j)
    if how == "regular-plain":
        return regular_bimodule_jet(j, plain=True)
    raise FileFormatError(f"unknown module-jet construction {how!r}")


def _cmd_oop_deform_check(args) -> int:
    spec = load_operator(args.operator)
    j = load_deformation(args.jet)
    how = args.module_jet
    if how is None:
        how = ("tridendriform"
               if j.kind in ("tridendriform", "dendriform") else "regular")
    mj = _module_jet_from(j, how)
    report = check_scalar_deformation(spec, mj)
    return _emit(report, args.format, spec.context.base.space)


def _cmd_oop_induce(args) -> int:
    spec = load_operator(args.file)
    gate = check_o_operator(spec, str(args.file))
    if not gate.passed:
        _emit(gate, args.format, spec.context.base.space)
        return 1
    split = induce_splitting(spec)
    save_structure(split, args.output)
    print(f"wrote induced {split.kind} structure to {args.output}")
    return _emit(check_structure(split, "induced splitting"), args.format,
                 split.space)


def _cmd_diagram_verify(args) -> int:
    report = verify_diagram(args.tag, q1=args.q1, q2=args.q2, D=args.D, N=args.N)
    return _emit(report, args.format, None)


def _cmd_ybe_residual(args) -> int:
    p = load_structure(args.structure)
    r = load_tensor(args.tensor, p.space)
    out = ybe_residual(args.kind, r, p)
    failures = []
    if args.kind == "pybe":
        checked = ("AybeResidual", "CybeResidual")
        _residual_entries("AybeResidual", out[0], failures)
        _residual_entries("CybeResidual", out[1], failures)
    else:
        name = {"aybe": "AybeResidual", "aybe-op": "AybeOpResidual",
                "cybe": "CybeResidual"}[args.kind]
        checked = (name,)
        _residual_entries(name, out, failures)
    report = AxiomReport(not failures, tuple(failures), checked,
                         f"{args.kind} residual of {args.tensor}")
    return _emit(report, args.format, p.space)


def _cmd_ybe_construct(args) -> int:
    if args.source == "skew-from-operator":
        data = load_operator(args.input)
    else:
        data = load_structure(args.input)
    bundle = construct_solutions(args.source, data)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_structure(bundle.ambient, outdir / "ambient.json")
    if args.jet is not None:
        if args.source != "tri-aybe":
            raise FileFormatError("--jet only applies to the tri-aybe source")
        from .yangbaxter import dual_semidirect_jet

        j = load_deformation(args.jet)
        if j.layer0() != data:
            raise FileFormatError(
                "the jet's order-0 layer does not match the input structure")
        ehat = dual_semidirect_jet(tridendriform_bimodule_jet(j).semidirect_jet())
        save_deformation(ehat, outdir / "ambient-jet.json")
    lines = [f"ambient: {bundle.ambient.kind}, dim {bundle.ambient.space.dim}"]
    for name in sorted(bundle.tensors):
        save_tensor(bundle.tensors[name], outdir / f"{name}.json")
        lines.append(f"{name}: residual zero, wrote {outdir / f'{name}.json'}")
    if args.format == "json":
        print(json.dumps({
            "source": args.source,
            "ambient": {"kind": bundle.ambient.kind,
                        "dim": bundle.ambient.space.dim,
                        "file": str(outdir / "ambient.json")},
            "tensors": {name: {"residual_zero": True,
                               "file": str(outdir / f"{name}.json")}
                        for name in sorted(bundle.tensors)},
        }, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _cmd_ybe_transfer(args) -> int:
    j = load_deformation(args.jet)
    p0 = j.layer0()
    r = load_tensor(args.tensor, p0.space)
    report = deformation_transfer(r, j, invariance_only=args.invariance_only)
    return _emit(report, args.format, p0.space)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetalg",
        description="Exact verification of algebraic structures, deformations, "
                    "operators and Yang-Baxter tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    c = sub.add_parser("check", parents=[fmt],
                       help="verify the defining identities of a structure file")
    c.add_argument("file")
    c.add_argument("--kind", help="require this structure kind")
    c.set_defaults(fn=_cmd_check)

    m = sub.add_parser("module", help="module-level checks")
    msub = m.add_subparsers(dest="subcommand", required=True)
    mc = msub.add_parser("check", parents=[fmt],
                         help="verify a module file via its semidirect structure")
    mc.add_argument("file")
    mc.set_defaults(fn=_cmd_module_check)

    d = sub.add_parser("deform", help="deformation jets")
    dsub = d.add_subparsers(dest="subcommand", required=True)
    dc = dsub.add_parser("check", parents=[fmt],
                         help="verify a deformation file order by order")
    dc.add_argument("file")
    dc.set_defaults(fn=_cmd_deform_check)
    dd = dsub.add_parser("derive",
                         help="build the jet generated by a derivation pair")
    dd.add_argument("structure")
    dd.add_argument("--derivations", required=True)
    dd.add_argument("-N", type=int, required=True, help="jet truncation order")
    dd.add_argument("-o", "--output", required=True)
    dd.set_defaults(fn=_cmd_deform_derive)
    dq = dsub.add_parser("qcl",
                         help="extract the quasiclassical limit structure")
    dq.add_argument("file")
    dq.add_argument("-o", "--output", required=True)
    dq.set_defaults(fn=_cmd_deform_qcl)

    g = sub.add_parser("gen", help="worked-example generators")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gp = gsub.add_parser("product-shift",
                         help="copies of a base algebra with shift operations")
    gp.add_argument("-n", type=int, required=True, help="number of copies")
    gp.add_argument("--base", help="base structure file")
    gp.add_argument("--base-D", type=int,
                    help="use the degree-D truncated polynomial algebra as base")
    gp.add_argument("--base-jet", help="deform the base by this jet file")
    gp.add_argument("--outdir", required=True)
    gp.set_defaults(fn=_cmd_gen_product_shift)
    ge = gsub.add_parser("poly-example",
                         help="two-variable truncated polynomial example")
    ge.add_argument("--q1", type=int, default=2)
    ge.add_argument("--q2", type=int, default=3)
    ge.add_argument("--D", type=int, required=True, help="maximal degree")
    ge.add_argument("--N", type=int, required=True, help="jet truncation order")
    ge.add_argument("--outdir", required=True)
    ge.set_defaults(fn=_cmd_gen_poly_example)

    o = sub.add_parser("oop", help="operator checks and splittings")
    osub = o.add_subparsers(dest="subcommand", required=True)
    oc = osub.add_parser("check", parents=[fmt],
                         help="verify the weighted operator identity")
    oc.add_argument("file")
    oc.set_defaults(fn=_cmd_oop_check)
    od = osub.add_parser("deform-check", parents=[fmt],
                         help="verify the operator against a deformation, orderwise")
    od.add_argument("operator")
    od.add_argument("jet")
    od.add_argument("--module-jet",
                    choices=("tridendriform", "regular", "regular-plain"),
                    help="how to read the jet as a module deformation "
                         "(default: by jet kind)")
    od.set_defaults(fn=_cmd_oop_deform_check)
    oi = osub.add_parser("induce", parents=[fmt],
                         help="write the splitting induced by an operator")
    oi.add_argument("file")
    oi.add_argument("-o", "--output", required=True)
    oi.set_defaults(fn=_cmd_oop_induce)

    dg = sub.add_parser("diagram", help="two-path commuting verifications")
    dgsub = dg.add_subparsers(dest="subcommand", required=True)
    dv = dgsub.add_parser("verify", parents=[fmt],
                          help="run both composition paths of a named route")
    dv.add_argument("tag", choices=DIAGRAM_TAGS)
    dv.add_argument("--q1", type=int)
    dv.add_argument("--q2", type=int)
    dv.add_argument("--D", type=int)
    dv.add_argument("--N", type=int)
    dv.set_defaults(fn=_cmd_diagram_verify)

    y = sub.add_parser("ybe", help="Yang-Baxter residuals and constructions")
    ysub = y.add_subparsers(dest="subcommand", required=True)
    yr = ysub.add_parser("residual", parents=[fmt],
                         help="evaluate a Yang-Baxter residual exactly")
    yr.add_argument("--kind", choices=YBE_KINDS, required=True)
    yr.add_argument("tensor")
    yr.add_argument("structure")
    yr.set_defaults(fn=_cmd_ybe_residual)
    yc = ysub.add_parser("construct", parents=[fmt],
                         help="build and verify solution tensors")
    yc.add_argument("--source",
                    choices=("tri-aybe", "post-pybe", "skew-from-operator"),
                    required=True)
    yc.add_argument("input", help="structure file, or operator file for "
                                  "skew-from-operator")
    yc.add_argument("--jet", help="tridendriform deformation of the input; "
                                  "also writes the doubled dual ambient jet")
    yc.add_argument("--outdir", required=True)
    yc.set_defaults(fn=_cmd_ybe_construct)
    yt = ysub.add_parser("transfer", parents=[fmt],
                         help="push a solution through a deformation's limit")
    yt.add_argument("tensor")
    yt.add_argument("jet")
    yt.add_argument("--invariance-only", action="store_true")
    yt.set_defaults(fn=_cmd_ybe_transfer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
