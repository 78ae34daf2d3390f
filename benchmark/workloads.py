"""Seeded job lists for the three benchmark workloads.

A workload is a closed loop of passes.  Pass p draws its inputs from
`random.Random(f"{workload}:{seed}:{p}")`, so one seed always yields the
same jobs, and the library only ever sees the generated inputs.  Every job
carries a known answer that follows from the mathematics, never from the
code under test:

* every unperturbed or derived instance passes (the theorems guarantee it);
* a structure perturbed by adding a rational to one entry (i, j, k), i != j,
  of a symmetric role (`dot`, `bracket`, or a commutative `circ`) fails, and
  its report holds CommDot, AntiSym or Comm at (i, j);
* a jet whose `dot` layer s >= 1 is perturbed at (i, j, k), i != j, with
  deg k < D, fails first at order s: lower orders are untouched, and Tri7 on
  (e_i, e_j, e_m) has the order-s residual r * e_k.e_m, which is nonzero
  for any degree-one monomial m;
* every cli-pipeline step exits 0, 1 or 2 as listed with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable


JET_ORDER = 3

# q parameters of the worked example; cost does not depend on which is drawn
Q_INTS = (2, 3, 4, 5, 6, 7, -2, -3, -5)
Q_RATIONALS = tuple(Fraction(n) for n in Q_INTS) + tuple(
    Fraction(1, n) for n in (2, 3, 5, 7))


@dataclass
class Job:
    """One verification job: `call` is timed, everything else is not.

    `expect` holds the known answer: `passed` (bool) or `code` (exit code),
    and optionally `at` (i, j) with the admissible identity ids in `axioms`,
    and `order`.  `before` runs untimed just ahead of `call` and returns
    size fields for the job record.
    """

    label: str
    call: Callable[[], object]
    expect: dict
    size: dict = field(default_factory=dict)
    before: Callable[[], dict] | None = None
    files: Path | None = None      # directory whose writes are recorded
    judge: Callable = None         # (job, result) -> (ok, verdict, digest text)

    def __post_init__(self):
        if self.judge is None:
            self.judge = judge_report


def draw_q(rng, choices, D=6):
    """A (q1, q2) pair with q1^a q2^b != 1 for every exponent the example uses."""
    while True:
        q1, q2 = rng.choice(choices), rng.choice(choices)
        if all(Fraction(q1) ** a * Fraction(q2) ** b != 1
               for a in range(2 * D + 1) for b in range(2 * D + 1 - a) if a or b):
            return q1, q2


def draw_rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def draw_pair(rng, n):
    i, j = rng.sample(range(n), 2)
    return i, j


def nnz(ops) -> dict:
    return {role: len(op.entries) for role, op in sorted(ops.items())}


# ---------------------------------------------------------------------------
# judging

def report_digest(report) -> str:
    """Canonical text of a report: verdict, checked ids and every failure."""
    failures = [[f.axiom, list(f.indices), f.order,
                 sorted((str(k), str(v)) for k, v in f.residual.items())]
                for f in report.failures]
    return json.dumps([report.subject, report.passed, list(report.checked), failures])


def _matches(expect, passed, failures, first_order):
    """failures: (axiom, indices) pairs of the report."""
    if passed != expect["passed"]:
        return False
    if "at" in expect and not any(
            axiom in expect["axioms"] and tuple(idx) == tuple(expect["at"])
            for axiom, idx in failures):
        return False
    return "order" not in expect or first_order == expect["order"]


def judge_report(job, report):
    """(matches the known answer, verdict, digest) for an AxiomReport."""
    ok = _matches(job.expect, report.passed,
                  [(f.axiom, f.indices) for f in report.failures],
                  report.first_failing_order())
    verdict = {"passed": report.passed, "order": report.first_failing_order()}
    return ok, verdict, report_digest(report)


def judge_cli(job, result):
    code, out, err = result
    verdict = {"code": code}
    ok = code == job.expect["code"]
    if ok and ("at" in job.expect or "order" in job.expect):
        report = json.loads(out)
        orders = [f["order"] for f in report["failures"] if f["order"] is not None]
        verdict["order"] = min(orders) if orders else None
        ok = _matches(dict(job.expect, passed=False), report["passed"],
                      [(f["axiom"], f["indices"]) for f in report["failures"]],
                      verdict["order"])
    return ok, verdict, json.dumps([code, out, err])



# ---------------------------------------------------------------------------
# axiom-check

class AxiomCheck:
    """check_structure / check_deformation / check_module on poly examples.

    For each D in PLAN a pass draws a poly example at N=3 and runs the listed
    jobs on it: the tridendriform splitting ("tri"), its post-Poisson limit
    ("pp"), its jet ("jet"), the tridendriform bimodule over the commutative
    total ("cbim") and over the associative total ("bim"); a trailing "*"
    marks a seeded single-entry perturbation.  Product-shift algebras at
    n = 2, 3, 4 close the pass.  The three D=6 jet checks are the largest
    jobs and hold the 90th percentile; the median falls among D=4, 5 checks.
    """

    name = "axiom-check"
    PLAN = {4: ("tri", "pp", "pp*", "jet", "jet*", "cbim", "cbim*", "bim"),
            5: ("tri", "pp", "pp*", "cbim", "cbim*", "bim"),
            6: ("jet", "jet*", "jet*", "cbim*")}
    PRODUCT_SHIFT = ((2, 6), (3, 5), (4, 4))   # (copies n, base degree)

    def __init__(self, J, seed, workdir):
        self.J, self.seed = J, seed

    def jobs(self, p):
        J = self.J
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        jobs = []
        for D, plan in self.PLAN.items():
            q1, q2 = draw_q(rng, Q_RATIONALS)
            ex = J.gen_truncated_poly_example(q1, q2, D, JET_ORDER)
            limit = J.qcl(ex.jet) if "pp" in plan else None
            for key in plan:
                jobs.append(getattr(self, "_" + key.replace("*", "_bad"))(rng, ex, D, limit))
        for n, base_D in self.PRODUCT_SHIFT:
            base = J.truncated_polynomial_algebra(base_D)
            scaled = J.StructurePresentation(
                base.space, {"circ": base.op("circ").scale(draw_rational(rng))}, base.kind)
            ps = J.gen_product_shift(scaled, n)
            jobs.append(self._structure_job(f"product-shift n={n}", ps, {"passed": True}))
        return jobs

    def _structure_job(self, label, p, expect):
        J = self.J
        return Job(label, lambda: J.check_structure(p), expect,
                   {"kind": p.kind, "dim": p.space.dim, "nnz": nnz(p.ops), "order": 0})

    def _module_job(self, label, m, expect):
        J = self.J
        return Job(label, lambda: J.check_module(m), expect,
                   {"kind": f"module over {m.kind}",
                    "dim": m.base.space.dim + m.carrier.dim,
                    "nnz": dict(nnz(m.carrier_ops), base=sum(nnz(m.base.ops).values())),
                    "order": 0})

    def _jet_job(self, label, jet, expect):
        J = self.J
        return Job(label, lambda: J.check_deformation(jet), expect,
                   {"kind": jet.kind, "dim": jet.space.dim, "order": jet.order,
                    "nnz": {r: [len(op.entries) for op in ops]
                            for r, ops in sorted(jet.layers.items())}})

    def _tri(self, rng, ex, D, limit):
        return self._structure_job(f"tridendriform D={D}", ex.presentation, {"passed": True})

    def _pp(self, rng, ex, D, limit):
        return self._structure_job(f"post-poisson D={D}", limit, {"passed": True})

    def _pp_bad(self, rng, ex, D, limit):
        n = ex.space.dim
        role = rng.choice(("dot", "bracket"))
        i, j = draw_pair(rng, n)
        ops = dict(limit.ops)
        ops[role] = bump(self.J, limit.op(role), i, j, rng.randrange(n), draw_rational(rng))
        return self._structure_job(
            f"post-poisson D={D} perturbed",
            self.J.StructurePresentation(limit.space, ops, limit.kind),
            {"passed": False, "at": (i, j),
             "axioms": ("CommDot",) if role == "dot" else ("AntiSym",)})

    def _jet(self, rng, ex, D, limit):
        return self._jet_job(f"jet D={D}", ex.jet, {"passed": True})

    def _jet_bad(self, rng, ex, D, limit):
        jet = ex.jet
        s = rng.randint(1, jet.order)
        low = [idx for idx, m in enumerate(ex.monomials) if sum(m) < D]
        i, j = draw_pair(rng, ex.space.dim)
        layers = dict(jet.layers)
        dots = list(layers["dot"])
        dots[s] = bump(self.J, dots[s], i, j, rng.choice(low), draw_rational(rng))
        layers["dot"] = tuple(dots)
        return self._jet_job(f"jet D={D} perturbed",
                             self.J.DeformationJet(jet.kind, jet.order, layers),
                             {"passed": False, "order": s})

    def _cbim(self, rng, ex, D, limit):
        m = self.J.tridendriform_bimodule(ex.presentation, commutative=True)
        return self._module_job(f"commutative bimodule D={D}", m, {"passed": True})

    def _cbim_bad(self, rng, ex, D, limit):
        J = self.J
        m = J.tridendriform_bimodule(ex.presentation, commutative=True)
        na, nv = m.base.space.dim, m.carrier.dim
        i, j = draw_pair(rng, nv)
        dot = bump(J, m.carrier_ops["dot"], i, j, rng.randrange(nv), draw_rational(rng))
        return self._module_job(
            f"commutative bimodule D={D} perturbed",
            J.ModuleData(m.base, m.carrier, {"dot": dot}, m.actions),
            {"passed": False, "at": (na + i, na + j), "axioms": ("Comm",)})

    def _bim(self, rng, ex, D, limit):
        return self._module_job(f"bimodule D={D}",
                                self.J.tridendriform_bimodule(ex.presentation),
                                {"passed": True})


def bump(J, op, i, j, k, r):
    """op with r added to the structure constant (i, j, k)."""
    entries = dict(op.entries)
    entries[(i, j, k)] = entries.get((i, j, k), 0) + r
    return J.BilinearOp(op.left, op.right, op.out, entries)


# ---------------------------------------------------------------------------
# diagram-routes

class DiagramRoutes:
    """The six verify_diagram routes, plus pro-diagotri and pro-diaid at D=4.

    pro-w1 runs twice with independent q, so that the 90th percentile falls
    inside its group rather than on the edge between two routes.
    """

    name = "diagram-routes"

    ROUTES = (("pro-diagotri", True, None), ("pro-diaid", True, None),
              ("pro-w1", True, None), ("pro-w1", True, None), ("pro-w2", True, None),
              ("pro-skews", False, None), ("dendriform-final", False, None),
              ("pro-diagotri", True, 4), ("pro-diaid", True, 4))

    def __init__(self, J, seed, workdir):
        self.J, self.seed = J, seed

    def jobs(self, p):
        J = self.J
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        jobs = []
        for tag, takes_q, D in self.ROUTES:
            params = {}
            if takes_q:
                params["q1"], params["q2"] = draw_q(rng, Q_RATIONALS)
            if D is not None:
                params["D"] = D
            label = tag + ("" if D is None else f" D={D}")
            jobs.append(Job(label, lambda tag=tag, params=params: J.verify_diagram(tag, **params),
                            {"passed": True},
                            {"kind": "diagram", "route": tag,
                             "params": {k: str(v) for k, v in params.items()}}))
        return jobs


# ---------------------------------------------------------------------------
# cli-pipeline

_MONOMIAL = re.compile(r"x([12])(?:\^(\d+))?")


def label_degree(label: str) -> int:
    return sum(int(e or 1) for _, e in _MONOMIAL.findall(label))


def file_size_fields(path: Path) -> dict:
    """kind, dim, nnz and jet order of a structure or deformation file."""
    data = json.loads(path.read_text())
    out = {"kind": data.get("kind"), "dim": data.get("dim")}
    if "ops" in data:
        out["nnz"] = {r: len(e) for r, e in sorted(data["ops"].items())}
        out["order"] = 0
    if "layers" in data:
        out["nnz"] = {r: [len(e) for e in ls] for r, ls in sorted(data["layers"].items())}
        out["order"] = data["order"]
    return out


def run_cli(J, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = J.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliPipeline:
    """jetalg.cli.main in-process over files, one poly example per D.

    A pass runs the pipeline at D=3 and at D=4, in seeded order.  Each
    pipeline generates the example, checks and deforms it, builds both
    solution bundles, transfers two seeded solutions, and feeds in tampered
    files (exit 1), a malformed file and a wrong --kind (exit 2).  The two
    D=4 transfers and constructs are the largest jobs and hold the 90th
    percentile.  `deform check` of poly-base-jet.json exits 1 at order 1 by
    the mathematics: the file is labelled commutative-associative, but its
    order-1 layer x1 * x2 -> (d1 x1)(d2 x2) = x1x2 is not symmetric, since
    d1 x2 = 0.
    """

    name = "cli-pipeline"
    SOLUTIONS = tuple(f"alpha{i}-{sign}" for i in range(1, 5) for sign in ("plus", "minus"))

    def __init__(self, J, seed, workdir):
        self.J, self.seed = J, seed
        self.root = Path(workdir)
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)

    def jobs(self, p):
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        order = rng.sample((3, 4), 2)
        return [job for D in order for job in self._pipeline(rng, D)]

    def _pipeline(self, rng, D):
        J = self.J
        q1, q2 = draw_q(rng, Q_INTS, D)
        w = self.root / f"D{D}"
        if w.exists():
            shutil.rmtree(w)
        w.mkdir()

        def f(name):
            return str(w / name)

        jobs = []

        def step(argv, code, inputs=(), before=None, **expect):
            def sizes():
                extra = before() if before else {}
                fields = {}
                for name in inputs:
                    path = w / name
                    if path.suffix == ".json" and path.exists():
                        try:
                            fields.update(file_size_fields(path))
                        except ValueError:
                            pass
                        break
                fields["bytes_read"] = sum((w / n).stat().st_size for n in inputs
                                           if (w / n).exists())
                fields.update(extra)
                return fields

            command = []
            for a in argv:
                if a.startswith(("-", str(w))):
                    break
                command.append(a)
            jobs.append(Job(" ".join(command + list(inputs)),
                            lambda: run_cli(J, argv), dict(expect, code=code),
                            before=sizes, files=w, judge=judge_cli))

        step(["gen", "poly-example", f"--q1={q1}", f"--q2={q2}", "--D", str(D),
              "--N", str(JET_ORDER), "--outdir", str(w)], 0)
        step(["check", f("poly-structure.json")], 0, ["poly-structure.json"])
        step(["deform", "check", f("poly-jet.json")], 0, ["poly-jet.json"])
        step(["deform", "check", f("poly-base-jet.json"), "--format", "json"], 1,
             ["poly-base-jet.json"], order=1)
        step(["deform", "qcl", f("poly-jet.json"), "-o", f("limit.json")], 0,
             ["poly-jet.json"])
        step(["check", f("limit.json"), "--kind", "post-poisson", "--format", "json"], 0,
             ["limit.json"])
        step(["oop", "check", f("poly-operator.json")], 0, ["poly-operator.json"])
        step(["oop", "deform-check", f("poly-operator.json"), f("poly-base-jet.json")], 0,
             ["poly-operator.json", "poly-base-jet.json"])
        step(["oop", "induce", f("poly-operator.json"), "-o", f("induced.json")], 0,
             ["poly-operator.json"])
        step(["ybe", "construct", "--source", "tri-aybe", f("poly-structure.json"),
              "--jet", f("poly-jet.json"), "--outdir", f("sol")], 0,
             ["poly-structure.json", "poly-jet.json"])
        step(["ybe", "construct", "--source", "post-pybe", f("limit.json"),
              "--outdir", f("psol")], 0, ["limit.json"])
        first, second = (f"sol/{name}.json" for name in rng.sample(self.SOLUTIONS, 2))
        step(["ybe", "residual", "--kind", "aybe", f(first), f("sol/ambient.json")], 0,
             ["sol/ambient.json", first])
        for tensor in (first, second):
            step(["ybe", "transfer", f(tensor), f("sol/ambient-jet.json")], 0,
                 ["sol/ambient-jet.json", tensor])

        # tampered limit: one symmetric entry (i, j, k), i != j
        role = rng.choice(("dot", "bracket"))
        dim = (D + 1) * (D + 2) // 2 - 1
        i, j = draw_pair(rng, dim)
        k, r = rng.randrange(dim), draw_rational(rng)
        step(["check", f("limit-tampered.json"), "--format", "json"], 1,
             ["limit-tampered.json"],
             before=lambda: tamper(w / "limit.json", w / "limit-tampered.json",
                                   ["ops", role], i, j, k, r),
             at=(i, j), axioms=("CommDot",) if role == "dot" else ("AntiSym",))

        # tampered jet: dot layer s, target of degree below D
        s = rng.randint(1, JET_ORDER)
        ij = draw_pair(rng, dim)
        r2 = draw_rational(rng)
        pick = rng.random()

        def tamper_jet():
            labels = json.loads((w / "poly-jet.json").read_text())["basis"]
            low = [idx for idx, lbl in enumerate(labels) if label_degree(lbl) < D]
            return tamper(w / "poly-jet.json", w / "jet-tampered.json",
                          ["layers", "dot", s], *ij, low[int(pick * len(low))], r2)

        step(["deform", "check", f("jet-tampered.json"), "--format", "json"], 1,
             ["jet-tampered.json"], before=tamper_jet, order=s)

        def malformed():
            text = (w / "poly-structure.json").read_text()
            (w / "malformed.json").write_text(text[: len(text) // 2])
            return {}

        step(["check", f("malformed.json")], 2, ["malformed.json"], before=malformed)
        step(["check", f("poly-structure.json"), "--kind", "post-poisson"], 2,
             ["poly-structure.json"])
        return jobs


def tamper(src: Path, dst: Path, where, i, j, k, r) -> dict:
    """Copy src to dst with r added to entry (i, j, k) of the list at `where`."""
    data = json.loads(src.read_text())
    entries = data
    for key in where:
        entries = entries[key]
    for e in entries:
        if e[:3] == [i, j, k]:
            e[3] = str(Fraction(e[3]) + r)
            break
    else:
        entries.append([i, j, k, str(r)])
    dst.write_text(json.dumps(data))
    return {"tampered": {"at": [i, j, k], "by": str(r), "where": [str(x) for x in where]}}


WORKLOADS = {w.name: w for w in (AxiomCheck, DiagramRoutes, CliPipeline)}
