"""The golden command corpus: a fixed list of CLI steps and how to replay them.

Each step either runs `jetalg.cli.main` in-process, writes an input file, or
edits a JSON artifact that an earlier step wrote.  Replaying the steps in a
fresh directory yields one record per command: the argument list, the exit
code, stdout and stderr (the directory replaced by the token {tmp}), and the
sha256 of every file the command wrote or changed.  tests/golden/corpus.json
holds the records of the committed code; scripts/regen_golden.py rewrites it.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from pathlib import Path

from jetalg.cli import main

TOKEN = "{tmp}"
CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"


# ---------------------------------------------------------------------------
# edits: each takes a loaded JSON object and returns the tampered copy


def _move_first_entry(entries):
    """Move the first structure constant [i, j, k, c] to the lowest free
    output index; a degree-dropping product breaks the identities."""
    i, j, k, c = entries[0]
    taken = {tuple(e[:3]) for e in entries}
    k2 = next(k2 for k2 in range(k) if (i, j, k2) not in taken)
    entries[0] = [i, j, k2, c]


def _move_cell(matrix):
    """Move the first nonzero cell of the last nonzero column to the lowest
    free row of that column."""
    n = len(matrix)
    for col in reversed(range(len(matrix[0]))):
        rows = [r for r in range(n) if matrix[r][col] != "0"]
        free = [r for r in range(n) if matrix[r][col] == "0"]
        if rows and free:
            r, target = rows[0], free[0]
            matrix[target][col], matrix[r][col] = matrix[r][col], "0"
            return
    raise ValueError("no nonzero cell to move")


def structure_moved(d):
    _move_first_entry(d["ops"]["succ"])
    return d


def jet_moved(d):
    role = sorted(d["layers"])[-1]
    _move_first_entry(d["layers"][role][1])
    return d


def operator_moved(d):
    _move_cell(d["matrix"])
    return d


def module_of(d):
    return d["context"]


def module_moved(d):
    d = d["context"]
    role = sorted(d["actions"])[0]
    _move_cell(d["actions"][role][1])
    return d


def module_short(d):
    d = d["context"]
    role = sorted(d["actions"])[0]
    d["actions"][role] = d["actions"][role][:-1]
    return d


def tensor_moved(d):
    _move_cell(d["matrix"])
    return d


def scalar_decimal(d):
    d["ops"]["succ"][0][3] = "1.5"
    return d


EDITS = {f.__name__: f for f in (structure_moved, jet_moved, operator_moved,
                                 module_of, module_moved, module_short,
                                 tensor_moved, scalar_decimal)}


# ---------------------------------------------------------------------------
# the steps


def _steps():
    P, S, O, B = "{tmp}/poly", "{tmp}/shift", "{tmp}/out", "{tmp}/bad"
    steps = [
        ("run", ["gen", "poly-example", "--D", "2", "--N", "2", "--outdir", P]),
        ("run", ["gen", "product-shift", "-n", "2", "--base-D", "2", "--outdir", S]),
        ("edit", f"{P}/poly-operator.json", f"{P}/poly-module.json", "module_of"),
        ("edit", f"{P}/poly-structure.json", f"{B}/structure.json", "structure_moved"),
        ("edit", f"{P}/poly-jet.json", f"{B}/jet.json", "jet_moved"),
        ("edit", f"{P}/poly-base-jet.json", f"{B}/base-jet.json", "jet_moved"),
        ("edit", f"{P}/poly-operator.json", f"{B}/operator.json", "operator_moved"),
        ("edit", f"{P}/poly-operator.json", f"{B}/module.json", "module_moved"),
        ("edit", f"{P}/poly-operator.json", f"{B}/module-short.json", "module_short"),
        ("edit", f"{P}/poly-structure.json", f"{B}/decimal.json", "scalar_decimal"),
        ("write", f"{B}/not-json.json", "{\"dim\": 2,\n"),
    ]
    runs = []
    for fmt in ("text", "json"):
        f = ["--format", fmt]
        runs += [
            ["check", f"{P}/poly-structure.json", *f],
            ["check", f"{P}/poly-qcl-closed.json", *f],
            ["check", f"{S}/product-shift.json", "--kind", "tridendriform", *f],
            ["check", f"{B}/structure.json", *f],
            ["module", "check", f"{P}/poly-module.json", *f],
            ["module", "check", f"{B}/module.json", *f],
            ["deform", "check", f"{P}/poly-jet.json", *f],
            ["deform", "check", f"{P}/poly-base-jet.json", *f],
            ["deform", "check", f"{B}/jet.json", *f],
            ["oop", "check", f"{P}/poly-operator.json", *f],
            ["oop", "check", f"{B}/operator.json", *f],
            ["oop", "deform-check", f"{P}/poly-operator.json", f"{P}/poly-base-jet.json", *f],
            ["oop", "deform-check", f"{P}/poly-operator.json", f"{P}/poly-base-jet.json",
             "--module-jet", "regular-plain", *f],
            ["oop", "deform-check", f"{P}/poly-operator.json", f"{B}/base-jet.json", *f],
            ["oop", "deform-check", f"{B}/operator.json", f"{P}/poly-base-jet.json", *f],
            ["oop", "induce", f"{P}/poly-operator.json", "-o", f"{P}/split-{fmt}.json", *f],
            ["oop", "induce", f"{B}/operator.json", "-o", f"{P}/bad-split-{fmt}.json", *f],
            ["ybe", "construct", "--source", "tri-aybe", f"{S}/product-shift.json",
             "--outdir", f"{O}/tri-{fmt}", *f],
            ["ybe", "construct", "--source", "post-pybe", f"{P}/poly-qcl-closed.json",
             "--outdir", f"{O}/post-{fmt}", *f],
            ["ybe", "residual", "--kind", "aybe", f"{O}/tri-{fmt}/alpha1-plus.json",
             f"{O}/tri-{fmt}/ambient.json", *f],
            ["ybe", "residual", "--kind", "pybe", f"{O}/post-{fmt}/alpha2-minus.json",
             f"{O}/post-{fmt}/ambient.json", *f],
        ]
    steps += [("run", argv) for argv in runs]
    steps += [
        ("run", ["deform", "derive", f"{P}/poly-structure.json", "--derivations",
                 f"{P}/poly-derivations.json", "-N", "2", "-o", f"{O}/derived.json"]),
        ("run", ["deform", "qcl", f"{P}/poly-jet.json", "-o", f"{O}/qcl.json"]),
        ("run", ["deform", "qcl", f"{P}/poly-base-jet.json", "-o", f"{O}/base-qcl.json"]),
        ("run", ["ybe", "construct", "--source", "tri-aybe", f"{P}/poly-structure.json",
                 "--jet", f"{P}/poly-jet.json", "--outdir", f"{O}/tri-jet"]),
        ("run", ["ybe", "construct", "--source", "skew-from-operator",
                 f"{P}/poly-operator.json", "--outdir", f"{O}/skew"]),
        ("edit", f"{O}/tri-jet/alpha1-plus.json", f"{B}/tensor.json", "tensor_moved"),
        ("run", ["ybe", "residual", "--kind", "aybe-op", f"{O}/tri-jet/alpha1-plus.json",
                 f"{O}/tri-jet/ambient.json"]),
        ("run", ["ybe", "residual", "--kind", "aybe", f"{B}/tensor.json",
                 f"{O}/tri-jet/ambient.json"]),
        ("run", ["ybe", "residual", "--kind", "aybe", f"{B}/tensor.json",
                 f"{O}/tri-jet/ambient.json", "--format", "json"]),
        ("run", ["ybe", "transfer", f"{O}/tri-jet/alpha1-plus.json",
                 f"{O}/tri-jet/ambient-jet.json"]),
        ("run", ["ybe", "transfer", f"{O}/tri-jet/alpha3-minus.json",
                 f"{O}/tri-jet/ambient-jet.json", "--invariance-only", "--format", "json"]),
        ("run", ["ybe", "transfer", f"{B}/tensor.json", f"{O}/tri-jet/ambient-jet.json"]),
        ("run", ["ybe", "transfer", f"{B}/tensor.json", f"{O}/tri-jet/ambient-jet.json",
                 "--format", "json"]),
        # unusable input
        ("run", ["check", f"{B}/not-json.json"]),
        ("run", ["check", f"{B}/decimal.json"]),
        ("run", ["check", f"{B}/absent.json"]),
        ("run", ["check", f"{P}/poly-structure.json", "--kind", "lie"]),
        ("run", ["module", "check", f"{B}/module-short.json"]),
        ("run", ["module", "check", f"{P}/poly-structure.json"]),
        ("run", ["deform", "check", f"{P}/poly-structure.json"]),
        ("run", ["deform", "qcl", f"{S}/product-shift.json", "-o", f"{O}/never.json"]),
        ("run", ["oop", "induce", f"{P}/poly-operator.json", "-o", f"{B}/no-dir/split.json"]),
        ("run", ["oop", "check", f"{P}/poly-module.json"]),
        ("run", ["oop", "deform-check", f"{P}/poly-operator.json", f"{P}/poly-jet.json"]),
        ("run", ["ybe", "residual", "--kind", "cybe", f"{O}/tri-jet/alpha1-plus.json",
                 f"{O}/tri-jet/ambient.json"]),
        ("run", ["ybe", "transfer", f"{O}/tri-jet/alpha1-plus.json", f"{P}/poly-jet.json"]),
    ]
    for tag, extra in (("pro-diagotri", ["--D", "2", "--N", "2"]),
                       ("pro-diaid", ["--D", "2", "--N", "2"]),
                       ("pro-w1", []),
                       ("pro-w2", ["--N", "2"]),
                       ("pro-skews", ["--N", "2"]),
                       ("dendriform-final", ["--N", "2"])):
        steps.append(("run", ["diagram", "verify", tag, *extra, "--format", "json"]))
    steps.append(("run", ["diagram", "verify", "pro-diaid", "--D", "2", "--N", "2"]))
    steps.append(("run", ["diagram", "verify", "pro-w1", "--D", "1"]))
    return steps


STEPS = _steps()


# ---------------------------------------------------------------------------
# replay


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def replay(root: Path) -> list:
    """Run every step under root; one record per command, in step order."""
    root = Path(root)
    sub = lambda text: text.replace(TOKEN, str(root))  # noqa: E731
    records = []
    for kind, *args in STEPS:
        if kind == "write":
            path = Path(sub(args[0]))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(args[1])
        elif kind == "edit":
            src, dst, fn = args
            data = EDITS[fn](copy.deepcopy(json.loads(Path(sub(src)).read_text())))
            path = Path(sub(dst))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        else:
            argv = args[0]
            before = _snapshot(root)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([sub(a) for a in argv])
            after = _snapshot(root)
            records.append({
                "argv": argv,
                "exit": code,
                "stdout": out.getvalue().replace(str(root), TOKEN),
                "stderr": err.getvalue().replace(str(root), TOKEN),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            })
    return records
