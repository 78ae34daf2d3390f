#!/usr/bin/env python3
"""Mutation testing for chosen functions, with nothing but the standard library.

    python3 scripts/mutants.py structures:semidirect operators:induce_splitting \\
        -- tests/test_module_roles.py tests/test_golden.py

Each target is module:name, where name is a top-level function, a method
(Class.method) or a top-level assignment such as a table, in src/jetalg/.
Every mutant is one small change inside the target's source:

  arith   + and - swapped, * turned into +
  compare a comparison flipped (== and !=, < and >=, > and <=, in and not in,
          is and is not)
  const   an integer constant 0, 1 or 2 changed (0 -> 1, 1 -> 0, 2 -> 3)
  side    the string "left" and "right" swapped
  neg     a unary minus or a `not` dropped
  if      the test of an if statement or conditional expression negated

Each mutant is written into its own temporary copy of src/ and tests/ (the
checkout is never touched) and the pytest selection after `--` runs on it
with -x, one mutant per CPU at a time.  A failing run kills the mutant, and
so does a run past ten minutes; a passing one lets it survive.
Mutants listed in scripts/mutants_equivalent.txt (file, function and the
mutation's description, one per line, with a reason) are reported as
equivalent instead of surviving.  The exit status is 1 when any other
mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "mutants_equivalent.txt"
TIMEOUT = 600  # seconds for one pytest run; a mutant that hangs is killed

_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
_COMPARE = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
            ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
            ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_CONST = {0: 1, 1: 0, 2: 3}
_SIDE = {"left": "right", "right": "left"}


def _target_node(tree: ast.Module, name: str):
    head, _, method = name.partition(".")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == head:
            if not method:
                return node
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and sub.name == method:
                    return sub
        if not method and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == head for t in targets):
                return node
    raise SystemExit(f"no top-level {name!r} in the module")


def _sites(node):
    """(node, mutation, shown) for every mutation inside node, in a fixed
    order; shown is the node whose source names the mutation: a constant's
    enclosing expression, an if's test, else the node itself."""
    parent = {id(child): up for up in ast.walk(node) for child in ast.iter_child_nodes(up)}
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and type(sub.op) in _ARITH:
            out.append((sub, f"arith {type(sub.op).__name__}->{_ARITH[type(sub.op)].__name__}",
                        sub))
        elif isinstance(sub, ast.Compare):
            out += [(sub, f"compare#{k} {type(op).__name__}->{_COMPARE[type(op)].__name__}", sub)
                    for k, op in enumerate(sub.ops) if type(op) in _COMPARE]
        elif isinstance(sub, ast.Constant) and type(sub.value) is int and sub.value in _CONST:
            up = parent[id(sub)]
            sign = ""
            if isinstance(up, ast.UnaryOp) and isinstance(up.op, ast.USub):
                sign, up = "-", parent[id(up)]
            out.append((sub, f"const {sign}{sub.value}->{sign}{_CONST[sub.value]}", up))
        elif isinstance(sub, ast.Constant) and sub.value in _SIDE:
            out.append((sub, f"side {sub.value}->{_SIDE[sub.value]}", parent[id(sub)]))
        elif isinstance(sub, ast.UnaryOp) and isinstance(sub.op, (ast.USub, ast.Not)):
            out.append((sub, f"neg drop {type(sub.op).__name__}", sub))
        elif isinstance(sub, (ast.If, ast.IfExp)):
            out.append((sub, "if negate", sub.test))
    return out


def _describe(mutation: str, shown, text: str) -> str:
    """The mutation with the source it changes, whitespace collapsed."""
    seg = ast.get_source_segment(text, shown) or ast.unparse(shown)
    return f"{mutation}: {' '.join(seg.split())}"


def _apply(sub, mutation: str):
    kind = mutation.split(" ", 1)[0]
    if kind == "arith":
        sub.op = _ARITH[type(sub.op)]()
    elif kind.startswith("compare#"):
        k = int(kind.split("#")[1])
        sub.ops[k] = _COMPARE[type(sub.ops[k])]()
    elif kind == "const":
        sub.value = _CONST[sub.value]
    elif kind == "side":
        sub.value = _SIDE[sub.value]
    elif kind == "neg":
        return sub.operand
    elif kind == "if":
        sub.test = ast.UnaryOp(op=ast.Not(), operand=sub.test)
    return sub


class _Replace(ast.NodeTransformer):
    def __init__(self, old, new):
        self.old, self.new = old, new

    def visit(self, node):
        if node is self.old:
            return self.new
        return super().visit(node)


def mutants(module: str, name: str):
    """(file, function, line, description, mutated source) for one target."""
    path = ROOT / "src" / "jetalg" / f"{module}.py"
    text = path.read_text()
    sites = [(sub.lineno, _describe(mutation, shown, text))
             for sub, mutation, shown in _sites(_target_node(ast.parse(text), name))]
    for index, (line, description) in enumerate(sites):
        tree = ast.parse(text)
        sub, mutation, _ = _sites(_target_node(tree, name))[index]
        tree = _Replace(sub, _apply(sub, mutation)).visit(tree)
        yield path.name, name, line, description, ast.unparse(ast.fix_missing_locations(tree))


def _copy(workdir: Path) -> Path:
    dest = Path(tempfile.mkdtemp(dir=workdir))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return dest


def _run(copy: Path, selection) -> str:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    try:
        proc = subprocess.run(cmd, cwd=copy, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if proc.returncode == 0 else "killed"


def _equivalent():
    known = set()
    if EQUIVALENT.exists():
        for raw in EQUIVALENT.read_text().splitlines():
            line = raw.split("  #", 1)[0].strip()
            if line and not line.startswith("#"):
                file, function, description = line.split(" ", 2)
                known.add((file, function, description))
    return known


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="+", help="module:name, e.g. structures:semidirect")
    ap.add_argument("--workdir", help="where the temporary copies go")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, selection = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if not selection:
        ap.error("give a pytest selection after --")
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        base = _copy(workdir)
        if _run(base, selection) != "survived":
            raise SystemExit("the selection fails on the unmutated code")
        shutil.rmtree(base)
        todo = [m for target in args.targets for m in mutants(*target.split(":", 1))]
        known = _equivalent()

        def test(mutant):
            file, name, line, description, source = mutant
            copy = _copy(workdir)
            try:
                (copy / "src" / "jetalg" / file).write_text(source)
                return _run(copy, selection)
            finally:
                shutil.rmtree(copy)

        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            verdicts = list(pool.map(test, todo))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = {"killed": 0, "survived": 0, "equivalent": 0}
    for (file, name, line, description, _), verdict in zip(todo, verdicts):
        if verdict == "survived" and (file, name, description) in known:
            verdict = "equivalent"
        tally[verdict.split(" ")[0]] += 1
        print(f"{file}:{line} {name}: {verdict}: {description}")
    print(f"{len(todo)} mutants: {tally['killed']} killed, {tally['survived']} survived, "
          f"{tally['equivalent']} known equivalent")
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
