"""Outside-in tracer for the jetalg layers.

The library is never edited: `Tracer.install` replaces public functions and
a few methods with timing or counting wrappers, and `Tracer.uninstall` puts
the originals back.  jetalg modules import each other's functions by name
(`check_structure` is bound in `structures`, `deform`, `diagrams`, `cli` and
the package itself), so a function is replaced in every `jetalg*` module
attribute that *is* the original object.  Methods are patched on the class.

Spans are kept in memory as tuples and written out when the run ends.  A
span's self time is its duration minus the time covered by its child spans.
The hot methods `BilinearOp.apply` and `Jet.__mul__` are counted, not
spanned: one pro-w1 route makes about 1.7 million `apply` calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# layer -> public functions that get a span of their own
SPANNED = {
    "structures": ("check_structure", "check_module", "semidirect"),
    "deform": ("check_deformation", "derive_deformation", "qcl"),
    "operators": ("check_o_operator", "check_scalar_deformation", "induce_splitting"),
    "yangbaxter": ("construct_solutions", "deformation_transfer", "ybe_residual",
                   "aw1_induce"),
    "diagrams": ("verify_diagram",),
    "cli": ("main",),
}

# every loader shares the span "serialize.load", every writer "serialize.save"
SERIALIZE_LOADS = ("load_structure", "load_module", "load_deformation",
                   "load_operator", "load_tensor", "load_derivations")
SERIALIZE_SAVES = ("save_structure", "save_module", "save_deformation",
                   "save_operator", "save_tensor", "save_derivations")

# identities on argument pairs; every other identity runs over triples
PAIR_IDENTITIES = ("Comm", "AntiSym", "CommDot")


def report_tuples(checked, dim: int) -> int:
    """Basis tuples a checker evaluates for the identity ids in `checked`."""
    return sum(dim ** (2 if name in PAIR_IDENTITIES else 3) for name in checked)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def jetalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "jetalg" or name.startswith("jetalg."))]


class Tracer:
    """Spans and counters for one traced phase of a benchmark run.

    `job` labels the spans recorded while it is set: the harness sets it to
    the running job's index, and to None between jobs.
    """

    def __init__(self):
        self.spans = []            # (id, parent id, name, job, t0, t1, self_s)
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []           # [span id, child seconds] of open spans
        self._next_id = 0
        self._patched = []         # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, name, self.job, t0, t1, dur - frame[1]))
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _after_check_structure(self, args, kwargs, report):
        p = args[0] if args else kwargs["p"]
        self.counts["structures.check_structure.tuples"] += report_tuples(
            report.checked, p.space.dim)

    def _after_load(self, args, kwargs, out):
        self.counts["serialize.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))

    def _after_save(self, args, kwargs, out):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        self.counts["serialize.bytes_written"] += _file_size(path)

    def _counted_apply(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def apply(op, u, v):
            out = fn(op, u, v)
            counts["linalg.BilinearOp.apply.calls"] += 1
            if not out:
                counts["linalg.BilinearOp.apply.empty"] += 1
            return out

        return apply

    def _counted_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def mul(a, b):
            counts["scalars.Jet.mul.calls"] += 1
            return fn(a, b)

        return mul

    # -- install / uninstall -------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        hits = 0
        for module in jetalg_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound in no jetalg module")

    def _patch_method(self, cls, attr, wrapper):
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        mods = {m.__name__: m for m in jetalg_modules()}
        after = {"check_structure": self._after_check_structure}
        for layer, names in SPANNED.items():
            module = mods[f"jetalg.{layer}"]
            for name in names:
                fn = getattr(module, name)
                self._replace_everywhere(fn, self._span(f"{layer}.{name}", fn, after.get(name)))
        serialize = mods["jetalg.serialize"]
        for names, span, hook in ((SERIALIZE_LOADS, "serialize.load", self._after_load),
                                  (SERIALIZE_SAVES, "serialize.save", self._after_save)):
            for name in names:
                fn = getattr(serialize, name)
                self._replace_everywhere(fn, self._span(span, fn, hook))

        linalg, scalars = mods["jetalg.linalg"], mods["jetalg.scalars"]
        self._patch_method(linalg.LinearMap, "__init__",
                           self._span("linalg.LinearMap.init", linalg.LinearMap.__init__))
        self._patch_method(linalg.BilinearOp, "apply",
                           self._counted_apply(linalg.BilinearOp.apply))
        # __rmul__ is an alias of __mul__: both count as scalars.Jet.mul
        jet = scalars.Jet
        wrapped = {}
        for attr in ("__mul__", "__rmul__"):
            fn = jet.__dict__[attr]
            if fn not in wrapped:
                wrapped[fn] = self._counted_mul(fn)
            self._patch_method(jet, attr, wrapped[fn])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, job, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "job": job, "start": t0, "end": t1,
                                     "self_s": self_s}) + "\n")
