"""Outside-in tracing: time calls into the program's public functions.

`Tracer.install` replaces each target function, in memory, by a wrapper
that records a span (name, job id, parent span, start, end) and then
calls the original.  A function is replaced in its defining module and in
every `nilrad` module that bound it with `from .x import y`, so calls
between modules are seen too.  `Tracer.uninstall` puts every original
back.  The program's files are never touched.

Functions called hundreds of thousands of times (`LEAVES`) are summed in
place instead of stored as spans; their time still counts against the
parent span, so self times stay exact.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from common import nilrad_module

MARK = "_perfbench_original"


def _kernel_counts(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows), "cols": args[1],
            "nnz": sum(1 for row in rows for x in row if x),
            "kernel_dim": len(result)}


def _load_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _roots_count(args, kwargs, result):
    return {"roots": len(result.roots)}


def _route(args, kwargs, result):
    return {"route": "exact" if result[1].exact else "float"}


def _degree(args, kwargs, result):
    return {"degree": args[1]}


def _verb(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"verb": argv[0]}


# (module, attribute, metric prefix, annotation of the finished call)
TARGETS = [
    ("exactlin", "nullspace_int_rows", "exactlin.nullspace_int_rows", _kernel_counts),
    ("exactlin", "rank", "exactlin.rank", None),
    ("exactlin", "solve", "exactlin.solve", None),
    ("exactlin", "inverse", "exactlin.inverse", None),
    ("exactlin", "minimal_polynomial", "exactlin.minimal_polynomial", None),
    ("exactlin", "nullspace", "exactlin.nullspace", None),
    ("exactlin", "Matrix.__mul__", "exactlin.Matrix.mul", None),
    ("nilalg", "load", "nilalg.load", _load_counts),
    ("nilalg", "TwoStepAlgebra.bracket_basis", "nilalg.bracket_basis", None),
    ("nilalg", "is_nonsingular", "nilalg.is_nonsingular", None),
    ("htype", "is_htype", "htype.is_htype", None),
    ("htype", "j_basis", "htype.j_basis", None),
    ("htype", "sigma_automorphism", "htype.sigma_automorphism", None),
    ("htype", "irreducibility_probe", "htype.irreducibility_probe", None),
    ("htype", "identify_family", "htype.identify_family", None),
    ("htype", "build_swap_automorphism", "htype.build_swap_automorphism", None),
    ("htype", "transfer_operator", "htype.transfer_operator", _route),
    ("rootsys", "build", "rootsys.build", _roots_count),
    ("rootsys", "scan", "rootsys.scan", None),
    ("rootsys", "is_two_step", "rootsys.is_two_step", None),
    ("rootsys", "nilradical_profile", "rootsys.nilradical_profile", None),
    ("prolong", "compute_layer", "prolong.compute_layer", _degree),
    ("prolong", "verify_layer", "prolong.verify_layer", None),
    ("cli", "main", "cli", _verb),
]
LEAVES = {"exactlin.rank", "exactlin.Matrix.mul", "nilalg.bracket_basis",
          "rootsys.is_two_step"}
# share of calls on an argument tuple the same job already passed
REPEAT_TRACKED = {"htype.is_htype", "rootsys.build"}
SELF_TIMED = {"prolong.compute_layer", "rootsys.scan", "cli"}
# annotations that name a call instead of counting its work
LABELS = {"degree", "route", "verb"}

NAME, JOB, PARENT, START, END, CHILD, INFO = range(7)


def _program_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "nilrad" or k.startswith("nilrad."))]


class Tracer:
    """Spans of calls into the program, kept in memory for one pass."""

    def __init__(self) -> None:
        self.job: Optional[str] = None
        self.spans: List[list] = []
        self.leaf_totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.repeats: Dict[str, int] = defaultdict(int)
        self._seen: Dict[str, set] = defaultdict(set)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, note):
        spans, stack = self.spans, self._stack
        track = name in REPEAT_TRACKED

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, self.job, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += span[END] - span[START]
            if note is not None:
                span[INFO] = note(args, kwargs, result)
            if track:
                self._count_repeat(name, (self.job, args, tuple(sorted(kwargs.items()))))
            return result
        return wrapper

    def _count_repeat(self, name, key) -> None:
        try:
            seen = key in self._seen[name]
        except TypeError:       # an unhashable argument cannot be matched
            return
        if seen:
            self.repeats[name] += 1
        else:
            self._seen[name].add(key)

    def _leaf_wrapper(self, name, fn):
        spans, stack, totals = self.spans, self._stack, self.leaf_totals[name]

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                totals[0] += 1
                totals[1] += dur
                if stack:
                    spans[stack[-1]][CHILD] += dur
        return wrapper

    def install(self) -> None:
        for module, attr, name, note in TARGETS:
            mod = nilrad_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                sites = [(owner, meth)]
                original = owner.__dict__[meth]
            else:
                original = getattr(mod, attr)
                sites = [(m, k) for m in _program_modules()
                         for k, v in list(vars(m).items()) if v is original]
            wrapper = (self._leaf_wrapper(name, original) if name in LEAVES
                       else self._span_wrapper(name, original, note))
            setattr(wrapper, MARK, original)
            for owner, key in sites:
                setattr(owner, key, wrapper)
                self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "job": s[JOB], "parent": s[PARENT],
                                     "start": s[START], "end": s[END],
                                     "info": s[INFO]}) + "\n")

    def summary(self) -> Dict[str, float]:
        """Calls, inclusive and self times and counters per metric name."""
        out: Dict[str, float] = defaultdict(float)
        for name, (calls, time_s) in self.leaf_totals.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.time_s"] += time_s
        for s in self.spans:
            name, info = s[NAME], s[INFO] or {}
            dur = s[END] - s[START]
            prefix = name
            if name == "cli":
                prefix = f"cli.{info.get('verb')}"
            elif "route" in info:
                prefix = f"{name}.{info['route']}"
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.time_s"] += dur
            if name in SELF_TIMED:
                out[f"{name}.self_s"] += dur - s[CHILD]
            if name == "prolong.compute_layer":
                out[f"{name}.d{info['degree']}.time_s"] += dur
            for key, value in info.items():
                if key not in LABELS:
                    out[f"{name}.{key}"] += value
        for name in REPEAT_TRACKED:
            calls = out.get(f"{name}.calls", 0)
            out[f"{name}.repeat_frac"] = self.repeats[name] / calls if calls else 0.0
        return dict(out)


def wrappers_left() -> List[str]:
    """Names still bound to a tracing wrapper anywhere in the program."""
    left = []
    for m in _program_modules():
        for k, v in list(vars(m).items()):
            if hasattr(v, MARK):
                left.append(f"{m.__name__}.{k}")
            elif isinstance(v, type):
                left += [f"{m.__name__}.{k}.{a}" for a, w in vars(v).items()
                         if hasattr(w, MARK)]
    return left
