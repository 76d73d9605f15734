"""Spans around calls into the program's layers, recorded from outside.

``Tracer`` replaces each public function named in ``TARGETS`` by a wrapper in
every ``orlicz_wct`` module namespace that holds it (``luxemburg_norms``, for
example, is bound in ``orlicz``, ``wct`` and ``harness``), and puts the
originals back on exit. A wrapper appends one span per call to an in-memory
list: ``[name, start, end, parent]``, where ``parent`` is the index of the
enclosing span or -1. Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from importlib import import_module

import numpy as np

# (layer span name, defining module, attribute path)
TARGETS = (
    ("harness.run_verification", "orlicz_wct.harness", "run_verification"),
    ("harness.emit_report", "orlicz_wct.harness", "emit_report"),
    (
        "harness.generate_random_instance",
        "orlicz_wct.harness",
        "generate_random_instance",
    ),
    (
        "harness.generate_well_conditioned_instance",
        "orlicz_wct.harness",
        "generate_well_conditioned_instance",
    ),
    ("young.complementary", "orlicz_wct.young", "complementary"),
    ("young.generalized_inverse", "orlicz_wct.young", "generalized_inverse"),
    ("young.YoungFunction", "orlicz_wct.young", "YoungFunction.__init__"),
    ("orlicz.luxemburg_norms", "orlicz_wct.orlicz", "luxemburg_norms"),
    ("orlicz.luxemburg_norm", "orlicz_wct.orlicz", "luxemburg_norm"),
    ("condexp.cond_exp", "orlicz_wct.condexp", "cond_exp"),
    ("condexp.CondExp.matrix", "orlicz_wct.condexp", "CondExp.matrix"),
    ("condexp.check_condexp_laws", "orlicz_wct.condexp", "check_condexp_laws"),
    ("condexp.gch_constant_report", "orlicz_wct.condexp", "gch_constant_report"),
    ("wct.matrix_of", "orlicz_wct.wct", "matrix_of"),
    ("wct.power_bounded_report", "orlicz_wct.wct", "power_bounded_report"),
    ("wct.iterate", "orlicz_wct.wct", "iterate"),
    ("wct.cesaro_mean", "orlicz_wct.wct", "cesaro_mean"),
    ("wct.b_n_operator", "orlicz_wct.wct", "b_n_operator"),
    (
        "subspace.verify_structure_theorems",
        "orlicz_wct.subspace",
        "verify_structure_theorems",
    ),
    (
        "subspace.powers_well_conditioned",
        "orlicz_wct.subspace",
        "powers_well_conditioned",
    ),
)

# np.linalg.svd is traced only while a subspace span is open
SVD_SPAN = "subspace.svd"


def _columns(args, kwargs) -> int:
    cols = args[1] if len(args) > 1 else kwargs["cols"]
    shape = np.shape(cols)
    return shape[1] if len(shape) == 2 else 1


def _elements(args, kwargs) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["y"]))


def _has_hint(args, kwargs) -> int:
    phi = args[0] if args else kwargs["phi"]
    return int(getattr(phi, "_inverse_hint", None) is not None)


# work counters taken from a call's arguments, keyed by span name
ARG_COUNTERS = {
    "orlicz.luxemburg_norms": (("columns", _columns),),
    "young.generalized_inverse": (("elements", _elements), ("hint_calls", _has_hint)),
}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        # (owner, attribute, original value) for every replaced binding
        self.patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, only_under=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        arg_counters = ARG_COUNTERS.get(name, ())
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if only_under is not None and not any(
                spans[i][0].startswith(only_under) for i in stack
            ):
                return fn(*args, **kwargs)
            for key, count in arg_counters:
                counters[f"{name}.{key}"] += count(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [
            m for key, m in sys.modules.items()
            if key == "orlicz_wct" or key.startswith("orlicz_wct.")
        ]
        try:
            for name, module_name, path in TARGETS:
                owner = import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget))
                    self._patch(owner, attr, wrapped)
                elif outer:
                    self._patch(owner, attr, self._wrap(name, original))
                else:
                    wrapper = self._wrap(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)
            self._patch(
                np.linalg, "svd", self._wrap(SVD_SPAN, np.linalg.svd, "subspace.")
            )
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans, as [name, start, end, parent] lists, and the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - _union_length(covered))
    return out


def summarize(spans, counters) -> dict[str, float]:
    """Per span name: calls, busy_s (inclusive, outermost spans of the name
    only, so recursion is not counted twice) and self_s; plus the counters."""
    selfs = self_times(spans)
    out: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.busy_s"] += end - start
    out.update(counters)
    return dict(out)
