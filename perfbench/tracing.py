"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
(and ``GeneratingMap.values``) with a wrapper that records a span: name,
start, end and the index of the enclosing span.  The wrapper is bound in
every ``volterra`` module that holds the original, so names re-bound by
import (``dynamics.apply``, ``inversion.apply``, ``cli.apply``, ...) are
traced too.  ``uninstall`` restores the originals.  Nothing inside the
program changes.

Self time is a span's duration minus the time of its direct child
spans, accumulated on the fly.  A call made directly inside a span of the
same name (``build_operator`` recursing into a compose spec,
``sample_face`` delegating to ``sample_face_rng``) is folded into that
span.  Spans are kept in memory, up to ``max_spans``, and written out by
``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("simplex", "generating", "quadratic", "cubic", "inversion", "dynamics", "cli")

#: Span names that differ from "<module>.<function>".
ALIASES = {"simplex.sample_face_rng": "simplex.sample_face"}


def _coordinates(args) -> int:
    """Coordinates evaluated by one ``GeneratingMap.values`` call.

    Today's signature is ``values(indices, x)``; a batched
    ``values(X, face)`` evaluates every entry of the (N, d) block X.
    """
    first = args[1] if len(args) > 1 else None
    shape = getattr(first, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0] * shape[1])
    try:
        return len(first)
    except TypeError:
        return 0


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        #: [name, start, end, parent span index or -1]
        self.spans: list[list] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.eval_s: defaultdict = defaultdict(float)
        #: Label of the benchmark input being run; eval time is charged to it.
        self.label: str | None = None
        #: Spans and counts are recorded only while this is set, so the
        #: benchmark's own input generation and oracle stay out of them.
        self.active = False
        #: Names of the spans, counters and eval times the install found.
        self.found: set[str] = set()
        self._stack: list[list] = []  # [name, start, child_time, span_index]
        self._values_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list | None:
        if self._stack and self._stack[-1][0] == name:
            return None
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, failed: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if failed:
            self.errors[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1:3] = (start, end)

    def _wrap(self, name: str, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name) if tracer.active else None
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, True)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._exit(frame, False)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_values(self, fn):
        tracer = self
        inner = self._wrap("generating.values", fn)

        @functools.wraps(fn)
        def values(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts["generating.f_evals"] += _coordinates(args)
            if tracer._values_depth:
                return inner(*args, **kwargs)
            tracer._values_depth += 1
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._values_depth -= 1
                if tracer.label is not None:
                    tracer.eval_s[tracer.label] += time.perf_counter() - start

        return values

    def _count_points(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts["simplex.points_built"] += 1
            return init(*args, **kwargs)

        return counted

    # -- hooks that read counts off results --------------------------------

    def _steps(self, trajectory):
        self.counts["dynamics.steps"] += trajectory.steps

    def _failed_steps(self, exc):
        self.counts["dynamics.steps"] += getattr(exc, "step", 0)

    def _sweeps(self, result):
        self.counts["inversion.sweeps"] += result.iterations

    def _stalled(self, exc):
        iterations = getattr(exc, "iterations", None)
        if iterations is not None:
            self.counts["inversion.sweeps"] += iterations
            self.counts["inversion.nonconverged"] += 1

    def _triangular_failed(self, exc):
        if hasattr(exc, "iterations"):
            self.counts["inversion.nonconverged"] += 1

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "volterra") -> None:
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == package or name.startswith(package + ".")}
        replacements: dict[int, object] = {}
        hooks = {
            "dynamics.iterate": (self._steps, self._failed_steps),
            "inversion.invert_fixed_point": (self._sweeps, self._stalled),
            "inversion.invert_triangular": (None, self._triangular_failed),
        }
        for short in MODULES:
            mod = loaded.get(f"{package}.{short}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                on_result, on_error = hooks.get(name, (None, None))
                replacements[id(value)] = self._wrap(name, value, on_result, on_error)
                self.found.add(name)
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

        generating = loaded.get(f"{package}.generating")
        gmap = getattr(generating, "GeneratingMap", None)
        if gmap is not None and callable(getattr(gmap, "values", None)):
            self._set(gmap, "values", self._wrap_values(gmap.values))
            self.found.add("generating.values")
        simplex = loaded.get(f"{package}.simplex")
        point = getattr(simplex, "SparsePoint", None)
        if point is not None:
            self._set(point, "__init__", self._count_points(point.__init__))
            self.found.add("simplex.points_built")
        if "dynamics.iterate" in self.found:
            self.found.add("dynamics.steps")
        if "inversion.invert_fixed_point" in self.found:
            self.found.update(("inversion.sweeps", "inversion.nonconverged"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans[: len(self.spans) - len(self._stack)]:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                handle.write("\n")
