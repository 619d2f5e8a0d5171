"""Counters and spans around calls into maslovflow's modules.

Nothing under ``src/`` is edited: the functions are replaced in every
maslovflow module namespace that holds them, so calls made through those
names, from any layer, go through the wrappers. A layer is a module.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "maslov", "riccati", "unitary", "models", "system", "matrixkit")

# Functions wrapped besides the public ones: the per-row worker that sweeps
# and refine probes both go through.
EXTRA = {"maslov": ("_sweep_row",)}
# Spans are recorded at calls into a layer from another one, and always for
# these, which the per-layer metrics read even when called within their layer.
ALWAYS = {"maslov._sweep_row", "maslov.run_trace", "maslov.detect_crossings",
          "maslov.crossings_from_chart"}

ROUTES = {"riccati.integrate_chart": "chart", "unitary.integrate_unitary": "unitary"}


def _modules() -> dict:
    return {layer: importlib.import_module(f"maslovflow.{layer}") for layer in LAYERS}


def _namespaces() -> list:
    return [importlib.import_module("maslovflow"), *_modules().values()]


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for ns in _namespaces():
        for key in [k for k, v in vars(ns).items() if v is original]:
            setattr(ns, key, replacement)


class StepCounter:
    """Rows and x-steps per route, counted where integrate_chart and
    integrate_unitary return: one increment per row."""

    def __init__(self) -> None:
        self.rows: Counter = Counter()
        self.steps: Counter = Counter()

    def reset(self) -> None:
        self.rows.clear()
        self.steps.clear()

    def install(self) -> None:
        modules = _modules()
        for name, route in ROUTES.items():
            layer, attr = name.split(".")
            fn = getattr(modules[layer], attr)
            _replace_everywhere(fn, self._wrap(fn, route))

    def _wrap(self, fn: Callable, route: str) -> Callable:
        rows, steps = self.rows, self.steps

        def counted(*args, **kwargs):
            path = fn(*args, **kwargs)
            rows[route] += 1
            steps[route] += len(path.grid) - 1
            return path

        return counted

    def snapshot(self) -> dict:
        return {f"{route}_{kind}": int(counter[route])
                for route in ("chart", "unitary")
                for kind, counter in (("rows", self.rows), ("steps", self.steps))}


class Tracer:
    """Records a span (id, parent, name, start, end) at every call into a
    layer, and keeps per layer the self time: span durations minus the part
    covered by their child spans. A call within a layer adds no span; its
    time stays with the layer's enclosing span."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._ids = itertools.count()

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()

    def install(self) -> None:
        for layer, mod in _modules().items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if (public and fn.__module__ == mod.__name__) or attr in EXTRA.get(layer, ()):
                    _replace_everywhere(fn, self.wrap(fn, f"{layer}.{attr}"))
        # A model's evaluate is a closure on the field object, not a module
        # function: wrap it on every field get_model hands out.
        get_model = _modules()["models"].get_model

        def traced_get_model(*args, **kwargs):
            field = get_model(*args, **kwargs)
            return dataclasses.replace(field, evaluate=self.wrap(field.evaluate, "models.evaluate"))

        _replace_everywhere(get_model, traced_get_model)

    def wrap(self, fn: Callable, name: str) -> Callable:
        layer = name.split(".", 1)[0]
        always = name in ALWAYS
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        def traced(*args, **kwargs):
            if stack and stack[-1][2] == layer and not always:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_time[layer] += duration - frame[1]
                inclusive[name] += duration
                calls[name] += 1
                spans.append((frame[0], parent, name, start, end))

        return traced

    def snapshot(self) -> dict:
        return {"self_s": {layer: self.self_time.get(layer, 0.0) for layer in LAYERS},
                "calls": dict(self.calls), "inclusive_s": dict(self.inclusive)}

    def dump(self, path) -> None:
        """Write the spans of the last pass as CSV, times in microseconds
        from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f}\n")
