"""In-process tracer for the crossconn package, installed from outside it.

`Tracer.install()` replaces every binding of every public crossconn
function with a wrapper: the defining module's name, each copy made by
`from .x import f` in another module, and each public method in a class
body.  All bindings of one function share one wrapper, so a call counts
once under the defining layer's name, `<layer>.<function>`.

Three kinds of wrapper, chosen per name:

- span: records (name, start, end, parent) in memory and adds its
  duration minus its children's to the function's self time;
- timed leaf: the hot primitives whose self time is still wanted; they
  count and add to self time but record no span;
- counted: the hottest primitives and all generator functions only
  count; their time stays in the caller's self time.

Spans are kept in memory and written out by `dump()` after the traced
invocation ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time

LAYERS = ("groups", "rees", "oracle", "categories", "cones", "connections", "verify", "cli")

# Called millions of times on the large fixtures: counts only.
COUNTED = {
    "groups.mul",
    "groups.inv",
    "groups.elements",
    "rees.mul",
    "rees.index",
    "rees.element",
    "rees.entry",
    "rees.column",
    "rees.row",
    "oracle.mul",
    "categories.cone_component",
    "categories.compose",
    "categories.identity",
    "categories.is_identity",
    "categories.objects",
    "cones.act",
    "cones.is_idempotent_cone",
}

# Hot, but their self time is a named per-layer metric.
TIMED_LEAVES = {
    "cones.mul_L",
    "cones.mul_R",
    "cones.coset_normalize",
    "cones.principal_pair",
    "categories.compose_cones",
    "connections.s_tilde_mul",
    "connections.chi",
    "connections.chi_inv",
    "connections.gamma_apply",
    "connections.delta_apply",
    "connections.compose_duals",
    "connections.sigma_apply",
    "connections.is_linked",
    "connections.gamma_cell",
    "connections.delta_cell",
    "connections.bifunctor_gamma",
    "connections.bifunctor_delta",
}


class Tracer:
    """Counts, self times and spans of one traced invocation."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        # one entry per span: (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self.emit_bytes = 0
        self._frames: list[list[float]] = [[0.0]]
        self._span_ids: list[int] = [-1]

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn, record_span):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        frames, span_ids, spans = self._frames, self._span_ids, self.spans
        clock = time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0
        total_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            frames.append(frame)
            if record_span:
                span = len(spans)
                spans.append((name, 0.0, 0.0, span_ids[-1]))
                span_ids.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                frames[-1][0] += elapsed
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                if record_span:
                    span_ids.pop()
                    spans[span] = (name, start, end, spans[span][3])

        return wrapper

    def _wrap(self, name, fn):
        if name in COUNTED or inspect.isgeneratorfunction(fn):
            return self._counted(name, fn)
        return self._timed(name, fn, record_span=name not in TIMED_LEAVES)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the crossconn layers."""
        modules = {layer: importlib.import_module(f"crossconn.{layer}") for layer in LAYERS}
        package = importlib.import_module("crossconn")
        by_module = {m.__name__: layer for layer, m in modules.items()}
        wrapped: dict[int, object] = {}

        def traced(layer, attr, fn):
            key = id(fn)
            if key not in wrapped:
                name = f"{layer}.{attr}"
                if name in self.calls:
                    raise ValueError(f"two functions would be traced as {name}")
                wrapper = self._wrap(name, fn)
                if layer == "cli" and attr == "emit":
                    wrapper = self._count_bytes(wrapper)
                wrapped[key] = wrapper
            return wrapped[key]

        # Classes first: methods are shared by every binding of the class.
        for layer, module in modules.items():
            for cls_name, cls in vars(module).items():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                if dataclasses.is_dataclass(cls):
                    continue
                for attr, fn in list(vars(cls).items()):
                    if attr == "__init__":
                        setattr(cls, attr, traced(layer, cls_name, fn))
                    elif inspect.isfunction(fn) and not attr.startswith("_"):
                        setattr(cls, attr, traced(layer, attr, fn))

        # Then every module-level binding, including re-exports.
        for module in (*modules.values(), package):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = by_module.get(fn.__module__)
                if layer is None:
                    continue
                setattr(module, attr, traced(layer, fn.__name__, fn))

    def _count_bytes(self, emit):
        @functools.wraps(emit)
        def wrapper(*args, **kwargs):
            text = emit(*args, **kwargs)
            self.emit_bytes += len(text.encode())
            return text

        return wrapper

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write counts, self and inclusive times, and every span as JSON."""
        record = {
            "trace_id": self.trace_id,
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "emit_bytes": self.emit_bytes,
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(record, handle)
