"""In-memory span tracer around the public functions of moransar's layers.

The tracer patches every module-level binding of every public function
defined in a layer module, so a call reaches the wrapper whether the
caller imported the function from its defining module or from another
module that re-exports it (``bounds``, ``verification`` and ``simulate``
each bind ``eigen.symmetric_eigenvalues`` under their own name). Spans
stay in memory; ``summary`` turns them into per-layer metrics and
``write`` dumps them as JSON once the run is over.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import fields, is_dataclass

import numpy as np

LAYERS = (
    "dataio", "spatial_data", "autocorr", "sar", "regression", "bounds",
    "eigen", "inference", "verification", "pipeline", "svgplot", "cli",
)
# layers whose calls are fingerprinted to count recomputation on equal inputs
REPEAT_LAYERS = ("spatial_data", "autocorr", "bounds", "eigen")
COUNTERS = {
    "eigen.sweeps": "count/op",
    "eigen.rotations_computed": "count/op",
    "inference.permutations": "count/op",
    "inference.exhaustive_calls": "count/op",
    "verification.checks": "count/op",
    "verification.failed_checks": "count/op",
    "dataio.bytes_read": "B/op",
    "pipeline.bytes_written": "B/op",
    "svgplot.bytes_written": "B/op",
}


def _package_modules():
    return [(name, module) for name, module in list(sys.modules.items())
            if name == "moransar" or name.startswith("moransar.")]


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _arrays(value):
    """Arrays held by an argument: the array itself or a dataclass's fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            yield from _arrays(getattr(value, f.name))


def _fingerprint(args, kwargs) -> str | None:
    """Digest of the array arguments (and plain scalars), None when no arrays."""
    digest = hashlib.sha1()
    seen_array = False
    for value in (*args, *(kwargs[k] for k in sorted(kwargs))):
        arrays = list(_arrays(value))
        if arrays:
            seen_array = True
            for a in arrays:
                digest.update(repr((a.dtype.str, a.shape)).encode())
                digest.update(np.ascontiguousarray(a).tobytes())
        elif isinstance(value, (bool, int, float, str)) or value is None:
            digest.update(repr(value).encode())
    return digest.hexdigest() if seen_array else None


class Tracer:
    """Records spans (name, start, end, parent, op) for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_walls: list[float] = []
        self.op_top_level: list[float] = []
        self._child_time: dict[int, float] = defaultdict(float)
        self._self_time: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._op = -1
        self._op_first_span = 0
        self._op_t0 = 0.0
        self._seen: set[tuple[str, str]] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.binding_sites = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every public layer function."""
        wrappers = {}  # id of the original function -> its wrapper
        for layer in LAYERS:
            module = sys.modules[f"moransar.{layer}"]
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(layer, fn)
        for _mod_name, module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        self.binding_sites = len(self._patches)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings of public layer functions that are not wrapped."""
        layer_modules = {f"moransar.{layer}" for layer in LAYERS}
        return [
            f"{mod_name}.{attr}"
            for mod_name, module in _package_modules()
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ in layer_modules
            and not value.__name__.startswith("_") and not hasattr(value, "__wrapped__")
        ]

    # -- ops and spans ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._seen.clear()
        self._op_first_span = len(self.spans)
        self._op_t0 = time.perf_counter()

    def end_op(self) -> None:
        wall = time.perf_counter() - self._op_t0
        top = sum(end - start for _sid, parent, _op, _name, start, end
                  in self.spans[self._op_first_span:] if parent is None)
        self.op_walls.append(wall)
        self.op_top_level.append(top)

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        observe = _OBSERVERS.get(name) or _LAYER_OBSERVERS.get(layer)
        fingerprint = layer in REPEAT_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fingerprint:
                key = _fingerprint(args, kwargs)
                if key is not None:
                    if (name, key) in self._seen:
                        self.counts[f"{layer}.repeat_calls"] += 1
                    self._seen.add((name, key))
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._record(span_id, parent, layer, name, start, end)
            if observe is not None:
                observe(self, args, kwargs, result, parent)
            return result

        return traced

    def _record(self, span_id, parent, layer, name, start, end) -> None:
        duration = end - start
        self._calls[layer] += 1
        self._self_time[layer] += duration - self._child_time.pop(span_id, 0.0)
        if parent is not None:
            self._child_time[parent[0]] += duration
        self.spans.append((span_id, None if parent is None else parent[0],
                           self._op, name, start, end))

    # -- results ------------------------------------------------------------

    def summary(self, ops: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-op means of every per-layer metric, keyed by metric name."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self._calls[layer] / ops, "count/op")
            out[f"{layer}.self_s"] = (self._self_time[layer] / ops, "s/op")
        for layer in REPEAT_LAYERS:
            out[f"{layer}.repeat_calls"] = (
                self.counts[f"{layer}.repeat_calls"] / ops, "count/op")
        for counter, unit in COUNTERS.items():
            out[counter] = (self.counts[counter] / ops, unit)
        wall = sum(self.op_walls)
        out["trace.untraced_frac"] = ((wall - sum(self.op_top_level)) / wall, "fraction")
        out["trace.overhead_frac"] = (overhead_frac, "fraction")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)


# -- counters read off arguments and results --------------------------------

def _eigen(tracer, _args, _kwargs, result, _parent):
    spectrum = result[0] if isinstance(result, tuple) else result
    n = spectrum.n
    tracer.counts["eigen.sweeps"] += spectrum.sweeps
    tracer.counts["eigen.rotations_computed"] += spectrum.sweeps * n * (n - 1) // 2


def _permutation(tracer, _args, _kwargs, result, _parent):
    tracer.counts["inference.permutations"] += result.permutations_used
    tracer.counts["inference.exhaustive_calls"] += int(result.exhaustive)


def _verification(tracer, _args, _kwargs, result, parent):
    # nested verification calls return checks their caller re-collects;
    # count only at the outermost verification span
    if isinstance(result, list) and (parent is None or parent[1] != "verification"):
        tracer.counts["verification.checks"] += len(result)
        tracer.counts["verification.failed_checks"] += sum(
            1 for check in result if not check.passed)


def _dataio(tracer, args, kwargs, _result, _parent):
    path = args[0] if args else kwargs.get("path")
    tracer.counts["dataio.bytes_read"] += _file_size(path)


def _emit(tracer, _args, _kwargs, result, _parent):
    tracer.counts["pipeline.bytes_written"] += sum(
        _file_size(path) for key, path in result.items() if not key.startswith("svg"))


def _render(tracer, args, kwargs, _result, _parent):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer.counts["svgplot.bytes_written"] += _file_size(path)


_OBSERVERS = {
    "eigen.symmetric_eigenvalues": _eigen,
    "eigen.symmetric_eigensystem": _eigen,
    "inference.permutation_test": _permutation,
    "dataio.load_sizes": _dataio,
    "dataio.load_distances": _dataio,
    "dataio.load_critical_values": _dataio,
    "pipeline.emit_report": _emit,
    "svgplot.render_svg": _render,
}
_LAYER_OBSERVERS = {"verification": _verification}
