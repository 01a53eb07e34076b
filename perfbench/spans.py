"""Span tracing from outside the program, plus the always-on stopwatch.

Both work the same way: they replace a layer's public entry point (a
module function or a class method) with a wrapper that reads
``time.perf_counter`` around the original call. Neither ever reads or
advances a virtual clock, so every modeled number is the same with the
wrappers installed or not; ``run.py`` checks exactly that.

* :class:`Stopwatch` is installed in every run. It times only the
  compile entry points and ``VirtualMachine.run`` -- under a thousand calls
  per repeat -- because ``compile_s`` and ``infer_ms_*`` are defined as
  wall time inside those calls, and in ``fleet_serve`` the server makes
  them, not the benchmark.
* :class:`Tracer` is installed only in a traced run. It wraps every
  layer boundary listed in ``LAYERS``, keeps one span per call in memory
  (name, start, end, parent span, repeat id, request id) and writes them
  out once at the end. A layer's self time is its span minus the time
  covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.analysis
import repro.nimble
import repro.vm.schedule
from repro.codegen.kernels import KernelSet, ShapeFuncKernel
from repro.fleet.router import FleetRouter
from repro.fleet.tenancy import TokenBucket
from repro.runtime.allocator import PoolingAllocator
from repro.serve.worker import Worker
from repro.store.artifacts import ArtifactStore
from repro.store.gc import StoreGC
from repro.vm.compiler import VMCompiler
from repro.vm.interpreter import VirtualMachine

# (owner, attribute, span name). Module functions are patched on the
# module object: every caller in the program reaches them through the
# module attribute (``nimble.specialize``) or a call-time import
# (``from repro.analysis import verify_executable``), so the wrapper is
# what they find.
LAYERS: Tuple[Tuple[object, str, str], ...] = (
    (repro.nimble, "build", "nimble.build"),
    (repro.nimble, "compile_prefix", "nimble.prefix"),
    (repro.nimble, "specialize", "nimble.specialize"),
    (VMCompiler, "compile", "vm.compiler.compile"),
    (repro.vm.schedule, "schedule_executable", "vm.schedule"),
    (repro.analysis, "verify_executable", "analysis.verify"),
    (VirtualMachine, "run", "vm.run"),
    (KernelSet, "invoke_cost", "codegen.invoke_cost"),
    (ShapeFuncKernel, "run", "codegen.shape_func"),
    (KernelSet, "run", "ops.kernel_run"),
    (PoolingAllocator, "alloc", "runtime.alloc"),
    (PoolingAllocator, "free", "runtime.free"),
    (Worker, "run_batch", "serve.run_batch"),
    (ArtifactStore, "put", "store.put"),
    (ArtifactStore, "put_prefix", "store.put"),
    (ArtifactStore, "put_profile", "store.put"),
    (ArtifactStore, "save_kernel_cache", "store.put"),
    (ArtifactStore, "get", "store.get"),
    (ArtifactStore, "get_prefix", "store.get"),
    (ArtifactStore, "get_profile", "store.get"),
    (ArtifactStore, "load_kernel_cache", "store.get"),
    (StoreGC, "collect", "store.gc.collect"),
    (FleetRouter, "simulate", "fleet.simulate"),
    (TokenBucket, "admit", "fleet.admit"),
)

COMPILE_ENTRY_POINTS = ("build", "compile_prefix", "specialize")


class _Patches:
    """Replace attributes and put every original back on ``remove``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Stopwatch:
    """Wall time inside the compile entry points and ``VirtualMachine.run``.

    Nested compile calls (``specialize`` without a prefix calls
    ``build``) count once, at the outermost call."""

    def __init__(self) -> None:
        # Wall seconds of each outermost compile call.
        self.compiles: List[float] = []
        # (wall seconds, tokens) per VirtualMachine.run; the tokens are the
        # rows of the first argument (1 for a non-tensor argument).
        self.vm_runs: List[Tuple[float, int]] = []
        self._depth = 0
        self._patches = _Patches()

    def install(self) -> "Stopwatch":
        for attr in COMPILE_ENTRY_POINTS:
            self._patches.wrap(repro.nimble, attr, self._compile_timer)
        self._patches.wrap(VirtualMachine, "run", self._run_timer)
        return self

    def remove(self) -> None:
        self._patches.remove()

    def take(self) -> Tuple[List[float], List[Tuple[float, int]]]:
        """Return and clear (per-compile seconds, per-run (seconds, tokens))."""
        out = (self.compiles, self.vm_runs)
        self.compiles, self.vm_runs = [], []
        return out

    def _compile_timer(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.compiles.append(time.perf_counter() - start)
        return timed

    def _run_timer(self, fn: Callable) -> Callable:
        def timed(vm, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(vm, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                shape = getattr(args[0], "shape", ()) if args else ()
                tokens = int(np.prod(shape[:-1])) if len(shape) >= 2 else 1
                self.vm_runs.append((elapsed, tokens))
        return timed


class Tracer:
    """In-memory spans at every layer boundary in ``LAYERS``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per span, in parallel compact arrays.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_repeat = array("i")
        self.span_request = array("q")
        # Aggregates kept as spans close, so reading them is cheap.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.invoke_keys = set()
        self.build_reports: List[object] = []
        self.prefix_timings: List[Dict[str, float]] = []
        self.repeat = 0
        self.request = -1
        self._stack: List[List] = []  # [span index, child seconds]
        self._patches = _Patches()

    # ----------------------------------------------------------- install
    def install(self) -> "Tracer":
        special = {
            "vm.run": self._vm_run_span,
            "codegen.invoke_cost": self._invoke_span,
            "runtime.alloc": self._alloc_span,
            "serve.run_batch": self._batch_span,
        }
        on_exit = {
            "nimble.build": self._on_build,
            "nimble.specialize": self._on_build,
            "nimble.prefix": self._on_prefix,
            "store.get": self._on_store_get,
        }
        for owner, attr, name in LAYERS:
            make = special.get(name) or functools.partial(
                self._span, name=name, on_exit=on_exit.get(name)
            )
            self._patches.wrap(owner, attr, make)
        return self

    def remove(self) -> None:
        self._patches.remove()

    def end_repeat(self) -> None:
        """Close the books on one repeat. Distinct cost-model keys are
        counted per repeat: every repeat builds fresh kernels, so kernel
        identities never carry over."""
        self.counts["codegen.invoke_distinct"] += len(self.invoke_keys)
        self.invoke_keys.clear()
        self.repeat += 1

    # ------------------------------------------------------------ spans
    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _open(self, name: str) -> None:
        index = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_repeat.append(self.repeat)
        self.span_request.append(self.request)
        self._stack.append([index, 0.0])

    def _close(self, name: str) -> float:
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _span(self, fn: Callable, name: str, on_exit=None) -> Callable:
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(name)
            if on_exit is not None:
                on_exit(result, duration)
            return result
        return traced

    def _vm_run_span(self, fn: Callable) -> Callable:
        def traced(vm, *args, **kwargs):
            before = sum(vm.profile.instruction_counts.values())
            self._open("vm.run")
            try:
                return fn(vm, *args, **kwargs)
            finally:
                self._close("vm.run")
                self.counts["vm.instructions"] += (
                    sum(vm.profile.instruction_counts.values()) - before
                )
        return traced

    def _invoke_span(self, fn: Callable) -> Callable:
        def traced(kernel, in_shapes, *args, **kwargs):
            self.invoke_keys.add(
                (id(kernel), tuple(tuple(int(d) for d in s) for s in in_shapes))
            )
            self._open("codegen.invoke_cost")
            try:
                return fn(kernel, in_shapes, *args, **kwargs)
            finally:
                self._close("codegen.invoke_cost")
        return traced

    def _alloc_span(self, fn: Callable) -> Callable:
        def traced(allocator, *args, **kwargs):
            pooled = allocator.stats.pooled_allocs
            self._open("runtime.alloc")
            try:
                return fn(allocator, *args, **kwargs)
            finally:
                self._close("runtime.alloc")
                self.counts["runtime.pooled"] += (
                    allocator.stats.pooled_allocs - pooled
                )
        return traced

    def _batch_span(self, fn: Callable) -> Callable:
        def traced(worker, batch, *args, **kwargs):
            outer = self.request
            self.request = batch.requests[0].rid if len(batch) else -1
            self._open("serve.run_batch")
            try:
                return fn(worker, batch, *args, **kwargs)
            finally:
                self._close("serve.run_batch")
                self.request = outer
        return traced

    def _on_build(self, result, duration: float) -> None:
        # Nested builds (specialize -> build) count once, outermost.
        if not self._inside("nimble.build", "nimble.specialize"):
            self.build_reports.append(result[1])
            self._note_serving_compile(duration)

    def _on_prefix(self, result, duration: float) -> None:
        prefix, origin = result
        if origin == "built":
            self.prefix_timings.append(dict(prefix.pass_timings))
        self._note_serving_compile(duration)

    def _note_serving_compile(self, duration: float) -> None:
        # Compiles a server starts while it serves (its lanes), as
        # opposed to the startup build in its constructor.
        if self._inside("fleet.simulate"):
            self.counts["serve.compile_s"] += duration

    def _on_store_get(self, result, duration: float) -> None:
        hit = result > 0 if isinstance(result, int) else result is not None
        self.counts["store.get_hits"] += int(hit)

    def _inside(self, *names: str) -> bool:
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        return any(self.span_name[i] in wanted for i, _ in self._stack)

    # ---------------------------------------------------------- write-out
    def write(self, path: Path) -> int:
        """Write every span to *path* (``.npz``); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self.span_start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64) - origin,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - origin,
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            repeat=np.frombuffer(self.span_repeat, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int64),
        )
        return len(self.span_name)
