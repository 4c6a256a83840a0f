"""Layer spans for a traced benchmark run, installed from outside the package.

The tracer wraps secrelay's public functions in place: it replaces each
hooked module attribute, and every other reference to the same function
object that a secrelay module holds (a re-export, or a dispatch table such as
``optimize._OBJECTIVES``), with a timed wrapper. A hooked name that no longer
exists is skipped, so its metrics read zero instead of crashing the run.

Each span records its inclusive time under its own name and its self time
(duration minus direct child spans) under its layer, the part of the name
before the first dot. Spans opened on Monte Carlo worker threads start their
own stack, so their times are busy time summed over threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name). The layer is the span name's first part.
SPANS = (
    ("secrelay.channel_models", "build_links", "channel_models.build_links"),
    ("secrelay.montecarlo", "estimate_cp", "montecarlo.estimate"),
    ("secrelay.montecarlo", "estimate_sop", "montecarlo.estimate"),
    ("secrelay.montecarlo", "estimate_asr", "montecarlo.estimate"),
    ("secrelay.montecarlo", "estimate_functional", "montecarlo.estimate"),
    ("secrelay.optimize", "grid_search_opsa", "optimize.grid_search_opsa"),
    ("secrelay.optimize", "placement_sweep", "optimize.placement_sweep"),
    ("secrelay.optimize", "estimate_asr_allocation_policy", "optimize.policy"),
    ("secrelay.optimize", "allocation_policy_fallback_share", "optimize.policy"),
    ("secrelay.analytic", "connection_probability",
     "analytic.connection_probability"),
    ("secrelay.analytic", "secrecy_outage_probability",
     "analytic.secrecy_outage_probability"),
    ("secrelay.analytic", "asr_lower_bound", "analytic.asr_lower_bound"),
    ("secrelay.specfun", "logsumexp", "specfun.logsumexp"),
    ("secrelay.specfun", "log_bessel_k_sequence",
     "specfun.log_bessel_k_sequence"),
    ("secrelay.specfun", "log_moment_ncx2", "specfun.log_moment_ncx2"),
    ("secrelay.specfun", "marcum_q1", "specfun.marcum_q1"),
    ("secrelay.specfun", "bessel_i", "specfun.bessel_i"),
    ("secrelay.specfun", "_phi_fixed_point", "specfun.phi_fallback"),
    # entry points of the arbitrary-precision Phi fallback
    ("mpmath", "e1", "mpmath.call"),
    ("mpmath", "gammainc", "mpmath.call"),
    ("mpmath", "factorial", "mpmath.call"),
    ("mpmath", "binomial", "mpmath.call"),
    ("mpmath", "log", "mpmath.call"),
)

# Spans whose per-call durations are kept for percentiles.
SAMPLED = {"analytic.asr_lower_bound"}

# Estimator calls are also counted when an optimize span is on the stack.
ESTIMATE = "montecarlo.estimate"
CALLER_LAYER = "optimize"


def _load(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class _TimedStream:
    """A Philox generator whose standard_normal calls are timed as draws."""

    def __init__(self, generator, tracer: "Tracer"):
        self._generator = generator
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("montecarlo.draw",
                                 self._generator.standard_normal, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    """Spans and counters of one process; summary() is JSON-ready."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.estimates_from_optimize = 0
        self.frames = 0
        self.blocks_drawn = 0
        self.blocks: set[tuple[int, int]] = set()
        self.workers = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        layer = name.split(".", 1)[0]
        stack = self._stack()
        if name == ESTIMATE and any(entry[0] == CALLER_LAYER for entry in stack):
            with self._lock:
                self.estimates_from_optimize += 1
        entry = [layer, 0.0]  # layer, time covered by direct children
        stack.append(entry)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.inclusive[name] += duration
                self.calls[name] += 1
                self.self_time[layer] += duration - entry[1]
                if name in SAMPLED:
                    self.samples[name].append(duration)

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _frame_metrics(self, fn):
        span = self._span("kernels.frame_metrics", fn)

        @functools.wraps(fn)
        def wrapper(z, *args, **kwargs):
            with self._lock:
                self.frames += len(z)
            return span(z, *args, **kwargs)
        return wrapper

    def _block_stream(self, fn):
        @functools.wraps(fn)
        def wrapper(seed, index):
            with self._lock:
                self.blocks_drawn += 1
                self.blocks.add((int(seed), int(index)))
            return _TimedStream(fn(seed, index), self)
        return wrapper

    def _worker_count(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            workers = fn(*args, **kwargs)
            with self._lock:
                self.workers = max(self.workers, int(workers))
            return workers
        return wrapper

    def install(self) -> None:
        """Wrap every hooked name that exists; skip the ones that do not."""
        hooks = [(module, attr, functools.partial(self._span, name))
                 for module, attr, name in SPANS]
        hooks += [
            ("secrelay._kernels", "frame_metrics", self._frame_metrics),
            ("secrelay.montecarlo", "block_stream", self._block_stream),
            ("secrelay.montecarlo", "_worker_count", self._worker_count),
        ]
        for module_name, attr, make in hooks:
            module = _load(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            _rebind(original, make(original))

    def summary(self) -> dict:
        return {
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "estimates_from_optimize": self.estimates_from_optimize,
            "frames": self.frames,
            "blocks_drawn": self.blocks_drawn,
            "blocks_distinct": len(self.blocks),
            "workers": self.workers,
        }


def _rebind(original, wrapper) -> None:
    """Point every secrelay/mpmath reference to original at wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mpmath" or name == "secrelay"
                                  or name.startswith("secrelay.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
