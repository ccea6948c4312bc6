"""Outside-in per-layer tracing of one live ``SimulatedSystem``.

:class:`LayerTracer` replaces the public methods at each layer boundary
with timed wrappers set as attributes on the live objects.  Every hot
call site looks these methods up through the instance
(``self.hierarchy.access``, ``self.controller.read_line``,
``self.dram.access``, ``algorithm.compress`` ...), so the wrappers see
every call without any change to the simulator.  Wrappers only time and
count; arguments and results pass through untouched, so a traced run is
bitwise-identical to an untraced one.

A span stack gives each call its self time: its duration minus the time
of the wrapped calls it made.  Self times are summed per boundary in
memory and turned into per-layer counts by :meth:`LayerTracer.counts`.
"""

from __future__ import annotations

import time

from repro.sim import system as sim_system

#: layer of each boundary; ``dram.storage`` is reported as ``dram.storage_s``
LAYER_OF = {
    "cpu.step": "cpu",
    "workloads.next": "workloads",
    "workloads.line": "workloads",
    "vm.translate": "vm",
    "cache.access": "cache",
    "cache.fill": "cache",
    "core.read_line": "core",
    "core.handle_eviction": "core",
    "compression.compressor": "compression",
    "compression.algorithm": "compression",
    "compression.precompute": "compression",
    "dram.access": "dram",
    "dram.storage": "dram.storage",
    "obs.sampler": "obs",
    "obs.span": "obs",
}

#: layers whose self times, with ``sim.self_s``, make up the traced run
TIMED_LAYERS = (
    "workloads",
    "cpu",
    "vm",
    "cache",
    "core",
    "compression",
    "dram",
    "dram.storage",
    "obs",
)

COMPRESSOR_METHODS = (
    "compress",
    "compressed_size",
    "compress_and_size",
    "cached_size",
    "decompress",
)


class _TimedIterator:
    """A core's trace iterator with a timed ``__next__``.

    ``CoreModel.step`` calls ``next(self.trace, None)``, which looks
    ``__next__`` up on the type, so the iterator itself is replaced.
    """

    def __init__(self, timed_next) -> None:
        self._next = timed_next
        self.records = 0

    def __iter__(self):
        return self

    def __next__(self):
        record = self._next()
        self.records += 1
        return record


class _TimedContext:
    """An observation span whose enter and exit are timed as ``obs``."""

    def __init__(self, tracer: "LayerTracer", context) -> None:
        self._enter = tracer.wrap("obs.span", context.__enter__)
        self._exit = tracer.wrap("obs.span", context.__exit__)

    def __enter__(self):
        return self._enter()

    def __exit__(self, *exc):
        return self._exit(*exc)


class LayerTracer:
    """Times and counts the layer boundaries of one simulated system."""

    def __init__(self) -> None:
        #: boundary -> [calls, self seconds, inclusive seconds]
        self.acc = {}
        #: children time of the open spans; ``[0]`` sums top-level spans
        self._stack = [0.0]
        self._restore = []
        self._traces = []
        self.size_queries = 0
        self.size_memo_hits = 0
        self.batch_lines = 0

    def wrap(self, boundary: str, fn):
        """``fn`` with its calls, self time and total time added to ``boundary``."""
        acc = self.acc.setdefault(boundary, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                acc[0] += 1
                acc[1] += elapsed - children
                acc[2] += elapsed

        return timed

    def _patch(self, obj, attr: str, replacement) -> None:
        self._restore.append((obj, attr, obj.__dict__.get(attr)))
        setattr(obj, attr, replacement)

    def _time(self, obj, attr: str, boundary: str) -> None:
        self._patch(obj, attr, self.wrap(boundary, getattr(obj, attr)))

    def install(self, system) -> None:
        """Wrap every layer boundary of ``system`` (before it runs)."""
        for core in system.cores:
            self._time(core, "step", "cpu.step")
            trace = _TimedIterator(self.wrap("workloads.next", core.trace.__next__))
            self._traces.append(trace)
            self._patch(core, "trace", trace)
        for generator in system.generators:
            self._time(generator.data, "line", "workloads.line")
        self._time(system.page_table, "translate", "vm.translate")
        hierarchy = system.hierarchy
        self._time(hierarchy, "access", "cache.access")
        for cache in (*hierarchy.l1s, *hierarchy.l2s, hierarchy.l3):
            self._time(cache, "fill", "cache.fill")
        controller = system.controller
        self._time(controller, "read_line", "core.read_line")
        self._time(controller, "handle_eviction", "core.handle_eviction")
        compressor = getattr(controller, "compressor", None)
        if compressor is not None:
            self._wrap_compressor(compressor)
        if system.batch is not None:
            precompute = system.batch.precompute

            def counted_precompute(lines):
                self.batch_lines += len(lines)
                return precompute(lines)

            self._patch(
                system.batch, "precompute", self.wrap("compression.precompute", counted_precompute)
            )
        self._time(system.dram, "access", "dram.access")
        self._time(system.memory, "read", "dram.storage")
        self._time(system.memory, "write", "dram.storage")
        if system.sampler is not None:
            for method in ("on_access", "mark_phase", "finish"):
                self._time(system.sampler, method, "obs.sampler")
        open_span = self.wrap("obs.span", sim_system.span)
        self._patch(
            sim_system,
            "span",
            lambda *args, **kwargs: _TimedContext(self, open_span(*args, **kwargs)),
        )

    def _wrap_compressor(self, compressor) -> None:
        """Time the compressor and its algorithms; count size-memo hits.

        A ``compressed_size`` call is a memo hit when it makes no nested
        ``compress_and_size`` call; a ``cached_size`` call is one when it
        returns a size.
        """
        original = {method: getattr(compressor, method) for method in COMPRESSOR_METHODS}
        misses = [0]

        def compress_and_size(line):
            misses[0] += 1
            return original["compress_and_size"](line)

        def compressed_size(line):
            before = misses[0]
            size = original["compressed_size"](line)
            self.size_queries += 1
            self.size_memo_hits += misses[0] == before
            return size

        def cached_size(line):
            size = original["cached_size"](line)
            self.size_queries += 1
            self.size_memo_hits += size is not None
            return size

        counted = {
            **original,
            "compress_and_size": compress_and_size,
            "compressed_size": compressed_size,
            "cached_size": cached_size,
        }
        for method in COMPRESSOR_METHODS:
            self._patch(compressor, method, self.wrap("compression.compressor", counted[method]))
        for algorithm in getattr(compressor, "algorithms", ()):
            self._time(algorithm, "compress", "compression.algorithm")

    def uninstall(self) -> None:
        """Put every patched attribute back as it was."""
        while self._restore:
            obj, attr, previous = self._restore.pop()
            if previous is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    def _calls(self, boundary: str) -> int:
        return self.acc.get(boundary, (0, 0.0, 0.0))[0]

    def _total(self, boundary: str) -> float:
        return self.acc.get(boundary, (0, 0.0, 0.0))[2]

    def self_times(self) -> dict:
        """Self seconds per layer of :data:`TIMED_LAYERS`."""
        times = dict.fromkeys(TIMED_LAYERS, 0.0)
        for boundary, (_, self_s, _) in self.acc.items():
            times[LAYER_OF[boundary]] += self_s
        return times

    def counts(self, run_s: float, samples: int) -> dict:
        """Additive per-layer counts and times of the traced run.

        ``run_s`` is the host wall time of ``run()``; ``sim.self_s`` is
        that minus the time of all top-level wrapped calls: the run loop,
        its heap and the registry snapshot and delta.
        """
        self_s = self.self_times()
        return {
            "workloads.records": sum(trace.records for trace in self._traces),
            "workloads.line_calls": self._calls("workloads.line"),
            "workloads.self_s": self_s["workloads"],
            "cpu.steps": self._calls("cpu.step"),
            "cpu.self_s": self_s["cpu"],
            "vm.translates": self._calls("vm.translate"),
            "vm.self_s": self_s["vm"],
            "cache.accesses": self._calls("cache.access"),
            "cache.fills": self._calls("cache.fill"),
            "cache.self_s": self_s["cache"],
            "core.read_line_calls": self._calls("core.read_line"),
            "core.read_line_s": self._total("core.read_line"),
            "core.eviction_calls": self._calls("core.handle_eviction"),
            "core.eviction_s": self._total("core.handle_eviction"),
            "core.self_s": self_s["core"],
            "compression.calls": self._calls("compression.compressor"),
            "compression.scalar_compressions": self._calls("compression.algorithm"),
            "compression.size_queries": self.size_queries,
            "compression.size_memo_hits": self.size_memo_hits,
            "compression.batch_lines": self.batch_lines,
            "compression.batch_s": self._total("compression.precompute"),
            "compression.self_s": self_s["compression"],
            "dram.accesses": self._calls("dram.access"),
            "dram.self_s": self_s["dram"],
            "dram.storage_ops": self._calls("dram.storage"),
            "dram.storage_s": self_s["dram.storage"],
            "obs.samples": samples,
            "obs.self_s": self_s["obs"],
            "sim.self_s": run_s - self._stack[0],
        }
