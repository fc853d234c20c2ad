"""Spans recorded from outside the program, around each layer's public calls.

The tracer wraps module functions and class methods of ``repro`` for the
duration of a traced pass and restores them afterwards; nothing in
``src/`` knows it is being traced.  Each span is ``(name, start, end,
parent, job)``: ``parent`` is the index of the enclosing span (or -1)
and ``job`` the benchmark item that was running.  Spans stay in memory
and are written out when the run ends.

A span's layer is its name up to the last dot (``core.vector.run_pass``
belongs to ``core.vector``).  A layer's self time is the duration of
its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span recorder plus the per-layer counters it collects."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, job id), in start order.
        self.spans: List[List[object]] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        #: The benchmark item currently running (set by the Clock).
        self.job: Optional[str] = None
        #: Whether spans are being recorded right now.
        self.recording = True
        #: Simulated cycles and seconds per engine, from ``run()`` calls.
        self.engine_cycles: Dict[str, int] = {}
        self.engine_spans: Dict[str, List[int]] = {}
        #: Summed statistics of ``LockstepChecker.run_batch`` calls.
        self.vector: Dict[str, int] = {}
        #: Checkpoints in every golden stream captured.
        self.checkpoints = 0

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        if not self.recording:
            return function(*args, **kwargs)
        index = self._open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self._close(index)

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attribute`` so every call records a span.

        ``after(args, result)`` runs once the call returns, to collect
        counters at the same boundary.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None and tracer.recording:
                after(args, result)
            return result

        self._replace(owner, attribute, traced)

    def wrap_run(self, machine_class) -> None:
        """Wrap ``EpicProcessor.run``: a span plus cycles per engine."""
        original = machine_class.run
        tracer = self

        @functools.wraps(original)
        def traced(machine, *args, **kwargs):
            if not tracer.recording:
                return original(machine, *args, **kwargs)
            before = machine.stats.cycles
            index = tracer._open("core.run")
            try:
                return original(machine, *args, **kwargs)
            finally:
                tracer._close(index)
                engine = machine.last_engine or "unknown"
                tracer.engine_cycles[engine] = (
                    tracer.engine_cycles.get(engine, 0)
                    + machine.stats.cycles - before)
                tracer.engine_spans.setdefault(engine, []).append(index)

        self._replace(machine_class, "run", traced)

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        import repro.backend.epic as backend_epic
        import repro.core.fastpath as fastpath
        import repro.core.tracejit as tracejit
        import repro.core.vector as vector
        import repro.lang.compile as lang_compile
        import repro.reliability.lockstep as lockstep
        from repro.autotune.evaluate import CandidateEvaluator
        from repro.core.machine import EpicProcessor
        from repro.core.snapshot import CheckpointStore

        self.wrap(lang_compile, "frontend", "lang.frontend")
        self.wrap(lang_compile, "optimize_module", "ir.optimize_module")
        self.wrap(backend_epic, "compile_ir_to_epic",
                  "backend.compile_ir_to_epic")
        self.wrap(lockstep, "compile_ir_to_epic",
                  "backend.compile_ir_to_epic")
        self.wrap(fastpath, "specialise", "core.fastpath.specialise")
        self.wrap(tracejit.TraceSim, "_compile_trace",
                  "core.tracejit.compile_trace")
        self.wrap_run(EpicProcessor)
        self.wrap(lockstep.LockstepChecker, "__init__",
                  "reliability.checker_build")
        self.wrap(lockstep.LockstepChecker, "run_one", "reliability.run_one")
        self.wrap(lockstep.LockstepChecker, "run_batch",
                  "reliability.run_batch", after=self._batch_stats)
        self.wrap(lockstep, "capture_checkpoints", "core.snapshot.capture",
                  after=self._stream_stats)
        self.wrap(CheckpointStore, "get", "core.snapshot.store_get")
        self.wrap(CheckpointStore, "put", "core.snapshot.store_put")
        self.wrap(vector.VectorEngine, "run_pass", "core.vector.run_pass")
        self.wrap(CandidateEvaluator, "evaluate_batch",
                  "autotune.evaluate_batch")

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _batch_stats(self, args, result) -> None:
        _results, stats = result
        for key in ("vector_faults", "scalar_faults", "lane_cycles",
                    "lane_capacity", "rewalk_lane_cycles",
                    "absorbed_lanes", "cuts"):
            self.vector[key] = self.vector.get(key, 0) + stats[key]

    def _stream_stats(self, args, stream) -> None:
        self.checkpoints += len(stream)

    # -- analysis --------------------------------------------------------

    def duration(self, index: int) -> float:
        _name, start, end, _parent, _job = self.spans[index]
        return end - start

    def totals(self, factors: Dict[str, float]) -> Dict[str, float]:
        """Inclusive normalised seconds per span name.

        ``factors`` maps each job id to its host-normalisation factor.
        """
        totals: Dict[str, float] = {}
        for name, start, end, _parent, job in self.spans:
            totals[name] = totals.get(name, 0.0) \
                + (end - start) * factors.get(job, 1.0)
        return totals

    def self_times(self, factors: Dict[str, float]) -> Dict[str, float]:
        """Normalised self time per layer (children's time removed)."""
        child_time = [0.0] * len(self.spans)
        for index, (_name, start, end, parent, _job) in \
                enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, float] = {}
        for index, (name, start, end, _parent, job) in \
                enumerate(self.spans):
            layer = name.rsplit(".", 1)[0]
            own = (end - start - child_time[index]) * factors.get(job, 1.0)
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def engine_rate(self, engine: str, factors: Dict[str, float]) -> float:
        """Simulated kcycles per normalised second on ``engine``."""
        seconds = sum(self.duration(index) * factors.get(self.spans[index][4],
                                                         1.0)
                      for index in self.engine_spans.get(engine, ()))
        if seconds <= 0.0:
            return 0.0
        return self.engine_cycles.get(engine, 0) / seconds / 1e3

    def dump(self) -> List[Dict[str, object]]:
        """The spans as JSON-ready records."""
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "job": job}
                for name, start, end, parent, job in self.spans]
