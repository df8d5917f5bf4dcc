"""``zoo``: every engine on every Livermore loop, serially, in process.

Nearly all host time goes to the engine kernels and the observability
recorder; none to the result cache, the worker pool or HTTP.  A round is
one untraced pass over the 14 x 14 grid followed by one traced pass: a
fixed subset of loops on every engine with a detail recorder (the
``repro trace`` path: ``TraceRecorder(detail=True)``,
``attribute_cycles``, ``chrome_trace``) and with a streaming recorder
(the path of a served ``"trace": true`` request).
"""

from __future__ import annotations

import random
from typing import Dict, List

from . import checks
from .common import PRESET, OpLog, Stopwatch, median, percentile, \
    simulate

#: The loops the traced pass repeats: a short kernel, the longest one
#: and one with indirect addressing.
TRACED_LOOPS = ("LLL1", "LLL8", "LLL13")


class Zoo:
    name = "zoo"

    def __init__(self, seed: int, tracer, probe: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.problems: List[str] = []

    def setup(self) -> None:
        from repro.analysis import ENGINE_FACTORIES
        from repro.machine import CRAY1_LIKE
        from repro.workloads import livermore_suite

        self.config = CRAY1_LIKE
        with self.tracer.span("workloads.build", op="setup"):
            self.loops = livermore_suite(PRESET)
        self.engines = sorted(ENGINE_FACTORIES)
        if self.probe:
            # Layer probe: two loops per engine, one traced.
            self.loops = self.loops[:2]
        rng = random.Random(f"zoo-{self.seed}")
        self.grid = [(engine, loop) for engine in self.engines
                     for loop in self.loops]
        rng.shuffle(self.grid)
        traced = [loop for loop in self.loops
                  if loop.name in TRACED_LOOPS] or self.loops[:1]
        self.traced_grid = [(engine, loop) for engine in self.engines
                            for loop in traced]
        rng.shuffle(self.traced_grid)
        #: The result of each point's first untraced run, for the checks.
        self.first: Dict[tuple, object] = {}
        self.references: Dict[str, tuple] = {}
        # Warm-up: every engine once on the smallest loop.
        smallest = min(self.loops, key=lambda w: len(w.program))
        for engine in self.engines:
            simulate(self.tracer, engine, smallest, self.config,
                     op="warmup")

    def prepare(self) -> None:
        """Forget earlier runs, so the next measure checks afresh."""
        self.first.clear()
        self.references.clear()

    def measure(self, seconds: float) -> OpLog:
        log = OpLog()
        rounds = 0
        # Two rounds at least, so every run has repeated points.
        while rounds < 2 or log.wall < seconds:
            self._untraced_pass(log)
            self._traced_pass(log)
            rounds += 1
        return log

    def _timed(self, log: OpLog, op: str, run):
        """Run one operation on the clock; failures count, not raise."""
        log.attempted += 1
        watch = Stopwatch()
        try:
            outcome = run()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            log.failed += 1
            self.problems.append(f"{op}: {type(exc).__name__}: {exc}")
            return None, None
        timing = watch.stop()
        log.wall += timing[0]
        return outcome, timing

    def _untraced_pass(self, log: OpLog) -> None:
        for engine, loop in self.grid:
            op = f"zoo:{engine}:{loop.name}"
            outcome, timing = self._timed(log, op, lambda: simulate(
                self.tracer, engine, loop, self.config, op=op))
            if outcome is None:
                continue
            machine, memory, result = outcome
            key = (engine, loop.name)
            log.add("repeat" if key in self.first else "first", timing, 1,
                    result.instructions, op)
            # Checked now, off the clock, so no run's state is kept.
            if key in self.first:
                self.problems += checks.same_timing(op, result,
                                                    self.first[key])
                continue
            self.first[key] = result
            golden, critical = self._reference(loop)
            self.problems += checks.zoo_point(
                f"{engine} on {loop.name}", loop, machine, memory, result,
                golden, critical)

    def _traced_pass(self, log: OpLog) -> None:
        from repro.obs import TraceRecorder, attribute_cycles, chrome_trace

        for engine, loop in self.traced_grid:
            for detail in (True, False):
                mode = "detail" if detail else "stream"
                op = f"zoo-{mode}:{engine}:{loop.name}"

                def run():
                    recorder = TraceRecorder(detail=detail)
                    _, _, result = simulate(self.tracer, engine, loop,
                                            self.config, recorder, op=op)
                    with self.tracer.span("obs.attribute", op=op):
                        summary = attribute_cycles(result, recorder)
                    document = None
                    if detail:
                        with self.tracer.span("obs.chrome", op=op):
                            document = chrome_trace(recorder)
                    return result, summary, document

                outcome, timing = self._timed(log, op, run)
                if outcome is None:
                    continue
                result, summary, document = outcome
                log.add(mode, timing, 1, result.instructions, op)
                if document is not None:
                    self.problems += checks.chrome(op, document,
                                                   result.cycles)
                self.problems += checks.attribution(op, summary.buckets,
                                                    result.cycles)
                first = self.first.get((engine, loop.name))
                if first is None:
                    self.problems.append(f"{op}: no untraced run to compare")
                else:
                    self.problems += checks.same_timing(op, result, first)

    def _reference(self, loop) -> tuple:
        """The golden ISS state and static critical path of one loop."""
        from repro.lint import static_critical_path
        from repro.trace import FunctionalExecutor

        if loop.name not in self.references:
            executor = FunctionalExecutor(loop.program,
                                          loop.initial_memory.copy())
            with self.tracer.span("iss.run", op=f"check:{loop.name}") \
                    as span:
                executor.run()
                span.set(inst=executor.executed)
            self.references[loop.name] = (
                executor,
                static_critical_path(loop.program, self.config).cycles)
        return self.references[loop.name]

    def check(self) -> List[str]:
        """Problems found by the checks made between operations."""
        return list(self.problems)

    @staticmethod
    def end_to_end(log: OpLog) -> Dict[str, float]:
        # Latency is that of simulating one point, as a caller of
        # Engine.run sees it; the traced operations have their own rate.
        latencies = log.latencies_ms("first", "repeat")
        return {
            "sim_inst_per_s": log.rate("insts", "first", "repeat"),
            "traced_inst_per_s": log.rate("insts", "detail", "stream"),
            # zoo has no cache: a repeated point is simulated again.
            "hit_points_per_s": log.rate("points", "repeat"),
            "req_per_s": log.ops_per_s(),
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": percentile(latencies, 99),
        }

    def probe_layers(self) -> None:
        pass

    def layer_counts(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass
