"""``sweep``: a Tables 2-6 grid through ``ParallelRunner`` and its cache.

The grid is the RSTU and the three RUU engines at two window sizes each,
a small and a large one from the paper's Table 2 / Tables 4-6 size
lists, over the 14 loops at the ``quick`` size preset.
Each operation is one ``run_points`` call for one table cell (one
engine at one size, 14 loops), the fan-out ``run_suite`` makes.  A round
starts from a fresh cache directory: a cold pass (all misses, cache
writes), a small traced pass (``SimPoint(trace=True)``, which bypasses
the cache), then warm passes of the same grid (all hits, cache reads).
The cold pass measures pool fan-out over kernel work; the warm passes
spend their time on ``SimPoint`` pickling, ``cache_key``, cache reads
and IPC.
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
from typing import Dict, List

from . import checks
from .common import JOBS, PRESET, OpLog, Stopwatch, fresh_dir, median, \
    percentile, simulate

ENGINES = ("rstu", "ruu-bypass", "ruu-nobypass", "ruu-limited")
#: Warm passes per round, after the round's cold and traced passes.
WARM_PASSES = 10


def grid_sizes(engine: str) -> List[int]:
    from repro.analysis import paper_data

    sizes = paper_data.RSTU_SIZES if engine == "rstu" \
        else paper_data.RUU_SIZES
    return list(sizes[2::6])


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, tracer, probe: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.runner = None
        #: Retries and failures of the runners already closed.
        self.closed_fleet = None
        self.cache_dirs: List[str] = []
        self.problems: List[str] = []

    def setup(self) -> None:
        from repro.analysis import FleetReport, SimPoint
        from repro.machine import CRAY1_LIKE
        from repro.workloads import livermore_suite

        self.closed_fleet = FleetReport()
        with self.tracer.span("workloads.build", op="setup"):
            self.loops = livermore_suite(PRESET)
        engines = ENGINES[:1] if self.probe else ENGINES
        self.cells = []
        for engine in engines:
            sizes = grid_sizes(engine)
            for size in sizes[1:2] if self.probe else sizes:
                config = CRAY1_LIKE.with_(window_size=size)
                self.cells.append([SimPoint(engine, loop, config)
                                   for loop in self.loops])
        random.Random(f"sweep-{self.seed}").shuffle(self.cells)
        # The traced pass: one cell per engine.
        seen = set()
        self.traced_cells = []
        for cell in self.cells:
            if cell[0].engine not in seen:
                seen.add(cell[0].engine)
                self.traced_cells.append(
                    [SimPoint(p.engine, p.workload, p.config, trace=True)
                     for p in cell])
        self.results: List[tuple] = []
        self.prepare()

    def prepare(self) -> None:
        """A warm pool over a fresh, empty cache directory (untimed)."""
        from repro.analysis import ParallelRunner, SimPoint

        self.close()
        cache_dir = fresh_dir("sweep-cache-")
        self.cache_dirs.append(cache_dir)
        self.runner = ParallelRunner(jobs=JOBS, cache_dir=cache_dir,
                                     timeout=120.0, reuse_pool=True)
        smallest = min(self.loops, key=lambda w: len(w.program))
        # Warm-up on a point outside the grid (window size 1).
        warm = [SimPoint(engine, smallest,
                         self.cells[0][0].config.with_(window_size=1))
                for engine in ENGINES[:JOBS]]
        self.runner.run_points(warm)

    def measure(self, seconds: float) -> OpLog:
        log = OpLog()
        first = len(self.results)
        hits = misses = rounds = 0
        while rounds == 0 or log.wall < seconds:
            if rounds:
                self.prepare()
            self._pass(log, self.cells, "cold")
            self._pass(log, self.traced_cells, "traced")
            before = (self.runner.hits, self.runner.misses)
            for _ in range(WARM_PASSES):
                self._pass(log, self.cells, "warm")
            hits += self.runner.hits - before[0]
            misses += self.runner.misses - before[1]
            rounds += 1
        self.warm_lookups = (hits, misses)
        self.cold_stats = self._cold_stats(self.results[first:])
        return log

    def _pass(self, log: OpLog, cells, kind: str) -> None:
        from repro.analysis import FleetError

        for cell in cells:
            op = f"sweep-{kind}:{cell[0].engine}:{cell[0].config.window_size}"
            log.attempted += 1
            host_before = self.runner.host_seconds
            watch = Stopwatch()
            try:
                with self.tracer.span("parallel.run_points", op=op,
                                      phase=kind, points=len(cell)) as span:
                    results = self.runner.run_points(cell)
                    span.set(host_seconds=self.runner.host_seconds
                             - host_before)
            except FleetError as exc:
                log.failed += 1
                self.problems.append(f"{op}: {exc}")
                continue
            timing = watch.stop()
            log.wall += timing[0]
            log.add(kind, timing, len(cell),
                    sum(result.instructions for result in results), op)
            self.results.append((kind, cell, results,
                                 self.runner.host_seconds - host_before,
                                 timing[0]))

    @staticmethod
    def _cold_stats(results) -> Dict[str, float]:
        """Pool efficiency of the cold passes (worker time vs. wall)."""
        cold = [entry for entry in results if entry[0] == "cold"]
        points = sum(len(cell) for _, cell, _, _, _ in cold)
        host = sum(entry[3] for entry in cold)
        wall = sum(entry[4] for entry in cold)
        return {
            "parallel.cold_overhead_ms_per_point":
                (wall * JOBS - host) / points * 1e3,
            "parallel.utilisation": host / (wall * JOBS),
        }

    def check(self) -> List[str]:
        from repro.analysis import ResultCache, cache_key
        from repro.analysis.cache import deserialize_result, \
            serialize_result
        from repro.serve import canonical_result_bytes

        problems = list(self.problems)
        reference: Dict[tuple, tuple] = {}
        for cell in self.cells:
            for point in cell:
                _, _, result = simulate(self.tracer, point.engine,
                                        point.workload, point.config,
                                        op=f"check:{point.engine}")
                reference[self._key(point)] = (
                    result, canonical_result_bytes(result))
        for kind, cell, results, _, _ in self.results:
            for point, result in zip(cell, results):
                label = f"{kind} {point.engine}/{point.config.window_size}" \
                        f"/{point.workload.name}"
                expected, expected_bytes = reference[self._key(point)]
                if kind == "traced":
                    summary = result.extra.pop("attribution", {})
                    problems += checks.attribution(
                        label, summary.get("buckets", {}), result.cycles)
                elif kind == "warm" and not result.extra.get("from_cache"):
                    problems.append(f"{label}: warm pass missed the cache")
                problems += checks.same_bytes(label, result, expected_bytes)
        hits, misses = self.warm_lookups
        if misses:
            problems.append(f"warm passes: {misses} cache miss(es), "
                            f"{hits} hit(s)")
        fleet = self.fleet()
        if fleet.failures:
            problems.append(fleet.describe())
        # The parent-side view of the cache: every grid point's entry
        # reads back as the in-process result.
        cache = ResultCache(self.cache_dirs[-1])
        scratch = ResultCache(fresh_dir("sweep-put-"))
        self.cache_dirs.append(scratch.directory)
        for cell in self.cells:
            for point in cell:
                op = f"cache:{point.engine}:{point.workload.name}"
                with self.tracer.span("cache.key", op=op):
                    key = cache_key(point.engine, point.workload,
                                    point.config)
                path = os.path.join(cache.directory, f"{key}.json")
                with self.tracer.span("cache.get", op=op) as span:
                    cached = cache.get(key)
                    span.set(bytes=os.path.getsize(path)
                             if os.path.exists(path) else 0)
                expected, expected_bytes = reference[self._key(point)]
                if cached is None:
                    problems.append(f"{op}: no cache entry")
                    continue
                problems += checks.same_bytes(op, cached, expected_bytes)
                with self.tracer.span("cache.serialize", op=op):
                    payload = serialize_result(expected)
                with self.tracer.span("cache.deserialize", op=op):
                    deserialize_result(payload)
                with self.tracer.span("cache.put", op=op):
                    scratch.put(key, expected)
                with self.tracer.span("parallel.pickle", op=op) as span:
                    span.set(bytes=len(pickle.dumps(point)))
        return problems

    @staticmethod
    def _key(point) -> tuple:
        return (point.engine, point.workload.name, point.config.window_size)

    @staticmethod
    def end_to_end(log: OpLog) -> Dict[str, float]:
        latencies = log.latencies_ms()
        return {
            "sim_inst_per_s": log.rate("insts", "cold"),
            "traced_inst_per_s": log.rate("insts", "traced"),
            "hit_points_per_s": log.rate("points", "warm"),
            "req_per_s": log.ops_per_s(),
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": percentile(latencies, 99),
        }

    def layer_counts(self) -> Dict[str, float]:
        hits, misses = self.warm_lookups
        counts = dict(self.cold_stats)
        counts["cache.hit_ratio"] = hits / (hits + misses)
        counts["parallel.retries"] = float(self.fleet().retries)
        return counts

    def probe_layers(self) -> None:
        pass

    def fleet(self):
        """The ``FleetReport`` of every runner this run has used."""
        from repro.analysis import FleetReport

        total = FleetReport()
        total.merge(self.closed_fleet)
        if self.runner is not None:
            total.merge(self.runner.fleet)
        return total

    def close(self) -> None:
        """Stop the pool and remove the cache directories."""
        if self.runner is not None:
            self.closed_fleet.merge(self.runner.fleet)
            self.runner.close()
            self.runner = None
        for directory in self.cache_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        self.cache_dirs.clear()
