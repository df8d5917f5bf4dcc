"""``serve``: the HTTP service, in this process, under closed-loop clients.

``serve_in_background`` runs the full server (admission, coalescing,
micro-batching, a 2-worker pool, a fresh result cache) on a thread of
the benchmark's process.  Two client threads each send their next
request as soon as the previous one is answered.  The stream comes in
rounds of 40 requests, shuffled with the seed:

* 32 ``/run`` requests for points of a 16-point hot set, cached during
  warm-up (cache hits, and coalescing when both clients ask at once);
* 2 ``/batch`` envelopes of 4 distinct hot points each;
* 3 first-seen points (misses): the next engine and loop in a seeded
  cycle over every engine on the four smallest loops, made first-seen
  by a ``max_cycles`` budget no earlier request used.  The budget never
  binds, so each miss simulates the same work as the reference run of
  its engine and loop;
* 3 ``"trace": true`` requests over a second such cycle; they always
  simulate.

The run ends at the first round boundary after ``--seconds`` once at
least 1000 requests were answered.
"""

from __future__ import annotations

import itertools
import random
import re
import shutil
import threading
import time
from typing import Any, Dict, List, Optional

from . import checks
from .common import CLIENTS, JOBS, OpLog, Stopwatch, fresh_dir, median, \
    percentile

HOT_POINTS = 16
ROUND = (("hot", 32), ("batch", 2), ("miss", 3), ("traced", 3))
BATCH_ITEMS = 4
#: A run answers at least this many requests, so that ten samples lie
#: beyond its p99.
MIN_REQUESTS = 1000
#: Misses and traced requests use the four loops with the fewest
#: instructions, so that the stream stays hit-heavy in time as well.
CHEAP_LOOPS = ("LLL2", "LLL4", "LLL10", "LLL11")
FIRST_BUDGET = 5_000_000

_METRIC = re.compile(r"^([a-z_]+)(\{[^}]*\})? ([0-9.eE+-]+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text form -> {name or name{labels}: value}."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        match = _METRIC.match(line)
        if match:
            values[match.group(1) + (match.group(2) or "")] = \
                float(match.group(3))
    return values


class Serve:
    name = "serve"

    def __init__(self, seed: int, tracer, probe: bool = False) -> None:
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.handle = None
        self.cache_dir: Optional[str] = None
        self.problems: List[str] = []
        self.responses: List[tuple] = []
        self._budget = FIRST_BUDGET
        self._lock = threading.Lock()

    def setup(self) -> None:
        from repro.analysis import ENGINE_FACTORIES
        from repro.serve import ServeClient, build_workload_registry, \
            serve_in_background

        with self.tracer.span("workloads.build", op="setup"):
            self.registry = build_workload_registry()

        rng = random.Random(f"serve-{self.seed}")
        engines = sorted(ENGINE_FACTORIES)
        loops = [f"LLL{k}" for k in range(1, 15)]
        # Every engine and every loop is in the hot set; the seed pairs
        # them and draws the two extra points.
        hot_engines = engines + rng.sample(engines, HOT_POINTS - len(engines))
        hot_loops = loops + rng.sample(loops, HOT_POINTS - len(loops))
        rng.shuffle(hot_engines)
        rng.shuffle(hot_loops)
        self.hot = [{"engine": engine, "workload": loop}
                    for engine, loop in zip(hot_engines, hot_loops)]
        if self.probe:
            self.hot = self.hot[:BATCH_ITEMS]
        # Misses and traced requests each cycle through every engine on
        # every cheap loop, in a seeded order.
        self.cycles = {}
        for kind in ("miss", "traced"):
            combos = [(engine, loop) for engine in engines
                      for loop in CHEAP_LOOPS]
            rng.shuffle(combos)
            self.cycles[kind] = itertools.cycle(combos)
        self.rng = rng
        self.cache_dir = fresh_dir("serve-cache-")
        with self.tracer.span("serve.start", op="setup"):
            self.handle = serve_in_background(
                jobs=JOBS, queue_depth=32, cache_dir=self.cache_dir,
                request_timeout=120.0)
        self.port = self.handle.port
        client = ServeClient(port=self.port, timeout=120.0)
        client.wait_ready()
        # Warm-up: one batch caches every hot point.
        client.run_batch(self.hot)

    def prepare(self) -> None:
        pass

    # -- the stream -----------------------------------------------------

    def _round(self) -> List[tuple]:
        requests: List[tuple] = []
        for kind, count in ROUND:
            for _ in range(count):
                requests.append(self._request(kind))
        self.rng.shuffle(requests)
        return requests

    def _request(self, kind: str) -> tuple:
        rng = self.rng
        if kind == "hot":
            return kind, dict(rng.choice(self.hot))
        if kind == "batch":
            return kind, {"requests": [dict(item) for item in
                                       rng.sample(self.hot, BATCH_ITEMS)]}
        engine, loop = next(self.cycles[kind])
        body: Dict[str, Any] = {"engine": engine, "workload": loop}
        if kind == "traced":
            body["trace"] = True
        else:
            self._budget += 1
            body["config"] = {"max_cycles": self._budget}
        return kind, body

    def measure(self, seconds: float) -> OpLog:
        from repro.serve import ServeClient

        log = OpLog()
        client = ServeClient(port=self.port, timeout=120.0)
        before = parse_metrics(client.metrics_text())
        queue: List[tuple] = []
        state = {"issued": 0, "stop": False}
        started = time.perf_counter()

        def next_request() -> Optional[tuple]:
            with self._lock:
                if not queue:
                    done = time.perf_counter() - started >= seconds \
                        and state["issued"] >= MIN_REQUESTS
                    if done or state["stop"] or self.probe \
                            and state["issued"]:
                        return None
                    queue.extend(self._round())
                state["issued"] += 1
                log.attempted += 1
                return queue.pop()

        def client_loop(index: int) -> None:
            own = ServeClient(port=self.port, timeout=120.0)
            while True:
                item = next_request()
                if item is None:
                    return
                self._send(own, log, *item)

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"perfbench-client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            state["stop"] = True
            for thread in threads:
                thread.join(30.0)
        log.wall = time.perf_counter() - started
        after = parse_metrics(client.metrics_text())
        self.counters = {name: after.get(name, 0.0) - before.get(name, 0.0)
                         for name in after}
        return log

    def _send(self, client, log: OpLog, kind: str,
              body: Dict[str, Any]) -> None:
        op = f"serve-{kind}:{id(body)}"
        watch = Stopwatch()
        try:
            with self.tracer.span("serve.request", op=op, kind=kind):
                if kind == "batch":
                    entries = client.run_batch(body["requests"])
                else:
                    entries = [client.run_raw(body)]
        except Exception as exc:  # noqa: BLE001 - counted as failed
            with self._lock:
                log.failed += 1
                self.problems.append(f"{kind} {body}: "
                                     f"{type(exc).__name__}: {exc}")
            return
        timing = watch.stop()
        items = body["requests"] if kind == "batch" else [body]
        insts = sum(entry.get("result", {}).get("instructions", 0)
                    for entry in entries)
        with self._lock:
            log.add(kind, timing, len(items), insts, op)
            self.responses.append((kind, items, entries))

    # -- checks and metrics ---------------------------------------------

    def check(self) -> List[str]:
        from repro.machine import CRAY1_LIKE
        from repro.serve import ServeClient, canonical_result_bytes

        from .common import simulate

        problems = list(self.problems)
        registry = self.registry
        reference: Dict[tuple, bytes] = {}
        for kind, items, entries in self.responses:
            if len(entries) != len(items):
                problems.append(f"{kind}: {len(entries)} answers for "
                                f"{len(items)} request(s)")
                continue
            for item, entry in zip(items, entries):
                key = (item["engine"], item["workload"])
                if key not in reference:
                    _, _, result = simulate(
                        self.tracer, key[0], registry[key[1]], CRAY1_LIKE,
                        op=f"check:{key[0]}:{key[1]}")
                    reference[key] = canonical_result_bytes(result)
                problems += checks.served_entry(
                    f"{kind} {key[0]}/{key[1]}", entry, reference[key],
                    traced=bool(item.get("trace")))
        totals = parse_metrics(
            ServeClient(port=self.port).metrics_text())
        settled = sum(value for name, value in totals.items()
                      if name.startswith("repro_serve_points_total"))
        hits = totals.get("repro_serve_cache_hits_total", 0.0)
        misses = totals.get("repro_serve_cache_misses_total", 0.0)
        if hits + misses != settled:
            problems.append(f"/metrics: {hits:.0f} hits + {misses:.0f} "
                            f"misses != {settled:.0f} points settled")
        rejected = totals.get("repro_serve_admission_rejected_total", 0.0)
        if rejected:
            problems.append(f"/metrics: {rejected:.0f} admission "
                            f"rejection(s)")
        return problems

    def probe_layers(self) -> None:
        """Spans for the serve layers no stream request isolates."""
        import json

        from repro.machine import CRAY1_LIKE
        from repro.serve import ServeClient, parse_sim_request, \
            result_to_wire

        from .common import simulate

        client = ServeClient(port=self.port)
        for index in range(50):
            with self.tracer.span("serve.healthz", op=f"healthz:{index}"):
                client.healthz()
        registry = self.registry
        for kind, body in self._round():
            for item in body.get("requests", [body]):
                with self.tracer.span("serve.parse", op=f"parse:{kind}"):
                    parse_sim_request(item, registry)
        for item in self.hot:
            _, _, result = simulate(self.tracer, item["engine"],
                                    registry[item["workload"]], CRAY1_LIKE,
                                    op=f"encode:{item['engine']}")
            with self.tracer.span("serve.encode", op=f"encode:{item}"):
                json.dumps(result_to_wire(result))

    @staticmethod
    def end_to_end(log: OpLog) -> Dict[str, float]:
        latencies = log.latencies_ms()
        return {
            "sim_inst_per_s": log.rate("insts", "miss"),
            "traced_inst_per_s": log.rate("insts", "traced"),
            "hit_points_per_s": log.rate("points", "hot", "batch"),
            "req_per_s": log.ops_per_s(),
            "latency_p50_ms": median(latencies),
            "latency_p99_ms": percentile(latencies, 99),
        }

    def layer_counts(self) -> Dict[str, float]:
        counters = self.counters
        points = counters.get("repro_serve_point_seconds_count", 0.0)
        return {
            "serve.point_ms": counters.get(
                "repro_serve_point_seconds_sum", 0.0) / points * 1e3
            if points else 0.0,
            "serve.cache_hits": counters.get(
                "repro_serve_cache_hits_total", 0.0),
            "serve.cache_misses": counters.get(
                "repro_serve_cache_misses_total", 0.0),
            "serve.coalesced": counters.get(
                "repro_serve_coalesced_total", 0.0),
            "serve.batches": counters.get("repro_serve_batches_total", 0.0),
            "serve.rejected": counters.get(
                "repro_serve_admission_rejected_total", 0.0),
        }

    def close(self) -> None:
        """Drain and stop the server, then remove its cache directory."""
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
