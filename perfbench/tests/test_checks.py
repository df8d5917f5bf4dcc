"""The benchmark's checks accept right outputs and reject tampered ones.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import subprocess
import sys
import time

import pytest

from perfbench import checks
from perfbench.common import PRESET, OpLog, Tracer, live_children, \
    percentile, reap_children, self_seconds, simulate


@pytest.fixture(scope="module")
def loop():
    from repro.workloads import livermore_suite

    return livermore_suite(PRESET)[0]


@pytest.fixture(scope="module")
def config():
    from repro.machine import CRAY1_LIKE

    return CRAY1_LIKE


def _zoo_point(loop, config, engine_name="ruu-bypass"):
    from repro.lint import static_critical_path
    from repro.trace import reference_state

    engine, memory, result = simulate(Tracer(False), engine_name, loop,
                                      config)
    golden = reference_state(loop.program, loop.initial_memory)
    critical = static_critical_path(loop.program, config).cycles
    return engine, memory, result, golden, critical


def test_zoo_point_accepts_a_correct_run(loop, config):
    engine, memory, result, golden, critical = _zoo_point(loop, config)
    assert checks.zoo_point("p", loop, engine, memory, result, golden,
                            critical) == []


def test_zoo_point_rejects_a_changed_memory_word(loop, config):
    engine, memory, result, golden, critical = _zoo_point(loop, config)
    address, value = next(iter(sorted(golden.memory.nonzero().items())))
    memory.poke(address, value + 1.0)
    problems = checks.zoo_point("p", loop, engine, memory, result, golden,
                                critical)
    assert any("memory word" in problem for problem in problems)


def test_zoo_point_rejects_a_wrong_retired_count(loop, config):
    engine, memory, result, golden, critical = _zoo_point(loop, config)
    tampered = copy.deepcopy(result)
    tampered.instructions += 1
    problems = checks.zoo_point("p", loop, engine, memory, tampered,
                                golden, critical)
    assert any("retired" in problem for problem in problems)


def test_zoo_point_rejects_cycles_below_the_critical_path(loop, config):
    engine, memory, result, golden, critical = _zoo_point(loop, config)
    tampered = copy.deepcopy(result)
    tampered.cycles = critical - 1
    problems = checks.zoo_point("p", loop, engine, memory, tampered,
                                golden, critical)
    assert any("critical path" in problem for problem in problems)


def test_traced_run_checks(loop, config):
    from repro.obs import TraceRecorder, attribute_cycles, chrome_trace

    _, _, plain = simulate(Tracer(False), "rstu", loop, config)
    recorder = TraceRecorder(detail=True)
    _, _, traced = simulate(Tracer(False), "rstu", loop, config, recorder)
    buckets = attribute_cycles(traced, recorder).buckets
    document = chrome_trace(recorder)
    assert checks.same_timing("t", traced, plain) == []
    assert checks.attribution("t", buckets, traced.cycles) == []
    assert checks.chrome("t", document, traced.cycles) == []

    slower = copy.deepcopy(traced)
    slower.cycles += 1
    assert checks.same_timing("t", slower, plain)
    assert checks.attribution("t", buckets, traced.cycles + 1)
    leaky = dict(buckets, unaccounted=1)
    leaky["committed"] -= 1
    assert checks.attribution("t", leaky, traced.cycles)
    broken = copy.deepcopy(document)
    broken["traceEvents"][-1]["ts"] = -5
    assert checks.chrome("t", broken, traced.cycles)


def test_served_entry_rejects_a_changed_byte(loop, config):
    from repro.serve import canonical_result_bytes, result_to_wire

    _, _, result = simulate(Tracer(False), "simple", loop, config)
    expected = canonical_result_bytes(result)
    entry = {"ok": True, "result": result_to_wire(result)}
    assert checks.served_entry("s", entry, expected, traced=False) == []

    tampered = copy.deepcopy(entry)
    tampered["result"]["cycles"] += 1
    assert checks.served_entry("s", tampered, expected, traced=False)
    assert checks.served_entry("s", {"ok": False, "error": "x"}, expected,
                               traced=False)
    # A traced answer must carry an attribution that covers its cycles.
    traced = copy.deepcopy(entry)
    assert checks.served_entry("s", traced, expected, traced=True)
    traced["result"]["extra"]["attribution"] = {
        "buckets": {"committed": result.cycles}}
    assert checks.served_entry("s", traced, expected, traced=True) == []
    traced["result"]["extra"]["attribution"]["buckets"]["committed"] -= 1
    assert checks.served_entry("s", traced, expected, traced=True)


def test_same_bytes_rejects_a_changed_stall_count(loop, config):
    from repro.serve import canonical_result_bytes

    _, _, result = simulate(Tracer(False), "tomasulo", loop, config)
    expected = canonical_result_bytes(result)
    assert checks.same_bytes("b", result, expected) == []
    tampered = copy.deepcopy(result)
    tampered.stalls["tampered"] += 1
    assert checks.same_bytes("b", tampered, expected)


def test_spans_nest_share_the_operation_and_give_self_time():
    tracer = Tracer(True)
    with tracer.span("engine.run", op="a"):
        time.sleep(0.02)
        with tracer.span("obs.attribute") as inner:
            time.sleep(0.01)
    outer = next(s for s in tracer.spans if s.name == "engine.run")
    assert inner.parent == outer.id and inner.op == "a"
    own = self_seconds(tracer.spans)
    assert own["engine"] == pytest.approx(outer.seconds - inner.seconds)
    assert own["obs"] == pytest.approx(inner.seconds)
    off = Tracer(False)
    with off.span("engine.run") as span:
        span.set(inst=1)
    assert off.spans == []


def test_machine_seconds_leave_out_stolen_ticks():
    log = OpLog()
    log.add("warm", (1.0, 30, 10), points=100)   # a quarter stolen
    log.add("warm", (1.0, 40, 0), points=100)
    log.add("cold", (2.0, 0, 0), insts=500)      # no ticks seen
    log.wall = 4.0
    assert log.latencies_ms("warm") == pytest.approx([750.0, 1000.0])
    assert log.rate("points", "warm") == pytest.approx(200 / 1.75)
    assert log.rate("insts", "cold") == pytest.approx(250.0)
    assert log.stolen_share() == pytest.approx(10 / 80)
    assert log.ops_per_s() == pytest.approx(3 / (4.0 * 70 / 80))


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile(list(range(101)), 99) == pytest.approx(99)


def test_reap_children_finds_and_stops_a_leftover_child():
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    try:
        assert child.pid in live_children()
        assert child.pid in reap_children()
        assert child.pid not in live_children()
    finally:
        if child.poll() is None:
            child.kill()
        child.wait(10)
