"""Shared pieces of the benchmark: spans, statistics, inputs, cleanup.

Everything here is benchmark-side code.  The program under test is the
``repro`` package in the checkout's ``src`` directory, driven only
through its public functions.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for cache directories, span files and reports.  It is
#: inside the checkout and listed in the root ``.gitignore``.
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Pool workers and client threads per workload (the reference host
#: has two CPUs).
JOBS = 2
CLIENTS = 2


class DeadlineExceeded(BaseException):
    """The run's wall-clock deadline passed; clean up and fail.

    A ``BaseException``, like ``KeyboardInterrupt``, so that the
    ``except Exception`` handlers inside the program under test (the
    runner turns exceptions into failed points) cannot swallow it.
    """


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class _NullSpan:
    """What ``Tracer.span`` yields when tracing is off: costs one call."""

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL = _NullSpan()


class Span:
    """One timed call into a layer of the program."""

    __slots__ = ("id", "parent", "op", "name", "thread", "start", "end",
                 "source", "attrs")

    def __init__(self, ident: int, parent: Optional[int], op: Any,
                 name: str, source: str, attrs: Dict[str, Any]) -> None:
        self.id = ident
        self.parent = parent
        self.op = op
        self.name = name
        self.thread = threading.get_ident()
        self.source = source
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class Tracer:
    """Spans recorded in memory around each call the benchmark makes.

    A span has a name, a start, an end, the span it ran inside and the
    operation it belongs to; spans of one operation share ``op``.
    ``source`` names the workload (or layer probe) that was running.
    Disabled, :meth:`span` returns a shared no-op object.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.source = ""
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, op: Any = None, **attrs: Any):
        if not self.enabled:
            return _NULL
        return self._record(name, op, attrs)

    @contextmanager
    def _record(self, name: str, op: Any,
                attrs: Dict[str, Any]) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            ident = next(self._ids)
        span = Span(ident, parent.id if parent else None, op, name,
                    self.source, attrs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        threads = {tid: n for n, tid in enumerate(
            sorted({span.thread for span in self.spans}))}
        events = [
            {
                "name": span.name, "ph": "X", "pid": 0,
                "tid": threads[span.thread],
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "args": {"id": span.id, "parent": span.parent,
                         "op": str(span.op), "source": span.source,
                         **{k: v for k, v in span.attrs.items()
                            if isinstance(v, (int, float, str, bool))}},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per layer: a span's duration minus its children's.

    The layer of a span is its name up to the first dot
    (``engine.run`` belongs to ``engine``).
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = \
                child_time.get(span.parent, 0.0) + span.seconds
    totals: Dict[str, float] = {}
    for span in spans:
        layer = span.name.split(".", 1)[0]
        own = span.seconds - child_time.get(span.id, 0.0)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def cpu_ticks() -> Tuple[int, int]:
    """Busy and stolen clock ticks of all CPUs so far (``/proc/stat``).

    A tick is stolen when a virtual CPU had work to run but the
    hypervisor ran another guest.  Both are 0 where ``/proc/stat`` is
    missing; stolen ticks are 0 on bare metal.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = \
        (int(value) for value in fields[1:9])
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Times one operation, with the CPU ticks stolen while it ran."""

    __slots__ = ("began", "busy", "stolen")

    def __init__(self) -> None:
        self.busy, self.stolen = cpu_ticks()
        self.began = time.perf_counter()

    def stop(self) -> Tuple[float, int, int]:
        """``(wall seconds, busy ticks, stolen ticks)`` since the start."""
        seconds = time.perf_counter() - self.began
        busy, stolen = cpu_ticks()
        return seconds, busy - self.busy, stolen - self.stolen


@dataclass
class OpLog:
    """Operations of one timed phase: kind, time and yield.

    Each operation's wall time is taken with the CPU ticks that were
    busy and stolen meanwhile.  Rates and latencies use its *machine
    seconds*: wall seconds less the share the hypervisor stole from the
    busy CPUs while it ran (stolen over busy plus stolen ticks).  On a
    machine of its own the two are equal; on a shared virtual machine
    the steal share swings with other guests' load, and wall time with
    it.
    """

    kinds: List[str] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    machine: List[float] = field(default_factory=list)
    busy: List[int] = field(default_factory=list)
    stolen: List[int] = field(default_factory=list)
    points: List[int] = field(default_factory=list)
    insts: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall seconds the timed phase spent on its operations.
    wall: float = 0.0

    def add(self, kind: str, timing: Tuple[float, int, int],
            points: int = 1, insts: int = 0, key: str = "") -> None:
        seconds, busy, stolen = timing
        self.kinds.append(kind)
        self.keys.append(key)
        self.seconds.append(seconds)
        wanted = busy + stolen
        self.machine.append(
            seconds * (1.0 - stolen / wanted) if wanted else seconds)
        self.busy.append(busy)
        self.stolen.append(stolen)
        self.points.append(points)
        self.insts.append(insts)

    def select(self, *kinds: str) -> List[int]:
        """Indexes of the operations of these kinds (of all, if none)."""
        return [i for i, kind in enumerate(self.kinds)
                if not kinds or kind in kinds]

    def total(self, attr: str, indexes: Sequence[int]) -> float:
        values = getattr(self, attr)
        return float(sum(values[i] for i in indexes))

    def stolen_share(self, *kinds: str) -> float:
        """Stolen over busy plus stolen ticks while these kinds ran."""
        indexes = self.select(*kinds)
        stolen = self.total("stolen", indexes)
        wanted = self.total("busy", indexes) + stolen
        return stolen / wanted if wanted else 0.0

    def rate(self, attr: str, *kinds: str) -> float:
        """Sum of ``attr`` per machine second of the given kinds."""
        indexes = self.select(*kinds)
        seconds = self.total("machine", indexes)
        return self.total(attr, indexes) / seconds if seconds else 0.0

    def latencies_ms(self, *kinds: str) -> List[float]:
        """Machine-time latencies of the given kinds (of all, if none)."""
        return [self.machine[i] * 1e3 for i in self.select(*kinds)]

    def ops_per_s(self) -> float:
        """Operations per machine second of the whole timed phase."""
        return len(self.kinds) / (self.wall * (1.0 - self.stolen_share()))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


#: The Livermore size preset of ``zoo`` and ``sweep``: the CI size
#: (about 8k dynamic instructions over the 14 loops).
PRESET = "quick"


def simulate(tracer: Tracer, engine_name: str, workload, config,
             recorder=None, op: Any = None):
    """Build and run one engine in this process, with spans.

    The same computation as ``repro.analysis.run_point`` on an
    untraced point without a cache, split into the ``engine.build``
    (factory call plus ``make_memory``) and ``engine.run`` spans.
    Returns ``(engine, memory, result)``.
    """
    from repro.analysis import ENGINE_FACTORIES

    mode = None if recorder is None else (
        "detail" if recorder.detail else "stream")
    with tracer.span("engine.build", op=op, engine=engine_name):
        memory = workload.make_memory()
        engine = ENGINE_FACTORIES[engine_name](
            workload.program, config, memory)
    if recorder is not None:
        engine.recorder = recorder
    with tracer.span("engine.run", op=op, engine=engine_name,
                     workload=workload.name, recorder=mode) as span:
        result = engine.run()
        span.set(inst=result.instructions)
    return engine, memory, result


# ----------------------------------------------------------------------
# host, memory, processes, deadline
# ----------------------------------------------------------------------


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest reaped child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def live_children() -> List[int]:
    """Process ids whose parent is this process (read-only /proc scan)."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[1] == str(me):
            found.append(int(entry))
    return found


def reap_children(timeout: float = 10.0) -> List[int]:
    """Stop every child process still alive; returns the ones found.

    Children a workload left behind are a fault of the run: the caller
    counts each as a failed operation.
    """
    import multiprocessing

    found = set()
    for child in multiprocessing.active_children():
        found.add(child.pid)
        child.kill()
        child.join(timeout)
    for pid in live_children():
        found.add(pid)
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            continue
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            time.sleep(0.05)
    return sorted(pid for pid in found if pid)


#: Seconds cleanup may take after the deadline before the watchdog
#: kills every child and ends the process.
GRACE_S = 15.0


def arm_deadline(seconds: float) -> threading.Timer:
    """Raise :class:`DeadlineExceeded` in the main thread after ``seconds``.

    The run's ``finally`` blocks then close pools and servers.  Should
    cleanup itself hang, a watchdog thread kills every child process
    :data:`GRACE_S` later and ends the process with code 3.  Returns the
    watchdog; :func:`disarm_deadline` cancels both.
    """

    def _expired(signum, frame):
        raise DeadlineExceeded(f"run exceeded its {seconds:.0f}s deadline")

    def _hard_stop() -> None:
        import sys

        killed = reap_children(timeout=2.0)
        print(f"perfbench: cleanup overran the deadline; killed "
              f"{len(killed)} child process(es)", file=sys.stderr)
        sys.stderr.flush()
        os._exit(3)

    signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    watchdog = threading.Timer(seconds + GRACE_S, _hard_stop)
    watchdog.daemon = True
    watchdog.start()
    return watchdog


def disarm_deadline(watchdog: threading.Timer) -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    watchdog.cancel()


def fresh_dir(prefix: str) -> str:
    """A new empty directory under the benchmark's scratch space."""
    import tempfile

    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
