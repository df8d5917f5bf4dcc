"""Correctness checks the workloads run outside their timed phases.

Each check returns a list of problems; an empty list means the output
is right.  The references are computed apart from the engine under
test: the NumPy results bundled with each workload, the golden
functional executor, the static critical path, and in-process runs of
the same point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def zoo_point(label: str, workload, engine, memory, result, golden,
              critical_cycles: int) -> List[str]:
    """An untraced zoo run against the NumPy reference and the ISS."""
    problems = [f"{label}: {failure}" for failure in
                workload.validate(memory)]
    registers = engine.regs.diff(golden.regs)
    if registers:
        problems.append(f"{label}: {len(registers)} register(s) differ "
                        f"from the golden ISS")
    words = memory.diff(golden.memory)
    if words:
        problems.append(f"{label}: {len(words)} memory word(s) differ "
                        f"from the golden ISS")
    if result.instructions != golden.executed:
        problems.append(f"{label}: retired {result.instructions}, the "
                        f"ISS executed {golden.executed}")
    if result.cycles < critical_cycles:
        problems.append(f"{label}: {result.cycles} cycles is below the "
                        f"static critical path ({critical_cycles})")
    return problems


def same_timing(label: str, result, reference) -> List[str]:
    """Cycles and stall counts equal those of ``reference``."""
    problems = []
    if result.cycles != reference.cycles:
        problems.append(f"{label}: {result.cycles} cycles, untraced run "
                        f"took {reference.cycles}")
    if dict(result.stalls) != dict(reference.stalls):
        problems.append(f"{label}: stalls differ from the untraced run")
    return problems


def attribution(label: str, buckets: Dict[str, int],
                cycles: int) -> List[str]:
    """Attribution buckets cover every cycle, none unaccounted."""
    problems = []
    if sum(buckets.values()) != cycles:
        problems.append(f"{label}: attribution sums to "
                        f"{sum(buckets.values())}, run took {cycles}")
    if buckets.get("unaccounted", 0):
        problems.append(f"{label}: {buckets['unaccounted']} cycle(s) "
                        f"unaccounted")
    return problems


def chrome(label: str, document: Any, cycles: int) -> List[str]:
    """The Perfetto document passes the in-repo schema checker."""
    from repro.obs import validate_chrome_trace

    return [f"{label}: chrome trace: {problem}"
            for problem in validate_chrome_trace(document, cycles)[:3]]


def same_bytes(label: str, result, expected: bytes) -> List[str]:
    """``canonical_result_bytes`` of ``result`` equal ``expected``."""
    from repro.serve import canonical_result_bytes

    if canonical_result_bytes(result) != expected:
        return [f"{label}: result bytes differ from the in-process run"]
    return []


def served_entry(label: str, entry: Dict[str, Any], expected: bytes,
                 traced: bool) -> List[str]:
    """One served result (wire form) against the in-process reference.

    A traced result must carry an attribution that sums to its cycles;
    without that attribution it must equal the untraced reference.
    """
    from repro.serve import wire_to_result

    if not entry.get("ok", True) or "result" not in entry:
        return [f"{label}: not answered: {entry.get('error')!r}"]
    result = wire_to_result(entry["result"])
    problems: List[str] = []
    summary: Optional[Dict[str, Any]] = result.extra.pop("attribution",
                                                        None)
    if traced:
        if summary is None:
            problems.append(f"{label}: traced result has no attribution")
        else:
            problems += attribution(label, summary.get("buckets", {}),
                                    result.cycles)
    elif summary is not None:
        problems.append(f"{label}: untraced result carries attribution")
    return problems + same_bytes(label, result, expected)
