"""The repository's benchmark: one workload, one run, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  ``--trace 1`` is the traced run: it measures half
the time with tracing off and half with spans on, reports every
per-layer metric and the slowdown tracing caused, and writes the spans
to ``.perfbench/`` as Chrome trace-event JSON.  A readable table goes to
standard output, the full report to ``.perfbench/results/``, and the
last line of standard output is the result object.  See README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The run, cleanup included, must end well inside 180 s.
DEADLINE_S = 150.0
#: Setups measured per untraced run (this one plus child processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
PROBE_SECONDS = 0.5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("zoo", "sweep", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make(name: str, seed: int, tracer, probe: bool = False):
    from perfbench.service import Serve
    from perfbench.sweep import Sweep
    from perfbench.zoo import Zoo

    return {"zoo": Zoo, "sweep": Sweep, "serve": Serve}[name](
        seed, tracer, probe=probe)


def setup_child(args) -> float:
    """Time one whole setup in a fresh process, as a user would pay it."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_probes(names, seed, tracer):
    """Small runs of other workloads for the layers this one skips.

    Returns ``({metric: (value, source)}, problems, attempted, failed)``.
    """
    from perfbench.layers import from_spans

    metrics, problems, attempted, failed = {}, [], 0, 0
    for name in names:
        source = f"probe:{name}"
        tracer.source = source
        first = len(tracer.spans)
        probe = make(name, seed, tracer, probe=True)
        try:
            probe.setup()
            log = probe.measure(PROBE_SECONDS)
            problems += probe.check()
            probe.probe_layers()
            found = from_spans(tracer.spans[first:])
            found.update(probe.layer_counts())
        finally:
            probe.close()
        attempted += log.attempted
        failed += log.failed
        for metric, value in found.items():
            metrics.setdefault(metric, (value, source))
    return metrics, problems, attempted, failed


def print_table(report: dict) -> None:
    print(f"perfbench {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  host nproc={report['host']['nproc']} "
          f"python={report['host']['python']}")
    print(f"operations: {report['attempted']} attempted, "
          f"{report['failed']} failed; correct: {report['correct']}; "
          f"CPU time stolen by the host: "
          + ", ".join(f"{share:.0%}" for share in report["stolen_share"]))
    for problem in report["problems"][:10]:
        print(f"  PROBLEM: {problem}")
    width = max((len(name) for name in report["metrics"]), default=10)
    for name, entry in report["metrics"].items():
        source = f"  [{entry['source']}]" if "source" in entry else ""
        print(f"  {name:<{width}s} {entry['value']:>14.6g} "
              f"{entry['unit']}{source}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    source = os.path.join(ROOT, "src")
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {source}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    from perfbench import common

    imported = time.perf_counter() - STARTED
    watchdog = common.arm_deadline(DEADLINE_S - imported)
    try:
        if args.setup_only:
            return setup_only(args)
        return run(args, spec, imported)
    except common.DeadlineExceeded as exc:
        leftover = common.reap_children()
        print(f"perfbench: {exc}; stopped {len(leftover)} child "
              f"process(es)", file=sys.stderr)
        return 3
    finally:
        common.disarm_deadline(watchdog)


def setup_only(args) -> int:
    """The child side of :func:`setup_child`: set up, report, tear down."""
    from perfbench import common

    workload = make(args.workload, args.seed, common.Tracer(False))
    try:
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
    finally:
        workload.close()
    return 0


def run(args, spec: dict, imported: float) -> int:
    from perfbench import common
    from perfbench.layers import from_spans, probes_needed

    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    tracer = common.Tracer(enabled=bool(args.trace))
    tracer.source = args.workload
    problems = []
    setups = []
    logs = []
    e2e_untraced = None
    layer_metrics = {}
    workload = make(args.workload, args.seed, tracer)
    try:
        if not args.trace:
            setups = [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
        began = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - began)
        # Setup spans other than the workload build are warm-up noise.
        tracer.spans = [span for span in tracer.spans
                        if span.name == "workloads.build"]
        if args.trace:
            tracer.enabled = False
            logs.append(workload.measure(seconds / 2))
            e2e_untraced = workload.end_to_end(logs[-1])
            workload.prepare()
            tracer.enabled = True
            logs.append(workload.measure(seconds / 2))
        else:
            logs.append(workload.measure(seconds))
        problems += workload.check()
        if args.trace:
            workload.probe_layers()
            for name, value in from_spans(tracer.spans).items():
                layer_metrics[name] = (value, args.workload)
            for name, value in workload.layer_counts().items():
                layer_metrics[name] = (value, args.workload)
    finally:
        workload.close()

    e2e = workload.end_to_end(logs[-1])
    extra_attempted = extra_failed = 0
    if args.trace:
        wanted = [entry["name"] for entry in spec["per_layer"]]
        layer_metrics["trace.slowdown"] = (
            e2e_untraced["req_per_s"] / e2e["req_per_s"], args.workload)
        missing = [name for name in wanted if name not in layer_metrics]
        metrics, probe_problems, extra_attempted, extra_failed = \
            run_probes(probes_needed(missing), args.seed, tracer)
        problems += probe_problems
        for name in missing:
            if name in metrics:
                layer_metrics[name] = metrics[name]
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        lost = [name for name in wanted if name not in layer_metrics]
        if lost:
            problems.append(f"per-layer metrics not measured: {lost}")
        reported = {name: {"value": layer_metrics[name][0],
                           "unit": units[name],
                           "source": layer_metrics[name][1]}
                    for name in wanted if name in layer_metrics}
    else:
        e2e["setup_s"] = common.median(setups)
        e2e["peak_rss_mb"] = common.peak_rss_mb()
        reported = {entry["name"]: {"value": e2e[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in spec["end_to_end"]}

    leftover = common.reap_children()
    if leftover:
        problems.append(f"{len(leftover)} child process(es) outlived "
                        f"the run: {leftover}")
    attempted = sum(log.attempted for log in logs) + extra_attempted
    failed = sum(log.failed for log in logs) + extra_failed + len(leftover)
    correct = not problems
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "host": common.host_info(),
        "attempted": attempted, "failed": failed, "correct": correct,
        "problems": problems, "metrics": reported,
        "setup_samples_s": setups,
        "untraced_end_to_end": e2e_untraced,
        "stolen_share": [log.stolen_share() for log in logs],
        "operations": [list(op) for log in logs for op in zip(
            log.kinds, log.keys, log.seconds, log.busy, log.stolen,
            log.points, log.insts)],
    }
    results = os.path.join(common.WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
    if args.trace:
        tracer.write_chrome(os.path.join(common.WORK_DIR,
                                         f"spans-{stem}.json"))
    print_table(report)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
