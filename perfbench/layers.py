"""Per-layer metrics from the spans of a traced run.

Each metric is computed from the spans of the workload itself.  A layer
the workload does not reach (HTTP on ``zoo``, say) is measured by a
layer probe: a small instance of the workload that does reach it, run
after the workload's own phases on the same seed.  The report names the
source of every per-layer metric.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from .common import Span, median, self_seconds

#: Span-name prefixes whose self time is reported as ``self_s.<layer>``.
LAYERS = ("workloads", "engine", "iss", "obs", "cache", "parallel", "serve")

#: Which probe reaches the layers a metric name belongs to.
PROBE_FOR = (
    (("engine.", "obs.", "trace.iss", "self_s.engine", "self_s.obs",
      "self_s.iss"), "zoo"),
    (("cache.", "parallel.", "self_s.cache", "self_s.parallel"), "sweep"),
    (("serve.", "self_s.serve"), "serve"),
)

_SERVE_KINDS = {"hot": "serve.hit_ms", "miss": "serve.miss_ms",
                "traced": "serve.traced_ms", "batch": "serve.batch_ms"}


def _named(spans: Iterable[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]


def from_spans(spans: Sequence[Span]) -> Dict[str, float]:
    """Every per-layer metric these spans support."""
    out: Dict[str, float] = {}

    def put_median(metric: str, name: str, scale: float) -> None:
        chosen = _named(spans, name)
        if chosen:
            out[metric] = median([span.seconds for span in chosen]) * scale

    def put_attr_median(metric: str, name: str, attr: str) -> None:
        values = [span.attrs[attr] for span in _named(spans, name)
                  if attr in span.attrs]
        if values:
            out[metric] = float(median(values))

    put_median("workloads.build_s", "workloads.build", 1.0)
    put_median("engine.build_us", "engine.build", 1e6)
    put_median("obs.attribute_ms", "obs.attribute", 1e3)
    put_median("obs.chrome_ms", "obs.chrome", 1e3)
    put_median("cache.key_us", "cache.key", 1e6)
    put_median("cache.serialize_us", "cache.serialize", 1e6)
    put_median("cache.deserialize_us", "cache.deserialize", 1e6)
    put_median("cache.get_ms", "cache.get", 1e3)
    put_median("cache.put_ms", "cache.put", 1e3)
    put_attr_median("cache.entry_bytes", "cache.get", "bytes")
    put_attr_median("parallel.point_pickle_bytes", "parallel.pickle",
                    "bytes")
    put_median("serve.healthz_ms", "serve.healthz", 1e3)
    put_median("serve.parse_us", "serve.parse", 1e6)
    put_median("serve.encode_us", "serve.encode", 1e6)

    runs = _named(spans, "engine.run")
    per_engine: Dict[str, List[Span]] = defaultdict(list)
    by_point: Dict[tuple, Dict[object, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for span in runs:
        mode = span.attrs.get("recorder")
        if mode is None:
            per_engine[span.attrs["engine"]].append(span)
        by_point[(span.attrs["engine"], span.attrs["workload"])][
            mode].append(span.seconds)
    for engine, chosen in per_engine.items():
        seconds = sum(span.seconds for span in chosen)
        out[f"engine.{engine}.inst_per_s"] = \
            sum(span.attrs["inst"] for span in chosen) / seconds
    for mode in ("detail", "stream"):
        # Traced over untraced Engine.run time on the same points.
        traced = plain = 0.0
        for modes in by_point.values():
            if modes.get(mode) and modes.get(None):
                traced += sum(modes[mode]) / len(modes[mode])
                plain += sum(modes[None]) / len(modes[None])
        if plain:
            out[f"obs.{mode}_overhead"] = traced / plain

    iss = _named(spans, "iss.run")
    if iss:
        out["trace.iss_inst_per_s"] = sum(
            span.attrs["inst"] for span in iss) / sum(
            span.seconds for span in iss)

    warm = [span for span in _named(spans, "parallel.run_points")
            if span.attrs.get("phase") == "warm"]
    if warm:
        out["parallel.warm_ms_per_point"] = sum(
            span.seconds for span in warm) / sum(
            span.attrs["points"] for span in warm) * 1e3

    requests = _named(spans, "serve.request")
    for kind, metric in _SERVE_KINDS.items():
        chosen = [span.seconds for span in requests
                  if span.attrs.get("kind") == kind]
        if chosen:
            out[metric] = median(chosen) * 1e3

    for layer, seconds in self_seconds(spans).items():
        if layer in LAYERS:
            out[f"self_s.{layer}"] = seconds
    return out


def probes_needed(missing: Iterable[str]) -> List[str]:
    """Workload names whose probe covers the ``missing`` metrics."""
    needed: List[str] = []
    for name in missing:
        for prefixes, probe in PROBE_FOR:
            if name.startswith(prefixes) and probe not in needed:
                needed.append(probe)
    return needed
