"""Observability: request-lifecycle tracing, unified metrics, provenance.

The measurement substrate every experiment and performance PR builds on:

* :class:`~repro.obs.tracer.EventTracer` -- per-reference lifecycle
  spans (TLB lookup, MMU-cache probes, walk accesses, DRAM service,
  replay service) with sim-time begin/end and outcome tags, exportable
  as a ``chrome://tracing`` JSON array.
* :class:`~repro.obs.registry.MetricsRegistry` -- walks every
  :class:`~repro.common.stats.StatGroup` in the machine into one flat
  dotted namespace with JSON/CSV exporters.
* :class:`~repro.obs.manifest.RunManifest` -- config snapshot + hash,
  seed, trace identity, package version and timings attached to every
  :class:`~repro.sim.metrics.SimulationResult`.
* :class:`~repro.obs.profiler.PhaseProfiler` -- wall-clock per phase and
  records/sec throughput.
* :class:`~repro.obs.timeline.TimelineRecorder` -- per-unit busy/idle
  utilization (:class:`~repro.obs.timeline.UtilizationLedger`), top-down
  translation/cache/DRAM/overlap bottleneck attribution, and periodic
  metric snapshots (:class:`~repro.obs.timeline.IntervalSampler`),
  rendered by ``repro timeline``.

All hooks are nullable: a simulator built without a tracer or timeline
pays a single ``is None`` test per hook site, and the per-record
observers (timeline sampler, invariant audits) run from one loop over a
tuple that is empty when they are off.
"""

from repro.obs.manifest import RunManifest
from repro.obs.profiler import PhaseProfiler
from repro.obs.registry import MetricsRegistry, write_stats_csv, write_stats_json
from repro.obs.timeline import (
    BottleneckAttributor,
    IntervalSampler,
    TimelineRecorder,
    UtilizationLedger,
    capture_timeline,
    render_timeline,
    timeline_payload,
    write_timeline_csv,
    write_timeline_json,
)
from repro.obs.tracer import EventTracer

__all__ = [
    "BottleneckAttributor",
    "EventTracer",
    "IntervalSampler",
    "MetricsRegistry",
    "PhaseProfiler",
    "RunManifest",
    "TimelineRecorder",
    "UtilizationLedger",
    "capture_timeline",
    "render_timeline",
    "timeline_payload",
    "write_stats_csv",
    "write_stats_json",
    "write_timeline_csv",
    "write_timeline_json",
]
