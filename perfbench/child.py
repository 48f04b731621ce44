"""One measured process of the benchmark.

``run.py`` launches this script in a fresh interpreter with
the checkout's ``src`` on ``PYTHONPATH``, so interpreter start, package
import and trace generation are paid here exactly as a user pays them.
It prints one JSON object as its last line of standard output.

Modes:

``inproc``
    Generate the workload's traces with ``make_trace`` and simulate each
    of its cells directly with ``SystemSimulator``.  ``--setup-only``
    stops at the start of the first ``run()``; ``--trace`` installs the
    layer shims of ``layers.py``.  With ``--handshake`` the pass stops
    between cells, before the first and after the last, for ``run.py``
    to take a host-speed sample (see ``hostspeed.py``): it prints
    :data:`CALIBRATE` and waits for a line on standard input.
``sweep``
    Resolve the workload's cells through
    ``ExperimentExecutor(workers=2, cache=ResultCache(dir), telemetry=...)``.
    Launched twice on one cache directory: cold, then warm.
``reference``
    The serial, cache-less ``fig10_performance_energy`` rows the pooled
    sweep must reproduce.

Usage: ``python3 perfbench/child.py <mode> --workload W --length N
--seed S --launch <time.time() at launch> [...]``.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

from layers import LayerTimer

#: The line a ``--handshake`` pass prints when it waits for a sample.
CALIBRATE = "perfbench-calibrate"

#: Cell ``run()`` seconds after which a ``--handshake`` pass asks for
#: another sample: cells in between share the samples around them.
CALIBRATE_EVERY_S = 0.3

#: Cell sets by workload.  fig10_sweep's in-process pass (traced runs
#: only) simulates the same cells its sweep resolves.
CELL_SETS = {
    "bigmem_pairs": "bigdata",
    "small_pairs": "small",
    "multicore_mix": "mixes",
    "fig10_sweep": "bigdata",
}


def cells_for(workload):
    """``[(label, workload names, SystemConfig)]``, TEMPO off then on."""
    kind = CELL_SETS[workload]
    if kind == "mixes":
        from repro.analysis.experiments import MULTIPROGRAM_MIXES, _bliss_config

        return [
            ("%s/%s" % ("+".join(mix), "on" if tempo else "off"), tuple(mix),
             _bliss_config(tempo=tempo))
            for mix in MULTIPROGRAM_MIXES
            for tempo in (False, True)
        ]
    from repro.common.config import default_system_config
    from repro.workloads.registry import BIGDATA_WORKLOADS, SMALL_WORKLOADS

    group = BIGDATA_WORKLOADS if kind == "bigdata" else SMALL_WORKLOADS
    config = default_system_config()
    return [
        ("%s/%s" % (workload.name, "on" if tempo else "off"), (workload.name,),
         config.with_tempo(tempo))
        for workload in group
        for tempo in (False, True)
    ]


def digest(result):
    """Hash of every simulated stat (``manifest.*`` excluded: it holds
    host timings and provenance) plus total cycles and energy."""
    stats = sorted(
        (key, value) for key, value in result.stats.items()
        if not key.startswith("manifest.")
    )
    blob = json.dumps([stats, result.total_cycles, result.energy_total], default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb():
    """Peak RSS of this process and of every child it has reaped.

    This process's own peak is read from ``VmHWM``: after ``exec`` Linux
    carries the launching process's peak into ``ru_maxrss``, which
    would report ``run.py``'s calibration table here."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
                    break
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _sum_stats(results, pattern_suffix):
    return sum(
        value
        for result in results
        for key, value in result.stats.items()
        if key.endswith(pattern_suffix) and not key.startswith("manifest.")
    )


def _stat(result, key):
    return result.stats.get(key, 0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def model_counts(labels, results, records):
    """Per-layer simulated counts over one pass's results (simulated,
    not host, numbers: they repeat exactly for a seed)."""
    tlb_misses = _sum_stats(results, ".tlb.misses")
    mmu_hits = _sum_stats(results, ".mmu_cache.hits")
    mmu_misses = _sum_stats(results, ".mmu_cache.misses")
    llc_hits = sum(_stat(result, "llc.hits") for result in results)
    llc_misses = sum(_stat(result, "llc.misses") for result in results)
    bank = [
        sum(_stat(result, "dram.bank." + outcome) for result in results)
        for outcome in ("hit", "miss", "conflict")
    ]
    aided = counted = 0
    for label, result in zip(labels, results):
        if label.endswith("/on"):
            for core in result.cores:
                service = core.replay_service
                aided += service.llc + service.row_buffer
                counted += service.total

    def median_of(key):
        values = [result.stats[key] for result in results if key in result.stats]
        return statistics.median(values) if values else 0.0

    return {
        "mmu.tlb_miss_rate": _ratio(tlb_misses, records),
        "mmu.mmu_cache_hit_rate": _ratio(mmu_hits, mmu_hits + mmu_misses),
        "mmu.walk_cycles_p50": median_of("system.walk_cycles.p50"),
        "vm.minor_faults": _sum_stats(results, ".address_space.minor_faults"),
        "vm.superpage_fraction": statistics.mean(
            result.superpage_fraction for result in results
        ),
        "core.prefetches_built": sum(
            _stat(result, "tempo_engine.prefetches_built") for result in results
        ),
        "core.replay_aided_frac": _ratio(aided, counted),
        "cache.llc_hit_rate": _ratio(llc_hits, llc_hits + llc_misses),
        "sched.latency_demand_p50": median_of("controller.latency_demand.p50"),
        "sched.latency_demand_p99": median_of("controller.latency_demand.p99"),
        "sched.latency_pt_p50": median_of("controller.latency_pt.p50"),
        "sched.latency_pt_p99": median_of("controller.latency_pt.p99"),
        "dram.row_hit_rate": _ratio(bank[0], sum(bank)),
    }


def tempo_reductions(labels, results):
    """Mean speedup/energy fraction over the pass's off/on pairs."""
    from repro.sim.runner import energy_fraction, speedup_fraction

    by_label = dict(zip(labels, results))
    pairs = [
        (by_label[label], by_label[label[:-len("/off")] + "/on"])
        for label in labels
        if label.endswith("/off") and label[:-len("/off")] + "/on" in by_label
    ]
    if not pairs:
        return None
    return {
        "runtime": statistics.mean(speedup_fraction(b, t) for b, t in pairs),
        "energy": statistics.mean(energy_fraction(b, t) for b, t in pairs),
    }


def handshake():
    """Wait while ``run.py`` takes a host-speed sample."""
    sys.stdout.write(CALIBRATE + "\n")
    sys.stdout.flush()
    sys.stdin.readline()


def inproc_pass(workload, length, seed, launch, traced=False, setup_only=False,
                calibrate=None):
    """Simulate the workload's cells in this process; see module doc.

    *calibrate*, when given, is called before the first cell's
    ``run()``, again once :data:`CALIBRATE_EVERY_S` of ``run()`` time
    has passed since the last call, and after the last cell.
    ``out["calibrated"][label]`` is the number of calls made before that
    cell ran."""
    start = time.perf_counter()
    from repro.sim.system import SystemSimulator
    from repro.workloads.registry import make_trace

    cells = cells_for(workload)
    import_s = time.perf_counter() - start

    timer = None
    if traced:
        from repro.common.stats import StatGroup

        timer = LayerTimer()
        timer.patch(SystemSimulator, "__init__", "sim.build")
        timer.patch(SystemSimulator, "run", "sim.run")
        timer.patch(StatGroup, "counter", "common.stat_counter")
        make_trace = timer.wrap("workloads.make_trace", make_trace)

    out = {
        "import_s": import_s, "cells": len(cells), "failed": [],
        "digests": {}, "run_s": {}, "records": {}, "calibrated": {},
    }
    calls = 0
    since = None
    try:
        traces = {}
        for _, names, _ in cells:
            for name in names:
                if name not in traces:
                    traces[name] = make_trace(name, length=length, seed=seed)
        labels, results = [], []
        for label, names, config in cells:
            try:
                simulator = SystemSimulator(
                    config, [traces[name] for name in names], seed=seed
                )
                if timer is not None:
                    timer.attach(simulator)
                if "setup_s" not in out:
                    out["setup_s"] = time.time() - launch
                    if setup_only:
                        return out
                if calibrate is not None and (since is None or since >= CALIBRATE_EVERY_S):
                    calibrate()
                    calls += 1
                    since = 0.0
                begin = time.perf_counter()
                result = simulator.run()
                cell_s = time.perf_counter() - begin
            except Exception:  # one failed cell must not hide the others
                traceback.print_exc()
                out["failed"].append(label)
                continue
            out["run_s"][label] = cell_s
            if calibrate is not None:
                out["calibrated"][label] = calls
                since += cell_s
            out["records"][label] = sum(len(traces[name].records) for name in names)
            out["digests"][label] = digest(result)
            labels.append(label)
            results.append(result)
    finally:
        if timer is not None:
            timer.restore()
    if calibrate is not None and calls:
        calibrate()
    out["peak_rss_mb"] = peak_rss_mb()
    if results:
        out["model"] = model_counts(labels, results, sum(out["records"].values()))
        out["tempo"] = tempo_reductions(labels, results)
    if timer is not None:
        out["layers"] = {
            name: list(value) for name, value in timer.under("sim.run").items()
        }
        out["run_inclusive_s"] = timer.roots.get("sim.run", 0.0)
        out["run_self_s"] = timer.spans.get(("sim.run", "sim.run"), (0, 0.0))[1]
        out["installed"] = sorted(timer.installed)
        out["build_s"] = timer.roots.get("sim.build", 0.0)
        out["make_trace_s"] = timer.roots.get("workloads.make_trace", 0.0)
    return out


def _read_telemetry(path):
    events = []
    with open(path) as stream:
        for line in stream:
            events.append(json.loads(line))
    return events


def sweep_pass(workload, length, seed, launch, cache_dir, telemetry_path,
               traced=False, faults=None):
    """Resolve the workload's cells through a pooled, cached executor."""
    start = time.perf_counter()
    from repro.exec import ExperimentExecutor, ResultCache, SimCell
    from repro.exec.telemetry import TelemetryLog

    if workload == "fig10_sweep":
        from repro.analysis.experiments import fig10_performance_energy
    cells = cells_for(workload)
    import_s = time.perf_counter() - start

    timer = None
    if traced:
        import repro.exec.executor as executor_module

        timer = LayerTimer()
        timer.patch(ResultCache, "get_entry", "exec.cache_get")
        timer.patch(ResultCache, "put", "exec.cache_put")
        timer.patch(executor_module, "payload_to_result", "exec.payload_to_result")

    telemetry = TelemetryLog(telemetry_path)
    executor = ExperimentExecutor(
        workers=2, cache=ResultCache(cache_dir), telemetry=telemetry, faults=faults
    )
    out = {"import_s": import_s, "cells": len(cells), "raised": None}
    try:
        if workload == "fig10_sweep":
            out["rows"] = fig10_performance_energy(
                length=length, seed=seed, executor=executor
            )["rows"]
        else:
            results = executor.run_cells(
                SimCell(names, config, length, seed) for _, names, config in cells
            )
            out["digests"] = {
                label: digest(result) for (label, _, _), result in zip(cells, results)
            }
    except Exception as exc:  # run.py counts the cells as failed
        traceback.print_exc()
        out["raised"] = "%s: %s" % (type(exc).__name__, exc)
    finally:
        telemetry.close()
        if timer is not None:
            timer.restore()
    out["counters"] = dict(executor.counters)
    out["peak_rss_mb"] = peak_rss_mb()

    events = _read_telemetry(telemetry_path)
    starts = [event["t"] for event in events if event["event"] == "batch_start"]
    finishes = [event["t"] for event in events if event["event"] == "batch_finish"]
    durations = [
        event["duration_seconds"] for event in events
        if event["event"] == "cell_done" and "duration_seconds" in event
    ]
    if starts:
        out["setup_s"] = starts[0] - launch
    if starts and finishes:
        out["batch_s"] = finishes[-1] - starts[0]
    out["cell_seconds"] = durations
    if timer is not None:
        out["layers"] = {name: list(value) for (_, name), value in timer.spans.items()}
    return out


def reference_rows(length, seed):
    """Serial, cache-less fig10 rows, the records its cells simulate,
    and the paper's fig10 band."""
    from repro.analysis.expectations import PAPER_EXPECTATIONS
    from repro.analysis.experiments import fig10_performance_energy
    from repro.workloads.registry import make_trace

    rows = fig10_performance_energy(length=length, seed=seed)["rows"]
    band = PAPER_EXPECTATIONS["fig10"]
    return {
        "rows": rows,
        "records": sum(
            len(make_trace(name, length=length, seed=seed).records)
            for _, names, _ in cells_for("fig10_sweep")
            for name in names
        ),
        "band": {
            "runtime": list(band["performance_improvement"]),
            "energy": list(band["energy_improvement"]),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("inproc", "sweep", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(CELL_SETS))
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--handshake", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--telemetry")
    args = parser.parse_args(argv)
    launch = args.launch if args.launch is not None else time.time()
    if args.mode == "inproc":
        out = inproc_pass(
            args.workload, args.length, args.seed, launch,
            traced=args.trace, setup_only=args.setup_only,
            calibrate=handshake if args.handshake else None,
        )
    elif args.mode == "sweep":
        out = sweep_pass(
            args.workload, args.length, args.seed, launch, args.cache_dir,
            args.telemetry, traced=args.trace,
        )
    else:
        out = reference_rows(args.length, args.seed)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
