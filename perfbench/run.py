"""The repository benchmark: host throughput and sweep cost of the TEMPO
simulator, with a traced pass that splits host time across layers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bigmem_pairs --seed 1 --seconds 20 --trace 0

Every measured step runs in a fresh child process (``child.py``) with
the checkout's ``src`` on ``PYTHONPATH``; one process at a time drives
the work in a closed loop, and only the sweep's two pool workers run
alongside it.  Rounds repeat until ``--seconds`` is spent.  Each host
time is scaled to a reference host speed by the calibration samples
taken around the step that measured it (``hostspeed.py``); every
metric is the median over the run's repeats.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``README.md`` in this directory.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
from child import CALIBRATE
from layers import SIM_ENTRY_POINTS, SIM_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

#: A run must exit within this many seconds of starting.
HARD_LIMIT_S = 170.0

#: Per round: setup-only probes (in-process workloads), cold sweeps,
#: and warm reruns per cold sweep.  An in-process pass costs several
#: times a sweep, so a round holds more of the cheap steps, and each
#: adds a sample to their medians.
SETUP_PROBES = 2
COLD_SWEEPS = 2
WARM_RERUNS = 2

#: Trace length per workload for the in-process passes, sized against
#: longer traces in README.md ("Trace lengths"), and for the sweeps.
#: The sweeps are short on purpose: they measure the sweep path's fixed
#: costs, and short sweeps repeat often enough in a run for a steady
#: median.
WORKLOADS = {
    "bigmem_pairs": {"length": 4000, "sweep_length": 500, "inproc": True},
    "small_pairs": {"length": 6000, "sweep_length": 500, "inproc": True},
    "multicore_mix": {"length": 3000, "sweep_length": 500, "inproc": True},
    "fig10_sweep": {"length": 1000, "sweep_length": 1000, "inproc": False},
}

END_TO_END = {
    "setup_s": "s",
    "sim_refs_per_s": "1/s",
    "sweep_cold_s": "s",
    "sweep_warm_s": "s",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics that are host times, reported at the reference
#: host speed (see hostspeed.py).
HOST_TIMES = ("setup_s", "sim_refs_per_s", "sweep_cold_s", "sweep_warm_s")

EXEC_SHIMS = ("exec.cache_get", "exec.cache_put", "exec.payload_to_result")

EXEC_COUNTERS = {
    "exec.cells_simulated": "simulated",
    "exec.workers_spawned": "workers_spawned",
    "exec.steals": "steals",
    "exec.retries": "retries",
}

MODEL_COUNTS = {
    "mmu.tlb_miss_rate": "ratio",
    "mmu.mmu_cache_hit_rate": "ratio",
    "mmu.walk_cycles_p50": "cycles",
    "vm.minor_faults": "count",
    "vm.superpage_fraction": "ratio",
    "core.prefetches_built": "count",
    "core.replay_aided_frac": "ratio",
    "cache.llc_hit_rate": "ratio",
    "sched.latency_demand_p50": "cycles",
    "sched.latency_demand_p99": "cycles",
    "sched.latency_pt_p50": "cycles",
    "sched.latency_pt_p99": "cycles",
    "dram.row_hit_rate": "ratio",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for _, _, name in SIM_ENTRY_POINTS + (("", "", "common.stat_counter"),):
        units[name + ".calls"] = "count"
        units[name + ".share"] = "%"
    for layer in SIM_LAYERS:
        units[layer + ".self_s"] = "s"
    units.update(MODEL_COUNTS)
    units.update({
        "common.counter_calls_per_record": "count",
        "sim.build_s": "s",
        "sim.run.self_s": "s",
        "sim.run.share": "%",
        "workloads.make_trace_s": "s",
        "import_s": "s",
        "exec.batch_s": "s",
        "exec.cell_s_p50": "s",
        "exec.dispatch_overhead_s": "s",
        "exec.cache_hits": "count",
    })
    for name in EXEC_COUNTERS:
        units[name] = "count"
    for name in EXEC_SHIMS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units["trace.overhead"] = "ratio"
    # The program's own end-to-end figures, before the host-speed
    # adjustment, from the untraced parts of the traced run.
    units["host.speed_factor"] = "ratio"
    for name in HOST_TIMES:
        units["raw." + name] = END_TO_END[name]
    return units


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Launcher:
    """Runs child processes one at a time against a hard deadline, with
    a host-speed sample before and after each (``hostspeed.py``)."""

    def __init__(self, workload, length, seed, deadline, workdir):
        self.workload = workload
        self.length = length
        self.seed = seed
        self.deadline = deadline
        self.workdir = workdir
        self.samples = []
        self._sweeps = 0
        hostspeed.warm_up()

    def sample(self):
        """Take a host-speed sample; returns its index in :attr:`samples`."""
        self.samples.append(hostspeed.sample())
        return len(self.samples) - 1

    def child(self, mode, *extra, length=None, handshake=False):
        """``(wall seconds, parsed output or None)``.  ``out["span"]`` holds
        the indices of the samples taken right before and after the
        child.  With *handshake* the child also stops between cells for
        samples, whose indices land in ``out["handshakes"]``."""
        before = len(self.samples) - 1 if self.samples else self.sample()
        launch = time.time()
        argv = [
            sys.executable, CHILD, mode, "--workload", self.workload,
            "--length", str(length or self.length), "--seed", str(self.seed),
            "--launch", repr(launch),
        ] + list(extra) + (["--handshake"] if handshake else [])
        # TMPDIR keeps the pool's temporary files inside the checkout.
        env = dict(
            os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
            TMPDIR=os.path.join(self.workdir, "tmp"),
        )
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            start_new_session=True,
        )
        # A child that hangs is killed at the deadline; its pipe then closes.
        watchdog = threading.Timer(max(self.deadline - time.time(), 1.0), _kill_group,
                                   (proc.pid,))
        watchdog.start()
        lines, handshakes = [], []
        try:
            for raw in proc.stdout:
                line = raw.decode("utf-8", "replace").rstrip("\n")
                if line == CALIBRATE:
                    handshakes.append(self.sample())
                    try:
                        proc.stdin.write(b"\n")
                        proc.stdin.flush()
                    except BrokenPipeError:  # the child died; its exit code tells
                        pass
                else:
                    lines.append(line)
            proc.wait()
        finally:
            watchdog.cancel()
            # A child that died early may leave pool workers behind.
            _kill_group(proc.pid)
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
        wall = time.perf_counter() - start
        span = [before, self.sample()]
        lines = [line for line in lines if line.strip()]
        if proc.returncode != 0 or not lines:
            sys.stderr.write(
                "perfbench: %s child exited %d\n" % (mode, proc.returncode)
            )
            return wall, None
        try:
            out = json.loads(lines[-1])
        except ValueError:
            sys.stderr.write("perfbench: %s child printed no result\n" % mode)
            return wall, None
        out["span"] = span
        out["handshakes"] = handshakes
        return wall, out

    def sweeps(self, traced, length):
        """A cold sweep on a fresh cache directory, then warm reruns:
        ``(cold, [warm, ...])``, each a :meth:`child` result."""
        self._sweeps += 1
        base = os.path.join(self.workdir, "sweep%d" % self._sweeps)
        extra = ["--cache-dir", os.path.join(base, "cache")]
        if traced:
            extra.append("--trace")
        os.makedirs(base)
        cold = self.child(
            "sweep", "--telemetry", os.path.join(base, "cold.jsonl"), *extra, length=length
        )
        warms = [
            self.child(
                "sweep", "--telemetry", os.path.join(base, "warm%d.jsonl" % index),
                *extra, length=length
            )
            for index in range(WARM_RERUNS)
        ]
        return cold, warms


def measure(launcher, spec, seconds, trace):
    """Run rounds until *seconds* are spent; returns the raw record."""
    record = {
        "reference": None, "setup": [], "inproc": [], "traced": [], "sweeps": [],
        "samples": launcher.samples,
    }
    # Untimed: the serial, cache-less results the pooled sweeps must match.
    length = spec["sweep_length"]
    if spec["inproc"]:
        record["reference"] = launcher.child("inproc", length=length)[1]
    else:
        record["reference"] = launcher.child("reference", length=length)[1] or {
            "rows": None, "records": 0}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if trace or spec["inproc"]:
            record["inproc"].append(launcher.child("inproc", handshake=True)[1])
        if trace:
            record["traced"].append(
                launcher.child("inproc", "--trace", handshake=True)[1]
            )
        elif spec["inproc"]:
            for _ in range(SETUP_PROBES):
                record["setup"].append(launcher.child("inproc", "--setup-only")[1])
        for _ in range(COLD_SWEEPS):
            record["sweeps"].append(launcher.sweeps(traced=trace, length=length))
        now = time.perf_counter()
        # Stop when another round like this one would end past the budget.
        if now + (now - began) - start > seconds or time.time() > launcher.deadline:
            return record


class Tally:
    """Operations attempted and failed, with one note per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note):
        self.attempted += attempted
        self.failed += min(failed, attempted)
        if failed:
            self.notes.append("%s: %d of %d failed" % (note, failed, attempted))


def _mismatches(expected, observed):
    return sum(1 for key, value in expected.items() if observed.get(key) != value)


def score(record, cells):
    """Every output check; a failed check counts its operations as failed.

    An operation is one simulator run or one sweep cell.  Digests are
    compared only between runs of this benchmark invocation.
    """
    tally = Tally()
    baseline = None
    for kind in ("inproc", "traced"):
        for out in record[kind]:
            if out is None:
                tally.add(cells, cells, kind + " pass crashed")
                continue
            if baseline is None:
                baseline = out["digests"]
            bad = len(out["failed"]) + _mismatches(baseline, out["digests"])
            if len(baseline) < cells:
                bad = max(bad, cells - len(baseline))
            tally.add(cells, bad, kind + " pass digest or run failure")
    reference = record["reference"] or {}
    key = "rows" if "rows" in reference else "digests"
    expected = reference.get(key)
    for (_, cold), warms in record["sweeps"]:
        cold_rows = _sweep_output(cold, key)
        if cold_rows is None:
            tally.add(cells, cells, "cold sweep raised or crashed")
        else:
            if not expected:
                bad = cells
            elif key == "digests":
                bad = _mismatches(expected, cold_rows) + max(cells - len(expected), 0)
            else:
                # One fig10 row summarises an off/on pair of cells.
                expected = reference["rows"]
                bad = 2 * sum(1 for a, b in zip(expected, cold_rows) if a != b)
                bad += 2 * abs(len(expected) - len(cold_rows))
            bad = max(bad, cold["counters"]["failed"])
            tally.add(cells, bad, "cold sweep differs from the serial result")
        for _, warm in warms:
            warm_rows = _sweep_output(warm, key)
            if warm_rows is None or cold_rows is None:
                tally.add(cells, cells, "warm sweep raised, crashed or had no cold run")
            elif warm["counters"]["simulated"] != 0 or warm_rows != cold_rows:
                tally.add(cells, cells, "warm sweep simulated or changed results")
            else:
                tally.add(cells, warm["counters"]["failed"], "warm sweep cell failures")
    return tally


def _sweep_output(out, key):
    if out is None or out.get("raised") or key not in out:
        return None
    return out[key]


def _median(values):
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


def _ok(outs):
    return [out for out in outs if out is not None]


def cell_seconds(out, samples=None):
    """``{label: run() seconds}`` of one in-process pass.  Given the
    run's *samples*, each cell is scaled to the reference host by the
    samples the pass took right before and after it."""
    if samples is None:
        return dict(out["run_s"])
    marks = out["handshakes"]
    return {
        label: value * hostspeed.factor(
            samples, marks[out["calibrated"][label] - 1], marks[out["calibrated"][label]]
        )
        for label, value in out["run_s"].items()
    }


def cell_rate(passes, samples=None):
    """Simulated records per second of ``run()``, timing each cell by
    its median over *passes*: a burst of host noise that slows part of
    one pass then moves only that pass's cells, and not the median."""
    if not passes:
        return None
    records = passes[0]["records"]
    timed = [cell_seconds(out, samples) for out in passes]
    seconds = sum(
        statistics.median([times[label] for times in timed if label in times])
        for label in records
    )
    return sum(records.values()) / seconds if seconds else None


def end_to_end(record, spec, adjusted=True):
    """Each end-to-end metric as the median over the run's repeats.
    *adjusted* scales every host time to the reference host by the
    samples taken around the step that measured it."""

    samples = record["samples"] if adjusted else None

    def scaled(value, out):
        return value * hostspeed.factor(samples, *out["span"]) if adjusted else value

    colds = [(wall, out) for (wall, out), _ in record["sweeps"] if out is not None]
    warms = [
        (wall, out) for _, warms in record["sweeps"] for wall, out in warms
        if out is not None
    ]
    if spec["inproc"]:
        passes = _ok(record["inproc"])
        setup = [scaled(out["setup_s"], out) for out in passes + _ok(record["setup"])]
        rate = cell_rate(passes, samples)
        rss = [out["peak_rss_mb"] for out in passes]
    else:
        setup = [scaled(out["setup_s"], out) for _, out in colds if "setup_s" in out]
        records = record["reference"]["records"]
        rate = _median([
            records / scaled(sum(out["cell_seconds"]), out)
            for _, out in colds if records and out.get("cell_seconds")
        ])
        rss = [out["peak_rss_mb"] for _, out in colds]
    return {
        "setup_s": _median(setup),
        "sim_refs_per_s": rate,
        "sweep_cold_s": _median([scaled(wall, out) for wall, out in colds]),
        "sweep_warm_s": _median([scaled(wall, out) for wall, out in warms]),
        "peak_rss_mb": _median(rss),
    }


def speed_factor(samples):
    """The median speed of the run's samples against the reference."""
    return _median([hostspeed.speed(value) for value in samples])


#: Largest share of ``run()`` by which the shimmed ``run()`` time may
#: differ from the clock read around the call: the root shim's own cost.
COVERAGE_TOLERANCE = 0.01


def coverage(out):
    """The coverage check of one traced pass: a list of problems, empty
    when it passes.

    Layer self times plus ``sim.run.self_s`` add up to the shimmed
    ``run()`` time by construction, so that sum is compared with
    ``run_s``, the clock the pass reads around each ``run()`` call, and
    every entry point must have been patched.  A shim that is missing
    fails here; one the program bypasses shows as 0 calls, its time in
    ``sim.run.self_s``.
    """
    problems = []
    attributed = out["run_self_s"] + sum(seconds for _, seconds in out["layers"].values())
    clock = sum(out["run_s"].values())
    if abs(clock - attributed) > COVERAGE_TOLERANCE * clock:
        problems.append("run() takes %.6f s by the clock but %.6f s by the shims" % (
            clock, attributed))
    expected = [name for _, _, name in SIM_ENTRY_POINTS] + ["common.stat_counter", "sim.run"]
    missing = [name for name in expected if name not in out["installed"]]
    if missing:
        problems.append("entry points never patched: " + ", ".join(missing))
    return problems


def per_layer(record, spec):
    traced = _ok(record["traced"])
    untraced = _ok(record["inproc"])
    metrics = {}

    def share(out, seconds):
        return 100.0 * seconds / out["run_inclusive_s"] if out["run_inclusive_s"] else 0.0

    names = [name for _, _, name in SIM_ENTRY_POINTS] + ["common.stat_counter"]
    for name in names:
        metrics[name + ".calls"] = _median(
            [out["layers"].get(name, (0, 0.0))[0] for out in traced]
        )
        metrics[name + ".share"] = _median(
            [share(out, out["layers"].get(name, (0, 0.0))[1]) for out in traced]
        )
    for layer in SIM_LAYERS:
        metrics[layer + ".self_s"] = _median([
            sum(seconds for name, (_, seconds) in out["layers"].items()
                if name.split(".")[0] == layer)
            for out in traced
        ])
    if traced:
        for name in MODEL_COUNTS:
            metrics[name] = traced[0]["model"][name]
    metrics["common.counter_calls_per_record"] = _median([
        out["layers"].get("common.stat_counter", (0, 0.0))[0] / sum(out["records"].values())
        for out in traced if out["records"]
    ])
    metrics["sim.build_s"] = _median([out["build_s"] for out in traced])
    metrics["sim.run.self_s"] = _median([out["run_self_s"] for out in traced])
    metrics["sim.run.share"] = _median([share(out, out["run_self_s"]) for out in traced])
    metrics["workloads.make_trace_s"] = _median([out["make_trace_s"] for out in traced])
    colds = [out for (_, out), _ in record["sweeps"] if out is not None]
    warms = [
        out for _, warms in record["sweeps"] for _, out in warms if out is not None
    ]
    import_from = untraced if spec["inproc"] else colds
    metrics["import_s"] = _median([out["import_s"] for out in import_from])

    metrics["exec.batch_s"] = _median([out.get("batch_s") for out in colds])
    metrics["exec.cell_s_p50"] = _median(
        [_median(out["cell_seconds"]) for out in colds]
    )
    metrics["exec.dispatch_overhead_s"] = _median([
        out["batch_s"] - sum(out["cell_seconds"]) / 2.0
        for out in colds if "batch_s" in out
    ])
    for name, counter in EXEC_COUNTERS.items():
        metrics[name] = _median([out["counters"][counter] for out in colds])
    metrics["exec.cache_hits"] = _median([out["counters"]["cache_hits"] for out in warms])
    # One cold sweep plus its first warm rerun: a store, then a load.
    pairs = [
        (cold, warms[0][1]) for (_, cold), warms in record["sweeps"]
        if cold is not None and warms and warms[0][1] is not None
    ]
    for name in EXEC_SHIMS:
        for index, suffix in ((0, ".calls"), (1, ".self_s")):
            metrics[name + suffix] = _median([
                sum(out.get("layers", {}).get(name, (0, 0.0))[index] for out in pair)
                for pair in pairs
            ])
    untraced_rate = cell_rate(untraced, record["samples"])
    traced_rate = cell_rate(traced, record["samples"])
    metrics["trace.overhead"] = (
        untraced_rate / traced_rate if untraced_rate and traced_rate else None
    )
    metrics["host.speed_factor"] = speed_factor(record["samples"])
    raw = end_to_end(record, spec, adjusted=False)
    for name in HOST_TIMES:
        metrics["raw." + name] = raw[name]
    return metrics


def tempo_summary(record):
    """``(runtime, energy, band)``: the paper's y-axes for this run."""
    reference = record["reference"]
    if reference is not None and "rows" in reference:
        rows = reference["rows"]
        if not rows:
            return None
        return (
            statistics.mean(row["performance_improvement"] for row in rows),
            statistics.mean(row["energy_improvement"] for row in rows),
            reference["band"],
        )
    passes = _ok(record["inproc"]) + _ok(record["traced"])
    values = {json.dumps(out.get("tempo"), sort_keys=True) for out in passes}
    if len(values) != 1 or not passes or passes[0].get("tempo") is None:
        return None
    tempo = passes[0]["tempo"]
    return tempo["runtime"], tempo["energy"], None


def report(workload, args, spec, record, tally, metrics, units, samples, raw=None):
    host = host_fingerprint()
    print("perfbench workload=%s seed=%d seconds=%g trace=%d length=%d sweep_length=%d" % (
        workload, args.seed, args.seconds, args.trace, spec["length"], spec["sweep_length"]))
    print("host: python %(python)s, nproc %(nproc)d, cpu %(cpu)s" % host)
    print("host speed: %.4f x reference (median of %d calibration samples, "
          "%.4f-%.4f); end-to-end host times below are at reference speed, "
          "raw in brackets" % (
              speed_factor(samples), len(samples),
              hostspeed.speed(max(samples)), hostspeed.speed(min(samples))))
    print("rounds: %d in-process passes, %d traced passes, %d setup probes, "
          "%d cold sweeps with %d warm reruns each" % (
              len(record["inproc"]), len(record["traced"]), len(record["setup"]),
              len(record["sweeps"]), WARM_RERUNS))
    for name, value in metrics.items():
        line = "  %-36s %14s %s" % (
            name, "n/a" if value is None else "%.6g" % value, units[name])
        if raw is not None and name in HOST_TIMES and raw[name] is not None:
            line += "  (raw %.6g)" % raw[name]
        print(line)
    print("  %-36s %14.6g fraction (%d of %d operations)" % (
        "failed_frac", tally.failed / tally.attempted if tally.attempted else 1.0,
        tally.failed, tally.attempted))
    tempo = tempo_summary(record)
    if tempo is not None:
        runtime, energy, band = tempo
        paper = ""
        if band is not None:
            paper = " (paper fig10 band %.2f-%.2f)"
        print("  %-36s %14.6g fraction%s" % (
            "tempo_runtime_reduction", runtime,
            paper % tuple(band["runtime"]) if band else ""))
        print("  %-36s %14.6g fraction%s" % (
            "tempo_energy_reduction", energy,
            paper % tuple(band["energy"]) if band else ""))
        print("  (simulated cycles and energy: the model is unvalidated against "
              "hardware, so no error figure is given)")
    for out in _ok(record["traced"]):
        clock = sum(out["run_s"].values())
        print("  coverage: run() %.6f s by the clock, %.6f s by the shims; "
              "layers %.6f s, unattributed remainder (sim.run.self_s) %.6f s" % (
                  clock, out["run_inclusive_s"], out["run_inclusive_s"] - out["run_self_s"],
                  out["run_self_s"]))
    if args.trace:
        for out in _ok(record["traced"])[:1]:
            print("  per-entry self time (first traced pass):")
            for name, (calls, seconds) in sorted(out["layers"].items()):
                print("    %-34s %10d calls %10.6f s" % (name, calls, seconds))
            idle = [name for _, _, name in SIM_ENTRY_POINTS if name not in out["layers"]]
            if idle:
                print("    0 calls (unreached, or bypassed by the program): " + ", ".join(idle))
    for note in tally.notes:
        print("  FAILED CHECK: " + note)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--length", type=int, default=None,
        help="override the workload's trace length (for quick checks only)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: no src/repro under %s; run from a checkout\n" % ROOT)
        return 2
    spec = dict(WORKLOADS[args.workload])
    if args.length is not None:
        spec["length"] = spec["sweep_length"] = args.length
    workdir = os.path.join(ROOT, ".perfbench_tmp", "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "tmp"))
    launcher = Launcher(
        args.workload, spec["length"], args.seed, time.time() + HARD_LIMIT_S, workdir
    )
    try:
        record = measure(launcher, spec, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run is still using it
            pass
    cells = _cell_count(record)
    tally = score(record, cells)
    if args.trace:
        units = per_layer_units()
        metrics = per_layer(record, spec)
        raw = None
        problems = [problem for out in _ok(record["traced"]) for problem in coverage(out)]
        if not _ok(record["traced"]):
            problems.append("no traced pass completed")
        tally.notes.extend("coverage: " + problem for problem in problems)
        coverage_ok = not problems
    else:
        units = END_TO_END
        raw = end_to_end(record, spec, adjusted=False)
        metrics = end_to_end(record, spec)
        coverage_ok = True
    report(args.workload, args, spec, record, tally, metrics, units, launcher.samples, raw)
    print(json.dumps(result_json(tally, metrics, units, coverage_ok)))
    return 0


def result_json(tally, metrics, units, checks_ok=True):
    """The last output line.  A metric that could not be measured reads
    0.0 and makes the run incorrect, as does any failed operation."""
    complete = all(metrics.get(name) is not None for name in units)
    return {
        "correct": tally.failed == 0 and checks_ok and complete,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            name: {
                "value": metrics[name] if metrics.get(name) is not None else 0.0,
                "unit": units[name],
            }
            for name in units
        },
    }


def _cell_count(record):
    outs = record["inproc"] + record["traced"] + [cold for (_, cold), _ in record["sweeps"]]
    for out in outs:
        if out is not None:
            return out["cells"]
    return 1


if __name__ == "__main__":
    sys.exit(main())
