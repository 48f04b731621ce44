"""Tests of the benchmark itself, at tiny trace lengths.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402

TINY = 200
SEED = 3


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return {metric["name"]: metric["unit"] for metric in json.load(stream)[kind]}


def _run(workload, trace, cwd=ROOT, script=None):
    return subprocess.run(
        [
            sys.executable, script or os.path.join(BENCH, "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
            "--trace", str(trace), "--length", str(TINY),
        ],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_catalogue_matches_benchmark_json():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        names = [workload["name"] for workload in json.load(stream)["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    report = "\n".join(lines[:-1])
    for name in declared:
        assert name in report
    assert "failed_frac" in report and "seed=%d" % SEED in report
    assert "nproc" in report and "host speed" in report
    if trace:
        assert "unattributed remainder" in report
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "tempo_runtime_reduction" in report


def test_perturbed_digest_is_reported_as_failed():
    out = child.inproc_pass("small_pairs", TINY, SEED, time.time())
    assert not out["failed"]
    perturbed = copy.deepcopy(out)
    label = sorted(perturbed["digests"])[0]
    perturbed["digests"][label] = "0" * 64
    record = {
        "reference": None, "setup": [], "inproc": [out, perturbed],
        "traced": [], "sweeps": [],
    }
    tally = run.score(record, out["cells"])
    assert (tally.attempted, tally.failed) == (2 * out["cells"], 1)
    result = run.result_json(tally, {"x": 1.0}, {"x": "s"})
    assert result["correct"] is False and result["failed"] == 1


def test_sweep_that_differs_from_the_serial_reference_is_failed():
    reference = child.inproc_pass("small_pairs", TINY, SEED, time.time())
    cold = {
        "raised": None, "digests": dict(reference["digests"]),
        "counters": {"failed": 0, "simulated": reference["cells"]},
    }
    cold["digests"][sorted(cold["digests"])[0]] = "0" * 64
    record = {
        "reference": reference, "setup": [], "inproc": [], "traced": [],
        "sweeps": [((1.0, cold), [])],
    }
    tally = run.score(record, reference["cells"])
    assert (tally.attempted, tally.failed) == (reference["cells"], 1)


def test_forced_cell_failure_is_reported_as_failed(tmp_path):
    from repro.exec import FaultPlan, SimCell

    _, names, config = child.cells_for("small_pairs")[0]
    key = SimCell(names, config, TINY, SEED).key()
    cold = child.sweep_pass(
        "small_pairs", TINY, SEED, time.time(), str(tmp_path / "cache"),
        str(tmp_path / "cold.jsonl"), faults=FaultPlan(fail={key: (0, 1, 2)}),
    )
    assert cold["raised"] and cold["counters"]["failed"] == 1
    baseline = child.inproc_pass("small_pairs", TINY, SEED, time.time())
    record = {
        "reference": None, "setup": [], "inproc": [baseline], "traced": [],
        "sweeps": [((1.0, cold), [])],
    }
    tally = run.score(record, baseline["cells"])
    assert tally.failed == baseline["cells"]
    assert run.result_json(tally, {}, {})["correct"] is False


def test_traced_pass_covers_run_and_keeps_digests():
    from repro.sim.system import SystemSimulator

    plain = child.inproc_pass("bigmem_pairs", TINY, SEED, time.time())
    traced = child.inproc_pass("bigmem_pairs", TINY, SEED, time.time(), traced=True)
    assert traced["digests"] == plain["digests"]
    assert run.coverage(traced) == []
    for name in ("mmu.walk_plan", "vm.handle_fault", "core.build_prefetch",
                 "cache.access", "sched.pick", "dram.access", "common.stat_counter"):
        assert traced["layers"][name][0] > 0
    assert not hasattr(SystemSimulator.run, "__wrapped__")


def test_coverage_check_catches_a_missing_or_mistimed_shim():
    traced = child.inproc_pass("small_pairs", TINY, SEED, time.time(), traced=True)
    assert run.coverage(traced) == []
    unpatched = copy.deepcopy(traced)
    unpatched["installed"].remove("cache.access")
    assert "cache.access" in " ".join(run.coverage(unpatched))
    # A root span that timed only part of run(): the clock disagrees.
    mistimed = copy.deepcopy(traced)
    mistimed["run_self_s"] -= 0.5 * mistimed["run_inclusive_s"]
    assert "by the clock" in " ".join(run.coverage(mistimed))


def test_host_times_are_scaled_by_the_samples_around_them():
    import hostspeed

    ref = hostspeed.REFERENCE_SECONDS
    samples = [ref] * 20 + [2 * ref] * 20
    # "a" ran while the host ran at reference speed, "b" at half of it.
    out = {
        "run_s": {"a": 1.0, "b": 2.0}, "calibrated": {"a": 1, "b": 3},
        "handshakes": [0, 1, 30, 31], "records": {"a": 10, "b": 20},
    }
    slow = 0.5 ** hostspeed.SENSITIVITY
    assert run.cell_seconds(out, samples) == pytest.approx({"a": 1.0, "b": 2.0 * slow})
    assert run.cell_seconds(out) == out["run_s"]
    assert run.cell_rate([out], samples) == pytest.approx(30 / (1.0 + 2.0 * slow))
    # One stray sample beside a step does not move its scale.
    samples[31] = 10 * ref
    assert hostspeed.factor(samples, 30, 31) == pytest.approx(slow)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("small_pairs", 0, cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
