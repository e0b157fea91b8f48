"""Tests of the benchmark itself, at toy resolution.

    python3 -m pytest bench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in listed}
            == {k: v["unit"] for k, v in final["metrics"].items()})
    for name in ("rel_err_max", "ref_drift_max", "failed_frac"):
        assert f"\n{name} " in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())


def test_check_trips_on_perturbed_reference(tmp_path, monkeypatch):
    refs = workloads.load_references()
    for entry in refs["kou"]["rows"]:
        entry["value"]["kou"]["tiny"] *= 1.0 + 1e-4
    monkeypatch.setattr(run, "OUT", tmp_path)
    record = run.run_workload("frictionless_book", 3, 0.0, False, "tiny", refs)
    tally = record["tally"]
    assert tally.rounds == 1 and tally.failed == 1
    assert run.report(record)["correct"] is False


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "frictionless_book", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_schedule_is_a_function_of_the_seed():
    refs = workloads.load_references()
    a = workloads.schedule("direct_march", 5, 6, refs)
    assert a == workloads.schedule("direct_march", 5, 6, refs)
    assert a != workloads.schedule("direct_march", 6, 6, refs)
    # the scheme pair always solves one problem twice
    assert all(r[1] == r[2] for r in a)
