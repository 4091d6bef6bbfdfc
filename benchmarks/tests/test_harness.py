"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# The count each workload exists to drive, which must not read 0.
DRIVES = {"spectrum-mp4096": "operator.power_iterations",
          "free-energy-mp1024": "maps.invert_points",
          "response-sink512": "certify.cells",
          "ldp-doubling": "maps.orbit_steps"}

# Distinct inversions over inversions at the tiny sizes: the t-grid repeats
# one map's inversion per grid point; the response guard and assembly invert
# the same grid once each per map.
USEFUL_RATIO = {"spectrum-mp4096": 1.0,
                "free-energy-mp1024": 1 / workloads.TINY_PARAMS["free-energy-mp1024"]["steps"],
                "response-sink512": 0.5,
                "ldp-doubling": 1 / workloads.TINY_PARAMS["ldp-doubling"]["steps"]}

# Counts that must repeat exactly between two runs of the same job.
DETERMINISTIC = ("operator.power_iterations", "maps.invert_points", "maps.orbit_steps",
                 "operator.matrix_bytes", "curves.grid_points")


def _exit_only(code, out):
    return [] if code == 0 else [f"exit code {code}"]


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.run", 0.0, 10.0, None],
        ["operator.assemble", 1.0, 4.0, 0],
        ["maps.invert", 1.5, 2.5, 1],
        ["observables.eval", 3.0, 3.5, 1],
        ["operator.solve", 5.0, 9.0, 0],
    ]
    own = layertrace.self_times(spans)
    assert own["cli.run"] == pytest.approx(3.0)
    assert own["operator.assemble"] == pytest.approx(1.5)
    assert own["maps.invert"] == pytest.approx(1.0)
    assert own["operator.solve"] == pytest.approx(4.0)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layertrace.METRICS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_smoke(name, tmp_path):
    """Each workload's job runs; traced output equals untraced output byte for
    byte, and the deterministic counts repeat exactly across two runs."""
    driver = run.Driver(workloads.config(name, 7, tiny=True), tmp_path, _exit_only)
    plain = driver.run_child()
    traced = [driver.run_child(trace=True) for _ in range(2)]
    for job in [plain] + traced:
        assert job["problems"] == []
        assert job["setup_s"] > 0 and job["wall_s"] > 0
    assert traced[0]["summary"] == plain["summary"] == traced[1]["summary"]
    counts = [layertrace.layer_metrics(j["trace"], j["import_s"], j["validate_s"],
                                       j["artifact_bytes"]) for j in traced]
    assert set(counts[0]) == set(layertrace.METRICS)
    for key in DETERMINISTIC:
        assert counts[0][key] == counts[1][key], key
    assert counts[0][DRIVES[name]] > 0
    assert counts[0]["maps.invert_useful_ratio"] == USEFUL_RATIO[name]


def test_checks_reject_wrong_outputs(tmp_path):
    out = tmp_path / "ldp"
    out.mkdir()
    (out / "summary.json").write_text(json.dumps(
        {"results": {"censored": True, "gap": 0.2}}))
    assert len(workloads.check("ldp-doubling", 0, out)) == 2
    assert workloads.check("ldp-doubling", 4, out) == ["exit code 4"]

    ref = json.loads(workloads.REFERENCE_PATH.read_text())["free-energy-mp1024"]["E"]
    out = tmp_path / "fe"
    out.mkdir()
    (out / "summary.json").write_text(json.dumps({"results": {"verdict": "strict"}}))
    rows = ["t,E,E1,E2"] + [f"{i - 20}.0,{e!r},0.0,0.0" for i, e in enumerate(ref)]
    (out / "free_energy.csv").write_text("\n".join(rows) + "\n")
    assert workloads.check("free-energy-mp1024", 0, out) == []
    rows[5] = "-16.0,0.5,0.0,0.0"
    (out / "free_energy.csv").write_text("\n".join(rows) + "\n")
    assert any("reference" in p for p in workloads.check("free-energy-mp1024", 0, out))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workloads.NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
