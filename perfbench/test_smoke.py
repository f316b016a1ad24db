"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced for one second each (one batch),
so a change to the program or the benchmark that breaks a workload, its
oracle or the result format fails here rather than in a long run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_workload_untraced_and_traced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "5", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload in (w["name"] for w in SPEC["workloads"]):
        got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(workload + ".")}
        assert got == set(names), workload
    m = result["metrics"]
    assert m["pipeline_overhead.executor.calls"]["value"] == 0
    assert m["offline_mix.executor.timeouts"]["value"] >= 1
    assert m["api_latency.backend.retries"]["value"] >= 1
    for workload in ("offline_mix", "api_latency", "pipeline_overhead"):
        assert m[f"{workload}.instances_per_s"]["value"] > 0
        assert m[f"{workload}.setup_s"]["value"] > 0
    for workload in ("offline_mix", "api_latency", "pipeline_overhead"):
        detail = json.loads((ROOT / ".perfbench_work" / "results"
                             / f"{workload}-seed5-trace0.json").read_text())
        scaled = workload == "pipeline_overhead"
        assert detail["scaled_to_reference"] is scaled
        assert (detail["reference_timings"] > 0) is scaled


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "offline_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
