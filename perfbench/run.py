"""Offline benchmark of titan: three closed-loop workloads, no network.

    python3 perfbench/run.py --workload offline_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with only whole-instance
timing. ``--trace 1`` alternates untraced batches with batches that
record a span at every layer boundary, and reports the per-layer metrics
and the tracing overhead. ``--workload all`` runs every workload both
ways, each in its own process, and prints every metric by name with its
unit.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (instances run), ``failed`` (instances whose record differs
from the designed outcome) and ``metrics``. The full result, with the
environment stamp and the records digests, is written under
``.perfbench_work/results/``. Exit code 0 means every record matched its
design; 1 means a check failed; 2 means the program could not be run or
failed outright, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("offline_mix", "api_latency", "pipeline_overhead")
PROBE_RUNS = 15
# The traced figure that shows each workload stresses what it claims to.
PURPOSE = {
    "offline_mix": "executor.instance_cover_share",
    "api_latency": "backend.transport_cover_share",
    "pipeline_overhead": "executor.calls",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tree_digest(top: Path) -> str:
    """Content hash of a source tree: names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": tree_digest(SRC / "titan"),
        "bench_sha256": tree_digest(HERE),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _compare_digests(name: str, seed: int, env: dict, check) -> None:
    """Same code and seed must give the same records as any earlier run."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{name} seed={seed} src={env['src_sha256'][:16]} bench={env['bench_sha256'][:16]}"
    earlier = known.setdefault(key, {})
    for s, digest in sorted(check.digests.items()):
        if earlier.setdefault(str(s), digest) != digest:
            check.fail(f"slice {s} records digest {digest} differs from an earlier run's")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from titan import executor
    from tracer import Tracer, median, p95
    import workloads

    env = environment()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # guests' temp dirs stay in the checkout
    wl = workloads.WORKLOADS[name](seed, work, nproc())
    try:
        with wl:  # starts and stops a scaled workload's reference helper
            wl.setup()
            wl.timed_setup()
            check = workloads.Check()
            cli_records = isinstance(wl, workloads.CliWorkload)
            plain = Tracer(detailed=False)
            if not trace:
                (window,) = wl.measure([plain], seconds, check)
                # Means, not medians: see "setup_s" in NOTES.md.
                preamble_s = statistics.fmean(plain.preamble_ms or [0.0]) / 1000.0
                metrics = {
                    "instances_per_s": _metric(window.instances / window.seconds, "1/s"),
                    "instance_p50_ms": _metric(median(plain.instance_ms), "ms"),
                    "instance_p95_ms": _metric(p95(plain.instance_ms), "ms"),
                    "cpu_ms_per_instance": _metric(window.cpu * 1000.0 / window.instances, "ms"),
                    "peak_rss_mb": _metric(workloads.peak_rss_mb(), "MB"),
                    "setup_s": _metric(statistics.fmean(wl.setup_s) + preamble_s, "s"),
                }
                samples = len(plain.instance_ms)
                attempted = window.instances
                unscaled = {
                    "instances_per_s": window.instances / window.raw_seconds,
                    "cpu_ms_per_instance": window.raw_cpu * 1000.0 / window.instances,
                }
            else:
                probe = []
                for _ in range(PROBE_RUNS):
                    start = time.perf_counter()
                    executor.execute("pass")
                    probe.append((time.perf_counter() - start) * 1000.0)
                traced = Tracer(detailed=True, cli_records=cli_records)
                window, traced_window = wl.measure([plain, traced], seconds, check)
                with traced:
                    wl.report(check)  # times scoring.aggregate under the tracer
                layers = traced.layer_metrics(traced_window.raw_seconds, wl.concurrency)
                layers["executor.empty_ms_p50"] = (median(probe), "ms")
                layers["taskgen.generate_ms"] = (statistics.median(wl.generate_ms), "ms")
                layers["trace.overhead_share"] = (
                    1.0 - (traced_window.instances / traced_window.seconds)
                    / (window.instances / window.seconds),
                    "share",
                )
                metrics = {k: _metric(v, u) for k, (v, u) in layers.items()}
                samples = len(traced.instance_ms)
                attempted = window.instances + traced_window.instances
                unscaled = {
                    "instances_per_s": window.instances / window.raw_seconds,
                    "traced_instances_per_s": (
                        traced_window.instances / traced_window.raw_seconds
                    ),
                }
            reference_ms = [t * 1000.0 for t in wl.reference.times] if wl.reference else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if wl.deterministic:
        _compare_digests(name, seed, env, check)
    correct = not check.problems
    result = {"correct": correct, "attempted": attempted, "failed": check.unexpected,
              "metrics": metrics}
    detail = {
        **result,
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "instance_samples": samples,
        "run_setup_s": wl.run_setup_s,
        "scaled_to_reference": wl.scaled,
        "reference_ms_median": median(reference_ms),
        "reference_timings": len(reference_ms),
        "unscaled": unscaled,
        "setup_s_each": list(wl.setup_s),
        "unexpected_share": check.unexpected / attempted,
        "records_digests": check.digests,
        "guest_dir_paths_masked": check.guest_dir_paths,
        "problems": check.problems[:50],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )

    for problem in check.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    if not trace and samples < 200:
        print(f"warning: {samples} instances, too few for p95 to have 10 beyond it",
              file=sys.stderr)
    for key, m in metrics.items():
        print(f"{name:18} {key:34} {m['value']:14.4f} {m['unit']}")
    print(f"{name:18} {'unexpected_share':34} {detail['unexpected_share']:14.4f} share")
    if wl.scaled:
        print(f"{name:18} {'reference_ms_median':34} {detail['reference_ms_median']:14.4f} ms")
        for key, value in unscaled.items():
            print(f"{name:18} {'unscaled ' + key:34} {value:14.4f}")
    print(f"{name:18} {'instance_samples':34} {samples:14d} count")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            if trace:
                purpose = result["metrics"][PURPOSE[name]]["value"]
                overhead = result["metrics"]["trace.overhead_share"]["value"]
                print(f"{name:18} purpose: {PURPOSE[name]} = {purpose:.4f}, "
                      f"trace.overhead_share = {overhead:.4f}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "titan" / "__init__.py").is_file():
        print(f"error: no titan package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # the program failed outright: report it, print no result
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
