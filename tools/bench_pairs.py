"""Run the offline benchmark in alternating pairs: a parent rev, then the working tree.

    python3 tools/bench_pairs.py --parent HEAD --workload pipeline_overhead \
        --pairs 5 --seconds 30 --seed 2001 --also offline_mix --also api_latency \
        --out BENCH_20.json

Each pair runs ``perfbench/run.py --trace 0`` once on each side with the same
seed; the side that goes first alternates from pair to pair. The parent side
is a copy of ``--parent`` exported with ``git archive`` into a temporary
directory, so no worktree is left registered in the repository; the change
side is this checkout as it stands, uncommitted edits included. Pair ``i``
uses seed ``--seed + i``. Each ``--also`` workload gets ``--also-pairs`` pairs
after the main ones, on the seeds that follow.

The output file holds every run's full result and, per metric, the median
and inclusive quartiles of each side, the number of pairs and
``change_wins``, the pairs in which the change read better (the direction
comes from ``BENCHMARK.json``). Exit code 0 means every run matched its
design and both sides wrote the same records digests for each seed; 1 means
one of those checks failed; 2 means a run could not be made.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHOD = (
    "alternating pairs of {seconds:g} s runs, one seed per pair; 'first' names the "
    "side that ran first; quartiles are inclusive; change_wins counts pairs where "
    "the change read better"
)


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` under ``into``; return the full commit sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=zip", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as zipped:
        zipped.extractall(into)
    return sha


def command(workload: str, seconds: float) -> "list[str]":
    return ["perfbench/run.py", "--workload", workload, "--seed", "<seed>",
            "--seconds", f"{seconds:g}", "--trace", "0"]


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its full result file as a dict."""
    argv = [sys.executable] + [str(seed) if a == "<seed>" else a
                               for a in command(workload, seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=seconds * 10 + 600)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}")
    result = tree / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(result.read_text())


def run_pairs(parent: Path, workload: str, seeds, seconds: float, flip: int) -> "list[dict]":
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if (i + flip) % 2 == 0 else ("change", "parent")
        sides = {}
        for side in order:
            sides[side] = run_side(parent if side == "parent" else ROOT, workload, seed, seconds)
        print(f"{workload} seed {seed}: setup_s parent "
              f"{sides['parent']['metrics']['setup_s']['value']:.3f} change "
              f"{sides['change']['metrics']['setup_s']['value']:.3f}", flush=True)
        pairs.append({"seed": seed, "first": order[0], **sides})
    return pairs


def quartiles(values: "list[float]") -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: "list[dict]", better: "dict[str, str]") -> dict:
    """Per metric: each side's median and quartiles and the change's wins."""
    summary = {}
    for name, metric in sorted(pairs[0]["parent"]["metrics"].items()):
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        summary[name] = {
            "unit": metric["unit"],
            "pairs": len(pairs),
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return summary


def digest_problems(pairs: "list[dict]") -> "list[str]":
    problems = []
    for p in pairs:
        name = f"{p['parent']['workload']} seed {p['seed']}"
        if p["parent"]["records_digests"] != p["change"]["records_digests"]:
            problems.append(f"{name}: records digests differ between the two sides")
        for side in ("parent", "change"):
            if not p[side]["correct"]:
                problems.append(f"{name}: the {side} side failed its design checks")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git rev to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--also", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--also-pairs", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.also_pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --also-pairs must be at least 1, --seconds positive")

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp)
        try:
            sha = export(args.parent, parent)
            pairs = run_pairs(parent, args.workload,
                              range(args.seed, args.seed + args.pairs), args.seconds, 0)
            others = {}
            for name in args.also:
                first = args.seed + args.pairs + len(others) * args.also_pairs
                others[name] = run_pairs(parent, name, range(first, first + args.also_pairs),
                                         args.seconds, args.pairs + len(others))
        except (subprocess.CalledProcessError, RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    sections = {
        name: {"command": "python3 " + " ".join(command(name, args.seconds)),
               "pairs": runs, "summary": summarize(runs, better)}
        for name, runs in [(args.workload, pairs), *others.items()]
    }
    report = {
        "machine": f"{len(os.sched_getaffinity(0))} cores, Python {platform.python_version()}, "
                   f"{platform.system()} {platform.machine()}",
        "method": METHOD.format(seconds=args.seconds),
        "parent": sha,
        "workload": args.workload,
        **sections[args.workload],
        "other_workloads": {name: sections[name] for name in others},
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for name, sec in sections.items():
        for metric, s in sec["summary"].items():
            print(f"{name:18} {metric:20} parent {s['parent']['median']:12.4f}  change "
                  f"{s['change']['median']:12.4f}  {s['change_wins']}/{s['pairs']} {s['unit']}")
    problems = digest_problems(pairs + [p for runs in others.values() for p in runs])
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
