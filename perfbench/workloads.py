"""The three closed-loop workloads and the loop that measures them.

Each workload prepares its inputs from the seed, then runs batches until
the measured time reaches the run length. A batch is one ``titan run``
(or one ``pipeline.run_many``) over a fixed slice of the instance pool,
so each of ``concurrency`` workers takes its next instance only when the
previous one has finished. Slices repeat in order; a repeat must give the
same records as the slice's first run.

Measured time runs from a batch's first instance to its last record.
Everything before the first instance (generation, replay or transport
table, template load, the CLI's preamble) is set-up and is reported as
``setup_s``, so work moved between the two shows. A workload that only
computes (``pipeline_overhead``) has its times scaled to a reference
speed of the machine (reference.py). ``setup_s`` times the
set-up of a fixed reference seed, not of the run's seed: how long
``taskgen`` takes depends on how often its samplers reject a draw, and
that depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from titan import backend, pipeline, prompts

import design
from reference import Reference
from tracer import Tracer, cpu_s

# The timed set-up runs once before the first batch and again after the
# batches that cross 1/9, 2/9, ... of the run, so it samples the machine
# at several moments instead of one. Every one of them sets up
# SETUP_SEED, so the figure is the same work whatever the run's seed.
SETUP_REPS = 9
SETUP_SEED = 0

# offline_mix: 128-instance slices, one timeout each (0.8%, far below the
# 5% that would put the timeout constant into p95).
OFFLINE_SHARES = {
    "correct": 66,
    "bare": 12,
    "flush_left": 12,
    "missing_import": 12,
    "mismatch": 8,
    "raises": 6,
    "needs_arguments": 6,
    "no_code": 5,
    "timeout": 1,
}
OFFLINE_EXEC_TIMEOUT_S = 1.0

# pipeline_overhead: every response stops before a guest is spawned.
# 256-instance slices keep a batch near a tenth of a second, so the
# reference timings around it (see reference.py) follow the machine's
# spells of speed closely.
OVERHEAD_SHARES = {"no_code": 1, "needs_arguments": 2, "unrepairable": 1}

# api_latency: how many of an instance's three samples give a runnable
# correct script; the rest stop before the executor (no_code or
# needs_arguments). Half a guest per instance on average, with the
# latency below, keeps executor spans near a tenth of instance time
# (NOTES.md gives the traced figure).
API_CORRECT_SAMPLES = {"1": 8, "2": 1, "0": 11}
API_SAMPLES = 3
API_TEMPERATURE = 0.7
# Simulated model latency of every request. It is not a recorded figure;
# a live endpoint is probably slower. It is about the largest latency at
# which a 30 s run at concurrency 2 still has 200 instances, so that p95
# has 10 beyond it. A slower endpoint would only shrink the executor's
# share further.
API_LATENCY_S = 0.040
API_ERROR_SHARE = 0.03  # requests answered 429/503 once before succeeding
# HttpBackend backs off 1 s, 2 s, ... plus jitter; the injected sleep
# compresses that 50x, so a retry costs about one simulated request
# instead of 25 of them.
API_BACKOFF_SCALE = 0.02

# The executor writes each guest into a fresh temp dir, and a raising
# guest's traceback names that path, so records of exec_error instances
# differ between runs byte for byte. Digests mask that one path and count
# how many times records carried it (see NOTES.md).
def _guest_dirs() -> "re.Pattern":
    root = os.fsencode(tempfile.gettempdir())
    return re.compile(re.escape(root) + rb"/titan-exec-[a-z0-9_]+")


@dataclass
class Window:
    """Measured time, CPU and instances, summed over batches.

    ``seconds`` and ``cpu`` are scaled to reference speed on a scaled
    workload; ``raw_seconds`` and ``raw_cpu`` are as measured.
    """

    seconds: float = 0.0
    cpu: float = 0.0
    instances: int = 0
    raw_seconds: float = 0.0
    raw_cpu: float = 0.0


@dataclass
class Check:
    """What the oracle found; any entry in ``problems`` fails the run."""

    unexpected: int = 0
    problems: "list[str]" = field(default_factory=list)
    digests: "dict[int, str]" = field(default_factory=dict)  # slice -> digest
    guest_dir_paths: int = 0

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _digest(path: Path) -> "tuple[str, int]":
    raw = path.read_bytes()
    masked, paths = _guest_dirs().subn(b"<guest-dir>", raw)
    return hashlib.sha256(masked).hexdigest(), paths


def _read_jsonl(path: Path) -> "list[dict]":
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_records(records, oracle, check: Check, label: str) -> None:
    if len(records) != len(oracle):
        check.unexpected += abs(len(oracle) - len(records))
        check.fail(f"{label}: {len(records)} records for {len(oracle)} instances")
    for record, want in zip(records, oracle):
        got = {
            "instance_id": record.get("instance_id"),
            "failure_class": record.get("failure_class"),
            "predicted": record.get("predicted"),
        }
        if got != {k: want[k] for k in got}:
            check.unexpected += 1
            check.fail(f"{label}: {want['kind']} instance gave {got}, designed {want}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Set-up, the closed loop and the checks shared by the three workloads."""

    name = ""
    concurrency = 1
    deterministic = False  # records must repeat byte for byte
    # Times scaled to reference speed (reference.py), for a workload whose
    # instances are all computation in this process. It runs on one CPU,
    # the one the reference measures.
    scaled = False
    per_dataset = 0
    batch = 0

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        self.nproc = nproc
        self.setup_s = []  # seconds of each timed set-up of SETUP_SEED
        self.generate_ms = []  # milliseconds in taskgen.generate of each
        self.run_setup_s = 0.0  # the set-up of the run's own seed
        self.records_path = work / "records.jsonl"
        self.oracles = []  # per slice: the designed record of each instance
        self._unexpected = {}  # slice -> unexpected records at its first run
        self._last = 0
        self.reference = None

    def __enter__(self):
        if self.scaled:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            self.reference = Reference()
        return self

    def __exit__(self, *exc):
        if self.reference is not None:
            self.reference.close()
        return False

    def _reference(self) -> float:
        """One reference timing; 0 on a workload that is not scaled."""
        return self.reference.time() if self.reference else 0.0

    def _scale(self, before: float) -> float:
        """Factor to reference speed for what ran since the timing ``before``."""
        if self.reference is None:
            return 1.0
        return self.reference.scale(before, self.reference.time())

    @property
    def slices(self) -> int:
        return self.per_dataset * 4 // self.batch

    def build(self, seed: int, where: Path) -> "tuple[float, SimpleNamespace]":
        """Generate the inputs of ``seed`` and write their files under ``where``.

        Returns the milliseconds spent in ``taskgen.generate`` and the
        inputs, whose ``oracles`` holds each slice's designed records.
        """
        raise NotImplementedError

    def run_slice(self, tracer: Tracer, s: int) -> None:
        """Run one slice of the pool and leave its records in records_path."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the run's own inputs; their set-up time is kept apart."""
        start = time.perf_counter()
        _, self.inputs = self.build(self.seed, self.work)
        self.oracles = self.inputs.oracles
        self.run_setup_s = time.perf_counter() - start

    def timed_setup(self) -> None:
        """One full set-up of SETUP_SEED, into its own directory, timed."""
        where = self.work / "setup"
        where.mkdir(exist_ok=True)
        before = self._reference()
        start = time.perf_counter()
        generate_ms, _ = self.build(SETUP_SEED, where)
        seconds = time.perf_counter() - start
        self.setup_s.append(seconds * self._scale(before))
        self.generate_ms.append(generate_ms)

    def measure(self, tracers: "list[Tracer]", seconds: float, check: Check) -> "list[Window]":
        """Run batches until ``seconds`` of measured time; set up again between.

        Batches take the tracers in turn, each installed only for its own
        batch, so a drift in machine speed falls on each of them alike.
        Each tracer gets at least one batch. Returns one window per tracer.
        A scaled workload's batch times, its instance and preamble times
        included, are scaled by the reference timings around the batch.
        The run length counts measured time, not scaled time.
        """
        windows = [Window() for _ in tracers]
        measured = 0.0
        batch = 0
        while measured < seconds or batch < len(tracers):
            s = batch % self.slices
            window = windows[batch % len(tracers)]
            tracer = tracers[batch % len(tracers)]
            mark = tracer.mark()
            before = self._reference()
            with tracer:
                tracer.start_batch()
                self.run_slice(tracer, s)
                end, cpu_end = time.perf_counter(), cpu_s()
            scale = self._scale(before)
            start, cpu_start = tracer.first
            tracer.rescale(mark, scale)
            window.raw_seconds += end - start
            window.raw_cpu += cpu_end - cpu_start
            window.seconds += (end - start) * scale
            window.cpu += (cpu_end - cpu_start) * scale
            window.instances += len(self.oracles[s])
            measured += end - start
            self.verify(s, check)
            batch += 1
            while (len(self.setup_s) < SETUP_REPS
                   and measured >= seconds * len(self.setup_s) / SETUP_REPS):
                self.timed_setup()
        return windows

    def verify(self, s: int, check: Check) -> None:
        """Check a slice's records against the design.

        The first run of a slice checks every record and the `titan report`
        totals. A deterministic workload's later runs of the slice must give
        the same records digest; any other workload is checked record by
        record every time.
        """
        label = f"{self.name} slice {s}"
        self._last = s
        digest, paths = _digest(self.records_path)
        first = s not in self._unexpected
        if first:
            before = check.unexpected
            _check_records(_read_jsonl(self.records_path), self.oracles[s], check, label)
            off = self.report(check)
            if check.unexpected == before:  # the report alone is wrong
                check.unexpected += off
            self._unexpected[s] = check.unexpected - before
            if self.deterministic:
                check.digests[s] = digest
                check.guest_dir_paths += paths
        elif not self.deterministic:
            _check_records(_read_jsonl(self.records_path), self.oracles[s], check, label)
        elif digest == check.digests[s]:
            check.unexpected += self._unexpected[s]
        else:
            check.fail(f"{label}: records differ from the slice's first run")
            _check_records(_read_jsonl(self.records_path), self.oracles[s], check, label)

    def report(self, check: Check) -> int:
        """`titan report` on the last slice's records must give its designed totals.

        Returns how many instances the report's totals are off by.
        """
        s = self._last
        oracle = self.oracles[s]
        label = f"{self.name} slice {s} report"
        report_path = self.work / "report.json"
        rc, _ = Tracer(detailed=False).run_cli(
            ["report", "--records", str(self.records_path), "--out", str(report_path)]
        )
        if rc != 0:
            check.fail(f"{label}: titan report exited {rc}")
            return len(oracle)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        failures, datasets = {}, {}
        for want in oracle:
            failures[want["failure_class"]] = failures.get(want["failure_class"], 0) + 1
            n, correct = datasets.get(want["dataset"], (0, 0))
            datasets[want["dataset"]] = (n + 1, correct + (want["failure_class"] == "none"))
        got = {name: (d["n"], d["correct"]) for name, d in report["datasets"].items()}
        off = sum(abs(failures.get(k, 0) - report["failures"].get(k, 0))
                  for k in set(failures) | set(report["failures"]))
        if got != datasets or off:
            check.fail(f"{label}: {report['failures']} {got}, designed {failures} {datasets}")
            return max(off, 1)
        return 0


class CliWorkload(Workload):
    """Runs `titan run --backend replay` in-process on seeded replay files."""

    deterministic = True
    shares: "dict[str, int]" = {}
    extra_flags: "tuple[str, ...]" = ()

    def build(self, seed: int, where: Path) -> "tuple[float, SimpleNamespace]":
        pool, generate_ms = design.generate_pool(seed, self.per_dataset)
        library = prompts.load_templates()
        rng = random.Random(seed)
        oracles = []
        for s in range(self.slices):
            part = pool[s * self.batch : (s + 1) * self.batch]
            kinds = design.assign(rng, len(part), self.shares)
            oracles.append(design.write_replay_batch(
                part, kinds, library,
                where / f"instances-{s}.jsonl", where / f"replay-{s}.jsonl",
            ))
        return generate_ms, SimpleNamespace(oracles=oracles)

    def run_slice(self, tracer: Tracer, s: int) -> None:
        argv = [
            "run",
            "--instances", str(self.work / f"instances-{s}.jsonl"),
            "--out", str(self.records_path),
            "--backend", "replay",
            "--replay", str(self.work / f"replay-{s}.jsonl"),
            "--mode", "titan",
            "--concurrency", str(self.concurrency),
            *self.extra_flags,
        ]
        rc, out = tracer.run_cli(argv)
        if rc != 0 or not out.startswith("completed:"):
            raise RuntimeError(f"{self.name}: titan run exited {rc}: {out.strip()}")


class OfflineMix(CliWorkload):
    name = "offline_mix"
    per_dataset = 128
    batch = 128
    shares = OFFLINE_SHARES
    extra_flags = ("--exec-timeout-s", str(OFFLINE_EXEC_TIMEOUT_S))

    def __init__(self, *args):
        super().__init__(*args)
        self.concurrency = self.nproc


class PipelineOverhead(CliWorkload):
    name = "pipeline_overhead"
    per_dataset = 256
    batch = 256
    shares = OVERHEAD_SHARES
    scaled = True


class ApiLatency(Workload):
    """`pipeline.run_many` against an HttpBackend whose transport is simulated."""

    name = "api_latency"
    per_dataset = 60
    batch = 40

    def __init__(self, *args):
        super().__init__(*args)
        self.concurrency = self.nproc
        self._lock = threading.Lock()

    def build(self, seed: int, where: Path) -> "tuple[float, SimpleNamespace]":
        pool, generate_ms = design.generate_pool(seed, self.per_dataset)
        library = prompts.load_templates()
        rng = random.Random(seed)
        slice_instances, tables, oracles = [], [], []
        for s in range(self.slices):
            part = pool[s * self.batch : (s + 1) * self.batch]
            sample_kinds = []
            for n_correct in design.assign(rng, len(part), API_CORRECT_SAMPLES):
                kinds = [rng.choice(("no_code", "needs_arguments")) for _ in range(API_SAMPLES)]
                for i in rng.sample(range(API_SAMPLES), int(n_correct)):
                    kinds[i] = "correct"
                sample_kinds.append(kinds)
            bodies, errors, oracle = design.api_table(
                part, sample_kinds, library, rng, API_ERROR_SHARE
            )
            slice_instances.append(part)
            tables.append((bodies, errors))
            oracles.append(oracle)
        http = backend.HttpBackend(
            backend.BackendConfig(kind="http", endpoint_url="http://model.invalid/v1",
                                  model="bench-model"),
            transport=self._transport,
            sleep=self._sleep,
            rng=random.Random(seed),
        )
        config = pipeline.RunConfig(
            mode="titan", temperature=API_TEMPERATURE, samples_k=API_SAMPLES,
            concurrency=self.concurrency,
        )
        config.validate()
        return generate_ms, SimpleNamespace(
            oracles=oracles, slice_instances=slice_instances, tables=tables,
            library=library, backend=http, config=config,
        )

    def _transport(self, url, headers, payload, timeout_s):
        """The simulated endpoint: fixed latency, canned body, a few refusals."""
        start = time.perf_counter()
        prompt = payload["messages"][-1]["content"]
        bodies, errors = self.inputs.tables[self._slice]
        with self._lock:
            index = self._served.get(prompt, 0)
            status = errors.get((prompt, index))
            if status is None or (prompt, index) in self._refused:
                status = 200
                self._served[prompt] = index + 1
            else:
                self._refused.add((prompt, index))
        time.sleep(API_LATENCY_S)
        body = bodies[prompt][index] if status == 200 else '{"error": {"message": "busy"}}'
        self._tracer.hook_span("transport", start, time.perf_counter(), failed=status != 200)
        return status, body

    def _sleep(self, delay: float) -> None:
        start = time.perf_counter()
        time.sleep(delay * API_BACKOFF_SCALE)
        self._tracer.hook_span("backoff", start, time.perf_counter())

    def run_slice(self, tracer: Tracer, s: int) -> None:
        self._slice, self._served, self._refused = s, {}, set()
        self._tracer = tracer
        inputs = self.inputs
        self._records = list(pipeline.run_many(
            inputs.slice_instances[s], inputs.backend, inputs.config, inputs.library
        ))

    def verify(self, s: int, check: Check) -> None:
        with open(self.records_path, "w", encoding="utf-8") as fh:
            for record in self._records:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        super().verify(s, check)


WORKLOADS = {w.name: w for w in (OfflineMix, ApiLatency, PipelineOverhead)}
