"""Timing of titan's layers from outside, by wrapping module attributes.

``Tracer`` replaces public functions of the titan modules with timing
wrappers for as long as it is installed, then puts the originals back.
The program's source is not touched.

Untraced, only whole instances are timed: the call of
``pipeline.run_self_consistency`` that each record comes from. Traced
(``detailed=True``), every layer boundary records a span. Spans are
folded into per-layer figures when their instance ends, so memory stays
flat however many instances a run makes.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from titan import backend, cli, codeproc, executor, pipeline, prompts, scoring

PROMPT_BUILDERS = (
    "build_input_extraction",
    "build_step_extraction",
    "build_codegen",
    "build_pal_zs",
)


def cpu_s() -> float:
    """User plus system CPU of this process and of every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


def p95(values) -> float:
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Wraps titan's functions while installed (``with Tracer(...)``).

    An instance's spans live in a ``layer -> [(start, end)]`` dict that is
    folded into the per-layer figures when the instance ends.
    """

    def __init__(self, detailed: bool, cli_records: bool = False):
        self.detailed = detailed
        self.cli_records = cli_records
        self.instance_ms = array("d")
        self.preamble_ms = array("d")
        self.first = None  # (perf_counter, cpu_s) at the batch's first instance
        self.values = defaultdict(lambda: array("d"))  # per-layer samples
        self.counts = Counter()
        self.totals = Counter()  # summed durations: ms where the key says so, else s
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = {}  # built prompt text -> spans of the instance that built it
        self._saved = []

    # --- install / remove -------------------------------------------------

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self):
        self._patch(pipeline, "run_self_consistency", self._wrap_instance)
        if self.detailed:
            for name in PROMPT_BUILDERS:
                self._patch(prompts, name, self._wrap_builder)
            for cls in (backend.ReplayBackend, backend.HttpBackend):
                self._patch(cls, "complete", self._wrap_complete)
            self._patch(codeproc, "process_response", self._wrap_process)
            self._patch(executor, "execute", self._wrap_execute)
            self._patch(scoring, "extract_answer", self._timed("scoring.extract_us", 1e6))
            self._patch(scoring, "is_match", self._timed("scoring.match_us", 1e6))
            self._patch(scoring, "aggregate", self._timed("scoring.aggregate_ms", 1e3))
            if self.cli_records:
                self._patch(pipeline, "run_many", self._wrap_run_many)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    # --- entry points used by the workloads ------------------------------

    def start_batch(self) -> None:
        self.first = None

    def mark(self) -> "tuple[int, int]":
        """How many instance and preamble times are recorded so far."""
        return len(self.instance_ms), len(self.preamble_ms)

    def rescale(self, mark: "tuple[int, int]", factor: float) -> None:
        """Multiply the instance and preamble times recorded since ``mark``."""
        if factor == 1.0:
            return
        for values, since in zip((self.instance_ms, self.preamble_ms), mark):
            for i in range(since, len(values)):
                values[i] *= factor

    def run_cli(self, argv) -> "tuple[int, str]":
        """``cli.main(argv)`` with its stdout captured; times the preamble."""
        self.start_batch()
        out = io.StringIO()
        called = perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if self.first is not None:
            self.preamble_ms.append((self.first[0] - called) * 1000.0)
        return rc, out.getvalue()

    def hook_span(self, layer: str, start: float, end: float, failed: bool = False):
        """A span from an injected backend hook (transport or backoff)."""
        if not self.detailed:
            return
        call = getattr(self._local, "call", None)
        if call is None:
            return
        call[layer] += end - start
        call["retries"] += failed
        self._child(layer, start, end, call["instance"])

    # --- wrappers ---------------------------------------------------------

    def _current(self):
        return getattr(self._local, "instance", None)

    def _child(self, layer, start, end, inst=None):
        if inst is None:
            inst = self._current()
        if inst is not None:
            with self._lock:
                inst[layer].append((start, end))

    def _wrap_instance(self, original):
        def run_self_consistency(instance, *args, **kwargs):
            start = perf_counter()
            with self._lock:
                if self.first is None:
                    self.first = (start, cpu_s())
            inst = defaultdict(list) if self.detailed else None
            self._local.instance = inst
            try:
                return original(instance, *args, **kwargs)
            finally:
                end = perf_counter()
                self._local.instance = None
                with self._lock:
                    self.instance_ms.append((end - start) * 1000.0)
                    if inst is not None:
                        self._fold(inst, end - start)

        return run_self_consistency

    def _fold(self, spans: dict, wall: float) -> None:
        children = [
            span
            for layer in ("prompts", "backend", "codeproc", "executor", "scoring")
            for span in spans[layer]
        ]
        self.values["pipeline.instance_self_ms"].append(
            (wall - covered(children)) * 1000.0
        )
        self.totals["instance_wall"] += wall
        self.totals["backend_in_instances"] += sum(e - s for s, e in spans["backend"])
        self.totals["executor_cover"] += covered(spans["executor"])
        self.totals["transport_cover"] += covered(spans["transport"])

    def _wrap_builder(self, original):
        def build(question, *args, **kwargs):
            start = perf_counter()
            text = original(question, *args, **kwargs)
            end = perf_counter()
            inst = self._current()
            with self._lock:
                self.counts["prompts.build_calls"] += 1
                self.values["prompts.build_us"].append((end - start) * 1e6)
                # Auxiliary phases complete on pool threads, where no
                # thread-local names the instance; the prompt text, which
                # embeds the question, ties their backend span back to it.
                self._owner[text] = inst
            self._child("prompts", start, end, inst)
            return text

        return build

    def _wrap_complete(self, original):
        def complete(backend_self, phase, messages, *args, **kwargs):
            with self._lock:
                inst = self._owner.pop(messages[-1]["content"], None)
            call = {"instance": inst, "transport": 0.0, "backoff": 0.0, "retries": 0}
            self._local.call = call
            start = perf_counter()
            failed = False
            try:
                return original(backend_self, phase, messages, *args, **kwargs)
            except backend.BackendError:
                failed = True
                raise
            finally:
                end = perf_counter()
                self._local.call = None
                span = end - start
                with self._lock:
                    self.counts["backend.calls"] += 1
                    self.counts["backend.errors"] += failed
                    self.counts["backend.retries"] += call["retries"]
                    self.values["backend.complete_ms"].append(span * 1000.0)
                    self.totals["backend.transport_ms"] += call["transport"] * 1000.0
                    self.totals["backend.backoff_ms"] += call["backoff"] * 1000.0
                    self.totals["backend.slot_wait_ms"] += (
                        span - call["transport"] - call["backoff"]
                    ) * 1000.0
                self._child("backend", start, end, inst)

        return complete

    def _wrap_process(self, original):
        def process_response(response):
            start = perf_counter()
            script = original(response)
            end = perf_counter()
            with self._lock:
                self.counts["codeproc.calls"] += 1
                self.values["codeproc.process_us"].append((end - start) * 1e6)
                self.counts["codeproc.repaired"] += bool(
                    {"indent_fixed", "imports_injected"} & set(script.repairs)
                )
                self.counts["codeproc.no_script"] += script.repaired is None
            self._child("codeproc", start, end)
            return script

        return process_response

    def _wrap_execute(self, original):
        def execute(script, *args, **kwargs):
            start = perf_counter()
            outcome = original(script, *args, **kwargs)
            end = perf_counter()
            span_ms = (end - start) * 1000.0
            with self._lock:
                self.counts["executor.calls"] += 1
                self.counts["executor.timeouts"] += outcome.exit == "timeout"
                self.counts["executor.nonzero"] += outcome.exit == "nonzero"
                self.values["executor.execute_ms"].append(span_ms)
                # read before the pipeline zeroes the record's copy
                self.values["executor.guest_ms"].append(outcome.wall_ms)
                self.totals["executor.execute_ms"] += span_ms
                self.totals["executor.wait_ms"] += span_ms - outcome.wall_ms
            self._child("executor", start, end)
            return outcome

        return execute

    def _timed(self, metric, scale):
        def make(original):
            def timed(*args, **kwargs):
                start = perf_counter()
                result = original(*args, **kwargs)
                end = perf_counter()
                with self._lock:
                    self.values[metric].append((end - start) * scale)
                self._child("scoring", start, end)
                return result

            return timed

        return make

    def _wrap_run_many(self, original):
        def run_many(*args, **kwargs):
            for record in original(*args, **kwargs):
                handed = perf_counter()
                yield record
                # the caller asked for the next record: its turn is over
                self.values["cli.record_write_us"].append((perf_counter() - handed) * 1e6)

        return run_many

    # --- per-layer figures ------------------------------------------------

    def layer_metrics(self, window_s: float, concurrency: int) -> dict:
        v, c, t = self.values, self.counts, self.totals
        wall = t["instance_wall"] or float("inf")
        calls = c["codeproc.calls"] or float("inf")
        out = {
            "executor.calls": (c["executor.calls"], "count"),
            "executor.timeouts": (c["executor.timeouts"], "count"),
            "executor.nonzero": (c["executor.nonzero"], "count"),
            "executor.execute_ms_p50": (median(v["executor.execute_ms"]), "ms"),
            "executor.execute_ms_p95": (p95(v["executor.execute_ms"]), "ms"),
            "executor.guest_ms_p50": (median(v["executor.guest_ms"]), "ms"),
            "executor.wait_ms_total": (t["executor.wait_ms"], "ms"),
            "executor.busy_share": (
                t["executor.execute_ms"] / 1000.0 / (window_s * concurrency), "share"
            ),
            "executor.instance_cover_share": (t["executor_cover"] / wall, "share"),
            "backend.calls": (c["backend.calls"], "count"),
            "backend.retries": (c["backend.retries"], "count"),
            "backend.errors": (c["backend.errors"], "count"),
            "backend.complete_ms_p50": (median(v["backend.complete_ms"]), "ms"),
            "backend.complete_ms_p95": (p95(v["backend.complete_ms"]), "ms"),
            "backend.transport_ms_total": (t["backend.transport_ms"], "ms"),
            "backend.backoff_ms_total": (t["backend.backoff_ms"], "ms"),
            "backend.slot_wait_ms_total": (t["backend.slot_wait_ms"], "ms"),
            "backend.transport_cover_share": (t["transport_cover"] / wall, "share"),
            "pipeline.instance_self_ms_p50": (median(v["pipeline.instance_self_ms"]), "ms"),
            "pipeline.phase_overlap": (t["backend_in_instances"] / wall, "ratio"),
            "codeproc.calls": (c["codeproc.calls"], "count"),
            "codeproc.process_us_p50": (median(v["codeproc.process_us"]), "us"),
            "codeproc.process_us_p95": (p95(v["codeproc.process_us"]), "us"),
            "codeproc.repaired_share": (c["codeproc.repaired"] / calls, "share"),
            "codeproc.no_script_share": (c["codeproc.no_script"] / calls, "share"),
            "prompts.build_calls": (c["prompts.build_calls"], "count"),
            "prompts.build_us_p50": (median(v["prompts.build_us"]), "us"),
            "scoring.extract_us_p50": (median(v["scoring.extract_us"]), "us"),
            "scoring.match_us_p50": (median(v["scoring.match_us"]), "us"),
            "scoring.aggregate_ms": (median(v["scoring.aggregate_ms"]), "ms"),
            "cli.preamble_ms": (median(self.preamble_ms), "ms"),
            "cli.record_write_us_p50": (median(v["cli.record_write_us"]), "us"),
        }
        return out
