"""Command line interface.

Subcommands: ``gen`` (synthesize task files), ``run`` (evaluate instances
against a backend) and ``report`` (accuracy table with optional baseline
deltas). ``run --replay`` names the run's replay store: ``--backend replay``
answers from it alone, and ``--backend http`` sends only its misses live,
appending their answers to it.

Exit codes: 0 success, 1 usage or configuration problem, 2 runtime failure.
Records are flushed line by line so an interrupted run keeps everything it
finished; each record's timing follows it as one line of the sidecar
``<out>.timing.jsonl``. The run manifest is a separate file and marks the
run ``interrupted`` in that case, or ``failed`` when the run raised. Secrets
never live in config files: only the name of the environment variable
holding the API key does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
import uuid
from typing import Optional

from . import backend as backend_mod
from . import pipeline, prompts, scoring, taskgen
from .backend import canonical, json_lines, whole_lines

COST_GUARD_REQUESTS = 200

# Config keys and their types. BackendConfig.kind is spelled backend_kind
# in config files. Each run flag's dest is its config key.
_RUN_TYPES = typing.get_type_hints(pipeline.RunConfig)
_BACKEND_TYPES = {
    "backend_kind" if name == "kind" else name: hint
    for name, hint in typing.get_type_hints(backend_mod.BackendConfig).items()
}
_KEY_TYPES = {**_RUN_TYPES, **_BACKEND_TYPES, "templates_dir": Optional[str]}


class UsageError(Exception):
    pass


def _say(text: str) -> None:
    """Print ``text`` to stdout, silencing stdout once its reader is gone.

    A closed pipe (``titan report | head -1``) then costs the command
    nothing: it ends with its own exit code. Following the note on SIGPIPE
    in the Python docs, stdout is pointed at /dev/null, so the flush at
    interpreter exit does not fail again.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a flat JSON object")
    unknown = set(raw) - set(_KEY_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


def _checked(key: str, value):
    """``value`` as the type of config key ``key``; UsageError if it is not one.

    A bool is not an int, and an int given for a float becomes a float, so
    ``0`` and ``0.0`` make the same requests.
    """
    hint = _KEY_TYPES[key]
    allowed = typing.get_args(hint) or (hint,)  # Optional[str] -> (str, NoneType)
    for kind in allowed:
        if type(value) is kind:
            return value
        if kind is float and type(value) is int:
            return float(value)
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise UsageError(f"config key {key!r} must be {names}, got {json.dumps(value)}")


def _merge(file_cfg: dict, args) -> tuple:
    """Config file first, then flags on top. Unset flags are None."""
    merged = dict(file_cfg)
    for key, value in vars(args).items():
        if key in _KEY_TYPES and value is not None:
            merged[key] = value
    merged = {key: _checked(key, value) for key, value in merged.items()}

    run_kwargs = {k: v for k, v in merged.items() if k in _RUN_TYPES}
    backend_kwargs = {
        k if k != "backend_kind" else "kind": v
        for k, v in merged.items()
        if k in _BACKEND_TYPES
    }
    try:
        run_config = pipeline.RunConfig(**run_kwargs)
        run_config.validate()
        backend_config = backend_mod.BackendConfig(**backend_kwargs)
    except pipeline.ConfigError as exc:
        raise UsageError(str(exc)) from None
    return run_config, backend_config, merged.get("templates_dir")


def _load_instances(path: str):
    if not os.path.isfile(path):
        raise UsageError(f"instances file not found: {path}")
    try:
        return taskgen.read_jsonl(path)
    except ValueError as exc:
        raise UsageError(f"bad instances file: {exc}") from None


# Record fields that report and resume read, with the types they accept. A
# null or absent dataset reports as "external".
_RECORD_STR_FIELDS = {
    "dataset": (str, type(None)),
    "failure_class": str,
    "instance_id": str,
}


def _records(path: str, cut: bool = False):
    """Each whole record of records file ``path`` with its ``path:line``."""
    for where, record in json_lines(whole_lines(path, cut), path):
        for key, types in _RECORD_STR_FIELDS.items():
            if key in record and not isinstance(record[key], types):
                raise ValueError(f"{where}: malformed record: {key} is not a string")
        yield where, record


def _resume_records(path: str, run_config: pipeline.RunConfig, tally: dict):
    """The ids of the records a resumed run keeps, counted into ``tally``.

    Every kept record must come from a run of the same mode and sample
    count, or the resume is refused before the file is touched. A torn last
    record is then cut from the file.
    """
    ids = []
    for where, record in _records(path, cut=True):
        if record.get("mode") != run_config.mode:
            raise UsageError(
                f"{where}: mode is {record.get('mode')!r}, but this "
                f"run's is {run_config.mode!r}"
            )
        answers = record.get("sample_answers")
        if not isinstance(answers, list) or len(answers) != run_config.samples_k:
            raise UsageError(
                f"{where}: sample_answers does not hold this run's "
                f"{run_config.samples_k} sample(s)"
            )
        ids.append(record.get("instance_id"))
        _count(tally, record)
    return ids


# Config keys a resumed run may change, because they cannot change a record.
_RESUME_FREE_KEYS = {
    "run": {"concurrency"},
    "backend": {"timeout_s", "max_retries", "api_key_env"},
}


# Config keys that name a file or directory: two spellings of one path are
# one value, e.g. "r.jsonl" and "./r.jsonl" from the same directory.
_PATH_KEYS = {"backend.replay_path", "templates_dir"}


def _same_setting(key: str, was, now) -> bool:
    """Whether ``now`` keeps the resumed run's value ``was`` of config ``key``."""
    if was == now or key not in _PATH_KEYS:
        return was == now
    if not (isinstance(was, str) and isinstance(now, str) and was and now):
        return False
    try:
        return os.path.realpath(was) == os.path.realpath(now)
    except ValueError:  # a NUL byte names no file
        return False


def _check_resumed_config(path: str, config: dict) -> None:
    """Refuse to resume the run of manifest ``path`` under another config.

    ``config`` is this run's manifest ``config``. Its ``templates_dir``
    and every key of its ``run`` and ``backend`` sections but
    ``_RESUME_FREE_KEYS`` must hold the value the old manifest has; a
    ``_PATH_KEYS`` path may be spelled another way, resolved from the
    current directory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(
            f"cannot read {path}, the manifest of the run to resume: {exc}"
        ) from None
    old = manifest.get("config") if isinstance(manifest, dict) else None
    if not (
        isinstance(old, dict)
        and all(isinstance(old.get(section), dict) for section in _RESUME_FREE_KEYS)
    ):
        raise UsageError(
            f"{path}: manifest has no config.run and config.backend objects"
        )
    settings = [
        (f"{section}.{key}", old[section].get(key), value)
        for section, free in _RESUME_FREE_KEYS.items()
        for key, value in config[section].items()
        if key not in free
    ]
    settings.append(("templates_dir", old.get("templates_dir"), config["templates_dir"]))
    changed = [
        f"{key} was {json.dumps(was)}, now {json.dumps(now)}"
        for key, was, now in settings
        if not _same_setting(key, was, now)
    ]
    if changed:
        raise UsageError(
            f"{path}: the run to resume had another config: {'; '.join(changed)}"
        )


def _count(tally: dict, record: dict) -> None:
    """Add serialized ``record`` to ``tally``'s completed, correct and failures."""
    tally["completed"] += 1
    tally["correct"] += record.get("correct") is True
    failure = record.get("failure_class", "none")
    if failure != "none":
        tally["failures"][failure] = tally["failures"].get(failure, 0) + 1


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# --- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    datasets = list(taskgen.DATASETS) if args.dataset == "all" else [args.dataset]
    manifest = taskgen.default_manifest()

    if args.words or args.sentences:
        if not (args.words and args.sentences):
            raise UsageError("--words and --sentences must be given together")
        corpus = taskgen.WordCorpus.from_paths(args.words, args.sentences)
    else:
        corpus = taskgen.WordCorpus.bundled()

    if args.dataset == "all":
        os.makedirs(args.out, exist_ok=True)

    for dataset in datasets:
        count = args.count if args.count is not None else manifest.get(dataset)
        if not count or count < 1:
            raise UsageError(f"count for {dataset} must be >= 1")
        try:
            instances = taskgen.generate(dataset, count, args.seed, corpus)
        except taskgen.GenerationError as exc:
            raise UsageError(str(exc)) from None
        if args.dataset == "all":
            out_path = os.path.join(args.out, f"{dataset}.jsonl")
        else:
            out_path = args.out
            _ensure_parent(out_path)
        taskgen.write_jsonl(instances, out_path)
        per_template: "dict[str, int]" = {}
        for instance in instances:
            per_template[instance.template_id] = (
                per_template.get(instance.template_id, 0) + 1
            )
        _say(f"{dataset}: {len(instances)} instances -> {out_path}")
        for template_id in taskgen.DATASET_TEMPLATES[dataset]:
            _say(f"  {template_id}: {per_template.get(template_id, 0)}")
    return 0


# --- run ---------------------------------------------------------------


def _write_json(path, obj: dict) -> None:
    """Write ``obj`` to ``path`` as one indented JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config)
    run_config, backend_config, templates_dir = _merge(file_cfg, args)

    try:
        library = prompts.load_templates(templates_dir)
    except prompts.TemplateError as exc:
        raise UsageError(str(exc)) from None

    instances = _load_instances(args.instances)

    out_path = args.out
    _ensure_parent(out_path)
    manifest_path = args.manifest or out_path + ".manifest.json"
    timing_path = out_path + ".timing.jsonl"
    config = {
        "run": dataclasses.asdict(run_config),
        "backend": dataclasses.asdict(backend_config),
        "templates_dir": templates_dir,
    }

    # the kept records' ids and counts, and how many of them are timed
    kept, counts, timed = [], {"completed": 0, "correct": 0, "failures": {}}, 0
    if args.resume and os.path.isfile(out_path):
        if os.path.isfile(manifest_path):
            _check_resumed_config(manifest_path, config)
        kept = _resume_records(out_path, run_config, counts)
        if os.path.isfile(timing_path):
            sidecar = json_lines(whole_lines(timing_path, cut=True), timing_path)
            timed, left = sum(1 for _ in sidecar), len(kept)
            if timed > left:  # line i of the sidecar times record i
                with open(timing_path, "rb+") as fh:
                    while left:  # a blank line times no record
                        left -= bool(fh.readline().strip())
                    fh.truncate()
    done_ids = set(kept)
    pending = [i for i in instances if i.id not in done_ids]

    estimated = (
        len(pending) * pipeline.PHASES_PER_MODE[run_config.mode] * run_config.samples_k
    )
    if backend_config.kind == "http" and estimated > COST_GUARD_REQUESTS and not args.yes:
        raise UsageError(
            f"this run would issue about {estimated} live requests "
            f"(> {COST_GUARD_REQUESTS}); pass --yes to confirm"
        )

    if backend_config.kind == "http" and backend_config.replay_path:
        _ensure_parent(backend_config.replay_path)  # the store is made on a miss
    try:
        backend = backend_mod.make_backend(backend_config)
    except backend_mod.BackendError as exc:
        raise UsageError(str(exc)) from None

    manifest = {
        "run_id": uuid.uuid4().hex[:12],
        "created_at": _now_iso(),
        "finished_at": None,
        "status": "running",
        "instances_path": os.path.abspath(args.instances),
        "records_path": os.path.abspath(out_path),
        "timing_path": os.path.abspath(timing_path),
        "total_instances": len(instances),
        "skipped_existing": len(instances) - len(pending),
        # counted over the kept records and this session's
        **counts,
        "config": config,
    }
    _write_json(manifest_path, manifest)
    session = {"completed": 0, "correct": 0, "failures": {}}

    file_mode = "a" if kept else "w"
    status = "failed"
    try:
        with open(out_path, file_mode, encoding="utf-8") as fh, open(
            timing_path, file_mode, encoding="utf-8"
        ) as timing_fh:
            # line i of the sidecar times record i, also after a killed run
            for instance_id in kept[timed:]:
                untimed = dict.fromkeys(("guest_ms", "latency_ms", "wall_ms"))
                untimed["instance_id"] = instance_id
                timing_fh.write(canonical(untimed) + "\n")
            for record in pipeline.run_many(pending, backend, run_config, library):
                data = record.to_json_dict()
                fh.write(canonical(data) + "\n")
                fh.flush()
                timing_fh.write(canonical(record.timing) + "\n")
                timing_fh.flush()
                _count(manifest, data)
                _count(session, data)
        status = "completed"
    except KeyboardInterrupt:
        status = "interrupted"
    finally:
        # any other exception propagates after the manifest says "failed"
        manifest["status"] = status
        manifest["finished_at"] = _now_iso()
        _write_json(manifest_path, manifest)

    _say(
        f"{status}: {session['completed']}/{len(pending)} instances "
        f"({session['correct']} correct) -> {out_path}"
    )
    if session["failures"]:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(session["failures"].items()))
        _say(f"failures: {parts}")
    return 0 if status == "completed" else 2


# --- report ------------------------------------------------------------


def cmd_report(args) -> int:
    if not os.path.isfile(args.records):
        raise UsageError(f"records file not found: {args.records}")
    baseline_report = None
    if args.baseline:
        if not os.path.isfile(args.baseline):
            raise UsageError(f"baseline file not found: {args.baseline}")
        baseline_report = scoring.aggregate(r for _, r in _records(args.baseline))
    report = scoring.aggregate(
        (r for _, r in _records(args.records)), baseline=baseline_report
    )
    if args.out:
        _ensure_parent(args.out)
        _write_json(args.out, report.to_json_dict())
    _say(scoring.render_table(report))
    return 0


# --- parser ------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="titan", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate synthetic task files")
    gen.add_argument(
        "--dataset", required=True, choices=taskgen.DATASETS + ("all",)
    )
    gen.add_argument("--count", type=int, help="instances (default: manifest count)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output file (directory for all)")
    gen.add_argument("--words", help="override word list path")
    gen.add_argument("--sentences", help="override sentence list path")
    gen.set_defaults(fn=cmd_gen)

    run = subs.add_parser("run", help="evaluate instances against a backend")
    run.add_argument("--instances", required=True, help="task JSONL to evaluate")
    run.add_argument("--out", required=True, help="records JSONL to write")
    run.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
    run.add_argument("--config", help="flat JSON config file")
    run.add_argument("--mode", choices=pipeline.MODES)
    run.add_argument("--temperature", type=float)
    run.add_argument(
        "--samples", type=int, dest="samples_k", help="self-consistency sample count"
    )
    run.add_argument("--exec-timeout-s", type=float)
    run.add_argument("--concurrency", type=int)
    run.add_argument("--case-sensitive", action="store_true", default=None)
    run.add_argument("--system-prompt")
    run.add_argument("--backend", choices=("http", "replay"), dest="backend_kind")
    run.add_argument("--endpoint-url")
    run.add_argument("--model")
    run.add_argument("--api-key-env")
    run.add_argument("--request-timeout-s", type=float, dest="timeout_s")
    run.add_argument("--max-retries", type=int)
    run.add_argument(
        "--replay", dest="replay_path", help="replay store JSONL (http: misses go live)"
    )
    run.add_argument("--templates-dir")
    run.add_argument("--resume", action="store_true")
    run.add_argument("--yes", action="store_true", help="confirm large live runs")
    run.set_defaults(fn=cmd_run)

    rep = subs.add_parser("report", help="accuracy table from records")
    rep.add_argument("--records", required=True)
    rep.add_argument("--baseline", help="records JSONL to diff against")
    rep.add_argument("--out", help="also write the report as JSON")
    rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, backend_mod.BackendError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
