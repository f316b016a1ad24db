import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from titan import cli, pipeline, taskgen
from titan.backend import BackendError, HttpBackend, ReplayBackend, request_key
from titan import prompts

from conftest import literal_solution_code, write_replay


def gen_tasks(tmp_path, dataset="counting", count=6, seed=11):
    out = tmp_path / f"{dataset}.jsonl"
    rc = cli.main(
        [
            "gen",
            "--dataset",
            dataset,
            "--count",
            str(count),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def build_pal_replay(tmp_path, instances_path, library):
    instances = taskgen.read_jsonl(instances_path)
    entries = []
    for inst in instances:
        messages = prompts.messages_for(prompts.build_pal_zs(inst.prompt, library))
        entries.append(("codegen", messages, 0.0, 0, literal_solution_code(inst.gold)))
    replay_path = tmp_path / "replay.jsonl"
    write_replay(replay_path, entries)
    return replay_path


def timing_path(out):
    return Path(f"{out}.timing.jsonl")


def timing_ids(out):
    lines = timing_path(out).read_text().splitlines()
    return [json.loads(line)["instance_id"] for line in lines]


def run_args(instances, out, replay, extra=()):
    return [
        "run",
        "--instances",
        str(instances),
        "--out",
        str(out),
        "--mode",
        "pal_zs",
        "--backend",
        "replay",
        "--replay",
        str(replay),
        *extra,
    ]


# --- gen ---------------------------------------------------------------


def test_gen_writes_file_and_prints_template_summary(tmp_path, capsys):
    out = gen_tasks(tmp_path, count=10)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    printed = capsys.readouterr().out
    assert "counting: 10 instances" in printed
    for template_id in taskgen.DATASET_TEMPLATES["counting"]:
        assert template_id in printed


def test_gen_same_seed_is_byte_identical(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for path in (first, second):
        assert cli.main(
            ["gen", "--dataset", "finding", "--count", "8", "--seed", "3",
             "--out", str(path)]
        ) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gen_zero_count_is_usage_error(tmp_path, capsys):
    rc = cli.main(
        ["gen", "--dataset", "counting", "--count", "0", "--out",
         str(tmp_path / "x.jsonl")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_gen_all_writes_one_file_per_dataset(tmp_path):
    out_dir = tmp_path / "tasks"
    rc = cli.main(
        ["gen", "--dataset", "all", "--count", "8", "--seed", "1", "--out",
         str(out_dir)]
    )
    assert rc == 0
    for dataset in taskgen.DATASETS:
        path = out_dir / f"{dataset}.jsonl"
        assert path.is_file()
        assert len(path.read_text().strip().splitlines()) == 8


def test_gen_uses_manifest_counts_by_default(tmp_path, capsys):
    out = tmp_path / "tf.jsonl"
    rc = cli.main(["gen", "--dataset", "truefalse", "--seed", "1", "--out", str(out)])
    assert rc == 0
    expected = taskgen.default_manifest()["truefalse"]
    assert len(out.read_text().strip().splitlines()) == expected


def test_gen_corpus_override(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("\n".join(
        ["apple", "berry", "cedar", "delta", "ember", "fjord", "gamma",
         "hazel", "igloo", "joker", "karma", "lemon"]))
    sentences = tmp_path / "sents.txt"
    sentences.write_text(
        "apple berry cedar delta ember\nfjord gamma hazel igloo joker\n"
        "karma lemon apple berry cedar delta\n")
    out = tmp_path / "c.jsonl"
    rc = cli.main(
        ["gen", "--dataset", "counting", "--count", "5", "--seed", "2",
         "--out", str(out), "--words", str(words), "--sentences", str(sentences)]
    )
    assert rc == 0
    blob = out.read_text()
    for inst in taskgen.read_jsonl(out):
        assert inst.dataset == "counting"
    assert "apple" in blob or "berry" in blob


def test_gen_requires_both_corpus_paths(tmp_path):
    rc = cli.main(
        ["gen", "--dataset", "counting", "--count", "3", "--out",
         str(tmp_path / "x.jsonl"), "--words", "only-words.txt"]
    )
    assert rc == 1


# --- run ---------------------------------------------------------------


def test_run_replay_end_to_end(tmp_path, library, capsys, monkeypatch):
    monkeypatch.setenv("TITAN_API_KEY", "sk-should-never-appear")
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"
    rc = cli.main(run_args(instances, out, replay))
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(records) == 6
    assert all(r["correct"] for r in records)
    assert all("wall_ms" not in r for r in records)
    assert timing_ids(out) == [r["instance_id"] for r in records]
    for line in timing_path(out).read_text().splitlines():
        timing = json.loads(line)
        assert timing["wall_ms"] > 0
        assert len(timing["latency_ms"]) == len(timing["guest_ms"]) == 1

    manifest_path = tmp_path / "records.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["status"] == "completed"
    assert manifest["completed"] == 6
    assert manifest["correct"] == 6
    assert manifest["config"]["backend"]["kind"] == "replay"
    assert manifest["timing_path"] == str(timing_path(out))
    assert "sk-should-never-appear" not in manifest_path.read_text()
    assert "sk-should-never-appear" not in out.read_text()


def test_run_is_byte_deterministic(tmp_path, library):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    first = tmp_path / "r1.jsonl"
    second = tmp_path / "r2.jsonl"
    assert cli.main(run_args(instances, first, replay)) == 0
    assert cli.main(run_args(instances, second, replay)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_resume_skips_finished_instances(tmp_path, library):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    full = tmp_path / "full.jsonl"
    assert cli.main(run_args(instances, full, replay)) == 0

    partial = tmp_path / "resumed.jsonl"
    lines = full.read_text().splitlines(keepends=True)
    partial.write_text("".join(lines[:2]))
    rc = cli.main(run_args(instances, partial, replay, extra=("--resume",)))
    assert rc == 0
    assert partial.read_bytes() == full.read_bytes()

    manifest = json.loads((tmp_path / "resumed.jsonl.manifest.json").read_text())
    assert manifest["skipped_existing"] == 2
    assert manifest["completed"] == 6  # the 2 kept records and this session's 4


def test_run_resume_drops_torn_last_line(tmp_path, library, capsys, monkeypatch):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    full = tmp_path / "full.jsonl"
    assert cli.main(run_args(instances, full, replay)) == 0

    torn = tmp_path / "torn.jsonl"
    for source, path in ((full, torn), (timing_path(full), timing_path(torn))):
        lines = source.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    cutters = []
    whole_lines = cli.whole_lines
    monkeypatch.setattr(
        cli, "whole_lines",
        lambda path, cut=False: (cut and cutters.append(path), whole_lines(path, cut))[1],
    )
    capsys.readouterr()
    rc = cli.main(run_args(instances, torn, replay, extra=("--resume",)))
    assert rc == 0
    assert torn.read_bytes() == full.read_bytes()
    assert timing_ids(torn) == timing_ids(full)  # appended after the cut
    err = capsys.readouterr().err
    assert f"{torn}:3" in err and f"{timing_path(torn)}:3" in err
    assert cutters == [str(torn), str(timing_path(torn))]  # one cutter for both


def test_run_resume_fills_the_sidecar_line_a_killed_run_left_out(
    tmp_path, library
):
    # killed after its third record, before that record's timing line
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    full = tmp_path / "full.jsonl"
    assert cli.main(run_args(instances, full, replay)) == 0

    short = tmp_path / "short.jsonl"
    records = full.read_text().splitlines(keepends=True)
    short.write_text("".join(records[:3]))
    timing = timing_path(full).read_text().splitlines(keepends=True)
    timing_path(short).write_text("".join(timing[:2]))
    rc = cli.main(run_args(instances, short, replay, extra=("--resume",)))
    assert rc == 0
    assert short.read_bytes() == full.read_bytes()
    lines = timing_path(short).read_text().splitlines(keepends=True)
    assert lines[:2] == timing[:2]
    third = json.loads(records[2])["instance_id"]
    assert lines[2] == (
        '{"guest_ms": null, "instance_id": "%s", "latency_ms": null, '
        '"wall_ms": null}\n' % third
    )
    assert timing_ids(short) == timing_ids(full)  # line i belongs to record i


def test_run_resume_cuts_the_sidecar_lines_past_the_kept_records(tmp_path, library):
    # the records file lost more of its tail than the sidecar did
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    full = tmp_path / "full.jsonl"
    assert cli.main(run_args(instances, full, replay)) == 0

    long = tmp_path / "long.jsonl"
    records = full.read_text().splitlines(keepends=True)
    long.write_text("".join(records[:2]))
    timing = timing_path(full).read_text().splitlines(keepends=True)
    timing_path(long).write_text("".join(timing[:2]) + "\n" + "".join(timing[2:5]))
    rc = cli.main(run_args(instances, long, replay, extra=("--resume",)))
    assert rc == 0
    assert long.read_bytes() == full.read_bytes()
    lines = timing_path(long).read_text().splitlines(keepends=True)
    assert lines[:2] == timing[:2]
    assert timing_ids(long) == timing_ids(full)  # line i belongs to record i


def test_run_resume_malformed_inner_line_names_file_and_line(
    tmp_path, library, capsys
):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"
    assert cli.main(run_args(instances, out, replay)) == 0

    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(lines[0] + b"{torn\n" + lines[1])
    before = out.read_bytes()
    capsys.readouterr()
    rc = cli.main(run_args(instances, out, replay, extra=("--resume",)))
    assert rc == 2
    assert f"{out}:2" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_run_resume_record_with_list_instance_id_is_malformed(
    tmp_path, library, capsys
):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"
    assert cli.main(run_args(instances, out, replay)) == 0

    lines = out.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record["instance_id"] = [record["instance_id"]]
    out.write_text(lines[0] + json.dumps(record) + "\n")
    before = out.read_bytes()
    capsys.readouterr()
    rc = cli.main(run_args(instances, out, replay, extra=("--resume",)))
    assert rc == 2
    assert f"{out}:2: malformed record: instance_id" in capsys.readouterr().err
    assert out.read_bytes() == before


@pytest.mark.parametrize(
    "flags, field",
    [
        (("--mode", "titan"), "mode"),
        (("--samples", "3", "--temperature", "0.7"), "sample_answers"),
    ],
)
def test_run_resume_refuses_a_different_run(tmp_path, library, capsys, flags, field):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    full = tmp_path / "full.jsonl"
    assert cli.main(run_args(instances, full, replay)) == 0

    partial = tmp_path / "resumed.jsonl"
    lines = full.read_bytes().splitlines(keepends=True)
    partial.write_bytes(b"".join(lines[:3]) + lines[3][:10])
    before = partial.read_bytes()
    capsys.readouterr()
    rc = cli.main(run_args(instances, partial, replay, extra=("--resume", *flags)))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{partial}:1: {field}" in err
    assert partial.read_bytes() == before
    assert not (tmp_path / "resumed.jsonl.manifest.json").exists()


def _cut_run(tmp_path, library, keep=3):
    """A finished replayed run whose records file is cut after ``keep`` lines."""
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"
    assert cli.main(run_args(instances, out, replay)) == 0
    full = out.read_bytes()
    out.write_bytes(b"".join(full.splitlines(keepends=True)[:keep]))
    return instances, replay, out, full


def test_run_resume_refuses_a_config_the_old_manifest_does_not_hold(
    tmp_path, library, capsys
):
    instances, replay, out, _ = _cut_run(tmp_path, library)
    manifest_path = tmp_path / "records.jsonl.manifest.json"
    before = out.read_bytes(), manifest_path.read_bytes()
    capsys.readouterr()
    flags = ("--resume", "--temperature", "0.5", "--exec-timeout-s", "3")
    rc = cli.main(run_args(instances, out, replay, extra=flags))
    assert rc == 1
    err = capsys.readouterr().err
    assert str(manifest_path) in err
    assert "run.temperature" in err and "run.exec_timeout_s" in err
    assert "run.mode" not in err
    assert (out.read_bytes(), manifest_path.read_bytes()) == before


def test_run_resume_refuses_other_templates(tmp_path, library, capsys):
    instances, replay, out, _ = _cut_run(tmp_path, library)
    templates = tmp_path / "templates"
    shutil.copytree(Path(prompts.__file__).parent / "templates", templates)
    pal_zs = templates / "pal_zs.txt"
    pal_zs.write_text(pal_zs.read_text() + "Briefly.\n")
    manifest_path = tmp_path / "records.jsonl.manifest.json"
    before = out.read_bytes(), manifest_path.read_bytes()
    capsys.readouterr()
    flags = ("--resume", "--templates-dir", str(templates))
    rc = cli.main(run_args(instances, out, replay, extra=flags))
    assert rc == 1
    err = capsys.readouterr().err
    assert str(manifest_path) in err
    assert f"templates_dir was null, now {json.dumps(str(templates))}" in err
    assert (out.read_bytes(), manifest_path.read_bytes()) == before


@pytest.mark.parametrize("spelling", ["absolute", "dot_slash"])
def test_run_resume_takes_another_spelling_of_the_same_paths(
    tmp_path, library, monkeypatch, spelling
):
    instances = gen_tasks(tmp_path)
    build_pal_replay(tmp_path, instances, library)
    shutil.copytree(Path(prompts.__file__).parent / "templates", tmp_path / "templates")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "records.jsonl"
    # the run to resume names its store and templates relative to the cwd
    flags = ("--templates-dir", "templates")
    assert cli.main(run_args(instances, out, "replay.jsonl", extra=flags)) == 0
    full = out.read_bytes()
    out.write_bytes(b"".join(full.splitlines(keepends=True)[:3]))
    spell = {"absolute": lambda name: str(tmp_path / name),
             "dot_slash": lambda name: os.path.join(".", name)}[spelling]
    flags = ("--resume", "--templates-dir", spell("templates"))
    assert cli.main(run_args(instances, out, spell("replay.jsonl"), extra=flags)) == 0
    assert out.read_bytes() == full


def test_run_resume_refuses_another_store_spelled_alike(tmp_path, library, capsys):
    instances, replay, out, _ = _cut_run(tmp_path, library)
    other = tmp_path / "other" / replay.name
    other.parent.mkdir()
    shutil.copy(replay, other)
    before = out.read_bytes()
    capsys.readouterr()
    rc = cli.main(run_args(instances, out, other, extra=("--resume",)))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"backend.replay_path was {json.dumps(str(replay))}" in err
    assert "templates_dir" not in err
    assert out.read_bytes() == before


def test_run_resume_ignores_keys_that_cannot_change_a_record(tmp_path, library):
    instances, replay, out, full = _cut_run(tmp_path, library)
    flags = (
        "--resume", "--concurrency", "2", "--request-timeout-s", "5",
        "--max-retries", "1", "--api-key-env", "OTHER_KEY",
    )
    assert cli.main(run_args(instances, out, replay, extra=flags)) == 0
    assert out.read_bytes() == full


@pytest.mark.parametrize("text", ["{torn", "[]", '{"config": {"run": []}}'])
def test_run_resume_unreadable_manifest_names_the_file(
    tmp_path, library, capsys, text
):
    instances, replay, out, _ = _cut_run(tmp_path, library)
    manifest_path = tmp_path / "records.jsonl.manifest.json"
    manifest_path.write_text(text)
    before = out.read_bytes()
    capsys.readouterr()
    rc = cli.main(run_args(instances, out, replay, extra=("--resume",)))
    assert rc == 1
    assert str(manifest_path) in capsys.readouterr().err
    assert out.read_bytes() == before
    assert manifest_path.read_text() == text


def test_run_resume_counts_kept_records_in_the_manifest(tmp_path, library, capsys):
    instances, replay, out, full = _cut_run(tmp_path, library)
    lines = out.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record.update(correct=False, failure_class="mismatch")
    out.write_text(json.dumps(record, sort_keys=True) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert cli.main(run_args(instances, out, replay, extra=("--resume",))) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("completed: 3/3 instances (3 correct)")
    assert "failures:" not in printed  # the summary counts this session only
    manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
    assert manifest["skipped_existing"] == 3
    assert manifest["completed"] == 6
    assert manifest["correct"] == 5
    assert manifest["failures"] == {"mismatch": 1}


def test_run_question_answer_file_is_usage_error(tmp_path, capsys):
    instances = tmp_path / "qa.jsonl"
    instances.write_text(json.dumps({"question": "2 + 2?", "answer": "4"}) + "\n")
    rc = cli.main(run_args(instances, tmp_path / "o.jsonl", tmp_path / "r.jsonl"))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{instances}:1" in err and "missing field 'id'" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", ["a"]),
        ("dataset", 3),
        ("prompt", None),
        ("template_id", ["t"]),
        ("gold_kind", "weird"),
    ],
)
def test_run_instance_field_of_wrong_type_is_usage_error(
    tmp_path, capsys, field, value
):
    instances = gen_tasks(tmp_path, count=2)
    first, second = instances.read_text().splitlines()
    bad = json.loads(second)
    bad[field] = value
    instances.write_text(first + "\n" + json.dumps(bad) + "\n")
    out = tmp_path / "o.jsonl"
    rc = cli.main(run_args(instances, out, tmp_path / "r.jsonl"))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{instances}:2: {field}" in err
    assert not out.exists() and not (tmp_path / "o.jsonl.manifest.json").exists()


def test_run_instances_bad_json_line_is_usage_error(tmp_path, capsys):
    instances = gen_tasks(tmp_path, count=1)
    with open(instances, "a") as fh:
        fh.write("{not json\n")
    rc = cli.main(run_args(instances, tmp_path / "o.jsonl", tmp_path / "r.jsonl"))
    assert rc == 1
    assert f"{instances}:2" in capsys.readouterr().err


def test_run_input_line_not_utf8_names_file_and_line(tmp_path, library, capsys):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    good = instances.read_bytes()
    for path in (instances, replay):
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b'{"id": "\xff"}\n' + b"".join(lines[1:]))
        capsys.readouterr()
        assert cli.main(run_args(instances, tmp_path / "o.jsonl", replay)) == 1
        assert f"{path}:2" in capsys.readouterr().err
        instances.write_bytes(good)


MSGS = [{"role": "user", "content": "hello"}]


@pytest.fixture(params=["instances", "replay"])
def input_file(request):
    """A two-line input file's lines, a loader and what the loader must return."""
    if request.param == "instances":
        instances = taskgen.generate("counting", 2, 11)
        lines = [json.dumps(i.to_json_dict()) for i in instances]

        def load(path):
            return [instance.id for instance in taskgen.read_jsonl(path)]

        return lines, load, [i.id for i in instances], ValueError
    key = request_key("codegen", MSGS, 0.0)
    lines = [
        json.dumps({"key": key, "sample_index": s, "response_text": f"r{s}"})
        for s in (0, 1)
    ]

    def load(path):
        replay = ReplayBackend.from_path(path)
        return [replay.complete("codegen", MSGS, 0.0, s).text for s in (0, 1)]

    return lines, load, ["r0", "r1"], BackendError


def test_input_file_lines(tmp_path, input_file):
    lines, load, expected, error = input_file
    first, second = (line.encode() for line in lines)
    path = tmp_path / "input.jsonl"
    path.write_bytes(first + b"\n" + second)  # the last line needs no newline
    assert load(path) == expected
    path.write_bytes(b"\r\n" + first + b"\r\n \r\n\n" + second + b"\r\n")
    assert load(path) == expected
    for bad in (b"[1, 2]", b'"text"', b"{torn"):
        path.write_bytes(first + b"\n\n" + bad + b"\n" + second + b"\n")
        with pytest.raises(error, match=re.escape(f"{path}:3: malformed line")):
            load(path)


def test_run_missing_instances_is_usage_error(tmp_path, capsys):
    rc = cli.main(
        run_args(tmp_path / "absent.jsonl", tmp_path / "o.jsonl",
                 tmp_path / "r.jsonl")
    )
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_run_missing_replay_file_is_usage_error(tmp_path, capsys):
    instances = gen_tasks(tmp_path)
    absent = tmp_path / "absent-replay.jsonl"
    rc = cli.main(run_args(instances, tmp_path / "o.jsonl", absent))
    assert rc == 1
    assert f"replay file not found: {absent}" in capsys.readouterr().err


def test_run_config_file_with_flag_override(tmp_path, library):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "mode": "titan",  # flag below overrides this
        "backend_kind": "replay",
        "replay_path": str(replay),
        "concurrency": 2,
    }))
    out = tmp_path / "records.jsonl"
    rc = cli.main([
        "run", "--instances", str(instances), "--out", str(out),
        "--config", str(config), "--mode", "pal_zs",
    ])
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert all(r["mode"] == "pal_zs" for r in records)


def test_run_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"api_key": "sk-leak"}')
    rc = cli.main([
        "run", "--instances", "x.jsonl", "--out", "y.jsonl",
        "--config", str(config),
    ])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, key, expected",
    [
        ({"temperature": "hot"}, "temperature", "float"),
        ({"concurrency": 2.5}, "concurrency", "int"),
        ({"concurrency": True}, "concurrency", "int"),
        ({"system_prompt": 7}, "system_prompt", "str or null"),
    ],
)
def test_run_config_value_of_wrong_type_is_usage_error(
    tmp_path, library, capsys, raw, key, expected
):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "o.jsonl"
    rc = cli.main(run_args(instances, out, replay, extra=("--config", str(config))))
    assert rc == 1
    err = capsys.readouterr().err
    assert repr(key) in err and f"must be {expected}" in err
    assert not out.exists()


def test_run_config_int_for_float_key_matches_float_flag(tmp_path, library):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    config = tmp_path / "run.json"
    config.write_text('{"temperature": 0, "system_prompt": null}')
    from_file = tmp_path / "file.jsonl"
    from_flag = tmp_path / "flag.jsonl"
    rc = cli.main(
        run_args(instances, from_file, replay, extra=("--config", str(config)))
    )
    assert rc == 0
    rc = cli.main(run_args(instances, from_flag, replay, extra=("--temperature", "0")))
    assert rc == 0
    assert from_file.read_bytes() == from_flag.read_bytes()
    assert all(
        json.loads(line)["correct"] for line in from_file.read_text().splitlines()
    )
    manifest = json.loads((tmp_path / "file.jsonl.manifest.json").read_text())
    assert manifest["config"]["run"]["temperature"] == 0.0


@pytest.mark.parametrize(
    "flags, config_text, key",
    [
        (("--exec-timeout-s", "inf"), None, "exec_timeout_s"),
        ((), '{"exec_timeout_s": 1e999}', "exec_timeout_s"),
        ((), '{"exec_timeout_s": 1e7}', "exec_timeout_s"),
        (("--temperature", "inf"), None, "temperature"),
        (("--temperature", "-3"), None, "temperature"),
    ],
    ids=["timeout-flag-inf", "timeout-1e999", "timeout-1e7", "temperature-inf",
         "temperature-negative"],
)
def test_run_out_of_range_float_is_usage_error(
    tmp_path, library, capsys, flags, config_text, key
):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    if config_text is not None:
        config = tmp_path / "run.json"
        config.write_text(config_text)
        flags = ("--config", str(config))
    out = tmp_path / "o.jsonl"
    rc = cli.main(run_args(instances, out, replay, extra=flags))
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_run_samples_without_temperature_is_usage_error(tmp_path, capsys):
    instances = gen_tasks(tmp_path)
    rc = cli.main(
        run_args(instances, tmp_path / "o.jsonl", tmp_path / "r.jsonl",
                 extra=("--samples", "3"))
    )
    assert rc == 1
    assert "temperature" in capsys.readouterr().err


def test_cost_guard_blocks_large_live_runs(tmp_path, capsys):
    instances = gen_tasks(tmp_path, count=201, seed=5)
    rc = cli.main([
        "run", "--instances", str(instances), "--out", str(tmp_path / "o.jsonl"),
        "--mode", "pal_zs", "--backend", "http",
        "--endpoint-url", "http://unit.test/v1", "--model", "m",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--yes" in err and "201" in err


def test_cost_guard_ignores_replay_backends(tmp_path, library):
    instances = gen_tasks(tmp_path, count=201, seed=5)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"
    rc = cli.main(run_args(instances, out, replay))
    assert rc == 0


def test_interrupted_run_keeps_partial_records(tmp_path, library, monkeypatch):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"

    real_run_many = pipeline.run_many

    def interrupting(instances_arg, backend, config, library=None):
        iterator = real_run_many(instances_arg, backend, config, library)
        yield next(iterator)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.pipeline, "run_many", interrupting)
    rc = cli.main(run_args(instances, out, replay))
    assert rc == 2
    assert len(out.read_text().strip().splitlines()) == 1
    manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["completed"] == 1


def test_crashed_run_marks_manifest_failed(tmp_path, library, monkeypatch):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    out = tmp_path / "records.jsonl"

    real_run_many = pipeline.run_many

    def crashing(instances_arg, backend, config, library=None):
        iterator = real_run_many(instances_arg, backend, config, library)
        yield next(iterator)
        raise OSError("disk full")

    monkeypatch.setattr(cli.pipeline, "run_many", crashing)
    rc = cli.main(run_args(instances, out, replay))
    assert rc == 2
    manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["finished_at"] is not None
    assert manifest["completed"] == 1


# --- a live run over a replay store ------------------------------------


def live_backend(monkeypatch, transport):
    """Answer every request an HttpBackend sends with ``transport``."""
    monkeypatch.setattr(HttpBackend, "_requests_transport", staticmethod(transport))


def record_args(instances, out, store, mode="titan", extra=()):
    return [
        "run", "--instances", str(instances), "--out", str(out),
        "--mode", mode, "--backend", "http", "--endpoint-url", "http://unit.test/v1",
        "--model", "m", "--replay", str(store), *extra,
    ]


def test_record_replay_captures_and_replays(tmp_path, library, monkeypatch):
    instances = gen_tasks(tmp_path)
    loaded = taskgen.read_jsonl(instances)
    bodies = iter(
        json.dumps({
            "choices": [{"message": {"content": literal_solution_code(inst.gold)}}],
            "usage": {"total_tokens": 7},
        })
        for inst in loaded
    )

    def transport(url, headers, payload, timeout_s):
        return 200, next(bodies)  # concurrency 1: requests come in instance order

    live_backend(monkeypatch, transport)
    recorded = tmp_path / "recorded-replay.jsonl"
    first_out = tmp_path / "live.jsonl"
    assert cli.main(record_args(instances, first_out, recorded, "pal_zs")) == 0
    assert len(recorded.read_text().strip().splitlines()) == 6

    second_out = tmp_path / "replayed.jsonl"
    rc = cli.main(run_args(instances, second_out, recorded))
    assert rc == 0
    assert second_out.read_bytes() == first_out.read_bytes()
    records = [json.loads(line) for line in first_out.read_text().splitlines()]
    assert all(r["correct"] for r in records)
    assert timing_ids(second_out) == timing_ids(first_out)


def answering_transport(library, instances_path, sent, kill_at=None):
    """A transport answering every prompt of titan's modes for the instances.

    Each request's ``(phase, request_key)`` is appended to ``sent``; the
    ``kill_at``-th request raises KeyboardInterrupt, as Ctrl-C would.
    """
    loaded = taskgen.read_jsonl(instances_path)
    aux = {}
    for inst in loaded:
        aux[prompts.build_input_extraction(inst.prompt, library)] = "input_extraction"
        aux[prompts.build_step_extraction(inst.prompt, library)] = "step_extraction"

    def transport(url, headers, payload, timeout_s):
        messages = payload["messages"]
        content = messages[-1]["content"]
        phase = aux.get(content, "codegen")
        sent.append((phase, request_key(phase, messages, payload["temperature"])))
        if len(sent) == kill_at:
            raise KeyboardInterrupt
        text = "x = 1"
        if phase == "codegen":
            inst = next(i for i in loaded if i.prompt in content)
            text = literal_solution_code(inst.gold)
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})

    return transport


def test_record_replay_store_answers_ablations_and_reruns(
    tmp_path, library, monkeypatch
):
    instances = gen_tasks(tmp_path)
    sent = []
    live_backend(monkeypatch, answering_transport(library, instances, sent))
    store = tmp_path / "store.jsonl"
    first = tmp_path / "titan.jsonl"
    assert cli.main(record_args(instances, first, store)) == 0
    assert len(sent) == 3 * 6

    sent.clear()
    no_input = tmp_path / "no_input.jsonl"
    assert cli.main(record_args(instances, no_input, store, "titan_no_input")) == 0
    assert [phase for phase, _ in sent] == ["codegen"] * 6
    records = [json.loads(line) for line in no_input.read_text().splitlines()]
    assert all(r["correct"] for r in records)

    sent.clear()
    rerun = tmp_path / "rerun.jsonl"
    assert cli.main(record_args(instances, rerun, store)) == 0
    assert sent == []
    assert rerun.read_bytes() == first.read_bytes()
    lines = [json.loads(line) for line in store.read_text().splitlines()]
    assert len(lines) == 4 * 6
    assert {line["model"] for line in lines} == {"m"}


def test_record_replay_resume_sends_nothing_the_store_holds(
    tmp_path, library, monkeypatch, capsys
):
    instances = gen_tasks(tmp_path)
    sent = []
    # the second instance's codegen request is the sixth
    live_backend(monkeypatch, answering_transport(library, instances, sent, 6))
    store, out = tmp_path / "store.jsonl", tmp_path / "records.jsonl"
    assert cli.main(record_args(instances, out, store)) == 2
    assert len(out.read_text().splitlines()) == 1
    held = {json.loads(line)["key"] for line in store.read_text().splitlines()}
    assert len(held) == 5

    # the store decides a record's answers, so a resume keeps it
    records, stored = out.read_bytes(), store.read_bytes()
    other = tmp_path / "other-store.jsonl"
    sent.clear()
    capsys.readouterr()
    assert cli.main(record_args(instances, out, other, extra=("--resume",))) == 1
    err = capsys.readouterr().err
    assert f"backend.replay_path was {json.dumps(str(store))}" in err
    assert out.read_bytes() == records and store.read_bytes() == stored
    assert not other.exists() and sent == []

    live_backend(monkeypatch, answering_transport(library, instances, sent))
    assert cli.main(record_args(instances, out, store, extra=("--resume",))) == 0
    assert len(sent) == 3 * 6 - 5
    assert not {key for _, key in sent} & held
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 6 and all(r["correct"] for r in records)


def test_record_replay_cuts_a_torn_store_line_and_asks_again(
    tmp_path, library, monkeypatch, capsys
):
    instances = gen_tasks(tmp_path)
    sent = []
    live_backend(monkeypatch, answering_transport(library, instances, sent))
    store = tmp_path / "store.jsonl"
    assert cli.main(record_args(instances, tmp_path / "a.jsonl", store, "pal_zs")) == 0
    whole = store.read_bytes()
    lines = whole.splitlines(keepends=True)
    store.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

    sent.clear()
    capsys.readouterr()
    assert cli.main(record_args(instances, tmp_path / "b.jsonl", store, "pal_zs")) == 0
    assert f"{store}:6: dropping unterminated last line" in capsys.readouterr().err
    assert len(sent) == 1
    assert store.read_bytes() == whole  # cut, then the same line appended


def test_http_run_over_a_full_store_sends_nothing(tmp_path, library, monkeypatch):
    instances = gen_tasks(tmp_path)
    sent = []
    live_backend(monkeypatch, answering_transport(library, instances, sent))
    store = tmp_path / "store.jsonl"
    first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    assert cli.main(record_args(instances, first, store, "pal_zs")) == 0
    assert len(sent) == 6

    sent.clear()
    assert cli.main(record_args(instances, again, store, "pal_zs")) == 0
    assert sent == []
    assert again.read_bytes() == first.read_bytes()


def test_store_serves_no_line_of_another_model(tmp_path, library, monkeypatch):
    instances = gen_tasks(tmp_path)
    unmarked = build_pal_replay(tmp_path, instances, library)  # lines without model
    other = tmp_path / "other.jsonl"
    other.write_text("".join(
        json.dumps({**json.loads(line), "model": "other"}) + "\n"
        for line in unmarked.read_text().splitlines()
    ))

    def failures(out):
        return {json.loads(line)["failure_class"] for line in out.read_text().splitlines()}

    out = tmp_path / "records.jsonl"
    assert cli.main(run_args(instances, out, unmarked, extra=("--model", "m"))) == 0
    assert failures(out) == {"none"}
    assert cli.main(run_args(instances, out, other, extra=("--model", "m"))) == 0
    assert failures(out) == {"backend_error"}
    assert cli.main(run_args(instances, out, other)) == 0  # no model: every line
    assert failures(out) == {"none"}

    sent = []
    live_backend(monkeypatch, answering_transport(library, instances, sent))
    assert cli.main(record_args(instances, out, unmarked, "pal_zs")) == 0
    assert sent == []
    assert cli.main(record_args(instances, out, other, "pal_zs")) == 0
    assert len(sent) == 6
    assert failures(out) == {"none"}


# --- report ------------------------------------------------------------


def write_records(path, rows):
    with open(path, "w") as fh:
        for dataset, correct, failure in rows:
            fh.write(json.dumps({
                "instance_id": "x", "dataset": dataset, "correct": correct,
                "failure_class": failure}) + "\n")


def test_report_prints_table_with_average(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    write_records(records, [("counting", True, "none")] * 3
                  + [("counting", False, "mismatch")]
                  + [("finding", True, "none")])
    rc = cli.main(["report", "--records", str(records)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "counting" in out and "75.0" in out
    assert "Average" in out
    assert "failures: mismatch=1" in out


def test_report_with_baseline_shows_deltas(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    baseline = tmp_path / "baseline.jsonl"
    write_records(records, [("counting", True, "none")] * 3
                  + [("counting", False, "mismatch")])
    write_records(baseline, [("counting", True, "none")]
                  + [("counting", False, "mismatch")])
    rc = cli.main(["report", "--records", str(records), "--baseline", str(baseline)])
    assert rc == 0
    assert "+25.0" in capsys.readouterr().out


def test_report_json_output(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    write_records(records, [("finding", True, "none")])
    out_json = tmp_path / "report.json"
    rc = cli.main(["report", "--records", str(records), "--out", str(out_json)])
    assert rc == 0
    parsed = json.loads(out_json.read_text())
    assert parsed["datasets"]["finding"]["accuracy"] == 100.0


@pytest.mark.parametrize(
    "field, value", [("dataset", 3), ("dataset", ["a"]), ("failure_class", ["x"])]
)
def test_report_record_field_of_wrong_type_is_malformed(
    tmp_path, capsys, field, value
):
    records = tmp_path / "records.jsonl"
    write_records(records, [("counting", True, "none")] * 2)
    lines = records.read_text().splitlines()
    bad = json.loads(lines[1])
    bad[field] = value
    records.write_text(lines[0] + "\n" + json.dumps(bad) + "\n")
    rc = cli.main(["report", "--records", str(records)])
    assert rc == 2
    assert f"{records}:2: malformed record: {field}" in capsys.readouterr().err


def test_report_null_dataset_is_external(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    write_records(records, [(None, True, "none")])
    assert cli.main(["report", "--records", str(records)]) == 0
    assert "external" in capsys.readouterr().out


def test_report_skips_a_torn_last_line_and_cuts_nothing(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    write_records(records, [("counting", True, "none")] * 3
                  + [("counting", False, "mismatch")] * 2
                  + [("finding", True, "none")])
    lines = records.read_bytes().splitlines(keepends=True)
    records.write_bytes(b"".join(lines[:5]) + lines[5][:25])  # killed mid-record
    before = records.read_bytes()
    rc = cli.main(["report", "--records", str(records)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "counting" in captured.out and "60.0" in captured.out
    assert "finding" not in captured.out
    assert f"{records}:6: dropping unterminated last line" in captured.err
    assert records.read_bytes() == before


def test_report_missing_file_is_usage_error(tmp_path, capsys):
    rc = cli.main(["report", "--records", str(tmp_path / "absent.jsonl")])
    assert rc == 1


# --- a reader that has gone away ----------------------------------------


def titan_with_closed_stdout(argv, cwd):
    """Run ``python -m titan argv`` with stdout on a pipe nobody reads."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    try:
        return subprocess.run(
            [sys.executable, "-m", "titan", *argv],
            stdout=write_end, stderr=subprocess.PIPE, cwd=cwd, env=env, timeout=60,
        )
    finally:
        os.close(write_end)


def test_report_to_a_closed_stdout_still_writes_its_file(tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text("")
    proc = titan_with_closed_stdout(
        ["report", "--records", str(records), "--out", "r.json"], tmp_path
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads((tmp_path / "r.json").read_text())["datasets"] == {}


def test_run_to_a_closed_stdout_exits_with_its_own_code(tmp_path, library):
    instances = gen_tasks(tmp_path)
    replay = build_pal_replay(tmp_path, instances, library)
    expected = tmp_path / "expected.jsonl"
    assert cli.main(run_args(instances, expected, replay)) == 0
    out = tmp_path / "records.jsonl"
    proc = titan_with_closed_stdout(run_args(instances, out, replay), tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes() == expected.read_bytes()


# --- parser behaviour --------------------------------------------------


def test_bad_arguments_exit_one(capsys):
    assert cli.main(["run"]) == 1  # missing required flags
    assert cli.main(["gen", "--dataset", "bogus", "--out", "x"]) == 1
    assert cli.main(["no-such-command"]) == 1


def test_entrypoint_raises_systemexit():
    with pytest.raises(SystemExit):
        cli.entrypoint()


# --- README ------------------------------------------------------------


def test_readme_commands_and_config_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w*)\n(.*?)```", readme, re.S)
    parser = cli.build_parser()
    commands = [
        shlex.split(line, comments=True)[1:]
        for lang, body in blocks
        if lang == "sh"
        for line in body.replace("\\\n", " ").splitlines()
        if line.startswith("titan ")
    ]
    assert len(commands) >= 7
    for argv in commands:
        parser.parse_args(argv)

    (config_text,) = [body for lang, body in blocks if lang == "json"]
    config = tmp_path / "run.json"
    config.write_text(config_text)
    file_cfg = cli._load_config_file(str(config))
    args = parser.parse_args(
        ["run", "--config", str(config), "--instances", "i", "--out", "o"]
    )
    run_config, backend_config, _ = cli._merge(file_cfg, args)
    assert backend_config.kind == file_cfg["backend_kind"]
    assert run_config.concurrency == file_cfg["concurrency"]
