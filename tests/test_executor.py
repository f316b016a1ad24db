import math
import os
import tempfile
import time

import pytest

from titan import _helper
from titan.executor import Helper, execute

pytestmark = pytest.mark.usefixtures(
    "no_child_left_running", "no_fd_left_open", "no_run_dir_left"
)


def test_ok_run_captures_stdout_and_stderr():
    outcome = execute("import sys\nprint('hi')\nsys.stderr.write('warn')\n")
    assert outcome.exit == "ok"
    assert outcome.exit_code == 0
    assert outcome.stdout == "hi\n"
    assert outcome.stderr == "warn"
    assert not outcome.truncated
    assert outcome.wall_ms >= 0


def test_nonzero_exit_is_reported():
    outcome = execute("import sys\nsys.exit(3)\n")
    assert outcome.exit == "nonzero"
    assert outcome.exit_code == 3


def test_exception_is_nonzero_with_traceback():
    outcome = execute("raise ValueError('boom')\n")
    assert outcome.exit == "nonzero"
    assert "ValueError" in outcome.stderr


def test_timeout_kills_promptly_and_clamps_wall():
    start = time.monotonic()
    outcome = execute("import time\ntime.sleep(30)\n", timeout_s=1.0)
    elapsed = time.monotonic() - start
    assert outcome.exit == "timeout"
    assert elapsed < 1.5
    assert outcome.wall_ms >= 1000


def test_timeout_kills_spawned_children():
    script = (
        "import subprocess, time\n"
        "subprocess.Popen(['python3', '-c', 'import time; time.sleep(30)'])\n"
        "time.sleep(30)\n"
    )
    start = time.monotonic()
    outcome = execute(script, timeout_s=1.0)
    assert outcome.exit == "timeout"
    assert time.monotonic() - start < 2.5


@pytest.mark.parametrize("timeout_s", [1e7, math.inf, math.nan, 0.0])
def test_out_of_range_timeout_is_rejected_before_any_guest(
    tmp_path, monkeypatch, timeout_s
):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with Helper() as helper:
        with pytest.raises(ValueError, match="timeout_s"):
            execute("print(1)\n", timeout_s=timeout_s, helper=helper)
        assert helper._proc is None  # no helper was started
    assert os.listdir(tmp_path) == []  # no run dir was made


@pytest.mark.parametrize(
    "output_cap, error",
    [(-1, ValueError), (2.5, TypeError), (True, TypeError), ("10", TypeError)],
)
def test_bad_output_cap_is_rejected_before_any_guest(tmp_path, output_cap, error):
    with Helper() as helper:
        with pytest.raises(error, match="output_cap"):
            execute("print('hello')\n", output_cap=output_cap, helper=helper)
        assert helper._proc is None  # no helper was started
    assert os.listdir(tmp_path) == []  # no run dir was made


def test_spawn_error_for_missing_interpreter():
    outcome = execute("print(1)\n", helper=Helper("definitely-not-a-real-binary"))
    assert outcome.exit == "spawn_error"
    assert outcome.stderr != ""
    assert outcome.exit_code is None


def test_output_caps_set_truncated_flag():
    outcome = execute("print('x' * 100000)\n", output_cap=1000)
    assert outcome.truncated
    assert len(outcome.stdout) == 1000


def test_environment_is_allowlisted():
    outcome = execute("import os\nprint(','.join(sorted(os.environ)))\n")
    assert outcome.exit == "ok"
    seen = set(outcome.stdout.strip().split(","))
    assert seen <= {"PATH", "LANG", "LC_ALL", "PYTHONHASHSEED", "LC_CTYPE"}
    assert "PYTHONHASHSEED" in seen


def test_hash_seed_pins_set_iteration():
    script = "print(list(set('determinism matters')))\n"
    first = execute(script)
    second = execute(script)
    assert first.exit == second.exit == "ok"
    assert first.stdout == second.stdout


def test_stdin_is_closed():
    outcome = execute("input()\n", timeout_s=5.0)
    assert outcome.exit == "nonzero"
    assert "EOFError" in outcome.stderr


def test_runs_are_isolated_and_cleaned_up(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    first = execute(
        "import os\n"
        "open('artifact.txt', 'w').write('x')\n"
        "print(sorted(os.listdir('.')))\n"
    )
    assert first.stdout == str(["artifact.txt", _helper.SCRIPT]) + "\n"
    second = execute("import os\nprint(os.path.exists('artifact.txt'))\n")
    assert second.stdout == "False\n"
    assert os.listdir(tmp_path) == []  # both run dirs removed


@pytest.mark.skipif(os.geteuid() == 0, reason="root can remove what it cannot read")
def test_run_dir_is_removed_when_the_guest_locks_a_subdirectory(tmp_path):
    outcome = execute("import os\nos.makedirs('d/e')\nos.chmod('d', 0)\n")
    assert outcome.exit == "ok"
    assert os.listdir(tmp_path) == []
