"""The executor's per-run helper: lifecycle, accounting and hostile guests."""

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from titan import executor
from titan.backend import ScriptedBackend
from titan.executor import Helper, execute
from titan.pipeline import RunConfig, run_many
from titan.taskgen import GroundTruth, TaskInstance

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ONE = "```python\ndef solution():\n    return 1\n```"
BURN = (
    "```python\nimport time\n\ndef solution():\n    start = time.process_time()\n"
    "    while time.process_time() - start < 0.1:\n        pass\n    return 1\n```"
)


def instances(n):
    return [
        TaskInstance(
            id=f"q{i}", dataset="external", prompt=f"Question {i}?",
            gold=GroundTruth("number", "1"),
        )
        for i in range(n)
    ]


def pal_run(n, codegen, concurrency=1):
    backend = ScriptedBackend({"codegen": [codegen] * n})
    config = RunConfig(mode="pal_zs", concurrency=concurrency)
    return run_many(instances(n), backend, config)


@pytest.fixture
def helper_starts(monkeypatch):
    """Every helper process started while the test runs, in start order."""
    started = []
    real_start = Helper._start

    def start(self):
        real_start(self)
        started.append(self._proc)

    monkeypatch.setattr(Helper, "_start", start)
    return started


# --- lifecycle -----------------------------------------------------------


@pytest.mark.parametrize("concurrency", [1, 2])
def test_run_many_starts_exactly_one_helper(helper_starts, concurrency):
    records = list(pal_run(12, ONE, concurrency))
    assert [r.failure_class for r in records] == ["none"] * 12
    assert len(helper_starts) == 1
    assert helper_starts[0].returncode is not None  # closed and reaped


def test_run_without_guests_starts_no_helper(helper_starts):
    records = list(pal_run(4, "I cannot write code for this."))
    assert [r.failure_class for r in records] == ["no_code"] * 4
    assert helper_starts == []


@pytest.mark.parametrize("concurrency", [1, 2])
def test_closing_run_many_early_reaps_the_helper(helper_starts, concurrency):
    records = pal_run(12, ONE, concurrency)
    assert next(records).failure_class == "none"
    records.close()
    assert len(helper_starts) == 1
    assert helper_starts[0].returncode is not None


def test_guest_cpu_reaches_rusage_children():
    def children_cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    before = children_cpu()
    records = list(pal_run(4, BURN, concurrency=2))
    assert [r.failure_class for r in records] == ["none"] * 4
    assert children_cpu() - before >= 4 * 0.1


# --- output --------------------------------------------------------------


def test_tracebacks_do_not_name_the_run_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    script = "def solution():\n    raise ValueError('boom')\n\nsolution()\n"
    first = execute(script)
    second = execute(script)
    assert first.exit == second.exit == "nonzero"
    assert first.stderr == second.stderr
    assert 'File "main.py", line 4, in <module>' in first.stderr
    assert str(tmp_path) not in first.stderr
    assert "titan-exec-" not in first.stderr


def test_output_beyond_the_cap_is_drained_in_bounded_memory():
    child = (
        "import json, re\n"
        "from titan.executor import execute\n"
        "guest = 'import sys\\nfor _ in range(200):\\n'\n"
        "guest += '    sys.stdout.write(\"x\" * 1000000)\\n'\n"
        "outcome = execute(guest, timeout_s=60.0)\n"
        # ru_maxrss of a child starts at its parent's peak RSS across fork and
        # exec, so it would measure the test runner; VmHWM is this process's own
        "status = open('/proc/self/status').read()\n"
        "rss_mb = int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)) / 1024\n"
        "print(json.dumps({'exit': outcome.exit, 'truncated': outcome.truncated,\n"
        "    'kept': len(outcome.stdout), 'maxrss_mb': rss_mb}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == "ok"  # drained, not killed, at the cap
    assert result["truncated"]
    assert result["kept"] == executor.DEFAULT_OUTPUT_CAP
    assert result["maxrss_mb"] < 100


def test_crlf_is_translated_across_reads():
    outcome = execute("import sys\nsys.stdout.write('a\\r\\nb\\rc\\n' * 50000)\n",
                      output_cap=10**7)
    assert outcome.stdout == "a\nb\nc\n" * 50000


# --- hostile guests ------------------------------------------------------


def test_guest_sees_only_standard_file_descriptors():
    outcome = execute("import os\nprint(sorted(os.listdir('/proc/self/fd')))\n")
    assert outcome.exit == "ok"
    assert outcome.stdout == "['0', '1', '2', '3']\n"  # 3 is the listing's own


def test_guest_killing_its_parent_ends_cleanly():
    script = (
        "import os, signal, time\n"
        "os.kill(os.getppid(), signal.SIGKILL)\n"
        "time.sleep(0.2)\n"
        "print('still here')\n"
    )
    with Helper() as helper:
        start = time.monotonic()
        outcome = execute(script, timeout_s=5.0, helper=helper)
        assert time.monotonic() - start < 4.0
        assert outcome.exit == "nonzero"
        assert outcome.exit_code is None
        assert outcome.stdout == "still here\n"
        assert execute("print('next')\n", helper=helper).stdout == "next\n"


def test_guest_killing_the_helper_gets_it_restarted(helper_starts):
    with Helper() as helper:
        assert execute("pass\n", helper=helper).exit == "ok"  # starts the helper
        script = (
            "import os, signal\n"
            f"os.kill({helper._proc.pid}, signal.SIGKILL)\n"
            "print('killed')\n"
        )
        outcome = execute(script, timeout_s=5.0, helper=helper)
        assert outcome.exit == "ok"
        assert outcome.stdout == "killed\n"
        assert execute("print('next')\n", helper=helper).stdout == "next\n"
    assert len(helper_starts) == 2
    assert helper_starts[0].returncode == -9


def test_requests_lost_by_a_dying_helper_are_sent_again_to_one_new_helper(
    helper_starts, monkeypatch
):
    with Helper() as helper:
        assert execute("pass\n", helper=helper).exit == "ok"  # starts the helper
        pid = helper._proc.pid
        sent = threading.Semaphore(0)
        real_launch = Helper.launch

        def launch(self, *args):
            try:
                return real_launch(self, *args)
            finally:
                sent.release()

        monkeypatch.setattr(Helper, "launch", launch)
        os.kill(pid, signal.SIGSTOP)  # alive to the runner, but serves nothing
        outcomes = []
        runners = [
            threading.Thread(
                target=lambda i=i: outcomes.append(
                    execute(f"print({i})\n", helper=helper)
                )
            )
            for i in range(2)
        ]
        for runner in runners:
            runner.start()
        for _ in runners:
            assert sent.acquire(timeout=10.0)
        os.kill(pid, signal.SIGKILL)  # both requests die unread with the helper
        for runner in runners:
            runner.join(20.0)
        got = sorted((o.exit, o.stdout) for o in outcomes)
        assert got == [("ok", "0\n"), ("ok", "1\n")]
    assert len(helper_starts) == 2  # the threads that saw it die replaced it once


def test_request_refused_by_a_dead_helper_is_sent_again(helper_starts):
    with Helper() as helper:
        assert execute("pass\n", helper=helper).exit == "ok"  # starts the helper
        pid = helper._proc.pid
        os.kill(pid, signal.SIGKILL)
        # dead and its socket closed, but not reaped: the next send is refused
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        outcome = execute("print('ran')\n", helper=helper)
        assert (outcome.exit, outcome.stdout) == ("ok", "ran\n")
    assert len(helper_starts) == 2
    assert helper_starts[0].returncode == -9
