"""Runs repaired scripts as guests forked from a warm helper interpreter.

A run's ``Helper`` is one long-lived, single-threaded ``python3`` started
from the scrubbed guest environment (PYTHONHASHSEED pinned, site-packages
kept: no ``-S``). It pre-imports the modules repairs may inject
(``codeproc._ALLOWED_MODULES``) and forks each guest from that warm state
instead of cold-starting an interpreter per script. The helper starts on
the run's first guest and is closed and reaped when the run ends, so guest
CPU time reaches this process's ``RUSAGE_CHILDREN``; ``_helper.py`` is its
main program. A bare ``execute(script)`` uses a one-shot helper. A helper
that died, say because a guest killed it, is started again, and a request
it never started a guest for is sent to the new one once.

Each guest gets a fresh temp working directory holding its script as
``main.py``, a new session, the resource limits of ``GUEST_RLIMITS``, stdin
on /dev/null, stdout and stderr on pipes read here as they fill, and no
other open file descriptor. A wall-clock timeout kills the guest's whole
process group.

Of each output stream, at most ``4 * (output_cap + 1)`` bytes are kept and
the rest is read and dropped. Once the guest is done, each is decoded once,
as ``Popen.communicate`` does in text mode (preferred locale encoding,
``errors="replace"``, ``\r\n`` and ``\r`` made ``\n``), and cut to
``output_cap`` characters. A character takes at most 4 bytes, so those lie
in the bytes kept. Only a stateful codec (ISO-2022-*), whose escapes decode
to nothing, breaks that bound; the preferred encoding is UTF-8 here, as
CPython's C-locale coercion also makes it.

Isolation is process-level only. It is not a security sandbox; do not feed
it scripts generated from untrusted prompts in privileged environments.
"""

from __future__ import annotations

import contextlib
import locale
import os
import select
import signal
import socket
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

from . import _helper, codeproc

DEFAULT_TIMEOUT_S = 10.0
# select.poll takes its timeout as a C int of milliseconds
MAX_TIMEOUT_S = (2**31 - 1) / 1000.0
DEFAULT_OUTPUT_CAP = 64 * 1024
DEFAULT_INTERPRETER = "python3"
# Limits of every guest, soft and hard alike (at most the runner's own hard
# limit): its address space, the size of any file it writes, no core dump.
# 1 GiB leaves room for a guest's threads, whose stacks each reserve
# RLIMIT_STACK.
GUEST_RLIMITS = {"RLIMIT_AS": 1 << 30, "RLIMIT_FSIZE": 64 << 20, "RLIMIT_CORE": 0}

# Environment variables passed through to the guest. PYTHONHASHSEED is
# pinned so set iteration inside guest scripts cannot break the
# byte-determinism of captured output across runs.
_ENV_ALLOWLIST = ("PATH", "LANG", "LC_ALL")
_ENV_EXTRA = {"PYTHONHASHSEED": "0"}

_HELPER_MAIN = os.path.abspath(_helper.__file__)
_CHUNK = 64 * 1024
# After the timeout kill, how long to wait for the pipes to close. Only a
# descendant that left the guest's process group can hold them longer.
_KILL_GRACE_S = 1.0
_CLOSE_TIMEOUT_S = 5.0


@dataclass
class ExecutionOutcome:
    stdout: str
    stderr: str
    exit: str  # ok | nonzero | timeout | spawn_error
    exit_code: Optional[int]
    wall_ms: float
    truncated: bool

    def to_json_dict(self) -> dict:
        return {
            "stdout": self.stdout,
            "stderr": self.stderr,
            "exit": self.exit,
            "exit_code": self.exit_code,
            "truncated": self.truncated,
        }


def _guest_env() -> dict:
    env = {k: os.environ[k] for k in _ENV_ALLOWLIST if k in os.environ}
    env.update(_ENV_EXTRA)
    return env


class Helper:
    """One run's fork server: a warm interpreter that forks every guest.

    ``interpreter`` is the one place the guests' interpreter is named. The
    process starts on the first ``launch``, so a run that never reaches a
    guest starts none. ``close`` (or leaving the ``with`` block) ends it and
    reaps it. ``replace`` reaps a process the runner saw die, and the next
    ``launch`` starts a new one. Safe to share between threads.
    """

    def __init__(self, interpreter: str = DEFAULT_INTERPRETER):
        self.interpreter = interpreter
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._control: Optional[socket.socket] = None

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def launch(
        self, run_dir: str, out: int, err: int, status: int
    ) -> subprocess.Popen:
        """Ask for a guest for ``run_dir`` writing to the pipe write ends given.

        Returns the helper process asked. A request that a dead helper
        refuses is dropped, so, like one that a dying helper lost, it ends
        with the status pipe closed and no ``pid`` on it. Raises OSError if
        no helper can be started.
        """
        with self._lock:
            if self._proc is None:
                self._start()
            with contextlib.suppress(OSError):
                socket.send_fds(self._control, [os.fsencode(run_dir)], [out, err, status])
            return self._proc

    def replace(self, dead: subprocess.Popen) -> None:
        """Reap ``dead`` if it is still the current process.

        Compared by identity, so threads that saw the same process die
        replace it once.
        """
        with self._lock:
            if self._proc is dead:
                self._stop()

    def close(self) -> None:
        with self._lock:
            self._stop()

    def _start(self) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            proc = subprocess.Popen(
                [self.interpreter, _HELPER_MAIN, str(theirs.fileno()),
                 ",".join(f"{name}={value}" for name, value in GUEST_RLIMITS.items()),
                 *sorted(codeproc._ALLOWED_MODULES)],
                env=_guest_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                pass_fds=[theirs.fileno()],
            )
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        if ours.recv(16) != b"ready":
            ours.close()
            code = proc.wait()
            raise OSError(f"guest helper {self.interpreter!r} exited with code {code}")
        self._proc, self._control = proc, ours

    def _stop(self) -> None:
        if self._proc is None:
            return
        self._control.close()  # EOF: the helper reaps its guests and exits
        try:
            self._proc.wait(timeout=_CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc = self._control = None


def helper_scope(helper: Optional[Helper]):
    """Context manager giving ``helper``, or a new one closed on exit if None."""
    return contextlib.nullcontext(helper) if helper is not None else Helper()


def execute(
    script: str,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    output_cap: int = DEFAULT_OUTPUT_CAP,
    helper: Optional[Helper] = None,
) -> ExecutionOutcome:
    """Run ``script`` as a guest forked by ``helper`` and capture its outcome.

    The script lands in a fresh directory under ``tempfile.gettempdir()``
    as main.py and runs with that directory as cwd; the directory is
    removed afterwards. On timeout the whole process group receives
    SIGKILL. Without ``helper``, a one-shot ``Helper()`` runs the script.
    Before any helper or directory is made, a ``timeout_s`` outside
    ``(0, MAX_TIMEOUT_S]``, NaN included, or a negative ``output_cap``
    raises ``ValueError``, and an ``output_cap`` that is not an ``int``
    (or is a ``bool``) raises ``TypeError``.
    """
    if not 0 < timeout_s <= MAX_TIMEOUT_S:
        raise ValueError(f"timeout_s must be in (0, {MAX_TIMEOUT_S}], got {timeout_s}")
    if not isinstance(output_cap, int) or isinstance(output_cap, bool):
        raise TypeError(f"output_cap must be an int, got {output_cap!r}")
    if output_cap < 0:
        raise ValueError(f"output_cap must be at least 0, got {output_cap}")
    with helper_scope(helper) as helper, tempfile.TemporaryDirectory(
        prefix="titan-exec-", ignore_cleanup_errors=True
    ) as run_dir:
        with open(os.path.join(run_dir, _helper.SCRIPT), "w", encoding="utf-8") as fh:
            fh.write(script)
        return _run(helper, run_dir, timeout_s, output_cap)


def _run(
    helper: Helper, run_dir: str, timeout_s: float, output_cap: int, resend: bool = True
) -> ExecutionOutcome:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    status_r, status_w = os.pipe()
    readers = (out_r, err_r, status_r)
    try:
        called = time.monotonic()
        try:
            proc = helper.launch(run_dir, out_w, err_w, status_w)
        except OSError as exc:
            return _spawn_error(str(exc), called)
        finally:
            for fd in (out_w, err_w, status_w):
                os.close(fd)
        started = time.monotonic()
        out, err, status = bytearray(), bytearray(), bytearray()
        kept = {out_r: out, err_r: err}
        limit = 4 * (output_cap + 1)  # bytes of output_cap + 1 characters at most
        dropped = False
        poller = select.poll()
        for fd in readers:
            poller.register(fd, select.POLLIN)
        pending = set(readers)
        deadline = started + timeout_s
        timed_out = False
        try:
            while pending:
                wait_s = deadline - time.monotonic()
                if wait_s <= 0:
                    if timed_out:
                        break  # a straggler holds a pipe past the grace: give up on it
                    timed_out = True
                    _kill_group(status)
                    deadline = time.monotonic() + _KILL_GRACE_S
                    continue
                for fd, _ in poller.poll(wait_s * 1000.0):
                    data = os.read(fd, _CHUNK)
                    if not data:
                        poller.unregister(fd)
                        pending.discard(fd)
                    elif fd == status_r:
                        status += data
                    else:
                        stream = kept[fd]
                        dropped = dropped or len(stream) + len(data) > limit
                        stream += data[: limit - len(stream)]
        except BaseException:  # interrupted: leave no guest running
            _kill_group(status)
            raise
        wall_ms = (time.monotonic() - started) * 1000.0
    finally:
        for fd in readers:
            os.close(fd)

    stdout, out_cut = _decode(out, output_cap)
    stderr, err_cut = _decode(err, output_cap)
    truncated = dropped or out_cut or err_cut
    fields = _status_fields(status)
    if timed_out:
        exit_kind, exit_code = "timeout", None
        wall_ms = max(wall_ms, timeout_s * 1000.0)
    elif "error" in fields:
        return _spawn_error(fields["error"], started)
    elif "pid" not in fields:
        # The helper refused or lost the request, so the guest never ran and
        # sending it once more, on fresh pipes, is safe.
        if resend:
            helper.replace(proc)
            return _run(helper, run_dir, timeout_s, output_cap, resend=False)
        return _spawn_error("the helper exited before starting the guest", started)
    elif "exit" in fields:
        exit_code = os.waitstatus_to_exitcode(int(fields["exit"]))
        exit_kind = "ok" if exit_code == 0 else "nonzero"
    else:
        # The helper that forked the guest died, say killed by a guest, so
        # the status is gone.
        exit_kind, exit_code = "nonzero", None
        stderr += "\n[titan] guest exit status lost: its parent process died\n"
    return ExecutionOutcome(
        stdout=stdout,
        stderr=stderr,
        exit=exit_kind,
        exit_code=exit_code,
        wall_ms=wall_ms,
        truncated=truncated,
    )


def _decode(data: bytearray, cap: int) -> "tuple[str, bool]":
    """The first ``cap`` characters of ``data`` as ``communicate`` decodes it,
    and whether there were more."""
    text = data.decode(locale.getpreferredencoding(False), "replace")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text[:cap], len(text) > cap


def _spawn_error(message: str, since: float) -> ExecutionOutcome:
    return ExecutionOutcome(
        stdout="",
        stderr=message,
        exit="spawn_error",
        exit_code=None,
        wall_ms=(time.monotonic() - since) * 1000.0,
        truncated=False,
    )


def _status_fields(status: bytes) -> "dict[str, str]":
    """``pid``, ``exit`` and ``error`` lines the helper wrote so far."""
    fields = {}
    for line in bytes(status).decode("utf-8", "replace").splitlines(keepends=True):
        key, _, value = line.partition(" ")
        if line.endswith("\n"):
            fields[key] = value.strip()
    return fields


def _kill_group(status: bytes) -> None:
    """SIGKILL the guest's process group, once the helper has named it."""
    pid = _status_fields(status).get("pid")
    if pid is None:
        return  # the guest never started, or the helper died before naming it
    try:
        os.killpg(int(pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
