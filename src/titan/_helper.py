"""Main program of the executor's helper interpreter (a fork server).

``executor.Helper`` starts it as
``python3 _helper.py CONTROL_FD NAME=LIMIT,... MODULE...``; titan imports it
only for ``SCRIPT``, the name each guest's script is written under. The
helper pre-imports each MODULE, sends ``ready`` on the control socket, then
serves one request per message: the guest's run dir, with the write ends of
its stdout, stderr and status pipes attached as file descriptors.

The process tree is runner -> helper -> guests: the helper forks every
guest from its warm state, one fork per guest. Per guest it writes ``pid N``
on the status pipe, then one byte on a go pipe that the guest waits on, and,
once the guest ends, ``exit STATUS`` (the raw wait status); ``error MESSAGE``
if it could not fork. A guest whose helper died before the go byte exits
without running, so a request with no ``pid`` never ran its script.

A guest that kills the helper, its parent, loses its exit status, and so
does every other guest still running; the runner starts a new helper for
the next request. Every process is waited for by its parent, the helper by
the runner, so guest CPU time reaches the runner's ``RUSAGE_CHILDREN``: at
EOF on the control socket the helper reaps the guests left and exits.

The guest runs in a new session, under each NAME's ``resource`` limit (soft
and hard alike, at most the helper's own hard limit), with the run dir as
cwd, stdin on /dev/null (the helper's own stdin), stdout and stderr on the
pipes and no other file descriptor open. Its script is compiled with the
filename ``main.py``, so tracebacks do not name the run dir.
"""

import atexit
import builtins
import os
import resource
import select
import socket
import sys
import types

SCRIPT = "main.py"


def main() -> None:
    del sys.path[0]  # this file's directory; each guest gets its run dir
    control = socket.socket(fileno=int(sys.argv[1]))
    limits = [_limit(*item.split("=")) for item in sys.argv[2].split(",")]
    for name in sys.argv[3:]:
        __import__(name)
    control.send(b"ready")
    _spawn(control, limits)


def _limit(name: str, value: str) -> "tuple[int, int]":
    """``resource.NAME`` and ``value``, lowered to the hard limit if above it."""
    which = getattr(resource, name)
    hard = resource.getrlimit(which)[1]
    value = int(value)
    return which, value if hard == resource.RLIM_INFINITY else min(value, hard)


def _spawn(control: socket.socket, limits: "list[tuple[int, int]]") -> None:
    """Fork a guest per request on ``control`` and report each one's exit.

    Single-threaded, since it forks: one poll loop over the socket and a
    pidfd per running guest. After EOF it waits for the guests left.
    """
    poller = select.poll()
    poller.register(control, select.POLLIN)
    guests = {}  # pidfd -> (pid, status fd)
    serving = True
    while serving or guests:
        for fd, _ in poller.poll():
            if fd in guests:
                poller.unregister(fd)
                os.close(fd)
                pid, status = guests.pop(fd)
                _, wait_status = os.waitpid(pid, 0)
                _report(status, "exit %d\n" % wait_status)
                os.close(status)
                continue
            message, fds, _, _ = socket.recv_fds(control, 4096, 3)
            if not message:
                poller.unregister(control)
                serving = False
                continue
            out, err, status = fds
            try:
                pid = _fork_guest(os.fsdecode(message), out, err, status, limits)
                pidfd = os.pidfd_open(pid)
            except OSError as exc:
                _report(status, f"error cannot start the guest: {exc}\n")
                os.close(status)
            else:
                guests[pidfd] = (pid, status)
                poller.register(pidfd, select.POLLIN)
            finally:
                os.close(out)
                os.close(err)


def _fork_guest(
    run_dir: str, out: int, err: int, status: int, limits: "list[tuple[int, int]]"
) -> int:
    """Fork the guest of one request, name it on ``status`` and let it go.

    Returns the guest's pid. If ``pid`` cannot be written, the guest gets
    no go byte and exits without running.
    """
    go_read, go_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(go_read)
        os.close(go_write)
        raise
    if pid == 0:
        try:
            os.close(go_write)
            # Start only on the go byte, once the runner knows the pid: a
            # guest that killed the helper first could not be killed on
            # timeout. At EOF the helper died before naming the guest, and
            # the runner, seeing no pid, sends the request again.
            if os.read(go_read, 1):
                _guest(run_dir, out, err, limits)
        finally:
            os._exit(1)
    os.close(go_read)
    try:
        os.write(status, b"pid %d\n" % pid)
        os.write(go_write, b"g")
    except OSError:
        pass  # the runner is gone: the guest sees EOF and never runs
    os.close(go_write)
    return pid


def _report(status: int, line: str) -> None:
    """Write ``line`` on a status pipe whose runner may be gone."""
    try:
        os.write(status, line.encode())
    except OSError:
        pass


def _guest(run_dir: str, out: int, err: int, limits: "list[tuple[int, int]]") -> None:
    """Become the guest: run main.py in ``run_dir`` and exit as python3 would."""
    code = 0
    try:
        os.setsid()
        os.dup2(out, 1)
        os.dup2(err, 2)
        for which, value in limits:  # after dup2, so a failure shows in stderr
            resource.setrlimit(which, (value, value))
        # The helper's control socket and the status pipes of the guests
        # running beside this one go too: held here, they would keep a
        # runner waiting for this guest to end.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        os.chdir(run_dir)
        module = types.ModuleType("__main__")
        module.__file__ = SCRIPT
        module.__builtins__ = builtins
        sys.modules["__main__"] = module
        sys.argv = [SCRIPT]
        sys.path.insert(0, run_dir)
        with open(SCRIPT, "rb") as fh:
            source = fh.read()
        exec(compile(source, SCRIPT, "exec", dont_inherit=True), module.__dict__)
    except SystemExit as exc:
        code = _exit_code(exc.code)
    except BaseException:
        kind, value, tb = sys.exc_info()
        value.__traceback__ = tb.tb_next  # drop this frame; python3 shows none
        sys.excepthook(kind, value, tb.tb_next)
        code = 1
    os._exit(_shutdown(code))


def _exit_code(code) -> int:
    """The exit status python3 gives ``SystemExit(code)``."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    print(code, file=sys.stderr)
    return 1


def _shutdown(code: int) -> int:
    """What interpreter exit does for a script: join threads, run atexit, flush."""
    try:
        if "threading" in sys.modules:
            sys.modules["threading"]._shutdown()
        atexit._run_exitfuncs()
    except BaseException:
        sys.excepthook(*sys.exc_info())
        code = code or 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:
            code = code or 120
    return code


if __name__ == "__main__":
    main()
