"""Main program of the executor's helper interpreter (a fork server).

``executor.Helper`` starts it as ``python3 _helper.py CONTROL_FD MODULE...``;
titan never imports it. The helper pre-imports each MODULE, sends ``ready``
on the control socket, then serves one request per message: the guest's
run dir, with the write ends of its stdout, stderr and status pipes
attached as file descriptors.

For each request the helper forks a waiter, and the waiter forks the
guest. The waiter writes ``pid N`` on the status pipe, then one byte on a
go pipe that the guest waits on, waits for the guest and writes ``exit
STATUS`` (the raw wait status), or ``error MESSAGE`` if it could not fork.
A guest whose waiter died before the go byte exits without running, so a
request with no ``pid`` never ran its script. Every process is waited for
by its parent, the helper included by the runner, so guest CPU time
reaches the runner's ``RUSAGE_CHILDREN``. At EOF on the control socket
the helper reaps its remaining waiters and exits.

The guest runs in a new session, with the run dir as cwd, stdin on
/dev/null (the helper's own stdin), stdout and stderr on the pipes and no
other file descriptor open. Its script is compiled with the filename
``main.py``, so tracebacks do not name the run dir.
"""

import atexit
import builtins
import os
import socket
import sys
import types

SCRIPT = "main.py"


def main() -> None:
    del sys.path[0]  # this file's directory; each guest gets its run dir
    control = socket.socket(fileno=int(sys.argv[1]))
    for name in sys.argv[2:]:
        __import__(name)
    control.send(b"ready")
    while True:
        message, fds, _, _ = socket.recv_fds(control, 4096, 3)
        if not message:
            break
        try:
            pid = os.fork()
        except OSError as exc:
            os.write(fds[2], f"error cannot fork a waiter: {exc}\n".encode())
        else:
            if pid == 0:
                try:
                    control.close()
                    _waiter(os.fsdecode(message), *fds)
                finally:
                    os._exit(0)  # never back into the serving loop
        for fd in fds:
            os.close(fd)
        _reap(os.WNOHANG)
    _reap(0)


def _reap(flags: int) -> None:
    """Wait for finished waiters; with ``flags`` 0, for all of them."""
    while True:
        try:
            pid, _ = os.waitpid(-1, flags)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _waiter(run_dir: str, out: int, err: int, status: int) -> None:
    try:
        go_read, go_write = os.pipe()
        pid = os.fork()
    except OSError as exc:
        os.write(status, f"error cannot fork the guest: {exc}\n".encode())
        return
    if pid == 0:
        try:
            os.close(go_write)
            # Start only on the go byte, once the runner knows the pid: a
            # guest that killed this waiter first could not be killed on
            # timeout. At EOF the waiter died before naming the guest, and
            # the runner, seeing no pid, sends the request again.
            if os.read(go_read, 1):
                _guest(run_dir, out, err)
        finally:
            os._exit(1)
    os.close(go_read)
    os.close(out)
    os.close(err)
    os.write(status, b"pid %d\n" % pid)
    os.write(go_write, b"g")
    os.close(go_write)
    _, wait_status = os.waitpid(pid, 0)
    os.write(status, b"exit %d\n" % wait_status)


def _guest(run_dir: str, out: int, err: int) -> None:
    """Become the guest: run main.py in ``run_dir`` and exit as python3 would."""
    code = 0
    try:
        os.setsid()
        os.dup2(out, 1)
        os.dup2(err, 2)
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
