"""A fixed piece of work that measures how fast the CPU runs right now.

The machine the bounds were set on slows by up to a third, for seconds
to minutes at a time, whatever it runs (NOTES.md, "Steadiness"). A
workload whose instances are all computation inside the benchmark
process follows that drift one for one, so runs of the same code can
differ by more than the bounds allow. Such a workload has its times
scaled to a fixed reference speed: around each batch, a helper process
runs the reference work below on the same CPU, and the batch's times
are multiplied by ``REFERENCE_S`` over the mean of the two reference
times. A change to the program moves the batch's time but not the
reference, so it shows in full; a change in the machine's speed moves
both, and cancels.

The reference is the same kind of work as titan's per-instance
overhead: a two-thread pool started and joined, JSON, a regex search
and string handling. It runs in its own interpreter, so nothing the
program does to the benchmark process (its heap, its threads, patched
modules) changes it.

    python3 perfbench/reference.py   # the helper: one timing per line read
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# What the reference takes at the speed times are scaled to: about its
# median on the 2-core machine the bounds were set on, so that scaled
# figures stay close to measured ones there.
REFERENCE_S = 0.003
POOLS = 16  # two-thread pools per reference timing

_DOC = {
    "id": "reference",
    "question": "How many apples are left after 12 of 40 are eaten? " * 3,
    "steps": ["read the values", "compute", "return"],
    "values": [1, 2.5, None, True],
}
_FENCE = re.compile(r"```(?:python)?\n(.*?)```", re.S)


def _unit(i: int) -> str:
    doc = json.loads(json.dumps(_DOC, sort_keys=True))
    text = f"```python\ndef solution():\n    return {i}\n```\n" + doc["question"]
    return _FENCE.search(text).group(1) + " ".join(sorted(set(text.split())))


def reference_s() -> float:
    """Seconds the reference work takes, timed once."""
    start = time.perf_counter()
    for i in range(POOLS):
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.submit(_unit, i), pool.submit(_unit, i + 1)
            first.result()
            second.result()
    return time.perf_counter() - start


class Reference:
    """The helper process; ``time()`` asks it for one reference timing.

    The helper inherits the caller's CPU affinity, so a caller pinned to
    one CPU gets that CPU's speed. ``close()`` stops the helper and waits
    for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times = []  # every timing taken, in seconds

    def time(self) -> float:
        self._proc.stdin.write("time\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited {self._proc.poll()}")
        seconds = float(line)
        self.times.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor that takes times measured between two timings to reference speed."""
        return 2.0 * REFERENCE_S / (before + after)

    def close(self) -> None:
        try:
            self._proc.stdin.close()  # end of input: the helper returns
        except BrokenPipeError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> None:
    reference_s()  # warm up imports and the first pool
    for _ in sys.stdin:
        print(repr(reference_s()), flush=True)


if __name__ == "__main__":
    main()
