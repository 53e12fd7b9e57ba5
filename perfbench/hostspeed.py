"""Host speed, measured by a fixed kernel, to correct op times for a host
whose speed drifts.

On a shared host the CPU's speed drifts by 20-40% over seconds, and from
one run to the next, as the virtual CPU's share of a physical core and its
clock change; every op slows down with it.  So each timed op is followed,
outside its timed region, by one run of a fixed kernel: an SQLite query
through ``sqlite3`` and plain Python grouping, sorting and formatting of
its rows — the kinds of work the program does, but none of its code, so a
change to the program cannot change the kernel's time.  An op's corrected
time is its wall time scaled by ``REFERENCE_MS`` over the mean kernel time
of the ``2 * WINDOW + 1`` kernel runs around it: the time the op would take
on a host where the kernel takes ``REFERENCE_MS``.

The kernel runs with the cyclic garbage collector paused, so its time does
not depend on the size of the program's heap.
"""

from __future__ import annotations

import gc
import sqlite3
import time

#: The kernel's median time on the reference host (a 2-vCPU x86-64 virtual
#: machine, Python 3.11), so corrected times read close to its wall times.
REFERENCE_MS = 0.40
#: Kernel runs on each side of an op that make up its correction.
WINDOW = 25

_ROWS = 3000
_QUERY = "SELECT k, v FROM t WHERE k % 10 < 1 ORDER BY v, k"


class Kernel:
    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        self._conn.executemany("INSERT INTO t VALUES (?, ?)",
                               [(i, f"v{i * 7919 % 61:02d}") for i in range(_ROWS)])

    def _work(self) -> int:
        groups: dict[str, list[int]] = {}
        for k, v in self._conn.execute(_QUERY).fetchall():
            groups.setdefault(v, []).append(k)
        summary = sorted((v, sum(ks), len(ks)) for v, ks in groups.items())
        return len(",".join(f"{v}:{s}:{n}" for v, s, n in summary))

    def time_ms(self) -> float:
        """Wall time of one kernel run, in ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._work()
            return (time.perf_counter() - started) * 1000.0
        finally:
            if enabled:
                gc.enable()

    def mean_ms(self, runs: int) -> float:
        return sum(self.time_ms() for _ in range(runs)) / runs

    def close(self) -> None:
        self._conn.close()


def corrected(samples_ms: list[float], kernel_ms: list[float], window: int = WINDOW) -> list[float]:
    """Each sample scaled by ``REFERENCE_MS`` over the mean of the kernel
    times within ``window`` places of it (``kernel_ms[i]`` was measured
    right after ``samples_ms[i]``)."""
    if len(samples_ms) != len(kernel_ms):
        raise ValueError("one kernel time per sample")
    prefix = [0.0]
    for ms in kernel_ms:
        prefix.append(prefix[-1] + ms)
    out = []
    for i, ms in enumerate(samples_ms):
        low, high = max(0, i - window), min(len(kernel_ms), i + window + 1)
        out.append(ms * REFERENCE_MS * (high - low) / (prefix[high] - prefix[low]))
    return out
