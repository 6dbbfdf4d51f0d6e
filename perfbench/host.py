"""Host-side measurement and containment helpers for the benchmark.

* :func:`calibrate` times a fixed CPU loop, so a disagreement between
  two sets of runs can be traced to host drift rather than the program.
* :func:`cpu_seconds` sums user+system CPU of this process, its reaped
  children and the live children it names.
* :func:`shm_segments` lists the ``psm_*`` shared-memory segments, so
  a run can prove it left none behind.
* :class:`Watchdog` fails a run whose op stops making progress: it
  interrupts the main thread, which :mod:`run` turns into
  :class:`OpTimeout`, and kills the children if that is not enough.
"""

from __future__ import annotations

import _thread
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")


class OpTimeout(RuntimeError):
    """An op made no progress within the watchdog deadline."""


def calibrate(repeats: int = 3) -> float:
    """Median seconds of a fixed integer loop (host speed probe)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _proc_cpu(pid: int) -> float:
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name: utime and stime are the 12th and
    # 13th (fields 14 and 15 of proc(5)).
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds(live_pids: Iterable[int] = ()) -> float:
    """CPU seconds of this process, its reaped children and ``live_pids``."""
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    return total + sum(_proc_cpu(pid) for pid in live_pids)


def children_cpu_seconds() -> float:
    """CPU seconds of reaped children only."""
    t = os.times()
    return t.children_user + t.children_system


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def shm_segments() -> set[str]:
    """Names of the multiprocessing shared-memory segments that exist."""
    try:
        return {p.name for p in _SHM_DIR.glob("psm_*")}
    except OSError:
        return set()


def child_pids() -> list[int]:
    """Pids of this process's live children (read from /proc)."""
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def kill_children(extra: Iterable = ()) -> None:
    """Kill and reap every child: multiprocessing's, the ``Popen`` objects
    in ``extra`` and any other process whose parent is this one."""
    for proc in multiprocessing.active_children():
        proc.kill()
    for popen in extra:
        if popen.poll() is None:
            popen.kill()
    for proc in multiprocessing.active_children():
        proc.join(timeout=5.0)
    for popen in extra:
        try:
            popen.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class Watchdog:
    """Fails the run when no op completes for ``deadline`` seconds.

    The loop calls :meth:`tick` after every op.  On expiry the watchdog
    records what was running and sends SIGINT to the main thread, which
    unwinds (the program's own ``finally`` blocks close shards and
    pools) and which :mod:`run` turns into :class:`OpTimeout`.  If the
    main thread does not unwind within ``grace`` seconds, ``on_fire``
    kills the children it may be blocked on; if it still does not, the
    process exits with status 3.
    """

    def __init__(
        self, deadline: float, on_fire: Callable[[], None], grace: float = 10.0
    ) -> None:
        self.deadline = deadline
        self.grace = grace
        self.fired: "str | None" = None
        self._on_fire = on_fire
        self._what = "set-up"
        self._last = time.monotonic()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-watchdog", daemon=True
        )

    def __enter__(self) -> "Watchdog":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def tick(self, what: str = "") -> None:
        """Record progress; ``what`` names the phase now running."""
        self._last = time.monotonic()
        if what:
            self._what = what

    def _run(self) -> None:
        main = threading.main_thread().ident
        while not self._stop.wait(0.1):
            idle = time.monotonic() - self._last
            if idle <= self.deadline:
                continue
            self.fired = (
                f"no progress for {idle:.1f}s (deadline {self.deadline:g}s) "
                f"during {self._what}"
            )
            signal.pthread_kill(main, signal.SIGINT)
            if self._stop.wait(self.grace):
                return
            self._on_fire()
            _thread.interrupt_main()
            if self._stop.wait(self.grace):
                return
            sys.stderr.write(f"perfbench: OpTimeout: {self.fired}; stuck\n")
            os._exit(3)
