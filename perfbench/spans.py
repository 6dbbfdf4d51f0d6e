"""Outside-in layer spans for the benchmark.

The benchmark never edits the program.  It replaces a fixed list of
public functions and methods (the :data:`HOOKS` table) with timing
wrappers, looked up by module and qualified name at install time.  A
hook whose target has moved or disappeared is reported as "not
measured" with the reason; nothing else depends on it, and the
end-to-end metrics are always taken from an untraced pass.

Spans are aggregated in memory per hook name: call count, total time,
self time (total minus the time of nested hooked calls on the same
thread) and an optional per-call measurement (bits simulated, bytes
encoded, cache hits, faults applied).  Wrappers are installed before
the sweep pool, the shard workers or the daemon start, so forked
children run them too: each child starts from empty aggregates and
writes them to ``spans-<pid>.json`` in the trace directory when it
exits.  :func:`load_spans` merges every process's file with the
main process's own aggregates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable


def _total_bits(result: Any, args: tuple) -> int:
    return int(result.total_message_bits) + int(result.bulk_bits)


def _encoded_bytes(result: Any, args: tuple) -> int:
    body, buffers = result
    return len(body) + sum(len(buf) for buf in buffers)


def _is_hit(result: Any, args: tuple) -> int:
    return int(result is not None)


def _fault_applied(result: Any, args: tuple) -> int:
    # deliver(round, src, dst, payload) returns the payload untouched
    # unless a fault dropped or replaced it.
    return int(result is None or result is not args[-1])


#: (span name, module, qualified name, per-call measurement or None).
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("catalog.build", "repro.engine.diff", "catalog_factory", None),
    ("engine.run_spec", "repro.engine.pool", "run_spec", None),
    ("pool.run_sweep", "repro.engine.pool", "run_sweep", None),
    ("fast.execute", "repro.engine.fast", "FastEngine.execute", _total_bits),
    (
        "columnar.execute",
        "repro.engine.columnar",
        "ColumnarEngine.execute",
        _total_bits,
    ),
    ("shards.spawn", "repro.service.kernel", "spawn_columnar_shards", None),
    ("shards.first", "repro.service.kernel", "ColumnarShardPool.first", None),
    ("shards.step", "repro.service.kernel", "ColumnarShardPool.step", None),
    ("shards.close", "repro.service.kernel", "ColumnarShardPool.close", None),
    (
        "shards.encode",
        "repro.service.kernel",
        "ShardTransport.encode",
        _encoded_bytes,
    ),
    ("shards.decode", "repro.service.kernel", "ShardTransport.decode", None),
    ("cache.key_for", "repro.engine.cache", "RunCache.key_for", None),
    ("cache.get", "repro.engine.cache", "RunCache.get", _is_hit),
    ("cache.put", "repro.engine.cache", "RunCache.put", None),
    ("obs.on_round", "repro.obs.metrics", "MetricsCollector.on_round", None),
    (
        "obs.run_metrics",
        "repro.obs.metrics",
        "MetricsCollector.run_metrics",
        None,
    ),
    (
        "faults.deliver",
        "repro.faults.inject",
        "FaultInjector.deliver",
        _fault_applied,
    ),
    (
        "faults.finish_round",
        "repro.faults.inject",
        "FaultInjector.finish_round",
        None,
    ),
    ("service.request", "repro.service.client", "ServiceClient.request", None),
)


class _ThreadState:
    __slots__ = ("stack", "stats")

    def __init__(self) -> None:
        #: Child time accumulated by each open span on this thread.
        self.stack: list[float] = []
        #: name -> [calls, total_s, self_s, units]
        self.stats: dict[str, list] = {}


class Tracer:
    """Installs the :data:`HOOKS` wrappers and aggregates their spans.

    ``role`` names the process in the merged output (``"main"`` or
    ``"daemon"``); forked children record themselves as ``"child"``.
    """

    def __init__(self, trace_dir: "str | os.PathLike", role: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.role = role
        #: span name -> reason, for hooks that could not be installed.
        self.missing: dict[str, str] = {}
        self.installed: list[str] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._reset()

    def _reset(self) -> None:
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        for name, module_name, qualname, measure in HOOKS:
            try:
                owner, attr, raw = _resolve(module_name, qualname)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = (
                    f"{module_name}.{qualname} not found "
                    f"({type(exc).__name__}: {exc})"
                )
                continue
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(name, raw.__func__, measure))
            else:
                patched = self._wrap(name, raw, measure)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, patched)
            self.installed.append(name)
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals = []

    def _wrap(self, name: str, fn: Callable, measure: "Callable | None"):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if measure is not None:
                rec[3] += measure(result, args)
            return result

        return wrapper

    # -- forked children -------------------------------------------------

    def _after_fork(self) -> None:
        # Runs in every multiprocessing child after fork: start from
        # empty aggregates and write them out when the child exits.
        self.role = "child"
        self._reset()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict[str, list]:
        """This process's aggregates, merged across its threads."""
        merged: dict[str, list] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, rec in list(state.stats.items()):
                _add(merged, name, rec)
        return merged

    def flush(self) -> None:
        """Write this process's aggregates to the trace directory."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps({"role": self.role, "stats": self.snapshot()})
        )
        os.replace(tmp, path)


def _resolve(module_name: str, qualname: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) of a hook target."""
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, attr)
    else:
        raw = getattr(owner, attr)
    if not callable(raw) and not isinstance(raw, staticmethod):
        raise AttributeError(f"{qualname} is not callable")
    return owner, attr, raw


def _add(into: dict[str, list], name: str, rec: list) -> None:
    cur = into.get(name)
    if cur is None:
        into[name] = list(rec)
    else:
        for i in range(4):
            cur[i] += rec[i]


def load_spans(trace_dir: "str | os.PathLike") -> dict[str, dict[str, list]]:
    """Every flushed process's aggregates, merged per role."""
    by_role: dict[str, dict[str, list]] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        role = by_role.setdefault(data["role"], {})
        for name, rec in data["stats"].items():
            _add(role, name, rec)
    return by_role


def merge_roles(by_role: dict[str, dict[str, list]]) -> dict[str, list]:
    """One aggregate per span name across every role."""
    merged: dict[str, list] = {}
    for stats in by_role.values():
        for name, rec in stats.items():
            _add(merged, name, rec)
    return merged
