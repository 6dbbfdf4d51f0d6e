"""Host for the shard threads of shard-parallel columnar runs.

``ExecutionSpec(engine="columnar", shards=N)`` splits a *shardable*
array program (see :func:`repro.engine.columnar.array_program`) across
``N`` contiguous node ranges.  Each shard holds a full
:class:`~repro.engine.columnar.ArrayContext` restricted to its owned
range and runs its own instance of the program; the coordinator loop
(validation, fault injection, delivery and bit accounting) lives in
``ColumnarEngine._execute_sharded``.  This module provides the pieces
underneath it:

* :func:`shard_ranges` — the balanced contiguous partition of ``0..n-1``;
* :class:`_ColumnarShardCore` — one shard's program instance, advanced
  step by step, enforcing that every emission comes from an owned node;
* :class:`ColumnarShardPool` / :func:`spawn_columnar_shards` — the
  per-run ``ThreadPoolExecutor`` the shards advance on.

Shards live in the coordinator's address space, so round traffic is
handed over as read-only numpy columns rather than shipped, and the
programs' lane arithmetic runs in numpy ufuncs that release the GIL —
the shard threads overlap on a multicore host.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..clique.errors import CliqueError

__all__ = [
    "ColumnarEmit",
    "ColumnarShardPool",
    "shard_ranges",
    "spawn_columnar_shards",
]


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Partition ``0..n-1`` into ``shards`` contiguous ``(lo, hi)`` ranges."""
    if shards < 1:
        raise CliqueError(f"need at least one shard, got {shards}")
    shards = min(shards, n)
    return [(i * n // shards, (i + 1) * n // shards) for i in range(shards)]


class ColumnarEmit(NamedTuple):
    """One columnar shard's per-step report.

    ``columns`` is the shard's owned emission outbox in
    :meth:`~repro.engine.columnar.ArrayContext._collect_outbox` order
    ``(bs, bv, bw, us, ud, uv, uw)``; ``bulk`` the owned bulk-channel
    tuples.  ``value`` and ``counters`` are populated once ``finished``
    is set (the program instance returned).
    """

    finished: bool
    columns: tuple
    bulk: list
    value: Any
    counters: "dict | None"


class _ColumnarShardCore:
    """One shard's program instance, advanced step by step.

    Holds the shard's :class:`~repro.engine.columnar.ArrayContext`
    (full-``n`` metadata, owned range ``[lo, hi)``) and its
    array-program generator, and enforces the owned-sender contract on
    every emission.
    """

    def __init__(
        self,
        array: Callable,
        index: int,
        lo: int,
        hi: int,
        n: int,
        bandwidth: int,
        inputs: Sequence[Any],
        auxes: Sequence[Any],
        check: str,
    ) -> None:
        from ..engine.columnar import ArrayContext

        self.index = index
        self.lo = lo
        self.hi = hi
        self._ctx = ArrayContext(
            n, bandwidth, inputs, auxes, check=check, lo=lo, hi=hi
        )
        self._gen = array(self._ctx)
        if not hasattr(self._gen, "send"):
            raise CliqueError(
                "array program must be a generator function "
                "(use 'yield' for round boundaries)"
            )
        self._finished = False
        self._value: Any = None

    def _advance(self) -> None:
        try:
            next(self._gen)
        except StopIteration as stop:
            self._finished = True
            self._value = stop.value

    def _emit(self) -> ColumnarEmit:
        ctx = self._ctx
        columns = ctx._collect_outbox()
        bulk = list(ctx._bulk)
        ctx._clear_outbox()
        self._check_owned(columns, bulk)
        if self._finished:
            counters = {
                key: np.asarray(col) for key, col in ctx._counters.items()
            }
            return ColumnarEmit(True, columns, bulk, self._value, counters)
        return ColumnarEmit(False, columns, bulk, None, None)

    def _check_owned(self, columns: tuple, bulk: list) -> None:
        """The shardable contract: every emission src is an owned node."""
        lo, hi = self.lo, self.hi
        bs, us = columns[0], columns[3]
        for kind, srcs in (("broadcast", bs), ("unicast", us)):
            if srcs.size and bool(((srcs < lo) | (srcs >= hi)).any()):
                bad = int(srcs[(srcs < lo) | (srcs >= hi)][0])
                raise CliqueError(
                    f"columnar shard {self.index} (nodes {lo}..{hi - 1}) "
                    f"queued a {kind} for non-owned sender {bad}; shardable "
                    f"array programs must emit only for their owned range"
                )
        for src, _dst, _value, _width in bulk:
            if not lo <= src < hi:
                raise CliqueError(
                    f"columnar shard {self.index} (nodes {lo}..{hi - 1}) "
                    f"queued a bulk send for non-owned sender {src}; "
                    f"shardable array programs must emit only for their "
                    f"owned range"
                )

    def first(self) -> ColumnarEmit:
        """Initial advance (the local-computation phase before round 1)."""
        self._advance()
        return self._emit()

    def step(
        self, round_no: int, bcast: tuple, coo: tuple, bulk: list
    ) -> ColumnarEmit:
        """Deliver one round's owned inbox slice and advance."""
        ctx = self._ctx
        ctx._in_bcast = bcast
        ctx._in_coo = coo
        ctx._in_bulk = list(bulk)
        ctx.round = round_no
        if not self._finished:
            self._advance()
        return self._emit()


class ColumnarShardPool:
    """The coordinator's handle on one run's columnar shards.

    Every shard advances on a ``ThreadPoolExecutor`` that belongs to
    this run alone.  :meth:`step` submits every live shard's round
    before reading any result, so the rounds overlap; :meth:`close`
    joins the threads, so none outlives the run (the sweep pool and the
    daemon fork later, and forking a process with live threads is
    unsafe).
    """

    def __init__(
        self,
        executor: ThreadPoolExecutor,
        ranges: "list[tuple[int, int]]",
        started: list,
    ) -> None:
        self.ranges = ranges
        self._executor = executor
        self._started = started
        self._cores: "list[_ColumnarShardCore]" = []

    def first(self) -> "list[ColumnarEmit]":
        """Every shard's initial advance, in shard order."""
        replies = []
        for future in self._started:
            core, reply = future.result()
            self._cores.append(core)
            replies.append(reply)
        return replies

    def step(
        self,
        round_no: int,
        bcast: tuple,
        live: "list[int]",
        slices: "list[tuple]",
    ) -> "list[ColumnarEmit]":
        """Fan one round out to the live shards; replies in ``live`` order.

        ``slices[i]`` is ``(coo, bulk)`` — the owned destination slice
        of shard ``live[i]``.  All rounds are submitted before any
        result is awaited, so the shard threads compute concurrently.
        """
        submit = self._executor.submit
        futures = [
            submit(self._cores[index].step, round_no, bcast, coo, bulk)
            for index, (coo, bulk) in zip(live, slices)
        ]
        return [future.result() for future in futures]

    def close(self, kill: bool = False) -> None:
        """Join every shard thread; ``kill`` also cancels queued rounds.

        A shard thread cannot be interrupted: a shard stuck inside its
        program still blocks this join.
        """
        self._executor.shutdown(wait=True, cancel_futures=kill)


def spawn_columnar_shards(
    array: Callable,
    n: int,
    bandwidth: int,
    inputs: Sequence[Any],
    auxes: Sequence[Any],
    *,
    check: str,
    count: int,
) -> ColumnarShardPool:
    """Start the shards of one shard-parallel columnar run.

    Opens a ``count``-thread executor and submits, per shard, building
    its program instance and the initial advance;
    :meth:`ColumnarShardPool.first` collects the results.
    """
    ranges = shard_ranges(n, count)
    executor = ThreadPoolExecutor(
        max_workers=len(ranges), thread_name_prefix="columnar-shard"
    )

    def start(index: int, lo: int, hi: int):
        core = _ColumnarShardCore(
            array, index, lo, hi, n, bandwidth, inputs, auxes, check
        )
        return core, core.first()

    try:
        started = [
            executor.submit(start, index, lo, hi)
            for index, (lo, hi) in enumerate(ranges)
        ]
    except BaseException:
        # e.g. the host refused another thread: join the ones started.
        executor.shutdown(wait=True, cancel_futures=True)
        raise
    return ColumnarShardPool(executor, ranges, started)
