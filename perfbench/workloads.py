"""The three closed-loop workloads.

Each run replays one op sequence built from ``--seed`` to completion;
its length comes from ``--seconds`` times a fixed nominal rate, never
from the clock, so every run of a seed does the same simulated work and
the same cache traffic however fast the host is.  Every sequence is
stratified (fixed op kinds and sizes per batch or cycle; the seed picks
graph seeds and revisits), so different seeds load the program alike.

``sweep``
    The E9–E12 experiment loop: ``run_sweep`` over 12-point batches on
    the warm two-worker pool with a fresh unbounded ``RunCache``.  Half
    the points of a batch revisit earlier configs (cache hits).  One
    batch in four runs under ``drop=0.05,seed=7``; those batches use the
    drop-tolerant catalog entries (``fanout``, ``bracha``, ``dolev``)
    because the six graph algorithms abort with a ProtocolViolation
    when a message is dropped.  Fault batches are lighter than the
    others, so both reported batch percentiles fall inside the
    fault-free class.
``columnar``
    Large-n array programs through ``run_spec``, one at a time, in a
    fixed 20-op cycle: 6 ``fanout`` n=1024 and 7 ``fanout_work`` n=1024
    (state=256, passes=16) on two process shards, 6 ``matmul`` n=27 and
    1 ``sorting`` n=64 on single-instance columnar.  The fast class
    (matmul, fanout) is 60% of the ops, so the median sits inside it;
    ``fanout_work`` covers the 60th to 95th percentiles, so the 90th
    sits inside it rather than on the slower, noisier sorting op.
    state=256 keeps each shard's lane matrix at 1 MiB, inside L2, so a
    shard gain can only come from parallelism.
``serve``
    ``python -m repro serve --workers 2`` with an LRU bound below the
    distinct-config count, driven by one client connection in a closed
    loop.  70% of requests revisit one of the client's 8 most recent
    configs (hits); 30% take the next config of the client's 64-config
    cycle, which the LRU has long evicted (misses).  The median
    therefore sits inside the hit class and the 90th percentile inside
    the miss class.  Each class is kept homogeneous: the three kinds
    are sized so a miss costs about the same on each, and ``matmul``
    is left out because its large replies make its hits several times
    slower than the others' (it would split the hit class).  A single
    connection keeps requests from queueing behind each other on the
    daemon's GIL, whose 5 ms switch interval made hit latency bimodal.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from check import Op

#: The engine every sweep and serve op runs on.
FAST = {"engine": "fast", "check": "bandwidth"}
FAULT_PLAN = "drop=0.05,seed=7"
WORKERS = 2


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _cost(result: Any) -> "tuple[int, int, int]":
    return (result.rounds, result.total_message_bits, result.bulk_bits)


class Loop:
    """What one timed loop produced."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        #: Latency of each call the user waits on, in seconds.
        self.latencies: list[float] = []
        #: Per-latency class label (``"hit"``/``"miss"`` on serve).
        self.classes: list[str] = []
        self.wall_s = 0.0
        #: Ops meant to take the shard path, and those the trace saw do so.
        self.shard_intended = 0
        self.shard_taken = 0
        #: span name -> (calls, seconds) inside the shard-parallel ops.
        self.sharded_spans: dict[str, tuple[int, float]] = {}


class Workload:
    """Base: an op plan, one set-up of the components, one timed loop."""

    name = ""
    #: Plan units per second of ``--seconds`` (host independent).
    rate = 1.0

    def __init__(self, seed: int, seconds: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        #: Where hooked subprocesses write their spans (traced pass only).
        self.trace_dir: "Path | None" = None
        self.size = max(1, round(seconds * self.rate))
        self.plan = self.build_plan()

    def build_plan(self) -> list:
        raise NotImplementedError

    def start(self, watchdog) -> None:
        """Start the components and run one smallest op per op kind."""

    def stop(self) -> None:
        """Stop every component :meth:`start` started."""

    def live_pids(self) -> list[int]:
        """Children alive across the whole loop (CPU is read from /proc)."""
        return []

    def popens(self) -> list:
        """Subprocesses the watchdog must kill besides multiprocessing's."""
        return []

    def loop(self, watchdog, tracer) -> Loop:
        raise NotImplementedError

    def layer_stats(self) -> dict:
        """Workload-side numbers for the per-layer metrics."""
        return {}

    def cleanup(self) -> None:
        """Last-resort teardown after a failure."""
        self.stop()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _entry_kb(root: Path) -> float:
    sizes = [p.stat().st_size for p in root.glob("*/*.pkl")]
    return sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0


# -- sweep -------------------------------------------------------------------

#: (algorithm, extra config, n).  Sizes are fixed per kind, so every
#: fault-free batch costs about the same and the batch percentiles do
#: not depend on which sizes a batch happened to draw.
SWEEP_KINDS = (
    ("kds", {"k": 2}, 40),
    ("sorting", {}, 16),
    ("matmul", {}, 32),
    ("apsp", {}, 12),
    ("subgraph", {}, 27),
    ("kis", {"k": 3}, 20),
)
FAULT_KINDS = (
    ("fanout", {"rounds": 3}, 32),
    ("bracha", {}, 16),
    ("dolev", {}, 12),
)
BATCH_NEW = 6
BATCH_REVISITS = 6


class SweepWorkload(Workload):
    name = "sweep"
    rate = 12.0  # batches per second of --seconds

    def build_plan(self) -> list:
        rng = _rng(self.seed, 1)
        history: dict[bool, list[dict]] = {False: [], True: []}
        plan = []
        for index in range(self.size):
            faulty = index % 4 == 3
            kinds = FAULT_KINDS if faulty else SWEEP_KINDS
            new = []
            for slot in range(BATCH_NEW):
                algo, extra, n = kinds[slot % len(kinds)]
                new.append(
                    dict(
                        extra,
                        algorithm=algo,
                        n=n,
                        seed=int(rng.integers(1 << 30)),
                    )
                )
            past = history[faulty]
            picks = min(BATCH_REVISITS, len(past))
            revisits = [
                past[i] for i in rng.choice(len(past), picks, replace=False)
            ] if picks else []
            batch = new + revisits
            order = rng.permutation(len(batch))
            plan.append((faulty, [batch[i] for i in order]))
            past.extend(new)
        return plan

    def start(self, watchdog) -> None:
        from repro.engine import ExecutionSpec, RunCache
        from repro.engine.pool import run_sweep

        warm_dir = _fresh_dir(self.run_dir / "sweep-warm")
        cache = RunCache(warm_dir)
        factory = _catalog_factory()
        for kinds, plan in ((SWEEP_KINDS, None), (FAULT_KINDS, FAULT_PLAN)):
            configs = [
                dict(extra, algorithm=algo, n=8, seed=0)
                for algo, extra, _ in kinds
            ]
            outcomes = run_sweep(
                factory,
                configs,
                workers=WORKERS,
                execution=ExecutionSpec(fault_plan=plan, **FAST),
                cache=cache,
            )
            bad = [o.error for o in outcomes if o.failed]
            if bad:
                raise RuntimeError(f"sweep warm-up failed: {bad[0]}")
            watchdog.tick()
        shutil.rmtree(warm_dir, ignore_errors=True)
        self.cache_dir = _fresh_dir(self.run_dir / "sweep-cache")

    def stop(self) -> None:
        from repro.engine.pool import shutdown_pool

        shutdown_pool()

    def live_pids(self) -> list[int]:
        from host import child_pids

        return child_pids()

    def loop(self, watchdog, tracer) -> Loop:
        from repro.engine import ExecutionSpec, RunCache
        from repro.engine.pool import run_sweep

        out = Loop()
        self.cache = cache = RunCache(self.cache_dir)
        factory = _catalog_factory()
        specs = {
            False: ExecutionSpec(**FAST),
            True: ExecutionSpec(fault_plan=FAULT_PLAN, **FAST),
        }
        stored: dict[tuple, Op] = {}
        clock = time.perf_counter
        begin = clock()
        for faulty, configs in self.plan:
            start = clock()
            try:
                outcomes = run_sweep(
                    factory,
                    configs,
                    workers=WORKERS,
                    execution=specs[faulty],
                    cache=cache,
                )
                error = None
            except Exception as exc:
                outcomes, error = [], f"{type(exc).__name__}: {exc}"
            out.latencies.append(clock() - start)
            out.classes.append("fault" if faulty else "clean")
            watchdog.tick()
            plan = FAULT_PLAN if faulty else None
            for index, config in enumerate(configs):
                op = Op(config=config, fault_plan=plan, error=error)
                outcome = outcomes[index] if outcomes else None
                if outcome is not None:
                    if outcome.failed:
                        op.error = str(outcome.error)
                    else:
                        op.cost = _cost(outcome.result)
                        op.outputs = outcome.result.outputs
                        key = (faulty, tuple(sorted(config.items())))
                        if outcome.from_cache:
                            op.source = stored.get(key)
                            if op.source is None:
                                op.error = "cache hit with no stored run"
                        else:
                            stored[key] = op
                out.ops.append(op)
        out.wall_s = clock() - begin
        return out

    def layer_stats(self) -> dict:
        return {
            "evictions": self.cache.evictions,
            "entry_kb": _entry_kb(self.cache_dir),
        }


# -- columnar ----------------------------------------------------------------

#: (algorithm, config, shards, count per 20-op cycle).
COLUMNAR_CYCLE = (
    ("matmul", {"n": 27}, None, 6),
    ("fanout", {"n": 1024}, 2, 6),
    ("fanout_work", {"n": 1024, "state": 256, "passes": 16}, 2, 7),
    ("sorting", {"n": 64}, None, 1),
)
COLUMNAR_WARM = (
    ("fanout_work", {"n": 64, "state": 256, "passes": 16}, 2),
    ("fanout", {"n": 64}, 2),
    ("matmul", {"n": 8}, None),
    ("sorting", {"n": 8}, None),
)


class ColumnarWorkload(Workload):
    name = "columnar"
    rate = 1.2  # 20-op cycles per second of --seconds

    def build_plan(self) -> list:
        rng = _rng(self.seed, 2)
        cycle = [
            (algo, params, shards)
            for algo, params, shards, count in COLUMNAR_CYCLE
            for _ in range(count)
        ]
        plan = []
        for _ in range(self.size):
            for i in rng.permutation(len(cycle)):
                algo, params, shards = cycle[i]
                config = dict(
                    params, algorithm=algo, seed=int(rng.integers(1 << 30))
                )
                plan.append((config, shards))
        return plan

    @staticmethod
    def _run(config: dict, shards: "int | None"):
        from repro.engine import ExecutionSpec
        from repro.engine import pool

        spec = _catalog_factory()(dict(config))
        return pool.run_spec(
            spec,
            execution=ExecutionSpec(
                engine="columnar", check="bandwidth", shards=shards
            ),
        )[0]

    def start(self, watchdog) -> None:
        for algo, params, shards in COLUMNAR_WARM:
            self._run(dict(params, algorithm=algo, seed=0), shards)
            watchdog.tick()

    def loop(self, watchdog, tracer) -> Loop:
        out = Loop()
        clock = time.perf_counter
        begin = clock()
        for config, shards in self.plan:
            traced = tracer is not None and shards
            before = tracer.snapshot() if traced else None
            op = Op(config=config)
            start = clock()
            try:
                op.cost = _cost(self._run(config, shards))
            except Exception as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            out.latencies.append(clock() - start)
            out.classes.append(config["algorithm"])
            watchdog.tick()
            if traced:
                after = tracer.snapshot()
                out.shard_intended += 1
                for name, rec in after.items():
                    old = before.get(name, (0, 0.0))
                    calls, seconds = out.sharded_spans.get(name, (0, 0.0))
                    out.sharded_spans[name] = (
                        calls + rec[0] - old[0],
                        seconds + rec[1] - old[1],
                    )
            out.ops.append(op)
        out.shard_taken = out.sharded_spans.get("shards.spawn", (0, 0.0))[0]
        out.wall_s = clock() - begin
        return out


# -- serve -------------------------------------------------------------------

#: (algorithm, extra config, n): a miss takes about 10 ms on each.
SERVE_KINDS = (
    ("kds", {"k": 2}, 25),
    ("subgraph", {}, 16),
    ("kis", {"k": 3}, 16),
)
CYCLE = 64  # distinct configs
WINDOW = 8  # recent configs a revisit picks from
CACHE_MAX_ENTRIES = 40  # < CYCLE, > WINDOW
OP_TIMEOUT_S = 30.0


class ServeWorkload(Workload):
    name = "serve"
    rate = 22.0  # 10-request blocks per second of --seconds

    def build_plan(self) -> list:
        rng = _rng(self.seed, 10)
        cycle = []
        for i in range(CYCLE):
            algo, extra, n = SERVE_KINDS[i % len(SERVE_KINDS)]
            cycle.append(
                dict(extra, algorithm=algo, n=n, seed=int(rng.integers(1 << 30)))
            )
        # Each entry: ("miss", config) or ("hit", back) where back
        # indexes the recent misses (1 = the latest).
        plan: list[tuple[str, Any]] = [("miss", cycle[i]) for i in range(WINDOW)]
        misses = WINDOW
        while len(plan) < self.size * 10:
            block = ["miss"] * 3 + ["hit"] * 7
            for kind in (block[i] for i in rng.permutation(10)):
                if kind == "miss":
                    plan.append(("miss", cycle[misses % CYCLE]))
                    misses += 1
                else:
                    plan.append(("hit", int(rng.integers(1, WINDOW + 1))))
        return plan[: self.size * 10]

    def start(self, watchdog) -> None:
        from repro.service import ServiceClient

        self.daemon = None
        serve_dir = _fresh_dir(self.run_dir / "serve")
        # Relative: a long checkout path would overflow the 108-byte
        # AF_UNIX limit; the daemon runs in the same directory.
        self.socket = str(serve_dir / "d.sock")
        self.cache_dir = serve_dir / "cache"
        args = [
            "serve",
            "--socket",
            self.socket,
            "--workers",
            str(WORKERS),
            "--cache",
            str(self.cache_dir),
            "--cache-max-entries",
            str(CACHE_MAX_ENTRIES),
        ]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            launcher = Path(__file__).with_name("daemon.py")
            cmd = [sys.executable, str(launcher), str(self.trace_dir), *args]
        self.log = open(serve_dir / "daemon.log", "wb")
        self.daemon = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT
        )
        client = ServiceClient(self.socket, timeout=OP_TIMEOUT_S)
        client.wait_until_ready(timeout=OP_TIMEOUT_S)
        watchdog.tick()
        for algo, extra, _ in SERVE_KINDS:
            client.run(
                algo,
                dict(extra, n=8, seed=0),
                execution=FAST,
                cache=False,
            )
            watchdog.tick()
        client.status()

    def stop(self) -> None:
        from repro.service import ServiceClient, ServiceError

        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return
        if daemon.poll() is None:
            try:
                ServiceClient(self.socket, timeout=10.0).shutdown()
            except (ServiceError, OSError):
                pass
            try:
                daemon.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=10.0)
        self.log.close()
        self.daemon = None

    def cleanup(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10.0)
        self.stop()

    def popens(self) -> list:
        daemon = getattr(self, "daemon", None)
        return [daemon] if daemon is not None else []

    def live_pids(self) -> list[int]:
        return [p.pid for p in self.popens()]

    def loop(self, watchdog, tracer) -> Loop:
        from repro.service import ServiceClient

        out = Loop()
        client = ServiceClient(self.socket, timeout=OP_TIMEOUT_S)
        misses: list[Op] = []
        clock = time.perf_counter
        begin = clock()
        for kind, what in self.plan:
            source = misses[-what] if kind == "hit" else None
            config = source.config if source is not None else what
            op = Op(config=config, source=source)
            body = {k: v for k, v in config.items() if k != "algorithm"}
            start = clock()
            try:
                reply = client.run(config["algorithm"], body, execution=FAST)
            except Exception as exc:
                reply = None
                op.error = f"{type(exc).__name__}: {exc}"
            out.latencies.append(clock() - start)
            watchdog.tick()
            if reply is not None:
                op.outputs = reply
                op.cost = (
                    reply["rounds"],
                    reply["total_message_bits"],
                    reply["bulk_bits"],
                )
                out.classes.append("hit" if reply["cached"] else "miss")
            else:
                out.classes.append("error")
            if kind == "miss":
                misses.append(op)
            out.ops.append(op)
        out.wall_s = clock() - begin
        for op in out.ops:
            # The "cached" flag is the only field a hit may differ in.
            if isinstance(op.outputs, dict):
                op.outputs = {
                    k: v for k, v in op.outputs.items() if k != "cached"
                }
        self.status = client.status()
        return out

    def layer_stats(self) -> dict:
        status = getattr(self, "status", {}) or {}
        cache = status.get("cache", {})
        counters = status.get("counters", {})
        return {
            "evictions": cache.get("evictions", 0),
            "entry_kb": _entry_kb(self.cache_dir),
            "daemon_errors": counters.get("errors", 0),
            "peak_queue_depth": counters.get("peak_queue_depth", 0),
            "daemon_requests": counters.get("completed", 0),
        }


def _catalog_factory():
    """``catalog_factory`` looked up at call time (the trace may wrap it)."""
    from repro.engine import diff

    return diff.catalog_factory


WORKLOADS = {
    w.name: w for w in (SweepWorkload, ColumnarWorkload, ServeWorkload)
}
