"""Per-layer metrics, computed from the traced pass.

Each metric names the end-to-end metric it should move, and where:

=======================  ==================================================
layer metrics            moves
=======================  ==================================================
catalog.build_s          sweep throughput_ops_s, serve misses
fast.*                   sweep throughput_ops_s, serve misses
columnar.*               columnar latency_p50_s (coord_s: the coordinator's
                         share of a shard-parallel run, outside shard spans)
shards.*                 columnar latency_p50_s and cpu_s_per_op
pool.*                   sweep throughput_ops_s and latency_p90_s
cache.*                  serve hits (get) and misses (put), sweep throughput
obs.metrics_s            columnar latency_p50_s (n=1024 per-node lists)
faults.*                 sweep throughput_ops_s
service.*                serve latency (hit_p50_s is the hit-class median)
sim.*, host.*, trace.*   nothing; they diagnose
=======================  ==================================================

A metric whose hooks could not be installed is reported as 0 and listed
with the reason in the run's ``not_measured`` line; so is a ratio with
nothing to divide in this workload.  Every time is seconds per call (or
per run, batch or request, as named) unless the unit says otherwise.
"""

from __future__ import annotations

import statistics

#: (name, unit, better) — the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = (
    ("catalog.build_s", "s", "lower"),
    ("fast.run_s", "s", "lower"),
    ("fast.ns_per_bit", "ns", "lower"),
    ("columnar.run_s", "s", "lower"),
    ("columnar.coord_s", "s", "lower"),
    ("columnar.ns_per_bit", "ns", "lower"),
    ("shards.spawn_s", "s", "lower"),
    ("shards.wait_s", "s", "lower"),
    ("shards.child_cpu_s", "s", "lower"),
    ("shards.transport_kb", "KiB", "lower"),
    ("shards.sharded_ratio", "ratio", "higher"),
    ("shards.leaked_segments", "count", "lower"),
    ("pool.batch_s", "s", "lower"),
    ("pool.busy_ratio", "ratio", "higher"),
    ("pool.overhead_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.entry_kb", "KiB", "lower"),
    ("obs.metrics_s", "s", "lower"),
    ("faults.inject_s", "s", "lower"),
    ("faults.applied", "count", "lower"),
    ("service.request_s", "s", "lower"),
    ("service.handle_s", "s", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.hit_p50_s", "s", "lower"),
    ("service.miss_p50_s", "s", "lower"),
    ("service.errors", "count", "lower"),
    ("service.peak_queue_depth", "count", "lower"),
    ("sim.rounds", "count", "lower"),
    ("sim.bits", "count", "lower"),
    ("host.calib_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

#: Hooks each metric needs (see ``spans.HOOKS``).
NEEDS = {
    "catalog.build_s": ("catalog.build",),
    "fast.run_s": ("fast.execute",),
    "fast.ns_per_bit": ("fast.execute",),
    "columnar.run_s": ("columnar.execute",),
    "columnar.coord_s": (
        "columnar.execute",
        "shards.spawn",
        "shards.first",
        "shards.step",
        "shards.close",
    ),
    "columnar.ns_per_bit": ("columnar.execute",),
    "shards.spawn_s": ("shards.spawn",),
    "shards.wait_s": ("shards.spawn", "shards.first", "shards.step"),
    "shards.child_cpu_s": ("shards.spawn",),
    "shards.transport_kb": ("shards.spawn", "shards.encode"),
    "shards.sharded_ratio": ("shards.spawn",),
    "pool.busy_ratio": ("engine.run_spec",),
    "pool.overhead_s": ("engine.run_spec",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "cache.hit_ratio": ("cache.get",),
    "obs.metrics_s": (
        "obs.on_round",
        "obs.run_metrics",
        "fast.execute",
        "columnar.execute",
    ),
    "faults.inject_s": ("faults.deliver", "faults.finish_round"),
    "faults.applied": ("faults.deliver",),
    "service.request_s": ("service.request",),
    "service.handle_s": (
        "cache.key_for",
        "cache.get",
        "cache.put",
        "catalog.build",
        "engine.run_spec",
    ),
    "service.overhead_s": (
        "service.request",
        "cache.key_for",
        "cache.get",
        "cache.put",
        "catalog.build",
        "engine.run_spec",
    ),
}

_EMPTY = (0, 0.0, 0.0, 0)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def p50(values: list) -> float:
    return statistics.median(values) if values else 0.0


def compute(
    *,
    workload: str,
    workers: int,
    loop,
    untraced,
    spans: dict,
    daemon: dict,
    missing: dict,
    stats: dict,
    host: dict,
) -> "tuple[dict, dict]":
    """``(values, not_measured)`` for every :data:`PER_LAYER` metric.

    ``loop``/``untraced`` are the traced and untraced passes' loops,
    ``spans`` the span aggregates merged over every process, ``daemon``
    the daemon's own, ``stats`` the workload's counters and ``host``
    the main process's own measurements.
    """

    def s(name: str, table: dict = spans) -> tuple:
        return table.get(name, _EMPTY)

    def calls(name: str) -> int:
        return s(name)[0]

    def total(name: str, table: dict = spans) -> float:
        return s(name, table)[1]

    def units(name: str) -> int:
        return s(name)[3]

    def per_call(name: str) -> float:
        return _div(total(name), calls(name))

    ops = loop.ops
    sweep = workload == "sweep"
    serve = workload == "serve"
    spawns = calls("shards.spawn")
    engine_runs = calls("fast.execute") + calls("columnar.execute")
    sharded = loop.sharded_spans
    shard_total = sum(
        sharded.get(n, (0, 0.0))[1]
        for n in ("shards.spawn", "shards.first", "shards.step", "shards.close")
    )
    batch_total = sum(loop.latencies) if sweep else 0.0
    batches = len(loop.latencies) if sweep else 0
    engine_time = total("engine.run_spec")
    fault_runs = sum(
        1 for op in ops if op.fault_plan and op.source is None and op.cost
    )
    daemon_work = sum(
        total(n, daemon)
        for n in (
            "cache.key_for",
            "cache.get",
            "cache.put",
            "catalog.build",
            "engine.run_spec",
        )
    )
    handle = _div(daemon_work, stats.get("daemon_requests", 0))
    costed = [op.cost for op in ops if op.cost is not None]
    classes = untraced.classes

    values = {
        "catalog.build_s": per_call("catalog.build"),
        "fast.run_s": per_call("fast.execute"),
        "fast.ns_per_bit": _div(total("fast.execute") * 1e9, units("fast.execute")),
        "columnar.run_s": per_call("columnar.execute"),
        "columnar.coord_s": _div(
            sharded.get("columnar.execute", (0, 0.0))[1] - shard_total,
            loop.shard_intended,
        ),
        "columnar.ns_per_bit": _div(
            total("columnar.execute") * 1e9, units("columnar.execute")
        ),
        "shards.spawn_s": per_call("shards.spawn"),
        "shards.wait_s": _div(
            total("shards.first") + total("shards.step"), spawns
        ),
        "shards.child_cpu_s": _div(host["children_cpu_s"], spawns),
        "shards.transport_kb": _div(units("shards.encode") / 1024.0, spawns),
        "shards.sharded_ratio": _div(loop.shard_taken, loop.shard_intended),
        "shards.leaked_segments": host["leaked_segments"],
        "pool.batch_s": _div(batch_total, batches),
        "pool.busy_ratio": _div(engine_time, workers * batch_total),
        "pool.overhead_s": _div(batch_total - engine_time / workers, batches),
        "cache.get_s": per_call("cache.get"),
        "cache.put_s": per_call("cache.put"),
        "cache.hit_ratio": _div(units("cache.get"), calls("cache.get")),
        "cache.evictions": stats.get("evictions", 0),
        "cache.entry_kb": stats.get("entry_kb", 0.0),
        "obs.metrics_s": _div(
            total("obs.on_round") + total("obs.run_metrics"), engine_runs
        ),
        "faults.inject_s": _div(
            total("faults.deliver") + total("faults.finish_round"), fault_runs
        ),
        "faults.applied": units("faults.deliver"),
        "service.request_s": per_call("service.request"),
        "service.handle_s": handle,
        "service.overhead_s": (
            per_call("service.request") - handle if serve else 0.0
        ),
        "service.hit_p50_s": p50(
            [t for t, c in zip(untraced.latencies, classes) if c == "hit"]
        ) if serve else 0.0,
        "service.miss_p50_s": p50(
            [t for t, c in zip(untraced.latencies, classes) if c == "miss"]
        ) if serve else 0.0,
        "service.errors": (
            stats.get("daemon_errors", 0) + sum(1 for op in ops if op.error)
            if serve
            else 0
        ),
        "service.peak_queue_depth": stats.get("peak_queue_depth", 0),
        "sim.rounds": sum(c[0] for c in costed),
        "sim.bits": sum(c[1] + c[2] for c in costed),
        "host.calib_s": host["calib_s"],
        "trace.overhead_ratio": _div(
            len(ops) / loop.wall_s if loop.wall_s else 0.0,
            len(untraced.ops) / untraced.wall_s if untraced.wall_s else 0.0,
        ),
    }

    not_measured: dict[str, str] = {}
    for name, hooks in NEEDS.items():
        gone = [h for h in hooks if h in missing]
        if gone:
            values[name] = 0
            not_measured[name] = "; ".join(missing[h] for h in gone)
    if not loop.shard_intended and "shards.sharded_ratio" not in not_measured:
        not_measured["shards.sharded_ratio"] = (
            f"no shard-parallel ops in the {workload} workload"
        )
    if not sweep:
        for name in ("pool.busy_ratio", "pool.overhead_s", "pool.batch_s"):
            not_measured.setdefault(name, f"no run_sweep batches in {workload}")
    if not serve:
        for name in ("service.hit_p50_s", "service.miss_p50_s"):
            not_measured.setdefault(name, f"no cache-backed requests in {workload}")
    return values, not_measured
