"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The program is imported from ``./src``; nothing is installed.  A run:

1. sets the workload up five times and reports the median as
   ``setup_s``; one set-up is the program's imports in a fresh
   interpreter plus the pool or daemon start and one smallest op per
   op kind;
2. replays the seeded op sequence with tracing off and measures the
   end-to-end metrics;
3. with ``--trace 1``, replays the first half of the sequence untraced,
   installs the span hooks, sets up again (so the pool, shard workers
   and daemon run the hooks too), replays the same half traced and
   prints the per-layer metrics instead;
4. checks every op of every pass against the symbolic cost model, a
   reference replay or the run that stored a cache hit, and checks
   that no child process, shared-memory segment, socket or temp file
   is left behind.

The last line of standard output is the result object; the line
before it carries the per-class latency medians, the host calibration
and the set-up samples, and a traced run prints its ``not_measured``
reasons and raw span aggregates before that.  A run whose ops stop making progress for
``OP_DEADLINE_S`` is killed by the watchdog and exits 3 without a
result; a directory without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

SETUP_REPS = 5
OP_DEADLINE_S = 60.0
RUN_ROOT = Path(".perfbench_run")

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def _quantile(values: list, q: float) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _import_program() -> "str | None":
    """Import the program from ``./src``; an error message on failure."""
    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program source at {src}/repro (run from a checkout root)"
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    import repro
    import repro.engine  # noqa: F401
    import repro.service  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(src):
        return f"repro imported from {repro.__file__}, not from {src}"
    return None


def _fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.engine, repro.service"],
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


class Pass:
    """Set a workload up ``SETUP_REPS`` times, then run one timed loop."""

    def __init__(self, workload, tracer, watchdog) -> None:
        from host import children_cpu_seconds, cpu_seconds

        self.setups: list[float] = []
        for rep in range(SETUP_REPS):
            watchdog.tick(f"{workload.name} set-up")
            imports = _fresh_import_s()
            start = time.perf_counter()
            workload.start(watchdog)
            self.setups.append(imports + time.perf_counter() - start)
            watchdog.tick()
            if rep < SETUP_REPS - 1:
                workload.stop()
        watchdog.tick(f"the {workload.name} loop")
        pids = workload.live_pids()
        cpu0, child0 = cpu_seconds(pids), children_cpu_seconds()
        self.loop = workload.loop(watchdog, tracer)
        self.cpu_s = cpu_seconds(pids) - cpu0
        self.children_cpu_s = children_cpu_seconds() - child0
        self.stats = workload.layer_stats()
        workload.stop()


def _measure(workload, trace: bool, run_dir: Path) -> "tuple[list, object]":
    """The passes of one run, and the tracer if one was installed."""
    from host import OpTimeout, Watchdog, kill_children

    passes: list[Pass] = []
    tracer = None
    with Watchdog(
        OP_DEADLINE_S, lambda: kill_children(workload.popens())
    ) as watchdog:
        try:
            passes.append(Pass(workload, None, watchdog))
            if trace:
                from spans import Tracer

                workload.trace_dir = run_dir / "spans"
                tracer = Tracer(workload.trace_dir, role="main").install()
                passes.append(Pass(workload, tracer, watchdog))
        except KeyboardInterrupt:
            if watchdog.fired is None:
                raise
            raise OpTimeout(watchdog.fired) from None
    return passes, tracer


def _containment(workload, run_dir: Path, shm_before: set) -> "tuple[list, int]":
    """Leftovers of the run (after tearing down), and leaked segments."""
    from host import child_pids, shm_segments
    from repro.engine.pool import shutdown_pool

    shutdown_pool()
    problems = []
    # Read before stopping the tracker, which unlinks what it still tracks.
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append(f"leaked shared-memory segments {leaked}")
    _stop_tracker()
    stray = child_pids()
    if stray:
        problems.append(f"child processes still alive {stray}")
    left = [str(p) for p in run_dir.rglob("*") if p.suffix in (".sock", ".tmp")]
    if left:
        problems.append(f"sockets or temp files left behind {left}")
    return problems, len(leaked)


def run(args) -> int:
    error = _import_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    from check import Gate
    from host import calibrate, kill_children, peak_rss_mb, shm_segments
    from workloads import WORKERS, WORKLOADS

    run_dir = RUN_ROOT / f"{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    # Keep every temp file and any default-located cache in the run dir.
    os.environ["TMPDIR"] = str((run_dir / "tmp").resolve())
    os.environ["REPRO_CACHE_DIR"] = str((run_dir / "default-cache").resolve())
    tempfile.tempdir = None
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = WORKLOADS[args.workload](args.seed, seconds, run_dir)
    shm_before = shm_segments()
    calib = [calibrate()]
    try:
        passes, tracer = _measure(workload, bool(args.trace), run_dir)
        rss = peak_rss_mb()
        calib.append(calibrate())
        problems, leaked = _containment(workload, run_dir, shm_before)
        spans = None
        if tracer is not None:
            from spans import load_spans, merge_roles

            by_role = load_spans(run_dir / "spans")
            by_role["main"] = tracer.snapshot()
            spans = (merge_roles(by_role), by_role.get("daemon", {}))
            tracer.uninstall()
    except BaseException as exc:
        workload.cleanup()
        _stop_tracker()
        kill_children(workload.popens())
        _finish(run_dir)
        if not isinstance(exc, Exception):
            raise
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _finish(run_dir)
    if run_dir.exists():
        problems.append(f"run directory {run_dir} not removed")

    gate = Gate()
    failures = []
    for number, p in enumerate(passes):
        for index, reason in gate.failures(p.loop.ops):
            failures.append(f"pass {number} op {index}: {reason}")
    attempted = sum(len(p.loop.ops) for p in passes)

    base = passes[0]
    loop = base.loop
    if not args.trace:
        values = {
            "throughput_ops_s": len(loop.ops) / loop.wall_s,
            "latency_p50_s": _quantile(loop.latencies, 0.5),
            "latency_p90_s": _quantile(loop.latencies, 0.9),
            "cpu_s_per_op": base.cpu_s / len(loop.ops),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(base.setups),
        }
        units = END_TO_END
    else:
        import layers

        traced = passes[1]
        if (
            "shards.spawn" not in tracer.missing
            and traced.loop.shard_taken != traced.loop.shard_intended
        ):
            problems.append(
                f"shard path taken by {traced.loop.shard_taken} of "
                f"{traced.loop.shard_intended} shard-parallel ops"
            )
        values, not_measured = layers.compute(
            workload=args.workload,
            workers=WORKERS,
            loop=traced.loop,
            untraced=loop,
            spans=spans[0],
            daemon=spans[1],
            missing=tracer.missing,
            stats=traced.stats,
            host={
                # Shard workers are the only children reaped mid-loop.
                "children_cpu_s": traced.children_cpu_s,
                "leaked_segments": leaked,
                "calib_s": statistics.median(calib),
            },
        )
        units = [(name, unit) for name, unit, _ in layers.PER_LAYER]
        # Raw aggregates per hook: [calls, total_s, self_s, measured units].
        print(json.dumps({"not_measured": not_measured, "spans": spans[0]}))
    for line in failures[:10] + problems:
        print(f"perfbench: {line}", file=sys.stderr)

    classes = {}
    for name in sorted(set(loop.classes)):
        times = [t for t, c in zip(loop.latencies, loop.classes) if c == name]
        classes[name] = {"count": len(times), "p50_s": statistics.median(times)}
    print(
        json.dumps(
            {
                "classes": classes,
                "host_calib_s": calib,
                "setups_s": base.setups,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units
                },
            }
        )
    )
    return 0


def _stop_tracker() -> None:
    """Stop (and reap) multiprocessing's shared-memory tracker process,
    which the program's first shared-memory segment started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:  # already reaped
            pass


def _finish(run_dir: Path) -> None:
    """Stop the shared-memory tracker and remove the run directory."""
    _stop_tracker()
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        RUN_ROOT.rmdir()
    except OSError:
        pass


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["sweep", "columnar", "serve"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
