"""Engine micro-benchmarks — performance tracking for the simulator.

Not a paper experiment: the acceptance gates here (fast engine >= 2x on
fan-out, default-on metrics <= 10% overhead) guard the throughput the
exponent experiments (E9-E12) depend on.  The timed workload and the
timing loop both come from :mod:`repro.bench` — the same implementation
the ``repro bench`` suite and the CI perf ratchet use — so there is one
definition of "how we time the engine" in the repository.
"""

import gc

import numpy as np
import pytest

from repro.algorithms.common import decode_bool_row, encode_bool_row
from repro.bench import all_to_all_chatter, measure
from repro.clique.bits import BitString
from repro.clique.network import CongestedClique
from repro.clique.routing import route
from repro.engine import FastEngine
from repro.engine.columnar import ColumnarEngine
from repro.engine.diff import catalog_factory
from repro.engine.pool import available_cpus, run_spec
from repro.problems import generators as gen


def test_message_fanout_throughput(benchmark):
    n, rounds = 64, 16

    def work():
        return all_to_all_chatter(n, rounds)

    result = benchmark(work)
    assert result.rounds == rounds
    assert result.total_message_bits == n * (n - 1) * rounds


def test_message_fanout_reference_engine(benchmark):
    """Fan-out on the explicit reference backend (baseline for the
    fast-engine speedup tracked in the benchmark history)."""
    n, rounds = 64, 16

    def work():
        return all_to_all_chatter(n, rounds, engine="reference")

    result = benchmark(work)
    assert result.rounds == rounds
    assert result.total_message_bits == n * (n - 1) * rounds


def test_message_fanout_fast_engine(benchmark):
    """Fan-out on the fast backend (check="bandwidth", transcripts off)."""
    n, rounds = 64, 16
    engine = FastEngine(check="bandwidth")

    def work():
        return all_to_all_chatter(n, rounds, engine=engine)

    result = benchmark(work)
    assert result.rounds == rounds
    assert result.total_message_bits == n * (n - 1) * rounds


def test_fast_engine_speedup_on_fanout():
    """Acceptance gate: the fast engine is >= 2x faster than the
    reference engine on the n=64, 16-round all-to-all fan-out with
    check="bandwidth" and transcripts off (best-of-5 wall clock)."""
    n, rounds = 64, 16
    engine = FastEngine(check="bandwidth")

    ref = measure(lambda: all_to_all_chatter(n, rounds), repeats=5, warmup=0)
    fast = measure(
        lambda: all_to_all_chatter(n, rounds, engine=engine),
        repeats=5,
        warmup=0,
    )
    # Identical observable results ...
    assert fast.result.rounds == ref.result.rounds
    assert fast.result.total_message_bits == ref.result.total_message_bits
    assert fast.result.sent_bits == ref.result.sent_bits
    assert fast.result.received_bits == ref.result.received_bits
    # ... at least twice as fast.
    assert fast.best * 2 <= ref.best, (
        f"fast engine not 2x faster: reference {ref.best * 1e3:.1f}ms, "
        f"fast {fast.best * 1e3:.1f}ms"
    )


def test_sharded_columnar_speedup_on_fanout_work():
    """Acceptance gate: on a multicore runner, the shard-parallel
    columnar engine is >= 1.5x faster than single-instance columnar on
    the n=1024 compute-heavy fan-out (best-of-3 wall clock), with
    bit-identical results.  Auto-skips where the process may only
    schedule on one core — there is nothing to parallelise into.
    """
    cores = available_cpus()
    if cores < 2:
        pytest.skip(f"sharded speedup needs >= 2 usable cores, have {cores}")
    config = {
        "algorithm": "fanout_work",
        "n": 1024,
        "rounds": 4,
        "state": 4096,
        "passes": 6,
        "seed": 0,
    }
    single = ColumnarEngine(check="bandwidth")
    sharded = ColumnarEngine(check="bandwidth", shards=2)

    base = measure(
        lambda: run_spec(catalog_factory(dict(config)), single)[0],
        repeats=3,
        warmup=1,
    )
    split = measure(
        lambda: run_spec(catalog_factory(dict(config)), sharded)[0],
        repeats=3,
        warmup=1,
    )
    # Identical observable results ...
    assert split.result.outputs == base.result.outputs
    assert split.result.rounds == base.result.rounds
    assert split.result.total_message_bits == base.result.total_message_bits
    assert split.result.sent_bits == base.result.sent_bits
    assert split.result.received_bits == base.result.received_bits
    # ... at least 1.5x faster on two shards.
    assert split.best * 1.5 <= base.best, (
        f"sharded columnar not 1.5x faster: single {base.best * 1e3:.1f}ms, "
        f"shards=2 {split.best * 1e3:.1f}ms"
    )


def test_sharded_columnar_overhead_on_fanout():
    """Acceptance gate: shard threads stay cheap on a communication-bound
    run.  Two-shard columnar ``fanout`` at n=1024 — O(n) vector work per
    round, nothing for a second core to win back — costs at most 3x the
    single-instance run (best-of-5 wall clock), with bit-identical
    results.  What it bounds is the per-run shard overhead: executor
    start-up, per-round hand-off and thread join.
    """
    config = {"algorithm": "fanout", "n": 1024, "seed": 0}
    single = ColumnarEngine(check="bandwidth")
    sharded = ColumnarEngine(check="bandwidth", shards=2)

    base = measure(
        lambda: run_spec(catalog_factory(dict(config)), single)[0],
        repeats=5,
        warmup=1,
    )
    split = measure(
        lambda: run_spec(catalog_factory(dict(config)), sharded)[0],
        repeats=5,
        warmup=1,
    )
    assert split.result.outputs == base.result.outputs
    assert split.result.rounds == base.result.rounds
    assert split.result.total_message_bits == base.result.total_message_bits
    assert split.result.sent_bits == base.result.sent_bits
    assert split.result.received_bits == base.result.received_bits
    assert split.best <= 3 * base.best, (
        f"two-shard fanout costs more than 3x single instance: single "
        f"{base.best * 1e3:.2f}ms, shards=2 {split.best * 1e3:.2f}ms"
    )


def test_metrics_overhead_on_fanout():
    """Acceptance gate: default-on RunMetrics collection costs <= 10%
    wall clock on the fast engine's batched fan-out hot path, relative
    to an explicit ``observer=False`` run.

    Measurement design, chosen so scheduler noise cannot masquerade as
    collector overhead:

    - The two arms are timed in *interleaved pairs* so a load spike or
      frequency shift mid-test lands on both arms alike.
    - GC is disabled across the timed region (and restored after): the
      observed arm allocates more, so collection pauses would otherwise
      bias it specifically.
    - The overhead ratio is estimated independently in three blocks of
      ten pairs (best-of-10 per arm per block) and the gate takes the
      *cleanest* block.  Noise only ever inflates a block's ratio, so
      the minimum over blocks is the tightest observed bound on the
      true overhead — the same best-of-k logic the suite applies to a
      single wall-clock quantity.
    """
    n, rounds = 64, 16
    engine = FastEngine(check="bandwidth")

    block_ratios: list[float] = []
    blocks: list[tuple[float, float]] = []
    off_result = on_result = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            off_times: list[float] = []
            on_times: list[float] = []
            for _ in range(10):
                timing = measure(
                    lambda: all_to_all_chatter(
                        n, rounds, engine=engine, observer=False
                    ),
                    repeats=1,
                    warmup=0,
                )
                off_times += timing.times
                off_result = timing.result
                timing = measure(
                    lambda: all_to_all_chatter(n, rounds, engine=engine),
                    repeats=1,
                    warmup=0,
                )
                on_times += timing.times
                on_result = timing.result
            blocks.append((min(off_times), min(on_times)))
            block_ratios.append(min(on_times) / min(off_times))
    finally:
        gc.enable()
    assert off_result.metrics is None
    assert on_result.metrics is not None
    assert on_result.metrics.rounds == rounds
    assert on_result.metrics.message_bits == n * (n - 1) * rounds
    best_block = min(range(3), key=block_ratios.__getitem__)
    off_best, on_best = blocks[best_block]
    assert on_best <= off_best * 1.10, (
        f"default-on metrics cost > 10% in every block: "
        f"ratios {[f'{r:.3f}' for r in block_ratios]}, cleanest block "
        f"off {off_best * 1e3:.2f}ms, on {on_best * 1e3:.2f}ms"
    )


def test_bool_row_codec_throughput(benchmark):
    rng = gen.rng_from(1)
    row = rng.random(4096) < 0.5

    def work():
        bits = encode_bool_row(row)
        back = decode_bool_row(bits, row.size)
        return back

    back = benchmark(work)
    assert np.array_equal(back, row)


def test_relay_router_throughput(benchmark):
    n = 16
    payload = BitString.zeros(512)

    def work():
        def prog(node):
            flows = {(node.id + 1) % n: payload, (node.id + 5) % n: payload}
            got = yield from route(node, flows, scheme="relay")
            return sum(len(b) for b in got.values())

        clique = CongestedClique(n, bandwidth_multiplier=2, max_rounds=10**5)
        return clique.run(prog)

    result = benchmark(work)
    assert all(v == 1024 for v in result.outputs.values())
