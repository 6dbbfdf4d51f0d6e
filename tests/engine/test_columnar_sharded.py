"""Shard-parallel columnar execution: bit-identical results at every
shard count, shard threads that never outlive a run, transparent
fallback everywhere the shard contract cannot express the run, and the
``shards`` knob across the spec/CLI surface."""

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.clique.errors import CliqueError
from repro.clique.network import CongestedClique
from repro.engine import (
    ColumnarEngine,
    ExecutionSpec,
    FastEngine,
    array_program,
    resolve_engine,
)
from repro.engine.diff import catalog_factory
from repro.engine.pool import run_spec, run_sweep, shutdown_pool

FANOUT = {"algorithm": "fanout", "n": 24, "rounds": 3, "seed": 4}
FANOUT_WORK = {
    "algorithm": "fanout_work",
    "n": 24,
    "rounds": 3,
    "state": 64,
    "passes": 2,
    "seed": 4,
}


def _run_columnar(config, **engine_kwargs):
    engine = ColumnarEngine(check="bandwidth", **engine_kwargs)
    return run_spec(catalog_factory(dict(config)), engine)[0]


def _assert_identical(base, other):
    assert other.outputs == base.outputs
    assert other.rounds == base.rounds
    assert other.total_message_bits == base.total_message_bits
    assert other.bulk_bits == base.bulk_bits
    assert other.sent_bits == base.sent_bits
    assert other.received_bits == base.received_bits
    assert other.counters == base.counters
    assert other.metrics == base.metrics


class TestShardedParity:
    """Sharded runs are bit-identical to single-instance columnar."""

    @pytest.mark.parametrize("config", [FANOUT, FANOUT_WORK], ids=["fanout", "work"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 64])
    def test_inline_shards_match_single_instance(self, config, shards):
        # In-process shards (threads of this process) at every count.
        base = _run_columnar(config)
        split = _run_columnar(config, shards=shards)
        _assert_identical(base, split)

    def test_matches_fast_engine_too(self):
        fast, _ = run_spec(
            catalog_factory(dict(FANOUT_WORK)), FastEngine(check="bandwidth")
        )
        split = _run_columnar(FANOUT_WORK, shards=3)
        assert split.outputs == fast.outputs
        assert split.rounds == fast.rounds
        assert split.total_message_bits == fast.total_message_bits


@array_program(shardable=True)
def _bulk_echo(ctx):
    # Round 1: every owned node bulk-sends its input to node 0 and
    # broadcasts one bit; round 2: node 0 (if owned) reads the bulk
    # inbox.  Exercises the bulk channel across the shard boundary.
    lo, hi = ctx.lo, ctx.hi
    for v in range(lo, hi):
        ctx.bulk_send(v, 0, int(ctx.inputs[v]), 64)
    ctx.broadcast(
        np.asarray(ctx.ids[lo:hi], dtype=np.uint64) & np.uint64(1),
        1,
        senders=ctx.ids[lo:hi],
    )
    yield
    total = sum(val for (_, dst, val, _) in ctx._in_bulk if dst == 0)
    out = {v: 0 for v in range(lo, hi)}
    if lo <= 0 < hi:
        out[0] = total
    return out


@array_program(shardable=True)
def _foreign_sender(ctx):
    # Violates the owned-source contract: every shard emits for node 0.
    ctx.send(
        np.zeros(1, dtype=np.int64),
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.uint64),
        1,
    )
    yield
    return None


class TestShardContract:
    def test_bulk_channel_crosses_shards(self):
        n = 9
        inputs = [3 * v + 1 for v in range(n)]
        clique = CongestedClique(n, max_rounds=10)
        base = clique.run(
            _bulk_echo, inputs, engine=ColumnarEngine(check="bandwidth")
        )
        split = clique.run(
            _bulk_echo,
            inputs,
            engine=ColumnarEngine(check="bandwidth", shards=4),
        )
        assert base.outputs[0] == sum(inputs)
        _assert_identical(base, split)

    def test_owned_source_violation_raises(self):
        clique = CongestedClique(6, max_rounds=10)
        engine = ColumnarEngine(check="bandwidth", shards=3)
        with pytest.raises(CliqueError, match="non-owned sender"):
            clique.run(_foreign_sender, engine=engine)


@array_program(shardable=True)
def _inbox_writer(ctx):
    # Violates the shared-address-space contract: after one round of
    # broadcasts and unicasts it zeroes the inbox column named by
    # ``ctx.auxes[0]`` — columns its neighbour shards read as well.
    lo, hi = ctx.lo, ctx.hi
    owned = ctx.ids[lo:hi]
    ctx.broadcast(np.ones(hi - lo, dtype=np.uint64), 1, senders=owned)
    ctx.send(owned, (owned + 1) % ctx.n, 1, 1)
    yield
    if ctx.auxes[0] == "broadcast":
        ctx.inbox_broadcast[1][:] = 0
    else:
        ctx.inbox_messages[2][:] = 0
    return None


class TestSharedAddressSpace:
    """Shards are threads: deterministic, read-only inboxes, joined."""

    @pytest.mark.parametrize("column", ["broadcast", "messages"])
    def test_inbox_write_raises(self, column):
        clique = CongestedClique(8, max_rounds=10)
        engine = ColumnarEngine(check="bandwidth", shards=3)
        with pytest.raises(ValueError, match="read-only"):
            clique.run(_inbox_writer, aux=column, engine=engine)

    def test_oversubscribed_threads_stay_identical(self):
        # More shards than cores, and a switch interval that preempts
        # the shard threads at every opportunity.
        baseline = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for config in (FANOUT, FANOUT_WORK):
                for seed in range(3):
                    point = dict(config, n=40, seed=seed)
                    base = _run_columnar(point)
                    split = _run_columnar(point, shards=8)
                    _assert_identical(base, split)
                    assert threading.active_count() == baseline
            engine = ColumnarEngine(check="bandwidth", shards=8)
            with pytest.raises(CliqueError, match="non-owned sender"):
                CongestedClique(16, max_rounds=10).run(
                    _foreign_sender, engine=engine
                )
            assert threading.active_count() == baseline
        finally:
            sys.setswitchinterval(interval)

    def test_sharded_run_inside_sweep_workers(self):
        # Sweep workers are daemonic forked processes; the shards must
        # run there too, silently.  Warnings turn into errors in the
        # freshly forked workers, so a fallback warning fails the point.
        configs = [dict(FANOUT_WORK, seed=seed) for seed in (1, 2)]
        single = ExecutionSpec(engine="columnar", check="bandwidth")
        sharded = ExecutionSpec(engine="columnar", check="bandwidth", shards=2)
        shutdown_pool()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                split = run_sweep(
                    catalog_factory, configs, workers=2, execution=sharded
                )
        finally:
            shutdown_pool()
        base = run_sweep(catalog_factory, configs, workers=1, execution=single)
        for outcome, reference in zip(split, base):
            assert not outcome.failed, outcome.error
            _assert_identical(reference.result, outcome.result)


@array_program
def _plain_fanout(ctx):
    ctx.broadcast(np.asarray(ctx.ids, dtype=np.uint64), 3)
    yield
    return {v: int(ctx._in_bcast[1][v]) for v in range(ctx.n)}


class TestFallback:
    """Runs the shard contract cannot express fall back transparently."""

    def _ran_sharded(self, monkeypatch):
        calls = []
        original = ColumnarEngine._execute_sharded

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ColumnarEngine, "_execute_sharded", spy)
        return calls

    def test_shardable_program_dispatches_sharded(self, monkeypatch):
        calls = self._ran_sharded(monkeypatch)
        _run_columnar(FANOUT, shards=2)
        assert calls

    def test_non_shardable_program_falls_back(self, monkeypatch):
        calls = self._ran_sharded(monkeypatch)
        clique = CongestedClique(6, max_rounds=10)
        engine = ColumnarEngine(check="bandwidth", shards=3)
        result = clique.run(_plain_fanout, engine=engine)
        assert not calls
        assert result.outputs == {v: v for v in range(6)}

    def test_fault_plan_falls_back_and_stays_identical(self, monkeypatch):
        calls = self._ran_sharded(monkeypatch)
        plan = "drop=0.2,corrupt=0.1,duplicate=0.1,seed=3"
        engine = ColumnarEngine(check="bandwidth", shards=3)
        split, _ = run_spec(
            catalog_factory(dict(FANOUT)), engine, fault_plan=plan
        )
        base, _ = run_spec(
            catalog_factory(dict(FANOUT)),
            ColumnarEngine(check="bandwidth"),
            fault_plan=plan,
        )
        assert not calls
        assert split.outputs == base.outputs
        assert split.received_bits == base.received_bits

    def test_shards_one_stays_single_instance(self, monkeypatch):
        calls = self._ran_sharded(monkeypatch)
        _run_columnar(FANOUT, shards=1)
        assert not calls


class TestEngineKnobs:
    def test_shards_clamped_to_n(self):
        engine = ColumnarEngine(shards=64)
        assert engine._effective_shards(5) == 5

    def test_shards_zero_is_auto(self):
        from repro.engine.pool import available_cpus

        engine = ColumnarEngine(shards=0)
        assert engine._effective_shards(1024) == min(available_cpus(), 1024)

    def test_shards_none_is_one(self):
        assert ColumnarEngine()._effective_shards(1024) == 1

    @pytest.mark.parametrize("bad", [-1, 1.5, "two", True])
    def test_invalid_shards_rejected(self, bad):
        with pytest.raises(CliqueError, match="shards"):
            ColumnarEngine(shards=bad)

    def test_invalid_executor_and_transport_rejected(self):
        # Shard execution has no executor or transport option.
        with pytest.raises(TypeError, match="executor"):
            ColumnarEngine(shards=2, executor="process")
        with pytest.raises(TypeError, match="transport"):
            ColumnarEngine(shards=2, transport="pickle")

    def test_describe_mentions_shards_only_when_set(self):
        plain = ColumnarEngine().describe()
        assert "shards" not in plain
        sharded = ColumnarEngine(shards=4).describe()
        assert sharded["shards"] == 4
        assert "executor" not in sharded
        assert "transport" not in sharded
        assert set(sharded) == set(plain) | {"shards"}


class TestSpecSurface:
    def test_resolve_by_name_with_shards(self):
        engine = resolve_engine("columnar", check="off", shards=3)
        assert isinstance(engine, ColumnarEngine)
        assert engine.shards == 3

    def test_resolve_conflicting_shards_rejected(self):
        engine = ColumnarEngine(shards=2)
        with pytest.raises(CliqueError, match="[Cc]onflicting shard"):
            resolve_engine(engine, shards=4)

    def test_resolve_engine_without_shard_support_rejected(self):
        with pytest.raises(CliqueError, match="does not support shards"):
            resolve_engine("fast", shards=2)

    def test_spec_round_trips_shards(self):
        spec = ExecutionSpec(engine="columnar", check="bandwidth", shards=4)
        assert spec.to_dict()["shards"] == 4
        back = ExecutionSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.shards == 4
        assert spec.describe()["engine"]["shards"] == 4

    def test_spec_rejects_bad_shards(self):
        for bad in (-2, True, "3"):
            with pytest.raises(CliqueError, match="shards"):
                ExecutionSpec(engine="columnar", shards=bad)

    def test_spec_merged_keeps_shards(self):
        spec = ExecutionSpec(engine="columnar", shards=0)
        merged = spec.merged()
        assert merged.shards == 0

    def test_spec_run_end_to_end(self):
        spec = ExecutionSpec(engine="columnar", check="bandwidth", shards=2)
        split, _ = run_spec(catalog_factory(dict(FANOUT_WORK)), execution=spec)
        base = _run_columnar(FANOUT_WORK)
        _assert_identical(base, split)
