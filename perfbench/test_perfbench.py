"""Self-tests of the benchmark's gate, hooks and entry point.

Run from the checkout root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from check import Gate, Op  # noqa: E402
from repro.engine import ExecutionSpec  # noqa: E402
from repro.engine.diff import catalog_factory  # noqa: E402
from repro.engine.pool import run_spec  # noqa: E402


def _op(config: dict, plan: "str | None" = None) -> Op:
    result, _ = run_spec(
        catalog_factory(dict(config)),
        execution=ExecutionSpec(engine="fast", check="bandwidth", fault_plan=plan),
    )
    return Op(
        config=config,
        fault_plan=plan,
        cost=(result.rounds, result.total_message_bits, result.bulk_bits),
        outputs=result.outputs,
    )


def test_closed_form_passes_and_planted_mismatch_fails():
    config = {"algorithm": "kds", "k": 2, "n": 9, "seed": 4}
    op = _op(config)
    assert Gate().failures([op]) == []
    gate = Gate()
    rounds, message_bits, bulk_bits = op.cost
    gate.plant(config, (rounds, message_bits + 1, bulk_bits))
    failures = gate.failures([op])
    assert len(failures) == 1
    assert "closed form" in failures[0][1]


def test_fault_op_is_checked_against_a_reference_replay():
    config = {"algorithm": "fanout", "rounds": 3, "n": 12, "seed": 2}
    op = _op(config, "drop=0.05,seed=7")
    assert Gate().failures([op]) == []
    op.outputs = {0: "tampered"}
    assert "reference replay" in Gate().failures([op])[0][1]


def test_hit_must_equal_the_run_that_stored_it():
    config = {"algorithm": "kis", "k": 3, "n": 9, "seed": 1}
    miss = _op(config)
    hit = _op(config)
    hit.source = miss
    assert Gate().failures([miss, hit]) == []
    hit.outputs = dict(hit.outputs, extra=1)
    failures = Gate().failures([miss, hit])
    assert [index for index, _ in failures] == [1]


def test_errors_count_as_failed_ops():
    op = Op(config={"algorithm": "kds"}, error="OpTimeout: no progress")
    assert Gate().failures([op]) == [(0, "OpTimeout: no progress")]


def test_moved_hook_is_reported_not_measured(monkeypatch, tmp_path):
    monkeypatch.setattr(
        spans,
        "HOOKS",
        spans.HOOKS + (("gone.fn", "repro.engine.pool", "no_such_function", None),),
    )
    tracer = spans.Tracer(tmp_path, role="main").install()
    try:
        assert "gone.fn" in tracer.missing
        assert "not found" in tracer.missing["gone.fn"]
        assert "fast.execute" in tracer.installed
        _op({"algorithm": "kds", "k": 2, "n": 9, "seed": 4})
        calls, total, self_s, bits = tracer.snapshot()["fast.execute"]
        assert calls == 1 and total >= self_s > 0 and bits > 0
    finally:
        tracer.uninstall()


def test_run_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "sweep",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
