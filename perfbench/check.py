"""The benchmark's correctness gate, run after the timed loop.

Every op the loop issued is checked here, so neither set-up nor a
timed op pays for sympy or a reference replay:

* a fault-free op's ``(rounds, message_bits, bulk_bits)`` must equal
  the closed form of ``get_cost_model(name).evaluate(config)``;
* a fault-plan op must equal a reference-engine replay of the same
  config and plan, outputs included;
* an op answered from a cache must equal the op whose result it
  returned (the miss that stored it).

Any mismatch, exception or watchdog failure counts the op as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


@dataclass
class Op:
    """One issued op, as the loop saw it.

    ``cost`` is ``(rounds, message_bits, bulk_bits)``; ``outputs`` is
    whatever the equality checks compare (run outputs or a reply);
    ``source`` is the earlier op whose stored result a cache hit
    returned.
    """

    config: dict
    fault_plan: "str | None" = None
    cost: "tuple[int, int, int] | None" = None
    outputs: Any = None
    error: "str | None" = None
    source: "Op | None" = None


def _key(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


class Gate:
    """Expected costs, memoised per config, and the per-op verdicts."""

    def __init__(self) -> None:
        self._closed: dict[str, tuple[int, int, int]] = {}
        self._replays: dict[tuple[str, str], tuple[tuple, str]] = {}

    def plant(self, config: dict, cost: "tuple[int, int, int]") -> None:
        """Force the expected closed form of ``config`` (for self-tests)."""
        self._closed[_key(config)] = tuple(cost)

    def closed_form(self, config: dict) -> "tuple[int, int, int]":
        key = _key(config)
        if key not in self._closed:
            from repro.analysis.symbolic import get_cost_model
            from repro.engine.diff import COST_DECLARATIONS

            algo = config["algorithm"]
            point = get_cost_model(COST_DECLARATIONS.get(algo, algo)).evaluate(
                config
            )
            self._closed[key] = (
                point.rounds,
                point.message_bits,
                point.bulk_bits,
            )
        return self._closed[key]

    def replay(self, config: dict, plan: str) -> "tuple[tuple, str]":
        key = (_key(config), plan)
        if key not in self._replays:
            from repro.engine import ExecutionSpec
            from repro.engine.diff import catalog_factory
            from repro.engine.pool import run_spec

            result, _ = run_spec(
                catalog_factory(dict(config)),
                execution=ExecutionSpec(engine="reference", fault_plan=plan),
            )
            self._replays[key] = (
                (result.rounds, result.total_message_bits, result.bulk_bits),
                digest(result.outputs),
            )
        return self._replays[key]

    def verdict(self, op: Op) -> "str | None":
        """``None`` when ``op`` is correct, else the reason it failed."""
        if op.error is not None:
            return op.error
        if op.cost is None:
            return "no result recorded"
        if op.fault_plan is not None:
            cost, out = self.replay(op.config, op.fault_plan)
            if op.cost != cost:
                return f"cost {op.cost} != reference replay {cost}"
            if digest(op.outputs) != out:
                return "outputs differ from the reference replay"
        else:
            expected = self.closed_form(op.config)
            if op.cost != expected:
                return f"cost {op.cost} != closed form {expected}"
        if op.source is not None:
            if op.cost != op.source.cost:
                return f"cached cost {op.cost} != stored {op.source.cost}"
            if digest(op.outputs) != digest(op.source.outputs):
                return "cached result differs from the run that stored it"
        return None

    def failures(self, ops: "list[Op]") -> "list[tuple[int, str]]":
        """``(index, reason)`` of every failed op."""
        out = []
        for index, op in enumerate(ops):
            reason = self.verdict(op)
            if reason is not None:
                out.append((index, reason))
        return out


def digest(obj: Any) -> str:
    from repro.engine.cache import content_digest

    return content_digest(obj)
