"""Convenience driver for running node programs on input graphs."""

from __future__ import annotations

from typing import Any

from .graph import CliqueGraph
from .network import CongestedClique, NodeProgram, RunResult

__all__ = ["run_algorithm"]

_UNSET = object()


def run_algorithm(
    program: NodeProgram,
    graph: CliqueGraph,
    *,
    aux: Any = None,
    bandwidth_multiplier: int = 1,
    bandwidth: int | None = None,
    max_rounds: int | None = None,
    execution: Any = None,
    engine: Any = None,
    check: Any = None,
    transcripts: bool | None = None,
    observer: Any = None,
    fault_plan: Any = None,
    record_transcripts: Any = _UNSET,
) -> RunResult:
    """Run ``program`` on ``graph`` in a congested clique of ``graph.n`` nodes.

    This is a thin wrapper over :meth:`CongestedClique.run` — it builds
    the clique from the graph's size and forwards the *same* keyword-only
    run options (``execution=``, ``engine=``, ``check=``,
    ``transcripts=``, ``observer=``, ``fault_plan=``); see that method
    for their semantics.  Each node ``v``
    receives ``graph.local_view(v)`` as its input and ``aux``'s per-node
    resolution as auxiliary input.

    ``record_transcripts=`` is the retired spelling of ``transcripts=``
    and raises :class:`TypeError`.
    """
    if record_transcripts is not _UNSET:
        raise TypeError(
            "run_algorithm() no longer accepts record_transcripts=; "
            "use transcripts="
        )
    clique = CongestedClique(
        graph.n,
        bandwidth=bandwidth,
        bandwidth_multiplier=bandwidth_multiplier,
        max_rounds=max_rounds,
    )
    return clique.run(
        program,
        graph,
        aux=aux,
        execution=execution,
        engine=engine,
        check=check,
        transcripts=transcripts,
        observer=observer,
        fault_plan=fault_plan,
    )
