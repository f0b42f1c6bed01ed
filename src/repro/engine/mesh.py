"""Mesh execution: N paths over one topology, batch or chunked/sharded.

Two engines drive a :class:`~repro.simulation.mesh.MeshScenario`:

* :func:`run_mesh_batch` materializes every path's whole trace, propagates it
  (:meth:`MeshScenario.run_batch`), and feeds each HOP's merged observation
  union to the session's collectors in one call;
* :class:`MeshRunner` streams all paths *in lockstep*, one trace chunk per
  path per round, pushing each path's chunk through its own
  :class:`~repro.engine.streaming.ScenarioStream` and feeding each HOP the
  chunk-wise timestamp-merged union.  ``shards=N`` splits the chunk-round
  range exactly as the single-path streaming engine does (one shared
  driver): the coordinator propagates every path up to the last span's
  boundary without hashing or collecting, hands one
  :class:`~repro.engine.checkpoint.StreamCheckpoint` per path to one of
  ``N-1`` worker processes at each earlier boundary (workers seek every path
  stream straight to their span — zero prefix replay), evaluates the last
  span itself, and merges the collector states in stream order
  (:meth:`~repro.core.hop.HOPCollector.merge` handles multi-path state).

Both engines leave every collector in bit-identical state: per-path collector
state depends only on that path's sub-stream (in its own time order), which
both the whole-run merge and the chunk-wise merges preserve — so receipts,
estimates, verdicts and triangulation byte-match across engines and shard
counts (``time_sum`` at its documented tolerance), which the mesh conformance
suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.core.hop import HOPReport
from repro.core.protocol import MeshSession
from repro.engine.streaming import DEFAULT_CHUNK_SIZE, StreamingTruth, _run_interval
from repro.net.topology import Domain
from repro.simulation.mesh import MeshObservation, MeshScenario
from repro.simulation.scenario import PathScenario
from repro.traffic.trace import SyntheticTrace

__all__ = ["MeshCell", "MeshRunner", "MeshStreamingResult", "run_mesh_batch"]


class MeshCell(NamedTuple):
    """Everything one mesh run needs: scenario, one trace per path, session."""

    scenario: MeshScenario
    traces: tuple[SyntheticTrace, ...]
    session: MeshSession

    def path_inputs(self) -> tuple[tuple[PathScenario, ...], tuple[SyntheticTrace, ...]]:
        """The per-path scenarios and traces the streams run, in path order."""
        return tuple(self.scenario.path_scenarios), tuple(self.traces)


@dataclass
class MeshStreamingResult:
    """Everything a streaming mesh run produced.

    ``path_truth[i]`` maps domain name to that domain's
    :class:`~repro.engine.streaming.StreamingTruth` on path ``i`` — the same
    read API as the batch engine's per-path ground truth, and elementwise
    identical delay/loss values.
    """

    reports: dict[int, HOPReport]
    session: MeshSession
    path_truth: tuple[dict[str, StreamingTruth], ...]
    chunk_size: int
    shards: int
    chunks: int
    #: Chunk rounds each shard actually evaluated, in shard order (span
    #: sizes — zero prefix replay); ``(chunks,)`` for a single-process run.
    shard_chunks: tuple[int, ...] = ()

    def truth_for(self, path_index: int, domain: Domain | str) -> StreamingTruth:
        name = domain.name if isinstance(domain, Domain) else domain
        return self.path_truth[path_index][name]


def run_mesh_batch(cell: MeshCell) -> MeshObservation:
    """Drive a mesh cell through the batch engine (observe + report)."""
    batches = [trace.packet_batch() for trace in cell.traces]
    observation = cell.scenario.run_batch(batches)
    cell.session.run(observation)
    return observation


def _total_chunks(traces: Sequence[SyntheticTrace], chunk_size: int) -> int:
    return max(
        -(-trace.config.packet_count // chunk_size) for trace in traces
    )


class MeshRunner:
    """Drives a mesh measurement interval chunk-by-chunk, optionally sharded.

    Mirrors :class:`~repro.engine.streaming.StreamingRunner`: ``setup`` is a
    ready :class:`MeshCell` or a picklable zero-argument callable returning
    one (required for ``shards > 1``).  The coordinator propagates all paths
    in lockstep (truth included); up to the last span it hashes and collects
    nothing, but captures per-path checkpoints at each earlier span's round
    boundary and dispatches that span to one of ``shards - 1`` worker
    processes, which seek to their boundary and evaluate only their own span.
    The coordinator evaluates the last span (every span, with ``shards=1``)
    and owns the flush.  Collector states merge in stream order, the
    coordinator's last — receipt-identical to ``shards=1``, which is
    receipt-identical to the batch engine.
    """

    def __init__(
        self,
        setup: MeshCell | Callable[[], MeshCell],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shards: int = 1,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > 1 and not callable(setup):
            raise ValueError(
                "shards > 1 needs a picklable zero-argument setup callable so "
                "worker processes can rebuild the mesh cell"
            )
        self._setup = setup
        self.chunk_size = int(chunk_size)
        self.shards = int(shards)

    def run(self) -> MeshStreamingResult:
        cell = self._setup() if callable(self._setup) else self._setup
        total_chunks = _total_chunks(cell.traces, self.chunk_size)
        streams, shard_chunks = _run_interval(
            self._setup, cell, self.chunk_size, self.shards, total_chunks
        )
        reports = cell.session.collect_reports()
        return MeshStreamingResult(
            reports=reports,
            session=cell.session,
            path_truth=tuple(stream.domain_truth for stream in streams),
            chunk_size=self.chunk_size,
            shards=self.shards,
            chunks=total_chunks,
            shard_chunks=shard_chunks,
        )
