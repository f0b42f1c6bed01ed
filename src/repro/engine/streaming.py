"""Chunked, shard-parallel scenario execution with exact batch-engine parity.

The batch engine (:meth:`repro.simulation.scenario.PathScenario.run_batch`)
materializes every HOP's whole observation stream; at tens of millions of
packets that costs multiple gigabytes.  This module drives the *same*
simulation as a stream:

* :class:`ScenarioStream` pushes one trace chunk at a time through the path.
  Each propagation stage (domain segment, inter-domain link) applies its
  models to the chunk — consuming every model's RNG in exactly the order the
  whole-batch run would — and holds packets back in a small sort buffer until
  the **watermark** (the last source send time seen) guarantees no future
  packet can precede them.  Emissions at every HOP are therefore the
  whole-run observation stream, delivered incrementally, bit-for-bit.

* :class:`ScenarioStream` is **seekable**: :meth:`ScenarioStream.checkpoint`
  freezes the complete propagation state at a chunk boundary (every model RNG
  cursor, every holdback buffer, the watermark) as a
  :class:`~repro.engine.checkpoint.StreamCheckpoint`, and
  :meth:`ScenarioStream.seek` restores a fresh stream to that point so it
  continues bit-identically — in another process, or in a later run.

* :class:`StreamingRunner` feeds those emissions to the VPM collectors
  chunk-by-chunk (single process), or splits the chunk index range into
  ``shards=N`` contiguous spans: the coordinator propagates the interval up
  to the last span's boundary without hashing or collecting, handing a
  checkpoint to one of ``N-1`` pooled worker processes at each earlier
  boundary (workers seek straight to their span — zero prefix replay), then
  evaluates the last span itself.  Collector states are merged exactly in
  stream order (:meth:`repro.core.hop.HOPCollector.merge`), so a sharded
  run's receipts equal the single-process run's.

Exactness contract: every component must be *streamable* — delay and loss
models declare it (:attr:`repro.traffic.delay_models.DelayModel.streamable`),
reordering models expose a sequential :meth:`perturb` with non-negative
offsets.  Non-streamable components (``CongestionDelayModel``, which
simulates the whole arrival series per call) are rejected with a clear error;
run those under the batch engine.  The one documented deviation is
``AggregateReceipt.time_sum`` (float accumulation order, as with scalar vs
batch).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.hop import HOPCollector, HOPReport
from repro.core.protocol import VPMSession
from repro.engine.checkpoint import StreamCheckpoint
from repro.net.batch import PacketBatch
from repro.net.hashing import PacketDigester
from repro.net.topology import HOP, Domain
from repro.simulation.mesh import merge_hop_streams
from repro.simulation.scenario import PathScenario, SegmentCondition
from repro.traffic.trace import SyntheticTrace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "RunnerCheckpoint",
    "ScenarioStream",
    "StreamingCell",
    "StreamingResult",
    "StreamingRunner",
    "StreamingTruth",
]

# Large enough to amortize numpy dispatch, small enough that per-chunk
# working state stays comfortably in cache-friendly territory.
DEFAULT_CHUNK_SIZE = 1 << 18


class StreamingCell(NamedTuple):
    """Everything one streaming run needs: scenario, trace, VPM session."""

    scenario: PathScenario
    trace: SyntheticTrace
    session: VPMSession

    def path_inputs(self) -> tuple[tuple[PathScenario, ...], tuple[SyntheticTrace, ...]]:
        """The per-path scenarios and traces the streams run (one path)."""
        return (self.scenario,), (self.trace,)


@dataclass
class StreamingTruth:
    """Ground truth of one domain, accumulated chunk-by-chunk.

    Stores per-chunk true-delay arrays plus loss/delivery counts — the pieces
    result summaries actually consume — instead of the full per-uid maps the
    batch engine keeps, so memory stays proportional to delivered packets
    (one float each) rather than three columns.  The accessors mirror
    :class:`repro.simulation.scenario.BatchDomainTruth`, and the delay values
    are elementwise identical to the batch engine's, so quantiles match
    exactly.
    """

    domain: str
    lost_packets: int = 0
    delivered_packets: int = 0
    _delay_chunks: list[np.ndarray] = field(default_factory=list)
    _delays: np.ndarray | None = None

    def record(self, ingress_times: np.ndarray, egress_times: np.ndarray, lost: int) -> None:
        """Fold in one chunk's outcomes (delivered ingress/egress, lost count)."""
        if len(ingress_times):
            self._delay_chunks.append(egress_times - ingress_times)
            self._delays = None
        self.delivered_packets += len(ingress_times)
        self.lost_packets += lost

    @property
    def offered_packets(self) -> int:
        """Packets that entered the domain."""
        return self.delivered_packets + self.lost_packets

    @property
    def loss_rate(self) -> float:
        """True fraction of entering packets dropped inside the domain."""
        offered = self.offered_packets
        return self.lost_packets / offered if offered else 0.0

    @property
    def lost(self) -> range:
        """Sized stand-in for the dropped-packet set (only its length is used)."""
        return range(self.lost_packets)

    def delays(self) -> np.ndarray:
        """True per-packet delays of the packets the domain delivered."""
        if self._delays is None:
            self._delays = (
                np.concatenate(self._delay_chunks)
                if self._delay_chunks
                else np.empty(0, dtype=float)
            )
            self._delay_chunks = [self._delays] if len(self._delays) else []
        return self._delays

    def delay_quantiles(self, quantiles: Sequence[float]) -> dict[float, float]:
        """True delay quantiles of the delivered packets."""
        delays = self.delays()
        if delays.size == 0:
            return {quantile: 0.0 for quantile in quantiles}
        return {quantile: float(np.quantile(delays, quantile)) for quantile in quantiles}

    def snapshot(self) -> dict:
        """A picklable snapshot of the accumulated ground truth."""
        return {
            "lost_packets": int(self.lost_packets),
            "delivered_packets": int(self.delivered_packets),
            "delays": self.delays().copy(),
        }

    def restore(self, state: dict) -> None:
        """Restore the accumulator to a :meth:`snapshot` (in place)."""
        self.lost_packets = int(state["lost_packets"])
        self.delivered_packets = int(state["delivered_packets"])
        delays = np.asarray(state["delays"], dtype=float)
        self._delay_chunks = [delays] if len(delays) else []
        self._delays = None


class _StreamSorter:
    """Stable time-sort over an append-only stream, emitted up to a watermark.

    Rows are appended in arrival order with a sort key; :meth:`push` emits the
    stable-sorted prefix whose keys are ``<= watermark`` (the caller
    guarantees every future key exceeds the watermark) and holds the rest.
    The emitted concatenation across pushes equals one stable whole-stream
    argsort — including tie-breaks, because held rows stay ordered ahead of
    later arrivals.
    """

    def __init__(self) -> None:
        self._batch: PacketBatch | None = None
        self._keys: np.ndarray | None = None

    @property
    def pending(self) -> int:
        return 0 if self._keys is None else len(self._keys)

    def push(
        self, batch: PacketBatch, keys: np.ndarray, watermark: float
    ) -> tuple[PacketBatch, np.ndarray]:
        if self._batch is not None:
            if len(batch):
                batch = PacketBatch.concat([self._batch, batch])
                keys = np.concatenate([self._keys, keys])
            else:
                batch, keys = self._batch, self._keys
            self._batch = self._keys = None
        if len(batch) == 0:
            return batch, keys
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        cut = int(np.searchsorted(sorted_keys, watermark, side="right"))
        if cut < len(order):
            # Detach the held rows from their source chunk so a handful of
            # in-flight packets never pins a whole chunk (plus its digests).
            self._batch = batch.take(order[cut:]).detach_root()
            self._keys = sorted_keys[cut:]
        if cut == len(order) and np.array_equal(order, np.arange(len(order))):
            return batch, keys  # already sorted and fully emittable
        return batch.take(order[:cut]), sorted_keys[:cut]

    def predigest(self, digesters: Sequence[PacketDigester]) -> None:
        """Digest the held rows, so splices with later chunks keep digests.

        Rows restored from (or captured into) a checkpoint may share their
        batch with it, so the digests land on a copy.
        """
        if self._batch is None or not digesters:
            return
        held = replace(self._batch, _digest_cache=dict(self._batch._digest_cache))
        for digester in digesters:
            digester.digest_batch(held)
        self._batch = held

    def snapshot(self) -> dict:
        """The held rows and their keys (shared, never mutated in place)."""
        return {"batch": self._batch, "keys": self._keys}

    def restore(self, state: dict) -> None:
        self._batch = state["batch"]
        self._keys = state["keys"]


class _DomainStage:
    """Streaming twin of ``PathScenario._traverse_domain_batch``."""

    def __init__(
        self,
        scenario: PathScenario,
        domain: Domain,
        condition: SegmentCondition,
        truth: StreamingTruth | None,
    ) -> None:
        self._scenario = scenario
        self._condition = condition
        self._truth = truth
        self._egress_sorter = _StreamSorter()
        self._reordering = condition.reordering
        self._reorder_sorter = (
            _StreamSorter() if self._reordering.max_lateness != 0.0 else None
        )
        self.sorters = tuple(
            sorter
            for sorter in (self._egress_sorter, self._reorder_sorter)
            if sorter is not None
        )

    def push(
        self, batch: PacketBatch, times: np.ndarray, watermark: float
    ) -> tuple[PacketBatch, np.ndarray]:
        if len(batch):
            lost, egress_times = self._scenario.domain_effects_batch(
                self._condition, batch, times
            )
            delivered = ~lost
            if self._truth is not None:
                self._truth.record(
                    times[delivered], egress_times[delivered], int(lost.sum())
                )
            survivors = np.flatnonzero(delivered)
            batch = batch.take(survivors)
            times = egress_times[survivors]
        # Natural reordering from variable delays, then any extra reordering —
        # the model's perturbation draws run in sorted-egress order, exactly
        # as one whole-stream ``reordering.apply`` would consume them.
        emitted, emitted_times = self._egress_sorter.push(batch, times, watermark)
        if self._reorder_sorter is None:
            return emitted, emitted_times
        perturbed = self._reordering.perturb(emitted_times)
        return self._reorder_sorter.push(emitted, perturbed, watermark)

    def snapshot(self) -> dict:
        state = {
            "delay": self._condition.delay_model.state_snapshot(),
            "loss": self._condition.loss_model.state_snapshot(),
            "reordering": self._reordering.state_snapshot(),
            "egress": self._egress_sorter.snapshot(),
            "reorder": None,
        }
        if self._reorder_sorter is not None:
            state["reorder"] = self._reorder_sorter.snapshot()
        return state

    def restore(self, state: dict) -> None:
        self._condition.delay_model.state_restore(state["delay"])
        self._condition.loss_model.state_restore(state["loss"])
        self._reordering.state_restore(state["reordering"])
        self._egress_sorter.restore(state["egress"])
        if self._reorder_sorter is not None:
            self._reorder_sorter.restore(state["reorder"])


class _LinkStage:
    """Streaming twin of ``PathScenario._traverse_link_batch``."""

    def __init__(self, link, key: tuple[int, int], losses: dict) -> None:
        self._link = link
        self._lost: set[int] = losses.setdefault(key, set())
        self._sorter = _StreamSorter()
        self.sorters = (self._sorter,)

    def push(
        self, batch: PacketBatch, times: np.ndarray, watermark: float
    ) -> tuple[PacketBatch, np.ndarray]:
        if len(batch):
            delivered, far_times = self._link.transfer_batch(times)
            if not delivered.all():
                self._lost.update(int(uid) for uid in batch.uid[~delivered])
                batch = batch.take(np.flatnonzero(delivered))
            times = far_times
        return self._sorter.push(batch, times, watermark)

    def snapshot(self) -> dict:
        return {
            "link": self._link.state_snapshot(),
            "sorter": self._sorter.snapshot(),
            "lost": set(self._lost),
        }

    def restore(self, state: dict) -> None:
        self._link.state_restore(state["link"])
        self._sorter.restore(state["sorter"])
        # ``_lost`` aliases the stream's ``link_losses`` entry; mutate in
        # place so both views stay the same set object.
        self._lost.clear()
        self._lost.update(state["lost"])


class ScenarioStream:
    """Drives a :class:`PathScenario` chunk-by-chunk with exact parity.

    Push source chunks in send order (:meth:`push`), then :meth:`flush` once;
    each call returns the newly emitted ``(hop_id, batch, times)`` observation
    spans per HOP, whose concatenation over the whole run is bit-identical to
    :meth:`PathScenario.run_batch`'s per-HOP observations.  Memory is bounded
    by the chunk size plus the packets in flight inside delay/reorder
    holdback windows.

    ``predigest`` lists the packet digesters in play; each chunk is digested
    once up front so every downstream slice and splice reuses the cached
    values (the one-hash-per-packet property of the batch engine).  A stream
    built without digesters can take them on mid-run (:meth:`digest_with`).
    """

    def __init__(
        self,
        scenario: PathScenario,
        collect_truth: bool = True,
        predigest: Sequence[PacketDigester] = (),
    ) -> None:
        check_scenario_streamable(scenario)
        self.scenario = scenario
        self.link_losses: dict[tuple[int, int], set[int]] = {}
        self.domain_truth: dict[str, StreamingTruth] = {}
        #: Chunks consumed so far — the chunk index the stream expects next.
        self.chunks_pushed = 0
        self._predigest = tuple(dict.fromkeys(predigest))
        self._watermark = -np.inf
        self._template: PacketBatch | None = None

        if collect_truth:
            for segment in scenario.path.domain_segments():
                name = segment[0].name
                self.domain_truth[name] = StreamingTruth(domain=name)

        self._stages: list[tuple[object, HOP]] = []
        hops = scenario.path.hops
        for index, hop in enumerate(hops[:-1]):
            next_hop = hops[index + 1]
            if hop.domain == next_hop.domain:
                stage = _DomainStage(
                    scenario,
                    hop.domain,
                    scenario.condition_for(hop.domain),
                    self.domain_truth.get(hop.domain.name),
                )
            else:
                link = scenario.topology.link_between(hop, next_hop)
                stage = _LinkStage(
                    link, (hop.hop_id, next_hop.hop_id), self.link_losses
                )
            self._stages.append((stage, next_hop))

    def digest_with(self, digesters: Sequence[PacketDigester]) -> None:
        """Predigest every later chunk with ``digesters`` too.

        Rows already held back are digested now, once: the holdback buffers
        splice them into later chunks, and a splice keeps only the digests
        every part carries, so undigested held rows would make every
        downstream HOP re-hash every spliced chunk.
        """
        self._predigest = tuple(dict.fromkeys((*self._predigest, *digesters)))
        for stage, _ in self._stages:
            for sorter in stage.sorters:
                sorter.predigest(self._predigest)

    def push(self, chunk: PacketBatch) -> list[tuple[int, PacketBatch, np.ndarray]]:
        """Propagate one source chunk; return the emissions at every HOP."""
        if len(chunk) == 0:
            return []
        for digester in self._predigest:
            digester.digest_batch(chunk)
        self.chunks_pushed += 1
        self._template = chunk
        self._watermark = float(chunk.send_time[-1])
        return self._advance(chunk, chunk.send_time.copy(), self._watermark)

    def flush(self) -> list[tuple[int, PacketBatch, np.ndarray]]:
        """Drain every holdback buffer (end of stream)."""
        if self._template is None:
            return []
        empty = self._template.take(np.empty(0, dtype=np.int64))
        return self._advance(empty, np.empty(0, dtype=np.float64), np.inf)

    def _advance(
        self, batch: PacketBatch, times: np.ndarray, watermark: float
    ) -> list[tuple[int, PacketBatch, np.ndarray]]:
        source_hop = self.scenario.path.hops[0]
        emissions = [(source_hop.hop_id, batch, times)]
        current_batch, current_times = batch, times
        for stage, next_hop in self._stages:
            current_batch, current_times = stage.push(
                current_batch, current_times, watermark
            )
            emissions.append((next_hop.hop_id, current_batch, current_times))
        return emissions

    def checkpoint(self, include_truth: bool = False) -> StreamCheckpoint:
        """Freeze the complete propagation state at the current chunk boundary.

        The checkpoint is a plain picklable value; a fresh stream over the
        same scenario spec that :meth:`seek`\\ s to it continues the run
        bit-identically — same emissions, same holdback contents, same model
        draws.  ``include_truth`` additionally snapshots the ground-truth
        accumulators (needed when the seeked stream must keep collecting
        truth, e.g. a mid-interval campaign resume); plan-pass checkpoints
        shipped to truthless shard workers leave it off.
        """
        template = None
        if self._template is not None:
            template = self._template.take(np.empty(0, dtype=np.int64)).detach_root()
        truth = None
        if include_truth:
            truth = {
                name: accumulator.snapshot()
                for name, accumulator in self.domain_truth.items()
            }
        return StreamCheckpoint(
            chunk_index=self.chunks_pushed,
            watermark=float(self._watermark),
            template=template,
            stages=tuple(stage.snapshot() for stage, _ in self._stages),
            clocks=tuple(
                hop.clock.state_snapshot() for hop in self.scenario.path.hops
            ),
            truth=truth,
        )

    def seek(self, checkpoint: StreamCheckpoint) -> None:
        """Restore a freshly constructed stream to ``checkpoint``'s state.

        After seeking, the next :meth:`push` must carry chunk
        ``checkpoint.chunk_index`` of the same trace
        (:meth:`SyntheticTrace.iter_batches` with ``start_chunk``) — from
        there on the stream is bit-identical to one that processed the whole
        prefix.  Only a pristine stream may seek; the stream must be built
        over the same scenario spec the checkpoint was captured from.  The
        restored holdback rows are digested with the stream's ``predigest``
        digesters (a checkpoint may come from a digest-free stream).
        """
        if self.chunks_pushed or self._template is not None:
            raise ValueError("seek requires a freshly constructed stream")
        if len(checkpoint.stages) != len(self._stages):
            raise ValueError(
                f"checkpoint has {len(checkpoint.stages)} stage snapshots, "
                f"stream has {len(self._stages)} stages — different scenario?"
            )
        hops = self.scenario.path.hops
        if len(checkpoint.clocks) != len(hops):
            raise ValueError(
                f"checkpoint has {len(checkpoint.clocks)} clock snapshots, "
                f"path has {len(hops)} hops — different scenario?"
            )
        for (stage, _), state in zip(self._stages, checkpoint.stages):
            stage.restore(state)
        self.digest_with(self._predigest)
        for hop, state in zip(hops, checkpoint.clocks):
            hop.clock.state_restore(state)
        self._watermark = checkpoint.watermark
        self._template = checkpoint.template
        self.chunks_pushed = checkpoint.chunk_index
        if checkpoint.truth is not None:
            for name, state in checkpoint.truth.items():
                accumulator = self.domain_truth.get(name)
                if accumulator is not None:
                    accumulator.restore(state)


def check_scenario_streamable(scenario: PathScenario) -> None:
    """Raise ``ValueError`` naming every component streaming cannot drive exactly."""
    problems: list[str] = []
    for segment in scenario.path.domain_segments():
        name = segment[0].name
        condition = scenario.condition_for(name)
        if not getattr(condition.delay_model, "streamable", False):
            problems.append(
                f"domain {name!r}: delay model "
                f"{type(condition.delay_model).__name__} is not streamable"
            )
        if not getattr(condition.loss_model, "streamable", False):
            problems.append(
                f"domain {name!r}: loss model "
                f"{type(condition.loss_model).__name__} is not streamable"
            )
        if getattr(condition.reordering, "max_lateness", None) is None:
            problems.append(
                f"domain {name!r}: reordering model "
                f"{type(condition.reordering).__name__} declares no max_lateness"
            )
    if problems:
        raise ValueError(
            "the streaming engine cannot reproduce this scenario exactly: "
            + "; ".join(problems)
            + " (use the batch engine, or make the component streamable)"
        )


@dataclass
class StreamingResult:
    """Everything a streaming run produced.

    ``truth_for``/``domain_truth`` mirror the batch observation's read API so
    result summarization code accepts either.  ``session`` is the (parent)
    VPM session whose bus now holds the published reports.
    """

    reports: dict[int, HOPReport]
    session: VPMSession
    domain_truth: dict[str, StreamingTruth]
    link_losses: dict[tuple[int, int], set[int]]
    chunk_size: int
    shards: int
    chunks: int
    #: Chunks each shard actually evaluated, in shard order.  With seekable
    #: sharding this equals each shard's span size (zero prefix replay) and
    #: makes span skew visible; ``(chunks,)`` for a single-process run.
    shard_chunks: tuple[int, ...] = ()

    def truth_for(self, domain: Domain | str) -> StreamingTruth:
        name = domain.name if isinstance(domain, Domain) else domain
        return self.domain_truth[name]


def _collectors_by_hop(session: VPMSession) -> dict[int, HOPCollector]:
    collectors: dict[int, HOPCollector] = {}
    for agent in session.agents.values():
        for hop_id in agent.hop_ids:
            collectors[hop_id] = agent.collector(hop_id)
    return collectors


def _session_digesters(session: VPMSession) -> list[PacketDigester]:
    return list(
        dict.fromkeys(
            agent.collector(hop_id).config.digester
            for agent in session.agents.values()
            for hop_id in agent.hop_ids
        )
    )


def _shard_bounds(total_chunks: int, shards: int) -> list[int]:
    """Chunk-index boundaries of each shard's span, remainder balanced.

    ``divmod`` spread: the first ``total_chunks % shards`` shards take one
    extra chunk each, so span sizes differ by at most one (any empty spans —
    more shards than chunks — land at the end, where the flush-owning last
    span still drains the holdbacks correctly).
    """
    base, extra = divmod(total_chunks, shards)
    bounds = [0]
    for shard in range(shards):
        bounds.append(bounds[-1] + base + (1 if shard < extra else 0))
    return bounds


def _merge_shard_states(
    shard_states: list[dict[int, HOPCollector]],
    session,
) -> None:
    """Fold shard collector states in stream order and install the result.

    ``shard_states`` are the shards' collectors in shard (= stream) order.
    The merged collectors replace the session agents'.
    """
    merged = shard_states[0]
    for state in shard_states[1:]:
        for hop_id, collector in merged.items():
            collector.merge(state[hop_id])
    for agent in session.agents.values():
        for hop_id in agent.hop_ids:
            agent.replace_collector(hop_id, merged[hop_id])


_Emissions = list[tuple[int, PacketBatch, np.ndarray]]


def _advance_round(
    streams: Sequence[ScenarioStream], iterators: Sequence, flush: bool = False
) -> list[_Emissions]:
    """Push one chunk per path (or flush every stream) and gather emissions.

    An exhausted path (a shorter trace) contributes nothing until the flush.
    """
    per_path: list[_Emissions] = []
    for stream, iterator in zip(streams, iterators):
        if flush:
            per_path.append(stream.flush())
            continue
        chunk = next(iterator, None)
        per_path.append(stream.push(chunk) if chunk is not None else [])
    return per_path


def _feed(collectors: dict[int, HOPCollector], per_path: Iterable[_Emissions]) -> None:
    """Feed one round's emissions, merged across paths per HOP, to collectors."""
    spans_by_hop: dict[int, list[tuple[PacketBatch, np.ndarray]]] = {}
    for emissions in per_path:
        for hop_id, batch, times in emissions:
            if len(batch) and hop_id in collectors:
                spans_by_hop.setdefault(hop_id, []).append((batch, times))
    for hop_id, spans in spans_by_hop.items():
        collectors[hop_id].observe_batch(*merge_hop_streams(spans))


def _run_shard(
    setup: Callable,
    chunk_size: int,
    start: int,
    stop: int,
    checkpoints: tuple[StreamCheckpoint, ...] | None,
) -> tuple[dict[int, HOPCollector], int]:
    """Worker entry point: rebuild the cell, seek every path's stream to
    chunk ``start``, feed exactly chunk rounds ``[start, stop)``, and return
    the collector states plus the rounds evaluated.

    Zero prefix replay: the trace iterators seek by fast-forwarding flow
    counters (no materialization) and the streams seek by restoring the
    coordinator's checkpoints (no propagation), so the worker's cost is
    proportional to its own span.  The chunk index is synchronized across
    paths, so a span covers a contiguous sub-stream of every path — what
    stream-order collector merging requires.  Workers never flush: the
    coordinator evaluates the last span.
    """
    cell = setup()
    collectors = _collectors_by_hop(cell.session)
    digesters = _session_digesters(cell.session)
    scenarios, traces = cell.path_inputs()
    streams = [
        ScenarioStream(scenario, collect_truth=False, predigest=digesters)
        for scenario in scenarios
    ]
    if checkpoints is not None:
        for stream, checkpoint in zip(streams, checkpoints):
            stream.seek(checkpoint)
    iterators = [trace.iter_batches(chunk_size, start_chunk=start) for trace in traces]
    for _ in range(start, stop):
        _feed(collectors, _advance_round(streams, iterators))
    return collectors, stop - start


def _run_interval(
    setup: Callable, cell, chunk_size: int, shards: int, total_chunks: int
) -> tuple[list[ScenarioStream], tuple[int, ...]]:
    """Evaluate one interval of ``cell`` over ``shards`` contiguous chunk spans.

    The coordinator drives every path's stream (ground truth included) in
    lockstep.  Up to the last span's boundary it neither hashes nor collects:
    at each earlier span's start it checkpoints the streams and submits the
    span to one of ``shards - 1`` worker processes (:func:`_run_shard`,
    which rebuilds the cell with ``setup``; unused when ``shards`` is 1).
    At the last boundary it starts
    digesting, feeds the session's collectors for the last span, and owns
    the flush.  Worker states then merge in stream order, the coordinator's
    last, into the session.  Returns the coordinator's streams (their truth
    and link losses cover the whole interval) and the chunks each span
    evaluated.
    """
    scenarios, traces = cell.path_inputs()
    streams = [ScenarioStream(scenario, collect_truth=True) for scenario in scenarios]
    iterators = [trace.iter_batches(chunk_size) for trace in traces]
    bounds = _shard_bounds(total_chunks, shards)
    pool = ProcessPoolExecutor(max_workers=shards - 1) if shards > 1 else nullcontext()
    with pool:
        futures = []
        for start, stop in zip(bounds[:-2], bounds[1:-1]):
            checkpoints = tuple(stream.checkpoint() for stream in streams) if start else None
            futures.append(
                pool.submit(_run_shard, setup, chunk_size, start, stop, checkpoints)
            )
            # Propagate the span (for truth, and to reach the next boundary).
            for _ in range(start, stop):
                _advance_round(streams, iterators)
        collectors = _collectors_by_hop(cell.session)
        digesters = _session_digesters(cell.session)
        for stream in streams:
            stream.digest_with(digesters)
        for _ in range(bounds[-2], total_chunks):
            _feed(collectors, _advance_round(streams, iterators))
        _feed(collectors, _advance_round(streams, iterators, flush=True))
        shard_results = [future.result() for future in futures]
    _merge_shard_states(
        [*(state for state, _ in shard_results), collectors], cell.session
    )
    shard_chunks = (
        *(evaluated for _, evaluated in shard_results),
        total_chunks - bounds[-2],
    )
    return streams, shard_chunks


@dataclass
class RunnerCheckpoint:
    """A mid-interval resume point for a ``shards=1`` streaming run.

    Couples the stream's propagation state (with ground truth) to the VPM
    collectors' state at the same chunk boundary, so a killed run can resume
    exactly where it stopped: install the collectors, seek the stream, and
    continue — receipts, estimates and truth come out byte-identical to an
    uninterrupted run.  A checkpoint handed to a ``checkpoint_sink`` holds
    *live* collector references; persist it (pickle) before the run
    continues, or the state will advance underneath it.
    """

    stream: StreamCheckpoint
    collectors: dict[int, HOPCollector]
    chunk_size: int


class StreamingRunner:
    """Drives a VPM measurement interval chunk-by-chunk, optionally sharded.

    Parameters
    ----------
    setup:
        Either a ready :class:`StreamingCell` or a zero-argument callable
        returning one.  With ``shards > 1`` it must be a *picklable* callable
        (worker processes rebuild the cell themselves — a cell is a pure
        function of its seeds, so every rebuild is identical).
    chunk_size:
        Trace packets per chunk; memory scales with this, results never
        depend on it.
    shards:
        Number of contiguous chunk spans processed in parallel.  The
        coordinator propagates the interval (models + holdbacks, ground truth
        included) but, up to the last span, neither hashes nor collects: at
        each earlier span's start it captures a :class:`StreamCheckpoint` and
        dispatches the span to a pool of ``shards - 1`` worker processes,
        which seek to their boundary and evaluate only their own span.  The
        coordinator evaluates the last span itself (digesting the held-back
        rows once as it switches) and owns the flush.  Collector states merge
        in stream order, the coordinator's last, before reports are
        generated — byte-identical to ``shards=1``.
    checkpoint_every:
        With ``shards=1``: hand a :class:`RunnerCheckpoint` to
        ``checkpoint_sink`` after every ``checkpoint_every`` chunks (skipping
        the final boundary, where finishing beats resuming).
    checkpoint_sink:
        Callable receiving those mid-interval checkpoints.
    resume_from:
        A previously captured :class:`RunnerCheckpoint` (typically pickled
        across a process boundary); the run installs its collectors, seeks
        its stream state, and continues from its chunk boundary.

    :meth:`run` returns a :class:`StreamingResult`; afterwards the session's
    receipt bus holds the published reports, exactly as after
    :meth:`VPMSession.run`.
    """

    def __init__(
        self,
        setup: StreamingCell | Callable[[], StreamingCell],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shards: int = 1,
        checkpoint_every: int | None = None,
        checkpoint_sink: Callable[[RunnerCheckpoint], None] | None = None,
        resume_from: RunnerCheckpoint | None = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > 1 and not callable(setup):
            raise ValueError(
                "shards > 1 needs a picklable zero-argument setup callable so "
                "worker processes can rebuild the cell"
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if shards > 1 and (
            checkpoint_every is not None
            or checkpoint_sink is not None
            or resume_from is not None
        ):
            raise ValueError("mid-interval checkpointing requires shards=1")
        if resume_from is not None and resume_from.chunk_size != chunk_size:
            raise ValueError(
                f"resume checkpoint was captured at chunk_size="
                f"{resume_from.chunk_size}, runner uses {chunk_size}"
            )
        self._setup = setup
        self.chunk_size = int(chunk_size)
        self.shards = int(shards)
        self.checkpoint_every = checkpoint_every
        self._checkpoint_sink = checkpoint_sink
        self._resume_from = resume_from

    def run(self) -> StreamingResult:
        cell = self._setup() if callable(self._setup) else self._setup
        total_chunks = -(-cell.trace.config.packet_count // self.chunk_size)
        if self.shards == 1:
            return self._run_single(cell, total_chunks)
        return self._run_sharded(cell, total_chunks)

    def _run_single(self, cell: StreamingCell, total_chunks: int) -> StreamingResult:
        session = cell.session
        resume = self._resume_from
        start_chunk = 0
        if resume is not None:
            # Install the checkpointed collectors *before* wiring digesters,
            # so predigested chunks land in the caches the restored
            # collectors actually consult.
            for agent in session.agents.values():
                for hop_id in agent.hop_ids:
                    agent.replace_collector(hop_id, resume.collectors[hop_id])
            start_chunk = resume.stream.chunk_index
        collectors = _collectors_by_hop(session)
        stream = ScenarioStream(
            cell.scenario,
            collect_truth=True,
            predigest=_session_digesters(session),
        )
        if resume is not None:
            stream.seek(resume.stream)
        for chunk in cell.trace.iter_batches(self.chunk_size, start_chunk=start_chunk):
            _feed(collectors, [stream.push(chunk)])
            if (
                self._checkpoint_sink is not None
                and self.checkpoint_every
                and stream.chunks_pushed < total_chunks
                and stream.chunks_pushed % self.checkpoint_every == 0
            ):
                self._checkpoint_sink(
                    RunnerCheckpoint(
                        stream=stream.checkpoint(include_truth=True),
                        collectors=collectors,
                        chunk_size=self.chunk_size,
                    )
                )
        _feed(collectors, [stream.flush()])
        reports = session.collect_reports()
        return StreamingResult(
            reports=reports,
            session=session,
            domain_truth=stream.domain_truth,
            link_losses=stream.link_losses,
            chunk_size=self.chunk_size,
            shards=1,
            chunks=total_chunks,
            shard_chunks=(stream.chunks_pushed - start_chunk,),
        )

    def _run_sharded(self, cell: StreamingCell, total_chunks: int) -> StreamingResult:
        streams, shard_chunks = _run_interval(
            self._setup, cell, self.chunk_size, self.shards, total_chunks
        )
        reports = cell.session.collect_reports()
        return StreamingResult(
            reports=reports,
            session=cell.session,
            domain_truth=streams[0].domain_truth,
            link_losses=streams[0].link_losses,
            chunk_size=self.chunk_size,
            shards=self.shards,
            chunks=total_chunks,
            shard_chunks=shard_chunks,
        )
