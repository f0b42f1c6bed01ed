"""Tunable aggregation — Algorithm 2 plus the AggTrans patch-up (Section 6).

Each HOP breaks the packet stream of a path into **aggregates** at
hash-selected cutting points: a packet whose digest exceeds the partition
threshold ``δ`` closes the current aggregate and starts a new one.  Because a
HOP with a lower ``δ`` cuts at (at least) all the points a HOP with a higher
``δ`` cuts at, independently tuned HOPs "never produce partially overlapping
aggregate sets" (Section 6.2), which keeps their receipts joinable.

To survive bounded reordering (Section 6.3), every closed aggregate's receipt
also carries ``AggTrans``: the packet IDs observed within the safety window
``J`` on either side of the cutting point.  A verifier uses these windows to
migrate packets across misaligned boundaries (see
:func:`repro.core.partition.aligned_aggregates`).

:class:`Aggregator` keeps constant state per open aggregate plus a sliding
window of the last ``J`` seconds of packet IDs; per-packet work is constant.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

import numpy as np

from repro.core.receipts import AggregateReceipt, PathID
from repro.net.hashing import MASK64, as_digest_array, threshold_for_rate
from repro.util.validation import check_non_negative, check_positive

__all__ = ["AggregatorConfig", "Aggregator"]

_DIGEST = itemgetter(0)
_TIME = itemgetter(1)


def _entries_until(entries, limit: float, ordered: bool) -> list[tuple[int, float]]:
    """The ``(digest, time)`` entries observed at or before ``limit``.

    ``ordered`` entries are time-sorted, so they are a bisected prefix;
    otherwise every entry is tested, keeping observation order.
    """
    if ordered:
        return list(islice(entries, bisect_right(entries, limit, key=_TIME)))
    return [entry for entry in entries if entry[1] <= limit]


def _entries_since(entries, start: float, ordered: bool) -> list[tuple[int, float]]:
    """The ``(digest, time)`` entries observed at or after ``start``."""
    if ordered:
        return list(islice(entries, bisect_left(entries, start, key=_TIME), None))
    return [entry for entry in entries if entry[1] >= start]


@dataclass(frozen=True)
class AggregatorConfig:
    """Configuration of a HOP's aggregator.

    Attributes
    ----------
    expected_aggregate_size:
        Target number of packets per aggregate.  The partition threshold ``δ``
        is set so a packet becomes a cutting point with probability
        ``1 / expected_aggregate_size`` (the paper's evaluation uses one
        aggregate per 100,000 packets).
    reorder_window:
        The safety inter-arrival threshold ``J`` (seconds): packets observed
        more than ``J`` apart are assumed never to be reordered.  The paper
        conservatively suggests 10 ms.
    """

    expected_aggregate_size: int = 100_000
    reorder_window: float = 0.01

    def __post_init__(self) -> None:
        check_positive("expected_aggregate_size", self.expected_aggregate_size)
        check_non_negative("reorder_window", self.reorder_window)

    @property
    def partition_rate(self) -> float:
        """Probability that a packet is a cutting point."""
        return 1.0 / self.expected_aggregate_size

    @property
    def partition_threshold(self) -> int:
        """The 64-bit threshold ``δ`` for the configured aggregate size."""
        return threshold_for_rate(self.partition_rate)


@dataclass
class _OpenAggregate:
    """Mutable state of the aggregate currently being filled."""

    first_pkt_id: int
    last_pkt_id: int
    pkt_count: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    time_sum: float = 0.0

    def add(self, digest: int, time: float) -> None:
        if self.pkt_count == 0:
            self.start_time = time
        self.last_pkt_id = digest
        self.pkt_count += 1
        self.end_time = time
        self.time_sum += time


@dataclass
class _PendingReceipt:
    """A closed aggregate waiting for its post-cut AggTrans window to fill."""

    aggregate: _OpenAggregate
    cut_time: float
    trans_before: tuple[int, ...]
    trans_after: list[int] = field(default_factory=list)


class Aggregator:
    """Per-path implementation of Algorithm 2 (``Partition``) with AggTrans.

    Call :meth:`observe` for every packet of the path in observation order
    (passing the packet digest and the HOP's local timestamp), then
    :meth:`receipts` to drain the finalized aggregate receipts, and
    :meth:`flush` at the end of a reporting period to close the open
    aggregate.
    """

    def __init__(self, config: AggregatorConfig | None = None) -> None:
        self.config = config or AggregatorConfig()
        self._partition_threshold = self.config.partition_threshold
        self._window = self.config.reorder_window
        self._open: _OpenAggregate | None = None
        self._recent: deque[tuple[int, float]] = deque()
        self._pending: list[_PendingReceipt] = []
        self._finalized: list[_PendingReceipt] = []
        self._observed_packets = 0
        self._cut_count = 0
        self._max_window_occupancy = 0
        # Boundary bookkeeping for merge(): the previous shard needs to know
        # what happened in this aggregator's first J seconds (its packets feed
        # the predecessor's AggTrans windows and sliding-window occupancy) and
        # whether the very first packet would have cut the predecessor's open
        # aggregate (a cut-digest first packet records no cut on a fresh
        # aggregator because there is nothing to close yet).
        self._first_time: float | None = None
        self._last_time: float | None = None
        self._lead: list[tuple[int, float]] = []
        self._first_cut_suppressed = False
        self._flushed = False
        # Whether no observation so far came earlier than one before it; then
        # ``_lead`` and ``_recent`` are time-sorted and merge() can bisect.
        self._ordered = True

    # -- observation ---------------------------------------------------------

    def observe(self, digest: int, time: float) -> bool:
        """Process one observed packet.

        Returns ``True`` if the packet was a cutting point (started a new
        aggregate).
        """
        if not 0 <= digest <= MASK64:
            raise ValueError(f"digest must be a 64-bit value, got {digest!r}")
        is_cut = digest > self._partition_threshold
        if self._observed_packets == 0:
            self._first_time = time
            self._first_cut_suppressed = is_cut and (
                self._open is None or self._open.pkt_count == 0
            )
        if self._first_time is not None and time <= self._first_time + self._window:
            self._lead.append((digest, time))
        if self._last_time is None or time > self._last_time:
            self._last_time = time
        elif time < self._last_time:
            self._ordered = False
        self._observed_packets += 1
        self._finalize_pending(time)
        if is_cut and self._open is not None and self._open.pkt_count > 0:
            self._cut_count += 1
            trans_before = tuple(
                pkt_id for pkt_id, seen in self._recent if seen >= time - self._window
            )
            self._pending.append(
                _PendingReceipt(
                    aggregate=self._open, cut_time=time, trans_before=trans_before
                )
            )
            self._open = _OpenAggregate(first_pkt_id=digest, last_pkt_id=digest)
        elif self._open is None:
            self._open = _OpenAggregate(first_pkt_id=digest, last_pkt_id=digest)

        self._open.add(digest, time)

        # Feed the post-cut window of any aggregate closed less than J ago.
        for pending in self._pending:
            if time <= pending.cut_time + self._window:
                pending.trans_after.append(digest)

        # Maintain the sliding window of the last J seconds of packet IDs.
        self._recent.append((digest, time))
        while self._recent and self._recent[0][1] < time - self._window:
            self._recent.popleft()
        if len(self._recent) > self._max_window_occupancy:
            self._max_window_occupancy = len(self._recent)
        return is_cut

    def observe_batch(self, digests, times) -> np.ndarray:
        """Vectorized :meth:`observe` over arrays of digests and timestamps.

        Cutting points are found with one array comparison; the packets of
        each aggregate are folded into the open-aggregate state with array
        reductions, and the AggTrans windows around each cutting point are
        extracted with binary searches.  Python-level work is proportional to
        the number of cutting points, not packets.

        The fast path requires observation timestamps that are non-decreasing
        (within the batch and relative to earlier observations) — which is how
        HOPs observe traffic.  Batches that violate this fall back to the
        scalar loop.  Either way the resulting state matches repeated scalar
        :meth:`observe` calls exactly — same aggregates, cutting points,
        AggTrans windows and counters — except that an aggregate's
        ``time_sum`` may differ in the last few ulps on the fast path (it is
        accumulated via prefix sums rather than one packet at a time).  Both
        paths interleave freely on one instance.

        Returns the boolean cutting-point mask for the batch.
        """
        digest_array = as_digest_array(digests)
        time_array = np.asarray(times, dtype=np.float64)
        if digest_array.shape != time_array.shape:
            raise ValueError(
                f"digests and times must align, got {digest_array.shape} vs {time_array.shape}"
            )
        count = len(digest_array)
        cut_mask = digest_array > np.uint64(self._partition_threshold)
        if count == 0:
            return cut_mask

        # The sliding window carried in from earlier observations, as arrays.
        carry_digests = np.array(list(map(_DIGEST, self._recent)), dtype=np.uint64)
        carry_times = np.array(list(map(_TIME, self._recent)), dtype=np.float64)
        sorted_within = bool(np.all(time_array[1:] >= time_array[:-1]))
        sorted_carry = bool(np.all(carry_times[1:] >= carry_times[:-1])) and (
            not len(carry_times) or carry_times[-1] <= time_array[0]
        )
        if not (sorted_within and sorted_carry):
            for digest, time in zip(digest_array.tolist(), time_array.tolist()):
                self.observe(digest, time)
            return cut_mask

        window = self._window
        if self._observed_packets == 0:
            self._first_time = float(time_array[0])
            self._first_cut_suppressed = bool(cut_mask[0]) and (
                self._open is None or self._open.pkt_count == 0
            )
        if self._first_time is not None:
            lead_covered = int(
                np.searchsorted(time_array, self._first_time + window, side="right")
            )
            if lead_covered:
                self._lead.extend(
                    zip(
                        digest_array[:lead_covered].tolist(),
                        time_array[:lead_covered].tolist(),
                    )
                )
        self._observed_packets += count
        last_time = float(time_array[-1])
        if self._last_time is None or last_time > self._last_time:
            self._last_time = last_time

        # 1. Feed and finalize carry-in pending receipts (their cuts precede
        #    every cut in this batch, so they finalize first — same order as
        #    the scalar loop).
        still_pending: list[_PendingReceipt] = []
        for pending in self._pending:
            deadline = pending.cut_time + window
            covered = int(np.searchsorted(time_array, deadline, side="right"))
            if covered:
                pending.trans_after.extend(digest_array[:covered].tolist())
            if last_time > deadline:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)
        self._pending = still_pending

        # Concatenated view of the sliding window carried in from earlier
        # observations plus this batch, for the pre-cut AggTrans windows.
        all_digests = np.concatenate([carry_digests, digest_array])
        all_times = np.concatenate([carry_times, time_array])
        offset = len(carry_digests)

        prefix_sums = np.concatenate([[0.0], np.cumsum(time_array)])

        def add_span(lo: int, hi: int) -> None:
            """Fold packets [lo, hi) of the batch into the open aggregate."""
            if hi <= lo:
                return
            if self._open is None:
                self._open = _OpenAggregate(
                    first_pkt_id=int(digest_array[lo]), last_pkt_id=int(digest_array[lo])
                )
            aggregate = self._open
            if aggregate.pkt_count == 0:
                aggregate.start_time = float(time_array[lo])
            aggregate.last_pkt_id = int(digest_array[hi - 1])
            aggregate.pkt_count += hi - lo
            aggregate.end_time = float(time_array[hi - 1])
            aggregate.time_sum += float(prefix_sums[hi] - prefix_sums[lo])

        # 2. Walk the cutting points; everything between two cuts is folded in
        #    with array reductions.
        segment_start = 0
        for position in np.flatnonzero(cut_mask):
            position = int(position)
            add_span(segment_start, position)
            if self._open is not None and self._open.pkt_count > 0:
                self._cut_count += 1
                cut_time = float(time_array[position])
                lo = int(np.searchsorted(all_times, cut_time - window, side="left"))
                trans_before = tuple(all_digests[lo : offset + position].tolist())
                hi = int(np.searchsorted(time_array, cut_time + window, side="right"))
                pending = _PendingReceipt(
                    aggregate=self._open,
                    cut_time=cut_time,
                    trans_before=trans_before,
                    trans_after=digest_array[position:hi].tolist(),
                )
                if last_time > cut_time + window:
                    self._finalized.append(pending)
                else:
                    self._pending.append(pending)
                self._open = _OpenAggregate(
                    first_pkt_id=int(digest_array[position]),
                    last_pkt_id=int(digest_array[position]),
                )
            add_span(position, position + 1)
            segment_start = position + 1
        add_span(segment_start, count)

        # 3. Rebuild the sliding window of the last J seconds and the peak
        #    occupancy statistic (occupancy after packet i = packets since the
        #    first one within J of it, including carried-in entries).
        window_starts = np.searchsorted(all_times, time_array - window, side="left")
        occupancies = np.arange(offset + 1, offset + count + 1) - window_starts
        peak = int(occupancies.max())
        if peak > self._max_window_occupancy:
            self._max_window_occupancy = peak
        keep_from = int(window_starts[-1])
        self._recent = deque(
            zip(all_digests[keep_from:].tolist(), all_times[keep_from:].tolist())
        )
        return cut_mask

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "Aggregator") -> "Aggregator":
        """Fold ``other``'s state into this aggregator, in stream order.

        ``other`` must have observed the packets that *follow* this
        aggregator's in the same (time-ordered) path stream, starting from a
        fresh instance — the shard-parallel execution contract.  The merge
        stitches the boundary exactly as Algorithm 2 would have processed the
        concatenated stream:

        * this aggregator's open aggregate is continued by ``other``'s first
          aggregate (or closed by it, when ``other``'s first packet was a
          cutting point);
        * AggTrans windows spanning the boundary are completed on both sides
          (our pending receipts receive ``other``'s first ``J`` seconds of
          packet IDs; ``other``'s early cutting points receive our trailing
          sliding-window IDs);
        * the sliding window, its peak occupancy, and all counters are
          reconciled.

        Receipts, windows, counters and buffer statistics come out identical
        to a single whole-stream run — except an aggregate's ``time_sum``,
        which (as with the batch fast path) may differ in the last ulps
        because partial sums are added in a different order.  The operation is
        associative, so shard grouping never matters.  ``other`` is consumed
        and must not be used afterwards; merge both before ``flush``.
        Returns ``self``.
        """
        if other.config != self.config:
            raise ValueError(
                f"cannot merge aggregators with different configs: "
                f"{self.config} vs {other.config}"
            )
        if self._flushed or other._flushed:
            raise ValueError("cannot merge flushed aggregators; merge before flush")
        if other._observed_packets == 0:
            return self
        if self._observed_packets == 0:
            self._adopt(other)
            return self
        if other._first_time < self._last_time:
            raise ValueError(
                "merge requires time-ordered spans: other's first observation "
                f"({other._first_time}) precedes this aggregator's last "
                f"({self._last_time})"
            )
        window = self._window
        # Time-sorted windows (the usual case) are sliced by bisection.
        ordered = self._ordered and other._ordered

        # 1. Our pending receipts' post-cut windows extend into other's span.
        for pending in self._pending:
            deadline = pending.cut_time + window
            pending.trans_after.extend(
                map(_DIGEST, _entries_until(other._lead, deadline, ordered))
            )
        still_pending: list[_PendingReceipt] = []
        for pending in self._pending:
            if other._last_time > pending.cut_time + window:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)

        # 2. The boundary: other's first packet either cuts our open
        #    aggregate or continues it.
        boundary: _PendingReceipt | None = None
        if other._first_cut_suppressed:
            cut_time = other._first_time
            self._cut_count += 1
            boundary = _PendingReceipt(
                aggregate=self._open,
                cut_time=cut_time,
                trans_before=tuple(
                    map(_DIGEST, _entries_since(self._recent, cut_time - window, ordered))
                ),
                trans_after=list(
                    map(_DIGEST, _entries_until(other._lead, cut_time + window, ordered))
                ),
            )
            if other._last_time > cut_time + window:
                self._finalized.append(boundary)
                boundary = None
        else:
            first_aggregate = other._first_aggregate()
            first_aggregate.first_pkt_id = self._open.first_pkt_id
            first_aggregate.start_time = self._open.start_time
            first_aggregate.pkt_count += self._open.pkt_count
            first_aggregate.time_sum += self._open.time_sum

        # 3. Other's early cutting points may have truncated pre-cut windows:
        #    prepend our trailing sliding-window IDs where the window reaches
        #    back across the boundary.
        for pending in other._finalized + other._pending:
            if pending.cut_time - window <= self._last_time:
                carried = tuple(
                    map(
                        _DIGEST,
                        _entries_since(self._recent, pending.cut_time - window, ordered),
                    )
                )
                if carried:
                    pending.trans_before = carried + pending.trans_before

        # 4. Sliding-window occupancy: other's first J seconds of packets also
        #    counted our still-in-window trailing packets.
        #    Counted by bisection over one sorted copy of our window times,
        #    which is exact whatever their order.
        if other._lead:
            left_times = np.sort(np.array(list(map(_TIME, self._recent)), dtype=np.float64))
            lead_times = np.array(list(map(_TIME, other._lead)), dtype=np.float64)
            carried = len(left_times) - np.searchsorted(
                left_times, lead_times - window, side="left"
            )
            peak = int((np.arange(1, len(lead_times) + 1) + carried).max())
            if peak > self._max_window_occupancy:
                self._max_window_occupancy = peak
        if other._max_window_occupancy > self._max_window_occupancy:
            self._max_window_occupancy = other._max_window_occupancy

        # 5. Adopt other's receipts, window and cursors.
        self._finalized.extend(other._finalized)
        self._pending = still_pending + ([boundary] if boundary is not None else [])
        self._pending.extend(other._pending)
        merged_recent = deque(
            _entries_since(self._recent, other._last_time - window, ordered)
        )
        merged_recent.extend(other._recent)
        self._recent = merged_recent
        self._open = other._open
        self._observed_packets += other._observed_packets
        self._cut_count += other._cut_count
        if other._first_time <= self._first_time + window:
            self._lead.extend(
                _entries_until(other._lead, self._first_time + window, ordered)
            )
        self._last_time = other._last_time
        self._ordered = ordered
        return self

    def _first_aggregate(self) -> _OpenAggregate:
        """The first aggregate this aggregator opened (still referenced by its
        earliest receipt, or still open)."""
        if self._finalized:
            return self._finalized[0].aggregate
        if self._pending:
            return self._pending[0].aggregate
        return self._open

    def _adopt(self, other: "Aggregator") -> None:
        """Copy ``other``'s state wholesale (merge into an empty aggregator)."""
        self._open = other._open
        self._recent = deque(other._recent)
        self._pending = list(other._pending)
        self._finalized = list(other._finalized)
        self._observed_packets = other._observed_packets
        self._cut_count = other._cut_count
        self._max_window_occupancy = other._max_window_occupancy
        self._first_time = other._first_time
        self._last_time = other._last_time
        self._lead = list(other._lead)
        self._first_cut_suppressed = other._first_cut_suppressed
        self._ordered = other._ordered

    def state_digest(self) -> str:
        """A stable hex digest of the aggregator's complete observable state.

        ``time_sum`` enters rounded to 10 significant digits — it is the one
        field accumulated in different orders by the scalar, batch and
        streaming paths (documented float tolerance); everything else hashes
        exact bit patterns.
        """

        def aggregate_state(aggregate: _OpenAggregate | None):
            if aggregate is None or aggregate.pkt_count == 0:
                return None
            return (
                aggregate.first_pkt_id,
                aggregate.last_pkt_id,
                aggregate.pkt_count,
                aggregate.start_time.hex(),
                aggregate.end_time.hex(),
                f"{aggregate.time_sum:.9e}",
            )

        def receipt_state(pending: _PendingReceipt):
            return (
                aggregate_state(pending.aggregate),
                pending.cut_time.hex(),
                pending.trans_before,
                tuple(pending.trans_after),
            )

        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(
            repr(
                (
                    self.config.expected_aggregate_size,
                    self.config.reorder_window,
                    aggregate_state(self._open),
                    [(digest, seen.hex()) for digest, seen in self._recent],
                    [receipt_state(pending) for pending in self._pending],
                    [receipt_state(pending) for pending in self._finalized],
                    self._observed_packets,
                    self._cut_count,
                    self._max_window_occupancy,
                )
            ).encode()
        )
        return hasher.hexdigest()

    def _finalize_pending(self, now: float) -> None:
        """Move pending receipts whose post-cut window has elapsed to finalized."""
        still_pending: list[_PendingReceipt] = []
        for pending in self._pending:
            if now > pending.cut_time + self._window:
                self._finalized.append(pending)
            else:
                still_pending.append(pending)
        self._pending = still_pending

    # -- reporting -------------------------------------------------------------

    def flush(self) -> None:
        """Close the open aggregate and finalize all pending receipts.

        Called at the end of a reporting period (or of the simulation); the
        final, possibly partial aggregate is reported like any other.
        """
        self._flushed = True
        if self._open is not None and self._open.pkt_count > 0:
            trans_before = tuple(pkt_id for pkt_id, _ in self._recent)
            self._finalized.extend(self._pending)
            self._pending = []
            self._finalized.append(
                _PendingReceipt(
                    aggregate=self._open,
                    cut_time=self._open.end_time,
                    trans_before=trans_before,
                )
            )
            self._open = None
        else:
            self._finalized.extend(self._pending)
            self._pending = []

    def receipts(self, path_id: PathID, reset: bool = True) -> list[AggregateReceipt]:
        """Return the finalized aggregate receipts accumulated so far."""
        receipts = [
            AggregateReceipt(
                path_id=path_id,
                first_pkt_id=pending.aggregate.first_pkt_id,
                last_pkt_id=pending.aggregate.last_pkt_id,
                pkt_count=pending.aggregate.pkt_count,
                start_time=pending.aggregate.start_time,
                end_time=pending.aggregate.end_time,
                time_sum=pending.aggregate.time_sum,
                trans_before=pending.trans_before,
                trans_after=tuple(pending.trans_after),
            )
            for pending in self._finalized
        ]
        if reset:
            self._finalized = []
        return receipts

    # -- introspection ----------------------------------------------------------

    @property
    def observed_packets(self) -> int:
        """Total packets observed."""
        return self._observed_packets

    @property
    def cut_count(self) -> int:
        """Number of cutting points observed (closed aggregates)."""
        return self._cut_count

    @property
    def open_aggregate_size(self) -> int:
        """Packets in the currently open aggregate."""
        return self._open.pkt_count if self._open is not None else 0

    @property
    def max_window_occupancy(self) -> int:
        """Largest sliding-window occupancy seen (packets within J seconds)."""
        return self._max_window_occupancy

    def __repr__(self) -> str:
        return (
            f"Aggregator(expected_aggregate_size={self.config.expected_aggregate_size}, "
            f"reorder_window={self.config.reorder_window}, "
            f"observed={self._observed_packets}, cuts={self._cut_count})"
        )
