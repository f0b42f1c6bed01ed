"""Property tests for mergeable collector state and streaming parity.

The shard-parallel streaming engine rests on three algebraic facts, each
hammered here with hypothesis-generated streams and arbitrary split points:

* **split-run-merge == whole-run** — observing a stream in one go or
  splitting it at any boundaries into fresh samplers/aggregators and merging
  them back yields bit-identical state (``state_digest``) and receipts;
* **merge is associative** — folding shard states left-to-right, right-to-
  left, or in a balanced grouping produces identical state, so shard
  scheduling order never matters;
* **trace chunking is invariant** — ``SyntheticTrace.iter_batches`` yields
  chunks whose concatenation equals ``packet_batch()`` for every chunk size,
  and the streaming scenario driver reproduces ``run_batch``'s per-HOP
  observations for every chunking.

``time_sum`` is covered by the ``state_digest`` comparison at its documented
10-significant-digit tolerance; every other quantity is exact.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregator, AggregatorConfig
from repro.core.hop import HOPCollector, HOPConfig
from repro.core.receipts import PathID
from repro.core.sampling import DelaySampler, SamplerConfig
from repro.net.hashing import MASK64
from repro.net.topology import figure1_topology
from repro.traffic.trace import SyntheticTrace, TraceConfig, default_prefix_pair


def _path_id() -> PathID:
    return PathID(
        prefix_pair=default_prefix_pair(),
        reporting_hop=2,
        previous_hop=1,
        next_hop=3,
        max_diff=1e-3,
    )


@st.composite
def digest_time_stream(draw, max_size=400):
    """A (digests, sorted times) stream plus split boundaries into >= 2 parts."""
    size = draw(st.integers(min_value=0, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, MASK64, size=size, dtype=np.uint64)
    # Quantized times produce exact duplicates, including across split
    # boundaries — the nastiest case for stable tie-breaking.
    if draw(st.booleans()):
        times = np.sort(rng.integers(0, max(1, size // 3) + 1, size=size) * 2.5e-4)
    else:
        times = np.sort(rng.random(size) * 0.2)
    part_count = draw(st.integers(min_value=2, max_value=5))
    boundaries = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=size),
                min_size=part_count - 1,
                max_size=part_count - 1,
            )
        )
    )
    bounds = [0] + boundaries + [size]
    return digests, times, bounds


def _assert_same_aggregator(merged: Aggregator, whole: Aggregator) -> None:
    """Same state and, after flushing both, the same receipts.

    Receipts (including AggTrans windows and order) must agree exactly,
    ``time_sum`` at its documented tolerance.
    """
    assert merged.state_digest() == whole.state_digest()
    path_id = _path_id()
    whole.flush()
    merged.flush()
    whole_receipts = whole.receipts(path_id)
    merged_receipts = merged.receipts(path_id)
    assert len(merged_receipts) == len(whole_receipts)
    for mine, reference in zip(merged_receipts, whole_receipts):
        assert mine.agg_id == reference.agg_id
        assert mine.pkt_count == reference.pkt_count
        assert mine.start_time == reference.start_time
        assert mine.end_time == reference.end_time
        assert mine.trans_before == reference.trans_before
        assert mine.trans_after == reference.trans_after
        assert np.isclose(mine.time_sum, reference.time_sum, rtol=1e-9, atol=1e-12)


def _observe(component, digests, times, batched: bool) -> None:
    if batched:
        component.observe_batch(digests, times)
    else:
        for digest, time in zip(digests, times):
            component.observe(int(digest), float(time))


class TestSamplerMerge:
    @settings(max_examples=60, deadline=None)
    @given(digest_time_stream(), st.booleans())
    def test_split_run_merge_equals_whole_run(self, stream, batched):
        digests, times, bounds = stream
        config = SamplerConfig(sampling_rate=0.4, marker_rate=0.08)
        whole = DelaySampler(config)
        _observe(whole, digests, times, batched)

        merged = DelaySampler(config)
        for start, stop in zip(bounds, bounds[1:]):
            part = DelaySampler(config)
            _observe(part, digests[start:stop], times[start:stop], batched)
            merged.merge(part)

        assert merged.state_digest() == whole.state_digest()
        path_id = _path_id()
        assert merged.receipt(path_id) == whole.receipt(path_id)

    @settings(max_examples=60, deadline=None)
    @given(digest_time_stream())
    def test_merge_is_associative(self, stream):
        digests, times, bounds = stream
        config = SamplerConfig(sampling_rate=0.4, marker_rate=0.08)
        parts = []
        for start, stop in zip(bounds, bounds[1:]):
            part = DelaySampler(config)
            part.observe_batch(digests[start:stop], times[start:stop])
            parts.append(part)

        left_fold = copy.deepcopy(parts[0])
        for part in parts[1:]:
            left_fold.merge(copy.deepcopy(part))

        right_fold = copy.deepcopy(parts[-1])
        for part in reversed(parts[:-1]):
            right_fold = copy.deepcopy(part).merge(right_fold)

        assert left_fold.state_digest() == right_fold.state_digest()


class TestAggregatorMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        digest_time_stream(),
        st.booleans(),
        st.sampled_from([0.0, 2.5e-4, 1e-3, 1e-2]),
        st.integers(min_value=2, max_value=40),
    )
    def test_split_run_merge_equals_whole_run(self, stream, batched, window, agg_size):
        digests, times, bounds = stream
        config = AggregatorConfig(expected_aggregate_size=agg_size, reorder_window=window)
        whole = Aggregator(config)
        _observe(whole, digests, times, batched)

        merged = Aggregator(config)
        for start, stop in zip(bounds, bounds[1:]):
            part = Aggregator(config)
            _observe(part, digests[start:stop], times[start:stop], batched)
            merged.merge(part)

        _assert_same_aggregator(merged, whole)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.integers(min_value=0, max_value=400), max_size=3),
        st.booleans(),
    )
    def test_long_lead_unsorted_window_merge_equals_whole_run(self, seed, cuts, batched):
        """A jittery clock upstream of a long lead.

        The first part's last half-window of times is shuffled, so its
        sliding window reaches the merge out of order.  The rest of the
        stream (split further at ``cuts``) spans under half a window, so all
        of it is lead, and each lead packet counts a different share of that
        window.  Times are whole ticks of 2**-12 s and the window 2**-7 s, so
        window edges land exactly on earlier times.  No shuffled entry expires
        within the stream, so the whole-stream run keeps the same window and
        both must agree.
        """
        tick = 2.0**-12
        window = 32 * tick
        rng = np.random.default_rng(seed)
        first = np.sort(rng.integers(0, 200, size=400)) * tick
        jittered = first >= first[-1] - window / 2
        first[jittered] = rng.permutation(first[jittered])
        rest = first.max() + np.sort(rng.integers(0, 16, size=400)) * tick
        times = np.concatenate([first, rest])
        digests = rng.integers(0, MASK64, size=len(times), dtype=np.uint64)
        config = AggregatorConfig(expected_aggregate_size=20, reorder_window=window)
        whole = Aggregator(config)
        _observe(whole, digests, times, batched)

        merged = Aggregator(config)
        bounds = [0, 400] + sorted(400 + cut for cut in cuts) + [len(times)]
        for start, stop in zip(bounds, bounds[1:]):
            part = Aggregator(config)
            _observe(part, digests[start:stop], times[start:stop], batched)
            merged.merge(part)

        # Receipts of the shuffled span may end before they start, so only
        # the (complete) state is compared.
        assert merged.state_digest() == whole.state_digest()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_merge_occupancy_counts_an_unsorted_window(self, seed):
        """Each lead packet of the later part counts the earlier part's
        window entries at most ``J`` older than itself, in whatever order a
        jittery clock left them."""
        window = 0.01
        rng = np.random.default_rng(seed)
        first = np.sort(rng.random(300)) * 0.05 + rng.random(300) * window
        rest = first.max() + np.sort(rng.random(300)) * (window / 2)
        config = AggregatorConfig(expected_aggregate_size=20, reorder_window=window)
        left, right = Aggregator(config), Aggregator(config)
        _observe(left, rng.integers(0, MASK64, size=300, dtype=np.uint64), first, False)
        right.observe_batch(rng.integers(0, MASK64, size=300, dtype=np.uint64), rest)

        left_times = [seen for _, seen in left._recent]
        assert left_times != sorted(left_times)
        expected = max(
            left._max_window_occupancy,
            right._max_window_occupancy,
            *(
                position + 1 + sum(seen >= time - window for seen in left_times)
                for position, (_, time) in enumerate(right._lead)
            ),
        )
        assert left.merge(right)._max_window_occupancy == expected

    @settings(max_examples=60, deadline=None)
    @given(digest_time_stream(), st.sampled_from([0.0, 1e-3, 1e-2]))
    def test_merge_is_associative(self, stream, window):
        digests, times, bounds = stream
        config = AggregatorConfig(expected_aggregate_size=7, reorder_window=window)
        parts = []
        for start, stop in zip(bounds, bounds[1:]):
            part = Aggregator(config)
            part.observe_batch(digests[start:stop], times[start:stop])
            parts.append(part)

        left_fold = copy.deepcopy(parts[0])
        for part in parts[1:]:
            left_fold.merge(copy.deepcopy(part))

        right_fold = copy.deepcopy(parts[-1])
        for part in reversed(parts[:-1]):
            right_fold = copy.deepcopy(part).merge(right_fold)

        assert left_fold.state_digest() == right_fold.state_digest()

    def test_merge_rejects_mismatched_config_and_flushed_state(self):
        first = Aggregator(AggregatorConfig(expected_aggregate_size=5))
        second = Aggregator(AggregatorConfig(expected_aggregate_size=6))
        try:
            first.merge(second)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("config mismatch not rejected")
        third = Aggregator(AggregatorConfig(expected_aggregate_size=5))
        third.observe(1, 0.0)
        third.flush()
        try:
            Aggregator(AggregatorConfig(expected_aggregate_size=5)).merge(third)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("flushed merge not rejected")


class TestCollectorMerge:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=4),
    )
    def test_collector_split_feed_merge_equals_whole(self, seed, parts):
        _, path = figure1_topology()
        hop = path.hops[1]
        config = HOPConfig(
            sampler=SamplerConfig(sampling_rate=0.3, marker_rate=0.05),
            aggregator=AggregatorConfig(expected_aggregate_size=50),
        )
        trace = SyntheticTrace(config=TraceConfig(packet_count=600), seed=seed)
        batch = trace.packet_batch()

        whole = HOPCollector(hop, config)
        whole.register_path(path)
        whole.observe_batch(batch, batch.send_time)

        rng = np.random.default_rng(seed)
        boundaries = sorted(int(value) for value in rng.integers(0, 601, size=parts - 1))
        bounds = [0] + boundaries + [600]
        merged = None
        for start, stop in zip(bounds, bounds[1:]):
            collector = HOPCollector(hop, config)
            collector.register_path(path)
            span = batch.take(np.arange(start, stop))
            collector.observe_batch(span, span.send_time)
            merged = collector if merged is None else merged.merge(collector)

        assert merged.state_digest() == whole.state_digest()
        assert merged.observed_packets == whole.observed_packets
        assert merged.observed_bytes == whole.observed_bytes


class TestTraceChunking:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=900),
        st.sampled_from(["poisson", "cbr", "mmpp"]),
    )
    def test_iter_batches_concat_equals_packet_batch(self, seed, chunk_size, process):
        config = TraceConfig(packet_count=800, arrival_process=process)
        full = SyntheticTrace(config=config, seed=seed).packet_batch()
        parts = list(SyntheticTrace(config=config, seed=seed).iter_batches(chunk_size))
        assert sum(len(part) for part in parts) == len(full)
        for column in (
            "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
            "ip_id", "length", "uid", "send_time", "flow_id",
        ):
            concatenated = np.concatenate([getattr(part, column) for part in parts])
            assert np.array_equal(concatenated, getattr(full, column)), column
        assert np.array_equal(
            np.concatenate([part.payload for part in parts]), full.payload
        )
