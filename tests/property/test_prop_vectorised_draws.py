"""Property tests: the vectorised simulator draws match their scalar oracles.

Two simulator hot spots run without per-packet or per-flow Python loops, and
both must reproduce the scalar code's RNG stream exactly, so seeds, goldens
and stores never move:

* ``GilbertElliottLossModel.drops_batch`` against per-packet ``drops()``:
  same loss flags, same final chain state, same next RNG draw, over random
  transition/loss probabilities (0 and 1 included), arbitrary chunk splits,
  a snapshot/restore between chunks, and span boundaries;
* ``FlowGenerator``'s columnar path against its per-flow ``_make_flow``
  loop: same flows and same RNG state, including a block whose bounded
  integer draw takes Lemire's rejection branch (the block falls back to the
  loop) and a non-PCG64 bit generator (every block takes the loop).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.flows import FlowGenerator, FlowGeneratorConfig
from repro.traffic.loss_models import GilbertElliottLossModel
from repro.traffic.trace import default_prefix_pair

probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


class _ShortSpanModel(GilbertElliottLossModel):
    """Uniform blocks of 7 packets, so chunks cross span boundaries."""

    _SPAN = 7


class TestGilbertElliottBatch:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([GilbertElliottLossModel, _ShortSpanModel]),
        probabilities,
        probabilities,
        probabilities,
        probabilities,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=400), max_size=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_drops_batch_matches_scalar_drops(
        self, model_class, p, r, loss_good, loss_bad, seed, start_bad, chunks, snapshot_at
    ):
        oracle = GilbertElliottLossModel(p, r, loss_good, loss_bad, seed=seed)
        model = model_class(p, r, loss_good, loss_bad, seed=seed)
        oracle._in_bad_state = model._in_bad_state = start_bad
        expected = [oracle.drops(index) for index in range(sum(chunks))]

        flags: list[bool] = []
        for position, chunk in enumerate(chunks):
            if position == snapshot_at:
                # A checkpoint between chunks: wander off, then resume.
                snapshot = model.state_snapshot()
                model.drops_batch(0, 50)
                model.state_restore(snapshot)
            flags.extend(model.drops_batch(len(flags), chunk).tolist())

        assert flags == expected
        assert model._in_bad_state == oracle._in_bad_state
        assert model._rng.random() == oracle._rng.random()


def _scalar(generator: FlowGenerator) -> FlowGenerator:
    """Force every block of ``generator`` through the per-flow loop."""
    generator._block_columns = lambda *args: None
    return generator


def _spied(generator: FlowGenerator) -> list[bool]:
    """Record, per block, whether the columnar path declined it."""
    declined: list[bool] = []
    columnar = generator._block_columns

    def spy(*args):
        block = columnar(*args)
        declined.append(block is None)
        return block

    generator._block_columns = spy
    return declined


def _halves_drawn(before: dict, after: dict, flows: int) -> int:
    """32-bit halves the bounded draws of ``flows`` flows took, from PCG64 states.

    Each flow draws two full-word doubles; the bounded integers take 32-bit
    halves, so the count follows from how far the stream moved and from the
    buffered half before and after.  Five halves a flow means no rejection.
    """
    probe = np.random.PCG64()
    probe.state = before
    buffered_before, buffered_after = before["has_uint32"], after["has_uint32"]
    # Fewest raw words the block can have taken: five halves a flow.
    words = 2 * flows + (5 * flows - buffered_before + 1) // 2
    probe.advance(words)
    while probe.state["state"] != after["state"]:
        probe.random_raw()
        words += 1
    return 2 * (words - 2 * flows) + buffered_before - buffered_after


def _rejections(generator: FlowGenerator) -> list[int]:
    """Record, per block run through the per-flow loop, its rejected draws."""
    rejections: list[int] = []
    loop = generator._block_flows
    bit_generator = generator._rng.bit_generator

    def spy(*args):
        before = bit_generator.state
        flows = loop(*args)
        drawn = _halves_drawn(before, bit_generator.state, len(flows))
        rejections.append(drawn - 5 * len(flows))
        return flows

    generator._block_flows = spy
    return rejections


class TestFlowColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=20_000),
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_columns_match_per_flow_loop(
        self, seed, total, mean_flow_size, tcp_fraction, duration
    ):
        config = FlowGeneratorConfig(
            mean_flow_size=mean_flow_size, tcp_fraction=tcp_fraction, duration=duration
        )
        pair = default_prefix_pair()
        oracle = _scalar(FlowGenerator(pair, config=config, seed=seed))
        generator = FlowGenerator(pair, config=config, seed=seed)
        declined = _spied(generator)
        rejections = _rejections(generator)

        assert generator.generate(total) == oracle.generate(total)
        # The columnar path declines a block only when a draw is rejected.
        assert len(rejections) == declined.count(True)
        assert all(count > 0 for count in rejections)
        assert generator._rng.bit_generator.state == oracle._rng.bit_generator.state
        assert generator._next_flow_id == oracle._next_flow_id

    def test_rejected_draw_falls_back_to_the_loop(self):
        # Seed 66 draws, in its third block of a 20k-packet population, a
        # port whose Lemire draw is rejected and redrawn.
        pair = default_prefix_pair()
        oracle = _scalar(FlowGenerator(pair, seed=66))
        generator = FlowGenerator(pair, seed=66)
        declined = _spied(generator)
        rejections = _rejections(generator)

        assert generator.generate(20_000) == oracle.generate(20_000)
        assert declined[2] and declined.count(True) == 1
        assert rejections == [1]
        assert generator._rng.bit_generator.state == oracle._rng.bit_generator.state

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_other_bit_generators_take_the_loop(self, seed):
        pair = default_prefix_pair()
        oracle = _scalar(FlowGenerator(pair, seed=np.random.Generator(np.random.MT19937(seed))))
        generator = FlowGenerator(pair, seed=np.random.Generator(np.random.MT19937(seed)))
        declined = _spied(generator)

        assert generator.generate(3000) == oracle.generate(3000)
        assert declined and all(declined)
        assert generator._rng.random() == oracle._rng.random()
