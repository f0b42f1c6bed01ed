"""Flow-level traffic synthesis.

The paper drives its evaluation from CAIDA Tier-1 backbone traces; since those
traces are not redistributable, we synthesize traffic with the statistical
properties the VPM mechanisms are sensitive to:

* many concurrent five-tuples (so digests are diverse and hash-selected
  markers / cutting points are spread uniformly across the stream);
* heavy-tailed flow sizes (a few elephants, many mice), matching backbone
  flow-size distributions;
* a realistic packet-size mix (small ACK-sized, medium, and MTU-sized modes
  averaging roughly 400 bytes, the figure Section 7.1 assumes).

:class:`FlowGenerator` produces :class:`Flow` descriptors; the trace module
expands them into interleaved packet sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.net.prefixes import PrefixPair
from repro.util.rng import make_rng
from repro.util.validation import check_positive, check_probability

__all__ = ["Flow", "FlowColumns", "FlowGeneratorConfig", "FlowGenerator", "PACKET_SIZE_MODES"]

# (size in bytes, probability) — a three-mode approximation of the classic
# Internet packet-size distribution: TCP ACKs, default-MSS segments and
# MTU-sized segments.  The mean is ~400 bytes, matching Section 7.1.
PACKET_SIZE_MODES: tuple[tuple[int, float], ...] = (
    (40, 0.50),
    (576, 0.25),
    (1500, 0.25),
)

#: Destination ports a flow picks from, besides one random high port.
WELL_KNOWN_PORTS: tuple[int, ...] = (80, 443, 53, 25, 8080)


@dataclass(frozen=True, slots=True)
class Flow:
    """A single five-tuple flow.

    Attributes
    ----------
    flow_id:
        Simulation-unique identifier.
    src_ip, dst_ip, src_port, dst_port, protocol:
        The five-tuple; addresses are drawn from the path's prefix pair.
    packet_count:
        Number of packets the flow contributes.
    start_time:
        Time (seconds) of the flow's first packet.
    mean_interarrival:
        Mean spacing between this flow's packets (seconds).
    """

    flow_id: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    packet_count: int
    start_time: float
    mean_interarrival: float

    def __post_init__(self) -> None:
        if self.packet_count <= 0:
            raise ValueError(f"packet_count must be positive, got {self.packet_count}")
        if self.mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be positive, got {self.mean_interarrival}"
            )


@dataclass(frozen=True)
class FlowColumns:
    """A flow population column by column: one array per :class:`Flow` field."""

    flow_id: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    packet_count: np.ndarray
    start_time: np.ndarray
    mean_interarrival: np.ndarray

    def __len__(self) -> int:
        return len(self.flow_id)

    @classmethod
    def from_flows(cls, flows: list[Flow]) -> "FlowColumns":
        return cls(
            *(
                np.asarray([getattr(flow, field.name) for flow in flows])
                for field in fields(cls)
            )
        )

    @classmethod
    def concatenate(cls, blocks: list["FlowColumns"]) -> "FlowColumns":
        return cls(
            *(
                np.concatenate([getattr(block, field.name) for block in blocks])
                for field in fields(cls)
            )
        )

    def flows(self) -> list[Flow]:
        columns = [getattr(self, field.name).tolist() for field in fields(self)]
        return [Flow(*values) for values in zip(*columns)]


@dataclass(frozen=True)
class FlowGeneratorConfig:
    """Configuration of the flow synthesizer.

    Attributes
    ----------
    mean_flow_size:
        Mean packets per flow.  Flow sizes follow a bounded Pareto whose mean
        is calibrated to this value, producing the heavy tail observed in
        backbone traffic.
    pareto_alpha:
        Tail index of the bounded-Pareto flow-size distribution (1 < α < 2
        gives the classic heavy tail).
    max_flow_size:
        Upper bound on the number of packets in one flow.
    tcp_fraction:
        Fraction of flows carried over TCP (the rest are UDP).
    duration:
        Time span (seconds) over which flows start.
    """

    mean_flow_size: float = 20.0
    pareto_alpha: float = 1.3
    max_flow_size: int = 10_000
    tcp_fraction: float = 0.85
    duration: float = 1.0

    def __post_init__(self) -> None:
        check_positive("mean_flow_size", self.mean_flow_size)
        check_positive("pareto_alpha", self.pareto_alpha)
        check_positive("max_flow_size", self.max_flow_size)
        check_probability("tcp_fraction", self.tcp_fraction)
        check_positive("duration", self.duration)


class FlowGenerator:
    """Synthesizes a population of flows for one (source, destination) prefix pair."""

    def __init__(
        self,
        prefix_pair: PrefixPair,
        config: FlowGeneratorConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.prefix_pair = prefix_pair
        self.config = config or FlowGeneratorConfig()
        self._rng = make_rng(seed)
        self._next_flow_id = 0

    def _flow_sizes(self, count: int) -> np.ndarray:
        """Draw heavy-tailed flow sizes (packets per flow)."""
        config = self.config
        # Bounded Pareto with minimum 1 packet; scale so the mean approximates
        # mean_flow_size, then clip at max_flow_size.
        alpha = config.pareto_alpha
        raw = (self._rng.pareto(alpha, size=count) + 1.0)
        if alpha > 1.0:
            theoretical_mean = alpha / (alpha - 1.0)
        else:
            theoretical_mean = 10.0
        sizes = raw * (config.mean_flow_size / theoretical_mean)
        sizes = np.clip(np.round(sizes), 1, config.max_flow_size)
        return sizes.astype(int)

    def generate(self, total_packets: int) -> list[Flow]:
        """Generate flows whose sizes sum to at least ``total_packets``."""
        return self.generate_columns(total_packets).flows()

    def generate_columns(self, total_packets: int) -> FlowColumns:
        """:meth:`generate` as columns, without a per-flow loop where possible.

        Each block of flow sizes is turned into flows by :meth:`_block_columns`,
        which decodes the block's per-flow draws from one raw-word draw.  When
        it cannot (another bit generator, a rejected bounded-integer draw), the
        block falls back to the per-flow :meth:`_make_flow` loop, which defines
        the draw order and stays the oracle.  Either way the RNG stream and
        the flows are identical.
        """
        if total_packets <= 0:
            raise ValueError(f"total_packets must be positive, got {total_packets}")
        config = self.config
        blocks: list[FlowColumns] = []
        generated = 0
        expected_flows = max(4, int(total_packets / config.mean_flow_size))
        while generated < total_packets:
            batch = max(4, expected_flows // 4)
            sizes = self._flow_sizes(batch)
            block = self._block_columns(sizes, generated, total_packets)
            if block is None:
                block = FlowColumns.from_flows(
                    self._block_flows(sizes, generated, total_packets)
                )
            blocks.append(block)
            generated += int(block.packet_count.sum())
        return FlowColumns.concatenate(blocks)

    def _block_flows(self, sizes: np.ndarray, generated: int, total_packets: int) -> list[Flow]:
        """One block of flows, made one at a time."""
        flows: list[Flow] = []
        for size in sizes:
            if generated >= total_packets:
                break
            size = int(min(size, total_packets - generated)) or 1
            flows.append(self._make_flow(size))
            generated += size
        return flows

    def _block_columns(
        self, sizes: np.ndarray, generated: int, total_packets: int
    ) -> FlowColumns | None:
        """One block of flows decoded from raw PCG64 words, or ``None``.

        Per flow, :meth:`_make_flow` draws two doubles (one 64-bit word each)
        then five bounded integers below 2**32.  Those take 32-bit halves
        through the bit generator's persistent buffer: a fresh word's low half
        first, its high half kept for the next 32-bit draw.  So flows
        alternate between five and four raw words, and each integer is
        Lemire's ``(u32 * n) >> 32``.  Returns ``None``, with the generator
        untouched, if the bit generator is not ``PCG64``, a size is below
        one packet, or any integer draw would take Lemire's rejection branch.
        """
        bit_generator = self._rng.bit_generator
        if type(bit_generator) is not np.random.PCG64 or sizes.min() < 1:
            return None
        # The flows this block contributes; the last one is cut to the total.
        ends = generated + np.cumsum(sizes, dtype=np.int64)
        used = min(int(np.searchsorted(ends, total_packets)) + 1, len(sizes))
        packet_count = np.diff(np.minimum(ends[:used], total_packets), prepend=generated)

        state = bit_generator.state
        buffered = state["has_uint32"]
        word_count = np.where((np.arange(used) + buffered) % 2 == 0, 5, 4)
        first_word = np.cumsum(word_count) - word_count
        words = bit_generator.random_raw(int(word_count.sum()))
        is_double = np.zeros(len(words), dtype=bool)
        is_double[first_word] = True
        is_double[first_word + 1] = True
        doubles = ((words[is_double] >> 11) * 2.0**-53).reshape(used, 2)
        integer_words = words[~is_double]
        halves = np.empty(buffered + 2 * len(integer_words), dtype=np.uint64)
        if buffered:
            halves[0] = state["uinteger"]
        halves[buffered::2] = integer_words & 0xFFFFFFFF
        halves[buffered + 1 :: 2] = integer_words >> 32
        draws = halves[: 5 * used].reshape(used, 5)

        # The five bounded draws' range sizes, in _make_flow's order.
        ports = (1 << 16) - 1024
        ranges = np.array(
            [1 << 16, 1 << 16, ports, ports, len(WELL_KNOWN_PORTS) + 1], dtype=np.uint64
        )
        scaled = draws * ranges
        thresholds = ((1 << 32) - ranges) % ranges
        if ((scaled & 0xFFFFFFFF) < thresholds).any():
            bit_generator.state = state
            return None
        values = (scaled >> 32).astype(np.int64)
        state = bit_generator.state
        state["has_uint32"] = len(halves) - 5 * used
        state["uinteger"] = int(halves[-1])
        bit_generator.state = state

        config = self.config
        flow_span = np.minimum(config.duration, 0.01 + 0.002 * packet_count)
        source, destination = self.prefix_pair.source, self.prefix_pair.destination
        first_id = self._next_flow_id
        self._next_flow_id += used
        return FlowColumns(
            flow_id=np.arange(first_id, first_id + used, dtype=np.int64),
            src_ip=source.network | (values[:, 0] % (1 << (32 - source.length))),
            dst_ip=destination.network | (values[:, 1] % (1 << (32 - destination.length))),
            src_port=1024 + values[:, 2],
            dst_port=np.choose(values[:, 4], (*WELL_KNOWN_PORTS, 1024 + values[:, 3])),
            protocol=np.where(doubles[:, 0] < config.tcp_fraction, 6, 17),
            packet_count=packet_count,
            start_time=0.0 + config.duration * doubles[:, 1],
            mean_interarrival=np.maximum(flow_span / packet_count, 1e-6),
        )

    def _make_flow(self, packet_count: int) -> Flow:
        config = self.config
        rng = self._rng
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        protocol = 6 if rng.random() < config.tcp_fraction else 17
        start_time = float(rng.uniform(0.0, config.duration))
        # Spread the flow's packets over a window proportional to its size so
        # elephants persist and mice are short-lived.
        flow_span = min(config.duration, 0.01 + 0.002 * packet_count)
        mean_interarrival = max(flow_span / packet_count, 1e-6)
        return Flow(
            flow_id=flow_id,
            src_ip=self.prefix_pair.source.host(int(rng.integers(0, 1 << 16))),
            dst_ip=self.prefix_pair.destination.host(int(rng.integers(0, 1 << 16))),
            src_port=int(rng.integers(1024, 65536)),
            dst_port=int(rng.choice([*WELL_KNOWN_PORTS, int(rng.integers(1024, 65536))])),
            protocol=protocol,
            packet_count=packet_count,
            start_time=start_time,
            mean_interarrival=mean_interarrival,
        )

    def draw_packet_sizes(self, count: int) -> np.ndarray:
        """Draw packet sizes from the three-mode Internet size distribution."""
        sizes = np.array([mode for mode, _ in PACKET_SIZE_MODES])
        probabilities = np.array([weight for _, weight in PACKET_SIZE_MODES])
        return self._rng.choice(sizes, size=count, p=probabilities)
