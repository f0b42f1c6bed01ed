"""Sharded streaming hashes each packet once.

A ``shards=N`` run splits the interval into contiguous chunk spans; every
packet is digested by whoever evaluates the span it was sent in.  The only
rows that may be hashed twice are those held back in the propagation
buffers at a span boundary: the span before hashed them when they were
pushed, and the span after hashes them again when it restores them.  So the
rows passed to ``fnv1a_64_batch`` across the coordinator and every worker
process must total at most the packet count plus the rows held at the shard
boundaries.  Small chunks and reordering make holdbacks cross every
boundary; a splice that drops the held rows' digests shows up as every
downstream HOP re-hashing every chunk (several times the packet count).
"""

from __future__ import annotations

import multiprocessing
from functools import partial

import pytest

import repro.net.hashing as hashing_module
from repro.api.runner import _build_cell, _build_mesh_cell
from repro.api.spec import (
    ConditionSpec,
    ExperimentSpec,
    MeshSpec,
    PathSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.engine.mesh import MeshCell, MeshRunner
from repro.engine.streaming import ScenarioStream, StreamingRunner, _shard_bounds

CHUNK = 128

_CONDITION = ConditionSpec(
    delay="jitter",
    delay_params={"base_delay": 0.8e-3, "jitter_std": 0.3e-3},
    loss="gilbert-elliott",
    loss_params={"p": 0.01, "r": 0.2},
    reordering="window",
    reordering_params={"window": 0.4e-3, "reorder_probability": 0.15},
)


def _single_setup(packet_count: int):
    spec = ExperimentSpec(
        name="hash-count",
        seed=7,
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=packet_count),
        path=PathSpec(conditions={"X": _CONDITION}),
    )
    return partial(_build_cell, spec.to_dict())


def _mesh_setup(packet_count: int):
    spec = MeshSpec(
        name="hash-count-mesh",
        seed=7,
        topology=TopologySpec(kind="star", params={"path_count": 2}, seed=0),
        traffic=TrafficSpec(workload="smoke-sequence", packet_count=packet_count),
        conditions={"X": _CONDITION},
    )
    return partial(_build_mesh_cell, spec.to_dict())


def _held_rows(checkpoint) -> int:
    """Rows waiting in a checkpoint's holdback buffers."""
    held = 0
    for stage in checkpoint.stages:
        for key in ("egress", "reorder", "sorter"):
            sorter = stage.get(key)
            if sorter is not None and sorter["batch"] is not None:
                held += len(sorter["batch"])
    return held


def _boundary_holdbacks(setup, shards: int) -> tuple[int, list[int]]:
    """Packet count and the rows held at each inner shard boundary."""
    cell = setup()
    if isinstance(cell, MeshCell):
        scenarios, traces = cell.scenario.path_scenarios, cell.traces
    else:
        scenarios, traces = (cell.scenario,), (cell.trace,)
    packets = sum(trace.config.packet_count for trace in traces)
    total_chunks = max(-(-trace.config.packet_count // CHUNK) for trace in traces)
    streams = [ScenarioStream(scenario, collect_truth=False) for scenario in scenarios]
    iterators = [trace.iter_batches(CHUNK) for trace in traces]
    bounds = _shard_bounds(total_chunks, shards)
    held, position = [], 0
    for boundary in bounds[1:-1]:
        for _ in range(position, boundary):
            for stream, iterator in zip(streams, iterators):
                chunk = next(iterator, None)
                if chunk is not None:
                    stream.push(chunk)
        position = boundary
        held.append(sum(_held_rows(stream.checkpoint()) for stream in streams))
    return packets, held


@pytest.fixture
def hashed_rows(monkeypatch):
    """Rows hashed by ``fnv1a_64_batch`` here and in forked pool workers."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("counting inside pool workers needs the fork start method")
    counter = multiprocessing.Value("q", 0)
    original = hashing_module.fnv1a_64_batch

    def counting(data):
        values = original(data)
        with counter.get_lock():
            counter.value += len(values)
        return values

    monkeypatch.setattr(hashing_module, "fnv1a_64_batch", counting)
    return counter


@pytest.mark.parametrize(
    "runner, make_setup, packet_count, shards",
    [
        (StreamingRunner, _single_setup, 1800, 1),
        (StreamingRunner, _single_setup, 1800, 2),
        (StreamingRunner, _single_setup, 1800, 3),
        (StreamingRunner, _single_setup, 300, 5),  # 3 chunks, 5 shards
        (MeshRunner, _mesh_setup, 900, 1),
        (MeshRunner, _mesh_setup, 900, 2),
        (MeshRunner, _mesh_setup, 900, 3),
        (MeshRunner, _mesh_setup, 300, 5),
    ],
    ids=[
        "single-1", "single-2", "single-3", "single-more-shards-than-chunks",
        "mesh-1", "mesh-2", "mesh-3", "mesh-more-shards-than-chunks",
    ],
)
def test_each_packet_hashed_once_plus_boundary_holdbacks(
    hashed_rows, runner, make_setup, packet_count, shards
):
    setup = make_setup(packet_count)
    packets, held = _boundary_holdbacks(setup, shards)
    # Every boundary holds rows, so a lost digest on restore cannot hide.
    assert all(held), held

    hashed_rows.value = 0
    result = runner(setup, chunk_size=CHUNK, shards=shards).run()
    assert len(result.shard_chunks) == shards
    # Every packet reaches its source HOP's collector, so each one is hashed
    # at least once — also a check that the workers' hashes were counted.
    assert packets <= hashed_rows.value <= packets + sum(held), (
        f"{hashed_rows.value} rows hashed for {packets} packets "
        f"and {sum(held)} boundary holdbacks"
    )
