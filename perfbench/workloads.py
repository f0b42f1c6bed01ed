"""The benchmark's workloads: one campaign spec per (workload, seed).

Each workload is a :class:`~repro.api.spec.CampaignSpec` built from the
benchmark seed plus the execution arrangement it runs under.  The program
under test only ever receives the generated spec (as JSON); the arrangement
(engine, shards, dispatch pool) is passed to the harness as execution
options, which never change the store bytes.

Sizes are chosen so one campaign takes a few seconds on a 2-CPU host:
enough intervals for stable medians, short enough that a timed run holds
several campaigns (and so several set-ups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api.spec import (
    AdversarySpec,
    CampaignSpec,
    ConditionSpec,
    EstimationSpec,
    ExperimentSpec,
    HOPSpec,
    MeshSpec,
    PathSpec,
    ProtocolSpec,
    SLATargetSpec,
    TopologySpec,
    TrafficSpec,
)

#: The seed the reference digests in ``reference.json`` were recorded with.
DEFAULT_SEED = 20261017

# The perf-probe cell's transit condition: jittered delay and bursty
# (Gilbert-Elliott) loss in X, so propagation draws from every model kind.
_PROBE_X = ConditionSpec(
    delay="jitter",
    delay_params={"base_delay": 1.0e-3, "jitter_std": 0.5e-3},
    loss="gilbert-elliott-rate",
    loss_params={"target_rate": 0.02},
)
_SLA = SLATargetSpec(delay_bound=10e-3, delay_quantile=0.9, loss_bound=0.1)


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its spec and how to execute it."""

    name: str
    #: Builds the workload's campaign spec from ``(workload, seed)``.
    build: Callable[["Workload", int], CampaignSpec]
    intervals: int
    #: Simulated packets per interval, summed over every path.
    packets_per_interval: int
    #: Execution policy engine/shards/chunk for in-process runs.
    engine: str
    shards: int = 1
    chunk_size: int | None = None
    #: Worker subprocesses of an HTTP-transport dispatch pool (0: in-process).
    dispatch_workers: int = 0
    #: The other vectorised engine that sampled intervals are re-run on.
    check_engine: str = "streaming"
    #: Domain that must be rejected in every interval (None: all honest).
    liar: str | None = None

    @property
    def workers(self) -> int:
        """Worker processes running alongside the campaign process."""
        if self.dispatch_workers:
            return self.dispatch_workers
        return self.shards if self.shards > 1 else 0

    def spec(self, seed: int) -> CampaignSpec:
        return self.build(self, seed)


def _bulk_path(workload: Workload, seed: int) -> CampaignSpec:
    cell = ExperimentSpec(
        name="bulk-path-cell",
        seed=seed,
        traffic=TrafficSpec(
            workload=None,
            packet_count=workload.packets_per_interval,
            payload_bytes=8,
        ),
        path=PathSpec(conditions={"X": _PROBE_X}),
        protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.005, aggregate_size=100_000)),
    )
    return CampaignSpec(name="bulk-path", intervals=workload.intervals, cell=cell, sla=_SLA)


def _fine_mesh(workload: Workload, seed: int) -> CampaignSpec:
    paths = 4
    liar = AdversarySpec(kind="lying", domain="X", params={"claimed_delay": 0.5e-3})
    cell = MeshSpec(
        name="fine-mesh-cell",
        seed=seed,
        topology=TopologySpec(kind="star", params={"path_count": paths}, seed=0),
        traffic=TrafficSpec(
            workload=None,
            packet_count=workload.packets_per_interval // paths,
            payload_bytes=8,
        ),
        conditions={"X": _PROBE_X},
        # Four times the default marker rate: with ~2k packets per path an
        # interval holds ~40 markers per path instead of ~10, so the number
        # of delay samples (and the record size) barely varies with the seed.
        protocol=ProtocolSpec(
            default=HOPSpec(sampling_rate=0.1, aggregate_size=200, marker_rate=0.02)
        ),
        adversaries=(liar,),
    )
    return CampaignSpec(name="fine-mesh", intervals=workload.intervals, cell=cell, sla=_SLA)


def _dispatch_http(workload: Workload, seed: int) -> CampaignSpec:
    cell = ExperimentSpec(
        name="dispatch-http-cell",
        seed=seed,
        traffic=TrafficSpec(
            workload=None,
            packet_count=workload.packets_per_interval,
            payload_bytes=8,
        ),
        path=PathSpec(conditions={"X": _PROBE_X}),
        protocol=ProtocolSpec(default=HOPSpec(sampling_rate=0.01, aggregate_size=1000)),
        estimation=EstimationSpec(mode="sketch"),
    )
    return CampaignSpec(name="dispatch-http", intervals=workload.intervals, cell=cell, sla=_SLA)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Figure-1 path, 100k-packet intervals at paper-scale knobs on the
        # batch engine: the simulator (traffic, propagation, digesting) does
        # the work
        Workload(
            name="bulk-path",
            build=_bulk_path,
            intervals=3,
            packets_per_interval=100_000,
            engine="batch",
        ),
        # 4-path star whose core X lies, 10% sampling and 200-packet
        # aggregates: the protocol (aggregation, receipts, verifier) and
        # large exact records do the work
        Workload(
            name="fine-mesh",
            build=_fine_mesh,
            intervals=6,
            packets_per_interval=8_000,
            engine="batch",
            liar="X",
        ),
        # bulk-path cell on the streaming engine with shards=2: the only
        # workload reaching the plan pass, the process pool and collector
        # merge.  Same spec as bulk-path, so the two stores are byte-identical.
        Workload(
            name="shard2-stream",
            build=_bulk_path,
            intervals=3,
            packets_per_interval=100_000,
            engine="streaming",
            shards=2,
            chunk_size=1 << 14,
            check_engine="batch",
        ),
        # many small sketch-mode intervals computed by 2 worker processes
        # over loopback HTTP: measures dist, service and small-record store
        # appends
        Workload(
            name="dispatch-http",
            build=_dispatch_http,
            intervals=24,
            packets_per_interval=5_000,
            engine="batch",
            dispatch_workers=2,
        ),
    )
}
