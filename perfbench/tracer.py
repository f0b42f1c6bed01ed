"""Outside-in span tracing for the benchmark's traced runs.

The program under test carries no timing code.  :func:`instrument` wraps
the public entry points of each layer -- class methods, and module-level
functions at the binding their consumer calls through -- in the benchmark
process only, and :meth:`Tracer.restore` puts every original attribute
back.  Each call records one span ``(id, parent, name, main_thread, start,
end)``; spans stay in memory and are written out with the campaign's result.
The parent link comes from a per-thread stack, so a span's children are the
layer calls made while it was open, and its self time is its duration minus
theirs.

Counters (packets hashed, receipts produced, store bytes, dispatch claims
and uploads) are recorded at the same boundaries.
"""

from __future__ import annotations

import itertools
import threading
import time
import types
from collections import Counter
from typing import Any, Callable

Hook = Callable[["Tracer", Any, tuple, dict], None]


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, bool, int, int]] = []
        self.counts: Counter[str] = Counter()
        #: Dispatch uploads accepted into staging, by interval (monotonic s).
        self.staged_at: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            main_thread = threading.get_ident() == self._main
            self.spans.append((span_id, parent, name, main_thread, start, end))

    # -- patching ----------------------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; remember the original."""
        original = _raw(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        on_result: Hook | None = None,
        on_error: Hook | None = None,
    ) -> None:
        """Time ``owner.attr`` as span ``name`` (``None``: count only)."""
        tracer = self

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                try:
                    if name is None:
                        result = original(*args, **kwargs)
                    else:
                        result = tracer.call(name, original, args, kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(tracer, exc, args, kwargs)
                    raise
                if on_result is not None:
                    on_result(tracer, result, args, kwargs)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Time each step of the generator ``owner.attr`` returns."""
        tracer = self

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = original(*args, **kwargs)
                sentinel = object()
                while True:
                    item = tracer.call(name, next, (iterator, sentinel), {})
                    if item is sentinel:
                        return
                    yield item

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if _raw(owner, attr) is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")


def _raw(owner: Any, attr: str) -> Any:
    # A class's own attribute, not a bound or inherited one, is what must be
    # wrapped and later put back.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


# -- counter hooks ----------------------------------------------------------------------


def _count(key: str) -> Hook:
    def hook(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
        tracer.counts[key] += 1

    return hook


def _count_hashed(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counts["net.digest_pkts"] += len(result)


def _count_observed(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counts["core.observed_pkts"] += int(result)


def _count_receipts(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    for report in result.values():
        tracer.counts["core.aggregate_receipts"] += len(report.aggregate_receipts)
        tracer.counts["core.sample_receipts"] += len(report.sample_receipts)


def _count_shard_chunks(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    if result.shards > 1:
        tracer.counts["engine.shard_chunks"] += sum(result.shard_chunks)


def _timed_append(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def append(store: Any, record: Any) -> None:
            path = store.records_path
            before = path.stat().st_size if path.exists() else 0
            tracer.call("store.append", original, (store, record), {})
            tracer.counts["store.appends"] += 1
            tracer.counts["store.append_bytes"] += path.stat().st_size - before

        return append

    return make


def _count_upload(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counts["dist.uploads"] += 1
    if result.get("duplicate"):
        tracer.counts["dist.duplicate_acks"] += 1
    elif not result.get("committed"):
        tracer.staged_at.setdefault(int(result["interval"]), time.monotonic())


def _count_upload_error(tracer: Tracer, exc: Exception, args: tuple, kwargs: dict) -> None:
    tracer.counts["dist.uploads"] += 1
    if getattr(exc, "code", None) == "digest_mismatch":
        tracer.counts["dist.digest_mismatches"] += 1


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer ledger reports."""
    from concurrent.futures import Future

    import repro.dist.dispatch as dispatch_module
    import repro.engine.campaign as campaign_module
    import repro.net.hashing as hashing_module
    from repro.core.aggregation import Aggregator
    from repro.core.hop import HOPCollector
    from repro.core.protocol import MeshSession, VPMSession
    from repro.core.sampling import DelaySampler
    from repro.core.verifier import Verifier
    from repro.dist.net import DispatchHub
    from repro.engine.campaign import CampaignAccumulator
    from repro.engine.streaming import ScenarioStream, StreamingRunner
    from repro.net.hashing import PacketDigester
    from repro.service.app import ServiceApp
    from repro.simulation.mesh import MeshScenario
    from repro.simulation.scenario import PathScenario
    from repro.store import RunStore
    from repro.traffic.trace import SyntheticTrace

    wrap = tracer.wrap
    # traffic synthesis
    wrap(SyntheticTrace, "packet_batch", "traffic.synth")
    tracer.wrap_generator(SyntheticTrace, "iter_batches", "traffic.synth")
    # propagation (batch engines run a whole path; streaming runs chunks)
    wrap(PathScenario, "run_batch", "simulation.propagate")
    wrap(MeshScenario, "run_batch", "simulation.propagate")
    wrap(ScenarioStream, "push", "simulation.propagate")
    wrap(ScenarioStream, "flush", "simulation.propagate")
    # digesting: time the digest pass, count packets actually hashed
    wrap(PacketDigester, "digest_batch", "net.digest")
    wrap(hashing_module, "fnv1a_64_batch", None, on_result=_count_hashed)
    # core collectors and receipts
    wrap(HOPCollector, "observe_batch", "core.hop", on_result=_count_observed)
    wrap(DelaySampler, "observe_batch", "core.sampling")
    wrap(Aggregator, "observe_batch", "core.aggregation")
    wrap(Aggregator, "flush", "core.aggregation")
    wrap(Aggregator, "receipts", "core.aggregation")
    wrap(VPMSession, "collect_reports", "core.reports", on_result=_count_receipts)
    wrap(MeshSession, "collect_reports", "core.reports", on_result=_count_receipts)
    wrap(HOPCollector, "merge", "core.merge")
    for method in (
        "add_reports",
        "check_consistency",
        "estimate_domain",
        "estimate_domain_via_neighbors",
        "verify_domain",
    ):
        wrap(Verifier, method, "core.verify")
    wrap(campaign_module, "receipts_digest", "reporting.receipts_digest")
    # campaign engine
    wrap(campaign_module, "interval_record", "engine.interval")
    wrap(CampaignAccumulator, "fold", "engine.fold")
    wrap(StreamingRunner, "run", "engine.stream", on_result=_count_shard_chunks)
    wrap(Future, "result", "engine.shard_wait")
    # store
    tracer.patch(RunStore, "append", _timed_append(tracer))
    # dispatch and service (coordinator side)
    wrap(DispatchHub, "claim", "dist.claim", on_result=_count("dist.claims"))
    wrap(
        DispatchHub,
        "upload",
        "dist.upload",
        on_result=_count_upload,
        on_error=_count_upload_error,
    )
    wrap(ServiceApp, "__call__", "service.request", on_result=_count("service.requests"))

    # The coordinator's poll sleep, at the dispatch module's own ``time``
    # binding (the global time module stays untouched).
    def timed_clock(original: types.ModuleType) -> types.SimpleNamespace:
        names = [name for name in dir(original) if not name.startswith("__")]
        clock = types.SimpleNamespace(**{name: getattr(original, name) for name in names})

        def sleep(seconds: float) -> None:
            tracer.call("dist.poll_wait", original.sleep, (seconds,), {})

        clock.sleep = sleep
        return clock

    tracer.patch(dispatch_module, "time", timed_clock)

