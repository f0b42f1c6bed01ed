"""Run one campaign in a fresh process and write its timings as JSON.

``run.py`` launches this script once per measured campaign, so every
repetition pays interpreter start, the ``repro`` import and a cold trace
cache, exactly as a user's ``repro run`` does.  Times are read from
``time.monotonic()``, which on Linux is the system-wide monotonic clock, so
the launching process can subtract its own launch timestamp.

    python3 perfbench/harness.py --spec SPEC.json --run-dir DIR --out OUT.json
        [--engine batch|streaming] [--shards N] [--chunk-size N]
        [--dispatch-workers N] [--trace]

With ``--trace`` the layer boundaries are wrapped (see ``tracer.py``) and
the spans and counters are written into the output as well.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--engine", default=None)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--dispatch-workers", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from repro.api.spec import CampaignSpec, ExecutionPolicy
    from repro.engine.campaign import CampaignRunner, IntervalCommitted, RunComplete
    from repro.store import RunStore

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    committed_at: dict[int, float] = {}
    complete: list[float] = []

    def on_event(event: object) -> None:
        now = time.monotonic()
        if isinstance(event, IntervalCommitted):
            committed_at[event.interval] = now
        elif isinstance(event, RunComplete):
            complete.append(now)

    spec = CampaignSpec.from_dict(json.loads(Path(args.spec).read_text()))
    store = RunStore.create(args.run_dir, spec)
    policy = ExecutionPolicy(engine=args.engine, shards=args.shards, chunk_size=args.chunk_size)
    if args.dispatch_workers:
        from repro.dist.dispatch import DispatchCoordinator

        runner = DispatchCoordinator(
            store,
            policy=policy,
            workers=args.dispatch_workers,
            transport="http",
            on_event=on_event,
        )
        run = runner.run
    else:
        runner = CampaignRunner(spec, store, policy=policy)
        run = functools.partial(runner.run, on_event=on_event)
    constructed = time.monotonic()

    try:
        if tracer is not None:
            tracer.call("campaign", run, (), {})
        else:
            run()
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "constructed": constructed,
        "commits": list(committed_at.values()),
        "complete": complete[0] if complete else None,
        "intervals": spec.intervals,
        "committed": store.record_count,
        "digest": store.digest(),
        "records_bytes": store.records_path.stat().st_size,
        "self_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # The largest peak among reaped children (pool or dispatch workers).
        "child_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["stage_to_commit"] = [
            committed_at[interval] - staged
            for interval, staged in sorted(tracer.staged_at.items())
            if interval in committed_at
        ]
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
