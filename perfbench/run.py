#!/usr/bin/env python3
"""Campaign benchmark: end-to-end metrics and a per-layer ledger.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload as a closed loop -- one campaign in flight, each in a
fresh process launched by this one (``harness.py``) -- for ``--seconds``
seconds, then checks the stores outside the timed region and prints one JSON
object as the last line of standard output::

    {"correct": ..., "attempted": <intervals>, "failed": <intervals>,
     "metrics": {name: {"value": ..., "unit": ...}, ...}}

``--trace 0`` reports the end-to-end metrics over untraced campaigns.
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer ledger from the traced ones, plus ``trace.overhead`` (traced
versus untraced ``pkts_per_s``) and ``trace.coverage`` (named spans' self
time over campaign wall time).  Each reported value is the median over the
run's campaigns (``interval_p50_s``: over all their commit gaps); the
quartiles, sample counts and host facts go into
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.

The correctness gate: every campaign of a run commits the same store (so a
traced store equals an untraced one); at the default seed that store's
``RunStore.digest()`` equals the one in ``reference.json``; two sampled
intervals re-run on the other vectorised engine byte-match
``records.jsonl``; the ``dispatch-http`` store equals an in-process run of
the same spec; on ``fine-mesh`` the lying core is rejected in every interval
and every honest domain accepted.  An interval that is not committed or
fails a check counts as failed.

``--record-reference`` rewrites ``reference.json`` from in-process runs at
the default seed (use it only when the store format changes on purpose).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Longest a whole invocation may take before campaigns are cut off.
DEADLINE_S = 150.0
#: Intervals re-run on the other engine per run.
SAMPLED_INTERVALS = 2
#: Fewest untraced (and, with --trace 1, traced) campaigns a run makes.
MIN_CAMPAIGNS = 3
#: A dispatch coordinator commits at its poll ticks, and its workers deliver
#: in bursts, so single commit gaps are quantised by the poll period.  Gaps
#: of dispatch workloads are averaged over this many consecutive commits,
#: several poll periods, before taking percentiles.
DISPATCH_GAP_WINDOW = 8

END_TO_END_UNITS = {
    "pkts_per_s": "1/s",
    "interval_p50_s": "s",
    "setup_s": "s",
    "first_commit_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes_per_interval": "B",
}

# Per-layer metrics: span self time or counter per committed interval, from
# the traced campaigns.  ``(span or counter, kind)``.
LAYER_SOURCES = {
    "traffic.synth_s": ("traffic.synth", "self"),
    "simulation.propagate_s": ("simulation.propagate", "self"),
    "net.digest_s": ("net.digest", "self"),
    "net.digest_pkts": ("net.digest_pkts", "count"),
    "core.hop_s": ("core.hop", "self"),
    "core.sampling_s": ("core.sampling", "self"),
    "core.aggregation_s": ("core.aggregation", "self"),
    "core.reports_s": ("core.reports", "self"),
    "core.verify_s": ("core.verify", "self"),
    "reporting.receipts_digest_s": ("reporting.receipts_digest", "self"),
    "core.observed_pkts": ("core.observed_pkts", "count"),
    "core.aggregate_receipts": ("core.aggregate_receipts", "count"),
    "core.sample_receipts": ("core.sample_receipts", "count"),
    "core.merge_s": ("core.merge", "self"),
    "engine.shard_wait_s": ("engine.shard_wait", "self"),
    "engine.shard_chunks": ("engine.shard_chunks", "count"),
    "engine.stream_self_s": ("engine.stream", "self"),
    "engine.interval_self_s": ("engine.interval", "self"),
    "engine.fold_s": ("engine.fold", "self"),
    "store.append_s": ("store.append", "self"),
    "store.appends": ("store.appends", "count"),
    "store.append_bytes": ("store.append_bytes", "count"),
    "dist.claims": ("dist.claims", "count"),
    "dist.claim_s": ("dist.claim", "self"),
    "dist.uploads": ("dist.uploads", "count"),
    "dist.upload_s": ("dist.upload", "self"),
    "dist.duplicate_acks": ("dist.duplicate_acks", "count"),
    "dist.digest_mismatches": ("dist.digest_mismatches", "count"),
    "dist.poll_wait_s": ("dist.poll_wait", "self"),
    "service.requests": ("service.requests", "count"),
    "service.request_s": ("service.request", "self"),
}

#: Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {
    **{metric: "s/interval" if metric.endswith("_s") else "1/interval" for metric in LAYER_SOURCES},
    "dist.useful_ratio": "ratio",
    "dist.stage_to_commit_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

NOTES = [
    "traced runs see only the coordinator process: worker compute in "
    "shard2-stream and dispatch-http shows up only as engine.shard_wait_s "
    "and the dist.* waits",
    "per-layer *_s values are span self seconds per committed interval; "
    "counts are per committed interval; absent layers read 0",
    "peak_rss_mb is the campaign process's peak RSS plus, per concurrent "
    "worker process, the largest peak RSS among its child processes",
]


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


# -- one campaign ------------------------------------------------------------------------


def _stop_group(process: subprocess.Popen) -> None:
    """SIGKILL what is left of the campaign's process group, then wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_campaign(
    workload: Any, spec_path: Path, work: Path, index: int, traced: bool, timeout: float
) -> dict[str, Any]:
    """Launch one campaign process; its timings, store bytes and peak RSS."""
    run_dir = work / f"run-{index}"
    out = work / f"campaign-{index}.json"
    argv = [
        sys.executable,
        str(HERE / "harness.py"),
        "--spec",
        str(spec_path),
        "--run-dir",
        str(run_dir),
        "--out",
        str(out),
        "--engine",
        workload.engine,
        "--shards",
        str(workload.shards),
    ]
    if workload.chunk_size is not None:
        argv += ["--chunk-size", str(workload.chunk_size)]
    if workload.dispatch_workers:
        argv += ["--dispatch-workers", str(workload.dispatch_workers)]
    if traced:
        argv.append("--trace")
    log = work / f"campaign-{index}.log"
    with open(log, "wb") as stderr:
        launched = time.monotonic()
        process = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"campaign {index} timed out after {timeout:.0f} s", file=sys.stderr)
        _stop_group(process)
    result: dict[str, Any] = {"traced": traced, "lines": [], "committed": 0}
    if process.returncode == 0 and out.exists():
        result.update(json.loads(out.read_text()))
        result["lines"] = (run_dir / "records.jsonl").read_bytes().splitlines(True)
        result["launched"] = launched
    else:
        tail = log.read_text(errors="replace")[-2000:]
        print(f"campaign {index} failed (exit {process.returncode}):\n{tail}", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def campaign_metrics(workload: Any, campaign: dict[str, Any]) -> dict[str, Any]:
    """End-to-end figures of one completed campaign."""
    commits = campaign["commits"]
    committed = campaign["committed"]
    window = DISPATCH_GAP_WINDOW if workload.dispatch_workers else 1
    wall = campaign["complete"] - campaign["constructed"]
    launched = campaign["launched"]
    rss_kb = campaign["self_maxrss_kb"] + workload.workers * campaign["child_maxrss_kb"]
    return {
        "pkts_per_s": workload.packets_per_interval * committed / wall,
        "gaps": [(later - earlier) / window for earlier, later in zip(commits, commits[window:])],
        "setup_s": campaign["constructed"] - launched,
        "first_commit_s": commits[0] - launched,
        "peak_rss_mb": rss_kb / 1024.0,
        "store_bytes_per_interval": campaign["records_bytes"] / committed,
        "wall_s": wall,
    }


# -- per-layer ledger --------------------------------------------------------------------


def layer_figures(campaign: dict[str, Any]) -> dict[str, float]:
    """Per-interval self times and counts of one traced campaign."""
    spans = campaign["spans"]
    child_ns: dict[int, int] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    self_ns: dict[str, int] = {}
    covered_ns = 0
    root_ns = 0
    for span_id, _, name, main_thread, start, end in spans:
        own = end - start - child_ns.get(span_id, 0)
        self_ns[name] = self_ns.get(name, 0) + own
        if name == "campaign":
            root_ns += end - start
        elif main_thread:
            covered_ns += own
    intervals = campaign["committed"]
    counts = campaign["counts"]
    figures = {}
    for metric, (source, kind) in LAYER_SOURCES.items():
        if kind == "self":
            figures[metric] = self_ns.get(source, 0) / 1e9 / intervals
        else:
            figures[metric] = counts.get(source, 0) / intervals
    claims = counts.get("dist.claims", 0)
    figures["dist.useful_ratio"] = intervals / claims if claims else 0.0
    waits = campaign["stage_to_commit"]
    figures["dist.stage_to_commit_s"] = statistics.median(waits) if waits else 0.0
    figures["trace.coverage"] = covered_ns / root_ns
    return figures


# -- correctness -------------------------------------------------------------------------


def in_process_store(spec: Any, run_dir: Path) -> tuple[str, list[bytes]]:
    """Digest and record lines of an in-process ``CampaignRunner`` run."""
    from repro.engine.campaign import CampaignRunner
    from repro.store import RunStore

    shutil.rmtree(run_dir, ignore_errors=True)
    store = RunStore.create(run_dir, spec)
    CampaignRunner(spec, store).run()
    digest = store.digest()
    lines = store.records_path.read_bytes().splitlines(True)
    shutil.rmtree(run_dir, ignore_errors=True)
    return digest, lines


def correctness(
    workload: Any,
    spec: Any,
    seed: int,
    campaigns: list[dict[str, Any]],
    work: Path,
) -> tuple[list[set[int]], list[str]]:
    """Failed interval indices per campaign, and what failed."""
    from repro.api.spec import ExecutionPolicy
    from repro.engine.campaign import interval_record
    from repro.store import stable_json

    problems: list[str] = []
    reference = json.loads(REFERENCE.read_text())
    completed = [campaign for campaign in campaigns if campaign["lines"]]
    expected_digest = None
    expected_lines: list[bytes] = completed[0]["lines"] if completed else []
    if workload.dispatch_workers:
        expected_digest, expected_lines = in_process_store(spec, work / "in-process")
    elif completed:
        expected_digest = completed[0]["digest"]
    if seed == reference["default_seed"]:
        recorded = reference["digests"][workload.name]
        if expected_digest is not None and expected_digest != recorded:
            problems.append(f"store digest {expected_digest} differs from the reference {recorded}")
        expected_digest = recorded

    bad_intervals: set[int] = set()
    rng = random.Random(seed)
    sampled = sorted(rng.sample(range(spec.intervals), SAMPLED_INTERVALS))
    policy = ExecutionPolicy(engine=workload.check_engine)
    for interval in sampled:
        record = interval_record(spec, interval, policy=policy)
        line = (stable_json(record) + "\n").encode("utf-8")
        if interval >= len(expected_lines) or expected_lines[interval] != line:
            bad_intervals.add(interval)
            problems.append(
                f"interval {interval} on the {workload.check_engine} engine differs "
                "from records.jsonl"
            )
    if workload.liar is not None:
        for interval, line in enumerate(expected_lines):
            verdicts = json.loads(line)["verdicts"]
            liar_caught = verdicts[workload.liar]["accepted"] is False
            honest_pass = all(
                verdict["accepted"] is True
                for domain, verdict in verdicts.items()
                if domain != workload.liar
            )
            if not (liar_caught and honest_pass):
                bad_intervals.add(interval)
                problems.append(f"interval {interval}: verdicts {verdicts}")

    failed: list[set[int]] = []
    for index, campaign in enumerate(campaigns):
        bad = set(bad_intervals)
        lines = campaign["lines"]
        bad.update(range(len(lines), spec.intervals))
        for interval, line in enumerate(lines):
            if interval >= len(expected_lines) or line != expected_lines[interval]:
                bad.add(interval)
        if lines and campaign["digest"] != expected_digest:
            bad.update(range(spec.intervals))
            problems.append(
                f"campaign {index} store digest {campaign['digest']} "
                f"!= expected {expected_digest}"
            )
        failed.append({interval for interval in bad if interval < spec.intervals})
    return failed, problems


# -- driver ------------------------------------------------------------------------------


def host_facts() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def record_reference() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name], _ = in_process_store(workload.spec(DEFAULT_SEED), OUT / "reference" / name)
        print(f"{name}: {digests[name]}")
    REFERENCE.write_text(
        json.dumps({"default_seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile once so no campaign's set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    if args.record_reference:
        return record_reference()

    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    spec = workload.spec(seed)
    work = OUT / f"{workload.name}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(spec.to_json())

    started = time.monotonic()
    campaigns: list[dict[str, Any]] = []
    min_campaigns = MIN_CAMPAIGNS * (2 if args.trace else 1)
    while time.monotonic() - started < args.seconds or len(campaigns) < min_campaigns:
        remaining = DEADLINE_S - (time.monotonic() - started)
        if remaining <= 0:
            break
        traced = bool(args.trace) and len(campaigns) % 2 == 1
        campaign = run_campaign(workload, spec_path, work, len(campaigns), traced, remaining)
        campaigns.append(campaign)

    failed_sets, problems = correctness(workload, spec, seed, campaigns, work)
    attempted = spec.intervals * len(campaigns)
    failed = sum(len(bad) for bad in failed_sets)

    finished = [
        campaign
        for campaign in campaigns
        if campaign["committed"] == spec.intervals and campaign.get("complete")
    ]
    untraced = [campaign_metrics(workload, c) for c in finished if not c["traced"]]
    summary: dict[str, dict[str, Any]] = {}

    def add(name: str, values: list[float], unit: str) -> None:
        if values:
            summary[name] = {"unit": unit, "samples": len(values), **_quartiles(values)}

    for name, unit in END_TO_END_UNITS.items():
        if name == "interval_p50_s":
            gaps = [gap for fig in untraced for gap in fig["gaps"]]
            add(name, gaps, unit)
            if len(gaps) >= 100:
                summary["interval_p90_s"] = {
                    "unit": unit,
                    "samples": len(gaps),
                    "median": statistics.quantiles(gaps, n=10)[-1],
                }
        else:
            add(name, [fig[name] for fig in untraced], unit)
    summary["failed_share"] = {
        "unit": "ratio",
        "samples": attempted,
        "median": failed / max(attempted, 1),
    }
    reported = list(END_TO_END_UNITS)
    if args.trace:
        traced = [c for c in finished if c["traced"]]
        layers = [layer_figures(c) for c in traced]
        for metric, unit in LAYER_UNITS.items():
            if metric != "trace.overhead":
                add(metric, [layer[metric] for layer in layers], unit)
        traced_rates = [campaign_metrics(workload, c)["pkts_per_s"] for c in traced]
        if traced_rates and untraced:
            untraced_rate = statistics.median(fig["pkts_per_s"] for fig in untraced)
            summary["trace.overhead"] = {
                "unit": "ratio",
                "samples": len(traced_rates),
                "median": 1.0 - statistics.median(traced_rates) / untraced_rate,
            }
        reported = list(LAYER_UNITS)

    correct = not problems and failed == 0 and all(name in summary for name in reported)
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_facts(),
        "campaigns": len(campaigns),
        "untraced_campaigns": [
            {key: value for key, value in fig.items() if key != "gaps"} for fig in untraced
        ],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": summary,
        "notes": NOTES,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    report_path = results_dir / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for name, entry in summary.items():
        spread = f" [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]" if "q1" in entry else ""
        print(
            f"{name}: {entry['median']:.6g} {entry['unit']} "
            f"(median of {entry['samples']}){spread}"
        )
    for problem in problems:
        print(f"correctness: {problem}")
    for note in NOTES if args.trace else ():
        print(f"note: {note}")
    metrics = {
        name: {"value": summary[name]["median"], "unit": summary[name]["unit"]}
        for name in reported
        if name in summary
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
