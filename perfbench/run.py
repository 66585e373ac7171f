"""Benchmark driver: one workload, one seed, a timed run, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adaptive-process --seed 1 --seconds 48 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the per-layer self times and the tracing overhead.
Human-readable tables go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "solved_per_s": "1/s",
    "first_obs_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "child_peak_rss_mb": "MB",
}

#: The end-to-end metrics the JSON result carries.  ``first_obs_s`` is
#: printed only: on the service it settles per run into one of two modes
#: about one worker poll interval apart, wider than any usable bound.
END_TO_END_REPORTED = tuple(name for name in END_TO_END if name != "first_obs_s")

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "solvers.busy_s": "s",
    "solvers.iters": "count",
    "solvers.iters_per_s": "1/s",
    "engine.pool_starts": "count",
    "engine.startup_s": "s",
    "engine.dispatch_s": "s",
    "engine.utilization": "ratio",
    "engine.worker_import_s": "s",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.cross_tenant_hits": "count",
    "engine.cache.read_s": "s",
    "engine.cache.write_s": "s",
    "engine.distributed.batch_s": "s",
    "engine.distributed.first_result_s": "s",
    "engine.distributed.idle_s": "s",
    "campaign.rounds": "count",
    "campaign.controller_s": "s",
    "campaign.orchestrator_s": "s",
    "campaign.killed_frac": "ratio",
    "campaign.useful_iters_frac": "ratio",
    "core.predict_s": "s",
    "core.simulate_s": "s",
    "service.submit_s": "s",
    "service.report_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.overhead_s": "s",
    "service.rejected": "count",
    "self.bench_s": "s",
    "self.service_s": "s",
    "self.campaign_s": "s",
    "self.core_s": "s",
    "self.engine_s": "s",
    "self.engine.cache_s": "s",
    "self.engine.distributed_s": "s",
    "self.solvers_s": "s",
    "trace.root_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

#: The per-layer metrics the JSON result carries: those measured on every
#: workload.  A time that is structurally zero on some workload (the
#: service layer of an in-process campaign) is printed, not reported.
PER_LAYER_REPORTED = (
    "solvers.busy_s",
    "solvers.iters",
    "solvers.iters_per_s",
    "engine.pool_starts",
    "engine.startup_s",
    "engine.utilization",
    "engine.worker_import_s",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.cross_tenant_hits",
    "campaign.rounds",
    "campaign.orchestrator_s",
    "campaign.killed_frac",
    "campaign.useful_iters_frac",
    "self.bench_s",
    "self.campaign_s",
    "self.engine_s",
    "trace.root_s",
    "trace.overhead_s",
    "trace.overhead_frac",
)

#: Set-up repetitions per run (the median is reported).
SETUP_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes (harness tests)")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="flip the expected digest so the oracle must fire (harness tests)",
    )
    parser.add_argument(
        "--print-digests", action="store_true",
        help="print pass 0's digests and the serial reference's (to record oracle.json)",
    )
    return parser.parse_args(argv)


def provenance() -> dict:
    import numpy

    sha = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            if ref_path.is_file():
                sha = ref_path.read_text().strip()
            else:
                packed = Path(".git/packed-refs")
                for line in packed.read_text().splitlines() if packed.is_file() else []:
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
        else:
            sha = ref
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> tuple[float, float]:
    """(this process, largest waited-for child) peak RSS in MB."""
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    return own, child


def percentile(values, pct: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values, dtype=float), pct)) if values else 0.0


def median(values) -> float:
    values = [float(v) for v in values]
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Measurement loops
# ----------------------------------------------------------------------
def measure(workload, seconds: float) -> list:
    """Untraced passes: as many as fill ``seconds`` at the workload's nominal pass time.

    The count depends on ``seconds`` alone, so every run does the same work
    and a slow minute on the machine cannot change how many passes it holds.
    """
    return [workload.run_pass(index) for index in range(max(1, round(seconds / workload.pass_s)))]


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced passes; return (untraced, traced) lists.

    Replayable workloads run each pair on the same inputs (the order
    alternates per pair); the service needs fresh inputs for every pass.
    """
    import spans
    from workloads import WORKERS

    untraced, traced = [], []
    start = time.perf_counter()
    pair = 0
    while True:
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            index = pair if workload.paired else 2 * pair + int(traced_turn)
            if traced_turn:
                recorder = spans.Recorder()
                batches: list = []
                patches = spans.install(recorder, batches, fleet_size=WORKERS)
                try:
                    result = workload.run_pass(index, recorder)
                finally:
                    patches.undo()
                traced.append((result, recorder, batches))
            else:
                untraced.append(workload.run_pass(index))
        pair += 1
        elapsed = time.perf_counter() - start
        per_pair = elapsed / pair
        if elapsed + per_pair > seconds:
            return untraced, traced


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check(workload, passes, *, corrupt: bool, print_digests: bool) -> tuple[int, list[str]]:
    """Run the output oracle; return (wrong outputs, messages)."""
    from workloads import DEFAULT_SEED, ORACLE, WORKERS

    wrong = 0
    notes = []
    first = passes[0]
    got = workload.digests(first)
    recorded = ORACLE.get(workload.name, {}).get("digests")
    use_recorded = (
        workload.seed == DEFAULT_SEED
        and not workload.smoke
        and recorded is not None
        and ORACLE.get("workers") == WORKERS
        and not print_digests
    )
    if use_recorded:
        expected = dict(recorded)
        source = "recorded default-seed digests"
    else:
        expected = workload.expected(first)
        source = "in-process serial run"
    if corrupt:
        expected = {key: "0" * len(value) for key, value in expected.items()}
    if print_digests:
        print(f"digests pass 0: measured {json.dumps(got)} serial {json.dumps(expected)}")
    for key, value in expected.items():
        if got.get(key) != value:
            wrong += workload.record_count(first)
            notes.append(f"oracle MISMATCH on pass 0 {key}: got {got.get(key)} expected {value} ({source})")
        else:
            notes.append(f"oracle ok on pass 0 {key}={value} ({source})")
    wrong += first.extras.get("rejected", 0)  # 429s count as failed operations
    for result in passes[1:]:
        bad = workload.spot_check(result)
        wrong += bad
        notes.append(f"spot check of pass {result.index}: {f'FAILED, {bad} wrong outputs' if bad else 'ok'}")
    return wrong, notes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(workload, passes, setups) -> tuple[dict, dict]:
    jobs = [j for p in passes for j in p.jobs_s]
    first_obs = [f for p in passes for f in p.first_obs_s]
    beyond = sum(1 for j in jobs if j > percentile(jobs, workload.tail_pct))
    own, child = peak_rss_mb()
    values = {
        "wall_s": median(p.wall_s for p in passes),
        "solved_per_s": median(p.solved / p.wall_s for p in passes),
        "first_obs_s": median(first_obs),
        "job_p50_s": median(jobs),
        "job_tail_s": percentile(jobs, workload.tail_pct),
        "setup_s": median(setups),
        "peak_rss_mb": own,
        "child_peak_rss_mb": child,
    }
    samples = {
        "wall_s": f"median of {len(passes)} passes",
        "solved_per_s": f"median of {len(passes)} passes",
        "first_obs_s": f"median of {len(first_obs)}",
        "job_p50_s": f"median of {len(jobs)} jobs",
        "job_tail_s": f"p{workload.tail_pct} of {len(jobs)} jobs, {beyond} beyond",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "benchmark process",
        "child_peak_rss_mb": "largest child process",
    }
    return values, samples


def per_layer(workload, untraced, traced, worker_import_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes (exact counts from the first)."""
    import spans
    from workloads import report_counts

    rows = []
    notes = []
    for result, recorder, batches in traced:
        selfs, by_name = spans.self_times(recorder.spans, result.root)
        root_s = result.root["end"] - result.root["start"]
        engine_batches = [b for b in batches if b["layer"] == "engine" and b["first"] is not None]
        dist_batches = [b for b in batches if b["layer"] == "engine.distributed" and b["first"] is not None]
        busy = sum(b["busy"] for b in batches)
        iters = sum(b["iters"] for b in batches)
        capacity = sum(b["workers"] * (b["end"] - b["start"]) for b in batches)

        def total(prefix: str) -> float:
            return sum(s["end"] - s["start"] for s in recorder.spans if s["name"].startswith(prefix))

        counts = report_counts(result.reports)
        extras = result.extras
        cache = extras.get("cache", {})
        row = {
            "solvers.busy_s": busy,
            "solvers.iters": iters,
            "solvers.iters_per_s": iters / busy if busy > 0 else 0.0,
            "engine.pool_starts": sum(1 for b in batches if b["backend"] == "ProcessBackend"),
            "engine.startup_s": median(
                b["first"] - b["start"] - b["first_runtime"] for b in engine_batches + dist_batches
            ),
            "engine.dispatch_s": sum((b["end"] - b["start"]) - b["busy"] / b["workers"] for b in engine_batches),
            "engine.utilization": busy / capacity if capacity > 0 else 0.0,
            "engine.worker_import_s": worker_import_s,
            "engine.cache.hits": cache.get("hits", 0),
            "engine.cache.misses": cache.get("misses", 0),
            "engine.cache.cross_tenant_hits": cache.get("cross_tenant_hits", 0),
            "engine.cache.read_s": total("read_batch"),
            "engine.cache.write_s": total("write_batch"),
            "engine.distributed.batch_s": median(b["end"] - b["start"] for b in dist_batches),
            "engine.distributed.first_result_s": median(b["first"] - b["start"] for b in dist_batches),
            "engine.distributed.idle_s": sum(
                (b["end"] - b["start"]) - b["busy"] / b["workers"] for b in dist_batches
            ),
            "campaign.rounds": counts["rounds"],
            "campaign.controller_s": total("controller."),
            "campaign.orchestrator_s": by_name.get("run_campaign", 0.0),
            "campaign.killed_frac": counts["killed"] / counts["issued"] if counts["issued"] else 0.0,
            "campaign.useful_iters_frac": counts["useful_iters"] / counts["iters"] if counts["iters"] else 0.0,
            "core.predict_s": total("predict_speedup_curve"),
            "core.simulate_s": total("simulate_multiwalk_speedups"),
            "service.submit_s": median(s["end"] - s["start"] for s in recorder.spans if s["name"] == "submit"),
            "service.report_s": median(s["end"] - s["start"] for s in recorder.spans if s["name"] == "report"),
            "service.queue_wait_s": median(extras.get("queue_wait_s", [])),
            "service.run_s": median(extras.get("run_s", [])),
            "service.overhead_s": median(extras.get("overhead_s", [])),
            "service.rejected": extras.get("rejected", 0),
            "trace.root_s": root_s,
            "trace.unaccounted_s": root_s - sum(selfs.values()),
        }
        for layer in spans.LAYERS:
            row[f"self.{layer}_s"] = selfs.get(layer, 0.0)
        rows.append(row)
        lo, hi = result.root["start"], result.root["end"]
        outside = [s for s in recorder.spans if s["end"] > lo and s["start"] < hi and (s["start"] < lo or s["end"] > hi)]
        if outside:
            notes.append(f"pass {result.index}: {len(outside)} spans extend beyond the root (clipped)")
    exact = {"solvers.iters", "engine.pool_starts", "engine.cache.hits", "engine.cache.misses",
             "engine.cache.cross_tenant_hits", "campaign.rounds", "service.rejected"}
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace.overhead"):
            continue
        if name in exact:
            values[name] = rows[0][name]
        else:
            values[name] = median(row[name] for row in rows)
    untraced_wall = median(p.wall_s for p in untraced)
    traced_wall = median(r.wall_s for r, _, _ in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0
    balance = max(abs(row["trace.unaccounted_s"]) for row in rows)
    notes.append(
        f"self times sum to the root span in every traced pass (max |root - sum| = {balance:.2e} s)"
        if balance < 1e-6 else f"self times do NOT sum to the root span (max gap {balance:.3g} s)"
    )
    notes.append(
        f"tracing overhead: traced wall {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s "
        f"({values['trace.overhead_frac']:+.1%}, {len(traced)} traced / {len(untraced)} untraced passes)"
    )
    return values, notes


def print_table(title: str, values: dict, units: dict, samples: dict | None = None) -> None:
    print(title)
    for name, unit in units.items():
        extra = f"  ({samples[name]})" if samples and name in samples else ""
        print(f"  {name:<36} {values[name]:>14.6g} {unit:<6}{extra}")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    A spawn-context pool starts the tracker on first use; left alone it
    exits only after this process does, as an orphan that outlives the run
    until something reaps it.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    info = provenance()
    print(f"provenance: {json.dumps(info)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    reps = 1 if args.smoke else SETUP_REPS
    setups = []
    try:
        for rep in range(reps):
            if rep:
                workload.teardown()
            setups.append(workload.setup())
        if args.trace:
            untraced, traced = measure_traced(workload, args.seconds)
        else:
            untraced, traced = measure(workload, args.seconds), []
    finally:
        workload.teardown()

    passes = untraced + [r for r, _, _ in traced]
    passes.sort(key=lambda p: p.index)
    wrong, notes = check(workload, passes, corrupt=args.corrupt_oracle, print_digests=args.print_digests)
    attempted = sum(p.attempted for p in passes)
    failed = min(wrong, attempted)
    values, samples = end_to_end(workload, untraced, setups)
    print(f"workload {workload.name}, seed {args.seed}, workers {workloads.WORKERS}, set-ups (s) {[round(s, 3) for s in setups]}")
    print(f"untraced pass walls (s): {[round(p.wall_s, 3) for p in untraced]}")
    print_table("end-to-end metrics:", values, END_TO_END, samples)
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio   ({failed} of {attempted} operations)")
    for note in notes:
        print(note)
    metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END_REPORTED}
    if args.trace:
        import spans

        worker_import = median(workloads.worker_import_seconds(workload.task_blob()) for _ in range(reps))
        layer_values, layer_notes = per_layer(workload, untraced, traced, worker_import)
        print_table("per-layer metrics (traced passes):", layer_values, PER_LAYER)
        for note in layer_notes:
            print(note)
        out = Path(".perfbench_out") / f"trace-{workload.name}-seed{args.seed}.jsonl"
        all_spans = []
        for result, recorder, _ in traced:
            all_spans += [{**span, "pass": result.index} for span in recorder.spans]
        spans.write_jsonl(all_spans, out)
        print(f"spans written to {out}")
        metrics = {name: {"value": layer_values[name], "unit": PER_LAYER[name]} for name in PER_LAYER_REPORTED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
