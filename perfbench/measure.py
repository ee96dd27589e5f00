"""One workload in one process: set-up, timed phase, checks, metrics.

``run.py`` starts this script; it is not meant to be run by hand. It writes
its findings as JSON to the ``--result`` file and prints only progress, to
standard error. Set-up time is counted from ``--spawned-at``, the
``time.monotonic()`` reading taken by the parent just before it started
this process, so it includes interpreter start-up and every import.

Every time is reported twice: as measured on the wall clock (the ``*_wall``
keys), and divided by the slowdown that ``probe.SpeedProbe`` measured over
the same interval.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from probe import SpeedProbe  # noqa: E402

LANE_REPEATS = 3


@dataclass
class Phase:
    results: list  # of workloads.JobResult
    elapsed: float
    cycles: int


def run_job(job, index: int):
    from crowdtree import cli
    from workloads import JobResult

    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job; the loop goes on
        error = traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return JobResult(job, index, t0, latency, code, out.getvalue(), error)


def timed_phase(workload, seconds: float, first_index: int, tracer) -> Phase:
    """Run whole cycles back to back, one job at a time, and stop at the
    cycle boundary nearest to ``seconds`` (after at least one cycle)."""
    results = []
    cycles = 0
    t0 = time.perf_counter()
    while True:
        for job in workload.cycle(cycles):
            index = first_index + len(results)
            if tracer is not None:
                tracer.job = index
            results.append(run_job(job, index))
        cycles += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / cycles / 2 >= seconds:
            return Phase(results, elapsed, cycles)


def nominal_latency(result, probe: SpeedProbe) -> float:
    """A job's latency without the probes taken in it, at nominal speed."""
    t0, t1 = result.start, result.start + result.latency
    return (result.latency - probe.probe_time(t0, t1)) / probe.slowdown(t0, t1)


def check_all(workload, results) -> dict[int, str]:
    """Check every job's output; return the reason for each failed job."""
    from crowdtree.errors import CrowdTreeError

    failures = {}
    first = {}
    for result in results:
        if result.job.out and os.path.exists(result.job.out):
            with open(result.job.out, "rb") as fh:
                result.out_bytes = fh.read()
        reason = result.error
        if reason is None:
            try:
                reason = workload.check(result, first.get(result.job.key))
            except (CrowdTreeError, OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            first.setdefault(result.job.key, result)
        else:
            failures[result.index] = f"job {result.index} ({result.job.key}): {reason}"
    return failures


def lane_baseline(workload, phase: Phase, lanes: int, probe: SpeedProbe):
    """Rerun the first job of each input with ``--lanes 1``; the report must
    match the multi-lane one except for its ``# lanes=`` line."""
    failures = []
    lanes1_time = lanes1_trials = multi_time = multi_trials = 0.0
    attempted = 0
    for key, _ in workload.inputs:
        runs = [r for r in phase.results if r.job.key == key and r.ran]
        if not runs:
            continue
        multi_time += sum(nominal_latency(r, probe) for r in runs)
        multi_trials += sum(r.job.trials for r in runs)
        job = runs[0].job
        argv = list(job.argv)
        argv[argv.index("--lanes") + 1] = "1"
        expected = [ln for ln in runs[0].stdout.splitlines() if not ln.startswith("# lanes=")]
        for _ in range(LANE_REPEATS):
            attempted += 1
            rerun = run_job(type(job)(key, argv, trials=job.trials), -1)
            lanes1_time += nominal_latency(rerun, probe)
            lanes1_trials += job.trials
            got = [ln for ln in rerun.stdout.splitlines() if not ln.startswith("# lanes=")]
            if not rerun.ran or got != expected:
                failures.append(f"{key}: --lanes 1 report differs from --lanes {lanes}")
    lanes1 = lanes1_trials / lanes1_time if lanes1_time else 0.0
    multi = multi_trials / multi_time if multi_time else 0.0
    metrics = {
        "simulate.lanes1_trials_per_s": lanes1,
        "simulate.lane_efficiency": multi / (lanes * lanes1) if lanes1 else 0.0,
    }
    return metrics, failures, attempted


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least ten jobs beyond it
    (the slowest job when there are fewer than eleven)."""
    lat = sorted(latencies)
    n = len(lat)
    if n == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "n": 0}
    rank = n - 11 if n > 10 else n - 1  # ten jobs lie beyond lat[n - 11]
    return {
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": lat[rank] * 1e3,
        "tail_pct": 100.0 * (rank + 1) / n,
        "n": n,
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer(stats, cycles: int, extra: dict) -> dict:
    """Per-layer metrics, in the order BENCHMARK.json lists them. Counts and
    times are per cycle of the traced phase; rates and ratios are not."""
    def per(v):
        return v / cycles

    def fields(name: str, *kinds: str) -> dict:
        values = {"calls": stats.calls, "busy_s": stats.busy, "self_s": stats.self_s}
        return {f"{name}.{k}": per(values[k](name)) for k in kinds}

    levels = stats.counts["builder.levels"]
    trials = stats.counts["simulate.trials"]
    sim_busy = stats.busy("simulate.simulate")
    return {
        "cli.main.self_s": per(stats.self_s("cli.main")),
        "fileio.calls": per(stats.fileio_calls()),
        "fileio.busy_s": per(stats.fileio_busy()),
        **fields("builder.build_greedy", "calls", "busy_s", "self_s"),
        **fields("builder.build_random", "calls", "busy_s"),
        "builder.levels": per(levels),
        "builder.scored_assignments": per(
            stats.calls("model.refine_partition", namespace="builder") - levels
        ),
        **fields("model.refine_partition", "calls", "busy_s"),
        **fields("model.check_partition", "calls", "busy_s"),
        **fields("model.applicable_tests", "calls"),
        **fields("model.level_trace", "calls", "busy_s"),
        **fields("model.class_path", "calls", "busy_s"),
        **fields("model.with_test_errors", "calls", "busy_s"),
        **fields("metrics.level_entropy", "calls", "busy_s"),
        **fields("metrics.level_error_mass", "calls", "busy_s"),
        **fields("metrics.level_correct_mass", "calls", "busy_s"),
        **fields("metrics.level_quantities", "busy_s"),
        **fields("metrics.exact_misclassification", "calls", "busy_s"),
        **fields("fusion.group_error", "calls", "busy_s"),
        **fields("workers.assign_proposed", "calls", "busy_s", "self_s"),
        "workers.assign_proposed.iterations": per(
            stats.counts["workers.assign_proposed.iterations"]
        ),
        **fields("workers.assign_baseline", "busy_s"),
        **fields("workers.effective_table", "calls", "busy_s"),
        **fields("workers.allocation_cost", "busy_s"),
        **fields("simulate.simulate", "calls", "busy_s"),
        "simulate.trials": per(trials),
        "simulate.answers": per(stats.counts["simulate.answers"]),
        "simulate.trials_per_busy_s": trials / sim_busy if sim_busy else 0.0,
        "simulate.lanes1_trials_per_s": extra.get("simulate.lanes1_trials_per_s", 0.0),
        "simulate.lane_efficiency": extra.get("simulate.lane_efficiency", 0.0),
        **fields("simulate.sweep_error", "self_s"),
        **fields("simulate.sweep_workers", "self_s"),
        "simulate.effective_gap_z": extra.get("simulate.effective_gap_z", 0.0),
        "trace.overhead_ratio": extra["trace.overhead_ratio"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        return _measure(args, probe)
    finally:
        probe.stop()


def _measure(args, probe: SpeedProbe) -> int:
    t_start = time.perf_counter()
    # Imported here so that set-up time, and the probe, cover the imports.
    import numpy as np

    import crowdtree
    from tracer import SpanStats, Tracer
    from workloads import WORKLOADS, Validate, Workspace

    lanes = min(2, len(os.sched_getaffinity(0)))
    ws = Workspace(args.workdir, args.seed)
    workload = WORKLOADS[args.workload](ws, lanes)
    workload.setup()
    setup_wall = time.monotonic() - args.spawned_at
    result = {
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall / probe.slowdown(t_start, time.perf_counter()),
    }
    if args.setup_only:
        _write(args.result, result)
        return 0

    print(f"{args.workload}: set-up {setup_wall:.2f} s, timing", file=sys.stderr)
    phase = timed_phase(workload, args.seconds, 0, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = list(phase.results)
    failures: list[str] = []
    attempted = len(results)
    layers = None
    if args.trace:
        extra = {}
        if isinstance(workload, Validate):
            lane_metrics, lane_failures, lane_jobs = lane_baseline(workload, phase, lanes, probe)
            extra.update(lane_metrics)
            failures += lane_failures
            attempted += lane_jobs
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_phase(workload, args.seconds, len(results), tracer)
        finally:
            tracer.uninstall()
        results += traced.results
        attempted += len(traced.results)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.save(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.npz"))
        untraced = sum(nominal_latency(r, probe) for r in phase.results) / len(phase.results)
        traced_mean = sum(nominal_latency(r, probe) for r in traced.results) / len(traced.results)
        extra["trace.overhead_ratio"] = traced_mean / untraced
        if isinstance(workload, Validate):
            extra["simulate.effective_gap_z"] = workload.effective_gap_z(phase.results)
        layers = per_layer(SpanStats(tracer), traced.cycles, extra)
        print(f"{args.workload}: {tracer.span_count} spans", file=sys.stderr)

    job_failures = check_all(workload, results)
    failures = list(job_failures.values()) + failures
    passing = [r for r in phase.results if r.index not in job_failures]
    wall = latency_summary([r.latency for r in passing])
    result.update(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:20],
            "jobs": len(phase.results),
            "cycles": phase.cycles,
            "elapsed_s": phase.elapsed,
            "jobs_per_s_wall": len(passing) / phase.elapsed,
            "jobs_per_s": len(passing) / sum(
                nominal_latency(r, probe) for r in phase.results
            ),
            "p50_ms_wall": wall["p50_ms"],
            "tail_ms_wall": wall["tail_ms"],
            **latency_summary([nominal_latency(r, probe) for r in passing]),
            "slowdown": probe.slowdown(phase.results[0].start, phase.results[-1].start),
            "peak_rss_mb": peak_rss_mb,
            "per_layer": layers,
            "manifest": {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "lanes": lanes,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "crowdtree": crowdtree.__version__,
                "git_commit": git_commit(),
                "tables_sha256": ws.checksums,
                "cycle_jobs": [ws.relative(job.argv) for job in workload.cycle(0)],
            },
        }
    )
    _write(args.result, result)
    return 0


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
