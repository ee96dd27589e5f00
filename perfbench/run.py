"""Closed-loop benchmark of the crowdtree CLI.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in fresh processes started from this script (see
measure.py). With ``--trace 0`` the workload sets up three times, twice in
set-up-only processes and once before timing, and ``setup_s`` is the
median; the last line printed is a JSON object with the end-to-end
metrics. With ``--trace 1`` it sets up once, times an untraced phase, then
a traced one, and the JSON holds the per-layer metrics. The lines before
it give the run manifest and every metric by name, with its unit.
README.md beside this file describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design", "experiments", "validate")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, args, workdir: str, setup_only: bool, deadline: float) -> dict:
    """Run measure.py in a fresh process and return its result document."""
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--result", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{workload}: no time left for another process")
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(time.monotonic())],
            stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{workload}: timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: measure.py exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, args, deadline: float) -> dict:
    base = os.path.join(ROOT, ".perfbench", f"{workload}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(
                    _child(workload, args, os.path.join(base, f"setup{i}"), True, deadline)
                )
        doc = _child(workload, args, os.path.join(base, "main"), False, deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(doc)
    doc["setup_samples"] = [s["setup_s"] for s in setups]
    doc["metrics"] = {
        "setup_s": statistics.median(doc["setup_samples"]),
        "jobs_per_s": doc["jobs_per_s"],
        "job_p50_ms": doc["p50_ms"],
        "job_tail_ms": doc["tail_ms"],
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    doc["wall"] = {
        "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
        "jobs_per_s": doc["jobs_per_s_wall"],
        "job_p50_ms": doc["p50_ms_wall"],
        "job_tail_ms": doc["tail_ms_wall"],
    }
    return doc


def report(workload: str, doc: dict, trace: int) -> dict:
    """Print the manifest and every metric; return the metrics to emit."""
    print("manifest " + json.dumps(doc["manifest"], sort_keys=True))
    jobs, failed = doc["jobs"], doc["failed"]
    m = doc["metrics"]
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in doc["setup_samples"]),
        "jobs_per_s": f"{jobs} jobs, {doc['cycles']} cycles in {doc['elapsed_s']:.2f} s, "
                      f"mean slowdown {doc['slowdown']:.2f}",
        "job_tail_ms": f"p{doc['tail_pct']:.1f}, n={doc['n']}",
    }
    for name, unit in END_TO_END_UNITS.items():
        if trace and name == "setup_s":
            continue
        details = [f"wall {doc['wall'][name]!r}"] if name in doc["wall"] else []
        details += [notes[name]] if name in notes else []
        note = f" ({'; '.join(details)})" if details else ""
        print(f"{workload} {name} {m[name]!r} {unit}{note}")
    print(f"{workload} failed_ratio {failed / doc['attempted']!r} ratio "
          f"({failed} of {doc['attempted']} attempted)")
    for line in doc["failures"]:
        print(f"{workload} FAILED {line}")
    if trace:
        for name, value in doc["per_layer"].items():
            print(f"{workload} {name} {value!r} {LAYER_UNITS[name]}")
        return {name: {"value": v, "unit": LAYER_UNITS[name]}
                for name, v in doc["per_layer"].items()}
    return {name: {"value": m[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the crowdtree CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    docs = {}
    try:
        for name in names:
            docs[name] = run_workload(name, args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, doc in docs.items():
        emitted = report(name, doc, args.trace)
        if len(names) == 1:
            metrics = emitted
        else:
            metrics.update({f"{name}.{k}": v for k, v in emitted.items()})
    print(json.dumps({
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": metrics,
    }))
    return 0


LAYER_UNITS = {
    "cli.main.self_s": "s",
    "fileio.calls": "count",
    "fileio.busy_s": "s",
    "builder.build_greedy.calls": "count",
    "builder.build_greedy.busy_s": "s",
    "builder.build_greedy.self_s": "s",
    "builder.build_random.calls": "count",
    "builder.build_random.busy_s": "s",
    "builder.levels": "count",
    "builder.scored_assignments": "count",
    "model.refine_partition.calls": "count",
    "model.refine_partition.busy_s": "s",
    "model.check_partition.calls": "count",
    "model.check_partition.busy_s": "s",
    "model.applicable_tests.calls": "count",
    "model.level_trace.calls": "count",
    "model.level_trace.busy_s": "s",
    "model.class_path.calls": "count",
    "model.class_path.busy_s": "s",
    "model.with_test_errors.calls": "count",
    "model.with_test_errors.busy_s": "s",
    "metrics.level_entropy.calls": "count",
    "metrics.level_entropy.busy_s": "s",
    "metrics.level_error_mass.calls": "count",
    "metrics.level_error_mass.busy_s": "s",
    "metrics.level_correct_mass.calls": "count",
    "metrics.level_correct_mass.busy_s": "s",
    "metrics.level_quantities.busy_s": "s",
    "metrics.exact_misclassification.calls": "count",
    "metrics.exact_misclassification.busy_s": "s",
    "fusion.group_error.calls": "count",
    "fusion.group_error.busy_s": "s",
    "workers.assign_proposed.calls": "count",
    "workers.assign_proposed.busy_s": "s",
    "workers.assign_proposed.self_s": "s",
    "workers.assign_proposed.iterations": "count",
    "workers.assign_baseline.busy_s": "s",
    "workers.effective_table.calls": "count",
    "workers.effective_table.busy_s": "s",
    "workers.allocation_cost.busy_s": "s",
    "simulate.simulate.calls": "count",
    "simulate.simulate.busy_s": "s",
    "simulate.trials": "count",
    "simulate.answers": "count",
    "simulate.trials_per_busy_s": "1/s",
    "simulate.lanes1_trials_per_s": "1/s",
    "simulate.lane_efficiency": "ratio",
    "simulate.sweep_error.self_s": "s",
    "simulate.sweep_workers.self_s": "s",
    "simulate.effective_gap_z": "sigma",
    "trace.overhead_ratio": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
