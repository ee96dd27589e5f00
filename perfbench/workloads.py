"""The three closed-loop workloads.

Each workload makes its inputs in set-up (tables, trees, allocations, all
written to files), lists the crowdtree CLI jobs of one cycle, and checks
each job's output after the timed phase. Why each workload exists, and
which layers it stresses, is in README.md beside this file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from crowdtree import fileio, fixtures
from crowdtree.builder import BuilderConfig, build_greedy
from crowdtree.metrics import exact_misclassification
from crowdtree.model import Internal, validate_tree
from crowdtree.workers import assign_proposed, effective_table

from tables import synthetic_table

WORKER_ERROR = 0.2
BOUND_TOL = 1e-9  # slack on the additive sandwich and the union bound
ACCURACY_SIGMAS = 5.0


@dataclass(frozen=True)
class Job:
    key: str  # the job's input; jobs with equal keys must print equal bytes
    argv: list[str]
    out: str | None = None  # file the job writes
    trials: int = 0


@dataclass
class JobResult:
    job: Job
    index: int
    start: float  # time.perf_counter() when the job started
    latency: float
    code: int | None
    stdout: str
    error: str | None = None
    out_bytes: bytes | None = None

    @property
    def ran(self) -> bool:
        return self.error is None and self.code == 0


class Workspace:
    """Directory of generated inputs, with the checksum of every table."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.checksums: dict[str, str] = {}
        os.makedirs(os.path.join(root, "out"), exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def table(self, name: str, text: str, error_text: str | None = None):
        """Write a table (and its error matrix); return paths and the table."""
        path = self.write(f"{name}.csv", text)
        err_path = self.write(f"{name}-errors.csv", error_text) if error_text else None
        table = fileio.load_table(path, None, err_path)
        self.checksums[name] = fileio.table_checksum(table)
        return path, err_path, table

    def synthetic(self, n_classes: int, index: int):
        text, errors = synthetic_table(n_classes, index, self.seed)
        return self.table(f"t{n_classes}-{index}", text, errors)

    def relative(self, argv: list[str]) -> list[str]:
        prefix = self.root + os.sep
        return [a[len(prefix):] if a.startswith(prefix) else a for a in argv]


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


def _job_seed(seed: int, *stream: int) -> int:
    return int(np.random.default_rng([seed, *stream]).integers(0, 2**31))


def _repeat_check(result: JobResult, first: JobResult | None) -> str | None:
    if first is not None and (
        result.stdout != first.stdout or result.out_bytes != first.out_bytes
    ):
        return f"output differs from job {first.index} on the same input"
    return None


class Design:
    """``crowdtree build`` over 12-, 40- and 100-class tables, both metrics."""

    name = "design"
    # (classes, tables, builds of each per cycle). The two 100-class builds
    # take 40% of a cycle; the many small builds, each done twice, keep the
    # median and the tail from resting on one or two jobs.
    SIZES = ((12, 14, 2), (40, 6, 2), (100, 1, 1))
    METRICS = ("additive", "multiplicative")

    def __init__(self, ws: Workspace, lanes: int):
        self.ws = ws
        self.inputs: list[tuple[str, str, str, str]] = []

    def setup(self) -> None:
        for n_classes, count, repeats in self.SIZES:
            for index in range(count):
                path, err_path, _ = self.ws.synthetic(n_classes, index)
                for metric in self.METRICS:
                    key = f"build {n_classes}-{index} {metric}"
                    self.inputs += [(key, path, err_path, metric)] * repeats
        order = np.random.default_rng([self.ws.seed, 1]).permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]

    def cycle(self, c: int) -> list[Job]:
        jobs = []
        for pos, (key, path, err_path, metric) in enumerate(self.inputs):
            out = self.ws.path(f"out/tree-{c}-{pos}.json")
            argv = ["build", "--table", path, "--error-matrix", err_path,
                    "--metric", metric, "--out", out]
            jobs.append(Job(key, argv, out=out))
        return jobs

    def check(self, result: JobResult, first: JobResult | None) -> str | None:
        argv = result.job.argv
        table = fileio.load_table(argv[2], None, argv[4])
        tree = fileio.load_tree(result.job.out, table, check_checksum=True)
        validate_tree(tree, table)
        rows = {row[0]: row[1:] for row in _rows(result.stdout)}
        approx = float(rows["additive_approx"][0])
        lo, hi = (float(v) for v in rows["additive_bounds"])
        exact_pm = float(rows["exact_pm"][0])
        if not lo - BOUND_TOL <= approx <= hi + BOUND_TOL:
            return f"additive_approx {approx!r} outside additive_bounds [{lo!r}, {hi!r}]"
        if exact_pm > approx + BOUND_TOL:
            return f"exact_pm {exact_pm!r} above additive_approx {approx!r}"
        return _repeat_check(result, first)


class Experiments:
    """The paper's two sweeps, and the allocation they are built from."""

    name = "experiments"
    COARSE_GRID = "0.05:0.25:0.1"
    PAIRS = 20
    KMAX = 10
    DRAWS = 20

    def __init__(self, ws: Workspace, lanes: int):
        self.ws = ws
        self.jobs: list[Job] = []

    def setup(self) -> None:
        demo, _, _ = self.ws.table("demo", fixtures.DEMO_TABLE_CSV)
        small, _, _ = self.ws.synthetic(12, 0)
        path, err_path, table = self.ws.synthetic(40, 0)
        tree_path = self.ws.path("tree-40.json")
        fileio.save_tree(tree_path, build_greedy(table, BuilderConfig()).tree, table,
                         {"kind": "greedy", "metric": "additive"})
        seed = str(_job_seed(self.ws.seed, 2))
        on_tree = ["--tree", tree_path, "--table", path, "--error-matrix", err_path,
                   "--worker-error", str(WORKER_ERROR)]
        # Five jobs whose costs differ enough that the median job is always
        # the 12-class sweep: with two jobs of near-equal cost in the
        # middle, the median would jump between them from run to run.
        self.jobs = [
            Job("sweep-error demo", ["sweep-error", "--table", demo, "--random-trees", "20",
                                     "--seed", seed]),
            Job("sweep-error 12", ["sweep-error", "--table", small, "--grid", self.COARSE_GRID,
                                   "--random-trees", "20", "--seed", seed]),
            Job("assign 40", ["assign", *on_tree, "--workers", str(self.PAIRS),
                              "--strategy", "proposed"]),
            *(
                Job(f"sweep-workers 40 {metric}",
                    ["sweep-workers", *on_tree, "--kmax", str(self.KMAX),
                     "--draws", str(self.DRAWS), "--seed", seed, "--metric", metric])
                for metric in Design.METRICS
            ),
        ]

    def cycle(self, c: int) -> list[Job]:
        return self.jobs

    def check(self, result: JobResult, first: JobResult | None) -> str | None:
        rows = _rows(result.stdout)
        command = result.job.argv[0]
        if command == "assign":
            pairs = [int(r[1]) for r in rows if len(r) == 4 and r[1].isdigit()]
            if sum(pairs) != self.PAIRS:
                return f"allocation spends {sum(pairs)} pairs, budget is {self.PAIRS}"
        else:
            columns = (1, 2) if command == "sweep-error" else (2,)
            values = [float(r[i]) for r in rows[1:] for i in columns]
            if not values or not all(0.0 <= v <= 1.0 for v in values):
                return "a misclassification probability lies outside [0, 1]"
        return _repeat_check(result, first)


def majority_error(seated_error: float, extra_pairs: int, worker_error: float) -> float:
    """Error of a majority of one seated worker and ``2k`` extra workers:
    the Poisson-binomial tail P(more than k of 2k+1 answers are wrong)."""
    wrong = [1.0]  # wrong[j] = P(j wrong answers so far)
    for e in [seated_error] + [worker_error] * (2 * extra_pairs):
        nxt = [0.0] * (len(wrong) + 1)
        for j, p in enumerate(wrong):
            nxt[j] += p * (1.0 - e)
            nxt[j + 1] += p * e
        wrong = nxt
    return math.fsum(wrong[extra_pairs + 1:])


def simulator_model_pm(tree, table, allocation) -> float:
    """Misclassification under the simulator's documented model: a class is
    misclassified unless every node on its path routes it right, and a node
    errs by the majority of its seated worker (the table's per-class error)
    and its extra pairs (the allocation's worker error)."""
    pm = 0.0
    for i, prior in enumerate(table.priors):
        survive, node = 1.0, tree.root
        while isinstance(node, Internal):
            m = table.tests.index(node.test)
            k = allocation.extra_pairs[node.test] if allocation else 0
            w = allocation.worker_error if allocation else 0.0
            survive *= 1.0 - majority_error(float(table.errors[m, i]), k, w)
            node = node.one if table.outcomes[m, i] == 1 else node.zero
        pm += prior * (1.0 - survive)
    return pm


class Validate:
    """``crowdtree simulate`` on a wide designed tree and on the demo tree."""

    name = "validate"
    TRIALS = 200_000
    PAIRS_WIDE = 8
    PAIRS_DEMO = 4
    DEMO_ERROR = "0.05"

    def __init__(self, ws: Workspace, lanes: int):
        self.ws = ws
        self.lanes = lanes
        self.inputs: list[tuple[str, list[str]]] = []
        self._models: dict[str, tuple] = {}

    def setup(self) -> None:
        path, err_path, table = self.ws.synthetic(100, 0)
        tree = build_greedy(table, BuilderConfig()).tree
        tree_path = self.ws.path("tree-100.json")
        fileio.save_tree(tree_path, tree, table, {"kind": "greedy", "metric": "additive"})
        allocation, _ = assign_proposed(tree, table, self.PAIRS_WIDE, WORKER_ERROR)
        alloc_path = self.ws.path("allocation-100.json")
        fileio.save_allocation(alloc_path, allocation)

        demo, _, _ = self.ws.table("demo", fixtures.DEMO_TABLE_CSV)
        demo_table = fixtures.demo_table(float(self.DEMO_ERROR))
        demo_tree = fixtures.designed_tree()
        demo_tree_path = self.ws.path("tree-demo.json")
        fileio.save_tree(demo_tree_path, demo_tree, demo_table, {"kind": "manual"})
        demo_alloc, _ = assign_proposed(demo_tree, demo_table, self.PAIRS_DEMO, WORKER_ERROR)
        demo_alloc_path = self.ws.path("allocation-demo.json")
        fileio.save_allocation(demo_alloc_path, demo_alloc)

        wide = ["--tree", tree_path, "--table", path, "--error-matrix", err_path]
        self.inputs = [
            ("simulate 100", wide),
            ("simulate 100 allocated", [*wide, "--allocation", alloc_path]),
            ("simulate demo allocated", ["--tree", demo_tree_path, "--table", demo,
                                         "--error-prob", self.DEMO_ERROR,
                                         "--allocation", demo_alloc_path]),
        ]

    def cycle(self, c: int) -> list[Job]:
        return [
            Job(key, ["simulate", *args, "--trials", str(self.TRIALS),
                      "--seed", str(_job_seed(self.ws.seed, 3, c, pos)),
                      "--lanes", str(self.lanes)], trials=self.TRIALS)
            for pos, (key, args) in enumerate(self.inputs)
        ]

    def _model(self, argv: list[str]):
        """(tree, table, allocation) of a simulate job, loaded once per input."""
        key = " ".join(argv[1:argv.index("--trials")])
        if key not in self._models:
            opts = dict(zip(argv[1::2], argv[2::2]))
            error_prob = float(opts["--error-prob"]) if "--error-prob" in opts else None
            table = fileio.load_table(opts["--table"], error_prob, opts.get("--error-matrix"))
            tree = fileio.load_tree(opts["--tree"], table)
            allocation = (
                fileio.load_allocation(opts["--allocation"]) if "--allocation" in opts else None
            )
            self._models[key] = (tree, table, allocation)
        return self._models[key]

    def check(self, result: JobResult, first: JobResult | None) -> str | None:
        rows = {r[0]: r[1:] for r in _rows(result.stdout) if r[0] != "confusion"}
        confusion = [r for r in _rows(result.stdout) if r[0] == "confusion" and r[3].isdigit()]
        trials = result.job.trials
        counts = sum(int(r[3]) for r in confusion)
        wrong = sum(int(r[3]) for r in confusion if r[1] != r[2])
        misclassified = int(rows["misclassified"][0])
        if counts != trials or wrong != misclassified:
            return f"confusion counts {counts}/{wrong} disagree with {trials} trials/{misclassified}"
        ref = simulator_model_pm(*self._model(result.job.argv))
        p_hat = misclassified / trials
        sigma = math.sqrt(ref * (1.0 - ref) / trials)
        if abs(p_hat - ref) > ACCURACY_SIGMAS * sigma:
            return f"p_hat {p_hat!r} is {abs(p_hat - ref) / sigma:.1f} sigma from {ref!r}"
        return None

    def effective_gap_z(self, results: list[JobResult]) -> float:
        """Largest |z| between pooled p_hat and the exact evaluator on the
        effective table, over the allocated inputs. The two use different
        noise models, so this gap is expected; it is reported, not checked."""
        worst = 0.0
        for key, _ in self.inputs:
            runs = [r for r in results if r.job.key == key and r.ran]
            tree, table, allocation = self._model(runs[0].job.argv) if runs else (None,) * 3
            if allocation is None:
                continue
            exact = exact_misclassification(tree, effective_table(table, allocation))
            trials = sum(r.job.trials for r in runs)
            wrong = sum(int(_misclassified(r.stdout)) for r in runs)
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            worst = max(worst, abs(wrong / trials - exact) / sigma)
        return worst


def _misclassified(text: str) -> int:
    for row in _rows(text):
        if row[0] == "misclassified":
            return int(row[1])
    raise ValueError("report has no misclassified row")


WORKLOADS = {w.name: w for w in (Design, Experiments, Validate)}
