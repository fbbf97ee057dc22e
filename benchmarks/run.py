"""The orgsim benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload {paper-grid,scan,ledger} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it uses the package source in ``src/`` next to this
directory and writes only under ``.bench_runs/`` there. It writes the
workload's scenario file from the seed and passes only that file to the
CLI. It checks every output file of every run and prints the metrics, one
per line with its unit. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics, each run being an untraced
``python3 -m orgsim.cli run`` in a fresh process. ``--trace 1`` gives the
per-layer metrics from a traced run in a single process (see
``tracer.py``), next to untraced runs of the same scenario at one and at
two workers. ``README.md`` describes every workload and metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))
from tracer import END, START, layer_metrics  # noqa: E402

WORKERS = 2
# Timed `orgsim validate` runs after each end-to-end run. One untimed run
# first fills the bytecode and page caches; spreading the timed ones over the
# whole measurement keeps a passing burst of load from setting the median.
SETUP_PER_RUN = 3
# End-to-end runs per measurement, however short --seconds is.
MIN_RUNS = 3
# Every child is killed after this long, and no child starts after the
# run's own deadline, so a run ends well inside three minutes.
CHILD_TIMEOUT_S = 100.0
RUN_DEADLINE_S = 150.0

PAPER_GRID = {
    "structures": ["k2", "k5"],
    "incentives": ["individualistic", "balanced", "altruistic"],
    "strategies": ["utility", "interdependence", "benchmark"],
}


@dataclass(frozen=True)
class Workload:
    grid: dict
    reps: int
    horizon: int
    jobs: int
    emit: str
    preset: bool = False
    tau: int = 25
    n: int = 15
    m: int = 5

    def scenario(self, seed: int) -> dict:
        return {"horizon": self.horizon, "tau": self.tau, "reps": self.reps, "seed": seed, "grid": self.grid}

    def cells(self) -> list[tuple[str, str, str]]:
        return [
            (structure, incentive, strategy)
            for structure in self.grid["structures"]
            for incentive in self.grid["incentives"]
            for strategy in self.grid["strategies"]
        ]

    def files(self) -> list[str]:
        names = ["results.csv", "metadata.json"]
        if "trades" in self.emit:
            names.append("trades.csv")
        if "beliefs" in self.emit:
            names.append("beliefs.csv")
        return names

    def run_args(self, scenario: Path, out: Path, jobs: int) -> list[str]:
        args = ["run", str(scenario)]
        if self.preset:
            args += ["--preset", "paper-grid"]
        return args + ["--jobs", str(jobs), "--emit", self.emit, "--out", str(out)]


WORKLOADS = {
    "paper-grid": Workload(
        grid=PAPER_GRID, reps=10, horizon=500, jobs=WORKERS, emit="csv,json", preset=True,
    ),
    "scan": Workload(
        grid={"structures": ["k2", "k5"], "incentives": ["balanced"], "strategies": ["utility"]},
        reps=150, horizon=20, jobs=1, emit="csv,json",
    ),
    "ledger": Workload(
        grid={"structures": ["k5"], "incentives": ["balanced"], "strategies": ["utility", "interdependence"]},
        reps=20, horizon=500, jobs=WORKERS, emit="csv,json,trades,beliefs",
    ),
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def spawn(argv: list[str], stdout: Path, stderr: Path) -> Child:
    """Run one child to completion and return its own rusage.

    ``os.wait4`` gives the child's usage including the workers it waited
    for, and nothing of earlier children, unlike ``RUSAGE_CHILDREN``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux: the peak of the child or of its largest waited-for worker.
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def orgsim_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "orgsim.cli", *args]


def tracer_cmd(mode: str, record: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), mode, str(record), "--", *args]


def _file_facts(path: Path) -> tuple[str, int, int]:
    digest = hashlib.sha256()
    lines = 0
    size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return digest.hexdigest(), lines, size


def check_outputs(workload: Workload, seed: int, out: Path) -> tuple[dict, dict, list[str]]:
    """Digest every output file and check the structure the scenario implies.

    Returns the digests, output facts (total bytes, data rows per file) and
    the problems found.
    """
    problems: list[str] = []
    digests: dict[str, str] = {}
    rows: dict[str, int] = {}
    size = 0
    for name in workload.files():
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        digests[name], lines, nbytes = _file_facts(path)
        rows[name] = lines - 1
        size += nbytes
    if problems:
        return digests, {"bytes": size, "rows": rows}, problems

    cells = workload.cells()
    names = [f"{s}-{i}-{g}" for s, i, g in cells]
    reps, horizon, tau, n, m = workload.reps, workload.horizon, workload.tau, workload.n, workload.m

    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != ["cell", "period", "mean_norm_perf", "ci99_half_width"]:
        problems.append(f"results.csv header {table[0]}")
    expected = [(name, str(t)) for name in names for t in range(1, horizon + 1)]
    if [(row[0], row[1]) for row in table[1:]] != expected:
        problems.append("results.csv cells or periods differ from the scenario")
    for row in table[1:]:
        mean, half = float(row[2]), float(row[3])
        if not (0.0 < mean <= 1.0 and 0.0 <= half < 1.0):
            problems.append(f"results.csv out of range: {row}")
            break

    with open(out / "metadata.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    got = [(c["cell"], c["reps"], c["horizon"], c["tau"], c["seed"], c["n"], c["m"]) for c in meta["cells"]]
    if got != [(name, reps, horizon, tau, seed, n, m) for name in names]:
        problems.append("metadata.json cells differ from the scenario")

    if "trades.csv" in rows:
        strategies = {name: g for name, (_, _, g) in zip(names, cells)}
        with open(out / "trades.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["cell", "rep", "period", "decision", "seller", "winner", "winning_bid", "price", "strategy"]:
                problems.append(f"trades.csv header {header}")
            for row in reader:
                cell, rep, period, seller, winner = row[0], int(row[1]), int(row[2]), int(row[4]), int(row[5])
                if (
                    strategies.get(cell) not in ("utility", "interdependence")
                    or row[8] != strategies[cell]
                    or not 0 <= rep < reps
                    or period % tau
                    or not 0 < period <= horizon
                    or seller == winner
                    or float(row[7]) > float(row[6])
                ):
                    problems.append(f"trades.csv bad row {row}")
                    break

    if "beliefs.csv" in rows:
        snapshots = horizon // tau + (1 if horizon % tau else 0)
        expected_rows = len(cells) * reps * snapshots * m * n * (n - 1)
        if rows["beliefs.csv"] != expected_rows:
            problems.append(f"beliefs.csv has {rows['beliefs.csv']} rows, expected {expected_rows}")

    return digests, {"bytes": size, "rows": rows}, problems


def recorded_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Run:
    """State of one benchmark run: its directory, attempts and failures."""

    def __init__(self, workload_name: str, seed: int, trace: int) -> None:
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.dir = RUNS_DIR / f"work-{workload_name}-{seed}-{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.scenario = self.dir / "scenario.json"
        self.scenario.write_text(json.dumps(self.workload.scenario(seed), indent=2) + "\n", encoding="utf-8")
        self.expected = recorded_digests(workload_name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict = {}
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {problem}")
        print(f"FAIL {label}: {problem}", file=sys.stderr)

    def child(self, label: str, argv: list[str]) -> Child:
        self.attempted += 1
        child = spawn(argv, self.dir / f"{label}.out", self.dir / f"{label}.err")
        if child.code != 0:
            tail = (self.dir / f"{label}.err").read_text(encoding="utf-8", errors="replace")[-400:]
            self.fail(label, f"exit {child.code}: {tail.strip()}")
        return child

    def check(self, label: str, out: Path) -> dict | None:
        """Check a finished run's outputs; every run must match the recorded or the first digests."""
        digests, facts, problems = check_outputs(self.workload, self.seed, out)
        if self.expected is None:
            self.expected = digests
        elif digests != self.expected:
            changed = sorted(name for name in set(digests) | set(self.expected)
                             if digests.get(name) != self.expected.get(name))
            problems.append(f"output bytes differ in {changed}")
        if problems:
            self.fail(label, "; ".join(problems))
            return None
        return facts

    def validate(self, label: str) -> float | None:
        """Wall time of a fresh `orgsim validate` of the scenario, or None if it failed."""
        child = self.child(label, orgsim_cmd("validate", str(self.scenario)))
        if child.code != 0:
            return None
        resolved = json.loads((self.dir / f"{label}.out").read_text(encoding="utf-8"))
        if len(resolved["cells"]) != len(self.workload.cells()):
            self.fail(label, f"validate resolved {len(resolved['cells'])} cells")
            return None
        return child.wall_s

    def keep_going(self, runs: int, durations: list[float], seconds: float, minimum: int) -> bool:
        """Start another iteration while the next should end inside ``seconds``, or fewer than ``minimum`` ran."""
        typical_s = statistics.median(durations) if durations else 0.0
        if self.elapsed() + typical_s > RUN_DEADLINE_S:
            return False
        return runs < minimum or self.elapsed() + typical_s <= seconds


def measure_end_to_end(run: Run, seconds: float) -> dict:
    """Median figures of untraced CLI runs, with set-up runs spread between them."""
    workload = run.workload
    total_reps = workload.reps * len(workload.cells())
    run.validate("warmup")
    run.started = time.monotonic()
    samples: list[Child] = []
    walls: list[float] = []
    setups: list[float] = []
    iterations: list[float] = []
    out = run.dir / "out"
    while run.keep_going(len(walls), iterations, seconds, MIN_RUNS):
        begin = time.monotonic()
        label = f"run{len(walls)}"
        shutil.rmtree(out, ignore_errors=True)
        child = run.child(label, orgsim_cmd(*workload.run_args(run.scenario, out, workload.jobs)))
        walls.append(child.wall_s)
        if child.code == 0 and run.check(label, out) is not None:
            samples.append(child)
        for index in range(SETUP_PER_RUN):
            setups.append(run.validate(f"validate{len(walls)}-{index}"))
        iterations.append(time.monotonic() - begin)
    shutil.rmtree(out, ignore_errors=True)
    setups = [s for s in setups if s is not None]
    run.samples = {"run_wall_s": walls, "setup_s": setups}
    if not samples or not setups:
        return {}
    return {
        "reps_per_s": statistics.median(total_reps / c.wall_s for c in samples),
        "cpu_ms_per_rep": statistics.median(1e3 * c.cpu_s / total_reps for c in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in samples),
    }


COUNTS = ("auction.rounds", "auction.offers", "auction.trades", "learning.updates")


def measure_layers(run: Run, seconds: float) -> dict:
    workload = run.workload
    per_iteration: list[dict] = []
    iteration_s: list[float] = []
    while run.keep_going(len(iteration_s), iteration_s, seconds, 1):
        begin = time.monotonic()
        index = len(iteration_s)
        records = {}
        facts = None
        for mode, jobs in (("traced", 1), ("plain", 1), ("plain", WORKERS)):
            label = f"{mode}{jobs}-{index}"
            out = run.dir / label
            record = run.dir / f"{label}.json"
            child = run.child(label, tracer_cmd(mode, record, workload.run_args(run.scenario, out, jobs)))
            if child.code == 0:
                checked = run.check(label, out)
                if checked is not None:
                    with open(record, encoding="utf-8") as fh:
                        records[(mode, jobs)] = json.load(fh)
                    facts = facts or checked
            shutil.rmtree(out, ignore_errors=True)
        iteration_s.append(time.monotonic() - begin)
        if len(records) < 3:
            continue
        engine_ns = sum(span[END] - span[START] for span in records[("plain", WORKERS)]["spans"])
        metrics = layer_metrics(
            records[("traced", 1)],
            plain_wall_ns=records[("plain", 1)]["wall_ns"],
            engine_jobs2_ns=engine_ns,
            workers=WORKERS,
            outputs={"bytes": facts["bytes"], "belief_rows": facts["rows"].get("beliefs.csv", 0)},
        )
        if metrics["auction.trades"] != facts["rows"].get("trades.csv", metrics["auction.trades"]):
            run.fail(label, f"traced {metrics['auction.trades']} trades, trades.csv has {facts['rows']['trades.csv']}")
        if per_iteration and any(metrics[key] != per_iteration[0][key] for key in COUNTS):
            run.fail(label, "layer counts changed between traced runs")
        per_iteration.append(metrics)
    if not per_iteration:
        return {}
    return {key: statistics.median(m[key] for m in per_iteration) for key in per_iteration[0]}


def metric_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics a run reports, as ``BENCHMARK.json`` lists them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def machine_context() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "revision": revision,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "orgsim" / "cli.py").is_file():
        print(f"error: no orgsim package source under {SRC}", file=sys.stderr)
        return 2

    units = metric_units(args.trace)
    context = machine_context()
    run = Run(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            metrics = measure_layers(run, args.seconds)
        else:
            metrics = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    context["loadavg_end"] = list(os.getloadavg())
    if not metrics:
        print(f"error: no run of {args.workload} succeeded: {run.problems[:3]}", file=sys.stderr)
        return 1

    fail_rate = run.failed / run.attempted
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_rate {fail_rate:.6g} ratio ({run.failed}/{run.attempted} runs)")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "fail_rate": fail_rate,
        "problems": run.problems,
        "samples": run.samples,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = RUNS_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
