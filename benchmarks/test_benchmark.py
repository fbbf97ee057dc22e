"""Checks of the benchmark itself: output checks, tracing guard, bare checkout.

    python3 -m pytest benchmarks -q

Most tests run the workloads with fewer replications, which keeps the suite
under a minute; ``test_recorded_digests`` runs them at full size.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import (  # noqa: E402
    BENCH_DIR,
    COUNTS,
    ROOT,
    WORKERS,
    WORKLOADS,
    check_outputs,
    orgsim_cmd,
    recorded_digests,
    spawn,
    tracer_cmd,
)
from tracer import layer_metrics  # noqa: E402

SMALL_REPS = {"paper-grid": 2, "scan": 20, "ledger": 3}


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], reps=SMALL_REPS[name])


def run_cli(argv: list[str], workdir: Path, label: str):
    child = spawn(argv, workdir / f"{label}.out", workdir / f"{label}.err")
    assert child.code == 0, (workdir / f"{label}.err").read_text()
    return child


def write_scenario(workload, seed: int, workdir: Path) -> Path:
    path = workdir / "scenario.json"
    path.write_text(json.dumps(workload.scenario(seed)), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_jobs_do_not_change_bytes(name, tmp_path):
    workload = small(name)
    scenario = write_scenario(workload, 5, tmp_path)
    digests = {}
    for jobs in (1, WORKERS):
        out = tmp_path / f"jobs{jobs}"
        run_cli(orgsim_cmd(*workload.run_args(scenario, out, jobs)), tmp_path, f"jobs{jobs}")
        digests[jobs], _, problems = check_outputs(workload, 5, out)
        assert problems == []
    assert digests[1] == digests[WORKERS]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_bytes_and_counts(name, tmp_path):
    workload = small(name)
    scenario = write_scenario(workload, 7, tmp_path)
    digests, metrics = {}, []
    for label, mode in (("traced-a", "traced"), ("traced-b", "traced"), ("plain", "plain")):
        out = tmp_path / label
        record = tmp_path / f"{label}.json"
        run_cli(tracer_cmd(mode, record, workload.run_args(scenario, out, 1)), tmp_path, label)
        digests[label], facts, problems = check_outputs(workload, 7, out)
        assert problems == []
        traced = json.loads(record.read_text(encoding="utf-8"))
        if mode == "traced":
            outputs = {"bytes": facts["bytes"], "belief_rows": facts["rows"].get("beliefs.csv", 0)}
            metrics.append(layer_metrics(traced, traced["wall_ns"], traced["wall_ns"], WORKERS, outputs))

    assert digests["traced-a"] == digests["traced-b"] == digests["plain"]
    assert {key: metrics[0][key] for key in COUNTS} == {key: metrics[1][key] for key in COUNTS}
    assert metrics[0]["trace.coverage_pct"] >= 90.0
    assert metrics[0]["learning.updates"] > 0
    if "trades.csv" in facts["rows"]:
        assert metrics[0]["auction.trades"] == facts["rows"]["trades.csv"] > 0
    if name == "scan":
        assert all(value == 0 for key, value in metrics[0].items() if key.startswith("auction."))
    else:
        assert metrics[0]["auction.rounds"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_digests(name, tmp_path):
    workload = WORKLOADS[name]
    expected = recorded_digests(name, 0)
    assert expected is not None, "no digests recorded for the default seed"
    scenario = write_scenario(workload, 0, tmp_path)
    out = tmp_path / "out"
    run_cli(orgsim_cmd(*workload.run_args(scenario, out, workload.jobs)), tmp_path, "run")
    digests, _, problems = check_outputs(workload, 0, out)
    assert problems == []
    assert digests == expected


def test_output_check_catches_changed_bytes(tmp_path):
    workload = small("ledger")
    scenario = write_scenario(workload, 1, tmp_path)
    out = tmp_path / "out"
    run_cli(orgsim_cmd(*workload.run_args(scenario, out, 1)), tmp_path, "run")
    before, _, problems = check_outputs(workload, 1, out)
    assert problems == []

    beliefs = out / "beliefs.csv"
    lines = beliefs.read_text(encoding="utf-8").splitlines(keepends=True)
    beliefs.write_text("".join(lines[:-1]), encoding="utf-8")
    with open(out / "results.csv", "a", encoding="utf-8") as fh:
        fh.write("k5-balanced-utility,501,1.5,0.0\n")
    after, _, problems = check_outputs(workload, 1, out)
    assert any("beliefs.csv" in p for p in problems)
    assert any("results.csv" in p for p in problems)
    assert after["metadata.json"] == before["metadata.json"]
    assert after["beliefs.csv"] != before["beliefs.csv"]


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [sys.executable, *spec["command"][1:], "--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
