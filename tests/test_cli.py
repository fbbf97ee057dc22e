"""Command line driver: scenario files, flag merging, outputs, exit codes."""

import csv
import gc
import importlib.util
import json
import multiprocessing
import re
import tracemalloc
from pathlib import Path

import pytest

import orgsim.simulation
from orgsim.cli import build_parser, cmd_validate, main
from orgsim.errors import InvariantViolation
from orgsim.landscape import DECOMPOSABLE_K2, build_stylized_matrix
from orgsim.simulation import INPUT_KEYS

from helpers import matrix_text


SCENARIO = dict(structure="k2", incentive="balanced", strategy="utility",
                n=6, m=2, tau=5, horizon=12, reps=2, capacity=5, seed=3)


# A flag's text for each scenario field, and the value validate echoes for it, over SCENARIO with m=3 and
# capacity 6; each is valid there and differs from the file's value.
FLAG_VALUES = {
    "structure": ("k5", "k5"),
    "incentive": ("altruistic", "altruistic"),
    "strategy": ("benchmark", "benchmark"),
    "n": ("12", 12),
    "m": ("6", 6),
    "tau": ("7", 7),
    "horizon": ("30", 30),
    "reps": ("4", 4),
    "sigma": ("0.25", 0.25),
    "capacity": ("4,5,6", [4, 5, 6]),
    "seed": ("9", 9),
}


def write_scenario(tmp_path, name="scenario.json", **values):
    payload = dict(SCENARIO, **values)
    for key in [k for k, v in payload.items() if v is None]:
        del payload[key]
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_matrix(tmp_path, matrix, name="matrix.txt"):
    path = tmp_path / name
    path.write_text(matrix_text(matrix))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_scenario_file_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", write_scenario(tmp_path), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "results.csv")
        assert rows[0] == ["cell", "period", "mean_norm_perf", "ci99_half_width"]
        assert len(rows) == 13
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["cells"][0]["cell"] == "k2-balanced-utility"
        stdout = capsys.readouterr().out
        assert "k2-balanced-utility" in stdout
        assert "wrote results.csv, metadata.json" in stdout

    def test_flags_override_file(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", write_scenario(tmp_path), "--reps", "3", "--seed", "9",
                     "--strategy", "benchmark", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["cells"][0]["reps"] == 3
        assert meta["cells"][0]["seed"] == 9
        assert meta["cells"][0]["strategy"] == "benchmark"

    def test_flags_only_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--structure", "k2", "--incentive", "alpha=0.75", "--strategy", "benchmark",
                     "--n", "6", "--m", "2", "--reps", "1", "--horizon", "5", "--tau", "2",
                     "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["cells"][0]["incentive"]["alpha"] == 0.75

    def test_missing_required_settings(self, tmp_path, capsys):
        code = main(["run", "--n", "6", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "missing required settings" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"structure": "k2",\n  "strategy": }')
        code = main(["run", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json:2:" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"structure": "k2", "incentive": "balanced",
                                    "strategy": "utility", "horizons": 10}))
        code = main(["run", str(path)])
        assert code == 2
        assert "horizons" in capsys.readouterr().err

    def test_invalid_scenario_lists_all_problems(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau=1, sigma=-0.5)
        code = main(["run", path])
        assert code == 2
        err = capsys.readouterr().err
        assert "tau" in err and "sigma" in err

    def test_non_finite_sigma_fails_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path), "--sigma", "nan", "--out", str(out)]) == 2
        assert "sigma must be finite and nonnegative, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_matrix_file_structure(self, tmp_path):
        matrix_path = write_matrix(tmp_path, build_stylized_matrix(DECOMPOSABLE_K2, 6))
        out = tmp_path / "out"
        code = main(["run", write_scenario(tmp_path, structure=f"file:{matrix_path}"), "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["cells"][0]["structure"] == f"file:{matrix_path}"
        assert meta["cells"][0]["cell"].startswith("matrix-")

    def test_matrix_file_mismatch(self, tmp_path, capsys):
        matrix_path = write_matrix(tmp_path, build_stylized_matrix(DECOMPOSABLE_K2, 9))
        code = main(["run", write_scenario(tmp_path, structure=f"file:{matrix_path}", n=6)])
        assert code == 2
        assert "n=6" in capsys.readouterr().err

    def test_emit_trades_and_beliefs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", write_scenario(tmp_path, horizon=20, seed=2), "--out", str(out),
                     "--emit", "csv,json,trades,beliefs"])
        assert code == 0
        trades = read_rows(out / "trades.csv")
        assert trades[0] == ["rep", "period", "decision", "seller", "winner", "winning_bid", "price", "strategy"]
        beliefs = read_rows(out / "beliefs.csv")
        assert beliefs[0] == ["rep", "period", "agent", "i", "j", "p", "q", "belief"]
        assert len(beliefs) > 1

    def test_bad_emit_token(self, tmp_path, capsys):
        code = main(["run", write_scenario(tmp_path), "--emit", "csv,parquet"])
        assert code == 2
        assert "parquet" in capsys.readouterr().err

    def test_grid_from_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "grid": {"structures": ["k2"], "incentives": ["balanced"],
                     "strategies": ["utility", "benchmark"]},
            "n": 6, "m": 2, "tau": 5, "horizon": 8, "reps": 2, "seed": 1,
        }))
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "results.csv")
        cells = {row[0] for row in rows[1:]}
        assert cells == {"k2-balanced-utility", "k2-balanced-benchmark"}

    def test_grid_accepts_alpha_incentive_tokens(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "grid": {"structures": ["k2"], "incentives": ["balanced", "alpha=0.3"], "strategies": ["utility"]},
            "n": 6, "m": 2, "tau": 5, "horizon": 8, "reps": 2, "seed": 1,
        }))
        assert main(["validate", str(path)]) == 0
        echoed = [cell["cell"] for cell in json.loads(capsys.readouterr().out)["cells"]]
        assert echoed == ["k2-balanced-utility", "k2-alpha0.3-utility"]
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert [cell["cell"] for cell in meta["cells"]] == echoed
        assert meta["cells"][1]["incentive"]["alpha"] == 0.3
        assert {row[0] for row in read_rows(out / "results.csv")[1:]} == set(echoed)

    def test_paper_grid_preset(self, tmp_path):
        out = tmp_path / "out"
        flags = ["--n", "6", "--m", "2", "--tau", "5", "--horizon", "6", "--reps", "1"]
        assert main(["run", "--preset", "paper-grid", *flags, "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert len(meta["cells"]) == 18
        assert [cell["cell_index"] for cell in meta["cells"]] == list(range(18))
        rows = read_rows(out / "results.csv")
        assert len(rows) == 1 + 18 * 6
        # a file grid equal to the paper's loses nothing to the preset, so it is accepted
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": {"structures": ["k2", "k5"]}}))
        assert main(["run", str(path), "--preset", "paper-grid", *flags, "--out", str(tmp_path / "same")]) == 0
        assert (tmp_path / "same" / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    def test_deterministic_across_runs_and_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setattr("orgsim.cli.os.cpu_count", lambda: 2)  # --jobs 2 is rejected on a 1-CPU host
        args = ["run", write_scenario(tmp_path, horizon=15), "--emit", "csv,json"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b), "--jobs", "2"]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "metadata.json").read_bytes() == (out_b / "metadata.json").read_bytes()

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_bad_out_fails_before_work(self, tmp_path, monkeypatch, capsys, under_file):
        def never(*args, **kwargs):
            raise AssertionError("run_grid called despite an unusable --out")

        monkeypatch.setattr("orgsim.cli.run_grid", never)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "out" if under_file else taken
        assert main(["run", write_scenario(tmp_path), "--out", str(out)]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    def test_jobs_above_cpu_count_fails_before_work(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("run_grid called despite --jobs above the CPU count")

        monkeypatch.setattr("orgsim.cli.os.cpu_count", lambda: 2)
        monkeypatch.setattr("orgsim.cli.run_grid", never)
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path), "--jobs", "3", "--out", str(out)]) == 2
        assert "error: --jobs must be at most the CPU count 2, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_below_one_fails_before_work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path), "--jobs", "0", "--out", str(out)]) == 2
        assert "error: --jobs must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, capacity", [(["--capacity", "5,4"], 5), ([], [5, 4])], ids=["flag", "file"])
    def test_per_agent_capacities(self, tmp_path, flags, capacity):
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, capacity=capacity), *flags, "--out", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["cells"][0]["capacity"] == [5, 4]

    @pytest.mark.parametrize("grid, file_dirs", [
        ({"structures": ["k2"], "incentives": ["balanced", "alpha=0.5"], "strategies": ["utility"]}, None),
        ({"structures": ["k2"], "incentives": ["balanced"], "strategies": ["utility", "benchmark", "utility"]}, None),
        ({"incentives": ["balanced"], "strategies": ["utility"]}, ["a", "b"]),
    ], ids=["alpha-equals-preset", "repeated-value", "same-file-stem"])
    def test_duplicate_cell_labels_rejected(self, tmp_path, monkeypatch, capsys, grid, file_dirs):
        label = "k2-balanced-utility"
        if file_dirs:
            # a/matrix.txt and b/matrix.txt: two structures, one stem
            matrix = build_stylized_matrix(DECOMPOSABLE_K2, 6)
            for name in file_dirs:
                (tmp_path / name).mkdir()
            grid = dict(grid, structures=[f"file:{write_matrix(tmp_path / name, matrix)}" for name in file_dirs])
            label = "matrix-balanced-utility"
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": grid, "n": 6, "m": 2, "tau": 5, "horizon": 8, "reps": 2}))
        assert main(["validate", str(path)]) == 2
        assert f"duplicate cell labels: {label}" in capsys.readouterr().err
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"duplicate cell labels: {label}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_rejects_single_cell_keys(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        out = tmp_path / "out"
        assert main(["run", "--preset", "paper-grid", "--strategy", "benchmark", "--out", str(out)]) == 2
        assert "a grid run sets strategy per cell" in capsys.readouterr().err
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": {"strategies": ["utility"]}, "structure": "k5", "incentive": "balanced",
                                    "n": 6, "m": 2, "tau": 5, "horizon": 8, "reps": 2}))
        for command in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert main(command) == 2
            assert "a grid run sets structure, incentive per cell" in capsys.readouterr().err
        path.write_text(json.dumps({"grid": {"structures": ["k2"], "incentives": ["balanced"],
                                             "strategies": ["utility"]}, "n": 6, "m": 2, "reps": 2}))
        assert main(["run", str(path), "--preset", "paper-grid", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the file's grid {'structures': ['k2'], 'incentives': ['balanced'], 'strategies': ['utility']}" in err
        assert "differs from --preset paper-grid's {'structures': ['k2', 'k5']" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        (["k2"], "grid must be an object with ['incentives', 'strategies', 'structures']"),
        ({"axes": ["k2"]}, "unknown grid keys ['axes']"),
    ], ids=["not-an-object", "unknown-axis"])
    def test_preset_shape_checks_the_file_grid(self, tmp_path, monkeypatch, capsys, grid, message):
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": grid, "n": 6, "m": 2, "reps": 2}))
        out = tmp_path / "out"
        assert main(["run", str(path), "--preset", "paper-grid", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_leaves_no_ledger(self, tmp_path, monkeypatch, capsys, jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched module global only when forked")
        real = orgsim.simulation.run_replication

        def failing(scenario, rep_index, collect_beliefs=False):
            if scenario.cell_index == 1:
                raise InvariantViolation(f"cell {scenario.cell}, rep {rep_index}, period 1: forced")
            return real(scenario, rep_index, collect_beliefs)

        monkeypatch.setattr(orgsim.simulation, "run_replication", failing)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "grid": {"structures": ["k2"], "incentives": ["balanced"], "strategies": ["utility", "interdependence"]},
            "n": 6, "m": 2, "tau": 5, "horizon": 10, "reps": 3,
        }))
        out = tmp_path / "out"
        args = ["run", str(path), "--jobs", str(jobs), "--out", str(out), "--emit", "csv,json,trades,beliefs"]
        assert main(args) == 3
        assert "forced" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_ledger_memory_does_not_grow_with_reps(self, tmp_path, monkeypatch):
        """trades.csv and beliefs.csv are written as replications arrive, so 33x the reps peaks the same once
        the cell's series is set aside.

        A run keeps each cell's ``[reps, horizon]`` float64 series until it is aggregated, by design, so the
        test subtracts ``reps * horizon * 8`` bytes from each traced peak. What is left grew 516 -> 525 -> 528 KB
        from 3 to 100 to 300 reps; a snapshot diff puts most of that in the beliefs ledger's ``(p, q)`` text
        cache, bounded by the distinct counter pairs, and in the last replication's rows. A ledger that kept
        every replication's snapshots or trades would add at least 1 KB per replication.

        tracemalloc counts the objects CPython parks on its free lists for reuse as still allocated, at their
        allocation sites, and those lists fill as a run goes on. A full collection after each replication empties
        them, so the peak measures live memory.
        """
        replication_payload = orgsim.simulation._replication_payload

        def collected(task):
            payload = replication_payload(task)
            gc.collect()
            return payload

        monkeypatch.setattr(orgsim.simulation, "_replication_payload", collected)
        path = tmp_path / "ledger.json"
        horizon = 100
        path.write_text(json.dumps({
            "grid": {"structures": ["k5"], "incentives": ["balanced"], "strategies": ["utility", "interdependence"]},
            "horizon": horizon, "seed": 0,
        }))

        def peak_beside_series(reps):
            args = ["run", str(path), "--reps", str(reps), "--jobs", "1", "--emit", "csv,json,trades,beliefs",
                    "--out", str(tmp_path / f"out{reps}")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1] - reps * horizon * 8
            finally:
                tracemalloc.stop()

        peak_beside_series(1)  # a first run pays one-off set-up that later runs do not
        small, large = peak_beside_series(3), peak_beside_series(100)
        assert large <= 1.05 * small, (small, large)

    def test_invariant_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise InvariantViolation("rep 0, period 5: induced for the exit-code test")

        monkeypatch.setattr("orgsim.cli.run_grid", boom)
        code = main(["run", write_scenario(tmp_path)])
        assert code == 3
        assert "invariant violation" in capsys.readouterr().err


class TestValidate:
    def test_valid_file(self, tmp_path, capsys):
        code = main(["validate", write_scenario(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        resolved = json.loads(captured.out)
        assert resolved["cells"][0]["cell"] == "k2-balanced-utility"
        assert "ok: 1 cell(s)" in captured.err

    def test_invalid_file_lists_problems(self, tmp_path, capsys):
        code = main(["validate", write_scenario(tmp_path, tau=1, m=4)])
        assert code == 2
        err = capsys.readouterr().err
        assert "tau" in err
        assert "divisible" in err

    def test_unenumerable_n_fails_before_work(self, tmp_path, monkeypatch, capsys):
        path = write_scenario(tmp_path, n=27, m=3, capacity=9)
        assert main(["validate", path]) == 2
        assert "n <= 25, got n=27" in capsys.readouterr().err
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "n <= 25, got n=27" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_matrix_file_fails_without_its_components(self, tmp_path, monkeypatch, capsys):
        """A file matrix above the enumeration limit is still read, for its size, but its components are never
        derived: no optimum is sought on it, so the walk over its dependency rows would be wasted work."""
        def components(entries):
            raise AssertionError(f"components derived for a {len(entries)}-decision matrix")

        monkeypatch.setattr("orgsim.landscape._components", components)
        rows = "\n".join(" ".join("1" if i == j else "0" for i in range(30)) for j in range(30))
        (tmp_path / "identity.txt").write_text(f"30\n{rows}\n")
        structure = f"file:{tmp_path / 'identity.txt'}"
        assert main(["validate", write_scenario(tmp_path, structure=structure, n=30, m=3, capacity=10)]) == 2
        assert "n <= 25, got n=30" in capsys.readouterr().err
        assert main(["validate", write_scenario(tmp_path, structure=structure)]) == 2
        assert "structure defines 30 decisions but scenario says n=6" in capsys.readouterr().err

    def test_run_size_beyond_the_bound_fails_before_work(self, tmp_path, monkeypatch, capsys):
        path = write_scenario(tmp_path, reps=100_000_000_000, horizon=500)
        message = "reps x horizon must be at most 100000000, got 100000000000 x 500"
        assert main(["validate", path]) == 2
        assert message in capsys.readouterr().err
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m, message", [
        (10**30, f"n=6 must be divisible by m={10**30} for the equal initial split"),
        (-10**30, f"m must be positive, got {-10**30}"),
    ], ids=["huge", "negative"])
    def test_unbounded_m_fails_before_work(self, tmp_path, monkeypatch, capsys, m, message):
        assert main(["validate", write_scenario(tmp_path, m=m)]) == 2
        assert message in capsys.readouterr().err
        monkeypatch.setattr("orgsim.cli.run_grid", None)
        assert main(["run", write_scenario(tmp_path), "--m", str(m), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload, message", [
        ([SCENARIO], "scenario file must hold a JSON object"),
        ({"grid": ["k2"]}, "grid must be an object with ['incentives', 'strategies', 'structures']"),
        ({"grid": {"axes": ["k2"]}}, "unknown grid keys ['axes']"),
        ({"grid": {"structures": []}}, "grid structures must be a non-empty list of strings"),
        ({"grid": {"strategies": ["utility", 3]}}, "grid strategies must be a non-empty list of strings"),
        (dict(SCENARIO, structure=2), "structure must be a string, got 2"),
        (dict(SCENARIO, sigma="0.1"), "sigma must be a number, got '0.1'"),
        (dict(SCENARIO, horizon=12.0), "horizon must be an integer, got 12.0"),
        (dict(SCENARIO, capacity="5,x"), "cannot parse capacity '5,x'"),
        (dict(SCENARIO, capacity=" , "), "cannot parse capacity ' , '"),
        (dict(SCENARIO, capacity=True), "capacity must be an integer or list of integers, got True"),
        (dict(SCENARIO, capacity=[5, True]), "capacity list must hold integers, got [5, True]"),
        (dict(SCENARIO, capacity=5.5), "capacity must be an integer or list of integers, got 5.5"),
        (dict(SCENARIO, incentive="alpha=x"), "cannot parse incentive weight"),
        (dict(SCENARIO, incentive="bogus"), "unknown incentive"),
        (dict(SCENARIO, incentive=5), "incentive must be a string, got 5"),
    ])
    def test_malformed_file_exits_2(self, tmp_path, capsys, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", INPUT_KEYS)
    def test_each_field_flag_overrides_the_file(self, tmp_path, capsys, key):
        """Every scenario field has a run flag, converted as the file value is checked, that wins over the file."""
        path = write_scenario(tmp_path, m=3, capacity=6)
        text, echoed = FLAG_VALUES[key]
        args = build_parser().parse_args(["run", path, f"--{key}", text])
        assert cmd_validate(args) == 0
        cell = json.loads(capsys.readouterr().out)["cells"][0]
        value = cell["incentive"]["name"] if key == "incentive" else cell[key]
        assert value == echoed
        assert main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out)["cells"][0][key] != cell[key]

    def test_readme_scenario_validates(self, tmp_path, capsys):
        """README's scenario block is one valid cell, and with its documented "grid": {} it is the 18-cell grid."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        scenario = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["validate", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["cells"]) == 1
        assert '`"grid": {}`' in readme
        for key in ("structure", "incentive", "strategy"):
            del scenario[key]
        path.write_text(json.dumps(dict(scenario, grid={})))
        assert main(["validate", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["cells"]) == 18

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"n": "\xff"}')
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_grid_file_validates_cells(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "grid": {"strategies": ["utility", "nonsense"]},
            "n": 6, "m": 2, "tau": 5, "horizon": 8, "reps": 2,
        }))
        code = main(["validate", str(path)])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err


class TestOracleCommand:
    def test_prints_tables(self, capsys):
        code = main(["oracle", "--n", "3", "--k", "1", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decision 0 depends on" in out
        assert "optimum config=" in out
        assert out.count("\n") > 10

    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "oracle_out"
        code = main(["oracle", "--n", "2", "--k", "0", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "oracle.json").read_text())
        assert len(report["configs"]) == 4

    def test_out_on_a_file_fails_before_work(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main(["oracle", "--n", "2", "--k", "0", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot create output directory" in captured.err
        assert captured.out == ""
        assert taken.read_text() == "not a directory\n"

    def test_size_guard(self, capsys):
        code = main(["oracle", "--n", "25"])
        assert code == 2
        assert "n <= 4" in capsys.readouterr().err

    def test_negative_seed_fails_before_work(self, tmp_path, capsys):
        out = tmp_path / "oracle_out"
        assert main(["oracle", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: seed must be nonnegative, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestParserSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "orgsim" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_strategy_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--strategy", "greedy"])
        assert excinfo.value.code == 2


class TestTraceTargets:
    def test_benchmark_patch_targets_resolve(self):
        """Every name the benchmark tracer patches exists, so a rename fails here first."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
        spec = importlib.util.spec_from_file_location("orgsim_bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module_name, dotted, _ in tracer.TRACED_FUNCTIONS + tracer.ENGINE_FUNCTIONS:
            owner = importlib.import_module(module_name)
            for attr in dotted.split("."):
                assert hasattr(owner, attr), f"{module_name}.{dotted} does not resolve"
                owner = getattr(owner, attr)
            assert callable(owner), f"{module_name}.{dotted} is not callable"
