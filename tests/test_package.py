"""What an invocation loads before its first replication, and the source's imports.

Each test that inspects ``sys.modules``, the environment or the thread count
runs Python in a fresh subprocess, since this process has imported numpy and
every orgsim module already.
"""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The names the package exports, by submodule.
EXPORTS = {
    "errors": "ConfigError InvariantViolation",
    "landscape": "DECOMPOSABLE_K2 ENUMERATION_LIMIT NONDECOMPOSABLE_K5 InteractionMatrix Landscape "
                 "build_stylized_matrix contribution generate_landscape global_optimum load_matrix "
                 "performance random_matrix",
    "learning": "BeliefCounters belief init_beliefs mean_external_belief mean_internal_belief update_beliefs",
    "organization": "INCENTIVE_PRESETS AgentState Allocation IncentiveScheme agent_utility flip_improves "
                    "initial_allocation mirrored_allocation",
    "auction": "STRATEGY_INTERDEPENDENCE STRATEGY_UTILITY Offer TradeRecord clear_auction "
               "select_offer_interdependence select_offer_utility",
    "simulation": "CI99_Z GRID_STRUCTURES ROLE_HILLCLIMB ROLE_INIT "
                  "ROLE_LANDSCAPE ROLE_NOISE ROLE_TIEBREAK STRATEGIES STRATEGY_BENCHMARK BeliefSnapshots "
                  "ExperimentResult LedgerSink ReplicationResult ScenarioConfig aggregate_norm_series "
                  "expand_grid replication_rng run_experiment run_grid run_replication write_beliefs_csv "
                  "write_metadata_json write_results_csv write_trades_csv",
}


def run_script(tmp_path, code, *args, **env):
    """Run ``code`` as a script in ``tmp_path`` with orgsim importable from ``src``; return its last
    stdout line as JSON. ``env`` overrides the environment; a value of None removes the variable."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(code))
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    done = subprocess.run([sys.executable, str(script), *args], env=environ, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestLazyPackage:
    def test_import_leaves_numpy_unloaded(self, tmp_path):
        assert run_script(tmp_path, """
            import json, sys
            import orgsim
            print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("orgsim."))))
        """) == []

    def test_exports_resolve_to_their_submodules(self, tmp_path):
        mismatched = run_script(tmp_path, """
            import importlib, json, sys
            import orgsim
            exports = json.loads(sys.argv[1])
            assert orgsim.__all__ == [name for names in exports.values() for name in names.split()]
            assert set(orgsim.__all__) <= set(dir(orgsim))
            print(json.dumps([
                name for module, names in exports.items() for name in names.split()
                if getattr(orgsim, name) is not getattr(importlib.import_module(f"orgsim.{module}"), name)
            ]))
        """, json.dumps(EXPORTS))
        assert mismatched == []

    def test_unknown_name_raises_and_submodules_still_import(self, tmp_path):
        assert run_script(tmp_path, """
            import json
            import orgsim
            try:
                orgsim.no_such_name
            except AttributeError as exc:
                message = str(exc)
            from orgsim import landscape
            print(json.dumps([message, landscape.__name__]))
        """) == ["module 'orgsim' has no attribute 'no_such_name'", "orgsim.landscape"]

    def test_dir_lists_every_export(self):
        import orgsim

        assert set(orgsim.__all__) <= set(dir(orgsim))
        assert "__version__" in dir(orgsim)


class TestCliFixedCost:
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "user"])
    def test_cli_defaults_blas_to_one_thread(self, tmp_path, preset, expected):
        value, threads = run_script(tmp_path, """
            import json, os
            import orgsim.cli
            task = "/proc/self/task"
            threads = len(os.listdir(task)) if os.path.isdir(task) else None
            print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], threads]))
        """, OPENBLAS_NUM_THREADS=preset)
        assert value == expected
        if preset is None and threads is not None:
            assert threads == 1, "an idle BLAS thread started at import"

    def test_single_process_commands_import_no_pool(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(structure="k2", incentive="balanced", strategy="utility",
                                            n=6, m=2, tau=5, horizon=12, reps=2, seed=3)))
        loaded = run_script(tmp_path, """
            import contextlib, io, json, sys
            from orgsim.cli import main
            pools = ("concurrent.futures._base", "concurrent.futures.process", "logging", "multiprocessing")
            loaded = []
            with contextlib.redirect_stdout(io.StringIO()):
                for args in (["validate", sys.argv[1]], ["run", sys.argv[1], "--jobs", "1", "--out", "out"]):
                    assert main(args) == 0, args
                    loaded.append([module for module in pools if module in sys.modules])
            print(json.dumps(loaded))
        """, str(scenario))
        assert loaded == [[], []]

    def test_validate_of_a_grid_loads_no_numpy(self, tmp_path):
        block = ["1 1 1 0 0 0"] * 3 + ["0 0 0 1 1 1"] * 3
        (tmp_path / "blocks.txt").write_text("\n".join(["6", *block]) + "\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(dict(grid={"structures": ["k2", "k5", f"file:{tmp_path / 'blocks.txt'}"]},
                                        n=6, m=2, tau=5, horizon=12, reps=2)))
        assert run_script(tmp_path, """
            import contextlib, io, json, sys
            from orgsim.cli import main
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["validate", sys.argv[1]])
            print(json.dumps([code, len(json.loads(out.getvalue())["cells"]), "numpy" in sys.modules]))
        """, str(grid)) == [0, 27, False]

    def test_rejected_run_exits_before_numpy_loads(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(structure="k2", incentive="balanced", strategy="utility",
                                            n=6, m=4, tau=1, horizon=12, reps=2)))
        assert run_script(tmp_path, """
            import contextlib, io, json, sys
            from orgsim.cli import main
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["run", sys.argv[1], "--out", "out"])
            print(json.dumps([code, "tau" in err.getvalue(), "numpy" in sys.modules]))
        """, str(scenario)) == [2, True, False]

    def test_rejected_oracle_exits_before_numpy_loads(self, tmp_path):
        assert run_script(tmp_path, """
            import contextlib, io, json, sys
            from orgsim.cli import main
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["oracle", "--n", "3", "--k", "5"])
            print(json.dumps([code, "k must be in [0, n-1]; got k=5, n=3" in err.getvalue(), "numpy" in sys.modules]))
        """) == [2, True, False]

    @pytest.mark.parametrize("call, expected", [
        ('main(["run", sys.argv[1], "--jobs", "2", "--out", "out"])', 0),
        ("len(run_grid(cells_from_dict(json.load(open(sys.argv[1]))), jobs=2))", 1),
    ], ids=["cli", "run_grid"])
    def test_pool_starts_with_numpy_loaded(self, tmp_path, call, expected):
        """Forked workers inherit the parent's numpy instead of each importing it again."""
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(structure="k2", incentive="balanced", strategy="utility",
                                            n=6, m=2, tau=5, horizon=12, reps=2, seed=3)))
        assert run_script(tmp_path, f"""
            import concurrent.futures, contextlib, io, json, os, sys
            started = []

            class Pool(concurrent.futures.ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    started.append("numpy" in sys.modules)
                    super().__init__(*args, **kwargs)

            concurrent.futures.ProcessPoolExecutor = Pool
            os.cpu_count = lambda: 2  # --jobs 2 is allowed on a machine of any size
            from orgsim.cli import main
            from orgsim.simulation import cells_from_dict, run_grid
            with contextlib.redirect_stdout(io.StringIO()):
                result = {call}
            print(json.dumps([result, started]))
        """, str(scenario)) == [expected, [True]]


@pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver") if m in multiprocessing.get_all_start_methods()])
def test_fresh_workers_match_one_process(tmp_path, method):
    """Workers that import orgsim afresh give the serial results and see the CLI's BLAS setting."""
    assert run_script(tmp_path, """
        import concurrent.futures, json, multiprocessing, os, sys
        import numpy as np
        import orgsim.cli
        from orgsim import ScenarioConfig, IncentiveScheme, expand_grid, run_grid

        if __name__ == "__main__":
            multiprocessing.set_start_method(sys.argv[1])
            base = ScenarioConfig(structure="k2", incentive=IncentiveScheme.parse("balanced"), strategy="utility",
                                  n=6, m=2, tau=5, horizon=12, reps=3, capacity=5, seed=5)
            cells = expand_grid(base, structures=["k2", "k5"], incentives=["balanced"],
                                strategies=["utility", "benchmark"])
            serial, pooled = run_grid(cells), run_grid(cells, jobs=2)
            equal = all(np.array_equal(a.mean_norm_perf, b.mean_norm_perf)
                        and np.array_equal(a.ci99_half_width, b.ci99_half_width) for a, b in zip(serial, pooled))
            with concurrent.futures.ProcessPoolExecutor(max_workers=1) as executor:
                worker_blas = executor.submit(os.getenv, "OPENBLAS_NUM_THREADS").result()
            print(json.dumps([len(pooled), equal, worker_blas]))
    """, method, OPENBLAS_NUM_THREADS=None) == [4, True, "1"]


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except ``__future__`` imports and lines marked ``# noqa``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_source_has_no_unused_imports():
    root = SRC.parent
    paths = [*(SRC / "orgsim").glob("*.py"), *(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]
    assert [problem for path in sorted(paths) for problem in unused_imports(path)] == []


def test_unused_import_check_reads_each_alias_line(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import os, sys\n"
                    "from json import (\n"
                    "    dumps,\n"
                    "    loads,  # noqa: F401\n"
                    ")\n"
                    "print(sys.argv)\n")
    assert unused_imports(path) == ["module.py:2: os", "module.py:4: dumps"]
