"""Task environment tests: structure builders, table lookups, exact optima."""

import pickle

import numpy as np
import pytest

from orgsim import landscape as landscape_module
from orgsim import (
    DECOMPOSABLE_K2,
    NONDECOMPOSABLE_K5,
    ConfigError,
    InteractionMatrix,
    Landscape,
    build_stylized_matrix,
    contribution,
    generate_landscape,
    global_optimum,
    load_matrix,
    performance,
    random_matrix,
)
from orgsim.oracle import (
    brute_contribution,
    brute_min_contribution,
    brute_optimum,
    brute_performance,
    enumerate_configs,
)


def identity_matrix(n):
    return InteractionMatrix(np.eye(n, dtype=bool))


def tiny_landscape():
    """n=2: decision 0 depends on decision 1, decision 1 stands alone."""
    matrix = InteractionMatrix(np.array([[True, True], [False, True]]))
    tables = [np.array([0.10, 0.20, 0.30, 0.40]), np.array([0.55, 0.65])]
    return Landscape(matrix=matrix, tables=tables)


class TestInteractionMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ConfigError, match="square"):
            InteractionMatrix(np.ones((2, 3), dtype=bool))

    def test_rejects_missing_diagonal(self):
        entries = np.eye(3, dtype=bool)
        entries[1, 1] = False
        with pytest.raises(ConfigError, match="decision 1"):
            InteractionMatrix(entries)

    def test_dependencies_and_dependents(self):
        entries = np.array([
            [1, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 1, 1, 0],
            [0, 0, 0, 1],
        ], dtype=bool)
        matrix = InteractionMatrix(entries)
        assert matrix.dependencies(0) == [2]
        assert matrix.dependencies(2) == [0, 1]
        assert matrix.dependencies(3) == []
        assert matrix.k(2) == 2


class TestStylizedStructures:
    def test_k2_blocks(self):
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 15)
        for j in range(15):
            block = j - (j % 3)
            assert matrix.dependencies(j) == [i for i in range(block, block + 3) if i != j]
            assert matrix.k(j) == 2

    def test_k2_is_decomposable(self):
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 15)
        for j in range(15):
            for i in matrix.dependencies(j):
                assert i // 3 == j // 3

    def test_k5_degree_and_block_mates(self):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        for j in range(15):
            deps = matrix.dependencies(j)
            assert matrix.k(j) == 5
            block = j - (j % 3)
            mates = [i for i in range(block, block + 3) if i != j]
            assert set(mates) <= set(deps)
            externals = [i for i in deps if i not in mates]
            assert len(externals) == 3

    def test_k5_known_rows(self):
        # offsets +3, +6, +9 land cleanly for decision 0; wrap for decision 14
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        assert matrix.dependencies(0) == [1, 2, 3, 6, 9]
        assert matrix.dependencies(14) == [2, 5, 8, 12, 13]

    def test_k5_collision_walk(self):
        # n=6: every external offset collides and walks to the only free slots,
        # so the structure is fully connected
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 6)
        for j in range(6):
            assert matrix.k(j) == 5

    def test_k5_is_not_decomposable(self):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        crossing = sum(
            1 for j in range(15) for i in matrix.dependencies(j) if i // 3 != j // 3
        )
        assert crossing == 45  # 3 externals per decision

    @pytest.mark.parametrize("kind, n", [
        (DECOMPOSABLE_K2, 14),
        (DECOMPOSABLE_K2, 0),
        (NONDECOMPOSABLE_K5, 3),
        ("triangular", 15),
    ])
    def test_rejects_bad_requests(self, kind, n):
        with pytest.raises(ConfigError):
            build_stylized_matrix(kind, n)


class TestRandomMatrix:
    @pytest.mark.parametrize("n, k", [(4, 0), (4, 2), (4, 3), (9, 5)])
    def test_degrees(self, n, k):
        matrix = random_matrix(n, k, np.random.default_rng(7))
        for j in range(n):
            assert matrix.k(j) == k
            assert matrix.entries[j, j]

    def test_seeded_reproducibility(self):
        a = random_matrix(8, 3, np.random.default_rng(11))
        b = random_matrix(8, 3, np.random.default_rng(11))
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ConfigError):
            random_matrix(4, k, np.random.default_rng(0))


class TestLoadMatrix:
    def write(self, tmp_path, text):
        path = tmp_path / "matrix.txt"
        path.write_text(text)
        return str(path)

    def test_roundtrip_stylized(self, tmp_path):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        rows = "\n".join(" ".join(str(int(v)) for v in row) for row in matrix.entries)
        loaded = load_matrix(self.write(tmp_path, f"15\n{rows}\n"))
        assert np.array_equal(loaded.entries, matrix.entries)

    def test_blank_lines_and_padding_ok(self, tmp_path):
        loaded = load_matrix(self.write(tmp_path, "\n2\n\n1 1\n0 1\n\n"))
        assert loaded.n == 2
        assert loaded.dependencies(0) == [1]

    @pytest.mark.parametrize("text, fragment", [
        ("", "empty"),
        ("x\n1\n", "decision count"),
        ("2\n1 1\n", "expected 2 matrix rows"),
        ("2\n1 1 1\n0 1\n", "expected 2 entries"),
        ("2\n1 2\n0 1\n", "must be 0 or 1"),
        ("2\n1 1\n1 0\n", "diagonal"),
        ("-1\n", "must be positive"),
    ])
    def test_rejects_malformed(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_matrix(self.write(tmp_path, text))


class TestContribution:
    def test_bit_order_own_bit_is_highest(self):
        land = tiny_landscape()
        # decision 0: index = (d0, d1) as binary
        assert contribution(land, [0, 0], 0) == 0.10
        assert contribution(land, [0, 1], 0) == 0.20
        assert contribution(land, [1, 0], 0) == 0.30
        assert contribution(land, [1, 1], 0) == 0.40
        # decision 1: only its own bit
        assert contribution(land, [1, 0], 1) == 0.55
        assert contribution(land, [0, 1], 1) == 0.65

    def test_out_of_range_decision(self):
        land = tiny_landscape()
        with pytest.raises(IndexError):
            contribution(land, [0, 0], 2)
        with pytest.raises(IndexError):
            contribution(land, [0, 0], -1)

    def test_table_length_checked(self):
        matrix = identity_matrix(2)
        with pytest.raises(ConfigError, match="must have 2 entries"):
            Landscape(matrix=matrix, tables=[np.zeros(4), np.zeros(2)])
        with pytest.raises(ConfigError, match="2 contribution tables"):
            Landscape(matrix=matrix, tables=[np.zeros(2)])


class TestPerformance:
    def test_mean_over_all(self):
        land = tiny_landscape()
        assert performance(land, [1, 1]) == (0.40 + 0.65) / 2

    def test_subset_and_order_invariance(self):
        land = tiny_landscape()
        assert performance(land, [1, 0], subset=[0]) == 0.30
        assert performance(land, [1, 0], subset={1, 0}) == performance(land, [1, 0], subset=[0, 1])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            performance(tiny_landscape(), [0, 0], subset=[])


class TestGenerateLandscape:
    def test_table_shapes_and_range(self):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        land = generate_landscape(matrix, np.random.default_rng(3))
        for j in range(15):
            assert land.tables[j].shape == (64,)
            assert np.all((land.tables[j] >= 0) & (land.tables[j] < 1))

    def test_seeded_reproducibility(self):
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 6)
        a = generate_landscape(matrix, np.random.default_rng(5))
        b = generate_landscape(matrix, np.random.default_rng(5))
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta, tb)
        assert np.array_equal(a.optimum_config, b.optimum_config)
        assert a.optimum_performance == b.optimum_performance

    def test_optimum_cached(self):
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 6)
        land = generate_landscape(matrix, np.random.default_rng(9))
        config, perf = land.optimum
        assert perf == performance(land, config)
        again_config, again_perf = global_optimum(land)
        assert np.array_equal(config, again_config)
        assert perf == again_perf

    def test_uncached_optimum_raises(self):
        with pytest.raises(ValueError, match="optimum"):
            tiny_landscape().optimum


class TestGlobalOptimum:
    def test_enumeration_guard(self):
        matrix = identity_matrix(26)
        with pytest.raises(ConfigError, match="n <= 25"):
            generate_landscape(matrix, np.random.default_rng(0))

    def test_constant_tables_tie_to_first_config(self):
        # every configuration scores the same; the scan must keep all zeros
        matrix = identity_matrix(4)
        land = Landscape(matrix=matrix, tables=[np.full(2, 0.5) for _ in range(4)])
        config, perf = global_optimum(land)
        assert np.array_equal(config, np.zeros(4, dtype=np.int8))
        assert perf == 0.5
        brute_config, brute_perf = brute_optimum(land)
        assert np.array_equal(config, brute_config)
        assert perf == brute_perf

    def test_k0_optimum_is_per_table_argmax(self):
        rng = np.random.default_rng(21)
        matrix = identity_matrix(6)
        land = generate_landscape(matrix, rng)
        expected = np.array([int(np.argmax(t)) for t in land.tables], dtype=np.int8)
        assert np.array_equal(land.optimum_config, expected)

    def test_dominates_random_configs(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            matrix = random_matrix(8, 3, rng)
            land = generate_landscape(matrix, rng)
            for _ in range(200):
                config = rng.integers(0, 2, size=8)
                norm = performance(land, config) / land.optimum_performance
                assert 0.0 < norm <= 1.0


class TestOracleAgreement:
    """The engine against the brute-force reference, exact equality."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_enumeration_matches(self, n):
        rng = np.random.default_rng(100 + n)
        for k in sorted({0, 1, n - 1}):
            for _ in range(20):
                matrix = random_matrix(n, k, rng)
                land = generate_landscape(matrix, rng)
                for config in enumerate_configs(n):
                    for j in range(n):
                        assert contribution(land, config, j) == brute_contribution(land, config, j)
                    assert performance(land, config) == brute_performance(land, config)
                engine_config, engine_perf = global_optimum(land)
                brute_config, brute_perf = brute_optimum(land)
                assert np.array_equal(engine_config, brute_config)
                assert engine_perf == brute_perf

    def test_subset_performance_matches(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            matrix = random_matrix(4, 2, rng)
            land = generate_landscape(matrix, rng)
            config = rng.integers(0, 2, size=4)
            size = int(rng.integers(1, 5))
            subset = list(rng.choice(4, size=size, replace=False))
            assert performance(land, config, subset) == brute_performance(land, config, subset)

    def test_min_contribution_matches(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            matrix = random_matrix(4, 1, rng)
            land = generate_landscape(matrix, rng)
            config = rng.integers(0, 2, size=4)
            low, argmins = brute_min_contribution(land, config, [0, 1, 2, 3])
            values = [contribution(land, config, j) for j in range(4)]
            assert low == min(values)
            assert argmins == [j for j in range(4) if values[j] == low]


def assert_scan_matches_brute(land, monkeypatch):
    """global_optimum at the default chunk and at 8-configuration chunks equals brute_optimum exactly."""
    brute_config, brute_perf = brute_optimum(land)
    for chunk in (landscape_module._SCAN_CHUNK, 1 << 3):
        with monkeypatch.context() as patch:
            patch.setattr(landscape_module, "_SCAN_CHUNK", chunk)
            config, perf = global_optimum(land)
        assert np.array_equal(config, brute_config)
        assert perf == brute_perf


class TestScanAgainstOracle:
    """The exhaustive scan against brute_optimum above the oracle's printable size."""

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("kind", [DECOMPOSABLE_K2, NONDECOMPOSABLE_K5])
    def test_stylized(self, kind, n, monkeypatch):
        land = generate_landscape(build_stylized_matrix(kind, n), np.random.default_rng(200 + n))
        assert_scan_matches_brute(land, monkeypatch)

    def test_random_matrices(self, monkeypatch):
        rng = np.random.default_rng(201)
        cases = [(n, k) for n in range(1, 11) for k in sorted({0, n // 2, n - 1})]
        for n, k in cases + [(11, int(rng.integers(0, 11))), (12, int(rng.integers(0, 12)))]:
            assert_scan_matches_brute(generate_landscape(random_matrix(n, k, rng), rng), monkeypatch)

    def test_forced_ties(self, monkeypatch):
        rng = np.random.default_rng(202)
        constant = random_matrix(10, 3, rng)
        assert_scan_matches_brute(Landscape(matrix=constant, tables=[np.full(16, 0.25)] * 10), monkeypatch)
        for decimals, n in ((0, 11), (1, 10)):
            matrix = random_matrix(n, 2, rng)
            tables = [np.round(rng.random(8), decimals) for _ in range(n)]
            assert_scan_matches_brute(Landscape(matrix=matrix, tables=tables), monkeypatch)


class TestGatherIndex:
    """The scan across chunk boundaries at n = 19, against the same scan in one chunk, and its matrix left as drawn."""

    def test_uncached_matches_cached_over_two_chunks(self, monkeypatch):
        assert 1 << 19 == 2 * landscape_module._SCAN_CHUNK
        rng = np.random.default_rng(43)
        land = generate_landscape(random_matrix(19, 3, rng), rng)
        monkeypatch.setattr(landscape_module, "_SCAN_CHUNK", 1 << 19)
        config, perf = global_optimum(land)
        assert np.array_equal(config, land.optimum_config)
        assert perf == land.optimum_performance

    def test_tie_crosses_chunk_boundary_to_all_zeros(self, monkeypatch):
        matrix = random_matrix(19, 2, np.random.default_rng(44))
        land = Landscape(matrix=matrix, tables=[np.full(8, 0.5) for _ in range(19)])
        for chunk in (landscape_module._SCAN_CHUNK, 1 << 19):
            monkeypatch.setattr(landscape_module, "_SCAN_CHUNK", chunk)
            config, perf = global_optimum(land)
            assert np.array_equal(config, np.zeros(19, dtype=np.int8))
            assert perf == 0.5

    def test_scan_leaves_matrix_pickle_unchanged(self):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        before = len(pickle.dumps(matrix))
        generate_landscape(matrix, np.random.default_rng(5))
        assert len(pickle.dumps(matrix)) == before
