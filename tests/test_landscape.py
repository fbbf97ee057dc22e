"""Task environment tests: structure builders, table lookups, exact optima."""

import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from orgsim import landscape as landscape_module
from orgsim import (
    DECOMPOSABLE_K2,
    NONDECOMPOSABLE_K5,
    ConfigError,
    IncentiveScheme,
    InteractionMatrix,
    Landscape,
    agent_utility,
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
from helpers import contributions_of, make_agent

# Test ids spell a stylized kind out by its constant's name.
KIND_IDS = {DECOMPOSABLE_K2: "decomposable_k2", NONDECOMPOSABLE_K5: "nondecomposable_k5"}


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

    def test_rejects_zero_decisions(self):
        with pytest.raises(ConfigError, match="at least one decision"):
            InteractionMatrix(np.ones((0, 0), dtype=bool))

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
        assert matrix.orders == ((0, 2), (1,), (2, 0, 1), (3,))


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
    ], ids=KIND_IDS.get)
    def test_rejects_bad_requests(self, kind, n):
        with pytest.raises(ConfigError):
            build_stylized_matrix(kind, n)

    @pytest.mark.parametrize("kind", ["decomposable_k2", "nondecomposable_k5"])
    def test_kinds_are_the_scenario_tokens(self, kind):
        with pytest.raises(ConfigError, match="unknown stylized structure"):
            build_stylized_matrix(kind, 15)


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

    def test_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_bytes(b"2\n1 \xff\n0 1\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8 text")):
            load_matrix(str(path))


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
        assert performance(contributions_of(land, [1, 1])) == (0.40 + 0.65) / 2

    def test_sums_left_to_right_without_compensation(self):
        """The one summation rule. math.fsum, Python 3.12's compensated sum or numpy's pairwise np.mean in its
        place changes one of these values."""
        assert performance([0.1, 0.2, 0.3]) == (0.1 + 0.2 + 0.3) / 3 != math.fsum([0.1, 0.2, 0.3]) / 3
        eight = [0.6, 0.3, 0.0, 0.0, 0.8, 0.9, 0.6, 0.7]
        assert performance(eight) == (0.6 + 0.3 + 0.0 + 0.0 + 0.8 + 0.9 + 0.6 + 0.7) / 8 != np.mean(eight)

    def test_subset_and_order_invariance(self):
        """A subset's mean is agent_utility's own term (alpha 1) or residual term (alpha 0)."""
        land = tiny_landscape()
        contributions = contributions_of(land, [1, 0])
        own, residual = IncentiveScheme(1.0), IncentiveScheme(0.0)
        assert agent_utility(make_agent(0, [0], n=2), contributions, own) == 0.30
        assert agent_utility(make_agent(0, [1], n=2), contributions, residual) == 0.30
        assert agent_utility(make_agent(0, {1, 0}, n=2), contributions, own) == performance(contributions)
        assert agent_utility(make_agent(0, [1, 0], n=2), contributions, own) == performance(contributions)


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
        assert np.array_equal(a.optimum[0], b.optimum[0])
        assert a.optimum[1] == b.optimum[1]

    def test_optimum_cached(self):
        matrix = build_stylized_matrix(DECOMPOSABLE_K2, 6)
        land = generate_landscape(matrix, np.random.default_rng(9))
        config, perf = land.optimum
        assert perf == performance(contributions_of(land, config))
        again_config, again_perf = global_optimum(land)
        assert np.array_equal(config, again_config)
        assert perf == again_perf

    def test_optimum_scans_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(land):
            calls.append(land)
            return global_optimum(land)

        monkeypatch.setattr(landscape_module, "global_optimum", counting)
        land = generate_landscape(build_stylized_matrix(DECOMPOSABLE_K2, 6), np.random.default_rng(9))
        built = tiny_landscape()
        assert calls == []
        first = land.optimum
        assert land.optimum is first
        assert calls == [land]
        assert built.optimum[1] == performance(contributions_of(built, built.optimum[0]))
        assert calls == [land, built]


class TestGlobalOptimum:
    @pytest.mark.parametrize("kind", [DECOMPOSABLE_K2, NONDECOMPOSABLE_K5], ids=KIND_IDS.get)
    def test_optimum_value_equals_performance_of_the_array(self, kind):
        """The optimum's value, computed from the configuration as a list of ints, equals the int8 array's."""
        rng = np.random.default_rng(17)
        matrix = build_stylized_matrix(kind, 15)
        for _ in range(40):
            land = generate_landscape(matrix, rng)
            config, value = land.optimum
            assert config.dtype == np.int8
            assert value == performance(contributions_of(land, config))
            other = rng.integers(0, 2, size=15).astype(np.int8)
            assert performance(contributions_of(land, other.tolist())) == performance(contributions_of(land, other))

    def test_enumeration_guard(self):
        matrix = identity_matrix(26)
        land = generate_landscape(matrix, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="n <= 25"):
            land.optimum

    def test_constant_tables_tie_to_first_config(self):
        # every configuration scores the same, so every component is tied; the scan must keep all zeros
        matrix = identity_matrix(4)
        land = Landscape(matrix=matrix, tables=[np.full(2, 0.5) for _ in range(4)])
        assert landscape_module._optimum_by_components(land) is None
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
        assert np.array_equal(land.optimum[0], expected)

    def test_dominates_random_configs(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            matrix = random_matrix(8, 3, rng)
            land = generate_landscape(matrix, rng)
            for _ in range(200):
                config = rng.integers(0, 2, size=8)
                norm = performance(contributions_of(land, config)) / land.optimum[1]
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
                    assert performance(contributions_of(land, config)) == brute_performance(land, config)
                engine_config, engine_perf = global_optimum(land)
                brute_config, brute_perf = brute_optimum(land)
                assert np.array_equal(engine_config, brute_config)
                assert engine_perf == brute_perf

    def test_subset_performance_matches(self):
        """agent_utility's own mean (alpha 1) and residual mean (alpha 0) over the contribution vector equal the
        oracle's subset performance."""
        rng = np.random.default_rng(77)
        own, residual = IncentiveScheme(1.0), IncentiveScheme(0.0)
        for _ in range(20):
            matrix = random_matrix(4, 2, rng)
            land = generate_landscape(matrix, rng)
            config = rng.integers(0, 2, size=4)
            size = int(rng.integers(1, 5))
            subset = list(rng.choice(4, size=size, replace=False))
            agent = make_agent(0, subset, n=4)
            contributions = contributions_of(land, config)
            assert agent_utility(agent, contributions, own) == brute_performance(land, config, subset)
            rest = [d for d in range(4) if d not in agent.owned]
            if rest:
                assert agent_utility(agent, contributions, residual) == brute_performance(land, config, rest)

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
    """global_optimum equals brute_optimum exactly, and so does the exhaustive scan itself, called directly so
    that a decomposable matrix reaches it too, at the default and 8-configuration chunks, each with the default
    contiguous tail and tails of 1 and 3 decisions."""
    brute_config, brute_perf = brute_optimum(land)
    config, perf = global_optimum(land)
    assert np.array_equal(config, brute_config)
    assert perf == brute_perf
    for chunk in (landscape_module._SCAN_CHUNK, 1 << 3):
        for tail in (landscape_module._SCAN_TAIL, 1, 3):
            with monkeypatch.context() as patch:
                patch.setattr(landscape_module, "_SCAN_CHUNK", chunk)
                patch.setattr(landscape_module, "_SCAN_TAIL", tail)
                config = landscape_module._scan(land)
            assert config.dtype == np.int8
            assert np.array_equal(config, brute_config)


class TestScanAgainstOracle:
    """The exhaustive scan against brute_optimum above the oracle's printable size."""

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("kind", [DECOMPOSABLE_K2, NONDECOMPOSABLE_K5], ids=KIND_IDS.get)
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


def block_matrix(sizes, rng):
    """Block-diagonal structure with blocks of the given sizes: a chain keeps each block one component, and
    random links inside the block vary the tables' widths."""
    n = sum(sizes)
    entries = np.eye(n, dtype=bool)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        entries[block, block] |= rng.random((size, size)) < 0.4
        for j in range(start, start + size - 1):
            reader, read = (j, j + 1) if rng.random() < 0.5 else (j + 1, j)
            entries[reader, read] = True
        start += size
    return InteractionMatrix(entries)


def scan_forbidden(monkeypatch):
    def scan(land):
        raise AssertionError("the exhaustive scan ran")

    monkeypatch.setattr(landscape_module, "_scan", scan)


class TestOptimumByComponents:
    """The optimum found component by component, against brute_optimum, and every case that falls back to the
    scan."""

    def test_stylized_components(self):
        k2 = build_stylized_matrix(DECOMPOSABLE_K2, 15)
        assert k2.components == tuple(tuple(range(b, b + 3)) for b in range(0, 15, 3))
        [(members, index)] = k2.gathers
        assert members.tolist() == [list(c) for c in k2.components]
        assert index.shape == (5, 3, 8)
        # decision 4 reads (4, 3, 5); component code 0b110 sets decisions 3 and 4, so its index is 0b110
        assert index[1, 1, 0b110] == 4 * 8 + 0b110
        k5 = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        assert k5.components == (tuple(range(15)),)
        assert k5.gathers == ()

    def test_gathers_read_the_tables_as_contribution_does(self):
        """Every gather index against the public op: under each component code, first member as the highest
        bit, member r's entry is its contribution, whatever the other decisions hold."""
        rng = np.random.default_rng(306)
        matrices = [build_stylized_matrix(DECOMPOSABLE_K2, n) for n in (6, 9, 12, 15)]
        while len(matrices) < 16:
            sizes = tuple(rng.integers(1, landscape_module._SCAN_TAIL + 1, size=rng.integers(2, 5)).tolist())
            if sum(sizes) <= 20:
                matrices.append(block_matrix(sizes, rng))
        for matrix in matrices:
            land = generate_landscape(matrix, rng)
            flat = np.concatenate(land.tables)
            for members, index in matrix.gathers:
                for c, component in enumerate(members.tolist()):
                    for code in range(1 << len(component)):
                        config = rng.integers(0, 2, matrix.n).tolist()
                        for q, d in enumerate(component):
                            config[d] = (code >> (len(component) - 1 - q)) & 1
                        for r, j in enumerate(component):
                            assert flat[index[c, r, code]] == contribution(land, config, j)

    def test_components_read_links_in_either_direction(self):
        entries = np.eye(5, dtype=bool)
        entries[0, 3] = entries[4, 1] = True
        matrix = InteractionMatrix(entries)
        assert matrix.components == ((0, 3), (1, 4), (2,))
        assert [members.tolist() for members, _ in matrix.gathers] == [[[0, 3], [1, 4]], [[2]]]

    def test_components_match_union_find(self):
        """Random matrices of every density, n from 1 to 25, against a union-find over the links."""

        def union_find_components(entries):
            parent = list(range(len(entries)))

            def root(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for j, i in zip(*np.nonzero(entries)):
                parent[root(int(j))] = root(int(i))
            groups = {}
            for d in range(len(entries)):
                groups.setdefault(root(d), []).append(d)
            return tuple(sorted(tuple(group) for group in groups.values()))

        def chain(n):
            # One path through all n decisions in a random order: the longest a component's diameter can be.
            entries = np.eye(n, dtype=bool)
            order = rng.permutation(n)
            entries[order[1:], order[:-1]] = True
            return entries

        rng = np.random.default_rng(41)
        for n in range(1, 26):
            for density in (0.0, 0.02, 0.05, 0.1, 0.3, None):
                if density is None:
                    entries = chain(n)
                else:
                    entries = rng.random((n, n)) < density
                    np.fill_diagonal(entries, True)
                components = InteractionMatrix(entries).components
                assert components == union_find_components(entries)
                assert all(type(d) is int for members in components for d in members)

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_k2_answers_without_the_scan(self, n, monkeypatch):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            land = generate_landscape(build_stylized_matrix(DECOMPOSABLE_K2, n), rng)
            brute_config, brute_perf = brute_optimum(land)
            with monkeypatch.context() as patch:
                scan_forbidden(patch)
                config, perf = global_optimum(land)
            assert config.dtype == np.int8
            assert np.array_equal(config, brute_config)
            assert perf == brute_perf

    @pytest.mark.parametrize("n", [6, 9, 12, 15])
    def test_k5_never_decomposes(self, n):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, n)
        assert len(matrix.components) == 1
        land = generate_landscape(matrix, np.random.default_rng(n))
        assert landscape_module._optimum_by_components(land) is None

    def test_mixed_blocks_match_brute(self, monkeypatch):
        rng = np.random.default_rng(303)
        for sizes in [(1, 2, 3, 4), (5, 1, 2, 3), (2, 8, 1), (4, 4, 4)]:
            matrix = block_matrix(sizes, rng)
            assert [len(c) for c in matrix.components] == list(sizes)
            land = generate_landscape(matrix, rng)
            brute_config, brute_perf = brute_optimum(land)
            with monkeypatch.context() as patch:
                scan_forbidden(patch)
                config, perf = global_optimum(land)
            assert np.array_equal(config, brute_config)
            assert perf == brute_perf

    def test_block_larger_than_the_tail_scans(self, monkeypatch):
        rng = np.random.default_rng(304)
        matrix = block_matrix((landscape_module._SCAN_TAIL + 1, 2, 1), rng)
        assert len(matrix.components) == 3
        assert matrix.gathers == ()
        assert_scan_matches_brute(generate_landscape(matrix, rng), monkeypatch)

    def test_one_ulp_apart_falls_back_to_the_first_maximum(self):
        # Decision 0's component scores 0.5 and the next double up; added to 0.75 + 0.25 both round to 1.5,
        # so the full sums tie and the first maximum keeps decision 0 at 0, against the component's argmax.
        tables = [np.array([0.5, np.nextafter(0.5, 1.0)]), np.array([0.75, 0.25]), np.array([0.0, 0.25])]
        land = Landscape(matrix=identity_matrix(3), tables=tables)
        assert landscape_module._optimum_by_components(land) is None
        brute_config, brute_perf = brute_optimum(land)
        assert brute_config.tolist() == [0, 0, 1]
        config, perf = global_optimum(land)
        assert np.array_equal(config, brute_config)
        assert perf == brute_perf

    def test_contributions_beyond_the_bound_fall_back(self, monkeypatch):
        land = generate_landscape(build_stylized_matrix(DECOMPOSABLE_K2, 6), np.random.default_rng(305))
        scaled = Landscape(matrix=land.matrix, tables=[4.0 * table for table in land.tables])
        assert landscape_module._optimum_by_components(land) is not None
        assert landscape_module._optimum_by_components(scaled) is None
        assert_scan_matches_brute(scaled, monkeypatch)


class TestChunkBoundaries:
    """The scan across chunk boundaries at n = 19, against the same scan in one chunk, and its matrix left as drawn."""

    def test_two_chunks_match_one_chunk(self, monkeypatch):
        assert 1 << 19 == 2 * landscape_module._SCAN_CHUNK
        rng = np.random.default_rng(43)
        land = generate_landscape(random_matrix(19, 3, rng), rng)
        two_chunks = land.optimum
        monkeypatch.setattr(landscape_module, "_SCAN_CHUNK", 1 << 19)
        config, perf = global_optimum(land)
        assert np.array_equal(config, two_chunks[0])
        assert perf == two_chunks[1]

    def test_tie_crosses_chunk_boundary_to_all_zeros(self, monkeypatch):
        matrix = random_matrix(19, 2, np.random.default_rng(44))
        land = Landscape(matrix=matrix, tables=[np.full(8, 0.5) for _ in range(19)])
        for chunk in (landscape_module._SCAN_CHUNK, 1 << 19):
            for tail in (landscape_module._SCAN_TAIL, 1):
                monkeypatch.setattr(landscape_module, "_SCAN_CHUNK", chunk)
                monkeypatch.setattr(landscape_module, "_SCAN_TAIL", tail)
                config, perf = global_optimum(land)
                assert np.array_equal(config, np.zeros(19, dtype=np.int8))
                assert perf == 0.5

    def test_scan_leaves_matrix_pickle_unchanged(self):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 15)
        before = len(pickle.dumps(matrix))
        generate_landscape(matrix, np.random.default_rng(5)).optimum
        assert len(pickle.dumps(matrix)) == before


class TestScanMemory:
    def test_peak_stays_within_three_chunks(self):
        """A wide table whose decisions span every chunk's fixed prefix and its tail is copied one chunk at a
        time: copying it whole, 2^13 entries spread over 2^20 configurations, would take 8 MiB."""
        n = 20
        entries = np.eye(n, dtype=bool)
        entries[0, :12] = entries[0, 19] = True
        for j in range(1, n):
            entries[j, (j + 1) % n] = True
        matrix = InteractionMatrix(entries)
        rng = np.random.default_rng(45)
        land = Landscape(matrix=matrix, tables=[rng.random(1 << len(order)) for order in matrix.orders])
        tracemalloc.start()
        try:
            global_optimum(land)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * landscape_module._SCAN_CHUNK * 8

    def test_one_totals_array_serves_every_chunk(self):
        """Narrow tables leave the chunk's totals as the scan's one large array: a second one, bound while the
        previous chunk's is still alive, would double the peak."""
        rng = np.random.default_rng(47)
        land = generate_landscape(random_matrix(20, 2, rng), rng)
        tracemalloc.start()
        try:
            global_optimum(land)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * landscape_module._SCAN_CHUNK * 8

    def test_landscapes_share_matrix_orders(self):
        matrix = build_stylized_matrix(NONDECOMPOSABLE_K5, 9)
        rng = np.random.default_rng(46)
        first, second = generate_landscape(matrix, rng), generate_landscape(matrix, rng)
        assert first.matrix is second.matrix is matrix
