"""The brute-force reference itself: hand-derived values and enumeration shape."""

import numpy as np
import pytest

from orgsim import ConfigError
from orgsim.landscape import generate_landscape, random_matrix
from orgsim.oracle import (
    ORACLE_MAX_N,
    brute_contribution,
    brute_min_contribution,
    brute_optimum,
    brute_performance,
    enumerate_configs,
    oracle_report,
)
from helpers import k0_landscape
from test_landscape import tiny_landscape


class TestEnumerateConfigs:
    def test_lexicographic_with_decision_zero_leftmost(self):
        assert enumerate_configs(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(enumerate_configs(4)) == 16
        assert enumerate_configs(3)[0] == (0, 0, 0)
        assert enumerate_configs(3)[-1] == (1, 1, 1)


class TestBruteContribution:
    def test_hand_values(self):
        land = tiny_landscape()
        assert brute_contribution(land, (1, 0), 0) == 0.30
        assert brute_contribution(land, (1, 1), 0) == 0.40
        assert brute_contribution(land, (0, 1), 1) == 0.65

    def test_performance_is_plain_mean(self):
        land = tiny_landscape()
        assert brute_performance(land, (1, 1)) == (0.40 + 0.65) / 2


class TestBruteOptimum:
    def test_k0_optimum_is_obvious(self):
        land = k0_landscape([(0.1, 0.9), (0.8, 0.3), (0.4, 0.6)])
        config, perf = brute_optimum(land)
        assert config.tolist() == [1, 0, 1]
        assert perf == brute_performance(land, (1, 0, 1))

    def test_constant_landscape_ties_to_first(self):
        land = k0_landscape([(0.5, 0.5)] * 3)
        config, perf = brute_optimum(land)
        assert config.tolist() == [0, 0, 0]
        assert perf == 0.5


class TestBruteMinContribution:
    def test_reports_all_argmins(self):
        land = k0_landscape([(0.2, 0.9), (0.5, 0.2), (0.2, 0.7)])
        low, argmins = brute_min_contribution(land, (0, 0, 0), [0, 1, 2])
        assert low == 0.2
        assert argmins == [0, 2]
        low, argmins = brute_min_contribution(land, (0, 0, 0), [1, 2])
        assert argmins == [2]
        with pytest.raises(ValueError, match="empty decision set"):
            brute_min_contribution(land, (0, 0, 0), [])


class TestOracleReport:
    def test_report_shape(self):
        rng = np.random.default_rng(2)
        land = generate_landscape(random_matrix(3, 1, rng), rng)
        report = oracle_report(land)
        assert report["n"] == 3
        assert len(report["configs"]) == 8
        assert set(report["dependencies"]) == {"0", "1", "2"}
        best = max(report["configs"], key=lambda row: row["performance"])
        assert report["optimum"]["performance"] == best["performance"]
        assert len(report["optimum"]["config"]) == 3

    def test_size_guard(self):
        rng = np.random.default_rng(2)
        land = generate_landscape(random_matrix(ORACLE_MAX_N + 1, 0, rng), rng)
        with pytest.raises(ConfigError, match="n <= 4"):
            oracle_report(land)
