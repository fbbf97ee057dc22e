"""Paper-shape differential check: the engine against the reference twin in the 18 paper cells at horizon 500.

Tier-1 compares the two on short runs only. Here every paper cell runs 500
periods, with 20 auction rounds in the auction cells, the stall skip and long
belief histories. The check takes about 10 s, so it carries the
``paper_shape`` marker, which the default test run deselects:

    PYTHONPATH=src python -m pytest -m paper_shape
"""

from dataclasses import replace

import pytest

import orgsim.simulation
from orgsim import IncentiveScheme, ScenarioConfig, expand_grid
from orgsim.organization import flip_improves
from helpers import assert_matches_reference

pytestmark = pytest.mark.paper_shape

PAPER_CELLS = expand_grid(ScenarioConfig(structure="k2", incentive=IncentiveScheme.parse("balanced"),
                                         strategy="utility", horizon=500, reps=2, seed=11))


@pytest.mark.parametrize("cell", PAPER_CELLS, ids=lambda cell: cell.cell)
def test_engine_matches_reference(cell):
    for rep in range(cell.reps):
        assert_matches_reference(cell, rep)


@pytest.mark.parametrize("cell", PAPER_CELLS, ids=lambda cell: cell.cell)
def test_every_verdict_from_contribution_vectors(cell, monkeypatch):
    """|Δ| is below alpha + beta = 1, so a guard of 1.0 sends every verdict to ``flip_improves`` on the engine's
    contribution vectors."""
    calls = []

    def counted(*args):
        calls.append(args)
        return flip_improves(*args)

    monkeypatch.setattr(orgsim.simulation, "VERDICT_GUARD", 1.0)
    monkeypatch.setattr(orgsim.simulation, "flip_improves", counted)
    assert_matches_reference(replace(cell, reps=1), 0)
    assert calls
