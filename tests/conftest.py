"""Shared fixtures: a couple of models, small sampled pairs, one trial process."""

import pytest

from scclab import edge_stats, make_model, sample_gaussian


@pytest.fixture
def one_trial_process(monkeypatch):
    # TrialLog.map computes every trial in this process, so a spy that
    # counts calls here sees them all
    monkeypatch.setattr(edge_stats, "_processes", lambda: 1)


@pytest.fixture(scope="session")
def model_wide():
    # c1 well above c2, lower edge away from zero
    return make_model(0.4, 0.2)


@pytest.fixture(scope="session")
def model_thin():
    # lower edge near zero, the acceptance geometry
    return make_model(0.3, 0.2)


@pytest.fixture(scope="session")
def small_pair():
    return sample_gaussian(20, 12, 60, seed=11)


@pytest.fixture(scope="session")
def medium_pair():
    return sample_gaussian(40, 20, 100, seed=5)
