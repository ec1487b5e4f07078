"""Shared fixtures: a small synthetic dataset sized for fast unit tests; `one`, a
feature primitive applied to one signal."""
import numpy as np
import pytest

from harkit.ingest import SynthParams, generate_synthetic


@pytest.fixture(scope="session")
def small_dataset():
    """3 subjects x 5 activities x 3 sensors, 1 minute at 20 Hz."""
    params = SynthParams(n_subjects=3, minutes_per_activity=1.0, seed=123)
    recordings, metas = generate_synthetic(params)
    return params, recordings, metas


def one(fn, signal, *args):
    """fn's result for one signal: its row of the one-row block."""
    return fn(signal[None], *args)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
