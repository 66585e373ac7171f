"""Shared fixtures for the test suite.

Solver campaigns are by far the slowest part of testing, so a single tiny
campaign is collected once per session and shared by every experiment-layer
test through the ``tiny_observations`` fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import collect_benchmark_observations


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator for each test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """Smallest meaningful experiment configuration."""
    return ExperimentConfig.tiny()


@pytest.fixture(scope="session")
def tiny_observations(tiny_config):
    """One shared solver campaign for all experiment-layer tests."""
    return collect_benchmark_observations(tiny_config)


@pytest.fixture
def solver_runs(monkeypatch) -> list[int]:
    """Indices of the runs the engine executes in this process, in order.

    Spies on ``execute_run`` where the engine looks it up, so in-process
    backends (serial, thread) record every run they execute; a cache hit
    records nothing.
    """
    import repro.engine.core as engine_core

    runs: list[int] = []
    execute = engine_core.execute_run

    def spy(task):
        runs.append(task.index)
        return execute(task)

    monkeypatch.setattr(engine_core, "execute_run", spy)
    return runs
