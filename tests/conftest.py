"""Shared fixtures for the test suite.

Solver campaigns are by far the slowest part of testing, so a single tiny
campaign is collected once per session and shared by every experiment-layer
test through the ``tiny_observations`` fixture.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import collect_observations


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
    return collect_observations("benchmarks", tiny_config)


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


@pytest.fixture
def spawned_pools(monkeypatch) -> Iterator[list[int]]:
    """Sizes of the spawn-context process pools built during the test.

    Wraps the spawn context's ``Pool`` (the one :class:`ProcessBackend`
    builds from), so every pool start is recorded, in order.  The pools
    stay referenced until the test ends: a pool nobody closed keeps its
    workers alive (``multiprocessing.active_children()``) instead of
    being reaped by garbage collection.
    """
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    sizes: list[int] = []
    pools = []
    build = context.Pool

    def counting(processes=None, *args, **kwargs):
        sizes.append(processes)
        pools.append(build(processes, *args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(context, "Pool", counting)
    yield sizes
    for pool in pools:
        pool.terminate()
        pool.join()
