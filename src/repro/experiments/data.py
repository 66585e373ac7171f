"""Collection and caching of the sequential solver campaigns.

Every solver-backed experiment (Tables 1–5, Figures 6–14) consumes the same
raw material: a batch of independent sequential Adaptive Search runs per
benchmark.  Collecting them is by far the most expensive step, so every
batch goes through the engine's content-addressed
:class:`repro.engine.ObservationCache`: on disk when a cache directory is
given (repeated CLI invocations reuse earlier campaigns), otherwise in one
process-wide :class:`repro.engine.cache.MemoryObservationCache`.  The key
names the solver, label, run count and seed root, so a batch is collected
at most once per process whatever asks for it — the SAT stage and the
default-policy stage of the policy family share one address, for example.
Execution itself is delegated to the campaign orchestrator
(:func:`repro.campaign.run_campaign` over the stage DAGs declared in
:mod:`repro.experiments.stages`, with the controller ``off``), which routes
every batch through :func:`repro.engine.collect_batch` — campaigns can be
collected on any backend with bit-identical results, and a cache entry
written by one backend is a valid hit for all of them.

The collectors run the orchestrator with ``enforce_required=False``: an
all-censored batch is a legitimate *answer* for a table (the
censoring-aware formatting paths exist for it), whereas the ``campaign``
subcommand enforces the BUG-021 zero-observation guardrail.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Mapping

from repro.campaign.orchestrator import run_campaign
from repro.engine.backends import BatchExecutor
from repro.engine.cache import MemoryObservationCache, ObservationCache
from repro.engine.progress import ProgressCallback
from repro.experiments.config import SAT_KEY, ExperimentConfig
from repro.experiments.stages import campaign_stages
from repro.multiwalk.observations import RuntimeObservations
from repro.solvers.policies import POLICIES

__all__ = [
    "collect_benchmark_observations",
    "collect_sat_observations",
    "collect_sat_policy_observations",
    "clear_observation_cache",
    "observation_cache",
]

#: The process-wide memory tier used wherever no cache directory is given.
_MEMORY_CACHE = MemoryObservationCache()


def observation_cache(cache_dir: str | Path | None) -> ObservationCache | str | Path:
    """The cache a collection uses: ``cache_dir`` if given, else the memory tier."""
    return _MEMORY_CACHE if cache_dir is None else cache_dir


def clear_observation_cache() -> None:
    """Drop every batch held in the memory tier (mostly useful in tests)."""
    _MEMORY_CACHE.batches.clear()


def _collect(
    kind: str,
    config: ExperimentConfig,
    cache_dir: str | Path | None,
    backend: str | BatchExecutor | None,
    workers: int | None,
    progress: ProgressCallback | None,
) -> dict[str, RuntimeObservations]:
    report = run_campaign(
        campaign_stages(config, kinds=(kind,)),
        controller="off",
        backend=backend,
        workers=workers,
        progress=progress,
        cache=observation_cache(cache_dir),
        enforce_required=False,
    )
    return report.observations()


def collect_benchmark_observations(
    config: ExperimentConfig,
    *,
    cache_dir: str | Path | None = None,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> Mapping[str, RuntimeObservations]:
    """Run (or reuse) the sequential campaigns for the three benchmarks.

    Parameters
    ----------
    config:
        Experiment configuration (instance sizes, run counts, seed).
    cache_dir:
        Optional directory for JSON persistence across processes.  Files are
        content-addressed by (solver, config, problem, seed), so changing
        any size/seed parameter triggers a fresh campaign.  Without it,
        batches are reused within the process only.
    backend, workers:
        Execution backend and worker count forwarded to the engine
        (default: serial).
    progress:
        Optional structured progress callback forwarded to the engine.
    """
    return _collect("benchmarks", config, cache_dir, backend, workers, progress)


def collect_sat_observations(
    config: ExperimentConfig,
    *,
    cache_dir: str | Path | None = None,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> Mapping[str, RuntimeObservations]:
    """Run (or reuse) the sequential WalkSAT campaign on the configured SAT workload.

    The instance family (planted / uniform / DIMACS) and the flip policy
    come from ``config.sat_family`` / ``config.sat_policy``.  Same contract
    as :func:`collect_benchmark_observations` — engine-routed execution on
    any backend with bit-identical flip counts and content-addressed
    caching — for the SAT workload the paper's conclusion proposes.
    Returns a single-entry mapping keyed by
    :data:`~repro.experiments.config.SAT_KEY` so SAT campaigns compose with
    the benchmark ones.
    """
    return _collect("sat", config, cache_dir, backend, workers, progress)


def collect_sat_policy_observations(
    config: ExperimentConfig,
    *,
    cache_dir: str | Path | None = None,
    backend: str | BatchExecutor | None = None,
    workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> Mapping[str, RuntimeObservations]:
    """Run (or reuse) one WalkSAT campaign per registered flip policy.

    Every policy runs on the *same* configured instance with the *same*
    seed stream (``base_seed + 3``, the root the single-policy SAT
    campaign uses), so the batches differ only in the policy — the SAT
    analogue of comparing solvers on a fixed benchmark.  Keys are
    ``"SAT/<policy>"``; the configured policy's batch is the one
    :func:`collect_sat_observations` collects (identical solver, seed root
    and label, hence one cache address), so either collector reuses the
    other's batch rather than executing it a second time.
    """
    collected = _collect("sat_policies", config, cache_dir, backend, workers, progress)
    # Registered policy order (the shared default-policy batch sits at its
    # policy position, not at its stage position).
    return {
        key: collected[key] for policy in POLICIES if (key := f"{SAT_KEY}/{policy}") in collected
    }


@dataclasses.dataclass(frozen=True)
class CampaignSummary:
    """Bookkeeping record describing a collected campaign (used by the CLI)."""

    config: ExperimentConfig
    n_runs: Mapping[str, int]
    success_rates: Mapping[str, float]

    @classmethod
    def from_observations(
        cls, config: ExperimentConfig, observations: Mapping[str, RuntimeObservations]
    ) -> "CampaignSummary":
        return cls(
            config=config,
            n_runs={key: obs.n_runs for key, obs in observations.items()},
            success_rates={key: obs.success_rate() for key, obs in observations.items()},
        )
