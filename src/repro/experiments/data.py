"""Collection and caching of the sequential solver campaigns.

Every solver-backed experiment (Tables 1–5, Figures 6–14, the SAT tables)
is a pure function of ``(config, observations)``, and the observations come
from one collector, :func:`collect_observations`.  Collecting is by far the
most expensive step, so every batch goes through the engine's
content-addressed :class:`repro.engine.ObservationCache`: on disk when a
cache directory is given (repeated CLI invocations reuse earlier
campaigns), otherwise in one process-wide
:class:`repro.engine.cache.MemoryObservationCache`.  The key names the
solver, label, run count and seed root, so a batch is collected at most
once per process whatever asks for it — the SAT stage and the
default-policy stage of the policy family share one address, for example.
Execution itself is delegated to the campaign orchestrator
(:func:`repro.campaign.run_campaign` over the stage DAGs declared in
:mod:`repro.experiments.stages`, with the controller ``off``), which routes
every batch through :func:`repro.engine.collect_batch` — campaigns can be
collected on any backend with bit-identical results, and a cache entry
written by one backend is a valid hit for all of them.

The collector runs the orchestrator with ``enforce_required=False``: an
all-censored batch is a legitimate *answer* for a table (the
censoring-aware formatting paths exist for it), whereas the ``campaign``
subcommand enforces the BUG-021 zero-observation guardrail.
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign.orchestrator import run_campaign
from repro.engine.backends import BatchExecutor
from repro.engine.cache import MemoryObservationCache, ObservationCache
from repro.engine.progress import ProgressCallback
from repro.experiments.config import ExperimentConfig
from repro.experiments.stages import campaign_stages, canonical_emit_order
from repro.multiwalk.observations import RuntimeObservations

__all__ = ["clear_observation_cache", "collect_observations", "observation_cache"]

#: The process-wide memory tier used wherever no cache directory is given.
_MEMORY_CACHE = MemoryObservationCache()


def observation_cache(cache_dir: str | Path | None) -> ObservationCache | str | Path:
    """The cache a collection uses: ``cache_dir`` if given, else the memory tier."""
    return _MEMORY_CACHE if cache_dir is None else cache_dir


def clear_observation_cache() -> None:
    """Drop every batch held in the memory tier (mostly useful in tests)."""
    _MEMORY_CACHE.batches.clear()


def collect_observations(
    kind: str,
    config: ExperimentConfig,
    *,
    cache_dir: str | Path | None = None,
    backend: str | BatchExecutor | None = None,
    progress: ProgressCallback | None = None,
) -> dict[str, RuntimeObservations]:
    """Run (or reuse) the sequential campaign of one observation kind.

    ``kind`` is one of :data:`~repro.experiments.stages.STAGE_KINDS`:
    ``"benchmarks"`` (the three CSP benchmarks), ``"sat"`` (the configured
    WalkSAT workload) or ``"sat_policies"`` (every flip policy on that
    instance with the ``"sat"`` seed stream, the configured policy's row
    being the ``"sat"`` batch itself); any other value raises
    :class:`ValueError` naming the known kinds.  Keys come in
    :func:`~repro.experiments.stages.canonical_emit_order`, so policies keep
    their :data:`~repro.solvers.policies.POLICIES` order.

    ``cache_dir`` persists batches as content-addressed JSON across
    processes (without it they are reused within the process only);
    ``backend`` and ``progress`` go to the engine (default: serial); pass
    a configured executor to size a pool or keep it warm across kinds.
    """
    stages = campaign_stages(config, kinds=(kind,))
    report = run_campaign(
        stages,
        controller="off",
        backend=backend,
        progress=progress,
        cache=observation_cache(cache_dir),
        enforce_required=False,
    )
    collected = report.observations()
    return {key: collected[key] for key in canonical_emit_order(stages)}
