"""Streaming campaign orchestration with the paper's predictor in the loop.

The experiment campaigns used to be plain loops over
:func:`repro.engine.collect_batch`.  This package turns them into an
orchestrated DAG of stages with a live controller:

* :mod:`repro.campaign.stages` — :class:`StageSpec` and DAG validation.
* :mod:`repro.campaign.controller` — the ``static`` (plan once) and
  ``adaptive`` (streaming censoring-aware fits, kill-and-reseed cutoffs,
  fixed-vs-Luby schedule, a predictor-driven worker allocation recorded in
  the log) controllers and the deterministic decision log.
* :mod:`repro.campaign.orchestrator` — :func:`run_campaign` (with the
  BUG-021 zero-observation guardrail), offline :func:`replay_decisions`
  and the :func:`verify_report` determinism gate.
* :mod:`repro.campaign.report` — the JSON-serialisable campaign report:
  per-stage run streams plus the replayable decision log.

The package's bit-identity invariant: controller decisions are a pure
function of the observation stream — controllers see only
``(index, seed, iterations, solved, budget)`` in stable index order, never
wall clock — so a given ``base_seed`` produces an identical decision log
on every engine backend at any worker count, and every saved report
replays bit for bit through :func:`verify_report`.
"""

from repro.campaign.controller import (
    AdaptiveController,
    CONTROLLER_NAMES,
    Controller,
    Decision,
    DecisionLog,
    RoundPlan,
    StageRunRecord,
    StaticController,
    make_controller,
)
from repro.campaign.orchestrator import (
    CampaignError,
    ReplayError,
    replay_decisions,
    run_campaign,
    verify_report,
)
from repro.campaign.report import CampaignReport, StageReport
from repro.campaign.stages import (
    StageGraphError,
    StageSpec,
    resolve_stage_order,
    select_stages,
)

__all__ = [
    "AdaptiveController",
    "CONTROLLER_NAMES",
    "CampaignError",
    "CampaignReport",
    "Controller",
    "Decision",
    "DecisionLog",
    "ReplayError",
    "RoundPlan",
    "StageGraphError",
    "StageReport",
    "StageRunRecord",
    "StageSpec",
    "StaticController",
    "make_controller",
    "replay_decisions",
    "resolve_stage_order",
    "run_campaign",
    "select_stages",
    "verify_report",
]
