"""Command-line interface: ``repro-lasvegas`` / ``python -m repro.cli``.

Subcommands
-----------
``list``
    Show every reproducible table/figure with a one-line description.
``run <experiment> [...]``
    Run one or more experiments (``all`` runs everything) and print the
    rows/series the paper reports.
``predict --input FILE``
    Fit a distribution to newline-separated runtimes read from a file (or
    stdin) and print the predicted multi-walk speed-ups — the library's
    end-user workflow.
``campaign``
    Run the experiment campaigns through the streaming orchestrator.  The
    default ``--controller off`` and ``--controller static`` collect one
    classic batch per stage and record the plan; ``--controller adaptive`` re-plans
    every round live (kill-and-reseed cutoffs, fixed-vs-Luby schedule, and
    a predictor-driven worker allocation that is recorded, not applied).
    ``--dry-run`` prints the resolved stage DAG and plan without executing;
    ``--report FILE`` saves the full campaign report (run streams + decision
    log); ``--replay FILE`` re-derives a saved report's decision log offline
    and verifies it matches bit for bit.  With ``--backend distributed`` the
    process acts as the coordinator (``--coordinator HOST:PORT`` or
    ``--job-dir DIR``) and the runs execute on connected workers.
``worker``
    Join a distributed campaign: connect to a coordinator (``--connect``) or
    watch a job directory (``--job-dir``), pull work units, run them on a
    local backend, and stream results back until the coordinator shuts down.
    ``--token`` authenticates against a coordinator started with a worker
    token.
``serve``
    Run the long-lived campaign service: an HTTP/JSON API (submit, status,
    live event streaming, report fetch, cancel) in front of a bounded job
    queue, a multi-tenant observation cache and any engine backend —
    including ``--backend distributed``, where the service doubles as the
    coordinator for an authenticated worker fleet (``--worker-token``).
``recipe``
    Workload recipes (see ``docs/recipes.md``): ``recipe profile`` refits a
    saved campaign report into a recipe, ``recipe validate`` /
    ``recipe describe`` check and summarise recipe files, and
    ``recipe generate`` deterministically expands a recipe into a synthetic
    campaign at any ``--scale`` — printing the JSON plan by default,
    writing a service submission with ``--submission``, or executing the
    campaign with ``--run`` on any backend/controller.

Exit codes: 0 success, 1 a run or verification failed, 2 a usage error
(a bad flag or input, printed as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import signal
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.campaign import (
    CONTROLLER_NAMES,
    CampaignError,
    CampaignReport,
    ReplayError,
    run_campaign,
    select_stages,
    verify_report,
)
from repro.core.prediction import predict_speedup_curve, predict_speedup_empirical
from repro.engine.backends import BatchExecutor
from repro.engine.core import BACKENDS, resolve_backend
from repro.engine.distributed import (
    CoordinatorUnreachable,
    DistributedBackend,
    ProtocolError,
    WorkerArgumentError,
    run_worker,
)
from repro.engine.lockstep import LockstepBackend
from repro.engine.progress import BatchProgress
from repro.experiments.config import PROFILES, SAT_FAMILIES, ExperimentConfig
from repro.experiments.data import collect_observations, observation_cache
from repro.experiments.stages import STAGE_KINDS, campaign_stages, canonical_emit_order
from repro.sat.dimacs import bundled_instance_names
from repro.solvers.policies import POLICIES
from repro.experiments.registry import EXPERIMENTS, list_experiments, run_experiment
from repro.multiwalk.observations import atomic_write_bytes

__all__ = ["build_parser", "main"]


class _UsageError(Exception):
    """A bad flag or input: :func:`main` prints it as one ``error:`` line, exit 2."""


@contextlib.contextmanager
def _setup(*errors: type[Exception]) -> Iterator[None]:
    """Turn a ``ValueError`` (or one of ``errors``) raised while a command
    sets up into a usage error.  Solver runs start outside these blocks, so
    a ``ValueError`` raised during a run still surfaces as a traceback."""
    try:
        yield
    except (ValueError, *errors) as exc:
        # str() of a KeyError is the repr of its message.
        raise _UsageError(exc.args[0] if isinstance(exc, KeyError) else exc) from exc


#: ``(flag dest, ExperimentConfig field)`` pairs a given flag overrides.
_CONFIG_OVERRIDES = (
    ("runs", "n_sequential_runs"),
    ("seed", "base_seed"),
    ("sat_family", "sat_family"),
    ("sat_policy", "sat_policy"),
    ("sat_dimacs", "sat_dimacs"),
    ("max_iterations", "max_iterations"),
)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        field: getattr(args, flag)
        for flag, field in _CONFIG_OVERRIDES
        if getattr(args, flag, None) is not None
    }
    # dataclasses.replace keeps every other profile field (instance sizes,
    # SAT workload parameters, core counts) exactly as the profile set it,
    # and re-runs the config's own value checks on the overrides.
    with _setup():
        return dataclasses.replace(PROFILES[args.profile](), **overrides)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Profile and SAT-workload flags shared by the ``run`` and ``campaign`` subcommands."""
    parser.add_argument("--profile", choices=tuple(PROFILES), default="quick")
    parser.add_argument("--runs", type=int, default=None, help="override sequential run count")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument(
        "--sat-family",
        choices=SAT_FAMILIES,
        default=None,
        help="SAT instance family: planted (satisfiable by construction, default), "
        "uniform (ratio-controlled draw, censoring-heavy near 4.27), or "
        "dimacs (a bundled DIMACS file, see --sat-dimacs)",
    )
    parser.add_argument(
        "--sat-policy",
        choices=POLICIES,
        default=None,
        help="WalkSAT flip policy of the SAT workload (default: walksat/SKC)",
    )
    parser.add_argument(
        "--sat-dimacs",
        choices=bundled_instance_names(),
        default=None,
        metavar="NAME",
        help="bundled DIMACS instance used with --sat-family dimacs "
        f"(one of: {', '.join(bundled_instance_names())})",
    )


def _add_controller_arguments(parser: argparse.ArgumentParser) -> None:
    """Campaign flags shared by ``campaign`` and ``recipe generate``."""
    parser.add_argument(
        "--controller",
        choices=CONTROLLER_NAMES,
        default="off",
        help="campaign controller: off (classic batches, default), static "
        "(same runs, plan recorded) or adaptive (live re-planning from "
        "streaming censoring-aware fits)",
    )
    parser.add_argument(
        "--report",
        type=str,
        default=None,
        metavar="FILE",
        help="write the campaign report (run streams + decision log) as JSON",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-engine flags shared by every run-collecting subcommand."""
    parser.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default="serial",
        help="execution backend for solver campaigns (default: serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/process backends (default: one per CPU)",
    )
    parser.add_argument(
        "--lockstep-width",
        type=int,
        default=None,
        metavar="K",
        help="with --backend lockstep: walks per vectorised kernel call "
        "(default: each whole seed-block as one call)",
    )
    parser.add_argument(
        "--cache",
        "--cache-dir",
        dest="cache_dir",
        type=str,
        default=None,
        help="directory of the on-disk observation cache (repeat campaigns are free)",
    )
    parser.add_argument(
        "--coordinator",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="with --backend distributed: bind the coordinator socket here "
        "and serve work units to connected 'worker' processes",
    )
    parser.add_argument(
        "--job-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="with --backend distributed: use a shared job directory instead "
        "of a socket (for queue/HPC settings)",
    )
    parser.add_argument(
        "--unit-size",
        type=int,
        default=None,
        help="runs per distributed work unit (the work-stealing granule, default: 4)",
    )
    parser.add_argument(
        "--batch-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --backend distributed: fail if no unit completes for this long "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--worker-token",
        type=str,
        default=None,
        metavar="TOKEN",
        help="with --backend distributed --coordinator: shared secret workers "
        "must present in their handshake (unauthenticated workers are refused)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasvegas",
        description="Prediction of parallel speed-ups for Las Vegas algorithms (ICPP 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the reproducible tables and figures")
    list_parser.set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (e.g. table5 figure9) or 'all'",
    )
    _add_config_arguments(run_parser)
    _add_engine_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    predict_parser = subparsers.add_parser(
        "predict", help="predict multi-walk speed-ups from observed runtimes"
    )
    predict_parser.add_argument(
        "--input", type=str, default="-", help="file of newline-separated runtimes ('-' = stdin)"
    )
    predict_parser.add_argument(
        "--cores", type=int, nargs="+", default=[16, 32, 64, 128, 256], help="core counts to predict"
    )
    predict_parser.add_argument(
        "--family",
        type=str,
        default=None,
        help="force a distribution family (default: automatic selection)",
    )
    predict_parser.add_argument(
        "--empirical", action="store_true", help="use the nonparametric (empirical) predictor"
    )
    predict_parser.set_defaults(handler=_command_predict)

    campaign_parser = subparsers.add_parser(
        "campaign", help="collect the sequential solver campaigns used by the experiments"
    )
    campaign_parser.add_argument("--progress", action="store_true", help="print per-run progress")
    _add_controller_arguments(campaign_parser)
    campaign_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved stage DAG, per-stage seed blocks and the "
        "static plan without executing anything",
    )
    campaign_parser.add_argument(
        "--replay",
        type=str,
        default=None,
        metavar="FILE",
        help="replay a saved report's decision log offline and verify it "
        "matches bit for bit (no solver runs)",
    )
    campaign_parser.add_argument(
        "--stages",
        type=str,
        default=None,
        metavar="PATTERNS",
        help="comma-separated stage keys or globs to run (e.g. 'SAT' or "
        "'SAT/*,Costas'); dependencies are included automatically",
    )
    campaign_parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="override the per-run iteration/flip budget (censoring threshold)",
    )
    _add_config_arguments(campaign_parser)
    _add_engine_arguments(campaign_parser)
    campaign_parser.set_defaults(handler=_command_campaign)

    worker_parser = subparsers.add_parser(
        "worker", help="join a distributed campaign and execute its work units"
    )
    worker_parser.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="coordinator address to pull work units from",
    )
    worker_parser.add_argument(
        "--job-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="shared job directory to pull work units from (instead of a socket)",
    )
    worker_parser.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default="serial",
        help="local backend each work unit runs on (default: serial; 'process' "
        "starts one spawn pool on the first unit and keeps it warm for the "
        "whole session)",
    )
    worker_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the local thread/process backend",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between polls while idle (default: 0.2)",
    )
    worker_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connection (default: 30)",
    )
    worker_parser.add_argument(
        "--max-units", type=int, default=None, help="exit after completing this many units"
    )
    worker_parser.add_argument(
        "--name", type=str, default=None, help="worker name announced to the coordinator"
    )
    worker_parser.add_argument(
        "--token",
        type=str,
        default=None,
        metavar="TOKEN",
        help="shared secret presented to the coordinator's handshake (required "
        "when the coordinator was started with --worker-token)",
    )
    worker_parser.add_argument(
        "--heartbeat-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="cadence of lease-refreshing heartbeats while a unit executes "
        "(0 disables, default: 5)",
    )
    worker_parser.set_defaults(handler=_command_worker)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived campaign service (HTTP/JSON submit/stream/report API)",
    )
    serve_parser.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 picks a free port; default: 8321)"
    )
    serve_parser.add_argument(
        "--token",
        type=str,
        default=None,
        metavar="TOKEN",
        help="shared API token clients must send as 'Authorization: Bearer ...' "
        "(default: no HTTP authentication; /healthz is always open)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=8,
        metavar="N",
        help="queued-job bound; a full queue answers 429 + Retry-After (default: 8)",
    )
    serve_parser.add_argument(
        "--retry-after",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="Retry-After hint sent with 429 responses (default: 5)",
    )
    serve_parser.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU byte bound of the multi-tenant observation store rooted at "
        "--cache (least-recently-used batches are evicted beyond it)",
    )
    serve_parser.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on shutdown, let the running job (and distributed workers) finish "
        "for up to this long before cancelling (default: 10)",
    )
    _add_engine_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    recipe_parser = subparsers.add_parser(
        "recipe",
        help="profile campaign reports into workload recipes and generate "
        "synthetic campaigns from them (see docs/recipes.md)",
    )
    recipe_sub = recipe_parser.add_subparsers(dest="recipe_command", required=True)

    recipe_profile = recipe_sub.add_parser(
        "profile", help="refit a saved campaign report (--report FILE) into a recipe"
    )
    recipe_profile.add_argument("report", metavar="REPORT", help="campaign report JSON file")
    recipe_profile.add_argument(
        "--out", type=str, default=None, metavar="FILE", help="write the recipe here (default: stdout)"
    )
    recipe_profile.add_argument(
        "--name", type=str, required=True, help="recipe name (filename-safe slug)"
    )
    recipe_profile.add_argument(
        "--description", type=str, default="", help="one-line description stored in the recipe"
    )
    recipe_profile.set_defaults(handler=_command_recipe_profile)

    recipe_validate = recipe_sub.add_parser(
        "validate", help="strictly validate recipe files (or bundled recipe names)"
    )
    recipe_validate.add_argument(
        "recipes", nargs="+", metavar="RECIPE", help="recipe file paths or bundled recipe names"
    )
    recipe_validate.set_defaults(handler=_command_recipe_validate)

    recipe_describe = recipe_sub.add_parser(
        "describe", help="summarise a recipe's stages, fitted families and instance mix"
    )
    recipe_describe.add_argument(
        "recipe", metavar="RECIPE", help="recipe file path or bundled recipe name"
    )
    recipe_describe.set_defaults(handler=_command_recipe_describe)

    recipe_generate = recipe_sub.add_parser(
        "generate",
        help="deterministically expand a recipe into a synthetic campaign "
        "(prints the JSON plan; --run executes it)",
    )
    recipe_generate.add_argument(
        "recipe", metavar="RECIPE", help="recipe file path or bundled recipe name"
    )
    recipe_generate.add_argument(
        "--scale", type=int, default=1, metavar="N", help="replicas per recipe stage (default: 1)"
    )
    recipe_generate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="re-root every seed stream and instance draw (default: the "
        "recipe's recorded seeds — at --scale 1 an exact replay)",
    )
    recipe_generate.add_argument(
        "--out", type=str, default=None, metavar="FILE", help="write the JSON plan here instead of stdout"
    )
    recipe_generate.add_argument(
        "--submission",
        type=str,
        default=None,
        metavar="FILE",
        help="also write a campaign-service submission body (POST it to /jobs)",
    )
    recipe_generate.add_argument(
        "--run", action="store_true", help="execute the generated campaign now"
    )
    _add_controller_arguments(recipe_generate)
    _add_engine_arguments(recipe_generate)
    recipe_generate.set_defaults(handler=_command_recipe_generate)

    return parser




def _command_list(args: argparse.Namespace) -> int:
    for name, description in list_experiments():
        print(f"{name:<10s} {description}")
    return 0


#: Engine flags only ``--backend distributed`` reads.
_DISTRIBUTED_FLAGS = ("coordinator", "job_dir", "unit_size", "batch_timeout", "worker_token")


@contextlib.contextmanager
def _engine(args: argparse.Namespace) -> Iterator[BatchExecutor]:
    """The one executor every batch of this command runs on.

    The CLI checks only which backend a flag belongs to; the engine's
    constructors check the values.  One instance serves the whole
    invocation: a process pool stays warm across batches and campaigns,
    and a distributed coordinator socket (or job directory) persists, so
    workers stay connected in between.  The executor is closed on exit;
    closing a distributed backend shuts its coordinator down, which lets
    connected workers exit cleanly.
    """
    if args.lockstep_width is not None and args.backend != "lockstep":
        raise _UsageError("--lockstep-width requires --backend lockstep")
    if args.backend != "distributed" and any(
        getattr(args, flag) is not None for flag in _DISTRIBUTED_FLAGS
    ):
        # Silently ignoring tuning flags would hide misconfiguration (e.g. a
        # user expecting --batch-timeout to bound a process-backend campaign).
        raise _UsageError(
            "--coordinator/--job-dir/--unit-size/--batch-timeout/--worker-token "
            "require --backend distributed"
        )
    with _setup():
        if args.backend == "distributed":
            executor = DistributedBackend(
                coordinator=args.coordinator,
                job_dir=args.job_dir,
                workers=args.workers,
                unit_size=args.unit_size if args.unit_size is not None else 4,
                batch_timeout=args.batch_timeout,
                auth_token=args.worker_token,
            )
        else:
            # A process pool starts on the first batch, not here.
            executor = resolve_backend(args.backend, args.workers)
            if args.lockstep_width is not None:
                executor = LockstepBackend(width=args.lockstep_width)
    try:
        yield executor
    finally:
        executor.close()


def _command_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise _UsageError(f"unknown experiments: {unknown}")
    # Collect each observation campaign at most once, with the engine flags.
    campaigns: dict[str, object] = {}
    with _engine(args) as backend:
        for kind in STAGE_KINDS:
            if any(EXPERIMENTS[n].observations == kind for n in names):
                campaigns[kind] = collect_observations(
                    kind, config, cache_dir=args.cache_dir, backend=backend
                )
    for name in names:
        observations = campaigns.get(EXPERIMENTS[name].observations)
        print(run_experiment(name, config, observations=observations).format())
        print()
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    # Predicting runs no solver, so every failure here is bad input: an
    # unreadable file, a non-numeric token, a sample no family fits, a bad
    # core count or (the KeyError) an unknown --family.
    with _setup(OSError, KeyError):
        text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
        values = np.asarray([float(token) for token in text.split()], dtype=float)
        if values.size == 0:
            raise ValueError("no runtime values found in the input")
        if args.empirical:
            result = predict_speedup_empirical(values, args.cores)
        else:
            result = predict_speedup_curve(values, args.cores, family=args.family)
    print(result.summary())
    return 0


def _load_report(path: str) -> CampaignReport:
    try:
        return CampaignReport.load(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot load report: {exc}") from exc


def _run_stages(args: argparse.Namespace, stages, **options) -> CampaignReport | None:
    """Run a campaign under ``--controller``; ``None`` when it fails, after
    saving the partial report to ``--report``."""
    try:
        return run_campaign(stages, controller=args.controller, **options)
    except CampaignError as exc:
        print(f"error: campaign failed: {exc}", file=sys.stderr)
        if args.report is not None:
            exc.report.save(args.report)
            print(f"partial report written to {args.report}", file=sys.stderr)
        return None


def _print_progress(event: BatchProgress) -> None:
    status = "solved" if event.result.solved else "censored"
    print(
        f"  run {event.completed}/{event.total} ({event.fraction:.0%}) "
        f"{status} after {event.result.iterations} iterations",
        file=sys.stderr,
    )


def _print_dry_run(report: CampaignReport) -> None:
    """Render the dry-run plan: stage DAG, seed blocks and the static plan."""
    plans = [d for d in report.decision_dicts() if d["kind"] == "dry-run-plan"]
    print(f"dry run: {len(plans)} stages, controller={report.controller}")
    for entry in plans:
        detail = entry["detail"]
        after = ",".join(detail["after"]) if detail["after"] else "-"
        seeds = ",".join(str(seed) for seed in detail["seed_head"])
        print(
            f"{entry['stage']:<12s} quota={detail['quota']:<5d} "
            f"budget={detail['budget']:<8d} after={after} "
            f"emit={','.join(detail['emit_keys'])}"
        )
        print(
            f"{'':<12s} base_seed={detail['base_seed']} seeds[:4]={seeds} "
            f"schedule={detail['schedule']} cutoff={detail['cutoff']} "
            f"rounds={detail['rounds']}"
        )


def _command_campaign(args: argparse.Namespace) -> int:
    if args.replay is not None:
        report = _load_report(args.replay)
        try:
            verified = verify_report(report)
        except ReplayError as exc:
            print(f"replay FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"replay OK: {verified} decisions reproduced "
            f"(controller={report.controller}, {len(report.stages)} stages)"
        )
        return 0

    config = _config_from_args(args)
    stages = campaign_stages(config)
    if args.stages is not None:
        with _setup():
            stages = select_stages(stages, args.stages)
    # The engine is built before a dry run too, so its flags are checked.
    with _engine(args) as backend:
        if args.dry_run:
            report = run_campaign(stages, controller=args.controller, dry_run=True)
            _print_dry_run(report)
        else:
            report = _run_stages(
                args,
                stages,
                backend=backend,
                progress=_print_progress if args.progress else None,
                cache=observation_cache(args.cache_dir),
            )
            if report is None:
                return 1
            if args.controller != "off":
                print(
                    f"controller={args.controller}: {len(report.decisions)} decisions "
                    f"recorded across {len(report.stages)} stages",
                    file=sys.stderr,
                )
            observations = report.observations()
            for key in canonical_emit_order(stages):
                if key in observations:
                    batch = observations[key]
                    print(
                        f"{batch.label:<12s} runs={batch.n_runs:<5d} "
                        f"success-rate={batch.success_rate():.2%}"
                    )
    if args.report is not None:
        report.save(args.report)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    with _setup():
        executor = resolve_backend(args.backend, args.workers)
    try:
        stats = run_worker(
            coordinator=args.connect,
            job_dir=args.job_dir,
            executor=executor,
            poll_interval=args.poll_interval,
            connect_timeout=args.connect_timeout,
            max_units=args.max_units,
            name=args.name,
            token=args.token,
            heartbeat_seconds=args.heartbeat_seconds,
        )
    except WorkerArgumentError as exc:
        raise _UsageError(exc) from exc
    except (ProtocolError, CoordinatorUnreachable) as exc:
        # No coordinator, a version mismatch or a refused handshake (e.g. bad
        # --token): a worker that cannot join must exit loudly, not crash-loop.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        executor.close()  # a process backend's pool stays warm across units
    print(
        f"worker done: units={stats.units_completed} runs={stats.runs_completed}",
        file=sys.stderr,
    )
    return 0


def _load_recipe_arg(value: str):
    """Resolve a recipe CLI argument: a file path or a bundled recipe name."""
    from repro.recipes import CampaignRecipe, RecipeError, bundled_recipe_names, load_bundled_recipe

    path = Path(value)
    if path.exists():
        return CampaignRecipe.load(path)
    if value in bundled_recipe_names():
        return load_bundled_recipe(value)
    raise RecipeError(
        f"no recipe file {value!r} (bundled recipes: {', '.join(bundled_recipe_names())})"
    )


def _command_recipe_profile(args: argparse.Namespace) -> int:
    import json

    from repro.recipes import ProfileError, profile_report

    report = _load_report(args.report)
    try:
        recipe = profile_report(report, name=args.name, description=args.description)
    except ProfileError as exc:
        print(f"error: cannot profile report: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        recipe.save(args.out)
        print(
            f"recipe {recipe.name!r} written to {args.out} "
            f"({len(recipe.stages)} stages, "
            f"{recipe.source['n_observations']} observations profiled)",
            file=sys.stderr,
        )
    else:
        print(json.dumps(recipe.as_dict(), indent=2, sort_keys=True))
    return 0


def _command_recipe_validate(args: argparse.Namespace) -> int:
    from repro.recipes import RecipeError

    failures = 0
    for value in args.recipes:
        try:
            recipe = _load_recipe_arg(value)
        except RecipeError as exc:
            print(f"{value}: INVALID: {exc}")
            failures += 1
            continue
        print(f"{value}: ok ({recipe.name!r}, {len(recipe.stages)} stages)")
    return 1 if failures else 0


def _command_recipe_describe(args: argparse.Namespace) -> int:
    with _setup():
        recipe = _load_recipe_arg(args.recipe)
    print(f"recipe {recipe.name}: {recipe.description or '(no description)'}")
    for field, value in sorted(recipe.source.items()):
        print(f"  source.{field} = {value}")
    for stage in recipe.stages:
        instance = stage.instance
        if instance.workload == "csp":
            what = f"{instance.problem} size={instance.size}"
        elif instance.sat_family == "dimacs":
            what = f"dimacs {instance.dimacs} [{instance.policy}]"
        else:
            what = (
                f"{instance.sat_family} {instance.k}-SAT "
                f"{instance.n_variables}@{instance.clause_ratio:g} [{instance.policy}]"
            )
        params = ", ".join(
            f"{name}={value:.4g}" for name, value in sorted(stage.runtime.params.items())
        )
        after = ",".join(stage.after) if stage.after else "-"
        print(
            f"{stage.key:<14s} {what:<36s} {stage.runtime.family}({params}) "
            f"censoring={stage.censoring_rate:.0%} quota={stage.quota} "
            f"budget={stage.budget} after={after}"
        )
    return 0


def _command_recipe_generate(args: argparse.Namespace) -> int:
    import json

    from repro.recipes import describe_campaign, generate_stages, generate_submission

    # The engine is built even without --run, so its flags are checked.
    with _engine(args) as backend:
        with _setup():
            recipe = _load_recipe_arg(args.recipe)
            plan = describe_campaign(recipe, scale=args.scale, base_seed=args.seed)
            if args.submission is not None:
                submission = generate_submission(
                    recipe, scale=args.scale, base_seed=args.seed, controller=args.controller
                )
        plan_text = json.dumps(plan, indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            atomic_write_bytes(Path(args.out), plan_text.encode())
            print(f"campaign plan written to {args.out}", file=sys.stderr)
        elif not args.run:
            sys.stdout.write(plan_text)
        if args.submission is not None:
            submission_text = json.dumps(submission, indent=2, sort_keys=True) + "\n"
            atomic_write_bytes(Path(args.submission), submission_text.encode())
            print(f"service submission written to {args.submission}", file=sys.stderr)
        if not args.run:
            return 0
        stages = generate_stages(recipe, scale=args.scale, base_seed=args.seed)
        report = _run_stages(args, stages, backend=backend, cache=args.cache_dir)
        if report is None:
            return 1
    for stage in report.stages:
        print(
            f"{stage.label:<20s} issued={stage.n_issued:<5d} solved={stage.n_solved:<5d} "
            f"killed={stage.n_killed}"
        )
    if args.report is not None:
        report.save(args.report)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.max_cache_bytes is not None and args.cache_dir is None:
        raise _UsageError("--max-cache-bytes requires --cache DIR")
    # Imported lazily: every other subcommand works without the service
    # package's HTTP machinery ever loading.
    from repro.service import CampaignServer, JobManager, TenantCacheStore

    with _engine(args) as backend:
        # A port already taken is bad input, like a malformed address.
        with _setup(OSError):
            store = None
            if args.cache_dir is not None:
                store = TenantCacheStore(args.cache_dir, max_bytes=args.max_cache_bytes)
            if isinstance(backend, DistributedBackend):
                # Bind the coordinator before announcing readiness so workers
                # can connect the moment the address is printed.
                print(f"coordinator listening on {backend.start()}", file=sys.stderr, flush=True)
            manager = JobManager(
                backend=backend, store=store, max_queue=args.max_queue, retry_after=args.retry_after
            )
            try:
                server = CampaignServer(manager, host=args.host, port=args.port, token=args.token)
            except OSError:
                manager.stop()
                raise
        auth = "token required" if args.token is not None else "no auth"
        print(
            f"campaign service listening on {server.url} ({auth}, queue<={args.max_queue})",
            file=sys.stderr,
            flush=True,
        )

        # SIGTERM (and SIGINT even when the process was started in the
        # background, where the shell leaves it SIG_IGN) must trigger the same
        # graceful drain as ^C at a terminal.
        def _graceful_exit(signum: int, frame: object) -> None:
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _graceful_exit)
        signal.signal(signal.SIGINT, _graceful_exit)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down (draining)...", file=sys.stderr, flush=True)
        finally:
            server.stop(drain_seconds=args.drain_seconds)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-lasvegas`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
