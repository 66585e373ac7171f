"""The benchmark's three workloads.

Each workload derives its inputs from the ``--seed`` argument alone
(:func:`derive`), runs *passes* over them, and knows how to check a
pass's output:

* ``csp-inproc`` -- the paper's three CSP benchmarks at the ``quick``
  profile on the in-process ``lockstep`` backend, then the paper's
  speed-up prediction per stage.
* ``adaptive-process`` -- the censoring-heavy uniform 3-SAT stage under
  the adaptive controller on a 2-worker ``process`` pool.
* ``service-fleet`` -- tiny SAT campaigns through the HTTP service,
  fronting an authenticated socket worker fleet and a multi-tenant cache.

A pass returns a :class:`PassResult`; the driver (``run.py``) turns
passes into metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ORACLE = json.loads((HERE / "oracle.json").read_text())

#: The seed whose pass-0 digests are recorded in ``oracle.json``.
DEFAULT_SEED = 0
#: Pool workers, candidate-worker cap and fleet size.
WORKERS = min(2, os.cpu_count() or 1)
#: Temporary files (cache store) live inside the checkout.
SCRATCH = Path(".perfbench_tmp")

API_TOKEN = "perfbench-api-token"
WORKER_TOKEN = "perfbench-worker-token"
#: Idle poll interval of the fleet workers (seconds).
POLL_INTERVAL = 0.01


def derive(seed: int, tag: int, index: int) -> int:
    """A 31-bit input seed from (benchmark seed, workload tag, pass/job index)."""
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0] % (2**31 - 1))


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_round)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _round(value):
    return float(f"{float(value):.9g}")


def _normalise(value):
    """Floats rounded to 9 significant digits, recursively (digest input)."""
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    return value


def _span(recorder, layer: str, name: str):
    """A recorder span, or nothing on an untraced pass."""
    return recorder.span(layer, name) if recorder is not None else contextlib.nullcontext()


def stream_rows(report) -> list[list]:
    """The deterministic stream fields of a campaign report."""
    return [
        [stage.key, r.index, r.seed, r.iterations, bool(r.solved), r.budget]
        for stage in report.stages
        for r in stage.stream
    ]


def cold_import_seconds(module: str = "repro") -> float:
    """Wall time of a fresh interpreter importing ``module``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True)
    return time.perf_counter() - start


def worker_import_seconds(task_blob: bytes) -> float:
    """Cold import of what a spawned worker needs: unpickle one run task."""
    code = (
        "import sys, time; t = time.perf_counter(); import pickle; "
        "pickle.loads(sys.stdin.buffer.read()); print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], input=task_blob, capture_output=True, check=True
    )
    return float(out.stdout.decode().strip())


def report_counts(reports) -> dict:
    """Exact counts of a pass's reports (rounds, runs, kills, iterations)."""
    rounds = issued = killed = useful = iters = 0
    for report in reports:
        round_decisions = sum(1 for d in report.decisions if d.kind == "round")
        rounds += round_decisions if report.controller != "off" else len(report.stages)
        for stage in report.stages:
            issued += stage.n_issued
            killed += stage.n_killed
            for r in stage.stream:
                cost = min(int(r.iterations), int(r.budget))
                iters += cost
                useful += cost if r.solved else 0
    return {
        "rounds": rounds,
        "issued": issued,
        "killed": killed,
        "iters": iters,
        "useful_iters": useful,
    }


class DeliveryClock:
    """Progress callback timing each observation from the issue of its batch.

    A batch is one engine call: a stage under controller ``off`` or a
    controller round.  It is issued when the previous batch delivered its
    last run (or at the start of the pass), so ``latencies`` holds, per
    run, the time from its issue to its delivery, ``firsts`` the time
    from each issue to that batch's first delivery, and ``gaps`` the time
    each delivery waited after the one before it (or after the issue).
    """

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.issued = self.start
        self.last = self.start
        self.total: int | None = None
        self.completed = 0
        self.latencies: list[float] = []
        self.firsts: list[float] = []
        self.gaps: list[float] = []

    def __call__(self, event) -> None:
        now = time.perf_counter()
        if event.total != self.total or event.completed <= self.completed:
            self.issued = self.last  # a new batch: issued when the previous one ended
            self.firsts.append(now - self.issued)
        self.gaps.append(now - self.last)
        self.total, self.completed, self.last = event.total, event.completed, now
        self.latencies.append(now - self.issued)


@dataclasses.dataclass
class PassResult:
    """What one pass delivered, and what its checks need."""

    index: int
    wall_s: float
    solved: int
    first_obs_s: list[float]
    jobs_s: list[float]
    attempted: int
    rows: list
    extras: dict
    reports: list
    root: dict | None = None


class Workload:
    """Base class: set-up is a cold ``import repro``; subclasses run passes."""

    name = ""
    tag = 0
    #: Percentile of ``job_tail_s``: the highest with >= 10 jobs beyond it in one pass.
    tail_pct = 90
    #: Whether a traced pass may replay an untraced pass's inputs.
    paired = True
    #: Seconds of ``--seconds`` per pass: an untraced run holds
    #: ``round(--seconds / pass_s)`` passes.  Set per workload so that the
    #: whole benchmark fits its time budget on a 2-core machine.
    pass_s = 12.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def panel_seed(self, index: int) -> int:
        """Pass ``index``'s base seed: the seed's own shuffle of the workload's panel.

        The panels in ``oracle.json`` hold base seeds screened once to the
        workload's typical cost, so a run measures the system rather than
        the luck of a heavy-tailed draw.
        """
        panel = ORACLE[self.name]["panel"]
        order = np.random.default_rng([self.seed, self.tag]).permutation(len(panel))
        return int(panel[int(order[index % len(panel)])])

    def setup(self) -> float:
        return cold_import_seconds()

    def teardown(self) -> None:
        pass

    def run_pass(self, index: int, recorder=None) -> PassResult:
        raise NotImplementedError

    def expected(self, result: PassResult) -> dict:
        """Digests of pass ``result.index`` from an in-process serial run."""
        raise NotImplementedError

    def digests(self, result: PassResult) -> dict:
        raise NotImplementedError

    def spot_check(self, result: PassResult) -> int:
        """Cheap checks of a pass with no full reference; returns wrong outputs."""
        raise NotImplementedError

    def task_blob(self) -> bytes:
        raise NotImplementedError

    def record_count(self, result: PassResult) -> int:
        return len(result.rows)


def _reexecute(make_solver, records, rng, n: int) -> int:
    """Re-run ``n`` sampled records serially; count those that differ."""
    from repro.engine.tasks import RunTask, execute_run

    wrong = 0
    if not records:
        return 0
    for position in rng.choice(len(records), size=min(n, len(records)), replace=False):
        record = records[int(position)]
        _, result = execute_run(RunTask(make_solver(record.budget), record.index, record.seed))
        if (int(result.iterations), bool(result.solved)) != (int(record.iterations), bool(record.solved)):
            wrong += 1
    return wrong


def _check_seed_streams(stage, records) -> int:
    """Under controller ``off`` a stage's seeds are ``spawn_seeds(base_seed, n)``."""
    from repro.engine.seeding import spawn_seeds

    seeds = [int(s) for s in spawn_seeds(stage.base_seed, len(records))]
    return sum(1 for r, s in zip(records, seeds) if int(r.seed) != s)


# ----------------------------------------------------------------------
# csp-inproc
# ----------------------------------------------------------------------
class CspInproc(Workload):
    """Quick-profile MS/AI/Costas, controller ``off``, ``lockstep``, then predictions."""

    name = "csp-inproc"
    tag = 1
    tail_pct = 95
    pass_s = 8.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.experiments.config import ExperimentConfig

        if smoke:
            self.config = dataclasses.replace(ExperimentConfig.tiny(), n_sequential_runs=8)
        else:
            self.config = ExperimentConfig.quick()

    def _config(self, index: int):
        return dataclasses.replace(self.config, base_seed=self.panel_seed(index))

    def _stages(self, index: int):
        from repro.experiments.stages import campaign_stages

        return campaign_stages(self._config(index), ("benchmarks",))

    def _execute(self, index: int, backend, recorder=None):
        from repro.campaign import run_campaign
        from repro.core.prediction import predict_speedup_curve
        from repro.experiments.config import BENCHMARK_KEYS

        config = self._config(index)
        stages = self._stages(index)
        clock = DeliveryClock()
        with _span(recorder, "campaign", "run_campaign"):
            report = run_campaign(stages, controller="off", backend=backend, progress=clock)
        predictions = []
        for key in BENCHMARK_KEYS:
            values = report.stage(key).observations().values("iterations")
            with _span(recorder, "core", "predict_speedup_curve"):
                result = predict_speedup_curve(
                    values, config.cores, family=config.paper_family(key),
                    shift_rule=config.paper_shift_rule(key),
                )
            predictions.append([key, [[int(c), float(s)] for c, s in result.curve]])
        return report, predictions, time.perf_counter() - clock.start, clock

    def run_pass(self, index: int, recorder=None) -> PassResult:
        from repro.engine.lockstep import LockstepBackend

        root = recorder.open("bench", "pass", index=index) if recorder is not None else None
        try:
            report, predictions, wall, clock = self._execute(index, LockstepBackend(), recorder)
        finally:
            if root is not None:
                recorder.close(root)
        runs = [r for stage in report.stages for r in stage.stream]
        return PassResult(
            index=index,
            wall_s=wall,
            solved=sum(stage.n_solved for stage in report.stages),
            # One in-process worker delivers runs one at a time, so an issue's
            # first observation waits exactly one delivery gap; the median
            # over every gap estimates it from hundreds of samples, where
            # the few literal first runs of a pass are single heavy-tailed draws.
            first_obs_s=clock.gaps,
            jobs_s=clock.latencies,
            attempted=len(runs) + len(predictions),
            rows=stream_rows(report),
            extras={"predictions": predictions},
            reports=[report],
            root=root,
        )

    def digests(self, result: PassResult) -> dict:
        return {
            "stream": digest(result.rows),
            "predictions": digest(_normalise(result.extras["predictions"])),
        }

    def expected(self, result: PassResult) -> dict:
        from repro.engine.backends import SerialBackend

        report, predictions, _, _ = self._execute(result.index, SerialBackend())
        return {
            "stream": digest(stream_rows(report)),
            "predictions": digest(_normalise(predictions)),
        }

    def spot_check(self, result: PassResult) -> int:
        rng = np.random.default_rng([self.seed, self.tag, result.index, 99])
        wrong = 0
        for spec, stage in zip(self._stages(result.index), result.reports[0].stages):
            records = list(stage.stream)
            wrong += _check_seed_streams(spec, records)
            wrong += _reexecute(spec.make_solver, records, rng, 2)
        return wrong

    def task_blob(self) -> bytes:
        import pickle

        from repro.engine.tasks import RunTask

        stage = self._stages(0)[0]
        return pickle.dumps(RunTask(stage.make_solver(stage.budget), 0, 1))


# ----------------------------------------------------------------------
# adaptive-process
# ----------------------------------------------------------------------
SAT_N, SAT_RATIO, SAT_NOISE, SAT_BUDGET = 50, 4.2, 0.1, 20_000


class AdaptiveProcess(Workload):
    """The censoring-heavy SAT stage under the adaptive controller on a process pool."""

    name = "adaptive-process"
    tag = 2
    tail_pct = 90

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.sat.generators import clause_count_for_ratio, random_ksat

        rng = np.random.default_rng((20130813, 0x5AA))
        self.formula = random_ksat(SAT_N, clause_count_for_ratio(SAT_N, SAT_RATIO), 3, rng=rng)
        self.quota = 4 if smoke else 40

    def make_solver(self, budget: int):
        from repro.solvers.walksat import WalkSAT, WalkSATConfig

        return WalkSAT(self.formula, WalkSATConfig(max_flips=budget, noise=SAT_NOISE))

    def _stage(self, index: int):
        from repro.campaign import StageSpec

        return StageSpec(
            key="SAT",
            label=f"uniform 3-SAT {SAT_N}@{SAT_RATIO:g} [noise={SAT_NOISE:g}]",
            kind="bench",
            make_solver=self.make_solver,
            quota=self.quota,
            base_seed=self.panel_seed(index),
            budget=SAT_BUDGET,
            emit_keys=("SAT",),
            supports_cutoff=True,
        )

    def _execute(self, index: int, backend: str, recorder=None):
        from repro.campaign import run_campaign
        from repro.campaign.controller import AdaptiveController

        cls = AdaptiveController
        if recorder is not None:
            from spans import traced_controller

            cls = traced_controller(recorder, AdaptiveController)
        controller = cls(candidate_workers=tuple(sorted({1, WORKERS})))
        clock = DeliveryClock()
        with _span(recorder, "campaign", "run_campaign"):
            report = run_campaign(
                [self._stage(index)], controller=controller, backend=backend,
                workers=WORKERS if backend == "process" else None, progress=clock,
            )
        return report, time.perf_counter() - clock.start, clock

    def run_pass(self, index: int, recorder=None) -> PassResult:
        root = recorder.open("bench", "pass", index=index) if recorder is not None else None
        try:
            report, wall, clock = self._execute(index, "process", recorder)
        finally:
            if root is not None:
                recorder.close(root)
        stage = report.stage("SAT")
        return PassResult(
            index=index,
            wall_s=wall,
            solved=stage.n_solved,
            first_obs_s=clock.firsts,  # per controller round: issue to first observation
            jobs_s=clock.latencies,
            attempted=stage.n_issued,
            rows=stream_rows(report),
            extras={"decisions": report.decision_dicts()},
            reports=[report],
            root=root,
        )

    def digests(self, result: PassResult) -> dict:
        return {
            "stream": digest(result.rows),
            "decisions": digest(_normalise(result.extras["decisions"])),
        }

    def expected(self, result: PassResult) -> dict:
        report, _, _ = self._execute(result.index, "serial")
        return {
            "stream": digest(stream_rows(report)),
            "decisions": digest(_normalise(report.decision_dicts())),
        }

    def spot_check(self, result: PassResult) -> int:
        from repro.campaign import replay_decisions

        rng = np.random.default_rng([self.seed, self.tag, result.index, 99])
        report = result.reports[0]
        # The decision log must replay from the stream, and sampled runs
        # must reproduce their recorded iterations when re-executed.
        wrong = 0 if replay_decisions(report) == report.decision_dicts() else 1
        return wrong + _reexecute(self.make_solver, list(report.stage("SAT").stream), rng, 3)

    def task_blob(self) -> bytes:
        import pickle

        from repro.engine.tasks import RunTask

        return pickle.dumps(RunTask(self.make_solver(SAT_BUDGET), 0, 1))


# ----------------------------------------------------------------------
# service-fleet
# ----------------------------------------------------------------------
class ServiceFleet(Workload):
    """Closed-loop client: fresh tiny SAT campaigns as ``alpha``, repeats as ``beta``."""

    name = "service-fleet"
    tag = 3
    tail_pct = 80
    paired = False
    #: Fewer passes than its 11 s would allow: each set-up starts a server
    #: and fleet, and each pass's check re-runs its 50 submissions in-process.
    #: Its spread is a fifth of the bound even at two passes.
    pass_s = 20.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.n_jobs = 2 if smoke else 50
        self.server = None
        self.procs: list[subprocess.Popen] = []
        self.tmp: Path | None = None
        self.client = None

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        import_s = cold_import_seconds()
        start = time.perf_counter()
        self._start()
        warmup = self._job(self._payload(derive(self.seed, self.tag, 10**6), "warmup"))
        if warmup["state"] != "done":
            raise RuntimeError(f"warm-up job ended {warmup['state']!r}")
        return import_s + time.perf_counter() - start

    def _start(self) -> None:
        from repro.engine.distributed import DistributedBackend
        from repro.service import CampaignClient, CampaignServer, JobManager
        from repro.service.tenants import TenantCacheStore

        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="fleet-", dir=SCRATCH))
        backend = DistributedBackend(
            coordinator="127.0.0.1:0", auth_token=WORKER_TOKEN, batch_timeout=120.0
        )
        address = backend.start()
        command = [
            sys.executable, "-m", "repro.cli", "worker", "--connect", address,
            "--token", WORKER_TOKEN, "--connect-timeout", "60", "--poll-interval", str(POLL_INTERVAL),
        ]
        self.procs = [
            subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(WORKERS)
        ]
        manager = JobManager(backend=backend, store=TenantCacheStore(self.tmp / "store"), max_queue=4)
        self.server = CampaignServer(manager, token=API_TOKEN)
        self.server.start()
        self.client = CampaignClient(self.server.url, token=API_TOKEN, timeout=120.0)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        for proc in self.procs:
            try:
                proc.wait(timeout=5)  # the closed coordinator socket ends each worker
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    # -- jobs -----------------------------------------------------------
    def _payload(self, base_seed: int, tenant: str) -> dict:
        size = {"n_sequential_runs": 8} if self.smoke else {}
        return {
            "profile": "tiny",
            "stages": "SAT",
            "config": {"base_seed": base_seed, **size},
            "tenant": tenant,
        }

    def _job(self, payload: dict, recorder=None) -> dict:
        """Submit, stream to the terminal state, fetch the report."""
        from repro.service import ServiceError

        anchor = None
        if recorder is not None:
            anchor = recorder.anchor = recorder.open("bench", "job", tenant=payload["tenant"])
        rejected = 0
        start = time.perf_counter()
        try:
            while True:
                try:
                    job_id = self.client.submit(payload)
                    break
                except ServiceError as exc:
                    if exc.status != 429:
                        raise
                    rejected += 1
                    time.sleep(min(exc.retry_after or 0.05, 0.05))
            submitted = time.perf_counter() - start
            first = None
            state = None
            for event in self.client.stream_events(job_id):
                if first is None and event["kind"] == "observation":
                    first = time.perf_counter() - start
                if event["kind"] == "state":
                    state = event["state"]
            report = self.client.report(job_id)
            latency = time.perf_counter() - start
        finally:
            if recorder is not None:
                recorder.anchor = None
                recorder.close(anchor)
        return {
            "job_id": job_id,
            "latency": latency,
            "submit": submitted,
            "first": first,
            "state": state,
            "report": report,
            "rejected": rejected,
            "payload": payload,
        }

    def run_pass(self, index: int, recorder=None) -> PassResult:
        before = self.client.health()["cache"]
        root = recorder.open("bench", "pass", index=index) if recorder is not None else None
        fresh, repeats = [], []
        # A think time of up to one worker poll interval before each
        # submission keeps the closed loop from phase-locking with the
        # workers' 10 ms poll, which otherwise fixes first_obs_s per run.
        think = np.random.default_rng([self.seed, self.tag, index]).uniform(0.0, POLL_INTERVAL, 2 * self.n_jobs)
        start = time.perf_counter()
        try:
            for j in range(self.n_jobs):
                base_seed = derive(self.seed, self.tag, index * 1000 + j)
                time.sleep(think[2 * j])
                fresh.append(self._job(self._payload(base_seed, "alpha"), recorder))
                time.sleep(think[2 * j + 1])
                repeats.append(self._job(self._payload(base_seed, "beta"), recorder))
            wall = time.perf_counter() - start
        finally:
            if root is not None:
                recorder.close(root)
        after = self.client.health()["cache"]
        timeline = {job["job_id"]: job for job in self.client.list_jobs()}
        jobs = fresh + repeats
        run_s, queue_s, overhead_s = [], [], []
        for job in fresh:  # repeats are cache hits: their medians would mix two modes
            snap = timeline[job["job_id"]]
            run = snap["finished_at"] - snap["started_at"]
            run_s.append(run)
            queue_s.append(snap["started_at"] - snap["created_at"])
            overhead_s.append(job["latency"] - run)
        return PassResult(
            index=index,
            wall_s=wall,
            solved=sum(job["report"].stage("SAT").n_solved for job in jobs),
            first_obs_s=[job["first"] for job in fresh if job["first"] is not None],
            jobs_s=[job["latency"] for job in fresh],
            attempted=len(jobs),
            rows=[stream_rows(job["report"]) for job in jobs],
            extras={
                "jobs": jobs,
                "repeat_s": [job["latency"] for job in repeats],
                "submit_s": [job["submit"] for job in jobs],
                "run_s": run_s,
                "queue_wait_s": queue_s,
                "overhead_s": overhead_s,
                "rejected": sum(job["rejected"] for job in jobs),
                "cache": {k: after[k] - before[k] for k in ("hits", "misses", "cross_tenant_hits")},
                "not_done": sum(1 for job in jobs if job["state"] != "done"),
            },
            reports=[job["report"] for job in jobs],
            root=root,
        )

    def digests(self, result: PassResult) -> dict:
        return {"stream": digest(result.rows)}

    def _reference_rows(self, payload: dict) -> list:
        from repro.campaign import run_campaign
        from repro.service import CampaignSubmission

        submission = CampaignSubmission.from_dict(payload)
        return stream_rows(run_campaign(submission.build_stages(), controller="off"))

    def expected(self, result: PassResult) -> dict:
        fresh = result.extras["jobs"][: self.n_jobs]
        references = [self._reference_rows(job["payload"]) for job in fresh]
        return {"stream": digest(references + references)}  # repeats must equal the fresh jobs

    def spot_check(self, result: PassResult) -> int:
        """Every job's report must match an in-process run of its submission."""
        wrong = result.extras["not_done"] + result.extras["rejected"]
        jobs = result.extras["jobs"]
        for fresh, repeat in zip(jobs[: self.n_jobs], jobs[self.n_jobs :]):
            reference = self._reference_rows(fresh["payload"])
            wrong += sum(1 for job in (fresh, repeat) if stream_rows(job["report"]) != reference)
        return wrong

    def record_count(self, result: PassResult) -> int:
        return len(result.extras["jobs"])

    def task_blob(self) -> bytes:
        import pickle

        from repro.engine.tasks import RunTask
        from repro.service import CampaignSubmission

        stage = CampaignSubmission.from_dict(self._payload(1, "alpha")).build_stages()[0]
        return pickle.dumps(RunTask(stage.make_solver(stage.budget), 0, 1))


WORKLOADS = {cls.name: cls for cls in (CspInproc, AdaptiveProcess, ServiceFleet)}
