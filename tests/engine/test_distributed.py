"""Distributed backend: equivalence, work stealing, failure modes, protocol.

The engine's hard invariant extends across hosts: a given ``base_seed``
yields bit-identical observations (iterations, solved flags, seeds) no
matter how many workers connect, which transport carried the units, or
which worker ran which ``(task, seed-block)``.  These tests pin it with
in-process workers (threads running :func:`run_worker`) on both the socket
and the job-directory transports, and exercise the failure paths on both
pipes: a worker dying or going silent mid-unit, crashing payloads, forged
or short results, protocol-version mismatches and duplicate result
submissions.
"""

import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.engine.distributed as distributed
from repro.csp.problems import NQueensProblem
from repro.engine.core import collect_batch, resolve_backend, run_race
from repro.engine.distributed import (
    CoordinatorUnreachable,
    DistributedBackend,
    ProtocolError,
    UnitLedger,
    WorkerArgumentError,
    _decode,
    _JobDirListener,
    _encode,
    _join_job_dir,
    _recv,
    _send,
    _SocketPipe,
    execute_unit,
    run_worker,
)
from repro.engine.tasks import PROTOCOL_VERSION, RunTask, UnitResult, execute_run, shard_units
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.base import LasVegasAlgorithm, RunResult


class SyntheticAlgorithm(LasVegasAlgorithm):
    name = "synthetic"

    def _run(self, rng: np.random.Generator) -> RunResult:
        iterations = int(rng.integers(1, 1000))
        return RunResult(solved=True, iterations=iterations, runtime_seconds=0.0)


class NeverSolves(LasVegasAlgorithm):
    name = "never-solves"

    def _run(self, rng: np.random.Generator) -> RunResult:
        return RunResult(
            solved=False, iterations=int(rng.integers(10, 10_000)), runtime_seconds=0.0
        )


class AlwaysCrashes(LasVegasAlgorithm):
    name = "always-crashes"

    def _run(self, rng: np.random.Generator) -> RunResult:
        raise RuntimeError("deterministic solver bug")


def _nqueens() -> AdaptiveSearch:
    return AdaptiveSearch(NQueensProblem(8), AdaptiveSearchConfig(max_iterations=50_000))


def _deterministic_fields(batch) -> str:
    """The backend-invariant part of a batch, as canonical bytes."""
    payload = batch.to_dict()
    payload.pop("runtimes")  # wall clock is the one legitimately varying field
    return json.dumps(payload, sort_keys=True)


class _WorkerThread(threading.Thread):
    """run_worker in a thread, capturing its WorkerStats (or exception)."""

    def __init__(self, **kwargs):
        super().__init__(daemon=True)
        self.kwargs = kwargs
        self.stats = None
        self.error = None

    def run(self):
        try:
            self.stats = run_worker(**self.kwargs)
        except BaseException as exc:  # surfaced by tests via .error
            self.error = exc


@pytest.fixture
def socket_backend():
    backend = DistributedBackend(coordinator="127.0.0.1:0", poll_interval=0.01)
    backend.start()
    try:
        yield backend
    finally:
        backend.shutdown()


def _spawn_workers(n, **kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    workers = [_WorkerThread(**kwargs) for _ in range(n)]
    for worker in workers:
        worker.start()
    return workers


def _join_workers(workers, timeout=10.0):
    for worker in workers:
        worker.join(timeout=timeout)
        assert not worker.is_alive(), "worker did not exit after coordinator shutdown"
        if worker.error is not None:
            raise worker.error
    return workers


#: Every test taking this fixture runs once per pipe the protocol travels over.
@pytest.fixture(params=["socket", "job_dir"])
def transport(request):
    return request.param


def _make_backend(transport, tmp_path, **kwargs):
    """A started backend on ``transport``, so threads never race to start it."""
    kwargs.setdefault("poll_interval", 0.01)
    if transport == "socket":
        backend = DistributedBackend(coordinator="127.0.0.1:0", **kwargs)
    else:
        backend = DistributedBackend(job_dir=tmp_path / "jobs", **kwargs)
    backend.start()
    return backend


def _worker_target(backend):
    """run_worker's transport keyword for a started ``backend``."""
    key = "coordinator" if backend.coordinator is not None else "job_dir"
    return {key: backend.start()}


def _hand_driven_worker(backend, name):
    """A worker pipe driven message by message, past the handshake."""
    if backend.coordinator is not None:
        host, _, port = backend.start().rpartition(":")
        pipe = _SocketPipe(socket.create_connection((host, int(port))))
    else:
        pipe = _join_job_dir(backend.job_dir, name, poll_interval=0.01, connect_timeout=5.0)
    _send(pipe, {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": name})
    assert _recv(pipe)["type"] == "welcome"
    return pipe


def _take_unit(pipe):
    """Request until the coordinator hands out a unit (the batch may not have started)."""
    reply = {"type": "idle"}
    deadline = time.monotonic() + 10.0
    while reply["type"] == "idle":
        assert time.monotonic() < deadline
        _send(pipe, {"type": "request"})
        reply = _recv(pipe)
    assert reply["type"] == "unit"
    return _decode(reply["payload"])


def _collect_in_background(algorithm, n_runs, base_seed, backend):
    """collect_batch on a thread; the list gets every progress event, then the batch."""
    events = []
    collector = threading.Thread(
        target=lambda: events.append(
            collect_batch(
                algorithm, n_runs, base_seed=base_seed, backend=backend,
                progress=events.append,
            )
        ),
        daemon=True,
    )
    collector.start()
    return collector, events


class TestSocketEquivalence:
    def test_bit_identical_to_serial_on_real_solver(self, socket_backend):
        serial = collect_batch(_nqueens(), 12, base_seed=17)
        workers = _spawn_workers(2, coordinator=socket_backend.start())
        batch = collect_batch(_nqueens(), 12, base_seed=17, backend=socket_backend)
        assert _deterministic_fields(batch) == _deterministic_fields(serial)
        socket_backend.shutdown()
        _join_workers(workers)
        assert sum(w.stats.units_completed for w in workers) == 3  # 12 runs / unit_size 4

    def test_multiple_batches_share_one_coordinator(self, socket_backend):
        """A campaign runs several batches; workers stay connected between them."""
        workers = _spawn_workers(2, coordinator=socket_backend.start())
        for seed, n_runs in ((3, 40), (9, 17), (11, 5)):
            reference = collect_batch(SyntheticAlgorithm(), n_runs, base_seed=seed)
            batch = collect_batch(
                SyntheticAlgorithm(), n_runs, base_seed=seed, backend=socket_backend
            )
            np.testing.assert_array_equal(batch.iterations, reference.iterations)
            np.testing.assert_array_equal(batch.seeds, reference.seeds)
        socket_backend.shutdown()
        _join_workers(workers)

    def test_progress_events_cover_every_run_exactly_once(self, socket_backend):
        workers = _spawn_workers(2, coordinator=socket_backend.start())
        events = []
        collect_batch(
            SyntheticAlgorithm(), 30, base_seed=1, backend=socket_backend,
            progress=events.append,
        )
        assert sorted(e.index for e in events) == list(range(30))
        assert [e.completed for e in events] == list(range(1, 31))
        socket_backend.shutdown()
        _join_workers(workers)

    def test_run_race_through_distributed_backend(self, socket_backend):
        workers = _spawn_workers(2, coordinator=socket_backend.start())
        outcome = run_race(SyntheticAlgorithm(), 6, base_seed=5, backend=socket_backend)
        assert outcome.solved  # a solved walk decided the race and cancelled the rest
        # The *unsolved* outcome is deterministic (fewest iterations, lowest
        # index), so it must match the serial race exactly.
        distributed = run_race(NeverSolves(), 6, base_seed=11, backend=socket_backend)
        serial = run_race(NeverSolves(), 6, base_seed=11)
        assert distributed.winner_index == serial.winner_index
        assert distributed.winner_result.iterations == serial.winner_result.iterations
        socket_backend.shutdown()
        _join_workers(workers)


    def test_both_ends_of_a_connection_disable_nagle(self, socket_backend, monkeypatch):
        """A result followed by the next request must not wait for a delayed ACK."""
        connected = []
        real_create_connection = socket.create_connection

        def recording_create_connection(*args, **kwargs):
            connected.append(real_create_connection(*args, **kwargs))
            return connected[-1]

        monkeypatch.setattr(socket, "create_connection", recording_create_connection)
        workers = _spawn_workers(1, coordinator=socket_backend.start())
        collect_batch(SyntheticAlgorithm(), 8, base_seed=1, backend=socket_backend)
        with socket_backend._server._pipes_lock:
            accepted = [pipe.sock for pipe in socket_backend._server._pipes]
        nodelay = (socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert [conn.getsockopt(*nodelay) for conn in connected] == [1]
        assert [conn.getsockopt(*nodelay) for conn in accepted] == [1]
        socket_backend.shutdown()
        _join_workers(workers)


class TestJobDirEquivalence:
    def test_bit_identical_to_serial(self, tmp_path):
        serial = collect_batch(_nqueens(), 12, base_seed=17)
        backend = DistributedBackend(job_dir=tmp_path / "jobs", poll_interval=0.01)
        backend.start()
        workers = _spawn_workers(2, job_dir=tmp_path / "jobs")
        batch = collect_batch(_nqueens(), 12, base_seed=17, backend=backend)
        backend.shutdown()
        _join_workers(workers)
        assert _deterministic_fields(batch) == _deterministic_fields(serial)

    def test_round_trips_byte_identically_to_socket_path(self, tmp_path):
        """The two transports are interchangeable: same campaign, same bytes."""
        with DistributedBackend(coordinator="127.0.0.1:0", poll_interval=0.01) as sock_backend:
            sock_workers = _spawn_workers(2, coordinator=sock_backend.start())
            via_socket = collect_batch(_nqueens(), 10, base_seed=23, backend=sock_backend)
        _join_workers(sock_workers)

        with DistributedBackend(job_dir=tmp_path / "jobs", poll_interval=0.01) as dir_backend:
            dir_workers = _spawn_workers(2, job_dir=tmp_path / "jobs")
            via_job_dir = collect_batch(_nqueens(), 10, base_seed=23, backend=dir_backend)
        _join_workers(dir_workers)

        assert _deterministic_fields(via_socket) == _deterministic_fields(via_job_dir)

    def test_reusing_a_job_dir_across_campaigns_stays_correct(self, tmp_path):
        """Two coordinators sharing one job directory must not cross-read.

        Regression: batch ids used to restart at batch-0001 per coordinator,
        so a second campaign in the same directory consumed the first one's
        stale result files (or hung on its DONE marker); and the first
        campaign's STOP marker used to survive into the second, making its
        freshly launched workers exit on their first idle scan.  The
        per-coordinator run token and the STOP cleanup in start() prevent
        both — so this test launches the second campaign's worker *before*
        the second coordinator and cleans nothing up by hand.
        """
        job_dir = tmp_path / "jobs"
        serial_a = collect_batch(SyntheticAlgorithm(), 12, base_seed=2)
        serial_b = collect_batch(SyntheticAlgorithm(), 12, base_seed=999)
        for base_seed, reference in ((2, serial_a), (999, serial_b)):
            # Worker first: on round two it must survive the stale STOP
            # marker until the coordinator starts and clears it.
            workers = _spawn_workers(1, job_dir=job_dir)
            backend = DistributedBackend(job_dir=job_dir, poll_interval=0.01)
            backend.start()
            batch = collect_batch(
                SyntheticAlgorithm(), 12, base_seed=base_seed, backend=backend
            )
            backend.shutdown()
            _join_workers(workers)
            np.testing.assert_array_equal(batch.iterations, reference.iterations)
            np.testing.assert_array_equal(batch.seeds, reference.seeds)

    @staticmethod
    def _join_with_sessions_between_polls(monkeypatch, job_dir, between_polls):
        """``_join_job_dir`` with ``between_polls[i]()`` run in place of its i-th sleep.

        Replacing the sleep fixes the interleaving of the worker's polls
        and the coordinators' sessions, so the race is forced, not hoped for.
        """
        sleeps = []

        def sleep(seconds):
            between_polls[len(sleeps)]()
            sleeps.append(seconds)

        monkeypatch.setattr(
            distributed, "time", SimpleNamespace(monotonic=time.monotonic, sleep=sleep)
        )
        pipe = _join_job_dir(job_dir, "late", poll_interval=0.01, connect_timeout=30.0)
        return pipe, len(sleeps)

    def test_worker_that_missed_a_whole_session_exits_at_once(self, tmp_path, monkeypatch):
        """A session that opened and closed between two polls ends the wait.

        Regression: a worker whose first poll came before the session
        opened waited out ``connect_timeout`` (30 s) for another one, so a
        late worker thread of a finished batch outlived its test's join.
        """
        job_dir = tmp_path / "jobs"

        def whole_session():
            _JobDirListener(job_dir, "missed", poll_interval=0.01).close()

        pipe, polls = self._join_with_sessions_between_polls(
            monkeypatch, job_dir, [whole_session]
        )
        assert pipe is None
        assert polls == 1
        assert [p.name for p in (job_dir / "sessions" / "missed").iterdir()] == ["CLOSED"]

    def test_worker_in_a_reused_dir_waits_past_the_old_session(self, tmp_path, monkeypatch):
        """The closed session named at the first poll is not a missed one."""
        job_dir = tmp_path / "jobs"
        _JobDirListener(job_dir, "old", poll_interval=0.01).close()

        def next_session():
            _JobDirListener(job_dir, "next", poll_interval=0.01)

        pipe, polls = self._join_with_sessions_between_polls(
            monkeypatch, job_dir, [lambda: None, next_session]
        )
        assert pipe is not None
        assert polls == 2
        joined = [p.name for p in (job_dir / "sessions" / "next").iterdir()]
        assert len(joined) == 1 and joined[0].startswith("late-")


class TestWorkerDeath:
    def test_unit_reissued_without_duplicate_observations(self, socket_backend):
        """A worker that takes a unit and dies must not lose or duplicate runs."""
        address = socket_backend.start()
        events = []
        collector = threading.Thread(
            target=lambda: events.append(
                collect_batch(
                    SyntheticAlgorithm(), 12, base_seed=17, backend=socket_backend,
                    progress=events.append,
                )
            ),
            daemon=True,
        )
        collector.start()

        # A doomed worker: handshakes, checks out one unit, then drops dead.
        host, _, port = address.rpartition(":")
        doomed = socket.create_connection((host, int(port)))
        stream = doomed.makefile("rwb")
        _send(stream, {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": "doomed"})
        assert _recv(stream)["type"] == "welcome"
        reply = {"type": "idle"}
        deadline = time.monotonic() + 10.0
        while reply["type"] == "idle":  # the batch may not have started yet
            assert time.monotonic() < deadline
            _send(stream, {"type": "request"})
            reply = _recv(stream)
        assert reply["type"] == "unit"
        # Die holding the unit -> the coordinator must re-issue it.  Close the
        # stream too: makefile() holds a dup of the fd, and the FIN only goes
        # out (as it would when a worker process dies) once both are closed.
        stream.close()
        doomed.close()

        survivors = _spawn_workers(1, coordinator=address)
        collector.join(timeout=30.0)
        assert not collector.is_alive()
        socket_backend.shutdown()
        _join_workers(survivors)

        batch = events[-1]
        progress = events[:-1]
        assert sorted(e.index for e in progress) == list(range(12))  # no dupes, no holes
        reference = collect_batch(SyntheticAlgorithm(), 12, base_seed=17)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)


    def test_job_dir_worker_that_exits_returns_its_unit_at_once(self, tmp_path):
        """Closing a job-directory pipe is end-of-file for the coordinator,
        as a dropped socket is: the unit is requeued without waiting out
        its (30 s) lease."""
        backend = _make_backend("job_dir", tmp_path)
        collector, events = _collect_in_background(SyntheticAlgorithm(), 12, 17, backend)
        doomed = _hand_driven_worker(backend, "doomed")
        _take_unit(doomed)
        doomed.close()
        survivors = _spawn_workers(1, **_worker_target(backend))
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        backend.shutdown()
        _join_workers(survivors)
        batch, progress = events[-1], events[:-1]
        assert sorted(e.index for e in progress) == list(range(12))
        reference = collect_batch(SyntheticAlgorithm(), 12, base_seed=17)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)

    def test_silent_worker_loses_its_unit_when_the_lease_lapses(self, transport, tmp_path):
        """A worker that takes a unit and goes silent without dropping its
        pipe (a hung process; on the job directory, also a dead one) keeps
        the unit only until its lease lapses: the ledger re-issues it, and
        the batch equals serial with no duplicate observations."""
        backend = _make_backend(transport, tmp_path, lease_seconds=0.2)
        collector, events = _collect_in_background(SyntheticAlgorithm(), 12, 2, backend)
        silent = _hand_driven_worker(backend, "silent")
        _take_unit(silent)  # ...and never speaks again
        workers = _spawn_workers(1, **_worker_target(backend))
        collector.join(timeout=30.0)
        assert not collector.is_alive()
        backend.shutdown()
        _join_workers(workers)
        silent.close()
        batch, progress = events[-1], events[:-1]
        assert sorted(e.index for e in progress) == list(range(12))  # no dupes, no holes
        reference = collect_batch(SyntheticAlgorithm(), 12, base_seed=2)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)
        assert workers[0].stats.units_completed == 3  # incl. the re-issued unit


class TestResultAdmission:
    def test_only_the_holders_matching_result_counts(self, transport, tmp_path):
        """A result settles a unit only when it comes from the connection
        holding that unit, names that unit and carries one value per
        payload.  A forged result for another unit is dropped; a result
        naming the wrong unit or missing a value is a failed attempt."""
        backend = _make_backend(transport, tmp_path)
        collector, events = _collect_in_background(SyntheticAlgorithm(), 12, 4, backend)
        forger = _hand_driven_worker(backend, "forger")
        unit = _take_unit(forger)
        values = execute_unit(unit).values
        other_id = f"{unit.task_id}/{(unit.block_index + 1) % 3}"
        forged = _encode(UnitResult(unit_id=other_id, values=values))
        # Another unit's id on both the message and the result: not held here.
        _send(forger, {"type": "result", "unit_id": other_id, "payload": forged})
        # The held unit's id on the message, another unit's in the result.
        _send(forger, {"type": "result", "unit_id": unit.unit_id, "payload": forged})
        unit = _take_unit(forger)
        short = _encode(UnitResult(unit_id=unit.unit_id, values=execute_unit(unit).values[:-1]))
        _send(forger, {"type": "result", "unit_id": unit.unit_id, "payload": short})
        held = _take_unit(forger)  # the coordinator has read every forgery above
        _send(forger, {"type": "failed", "unit_id": held.unit_id, "reason": "forger leaves"})
        forger.close()
        workers = _spawn_workers(1, **_worker_target(backend))
        collector.join(timeout=30.0)
        assert not collector.is_alive()
        backend.shutdown()
        _join_workers(workers)
        batch, progress = events[-1], events[:-1]
        assert sorted(e.index for e in progress) == list(range(12))
        reference = collect_batch(SyntheticAlgorithm(), 12, base_seed=4)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)


class TestFailingUnits:
    def test_batch_fails_loudly_after_retries(self, transport, tmp_path):
        """A deterministically-crashing payload must not hang the campaign:
        the unit is retried max_unit_failures times, the worker survives,
        and the batch raises with the underlying error."""
        backend = _make_backend(transport, tmp_path)
        workers = _spawn_workers(1, **_worker_target(backend))
        try:
            with pytest.raises(RuntimeError, match="deterministic solver bug"):
                collect_batch(AlwaysCrashes(), 4, base_seed=0, backend=backend)
            # The worker is still alive and serves the next (healthy) batch.
            batch = collect_batch(SyntheticAlgorithm(), 8, base_seed=1, backend=backend)
        finally:
            backend.shutdown()
        _join_workers(workers)
        reference = collect_batch(SyntheticAlgorithm(), 8, base_seed=1)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)

    def test_ledger_fail_retries_then_gives_up(self):
        payloads = [RunTask(SyntheticAlgorithm(), i, i) for i in range(4)]
        units = shard_units(execute_run, payloads, task_id="t", unit_size=4)
        ledger = UnitLedger(units, max_failures=3)
        unit = ledger.checkout("w")
        assert ledger.fail(unit.unit_id, "boom", "w")  # retry 1: requeued
        assert ledger.checkout("w").unit_id == unit.unit_id
        assert ledger.fail(unit.unit_id, "boom", "w")  # retry 2: requeued
        ledger.checkout("w")
        assert not ledger.fail(unit.unit_id, "boom", "w")  # third strike
        failure = ledger.results.get_nowait()
        assert failure.unit_id == unit.unit_id and "boom" in failure.reason
        assert ledger.done  # the batch terminates instead of hanging

    def test_ledger_speculative_reissue_of_stale_unit(self):
        payloads = [RunTask(SyntheticAlgorithm(), i, i) for i in range(4)]
        units = shard_units(execute_run, payloads, task_id="t", unit_size=4)
        ledger = UnitLedger(units, lease_seconds=0.05)
        unit = ledger.checkout("slow-worker")
        assert ledger.checkout("idle-worker") is None  # lease not expired yet
        time.sleep(0.08)
        stolen = ledger.checkout("idle-worker")
        assert stolen is not None and stolen.unit_id == unit.unit_id
        assert ledger.reissues == 1
        # Whichever copy finishes first wins; the duplicate is dropped.
        assert ledger.complete(execute_unit(unit))
        assert not ledger.complete(execute_unit(stolen))
        # The slow worker dying afterwards must not resurrect the unit.
        assert ledger.requeue(unit.unit_id, "slow-worker") is False
        assert ledger.done


class TestProtocol:
    def test_coordinator_refuses_mismatched_protocol_version(self, socket_backend):
        host, _, port = socket_backend.start().rpartition(":")
        conn = socket.create_connection((host, int(port)))
        stream = conn.makefile("rwb")
        _send(stream, {"type": "hello", "protocol": 999, "worker": "from-the-future"})
        reply = _recv(stream)
        assert reply["type"] == "error"
        assert "mismatch" in reply["reason"]
        assert str(PROTOCOL_VERSION) in reply["reason"]
        assert stream.readline() == b""  # coordinator closed the connection
        conn.close()

    def test_worker_raises_on_coordinator_rejection(self):
        """run_worker surfaces the coordinator's rejection as ProtocolError."""

        def fake_coordinator(server: socket.socket) -> None:
            conn, _ = server.accept()
            with conn, conn.makefile("rwb") as stream:
                _recv(stream)  # the hello
                _send(stream, {"type": "error", "reason": "protocol version mismatch: nope"})

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen()
        port = server.getsockname()[1]
        thread = threading.Thread(target=fake_coordinator, args=(server,), daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="mismatch"):
                run_worker(coordinator=f"127.0.0.1:{port}", connect_timeout=5.0)
        finally:
            thread.join(timeout=5.0)
            server.close()

    def test_job_dir_worker_refuses_mismatched_meta(self, tmp_path):
        job_dir = tmp_path / "jobs"
        job_dir.mkdir()
        (job_dir / "meta.json").write_text(json.dumps({"protocol": 999}))
        with pytest.raises(ProtocolError, match="protocol"):
            run_worker(job_dir=job_dir, connect_timeout=1.0)

    def test_job_dir_coordinator_refuses_mismatched_meta(self, tmp_path):
        job_dir = tmp_path / "jobs"
        job_dir.mkdir()
        (job_dir / "meta.json").write_text(json.dumps({"protocol": 999}))
        backend = DistributedBackend(job_dir=job_dir)
        with pytest.raises(ProtocolError, match="protocol"):
            backend.start()


class TestJoining:
    def test_zero_connect_timeout_joins_a_live_coordinator(self, socket_backend):
        # timeout=0 on a socket makes it non-blocking: its connect used to
        # raise BlockingIOError even with the coordinator listening.
        collector, events = _collect_in_background(SyntheticAlgorithm(), 4, 5, socket_backend)
        stats = run_worker(
            coordinator=socket_backend.start(), connect_timeout=0, max_units=1, poll_interval=0.01
        )
        assert stats.units_completed == 1
        collector.join(timeout=10.0)
        serial = collect_batch(SyntheticAlgorithm(), 4, base_seed=5)
        assert _deterministic_fields(events[-1]) == _deterministic_fields(serial)

    def test_refused_connection_names_the_address_and_timeout(self):
        # Nothing listens on port 1.
        with pytest.raises(CoordinatorUnreachable, match=r"127\.0\.0\.1:1 after 0\.3s"):
            run_worker(coordinator="127.0.0.1:1", connect_timeout=0.3)

    def test_job_dir_without_a_coordinator_names_the_dir_and_timeout(self, tmp_path):
        with pytest.raises(CoordinatorUnreachable, match=r"meta\.json after 0\.2s"):
            run_worker(job_dir=tmp_path, connect_timeout=0.2)


class TestUnitLedger:
    def _units(self, n=4):
        payloads = [RunTask(SyntheticAlgorithm(), i, i) for i in range(n * 2)]
        return shard_units(execute_run, payloads, task_id="batch-t", unit_size=2)

    def test_checkout_exhausts_then_none(self):
        ledger = UnitLedger(self._units())
        seen = [ledger.checkout("w") for _ in range(ledger.n_units)]
        assert all(unit is not None for unit in seen)
        assert len({unit.unit_id for unit in seen}) == ledger.n_units
        assert ledger.checkout("w") is None

    def test_duplicate_results_are_dropped(self):
        ledger = UnitLedger(self._units())
        unit = ledger.checkout("w")
        first = execute_unit(unit)
        assert ledger.complete(first)
        assert not ledger.complete(first)  # idempotent dedup on unit_id
        assert not ledger.complete(execute_unit(unit))
        assert ledger.results.qsize() == 1

    def test_requeue_by_owner_requeues_only_that_workers_units(self):
        ledger = UnitLedger(self._units())
        mine = ledger.checkout("alive")
        lost_a = ledger.checkout("dead")
        lost_b = ledger.checkout("dead")
        assert ledger.requeue(lost_a.unit_id, "dead") is True
        assert ledger.requeue(lost_b.unit_id, "dead") is True
        assert ledger.requeue(mine.unit_id, "dead") is False  # not the holder
        assert ledger.reissues == 2
        reissued = {ledger.checkout("alive").unit_id for _ in range(3)}
        assert {lost_a.unit_id, lost_b.unit_id} <= reissued
        assert mine.unit_id not in reissued

    def test_completed_units_are_not_requeued(self):
        ledger = UnitLedger(self._units())
        unit = ledger.checkout("w")
        ledger.complete(execute_unit(unit))
        assert not ledger.requeue(unit.unit_id)
        assert ledger.requeue(unit.unit_id, "w") is False

    def test_cancel_stops_issuing_and_accepting(self):
        ledger = UnitLedger(self._units())
        unit = ledger.checkout("w")
        ledger.cancel()
        assert ledger.checkout("w") is None
        assert not ledger.complete(execute_unit(unit))


class TestCoordinatorCache:
    def test_repeat_batch_issues_no_units(self, transport, tmp_path):
        cache_dir = tmp_path / "cache"
        backend = _make_backend(transport, tmp_path)
        workers = _spawn_workers(1, **_worker_target(backend))
        batch = dict(base_seed=6, backend=backend, cache=cache_dir)
        first = collect_batch(SyntheticAlgorithm(), 12, **batch)
        again = collect_batch(SyntheticAlgorithm(), 12, **batch)
        backend.shutdown()
        _join_workers(workers)
        np.testing.assert_array_equal(first.iterations, again.iterations)
        stats = workers[0].stats
        assert stats.units_completed == 3  # only the first batch reached the fleet
        assert stats.runs_completed == 12
        assert len(list(cache_dir.glob("observations-*.json"))) == 1
        assert not list(tmp_path.rglob("units"))  # workers keep no cache of their own


class TestBackendConfiguration:
    def test_resolve_backend_requires_a_transport(self):
        with pytest.raises(ValueError, match="--coordinator or --job-dir"):
            resolve_backend("distributed")

    def test_rejects_workers_argument(self):
        with pytest.raises(ValueError, match="no local pool"):
            DistributedBackend(coordinator="127.0.0.1:0", workers=4)

    def test_rejects_both_transports(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one transport"):
            DistributedBackend(coordinator="127.0.0.1:0", job_dir=tmp_path)

    def test_worker_rejects_distributed_executor(self):
        with pytest.raises(ValueError, match="per-host backend"):
            run_worker(
                coordinator="127.0.0.1:9",
                executor=DistributedBackend(coordinator="127.0.0.1:0"),
            )

    def test_close_releases_the_coordinator(self):
        backend = DistributedBackend(coordinator="127.0.0.1:0")
        host, port = backend.start().rsplit(":", 1)
        backend.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), timeout=2.0).close()
        with pytest.raises(RuntimeError, match="shut down"):
            backend.start()

    def test_describe_names_the_transport(self, tmp_path):
        assert "coordinator=" in DistributedBackend(coordinator="h:1").describe()
        assert "job_dir=" in DistributedBackend(job_dir=tmp_path).describe()

    def test_shard_units_covers_payloads_in_order(self):
        units = shard_units(execute_run, list(range(10)), task_id="t", unit_size=4)
        assert [u.payloads for u in units] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert [u.unit_id for u in units] == ["t/0", "t/1", "t/2"]

    @pytest.mark.parametrize("batch_timeout", [0, -1.0])
    def test_rejects_a_non_positive_batch_timeout(self, batch_timeout, tmp_path):
        # A zero timeout would fail every batch at its first empty poll.
        with pytest.raises(ValueError, match="batch_timeout must be positive"):
            DistributedBackend(job_dir=tmp_path, batch_timeout=batch_timeout)

    def test_rejects_a_malformed_coordinator_address(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            DistributedBackend(coordinator="no-port")
        with pytest.raises(WorkerArgumentError, match="HOST:PORT"):
            run_worker(coordinator="no-port")

    @pytest.mark.parametrize(
        "option",
        [
            {"poll_interval": 0.0},
            {"connect_timeout": -1.0},
            {"max_units": 0},
            {"heartbeat_seconds": -0.5},
        ],
        ids=lambda option: next(iter(option)),
    )
    def test_worker_checks_its_numbers_before_connecting(self, option):
        # Nothing listens on port 9: a check made after connecting would
        # retry for the whole connect timeout instead of raising at once.
        start = time.monotonic()
        with pytest.raises(WorkerArgumentError, match=next(iter(option))):
            run_worker(coordinator="127.0.0.1:9", **option)
        assert time.monotonic() - start < 5.0

    def test_batch_timeout_raises_without_workers(self):
        backend = DistributedBackend(coordinator="127.0.0.1:0", batch_timeout=0.3)
        backend.start()
        try:
            with pytest.raises(RuntimeError, match="no progress"):
                collect_batch(SyntheticAlgorithm(), 4, base_seed=0, backend=backend)
        finally:
            backend.shutdown()


class TestSATWorkloadFamilies:
    """ISSUE-5 acceptance: the uniform-ratio and DIMACS SAT workloads (and
    the non-default policies) flow end-to-end through the distributed
    backend + observation cache, bit-identical to serial collection."""

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"sat_family": "uniform"}, id="uniform"),
            pytest.param({"sat_family": "dimacs"}, id="dimacs"),
            pytest.param({"sat_family": "uniform", "sat_policy": "novelty+"}, id="uniform-novelty+"),
        ],
    )
    def test_sat_campaign_jobdir_bit_identical_to_serial(self, tmp_path, overrides):
        import dataclasses

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.data import clear_observation_cache, collect_observations

        config = dataclasses.replace(
            ExperimentConfig.tiny(), n_sequential_runs=8, **overrides
        )
        clear_observation_cache()
        serial = collect_observations("sat", config, cache_dir=tmp_path / "serial")["SAT"]
        clear_observation_cache()
        backend = DistributedBackend(job_dir=tmp_path / "jobs", poll_interval=0.01)
        backend.start()
        workers = _spawn_workers(2, job_dir=tmp_path / "jobs")
        try:
            distributed = collect_observations(
                "sat", config, cache_dir=tmp_path / "dist", backend=backend
            )["SAT"]
        finally:
            backend.shutdown()
            _join_workers(workers)
            clear_observation_cache()
        assert _deterministic_fields(distributed) == _deterministic_fields(serial)
        # Both collections persisted the batch under the same content address.
        serial_files = sorted(p.name for p in (tmp_path / "serial").glob("*.json"))
        dist_files = sorted(p.name for p in (tmp_path / "dist").glob("*.json"))
        assert serial_files == dist_files and len(serial_files) == 1


class SlowAlgorithm(LasVegasAlgorithm):
    """Deterministic iterations, but slow enough to outlive a short lease."""

    name = "slow"

    def _run(self, rng: np.random.Generator) -> RunResult:
        time.sleep(0.08)
        return RunResult(solved=True, iterations=int(rng.integers(1, 1000)), runtime_seconds=0.0)


class TestWorkerAuth:
    """PROTOCOL v2: the socket handshake carries a shared worker token."""

    def test_authenticated_workers_serve_batches(self):
        backend = DistributedBackend(
            coordinator="127.0.0.1:0", poll_interval=0.01, auth_token="fleet-secret"
        )
        backend.start()
        workers = _spawn_workers(2, coordinator=backend.start(), token="fleet-secret")
        try:
            batch = collect_batch(
                SyntheticAlgorithm(), 12, base_seed=3, backend=backend
            )
        finally:
            backend.shutdown()
        _join_workers(workers)
        reference = collect_batch(SyntheticAlgorithm(), 12, base_seed=3)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)

    @pytest.mark.parametrize("bad_token", [None, "wrong"], ids=["missing", "wrong"])
    def test_unauthenticated_worker_is_refused(self, bad_token):
        backend = DistributedBackend(
            coordinator="127.0.0.1:0", poll_interval=0.01, auth_token="fleet-secret"
        )
        address = backend.start()
        try:
            worker = _spawn_workers(1, coordinator=address, token=bad_token)[0]
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert isinstance(worker.error, ProtocolError)
            assert "authentication failed" in str(worker.error)
        finally:
            backend.shutdown()

    def test_refused_worker_does_not_poison_the_fleet(self):
        """An auth failure affects that connection only; good workers serve on."""
        backend = DistributedBackend(
            coordinator="127.0.0.1:0", poll_interval=0.01, auth_token="fleet-secret"
        )
        address = backend.start()
        bad = _spawn_workers(1, coordinator=address, token="wrong")[0]
        bad.join(timeout=10.0)
        good = _spawn_workers(1, coordinator=address, token="fleet-secret")
        try:
            batch = collect_batch(SyntheticAlgorithm(), 8, base_seed=5, backend=backend)
        finally:
            backend.shutdown()
        _join_workers(good)
        reference = collect_batch(SyntheticAlgorithm(), 8, base_seed=5)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)

    def test_auth_token_requires_socket_transport(self, tmp_path):
        with pytest.raises(ValueError, match="socket transport"):
            DistributedBackend(job_dir=tmp_path / "jobs", auth_token="x")
        with pytest.raises(ValueError, match="socket transport"):
            run_worker(job_dir=tmp_path / "jobs", token="x")

    def test_tokenless_coordinator_accepts_tokenless_worker(self, socket_backend):
        """No auth configured (the pre-v2 default) keeps working unchanged."""
        workers = _spawn_workers(1, coordinator=socket_backend.start())
        batch = collect_batch(SyntheticAlgorithm(), 8, base_seed=7, backend=socket_backend)
        socket_backend.shutdown()
        _join_workers(workers)
        reference = collect_batch(SyntheticAlgorithm(), 8, base_seed=7)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)


class TestHeartbeats:
    """PROTOCOL v2: workers heartbeat mid-unit to refresh their leases."""

    def test_touch_refreshes_every_lease_of_the_owner(self):
        units = shard_units(
            execute_run,
            [RunTask(SyntheticAlgorithm(), i, seed=i) for i in range(8)],
            task_id="hb",
            unit_size=4,
        )
        ledger = UnitLedger(units, lease_seconds=0.25)
        first = ledger.checkout("w1")
        assert first is not None
        # Keep touching across several lease spans: the unit must never be
        # speculatively re-issued to the second worker.
        deadline = time.monotonic() + 0.8
        other = []
        while time.monotonic() < deadline:
            assert ledger.touch("w1") == 1
            got = ledger.checkout("w2")
            if got is not None:
                other.append(got.unit_id)
            time.sleep(0.05)
        assert first.unit_id not in other

    def test_stale_lease_without_heartbeat_is_reissued(self):
        units = shard_units(
            execute_run,
            [RunTask(SyntheticAlgorithm(), i, seed=i) for i in range(4)],
            task_id="hb2",
            unit_size=4,
        )
        ledger = UnitLedger(units, lease_seconds=0.1)
        first = ledger.checkout("w1")
        time.sleep(0.25)  # no touch: the lease lapses
        again = ledger.checkout("w2")
        assert again is not None and again.unit_id == first.unit_id

    def test_touch_unknown_owner_is_a_noop(self):
        units = shard_units(
            execute_run,
            [RunTask(SyntheticAlgorithm(), 0, seed=0)],
            task_id="hb3",
            unit_size=1,
        )
        ledger = UnitLedger(units, lease_seconds=10.0)
        assert ledger.touch("ghost") == 0

    def test_heartbeats_prevent_speculative_reissue_of_slow_units(self, transport, tmp_path):
        """A unit slower than the lease stays with its worker: heartbeats
        refresh the lease, so no unit is ever executed twice."""
        backend = _make_backend(
            transport, tmp_path,
            lease_seconds=0.2,
            unit_size=4,  # 4 runs x ~80ms >> the 200ms lease
        )
        workers = _spawn_workers(2, heartbeat_seconds=0.05, **_worker_target(backend))
        try:
            batch = collect_batch(SlowAlgorithm(), 16, base_seed=13, backend=backend)
        finally:
            backend.shutdown()
        _join_workers(workers)
        # Every unit ran exactly once across the fleet: the lease never
        # lapsed, so the ledger never re-issued one speculatively.
        assert sum(w.stats.units_completed for w in workers) == 4
        reference = collect_batch(SlowAlgorithm(), 16, base_seed=13)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)

    def test_killed_heartbeating_worker_still_completes_campaign(self):
        """ISSUE-9 acceptance: a worker that heartbeats, takes a unit and is
        killed mid-campaign neither hangs nor duplicates observations."""
        backend = DistributedBackend(
            coordinator="127.0.0.1:0", poll_interval=0.01, lease_seconds=30.0
        )
        address = backend.start()
        events = []
        collector = threading.Thread(
            target=lambda: events.append(
                collect_batch(
                    SlowAlgorithm(), 12, base_seed=17, backend=backend,
                    progress=events.append,
                )
            ),
            daemon=True,
        )
        collector.start()

        # A doomed worker that handshakes, takes a unit and heartbeats a few
        # times (refreshing its long lease) before dying: completion must
        # come from the disconnect requeue, not from lease expiry.
        host, _, port = address.rpartition(":")
        doomed = socket.create_connection((host, int(port)))
        stream = doomed.makefile("rwb")
        _send(stream, {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": "doomed"})
        assert _recv(stream)["type"] == "welcome"
        reply = {"type": "idle"}
        deadline = time.monotonic() + 10.0
        while reply["type"] == "idle":
            assert time.monotonic() < deadline
            _send(stream, {"type": "request"})
            reply = _recv(stream)
        assert reply["type"] == "unit"
        for _ in range(3):
            _send(stream, {"type": "heartbeat", "worker": "doomed"})
            time.sleep(0.02)
        stream.close()
        doomed.close()

        survivors = _spawn_workers(1, coordinator=address, heartbeat_seconds=0.05)
        collector.join(timeout=30.0)
        assert not collector.is_alive()
        backend.shutdown()
        _join_workers(survivors)

        batch = events[-1]
        progress = events[:-1]
        assert sorted(e.index for e in progress) == list(range(12))  # no dupes, no holes
        reference = collect_batch(SlowAlgorithm(), 12, base_seed=17)
        np.testing.assert_array_equal(batch.iterations, reference.iterations)
        np.testing.assert_array_equal(batch.seeds, reference.seeds)


class TestGracefulDrain:
    def test_shutdown_waits_for_inflight_batch(self, transport, tmp_path):
        backend = _make_backend(transport, tmp_path, unit_size=4)
        workers = _spawn_workers(1, heartbeat_seconds=0.05, **_worker_target(backend))
        holder = []
        collector = threading.Thread(
            target=lambda: holder.append(
                collect_batch(SlowAlgorithm(), 8, base_seed=2, backend=backend)
            ),
            daemon=True,
        )
        collector.start()
        time.sleep(0.15)  # let the batch get in flight
        backend.shutdown(drain_seconds=30.0)  # returns once the ledger drains
        collector.join(timeout=10.0)
        assert not collector.is_alive()
        _join_workers(workers)
        assert holder and holder[0].n_runs == 8
        reference = collect_batch(SlowAlgorithm(), 8, base_seed=2)
        np.testing.assert_array_equal(holder[0].iterations, reference.iterations)

    def test_shutdown_without_drain_is_immediate(self, socket_backend):
        start = time.monotonic()
        socket_backend.shutdown()
        assert time.monotonic() - start < 1.0
