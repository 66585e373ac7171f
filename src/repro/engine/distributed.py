"""Distributed multi-host execution backend: coordinator + pull-based workers.

The paper's headline experiments use up to 256 cores — more than one host
exposes — so the engine needs to fan a campaign out across machines without
giving up its hard invariant (a given ``base_seed`` yields bit-identical
observations on every backend, at any worker count, no matter which host ran
which unit).  :class:`DistributedBackend` keeps the invariant the same way
the single-host backends do: seeds are pre-derived by the coordinator
(:func:`repro.engine.seeding.spawn_seeds`) before any unit is issued, units
are blocks of *contiguous* payloads, and results are reassembled by payload
position, so scheduling order is invisible to consumers.

One protocol (:data:`repro.engine.tasks.PROTOCOL_VERSION`) travels over two
pipes.  Messages are line-delimited JSON (one object per line, UTF-8), and
pickled payloads travel base64-encoded inside them::

    worker -> {"type": "hello", "protocol": 3, "worker": "<name>", "token": "..."}
    coord  -> {"type": "welcome", "protocol": 3}        (or "error" + close)
    worker -> {"type": "request"}
    coord  -> {"type": "unit", "unit_id": ..., "payload": <b64 pickle>}
              | {"type": "idle"}                        (retry later)
    worker -> {"type": "heartbeat"}                     (while executing; no reply)
    worker -> {"type": "result", "unit_id": ..., "payload": <b64 pickle>}
              | {"type": "failed", "unit_id": ..., "reason": "..."}

* **Socket** — the coordinator listens on ``host:port``; each worker
  connection is one pipe.  A coordinator constructed with ``auth_token``
  refuses the handshake of any worker whose hello does not carry the same
  token (constant-time compare).
* **Job directory** — for queue/HPC settings where sockets are awkward,
  the same lines travel through append-only files on a shared filesystem::

      DIR/meta.json                          {"protocol": 3, "session": "<token>"}
      DIR/sessions/<session>/<worker>/up     written by the worker
      DIR/sessions/<session>/<worker>/down   written by the coordinator
      DIR/sessions/<session>/<worker>/CLOSED written by whichever end closes
      DIR/sessions/<session>/CLOSED          written by shutdown()

  ``<worker>`` is ``<name>-<pid>-<uuid8>``.  Each file has one writer,
  which appends one whole line per open; the reader reopens it on every
  poll (NFS close-to-open consistency), keeps a partial last line for the
  next poll, and backs off from fast polls to ``poll_interval``.  Either
  ``CLOSED``, or a ``meta.json`` naming another session, reads as
  end-of-file, like a closed socket.  The files grow by one line per
  message, idle polls included (``request`` + ``idle``); every campaign
  opens a new session.

:class:`UnitLedger` is the only lease, retry and dedup path, whichever pipe
a worker uses.  Executing workers heartbeat, refreshing the lease of every
unit they hold, so slow-but-alive workers are never speculatively
re-issued, while a wedged or killed worker's units go stale within
``lease_seconds`` and are re-issued to the rest of the fleet (a closed
pipe requeues them at once).  A result counts only from the
connection holding its unit, with one value per payload, and once per
``unit_id``.  A payload that raises is reported as ``failed`` (the worker
survives), retried up to ``max_unit_failures`` times, then fails the batch
loudly.  Workers exit at end-of-file (end of campaign) and idle-poll
between batches.  Both pipes ship pickles, so — exactly like
:mod:`multiprocessing` — they assume a trusted cluster.

Workers run units through the existing per-host backends (``serial``,
``thread`` or ``process``) and keep no results of their own: caching lives
at the coordinator, whose content-addressed observation cache
(:func:`repro.engine.collect_batch`) answers a repeated batch before any
unit is issued.
"""

from __future__ import annotations

import base64
import collections
import contextlib
import dataclasses
import hmac
import json
import os
import pickle
import queue
import re
import socket
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.engine.backends import BatchExecutor, SerialBackend
from repro.engine.tasks import PROTOCOL_VERSION, UnitResult, WorkUnit, shard_units
from repro.multiwalk.observations import atomic_write_bytes

__all__ = [
    "CoordinatorUnreachable",
    "DistributedBackend",
    "ProtocolError",
    "UnitLedger",
    "WorkerArgumentError",
    "WorkerStats",
    "execute_unit",
    "run_worker",
]

#: First wait between polls of a job-directory pipe.  Each empty poll waits
#: 10% longer, up to the reader's ``poll_interval``: a reply due within
#: milliseconds is read within milliseconds, a line is read at most ~10% of
#: its wait late, and an idle pipe costs one poll per ``poll_interval``.
_FIRST_POLL_SECONDS = 0.001


class ProtocolError(RuntimeError):
    """Coordinator and worker disagree about the wire protocol."""


class WorkerArgumentError(ValueError):
    """:func:`run_worker` refuses its arguments (raised before it connects)."""


class CoordinatorUnreachable(ConnectionError):
    """:func:`run_worker` found no coordinator within its connect timeout."""


# ----------------------------------------------------------------------
# Wire format: one JSON object per line; pickles travel base64-encoded.
# ----------------------------------------------------------------------
def _encode(obj: Any) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _decode(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _send(pipe, message: dict) -> None:
    pipe.write((json.dumps(message) + "\n").encode("utf-8"))
    pipe.flush()


def _recv(pipe) -> dict | None:
    line = pipe.readline()
    if not line:
        return None
    return json.loads(line.decode("utf-8"))


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"coordinator address must be HOST:PORT, got {address!r}")
    return host, int(port)


def _filename_safe(name: str) -> str:
    """Collapse a worker name to filesystem-safe characters.

    Worker names are user-supplied (``--name team/alpha``) or default to
    ``host:pid``; both can contain separators that must not leak into the
    worker's pipe directory name.
    """
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "worker"


# ----------------------------------------------------------------------
# The two pipes: a TCP connection, or a pair of job-directory files
# ----------------------------------------------------------------------
class _SocketPipe:
    """One TCP connection, either end."""

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(None)
        # Without TCP_NODELAY a worker's ``result`` line followed at once by
        # its next ``request`` waits out the peer's delayed ACK, about 40 ms
        # per unit on Linux.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._stream = sock.makefile("rwb")
        self.readline = self._stream.readline
        self.write = self._stream.write
        self.flush = self._stream.flush

    def close(self) -> None:
        """End the connection; a ``readline`` blocked on either end returns ``b""``."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._stream.close()
        self.sock.close()


def _read_meta(job_dir: Path) -> dict:
    """The job directory's ``meta.json`` (``{}`` until a coordinator writes one)."""
    try:
        meta = json.loads((job_dir / "meta.json").read_text())
    except FileNotFoundError:
        return {}
    if meta.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"job directory {job_dir} uses protocol {meta.get('protocol')!r}, "
            f"this process speaks {PROTOCOL_VERSION}"
        )
    return meta


def _session_live(session_dir: Path) -> bool:
    """Whether ``DIR/sessions/<session>`` is its job directory's open session."""
    if (session_dir / "CLOSED").exists():
        return False
    return _read_meta(session_dir.parents[1]).get("session") == session_dir.name


class _FilePipe:
    """One end of the pipe in ``DIR/sessions/<session>/<worker>/``.

    It reads the ``inbox`` file (``up`` on the coordinator's end, ``down``
    on the worker's) and appends to the other one.
    """

    def __init__(self, pipe_dir: Path, inbox: str, poll_interval: float) -> None:
        self._session_dir = pipe_dir.parent
        self._closed_path = pipe_dir / "CLOSED"
        self._read_path = pipe_dir / inbox
        self._write_path = pipe_dir / ("down" if inbox == "up" else "up")
        self._poll_interval = poll_interval
        self._offset = 0
        self._unread = b""

    def readline(self) -> bytes:
        """The next whole line; ``b""`` once the pipe or its session is closed
        and no whole line is pending."""
        delay = _FIRST_POLL_SECONDS
        while True:
            ended = self._closed_path.exists() or not _session_live(self._session_dir)
            line = self._next_line()
            if line or ended:
                return line
            time.sleep(delay)
            delay = min(1.1 * delay, self._poll_interval)

    def _next_line(self) -> bytes:
        if b"\n" not in self._unread:
            try:
                with open(self._read_path, "rb") as stream:
                    stream.seek(self._offset)
                    chunk = stream.read()
            except FileNotFoundError:
                chunk = b""  # the peer has not written yet
            self._offset += len(chunk)
            self._unread += chunk
        line, newline, rest = self._unread.partition(b"\n")
        if not newline:
            return b""  # keep a partial line until its writer finishes it
        self._unread = rest
        return line + newline

    def write(self, data: bytes) -> None:
        with open(self._write_path, "ab") as stream:
            stream.write(data)

    def flush(self) -> None:
        pass  # every write() is a whole line, closed at once

    def close(self) -> None:
        """End the pipe for both ends, as closing a socket does."""
        with contextlib.suppress(OSError):  # the job directory may be gone
            self._closed_path.touch()


# ----------------------------------------------------------------------
# Unit bookkeeping shared by both transports
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _UnitFailure:
    """Terminal failure marker a ledger emits after exhausting a unit's retries."""

    unit_id: str
    reason: str


class UnitLedger:
    """Thread-safe pending/outstanding/completed bookkeeping for one batch.

    The ledger is the coordinator's single source of truth: units are checked
    out to an owner, requeued when the owner dies, and completed exactly once
    — a second result for the same ``unit_id`` (re-issued unit finishing
    twice, duplicate submission) is dropped, which is what makes worker
    failure handling idempotent.

    With ``lease_seconds`` set, a drained ledger speculatively re-issues the
    longest-outstanding unit to an idle worker (classic straggler
    re-execution): a hung-but-still-connected worker then only costs one
    redundant execution, which the dedup absorbs.  Units whose execution
    *raises* are retried up to ``max_failures`` times and then surfaced as a
    :class:`_UnitFailure` on the results queue, so a deterministic crash
    fails the batch loudly instead of crash-looping the fleet forever.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        *,
        lease_seconds: float | None = None,
        max_failures: int = 3,
    ) -> None:
        self._units = {unit.unit_id: unit for unit in units}
        if len(self._units) != len(units):
            raise ValueError("unit ids must be unique within a batch")
        self._pending = collections.deque(units)
        self._outstanding: dict[str, set[str]] = {}  # unit_id -> live owners
        self._issued_at: dict[str, float] = {}
        self._failures: dict[str, int] = {}
        self._completed: set[str] = set()
        self._cancelled = False
        self._lock = threading.Lock()
        self.lease_seconds = lease_seconds
        self.max_failures = max_failures
        #: Completed unit results (and terminal ``_UnitFailure`` markers),
        #: in completion order (consumer side).
        self.results: queue.Queue = queue.Queue()
        #: Units handed out again after their owner died or went stale.
        self.reissues = 0

    @property
    def n_units(self) -> int:
        return len(self._units)

    @property
    def done(self) -> bool:
        with self._lock:
            return len(self._completed) == len(self._units)

    def checkout(self, owner: str) -> WorkUnit | None:
        """Hand the next pending unit to ``owner`` (``None`` when drained).

        When the pending queue is empty but units are still outstanding past
        their lease, the oldest such unit is re-issued to ``owner`` as well —
        if the original worker is merely slow, the duplicate result is
        deduplicated; if it hung, the batch still completes.
        """
        with self._lock:
            if self._cancelled:
                return None
            if self._pending:
                unit = self._pending.popleft()
                self._outstanding[unit.unit_id] = {owner}
                self._issued_at[unit.unit_id] = time.monotonic()
                return unit
            if self.lease_seconds is None or not self._outstanding:
                return None
            stale_id = min(self._outstanding, key=lambda uid: self._issued_at[uid])
            if time.monotonic() - self._issued_at[stale_id] < self.lease_seconds:
                return None
            self._outstanding[stale_id].add(owner)
            self._issued_at[stale_id] = time.monotonic()  # throttle re-issues
            self.reissues += 1
            return self._units[stale_id]

    def requeue(self, unit_id: str, owner: str | None = None) -> bool:
        """Return a checked-out unit to the pending queue (its owner died).

        With ``owner`` given, only that owner's hold is released; the unit is
        requeued when no other worker still has it in flight.  Without
        ``owner`` the unit is requeued unconditionally.
        """
        with self._lock:
            if unit_id in self._completed or unit_id not in self._outstanding:
                return False
            if owner is not None:
                owners = self._outstanding[unit_id]
                owners.discard(owner)
                if owners:
                    return False  # a speculative copy is still running
            self._outstanding.pop(unit_id)
            self._issued_at.pop(unit_id, None)
            self._pending.append(self._units[unit_id])
            self.reissues += 1
            return True

    def touch(self, owner: str) -> int:
        """Refresh the lease of every unit ``owner`` holds (worker heartbeat).

        Returns how many outstanding units were refreshed.  A heartbeating
        worker on a slow unit therefore never trips the speculative
        re-issue, no matter how heavy-tailed the run.
        """
        now = time.monotonic()
        with self._lock:
            held = [uid for uid, owners in self._outstanding.items() if owner in owners]
            for uid in held:
                self._issued_at[uid] = now
        return len(held)

    def complete(self, result: UnitResult) -> bool:
        """Record a finished unit; ``False`` for duplicates or unknown ids."""
        with self._lock:
            unit_id = result.unit_id
            if self._cancelled or unit_id not in self._units or unit_id in self._completed:
                return False
            self._completed.add(unit_id)
            self._outstanding.pop(unit_id, None)
            self._issued_at.pop(unit_id, None)
        self.results.put(result)
        return True

    def fail(self, unit_id: str, reason: str, owner: str | None = None) -> bool:
        """Record a failed execution attempt; retry or give up.

        Returns ``True`` while the unit will be retried; on the
        ``max_failures``-th failure the unit is marked completed and a
        :class:`_UnitFailure` is emitted so the consumer can raise.
        """
        with self._lock:
            if self._cancelled or unit_id not in self._units or unit_id in self._completed:
                return False
            count = self._failures[unit_id] = self._failures.get(unit_id, 0) + 1
            if count >= self.max_failures:
                self._completed.add(unit_id)
                self._outstanding.pop(unit_id, None)
                self._issued_at.pop(unit_id, None)
                give_up = True
            else:
                give_up = False
        if give_up:
            self.results.put(_UnitFailure(unit_id=unit_id, reason=reason))
            return False
        self.requeue(unit_id, owner)
        return True

    def cancel(self) -> None:
        """Stop issuing and accepting units (batch abandoned early)."""
        with self._lock:
            self._cancelled = True
            self._pending.clear()
            self._outstanding.clear()
            self._issued_at.clear()


# ----------------------------------------------------------------------
# Worker-side execution (deterministic in-unit ordering)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _PositionedCall:
    """Payload wrapper carrying its in-unit position through any backend."""

    fn: Callable[[Any], Any]
    position: int
    payload: Any


def _execute_positioned(call: _PositionedCall) -> tuple[int, Any]:
    return call.position, call.fn(call.payload)


def execute_unit(unit: WorkUnit, executor: BatchExecutor | None = None) -> UnitResult:
    """Run one unit on a local backend, returning values in payload order.

    The local backend may complete payloads out of order; values are
    reassembled by position so a unit's result is byte-identical no matter
    which backend (or host) executed it.
    """
    executor = executor or SerialBackend()
    calls = [
        _PositionedCall(unit.fn, position, payload)
        for position, payload in enumerate(unit.payloads)
    ]
    values: list[Any] = [None] * len(calls)
    for position, value in executor.imap_unordered(_execute_positioned, calls):
        values[position] = value
    return UnitResult(unit_id=unit.unit_id, values=tuple(values))


# ----------------------------------------------------------------------
# Coordinator: one server, two ways for workers to arrive
# ----------------------------------------------------------------------
class _SocketListener:
    """Workers arrive as TCP connections to ``host:port``."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_server((host, port))  # SO_REUSEADDR on POSIX
        self._sock.settimeout(0.2)  # lets the accept loop notice close()
        host, port = self._sock.getsockname()[:2]
        self.address = f"{host}:{port}"

    def accept(self) -> _SocketPipe | None:
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            return None
        return _SocketPipe(conn)

    def close(self) -> None:
        self._sock.close()


class _JobDirListener:
    """Workers arrive as new ``up`` files in this coordinator's session."""

    def __init__(self, job_dir: Path, session: str, poll_interval: float) -> None:
        job_dir.mkdir(parents=True, exist_ok=True)
        _read_meta(job_dir)  # refuses a directory of another protocol
        self._session_dir = job_dir / "sessions" / session
        self._session_dir.mkdir(parents=True)
        self._poll_interval = poll_interval
        self._seen: set[Path] = set()
        self.address = str(job_dir)
        # Naming the new session ends any earlier one: its workers read EOF
        # and workers waiting in a reused directory join this session.
        meta = {"protocol": PROTOCOL_VERSION, "session": session}
        atomic_write_bytes(job_dir / "meta.json", json.dumps(meta).encode("utf-8"))

    def accept(self) -> _FilePipe | None:
        for up in sorted(self._session_dir.glob("*/up")):
            if up not in self._seen:
                self._seen.add(up)
                return _FilePipe(up.parent, "up", self._poll_interval)
        time.sleep(self._poll_interval)
        return None

    def close(self) -> None:
        with contextlib.suppress(OSError):  # the job directory may be gone
            (self._session_dir / "CLOSED").touch()


class _CoordinatorServer:
    """Serves units to pull-based workers arriving through one listener.

    The server outlives individual batches: one campaign runs several
    batches through the same backend instance, and workers stay connected
    (idle-polling) in between.  ``set_ledger`` installs the active batch.
    """

    def __init__(
        self, listener: _SocketListener | _JobDirListener, auth_token: str | None = None
    ) -> None:
        self._listener = listener
        self._auth_token = auth_token
        self.address = listener.address
        self._ledger: UnitLedger | None = None
        self._ledger_lock = threading.Lock()
        self._closed = threading.Event()
        self._pipes: set[_SocketPipe | _FilePipe] = set()
        self._pipes_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    def set_ledger(self, ledger: UnitLedger | None) -> None:
        with self._ledger_lock:
            if ledger is not None and self._ledger is not None:
                # One ledger slot: silently evicting an in-flight batch would
                # leave its consumer blocked forever on an empty results queue.
                raise RuntimeError(
                    "a DistributedBackend serves one batch at a time; run "
                    "concurrent batches on separate backend instances"
                )
            self._ledger = ledger

    def _current_ledger(self) -> UnitLedger | None:
        with self._ledger_lock:
            return self._ledger

    def _accept_loop(self) -> None:
        counter = 0
        while not self._closed.is_set():
            try:
                pipe = self._listener.accept()
            except OSError:
                break
            if pipe is None:
                continue
            counter += 1
            with self._pipes_lock:
                if self._closed.is_set():
                    pipe.close()
                    continue
                self._pipes.add(pipe)
            threading.Thread(
                target=self._handle_client,
                args=(pipe, f"conn-{counter}"),
                name=f"repro-coordinator-{counter}",
                daemon=True,
            ).start()

    def _handle_client(self, pipe: _SocketPipe | _FilePipe, owner: str) -> None:
        checked_out: dict[str, tuple[UnitLedger, WorkUnit]] = {}
        try:
            refusal = _refusal(_recv(pipe), self._auth_token)
            if refusal is not None:
                _send(pipe, {"type": "error", "protocol": PROTOCOL_VERSION, "reason": refusal})
                return
            _send(pipe, {"type": "welcome", "protocol": PROTOCOL_VERSION})
            while not self._closed.is_set():
                message = _recv(pipe)
                if message is None:
                    break
                if message["type"] == "heartbeat":
                    # Refresh the lease of every unit this connection holds;
                    # heartbeats are fire-and-forget (no reply), so they can
                    # interleave with the request/response flow freely.
                    ledger = self._current_ledger()
                    if ledger is not None:
                        ledger.touch(owner)
                elif message["type"] == "request":
                    ledger = self._current_ledger()
                    unit = ledger.checkout(owner) if ledger is not None else None
                    if unit is None:
                        _send(pipe, {"type": "idle"})
                    else:
                        checked_out[unit.unit_id] = (ledger, unit)
                        payload = _encode(unit)
                        _send(pipe, {"type": "unit", "unit_id": unit.unit_id, "payload": payload})
                elif message["type"] in ("result", "failed"):
                    # Only the connection holding a unit may settle it; a
                    # message about any other unit is dropped.
                    held = checked_out.pop(message["unit_id"], None)
                    if held is None:
                        continue
                    ledger, unit = held
                    result = None
                    if message["type"] == "result":
                        result = _matching_result(message["payload"], unit)
                    if result is not None:
                        ledger.complete(result)  # dedups on unit_id
                    else:
                        # Retry on another worker; after max_failures the
                        # ledger surfaces the failure to the batch consumer.
                        reason = message.get("reason", "result does not match its unit")
                        ledger.fail(unit.unit_id, reason, owner)
                else:
                    reason = f"unknown message type {message['type']!r}"
                    _send(pipe, {"type": "error", "reason": reason})
                    break
        except (OSError, ValueError, EOFError, json.JSONDecodeError, KeyError):
            pass  # broken client: drop the connection, requeue its units below
        finally:
            # A dead worker's outstanding units go back to the queue so the
            # rest of the fleet absorbs them (work stealing on failure).
            for unit_id, (ledger, _unit) in checked_out.items():
                ledger.requeue(unit_id, owner)
            pipe.close()
            with self._pipes_lock:
                self._pipes.discard(pipe)

    def close(self) -> None:
        self._closed.set()
        self._listener.close()
        with self._pipes_lock:
            pipes = list(self._pipes)
        for pipe in pipes:
            pipe.close()
        self._accept_thread.join(timeout=2.0)


def _refusal(hello: dict | None, auth_token: str | None) -> str | None:
    """Why a worker's opening message is refused (``None`` to welcome it)."""
    if hello is None or hello.get("type") != "hello":
        return "expected a hello message"
    if hello.get("protocol") != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: coordinator speaks "
            f"{PROTOCOL_VERSION}, worker announced {hello.get('protocol')!r}"
        )
    if auth_token is not None and not hmac.compare_digest(
        str(hello.get("token") or ""), auth_token
    ):
        # Constant-time compare; the reason deliberately does not reveal
        # whether the token was missing or merely wrong.
        return "authentication failed: bad or missing worker token"
    return None


def _matching_result(payload: str, unit: WorkUnit) -> UnitResult | None:
    """The decoded result if it answers ``unit`` with one value per payload."""
    try:
        result = _decode(payload)
    except Exception:  # arbitrary bytes can make unpickling raise anything
        return None
    if (
        isinstance(result, UnitResult)
        and result.unit_id == unit.unit_id
        and len(result.values) == len(unit.payloads)
    ):
        return result
    return None


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class DistributedBackend(BatchExecutor):
    """Run batches on external worker processes, possibly on other hosts.

    Exactly one transport must be configured:

    ``coordinator="HOST:PORT"``
        Bind a coordinator socket at that address (``HOST:0`` picks a free
        port, see :meth:`start`); workers connect with
        ``repro-lasvegas worker --connect HOST:PORT``.
    ``job_dir="DIR"``
        Use a shared filesystem directory instead of sockets; workers run
        ``repro-lasvegas worker --job-dir DIR``.

    The backend is an ordinary :class:`BatchExecutor`: ``collect_batch`` and
    ``run_race`` route through it unchanged, and the engine invariant holds
    because seeds are derived before sharding and results are reassembled by
    payload index.  Worker count is whatever connects — pass ``workers`` as
    ``None`` (anything else is rejected, there is no local pool to size).
    One instance serves its batches sequentially (campaigns do exactly
    that); overlapping ``imap_unordered`` calls on the same instance raise
    — use separate instances for concurrent batches.
    """

    name = "distributed"

    def __init__(
        self,
        *,
        coordinator: str | None = None,
        job_dir: str | Path | None = None,
        workers: int | None = None,
        unit_size: int = 4,
        poll_interval: float = 0.05,
        lease_seconds: float = 30.0,
        batch_timeout: float | None = None,
        max_unit_failures: int = 3,
        auth_token: str | None = None,
    ) -> None:
        if workers is not None:
            raise ValueError(
                "the distributed backend has no local pool to size; worker count "
                "is however many 'repro-lasvegas worker' processes connect"
            )
        if (coordinator is None) == (job_dir is None):
            raise ValueError(
                "the distributed backend needs exactly one transport: "
                "coordinator='HOST:PORT' (socket) or job_dir='DIR' (filesystem) "
                "— on the CLI, pass --coordinator or --job-dir"
            )
        if coordinator is not None:
            _parse_address(coordinator)  # a malformed address fails here, not at start()
        if unit_size < 1:
            raise ValueError(f"unit_size must be >= 1, got {unit_size}")
        if batch_timeout is not None and batch_timeout <= 0:
            # A zero timeout would fail every batch at its first empty poll.
            raise ValueError(f"batch_timeout must be positive, got {batch_timeout:g}")
        if auth_token is not None and coordinator is None:
            raise ValueError(
                "auth_token applies to the socket transport only; the job "
                "directory's trust boundary is its filesystem permissions"
            )
        self.coordinator = coordinator
        self.job_dir = Path(job_dir) if job_dir is not None else None
        self.auth_token = auth_token
        self.unit_size = unit_size
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds
        self.batch_timeout = batch_timeout
        self.max_unit_failures = max_unit_failures
        self._server: _CoordinatorServer | None = None
        self._batch_counter = 0
        self._closed = False
        # Unique per-coordinator token: it names this coordinator's
        # job-directory session and prefixes every task id, so campaigns
        # sharing a job directory never see each other's workers or units.
        self._run_token = uuid.uuid4().hex[:8]

    # -- lifecycle ------------------------------------------------------
    def start(self) -> str:
        """Start serving (bind the socket / open a job-directory session).

        Called implicitly by the first batch; calling it eagerly is useful
        to learn the actual address when binding port 0.  Returns the
        coordinator address (socket mode) or the job directory path.
        """
        if self._closed:
            raise RuntimeError("this DistributedBackend has been shut down")
        if self._server is None:
            if self.coordinator is not None:
                listener = _SocketListener(*_parse_address(self.coordinator))
            else:
                listener = _JobDirListener(self.job_dir, self._run_token, self.poll_interval)
            self._server = _CoordinatorServer(listener, auth_token=self.auth_token)
        return self._server.address

    def shutdown(self, *, drain_seconds: float = 0.0) -> None:
        """Stop serving: close worker connections / the job-directory session.

        Workers read end-of-file and exit.  Idempotent.

        ``drain_seconds`` > 0 waits (up to that long) for the in-flight
        batch's ledger to finish before closing, so a service shutting down
        does not sever workers mid-unit when the remaining work is almost
        done.  The default tears down immediately, as before.
        """
        if self._closed:
            return
        if drain_seconds > 0 and self._server is not None:
            deadline = time.monotonic() + drain_seconds
            while time.monotonic() < deadline:
                ledger = self._server._current_ledger()
                if ledger is None or ledger.done:
                    break
                time.sleep(min(0.05, self.poll_interval))
        self._closed = True
        if self._server is not None:
            self._server.close()
            self._server = None

    def close(self) -> None:
        """Shut down immediately (:meth:`shutdown` without a drain)."""
        self.shutdown()

    def __enter__(self) -> "DistributedBackend":
        self.start()
        return self

    def describe(self) -> str:
        transport = (
            f"coordinator={self.coordinator}"
            if self.coordinator is not None
            else f"job_dir={self.job_dir}"
        )
        return f"{self.name}[{transport}]"

    # -- BatchExecutor interface ---------------------------------------
    def imap_unordered(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        payloads = list(payloads)
        if not payloads:
            return iter(())
        self.start()
        self._batch_counter += 1
        task_id = f"run-{self._run_token}-batch-{self._batch_counter:04d}"
        unit_size = self.unit_size if chunksize is None else max(1, chunksize)
        units = shard_units(fn, payloads, task_id=task_id, unit_size=unit_size)
        return self._iter_results(units)

    def _iter_results(self, units: list[WorkUnit]) -> Iterator[Any]:
        server = self._server
        assert server is not None  # start() ran in imap_unordered
        ledger = UnitLedger(
            units, lease_seconds=self.lease_seconds, max_failures=self.max_unit_failures
        )
        server.set_ledger(ledger)
        try:
            completed = 0
            last_progress = time.monotonic()
            while completed < len(units):
                try:
                    result = ledger.results.get(timeout=0.2)
                except queue.Empty:
                    stalled = time.monotonic() - last_progress
                    if self.batch_timeout is not None and stalled > self.batch_timeout:
                        raise RuntimeError(
                            f"distributed batch made no progress for {self.batch_timeout:g}s "
                            f"({len(units) - completed} units pending); are any workers "
                            f"connected?"
                        ) from None
                    continue
                if isinstance(result, _UnitFailure):
                    raise RuntimeError(
                        f"unit {result.unit_id} failed on {self.max_unit_failures} "
                        f"workers, last error: {result.reason}"
                    )
                completed += 1
                last_progress = time.monotonic()
                yield from result.values
        finally:
            server.set_ledger(None)
            ledger.cancel()  # late results from cancelled batches are dropped


# ----------------------------------------------------------------------
# Worker entry point (used by `repro-lasvegas worker` and by tests)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WorkerStats:
    """What one worker session accomplished (printed by the CLI on exit):
    the units it executed and submitted, and the runs they held."""

    units_completed: int = 0
    runs_completed: int = 0


def run_worker(
    *,
    coordinator: str | None = None,
    job_dir: str | Path | None = None,
    executor: BatchExecutor | None = None,
    poll_interval: float = 0.2,
    connect_timeout: float = 30.0,
    max_units: int | None = None,
    name: str | None = None,
    token: str | None = None,
    heartbeat_seconds: float = 5.0,
) -> WorkerStats:
    """Pull and execute work units until the coordinator shuts down.

    Parameters
    ----------
    coordinator, job_dir:
        Exactly one transport: the coordinator's ``HOST:PORT``, or the
        shared job directory.
    executor:
        Local backend units run through (default: :class:`SerialBackend`).
        Must be a per-host backend, not another :class:`DistributedBackend`.
        A :class:`ProcessBackend` starts its spawn pool on the first unit
        and keeps it warm for later ones; the caller closes it.
    poll_interval:
        Sleep after an ``idle`` reply before the next ``request``; in a job
        directory also the longest wait between two reads of the reply file.
    connect_timeout:
        How long to keep retrying the initial connection (socket mode) or
        waiting for ``meta.json`` to name an open session (job-dir mode) —
        lets workers start before the coordinator, also in a job directory
        an earlier campaign left behind.  ``0`` tries once.  No coordinator
        by then raises :class:`CoordinatorUnreachable`; a job-dir worker
        that sees only closed sessions until then, or that finds a newer
        session already closed, exits without serving.
    max_units:
        Stop after completing this many units (mostly for tests).
    name:
        Worker name announced to the coordinator (default: ``host:pid``).
    token:
        Shared secret sent in the socket handshake.  A coordinator started
        with an ``auth_token`` refuses workers whose token does not match;
        socket transport only (the job directory's trust boundary is its
        filesystem permissions).
    heartbeat_seconds:
        Cadence of ``heartbeat`` messages sent while a unit executes,
        refreshing the coordinator's leases on this worker's units so
        long-running units are not speculatively re-issued.  ``0``
        disables heartbeats (the pre-v2 behaviour).
    """
    if (coordinator is None) == (job_dir is None):
        raise WorkerArgumentError(
            "run_worker needs exactly one of coordinator= or job_dir= "
            "(on the CLI, --connect or --job-dir)"
        )
    if token is not None and coordinator is None:
        raise WorkerArgumentError("token= applies to the socket transport, not job_dir=")
    if coordinator is not None:
        try:
            _parse_address(coordinator)
        except ValueError as exc:
            raise WorkerArgumentError(str(exc)) from None
    if isinstance(executor, DistributedBackend):
        raise WorkerArgumentError("workers must run units on a per-host backend, not 'distributed'")
    if poll_interval <= 0:
        raise WorkerArgumentError(f"poll_interval must be positive, got {poll_interval:g}")
    if connect_timeout < 0:
        raise WorkerArgumentError(f"connect_timeout must be >= 0, got {connect_timeout:g}")
    if max_units is not None and max_units < 1:
        raise WorkerArgumentError(f"max_units must be >= 1, got {max_units}")
    if heartbeat_seconds < 0:
        raise WorkerArgumentError(f"heartbeat_seconds must be >= 0, got {heartbeat_seconds:g}")
    stats = WorkerStats()
    worker_name = name or f"{socket.gethostname()}:{os.getpid()}"
    if coordinator is not None:
        pipe = _SocketPipe(_connect_with_retry(coordinator, connect_timeout))
    else:
        pipe = _join_job_dir(Path(job_dir), worker_name, poll_interval, connect_timeout)
        if pipe is None:
            return stats
    # The heartbeat thread and the main loop share one pipe; every write
    # must hold this lock so messages never interleave mid-line.
    write_lock = threading.Lock()
    executing = threading.Event()
    finished = threading.Event()

    def send(message: dict) -> None:
        with write_lock:
            _send(pipe, message)

    def heartbeat_loop() -> None:
        # While a unit executes, heartbeats keep the coordinator refreshing
        # this worker's leases instead of speculatively re-issuing a long
        # unit to someone else.
        while not finished.wait(heartbeat_seconds):
            if executing.is_set():
                try:
                    send({"type": "heartbeat", "worker": worker_name})
                except OSError:
                    return  # pipe gone; the main loop will notice

    if heartbeat_seconds > 0:
        threading.Thread(
            target=heartbeat_loop, name=f"heartbeat-{worker_name}", daemon=True
        ).start()
    try:
        hello = {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": worker_name}
        if token is not None:
            hello["token"] = token
        send(hello)
        reply = _recv(pipe)
        if reply is None:
            return stats  # coordinator went away before the handshake finished
        if reply.get("type") == "error":
            raise ProtocolError(reply.get("reason", "coordinator rejected the handshake"))
        if reply.get("type") != "welcome":
            raise ProtocolError(f"unexpected handshake reply: {reply!r}")
        while max_units is None or stats.units_completed < max_units:
            send({"type": "request"})
            message = _recv(pipe)
            if message is None:
                break  # clean shutdown: the coordinator closed the pipe
            if message["type"] == "idle":
                time.sleep(poll_interval)
                continue
            if message["type"] == "error":
                raise ProtocolError(message.get("reason", "coordinator error"))
            unit: WorkUnit = _decode(message["payload"])
            executing.set()
            try:
                result = execute_unit(unit, executor)
            except Exception as exc:
                # A crashing payload must not kill the worker: report the
                # failure so the coordinator can retry elsewhere (and give
                # up loudly after max_unit_failures), then keep serving.
                send({"type": "failed", "unit_id": unit.unit_id, "reason": repr(exc)})
                continue
            finally:
                executing.clear()
            send({"type": "result", "unit_id": result.unit_id, "payload": _encode(result)})
            stats.units_completed += 1
            stats.runs_completed += len(result.values)
    except (BrokenPipeError, ConnectionResetError):
        pass  # coordinator died mid-session; our units will be re-issued
    finally:
        finished.set()
        pipe.close()
    return stats


def _connect_with_retry(address: str, connect_timeout: float) -> socket.socket:
    host, port = _parse_address(address)
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            # Never timeout=0: that makes a non-blocking socket whose connect fails.
            timeout = max(deadline - time.monotonic(), 1.0)
            return socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise CoordinatorUnreachable(
                    f"no coordinator at {address} after {connect_timeout:g}s: {exc}"
                ) from exc
            time.sleep(0.1)


def _join_job_dir(
    job_dir: Path, worker_name: str, poll_interval: float, connect_timeout: float
) -> _FilePipe | None:
    """Open this worker's pipe in the job directory's open session.

    A reused directory still names the previous campaign's (closed)
    session until the next coordinator starts, so wait for an open one;
    ``None`` if none appeared within ``connect_timeout``, or if a session
    other than the one named at the first read is already closed (it
    opened and closed between two polls, so this worker missed it).
    """
    deadline = time.monotonic() + connect_timeout
    first_session = _read_meta(job_dir).get("session")
    while True:
        meta = _read_meta(job_dir)
        if meta:
            session_dir = job_dir / "sessions" / meta["session"]
            if _session_live(session_dir):
                break
            if meta["session"] != first_session and (session_dir / "CLOSED").exists():
                return None
        if time.monotonic() >= deadline:
            if not meta:
                raise CoordinatorUnreachable(
                    f"no coordinator metadata at {job_dir / 'meta.json'} "
                    f"after {connect_timeout:g}s"
                )
            return None
        time.sleep(0.1)
    pipe_name = f"{_filename_safe(worker_name)}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    pipe_dir = job_dir / "sessions" / meta["session"] / pipe_name
    pipe_dir.mkdir()
    return _FilePipe(pipe_dir, "down", poll_interval)
