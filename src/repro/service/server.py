"""The campaign service's HTTP front end (standard library only).

Endpoints (all JSON; ``/healthz`` is the only unauthenticated route when a
token is configured):

======  ==============================  =========================================
Method  Path                            Meaning
======  ==============================  =========================================
GET     ``/healthz``                    liveness + queue/cache stats (no auth)
POST    ``/v1/campaigns``               submit a campaign → ``202`` + job id
GET     ``/v1/campaigns``               list job snapshots
GET     ``/v1/campaigns/<id>``          one job snapshot
GET     ``/v1/campaigns/<id>/events``   chunked JSON-lines event stream
                                        (``?since=N`` resumes mid-stream)
GET     ``/v1/campaigns/<id>/report``   the full replayable campaign report
DELETE  ``/v1/campaigns/<id>``          cancel (idempotent)
======  ==============================  =========================================

Backpressure is explicit: a full queue answers ``429`` with a
``Retry-After`` header instead of buffering.  Authentication is a shared
bearer token (``Authorization: Bearer …`` or ``X-Auth-Token``) compared in
constant time; worker-fleet authentication is separate (the engine's
socket handshake token).  The event stream is HTTP/1.1 chunked so clients
see observations and controller decisions the moment they happen — one
JSON object per line, the orchestrator's live telemetry.
"""

from __future__ import annotations

import hmac
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.service.jobs import Job, JobManager, QueueFull
from repro.service.schema import CampaignSubmission

__all__ = ["CampaignServer"]

#: Cap on request bodies (a full submission is well under 4 KiB).
_MAX_BODY = 1 << 20

#: Idle keep-alive cadence of the event stream: after this many seconds
#: without events a blank line is sent so dead clients are detected.
_STREAM_KEEPALIVE = 15.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-lasvegas-service"

    # The server object carries the manager/token (set by CampaignServer).
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    @property
    def token(self) -> str | None:
        return self.server.auth_token  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------
    def _send_json(self, status: int, payload: dict, *, headers: dict | None = None) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, *, headers: dict | None = None) -> None:
        self._send_json(status, {"error": message}, headers=headers)

    def _authorized(self) -> bool:
        if self.token is None:
            return True
        supplied = ""
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            supplied = auth[len("Bearer ") :]
        elif self.headers.get("X-Auth-Token"):
            supplied = self.headers["X-Auth-Token"]
        return hmac.compare_digest(supplied, self.token)

    def _require_auth(self) -> bool:
        if self._authorized():
            return True
        self._error(
            401,
            "authentication required: pass the service token as "
            "'Authorization: Bearer <token>' or 'X-Auth-Token'",
            headers={"WWW-Authenticate": 'Bearer realm="repro-lasvegas"'},
        )
        return False

    def _read_body(self) -> bytes | None:
        # A missing Content-Length means an empty body.  An error reply
        # closes the connection: the unread body must not parse as a request.
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        close = {"Connection": "close"}
        if length < 0:
            self._error(400, f"invalid Content-Length {header!r}", headers=close)
            return None
        if length > _MAX_BODY:
            self._error(413, f"request body exceeds {_MAX_BODY} bytes", headers=close)
            return None
        return self.rfile.read(length)

    def _job_or_404(self, job_id: str) -> Job | None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"no job {job_id!r}")
        return job

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            store = self.manager.store
            self._send_json(
                200,
                {
                    "status": "ok",
                    "jobs": self.manager.counts(),
                    "cache": None if store is None else store.stats(),
                },
            )
            return
        if not self._require_auth():
            return
        if parts == ["v1", "campaigns"]:
            self._send_json(200, {"jobs": [job.snapshot() for job in self.manager.jobs()]})
            return
        if len(parts) == 3 and parts[:2] == ["v1", "campaigns"]:
            job = self._job_or_404(parts[2])
            if job is not None:
                self._send_json(200, job.snapshot())
            return
        if len(parts) == 4 and parts[:2] == ["v1", "campaigns"] and parts[3] == "events":
            job = self._job_or_404(parts[2])
            if job is not None:
                try:
                    since = int(parse_qs(url.query).get("since", ["0"])[0])
                except ValueError:
                    self._error(400, "since must be an integer event sequence number")
                    return
                self._stream_events(job, since)
            return
        if len(parts) == 4 and parts[:2] == ["v1", "campaigns"] and parts[3] == "report":
            job = self._job_or_404(parts[2])
            if job is None:
                return
            if job.report is None:
                self._error(
                    409,
                    f"job {job.job_id} has no report yet (state: {job.state})",
                )
                return
            self._send_json(200, job.report.as_dict())
            return
        self._error(404, f"no route for GET {url.path}")

    def do_POST(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if not self._require_auth():
            return
        if parts == ["v1", "campaigns"]:
            body = self._read_body()
            if body is None:
                return
            try:
                payload = json.loads(body or b"{}")
                submission = CampaignSubmission.from_dict(payload)
            except (ValueError, TypeError) as exc:
                self._error(400, f"invalid submission: {exc}")
                return
            try:
                job = self.manager.submit(submission)
            except QueueFull as exc:
                self._error(
                    429, str(exc), headers={"Retry-After": f"{exc.retry_after:g}"}
                )
                return
            self._send_json(
                202,
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "status_url": f"/v1/campaigns/{job.job_id}",
                    "events_url": f"/v1/campaigns/{job.job_id}/events",
                    "report_url": f"/v1/campaigns/{job.job_id}/report",
                },
            )
            return
        self._error(404, f"no route for POST {url.path}")

    def do_DELETE(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if not self._require_auth():
            return
        if len(parts) == 3 and parts[:2] == ["v1", "campaigns"]:
            job = self.manager.cancel(parts[2])
            if job is None:
                self._error(404, f"no job {parts[2]!r}")
                return
            self._send_json(200, job.snapshot())
            return
        self._error(404, f"no route for DELETE {url.path}")

    # -- event streaming ------------------------------------------------
    def _stream_events(self, job: Job, since: int) -> None:
        """Chunked JSON-lines: one event per line, live until terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

        def chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            self.wfile.flush()

        cursor = max(0, since)
        try:
            while True:
                events, terminal = job.wait_events(cursor, timeout=_STREAM_KEEPALIVE)
                for event in events:
                    chunk((json.dumps(event) + "\n").encode())
                cursor += len(events)
                if terminal and not events:
                    break
                if not events:  # keep-alive so dead clients surface as EPIPE
                    chunk(b"\n")
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()


class CampaignServer:
    """The long-lived campaign service: HTTP server + job manager glue.

    Parameters
    ----------
    manager:
        The :class:`JobManager` that owns queueing and execution.
    host, port:
        Bind address (``port=0`` picks a free port; see :attr:`address`).
    token:
        Shared API token.  ``None`` disables HTTP authentication (the
        worker-fleet token, if any, lives on the engine backend).
    """

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
    ) -> None:
        self.manager = manager
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            # Name the address, as socket.create_server (the coordinator's
            # bind) does: a bare "Address already in use" names no port.
            raise OSError(
                exc.errno, f"{exc.strerror} (while attempting to bind on address {(host, port)!r})"
            ) from None
        self._httpd.daemon_threads = True
        self._httpd.manager = manager  # type: ignore[attr-defined]
        self._httpd.auth_token = token  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    @property
    def url(self) -> str:
        return f"http://{self.address}"

    def start(self) -> str:
        """Serve in a background thread; returns the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="campaign-http",
                daemon=True,
                kwargs={"poll_interval": 0.1},
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def stop(self, *, drain_seconds: float = 0.0) -> None:
        """Shut down: stop accepting, drain/cancel jobs, close the socket."""
        self.manager.stop(drain_seconds=drain_seconds)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CampaignServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
