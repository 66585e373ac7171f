"""Span recording for the traced benchmark run.

Every span is recorded from the benchmark's own files: :func:`install`
replaces the public entry points of each layer *where its caller looks
them up* with thin wrappers, and ``Patches.undo`` puts the originals back.
Nothing in ``src/`` knows it is being traced.

Spans stay in memory (:class:`Recorder`) and are written as JSON lines
once the run ends.  Self time is attributed by a sweep over each root
span: at every instant the deepest open span owns the clock, so the
per-layer self times of one root add up to that root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path

#: Layers in call order; ``bench`` is the benchmark's own root span.
LAYERS = (
    "bench",
    "service",
    "campaign",
    "core",
    "engine",
    "engine.cache",
    "engine.distributed",
    "solvers",
)


class Recorder:
    """In-memory span store with per-thread nesting.

    A span opened on a worker thread with nothing open on that thread
    (the service's job executor) is parented to :attr:`anchor`, the
    request the benchmark currently has in flight, two levels below it so
    that server-side work outranks the client call waiting for it.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.anchor: dict | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _new(self, layer: str, name: str, parent: dict | None, depth: int, start: float, attrs: dict) -> dict:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return {
            "id": span_id,
            "parent": None if parent is None else parent["id"],
            "layer": layer,
            "name": name,
            "depth": depth,
            "thread": threading.current_thread().name,
            "start": start,
            "end": None,
            "attrs": attrs,
        }

    def open(self, layer: str, name: str, **attrs) -> dict:
        stack = self._stack()
        if stack:
            parent, depth = stack[-1], stack[-1]["depth"] + 1
        elif self.anchor is not None and threading.current_thread() is not threading.main_thread():
            parent, depth = self.anchor, self.anchor["depth"] + 2
        else:
            parent, depth = None, 0
        span = self._new(layer, name, parent, depth, time.perf_counter(), attrs)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def add(self, layer: str, name: str, start: float, end: float, parent: dict) -> None:
        """Record an already-finished leaf span under ``parent``."""
        span = self._new(layer, name, parent, parent["depth"] + 1, max(start, parent["start"]), {})
        span["end"] = end
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, layer: str, name: str, **attrs):
        span = self.open(layer, name, **attrs)
        try:
            yield span
        finally:
            self.close(span)


def write_jsonl(spans: list[dict], path: Path) -> None:
    """Write spans as JSON lines, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in sorted(spans, key=lambda s: s["start"]):
            handle.write(json.dumps(span, default=str) + "\n")


# ----------------------------------------------------------------------
# Self-time attribution
# ----------------------------------------------------------------------
def self_times(spans: list[dict], root: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Self time inside ``root`` per layer and per span name.

    The deepest open span owns each instant; ties in depth go to the span
    that opened last.  Spans are clipped to the root's interval, so the
    per-layer values sum to the root's duration.
    """
    lo, hi = root["start"], root["end"]
    events = []
    for s in spans:
        if s is root or (s["end"] > lo and s["start"] < hi):
            events.append((max(s["start"], lo), 1, s))
            events.append((min(s["end"], hi), 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    by_layer = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, float] = {}
    active: list[dict] = []
    previous = lo
    for moment, opening, s in events:
        if moment > previous and active:
            owner = max(active, key=lambda a: (a["depth"], a["start"]))
            by_layer[owner["layer"]] += moment - previous
            by_name[owner["name"]] = by_name.get(owner["name"], 0.0) + (moment - previous)
        previous = max(previous, moment)
        if opening:
            active.append(s)
        elif s in active:
            active.remove(s)
    return by_layer, by_name


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_call(recorder: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(layer, name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_iter(recorder: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(layer, name):
            yield from fn(*args, **kwargs)

    return wrapper


def _wrap_imap(recorder: Recorder, layer: str, fn, batches: list, *, in_process: bool, fleet_size: int):
    """Wrap a backend's ``imap_unordered``: one span and one batch record per call.

    The batch record keeps what the engine metrics need (span, first
    result, busy time, iterations, workers used).  For in-process
    backends each run's own runtime becomes a ``solvers`` leaf span, so
    the solver's hot loop is not charged to the engine.
    """

    @functools.wraps(fn)
    def wrapper(self, run_fn, payloads, *args, **kwargs):
        payloads = list(payloads)
        backend = type(self).__name__
        if backend == "DistributedBackend":
            workers = min(fleet_size, -(-len(payloads) // self.unit_size))  # one unit per worker
        elif in_process:
            workers = 1
        else:
            workers = min(self.workers, len(payloads))
        span = recorder.open(layer, f"{backend}.imap_unordered", n=len(payloads))
        batch = {
            "backend": backend,
            "layer": layer,
            "workers": max(1, workers),
            "start": span["start"],
            "first": None,
            "busy": 0.0,
            "iters": 0,
            "end": None,
        }
        batches.append(batch)
        inner = iter(fn(self, run_fn, payloads, *args, **kwargs))
        try:
            for item in inner:
                now = time.perf_counter()
                result = item[1]  # every run batch yields (index, RunResult)
                runtime = float(result.runtime_seconds)
                if batch["first"] is None:
                    batch["first"] = now
                    batch["first_runtime"] = runtime
                batch["busy"] += runtime
                batch["iters"] += int(result.iterations)
                if in_process and runtime > 0:
                    recorder.add("solvers", "run", now - runtime, now, span)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()  # early close must still cancel the backend's runs
            batch["end"] = time.perf_counter()
            recorder.close(span)

    return wrapper


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install(recorder: Recorder, batches: list, *, fleet_size: int) -> Patches:
    """Wrap each layer's entry points where their callers look them up."""
    import repro.campaign.controller as controller_mod
    import repro.campaign.orchestrator as orchestrator_mod
    import repro.engine.core as core_mod
    import repro.service.client as client_mod
    import repro.service.jobs as jobs_mod
    from repro.engine.backends import ProcessBackend, SerialBackend
    from repro.engine.cache import ObservationCache
    from repro.engine.distributed import DistributedBackend
    from repro.engine.lockstep import LockstepBackend
    from repro.service.tenants import TenantObservationCache

    patches = Patches()

    def wrap(owner, name: str, layer: str, wrapper=_wrap_call) -> None:
        patches.set(owner, name, wrapper(recorder, layer, name, getattr(owner, name)))

    # campaign: the orchestrator as the service's job executor calls it
    # (the benchmark's own calls open their span in workloads.py).
    wrap(jobs_mod, "run_campaign", "campaign")
    # engine entry points, as the orchestrator and collect_batch look them up.
    wrap(orchestrator_mod, "collect_batch", "engine")
    wrap(orchestrator_mod, "iter_runs", "engine", _wrap_iter)
    wrap(core_mod, "iter_batch", "engine", _wrap_iter)
    # backends: one span and one batch record per imap_unordered call.
    for cls, layer, in_process in (
        (ProcessBackend, "engine", False),
        (LockstepBackend, "engine", True),
        (SerialBackend, "engine", True),
        (DistributedBackend, "engine.distributed", False),
    ):
        patches.set(cls, "imap_unordered", _wrap_imap(
            recorder, layer, cls.imap_unordered, batches, in_process=in_process, fleet_size=fleet_size,
        ))
    # cache persistence hooks.
    for cls in (ObservationCache, TenantObservationCache):
        wrap(cls, "read_batch", "engine.cache")
        wrap(cls, "write_batch", "engine.cache")
    # core: the allocation decision's simulation, as the controller calls it.
    wrap(controller_mod, "simulate_multiwalk_speedups", "core")
    # service: the client calls the benchmark makes.
    for name in ("submit", "report", "health", "list_jobs"):
        wrap(client_mod.CampaignClient, name, "service")
    wrap(client_mod.CampaignClient, "stream_events", "service", _wrap_iter)
    return patches


def traced_controller(recorder: Recorder, base):
    """A subclass of controller class ``base`` whose protocol calls are spans."""

    class Traced(base):
        def begin_stage(self, stage, log):
            with recorder.span("campaign", "controller.begin_stage"):
                return super().begin_stage(stage, log)

        def plan_round(self):
            with recorder.span("campaign", "controller.plan_round"):
                return super().plan_round()

        def observe(self, record):
            with recorder.span("campaign", "controller.observe"):
                return super().observe(record)

    Traced.__name__ = f"Traced{base.__name__}"
    return Traced
