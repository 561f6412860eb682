"""``repro serve``: the campaign service's HTTP face (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no framework, no new runtime dependency — exposing the scheduler::

    GET  /                      live dashboard (HTML)
    GET  /healthz               liveness + drain state
    GET  /api/jobs              all jobs
    POST /api/jobs              submit a grid (JSON spec body)
    GET  /api/jobs/<id>         one job's status
    POST /api/jobs/<id>/cancel  request cancellation
    GET  /api/jobs/<id>/results campaign summary (partial while running)
    GET  /api/metrics           MetricsRegistry snapshot + rollup
    GET  /api/stream            rollups as server-sent events

Worker API (the distributed tier — see :mod:`repro.service.workers`)::

    POST /api/workers/register        join the worker pool
    GET  /api/workers                 worker + lease-broker status
    POST /api/workers/<id>/claim      claim the next pending lease
    POST /api/workers/<id>/heartbeat  renew liveness + held leases
    POST /api/workers/<id>/results    post a lease's trial records

With ``--chaos`` the worker API also doubles as a fault surface:
seeded 500s and response stalls are injected ahead of routing, and
journal appends can be torn mid-line — the soak harness for the
retry/requeue machinery.

Every response is ``Connection: close`` — requests are short-lived and
the streaming endpoint holds its connection open anyway. Submissions are
journaled before the handler replies, so a reply of ``job_id`` is a
durability promise: kill the server at any instant afterwards and a
restart re-adopts the job.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import fields
from typing import Dict, Optional, Tuple

from repro.campaign.engine import summarize_store
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.journal import JobJournal
from repro.service.scheduler import DONE, JobScheduler

#: request-line / header limits (we only ever serve small JSON bodies)
MAX_HEADER_LINES = 64
MAX_BODY_BYTES = 1 << 20

#: fields a submission body may carry besides the CampaignSpec ones
_SUBMIT_FIELDS = frozenset({"workers"})


def spec_from_request(data: Dict) -> CampaignSpec:
    """Build a validated :class:`CampaignSpec` from a submission body.

    The body is a spec record plus the service-only ``workers`` field;
    :meth:`CampaignSpec.from_dict` decodes it, so a 400 response carries
    the same message the CLI and a store header would give.
    """
    if not isinstance(data, dict):
        raise CampaignError("submission body must be a JSON object")
    spec_fields = {f.name for f in fields(CampaignSpec)}
    unknown = set(data) - spec_fields - _SUBMIT_FIELDS
    if unknown:
        raise CampaignError(
            f"unknown submission field(s) {sorted(unknown)} (spec "
            f"fields: {sorted(spec_fields)}; service fields: "
            f"{sorted(_SUBMIT_FIELDS)})")
    return CampaignSpec.from_dict(
        {k: v for k, v in data.items() if k not in _SUBMIT_FIELDS})


class CampaignService:
    """Scheduler + HTTP server bound to one event loop.

    ``start``/``stop`` are the programmatic lifecycle (tests drive it in
    a thread); :func:`serve` wraps it with signal handling for the CLI.
    """

    def __init__(self, scheduler: JobScheduler, *,
                 host: str = "127.0.0.1", port: int = 0,
                 stream_interval: float = 1.0, chaos=None) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.stream_interval = stream_interval
        self.chaos = chaos
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional["asyncio.Task[None]"] = None
        self._conn_tasks: list = []

    async def start(self) -> None:
        self.scheduler.adopt_orphans()
        self._scheduler_task = asyncio.create_task(self.scheduler.run())
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: stop admissions, finish in-flight waves,
        close the listener, and wait for the scheduler to settle."""
        self.scheduler.request_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            await self._scheduler_task
        # open connections (long-lived SSE streams, mostly) die with us
        pending = list(self._conn_tasks)
        for conn in pending:
            conn.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- plumbing -----------------------------------------------------------
    @staticmethod
    def _json_bytes(payload: object) -> bytes:
        return (json.dumps(payload, sort_keys=True) + "\n").encode()

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              body: bytes,
                              content_type: str = "application/json"
                              ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + body)
        await writer.drain()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.append(task)
        try:
            request = await self._read_request(reader)
            if request is None:
                await self._write_response(
                    writer, 400, self._json_bytes({"error": "bad request"}))
                return
            method, target, body = request
            if target == "/api/stream" and method == "GET":
                await self._stream(writer)
                return
            if self.chaos is not None \
                    and target.startswith("/api/workers"):
                fault = self.chaos.http_fault()
                if fault is not None:
                    kind, delay = fault
                    if kind == "error":
                        await self._write_response(
                            writer, 500,
                            self._json_bytes({"error": "chaos: 500"}))
                        return
                    # stall only this connection past the client's
                    # socket timeout; the loop keeps serving others
                    await asyncio.sleep(delay)
            status, payload, content_type = self._route(
                method, target, body)
            await self._write_response(writer, status, payload,
                                       content_type)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            if task is not None and task in self._conn_tasks:
                self._conn_tasks.remove(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- routing ------------------------------------------------------------
    def _route(self, method: str, target: str,
               body: bytes) -> Tuple[int, bytes, str]:
        target = target.split("?", 1)[0]
        if target == "/" and method == "GET":
            return 200, DASHBOARD_HTML.encode(), "text/html; charset=utf-8"
        if target == "/healthz" and method == "GET":
            return 200, self._json_bytes(
                {"ok": True, "draining": self.scheduler.stopping}), \
                "application/json"
        if target == "/api/jobs":
            if method == "GET":
                return 200, self._json_bytes(
                    {"jobs": [j.status() for j in self.scheduler.jobs()]}), \
                    "application/json"
            if method == "POST":
                return self._submit(body)
            return 405, self._json_bytes({"error": "method not allowed"}), \
                "application/json"
        if target == "/api/metrics" and method == "GET":
            return 200, self._json_bytes(
                {"registry": self.scheduler.metrics.snapshot(),
                 "rollup": self.scheduler.rollup()}), "application/json"
        if target.startswith("/api/jobs/"):
            return self._job_route(method, target[len("/api/jobs/"):])
        if target == "/api/workers" or target.startswith("/api/workers/"):
            return self._worker_route(method, target, body)
        return 404, self._json_bytes({"error": f"no route {target!r}"}), \
            "application/json"

    def _worker_route(self, method: str, target: str,
                      body: bytes) -> Tuple[int, bytes, str]:
        broker = self.scheduler.broker
        if broker is None:
            return 404, self._json_bytes(
                {"error": "this server has no worker tier"}), \
                "application/json"
        if target == "/api/workers" and method == "GET":
            return 200, self._json_bytes(
                {"workers": broker.workers_status(),
                 "leases": broker.stats()}), "application/json"
        try:
            data = json.loads(body.decode() or "{}")
        except json.JSONDecodeError:
            return 400, self._json_bytes({"error": "bad JSON body"}), \
                "application/json"
        if target == "/api/workers/register" and method == "POST":
            return 200, self._json_bytes(
                broker.register(data.get("name"))), "application/json"
        rest = target[len("/api/workers/"):]
        worker_id, _, action = rest.partition("/")
        if method != "POST":
            return 405, self._json_bytes({"error": "method not allowed"}), \
                "application/json"
        if action == "claim":
            try:
                lease = broker.claim(worker_id)
            except KeyError:
                return 404, self._json_bytes(
                    {"error": f"unknown worker {worker_id!r}; "
                     f"re-register"}), "application/json"
            return 200, self._json_bytes({"lease": lease}), \
                "application/json"
        if action == "heartbeat":
            ack = broker.heartbeat(worker_id,
                                   [str(x) for x in data.get("leases", [])])
            if ack is None:
                return 404, self._json_bytes(
                    {"error": f"unknown worker {worker_id!r}; "
                     f"re-register"}), "application/json"
            return 200, self._json_bytes(ack), "application/json"
        if action == "results":
            accepted = broker.complete(
                worker_id, str(data.get("lease_id", "")),
                list(data.get("records", [])))
            return 200, self._json_bytes({"accepted": accepted}), \
                "application/json"
        return 404, self._json_bytes(
            {"error": f"no worker route {target!r}"}), "application/json"

    def _submit(self, body: bytes) -> Tuple[int, bytes, str]:
        if self.scheduler.stopping:
            return 409, self._json_bytes(
                {"error": "server is draining; resubmit after restart"}), \
                "application/json"
        try:
            data = json.loads(body.decode() or "{}")
            spec = spec_from_request(data)
            job = self.scheduler.submit(spec, workers=data.get("workers"))
        except (CampaignError, ValueError) as exc:
            return 400, self._json_bytes({"error": str(exc)}), \
                "application/json"
        return 200, self._json_bytes(job.status()), "application/json"

    def _job_route(self, method: str,
                   rest: str) -> Tuple[int, bytes, str]:
        job_id, _, action = rest.partition("/")
        job = self.scheduler.get(job_id)
        if job is None:
            return 404, self._json_bytes(
                {"error": f"unknown job {job_id!r}"}), "application/json"
        if not action and method == "GET":
            return 200, self._json_bytes(job.status()), "application/json"
        if action == "cancel" and method == "POST":
            self.scheduler.cancel(job_id)
            return 200, self._json_bytes(job.status()), "application/json"
        if action == "results" and method == "GET":
            return self._results(job)
        return 405, self._json_bytes({"error": "method not allowed"}), \
            "application/json"

    def _results(self, job) -> Tuple[int, bytes, str]:
        """The job's deterministic summary — final for DONE jobs, the
        current store aggregate otherwise (byte-comparable to what
        ``repro campaign summarize`` prints for the same store)."""
        if job.state == DONE and job.summary is not None:
            stats = job.summary
        else:
            try:
                summary = summarize_store(job.store_path)
            except CampaignError as exc:
                return 409, self._json_bytes(
                    {"error": f"no results yet: {exc}"}), "application/json"
            stats = summary.stats_dict()
        return 200, self._json_bytes(
            {"job_id": job.job_id, "state": job.state,
             "trials_done": job.trials_done, "summary": stats}), \
            "application/json"

    # -- server-sent events -------------------------------------------------
    async def _stream(self, writer: asyncio.StreamWriter) -> None:
        """Push rollups until the client hangs up or we drain."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        while True:
            payload = json.dumps(self.scheduler.rollup(), sort_keys=True)
            writer.write(f"data: {payload}\n\n".encode())
            await writer.drain()
            if self.scheduler.stopping:
                return
            await asyncio.sleep(self.stream_interval)


async def _serve_async(service: CampaignService) -> None:
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop_requested.set)
    await service.start()
    print(f"repro serve: listening on "
          f"http://{service.host}:{service.port} "
          f"(dashboard at /, API under /api)", flush=True)
    await stop_requested.wait()
    print("repro serve: draining (in-flight waves finish, queued jobs "
          "stay journaled for re-adoption)", flush=True)
    await service.stop()


def serve(*, host: str, port: int, data_dir: str,
          max_concurrent: int, workers: Optional[int],
          journal_path: Optional[str] = None,
          stream_interval: float = 1.0,
          lease_ttl: float = 10.0,
          expect_workers: int = 0,
          worker_wait: float = 10.0,
          chaos: Optional[str] = None) -> int:
    """CLI entry point: run the service until SIGINT/SIGTERM, then drain."""
    import os

    from repro.service.chaos import ChaosController
    from repro.service.workers import LeaseBroker
    from repro.telemetry.metrics import MetricsRegistry
    chaos_ctl = ChaosController.from_spec(chaos)
    journal = JobJournal(journal_path if journal_path is not None
                         else os.path.join(data_dir, "journal.jsonl"),
                         chaos=chaos_ctl)
    metrics = MetricsRegistry()
    broker = LeaseBroker(lease_ttl=lease_ttl, metrics=metrics)
    scheduler = JobScheduler(
        data_dir, max_concurrent=max_concurrent, journal=journal,
        default_workers=workers, metrics=metrics,
        broker=broker, expect_workers=expect_workers,
        worker_wait=worker_wait)
    service = CampaignService(scheduler, host=host, port=port,
                              stream_interval=stream_interval,
                              chaos=chaos_ctl)
    asyncio.run(_serve_async(service))
    return 0
