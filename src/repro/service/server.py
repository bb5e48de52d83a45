"""Stdlib-only HTTP front end: simulation-as-a-service.

:class:`ReproService` wires the three serving pieces together — the
content-addressed :class:`~repro.service.cache.ResultCache`, the
priority :class:`~repro.service.scheduler.JobScheduler`, and a
``ThreadingHTTPServer`` speaking a small JSON API:

========  ==============  ====================================================
method    path            behaviour
========  ==============  ====================================================
POST      ``/submit``     admit one job ``{"workload", "policy", ...}``;
                          returns its record (429 backlog, 503 closed)
POST      ``/batch``      admit ``{"jobs": [...]}`` independently; per-job
                          records or errors, never all-or-nothing
GET       ``/status/ID``  the job record, without the result payload
GET       ``/result/ID``  the result once terminal (202 while pending;
                          ``?wait=1&timeout=S`` blocks, capped server-side)
GET       ``/healthz``    liveness + version + uptime
GET       ``/metricsz``   scheduler / cache / server counter export
========  ==============  ====================================================

Everything is ``http.server`` + ``json`` — no third-party dependency,
per the repo's stdlib-only constraint.  One OS thread per in-flight
request (``ThreadingHTTPServer``) is plenty: the simulation work itself
is bounded by the scheduler's worker pool, and request handling is I/O.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro._version import __version__
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    ResultCache,
    UncacheableJob,
    cache_key,
)
from repro.service.journal import JobJournal
from repro.service.queue import DurableQueue
from repro.service.scheduler import (
    BacklogFull,
    JobScheduler,
    RateLimited,
    SchedulerClosed,
    TERMINAL_STATES,
    UnknownJob,
    job_from_dict,
    job_to_dict,
)
from repro.telemetry.metrics import CounterSet

#: Largest accepted request body; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Hard server-side cap on ``/result?wait=1`` blocking, seconds.
MAX_RESULT_WAIT = 120.0


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproService` (set as the
    ``service`` attribute of a per-service subclass)."""

    service: "ReproService"
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    # -- plumbing --------------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: D102 - silence default stderr spam
        pass

    def _reply(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)
        self.service.counters.inc("responses")
        if status >= 400:
            self.service.counters.inc(f"responses_{status}")

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body; expected a JSON object")
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes ----------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.service.counters.inc("requests")
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/healthz":
                self._reply(200, self.service.health())
            elif url.path == "/metricsz":
                self._reply(200, self.service.metrics())
            elif len(parts) == 2 and parts[0] == "status":
                self._reply(200, self.service.status_payload(parts[1]))
            elif len(parts) == 2 and parts[0] == "result":
                self._get_result(parts[1], parse_qs(url.query))
            else:
                self._reply(404, {"error": f"no route for {url.path!r}"})
        except UnknownJob as exc:
            self._reply(404, {"error": f"unknown job id {exc.args[0]!r}"})
        except Exception as exc:  # pragma: no cover - last-ditch 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _get_result(self, job_id: str, query: dict) -> None:
        wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
        timeout = min(
            float(query.get("timeout", [str(MAX_RESULT_WAIT)])[0]),
            MAX_RESULT_WAIT,
        )
        status, payload = self.service.result_payload(
            job_id, wait=wait, timeout=timeout
        )
        self._reply(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.service.counters.inc("requests")
        url = urlparse(self.path)
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        try:
            if url.path == "/submit":
                self._reply(200, self._admit(payload))
            elif url.path == "/batch":
                jobs = payload.get("jobs")
                if not isinstance(jobs, list):
                    raise ValueError("batch payload needs a 'jobs' array")
                self._reply(200, {"jobs": [self._admit_soft(j) for j in jobs]})
            else:
                self._reply(404, {"error": f"no route for {url.path!r}"})
        except (ValueError, KeyError) as exc:
            self._reply(400, {"error": str(exc)})
        except (BacklogFull, RateLimited) as exc:
            self._reply(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": int(exc.retry_after)},
            )
        except SchedulerClosed as exc:
            self._reply(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": int(exc.retry_after)},
            )
        except Exception as exc:  # pragma: no cover - last-ditch 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _admit(self, payload: dict) -> dict:
        return self.service.admit(payload)

    def _admit_soft(self, payload) -> dict:
        """Batch admission: one bad/rejected job never poisons the rest."""
        try:
            return self._admit(payload)
        except (ValueError, KeyError) as exc:
            return {"error": str(exc), "status": 400}
        except (BacklogFull, RateLimited) as exc:
            return {
                "error": str(exc),
                "status": 429,
                "retry_after": exc.retry_after,
            }
        except SchedulerClosed as exc:
            return {
                "error": str(exc),
                "status": 503,
                "retry_after": exc.retry_after,
            }


class ReproService:
    """The composed serving stack: cache + scheduler + HTTP server.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`) — the test-friendly default.  Use :meth:`start` for
    a background server (tests, notebooks) or :meth:`serve_forever` for
    a foreground one (the ``python -m repro serve`` CLI).

    Two execution modes behind one API:

    * **single-node** (default): the PR-6 stack — in-process
      :class:`JobScheduler` on a supervised worker pool, WAL, quotas.
    * **fleet frontend** (``queue_dir=...``): the frontend is
      *stateless*.  Admission appends an intake record to the shared
      :class:`~repro.service.queue.DurableQueue`; execution happens on
      whatever ``python -m repro work`` nodes share the directory, and
      status/result reads come straight from the queue's durable state
      — so any frontend can answer for any job, and ``kill -9`` of a
      frontend loses nothing that was acknowledged.  ``/healthz`` and
      ``/metricsz`` grow a fleet view: nodes alive, queue lag, oldest
      unclaimed age, fenced-write rejections.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_max_bytes: int = DEFAULT_MAX_BYTES,
        workers: int = 2,
        max_backlog: int = 64,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.5,
        job_runner=None,
        journal_path: Optional[Union[str, Path]] = None,
        max_job_crashes: int = 2,
        heartbeat_timeout: float = 10.0,
        quota_rate: Optional[float] = None,
        quota_burst: float = 10.0,
        quotas: Optional[dict] = None,
        shed_watermark: float = 0.75,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        queue_dir: Optional[Union[str, Path]] = None,
        node_id: Optional[str] = None,
        lease_seconds: Optional[float] = None,
        fsync: bool = True,
    ) -> None:
        self.counters = CounterSet()
        self.cache = (
            ResultCache(cache_dir, max_bytes=cache_max_bytes)
            if cache_dir is not None
            else None
        )
        self.max_backlog = max_backlog
        self.queue: Optional[DurableQueue] = None
        self.scheduler: Optional[JobScheduler] = None
        self.journal: Optional[JobJournal] = None
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        if queue_dir is not None:
            self._init_frontend(
                queue_dir, node_id=node_id, lease_seconds=lease_seconds,
                max_job_crashes=max_job_crashes, fsync=fsync,
            )
        else:
            self._init_single_node(
                cache_dir=cache_dir, workers=workers,
                max_backlog=max_backlog, timeout=timeout,
                retries=retries, backoff=backoff,
                job_runner=job_runner, journal_path=journal_path,
                max_job_crashes=max_job_crashes,
                heartbeat_timeout=heartbeat_timeout, quota_rate=quota_rate,
                quota_burst=quota_burst, quotas=quotas,
                shed_watermark=shed_watermark,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
            )
        handler = type("_BoundHandler", (_ServiceHandler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self._started_at = time.time()
        self._serve_thread: Optional[threading.Thread] = None

    def _init_frontend(
        self,
        queue_dir: Union[str, Path],
        node_id: Optional[str],
        lease_seconds: Optional[float],
        max_job_crashes: int,
        fsync: bool,
    ) -> None:
        """Fleet-frontend mode: no scheduler, no WAL — the shared queue
        directory is the only durable state, so this process holds
        nothing a ``kill -9`` could lose."""
        from repro.service.queue import DEFAULT_LEASE_SECONDS

        self.queue = DurableQueue(
            queue_dir,
            node_id=node_id or f"frontend-{uuid.uuid4().hex[:8]}",
            lease_seconds=lease_seconds or DEFAULT_LEASE_SECONDS,
            max_job_crashes=max_job_crashes,
            fsync=fsync,
        )
        self._admit_lock = threading.Lock()
        self.recovery = {"recovered": 0}
        self.recovered = 0
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-frontend-heartbeat",
            daemon=True,
        )
        self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        interval = min(self.queue.node_ttl / 3.0, 2.0)
        while not self._hb_stop.is_set():
            try:
                self.queue.write_node("frontend", {
                    "requests": self.counters.snapshot().get("requests", 0),
                })
            except OSError:  # pragma: no cover - disk hiccup; retry next beat
                pass
            self._hb_stop.wait(interval)

    def _init_single_node(self, cache_dir, workers, max_backlog, timeout,
                          retries, backoff, job_runner, journal_path,
                          max_job_crashes, heartbeat_timeout, quota_rate,
                          quota_burst, quotas, shed_watermark,
                          breaker_threshold, breaker_cooldown) -> None:
        if journal_path is None and cache_dir is not None:
            journal_path = Path(cache_dir) / "jobs.wal"
        self.journal = (
            JobJournal(journal_path) if journal_path is not None else None
        )
        self.scheduler = JobScheduler(
            cache=self.cache,
            workers=workers,
            max_backlog=max_backlog,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            job_runner=job_runner,
            journal=self.journal,
            max_job_crashes=max_job_crashes,
            heartbeat_timeout=heartbeat_timeout,
            quota_rate=quota_rate,
            quota_burst=quota_burst,
            quotas=quotas,
            shed_watermark=shed_watermark,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        # Recovery before the first request lands: the WAL carries every
        # accepted-but-unfinished job across a hard crash or a drain.
        self.recovery = self.scheduler.recover_journal()
        self.recovered = self.recovery["recovered"]

    # -- lifecycle -------------------------------------------------------------------

    @property
    def address(self) -> tuple:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproService":
        """Serve in a daemon thread; returns self for chaining."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`stop` (or Ctrl-C)."""
        self.httpd.serve_forever()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> dict:
        """Stop the HTTP listener, then shut the scheduler down.

        The listener closes first so no request can be accepted after
        the scheduler stops admissions; then the scheduler completes the
        backlog or leaves it retryable (see :meth:`JobScheduler.shutdown`).
        """
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self.queue is not None:
            self._hb_stop.set()
            if self._hb_thread is not None:
                self._hb_thread.join(timeout=5.0)
            self.queue.write_node("frontend", {"stopped": True})
            return {"mode": "frontend"}
        return self.scheduler.shutdown(drain=drain, timeout=timeout)

    # -- admission (both modes) ------------------------------------------------------

    def admit(self, payload: dict) -> dict:
        """Validate and admit one submission payload; returns the job
        record dict the HTTP layer serves back."""
        job = job_from_dict(payload)
        priority = int(payload.get("priority") or 0)
        tenant = payload.get("tenant") or "default"
        if not isinstance(tenant, str):
            raise ValueError("tenant must be a string")
        token = payload.get("token")
        if token is not None and not isinstance(token, str):
            raise ValueError("token must be a string")
        if self.queue is not None:
            return self._queue_admit(job, priority, tenant, token)
        record = self.scheduler.submit(
            job, priority=priority, tenant=tenant, token=token
        )
        return record.to_dict(include_result=False)

    def _queue_admit(self, job, priority: int, tenant: str,
                     token: Optional[str]) -> dict:
        try:
            key = cache_key(job)
        except UncacheableJob:
            key = None
        with self._admit_lock:
            if token is not None:
                existing = self.queue.find_token(token)
                if existing is not None:
                    self.counters.inc("token_dedup")
                    return self._queue_record(existing, include_result=False)
            if self.queue.pending_count() >= self.max_backlog:
                self.counters.inc("rejected_backlog")
                raise BacklogFull(
                    f"queue backlog full (>= {self.max_backlog} unclaimed); "
                    f"retry once the fleet drains",
                    retry_after=5.0,
                )
            # Warm-cache fast path — committed under a fresh id so *any*
            # frontend can serve the result (frontends stay stateless).
            # The envelope lands before the intake record: a node's scan
            # reads segments before results, so it never sees this job
            # unsettled and cannot settle it from a committed twin first.
            job_id = None
            if key is not None and self.cache is not None:
                try:
                    hit = self.cache.get(key)
                except Exception:
                    hit = None
                if hit is not None:
                    self.counters.inc("cache_hits")
                    job_id = self.queue.next_id()
                    self.queue.commit_unclaimed(
                        job_id, hit.to_dict(), state="done", key=key,
                        cached=True,
                    )
            entry = self.queue.append(
                job_to_dict(job, priority, tenant),
                priority=priority, tenant=tenant, token=token, key=key,
                job_id=job_id,
            )
            return self._queue_record(entry.id, include_result=False)

    # -- lookups (both modes) --------------------------------------------------------

    def status_payload(self, job_id: str) -> dict:
        if self.queue is not None:
            return self._queue_record(job_id, include_result=False)
        return self.scheduler.record(job_id).to_dict(include_result=False)

    def result_payload(
        self, job_id: str, wait: bool, timeout: float
    ) -> Tuple[int, dict]:
        """(status code, payload) for ``GET /result/ID``: 200 with the
        result once terminal, 202 with the bare record while pending."""
        if self.queue is not None:
            record = self._queue_record(job_id, include_result=False)
            if record["state"] not in TERMINAL_STATES and wait:
                self.queue.wait_settled(job_id, timeout=timeout)
                record = self._queue_record(job_id, include_result=False)
            if record["state"] not in TERMINAL_STATES:
                return 202, record
            return 200, self._queue_record(job_id, include_result=True)
        self.scheduler.result(job_id, wait=wait, timeout=timeout)
        record = self.scheduler.record(job_id)
        if not record.terminal:
            return 202, record.to_dict(include_result=False)
        return 200, record.to_dict(include_result=True)

    def _queue_record(self, job_id: str, include_result: bool) -> dict:
        """A job record dict, in the same shape ``JobRecord.to_dict``
        serves, built from the queue's durable state."""
        info = self.queue.lookup(job_id)
        if info is None:
            raise UnknownJob(job_id)
        record = {
            "id": job_id,
            "state": info["state"],
            "cached": bool(info.get("cached")),
            "deduped": bool(info.get("deduped")),
            "tenant": info.get("tenant", "default"),
            "priority": info.get("priority", 0),
            "node": info.get("node"),
            "epoch": info.get("epoch", 0),
            "submitted_at": info.get("submitted_at"),
            "finished_at": info.get("finished_at"),
        }
        if include_result:
            envelope = self.queue.read_result(job_id)
            record["result"] = (
                envelope.get("result") if envelope is not None else None
            )
        return record

    # -- payload builders ------------------------------------------------------------

    def health(self) -> dict:
        payload = {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self._started_at, 3),
            "recovered_jobs": self.recovered,
            "mode": "frontend" if self.queue is not None else "single",
        }
        if self.queue is not None:
            queue_metrics = self.queue.metrics()
            fleet = self.queue.fleet()
            payload.update(
                queue_depth=queue_metrics["pending"],
                queue_running=queue_metrics["running"],
                oldest_unclaimed_age_s=queue_metrics[
                    "oldest_unclaimed_age_s"
                ],
                nodes_alive=fleet["nodes_alive"],
                workers_alive=fleet["workers_alive"],
                frontends_alive=fleet["frontends_alive"],
                fenced_rejections=fleet["totals"].get(
                    "fenced_rejections", 0
                ),
            )
            return payload
        scheduler = self.scheduler
        payload.update(
            pool=scheduler.pool,
            queue_depth=scheduler._queued,
            breaker=scheduler.cache_breaker.state,
        )
        if scheduler._pool is not None:
            payload["workers_alive"] = scheduler._pool.alive_count()
            payload["workers"] = scheduler._pool.size
        if self.journal is not None:
            payload["wal_pending"] = self.journal.pending_count()
            payload["wal_bytes"] = self.journal.size_bytes()
        return payload

    def metrics(self) -> dict:
        payload = {
            "version": __version__,
            "server": self.counters.snapshot(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        if self.queue is not None:
            payload["queue"] = self.queue.metrics()
            payload["fleet"] = self.queue.fleet()
        else:
            payload["scheduler"] = self.scheduler.metrics()
        return payload
