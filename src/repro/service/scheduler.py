"""Priority job scheduler: admission control for simulation work.

The paper treats the issue queue as a resource worth explicit priority
policy; this module applies the same discipline to the repo's own
workload.  Jobs (sweep cells, :class:`~repro.sim.harness.SweepJob`) are
admitted into a bounded backlog, ordered by caller priority (ties
FIFO), and executed by a worker pool — by default a **supervised
multi-process pool** (:mod:`repro.service.supervisor`) whose workers
are heartbeat-monitored, restarted on crash or hang, and whose
in-flight jobs are requeued (or quarantined as poison after
``max_job_crashes`` worker losses) instead of being lost.  A
``pool="thread"`` mode runs jobs on in-process worker threads, for
deterministic tests and for callers that inject a ``job_runner``.

Queueing behaviours, in the order a submission meets them:

* **Per-tenant admission** — optional token-bucket quotas
  (:class:`TokenBucket`): a tenant over its rate is rejected with
  :class:`RateLimited` carrying a ``retry_after`` hint (HTTP 429 +
  ``Retry-After``), per Kawahara et al.'s case for principled admission
  control at a bounded buffer (arXiv:1207.5959).
* **Single-flight deduplication** — a submission whose content address
  (:func:`repro.service.cache.cache_key`) matches an in-flight job does
  not enqueue a second simulation; it attaches to the running one and
  receives the same result.  Combined with the result cache, N
  identical submissions cost exactly one simulation, ever.
* **Priority-aware shedding and backpressure** — past a configurable
  occupancy watermark, non-positive-priority jobs are shed early so the
  remaining headroom serves urgent work; when the backlog is full,
  :meth:`JobScheduler.submit` raises :class:`BacklogFull` immediately
  instead of queueing unbounded work.  Both map to HTTP 429.
* **Durable accept** — with a :class:`~repro.service.journal.JobJournal`
  attached, every queued job is journaled *before* it becomes runnable
  and tombstoned when terminal, so a hard crash (not just a graceful
  drain) recovers every accepted-but-unfinished job on restart
  (:meth:`JobScheduler.recover_journal`).
* **Cache circuit breaker** — cache backend failures trip a
  :class:`~repro.service.cache.CircuitBreaker`; while it is open the
  scheduler degrades to compute-and-return (skip the cache entirely)
  instead of erroring requests.

Graceful drain (:meth:`JobScheduler.shutdown`) still exists on top of
the journal: it completes what it can within the timeout and marks the
rest — including, under the process pool, *in-flight* jobs — as
``retryable``; the journal carries them to the next start.  Accepted
work is never silently dropped.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.config import get_config
from repro.service.cache import (
    CircuitBreaker,
    ResultCache,
    UncacheableJob,
    cache_key,
)
from repro.service.journal import JobJournal
from repro.service.supervisor import POLL_INTERVAL, ProcessWorkerPool
from repro.sim.harness import (
    CellResult,
    SweepJob,
    _run_job,
    run_job_with_retries,
)
from repro.sim.results import FailedResult
from repro.telemetry.metrics import CounterSet
from repro.telemetry.profile import RateMeter

#: Terminal job states (the only states carrying a result).
TERMINAL_STATES = ("done", "failed", "quarantined")

#: Every state a job record can be in.
JOB_STATES = ("queued", "running", "retryable") + TERMINAL_STATES

#: Default worker losses a single job may cause before quarantine.
DEFAULT_MAX_JOB_CRASHES = 2

#: Default backlog occupancy past which priority<=0 jobs are shed.
DEFAULT_SHED_WATERMARK = 0.75


class BacklogFull(RuntimeError):
    """The bounded backlog rejected the job; resubmit later (HTTP 429)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RateLimited(RuntimeError):
    """The tenant is over its admission quota (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SchedulerClosed(RuntimeError):
    """The scheduler is shutting down and admits no new work (HTTP 503)."""

    retry_after = 5.0


class UnknownJob(KeyError):
    """No record exists for the requested job id (HTTP 404)."""


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Thread-safe under the caller's lock (the scheduler holds its
    condition while admitting).  :meth:`try_take` returns 0.0 on
    success or the seconds until a token will be available.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("need rate > 0 and burst >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_take(self) -> float:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


def job_to_dict(job: SweepJob, priority: int = 0, tenant: str = "default") -> dict:
    """Wire/journal form of a job: named workload + named config only."""
    return {
        "workload": job.workload_name,
        "policy": job.policy,
        "config": job.config.name,
        "num_instructions": job.num_instructions,
        "seed": job.seed,
        "max_cycles": job.max_cycles,
        "warmup_instructions": job.warmup_instructions,
        "fast": job.fast,
        "priority": priority,
        "tenant": tenant,
    }


def job_from_dict(data: dict) -> SweepJob:
    """Rebuild a :class:`SweepJob` from :func:`job_to_dict` output.

    Raises ``ValueError``/``KeyError`` for malformed payloads — the
    HTTP layer maps these to 400, journal recovery skips them.
    """
    if not isinstance(data, dict):
        raise ValueError("job payload must be a JSON object")
    workload = data["workload"]
    if not isinstance(workload, str):
        raise ValueError("workload must be a profile name")
    from repro.core.factory import IQ_POLICIES
    from repro.workloads.spec2017 import SPEC2017_PROFILES

    if workload not in SPEC2017_PROFILES:
        raise ValueError(
            f"unknown workload {workload!r}; "
            f"available: {sorted(SPEC2017_PROFILES)}"
        )
    policy = data.get("policy")
    if policy not in IQ_POLICIES:
        raise ValueError(
            f"unknown IQ policy {policy!r}; choose from {IQ_POLICIES}"
        )
    for budget in ("num_instructions", "seed", "max_cycles",
                   "warmup_instructions"):
        value = data.get(budget)
        if value is not None and not isinstance(value, int):
            raise ValueError(f"{budget} must be an integer (or null)")
    fast = data.get("fast", False)
    if not isinstance(fast, bool):
        raise ValueError("fast must be a boolean")
    return SweepJob(
        workload=workload,
        policy=data["policy"],
        config=get_config(data.get("config") or "medium"),
        num_instructions=data.get("num_instructions") or 30_000,
        seed=data.get("seed"),
        max_cycles=data.get("max_cycles"),
        warmup_instructions=data.get("warmup_instructions"),
        fast=fast,
    )


@dataclass
class JobRecord:
    """One accepted submission and everything a client may ask about it."""

    id: str
    job: SweepJob
    priority: int = 0
    tenant: str = "default"
    state: str = "queued"
    #: Served straight from the warm cache, no queueing at all.
    cached: bool = False
    #: Attached to an identical in-flight job (single-flight).
    deduped: bool = False
    key: Optional[str] = None           # content address (None: uncacheable)
    result: Optional[CellResult] = None
    #: Worker losses (crash/hang/timeout) this job has caused so far.
    crashes: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_result: bool = False) -> dict:
        payload = {
            "id": self.id,
            "job": job_to_dict(self.job, self.priority, self.tenant),
            "state": self.state,
            "cached": self.cached,
            "deduped": self.deduped,
            "tenant": self.tenant,
            "crashes": self.crashes,
            "key": self.key,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if include_result:
            payload["result"] = (
                self.result.to_dict() if self.result is not None else None
            )
        return payload


class JobScheduler:
    """Priority scheduler over a supervised (or thread) worker pool."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: int = 2,
        max_backlog: int = 64,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.5,
        counters: Optional[CounterSet] = None,
        job_runner: Optional[Callable] = None,
        pool: Optional[str] = None,
        journal: Optional[Union[JobJournal, str, Path]] = None,
        max_job_crashes: int = DEFAULT_MAX_JOB_CRASHES,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 10.0,
        quota_rate: Optional[float] = None,
        quota_burst: float = 10.0,
        quotas: Optional[Dict[str, Dict[str, float]]] = None,
        shed_watermark: float = DEFAULT_SHED_WATERMARK,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_backlog < 1:
            raise ValueError("max_backlog must be positive")
        if not (0.0 < shed_watermark <= 1.0):
            raise ValueError("shed_watermark must be in (0, 1]")
        if pool is None:
            # A custom job_runner is an in-process test instrument; its
            # shared state cannot cross a fork boundary back to the
            # parent, so it implies the in-process thread pool unless
            # the caller forces pool="process" (chaos tests do).
            pool = "thread" if job_runner is not None else "process"
        if pool not in ("thread", "process"):
            raise ValueError(f"unknown pool {pool!r}; use 'thread' or 'process'")
        self.cache = cache
        self.cache_breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self.max_backlog = max_backlog
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.pool = pool
        self.max_job_crashes = max_job_crashes
        self.shed_watermark = shed_watermark
        self.journal = (
            journal
            if isinstance(journal, JobJournal) or journal is None
            else JobJournal(journal)
        )
        # Pre-seeded so /metricsz always exports the full key set, even
        # for counters that have never fired.
        self.counters = counters if counters is not None else CounterSet(
            submitted=0,
            completed=0,
            failed=0,
            cache_hits=0,
            deduped=0,
            rejected_backlog=0,
            rejected_closed=0,
            rate_limited=0,
            shed=0,
            spilled=0,
            recovered=0,
            requeued=0,
            quarantined=0,
            cache_bypass=0,
            cache_errors=0,
        )
        self.meter = RateMeter()
        self._job_runner = job_runner if job_runner is not None else _run_job
        self._avg_job_seconds: Optional[float] = None

        # Per-tenant token buckets: explicit quotas first, then a
        # default-rate bucket per new tenant (None = unlimited).
        self._quota_rate = quota_rate
        self._quota_burst = quota_burst
        self._buckets: Dict[str, TokenBucket] = {}
        for tenant, spec in (quotas or {}).items():
            self._buckets[tenant] = TokenBucket(
                rate=float(spec["rate"]),
                burst=float(spec.get("burst", quota_burst)),
            )
        self._tenants: Dict[str, Dict[str, int]] = {}

        self._cond = threading.Condition()
        self._records: Dict[str, JobRecord] = {}
        self._heap: List[tuple] = []        # (-priority, seq, job_id)
        self._seq = 0
        # Ids must be unique across process lifetimes, not just within
        # one: the WAL is keyed by id across restarts, and a recovered
        # job re-accepted under a recycled id would be tombstoned by the
        # dead job's record_done — losing it on the next crash.
        self._run_nonce = uuid.uuid4().hex[:8]
        self._queued = 0
        self._running = 0
        self._inflight: Dict[str, str] = {}     # cache key -> primary job id
        self._followers: Dict[str, List[str]] = {}  # primary id -> dedup ids
        # Client idempotency tokens -> job ids, bounded FIFO.  A POST
        # retried after a dropped response replays the same token and
        # gets the original record back instead of a second enqueue.
        self._tokens: Dict[str, str] = {}
        self._closed = False
        self._halt = False
        self._pool: Optional[ProcessWorkerPool] = None
        if pool == "process":
            self._pool = ProcessWorkerPool(
                size=workers,
                job_runner=job_runner,
                retries=retries,
                backoff=backoff,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
                job_timeout=timeout,
            ).start()
            self._workers = [
                threading.Thread(
                    target=self._supervise_loop,
                    name="repro-supervisor",
                    daemon=True,
                )
            ]
        else:
            self._workers = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-worker-{i}",
                    daemon=True,
                )
                for i in range(workers)
            ]
        for thread in self._workers:
            thread.start()

    # -- admission -------------------------------------------------------------------

    def submit(
        self,
        job: SweepJob,
        priority: int = 0,
        tenant: str = "default",
        token: Optional[str] = None,
        _internal: bool = False,
    ) -> JobRecord:
        """Admit one job; returns its record (possibly already terminal).

        The fast paths never enqueue anything: a warm cache entry comes
        back as an already-``done`` record (``cached=True``), and a
        submission identical to an in-flight job attaches to it
        (``deduped=True``).  Otherwise the job passes admission control
        (tenant quota, shed watermark, backlog bound), is journaled as
        accepted, and joins the priority backlog.  ``_internal`` marks
        recovery resubmissions, which bypass quota and shedding —
        already-accepted work is re-admitted, not re-negotiated.
        """
        try:
            key = cache_key(job)
        except UncacheableJob:
            key = None
        with self._cond:
            if self._closed:
                self.counters.inc("rejected_closed")
                raise SchedulerClosed("scheduler is shutting down")
            if token is not None:
                existing = self._tokens.get(token)
                if existing is not None and existing in self._records:
                    self.counters.inc("token_dedup")
                    return self._records[existing]
            self.counters.inc("submitted")
            tstats = self._tenants.setdefault(
                tenant, {"submitted": 0, "rate_limited": 0, "shed": 0}
            )
            tstats["submitted"] += 1
            record = JobRecord(
                id=self._next_id(), job=job, priority=priority,
                tenant=tenant, key=key,
            )
            if key is not None:
                cached = self._cache_get(key)
                if cached is not None:
                    record.state = "done"
                    record.cached = True
                    record.result = cached
                    record.finished_at = time.time()
                    self.counters.inc("cache_hits")
                    self._records[record.id] = record
                    self._remember_token(token, record.id)
                    return record
            if key is not None and key in self._inflight:
                primary_id = self._inflight[key]
                primary = self._records[primary_id]
                record.deduped = True
                if primary.terminal:  # pragma: no cover - settle clears map
                    record.state = primary.state
                    record.result = primary.result
                    record.finished_at = time.time()
                else:
                    self._followers.setdefault(primary_id, []).append(record.id)
                self.counters.inc("deduped")
                self._records[record.id] = record
                self._remember_token(token, record.id)
                return record
            if not _internal:
                self._check_admission(tenant, tstats, priority)
            if self._queued >= self.max_backlog:
                self.counters.inc("rejected_backlog")
                raise BacklogFull(
                    f"backlog full ({self._queued} queued >= "
                    f"{self.max_backlog}); retry after the queue drains",
                    retry_after=self._retry_after_hint(),
                )
            self._records[record.id] = record
            self._remember_token(token, record.id)
            if key is not None:
                self._inflight[key] = record.id
            if self.journal is not None:
                self.journal.record_accept(
                    record.id,
                    job_to_dict(job, priority, tenant),
                    priority=priority,
                    tenant=tenant,
                )
            self._enqueue_locked(record)
            return record

    def _check_admission(
        self, tenant: str, tstats: Dict[str, int], priority: int
    ) -> None:
        """Front-door overload protection: quota, then shed watermark."""
        bucket = self._buckets.get(tenant)
        if bucket is None and self._quota_rate is not None:
            bucket = TokenBucket(self._quota_rate, self._quota_burst)
            self._buckets[tenant] = bucket
        if bucket is not None:
            wait = bucket.try_take()
            if wait > 0.0:
                self.counters.inc("rate_limited")
                tstats["rate_limited"] += 1
                raise RateLimited(
                    f"tenant {tenant!r} is over its admission quota "
                    f"({bucket.rate:g}/s, burst {bucket.burst:g})",
                    retry_after=max(1.0, math.ceil(wait)),
                )
        if (
            priority <= 0
            and self._queued >= self.shed_watermark * self.max_backlog
        ):
            self.counters.inc("shed")
            tstats["shed"] += 1
            raise BacklogFull(
                f"load shedding: backlog at {self._queued}/"
                f"{self.max_backlog}, above the "
                f"{self.shed_watermark:.0%} watermark; only priority > 0 "
                f"submissions are admitted",
                retry_after=self._retry_after_hint(),
            )

    def _retry_after_hint(self) -> float:
        """Crude Retry-After estimate: backlog drain time at the recent
        per-job pace, clamped to [1, 60] seconds."""
        per_job = self._avg_job_seconds or 1.0
        workers = max(1, len(self._workers) if self._pool is None
                      else self._pool.size)
        estimate = (self._queued + self._running) * per_job / workers
        return float(min(60, max(1, math.ceil(estimate))))

    def _enqueue_locked(self, record: JobRecord) -> None:
        """Push a queued record onto the heap (caller holds the lock)."""
        record.state = "queued"
        self._seq += 1
        heapq.heappush(self._heap, (-record.priority, self._seq, record.id))
        self._queued += 1
        self.counters.set_gauge("queue_depth", self._queued)
        self._cond.notify()

    def submit_batch(self, jobs, priority: int = 0, tenant: str = "default") -> List[JobRecord]:
        """Admit several jobs; all-or-nothing is NOT guaranteed — each
        job is admitted independently (callers see per-job rejections)."""
        return [self.submit(job, priority=priority, tenant=tenant) for job in jobs]

    def _next_id(self) -> str:
        self._seq += 1
        return f"j{self._run_nonce}-{self._seq:06d}"

    #: Bound on the idempotency-token map; tokens guard the retry window
    #: of one POST (seconds), so a FIFO of the last few thousand is ample.
    MAX_TOKENS = 4096

    def _remember_token(self, token: Optional[str], job_id: str) -> None:
        """Map an idempotency token to its admitted job (caller holds
        the lock); only paths that stored a record may register one —
        a rejected submission must stay retryable under its token."""
        if token is None:
            return
        while len(self._tokens) >= self.MAX_TOKENS:
            self._tokens.pop(next(iter(self._tokens)))
        self._tokens[token] = job_id

    # -- cache access through the circuit breaker ------------------------------------

    def _cache_get(self, key: str) -> Optional[CellResult]:
        """Cache read that degrades instead of erroring: a failing
        backend trips the breaker, and an open breaker is a miss."""
        if self.cache is None:
            return None
        if not self.cache_breaker.allow():
            self.counters.inc("cache_bypass")
            return None
        try:
            result = self.cache.get(key)
        except Exception:
            self.counters.inc("cache_errors")
            self.cache_breaker.failure()
            return None
        self.cache_breaker.success()
        return result

    def _cache_put(self, key: str, result: CellResult, job: SweepJob) -> None:
        """Cache write with the same degrade-not-error contract: while
        the breaker is open the result is returned uncached."""
        if self.cache is None:
            return
        if not self.cache_breaker.allow():
            self.counters.inc("cache_bypass")
            return
        try:
            self.cache.put(key, result, job)
        except Exception:
            self.counters.inc("cache_errors")
            self.cache_breaker.failure()
            return
        self.cache_breaker.success()

    # -- lookup ----------------------------------------------------------------------

    def record(self, job_id: str) -> JobRecord:
        with self._cond:
            try:
                return self._records[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def result(
        self,
        job_id: str,
        wait: bool = False,
        timeout: Optional[float] = None,
    ) -> Optional[CellResult]:
        """The job's result, or None while it is still pending.

        ``wait=True`` blocks until the record turns terminal (bounded by
        ``timeout`` seconds, if given).
        """
        deadline = (
            time.monotonic() + timeout
            if (wait and timeout is not None)
            else None
        )
        with self._cond:
            record = self.record(job_id)
            while wait and not record.terminal:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(timeout=remaining)
            return record.result

    # -- execution: thread pool (in-process, deterministic tests) --------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._halt and not self._closed:
                    self._cond.wait()
                if self._halt or (self._closed and not self._heap):
                    return
                _, _, job_id = heapq.heappop(self._heap)
                record = self._records[job_id]
                if record.state != "queued":  # made retryable while queued
                    continue
                record.state = "running"
                record.started_at = time.time()
                self._queued -= 1
                self._running += 1
                self.counters.set_gauge("queue_depth", self._queued)
            # The same retry loop the process workers run; it never raises.
            result = run_job_with_retries(
                record.job,
                retries=self.retries,
                backoff=self.backoff,
                job_runner=self._job_runner,
            )
            with self._cond:
                self._running -= 1
                self._settle(record, result)

    # -- execution: supervised process pool ------------------------------------------

    def _supervise_loop(self) -> None:
        """Dispatch queued jobs to the pool and absorb its events:
        results settle, worker losses requeue or quarantine.

        The loop itself must be unkillable: an unexpected error in one
        pass is counted and survived, because a dead supervisor wedges
        every queued job forever.
        """
        while True:
            try:
                with self._cond:
                    if self._halt:
                        return
                    self._dispatch_locked()
                events = self._pool.poll()
                if events:
                    with self._cond:
                        for event in events:
                            self._handle_pool_event(event)
                else:
                    time.sleep(POLL_INTERVAL)
            except Exception:  # pragma: no cover - defense in depth
                self.counters.inc("supervisor_errors")
                time.sleep(POLL_INTERVAL)

    def _dispatch_locked(self) -> None:
        while self._heap and self._pool.idle_workers() > 0:
            neg, seq, job_id = heapq.heappop(self._heap)
            record = self._records[job_id]
            if record.state != "queued":  # retryable/quarantined while queued
                continue
            if not self._pool.dispatch(job_id, record.job):
                heapq.heappush(self._heap, (neg, seq, job_id))
                return
            record.state = "running"
            record.started_at = time.time()
            self._queued -= 1
            self._running += 1
            self.counters.set_gauge("queue_depth", self._queued)

    def _handle_pool_event(self, event: tuple) -> None:
        if event[0] == "result":
            _, job_id, _job, result = event
            record = self._records[job_id]
            self._running -= 1
            self._settle(record, result)
            return
        _, job_id, _job, kind, message = event
        record = self._records[job_id]
        self._running -= 1
        record.crashes += 1
        if record.crashes > self.max_job_crashes:
            self._quarantine(record, kind, message)
        else:
            self.counters.inc("requeued")
            self._enqueue_locked(record)

    def _quarantine(self, record: JobRecord, kind: str, message: str) -> None:
        """A poison job: crashed ``max_job_crashes + 1`` workers.  Stop
        retrying — settle it as ``quarantined`` with a FailedResult and
        tombstone it in the journal so recovery never resurrects it."""
        result = FailedResult(
            workload=record.job.workload_name,
            policy=str(record.job.policy),
            config=record.job.config.name,
            error_type="PoisonJob",
            error_message=(
                f"quarantined after crashing {record.crashes} workers "
                f"(last loss: {kind}: {message})"
            ),
            attempts=record.crashes,
        )
        self.counters.inc("quarantined")
        self._finalize(record, result, "quarantined")
        if self.journal is not None:
            self.journal.record_quarantine(record.id, f"{kind}: {message}")

    # -- settlement ------------------------------------------------------------------

    def _settle(self, record: JobRecord, result: CellResult) -> None:
        """Publish a finished job to its record and every dedup follower."""
        self.counters.inc("completed" if result.ok else "failed")
        if record.started_at is not None:
            duration = max(0.0, time.time() - record.started_at)
            self._avg_job_seconds = (
                duration
                if self._avg_job_seconds is None
                else 0.8 * self._avg_job_seconds + 0.2 * duration
            )
        if result.ok:
            self.meter.add(result.stats.cycles, result.stats.committed)
            if record.key is not None:
                self._cache_put(record.key, result, record.job)
        self._finalize(record, result, "done" if result.ok else "failed")
        if self.journal is not None:
            self.journal.record_done(record.id)

    def _finalize(self, record: JobRecord, result: CellResult, state: str) -> None:
        record.result = result
        record.state = state
        record.finished_at = time.time()
        if record.key is not None:
            self._inflight.pop(record.key, None)
        for follower_id in self._followers.pop(record.id, []):
            follower = self._records[follower_id]
            follower.result = result
            follower.state = state
            follower.finished_at = record.finished_at
        self._cond.notify_all()

    # -- shutdown and drain ----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no work is queued or running; True if fully drained."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._cond:
            while self._queued or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
            return True

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> dict:
        """Stop admissions and bring the pool down; returns a summary.

        ``drain=True`` completes every accepted job first (bounded by
        ``timeout``).  Whatever is still *queued* when the bound expires
        — or everything queued, with ``drain=False`` — is marked
        ``retryable``; its journaled accept carries it to the next start.
        Under the process pool, still-*running* jobs are made retryable
        the same way and their workers killed; under the thread pool,
        running jobs are always allowed to finish (threads cannot be
        killed).  With a journal attached an accepted job completes or
        persists; it is never lost.  The summary's ``spilled`` counts
        the jobs left retryable.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        drained = self.drain(timeout=timeout) if drain else False
        spilled = 0
        if not drained:
            spilled = self._spill_queued()
        with self._cond:
            self._halt = True
            self._cond.notify_all()
        for thread in self._workers:
            thread.join()
        if self._pool is not None:
            spilled += self._spill_running()
            self._pool.stop(kill_busy=True)
        if self.journal is not None:
            self.journal.compact()
        self.counters.inc("shutdowns")
        return {"drained": drained, "spilled": spilled}

    def _spill_queued(self) -> int:
        """Persist still-queued jobs as retryable records."""
        with self._cond:
            victims = []
            for entry in self._heap:
                record = self._records[entry[2]]
                if record.state == "queued":
                    record.state = "retryable"
                    victims.append(record)
            self._heap.clear()
            self._queued = 0
            self.counters.set_gauge("queue_depth", 0)
            self._cond.notify_all()
        self.counters.inc("spilled", len(victims))
        return len(victims)

    def _spill_running(self) -> int:
        """Mark in-flight jobs retryable (process pool shutdown: their
        workers are about to be killed).  Call after the supervision
        thread has stopped."""
        with self._cond:
            victims = [
                record
                for record in self._records.values()
                if record.state == "running"
            ]
            for record in victims:
                record.state = "retryable"
            self._running = 0
            self._cond.notify_all()
        self.counters.inc("spilled", len(victims))
        return len(victims)

    # -- recovery --------------------------------------------------------------------

    def recover_journal(self) -> dict:
        """Re-admit every accepted-but-unfinished job from the journal.

        Replays the WAL (tolerating torn trailing records), resubmits
        each pending job under a fresh id, and only then tombstones the
        old accept — a crash mid-recovery yields duplicates (collapsed
        by dedup/cache), never loss.  Returns a summary dict.
        """
        if self.journal is None:
            return {"recovered": 0, "quarantined": 0, "torn": 0, "skipped": 0}
        pending, quarantined, torn = self.journal.recover()
        recovered = skipped = 0
        for entry in pending:
            try:
                job = job_from_dict(entry["job"])
                priority = int(entry.get("priority") or 0)
                tenant = str(entry.get("tenant") or "default")
            except (ValueError, KeyError, TypeError):
                skipped += 1
                self.counters.inc("journal_corrupt_entries")
                self.journal.record_done(entry["id"])
                continue
            try:
                self.submit(job, priority=priority, tenant=tenant,
                            _internal=True)
            except BacklogFull:
                # Leave the accept pending: it stays journaled and will
                # be recovered by a later (larger-backlog) restart.
                skipped += 1
                continue
            self.journal.record_done(entry["id"])
            recovered += 1
        self.counters.inc("recovered", recovered)
        return {
            "recovered": recovered,
            "quarantined": len(quarantined),
            "torn": torn,
            "skipped": skipped,
        }

    # -- introspection ---------------------------------------------------------------

    def worker_pids(self) -> List[int]:
        """PIDs of the process-pool workers ([] under the thread pool)."""
        return self._pool.pids() if self._pool is not None else []

    def metrics(self) -> dict:
        """Scheduler counters + live gauges (for ``/metricsz``)."""
        with self._cond:
            snapshot = self.counters.snapshot()
            snapshot.update(
                queued=self._queued,
                running=self._running,
                records=len(self._records),
                workers=(
                    self._pool.size if self._pool is not None
                    else len(self._workers)
                ),
                max_backlog=self.max_backlog,
                closed=self._closed,
                pool=self.pool,
                tenants={t: dict(s) for t, s in self._tenants.items()},
            )
        snapshot["simulated_cycles"] = self.meter.cycles
        snapshot["simulated_instructions"] = self.meter.instructions
        snapshot["cycles_per_sec"] = round(self.meter.cycles_per_sec, 1)
        snapshot["breaker"] = self.cache_breaker.stats()
        if self._pool is not None:
            snapshot["worker_pool"] = self._pool.stats()
            snapshot["worker_pids"] = self._pool.pids()
        if self.journal is not None:
            snapshot["wal"] = self.journal.stats()
        return snapshot
