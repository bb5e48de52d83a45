"""Fault-tolerant experiment harness: isolated workers, retry, resume.

Large sweeps (all SPEC2017 profiles x IQ policies x configs) must survive
individual-run failure the way SWQUE survives wrap-around priority
inversion: detect, correct, and keep issuing.  This module runs
(workload, policy, config, seed) :class:`SweepJob` cells through either

* an ``"inline"`` executor — sequential, in-process, with a shared trace
  cache so every policy of a workload sees the identical instruction
  stream (the :func:`repro.sim.runner.run_policies` fast path), or
* a ``"process"`` executor — the cells run on a
  :class:`~repro.service.supervisor.ProcessWorkerPool` of long-lived,
  heartbeat-monitored worker processes.  A worker that dies (segfault,
  OOM kill) is reported as ``WorkerCrashed``, one that stops beating
  (SIGSTOP, deadlock) as ``WorkerHung``, and one whose cell outlives the
  per-job wall-clock ``timeout`` as ``JobTimeout``; the pool kills and
  replaces the worker in every case.

Failures are data, not crashes: a cell that exhausts its retries becomes
a :class:`~repro.sim.results.FailedResult` carrying the exception class,
traceback, attempt count, and the partial
:class:`~repro.cpu.stats.PipelineStats` that divergence/invariant errors
attach — so a sweep always returns a complete per-cell results map.
Transient failures (divergence under a tight cycle budget, a lost
worker) are retried up to ``retries`` times with exponential backoff.

With ``checkpoint=<path>``, every finished cell is appended to a
JSON-lines file as it completes; re-running the same sweep with
``resume=True`` restores finished cells from the file and executes only
the unfinished ones, so a killed sweep loses at most the in-flight jobs.
A torn final line (the sweep was killed mid-write) is skipped, not fatal.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time
import traceback
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import MEDIUM, ProcessorConfig
from repro.core.factory import IQ_POLICIES
from repro.sim.faults import FaultSpec
from repro.sim.results import (
    FailedResult,
    SimResult,
    result_from_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.sim.simulator import DEFAULT_INSTRUCTIONS, simulate
from repro.verify.snapshot import write_bytes_atomic

CellResult = Union[SimResult, FailedResult]

#: Error types retried by default: these depend on the cycle budget,
#: wall-clock budget, or the health of one worker process, so a clean
#: re-run (possibly after backoff) can succeed.
TRANSIENT_ERRORS = ("SimulationDiverged", "JobTimeout", "WorkerCrashed",
                    "WorkerHung")


class SweepFailed(RuntimeError):
    """Raised in ``fail_fast`` mode when a cell fails permanently."""

    def __init__(self, failure: FailedResult) -> None:
        super().__init__(
            f"sweep cell {failure.workload}/{failure.policy} failed "
            f"[{failure.error_type}]: {failure.error_message}"
        )
        self.failure = failure


# -- jobs ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepJob:
    """One sweep cell: everything needed to (re)run a single simulation."""

    workload: object  # benchmark name, WorkloadProfile, or Trace
    policy: str
    config: ProcessorConfig = MEDIUM
    num_instructions: int = DEFAULT_INSTRUCTIONS
    seed: Optional[int] = None
    max_cycles: Optional[int] = None
    warmup_instructions: Optional[int] = None
    #: Chaos testing: inject this fault into the run (picklable spec).
    fault: Optional[FaultSpec] = None
    #: Run on the fast engine (proven equivalent; see Pipeline._fast_forward).
    fast: bool = False

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, str):
            return self.workload
        return getattr(self.workload, "name", None) or "custom"

    @property
    def key(self) -> str:
        """Stable cell identity — the checkpoint/resume join key."""
        key = (
            f"{self.workload_name}|{self.policy}|{self.config.name}"
            f"|n={self.num_instructions}|seed={self.seed}"
        )
        # Appended only when set, so pre-fast checkpoint keys stay valid.
        if self.fast:
            key += "|fast"
        return key


def make_grid(
    workloads: Sequence[str],
    policies: Sequence[str],
    configs: Sequence[ProcessorConfig] = (MEDIUM,),
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    warmup_instructions: Optional[int] = None,
    fast: bool = False,
) -> List[SweepJob]:
    """The full cross product as a job list, workload-major order."""
    return [
        SweepJob(
            workload=w,
            policy=p,
            config=c,
            num_instructions=num_instructions,
            seed=seed,
            max_cycles=max_cycles,
            warmup_instructions=warmup_instructions,
            fast=fast,
        )
        for w in workloads
        for c in configs
        for p in policies
    ]


def _validate_jobs(jobs: Sequence[SweepJob]) -> None:
    """Reject a malformed sweep before any cell burns CPU time."""
    seen: Dict[str, SweepJob] = {}
    for job in jobs:
        if not isinstance(job.policy, str) or job.policy not in IQ_POLICIES:
            raise ValueError(
                f"job {job.key!r}: unknown IQ policy {job.policy!r}; "
                f"choose from {IQ_POLICIES}"
            )
        if job.num_instructions <= 0:
            raise ValueError(
                f"job {job.key!r}: num_instructions must be positive"
            )
        if job.max_cycles is not None and job.max_cycles <= 0:
            raise ValueError(f"job {job.key!r}: max_cycles must be positive")
        if job.key in seen:
            raise ValueError(
                f"duplicate sweep cell {job.key!r}: checkpointing needs "
                "unique (workload, policy, config, length, seed) keys"
            )
        seen[job.key] = job


# -- single-job execution -----------------------------------------------------------


def _sanitize_key(key: str) -> str:
    """A job key as a safe filename stem (``|``/``=`` etc. collapse)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("_")


def _run_job(
    job: SweepJob,
    _trace_cache: Optional[dict] = None,
    snapshot_dir: Optional[Path] = None,
    telemetry_dir: Optional[Path] = None,
) -> SimResult:
    """Execute one cell (in the caller's process); may raise.

    ``snapshot_dir`` arms the simulator's pre-crash snapshot: a failing
    run leaves a replayable state capture behind and attaches its path
    to the exception.  ``telemetry_dir`` runs the cell with interval
    telemetry enabled and exports the per-cell artifacts (timeline/
    events JSONL + Chrome trace) there, named after the job key.
    """
    workload = job.workload
    if _trace_cache is not None and isinstance(workload, str):
        from repro.workloads.generator import generate_trace
        from repro.workloads.spec2017 import get_profile

        cache_key = (workload, job.num_instructions, job.seed)
        trace = _trace_cache.get(cache_key)
        if trace is None:
            trace = generate_trace(
                get_profile(workload), job.num_instructions, seed=job.seed
            )
            _trace_cache[cache_key] = trace
        workload = trace
    result = simulate(
        workload,
        job.policy,
        config=job.config,
        num_instructions=job.num_instructions,
        seed=job.seed,
        max_cycles=job.max_cycles,
        warmup_instructions=job.warmup_instructions,
        faults=job.fault,
        failure_snapshot_dir=snapshot_dir,
        telemetry=telemetry_dir is not None,
        fast=job.fast,
    )
    if telemetry_dir is not None and result.telemetry is not None:
        from repro.telemetry.export import export_run

        export_run(
            result.telemetry,
            telemetry_dir,
            _sanitize_key(job.key),
            meta={
                "key": job.key,
                "workload": job.workload_name,
                "policy": job.policy,
                "config": job.config.name,
                "seed": job.seed,
            },
        )
        # The sink served its purpose; results must stay light enough to
        # cross the worker pipe and land in checkpoint records.
        result.telemetry = None
    return result


def _error_info(exc: BaseException) -> dict:
    """Serialize an exception (with any partial progress it carries)."""
    stats = getattr(exc, "partial_stats", None)
    cycles = getattr(exc, "cycles", None) or getattr(exc, "cycle", None) or 0
    return {
        "error_type": type(exc).__name__,
        "error_message": str(exc),
        "traceback": traceback.format_exc(),
        "cycles": int(cycles),
        "stats": stats_to_dict(stats) if stats is not None else None,
        "snapshot_path": getattr(exc, "snapshot_path", None),
    }


def _failure_from_info(job: SweepJob, info: dict, attempts: int) -> FailedResult:
    return FailedResult(
        workload=job.workload_name,
        policy=job.policy,
        config=job.config.name,
        error_type=info["error_type"],
        error_message=info["error_message"],
        traceback=info.get("traceback") or "",
        attempts=attempts,
        cycles=info.get("cycles") or 0,
        partial_stats=(
            stats_from_dict(info["stats"]) if info.get("stats") else None
        ),
        snapshot_path=info.get("snapshot_path"),
    )


# -- checkpointing ------------------------------------------------------------------


def _result_record(job: SweepJob, result: CellResult) -> dict:
    """One checkpoint line: the result's own ``to_dict`` record plus the
    sweep-cell identity (join ``key``, and the *requested* ``seed`` —
    successful records carry the resolved one as ``effective_seed``)."""
    record = result.to_dict()
    record.update(
        key=job.key,
        workload=job.workload_name,
        policy=job.policy,
        config=job.config.name,
        num_instructions=job.num_instructions,
        seed=job.seed,
    )
    return record


def _result_from_record(record: dict) -> CellResult:
    return result_from_dict(record)


def load_checkpoint(path: Union[str, Path]) -> Tuple[Dict[str, dict], int]:
    """Parse a JSON-lines checkpoint; returns (records by key, bad lines).

    Unparsable lines — e.g. a torn final line from a killed sweep — are
    counted and skipped, never fatal: losing one cell beats losing the
    sweep.  Later records win, so a re-run cell supersedes its old entry.
    """
    records: Dict[str, dict] = {}
    corrupt = 0
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                status = record["status"]
            except (json.JSONDecodeError, KeyError, TypeError):
                corrupt += 1
                continue
            if status not in ("ok", "failed"):
                corrupt += 1
                continue
            records[key] = record
    return records, corrupt


# -- the sweep report ---------------------------------------------------------------


@dataclass
class SweepReport:
    """Complete per-cell outcome map of one sweep, success or not."""

    cells: "OrderedDict[str, CellResult]" = field(default_factory=OrderedDict)
    #: Cells restored from the checkpoint instead of executed.
    restored: int = 0
    #: Cells actually executed this run.
    executed: int = 0
    #: Transient-failure retries performed (attempts beyond the first).
    retried: int = 0
    #: Unparsable checkpoint lines skipped during resume.
    corrupt_checkpoint_lines: int = 0
    #: The sweep was stopped early by SIGINT/SIGTERM: ``cells`` holds
    #: only the cells that finished (all checkpointed); the rest can be
    #: re-run with ``resume=True``.
    interrupted: bool = False

    @property
    def successes(self) -> List[SimResult]:
        return [r for r in self.cells.values() if r.ok]

    @property
    def failures(self) -> List[FailedResult]:
        return [r for r in self.cells.values() if not r.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failures

    def by_workload(self) -> Dict[str, Dict[str, CellResult]]:
        """``results[workload][policy]`` map (single-config sweeps)."""
        nested: Dict[str, Dict[str, CellResult]] = {}
        for result in self.cells.values():
            nested.setdefault(result.workload, {})[result.policy] = result
        return nested

    def to_dict(self) -> dict:
        """JSON-safe record of the whole report (cells via their own
        ``to_dict``) — the shape the service API returns for sweeps."""
        return {
            "cells": {key: r.to_dict() for key, r in self.cells.items()},
            "restored": self.restored,
            "executed": self.executed,
            "retried": self.retried,
            "corrupt_checkpoint_lines": self.corrupt_checkpoint_lines,
            "interrupted": self.interrupted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        """Inverse of :meth:`to_dict`."""
        report = cls(
            restored=data.get("restored", 0),
            executed=data.get("executed", 0),
            retried=data.get("retried", 0),
            corrupt_checkpoint_lines=data.get("corrupt_checkpoint_lines", 0),
            interrupted=data.get("interrupted", False),
        )
        for key, record in (data.get("cells") or {}).items():
            report.cells[key] = result_from_dict(record)
        return report

    def summary(self) -> str:
        """Human-readable status table plus tracebacks of the failures."""
        lines = [
            f"sweep: {len(self.cells)} cells, {len(self.successes)} ok, "
            f"{len(self.failures)} failed "
            f"({self.restored} restored from checkpoint, "
            f"{self.executed} executed"
            + (f", {self.retried} retried" if self.retried else "")
            + ")"
        ]
        if self.interrupted:
            lines.append(
                "warning: sweep interrupted by signal; unfinished cells "
                "omitted (re-run with resume=True to complete them)"
            )
        if self.corrupt_checkpoint_lines:
            lines.append(
                f"warning: skipped {self.corrupt_checkpoint_lines} corrupt "
                "checkpoint line(s)"
            )
        for result in self.cells.values():
            lines.append("  " + result.summary())
        for failure in self.failures:
            lines.append("")
            lines.append(
                f"--- {failure.workload}/{failure.policy}"
                f"/{failure.config}: {failure.error_type} ---"
            )
            if failure.partial_stats is not None:
                lines.append(
                    f"partial progress: {failure.partial_stats.committed} "
                    f"committed in {failure.partial_stats.cycles} cycles"
                )
            if failure.traceback:
                lines.append(failure.traceback.rstrip())
        return "\n".join(lines)


# -- the sweep loop -----------------------------------------------------------------


def run_sweep(
    jobs: Sequence[SweepJob],
    *,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    transient: Sequence[str] = TRANSIENT_ERRORS,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    executor: str = "process",
    fail_fast: bool = False,
    snapshot_failures: Optional[Union[str, Path]] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
    on_result: Optional[Callable[[SweepJob, CellResult], None]] = None,
    on_retry: Optional[Callable[[SweepJob, int, str], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    _job_runner: Callable[..., SimResult] = _run_job,
) -> SweepReport:
    """Run every job; always returns a complete per-cell results map.

    ``executor="process"`` (the default) runs the cells on a supervised
    pool of up to ``max_workers`` worker processes with per-job
    wall-clock ``timeout``; ``executor="inline"`` runs sequentially
    in-process (no timeout enforcement, but retries/backoff/
    checkpointing still apply) — the right choice for small sweeps and
    deterministic tests.

    Exceptions whose class name is in ``transient`` are retried up to
    ``retries`` extra times, waiting ``backoff * 2**(attempt-1)`` seconds
    before each re-run.  Any other exception — or an exhausted retry
    budget — yields a :class:`~repro.sim.results.FailedResult` cell (or,
    with ``fail_fast=True``, raises :class:`SweepFailed`).

    ``checkpoint``/``resume`` give crash-durable sweeps; see the module
    docstring for the file format and semantics.

    ``snapshot_failures=<dir>`` arms pre-crash state capture: a cell
    whose run dies leaves a checksummed snapshot of the simulator state
    shortly before the failure in that directory, its path recorded on
    the :class:`~repro.sim.results.FailedResult` — replay it with
    ``python -m repro replay <path>``.

    ``telemetry_dir=<dir>`` runs every cell with interval telemetry and
    exports per-cell artifacts (``<key>.timeline.jsonl``,
    ``<key>.events.jsonl``, ``<key>.trace.json``) into that directory as
    each cell completes.  ``on_retry(job, next_attempt, error_type)`` is
    called before each transient-failure re-run (the report counts them
    in :attr:`SweepReport.retried`).

    SIGINT/SIGTERM (when running in the main thread) stop the sweep
    gracefully: in-flight workers are terminated, the checkpoint file is
    left flushed and closed, and a *partial* report comes back with
    :attr:`SweepReport.interrupted` set — re-run with ``resume=True`` to
    finish the remaining cells.
    """
    jobs = list(jobs)
    _validate_jobs(jobs)
    if executor not in ("process", "inline"):
        raise ValueError(f"unknown executor {executor!r}; use 'process' or 'inline'")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff < 0:
        raise ValueError("backoff must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    if checkpoint is not None:
        for job in jobs:
            if not isinstance(job.workload, str):
                raise ValueError(
                    f"checkpointable sweeps need named workloads so cells "
                    f"can be re-identified on resume; job {job.key!r} "
                    f"carries a {type(job.workload).__name__}"
                )

    report = SweepReport()
    done: Dict[str, CellResult] = {}
    snapshot_dir = Path(snapshot_failures) if snapshot_failures is not None else None
    tel_dir = Path(telemetry_dir) if telemetry_dir is not None else None
    if (snapshot_dir is not None or tel_dir is not None) and _job_runner is _run_job:

        def _job_runner(
            job, _trace_cache=None, _snap=snapshot_dir, _tel=tel_dir
        ):
            return _run_job(
                job,
                _trace_cache=_trace_cache,
                snapshot_dir=_snap,
                telemetry_dir=_tel,
            )

    def note_retry(job: SweepJob, next_attempt: int, error_type: str) -> None:
        report.retried += 1
        if on_retry is not None:
            on_retry(job, next_attempt, error_type)

    # Restore finished cells before launching anything.
    checkpoint_handle = None
    if checkpoint is not None:
        path = Path(checkpoint)
        if resume and path.exists():
            records, report.corrupt_checkpoint_lines = load_checkpoint(path)
            wanted = {job.key for job in jobs}
            for key, record in records.items():
                if key in wanted:
                    done[key] = _result_from_record(record)
            report.restored = len(done)
            # Compact-rewrite before appending: drops corrupt lines (a
            # torn final line — even newline-less — would otherwise get
            # new records concatenated onto it) and squashes superseded
            # duplicates.  Records for cells outside this sweep are kept;
            # the rewrite is atomic, so a crash here loses nothing.
            compacted = b"".join(
                (json.dumps(record) + "\n").encode("utf-8")
                for record in records.values()
            )
            write_bytes_atomic(compacted, path)
            if report.corrupt_checkpoint_lines:
                warnings.warn(
                    f"checkpoint {path} had "
                    f"{report.corrupt_checkpoint_lines} corrupt line(s) "
                    f"(torn write from an interrupted sweep?); they were "
                    f"skipped and dropped on compaction",
                    RuntimeWarning,
                    stacklevel=2,
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        checkpoint_handle = open(path, "a" if resume else "w")

    def finish(job: SweepJob, result: CellResult) -> None:
        done[job.key] = result
        report.executed += 1
        if checkpoint_handle is not None:
            checkpoint_handle.write(json.dumps(_result_record(job, result)) + "\n")
            checkpoint_handle.flush()
        if on_result is not None:
            on_result(job, result)
        if fail_fast and isinstance(result, FailedResult):
            raise SweepFailed(result)

    todo = [job for job in jobs if job.key not in done]

    # Graceful SIGINT/SIGTERM: convert both to the KeyboardInterrupt
    # unwind path, then swallow it below — the checkpoint is flushed per
    # cell and closed in the finally, so a Ctrl-C / scheduler kill yields
    # a partial SweepReport (``interrupted=True``) instead of dying
    # mid-write.  Handlers can only live in the main thread; elsewhere
    # (e.g. service scheduler workers) the sweep runs unhooked.
    previous_handlers: Dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():

        def _signal_to_interrupt(signum, frame):
            raise KeyboardInterrupt(f"signal {signum}")

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[sig] = signal.signal(sig, _signal_to_interrupt)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass

    try:
        try:
            if executor == "inline":
                _run_inline(
                    todo,
                    finish,
                    retries,
                    backoff,
                    transient,
                    sleep,
                    _job_runner,
                    note_retry,
                )
            else:
                _run_on_pool(
                    todo,
                    finish,
                    max_workers,
                    timeout,
                    retries,
                    backoff,
                    transient,
                    _job_runner,
                    note_retry,
                )
        except KeyboardInterrupt:
            report.interrupted = True
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)
        if checkpoint_handle is not None:
            checkpoint_handle.close()

    # Report cells in job order, executed or restored alike.  An
    # interrupted sweep reports only its finished cells.
    for job in jobs:
        if job.key in done:
            report.cells[job.key] = done[job.key]
        elif not report.interrupted:
            raise AssertionError(  # pragma: no cover - harness bug guard
                f"sweep finished without a result for cell {job.key!r}"
            )
    return report


def run_job_with_retries(
    job: SweepJob,
    retries: int = 1,
    backoff: float = 0.5,
    transient: Sequence[str] = TRANSIENT_ERRORS,
    job_runner: Callable[..., SimResult] = _run_job,
    sleep: Callable[[float], None] = time.sleep,
) -> CellResult:
    """One cell through the inline retry/backoff loop; never raises.

    The single-job face of the harness: every pool worker
    (:mod:`repro.service.supervisor`) and every scheduler thread runs
    its jobs through this, so transient failures retry where the job
    runs while crashes and hangs are the supervisor's problem.  Always returns a :class:`CellResult`; the live exception a
    :class:`~repro.sim.results.FailedResult` carries in inline mode is
    stripped so the result can cross a process pipe.
    """
    outcome: Dict[str, CellResult] = {}
    _run_inline(
        [job],
        lambda j, result: outcome.__setitem__(j.key, result),
        retries,
        backoff,
        transient,
        sleep,
        job_runner,
    )
    result = outcome[job.key]
    if isinstance(result, FailedResult):
        result.exception = None  # live exceptions do not pickle reliably
    return result


def _run_inline(
    todo: Sequence[SweepJob],
    finish: Callable[[SweepJob, CellResult], None],
    retries: int,
    backoff: float,
    transient: Sequence[str],
    sleep: Callable[[float], None],
    job_runner: Callable[..., SimResult],
    note_retry: Optional[Callable[[SweepJob, int, str], None]] = None,
) -> None:
    trace_cache: dict = {}
    for job in todo:
        attempt = 1
        while True:
            try:
                result = job_runner(job, _trace_cache=trace_cache)
                finish(job, result)
                break
            except (KeyboardInterrupt, SweepFailed):
                raise
            except Exception as exc:
                if type(exc).__name__ in transient and attempt <= retries:
                    delay = backoff * (2 ** (attempt - 1))
                    if delay:
                        sleep(delay)
                    attempt += 1
                    if note_retry is not None:
                        note_retry(job, attempt, type(exc).__name__)
                    continue
                failure = _failure_from_info(job, _error_info(exc), attempt)
                # Inline-only: keep the live exception so fail-fast callers
                # (run_policies) can re-raise the original error.
                failure.exception = exc
                finish(job, failure)
                break


def _run_on_pool(
    todo: Sequence[SweepJob],
    finish: Callable[[SweepJob, CellResult], None],
    max_workers: Optional[int],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    transient: Sequence[str],
    job_runner: Callable[..., SimResult],
    note_retry: Callable[[SweepJob, int, str], None],
) -> None:
    """The process executor: one dispatch per attempt on a supervised
    :class:`~repro.service.supervisor.ProcessWorkerPool`.

    The pool detects lost workers; the retry rule stays here (the pool
    runs with ``retries=0``), so a transient failure and a lost worker
    are retried alike, with backoff, and counted in the report.
    """
    # Lazy: the supervisor imports this module at load time.
    from repro.service.supervisor import POLL_INTERVAL, ProcessWorkerPool

    if not todo:
        return
    if max_workers is None:
        max_workers = max(1, (os.cpu_count() or 2) - 1)
    pool = ProcessWorkerPool(
        size=min(max_workers, len(todo)),
        job_runner=job_runner,
        retries=0,
        job_timeout=timeout,
    ).start()
    # (job, attempt, earliest monotonic launch time) — backoff delays the
    # retry of one cell without stalling the rest of the sweep.
    pending: "deque[Tuple[SweepJob, int, float]]" = deque(
        (job, 1, 0.0) for job in todo
    )
    attempts: Dict[str, int] = {}  # in-flight job key -> attempt number

    def settle(job: SweepJob, result: CellResult) -> None:
        attempt = attempts.pop(job.key)
        if not result.ok:
            if result.error_type in transient and attempt <= retries:
                note_retry(job, attempt + 1, result.error_type)
                delay = backoff * (2 ** (attempt - 1))
                pending.append((job, attempt + 1, time.monotonic() + delay))
                return
            result.attempts = attempt
        finish(job, result)

    try:
        while pending or attempts:
            now = time.monotonic()
            for _ in range(len(pending)):
                job, attempt, not_before = pending[0]
                if not_before > now:
                    pending.rotate(-1)
                    continue
                if not pool.dispatch(job.key, job):
                    break  # every worker is busy
                pending.popleft()
                attempts[job.key] = attempt
            events = pool.poll()
            for event in events:
                if event[0] == "result":
                    _, _, job, result = event
                else:  # ("lost", job_id, job, kind, message)
                    _, _, job, kind, message = event
                    result = _failure_from_info(
                        job, {"error_type": kind, "error_message": message}, 0
                    )
                settle(job, result)
            if not events:
                time.sleep(POLL_INTERVAL)
    finally:
        # fail_fast, KeyboardInterrupt, ...: never leak worker processes.
        pool.stop(kill_busy=True)
