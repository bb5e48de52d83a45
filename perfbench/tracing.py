"""Method wrappers that time calls into each layer of ``repro``.

Nothing here edits the program: the wrappers are installed from the
benchmark's own files around the layers' public functions, and removed
again with :meth:`Patcher.restore`.  Hot simulator paths (select, wakeup,
data access, digest update) are aggregated into call counts and summed
seconds; service paths, which run a few times per job, are kept as spans
``(name, id, wall-clock start, seconds)`` so the benchmark can join them
with the client's own timestamps by job id.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

_MISSING = object()

#: Time one cycle in this many (prime, like the profiler's default of 97)
#: for the stage shares.  At 97 a single host stall inside one sampled
#: stage moved sim-mlp's dispatch share from 0.34 to 0.49; at 11 the
#: shares repeat to about 0.01.
STAGE_SAMPLE_EVERY = 11


class Patcher:
    """Replace attributes on classes, modules or objects; undo in reverse."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


class Recorder:
    """In-memory sink for counts, summed times and spans."""

    def __init__(self) -> None:
        #: label -> [calls, seconds]
        self.acc: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        #: select label (queue mode) -> [calls, grants, seconds]
        self.select: Dict[str, List[float]] = defaultdict(lambda: [0, 0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.stage_seconds: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []

    def calls(self, label: str) -> float:
        return self.acc[label][0]

    def seconds(self, label: str) -> float:
        return self.acc[label][1]

    def dump(self, path: Path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    @staticmethod
    def load(path: Path) -> "Recorder":
        rec = Recorder()
        payload = json.loads(path.read_text())
        rec.spans = payload["spans"]
        rec.counts.update(payload["counts"])
        return rec


def _timed(acc: List[float], fn: Callable) -> Callable:
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += 1
            acc[1] += clock() - t0

    return wrapper


# -- simulator layers --------------------------------------------------------------


def install_pipeline(rec: Recorder, patcher: Patcher, stages: bool = False,
                     layers: bool = False) -> None:
    """Wrap ``Pipeline.run``: its time, and each finished pipeline's
    cycle and fast-forward counters.  ``stages`` attaches the pipeline's
    own sampled ``StageProfiler``; ``layers`` wraps, per pipeline, the
    issue queue's select/wakeup and the hierarchy's data accesses.  The
    two distort each other (a wrapped wakeup is dispatch time), so a run
    asks for one or the other."""
    from repro.cpu.pipeline import Pipeline
    from repro.telemetry.profile import StageProfiler

    run = Pipeline.run
    clock = time.perf_counter
    run_acc = rec.acc["pipeline.run"]

    def traced_run(self, *args, **kwargs):
        local = Patcher()
        if stages:
            local.replace(self, "profiler",
                          StageProfiler(sample_every=STAGE_SAMPLE_EVERY))
        if layers:
            iq = self.iq
            local.replace(iq, "select", _traced_select(rec, iq, iq.select))
            local.replace(iq, "wakeup", _timed(rec.acc["core.wakeup"], iq.wakeup))
            local.replace(
                self.hierarchy, "access_data",
                _timed(rec.acc["memory.access_data"], self.hierarchy.access_data),
            )
        t0 = clock()
        try:
            return run(self, *args, **kwargs)
        finally:
            run_acc[0] += 1
            run_acc[1] += clock() - t0
            rec.counts["pipeline.cycles"] += self.cycle
            rec.counts["pipeline.ff_skipped_cycles"] += self.ff_skipped_cycles
            if stages:
                for stage, seconds in self.profiler.stage_seconds.items():
                    rec.stage_seconds[stage] += seconds
            local.restore()

    patcher.replace(Pipeline, "run", traced_run)


def install_sim(rec: Recorder, patcher: Patcher) -> None:
    """Wrap trace generation, the commit digest and, through
    :func:`install_pipeline`, the issue queue and memory hierarchy."""
    import repro.sim.simulator as simulator
    import repro.workloads.generator as generator
    from repro.verify.oracle import CommitDigest

    gen = _timed(rec.acc["workloads.trace_gen"], generator.generate_trace)
    patcher.replace(generator, "generate_trace", gen)
    patcher.replace(simulator, "generate_trace", gen)
    patcher.replace(
        CommitDigest, "update",
        _timed(rec.acc["verify.digest"], CommitDigest.update),
    )
    install_pipeline(rec, patcher, layers=True)


def _traced_select(rec: Recorder, iq, select: Callable) -> Callable:
    clock = time.perf_counter
    by_mode = rec.select

    def wrapper(fu_pool, cycle):
        # SWQUE reports its mode; every other policy is an AGE-family queue.
        mode = getattr(iq, "mode", "age")
        t0 = clock()
        granted = select(fu_pool, cycle)
        acc = by_mode[mode]
        acc[2] += clock() - t0
        acc[0] += 1
        acc[1] += len(granted)
        return granted

    return wrapper


# -- service layers ----------------------------------------------------------------


def install_service(rec: Recorder, patcher: Patcher) -> None:
    """Wrap queue intake/claim/commit, the journal, the result cache and
    the worker pool, recording one span per call keyed by job id (cache
    spans are keyed by content address)."""
    from repro.service.cache import ResultCache
    from repro.service.journal import JobJournal
    from repro.service.queue import DurableQueue
    from repro.service.scheduler import JobScheduler
    from repro.service.supervisor import ProcessWorkerPool

    wall = time.time
    clock = time.perf_counter
    spans = rec.spans
    counts = rec.counts

    def spanned(owner, method: str, name: str, ident: Callable) -> None:
        fn = getattr(owner, method)

        def wrapper(*args, **kwargs):
            start, t0 = wall(), clock()
            out = fn(*args, **kwargs)
            spans.append([name, ident(args, out), start, clock() - t0])
            return out

        patcher.replace(owner, method, wrapper)

    spanned(DurableQueue, "append", "queue.append", lambda a, out: out.id)
    spanned(DurableQueue, "commit", "queue.commit", lambda a, out: a[1].job_id)
    spanned(DurableQueue, "commit_unclaimed", "queue.commit_unclaimed",
            lambda a, out: a[1])
    spanned(JobJournal, "record_accept", "journal.accept", lambda a, out: a[1])
    spanned(JobJournal, "record_done", "journal.done", lambda a, out: a[1])
    spanned(ResultCache, "put", "cache.put", lambda a, out: a[1])
    spanned(ResultCache, "get", "cache.get",
            lambda a, out: [a[1], out is not None])

    claim_next = DurableQueue.claim_next

    def traced_claim_next(self):
        got = claim_next(self)
        counts["queue.claim_calls"] += 1
        if got is not None:
            entry = got[0]
            now = wall()
            counts["queue.claims"] += 1
            # Claim lag: the intake record's own timestamp -> claimed.
            spans.append(["queue.claim_lag", entry.id, entry.submitted_at,
                          now - entry.submitted_at])
        return got

    patcher.replace(DurableQueue, "claim_next", traced_claim_next)

    submitted: Dict[str, float] = {}
    submit = JobScheduler.submit

    def traced_submit(self, job, *args, **kwargs):
        record = submit(self, job, *args, **kwargs)
        submitted[record.id] = record.submitted_at
        return record

    patcher.replace(JobScheduler, "submit", traced_submit)

    dispatched: Dict[str, float] = {}
    dispatch = ProcessWorkerPool.dispatch

    def traced_dispatch(self, job_id, job):
        ok = dispatch(self, job_id, job)
        if ok:
            now = wall()
            dispatched[job_id] = now
            if job_id in submitted:
                start = submitted[job_id]
                spans.append(["scheduler.queue_wait", job_id, start, now - start])
        return ok

    patcher.replace(ProcessWorkerPool, "dispatch", traced_dispatch)

    poll = ProcessWorkerPool.poll

    def traced_poll(self):
        events = poll(self)
        now = wall()
        for event in events:
            start = dispatched.pop(event[1], None)
            if event[0] == "result" and start is not None:
                spans.append(["supervisor.busy", event[1], start, now - start])
        return events

    patcher.replace(ProcessWorkerPool, "poll", traced_poll)
