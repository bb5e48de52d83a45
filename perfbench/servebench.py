"""The serve workloads: the HTTP service.

The service runs as users run it — ``python -m repro serve`` (plus
``python -m repro work`` for the fleet), production defaults with fsync
on, one worker per CPU — in its own process groups.  One load-generator
process drives it with two kinds of traffic at once:

* **fresh** (the durable write path): rounds of one ``/batch`` of
  distinct-seed short jobs, each round awaited to completion;
* **hit** (the read path): an open-loop stream at a fixed rate of
  ``/submit`` + ``/result`` for specs computed before the traffic began,
  each timed from the moment it was due.

How the hit stream reaches a computed result depends on the workload:

* ``serve-local`` and ``serve-fleet-cache-hits`` submit each spec afresh,
  so the frontend answers it from the result cache;
* ``serve-fleet`` replays the idempotency token of the spec's original
  submission, as a client retrying a submit does, so the frontend answers
  with the job it already committed.  The fleet frontend appends a fresh
  submission to the shared queue before it looks the cache up, and a
  worker node can settle the new job from its committed twin in between:
  a second publish for the id, refused and counted as a duplicate commit.
  That admit race fails the output checks, so the gated fleet workload
  does not submit cached specs; ``serve-fleet-cache-hits`` keeps that
  traffic, and its checks, for when the race is fixed.

The traced variant starts the same commands through ``launch.py``, which
installs the span wrappers inside the service processes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT, WORK, Report, Stopwatch, check_ledger, child_env, geomean, median,
    ratio, tail,
)
from hostspeed import HostSpeed

PERFBENCH = Path(__file__).resolve().parent
SPEC_WORKLOADS = ("exchange2", "xz")
POLICIES = ("age", "swque")
#: Instructions per job: "a few thousand", short enough that the
#: service's own per-job costs are a visible share of a job's latency
#: (about a fifth on the fleet stack; ``calibrate.py``, README.md).
JOB_INSTRUCTIONS = 5_000
#: Seeds per fresh round; each seed runs every workload x policy.
ROUND_SEEDS = 4
#: Fresh rounds per run at least: 48 fresh latencies, so the tail is
#: always the same percentile (p75) rather than p75 or the maximum.
MIN_ROUNDS = 3
#: Hit-stream rate, requests per second: a quarter of what one client
#: gets through the fleet's cache-hit path beside the fresh traffic, i.e.
#: of 1 / ``hit_latency_p50_s`` of untraced serve-fleet-cache-hits runs
#: (README.md).
#: Fixed, so two commits see the same traffic.
HIT_RATE = 15.0
SETUP_SPAWNS = 7
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
RESULT_TIMEOUT = 120.0
#: How long the fresh stream waits server-side on its oldest pending job
#: before it re-checks the others (the fleet frontend itself polls the
#: queue every 50 ms while it waits).
POLL_S = 0.1
TERMINAL = ("done", "failed", "quarantined")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _seed_for(seed: int, stream: int, index: int) -> int:
    """Distinct job seeds per (run seed, stream, index); stream 0 is the
    hit specs, stream r + 1 fresh round r."""
    return (seed * 1_000_003 + stream * 1_009 + index) % (2 ** 31 - 1) + 1


def _specs(seeds) -> List[dict]:
    return [
        {"workload": w, "policy": p, "num_instructions": JOB_INSTRUCTIONS,
         "seed": s}
        for s in seeds for w in SPEC_WORKLOADS for p in POLICIES
    ]


def _spec_id(spec: dict) -> Tuple:
    return (spec["workload"], spec["policy"], spec["seed"])


# -- the service processes ---------------------------------------------------------


class Stack:
    """One running service: its processes, URL and queue/cache dirs."""

    def __init__(self, kind: str, root: Path, workers: int,
                 traced: bool) -> None:
        self.kind = kind
        self.root = root
        self.workers = workers
        self.traced = traced
        self.queue_dir = root / "queue"
        self.cache_dir = root / "cache"
        self.procs: List[subprocess.Popen] = []
        self.span_files: List[Path] = []
        self.url = ""

    def _spawn(self, role: str, args: List[str]) -> subprocess.Popen:
        cmd = [sys.executable]
        if self.traced:
            spans = self.root / f"spans-{role}.json"
            self.span_files.append(spans)
            cmd += [str(PERFBENCH / "launch.py"), str(spans), "--"]
        else:
            cmd += ["-m", "repro"]
        log = open(self.root / f"{role}.log", "wb")
        try:
            proc = subprocess.Popen(
                cmd + args, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    def start(self) -> Stopwatch:
        """Spawn the service; timed until /healthz reports every worker."""
        from repro.service.client import ServiceClient, ServiceError

        self.root.mkdir(parents=True, exist_ok=True)
        watch = Stopwatch()
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--cache-dir", str(self.cache_dir)]
        if self.kind == "fleet":
            self._spawn("frontend", serve + ["--queue-dir", str(self.queue_dir)])
            self._spawn("node", ["work", "--queue-dir", str(self.queue_dir),
                                 "--cache-dir", str(self.cache_dir),
                                 "--workers", str(self.workers)])
        else:
            self._spawn("frontend", serve + ["--workers", str(self.workers)])
        deadline = time.perf_counter() + READY_TIMEOUT
        log = self.root / "frontend.log"
        while not self.url:
            match = re.search(rb"listening on (http://\S+)", log.read_bytes())
            if match:
                self.url = match.group(1).decode()
            else:
                self._wait_step(deadline)
        client = ServiceClient(self.url, timeout=5.0, max_retries=0)
        while True:
            try:
                if self._workers_alive(client) >= self.workers:
                    return watch.stop()
            except (OSError, ServiceError):
                pass
            self._wait_step(deadline)

    def _workers_alive(self, client) -> int:
        health = client.healthz()
        if health.get("status") != "ok":
            return 0
        if self.kind != "fleet":
            return health.get("workers_alive", 0)
        # A fleet's /healthz counts live nodes; their pools are listed
        # in the fleet view.
        nodes = client.metricsz()["fleet"]["nodes"]
        return sum(n.get("workers") or 0 for n in nodes
                   if n["alive"] and n["role"] == "worker")

    def _wait_step(self, deadline: float) -> None:
        for proc in self.procs:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"service process {proc.args[1:4]} exited with "
                    f"{proc.returncode}; see {self.root}")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"service not ready after {READY_TIMEOUT:g}s")
        time.sleep(0.01)

    def _members(self) -> List[int]:
        """Live (non-zombie) pids in the service's process groups."""
        groups = {p.pid for p in self.procs}
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            if fields[0] != "Z" and int(fields[2]) in groups:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of every service process."""
        total_kb = 0
        for pid in self._members():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+)", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left, and
        wait until no process of the service's groups remains."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT
        while True:
            left = self._members()
            if not left:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"service processes {left} would not exit")
            for proc in self.procs:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
        for proc in self.procs:
            proc.wait()


# -- the load generator ------------------------------------------------------------


class Traffic:
    """Client-side samples from one traffic phase."""

    def __init__(self) -> None:
        self.fresh: List[dict] = []         # one per fresh job
        self.rounds: List[Tuple[int, Stopwatch]] = []   # (jobs, makespan)
        self.batch_admit_s: List[float] = []
        self.hits: List[dict] = []          # one per hit request
        self.refused = 0
        self.errors: List[str] = []


def _await(client, job_id: str) -> dict:
    deadline = time.monotonic() + RESULT_TIMEOUT
    while True:
        record = client.result(job_id, wait=True, timeout=60)
        if record.get("state") in TERMINAL:
            return record
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} pending after {RESULT_TIMEOUT:g}s")


def _result_digest(record: dict) -> Optional[str]:
    result = record.get("result") or {}
    if record.get("state") != "done" or result.get("status") != "ok":
        return None
    return result.get("commit_digest") or None


def _settled(client, ids: List[str]):
    """Yield ``(id, terminal record)`` for ``ids`` in the order the jobs
    finish: wait up to ``POLL_S`` on the oldest pending job, then re-check
    the next ones without waiting, and again until none is pending.

    Both stacks hand equal-priority jobs out oldest first, so only the
    oldest ``cpu_count()`` pending jobs can be running; re-checking just
    those keeps the polling from loading the service."""
    pending = list(ids)
    deadline = time.monotonic() + RESULT_TIMEOUT
    while pending:
        for k, job_id in enumerate(pending[:cpu_count()]):
            if k == 0:
                record = client.result(job_id, wait=True, timeout=POLL_S)
            elif client.status(job_id).get("state") in TERMINAL:
                record = client.result(job_id)
            else:
                continue
            if record.get("state") in TERMINAL:
                pending.remove(job_id)
                yield job_id, record
        if pending and time.monotonic() > deadline:
            raise TimeoutError(f"{len(pending)} jobs pending after "
                               f"{RESULT_TIMEOUT:g}s")


def _fresh_round(client, traffic: Traffic, specs: List[dict]) -> None:
    with Stopwatch() as makespan:
        t0 = time.perf_counter()
        records = client.batch(specs)
        traffic.batch_admit_s.append(time.perf_counter() - t0)
        spec_of = {}
        for spec, record in zip(specs, records):
            if "id" in record:
                spec_of[record["id"]] = spec
            else:
                traffic.refused += 1
                traffic.errors.append(f"batch refused a job: {record}")
        for job_id, done in _settled(client, list(spec_of)):
            traffic.fresh.append({
                "id": job_id, "round": len(traffic.rounds),
                "spec": spec_of[job_id], "latency": time.perf_counter() - t0,
                "received_at": time.time(),
                "finished_at": done.get("finished_at"),
                "cached": bool(done.get("cached")),
                "digest": _result_digest(done), "result": done.get("result"),
            })
    traffic.rounds.append((len(specs), makespan))


def submit_and_wait(client, spec: dict) -> Tuple[dict, float]:
    """One ``/submit`` and its result in hand: the terminal record and
    the seconds the submit call took."""
    sent = time.perf_counter()
    record = client.submit(**spec)
    submit_s = time.perf_counter() - sent
    if record.get("state") in TERMINAL:
        return client.result(record["id"]), submit_s
    return _await(client, record["id"]), submit_s


def _hit_stream(url: str, traffic: Traffic, specs: List[dict],
                expected: Dict[Tuple, Tuple[str, str]],
                stop: threading.Event) -> None:
    """Open-loop hits.  ``expected`` maps a spec to its original job id
    and digest.  A spec that carries a ``token`` replays the original
    submission and must be answered with that job; one without is a new
    submission and must be answered from the cache."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=60.0)
    start = time.perf_counter()
    i = 0
    while not stop.is_set():
        due = start + i / HIT_RATE
        delay = due - time.perf_counter()
        if delay > 0 and stop.wait(delay):
            break
        sent = time.perf_counter()
        spec = specs[i % len(specs)]
        i += 1
        sample = {"lateness": sent - due, "ok": False}
        job_id, digest = expected[_spec_id(spec)]
        try:
            record, sample["submit_s"] = submit_and_wait(client, spec)
            sample["latency"] = time.perf_counter() - due
            sample["cached"] = bool(record.get("cached"))
            answered = (record.get("id") == job_id if "token" in spec
                        else sample["cached"])
            sample["ok"] = answered and _result_digest(record) == digest
        except (OSError, ServiceError, TimeoutError) as exc:
            traffic.errors.append(f"hit request failed: {exc}")
        traffic.hits.append(sample)


def run_traffic(url: str, seed: int, seconds: float, hit_specs: List[dict],
                expected: Dict[Tuple, Tuple[str, str]]) -> Traffic:
    """Fresh rounds until ``seconds`` are spent (at least
    ``MIN_ROUNDS``), with the hit stream running beside them the whole
    time."""
    from repro.service.client import ServiceClient

    traffic = Traffic()
    traffic.window = Stopwatch()
    stop = threading.Event()
    hits = threading.Thread(
        target=_hit_stream, args=(url, traffic, hit_specs, expected, stop),
        name="hit-stream",
    )
    client = ServiceClient(url, timeout=120.0)
    started = time.perf_counter()
    hits.start()
    try:
        round_no = 0
        while True:
            seeds = [_seed_for(seed, round_no + 1, k) for k in range(ROUND_SEEDS)]
            _fresh_round(client, traffic, _specs(seeds))
            round_no += 1
            elapsed = time.perf_counter() - started
            if (round_no >= MIN_ROUNDS
                    and elapsed + traffic.rounds[-1][1].seconds / 2 > seconds):
                break
    finally:
        stop.set()
        hits.join()
        traffic.window.stop()
    return traffic


# -- one measured service session ---------------------------------------------------


def _precompute(stack: Stack,
                specs: List[dict]) -> Dict[Tuple, Tuple[str, str]]:
    """Compute the hit specs once, so the hit stream finds them cached;
    returns each spec's job id and digest.

    A worker publishes a job's result before it writes the cache entry,
    so this also waits for the entries to land.
    """
    from repro.service.cache import ResultCache, cache_key
    from repro.service.client import ServiceClient
    from repro.service.scheduler import job_from_dict

    client = ServiceClient(stack.url, timeout=120.0)
    digests = {}
    for spec, record in zip(specs, client.batch(specs)):
        digests[_spec_id(spec)] = (
            record["id"], _result_digest(_await(client, record["id"])))
    cache = ResultCache(stack.cache_dir)
    keys = [cache_key(job_from_dict({k: v for k, v in spec.items()
                                     if k != "token"})) for spec in specs]
    deadline = time.monotonic() + READY_TIMEOUT
    while not all(key in cache for key in keys):
        if time.monotonic() > deadline:
            raise RuntimeError("hit specs never reached the result cache")
        time.sleep(0.01)
    return digests


class Session:
    """One measured service session and what was observed in it."""

    def __init__(self, kind: str, seed: int, seconds: float, spawns: int,
                 traced: bool, tag: str, replay: bool = False) -> None:
        """Spawn the service ``spawns`` times (timing each), keep the last
        one, run the traffic against it, then drain and stop it.  With
        ``replay`` the hit stream replays the hit specs' submissions."""
        from repro.service.client import ServiceClient

        self.kind = kind
        self.replay = replay
        self.host = HostSpeed(os.sched_getaffinity(0))
        self.setups: List[Stopwatch] = []
        workers = cpu_count()
        with self.host:
            for k in range(spawns):
                root = WORK / f"{tag}-{kind}-{k}"
                shutil.rmtree(root, ignore_errors=True)
                self.stack = Stack(kind, root, workers, traced)
                try:
                    self.setups.append(self.stack.start())
                except BaseException:
                    self.stack.stop()
                    raise
                if k < spawns - 1:
                    self.stack.stop()
                    shutil.rmtree(root, ignore_errors=True)
            try:
                hit_specs = _specs([_seed_for(seed, 0, 0)])
                if replay:
                    hit_specs = [dict(spec, token=f"perfbench-hit-{seed}-{k}")
                                 for k, spec in enumerate(hit_specs)]
                self.expected = _precompute(self.stack, hit_specs)
                self.traffic = run_traffic(self.stack.url, seed, seconds,
                                           hit_specs, self.expected)
                self.rss = self.stack.peak_rss_mb()
                client = ServiceClient(self.stack.url, timeout=30.0)
                self.metrics = client.metricsz()
                self.health = client.healthz()
            finally:
                self.stack.stop()

    def e2e(self, normalized: bool = True) -> Dict[str, float]:
        """The end-to-end metrics, host-normalized (see ``hostspeed``)
        unless ``normalized`` is false."""
        traffic = self.traffic
        factor = self.host.window_factor if normalized else (lambda w: 1.0)
        rounds = [(n, w.seconds / factor(w)) for n, w in traffic.rounds]
        by_round = [factor(w) for _, w in traffic.rounds]
        fresh = [f["latency"] / by_round[f["round"]] for f in traffic.fresh]
        window = factor(traffic.window)
        hits = [h["latency"] / window for h in traffic.hits if "latency" in h]
        return {
            "setup_s": median([w.seconds / factor(w) for w in self.setups]),
            "sim_instr_per_s": median(
                [n * JOB_INSTRUCTIONS / span for n, span in rounds]),
            "peak_rss_mb": self.rss,
            "swque_ipc_ratio_vs_age": _paired_ratio(traffic),
            "fresh_jobs_per_s": median([n / span for n, span in rounds]),
            "fresh_latency_p50_s": median(fresh),
            "fresh_latency_tail_s": tail(fresh)[1],
            "hit_latency_p50_s": median(hits),
        }


def _check(report: Report, session: Session) -> Dict[str, float]:
    """Exactly-once, digests and cache hits; returns durable-state facts."""
    from repro.sim.simulator import simulate

    kind, stack, expected = session.kind, session.stack, session.expected
    traffic, metrics, health = session.traffic, session.metrics, session.health

    report.attempted += len(traffic.fresh) + traffic.refused + len(traffic.hits)
    bad_fresh = [f for f in traffic.fresh if f["digest"] is None or f["cached"]]
    bad_hits = [h for h in traffic.hits if not h["ok"]]
    report.failed += len(bad_fresh) + traffic.refused + len(bad_hits)
    report.check(not bad_fresh, f"{len(bad_fresh)} fresh jobs failed or came "
                 f"from the cache")
    if session.replay:
        report.check(not bad_hits, f"{len(bad_hits)} of {len(traffic.hits)} "
                     f"replayed submits failed, carried the wrong digest or "
                     f"were not answered with the original job")
    else:
        uncached = sum(1 for h in bad_hits
                       if "cached" in h and not h["cached"])
        report.check(not bad_hits, f"{len(bad_hits)} of {len(traffic.hits)} "
                     f"hit requests failed, carried the wrong digest or were "
                     f"not answered from the cache ({uncached} not from the "
                     f"cache)")
    report.check(not traffic.refused, f"{traffic.refused} jobs refused")
    for error in traffic.errors[:5]:
        report.check(False, error)
    report.check(all(d is not None for _, d in expected.values()),
                 "a hit spec failed to compute")
    ids = [f["id"] for f in traffic.fresh]
    report.check(len(set(ids)) == len(ids), "a job id was handed out twice")

    facts = {"totals_lag": 0.0, "duplicate_commits": 0.0}
    if kind == "fleet":
        # One envelope file per job id is the queue's exactly-once
        # record; a second publish attempt for an id is refused and
        # counted as a duplicate commit in the writer's registry entry.
        envelopes = len(list((stack.queue_dir / "results").glob("*.json")))
        missing = [i for i in ids
                   if not (stack.queue_dir / "results" / f"{i}.json").is_file()]
        report.check(not missing, f"{len(missing)} fresh jobs have no envelope")
        facts["totals_lag"] = envelopes - metrics["fleet"]["totals"].get("commits", 0)
        final = [json.loads(p.read_text())
                 for p in (stack.queue_dir / "nodes").glob("*.json")]
        facts["duplicate_commits"] = sum(
            (n.get("counters") or {}).get("duplicate_commits", 0) for n in final)
        report.check(not facts["duplicate_commits"],
                     f"{facts['duplicate_commits']:g} duplicate commits: a "
                     f"second publish for a job id that was already settled")
        report.note(
            f"exactly-once: {envelopes} envelopes, one per job id; "
            f"{facts['duplicate_commits']:g} refused duplicate publishes; "
            f"/metricsz counted {facts['totals_lag']:g} fewer commits than "
            f"envelopes when the last job finished")
    else:
        report.check(health.get("wal_pending", 0) == 0,
                     f"{health.get('wal_pending')} journal records still "
                     f"pending after every job finished")
        computed = metrics["scheduler"].get("completed")
        report.check(computed == len(ids) + len(expected),
                     f"{computed} jobs computed for "
                     f"{len(ids) + len(expected)} fresh submissions")

    # The service's answers must match the simulator run in process.
    samples = list(traffic.fresh[:2])
    samples += [{"spec": s, "digest": d} for s, d in _spec_digests(expected)]
    for sample in samples:
        spec = sample["spec"]
        local = simulate(spec["workload"], spec["policy"],
                         num_instructions=spec["num_instructions"],
                         seed=spec["seed"])
        report.check(local.commit_digest == sample["digest"],
                     f"{_spec_id(spec)}: the service returned digest "
                     f"{sample['digest']}, in-process {local.commit_digest}")
    return facts


def _spec_digests(expected):
    for (workload, policy, seed), (_, digest) in expected.items():
        yield ({"workload": workload, "policy": policy, "seed": seed,
                "num_instructions": JOB_INSTRUCTIONS}, digest)


def _paired_ratio(traffic: Traffic) -> float:
    """Geomean SWQUE/AGE IPC over the first two fresh rounds, whose
    specs are fixed by the seed."""
    ipc = {}
    for f in traffic.fresh:
        stats = (f["result"] or {}).get("stats") or {}
        if f["round"] < 2 and stats.get("cycles"):
            ipc[_spec_id(f["spec"])] = stats["committed"] / stats["cycles"]
    return geomean(
        ipc[(w, "swque", s)] / ipc[(w, "age", s)]
        for (w, p, s) in ipc if p == "age" and (w, "swque", s) in ipc
    )


def _describe(report: Report, session: Session) -> None:
    traffic, host = session.traffic, session.host
    fresh = [f["latency"] for f in traffic.fresh]
    hits = [h["latency"] for h in traffic.hits if "latency" in h]
    report.note(
        f"{session.kind}: {cpu_count()} workers, fsync on; "
        f"{len(traffic.rounds)} fresh rounds of "
        f"{ROUND_SEEDS * len(SPEC_WORKLOADS) * len(POLICIES)} jobs x "
        f"{JOB_INSTRUCTIONS} instructions; hit stream {HIT_RATE:g}/s open "
        f"loop, " + ("replayed submits of computed jobs" if session.replay
                     else "new submits answered from the cache")
    )
    hit_label, hit_tail = tail(hits)
    report.note(f"fresh latency tail is {tail(fresh)[0]} of n={len(fresh)}; "
                f"hit latency {hit_label} of n={len(hits)} is {hit_tail:.6f}s "
                f"as measured (not gated)")
    report.note(
        "host-normalized: round makespans as measured "
        + ", ".join(f"{w.seconds:.3f}s" for _, w in traffic.rounds)
        + "; host slowdown " + ", ".join(
            f"{host.window_factor(w):.3f}" for _, w in traffic.rounds)
    )


def _record(expected, traffic: Traffic) -> Dict[str, object]:
    record: Dict[str, object] = {
        f"digest.hit.{w}/{p}/{s}": d for (w, p, s), (_, d) in expected.items()
    }
    for f in traffic.fresh:
        if f["round"] >= 2:
            continue
        w, p, s = _spec_id(f["spec"])
        record[f"digest.fresh.{w}/{p}/{s}"] = f["digest"]
    record["swque_ipc_ratio_vs_age"] = _paired_ratio(traffic)
    return record


def run(workload: str, seed: int, seconds: float, traced: bool) -> Report:
    kind = "local" if workload == "serve-local" else "fleet"
    replay = workload == "serve-fleet"
    report = Report()
    if traced:
        return _run_traced(report, workload, kind, seed, seconds, replay)
    session = Session(kind, seed, seconds, SETUP_SPAWNS, traced=False,
                      tag="run", replay=replay)
    _check(report, session)
    record = _record(session.expected, session.traffic)
    for problem in check_ledger(workload, seed, record):
        report.check(False, problem)
    report.metrics = session.e2e()
    report.raw = session.e2e(normalized=False)
    _describe(report, session)
    shutil.rmtree(session.stack.root, ignore_errors=True)
    return report


def _run_traced(report: Report, workload: str, kind: str, seed: int,
                seconds: float, replay: bool) -> Report:
    """An untraced session, then a traced one; per-layer numbers come
    from the traced session's spans joined with client timestamps."""
    from tracing import Recorder

    plain = Session(kind, seed, seconds, 1, traced=False, tag="plain",
                    replay=replay)
    session = Session(kind, seed, seconds, 1, traced=True, tag="traced",
                      replay=replay)
    for label, each in (("untraced", plain), ("traced", session)):
        report.note(f"{label} session:")
        first = len(report.problems)
        facts = _check(report, each)
        report.problems[first:] = [f"{label} session: {problem}"
                                   for problem in report.problems[first:]]
    traffic = session.traffic

    rec = Recorder()
    for path in session.stack.span_files:
        part = Recorder.load(path)
        rec.spans.extend(part.spans)
        for name, value in part.counts.items():
            rec.counts[name] += value
    fresh_ids = {f["id"] for f in traffic.fresh}

    def med(name: str, only_fresh: bool = False) -> float:
        values = [s[3] for s in rec.spans
                  if s[0] == name and (not only_fresh or s[1] in fresh_ids)]
        return median(values) if values else 0.0

    busy = [s[3] for s in rec.spans
            if s[0] == "supervisor.busy" and s[1] in fresh_ids]
    makespan = sum(watch.seconds for _, watch in traffic.rounds)
    hits = traffic.hits
    e2e, plain_e2e = session.e2e(), plain.e2e()
    window = traffic.window
    report.metrics = {
        "server.batch_admit_s": median(traffic.batch_admit_s),
        "server.submit_s": median([h["submit_s"] for h in hits if "submit_s" in h]),
        "queue.append_s": med("queue.append"),
        "journal.accept_s": med("journal.accept"),
        "queue.claim_lag_s": med("queue.claim_lag", only_fresh=True),
        "scheduler.queue_wait_s": med("scheduler.queue_wait", only_fresh=True),
        "queue.claim_calls_per_claim": ratio(rec.counts["queue.claim_calls"],
                                             rec.counts["queue.claims"]),
        "supervisor.busy_s": median(busy) if busy else 0.0,
        "supervisor.efficiency": ratio(sum(busy), makespan * cpu_count()),
        "queue.commit_s": med("queue.commit", only_fresh=True),
        "journal.done_s": med("journal.done", only_fresh=True),
        "cache.put_s": med("cache.put"),
        "cache.get_s": med("cache.get"),
        "cache.hit_ratio": ratio(sum(1 for h in hits if h.get("cached")), len(hits)),
        "queue.result_lag_s": median([
            f["received_at"] - f["finished_at"] for f in traffic.fresh
            if f["finished_at"] is not None]),
        "queue.totals_lag": facts["totals_lag"],
        "queue.duplicate_commits": facts["duplicate_commits"],
        "loadgen.lateness_s": tail([h["lateness"] for h in hits])[1],
        "loadgen.hit_latency_tail_s": tail([
            h["latency"] for h in plain.traffic.hits if "latency" in h])[1],
        "trace.overhead_share": ratio(plain_e2e["fresh_jobs_per_s"],
                                      e2e["fresh_jobs_per_s"]) - 1.0,
        "host.slowdown": session.host.window_factor(window),
        "swque_gain_vs_age": e2e["swque_ipc_ratio_vs_age"] - 1.0,
    }
    report.note(
        f"tracing overhead on host-normalized fresh_jobs_per_s: untraced "
        f"{plain_e2e['fresh_jobs_per_s']:.4f}/s, traced "
        f"{e2e['fresh_jobs_per_s']:.4f}/s; hit p50 untraced "
        f"{plain_e2e['hit_latency_p50_s']:.4f}s, traced "
        f"{e2e['hit_latency_p50_s']:.4f}s"
    )
    _describe(report, session)
    for problem in check_ledger(workload, seed,
                                _record(session.expected, traffic)):
        report.check(False, problem)
    shutil.rmtree(session.stack.root, ignore_errors=True)
    shutil.rmtree(plain.stack.root, ignore_errors=True)
    return report
