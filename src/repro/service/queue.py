"""Shared durable job queue: leases, fencing epochs, exactly-once commit.

This is the distributed half of the ROADMAP's fleet item.  PR-6 made a
*single* node crash-safe (supervised process pool + write-ahead
journal); this module makes the *fleet* crash-safe: any number of
stateless API frontends append jobs, any number of worker nodes pull
them, and the only shared substrate is a directory — no broker, no
database, no coordinator process, in the spirit of coordination-free
multi-writer queues (arXiv:2511.09410).  Everything is built from three
filesystem primitives that are atomic on POSIX: ``O_APPEND`` writes,
``os.link`` (exclusive publish), and ``os.replace``.

Layout of a queue directory::

    queue/
      segments/seg-<writer>.jsonl   # append-only job intake, one file per
                                    #   writer (the WAL record format of
                                    #   service/journal.py)
      claims/<job-id>.e<epoch>      # lease files, one per (job, epoch)
      results/<job-id>.json         # committed result envelopes
      nodes/<node-id>.json          # node registry / heartbeat files

The four protocols:

* **Intake** — a frontend appends one self-describing JSON record per
  accepted job to its *own* segment (single writer per file, so appends
  never interleave), flushed and fsync'd before the submission is
  acknowledged.  A crash mid-append leaves a torn trailing record;
  scanners skip it, warn once, and count it — the WAL's torn-record
  discipline (:func:`repro.service.journal.load_records`).

* **Claims** — a worker claims job J at epoch E by publishing
  ``claims/J.e<E>`` via temp-file + ``os.link``: the link either
  creates the name (claim won, content already complete on disk) or
  fails with ``FileExistsError`` (claim lost).  Exactly one node can
  ever hold (J, E).  The claim carries a lease deadline; the holder
  renews it by atomically rewriting its own epoch file (``os.replace``
  onto a name nobody else ever writes).  The epoch lives in the
  *filename*, so even a torn claim body still fences correctly — an
  unparsable claim is treated as expired, counted, never trusted.

* **Reclaim** — a lease that expires un-renewed marks its holder dead
  (``kill -9``, SIGSTOP zombie, network partition from the directory).
  Any node may then claim epoch E+1, inheriting the crash count plus
  one, so a poison job that keeps killing workers is quarantined
  *fleet-wide* after ``max_job_crashes`` losses, exactly as the PR-6
  single-node scheduler quarantines it locally.  A lease released
  gracefully (node drain) requeues without a crash charge.

* **Commit** — exactly-once result publication.  The committer first
  checks the **fencing epoch**: if any claim with a higher epoch exists,
  its lease was reclaimed while it was stalled and the write is refused
  (:class:`FencedWrite`, counted).  The result file itself is published
  with the same exclusive-link idiom, so even the unavoidable
  check-then-act race between a zombie and the new lease holder ends
  with exactly one result file — the loser observes ``FileExistsError``
  and records an idempotent duplicate, never a second commit.

Duplicate submissions from different frontends converge the same way
the in-process scheduler's single-flight map converges them: job
records carry their content-address (:func:`repro.service.cache.cache_key`),
a worker skips a job whose key is already claimed elsewhere, and once
the twin commits, the follower is settled by copying the committed
envelope (``deduped``) instead of re-simulating.
"""

from __future__ import annotations

import json
import os
import time
import threading
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.service.journal import append_record
from repro.telemetry.metrics import CounterSet

#: Bumped whenever segment/claim/result record shapes change.
QUEUE_SCHEMA_VERSION = 1

#: Default lease duration, seconds.  Renewed at a third of this cadence
#: by live holders; a holder silent for longer is presumed dead.
DEFAULT_LEASE_SECONDS = 10.0

#: Default fleet-wide crash budget per job before quarantine (matches
#: the single-node scheduler's DEFAULT_MAX_JOB_CRASHES).
DEFAULT_MAX_JOB_CRASHES = 2

#: A node registry entry older than this is counted as dead.
DEFAULT_NODE_TTL = 15.0

#: Seconds an unterminated segment tail must sit unchanged before it is
#: reported as torn (vs. an append still in flight).
TORN_GRACE_SECONDS = 2.0

#: Claim files of settled jobs are garbage-collected by :meth:`sweep`
#: after this many seconds — kept around first so a late fenced writer
#: is *rejected* (diagnosable) rather than merely deduplicated.
CLAIM_GC_SECONDS = 60.0


class FencedWrite(RuntimeError):
    """A commit was refused because the writer's lease was reclaimed.

    The holder of claim (J, E) attempted to publish a result, but a
    claim (J, E') with E' > E exists: some other node decided this
    writer was dead and took the job over.  The late write must be
    dropped — the new holder owns the outcome now.
    """


@dataclass
class QueueJob:
    """One intake record, as scanned from a segment."""

    id: str
    job: dict
    priority: int = 0
    tenant: str = "default"
    token: Optional[str] = None
    key: Optional[str] = None          # content address (None: uncacheable)
    submitted_at: float = 0.0
    segment: str = ""


@dataclass
class Claim:
    """A lease this process holds on one job at one fencing epoch."""

    job_id: str
    epoch: int
    node: str
    crashes: int
    expires_at: float
    acquired_at: float
    #: Set when a renewal observed a higher epoch: the lease is gone and
    #: any later commit will be fenced.
    lost: bool = field(default=False)


class _SegmentTail:
    """Incremental reader state for one segment file."""

    __slots__ = ("pos", "ino", "partial", "partial_since", "torn_reported")

    def __init__(self) -> None:
        self.pos = 0
        self.ino: Optional[int] = None
        self.partial = b""
        self.partial_since: Optional[float] = None
        self.torn_reported = False


class DurableQueue:
    """One process's handle on a shared queue directory.

    Every handle can both append (frontend role) and claim (worker
    role); the CLI wires one role per process.  All methods are
    thread-safe — the worker node drives :meth:`claim_next` and lease
    renewal from different threads, and a frontend's HTTP handlers call
    :meth:`append`/:meth:`lookup` concurrently.

    ``clock`` is injectable for deterministic lease-expiry tests; it
    must be a wall clock shared by every node on the directory
    (``time.time``), not a per-process monotonic clock.
    """

    def __init__(
        self,
        root: Union[str, Path],
        node_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_job_crashes: int = DEFAULT_MAX_JOB_CRASHES,
        node_ttl: float = DEFAULT_NODE_TTL,
        fsync: bool = True,
        clock: Callable[[], float] = time.time,
        counters: Optional[CounterSet] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_job_crashes < 0:
            raise ValueError("max_job_crashes must be >= 0")
        self.root = Path(root)
        self.node_id = node_id or f"node-{uuid.uuid4().hex[:8]}"
        self.lease_seconds = lease_seconds
        self.max_job_crashes = max_job_crashes
        self.node_ttl = node_ttl
        self.fsync = fsync
        self._clock = clock
        self.counters = counters if counters is not None else CounterSet(
            appended=0,
            claims=0,
            reclaims=0,
            renewals=0,
            lease_lost=0,
            released=0,
            commits=0,
            duplicate_commits=0,
            fenced_rejections=0,
            dedup_settles=0,
            quarantined=0,
            singleflight_skips=0,
            torn_segments=0,
            torn_claims=0,
            torn_records=0,
        )
        self.segments_dir = self.root / "segments"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.nodes_dir = self.root / "nodes"
        for directory in (self.segments_dir, self.claims_dir,
                          self.results_dir, self.nodes_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._segment_path = self.segments_dir / f"seg-{self.node_id}.jsonl"
        self._seq = 0
        self._nonce = uuid.uuid4().hex[:8]
        self._jobs: Dict[str, QueueJob] = {}
        self._tails: Dict[str, _SegmentTail] = {}
        self._settled: set = set()
        self._result_meta: Dict[str, dict] = {}   # id -> light envelope meta
        self._result_keys: Dict[str, str] = {}    # content key -> settled id
        self._claims: Dict[str, dict] = {}        # id -> highest-epoch info
        self._tokens: Dict[str, str] = {}         # idempotency token -> id
        self._torn_claim_files: set = set()

    # -- intake (frontend role) -------------------------------------------------------

    def next_id(self) -> str:
        """A fresh job id, unique across writers and restarts."""
        with self._lock:
            self._seq += 1
            return f"j{self._nonce}-{self._seq:06d}"

    def append(
        self,
        job: dict,
        priority: int = 0,
        tenant: str = "default",
        token: Optional[str] = None,
        key: Optional[str] = None,
        job_id: Optional[str] = None,
    ) -> QueueJob:
        """Durably enqueue one job; returns its intake record.

        The record is on disk (flushed, fsync'd by default) before this
        returns — acknowledging a submission *is* the durability point,
        exactly like the single-node WAL's accept-before-runnable rule.
        """
        with self._lock:
            record_id = job_id or self.next_id()
            entry = QueueJob(
                id=record_id,
                job=job,
                priority=int(priority),
                tenant=tenant,
                token=token,
                key=key,
                submitted_at=self._clock(),
                segment=self._segment_path.name,
            )
            append_record(
                self._segment_path,
                {
                    "op": "job",
                    "schema": QUEUE_SCHEMA_VERSION,
                    "id": entry.id,
                    "job": job,
                    "priority": entry.priority,
                    "tenant": tenant,
                    "token": token,
                    "key": key,
                    "submitted_at": entry.submitted_at,
                },
                fsync=self.fsync,
            )
            self._jobs[entry.id] = entry
            if token:
                self._tokens.setdefault(token, entry.id)
            self.counters.inc("appended")
            return entry

    def compact_segment(self) -> int:
        """Rewrite this writer's own segment without settled jobs.

        Only the segment's owner may compact it (single-writer rule: a
        foreign compactor would race the owner's appends and lose
        acknowledged records).  Returns how many records were dropped.
        Other nodes observe the inode change and rescan from offset 0 —
        re-reading a compacted segment is idempotent.
        """
        with self._lock:
            self.scan()
            keep = [
                entry for entry in self._jobs.values()
                if entry.segment == self._segment_path.name
                and entry.id not in self._settled
            ]
            total = sum(
                1 for entry in self._jobs.values()
                if entry.segment == self._segment_path.name
            )
            lines = [
                json.dumps({
                    "op": "job",
                    "schema": QUEUE_SCHEMA_VERSION,
                    "id": entry.id,
                    "job": entry.job,
                    "priority": entry.priority,
                    "tenant": entry.tenant,
                    "token": entry.token,
                    "key": entry.key,
                    "submitted_at": entry.submitted_at,
                })
                for entry in keep
            ]
            from repro.verify.snapshot import write_bytes_atomic

            write_bytes_atomic(
                "".join(line + "\n" for line in lines).encode("utf-8"),
                self._segment_path,
            )
            # Force a rescan of our own segment from scratch.
            self._tails.pop(self._segment_path.name, None)
            return total - len(keep)

    # -- scanning ---------------------------------------------------------------------

    def scan(self) -> None:
        """Refresh this handle's view of segments, results, and claims."""
        with self._lock:
            self._scan_segments()
            self._scan_results()
            self._scan_claims()

    def _scan_segments(self) -> None:
        try:
            names = sorted(
                entry.name for entry in os.scandir(self.segments_dir)
                if entry.name.endswith(".jsonl")
            )
        except OSError:
            return
        for name in names:
            self._tail_segment(name)

    def _tail_segment(self, name: str) -> None:
        path = self.segments_dir / name
        tail = self._tails.setdefault(name, _SegmentTail())
        try:
            st = path.stat()
        except OSError:
            return
        if tail.ino is not None and (st.st_ino != tail.ino
                                     or st.st_size < tail.pos):
            # Compacted (atomic replace) or truncated: rescan from 0.
            tail.pos = 0
            tail.partial = b""
            tail.partial_since = None
        tail.ino = st.st_ino
        if st.st_size <= tail.pos:
            self._check_torn_tail(name, tail, st)
            return
        try:
            with open(path, "rb") as handle:
                handle.seek(tail.pos)
                data = handle.read()
        except OSError:
            return
        lines = data.split(b"\n")
        partial = lines.pop()              # b"" when data ends on a newline
        consumed = len(data) - len(partial)
        for raw in lines:
            raw = raw.strip()
            if raw:
                self._ingest_line(raw, name)
        tail.pos += consumed
        if partial != tail.partial:
            tail.partial = partial
            tail.partial_since = self._clock() if partial else None
            tail.torn_reported = False
        self._check_torn_tail(name, tail, st)

    def _check_torn_tail(self, name: str, tail: _SegmentTail, st) -> None:
        """Report (once per tear) a trailing partial record that has sat
        unchanged past the grace period: its writer crashed mid-append.
        The bytes stay buffered, not skipped — if the same writer
        somehow appends again, the merged garbage line is dropped by the
        normal parse path and later records are recovered."""
        if (
            tail.partial
            and not tail.torn_reported
            and tail.partial_since is not None
            and self._clock() - tail.partial_since >= TORN_GRACE_SECONDS
        ):
            tail.torn_reported = True
            self.counters.inc("torn_segments")
            warnings.warn(
                f"queue segment {name} ends in a torn record "
                f"({len(tail.partial)} bytes, writer crashed mid-append?); "
                f"it was skipped and costs only the record being written",
                RuntimeWarning,
                stacklevel=2,
            )

    def _ingest_line(self, raw: bytes, segment: str) -> None:
        try:
            record = json.loads(raw)
            if not isinstance(record, dict) or record.get("op") != "job":
                raise ValueError("not a job record")
            entry = QueueJob(
                id=str(record["id"]),
                job=record["job"],
                priority=int(record.get("priority") or 0),
                tenant=str(record.get("tenant") or "default"),
                token=record.get("token"),
                key=record.get("key"),
                submitted_at=float(record.get("submitted_at") or 0.0),
                segment=segment,
            )
        except (ValueError, KeyError, TypeError):
            self.counters.inc("torn_records")
            return
        self._jobs.setdefault(entry.id, entry)
        if entry.token:
            self._tokens.setdefault(str(entry.token), entry.id)

    def _scan_results(self) -> None:
        try:
            names = [
                entry.name for entry in os.scandir(self.results_dir)
                if entry.name.endswith(".json")
            ]
        except OSError:
            return
        for name in names:
            job_id = name[: -len(".json")]
            if job_id in self._settled:
                continue
            meta = self._load_result_meta(job_id)
            if meta is None:
                continue
            self._settled.add(job_id)
            self._result_meta[job_id] = meta
            key = meta.get("key")
            if key:
                self._result_keys.setdefault(key, job_id)

    def _load_result_meta(self, job_id: str) -> Optional[dict]:
        envelope = self.read_result(job_id)
        if envelope is None:
            return None
        return {
            "state": envelope.get("state", "done"),
            "node": envelope.get("node"),
            "epoch": envelope.get("epoch"),
            "key": envelope.get("key"),
            "deduped": bool(envelope.get("deduped")),
            "cached": bool(envelope.get("cached")),
            "committed_at": envelope.get("committed_at"),
        }

    def _scan_claims(self) -> None:
        highest: Dict[str, Tuple[int, str]] = {}
        try:
            entries = list(os.scandir(self.claims_dir))
        except OSError:
            return
        for entry in entries:
            name = entry.name
            if name.startswith(".tmp-"):
                continue
            stem, sep, epoch_text = name.rpartition(".e")
            if not sep or not epoch_text.isdigit():
                continue
            epoch = int(epoch_text)
            current = highest.get(stem)
            if current is None or epoch > current[0]:
                highest[stem] = (epoch, name)
        claims: Dict[str, dict] = {}
        for job_id, (epoch, name) in highest.items():
            claims[job_id] = self._parse_claim(job_id, epoch, name)
        self._claims = claims

    def _parse_claim(self, job_id: str, epoch: int, name: str) -> dict:
        """A claim file's content — or, when torn, a conservative stand-in.

        The epoch came from the *filename* (published atomically by
        ``os.link``), so fencing stays correct even when the body is
        unreadable; the stand-in merely counts as already expired."""
        path = self.claims_dir / name
        try:
            payload = json.loads(path.read_bytes())
            if not isinstance(payload, dict):
                raise ValueError("claim is not an object")
            return {
                "job_id": job_id,
                "epoch": epoch,
                "node": payload.get("node"),
                "crashes": int(payload.get("crashes") or 0),
                "expires_at": float(payload.get("expires_at") or 0.0),
                "released": bool(payload.get("released")),
                "torn": False,
            }
        except OSError:
            # Swept between scandir and read: treat as absent-but-fencing.
            return {"job_id": job_id, "epoch": epoch, "node": None,
                    "crashes": 0, "expires_at": 0.0, "released": True,
                    "torn": False}
        except (ValueError, TypeError):
            if name not in self._torn_claim_files:
                self._torn_claim_files.add(name)
                self.counters.inc("torn_claims")
                warnings.warn(
                    f"queue claim {name} is torn/corrupt; treating it as an "
                    f"expired lease at epoch {epoch} (the epoch in the "
                    f"filename still fences)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return {"job_id": job_id, "epoch": epoch, "node": None,
                    "crashes": 0, "expires_at": 0.0, "released": False,
                    "torn": True}

    # -- claiming (worker role) -------------------------------------------------------

    def _claim_path(self, job_id: str, epoch: int) -> Path:
        return self.claims_dir / f"{job_id}.e{epoch}"

    def _publish_exclusive(self, payload: dict, target: Path) -> bool:
        """Write ``payload`` to a temp file, then ``os.link`` it to
        ``target``: the name appears atomically with complete content,
        and only for exactly one caller."""
        tmp = target.parent / f".tmp-{self.node_id}-{uuid.uuid4().hex[:8]}"
        data = (json.dumps(payload) + "\n").encode("utf-8")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        try:
            os.link(tmp, target)
            return True
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _acquire(self, job_id: str, epoch: int, crashes: int) -> Optional[Claim]:
        now = self._clock()
        claim = Claim(
            job_id=job_id,
            epoch=epoch,
            node=self.node_id,
            crashes=crashes,
            expires_at=now + self.lease_seconds,
            acquired_at=now,
        )
        won = self._publish_exclusive(
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "job_id": job_id,
                "epoch": epoch,
                "node": self.node_id,
                "crashes": crashes,
                "acquired_at": now,
                "expires_at": claim.expires_at,
                "released": False,
            },
            self._claim_path(job_id, epoch),
        )
        return claim if won else None

    def claim_next(self) -> Optional[Tuple[QueueJob, Claim]]:
        """Claim the best runnable job, or None when nothing is claimable.

        Selection order is the scheduler's: priority descending, then
        submission order.  Along the way this performs the fleet
        housekeeping that falls out of claiming: expired leases are
        reclaimed at the next epoch (crash-charged unless released
        gracefully), jobs over the fleet crash budget are quarantined,
        and duplicate submissions of an already-committed content key
        are settled by copy instead of re-execution.
        """
        with self._lock:
            self.scan()
            now = self._clock()
            live_keys = set()
            candidates = []
            for entry in self._jobs.values():
                if entry.id in self._settled:
                    continue
                claim_info = self._claims.get(entry.id)
                if claim_info is not None and claim_info["expires_at"] > now:
                    if entry.key:
                        live_keys.add(entry.key)
                    continue
                candidates.append((entry, claim_info))
            candidates.sort(
                key=lambda pair: (-pair[0].priority,
                                  pair[0].submitted_at, pair[0].id)
            )
            for entry, claim_info in candidates:
                if entry.key:
                    twin = self._result_keys.get(entry.key)
                    if twin is not None:
                        self._settle_from_twin(entry, twin)
                        continue
                    if entry.key in live_keys:
                        self.counters.inc("singleflight_skips")
                        continue
                if claim_info is None:
                    epoch, crashes = 1, 0
                else:
                    epoch = claim_info["epoch"] + 1
                    crashes = claim_info["crashes"] + (
                        0 if claim_info["released"] else 1
                    )
                if crashes > self.max_job_crashes:
                    self._quarantine(entry, epoch, crashes)
                    continue
                claim = self._acquire(entry.id, epoch, crashes)
                if claim is None:
                    continue  # lost the race to another node
                self.counters.inc("claims")
                if claim_info is not None and not claim_info["released"]:
                    self.counters.inc("reclaims")
                if entry.key:
                    live_keys.add(entry.key)
                return entry, claim
            return None

    def _settle_from_twin(self, entry: QueueJob, twin_id: str) -> None:
        """Cross-node single-flight convergence: ``entry`` shares a
        content key with already-committed ``twin_id``, so it settles by
        copying the twin's envelope instead of re-simulating — the
        distributed analogue of the scheduler's dedup follower fan-out."""
        twin = self.read_result(twin_id)
        if twin is None:  # pragma: no cover - settled set said it exists
            return
        outcome = self._publish_result(
            entry.id,
            twin.get("result"),
            state=str(twin.get("state") or "done"),
            node=self.node_id,
            epoch=0,
            key=entry.key,
            deduped=True,
            cached=bool(twin.get("cached")),
        )
        if outcome == "committed":
            self.counters.inc("dedup_settles")

    def renew(self, claim: Claim) -> bool:
        """Refresh a held lease; False when the lease has been reclaimed.

        Renewal rewrites only this claim's own epoch-named file, so it
        can never clobber a successor's claim.  Discovery of a higher
        epoch marks the claim lost — the job keeps running (a safe
        waste: its commit will be fenced), matching the guarantee that
        matters: the *outcome* is decided by the current lease holder.
        """
        with self._lock:
            if claim.lost:
                return False
            self._scan_claims()
            current = self._claims.get(claim.job_id)
            if current is not None and current["epoch"] > claim.epoch:
                claim.lost = True
                self.counters.inc("lease_lost")
                return False
            now = self._clock()
            claim.expires_at = now + self.lease_seconds
            self._rewrite_claim(claim, expires_at=claim.expires_at,
                                released=False)
            self.counters.inc("renewals")
            return True

    def release(self, claim: Claim, crashed: bool = False) -> None:
        """Give a held lease back so the job becomes claimable again.

        ``crashed=True`` charges the job's fleet crash budget (the local
        worker died under it); a graceful release — node drain — does
        not, because the interruption was the node's fault, not the
        job's.
        """
        with self._lock:
            if claim.lost:
                return
            self._rewrite_claim(claim, expires_at=self._clock() - 1.0,
                                released=not crashed)
            self.counters.inc("released")

    def _rewrite_claim(self, claim: Claim, expires_at: float,
                       released: bool) -> None:
        payload = {
            "schema": QUEUE_SCHEMA_VERSION,
            "job_id": claim.job_id,
            "epoch": claim.epoch,
            "node": claim.node,
            "crashes": claim.crashes,
            "acquired_at": claim.acquired_at,
            "expires_at": expires_at,
            "released": released,
        }
        path = self._claim_path(claim.job_id, claim.epoch)
        tmp = self.claims_dir / f".tmp-{self.node_id}-{uuid.uuid4().hex[:8]}"
        data = (json.dumps(payload) + "\n").encode("utf-8")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- commitment -------------------------------------------------------------------

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def commit(
        self,
        claim: Claim,
        result: dict,
        state: str = "done",
        cached: bool = False,
    ) -> str:
        """Publish the result for a claimed job — exactly once, fenced.

        Returns ``"committed"`` or ``"duplicate"`` (the result already
        exists: an idempotent no-op).  Raises :class:`FencedWrite` when
        a higher fencing epoch exists — this writer was presumed dead
        and superseded; its late result must not land.
        """
        with self._lock:
            self._scan_claims()
            current = self._claims.get(claim.job_id)
            if claim.lost or (
                current is not None and current["epoch"] > claim.epoch
            ):
                claim.lost = True
                self.counters.inc("fenced_rejections")
                raise FencedWrite(
                    f"commit of {claim.job_id} at epoch {claim.epoch} "
                    f"rejected: lease reclaimed at epoch "
                    f"{current['epoch'] if current else '?'} "
                    f"(this node was presumed dead)"
                )
            entry = self._jobs.get(claim.job_id)
            return self._publish_result(
                claim.job_id,
                result,
                state=state,
                node=claim.node,
                epoch=claim.epoch,
                key=entry.key if entry is not None else None,
                cached=cached,
            )

    def commit_unclaimed(
        self,
        job_id: str,
        result: dict,
        state: str = "done",
        key: Optional[str] = None,
        deduped: bool = False,
        cached: bool = False,
    ) -> str:
        """Claim-free commitment for results that were never computed
        here: frontend cache hits and dedup settles.  Safe without a
        fence because the payload is a copy of an already-committed (or
        cached) outcome, and the exclusive link still guarantees at most
        one envelope per job id."""
        with self._lock:
            return self._publish_result(
                job_id, result, state=state, node=self.node_id, epoch=0,
                key=key, deduped=deduped, cached=cached,
            )

    def _publish_result(
        self,
        job_id: str,
        result: dict,
        state: str,
        node: Optional[str],
        epoch: int,
        key: Optional[str],
        deduped: bool = False,
        cached: bool = False,
    ) -> str:
        envelope = {
            "schema": QUEUE_SCHEMA_VERSION,
            "job_id": job_id,
            "state": state,
            "node": node,
            "epoch": epoch,
            "key": key,
            "deduped": deduped,
            "cached": cached,
            "committed_at": self._clock(),
            "result": result,
        }
        if not self._publish_exclusive(envelope, self._result_path(job_id)):
            self.counters.inc("duplicate_commits")
            return "duplicate"
        self.counters.inc("commits")
        self._settled.add(job_id)
        self._result_meta[job_id] = {
            "state": state, "node": node, "epoch": epoch, "key": key,
            "deduped": deduped, "cached": cached,
            "committed_at": envelope["committed_at"],
        }
        if key:
            self._result_keys.setdefault(key, job_id)
        return "committed"

    def _quarantine(self, entry: QueueJob, epoch: int, crashes: int) -> None:
        """Settle a poison job fleet-wide: claim it (so concurrent
        quarantiners are arbitrated by the same exclusive-link race),
        then commit a PoisonJob failure."""
        claim = self._acquire(entry.id, epoch, crashes)
        if claim is None:
            return  # a concurrent node is quarantining (or retrying) it
        from repro.sim.results import FailedResult

        job = entry.job if isinstance(entry.job, dict) else {}
        result = FailedResult(
            workload=str(job.get("workload", "?")),
            policy=str(job.get("policy", "?")),
            config=str(job.get("config") or "medium"),
            error_type="PoisonJob",
            error_message=(
                f"quarantined fleet-wide after {crashes} lease losses "
                f"(crashed or dead nodes); last epoch {epoch}"
            ),
            attempts=crashes,
        )
        try:
            self.commit(claim, result.to_dict(), state="quarantined")
            self.counters.inc("quarantined")
        except FencedWrite:  # pragma: no cover - we hold the top epoch
            pass

    # -- lookups (frontend role) ------------------------------------------------------

    def read_result(self, job_id: str) -> Optional[dict]:
        """The committed result envelope for ``job_id``, or None.

        Envelopes are published with complete content (link-after-write),
        so a parse failure means external corruption; it reads as
        not-committed rather than raising.
        """
        path = self._result_path(job_id)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not an object")
            return envelope
        except (ValueError, TypeError):
            self.counters.inc("torn_records")
            return None

    def lookup(self, job_id: str) -> Optional[dict]:
        """A light status record for ``job_id``, or None if unknown.

        States mirror the in-process scheduler's: ``queued`` (intaken,
        no live lease), ``running`` (live lease), or the terminal state
        recorded in the committed envelope.
        """
        with self._lock:
            self.scan()
            meta = self._result_meta.get(job_id)
            entry = self._jobs.get(job_id)
            if meta is not None:
                payload = {
                    "id": job_id,
                    "state": meta["state"],
                    "deduped": meta["deduped"],
                    "cached": meta["cached"],
                    "node": meta["node"],
                    "epoch": meta["epoch"],
                    "key": meta["key"],
                    "finished_at": meta["committed_at"],
                }
                if entry is not None:
                    payload.update(
                        job=entry.job, tenant=entry.tenant,
                        submitted_at=entry.submitted_at,
                    )
                return payload
            if entry is None:
                return None
            claim_info = self._claims.get(job_id)
            running = (
                claim_info is not None
                and claim_info["expires_at"] > self._clock()
            )
            return {
                "id": job_id,
                "state": "running" if running else "queued",
                "deduped": False,
                "cached": False,
                "node": claim_info["node"] if running else None,
                "epoch": claim_info["epoch"] if claim_info else 0,
                "key": entry.key,
                "job": entry.job,
                "tenant": entry.tenant,
                "priority": entry.priority,
                "submitted_at": entry.submitted_at,
                "crashes": claim_info["crashes"] if claim_info else 0,
                "finished_at": None,
            }

    def find_token(self, token: str) -> Optional[str]:
        """The job id a client idempotency token was admitted under, or
        None.  Tokens ride in intake records, so dedup works across
        frontends: a retried POST that lands on a different frontend
        still converges once that frontend's scan has the record."""
        with self._lock:
            if token not in self._tokens:
                self.scan()
            return self._tokens.get(token)

    def wait_settled(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.05
    ) -> Optional[dict]:
        """Block until ``job_id`` commits; returns the envelope or None
        on timeout.  Polling, because the only shared medium is a
        directory — frontends cap the wait server-side."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            envelope = self.read_result(job_id)
            if envelope is not None:
                with self._lock:
                    self._scan_results()
                return envelope
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(poll)

    # -- node registry ----------------------------------------------------------------

    def write_node(self, role: str, payload: Optional[dict] = None) -> None:
        """Publish this node's heartbeat/registry file (atomic)."""
        from repro.verify.snapshot import write_bytes_atomic

        document = {
            "schema": QUEUE_SCHEMA_VERSION,
            "node": self.node_id,
            "role": role,
            "pid": os.getpid(),
            "updated_at": self._clock(),
            "counters": self.counters.snapshot(),
        }
        if payload:
            document.update(payload)
        write_bytes_atomic(
            (json.dumps(document) + "\n").encode("utf-8"),
            self.nodes_dir / f"{self.node_id}.json",
        )

    def remove_node(self) -> None:
        try:
            (self.nodes_dir / f"{self.node_id}.json").unlink()
        except OSError:
            pass

    def fleet(self) -> dict:
        """The fleet view for ``/healthz``/``/metricsz``: who is alive,
        and the cross-node sums of the robustness counters."""
        now = self._clock()
        nodes: List[dict] = []
        sums: Dict[str, int] = {}
        try:
            entries = list(os.scandir(self.nodes_dir))
        except OSError:
            entries = []
        for entry in entries:
            if not entry.name.endswith(".json"):
                continue
            try:
                payload = json.loads(Path(entry.path).read_bytes())
                if not isinstance(payload, dict):
                    raise ValueError
            except (OSError, ValueError, TypeError):
                continue
            age = now - float(payload.get("updated_at") or 0.0)
            alive = age <= self.node_ttl
            nodes.append({
                "node": payload.get("node"),
                "role": payload.get("role"),
                "pid": payload.get("pid"),
                "alive": alive,
                "age_s": round(age, 3),
                "workers": payload.get("workers"),
                "busy": payload.get("busy"),
                "draining": payload.get("draining"),
            })
            for counter in ("claims", "fenced_rejections", "reclaims",
                            "commits", "duplicate_commits", "quarantined",
                            "dedup_settles", "lease_lost", "released"):
                counters = payload.get("counters") or {}
                sums[counter] = sums.get(counter, 0) + int(
                    counters.get(counter) or 0
                )
        nodes.sort(key=lambda n: str(n["node"]))
        return {
            "nodes": nodes,
            "nodes_alive": sum(1 for n in nodes if n["alive"]),
            "workers_alive": sum(
                1 for n in nodes if n["alive"] and n["role"] == "worker"
            ),
            "frontends_alive": sum(
                1 for n in nodes if n["alive"] and n["role"] == "frontend"
            ),
            "totals": sums,
        }

    # -- hygiene ----------------------------------------------------------------------

    def sweep(self, claim_gc_seconds: float = CLAIM_GC_SECONDS) -> dict:
        """Dead-node housekeeping: quarantine jobs over the fleet crash
        budget even when no node wants to claim them (so waiting clients
        see a terminal state, not an eternal requeue loop), and GC claim
        files of long-settled jobs.  Safe to run from any node, any
        number of times."""
        with self._lock:
            self.scan()
            now = self._clock()
            quarantined = 0
            for entry in list(self._jobs.values()):
                if entry.id in self._settled:
                    continue
                claim_info = self._claims.get(entry.id)
                if claim_info is None or claim_info["expires_at"] > now:
                    continue
                crashes = claim_info["crashes"] + (
                    0 if claim_info["released"] else 1
                )
                if crashes > self.max_job_crashes:
                    self._quarantine(entry, claim_info["epoch"] + 1, crashes)
                    quarantined += 1
            removed = 0
            try:
                entries = list(os.scandir(self.claims_dir))
            except OSError:
                entries = []
            for file_entry in entries:
                name = file_entry.name
                stem, sep, epoch_text = name.rpartition(".e")
                if not sep or not epoch_text.isdigit():
                    continue
                if stem not in self._settled:
                    continue
                # Age by the commit stamp (the queue's own clock), not
                # file mtime — clocks must come from one domain.
                meta = self._result_meta.get(stem) or {}
                committed_at = float(meta.get("committed_at") or 0.0)
                if now - committed_at < claim_gc_seconds:
                    continue
                try:
                    os.unlink(file_entry.path)
                    removed += 1
                except OSError:
                    continue
            return {"quarantined": quarantined, "claims_removed": removed}

    # -- introspection ----------------------------------------------------------------

    def pending_count(self) -> int:
        with self._lock:
            self.scan()
            return sum(
                1 for entry in self._jobs.values()
                if entry.id not in self._settled
                and not self._is_running(entry.id)
            )

    def _is_running(self, job_id: str) -> bool:
        claim_info = self._claims.get(job_id)
        return (
            claim_info is not None
            and claim_info["expires_at"] > self._clock()
        )

    def metrics(self) -> dict:
        """Queue occupancy + robustness counters (for ``/metricsz``)."""
        with self._lock:
            self.scan()
            now = self._clock()
            pending = running = 0
            oldest_unclaimed: Optional[float] = None
            for entry in self._jobs.values():
                if entry.id in self._settled:
                    continue
                if self._is_running(entry.id):
                    running += 1
                    continue
                pending += 1
                age = now - entry.submitted_at
                if oldest_unclaimed is None or age > oldest_unclaimed:
                    oldest_unclaimed = age
            snapshot = self.counters.snapshot()
            snapshot.update(
                node=self.node_id,
                pending=pending,
                running=running,
                settled=len(self._settled),
                known_jobs=len(self._jobs),
                segments=len(self._tails),
                oldest_unclaimed_age_s=(
                    round(oldest_unclaimed, 3)
                    if oldest_unclaimed is not None else None
                ),
                lease_seconds=self.lease_seconds,
                max_job_crashes=self.max_job_crashes,
            )
            return snapshot
