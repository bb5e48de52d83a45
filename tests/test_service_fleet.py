"""Fleet integration tests: worker nodes, frontend mode, zombies (ISSUE 7).

The in-process tests wire real :class:`WorkerNode` instances (forked
supervised workers and all) to stateless :class:`ReproService`
frontends over one queue directory.  The subprocess tests drive the
``python -m repro work`` CLI for the two contracts that need a real
process: SIGSTOP-zombie fencing (the node must survive being stalled
past its lease and have its late commit *rejected and counted*) and
graceful SIGINT/SIGTERM drain with exit code 130.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.config import MEDIUM
from repro.service import (
    DurableQueue,
    ReproService,
    ResultCache,
    ServiceClient,
    ServiceError,
    WorkerNode,
    job_to_dict,
    queue_key_for,
)
from repro.sim.harness import SweepJob
from repro.sim.results import SimResult
from repro.sim.simulator import simulate

N = 2500


def job(workload="exchange2", policy="age", num_instructions=N, **kwargs):
    return SweepJob(workload, policy, MEDIUM, num_instructions, **kwargs)


def start_node(queue_dir, cache_dir=None, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("lease_seconds", 5.0)
    kwargs.setdefault("fsync", False)
    node = WorkerNode(queue_dir, cache_dir=cache_dir, **kwargs)
    thread = threading.Thread(target=node.run_forever, daemon=True)
    thread.start()
    return node, thread


def stop_node(node, thread):
    node.drain(timeout=10.0)
    thread.join(timeout=10.0)


class TestWorkerNodeEndToEnd:
    def test_node_executes_and_commits_exactly_once(self, tmp_path):
        queue_dir = tmp_path / "queue"
        frontend = DurableQueue(queue_dir, node_id="fe", fsync=False)
        spec = job()
        entry = frontend.append(job_to_dict(spec), key=queue_key_for(spec))
        node, thread = start_node(queue_dir, cache_dir=tmp_path / "cache")
        try:
            envelope = frontend.wait_settled(entry.id, timeout=90.0)
            assert envelope is not None
            assert envelope["state"] == "done"
            assert envelope["result"]["stats"]["committed"] > 0
            assert envelope["epoch"] == 1
        finally:
            stop_node(node, thread)
        # Exactly one result file; the node's cache holds the entry.
        assert len(list(frontend.results_dir.iterdir())) == 1
        assert node.cache.get(entry.key) is not None

    def test_duplicate_submissions_converge_across_frontends(self, tmp_path):
        queue_dir = tmp_path / "queue"
        fe1 = DurableQueue(queue_dir, node_id="fe1", fsync=False)
        fe2 = DurableQueue(queue_dir, node_id="fe2", fsync=False)
        spec = job(policy="swque")
        key = queue_key_for(spec)
        first = fe1.append(job_to_dict(spec), key=key)
        twin = fe2.append(job_to_dict(spec), key=key)
        node, thread = start_node(queue_dir)
        try:
            env1 = fe1.wait_settled(first.id, timeout=90.0)
            env2 = fe2.wait_settled(twin.id, timeout=90.0)
        finally:
            stop_node(node, thread)
        assert env1["state"] == env2["state"] == "done"
        # One simulated, one settled by copy — not two executions.
        assert {env1["deduped"], env2["deduped"]} == {False, True}
        assert env1["result"] == env2["result"]
        assert node.counters.snapshot()["dispatched"] == 1

    def test_malformed_intake_record_settles_as_failed(self, tmp_path):
        queue_dir = tmp_path / "queue"
        frontend = DurableQueue(queue_dir, node_id="fe", fsync=False)
        entry = frontend.append({"workload": "no-such-workload",
                                 "policy": "age"})
        node, thread = start_node(queue_dir)
        try:
            envelope = frontend.wait_settled(entry.id, timeout=30.0)
        finally:
            stop_node(node, thread)
        assert envelope["state"] == "failed"
        assert envelope["result"]["error_type"] == "MalformedJob"
        assert node.counters.snapshot()["bad_job_records"] == 1


class TestFrontendMode:
    @pytest.fixture
    def fleet(self, tmp_path):
        queue_dir = tmp_path / "queue"
        cache_dir = tmp_path / "cache"
        service = ReproService(
            port=0, queue_dir=queue_dir, cache_dir=cache_dir, fsync=False
        ).start()
        node, thread = start_node(queue_dir, cache_dir=cache_dir)
        client = ServiceClient(service.url)
        yield service, node, client, queue_dir
        stop_node(node, thread)
        service.stop()

    def test_submit_wait_result_roundtrip(self, fleet):
        service, node, client, _ = fleet
        record = client.submit(workload="exchange2", policy="age",
                               num_instructions=N)
        assert record["state"] in ("queued", "running")
        result = client.wait_result(record["id"], timeout=90.0)
        assert isinstance(result, SimResult)
        status = client.status(record["id"])
        assert status["state"] == "done"
        assert status["epoch"] == 1

    def test_health_and_metrics_fleet_view(self, fleet):
        service, node, client, _ = fleet
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            health = client.healthz()
            if health["workers_alive"] >= 1 and health["frontends_alive"] >= 1:
                break
            time.sleep(0.1)
        assert health["mode"] == "frontend"
        assert health["workers_alive"] >= 1
        assert "oldest_unclaimed_age_s" in health
        assert "fenced_rejections" in health
        metrics = client.metricsz()
        assert "queue" in metrics and "fleet" in metrics
        assert "pending" in metrics["queue"]

    def test_unknown_job_is_404(self, fleet):
        _, _, client, _ = fleet
        with pytest.raises(ServiceError) as excinfo:
            client.status("j-no-such")
        assert excinfo.value.status == 404

    def test_warm_cache_submission_is_immediately_done(self, fleet):
        service, node, client, _ = fleet
        first = client.submit(workload="exchange2", policy="age",
                              num_instructions=N, seed=11)
        client.wait_result(first["id"], timeout=90.0)
        again = client.submit(workload="exchange2", policy="age",
                              num_instructions=N, seed=11)
        assert again["state"] == "done"
        assert again["cached"]

    def test_token_replay_across_frontends_returns_same_job(
            self, fleet, tmp_path):
        service, node, client, queue_dir = fleet
        second = ReproService(
            port=0, queue_dir=queue_dir, cache_dir=tmp_path / "cache",
            fsync=False,
        ).start()
        try:
            other = ServiceClient(second.url)
            a = client.submit(workload="exchange2", policy="swque",
                              num_instructions=N, token="tok-same")
            b = other.submit(workload="exchange2", policy="swque",
                             num_instructions=N, token="tok-same")
            assert a["id"] == b["id"]
        finally:
            second.stop()

    def test_backlog_full_is_429(self, tmp_path):
        service = ReproService(
            port=0, queue_dir=tmp_path / "queue", max_backlog=1, fsync=False
        ).start()
        try:
            client = ServiceClient(service.url, max_retries=0)
            client.submit(workload="exchange2", policy="age",
                          num_instructions=N)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(workload="exchange2", policy="circ",
                              num_instructions=N)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
        finally:
            service.stop()


    def test_cache_hit_admit_is_settled_before_a_node_can_claim_it(
            self, tmp_path):
        """A node claiming right after the intake append must find the
        cache hit already committed, not settle it from its committed
        twin (which would refuse the frontend's own commit)."""
        queue_dir, cache_dir = tmp_path / "queue", tmp_path / "cache"
        spec = job(seed=21)
        key = queue_key_for(spec)
        result = simulate(spec.workload, spec.policy,
                          num_instructions=N, seed=21)
        ResultCache(cache_dir).put(key, result, spec)
        # The committed twin: an earlier submission of the same spec.
        node = DurableQueue(queue_dir, node_id="node", fsync=False)
        twin = node.append(job_to_dict(spec), key=key)
        node.commit_unclaimed(twin.id, result.to_dict(), key=key)

        service = ReproService(
            port=0, queue_dir=queue_dir, cache_dir=cache_dir, fsync=False
        ).start()
        try:
            append = service.queue.append

            def append_then_claim(*args, **kwargs):
                entry = append(*args, **kwargs)
                assert node.claim_next() is None
                return entry

            service.queue.append = append_then_claim
            record = service.admit(job_to_dict(spec))
            status = service.status_payload(record["id"])
        finally:
            service.stop()
        duplicates = (
            service.queue.counters.snapshot().get("duplicate_commits", 0)
            + node.counters.snapshot().get("duplicate_commits", 0)
        )
        assert duplicates == 0
        assert status["state"] == "done"
        assert status["cached"] is True


class TestClientIdempotencyTokens:
    class _FlakyTransport(ServiceClient):
        """Drops the first response of every POST as a 503 — the
        double-enqueue scenario the tokens exist for."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, sleep=lambda _s: None, **kwargs)
            self.payloads = []

        def _request_once(self, path, payload=None):
            if payload is not None:
                self.payloads.append(json.loads(json.dumps(payload)))
                if len(self.payloads) == 1:
                    raise ServiceError(503, {"error": "drained mid-flight"})
            return {"id": "j-1", "state": "queued", "jobs": []}

    def test_submit_attaches_one_token_for_all_retries(self):
        client = self._FlakyTransport("http://localhost:1")
        client.submit(workload="exchange2", policy="age")
        assert len(client.payloads) == 2  # original + one retry
        tokens = [p["token"] for p in client.payloads]
        assert tokens[0] == tokens[1]
        assert tokens[0].startswith("tok-")

    def test_explicit_token_is_preserved(self):
        client = self._FlakyTransport("http://localhost:1")
        client.submit(workload="exchange2", policy="age", token="tok-mine")
        assert all(p["token"] == "tok-mine" for p in client.payloads)

    def test_batch_tokens_are_distinct_per_job(self):
        client = self._FlakyTransport("http://localhost:1")
        client.batch([
            {"workload": "exchange2", "policy": "age"},
            {"workload": "exchange2", "policy": "swque"},
        ])
        jobs = client.payloads[-1]["jobs"]
        assert jobs[0]["token"] != jobs[1]["token"]
        retried = client.payloads[0]["jobs"]
        assert [j["token"] for j in retried] == [j["token"] for j in jobs]


# -- subprocess tests: the real `python -m repro work` CLI ---------------------------


def spawn_worker_cli(queue_dir, node_id, lease="1", extra=()):
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "work",
         "--queue-dir", str(queue_dir), "--cache-dir", "none",
         "--workers", "1", "--lease", lease, "--node-id", node_id,
         "--drain-timeout", "5", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


class TestWorkerCli:
    def test_sigint_drains_and_exits_130(self, tmp_path):
        proc = spawn_worker_cli(tmp_path / "queue", "drain-node", lease="5")
        try:
            wait_for(
                lambda: (tmp_path / "queue" / "nodes" /
                         "drain-node.json").exists(),
                30.0, "worker node never registered",
            )
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30.0) == 130
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        output = proc.stdout.read()
        assert "draining" in output

    def test_sigstop_zombie_commit_is_fenced_and_counted(self, tmp_path):
        """The tentpole guarantee, end to end: a node SIGSTOPped past
        its lease loses the job to a reclaimer at a higher epoch; when
        it wakes and tries to commit, the write is rejected by fencing
        and the rejection is visible in its node registry file."""
        queue_dir = tmp_path / "queue"
        frontend = DurableQueue(queue_dir, node_id="fe", fsync=False)
        # Big enough that the zombie cannot finish before the SIGSTOP.
        spec = job(num_instructions=200_000)
        entry = frontend.append(job_to_dict(spec))
        proc = spawn_worker_cli(queue_dir, "zombie", lease="1")
        try:
            claim_path = queue_dir / "claims" / f"{entry.id}.e1"
            wait_for(lambda: claim_path.exists(), 60.0,
                     "zombie never claimed the job")
            os.kill(proc.pid, signal.SIGSTOP)
            time.sleep(1.5)  # let the lease lapse un-renewed
            got = frontend.claim_next()
            assert got is not None, "expired lease was not reclaimable"
            reclaimed, claim = got
            assert reclaimed.id == entry.id
            assert claim.epoch == 2
            assert claim.crashes == 1
            assert frontend.commit(claim, {"winner": "reclaimer"}) == (
                "committed"
            )
            os.kill(proc.pid, signal.SIGCONT)
            node_file = queue_dir / "nodes" / "zombie.json"

            def fenced():
                try:
                    payload = json.loads(node_file.read_text())
                except (OSError, ValueError):
                    return False
                return payload["counters"]["fenced_rejections"] >= 1

            wait_for(fenced, 120.0,
                     "zombie's late commit was never fenced/counted")
            # The reclaimer's result is untouched.
            assert frontend.read_result(entry.id)["result"] == {
                "winner": "reclaimer"
            }
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 130
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGCONT)
                proc.kill()
