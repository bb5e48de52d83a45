"""End-to-end tests for simulation-as-a-service (repro.service).

The acceptance demos live here: two identical submissions simulate once
(single-flight), a server restart followed by the same submission is a
warm-cache hit with no re-simulation, and a drain shutdown under load
completes every accepted job or persists it as retryable.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.config import MEDIUM
from repro.service import (
    BacklogFull,
    JobJournal,
    JobScheduler,
    ReproService,
    ResultCache,
    SchedulerClosed,
    ServiceClient,
    ServiceError,
    UnknownJob,
    job_from_dict,
    job_to_dict,
)
from repro.sim.harness import SweepJob, _run_job
from repro.sim.results import SimResult
from repro.sim.simulator import simulate

N = 2500


def job(workload="exchange2", policy="age", **kwargs):
    return SweepJob(workload, policy, MEDIUM, N, **kwargs)


class GateRunner:
    """A job runner whose FIRST execution blocks until released — the
    deterministic way to hold the (single) worker busy while more
    submissions land.  Counts every execution."""

    def __init__(self):
        self.calls = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, sweep_job, _trace_cache=None):
        self.calls.append(sweep_job.key)
        if len(self.calls) == 1:
            self.entered.set()
            assert self.release.wait(timeout=60), "gate never released"
        return _run_job(sweep_job, _trace_cache)


def wait_state(scheduler, job_id, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if scheduler.record(job_id).state == state:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"job {job_id} never reached {state!r} "
        f"(is {scheduler.record(job_id).state!r})"
    )


class TestJobWireFormat:
    def test_round_trip(self):
        original = job(seed=7, max_cycles=90_000)
        rebuilt = job_from_dict(json.loads(json.dumps(job_to_dict(original))))
        assert rebuilt == original

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            job_from_dict({"workload": "gcc", "policy": "age"})

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown IQ policy"):
            job_from_dict({"workload": "xz", "policy": "lifo"})

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown processor config"):
            job_from_dict({"workload": "xz", "policy": "age",
                           "config": "xlarge"})

    def test_non_integer_budget_rejected(self):
        with pytest.raises(ValueError, match="num_instructions"):
            job_from_dict({"workload": "xz", "policy": "age",
                           "num_instructions": "many"})


class TestSchedulerCore:
    def test_result_matches_direct_simulation(self, tmp_path):
        scheduler = JobScheduler(cache=ResultCache(tmp_path), workers=1)
        try:
            record = scheduler.submit(job())
            result = scheduler.result(record.id, wait=True, timeout=120)
            direct = simulate("exchange2", "age", num_instructions=N)
            assert isinstance(result, SimResult)
            assert result.ipc == direct.ipc
            assert result.commit_digest == direct.commit_digest
        finally:
            scheduler.shutdown()

    def test_single_flight_identical_submissions_simulate_once(self, tmp_path):
        """Acceptance: two identical `submit` calls simulate once."""
        runner = GateRunner()
        scheduler = JobScheduler(
            cache=ResultCache(tmp_path), workers=1, job_runner=runner
        )
        try:
            first = scheduler.submit(job())
            assert runner.entered.wait(timeout=30)
            second = scheduler.submit(job())     # identical, while in flight
            assert second.deduped and not second.cached
            runner.release.set()
            result_a = scheduler.result(first.id, wait=True, timeout=120)
            result_b = scheduler.result(second.id, wait=True, timeout=120)
            assert result_a is result_b          # literally the same object
            assert result_a.ok
            assert len(runner.calls) == 1        # one simulation, ever
            metrics = scheduler.metrics()
            assert metrics["deduped"] == 1
            assert metrics["submitted"] == 2
            assert metrics["completed"] == 1
        finally:
            scheduler.shutdown()

    def test_priority_orders_the_backlog(self, tmp_path):
        runner = GateRunner()
        scheduler = JobScheduler(workers=1, job_runner=runner)
        try:
            blocker = scheduler.submit(job())
            assert runner.entered.wait(timeout=30)
            low = scheduler.submit(job(policy="shift"), priority=0)
            high = scheduler.submit(job(policy="swque"), priority=10)
            runner.release.set()
            scheduler.result(low.id, wait=True, timeout=120)
            scheduler.result(high.id, wait=True, timeout=120)
            # The high-priority cell ran before the earlier-submitted low one.
            assert runner.calls[1] == high.job.key
            assert runner.calls[2] == low.job.key
            assert scheduler.record(blocker.id).terminal
        finally:
            scheduler.shutdown()

    def test_backpressure_rejects_when_backlog_full(self):
        runner = GateRunner()
        scheduler = JobScheduler(workers=1, max_backlog=2, job_runner=runner)
        try:
            scheduler.submit(job())              # occupies the worker
            assert runner.entered.wait(timeout=30)
            # Priority > 0 bypasses the shed watermark, so these two hit
            # the hard backlog bound itself.
            scheduler.submit(job(policy="shift"), priority=1)
            scheduler.submit(job(policy="swque"), priority=1)
            with pytest.raises(BacklogFull, match="backlog full"):
                scheduler.submit(job(policy="circ"), priority=1)
            assert scheduler.metrics()["rejected_backlog"] == 1
        finally:
            runner.release.set()
            scheduler.shutdown()

    def test_load_shedding_rejects_low_priority_past_watermark(self):
        runner = GateRunner()
        scheduler = JobScheduler(workers=1, max_backlog=4, job_runner=runner,
                                 shed_watermark=0.5)
        try:
            scheduler.submit(job())              # occupies the worker
            assert runner.entered.wait(timeout=30)
            scheduler.submit(job(policy="shift"))
            scheduler.submit(job(policy="swque"))
            # 2 queued >= 0.5 * 4: priority-0 work is shed...
            with pytest.raises(BacklogFull, match="load shedding"):
                scheduler.submit(job(policy="circ"))
            # ...but urgent work is still admitted.
            urgent = scheduler.submit(job(policy="circ"), priority=5)
            assert urgent.state == "queued"
            assert scheduler.metrics()["shed"] == 1
        finally:
            runner.release.set()
            scheduler.shutdown()

    def test_submit_after_shutdown_is_rejected(self):
        scheduler = JobScheduler(workers=1)
        scheduler.shutdown()
        with pytest.raises(SchedulerClosed):
            scheduler.submit(job())

    def test_unknown_job_id(self):
        scheduler = JobScheduler(workers=1)
        try:
            with pytest.raises(UnknownJob):
                scheduler.record("j999999")
        finally:
            scheduler.shutdown()

    def test_harness_failure_becomes_failed_record(self):
        # A diverging cell: the harness retries, then reports FailedResult.
        scheduler = JobScheduler(workers=1, retries=0)
        try:
            record = scheduler.submit(job(max_cycles=300))
            result = scheduler.result(record.id, wait=True, timeout=120)
            assert not result.ok
            assert result.error_type == "SimulationDiverged"
            assert scheduler.record(record.id).state == "failed"
            assert scheduler.metrics()["failed"] == 1
        finally:
            scheduler.shutdown()


class TestDrainAndSpill:
    def test_drain_completes_every_accepted_job(self):
        """Acceptance: drain shutdown under load completes accepted work."""
        scheduler = JobScheduler(workers=2)
        records = [
            scheduler.submit(job(policy=policy))
            for policy in ("shift", "age", "circ", "swque")
        ]
        outcome = scheduler.shutdown(drain=True)
        assert outcome == {"drained": True, "spilled": 0}
        for record in records:
            assert scheduler.record(record.id).state == "done"
            assert scheduler.record(record.id).result.ok

    def test_drain_timeout_leaves_queued_jobs_retryable_in_the_journal(
        self, tmp_path
    ):
        """Acceptance: what drain cannot finish is persisted, not lost."""
        wal = tmp_path / "jobs.wal"
        runner = GateRunner()
        scheduler = JobScheduler(workers=1, journal=wal, job_runner=runner)
        running = scheduler.submit(job())
        assert runner.entered.wait(timeout=30)
        queued = [
            scheduler.submit(job(policy="shift"), priority=3),
            scheduler.submit(job(policy="swque")),
        ]
        outcome = {}
        shutdown = threading.Thread(
            target=lambda: outcome.update(
                scheduler.shutdown(drain=True, timeout=0.2)
            )
        )
        shutdown.start()
        time.sleep(0.8)                   # let the drain window expire
        runner.release.set()              # now let the running job finish
        shutdown.join(timeout=120)
        assert not shutdown.is_alive()
        assert outcome == {"drained": False, "spilled": 2}
        # The running job completed; the queued ones are retryable, and
        # their accepts are still in the journal on disk.
        assert scheduler.record(running.id).state == "done"
        for record in queued:
            assert scheduler.record(record.id).state == "retryable"
        pending, _, _ = JobJournal(wal).recover()
        assert {p["job"]["policy"] for p in pending} == {"shift", "swque"}
        assert {p["priority"] for p in pending} == {3, 0}

        # A fresh scheduler on the same journal picks them up and runs them.
        journal = JobJournal(wal)
        recovered_scheduler = JobScheduler(
            workers=1, journal=journal, job_runner=_run_job
        )
        try:
            summary = recovered_scheduler.recover_journal()
            assert summary["recovered"] == 2
            assert recovered_scheduler.drain(timeout=120)
            metrics = recovered_scheduler.metrics()
            assert metrics["completed"] == 2
            assert metrics["recovered"] == 2
            assert journal.pending_count() == 0
        finally:
            recovered_scheduler.shutdown()

    def test_corrupt_journal_entries_are_skipped(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        good = {"op": "accept", "id": "j1", "job": job_to_dict(job())}
        unknown = {"op": "accept", "id": "j2",
                   "job": {"workload": "gcc", "policy": "age"}}
        wal.write_text(
            json.dumps(good) + "\n"
            + '{"op": "accept", "id": "j3", "jo\n'    # torn record
            + json.dumps(unknown) + "\n"
        )
        journal = JobJournal(wal)
        scheduler = JobScheduler(workers=1, journal=journal,
                                 job_runner=_run_job)
        try:
            with pytest.warns(RuntimeWarning, match="torn"):
                summary = scheduler.recover_journal()
            assert summary["recovered"] == 1
            assert summary["torn"] == 1
            assert summary["skipped"] == 1    # the unknown workload
            assert scheduler.metrics()["journal_corrupt_entries"] == 1
            assert scheduler.drain(timeout=120)
            assert scheduler.metrics()["completed"] == 1
            assert journal.pending_count() == 0
        finally:
            scheduler.shutdown()


@pytest.fixture
def service(tmp_path):
    """A running service on an ephemeral port, drained at teardown."""
    svc = ReproService(cache_dir=tmp_path / "cache", workers=2).start()
    try:
        yield svc
    finally:
        svc.stop(drain=True, timeout=30)


class TestHttpApi:
    def test_healthz(self, service):
        health = ServiceClient(service.url).wait_healthy()
        assert health["status"] == "ok"
        assert health["version"]

    def test_submit_status_result_flow(self, service):
        client = ServiceClient(service.url)
        record = client.submit(workload="exchange2", policy="age",
                               num_instructions=N)
        assert record["state"] in ("queued", "running", "done")
        result = client.wait_result(record["id"])
        assert result.ok and result.ipc > 0
        status = client.status(record["id"])
        assert status["state"] == "done"
        assert "result" not in status     # status stays light

    def test_second_identical_submission_is_a_cache_hit(self, service):
        client = ServiceClient(service.url)
        first = client.submit(workload="exchange2", policy="swque",
                              num_instructions=N)
        client.wait_result(first["id"])
        second = client.submit(workload="exchange2", policy="swque",
                               num_instructions=N)
        assert second["state"] == "done" and second["cached"]
        metrics = client.metricsz()
        assert metrics["cache"]["hits"] >= 1
        assert metrics["scheduler"]["cache_hits"] >= 1

    def test_batch_admits_independently(self, service):
        client = ServiceClient(service.url)
        records = client.batch([
            {"workload": "exchange2", "policy": "age",
             "num_instructions": N},
            {"workload": "gcc", "policy": "age"},          # unknown: 400
            {"workload": "exchange2", "policy": "shift",
             "num_instructions": N},
        ])
        assert "id" in records[0] and "id" in records[2]
        assert records[1]["status"] == 400
        assert "unknown workload" in records[1]["error"]
        for admitted in (records[0], records[2]):
            assert ServiceClient(service.url).wait_result(admitted["id"]).ok

    def test_pending_result_is_202_without_wait(self, tmp_path):
        runner = GateRunner()
        svc = ReproService(cache_dir=None, workers=1, job_runner=runner).start()
        try:
            client = ServiceClient(svc.url)
            client.wait_healthy()
            record = client.submit(workload="exchange2", policy="age",
                                   num_instructions=N)
            assert runner.entered.wait(timeout=30)
            pending = client.result(record["id"])     # no wait: still running
            assert pending["state"] == "running"
            assert "result" not in pending
        finally:
            runner.release.set()
            svc.stop(drain=True, timeout=60)

    def test_api_errors(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(workload="gcc", policy="age")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("/nowhere")
        assert excinfo.value.status == 404

    def test_backlog_full_maps_to_429(self, tmp_path):
        runner = GateRunner()
        svc = ReproService(cache_dir=None, workers=1, max_backlog=1,
                           job_runner=runner).start()
        try:
            client = ServiceClient(svc.url)
            client.wait_healthy()
            client.submit(workload="exchange2", policy="age",
                          num_instructions=N)
            assert runner.entered.wait(timeout=30)
            client.submit(workload="exchange2", policy="shift",
                          num_instructions=N)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(workload="exchange2", policy="swque",
                              num_instructions=N)
            assert excinfo.value.status == 429
        finally:
            runner.release.set()
            svc.stop(drain=True, timeout=60)

    def test_metricsz_exports_all_three_counter_groups(self, service):
        metrics = ServiceClient(service.url).metricsz()
        assert metrics["server"]["requests"] >= 1
        for key in ("submitted", "completed", "deduped", "queued",
                    "cycles_per_sec", "workers"):
            assert key in metrics["scheduler"]
        for key in ("hits", "misses", "stores", "evictions", "entries",
                    "bytes"):
            assert key in metrics["cache"]


class TestWarmRestart:
    def test_restart_serves_from_cache_without_resimulating(self, tmp_path):
        """Acceptance: restart + same submission = warm hit, no sim."""
        cache_dir = tmp_path / "cache"
        spec = dict(workload="exchange2", policy="swque", num_instructions=N)

        first_service = ReproService(cache_dir=cache_dir, workers=1).start()
        client = ServiceClient(first_service.url)
        client.wait_healthy()
        record = client.submit(**spec)
        original = client.wait_result(record["id"])
        first_service.stop(drain=True, timeout=60)

        # A fresh process, same cache directory.  The counting runner
        # proves no simulation happens: it is never invoked.
        runner = GateRunner()
        second_service = ReproService(
            cache_dir=cache_dir, workers=1, job_runner=runner
        ).start()
        try:
            client = ServiceClient(second_service.url)
            client.wait_healthy()
            rerun = client.submit(**spec)
            assert rerun["state"] == "done" and rerun["cached"]
            served = client.wait_result(rerun["id"])
            assert served.to_dict() == original.to_dict()
            assert runner.calls == []            # zero re-simulation
            assert client.metricsz()["cache"]["hits"] >= 1
        finally:
            second_service.stop(drain=True, timeout=30)
