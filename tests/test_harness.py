"""Tests for the fault-tolerant sweep harness (repro.sim.harness)."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.config import MEDIUM
from repro.cpu.pipeline import SimulationDiverged
from repro.sim.faults import FaultSpec
from repro.sim.harness import (
    SweepFailed,
    SweepJob,
    load_checkpoint,
    make_grid,
    run_sweep,
    _run_job,
)
from repro.sim.results import (
    FailedResult,
    SimResult,
    stats_from_dict,
    stats_to_dict,
)
from repro.sim.runner import run_policies, run_policies_resilient
from repro.sim.simulator import simulate

N = 3000  # instruction budget: seconds-scale cells


def diverging_job(**kwargs):
    """A cell guaranteed to diverge: a far-too-tight cycle budget."""
    return SweepJob("exchange2", "age", MEDIUM, N, max_cycles=300, **kwargs)


class TestSatellites:
    """The small hardening tasks that ride along with the harness."""

    def test_unknown_policy_is_a_clear_valueerror(self):
        from repro.core.factory import IQ_POLICIES, build_issue_queue

        with pytest.raises(ValueError) as excinfo:
            build_issue_queue("agee", MEDIUM)
        message = str(excinfo.value)
        assert "agee" in message
        for name in IQ_POLICIES:
            assert name in message
        assert "did you mean 'age'" in message

    def test_non_string_policy_is_a_clear_valueerror(self):
        from repro.core.factory import build_issue_queue

        with pytest.raises(ValueError, match="must be a string"):
            build_issue_queue(7, MEDIUM)

    def test_divergence_carries_partial_stats_and_cycles(self):
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate("exchange2", "age", num_instructions=N, max_cycles=300)
        exc = excinfo.value
        assert exc.cycles == 301
        assert exc.partial_stats is not None
        assert exc.partial_stats.cycles >= 300

    @pytest.mark.parametrize("bad", [0, -5])
    def test_simulate_rejects_nonpositive_instructions(self, bad):
        with pytest.raises(ValueError, match="num_instructions must be positive"):
            simulate("exchange2", "age", num_instructions=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_simulate_rejects_nonpositive_max_cycles(self, bad):
        with pytest.raises(ValueError, match="max_cycles must be positive"):
            simulate("exchange2", "age", num_instructions=N, max_cycles=bad)

    def test_simulate_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup_instructions"):
            simulate("exchange2", "age", num_instructions=N,
                     warmup_instructions=-1)


class TestJobsAndValidation:
    def test_make_grid_cross_product_and_keys(self):
        jobs = make_grid(["exchange2", "leela"], ["shift", "age"],
                         num_instructions=N, seed=7)
        assert len(jobs) == 4
        assert len({job.key for job in jobs}) == 4
        assert jobs[0].key == f"exchange2|shift|medium|n={N}|seed=7"

    def test_duplicate_cells_rejected(self):
        job = SweepJob("exchange2", "age", MEDIUM, N)
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            run_sweep([job, job], executor="inline")

    def test_bad_policy_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown IQ policy"):
            run_sweep([SweepJob("exchange2", "nope", MEDIUM, N)])

    def test_bad_budgets_rejected_before_running(self):
        with pytest.raises(ValueError, match="num_instructions"):
            run_sweep([SweepJob("exchange2", "age", MEDIUM, 0)])
        with pytest.raises(ValueError, match="max_cycles"):
            run_sweep([SweepJob("exchange2", "age", MEDIUM, N, max_cycles=0)])
        ok = [SweepJob("exchange2", "age", MEDIUM, N)]
        with pytest.raises(ValueError, match="retries"):
            run_sweep(ok, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            run_sweep(ok, timeout=0)
        with pytest.raises(ValueError, match="executor"):
            run_sweep(ok, executor="threads")


class TestInlineSweep:
    def test_all_cells_succeed(self):
        report = run_sweep(
            make_grid(["exchange2"], ["shift", "age"], num_instructions=N),
            executor="inline",
        )
        assert report.all_ok
        assert len(report.cells) == 2
        assert all(isinstance(r, SimResult) for r in report.cells.values())
        assert report.executed == 2 and report.restored == 0

    def test_failure_is_first_class_data(self):
        report = run_sweep(
            [diverging_job(), SweepJob("exchange2", "shift", MEDIUM, N)],
            executor="inline",
            retries=0,
        )
        assert len(report.failures) == 1 and len(report.successes) == 1
        failure = report.failures[0]
        assert isinstance(failure, FailedResult)
        assert failure.error_type == "SimulationDiverged"
        assert "no convergence" in failure.error_message
        assert "SimulationDiverged" in failure.traceback
        assert failure.cycles == 301
        # The partial progress the exception used to throw away.
        assert failure.partial_stats is not None
        assert failure.partial_stats.cycles >= 300
        assert "FAILED[SimulationDiverged]" in report.summary()

    def test_transient_failures_retry_with_exponential_backoff(self):
        delays = []
        report = run_sweep(
            [diverging_job()],
            executor="inline",
            retries=3,
            backoff=0.25,
            sleep=delays.append,
        )
        failure = report.failures[0]
        assert failure.attempts == 4
        assert delays == [0.25, 0.5, 1.0]

    def test_transient_retry_can_succeed(self):
        calls = []

        def flaky_runner(job, _trace_cache=None):
            calls.append(job.key)
            if len(calls) < 3:
                raise SimulationDiverged("transient wobble")
            return _run_job(job, _trace_cache)

        report = run_sweep(
            [SweepJob("exchange2", "age", MEDIUM, N)],
            executor="inline",
            retries=2,
            backoff=0,
            _job_runner=flaky_runner,
        )
        assert report.all_ok
        assert len(calls) == 3

    def test_nontransient_failures_do_not_retry(self):
        calls = []

        def broken_runner(job, _trace_cache=None):
            calls.append(job.key)
            raise KeyError("model bug")

        report = run_sweep(
            [SweepJob("exchange2", "age", MEDIUM, N)],
            executor="inline",
            retries=5,
            backoff=0,
            _job_runner=broken_runner,
        )
        assert len(calls) == 1
        assert report.failures[0].error_type == "KeyError"

    def test_fail_fast_raises_sweep_failed(self):
        with pytest.raises(SweepFailed):
            run_sweep([diverging_job()], executor="inline", retries=0,
                      fail_fast=True)

    def test_chaos_cell_produces_failed_result(self):
        # An injected crash is permanent (not transient): one attempt.
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("crash", at_cycle=100))
        report = run_sweep([job], executor="inline", retries=2, backoff=0)
        failure = report.failures[0]
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert "injected crash" in failure.error_message


class TestCheckpointResume:
    def grid(self):
        return make_grid(["exchange2", "leela"], ["shift", "age"],
                         num_instructions=N)

    def test_round_trip_restores_identical_results(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = run_sweep(self.grid(), executor="inline", checkpoint=path)
        assert len(path.read_text().splitlines()) == 4

        executed = []

        def counting_runner(job, _trace_cache=None):
            executed.append(job.key)
            return _run_job(job, _trace_cache)

        second = run_sweep(self.grid(), executor="inline", checkpoint=path,
                           resume=True, _job_runner=counting_runner)
        assert executed == []
        assert second.restored == 4 and second.executed == 0
        for key, original in first.cells.items():
            restored = second.cells[key]
            assert restored.ipc == original.ipc
            assert restored.stats.cycles == original.stats.cycles
            assert restored.mode_switches == original.mode_switches

    def test_interrupted_sweep_resumes_only_unfinished_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        # "Kill" the sweep after two of four cells.
        run_sweep(jobs[:2], executor="inline", checkpoint=path)

        executed = []

        def counting_runner(job, _trace_cache=None):
            executed.append(job.key)
            return _run_job(job, _trace_cache)

        report = run_sweep(jobs, executor="inline", checkpoint=path,
                           resume=True, _job_runner=counting_runner)
        assert executed == [jobs[2].key, jobs[3].key]
        assert report.restored == 2 and report.executed == 2
        assert len(report.cells) == 4 and report.all_ok
        # The resumed cells were appended to the same file.
        records, corrupt = load_checkpoint(path)
        assert len(records) == 4 and corrupt == 0

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        run_sweep(jobs[:3], executor="inline", checkpoint=path)
        with open(path, "a") as handle:
            handle.write('{"key": "exchange2|age|medium|n=')  # torn write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = run_sweep(jobs, executor="inline", checkpoint=path,
                               resume=True)
        assert report.corrupt_checkpoint_lines == 1
        assert report.restored == 3 and report.executed == 1
        assert report.all_ok

    def test_torn_line_without_newline_cannot_corrupt_appends(self, tmp_path):
        # The nastier torn write: the final line is cut mid-record with NO
        # trailing newline.  A naive append would concatenate the next
        # record onto it, corrupting BOTH.  Resume compacts the file
        # first, so appended records always start on a fresh line.
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        run_sweep(jobs, executor="inline", checkpoint=path)
        lines = path.read_bytes().splitlines(True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][:37].rstrip(b"\n"))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = run_sweep(jobs, executor="inline", checkpoint=path,
                               resume=True)
        assert report.corrupt_checkpoint_lines == 1
        assert report.restored == 3 and report.executed == 1
        # Every line of the compacted + appended file parses cleanly.
        records, corrupt = load_checkpoint(path)
        assert corrupt == 0
        assert set(records) == {job.key for job in jobs}

    def test_resume_compaction_keeps_records_outside_the_sweep(self, tmp_path):
        # Records for cells not in the current sweep (e.g. a larger
        # earlier grid) must survive compaction.
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        run_sweep(jobs, executor="inline", checkpoint=path)
        run_sweep(jobs[:1], executor="inline", checkpoint=path, resume=True)
        records, corrupt = load_checkpoint(path)
        assert corrupt == 0
        assert set(records) == {job.key for job in jobs}

    def test_checkpoint_records_carry_provenance(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()[:1]
        first = run_sweep(jobs, executor="inline", checkpoint=path)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["effective_seed"] is not None
        assert len(record["config_hash"]) == 16
        assert record["version"]
        assert len(record["commit_digest"]) == 32
        second = run_sweep(jobs, executor="inline", checkpoint=path,
                           resume=True)
        restored = second.cells[jobs[0].key]
        original = first.cells[jobs[0].key]
        assert restored.seed == original.seed
        assert restored.config_hash == original.config_hash
        assert restored.version == original.version
        assert restored.commit_digest == original.commit_digest

    def test_failed_cells_checkpoint_and_restore(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_sweep([diverging_job()], executor="inline", retries=0,
                  checkpoint=path)
        report = run_sweep([diverging_job()], executor="inline", retries=0,
                           checkpoint=path, resume=True)
        assert report.restored == 1 and report.executed == 0
        failure = report.cells[diverging_job().key]
        assert failure.error_type == "SimulationDiverged"
        assert failure.partial_stats is not None
        assert failure.partial_stats.cycles >= 300

    def test_without_resume_checkpoint_is_truncated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        run_sweep(jobs, executor="inline", checkpoint=path)
        run_sweep(jobs[:1], executor="inline", checkpoint=path)
        assert len(path.read_text().splitlines()) == 1

    def test_checkpoint_requires_named_workloads(self, tmp_path):
        from repro.workloads.generator import generate_trace
        from repro.workloads.spec2017 import get_profile

        trace = generate_trace(get_profile("exchange2"), N)
        with pytest.raises(ValueError, match="named workloads"):
            run_sweep([SweepJob(trace, "age", MEDIUM, N)],
                      checkpoint=tmp_path / "sweep.jsonl")

    def test_failed_cell_snapshot_path_round_trips(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        snaps = tmp_path / "snaps"
        run_sweep([diverging_job()], executor="inline", retries=0,
                  checkpoint=path, snapshot_failures=snaps)
        report = run_sweep([diverging_job()], executor="inline", retries=0,
                           checkpoint=path, resume=True,
                           snapshot_failures=snaps)
        failure = report.cells[diverging_job().key]
        assert failure.snapshot_path and failure.snapshot_path.endswith(".snap")
        assert "replay" in failure.summary()

    def test_stats_serialization_round_trip(self):
        result = simulate("exchange2", "swque", num_instructions=N)
        data = json.loads(json.dumps(stats_to_dict(result.stats)))
        rebuilt = stats_from_dict(data)
        assert rebuilt.ipc == result.stats.ipc
        assert rebuilt.as_dict() == result.stats.as_dict()


class TestProcessExecutor:
    """Real isolated-worker behaviour: slowish, so kept to the essentials."""

    def test_success_matches_inline_execution(self):
        jobs = make_grid(["exchange2"], ["age"], num_instructions=N)
        inline = run_sweep(jobs, executor="inline")
        isolated = run_sweep(jobs, executor="process", max_workers=2)
        assert isolated.all_ok
        key = jobs[0].key
        assert isolated.cells[key].ipc == inline.cells[key].ipc

    def test_hung_worker_is_killed_at_the_timeout(self):
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("hang", at_cycle=50, hang_seconds=120))
        report = run_sweep([job], executor="process", timeout=1.5, retries=0)
        failure = report.failures[0]
        assert failure.error_type == "JobTimeout"
        assert "wall-clock" in failure.error_message

    def test_hard_crashed_worker_is_detected(self):
        # os._exit(13) skips the error report, like a segfault or OOM kill.
        job = SweepJob("exchange2", "age", MEDIUM, N,
                       fault=FaultSpec("crash", at_cycle=50, hard=True))
        report = run_sweep([job], executor="process", retries=0)
        failure = report.failures[0]
        assert failure.error_type == "WorkerCrashed"
        assert "exit code" in failure.error_message

    def test_worker_failure_report_crosses_the_process_boundary(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        report = run_sweep([diverging_job()], executor="process", retries=0,
                           checkpoint=path)
        failure = report.failures[0]
        assert failure.error_type == "SimulationDiverged"
        assert failure.partial_stats is not None
        assert failure.partial_stats.cycles >= 300
        records, _ = load_checkpoint(path)
        assert records[diverging_job().key]["status"] == "failed"

    def test_failure_snapshot_crosses_the_process_boundary(self, tmp_path):
        from repro.verify.replay import replay

        snaps = tmp_path / "snaps"
        report = run_sweep([diverging_job()], executor="process", retries=0,
                           snapshot_failures=snaps)
        failure = report.failures[0]
        assert failure.snapshot_path is not None
        outcome = replay(failure.snapshot_path, cycles=10, trace=False)
        assert outcome.cycles_run == 10  # the artifact restores and steps

    def test_job_runner_runs_in_the_workers_and_a_crash_is_retried(
        self, tmp_path
    ):
        marker = tmp_path / "crashed-once"

        def crash_once(job, _trace_cache=None):
            # First attempt dies like a segfault; the retry succeeds.
            if not marker.exists():
                marker.touch()
                os._exit(13)
            return _run_job(job, _trace_cache)

        retried = []
        job = SweepJob("exchange2", "age", MEDIUM, N)
        report = run_sweep(
            [job], executor="process", retries=1, backoff=0,
            _job_runner=crash_once,
            on_retry=lambda j, attempt, error_type: retried.append(error_type),
        )
        assert report.all_ok
        assert report.retried == 1
        assert retried == ["WorkerCrashed"]

    def test_fail_fast_leaves_no_live_workers(self):
        # The long cell is still running when the diverging one fails.
        long_job = SweepJob("exchange2", "age", MEDIUM, 20 * N)
        with pytest.raises(SweepFailed):
            run_sweep([long_job, diverging_job()], executor="process",
                      max_workers=2, retries=0, fail_fast=True)
        assert multiprocessing.active_children() == []


class TestRunnersOnTheHarness:
    def test_run_policies_contract_preserved(self):
        results = run_policies(["exchange2"], ["shift", "rand"],
                               num_instructions=N, seed=3)
        assert set(results) == {"exchange2"}
        assert list(results["exchange2"]) == ["shift", "rand"]
        assert all(r.ipc > 0 for r in results["exchange2"].values())

    def test_run_policies_shares_one_trace_per_workload(self):
        results = run_policies(["exchange2"], ["shift", "age"],
                               num_instructions=N)
        a, b = results["exchange2"].values()
        # Identical instruction streams: identical committed counts.
        assert a.stats.committed == b.stats.committed
        assert a.num_instructions == b.num_instructions == N

    def test_run_policies_reraises_the_original_error(self):
        # The unknown-benchmark KeyError surfaces from inside a cell;
        # fail-fast mode must re-raise it, not wrap it in SweepFailed.
        with pytest.raises(KeyError, match="unknown benchmark"):
            run_policies(["nosuchbench"], ["age"], num_instructions=N)

    def test_run_policies_resilient_returns_report(self):
        report = run_policies_resilient(["exchange2"], ["age"],
                                        num_instructions=N)
        assert report.all_ok
        nested = report.by_workload()
        assert nested["exchange2"]["age"].ipc > 0


class TestGracefulInterrupt:
    """SIGINT/SIGTERM yield a flushed partial report, not a mid-write death."""

    def grid(self):
        return make_grid(["exchange2", "leela"], ["age"], num_instructions=N)

    def interrupt_on_second(self):
        calls = []

        def runner(job, _trace_cache=None):
            calls.append(job.key)
            if len(calls) == 2:
                raise KeyboardInterrupt("simulated Ctrl-C")
            return _run_job(job, _trace_cache)

        return runner

    def test_partial_report_with_flushed_checkpoint(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        report = run_sweep(jobs, executor="inline", checkpoint=path,
                           _job_runner=self.interrupt_on_second())
        assert report.interrupted
        assert list(report.cells) == [jobs[0].key]   # only the finished cell
        assert report.cells[jobs[0].key].ok
        assert "interrupted" in report.summary()
        # The checkpoint was flushed and is cleanly parseable.
        records, corrupt = load_checkpoint(path)
        assert corrupt == 0
        assert set(records) == {jobs[0].key}

    def test_interrupted_sweep_resumes_to_completion(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = self.grid()
        run_sweep(jobs, executor="inline", checkpoint=path,
                  _job_runner=self.interrupt_on_second())
        report = run_sweep(jobs, executor="inline", checkpoint=path,
                           resume=True)
        assert not report.interrupted
        assert report.restored == 1 and report.executed == 1
        assert report.all_ok and len(report.cells) == 2

    def test_report_round_trips_interrupted_flag(self):
        report = run_sweep(self.grid(), executor="inline",
                           _job_runner=self.interrupt_on_second())
        from repro.sim.harness import SweepReport

        rebuilt = SweepReport.from_dict(report.to_dict())
        assert rebuilt.interrupted

    def test_real_sigterm_is_handled_gracefully(self, tmp_path):
        import os
        import signal

        path = tmp_path / "sweep.jsonl"
        calls = []

        def terminating_runner(job, _trace_cache=None):
            result = _run_job(job, _trace_cache)
            calls.append(job.key)
            if len(calls) == 1:
                os.kill(os.getpid(), signal.SIGTERM)
            return result

        report = run_sweep(self.grid(), executor="inline", checkpoint=path,
                           _job_runner=terminating_runner)
        assert report.interrupted
        assert len(report.cells) < 2
        records, corrupt = load_checkpoint(path)
        assert corrupt == 0
        # The handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_handlers_restored_after_clean_sweep(self):
        import signal

        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        run_sweep(self.grid()[:1], executor="inline")
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
