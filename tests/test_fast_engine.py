"""Fast-engine equivalence: the fast core must be bit-identical.

The fast engine (``simulate(..., fast=True)``) differs from the
reference engine in exactly one observable-free way: it jumps over
provably dead cycles, replaying their bookkeeping in bulk.  These tests
enforce the equivalence contract from every angle:

* every IQ policy, on both an INT and an FP workload, produces the same
  commit digest, the same statistics, and the same telemetry time series
  and event stream on both engines;
* snapshots fire at the same cycles — including snapshots replicated
  *inside* a fast-forward jump — and a snapshot taken by one engine
  resumes bit-identically on the other;
* the guard layer's modes (``full`` / ``sampled`` / ``off``) validate,
  default correctly (full under fault injection, sampled otherwise), and
  sampled guards still catch persistent structural corruption.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MEDIUM, SMALL, get_config
from repro.core.base import GUARD_SAMPLE_PERIOD, InvariantViolation
from repro.core.factory import IQ_POLICIES, build_issue_queue
from repro.cpu.pipeline import Pipeline
from repro.cpu.stats import PipelineStats
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.simulator import simulate
from repro.telemetry import Telemetry, TelemetryConfig
from repro.verify import load_snapshot, resume_to_result
from repro.verify.snapshot import snapshot_bytes
from repro.workloads.generator import generate_trace
from repro.workloads.spec2017 import get_profile

N = 2500  # instruction budget: seconds-scale per policy pair


def run(policy, workload="exchange2", fast=False, n=N, seed=None, **kwargs):
    """One telemetry-attached run; telemetry makes equivalence stricter
    (interval boundaries and event cycles must line up, not just totals).
    """
    return simulate(
        workload,
        policy,
        num_instructions=n,
        seed=seed,
        fast=fast,
        telemetry=Telemetry(TelemetryConfig(interval=500)),
        **kwargs,
    )


def assert_equivalent(reference, fast):
    """The full bit-identity contract between the two engines."""
    assert fast.commit_digest == reference.commit_digest
    assert fast.stats.as_dict() == reference.stats.as_dict()
    ref_tel, fast_tel = reference.telemetry, fast.telemetry
    assert [s.as_dict() for s in fast_tel.samples] == [
        s.as_dict() for s in ref_tel.samples
    ]
    assert [e.as_dict() for e in fast_tel.events] == [
        e.as_dict() for e in ref_tel.events
    ]


def build_pipeline(policy="swque", workload="mcf", n=N, config=MEDIUM, **kwargs):
    trace = generate_trace(get_profile(workload), n)
    stats = PipelineStats()
    iq = build_issue_queue(policy, config, stats=stats, trace=trace)
    return Pipeline(trace, config, iq, stats=stats, **kwargs)


class TestLockstepEquivalence:
    """Both engines, every policy, INT and FP workloads."""

    @pytest.mark.parametrize("workload", ["exchange2", "nab"])
    @pytest.mark.parametrize("policy", IQ_POLICIES)
    def test_fast_matches_reference(self, policy, workload):
        assert_equivalent(
            run(policy, workload, fast=False), run(policy, workload, fast=True)
        )

    def test_fast_matches_reference_on_small_config(self):
        reference = run("swque", "mcf", fast=False, config=SMALL)
        fast = run("swque", "mcf", fast=True, config=SMALL)
        assert reference.config == "small" == fast.config
        assert_equivalent(reference, fast)

    def test_small_config_is_registered(self):
        assert get_config("small") is SMALL
        assert SMALL.iq_entries < MEDIUM.iq_entries

    def test_fast_matches_reference_under_lockstep_oracle(self):
        # verify=True runs the golden model on every commit; the fast
        # engine must not perturb the commit stream it checks.
        reference = run("swque", "mcf", fast=False, verify=True)
        fast = run("swque", "mcf", fast=True, verify=True)
        assert_equivalent(reference, fast)


class TestFastForwardEngages:
    """The fast path must actually fire, not vacuously pass equivalence."""

    def test_dead_cycles_are_skipped_on_a_memory_bound_run(self):
        # mcf's dependent-miss chains leave long dead stretches; if the
        # engine never jumps, the speed claim is untested dead code.
        pipeline = build_pipeline(fast=True)
        pipeline.run(warmup_instructions=0)
        assert pipeline.ff_jumps > 0
        assert pipeline.ff_skipped_cycles > pipeline.ff_jumps

    def test_reference_engine_never_jumps(self):
        pipeline = build_pipeline(fast=False)
        pipeline.run(warmup_instructions=0)
        assert pipeline.ff_jumps == 0
        assert pipeline.ff_skipped_cycles == 0

    def test_fast_is_disabled_while_faults_are_attached(self):
        # Injected corruption can revive a "dead" cycle, so the flag is
        # ignored rather than trusted.
        pipeline = build_pipeline(
            fast=True,
            faults=FaultInjector(FaultSpec("crash", at_cycle=10**9)),
        )
        assert pipeline.fast is False

    def test_telemetry_bulk_accounting_is_exact_across_intervals(self):
        # Interval close + occupancy histogram bulk math is where an
        # off-by-one would hide; a fine interval forces many closes
        # inside fast-forwarded spans.
        reference = simulate(
            "mcf", "swque", num_instructions=N, fast=False,
            telemetry=Telemetry(TelemetryConfig(interval=137)),
        )
        fast = simulate(
            "mcf", "swque", num_instructions=N, fast=True,
            telemetry=Telemetry(TelemetryConfig(interval=137)),
        )
        assert_equivalent(reference, fast)


class TestGuardModes:
    def test_invalid_guard_mode_is_rejected(self):
        with pytest.raises(ValueError, match="guards"):
            build_pipeline(guards="paranoid")

    def test_default_is_sampled_without_faults(self):
        pipeline = build_pipeline()
        assert pipeline.guards == "sampled"
        assert pipeline.iq.guards == "sampled"

    def test_default_is_full_with_faults(self):
        pipeline = build_pipeline(
            faults=FaultInjector(FaultSpec("crash", at_cycle=10**9))
        )
        assert pipeline.guards == "full"
        assert pipeline.iq.guards == "full"

    def test_explicit_guards_propagate_to_swque_subqueues(self):
        pipeline = build_pipeline(policy="swque", guards="full")
        iq = pipeline.iq
        assert iq.guards == "full"
        assert iq._circ_pc.guards == "full"
        assert iq._age.guards == "full"

    def test_guard_mode_does_not_change_results(self):
        digests = set()
        for guards in ("full", "sampled"):
            pipeline = build_pipeline(
                policy="swque", workload="exchange2", guards=guards
            )
            pipeline.run(warmup_instructions=0)
            digests.add(pipeline.commit_digest.hexdigest())
        assert len(digests) == 1

    def test_sampled_guards_catch_persistent_corruption(self):
        # Sampled mode trades latency, not coverage: corruption that
        # persists must still trip within one sample period.
        pipeline = build_pipeline(policy="age", workload="exchange2",
                                  guards="sampled")
        for _ in range(50):
            pipeline.step()
        pipeline.iq.occupancy = pipeline.iq.size + 3
        with pytest.raises(InvariantViolation) as excinfo:
            for _ in range(2 * GUARD_SAMPLE_PERIOD):
                pipeline.step()
        assert excinfo.value.check == "iq-occupancy"


class TestSnapshotsAcrossEngines:
    INTERVAL = 700

    def snapshot_run(self, tmp_path, fast, workload="mcf"):
        result = simulate(workload, "swque", num_instructions=N,
                          fast=fast, snapshot_dir=tmp_path,
                          snapshot_interval=self.INTERVAL)
        paths = sorted(tmp_path.glob("*.snap"),
                       key=lambda p: int(p.stem.split("-c")[-1]))
        return result, paths

    def test_both_engines_snapshot_at_the_same_cycles(self, tmp_path):
        ref_result, ref_paths = self.snapshot_run(tmp_path / "ref", fast=False)
        fast_result, fast_paths = self.snapshot_run(tmp_path / "fast", fast=True)
        assert fast_result.commit_digest == ref_result.commit_digest
        assert [p.name for p in fast_paths] == [p.name for p in ref_paths]

    def test_fast_snapshot_resumes_on_the_reference_engine(self, tmp_path):
        baseline, _ = self.snapshot_run(tmp_path / "ref", fast=False)
        _, paths = self.snapshot_run(tmp_path / "fast", fast=True)
        middle = load_snapshot(paths[len(paths) // 2])
        assert middle.pipeline.fast is True
        middle.pipeline.fast = False  # cross-engine resume
        resumed = resume_to_result(middle)
        assert resumed.commit_digest == baseline.commit_digest
        assert resumed.stats.as_dict() == baseline.stats.as_dict()

    def test_reference_snapshot_resumes_on_the_fast_engine(self, tmp_path):
        baseline, paths = self.snapshot_run(tmp_path / "ref", fast=False)
        middle = load_snapshot(paths[len(paths) // 2])
        middle.pipeline.fast = True  # cross-engine resume
        resumed = resume_to_result(middle)
        assert resumed.commit_digest == baseline.commit_digest
        assert resumed.stats.as_dict() == baseline.stats.as_dict()

    def test_snapshot_taken_mid_fast_forward_resumes_identically(
        self, monkeypatch
    ):
        # Drive the pipelines directly so we can prove a snapshot was
        # written by the fast-forward replication path itself (the sink
        # fired inside a successful jump), then resume that exact
        # snapshot on the reference engine.
        trace = generate_trace(get_profile("mcf"), N)

        def pipeline_with_sink(fast):
            stats = PipelineStats()
            iq = build_issue_queue("swque", MEDIUM, stats=stats, trace=trace)
            p = Pipeline(trace, MEDIUM, iq, stats=stats, fast=fast)
            p.snapshot_interval = self.INTERVAL
            snaps = {}
            p.snapshot_sink = lambda pl: snaps.__setitem__(
                pl.cycle, snapshot_bytes(pl)
            )
            return p, snaps

        ref, ref_snaps = pipeline_with_sink(fast=False)
        ref.run(warmup_instructions=0)

        fast, fast_snaps = pipeline_with_sink(fast=True)
        jump_snaps = []
        original_ff = Pipeline._fast_forward

        def traced_ff(self, cycle):
            before = len(fast_snaps)
            jumped = original_ff(self, cycle)
            if jumped and len(fast_snaps) > before:
                jump_snaps.append(self.cycle)
            return jumped

        monkeypatch.setattr(Pipeline, "_fast_forward", traced_ff)
        fast.run(warmup_instructions=0)

        assert fast.commit_digest.hexdigest() == ref.commit_digest.hexdigest()
        assert sorted(fast_snaps) == sorted(ref_snaps)
        assert jump_snaps, "no snapshot fired inside a fast-forward jump"

        from repro.verify.snapshot import _parse

        cycle = jump_snaps[0]
        restored = _parse(fast_snaps[cycle], origin=f"mid-jump-c{cycle}")
        restored.pipeline.fast = False  # resume on the other engine
        restored.pipeline.resume()
        assert (
            restored.pipeline.commit_digest.hexdigest()
            == ref.commit_digest.hexdigest()
        )
        assert restored.pipeline.stats.as_dict() == ref.stats.as_dict()


@settings(max_examples=10, deadline=None)
@given(
    policy=st.sampled_from(IQ_POLICIES),
    workload=st.sampled_from(["exchange2", "nab", "mcf"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engines_bit_identical_property(policy, workload, seed):
    """Property form of the contract: any (policy, workload, seed)."""
    assert_equivalent(
        run(policy, workload, fast=False, n=1500, seed=seed),
        run(policy, workload, fast=True, n=1500, seed=seed),
    )
