"""Registry-chaos experiment: golden regression + acceptance invariants.

``data/golden_registry_chaos.json`` pins the quick-mode digest of both
recovery arms: the Accelerators Registry fail-stopped mid-reconfiguration-
storm, restarted from snapshot+WAL (durable) or taken over by the warm
standby (replicated).  The run is seed-reproducible, so any drift is a
behaviour change in the durability/recovery machinery, never noise.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import LoadTiming
from repro.experiments.registry_chaos import (
    RegistryChaosSpec,
    run_registry_chaos,
    run_registry_chaos_mode,
)
from repro.system import STANDBY_POLICY

GOLDEN = Path(__file__).parent / "data" / "golden_registry_chaos.json"


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


@pytest.fixture(scope="module")
def chaos_result(monkeypatch_module):
    monkeypatch_module.setenv("REPRO_QUICK", "1")
    return run_registry_chaos()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenRegistryChaos:
    def test_digest_matches_golden(self, chaos_result, golden):
        digest = chaos_result.to_golden()
        drift = [
            f"{mode}.{key}"
            for mode in sorted(set(golden) | set(digest))
            for key in sorted(
                set(golden.get(mode, {})) | set(digest.get(mode, {}))
            )
            if golden.get(mode, {}).get(key) != digest.get(mode, {}).get(key)
        ]
        assert digest == golden, f"registry-chaos digest drifted in {drift}"

    def test_no_double_allocations_no_lost_instances(self, chaos_result):
        # The two safety invariants of the acceptance criteria.
        for arm in (chaos_result.durable, chaos_result.replicated):
            assert arm.double_allocations == 0, arm.mode
            assert arm.lost_instances == 0, arm.mode

    def test_blackout_is_bounded(self, chaos_result):
        spec = chaos_result.spec
        durable, replicated = chaos_result.durable, chaos_result.replicated
        # Durable: outage = scripted restart delay + replay time.
        assert spec.restart_after <= durable.blackout_seconds \
            <= spec.restart_after + 0.5
        # Replicated: the standby notices the expired lease within one
        # sync tick past the timeout, then replays its WAL copy.
        standby = STANDBY_POLICY
        assert replicated.blackout_seconds \
            <= standby.lease_timeout + standby.sync_interval + 0.5
        assert replicated.blackout_seconds < durable.blackout_seconds

    def test_stale_epoch_commands_are_fenced(self, chaos_result):
        for arm in (chaos_result.durable, chaos_result.replicated):
            assert arm.zombie_fenced >= 1, arm.mode
            assert arm.zombie_accepted == 0, arm.mode
            assert arm.fenced_commands >= 1, arm.mode
            assert arm.epoch == 2, arm.mode  # exactly one recovery

    def test_blackout_admissions_denied_then_absorbed(self, chaos_result):
        for arm in (chaos_result.durable, chaos_result.replicated):
            # The FIR storm deploy landed in the blackout, was refused with
            # the structured retryable error, and succeeded on retry.
            assert arm.denied_admissions >= 1, arm.mode
            assert arm.deploy_retries >= arm.denied_admissions, arm.mode
            assert arm.hung_events == 0, arm.mode

    def test_durable_arm_replays_the_wal(self, chaos_result):
        durable = chaos_result.durable
        assert durable.snapshots_taken >= 1
        assert durable.replayed_ops >= 1  # the storm rode the WAL
        assert durable.replay_applied >= 1

    def test_standby_tails_and_takes_over(self, chaos_result):
        replicated = chaos_result.replicated
        assert replicated.takeovers == 1
        assert replicated.records_tailed >= 1
        assert replicated.standby_bytes > 0
        assert chaos_result.durable.takeovers == 0

    def test_availability_stays_high(self, chaos_result):
        for arm in (chaos_result.durable, chaos_result.replicated):
            assert arm.completed > 0, arm.mode
            assert arm.availability >= 0.99, arm.mode


def test_same_seed_same_digest(monkeypatch_module):
    """Bit-reproducibility: two identical seeded runs, identical digests."""
    monkeypatch_module.setenv("REPRO_QUICK", "1")
    spec = RegistryChaosSpec(timing=LoadTiming(warmup=0.5, duration=8.0))
    first = run_registry_chaos_mode("durable", spec).to_golden()
    second = run_registry_chaos_mode("durable", spec).to_golden()
    assert first == second
