"""Chaos experiment: golden regression + acceptance invariants.

``data/golden_chaos.json`` pins the quick-mode chaos digest: Table-II Sobel
load under 1% control-message loss with a Device Manager crash and restart
mid-window.  The run is seed-reproducible, so any drift is a behaviour
change in the fault plane or the recovery machinery, never noise.
"""

import json
import math
from pathlib import Path

import pytest

from repro.experiments.chaos import ChaosSpec, run_chaos
from repro.experiments.config import LoadTiming

GOLDEN = Path(__file__).parent / "data" / "golden_chaos.json"


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


@pytest.fixture(scope="module")
def chaos_result(monkeypatch_module):
    monkeypatch_module.setenv("REPRO_QUICK", "1")
    return run_chaos()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenChaos:
    def test_digest_matches_golden(self, chaos_result, golden):
        digest = chaos_result.to_golden()
        drift = [
            key for key in sorted(set(golden) | set(digest))
            if golden.get(key) != digest.get(key)
        ]
        assert digest == golden, f"chaos digest drifted in {drift}"

    def test_no_hung_client_events(self, chaos_result):
        # Zero CL-event FSMs left unresolved: every in-flight op ended
        # COMPLETE or a structured error even through the crash.
        assert chaos_result.hung_events == 0

    def test_availability_stays_high(self, chaos_result):
        assert chaos_result.errors == 0 or chaos_result.availability >= 0.99
        assert chaos_result.completed > 0

    def test_crash_was_detected_and_recovered(self, chaos_result):
        assert chaos_result.device_failures == 1
        assert chaos_result.recoveries_detected == 1
        assert chaos_result.detection_seconds > 0
        assert not math.isnan(chaos_result.recovery_seconds)
        assert chaos_result.recovery_seconds > 0
        assert chaos_result.migrations >= 1  # victims moved off the board

    def test_downtime_ledger(self, chaos_result):
        # Per-board downtime is reported for post-mortems, but stays out
        # of the golden digest (bit-identical to the pre-ledger runs).
        ledger = chaos_result.downtime
        assert set(ledger) == {"dm-A", "dm-B", "dm-C"}
        assert ledger["dm-B"]["crash_s"] > 0
        for name, cell in ledger.items():
            if name != "dm-B":
                assert cell["crash_s"] == 0.0
            assert cell["reconfiguration_s"] >= 2.5  # the initial program
        assert "downtime" not in chaos_result.to_golden()

    def test_faults_actually_fired(self, chaos_result):
        # The run must have been genuinely hostile, not a fair-weather pass.
        plane = chaos_result.plane_counters
        assert plane["dropped"] > 0
        assert plane["duplicated"] > 0
        assert plane["delayed"] > 0
        assert chaos_result.rpc_retries > 0 or chaos_result.gateway_retries > 0
        assert [what for _, what in chaos_result.script_log] == [
            "crash dm-B", "restart dm-B"
        ]


def test_same_seed_same_digest(monkeypatch_module):
    """Bit-reproducibility: two identical seeded runs, identical digests."""
    monkeypatch_module.setenv("REPRO_QUICK", "1")
    spec = ChaosSpec(timing=LoadTiming(warmup=0.5, duration=2.0),
                     crash_fraction=0.3, restart_fraction=0.3)
    first = run_chaos(spec).to_golden()
    second = run_chaos(spec).to_golden()
    assert first == second


def test_every_seed_recovers(monkeypatch):
    """The golden pins one seed; across seeds 1-10 no client event FSM
    hangs and availability stays at or above 98%."""
    monkeypatch.setenv("REPRO_QUICK", "1")
    outcomes = {}
    for seed in range(1, 11):
        result = run_chaos(ChaosSpec(seed=seed))
        outcomes[seed] = (result.hung_events, result.availability)
    assert all(hung == 0 and availability >= 0.98
               for hung, availability in outcomes.values()), outcomes
