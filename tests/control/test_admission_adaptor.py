"""Admission policies and the online policy adaptor's state machine."""

import numpy as np
import pytest

from repro.core.configuration import (
    EnsembleConfiguration,
    check_config_ids,
    enumerate_configurations,
    same_policy,
)
from repro.core.policies import SequentialPolicy, SingleVersionPolicy
from repro.service.control import (
    AdaptorConfig,
    AdmissionAction,
    AdmissionController,
    AdmissionSpec,
    PolicyAdaptor,
    SLOState,
    TelemetryHub,
    degraded_configuration,
)
from repro.service.request import ServiceRequest
from repro.service.simulation import scenario_measurements

from test_telemetry import record


def request(request_id="q", **metadata):
    return ServiceRequest(request_id=request_id, payload="r000", metadata=metadata)


TIERED = EnsembleConfiguration("seq", SequentialPolicy("fast", "slow", 0.6))


class TestAdmission:
    def test_admits_everything_outside_breach(self):
        controller = AdmissionController(
            AdmissionSpec(policy="probabilistic", shed_probability=1.0),
            rng=np.random.default_rng(0),
        )
        for state in (SLOState.OK, SLOState.WARN):
            decision = controller.decide(request(), state=state, planned=TIERED)
            assert decision.action is AdmissionAction.ADMIT
        assert controller.n_shed == 0

    def test_probabilistic_shed_is_seed_deterministic(self):
        def run(seed):
            controller = AdmissionController(
                AdmissionSpec(policy="probabilistic", shed_probability=0.5),
                rng=np.random.default_rng(seed),
            )
            return [
                controller.decide(
                    request(f"q{i}"), state=SLOState.BREACH, planned=TIERED
                ).action
                for i in range(50)
            ]

        assert run(7) == run(7)
        assert AdmissionAction.SHED in run(7)
        assert AdmissionAction.ADMIT in run(7)

    def test_priority_floor(self):
        controller = AdmissionController(
            AdmissionSpec(policy="priority", priority_floor=1.0, default_priority=0.0)
        )
        shed = controller.decide(
            request("low"), state=SLOState.BREACH, planned=TIERED
        )
        kept = controller.decide(
            request("vip", priority=5), state=SLOState.BREACH, planned=TIERED
        )
        assert shed.action is AdmissionAction.SHED
        assert kept.action is AdmissionAction.ADMIT
        # Unparseable priorities fall back to the default (shed here).
        junk = controller.decide(
            request("junk", priority="???"), state=SLOState.BREACH, planned=TIERED
        )
        assert junk.action is AdmissionAction.SHED
        assert controller.n_shed == 2

    def test_degrade_downgrades_to_fast_single(self):
        controller = AdmissionController(AdmissionSpec(policy="degrade"))
        decision = controller.decide(
            request(), state=SLOState.BREACH, planned=TIERED
        )
        assert decision.action is AdmissionAction.DEGRADE
        assert decision.configuration.kind == "single"
        assert decision.configuration.versions == ("fast",)

    def test_degrade_admits_when_already_single(self):
        controller = AdmissionController(AdmissionSpec(policy="degrade"))
        single = EnsembleConfiguration("osfa", SingleVersionPolicy("slow"))
        decision = controller.decide(
            request(), state=SLOState.BREACH, planned=single
        )
        assert decision.action is AdmissionAction.ADMIT
        assert degraded_configuration(single) is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            AdmissionSpec(policy="coinflip")


def breach_snapshot(hub_window=30.0, now=100.0, n=30, latency=3.0):
    hub = TelemetryHub(window_s=hub_window)
    t0 = now - hub_window + 1.0
    for i in range(n):
        hub.publish(
            record(f"r{i:03d}", t0 + i * 0.5, response_time_s=latency)
        )
    return hub.snapshot(now)


def window_snapshot_over(measurements, now=100.0, n=40, latency=3.0):
    """A breach-grade snapshot whose payloads name measured rows."""
    hub = TelemetryHub(window_s=50.0)
    t0 = now - 49.0
    for i in range(n):
        hub.publish(
            record(
                f"q{i:03d}",
                t0 + i,
                response_time_s=latency,
                payload=measurements.request_ids[i % measurements.n_requests],
            ),
            t0 + i,
        )
    return hub.snapshot(now)


def assert_same_space(space, expected):
    assert [c.config_id for c in space] == [c.config_id for c in expected]
    assert all(same_policy(a.policy, b.policy) for a, b in zip(space, expected))


class TestAdaptor:
    def config(self, **kw):
        defaults = dict(
            refit_interval_s=1.0,
            min_window_samples=10,
            degradation_mode="absolute",
            tolerance_step=0.06,
            max_tolerance=0.30,
            recover_after=2,
            min_trials=6,
            max_trials=12,
        )
        defaults.update(kw)
        return AdaptorConfig(**defaults)

    def adaptor(self, measurements, **kw):
        return PolicyAdaptor(
            self.config(**kw),
            measurements=measurements,
            anchor=EnsembleConfiguration(
                "anchor_seq", SequentialPolicy("fast", "slow", 0.6)
            ),
            seed=3,
        )

    @pytest.fixture(scope="class")
    def toy(self):
        return scenario_measurements()

    def test_min_window_guardrail(self, toy):
        adaptor = self.adaptor(toy, min_window_samples=50)
        snap = window_snapshot_over(toy, n=10)
        assert adaptor.on_tick(snap, SLOState.BREACH, 100.0) is None
        assert adaptor.events[-1].kind == "refit-skipped"
        # The guardrail still consumed the re-fit slot (no tight loop).
        assert adaptor.on_tick(snap, SLOState.BREACH, 100.1) is None

    def test_widening_converges_to_cheaper_policy(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        swaps = []
        for _ in range(8):
            snap = window_snapshot_over(toy, now=now)
            swap = adaptor.on_tick(snap, SLOState.BREACH, now)
            if swap is not None:
                swaps.append(swap)
            now += 1.0
        assert swaps, "persistent breach must eventually re-fit a swap"
        final = swaps[-1]
        # The cost guard guarantees every swap lowers worst-case cost,
        # so the trajectory ends on something cheaper than the anchor
        # (on the toy geometry: the fast single version).
        assert final.versions == ("fast",)
        assert adaptor.effective_tolerance > 0.0

    def test_swaps_never_increase_worst_case_cost(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        for _ in range(8):
            snap = window_snapshot_over(toy, now=now)
            adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
        kinds = [e.kind for e in adaptor.events]
        # The first widening step lands on the most-accurate single
        # version (the only config inside a tiny tolerance) — the cost
        # guard must refuse it rather than deepen a capacity breach.
        assert "refit-noimprove" in kinds

    def test_recovery_restores_anchor_and_clears_blacklist(self, toy):
        adaptor = self.adaptor(toy)
        now = 100.0
        while adaptor.active.config_id == adaptor.anchor.config_id:
            snap = window_snapshot_over(toy, now=now)
            adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
            assert now < 130.0, "never swapped under persistent breach"
        healthy = window_snapshot_over(toy, now=now, latency=0.1)
        restored = None
        while restored is None or restored.config_id != adaptor.anchor.config_id:
            healthy = window_snapshot_over(toy, now=now, latency=0.1)
            swap = adaptor.on_tick(healthy, SLOState.OK, now)
            restored = swap if swap is not None else restored
            now += 1.0
            assert now < 160.0, "never tightened back to the anchor"
        assert adaptor.active.config_id == adaptor.anchor.config_id
        assert adaptor.effective_tolerance == adaptor.config.base_tolerance
        assert any(e.kind == "anchor-restore" for e in adaptor.events) or (
            restored.config_id == adaptor.anchor.config_id
        )

    def test_rollback_on_regression_blacklists_swap(self, toy):
        adaptor = self.adaptor(toy, rollback_margin=1.05)
        now = 100.0
        swap = None
        while swap is None:
            snap = window_snapshot_over(toy, now=now, latency=3.0)
            swap = adaptor.on_tick(snap, SLOState.BREACH, now)
            now += 1.0
        swapped_id = swap.config_id
        # One interval later things are *worse* and still breaching:
        # the judgement must revert and blacklist the swap.
        worse = window_snapshot_over(toy, now=now + 1.0, latency=9.0)
        reverted = adaptor.on_tick(worse, SLOState.BREACH, now + 1.0)
        assert reverted is not None
        assert reverted.config_id == adaptor.anchor.config_id
        assert any(e.kind == "rollback" for e in adaptor.events)
        assert swapped_id in adaptor._rejected
        # The widened tolerance is kept: pressure ratchets, the bad rung
        # is skipped (refit-rejected or a different, wider choice).
        tolerance_after = adaptor.effective_tolerance
        assert tolerance_after > adaptor.config.base_tolerance

    def test_refits_are_deterministic(self, toy):
        def trajectory():
            adaptor = self.adaptor(toy)
            now, ids = 100.0, []
            for _ in range(8):
                snap = window_snapshot_over(toy, now=now)
                swap = adaptor.on_tick(snap, SLOState.BREACH, now)
                ids.append(None if swap is None else swap.config_id)
                now += 1.0
            return ids

        assert trajectory() == trajectory()

    def test_offline_anchor_id_cannot_alias_another_candidate(self, toy):
        """An anchor fit on the default offline space shares its id with
        a different re-fit candidate (offline cfg_002 is seq at 0.20, the
        adaptor's cfg_002 is seq at 0.30).  The adaptor must hold it under
        an id no candidate uses, or the re-fit would bootstrap both on one
        set of outcome columns and read a swap between them as no
        change."""
        anchor = enumerate_configurations(toy)[2]
        assert anchor.config_id == "cfg_002"
        adaptor = PolicyAdaptor(
            self.config(), measurements=toy, anchor=anchor, seed=3
        )
        candidate = next(
            c for c in adaptor.candidates if c.config_id == "cfg_002"
        )
        assert not same_policy(candidate.policy, anchor.policy)
        assert adaptor.anchor.policy is anchor.policy
        assert adaptor.anchor.config_id == "cfg_002@anchor"
        assert adaptor.active is adaptor.anchor
        assert adaptor.anchor in adaptor.candidates
        check_config_ids(adaptor.candidates)
        # re-fits on that space run, and every swap names one policy
        now = 100.0
        for _ in range(6):
            swap = adaptor.on_tick(
                window_snapshot_over(toy, now=now), SLOState.BREACH, now
            )
            if swap is not None:
                assert swap in adaptor.candidates
            now += 1.0

    def test_default_anchor_joins_the_space_last(self, toy):
        """An anchor whose id no candidate uses is appended, even when a
        candidate holds the same policy under another id."""
        adaptor = self.adaptor(toy)
        enumerated = enumerate_configurations(
            toy, thresholds=adaptor.config.thresholds
        )
        assert adaptor.anchor.config_id == "anchor_seq"
        assert any(
            same_policy(c.policy, adaptor.anchor.policy) for c in enumerated
        )
        assert adaptor.candidates[-1] is adaptor.anchor
        assert_same_space(adaptor.candidates[:-1], enumerated)

    def test_candidate_that_is_the_anchor_is_not_listed_twice(self, toy):
        """An anchor taken from the adaptor's own space keeps its id and
        moves to the end; its candidate copy is dropped."""
        config = self.config()
        enumerated = enumerate_configurations(toy, thresholds=config.thresholds)
        anchor = enumerated[2]
        adaptor = PolicyAdaptor(config, measurements=toy, anchor=anchor, seed=3)
        assert adaptor.anchor is anchor
        assert adaptor.candidates[-1] is anchor
        assert_same_space(adaptor.candidates[:-1], enumerated[:2] + enumerated[3:])
        check_config_ids(adaptor.candidates)

    def test_warn_holds_position(self, toy):
        adaptor = self.adaptor(toy)
        snap = window_snapshot_over(toy)
        assert adaptor.on_tick(snap, SLOState.WARN, 100.0) is None
        assert adaptor.active.config_id == adaptor.anchor.config_id
