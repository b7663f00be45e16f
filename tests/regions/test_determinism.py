"""The determinism contract: plain-scenario equivalence, shard-order
independence, conservation, and a fuzzed differential sweep over random
topologies."""

import dataclasses

import numpy as np
import pytest

from repro.obs.trace import Trace, TraceCollector
from repro.service.regions import (
    MultiRegionSpec,
    RegionRouter,
    RegionSpec,
    merge_shards,
    run_multi_region,
    run_shard,
)
from repro.service.regions.report import ConservationError
from repro.service.regions.runner import _merge_traces
from repro.service.simulation import (
    NodeCrash,
    PoissonArrivals,
    RegionPartition,
    RetryPolicy,
    ScenarioSpec,
    run_scenario,
)
from repro.service.simulation.scenarios import _tiered_configuration


def _scenario(name, **overrides):
    defaults = dict(
        name=name,
        arrivals=PoissonArrivals(4.0),
        n_requests=50,
        pools={"fast": 1, "slow": 1},
        configuration=_tiered_configuration(),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _spec_with_failover(seed=21):
    crash = NodeCrash(at_s=2.0, version="fast", node_index=0, recover_at_s=6.0)
    return MultiRegionSpec(
        name="failover",
        regions=(
            RegionSpec(name="us", scenario=_scenario("s-us", faults=(crash,))),
            RegionSpec(name="eu", scenario=_scenario("s-eu")),
        ),
        link_latency_s=0.1,
        seed=seed,
    )


class TestPlainScenarioEquivalence:
    def test_one_region_spec_matches_plain_run(self, toy):
        spec = MultiRegionSpec(
            name="solo",
            regions=(RegionSpec(name="us", scenario=_scenario("s-us")),),
            seed=17,
        )
        report = run_multi_region(spec, toy)
        plain = run_scenario(spec.equivalent_scenario(0), toy)
        assert report.shards[0].digest == plain.digest()

    def test_no_failover_shards_match_plain_runs(self, toy):
        """Locality-only multi-region == N independent plain scenarios."""
        spec = MultiRegionSpec(
            name="steady",
            regions=(
                RegionSpec(name="us", scenario=_scenario("s-us")),
                RegionSpec(
                    name="eu",
                    scenario=_scenario(
                        "s-eu", arrivals=PoissonArrivals(2.0), n_requests=40
                    ),
                ),
            ),
            seed=23,
        )
        report = run_multi_region(spec, toy)
        assert report.n_failovers == 0
        for index, shard in enumerate(report.shards):
            plain = run_scenario(spec.equivalent_scenario(index), toy)
            assert shard.digest == plain.digest()

    def test_embedded_scenario_seed_is_ignored(self, toy):
        spec_a = MultiRegionSpec(
            name="solo",
            regions=(
                RegionSpec(name="us", scenario=_scenario("s-us", seed=1)),
            ),
            seed=17,
        )
        spec_b = dataclasses.replace(
            spec_a,
            regions=(
                RegionSpec(name="us", scenario=_scenario("s-us", seed=999)),
            ),
        )
        assert (
            run_multi_region(spec_a, toy).digest()
            == run_multi_region(spec_b, toy).digest()
        )


class TestShardOrderIndependence:
    def test_shard_execution_order_is_irrelevant(self, toy):
        spec = _spec_with_failover()
        plan = RegionRouter(spec, toy).plan()
        forward = merge_shards(plan, [run_shard(s, toy) for s in plan.shards])
        reversed_ = merge_shards(
            plan, [run_shard(s, toy) for s in reversed(plan.shards)]
        )
        assert forward.digest() == reversed_.digest()
        assert forward.digest() == run_multi_region(spec, toy).digest()


def _forbid_dict_round_trip(*_args, **_kwargs):
    raise AssertionError("traces must reach the merge without a dict copy")


class TestTraceHandOff:
    """Traced shards hand their collector's own ``Trace`` objects to the
    merge: no dict round-trip, order fixed by the plan alone."""

    def test_traced_shard_is_report_neutral(self, toy):
        plan = RegionRouter(_spec_with_failover(), toy).plan()
        for shard in plan.shards:
            traced = run_shard(shard, toy, trace=True)
            plain = run_shard(shard, toy)
            assert plain.traces is None and plain.trace_run_events is None
            assert traced.digest == plain.digest
            assert len(traced.traces) == traced.n_submitted
            assert all(isinstance(t, Trace) for t in traced.traces)

    def test_traced_run_makes_no_dict_round_trip(self, toy, monkeypatch):
        spec = _spec_with_failover()
        expected = TraceCollector()
        run_multi_region(spec, toy, trace=expected)
        sink = TraceCollector()
        with monkeypatch.context() as patch:
            patch.setattr(Trace, "to_dict", _forbid_dict_round_trip)
            patch.setattr(
                Trace, "from_dict", classmethod(_forbid_dict_round_trip)
            )
            run_multi_region(spec, toy, trace=sink)
        assert len(sink) == len(expected) > 0
        assert sink.digest() == expected.digest()

    def test_trace_merge_order_is_irrelevant(self, toy):
        spec = _spec_with_failover()
        expected = TraceCollector()
        run_multi_region(spec, toy, trace=expected)
        plan = RegionRouter(spec, toy).plan()
        results = [
            run_shard(s, toy, trace=True) for s in reversed(plan.shards)
        ]
        sink = TraceCollector()
        _merge_traces(results, sink)
        assert sink.digest() == expected.digest()
        own = {id(t) for result in results for t in result.traces}
        assert len(sink) == len(own)
        assert {id(t) for t in sink.traces} == own


class TestStability:
    def test_repeated_runs_are_bit_identical(self, toy):
        spec = _spec_with_failover()
        assert (
            run_multi_region(spec, toy).digest()
            == run_multi_region(spec, toy).digest()
        )

    def test_digest_is_seed_sensitive(self, toy):
        assert (
            run_multi_region(_spec_with_failover(seed=21), toy).digest()
            != run_multi_region(_spec_with_failover(seed=22), toy).digest()
        )


class TestConservation:
    def test_failover_run_conserves_requests(self, toy):
        report = run_multi_region(
            _spec_with_failover(), toy, check_invariants=True
        )
        assert report.n_failovers > 0
        report.verify_conservation()
        assert (
            report.n_completed + report.n_failed + report.n_shed
            == report.n_requests
        )
        for shard in report.shards:
            assert (
                shard.n_completed + shard.n_failed + shard.n_shed
                == shard.n_submitted
            )
            assert shard.n_local + shard.n_incoming == shard.n_submitted

    def test_tampered_counts_raise(self, toy):
        report = run_multi_region(_spec_with_failover(), toy)
        broken = dataclasses.replace(
            report.shards[0], n_completed=report.shards[0].n_completed + 1
        )
        tampered = dataclasses.replace(
            report, shards=(broken,) + report.shards[1:]
        )
        with pytest.raises(ConservationError):
            tampered.verify_conservation()

    def test_merge_rejects_missing_and_foreign_shards(self, toy):
        spec = _spec_with_failover()
        plan = RegionRouter(spec, toy).plan()
        results = [run_shard(s, toy) for s in plan.shards]
        with pytest.raises(ValueError, match="missing shard"):
            merge_shards(plan, results[:1])
        foreign = dataclasses.replace(results[0], region="mars")
        with pytest.raises(ValueError, match="missing shard"):
            merge_shards(plan, [foreign, results[1]])


def _fuzz_spec(rng):
    """A random small multi-region spec (topology, faults, capacity)."""
    n_regions = int(rng.integers(1, 4))
    regions = []
    for i in range(n_regions):
        faults = ()
        if rng.random() < 0.5:
            at_s = float(rng.uniform(0.5, 4.0))
            faults = (
                NodeCrash(
                    at_s=at_s,
                    version="fast",
                    node_index=0,
                    recover_at_s=at_s + float(rng.uniform(1.0, 4.0)),
                ),
            )
        retry = (
            RetryPolicy(max_attempts=2, backoff_s=0.02)
            if rng.random() < 0.5
            else None
        )
        capacity = (
            float(rng.uniform(1.0, 4.0)) if rng.random() < 0.4 else None
        )
        regions.append(
            RegionSpec(
                name=f"r{i}",
                scenario=_scenario(
                    f"fuzz-r{i}",
                    arrivals=PoissonArrivals(float(rng.uniform(2.0, 8.0))),
                    n_requests=int(rng.integers(20, 60)),
                    faults=faults,
                    retry=retry,
                ),
                capacity_rps=capacity,
            )
        )
    partitions = ()
    if n_regions > 1 and rng.random() < 0.5:
        src, dst = rng.choice(n_regions, size=2, replace=False)
        start = float(rng.uniform(0.0, 5.0))
        partitions = (
            RegionPartition(
                region=f"r{src}",
                peer=f"r{dst}",
                start_s=start,
                end_s=start + float(rng.uniform(1.0, 6.0)),
            ),
        )
    return MultiRegionSpec(
        name="fuzz",
        regions=tuple(regions),
        partitions=partitions,
        link_latency_s=float(rng.uniform(0.01, 0.2)),
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.mark.parametrize(
    "case",
    [
        *range(6),
        *(pytest.param(case, marks=pytest.mark.slow) for case in range(6, 18)),
    ],
)
def test_fuzzed_differential(case, toy):
    """Random topologies uphold the full determinism contract.

    Cases 0-5 run in the fast tier; 6-17 widen the sweep on the slow
    tier.
    """
    rng = np.random.default_rng(1000 + case)
    spec = _fuzz_spec(rng)
    report = run_multi_region(spec, toy, check_invariants=True)
    report.verify_conservation()
    assert run_multi_region(spec, toy).digest() == report.digest()
    if report.n_failovers == 0 and report.n_denied == 0:
        for index in range(len(spec.regions)):
            plain = run_scenario(spec.equivalent_scenario(index), toy)
            assert report.shards[index].digest == plain.digest()
