"""One region shard: an independent engine run plus its local analysis.

:func:`run_shard` executes one :class:`~repro.service.regions.router.ShardPlan`
in-process.  A shard builds its region's replay cluster, autoscaler and
(optional) control plane exactly as :func:`run_scenario` would, submits
the planned workload explicitly (kept local arrivals in draw order,
then incoming failover traffic), drains, and then does every per-region
analysis: the shard report digest, the summary, the user-perceived
latency array (failover traffic pays its round trip), and the region
SLO replay — debounced :class:`SLOMonitor` evaluation over the region's
own telemetry window, emitting region-named control entries
(``region-slo`` transitions and ``region-decision`` advisories saying
*which region* to shed or adapt).

The returned :class:`ShardResult` keeps what the merge needs — digest,
summary, merge arrays, logs and (when tracing) the shard collector's
own :class:`~repro.obs.trace.Trace` objects — and drops the shard's
:class:`LoadTestReport` and its ~10^5 record objects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.service.control.plane import ControlLogEntry, ControlPlane
from repro.service.control.slo import SLOMonitor, SLOState
from repro.service.control.telemetry import TelemetryHub
from repro.service.measurement import MeasurementSet
from repro.service.regions.router import ShardPlan
from repro.service.regions.spec import RegionSpec
from repro.service.request import ServiceRequest
from repro.service.simulation.autoscaler import Autoscaler
from repro.service.simulation.engine import ServingSimulator
from repro.service.simulation.replay import build_replay_cluster

if TYPE_CHECKING:
    from repro.obs.trace import Trace

__all__ = ["ShardResult", "run_shard"]


@dataclass
class ShardResult:
    """One region's contribution to the merged multi-region report.

    Attributes:
        region: Region name.
        index: Declaration index in the multi-region spec.
        shard_seed: The spawned root seed the shard ran under.
        digest: The shard report's digest (or the canonical empty-shard
            digest when every arrival failed over and none arrived).
        summary: The shard report's flat summary dict (zeros when empty).
        engine_used: Execution engine that actually ran the shard.
        fallback_reason: Why a columnar-requested shard fell back.
        n_submitted / n_local / n_incoming: Workload accounting.
        n_assigned / n_outgoing / n_denied: Routing accounting (from
            the plan; conservation checks tie the two together).
        n_completed / n_failed / n_shed: Outcome accounting.
        user_latencies_ok: User-perceived response time of every
            answered request (in-region response plus the inter-region
            round trip for failover traffic), for global percentiles.
        last_finished_s: Latest request finish time (0.0 when empty).
        total_cost: Summed invocation cost.
        fault_log / control_log: The shard engine's logs.
        slo_log: Region SLO replay entries (region-named).
        final_pool_sizes: Pool sizes at drain.
        traces: The shard collector's recorded traces (completion
            order) when the shard ran with tracing, else ``None``.
        trace_run_events: Recorded run-level events as
            ``(time_s, kind, detail, region)`` tuples.
    """

    region: str
    index: int
    shard_seed: int
    digest: str
    summary: Dict[str, float]
    engine_used: Optional[str]
    fallback_reason: Optional[str]
    n_submitted: int
    n_local: int
    n_incoming: int
    n_assigned: int
    n_outgoing: int
    n_denied: int
    n_completed: int
    n_failed: int
    n_shed: int
    user_latencies_ok: np.ndarray
    last_finished_s: float
    total_cost: float
    fault_log: List[object] = field(default_factory=list)
    control_log: List[object] = field(default_factory=list)
    slo_log: List[ControlLogEntry] = field(default_factory=list)
    final_pool_sizes: Dict[str, int] = field(default_factory=dict)
    traces: Optional[List["Trace"]] = None
    trace_run_events: Optional[List[Tuple[float, str, str, Optional[str]]]] = (
        None
    )


def _empty_result(shard: ShardPlan, trace: bool) -> ShardResult:
    """A shard whose workload fully failed over ran nothing at all."""
    digest = hashlib.sha256(
        f"empty-shard:{shard.region.name}".encode()
    ).hexdigest()
    return ShardResult(
        region=shard.region.name,
        index=shard.index,
        shard_seed=shard.shard_seed,
        digest=digest,
        summary={},
        engine_used=None,
        fallback_reason=None,
        n_submitted=0,
        n_local=0,
        n_incoming=0,
        n_assigned=shard.n_assigned,
        n_outgoing=shard.n_outgoing,
        n_denied=shard.n_denied,
        n_completed=0,
        n_failed=0,
        n_shed=0,
        user_latencies_ok=np.empty(0, dtype=float),
        last_finished_s=0.0,
        total_cost=0.0,
        traces=[] if trace else None,
        trace_run_events=[] if trace else None,
    )


def run_shard(
    shard: ShardPlan,
    measurements: MeasurementSet,
    *,
    engine: Optional[str] = None,
    check_invariants: bool = False,
    trace: bool = False,
) -> ShardResult:
    """Execute one region shard end to end (simulate + analyse).

    Args:
        shard: The shard's plan; its region scenario runs under the
            spawned ``shard.shard_seed``.
        measurements: Measurement table the region's replay pools draw
            service times from.
        engine: Engine override forwarded to
            :class:`~repro.service.simulation.engine.ServingSimulator`
            (``None`` resolves ``REPRO_SIM_ENGINE``, else the default).
        check_invariants: Enable the engine's conservation checker.
        trace: Record one span tree per request (see :mod:`repro.obs`)
            into a shard-local collector whose traces and run events
            ride back on the result.
    """
    if not shard.submissions:
        return _empty_result(shard, trace)
    region = shard.region
    scenario = replace(region.scenario, seed=shard.shard_seed)
    cluster = build_replay_cluster(measurements, dict(scenario.pools))
    autoscaler = (
        Autoscaler(scenario.autoscaler_config)
        if scenario.autoscaler_config is not None
        else None
    )
    control = (
        ControlPlane.from_spec(
            scenario.control,
            measurements=measurements,
            configuration=scenario.configuration,
            router=scenario.router,
            seed=scenario.seed,
            deployed_versions=tuple(scenario.pools),
        )
        if scenario.control is not None
        else None
    )
    recorder = None
    collector = None
    if trace:
        from repro.obs.record import SimTraceRecorder
        from repro.obs.trace import TraceCollector

        collector = TraceCollector()
        recorder = SimTraceRecorder(collector)
        for submission in shard.submissions:
            if submission.origin != region.name:
                recorder.annotate_failover(
                    submission.request_id,
                    home=submission.origin,
                    served=region.name,
                    extra_latency_s=submission.extra_latency_s,
                )
    simulator = ServingSimulator(
        cluster,
        router=scenario.router,
        configuration=scenario.configuration,
        batching=scenario.batching,
        autoscaler=autoscaler,
        faults=scenario.faults,
        retry=scenario.retry,
        check_invariants=check_invariants,
        control=control,
        trace=recorder,
        seed=scenario.seed,
        engine=engine,
    )
    for submission in shard.submissions:
        simulator.submit(
            ServiceRequest(
                request_id=submission.request_id,
                payload=submission.payload,
                tolerance=submission.tolerance,
                objective=submission.objective,
            ),
            at_time=submission.at_time,
        )
    report = simulator.drain()
    report.offered_rate = shard.offered_rate

    extra = {
        s.request_id: s.extra_latency_s
        for s in shard.submissions
        if s.extra_latency_s
    }
    n_incoming = sum(1 for s in shard.submissions if s.origin != region.name)

    user_latencies: List[float] = []
    last_finished = 0.0
    total_cost = 0.0
    n_completed = n_failed = n_shed = 0
    slo_log = _RegionSLOReplay(region)
    for record in report.records:
        last_finished = max(last_finished, record.finished_s)
        slo_log.publish(record)
        if record.shed:
            n_shed += 1
            continue
        if record.failed:
            n_failed += 1
            continue
        n_completed += 1
        total_cost += record.invocation_cost
        user_latencies.append(
            record.response_time_s + extra.get(record.request_id, 0.0)
        )
    slo_log.finish(last_finished)

    return ShardResult(
        region=region.name,
        index=shard.index,
        shard_seed=shard.shard_seed,
        digest=report.digest(),
        summary=report.summary(),
        engine_used=report.engine_used,
        fallback_reason=report.fallback_reason,
        n_submitted=len(shard.submissions),
        n_local=len(shard.submissions) - n_incoming,
        n_incoming=n_incoming,
        n_assigned=shard.n_assigned,
        n_outgoing=shard.n_outgoing,
        n_denied=shard.n_denied,
        n_completed=n_completed,
        n_failed=n_failed,
        n_shed=n_shed,
        user_latencies_ok=np.asarray(user_latencies, dtype=float),
        last_finished_s=last_finished,
        total_cost=total_cost,
        fault_log=list(report.fault_log),
        control_log=list(report.control_log),
        slo_log=slo_log.entries,
        final_pool_sizes=dict(report.final_pool_sizes),
        traces=collector.traces if collector is not None else None,
        trace_run_events=(
            collector.run_events if collector is not None else None
        ),
    )


class _RegionSLOReplay:
    """Region SLO monitors over the shard's record stream.

    Records publish into the region's own :class:`TelemetryHub` window
    in completion order; monitors evaluate on the region's tick cadence
    interleaved with publication, exactly as a live control plane
    would.  State transitions log as ``region-slo`` entries and a
    breach additionally logs the ``region-decision`` advisory the
    global control loop acts on: *shed* this region when latency or
    availability breaks, *adapt* it when cost does.
    """

    def __init__(self, region: RegionSpec) -> None:
        self._region = region.name
        self._tick_s = region.slo_tick_s
        self._hub = TelemetryHub(region.slo_window_s)
        self._monitors = [SLOMonitor(slo) for slo in region.slos]
        self._next_tick = region.slo_tick_s
        self._clock = 0.0
        self.entries: List[ControlLogEntry] = []

    def publish(self, record) -> None:
        if not self._monitors:
            return
        # finalization can stamp a finish fractionally before the event
        # that delivered it; the hub needs a non-decreasing clock.
        self._clock = max(self._clock, record.finished_s)
        while self._next_tick <= self._clock:
            self._evaluate(self._next_tick)
            self._next_tick += self._tick_s
        self._hub.publish(record, now=self._clock)

    def finish(self, last_finished_s: float) -> None:
        """One final evaluation after the last record lands."""
        if not self._monitors or self._hub.total_published == 0:
            return
        self._evaluate(max(self._next_tick, last_finished_s))

    def _evaluate(self, now: float) -> None:
        snapshot = self._hub.snapshot(now)
        for monitor in self._monitors:
            status = monitor.evaluate(snapshot)
            if not status.transitioned:
                continue
            pressures = ",".join(
                f"{metric}={ratio:.3f}"
                for metric, ratio in sorted(status.pressures.items())
            )
            self.entries.append(
                ControlLogEntry(
                    time_s=now,
                    kind="region-slo",
                    detail=(
                        f"[{self._region}] {status.name}: "
                        f"{status.state.name.lower()}"
                        + (f" ({pressures})" if pressures else "")
                    ),
                    region=self._region,
                )
            )
            if status.state is SLOState.BREACH:
                action = (
                    "adapt"
                    if max(
                        status.pressures,
                        key=lambda m: status.pressures[m],
                        default="",
                    )
                    == "cost_per_request"
                    else "shed"
                )
                self.entries.append(
                    ControlLogEntry(
                        time_s=now,
                        kind="region-decision",
                        detail=(
                            f"[{self._region}] {action} {self._region}: "
                            f"{status.name} breached"
                        ),
                        region=self._region,
                    )
                )
