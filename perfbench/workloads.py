"""The benchmark's four workloads, each driven from one thread.

Every workload is built from a seed: the seed fixes the requests, their
tiers and payloads, the arrival schedules and the multi-region specs.
The program only ever sees those generated inputs.  Engine selection is
left at the program's default.

A workload has four parts:

* ``setup()`` builds what a user builds before serving (timed for
  ``setup_s``);
* ``step()`` runs one chunk of operations, adds the completed requests,
  latency samples and failures to a :class:`Tally`;
* ``finish()`` runs the checks that are too slow for the timed phase,
  including one repetition of the first operation;
* ``count_layers()`` adds the program-side counters of the latest step
  to the tally (the traced run reports them) and drops that step's
  report.  It runs after every step, outside the step's wall time, so
  a traced step does the same benchmark-side work as an untraced one.

An *operation* is what ``failed_frac`` counts: one request on
``api-sync`` and ``tiered-session``, one multi-region run on the other
two.  A request the simulated faults kill is program output (checked by
conservation), not a failed operation.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.core import (
    EnsembleConfiguration,
    RoutingRuleGenerator,
    SequentialPolicy,
    TierRouter,
    enumerate_configurations,
)
from repro.core.errors import RequestFailedError, RequestShedError
from repro.core.tiers import default_tolerance_grid
from repro.obs import TraceCollector
from repro.service import Objective, ServiceRequest, measure_ic_service
from repro.service.control.plane import default_control_spec
from repro.service.gateway import ReplayBackend, SimulatedBackend, TierGateway
from repro.service.regions import runner
from repro.service.regions.spec import (
    MultiRegionSpec,
    RegionSpec,
    derive_capacity_rps,
)
from repro.service.simulation import (
    AutoscalerConfig,
    BatchingConfig,
    build_replay_cluster,
)
from repro.service.simulation.arrivals import PoissonArrivals
from repro.service.simulation.faults import (
    GrayFailure,
    NodeCrash,
    RetryPolicy,
    TransientFaults,
)
from repro.service.simulation.scenarios import ScenarioSpec, scenario_measurements

__all__ = ["WORKLOADS", "Tally"]

#: The calibrated CPU image-classification table both tiered workloads
#: serve (the service, not the workload: it does not vary with the seed).
IC_REQUESTS = 4000
IC_SEED = 2012
#: Latency samples kept per run.  The buffer is allocated and touched
#: up front so its memory does not grow with throughput (it would
#: otherwise leak into ``peak_rss_mb``); samples past it are not kept.
LATENCY_CAPACITY = 1 << 20


class Tally:
    """What the timed phase produced."""

    def __init__(self, latency_capacity: int = LATENCY_CAPACITY) -> None:
        self.requests = 0
        self.attempted = 0
        self.failed = 0
        self.latency_capacity = latency_capacity
        self.latency_us = array("d", bytes(8 * latency_capacity))
        self.n_latency = 0
        #: Program-side counters for the traced run (per workload).
        self.counters: Counter = Counter()
        #: ``(engine_used, fallback_reason)`` -> simulator runs.
        self.engines: Counter = Counter()
        self._reported = 0

    def add_latency(self, value_us: float) -> None:
        if self.n_latency < self.latency_capacity:
            self.latency_us[self.n_latency] = value_us
            self.n_latency += 1

    def scale_latencies(self, first: int, scale: float) -> None:
        """Multiply the samples recorded from index ``first`` on."""
        if first < self.n_latency:
            view = np.frombuffer(self.latency_us, dtype=float)
            view[first : self.n_latency] *= scale

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations; print the first few causes."""
        self.failed += count
        if self._reported < 5:
            self._reported += 1
            print(f"perfbench failure: {why}", file=sys.stderr)

    def latencies(self) -> np.ndarray:
        return np.frombuffer(self.latency_us, dtype=float)[: self.n_latency]


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ----------------------------------------------------------------------
# the tier service shared by api-sync and tiered-session
# ----------------------------------------------------------------------
def _tier_service(n_requests: int):
    """Measurement table, rule generation and a router for both
    objectives: what a provider builds before serving tiers."""
    measurements = measure_ic_service(n_requests, device="cpu", seed=IC_SEED)
    generator = RoutingRuleGenerator(
        measurements,
        enumerate_configurations(measurements),
        confidence=0.999,
        seed=7,
        min_trials=10,
        max_trials=60,
    )
    grid = default_tolerance_grid()
    router = TierRouter(
        {
            objective: generator.generate(grid, objective)
            for objective in (Objective.RESPONSE_TIME, Objective.COST)
        }
    )
    return measurements, router


def _tolerance_values() -> List[float]:
    """The tolerances requests ask for, each drawn equally often.

    The 0 % tier, the paper's grid as the FIG8/FIG9 sweeps walk it, and
    the mid-point between each pair of adjacent grid tiers (off-grid:
    the router's between-tier lookup).  No traffic data says how often
    callers ask for which tier; equal weights are an assumption.
    """
    grid = default_tolerance_grid()
    midpoints = [(low + high) / 2 for low, high in zip(grid, grid[1:])]
    return [0.0] + grid + midpoints


def _tier_mix(rng: np.random.Generator, n: int):
    """Tolerances and objectives of ``n`` requests: tolerances uniform
    over :func:`_tolerance_values`, objectives uniform over the two the
    router is fitted for."""
    values = np.asarray(_tolerance_values())
    tolerance = values[rng.integers(len(values), size=n)]
    objectives = np.asarray(list(Objective), dtype=object)
    return tolerance.tolist(), objectives[rng.integers(2, size=n)].tolist()


def _spread_rows(rng: np.random.Generator, n: int, n_rows: int) -> np.ndarray:
    """``n`` row indices covering every measured row, in random order."""
    reps = -(-n // n_rows)
    rows = np.concatenate([rng.permutation(n_rows) for _ in range(reps)])
    return rows[:n]


# ----------------------------------------------------------------------
# api-sync
# ----------------------------------------------------------------------
class ApiSync:
    """One closed-loop caller on ``TierGateway.handle`` over replay.

    Route, execute and backend invoke are the whole blocking path: no
    engine, report, control or trace.  Closed loop, because callers wait
    on the reply and ~25 us calls are too short to pace.  Layer metrics
    that should move ``latency_p50_us`` and ``throughput_rps`` here:
    ``router.route``, ``executor.execute`` and ``gateway.*`` self time;
    ``rule_generator.*`` moves ``setup_s``.
    """

    name = "api-sync"
    collects_traces = False
    #: Distinct requests; the caller cycles through them.
    POOL = 8192
    #: Share of calls made through ``handle_http`` headers: "a
    #: minority", assumed, with no traffic data behind the number.
    HTTP_SHARE = 0.15
    #: Every ``SAMPLE``-th pool entry is checked against the table.
    SAMPLE = 61
    CHUNK = 512

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.n_table = 1000 if smoke else IC_REQUESTS
        self.pool_size = 1024 if smoke else self.POOL
        rng = np.random.default_rng([seed, 1])
        self._rows = _spread_rows(rng, self.pool_size, self.n_table)
        self._tolerance, self._objective = _tier_mix(rng, self.pool_size)
        self._http = (rng.uniform(size=self.pool_size) < self.HTTP_SHARE).tolist()
        self.cursor = 0
        self._first: Dict[int, object] = {}
        self._pool: Optional[List] = None

    def setup(self) -> None:
        self.measurements, self.router = _tier_service(self.n_table)
        self.gateway = TierGateway(
            ReplayBackend(self.measurements), router=self.router
        )

    def _build_pool(self) -> List:
        ids = self.measurements.request_ids
        pool = []
        for i in range(self.pool_size):
            payload = ids[int(self._rows[i])]
            tolerance = self._tolerance[i]
            objective = self._objective[i]
            if self._http[i]:
                headers = {
                    "Tolerance": repr(tolerance),
                    "Objective": objective.value,
                }
                pool.append((True, (f"h{i:05d}", payload, headers)))
            else:
                pool.append(
                    (
                        False,
                        ServiceRequest(
                            f"q{i:05d}",
                            payload,
                            tolerance=tolerance,
                            objective=objective,
                        ),
                    )
                )
        return pool

    def step(self, tally: Tally) -> None:
        if self._pool is None:
            self._pool = self._build_pool()
        pool = self._pool
        handle = self.gateway.handle
        handle_http = self.gateway.handle_http
        clock = time.perf_counter
        size = len(pool)
        cursor = self.cursor
        for _ in range(self.CHUNK):
            http, request = pool[cursor]
            tally.attempted += 1
            start = clock()
            try:
                response = handle_http(*request) if http else handle(request)
            except Exception as exc:  # a failed operation; keep serving
                tally.fail(1, f"api-sync request {cursor}: {_describe(exc)}")
            else:
                tally.add_latency((clock() - start) * 1e6)
                tally.requests += 1
                if cursor % self.SAMPLE == 0:
                    first = self._first.setdefault(cursor, response)
                    if first != response:
                        tally.fail(
                            1, f"api-sync request {cursor}: response changed"
                        )
            cursor += 1
            if cursor == size:
                cursor = 0
        self.cursor = cursor

    def count_layers(self, tally: Tally) -> None:
        """No program-side counters: no engine, report, control or trace."""

    def finish(self, tally: Tally) -> None:
        """Sampled responses must equal the measured outcome table.

        The offline policy evaluator replays the same table through a
        separate code path (``EnsemblePolicy.evaluate``), so this checks
        routing plus execution against the paper's semantics.
        """
        table = self.measurements
        for index, response in sorted(self._first.items()):
            _, request = self._pool[index]
            if isinstance(request, tuple):
                request = ServiceRequest.from_headers(*request)
            configuration = self.router.route(request.tolerance, request.objective)
            row = table.request_ids.index(request.payload)
            expected = configuration.policy.evaluate(table, [row])
            want = float(expected.response_time_s[0])
            ok = (
                response.request_id == request.request_id
                and response.result == request.payload
                and response.tier == request.tolerance
                and set(response.versions_used) <= set(configuration.versions)
                and math.isclose(response.response_time_s, want, rel_tol=1e-9)
            )
            if not ok:
                tally.fail(
                    1,
                    f"api-sync request {index}: response {response} does not "
                    f"match the table ({configuration.config_id}, "
                    f"{want:.6f} s)",
                )


# ----------------------------------------------------------------------
# tiered-session
# ----------------------------------------------------------------------
class TieredSession:
    """Per-ticket ``submit()`` on a Poisson schedule, then one ``drain()``,
    through a ``SimulatedBackend`` replay cluster with every version
    pooled and batching on.

    The paper's online half under load: ticket bookkeeping, drain-time
    record and response materialisation, and the engine (legacy today,
    because routing is router-driven).  Open loop on the virtual clock,
    below capacity.  Should move ``throughput_rps`` and latency:
    ``engine.drain``, ``gateway.drain``, ``router.route`` and
    ``report.digest`` self time; ``rule_generator.*`` moves ``setup_s``.
    """

    name = "tiered-session"
    collects_traces = False
    #: Requests per session and offered rate (virtual requests/s).
    SESSION = 2000
    RATE = 100.0
    #: Pool utilisation the cluster is sized for: the middle of the band
    #: in which the default autoscaler neither adds nor removes nodes.
    UTILISATION = (
        AutoscalerConfig.scale_down_utilization
        + AutoscalerConfig.scale_up_utilization
    ) / 2
    #: Distinct schedules; sessions cycle through them, so every
    #: schedule repeats and its report digest must repeat too.
    SCHEDULES = 8
    BATCHING = BatchingConfig(max_batch_size=4, max_wait_s=0.01)

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.n_table = 1000 if smoke else IC_REQUESTS
        self.session = 200 if smoke else self.SESSION
        self._schedules = []
        for k in range(self.SCHEDULES):
            rng = np.random.default_rng([seed, 2, k])
            tolerance, objective = _tier_mix(rng, self.session)
            at = np.cumsum(rng.exponential(1.0 / self.RATE, size=self.session))
            rows = _spread_rows(rng, self.session, self.n_table)
            self._schedules.append((tolerance, objective, at.tolist(), rows))
        self._seeds = [seed * 1000 + k for k in range(self.SCHEDULES)]
        self._requests: Optional[List[List[ServiceRequest]]] = None
        self._digests: Dict[int, str] = {}
        self.cursor = 0
        self._gateway = None
        self._last = None

    def _pool_sizes(self) -> Dict[str, int]:
        """Nodes per version for the offered rate at the target
        utilisation, from each routed configuration's replayed
        node-seconds (every version gets at least one node)."""
        demand = dict.fromkeys(self.measurements.versions, 0.0)
        evaluated = {}
        n = 0
        for tolerance, objective, _, rows in self._schedules:
            for tol, obj, row in zip(tolerance, objective, rows):
                configuration = self.router.route(tol, obj)
                outcomes = evaluated.get(configuration.config_id)
                if outcomes is None:
                    outcomes = configuration.policy.evaluate(self.measurements)
                    evaluated[configuration.config_id] = outcomes
                for version, seconds in outcomes.node_seconds.items():
                    demand[version] += float(seconds[row])
                n += 1
        return {
            version: max(
                1,
                math.ceil(self.RATE * total / n / self.UTILISATION),
            )
            for version, total in demand.items()
        }

    def _new_gateway(self, k: int) -> TierGateway:
        backend = SimulatedBackend(
            build_replay_cluster(self.measurements, self.pools),
            batching=self.BATCHING,
            seed=self._seeds[k],
        )
        return TierGateway(backend, router=self.router)

    def setup(self) -> None:
        self.measurements, self.router = _tier_service(self.n_table)
        self.pools = self._pool_sizes()
        self._gateway = self._new_gateway(0)

    def _build_requests(self) -> List[List[ServiceRequest]]:
        ids = self.measurements.request_ids
        sessions = []
        for k, (tolerance, objective, _, rows) in enumerate(self._schedules):
            sessions.append(
                [
                    ServiceRequest(
                        f"s{k}-{j:05d}",
                        ids[int(row)],
                        tolerance=tol,
                        objective=obj,
                    )
                    for j, (tol, obj, row) in enumerate(
                        zip(tolerance, objective, rows)
                    )
                ]
            )
        return sessions

    def step(self, tally: Tally) -> None:
        if self._requests is None:
            self._requests = self._build_requests()
        k = self.cursor % self.SCHEDULES
        self.cursor += 1
        requests = self._requests[k]
        at_times = self._schedules[k][2]
        gateway = self._gateway or self._new_gateway(k)
        self._gateway = None
        clock = time.perf_counter
        submitted = array("d", bytes(8 * len(requests)))
        tickets = []
        tally.attempted += len(requests)
        for request, at_time in zip(requests, at_times):
            start = clock()
            try:
                tickets.append(gateway.submit(request, at_time=at_time))
            except Exception as exc:
                tally.fail(
                    1,
                    f"tiered-session submit {request.request_id}: "
                    f"{_describe(exc)}",
                )
            else:
                submitted[len(tickets) - 1] = start
        try:
            gateway.drain()
        except Exception as exc:
            tally.fail(len(tickets), f"tiered-session drain: {_describe(exc)}")
            return
        end = clock()
        report = gateway.backend.last_report
        digest = report.digest()
        first = self._digests.setdefault(k, digest)
        if digest != first:
            tally.fail(
                len(tickets), f"tiered-session schedule {k}: digest changed"
            )
            return
        n_ok = n_failed = n_shed = n_open = 0
        for ticket in tickets:
            if not ticket.done:
                n_open += 1
            elif ticket.ok:
                n_ok += 1
            elif isinstance(ticket.exception(), RequestShedError):
                n_shed += 1
            elif isinstance(ticket.exception(), RequestFailedError):
                n_failed += 1
        # Conservation: every ticket resolves after drain(), and the
        # tickets' outcomes agree with the report's own counts (a request
        # without a record resolves failed on its ticket alone).
        counts = (n_ok, n_failed, n_shed)
        expected = (
            report.n_requests - report.n_failed - report.n_shed,
            report.n_failed,
            report.n_shed,
        )
        if n_open or report.n_requests != len(tickets) or counts != expected:
            tally.fail(
                len(tickets),
                f"tiered-session schedule {k}: {len(tickets)} submitted, "
                f"{n_open} unresolved, tickets ok/failed/shed {counts}, "
                f"report {report.n_requests} records, ok/failed/shed "
                f"{expected}",
            )
            return
        tally.requests += len(tickets)
        lat = (end - np.frombuffer(submitted, dtype=float)[: len(tickets)]) * 1e6
        for value in lat.tolist():
            tally.add_latency(value)
        tally.engines[(report.engine_used, report.fallback_reason)] += 1
        self._last = (report, n_failed, n_shed)

    def count_layers(self, tally: Tally) -> None:
        if self._last is None:
            return
        report, n_failed, n_shed = self._last
        self._last = None
        _count_engine(
            tally,
            report.engine_used,
            report.n_requests,
            report.escalation_rate,
            report.total_retries,
        )
        tally.counters["gateway.tickets_failed"] += n_failed
        tally.counters["gateway.tickets_shed"] += n_shed

    def finish(self, tally: Tally) -> None:
        """Schedule 0 once more: its report digest must repeat."""
        self.cursor = 0
        self.step(tally)


def _count_engine(
    tally: Tally,
    engine: Optional[str],
    n: int,
    escalation_rate: float,
    retries: int,
) -> None:
    """Requests per engine and dispatched attempts (legs plus retries)."""
    if not n:
        return
    tally.counters[f"engine.requests_{engine}"] += n
    tally.counters["engine.requests"] += n
    tally.counters["engine.attempts"] += n * (1.0 + escalation_rate) + retries


# ----------------------------------------------------------------------
# the two multi-region workloads
# ----------------------------------------------------------------------
_TOY_SEQ = EnsembleConfiguration("bench_seq", SequentialPolicy("fast", "slow", 0.6))


class _Regions:
    """A serial ``run_multi_region`` per operation.

    Operation ``k`` runs spec ``k % SPECS``, seeded from ``(seed, k)``.
    A spec that runs again must reproduce its first report digest (and
    trace digest); :meth:`finish` re-runs spec 0 so every run checks at
    least one repetition.
    """

    collects_traces = False
    #: Distinct specs cycled through.
    SPECS = 1

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.cursor = 0
        self._digests: Dict[int, str] = {}
        self._trace_digests: Dict[int, str] = {}
        self._last = None

    def setup(self) -> None:
        self.measurements = scenario_measurements()
        self.spec = self.build_spec(0)

    def _spec(self, k: int) -> MultiRegionSpec:
        return self.spec if k == 0 else self.build_spec(k)

    def _spec_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def step(self, tally: Tally) -> None:
        k = self.cursor % self.SPECS
        self.cursor += 1
        self._run(k, tally, trace=self.collects_traces)

    def _run(self, k: int, tally: Tally, *, trace: bool) -> None:
        tally.attempted += 1
        spec = self._spec(k)
        collector = TraceCollector() if trace else None
        start = time.perf_counter()
        try:
            report = runner.run_multi_region(
                spec, self.measurements, trace=collector
            )
            digest = report.digest()
            trace_digest = collector.digest() if collector is not None else None
        except Exception as exc:
            tally.fail(1, f"{self.name} spec {k}: {_describe(exc)}")
            return
        tally.add_latency((time.perf_counter() - start) * 1e6)
        problem = self._check(k, report, digest, collector, trace_digest)
        if problem:
            tally.fail(1, f"{self.name} spec {k}: {problem}")
            return
        tally.requests += report.n_requests
        for shard in report.shards:
            tally.engines[
                (shard.region, shard.engine_used, shard.fallback_reason)
            ] += 1
        self._last = (report, collector)

    def count_layers(self, tally: Tally) -> None:
        if self._last is None:
            return
        report, collector = self._last
        self._last = None
        for shard in report.shards:
            summary = shard.summary
            _count_engine(
                tally,
                shard.engine_used,
                int(summary.get("n_requests", 0)),
                summary.get("escalation_rate", 0.0),
                summary.get("total_retries", 0),
            )
            tally.counters["control.swaps"] += sum(
                1 for entry in shard.control_log if entry.kind == "swap"
            )
        tally.counters["regions.failover_requests"] += report.n_failovers
        if collector is not None:
            tally.counters["obs.spans"] += sum(
                len(trace.spans) for trace in collector.traces
            )

    def _check(self, k, report, digest, collector, trace_digest) -> Optional[str]:
        resolved = report.n_completed + report.n_failed + report.n_shed
        if resolved != report.n_requests:
            return f"{report.n_requests} generated, {resolved} resolved"
        if digest != self._digests.setdefault(k, digest):
            return "report digest changed between repetitions"
        if collector is not None:
            if len(collector) != report.n_requests:
                return (
                    f"{len(collector)} traces for {report.n_requests} requests"
                )
            if trace_digest != self._trace_digests.setdefault(k, trace_digest):
                return "trace digest changed between repetitions"
        return None

    def finish(self, tally: Tally) -> None:
        """Spec 0 once more, untraced: its digest must repeat (and, with
        a trace attached before, tracing must not have moved it)."""
        self._run(0, tally, trace=False)


def _waves(first_s: float, period_s: float, horizon_s: float) -> List[float]:
    """Wave start times: one every ``period_s`` from ``first_s`` on, while
    the whole period (the wave, then its recovery) fits in the run."""
    count = int((horizon_s - first_s) // period_s)
    return [first_s + i * period_s for i in range(count)]


class RegionalChaos(_Regions):
    """Three toy-measurement regions, each under repeating fault waves and
    an adaptive control plane; untraced.

    A 4 s wave starts every 8 s from 5 s on (at 5, 13 and 21 s of the
    30 s run), at the same virtual times for every seed.  The 8 s
    telemetry window of ``default_control_spec`` spans consecutive
    waves, so the gray and crash regions stay in latency breach from
    the first wave to about 20 s and the adaptor swaps tiers until the
    run ends; the transient region's retries absorb most of its faults
    and it breaches only on some seeds.  The control loop reacts
    differently to different arrivals (swap counts per spec vary by up
    to ~2x), so every operation runs a spec of its own and a run
    averages over many.

    Control ticks, re-fits and the legacy loop dominate; no gateway or
    trace work.  Should move ``throughput_rps`` and latency:
    ``rule_generator.fit`` (re-fits), ``control.snapshot``,
    ``control.*`` and ``engine.drain`` self time.
    """

    name = "regional-chaos"
    SPECS = 1000
    #: Requests per region and offered rate per region (the accurate
    #: pool half busy); a fault wave of ``WAVE_S`` every ``PERIOD_S``
    #: from ``FIRST_S`` on.
    PER_REGION = 600
    RATE = 20.0
    FIRST_S = 5.0
    PERIOD_S = 8.0
    WAVE_S = 4.0
    POOLS = {"fast": 4, "slow": 8}
    #: Accurate nodes a wave turns gray or crashes.
    HIT = 6

    def build_spec(self, k: int) -> MultiRegionSpec:
        n = 100 if self.smoke else self.PER_REGION
        # A smoke run is too short for a full period: one wave from 1 s.
        starts = (
            [1.0]
            if self.smoke
            else _waves(self.FIRST_S, self.PERIOD_S, n / self.RATE)
        )
        end = self.WAVE_S
        retry = RetryPolicy(max_attempts=2, backoff_s=0.05)
        gray = tuple(
            GrayFailure(
                at_s=t,
                version="slow",
                node_index=i,
                speed_factor=0.3,
                confidence_factor=0.5,
                until_s=t + end,
            )
            for t in starts
            for i in range(self.HIT)
        )
        # Each crash takes the pool's first live node, so HIT crashes at
        # one instant take down HIT distinct nodes.
        crashes = tuple(
            NodeCrash(at_s=t, version="slow", node_index=0, recover_at_s=t + end)
            for t in starts
            for _ in range(self.HIT)
        )
        transient = tuple(
            TransientFaults(
                start_s=t,
                end_s=t + end,
                failure_probability=1.0,
                versions=("slow",),
            )
            for t in starts
        )
        regions = []
        for name, faults, retry_policy in (
            ("us-east", gray, RetryPolicy()),
            ("eu-west", crashes, retry),
            ("ap-south", transient, retry),
        ):
            regions.append(
                RegionSpec(
                    name=name,
                    scenario=ScenarioSpec(
                        name=f"chaos-{name}",
                        arrivals=PoissonArrivals(self.RATE),
                        n_requests=n,
                        pools=dict(self.POOLS),
                        configuration=_TOY_SEQ,
                        faults=faults,
                        retry=retry_policy,
                        control=default_control_spec(),
                    ),
                )
            )
        return MultiRegionSpec(
            name="regional-chaos", regions=tuple(regions), seed=self._spec_seed(k)
        )


class TracedRegions(_Regions):
    """Three healthy regions, one under-provisioned so it spills over by
    capacity, with a ``TraceCollector`` attached.

    Every shard runs columnar, so trace recording, reconstruction and
    merge, and report work, are most of the time.  Should move
    ``throughput_rps``, latency and ``peak_rss_mb``: ``obs.*`` and
    ``report.*`` self time, ``regions.*`` self time.
    """

    name = "traced-regions"
    collects_traces = True
    SPECS = 4
    PER_REGION = 500
    #: Offered rate per region; ``ap-south`` has half the pools of the
    #: others and advertises 60 % of its offered rate, so it spills.
    RATES = {"us-east": 5.0, "eu-west": 4.0, "ap-south": 6.0}

    def build_spec(self, k: int) -> MultiRegionSpec:
        n = 100 if self.smoke else self.PER_REGION

        def region(name, pools, **kwargs):
            return RegionSpec(
                name=name,
                scenario=ScenarioSpec(
                    name=f"traced-{name}",
                    arrivals=PoissonArrivals(self.RATES[name]),
                    n_requests=n,
                    pools=pools,
                    configuration=_TOY_SEQ,
                ),
                **kwargs,
            )

        small = region(
            "ap-south", {"fast": 1, "slow": 1}, failover=("us-east", "eu-west")
        )
        small = replace(
            small,
            capacity_rps=min(
                derive_capacity_rps(small, self.measurements),
                0.6 * self.RATES["ap-south"],
            ),
        )
        regions = (
            region("us-east", {"fast": 2, "slow": 2}),
            region("eu-west", {"fast": 2, "slow": 2}),
            small,
        )
        return MultiRegionSpec(
            name="traced-regions", regions=regions, seed=self._spec_seed(k)
        )


WORKLOADS = {
    cls.name: cls for cls in (ApiSync, TieredSession, RegionalChaos, TracedRegions)
}
