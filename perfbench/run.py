"""The repository benchmark: four workloads from the tier API to traced
regions, with a per-layer wall-clock ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload api-sync --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same workload with the benchmark's span ledger
wrapped around each layer's public calls (see ``ledger.py``), folds the
spans into per-layer self time and counts, writes them to
``perfbench/out/spans-<workload>.npz``, and reports the tracing overhead
against an untraced replay of the same operations.

Every time metric is corrected for the host's speed drift.  A shared
machine runs the same code 15-25 % slower for tens of seconds at a time,
which no estimator over a 20-second run averages out.  So a fixed
pure-Python reference loop is timed before each step of the workload
(for about 2 % of the step's time), and the step's wall time and latency
samples are multiplied by ``REFERENCE_S / median(latest reference loop
times)``: the numbers read as on a host where the loop takes
``REFERENCE_S``.  Set-up time is scaled by the loop's speed around the
set-ups.  Raw throughput and set-up time are printed beside the scaled
ones.

Human-readable lines (a run manifest, then every metric with its unit)
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
benchmark writes nothing under ``results/`` and never touches
``BENCH_PERF.json`` or ``bench_history.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ledger import Ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("api-sync", "tiered-session", "regional-chaos", "traced-regions")

#: Duration of the reference loop on the host the numbers are scaled to
#: (about its median on a quiet 2-vCPU x86-64 container).
REFERENCE_S = 1.5e-3

#: Set-ups per run as ``(blocks, set-ups per block)``; ``setup_s`` is
#: the median over blocks of the mean set-up time in a block.  The
#: multi-region set-ups take a fraction of a millisecond, so they run in
#: blocks, which a timer's and the caches' jitter cannot dominate.
SETUP_REPS = {
    "api-sync": (5, 1),
    "tiered-session": (5, 1),
    "regional-chaos": (7, 150),
    "traced-regions": (7, 150),
}


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the program's Python sources (path and content), so
    a number traces to its code even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(workload, seed: int, seconds: float, trace: bool, engines) -> dict:
    """How the numbers were produced; ``engines`` counts simulator runs
    (or region shards) by engine and fallback reason."""
    runs = []
    for key, count in sorted(engines.items(), key=str):
        entry = dict(zip(("engine_used", "fallback_reason"), key[-2:]))
        if len(key) == 3:
            entry = {"region": key[0], **entry}
        runs.append({**entry, "runs": count})
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "simulator_runs": runs,
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
class HostSpeed:
    """Times a fixed reference loop, to scale wall times to a host of
    nominal speed (see the module docstring)."""

    #: Latest samples a step's scale is taken over.
    WINDOW = 32

    def __init__(self) -> None:
        self.samples = []

    def sample(self, count: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(count):
            start = clock()
            total = 0
            for i in range(20_000):
                total += i * i
            self.samples.append(clock() - start)

    def scale(self, last: int = 0) -> float:
        """Multiplier turning a measured time into a nominal-host time,
        over every sample or the ``last`` ones."""
        return REFERENCE_S / statistics.median(self.samples[-last:])


# ----------------------------------------------------------------------
# paced calls
# ----------------------------------------------------------------------
def _paced(call, host, *, after=None, seconds=math.inf, times=0):
    """Call ``call(scale)`` ``times`` times, or until ``seconds`` of wall
    time passed; returns each call's ``(wall, scale)``.

    Before each call the reference loop runs for about 2 % of the
    previous call's time (at least once), and ``scale`` is the host
    speed over the latest ``HostSpeed.WINDOW`` samples.  ``after()``,
    when given, runs after each call, outside its wall time.
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    calls = []
    wall = REFERENCE_S
    while len(calls) < times or (not times and clock() < deadline) or not calls:
        host.sample(max(1, min(20, round(0.02 * wall / REFERENCE_S))))
        scale = host.scale(HostSpeed.WINDOW)
        start = clock()
        call(scale)
        wall = clock() - start
        calls.append((wall, scale))
        if after is not None:
            after()
    return calls


def _steps(workload, tally, host, *, seconds=math.inf, times=0):
    """Paced workload steps, each step's latency samples scaled by its
    host speed; returns the raw and the scaled wall time summed over
    the steps and the number of steps.

    Each step's program-side counters are added to the tally outside
    its wall time, in every mode: that also drops the step's report
    (and trace), so the next step runs without it alive, as a program
    serving one run after another would.
    """

    def step(scale):
        first = tally.n_latency
        workload.step(tally)
        tally.scale_latencies(first, scale)

    calls = _paced(
        step,
        host,
        after=lambda: workload.count_layers(tally),
        seconds=seconds,
        times=times,
    )
    raw = math.fsum(wall for wall, _ in calls)
    scaled = math.fsum(wall * scale for wall, scale in calls)
    return raw, scaled, len(calls)


# ----------------------------------------------------------------------
# end-to-end run (tracing off)
# ----------------------------------------------------------------------
def _end_to_end(workload, seconds: float, smoke: bool):
    """End-to-end metrics with nothing wrapped: set-up, then a warm-up
    step, then the timed phase, then the workload's slow checks."""
    from workloads import Tally

    host = HostSpeed()
    blocks, per_block = (1, 1) if smoke else SETUP_REPS[workload.name]

    def setup_block(scale):
        for _ in range(per_block):
            workload.setup()

    setups = [
        (wall / per_block, scale)
        for wall, scale in _paced(setup_block, host, times=blocks)
    ]
    warm = Tally(latency_capacity=0)
    workload.step(warm)  # lazy imports and first-use caches
    workload.count_layers(warm)
    tally = Tally()
    wall, scaled_wall, steps = _steps(workload, tally, host, seconds=seconds)
    check = Tally(latency_capacity=0)
    workload.finish(check)
    latencies = tally.latencies()
    p50, p90 = (
        np.percentile(latencies, [50, 90]).tolist()
        if latencies.size
        else (float("nan"),) * 2
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "throughput_rps": tally.requests / wall,
    }
    metrics = {
        "setup_s": (statistics.median(w * scale for w, scale in setups), "s"),
        "throughput_rps": (tally.requests / scaled_wall, "1/s"),
        "latency_p50_us": (p50, "us"),
        "latency_p90_us": (p90, "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {blocks} blocks of {per_block} set-ups",
        "throughput_rps": (
            f"{tally.requests} requests in {wall:.3f} s over {steps} steps"
        ),
        "latency_p50_us": f"n={latencies.size} {_latency_unit(workload)}",
        "latency_p90_us": f"n={latencies.size} {_latency_unit(workload)}",
        "peak_rss_mb": "ru_maxrss of the whole run",
    }
    lines = [_host_line(host)] + [
        f"perfbench {workload.name} {name}={value!r} {unit} "
        f"({'raw ' + format(raw[name], '.6g') + '; ' if name in raw else ''}"
        f"{notes[name]})"
        for name, (value, unit) in metrics.items()
    ]
    return metrics, (warm, tally, check), lines


def _host_line(host) -> str:
    quartiles = statistics.quantiles(host.samples, n=4)
    return (
        f"perfbench host reference loop median "
        f"{statistics.median(host.samples) * 1e3:.4f} ms (quartiles "
        f"{quartiles[0] * 1e3:.4f}, {quartiles[2] * 1e3:.4f}) over "
        f"{len(host.samples)} samples; run-wide scale {host.scale():.4f}"
    )


def _latency_unit(workload) -> str:
    return {
        "api-sync": "TierGateway.handle calls",
        "tiered-session": "requests, submit() call to drain() return",
        "regional-chaos": "run_multi_region calls",
        "traced-regions": "run_multi_region calls, trace attached",
    }[workload.name]


# ----------------------------------------------------------------------
# traced run (span ledger on)
# ----------------------------------------------------------------------
def _install(ledger) -> None:
    """Wrap each layer's public calls."""
    from repro.core import PolicyExecutor, RoutingRuleGenerator, TierRouter
    from repro.obs.record import SimTraceRecorder
    from repro.obs.trace import TraceCollector
    from repro.service.control.adaptor import PolicyAdaptor
    from repro.service.control.plane import ControlPlane
    from repro.service.control.telemetry import TelemetryHub
    from repro.service.gateway import ReplayBackend, TierGateway
    from repro.service.regions import runner
    from repro.service.regions.router import RegionRouter
    from repro.service.simulation.engine import ServingSimulator
    from repro.service.simulation.report import LoadTestReport, RecordColumns

    def arg_request(position):
        return lambda args, kwargs: args[position].request_id

    def arg_string(position):
        return lambda args, kwargs: args[position]

    wrap = ledger.wrap
    wrap(RoutingRuleGenerator, "__init__", "rule_generator.fit")
    wrap(RoutingRuleGenerator, "generate", "rule_generator.generate")
    wrap(TierRouter, "route", "router.route")
    wrap(PolicyExecutor, "execute", "executor.execute", arg_request(2))
    wrap(TierGateway, "handle", "gateway.handle", arg_request(1))
    wrap(TierGateway, "handle_http", "gateway.handle", arg_string(1))
    wrap(TierGateway, "submit", "gateway.submit", arg_request(1))
    wrap(TierGateway, "drain", "gateway.drain")
    wrap(ReplayBackend, "invoke", "gateway.invoke", arg_request(2))
    wrap(ServingSimulator, "submit", "engine.submit", arg_request(1))
    wrap(ServingSimulator, "drain", "engine.drain")
    wrap(LoadTestReport, "summary", "report.summary")
    wrap(LoadTestReport, "digest", "report.digest")
    wrap(RecordColumns, "record", "report.record")
    wrap(ControlPlane, "on_tick", "control.tick")
    wrap(ControlPlane, "admit", "control.admit", arg_request(1))
    wrap(ControlPlane, "observe", "control.observe", arg_request(1))
    wrap(TelemetryHub, "snapshot", "control.snapshot")
    wrap(PolicyAdaptor, "on_tick", "control.adaptor")
    for hook in sorted(vars(SimTraceRecorder)):
        if hook.startswith("on_"):
            wrap(SimTraceRecorder, hook, "obs.record")
    wrap(TraceCollector, "add_trace", "obs.collector")
    wrap(TraceCollector, "digest", "obs.collector")
    wrap(runner, "run_multi_region", "regions.run")
    wrap(RegionRouter, "plan", "regions.plan")
    wrap(runner, "run_shard", "regions.shard")
    wrap(runner, "merge_shards", "regions.merge")


#: Per-layer metric -> (span, statistic, unit).  ``calls`` and ``self_s``
#: are per operation of the timed phase; ``self_us`` is the mean self
#: time per call.  A span that ran only during set-up (rule generation
#: on the two tiered workloads) is reported per set-up instead.
SPAN_METRICS = {
    "rule_generator.fit.calls": ("rule_generator.fit", "calls", "1/op"),
    "rule_generator.fit.self_s": ("rule_generator.fit", "self_s", "s/op"),
    "rule_generator.generate.self_s": ("rule_generator.generate", "self_s", "s/op"),
    "router.route.calls": ("router.route", "calls", "1/op"),
    "router.route.self_us": ("router.route", "self_us", "us/call"),
    "executor.execute.calls": ("executor.execute", "calls", "1/op"),
    "executor.execute.self_us": ("executor.execute", "self_us", "us/call"),
    "gateway.handle.self_us": ("gateway.handle", "self_us", "us/call"),
    "gateway.submit.self_us": ("gateway.submit", "self_us", "us/call"),
    "gateway.invoke.self_us": ("gateway.invoke", "self_us", "us/call"),
    "gateway.drain.self_s": ("gateway.drain", "self_s", "s/op"),
    "engine.submit.self_us": ("engine.submit", "self_us", "us/call"),
    "engine.drain.self_s": ("engine.drain", "self_s", "s/op"),
    "report.summary.self_s": ("report.summary", "self_s", "s/op"),
    "report.digest.self_s": ("report.digest", "self_s", "s/op"),
    "report.records_materialised": ("report.record", "calls", "1/op"),
    "control.tick.calls": ("control.tick", "calls", "1/op"),
    "control.tick.self_s": ("control.tick", "self_s", "s/op"),
    "control.snapshot.calls": ("control.snapshot", "calls", "1/op"),
    "control.snapshot.self_s": ("control.snapshot", "self_s", "s/op"),
    "control.adaptor.self_s": ("control.adaptor", "self_s", "s/op"),
    "control.admit.self_us": ("control.admit", "self_us", "us/call"),
    "control.observe.self_us": ("control.observe", "self_us", "us/call"),
    "obs.record.self_s": ("obs.record", "self_s", "s/op"),
    "obs.collector.self_s": ("obs.collector", "self_s", "s/op"),
    "regions.plan.self_s": ("regions.plan", "self_s", "s/op"),
    "regions.shard.self_s": ("regions.shard", "self_s", "s/op"),
    "regions.merge.self_s": ("regions.merge", "self_s", "s/op"),
}


def _span_stat(totals, span: str, stat: str, n_ops: int) -> float:
    phase = Ledger.TIMED
    if not totals.calls.get((span, phase)):
        phase = Ledger.SETUP
        n_ops = 1
    calls = totals.calls.get((span, phase), 0)
    self_s = totals.self_s.get((span, phase), 0.0)
    if stat == "calls":
        return calls / n_ops
    if stat == "self_s":
        return self_s / n_ops
    return self_s / calls * 1e6 if calls else 0.0


def _traced(workload, seconds: float, smoke: bool):
    """Per-layer metrics from a traced run (``smoke`` is unused: set-up
    runs once here)."""
    from workloads import Tally

    host = HostSpeed()
    host.sample(HostSpeed.WINDOW)
    ledger = Ledger()
    _install(ledger)
    warm = Tally(latency_capacity=0)
    tally = Tally()
    try:
        setup_start = time.perf_counter()
        workload.setup()
        ledger.phase(Ledger.WARMUP)
        workload.step(warm)
        workload.count_layers(warm)
        mark = workload.cursor
        ledger.phase(Ledger.TIMED)
        # Half the run traced, about half replaying the same steps
        # untraced for the overhead ratio.
        traced_wall, traced_scaled, steps = _steps(
            workload, tally, host, seconds=seconds / 2
        )
        traced_end = time.perf_counter()
    finally:
        ledger.unwrap_all()
    n_ops = max(tally.attempted, 1)
    requests = max(tally.requests, 1)
    replay = Tally(latency_capacity=0)
    workload.cursor = mark
    untraced_wall, untraced_scaled, _ = _steps(workload, replay, host, times=steps)
    check = Tally(latency_capacity=0)
    workload.finish(check)
    ledger.write(OUT / f"spans-{workload.name}.npz")

    totals = ledger.fold()
    counters = tally.counters
    scale = host.scale()
    metrics = {
        name: (
            _span_stat(totals, span, stat, n_ops)
            * (scale if stat != "calls" else 1.0),
            unit,
        )
        for name, (span, stat, unit) in SPAN_METRICS.items()
    }
    refits = totals.calls.get(("rule_generator.fit", Ledger.TIMED), 0)
    run_self = totals.self_s.get(("regions.run", Ledger.TIMED), 0.0)

    def per_op(key):
        return counters[key] / n_ops, "1/op"

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0, "ratio"

    metrics.update(
        {
            "gateway.tickets_failed": per_op("gateway.tickets_failed"),
            "gateway.tickets_shed": per_op("gateway.tickets_shed"),
            "engine.requests_columnar": per_op("engine.requests_columnar"),
            "engine.requests_legacy": per_op("engine.requests_legacy"),
            "engine.attempts_per_request": ratio(
                counters["engine.attempts"], counters["engine.requests"]
            ),
            "report.records_per_request": ratio(
                totals.calls.get(("report.record", Ledger.TIMED), 0), requests
            ),
            "control.refits": (refits / n_ops, "1/op"),
            "control.swaps": per_op("control.swaps"),
            "control.swaps_per_refit": ratio(counters["control.swaps"], refits),
            # run_multi_region's own time is trace merging when a trace
            # is attached (and a few milliseconds of planning glue).
            "obs.merge.self_s": (
                run_self / n_ops * scale if workload.collects_traces else 0.0,
                "s/op",
            ),
            "obs.spans": per_op("obs.spans"),
            "obs.spans_per_request": ratio(counters["obs.spans"], requests),
            "regions.failover_requests": per_op("regions.failover_requests"),
            "bench.trace_overhead_x": (traced_scaled / untraced_scaled, "x"),
            "bench.unattributed_s": (
                (traced_wall - ledger.top_level_s(Ledger.TIMED)) / n_ops * scale,
                "s/op",
            ),
        }
    )

    # The ledger's own consistency check counts as one more operation.
    ledger_check = Tally(latency_capacity=0)
    ledger_check.attempted = 1
    problems = ledger.check(traced_end - setup_start)
    if problems:
        ledger_check.fail(1, "span ledger: " + "; ".join(problems))
    lines = [_host_line(host)] + [
        f"perfbench {workload.name} {name}={value!r} {unit}"
        for name, (value, unit) in metrics.items()
    ]
    lines.append(
        f"perfbench {workload.name} traced {steps} steps in {traced_wall:.3f} s, "
        f"untraced replay {untraced_wall:.3f} s, {len(ledger)} spans"
    )
    lines.extend(_top_slices(totals, traced_wall))
    return metrics, (warm, tally, replay, check, ledger_check), lines


def _top_slices(totals, wall: float, count: int = 6):
    """The largest self-time slices of the timed phase, as shares of it."""
    timed = sorted(
        (
            (self_s, span)
            for (span, phase), self_s in totals.self_s.items()
            if phase == Ledger.TIMED and self_s > 0.0
        ),
        reverse=True,
    )
    return [
        f"perfbench slice {span}: {self_s:.3f} s self "
        f"({100 * self_s / wall:.1f}% of traced wall)"
        for self_s, span in timed[:count]
    ]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False):
    """Run one workload; returns ``(result, lines, manifest)`` where
    ``result`` is the final JSON object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, smoke=smoke)
    runner = _traced if trace else _end_to_end
    metrics, tallies, lines = runner(workload, seconds, smoke)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    lines.append(
        f"perfbench {name} failed_frac={failed / max(attempted, 1)!r} "
        f"(failed {failed} of {attempted} operations)"
    )
    engines = sum((t.engines for t in tallies), Counter())
    manifest = _manifest(workload, seed, seconds, trace, engines)
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, lines, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}; run the benchmark from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    result, lines, manifest = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print("perfbench manifest " + json.dumps(manifest, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
