"""PERF — the repository's performance-regression harness.

Times the three hot paths that gate everything else and writes the numbers
to ``BENCH_PERF.json`` at the repo root, seeding a performance trajectory
future PRs can diff against:

1. **Rule-generator construction** on the FIG7 configuration space, for
   three implementations (plus an ``online_refit`` row: milliseconds per
   adaptor-shaped re-fit, vectorized against the legacy oracle):

   * ``vectorized`` — the default outcome-matrix engine;
   * ``legacy`` — the in-repo scalar oracle (already faster than the seed
     because policy evaluation no longer materialises request-id tuples);
   * ``pre_pr`` — a faithful reconstruction of the seed (pre-PR-2)
     bootstrap loop: a fresh baseline policy per trial and eager
     materialisation of both per-trial request-id tuples, exactly the
     overheads this PR removed.  All three must produce bit-identical
     worst-case estimates.

2. **Policy-evaluation throughput** (request-rows scored per second)
   through ``evaluate_policy`` with the shared pricing model and cached
   OSFA baseline threaded through.

3. **One ServingSimulator load run** (event-driven engine wall time and
   simulated requests per second).

Smoke mode (for CI): set ``REPRO_BENCH_SMOKE=1`` to run single timing
repetitions and relax the speedup floor (shared-runner timings are noisy).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf.py -q -s
"""

import json
import os
import time
from pathlib import Path

import history
import numpy as np
from conftest import save_artifact

from repro.analysis import format_table
from repro.core import (
    ConcurrentPolicy,
    EarlyTerminationPolicy,
    EnsembleConfiguration,
    RoutingRuleGenerator,
    SequentialPolicy,
    SingleVersionPolicy,
    WorstCaseEstimate,
    build_pricing,
    enumerate_configurations,
    evaluate_policy,
)
from repro.core.metrics import summarize_outcomes
from repro.service.control import PolicyAdaptor, default_control_spec
from repro.service.simulation import (
    BatchingConfig,
    PoissonArrivals,
    ServingSimulator,
    build_replay_cluster,
    scenario_measurements,
)
from repro.stats.confidence import ConfidenceTest
from repro.stats.resampling import subsample_indices

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPS = 1 if SMOKE else 7
#: Minimum accepted construction speedup of the vectorized engine over the
#: reconstructed pre-PR loop.  On a quiet machine the engine lands >= 10x
#: (the committed BENCH_PERF.json records the canonical numbers); the hard
#: regression gate keeps a noise margin because CI runners and 1-vCPU
#: containers time small numpy ops erratically under contention.
SPEEDUP_FLOOR = 3.0 if SMOKE else 7.0
#: Minimum accepted columnar-over-legacy speedup of the serving
#: simulator, measured engine-vs-engine in the same process so machine
#: state cancels out.  On a quiet machine the columnar engine lands
#: >= 10x the recorded pre-PR baseline (see BENCH_PERF.json); the gate
#: keeps margin for contended CI runners and tiny smoke workloads.
SIM_SPEEDUP_FLOOR = 2.0 if SMOKE else 5.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PERF.json"

GENERATOR_KW = dict(confidence=0.999, seed=7, min_trials=10, max_trials=60)
#: Telemetry windows (34-50 rows of the toy scenario table) fit per
#: ``online_refit`` repetition.
REFIT_WINDOWS = 4 if SMOKE else 12
SIM_REQUESTS = 400 if SMOKE else 2000


def _fig7_space(measurements):
    """The FIG7 benchmark's configuration space (29 configurations)."""
    return enumerate_configurations(
        measurements,
        thresholds=(0.4, 0.5, 0.6, 0.7),
        fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet"],
    )


def _pre_pr_bootstrap(
    measurements,
    configuration,
    *,
    confidence_test,
    rng,
    pricing,
    baseline_version,
    sample_fraction=0.1,
):
    """The seed repository's bootstrap trial loop, reconstructed.

    Identical arithmetic to today's scalar oracle — the extra work below
    (fresh baseline policy per trial, eager request-id tuples) reproduces
    the Python-object overhead the seed paid per trial, so timing this
    loop measures the pre-PR implementation on current hardware.
    """
    sample_size = max(2, int(round(measurements.n_requests * sample_fraction)))
    trials = []
    while True:
        indices = subsample_indices(measurements.n_requests, sample_size, rng=rng)
        baseline_policy = SingleVersionPolicy(baseline_version)
        baseline = baseline_policy.evaluate(measurements, indices)
        outcomes = configuration.policy.evaluate(measurements, indices)
        tuple(baseline.request_ids)
        tuple(outcomes.request_ids)
        trials.append(
            summarize_outcomes(outcomes, baseline, pricing, degradation_mode="relative")
        )
        columns = (
            [t.error_degradation for t in trials],
            [t.mean_response_time_s for t in trials],
            [t.mean_invocation_cost for t in trials],
        )
        if confidence_test.all_satisfied(columns):
            break
    return WorstCaseEstimate(
        config_id=configuration.config_id,
        error_degradation=max(t.error_degradation for t in trials),
        mean_response_time_s=max(t.mean_response_time_s for t in trials),
        mean_invocation_cost=max(t.mean_invocation_cost for t in trials),
        n_trials=len(trials),
    )


def _pre_pr_generator_results(measurements, configurations):
    """Bootstrap the whole space with the reconstructed pre-PR loop."""
    test = ConfidenceTest(
        confidence=GENERATOR_KW["confidence"],
        min_trials=GENERATOR_KW["min_trials"],
        max_trials=GENERATOR_KW["max_trials"],
    )
    rng = np.random.default_rng(GENERATOR_KW["seed"])
    pricing = build_pricing(measurements)
    baseline_version = measurements.most_accurate_version()
    return [
        _pre_pr_bootstrap(
            measurements,
            configuration,
            confidence_test=test,
            rng=rng,
            pricing=pricing,
            baseline_version=baseline_version,
        )
        for configuration in configurations
    ]


def _best_time(fn, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _estimates_equal(a, b):
    return all(
        x.config_id == y.config_id
        and x.n_trials == y.n_trials
        and x.error_degradation == y.error_degradation
        and x.mean_response_time_s == y.mean_response_time_s
        and x.mean_invocation_cost == y.mean_invocation_cost
        for x, y in zip(a, b)
    )


def _online_refit():
    """Milliseconds per adaptor-shaped re-fit, vectorized vs legacy.

    Each fit is what the control plane's adaptor runs on a re-fit: the
    default control spec's candidate space with its anchor, on one
    34-50-row window of the toy scenario table.
    """
    toy = scenario_measurements()
    config = default_control_spec().adaptor
    adaptor = PolicyAdaptor(
        config,
        measurements=toy,
        anchor=EnsembleConfiguration(
            "bench_seq", SequentialPolicy("fast", "slow", 0.6)
        ),
    )
    rng = np.random.default_rng(12)
    windows = [
        toy.subset(
            np.sort(
                rng.choice(toy.n_requests, int(rng.integers(34, 51)), replace=False)
            ).tolist()
        )
        for _ in range(REFIT_WINDOWS)
    ]

    def fit_all(engine):
        return [
            RoutingRuleGenerator(
                window,
                configurations=adaptor.candidates,
                confidence=config.confidence,
                sample_fraction=config.sample_fraction,
                seed=seed,
                degradation_mode=config.degradation_mode,
                min_trials=config.min_trials,
                max_trials=config.max_trials,
                engine=engine,
            ).results
            for seed, window in enumerate(windows)
        ]

    fit_all("vectorized")  # warm-up
    timings, results = {}, {}
    for engine, reps in (("vectorized", REPS), ("legacy", min(REPS, 3))):
        timings[engine], results[engine] = _best_time(
            lambda engine=engine: fit_all(engine), reps=reps
        )
    assert results["vectorized"] == results["legacy"]
    ms_per_fit = {
        engine: round(1e3 * wall / len(windows), 3)
        for engine, wall in timings.items()
    }
    return {
        "n_fits": len(windows),
        "n_configurations": len(adaptor.candidates),
        "ms_per_fit": ms_per_fit,
        "speedup_vs_legacy_oracle": round(
            ms_per_fit["legacy"] / ms_per_fit["vectorized"], 2
        ),
    }


def test_perf_rule_generator(ic_cpu_measurements):
    measurements = ic_cpu_measurements
    configurations = _fig7_space(measurements)

    # Warm one-time costs (scipy quantile evaluation, numpy ufunc setup)
    # out of the timed region.
    RoutingRuleGenerator(
        measurements, configurations[:2], engine="vectorized", **GENERATOR_KW
    )

    timings = {}
    generators = {}
    for engine in ("vectorized", "legacy"):
        timings[engine], generators[engine] = _best_time(
            lambda engine=engine: RoutingRuleGenerator(
                measurements, configurations, engine=engine, **GENERATOR_KW
            )
        )
    timings["pre_pr"], pre_pr_results = _best_time(
        lambda: _pre_pr_generator_results(measurements, configurations)
    )

    # All three implementations are the same computation: bit-identical
    # worst-case estimates, hence identical rule tables.
    assert _estimates_equal(
        generators["vectorized"].results, generators["legacy"].results
    )
    assert _estimates_equal(generators["vectorized"].results, pre_pr_results)
    tables = {}
    for objective in ("response-time", "cost"):
        rules = {
            engine: {
                tolerance: config.config_id
                for tolerance, config in generators[engine]
                .generate([0.01, 0.05, 0.10], objective)
                .rules.items()
            }
            for engine in generators
        }
        assert rules["vectorized"] == rules["legacy"]
        tables[objective] = rules["vectorized"]

    n_trials = sum(e.n_trials for e in generators["vectorized"].results)
    speedup_pre_pr = timings["pre_pr"] / timings["vectorized"]
    speedup_scalar = timings["legacy"] / timings["vectorized"]
    rows = [
        [name, timings[name], n_trials / timings[name], timings[name] / timings["vectorized"]]
        for name in ("pre_pr", "legacy", "vectorized")
    ]
    print()
    print(
        format_table(
            ["implementation", "construction (s)", "trials/s", "x slower than vectorized"],
            rows,
            title=f"PERF rule-generator construction ({len(configurations)} configs, "
            f"{measurements.n_requests} requests, {n_trials} trials)",
            float_format=".3f",
        )
    )
    assert speedup_pre_pr >= SPEEDUP_FLOOR, (
        f"vectorized engine is only {speedup_pre_pr:.1f}x faster than the "
        f"pre-PR loop (floor {SPEEDUP_FLOOR}x)"
    )
    online_refit = _online_refit()
    print(
        f"PERF online re-fit ({online_refit['n_configurations']} configs, "
        f"{online_refit['n_fits']} windows): "
        f"{online_refit['ms_per_fit']['vectorized']:.2f} ms/fit vectorized, "
        f"{online_refit['ms_per_fit']['legacy']:.2f} ms/fit legacy"
    )

    _merge_output(
        {
            "rule_generator": {
                "n_configurations": len(configurations),
                "n_requests": measurements.n_requests,
                "n_trials": n_trials,
                "wall_s": {k: round(v, 6) for k, v in timings.items()},
                "trials_per_s": {
                    k: round(n_trials / v, 1) for k, v in timings.items()
                },
                "speedup_vs_pre_pr": round(speedup_pre_pr, 2),
                "speedup_vs_legacy_oracle": round(speedup_scalar, 2),
                "online_refit": online_refit,
                "rule_tables": tables,
                "smoke": SMOKE,
            }
        }
    )


def test_perf_policy_evaluation(ic_cpu_measurements):
    measurements = ic_cpu_measurements
    accurate = measurements.most_accurate_version()
    fast = "ic_cpu_squeezenet"
    policies = [
        SingleVersionPolicy(accurate),
        SequentialPolicy(fast, accurate, 0.55),
        ConcurrentPolicy(fast, accurate, 0.55),
        EarlyTerminationPolicy(fast, accurate, 0.55),
    ]
    pricing = build_pricing(measurements)
    baseline = SingleVersionPolicy(accurate).evaluate(measurements)
    repeats = 2 if SMOKE else 10

    def run():
        for _ in range(repeats):
            for policy in policies:
                evaluate_policy(
                    measurements,
                    policy,
                    pricing=pricing,
                    baseline_outcomes=baseline,
                )

    wall, _ = _best_time(run)
    rows_scored = measurements.n_requests * len(policies) * repeats
    throughput = rows_scored / wall
    print()
    print(
        f"PERF policy evaluation: {rows_scored} request-rows in {wall:.3f}s "
        f"-> {throughput:,.0f} rows/s"
    )
    assert throughput > 100_000  # far below any plausible regression line

    _merge_output(
        {
            "policy_evaluation": {
                "request_rows": rows_scored,
                "wall_s": round(wall, 6),
                "rows_per_s": round(throughput, 1),
                "smoke": SMOKE,
            }
        }
    )


def test_perf_serving_simulator(ic_cpu_measurements):
    measurements = ic_cpu_measurements
    accurate = measurements.most_accurate_version()
    fast = "ic_cpu_squeezenet"
    threshold = 0.55
    configuration = EnsembleConfiguration(
        "perf_seq", SequentialPolicy(fast, accurate, threshold)
    )
    # Offer 70 % of the binding pool's capacity so the run exercises real
    # queueing without saturating (the fast pool serves every request, the
    # accurate pool only the escalated fraction).
    escalation = float(
        (measurements.column(fast, "confidence") < threshold).mean()
    )
    fast_capacity = 2.0 / measurements.mean_latency(fast)
    accurate_capacity = 2.0 / measurements.mean_latency(accurate)
    rate = 0.7 * min(fast_capacity, accurate_capacity / max(escalation, 1e-9))

    def run(engine):
        cluster = build_replay_cluster(measurements, {fast: 2, accurate: 2})
        simulator = ServingSimulator(
            cluster,
            configuration=configuration,
            batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01),
            seed=11,
            engine=engine,
        )
        return simulator.run(
            PoissonArrivals(rate),
            SIM_REQUESTS,
            payload_ids=measurements.request_ids,
        )

    # The headline engine and its scalar oracle, timed back to back in
    # the same process so machine state cancels out of the speedup.
    wall, report = _best_time(lambda: run("columnar"))
    legacy_wall, legacy_report = _best_time(lambda: run("legacy"))
    throughput = SIM_REQUESTS / wall
    legacy_throughput = SIM_REQUESTS / legacy_wall
    speedup = legacy_wall / wall
    print()
    print(
        f"PERF serving simulator: {SIM_REQUESTS} simulated requests in "
        f"{wall:.3f}s -> {throughput:,.0f} requests/s columnar "
        f"({legacy_throughput:,.0f} legacy, {speedup:.1f}x) "
        f"(sim p95 {report.p95_latency_s:.3f}s)"
    )
    assert report.n_requests == SIM_REQUESTS
    # The differential contract, asserted on the benchmark workload too:
    # speed without bit-identical behaviour is a bug, not a result.
    assert report.digest() == legacy_report.digest(), (
        "columnar and legacy engines diverged on the benchmark workload"
    )
    assert speedup >= SIM_SPEEDUP_FLOOR, (
        f"columnar engine only {speedup:.2f}x over legacy "
        f"(floor {SIM_SPEEDUP_FLOOR}x)"
    )

    _merge_output(
        {
            "serving_simulator": {
                "n_requests": SIM_REQUESTS,
                "wall_s": round(wall, 6),
                "requests_per_s": round(throughput, 1),
                "legacy_wall_s": round(legacy_wall, 6),
                "legacy_requests_per_s": round(legacy_throughput, 1),
                "speedup_vs_legacy": round(speedup, 2),
                "sim_p95_latency_s": round(report.p95_latency_s, 6),
                "smoke": SMOKE,
            }
        }
    )


#: Noise ceiling for the tracing-disabled A/A comparison (two identical
#: runs with no collector attached).  The engine's guard is a single
#: ``if self._trace is not None`` per hook site, so the true disabled
#: overhead is ~0% — the committed BENCH_PERF.json records the canonical
#: measured figure (< 1% on a quiet machine); the hard gate keeps a
#: noise margin for contended CI runners.
OBS_AA_CEILING_PCT = 50.0 if SMOKE else 10.0
#: Ceiling on the *enabled* recording cost, as a multiple of the
#: disabled wall time, per engine.  Legacy recording pays per-event
#: hooks inside an already-slow loop, so its multiple stays small.
#: Columnar recording is a post-hoc reconstruction: the hot path is
#: untouched, but building ~4 Python span objects per request is
#: measured against a wall time the vectorized engine keeps tiny, so
#: the *ratio* runs high even though the absolute cost (see
#: ``spans_per_s``) is ~10 us/span.
OBS_ENABLED_CEILING = {"columnar": 10.0, "legacy": 3.0}


def test_perf_observability(ic_cpu_measurements):
    """Tracing cost: disabled must be free, enabled must be bounded.

    Times the serving-simulator benchmark workload four ways — columnar
    and legacy, with and without a trace collector — plus a disabled
    A/A pair, and asserts the digest-neutrality contract on the
    benchmark workload itself: attaching a collector must not move the
    report digest by a single bit.
    """
    from repro.obs import TraceCollector

    measurements = ic_cpu_measurements
    accurate = measurements.most_accurate_version()
    fast = "ic_cpu_squeezenet"
    threshold = 0.55
    configuration = EnsembleConfiguration(
        "perf_seq", SequentialPolicy(fast, accurate, threshold)
    )
    escalation = float(
        (measurements.column(fast, "confidence") < threshold).mean()
    )
    fast_capacity = 2.0 / measurements.mean_latency(fast)
    accurate_capacity = 2.0 / measurements.mean_latency(accurate)
    rate = 0.7 * min(fast_capacity, accurate_capacity / max(escalation, 1e-9))

    def run(engine, with_trace):
        cluster = build_replay_cluster(measurements, {fast: 2, accurate: 2})
        collector = TraceCollector() if with_trace else None
        simulator = ServingSimulator(
            cluster,
            configuration=configuration,
            batching=BatchingConfig(max_batch_size=4, max_wait_s=0.01),
            seed=11,
            engine=engine,
            trace=collector,
        )
        report = simulator.run(
            PoissonArrivals(rate),
            SIM_REQUESTS,
            payload_ids=measurements.request_ids,
        )
        return report, collector

    # Warm both engines before any timed cell: the very first run of a
    # variant pays one-time import and allocator costs that would
    # otherwise land entirely on whichever cell happens to go first and
    # poison the A/A comparison below.
    run("columnar", False)
    run("legacy", False)

    walls, reports, collectors = {}, {}, {}
    # Time the disabled A/A pair back-to-back so the comparison sees
    # only timer noise, not machine-state drift across the other cells.
    walls["columnar_off"], (
        reports["columnar_off"],
        collectors["columnar_off"],
    ) = _best_time(lambda: run("columnar", False))
    aa_wall, _ = _best_time(lambda: run("columnar", False))
    aa_pct = abs(aa_wall - walls["columnar_off"]) / walls["columnar_off"] * 100

    for engine, with_trace in (
        ("columnar", True),
        ("legacy", False),
        ("legacy", True),
    ):
        key = f"{engine}_{'on' if with_trace else 'off'}"
        walls[key], (reports[key], collectors[key]) = _best_time(
            lambda engine=engine, with_trace=with_trace: run(
                engine, with_trace
            )
        )

    # Digest neutrality on the benchmark workload, both engines.
    for engine in ("columnar", "legacy"):
        assert (
            reports[f"{engine}_on"].digest()
            == reports[f"{engine}_off"].digest()
        ), f"tracing changed the {engine} report digest"

    collector = collectors["columnar_on"]
    n_spans = sum(len(t.spans) for t in collector.traces)
    assert len(collector) == SIM_REQUESTS
    spans_per_s = n_spans / walls["columnar_on"]
    overhead = {
        engine: walls[f"{engine}_on"] / walls[f"{engine}_off"]
        for engine in ("columnar", "legacy")
    }
    print()
    print(
        f"PERF observability: disabled A/A {aa_pct:.2f}% | "
        f"columnar enabled {overhead['columnar']:.2f}x "
        f"({spans_per_s:,.0f} spans/s) | "
        f"legacy enabled {overhead['legacy']:.2f}x"
    )
    assert aa_pct <= OBS_AA_CEILING_PCT, (
        f"tracing-disabled A/A runs differ by {aa_pct:.1f}% "
        f"(ceiling {OBS_AA_CEILING_PCT}%)"
    )
    for engine, ceiling in OBS_ENABLED_CEILING.items():
        assert overhead[engine] <= ceiling, (
            f"{engine} recording costs {overhead[engine]:.2f}x disabled "
            f"(ceiling {ceiling}x)"
        )

    _merge_output(
        {
            "observability": {
                "n_requests": SIM_REQUESTS,
                "disabled_wall_s": round(walls["columnar_off"], 6),
                "disabled_aa_overhead_pct": round(aa_pct, 3),
                "enabled_wall_s": round(walls["columnar_on"], 6),
                "enabled_overhead_x": round(overhead["columnar"], 3),
                "legacy_enabled_wall_s": round(walls["legacy_on"], 6),
                "legacy_enabled_overhead_x": round(overhead["legacy"], 3),
                "n_spans": n_spans,
                "spans_per_s": round(spans_per_s, 1),
                "smoke": SMOKE,
            }
        }
    )


#: Which harness produces each BENCH_PERF.json section — recorded as the
#: ``source`` of that section's longitudinal history entries.
_SECTION_SOURCES = {
    "rule_generator": "bench_perf",
    "policy_evaluation": "bench_perf",
    "serving_simulator": "bench_perf",
    "observability": "bench_perf",
    "control_plane": "bench_control_plane",
    "resilience": "bench_resilience",
    "regions": "bench_regions",
}


def _merge_output(section):
    """Merge a benchmark section into BENCH_PERF.json (and results/).

    Smoke runs only write the ``results/`` copy: the root file is the
    committed perf trajectory and must hold full-repetition numbers, not
    noisy single-rep CI timings.  In smoke mode sections accumulate in
    the ``results/`` copy instead, so ``compare_perf.py`` sees all three
    sections, not just whichever test ran last.

    Every merge also appends one entry per section to the append-only
    longitudinal history (``results/bench_history.jsonl``), tagged with
    commit / machine / engine / smoke metadata, so the single committed
    point grows into a trajectory the trend checks can condition on.
    History recording must never fail a benchmark: IO problems are
    reported and swallowed.
    """
    target = OUTPUT if not SMOKE else None
    source = (
        target
        if target is not None
        else Path(__file__).resolve().parent.parent
        / "results"
        / "bench_perf.json"
    )
    payload = {}
    if source.exists():
        try:
            payload = json.loads(source.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(section)
    if target is not None:
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    save_artifact("bench_perf", payload)

    for name, body in section.items():
        try:
            history.record_run(
                {name: body},
                source=_SECTION_SOURCES.get(name, "bench_perf"),
                smoke=SMOKE,
            )
        except OSError as exc:
            print(f"bench_perf: history append failed for {name}: {exc}")
