"""Tests of the benchmark itself: metric coverage, predicted engines, and
that its correctness checks catch a broken program.

Runs smoke-sized workloads (small tables, sessions and regions, and a
fraction of a second of timed phase), so the whole module takes seconds.
"""

from __future__ import annotations

import json
import sys

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the program on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@pytest.fixture(autouse=True)
def _span_files(tmp_path, monkeypatch):
    """Traced runs write their spans under the test's temporary dir."""
    monkeypatch.setattr(run, "OUT", tmp_path)


def _smoke(name, trace):
    return run.run(name, seed=3, seconds=0.05, trace=trace, smoke=True)


def test_benchmark_file_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, tmp_path):
    result, lines, manifest = _smoke(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any("failed_frac=0.0" in line for line in lines)
    for key in ("cpu_count", "python", "numpy", "commit", "seed", "simulator_runs"):
        assert key in manifest

    result, lines, manifest = _smoke(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == PER_LAYER
    assert result["metrics"]["bench.trace_overhead_x"]["value"] > 0
    assert (tmp_path / f"spans-{name}.npz").is_file()


#: The engine each workload is predicted to run today, with the reason
#: a legacy run names.
PREDICTED_ENGINES = {
    "api-sync": set(),
    "tiered-session": {("legacy", "router-driven routing")},
    "regional-chaos": {
        ("legacy", "fault schedule present (GrayFailure)"),
        ("legacy", "fault schedule present (NodeCrash)"),
        ("legacy", "fault schedule present (TransientFaults)"),
    },
    "traced-regions": {("columnar", None)},
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_predicted_engines_hold(name):
    _, _, manifest = _smoke(name, trace=False)
    engines = {
        (entry["engine_used"], entry["fallback_reason"])
        for entry in manifest["simulator_runs"]
    }
    assert engines == PREDICTED_ENGINES[name]


@pytest.mark.parametrize("name", ["tiered-session", "regional-chaos"])
def test_a_tampered_digest_is_a_failure(name, monkeypatch):
    from repro.service.regions.report import MultiRegionReport
    from repro.service.simulation.report import LoadTestReport

    owner = LoadTestReport if name == "tiered-session" else MultiRegionReport
    calls = iter(range(10**6))
    monkeypatch.setattr(owner, "digest", lambda self: f"tampered-{next(calls)}")
    workload = workloads.WORKLOADS[name](3, smoke=True)
    workload.setup()
    tally = workloads.Tally(latency_capacity=16)
    if name == "tiered-session":
        # One more session than schedules: schedule 0 repeats.
        for _ in range(workload.SCHEDULES + 1):
            workload.step(tally)
    else:
        workload.step(tally)
        workload.finish(tally)  # runs spec 0 again
    assert tally.failed > 0


def test_a_dropped_record_is_a_failure(monkeypatch):
    """A request the engine loses resolves failed on its ticket alone;
    only the check against the report's own counts catches it."""
    from dataclasses import replace

    from repro.service.simulation.engine import ServingSimulator

    drain = ServingSimulator.drain

    def lossy_drain(self):
        report = drain(self)
        return replace(report, records=report.records[1:])

    monkeypatch.setattr(ServingSimulator, "drain", lossy_drain)
    workload = workloads.WORKLOADS["tiered-session"](3, smoke=True)
    workload.setup()
    tally = workloads.Tally(latency_capacity=16)
    workload.step(tally)
    assert tally.failed > 0


def test_span_ledger_self_time(monkeypatch):
    from ledger import Ledger

    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    ledger = Ledger()
    ledger.wrap(Layer, "outer", "outer")
    ledger.wrap(Layer, "inner", "inner")
    ledger.phase(Ledger.TIMED)
    try:
        assert Layer().outer() == 2
    finally:
        ledger.unwrap_all()
    assert not hasattr(Layer.inner, "__wrapped__")
    totals = ledger.fold()
    assert totals.calls[("outer", Ledger.TIMED)] == 1
    assert totals.calls[("inner", Ledger.TIMED)] == 2
    self_s = ledger.self_times()
    assert (self_s >= -1e-9).all()
    assert ledger.check(wall_s=60.0) == []
    assert ledger.check(wall_s=0.0) != []
