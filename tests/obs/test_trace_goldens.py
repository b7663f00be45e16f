"""Golden trace digests: the trace layer's own regression pin.

Report digests are pinned in ``tests/service/golden``; these goldens
pin the *trace* stream for three canonical runs and two merged
multi-region runs.  Trace shape depends on the engine (rich live
recording vs coarse columnar reconstruction), so each golden pins its
engine explicitly — fault scenarios fall back to the legacy loop under
either setting and are engine-invariant, while the healthy runs are
pinned under the default columnar engine's coarse reconstruction.

Regenerate after an intentional trace-shape change::

    PYTHONPATH=src python -m pytest tests/obs/test_trace_goldens.py \
        --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.obs import TraceCollector, aggregate_breakdown
from repro.service.regions import region_scenarios, run_multi_region
from repro.service.simulation import (
    canonical_scenarios,
    chaos_scenarios,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: ``(scenario, engine)`` pairs pinned to trace digests.
GOLDEN_TRACES = (
    ("baseline", "columnar"),
    ("node-crash", "legacy"),
    ("gray-failure", "legacy"),
)

#: ``(region scenario, engine)`` pairs whose *merged* trace stream —
#: every shard's traces folded in ``(finish time, region index, shard
#: seq)`` order, failover hops included — is pinned to a digest.
GOLDEN_REGION_TRACES = (
    ("regional-outage", "legacy"),
    ("tri-steady", "columnar"),
)


def _spec(name):
    scenarios = dict(canonical_scenarios())
    scenarios.update(chaos_scenarios())
    return scenarios[name]


def _payload(name, engine, collector):
    outcomes = {}
    for trace in collector.traces:
        outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
    classes = {
        cls: row["count"]
        for cls, row in aggregate_breakdown(collector).items()
    }
    return {
        "scenario": name,
        "engine": engine,
        "digest": collector.digest(),
        "headline": {
            "n_traces": len(collector),
            "n_run_events": len(collector.run_events),
            "outcomes": outcomes,
            "classes": classes,
        },
    }


def _check_golden(path, payload, update_golden):
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"golden trace file {path} is missing; generate it with "
        "`pytest tests/obs/test_trace_goldens.py --update-golden`"
    )
    golden = json.loads(path.read_text())
    assert payload["digest"] == golden["digest"], (
        f"trace digest for {payload['scenario']!r} ({payload['engine']}) "
        "changed: the recorded span stream differs from the pinned "
        "golden.  If the change is intentional, regenerate with "
        "--update-golden.\n"
        f"golden headline: {golden['headline']}\n"
        f"current headline: {payload['headline']}"
    )
    assert payload["headline"] == golden["headline"]


@pytest.mark.parametrize("name,engine", GOLDEN_TRACES)
def test_golden_trace_digest(name, engine, toy, update_golden):
    collector = TraceCollector()
    run_scenario(_spec(name), toy, engine=engine, trace=collector)
    _check_golden(
        GOLDEN_DIR / f"{name}-{engine}.json",
        _payload(name, engine, collector),
        update_golden,
    )


@pytest.mark.parametrize("name,engine", GOLDEN_REGION_TRACES)
def test_golden_region_trace_digest(name, engine, toy, update_golden):
    collector = TraceCollector()
    run_multi_region(
        region_scenarios()[name], toy, engine=engine, trace=collector
    )
    _check_golden(
        GOLDEN_DIR / f"region-{name}-{engine}.json",
        _payload(name, engine, collector),
        update_golden,
    )
