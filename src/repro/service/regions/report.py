"""The merged view of a multi-region run.

:func:`merge_shards` folds per-shard results and the router's boundary
stream into one :class:`MultiRegionReport`.  The merge is a pure,
order-insensitive function of its inputs — shards are re-sorted into
declaration order, boundary events already carry the ``(time, region,
seq)`` total order — so shards run in any order produce the same
object and the same :meth:`MultiRegionReport.digest`.

What the digest covers, and deliberately not: per region (in
declaration order) the shard report digest and the workload/outcome
counts; the boundary-event stream; the region SLO log.  Engine
bookkeeping (``engine_used``, ``fallback_reason``) stays out — which
engine executed a shard is bit-irrelevant to what the shard produced,
and the dual-engine equivalence is pinned by its own tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.regions.router import BoundaryEvent, RouterPlan
from repro.service.regions.shard import ShardResult
from repro.service.regions.spec import MultiRegionSpec

__all__ = ["MultiRegionReport", "merge_shards"]


class ConservationError(AssertionError):
    """A multi-region conservation invariant failed."""


@dataclass
class MultiRegionReport:
    """Bit-stable aggregate of an N-shard multi-region run.

    Attributes:
        spec: The spec that produced the run.
        shards: Per-region results in declaration order.
        boundary_events: The merged cross-shard event stream, totally
            ordered by ``(time, region declaration index, seq)``.
    """

    spec: MultiRegionSpec
    shards: Tuple[ShardResult, ...]
    boundary_events: Tuple[BoundaryEvent, ...]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def shard(self, region: str) -> ShardResult:
        """The named region's shard result."""
        for result in self.shards:
            if result.region == region:
                return result
        raise KeyError(f"unknown region {region!r}")

    @property
    def n_regions(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Requests generated across every region's arrival stream."""
        return sum(s.n_assigned for s in self.shards)

    @property
    def n_failovers(self) -> int:
        return sum(s.n_outgoing for s in self.shards)

    @property
    def n_denied(self) -> int:
        return sum(s.n_denied for s in self.shards)

    @property
    def n_completed(self) -> int:
        return sum(s.n_completed for s in self.shards)

    @property
    def n_failed(self) -> int:
        return sum(s.n_failed for s in self.shards)

    @property
    def n_shed(self) -> int:
        return sum(s.n_shed for s in self.shards)

    @property
    def makespan_s(self) -> float:
        """Latest finish time across every shard's virtual clock."""
        return max((s.last_finished_s for s in self.shards), default=0.0)

    @property
    def goodput_rps(self) -> float:
        span = self.makespan_s
        return self.n_completed / span if span > 0.0 else 0.0

    @property
    def availability(self) -> float:
        total = self.n_completed + self.n_failed + self.n_shed
        return self.n_completed / total if total else float("nan")

    def user_latency_percentile(self, q: float) -> float:
        """Global user-perceived latency percentile (failover pays RTT)."""
        arrays = [
            s.user_latencies_ok
            for s in self.shards
            if s.user_latencies_ok.size
        ]
        if not arrays:
            return float("nan")
        return float(np.percentile(np.concatenate(arrays), q))

    def engine_fallbacks(self) -> Dict[str, str]:
        """Region -> fallback reason, for shards that left columnar."""
        return {
            s.region: s.fallback_reason
            for s in self.shards
            if s.fallback_reason is not None
        }

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a flat dict (for tables/JSON/benches)."""
        return {
            "n_regions": float(self.n_regions),
            "n_requests": float(self.n_requests),
            "n_completed": float(self.n_completed),
            "n_failed": float(self.n_failed),
            "n_shed": float(self.n_shed),
            "n_failovers": float(self.n_failovers),
            "n_failover_denied": float(self.n_denied),
            "n_boundary_events": float(len(self.boundary_events)),
            "availability": self.availability,
            "goodput_rps": self.goodput_rps,
            "makespan_s": self.makespan_s,
            "total_cost": sum(s.total_cost for s in self.shards),
            "p50_user_latency_s": self.user_latency_percentile(50.0),
            "p95_user_latency_s": self.user_latency_percentile(95.0),
            "p99_user_latency_s": self.user_latency_percentile(99.0),
            "n_engine_fallbacks": float(len(self.engine_fallbacks())),
            "n_region_slo_events": float(
                sum(len(s.slo_log) for s in self.shards)
            ),
        }

    def per_region_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-region routing/outcome counters (spec order)."""
        return {
            s.region: {
                "n_assigned": float(s.n_assigned),
                "n_kept": float(s.n_local),
                "n_incoming": float(s.n_incoming),
                "n_outgoing": float(s.n_outgoing),
                "n_denied": float(s.n_denied),
                "n_completed": float(s.n_completed),
                "n_failed": float(s.n_failed),
                "n_shed": float(s.n_shed),
                "total_cost": s.total_cost,
            }
            for s in self.shards
        }

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify_conservation(self) -> None:
        """Check request conservation per region and globally.

        Per region: every submitted request resolved exactly once
        (``submitted = completed + failed + shed``) and the submission
        mix reconciles with the routing plan (``submitted = kept +
        incoming``).  Globally: every generated arrival was either kept
        home or failed over (``sum(kept) + sum(outgoing) =
        sum(assigned)``), and incoming matches outgoing.

        Raises:
            ConservationError: Naming the first violated identity.
        """
        for s in self.shards:
            resolved = s.n_completed + s.n_failed + s.n_shed
            if resolved != s.n_submitted:
                raise ConservationError(
                    f"region {s.region!r}: submitted {s.n_submitted} != "
                    f"completed {s.n_completed} + failed {s.n_failed} + "
                    f"shed {s.n_shed}"
                )
            if s.n_local + s.n_incoming != s.n_submitted:
                raise ConservationError(
                    f"region {s.region!r}: local {s.n_local} + incoming "
                    f"{s.n_incoming} != submitted {s.n_submitted}"
                )
            if s.n_local + s.n_outgoing != s.n_assigned:
                raise ConservationError(
                    f"region {s.region!r}: kept {s.n_local} + outgoing "
                    f"{s.n_outgoing} != assigned {s.n_assigned}"
                )
        total_out = sum(s.n_outgoing for s in self.shards)
        total_in = sum(s.n_incoming for s in self.shards)
        if total_out != total_in:
            raise ConservationError(
                f"global: outgoing {total_out} != incoming {total_in}"
            )
        resolved = self.n_completed + self.n_failed + self.n_shed
        if resolved != self.n_requests:
            raise ConservationError(
                f"global: resolved {resolved} != generated {self.n_requests}"
            )

    # ------------------------------------------------------------------
    # determinism
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 digest of the run's observable multi-region behaviour.

        Bit-stable across shard execution order and across engines
        (each shard digest is itself engine-invariant, pinned by the
        dual-engine differential tests).
        """
        h = hashlib.sha256()
        for s in self.shards:
            h.update(
                (
                    f"region:{s.region}|{s.digest}|{s.n_assigned}|"
                    f"{s.n_local}|{s.n_incoming}|{s.n_outgoing}|"
                    f"{s.n_denied}|{s.n_completed}|{s.n_failed}|"
                    f"{s.n_shed}\n"
                ).encode()
            )
        for e in self.boundary_events:
            h.update(
                (
                    f"boundary:{e.time_s:.12e}|{e.region}|{e.seq}|"
                    f"{e.kind}|{e.target or '-'}|{e.detail}\n"
                ).encode()
            )
        for s in self.shards:
            for entry in s.slo_log:
                h.update(
                    (
                        f"slo:{s.region}|{entry.time_s:.12e}|{entry.kind}|"
                        f"{entry.detail}\n"
                    ).encode()
                )
        return h.hexdigest()


def merge_shards(
    plan: RouterPlan, results: Sequence[ShardResult]
) -> MultiRegionReport:
    """Deterministically merge shard results against their routing plan.

    Accepts results in any order; they are keyed back to declaration
    order.  Conservation is verified before the report is returned — a
    merge that loses or double-counts a request never reaches the
    caller.
    """
    expected = plan.spec.region_names
    by_region: Dict[str, ShardResult] = {r.region: r for r in results}
    missing = [name for name in expected if name not in by_region]
    if missing:
        raise ValueError(f"missing shard result(s) for {missing}")
    if len(results) != len(expected):
        extra = sorted(set(by_region) - set(expected))
        raise ValueError(f"unexpected shard result(s) for {extra}")
    report = MultiRegionReport(
        spec=plan.spec,
        shards=tuple(by_region[name] for name in expected),
        boundary_events=plan.boundary_events,
    )
    report.verify_conservation()
    return report
