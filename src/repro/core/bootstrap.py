"""Bootstrapping one configuration to a worst-case estimate (paper Fig. 7).

The routing-rule generator needs, for every candidate configuration, a
*confident worst-case* estimate of its error degradation, response time and
invocation cost.  It gets one by repeatedly simulating the configuration on
random subsamples of the training requests until the spread of the observed
trial values satisfies the confidence test, then recording the worst value
seen for each metric.

Two implementations share that contract:

* the **legacy scalar loop** — one :func:`~repro.core.simulator.simulate`
  call per trial, kept as the correctness oracle; and
* the **trial stream** — used when an
  :class:`~repro.core.outcome_matrix.OutcomeMatrix` is supplied.  The
  scalar loop draws every trial's index set from one generator, so across
  the configurations of a fit the draws form a single sequence of trial
  rows, and each configuration consumes the rows that follow the previous
  configuration's last trial.  :class:`TrialStream` draws that sequence
  once, row by row and in the scalar loop's rng order.  Each
  configuration evaluates its next ``max_trials`` rows in one
  ``(max_trials, sample_size)`` gather against the matrix's precomputed
  outcome columns and finds its stopping point with one
  :meth:`~repro.stats.confidence.ConfidenceTest.first_satisfied` scan;
  the rows past that point are the next configuration's first trials, not
  redrawn.  :meth:`TrialStream.park` hands the generator back at the
  exact consumption point, so every estimate and the rng state match the
  scalar loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.configuration import EnsembleConfiguration
from repro.core.policies import SingleVersionPolicy
from repro.core.simulator import TierSimulation, simulate
from repro.service.measurement import MeasurementSet
from repro.service.pricing import PricingModel
from repro.stats.confidence import ConfidenceTest
from repro.stats.resampling import subsample_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.outcome_matrix import OutcomeMatrix

__all__ = [
    "TrialStream",
    "WorstCaseEstimate",
    "bootstrap_configuration",
    "trial_sample_size",
]


@dataclass(frozen=True)
class WorstCaseEstimate:
    """Confident worst-case behaviour of one configuration.

    Attributes:
        config_id: Identifier of the bootstrapped configuration.
        error_degradation: Worst observed error degradation across trials.
        mean_response_time_s: Worst observed mean response time.
        mean_invocation_cost: Worst observed mean invocation cost.
        n_trials: Number of bootstrap trials run before the confidence test
            was satisfied.
    """

    config_id: str
    error_degradation: float
    mean_response_time_s: float
    mean_invocation_cost: float
    n_trials: int

    def objective_value(self, objective: str) -> float:
        """Worst-case value of the metric a tier objective minimises."""
        if objective == "response-time":
            return self.mean_response_time_s
        if objective == "cost":
            return self.mean_invocation_cost
        raise ValueError(f"unknown objective {objective!r}")


def trial_sample_size(n_requests: int, sample_fraction: float) -> int:
    """Requests per bootstrap trial: ``sample_fraction`` of the training
    set, at least 2, clipped to ``[1, n_requests]`` like
    :func:`~repro.stats.resampling.subsample_indices`."""
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    size = max(2, int(round(n_requests * sample_fraction)))
    return int(min(size, n_requests))


def bootstrap_configuration(
    measurements: MeasurementSet,
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_fraction: float = 0.1,
    pricing: Optional[PricingModel] = None,
    baseline_version: Optional[str] = None,
    degradation_mode: str = "relative",
    outcome_matrix: Optional["OutcomeMatrix"] = None,
) -> WorstCaseEstimate:
    """Bootstrap one configuration until its metrics are confidently spread.

    Each trial simulates the configuration on a random
    ``sample_fraction``-sized subsample of the measurements (without
    replacement, mirroring the paper's ``choice(train, k=len/10)``), and the
    loop stops once every metric column satisfies the confidence test (or
    the test's ``max_trials`` safety bound is reached).

    Args:
        measurements: The training measurements.
        configuration: The candidate configuration.
        confidence_test: Spread test bound to the requested confidence level.
        rng: Seeded generator driving the subsampling.
        sample_fraction: Fraction of the training requests per trial.
        pricing: Optional pre-built pricing model.
        baseline_version: Degradation reference version; defaults to the
            most accurate version of the full training set.
        degradation_mode: ``"relative"`` or ``"absolute"``.
        outcome_matrix: Precomputed outcome columns enabling the
            vectorized trial stream (a one-configuration
            :class:`TrialStream`); the configuration must have been
            expanded into it (fall back to the scalar loop otherwise).

    Returns:
        The worst-case estimate across all trials.

    Raises:
        ValueError: If the matrix was built for other inputs, or holds
            columns of a different policy under the configuration's id.
    """
    sample_size = trial_sample_size(measurements.n_requests, sample_fraction)
    if baseline_version is None:
        baseline_version = measurements.most_accurate_version()

    if outcome_matrix is not None and configuration.config_id in outcome_matrix:
        if outcome_matrix.measurements is not measurements:
            raise ValueError(
                "outcome_matrix was built from a different measurement set"
            )
        if outcome_matrix.degradation_mode != degradation_mode:
            raise ValueError(
                f"outcome_matrix was built for degradation_mode="
                f"{outcome_matrix.degradation_mode!r}, not {degradation_mode!r}"
            )
        if outcome_matrix.baseline_version != baseline_version:
            raise ValueError(
                f"outcome_matrix was built against baseline "
                f"{outcome_matrix.baseline_version!r}, not {baseline_version!r}"
            )
        matrix_pricing = outcome_matrix.pricing
        if pricing is not None and not (
            pricing is matrix_pricing
            or (
                pricing.per_request_fee == matrix_pricing.per_request_fee
                and pricing.markup == matrix_pricing.markup
                and pricing.version_instances == matrix_pricing.version_instances
            )
        ):
            raise ValueError(
                "outcome_matrix was built with a different pricing model; "
                "pass an equivalent pricing (or omit it) so both engines "
                "price trials identically"
            )
        stream = TrialStream(
            rng, measurements.n_requests, sample_size, confidence_test
        )
        estimate = stream.bootstrap(outcome_matrix, configuration)
        stream.park()
        return estimate
    return _bootstrap_scalar(
        measurements,
        configuration,
        confidence_test=confidence_test,
        rng=rng,
        sample_size=sample_size,
        pricing=pricing,
        baseline_version=baseline_version,
        degradation_mode=degradation_mode,
    )


def _bootstrap_scalar(
    measurements: MeasurementSet,
    configuration: EnsembleConfiguration,
    *,
    confidence_test: ConfidenceTest,
    rng: np.random.Generator,
    sample_size: int,
    pricing: Optional[PricingModel],
    baseline_version: str,
    degradation_mode: str,
) -> WorstCaseEstimate:
    """The legacy per-trial loop (the seed implementation; the oracle)."""
    baseline_policy = SingleVersionPolicy(baseline_version)
    trials: List[TierSimulation] = []

    while True:
        indices = subsample_indices(measurements.n_requests, sample_size, rng=rng)
        trials.append(
            simulate(
                measurements,
                configuration,
                indices=indices,
                pricing=pricing,
                baseline_version=baseline_version,
                baseline_policy=baseline_policy,
                degradation_mode=degradation_mode,
            )
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


class TrialStream:
    """The bootstrap's trial rows, drawn once and shared by configurations.

    The scalar loop draws one index set per trial from a single generator,
    so the trials of consecutive configurations are consecutive stretches
    of one sequence of draws.  The stream draws that sequence lazily, in
    the same rng order, into a buffer of at most ``2 * max_trials`` rows;
    :meth:`bootstrap` evaluates the next ``max_trials`` rows for one
    configuration and consumes only as many as its stopping rule needed.

    The generator therefore runs ahead of the consumption point by up to
    ``max_trials`` draws.  Before each extension the stream snapshots the
    generator state, and :meth:`park` restores the latest snapshot at or
    before the consumption point and replays the (at most ``max_trials``)
    draws after it, leaving the generator exactly where the scalar loop
    would.  Park before anything else draws from the generator; the stream
    can be used again afterwards.

    Args:
        rng: The generator the trials are drawn from.
        n_requests: Rows of the measurement set the trials subsample.
        sample_size: Requests per trial (see :func:`trial_sample_size`).
        confidence_test: The stopping rule; its ``max_trials`` bounds the
            rows any configuration can consume.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_requests: int,
        sample_size: int,
        confidence_test: ConfidenceTest,
    ) -> None:
        self._rng = rng
        self._n_requests = n_requests
        self._test = confidence_test
        self._rows = np.empty(
            (2 * confidence_test.max_trials, sample_size), dtype=np.int64
        )
        self._reset()

    def _reset(self) -> None:
        #: Buffer rows ``[_head, _tail)`` are drawn but not yet consumed.
        self._head = 0
        self._tail = 0
        #: Rows consumed since the generator was last parked.
        self._consumed = 0
        #: ``(rows consumed + buffered, generator state)`` before each
        #: extension; the first entry is the latest at or before
        #: ``_consumed``.
        self._snapshots: List[Tuple[int, Dict[str, Any]]] = []

    def _draw_rows(self, rows: np.ndarray) -> None:
        """Fill ``rows`` with consecutive trials, each subsample_indices'
        draw (the sample size is pre-clipped)."""
        draw = self._rng.choice
        n_requests, size = self._n_requests, rows.shape[1]
        for row in range(rows.shape[0]):
            rows[row] = draw(n_requests, size=size, replace=False)

    def _next_rows(self, count: int) -> np.ndarray:
        """The next ``count`` unconsumed rows, drawing the missing ones."""
        missing = self._head + count - self._tail
        if missing > 0:
            if self._tail + missing > self._rows.shape[0]:
                live = self._tail - self._head
                self._rows[:live] = self._rows[self._head : self._tail]
                self._head, self._tail = 0, live
            self._snapshots.append(
                (
                    self._consumed + self._tail - self._head,
                    self._rng.bit_generator.state,
                )
            )
            self._draw_rows(self._rows[self._tail : self._tail + missing])
            self._tail += missing
        return self._rows[self._head : self._head + count]

    def _consume(self, count: int) -> None:
        self._head += count
        self._consumed += count
        snapshots = self._snapshots
        while len(snapshots) > 1 and snapshots[1][0] <= self._consumed:
            snapshots.pop(0)

    def bootstrap(
        self, matrix: "OutcomeMatrix", configuration: EnsembleConfiguration
    ) -> WorstCaseEstimate:
        """Bootstrap one matrix-expanded configuration on the next rows."""
        if matrix.n_requests != self._n_requests:
            raise ValueError("the matrix covers a different number of rows")
        matrix.check_covers(configuration)
        max_trials = self._test.max_trials
        metrics = matrix.trial_metrics(
            configuration.config_id, self._next_rows(max_trials)
        )
        columns = (
            metrics.error_degradation,
            metrics.mean_response_time_s,
            metrics.mean_invocation_cost,
        )
        # The test's max_trials safety valve guarantees a stopping point.
        stop = self._test.first_satisfied(columns)
        self._consume(stop)
        return WorstCaseEstimate(
            config_id=configuration.config_id,
            error_degradation=float(columns[0][:stop].max()),
            mean_response_time_s=float(columns[1][:stop].max()),
            mean_invocation_cost=float(columns[2][:stop].max()),
            n_trials=stop,
        )

    def park(self) -> None:
        """Leave the generator exactly after the last consumed row."""
        if self._tail > self._head:
            position, state = self._snapshots[0]
            self._rng.bit_generator.state = state
            self._draw_rows(self._rows[: self._consumed - position])
        self._reset()
