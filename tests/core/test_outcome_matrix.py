"""Equivalence tests: the vectorized outcome-matrix path vs the scalar oracle.

The outcome-matrix engine exists purely for speed; these tests pin its
contract — for the same seed it must reproduce the legacy scalar path's
results exactly (trial metrics, worst-case estimates, rng consumption and
emitted rule tables), across all four policy kinds and the threshold grid.
"""

import numpy as np
import pytest

from repro.core.bootstrap import (
    TrialStream,
    bootstrap_configuration,
    trial_sample_size,
)
from repro.core.configuration import EnsembleConfiguration, enumerate_configurations
from repro.core.learned_router import LogisticEscalationPolicy
from repro.core.metrics import build_pricing
from repro.core.outcome_matrix import OutcomeMatrix
from repro.core.policies import (
    EnsemblePolicy,
    SequentialPolicy,
    SingleVersionPolicy,
)
from repro.core.rule_generator import RoutingRuleGenerator
from repro.core.simulator import simulate
from repro.stats.confidence import ConfidenceTest
from repro.stats.resampling import subsample_indices

TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def space(request):
    """Measurements plus a design space covering all four policy kinds."""
    measurements = request.getfixturevalue("ic_measurements")
    configurations = enumerate_configurations(
        measurements,
        thresholds=(0.4, 0.55, 0.7),
        fast_versions=["ic_cpu_squeezenet", "ic_cpu_googlenet"],
    )
    return measurements, configurations


@pytest.fixture(scope="module")
def matrix(space):
    measurements, configurations = space
    return OutcomeMatrix.build(measurements, configurations)


class TestTrialMetricsEquivalence:
    def test_matches_simulate_for_every_configuration(self, space, matrix):
        """Vectorized per-trial metrics == scalar simulate(), bit for bit."""
        measurements, configurations = space
        pricing = build_pricing(measurements)
        baseline = measurements.most_accurate_version()
        rng = np.random.default_rng(123)
        kinds_seen = set()
        for configuration in configurations:
            kinds_seen.add(configuration.kind)
            indices = np.stack(
                [
                    subsample_indices(measurements.n_requests, 200, rng=rng)
                    for _ in range(4)
                ]
            )
            block = matrix.trial_metrics(configuration.config_id, indices)
            for row in range(indices.shape[0]):
                scalar = simulate(
                    measurements,
                    configuration,
                    indices=indices[row],
                    pricing=pricing,
                    baseline_version=baseline,
                )
                assert block.error_degradation[row] == pytest.approx(
                    scalar.error_degradation, abs=TOLERANCE
                )
                assert block.mean_response_time_s[row] == pytest.approx(
                    scalar.mean_response_time_s, abs=TOLERANCE
                )
                assert block.mean_invocation_cost[row] == pytest.approx(
                    scalar.mean_invocation_cost, rel=TOLERANCE
                )
        assert kinds_seen == {"single", "seq", "conc", "et"}

    def test_trial_metrics_bitwise_identical(self, space, matrix):
        """On this platform the fast path is exactly identical, which is
        what keeps the bootstrap's stopping decisions aligned."""
        measurements, configurations = space
        pricing = build_pricing(measurements)
        baseline = measurements.most_accurate_version()
        rng = np.random.default_rng(7)
        for configuration in configurations[:8]:
            indices = subsample_indices(measurements.n_requests, 200, rng=rng)
            block = matrix.trial_metrics(configuration.config_id, indices)
            scalar = simulate(
                measurements,
                configuration,
                indices=indices,
                pricing=pricing,
                baseline_version=baseline,
            )
            assert float(block.error_degradation[0]) == scalar.error_degradation
            assert float(block.mean_response_time_s[0]) == scalar.mean_response_time_s
            assert float(block.mean_invocation_cost[0]) == scalar.mean_invocation_cost

    def test_single_trial_vector_accepted(self, space, matrix):
        measurements, configurations = space
        metrics = matrix.trial_metrics(
            configurations[0].config_id, np.arange(50)
        )
        assert metrics.error_degradation.shape == (1,)

    def test_rejects_empty_and_unknown(self, space, matrix):
        _, configurations = space
        with pytest.raises(ValueError):
            matrix.trial_metrics(
                configurations[0].config_id, np.empty((2, 0), dtype=int)
            )
        with pytest.raises(KeyError):
            matrix.columns_for("cfg_nope")


class TestBootstrapEquivalence:
    def test_estimates_and_rng_state_match(self, space, matrix):
        """Fast and scalar bootstraps agree on every estimate field, the
        trial count, and — critically — the generator state they leave
        behind (so later configurations see identical draws)."""
        measurements, configurations = space
        pricing = build_pricing(measurements)
        baseline = measurements.most_accurate_version()
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        for configuration in configurations:
            rng_a = np.random.default_rng(42)
            rng_b = np.random.default_rng(42)
            scalar = bootstrap_configuration(
                measurements,
                configuration,
                confidence_test=test,
                rng=rng_a,
                pricing=pricing,
                baseline_version=baseline,
            )
            fast = bootstrap_configuration(
                measurements,
                configuration,
                confidence_test=test,
                rng=rng_b,
                pricing=pricing,
                baseline_version=baseline,
                outcome_matrix=matrix,
            )
            assert fast.n_trials == scalar.n_trials
            assert fast.error_degradation == pytest.approx(
                scalar.error_degradation, abs=TOLERANCE
            )
            assert fast.mean_response_time_s == pytest.approx(
                scalar.mean_response_time_s, abs=TOLERANCE
            )
            assert fast.mean_invocation_cost == pytest.approx(
                scalar.mean_invocation_cost, rel=TOLERANCE
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_rejects_mismatched_matrix_inputs(self, space, matrix):
        """The fast path refuses inputs the matrix was not built for."""
        measurements, configurations = space
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        kw = dict(confidence_test=test, outcome_matrix=matrix)
        with pytest.raises(ValueError, match="degradation_mode"):
            bootstrap_configuration(
                measurements,
                configurations[0],
                rng=np.random.default_rng(0),
                degradation_mode="absolute",
                **kw,
            )
        with pytest.raises(ValueError, match="pricing"):
            bootstrap_configuration(
                measurements,
                configurations[0],
                rng=np.random.default_rng(0),
                pricing=build_pricing(measurements, markup=5.0),
                **kw,
            )
        # an equal-valued (not identical) pricing is accepted
        bootstrap_configuration(
            measurements,
            configurations[0],
            rng=np.random.default_rng(0),
            pricing=build_pricing(measurements),
            **kw,
        )

    def test_stream_offset_changes_nothing(self, space, matrix):
        """Where a configuration's rows start in the trial stream (how many
        configurations came before it, how far ahead the stream had drawn,
        where the rows sit in its buffer) changes nothing: it sees exactly
        the draws the scalar loop gives it after the same predecessors."""
        measurements, configurations = space
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        sample_size = trial_sample_size(measurements.n_requests, 0.1)
        target = configurations[5]
        for lead in range(6):
            rng_scalar = np.random.default_rng(9)
            rng_stream = np.random.default_rng(9)
            stream = TrialStream(
                rng_stream, measurements.n_requests, sample_size, test
            )
            for configuration in configurations[:lead]:
                expected = bootstrap_configuration(
                    measurements,
                    configuration,
                    confidence_test=test,
                    rng=rng_scalar,
                )
                assert stream.bootstrap(matrix, configuration) == expected
            expected = bootstrap_configuration(
                measurements, target, confidence_test=test, rng=rng_scalar
            )
            assert stream.bootstrap(matrix, target) == expected
            stream.park()
            assert rng_stream.bit_generator.state == rng_scalar.bit_generator.state

    def test_parked_stream_continues_after_foreign_draws(self, space, matrix):
        """A parked stream may be reused after something else drew from
        its generator: it picks up wherever the generator now is."""
        measurements, configurations = space
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        sample_size = trial_sample_size(measurements.n_requests, 0.1)
        rng_scalar = np.random.default_rng(4)
        rng_stream = np.random.default_rng(4)
        stream = TrialStream(rng_stream, measurements.n_requests, sample_size, test)
        for configuration in configurations[:3]:
            expected = bootstrap_configuration(
                measurements, configuration, confidence_test=test, rng=rng_scalar
            )
            assert stream.bootstrap(matrix, configuration) == expected
            stream.park()
            rng_scalar.random(3)
            rng_stream.random(3)
        assert rng_stream.bit_generator.state == rng_scalar.bit_generator.state

    def test_rejects_columns_of_another_policy(self, space, matrix):
        """An id the matrix expanded for a different policy is refused,
        not bootstrapped on the wrong columns."""
        measurements, configurations = space
        impostor = EnsembleConfiguration(
            configurations[0].config_id, SingleVersionPolicy("ic_cpu_vgg16")
        )
        assert configurations[0].policy.versions != impostor.policy.versions
        test = ConfidenceTest(confidence=0.95, min_trials=6, max_trials=25)
        with pytest.raises(ValueError, match="built for"):
            bootstrap_configuration(
                measurements,
                impostor,
                confidence_test=test,
                rng=np.random.default_rng(0),
                outcome_matrix=matrix,
            )


class TestGeneratorEquivalence:
    @pytest.fixture(scope="class")
    def generators(self, space):
        measurements, configurations = space
        kw = dict(confidence=0.999, seed=5, min_trials=8, max_trials=30)
        return (
            RoutingRuleGenerator(
                measurements, configurations, engine="legacy", **kw
            ),
            RoutingRuleGenerator(
                measurements, configurations, engine="vectorized", **kw
            ),
        )

    def test_worst_case_estimates_match(self, generators):
        legacy, fast = generators
        for a, b in zip(legacy.results, fast.results):
            assert a.config_id == b.config_id
            assert a.n_trials == b.n_trials
            assert a.error_degradation == pytest.approx(
                b.error_degradation, abs=TOLERANCE
            )
            assert a.mean_response_time_s == pytest.approx(
                b.mean_response_time_s, abs=TOLERANCE
            )
            assert a.mean_invocation_cost == pytest.approx(
                b.mean_invocation_cost, rel=TOLERANCE
            )

    def test_rule_tables_identical(self, generators):
        """The emitted rule tables — the generator's actual product — are
        identical for both engines, for both objectives."""
        legacy, fast = generators
        for objective in ("response-time", "cost"):
            table_a = legacy.generate([0.0, 0.01, 0.05, 0.10], objective)
            table_b = fast.generate([0.0, 0.01, 0.05, 0.10], objective)
            assert {
                t: c.config_id for t, c in table_a.rules.items()
            } == {t: c.config_id for t, c in table_b.rules.items()}

    def test_same_seed_same_rule_table(self, space):
        """Determinism: constructing twice with one seed gives one table."""
        measurements, configurations = space
        kw = dict(confidence=0.999, seed=5, min_trials=8, max_trials=30)
        tables = []
        for _ in range(2):
            generator = RoutingRuleGenerator(
                measurements, configurations, engine="vectorized", **kw
            )
            table = generator.generate([0.01, 0.05, 0.10], "response-time")
            tables.append(
                {t: c.config_id for t, c in table.rules.items()}
            )
        assert tables[0] == tables[1]

    def test_rejects_unknown_engine(self, space):
        measurements, configurations = space
        with pytest.raises(ValueError):
            RoutingRuleGenerator(measurements, configurations, engine="warp")


class TestFitStream:
    """The fit-level trial stream against the per-configuration scalar
    loop: equal estimates, equal generator state after the fit, and an
    equal result from a later ``generator.bootstrap`` call."""

    @staticmethod
    def assert_fits_agree(measurements, configurations, later, **kw):
        legacy = RoutingRuleGenerator(
            measurements, configurations, engine="legacy", **kw
        )
        fast = RoutingRuleGenerator(
            measurements, configurations, engine="vectorized", **kw
        )
        assert fast.results == legacy.results
        assert fast._rng.bit_generator.state == legacy._rng.bit_generator.state
        for configuration in later:
            assert fast.bootstrap(configuration) == legacy.bootstrap(configuration)
        assert fast._rng.bit_generator.state == legacy._rng.bit_generator.state
        return fast

    def test_adaptor_shaped_windows(self):
        """The online re-fit's shape: the adaptor's 17 candidates plus an
        anchor on a ~45-row window, confidence 0.95, 8 to 24 trials."""
        from repro.service.simulation.scenarios import scenario_measurements

        toy = scenario_measurements()
        anchor = EnsembleConfiguration(
            "anchor_seq", SequentialPolicy("fast", "slow", 0.65)
        )
        candidates = enumerate_configurations(
            toy, thresholds=(0.3, 0.4, 0.5, 0.6, 0.7)
        ) + [anchor]
        assert len(candidates) == 18
        rng = np.random.default_rng(11)
        stopped = set()
        for seed in range(6):
            rows = np.sort(rng.choice(toy.n_requests, size=45, replace=False))
            fit = self.assert_fits_agree(
                toy.subset(rows.tolist()),
                candidates,
                [candidates[3], candidates[-1]],
                confidence=0.95,
                sample_fraction=0.5,
                seed=seed,
                degradation_mode="absolute",
                min_trials=8,
                max_trials=24,
            )
            stopped.update(e.n_trials for e in fit.results)
        # the windows exercise early stops as well as the safety valve
        assert min(stopped) < 24 and 24 in stopped

    def test_scalar_fallback_in_the_middle(self, space):
        """A learned policy the matrix cannot expand sits mid-space: the
        scalar loop draws from the shared generator between two stretches
        of the stream."""
        measurements, configurations = space
        learned = LogisticEscalationPolicy(
            "ic_cpu_squeezenet", "ic_cpu_resnet50"
        ).fit(measurements, indices=range(500))
        middle = len(configurations) // 2
        mixed = (
            list(configurations[:middle])
            + [EnsembleConfiguration("cfg_learned", learned)]
            + list(configurations[middle:])
        )
        fast = self.assert_fits_agree(
            measurements,
            mixed,
            [mixed[middle], mixed[0]],
            confidence=0.95,
            seed=21,
            min_trials=6,
            max_trials=25,
        )
        assert "cfg_learned" not in fast.outcome_matrix


class TestConfigurationIds:
    """One id must name one policy wherever estimates are keyed by id."""

    def test_build_and_generator_reject_an_id_naming_two_policies(self, space):
        measurements, configurations = space
        clash = EnsembleConfiguration(
            configurations[0].config_id, SingleVersionPolicy("ic_cpu_vgg16")
        )
        with pytest.raises(ValueError, match="two different policies"):
            OutcomeMatrix.build(measurements, list(configurations) + [clash])
        for engine in ("vectorized", "legacy"):
            with pytest.raises(ValueError, match="two different policies"):
                RoutingRuleGenerator(
                    measurements,
                    list(configurations[:3]) + [clash],
                    engine=engine,
                    min_trials=5,
                    max_trials=8,
                )

    def test_repeated_configuration_is_accepted(self, space):
        measurements, configurations = space
        again = EnsembleConfiguration(
            configurations[1].config_id,
            SingleVersionPolicy(configurations[1].policy.version),
        )
        matrix = OutcomeMatrix.build(
            measurements, [configurations[0], configurations[1], again]
        )
        assert len(matrix) == 2
        generator = RoutingRuleGenerator(
            measurements,
            [configurations[0], configurations[1], again],
            min_trials=5,
            max_trials=8,
        )
        assert len(generator.results) == 3


class TestZeroVarianceMetrics:
    """Degenerate bootstrap inputs: metrics that never vary across trials.

    A measurement table with constant per-version latency, error and
    confidence makes every subsample identical, so all three metric
    columns are zero-variance and the confidence test must fall through
    to its constant-sample rule (no division by zero anywhere on the
    path).  Both engines must agree bit-for-bit, including the trial
    count the constant rule implies.
    """

    @pytest.fixture(scope="class")
    def constant_space(self):
        from repro.service.measurement import MeasurementSet

        n = 40
        ids = tuple(f"c{i:02d}" for i in range(n))
        measurements = MeasurementSet(
            service="constant",
            request_ids=ids,
            versions=("fast", "slow"),
            error=np.column_stack([np.full(n, 0.2), np.zeros(n)]),
            latency_s=np.column_stack([np.full(n, 0.05), np.full(n, 0.4)]),
            confidence=np.column_stack([np.full(n, 0.9), np.full(n, 0.95)]),
            version_instances={"fast": "cpu.medium", "slow": "cpu.medium"},
        )
        configurations = enumerate_configurations(
            measurements, thresholds=(0.5,), fast_versions=["fast"]
        )
        return measurements, configurations

    def test_engines_agree_on_constant_metrics(self, constant_space):
        measurements, configurations = constant_space
        kwargs = dict(confidence=0.999, seed=3, min_trials=10, max_trials=60)
        vectorized = RoutingRuleGenerator(
            measurements, configurations, engine="vectorized", **kwargs
        )
        legacy = RoutingRuleGenerator(
            measurements, configurations, engine="legacy", **kwargs
        )
        for a, b in zip(vectorized.results, legacy.results):
            assert a.config_id == b.config_id
            assert a.n_trials == b.n_trials
            assert a.error_degradation == b.error_degradation
            assert a.mean_response_time_s == b.mean_response_time_s
            assert a.mean_invocation_cost == b.mean_invocation_cost
        # the constant-sample rule demands min(ceil(1/(1-0.999)), 30)
        # trials, which dominates min_trials here
        assert all(e.n_trials == 30 for e in vectorized.results)


class _OpaquePolicy(EnsemblePolicy):
    """A policy the outcome matrix cannot expand (custom evaluate)."""

    kind = "opaque"

    def __init__(self, version: str) -> None:
        self._inner = SingleVersionPolicy(version)

    @property
    def name(self):
        return f"opaque[{self._inner.version}]"

    @property
    def versions(self):
        return self._inner.versions

    def evaluate(self, measurements, indices=None):
        return self._inner.evaluate(measurements, indices)


class TestUnsupportedPolicies:
    def test_matrix_skips_unsupported(self, space):
        measurements, _ = space
        opaque = EnsembleConfiguration("cfg_opq", _OpaquePolicy("ic_cpu_vgg16"))
        matrix = OutcomeMatrix.build(measurements, [opaque])
        assert "cfg_opq" not in matrix
        assert not OutcomeMatrix.supports(opaque.policy)

    def test_generator_falls_back_to_scalar_path(self, space):
        """A design space mixing supported and opaque policies still
        bootstraps — opaque configurations ride the scalar oracle."""
        measurements, configurations = space
        mixed = list(configurations[:3]) + [
            EnsembleConfiguration("cfg_opq", _OpaquePolicy("ic_cpu_vgg16"))
        ]
        generator = RoutingRuleGenerator(
            measurements,
            mixed,
            confidence=0.9,
            seed=3,
            min_trials=5,
            max_trials=12,
        )
        assert len(generator.results) == 4
        assert generator.estimate_for("cfg_opq").n_trials >= 5
