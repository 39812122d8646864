"""Tests for the training-iteration predictor."""

import pytest

from repro.core.prediction import IterationPredictor
from repro.errors import ConfigurationError


class TestObservation:
    def test_first_observation_seeds_mean(self):
        predictor = IterationPredictor()
        estimate = predictor.observe("t1", 100.0)
        assert estimate.expected_ms == 100.0
        assert estimate.jitter_ms == 0.0
        assert estimate.observations == 1

    def test_ewma_converges_to_constant(self):
        predictor = IterationPredictor(alpha=0.5)
        for _ in range(20):
            estimate = predictor.observe("t1", 50.0)
        assert estimate.expected_ms == pytest.approx(50.0)
        assert estimate.jitter_ms == pytest.approx(0.0, abs=1e-6)

    def test_tracks_level_shift(self):
        predictor = IterationPredictor(alpha=0.5)
        for _ in range(5):
            predictor.observe("t1", 10.0)
        for _ in range(20):
            estimate = predictor.observe("t1", 30.0)
        assert estimate.expected_ms == pytest.approx(30.0, rel=0.01)

    def test_jitter_reflects_variance(self):
        steady = IterationPredictor()
        noisy = IterationPredictor()
        for i in range(20):
            steady.observe("t", 100.0)
            noisy.observe("t", 100.0 + (20.0 if i % 2 else -20.0))
        assert noisy.estimate("t").jitter_ms > steady.estimate("t").jitter_ms

    def test_pessimistic_bound_above_mean(self):
        predictor = IterationPredictor()
        for i in range(10):
            predictor.observe("t", 100.0 + (i % 3) * 10)
        estimate = predictor.estimate("t")
        assert estimate.pessimistic_ms >= estimate.expected_ms

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            IterationPredictor().observe("t", -1.0)


class TestQueries:
    def test_unknown_task_is_none(self):
        assert IterationPredictor().estimate("ghost") is None

    def test_remaining_ms(self):
        predictor = IterationPredictor()
        predictor.observe("t", 40.0)
        assert predictor.estimate("t").expected_ms * 5 == pytest.approx(200.0)

    def test_remaining_for_unknown_is_none(self):
        predictor = IterationPredictor()
        predictor.observe("t", 40.0)
        assert predictor.estimate("ghost") is None

    def test_tasks_are_independent(self):
        predictor = IterationPredictor()
        predictor.observe("a", 10.0)
        predictor.observe("b", 99.0)
        assert predictor.estimate("a").expected_ms == 10.0
        assert predictor.estimate("b").expected_ms == 99.0

    def test_forget(self):
        predictor = IterationPredictor()
        predictor.observe("t", 10.0)
        predictor.forget("t")
        assert predictor.estimate("t") is None


class TestValidation:
    def test_invalid_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            IterationPredictor(alpha=0.0)
        with pytest.raises(ConfigurationError):
            IterationPredictor(alpha=1.5)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            IterationPredictor(beta=-0.1)
