"""Tests of the physics-robustness scenario subsystem (repro.physics).

The four scenarios are plain registry recipes: nothing here touches the
pipeline dispatch machinery, which is the point — the subsystem proves
the stage protocol extends to new physics without core edits.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.pipeline import ExperimentConfig, get_recipe, prepare_data, \
    recipe_names, run_recipe
from repro.physics import (
    SCENARIO_RECIPES,
    CoherenceScoreStage,
    CoherenceSpec,
    DeployGapStage,
    DifferentialDetectorStage,
    QuantizeStage,
)


def tiny_cfg(**overrides) -> ExperimentConfig:
    """A seconds-scale config for scenario plumbing tests."""
    defaults = dict(
        n=20, n_train=60, n_test=30, batch_size=30, baseline_epochs=1,
    )
    defaults.update(overrides)
    cfg = ExperimentConfig.laptop("digits", **defaults)
    return cfg.with_overrides(
        twopi=replace(cfg.twopi, iterations=10),
    )


@pytest.fixture(scope="module")
def data():
    return prepare_data(tiny_cfg())


@pytest.fixture(scope="module")
def runs(data):
    """Every scenario recipe, run once at smoke size."""
    return {name: run_recipe(name, tiny_cfg(), data=data)
            for name in SCENARIO_RECIPES}


class TestCoherenceSpec:
    def test_screen_stack_shape_and_dtype(self):
        screens = CoherenceSpec(modes=5).screens(16)
        assert screens.shape == (5, 16, 16)
        assert screens.dtype == np.complex128

    def test_mode_zero_is_always_uniform(self):
        # Mode 0 carries the unperturbed field, so one mode *is* the
        # coherent limit — bitwise, not approximately.
        for modes in (1, 2, 7):
            screens = CoherenceSpec(modes=modes).screens(12)
            np.testing.assert_array_equal(screens[0], np.ones((12, 12)))

    def test_screens_are_pure_phase(self):
        screens = CoherenceSpec(modes=4, phase_sigma=2.0).screens(16)
        np.testing.assert_allclose(np.abs(screens), 1.0, atol=1e-12)

    def test_same_seed_reproduces(self):
        spec = CoherenceSpec(modes=3, seed=5)
        np.testing.assert_array_equal(spec.screens(10),
                                      CoherenceSpec(modes=3, seed=5)
                                      .screens(10))
        assert np.abs(
            spec.screens(10) - CoherenceSpec(modes=3, seed=6).screens(10)
        ).max() > 1e-6

    def test_zero_sigma_collapses_to_coherent(self):
        screens = CoherenceSpec(modes=4, phase_sigma=0.0).screens(10)
        for screen in screens:
            np.testing.assert_allclose(screen, 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoherenceSpec(modes=0)
        with pytest.raises(ValueError):
            CoherenceSpec(correlation_px=0.0)
        with pytest.raises(ValueError):
            CoherenceSpec(phase_sigma=-1.0)

    def test_round_trip_dict(self):
        spec = CoherenceSpec(modes=3, correlation_px=2.5, phase_sigma=0.7,
                             seed=9)
        assert CoherenceSpec(**spec.to_dict()) == spec


class TestStageValidation:
    def test_differential_region_size(self):
        with pytest.raises(ValueError):
            DifferentialDetectorStage(region_size=0)

    def test_coherence_stage_rejects_bad_spec_eagerly(self):
        with pytest.raises(ValueError):
            CoherenceScoreStage(modes=0)

    def test_quantize_stage_bounds(self):
        with pytest.raises(ValueError):
            QuantizeStage(levels=1)
        with pytest.raises(ValueError):
            QuantizeStage(epochs=0)
        with pytest.raises(ValueError):
            QuantizeStage(tau_start=0.0)

    def test_deploy_stage_bounds(self):
        with pytest.raises(ValueError):
            DeployGapStage(strength=-0.1)


class TestRegistration:
    def test_all_scenarios_registered(self):
        names = recipe_names()
        for name in SCENARIO_RECIPES:
            assert name in names

    def test_stage_lists(self):
        expected = {
            "differential": ["differential_head", "train", "score",
                             "twopi", "deploy_gap"],
            "partial_coherence": ["train", "score", "coherence_score",
                                  "twopi", "deploy_gap"],
            "quantized": ["train", "quantize", "score", "deploy_gap"],
            "deploy_gap": ["train", "score", "twopi", "deploy_gap"],
        }
        for name, stages in expected.items():
            assert get_recipe(name).stage_names() == stages

    def test_scenarios_are_not_paper_rows(self):
        # The paper tables must keep rendering exactly the five paper
        # recipes; scenarios ride alongside, never inside.
        for name in SCENARIO_RECIPES:
            assert not get_recipe(name).paper_row

    def test_every_scenario_reports_deployment(self):
        for name in SCENARIO_RECIPES:
            assert get_recipe(name).stage_names()[-1] == "deploy_gap"


class TestScenarioRuns:
    def test_every_scenario_reports_deployed_accuracy(self, runs):
        # The trained-vs-fabricated contract: each scenario's run ends
        # with the fabricated system's accuracy as a float.
        for name, result in runs.items():
            deployed = result.stage_metrics()["deploy_gap"][
                "deployed_accuracy"]
            assert isinstance(deployed, float), (name, deployed)
            assert 0.0 <= deployed <= 1.0, (name, deployed)

    def test_differential_end_to_end(self, runs):
        result = runs["differential"]
        metrics = result.stage_metrics()
        assert metrics["differential_head"]["detector_mode"] == \
            "differential"
        deployed = metrics["deploy_gap"]["deployed_accuracy"]
        assert isinstance(deployed, float) and 0.0 <= deployed <= 1.0
        # The rewritten config travels with the result so run.json and
        # the saved artifact agree on the readout head.
        assert result.config is not None
        assert result.config.system.detector_mode == "differential"
        assert result.model.detector.num_classes == 10
        assert len(result.model.detector.layout.regions) == 20

    def test_deploy_gap_metrics_are_consistent(self, runs):
        result = runs["deploy_gap"]
        metrics = result.stage_metrics()["deploy_gap"]
        assert metrics["deployment_gap"] == pytest.approx(
            metrics["trained_accuracy"] - metrics["deployed_accuracy"])
        assert metrics["crosstalk_strength"] == pytest.approx(0.15)
        assert metrics["phase_rms_error"] >= 0.0

    def test_partial_coherence_reports_penalty(self, runs):
        result = runs["partial_coherence"]
        metrics = result.stage_metrics()["coherence_score"]
        assert 0.0 <= metrics["partial_coherence_accuracy"] <= 1.0
        assert metrics["coherence_penalty"] == pytest.approx(
            metrics["coherent_accuracy"]
            - metrics["partial_coherence_accuracy"])
        assert metrics["coherence_modes"] == 6

    def test_quantized_within_two_points_at_smoke_size(self, runs):
        from repro.optics.constants import TWO_PI

        result = runs["quantized"]
        metrics = result.stage_metrics()["quantize"]
        # Acceptance gate: discrete codesign lands within 2 accuracy
        # points of the continuous model.
        assert metrics["quantization_gap"] <= 0.02 + 1e-12
        # Every phase pixel must sit exactly on one of the K levels —
        # what a fabricated mask holds.
        levels = np.linspace(0.0, TWO_PI, metrics["levels"],
                             endpoint=False)
        for phase in result.model.phases(wrapped=True):
            deltas = np.abs(phase[..., None] - levels[None, None, :])
            assert deltas.min(axis=-1).max() == 0.0
        assert result.config.system.parametrization == "direct"
