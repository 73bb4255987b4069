"""Tests for repro.core.array and repro.core.objectives."""

import math

import numpy as np
import pytest

from repro.core.array import PressArray
from repro.core.configuration import ArrayConfiguration
from repro.core.element import omni_element
from repro.core.objectives import (
    CapacityObjective,
    ConditionNumberObjective,
    EffectiveSnrObjective,
    FlatnessObjective,
    InterferenceRatioObjective,
    MeanSnrObjective,
    MinSnrObjective,
    SubbandContrastObjective,
    TargetCfrObjective,
    ThroughputObjective,
    WeightedObjective,
)
from repro.em.geometry import Point
from repro.em.raytracer import RayTracer


@pytest.fixture
def tracer(simple_scene):
    return RayTracer(simple_scene)


class TestPressArray:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            PressArray.from_elements(
                [omni_element(Point(0, 0), name="e"), omni_element(Point(1, 1), name="e")]
            )

    def test_configuration_space_shape(self, small_array):
        space = small_array.configuration_space()
        assert space.state_counts == (4, 4)
        assert space.size == 16

    def test_describe_matches_paper_style(self, small_array):
        label = small_array.describe(ArrayConfiguration((0, 3)))
        assert label == "(0, T)"
        label2 = small_array.describe(ArrayConfiguration((1, 2)))
        assert label2 == "(0.5:, :)"

    def test_terminated_elements_contribute_nothing(self, small_array, tracer):
        all_terminated = ArrayConfiguration((3, 3))
        paths = small_array.element_paths(
            all_terminated, Point(2, 3), Point(6, 3), tracer
        )
        assert paths == []

    def test_element_paths_count(self, small_array, tracer):
        config = ArrayConfiguration((0, 1))
        paths = small_array.element_paths(config, Point(2, 3), Point(6, 3), tracer)
        assert len(paths) == 2
        assert all(p.kind == "press-element" for p in paths)

    def test_stub_state_changes_path_phase_not_magnitude(self, small_array, tracer):
        base = small_array.element_paths(
            ArrayConfiguration((0, 3)), Point(2, 3), Point(6, 3), tracer
        )[0]
        shifted = small_array.element_paths(
            ArrayConfiguration((1, 3)), Point(2, 3), Point(6, 3), tracer
        )[0]
        assert abs(shifted.gain) == pytest.approx(abs(base.gain), rel=1e-9)
        # lambda/4 extra path -> pi/2 phase difference (at the carrier).
        ratio = shifted.gain / base.gain
        assert math.atan2(ratio.imag, ratio.real) == pytest.approx(
            -math.pi / 2, abs=0.05
        )

    def test_stub_adds_delay(self, small_array, tracer):
        base = small_array.element_paths(
            ArrayConfiguration((0, 3)), Point(2, 3), Point(6, 3), tracer
        )[0]
        shifted = small_array.element_paths(
            ArrayConfiguration((2, 3)), Point(2, 3), Point(6, 3), tracer
        )[0]
        assert shifted.delay_s > base.delay_s

    def test_channel_composition(self, small_array, tracer):
        env = tracer.trace(Point(2, 3), Point(6, 3))
        config = ArrayConfiguration((0, 0))
        channel = small_array.channel(config, env, Point(2, 3), Point(6, 3), tracer)
        assert len(channel.paths) == len(env) + 2

    def test_aimed_at(self):
        from repro.core.element import parabolic_element

        array = PressArray.from_elements(
            [parabolic_element(Point(0, 0), name="d0"), parabolic_element(Point(2, 0), name="d1")]
        )
        aimed = array.aimed_at(Point(1, 1))
        assert aimed.elements[0].antenna.boresight_rad == pytest.approx(math.pi / 4)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            PressArray(())


class TestObjectives:
    def test_min_mean_flatness(self):
        snr = np.array([10.0, 20.0, 30.0])
        assert MinSnrObjective()(snr) == 10.0
        assert MeanSnrObjective()(snr) == 20.0
        assert FlatnessObjective()(np.full(8, 5.0)) == 0.0
        assert FlatnessObjective()(snr) < 0.0

    @pytest.mark.parametrize("objective", [MinSnrObjective(), MeanSnrObjective()])
    @pytest.mark.parametrize("width", [52, 64])
    def test_min_mean_score_blocks_row_wise_bit_identically(self, objective, width):
        """A (R, K) block scores each row exactly as a per-row call does;
        a 1-D SNR vector still scores to a float."""
        rng = np.random.default_rng(width)
        block = 30.0 * rng.standard_normal((257, width)) + 10.0
        rows = objective(block)
        assert rows.shape == (257,)
        assert rows.tolist() == [objective(row) for row in block]
        assert type(objective(block[0])) is float

    def test_effective_snr_between_min_and_mean(self):
        snr = np.array([0.0, 30.0, 30.0, 30.0])
        value = EffectiveSnrObjective()(snr)
        assert 0.0 < value < 30.0

    def test_throughput_objective_ranks_channels(self):
        good = np.full(52, 30.0)
        bad = np.full(52, 5.0)
        objective = ThroughputObjective()
        assert objective(good) > objective(bad)

    def test_subband_contrast_direction(self):
        snr = np.concatenate([np.full(26, 10.0), np.full(26, 30.0)])
        assert SubbandContrastObjective(favor_upper=True)(snr) == pytest.approx(20.0)
        assert SubbandContrastObjective(favor_upper=False)(snr) == pytest.approx(-20.0)

    def test_interference_ratio(self):
        signal = np.full(8, 30.0)
        interference = np.full(8, 10.0)
        objective = InterferenceRatioObjective(interference_weight=1.0)
        assert objective((signal, interference)) == pytest.approx(20.0)

    def test_condition_number_objective_prefers_identity(self):
        good = np.stack([np.eye(2, dtype=complex)] * 4)
        bad = np.stack([np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)] * 4)
        objective = ConditionNumberObjective()
        assert objective(good) > objective(bad)

    def test_capacity_objective_scale_invariant(self):
        matrices = np.stack([np.eye(2, dtype=complex)] * 4)
        objective = CapacityObjective(snr_db=20.0)
        assert objective(matrices) == pytest.approx(objective(10.0 * matrices), rel=1e-6)

    def test_target_cfr_objective(self):
        target = tuple(np.ones(4, dtype=complex))
        objective = TargetCfrObjective(target_cfr=target)
        assert objective(np.ones(4, dtype=complex)) == 0.0
        assert objective(np.zeros(4, dtype=complex)) < 0.0

    def test_target_cfr_magnitude_only(self):
        target = tuple(np.ones(4, dtype=complex))
        objective = TargetCfrObjective(target_cfr=target, magnitude_only=True)
        rotated = np.exp(1j * 0.7) * np.ones(4)
        assert objective(rotated) == pytest.approx(0.0)

    def test_weighted_objective(self):
        snr = np.array([10.0, 20.0])
        combined = WeightedObjective(
            objectives=(MinSnrObjective(), MeanSnrObjective()), weights=(1.0, 2.0)
        )
        assert combined(snr) == pytest.approx(10.0 + 2 * 15.0)

    def test_weighted_objective_validation(self):
        with pytest.raises(ValueError):
            WeightedObjective(objectives=(MinSnrObjective(),), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            WeightedObjective(objectives=(), weights=())
