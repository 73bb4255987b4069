"""Tests for repro.experiments — scenario builders and figure drivers.

Figure drivers run at reduced repetition counts here; the full-size runs
live in benchmarks/.
"""

import numpy as np
import pytest

from repro.em.channel import Channel
from repro.experiments import (
    FIG5_PLACEMENT_SEED,
    build_harmonization_setup,
    build_los_setup,
    build_mimo_setup,
    build_nlos_setup,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_los_study,
    used_subcarrier_mask,
)


class TestScenarioBuilders:
    def test_nlos_setup_blocks_los(self):
        setup = build_nlos_setup(0)
        tracer = setup.testbed.tracer
        assert not tracer.has_line_of_sight(
            setup.tx_device.position, setup.rx_device.position
        )

    def test_los_setup_keeps_los(self):
        setup = build_los_setup(0)
        tracer = setup.testbed.tracer
        assert tracer.has_line_of_sight(
            setup.tx_device.position, setup.rx_device.position
        )

    def test_prototype_space_is_64(self):
        setup = build_nlos_setup(0)
        assert setup.testbed.array.configuration_space().size == 64

    def test_placements_differ(self):
        a = build_nlos_setup(0)
        b = build_nlos_setup(1)
        positions_a = [e.position.as_tuple() for e in a.array.elements]
        positions_b = [e.position.as_tuple() for e in b.array.elements]
        assert positions_a != positions_b

    def test_same_seed_reproducible(self):
        a = build_nlos_setup(3)
        b = build_nlos_setup(3)
        assert [e.position.as_tuple() for e in a.array.elements] == [
            e.position.as_tuple() for e in b.array.elements
        ]

    def test_harmonization_uses_two_4phase_elements(self):
        setup = build_harmonization_setup(0)
        assert setup.array.num_elements == 2
        space = setup.array.configuration_space()
        assert space.size == 16
        # No absorptive load among the states (§3.2.2).
        for element in setup.array.elements:
            assert not any(s.is_terminated for s in element.states)
        assert setup.tx_device.model == "USRP N210"

    def test_mimo_setup_has_2x2_endpoints(self):
        setup = build_mimo_setup(0)
        assert setup.tx_device.num_chains == 2
        assert setup.rx_device.num_chains == 2
        assert setup.tx_device.model == "USRP X310"

    def test_mimo_elements_colinear_lambda_spaced(self):
        from repro.constants import WAVELENGTH_M

        setup = build_mimo_setup(0)
        ys = {e.position.y for e in setup.array.elements}
        assert len(ys) == 1  # co-linear
        xs = sorted(e.position.x for e in setup.array.elements)
        assert xs[1] - xs[0] == pytest.approx(WAVELENGTH_M)

    def test_facing_panel_produces_specular_path(self):
        setup = build_nlos_setup(0)
        env = setup.testbed.environment_paths(setup.tx_device, setup.rx_device)
        # The panel supplies a long-delay component (> 50 ns).
        assert any(p.delay_s > 50e-9 and p.kind == "wall-reflection" for p in env)

    def test_ambient_channel_is_frequency_selective(self):
        setup = build_nlos_setup(FIG5_PLACEMENT_SEED)
        env = setup.testbed.environment_paths(setup.tx_device, setup.rx_device)
        snr = Channel(env).observe().snr_db[used_subcarrier_mask()]
        assert snr.max() - snr.min() > 5.0

    def test_used_mask_is_52(self):
        assert used_subcarrier_mask().sum() == 52


class TestFigureDrivers:
    def test_fig4_small(self):
        result = run_fig4(num_placements=2, repetitions=2)
        assert len(result.placements) == 2
        placement = result.placements[0]
        assert placement.snr_low.shape == (52,)
        assert placement.mean_gap_db > 0
        assert placement.label_low.startswith("(")
        assert result.largest_mean_change_db >= result.placements[0].mean_gap_db

    def test_fig4_nlos_effect_is_large(self):
        result = run_fig4(num_placements=2, repetitions=3)
        # PRESS must move at least one subcarrier by >5 dB in NLoS.
        assert result.largest_mean_change_db > 5.0

    def test_fig5_movements(self):
        result = run_fig5(repetitions=3)
        assert len(result.movements_per_rep) == 3
        assert result.max_movement >= 0
        assert 0.0 <= result.fraction_moving_more_than(0) <= 1.0
        curves = result.ccdf_curves()
        for _x, y in curves:
            assert np.all(np.diff(y) <= 1e-12)  # CCDF non-increasing

    def test_fig5_nulls_move_multiple_subcarriers(self):
        result = run_fig5(repetitions=4)
        assert result.max_movement >= 3

    def test_fig6_claims_structure(self):
        result = run_fig6(repetitions=3)
        assert 0.0 <= result.fraction_pairs_10db_change <= 1.0
        assert 0.0 <= result.fraction_configs_below_20db <= 1.0
        assert len(result.min_snr_per_trial) == 3
        x, y = result.left_ccdf()
        assert x.size == result.min_snr_change_pairs.size

    def test_fig7_opposite_selectivity(self):
        result = run_fig7(max_seeds=6)
        assert result.snr_a.shape == (52,)
        assert result.total_contrast_db > 0
        # With enough seeds the scan should find an opposite pair.
        assert result.is_opposite

    def test_fig8_structure(self):
        result = run_fig8(measurements_per_config=5)
        assert result.condition_db.shape == (64, 52)
        assert np.all(result.condition_db >= 0)
        assert result.median_gap_db > 0
        assert result.best_configuration != result.worst_configuration

    def test_fig8_golden(self):
        """Headline numbers pinned at the per-measurement implementation."""
        result = run_fig8(measurements_per_config=5)
        assert result.median_gap_db == pytest.approx(3.867531387399377, abs=1e-9)
        assert result.best_configuration == 8
        assert result.worst_configuration == 31

    def test_fig4_golden(self):
        """Headline numbers pinned at the per-measurement implementation."""
        result = run_fig4(num_placements=2, repetitions=3)
        assert result.largest_mean_change_db == pytest.approx(
            18.305514798598693, abs=1e-9
        )
        assert result.largest_single_rep_change_db == pytest.approx(
            31.086978726398257, abs=1e-9
        )

    def test_los_study_shape_holds(self):
        result = run_los_study(repetitions=2)
        # The paper's core §3 finding: passive PRESS barely touches LoS
        # links but dominates NLoS links.
        assert result.los_swing_db < 2.0
        assert result.nlos_swing_db > 5.0
        assert result.passive_best_for_nlos

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_fig4(num_placements=0)
        with pytest.raises(ValueError):
            run_fig8(measurements_per_config=0)
        with pytest.raises(ValueError):
            run_fig7(max_seeds=0)
