"""The channel basis against per-path oracles: numerically exact.

The basis sweep engine (``repro.core.basis``) exploits Γ-linearity —
``H(f; c) = H0(f) + sum_n E[n, c_n]`` — which is exact for passive
elements with no element–element rescattering, i.e. exactly the physics
the per-path route (:meth:`Testbed.channel`) models.  These tests pin that
equivalence against oracles built here from the public per-measurement
APIs: identical seeds must give identical sweeps and MIMO matrices (drift
and estimation noise included) to within 1e-9, across LoS and NLoS
scenes and across terminated and reflective element states, and the
vectorized exhaustive search must return the same argmax as the
measurement-backed one.  The batched sweep and MIMO draws must also
leave the generator exactly where the per-measurement loop leaves it.
"""

import numpy as np
import pytest

from repro.core import (
    ArrayConfiguration,
    ExhaustiveSearch,
    MeanSnrObjective,
    exhaustive_argmax,
)
from repro.experiments import (
    StudyConfig,
    build_los_setup,
    build_mimo_setup,
    build_nlos_setup,
    used_subcarrier_mask,
)

ATOL = 1e-9


def measured_sweep(setup, repetitions, rng=None):
    """Oracle sweep: one ``measure_csi`` per (repetition, configuration)."""
    testbed = setup.testbed
    return np.array(
        [
            [
                testbed.measure_csi(
                    setup.tx_device, setup.rx_device, configuration, rng=rng
                ).snr_db
                for configuration in testbed.configurations
            ]
            for _ in range(repetitions)
        ]
    )


def per_path_mimo(setup, configuration, rng, estimation_error_std):
    """Oracle MIMO matrices: one per-path channel per chain pair."""
    testbed = setup.testbed
    num_rx = setup.rx_device.num_chains
    num_tx = setup.tx_device.num_chains
    h = np.zeros((testbed.num_subcarriers, num_rx, num_tx), dtype=complex)
    for i in range(num_rx):
        for j in range(num_tx):
            h[:, i, j] = testbed.channel(
                setup.tx_device,
                setup.rx_device,
                configuration,
                tx_chain=j,
                rx_chain=i,
                rng=rng,
            ).cfr()
    scale = estimation_error_std * np.sqrt(np.mean(np.abs(h) ** 2))
    noise = scale / np.sqrt(2.0) * (
        rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    )
    return h + noise


@pytest.mark.parametrize("builder", [build_nlos_setup, build_los_setup])
def test_sweep_modes_agree_with_drift_and_noise(builder):
    """Same seed: the basis sweep is the measured sweep (drift + noise)."""
    setup = builder(3)
    oracle_rng = np.random.default_rng(7)
    oracle = measured_sweep(setup, 3, oracle_rng)
    rng = np.random.default_rng(7)
    fast = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=3,
        rng=rng,
    )
    assert fast.configurations == setup.testbed.configurations
    np.testing.assert_allclose(fast.snr_db, oracle, rtol=0.0, atol=ATOL)
    # The batched draws consume exactly the oracle loop's stream.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sweep_modes_agree_noise_only():
    """Drift disabled, estimation noise on: streams still line up."""
    config = StudyConfig(drift_phase_rad=0.0, drift_amplitude=0.0)
    setup = build_nlos_setup(1, config)
    oracle_rng = np.random.default_rng(11)
    oracle = measured_sweep(setup, 2, oracle_rng)
    rng = np.random.default_rng(11)
    fast = setup.testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=2,
        rng=rng,
    )
    np.testing.assert_allclose(fast.snr_db, oracle, rtol=0.0, atol=ATOL)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sweep_modes_agree_exact():
    """No rng: the sweep is the exact (deterministic) measured sweep."""
    setup = build_nlos_setup(6)
    oracle = measured_sweep(setup, 2)
    fast = setup.testbed.sweep(setup.tx_device, setup.rx_device, repetitions=2)
    np.testing.assert_allclose(fast.snr_db, oracle, rtol=0.0, atol=ATOL)
    # Exact repetitions are identical by construction.
    np.testing.assert_array_equal(fast.snr_db[0], fast.snr_db[1])


def test_basis_cfr_matches_per_path_route():
    """Every configuration's CFR: basis == per-path, |dH| <= 1e-9.

    The default SP4T state set includes the absorptive load, so the loop
    exercises terminated elements (zero basis rows) as well as all three
    reflective stub settings.
    """
    setup = build_nlos_setup(5)
    testbed = setup.testbed
    states = setup.array.elements[0].states
    assert any(state.is_terminated for state in states)
    assert any(not state.is_terminated for state in states)
    basis = testbed.basis_for(setup.tx_device, setup.rx_device)
    configurations = tuple(setup.array.configuration_space().all_configurations())
    batch = basis.evaluate()
    assert batch.shape == (len(configurations), testbed.num_subcarriers)
    for index, configuration in enumerate(configurations):
        reference = testbed.channel(
            setup.tx_device, setup.rx_device, configuration
        ).cfr()
        np.testing.assert_allclose(
            basis.cfr(configuration), reference, rtol=0.0, atol=ATOL
        )
        np.testing.assert_allclose(batch[index], reference, rtol=0.0, atol=ATOL)


def test_basis_exhaustive_matches_legacy_exhaustive():
    """Vectorized argmax == measurement-backed ExhaustiveSearch argmax."""
    setup = build_nlos_setup(2)
    mask = used_subcarrier_mask()
    objective = MeanSnrObjective()

    def score(configuration):
        observation = setup.testbed.measure_csi(
            setup.tx_device, setup.rx_device, configuration
        )
        return float(objective(observation.snr_db[mask]))

    legacy = ExhaustiveSearch().search(setup.array.configuration_space(), score)
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    best, best_score = exhaustive_argmax(
        basis,
        objective,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )
    assert best == legacy.best
    assert best_score == pytest.approx(legacy.best_score, abs=ATOL)

    searched = ExhaustiveSearch().search_basis(
        basis,
        objective,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=mask,
    )
    assert searched.best == legacy.best
    assert searched.best_score == pytest.approx(legacy.best_score, abs=ATOL)


def test_mimo_modes_agree():
    """Per-chain-pair basis MIMO matrices match the per-path oracle."""
    setup = build_mimo_setup(0)
    configuration = ArrayConfiguration(tuple([1] * setup.array.num_elements))
    oracle_rng = np.random.default_rng(13)
    oracle = per_path_mimo(setup, configuration, oracle_rng, estimation_error_std=0.05)
    rng = np.random.default_rng(13)
    fast = setup.testbed.mimo_matrices(
        setup.tx_device,
        setup.rx_device,
        configuration,
        rng=rng,
        estimation_error_std=0.05,
    )
    np.testing.assert_allclose(fast, oracle, rtol=0.0, atol=ATOL)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("drift", [True, False], ids=["drift", "no-drift"])
@pytest.mark.parametrize("estimation_error_std", [0.0, 0.05])
def test_mimo_repetitions_match_consecutive_calls(drift, estimation_error_std):
    """One batched call == R single calls: same matrices, same final state."""
    config = (
        StudyConfig()
        if drift
        else StudyConfig(drift_phase_rad=0.0, drift_amplitude=0.0)
    )
    setup = build_mimo_setup(0, config)
    configuration = ArrayConfiguration(tuple([2] * setup.array.num_elements))

    def measure(rng, repetitions=None):
        return setup.testbed.mimo_matrices(
            setup.tx_device,
            setup.rx_device,
            configuration,
            rng=rng,
            estimation_error_std=estimation_error_std,
            repetitions=repetitions,
        )

    single_rng = np.random.default_rng(21)
    singles = np.array([measure(single_rng) for _ in range(4)])
    batch_rng = np.random.default_rng(21)
    batch = measure(batch_rng, repetitions=4)
    assert batch.shape == (4, setup.testbed.num_subcarriers, 2, 2)
    np.testing.assert_allclose(batch, singles, rtol=0.0, atol=1e-12)
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state
    if drift or estimation_error_std > 0:
        # Successive measurements differ: the block is not one row reused.
        assert not np.allclose(batch[0], batch[1])


def test_mimo_repetitions_validated():
    setup = build_mimo_setup(0)
    configuration = ArrayConfiguration(tuple([0] * setup.array.num_elements))
    with pytest.raises(ValueError, match="repetitions must be positive"):
        setup.testbed.mimo_matrices(
            setup.tx_device,
            setup.rx_device,
            configuration,
            rng=np.random.default_rng(0),
            repetitions=0,
        )


def test_used_mask_rename_and_validation():
    """`used_mask` flows through to the result and is validated."""
    setup = build_nlos_setup(0)
    testbed = setup.testbed
    mask = np.zeros(testbed.num_subcarriers, dtype=bool)
    mask[1:11] = True
    swept = testbed.sweep(
        setup.tx_device, setup.rx_device, repetitions=1, used_mask=mask
    )
    np.testing.assert_array_equal(swept.used_mask, mask)
    with pytest.raises(ValueError, match="used_mask"):
        testbed.sweep(
            setup.tx_device,
            setup.rx_device,
            repetitions=1,
            used_mask=np.ones(10, dtype=bool),
        )
