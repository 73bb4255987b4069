"""Figure 8: distribution of 2x2 MIMO condition number per configuration.

"we replace the transceivers with a 2x2 MIMO transceiver pair in a
non-line-of-sight configuration ... and measure the 2x2 channel matrix for
each of the 64 PRESS configurations ... we plot a CDF of the channel
matrix condition number across subcarriers for each PRESS configuration.
Each CDF was computed from the mean of 50 successive channel
measurements."  The abstract quantifies the effect: "changing the 2x2 MIMO
channel condition number by 1.5 dB."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mimo.channel_matrix import condition_numbers_db
from .common import StudyConfig, build_mimo_setup, used_subcarrier_mask

__all__ = ["Fig8Result", "run_fig8"]


@dataclass(frozen=True)
class Fig8Result:
    """Per-configuration condition-number samples.

    Attributes
    ----------
    condition_db:
        Shape (num_configurations, num_used_subcarriers): condition number
        in dB of the repetition-averaged channel matrix per subcarrier.
    labels:
        Configuration labels in sweep order.
    """

    condition_db: np.ndarray
    labels: tuple[str, ...]

    @property
    def medians_db(self) -> np.ndarray:
        """Median condition number per configuration."""
        return np.median(self.condition_db, axis=1)

    @property
    def best_configuration(self) -> int:
        """Index of the configuration with the lowest median condition number."""
        return int(np.argmin(self.medians_db))

    @property
    def worst_configuration(self) -> int:
        return int(np.argmax(self.medians_db))

    @property
    def median_gap_db(self) -> float:
        """Best-to-worst median gap — the paper's 1.5 dB headline."""
        medians = self.medians_db
        return float(medians.max() - medians.min())


def run_fig8(
    placement_seed: int = 0,
    measurements_per_config: int = 50,
    config: StudyConfig = StudyConfig(),
    noise_seed: int = 5000,
    estimation_error_std: float = 0.05,
) -> Fig8Result:
    """Run the Figure 8 experiment.

    For each configuration, ``measurements_per_config`` noisy channel-matrix
    estimates are averaged before computing per-subcarrier condition
    numbers, mirroring §3.2.3's "mean of 50 successive channel
    measurements".  Each configuration's measurements come from one
    batched :meth:`~repro.sdr.testbed.Testbed.mimo_matrices` call, whose
    draws match that many successive single measurements.
    """
    if measurements_per_config <= 0:
        raise ValueError(
            f"measurements_per_config must be positive, got {measurements_per_config}"
        )
    setup = build_mimo_setup(placement_seed, config)
    rng = np.random.default_rng(noise_seed)
    mask = used_subcarrier_mask()
    space = setup.array.configuration_space()
    configurations = list(space.all_configurations())
    condition_rows = []
    labels = []
    for configuration in configurations:
        mean_h = setup.testbed.mimo_matrices(
            setup.tx_device,
            setup.rx_device,
            configuration,
            rng=rng,
            estimation_error_std=estimation_error_std,
            repetitions=measurements_per_config,
        ).mean(axis=0)
        condition_rows.append(condition_numbers_db(mean_h[mask]))
        labels.append(setup.array.describe(configuration))
    return Fig8Result(
        condition_db=np.array(condition_rows),
        labels=tuple(labels),
    )
