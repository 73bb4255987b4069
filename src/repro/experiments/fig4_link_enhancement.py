"""Figure 4: per-subcarrier SNR for the largest-difference configuration pairs.

"We calculate which two configurations give the largest difference in
subcarrier SNR across all subcarriers ... In these eight experiments, the
largest change in the mean SNR on any given subcarrier is 18.6 dB, and the
largest change in the SNR within one experimental repetition is 26 dB."
(§3.2.1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.metrics import ConfigPairGap, largest_single_subcarrier_gap
from ..core.basis import ChannelBasis
from ..obs.records import RunRecorder
from ..sdr.testbed import sweep_basis_snr
from .common import StudyConfig, build_nlos_setup, used_subcarrier_mask
from .runner import run_parallel

__all__ = ["Fig4PlacementResult", "Fig4Result", "run_fig4"]


@dataclass(frozen=True)
class Fig4PlacementResult:
    """One panel of Figure 4 (one element placement).

    Attributes
    ----------
    placement_seed:
        Which random placement this is ((a)..(h) = 0..7).
    pair:
        The configuration pair with the largest mean-SNR gap on a single
        subcarrier.
    label_low, label_high:
        Figure-style labels of the two configurations, e.g. "(0.5:, 0, T)".
    snr_low, snr_high:
        Mean per-used-subcarrier SNR curves of the two configurations.
    mean_gap_db:
        The pair's gap in repetition-averaged SNR.
    max_single_rep_gap_db:
        The same pair's largest per-subcarrier SNR gap within a single
        repetition (single-sweep fluctuations exceed the mean gap, which is
        how the paper's 26 dB exceeds its 18.6 dB).
    """

    placement_seed: int
    pair: ConfigPairGap
    label_low: str
    label_high: str
    snr_low: np.ndarray
    snr_high: np.ndarray
    mean_gap_db: float
    max_single_rep_gap_db: float


@dataclass(frozen=True)
class Fig4Result:
    """All placements plus the two §3.2.1 headline numbers."""

    placements: tuple[Fig4PlacementResult, ...]

    @property
    def largest_mean_change_db(self) -> float:
        """Largest change in repetition-mean SNR on any subcarrier (paper: 18.6)."""
        return max(p.mean_gap_db for p in self.placements)

    @property
    def largest_single_rep_change_db(self) -> float:
        """Largest within-repetition SNR change (paper: 26)."""
        return max(p.max_single_rep_gap_db for p in self.placements)


@dataclass(frozen=True)
class _Fig4Task:
    """One placement's worker payload: a pre-traced basis, not a scene.

    The parent traces geometry once per placement (cheap, milliseconds, and
    value-cached across figure runs) and ships the resulting basis plus the
    handful of radio scalars a sweep needs.  Workers never rebuild scenes or
    ray tracers — the old per-job rebuild cost more than the sweep itself,
    which is how parallel fig4 ended up slower than serial.
    """

    placement_seed: int
    repetitions: int
    noise_seed: int
    basis: ChannelBasis
    tx_power_dbm: float
    noise_figure_db: float
    drift_phase_rad: float
    drift_amplitude: float
    labels: tuple[str, ...]


def _fig4_task_for(
    placement_seed: int,
    repetitions: int,
    config: StudyConfig,
    noise_seed: int,
) -> _Fig4Task:
    """Build one placement's payload: trace its basis in the parent."""
    setup = build_nlos_setup(placement_seed, config)
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    labels = tuple(
        setup.array.describe(configuration)
        for configuration in setup.testbed.configurations
    )
    return _Fig4Task(
        placement_seed=placement_seed,
        repetitions=repetitions,
        noise_seed=noise_seed,
        basis=basis,
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        drift_phase_rad=setup.testbed.drift_phase_rad,
        drift_amplitude=setup.testbed.drift_amplitude,
        labels=labels,
    )


def _fig4_placement_task(task: _Fig4Task) -> Fig4PlacementResult:
    """One Figure 4 panel: sweep 64 configs x reps over a shipped basis.

    The placement's rng is seeded from ``noise_seed + placement_seed``
    alone and the drift/noise draws follow ``Testbed.sweep``'s order, so
    results are bit-identical to the historical build-in-worker path at
    any worker count.
    """
    mask = used_subcarrier_mask()
    rng = np.random.default_rng(task.noise_seed + task.placement_seed)
    snr = sweep_basis_snr(
        task.basis,
        task.repetitions,
        rng,
        tx_power_dbm=task.tx_power_dbm,
        noise_figure_db=task.noise_figure_db,
        drift_phase_rad=task.drift_phase_rad,
        drift_amplitude=task.drift_amplitude,
    )
    mean_snr = snr.mean(axis=0)[:, mask]  # (configs, used subcarriers)
    pair = largest_single_subcarrier_gap(mean_snr)
    per_rep = snr[:, :, mask]
    rep_gaps = np.abs(
        per_rep[:, pair.config_high, :] - per_rep[:, pair.config_low, :]
    )  # (reps, used)
    return Fig4PlacementResult(
        placement_seed=task.placement_seed,
        pair=pair,
        label_low=task.labels[pair.config_low],
        label_high=task.labels[pair.config_high],
        snr_low=mean_snr[pair.config_low],
        snr_high=mean_snr[pair.config_high],
        mean_gap_db=pair.gap_db,
        max_single_rep_gap_db=float(rep_gaps.max()),
    )


def run_fig4(
    num_placements: int = 8,
    repetitions: int = 10,
    config: StudyConfig = StudyConfig(),
    noise_seed: int = 1000,
    jobs: Optional[int] = None,
    record_to: Optional[str] = None,
) -> Fig4Result:
    """Run the Figure 4 experiment: sweep 64 configs x reps per placement.

    ``jobs`` fans the placement axis across processes (``None``/``1``
    serial, ``<= 0`` all CPUs); results are bit-identical at any value.
    Geometry is traced in the parent and shipped to workers as channel
    bases, so workers only sweep.  ``record_to`` appends a
    schema-validated run record to the given JSONL file.
    """
    if num_placements <= 0:
        raise ValueError(f"num_placements must be positive, got {num_placements}")
    with RunRecorder(
        "fig4",
        config={
            "num_placements": num_placements,
            "repetitions": repetitions,
            "study": config,
        },
        path=record_to,
        jobs=jobs,
        seeds={"noise_seed": noise_seed},
    ) as recorder:
        tasks = [
            _fig4_task_for(placement_seed, repetitions, config, noise_seed)
            for placement_seed in range(num_placements)
        ]
        placements, samples = run_parallel(
            _fig4_placement_task, tasks, jobs=jobs, collect_obs=True
        )
        recorder.add_worker_samples(samples)
    return Fig4Result(placements=tuple(placements))
