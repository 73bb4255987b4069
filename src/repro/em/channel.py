"""Wireless channel objects: from multipath components to per-subcarrier CFR/SNR.

This module turns a set of :class:`~repro.em.paths.SignalPath` components
into the quantities the paper measures:

* the channel frequency response (CFR) on the OFDM subcarrier grid;
* per-subcarrier SNR in dB, given a transmit power and receiver noise
  parameters — the y-axis of Figures 4, 6 and 7.

The subcarrier grid matches the §3.1 numerology: 64 subcarriers over 20 MHz
(312.5 kHz spacing), centred on the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..constants import (
    BANDWIDTH_HZ,
    ISM_BAND_2G4_HZ,
    NUM_SUBCARRIERS,
    SPEED_OF_LIGHT,
    dbm_to_watts,
    linear_to_db,
    thermal_noise_power_w,
)
from .paths import SignalPath, paths_to_cfr

__all__ = [
    "subcarrier_frequencies",
    "Channel",
    "ChannelObservation",
    "observe_cfr",
    "snr_db_from_cfr",
    "coherence_time_s",
]


def subcarrier_frequencies(
    num_subcarriers: int = NUM_SUBCARRIERS,
    bandwidth_hz: float = BANDWIDTH_HZ,
) -> np.ndarray:
    """Baseband subcarrier centre frequencies (Hz offsets from the carrier).

    Subcarrier ``k`` sits at ``(k - N/2) * spacing`` so the grid is centred
    on DC, matching an N-point OFDM FFT with the DC bin in the middle.
    """
    if num_subcarriers <= 0:
        raise ValueError(f"num_subcarriers must be positive, got {num_subcarriers}")
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    spacing = bandwidth_hz / num_subcarriers
    indices = np.arange(num_subcarriers) - num_subcarriers // 2
    return indices * spacing


@dataclass
class Channel:
    """A (possibly time-varying) multipath channel between two radios.

    Attributes
    ----------
    paths:
        The multipath components.  The PRESS layer composes a channel as
        ``environment paths + element paths(configuration)``.
    num_subcarriers, bandwidth_hz:
        OFDM grid the CFR is evaluated on.
    """

    paths: tuple[SignalPath, ...]
    num_subcarriers: int = NUM_SUBCARRIERS
    bandwidth_hz: float = BANDWIDTH_HZ

    def __init__(
        self,
        paths: Iterable[SignalPath],
        num_subcarriers: int = NUM_SUBCARRIERS,
        bandwidth_hz: float = BANDWIDTH_HZ,
    ) -> None:
        self.paths = tuple(paths)
        self.num_subcarriers = num_subcarriers
        self.bandwidth_hz = bandwidth_hz

    def frequencies_hz(self) -> np.ndarray:
        """Baseband subcarrier frequencies of this channel's grid."""
        return subcarrier_frequencies(self.num_subcarriers, self.bandwidth_hz)

    def cfr(self, time_s: float = 0.0) -> np.ndarray:
        """Complex channel frequency response per subcarrier."""
        return paths_to_cfr(self.paths, self.frequencies_hz(), time_s=time_s)

    def gains_db(self, time_s: float = 0.0) -> np.ndarray:
        """Per-subcarrier channel power gain |H|^2 in dB."""
        return linear_to_db(np.abs(self.cfr(time_s)) ** 2)

    def combined(self, extra_paths: Iterable[SignalPath]) -> "Channel":
        """A new channel with ``extra_paths`` superposed onto this one."""
        return Channel(
            self.paths + tuple(extra_paths),
            num_subcarriers=self.num_subcarriers,
            bandwidth_hz=self.bandwidth_hz,
        )

    def observe(
        self,
        tx_power_dbm: float = 15.0,
        noise_figure_db: float = 7.0,
        time_s: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        estimation_snr_penalty_db: float = 0.0,
    ) -> "ChannelObservation":
        """Measure the channel as an OFDM receiver would (CSI + SNR).

        Transmit power is split evenly across subcarriers; noise power is
        thermal noise over one subcarrier's bandwidth through the receiver
        noise figure.  When ``rng`` is given, the reported CFR includes
        complex Gaussian estimation error at the per-subcarrier SNR
        (single-LTF least-squares estimation quality), which is how the
        paper's measured curves acquire their trial-to-trial spread.

        Parameters
        ----------
        tx_power_dbm:
            Total transmit power.
        noise_figure_db:
            Receiver noise figure.
        time_s:
            Observation time (for Doppler-bearing channels).
        rng:
            Random generator for estimation noise; ``None`` gives the exact
            noiseless CFR.
        estimation_snr_penalty_db:
            Additional SNR degradation applied to the estimation error only
            (e.g. quantisation or short training sequences).
        """
        return observe_cfr(
            self.cfr(time_s),
            num_subcarriers=self.num_subcarriers,
            bandwidth_hz=self.bandwidth_hz,
            tx_power_dbm=tx_power_dbm,
            noise_figure_db=noise_figure_db,
            rng=rng,
            estimation_snr_penalty_db=estimation_snr_penalty_db,
        )


def observe_cfr(
    cfr: np.ndarray,
    num_subcarriers: int,
    bandwidth_hz: float,
    tx_power_dbm: float = 15.0,
    noise_figure_db: float = 7.0,
    rng: Optional[np.random.Generator] = None,
    estimation_snr_penalty_db: float = 0.0,
) -> "ChannelObservation":
    """Measure a precomputed CFR as an OFDM receiver would (CSI + SNR).

    The measurement model behind :meth:`Channel.observe`, factored out so
    fast paths that synthesise the CFR without building path objects (the
    channel-basis sweep engine) share the identical noise and SNR math —
    and, crucially, the identical RNG draw pattern: one standard-normal
    block of ``2 * cfr.size`` values, the real parts of the estimation
    error first, then the imaginary parts.  Batched sweeps draw the same
    block for many measurements at once and hand each row's columns to
    :func:`_estimate_from_normals`.
    """
    if rng is None:
        estimated = cfr.copy()
        snr_db = snr_db_from_cfr(
            cfr, num_subcarriers, bandwidth_hz, tx_power_dbm, noise_figure_db
        )
    else:
        normals = rng.standard_normal((2,) + cfr.shape)
        estimated, snr_db = _estimate_from_normals(
            cfr,
            normals[0],
            normals[1],
            num_subcarriers,
            bandwidth_hz,
            tx_power_dbm,
            noise_figure_db,
            estimation_snr_penalty_db,
        )
    return ChannelObservation(
        cfr=estimated,
        snr_db=snr_db,
        tx_power_dbm=tx_power_dbm,
        noise_figure_db=noise_figure_db,
    )


def _subcarrier_budget(
    num_subcarriers: int,
    bandwidth_hz: float,
    tx_power_dbm: float,
    noise_figure_db: float,
) -> tuple[float, float]:
    """Per-subcarrier transmit power and receiver noise power (W)."""
    subcarrier_power_w = dbm_to_watts(tx_power_dbm) / num_subcarriers
    subcarrier_bw = bandwidth_hz / num_subcarriers
    return subcarrier_power_w, thermal_noise_power_w(subcarrier_bw, noise_figure_db)


def _estimate_from_normals(
    cfr: np.ndarray,
    real_normals: np.ndarray,
    imag_normals: np.ndarray,
    num_subcarriers: int,
    bandwidth_hz: float,
    tx_power_dbm: float,
    noise_figure_db: float,
    estimation_snr_penalty_db: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """CSI estimate and its SNR (dB) from given standard-normal draws.

    The estimation-error step of :func:`observe_cfr`, vectorized over any
    leading batch dimensions of ``cfr`` (the normals share its shape).
    """
    subcarrier_power_w, noise_w = _subcarrier_budget(
        num_subcarriers, bandwidth_hz, tx_power_dbm, noise_figure_db
    )
    error_var = noise_w / subcarrier_power_w * 10.0 ** (
        estimation_snr_penalty_db / 10.0
    )
    estimated = cfr + np.sqrt(error_var / 2.0) * (real_normals + 1j * imag_normals)
    snr_linear = subcarrier_power_w * np.abs(estimated) ** 2 / noise_w
    return estimated, np.asarray(linear_to_db(snr_linear))


def snr_db_from_cfr(
    cfr: np.ndarray,
    num_subcarriers: int,
    bandwidth_hz: float,
    tx_power_dbm: float = 15.0,
    noise_figure_db: float = 7.0,
) -> np.ndarray:
    """Noiseless per-subcarrier SNR in dB for a (batch of) CFR(s).

    Vectorized over any leading batch dimensions — the whole-sweep form of
    the exact (``rng=None``) branch of :func:`observe_cfr`.
    """
    subcarrier_power_w, noise_w = _subcarrier_budget(
        num_subcarriers, bandwidth_hz, tx_power_dbm, noise_figure_db
    )
    snr_linear = subcarrier_power_w * np.abs(np.asarray(cfr)) ** 2 / noise_w
    return np.asarray(linear_to_db(snr_linear))


@dataclass(frozen=True)
class ChannelObservation:
    """CSI as estimated by a receiver: complex CFR and per-subcarrier SNR."""

    cfr: np.ndarray
    snr_db: np.ndarray
    tx_power_dbm: float
    noise_figure_db: float

    def min_snr_db(self, mask: Optional[np.ndarray] = None) -> float:
        """Minimum per-subcarrier SNR, optionally over a used-subcarrier mask."""
        snr = self.snr_db if mask is None else self.snr_db[mask]
        return float(np.min(snr))

    def mean_snr_db(self, mask: Optional[np.ndarray] = None) -> float:
        """Mean per-subcarrier SNR in dB (of the dB values, as the paper plots)."""
        snr = self.snr_db if mask is None else self.snr_db[mask]
        return float(np.mean(snr))


def coherence_time_s(speed_mph: float, carrier_hz: float = ISM_BAND_2G4_HZ) -> float:
    """Channel coherence time at a given motion speed.

    §2 quotes ~80 ms at 0.5 mph and ~6 ms at 6 mph for 2.4 GHz.  We use the
    rule of thumb T_c ≈ 1 / (2 pi f_D) with Doppler f_D = v / lambda, which
    reproduces both anchor points (89 ms and 7.4 ms) to within ~15%.
    """
    if speed_mph <= 0:
        raise ValueError(f"speed_mph must be positive, got {speed_mph}")
    if carrier_hz <= 0:
        raise ValueError(f"carrier_hz must be positive, got {carrier_hz}")
    speed_ms = speed_mph * 0.44704
    wavelength = SPEED_OF_LIGHT / carrier_hz
    doppler_hz = speed_ms / wavelength
    return 1.0 / (2.0 * np.pi * doppler_hz)
