"""The simulated testbed: devices + scene + PRESS array, wired together.

Replaces the paper's physical lab: WARP/USRP devices stand at their
positions in a scene, a PRESS array sits between them, and this harness
produces the measurements the paper collects — per-subcarrier SNR sweeps
over all array configurations (Figures 4-6), frequency-selectivity pairs
(Figure 7), and per-configuration 2x2 MIMO channel matrices (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..constants import BANDWIDTH_HZ, CARRIER_FREQUENCY_HZ, NUM_SUBCARRIERS
from ..core.array import PressArray
from ..core.basis import (
    MAX_ENUMERABLE_CONFIGS,
    BasisEvaluator,
    ChannelBasis,
    SearchSpaceTooLarge,
    _too_large_message,
)
from ..core.configuration import ArrayConfiguration
from ..em.channel import (
    Channel,
    ChannelObservation,
    _estimate_from_normals,
    snr_db_from_cfr,
)
from ..em.antennas import Antenna
from ..em.geometry import Point
from ..em.paths import SignalPath
from ..em.raytracer import RayTracer
from ..em.scene import Scene
from ..em.trace_cache import global_trace_cache
from ..obs.tracing import global_tracer
from ..phy.ofdm import OfdmParams
from .device import SdrDevice

__all__ = [
    "Testbed",
    "SweepResult",
    "drift_factors",
    "sweep_basis_snr",
]

# Span names: registered once here so the phase vocabulary of a run is
# statically known (enforced by `repro lint` rule RPL006).
_SPAN_BASIS_TRACE = "testbed.basis_trace"
_SPAN_BASES_FOR_POINTS = "testbed.bases_for_points"
_SPAN_SWEEP = "testbed.sweep"


def drift_factors(
    num_paths: int,
    rng: Optional[np.random.Generator],
    drift_phase_rad: float,
    drift_amplitude: float,
) -> Optional[np.ndarray]:
    """Per-path complex drift factors for one measurement (or ``None``).

    Draws one block of ``2 * num_paths`` standard normals — the phase
    draws, then the amplitude draws — and maps it through
    :func:`_factors_from_normals`.  That layout is the RNG contract shared
    by :meth:`Testbed.channel` (and so :meth:`Testbed.measure_csi`), the
    basis sweep and the MIMO matrices — and by workers sweeping a shipped
    basis without a testbed — so identically seeded generators produce
    identical measurements everywhere.  No drift (or no ``rng``) draws
    nothing.
    """
    if rng is None or not _drifts(drift_phase_rad, drift_amplitude):
        return None
    normals = rng.standard_normal(2 * num_paths)
    return _factors_from_normals(
        normals[:num_paths], normals[num_paths:], drift_phase_rad, drift_amplitude
    )


def _drifts(drift_phase_rad: float, drift_amplitude: float) -> bool:
    return drift_phase_rad != 0 or drift_amplitude != 0


def _factors_from_normals(
    phase_normals: np.ndarray,
    amplitude_normals: np.ndarray,
    drift_phase_rad: float,
    drift_amplitude: float,
) -> np.ndarray:
    """Complex drift factors from standard normals, batched over rows.

    A phase of ``drift_phase_rad * z`` and a relative amplitude of
    ``1 + drift_amplitude * z`` (clipped at zero) per path: exactly what
    ``rng.normal(scale=...)`` draws would give.
    """
    scales = np.maximum(1.0 + drift_amplitude * amplitude_normals, 0.0)
    return scales * np.exp(1j * (drift_phase_rad * phase_normals))


def sweep_basis_snr(
    basis: ChannelBasis,
    repetitions: int,
    rng: Optional[np.random.Generator],
    tx_power_dbm: float,
    noise_figure_db: float,
    drift_phase_rad: float = 0.0,
    drift_amplitude: float = 0.0,
) -> np.ndarray:
    """The configuration sweep of :meth:`Testbed.sweep`, standalone.

    Takes the (picklable) basis and radio parameters directly: a worker
    process can sweep a basis traced by the parent without rebuilding
    scene, tracer or testbed.  Returns shape
    ``(repetitions, configurations, subcarriers)``.

    Without an rng the whole sweep is one vectorized evaluation.  With
    one, each repetition draws one ``(C, 2L + 2K)`` standard-normal block:
    row ``c`` holds configuration ``c``'s measurement in the per-
    measurement column layout (L drift phases, L drift amplitudes — only
    when drift is on — then K noise real parts and K imaginary parts).
    The drifted ambient CFRs are then one ``(C, L) @ (L, K)`` product and
    the noise and SNR math runs on the whole ``(C, K)`` batch.  The draws
    are those a loop of :meth:`Testbed.measure_csi` calls would make
    (repetition-major, configuration-major), so seeds match that loop and
    leave the generator in the same state.
    """
    if repetitions <= 0:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    element_sums = basis.all_element_sums  # (C, K)
    num_configs, num_subcarriers = element_sums.shape
    if rng is None:
        cfr = basis.ambient_cfr() + element_sums
        snr_once = snr_db_from_cfr(
            cfr,
            basis.num_subcarriers,
            basis.bandwidth_hz,
            tx_power_dbm=tx_power_dbm,
            noise_figure_db=noise_figure_db,
        )
        return np.broadcast_to(snr_once, (repetitions,) + snr_once.shape).copy()
    drift = _drifts(drift_phase_rad, drift_amplitude)
    num_paths = basis.num_ambient_paths if drift else 0
    noise_at = 2 * num_paths
    snr = np.empty((repetitions, num_configs, num_subcarriers))
    for rep in range(repetitions):
        normals = rng.standard_normal((num_configs, noise_at + 2 * num_subcarriers))
        if drift:
            factors = _factors_from_normals(
                normals[:, :num_paths],
                normals[:, num_paths:noise_at],
                drift_phase_rad,
                drift_amplitude,
            )
            ambient = basis.ambient_cfr(basis.ambient_gains * factors)
        else:
            ambient = basis.ambient_cfr()
        _, snr[rep] = _estimate_from_normals(
            ambient + element_sums,
            normals[:, noise_at : noise_at + num_subcarriers],
            normals[:, noise_at + num_subcarriers :],
            basis.num_subcarriers,
            basis.bandwidth_hz,
            tx_power_dbm,
            noise_figure_db,
        )
    return snr


@dataclass(frozen=True)
class SweepResult:
    """A full configuration sweep, §3.2-style.

    Attributes
    ----------
    snr_db:
        Array of shape (repetitions, configurations, subcarriers).
    configurations:
        The configurations, in sweep order.
    used_mask:
        Which subcarriers are used (52 of 64 for the default numerology).
    """

    snr_db: np.ndarray
    configurations: tuple[ArrayConfiguration, ...]
    used_mask: np.ndarray

    @property
    def num_repetitions(self) -> int:
        return self.snr_db.shape[0]

    @property
    def num_configurations(self) -> int:
        return self.snr_db.shape[1]

    def mean_snr_db(self) -> np.ndarray:
        """Per-configuration, per-subcarrier SNR averaged over repetitions."""
        return self.snr_db.mean(axis=0)

    def used_snr_db(self) -> np.ndarray:
        """SNR restricted to used subcarriers, shape (reps, configs, used)."""
        return self.snr_db[:, :, self.used_mask]


class Testbed:
    """A complete measurement setup.

    Parameters
    ----------
    scene:
        The propagation environment.
    array:
        The PRESS array installed in it.
    frequency_hz, bandwidth_hz, num_subcarriers:
        Radio numerology (defaults: the paper's channel 11 / 20 MHz / 64).
    max_bounces:
        Ray-tracing depth for the ambient environment.
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        scene: Scene,
        array: PressArray,
        frequency_hz: float = CARRIER_FREQUENCY_HZ,
        bandwidth_hz: float = BANDWIDTH_HZ,
        num_subcarriers: int = NUM_SUBCARRIERS,
        max_bounces: int = 2,
        drift_phase_rad: float = 0.0,
        drift_amplitude: float = 0.0,
    ) -> None:
        if drift_phase_rad < 0 or drift_amplitude < 0:
            raise ValueError("drift parameters must be non-negative")
        self.scene = scene
        self.array = array
        self.frequency_hz = frequency_hz
        self.bandwidth_hz = bandwidth_hz
        self.num_subcarriers = num_subcarriers
        #: Per-measurement ambient channel drift.  The §3.2 sweep takes ~5 s
        #: — far beyond the channel coherence time — so successive
        #: configuration measurements see slightly different ambient
        #: channels.  Each measurement perturbs every ambient path's phase
        #: (sigma = ``drift_phase_rad``) and amplitude (relative sigma =
        #: ``drift_amplitude``) when an rng is supplied.
        self.drift_phase_rad = drift_phase_rad
        self.drift_amplitude = drift_amplitude
        self.tracer = RayTracer(
            scene=scene, frequency_hz=frequency_hz, max_bounces=max_bounces
        )
        self._environment_cache: dict[tuple, tuple[SignalPath, ...]] = {}
        self._basis_cache: dict[tuple, ChannelBasis] = {}
        # The configuration space is fixed by the (immutable) array; its
        # enumeration is computed lazily — a wall-sized array's space can
        # never be enumerated at all (see :attr:`configurations`), but the
        # testbed must still construct so the basis/delta paths can run.
        self._space = array.configuration_space()
        self._configurations: Optional[tuple[ArrayConfiguration, ...]] = None

    @property
    def configurations(self) -> tuple[ArrayConfiguration, ...]:
        """Every configuration, enumerated once per testbed (guarded).

        Raises :class:`~repro.core.basis.SearchSpaceTooLarge` on
        RFocus-scale arrays instead of materializing the M^N tuple.
        """
        if self._configurations is None:
            if self._space.size > MAX_ENUMERABLE_CONFIGS:
                raise SearchSpaceTooLarge(_too_large_message(self._space))
            self._configurations = tuple(self._space.all_configurations())
        return self._configurations

    def _drifted(
        self,
        paths: tuple[SignalPath, ...],
        rng: Optional[np.random.Generator],
    ) -> tuple[SignalPath, ...]:
        """One coherence-drifted realisation of the ambient paths."""
        factors = drift_factors(
            len(paths), rng, self.drift_phase_rad, self.drift_amplitude
        )
        if factors is None:
            return paths
        return tuple(
            path.scaled(complex(factor)) for path, factor in zip(paths, factors)
        )

    # ------------------------------------------------------------------
    # Environment paths (configuration independent, cached)
    # ------------------------------------------------------------------
    def environment_paths(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> tuple[SignalPath, ...]:
        """Ambient multipath between two device chains (no PRESS paths)."""
        tx = tx_device.chains[tx_chain]
        rx = rx_device.chains[rx_chain]
        key = (
            tx.position.as_tuple(),
            rx.position.as_tuple(),
            tx.antenna,
            rx.antenna,
        )
        if key not in self._environment_cache:
            # The process-wide cache is keyed by geometry *values* (scene
            # fingerprint + endpoints), so testbeds rebuilt for the same
            # placement seed — e.g. successive experiments in a figure
            # suite — share one trace across instances.
            self._environment_cache[key] = global_trace_cache().get_or_trace(
                self.tracer, tx.position, rx.position, tx.antenna, rx.antenna
            )
        return self._environment_cache[key]

    def basis_for(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> ChannelBasis:
        """The precomputed channel basis for a device-chain pair (cached).

        Traces geometry once through :meth:`ChannelBasis.trace` — ambient
        multipath plus each element's two-hop relay geometry — after which
        any configuration's CFR is ``H0 + sum_n E[n, c_n]``, a vectorized
        gather over the basis.
        """
        tx = tx_device.chains[tx_chain]
        rx = rx_device.chains[rx_chain]
        key = (
            tx.position.as_tuple(),
            rx.position.as_tuple(),
            tx.antenna,
            rx.antenna,
        )
        if key not in self._basis_cache:
            with global_tracer().span(_SPAN_BASIS_TRACE):
                self._basis_cache[key] = ChannelBasis.trace(
                    self.array,
                    tx.position,
                    rx.position,
                    self.tracer,
                    tx_antenna=tx.antenna,
                    rx_antenna=rx.antenna,
                    num_subcarriers=self.num_subcarriers,
                    bandwidth_hz=self.bandwidth_hz,
                    environment_paths=self.environment_paths(
                        tx_device, rx_device, tx_chain, rx_chain
                    ),
                )
        return self._basis_cache[key]

    def bases_for_points(
        self,
        tx_device: SdrDevice,
        rx_points: Union[Sequence[Point], np.ndarray],
        rx_antenna: Antenna,
        tx_chain: int = 0,
    ) -> list[ChannelBasis]:
        """Channel bases for one TX chain against a batch of RX positions.

        The position-sweep fast path (coverage maps, placement scans): one
        :meth:`RayTracer.trace_batch` call replaces P scalar ambient traces
        and each element's two-hop geometry is traced once for all P points
        (:meth:`ChannelBasis.trace_batch`).  Per-point results match
        :meth:`basis_for` against a probe device at the same position with
        the same antenna.
        """
        tx = tx_device.chains[tx_chain]
        with global_tracer().span(_SPAN_BASES_FOR_POINTS):
            # The ambient batch is value-cached process-wide: coverage runs
            # that revisit a (scene, TX, grid) — e.g. no-array vs pattern
            # phases of the same placement — trace the grid once.
            ambient = global_trace_cache().get_or_trace_batch(
                self.tracer, tx.position, rx_points, tx.antenna, rx_antenna
            )
            return ChannelBasis.trace_batch(
                self.array,
                tx.position,
                rx_points,
                self.tracer,
                tx_antenna=tx.antenna,
                rx_antenna=rx_antenna,
                num_subcarriers=self.num_subcarriers,
                bandwidth_hz=self.bandwidth_hz,
                ambient=ambient,
            )

    def snr_function(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        mask: Optional[np.ndarray] = None,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> Callable[[ArrayConfiguration], np.ndarray]:
        """A fast ``configuration -> per-subcarrier SNR (dB)`` callable.

        Backed by the precomputed channel basis, so each call is an O(K)
        gather instead of a re-trace — the measurement callback a
        :class:`~repro.core.controller.PressController` sounds the channel
        with when it runs many optimisation rounds against one geometry.
        ``mask`` restricts the returned SNR to selected subcarriers.
        """
        basis = self.basis_for(tx_device, rx_device, tx_chain, rx_chain)

        def measure(configuration: ArrayConfiguration) -> np.ndarray:
            snr = snr_db_from_cfr(
                basis.cfr(configuration),
                self.num_subcarriers,
                self.bandwidth_hz,
                tx_power_dbm=tx_device.tx_power_dbm,
                noise_figure_db=rx_device.noise_figure_db,
            )
            return snr if mask is None else snr[mask]

        return measure

    def cfr_function(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> Callable[[ArrayConfiguration], np.ndarray]:
        """A ``configuration -> complex CFR`` callable on the cached basis.

        The measurement shape :func:`repro.core.faults.detect_unresponsive_elements`
        consumes for maintenance sweeps.
        """
        basis = self.basis_for(tx_device, rx_device, tx_chain, rx_chain)
        return basis.cfr

    def basis_evaluator(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        objective: Callable[[np.ndarray], float],
        mask: Optional[np.ndarray] = None,
        tx_chain: int = 0,
        rx_chain: int = 0,
    ) -> BasisEvaluator:
        """A basis-backed score function using this testbed's radio settings."""
        return self.basis_for(tx_device, rx_device, tx_chain, rx_chain).evaluator(
            objective,
            tx_power_dbm=tx_device.tx_power_dbm,
            noise_figure_db=rx_device.noise_figure_db,
            mask=mask,
        )

    # ------------------------------------------------------------------
    # SISO measurements
    # ------------------------------------------------------------------
    def channel(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        configuration: ArrayConfiguration,
        tx_chain: int = 0,
        rx_chain: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> Channel:
        """The composed channel (environment + configured PRESS paths).

        With an ``rng`` and non-zero drift, the ambient part is a fresh
        coherence-drifted realisation (see ``drift_phase_rad``).
        """
        tx = tx_device.chains[tx_chain]
        rx = rx_device.chains[rx_chain]
        environment = self._drifted(
            self.environment_paths(tx_device, rx_device, tx_chain, rx_chain), rng
        )
        return self.array.channel(
            configuration,
            environment,
            tx.position,
            rx.position,
            self.tracer,
            tx.antenna,
            rx.antenna,
            num_subcarriers=self.num_subcarriers,
            bandwidth_hz=self.bandwidth_hz,
        )

    def measure_csi(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        configuration: ArrayConfiguration,
        rng: Optional[np.random.Generator] = None,
    ) -> ChannelObservation:
        """One CSI measurement, as the paper's receiver would estimate it.

        With an ``rng``, the observation carries single-frame channel-
        estimation noise; without, it is the exact channel.
        """
        channel = self.channel(tx_device, rx_device, configuration, rng=rng)
        return channel.observe(
            tx_power_dbm=tx_device.tx_power_dbm,
            noise_figure_db=rx_device.noise_figure_db,
            rng=rng,
        )

    def sweep(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        repetitions: int = 10,
        rng: Optional[np.random.Generator] = None,
        used_mask: Optional[np.ndarray] = None,
    ) -> SweepResult:
        """Iterate all configurations ``repetitions`` times (the §3.2 loop).

        "we iterate through the 64 combinations 10 times and calculate
        statistics on the SNR for each PRESS antenna configuration."

        The sweep is evaluated from the precomputed channel basis —
        geometry traced once, every configuration's CFR a vectorized
        gather + sum (see :func:`sweep_basis_snr`, which parallel figure
        runners also call against shipped bases).  Without an rng the
        whole sweep is one vectorized evaluation; with one, each
        repetition draws one normal block for all configurations, laid out
        as a loop of :meth:`measure_csi` calls would draw them, so
        identical seeds give that loop's results to machine precision.
        """
        configurations = self.configurations
        with global_tracer().span(_SPAN_SWEEP):
            snr = sweep_basis_snr(
                self.basis_for(tx_device, rx_device),
                repetitions,
                rng,
                tx_power_dbm=tx_device.tx_power_dbm,
                noise_figure_db=rx_device.noise_figure_db,
                drift_phase_rad=self.drift_phase_rad,
                drift_amplitude=self.drift_amplitude,
            )
        if used_mask is None:
            if self.num_subcarriers == 64:
                used_mask = OfdmParams().used_mask()
            else:
                used_mask = np.ones(self.num_subcarriers, dtype=bool)
        else:
            used_mask = np.asarray(used_mask)
            if used_mask.ndim != 1 or used_mask.shape[0] != self.num_subcarriers:
                raise ValueError(
                    f"used_mask must be 1-D with length {self.num_subcarriers}, "
                    f"got shape {used_mask.shape}"
                )
        return SweepResult(
            snr_db=snr, configurations=configurations, used_mask=used_mask
        )

    # ------------------------------------------------------------------
    # MIMO measurements
    # ------------------------------------------------------------------
    def mimo_matrices(
        self,
        tx_device: SdrDevice,
        rx_device: SdrDevice,
        configuration: ArrayConfiguration,
        rng: Optional[np.random.Generator] = None,
        estimation_error_std: float = 0.0,
        repetitions: Optional[int] = None,
    ) -> np.ndarray:
        """Per-subcarrier MIMO channel matrices for one configuration.

        Returns shape (num_subcarriers, num_rx_chains, num_tx_chains), or
        (repetitions, num_subcarriers, num_rx_chains, num_tx_chains) when
        ``repetitions`` is given: that many successive measurements, as
        §3.2.3 averages 50 per configuration.  ``estimation_error_std``
        adds relative complex-Gaussian estimation error per entry (scaled
        by each measurement's RMS channel gain), standing in for finite-SNR
        CSI estimates.

        Each chain pair reuses its precomputed channel basis (geometry
        traced once per pair, drift applied as a phasor scaling of the
        ambient gain vector).  One measurement's ``rng`` draws are standard
        normals in a fixed column layout: each chain pair's drift (L_p
        phases, then L_p amplitudes), rx-major, as per-pair
        :meth:`channel` calls would draw them, then the estimation error's
        real and imaginary parts in ``(K, rx, tx)`` order.  All
        repetitions draw one ``(repetitions, width)`` block, so the result
        and the generator's final state equal ``repetitions`` consecutive
        single calls.
        """
        if estimation_error_std > 0 and rng is None:
            raise ValueError("estimation_error_std > 0 requires an rng")
        if repetitions is not None and repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {repetitions}")
        count = 1 if repetitions is None else repetitions
        num_rx = rx_device.num_chains
        num_tx = tx_device.num_chains
        shape = (self.num_subcarriers, num_rx, num_tx)
        pairs = [
            (i, j, self.basis_for(tx_device, rx_device, j, i))
            for i in range(num_rx)
            for j in range(num_tx)
        ]
        drift = rng is not None and _drifts(self.drift_phase_rad, self.drift_amplitude)
        noise_at = 0
        if drift:
            noise_at = 2 * sum(basis.num_ambient_paths for _, _, basis in pairs)
        noise_size = int(np.prod(shape)) if estimation_error_std > 0 else 0
        if rng is not None:
            normals = rng.standard_normal((count, noise_at + 2 * noise_size))
        h = np.empty((count,) + shape, dtype=complex)
        column = 0
        for i, j, basis in pairs:
            ambient_gains = None
            if drift:
                num_paths = basis.num_ambient_paths
                factors = _factors_from_normals(
                    normals[:, column : column + num_paths],
                    normals[:, column + num_paths : column + 2 * num_paths],
                    self.drift_phase_rad,
                    self.drift_amplitude,
                )
                ambient_gains = basis.ambient_gains * factors
                column += 2 * num_paths
            h[:, :, i, j] = basis.ambient_cfr(ambient_gains) + basis.element_sum(
                configuration
            )
        if noise_size:
            real = normals[:, noise_at : noise_at + noise_size].reshape(h.shape)
            imag = normals[:, noise_at + noise_size :].reshape(h.shape)
            scale = estimation_error_std * np.sqrt(
                np.mean(np.abs(h) ** 2, axis=(1, 2, 3))
            )
            h = h + (scale / np.sqrt(2.0))[:, None, None, None] * (real + 1j * imag)
        return h[0] if repetitions is None else h
