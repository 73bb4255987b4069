"""Sweep fast-path micro-benchmark: per-measurement vs channel-basis time.

The Fig. 4 workload — 3 elements, 64 configurations, 10 repetitions — is
the inner loop of every experiment.  The per-measurement baseline (the
``legacy`` ledger keys) is a loop of ``Testbed.measure_csi`` calls that
re-traces the element paths for each of the 640 measurements;
``Testbed.sweep`` traces geometry once and evaluates the whole sweep as
vectorized numpy.  This benchmark records both wall times (and the
drifted/noisy variant) to ``BENCH_sweep.json`` and asserts the >= 10x
speedup plus numerical agreement with the baseline.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import ReportTable
from repro.experiments import build_nlos_setup

REPETITIONS = 10


def _timed_sweep(testbed, tx, rx, seed=None):
    rng = None if seed is None else np.random.default_rng(seed)
    start = time.perf_counter()
    result = testbed.sweep(tx, rx, repetitions=REPETITIONS, rng=rng)
    return time.perf_counter() - start, result.snr_db


def _timed_measurements(testbed, tx, rx, seed=None):
    """The per-measurement baseline: one ``measure_csi`` per sounding."""
    rng = None if seed is None else np.random.default_rng(seed)
    start = time.perf_counter()
    snr = np.array(
        [
            [
                testbed.measure_csi(tx, rx, configuration, rng=rng).snr_db
                for configuration in testbed.configurations
            ]
            for _ in range(REPETITIONS)
        ]
    )
    return time.perf_counter() - start, snr


def test_bench_sweep_speed(once):
    setup = build_nlos_setup(2)
    testbed = setup.testbed
    tx, rx = setup.tx_device, setup.rx_device
    # Warm the trace caches so both routes time steady-state sweep work.
    testbed.basis_for(tx, rx)

    legacy_s, legacy = _timed_measurements(testbed, tx, rx)
    basis_s, fast = once(_timed_sweep, testbed, tx, rx)
    deviation = float(np.max(np.abs(fast - legacy)))
    speedup = legacy_s / basis_s

    noisy_legacy_s, noisy_legacy = _timed_measurements(testbed, tx, rx, seed=7)
    noisy_basis_s, noisy_fast = _timed_sweep(testbed, tx, rx, seed=7)
    noisy_deviation = float(np.max(np.abs(noisy_fast - noisy_legacy)))
    noisy_speedup = noisy_legacy_s / noisy_basis_s

    num_configs = len(testbed.configurations)
    table = ReportTable(
        title=(
            f"Sweep fast path — {testbed.array.num_elements} elements, "
            f"{num_configs} configs, {REPETITIONS} reps"
        )
    )
    table.add(
        "exact sweep speedup (basis vs per-measurement)",
        ">= 10x",
        f"{speedup:.0f}x ({1e3 * legacy_s:.0f} -> {1e3 * basis_s:.1f} ms)",
        speedup >= 10.0,
    )
    table.add(
        "exact sweep max |dSNR|",
        "<= 1e-9 dB",
        f"{deviation:.2e} dB",
        deviation <= 1e-9,
    )
    table.add(
        "drift+noise sweep speedup",
        "> 1x",
        f"{noisy_speedup:.1f}x ({1e3 * noisy_legacy_s:.0f} -> {1e3 * noisy_basis_s:.0f} ms)",
        noisy_speedup > 1.0,
    )
    table.add(
        "drift+noise sweep max |dSNR|",
        "<= 1e-9 dB",
        f"{noisy_deviation:.2e} dB",
        noisy_deviation <= 1e-9,
    )
    print()
    print(table.render())

    payload = {
        "workload": {
            "elements": testbed.array.num_elements,
            "configurations": num_configs,
            "repetitions": REPETITIONS,
            "subcarriers": testbed.num_subcarriers,
        },
        "exact": {
            "legacy_s": legacy_s,
            "basis_s": basis_s,
            "speedup": speedup,
            "max_abs_snr_deviation_db": deviation,
        },
        "drift_noise": {
            "legacy_s": noisy_legacy_s,
            "basis_s": noisy_basis_s,
            "speedup": noisy_speedup,
            "max_abs_snr_deviation_db": noisy_deviation,
        },
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    assert table.all_hold()
