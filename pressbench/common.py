"""Shared helpers of the benchmark: clocks, statistics, digests, fingerprint."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import resource
import selectors
import time

import numpy as np

now = time.perf_counter


def log(message: str) -> None:
    """A report line; the last line of stdout is always the JSON result."""
    print(message, flush=True)


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation), nan when empty."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return math.nan
    return float(np.percentile(data, q))


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value) -> str:
    """A content hash of a result object: equal digests mean equal values.

    Walks dataclasses, mappings, sequences and numpy arrays; floats are
    hashed by their exact binary value, so "equal" means bit-identical.
    """
    sha = hashlib.sha256()
    _feed(sha, value)
    return sha.hexdigest()


def _feed(sha, value) -> None:
    if isinstance(value, np.ndarray):
        sha.update(f"nd{value.dtype.str}{value.shape}".encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        sha.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            sha.update(field.name.encode())
            _feed(sha, getattr(value, field.name))
    elif isinstance(value, dict):
        sha.update(b"{")
        for key in sorted(value, key=repr):
            _feed(sha, key)
            _feed(sha, value[key])
        sha.update(b"}")
    elif isinstance(value, (list, tuple)):
        sha.update(b"(" if isinstance(value, tuple) else b"[")
        for item in value:
            _feed(sha, item)
        sha.update(b")")
    elif isinstance(value, (float, np.floating)):
        sha.update(b"f" + np.float64(value).tobytes())
    else:
        sha.update(repr(value).encode())


class SpinSelector(selectors.DefaultSelector):
    """A selector that polls instead of sleeping.

    On a shared virtual host an idle vCPU that sleeps in ``epoll_wait``
    wakes up late, by a delay that depends on the host's other tenants;
    an event loop on this selector never sleeps, so a timer fires on time
    and a request is picked up as soon as it is due.  ``idle_s`` counts
    the time spent polling with nothing to do.
    """

    def __init__(self) -> None:
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        start = now()
        deadline = None if timeout is None else start + max(timeout, 0.0)
        try:
            while True:
                events = super().select(0)
                if events or (deadline is not None and now() >= deadline):
                    return events
        finally:
            self.idle_s += now() - start


# -- host speed ---------------------------------------------------------
#
# The benchmark runs on shared virtual hosts whose speed drifts by tens of
# percent over seconds to hours, as other tenants come and go.  So each
# run samples a fixed calibration kernel between its units of work, and
# reports its times in reference-host units: raw seconds times
# ``REFERENCE_KERNEL_S`` over the kernel's time around the unit, i.e. what
# the same work would have taken on a host that runs the kernel in
# exactly 2.5 ms.  The kernel belongs to the benchmark (numpy only,
# nothing of the program), so a change to the program moves the reported
# times exactly as it moves the raw ones.

REFERENCE_KERNEL_S = 0.0025
_KERNEL_REPEATS = 5
_kernel_rng = np.random.default_rng(20170101)
_KERNEL_BASIS = _kernel_rng.standard_normal((64, 32)) + 1j * _kernel_rng.standard_normal((64, 32))
_KERNEL_PHASES = np.exp(1j * np.pi * np.arange(4) / 2)
_KERNEL_ROWS = _kernel_rng.integers(0, 4, size=(128, 32))


def _kernel() -> float:
    """Small complex gathers and reductions, like the program's basis and
    channel code: per-call dispatch dominates, as it does there.  Of four
    kernels tried (larger arrays, interpreted dict code, mixes), this
    one's times tracked a figures pass best across runs on a drifting
    host."""
    acc = 0.0
    for row in _KERNEL_ROWS:
        cfr = (_KERNEL_BASIS * _KERNEL_PHASES[row]).sum(axis=1)
        acc += float(np.log10(np.abs(cfr) ** 2 + 1e-12).mean())
    return acc


def kernel_s() -> float:
    """One calibration sample: the median of a few kernel timings (s)."""
    samples = []
    for _ in range(_KERNEL_REPEATS):
        t0 = now()
        _kernel()
        samples.append(now() - t0)
    return float(np.median(samples))


#: A unit of work is scaled by the median of the kernel samples nearest
#: it: the one just before it and this many earlier, the one just after
#: it and this many later.  Wide enough to average out a sample's own
#: noise, narrow enough to follow the host's drift within a run.
WINDOW = 3


class HostClock:
    """Host speed from calibration samples taken between units of work.

    ``sample()`` times the kernel once; call it between units, never
    inside one.  ``mark()``, called as a unit starts, returns its place
    among the samples; ``scale(mark)`` is reference seconds per raw second
    for that unit, by the samples around it.  Without a mark it is the
    latest estimate.  Multiply raw times by the scale; divide raw rates
    by it.
    """

    def __init__(self) -> None:
        self.kernel_samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.kernel_samples.append(kernel_s())

    def mark(self) -> int:
        return len(self.kernel_samples) - 1

    def scale(self, mark: int | None = None) -> float:
        if mark is None:
            mark = self.mark()
        window = self.kernel_samples[max(0, mark - WINDOW) : mark + WINDOW + 2]
        return REFERENCE_KERNEL_S / median(window)


def fingerprint(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """The machine and run a result was measured on."""
    load1, load5, load15 = os.getloadavg()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg_start": [load1, load5, load15],
        "machine": platform.machine(),
    }


class Outcome:
    """What one workload run produced: metrics plus its output checks."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; a failed one is kept for the report."""
        if not ok:
            self.check_failures.append(what)

    @property
    def correct(self) -> bool:
        return not self.check_failures
