"""Workload ``figures``: cold passes of the paper's figure pipeline.

One pass is ``repro figures`` followed by ``repro control-robustness``,
both at their CLI defaults (serial), with the trace cache cleared first:
a CLI user starts every run with a cold cache.  This is what reproducing
the paper costs: the ray tracer, the testbed sweeps, Fig. 8's MIMO
matrices and the control-plane protocol, and neither the service nor the
delta search.  The workload seed is the robustness sweep's ``--seed``.
"""

from __future__ import annotations

import contextlib
import io

from repro import cli
from repro.em import trace_cache
from repro.experiments import run_fig4

from . import layers
from .common import HostClock, Outcome, digest, median, now, percentile

SETUP_BUILDS = 5

#: The figure stages whose results every pass must reproduce exactly.
STAGES = tuple(target for target in layers.TARGETS if target[2].startswith("experiments."))


class Figures:
    def __init__(self, seed: int, seconds: float, outcome: Outcome) -> None:
        self.seed = seed
        self.seconds = seconds
        self.outcome = outcome
        self.tracer = layers.Tracer()
        self.argv = (["figures"], ["control-robustness", "--seed", str(seed)])
        self.results: list = []  # (stage, result) of the pass in progress
        self.stages: dict = {}  # the last pass's results by stage
        self.first = None
        #: While a measured pass runs: the host clock, and the pass's units
        #: of work so far as ``(raw seconds, mark)``.  The host is sampled
        #: at every stage boundary, so the scale follows it within a pass.
        self.clock: HostClock | None = None
        self.units: list[tuple[float, int]] = []
        self.unit_start = 0.0

    def _capture(self, fn, name):
        def wrapper(*args, **kwargs):
            self._split()
            result = fn(*args, **kwargs)
            self._split()
            self.results.append((name, result))
            return result

        return wrapper

    def _split(self) -> None:
        """End the pass's current unit of work and sample the host."""
        if self.clock is None:
            return
        self.units.append((now() - self.unit_start, self.clock.mark()))
        self.clock.sample()
        self.unit_start = now()

    def run(self, trace: bool) -> None:
        capture = layers.Patches(STAGES, self._capture)
        try:
            self._setup()
            self._pass()  # warm-up: lazy imports and module caches
            self._account(self._pass()[0])
            if trace:
                self._traced()
            else:
                self._measure()
        finally:
            capture.restore()

    def _setup(self) -> None:
        """Cold time to the first figure: Fig. 4 at CLI defaults."""
        defaults = cli.build_parser().parse_args(["figures"])
        marks, raw, digests = [], [], set()
        clock = HostClock()
        for _ in range(SETUP_BUILDS + 1):
            trace_cache.reset()
            marks.append(clock.mark())
            t0 = now()
            result = run_fig4(
                num_placements=defaults.placements, repetitions=defaults.repetitions, jobs=defaults.jobs
            )
            raw.append(now() - t0)
            clock.sample()
            digests.add(digest(result))
        # The first build also fills one-time module caches.
        marks, raw = marks[1:], raw[1:]
        builds = [seconds * clock.scale(mark) for seconds, mark in zip(raw, marks)]
        self.results.clear()
        self.outcome.attempted += 1
        self.outcome.check(len(digests) == 1, "set-up: Fig. 4 differs between cold builds")
        self.outcome.metric("setup_s", median(builds), "s")
        self.outcome.details["setup_raw_s"] = raw

    def _pass(self, clock: HostClock | None = None) -> tuple[tuple, float]:
        """One cold pass; returns (what it produced, seconds).

        With a ``clock``, the pass is split into units at its stage
        boundaries (kept in :attr:`units`), and the seconds include the
        host samples taken between them.
        """
        self.results.clear()
        printed = io.StringIO()
        trace_cache.reset()
        self.clock, self.units = clock, []
        start = self.unit_start = now()
        with contextlib.redirect_stdout(printed):
            codes = tuple(cli.main(argv) for argv in self.argv)
        self._split()
        self.clock = None
        seconds = now() - start
        self.stages = dict(self.results)
        stages = tuple((name, digest(result)) for name, result in self.results)
        return (codes, printed.getvalue(), stages), seconds

    def _account(self, produced: tuple) -> None:
        """The first pass is the reference every later pass must repeat."""
        self.outcome.attempted += 1
        if self.first is None:
            self.first = produced
            codes, _, stages = produced
            ok = codes == (0, 0) and [name for name, _ in stages] == [t[2] for t in STAGES]
            self.outcome.check(ok, f"first pass: exit codes {codes}, stages {[n for n, _ in stages]}")
            if not ok:
                self.outcome.failed += 1
        elif produced != self.first:
            self.outcome.failed += 1
            self.outcome.check(False, "a pass differs from the first pass")

    def _measure(self) -> None:
        passes = []
        clock = HostClock()
        deadline = now() + self.seconds
        while not passes or now() < deadline:
            produced, _ = self._pass(clock)
            self._account(produced)
            passes.append(self.units)
        raw = [sum(seconds for seconds, _ in units) for units in passes]
        times = [sum(seconds * clock.scale(mark) for seconds, mark in units) for units in passes]
        out = self.outcome
        out.metric("latency_p50_ms", 1e3 * median(times), "ms")
        out.metric("latency_p90_ms", 1e3 * percentile(times, 90), "ms")
        out.metric("throughput_per_s", len(times) / sum(times), "1/s")
        out.metric("score_db_mean", self.score_db_mean(), "dB")
        out.details.update(
            {
                "passes": len(times),
                "pass_s": median(times),
                "pass_raw_s": raw,
                "host_kernel_ms_median": 1e3 * median(clock.kernel_samples),
                "host_kernel_ms": [round(1e3 * x, 4) for x in clock.kernel_samples],
            }
        )

    def score_db_mean(self) -> float:
        """Mean of the pass's dB-valued headline numbers.

        Fig. 4's two SNR changes, Fig. 7's two contrasts (as magnitudes),
        Fig. 8's condition-number gap, the LoS swing, and the mean final
        SNR over the control-robustness cells.
        """
        stage = self.stages
        fig4, fig7 = stage["experiments.fig4"], stage["experiments.fig7"]
        cells = stage["experiments.robustness"].cells
        values = (
            fig4.largest_mean_change_db,
            fig4.largest_single_rep_change_db,
            abs(fig7.contrast_a_db),
            abs(fig7.contrast_b_db),
            stage["experiments.fig8"].median_gap_db,
            stage["experiments.los"].los_swing_db,
            sum(cell.final_score for cell in cells) / len(cells),
        )
        return float(sum(values) / len(values))

    def _traced(self) -> None:
        """Alternate untraced and traced passes."""
        tracer = self.tracer
        walls = {False: [], True: []}
        counters: dict = {}
        deadline = now() + self.seconds
        while not walls[True] or now() < deadline:
            for traced in (False, True):
                if traced:
                    with layers.tracing(tracer, counters):
                        produced, seconds = self._pass()
                else:
                    produced, seconds = self._pass()
                self._account(produced)
                walls[traced].append(seconds)
        extra = {"trace.overhead_frac": median(walls[True]) / median(walls[False]) - 1.0}
        layers.report(self.outcome, tracer, counters, extra)

