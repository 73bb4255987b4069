"""Workload ``solve``: one tenant asking the service for plans, closed loop.

A tenant waits for each plan before asking for the next, so one client
sends the next solve only when the previous reply is in.  Each round is
the same seeded set of 7 solves: ``search`` greedy and RFocus on walls of
N=256 and N=1024 elements (arXiv:1905.05130 scale), and
``joint_optimize`` with the joint, hybrid and per-link strategies for 3
links at N=256 (multi-user configuration, arXiv:1812.11429).  This is
the work of the delta scoring kernels and the searchers; with one client
the micro-batcher sees batches of one, and the bases are warm, so the
ray tracer is not on the path.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np

from repro.core.objectives import MeanSnrObjective
from repro.em import trace_cache
from repro.em.channel import snr_db_from_cfr
from repro.em.geometry import Point
from repro.serve import (
    EnvironmentService,
    JointLinkSpec,
    JointOptimizeRequest,
    JointOptimizeResult,
    ScenarioSpec,
    SearchRequest,
    SearchResult,
    ServiceConfig,
    build_session,
)

from . import layers
from .common import HostClock, Outcome, SpinSelector, median, now

WALL_256 = ScenarioSpec("large", 0, 256)
WALL_1024 = ScenarioSpec("large", 0, 1024)
LINKS = (
    JointLinkSpec("a"),
    JointLinkSpec("b", dx_m=0.5, dy_m=0.3),
    JointLinkSpec("c", dx_m=-0.4, dy_m=0.6),
)
SETUP_BUILDS = 5
#: Re-derived scores must match the replies this closely (dB).
SCORE_TOLERANCE = 1e-9


def solve_set(seed: int) -> tuple:
    """The round's 7 solves, seeded from the workload seed."""
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=7)]
    return (
        SearchRequest(WALL_256, "greedy", seeds[0]),
        SearchRequest(WALL_256, "rfocus", seeds[1]),
        SearchRequest(WALL_1024, "greedy", seeds[2]),
        SearchRequest(WALL_1024, "rfocus", seeds[3]),
        JointOptimizeRequest(WALL_256, LINKS, strategy="joint", seed=seeds[4]),
        JointOptimizeRequest(WALL_256, LINKS, strategy="hybrid", seed=seeds[5]),
        JointOptimizeRequest(WALL_256, LINKS, strategy="per-link", seed=seeds[6]),
    )


def warmup_set() -> tuple:
    """Cheap first solves that make the service build every basis it needs."""
    return (
        SearchRequest(WALL_256, "rfocus", 0),
        SearchRequest(WALL_1024, "rfocus", 0),
        JointOptimizeRequest(WALL_256, LINKS, strategy="per-link", searcher="rfocus"),
    )


def mix_quantile(type_latencies: list[float], q: float) -> float:
    """The q-quantile of one solve drawn at random from a round.

    Each of the round's solve types weighs one seventh, at its median
    latency; the quantile is the first type latency whose cumulative
    weight reaches ``q``.  Neither 0.5 nor 0.9 falls on a multiple of one
    seventh, so the result never interpolates between two solve types.
    """
    ordered = sorted(type_latencies)
    return ordered[math.ceil(q * len(ordered)) - 1]


def score(reply) -> float:
    if isinstance(reply, SearchResult):
        return reply.best_score_db
    return reply.aggregate_score_db


class Reference:
    """Direct re-derivation of solve scores through ``ChannelBasis.evaluate``."""

    def __init__(self) -> None:
        self.sessions = {spec: build_session(spec) for spec in (WALL_256, WALL_1024)}
        session = self.sessions[WALL_256]
        setup = session.setup
        rx0 = setup.rx_device.position
        points = [Point(rx0.x + link.dx_m, rx0.y + link.dy_m) for link in LINKS]
        self.link_bases = setup.testbed.bases_for_points(
            setup.tx_device, points, setup.rx_device.chains[0].antenna
        )

    def _score(self, session, basis, configuration) -> float:
        cfr = basis.evaluate(np.asarray([configuration], dtype=np.int64))
        snr = snr_db_from_cfr(
            cfr,
            basis.num_subcarriers,
            basis.bandwidth_hz,
            tx_power_dbm=session.tx_power_dbm,
            noise_figure_db=session.noise_figure_db,
        )
        return MeanSnrObjective()(snr[0, session.mask])

    def problems(self, request, reply) -> list[str]:
        """What is wrong with one reply (empty when it checks out)."""
        session = self.sessions[request.scenario]
        bounds = session.state_bounds
        name = f"{type(request).__name__}({request.scenario.num_elements}, {getattr(request, 'strategy', request.searcher)})"
        if isinstance(request, SearchRequest):
            if not isinstance(reply, SearchResult):
                return [f"{name}: got {reply!r}"]
            pairs = [(session.basis, reply.best_configuration, reply.best_score_db)]
            aggregate_ok = reply.num_evaluations > 0
        else:
            if not isinstance(reply, JointOptimizeResult) or len(reply.configurations) != len(LINKS):
                return [f"{name}: got {reply!r}"]
            pairs = list(zip(self.link_bases, reply.configurations, reply.scores_db))
            aggregate_ok = abs(reply.aggregate_score_db - float(np.mean(reply.scores_db))) <= SCORE_TOLERANCE
        found = []
        for basis, configuration, claimed in pairs:
            rows = np.asarray(configuration)
            if rows.shape != bounds.shape or (rows < 0).any() or (rows >= bounds).any():
                found.append(f"{name}: configuration outside the state bounds")
                continue
            derived = self._score(session, basis, configuration)
            if abs(derived - claimed) > SCORE_TOLERANCE:
                found.append(f"{name}: score {claimed!r} re-derives as {derived!r}")
        if not aggregate_ok:
            found.append(f"{name}: aggregate or evaluation count inconsistent")
        return found


class Solve:
    def __init__(self, seed: int, seconds: float, outcome: Outcome) -> None:
        self.seed = seed
        self.seconds = seconds
        self.outcome = outcome
        self.tracer = layers.Tracer()
        self.requests = solve_set(seed)

    def run(self, trace: bool) -> None:
        loop = asyncio.SelectorEventLoop(SpinSelector())
        try:
            loop.run_until_complete(self._main(trace))
        finally:
            loop.close()

    async def _setup(self) -> EnvironmentService:
        self.reference = Reference()
        marks, raw = [], []
        service = None
        clock = HostClock()
        for _ in range(SETUP_BUILDS):
            if service is not None:
                await service.close()
            marks.append(clock.mark())
            t0 = now()
            trace_cache.reset()
            service = EnvironmentService(ServiceConfig())
            await service.__aenter__()
            replies = [(request, await service.submit(request)) for request in warmup_set()]
            raw.append(now() - t0)
            clock.sample()
            for request, reply in replies:
                self._check(request, reply, "set-up")
        builds = [seconds * clock.scale(mark) for seconds, mark in zip(raw, marks)]
        self.outcome.metric("setup_s", median(builds), "s")
        self.outcome.details["setup_raw_s"] = raw
        return service

    def _check(self, request, reply, where: str) -> None:
        problems = self.reference.problems(request, reply)
        self.outcome.attempted += 1
        for problem in problems:
            self.outcome.check(False, f"{where}: {problem}")
        if problems:
            self.outcome.failed += 1

    async def _round(self, service, clock: HostClock | None = None) -> tuple[list, list[float], list]:
        """One closed-loop round: replies, per-solve seconds, and marks.

        With a ``clock``, a host-speed sample is taken after each solve
        and each solve's mark is kept for scaling (else the marks are
        ``None``).
        """
        replies, latencies, marks = [], [], []
        for request in self.requests:
            marks.append(clock.mark() if clock is not None else None)
            t0 = now()
            try:
                reply = await service.submit(request)
            except Exception as error:  # counted as a failed solve
                reply = error
            latencies.append(now() - t0)
            replies.append(reply)
            if clock is not None:
                clock.sample()
        return replies, latencies, marks

    def _account(self, replies: list) -> None:
        """Check the first round in full; later rounds must repeat it exactly."""
        if self.first is None:
            self.first = replies
            for request, reply in zip(self.requests, replies):
                self._check(request, reply, "round 1")
            return
        for index, reply in enumerate(replies):
            self.outcome.attempted += 1
            if reply != self.first[index]:
                self.outcome.failed += 1
                self.outcome.check(False, f"solve {index} differs from round 1")

    async def _main(self, trace: bool) -> None:
        service = await self._setup()
        self.first = None
        try:
            await self._round(service)  # warm-up, not reported
            if trace:
                await self._traced(service)
            else:
                await self._measure(service)
        finally:
            await service.close()

    async def _measure(self, service) -> None:
        out = self.outcome
        clock = HostClock()
        raw, marks = [], []
        deadline = now() + self.seconds
        while not raw or now() < deadline:
            replies, round_raw, round_marks = await self._round(service, clock)
            self._account(replies)
            raw += round_raw
            marks += round_marks
        latencies = [seconds * clock.scale(mark) for seconds, mark in zip(raw, marks)]
        kinds = len(self.requests)
        per_type = [median(latencies[i::kinds]) for i in range(kinds)]
        out.metric("latency_p50_ms", 1e3 * mix_quantile(per_type, 0.5), "ms")
        out.metric("latency_p90_ms", 1e3 * mix_quantile(per_type, 0.9), "ms")
        out.metric("throughput_per_s", len(latencies) / sum(latencies), "1/s")
        out.metric("score_db_mean", float(np.mean([score(r) for r in self.first])), "dB")
        out.details.update(
            {
                "rounds": len(raw) // kinds,
                "solves": len(raw),
                "per_solve_ms": {
                    f"{type(r).__name__}/{r.scenario.num_elements}/{getattr(r, 'strategy', r.searcher)}": 1e3 * per_type[i]
                    for i, r in enumerate(self.requests)
                },
                "scores_db": [score(r) for r in self.first],
                "host_kernel_ms_median": 1e3 * median(clock.kernel_samples),
                "latency_raw_ms": [round(1e3 * x, 4) for x in raw],
                "host_kernel_ms": [round(1e3 * x, 4) for x in clock.kernel_samples],
            }
        )

    async def _traced(self, service) -> None:
        """Alternate untraced and traced rounds."""
        tracer = self.tracer
        walls = {False: [], True: []}
        counters: dict = {}
        soundings, measurements = [], []
        deadline = now() + self.seconds
        while not walls[True] or now() < deadline:
            for traced in (False, True):
                if traced:
                    with layers.tracing(tracer, counters), tracer.span("serve.loop"):
                        replies, latencies, _ = await self._round(service)
                    soundings += [r.num_evaluations for r in replies if isinstance(r, SearchResult)]
                    measurements += [r.num_measurements for r in replies if isinstance(r, JointOptimizeResult)]
                else:
                    replies, latencies, _ = await self._round(service)
                self._account(replies)
                walls[traced].append(sum(latencies))
        extra = {
            "core.search.soundings_per_solve": float(np.mean(soundings)),
            "core.joint.measurements_per_solve": float(np.mean(measurements)),
            "trace.overhead_frac": median(walls[True]) / median(walls[False]) - 1.0,
        }
        layers.report(self.outcome, tracer, counters, extra)
