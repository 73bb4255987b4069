"""Workload ``interactive``: seeded Poisson arrivals against the service.

This is the paper's control loop as a tenant sees it: requests to score
or apply wall configurations arrive on their own schedule and must be
answered within the §2 coherence budget (6 ms at 6 mph).  The open loop
sends each request when it is due, whether or not earlier ones are
done, so a slow service builds a queue; every latency is timed from the
request's due time, so a stall also delays the requests behind it.

Mix: 60% ``evaluate`` (4 configurations), 30% ``actuate``, 10% ``sweep``
over 4 NLoS placements and 2 wall placements of N=256 elements, with Zipf
skew 0.5 over scenarios; sweeps go to NLoS placements only (a wall's
configuration space cannot be enumerated).  The service runs at
``ServiceConfig()`` defaults: serial, in-process, micro-batched.

A run sends a low-rate phase (the gated p50/p90), a high-rate phase, a
saturating capacity phase (the gated throughput) and the search for the
highest rate that meets the budget (a detail), in that order.
"""

from __future__ import annotations

import asyncio
import gc
import math
from dataclasses import dataclass

import numpy as np

from repro.em import trace_cache
from repro.obs.tracing import global_tracer
from repro.sdr.testbed import sweep_basis_snr
from repro.serve import (
    ActuateRequest,
    ActuateResult,
    EnvironmentService,
    EvaluateRequest,
    EvaluateResult,
    ScenarioSpec,
    ServiceConfig,
    SweepRequest,
    SweepResult,
    build_session,
)

from . import layers
from .common import HostClock, Outcome, SpinSelector, median, now, percentile

NLOS = tuple(ScenarioSpec("nlos", placement) for placement in range(4))
WALLS = tuple(ScenarioSpec("large", placement, 256) for placement in range(2))
#: Popularity order for the Zipf draw: rank 1 is the busiest scenario.
RANKED = (NLOS[0], WALLS[0], NLOS[1], NLOS[2], WALLS[1], NLOS[3])
SKEW = 0.5
MIX = (0.6, 0.3, 0.1)  # evaluate, actuate, sweep
CONFIGS_PER_EVALUATE = 4

#: Rates are in reference-host requests per second (see ``HostClock``):
#: each segment is sent at the rate times the host's measured speed, so a
#: rate loads the service equally on a fast and a slow host.
#:
#: The gated latencies are taken at the low rate.  Under load a request's
#: wait grows faster than the service time (by about 1 / (1 - load)), so
#: at the high rate, about half the highest rate that meets the budget,
#: the host's drifting speed reaches the latencies threefold; those are
#: printed as details.
LOW_RATE = 250.0
HIGH_RATE = 1500.0
BUDGET_S = 0.006  # §2 channel-coherence budget at 6 mph
CHECK_EVERY = 37
SETUP_BUILDS = 5
#: Fixed-rate phases are sent as segments of this many seconds of
#: requests, with a host-speed sample after each.
SEGMENT_S = 1.0
#: Shares of the run for the low-rate, the high-rate and the capacity
#: phase; the rate search takes the rest.
LOW_SHARE, HIGH_SHARE, CAPACITY_SHARE = 0.6, 0.1, 0.1
#: Requests per segment of the saturating capacity phase.
CAPACITY_REQUESTS = 2000

#: The rate search climbs from the high rate in coarse steps until two
#: probes in a row miss the budget, then climbs again in fine steps from
#: below the first miss while the run has time left.
COARSE_STEP, FINE_STEP, FINE_START = 1.25, 1.06, 1.3
#: Requests per rate-search probe, whatever its rate, so the memory a
#: probe holds does not depend on how fast the host is.
PROBE_REQUESTS = 1500
#: Probes whose p90 lies within these multiples of the budget shape the knee.
KNEE = (0.5, 2.0)
#: The generator holds requests back while this many are in flight:
#: below the service's ``max_pending`` (256), so the service never sheds
#: load.  A held request's latency still counts from its due time.
MAX_IN_FLIGHT = 240
#: A probe gives up once the next request is this late (s): past
#: capacity, the backlog grows without bound.
BACKLOG_ABORT_S = 0.05
#: Random configurations drawn per scenario; requests pick from them.  A
#: real request's configuration arrives freshly built, hot in the CPU
#: cache; a pool much larger than the cache made every request read cold
#: rows, and the latencies then followed the other tenants' cache use.
POOL_ROWS = 256


def _zipf(count: int) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=float) ** (-SKEW)
    return weights / weights.sum()


class Requests:
    """Seeded request generation over the reference sessions' shapes.

    Configurations are drawn uniformly per scenario into a pool of
    :data:`POOL_ROWS` rows that requests pick from, so the memory a long
    phase holds does not depend on its request count.
    """

    def __init__(self, sessions: dict, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.nlos_ranked = tuple(spec for spec in RANKED if spec.kind == "nlos")
        self.pools = {
            spec: tuple(
                tuple(row)
                for row in self.rng.integers(
                    0, sessions[spec].state_bounds, size=(POOL_ROWS, sessions[spec].state_bounds.size)
                ).tolist()
            )
            for spec in RANKED
        }

    def make(self, count: int) -> list:
        rng = self.rng
        ops = rng.choice(3, size=count, p=MIX)
        any_spec = rng.choice(len(RANKED), size=count, p=_zipf(len(RANKED)))
        nlos_spec = rng.choice(len(self.nlos_ranked), size=count, p=_zipf(len(self.nlos_ranked)))
        requests = []
        rows = rng.integers(0, POOL_ROWS, size=(count, CONFIGS_PER_EVALUATE)).tolist()
        for op, a, b, picks in zip(ops, any_spec, nlos_spec, rows):
            if op == 2:
                requests.append(SweepRequest(scenario=self.nlos_ranked[b]))
                continue
            spec = RANKED[a]
            pool = self.pools[spec]
            if op == 0:
                requests.append(EvaluateRequest(spec, tuple(pool[i] for i in picks)))
            else:
                requests.append(ActuateRequest(spec, pool[picks[0]]))
        return requests

    def arrivals(self, rate: float, count: int) -> np.ndarray:
        """Poisson arrival offsets (s) from the phase start."""
        return np.cumsum(self.rng.exponential(1.0 / rate, size=count))


def expected_reply(session, request):
    """The reply a direct, serial ScenarioSession call gives."""
    if isinstance(request, EvaluateRequest):
        snr = session.snr_rows(session.validate_rows(request.configurations))
        return EvaluateResult(tuple(float(x) for x in session.mean_used_snr(snr)))
    if isinstance(request, ActuateRequest):
        snr = session.snr_rows(session.validate_rows((request.configuration,)))
        return ActuateResult(
            tuple(float(x) for x in snr[0]), float(session.mean_used_snr(snr)[0])
        )
    snr = sweep_basis_snr(
        session.basis,
        request.repetitions,
        None,
        tx_power_dbm=session.tx_power_dbm,
        noise_figure_db=session.noise_figure_db,
    )
    scores = snr[:, :, session.mask].mean(axis=(0, 2))
    return SweepResult(tuple(float(x) for x in scores), int(np.argmax(scores)))


class TimedSelector(SpinSelector):
    """The event loop's polling selector; traced, its polling is ``idle``."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer: layers.Tracer | None = None

    def select(self, timeout=None):
        tracer = self.tracer
        if tracer is not None and tracer.active:
            with tracer.span("idle"):
                return super().select(timeout)
        return super().select(timeout)


@dataclass
class Phase:
    requests: list
    outcomes: list
    latency_s: np.ndarray  # done - due
    late_s: np.ndarray  # sent - due
    wall_s: float
    idle_s: float
    aborted: bool

    @property
    def failures(self) -> int:
        return sum(1 for reply in self.outcomes if isinstance(reply, BaseException))


async def run_phase(service, requests, offsets, selector, tracer, abort_late_s=None) -> Phase:
    """Send ``requests`` open-loop at ``offsets`` (s) and wait for all replies.

    With ``abort_late_s``, the phase stops sending once a request is that
    late, and reports itself aborted.
    """
    gc.collect()
    loop = asyncio.get_running_loop()
    count = len(requests)
    outcomes: list = [None] * count
    done = np.full(count, np.nan)
    sent = np.full(count, np.nan)
    in_flight = 0
    slot = asyncio.Event()

    async def issue(index: int) -> None:
        nonlocal in_flight
        try:
            outcomes[index] = await service.submit(requests[index])
        except Exception as error:  # rejected or failed: counted, never raised
            outcomes[index] = error
        done[index] = now()
        in_flight -= 1
        slot.set()

    idle0 = selector.idle_s
    start = now() + 0.002
    due = start + np.asarray(offsets)
    tasks: set = set()  # in flight only, so memory does not grow with the phase
    index = 0
    aborted = False
    while index < count:
        with tracer.span("loadgen"):
            t = now()
            while index < count and due[index] <= t and in_flight < MAX_IN_FLIGHT:
                sent[index] = now()
                task = loop.create_task(issue(index))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                in_flight += 1
                index += 1
            held = index < count and due[index] <= t
            aborted = held and abort_late_s is not None and t - due[index] > abort_late_s
            wait = due[index] - now() if index < count else 0.0
        if aborted or index == count:
            break
        if held:
            slot.clear()
            await slot.wait()
        else:
            await asyncio.sleep(max(wait, 0.0))
    await asyncio.gather(*tasks)
    end = float(np.nanmax(done)) if index else now()
    return Phase(
        requests=requests[:index],
        outcomes=outcomes[:index],
        latency_s=done[:index] - due[:index],
        late_s=sent[:index] - due[:index],
        wall_s=end - start,
        idle_s=selector.idle_s - idle0,
        aborted=aborted,
    )


async def build_state(references: dict) -> tuple[EnvironmentService, int]:
    """A fresh service with every scenario's session built, cold.

    Returns the service and how many first replies differ from the
    direct session call.
    """
    trace_cache.reset()
    service = EnvironmentService(ServiceConfig())
    await service.__aenter__()
    wrong = 0
    for spec in RANKED:
        session = references[spec]
        request = ActuateRequest(spec, tuple([0] * session.state_bounds.size))
        reply = await service.submit(request)
        wrong += reply != expected_reply(session, request)
    return service, wrong


def reply_score(reply) -> float | None:
    if isinstance(reply, ActuateResult):
        return reply.mean_used_snr_db
    if isinstance(reply, EvaluateResult):
        return float(np.mean(reply.scores_db))
    return None


class Interactive:
    def __init__(self, seed: int, seconds: float, outcome: Outcome) -> None:
        self.seed = seed
        self.seconds = seconds
        self.outcome = outcome
        self.selector = TimedSelector()
        self.tracer = layers.Tracer()
        self.selector.tracer = self.tracer
        self.check_index = 0
        self.checked = 0

    def run(self, trace: bool) -> None:
        loop = asyncio.SelectorEventLoop(self.selector)
        try:
            loop.run_until_complete(self._main(trace))
        finally:
            loop.close()

    # -- set-up ---------------------------------------------------------
    async def _setup(self) -> EnvironmentService:
        self.references = {spec: build_session(spec) for spec in RANKED}
        marks, raw = [], []
        service = None
        clock = HostClock()
        for _ in range(SETUP_BUILDS):
            if service is not None:
                await service.close()
            marks.append(clock.mark())
            t0 = now()
            service, wrong = await build_state(self.references)
            raw.append(now() - t0)
            clock.sample()
            self.outcome.attempted += len(RANKED)
            self.outcome.failed += wrong
            self.outcome.check(not wrong, "set-up: first reply differs from a direct session call")
        builds = [seconds * clock.scale(mark) for seconds, mark in zip(raw, marks)]
        self.outcome.metric("setup_s", median(builds), "s")
        self.outcome.details["setup_raw_s"] = raw
        self.requests = Requests(self.references, self.seed)
        return service

    # -- checks ---------------------------------------------------------
    def _account(self, phase: Phase) -> None:
        """Count a timed phase's replies and check every 37th one."""
        self.outcome.attempted += len(phase.requests)
        self.outcome.failed += phase.failures
        for request, reply in zip(phase.requests, phase.outcomes):
            if self.check_index % CHECK_EVERY == 0 and not isinstance(reply, BaseException):
                expected = expected_reply(self.references[request.scenario], request)
                self.checked += 1
                if reply != expected:
                    self.outcome.failed += 1
                    self.outcome.check(False, f"reply {self.check_index} differs from a direct session call")
            self.check_index += 1

    async def _phase(self, service, rate: float, count: int, abort=None) -> Phase:
        """``count`` requests sent open-loop at ``rate`` raw requests per second."""
        requests = self.requests.make(count)
        offsets = self.requests.arrivals(rate, count)
        return await run_phase(service, requests, offsets, self.selector, self.tracer, abort)

    async def _reference_phase(self, service, clock: HostClock, rate: float, count: int, abort=None):
        """A phase at ``rate`` reference req/s, then a host-speed sample.

        Returns the phase and its mark.
        """
        mark = clock.mark()
        phase = await self._phase(service, rate * clock.scale(), count, abort)
        clock.sample()
        self._account(phase)
        return phase, mark

    # -- end to end -----------------------------------------------------
    async def _main(self, trace: bool) -> None:
        service = await self._setup()
        try:
            await self._phase(service, LOW_RATE, int(LOW_RATE * 0.3))  # warm-up, not reported
            if trace:
                await self._traced(service)
            else:
                await self._measure(service)
        finally:
            await service.close()

    async def _fixed_rate(self, service, clock: HostClock, rate: float, seconds: float) -> dict:
        """A fixed-rate phase of ``seconds`` worth of 1 s segments, in reference units."""
        segments, scores = [], []
        for _ in range(max(round(seconds / SEGMENT_S), 1)):
            phase, mark = await self._reference_phase(service, clock, rate, int(rate * SEGMENT_S))
            segments.append((phase.latency_s, phase.late_s, mark))
            scores += [x for x in map(reply_score, phase.outcomes) if x is not None]
        raw = np.concatenate([latency for latency, _, _ in segments])
        latency = np.concatenate([latency * clock.scale(mark) for latency, _, mark in segments])
        return {
            "requests": len(raw),
            **{f"p{q}_ms": 1e3 * percentile(latency, q) for q in (50, 90, 99)},
            **{f"raw_p{q}_ms": 1e3 * percentile(raw, q) for q in (50, 90)},
            "late_s": np.concatenate([late * clock.scale(mark) for _, late, mark in segments]),
            "scores": scores,
        }

    async def _measure(self, service) -> None:
        out = self.outcome
        clock = HostClock()
        deadline = now() + self.seconds
        low = await self._fixed_rate(service, clock, LOW_RATE, LOW_SHARE * self.seconds)
        high = await self._fixed_rate(service, clock, HIGH_RATE, HIGH_SHARE * self.seconds)
        capacity = await self._capacity(service, clock, CAPACITY_SHARE * self.seconds)
        rate, probes = await self._max_rate(service, clock, deadline)
        out.metric("latency_p50_ms", low["p50_ms"], "ms")
        out.metric("latency_p90_ms", low["p90_ms"], "ms")
        out.metric("throughput_per_s", median(capacity), "1/s")
        out.metric("score_db_mean", float(np.mean(low["scores"] + high["scores"])), "dB")
        details = {"low_rate_rps": LOW_RATE, "high_rate_rps": HIGH_RATE}
        for name, phase in (("low", low), ("high", high)):
            for key in ("requests", "p50_ms", "p90_ms", "p99_ms", "raw_p50_ms", "raw_p90_ms"):
                details[f"{name}_{key}"] = phase[key]
        details.update(
            {
                "capacity_rps": capacity,
                "max_rate_rps": rate,
                "probes": probes,
                "loadgen_late_ms_p90": 1e3 * percentile(np.concatenate([low["late_s"], high["late_s"]]), 90),
                "checked_replies": self.checked,
                "host_kernel_ms_median": 1e3 * median(clock.kernel_samples),
                "host_kernel_ms": [round(1e3 * x, 4) for x in clock.kernel_samples],
            }
        )
        out.details.update(details)

    async def _capacity(self, service, clock: HostClock, seconds: float) -> list[float]:
        """Completed requests per reference second with the generator saturating.

        Every request is due at once, so the generator keeps
        :data:`MAX_IN_FLIGHT` requests in flight and the service batches
        as fully as it can: a closed loop of that many clients.  Returns
        the rate of each segment of :data:`CAPACITY_REQUESTS` requests.
        """
        segments = []
        deadline = now() + seconds
        while not segments or now() < deadline:
            mark = clock.mark()
            requests = self.requests.make(CAPACITY_REQUESTS)
            phase = await run_phase(service, requests, np.zeros(CAPACITY_REQUESTS), self.selector, self.tracer)
            clock.sample()
            self._account(phase)
            segments.append((phase.wall_s, mark))
        return [CAPACITY_REQUESTS / (seconds * clock.scale(mark)) for seconds, mark in segments]

    async def _max_rate(self, service, clock: HostClock, deadline: float) -> tuple[float, list]:
        """Highest rate (reference req/s) meeting the budget.

        A probe is an open-loop phase of :data:`PROBE_REQUESTS` requests
        at one rate; it meets the budget when its p90, overall and over
        its last quarter (a growing backlog shows there first), is within
        it and nothing failed.  Probes climb from the high rate in coarse
        steps until two in a row miss, then in fine steps from below the
        first miss, at least once and again until ``deadline``.  Probes
        near the knee pass or miss by chance, so the result is where a
        Theil-Sen line through log(p90) against rate, over every probe
        with p90 near the budget, crosses it; with too few such probes,
        the highest rate passed.
        """
        probes = []

        async def probe(rate: float) -> str:
            phase, mark = await self._reference_phase(service, clock, rate, PROBE_REQUESTS, BACKLOG_ABORT_S)
            latency = phase.latency_s * clock.scale(mark)
            p90 = percentile(latency, 90)
            tail = latency[len(latency) * 3 // 4 :]
            if phase.aborted:
                miss = "backlog"
            elif phase.failures:
                miss = "failed"
            elif p90 > BUDGET_S:
                miss = "p90"
            elif percentile(tail, 90) > BUDGET_S:
                miss = "tail"
            else:
                miss = ""
            probes.append({"rate": round(rate, 1), "p90_ms": round(1e3 * p90, 3), "miss": miss})
            return miss

        async def climb(rate: float, step: float) -> float:
            """Climb until two misses in a row; return the first of them."""
            misses = 0
            while misses < 2:
                misses = misses + 1 if await probe(rate) else 0
                rate *= step
            return rate / step**2

        first_miss = await climb(HIGH_RATE, COARSE_STEP)
        while True:
            await climb(max(first_miss / FINE_START, HIGH_RATE), FINE_STEP)
            if now() >= deadline:
                break
        passed = [p["rate"] for p in probes if not p["miss"]]
        near = [
            (p["rate"], math.log(p["p90_ms"] / 1e3))
            for p in probes
            if p["miss"] in ("", "p90", "tail") and KNEE[0] <= p["p90_ms"] / 1e3 / BUDGET_S <= KNEE[1]
        ]
        if len(near) >= 3:
            rates, logs = np.array(near).T
            pairs = [
                (logs[j] - logs[i]) / (rates[j] - rates[i])
                for i in range(len(near))
                for j in range(i + 1, len(near))
                if rates[j] != rates[i]
            ]
            slope = float(np.median(pairs)) if pairs else 0.0
            if slope > 0:
                intercept = float(np.median(logs - slope * rates))
                return (math.log(BUDGET_S) - intercept) / slope, probes
        return max(passed, default=0.0), probes

    # -- traced ---------------------------------------------------------
    async def _traced(self, service) -> None:
        """Alternate untraced and traced 1 s segments at the high rate.

        Each pair sends the same requests at the same offsets, so the
        traced segment's busy time compares with the untraced one's.
        Rates here are raw: the per-layer numbers are not host-scaled.
        """
        tracer = self.tracer
        queue_waits: list[float] = []

        def sink(record) -> None:
            if tracer.active and record.name == "serve.queue":
                queue_waits.append(record.duration_s)

        busy = {False: [], True: []}
        late = []
        counters = {}
        deadline = now() + self.seconds
        global_tracer().add_sink(sink)
        try:
            while not busy[True] or now() < deadline:
                count = int(HIGH_RATE * SEGMENT_S)
                requests = self.requests.make(count)
                offsets = self.requests.arrivals(HIGH_RATE, count)
                for traced in (False, True):
                    if traced:
                        with layers.tracing(tracer, counters), tracer.span("serve.loop"):
                            phase = await run_phase(service, requests, offsets, self.selector, tracer)
                        late.append(phase.late_s)
                    else:
                        phase = await run_phase(service, requests, offsets, self.selector, tracer)
                    self._account(phase)
                    busy[traced].append(phase.wall_s - phase.idle_s)
        finally:
            global_tracer().remove_sink(sink)
        batches = counters.get("serve.batches", 0)
        extra = {
            "serve.queue_wait_ms_p50": 1e3 * median(queue_waits) if queue_waits else 0.0,
            "serve.batch_size_mean": counters.get("serve.batched_requests", 0) / batches if batches else 0.0,
            "loadgen.late_ms_p90": 1e3 * percentile(np.concatenate(late), 90),
            "trace.overhead_frac": median(busy[True]) / median(busy[False]) - 1.0,
        }
        layers.report(self.outcome, tracer, counters, extra)
