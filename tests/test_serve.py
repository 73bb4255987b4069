"""Serving layer: determinism, batching, backpressure, session LRU."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import global_registry
from repro.serve import (
    REJECTED,
    EnvironmentService,
    EvaluateRequest,
    ScenarioSpec,
    ServiceClient,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    mixed_requests,
    run_closed_loop,
    run_open_loop,
)

NLOS = ScenarioSpec(kind="nlos", placement=0)


def _run(coroutine):
    return asyncio.run(coroutine)


async def _serve_all(config: ServiceConfig, requests, concurrency: int):
    async with EnvironmentService(config) as service:
        load = await run_closed_loop(service.submit, requests, concurrency)
    return load.responses


# ---------------------------------------------------------------------------
# Determinism: interleaved clients == serial issue, at any batching window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("window_s", [0.0, 0.001, 0.005])
def test_concurrent_serving_bit_identical_to_serial(window_s):
    requests = mixed_requests(
        [NLOS, ScenarioSpec(kind="nlos", placement=1)],
        num_requests=24,
        seed=42,
    )
    serial = _run(
        _serve_all(
            ServiceConfig(batch_window_s=0.0, max_batch=1), requests, 1
        )
    )
    concurrent = _run(
        _serve_all(
            ServiceConfig(batch_window_s=window_s, max_batch=64), requests, 8
        )
    )
    # Frozen dataclasses of floats/tuples: == is bit-exact equality.
    assert concurrent == serial


def test_seeded_sweep_is_reproducible_across_services():
    async def sweep_once():
        async with EnvironmentService() as service:
            client = ServiceClient(service)
            return await client.sweep(
                NLOS, repetitions=2, seed=9, drift_phase_rad=0.08
            )

    assert _run(sweep_once()) == _run(sweep_once())


def test_search_request_matches_direct_search():
    from repro.core.objectives import MeanSnrObjective
    from repro.experiments import build_nlos_setup, used_subcarrier_mask
    from repro.experiments.large_array import make_searcher

    async def served():
        async with EnvironmentService() as service:
            return await ServiceClient(service).search(NLOS, "rfocus", seed=3)

    result = _run(served())

    setup = build_nlos_setup(0)
    basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
    direct = make_searcher("rfocus", 3).search_basis(
        basis,
        MeanSnrObjective(),
        tx_power_dbm=setup.tx_device.tx_power_dbm,
        noise_figure_db=setup.rx_device.noise_figure_db,
        mask=used_subcarrier_mask(),
    )
    assert result.best_configuration == direct.best.indices
    assert result.best_score_db == direct.best_score
    assert result.num_evaluations == direct.num_evaluations


# ---------------------------------------------------------------------------
# Micro-batching
# ---------------------------------------------------------------------------


def test_concurrent_requests_coalesce_into_fewer_batches():
    before = global_registry().snapshot()

    async def drive():
        async with EnvironmentService(
            ServiceConfig(batch_window_s=0.0, max_batch=64)
        ) as service:
            client = ServiceClient(service)
            await client.actuate(NLOS, (0, 0, 0))  # session warm-up
            await asyncio.gather(
                *(client.actuate(NLOS, (i % 4, 0, 0)) for i in range(16))
            )

    _run(drive())
    delta = global_registry().snapshot().delta(before)
    # 17 requests must not have taken 17 batches: the 16 concurrent
    # actuations coalesce (worst case a couple of flushes).
    assert delta.counters["serve.requests"] == 17
    assert delta.counters["serve.batches"] <= 5
    assert delta.counters["serve.batched_requests"] == 17


def test_max_batch_flushes_without_waiting_for_window():
    async def drive():
        # A 60 s window would hang the test unless max_batch forces the
        # flush; asyncio.wait_for guards against regression.
        async with EnvironmentService(
            ServiceConfig(batch_window_s=60.0, max_batch=2)
        ) as service:
            client = ServiceClient(service)
            return await asyncio.wait_for(
                asyncio.gather(
                    *(client.actuate(NLOS, (i % 4, 0, 0)) for i in range(4))
                ),
                timeout=30.0,
            )

    results = _run(drive())
    assert len(results) == 4


def test_invalid_configuration_fails_only_its_own_request():
    async def drive():
        async with EnvironmentService(
            ServiceConfig(batch_window_s=0.0, max_batch=64)
        ) as service:
            client = ServiceClient(service)
            await client.actuate(NLOS, (0, 0, 0))  # build session first
            good = client.actuate(NLOS, (1, 2, 3))
            bad = client.actuate(NLOS, (1, 2))  # wrong element count
            worse = client.actuate(NLOS, (9, 0, 0))  # state out of range
            return await asyncio.gather(
                good, bad, worse, return_exceptions=True
            )

    good, bad, worse = _run(drive())
    assert isinstance(bad, ValueError)
    assert isinstance(worse, ValueError)
    assert good.mean_used_snr_db == good.mean_used_snr_db  # a real number


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


def test_overload_rejects_excess_and_keeps_serving():
    async def drive():
        async with EnvironmentService(
            ServiceConfig(batch_window_s=0.2, max_batch=1024, max_pending=4)
        ) as service:
            client = ServiceClient(service)
            submissions = [
                asyncio.ensure_future(client.actuate(NLOS, (0, 0, 0)))
                for _ in range(10)
            ]
            # Submissions past max_pending=4 reject synchronously while
            # the first batch is still inside its window.
            outcomes = await asyncio.gather(
                *submissions, return_exceptions=True
            )
            after = await client.actuate(NLOS, (0, 0, 0))
            return outcomes, after

    outcomes, after = _run(drive())
    rejected = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
    served = [o for o in outcomes if not isinstance(o, Exception)]
    assert len(rejected) == 6
    assert len(served) == 4
    assert after.mean_used_snr_db == served[0].mean_used_snr_db


def test_no_rejections_below_overload_threshold():
    requests = mixed_requests([NLOS], num_requests=32, seed=5)

    async def drive():
        async with EnvironmentService(
            ServiceConfig(max_pending=256)
        ) as service:
            return await run_closed_loop(service.submit, requests, 16)

    load = _run(drive())
    assert load.rejected == 0
    assert load.failed == 0
    assert load.completed == len(requests)


def test_closed_service_raises_service_closed():
    async def drive():
        service = EnvironmentService()
        client = ServiceClient(service)
        await client.actuate(NLOS, (0, 0, 0))
        await service.close()
        with pytest.raises(ServiceClosed):
            await client.actuate(NLOS, (0, 0, 0))

    _run(drive())


# ---------------------------------------------------------------------------
# Scenario-sharded sessions
# ---------------------------------------------------------------------------


def test_session_lru_hits_and_evictions():
    first = ScenarioSpec(kind="nlos", placement=0)
    second = ScenarioSpec(kind="nlos", placement=1)

    async def drive():
        async with EnvironmentService(
            ServiceConfig(session_capacity=1)
        ) as service:
            client = ServiceClient(service)
            a0 = await client.actuate(first, (0, 0, 0))
            await client.actuate(first, (0, 0, 0))  # hit
            await client.actuate(second, (0, 0, 0))  # evicts first
            a1 = await client.actuate(first, (0, 0, 0))  # rebuild
            return service, a0, a1

    service, a0, a1 = _run(drive())
    assert service.session_hits == 1
    assert service.session_misses == 3
    assert service.session_evictions == 2
    assert service.sessions == 1
    # A rebuilt session computes the identical answer.
    assert a0 == a1


def test_rejected_sentinel_and_open_loop_loadgen():
    requests = mixed_requests([NLOS], num_requests=12, seed=11)

    async def drive():
        async with EnvironmentService() as service:
            return await run_open_loop(
                service.submit, requests, rate_hz=2000.0, seed=1
            )

    load = _run(drive())
    assert load.completed == len(requests)
    assert load.rejected == 0
    assert REJECTED not in load.responses


def test_mixed_requests_deterministic_and_skewed():
    scenarios = [ScenarioSpec(kind="nlos", placement=p) for p in range(4)]
    first = mixed_requests(scenarios, 64, seed=3, skew=2.0)
    second = mixed_requests(scenarios, 64, seed=3, skew=2.0)
    assert first == second
    placements = [r.scenario.placement for r in first]
    # Zipf skew concentrates traffic on the first scenario.
    assert placements.count(0) > len(placements) / 2


def test_evaluate_request_requires_configurations():
    async def drive():
        async with EnvironmentService() as service:
            with pytest.raises(ValueError):
                await service.submit(
                    EvaluateRequest(scenario=NLOS, configurations=())
                )

    _run(drive())


def test_sweep_request_requires_positive_repetitions():
    async def drive():
        async with EnvironmentService() as service:
            client = ServiceClient(service)
            with pytest.raises(ValueError, match="repetitions must be positive"):
                await client.sweep(NLOS, repetitions=0)

    _run(drive())


# ---------------------------------------------------------------------------
# Joint multi-link requests
# ---------------------------------------------------------------------------


def _joint_links():
    from repro.serve import JointLinkSpec

    return (
        JointLinkSpec(name="a"),
        JointLinkSpec(name="b", dx_m=0.4, dy_m=0.2, weight=2.0),
    )


def test_joint_request_matches_direct_optimize_joint():
    from repro.core.joint import BasisLink, optimize_joint
    from repro.core.objectives import MeanSnrObjective, joint_aggregate
    from repro.em.geometry import Point
    from repro.experiments import build_nlos_setup, used_subcarrier_mask
    from repro.experiments.large_array import make_searcher

    links = _joint_links()

    async def served():
        async with EnvironmentService() as service:
            return await ServiceClient(service).joint_optimize(
                NLOS, links, strategy="joint", searcher="greedy", seed=3
            )

    result = _run(served())

    setup = build_nlos_setup(0)
    rx0 = setup.rx_device.position
    bases = setup.testbed.bases_for_points(
        setup.tx_device,
        [Point(rx0.x + s.dx_m, rx0.y + s.dy_m) for s in links],
        setup.rx_device.chains[0].antenna,
    )
    direct = optimize_joint(
        [
            BasisLink(
                name=spec.name,
                evaluator=basis.evaluator(
                    MeanSnrObjective(),
                    tx_power_dbm=setup.tx_device.tx_power_dbm,
                    noise_figure_db=setup.rx_device.noise_figure_db,
                    mask=used_subcarrier_mask(),
                ),
                weight=spec.weight,
            )
            for spec, basis in zip(links, bases)
        ],
        searcher=make_searcher("greedy", 3),
        aggregate=joint_aggregate("mean"),
    )
    assert result.strategy == "joint"
    assert result.num_distinct_configurations == 1
    for spec, config, score in zip(
        links, result.configurations, result.scores_db
    ):
        assert config == direct.assignments[spec.name].indices
        assert score == direct.per_link_scores[spec.name]
    assert result.num_measurements == direct.num_measurements


@pytest.mark.parametrize("window_s", [0.0, 0.005])
def test_joint_requests_bit_identical_at_any_batch_window(window_s):
    from repro.serve import JointOptimizeRequest

    links = _joint_links()
    requests = [
        JointOptimizeRequest(
            scenario=NLOS, links=links, strategy=strategy, searcher="rfocus"
        )
        for strategy in ("joint", "per-link", "hybrid")
    ] * 2

    serial = _run(
        _serve_all(
            ServiceConfig(batch_window_s=0.0, max_batch=1), requests, 1
        )
    )
    concurrent = _run(
        _serve_all(
            ServiceConfig(batch_window_s=window_s, max_batch=64), requests, 6
        )
    )
    assert concurrent == serial
    # identical requests within one run agree too
    assert serial[:3] == serial[3:]


def test_joint_request_validation():
    from repro.serve import JointLinkSpec, JointOptimizeRequest

    async def drive():
        async with EnvironmentService() as service:
            with pytest.raises(ValueError):
                await service.submit(
                    JointOptimizeRequest(scenario=NLOS, links=())
                )
            with pytest.raises(ValueError):
                await service.submit(
                    JointOptimizeRequest(
                        scenario=NLOS,
                        links=(
                            JointLinkSpec(name="a"),
                            JointLinkSpec(name="a", dx_m=0.1),
                        ),
                    )
                )
            with pytest.raises(ValueError):
                await service.submit(
                    JointOptimizeRequest(
                        scenario=NLOS,
                        links=(JointLinkSpec(name="a"),),
                        strategy="static",
                    )
                )

    _run(drive())
