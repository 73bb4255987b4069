"""Tests for repro.core.search and repro.core.scheduler."""

import numpy as np
import pytest

from repro.core.configuration import ConfigurationSpace
from repro.core.objectives import MinSnrObjective
from repro.core.scheduler import (
    TimingModel,
    coherence_budget_table,
    measurement_budget,
    packet_timescale_schedule,
    pick_searcher,
)
from repro.core.search import (
    ExhaustiveSearch,
    GeneticSearch,
    GreedyCoordinateDescent,
    RandomSearch,
    RFocusMajoritySearch,
    SimulatedAnnealing,
    SingleProbeSearch,
)
from repro.experiments import build_nlos_setup, used_subcarrier_mask


@pytest.fixture
def space():
    return ConfigurationSpace((4, 4, 4))


def make_score(space, seed=0):
    """A deterministic pseudo-random score over the space."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(space.size)

    def score(config):
        return float(table[space.index_of(config)])

    return score, float(table.max())


class TestExhaustive:
    def test_finds_global_optimum(self, space):
        score, best = make_score(space)
        result = ExhaustiveSearch().search(space, score)
        assert result.best_score == pytest.approx(best)
        assert result.num_evaluations == space.size

    def test_trajectory_monotone(self, space):
        score, _ = make_score(space)
        result = ExhaustiveSearch().search(space, score)
        assert all(a <= b for a, b in zip(result.trajectory, result.trajectory[1:]))


class TestRandomSearch:
    def test_respects_budget(self, space):
        score, _ = make_score(space)
        result = RandomSearch(budget=10, seed=1).search(space, score)
        assert result.num_evaluations <= 10

    def test_larger_budget_not_worse(self, space):
        score, _ = make_score(space)
        small = RandomSearch(budget=5, seed=2).search(space, score)
        large = RandomSearch(budget=60, seed=2).search(space, score)
        assert large.best_score >= small.best_score

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RandomSearch(budget=0)


class TestGreedy:
    def test_uses_fewer_evaluations_than_exhaustive(self, space):
        score, _ = make_score(space)
        result = GreedyCoordinateDescent().search(space, score)
        assert result.num_evaluations < space.size

    def test_result_is_local_optimum(self, space):
        score, _ = make_score(space)
        result = GreedyCoordinateDescent(max_sweeps=10).search(space, score)
        for neighbor in space.neighbors(result.best):
            assert score(neighbor) <= result.best_score + 1e-12

    def test_separable_objective_solved_exactly(self):
        # When the objective decomposes per element, coordinate descent is optimal.
        space = ConfigurationSpace((4, 4, 4))
        weights = np.array([[0.0, 1, 2, 3], [3, 0, 1, 2], [1, 3, 0, 2]], dtype=float)

        def score(config):
            return float(sum(weights[e, s] for e, s in enumerate(config.indices)))

        result = GreedyCoordinateDescent().search(space, score)
        assert result.best_score == pytest.approx(9.0)  # 3 + 3 + 3

    def test_restarts_improve_or_match(self, space):
        score, _ = make_score(space, seed=5)
        one = GreedyCoordinateDescent(restarts=1, seed=3).search(space, score)
        many = GreedyCoordinateDescent(restarts=4, seed=3).search(space, score)
        assert many.best_score >= one.best_score


class TestAnnealingAndGenetic:
    def test_annealing_obeys_budget(self, space):
        score, _ = make_score(space)
        result = SimulatedAnnealing(budget=30, seed=0).search(space, score)
        assert result.num_evaluations <= 30

    def test_annealing_finds_good_solution(self, space):
        score, best = make_score(space)
        result = SimulatedAnnealing(budget=200, seed=0).search(space, score)
        assert result.best_score >= best - 1.0

    def test_genetic_valid_result(self, space):
        score, _ = make_score(space)
        result = GeneticSearch(population=8, generations=5, seed=0).search(space, score)
        space.validate(result.best)
        assert result.best_score == pytest.approx(score(result.best))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SimulatedAnnealing(budget=0)
        with pytest.raises(ValueError):
            SimulatedAnnealing(cooling=1.5)
        with pytest.raises(ValueError):
            GeneticSearch(population=1)
        with pytest.raises(ValueError):
            GeneticSearch(mutation_rate=2.0)


class TestMemoisation:
    def test_repeat_configs_not_recounted(self, space):
        calls = []

        def score(config):
            calls.append(config.indices)
            return 0.0

        searcher = SimulatedAnnealing(budget=200, seed=0)
        result = searcher.search(space, score)
        # Memoised: unique evaluations never exceed the space size.
        assert result.num_evaluations <= space.size
        assert len(calls) == result.num_evaluations


def stateful_score(space, seed):
    """A measured-channel stand-in: fresh noise on every call, 0.1 dB steps.

    The score draws from its own generator on each call, as a lossy radio
    does, so only the memoised first sounding of a configuration counts;
    rounding to 0.1 dB makes ties common.  Returns the score and the list
    it appends each probed configuration to (as a digit string).
    """
    rng = np.random.default_rng(seed)
    table = rng.normal(20.0, 1.0, size=space.size)
    probed = []

    def score(configuration):
        probed.append("".join(str(i) for i in configuration.indices))
        noisy = table[space.index_of(configuration)] + rng.normal(scale=0.5)
        return round(float(noisy), 1)

    return score, probed


class TestCallbackRoute:
    """Greedy and RFocus through ``search(space, score)``, pinned exactly.

    The expected soundings, winner and trajectory are golden values: a
    controller sounding a real radio must keep probing exactly these
    configurations in this order, ties included.
    """

    SPACE = ConfigurationSpace((4, 3, 2, 4))

    def test_greedy_restarts_sequence_pinned(self):
        score, probed = stateful_score(self.SPACE, seed=2)
        result = GreedyCoordinateDescent(restarts=3, seed=5).search(self.SPACE, score)
        assert probed == (
            "0000 1000 2000 3000 0100 0200 0210 0211 0212 0213 1213 2213 3213 "
            "0013 0113 0203 2203 1203 3203 3003 3103 3210 3211 3212 1111 0111 "
            "2111 3111 1011 1211 1201 1200 1202 0201 2201 3201 1001 1101"
        ).split()
        assert result.best.indices == (0, 2, 1, 3)
        assert result.best_score == 21.6
        assert result.num_evaluations == 38
        assert result.trajectory == [20.0] * 5 + [20.4] + [21.0] * 3 + [21.6] * 29

    def test_rfocus_sequence_pinned(self):
        score, probed = stateful_score(self.SPACE, seed=2)
        result = RFocusMajoritySearch(perturbations=6, seed=5).search(
            self.SPACE, score
        )
        assert probed == (
            "0000 0001 0110 0200 0100 1100 1210 1202 0103 2100 0111 1213 2110 "
            "2010 1102 2102 1110 3110 3100 2000"
        ).split()
        assert result.best.indices == (2, 1, 0, 0)
        assert result.best_score == 23.6
        assert result.num_evaluations == 20
        assert result.trajectory == (
            [20.0] * 3 + [20.1] * 2 + [20.9] * 4 + [23.6] * 11
        )

    @pytest.mark.parametrize(
        "searcher",
        [GreedyCoordinateDescent(restarts=3, seed=1), RFocusMajoritySearch(seed=1)],
    )
    def test_callback_and_basis_routes_agree(self, searcher):
        setup = build_nlos_setup(2)
        basis = setup.testbed.basis_for(setup.tx_device, setup.rx_device)
        radio = {
            "tx_power_dbm": setup.tx_device.tx_power_dbm,
            "noise_figure_db": setup.rx_device.noise_figure_db,
            "mask": used_subcarrier_mask(),
        }
        objective = MinSnrObjective()
        via_basis = searcher.search_basis(basis, objective, **radio)
        via_callback = searcher.search(
            basis.space, basis.evaluator(objective, **radio)
        )
        assert via_callback.best == via_basis.best
        assert via_callback.best_score == pytest.approx(
            via_basis.best_score, abs=1e-9
        )


class TestTimingModel:
    def test_per_measurement(self):
        timing = TimingModel(100e-6, 500e-6, 10e-6)
        assert timing.per_measurement_s == pytest.approx(610e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(actuation_latency_s=-1.0)

    def test_budget_scales_with_coherence(self):
        timing = TimingModel()
        stationary = measurement_budget(0.089, timing)
        running = measurement_budget(0.0074, timing)
        assert stationary > running > 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            measurement_budget(0.0, TimingModel())
        with pytest.raises(ValueError):
            measurement_budget(1.0, TimingModel(), safety_fraction=0.0)


class TestPickSearcher:
    def test_full_budget_picks_exhaustive(self, space):
        assert isinstance(pick_searcher(space, space.size), ExhaustiveSearch)

    def test_medium_budget_picks_greedy(self, space):
        assert isinstance(pick_searcher(space, 20), GreedyCoordinateDescent)

    def test_tiny_budget_picks_random(self, space):
        searcher = pick_searcher(space, 4)
        assert isinstance(searcher, RandomSearch)
        assert searcher.budget == 4

    def test_zero_budget_degrades_to_single_probe(self, space):
        # Regression: budget 0 is a legitimate output of measurement_budget
        # (coherence window < one measurement) and used to raise ValueError.
        searcher = pick_searcher(space, 0)
        assert isinstance(searcher, SingleProbeSearch)


class TestPacketSchedule:
    def test_round_robin_slots(self):
        schedule = packet_timescale_schedule(["a", "b", "c"], [1, 2, 3])
        assert schedule.period_s == pytest.approx(3 * 1.5e-3)
        assert [slot.link_name for slot in schedule.slots] == ["a", "b", "c"]
        assert schedule.slots[1].start_s == pytest.approx(1.5e-3)

    def test_feasibility_depends_on_actuation(self):
        fast = TimingModel(actuation_latency_s=50e-6)
        slow = TimingModel(actuation_latency_s=5e-3)
        assert packet_timescale_schedule(["a"], [0], timing=fast).feasible
        assert not packet_timescale_schedule(["a"], [0], timing=slow).feasible

    def test_validation(self):
        with pytest.raises(ValueError):
            packet_timescale_schedule(["a"], [1, 2])
        with pytest.raises(ValueError):
            packet_timescale_schedule([], [])


def test_coherence_budget_table():
    rows = coherence_budget_table(TimingModel())
    assert len(rows) == 5
    budgets = [row["budget"] for row in rows]
    assert all(a >= b for a, b in zip(budgets, budgets[1:]))
