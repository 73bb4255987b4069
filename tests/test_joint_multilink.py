"""Multi-link delta scoring, joint aggregates, and multi-tenant admission.

The delta evaluator with a link axis keeps the single-link contract,
lifted: its aggregate must match naively re-evaluating every link's full
path within 1e-9 — exhaustively verified over the whole 3-element space —
it must equal L single-link evaluators plus the aggregate exactly, and its
probe accounting must follow the joint measurement model (one joint probe
sounds every link once).  On top sit the strategy invariants (agile >=
static in quality, static <= agile in switching load) and the admission
controller's escalation ladder (joint -> re-cluster -> reject).
"""

import numpy as np
import pytest

from repro.core import (
    ConfigurationSpace,
    BasisLink,
    DeltaEvaluator,
    ExhaustiveSearch,
    GreedyCoordinateDescent,
    LexicographicAggregate,
    LinkObjective,
    MeanSnrObjective,
    MinSnrObjective,
    MultiTenantController,
    RFocusMajoritySearch,
    WeightedMeanAggregate,
    WorstLinkAggregate,
    compare_strategies,
    joint_aggregate,
    optimize_hybrid,
    optimize_joint,
    optimize_per_link,
)
from repro.em.geometry import Point
from repro.experiments import build_large_array_setup, build_nlos_setup, used_subcarrier_mask
from repro.obs.metrics import global_registry

ATOL = 1e-9


def _basis_links(setup, num_links=2, weights=None, objective=None):
    """BasisLinks for receivers spread around the scenario's RX."""
    rx0 = setup.rx_device.position
    points = [
        Point(rx0.x + 0.3 * index, rx0.y + 0.2 * index)
        for index in range(num_links)
    ]
    bases = setup.testbed.bases_for_points(
        setup.tx_device, points, setup.rx_device.chains[0].antenna
    )
    if weights is None:
        weights = [1.0] * num_links
    return [
        BasisLink(
            name=f"L{index}",
            evaluator=basis.evaluator(
                objective if objective is not None else MeanSnrObjective(),
                tx_power_dbm=setup.tx_device.tx_power_dbm,
                noise_figure_db=setup.rx_device.noise_figure_db,
                mask=used_subcarrier_mask(),
            ),
            weight=weight,
        )
        for index, (basis, weight) in enumerate(zip(bases, weights))
    ]


#: Joint scoring modes the stacked evaluator is checked under.
AGGREGATES = {
    "none": None,
    "mean": WeightedMeanAggregate(),
    "worst": WorstLinkAggregate(),
    "lexicographic": LexicographicAggregate(),
}


def _median_of_row(snr):
    """A plain-function objective (scored one row per call)."""
    return float(np.median(snr))


def _aggregate_reference(aggregate, scores, weights):
    """The joint score of per-link scores, as ``JointResult.aggregate_score``
    computes it: the given aggregate, else the weighted mean (for one link
    too)."""
    if aggregate is not None:
        return float(aggregate(scores, weights))
    return float(np.dot(weights, scores) / weights.sum())


class TestMultiLinkDeltaEvaluator:
    def test_parity_exhaustive_over_whole_space(self):
        """Aggregate == naive weighted mean of full-path per-link scores,
        for every configuration of the 3-element space."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=2, weights=[1.0, 2.0])
        weights = np.array([1.0, 2.0])
        evaluator = DeltaEvaluator(
            [link.evaluator for link in links], weights=weights
        )
        for config in evaluator.space.all_configurations():
            value = evaluator.set_configuration(config)
            naive = np.array([link.evaluator(config) for link in links])
            expected = float(np.dot(weights, naive) / weights.sum())
            assert value == pytest.approx(expected, abs=ATOL)
            np.testing.assert_allclose(
                evaluator.per_link_scores(), naive, atol=ATOL
            )

    def test_parity_with_worst_link_aggregate(self):
        setup = build_nlos_setup(1)
        links = _basis_links(setup, num_links=3)
        evaluator = DeltaEvaluator(
            [link.evaluator for link in links], aggregate=WorstLinkAggregate()
        )
        rng = np.random.default_rng(7)
        space = evaluator.space
        for _ in range(50):
            element = int(rng.integers(0, space.num_elements))
            state = int(rng.integers(0, space.state_counts[element]))
            value = evaluator.flip(element, state)
            naive = min(
                link.evaluator(evaluator.configuration) for link in links
            )
            assert value == pytest.approx(naive, abs=ATOL)

    def test_scores_for_element_matches_explicit_probes(self):
        setup = build_nlos_setup(2)
        links = _basis_links(setup, num_links=2, weights=[3.0, 1.0])
        weights = np.array([3.0, 1.0])
        evaluator = DeltaEvaluator(
            [link.evaluator for link in links], weights=weights
        )
        base = evaluator.configuration
        scores = evaluator.scores_for_element(1)
        for state, value in enumerate(scores):
            probe = base.with_element_state(1, state)
            naive = np.array([link.evaluator(probe) for link in links])
            expected = float(np.dot(weights, naive) / weights.sum())
            assert value == pytest.approx(expected, abs=ATOL)
        assert evaluator.configuration == base

    def test_joint_probe_accounting(self):
        """One joint probe per flip/jump; reverts free; column probes M-1."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=2)
        evaluator = DeltaEvaluator([link.evaluator for link in links])
        assert evaluator.num_scores == 1  # initial configuration
        evaluator.flip(0, 1)
        evaluator.revert()
        assert evaluator.num_scores == 2
        states = evaluator.space.state_counts[0]
        evaluator.scores_for_element(0)
        assert evaluator.num_scores == 2 + (states - 1)
        # trajectory is best-so-far, hence monotone non-decreasing
        assert all(
            b >= a
            for a, b in zip(evaluator.trajectory, evaluator.trajectory[1:])
        )

    def test_revert_and_commit_track_all_links(self):
        setup = build_nlos_setup(3)
        links = _basis_links(setup, num_links=2)
        evaluator = DeltaEvaluator([link.evaluator for link in links])
        committed = evaluator.commit()
        evaluator.flip(0, 2)
        evaluator.flip(1, 3)
        restored = evaluator.revert()
        assert restored == committed
        naive = np.array(
            [link.evaluator(evaluator.configuration) for link in links]
        )
        np.testing.assert_allclose(
            evaluator.per_link_scores(), naive, atol=ATOL
        )

    def test_validation(self):
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=2)
        evaluators = [link.evaluator for link in links]
        with pytest.raises(ValueError):
            DeltaEvaluator([])
        with pytest.raises(ValueError):
            DeltaEvaluator(evaluators, weights=np.array([1.0]))
        with pytest.raises(ValueError):
            DeltaEvaluator(evaluators, weights=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
    @pytest.mark.parametrize(
        ("num_links", "objectives"), [(1, "shared"), (3, "shared"), (3, "mixed")]
    )
    def test_stacked_equals_single_links_exactly(
        self, num_links, objectives, aggregate
    ):
        """A seeded sequence of every probe-protocol operation, with a
        resync every 7 flips: the stacked evaluator's scores, per-link
        scores and trajectory equal L single-link evaluators plus the
        aggregate exactly, and each link's full path within 1e-9 — with
        one objective for all links, or a different one per link."""
        setup = build_large_array_setup(0, num_elements=24)
        # A non-unit first weight: w*s/w need not round back to s.
        weights = [0.3, 2.0, 0.5][:num_links]
        links = _basis_links(setup, num_links=num_links, weights=weights)
        if objectives == "mixed":
            per_link = (MeanSnrObjective(), MinSnrObjective(), _median_of_row)
            links = [
                BasisLink(
                    name=link.name,
                    evaluator=link.evaluator.basis.evaluator(
                        objective,
                        tx_power_dbm=link.evaluator.tx_power_dbm,
                        noise_figure_db=link.evaluator.noise_figure_db,
                        mask=link.evaluator.mask,
                    ),
                    weight=link.weight,
                )
                for link, objective in zip(links, per_link)
            ]
        weight_vector = np.array(weights)
        combine = AGGREGATES[aggregate]
        stacked = DeltaEvaluator(
            [link.evaluator for link in links],
            resync_interval=7,
            weights=weights,
            aggregate=combine,
        )
        singles = [link.evaluator.delta(resync_interval=7) for link in links]

        def joint(scores):
            return _aggregate_reference(combine, np.asarray(scores), weight_vector)

        space = stacked.space
        counts = np.array(space.state_counts)
        rng = np.random.default_rng(10 + num_links)
        trajectory = [joint([single.score for single in singles])]
        for _ in range(160):
            op = int(rng.integers(6))
            element = int(rng.integers(space.num_elements))
            if op == 0:
                state = int(rng.integers(counts[element]))
                value = stacked.flip(element, state)
                expected = joint([single.flip(element, state) for single in singles])
                trajectory.append(max(trajectory[-1], expected))
            elif op == 1:
                elements = rng.choice(space.num_elements, size=5, replace=False)
                states = rng.integers(0, counts[elements])
                value = stacked.flip_many(elements, states)
                expected = joint(
                    [single.flip_many(elements, states) for single in singles]
                )
                trajectory.append(max(trajectory[-1], expected))
            elif op == 2:
                held = stacked.state(element)
                per_link = np.stack(
                    [single.scores_for_element(element) for single in singles]
                )
                column = np.array(
                    [joint(per_link[:, m]) for m in range(per_link.shape[1])]
                )
                np.testing.assert_array_equal(
                    stacked.scores_for_element(element), column
                )
                for m, probe in enumerate(column):
                    if m != held:
                        trajectory.append(max(trajectory[-1], probe))
                value = expected = stacked.score
            elif op == 3:
                configuration = space.random_configuration(rng)
                value = stacked.set_configuration(configuration)
                expected = joint(
                    [single.set_configuration(configuration) for single in singles]
                )
                trajectory.append(max(trajectory[-1], expected))
            elif op == 4:
                value = stacked.revert()
                expected = joint([single.revert() for single in singles])
            else:
                value = stacked.commit()
                expected = joint([single.commit() for single in singles])
            assert value == expected
            assert stacked.score == expected
            np.testing.assert_array_equal(
                stacked.per_link_scores(), [single.score for single in singles]
            )
            assert stacked.trajectory == trajectory
            assert stacked.num_scores == len(trajectory)
            configuration = stacked.configuration
            assert [
                stacked.state(e) for e in range(space.num_elements)
            ] == list(configuration.indices)
            for link, single, score in zip(
                links, singles, stacked.per_link_scores()
            ):
                assert single.configuration == configuration
                assert score == pytest.approx(
                    link.evaluator(configuration), abs=ATOL
                )

    def test_mismatched_masks_rejected(self):
        setup = build_nlos_setup(0)
        first, second = (link.evaluator for link in _basis_links(setup, 2))

        def with_mask(mask):
            return second.basis.evaluator(
                second.objective,
                tx_power_dbm=second.tx_power_dbm,
                noise_figure_db=second.noise_figure_db,
                mask=mask,
            )

        for mask in (~used_subcarrier_mask(), None):
            with pytest.raises(ValueError, match="mask"):
                DeltaEvaluator([first, with_mask(mask)])
        # Masks compare by value, not identity.
        equal = DeltaEvaluator([first, with_mask(used_subcarrier_mask().copy())])
        assert equal.num_links == 2

    def test_plain_function_objective_scores_per_row(self):
        """Any callable objective still runs through search_basis, one row
        per call, and agrees bit-for-bit with the batched MeanSnrObjective."""
        setup = build_large_array_setup(0, num_elements=32)
        evaluator = _basis_links(setup, num_links=1)[0].evaluator
        seen = set()

        def mean_of_row(snr):
            seen.add(np.ndim(snr))
            return float(np.mean(snr))

        searcher = GreedyCoordinateDescent(max_sweeps=2, seed=0)
        results = [
            searcher.search_basis(
                evaluator.basis,
                objective,
                tx_power_dbm=evaluator.tx_power_dbm,
                noise_figure_db=evaluator.noise_figure_db,
                mask=evaluator.mask,
            )
            for objective in (mean_of_row, MeanSnrObjective())
        ]
        assert seen == {1}
        plain, batched = results
        assert plain.best == batched.best
        assert plain.best_score == batched.best_score
        assert plain.trajectory == batched.trajectory
        # The exhaustive path scores rows the same way.
        small = _basis_links(build_nlos_setup(0), num_links=1)[0].evaluator
        per_row = small.basis.evaluator(
            mean_of_row,
            tx_power_dbm=small.tx_power_dbm,
            noise_figure_db=small.noise_figure_db,
            mask=small.mask,
        )
        assert per_row.scores_all().tolist() == small.scores_all().tolist()

    @pytest.mark.parametrize("num_links", [1, 3])
    def test_probe_counters_once_per_probe(self, num_links):
        """Each probe adds one to search.delta_evals, and one to
        search.multilink_probes when there are several links."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=num_links)
        evaluator = DeltaEvaluator([link.evaluator for link in links])

        def counters():
            snapshot = global_registry().snapshot().counters
            return (
                snapshot.get("search.delta_evals", 0),
                snapshot.get("search.multilink_probes", 0),
            )

        before = counters()
        evaluator.flip(0, 1)
        evaluator.flip_many([0, 1], [2, 1])
        evaluator.scores_for_element(2)
        evaluator.revert()
        probes = 2 + evaluator.space.state_counts[2] - 1
        after = counters()
        assert after[0] - before[0] == probes
        assert after[1] - before[1] == (probes if num_links > 1 else 0)


class TestAggregates:
    def test_weighted_mean(self):
        scores = np.array([10.0, 20.0])
        weights = np.array([1.0, 3.0])
        assert WeightedMeanAggregate()(scores, weights) == pytest.approx(17.5)

    def test_weighted_mean_rejects_zero_total(self):
        with pytest.raises(ValueError):
            WeightedMeanAggregate()(np.array([1.0]), np.array([0.0]))

    def test_worst_link_ignores_weights(self):
        scores = np.array([10.0, 3.0, 20.0])
        weights = np.array([0.1, 100.0, 0.1])
        assert WorstLinkAggregate()(scores, weights) == pytest.approx(3.0)

    def test_lexicographic_prefers_better_worst_link(self):
        agg = LexicographicAggregate()
        weights = np.ones(2)
        fair = agg(np.array([10.0, 11.0]), weights)
        starved = agg(np.array([5.0, 100.0]), weights)
        assert fair > starved

    def test_lexicographic_breaks_ties_on_next_worst(self):
        agg = LexicographicAggregate()
        weights = np.ones(2)
        assert agg(np.array([10.0, 12.0]), weights) > agg(
            np.array([10.0, 11.0]), weights
        )

    def test_lexicographic_epsilon_validated(self):
        with pytest.raises(ValueError):
            LexicographicAggregate(epsilon=0.0)
        with pytest.raises(ValueError):
            LexicographicAggregate(epsilon=1.0)

    def test_factory_names(self):
        assert isinstance(joint_aggregate("mean"), WeightedMeanAggregate)
        assert isinstance(joint_aggregate("worst"), WorstLinkAggregate)
        assert isinstance(
            joint_aggregate("lexicographic"), LexicographicAggregate
        )
        with pytest.raises(ValueError):
            joint_aggregate("fairest")


class TestBasisLinkStrategies:
    def test_invariants_on_exhaustive_search(self):
        """Agile beats static in quality; static beats agile in switching."""
        setup = build_nlos_setup(0)
        links = _basis_links(setup, num_links=3)
        results = compare_strategies(links, searcher=ExhaustiveSearch())
        per_link, joint = results["per-link"], results["joint"]
        hybrid = results["hybrid"]
        assert (
            per_link.aggregate_score(links)
            >= joint.aggregate_score(links) - ATOL
        )
        assert joint.aggregate_score(links) >= joint.worst_link_score() - ATOL
        assert (
            joint.num_distinct_configurations
            <= hybrid.num_distinct_configurations
            <= per_link.num_distinct_configurations
        )

    def test_joint_exhaustive_matches_brute_force(self):
        setup = build_nlos_setup(1)
        links = _basis_links(setup, num_links=2, weights=[1.0, 2.0])
        joint = optimize_joint(links, searcher=ExhaustiveSearch())
        weights = np.array([1.0, 2.0])
        space = links[0].evaluator.basis.space
        best = max(
            float(
                np.dot(weights, [link.evaluator(c) for link in links])
                / weights.sum()
            )
            for c in space.all_configurations()
        )
        assert joint.aggregate_score(links) == pytest.approx(best, abs=ATOL)

    @pytest.mark.parametrize(
        "searcher",
        [
            GreedyCoordinateDescent(max_sweeps=2, seed=0),
            RFocusMajoritySearch(seed=0),
        ],
    )
    def test_delta_path_runs_on_unenumerable_array(self, searcher):
        """Joint optimisation on 2^64 configurations — impossible to
        enumerate, routine for the delta path."""
        setup = build_large_array_setup(0, num_elements=64)
        links = _basis_links(setup, num_links=2)
        joint = optimize_joint(links, searcher=searcher)
        assert joint.num_distinct_configurations == 1
        assert joint.num_measurements > 0
        # joint probes sound every link: the count is a multiple of L
        assert joint.num_measurements % len(links) == 0
        hybrid = optimize_hybrid(links, searcher=searcher)
        assert hybrid.num_distinct_configurations <= len(links)

    def test_delta_and_exhaustive_joint_agree_on_small_space(self):
        """On an enumerable space the delta-powered greedy search must
        report scores consistent with full-path re-evaluation."""
        setup = build_nlos_setup(2)
        links = _basis_links(setup, num_links=2)
        joint = optimize_joint(
            links, searcher=GreedyCoordinateDescent(max_sweeps=4, seed=0)
        )
        config = joint.assignments[links[0].name]
        for link in links:
            assert joint.per_link_scores[link.name] == pytest.approx(
                link.evaluator(config), abs=ATOL
            )

    def test_mismatched_spaces_rejected(self):
        setup_small = build_nlos_setup(0)
        setup_large = build_large_array_setup(0, num_elements=16)
        links = [
            _basis_links(setup_small, num_links=1)[0],
            BasisLink(
                name="other",
                evaluator=_basis_links(setup_large, num_links=1)[0].evaluator,
            ),
        ]
        with pytest.raises(ValueError):
            optimize_joint(links, searcher=ExhaustiveSearch())


def _table_links(space, seeds=(0, 1), spread=1.0):
    links = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        table = spread * rng.standard_normal((space.size, 8)) + 20.0

        def measure(config, table=table):
            return table[space.index_of(config)]

        links.append(
            LinkObjective(
                name=f"T{seed}", measure=measure, objective=MinSnrObjective()
            )
        )
    return links


class TestMultiTenantController:
    @pytest.fixture
    def space(self):
        return ConfigurationSpace((4, 4, 4))

    def test_admits_compatible_links_jointly(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1))
        for link in links:
            decision = controller.admit(link, snr_floor_db=0.0)
            assert decision.admitted
            assert decision.strategy == "joint"
            assert not decision.reclustered
            assert decision.violations == ()
        assert controller.num_links == 2
        assert controller.snapshot().strategy == "joint"

    def test_conflict_escalates_to_recluster(self, space):
        """When the shared optimum starves a floor, the hybrid fallback
        (distinct configurations) is what admits the newcomer."""
        controller = MultiTenantController(space=space, tolerance=0.0)
        links = _table_links(space, seeds=(0, 1), spread=8.0)
        solo = [
            ExhaustiveSearch().search(space, link.score).best_score
            for link in links
        ]
        first = controller.admit(links[0], snr_floor_db=solo[0] - 0.01)
        assert first.admitted and not first.reclustered
        second = controller.admit(links[1], snr_floor_db=solo[1] - 0.01)
        assert second.admitted
        assert second.reclustered
        assert second.strategy == "hybrid"
        assert second.result.num_distinct_configurations == 2

    def test_impossible_floor_rejected_and_incumbents_untouched(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1))
        controller.admit(links[0], snr_floor_db=0.0)
        plan_before = controller.result
        measurements_before = controller.total_measurements
        decision = controller.admit(links[1], snr_floor_db=1e6)
        assert not decision.admitted
        assert links[1].name in decision.violations
        assert controller.num_links == 1
        assert controller.result is plan_before
        # the failed attempt's soundings still happened and are charged
        assert controller.total_measurements > measurements_before

    def test_duplicate_name_rejected(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0,))
        controller.admit(links[0], snr_floor_db=0.0)
        with pytest.raises(ValueError):
            controller.admit(links[0], snr_floor_db=0.0)

    def test_release_reoptimises_remaining(self, space):
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1))
        for link in links:
            controller.admit(link, snr_floor_db=0.0)
        plan = controller.release(links[0].name)
        assert controller.num_links == 1
        assert plan is not None
        assert set(plan.per_link_scores) == {links[1].name}
        assert controller.release(links[1].name) is None
        assert controller.num_links == 0
        with pytest.raises(KeyError):
            controller.release("nobody")

    def test_obs_counters_follow_decisions(self, space):
        before = global_registry().snapshot()
        controller = MultiTenantController(space=space)
        links = _table_links(space, seeds=(0, 1, 2))
        controller.admit(links[0], snr_floor_db=0.0)
        controller.admit(links[1], snr_floor_db=1e6)  # rejected
        controller.admit(links[2], snr_floor_db=0.0)
        controller.release(links[0].name)
        delta = global_registry().snapshot().delta(before)
        assert delta.counters["joint.admissions"] == 2
        assert delta.counters["joint.rejections"] == 1
        assert delta.counters["joint.releases"] == 1
        assert delta.counters["joint.optimizations"] >= 4
        assert global_registry().gauge("joint.active_links").value == 1

    def test_works_with_basis_links_and_delta_searcher(self):
        """Admission control at wall scale: the whole ladder runs on the
        multi-link delta path."""
        setup = build_large_array_setup(0, num_elements=48)
        links = _basis_links(setup, num_links=2)
        controller = MultiTenantController(
            searcher=GreedyCoordinateDescent(max_sweeps=2, seed=0)
        )
        for link in links:
            decision = controller.admit(link, snr_floor_db=-1e3)
            assert decision.admitted
        snapshot = controller.snapshot()
        assert snapshot.num_distinct_configurations == 1
        assert snapshot.total_measurements > 0


class TestMultiUserExperiment:
    def test_bit_identical_across_jobs(self):
        from repro.experiments import run_multi_user

        serial = run_multi_user(
            link_counts=(2,), num_elements=32, jobs=1
        )
        fanned = run_multi_user(
            link_counts=(2,), num_elements=32, jobs=2
        )
        assert serial == fanned
        assert serial.cell(2, "joint").num_distinct_configurations == 1
        assert serial.admission[0].num_links == 2

    def test_validation(self):
        from repro.experiments import run_multi_user

        with pytest.raises(ValueError):
            run_multi_user(link_counts=())
        with pytest.raises(ValueError):
            run_multi_user(link_counts=(2,), strategies=("static",))
        with pytest.raises(ValueError):
            run_multi_user(link_counts=(2,), searcher="oracle")
