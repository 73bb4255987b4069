"""Joint multi-link optimisation: the §2 agility-vs-optimisation trade-off.

"If the current communication patterns involve multiple wireless links
operating over different time or frequency slots, we would like the system
to attempt to optimize them jointly and simultaneously, if possible. ...
a trade-off exists between agility and optimization: one might jointly
optimize over a large set of likely communication links, obviating the
need to change the PRESS array for each link's communication, but possibly
complicating the optimization problem.  On the other end of the design
space, one might optimize solely over a single communication link ...
One can imagine hybrid tradeoffs and dynamic strategies."

This module implements all three points on that spectrum:

* **per-link** — each link gets its own optimal configuration and the array
  switches between them on packet timescales (maximum quality, maximum
  switching load);
* **joint** — a single configuration serves all links at once (zero
  switching, possibly compromised quality);
* **hybrid** — links are clustered greedily; links whose optima are
  compatible share a configuration, the rest get their own.

Links come in two flavours.  :class:`LinkObjective` wraps an arbitrary
``configuration -> measurement`` callback (over-the-air soundings, MIMO
matrices, ...).  :class:`BasisLink` wraps a precomputed
:class:`~repro.core.basis.BasisEvaluator`; when every link is
basis-backed and the searcher is delta-capable, the joint strategies run
on one :class:`~repro.core.basis.DeltaEvaluator` with a link axis — the
links' state tensors stacked, one running element sum per link, O(L·K)
per flip in one numpy operation — so they scale to wall-sized arrays
where the callback path's O(M^N) enumeration is impossible.

Joint scores are combined by a
:data:`~repro.core.objectives.LinkAggregate` (weighted mean by default;
worst-link max-min and lexicographic leximin via
:mod:`repro.core.objectives`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .basis import BasisEvaluator, DeltaEvaluator
from .configuration import ArrayConfiguration, ConfigurationSpace
from .scheduler import SwitchingSchedule, TimingModel, packet_timescale_schedule
from .search import Searcher, ExhaustiveSearch

__all__ = [
    "LinkObjective",
    "BasisLink",
    "JointResult",
    "optimize_per_link",
    "optimize_joint",
    "optimize_hybrid",
    "compare_strategies",
]

MeasureFunction = Callable[[ArrayConfiguration], np.ndarray]
LinkAggregate = Callable[[np.ndarray, np.ndarray], float]


def _validate_weight(name: str, weight: float) -> None:
    if not math.isfinite(weight) or weight <= 0.0:
        raise ValueError(
            f"link {name!r} weight must be finite and positive, got {weight}"
        )


@dataclass(frozen=True)
class LinkObjective:
    """One link under joint optimisation.

    Attributes
    ----------
    name:
        Link identifier (used in schedules).
    measure:
        Configuration -> per-subcarrier SNR for this link.
    objective:
        Per-link score over that SNR (higher is better).
    weight:
        Relative weight in joint aggregates; must be finite and positive
        (zero or negative weights would silently sign-flip or zero out the
        weighted-mean aggregate).
    """

    name: str
    measure: MeasureFunction
    objective: Callable[[np.ndarray], float]
    weight: float = 1.0

    def __post_init__(self) -> None:
        _validate_weight(self.name, self.weight)

    def score(self, configuration: ArrayConfiguration) -> float:
        return float(self.objective(self.measure(configuration)))


@dataclass(frozen=True)
class BasisLink:
    """One basis-backed link under joint optimisation.

    The scalable twin of :class:`LinkObjective`: the link's score function
    is a :class:`~repro.core.basis.BasisEvaluator` over its own traced
    :class:`~repro.core.basis.ChannelBasis` (every link shares the array,
    so every basis shares one configuration space).  When all links in a
    strategy call are ``BasisLink`` and the searcher is delta-capable,
    the strategies route through the incremental multi-link scorer.
    """

    name: str
    evaluator: BasisEvaluator
    weight: float = 1.0

    def __post_init__(self) -> None:
        _validate_weight(self.name, self.weight)

    def score(self, configuration: ArrayConfiguration) -> float:
        return self.evaluator(configuration)


Link = Union[LinkObjective, BasisLink]


def _link_weights(links: Sequence[Link]) -> np.ndarray:
    """Validated per-link weight vector; raises on empty/zero aggregates."""
    if not links:
        raise ValueError("need at least one link")
    weights = np.array([link.weight for link in links], dtype=float)
    total = float(weights.sum())
    if not math.isfinite(total) or total <= 0.0:
        raise ValueError(
            f"link weights must sum to a positive total, got {total}"
        )
    return weights


def _all_basis_links(links: Sequence[Link]) -> bool:
    return bool(links) and all(isinstance(link, BasisLink) for link in links)


def _shared_space(
    links: Sequence[BasisLink], space: Optional[ConfigurationSpace]
) -> ConfigurationSpace:
    """The configuration space every basis link shares (validated)."""
    shared = links[0].evaluator.basis.space
    for link in links[1:]:
        if link.evaluator.basis.space.state_counts != shared.state_counts:
            raise ValueError(
                f"link {link.name!r} basis has state counts "
                f"{link.evaluator.basis.space.state_counts}, expected "
                f"{shared.state_counts}; every link sees the same array"
            )
    if space is not None and space.state_counts != shared.state_counts:
        raise ValueError(
            f"explicit space has state counts {space.state_counts} but the "
            f"link bases share {shared.state_counts}"
        )
    return shared


@dataclass(frozen=True)
class JointResult:
    """Outcome of a multi-link optimisation strategy.

    Attributes
    ----------
    strategy:
        "per-link", "joint" or "hybrid".
    assignments:
        Configuration used for each link, by name.
    per_link_scores:
        Each link's score under its assigned configuration.
    num_measurements:
        Over-the-air soundings spent across all searches.  Exact: a joint
        probe sounds every link once; a configuration already measured
        within the coherence time is never re-charged (per-link scores at
        the winning configuration are read from the search's own probes).
    num_distinct_configurations:
        How many configurations the array must switch between (the
        switching load; 1 = no packet-timescale switching needed).
    """

    strategy: str
    assignments: dict[str, ArrayConfiguration]
    per_link_scores: dict[str, float]
    num_measurements: int
    num_distinct_configurations: int

    def aggregate_score(
        self,
        links: Sequence[Link],
        aggregate: Optional[LinkAggregate] = None,
    ) -> float:
        """Aggregate of per-link scores (weighted mean by default)."""
        weights = _link_weights(links)
        scores = np.array(
            [self.per_link_scores[link.name] for link in links], dtype=float
        )
        if aggregate is None:
            return float(np.dot(weights, scores) / weights.sum())
        return float(aggregate(scores, weights))

    def worst_link_score(self) -> float:
        return min(self.per_link_scores.values())

    def schedule(
        self,
        slot_duration_s: float = 1.5e-3,
        timing: TimingModel = TimingModel(),
        space: Optional[ConfigurationSpace] = None,
    ) -> SwitchingSchedule:
        """The packet-timescale schedule this strategy implies.

        With ``space`` the slot ranks are true space indices.  Without it
        ranks are derived from the *distinct* assigned configurations (in
        first-appearance order over the sorted link names), so links that
        share a configuration share a rank and the schedule charges no
        switching between bit-identical configurations — a joint result
        yields zero switches either way.
        """
        names = sorted(self.assignments)
        if space is not None:
            ranks = [space.index_of(self.assignments[name]) for name in names]
        else:
            order: dict[tuple[int, ...], int] = {}
            ranks = []
            for name in names:
                key = self.assignments[name].indices
                if key not in order:
                    order[key] = len(order)
                ranks.append(order[key])
        return packet_timescale_schedule(
            names, ranks, slot_duration_s=slot_duration_s, timing=timing
        )


def optimize_per_link(
    links: Sequence[Link],
    space: Optional[ConfigurationSpace] = None,
    searcher: Searcher = ExhaustiveSearch(),
) -> JointResult:
    """Each link gets its own optimum (the agile extreme)."""
    links = list(links)
    _link_weights(links)
    assignments: dict[str, ArrayConfiguration] = {}
    scores: dict[str, float] = {}
    measurements = 0
    if _all_basis_links(links):
        _shared_space(links, space)
        for link in links:
            evaluator = link.evaluator
            result = searcher.search_basis(
                evaluator.basis,
                evaluator.objective,
                tx_power_dbm=evaluator.tx_power_dbm,
                noise_figure_db=evaluator.noise_figure_db,
                mask=evaluator.mask,
            )
            assignments[link.name] = result.best
            scores[link.name] = result.best_score
            measurements += result.num_evaluations
    else:
        if space is None:
            raise ValueError("space is required for callback-measured links")
        for link in links:
            result = searcher.search(space, link.score)
            assignments[link.name] = result.best
            scores[link.name] = result.best_score
            measurements += result.num_evaluations
    distinct = len({assignment.indices for assignment in assignments.values()})
    return JointResult(
        strategy="per-link",
        assignments=assignments,
        per_link_scores=scores,
        num_measurements=measurements,
        num_distinct_configurations=distinct,
    )


def optimize_joint(
    links: Sequence[Link],
    space: Optional[ConfigurationSpace] = None,
    searcher: Searcher = ExhaustiveSearch(),
    aggregate: Optional[LinkAggregate] = None,
    resync_interval: int = 4096,
) -> JointResult:
    """One configuration for all links (the static extreme).

    The joint score is ``aggregate(per_link_scores, weights)`` — the
    weighted mean when ``aggregate`` is ``None``.  Each search probe
    sounds every link, which the measurement count reflects exactly: the
    per-link scores of the winning configuration are read back from the
    search's own probes, never re-measured.

    When every link is a :class:`BasisLink` and the searcher is
    delta-capable (``uses_delta``), the search runs on one
    :class:`~repro.core.basis.DeltaEvaluator` over all the links: their
    state tensors stacked on a link axis, so a flip costs O(L·K) and a
    greedy element visit O(L·M·K), independent of array size, and joint
    optimisation works on spaces far past
    :data:`~repro.core.basis.MAX_ENUMERABLE_CONFIGS`.  The links must
    share one subcarrier mask.
    """
    links = list(links)
    weights = _link_weights(links)

    if _all_basis_links(links) and searcher.uses_delta:
        _shared_space(links, space)
        evaluator = DeltaEvaluator(
            [link.evaluator for link in links],
            weights=weights,
            aggregate=aggregate,
            resync_interval=resync_interval,
        )
        best, _ = searcher.run_delta(evaluator)
        # The winner was probed during the search; reading its per-link
        # scores off the basis costs no new soundings.
        scores = {link.name: link.evaluator(best) for link in links}
        return JointResult(
            strategy="joint",
            assignments={link.name: best for link in links},
            per_link_scores=scores,
            num_measurements=evaluator.num_scores * len(links),
            num_distinct_configurations=1,
        )

    if space is None:
        if _all_basis_links(links):
            space = _shared_space(links, None)
        else:
            raise ValueError("space is required for callback-measured links")

    total_weight = float(weights.sum())
    per_link_cache: dict[tuple[int, ...], np.ndarray] = {}

    def joint_score(configuration: ArrayConfiguration) -> float:
        link_scores = np.array([link.score(configuration) for link in links])
        per_link_cache[configuration.indices] = link_scores
        if aggregate is None:
            return float(np.dot(weights, link_scores) / total_weight)
        return float(aggregate(link_scores, weights))

    result = searcher.search(space, joint_score)
    cached = per_link_cache.get(result.best.indices)
    measurements = result.num_evaluations * len(links)
    if cached is None:  # pragma: no cover - searchers always probe their winner
        cached = np.array([link.score(result.best) for link in links])
        measurements += len(links)
    scores = {link.name: float(cached[i]) for i, link in enumerate(links)}
    return JointResult(
        strategy="joint",
        assignments={link.name: result.best for link in links},
        per_link_scores=scores,
        num_measurements=measurements,
        num_distinct_configurations=1,
    )


def optimize_hybrid(
    links: Sequence[Link],
    space: Optional[ConfigurationSpace] = None,
    searcher: Searcher = ExhaustiveSearch(),
    tolerance: float = 1.0,
) -> JointResult:
    """Greedy clustering between the two extremes.

    Starts from the per-link optima; a link joins an existing cluster's
    configuration if doing so costs it at most ``tolerance`` of score,
    otherwise it founds a new cluster.  The result keeps near-per-link
    quality with (often far) fewer distinct configurations to switch among.
    Each cluster-membership probe is one counted sounding.
    """
    links = list(links)
    _link_weights(links)
    per_link = optimize_per_link(links, space, searcher)
    measurements = per_link.num_measurements
    cluster_configs: list[ArrayConfiguration] = []
    assignments: dict[str, ArrayConfiguration] = {}
    scores: dict[str, float] = {}
    # Greedy pass in link order.
    for link in links:
        own_best = per_link.per_link_scores[link.name]
        chosen: Optional[ArrayConfiguration] = None
        chosen_score = -np.inf
        for config in cluster_configs:
            score = link.score(config)
            measurements += 1
            if score >= own_best - tolerance and score > chosen_score:
                chosen, chosen_score = config, score
        if chosen is None:
            chosen = per_link.assignments[link.name]
            chosen_score = own_best
            cluster_configs.append(chosen)
        assignments[link.name] = chosen
        scores[link.name] = chosen_score
    return JointResult(
        strategy="hybrid",
        assignments=assignments,
        per_link_scores=scores,
        num_measurements=measurements,
        num_distinct_configurations=len(cluster_configs),
    )


def compare_strategies(
    links: Sequence[Link],
    space: Optional[ConfigurationSpace] = None,
    searcher: Searcher = ExhaustiveSearch(),
    tolerance: float = 1.0,
    aggregate: Optional[LinkAggregate] = None,
) -> dict[str, JointResult]:
    """Run all three strategies for a side-by-side comparison."""
    return {
        "per-link": optimize_per_link(links, space, searcher),
        "joint": optimize_joint(links, space, searcher, aggregate=aggregate),
        "hybrid": optimize_hybrid(links, space, searcher, tolerance=tolerance),
    }
