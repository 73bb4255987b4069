"""Multi-tenant joint optimisation benchmark: ``BENCH_joint.json``.

Three measurements pin the multi-link scaling story:

1. Delta-vs-callback joint scoring at N=256, L=3: a random flip sequence
   scored by one :class:`~repro.core.basis.DeltaEvaluator` over the three
   links (O(K·L) per flip) versus naively re-evaluating every link's full CFR
   (O(N·K·L) — what the callback path pays per probe).  Acceptance:
   >= 5x at N=256 (measured ~16x; the ratio grows with N), with
   per-flip aggregate agreement <= 1e-9.
2. The joint/hybrid strategies themselves on the wall-sized array with
   both delta-capable searchers — the runs the callback path cannot even
   enumerate (2^256 configurations).  Joint must land one shared
   configuration; recorded aggregate/worst/soundings feed the report.
3. Admission rate versus user count: tenants arrive one at a time at a
   :class:`~repro.core.tenancy.MultiTenantController` with floors set to
   their solo optimum minus 3 dB — the §2 graceful-degradation curve.

``REPRO_BENCH_SMOKE=1`` shrinks N and the user counts, skips the
acceptance assertions and leaves ``BENCH_joint.json`` untouched — the CI
tier-1 smoke mode.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import ReportTable
from repro.core import DeltaEvaluator, MultiTenantController
from repro.experiments import build_large_array_setup
from repro.experiments.large_array import make_searcher
from repro.experiments.multi_user import build_user_links

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_ELEMENTS = 32 if SMOKE else 256
NUM_LINKS = 3
NUM_FLIPS = 16 if SMOKE else 128
USER_COUNTS = (2, 3) if SMOKE else (2, 4, 8)
FLOOR_HEADROOM_DB = 3.0
DELTA_SPEEDUP_FLOOR = 5.0
PARITY_ATOL = 1e-9


def test_bench_joint(once):
    setup = build_large_array_setup(0, num_elements=N_ELEMENTS)
    links = build_user_links(setup, NUM_LINKS, placement_seed=0)
    evaluators = [link.evaluator for link in links]

    # -- 1. delta vs callback joint scoring -----------------------------
    space = evaluators[0].basis.space
    rng = np.random.default_rng(0)
    flips = []
    for _ in range(NUM_FLIPS):
        element = int(rng.integers(0, space.num_elements))
        flips.append(
            (element, int(rng.integers(0, space.state_counts[element])))
        )

    multi = DeltaEvaluator(evaluators)
    start = time.perf_counter()
    delta_scores = [multi.flip(element, state) for element, state in flips]
    delta_s = time.perf_counter() - start

    def _callback_path():
        configuration = multi.committed_configuration
        scores = []
        for element, state in flips:
            configuration = configuration.with_element_state(element, state)
            per_link = [evaluator(configuration) for evaluator in evaluators]
            scores.append(float(np.mean(per_link)))
        return scores

    multi.revert()
    start = time.perf_counter()
    callback_scores = once(_callback_path)
    callback_s = time.perf_counter() - start

    delta_speedup = callback_s / delta_s
    parity = float(
        np.max(np.abs(np.array(delta_scores) - np.array(callback_scores)))
    )

    # -- 2. joint strategies on the unenumerable array ------------------
    from repro.core.joint import optimize_hybrid, optimize_joint

    strategy_rows = []
    for name in ("greedy", "rfocus"):
        searcher = make_searcher(name, 0)
        start = time.perf_counter()
        joint = optimize_joint(links, searcher=searcher)
        joint_s = time.perf_counter() - start
        hybrid = optimize_hybrid(links, searcher=searcher)
        assert joint.num_distinct_configurations == 1
        strategy_rows.append(
            {
                "searcher": name,
                "joint_aggregate_db": joint.aggregate_score(links),
                "joint_worst_db": joint.worst_link_score(),
                "joint_soundings": joint.num_measurements,
                "joint_wall_s": joint_s,
                "hybrid_aggregate_db": hybrid.aggregate_score(links),
                "hybrid_distinct": hybrid.num_distinct_configurations,
                "hybrid_soundings": hybrid.num_measurements,
            }
        )

    # -- 3. admission rate vs user count --------------------------------
    admission_rows = []
    for count in USER_COUNTS:
        users = build_user_links(setup, count, placement_seed=0)
        controller = MultiTenantController(searcher=make_searcher("greedy", 1))
        admitted = 0
        for index, link in enumerate(users):
            solo = make_searcher("greedy", 2 + index).search_basis(
                link.evaluator.basis,
                link.evaluator.objective,
                tx_power_dbm=link.evaluator.tx_power_dbm,
                noise_figure_db=link.evaluator.noise_figure_db,
                mask=link.evaluator.mask,
            )
            decision = controller.admit(
                link, snr_floor_db=solo.best_score - FLOOR_HEADROOM_DB
            )
            admitted += int(decision.admitted)
        admission_rows.append(
            {
                "num_links": count,
                "admitted": admitted,
                "admission_rate": admitted / count,
                "total_measurements": controller.total_measurements,
            }
        )

    table = ReportTable(
        title=(
            f"Multi-tenant joint optimisation — N={N_ELEMENTS}, L={NUM_LINKS}"
            + (" [SMOKE]" if SMOKE else "")
        )
    )
    table.add(
        f"delta vs callback speedup ({NUM_FLIPS} joint probes)",
        f">= {DELTA_SPEEDUP_FLOOR:.0f}x",
        f"{delta_speedup:.0f}x "
        f"({1e3 * callback_s:.0f} -> {1e3 * delta_s:.1f} ms)",
        SMOKE or delta_speedup >= DELTA_SPEEDUP_FLOOR,
    )
    table.add(
        "delta vs callback |daggregate|",
        "<= 1e-9",
        f"{parity:.2e}",
        parity <= PARITY_ATOL,
    )
    for row in strategy_rows:
        table.add(
            f"{row['searcher']} joint (N={N_ELEMENTS})",
            "1 shared config",
            f"{row['joint_aggregate_db']:.1f} dB aggregate in "
            f"{row['joint_soundings']} soundings",
            True,
        )
        table.add(
            f"{row['searcher']} hybrid (N={N_ELEMENTS})",
            f"<= {NUM_LINKS} configs",
            f"{row['hybrid_distinct']} configs, "
            f"{row['hybrid_aggregate_db']:.1f} dB aggregate",
            row["hybrid_distinct"] <= NUM_LINKS,
        )
    for row in admission_rows:
        table.add(
            f"admission rate (L={row['num_links']}, "
            f"floor=solo-{FLOOR_HEADROOM_DB:.0f}dB)",
            "recorded",
            f"{100 * row['admission_rate']:.0f}% "
            f"({row['admitted']}/{row['num_links']}), "
            f"{row['total_measurements']} soundings",
            True,
        )
    print()
    print(table.render())

    if not SMOKE:
        payload = {
            "delta_vs_callback": {
                "num_elements": N_ELEMENTS,
                "num_links": NUM_LINKS,
                "num_flips": NUM_FLIPS,
                "callback_s": callback_s,
                "delta_s": delta_s,
                "speedup": delta_speedup,
                "speedup_floor": DELTA_SPEEDUP_FLOOR,
                "max_abs_aggregate_deviation": parity,
            },
            "strategies": strategy_rows,
            "admission_vs_user_count": admission_rows,
            "floor_headroom_db": FLOOR_HEADROOM_DB,
        }
        out = Path(__file__).resolve().parent.parent / "BENCH_joint.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")

    assert table.all_hold()
