"""Golden pins for the served solves on wall-sized arrays.

The seven solves of one benchmark ``solve`` round — greedy and RFocus
searches at N=256 and N=1024, and the joint, hybrid and per-link
strategies over three links at N=256 — run through the service's own
work functions.  Scores and sounding counts must equal the pinned values
exactly, and every configuration must match ``golden_solves.json`` state
for state: the delta scoring kernels may get faster, never different.
"""

import json
from pathlib import Path

import pytest

from repro.em.geometry import Point
from repro.serve import ScenarioSpec, build_session
from repro.serve.work import joint_task, search_task

GOLDEN = json.loads((Path(__file__).parent / "golden_solves.json").read_text())

#: (searcher, elements, seed, best score dB, evaluations)
SEARCHES = [
    ("greedy", 256, 1016164991, 43.653682750120396, 3230),
    ("rfocus", 256, 1099128569, 33.81324124486952, 101),
    ("greedy", 1024, 1621709875, 54.97241586913643, 12845),
    ("rfocus", 1024, 2041105245, 35.477994956829534, 76),
]

#: (strategy, seed, aggregate score dB, measurements)
JOINTS = [
    ("joint", 74845286, 49.09631174767747, 9711),
    ("hybrid", 309580411, 51.419244118016394, 7358),
    ("per-link", 1767258089, 51.565815707546584, 7355),
]

#: (name, dx m, dy m) of the joint links, relative to the scenario's RX.
LINKS = (("a", 0.0, 0.0), ("b", 0.5, 0.3), ("c", -0.4, 0.6))


@pytest.fixture(scope="module")
def sessions():
    return {n: build_session(ScenarioSpec("large", 0, n)) for n in (256, 1024)}


def _digits(configuration):
    return "".join(str(state) for state in configuration)


@pytest.mark.parametrize(("searcher", "elements", "seed", "score", "count"), SEARCHES)
def test_search_golden(sessions, searcher, elements, seed, score, count):
    session = sessions[elements]
    configuration, best, evaluations = search_task(
        session.basis,
        searcher,
        seed,
        session.tx_power_dbm,
        session.noise_figure_db,
        session.mask,
    )
    assert best == score
    assert evaluations == count
    golden = GOLDEN[f"{searcher}-{elements}"]
    assert [_digits(configuration)] == golden["configurations"]


@pytest.mark.parametrize(("strategy", "seed", "score", "count"), JOINTS)
def test_joint_golden(sessions, strategy, seed, score, count):
    session = sessions[256]
    setup = session.setup
    rx0 = setup.rx_device.position
    bases = setup.testbed.bases_for_points(
        setup.tx_device,
        [Point(rx0.x + dx, rx0.y + dy) for _, dx, dy in LINKS],
        setup.rx_device.chains[0].antenna,
    )
    _, configurations, _, aggregate, measurements, _ = joint_task(
        tuple(bases),
        tuple(name for name, _, _ in LINKS),
        (1.0,) * len(LINKS),
        strategy,
        "greedy",
        seed,
        "mean",
        1.0,
        session.tx_power_dbm,
        session.noise_figure_db,
        session.mask,
    )
    assert aggregate == score
    assert measurements == count
    golden = GOLDEN[strategy]
    assert [_digits(c) for c in configurations] == golden["configurations"]
