"""End-to-end benchmark of the PRESS reproduction (see BENCHMARK.json).

Run from the repository root::

    python3 pressbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's public functions
and prints the per-layer metrics and the self-time table.  The machine
fingerprint, details and one line per metric come first; the last line
of stdout is the JSON result.  A failed output check sets ``"correct":
false`` and exits 1.  Without the package source (``src/repro``) in the
working directory it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("interactive", "solve", "figures")
MAX_FAILURES_SHOWN = 20
#: What a ``--trace 0`` run prints; ``--trace 1`` prints ``layers.PER_LAYER``.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("score_db_mean", "dB"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {source}/repro; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The workloads run serially; one BLAS thread keeps numpy from
    # competing with the load generator on a small host.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

    from pressbench.common import Outcome, fingerprint, log, peak_rss_mb

    machine = fingerprint(args.workload, args.seed, args.seconds, bool(args.trace))
    log("# machine " + json.dumps(machine))
    outcome = Outcome()
    trace = bool(args.trace)
    if args.workload == "interactive":
        from pressbench.interactive import Interactive

        Interactive(args.seed, args.seconds, outcome).run(trace)
    elif args.workload == "solve":
        from pressbench.solve import Solve

        Solve(args.seed, args.seconds, outcome).run(trace)
    else:
        from pressbench.figures import Figures

        Figures(args.seed, args.seconds, outcome).run(trace)
    if not trace:
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")

    from pressbench.layers import PER_LAYER

    expected = PER_LAYER if trace else END_TO_END
    metrics = {name: outcome.metrics[name] for name, _ in expected if name in outcome.metrics}
    outcome.check(
        [(name, unit) for name, (_, unit) in metrics.items()] == list(expected),
        "the run did not produce every metric of its mode",
    )
    for name, value in outcome.details.items():
        log(f"# detail {name} = {json.dumps(value)}")
    for failure in outcome.check_failures[:MAX_FAILURES_SHOWN]:
        log(f"# CHECK FAILED: {failure}")
    if len(outcome.check_failures) > MAX_FAILURES_SHOWN:
        log(f"# ... {len(outcome.check_failures) - MAX_FAILURES_SHOWN} more failed checks")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
