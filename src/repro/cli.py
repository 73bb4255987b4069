"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    The quickstart scenario: optimise one NLoS link and print before/after.
``scene``
    ASCII floor plan of the §3 study scene.
``figures``
    Regenerate every figure's headline numbers (compact report).
``large-array``
    RFocus-scale sweep: SNR gain vs soundings for the scalable searchers
    on wall-sized element grids (N into the thousands).
``timing``
    Control-plane latency budgets against the §2 coherence times.
``control-robustness``
    Closed-loop sweep of link type x loss probability x mobility speed.
``serve``
    Environment-as-a-service demo: start the in-process asyncio service,
    drive a deterministic mixed workload through the async client, and
    report throughput, batching efficiency, session/cache hit rates and
    rejections.
``top``
    Terminal view of a live ``serve --telemetry`` stream: requests/s,
    batch efficiency, session hit rate, queue depth and per-type latency
    percentiles.
``bench-diff``
    Diff working-tree ``BENCH_*.json`` against their committed versions
    with per-metric tolerances (``--keys-only`` for the CI structural
    check).
``profile-sweep``
    cProfile one Figure-4 configuration sweep.
``report``
    Render run records (JSONL emitted via ``--record``): per-phase
    wall-clock and counter breakdown, schema-validated.
``lint``
    AST-based reproducibility lint.  Per-file rules (RPL001-RPL006)
    cover RNG threading, wall-clock hygiene, ordering determinism,
    frozen constants and observability naming; graph-aware rules
    (RPL101-RPL105) check async/pool concurrency and pickle-boundary
    soundness across the whole project call graph (``--no-graph``
    degrades them to single-file scope).  Exits non-zero on
    non-baselined findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from .analysis.viz import render_profiles
    from .core import ArrayConfiguration, ExhaustiveSearch, PressController, ThroughputObjective
    from .experiments import StudyConfig, build_nlos_setup, used_subcarrier_mask
    from .phy import expected_throughput_mbps

    setup = build_nlos_setup(
        args.placement, StudyConfig(tx_power_dbm=args.tx_power_dbm)
    )
    mask = used_subcarrier_mask()

    def measure(configuration):
        observation = setup.testbed.measure_csi(
            setup.tx_device, setup.rx_device, configuration
        )
        return observation.snr_db[mask]

    baseline_config = ArrayConfiguration(tuple([0] * setup.array.num_elements))
    baseline = measure(baseline_config)
    controller = PressController(setup.array, measure, ThroughputObjective())
    decision = controller.optimize(searcher=ExhaustiveSearch())
    optimised = measure(decision.configuration)
    print(f"placement {args.placement}, TX power {args.tx_power_dbm:.0f} dBm")
    print(
        f"optimised {setup.array.describe(decision.configuration)} in "
        f"{decision.search.num_evaluations} measurements "
        f"({1e3 * decision.elapsed_s:.1f} ms)"
    )
    print(render_profiles([("baseline ", baseline), ("optimised", optimised)]))
    print(
        f"goodput {expected_throughput_mbps(baseline):.1f} -> "
        f"{expected_throughput_mbps(optimised):.1f} Mbps"
    )
    return 0


def _cmd_scene(args: argparse.Namespace) -> int:
    from .analysis.viz import render_scene
    from .experiments import build_nlos_setup

    setup = build_nlos_setup(args.placement)
    markers = {
        "T": setup.tx_device.position,
        "R": setup.rx_device.position,
    }
    for index, element in enumerate(setup.array.elements):
        markers[f"{index}"] = element.position
    print(render_scene(setup.testbed.scene, markers=markers))
    print("# walls   X blocker   o scatterers   T tx   R rx   0-2 elements")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .experiments import (
        run_fig4,
        run_fig5,
        run_fig6,
        run_fig7,
        run_fig8,
        run_los_study,
    )

    rows = [("experiment", "paper", "measured")]
    fig4 = run_fig4(
        num_placements=args.placements,
        repetitions=args.repetitions,
        jobs=args.jobs,
    )
    rows.append(("Fig 4 mean SNR change", "18.6 dB", f"{fig4.largest_mean_change_db:.1f} dB"))
    rows.append(
        ("Fig 4 single-rep change", "26 dB", f"{fig4.largest_single_rep_change_db:.1f} dB")
    )
    fig5 = run_fig5(repetitions=args.repetitions)
    rows.append(("Fig 5 max null shift", "~9 subcarriers", f"{fig5.max_movement} subcarriers"))
    fig6 = run_fig6(repetitions=args.repetitions, jobs=args.jobs)
    rows.append(
        ("Fig 6 pairs w/ 10 dB change", "~38%", f"{100 * fig6.fraction_pairs_10db_change:.0f}%")
    )
    rows.append(
        ("Fig 6 configs below 20 dB", "< 9%", f"{100 * fig6.fraction_configs_below_20db:.0f}%")
    )
    fig7 = run_fig7(jobs=args.jobs)
    rows.append(
        (
            "Fig 7 opposite selectivity",
            "clear and opposite",
            f"{fig7.contrast_a_db:+.1f} / {fig7.contrast_b_db:+.1f} dB",
        )
    )
    fig8 = run_fig8(measurements_per_config=args.mimo_measurements)
    rows.append(("Fig 8 condition-number gap", "1.5 dB", f"{fig8.median_gap_db:.2f} dB"))
    los = run_los_study(repetitions=max(args.repetitions // 2, 2))
    rows.append(("LoS effect", "< 2 dB", f"{los.los_swing_db:.2f} dB"))
    print(format_table(rows, header_rule=True))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .experiments import run_coverage_suite

    seeds = tuple(range(args.placements))
    maps = run_coverage_suite(
        placement_seeds=seeds, jobs=args.jobs, record_to=args.record
    )
    rows = [("placement", "worst base", "worst joint", "<20 dB base", "<20 dB joint")]
    for seed, cov in zip(seeds, maps):
        rows.append(
            (
                str(seed),
                f"{cov.worst_db('baseline'):.1f} dB",
                f"{cov.worst_db('joint'):.1f} dB",
                f"{100 * cov.fraction_below(20.0, 'baseline'):.0f}%",
                f"{100 * cov.fraction_below(20.0, 'joint'):.0f}%",
            )
        )
    print(format_table(rows, header_rule=True))
    return 0


def _cmd_large_array(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .experiments import run_large_array

    result = run_large_array(
        element_counts=tuple(int(x) for x in args.elements.split(",")),
        searchers=tuple(args.searchers.split(",")),
        placement_seed=args.placement,
        base_seed=args.seed,
        jobs=args.jobs,
        record_to=args.record,
    )
    rows = [("elements", "searcher", "baseline", "best", "gain", "soundings")]
    for cell in result.cells:
        rows.append(
            (
                str(cell.num_elements),
                cell.searcher,
                f"{cell.baseline_db:.1f} dB",
                f"{cell.best_db:.1f} dB",
                f"{cell.gain_db:+.1f} dB",
                str(cell.soundings),
            )
        )
    print(format_table(rows, header_rule=True))
    return 0


def _cmd_multi_user(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .experiments import run_multi_user

    result = run_multi_user(
        link_counts=tuple(int(x) for x in args.links.split(",")),
        strategies=tuple(args.strategies.split(",")),
        num_elements=args.elements,
        placement_seed=args.placement,
        searcher=args.searcher,
        aggregate=args.aggregate,
        floor_headroom_db=args.headroom,
        base_seed=args.seed,
        jobs=args.jobs,
        record_to=args.record,
    )
    rows = [("links", "strategy", "aggregate", "worst", "configs", "switches", "soundings")]
    for cell in result.cells:
        rows.append(
            (
                str(cell.num_links),
                cell.strategy,
                f"{cell.aggregate_db:.1f} dB",
                f"{cell.worst_link_db:.1f} dB",
                str(cell.num_distinct_configurations),
                str(cell.num_switches),
                str(cell.num_measurements),
            )
        )
    print(format_table(rows, header_rule=True))
    print()
    rows = [("links", "admitted", "rejected", "reclusters", "rate", "soundings")]
    for point in result.admission:
        rows.append(
            (
                str(point.num_links),
                str(point.admitted),
                str(point.rejected),
                str(point.reclusters),
                f"{100 * point.admission_rate:.0f}%",
                str(point.num_measurements),
            )
        )
    print(format_table(rows, header_rule=True))
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .control import (
        compare_links,
        sub_ghz_ism_link,
        ultrasound_link,
        wifi_inband_link,
        wired_bus_link,
    )

    reports = compare_links(
        [wired_bus_link(), sub_ghz_ism_link(), wifi_inband_link(), ultrasound_link()],
        num_elements=args.elements,
    )
    rows = [("medium", "actuation", "trials @0.5mph", "trials @6mph", "packet-scale")]
    for report in reports:
        rows.append(
            (
                report.link_name,
                f"{report.actuation_s * 1e3:.2f} ms",
                str(report.budget_stationary),
                str(report.budget_running),
                "yes" if report.packet_timescale_capable else "no",
            )
        )
    print(format_table(rows, header_rule=True))
    return 0


def _cmd_control_robustness(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .experiments import run_control_robustness

    result = run_control_robustness(
        links=tuple(args.links.split(",")),
        loss_probabilities=tuple(float(x) for x in args.loss.split(",")),
        speeds_mph=tuple(float(x) for x in args.speeds.split(",")),
        rounds=args.rounds,
        placement_seed=args.placement,
        maintenance_interval=args.maintenance_interval,
        base_seed=args.seed,
        jobs=args.jobs,
        record_to=args.record,
    )
    rows = [
        (
            "link",
            "loss",
            "speed",
            "final SNR",
            "meas",
            "retries",
            "lost",
            "failed",
            "degraded",
            "stale",
        )
    ]
    for cell in result.cells:
        rows.append(
            (
                cell.link_name,
                f"{cell.loss_probability:.2f}",
                f"{cell.speed_mph:g} mph",
                f"{cell.final_score:.1f} dB",
                str(cell.total_measurements),
                str(cell.total_retries),
                str(cell.total_lost_messages),
                str(cell.failed_actuations),
                f"{cell.degraded_rounds}/{cell.rounds}",
                f"{cell.stale_rounds}/{cell.rounds}",
            )
        )
    print(format_table(rows, header_rule=True))
    telemetry = result.telemetry
    print(
        f"# trace cache: {telemetry['trace_cache_hits']} hits, "
        f"{telemetry['trace_cache_misses']} misses, "
        f"{telemetry['trace_cache_entries']} entries "
        f"(merged over {telemetry['processes']} process(es))"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .analysis.reporting import format_table
    from .em import trace_cache
    from .obs import RunRecorder
    from .obs.metrics import monotonic_s
    from .obs.slo import SloPolicy
    from .serve import (
        EnvironmentService,
        ScenarioSpec,
        ServiceConfig,
        mixed_requests,
        run_closed_loop,
    )

    policy = SloPolicy.from_specs(args.slo) if args.slo else None
    scenarios = [
        ScenarioSpec(kind="nlos", placement=p) for p in range(args.scenarios)
    ]
    requests = mixed_requests(
        scenarios, args.requests, seed=args.seed, skew=args.skew
    )
    config = ServiceConfig(
        batch_window_s=args.window,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        session_capacity=args.session_capacity,
        search_jobs=args.search_jobs,
        trace_sample=args.trace_sample,
        telemetry_path=args.telemetry,
        telemetry_interval_s=args.telemetry_interval,
    )
    cache = trace_cache.configure()
    timer = monotonic_s if policy is not None else None

    async def drive():
        async with EnvironmentService(config) as service:
            load = await run_closed_loop(
                service.submit, requests, args.concurrency, timer=timer
            )
            return service, load

    with RunRecorder(
        "serve_demo",
        config={
            "requests": args.requests,
            "concurrency": args.concurrency,
            "scenarios": args.scenarios,
            "batch_window_s": config.batch_window_s,
            "max_batch": config.max_batch,
            "max_pending": config.max_pending,
            "session_capacity": config.session_capacity,
            "trace_sample": config.trace_sample,
            "skew": args.skew,
        },
        path=args.record,
        seeds={"workload": args.seed},
    ) as recorder:
        service, load = asyncio.run(drive())
        recorder.add_request_traces(service.drain_request_traces())
    record = recorder.record
    wall_s = record["wall_s"] if record else float("nan")
    counters = record["metrics"]["counters"] if record else {}
    batches = counters.get("serve.batches", 0)
    batched = counters.get("serve.batched_requests", 0)
    session_lookups = service.session_hits + service.session_misses
    cache_lookups = cache.hits + cache.misses

    rows = [("metric", "value")]
    rows.append(("requests", str(len(requests))))
    rows.append(("completed", str(load.completed)))
    rows.append(("rejected", str(load.rejected)))
    rows.append(("failed", str(load.failed)))
    rows.append(("wall", f"{wall_s:.2f} s"))
    rows.append(("throughput", f"{load.completed / wall_s:.1f} req/s"))
    rows.append(("batches", str(batches)))
    rows.append(
        ("batching efficiency", f"{batched / max(batches, 1):.1f} req/batch")
    )
    rows.append(
        (
            "session hit rate",
            f"{service.session_hits / max(session_lookups, 1):.2f} "
            f"({service.sessions} hot, {service.session_evictions} evicted)",
        )
    )
    rows.append(
        (
            "trace cache hit rate",
            f"{cache.hit_rate:.2f} ({cache_lookups} lookups)",
        )
    )
    print(format_table(rows, header_rule=True))
    violated = False
    if policy is not None:
        print()
        for status in load.evaluate_slo(policy):
            print(f"slo {status.describe()}")
            violated = violated or not status.ok
    if violated:
        print("error: SLO violation(s), see above", file=sys.stderr)
        return 1
    if args.fail_on_rejections and load.rejected:
        print(
            f"error: {load.rejected} rejection(s) under max_pending="
            f"{config.max_pending}",
            file=sys.stderr,
        )
        return 1
    if load.failed:
        print(f"error: {load.failed} failed request(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .analysis.reporting import format_table
    from .obs.export import derive_rates, read_telemetry

    def render() -> bool:
        samples = read_telemetry(args.path)
        if not samples:
            print(f"no telemetry samples in {args.path!r} yet", file=sys.stderr)
            return False
        current = samples[-1]
        previous = samples[-2] if len(samples) > 1 else None
        rates = derive_rates(previous, current)
        rows = [("metric", "value")]
        rows.append(
            (
                "sample",
                f"#{current.get('seq', len(samples) - 1)} "
                f"@ {float(current.get('uptime_s', 0.0)):.2f}s uptime",
            )
        )
        rows.append(("requests/s", f"{rates['requests_per_s']:.1f}"))
        rows.append(("rejections/s", f"{rates['rejections_per_s']:.1f}"))
        rows.append(
            ("batch efficiency", f"{rates['batch_efficiency']:.1f} req/batch")
        )
        rows.append(("session hit rate", f"{rates['session_hit_rate']:.2f}"))
        rows.append(("queue depth", f"{rates['queue_depth']:.0f}"))
        rows.append(("hot sessions", f"{rates['sessions']:.0f}"))

        def fmt(value) -> str:
            return "n/a" if value is None else f"{float(value) * 1e3:.2f} ms"

        for name, digest in sorted(current.get("histograms", {}).items()):
            if not name.endswith(".request_latency_s"):
                continue
            kind = name.split(".")[1]
            rows.append(
                (
                    f"{kind} p50/p95/p99",
                    f"{fmt(digest.get('p50'))} / {fmt(digest.get('p95'))} / "
                    f"{fmt(digest.get('p99'))} ({digest.get('count', 0)} reqs)",
                )
            )
        print(format_table(rows, header_rule=True))
        return True

    if not args.follow:
        return 0 if render() else 1
    try:
        while True:
            print(f"--- repro top: {args.path} ---")
            render()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from .analysis.bench_diff import diff_against_git, parse_metric_tolerances

    try:
        overrides = parse_metric_tolerances(args.metric_tolerance)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    findings, compared, skipped = diff_against_git(
        root=args.root,
        ref=args.ref,
        files=args.files or None,
        tolerance=args.tolerance,
        metric_tolerances=overrides,
        keys_only=args.keys_only,
    )
    for name in skipped:
        print(f"skipped {name} (no baseline at {args.ref} or unreadable)")
    mode = "keys" if args.keys_only else f"tolerance {args.tolerance:.0%}"
    print(
        f"compared {len(compared)} benchmark file(s) against {args.ref} ({mode})"
    )
    for finding in findings:
        print(finding.describe())
    if findings:
        print(f"error: {len(findings)} benchmark drift finding(s)", file=sys.stderr)
        return 1
    if not compared and not args.allow_empty:
        print("error: no benchmark files compared", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .obs import read_records, validate_record

    try:
        records = read_records(args.records)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not records:
        print(f"error: {args.records}: no records", file=sys.stderr)
        return 1
    exit_code = 0
    for index, record in enumerate(records):
        problems = validate_record(record)
        if problems:
            exit_code = 1
            print(f"record {index}: INVALID", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            continue
        meta = record["meta"]
        print(
            f"== {record['experiment']}  "
            f"wall {record['wall_s']:.2f} s  "
            f"jobs {record['jobs'] if record['jobs'] is not None else 'serial'}  "
            f"workers {record['workers']}  "
            f"git {meta.get('git') or '?'}  "
            f"obs {'on' if record.get('observability_enabled') else 'off'}"
        )
        spans = record["spans"]
        if spans:
            rows = [("phase", "count", "total", "mean", "max")]
            ordered = sorted(
                spans.items(), key=lambda item: item[1]["total_s"], reverse=True
            )
            for name, summary in ordered:
                count = summary["count"]
                total = summary["total_s"]
                mean = total / count if count else 0.0
                rows.append(
                    (
                        name,
                        str(count),
                        f"{1e3 * total:.1f} ms",
                        f"{1e3 * mean:.2f} ms",
                        f"{1e3 * summary['max_s']:.1f} ms",
                    )
                )
            print(format_table(rows, header_rule=True))
        counters = record["metrics"]["counters"]
        nonzero = [(name, value) for name, value in counters.items() if value]
        if nonzero:
            rows = [("counter", "total")]
            for name, value in sorted(nonzero):
                rows.append((name, str(value)))
            print(format_table(rows, header_rule=True))
        gauges = record["metrics"]["gauges"]
        nonzero_gauges = sorted(
            (name, value) for name, value in gauges.items() if value
        )
        if nonzero_gauges:
            print(
                "gauges: "
                + ", ".join(f"{name}={value:g}" for name, value in nonzero_gauges)
            )
        histograms = record["metrics"]["histograms"]
        observed = {
            name: state
            for name, state in sorted(histograms.items())
            if state["count"]
        }
        if observed:
            rows = [("histogram", "count", "mean", "min", "max")]
            for name, state in observed.items():
                mean = state["sum"] / state["count"]
                rows.append(
                    (
                        name,
                        str(state["count"]),
                        f"{mean:.3g} s",
                        f"{state['min']:.3g} s",
                        f"{state['max']:.3g} s",
                    )
                )
            print(format_table(rows, header_rule=True))
        print()
    return exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.baseline import (
        apply_baseline,
        load_baseline,
        prune_baseline,
        save_baseline,
        stale_entries,
    )
    from .analysis.linter import lint_project
    from .analysis.report import render_json, render_stats, render_text

    paths = args.paths or ["src", "benchmarks"]
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        run = lint_project(paths, graph=args.graph, select=select, ignore=ignore)
    except (FileNotFoundError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    findings, files_checked = run.findings, run.files_checked
    if args.update_baseline:
        save_baseline(args.baseline, findings)
        print(
            f"baseline {args.baseline}: recorded {len(findings)} finding(s) "
            f"from {files_checked} file(s)"
        )
        return 0
    try:
        baseline = load_baseline(args.baseline)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.prune_baseline:
        dropped = prune_baseline(args.baseline, findings, baseline)
        print(f"baseline {args.baseline}: pruned {dropped} stale entr(y/ies)")
        return 0
    fresh, baselined = apply_baseline(findings, baseline)
    stale = stale_entries(findings, baseline)
    if args.format == "json":
        print(
            render_json(
                fresh,
                files_checked,
                baselined,
                str(args.baseline),
                costs=run.costs,
            )
        )
    else:
        print(render_text(fresh, files_checked, baselined))
    if stale:
        total = sum(stale.values())
        print(
            f"warning: {total} stale baseline entr(y/ies) in {args.baseline} "
            "no longer match any finding; run --prune-baseline",
            file=sys.stderr,
        )
    if args.stats:
        print(render_stats(run.costs))
    if fresh:
        return 1
    if stale and args.strict:
        return 1
    return 0


def _cmd_profile_sweep(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from .experiments import StudyConfig, build_nlos_setup

    setup = build_nlos_setup(args.placement, StudyConfig())
    testbed = setup.testbed
    # Warm the caches outside the profile so the report shows steady-state
    # sweep cost, not one-off tracing (pass --cold to include it).
    if not args.cold:
        testbed.basis_for(setup.tx_device, setup.rx_device)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    profiler = cProfile.Profile()
    profiler.enable()
    testbed.sweep(
        setup.tx_device,
        setup.rx_device,
        repetitions=args.repetitions,
        rng=rng,
    )
    profiler.disable()
    space = testbed.array.configuration_space()
    print(
        f"one Fig. 4 sweep: {testbed.array.num_elements} elements, "
        f"{space.size} configurations, {args.repetitions} repetitions"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, else a one-line usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRESS (HotNets 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="optimise one NLoS link")
    demo.add_argument("--placement", type=int, default=2)
    demo.add_argument("--tx-power-dbm", type=float, default=5.0)
    demo.set_defaults(func=_cmd_demo)

    scene = sub.add_parser("scene", help="ASCII floor plan of the study scene")
    scene.add_argument("--placement", type=int, default=2)
    scene.set_defaults(func=_cmd_scene)

    figures = sub.add_parser("figures", help="compact paper-vs-measured report")
    figures.add_argument("--placements", type=_positive_int, default=8)
    figures.add_argument("--repetitions", type=_positive_int, default=10)
    figures.add_argument("--mimo-measurements", type=_positive_int, default=50)
    figures.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for parallel experiment axes "
        "(default: serial; 0 = all CPUs)",
    )
    figures.set_defaults(func=_cmd_figures)

    coverage = sub.add_parser("coverage", help="dead-zone coverage maps")
    coverage.add_argument("--placements", type=_positive_int, default=4)
    coverage.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the placement axis "
        "(default: serial; 0 = all CPUs)",
    )
    coverage.add_argument(
        "--record",
        default=None,
        metavar="JSONL",
        help="append a run record to this JSONL file",
    )
    coverage.set_defaults(func=_cmd_coverage)

    large_array = sub.add_parser(
        "large-array",
        help="RFocus-scale search: SNR gain vs soundings on wall-sized arrays",
    )
    large_array.add_argument(
        "--elements",
        default="64,256,1024",
        help="comma-separated element counts to sweep",
    )
    large_array.add_argument(
        "--searchers",
        default="greedy,rfocus",
        help="comma-separated searcher names (greedy, rfocus, random)",
    )
    large_array.add_argument("--placement", type=int, default=0)
    large_array.add_argument(
        "--seed", type=int, default=0, help="base searcher seed"
    )
    large_array.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the (elements x searcher) cell axis "
        "(default: serial; 0 = all CPUs)",
    )
    large_array.add_argument(
        "--record",
        default=None,
        metavar="JSONL",
        help="append a run record to this JSONL file",
    )
    large_array.set_defaults(func=_cmd_large_array)

    multi_user = sub.add_parser(
        "multi-user",
        help="multi-tenant strategies and admission on one shared array",
    )
    multi_user.add_argument(
        "--links",
        default="2,4,8",
        help="comma-separated concurrent-user counts to sweep",
    )
    multi_user.add_argument(
        "--strategies",
        default="per-link,hybrid,joint",
        help="comma-separated strategies (per-link, hybrid, joint)",
    )
    multi_user.add_argument(
        "--elements", type=_positive_int, default=256, help="array element count"
    )
    multi_user.add_argument(
        "--searcher",
        default="greedy",
        help="searcher name (greedy, rfocus, random)",
    )
    multi_user.add_argument(
        "--aggregate",
        default="mean",
        help="joint scoring mode (mean, worst, lexicographic)",
    )
    multi_user.add_argument(
        "--headroom",
        type=float,
        default=3.0,
        help="admission floor = solo optimum minus this headroom [dB]",
    )
    multi_user.add_argument("--placement", type=int, default=0)
    multi_user.add_argument(
        "--seed", type=int, default=0, help="base searcher seed"
    )
    multi_user.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for each sweep's cell axis "
        "(default: serial; 0 = all CPUs)",
    )
    multi_user.add_argument(
        "--record",
        default=None,
        metavar="JSONL",
        help="append a run record to this JSONL file",
    )
    multi_user.set_defaults(func=_cmd_multi_user)

    timing = sub.add_parser("timing", help="control-plane latency budgets")
    timing.add_argument("--elements", type=_positive_int, default=16)
    timing.set_defaults(func=_cmd_timing)

    robustness = sub.add_parser(
        "control-robustness",
        help="closed-loop link x loss x mobility sweep",
    )
    robustness.add_argument(
        "--links",
        default="wired,sub-ghz,wifi,ultrasound",
        help="comma-separated control media",
    )
    robustness.add_argument(
        "--loss",
        default="0.0,0.05,0.2",
        help="comma-separated per-message loss probabilities",
    )
    robustness.add_argument(
        "--speeds",
        default="0.5,6.0",
        help="comma-separated mobility speeds [mph]",
    )
    robustness.add_argument("--rounds", type=_positive_int, default=3)
    robustness.add_argument("--placement", type=int, default=2)
    robustness.add_argument(
        "--maintenance-interval",
        type=int,
        default=2,
        help="rounds between fault-detection sweeps (0 = off)",
    )
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweep cells "
        "(default: serial; 0 = all CPUs)",
    )
    robustness.add_argument(
        "--record",
        default=None,
        metavar="JSONL",
        help="append a run record to this JSONL file",
    )
    robustness.set_defaults(func=_cmd_control_robustness)

    serve = sub.add_parser(
        "serve",
        help="environment-as-a-service demo: batched async serving + load",
    )
    serve.add_argument(
        "--requests", type=int, default=200, help="workload size"
    )
    serve.add_argument(
        "--concurrency", type=int, default=32, help="closed-loop clients"
    )
    serve.add_argument(
        "--scenarios",
        type=int,
        default=3,
        help="distinct NLoS placements in the workload",
    )
    serve.add_argument(
        "--skew",
        type=float,
        default=1.0,
        help="scenario popularity skew (0 = uniform, higher = hotter head)",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=0.0,
        metavar="S",
        help="micro-batch coalescing window in seconds",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="backpressure threshold (queued requests before rejection)",
    )
    serve.add_argument("--session-capacity", type=int, default=8)
    serve.add_argument(
        "--search-jobs",
        type=int,
        default=None,
        help="worker processes for search requests "
        "(default: inline; 0 = all CPUs)",
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=16,
        metavar="N",
        help="trace every Nth request (default: %(default)s; 1 = all, "
        "0 = latency only; explicitly bound request ids are always "
        "traced)",
    )
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument(
        "--record",
        default=None,
        metavar="JSONL",
        help="append a run record to this JSONL file",
    )
    serve.add_argument(
        "--fail-on-rejections",
        action="store_true",
        help="exit non-zero if any request was shed (CI smoke mode)",
    )
    serve.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="enforce an SLO on the load run and exit non-zero on "
        "violation; repeatable; e.g. 'p95:evaluate<0.05' or "
        "'rate:serve.rejections/serve.requests<0.01'",
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        metavar="JSONL",
        help="stream live telemetry samples to this file (tail with "
        "'repro top')",
    )
    serve.add_argument(
        "--telemetry-interval",
        type=float,
        default=0.25,
        metavar="S",
        help="telemetry sampling cadence in seconds",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="render live serving telemetry from a --telemetry stream",
    )
    top.add_argument("path", help="telemetry JSONL file to read")
    top.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep re-rendering as new samples arrive (Ctrl-C to stop)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="re-render cadence in follow mode",
    )
    top.set_defaults(func=_cmd_top)

    bench_diff = sub.add_parser(
        "bench-diff",
        help="diff working-tree BENCH_*.json against committed baselines",
    )
    bench_diff.add_argument(
        "files",
        nargs="*",
        help="benchmark files to diff (default: BENCH_*.json under --root)",
    )
    bench_diff.add_argument(
        "--root", default=".", help="repository root holding the BENCH files"
    )
    bench_diff.add_argument(
        "--ref", default="HEAD", help="git ref providing the baselines"
    )
    bench_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        metavar="REL",
        help="relative drift tolerance for numeric metrics",
    )
    bench_diff.add_argument(
        "--metric-tolerance",
        action="append",
        default=[],
        metavar="PATTERN=REL",
        help="per-metric tolerance override (fnmatch on flattened keys); "
        "repeatable",
    )
    bench_diff.add_argument(
        "--keys-only",
        action="store_true",
        help="check structure only (CI mode: numbers are machine-dependent)",
    )
    bench_diff.add_argument(
        "--allow-empty",
        action="store_true",
        help="exit 0 even when no benchmark files could be compared",
    )
    bench_diff.set_defaults(func=_cmd_bench_diff)

    report = sub.add_parser(
        "report", help="render run records emitted via --record"
    )
    report.add_argument("records", help="path to a run-record JSONL file")
    report.set_defaults(func=_cmd_report)

    lint = sub.add_parser(
        "lint", help="AST-based reproducibility invariant checks"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src benchmarks)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format"
    )
    lint.add_argument(
        "--baseline",
        default=".reprolint-baseline.json",
        help="grandfathered-findings file (missing = empty)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline entries no current finding consumes, then exit 0",
    )
    lint.add_argument(
        "--graph",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "run whole-program RPL1xx rules over the project call graph "
            "(--no-graph degrades them to single-file scope)"
        ),
    )
    lint.add_argument(
        "--select",
        help="comma-separated rule ids to run exclusively (e.g. RPL101,RPL104)",
    )
    lint.add_argument(
        "--ignore",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail (exit 1) on stale baseline entries",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print the per-rule cost table after the report",
    )
    lint.set_defaults(func=_cmd_lint)

    profile = sub.add_parser(
        "profile-sweep", help="cProfile one Fig. 4 configuration sweep"
    )
    profile.add_argument("--placement", type=int, default=2)
    profile.add_argument("--repetitions", type=_positive_int, default=10)
    profile.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed measurement noise/drift (default: exact channel)",
    )
    profile.add_argument(
        "--cold",
        action="store_true",
        help="include first-trace cache warm-up in the profile",
    )
    profile.set_defaults(func=_cmd_profile_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
