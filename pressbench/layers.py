"""Per-layer attribution for traced runs, from the benchmark's own files.

The program is not instrumented for this: a traced run patches the
public functions of each layer (listed in :data:`TARGETS`) with timing
wrappers for the length of one traced segment and restores them after.
The wrappers keep one stack of open spans, so each span's *self* time is
its duration minus the time of the spans it encloses.  Every instant of
a segment is therefore counted once: in the self time of the innermost
open span, or, with no span open, in the explicit ``other`` bucket.  The
sum of all self times plus ``other`` must come back to the segment's
wall clock; :func:`attribution_ok` checks that it does.

Only code that cannot be interleaved is wrapped (plain functions and
methods, no coroutines), so the single stack stays correct even under
the asyncio service.  A target that no longer exists is skipped with a
note, so a refactor of the program makes a layer read zero rather than
break the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict

from repro.obs.metrics import global_registry

from .common import log, now

#: (module, attribute path, span name).  The span name's prefix up to the
#: last dot-separated part that appears in LAYERS is its layer.
TARGETS = (
    ("repro.em.raytracer", "RayTracer.trace", "em.raytracer.trace"),
    ("repro.em.raytracer", "RayTracer.trace_batch", "em.raytracer.trace_batch"),
    ("repro.em.raytracer", "RayTracer.relay_path", "em.raytracer.relay_path"),
    ("repro.em.raytracer", "RayTracer.relay_geometry_batch", "em.raytracer.relay_geometry_batch"),
    ("repro.em.raytracer", "RayTracer.relay_column", "em.raytracer.relay_column"),
    ("repro.em.trace_cache", "TraceCache.get_or_trace", "em.trace_cache.get_or_trace"),
    ("repro.em.trace_cache", "TraceCache.get_or_trace_batch", "em.trace_cache.get_or_trace_batch"),
    ("repro.core.basis", "ChannelBasis.trace", "core.basis.trace"),
    ("repro.core.basis", "ChannelBasis.trace_batch", "core.basis.trace"),
    ("repro.core.basis", "ChannelBasis.trace_chunked", "core.basis.trace"),
    ("repro.core.basis", "ChannelBasis.evaluate", "core.basis.evaluate"),
    ("repro.core.basis", "ChannelBasis.cfr", "core.basis.cfr"),
    ("repro.core.basis", "DeltaEvaluator.flip", "core.basis.flip"),
    ("repro.core.basis", "DeltaEvaluator.flip_many", "core.basis.flip_many"),
    ("repro.core.basis", "DeltaEvaluator.scores_for_element", "core.basis.scores_for_element"),
    ("repro.core.basis", "DeltaEvaluator.configuration", "core.basis.configuration"),
    ("repro.core.basis", "MultiLinkDeltaEvaluator.flip", "core.basis.multilink_flip"),
    ("repro.core.basis", "MultiLinkDeltaEvaluator.flip_many", "core.basis.multilink_flip_many"),
    ("repro.core.basis", "MultiLinkDeltaEvaluator.scores_for_element", "core.basis.scores_for_element"),
    ("repro.core.basis", "MultiLinkDeltaEvaluator.configuration", "core.basis.configuration"),
    ("repro.core.search", "Searcher.search", "core.search.search"),
    ("repro.core.search", "Searcher.search_basis", "core.search.search_basis"),
    ("repro.core.search", "GreedyCoordinateDescent.run", "core.search.greedy"),
    ("repro.core.search", "GreedyCoordinateDescent.run_delta", "core.search.greedy"),
    ("repro.core.search", "RFocusMajoritySearch.run", "core.search.rfocus"),
    ("repro.core.search", "RFocusMajoritySearch.run_delta", "core.search.rfocus"),
    ("repro.core.search", "ExhaustiveSearch.run", "core.search.exhaustive"),
    ("repro.core.joint", "optimize_joint", "core.joint.optimize_joint"),
    ("repro.core.joint", "optimize_hybrid", "core.joint.optimize_hybrid"),
    ("repro.core.joint", "optimize_per_link", "core.joint.optimize_per_link"),
    ("repro.sdr.testbed", "sweep_basis_snr", "sdr.testbed.sweep"),
    ("repro.sdr.testbed", "Testbed.sweep", "sdr.testbed.sweep"),
    ("repro.sdr.testbed", "Testbed.mimo_matrices", "sdr.testbed.mimo_matrices"),
    ("repro.sdr.testbed", "Testbed.measure_csi", "sdr.testbed.measure_csi"),
    ("repro.sdr.testbed", "Testbed.basis_for", "sdr.testbed.basis_for"),
    ("repro.sdr.testbed", "Testbed.bases_for_points", "sdr.testbed.bases_for_points"),
    ("repro.mimo.channel_matrix", "condition_numbers_db", "mimo.condition_numbers"),
    ("repro.mimo.channel_matrix", "condition_number_db", "mimo.condition_numbers"),
    ("repro.control.protocol", "ControlPlane.actuate", "control.protocol.actuate"),
    ("repro.experiments.fig4_link_enhancement", "run_fig4", "experiments.fig4"),
    ("repro.experiments.fig5_null_movement", "run_fig5", "experiments.fig5"),
    ("repro.experiments.fig6_snr_ccdf", "run_fig6", "experiments.fig6"),
    ("repro.experiments.fig7_harmonization", "run_fig7", "experiments.fig7"),
    ("repro.experiments.fig8_mimo", "run_fig8", "experiments.fig8"),
    ("repro.experiments.los_study", "run_los_study", "experiments.los"),
    ("repro.experiments.control_robustness", "run_control_robustness", "experiments.robustness"),
    ("repro.serve.scenarios", "build_session", "serve.session_build"),
    ("repro.serve.scenarios", "ScenarioSession.validate_rows", "serve.scenarios.validate_rows"),
    ("repro.serve.scenarios", "ScenarioSession.snr_rows", "serve.scenarios.snr_rows"),
    ("repro.serve.scenarios", "ScenarioSession.mean_used_snr", "serve.scenarios.mean_used_snr"),
)

#: Layers, most specific first; a span belongs to the first that prefixes it.
LAYERS = (
    "em.raytracer",
    "em.trace_cache",
    "core.basis",
    "core.search",
    "core.joint",
    "sdr.testbed",
    "mimo",
    "control.protocol",
    "experiments",
    "serve",
    "loadgen",
    "idle",
)

#: A single-link flip made on behalf of a multi-link flip is a part of
#: that flip's cost, not a top-level single-link flip.
_NESTED_RENAMES = {
    ("core.basis.multilink_flip", "core.basis.flip"): "core.basis.link_flip",
    ("core.basis.multilink_flip_many", "core.basis.flip_many"): "core.basis.link_flip_many",
}


def layer_of(span: str) -> str:
    for layer in LAYERS:
        if span == layer or span.startswith(layer + "."):
            return layer
    return span


class Tracer:
    """Self-time accounting over a stack of open spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.other_s = 0.0
        self.wall_s = 0.0
        self.segments = 0
        self.unbalanced = 0
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._root_since = 0.0
        self._segment_start = 0.0
        self.active = False

    # -- segments -------------------------------------------------------
    def begin_segment(self) -> None:
        self._stack.clear()
        self._segment_start = self._root_since = now()
        self.active = True

    def end_segment(self) -> None:
        t = now()
        self.active = False
        if self._stack:
            self.unbalanced += len(self._stack)
            self._stack.clear()
        else:
            self.other_s += t - self._root_since
        self.wall_s += t - self._segment_start
        self.segments += 1

    # -- spans ----------------------------------------------------------
    def enter(self, name: str) -> None:
        t = now()
        stack = self._stack
        if stack:
            name = _NESTED_RENAMES.get((stack[-1][0], name), name)
        else:
            self.other_s += t - self._root_since
        stack.append([name, t, 0.0])

    def exit(self) -> None:
        t = now()
        stack = self._stack
        if not stack:
            self.unbalanced += 1
            return
        name, start, children = stack.pop()
        duration = t - start
        self.self_s[name] += duration - children
        self.incl_s[name] += duration
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        else:
            self._root_since = t

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # -- results --------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[layer_of(name)] += seconds
        return dict(totals)

    def attributed_frac(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return (sum(self.self_s.values()) + self.other_s) / self.wall_s

    def table(self) -> str:
        """Per-span self time, largest first, with per-layer totals."""
        wall = self.wall_s or 1.0
        lines = [f"{'span':44s} {'layer':18s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
        for name, seconds in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            if not self.calls[name]:
                continue
            lines.append(
                f"{name:44s} {layer_of(name):18s} {self.calls[name]:9d} "
                f"{seconds:10.4f} {seconds / wall:7.1%}"
            )
        lines.append(f"{'other (no span open)':44s} {'':18s} {'':>9s} {self.other_s:10.4f} {self.other_s / wall:7.1%}")
        lines.append("-- per layer --")
        for layer, seconds in sorted(self.layer_self_s().items(), key=lambda kv: -kv[1]):
            if not seconds:
                continue
            lines.append(f"{layer:44s} {'':18s} {'':>9s} {seconds:10.4f} {seconds / wall:7.1%}")
        lines.append(
            f"{'traced wall clock':44s} {'':18s} {self.segments:9d} {self.wall_s:10.4f} "
            f"{self.attributed_frac():7.1%} attributed"
        )
        return "\n".join(lines)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        if self.tracer.active:
            self.tracer.enter(self.name)

    def __exit__(self, *exc) -> None:
        if self.tracer.active:
            self.tracer.exit()


#: The most self time a traced segment may leave unaccounted for.
ATTRIBUTION_TOLERANCE = 0.01


def attribution_ok(tracer: Tracer) -> bool:
    return tracer.unbalanced == 0 and abs(tracer.attributed_frac() - 1.0) <= ATTRIBUTION_TOLERANCE


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _timed(fn, tracer: Tracer, name: str):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


class Patches:
    """Functions replaced by ``wrap(function, name)``; :meth:`restore` undoes it.

    ``targets`` are ``(module, attribute path, name)`` triples as in
    :data:`TARGETS`.  Missing targets are listed in :attr:`missing`.
    """

    def __init__(self, targets, wrap) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        for module_name, path, name in targets:
            self._patch(wrap, module_name, path, name)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, wrap, module_name: str, path: str, name: str) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{path}")
            return
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(wrap(raw.__func__, name)))
        elif isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(wrap(raw.__func__, name)))
        elif isinstance(raw, property):
            self._set(owner, attr, property(wrap(raw.fget, name), raw.fset, raw.fdel, raw.__doc__))
        elif owners:
            self._set(owner, attr, wrap(raw, name))
        else:
            # A module-level function is also bound, by ``from`` imports,
            # in every module that uses it: rebind it there too.
            wrapped = wrap(raw, name)
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if namespace is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(namespace.items()):
                    if value is raw:
                        self._set(mod, key, wrapped)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


@contextlib.contextmanager
def tracing(tracer: Tracer, counters: dict):
    """One traced segment: every layer wrapped while the block runs.

    The program's own counter increments over the segment are added to
    ``counters``.
    """
    patches = Patches(TARGETS, lambda fn, name: _timed(fn, tracer, name))
    for target in set(patches.missing) - tracer.missing:
        tracer.missing.add(target)
        log(f"# trace target not found, its layer reads 0: {target}")
    before = global_registry().snapshot()
    tracer.begin_segment()
    try:
        yield
    finally:
        tracer.end_segment()
        patches.restore()
        for name, value in global_registry().snapshot().delta(before).counters.items():
            counters[name] = counters.get(name, 0) + value


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric a traced run prints, with its unit.  Times and
#: counts are per traced segment (one pass, one round, or one second of
#: requests); failure counts are totals over the traced segments.
PER_LAYER = (
    ("em.raytracer.self_s", "s"),
    ("em.raytracer.points", "count"),
    ("em.trace_cache.hit_rate", "ratio"),
    ("core.basis.trace_s", "s"),
    ("core.basis.evaluate_s", "s"),
    ("core.basis.evaluate_calls", "count"),
    ("core.basis.rows_per_evaluate", "count"),
    ("core.basis.cfr_s", "s"),
    ("core.basis.cfr_calls", "count"),
    ("core.basis.flip_us", "us"),
    ("core.basis.flips", "count"),
    ("core.basis.multilink_flip_ratio", "ratio"),
    ("core.basis.configuration_calls", "count"),
    ("core.basis.configuration_s", "s"),
    ("core.basis.scores_for_element_s", "s"),
    ("core.search.self_s", "s"),
    ("core.search.soundings_per_solve", "count"),
    ("core.search.rounds", "count"),
    ("core.joint.self_s", "s"),
    ("core.joint.measurements_per_solve", "count"),
    ("sdr.testbed.sweep_s", "s"),
    ("sdr.testbed.mimo_matrices_s", "s"),
    ("sdr.testbed.mimo_matrices_share", "ratio"),
    ("mimo.condition_numbers_s", "s"),
    ("control.protocol.actuate_s", "s"),
    ("control.protocol.retries", "count"),
    ("control.protocol.lost_commands", "count"),
    ("experiments.fig4_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig7_s", "s"),
    ("experiments.fig8_s", "s"),
    ("experiments.los_s", "s"),
    ("experiments.robustness_s", "s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.self_s", "s"),
    ("serve.loop_idle_frac", "ratio"),
    ("serve.scenarios.validate_rows_s", "s"),
    ("serve.scenarios.snr_rows_s", "s"),
    ("serve.scenarios.mean_used_snr_s", "s"),
    ("serve.rejections", "count"),
    ("serve.errors", "count"),
    ("serve.session_misses", "count"),
    ("loadgen.late_ms_p90", "ms"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report(outcome, tracer: Tracer, counters: dict, extra: dict) -> None:
    """Fill ``outcome`` with every per-layer metric and check attribution.

    ``counters`` holds the program's own counter increments over the
    traced segments; ``extra`` the workload-specific values (queue wait,
    soundings per solve, overhead, ...).  Metrics a workload does not
    reach read 0.
    """
    n = max(tracer.segments, 1)
    self_s, incl_s, calls = tracer.self_s, tracer.incl_s, tracer.calls
    layer = tracer.layer_self_s()
    count = counters.get
    hits = count("em.trace_cache.hits", 0) + count("em.trace_cache.batch_hits", 0)
    misses = count("em.trace_cache.misses", 0) + count("em.trace_cache.batch_misses", 0)
    flip_calls = calls["core.basis.flip"] + calls["core.basis.flip_many"]
    flip_incl = incl_s["core.basis.flip"] + incl_s["core.basis.flip_many"]
    single_flip = _ratio(incl_s["core.basis.flip"], calls["core.basis.flip"])
    multi_flip = _ratio(incl_s["core.basis.multilink_flip"], calls["core.basis.multilink_flip"])
    values = {
        "em.raytracer.self_s": layer.get("em.raytracer", 0.0) / n,
        "em.raytracer.points": (count("em.raytracer.traces", 0) + count("em.raytracer.batch_points", 0)) / n,
        "em.trace_cache.hit_rate": _ratio(hits, hits + misses),
        "core.basis.trace_s": self_s["core.basis.trace"] / n,
        "core.basis.evaluate_s": self_s["core.basis.evaluate"] / n,
        "core.basis.evaluate_calls": calls["core.basis.evaluate"] / n,
        "core.basis.rows_per_evaluate": _ratio(
            count("core.basis.configurations_evaluated", 0), count("core.basis.evaluations", 0)
        ),
        "core.basis.cfr_s": self_s["core.basis.cfr"] / n,
        "core.basis.cfr_calls": calls["core.basis.cfr"] / n,
        "core.basis.flip_us": 1e6 * _ratio(flip_incl, flip_calls),
        "core.basis.flips": flip_calls / n,
        "core.basis.multilink_flip_ratio": _ratio(multi_flip, single_flip),
        "core.basis.configuration_calls": calls["core.basis.configuration"] / n,
        "core.basis.configuration_s": self_s["core.basis.configuration"] / n,
        "core.basis.scores_for_element_s": self_s["core.basis.scores_for_element"] / n,
        "core.search.self_s": layer.get("core.search", 0.0) / n,
        "core.search.rounds": count("search.rounds", 0) / n,
        "core.joint.self_s": layer.get("core.joint", 0.0) / n,
        "sdr.testbed.sweep_s": self_s["sdr.testbed.sweep"] / n,
        "sdr.testbed.mimo_matrices_s": self_s["sdr.testbed.mimo_matrices"] / n,
        "sdr.testbed.mimo_matrices_share": _ratio(incl_s["sdr.testbed.mimo_matrices"], tracer.wall_s),
        "mimo.condition_numbers_s": self_s["mimo.condition_numbers"] / n,
        "control.protocol.actuate_s": self_s["control.protocol.actuate"] / n,
        "control.protocol.retries": count("control.protocol.retries", 0) / n,
        "control.protocol.lost_commands": count("control.protocol.lost_commands", 0) / n,
        "serve.self_s": (self_s["serve.loop"] + self_s["serve.session_build"]) / n,
        "serve.loop_idle_frac": _ratio(self_s["idle"], tracer.wall_s),
        "serve.scenarios.validate_rows_s": self_s["serve.scenarios.validate_rows"] / n,
        "serve.scenarios.snr_rows_s": self_s["serve.scenarios.snr_rows"] / n,
        "serve.scenarios.mean_used_snr_s": self_s["serve.scenarios.mean_used_snr"] / n,
        "serve.rejections": count("serve.rejections", 0),
        "serve.errors": count("serve.errors", 0),
        "serve.session_misses": count("serve.session_misses", 0),
        "trace.wall_s": tracer.wall_s / n,
        "trace.other_s": tracer.other_s / n,
        "trace.attributed_frac": tracer.attributed_frac(),
    }
    for stage in ("fig4", "fig5", "fig6", "fig7", "fig8", "los", "robustness"):
        # Stage times are inclusive: together they make up a figures pass.
        values[f"experiments.{stage}_s"] = incl_s[f"experiments.{stage}"] / n
    values.update(extra)
    for name, unit in PER_LAYER:
        outcome.metric(name, values.get(name, 0.0), unit)
    log(tracer.table())
    outcome.check(
        attribution_ok(tracer),
        f"trace: self times plus other cover {tracer.attributed_frac():.4f} of the traced wall clock "
        f"({tracer.unbalanced} unbalanced spans)",
    )
