"""Spans around crowdkit's public layer functions, recorded from outside.

``install`` replaces each function under the module name its caller looks it
up by (``crowdkit.engine.apply_rules``, ``crowdkit.collect.write_gexf``, ...)
with a wrapper that records a span: name, start, end, parent span and run id
(the ordinal of the enclosing ``simulate`` call). Hook registries are rebuilt
with timed wrappers under the same names, phases and flags, so every output
stays byte-identical. Agent hooks are never wrapped: the agent phase is one
span per iteration, opened when ``shuffle_agents`` is called and closed when
the next span of that run begins. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import crowdkit.collect as collect_mod
import crowdkit.config as config_mod
import crowdkit.engine as engine_mod
from crowdkit.engine import PHASE_AFTER, PHASE_AGENT, PHASE_BEFORE, PHASE_FINAL, PHASES, HookRegistry

from workloads import PER_LAYER

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "phase", "children_s")

    def __init__(self, name, start, parent, run, phase=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.phase = phase
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def as_row(self, index: dict) -> list:
        return [self.name, self.start, self.end, index.get(id(self.parent)), self.run, self.phase]


class Tracer:
    """An in-memory span stack plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._agent: Span | None = None
        self._runs = 0

    def _close_agent(self, at: float) -> None:
        span = self._agent
        if span is not None:
            self._agent = None
            span.end = at
            if span.parent is not None:
                span.parent.children_s += span.duration

    def begin(self, name: str, phase: str | None = None) -> Span:
        t = _now()
        self._close_agent(t)
        parent = self._stack[-1] if self._stack else None
        if name == "engine.simulate":
            self._runs += 1
            run = self._runs
        else:
            run = parent.run if parent is not None else 0
        span = Span(name, t, parent, run, phase)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        t = _now()
        self._close_agent(t)
        span.end = t
        self._stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration

    def agent_phase(self, shuffle):
        """``shuffle_agents`` wrapped so that it opens the iteration's agent span."""

        def wrapper(ctx):
            start = _now()
            self._close_agent(start)
            parent = self._stack[-1] if self._stack else None
            agent = Span("engine.agent", start, parent, parent.run if parent else 0, PHASE_AGENT)
            self.spans.append(agent)
            order = shuffle(ctx)
            span = Span("engine.shuffle", start, agent, agent.run, PHASE_AGENT)
            span.end = _now()
            agent.children_s += span.duration
            self.spans.append(span)
            self._agent = agent
            return order

        return wrapper

    def timed(self, name: str, fn, phase: str | None = None, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` counts what it did."""

        def wrapper(*args, **kwargs):
            span = self.begin(name, phase)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def rows(self) -> list[list]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [span.as_row(index) for span in self.spans]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap crowdkit's layer functions; returns what ``uninstall`` restores."""
    counters = tracer.counters
    saved: list[tuple[object, str, object]] = []

    def patch(module, attr, name, phase=None, after=None, wrapper=None):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrapper or tracer.timed(name, original, phase, after))

    def count_rules(args, kwargs, transitions):
        state, rules = args[0], args[3]
        sources = {rule.from_type for rule in rules}
        histogram = Counter(state.values())
        counters["rules.calls"] += 1
        counters["rules.transitions"] += len(transitions)
        counters["rules.eligible"] += sum(histogram[s] for s in sources)

    def count_snapshot(args, kwargs, paths):
        counters["collect.snapshots"] += 1
        counters["collect.snapshot_bytes"] += _file_bytes(paths[:1])

    def count_gexf(args, kwargs, _):
        counters["gexf.bytes"] += Path(args[1]).stat().st_size

    def count_collectors(args, kwargs, paths):
        counters["collect.collector_flushes"] += 1
        counters["collect.collector_bytes"] += _file_bytes(paths)

    patch(engine_mod, "simulate", "engine.simulate")
    patch(engine_mod, "build_graph", "graph.build")
    patch(engine_mod, "initialize_population", "config.init")
    patch(config_mod, "top_k_by_metric", "metrics.topk")
    patch(config_mod, "validate", "config.validate")
    patch(engine_mod, "apply_rules", "rules.apply", after=count_rules)
    patch(engine_mod, "write_snapshot", "collect.snapshot", after=count_snapshot)
    patch(collect_mod, "write_gexf", "gexf.write", after=count_gexf)
    patch(engine_mod, "write_collectors", "collect.collectors", after=count_collectors)
    patch(engine_mod, "shuffle_agents", None, wrapper=tracer.agent_phase(engine_mod.shuffle_agents))
    if hasattr(engine_mod, "_node_counts_hook"):
        patch(engine_mod, "_node_counts_hook", "hook.node_counts", phase=PHASE_AFTER)
    for attr in ("merge_parent_directory", "merge_simulations"):
        patch(collect_mod, attr, "collect.merge")
    return saved


def uninstall(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def timed_factory(tracer: Tracer, make_hooks):
    """A registry factory whose non-agent hooks and setup callable are timed."""

    def factory():
        registry, setup = make_hooks()
        timed = HookRegistry()
        for phase in PHASES:
            for hook in registry.hooks(phase):
                fn = hook.fn
                if phase != PHASE_AGENT:
                    fn = tracer.timed(f"hook.{hook.name}", fn, phase)
                timed.add(phase, hook.name, fn, record_initial=hook.record_initial)
        if setup is not None:
            setup = tracer.timed("scenarios.setup", setup)
        return timed, setup

    return factory


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced workload run (every name in PER_LAYER)."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    phase_keys = {
        PHASE_BEFORE: "engine.before_s",
        PHASE_AGENT: "engine.agent_s",
        PHASE_AFTER: "engine.after_s",
        PHASE_FINAL: "engine.final_s",
    }
    sums = {
        "config.load": "config.load_s",
        "graph.build": "graph.build_s",
        "metrics.topk": "metrics.topk_s",
        "scenarios.setup": "scenarios.setup_s",
        "rules.apply": "rules.apply_s",
        "collect.collectors": "collect.collectors_s",
        "collect.merge": "collect.merge_s",
        "gexf.write": "gexf.write_s",
    }
    for span in tracer.spans:
        name = span.name
        if name in sums:
            out[sums[name]] += span.duration
        elif name == "config.init":
            out["config.init_s"] += span.self_s
        elif name == "config.validate":
            out["config.validate_calls"] += 1
        elif name == "collect.snapshot":
            out["collect.snapshot_s"] += span.self_s
        elif name == "engine.simulate":
            out["engine.self_s"] += span.self_s
        if name == "engine.agent" or name.startswith("hook."):
            out[phase_keys[span.phase]] += span.duration
            key = f"{name}_s"
            if name.startswith("hook.") and key in out:
                out[key] += span.duration
    for key, value in tracer.counters.items():
        out[key] = value
    eligible = out["rules.eligible"]
    out["rules.fire_ratio"] = out["rules.transitions"] / eligible if eligible else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
