"""Spans around the calls ``run_train`` makes into the package.

``traced(tracer, run)`` swaps the module attributes of ``motifset.train``
that ``run_train`` looks up at call time for wrappers that record one span
per call, and restores them on exit, so no package file changes.  Spans
stay in memory until the benchmark dumps them; ``layer_metrics`` computes
the per-layer table from such a dump.

A span is ``{id, name, parent, run, start, end}`` in ``perf_counter``
seconds, plus ``attrs`` holding the counts a call returns.  Span names are
``<package module>.<function>``; the benchmark's own span around
``run_train`` is ``train.run_train``.
"""
from __future__ import annotations

import contextlib
import math
import os
import statistics
import time
from collections import defaultdict

import motifset.train

ROOT_SPAN = "train.run_train"

# function run_train looks up -> package module that defines it
LAYER_OF = {
    "load_dataset": "data",
    "build_topology": "topology",
    "init_network": "network",
    "forward": "network",
    "loss": "network",
    "backward": "network",
    "sgd_step": "network",
    "predict_accuracy": "network",
    "flop_counter": "metrics",
    "evolve": "evolution",
    "save_checkpoint": "checkpoint",
}

_ATTRS = {
    "flop_counter": lambda result, args: {
        "forward_macs": result.forward_per_sample * result.n_samples,
        "backward_macs": result.backward_per_sample * result.n_samples,
        "total_macs": result.total},
    "evolve": lambda result, args: {
        "pruned": result[1].total_pruned,
        "saturated": sum(s.saturated for s in result[1].layers)},
    "save_checkpoint": lambda result, args: {
        "bytes": os.path.getsize(args[1])},
}


class Tracer:
    """Collects spans in memory; ``run`` tags the spans of one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.last: dict | None = None  # most recently closed span
        self._open: list[int] = []

    def span(self, name: str, run: str, fn, /, *args, **kwargs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "run": run}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.last = record


@contextlib.contextmanager
def traced(tracer: Tracer, run: str):
    """Route run_train's package calls through ``tracer`` for one run."""
    originals = {name: getattr(motifset.train, name) for name in LAYER_OF}

    def wrapper(name, fn):
        span_name = f"{LAYER_OF[name]}.{name}"
        annotate = _ATTRS.get(name)

        def call(*args, **kwargs):
            result = tracer.span(span_name, run, fn, *args, **kwargs)
            if annotate is not None:
                tracer.last["attrs"] = annotate(result, args)
            return result
        return call
    try:
        for name, fn in originals.items():
            setattr(motifset.train, name, wrapper(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(motifset.train, name, fn)


def _duration(span) -> float:
    return span["end"] - span["start"]


def span_problems(spans: list[dict]) -> list[str]:
    """Child spans must lie inside their run's root span without overlap."""
    problems = []
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    for root in roots:
        children = sorted((s for s in spans if s["parent"] == root["id"]),
                          key=lambda s: s["start"])
        ends = [root["start"]] + [s["end"] for s in children]
        for prev_end, child in zip(ends, children):
            if child["start"] < prev_end:
                problems.append(f"span {child['id']} {child['name']} starts "
                                f"before the previous one ends")
        if children and children[-1]["end"] > root["end"]:
            problems.append(f"run {root['run']}: child ends after the root")
    if len(roots) != len({s["run"] for s in spans}):
        problems.append("a traced run has no single root span")
    return problems


def _tail(sorted_ms: list[float]) -> tuple[float, float]:
    """p90, or the highest percentile with ten samples beyond it, or p50."""
    n = len(sorted_ms)
    k = max(math.ceil(0.5 * n) - 1, min(math.ceil(0.9 * n) - 1, n - 11))
    return sorted_ms[k], 100.0 * (k + 1) / n


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer table of one traced run: ``{name: (value, unit)}``, info.

    Loop phases are per epoch (one ``flop_counter`` call per epoch), evolve
    per event, counts totals over the run, everything else per run.
    """
    root = next(s for s in spans if s["name"] == ROOT_SPAN)
    by_name = defaultdict(list)
    for s in spans:
        if s["parent"] == root["id"]:
            by_name[s["name"]].append(s)

    def busy(name: str) -> float:
        return sum(_duration(s) for s in by_name[name])

    counts = [s["attrs"] for s in by_name["metrics.flop_counter"]]
    epochs = len(counts)
    events = [s["attrs"] for s in by_name["evolution.evolve"]]
    saves = by_name["checkpoint.save_checkpoint"]
    steps_ms = sorted(
        (b["end"] - a["start"]) * 1e3
        for a, b in zip(by_name["network.forward"],
                        by_name["network.sgd_step"]))
    tail_ms, tail_pct = _tail(steps_ms)
    run_s = _duration(root)
    child_s = sum(busy(name) for name in by_name)
    metrics = {
        "data.load_s": (busy("data.load_dataset"), "s"),
        "topology.build_s": (busy("topology.build_topology"), "s"),
        "network.init_s": (busy("network.init_network"), "s"),
        "network.forward_s": (busy("network.forward") / epochs, "s"),
        "network.forward_macs_per_s": (
            sum(c["forward_macs"] for c in counts)
            / busy("network.forward"), "MAC/s"),
        "network.backward_s": (busy("network.backward") / epochs, "s"),
        "network.backward_macs_per_s": (
            sum(c["backward_macs"] for c in counts)
            / busy("network.backward"), "MAC/s"),
        "network.loss_s": (busy("network.loss") / epochs, "s"),
        "network.sgd_step_s": (busy("network.sgd_step") / epochs, "s"),
        "network.step_ms.p50": (statistics.median(steps_ms), "ms"),
        "network.step_ms.tail": (tail_ms, "ms"),
        "network.eval_s": (busy("network.predict_accuracy") / epochs, "s"),
        "evolution.evolve_s": (busy("evolution.evolve") / len(events), "s"),
        "evolution.pruned_blocks": (sum(e["pruned"] for e in events),
                                    "count"),
        "evolution.saturated_layers": (sum(e["saturated"] for e in events),
                                       "count"),
        "checkpoint.save_s": (busy("checkpoint.save_checkpoint"), "s"),
        "checkpoint.bytes": (saves[-1]["attrs"]["bytes"], "bytes"),
        "metrics.macs_per_epoch": (
            sum(c["total_macs"] for c in counts) / epochs, "MAC"),
        "train.self_s": (run_s - child_s, "s"),
    }
    info = {"run_s": run_s, "child_s": child_s, "epochs": epochs,
            "evolution_events": len(events), "steps": len(steps_ms),
            "step_tail_percentile": tail_pct}
    return metrics, info
