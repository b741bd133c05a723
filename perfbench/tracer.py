"""Span tracing for the traced run.

The tracer wraps public functions of the `debias_cf` modules from outside.
A wrapped name is replaced in every module of the package that holds it,
because names bound by `from .embedding import ...` are looked up in the
importing module's own dict. Spans are kept in memory; each records name,
start, end, parent and computed counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. A span opened on a worker thread with no open span of
    its own takes as parent the innermost open span of the thread that made
    the tracer, which is the thread waiting on the worker."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn, counter=None):
        """`fn` inside a span; `counter(bound_args, result)` returns computed
        counts, evaluated after the span closes."""
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts = counter(bound.arguments, result)
            return result

        return traced


def _index_counts(a, result):
    data = a["self"]
    return {"scan_elems": (data.m + data.n) * len(data.pairs)}


def _uniformity_counts(a, result):
    rows = len(a["vecs"])
    return {"kernel_cells": rows * rows}


def _train_step_counts(a, result):
    pairs = np.asarray(a["pairs"]).reshape(-1, 2)
    model = a["state"].model
    distinct = len(np.unique(pairs[:, 0])) + len(np.unique(pairs[:, 1]))
    return {"distinct_rows": distinct, "table_rows": model.m + model.n}


def _evaluate_counts(a, result):
    users = result.n_eval_users
    return {"users": users, "sort_elems": users * a["model"].n,
            "useful_elems": users * min(a["k"], a["model"].n)}


#: (module, attribute, span name, counter). An attribute "Class.method" is
#: patched on the class.
TARGETS = (
    ("data", "InteractionSet.__post_init__", "data.index", _index_counts),
    ("data", "split_unbiased_protocol", "data.split", None),
    ("data", "load_interactions", "data.load_interactions", None),
    ("data", "load_split", "data.load_split", None),
    ("data", "save_split", "data.save_split", None),
    ("data", "generate_synthetic_world", "data.synth.world", None),
    ("data", "sample_clicks", "data.synth.clicks", None),
    ("embedding", "normalize_rows_full", "embedding.normalize", None),
    ("embedding", "normalize_rows_backward", "embedding.normalize", None),
    ("embedding", "save_checkpoint", "embedding.checkpoint", None),
    ("embedding", "load_checkpoint", "embedding.checkpoint", None),
    ("losses", "uniformity_value_grad", "losses.uniformity", _uniformity_counts),
    ("losses", "alignment_value_grad", "losses.alignment", None),
    ("losses", "dau_param_grads", "losses.dau_param_grads", None),
    ("losses", "relation_param_grads", "losses.relation_param_grads", None),
    ("propensity", "project_rows", "propensity.project_rows", None),
    ("propensity", "clip", "propensity.clip", None),
    ("trainer", "train_step", "trainer.train_step", _train_step_counts),
    ("trainer", "Adam.step", "trainer.adam", None),
    ("trainer", "make_batches", "trainer.make_batches", None),
    ("evaluation", "evaluate_topk", "evaluation.evaluate_topk", _evaluate_counts),
    ("evaluation", "_eval_users", "evaluation.chunk", None),
)


def install(tracer: Tracer):
    """Patch every target; returns a function that restores the originals."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "debias_cf" or name.startswith("debias_cf.")]
    undo = []
    for module_name, attr, span_name, counter in TARGETS:
        home = sys.modules[f"debias_cf.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(span_name, original, counter))
            undo.append((cls, method, original))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(span_name, original, counter)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
                    undo.append((module, name, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.
    Children on other threads may overlap, so their intervals are merged."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy (total duration), self time, durations,
    and summed counts."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                           "durations": [], "counts": {}})
        entry["calls"] += 1
        entry["busy_s"] += span.duration
        entry["self_s"] += own
        entry["durations"].append(span.duration)
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def layer_metrics(spans: list[Span], threads: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced iteration, as name -> (value, unit).
    A layer the workload does not reach reports zero."""
    s = summarize(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "counts": {}}

    def get(name):
        return s.get(name, empty)

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    step_ms = np.array(get("trainer.train_step")["durations"]) * 1e3
    eval_wall = get("evaluation.evaluate_topk")["busy_s"]
    chunk_busy = get("evaluation.chunk")["busy_s"]
    table_rows = count("trainer.train_step", "table_rows")
    return {
        "data.index.build_s": (get("data.index")["busy_s"], "s"),
        "data.index.calls": (get("data.index")["calls"], "count"),
        "data.index.scan_elems": (count("data.index", "scan_elems"), "count-computed"),
        "data.split.self_s": (get("data.split")["self_s"], "s"),
        "data.load_interactions.self_s": (get("data.load_interactions")["self_s"], "s"),
        "data.load_split.self_s": (get("data.load_split")["self_s"], "s"),
        "data.save_split.s": (get("data.save_split")["busy_s"], "s"),
        "data.synth.world_s": (get("data.synth.world")["busy_s"], "s"),
        "data.synth.clicks_self_s": (get("data.synth.clicks")["self_s"], "s"),
        "embedding.normalize.busy_s": (get("embedding.normalize")["busy_s"], "s"),
        "embedding.normalize.calls": (get("embedding.normalize")["calls"], "count"),
        "embedding.checkpoint_rt_s": (get("embedding.checkpoint")["busy_s"], "s"),
        "losses.uniformity.busy_s": (get("losses.uniformity")["busy_s"], "s"),
        "losses.uniformity.calls": (get("losses.uniformity")["calls"], "count"),
        "losses.uniformity.kernel_cells": (
            count("losses.uniformity", "kernel_cells"), "count-computed"),
        "losses.alignment.busy_s": (get("losses.alignment")["busy_s"], "s"),
        "losses.dau_param_grads.self_s": (get("losses.dau_param_grads")["self_s"], "s"),
        "losses.relation_param_grads.self_s": (
            get("losses.relation_param_grads")["self_s"], "s"),
        "propensity.project_rows.busy_s": (get("propensity.project_rows")["busy_s"], "s"),
        "propensity.clip.busy_s": (get("propensity.clip")["busy_s"], "s"),
        "trainer.train_step.p50_ms": (
            float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0, "ms"),
        "trainer.train_step.p95_ms": (
            float(np.percentile(step_ms, 95)) if len(step_ms) else 0.0, "ms"),
        "trainer.train_step.calls": (get("trainer.train_step")["calls"], "count"),
        "trainer.train_step.self_s": (get("trainer.train_step")["self_s"], "s"),
        "trainer.adam.busy_s": (get("trainer.adam")["busy_s"], "s"),
        "trainer.adam.row_util": (
            count("trainer.train_step", "distinct_rows") / table_rows if table_rows else 0.0,
            "ratio-computed"),
        "trainer.make_batches.busy_s": (get("trainer.make_batches")["busy_s"], "s"),
        "trainer.val_eval_s": (get("trainer.val_eval")["busy_s"], "s"),
        "evaluation.evaluate_topk.busy_s": (eval_wall, "s"),
        "evaluation.evaluate_topk.users": (
            count("evaluation.evaluate_topk", "users"), "count"),
        "evaluation.chunk.busy_s": (chunk_busy, "s"),
        "evaluation.parallel_eff": (
            chunk_busy / (threads * eval_wall) if eval_wall else 0.0, "ratio"),
        "evaluation.sort_elems": (
            count("evaluation.evaluate_topk", "sort_elems"), "count-computed"),
        "evaluation.sort_useful_elems": (
            count("evaluation.evaluate_topk", "useful_elems"), "count-computed"),
    }
