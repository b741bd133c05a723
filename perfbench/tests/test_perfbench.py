"""Tests of the benchmark itself, at shapes that run in well under a second:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import debias_cf as dc
import run
import workloads
from checks import Ledger, reference_user_metrics, split_problems, topk_problems
from tracer import Span, Tracer, install, self_times
from workloads import make

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = run.run(workload, seed=5, seconds=0, trace=bool(trace), threads=2,
                     workdir=tmp_path, tiny=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())


def test_traced_run_still_reports_when_its_baseline_iteration_fails(tmp_path, monkeypatch):
    real_make = workloads.make

    def make_failing_third(name, tiny=False):
        workload = real_make(name, tiny)
        real_iteration, calls = workload.iteration, []

        def iteration(dc, ledger, tracer=None):
            calls.append(tracer)
            if len(calls) == 3:  # untraced, traced, then the untraced baseline
                with ledger.op("injected"):
                    raise RuntimeError("injected failure")
            return real_iteration(dc, ledger, tracer)

        workload.iteration = iteration
        return workload

    monkeypatch.setattr(workloads, "make", make_failing_third)
    result = run.run("log-split-eval", seed=5, seconds=0, trace=True, threads=2,
                     workdir=tmp_path, tiny=True)
    assert result["iterations"] == {"untraced": 1, "traced": 1}
    assert result["failed"] == 1 and not result["correct"]
    assert "trace.overhead_s" not in result["metrics"]


def test_benchmark_names_match_the_declared_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def ranked():
    world = dc.generate_synthetic_world(40, 50, 1.5, seed=2)
    bundle = dc.split_unbiased_protocol(dc.sample_clicks(world, 2), 0.2, 0.2, seed=2)
    model, _ = dc.init_model(40, 50, 6, seed=2, scale=1.0)
    report = dc.evaluate_topk(model, bundle.train, bundle.test, k=5,
                              mask_extra=bundle.validation, per_user=True)
    return model, bundle, report


def test_topk_check_accepts_evaluate_topk(ranked):
    model, bundle, report = ranked
    assert topk_problems(report, model, bundle.train, bundle.test,
                         bundle.validation, 5, seed=0) == []


def test_verification_fails_against_a_wrong_reference(ranked):
    model, bundle, report = ranked

    def ascending(scores, masked, test_items, k):
        return reference_user_metrics(-scores, masked, test_items, k)

    problems = topk_problems(report, model, bundle.train, bundle.test,
                             bundle.validation, 5, seed=0, reference=ascending)
    assert problems
    ledger = Ledger()
    with ledger.op("evaluate_topk") as op:
        pass
    op.problems.extend(problems)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_split_check_catches_overlap_and_loss(ranked):
    _, bundle, _ = ranked
    full = bundle.train.replaced(np.concatenate(
        [bundle.train.pairs, bundle.validation.pairs, bundle.test.pairs]))
    assert split_problems(full, bundle) == []
    leaked = dc.SplitBundle(
        bundle.train.replaced(np.concatenate([bundle.train.pairs, bundle.test.pairs[:1]])),
        bundle.validation, bundle.test, bundle.protocol_tag)
    assert any("share" in p for p in split_problems(full, leaked))
    dropped = dc.SplitBundle(bundle.train, bundle.validation,
                             bundle.test.replaced(bundle.test.pairs[1:]), bundle.protocol_tag)
    assert any("add up" in p for p in split_problems(full, dropped))


def test_a_raising_operation_counts_as_failed():
    ledger = Ledger()
    with pytest.raises(Exception):
        with ledger.op("split"):
            raise dc.DataError("boom")
    assert (ledger.attempted, ledger.failed) == (1, 1)


def _assert_self_times_bounded(spans):
    assert spans
    for span, own in zip(spans, self_times(spans)):
        assert 0.0 <= own <= span.duration + 1e-12, span.name


def test_trace_self_times_are_nonnegative_and_within_their_span(tmp_path):
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        workload = make("uctrl-b1024", tiny=True)
        workload.prepare(1, tmp_path)
        workload.iteration(dc, Ledger(), tracer)
    finally:
        uninstall()
    for restored in (dc.evaluate_topk, dc.evaluation.evaluate_topk, dc.trainer.train_step,
                     dc.losses.normalize_rows_full, dc.InteractionSet.__post_init__):
        assert not hasattr(restored, "__wrapped__")
    names = {span.name for span in tracer.spans}
    assert {"losses.uniformity", "trainer.adam", "data.index", "evaluation.chunk"} <= names
    _assert_self_times_bounded(tracer.spans)


def test_overlapping_children_on_threads_are_counted_once():
    tracer = Tracer()
    with tracer.span("parent"):
        workers = [threading.Thread(target=_child, args=(tracer,)) for _ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
    assert all(span.parent == 0 for span in tracer.spans[1:])
    _assert_self_times_bounded(tracer.spans)
    # Children overlap each other and run past their parent's end.
    synthetic = [Span("p", 0.0, 1.0), Span("a", 0.1, 0.6, parent=0),
                 Span("b", 0.4, 0.9, parent=0), Span("c", 0.95, 1.5, parent=0)]
    assert self_times(synthetic)[0] == pytest.approx(0.1 + 0.05)


def _child(tracer):
    with tracer.span("child"):
        time.sleep(0.02)


def test_exits_nonzero_without_printing_a_result_when_source_is_missing(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "log-split-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
