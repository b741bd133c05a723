"""Benchmark of the debias-cf engine, run from the root of a checkout:

    python3 perfbench/run.py --workload uctrl-b1024 --seed 1 --seconds 30 --trace 0

It drives the public API of `src/debias_cf` from outside, in this process.
Thread counts are set before numpy loads: DEBIAS_CF_THREADS (the ranking
thread pool) to min(2, available CPUs), and BLAS to one thread. On a 2-core
machine one BLAS thread trains as fast as two, varies less from run to run,
and does not oversubscribe the ranking pool, whose threads each call BLAS.

Inputs are made from --seed before the clock starts. The workload then runs
closed-loop, one pipeline iteration after another, until --seconds have
passed and at least MIN_ITERATIONS are done. Every iteration's outputs are
verified after its clock stops.

--trace 0 reports the end-to-end metrics: the median over iterations of
each timing, peak resident memory, and the test NDCG@20. --trace 1
alternates untraced and traced iterations. It reports the per-layer metrics
of the traced ones and the tracing overhead (traced minus untraced pipeline
time), and writes the spans to .perfbench_work/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every operation
passed its checks, 1 when one failed, and 2 when the checkout holds no
source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("uctrl-b1024", "directau-b128", "log-split-eval")
#: Iterations a run makes at least. A traced run alternates untraced and
#: traced iterations and needs an untraced one after the first, which pays
#: one-time allocation costs, as the baseline for the tracing overhead.
MIN_ITERATIONS = {False: 2, True: 3}
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "train_pairs_per_s": "pairs/s",
    "eval_users_per_s": "users/s",
    "peak_rss_mb": "MB",
    "test_ndcg20": "unitless",
}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(name: str, seed: int, seconds: float, trace: bool, threads: int,
        workdir: Path, tiny: bool = False) -> dict:
    """Run one workload; returns the result record (see `main`)."""
    # Imported here: numpy must load after `main` sets the thread counts.
    import debias_cf as dc
    from checks import Ledger, StageFailed
    from tracer import Tracer, install, layer_metrics, summarize
    from workloads import Sample, make

    warm = make(name, tiny=True)
    warm.prepare(seed, Path(tempfile.mkdtemp(dir=workdir)))
    try:
        warm.iteration(dc, Ledger())  # lazy imports and first calls, untimed
    except StageFailed:
        pass  # the measured iteration will record the failure

    workload = make(name, tiny)
    workload.prepare(seed, workdir)
    ledger = Ledger()
    untraced: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    self_by_name: dict[str, list[float]] = {}
    span_log: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(untraced) > len(traced) else None
        uninstall = install(tracer) if tracer else None
        try:
            sample = workload.iteration(dc, ledger, tracer)
        except StageFailed:
            break
        finally:
            if uninstall:
                uninstall()
        if tracer:
            traced.append(sample)
            layers.append(layer_metrics(tracer.spans, threads))
            origin = tracer.spans[0].start
            span_log.append([{"name": sp.name, "start": sp.start - origin,
                              "end": sp.end - origin, "parent": sp.parent,
                              "counts": sp.counts} for sp in tracer.spans])
            for span_name, entry in summarize(tracer.spans).items():
                self_by_name.setdefault(span_name, []).append(entry["self_s"])
        else:
            untraced.append(sample)
        done = len(untraced) + len(traced)
        if done >= MIN_ITERATIONS[trace] and time.perf_counter() - start >= seconds:
            break

    metrics: dict[str, dict] = {}
    spread: dict[str, dict] = {}
    if trace and traced:
        for metric, (_, unit) in layers[0].items():
            values = [layer[metric][0] for layer in layers]
            spread[metric] = _quartiles(values)
            metrics[metric] = {"value": spread[metric]["median"], "unit": unit}
        steps = [layer["trainer.train_step.calls"][0] for layer in layers]
        for percentile in ("trainer.train_step.p50_ms", "trainer.train_step.p95_ms"):
            spread[percentile]["steps_per_sample"] = steps
        if untraced[1:]:  # empty when a stage failed before the baseline iteration
            base = statistics.median(s.pipeline_s for s in untraced[1:])
            overhead = statistics.median(s.pipeline_s for s in traced) - base
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.overhead_share"] = {"value": overhead / base, "unit": "ratio"}
    elif not trace and untraced:
        for metric in ("pipeline_s", "setup_s", "train_pairs_per_s", "eval_users_per_s",
                       "test_ndcg20"):
            values = [getattr(s, metric) for s in untraced]
            if isinstance(values[0], list):
                values = [v for per_iteration in values for v in per_iteration]
            spread[metric] = _quartiles(values)
            metrics[metric] = {"value": spread[metric]["median"],
                               "unit": END_TO_END_UNITS[metric]}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    top_self = sorted(((statistics.median(v), k) for k, v in self_by_name.items()),
                      reverse=True)
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "spread": spread,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "top_self_s": [(k, v) for v, k in top_self],
        "problems": ledger.problems(),
        "spans": span_log,
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "debias_cf").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var)
                    for var in (*BLAS_THREAD_VARS, "DEBIAS_CF_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _print_report(name: str, result: dict) -> None:
    print(f"workload {name}: iterations {result['iterations']}, "
          f"operations {result['attempted']} attempted, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        s = result["spread"].get(metric)
        extra = f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]" if s else ""
        label = "  (computed)" if entry["unit"].endswith("-computed") else ""
        print(f"  {metric:38s} {entry['value']:14.6g} {entry['unit']}{extra}{label}")
    if result["top_self_s"]:
        print("  largest self times per traced iteration:")
        for span_name, seconds in result["top_self_s"][:8]:
            print(f"    {span_name:36s} {seconds:10.4f} s")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A terminated run still removes its scratch files (see the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "debias_cf" / "__init__.py").is_file():
        print(f"error: no debias_cf source under {SOURCE}", file=sys.stderr)
        return 2
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    os.environ["DEBIAS_CF_THREADS"] = str(threads)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # numpy is first imported below, after the thread settings it reads.
    sys.path.insert(0, str(SOURCE))
    import debias_cf

    if Path(debias_cf.__file__).resolve().parent != SOURCE / "debias_cf":
        print(f"error: imported debias_cf from {debias_cf.__file__}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if result["spans"]:
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        WORKDIR.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps({"iterations": result["spans"]}))
        print(f"spans of each traced iteration written to {trace_path}")
    _print_report(args.workload, result)
    detail = {key: result[key] for key in ("spread", "iterations", "problems")}
    detail["provenance"] = provenance(args.seed)
    detail["workload"], detail["seconds"] = args.workload, args.seconds
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
