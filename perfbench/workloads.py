"""The three benchmark workloads. Each runs closed-loop: one pipeline
iteration after another, on inputs made from the workload seed before the
clock starts, with outputs verified after each iteration's clock stops.

Why these workloads: a profile of the training loop shows a different
module dominating in each usage pattern.

* uctrl-b1024: the paper's debiased objective at batch 1024. The B x B
  uniformity kernels (four per step, two in the relation space) dominate.
* directau-b128: the biased objective at batch 128. Many small steps, where
  the dense O((m+n) d) Adam update dominates and there is no relation term.
* log-split-eval: the real-log path with no training. Ingest a TSV with
  string ids, split, persist and reload the split, round-trip a checkpoint
  of planted factors, and rank. The data layer's index builds dominate.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    Ledger,
    finite_loss_problems,
    roundtrip_checkpoint_problems,
    roundtrip_split_problems,
    split_problems,
    topk_problems,
)
from loggen import planted_log, write_tsv

TEST_FRAC = 0.1
VALID_FRAC = 0.1
K = 20
#: Test evaluations per iteration: the one inside the pipeline, then repeats
#: after its clock stops, which must give the same report. Each is one
#: eval_users_per_s sample, so a short burst of machine load moves the
#: median less.
TEST_EVALS = 3


@dataclass
class Sample:
    """End-to-end measurements of one pipeline iteration. The rates hold one
    value per epoch (per split on log-split-eval) and per test evaluation."""

    pipeline_s: float
    setup_s: float
    train_pairs_per_s: list[float]
    eval_users_per_s: list[float]
    test_ndcg20: float


class Workload:
    expected_ndcg: float | None = None

    def _test_eval(self, evaluation, ledger, tracer, *args, **kwargs):
        """The pipeline's test evaluation, then TEST_EVALS - 1 repeats after
        its clock stops, which must give the same report. A traced iteration
        makes no repeats, so that its per-layer figures cover one pipeline.
        Returns the first report, its operation, the time it ended, and the
        users/s rate of every call."""
        span = tracer.span if tracer else nullcontext
        rates = []
        for repeat in range(1 if tracer else TEST_EVALS):
            start = time.perf_counter()
            with span("workload.test_eval"), ledger.op("evaluate_topk") as op:
                report = evaluation.evaluate_topk(*args, **kwargs)
            end = time.perf_counter()
            rates.append(report.n_eval_users / (end - start))
            if repeat == 0:
                first, first_op, first_end = report, op, end
            elif report.to_dict() != first.to_dict():
                op.problems.append("repeated evaluate_topk gave another report")
        return first, first_op, first_end, rates

    def _determinism_problems(self, ndcg: float) -> list[str]:
        """Every iteration runs on the same seed, so must score the same."""
        if self.expected_ndcg is None:
            self.expected_ndcg = ndcg
        if ndcg != self.expected_ndcg:
            return [f"test ndcg@20 {ndcg!r} differs from the first iteration's "
                    f"{self.expected_ndcg!r} on the same seed"]
        return []


class TrainingWorkload(Workload):
    """Synthetic world, clicks and per-item split, then `train` with
    periodic validation, then a test `evaluate_topk`.

    Validation keeps the trainer's default cadence (every `eval_every`
    epochs and after the last), so a run of fewer epochs than that
    validates once, at its end."""

    def __init__(self, objective: str, batch_size: int, lr: float, epochs: int,
                 m: int = 2000, n: int = 3000, d: int = 64):
        self.shape = dict(m=m, n=n, skew=2.0)
        self.train_args = dict(objective=objective, d=d, batch_size=batch_size,
                               lr=lr, gamma=0.2, lambda_rel=1.0, epochs=epochs,
                               scoring="dot")

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def iteration(self, dc, ledger: Ledger, tracer=None) -> Sample:
        span = tracer.span if tracer else nullcontext
        data, trainer, evaluation = dc.data, dc.trainer, dc.evaluation
        seed = self.seed
        config = trainer.TrainConfig(seed=seed, **self.train_args)
        val_eval_s: dict[int, float] = {}

        t0 = time.perf_counter()
        with span("workload.data"):
            with ledger.op("generate_synthetic_world"):
                world = data.generate_synthetic_world(seed=seed, **self.shape)
            with ledger.op("sample_clicks"):
                clicks = data.sample_clicks(world, seed)
            del world
            with ledger.op("split_unbiased_protocol") as split_op:
                bundle = data.split_unbiased_protocol(clicks, TEST_FRAC, VALID_FRAC, seed)

        def eval_fn(model, projections, epoch):
            # Same ranking as the trainer's default validation eval, timed.
            with span("trainer.val_eval"):
                start = time.perf_counter()
                report = evaluation.evaluate_topk(
                    model, bundle.train, bundle.validation, k=trainer.SELECTION_K,
                    scoring=config.scoring)
                val_eval_s[epoch] = time.perf_counter() - start
            return report.recall_at_k, report.ndcg_at_k

        t_train = time.perf_counter()
        with span("workload.train"), ledger.op("train") as train_op:
            result = trainer.train(bundle, config, eval_fn=eval_fn)
        t_eval = time.perf_counter()
        report, eval_op, t_end, eval_rates = self._test_eval(
            evaluation, ledger, tracer, result.best_model, bundle.train, bundle.test,
            k=K, scoring=config.scoring, mask_extra=bundle.validation, per_user=True)

        epochs_s = sum(rec["wall_ms"] for rec in result.history) / 1e3
        # An epoch's wall time includes its validation eval, if it had one.
        step_s = [rec["wall_ms"] / 1e3 - val_eval_s.get(rec["epoch"], 0.0)
                  for rec in result.history]

        split_op.problems.extend(split_problems(clicks, bundle))
        train_op.problems.extend(finite_loss_problems(result.history))
        eval_op.problems.extend(topk_problems(
            report, result.best_model, bundle.train, bundle.test, bundle.validation,
            K, seed))
        eval_op.problems.extend(self._determinism_problems(report.ndcg_at_k))
        return Sample(
            pipeline_s=t_end - t0,
            # Up to the first train step: data, then train()'s set-up before
            # its first epoch (validation, model init, optimizer state).
            setup_s=(t_train - t0) + (t_eval - t_train - epochs_s),
            train_pairs_per_s=[len(bundle.train) / s for s in step_s],
            eval_users_per_s=eval_rates,
            test_ndcg20=report.ndcg_at_k,
        )


class LogSplitEvalWorkload(Workload):
    """Ingest, split, split persistence round trip and checkpoint round trip
    of the planted factors (the set-up), then a test `evaluate_topk`.

    There is no training, so train_pairs_per_s here is the rate at which the
    split produces training pairs: training pairs / split time."""

    def __init__(self, m: int = 6000, n: int = 4000, pairs: int = 100_000, d: int = 64):
        self.shape = dict(m=m, n=n, pairs=pairs, d=d)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.log = planted_log(seed, **self.shape)
        self.log_path = workdir / "interactions.tsv"
        write_tsv(self.log, self.log_path)

    def iteration(self, dc, ledger: Ledger, tracer=None) -> Sample:
        span = tracer.span if tracer else nullcontext
        data, embedding, evaluation = dc.data, dc.embedding, dc.evaluation
        seed, log = self.seed, self.log
        split_dir = self.workdir / "split"
        checkpoint = self.workdir / "planted.bin"

        t0 = time.perf_counter()
        with span("workload.data"):
            with ledger.op("load_interactions") as load_op:
                full = data.load_interactions(self.log_path)
            t_split = time.perf_counter()
            with ledger.op("split_unbiased_protocol") as split_op:
                bundle = data.split_unbiased_protocol(full, TEST_FRAC, VALID_FRAC, seed)
            split_s = time.perf_counter() - t_split
            with ledger.op("save_split"):
                data.save_split(bundle, split_dir, seed=seed,
                                fractions={"test": TEST_FRAC, "valid": VALID_FRAC})
            with ledger.op("load_split") as reload_op:
                loaded = data.load_split(split_dir)
        with span("workload.checkpoint"), ledger.op("checkpoint") as ckpt_op:
            # load_interactions indexes ids in first-appearance order and drops
            # items that never appear, so the planted rows are looked up by label.
            planted = embedding.EmbeddingTable(
                loaded.train.m, loaded.train.n, log.user_factors.shape[1],
                log.user_factors[log.user_rows(loaded.train.user_labels)],
                log.item_factors[log.item_rows(loaded.train.item_labels)])
            eye = np.eye(planted.d, dtype=np.float32)
            saved = (planted, embedding.ProjectionPair(eye, eye.copy()))
            embedding.save_checkpoint(*saved, checkpoint)
            model, projections = embedding.load_checkpoint(checkpoint)
        t_eval = time.perf_counter()
        report, eval_op, t_end, eval_rates = self._test_eval(
            evaluation, ledger, tracer, model, loaded.train, loaded.test,
            k=K, mask_extra=loaded.validation, per_user=True)

        load_op.problems.extend(self._load_problems(full))
        split_op.problems.extend(split_problems(full, bundle))
        reload_op.problems.extend(roundtrip_split_problems(bundle, loaded))
        ckpt_op.problems.extend(roundtrip_checkpoint_problems(saved, (model, projections)))
        eval_op.problems.extend(topk_problems(
            report, model, loaded.train, loaded.test, loaded.validation, K, seed))
        eval_op.problems.extend(self._determinism_problems(report.ndcg_at_k))
        return Sample(
            pipeline_s=t_end - t0,
            setup_s=t_eval - t0,
            train_pairs_per_s=[len(bundle.train) / split_s],
            eval_users_per_s=eval_rates,
            test_ndcg20=report.ndcg_at_k,
        )

    def _load_problems(self, full) -> list[str]:
        log = self.log
        got = np.stack([log.user_rows(full.user_labels)[full.pairs[:, 0]],
                        log.item_rows(full.item_labels)[full.pairs[:, 1]]], axis=1)
        want = log.pairs[np.lexsort((log.pairs[:, 1], log.pairs[:, 0]))]
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        if not np.array_equal(got, want):
            return ["loaded pairs differ from the written log"]
        return []


def make(name: str, tiny: bool = False):
    """The named workload; `tiny` gives a seconds-long shape for tests."""
    if name == "uctrl-b1024":
        if tiny:
            return TrainingWorkload("uctrl", 64, 1e-2, 2, m=60, n=80, d=8)
        return TrainingWorkload("uctrl", 1024, 5e-3, 3)
    if name == "directau-b128":
        if tiny:
            return TrainingWorkload("directau", 16, 3e-3, 2, m=60, n=80, d=8)
        return TrainingWorkload("directau", 128, 3e-3, 2)
    if name == "log-split-eval":
        if tiny:
            return LogSplitEvalWorkload(m=80, n=60, pairs=600, d=8)
        return LogSplitEvalWorkload()
    raise KeyError(name)

