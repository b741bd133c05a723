"""Minibatch training loop: batching, Adam, and the joint-objective
gradient partition.

For the joint objective the two terms touch disjoint parameter sets by
construction: the weighted-alignment term (propensities detached) updates
only the embedding tables, and the relation-space term (base embeddings
frozen) updates only the projection matrices. Setting
propensity_grad_through lets the weighted alignment also reach the
projection matrices through the propensity estimates; a pair whose raw
learned propensity is at or below mu is clipped and passes no gradient
to them.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, losses, propensity
from .data import InteractionSet, SplitBundle, SyntheticWorld
from .embedding import (
    EmbeddingTable,
    ProjectionPair,
    init_model,
    normalize_rows,
    normalize_rows_full,
)
from .errors import ConfigError, DataError, NumericalError
from .util import rng_from

log = logging.getLogger(__name__)

OBJECTIVES = ("directau", "uctrl", "ipw_align_oracle", "ipw_align_pop")

#: Validation ranking cutoff used for model selection.
SELECTION_K = 20


@dataclass
class TrainConfig:
    objective: str = "directau"
    d: int = 64
    gamma: float = 1.0
    lambda_rel: float = 1.0
    mu: float = 0.1
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 1024
    epochs: int = 100
    seed: int = 0
    eval_every: int = 10
    scoring: str = "dot"
    propensity_grad_through: bool = False
    init_scale: float = 0.01
    pop_exponent: float = 0.5

    def validate(self) -> "TrainConfig":
        for name in ("lr", "gamma", "lambda_rel", "weight_decay", "init_scale",
                     "pop_exponent"):  # NaN and inf slip past the range checks
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.gamma < 0 or self.lambda_rel < 0:
            raise ConfigError("gamma and lambda_rel must be >= 0")
        if not 0 < self.mu < 1:
            raise ConfigError("mu must lie in (0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.scoring not in ("dot", "cosine"):
            raise ConfigError(f"unknown scoring rule {self.scoring!r}")
        if self.init_scale < 0:
            raise ConfigError("init_scale must be >= 0")
        if self.pop_exponent < 0:
            raise ConfigError("pop_exponent must be >= 0")
        return self


#: Rows of a tensor per pass of Adam's bias-corrected update; the block's
#: two float64 temporaries stay in L2 cache.
ADAM_BLOCK_ROWS = 512


class Adam:
    """Plain Adam with bias correction and decoupled weight decay.

    Moments live in float64 keyed by tensor name; one shared step counter
    advances per batch. The update is dense: every row's moments decay and
    every row moves, also rows the batch did not touch.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(
        self, shapes: dict[str, tuple[int, ...]], lr: float, weight_decay: float = 0.0
    ):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros(s, dtype=np.float64) for k, s in shapes.items()}
        self.v = {k: np.zeros(s, dtype=np.float64) for k, s in shapes.items()}

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    ) -> dict[str, np.ndarray]:
        """One update over the tensors named in grads, written into params
        in place; returns the updated tensors.

        A gradient is either an array of the tensor's shape or a pair
        (rows, row_grads) of unique row indices and their gradient rows;
        the rows it leaves out have zero gradient. The arithmetic is
        float64 whatever the parameter's dtype, and the result is rounded
        to that dtype, so a float32 table gets exactly what a float64 copy
        updated with a zero-filled dense gradient would round to.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        lr_wd = self.lr * self.weight_decay
        out = {}
        for name, g in grads.items():
            p = params[name]
            m = self.m[name]
            v = self.v[name]
            rows = slice(None)
            if isinstance(g, tuple):
                rows, g = g
            # A zero gradient would add +0.0, which leaves every moment
            # unchanged (a moment is never -0.0), so only touched rows add.
            m *= b1
            m[rows] += (1.0 - b1) * g
            v *= b2
            v[rows] += (1.0 - b2) * g * g
            den_buf = np.empty((min(ADAM_BLOCK_ROWS, len(p)),) + p.shape[1:])
            upd_buf = np.empty_like(den_buf)
            for r0 in range(0, len(p), ADAM_BLOCK_ROWS):
                blk = slice(r0, r0 + ADAM_BLOCK_ROWS)
                p_blk = p[blk]
                den, upd = den_buf[: len(p_blk)], upd_buf[: len(p_blk)]
                np.divide(v[blk], bc2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                if bc1 == 1.0:  # from step 356 on; m / 1.0 is m
                    np.divide(m[blk], den, out=upd)
                else:
                    np.divide(m[blk], bc1, out=upd)
                    upd /= den
                upd *= self.lr
                # (p - lr * update) - (lr * wd) * p, in float64
                np.subtract(p_blk, upd, out=upd)
                if lr_wd == 0.0:
                    # p finite: x - 0*p is x + 0.0, signed zeros included
                    upd += 0.0
                else:
                    np.multiply(lr_wd, p_blk, out=den, dtype=np.float64)
                    upd -= den
                p_blk[...] = upd
            out[name] = p
        return out


@dataclass
class TrainState:
    """Parameters and optimizer; opt.t counts the steps taken."""

    model: EmbeddingTable
    projections: ProjectionPair
    opt: Adam


@dataclass
class TrainResult:
    state: TrainState
    best_model: EmbeddingTable
    best_projections: ProjectionPair
    best_epoch: int | None
    best_val_ndcg: float | None
    history: list[dict] = field(default_factory=list)


def make_batches(
    train: InteractionSet, batch_size: int, seed: int, epoch: int
) -> list[np.ndarray]:
    """Seeded permutation of all clicked pairs chunked into batches. A
    trailing single-pair batch is merged into the previous one."""
    if len(train) == 0:
        raise DataError("cannot batch an empty training set")
    rng = rng_from(seed, 51, epoch)
    perm = rng.permutation(len(train))
    pairs = train.pairs[perm]
    chunks = [pairs[i : i + batch_size] for i in range(0, len(pairs), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _tensors(model: EmbeddingTable, projections: ProjectionPair) -> dict[str, np.ndarray]:
    """The trained tensors by the names Adam and the error messages use."""
    return {
        "user_vecs": model.user_vecs,
        "item_vecs": model.item_vecs,
        "m_user": projections.m_user,
        "m_item": projections.m_item,
    }


def init_state(m: int, n: int, config: TrainConfig) -> TrainState:
    model, projections = init_model(m, n, config.d, config.seed, config.init_scale)
    shapes = {name: t.shape for name, t in _tensors(model, projections).items()}
    opt = Adam(shapes, lr=config.lr, weight_decay=config.weight_decay)
    return TrainState(model, projections, opt)


def _check_finite_grads(grads: dict, step: int) -> None:
    for name, g in grads.items():
        if isinstance(g, tuple):
            g = g[1]
        if not np.isfinite(g).all():
            raise NumericalError(
                f"non-finite gradient in tensor {name!r} at step {step}"
            )


def train_step(
    state: TrainState,
    pairs: np.ndarray,
    config: TrainConfig,
    world: SyntheticWorld | None = None,
    pop_table: np.ndarray | None = None,
) -> dict[str, float]:
    """One optimizer step on one batch of positive pairs. Mutates state
    and returns the batch's train-log values: the main terms, the relation
    terms (zero without a relation term) and their summed total."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    model, proj = state.model, state.projections
    uids, u_inv = np.unique(pairs[:, 0], return_inverse=True)
    iids, i_inv = np.unique(pairs[:, 1], return_inverse=True)
    user_unit = normalize_rows_full(model.user_vecs[uids].astype(np.float64))
    item_unit = normalize_rows_full(model.item_vecs[iids].astype(np.float64))

    rel = losses.LossTerms(0.0, 0.0, 0.0, 0.0)  # no relation term
    grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]] = {}
    omega_raw = None
    if config.objective == "uctrl":
        base_u_norm, base_i_norm = user_unit[0], item_unit[0]
        rel, g_mu, g_mi, forward = losses.relation_param_grads(
            base_u_norm,
            base_i_norm,
            u_inv,
            i_inv,
            proj.m_user.astype(np.float64),
            proj.m_item.astype(np.float64),
            config.lambda_rel,
        )
        (proj_u, _, _), (proj_i, _, _) = forward
        omega_raw = propensity.estimate_learned(proj_u[u_inv], proj_i[i_inv])
    elif config.objective == "ipw_align_oracle":
        if world is None:
            raise ConfigError("objective ipw_align_oracle requires a synthetic world")
        omega_raw = propensity.estimate_oracle(world, pairs)
    elif config.objective == "ipw_align_pop":
        if pop_table is None:
            raise ConfigError("objective ipw_align_pop requires a popularity table")
        omega_raw = pop_table[pairs[:, 1]]

    if omega_raw is None:
        weights = np.ones(len(pairs), dtype=np.float64)
    else:
        _, weights = propensity.inverse_weights(omega_raw, config.mu)
    main_terms, g_user, g_item = losses.dau_param_grads(
        user_unit, item_unit, u_inv, i_inv, weights, config.gamma
    )

    if config.objective == "uctrl":
        if config.propensity_grad_through:
            extra_mu, extra_mi = losses.ipw_through_projection_grads(
                forward, base_u_norm, base_i_norm, u_inv, i_inv, omega_raw, config.mu
            )
            g_mu = g_mu + extra_mu
            g_mi = g_mi + extra_mi
        grads["m_user"] = g_mu
        grads["m_item"] = g_mi

    # Row gradients: Adam gives the rows outside the batch zero gradient,
    # so their moments still decay (dense-Adam semantics).
    grads["user_vecs"] = (uids, g_user)
    grads["item_vecs"] = (iids, g_item)
    _check_finite_grads(grads, state.opt.t + 1)

    state.opt.step(_tensors(model, proj), grads)

    return {
        "align": main_terms.align,
        "uniform_user": main_terms.uniform_user,
        "uniform_item": main_terms.uniform_item,
        "relation_align": rel.align,
        "relation_uniform": (rel.uniform_user + rel.uniform_item) / 2.0,
        "total": main_terms.total + rel.total,
    }


def learned_propensities(
    model: EmbeddingTable, projections: ProjectionPair, pairs: np.ndarray, mu: float
) -> np.ndarray:
    """Clipped learned propensity of each pair, the omega whose inverse
    train_step uses as the uctrl alignment weight."""
    forward = losses.relation_forward(
        normalize_rows(model.user_vecs.astype(np.float64)),
        normalize_rows(model.item_vecs.astype(np.float64)),
        projections.m_user.astype(np.float64),
        projections.m_item.astype(np.float64),
    )
    (proj_u, _, _), (proj_i, _, _) = forward
    omega_raw = propensity.estimate_learned(proj_u[pairs[:, 0]], proj_i[pairs[:, 1]])
    omega, _ = propensity.inverse_weights(omega_raw, mu)
    return omega


def _default_eval(model, train, validation, scoring):
    report = evaluation.evaluate_topk(
        model, train, validation, k=SELECTION_K, scoring=scoring
    )
    return report.recall_at_k, report.ndcg_at_k


def train(
    data: SplitBundle,
    config: TrainConfig,
    world: SyntheticWorld | None = None,
    eval_fn=None,
) -> TrainResult:
    """Run the full loop and keep the checkpoint with the best validation
    ranking quality.

    eval_fn(model, projections, epoch) -> (recall, ndcg) may be injected
    for tests; the default ranks the validation set with the training items
    masked. History records one JSON-ready dict per epoch, and each epoch
    logs one INFO line. A non-finite value in the final or best tensors
    raises NumericalError: the per-step gradient check cannot see what the
    last steps write.
    """
    config.validate()
    train_set = data.train
    if len(train_set) == 0:
        raise DataError("training set is empty")
    if config.objective == "ipw_align_oracle":
        if world is None:
            raise ConfigError("objective ipw_align_oracle requires a synthetic world")
        if (world.m, world.n) != (train_set.m, train_set.n):
            raise DataError(
                f"world is {world.m}x{world.n} but the split is "
                f"{train_set.m}x{train_set.n}"
            )

    pop_table = None
    if config.objective == "ipw_align_pop":
        pop_table = propensity.item_popularity_table(train_set, config.pop_exponent)

    state = init_state(train_set.m, train_set.n, config)
    can_eval = eval_fn is not None or len(data.validation) > 0
    if eval_fn is None and can_eval:
        eval_fn = lambda model, proj, epoch: _default_eval(  # noqa: E731
            model, train_set, data.validation, config.scoring
        )

    best_metric = None
    best_epoch = None
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        sums: dict[str, float] = {}
        batches = make_batches(train_set, config.batch_size, config.seed, epoch)
        for batch_pairs in batches:
            step = train_step(state, batch_pairs, config, world, pop_table)
            for key, value in step.items():
                sums[key] = sums.get(key, 0.0) + value
        record = {k: v / len(batches) for k, v in sums.items()}
        record["epoch"] = epoch

        val_recall = val_ndcg = None
        if can_eval and (epoch % config.eval_every == 0 or epoch == config.epochs):
            val_recall, val_ndcg = eval_fn(state.model, state.projections, epoch)
            if val_ndcg is not None and (
                best_metric is None or val_ndcg > best_metric
            ):
                best_metric = val_ndcg
                best_epoch = epoch
                best_model = state.model.copy()
                best_proj = state.projections.copy()
        record["val_recall20"] = val_recall
        record["val_ndcg20"] = val_ndcg
        record["wall_ms"] = (time.perf_counter() - t0) * 1000.0
        history.append(record)
        log.info(
            "epoch %d: total=%.5f align=%.5f val_ndcg20=%s",
            epoch,
            record["total"],
            record["align"],
            "n/a" if val_ndcg is None else f"{val_ndcg:.4f}",
        )

    if best_metric is None:
        best_model = state.model.copy()
        best_proj = state.projections.copy()
    for model, proj in ((state.model, state.projections), (best_model, best_proj)):
        for name, value in _tensors(model, proj).items():
            if not np.isfinite(value).all():
                raise NumericalError(f"non-finite values in tensor {name!r} after training")
    return TrainResult(state, best_model, best_proj, best_epoch, best_metric, history)
