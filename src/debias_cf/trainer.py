"""Minibatch training loop: batching, Adam, and the joint-objective
gradient partition.

Alignment weights enter train_step through one argument: train resolves
the oracle and popularity propensities into one weight per training pair
once per run, directau uses unit weights, and uctrl learns its own.

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

import functools
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
from .util import both, check_seed, rng_from

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

    def validate(self) -> "TrainConfig":
        check_seed(self.seed)
        # NaN and inf slip past the range checks below.
        for name in ("lr", "gamma", "lambda_rel", "weight_decay"):
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
        evaluation.check_topk_options(SELECTION_K, self.scoring)
        return self


#: Rows of a tensor per pass of Adam's bias-corrected update; the block's
#: two temporaries, in the tensor's dtype, stay in L2 cache.
ADAM_BLOCK_ROWS = 512


class Adam:
    """Plain Adam with bias correction and decoupled weight decay.

    The constructor takes the tensors by name and reads only their shapes
    and dtypes: moments are held in each tensor's own dtype, so float32
    tables get float32 moments and float32 arithmetic. One shared step
    counter advances per batch. The update is dense: every
    row's moments decay and every row moves, also rows the batch did not
    touch.

    A step runs in two lanes through `util.both`: the rows of the stepped
    tensors, taken in order, are cut at the middle row, and the second
    half goes to the worker thread while the caller's thread updates the
    first. Each element goes through the same operations either way, so
    the result does not depend on where the lanes run. Each lane owns one
    byte buffer allocated here and viewed in each tensor's dtype as its
    two block temporaries, so a step allocates no block memory.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        block = max((2 * min(ADAM_BLOCK_ROWS, len(p)) * p[:1].nbytes for p in params.values()),
                    default=0)
        self._scratch = [np.empty(block, dtype=np.uint8) for _ in range(2)]

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    ) -> dict[str, np.ndarray]:
        """One update over the tensors named in grads, written into params
        in place; returns the updated tensors.

        A gradient is either an array of the tensor's shape or a pair
        (rows, row_grads) of strictly increasing row indices and their
        gradient rows; the rows it leaves out have zero gradient. Other
        row indices, or a tensor whose dtype is not its moments', raise
        ValueError naming the tensor. The gradient is rounded to the
        tensor's dtype and the arithmetic runs in that dtype, so the result
        is exactly dense Adam in that dtype with a zero-filled gradient.
        """
        tensors = [(params[name], self.m[name], self.v[name],
                    *_row_gradient(name, params[name], self.m[name], g))
                   for name, g in grads.items()]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        cut = sum(len(tensor[0]) for tensor in tensors) // 2
        lanes = ([], [])
        start = 0
        for tensor in tensors:
            stop = start + len(tensor[0])
            if start < cut:
                lanes[0].append((tensor, 0, min(stop, cut) - start))
            if stop > cut:
                lanes[1].append((tensor, max(start, cut) - start, stop - start))
            start = stop
        both(functools.partial(self._lane, lanes[0], self._scratch[0], bc1, bc2),
             functools.partial(self._lane, lanes[1], self._scratch[1], bc1, bc2),
             cut)
        return {name: params[name] for name in grads}

    def _lane(self, segments, scratch, bc1: float, bc2: float) -> None:
        """Update rows lo:hi of each (tensor, lo, hi) in segments: decay
        both moments, add the gradient rows that fall in the range, then
        move the parameters 512 rows at a time through scratch."""
        b1, b2 = self.beta1, self.beta2
        lr_wd = self.lr * self.weight_decay
        for (p, m, v, rows, g), lo, hi in segments:
            m_seg, v_seg = m[lo:hi], v[lo:hi]
            m_seg *= b1
            v_seg *= b2
            # A zero gradient would add +0.0, which leaves every moment
            # unchanged (a moment is never -0.0), so only touched rows add.
            if rows is None:
                g = g[lo:hi]
                m_seg += (1.0 - b1) * g
                v_seg += (1.0 - b2) * g * g
            else:
                a, b = np.searchsorted(rows, (lo, hi))
                rows, g = rows[a:b], g[a:b]
                m[rows] += (1.0 - b1) * g
                v[rows] += (1.0 - b2) * g * g
            for r0 in range(lo, hi, ADAM_BLOCK_ROWS):
                blk = slice(r0, min(r0 + ADAM_BLOCK_ROWS, hi))
                p_blk = p[blk]
                den, upd = scratch[: 2 * p_blk.nbytes].view(p.dtype).reshape(2, *p_blk.shape)
                np.divide(v[blk], bc2, out=den)
                np.sqrt(den, out=den)
                den += self.eps
                # bc1 is float64, 1.0 from step 356 on; in float32 it rounds
                # to 1.0 from step 165, and m / 1.0 is m either way.
                if bc1 == 1.0:
                    np.divide(m[blk], den, out=upd)
                else:
                    np.divide(m[blk], bc1, out=upd)
                    upd /= den
                upd *= self.lr
                # (p - lr * update) - (lr * wd) * p
                np.subtract(p_blk, upd, out=upd)
                if lr_wd == 0.0:
                    # p finite: x - 0*p is x + 0.0, signed zeros included
                    upd += 0.0
                else:
                    np.multiply(lr_wd, p_blk, out=den)
                    upd -= den
                p_blk[...] = upd


def _row_gradient(name: str, p: np.ndarray, m: np.ndarray, g) -> tuple:
    """(rows, row_grads) of one tensor's gradient, rows None for a dense
    gradient, the gradient rounded to the tensor's dtype. A lane takes the
    gradient rows inside its range, so row indices must be strictly
    increasing and within the tensor, one gradient row each; otherwise,
    or when the tensor's dtype differs from its moments' m, ValueError
    names the tensor. (numpy's buffered m[rows] += ... would also keep
    only one of a repeated row's gradients.)"""
    if p.dtype != m.dtype:
        raise ValueError(f"tensor {name!r} is {p.dtype}, its Adam moments {m.dtype}")
    if not isinstance(g, tuple):
        return None, np.asarray(g, dtype=p.dtype)
    rows, g = np.asarray(g[0]), np.asarray(g[1], dtype=p.dtype)
    if rows.ndim != 1 or g.shape != rows.shape + p.shape[1:]:
        raise ValueError(f"tensor {name!r}: {len(rows)} row indices with gradient "
                         f"rows of shape {g.shape}")
    if len(rows) and (rows[0] < 0 or rows[-1] >= len(p) or (rows[1:] <= rows[:-1]).any()):
        raise ValueError(f"tensor {name!r}: row indices must be strictly increasing "
                         f"and lie in [0, {len(p)})")
    return rows, g


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
    """Seeded permutation of the positions of all clicked pairs in
    train.pairs, chunked into batches. A trailing single-pair batch is
    merged into the previous one."""
    if len(train) == 0:
        raise DataError("cannot batch an empty training set")
    perm = rng_from(seed, 51, epoch).permutation(len(train))
    chunks = [perm[i : i + batch_size] for i in range(0, len(perm), batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) < 2:
        chunks[-2:] = [np.concatenate(chunks[-2:])]
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
    model, projections = init_model(m, n, config.d, config.seed)
    opt = Adam(_tensors(model, projections), lr=config.lr, weight_decay=config.weight_decay)
    return TrainState(model, projections, opt)


def _check_finite(grads: dict, values: dict, step: int) -> None:
    for name, g in grads.items():
        if isinstance(g, tuple):
            g = g[1]
        if not np.isfinite(g).all():
            raise NumericalError(
                f"non-finite gradient in tensor {name!r} at step {step}"
            )
    for name, value in values.items():
        if not math.isfinite(value):
            raise NumericalError(f"non-finite loss term {name!r} at step {step}")


def train_step(
    state: TrainState,
    pairs: np.ndarray,
    config: TrainConfig,
    weights: np.ndarray | None = None,
) -> dict[str, float]:
    """One optimizer step on one batch of positive pairs. Mutates state
    and returns the batch's train-log values: the main terms, the relation
    terms (zero without one) and their total, checked finite with the
    gradients before the update. weights, one per pair, is required by the
    ipw objectives; None is unit weights for directau, uctrl learns its own."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    model, proj = state.model, state.projections
    uids, u_inv = np.unique(pairs[:, 0], return_inverse=True)
    iids, i_inv = np.unique(pairs[:, 1], return_inverse=True)
    user_unit = normalize_rows_full(model.user_vecs[uids])
    item_unit = normalize_rows_full(model.item_vecs[iids])

    rel = losses.LossTerms(0.0, 0.0, 0.0, 0.0)  # no relation term
    grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]] = {}
    if config.objective == "uctrl":
        base_u_norm, base_i_norm = user_unit[0], item_unit[0]
        rel, g_mu, g_mi, forward = losses.relation_param_grads(
            base_u_norm, base_i_norm, u_inv, i_inv, proj.m_user, proj.m_item, config.lambda_rel)
        omega_raw = _learned_omega_raw(forward, u_inv, i_inv)
        _, weights = propensity.inverse_weights(omega_raw, config.mu)
        if config.propensity_grad_through:
            extra_mu, extra_mi = losses.ipw_through_projection_grads(
                forward, base_u_norm, base_i_norm, u_inv, i_inv, omega_raw, config.mu
            )
            g_mu = g_mu + extra_mu
            g_mi = g_mi + extra_mi
        grads["m_user"] = g_mu
        grads["m_item"] = g_mi
    elif weights is None:
        if config.objective != "directau":
            raise ConfigError(f"objective {config.objective} needs per-pair weights")
        weights = np.ones(len(pairs), dtype=np.float64)
    main_terms, g_user, g_item = losses.dau_param_grads(
        user_unit, item_unit, u_inv, i_inv, weights, config.gamma
    )

    # Row gradients: Adam gives the rows outside the batch zero gradient,
    # so their moments still decay (dense-Adam semantics).
    grads["user_vecs"] = (uids, g_user)
    grads["item_vecs"] = (iids, g_item)
    values = {
        "align": main_terms.align,
        "uniform_user": main_terms.uniform_user,
        "uniform_item": main_terms.uniform_item,
        "relation_align": rel.align,
        "relation_uniform": (rel.uniform_user + rel.uniform_item) / 2.0,
        "total": main_terms.total + rel.total,
    }
    _check_finite(grads, values, state.opt.t + 1)
    state.opt.step(_tensors(model, proj), grads)
    return values


def _learned_omega_raw(forward: tuple, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Raw learned omega of the pairs (users[k], items[k]), read from the
    unit rows of a losses.relation_forward pair; the one read of omega for
    train_step and learned_propensities."""
    (proj_u, _, _), (proj_i, _, _) = forward
    return propensity.estimate_learned(proj_u[users], proj_i[items])


def learned_propensities(
    model: EmbeddingTable, projections: ProjectionPair, pairs: np.ndarray, mu: float
) -> np.ndarray:
    """Clipped learned propensity of each pair, the omega whose inverse
    train_step uses as the uctrl alignment weight."""
    forward = losses.relation_forward(normalize_rows(model.user_vecs),
                                      normalize_rows(model.item_vecs),
                                      projections.m_user, projections.m_item)
    omega_raw = _learned_omega_raw(forward, pairs[:, 0], pairs[:, 1])
    return propensity.inverse_weights(omega_raw, mu)[0]


def train(
    data: SplitBundle,
    config: TrainConfig,
    world: SyntheticWorld | None = None,
    eval_fn=None,
) -> TrainResult:
    """Run the full loop and keep the checkpoint with the best validation
    ranking quality.

    eval_fn(model, projections, epoch) -> (recall, ndcg) may be injected, as
    tests do and as the benchmark does to time validation; the default ranks
    the validation pairs, if any, with the training items masked. History
    records one JSON-ready dict per epoch, and each epoch logs one INFO line.
    A non-finite value in the final or best tensors raises NumericalError:
    the per-step gradient check cannot see what the last steps write.
    """
    config.validate()
    train_set = data.train
    if len(train_set) == 0:
        raise DataError("training set is empty")
    weights = None  # one per training pair, for the fixed propensities
    if config.objective == "ipw_align_oracle":
        if world is None:
            raise ConfigError("objective ipw_align_oracle requires a synthetic world")
        if (world.m, world.n) != (train_set.m, train_set.n):
            raise DataError(
                f"world is {world.m}x{world.n} but the split is "
                f"{train_set.m}x{train_set.n}"
            )
        omega_raw = propensity.estimate_oracle(world, train_set.pairs)
        _, weights = propensity.inverse_weights(omega_raw, config.mu)
    elif config.objective == "ipw_align_pop":
        table = propensity.item_popularity_table(train_set)
        _, weights = propensity.inverse_weights(table[train_set.pairs[:, 1]], config.mu)

    state = init_state(train_set.m, train_set.n, config)
    if eval_fn is None and len(data.validation):
        def eval_fn(model, projections, epoch):
            report = evaluation.evaluate_topk(
                model, train_set, data.validation, k=SELECTION_K, scoring=config.scoring
            )
            return report.recall_at_k, report.ndcg_at_k

    best_metric = None
    best_epoch = None
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        sums: dict[str, float] = {}
        batches = make_batches(train_set, config.batch_size, config.seed, epoch)
        for idx in batches:
            batch_weights = None if weights is None else weights[idx]
            step = train_step(state, train_set.pairs[idx], config, batch_weights)
            for key, value in step.items():
                sums[key] = sums.get(key, 0.0) + value
        record = {k: v / len(batches) for k, v in sums.items()}
        record["epoch"] = epoch

        val_recall = val_ndcg = None
        if eval_fn is not None and (epoch % config.eval_every == 0 or epoch == config.epochs):
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
