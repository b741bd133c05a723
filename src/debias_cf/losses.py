"""Loss kernels and their analytical gradients.

The contrastive objective decomposes into two pieces:

* alignment  - mean (optionally inverse-propensity weighted) squared
  distance between the L2-normalized vectors of positively interacting
  user-item pairs:  (1/B) sum_k w_k ||u_k - i_k||^2.
* uniformity - log of the mean Gaussian kernel over distinct same-side
  pairs:  log mean_{k != l} exp(-2 ||x_k - x_l||^2), computed separately
  for users and items and averaged.

With unit weights the alignment matches what click data trains directly;
with weights 1/omega it is an inverse-propensity-weighted estimator whose
expectation under the click model equals the relevance-weighted (ideal)
alignment. Uniformity needs no reweighting.

The same combination, with unit weights, applied to relation-space
projections of frozen base embeddings trains the projection matrices that
produce learned propensities; dau_param_grads computes it in both spaces.

Gradient conventions: the low-level kernels differentiate with respect to
their normalized inputs. The entry points the trainer calls take each
side's rows as the (unit rows, norms, degenerate) triple of
embedding.normalize_rows_full: dau_param_grads takes one per side, and
relation_forward returns the projections as such a pair for
relation_param_grads and ipw_through_projection_grads. They apply the
chain rule through L2 normalization and return gradients with respect to
raw embedding rows or projection matrices, so the optimizer never needs
to know about normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import InteractionSet, SyntheticWorld
from .embedding import (
    EmbeddingTable,
    normalize_rows,
    normalize_rows_backward,
    normalize_rows_full,
)
from .errors import ConfigError, DataError
from .propensity import project_rows
from .util import both


@dataclass
class LossTerms:
    """Decomposed objective values for one batch."""

    align: float
    uniform_user: float
    uniform_item: float
    total: float


# ---------------------------------------------------------------------------
# Kernels (gradients w.r.t. the normalized inputs)
# ---------------------------------------------------------------------------


def alignment_value_grad(
    u_norm: np.ndarray, i_norm: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted mean squared distance and its gradients.

    d/du_k = (2 w_k / B)(u_k - i_k); the item gradient is its negation.
    """
    b = len(weights)
    if b == 0:
        raise ConfigError("alignment needs a non-empty batch")
    diff = u_norm - i_norm
    sq = np.einsum("bd,bd->b", diff, diff)
    value = float(np.dot(weights, sq) / b)
    grad_u = (2.0 / b) * weights[:, None] * diff
    return value, grad_u, -grad_u


def pair_sq_dists(u_norm: np.ndarray, i_norm: np.ndarray) -> np.ndarray:
    diff = u_norm - i_norm
    return np.einsum("bd,bd->b", diff, diff)


#: Rows of the B x B kernel built per pass in uniformity_value_grad; one
#: block and its temporary stay in L2 cache at the trainer's batch sizes.
UNIFORMITY_BLOCK_ROWS = 32


def uniformity_value_grad(vecs: np.ndarray) -> tuple[float, np.ndarray]:
    """log mean_{k != l} exp(-2 ||x_k - x_l||^2) over ordered distinct pairs.

    With S = sum_{k != l} exp(-2 d_kl^2), the gradient is
    d/dx_k = -(8/S) sum_{l != k} e_kl (x_k - x_l).

    The kernel overwrites the Gram matrix block by block, with the same
    elementwise operations in the same order as the unblocked formula
    exp(-2 max(sqn_k + sqn_l - 2 G_kl, 0)), so results are bit-identical
    to it.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    b = vecs.shape[0]
    if b < 2:
        raise ConfigError("uniformity needs at least 2 vectors")
    # vecs @ vecs.T takes BLAS's symmetric (syrk) path; a general product
    # of vecs with a transposed copy can differ in the last bit.
    kernel = vecs @ vecs.T
    sqn = kernel.diagonal().copy()
    tmp = np.empty((min(UNIFORMITY_BLOCK_ROWS, b), b))
    for r0 in range(0, b, UNIFORMITY_BLOCK_ROWS):
        r1 = min(r0 + UNIFORMITY_BLOCK_ROWS, b)
        blk = kernel[r0:r1]
        t = tmp[: r1 - r0]
        np.add(sqn[r0:r1, None], sqn[None, :], out=t)
        blk *= 2.0
        np.subtract(t, blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk *= -2.0
        np.exp(blk, out=blk)
    kernel.flat[:: b + 1] = 0.0  # np.fill_diagonal without its checks
    total = kernel.sum()
    value = float(math.log(total / (b * (b - 1))))
    grad = (-8.0 / total) * (kernel.sum(axis=1)[:, None] * vecs - kernel @ vecs)
    return value, grad


def ideal_alignment_loss(
    model: EmbeddingTable, world: SyntheticWorld, pair_set: InteractionSet
) -> float:
    """Relevance-weighted alignment over a pair set, using ground truth.

    This is the quantity the weighted estimator converges to in
    expectation; it exists only for synthetic worlds and tests.
    """
    if (world.m, world.n) != (model.m, model.n):
        raise DataError("world dimensions do not match the model")
    if (pair_set.m, pair_set.n) != (model.m, model.n):
        raise DataError("pair set dimensions do not match the model")
    if len(pair_set) == 0:
        raise ConfigError("ideal alignment needs a non-empty pair set")
    pairs = pair_set.pairs
    u_norm = normalize_rows(model.user_vecs[pairs[:, 0]].astype(np.float64))
    i_norm = normalize_rows(model.item_vecs[pairs[:, 1]].astype(np.float64))
    rho = world.relevance[pairs[:, 0], pairs[:, 1]].astype(np.float64)
    return float(np.mean(rho * pair_sq_dists(u_norm, i_norm)))


# ---------------------------------------------------------------------------
# Parameter-gradient entry points (used by the trainer)
# ---------------------------------------------------------------------------


def _scatter_rows(inv: np.ndarray, pair_grads: np.ndarray, rows: int) -> np.ndarray:
    """Sum of the pair gradient rows per entity row: row inv[k] receives
    pair_grads[k]. One flat bincount adds each cell's terms in pair order
    starting from +0.0, as np.add.at into zeros does, so the result is
    bit-identical to it."""
    d = pair_grads.shape[1]
    flat = np.bincount((inv[:, None] * d + np.arange(d)).ravel(),
                       weights=pair_grads.ravel(), minlength=rows * d)
    return flat.reshape(rows, d)


def _accumulate_side(
    inv: np.ndarray,
    pair_grads: np.ndarray,
    unit: tuple[np.ndarray, np.ndarray, np.ndarray],
    coeff: float,
) -> tuple[np.ndarray, float]:
    """One side's gradient w.r.t. its raw rows and its uniformity value.

    unit is the normalize_rows_full result of the side's rows, which are
    one per entity. Scatters the per-pair alignment gradients onto the
    rows, adds the uniformity gradient and applies the chain rule through
    the normalization. A side with fewer than two distinct entities has no
    distinct pair and contributes zero uniformity. Reads nothing of the
    other side, so `both` may run the two sides at once.
    """
    rows_norm, norms, degenerate = unit
    grad = _scatter_rows(inv, pair_grads, len(rows_norm))
    unif = 0.0
    if rows_norm.shape[0] >= 2:
        unif, g_unif = uniformity_value_grad(rows_norm)
        if coeff != 0.0:
            grad += (coeff / 2.0) * g_unif
    return normalize_rows_backward(rows_norm, norms, degenerate, grad), unif


def dau_param_grads(
    user_unit: tuple[np.ndarray, np.ndarray, np.ndarray],
    item_unit: tuple[np.ndarray, np.ndarray, np.ndarray],
    u_inv: np.ndarray,
    i_inv: np.ndarray,
    weights: np.ndarray,
    gamma: float,
) -> tuple[LossTerms, np.ndarray, np.ndarray]:
    """Objective value and gradients w.r.t. raw unique rows, in either
    space: the CF embeddings (weights from the propensities, coefficient
    gamma) or the relation-space projections (unit weights, coefficient
    lambda_rel, called by relation_param_grads).

    user_unit/item_unit are the normalize_rows_full results of one raw row
    per distinct batch entity; u_inv and i_inv map each pair to its row.
    The returned gradients include the chain rule through L2
    normalization.
    """
    un, it = user_unit[0], item_unit[0]
    align, g_pu, g_pi = alignment_value_grad(un[u_inv], it[i_inv], weights)
    (grad_user, uu), (grad_item, ui) = both(
        lambda: _accumulate_side(u_inv, g_pu, user_unit, gamma),
        lambda: _accumulate_side(i_inv, g_pi, item_unit, gamma),
        min(len(un), len(it)),
    )
    total = align + gamma * (uu + ui) / 2.0
    return LossTerms(align, uu, ui, total), grad_user, grad_item


def relation_forward(
    base_user_norm: np.ndarray,
    base_item_norm: np.ndarray,
    m_user: np.ndarray,
    m_item: np.ndarray,
) -> tuple[tuple, tuple]:
    """Project normalized base rows into the relation space and normalize:
    the normalize_rows_full results of the user and the item projections.
    Their unit rows give the learned propensities; the norms feed the
    backward passes."""
    return (normalize_rows_full(project_rows(base_user_norm, m_user)),
            normalize_rows_full(project_rows(base_item_norm, m_item)))


def relation_param_grads(
    base_user_norm: np.ndarray,
    base_item_norm: np.ndarray,
    u_inv: np.ndarray,
    i_inv: np.ndarray,
    m_user: np.ndarray,
    m_item: np.ndarray,
    lambda_rel: float,
) -> tuple[LossTerms, np.ndarray, np.ndarray, tuple[tuple, tuple]]:
    """Relation-space objective and gradients w.r.t. the projection
    matrices only; the base normalized embeddings are constants here. The
    objective is dau_param_grads on the projected rows z = base @ M.T, so
    dL/dM = grad_z.T @ base. Also returns the relation_forward pair."""
    forward = relation_forward(base_user_norm, base_item_norm, m_user, m_item)
    terms, grad_zu, grad_zi = dau_param_grads(
        *forward, u_inv, i_inv, np.ones(len(u_inv)), lambda_rel
    )
    return terms, grad_zu.T @ base_user_norm, grad_zi.T @ base_item_norm, forward


def ipw_through_projection_grads(
    forward: tuple[tuple, tuple],
    base_user_norm: np.ndarray,
    base_item_norm: np.ndarray,
    u_inv: np.ndarray,
    i_inv: np.ndarray,
    omega_raw: np.ndarray,
    mu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the weighted alignment w.r.t. the projection matrices
    when the propensity weights are NOT detached.

    For w = 1/max(sigmoid(s), mu) and alignment (1/B) sum w_k d2_k, each
    unclipped pair contributes dL/ds_k = -(d2_k / B) (1 - sigma_k) / sigma_k,
    with d2_k the squared distance of the normalized base rows; a pair with
    omega_raw <= mu is clipped and contributes nothing. s_k is the dot of
    the normalized projections (forward, the relation_forward pair), so the
    gradient flows through both sides' projections into the matrices; the
    base embeddings stay frozen.
    """
    (pu, zu_norms, zu_deg), (pi, zi_norms, zi_deg) = forward
    b = len(u_inv)
    d2 = pair_sq_dists(base_user_norm[u_inv], base_item_norm[i_inv])
    dl_ds = -(d2 / b) * (1.0 - omega_raw) / omega_raw
    dl_ds = np.where(omega_raw <= mu, 0.0, dl_ds)
    grad_pu = _scatter_rows(u_inv, dl_ds[:, None] * pi[i_inv], len(pu))
    grad_pi = _scatter_rows(i_inv, dl_ds[:, None] * pu[u_inv], len(pi))
    grad_zu = normalize_rows_backward(pu, zu_norms, zu_deg, grad_pu)
    grad_zi = normalize_rows_backward(pi, zi_norms, zi_deg, grad_pi)
    return grad_zu.T @ base_user_norm, grad_zi.T @ base_item_norm
