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

The same combination applied to relation-space projections of frozen base
embeddings trains the projection matrices that produce learned
propensities.

Gradient conventions: the low-level kernels differentiate with respect to
their normalized inputs; the parameter-gradient entry points used by the
trainer (dau_param_grads, relation_param_grads) apply the chain rule
through L2 normalization and return gradients with respect to raw
embedding rows or projection matrices, so the optimizer never needs to
know about normalization.
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
    sqn = np.diagonal(kernel).copy()
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
    np.fill_diagonal(kernel, 0.0)
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


def _accumulate_side(
    n_rows: int,
    inv: np.ndarray,
    pair_grads: np.ndarray,
    rows_norm: np.ndarray,
    coeff: float,
) -> tuple[np.ndarray, float]:
    """Scatter per-pair alignment gradients onto unique rows and add the
    uniformity gradient (rows are already one-per-entity). A side with
    fewer than two distinct entities has no distinct pair and contributes
    zero uniformity."""
    grad = np.zeros_like(rows_norm)
    np.add.at(grad, inv, pair_grads)
    unif = 0.0
    if n_rows >= 2:
        unif, g_unif = uniformity_value_grad(rows_norm)
        if coeff != 0.0:
            grad += (coeff / 2.0) * g_unif
    return grad, unif


def dau_param_grads(
    user_rows: np.ndarray,
    item_rows: np.ndarray,
    u_inv: np.ndarray,
    i_inv: np.ndarray,
    weights: np.ndarray,
    gamma: float,
    unit: tuple[tuple, tuple] | None = None,
) -> tuple[LossTerms, np.ndarray, np.ndarray]:
    """Objective value and gradients w.r.t. raw unique embedding rows.

    user_rows/item_rows hold one raw row per distinct batch entity; u_inv
    and i_inv map each pair to its row. The returned gradients include the
    chain rule through L2 normalization. A caller that has already
    normalized the rows passes the two normalize_rows_full results as
    unit, so the rows are not normalized (and degenerate rows not logged)
    a second time.
    """
    if unit is None:
        unit = (normalize_rows_full(user_rows), normalize_rows_full(item_rows))
    (un, u_norms, u_deg), (it, i_norms, i_deg) = unit
    pair_u = un[u_inv]
    pair_i = it[i_inv]
    align, g_pu, g_pi = alignment_value_grad(pair_u, pair_i, weights)
    grad_un, uu = _accumulate_side(un.shape[0], u_inv, g_pu, un, gamma)
    grad_it, ui = _accumulate_side(it.shape[0], i_inv, g_pi, it, gamma)
    grad_user = normalize_rows_backward(un, u_norms, u_deg, grad_un)
    grad_item = normalize_rows_backward(it, i_norms, i_deg, grad_it)
    total = align + gamma * (uu + ui) / 2.0
    return LossTerms(align, uu, ui, total), grad_user, grad_item


@dataclass
class RelationForward:
    """Intermediates of the relation-space forward pass. The normalized
    projections give the learned propensities; the norms feed the backward
    passes."""

    proj_user_norm: np.ndarray  # (U, d) normalized projected user rows
    proj_item_norm: np.ndarray  # (I, d)
    zu_norms: np.ndarray
    zu_deg: np.ndarray
    zi_norms: np.ndarray
    zi_deg: np.ndarray


def relation_forward(
    base_user_norm: np.ndarray,
    base_item_norm: np.ndarray,
    m_user: np.ndarray,
    m_item: np.ndarray,
) -> RelationForward:
    """Project normalized base rows into the relation space and normalize."""
    pu, zu_norms, zu_deg = normalize_rows_full(project_rows(base_user_norm, m_user))
    pi, zi_norms, zi_deg = normalize_rows_full(project_rows(base_item_norm, m_item))
    return RelationForward(pu, pi, zu_norms, zu_deg, zi_norms, zi_deg)


def relation_param_grads(
    base_user_norm: np.ndarray,
    base_item_norm: np.ndarray,
    u_inv: np.ndarray,
    i_inv: np.ndarray,
    m_user: np.ndarray,
    m_item: np.ndarray,
    lambda_rel: float,
) -> tuple[LossTerms, np.ndarray, np.ndarray, RelationForward]:
    """Relation-space objective and gradients w.r.t. the projection
    matrices only; the base normalized embeddings are constants here."""
    forward = relation_forward(base_user_norm, base_item_norm, m_user, m_item)
    pu, pi = forward.proj_user_norm, forward.proj_item_norm
    ones = np.ones(len(u_inv), dtype=np.float64)
    align, g_ppu, g_ppi = alignment_value_grad(pu[u_inv], pi[i_inv], ones)
    grad_pu, uu = _accumulate_side(pu.shape[0], u_inv, g_ppu, pu, lambda_rel)
    grad_pi, ui = _accumulate_side(pi.shape[0], i_inv, g_ppi, pi, lambda_rel)
    grad_zu = normalize_rows_backward(pu, forward.zu_norms, forward.zu_deg, grad_pu)
    grad_zi = normalize_rows_backward(pi, forward.zi_norms, forward.zi_deg, grad_pi)
    grad_mu = grad_zu.T @ base_user_norm
    grad_mi = grad_zi.T @ base_item_norm
    total = align + lambda_rel * (uu + ui) / 2.0
    terms = LossTerms(align, uu, ui, total)
    return terms, grad_mu, grad_mi, forward


def ipw_through_projection_grads(
    forward: RelationForward,
    base_user_norm: np.ndarray,
    base_item_norm: np.ndarray,
    u_inv: np.ndarray,
    i_inv: np.ndarray,
    omega_raw: np.ndarray,
    clip_active: np.ndarray,
    base_sq_dists: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the weighted alignment w.r.t. the projection matrices
    when the propensity weights are NOT detached.

    For w = 1/max(sigmoid(s), mu) and alignment (1/B) sum w_k d2_k, each
    unclipped pair contributes dL/ds_k = -(d2_k / B) (1 - sigma_k) / sigma_k;
    clipped pairs contribute nothing. s_k is the dot of the normalized
    projections, so the gradient flows through both sides' projections into
    the matrices; the base embeddings stay frozen.
    """
    b = len(u_inv)
    dl_ds = -(base_sq_dists / b) * (1.0 - omega_raw) / omega_raw
    dl_ds = np.where(clip_active, 0.0, dl_ds)
    pu_pairs = forward.proj_user_norm[u_inv]
    pi_pairs = forward.proj_item_norm[i_inv]
    grad_pu = np.zeros_like(forward.proj_user_norm)
    grad_pi = np.zeros_like(forward.proj_item_norm)
    np.add.at(grad_pu, u_inv, dl_ds[:, None] * pi_pairs)
    np.add.at(grad_pi, i_inv, dl_ds[:, None] * pu_pairs)
    grad_zu = normalize_rows_backward(
        forward.proj_user_norm, forward.zu_norms, forward.zu_deg, grad_pu
    )
    grad_zi = normalize_rows_backward(
        forward.proj_item_norm, forward.zi_norms, forward.zi_deg, grad_pi
    )
    return grad_zu.T @ base_user_norm, grad_zi.T @ base_item_norm
