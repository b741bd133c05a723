"""Shared test helpers: independent oracles and finite-difference checks.

Everything here is deliberately written the slow, obvious way (python
loops, full sorts) so it stays independent of the library code it checks.
"""

import math

import numpy as np
import pytest

from debias_cf import data as dm
from debias_cf.data import InteractionSet, SyntheticWorld
from debias_cf.errors import DataError
from debias_cf.losses import (
    LossTerms,
    _accumulate_side,
    alignment_value_grad,
    relation_forward,
)
from debias_cf.util import both, rng_from


def central_difference(f, arr, h=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. array arr."""
    grad = np.zeros_like(arr, dtype=np.float64)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


def max_relative_error(analytical, numerical, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytical), np.abs(numerical)), floor)
    return float(np.max(np.abs(analytical - numerical) / denom))


def brute_force_uniformity(vecs):
    """Double-loop log-mean Gaussian kernel over ordered distinct pairs."""
    b = len(vecs)
    total = 0.0
    for k in range(b):
        for l in range(b):
            if k == l:
                continue
            d2 = float(np.sum((vecs[k] - vecs[l]) ** 2))
            total += math.exp(-2.0 * d2)
    return math.log(total / (b * (b - 1)))


def brute_force_topk(user_vecs, item_vecs, train_items, test_items, k):
    """Reference top-k evaluation: full python sort, no shortcuts.

    Returns (mean recall, mean ndcg, per-user dict). Ties broken by
    ascending item index via sort key (-score, item).
    """
    recalls, ndcgs, per_user = [], [], {}
    n = len(item_vecs)
    for user in range(len(user_vecs)):
        test = set(test_items.get(user, ()))
        if not test:
            continue
        masked = set(train_items.get(user, ()))
        scored = [
            (-float(np.dot(user_vecs[user], item_vecs[i])), i)
            for i in range(n)
            if i not in masked
        ]
        scored.sort()
        top = [i for _, i in scored[:k]]
        hits = [r + 1 for r, i in enumerate(top) if i in test]
        recall = len(hits) / len(test)
        dcg = sum(1.0 / math.log2(r + 1) for r in hits)
        idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(test)) + 1))
        ndcg = dcg / idcg
        recalls.append(recall)
        ndcgs.append(ndcg)
        per_user[user] = (recall, ndcg)
    return float(np.mean(recalls)), float(np.mean(ndcgs)), per_user


def _reference_scatter(block, pairs, users):
    """Set block[r, i] for every pair (users[r], i), read from the CSR ranges."""
    start = pairs.user_ptr[users]
    lens = pairs.user_ptr[users + 1] - start
    pos = np.arange(lens.sum()) + np.repeat(start - np.cumsum(lens) + lens, lens)
    block[np.repeat(np.arange(len(users)), lens), pairs.pairs[pos, 1]] = True


def reference_eval_users(users, user_mat, item_mat, k, masks, test, idcg):
    """evaluation._eval_users before the partition-head ranking: a full-row
    pass over the tie mask (cumsum, nonzero) picks every row's top k, and
    masked items are scattered through a B x n mask. Takes the item rows
    themselves, not their negation."""
    n = item_mat.shape[0]
    top = min(k, n)
    neg = -(user_mat @ item_mat.T)
    masked = np.zeros(neg.shape, dtype=bool)
    for mask in masks:
        _reference_scatter(masked, mask, users)
    neg[masked] = np.inf
    n_candidates = n - masked.sum(axis=1)

    # Keep the items strictly better than the top-th value, then fill up
    # with the lowest-id items tied with it; a stable sort of the kept ids
    # then orders them as a stable sort of all n negated scores would.
    kth = np.partition(neg, top - 1, axis=1)[:, top - 1 : top]
    better = neg < kth
    tied = neg == kth
    need = top - better.sum(axis=1, keepdims=True)
    keep = better | (tied & (np.cumsum(tied, axis=1) <= need))
    ids = np.nonzero(keep)[1].reshape(len(users), top)
    by_score = np.argsort(np.take_along_axis(neg, ids, axis=1), axis=1, kind="stable")
    ranked = np.take_along_axis(ids, by_score, axis=1)

    is_test = np.zeros(neg.shape, dtype=bool)
    _reference_scatter(is_test, test, users)
    hits = np.take_along_axis(is_test, ranked, axis=1)
    hits &= np.arange(top) < np.minimum(k, n_candidates)[:, None]
    n_test = test.user_ptr[users + 1] - test.user_ptr[users]
    gains = 1.0 / np.log2(np.arange(2, top + 2))
    # A sequential sum, as the rank-by-rank definition of DCG reads.
    dcg = np.cumsum(np.where(hits, gains, 0.0), axis=1)[:, -1]
    recall = hits.sum(axis=1) / n_test
    ndcg = dcg / idcg[np.minimum(k, n_test)]
    out = n_candidates == 0
    recall[out] = np.nan
    ndcg[out] = np.nan
    return recall, ndcg


def reference_uniformity_value_grad(vecs):
    """uniformity_value_grad in the distance form, from squared norms:
    exp(-2 max(||x_k||^2 + ||x_l||^2 - 2 G_kl, 0)) and its gradient
    -(8/S) sum_l e_kl (x_k - x_l). On unit rows it agrees with the kernel
    in value and in the gradient's part tangent to each row."""
    vecs = np.asarray(vecs, dtype=np.float64)
    b = vecs.shape[0]
    gram = vecs @ vecs.T
    sqn = np.diagonal(gram)
    d2 = np.maximum(sqn[:, None] + sqn[None, :] - 2.0 * gram, 0.0)
    kernel = np.exp(-2.0 * d2)
    np.fill_diagonal(kernel, 0.0)
    total = kernel.sum()
    value = float(math.log(total / (b * (b - 1))))
    grad = (-8.0 / total) * (kernel.sum(axis=1)[:, None] * vecs - kernel @ vecs)
    return value, grad


def reference_uniformity_single_matrix(vecs):
    """uniformity_value_grad as one B x B matrix: exp(4 (G - 1)) built in
    place from the whole Gram product G, a zero diagonal, its sum S, the
    value log(S / (B (B - 1))) and the gradient (8/S) K x. The block loop
    computes exactly this when the rows fit in one block."""
    vecs = np.asarray(vecs, dtype=np.float64)
    b = vecs.shape[0]
    kernel = vecs @ vecs.T
    kernel -= 1.0
    kernel *= 4.0
    np.exp(kernel, out=kernel)
    kernel.flat[:: b + 1] = 0.0
    total = kernel.sum()
    return float(math.log(total / (b * (b - 1)))), (8.0 / total) * (kernel @ vecs)


def reference_relation_param_grads(
    base_user_norm, base_item_norm, u_inv, i_inv, m_user, m_item, lambda_rel
):
    """relation_param_grads with its own contrastive combination: its own
    alignment call, and each side's uniformity, chain rule and projection
    product run together through `both`."""
    forward = relation_forward(base_user_norm, base_item_norm, m_user, m_item)
    user_unit, item_unit = forward
    pu, pi = user_unit[0], item_unit[0]
    ones = np.ones(len(u_inv), dtype=np.float64)
    align, g_ppu, g_ppi = alignment_value_grad(pu[u_inv], pi[i_inv], ones)

    def side(inv, pair_grads, unit, base):
        grad_z, unif = _accumulate_side(inv, pair_grads, unit, lambda_rel)
        return grad_z.T @ base, unif

    (grad_mu, uu), (grad_mi, ui) = both(
        lambda: side(u_inv, g_ppu, user_unit, base_user_norm),
        lambda: side(i_inv, g_ppi, item_unit, base_item_norm),
        min(len(pu), len(pi)),
    )
    total = align + lambda_rel * (uu + ui) / 2.0
    terms = LossTerms(align, uu, ui, total)
    return terms, grad_mu, grad_mi, forward


def reference_scatter_rows(inv, pair_grads, rows):
    """Per-row sums of pair gradient rows: np.add.at into zeros, which adds
    each pair to row inv[k] in pair order starting from +0.0."""
    out = np.zeros((rows, pair_grads.shape[1]))
    np.add.at(out, inv, pair_grads)
    return out


def reference_adam_step(opt, params, grads):
    """Dense Adam in each parameter's dtype, with row gradients zero-filled
    to the full table and every gradient rounded to that dtype. opt is a
    trainer.Adam used only for its hyperparameters and state (t, m, v),
    which this function advances; grads maps a name to a dense array or to
    (rows, row_grads). Returns the new arrays."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1**opt.t
    bc2 = 1.0 - opt.beta2**opt.t
    out = {}
    for name, g in grads.items():
        p = params[name]
        if isinstance(g, tuple):
            rows, row_grads = g
            g = np.zeros_like(p)
            g[rows] = row_grads
        g = np.asarray(g, dtype=p.dtype)
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        out[name] = p - opt.lr * update - opt.lr * opt.weight_decay * p
    return out


def unit_inverse_weights(omega_raw, mu):
    """Stand-in for propensity.inverse_weights that sets every propensity
    and alignment weight to 1; the embedding update then matches the
    biased objective's."""
    ones = np.ones(len(omega_raw), dtype=np.float64)
    return ones, ones


def random_interaction_set(rng, m=None, n=None, density=0.3, ensure_users=True):
    """Random InteractionSet; with ensure_users every user gets >= 1 pair."""
    m = m or int(rng.integers(2, 12))
    n = n or int(rng.integers(2, 15))
    grid = rng.random((m, n)) < density
    if ensure_users:
        for u in range(m):
            if not grid[u].any():
                grid[u, int(rng.integers(0, n))] = True
    users, items = np.nonzero(grid)
    pairs = np.stack([users, items], axis=1)
    return InteractionSet(m, n, pairs)


def pair_set(iset):
    """The set's (user, item) pairs as a set of int tuples."""
    return {(int(u), int(i)) for u, i in iset.pairs}


def user_items(iset, u):
    """User u's items, ascending: its CSR range of the sorted pairs."""
    return iset.pairs[iset.user_ptr[u] : iset.user_ptr[u + 1], 1]


def oracle_index(iset):
    """by_user, by_item, user counts and item counts from one boolean scan
    of all pairs per user and per item."""
    pairs = iset.pairs
    by_user = [np.sort(pairs[pairs[:, 0] == u, 1]) for u in range(iset.m)]
    by_item = [np.sort(pairs[pairs[:, 1] == i, 0]) for i in range(iset.n)]
    user_counts = np.array([len(b) for b in by_user], dtype=np.int64)
    item_counts = np.array([len(b) for b in by_item], dtype=np.int64)
    return by_user, by_item, user_counts, item_counts


def _stochastic_round(x, rng):
    base = math.floor(x)
    return base + (1 if rng.random() < x - base else 0)


def reference_split(data, test_frac, valid_frac, seed, sampling="per_item"):
    """split_unbiased_protocol's draws, in the same order, found by a
    full-column scan per item and per user. Returns the train, validation
    and test pair arrays and the number of users the repair pass rescued."""
    rng = rng_from(seed, 21)
    pairs = data.pairs
    p_total = len(pairs)
    in_test = np.zeros(p_total, dtype=bool)

    if sampling == "per_item":
        for item in range(data.n):
            idx = np.flatnonzero(pairs[:, 1] == item)
            if len(idx) == 0:
                continue
            quota = _stochastic_round(test_frac * len(idx), rng)
            if quota > 0:
                chosen = rng.choice(len(idx), size=min(quota, len(idx)), replace=False)
                in_test[idx[chosen]] = True
    else:
        quota = _stochastic_round(test_frac * p_total, rng)
        if quota > 0:
            chosen = rng.choice(p_total, size=min(quota, p_total), replace=False)
            in_test[chosen] = True

    remainder = np.flatnonzero(~in_test)
    valid_rate = valid_frac / (1.0 - test_frac)
    in_valid = np.zeros(p_total, dtype=bool)
    quota = _stochastic_round(valid_rate * len(remainder), rng)
    if quota > 0:
        chosen = rng.choice(len(remainder), size=min(quota, len(remainder)), replace=False)
        in_valid[remainder[chosen]] = True

    in_train = ~(in_test | in_valid)

    repaired = 0
    train_users = set(pairs[in_train, 0].tolist())
    for user in range(data.m):
        if user in train_users:
            continue
        owned = np.flatnonzero(pairs[:, 0] == user)
        if len(owned) == 0:
            continue
        from_valid = owned[in_valid[owned]]
        source = from_valid if len(from_valid) else owned[in_test[owned]]
        take = int(source[0])
        in_valid[take] = False
        in_test[take] = False
        in_train[take] = True
        repaired += 1

    return pairs[in_train], pairs[in_valid], pairs[in_test], repaired


def reference_world_cells(world):
    """Relevance and exposure of every cell of a world, as whole m x n
    float32 matrices: one product of all latent rows, one sigmoid."""
    exposure = np.clip(world.activity[:, None] * world.item_weight[None, :],
                       dm.EXPOSURE_FLOOR, 1.0)
    logits = (world.latent_u @ world.latent_i.T) * (
        dm._WORLD_SHARPNESS / math.sqrt(dm._WORLD_LATENT_D))
    return reference_sigmoid(logits).astype(np.float32), exposure.astype(np.float32)


def world_cells(world):
    """Relevance and exposure of every cell as read through the data layer,
    as m x n float32 matrices."""
    uu, ii = np.meshgrid(np.arange(world.m), np.arange(world.n), indexing="ij")
    cells = np.stack([uu.ravel(), ii.ravel()], axis=1)
    return (dm.relevance_cells(world, cells).reshape(world.m, world.n),
            dm.exposure_cells(world, cells).reshape(world.m, world.n))


def reference_sample_clicks(world, seed):
    """sample_clicks with its retry loop visiting every user in turn;
    returns the boolean click matrix."""
    rng = rng_from(seed, 41)
    relevance, exposure = reference_world_cells(world)
    prob = exposure.astype(np.float64) * relevance.astype(np.float64)
    clicks = rng.random(prob.shape) < prob
    for user in range(world.m):
        if clicks[user].any():
            continue
        for _ in range(10):
            clicks[user] = rng.random(world.n) < prob[user]
            if clicks[user].any():
                break
        else:
            clicks[user, int(np.argmax(prob[user]))] = True
    return clicks


def _reference_text_lines(path):
    """Numbered lines of a UTF-8 text file; undecodable bytes are a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def reference_load_interactions(path, lenient=False):
    """load_interactions line by line: text-mode universal newlines, one
    dict lookup per id and one set lookup per pair."""
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for lineno, line in _reference_text_lines(path):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 and not (lenient and len(fields) > 2):
            raise DataError(
                f"{path}: line {lineno}: expected 2 tab-separated fields, "
                f"got {len(fields)}"
            )
        uid, iid = fields[0], fields[1]
        if not uid or not iid:
            raise DataError(f"{path}: line {lineno}: empty id")
        u = users.setdefault(uid, len(users))
        i = items.setdefault(iid, len(items))
        if (u, i) not in seen:
            seen.add((u, i))
            pairs.append((u, i))
    if not pairs:
        raise DataError(f"{path}: no interactions")
    return InteractionSet(
        m=len(users),
        n=len(items),
        pairs=np.array(pairs, dtype=np.int64),
        user_labels=list(users),
        item_labels=list(items),
    )


def reference_read_pairs_tsv(path, u_map, i_map, m, n, user_labels, item_labels):
    """One split file read line by line, ids looked up in u_map and i_map."""
    pairs = []
    for lineno, line in _reference_text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        try:
            pairs.append((u_map[fields[0]], i_map[fields[1]]))
        except KeyError as exc:
            raise DataError(f"{path}: line {lineno}: unknown id {exc}") from None
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return InteractionSet(m, n, arr, user_labels, item_labels)


def reference_sigmoid(x):
    """The logistic function with a boolean gather and scatter per sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_generate_synthetic_world(m, n, skew, seed):
    """generate_synthetic_world's draws, with their cells as whole m x n
    float32 matrices: (relevance, exposure)."""
    rng = rng_from(seed, 31)
    ranks = rng.permutation(n) + 1
    item_weight = (1.0 / np.sqrt(ranks)) ** skew
    activity = rng.uniform(dm._WORLD_ACTIVITY_LO, dm._WORLD_ACTIVITY_HI, size=m)
    latent_u = rng.normal(size=(m, dm._WORLD_LATENT_D))
    latent_i = rng.normal(size=(n, dm._WORLD_LATENT_D))
    return reference_world_cells(SyntheticWorld(m, n, item_weight, activity, latent_u, latent_i))


def factor_world(exposure, logits):
    """A world whose cells all have the given exposure (in [0.01, 1]) and
    relevance sigmoid(logits[u, i]), up to the rounding of logits / scale *
    scale, for an m x n logits matrix with min(m, n) at most the latent
    dimension: the shorter side's latent rows are unit vectors."""
    logits = np.asarray(logits, dtype=np.float64)
    m, n = logits.shape
    d = dm._WORLD_LATENT_D
    assert min(m, n) <= d
    scale = dm._WORLD_SHARPNESS / math.sqrt(d)
    latent_u, latent_i = np.zeros((m, d)), np.zeros((n, d))
    if m <= n:
        latent_u[:, :m] = np.eye(m)
        latent_i[:, :m] = logits.T / scale
    else:
        latent_u[:, :n] = logits / scale
        latent_i[:, :n] = np.eye(n)
    return SyntheticWorld(m, n, np.full(n, exposure), np.ones(m), latent_u, latent_i)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
