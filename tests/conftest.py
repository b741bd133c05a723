"""Shared test helpers: independent oracles and finite-difference checks.

Everything here is deliberately written the slow, obvious way (python
loops, full sorts) so it stays independent of the library code it checks.
"""

import math

import numpy as np
import pytest

from debias_cf.data import InteractionSet
from debias_cf.util import rng_from


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


def reference_uniformity_value_grad(vecs):
    """uniformity_value_grad unblocked: whole B x B temporaries, one
    expression per step."""
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


def reference_adam_step(opt, params, grads):
    """Dense Adam on float64 copies of the parameters, with row gradients
    zero-filled to the full table. opt is a trainer.Adam used only for its
    hyperparameters and state (t, m, v), which this function advances;
    grads maps a name to a dense array or to (rows, row_grads). Returns new
    arrays in the parameters' dtypes."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1**opt.t
    bc2 = 1.0 - opt.beta2**opt.t
    out = {}
    for name, g in grads.items():
        p = params[name].astype(np.float64)
        if isinstance(g, tuple):
            rows, row_grads = g
            g = np.zeros_like(p)
            g[rows] = row_grads
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        new = p - opt.lr * update - opt.lr * opt.weight_decay * p
        out[name] = new.astype(params[name].dtype)
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


def reference_sample_clicks(world, seed):
    """sample_clicks with its retry loop visiting every user in turn;
    returns the boolean click matrix."""
    rng = rng_from(seed, 41)
    prob = world.exposure.astype(np.float64) * world.relevance.astype(np.float64)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
