"""Shared test helpers: independent oracles and finite-difference checks.

Everything here is deliberately written the slow, obvious way (python
loops, full sorts) so it stays independent of the library code it checks.
"""

import math

import numpy as np
import pytest

from debias_cf.data import InteractionSet


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
