"""Top-K ranking evaluation and popularity-group alignment diagnostics."""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import InteractionSet
from .embedding import EmbeddingTable, normalize_rows
from .errors import ConfigError, DataError
from .losses import pair_sq_dists

log = logging.getLogger(__name__)

_CHUNK = 64


@dataclass
class MetricsReport:
    k: int
    recall_at_k: float
    ndcg_at_k: float
    n_eval_users: int
    per_user: list[tuple[int, float, float]] | None = None

    def to_dict(self) -> dict:
        out = {
            "k": self.k,
            "recall_at_k": self.recall_at_k,
            "ndcg_at_k": self.ndcg_at_k,
            "n_eval_users": self.n_eval_users,
        }
        if self.per_user is not None:
            out["per_user"] = [
                {"user": u, "recall": r, "ndcg": n} for u, r, n in self.per_user
            ]
        return out


@dataclass
class GroupAlignmentReport:
    pop_user_align: float
    unpop_user_align: float
    pop_item_align: float
    unpop_item_align: float
    split_ratio: float

    def to_dict(self) -> dict:
        return {
            "pop_user_align": self.pop_user_align,
            "unpop_user_align": self.unpop_user_align,
            "pop_item_align": self.pop_item_align,
            "unpop_item_align": self.unpop_item_align,
            "split_ratio": self.split_ratio,
        }


def _n_threads(requested: int | None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("DEBIAS_CF_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            log.warning("ignoring non-integer DEBIAS_CF_THREADS=%r", env)
    return min(4, os.cpu_count() or 1)


def _idcg(n_hits_possible: int) -> float:
    return sum(1.0 / math.log2(r + 1) for r in range(1, n_hits_possible + 1))


def _eval_users(
    users: np.ndarray,
    user_mat: np.ndarray,
    item_mat: np.ndarray,
    k: int,
    test_items: list[np.ndarray],
    masked_items: list[np.ndarray],
    recalls: np.ndarray,
    ndcgs: np.ndarray,
    excluded: list[int],
) -> None:
    n = item_mat.shape[0]
    scores_chunk = user_mat @ item_mat.T
    for row, user in enumerate(users):
        scores = scores_chunk[row].copy()
        mask = masked_items[user]
        scores[mask] = -np.inf
        n_candidates = n - len(mask)
        if n_candidates <= 0:
            excluded.append(int(user))
            continue
        k_eff = min(k, n_candidates)
        # Stable sort of the negated scores breaks ties by ascending item id.
        order = np.argsort(-scores, kind="stable")[:k_eff]
        test = test_items[user]
        hit_ranks = np.flatnonzero(np.isin(order, test)) + 1
        recalls[user] = len(hit_ranks) / len(test)
        dcg = float(np.sum(1.0 / np.log2(hit_ranks + 1)))
        ndcgs[user] = dcg / _idcg(min(k, len(test)))


def evaluate_topk(
    model: EmbeddingTable,
    train: InteractionSet,
    test: InteractionSet,
    k: int,
    scoring: str = "dot",
    mask_extra: InteractionSet | None = None,
    per_user: bool = False,
    n_threads: int | None = None,
) -> MetricsReport:
    """Rank all items per user and score the held-out set.

    Items the user interacted with in train (and mask_extra, typically the
    validation set) are removed from the candidate list. Recall@k divides
    hits by the user's full held-out count; NDCG@k uses binary gains with
    the ideal gain truncated at min(k, held-out count). Users without test
    interactions are skipped; aggregate metrics are plain means over the
    evaluated users.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if scoring not in ("dot", "cosine"):
        raise ConfigError(f"unknown scoring rule {scoring!r}")
    if len(test) == 0:
        raise DataError("test set is empty")
    if (test.m, test.n) != (model.m, model.n):
        raise ConfigError("test set dimensions do not match the model")

    if scoring == "dot":
        user_mat = model.user_vecs.astype(np.float64)
        item_mat = model.item_vecs.astype(np.float64)
    else:
        user_mat = normalize_rows(model.user_vecs.astype(np.float64))
        item_mat = normalize_rows(model.item_vecs.astype(np.float64))

    test_items = test.by_user
    masked_items = []
    for user in range(model.m):
        mask = train.by_user[user]
        if mask_extra is not None:
            mask = np.union1d(mask, mask_extra.by_user[user])
        masked_items.append(np.asarray(mask, dtype=np.int64))

    eval_users = np.array(
        [u for u in range(model.m) if len(test_items[u]) > 0], dtype=np.int64
    )
    recalls = np.full(model.m, np.nan)
    ndcgs = np.full(model.m, np.nan)
    excluded: list[int] = []

    chunks = [eval_users[i : i + _CHUNK] for i in range(0, len(eval_users), _CHUNK)]
    threads = min(_n_threads(n_threads), max(1, len(chunks)))
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(
                    _eval_users,
                    chunk,
                    user_mat[chunk],
                    item_mat,
                    k,
                    test_items,
                    masked_items,
                    recalls,
                    ndcgs,
                    excluded,
                )
                for chunk in chunks
            ]
            for fut in futures:
                fut.result()
    else:
        for chunk in chunks:
            _eval_users(
                chunk, user_mat[chunk], item_mat, k, test_items, masked_items,
                recalls, ndcgs, excluded,
            )

    if excluded:
        log.warning(
            "%d user(s) with test interactions had no unmasked candidates "
            "and were excluded", len(excluded),
        )
    done = ~np.isnan(recalls)
    n_eval = int(done.sum())
    if n_eval == 0:
        raise DataError("no evaluable users (all excluded)")
    report = MetricsReport(
        k=k,
        recall_at_k=float(recalls[done].mean()),
        ndcg_at_k=float(ndcgs[done].mean()),
        n_eval_users=n_eval,
    )
    if per_user:
        report.per_user = [
            (int(u), float(recalls[u]), float(ndcgs[u]))
            for u in np.flatnonzero(done)
        ]
    return report


def _popular_mask(counts: np.ndarray, ratio: float) -> np.ndarray:
    """Top ceil(ratio * len) entities by count, ties broken by lower index."""
    size = len(counts)
    order = np.lexsort((np.arange(size), -counts))
    mask = np.zeros(size, dtype=bool)
    mask[order[: math.ceil(ratio * size)]] = True
    return mask


def group_alignment(
    model: EmbeddingTable,
    pairs: InteractionSet,
    user_counts: np.ndarray,
    item_counts: np.ndarray,
    ratio: float = 0.2,
) -> GroupAlignmentReport:
    """Unit-weight alignment split by popularity group.

    Users (and items) are ranked by training interaction count; the top
    ratio share forms the popular group. Each group's value is the mean
    squared normalized distance over that group's pairs in `pairs`. The
    pair-count weighted mean of the two groups equals the overall
    alignment on either side.
    """
    if not 0 < ratio < 1:
        raise ConfigError("ratio must lie in (0, 1)")
    if len(pairs) == 0:
        raise DataError("group alignment needs a non-empty pair set")
    if len(user_counts) != model.m or len(item_counts) != model.n:
        raise ConfigError("count vectors do not match model dimensions")

    arr = pairs.pairs
    u_norm = normalize_rows(model.user_vecs[arr[:, 0]].astype(np.float64))
    i_norm = normalize_rows(model.item_vecs[arr[:, 1]].astype(np.float64))
    d2 = pair_sq_dists(u_norm, i_norm)

    pop_users = _popular_mask(np.asarray(user_counts), ratio)
    pop_items = _popular_mask(np.asarray(item_counts), ratio)

    def group_mean(mask: np.ndarray, label: str) -> float:
        if not mask.any():
            log.warning("popularity group %s has no pairs", label)
            return float("nan")
        return float(d2[mask].mean())

    in_pop_u = pop_users[arr[:, 0]]
    in_pop_i = pop_items[arr[:, 1]]
    return GroupAlignmentReport(
        pop_user_align=group_mean(in_pop_u, "popular-users"),
        unpop_user_align=group_mean(~in_pop_u, "unpopular-users"),
        pop_item_align=group_mean(in_pop_i, "popular-items"),
        unpop_item_align=group_mean(~in_pop_i, "unpopular-items"),
        split_ratio=ratio,
    )
