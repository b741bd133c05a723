"""Top-K ranking evaluation and popularity-group alignment diagnostics."""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .data import InteractionSet
from .embedding import EmbeddingTable, normalize_rows
from .errors import ConfigError, DataError, NumericalError
from .losses import pair_sq_dists

log = logging.getLogger(__name__)

_CHUNK = 64
#: Items per group of _top_ids' cut (n // _GROUP_WIDTH groups, at least k).
_GROUP_WIDTH = 32


@dataclass
class MetricsReport:
    k: int
    recall_at_k: float
    ndcg_at_k: float
    n_eval_users: int
    per_user: list[tuple[int, float, float]] | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GroupAlignmentReport:
    pop_user_align: float
    unpop_user_align: float
    pop_item_align: float
    unpop_item_align: float
    split_ratio: float


def _idcg_table(top: int) -> np.ndarray:
    """Ideal DCG for 0..top held-out items, summed in rank order."""
    gains = (1.0 / math.log2(r + 1) for r in range(1, top + 1))
    return np.array(list(accumulate(gains, initial=0.0)))


def _cells(pairs: InteractionSet, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block indices (r, i) of every pair (users[r], i), read from the CSR ranges."""
    start = pairs.user_ptr[users]
    lens = pairs.user_ptr[users + 1] - start
    pos = np.arange(lens.sum()) + np.repeat(start - np.cumsum(lens) + lens, lens)
    return np.repeat(np.arange(len(users)), lens), pairs.pairs[pos, 1]


def _top_ids(neg: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first top columns by a stable ascending sort of its
    values, and those values: ties go to the lower column.

    Column j < n - n % ng falls into group j % ng of ng = max(top,
    n // _GROUP_WIDTH) groups. The cut t is the top-th smallest group
    minimum: at least top groups, so at least top items, hold a value
    <= t, and with them every item of the stable top. Only the candidates
    neg <= t, tail columns included, are sorted, by row, value and column;
    a row whose items all tie has all n of them sorted.
    """
    b, n = neg.shape
    ng = max(top, n // _GROUP_WIDTH)
    group_min = neg[:, : n - n % ng].reshape(b, n // ng, ng).min(axis=1)
    cut = np.partition(group_min, top - 1, axis=1)[:, top - 1 : top]
    flat = np.flatnonzero(neg <= cut)
    vals = neg.reshape(-1)[flat]
    # The smallest integer type for the row key: numpy radix-sorts it.
    rows = (flat // n).astype(np.min_scalar_type(b))
    order = np.lexsort((vals, rows))
    first = np.searchsorted(rows, np.arange(b))
    pick = order[first[:, None] + np.arange(top)]
    return flat[pick] % n, vals[pick]


def _eval_users(
    users: np.ndarray,
    user_mat: np.ndarray,
    neg_items: np.ndarray,
    k: int,
    masks: list[InteractionSet],
    test: InteractionSet,
    idcg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Recall and NDCG for one block of users; NaN for a user left with no
    unmasked candidate. neg_items holds the negated item rows, so the
    block's negated scores come out of one matmul; the scores are finite,
    so a masked item is one scored +inf."""
    top = min(k, neg_items.shape[0])
    neg = user_mat @ neg_items.T
    for mask in masks:
        neg[_cells(mask, users)] = np.inf

    ranked, head_neg = _top_ids(neg, top)
    # min(top, unmasked candidates): only masked items score +inf.
    n_ranked = np.count_nonzero(head_neg < np.inf, axis=1)

    is_test = np.zeros(neg.shape, dtype=bool)
    is_test[_cells(test, users)] = True
    hits = np.take_along_axis(is_test, ranked, axis=1)
    hits &= np.arange(top) < n_ranked[:, None]
    n_test = test.user_ptr[users + 1] - test.user_ptr[users]
    gains = 1.0 / np.log2(np.arange(2, top + 2))
    # A sequential sum, as the rank-by-rank definition of DCG reads.
    dcg = np.cumsum(np.where(hits, gains, 0.0), axis=1)[:, -1]
    recall = hits.sum(axis=1) / n_test
    ndcg = dcg / idcg[np.minimum(k, n_test)]
    out = n_ranked == 0
    recall[out] = np.nan
    ndcg[out] = np.nan
    return recall, ndcg


def check_topk_options(k: int, scoring: str) -> None:
    """The usage rules of evaluate_topk's k and scoring."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if scoring not in ("dot", "cosine"):
        raise ConfigError(f"unknown scoring rule {scoring!r}")


def evaluate_topk(
    model: EmbeddingTable,
    train: InteractionSet,
    test: InteractionSet,
    k: int,
    scoring: str = "dot",
    mask_extra: InteractionSet | None = None,
    per_user: bool = False,
) -> MetricsReport:
    """Rank all items per user and score the held-out set.

    Items the user interacted with in train (and mask_extra, typically the
    validation set) are removed from the candidate list. Recall@k divides
    hits by the user's full held-out count; NDCG@k uses binary gains with
    the ideal gain truncated at min(k, held-out count). Ties in score go
    to the lower item id. Users without test interactions are skipped;
    aggregate metrics are plain means over the evaluated users.

    Users are ranked in blocks of _CHUNK: one matmul scores a block, the
    masked items are scattered in from the CSR ranges, and _top_ids cuts
    each row at the k-th best of its group minima. At least k groups, so
    at least k items, score at or above the cut, so it keeps the whole top
    k; only the items it keeps are sorted, all n in a row whose items all
    tie. A model with a non-finite embedding raises NumericalError; a
    train, test or mask set of other dimensions than the model raises
    DataError.
    """
    check_topk_options(k, scoring)
    if len(test) == 0:
        raise DataError("test set is empty")
    for name, pairs in (("test", test), ("train", train), ("mask_extra", mask_extra)):
        if pairs is not None and (pairs.m, pairs.n) != (model.m, model.n):
            raise DataError(f"{name} set dimensions do not match the model")

    if not (np.isfinite(model.user_vecs).all() and np.isfinite(model.item_vecs).all()):
        raise NumericalError("model embeddings hold non-finite values")

    if scoring == "dot":
        user_mat = model.user_vecs.astype(np.float64)
        neg_items = -model.item_vecs.astype(np.float64)
    else:
        user_mat = normalize_rows(model.user_vecs)
        neg_items = -normalize_rows(model.item_vecs)

    masks = [train] if mask_extra is None else [train, mask_extra]
    idcg = _idcg_table(min(k, model.n))
    eval_users = np.flatnonzero(test.user_counts())
    recalls = np.full(model.m, np.nan)
    ndcgs = np.full(model.m, np.nan)
    for i in range(0, len(eval_users), _CHUNK):
        chunk = eval_users[i : i + _CHUNK]
        recalls[chunk], ndcgs[chunk] = _eval_users(
            chunk, user_mat[chunk], neg_items, k, masks, test, idcg
        )

    done = ~np.isnan(recalls)
    n_eval = int(done.sum())
    if n_eval < len(eval_users):
        log.warning(
            "%d user(s) with test interactions had no unmasked candidates "
            "and were excluded", len(eval_users) - n_eval,
        )
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


def check_ratio(ratio: float) -> None:
    """The usage rule of group_alignment's ratio."""
    if not 0 < ratio < 1:
        raise ConfigError("ratio must lie in (0, 1)")


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
    check_ratio(ratio)
    if len(pairs) == 0:
        raise DataError("group alignment needs a non-empty pair set")
    if len(user_counts) != model.m or len(item_counts) != model.n:
        raise DataError("count vectors do not match model dimensions")

    arr = pairs.pairs
    u_norm = normalize_rows(model.user_vecs[arr[:, 0]])
    i_norm = normalize_rows(model.item_vecs[arr[:, 1]])
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
