"""Output verification for the benchmark, kept independent of the code it
checks: pair sets are compared as sorted integer keys, and top-K metrics are
recomputed by a plain stable sort on (-score, item)."""

from __future__ import annotations

import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Largest allowed difference between a per-user metric and the reference.
TOPK_TOLERANCE = 1e-12
#: Users whose top-K lists are recomputed by the reference per evaluation.
TOPK_SAMPLE = 48


class StageFailed(Exception):
    """An operation raised; the iteration cannot continue."""


@dataclass
class Op:
    name: str
    problems: list[str] = field(default_factory=list)


class Ledger:
    """Counts operations attempted and failed. An operation fails when it
    raises or when any check on its output fails."""

    def __init__(self) -> None:
        self.ops: list[Op] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)

    def problems(self) -> list[str]:
        return [f"{op.name}: {p}" for op in self.ops for p in op.problems]

    @contextmanager
    def op(self, name: str):
        record = Op(name)
        self.ops.append(record)
        try:
            yield record
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            record.problems.append(f"raised {exc!r}")
            raise StageFailed(name) from exc


def _keys(pairs: np.ndarray, n: int) -> np.ndarray:
    return np.sort(pairs[:, 0] * n + pairs[:, 1])


def split_problems(full, bundle) -> list[str]:
    """The split is disjoint and exhaustive, and every user with a pair
    keeps a training pair."""
    n = full.n
    parts = {name: _keys(getattr(bundle, name).pairs, n)
             for name in ("train", "validation", "test")}
    out = []
    names = list(parts)
    for a in range(3):
        for b in range(a + 1, 3):
            shared = np.intersect1d(parts[names[a]], parts[names[b]]).size
            if shared:
                out.append(f"{names[a]} and {names[b]} share {shared} pairs")
    union = np.sort(np.concatenate(list(parts.values())))
    if not np.array_equal(union, _keys(full.pairs, n)):
        out.append("split parts do not add up to the input pairs")
    missing = np.setdiff1d(full.pairs[:, 0], bundle.train.pairs[:, 0]).size
    if missing:
        out.append(f"{missing} users have no training pair")
    return out


def roundtrip_split_problems(saved, loaded) -> list[str]:
    out = []
    for name in ("train", "validation", "test"):
        a, b = getattr(saved, name), getattr(loaded, name)
        if (a.m, a.n) != (b.m, b.n) or not np.array_equal(a.pairs, b.pairs):
            out.append(f"{name} pairs differ after save_split/load_split")
        if a.user_labels != b.user_labels or a.item_labels != b.item_labels:
            out.append(f"{name} labels differ after save_split/load_split")
    return out


def roundtrip_checkpoint_problems(saved, loaded) -> list[str]:
    """Each array of (table, projections) must come back byte for byte."""
    out = []
    for label, a, b in (
        ("user_vecs", saved[0].user_vecs, loaded[0].user_vecs),
        ("item_vecs", saved[0].item_vecs, loaded[0].item_vecs),
        ("m_user", saved[1].m_user, loaded[1].m_user),
        ("m_item", saved[1].m_item, loaded[1].m_item),
    ):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            out.append(f"checkpoint {label} is not bit-exact")
    return out


def finite_loss_problems(history: list[dict]) -> list[str]:
    keys = ("align", "uniform_user", "uniform_item", "relation_align",
            "relation_uniform", "total")
    return [
        f"epoch {rec['epoch']}: {key}={rec[key]!r} is not finite"
        for rec in history for key in keys if not math.isfinite(rec[key])
    ]


def reference_user_metrics(scores, masked, test_items, k) -> tuple[float, float]:
    """Recall@k and NDCG@k of one user: rank unmasked items by a stable
    sort on (-score, item id), binary gains, ideal DCG truncated at
    min(k, number of test items)."""
    items = np.arange(len(scores))
    keep = np.ones(len(scores), dtype=bool)
    keep[masked] = False
    order = np.lexsort((items[keep], -scores[keep]))
    top = items[keep][order][:k]
    hits = np.flatnonzero(np.isin(top, test_items)) + 1
    dcg = float(np.sum(1.0 / np.log2(hits + 1)))
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(test_items)) + 1))
    return len(hits) / len(test_items), dcg / idcg


def _items_of(pairs: np.ndarray, user: int) -> np.ndarray:
    return pairs[pairs[:, 0] == user, 1]


def topk_problems(report, model, train, test, validation, k, seed,
                  reference=reference_user_metrics) -> list[str]:
    """Compare evaluate_topk's per-user metrics (dot scoring, validation
    masked) with `reference` on a fixed seeded sample of users."""
    per_user = {u: (r, nd) for u, r, nd in report.per_user}
    users = np.unique(test.pairs[:, 0])
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7E57]))
    sample = np.sort(rng.choice(users, size=min(TOPK_SAMPLE, len(users)), replace=False))
    item_mat = model.item_vecs.astype(np.float64)
    out = []
    for user in sample.tolist():
        if user not in per_user:
            out.append(f"user {user} missing from the evaluation")
            continue
        scores = item_mat @ model.user_vecs[user].astype(np.float64)
        masked = np.concatenate([_items_of(train.pairs, user),
                                 _items_of(validation.pairs, user)])
        want = reference(scores, masked, _items_of(test.pairs, user), k)
        got = per_user[user]
        if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > TOPK_TOLERANCE:
            out.append(f"user {user}: (recall, ndcg) {got} != reference {want}")
    return out
