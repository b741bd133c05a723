import hashlib
import logging
import math

import numpy as np
import pytest

from debias_cf import evaluation as ev
from debias_cf.data import InteractionSet
from debias_cf.embedding import EmbeddingTable, normalize_rows
from debias_cf.errors import DataError, NumericalError
from conftest import (
    brute_force_topk,
    random_interaction_set,
    reference_eval_users,
    user_items,
)


def model_from(user_vecs, item_vecs):
    user_vecs = np.asarray(user_vecs, dtype=np.float32)
    item_vecs = np.asarray(item_vecs, dtype=np.float32)
    return EmbeddingTable(
        user_vecs.shape[0], item_vecs.shape[0], user_vecs.shape[1],
        user_vecs, item_vecs,
    )


def iset(m, n, pairs):
    return InteractionSet(m, n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def overlapping_mask(rng, train, k):
    """A mask_extra that overlaps train and leaves user 0 between 1 and
    k - 1 unmasked candidates; returns it and one of those candidates."""
    m, n = train.m, train.n
    grid = rng.random((m, n)) < 0.2
    grid[tuple(train.pairs[0])] = True
    open_items = np.setdiff1d(np.arange(n), user_items(train, 0))
    keep = rng.choice(open_items, size=int(rng.integers(1, min(k, len(open_items) + 1))),
                      replace=False)
    grid[0] = True
    grid[0, keep] = False
    return InteractionSet(m, n, np.argwhere(grid)), int(keep[0])


class TestEvaluateTopk:
    def test_perfect_ranking(self):
        # item 1 scores highest for user 0 and is the single test item
        model = model_from([[1.0, 0.0]], [[0.5, 0.0], [2.0, 0.0], [0.3, 0.0]])
        train = iset(1, 3, np.zeros((0, 2)))
        test = iset(1, 3, [[0, 1]])
        report = ev.evaluate_topk(model, train, test, k=20)
        assert report.recall_at_k == 1.0
        assert report.ndcg_at_k == 1.0

    def test_single_hit_at_rank_two(self):
        # scores: item 0 = 2, item 1 = 1, rest 0; test item is item 1
        model = model_from(
            [[1.0, 0.0]],
            [[2.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 20,
        )
        train = iset(1, 22, np.zeros((0, 2)))
        test = iset(1, 22, [[0, 1]])
        report = ev.evaluate_topk(model, train, test, k=20)
        assert report.recall_at_k == 1.0
        assert report.ndcg_at_k == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)

    def test_miss_outside_topk(self):
        item_vecs = np.zeros((30, 2))
        item_vecs[:29, 0] = np.linspace(2.0, 1.0, 29)  # items 0..28 score high
        item_vecs[29, 1] = 1.0  # test item scores 0
        model = model_from([[1.0, 0.0]], item_vecs)
        train = iset(1, 30, np.zeros((0, 2)))
        test = iset(1, 30, [[0, 29]])
        report = ev.evaluate_topk(model, train, test, k=20)
        assert report.recall_at_k == 0.0
        assert report.ndcg_at_k == 0.0

    def test_training_items_never_recommended(self, rng):
        model = model_from(rng.normal(size=(3, 4)), rng.normal(size=(10, 4)))
        # whatever scores the model produces, the train item must not count
        train = iset(3, 10, [[0, int(np.argmax(model.item_vecs @ model.user_vecs[0]))]])
        test = iset(3, 10, [[0, 3]])
        report = ev.evaluate_topk(model, train, test, k=10, per_user=True)
        # recompute hits manually: masked item excluded from candidate list
        assert report.n_eval_users == 1

    def test_tie_break_by_ascending_item_index(self):
        model = model_from([[1.0]], np.ones((5, 1)))  # all items tie
        train = iset(1, 5, np.zeros((0, 2)))
        test = iset(1, 5, [[0, 0]])
        report = ev.evaluate_topk(model, train, test, k=1)
        assert report.recall_at_k == 1.0  # item 0 wins the tie

    @pytest.mark.parametrize("ties", [False, True], ids=["gaussian", "integer-ties"])
    def test_matches_brute_force_on_random_instances(self, rng, ties):
        for _ in range(20):
            m, n = 30, 40
            if ties:
                # d=2 integer factors: scores tie exactly at the k-th boundary
                model = model_from(rng.integers(-2, 3, (m, 2)), rng.integers(-2, 3, (n, 2)))
            else:
                model = model_from(rng.normal(size=(m, 6)), rng.normal(size=(n, 6)))
            train = random_interaction_set(rng, m, n, density=0.2)
            masked = {u: set(map(int, user_items(train, u))) for u in range(m)}
            extra = None
            if ties:
                k = int(rng.integers(2, n + 6))
                extra, short_item = overlapping_mask(rng, train, k)
                for u in range(m):
                    masked[u] |= set(map(int, user_items(extra, u)))
                assert n - len(masked[0]) < k  # user 0's list is short
            # test pairs disjoint from the masked ones
            free = np.array(
                [(u, i) for u in range(m) for i in range(n) if i not in masked[u]]
            )
            take = rng.choice(len(free), size=min(80, len(free)), replace=False)
            test_pairs = free[take]
            if ties:
                # a held-out item that is also masked is never a hit
                extra_pairs = [[0, short_item], [0, min(masked[0])]]
                test_pairs = np.unique(np.vstack([test_pairs, extra_pairs]), axis=0)
            else:
                k = int(rng.integers(1, 25))
            test = InteractionSet(m, n, test_pairs)
            report = ev.evaluate_topk(model, train, test, k=k, mask_extra=extra)
            test_by_user = {
                u: set(map(int, user_items(test, u)))
                for u in range(m)
                if len(user_items(test, u))
            }
            recall, ndcg, _ = brute_force_topk(
                model.user_vecs.astype(np.float64),
                model.item_vecs.astype(np.float64),
                masked, test_by_user, k,
            )
            assert report.recall_at_k == pytest.approx(recall, abs=1e-12)
            assert report.ndcg_at_k == pytest.approx(ndcg, abs=1e-12)

    def test_excluded_user_warning(self, rng, caplog):
        model = model_from(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
        # corrupt input: user 0's "held-out" items are all also in train,
        # so every candidate is masked and the user cannot be evaluated
        train = iset(2, 4, [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0]])
        test = iset(2, 4, [[0, 1], [1, 2]])
        with caplog.at_level(logging.WARNING):
            report = ev.evaluate_topk(model, train, test, k=2)
        assert report.n_eval_users == 1
        assert any("no unmasked candidates" in r.message for r in caplog.records)

    def test_validation_mask_extra(self, rng):
        model = model_from([[1.0, 0.0]], [[2.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        train = iset(1, 3, np.zeros((0, 2)))
        valid = iset(1, 3, [[0, 0]])
        test = iset(1, 3, [[0, 1]])
        masked = ev.evaluate_topk(model, train, test, k=1, mask_extra=valid)
        unmasked = ev.evaluate_topk(model, train, test, k=1)
        assert masked.recall_at_k == 1.0  # item 0 masked, item 1 tops the list
        assert unmasked.recall_at_k == 0.0

    def test_empty_test_rejected(self, rng):
        model = model_from(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
        with pytest.raises(DataError):
            ev.evaluate_topk(model, iset(2, 4, [[0, 0]]), iset(2, 4, np.zeros((0, 2))), k=5)

    @pytest.mark.parametrize("argument", ["train", "mask_extra"])
    def test_mask_of_other_dimensions_rejected(self, rng, argument):
        # a 40x60 mask against a 20x30 model would index past the score block
        model = model_from(rng.normal(size=(20, 3)), rng.normal(size=(30, 3)))
        sets = {"train": iset(20, 30, [[0, 0]]), "mask_extra": None,
                argument: iset(40, 60, [[39, 59]])}
        with pytest.raises(DataError, match=argument):
            ev.evaluate_topk(model, sets["train"], iset(20, 30, [[1, 1]]), k=5,
                             mask_extra=sets["mask_extra"])

    def test_ndcg_one_when_all_test_items_top_ranked(self):
        item_vecs = np.zeros((6, 1))
        item_vecs[:3, 0] = [3.0, 2.0, 1.0]  # items 0..2 on top, in order
        model = model_from([[1.0]], item_vecs)
        train = iset(1, 6, np.zeros((0, 2)))
        test = iset(1, 6, [[0, 0], [0, 1], [0, 2]])
        report = ev.evaluate_topk(model, train, test, k=3)
        assert report.ndcg_at_k == 1.0
        assert report.recall_at_k == 1.0


def mixed_block_inputs(rng, m=48, n=300):
    """Users of three kinds, interleaved: continuous scores (no tie at the
    cut), integer scores (ties that cross the cut), and users with all but
    a few items masked (fewer candidates than k, so +inf ties). Returns the
    user rows, the item rows, the masks (overlapping) and the test set."""
    kind = rng.permutation(np.arange(m) % 3)
    items = np.hstack([rng.integers(-2, 3, (n, 2)), rng.normal(size=(n, 2))])
    users = np.hstack([rng.integers(-2, 3, (m, 2)), rng.normal(size=(m, 2))])
    users[kind == 1, 2:] = 0.0
    grid = rng.random((m, n))
    train = grid < 0.1
    extra = (grid > 0.05) & (grid < 0.15)
    extra[kind == 2] = True
    keep = rng.random((m, n)) < 3.0 / n
    extra[kind == 2] &= ~keep[kind == 2]
    test = (grid > 0.6) & ~train & ~extra
    test[kind == 2] |= keep[kind == 2] & ~train[kind == 2]
    test[np.arange(m), rng.integers(0, n, m)] = True  # some masked held-out items
    sets = [InteractionSet(m, n, np.argwhere(g)) for g in (train, extra, test)]
    return users, items, sets[:2], sets[2]


class TestEvalUsersMatchesReference:
    """The partition-head ranking returns what the full-row tie pass of
    reference_eval_users returns, bit for bit."""

    @pytest.mark.parametrize("k", [1, 5, 20, 150, 300, 400])
    def test_bit_identical_on_mixed_blocks(self, rng, k):
        crossing = short = plain = 0
        for _ in range(5):
            user_mat, item_mat, masks, test = mixed_block_inputs(rng)
            n = len(item_mat)
            top = min(k, n)
            idcg = ev._idcg_table(top)
            users = rng.permutation(np.flatnonzero(test.user_counts()))
            got = ev._eval_users(users, user_mat[users], -item_mat, k, masks, test, idcg)
            want = reference_eval_users(users, user_mat[users], item_mat, k, masks,
                                        test, idcg)
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True)
            # The blocks hold every kind of row the ranking tells apart.
            neg = -(user_mat[users] @ item_mat.T)
            for mask in masks:
                neg[ev._cells(mask, users)] = np.inf
            kth = np.partition(neg, top - 1, axis=1)[:, top - 1 : top]
            crosses = np.count_nonzero(neg <= kth, axis=1) > top
            crossing += np.count_nonzero(crosses & np.isfinite(kth[:, 0]))
            short += np.count_nonzero(np.isinf(kth[:, 0]))
            plain += np.count_nonzero(~crosses)
        assert short > 0
        if k < n:
            assert crossing > 0 and plain > 0


def cut_case_inputs(rng, case):
    """User rows, item rows, k, masks and test set of one _top_ids path:
    n with tail columns past the last full stride of groups; n < 32 * top,
    so there are top groups; n == top with k > n; every row but the first
    left fewer than top unmasked items, so the cut is +inf; and a zero
    model, whose every score ties."""
    m, n, k = {"tail-columns": (40, 1000, 20), "top-groups": (40, 307, 20),
               "k-above-n": (12, 20, 25), "short-rows": (20, 300, 20),
               "zero-model": (20, 300, 20)}[case]
    items = np.hstack([rng.integers(-2, 3, (n, 2)), rng.normal(size=(n, 2))])
    users = np.hstack([rng.integers(-2, 3, (m, 2)), rng.normal(size=(m, 2))])
    users[::2, 2:] = 0.0  # integer scores: ties across the cut
    if case == "zero-model":
        users[:] = 0.0
    grid = rng.random((m, n))
    train = grid < 0.1
    if case == "short-rows":
        train[1:] = rng.random((m - 1, n)) > 5.0 / n
    test = (grid > 0.7) & ~train
    test[np.arange(m), rng.integers(0, n, m)] = True
    return users, items, k, [InteractionSet(m, n, np.argwhere(train))], \
        InteractionSet(m, n, np.argwhere(test))


class TestTopIdsCut:
    """Each path of the group-minimum cut ranks what reference_eval_users
    ranks, bit for bit, and _top_ids returns the head of a stable argsort
    of the whole row."""

    @pytest.mark.parametrize(
        "case", ["tail-columns", "top-groups", "k-above-n", "short-rows", "zero-model"])
    def test_bit_identical_to_reference(self, rng, case):
        user_mat, item_mat, k, masks, test = cut_case_inputs(rng, case)
        n = len(item_mat)
        top = min(k, n)
        idcg = ev._idcg_table(top)
        users = np.flatnonzero(test.user_counts())
        got = ev._eval_users(users, user_mat[users], -item_mat, k, masks, test, idcg)
        want = reference_eval_users(users, user_mat[users], item_mat, k, masks, test, idcg)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)

        neg = user_mat[users] @ -item_mat.T
        neg[ev._cells(masks[0], users)] = np.inf
        ids, vals = ev._top_ids(neg, top)
        stable = np.argsort(neg, axis=1, kind="stable")[:, :top]
        assert np.array_equal(ids, stable)
        assert np.array_equal(vals, np.take_along_axis(neg, stable, axis=1))
        # The inputs reach the path the case names.
        ng = max(top, n // ev._GROUP_WIDTH)
        cut = np.sort(neg, axis=1)[:, top - 1]
        if case == "tail-columns":
            assert n % ng and ng > top
        elif case == "top-groups":
            assert ng == top and n % ng
        elif case == "k-above-n":
            assert k > n and ng == top == n
        elif case == "short-rows":
            assert np.isinf(cut[1:]).all() and np.isfinite(cut[0])
        else:
            assert (neg[np.isfinite(neg)] == 0).all()


def pinned_ranking_inputs():
    """A 60 x 40 dot-product model with small integer embeddings, so every
    score is exact under any BLAS and many rows tie across the cut, and
    train, mask_extra and test sets. mask_extra leaves every seventh user
    between 1 and 6 candidates, each of them a held-out item."""
    rng = np.random.default_rng(41)
    m, n = 60, 40
    model = model_from(rng.integers(-2, 3, (m, 3)), rng.integers(-2, 3, (n, 3)))
    grid = rng.random((m, n))
    train = grid < 0.15
    extra = (grid >= 0.15) & (grid < 0.25)
    extra[::7] |= ~train[::7] & (rng.random((len(extra[::7]), n)) < 0.9)
    test = (grid >= 0.25) & (grid < 0.45)
    test[::7] = ~train[::7] & ~extra[::7]
    return model, *(InteractionSet(m, n, np.argwhere(g)) for g in (train, extra, test))


#: SHA-256 of the little-endian float64 per-user recall and NDCG arrays of
#: evaluate_topk(per_user=True) on pinned_ranking_inputs(), as ranked before
#: the tie rule was stated once. k = 57 > n ranks as k = n = 40 does.
PINNED_RANKING_SHA256 = {
    5: ("30a613c0d46bb2894b8f0189a5079efbe275b6b06e06810e92a06c253b341ee3",
        "49391a78a4408942443e8ea7b185b6b2af117c1d25ce043cf594e6c73f60737f"),
    20: ("525b6353e654e9856d7fbc8310e7f8dc25128661bc73fca6def4b278545178cc",
         "8861a06cb79ac669dae02e5d2fbe8293ac7de602527db1d4336870582c5e364b"),
    40: ("41e09ab16161976ef905e3c39d7c6542759631afa4fff8d624fa0f56be7cf958",
         "c434a1b14dc75fb92dede7b82d62466a24c33415ec0563d07afac17d4fd6a852"),
    57: ("41e09ab16161976ef905e3c39d7c6542759631afa4fff8d624fa0f56be7cf958",
         "c434a1b14dc75fb92dede7b82d62466a24c33415ec0563d07afac17d4fd6a852"),
}


class TestPinnedRanking:
    @pytest.mark.parametrize("k", sorted(PINNED_RANKING_SHA256))
    def test_per_user_metrics_are_pinned(self, k):
        model, train, extra, test = pinned_ranking_inputs()
        report = ev.evaluate_topk(model, train, test, k, mask_extra=extra, per_user=True)
        assert report.n_eval_users == 60
        _, recall, ndcg = (np.array(column) for column in zip(*report.per_user))
        digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()
                        for a in (recall, ndcg))
        assert digests == PINNED_RANKING_SHA256[k]


class TestNonFiniteModel:
    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_raises_numerical_error(self, rng, side, value):
        user_vecs, item_vecs = rng.normal(size=(50, 20)), rng.normal(size=(49, 20))
        (user_vecs if side == "user" else item_vecs)[3, 7] = value
        model = model_from(user_vecs, item_vecs)
        train = random_interaction_set(rng, 50, 49, density=0.1)
        test = InteractionSet(50, 49, np.argwhere(rng.random((50, 49)) < 0.1))
        with pytest.raises(NumericalError, match="non-finite"):
            ev.evaluate_topk(model, train, test, k=20)


class TestGroupAlignment:
    def test_collapsed_model_all_zero(self):
        vec = np.array([[0.6, 0.8]])
        model = model_from(np.tile(vec, (4, 1)), np.tile(vec, (5, 1)))
        pairs = iset(4, 5, [[0, 0], [1, 2], [3, 4]])
        report = ev.group_alignment(
            model, pairs, np.array([5, 1, 1, 1]), np.array([3, 1, 1, 1, 1])
        )
        for field in ("pop_user_align", "unpop_user_align", "pop_item_align", "unpop_item_align"):
            assert getattr(report, field) == pytest.approx(0.0, abs=1e-12)

    def test_split_mechanics_two_users(self, rng):
        model = model_from(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
        pairs = iset(2, 4, [[0, 0], [1, 1]])
        counts_u = np.array([10, 1])
        report = ev.group_alignment(model, pairs, counts_u, np.array([1, 1, 1, 1]), ratio=0.5)
        u = normalize_rows(model.user_vecs.astype(np.float64))
        i = normalize_rows(model.item_vecs.astype(np.float64))
        d0 = float(np.sum((u[0] - i[0]) ** 2))
        d1 = float(np.sum((u[1] - i[1]) ** 2))
        assert report.pop_user_align == pytest.approx(d0, abs=1e-12)
        assert report.unpop_user_align == pytest.approx(d1, abs=1e-12)

    def test_matches_brute_force(self, rng):
        m, n = 10, 10
        model = model_from(rng.normal(size=(m, 4)), rng.normal(size=(n, 4)))
        pairs = random_interaction_set(rng, m, n, density=0.4)
        counts_u = rng.integers(0, 20, m)
        counts_i = rng.integers(0, 20, n)
        ratio = 0.2
        report = ev.group_alignment(model, pairs, counts_u, counts_i, ratio)

        u = normalize_rows(model.user_vecs.astype(np.float64))
        i = normalize_rows(model.item_vecs.astype(np.float64))
        order = sorted(range(m), key=lambda x: (-counts_u[x], x))
        pop_users = set(order[: math.ceil(ratio * m)])
        pop_vals, unpop_vals = [], []
        for uu, ii in pairs.pairs:
            d2 = float(np.sum((u[uu] - i[ii]) ** 2))
            (pop_vals if uu in pop_users else unpop_vals).append(d2)
        assert report.pop_user_align == pytest.approx(np.mean(pop_vals), abs=1e-10)
        assert report.unpop_user_align == pytest.approx(np.mean(unpop_vals), abs=1e-10)

    def test_weighted_decomposition_recovers_overall(self, rng):
        m, n = 8, 9
        model = model_from(rng.normal(size=(m, 4)), rng.normal(size=(n, 4)))
        pairs = random_interaction_set(rng, m, n, density=0.5)
        counts_u = rng.integers(0, 9, m)
        counts_i = rng.integers(0, 9, n)
        report = ev.group_alignment(model, pairs, counts_u, counts_i, 0.3)
        u = normalize_rows(model.user_vecs[pairs.pairs[:, 0]].astype(np.float64))
        i = normalize_rows(model.item_vecs[pairs.pairs[:, 1]].astype(np.float64))
        overall = float(np.mean(np.sum((u - i) ** 2, axis=1)))
        pop_mask = ev._popular_mask(counts_u, 0.3)[pairs.pairs[:, 0]]
        n_pop, n_unpop = int(pop_mask.sum()), int((~pop_mask).sum())
        recombined = (
            n_pop * report.pop_user_align + n_unpop * report.unpop_user_align
        ) / (n_pop + n_unpop)
        assert recombined == pytest.approx(overall, rel=1e-12)

    def test_empty_group_reports_nan(self, rng, caplog):
        model = model_from(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        # popular user (index 0 by count) has no pairs in the analyzed set
        pairs = iset(3, 3, [[1, 0], [2, 1]])
        with caplog.at_level(logging.WARNING):
            report = ev.group_alignment(
                model, pairs, np.array([9, 1, 1]), np.array([1, 1, 1]), ratio=0.2
            )
        assert math.isnan(report.pop_user_align)
        assert math.isfinite(report.unpop_user_align)
