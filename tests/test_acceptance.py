"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

import debias_cf as dc
from debias_cf import evaluation, losses, propensity
from debias_cf.data import InteractionSet, generate_synthetic_world, sample_clicks, split_unbiased_protocol
from debias_cf.embedding import (
    init_model, normalize_rows, normalize_rows_full, save_checkpoint, load_checkpoint,
)
from debias_cf.trainer import TrainConfig, train, train_step, init_state
from debias_cf.util import sigmoid
from conftest import (
    brute_force_topk,
    central_difference,
    max_relative_error,
    random_interaction_set,
    unit_inverse_weights,
    user_items,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def all_cells(m: int, n: int) -> InteractionSet:
    users, items = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    return InteractionSet(m, n, np.stack([users.ravel(), items.ravel()], axis=1))


def test_criterion_1_estimator_unbiasedness():
    """Resampled inverse-propensity alignment converges to the
    relevance-weighted value; the unweighted estimator does not.

    Protocol: fix the full m*n cell grid as the reference pair set, redraw
    clicks per cell, and normalize the weighted sum by the fixed grid size
    (the expectation identity treats the pair set as fixed with random
    clicks). Oracle weights use a floor below the world's exposure floor so
    clipping cannot re-bias the estimator.
    """
    t0 = time.perf_counter()
    m, n = 50, 80
    world = generate_synthetic_world(m, n, skew=1.5, seed=11)
    model, _ = init_model(m, n, 16, seed=4, scale=0.5)
    grid = all_cells(m, n)
    ideal = dc.ideal_alignment_loss(model, world, grid)

    u_norm = normalize_rows(model.user_vecs.astype(np.float64))
    i_norm = normalize_rows(model.item_vecs.astype(np.float64))
    prob = world.exposure.astype(np.float64) * world.relevance.astype(np.float64)
    cells = grid.pairs
    # mu sits below the world's exposure floor, so the clip never binds
    _, weights_all = propensity.inverse_weights(
        propensity.estimate_oracle(world, cells), mu=0.005
    )

    rng = np.random.default_rng(2024)
    ipw_vals, biased_vals = [], []
    for _ in range(500):
        clicked = rng.random(m * n) < prob.ravel()
        idx = np.flatnonzero(clicked)
        u_batch = u_norm[cells[idx, 0]]
        i_batch = i_norm[cells[idx, 1]]
        ipw, _, _ = losses.alignment_value_grad(u_batch, i_batch, weights_all[idx])
        # fixed-size normalizer: rescale the batch mean by B / |cells|
        ipw_vals.append(ipw * len(idx) / len(cells))
        biased, _, _ = losses.alignment_value_grad(u_batch, i_batch, np.ones(len(idx)))
        biased_vals.append(biased)

    ipw_rel = abs(np.mean(ipw_vals) - ideal) / ideal
    biased_rel = abs(np.mean(biased_vals) - ideal) / ideal
    wall = time.perf_counter() - t0
    ok = ipw_rel < 0.02 and biased_rel > 0.05 and wall < 30
    report(
        1, ok,
        f"ipw mean within {ipw_rel:.3%} of ideal (gate 2%), biased off by "
        f"{biased_rel:.1%} (gate >5%), {wall:.1f}s (gate 30s)",
    )


def test_criterion_2_gradient_correctness():
    """Analytical gradients of every loss kernel and the joint objective
    match central finite differences (h=1e-5) within 1e-4 relative error.

    The joint-objective check freezes the propensity weights at their
    base-point values when evaluating perturbed losses, matching the
    detached-weights semantics; the grad-through variant is checked against
    unfrozen finite differences separately.
    """
    t0 = time.perf_counter()
    h, tol = 1e-5, 1e-4
    worst = 0.0
    instances = 0
    rng = np.random.default_rng(99)

    for d in (2, 4, 8):
        for b in (4, 8, 16):
            for _ in range(12):
                instances += 1
                n_u = int(rng.integers(2, b + 1))
                n_i = int(rng.integers(2, b + 1))
                u_inv = rng.integers(0, n_u, b)
                i_inv = rng.integers(0, n_i, b)
                user_rows = rng.normal(size=(n_u, d))
                item_rows = rng.normal(size=(n_i, d))
                weights = rng.uniform(1.0, 4.0, b)
                ones = np.ones(b)
                gamma, lam = 0.8, 1.2

                # alignment kernel, weighted and unweighted
                un = normalize_rows(user_rows)[u_inv]
                im = normalize_rows(item_rows)[i_inv]
                for w in (weights, ones):
                    _, gu, gi = losses.alignment_value_grad(un, im, w)
                    fd_u = central_difference(
                        lambda: losses.alignment_value_grad(un, im, w)[0], un, h
                    )
                    worst = max(worst, max_relative_error(gu, fd_u))

                # uniformity kernel
                vecs = normalize_rows(rng.normal(size=(max(n_u, 2), d)))
                _, gv = losses.uniformity_value_grad(vecs)
                fd_v = central_difference(
                    lambda: losses.uniformity_value_grad(vecs)[0], vecs, h
                )
                worst = max(worst, max_relative_error(gv, fd_v))

                # relation objective w.r.t. both projection matrices
                base_u = normalize_rows(user_rows)
                base_i = normalize_rows(item_rows)
                m_user = np.eye(d) + 0.2 * rng.normal(size=(d, d))
                m_item = np.eye(d) + 0.2 * rng.normal(size=(d, d))
                _, g_mu, g_mi, fwd = losses.relation_param_grads(
                    base_u, base_i, u_inv, i_inv, m_user, m_item, lam
                )

                def rel_total():
                    t, _, _, _ = losses.relation_param_grads(
                        base_u, base_i, u_inv, i_inv, m_user, m_item, lam
                    )
                    return t.total

                worst = max(
                    worst,
                    max_relative_error(g_mu, central_difference(rel_total, m_user, h)),
                    max_relative_error(g_mi, central_difference(rel_total, m_item, h)),
                )

                # full joint objective w.r.t. raw embedding rows; weights
                # and the relation term's base embeddings are frozen at the
                # base point (the detached / stop-gradient semantics)
                (pu, _, _), (pi, _, _) = fwd
                dots = np.einsum("bd,bd->b", pu[u_inv], pi[i_inv])
                w_frozen = 1.0 / propensity.clip(sigmoid(dots), 0.1)
                _, g_user, g_item = losses.dau_param_grads(
                    normalize_rows_full(user_rows), normalize_rows_full(item_rows),
                    u_inv, i_inv, w_frozen, gamma,
                )

                def joint_total():
                    tm, _, _ = losses.dau_param_grads(
                        normalize_rows_full(user_rows), normalize_rows_full(item_rows),
                        u_inv, i_inv, w_frozen, gamma,
                    )
                    tr, _, _, _ = losses.relation_param_grads(
                        base_u, base_i, u_inv, i_inv, m_user, m_item, lam
                    )
                    return tm.total + tr.total

                worst = max(
                    worst,
                    max_relative_error(
                        g_user, central_difference(joint_total, user_rows, h)
                    ),
                    max_relative_error(
                        g_item, central_difference(joint_total, item_rows, h)
                    ),
                )

    wall = time.perf_counter() - t0
    ok = worst < tol and instances >= 100 and wall < 10
    report(
        2, ok,
        f"{instances} instances, worst relative error {worst:.2e} "
        f"(gate {tol:.0e}), {wall:.1f}s (gate 10s)",
    )


@pytest.mark.parametrize("mu", [0.1, 0.6])
def test_criterion_2b_grad_through_matches_unfrozen_fd(mu):
    """Companion check: with grad-through enabled, the projection gradient
    matches finite differences of the fully unfrozen joint objective. At
    mu 0.6 half the pairs are clipped and pass no gradient."""
    rng = np.random.default_rng(5)
    d, b, n_u, n_i = 4, 8, 5, 6
    user_rows = rng.normal(size=(n_u, d))
    item_rows = rng.normal(size=(n_i, d))
    u_inv = rng.integers(0, n_u, b)
    i_inv = rng.integers(0, n_i, b)
    m_user = np.eye(d) + 0.2 * rng.normal(size=(d, d))
    m_item = np.eye(d) + 0.2 * rng.normal(size=(d, d))
    gamma, lam = 0.8, 1.2
    base_u, base_i = normalize_rows(user_rows), normalize_rows(item_rows)
    clipped = []

    def full(freeze=None):
        tr, g_mu, g_mi, fwd = losses.relation_param_grads(
            base_u, base_i, u_inv, i_inv, m_user, m_item, lam
        )
        (pu, _, _), (pi, _, _) = fwd
        dots = np.einsum("bd,bd->b", pu[u_inv], pi[i_inv])
        raw = sigmoid(dots)
        w = 1.0 / propensity.clip(raw, mu)
        tm, _, _ = losses.dau_param_grads(
            normalize_rows_full(user_rows), normalize_rows_full(item_rows),
            u_inv, i_inv, w, gamma,
        )
        if freeze is None:
            return tm.total + tr.total
        e_mu, e_mi = losses.ipw_through_projection_grads(
            fwd, base_u, base_i, u_inv, i_inv, raw, mu
        )
        clipped.append(int(np.sum(raw <= mu)))
        return g_mu + e_mu, g_mi + e_mi

    g_mu, g_mi = full(freeze=False)
    assert clipped == [4 if mu == 0.6 else 0]
    fd_mu = central_difference(full, m_user, 1e-5)
    fd_mi = central_difference(full, m_item, 1e-5)
    assert max_relative_error(g_mu, fd_mu) < 1e-4
    assert max_relative_error(g_mi, fd_mi) < 1e-4


def test_criterion_3_gradient_partition(monkeypatch):
    """Exact single-step tensor equalities: the relation term touches only
    projections, the weighted-alignment term touches only embeddings."""
    world = generate_synthetic_world(20, 25, 1.0, seed=3)
    clicks = sample_clicks(world, seed=3)
    bundle = split_unbiased_protocol(clicks, 0.15, 0.15, seed=3)
    batch = bundle.train.pairs[:16]

    def one_step(**overrides):
        params = dict(
            objective="uctrl", d=6, gamma=0.7, lambda_rel=1.0, lr=1e-2,
            seed=21, init_scale=0.05,
        )
        params.update(overrides)
        cfg = TrainConfig(**params)
        state = init_state(bundle.train.m, bundle.train.n, cfg)
        train_step(state, batch, cfg)
        return state

    a = one_step(lambda_rel=0.0)
    b = one_step(lambda_rel=3.0)
    embeddings_unaffected_by_lambda = np.array_equal(
        a.model.user_vecs, b.model.user_vecs
    ) and np.array_equal(a.model.item_vecs, b.model.item_vecs)
    projections_move_with_lambda = not np.array_equal(
        a.projections.m_user, b.projections.m_user
    )

    c = one_step(gamma=0.0)
    d_ = one_step(gamma=3.0)
    projections_unaffected_by_gamma = np.array_equal(
        c.projections.m_user, d_.projections.m_user
    ) and np.array_equal(c.projections.m_item, d_.projections.m_item)

    # Changing the alignment weights (unit vs learned) must not change the
    # projection update while clearly changing the embedding update.
    with monkeypatch.context() as patch:
        patch.setattr(propensity, "inverse_weights", unit_inverse_weights)
        e = one_step()
    f = one_step()
    projections_unaffected_by_weights = np.array_equal(
        e.projections.m_user, f.projections.m_user
    )
    embeddings_move_with_weights = not np.array_equal(
        e.model.user_vecs, f.model.user_vecs
    )

    ok = (
        embeddings_unaffected_by_lambda
        and projections_move_with_lambda
        and projections_unaffected_by_gamma
        and projections_unaffected_by_weights
        and embeddings_move_with_weights
    )
    report(3, ok, "relation term -> projections only; weighted alignment -> embeddings only (exact)")


def test_criterion_4_propensity_range_and_clip():
    rng = np.random.default_rng(777)
    total = 100_000
    u = normalize_rows(rng.normal(size=(total, 8)))
    v = normalize_rows(rng.normal(size=(total, 8)))
    vals = propensity.estimate_learned(u, v)
    lo, hi = sigmoid(-1.0), sigmoid(1.0)
    in_band = vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12
    clip_inactive = np.array_equal(propensity.clip(vals, 0.1), vals)

    world = generate_synthetic_world(10, 30, 2.0, seed=5)
    low_cells = np.argwhere(world.exposure < 0.1)
    omega, _ = propensity.inverse_weights(
        propensity.estimate_oracle(world, low_cells), mu=0.1
    )
    clip_active = len(low_cells) > 0 and bool(np.all(omega == 0.1))

    ok = in_band and clip_inactive and clip_active
    report(
        4, ok,
        f"learned in [{vals.min():.4f}, {vals.max():.4f}] vs "
        f"[{lo:.4f}, {hi:.4f}]; clip inactive for learned, active for "
        f"{len(low_cells)} oracle cells < 0.1",
    )


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(321)
    worst_gap = 0.0
    for _ in range(200):
        m, n = 30, 40
        model = dc.EmbeddingTable(
            m, n, 5,
            rng.normal(size=(m, 5)).astype(np.float32),
            rng.normal(size=(n, 5)).astype(np.float32),
        )
        train_set = random_interaction_set(rng, m, n, density=0.15)
        free = np.array(
            [(u, i) for u in range(m) for i in range(n)
             if (u, i) not in train_set.pair_set()]
        )
        take = rng.choice(len(free), size=60, replace=False)
        test_set = InteractionSet(m, n, free[take])
        k = int(rng.integers(1, 30))

        rep = evaluation.evaluate_topk(model, train_set, test_set, k=k)
        tr = {u: set(map(int, user_items(train_set, u))) for u in range(m)}
        te = {u: set(map(int, user_items(test_set, u))) for u in range(m)
              if len(user_items(test_set, u))}
        recall, ndcg, _ = brute_force_topk(
            model.user_vecs.astype(np.float64),
            model.item_vecs.astype(np.float64), tr, te, k,
        )
        worst_gap = max(
            worst_gap, abs(rep.recall_at_k - recall), abs(rep.ndcg_at_k - ndcg)
        )

        counts_u = train_set.user_counts()
        counts_i = train_set.item_counts()
        ga = evaluation.group_alignment(model, test_set, counts_u, counts_i, 0.2)
        un = normalize_rows(model.user_vecs.astype(np.float64))
        im = normalize_rows(model.item_vecs.astype(np.float64))
        order = sorted(range(m), key=lambda x: (-counts_u[x], x))
        pop = set(order[: math.ceil(0.2 * m)])
        pop_vals = [
            float(np.sum((un[u] - im[i]) ** 2))
            for u, i in test_set.pairs if u in pop
        ]
        if pop_vals:
            worst_gap = max(worst_gap, abs(ga.pop_user_align - np.mean(pop_vals)))

    # hand case: single hit at rank 2 with k=20
    model = dc.EmbeddingTable(
        1, 25, 2,
        np.array([[1.0, 0.0]], dtype=np.float32),
        np.array([[2.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 23, dtype=np.float32),
    )
    rep = evaluation.evaluate_topk(
        model, InteractionSet(1, 25, np.zeros((0, 2))),
        InteractionSet(1, 25, np.array([[0, 1]])), k=20,
    )
    hand_ok = abs(rep.ndcg_at_k - 1.0 / math.log2(3.0)) < 1e-12

    ok = worst_gap < 1e-12 and hand_ok
    report(
        5, ok,
        f"200 random instances, worst |gap| to brute force {worst_gap:.2e}; "
        f"rank-2 hand case to 1e-12",
    )


DIRECTIONAL_CONFIG = dict(
    d=32, epochs=60, lr=3e-3, gamma=0.5, lambda_rel=1.0, batch_size=1024,
    eval_every=5, scoring="dot",
)


@pytest.fixture(scope="module")
def directional_runs():
    """Criterion 6/7 workload: 5 seeds x {directau, uctrl} on the pinned
    300x500 skew=2 world; metrics computed on each run's best checkpoint."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        world = generate_synthetic_world(300, 500, skew=2.0, seed=seed)
        clicks = sample_clicks(world, seed=seed)
        bundle = split_unbiased_protocol(clicks, 0.1, 0.1, seed=seed)
        per_objective = {}
        for objective in ("directau", "uctrl"):
            cfg = TrainConfig(objective=objective, seed=seed, **DIRECTIONAL_CONFIG)
            result = train(bundle, cfg)
            model = result.best_model
            rep = evaluation.evaluate_topk(
                model, bundle.train, bundle.test, k=20,
                scoring=cfg.scoring, mask_extra=bundle.validation,
            )
            ideal = dc.ideal_alignment_loss(model, world, bundle.train)
            groups = evaluation.group_alignment(
                model, bundle.train,
                bundle.train.user_counts(), bundle.train.item_counts(), 0.2,
            )
            per_objective[objective] = {
                "ndcg": rep.ndcg_at_k, "recall": rep.recall_at_k,
                "ideal": ideal, "groups": groups,
            }
        rows.append(per_objective)
    return rows, time.perf_counter() - t0


def test_criterion_6_directional_debiasing(directional_runs):
    rows, wall = directional_runs
    ndcg_dau = np.mean([r["directau"]["ndcg"] for r in rows])
    ndcg_uctrl = np.mean([r["uctrl"]["ndcg"] for r in rows])
    ideal_dau = np.mean([r["directau"]["ideal"] for r in rows])
    ideal_uctrl = np.mean([r["uctrl"]["ideal"] for r in rows])
    ok = ndcg_uctrl >= ndcg_dau and ideal_uctrl < ideal_dau and wall < 300
    report(
        6, ok,
        f"mean NDCG@20 uctrl {ndcg_uctrl:.4f} >= directau {ndcg_dau:.4f}; "
        f"mean ideal alignment uctrl {ideal_uctrl:.4f} < directau "
        f"{ideal_dau:.4f}; {wall:.0f}s (gate 300s)",
    )


def test_criterion_7_group_alignment_drops(directional_runs):
    rows, _ = directional_runs
    fields = (
        "pop_user_align", "unpop_user_align", "pop_item_align", "unpop_item_align"
    )
    seeds_all_four = 0
    for r in rows:
        ga_dau, ga_uctrl = r["directau"]["groups"], r["uctrl"]["groups"]
        if all(getattr(ga_uctrl, f) <= getattr(ga_dau, f) for f in fields):
            seeds_all_four += 1
    ok = seeds_all_four >= 4
    report(
        7, ok,
        f"alignment lower in all four popularity groups for "
        f"{seeds_all_four}/5 seeds (gate 4/5)",
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    # (a) identical config+seed -> bitwise-identical checkpoints
    world = generate_synthetic_world(20, 25, 1.5, seed=17)
    clicks = sample_clicks(world, seed=17)
    bundle = split_unbiased_protocol(clicks, 0.15, 0.15, seed=17)
    blobs = []
    for run in range(2):
        cfg = TrainConfig(
            objective="uctrl", d=8, epochs=4, lr=1e-2, batch_size=32,
            seed=23, eval_every=2,
        )
        result = train(bundle, cfg)
        path = tmp_path / f"det-{run}.bin"
        save_checkpoint(result.best_model, result.best_projections, path)
        blobs.append(path.read_bytes())
    deterministic = blobs[0] == blobs[1]

    # (b) checkpoint round-trip bit-exact
    model, proj = load_checkpoint(tmp_path / "det-0.bin")
    save_checkpoint(model, proj, tmp_path / "det-2.bin")
    round_trip = (tmp_path / "det-2.bin").read_bytes() == blobs[0]

    # (c) split disjoint/exhaustive over 1000 random seeds
    rng = np.random.default_rng(31)
    ok_splits = True
    base_sets = [random_interaction_set(rng, 12, 15, density=0.35) for _ in range(4)]
    for seed in range(1000):
        iset = base_sets[seed % len(base_sets)]
        bundle = split_unbiased_protocol(iset, 0.2, 0.15, seed=seed)
        tr = bundle.train.pair_set()
        va = bundle.validation.pair_set()
        te = bundle.test.pair_set()
        if tr | va | te != iset.pair_set() or (tr & va) or (tr & te) or (va & te):
            ok_splits = False
            break

    ok = deterministic and round_trip and ok_splits
    report(
        8, ok,
        f"bitwise-identical checkpoints: {deterministic}; round-trip "
        f"bit-exact: {round_trip}; 1000-seed split property: {ok_splits}",
    )
