import dataclasses
import hashlib
import logging
import math
import threading

import numpy as np
import pytest

import debias_cf as dc
from debias_cf import losses, propensity, trainer, util
from debias_cf.data import InteractionSet, SplitBundle, generate_synthetic_world, sample_clicks, split_unbiased_protocol
from debias_cf.embedding import normalize_rows
from debias_cf.errors import ConfigError, NumericalError
from debias_cf.trainer import Adam, TrainConfig, init_state, make_batches, train, train_step
from conftest import reference_adam_step, unit_inverse_weights


def toy_bundle(seed=0, m=20, n=20, skew=1.0):
    world = generate_synthetic_world(m, n, skew, seed=seed)
    clicks = sample_clicks(world, seed=seed)
    return world, split_unbiased_protocol(clicks, 0.15, 0.15, seed=seed)


def small_config(**overrides):
    base = dict(
        objective="directau", d=6, gamma=0.5, lambda_rel=1.0, lr=1e-2,
        batch_size=16, epochs=2, seed=1, eval_every=1, init_scale=0.05,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestMakeBatches:
    def iset(self, p):
        pairs = np.array([[u % 5, u % 7] for u in range(p)])
        # make pairs unique
        pairs = np.stack([np.arange(p) % 5, np.arange(p)], axis=1)
        return InteractionSet(5, p, pairs)

    def test_chunking(self):
        batches = make_batches(self.iset(10), 4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_short_batch_merged(self):
        batches = make_batches(self.iset(9), 4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 5]

    def test_deterministic_per_seed_epoch(self):
        a = make_batches(self.iset(10), 4, seed=3, epoch=2)
        b = make_batches(self.iset(10), 4, seed=3, epoch=2)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_epochs_reshuffle(self):
        a = np.concatenate(make_batches(self.iset(30), 8, seed=3, epoch=0))
        b = np.concatenate(make_batches(self.iset(30), 8, seed=3, epoch=1))
        assert not np.array_equal(a, b)
        assert sorted(map(tuple, a)) == sorted(map(tuple, b))


class TestAdam:
    def test_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        opt = Adam({"x": (1,)}, lr=lr)
        p = np.array([0.5])
        values = []
        for _ in range(2):
            p = opt.step({"x": p}, {"x": np.array([1.0])})["x"]
            values.append(p[0])

        # hand recurrence for gradient sequence (1.0, 1.0)
        m = v = 0.0
        ph = 0.5
        expected = []
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ph = ph - lr * mhat / (math.sqrt(vhat) + eps)
            expected.append(ph)
        assert float(values[0]) == pytest.approx(expected[0], rel=0, abs=1e-12)
        assert float(values[1]) == pytest.approx(expected[1], rel=0, abs=1e-12)

    def test_decoupled_weight_decay(self):
        lr, wd = 0.1, 0.01
        opt = Adam({"x": (1,)}, lr=lr, weight_decay=wd)
        p0 = np.array([2.0])
        p1 = opt.step({"x": p0}, {"x": np.array([0.0])})["x"]
        # zero gradient: only the decay term moves the parameter
        assert float(p1[0]) == pytest.approx(2.0 - lr * wd * 2.0, rel=0, abs=1e-15)

    def test_row_sparse_steps_bit_identical_to_dense_reference(self):
        rng = np.random.default_rng(3)
        block, d = trainer.ADAM_BLOCK_ROWS, 8
        shapes = {
            "user_vecs": (2 * block + 3, d),
            "item_vecs": (block - 1, d),
            "m_user": (d, d),
        }
        kw = dict(lr=0.05, weight_decay=1e-2)
        opt, ref = Adam(shapes, **kw), Adam(shapes, **kw)
        params = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        expected = {k: p.copy() for k, p in params.items()}
        for step in range(6):
            grads = {"m_user": rng.normal(size=(d, d))}
            for name in ("user_vecs", "item_vecs"):
                n_rows = shapes[name][0]
                if step == 3:
                    rows = np.arange(n_rows)
                else:  # the last 5 rows are left out
                    rows = np.unique(rng.integers(0, n_rows - 5, size=40))
                grads[name] = (rows, rng.normal(size=(len(rows), d)))
            expected = reference_adam_step(ref, expected, grads)
            opt.step(params, grads)
            for name in shapes:
                assert params[name].dtype == np.float32
                assert np.array_equal(params[name], expected[name]), (name, step)
                assert np.array_equal(opt.m[name], ref.m[name]), (name, step)
                assert np.array_equal(opt.v[name], ref.v[name]), (name, step)

    def test_zero_decay_steps_byte_identical_past_unit_bias_correction(self):
        # Compared as bytes, so a -0.0 where the reference has +0.0 fails.
        # init_scale=0 leaves -0.0 wherever the draw was negative, and 400
        # steps pass step 356, from which 1 - beta1**t rounds to 1.0.
        rng = np.random.default_rng(5)
        block, d = trainer.ADAM_BLOCK_ROWS, 4
        model, proj = dc.init_model(block + 7, 9, d, seed=0, scale=0.0)
        params = {"user_vecs": model.user_vecs, "item_vecs": model.item_vecs,
                  "m_user": proj.m_user}
        assert np.signbit(params["user_vecs"]).any()
        shapes = {k: p.shape for k, p in params.items()}
        opt, ref = Adam(shapes, lr=0.01), Adam(shapes, lr=0.01)
        expected = {k: p.copy() for k, p in params.items()}
        for step in range(400):
            grads = {"m_user": rng.normal(size=(d, d))}
            for name in ("user_vecs", "item_vecs"):
                rows = np.unique(rng.integers(0, shapes[name][0], size=5))
                grads[name] = (rows, rng.normal(size=(len(rows), d)))
            expected = reference_adam_step(ref, expected, grads)
            opt.step(params, grads)
            for name in shapes:
                assert params[name].tobytes() == expected[name].tobytes(), (name, step)
                assert opt.m[name].tobytes() == ref.m[name].tobytes(), (name, step)
                assert opt.v[name].tobytes() == ref.v[name].tobytes(), (name, step)
        assert 1.0 - Adam.beta1**opt.t == 1.0


class TestTrainStep:
    def test_lr_zero_only_advances_counters(self):
        _, bundle = toy_bundle()
        config = small_config(lr=0.0)  # bypasses validate() on purpose
        state = init_state(bundle.train.m, bundle.train.n, config)
        before_u = state.model.user_vecs.copy()
        before_m = state.projections.m_user.copy()
        train_step(state, bundle.train.pairs[:8], config)
        assert np.array_equal(state.model.user_vecs, before_u)
        assert np.array_equal(state.projections.m_user, before_m)
        assert state.opt.t == 1
        assert state.opt.m["user_vecs"].any()

    def test_nan_gradient_aborts_with_diagnostic(self):
        _, bundle = toy_bundle()
        config = small_config()
        state = init_state(bundle.train.m, bundle.train.n, config)
        state.model.user_vecs[0] = np.nan
        with pytest.raises(NumericalError, match="user_vecs.*step 1"):
            train_step(state, bundle.train.pairs[:8], config)

    @pytest.mark.parametrize("objective", ["directau", "uctrl"])
    def test_degenerate_row_logged_once_per_step(self, objective, caplog):
        _, bundle = toy_bundle(seed=12, m=5, n=5)
        config = small_config(objective=objective, seed=15)
        state = init_state(bundle.train.m, bundle.train.n, config)
        state.model.user_vecs[0] = 0.0
        batch = bundle.train.pairs
        assert 0 in batch[:, 0]
        with caplog.at_level(logging.WARNING, logger="debias_cf"):
            train_step(state, batch, config)
            train_step(state, batch, config)
        logged = [r for r in caplog.records if "degenerate" in r.getMessage()]
        assert len(logged) == 2

    def test_single_pair_alignment_strictly_decreases(self):
        config = small_config(objective="directau", gamma=0.0, lr=1e-2, seed=3)
        state = init_state(4, 4, config)
        pair = np.array([[1, 2]])

        def distance():
            u = normalize_rows(state.model.user_vecs[[1]].astype(np.float64))
            i = normalize_rows(state.model.item_vecs[[2]].astype(np.float64))
            return float(np.sum((u - i) ** 2))

        before = distance()
        train_step(state, pair, config)
        assert distance() < before

    def test_gradient_partition_lambda_does_not_touch_embeddings(self):
        _, bundle = toy_bundle(seed=5)
        batch = bundle.train.pairs[:12]
        updates = {}
        for lam in (0.0, 2.5):
            config = small_config(objective="uctrl", lambda_rel=lam, seed=7)
            state = init_state(bundle.train.m, bundle.train.n, config)
            train_step(state, batch, config)
            updates[lam] = (
                state.model.user_vecs.copy(),
                state.model.item_vecs.copy(),
                state.projections.m_user.copy(),
            )
        assert np.array_equal(updates[0.0][0], updates[2.5][0])
        assert np.array_equal(updates[0.0][1], updates[2.5][1])
        assert not np.array_equal(updates[0.0][2], updates[2.5][2])

    def test_gradient_partition_gamma_does_not_touch_projections(self):
        _, bundle = toy_bundle(seed=5)
        batch = bundle.train.pairs[:12]
        updates = {}
        for gamma in (0.0, 2.5):
            config = small_config(objective="uctrl", gamma=gamma, seed=7)
            state = init_state(bundle.train.m, bundle.train.n, config)
            train_step(state, batch, config)
            updates[gamma] = (
                state.model.user_vecs.copy(),
                state.projections.m_user.copy(),
                state.projections.m_item.copy(),
            )
        assert np.array_equal(updates[0.0][1], updates[2.5][1])
        assert np.array_equal(updates[0.0][2], updates[2.5][2])
        assert not np.array_equal(updates[0.0][0], updates[2.5][0])

    def test_grad_through_reaches_projections(self):
        _, bundle = toy_bundle(seed=5)
        batch = bundle.train.pairs[:12]
        m_updates = {}
        for flag in (False, True):
            config = small_config(
                objective="uctrl", seed=7, propensity_grad_through=flag
            )
            state = init_state(bundle.train.m, bundle.train.n, config)
            train_step(state, batch, config)
            m_updates[flag] = state.projections.m_user.copy()
        assert not np.array_equal(m_updates[False], m_updates[True])

    def test_oracle_objective_uses_world(self):
        world, bundle = toy_bundle(seed=2)
        config = small_config(objective="ipw_align_oracle")
        state = init_state(bundle.train.m, bundle.train.n, config)
        record = train_step(state, bundle.train.pairs[:8], config, world=world)
        assert record["relation_align"] == record["relation_uniform"] == 0.0
        assert math.isfinite(record["total"])
        with pytest.raises(ConfigError):
            train_step(state, bundle.train.pairs[:8], config)

    def test_isolated_term_updates_match_joint_step(self):
        # Deleting the relation term must not change the embedding update,
        # and deleting the weighted-alignment term must not change the
        # projection update, given the same propensity weights.
        import debias_cf.losses as losses_mod
        import debias_cf.propensity as pp
        from debias_cf.embedding import normalize_rows_full
        from debias_cf.trainer import Adam
        from debias_cf.util import sigmoid

        _, bundle = toy_bundle(seed=12, m=5, n=5)
        batch = bundle.train.pairs[:6]
        config = small_config(objective="uctrl", seed=15)
        state = init_state(bundle.train.m, bundle.train.n, config)
        init_user = state.model.user_vecs.copy()
        init_mu = state.projections.m_user.copy()

        # reproduce the step's gradients with standalone loss calls
        uids, u_inv = np.unique(batch[:, 0], return_inverse=True)
        iids, i_inv = np.unique(batch[:, 1], return_inverse=True)
        user_rows = init_user[uids].astype(np.float64)
        item_rows = state.model.item_vecs[iids].astype(np.float64)
        base_u, _, _ = normalize_rows_full(user_rows)
        base_i, _, _ = normalize_rows_full(item_rows)
        _, g_mu, g_mi, fwd = losses_mod.relation_param_grads(
            base_u, base_i, u_inv, i_inv,
            init_mu.astype(np.float64),
            state.projections.m_item.astype(np.float64),
            config.lambda_rel,
        )
        (pu, _, _), (pi, _, _) = fwd
        dots = np.einsum("bd,bd->b", pu[u_inv], pi[i_inv])
        weights = 1.0 / pp.clip(sigmoid(dots), config.mu)
        _, g_user, g_item = losses_mod.dau_param_grads(
            normalize_rows_full(user_rows), normalize_rows_full(item_rows),
            u_inv, i_inv, weights, config.gamma,
        )

        m, n, d = state.model.m, state.model.n, state.model.d
        dense_user = np.zeros((m, d))
        dense_user[uids] = g_user
        dense_item = np.zeros((n, d))
        dense_item[iids] = g_item

        # embedding-only optimizer ("relation term deleted")
        opt_e = Adam({"user_vecs": (m, d), "item_vecs": (n, d)}, lr=config.lr)
        new_e = opt_e.step(
            {
                "user_vecs": init_user.astype(np.float64),
                "item_vecs": state.model.item_vecs.astype(np.float64),
            },
            {"user_vecs": dense_user, "item_vecs": dense_item},
        )
        # projection-only optimizer ("weighted-alignment term deleted")
        opt_p = Adam({"m_user": (d, d), "m_item": (d, d)}, lr=config.lr)
        new_p = opt_p.step(
            {
                "m_user": init_mu.astype(np.float64),
                "m_item": state.projections.m_item.astype(np.float64),
            },
            {"m_user": g_mu, "m_item": g_mi},
        )

        train_step(state, batch, config)
        assert np.array_equal(
            state.model.user_vecs, new_e["user_vecs"].astype(np.float32)
        )
        assert np.array_equal(
            state.model.item_vecs, new_e["item_vecs"].astype(np.float32)
        )
        assert np.array_equal(
            state.projections.m_user, new_p["m_user"].astype(np.float32)
        )
        assert np.array_equal(
            state.projections.m_item, new_p["m_item"].astype(np.float32)
        )


class TestTrajectoryEquality:
    def test_unit_weight_joint_matches_biased_embeddings(self, monkeypatch):
        # With alignment weights forced to 1, the joint objective must move
        # the embeddings exactly as the biased objective does, even though
        # the projections keep training alongside.
        _, bundle = toy_bundle(seed=9)
        cfg_dau = small_config(objective="directau", epochs=4, seed=11)
        cfg_uctrl = small_config(objective="uctrl", epochs=4, seed=11)
        res_dau = train(bundle, cfg_dau)
        monkeypatch.setattr(propensity, "inverse_weights", unit_inverse_weights)
        res_uctrl = train(bundle, cfg_uctrl)
        assert np.array_equal(
            res_dau.state.model.user_vecs, res_uctrl.state.model.user_vecs
        )
        assert np.array_equal(
            res_dau.state.model.item_vecs, res_uctrl.state.model.item_vecs
        )
        # and the projections did move in the joint run
        init_proj = init_state(bundle.train.m, bundle.train.n, cfg_uctrl)
        assert not np.array_equal(
            res_uctrl.state.projections.m_user, init_proj.projections.m_user
        )


class TestTrain:
    def test_step_count_one_epoch(self):
        _, bundle = toy_bundle()
        p = len(bundle.train)
        config = small_config(epochs=1, batch_size=8)
        result = train(bundle, config)
        expected = math.ceil(p / 8)
        if p % 8 == 1:
            expected -= 1
        assert result.state.opt.t == expected

    def test_losses_finite_on_smoke_world(self):
        _, bundle = toy_bundle(seed=4)
        for objective in ("directau", "uctrl", "ipw_align_pop"):
            config = small_config(objective=objective, epochs=3)
            result = train(bundle, config)
            for record in result.history:
                assert math.isfinite(record["total"])
                assert math.isfinite(record["align"])

    def test_best_checkpoint_by_injected_metric(self):
        _, bundle = toy_bundle(seed=6)
        config = small_config(epochs=3, eval_every=1)
        fake = iter([(0.0, 0.1), (0.0, 0.3), (0.0, 0.2)])
        snapshots = {}

        def eval_fn(model, proj, epoch):
            snapshots[epoch] = model.user_vecs.copy()
            return next(fake)

        result = train(bundle, config, eval_fn=eval_fn)
        assert result.best_epoch == 2
        assert result.best_val_ndcg == 0.3
        assert np.array_equal(result.best_model.user_vecs, snapshots[2])

    def test_history_schema(self):
        _, bundle = toy_bundle(seed=6)
        result = train(bundle, small_config(epochs=2, eval_every=2, objective="uctrl"))
        keys = {
            "epoch", "align", "uniform_user", "uniform_item", "relation_align",
            "relation_uniform", "total", "val_recall20", "val_ndcg20", "wall_ms",
        }
        assert set(result.history[0]) == keys
        assert result.history[0]["val_ndcg20"] is None  # epoch 1, eval_every 2
        assert result.history[1]["val_ndcg20"] is not None

    def test_bitwise_determinism(self, tmp_path):
        _, bundle = toy_bundle(seed=8)
        paths = []
        for run in range(2):
            config = small_config(objective="uctrl", epochs=3, seed=13)
            result = train(bundle, config)
            path = tmp_path / f"run{run}.bin"
            dc.save_checkpoint(result.best_model, result.best_projections, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_last_step_raises(self):
        # One batch and no validation: no later step reads the overflowed
        # rows, so only the check of the returned tensors sees them.
        _, bundle = toy_bundle()
        no_pairs = np.empty((0, 2), dtype=np.int64)
        bundle = dataclasses.replace(bundle, validation=bundle.train.replaced(no_pairs))
        config = small_config(lr=1e39, epochs=1, batch_size=len(bundle.train))
        with pytest.raises(NumericalError, match="'user_vecs'"):
            train(bundle, config)

    def test_one_info_line_per_epoch(self, caplog):
        _, bundle = toy_bundle()
        with caplog.at_level(logging.INFO, logger="debias_cf.trainer"):
            train(bundle, small_config(epochs=3))
        epochs = [r for r in caplog.records
                  if r.name == "debias_cf.trainer" and r.levelno == logging.INFO]
        assert [r.getMessage().split(":")[0] for r in epochs] == [
            "epoch 1", "epoch 2", "epoch 3"]

    def test_config_validation(self):
        _, bundle = toy_bundle()
        with pytest.raises(ConfigError):
            train(bundle, small_config(lr=-1.0))
        with pytest.raises(ConfigError):
            train(bundle, small_config(objective="magic"))
        with pytest.raises(ConfigError):
            train(bundle, small_config(batch_size=1))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        "lr", "gamma", "lambda_rel", "weight_decay", "init_scale", "pop_exponent",
    ])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            small_config(**{name: value}).validate()


#: SHA-256 of the four float32 tensors after a short fixed `train` on
#: `toy_bundle(seed=5, m=60, n=80)` (875 training pairs), as trained before
#: the training step's scatter and Adam update were streamlined. The bytes
#: depend on the rounding of numpy's exp and sqrt and of the BLAS matrix
#: products (x86-64, numpy 2.4, OpenBLAS 0.3); another build may round
#: differently.
PINNED_TRAIN_SHA256 = {
    "directau-b128": {
        "user_vecs": "13b59f088320473e923276826e370c3222b5bc68f1e91d5fa45a8088421e851d",
        "item_vecs": "3e62e329940cd4b7eabbc88cae1b18bd39d15c7552c14816f09a59604237341c",
        "m_user": "8c35f8554733b22b685b30db45aad41fe02850ca1dbb65641784924ae0facd0c",
        "m_item": "fac8c2c3feb6a607e74478c960eb8d9d4ca9d5f33410ea90b01baa16dbe02876",
    },
    "uctrl": {
        "user_vecs": "3fedf26dd5e76756b937b0d00893dd1418428bc5d50a0aa3fab07cc0c6e233fb",
        "item_vecs": "eb7de553b35c2252d216a170722485f9226b83c5315de1e421db08649e730f06",
        "m_user": "02c450e9bc453952c15dfc6077c27f9ecdc914e55f3fa13c22bdf2d583e8cfca",
        "m_item": "cb34a57d5138ef8afa2ae82151c89f24d2e1aa2ef54bd0d0a3460ebd8ed72709",
    },
    "uctrl-grad-through": {
        "user_vecs": "877af8ea64a26dfa280d182ceacf980b301326178d1bafd58e5a9f4217869729",
        "item_vecs": "ab922feddb3aead2e12dec56ed7281fdc30e0933fb2dcca62c040906e16b5d6c",
        "m_user": "e97ac0e87ccfe3536a5dd9ca06cb3c0714569643ca88182efb13c2199a67e022",
        "m_item": "dacf496cb09087385a0976ca98c18856916ea8264d7e73d42c421bb960e3182c",
    },
}

PINNED_TRAIN_CONFIGS = {
    # 7 batches for 55 epochs: 385 steps, past step 356, from which
    # 1 - beta1**t rounds to 1.0; weight_decay stays 0.
    "directau-b128": dict(objective="directau", batch_size=128, epochs=55),
    "uctrl": dict(objective="uctrl", weight_decay=1e-3),
    "uctrl-grad-through": dict(objective="uctrl", propensity_grad_through=True),
}


class TestPinnedTraining:
    @pytest.fixture(scope="class")
    def bundle(self):
        _, bundle = toy_bundle(seed=5, m=60, n=80)
        return bundle

    @pytest.mark.parametrize("case", sorted(PINNED_TRAIN_CONFIGS))
    def test_trained_tensors_are_pinned(self, bundle, case):
        config = small_config(d=8, seed=2, eval_every=100, **PINNED_TRAIN_CONFIGS[case])
        state = train(bundle, config).state
        if case == "directau-b128":
            assert state.opt.t > 356
        digests = {
            name: hashlib.sha256(np.ascontiguousarray(t, dtype="<f4").tobytes()).hexdigest()
            for name, t in trainer._tensors(state.model, state.projections).items()
        }
        assert digests == PINNED_TRAIN_SHA256[case]


class TestConcurrentSides:
    """Training is bit-identical whether the two sides of each loss term
    run on the worker thread or one after the other on the caller's."""

    @pytest.fixture(scope="class")
    def bundle(self):
        # 1024-pair batches hold 272-288 distinct rows on the smaller side,
        # 128-pair batches at most 110.
        _, bundle = toy_bundle(seed=3, m=300, n=450)
        return bundle

    @pytest.mark.parametrize("batch_size, worker_used", [(1024, True), (128, False)])
    @pytest.mark.parametrize("overrides", [
        dict(objective="directau"),
        dict(objective="uctrl"),
        dict(objective="uctrl", propensity_grad_through=True),
    ], ids=["directau", "uctrl", "uctrl-grad-through"])
    def test_worker_on_and_off_train_identically(
        self, bundle, monkeypatch, overrides, batch_size, worker_used
    ):
        config = small_config(d=8, epochs=2, seed=4, batch_size=batch_size, **overrides)
        threads = set()
        accumulate = losses._accumulate_side

        def recording(*args):
            threads.add(threading.current_thread())
            return accumulate(*args)

        monkeypatch.setattr(losses, "_accumulate_side", recording)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            threads.clear()
            results.append(train(bundle, config))
            assert (len(threads) == 2) == (worker_used and cpus == 2)
        serial, concurrent = results

        def tensors(result):
            state = result.state
            yield from (state.model.user_vecs, state.model.item_vecs,
                        state.projections.m_user, state.projections.m_item,
                        result.best_model.user_vecs, result.best_model.item_vecs,
                        result.best_projections.m_user, result.best_projections.m_item)
            for name in sorted(state.opt.m):
                yield state.opt.m[name]
                yield state.opt.v[name]

        for a, b in zip(tensors(serial), tensors(concurrent), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert serial.state.opt.t == concurrent.state.opt.t
        assert (serial.best_epoch, serial.best_val_ndcg) == (
            concurrent.best_epoch, concurrent.best_val_ndcg)
        for a, b in zip(serial.history, concurrent.history, strict=True):
            assert {**a, "wall_ms": 0} == {**b, "wall_ms": 0}
