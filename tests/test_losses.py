import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_cf import losses, util
from debias_cf.data import (
    InteractionSet,
    generate_synthetic_world,
    sample_clicks,
    split_unbiased_protocol,
)
from debias_cf.embedding import (
    EmbeddingTable,
    init_model,
    normalize_rows,
    normalize_rows_backward,
    normalize_rows_full,
)
from debias_cf.errors import ConfigError
from debias_cf.trainer import TrainConfig, init_state, train_step
from conftest import (
    brute_force_uniformity,
    central_difference,
    factor_world,
    max_relative_error,
    reference_relation_param_grads,
    reference_scatter_rows,
    reference_uniformity_single_matrix,
    reference_uniformity_value_grad,
    world_cells,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_batch(rng, b=6, d=4, weights=None, n_users=None, n_items=None):
    """Unique raw rows per side plus the pair -> row maps, as train_step
    builds them; every row is used by at least one pair."""
    n_users = n_users or max(2, b - 2)
    n_items = n_items or max(2, b - 1)
    _, u_inv = np.unique(rng.integers(0, n_users, b), return_inverse=True)
    _, i_inv = np.unique(rng.integers(0, n_items, b), return_inverse=True)
    user_rows = rng.normal(size=(u_inv.max() + 1, d))
    item_rows = rng.normal(size=(i_inv.max() + 1, d))
    if weights is None:
        weights = np.ones(b)
    return user_rows, item_rows, u_inv, i_inv, weights


def unit_batch(batch):
    """A make_batch batch with each side's rows in normalize_rows_full form,
    the form dau_param_grads takes."""
    user_rows, item_rows, u_inv, i_inv, weights = batch
    return normalize_rows_full(user_rows), normalize_rows_full(item_rows), u_inv, i_inv, weights


def pair_vecs(batch):
    """Per-pair normalized vectors and weights of a make_batch batch."""
    user_rows, item_rows, u_inv, i_inv, weights = batch
    return normalize_rows(user_rows)[u_inv], normalize_rows(item_rows)[i_inv], weights


def alignment(u_norm, i_norm, weights):
    return losses.alignment_value_grad(u_norm, i_norm, weights)[0]


def uniformity(vecs):
    return losses.uniformity_value_grad(vecs)[0]


class TestAlignment:
    def test_identical_vectors_zero(self, rng):
        vecs = normalize_rows(rng.normal(size=(4, 3)))
        assert alignment(vecs, vecs.copy(), np.array([1.0, 2.0, 0.5, 3.0])) == 0.0

    def test_orthogonal_pair_unit_weight(self):
        value = alignment(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([1.0]))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_pair_ipw_weight(self):
        # weight 1/0.5 doubles the orthogonal-pair distance of 2
        value = alignment(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([1.0 / 0.5])
        )
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        u = normalize_rows(rng.normal(size=(5, 3)))
        i = normalize_rows(rng.normal(size=(5, 3)))
        w = rng.uniform(0.5, 3.0, 5)
        _, gu, gi = losses.alignment_value_grad(u, i, w)
        fd_u = central_difference(
            lambda: losses.alignment_value_grad(u, i, w)[0], u, h=1e-6
        )
        fd_i = central_difference(
            lambda: losses.alignment_value_grad(u, i, w)[0], i, h=1e-6
        )
        assert max_relative_error(gu, fd_u) < 1e-6
        assert max_relative_error(gi, fd_i) < 1e-6

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            alignment(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_nonnegative(self, seed):
        batch = make_batch(np.random.default_rng(seed))
        assert alignment(*pair_vecs(batch)) >= 0.0

    def test_batch_consistency_with_per_pair_mean(self, rng):
        u, i, w = pair_vecs(make_batch(rng, b=7, weights=rng.uniform(1.0, 2.0, 7)))
        singles = [alignment(u[k : k + 1], i[k : k + 1], w[k : k + 1]) for k in range(7)]
        assert alignment(u, i, w) == pytest.approx(np.mean(singles), rel=1e-13)


class TestUniformity:
    def test_identical_rows_zero(self):
        vecs = np.tile(unit([1.0, 2.0, 2.0]), (5, 1))
        assert uniformity(vecs) == pytest.approx(0.0, abs=1e-12)

    def test_two_orthogonal_vectors(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert uniformity(vecs) == pytest.approx(-4.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        vecs = normalize_rows(rng.normal(size=(8, 5)))
        assert uniformity(vecs) == pytest.approx(brute_force_uniformity(vecs), abs=1e-10)

    def test_single_vector_rejected(self):
        with pytest.raises(ConfigError):
            uniformity(np.array([[1.0, 0.0]]))

    def test_zero_coefficient_keeps_only_the_value(self, rng, monkeypatch):
        # A side with coefficient 0 logs the uniformity value bit for bit
        # and takes the alignment gradient alone, without building the
        # uniformity gradient.
        inv = np.array([0, 2, 1, 2, 0, 3, 4, 1])
        pair_grads = rng.normal(size=(8, 6))
        side = normalize_rows_full(rng.normal(size=(5, 6)))
        value, _ = losses.uniformity_value_grad(side[0])
        for rows, coeff in ((5, 0.0), (5, 0.7), (1, 0.0)):
            unit_rows = tuple(a[:rows] for a in side)
            alone = normalize_rows_backward(
                *unit_rows, reference_scatter_rows(inv % rows, pair_grads, rows))
            grad, unif = losses._accumulate_side(inv % rows, pair_grads, unit_rows, coeff)
            if coeff == 0.0:
                assert grad.tobytes() == alone.tobytes()
                assert np.float64(unif).tobytes() == np.float64(value if rows > 1 else 0.0).tobytes()
            else:
                assert not np.array_equal(grad, alone)

        def unexpected(vecs):
            raise AssertionError("the uniformity gradient was built")

        monkeypatch.setattr(losses, "uniformity_value_grad", unexpected)
        assert losses._accumulate_side(inv, pair_grads, side, 0.0)[1] == value

    def test_gradient_matches_finite_differences(self, rng):
        vecs = normalize_rows(rng.normal(size=(6, 4)))
        _, grad = losses.uniformity_value_grad(vecs)
        fd = central_difference(
            lambda: losses.uniformity_value_grad(vecs)[0], vecs, h=1e-6
        )
        assert max_relative_error(grad, fd) < 1e-6

    @pytest.mark.parametrize("b", [2, 3, 127, 128])
    def test_single_block_bit_identical_to_single_matrix(self, b):
        # A side of at most UNIFORMITY_BLOCK_ROWS rows is one block: the
        # whole kernel, summed and multiplied as one matrix.
        assert b <= losses.UNIFORMITY_BLOCK_ROWS
        rng = np.random.default_rng(b)
        unit_rows = normalize_rows_full(rng.normal(size=(b, 16)))
        ref_value, ref_grad = reference_uniformity_single_matrix(unit_rows[0])
        value, grad = losses.uniformity_value_grad(unit_rows[0])
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        inv = rng.permutation(np.arange(2 * b) % b)
        unif = losses._accumulate_side(inv, rng.normal(size=(2 * b, 16)), unit_rows, 0.0)[1]
        assert np.float64(unif).tobytes() == np.float64(ref_value).tobytes()

    def test_value_only_path_matches_gradient_path_across_blocks(self, rng):
        # Coefficient 0 runs the same block loop without the gradient
        # products, so the logged value is the same bits.
        b = 300
        unit_rows = normalize_rows_full(rng.normal(size=(b, 16)))
        value, _ = losses.uniformity_value_grad(unit_rows[0])
        unif = losses._accumulate_side(np.arange(b), rng.normal(size=(b, 16)), unit_rows, 0.0)[1]
        assert np.float64(unif).tobytes() == np.float64(value).tobytes()

    def test_memory_is_block_rows_by_batch(self):
        # No B x B matrix: one call at B = 1024, d = 64 stays below four
        # UNIFORMITY_BLOCK_ROWS x B float64 blocks (the single matrix
        # peaked at about 9.4 MB).
        b = 1024
        vecs = normalize_rows(np.random.default_rng(0).normal(size=(b, 64)))
        tracemalloc.start()
        try:
            losses.uniformity_value_grad(vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * losses.UNIFORMITY_BLOCK_ROWS * b * 8

    @pytest.mark.parametrize("b", [2, 3, 31, 32, 33, 65, 129, 255, 256, 257, 750, 1024])
    def test_matches_distance_form_on_unit_rows(self, b):
        # On unit rows exp(4 (G - 1)) is the distance form's kernel; the
        # gradients differ by a multiple of each row, so their tangential
        # parts g - (g.x) x agree. Above 128 rows the duplicate row, the e1
        # row and row 0 fall in different blocks.
        rng = np.random.default_rng(b)
        vecs = normalize_rows(rng.normal(size=(b, 16)))
        vecs[b - 1] = vecs[0]  # a duplicate row: d2 = 0 off the diagonal
        vecs[b // 2] = 0.0
        vecs[b // 2, 0] = 1.0  # e1, the degenerate-row fallback
        value, grad = losses.uniformity_value_grad(vecs)
        ref_value, ref_grad = reference_uniformity_value_grad(vecs)
        assert abs(value - ref_value) <= 1e-14 * abs(ref_value)

        def tangential(g):
            return g - np.einsum("bd,bd->b", g, vecs)[:, None] * vecs

        ref_tan = tangential(ref_grad)
        assert np.abs(tangential(grad) - ref_tan).max() <= 1e-12 * np.abs(ref_tan).max()

    @pytest.mark.parametrize("coeff", [0.7, 1.0])
    def test_raw_row_gradient_matches_distance_form(self, rng, coeff):
        # Through the chain rule the part along each row drops out, so the
        # raw-row gradient equals the distance form's, degenerate row included.
        inv = np.array([0, 2, 1, 2, 0, 3, 4, 1, 5, 5])
        pair_grads = rng.normal(size=(10, 6))
        raw = rng.normal(size=(6, 6)) * rng.uniform(0.1, 3.0, size=(6, 1))
        raw[4] = 0.0
        unit_rows = normalize_rows_full(raw)
        grad, unif = losses._accumulate_side(inv, pair_grads, unit_rows, coeff)
        ref_value, ref_grad = reference_uniformity_value_grad(unit_rows[0])
        expected = normalize_rows_backward(
            *unit_rows,
            reference_scatter_rows(inv, pair_grads, 6) + (coeff / 2.0) * ref_grad,
        )
        assert abs(unif - ref_value) <= 1e-12 * abs(ref_value)
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        vecs = normalize_rows(rng.normal(size=(rng.integers(2, 9), 4)))
        assert uniformity(vecs) <= 1e-12


class TestDirectau:
    def test_gamma_zero_equals_alignment(self, rng):
        batch = make_batch(rng)
        terms, _, _ = losses.dau_param_grads(*unit_batch(batch), gamma=0.0)
        assert terms.total == alignment(*pair_vecs(batch))

    def test_collapsed_model_all_zero(self):
        vec = unit([1.0, 1.0])
        # pairs (0, 0), (1, 1), (2, 0): three users, two items
        terms, _, _ = losses.dau_param_grads(
            normalize_rows_full(np.tile(vec, (3, 1))),
            normalize_rows_full(np.tile(vec, (2, 1))),
            np.array([0, 1, 2]), np.array([0, 1, 0]), np.ones(3), gamma=1.0,
        )
        assert terms.align == pytest.approx(0.0, abs=1e-12)
        assert terms.uniform_user == pytest.approx(0.0, abs=1e-12)
        assert terms.uniform_item == pytest.approx(0.0, abs=1e-12)
        assert terms.total == pytest.approx(0.0, abs=1e-12)

    def test_assembled_from_component_oracles(self, rng):
        batch = make_batch(rng, b=9)
        gamma = 1.0
        terms, _, _ = losses.dau_param_grads(*unit_batch(batch), gamma)
        user_rows, item_rows, _, _, _ = batch
        u, i, _ = pair_vecs(batch)
        diff = u - i
        align = float(np.mean(np.sum(diff * diff, axis=1)))
        uu = brute_force_uniformity(normalize_rows(user_rows))
        ui = brute_force_uniformity(normalize_rows(item_rows))
        assert terms.total == pytest.approx(align + gamma * (uu + ui) / 2, abs=1e-10)


#: Latent products whose sigmoid is exactly 0, 1/2 and 1 in float32.
RELEVANCE_LOGITS = {0.0: -1e4, 0.5: 0.0, 1.0: 1e4}


class TestIdealAlignment:
    def setup_case(self, rng, rho_value):
        m, n, d = 4, 5, 3
        model = EmbeddingTable(
            m, n, d,
            rng.normal(size=(m, d)).astype(np.float32),
            rng.normal(size=(n, d)).astype(np.float32),
        )
        world = factor_world(0.5, np.full((m, n), RELEVANCE_LOGITS[rho_value]))
        pairs = InteractionSet(m, n, np.array([[0, 1], [1, 2], [3, 4], [2, 0]]))
        return model, world, pairs

    def test_zero_relevance(self, rng):
        model, world, pairs = self.setup_case(rng, 0.0)
        assert losses.ideal_alignment_loss(model, world, pairs) == 0.0

    def test_full_relevance_equals_unit_alignment(self, rng):
        model, world, pairs = self.setup_case(rng, 1.0)
        u = normalize_rows(model.user_vecs[pairs.pairs[:, 0]].astype(np.float64))
        i = normalize_rows(model.item_vecs[pairs.pairs[:, 1]].astype(np.float64))
        assert losses.ideal_alignment_loss(model, world, pairs) == pytest.approx(
            alignment(u, i, np.ones(len(pairs))), rel=1e-6
        )

    def test_linear_in_relevance(self, rng):
        model, world_half, pairs = self.setup_case(rng, 0.5)
        _, world_full, _ = self.setup_case(np.random.default_rng(0), 1.0)
        half = losses.ideal_alignment_loss(model, world_half, pairs)
        full = losses.ideal_alignment_loss(model, world_full, pairs)
        assert half == pytest.approx(full / 2, rel=1e-6)

    def test_value_is_pinned(self):
        # Every cell of a three-block world, on a seeded model; the value
        # was made before the world was kept in factor form.
        m, n = 300, 40
        world = generate_synthetic_world(m, n, 1.5, seed=4)
        model, _ = init_model(m, n, 8, seed=2, scale=0.5)
        uu, ii = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        cells = InteractionSet(m, n, np.stack([uu.ravel(), ii.ravel()], axis=1))
        assert losses.ideal_alignment_loss(model, world, cells).hex() == "0x1.002763533f3e9p+0"


class TestUnbiasedDirectau:
    def test_halved_propensity_doubles_alignment_only(self, rng):
        user_unit, item_unit, u_inv, i_inv, weights = unit_batch(make_batch(rng))
        t1, _, _ = losses.dau_param_grads(user_unit, item_unit, u_inv, i_inv, weights, 0.9)
        t2, _, _ = losses.dau_param_grads(
            user_unit, item_unit, u_inv, i_inv, weights * 2.0, 0.9
        )
        assert t2.align == pytest.approx(2 * t1.align, rel=1e-12)
        assert t2.uniform_user == t1.uniform_user
        assert t2.uniform_item == t1.uniform_item

    def test_resampled_mean_converges_to_ideal(self, rng):
        # Smaller copy of the acceptance protocol: fixed reference cells,
        # clicks resampled, inverse-exposure weights with a fixed-size
        # normalizer; the mean must approach the relevance-weighted value.
        from debias_cf.data import generate_synthetic_world
        from debias_cf.embedding import init_model

        m, n = 20, 30
        world = generate_synthetic_world(m, n, 1.5, seed=8)
        model, _ = init_model(m, n, 8, seed=2, scale=0.5)
        uu, ii = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        all_pairs = InteractionSet(m, n, np.stack([uu.ravel(), ii.ravel()], axis=1))
        ideal = losses.ideal_alignment_loss(model, world, all_pairs)

        un = normalize_rows(model.user_vecs.astype(np.float64))
        im = normalize_rows(model.item_vecs.astype(np.float64))
        d2 = ((un[:, None, :] - im[None, :, :]) ** 2).sum(-1)
        relevance, exposure = world_cells(world)
        omega = exposure.astype(np.float64)
        prob = omega * relevance.astype(np.float64)
        draws = rng.random((400, m, n)) < prob
        estimates = (draws * d2 / omega).sum(axis=(1, 2)) / (m * n)
        assert abs(estimates.mean() - ideal) / ideal < 0.02


def relation_terms(batch, lambda_rel, m_user=None, m_item=None):
    """Relation-space terms of a make_batch batch; identity projections by
    default."""
    user_rows, item_rows, u_inv, i_inv, _ = batch
    d = user_rows.shape[1]
    terms, _, _, _ = losses.relation_param_grads(
        normalize_rows(user_rows), normalize_rows(item_rows), u_inv, i_inv,
        np.eye(d) if m_user is None else m_user,
        np.eye(d) if m_item is None else m_item,
        lambda_rel,
    )
    return terms


class TestScatterRows:
    """The bincount scatter and its two callers give the bytes of the
    np.add.at oracle: repeated rows, a -0.0 pair gradient, a one-row side."""

    def test_helper_matches_add_at(self, rng):
        inv = np.array([2, 0, 2, 1, 0, 2, 3])
        pair_grads = rng.normal(size=(7, 3))
        pair_grads[3] = -0.0  # row 1's only pair: +0.0 + -0.0 is +0.0
        for rows_of, rows in ((inv, 4), (np.zeros(7, dtype=np.intp), 1)):
            got = losses._scatter_rows(rows_of, pair_grads, rows)
            assert got.shape == (rows, 3)
            assert got.tobytes() == reference_scatter_rows(rows_of, pair_grads, rows).tobytes()
        assert not np.signbit(losses._scatter_rows(inv, pair_grads, 4)[1]).any()

    @pytest.mark.parametrize("n_u", [1, 5])
    def test_callers_match_add_at(self, rng, monkeypatch, n_u):
        b, d = 12, 3
        u_inv = rng.permutation(np.r_[np.arange(n_u), rng.integers(0, n_u, b - n_u)])
        i_inv = rng.permutation(np.r_[np.arange(4), rng.integers(0, 4, b - 4)])
        pair_grads = rng.normal(size=(b, d))
        pair_grads[3] = -0.0
        base_u = normalize_rows(rng.normal(size=(n_u, d)))
        base_i = normalize_rows(rng.normal(size=(4, d)))
        forward = losses.relation_forward(
            base_u, base_i, np.eye(d) + 0.2 * rng.normal(size=(d, d)), np.eye(d)
        )
        unit_u = forward[0]
        omega = rng.uniform(0.05, 0.9, len(u_inv))
        ipw_args = (forward, base_u, base_i, u_inv, i_inv, omega, 0.1)

        def run():
            grad, unif = losses._accumulate_side(u_inv, pair_grads, unit_u, 0.7)
            return [grad, np.float64(unif), *losses.ipw_through_projection_grads(*ipw_args)]

        got = run()
        calls = []

        def oracle(inv, pair_grads, rows):
            calls.append(rows)
            return reference_scatter_rows(inv, pair_grads, rows)

        monkeypatch.setattr(losses, "_scatter_rows", oracle)
        want = run()
        assert calls == [n_u, n_u, 4]
        for x, y in zip(got, want, strict=True):
            assert x.tobytes() == y.tobytes()


class TestRelationSpace:
    def test_identity_projection_matches_directau(self, rng):
        batch = make_batch(rng, b=8, d=4)
        terms_rel = relation_terms(batch, lambda_rel=0.8)
        # the relation term normalizes the projected (already normalized)
        # rows, so the biased objective gets the normalized rows too
        user_rows, item_rows, u_inv, i_inv, weights = batch
        terms_dau, _, _ = losses.dau_param_grads(
            normalize_rows_full(normalize_rows(user_rows)),
            normalize_rows_full(normalize_rows(item_rows)), u_inv, i_inv,
            weights, gamma=0.8,
        )
        assert terms_rel.align == terms_dau.align
        assert terms_rel.total == terms_dau.total

    @pytest.mark.parametrize("rows", [(5, 7), (util.PARALLEL_MIN_ROWS + 9,
                                               util.PARALLEL_MIN_ROWS + 40)],
                             ids=["serial", "worker"])
    @pytest.mark.parametrize("zero_row", [False, True], ids=["no-zero-row", "zero-row"])
    @pytest.mark.parametrize("lambda_rel", [1.3, 0.0])
    def test_bit_identical_to_reference(
        self, rng, monkeypatch, rows, zero_row, lambda_rel
    ):
        # One dau_param_grads call on the projected rows gives the terms,
        # gradients and forward of the term's own former implementation,
        # with the two sides one after the other or on two threads.
        n_u, n_i = rows
        d, b = 8, 2 * max(rows)
        u_inv = rng.permutation(np.r_[np.arange(n_u), rng.integers(0, n_u, b - n_u)])
        i_inv = rng.permutation(np.r_[np.arange(n_i), rng.integers(0, n_i, b - n_i)])
        base_u = normalize_rows(rng.normal(size=(n_u, d)))
        base_i = normalize_rows(rng.normal(size=(n_i, d)))
        if zero_row:
            base_u[1] = 0.0  # its projection is a degenerate row
        m_user = np.eye(d) + 0.2 * rng.normal(size=(d, d))
        m_item = np.eye(d) + 0.2 * rng.normal(size=(d, d))
        args = (base_u, base_i, u_inv, i_inv, m_user, m_item, lambda_rel)

        threads = set()
        accumulate = losses._accumulate_side

        def recording(*a):
            threads.add(threading.current_thread())
            return accumulate(*a)

        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        monkeypatch.setattr(losses, "_accumulate_side", recording)
        terms, g_mu, g_mi, forward = losses.relation_param_grads(*args)
        assert len(threads) == (2 if min(rows) >= util.PARALLEL_MIN_ROWS else 1)
        want_terms, want_mu, want_mi, want_forward = reference_relation_param_grads(*args)
        assert terms == want_terms
        assert np.array_equal(g_mu, want_mu) and np.array_equal(g_mi, want_mi)
        for side, want_side in zip(forward, want_forward, strict=True):
            for x, y in zip(side, want_side, strict=True):
                assert np.array_equal(x, y)
        assert forward[0][2].any() == zero_row  # the user side's degenerate flags

    def test_lambda_zero_is_alignment_only(self, rng):
        terms = relation_terms(make_batch(rng), lambda_rel=0.0)
        assert terms.total == terms.align

    def test_projection_gradients_match_finite_differences(self, rng):
        d, b = 4, 7
        n_u, n_i = 5, 6
        base_u = normalize_rows(rng.normal(size=(n_u, d)))
        base_i = normalize_rows(rng.normal(size=(n_i, d)))
        u_inv = rng.integers(0, n_u, b)
        i_inv = rng.integers(0, n_i, b)
        m_user = np.eye(d) + 0.2 * rng.normal(size=(d, d))
        m_item = np.eye(d) + 0.2 * rng.normal(size=(d, d))
        _, g_mu, g_mi, _ = losses.relation_param_grads(
            base_u, base_i, u_inv, i_inv, m_user, m_item, 1.1
        )

        def value():
            t, _, _, _ = losses.relation_param_grads(
                base_u, base_i, u_inv, i_inv, m_user, m_item, 1.1
            )
            return t.total

        fd_mu = central_difference(value, m_user, h=1e-5)
        fd_mi = central_difference(value, m_item, h=1e-5)
        assert max_relative_error(g_mu, fd_mu) < 1e-4
        assert max_relative_error(g_mi, fd_mi) < 1e-4


class TestJointObjective:
    def test_collapsed_zero(self):
        vec = unit([1.0, 0.0])
        # pairs (0, 0), (1, 1)
        batch = (
            np.tile(vec, (2, 1)), np.tile(vec, (2, 1)),
            np.array([0, 1]), np.array([0, 1]), np.ones(2),
        )
        unbiased, _, _ = losses.dau_param_grads(*unit_batch(batch), 1.0)
        relation = relation_terms(batch, 1.0)
        assert unbiased.total + relation.total == pytest.approx(0.0, abs=1e-12)

    def test_additivity(self):
        # a joint step reports the sum of the debiased and relation totals
        world = generate_synthetic_world(12, 15, 1.0, seed=4)
        bundle = split_unbiased_protocol(sample_clicks(world, 4), 0.2, 0.2, seed=4)
        config = TrainConfig(objective="uctrl", d=4, gamma=0.5, lambda_rel=1.5, seed=2)
        state = init_state(bundle.train.m, bundle.train.n, config)
        record = train_step(state, bundle.train.pairs[:6], config)
        main_total = record["align"] + config.gamma * (
            record["uniform_user"] + record["uniform_item"]
        ) / 2
        relation_total = (
            record["relation_align"] + config.lambda_rel * record["relation_uniform"]
        )
        assert record["relation_align"] > 0.0
        assert record["total"] == pytest.approx(main_total + relation_total, abs=1e-12)

    def test_param_grads_match_finite_differences(self, rng):
        # Raw-row gradients through normalization for the weighted form.
        d, b, n_u, n_i = 3, 6, 4, 5
        user_rows = rng.normal(size=(n_u, d))
        item_rows = rng.normal(size=(n_i, d))
        u_inv = rng.integers(0, n_u, b)
        i_inv = rng.integers(0, n_i, b)
        w = rng.uniform(1.0, 4.0, b)
        _, g_u, g_i = losses.dau_param_grads(
            normalize_rows_full(user_rows), normalize_rows_full(item_rows),
            u_inv, i_inv, w, 1.3,
        )

        def value():
            t, _, _ = losses.dau_param_grads(
                normalize_rows_full(user_rows), normalize_rows_full(item_rows),
                u_inv, i_inv, w, 1.3,
            )
            return t.total

        assert max_relative_error(g_u, central_difference(value, user_rows, 1e-5)) < 1e-4
        assert max_relative_error(g_i, central_difference(value, item_rows, 1e-5)) < 1e-4
