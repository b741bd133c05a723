import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from debias_cf import embedding as em
from debias_cf.data import InteractionSet
from debias_cf.evaluation import evaluate_topk
from debias_cf.errors import DataError


class TestInitModel:
    def test_zero_scale_gives_zero_and_identity(self):
        model, proj = em.init_model(4, 5, 3, seed=0, scale=0.0)
        assert not model.user_vecs.any()
        assert not model.item_vecs.any()
        assert np.array_equal(proj.m_user, np.eye(3, dtype=np.float32))
        assert np.array_equal(proj.m_item, np.eye(3, dtype=np.float32))

    def test_deterministic(self):
        a_model, a_proj = em.init_model(6, 7, 4, seed=42)
        b_model, b_proj = em.init_model(6, 7, 4, seed=42)
        assert np.array_equal(a_model.user_vecs, b_model.user_vecs)
        assert np.array_equal(a_proj.m_user, b_proj.m_user)

    def test_shape_and_distribution(self):
        scale = 0.01
        model, _ = em.init_model(100, 10, 64, seed=1, scale=scale)
        assert model.user_vecs.shape == (100, 64)
        sigma_of_mean = scale / np.sqrt(100 * 64)
        assert abs(model.user_vecs.mean()) < 3 * sigma_of_mean


def normalize(v):
    """One vector through the row-wise normalization."""
    return em.normalize_rows(np.asarray(v, dtype=np.float64)[None, :])[0]


class TestNormalize:
    def test_three_four_five(self):
        out = normalize(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8], atol=1e-12)

    def test_unit_vector_unchanged(self):
        v = np.array([0.0, 1.0, 0.0])
        assert np.allclose(normalize(v), v)

    def test_zero_vector_falls_back_to_e1(self, caplog):
        with caplog.at_level(logging.WARNING):
            out = normalize(np.zeros(4))
        assert np.array_equal(out, [1.0, 0.0, 0.0, 0.0])
        assert any("degenerate" in r.message for r in caplog.records)

    @settings(max_examples=80, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(2, 6),
            elements=st.floats(-50, 50, allow_nan=False),
        ).filter(lambda v: np.linalg.norm(v) > 1e-6)
    )
    def test_idempotent(self, v):
        once = normalize(v)
        twice = normalize(once)
        assert np.allclose(once, twice, atol=1e-12)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-6

    def test_rows_backward_matches_fd(self, rng):
        from conftest import central_difference, max_relative_error

        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 4))

        def f():
            return float(np.sum(em.normalize_rows(x) * target))

        unit, norms, deg = em.normalize_rows_full(x)
        grad = em.normalize_rows_backward(unit, norms, deg, target)
        fd = central_difference(f, x, h=1e-6)
        assert max_relative_error(grad, fd) < 1e-6


def table(user_vecs, item_vecs):
    user_vecs = np.asarray(user_vecs, dtype=np.float32)
    item_vecs = np.asarray(item_vecs, dtype=np.float32)
    return em.EmbeddingTable(
        user_vecs.shape[0], item_vecs.shape[0], user_vecs.shape[1],
        user_vecs, item_vecs,
    )


def interactions(m, n, pairs):
    return InteractionSet(m, n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def ranks(model, user, scoring):
    """1-based rank of every item for one user under evaluate_topk, read off
    the NDCG of a single held-out item ranked over all items."""
    empty = interactions(model.m, model.n, np.zeros((0, 2)))
    out = []
    for item in range(model.n):
        test = interactions(model.m, model.n, [[user, item]])
        report = evaluate_topk(model, empty, test, k=model.n, scoring=scoring)
        out.append(round(2.0 ** (1.0 / report.ndcg_at_k) - 1.0))
    return np.array(out)


class TestScoreAllItems:
    """Item scores for a user, as evaluate_topk (the one scoring path)
    ranks them."""

    def test_basis_vectors(self):
        model = table([[0.0, 1.0, 0.0]], np.eye(3))
        # dot scores [0, 1, 0]; the tie between items 0 and 2 goes to item 0
        assert np.array_equal(ranks(model, 0, "dot"), [2, 1, 3])

    def test_cosine_invariant_to_item_rescaling(self, rng):
        item_vecs = rng.normal(size=(8, 4)).astype(np.float32)
        model = table(rng.normal(size=(2, 4)), item_vecs)
        base = ranks(model, 0, "cosine")
        scaled = item_vecs.copy()
        scaled[3] *= 5.0
        after = ranks(table(model.user_vecs, scaled), 0, "cosine")
        assert np.array_equal(base, after)

    def test_cosine_equals_dot_ranking_for_equal_norms(self, rng):
        items = em.normalize_rows(rng.normal(size=(10, 5))) * 2.0
        model = table(rng.normal(size=(1, 5)), items)
        assert np.array_equal(ranks(model, 0, "dot"), ranks(model, 0, "cosine"))


class TestCheckpoint:
    def roundtrip(self, tmp_path, seed=5):
        model, proj = em.init_model(6, 7, 4, seed=seed, scale=0.3)
        path = tmp_path / "ckpt.bin"
        em.save_checkpoint(model, proj, path)
        return model, proj, path

    def test_round_trip_bit_exact(self, tmp_path):
        model, proj, path = self.roundtrip(tmp_path)
        loaded_model, loaded_proj = em.load_checkpoint(path)
        assert np.array_equal(model.user_vecs, loaded_model.user_vecs)
        assert np.array_equal(model.item_vecs, loaded_model.item_vecs)
        assert np.array_equal(proj.m_user, loaded_proj.m_user)
        assert np.array_equal(proj.m_item, loaded_proj.m_item)
        # Second generation must be byte-identical too.
        em.save_checkpoint(loaded_model, loaded_proj, tmp_path / "again.bin")
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError, match="truncated"):
            em.load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            em.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            em.load_checkpoint(path)

    def test_payload_corruption_caught_by_crc(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="CRC"):
            em.load_checkpoint(path)

    @pytest.mark.parametrize("tensor, value", [
        ("user_vecs", np.nan), ("item_vecs", np.nan), ("item_vecs", -np.inf),
        ("m_user", np.inf), ("m_item", np.nan),
    ])
    def test_non_finite_value_rejected(self, tmp_path, tensor, value):
        model, proj = em.init_model(6, 7, 4, seed=5, scale=0.3)
        getattr(model if tensor.endswith("vecs") else proj, tensor)[1, 2] = value
        path = tmp_path / "ckpt.bin"
        em.save_checkpoint(model, proj, path)  # the CRC covers the bad value
        with pytest.raises(DataError, match="non-finite"):
            em.load_checkpoint(path)
