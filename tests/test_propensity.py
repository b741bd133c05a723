import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debias_cf import propensity as pp
from debias_cf.data import InteractionSet, SyntheticWorld
from debias_cf.embedding import EmbeddingTable, ProjectionPair, normalize_rows
from debias_cf.errors import ConfigError, DataError
from debias_cf.trainer import learned_propensities
from debias_cf.util import sigmoid

SIG_LO, SIG_HI = sigmoid(-1.0), sigmoid(1.0)


def make_model(rng, m=5, n=6, d=3):
    model = EmbeddingTable(
        m, n, d,
        rng.normal(size=(m, d)).astype(np.float32),
        rng.normal(size=(n, d)).astype(np.float32),
    )
    proj = ProjectionPair(
        (np.eye(d) + 0.2 * rng.normal(size=(d, d))).astype(np.float32),
        (np.eye(d) + 0.2 * rng.normal(size=(d, d))).astype(np.float32),
    )
    return model, proj


class TestProject:
    def test_identity_projection_returns_normalized_base(self, rng):
        model, _ = make_model(rng)
        pairs = np.array([[0, 1], [2, 3]])
        expect = normalize_rows(model.user_vecs[pairs[:, 0]].astype(np.float64))
        proj_u = pp.project_rows(expect, np.eye(3, dtype=np.float32))
        assert np.allclose(proj_u, expect, atol=1e-12)

    def test_scale_absorbed_by_normalization(self, rng):
        model, _ = make_model(rng)
        pairs = np.array([[0, 0], [4, 5]])
        base = normalize_rows(model.user_vecs[pairs[:, 0]].astype(np.float64))
        u1 = pp.project_rows(base, np.eye(3, dtype=np.float32))
        u2 = pp.project_rows(base, 2 * np.eye(3, dtype=np.float32))
        assert np.allclose(u2, 2 * u1, atol=1e-12)
        assert np.array_equal(normalize_rows(u2), normalize_rows(u1))

    def test_matches_dense_matmul_oracle(self, rng):
        base = normalize_rows(rng.normal(size=(3, 3)))
        mat = rng.normal(size=(3, 3))
        out = pp.project_rows(base, mat)
        oracle = np.array(
            [[sum(mat[a][b] * base[k][b] for b in range(3)) for a in range(3)]
             for k in range(3)]
        )
        assert np.allclose(out, oracle, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        model, _ = make_model(rng, d=3)
        with pytest.raises(ConfigError):
            pp.project_rows(model.user_vecs[:1], np.eye(4, dtype=np.float32))

    def test_rescaling_projection_invariant_after_normalization(self, rng):
        base = normalize_rows(rng.normal(size=(4, 3)))
        mat = rng.normal(size=(3, 3))
        a = normalize_rows(pp.project_rows(base, mat))
        b = normalize_rows(pp.project_rows(base, 4.0 * mat))  # power of two: exact
        assert np.array_equal(a, b)
        c = normalize_rows(pp.project_rows(base, 3.0 * mat))
        assert np.allclose(a, c, atol=1e-14)


class TestEstimateLearned:
    def test_parallel_vectors(self):
        v = np.array([[0.6, 0.8]])
        assert pp.estimate_learned(v, v)[0] == pytest.approx(sigmoid(1.0), abs=1e-12)

    def test_orthogonal_vectors(self):
        assert pp.estimate_learned(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        )[0] == pytest.approx(0.5, abs=1e-12)

    def test_antiparallel_vectors(self):
        v = np.array([[0.0, 1.0]])
        assert pp.estimate_learned(v, -v)[0] == pytest.approx(sigmoid(-1.0), abs=1e-12)

    def test_range_confined_to_sigmoid_band(self, rng):
        u = normalize_rows(rng.normal(size=(5000, 6)))
        i = normalize_rows(rng.normal(size=(5000, 6)))
        vals = pp.estimate_learned(u, i)
        assert vals.min() >= SIG_LO - 1e-12
        assert vals.max() <= SIG_HI + 1e-12
        # default clip floor never binds for this source
        assert np.array_equal(pp.clip(vals, 0.1), vals)


class TestClip:
    def test_floor_binds(self):
        assert pp.clip(0.05, 0.1) == 0.1

    def test_floor_inactive(self):
        assert pp.clip(0.5, 0.1) == 0.5

    def test_invalid_floor_rejected(self):
        with pytest.raises(ConfigError):
            pp.clip(0.5, 1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.floats(1e-6, 0.999999),
        v=st.floats(1e-6, 0.999999),
        mu=st.floats(0.01, 0.99),
    )
    def test_idempotent_and_monotone(self, w, v, mu):
        once = pp.clip(w, mu)
        assert pp.clip(once, mu) == once
        lo, hi = sorted((w, v))
        assert pp.clip(lo, mu) <= pp.clip(hi, mu)


def clipped(omega_raw, mu=0.1):
    omega, _ = pp.inverse_weights(omega_raw, mu)
    return omega


class TestOracle:
    def world(self, values):
        values = np.asarray(values, dtype=np.float32)
        return SyntheticWorld(
            values.shape[0], values.shape[1],
            np.full(values.shape, 0.5, dtype=np.float32), values,
        )

    def test_lookup(self):
        world = self.world(np.full((3, 3), 0.3))
        omega = pp.estimate_oracle(world, np.array([[0, 0], [2, 1]]))
        assert np.allclose(omega, 0.3)

    def test_clip_applies(self):
        world = self.world(np.full((2, 2), 0.02))
        omega = clipped(pp.estimate_oracle(world, np.array([[0, 0]])), mu=0.1)
        assert omega[0] == 0.1

    def test_capped_below_one(self):
        world = self.world(np.ones((2, 2)))
        omega = clipped(pp.estimate_oracle(world, np.array([[0, 0]])))
        assert omega[0] == pytest.approx(1.0 - 1e-6)
        assert omega[0] < 1.0

    def test_out_of_bounds_rejected(self):
        world = self.world(np.full((2, 2), 0.5))
        with pytest.raises(DataError):
            pp.estimate_oracle(world, np.array([[0, 5]]))


def popularity(train, pairs, exponent=0.5, mu=0.1):
    """Clipped popularity propensity of each pair."""
    table = pp.item_popularity_table(train, exponent)
    return clipped(table[np.asarray(pairs)[:, 1]], mu)


class TestItemPopularity:
    def train_set(self):
        # item 0: 3 clicks, item 1: 1 click, item 2: none
        pairs = np.array([[0, 0], [1, 0], [2, 0], [0, 1]])
        return InteractionSet(3, 3, pairs)

    def test_most_popular_is_capped_anchor(self):
        omega = popularity(self.train_set(), np.array([[0, 0]]))
        assert omega[0] == pytest.approx(1.0 - 1e-6)

    def test_zero_count_item_floored(self):
        omega = popularity(self.train_set(), np.array([[0, 2]]), exponent=0.5)
        assert omega[0] == 0.1

    def test_exponent_zero_constant(self):
        pairs = np.array([[0, 0], [0, 1], [0, 2]])
        omega = popularity(self.train_set(), pairs, exponent=0.0)
        assert np.all(omega == omega[0])
        assert omega[0] == pytest.approx(1.0 - 1e-6)

    def test_depends_only_on_item(self):
        omega = popularity(self.train_set(), np.array([[0, 1], [1, 1], [2, 1]]))
        assert omega[0] == omega[1] == omega[2]


class TestPropensityEstimate:
    def test_values_must_be_inside_unit_interval(self):
        omega, weights = pp.inverse_weights(np.array([0.0, 1.0, 2.0]), mu=0.1)
        assert np.all((omega > 0) & (omega < 1))
        assert np.all(weights > 1)

    def test_weights_are_inverse(self):
        _, weights = pp.inverse_weights(np.array([0.25, 0.5]), mu=0.1)
        assert np.allclose(weights, [4.0, 2.0])


class TestLearnedPipeline:
    def test_full_chain_matches_manual_composition(self, rng):
        model, proj = make_model(rng)
        pairs = np.array([[0, 1], [3, 2], [4, 4]])
        omega = learned_propensities(model, proj, pairs, mu=0.1)
        proj_u = pp.project_rows(
            normalize_rows(model.user_vecs[pairs[:, 0]].astype(np.float64)), proj.m_user
        )
        proj_i = pp.project_rows(
            normalize_rows(model.item_vecs[pairs[:, 1]].astype(np.float64)), proj.m_item
        )
        manual = pp.estimate_learned(normalize_rows(proj_u), normalize_rows(proj_i))
        assert np.allclose(omega, manual, atol=1e-12)
