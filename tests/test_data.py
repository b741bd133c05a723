import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from debias_cf import data as dm
from debias_cf.errors import ConfigError, DataError


def write_tsv(tmp_path, text, name="inter.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_dense_indexing_and_duplicate_collapse(self, tmp_path):
        path = write_tsv(tmp_path, "a\tX\na\tY\nb\tX\na\tX\n")
        iset = dm.load_interactions(path)
        assert (iset.m, iset.n) == (2, 2)
        assert iset.pair_set() == {(0, 0), (0, 1), (1, 0)}
        assert iset.user_labels == ["a", "b"]
        assert iset.item_labels == ["X", "Y"]

    def test_empty_file_rejected(self, tmp_path):
        path = write_tsv(tmp_path, "")
        with pytest.raises(DataError, match="no interactions"):
            dm.load_interactions(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write_tsv(tmp_path, "a\tX\tZ\n")
        with pytest.raises(DataError, match="line 1"):
            dm.load_interactions(path)

    def test_lenient_ignores_extra_columns(self, tmp_path):
        path = write_tsv(tmp_path, "a\tX\t123456\nb\tY\t7\n")
        iset = dm.load_interactions(path, lenient=True)
        assert len(iset) == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_tsv(tmp_path, "# header\n\na\tX\n")
        assert len(dm.load_interactions(path)) == 1

    def test_empty_id_rejected(self, tmp_path):
        path = write_tsv(tmp_path, "a\t\n")
        with pytest.raises(DataError, match="empty id"):
            dm.load_interactions(path)


class TestInteractionSet:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            dm.InteractionSet(2, 2, np.array([[0, 1], [0, 1]]))

    def test_by_user_by_item_are_transposes(self, rng):
        from conftest import item_users, random_interaction_set, user_items

        iset = random_interaction_set(rng)
        rebuilt = {
            (u, int(i)) for u in range(iset.m) for i in user_items(iset, u)
        }
        rebuilt_t = {
            (int(u), i) for i in range(iset.n) for u in item_users(iset, i)
        }
        assert rebuilt == rebuilt_t == iset.pair_set()

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            dm.InteractionSet(2, 2, np.array([[2, 0]]))

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 9),
        n=st.integers(1, 9),
        density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
        data_seed=st.integers(0, 2**31),
    )
    @example(m=1, n=25, density=0.0, data_seed=0)
    def test_index_matches_scan_oracle(self, m, n, density, data_seed):
        from conftest import item_users, oracle_index, user_items

        grid = np.random.default_rng(data_seed).random((m, n)) < density
        if density == 0.0:
            iset = dm.InteractionSet(m, n, np.zeros((0, 2)))
        else:
            # Shuffled input: the index must not rely on the caller's order.
            pairs = np.argwhere(grid)[np.random.default_rng(data_seed).permutation(grid.sum())]
            iset = dm.InteractionSet(m, n, pairs)
        by_user, by_item, user_counts, item_counts = oracle_index(iset)
        assert len(iset.user_ptr) == m + 1 and len(iset.item_ptr) == n + 1
        got_ranges = [user_items(iset, u) for u in range(m)]
        got_ranges += [item_users(iset, i) for i in range(n)]
        for got, want in zip(got_ranges, by_user + by_item, strict=True):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        for got, want in ((iset.user_counts(), user_counts), (iset.item_counts(), item_counts)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def _full_set(m, n):
    users, items = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    return dm.InteractionSet(m, n, np.stack([users.ravel(), items.ravel()], axis=1))


class TestSplit:
    def test_fraction_validation(self):
        iset = _full_set(4, 4)
        with pytest.raises(ConfigError):
            dm.split_unbiased_protocol(iset, 0.0, 0.1, 0)
        with pytest.raises(ConfigError):
            dm.split_unbiased_protocol(iset, 0.6, 0.5, 0)

    def test_ratios_roughly_80_10_10(self):
        iset = _full_set(40, 50)
        bundle = dm.split_unbiased_protocol(iset, 0.1, 0.1, seed=3)
        total = len(iset)
        assert abs(len(bundle.test) / total - 0.1) < 0.02
        assert abs(len(bundle.validation) / total - 0.1) < 0.02
        assert abs(len(bundle.train) / total - 0.8) < 0.03

    def test_per_item_rate_expectation(self):
        # One item with 10 interactions at test_frac=0.1: its quota is
        # exactly 1, so every seed puts exactly one of them in test. Other
        # items keep users trainable so the repair pass never interferes.
        pairs = [(u, 0) for u in range(10)]
        pairs += [(u, 1 + (u % 3)) for u in range(10)]
        pairs += [(u, 4 + (u % 4)) for u in range(10)]
        iset = dm.InteractionSet(10, 8, np.array(pairs))
        counts = []
        for seed in range(300):
            bundle = dm.split_unbiased_protocol(iset, 0.1, 0.1, seed=seed)
            counts.append(int(np.sum(bundle.test.pairs[:, 1] == 0)))
        assert abs(np.mean(counts) - 1.0) <= 0.1

    def test_deterministic_given_seed(self):
        iset = _full_set(12, 9)
        a = dm.split_unbiased_protocol(iset, 0.15, 0.1, seed=7)
        b = dm.split_unbiased_protocol(iset, 0.15, 0.1, seed=7)
        for x, y in ((a.train, b.train), (a.validation, b.validation), (a.test, b.test)):
            assert np.array_equal(x.pairs, y.pairs)

    def test_global_uniform_mode(self):
        iset = _full_set(12, 9)
        bundle = dm.split_unbiased_protocol(
            iset, 0.2, 0.1, seed=1, sampling="global_uniform"
        )
        assert len(bundle.test) > 0

    def test_every_user_kept_trainable(self):
        # Users with a single interaction must keep it in train.
        pairs = [(u, u % 3) for u in range(6)]
        iset = dm.InteractionSet(6, 3, np.array(pairs))
        for seed in range(50):
            bundle = dm.split_unbiased_protocol(iset, 0.3, 0.3, seed=seed)
            assert set(bundle.train.pairs[:, 0]) == set(range(6))

    @pytest.mark.parametrize("sampling", ["per_item", "global_uniform"])
    def test_bit_identical_to_reference_split(self, sampling):
        from conftest import reference_split

        # 12 single-pair users that the repair pass often has to rescue,
        # 12 heavier users, user 24 and items 20..24 with no pairs at all.
        rng = np.random.default_rng(11)
        pairs = [(u, int(rng.integers(0, 20))) for u in range(12)]
        pairs += [(u, i) for u in range(12, 24) for i in range(20) if rng.random() < 0.4]
        iset = dm.InteractionSet(25, 25, np.array(pairs))
        assert iset.user_counts()[24] == 0 and (iset.item_counts()[20:] == 0).all()
        repaired = 0
        for seed in range(60):
            bundle = dm.split_unbiased_protocol(iset, 0.3, 0.2, seed=seed, sampling=sampling)
            *want, moved = reference_split(iset, 0.3, 0.2, seed, sampling)
            repaired += moved
            for got, ref in zip((bundle.train, bundle.validation, bundle.test), want):
                assert np.array_equal(got.pairs, ref)
        assert repaired > 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), data_seed=st.integers(0, 2**31))
    def test_disjoint_and_exhaustive(self, seed, data_seed):
        from conftest import random_interaction_set

        iset = random_interaction_set(np.random.default_rng(data_seed))
        bundle = dm.split_unbiased_protocol(iset, 0.2, 0.2, seed=seed)
        tr, va, te = (
            bundle.train.pair_set(),
            bundle.validation.pair_set(),
            bundle.test.pair_set(),
        )
        assert tr | va | te == iset.pair_set()
        assert not (tr & va) and not (tr & te) and not (va & te)


class TestSyntheticWorld:
    def test_skew_zero_uniform_within_rows(self):
        world = dm.generate_synthetic_world(5, 9, skew=0.0, seed=2)
        for row in world.exposure:
            assert np.all(row == row[0])

    def test_deterministic(self):
        a = dm.generate_synthetic_world(6, 7, 1.5, seed=9)
        b = dm.generate_synthetic_world(6, 7, 1.5, seed=9)
        assert np.array_equal(a.relevance, b.relevance)
        assert np.array_equal(a.exposure, b.exposure)

    def test_bounds(self):
        world = dm.generate_synthetic_world(10, 20, 2.0, seed=0)
        assert world.relevance.min() >= 0 and world.relevance.max() <= 1
        assert world.exposure.min() >= dm.EXPOSURE_FLOOR - 1e-9
        assert world.exposure.max() <= 1

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            dm.generate_synthetic_world(1, 5, 1.0, seed=0)


class TestSampleClicks:
    def world(self, rel, exp):
        rel = np.asarray(rel, dtype=np.float32)
        return dm.SyntheticWorld(rel.shape[0], rel.shape[1], rel, np.asarray(exp, np.float32))

    def test_certainty_case(self):
        world = self.world(np.ones((3, 4)), np.ones((3, 4)))
        clicks = dm.sample_clicks(world, seed=0)
        assert len(clicks) == 12

    def test_click_rate_matches_probability(self):
        world = self.world(np.full((100, 100), 0.5), np.full((100, 100), 0.5))
        clicks = dm.sample_clicks(world, seed=5)
        assert abs(len(clicks) / 10_000 - 0.25) < 0.02

    def test_fallback_single_best_item(self):
        rel = np.zeros((4, 5), dtype=np.float32)
        for u in range(4):
            rel[u, (u + 1) % 5] = 0.01  # one barely-clickable item per user
        world = self.world(rel, np.ones((4, 5)))
        clicks = dm.sample_clicks(world, seed=1)
        assert len(clicks) == 4
        for u, i in clicks.pairs:
            assert i == (u + 1) % 5

    def test_matches_reference_retry_loop(self):
        from conftest import reference_sample_clicks

        # Rows whose click chance is small go through the retry loop, and
        # some of them through the single-best-item fallback too.
        rel = np.random.default_rng(6).random((30, 8)).astype(np.float32)
        rel[::2] *= 0.02
        world = self.world(rel, np.ones((30, 8)))
        for seed in range(20):
            want = np.argwhere(reference_sample_clicks(world, seed))
            assert np.array_equal(dm.sample_clicks(world, seed).pairs, want)

    def test_deterministic(self):
        world = dm.generate_synthetic_world(8, 9, 1.0, seed=3)
        a = dm.sample_clicks(world, seed=4)
        b = dm.sample_clicks(world, seed=4)
        assert np.array_equal(a.pairs, b.pairs)


def nan_exposure_cell(path, m, n):
    """Overwrite the first exposure cell of an m x n world file with NaN."""
    raw = bytearray(path.read_bytes())
    offset = 4 + 4 + 16 + 4 * m * n  # header, then the relevance matrix
    raw[offset : offset + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))


class TestPersistence:
    def test_split_round_trip(self, tmp_path):
        iset = _full_set(6, 5)
        bundle = dm.split_unbiased_protocol(iset, 0.2, 0.2, seed=11)
        dm.save_split(bundle, tmp_path, seed=11, fractions={"test": 0.2, "valid": 0.2})
        loaded = dm.load_split(tmp_path)
        assert loaded.protocol_tag == bundle.protocol_tag
        for a, b in (
            (bundle.train, loaded.train),
            (bundle.validation, loaded.validation),
            (bundle.test, loaded.test),
        ):
            assert np.array_equal(a.pairs, b.pairs)
            assert (a.m, a.n) == (b.m, b.n)

    def test_world_round_trip(self, tmp_path):
        world = dm.generate_synthetic_world(7, 9, 1.2, seed=13)
        path = tmp_path / "world.bin"
        dm.save_world(world, path)
        loaded = dm.load_world(path)
        assert np.array_equal(world.relevance, loaded.relevance)
        assert np.array_equal(world.exposure, loaded.exposure)

    def test_world_with_nan_cell_rejected(self, tmp_path):
        with pytest.raises(DataError, match="finite"):
            dm.SyntheticWorld(
                2, 2, np.full((2, 2), 0.5), np.array([[0.5, np.nan], [0.5, 0.5]])
            )
        world = dm.generate_synthetic_world(3, 4, 1.0, seed=2)
        path = tmp_path / "world.bin"
        dm.save_world(world, path)
        nan_exposure_cell(path, 3, 4)
        with pytest.raises(DataError, match="finite"):
            dm.load_world(path)

    def test_world_corruption_detected(self, tmp_path):
        world = dm.generate_synthetic_world(4, 4, 1.0, seed=1)
        path = tmp_path / "world.bin"
        dm.save_world(world, path)
        raw = path.read_bytes()
        (tmp_path / "trunc.bin").write_bytes(raw[:-7])
        with pytest.raises(DataError, match="truncated"):
            dm.load_world(tmp_path / "trunc.bin")
        (tmp_path / "magic.bin").write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(DataError, match="magic"):
            dm.load_world(tmp_path / "magic.bin")
