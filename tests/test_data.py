import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from debias_cf import data as dm
from debias_cf.errors import ConfigError, DataError
from debias_cf.util import rng_from


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


#: Log files on which the bulk reader must agree with the line-by-line one.
LOG_CORPUS = {
    "crlf": b"a\tX\r\nb\tY\r\n",
    "lone-cr": b"a\tX\rb\tY\r",
    "mixed-ends-no-final-newline": b"a\tX\r\nb\tY\rc\tZ\nd\tW",
    "blank-lines-in-crlf": b"\r\n\r\r\na\tX\r\n\r\n",
    "whitespace-only-and-indented-comments":
        b"\n  \n\t\n \t \n# head\n  # indented\n\t#\tx\ty\na\tX\n\n",
    "unicode-whitespace-only": "\u00a0\n\x1c\n\u3000\x0c\na\tX\n".encode(),
    "ids-with-spaces-and-non-ascii":
        " a b \tX y \nü\tñ\n日本\t語\n\ufeffa\tX\na\u2028b\tX\n".encode(),
    "duplicate-pairs": b"a\tX\na\tX\nb\tX\na\tX\nb\tY\nb\tX\n",
}

#: Logs that only lenient parsing accepts.
LENIENT_CORPUS = {
    "three-or-more-columns": b"a\tX\t1\nb\tY\t2\t3\na\tX\t\nc\tY\t\t\n",
}

#: Logs whose parse fails; both readers must raise the same error.
LOG_ERRORS = {
    "fields-after-skipped-lines": b"# c\n\n  \r\na\tX\rb\n",
    "too-many-fields": b"a\tX\n\nb\tY\tZ\n",
    "empty-user": b"a\tX\n\tY\n",
    "empty-item": b"a\t\n",
    "empty-id-before-bad-fields": b"a\t\nb\n",
    "bad-fields-before-empty-id": b"b\na\t\n",
    "lenient-one-field": b"a\tX\t1\nb\n",
    "empty-file": b"",
    "comment-only": b"# one\n  # two\n\n",
    "not-utf8-beyond-64k": b"a\tX\n" * 20_000 + b"\xffb\tY\n",
    "truncated-utf8-at-end": "a\tX\n\u00fc".encode()[:-1],
}

#: Labels of the split corpus: spaces, non-ASCII, and a '#' that is data.
SPLIT_LABELS = (["a b", "ü", "日本", "#c", "x"], ["X y", "ñ", "語", "Y"])

SPLIT_CORPUS = {
    "crlf-cr-and-no-final-newline": "a b\tX y\r\nü\tñ\r日本\t語\nx\tY".encode(),
    "blank-and-whitespace-only-lines": "\n \n\t\n\u00a0\na b\tY\n\r\n".encode(),
    "hash-label-is-data": b"#c\tY\n",
}

SPLIT_ERRORS = {
    "unknown-user": b"a b\tX y\nzz\tY\n",
    "unknown-item": b"a b\tQ\n",
    "unknown-user-and-item": b"zz\tQ\n",
    "comment-line": b"x\tY\n# comment\n",
    "comment-with-tab": b"#z\tY\n",
    "three-fields": b"\r\n\n \na b\tX y\tZ\n",
    "one-field-after-blank-lines": b"\r\n\n \na b\n",
    "not-utf8-beyond-64k": b"x\tY\n" * 20_000 + b"\xfe\n",
}


def write_split_dir(tmp_path, train: bytes):
    """A split directory over SPLIT_LABELS whose train.tsv holds train."""
    users, items = SPLIT_LABELS
    (tmp_path / "split-manifest.json").write_text(json.dumps({
        "m": len(users), "n": len(items), "user_labels": users, "item_labels": items,
    }))
    (tmp_path / "train.tsv").write_bytes(train)
    (tmp_path / "validation.tsv").write_bytes(b"")
    (tmp_path / "test.tsv").write_bytes(b"")
    return tmp_path


def reference_split_train(split_dir):
    from conftest import reference_read_pairs_tsv

    users, items = SPLIT_LABELS
    return reference_read_pairs_tsv(
        split_dir / "train.tsv", {lab: k for k, lab in enumerate(users)},
        {lab: k for k, lab in enumerate(items)}, len(users), len(items), users, items,
    )


def assert_same_set(got, want):
    assert (got.m, got.n) == (want.m, want.n)
    assert (got.user_labels, got.item_labels) == (want.user_labels, want.item_labels)
    assert np.array_equal(got.pairs, want.pairs)


def assert_same_error(run, reference):
    with pytest.raises(Exception) as want:
        reference()
    with pytest.raises(Exception) as got:
        run()
    assert type(got.value) is type(want.value) is DataError
    assert str(got.value) == str(want.value)


class TestReaderMatchesReference:
    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("name", sorted(LOG_CORPUS))
    def test_log_corpus(self, tmp_path, name, lenient):
        from conftest import reference_load_interactions

        path = tmp_path / "log.tsv"
        path.write_bytes(LOG_CORPUS[name])
        got = dm.load_interactions(path, lenient=lenient)
        assert_same_set(got, reference_load_interactions(path, lenient=lenient))

    def test_lenient_corpus(self, tmp_path):
        from conftest import reference_load_interactions

        for name, text in LENIENT_CORPUS.items():
            path = tmp_path / f"{name}.tsv"
            path.write_bytes(text)
            got = dm.load_interactions(path, lenient=True)
            assert_same_set(got, reference_load_interactions(path, lenient=True))
            assert_same_error(lambda: dm.load_interactions(path),
                              lambda: reference_load_interactions(path))

    @pytest.mark.parametrize("name", sorted(LOG_ERRORS))
    def test_log_errors(self, tmp_path, name):
        from conftest import reference_load_interactions

        path = tmp_path / "log.tsv"
        path.write_bytes(LOG_ERRORS[name])
        for lenient in (False,) if name == "too-many-fields" else (False, True):
            assert_same_error(lambda: dm.load_interactions(path, lenient=lenient),
                              lambda: reference_load_interactions(path, lenient=lenient))

    @pytest.mark.parametrize("name", sorted(SPLIT_CORPUS))
    def test_split_corpus(self, tmp_path, name):
        split = write_split_dir(tmp_path, SPLIT_CORPUS[name])
        assert_same_set(dm.load_split(split).train, reference_split_train(split))

    @pytest.mark.parametrize("name", sorted(SPLIT_ERRORS))
    def test_split_errors(self, tmp_path, name):
        split = write_split_dir(tmp_path, SPLIT_ERRORS[name])
        assert_same_error(lambda: dm.load_split(split), lambda: reference_split_train(split))

    @pytest.mark.parametrize("key", ["user_labels", "item_labels"])
    def test_repeated_manifest_label_rejected(self, tmp_path, key):
        split = write_split_dir(tmp_path, b"a b\tX y\n")
        manifest = json.loads((split / "split-manifest.json").read_text())
        manifest[key][1] = manifest[key][0]
        (split / "split-manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=key):
            dm.load_split(split)

    @pytest.mark.parametrize("labels", [[0, 1, 2, 3, 4], [["a b"], "ü", "日本", "#c", "x"]],
                             ids=["integers", "lists"])
    @pytest.mark.parametrize("key", ["user_labels", "item_labels"])
    def test_manifest_label_not_a_string_rejected(self, tmp_path, key, labels):
        split = write_split_dir(tmp_path, b"a b\tX y\n")
        manifest = json.loads((split / "split-manifest.json").read_text())
        manifest[key] = labels[: len(manifest[key])]
        (split / "split-manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"{key} must hold strings"):
            dm.load_split(split)

    @pytest.mark.parametrize("first, second", [("train", "validation"), ("train", "test"),
                                               ("validation", "test")])
    def test_pair_in_two_sets_rejected(self, tmp_path, first, second):
        split = write_split_dir(tmp_path, b"")
        (split / f"{first}.tsv").write_bytes("a b\tX y\n日本\t語\n".encode())
        (split / f"{second}.tsv").write_bytes("x\tñ\n日本\t語\n".encode())
        with pytest.raises(DataError, match=f"{first}.tsv and {second}.tsv share "
                                            "the pair \\('日本', '語'\\)"):
            dm.load_split(split)
        (split / f"{second}.tsv").write_bytes("x\tñ\n日本\tY\n".encode())
        assert len(getattr(dm.load_split(split), first)) == 2


#: Any label text, including what a split file cannot hold: TAB, LF, CR,
#: surrogates, and blank labels.
split_labels = st.text(max_size=6)


def unreadable_split(sets):
    """Whether load_split could not read the sets back, by the rules of
    save_split: a label that is not a str or holds TAB, LF, CR or a
    surrogate, or a pair of two blank labels, whose line reads as a blank one."""
    users, items = sets[0].labels()
    for x in users + items:
        if not isinstance(x, str) or any(c in "\t\n\r" or "\ud800" <= c <= "\udfff" for c in x):
            return True
    return any(not users[u].strip() and not items[i].strip() for s in sets for u, i in s.pairs)


#: Log lines: pairs of labels from a small pool, blank and comment lines.
log_lines = st.lists(st.one_of(
    st.tuples(st.sampled_from(["a", " b", "ü", "日 本", "#", "", "c\x0b"]),
              st.sampled_from(["X", "y ", "ñ", "", "\u00a0"])),
    st.sampled_from(["", "  ", "# note", "\t# tab note", "\u3000"]),
), max_size=12)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(
        users=st.lists(split_labels, min_size=1, max_size=6, unique=True),
        items=st.lists(split_labels, min_size=1, max_size=6, unique=True),
        data_seed=st.integers(0, 2**31),
        tag=st.sampled_from(dm.PROTOCOL_TAGS),
    )
    # data_seed 2 draws the pairs (0, 0), (0, 1) and (1, 1) for two users and two items.
    @example(users=[" ", "u"], items=["\u3000", "i"], data_seed=2, tag="preprovided")
    @example(users=["", "u"], items=["", "i"], data_seed=2, tag="preprovided")
    @example(users=["a\tb", "u"], items=["x", "i"], data_seed=2, tag="preprovided")
    @example(users=["a", "u"], items=["x\n", "i"], data_seed=2, tag="preprovided")
    @example(users=["a", "u\r"], items=["x", "i"], data_seed=2, tag="preprovided")
    @example(users=["a", "u"], items=["\ud800", "i"], data_seed=2, tag="preprovided")
    @example(users=[5, "u"], items=["x", "i"], data_seed=2, tag="preprovided")
    @example(users=[" ", "u"], items=["x", "i"], data_seed=2, tag="preprovided")  # " \tx" is valid
    def test_save_then_load_split(self, tmp_path_factory, users, items, data_seed, tag):
        rng = np.random.default_rng(data_seed)
        m, n = len(users), len(items)
        grid = rng.random((m, n)) < 0.5
        part = rng.integers(0, 3, size=(m, n))
        full = dm.InteractionSet(m, n, np.argwhere(grid), users, items)
        sets = [full.replaced(np.argwhere(grid & (part == k))) for k in range(3)]
        bundle = dm.SplitBundle(*sets, protocol_tag=tag)
        out = tmp_path_factory.mktemp("split")
        if unreadable_split(sets):
            with pytest.raises(DataError, match="set: "):
                dm.save_split(bundle, out)
            assert not list(out.glob("*.tsv"))
            return
        dm.save_split(bundle, out)
        loaded = dm.load_split(out)
        assert loaded.protocol_tag == tag
        for a, b in zip(sets, (loaded.train, loaded.validation, loaded.test)):
            assert_same_set(b, a)

    @settings(max_examples=80, deadline=None)
    @given(lines=log_lines, ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=13,
                                          max_size=13), lenient=st.booleans())
    def test_written_log_reads_as_reference(self, tmp_path_factory, lines, ends, lenient):
        from conftest import reference_load_interactions

        text = "".join(
            ("\t".join(line) if isinstance(line, tuple) else line) + end
            for line, end in zip(lines, ends)
        )
        path = tmp_path_factory.mktemp("log") / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = reference_load_interactions(path, lenient=lenient)
        except DataError:
            assert_same_error(lambda: dm.load_interactions(path, lenient=lenient),
                              lambda: reference_load_interactions(path, lenient=lenient))
            return
        assert_same_set(dm.load_interactions(path, lenient=lenient), want)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
    def test_save_then_load_world(self, tmp_path_factory, shape, data):
        relevance = data.draw(arrays(np.float32, shape, elements=st.floats(0, 1, width=32)))
        exposure = data.draw(arrays(np.float32, shape, elements=st.floats(
            0, 1, width=32, exclude_min=True)))
        world = dm.SyntheticWorld(*shape, relevance, exposure)
        path = tmp_path_factory.mktemp("world") / "world.bin"
        dm.save_world(world, path)
        loaded = dm.load_world(path)
        assert (loaded.m, loaded.n) == shape
        assert loaded.relevance.tobytes() == relevance.tobytes()
        assert loaded.exposure.tobytes() == exposure.tobytes()


class TestInteractionSet:
    def test_duplicate_pairs_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            dm.InteractionSet(2, 2, np.array([[0, 1], [0, 1]]))
        with pytest.raises(DataError, match="duplicate"):
            dm.InteractionSet(3, 3, np.array([[2, 0], [0, 1], [2, 0]]))

    def test_pair_key_overflow_rejected(self):
        with pytest.raises(DataError, match="overflow"):
            dm.InteractionSet(2**32, 2**31, np.zeros((0, 2)))

    def test_owns_its_pairs(self):
        pairs = np.array([[0, 0], [1, 1]])
        iset = dm.InteractionSet(2, 2, pairs)
        pairs[0] = [1, 0]
        assert iset.pair_set() == {(0, 0), (1, 1)}

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
        from conftest import oracle_index, user_items

        grid = np.random.default_rng(data_seed).random((m, n)) < density
        if density == 0.0:
            iset = dm.InteractionSet(m, n, np.zeros((0, 2)))
        else:
            # Shuffled input: the index must not rely on the caller's order.
            pairs = np.argwhere(grid)[np.random.default_rng(data_seed).permutation(grid.sum())]
            iset = dm.InteractionSet(m, n, pairs)
        by_user, _, user_counts, item_counts = oracle_index(iset)
        assert len(iset.user_ptr) == m + 1
        for got, want in zip([user_items(iset, u) for u in range(m)], by_user, strict=True):
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

    @pytest.mark.parametrize("skew", [0.0, 2.0])
    @pytest.mark.parametrize("m", [dm._ROW_BLOCK - 1, dm._ROW_BLOCK, dm._ROW_BLOCK + 1])
    def test_bit_identical_to_reference_world(self, m, skew):
        from conftest import reference_generate_synthetic_world

        got = dm.generate_synthetic_world(m, 53, skew, seed=8)
        want = reference_generate_synthetic_world(m, 53, skew, 8)
        assert got.relevance.tobytes() == want.relevance.tobytes()
        assert got.exposure.tobytes() == want.exposure.tobytes()


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
        # some of them through the single-best-item fallback too. The larger
        # world spans three row blocks, with retried rows in each.
        for m in (30, 2 * dm._ROW_BLOCK + 10):
            rel = np.random.default_rng(6).random((m, 8)).astype(np.float32)
            rel[::2] *= 0.02
            world = self.world(rel, np.ones((m, 8)))
            retried_blocks = set()
            for seed in range(20):
                want = np.argwhere(reference_sample_clicks(world, seed))
                assert np.array_equal(dm.sample_clicks(world, seed).pairs, want)
                first = rng_from(seed, 41).random((m, 8)) < rel.astype(np.float64)
                retried_blocks |= set(np.flatnonzero(~first.any(axis=1)) // dm._ROW_BLOCK)
            assert len(retried_blocks) == -(-m // dm._ROW_BLOCK)

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
