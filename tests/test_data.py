import hashlib
import json
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from debias_cf import data as dm
from debias_cf.errors import ConfigError, DataError
from debias_cf.util import rng_from
from conftest import pair_set


def write_tsv(tmp_path, text, name="inter.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_dense_indexing_and_duplicate_collapse(self, tmp_path):
        path = write_tsv(tmp_path, "a\tX\na\tY\nb\tX\na\tX\n")
        iset = dm.load_interactions(path)
        assert (iset.m, iset.n) == (2, 2)
        assert pair_set(iset) == {(0, 0), (0, 1), (1, 0)}
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
    "non-ascii-first-characters":
        "カ\tX\n€\tY\n、\tZ\n\u2028\n\u205f# c\n\u1680\n\u00a0#\n\u0085\n©\tX\n".encode(),
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


def long_mixed_log(seed: int, pairs: int = 20_000, bad_line: str | None = None) -> bytes:
    """A seeded log of about `pairs` pair lines in random LF, CRLF and lone
    CR ends, with no final line end. Runs of skipped lines stand at its
    start, middle and end, and single ones between the pairs; some ids start
    with a character that str.lstrip decides on. bad_line, if given, stands
    100 pairs before the end."""
    rng = np.random.default_rng(seed)
    users = [f"u{k}" for k in range(500)] + [" lead", "\x1cu", "\x85v", "ü"]
    items = [f"i{k}" for k in range(300)] + ["\u3000j", "#h", "x y"]
    skipped = ["", "  ", "# c", "\t# t", "\u3000", "\x1f# note", "\x85", "\x1c"]
    lines = [f"{users[u]}\t{items[i]}" for u, i in zip(
        rng.integers(0, len(users), pairs).tolist(), rng.integers(0, len(items), pairs).tolist())]
    if bad_line is not None:
        lines.insert(len(lines) - 100, bad_line)
    for at in sorted(rng.choice(len(lines), pairs // 30, replace=False).tolist(), reverse=True):
        lines.insert(at, skipped[at % len(skipped)])
    start, middle, end = ([skipped[k] for k in rng.integers(0, len(skipped), size).tolist()]
                          for size in (40, 60, 40))
    lines = start + lines[:len(lines) // 2] + middle + lines[len(lines) // 2:] + end
    ends = rng.choice(["\n", "\r\n", "\r"], len(lines) - 1).tolist()
    return ("".join(map(str.__add__, lines, ends)) + lines[-1]).encode()


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

    def test_space_prefixes_cover_str_isspace(self):
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        assert all(c <= " " for c in spaces if c.isascii())
        prefixes = {int.from_bytes(c.encode()[:2], "big") for c in spaces if not c.isascii()}
        assert prefixes <= set(dm._SPACE_PREFIXES.tolist())

    def test_long_mixed_log(self, tmp_path):
        from conftest import reference_load_interactions

        path = tmp_path / "log.tsv"
        path.write_bytes(long_mixed_log(11))
        for lenient in (False, True):
            assert_same_set(dm.load_interactions(path, lenient=lenient),
                            reference_load_interactions(path, lenient=lenient))
        path.write_bytes(long_mixed_log(11, bad_line="u1"))
        for lenient in (False, True):
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


#: First characters that the reader's first-byte rule leaves to str.lstrip:
#: the C0 separators (whitespace to str.lstrip) and NEL.
LSTRIP_LEADS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85"]

#: Any label text, including what a split file cannot hold: TAB, LF, CR,
#: surrogates, and blank labels; and labels that start with a LSTRIP_LEADS
#: character, a comment behind one of them included.
split_labels = st.one_of(
    st.text(max_size=6),
    st.sampled_from([*LSTRIP_LEADS, "\x1f# note"]),
    st.tuples(st.sampled_from(LSTRIP_LEADS), st.text(max_size=5)).map("".join),
)


def unreadable_split(sets):
    """Whether load_split could not read the sets back, by the rules of
    save_split: a label that is not a str or holds TAB, LF, CR or a
    surrogate, or a pair of two blank labels, whose line reads as a blank one."""
    users, items = sets[0].labels()
    for x in users + items:
        if not isinstance(x, str) or any(c in "\t\n\r" or "\ud800" <= c <= "\udfff" for c in x):
            return True
    return any(not users[u].strip() and not items[i].strip() for s in sets for u, i in s.pairs)


#: Log lines: pairs of labels from a small pool, blank and comment lines,
#: with LSTRIP_LEADS characters first.
log_lines = st.lists(st.one_of(
    st.tuples(st.sampled_from(["a", " b", "ü", "日 本", "#", "", "c\x0b", "\x1ca", "\x85#"]),
              st.sampled_from(["X", "y ", "ñ", "", "\u00a0"])),
    st.sampled_from(["", "  ", "# note", "\t# tab note", "\u3000", *LSTRIP_LEADS,
                     "\x1f# note"]),
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

    def test_split_of_long_mixed_log(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_bytes(long_mixed_log(12))
        bundle = dm.split_unbiased_protocol(dm.load_interactions(path), 0.1, 0.1, seed=3)
        dm.save_split(bundle, tmp_path / "split")
        loaded = dm.load_split(tmp_path / "split")
        for name in dm._SET_NAMES:
            assert_same_set(getattr(loaded, name), getattr(bundle, name))

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
        m, n = shape
        d = dm._WORLD_LATENT_D
        finite = st.floats(allow_nan=False, allow_infinity=False)
        factors = {
            "item_weight": data.draw(arrays(np.float64, n, elements=st.floats(
                0, allow_infinity=False))),
            "activity": data.draw(arrays(np.float64, m, elements=st.floats(
                0, allow_infinity=False, exclude_min=True))),
            "latent_u": data.draw(arrays(np.float64, (m, d), elements=finite)),
            "latent_i": data.draw(arrays(np.float64, (n, d), elements=finite)),
        }
        world = dm.SyntheticWorld(m, n, **factors)
        path = tmp_path_factory.mktemp("world") / "world.bin"
        dm.save_world(world, path)
        loaded = dm.load_world(path)
        assert (loaded.m, loaded.n) == shape
        for name, values in factors.items():
            assert getattr(loaded, name).tobytes() == values.tobytes()


class TestSplitBundle:
    """A split's three sets share train's dimensions and labels; the
    manifest save_split writes holds train's alone."""

    def test_reordered_user_labels_rejected(self):
        train = dm.InteractionSet(2, 2, np.array([[0, 1], [1, 0]]), ["a", "b"], ["x", "y"])
        reordered = dm.InteractionSet(2, 2, np.array([[0, 0]]), ["b", "a"], ["x", "y"])
        with pytest.raises(DataError, match="validation set: dimensions or labels"):
            dm.SplitBundle(train, reordered, train.replaced([[1, 1]]), "preprovided")

    @pytest.mark.parametrize("name", ["validation", "test"])
    def test_other_dimensions_rejected(self, name):
        train = dm.InteractionSet(2, 3, np.array([[0, 1], [1, 2]]))
        sets = {"validation": train.replaced([[0, 0]]), "test": train.replaced([[1, 0]])}
        sets[name] = dm.InteractionSet(3, 3, np.array([[2, 2]]))
        with pytest.raises(DataError, match=f"{name} set: dimensions or labels"):
            dm.SplitBundle(train, **sets, protocol_tag="preprovided")


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
        assert pair_set(iset) == {(0, 0), (1, 1)}

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


def _pinned_split_input():
    """1,996 pairs: 40 single-pair users, then 120 users whose clicks
    follow a 1/sqrt(rank) item popularity."""
    rng = np.random.default_rng(29)
    m, n = 160, 120
    single = [(u, int(rng.integers(0, n))) for u in range(40)]
    pop = 0.8 / np.sqrt(np.arange(1, n + 1))
    grid = rng.random((m - 40, n)) < pop[rng.permutation(n)]
    return dm.InteractionSet(m, n, np.vstack([single, np.argwhere(grid) + [40, 0]]))


#: SHA-256 of the little-endian int64 pair arrays that
#: split_unbiased_protocol(_pinned_split_input(), 0.2, 0.1, seed=3) returns,
#: as split before the three draws became one helper. No float rounding
#: enters a split, so the bytes hold on any build.
PINNED_SPLIT_SHA256 = {
    "per_item": {
        "train": "29f0880f21053f357ea6d927d157da028020fb000f9728f29646d21e436fe731",
        "validation": "e0e37e2158e5bf3fde540bb53054e2e8de19bafc8ac1b17f402ac6aa63a3db26",
        "test": "3419f86e617d61a896b024f321ca1b728f56bec63f481af14137975f76c60379",
    },
    "global_uniform": {
        "train": "63beee71b24121e2fb480483561f13827b171085e3e7f988a550d13edf1a8be1",
        "validation": "970e0ac96bffea2e86492e942c1acb11017232d32567ebe7f33f8970d465b2f7",
        "test": "359ff71b0507497f98e0bfc3bf2b537e8f0b1863e3ef17c0e7948814b5c09f5c",
    },
}


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

    @pytest.mark.parametrize("sampling", ["per_item", "global_uniform"])
    def test_split_bytes_are_pinned(self, sampling):
        from conftest import reference_split

        iset = _pinned_split_input()
        assert len(iset) == 1996 and (iset.user_counts()[:40] == 1).all()
        assert reference_split(iset, 0.2, 0.1, 3, sampling)[-1] > 0  # the repair pass runs
        bundle = dm.split_unbiased_protocol(iset, 0.2, 0.1, seed=3, sampling=sampling)
        digests = {
            name: hashlib.sha256(np.ascontiguousarray(s.pairs, dtype="<i8").tobytes()).hexdigest()
            for name, s in (("train", bundle.train), ("validation", bundle.validation),
                            ("test", bundle.test))
        }
        assert digests == PINNED_SPLIT_SHA256[sampling]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), data_seed=st.integers(0, 2**31))
    def test_disjoint_and_exhaustive(self, seed, data_seed):
        from conftest import random_interaction_set

        iset = random_interaction_set(np.random.default_rng(data_seed))
        bundle = dm.split_unbiased_protocol(iset, 0.2, 0.2, seed=seed)
        tr, va, te = (
            pair_set(bundle.train),
            pair_set(bundle.validation),
            pair_set(bundle.test),
        )
        assert tr | va | te == pair_set(iset)
        assert not (tr & va) and not (tr & te) and not (va & te)


class TestSyntheticWorld:
    def test_skew_zero_uniform_within_rows(self):
        from conftest import world_cells

        _, exposure = world_cells(dm.generate_synthetic_world(5, 9, skew=0.0, seed=2))
        for row in exposure:
            assert np.all(row == row[0])

    def test_deterministic(self):
        from conftest import world_cells

        a = world_cells(dm.generate_synthetic_world(6, 7, 1.5, seed=9))
        b = world_cells(dm.generate_synthetic_world(6, 7, 1.5, seed=9))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_bounds(self):
        from conftest import world_cells

        relevance, exposure = world_cells(dm.generate_synthetic_world(10, 20, 2.0, seed=0))
        assert relevance.min() >= 0 and relevance.max() <= 1
        assert exposure.min() >= dm.EXPOSURE_FLOOR - 1e-9
        assert exposure.max() <= 1

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            dm.generate_synthetic_world(1, 5, 1.0, seed=0)

    @pytest.mark.parametrize("skew", [0.0, 2.0])
    @pytest.mark.parametrize("m", [dm._ROW_BLOCK - 1, dm._ROW_BLOCK, dm._ROW_BLOCK + 1])
    def test_bit_identical_to_reference_world(self, m, skew):
        from conftest import reference_generate_synthetic_world, world_cells

        got_relevance, got_exposure = world_cells(dm.generate_synthetic_world(m, 53, skew, seed=8))
        want_relevance, want_exposure = reference_generate_synthetic_world(m, 53, skew, 8)
        assert got_relevance.tobytes() == want_relevance.tobytes()
        assert got_exposure.tobytes() == want_exposure.tobytes()

    def test_cells_do_not_depend_on_the_pairs_asked_for(self):
        # Any order and any subset of pairs, across three row blocks.
        from conftest import world_cells

        world = dm.generate_synthetic_world(2 * dm._ROW_BLOCK + 10, 31, 1.5, seed=3)
        relevance, exposure = world_cells(world)
        rng = np.random.default_rng(1)
        for size in (1, 7, 500):
            pairs = np.stack([rng.integers(0, world.m, size), rng.integers(0, world.n, size)], 1)
            assert dm.relevance_cells(world, pairs).tobytes() == relevance[
                pairs[:, 0], pairs[:, 1]].tobytes()
            assert dm.exposure_cells(world, pairs).tobytes() == exposure[
                pairs[:, 0], pairs[:, 1]].tobytes()
        assert dm.relevance_cells(world, np.zeros((0, 2), np.int64)).dtype == np.float32

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 31), (266, 0)])
    def test_cells_outside_the_world_rejected(self, pair):
        world = dm.generate_synthetic_world(2 * dm._ROW_BLOCK + 10, 31, 1.5, seed=3)
        for read in (dm.relevance_cells, dm.exposure_cells):
            with pytest.raises(DataError, match="outside world bounds"):
                read(world, np.array([pair]))

    def test_world_holds_no_cell_matrix(self):
        # 2000 x 3000 cells as float32 matrices would take 45.8 MB.
        import tracemalloc

        dm.sample_clicks(dm.generate_synthetic_world(2, 2, 2.0, seed=7), 7)  # lazy imports
        tracemalloc.start()
        try:
            world = dm.generate_synthetic_world(2000, 3000, 2.0, seed=7)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1_000_000
        factors = (world.item_weight, world.activity, world.latent_u, world.latent_i)
        assert sum(a.nbytes for a in factors) < 1_000_000

    def test_world_and_clicks_peak_is_bounded(self):
        # Block buffers, not m x n matrices, which peaked at 57.9 MB.
        import tracemalloc

        dm.sample_clicks(dm.generate_synthetic_world(2, 2, 2.0, seed=7), 7)  # lazy imports
        tracemalloc.start()
        try:
            clicks = dm.sample_clicks(dm.generate_synthetic_world(2000, 3000, 2.0, seed=7), 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clicks) > 0
        assert peak < 24_000_000

    @pytest.mark.parametrize("field, value, problem", [
        ("activity", 0.0, "activities > 0"),
        ("item_weight", -0.5, "item weights must be >= 0"),
        ("latent_i", np.inf, "latent_i values must be finite"),
        ("latent_u", np.nan, "latent_u values must be finite"),
    ])
    def test_bad_factor_rejected(self, field, value, problem):
        world = dm.generate_synthetic_world(3, 4, 1.0, seed=0)
        factors = {name: getattr(world, name).copy()
                   for name in ("item_weight", "activity", "latent_u", "latent_i")}
        factors[field].flat[-1] = value
        with pytest.raises(DataError, match=problem):
            dm.SyntheticWorld(3, 4, **factors)

    def test_factor_of_wrong_shape_rejected(self):
        world = dm.generate_synthetic_world(3, 4, 1.0, seed=0)
        with pytest.raises(DataError, match="latent_i has shape"):
            dm.SyntheticWorld(3, 4, world.item_weight, world.activity, world.latent_u,
                              world.latent_i[:, :-1])

    def test_underflowed_item_weight_accepted(self):
        # (1/sqrt(r))^skew reaches 0 at a large enough skew; such a cell is
        # exposed at the floor.
        world = dm.generate_synthetic_world(3, 4000, 200.0, seed=0)
        assert (world.item_weight == 0).any()
        assert dm.exposure_cells(world, np.array([[0, int(np.argmin(world.item_weight))]]))[
            0] == np.float32(dm.EXPOSURE_FLOOR)


#: SHA-256 of `sample_clicks(generate_synthetic_world(m, n, skew, seed=4), 4).pairs`
#: as little-endian int64, made before the world was kept in factor form.
#: At 300 x 7 each skew redraws users in all three row blocks; 130 x 900
#: spans two blocks with most cells exposed below 1.
PINNED_CLICKS_SHA256 = {
    (300, 7, 0.0): "fc1a48864f3917d203ded876fa7547ee44cf903b9b744da81eda0f379a98887b",
    (300, 7, 1.0): "869798b7ff241dade055639ff6e41786d137dc1cee70f70d90e872a9920969f8",
    (300, 7, 2.0): "f746049b5c5f187fd191e48c616f6f04fb3538b7219bcfe5adc3169ed733db99",
    (130, 900, 1.0): "46e156cdf3a46d55580d0f4ae3d80679111ad5153dd46c19dc737e10005c6536",
    (130, 900, 2.0): "42dc4d62fc02f268b740664edb427987e5ba3259cc336874056949e646829c50",
}


class TestSampleClicks:
    @pytest.mark.parametrize("shape", sorted(PINNED_CLICKS_SHA256), ids=str)
    def test_clicks_are_pinned(self, shape):
        m, n, skew = shape
        pairs = dm.sample_clicks(dm.generate_synthetic_world(m, n, skew, seed=4), 4).pairs
        digest = hashlib.sha256(np.ascontiguousarray(pairs, dtype="<i8").tobytes()).hexdigest()
        assert digest == PINNED_CLICKS_SHA256[shape]

    def test_certainty_case(self):
        from conftest import factor_world

        world = factor_world(1.0, np.full((3, 4), 1e4))  # relevance 1
        clicks = dm.sample_clicks(world, seed=0)
        assert len(clicks) == 12

    def test_click_rate_matches_probability(self):
        latent = np.zeros((100, dm._WORLD_LATENT_D))  # relevance 1/2
        world = dm.SyntheticWorld(100, 100, np.full(100, 0.5), np.ones(100), latent, latent)
        clicks = dm.sample_clicks(world, seed=5)
        assert abs(len(clicks) / 10_000 - 0.25) < 0.02

    def test_fallback_single_best_item(self):
        from conftest import factor_world

        logits = np.full((4, 5), -1e4)  # relevance 0
        for u in range(4):
            logits[u, (u + 1) % 5] = -4.6  # one barely-clickable item per user
        world = factor_world(1.0, logits)
        clicks = dm.sample_clicks(world, seed=1)
        assert len(clicks) == 4
        for u, i in clicks.pairs:
            assert i == (u + 1) % 5

    def test_matches_reference_retry_loop(self):
        from conftest import factor_world, reference_sample_clicks, reference_world_cells

        # Rows whose click chance is small go through the retry loop, and
        # some of them through the single-best-item fallback too. The larger
        # world spans three row blocks, with retried rows in each.
        for m in (30, 2 * dm._ROW_BLOCK + 10):
            rel = np.random.default_rng(6).random((m, 8))
            rel[::2] *= 0.02
            world = factor_world(1.0, np.log(rel) - np.log1p(-rel))
            relevance, _ = reference_world_cells(world)
            retried_blocks = set()
            for seed in range(20):
                want = np.argwhere(reference_sample_clicks(world, seed))
                assert np.array_equal(dm.sample_clicks(world, seed).pairs, want)
                first = rng_from(seed, 41).random((m, 8)) < relevance.astype(np.float64)
                retried_blocks |= set(np.flatnonzero(~first.any(axis=1)) // dm._ROW_BLOCK)
            assert len(retried_blocks) == -(-m // dm._ROW_BLOCK)

    def test_deterministic(self):
        world = dm.generate_synthetic_world(8, 9, 1.0, seed=3)
        a = dm.sample_clicks(world, seed=4)
        b = dm.sample_clicks(world, seed=4)
        assert np.array_equal(a.pairs, b.pairs)


def nan_exposure_cell(path, m, n):
    """Overwrite the first user's activity in an m x n world file with NaN,
    which makes that user's exposure cells NaN."""
    raw = bytearray(path.read_bytes())
    offset = 4 + 4 + 16 + 8 * n  # header, then the item weights
    raw[offset : offset + 8] = struct.pack("<d", float("nan"))
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
        from conftest import world_cells

        world = dm.generate_synthetic_world(7, 9, 1.2, seed=13)
        path = tmp_path / "world.bin"
        dm.save_world(world, path)
        loaded = dm.load_world(path)
        assert np.array_equal(world_cells(world)[0], world_cells(loaded)[0])
        assert np.array_equal(world_cells(world)[1], world_cells(loaded)[1])

    def test_world_with_nan_cell_rejected(self, tmp_path):
        with pytest.raises(DataError, match="finite"):
            dm.SyntheticWorld(2, 2, np.full(2, 0.5), np.array([1.0, np.nan]),
                              np.zeros((2, dm._WORLD_LATENT_D)),
                              np.zeros((2, dm._WORLD_LATENT_D)))
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

    def test_version_1_world_names_its_version(self, tmp_path):
        # Version 1 held the relevance and exposure matrices as float32.
        path = tmp_path / "world.bin"
        path.write_bytes(dm.WORLD_MAGIC + struct.pack("<IQQ", 1, 2, 3) + bytes(2 * 4 * 2 * 3))
        with pytest.raises(DataError, match="version 1.*re-run `synth`"):
            dm.load_world(path)
