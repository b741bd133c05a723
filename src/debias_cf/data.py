"""Interaction ingestion, indexed sparse structures, train/validation/test
splitting, and the synthetic missing-not-at-random click generator."""

from __future__ import annotations

import json
import math
import re
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import atomic_write, rng_from, sigmoid

WORLD_MAGIC = b"SYNW"
WORLD_VERSION = 2

#: Exposure probabilities are clamped into [EXPOSURE_FLOOR, 1].
EXPOSURE_FLOOR = 0.01

#: Latent dimensionality of the synthetic ground-truth preference model.
_WORLD_LATENT_D = 8
#: Sharpness of the preference sigmoid; larger pushes relevance toward 0/1.
_WORLD_SHARPNESS = 3.0
_WORLD_SCALE = _WORLD_SHARPNESS / math.sqrt(_WORLD_LATENT_D)
#: Per-user exposure activity range. Values above 1 saturate head items at
#: full exposure, keeping per-user click counts large enough to learn from.
_WORLD_ACTIVITY_LO, _WORLD_ACTIVITY_HI = 1.0, 5.0
#: Rows per latent product and per block of click draws, which bounds their
#: float64 temporaries at _ROW_BLOCK x n cells.
_ROW_BLOCK = 128


@dataclass
class InteractionSet:
    """A duplicate-free set of clicked (user, item) pairs, indexed by user.
    Pairs are kept in lexicographic order, so equal sets compare equal
    structurally. User u owns pairs[user_ptr[u]:user_ptr[u + 1]]."""

    m: int
    n: int
    pairs: np.ndarray  # (P, 2) int64, lexicographically sorted
    user_labels: list[str] | None = None
    item_labels: list[str] | None = None
    user_ptr: np.ndarray = field(init=False, repr=False)  # (m + 1,) offsets

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        if len(pairs):
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= self.m:
                raise DataError("user index out of range")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= self.n:
                raise DataError("item index out of range")
        if int(self.m) * int(self.n) >= 2**63:
            raise DataError(f"{self.m}x{self.n} cells overflow the int64 pair key")
        key = pairs[:, 0] * self.n + pairs[:, 1]  # input that ascends needs no sort
        if not (key[1:] > key[:-1]).all():
            key = np.sort(key)
            if (key[1:] == key[:-1]).any():
                raise DataError("duplicate (user, item) pairs")
            pairs = np.stack([key // self.n, key % self.n], axis=1)
        self.pairs = pairs
        self.user_ptr = _offsets(pairs[:, 0], self.m)

    def __len__(self) -> int:
        return len(self.pairs)

    def user_counts(self) -> np.ndarray:
        return np.diff(self.user_ptr)

    def item_counts(self) -> np.ndarray:
        return np.bincount(self.pairs[:, 1], minlength=self.n)

    def labels(self) -> tuple[list[str], list[str]]:
        """User and item labels; an unlabeled side uses its dense indices."""
        users = self.user_labels or [str(u) for u in range(self.m)]
        items = self.item_labels or [str(i) for i in range(self.n)]
        return users, items

    def replaced(self, pairs: np.ndarray) -> "InteractionSet":
        """Same dimensions and labels, different pair list."""
        return InteractionSet(self.m, self.n, pairs, self.user_labels, self.item_labels)


def _offsets(column: np.ndarray, size: int) -> np.ndarray:
    """(size + 1,) offsets of the runs of 0..size-1 in the sorted column."""
    return np.concatenate(([0], np.cumsum(np.bincount(column, minlength=size))))


PROTOCOL_TAGS = ("synthetic_debiased", "preprovided")
_SET_NAMES = ("train", "validation", "test")  # a split's sets, in file order


@dataclass
class SplitBundle:
    """Three pair sets in one label space: validation and test have train's
    dimensions and labels, else DataError."""

    train: InteractionSet
    validation: InteractionSet
    test: InteractionSet
    protocol_tag: str  # one of PROTOCOL_TAGS

    def __post_init__(self):
        if self.protocol_tag not in PROTOCOL_TAGS:
            raise ConfigError(f"unknown protocol tag {self.protocol_tag!r}")
        space = attrgetter("m", "n", "user_labels", "item_labels")
        for name in _SET_NAMES[1:]:
            if space(getattr(self, name)) != space(self.train):
                raise DataError(f"{name} set: dimensions or labels differ from train's")


@dataclass
class SyntheticWorld:
    """Ground truth for the click model, kept as the generator's inputs.

    Cell (u, i) has exposure probability float32(clip(activity[u] *
    item_weight[i], EXPOSURE_FLOOR, 1)) and relevance float32(sigmoid(
    latent_u[u] . latent_i[i] * sharpness / sqrt(latent d))); clicks are
    Bernoulli draws with p = exposure * relevance. exposure_cells and
    relevance_cells read the cells, so no m x n matrix is held."""

    m: int
    n: int
    item_weight: np.ndarray  # (n,) float64 >= 0
    activity: np.ndarray  # (m,) float64 > 0
    latent_u: np.ndarray  # (m, _WORLD_LATENT_D) float64
    latent_i: np.ndarray  # (n, _WORLD_LATENT_D) float64

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DataError(f"world needs m >= 1 and n >= 1, got {self.m}x{self.n}")
        shapes = {"item_weight": (self.n,), "activity": (self.m,),
                  "latent_u": (self.m, _WORLD_LATENT_D), "latent_i": (self.n, _WORLD_LATENT_D)}
        for name, shape in shapes.items():
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.shape != shape:
                raise DataError(f"world {name} has shape {values.shape}, expected {shape}")
            if not np.isfinite(values).all():
                raise DataError(f"world {name} values must be finite")
            setattr(self, name, values)
        # A weight may underflow to 0 at a large skew; the floor lifts its cells.
        if (self.item_weight < 0).any() or (self.activity <= 0).any():
            raise DataError("world item weights must be >= 0 and activities > 0")


#: The first two UTF-8 bytes, as b0 << 8 | b1, of each non-ASCII character
#: that str.lstrip strips (U+0085 to U+3000). A line that starts with any
#: other character above U+0020 does not start with whitespace.
_SPACE_PREFIXES = np.array([0xC285, 0xC2A0, 0xE19A, 0xE280, 0xE281, 0xE380])


def _read_tsv(path, ids=None, lenient: bool = False):
    """User and item index columns of a UTF-8 `user<TAB>item` file and, for
    a log, its user and item labels in index order. Lines end at LF, CRLF or
    a lone CR, and blank ones are skipped. A log (ids None) skips '#'
    comment lines too and indexes ids in first-appearance order; a split
    file's ids are looked up in the (user, item) id -> index maps ids.

    The line work runs in numpy over the bytes. A non-empty line whose
    first byte is at most 0x20, or whose first two are in _SPACE_PREFIXES,
    is decided by its str.lstrip(); any other line by its first byte alone.
    So the skip rule stays str.lstrip's, Unicode whitespace and C0
    separators included. The kept lines are decoded one run of consecutive
    lines at a time, and a log hashes each id once."""
    raw = Path(path).read_bytes()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = np.frombuffer(raw, np.uint8)
    stops = np.append(np.flatnonzero(buf == 10), len(raw))  # the last line needs no end
    width = np.bincount(np.searchsorted(stops, np.flatnonzero(buf == 9)), minlength=len(stops))
    width += 1  # fields per line: its TABs plus one
    starts = np.concatenate(([0], stops[:-1] + 1))
    is_log = ids is None
    kept = stops > starts  # an empty line is skipped
    lines = np.flatnonzero(kept)
    lead = buf[starts[lines]]
    if is_log:
        kept[lines[lead == ord("#")]] = False
    view = memoryview(raw)
    wide = lines[lead >= 0x80]  # a multi-byte first character, so its second byte is in raw
    prefix = buf[starts[wide]].astype(np.int64) << 8 | buf[starts[wide] + 1]
    odd = np.concatenate((lines[lead <= 0x20], wide[np.isin(prefix, _SPACE_PREFIXES)]))
    kept[odd] = [bool(s := str(view[a:b], "utf-8").lstrip()) and not (is_log and s[0] == "#")
                 for a, b in zip(starts[odd].tolist(), stops[odd].tolist())]
    runs = np.flatnonzero(np.diff(kept, prepend=False, append=False)).reshape(-1, 2)
    spans = zip(starts[runs[:, 0]].tolist(), stops[runs[:, 1] - 1].tolist())  # bytes of each run
    width = width[kept]
    del buf, starts, stops, lines, lead, wide, prefix, odd, runs
    text = "\n".join([str(view[a:b], "utf-8") for a, b in spans])
    del raw, view  # before the field strings are made
    fields = text.replace("\n", "\t")
    del text
    fields = fields.split("\t")
    if len(width) and (width == 2).all():
        users, items = fields[0::2], fields[1::2]
    else:  # each line's first two fields; "" stands for a missing second
        first = (np.cumsum(width) - width).tolist()
        fields.append("")
        users, items = [fields[k] for k in first], [fields[k + 1] for k in first]
    del fields
    if is_log:
        (user_labels, u), (item_labels, i) = map(_first_appearance, (users, items))
        labels = user_labels, item_labels
    else:
        labels = None
        u = np.fromiter(map(ids[0].get, users, repeat(-1)), np.int64, len(users))
        i = np.fromiter(map(ids[1].get, items, repeat(-1)), np.int64, len(items))
    bad_width = width < 2 if lenient else width != 2
    failed = bad_width | (u < 0) | (i < 0)
    if failed.any():  # the first bad line, as a line-by-line parse finds it
        k = int(np.argmax(failed))
        unknown = users[k] if u[k] < 0 else items[k]
        problem = "empty id" if is_log else f"unknown id {unknown!r}"
        if bad_width[k]:
            problem = (f"expected 2 tab-separated fields, got {width[k]}" if is_log
                       else "expected 2 fields")
        lineno = np.flatnonzero(kept)[k] + 1  # kept: one flag per line of the file
        raise DataError(f"{path}: line {lineno}: {problem}")
    return u, i, labels


def _first_appearance(column: list[str]) -> tuple[list[str], np.ndarray]:
    """A column's non-empty ids in first-appearance order, and each field's
    index among them (-1 for ""). Each field is hashed once: a new id draws
    the next index from the counter."""
    index = defaultdict(count().__next__, {"": -1})
    at = np.fromiter(map(index.__getitem__, column), np.int64, len(column))
    del index[""]
    return list(index), at


def load_interactions(path, lenient: bool = False) -> InteractionSet:
    """Parse a UTF-8 TSV of `user_id<TAB>item_id` lines into dense indices.

    Ids are non-empty strings, mapped in first-appearance order; duplicate
    pairs collapse to one. Blank lines and '#' comment lines are skipped:
    a line is blank when str.lstrip() leaves nothing of it, and a comment
    when what it leaves starts with '#'. With lenient=True, columns beyond
    the second are ignored; otherwise any line without exactly two fields is
    a parse error. _read_tsv does the line work in numpy over the bytes.
    """
    users, items, (user_labels, item_labels) = _read_tsv(path, lenient=lenient)
    if not len(users):
        raise DataError(f"{path}: no interactions")
    n = len(item_labels)
    key = np.sort(users * n + items)
    key = key[np.diff(key, prepend=-1) != 0]  # duplicates collapse
    return InteractionSet(len(user_labels), n, np.stack([key // n, key % n], axis=1),
                          user_labels, item_labels)


def _draw(rng: np.random.Generator, idx: np.ndarray, rate: float, out: np.ndarray) -> None:
    """Set out at rate * len(idx) of the positions idx, stochastically
    rounded and drawn without replacement."""
    x = rate * len(idx)
    quota = math.floor(x) + (rng.random() < x - math.floor(x))
    if quota > 0:
        out[idx[rng.choice(len(idx), size=min(quota, len(idx)), replace=False)]] = True


def check_split_options(test_frac: float, valid_frac: float, sampling: str) -> None:
    """The usage rules of split_unbiased_protocol's options."""
    if not (0 < test_frac < 1 and 0 < valid_frac < 1):
        raise ConfigError("test_frac and valid_frac must lie in (0, 1)")
    if test_frac + valid_frac >= 1:
        raise ConfigError("test_frac + valid_frac must be < 1")
    if sampling not in ("per_item", "global_uniform"):
        raise ConfigError(f"unknown sampling mode {sampling!r}")


def split_unbiased_protocol(
    data: InteractionSet,
    test_frac: float,
    valid_frac: float,
    seed: int,
    sampling: str = "per_item",
) -> SplitBundle:
    """Split interactions into train/validation/test.

    sampling="per_item" draws each item's interactions into the test set at
    the same rate test_frac (stochastic rounding of the per-item quota): a
    draw stratified by item. In expectation its test set has the item mix
    of the interactions, as a uniform draw does, so it does not remove
    popularity skew. sampling="global_uniform" instead samples test pairs
    uniformly over all interactions. Validation is drawn uniformly from the
    remainder at rate valid_frac / (1 - test_frac); the rest is train.

    Users left with no training interaction get one pair moved back from
    validation (preferred) or test, so every user stays trainable.
    """
    check_split_options(test_frac, valid_frac, sampling)
    if len(data) == 0:
        raise DataError("cannot split an empty interaction set")

    rng = rng_from(seed, 21)
    pairs = data.pairs
    in_test = np.zeros(len(pairs), dtype=bool)
    if sampling == "per_item":
        item_order = np.argsort(pairs[:, 1] * data.m + pairs[:, 0])  # users ascend
        item_ptr = _offsets(pairs[:, 1], data.n)
        for item in np.flatnonzero(np.diff(item_ptr)).tolist():
            _draw(rng, item_order[item_ptr[item] : item_ptr[item + 1]], test_frac, in_test)
    else:
        _draw(rng, np.arange(len(pairs)), test_frac, in_test)
    in_valid = np.zeros(len(pairs), dtype=bool)
    _draw(rng, np.flatnonzero(~in_test), valid_frac / (1.0 - test_frac), in_valid)
    in_train = ~(in_test | in_valid)

    # Repair pass: every user must keep at least one training interaction.
    untrained = (np.bincount(pairs[in_train, 0], minlength=data.m) == 0) & (
        data.user_counts() > 0
    )
    for user in np.flatnonzero(untrained).tolist():
        owned = np.arange(data.user_ptr[user], data.user_ptr[user + 1])
        from_valid = owned[in_valid[owned]]
        source = from_valid if len(from_valid) else owned[in_test[owned]]
        take = int(source[0])  # lowest item index, deterministic
        in_valid[take] = False
        in_test[take] = False
        in_train[take] = True

    bundle = SplitBundle(
        train=data.replaced(pairs[in_train]),
        validation=data.replaced(pairs[in_valid]),
        test=data.replaced(pairs[in_test]),
        protocol_tag="synthetic_debiased",
    )
    return bundle


def generate_synthetic_world(
    m: int, n: int, skew: float, seed: int
) -> SyntheticWorld:
    """Synthesize ground truth with popularity-skewed exposure.

    Exposure: items get a random popularity rank r in {1..n}; the item
    weight is (1/sqrt(r))^skew, scaled by a per-user activity factor and
    clamped into [EXPOSURE_FLOOR, 1]. skew=0 makes exposure uniform within
    each user's row (missing completely at random); the max/min ratio of
    the rank weights is n^(skew/2).

    Relevance: sigmoid of a scaled low-rank latent product, so that true
    preferences carry collaborative structure a factor model can recover.
    """
    if m < 2 or n < 2:
        raise ConfigError("synthetic world needs m >= 2 and n >= 2")
    if not 0 <= skew < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"skew must be finite and >= 0, got {skew}")
    rng = rng_from(seed, 31)
    ranks = rng.permutation(n) + 1  # popularity rank per item, 1-based
    item_weight = (1.0 / np.sqrt(ranks)) ** skew
    activity = rng.uniform(_WORLD_ACTIVITY_LO, _WORLD_ACTIVITY_HI, size=m)
    latent_u = rng.normal(size=(m, _WORLD_LATENT_D))
    latent_i = rng.normal(size=(n, _WORLD_LATENT_D))
    return SyntheticWorld(m, n, item_weight, activity, latent_u, latent_i)


def _row_blocks(m: int) -> list[slice]:
    """Slices of _ROW_BLOCK consecutive rows of m (the last may be shorter)."""
    return [slice(r, min(r + _ROW_BLOCK, m)) for r in range(0, m, _ROW_BLOCK)]


def _exposure(product: np.ndarray, out=None) -> np.ndarray:
    """Exposure cells of activity * item_weight products: the products are
    clipped in place, then rounded to float32 into out."""
    np.clip(product, EXPOSURE_FLOOR, 1.0, out=product)
    if out is None:
        out = np.empty(product.shape, dtype=np.float32)
    np.copyto(out, product, casting="same_kind")
    return out


def _logits(world: SyntheticWorld, rows: slice, out=None) -> np.ndarray:
    """The latent products of one row block. Relevance is always read from
    the product of the whole block, so a cell's value does not depend on
    which cells are asked for."""
    return np.matmul(world.latent_u[rows], world.latent_i.T, out=out)


def _relevance(logits: np.ndarray) -> np.ndarray:
    """Relevance cells of latent products; elementwise."""
    return sigmoid(logits * _WORLD_SCALE).astype(np.float32)


def _world_pairs(world: SyntheticWorld, pairs) -> np.ndarray:
    """pairs as a (P, 2) int64 array; a pair outside the world is a DataError."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs):
        if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= world.m:
            raise DataError("pair user index outside world bounds")
        if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= world.n:
            raise DataError("pair item index outside world bounds")
    return pairs


def exposure_cells(world: SyntheticWorld, pairs) -> np.ndarray:
    """float32 exposure probability of each (user, item) pair."""
    pairs = _world_pairs(world, pairs)
    return _exposure(world.activity[pairs[:, 0]] * world.item_weight[pairs[:, 1]])


def relevance_cells(world: SyntheticWorld, pairs) -> np.ndarray:
    """float32 relevance of each (user, item) pair: one latent product per
    row block that holds a pair's user."""
    pairs = _world_pairs(world, pairs)
    out = np.empty(len(pairs), dtype=np.float32)
    block = pairs[:, 0] // _ROW_BLOCK
    order = np.argsort(block, kind="stable")
    blocks = _row_blocks(world.m)
    ptr = _offsets(block[order], len(blocks))
    for b in np.flatnonzero(np.diff(ptr)).tolist():
        at = order[ptr[b] : ptr[b + 1]]
        logits = _logits(world, blocks[b])
        out[at] = _relevance(logits[pairs[at, 0] - blocks[b].start, pairs[at, 1]])
    return out


def sample_clicks(world: SyntheticWorld, seed: int) -> InteractionSet:
    """Draw one click matrix: cell (u, i) clicks with probability
    exposure * relevance, independently.

    A user whose row comes up empty is redrawn after all blocks, in user
    order, from exposure_cells * relevance_cells over their n cells (one
    call per row block that holds such users): up to 10 times, then
    assigned their single highest-probability item, so every user is
    trainable.

    The draws come one row block at a time, the same stream as one m x n
    draw. A draw at or above the cell's exposure cannot click, since
    relevance <= 1 makes exposure * relevance <= exposure exactly in
    float64; relevance is computed only for the cells below it.
    """
    rng = rng_from(seed, 41)
    n, blocks = world.n, _row_blocks(world.m)
    shape = (min(_ROW_BLOCK, world.m), n)  # block buffers, reused by every block
    draw, cells = np.empty(shape), np.empty(shape)
    exposure, below = np.empty(shape, dtype=np.float32), np.empty(shape, dtype=bool)
    keys, redraw = [], []
    for b, rows in enumerate(blocks):
        k = rows.stop - rows.start
        u, e, cand = draw[:k], exposure[:k], below[:k]
        np.multiply(world.activity[rows, None], world.item_weight, out=cells[:k])
        _exposure(cells[:k], out=e)
        rng.random(out=u)
        np.less(u, e, out=cand)
        logits = _logits(world, rows, out=cells[:k])
        prob = np.multiply(e[cand], _relevance(logits[cand]), dtype=np.float64)
        cand[cand] = u[cand] < prob  # now the block's clicks
        keys.append(np.flatnonzero(cand) + rows.start * n)
        users = np.flatnonzero(~cand.any(axis=1)) + rows.start
        if len(users):
            redraw.append((b, users))
    for b, users in redraw:
        pairs = np.stack(np.meshgrid(users, np.arange(n), indexing="ij"), axis=-1)
        probs = np.multiply(exposure_cells(world, pairs), relevance_cells(world, pairs),
                            dtype=np.float64).reshape(len(users), n)
        drawn = []
        for user, prob in zip(users.tolist(), probs):
            for _ in range(10):
                row = np.flatnonzero(rng.random(n) < prob)
                if len(row):
                    break
            else:
                row = np.argmax(prob, keepdims=True)
            drawn.append(user * n + row)
        add = np.concatenate(drawn)
        keys[b] = np.insert(keys[b], np.searchsorted(keys[b], add), add)
    key = np.concatenate(keys)
    return InteractionSet(world.m, n, np.stack([key // n, key % n], axis=1))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def write_tsv(path, *columns) -> None:
    """Write equal-length columns of str as rows of TAB-separated fields,
    each ending in LF, with one atomic_write call."""
    cells = np.empty((len(columns[0]), 2 * len(columns)), dtype=object)
    for j, column in enumerate(columns):
        cells[:, 2 * j] = column
    cells[:, 1::2] = "\t"
    cells[:, -1] = "\n"
    atomic_write(path, "".join(cells.ravel().tolist()))


_BAD_LABEL_CHAR = re.compile("[\t\n\r\ud800-\udfff]")  # separators; surrogates lack UTF-8


def _check_labels(bundle: SplitBundle) -> None:
    """DataError naming the set and the label unless load_split reads every
    pair back: labels are str without a _BAD_LABEL_CHAR, and no pair has
    two blank labels (a blank line). The sets share train's labels, so the
    user and the item labels are each checked once."""
    users, items = bundle.train.labels()
    for labels in (users, items):
        if not all(map(isinstance, labels, repeat(str))) or _BAD_LABEL_CHAR.search(
                "".join(labels)):
            bad = next(x for x in labels if not isinstance(x, str) or _BAD_LABEL_CHAR.search(x))
            raise DataError(f"train set: label {bad!r} is not a str free of "
                            "TAB, LF, CR and surrogates")
    user_blank, item_blank = (np.array([*map(str.strip, labels)], object) == ""
                              for labels in (users, items))
    for name in _SET_NAMES:
        iset = getattr(bundle, name)
        if (both := user_blank[iset.pairs[:, 0]] & item_blank[iset.pairs[:, 1]]).any():
            u, i = iset.pairs[np.argmax(both)]
            raise DataError(f"{name} set: user label {users[u]!r} and item label "
                            f"{items[i]!r} are both blank")


def save_split(bundle: SplitBundle, out_dir, seed=None, fractions=None) -> None:
    """Persist a split as train/validation/test TSVs plus a JSON manifest
    carrying dimensions, the id mappings, and the split provenance. Labels
    that load_split could not read back raise DataError before any write."""
    _check_labels(bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    users, items = (np.array(labels, dtype=object) for labels in bundle.train.labels())
    for name in _SET_NAMES:
        pairs = getattr(bundle, name).pairs
        write_tsv(out / f"{name}.tsv", users[pairs[:, 0]], items[pairs[:, 1]])
    ref = bundle.train
    manifest = {
        "m": ref.m,
        "n": ref.n,
        "seed": seed,
        "fractions": fractions,
        "protocol_tag": bundle.protocol_tag,
        "user_labels": ref.user_labels,
        "item_labels": ref.item_labels,
    }
    atomic_write(out / "split-manifest.json", json.dumps(manifest, indent=2))


def load_split(split_dir) -> SplitBundle:
    """Load a split bundle persisted by save_split."""
    root = Path(split_dir)
    manifest_path = root / "split-manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{split_dir}: missing split-manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: not a JSON object")
    missing = [k for k in ("m", "n", "user_labels", "item_labels") if k not in manifest]
    if missing:
        raise DataError(f"{manifest_path}: missing keys {missing}")
    m, n = manifest["m"], manifest["n"]
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise DataError(f"{manifest_path}: m and n must be non-negative integers")
    ids = []
    for key, size in (("user_labels", m), ("item_labels", n)):
        labels = manifest[key]
        if not isinstance(labels, (list, type(None))):
            raise DataError(f"{manifest_path}: {key} must be a list or null")
        if labels is not None and len(labels) != size:
            raise DataError(f"{manifest_path}: {key} must hold {size} labels")
        if labels is not None and not set(map(type, labels)) <= {str}:
            raise DataError(f"{manifest_path}: {key} must hold strings")
        ids.append(dict(zip(labels or map(str, range(size)), range(size))))
        if len(ids[-1]) < size:
            raise DataError(f"{manifest_path}: {key} repeats a label")
    protocol_tag = manifest.get("protocol_tag", "preprovided")
    if protocol_tag not in PROTOCOL_TAGS:
        raise DataError(f"{manifest_path}: unknown protocol tag {protocol_tag!r}")
    sets = [
        InteractionSet(m, n, np.stack(_read_tsv(root / f"{name}.tsv", ids)[:2], axis=1),
                       manifest["user_labels"], manifest["item_labels"])
        for name in _SET_NAMES
    ]
    keys = [s.pairs[:, 0] * n + s.pairs[:, 1] for s in sets]
    stacked = np.sort(np.concatenate(keys))
    shared = stacked[1:][stacked[1:] == stacked[:-1]]
    if len(shared):  # each set is duplicate-free, so two sets hold this pair
        key = shared[0]
        first, second = [name for name, k in zip(_SET_NAMES, keys) if (k == key).any()][:2]
        user_labels, item_labels = sets[0].labels()
        raise DataError(f"{root}: {first}.tsv and {second}.tsv share the pair "
                        f"({user_labels[key // n]!r}, {item_labels[key % n]!r})")
    return SplitBundle(*sets, protocol_tag=protocol_tag)


def save_world(world: SyntheticWorld, path) -> None:
    """Binary world file, version 2: magic, version, dims, then item_weight,
    activity, latent_u and latent_i as row-major little-endian float64."""
    atomic_write(path, WORLD_MAGIC, struct.pack("<IQQ", WORLD_VERSION, world.m, world.n),
                 *(np.ascontiguousarray(values, dtype="<f8").tobytes() for values in (
                     world.item_weight, world.activity, world.latent_u, world.latent_i)))


def load_world(path) -> SyntheticWorld:
    raw = Path(path).read_bytes()
    head_len = 4 + 4 + 16
    if len(raw) < head_len:
        raise DataError(f"{path}: truncated world header")
    if raw[:4] != WORLD_MAGIC:
        raise DataError(f"{path}: not a synthetic world file (bad magic)")
    version, m, n = struct.unpack("<IQQ", raw[4:head_len])
    if version == 1:
        raise DataError(f"{path}: world file version 1 holds m x n cell matrices, which "
                        f"this release no longer reads; re-run `synth` to write version "
                        f"{WORLD_VERSION}")
    if version != WORLD_VERSION:
        raise DataError(f"{path}: unsupported world version {version}")
    sizes = (n, m, m * _WORLD_LATENT_D, n * _WORLD_LATENT_D)
    if len(raw) != head_len + 8 * sum(sizes):
        raise DataError(f"{path}: truncated or oversized world payload")
    values = np.frombuffer(raw, dtype="<f8", offset=head_len).astype(np.float64)
    weight, activity, latent_u, latent_i = np.split(values, np.cumsum(sizes)[:-1])
    return SyntheticWorld(int(m), int(n), weight, activity,
                          latent_u.reshape(m, _WORLD_LATENT_D),
                          latent_i.reshape(n, _WORLD_LATENT_D))
