"""Interaction ingestion, indexed sparse structures, popularity-debiased
splitting, and the synthetic missing-not-at-random click generator."""

from __future__ import annotations

import json
import logging
import math
import re
import struct
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import atomic_write, rng_from, sigmoid

log = logging.getLogger(__name__)

WORLD_MAGIC = b"SYNW"
WORLD_VERSION = 1

#: Exposure probabilities are clamped into [EXPOSURE_FLOOR, 1].
EXPOSURE_FLOOR = 0.01

#: Latent dimensionality of the synthetic ground-truth preference model.
_WORLD_LATENT_D = 8
#: Sharpness of the preference sigmoid; larger pushes relevance toward 0/1.
_WORLD_SHARPNESS = 3.0
#: Per-user exposure activity range. Values above 1 saturate head items at
#: full exposure, keeping per-user click counts large enough to learn from.
_WORLD_ACTIVITY_LO, _WORLD_ACTIVITY_HI = 1.0, 5.0
#: Rows per block of the world and click computations, which bounds their
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

    def pair_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(i)) for u, i in self.pairs}

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


@dataclass
class SplitBundle:
    train: InteractionSet
    validation: InteractionSet
    test: InteractionSet
    protocol_tag: str  # one of PROTOCOL_TAGS

    def __post_init__(self):
        if self.protocol_tag not in PROTOCOL_TAGS:
            raise ConfigError(f"unknown protocol tag {self.protocol_tag!r}")


@dataclass
class SyntheticWorld:
    """Ground truth for the click model: relevance and exposure probability
    per cell. Clicks are Bernoulli draws with p = exposure * relevance."""

    m: int
    n: int
    relevance: np.ndarray  # (m, n) float32 in [0, 1]
    exposure: np.ndarray  # (m, n) float32 in (0, 1]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DataError(f"world needs m >= 1 and n >= 1, got {self.m}x{self.n}")
        self.relevance = np.asarray(self.relevance, dtype=np.float32)
        self.exposure = np.asarray(self.exposure, dtype=np.float32)
        if self.relevance.shape != (self.m, self.n):
            raise DataError("relevance matrix shape mismatch")
        if self.exposure.shape != (self.m, self.n):
            raise DataError("exposure matrix shape mismatch")
        if not (np.isfinite(self.relevance).all() and np.isfinite(self.exposure).all()):
            raise DataError("relevance and exposure values must be finite")
        if self.relevance.min() < 0 or self.relevance.max() > 1:
            raise DataError("relevance values must lie in [0, 1]")
        if self.exposure.min() <= 0 or self.exposure.max() > 1:
            raise DataError("exposure values must lie in (0, 1]")


def _read_tsv(path, ids=None, lenient: bool = False):
    """User and item index columns of a UTF-8 `user<TAB>item` file, and the
    (user, item) id -> index maps. Lines end at LF, CRLF or a lone CR, and
    blank ones are skipped. A log (ids None) skips '#' comment lines too and
    maps ids in first-appearance order; a split file is looked up in ids."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    is_log = ids is None
    kept = [bool(s := ln.lstrip()) and not (is_log and s[0] == "#") for ln in lines]
    lines = list(compress(lines, kept))
    width = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) + 1
    fields = "\t".join(lines)
    del text, lines  # before the field strings are made
    fields = fields.split("\t")
    if len(width) and (width == 2).all():
        users, items = fields[0::2], fields[1::2]
    else:  # each line's first two fields; "" stands for a missing second
        first = (np.cumsum(width) - width).tolist()
        fields.append("")
        users, items = [fields[k] for k in first], [fields[k + 1] for k in first]
    del fields
    if is_log:  # first-appearance order; "" is left out, so it looks up as unknown
        ids = [dict(zip(filter(None, dict.fromkeys(column)), range(len(column))))
               for column in (users, items)]
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
    return u, i, ids


def load_interactions(path, lenient: bool = False) -> InteractionSet:
    """Parse a UTF-8 TSV of `user_id<TAB>item_id` lines into dense indices.

    Ids are non-empty strings, mapped in first-appearance order; duplicate
    pairs collapse to one. Blank lines and '#' comment lines are skipped.
    With lenient=True, columns beyond the second are ignored; otherwise any
    line without exactly two fields is a parse error.
    """
    users, items, (user_ids, item_ids) = _read_tsv(path, lenient=lenient)
    if not len(users):
        raise DataError(f"{path}: no interactions")
    n = len(item_ids)
    key = np.sort(users * n + items)
    key = key[np.diff(key, prepend=-1) != 0]  # duplicates collapse
    return InteractionSet(len(user_ids), n, np.stack([key // n, key % n], axis=1),
                          list(user_ids), list(item_ids))


def _stochastic_round(x: float, rng: np.random.Generator) -> int:
    base = math.floor(x)
    frac = x - base
    return base + (1 if rng.random() < frac else 0)


def split_unbiased_protocol(
    data: InteractionSet,
    test_frac: float,
    valid_frac: float,
    seed: int,
    sampling: str = "per_item",
) -> SplitBundle:
    """Split interactions into train/validation/test.

    sampling="per_item" draws each item's interactions into the test set at
    rate test_frac regardless of item popularity (stochastic rounding of the
    per-item quota), which equalizes item inclusion rates for unbiased
    evaluation. sampling="global_uniform" instead samples test pairs
    uniformly over all interactions. Validation is drawn uniformly from the
    remainder at rate valid_frac / (1 - test_frac); the rest is train.

    Users left with no training interaction get one pair moved back from
    validation (preferred) or test, so every user stays trainable.
    """
    if not (0 < test_frac < 1 and 0 < valid_frac < 1):
        raise ConfigError("test_frac and valid_frac must lie in (0, 1)")
    if test_frac + valid_frac >= 1:
        raise ConfigError("test_frac + valid_frac must be < 1")
    if sampling not in ("per_item", "global_uniform"):
        raise ConfigError(f"unknown sampling mode {sampling!r}")
    if len(data) == 0:
        raise DataError("cannot split an empty interaction set")

    rng = rng_from(seed, 21)
    pairs = data.pairs
    p_total = len(pairs)
    in_test = np.zeros(p_total, dtype=bool)

    if sampling == "per_item":
        item_order = np.argsort(pairs[:, 1] * data.m + pairs[:, 0])  # users ascend
        item_ptr = _offsets(pairs[:, 1], data.n)
        for item in np.flatnonzero(np.diff(item_ptr)).tolist():
            idx = item_order[item_ptr[item] : item_ptr[item + 1]]
            quota = _stochastic_round(test_frac * len(idx), rng)
            if quota > 0:
                chosen = rng.choice(len(idx), size=min(quota, len(idx)), replace=False)
                in_test[idx[chosen]] = True
    else:
        quota = _stochastic_round(test_frac * p_total, rng)
        if quota > 0:
            chosen = rng.choice(p_total, size=min(quota, p_total), replace=False)
            in_test[chosen] = True

    remainder = np.flatnonzero(~in_test)
    valid_rate = valid_frac / (1.0 - test_frac)
    in_valid = np.zeros(p_total, dtype=bool)
    quota = _stochastic_round(valid_rate * len(remainder), rng)
    if quota > 0:
        chosen = rng.choice(len(remainder), size=min(quota, len(remainder)), replace=False)
        in_valid[remainder[chosen]] = True

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
    scale = _WORLD_SHARPNESS / math.sqrt(_WORLD_LATENT_D)
    relevance = np.empty((m, n), dtype=np.float32)
    exposure = np.empty((m, n), dtype=np.float32)
    for rows in _row_blocks(m):
        exposure[rows] = np.clip(activity[rows, None] * item_weight, EXPOSURE_FLOOR, 1.0)
        relevance[rows] = sigmoid((latent_u[rows] @ latent_i.T) * scale)
    return SyntheticWorld(m, n, relevance, exposure)


def _row_blocks(m: int) -> list[slice]:
    """Slices of _ROW_BLOCK consecutive rows of m (the last may be shorter)."""
    return [slice(r, r + _ROW_BLOCK) for r in range(0, m, _ROW_BLOCK)]


def _click_prob(world: SyntheticWorld, rows) -> np.ndarray:
    """exposure * relevance of the given rows, in float64 (exact)."""
    return np.multiply(world.exposure[rows], world.relevance[rows], dtype=np.float64)


def sample_clicks(world: SyntheticWorld, seed: int) -> InteractionSet:
    """Draw one click matrix: cell (u, i) clicks with probability
    exposure * relevance, independently.

    A user whose row comes up empty is redrawn up to 10 times and then
    assigned their single highest-probability item, so every user is
    trainable.
    """
    rng = rng_from(seed, 41)
    clicks = np.empty((world.m, world.n), dtype=bool)
    # Block by block, the draws are the same stream as one m x n draw.
    for rows in _row_blocks(world.m):
        clicks[rows] = rng.random(clicks[rows].shape) < _click_prob(world, rows)
    for user in np.flatnonzero(~clicks.any(axis=1)).tolist():
        prob = _click_prob(world, user)
        for _ in range(10):
            clicks[user] = rng.random(world.n) < prob
            if clicks[user].any():
                break
        else:
            clicks[user, int(np.argmax(prob))] = True
    return InteractionSet(world.m, world.n, np.argwhere(clicks))


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


def _check_labels(sets: dict) -> None:
    """DataError naming the set and the label unless load_split reads every
    pair back: labels are str without a _BAD_LABEL_CHAR, and no pair has
    two blank labels (a blank line). Each label list is checked once."""
    seen = {}  # id of a label list -> (the list, flags of its blank labels)
    for name, iset in sets.items():
        blank = []
        for labels in iset.labels():
            if id(labels) not in seen:
                if not all(map(isinstance, labels, repeat(str))) or _BAD_LABEL_CHAR.search(
                        "".join(labels)):
                    bad = next(x for x in labels
                               if not isinstance(x, str) or _BAD_LABEL_CHAR.search(x))
                    raise DataError(f"{name} set: label {bad!r} is not a str free of "
                                    "TAB, LF, CR and surrogates")
                seen[id(labels)] = labels, np.array([*map(str.strip, labels)], object) == ""
            blank.append(seen[id(labels)])
        (users, user_blank), (items, item_blank) = blank
        if (both := user_blank[iset.pairs[:, 0]] & item_blank[iset.pairs[:, 1]]).any():
            u, i = iset.pairs[np.argmax(both)]
            raise DataError(f"{name} set: user label {users[u]!r} and item label "
                            f"{items[i]!r} are both blank")


def save_split(bundle: SplitBundle, out_dir, seed=None, fractions=None) -> None:
    """Persist a split as train/validation/test TSVs plus a JSON manifest
    carrying dimensions, the id mappings, and the split provenance. Labels
    that load_split could not read back raise DataError before any write."""
    sets = {"train": bundle.train, "validation": bundle.validation, "test": bundle.test}
    _check_labels(sets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, iset in sets.items():
        users, items = (np.array(labels, dtype=object) for labels in iset.labels())
        write_tsv(out / f"{name}.tsv", users[iset.pairs[:, 0]], items[iset.pairs[:, 1]])
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
    names = ("train", "validation", "test")
    sets = [
        InteractionSet(m, n, np.stack(_read_tsv(root / f"{name}.tsv", ids)[:2], axis=1),
                       manifest["user_labels"], manifest["item_labels"])
        for name in names
    ]
    keys = [s.pairs[:, 0] * n + s.pairs[:, 1] for s in sets]
    stacked = np.sort(np.concatenate(keys))
    shared = stacked[1:][stacked[1:] == stacked[:-1]]
    if len(shared):  # each set is duplicate-free, so two sets hold this pair
        key = shared[0]
        first, second = [name for name, k in zip(names, keys) if (k == key).any()][:2]
        user_labels, item_labels = sets[0].labels()
        raise DataError(f"{root}: {first}.tsv and {second}.tsv share the pair "
                        f"({user_labels[key // n]!r}, {item_labels[key % n]!r})")
    return SplitBundle(*sets, protocol_tag=protocol_tag)


def save_world(world: SyntheticWorld, path) -> None:
    """Binary world file: magic, version, dims, then the relevance and
    exposure matrices as row-major little-endian float32."""
    atomic_write(path, WORLD_MAGIC, struct.pack("<IQQ", WORLD_VERSION, world.m, world.n),
                 np.ascontiguousarray(world.relevance, dtype="<f4").tobytes(),
                 np.ascontiguousarray(world.exposure, dtype="<f4").tobytes())


def load_world(path) -> SyntheticWorld:
    raw = Path(path).read_bytes()
    head_len = 4 + 4 + 16
    if len(raw) < head_len:
        raise DataError(f"{path}: truncated world header")
    if raw[:4] != WORLD_MAGIC:
        raise DataError(f"{path}: not a synthetic world file (bad magic)")
    version, m, n = struct.unpack("<IQQ", raw[4:head_len])
    if version != WORLD_VERSION:
        raise DataError(f"{path}: unsupported world version {version}")
    if len(raw) != head_len + 2 * 4 * m * n:
        raise DataError(f"{path}: truncated or oversized world payload")
    rel, exp = np.frombuffer(raw, dtype="<f4", offset=head_len).reshape(2, m, n).copy()
    return SyntheticWorld(int(m), int(n), rel, exp)
