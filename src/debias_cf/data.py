"""Interaction ingestion, indexed sparse structures, popularity-debiased
splitting, and the synthetic missing-not-at-random click generator."""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field
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


@dataclass
class InteractionSet:
    """A duplicate-free set of clicked (user, item) pairs with indexes by
    user and by item. Pairs are kept in lexicographic order, so equal sets
    compare equal structurally. User u owns pairs[user_ptr[u]:user_ptr[u + 1]];
    item i owns the ascending positions item_order[item_ptr[i]:item_ptr[i + 1]]."""

    m: int
    n: int
    pairs: np.ndarray  # (P, 2) int64, lexicographically sorted
    user_labels: list[str] | None = None
    item_labels: list[str] | None = None
    user_ptr: np.ndarray = field(init=False, repr=False)  # (m + 1,) offsets
    item_ptr: np.ndarray = field(init=False, repr=False)  # (n + 1,) offsets
    item_order: np.ndarray = field(init=False, repr=False)  # (P,) positions

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if len(pairs):
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= self.m:
                raise DataError("user index out of range")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= self.n:
                raise DataError("item index out of range")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        if len(pairs) > 1 and (np.diff(pairs, axis=0) == 0).all(axis=1).any():
            raise DataError("duplicate (user, item) pairs")
        self.pairs = pairs
        # Stable, so each item's positions (and hence its users) ascend.
        self.item_order = np.argsort(pairs[:, 1], kind="stable")
        self.user_ptr = np.searchsorted(pairs[:, 0], np.arange(self.m + 1))
        self.item_ptr = np.searchsorted(pairs[self.item_order, 1], np.arange(self.n + 1))

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(i)) for u, i in self.pairs}

    def user_counts(self) -> np.ndarray:
        return np.diff(self.user_ptr)

    def item_counts(self) -> np.ndarray:
        return np.diff(self.item_ptr)

    def labels(self) -> tuple[list[str], list[str]]:
        """User and item labels; an unlabeled side uses its dense indices."""
        users = self.user_labels or [str(u) for u in range(self.m)]
        items = self.item_labels or [str(i) for i in range(self.n)]
        return users, items

    def replaced(self, pairs: np.ndarray) -> "InteractionSet":
        """Same dimensions and labels, different pair list."""
        return InteractionSet(self.m, self.n, pairs, self.user_labels, self.item_labels)


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


def _text_lines(path):
    """Numbered lines of a UTF-8 text file; undecodable bytes are a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_interactions(path, lenient: bool = False) -> InteractionSet:
    """Parse a UTF-8 TSV of `user_id<TAB>item_id` lines into dense indices.

    Ids are arbitrary strings, mapped in first-appearance order; duplicate
    pairs collapse to one. Lines starting with '#' and blank lines are
    skipped. With lenient=True, columns beyond the second are ignored;
    otherwise any line without exactly two fields is a parse error.
    """
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for lineno, line in _text_lines(path):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 and not (lenient and len(fields) > 2):
            raise DataError(
                f"{path}: line {lineno}: expected 2 tab-separated fields, "
                f"got {len(fields)}"
            )
        uid, iid = fields[0], fields[1]
        if not uid or not iid:
            raise DataError(f"{path}: line {lineno}: empty id")
        u = users.setdefault(uid, len(users))
        i = items.setdefault(iid, len(items))
        if (u, i) not in seen:
            seen.add((u, i))
            pairs.append((u, i))
    if not pairs:
        raise DataError(f"{path}: no interactions")
    return InteractionSet(
        m=len(users),
        n=len(items),
        pairs=np.array(pairs, dtype=np.int64),
        user_labels=list(users),
        item_labels=list(items),
    )


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
        for item in np.flatnonzero(data.item_counts()).tolist():
            idx = data.item_order[data.item_ptr[item] : data.item_ptr[item + 1]]
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
    exposure = np.clip(activity[:, None] * item_weight[None, :], EXPOSURE_FLOOR, 1.0)

    latent_u = rng.normal(size=(m, _WORLD_LATENT_D))
    latent_i = rng.normal(size=(n, _WORLD_LATENT_D))
    logits = (latent_u @ latent_i.T) * (_WORLD_SHARPNESS / math.sqrt(_WORLD_LATENT_D))
    relevance = sigmoid(logits)
    return SyntheticWorld(m, n, relevance, exposure)


def sample_clicks(world: SyntheticWorld, seed: int) -> InteractionSet:
    """Draw one click matrix: cell (u, i) clicks with probability
    exposure * relevance, independently.

    A user whose row comes up empty is redrawn up to 10 times and then
    assigned their single highest-probability item, so every user is
    trainable.
    """
    rng = rng_from(seed, 41)
    prob = world.exposure.astype(np.float64) * world.relevance.astype(np.float64)
    clicks = rng.random(prob.shape) < prob
    for user in np.flatnonzero(~clicks.any(axis=1)).tolist():
        for _ in range(10):
            clicks[user] = rng.random(world.n) < prob[user]
            if clicks[user].any():
                break
        else:
            clicks[user, int(np.argmax(prob[user]))] = True
    users, items = np.nonzero(clicks)
    pairs = np.stack([users, items], axis=1).astype(np.int64)
    return InteractionSet(world.m, world.n, pairs)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _write_pairs_tsv(path: Path, iset: InteractionSet) -> None:
    users, items = iset.labels()
    with atomic_write(path) as fh:
        for u, i in iset.pairs:
            fh.write(f"{users[u]}\t{items[i]}\n")


def save_split(bundle: SplitBundle, out_dir, seed=None, fractions=None) -> None:
    """Persist a split as train/validation/test TSVs plus a JSON manifest
    carrying dimensions, the id mappings, and the split provenance."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_pairs_tsv(out / "train.tsv", bundle.train)
    _write_pairs_tsv(out / "validation.tsv", bundle.validation)
    _write_pairs_tsv(out / "test.tsv", bundle.test)
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
    with atomic_write(out / "split-manifest.json") as fh:
        json.dump(manifest, fh, indent=2)


def _read_pairs_tsv(path: Path, u_map: dict, i_map: dict, m: int, n: int,
                    user_labels, item_labels) -> InteractionSet:
    pairs = []
    for lineno, line in _text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        try:
            pairs.append((u_map[fields[0]], i_map[fields[1]]))
        except KeyError as exc:
            raise DataError(f"{path}: line {lineno}: unknown id {exc}") from None
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return InteractionSet(m, n, arr, user_labels, item_labels)


def load_split(split_dir) -> SplitBundle:
    """Load a split bundle persisted by save_split."""
    root = Path(split_dir)
    manifest_path = root / "split-manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{split_dir}: missing split-manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
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
    for key, size in (("user_labels", m), ("item_labels", n)):
        if not isinstance(manifest[key], (list, type(None))):
            raise DataError(f"{manifest_path}: {key} must be a list or null")
        if manifest[key] is not None and len(manifest[key]) != size:
            raise DataError(f"{manifest_path}: {key} must hold {size} labels")
    protocol_tag = manifest.get("protocol_tag", "preprovided")
    if protocol_tag not in PROTOCOL_TAGS:
        raise DataError(f"{manifest_path}: unknown protocol tag {protocol_tag!r}")
    user_labels = manifest["user_labels"] or [str(u) for u in range(m)]
    item_labels = manifest["item_labels"] or [str(i) for i in range(n)]
    u_map = {lab: idx for idx, lab in enumerate(user_labels)}
    i_map = {lab: idx for idx, lab in enumerate(item_labels)}
    sets = {}
    for name in ("train", "validation", "test"):
        sets[name] = _read_pairs_tsv(
            root / f"{name}.tsv", u_map, i_map, m, n,
            manifest["user_labels"], manifest["item_labels"],
        )
    return SplitBundle(
        sets["train"], sets["validation"], sets["test"],
        protocol_tag=protocol_tag,
    )


def save_world(world: SyntheticWorld, path) -> None:
    """Binary world file: magic, version, dims, then the relevance and
    exposure matrices as row-major little-endian float32."""
    with atomic_write(path, "wb") as fh:
        fh.write(WORLD_MAGIC)
        fh.write(struct.pack("<IQQ", WORLD_VERSION, world.m, world.n))
        fh.write(np.ascontiguousarray(world.relevance, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(world.exposure, dtype="<f4").tobytes())


def load_world(path) -> SyntheticWorld:
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = 4 + 4 + 16
    if len(raw) < head_len:
        raise DataError(f"{path}: truncated world header")
    if raw[:4] != WORLD_MAGIC:
        raise DataError(f"{path}: not a synthetic world file (bad magic)")
    version, m, n = struct.unpack("<IQQ", raw[4:head_len])
    if version != WORLD_VERSION:
        raise DataError(f"{path}: unsupported world version {version}")
    want = head_len + 2 * 4 * m * n
    if len(raw) != want:
        raise DataError(f"{path}: truncated or oversized world payload")
    cells = m * n
    rel = np.frombuffer(raw, dtype="<f4", count=cells, offset=head_len)
    exp = np.frombuffer(raw, dtype="<f4", count=cells, offset=head_len + 4 * cells)
    return SyntheticWorld(
        int(m), int(n), rel.reshape(m, n).copy(), exp.reshape(m, n).copy()
    )
