"""Seeded generator for the `log-split-eval` input: a TSV click log with
string ids, drawn from a planted low-rank model with Zipf item popularity.

Candidate pairs draw a user uniformly and an item from the Zipf popularity
pi; a candidate is kept with probability sigmoid(SHARPNESS * (s - THRESHOLD)),
where s is the dot product of d-1 latent factors. The planted factors carry
the latent part plus one column that adds log(pi) / SHARPNESS to each score,
so they rank by an approximation of the click log-odds. The first `pairs`
distinct kept pairs, in draw order, form the log. Tail items may never be
drawn, so the log can name fewer than `n` items.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Zipf exponent of item popularity (weight of rank r is r^-ZIPF).
ZIPF = 1.0
SHARPNESS = 4.0
THRESHOLD = 1.0
#: Candidates scored per draw; bounds the generator's transient memory.
_CHUNK = 32_768


@dataclass
class PlantedLog:
    user_factors: np.ndarray  # (m, d) float32, row = planted user index
    item_factors: np.ndarray  # (n, d) float32, row = planted item index
    pairs: np.ndarray  # (P, 2) int64 planted indices, in file order
    user_ids: list[str]  # planted user index -> string id
    item_ids: list[str]

    def __post_init__(self):
        self._user_row = {label: row for row, label in enumerate(self.user_ids)}
        self._item_row = {label: row for row, label in enumerate(self.item_ids)}

    def user_rows(self, labels: list[str]) -> np.ndarray:
        """Planted row of each string id, in the order given."""
        return np.array([self._user_row[label] for label in labels], dtype=np.int64)

    def item_rows(self, labels: list[str]) -> np.ndarray:
        return np.array([self._item_row[label] for label in labels], dtype=np.int64)


def planted_log(seed: int, m: int, n: int, pairs: int, d: int) -> PlantedLog:
    """Draw a planted model and `pairs` distinct clicks from it."""
    if pairs > m * n // 4:
        raise ValueError("pair count too close to m*n for rejection sampling")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x106]))
    # Latent rows of equal norm, scaled so that s is approximately N(0, 1):
    # no single item is relevant to more users because of its norm.
    latent = d - 1
    users = rng.normal(size=(m, latent))
    users *= latent**0.25 / np.linalg.norm(users, axis=1, keepdims=True)
    items = rng.normal(size=(n, latent))
    items *= latent**0.25 / np.linalg.norm(items, axis=1, keepdims=True)
    popularity = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF
    popularity = popularity[rng.permutation(n)]
    popularity /= popularity.sum()

    kept: list[np.ndarray] = []
    distinct = 0
    while distinct < pairs:
        u = rng.integers(0, m, size=_CHUNK)
        i = rng.choice(n, size=_CHUNK, p=popularity)
        score = np.einsum("bd,bd->b", users[u], items[i])
        accept = rng.random(_CHUNK) < 1.0 / (1.0 + np.exp(-SHARPNESS * (score - THRESHOLD)))
        kept.append(u[accept] * n + i[accept])
        distinct = len(np.unique(np.concatenate(kept)))
    keys = np.concatenate(kept)
    _, first = np.unique(keys, return_index=True)
    keys = keys[np.sort(first)[:pairs]]

    # String ids unrelated to the planted index order.
    user_ids = [f"user-{k:x}" for k in rng.permutation(m) + 0x1000]
    item_ids = [f"item-{k:x}" for k in rng.permutation(n) + 0x1000]
    user_factors = np.hstack([users, np.ones((m, 1))])
    item_factors = np.hstack([items, np.log(popularity)[:, None] / SHARPNESS])
    return PlantedLog(
        user_factors.astype(np.float32),
        item_factors.astype(np.float32),
        np.stack([keys // n, keys % n], axis=1).astype(np.int64),
        user_ids,
        item_ids,
    )


def write_tsv(log: PlantedLog, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# planted low-rank log with Zipf item popularity\n")
        fh.writelines(
            f"{log.user_ids[u]}\t{log.item_ids[i]}\n" for u, i in log.pairs.tolist()
        )
