"""Propensity estimation: how likely was each clicked pair to be observed.

Three interchangeable sources produce raw per-pair observation
probabilities omega:

* learned    - sigmoid of the dot product of L2-normalized relation-space
               projections of the user and item vectors. Because the dot of
               unit vectors lies in [-1, 1], the estimate is confined to
               [sigmoid(-1), sigmoid(1)] ~ [0.2689, 0.7311]; with the
               floor mu = 0.1 (TrainConfig's default) the clip never binds
               for this source.
* oracle     - ground-truth exposure of a SyntheticWorld, read through
               data.exposure_cells (testing and diagnostics only).
* item popularity - (item count / max count)^0.5, a popularity baseline
               that depends on the item alone.

inverse_weights turns raw omega of any source into the alignment weights:
cap strictly below 1, floor at mu, invert.
"""

from __future__ import annotations

import numpy as np

from .data import InteractionSet, SyntheticWorld, exposure_cells
from .errors import ConfigError, DataError
from .util import sigmoid

#: Propensities are kept strictly below 1 so inverse weights stay above 1.
UPPER_CAP = 1.0 - 1e-6


def clip(w, mu: float):
    """Floor a propensity at mu: max(w, mu). Idempotent and monotone."""
    if not 0 < mu < 1:
        raise ConfigError("clip floor mu must lie in (0, 1)")
    return np.maximum(w, mu)


def project_rows(base_norm: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Relation-space projection of normalized base rows: x @ M^T.

    The base rows are treated as constants; only the projection matrix is
    trainable through this map.
    """
    base_norm = np.asarray(base_norm, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if base_norm.shape[1] != matrix.shape[1]:
        raise ConfigError(
            f"dimension mismatch: rows have d={base_norm.shape[1]}, "
            f"matrix is {matrix.shape}"
        )
    return base_norm @ matrix.T


def estimate_learned(proj_u_norm: np.ndarray, proj_i_norm: np.ndarray) -> np.ndarray:
    """sigmoid of the rowwise dot of (B, d) rows of L2-normalized projected
    vectors."""
    return sigmoid(np.einsum("bd,bd->b", proj_u_norm, proj_i_norm))


def estimate_oracle(world: SyntheticWorld, pairs: np.ndarray) -> np.ndarray:
    """Ground-truth exposure of each pair."""
    return exposure_cells(world, pairs).astype(np.float64)


def item_popularity_table(train: InteractionSet) -> np.ndarray:
    """Per-item propensity table: (count / max count)^0.5."""
    if len(train) == 0:
        raise DataError("popularity propensities need a non-empty training set")
    counts = train.item_counts().astype(np.float64)
    return (counts / counts.max()) ** 0.5


def inverse_weights(omega_raw: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Turn raw propensities into (omega, weights): omega is capped at
    UPPER_CAP and floored at mu, and weights = 1 / omega."""
    omega = clip(np.minimum(omega_raw, UPPER_CAP), mu)
    return omega, 1.0 / omega
