"""Trainable model state: user/item embedding tables and relation-space
projection matrices, plus L2 normalization helpers and binary checkpoint
persistence.

Parameters are held as float32, matching the on-disk checkpoint format so
that a save/load round trip is bit-exact. Loss and gradient computation
upcasts to float64.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .util import atomic_write, rng_from

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"UCTL"
CHECKPOINT_VERSION = 1

#: Rows with L2 norm below this are treated as dead and normalized to e1.
DEGENERATE_NORM = 1e-12


@dataclass
class EmbeddingTable:
    """Dense per-user and per-item embedding vectors."""

    m: int
    n: int
    d: int
    user_vecs: np.ndarray  # (m, d) float32
    item_vecs: np.ndarray  # (n, d) float32

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("embedding dimension must be >= 1")
        if self.user_vecs.shape != (self.m, self.d):
            raise ConfigError(
                f"user_vecs shape {self.user_vecs.shape} != ({self.m}, {self.d})"
            )
        if self.item_vecs.shape != (self.n, self.d):
            raise ConfigError(
                f"item_vecs shape {self.item_vecs.shape} != ({self.n}, {self.d})"
            )

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.m, self.n, self.d, self.user_vecs.copy(), self.item_vecs.copy()
        )


@dataclass
class ProjectionPair:
    """Square projection matrices mapping user/item embeddings into the
    relation space where propensities are scored."""

    m_user: np.ndarray  # (d, d) float32
    m_item: np.ndarray  # (d, d) float32

    def __post_init__(self):
        mu, mi = self.m_user, self.m_item
        if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
            raise ConfigError(f"m_user must be square, got {mu.shape}")
        if mi.shape != mu.shape:
            raise ConfigError(f"m_item shape {mi.shape} != m_user shape {mu.shape}")

    @property
    def d(self) -> int:
        return self.m_user.shape[0]

    def copy(self) -> "ProjectionPair":
        return ProjectionPair(self.m_user.copy(), self.m_item.copy())


def init_model(
    m: int, n: int, d: int, seed: int, scale: float = 0.01
) -> tuple[EmbeddingTable, ProjectionPair]:
    """Fresh model: embeddings ~ N(0, scale^2), projections = I + N(0, scale^2).

    Near-identity projections make early propensities track the raw
    embedding geometry instead of random noise. scale=0 gives an exactly
    zero/identity model, which some tests rely on.
    """
    if scale < 0:
        raise ConfigError("init scale must be >= 0")
    rng = rng_from(seed, 11)
    user = rng.normal(0.0, 1.0, size=(m, d)) * scale
    item = rng.normal(0.0, 1.0, size=(n, d)) * scale
    eye = np.eye(d)
    m_user = eye + rng.normal(0.0, 1.0, size=(d, d)) * scale
    m_item = eye + rng.normal(0.0, 1.0, size=(d, d)) * scale
    table = EmbeddingTable(
        m, n, d, user.astype(np.float32), item.astype(np.float32)
    )
    proj = ProjectionPair(m_user.astype(np.float32), m_item.astype(np.float32))
    return table, proj


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise normalize; degenerate rows fall back to e1."""
    out, _, _ = normalize_rows_full(x)
    return out


def normalize_rows_full(
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise normalize, returning (unit rows, norms, degenerate mask).

    The norms and mask feed the backward pass in normalize_rows_backward.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    degenerate = norms < DEGENERATE_NORM
    if degenerate.any():
        log.warning(
            "%d degenerate embedding row(s) normalized to e1", int(degenerate.sum())
        )
    safe = np.where(degenerate, 1.0, norms)
    out = x / safe[:, None]
    if degenerate.any():
        out[degenerate] = 0.0
        out[degenerate, 0] = 1.0
    return out, norms, degenerate


def normalize_rows_backward(
    unit: np.ndarray,
    norms: np.ndarray,
    degenerate: np.ndarray,
    grad_unit: np.ndarray,
) -> np.ndarray:
    """Chain rule through y = x/||x||: dx = (dy - (dy.y) y) / ||x||.

    Degenerate rows took the constant e1 branch, so their gradient is zero.
    """
    dots = np.einsum("bd,bd->b", grad_unit, unit)
    safe = np.where(degenerate, 1.0, norms)
    grad = (grad_unit - dots[:, None] * unit) / safe[:, None]
    if degenerate.any():
        grad[degenerate] = 0.0
    return grad


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def save_checkpoint(model: EmbeddingTable, projections: ProjectionPair, path) -> None:
    """Write the binary checkpoint: magic, version, dims, four float32
    matrices, CRC32 of the matrix payload."""
    if projections.d != model.d:
        raise ConfigError("projection dimension does not match embedding dimension")
    payload = (
        _f32_bytes(model.user_vecs)
        + _f32_bytes(model.item_vecs)
        + _f32_bytes(projections.m_user)
        + _f32_bytes(projections.m_item)
    )
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IQQQ", CHECKPOINT_VERSION, model.m, model.n, model.d
    )
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_checkpoint(path) -> tuple[EmbeddingTable, ProjectionPair]:
    """Read a checkpoint written by save_checkpoint; any structural damage
    (bad magic, unknown version, truncation, CRC mismatch) or a non-finite
    value raises DataError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = 4 + 4 + 3 * 8
    if len(raw) < head_len:
        raise DataError(f"{path}: truncated checkpoint header")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version, m, n, d = struct.unpack("<IQQQ", raw[4:head_len])
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if d < 1:
        raise DataError(f"{path}: checkpoint embedding dimension is 0")
    counts = (m * d, n * d, d * d, d * d)
    payload_len = 4 * sum(counts)
    if len(raw) != head_len + payload_len + 4:
        raise DataError(f"{path}: truncated or oversized checkpoint payload")
    payload = raw[head_len : head_len + payload_len]
    (crc,) = struct.unpack("<I", raw[head_len + payload_len :])
    if crc != zlib.crc32(payload):
        raise DataError(f"{path}: checkpoint CRC mismatch")
    mats = []
    offset = 0
    for cnt in counts:
        mats.append(np.frombuffer(payload, dtype="<f4", count=cnt, offset=offset))
        offset += 4 * cnt
    if not all(np.isfinite(mat).all() for mat in mats):
        raise DataError(f"{path}: checkpoint holds non-finite values")
    user = mats[0].reshape(m, d).copy()
    item = mats[1].reshape(n, d).copy()
    m_user = mats[2].reshape(d, d).copy()
    m_item = mats[3].reshape(d, d).copy()
    return EmbeddingTable(int(m), int(n), int(d), user, item), ProjectionPair(
        m_user, m_item
    )
