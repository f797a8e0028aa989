"""Minimal dense-tensor kernel: f64 arrays, products, norms, binary I/O.

Values are carried as C-contiguous float64 numpy arrays throughout the
package; this module adds the checked operations the rest of the code
builds on, plus the MDTN on-disk format (magic, version, extents, payload).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DegenerateReferenceError, ShapeError

# numpy float64 ndarray, C order; public alias used in signatures
Tensor = np.ndarray

MDTN_MAGIC = b"MDTN"
MDTN_VERSION = 1


def as_tensor(x) -> Tensor:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands with an explicit inner-dim check."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} vs {b.shape}")
    return a @ b


def relative_l2(x: Tensor, y: Tensor) -> float:
    """||x - y||_2 / ||y||_2 with y as the reference.

    When ||y||^2 overflows, both norms are taken of the tensors divided by
    max|y|; numpy still warns of that overflow unless the caller silences it.
    """
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    denom = float(np.linalg.norm(y))
    if denom == 0.0:
        raise DegenerateReferenceError("reference tensor has zero norm")
    if denom == math.inf:
        s = float(np.abs(y).max())
        return float(np.linalg.norm((x - y) / s)) / float(np.linalg.norm(y / s))
    return float(np.linalg.norm(x - y)) / denom


def sq_norm(x: Tensor) -> float:
    """||x||_2^2 as one dot product over a flat view, with no squared
    temporary; its square root is np.linalg.norm(x) bit for bit."""
    v = x.ravel(order="K")
    return float(np.dot(v, v))


def value_range(x: Tensor) -> float:
    """max(x) - min(x) over all elements."""
    if x.size == 0:
        raise ShapeError("range of an empty tensor")
    return float(x.max() - x.min())


def operator_norm(w: Tensor) -> float:
    """Largest singular value of a 2-D matrix (LAPACK SVD)."""
    if w.ndim != 2:
        raise ShapeError(f"operator_norm needs a 2-D matrix, got {w.shape}")
    return float(np.linalg.norm(w, 2))


# --- MDTN serialization -------------------------------------------------
# layout: 4-byte magic, u32 version, u32 rank, u32 extents[rank], then the
# row-major float64 payload; every field little-endian


def tensor_to_bytes(x: Tensor) -> bytes:
    x = as_tensor(x)
    if any(e >= 2**32 for e in x.shape):
        raise ValueError(f"extent too large for u32 header: {x.shape}")
    header = struct.pack("<4sII", MDTN_MAGIC, MDTN_VERSION, x.ndim)
    header += struct.pack(f"<{x.ndim}I", *x.shape)
    return header + x.astype("<f8").tobytes(order="C")


def tensor_from_bytes(buf: bytes) -> Tensor:
    if len(buf) < 12:
        raise ValueError("truncated MDTN header")
    magic, version, rank = struct.unpack_from("<4sII", buf, 0)
    if magic != MDTN_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MDTN_MAGIC!r}")
    if version != MDTN_VERSION:
        raise ValueError(f"unsupported MDTN version {version}")
    if len(buf) < 12 + 4 * rank:
        raise ValueError("truncated MDTN extents")
    shape = struct.unpack_from(f"<{rank}I", buf, 12)
    count = 1
    for e in shape:
        count *= e
    expected = 12 + 4 * rank + 8 * count
    if len(buf) != expected:
        raise ValueError(f"payload size mismatch: {len(buf)} bytes, expected {expected}")
    data = np.frombuffer(buf, dtype="<f8", offset=12 + 4 * rank, count=count)
    return data.astype(np.float64).reshape(shape)


def save_tensor(path, x: Tensor) -> None:
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(x))


def load_tensor(path) -> Tensor:
    with open(path, "rb") as f:
        return tensor_from_bytes(f.read())
