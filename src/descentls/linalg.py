"""Dense linear-algebra kernels shared by the solvers.

Vectors and matrices are plain float64 numpy arrays; the helpers here
validate shapes/finiteness and provide the handful of operations the
solvers need, including the exact ||A||^2 that sets step sizes.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import warnings
from typing import Optional

import numpy as np

# Multiplicative margin on ||A||^2 so that step-size conditions of the
# form h > ||A||^2 survive eigensolver rounding.
SPECTRAL_SAFETY = 1.001


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


def as_vector(values) -> np.ndarray:
    """Validate and return a finite 1-D float64 array of length >= 1."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(values) -> np.ndarray:
    """Validate and return a finite 2-D float64 array with rows, cols >= 1."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def norm(v: np.ndarray) -> float:
    """Return the Euclidean norm of a 1-D real vector, 0.0 when it is empty.

    Bit for bit what `np.linalg.norm(v)` computes for such a vector,
    sqrt(v . v) by one BLAS dot, with less dispatch around it.  Like it,
    the sum of squares overflows to inf or underflows to 0.0 unscaled.
    Exact for contiguous `v`, as every vector the solvers build is.
    """
    return math.sqrt(v.dot(v))


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Return A @ x, checking the inner dimension.

    `a.dot(x)` calls the same BLAS gemv as `a @ x` and gives the same bits
    for C- or F-contiguous `a`, with less dispatch around the call.  A
    strided view of `a` may round differently under the two forms; no
    solver builds one.
    """
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"matvec: matrix has {a.shape[1]} columns, vector has length {x.shape[0]}")
    return a.dot(x)


def transpose_matvec(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Return A.T @ r, checking the inner dimension; `dot` as in `matvec`."""
    if a.shape[0] != r.shape[0]:
        raise DimensionMismatch(f"transpose_matvec: matrix has {a.shape[0]} rows, vector has length {r.shape[0]}")
    return a.T.dot(r)


def spectral_norm_sq(a: np.ndarray) -> float:
    """Return ||A||_2^2 = lambda_max(A.T A), inflated by SPECTRAL_SAFETY.

    Exact: the largest eigenvalue of the smaller Gram matrix, A A.T when
    m <= n and A.T A otherwise, which share their nonzero eigenvalues.
    The safety factor absorbs eigensolver rounding, so the strict step-size
    condition h > ||A||^2 holds against the true value.  Costs O(k^3) time
    and k^2 memory for k = min(m, n).  A zero matrix yields 0.0, and a
    matrix whose Gram matrix or estimate overflows raises ValueError.
    """
    a = as_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    if np.isfinite(gram).all():
        value = SPECTRAL_SAFETY * float(np.linalg.eigvalsh(gram)[-1])
        if math.isfinite(value):
            return value
    raise ValueError("||A||^2 overflows float64")


_FMT = "%.17g"
# Values formatted per write: a block holds whole rows, at least one.
_BLOCK_VALUES = 1024
# Bytes read per call when hashing a CSV, which is never held whole.
_HASH_CHUNK = 1 << 20

# The binary twin of a matrix CSV: tag, rows, cols, sha256 of the CSV
# bytes, sha256 of the payload, then the payload, little-endian float64
# in C order.
_TWIN_TAG = b"DLSF64v1"
_TWIN_HEADER = struct.Struct("<8sQQ32s32s")
_TWIN_DTYPE = np.dtype("<f8")


def aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """Return an uninitialized C-order float64 array on a 64-byte boundary.

    numpy guarantees only 16 bytes: on a 2-core Xeon, a 256x512 plain
    solve took about 25% longer with A at byte offset 16 or 48 mod 64 than
    at 0, so without this the solve time of an instance would depend on
    the heap history of the process.
    """
    nbytes = 8 * shape[0] * shape[1]
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(np.float64).reshape(shape)


def twin_path(path) -> str:
    """Return the path of the binary twin that `save_matrix` writes next to `path`."""
    return os.fspath(path) + ".f64"


def _write_csv(rows: np.ndarray, path, delimiter: str) -> bytes:
    """Write a 2-D array as `np.savetxt(path, rows, fmt=_FMT, delimiter=delimiter)`
    does, byte for byte; return the sha256 of the bytes written.

    Rows are formatted a block at a time from Python floats, which format
    as the numpy scalars `savetxt` formats, with less dispatch per value.
    """
    n_rows, n_cols = rows.shape
    line = delimiter.join([_FMT] * n_cols) + "\n"
    per_block = max(1, _BLOCK_VALUES // n_cols)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for i in range(0, n_rows, per_block):
            block = rows[i:i + per_block]
            text = ((line * len(block)) % tuple(block.ravel().tolist())).encode("ascii")
            digest.update(text)
            fh.write(text)
    return digest.digest()


def _file_sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.digest()


def _load_twin(path) -> Optional[np.ndarray]:
    """Return the matrix in the twin of the CSV at `path`, or None unless
    the twin has the right tag, a positive shape its size matches, the
    sha256 of the CSV as it is now, and the sha256 of its own payload.

    The payload is allocated only after the size check.
    """
    try:
        with open(twin_path(path), "rb", buffering=0) as fh:
            header = fh.read(_TWIN_HEADER.size)
            if len(header) != _TWIN_HEADER.size:
                return None
            tag, rows, cols, csv_sha, payload_sha = _TWIN_HEADER.unpack(header)
            nbytes = 8 * rows * cols
            if (tag != _TWIN_TAG or rows < 1 or cols < 1
                    or os.fstat(fh.fileno()).st_size != _TWIN_HEADER.size + nbytes
                    or _file_sha256(path) != csv_sha):
                return None
            a = aligned_empty((rows, cols))
            view = memoryview(a).cast("B")
            got = 0
            while got < nbytes and (n := fh.readinto(view[got:])):
                got += n
    except OSError:
        return None
    if hashlib.sha256(view).digest() != payload_sha:
        return None
    return a.view(_TWIN_DTYPE)


def _loadtxt(path, ndmin: int) -> np.ndarray:
    """`np.loadtxt(path, delimiter=",", ndmin=ndmin)`, refusing a file with no data."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(path, delimiter=",", ndmin=ndmin)
    if values.size == 0:
        raise ValueError(f"{os.fspath(path)} holds no data")
    return values


def save_vector(x: np.ndarray, path) -> None:
    """Write a vector as single-column CSV, 17 significant digits."""
    _write_csv(as_vector(x).reshape(-1, 1), path, "")


def save_matrix(a: np.ndarray, path) -> None:
    """Write a matrix as comma-separated CSV, one row per line, and its binary twin.

    The CSV holds the bytes of `np.savetxt(path, a, fmt="%.17g",
    delimiter=",")`.  The twin, at `twin_path(path)`, lets `load_matrix`
    skip parsing the CSV while the CSV stays as written here.
    """
    a = as_matrix(a)
    csv_sha = _write_csv(a, path, ",")
    payload = np.ascontiguousarray(a, dtype=_TWIN_DTYPE)
    header = _TWIN_HEADER.pack(_TWIN_TAG, a.shape[0], a.shape[1], csv_sha, hashlib.sha256(payload).digest())
    with open(twin_path(path), "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_vector(path) -> np.ndarray:
    """Read a single-column CSV vector (no header)."""
    return as_vector(_loadtxt(path, ndmin=1))


def load_matrix(path) -> np.ndarray:
    """Read a comma-separated CSV matrix (no header).

    Returns the bits of `np.loadtxt(path, delimiter=",", ndmin=2)`.  When
    the binary twin that `save_matrix` wrote is still valid for the CSV
    (see `_load_twin`), the matrix comes from it, 64-byte aligned, without
    parsing the CSV; otherwise the CSV is parsed.
    """
    a = _load_twin(path)
    return as_matrix(_loadtxt(path, ndmin=2) if a is None else a)
