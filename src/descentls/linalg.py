"""Dense linear-algebra kernels shared by the solvers.

Vectors and matrices are plain float64 numpy arrays; the helpers here
validate shapes, finiteness and integer counts, and provide the handful
of operations the solvers need, including the exact ||A||^2 that sets
step sizes, and the CSV files of matrices and vectors.  `save_matrix`
writes next to a matrix CSV a binary twin that carries the matrix and its
||A||^2, so that `load_matrix` skips both the parse and the eigensolve
while the CSV is unchanged.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import struct
import warnings
from typing import Optional

import numpy as np

# Multiplicative margin on ||A||^2 so that step-size conditions of the
# form h > ||A||^2 survive rounding; `spectral_norm_sq` derives it.
SPECTRAL_SAFETY = 1.001


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


def require_integer(name: str, value) -> None:
    """Reject a count that `range` cannot take: a float, or a bool posing as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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

    Exact: the largest eigenvalue of the smaller Gram matrix G, A A.T when
    m <= n and A.T A otherwise, which share their nonzero eigenvalues.
    The safety factor absorbs rounding, so the strict step-size condition
    h > ||A||^2 holds against the true value.  Costs O(k^3) time and k^2
    memory for k = min(m, n).  A zero matrix yields 0.0, and a
    matrix whose Gram matrix or estimate overflows raises ValueError.

    1.001 covers rounding: with u = 2^-53 and l = max(m, n), forming G
    errs by at most about l*k*u relative to ||A||^2 (|dG| <= l*u |A||A|^T,
    and || |A| ||^2 <= ||A||_F^2 <= k ||A||^2), and the symmetric
    eigensolver by order k*u (Golub & Van Loan, Matrix Computations,
    ch. 8): about 2e-10 and 1e-13 at 1024x2048.  Their sum reaches 1e-3
    only when A has some 9e12 entries (72 TB), so a runtime check could
    not fail.
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

# The binary twin of a matrix CSV: tag, rows, cols, spectral_norm_sq of
# the payload (NaN when it overflows), sha256 of the CSV bytes, sha256 of
# the norm's 8 bytes followed by the payload, then the payload,
# little-endian float64 in C order.
_TWIN_TAG = b"DLSF64v2"
_TWIN_HEADER = struct.Struct("<8sQQ8s32s32s")
_TWIN_DTYPE = np.dtype("<f8")
_NORM = struct.Struct("<d")


def aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """Return an uninitialized C-order float64 array on a 64-byte boundary.

    numpy guarantees only 16 bytes: on a 2-core Xeon, a 256x512 plain
    solve took about 25% longer with A at byte offset 16 or 48 mod 64 than
    at 0, so without this the solve time of an instance would depend on
    the heap history of the process.
    """
    nbytes = 8 * math.prod(shape)
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


def _load_twin(path) -> Optional[tuple[np.ndarray, Optional[float]]]:
    """Return the matrix in the twin of the CSV at `path` and its carried
    norm (None for NaN), or None unless the twin has the right tag, a
    positive shape its size matches, the sha256 of the CSV as it is now,
    and the sha256 of its norm and payload.

    The payload is allocated only after the size check.
    """
    try:
        with open(twin_path(path), "rb", buffering=0) as fh:
            header = fh.read(_TWIN_HEADER.size)
            if len(header) != _TWIN_HEADER.size:
                return None
            tag, rows, cols, norm_bytes, csv_sha, payload_sha = _TWIN_HEADER.unpack(header)
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
    digest = hashlib.sha256(norm_bytes)
    digest.update(view)
    if digest.digest() != payload_sha:
        return None
    (norm_sq,) = _NORM.unpack(norm_bytes)
    return a.view(_TWIN_DTYPE), None if math.isnan(norm_sq) else norm_sq


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
    skip parsing the CSV, and carries `spectral_norm_sq` of the matrix,
    computed here once, so that a reader skips the eigensolve too, while
    the CSV stays as written here.  A matrix whose norm overflows is saved
    with NaN in its place, meaning "not carried".
    """
    a = as_matrix(a)
    csv_sha = _write_csv(a, path, ",")
    payload = np.ascontiguousarray(a, dtype=_TWIN_DTYPE)
    try:
        norm_sq = spectral_norm_sq(payload)
    except ValueError:
        norm_sq = math.nan
    norm_bytes = _NORM.pack(norm_sq)
    digest = hashlib.sha256(norm_bytes)
    digest.update(payload)
    header = _TWIN_HEADER.pack(_TWIN_TAG, a.shape[0], a.shape[1], norm_bytes, csv_sha, digest.digest())
    with open(twin_path(path), "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_vector(path) -> np.ndarray:
    """Read a single-column CSV vector (no header)."""
    return as_vector(_loadtxt(path, ndmin=1))


def load_matrix(path) -> tuple[np.ndarray, Optional[float]]:
    """Read a comma-separated CSV matrix (no header); return it and its
    `spectral_norm_sq`, or None in place of the norm when it is not carried.

    The matrix has the bits of `np.loadtxt(path, delimiter=",", ndmin=2)`.
    When the binary twin that `save_matrix` wrote is still valid for the
    CSV (see `_load_twin`), the matrix comes from it, 64-byte aligned,
    without parsing the CSV, and the norm is the one the twin carries: the
    float `spectral_norm_sq` returns for these bits under the BLAS
    threading it was saved with.  Otherwise the CSV is parsed, the matrix
    copied to a 64-byte boundary (see `aligned_empty`: on a 2-core Xeon, a
    parsed 256x512 `run` took 11% less time for a 0.1 ms copy), and the
    norm is None, as it is for a twin that carries NaN.
    """
    twin = _load_twin(path)
    if twin is not None:
        a, norm_sq = twin
        return as_matrix(a), norm_sq
    parsed = as_matrix(_loadtxt(path, ndmin=2))
    a = aligned_empty(parsed.shape)
    a[...] = parsed
    return a, None
