"""Dense linear-algebra kernels shared by the solvers.

Vectors and matrices are plain float64 numpy arrays; the helpers here
validate shapes, finiteness and integer counts, and provide the handful
of operations the solvers need, including the exact ||A||^2 that sets
step sizes, and the CSV files of matrices and vectors.  `save_matrix`
writes next to a matrix CSV a binary twin that carries the matrix and its
||A||^2, so that `load_matrix` skips both the parse and the eigensolve
while the CSV is unchanged.  The twin's two digests are hash lists: the
sha256 of a short prefix followed by the sha256 of each 1 MiB leaf of the
file they cover.  So `load_matrix` checks large files on every usable CPU,
and the digests do not depend on how many it had.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
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
# The twin's digests hash the sha256 of each leaf of this many bytes, the
# last leaf shorter; the size is part of the format.
LEAF_BYTES = 1 << 20
# Fewest leaves, CSV and payload together, that `load_matrix` hashes on a
# thread pool rather than on the calling thread; README "Costs" derives it.
THREADED_MIN_LEAVES = 8

# The binary twin of a matrix CSV: tag, rows, cols, spectral_norm_sq of
# the payload (NaN when it overflows), the CSV digest, the payload digest,
# then the payload, little-endian float64 in C order.  The CSV digest is
# sha256(uint64 byte count, leaf digests), the payload digest sha256(the
# norm's 8 bytes, leaf digests); see `_hash_list`.
_TWIN_TAG = b"DLSF64v3"
_TWIN_HEADER = struct.Struct("<8sQQ8s32s32s")
_TWIN_DTYPE = np.dtype("<f8")
_NORM = struct.Struct("<d")
_COUNT = struct.Struct("<Q")


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


def _hash_list(prefix: bytes, leaves: list[bytes]) -> bytes:
    """Return sha256(prefix followed by the leaf digests), a twin digest."""
    return hashlib.sha256(prefix + b"".join(leaves)).digest()


def _write_csv(rows: np.ndarray, path, delimiter: str) -> bytes:
    """Write a 2-D array as `np.savetxt(path, rows, fmt=_FMT, delimiter=delimiter)`
    does, byte for byte; return the CSV digest of the bytes written.

    Rows are formatted a block at a time from Python floats, which format
    as the numpy scalars `savetxt` formats, with less dispatch per value.
    Each block is hashed into its leaves as it is written.
    """
    n_rows, n_cols = rows.shape
    line = delimiter.join([_FMT] * n_cols) + "\n"
    per_block = max(1, _BLOCK_VALUES // n_cols)
    leaves, leaf, filled, size = [], hashlib.sha256(), 0, 0
    with open(path, "wb") as fh:
        for i in range(0, n_rows, per_block):
            block = rows[i:i + per_block]
            text = ((line * len(block)) % tuple(block.ravel().tolist())).encode("ascii")
            fh.write(text)
            size += len(text)
            rest = memoryview(text)
            while rest:
                part = rest[:LEAF_BYTES - filled]
                leaf.update(part)
                filled += len(part)
                rest = rest[len(part):]
                if filled == LEAF_BYTES:
                    leaves.append(leaf.digest())
                    leaf, filled = hashlib.sha256(), 0
    if filled:
        leaves.append(leaf.digest())
    return _hash_list(_COUNT.pack(size), leaves)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_leaves(path, offset: int, size: int, into: Optional[memoryview], leaves: range,
                 buf: memoryview) -> list[bytes]:
    """Return the sha256 of each of `leaves`, numbered in the `size` bytes
    at `offset` of the file at `path`.

    Each leaf is read into its place in `into`, or into `buf` when `into`
    is None.  A leaf that the file ends inside is hashed as far as it was
    read.
    """
    digests = []
    with open(path, "rb", buffering=0) as fh:
        fh.seek(offset + leaves.start * LEAF_BYTES)
        for start in range(leaves.start * LEAF_BYTES, leaves.stop * LEAF_BYTES, LEAF_BYTES):
            n = min(LEAF_BYTES, size - start)
            leaf = buf[:n] if into is None else into[start:start + n]
            got = 0
            while got < n and (read := fh.readinto(leaf[got:])):
                got += read
            digests.append(hashlib.sha256(leaf[:got]).digest())
    return digests


def _read_run(parts: list[tuple], run: list[tuple[int, range]], buf: memoryview) -> list[tuple[int, list[bytes]]]:
    return [(i, _read_leaves(*parts[i], leaves, buf)) for i, leaves in run]


def _hash_files(parts: list[tuple]) -> list[list[bytes]]:
    """Return the leaf digests of each `(path, offset, size, into)` part,
    read as `_read_leaves` reads them.

    The leaves, numbered across the parts in order, are read in contiguous
    runs: one on the calling thread when there are fewer than
    THREADED_MIN_LEAVES or one CPU is usable, else one per usable CPU (and
    no more than leaves) on a thread pool that is joined before this
    returns.  Each run reads the parts without `into` through a buffer of
    its own, of one leaf or the largest such part if smaller, allocated on
    the calling thread so that it returns to that thread's heap.
    """
    counts = [-(-part[2] // LEAF_BYTES) for part in parts]
    total = sum(counts)
    threads = 1 if total < THREADED_MIN_LEAVES else min(_usable_cpus(), total)
    runs, buffers = [], []
    for k in range(threads):
        lo, hi = total * k // threads, total * (k + 1) // threads
        run, first = [], 0
        for i, count in enumerate(counts):
            if leaves := range(max(lo - first, 0), min(hi - first, count)):
                run.append((i, leaves))
            first += count
        runs.append(run)
        buffered = [parts[i][2] for i, _ in run if parts[i][3] is None]
        buffers.append(memoryview(np.empty(min(LEAF_BYTES, max(buffered, default=0)), dtype=np.uint8)))
    if threads == 1:
        done = [_read_run(parts, runs[0], buffers[0])]
    else:
        with ThreadPoolExecutor(threads) as pool:
            done = list(pool.map(_read_run, [parts] * threads, runs, buffers))
    digests = [[] for _ in parts]
    for run in done:
        for i, leaves in run:
            digests[i] += leaves
    return digests


def _load_twin(path) -> Optional[tuple[np.ndarray, Optional[float]]]:
    """Return the matrix in the twin of the CSV at `path` and its carried
    norm (None for NaN), or None unless the twin has the right tag, a
    positive shape its size matches, the digest of the CSV as it is now,
    and the digest of its norm and payload.

    The payload is allocated only after the size check, and read straight
    into the matrix while the CSV is hashed (see `_hash_files`).
    """
    twin = twin_path(path)
    try:
        with open(twin, "rb", buffering=0) as fh:
            header = fh.read(_TWIN_HEADER.size)
            twin_size = os.fstat(fh.fileno()).st_size
        if len(header) != _TWIN_HEADER.size:
            return None
        tag, rows, cols, norm_bytes, csv_digest, payload_digest = _TWIN_HEADER.unpack(header)
        nbytes = 8 * rows * cols
        if tag != _TWIN_TAG or rows < 1 or cols < 1 or twin_size != _TWIN_HEADER.size + nbytes:
            return None
        csv_size = os.stat(path).st_size
        a = aligned_empty((rows, cols))
        csv_leaves, payload_leaves = _hash_files([(path, 0, csv_size, None),
                                                  (twin, _TWIN_HEADER.size, nbytes, memoryview(a).cast("B"))])
    except OSError:
        return None
    if (_hash_list(_COUNT.pack(csv_size), csv_leaves) != csv_digest
            or _hash_list(norm_bytes, payload_leaves) != payload_digest):
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
    with NaN in its place, meaning "not carried".  Both digests are hashed
    on the calling thread, the CSV's as its blocks are written.
    """
    a = as_matrix(a)
    csv_digest = _write_csv(a, path, ",")
    payload = np.ascontiguousarray(a, dtype=_TWIN_DTYPE)
    try:
        norm_sq = spectral_norm_sq(payload)
    except ValueError:
        norm_sq = math.nan
    norm_bytes = _NORM.pack(norm_sq)
    view = memoryview(payload).cast("B")
    payload_leaves = [hashlib.sha256(view[i:i + LEAF_BYTES]).digest() for i in range(0, len(view), LEAF_BYTES)]
    header = _TWIN_HEADER.pack(_TWIN_TAG, a.shape[0], a.shape[1], norm_bytes, csv_digest,
                               _hash_list(norm_bytes, payload_leaves))
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
    threading it was saved with.  Checking the twin reads and hashes both
    files in 1 MiB leaves; from THREADED_MIN_LEAVES leaves on, it does so
    on one thread per usable CPU, which are joined before this returns.
    Otherwise the CSV is parsed, the matrix copied to a 64-byte boundary
    (see `aligned_empty`: on a 2-core Xeon, a parsed 256x512 `run` took
    11% less time for a 0.1 ms copy), and the norm is None, as it is for a
    twin that carries NaN.
    """
    twin = _load_twin(path)
    if twin is not None:
        a, norm_sq = twin
        return as_matrix(a), norm_sq
    parsed = as_matrix(_loadtxt(path, ndmin=2))
    a = aligned_empty(parsed.shape)
    a[...] = parsed
    return a, None
