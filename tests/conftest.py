import hashlib
import struct

import numpy as np

from descentls import linalg


def platform_canary() -> str:
    """Digest of the float64 primitives whose last bits vary with the CPU's
    SIMD level and the BLAS kernel: log, cos, sin and a matrix-vector product.

    Tests that pin platform-dependent bits key their tables by it: x86-64
    with or without AVX-512 loops in numpy, and OpenBLAS Haswell-or-later or
    Sandy Bridge kernels."""
    u = np.random.Generator(np.random.PCG64(0)).random(4096)
    x = np.zeros(64)
    x[::9] = 1.0
    x[::13] = -1.0
    digest = hashlib.sha256()
    for v in (np.log(u), np.cos(2.0 * np.pi * u), np.sin(2.0 * np.pi * u), u.reshape(64, 64) @ x):
        digest.update(v.tobytes())
    return digest.hexdigest()[:16]


def write_v1_twin(twin):
    """Rewrite a matrix twin in the format before it carried ||A||^2: tag
    `DLSF64v1`, rows, cols, sha256 of the CSV, sha256 of the payload alone."""
    data = twin.read_bytes()
    header = linalg._TWIN_HEADER
    _, rows, cols, _, csv_sha, _ = header.unpack(data[:header.size])
    payload = data[header.size:]
    v1_header = struct.pack("<8sQQ32s32s", b"DLSF64v1", rows, cols, csv_sha, hashlib.sha256(payload).digest())
    twin.write_bytes(v1_header + payload)


def base_step(step, x):
    """The base step y = prox(x - grad f(x)/h) from x alone."""
    return step.apply_grad(x, step.prob.grad(x))


def residual_at(obj, x):
    """dist(0, dPhi(x)) from x alone."""
    return obj.residual_from_grad(obj.grad(x), obj.support_mask(x))
