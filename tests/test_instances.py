import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import platform_canary

from descentls.instances import InstanceSpec, SeededStream, generate_instance


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(rows=0, cols=4, sparsity=1)
    with pytest.raises(ValueError):
        InstanceSpec(rows=4, cols=4, sparsity=5)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative and finite"):
            InstanceSpec(rows=4, cols=4, sparsity=1, noise_sigma=sigma)
    # Counts and the seed must be integers, or numpy fails later with a TypeError.
    for field in ("rows", "cols", "sparsity", "seed"):
        for bad in (4.0, True, "4"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
                InstanceSpec(**{"rows": 4, "cols": 8, "sparsity": 2, "seed": 0, field: bad})
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        InstanceSpec(rows=4, cols=8, sparsity=2, seed=-1)
    assert InstanceSpec(np.int64(4), np.int32(8), np.int64(2), seed=np.uint64(3)).rows == 4


def test_matrix_is_64_byte_aligned():
    # A solve's speed must not depend on where the heap happened to put A.
    for rows, cols in ((1, 1), (3, 5), (32, 64)):
        a, _, _ = generate_instance(InstanceSpec(rows, cols, 1, 0.0, seed=rows))
        assert a.ctypes.data % 64 == 0
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable


def test_same_seed_bit_identical():
    spec = InstanceSpec(rows=8, cols=16, sparsity=3, noise_sigma=0.05, seed=99)
    a1, b1, x1 = generate_instance(spec)
    a2, b2, x2 = generate_instance(spec)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2) and np.array_equal(x1, x2)


def test_different_seeds_differ():
    a1, _, _ = generate_instance(InstanceSpec(8, 16, 3, 0.0, seed=1))
    a2, _, _ = generate_instance(InstanceSpec(8, 16, 3, 0.0, seed=2))
    assert not np.array_equal(a1, a2)


def test_noiseless_consistency():
    a, b, x_star = generate_instance(InstanceSpec(8, 16, 3, 0.0, seed=7))
    assert np.linalg.norm(b - a @ x_star) == 0.0


def test_sparsity_count():
    _, _, x_star = generate_instance(InstanceSpec(32, 64, 4, 0.01, seed=42))
    assert np.count_nonzero(x_star) == 4
    assert set(np.abs(x_star[x_star != 0])) == {1.0}


def test_matrix_scaling():
    spec = InstanceSpec(rows=400, cols=50, sparsity=1, seed=3)
    a, _, _ = generate_instance(spec)
    # entries ~ N(0, 1/rows): column norms concentrate near 1
    norms = np.linalg.norm(a, axis=0)
    assert abs(np.mean(norms) - 1.0) < 0.1


def test_stream_normal_moments():
    z = SeededStream(0).normal(200_000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.std(z) - 1.0) < 0.01


def test_stream_indices_distinct_and_in_range():
    for seed in range(10):
        idx = SeededStream(seed).indices(20, 7)
        assert len(set(idx.tolist())) == 7
        assert idx.min() >= 0 and idx.max() < 20
    with pytest.raises(ValueError):
        SeededStream(0).indices(3, 4)


def _reference_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller on fresh arrays: the draws and ufuncs of `SeededStream.normal`,
    with some multiplies commuted."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def test_in_place_generation_matches_out_of_place_reference():
    # Bitwise (tobytes) on whatever log, sin and cos this platform has.
    stream, rng = SeededStream(5), np.random.Generator(np.random.PCG64(5))
    for n in (1, 2, 3, 15, 16, 17, 2047, 2048, 100_001):
        got = stream.normal(n)
        assert got.tobytes() == _reference_normal(rng, n).tobytes(), n
        assert got.ctypes.data % 64 == 0
    for rows, cols in ((1, 1), (7, 3), (31, 63), (32, 64)):
        a, _, _ = generate_instance(InstanceSpec(rows, cols, 1, 0.1, seed=rows))
        want = _reference_normal(np.random.Generator(np.random.PCG64(rows)), rows * cols)
        assert a.tobytes() == (want.reshape(rows, cols) / np.sqrt(rows)).tobytes()


# First 16 hex digits of the sha256 of A, b and x_star, as the out-of-place
# generator of commit d8bd532 made them, for (rows, cols, sparsity,
# noise_sigma, seed): the CLI default, an odd rows*cols, a tall one, 1x1 and
# 256x512.  One table per platform canary: x86-64 with or without AVX-512
# loops in numpy, and OpenBLAS Haswell-or-later or Sandy Bridge kernels.
_PINNED_SPECS = [(32, 64, 4, 0.01, 42), (31, 63, 4, 0.0, 5), (96, 24, 3, 0.05, 11),
                 (1, 1, 1, 0.5, 3), (256, 512, 32, 0.0, 1)]
_PINNED_DIGESTS = {
    "fe0b36fa9bca11b7": [("abcbdaf472d92fa7", "1ddb749c3fe1efe5", "8c224a050bbddf3b"),
                         ("ccadc5f8153d69fc", "c92ba37459ee37c4", "f520642a2a345b59"),
                         ("837557ae5fbd4430", "0b81d437f19caa49", "07ef23d1fbf1fcc3"),
                         ("7a799758fed1b961", "1b9893b9f2eda34a", "6c3c396ed6b5c36d"),
                         ("fb86f5251f37094d", "2204e14ed1acf937", "262c9487aac2150d")],
    "c7cf059c8dfd6f58": [("abcbdaf472d92fa7", "e062e7b8c88dbf88", "8c224a050bbddf3b"),
                         ("ccadc5f8153d69fc", "131abe0b15c6378e", "f520642a2a345b59"),
                         ("837557ae5fbd4430", "ee1c270d3e446fdd", "07ef23d1fbf1fcc3"),
                         ("7a799758fed1b961", "1b9893b9f2eda34a", "6c3c396ed6b5c36d"),
                         ("fb86f5251f37094d", "6eedc4639d36b77e", "262c9487aac2150d")],
    "118913114145f1ad": [("9d300f7cc37aabfd", "1ddb749c3fe1efe5", "8c224a050bbddf3b"),
                         ("c7e77a3dede50708", "c92ba37459ee37c4", "f520642a2a345b59"),
                         ("2411a2ca6c24c2d8", "0b81d437f19caa49", "07ef23d1fbf1fcc3"),
                         ("7a799758fed1b961", "1b9893b9f2eda34a", "6c3c396ed6b5c36d"),
                         ("565bd41a8500e069", "1ee27372fea16eff", "262c9487aac2150d")],
    "4fcebfea4bb1219d": [("9d300f7cc37aabfd", "e062e7b8c88dbf88", "8c224a050bbddf3b"),
                         ("c7e77a3dede50708", "131abe0b15c6378e", "f520642a2a345b59"),
                         ("2411a2ca6c24c2d8", "7d101972400da9b7", "07ef23d1fbf1fcc3"),
                         ("7a799758fed1b961", "1b9893b9f2eda34a", "6c3c396ed6b5c36d"),
                         ("565bd41a8500e069", "6eedc4639d36b77e", "262c9487aac2150d")],
}


def test_instance_bits_are_pinned_across_commits():
    canary = platform_canary()
    if canary not in _PINNED_DIGESTS:
        pytest.skip(f"no digests recorded for this platform's log, sin, cos and gemv (canary {canary})")
    for spec, want in zip(_PINNED_SPECS, _PINNED_DIGESTS[canary]):
        arrays = generate_instance(InstanceSpec(*spec))
        assert tuple(hashlib.sha256(v.tobytes()).hexdigest()[:16] for v in arrays) == want, spec


def test_generation_peak_is_a_plus_half():
    # A is built in place: the peak is A plus one half-size buffer of angles,
    # not the four copies of A an out-of-place Box-Muller holds.  The slack
    # covers the alignment pad, the 512-entry index pool, x_star and b.
    spec = InstanceSpec(256, 512, 32, 0.01, seed=1)
    tracemalloc.start()
    try:
        a, _, _ = generate_instance(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.nbytes + 16 * 1024
