import numpy as np
import pytest

from descentls.instances import InstanceSpec, SeededStream, generate_instance


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(rows=0, cols=4, sparsity=1)
    with pytest.raises(ValueError):
        InstanceSpec(rows=4, cols=4, sparsity=5)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative and finite"):
            InstanceSpec(rows=4, cols=4, sparsity=1, noise_sigma=sigma)


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
