import hashlib
import re

import numpy as np
import pytest
from conftest import write_v1_twin

from descentls import linalg
from descentls.linalg import (
    SPECTRAL_SAFETY,
    DimensionMismatch,
    aligned_empty,
    as_matrix,
    as_vector,
    load_matrix,
    load_vector,
    matvec,
    norm,
    save_matrix,
    save_vector,
    spectral_norm_sq,
    transpose_matvec,
    twin_path,
)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])


def test_matvec_examples():
    eye = np.eye(2)
    assert np.array_equal(matvec(eye, np.array([3.0, 0.5])), [3.0, 0.5])
    assert np.array_equal(matvec(np.diag([2.0, 1.0]), np.array([1.0, 1.0])), [2.0, 1.0])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(matvec(a, np.array([1.0, 2.0])), [3.0, 2.0])


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matvec(np.eye(2), np.ones(3))


def test_transpose_matvec_examples():
    assert np.array_equal(transpose_matvec(np.eye(2), np.array([1.0, 2.0])), [1.0, 2.0])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(transpose_matvec(a, np.array([1.0, 0.0])), [1.0, 1.0])
    assert np.array_equal(transpose_matvec(np.diag([2.0, 1.0]), np.array([1.0, 1.0])), [2.0, 1.0])
    with pytest.raises(DimensionMismatch):
        transpose_matvec(np.ones((3, 2)), np.ones(2))


def exact_lambda_max(a):
    return np.linalg.eigvalsh(a.T @ a)[-1]


def test_spectral_norm_sq_examples():
    # The returned value is the exact lambda_max times the safety factor.
    assert spectral_norm_sq(np.eye(2)) == pytest.approx(SPECTRAL_SAFETY, rel=1e-15)
    assert spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(SPECTRAL_SAFETY * 4.0, rel=1e-15)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    exact = (3.0 + np.sqrt(5.0)) / 2.0
    assert spectral_norm_sq(a) == pytest.approx(SPECTRAL_SAFETY * exact, rel=1e-14)
    rng = np.random.default_rng(5)
    for shape in [(30, 12), (12, 30)]:  # tall (Gram A^T A) and wide (Gram A A^T)
        a = rng.standard_normal(shape)
        exact = exact_lambda_max(a)
        assert spectral_norm_sq(a) == pytest.approx(SPECTRAL_SAFETY * exact, rel=1e-12)
        assert spectral_norm_sq(a) >= exact


@pytest.mark.parametrize("shape, value", [((3, 4), 1e200), ((4, 3), 1e200), ((3, 4), 4e153)],
                         ids=["gram-wide", "gram-tall", "eigenvalue"])
def test_spectral_norm_sq_rejects_overflow(shape, value):
    # 1e200 overflows the Gram matrix, where numpy warns in matmul (an error
    # under this suite's filter); 4e153 gives a finite Gram matrix whose
    # largest eigenvalue, 3 * 4 * 4e153^2, overflows.
    with pytest.raises(ValueError, match=r"^\|\|A\|\|\^2 overflows float64$"):
        spectral_norm_sq(np.full(shape, value))


def test_spectral_norm_sq_zero_matrix():
    assert spectral_norm_sq(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("matrix,exact", [
    # Power iteration from the all-ones vector converges to the wrong eigenvalue
    # here: that vector is orthogonal to the top singular vector, or in the null space.
    ([[2.0, -2.0], [0.1, 0.1]], 8.0),
    ([[1.0, -1.0]], 2.0),
])
def test_spectral_norm_sq_bounds_counterexamples(matrix, exact):
    a = np.array(matrix)
    assert exact_lambda_max(a) == pytest.approx(exact, rel=1e-15)
    assert spectral_norm_sq(a) >= exact
    assert spectral_norm_sq(a) == pytest.approx(SPECTRAL_SAFETY * exact, rel=1e-15)


def test_spectral_norm_dominates_rayleigh_quotients():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 30))
    est = spectral_norm_sq(a)
    for _ in range(100):
        x = rng.standard_normal(30)
        x /= np.linalg.norm(x)
        assert est * (1 + 1e-6) >= np.linalg.norm(a @ x) ** 2


def test_adjoint_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((6, 9))
        x = rng.standard_normal(9)
        ax = matvec(a, x)
        lhs = float(transpose_matvec(a, ax) @ x)
        rhs = float(ax @ ax)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_matvec_linearity():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 4))
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    s, t = 0.7, -1.3
    lhs = matvec(a, s * x + t * y)
    rhs = s * matvec(a, x) + t * matvec(a, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def same_bits(u, v):
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_dot_forms_equal_numpy_bit_for_bit(order, scale):
    # matvec, transpose_matvec and norm call ndarray.dot for less dispatch;
    # they must round exactly as a @ x, a.T @ r and np.linalg.norm do.  At
    # 1e200 and 1e-200 the sums of squares overflow to inf or underflow to
    # 0.0, the same on both sides (numpy warns of the overflow on both).
    rng = np.random.default_rng(17)
    for rows, cols in [(1, 1), (3, 5), (16, 32), (32, 64), (65, 33), (256, 17)]:
        a = np.asarray(rng.standard_normal((rows, cols)), order=order)
        x = scale * rng.standard_normal(cols)
        x[rng.random(cols) < 0.8] = 0.0  # sparse, as IHT iterates are
        r = scale * rng.standard_normal(rows)
        assert same_bits(matvec(a, x), a @ x)
        assert same_bits(transpose_matvec(a, r), a.T @ r)
        for v in (x, r, a @ x, a.T @ r, x[x != 0.0]):
            with np.errstate(over="ignore"):
                got, want = norm(v), np.linalg.norm(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()


def test_norm_edge_cases():
    # g[mask] is empty on an empty support.
    assert norm(np.ones(3)[np.zeros(3, dtype=bool)]) == 0.0 == np.linalg.norm(np.empty(0))
    with np.errstate(over="ignore"):
        assert norm(np.array([1e200, 1.0])) == np.inf == np.linalg.norm(np.array([1e200, 1.0]))
    assert norm(np.array([1e-200, -1e-200])) == 0.0 == np.linalg.norm(np.array([1e-200, -1e-200]))
    assert norm(np.array([3.0, -4.0])) == 5.0


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 7))
    v = rng.standard_normal(7)
    save_matrix(a, tmp_path / "a.csv")
    save_vector(v, tmp_path / "v.csv")
    got, norm_sq = load_matrix(tmp_path / "a.csv")
    assert np.array_equal(got, a) and norm_sq == spectral_norm_sq(a)
    assert np.array_equal(load_vector(tmp_path / "v.csv"), v)


# Values whose CSV text is hardest to round-trip: a signed zero, the
# smallest subnormal and the largest magnitudes.
SPECIAL = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]


def special_matrix(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    flat = a.reshape(-1)
    for i, v in enumerate(SPECIAL):
        flat[(7 * i) % flat.size] = v
    return a


def parsed(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (32, 64), (65, 64), (3, 5000), (4097, 1)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_save_writes_the_bytes_of_savetxt(tmp_path, shape):
    # 65x64, 3x5000 and 4097x1 cross the writer's block of 1024 values.
    a = special_matrix(*shape)
    save_matrix(a, tmp_path / "a.csv")
    np.savetxt(tmp_path / "a_ref.csv", a, fmt="%.17g", delimiter=",")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "a_ref.csv").read_bytes()
    v = a.reshape(-1)[:max(shape)]
    save_vector(v, tmp_path / "v.csv")
    np.savetxt(tmp_path / "v_ref.csv", v, fmt="%.17g", delimiter=",")
    assert (tmp_path / "v.csv").read_bytes() == (tmp_path / "v_ref.csv").read_bytes()
    assert same_bits(load_vector(tmp_path / "v.csv"), v)


def _edit_first_value(path, text):
    data = path.read_bytes()
    path.write_bytes(text + data[data.index(b","):])


def _patch_header(path, **fields):
    data = path.read_bytes()
    header = linalg._TWIN_HEADER
    values = dict(zip(("tag", "rows", "cols", "norm_sq", "csv_sha", "payload_sha"),
                      header.unpack(data[:header.size])))
    values.update(fields)
    path.write_bytes(header.pack(*values.values()) + data[header.size:])


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))


# Byte offset of the carried norm in the twin's header.
NORM_OFFSET = 24


# Each state of the twin, set up after save_matrix; only "fresh" may use it.
TWIN_STATES = {
    "fresh": lambda csv, twin: None,
    # The first value "-0" becomes "-1", or "-0.5": a stale twin either way.
    "csv-edited-same-length": lambda csv, twin: _edit_first_value(csv, b"-1"),
    "csv-edited-other-length": lambda csv, twin: _edit_first_value(csv, b"-0.5"),
    "twin-truncated": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:-1]),
    "payload-byte-flipped": lambda csv, twin: _flip_byte(twin, -1),
    "norm-byte-flipped": lambda csv, twin: _flip_byte(twin, NORM_OFFSET),
    "wrong-tag": lambda csv, twin: _patch_header(twin, tag=b"DLSF64v0"),
    # A twin as it was written before it carried the norm.
    "v1-twin": lambda csv, twin: write_v1_twin(twin),
    "larger-shape": lambda csv, twin: _patch_header(twin, rows=5),
    "huge-shape": lambda csv, twin: _patch_header(twin, rows=2**40, cols=2**20),
    "header-only": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:linalg._TWIN_HEADER.size]),
    "shorter-than-header": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:linalg._TWIN_HEADER.size - 1]),
    "twin-empty": lambda csv, twin: twin.write_bytes(b""),
    # Consistent in size and digests, but save_matrix never writes an empty matrix.
    "zero-rows": lambda csv, twin: (twin.write_bytes(twin.read_bytes()[:linalg._TWIN_HEADER.size]),
                                    _patch_header(twin, rows=0, payload_sha=hashlib.sha256(b"").digest())),
    "twin-missing": lambda csv, twin: twin.unlink(),
    "hand-written-csv": lambda csv, twin: (twin.unlink(), csv.write_text(
        "-0, 5e-324 ,1e308\n# a comment\n\n1.5,-2E3,4.9406564584124654e-324\n")),
}


@pytest.mark.parametrize("state", TWIN_STATES)
def test_load_matrix_returns_the_bits_of_loadtxt(tmp_path, monkeypatch, state):
    csv = tmp_path / "A.csv"
    a = special_matrix(4, 3)
    assert a[0, 0] == 0.0 and np.signbit(a[0, 0])
    save_matrix(a, csv)
    twin = tmp_path / "A.csv.f64"
    assert twin_path(csv) == str(twin) and twin.is_file()
    # Entries up to 1e308 overflow ||A||^2: the twin carries NaN in its place.
    header = twin.read_bytes()[:linalg._TWIN_HEADER.size]
    assert header[:8] == b"DLSF64v2" and np.isnan(np.frombuffer(header[NORM_OFFSET:NORM_OFFSET + 8], "<f8")[0])
    TWIN_STATES[state](csv, twin)
    want = parsed(csv)
    calls = []
    real_loadtxt = np.loadtxt

    def loadtxt(*args, **kwargs):
        if state == "fresh":
            raise AssertionError("a valid twin must spare the parse")
        calls.append(args)
        return real_loadtxt(*args, **kwargs)

    def allocate(shape):
        if shape != want.shape:
            raise AssertionError(f"allocated {shape} for a {want.shape} matrix")
        return aligned_empty(shape)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(linalg, "aligned_empty", allocate)
    got, norm_sq = load_matrix(csv)
    assert same_bits(got, want) and norm_sq is None
    assert len(calls) == (state != "fresh")
    assert got.ctypes.data % 64 == 0 and got.flags.writeable
    if state == "fresh":
        assert same_bits(got, a)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (32, 64), (65, 33)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("order", ["C", "F"])
def test_twin_carries_the_norm_a_parse_would_compute(tmp_path, monkeypatch, shape, order):
    # The carried value is spectral_norm_sq of the matrix load_matrix returns,
    # bit for bit, also when save_matrix was given a Fortran-ordered copy.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    a = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100), order=order)
    csv = tmp_path / "A.csv"
    save_matrix(a, csv)
    want = spectral_norm_sq(parsed(csv))
    monkeypatch.setattr(linalg, "spectral_norm_sq", None)  # load_matrix computes no norm
    got, norm_sq = load_matrix(csv)
    assert same_bits(got, parsed(csv))
    assert type(norm_sq) is float and repr(norm_sq) == repr(want)


def test_load_matrix_needs_the_csv_even_with_a_valid_twin(tmp_path):
    save_matrix(np.eye(2), tmp_path / "A.csv")
    (tmp_path / "A.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_matrix(tmp_path / "A.csv")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n\n# and another\n"],
                         ids=["empty", "blank", "comments"])
@pytest.mark.parametrize("load", [load_matrix, load_vector])
def test_load_rejects_a_file_without_data(tmp_path, text, load):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no data$"):
        load(path)
