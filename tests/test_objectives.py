import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import base_step, full_formula, residual_at, support_formula

from descentls import objectives
from descentls.diagnostics import run_diagnostics
from descentls.driver import LineSearchParams, StopCriteria, run
from descentls.instances import InstanceSpec, generate_instance
from descentls.linalg import DimensionMismatch
from descentls.objectives import L0LeastSquares, Objective, SmoothQuadratic
from descentls.steps import IHTStep, ProxGradientStep


@pytest.fixture
def identity_problem():
    quad = SmoothQuadratic.from_data(np.eye(2), np.array([3.0, 0.5]))
    return L0LeastSquares(quad=quad, lam=1.0)


def test_eval_quadratic_examples(identity_problem):
    q = identity_problem.quad
    assert q.value(np.array([3.0, 0.5])) == 0.0
    assert q.value(np.zeros(2)) == 4.625
    assert q.value(np.array([1.5, 0.0])) == 1.25


def test_grad_examples(identity_problem):
    q = identity_problem.quad
    np.testing.assert_array_equal(q.grad(np.array([3.0, 0.5])), [0.0, 0.0])
    np.testing.assert_array_equal(q.grad(np.zeros(2)), [-3.0, -0.5])
    np.testing.assert_array_equal(q.grad(np.array([1.5, 0.0])), [-1.5, -0.5])


def test_dimension_mismatch(identity_problem):
    with pytest.raises(DimensionMismatch):
        identity_problem.quad.value(np.ones(3))
    with pytest.raises(DimensionMismatch):
        identity_problem.value(np.ones(3))


@pytest.mark.parametrize("length", [1, 3])
def test_from_data_rejects_a_b_of_another_length(length):
    with pytest.raises(ValueError, match=f"A has 2 rows but b has length {length}"):
        SmoothQuadratic.from_data(np.eye(2), np.ones(length))


def test_eval_l0_examples(identity_problem):
    p = identity_problem
    assert p.value(np.zeros(2)) == 4.625
    assert p.value(np.array([3.0, 0.5])) == 2.0
    assert p.value(np.array([1.5, 0.0])) == 2.25


def test_support_examples(identity_problem):
    p = identity_problem
    np.testing.assert_array_equal(p.support_mask(np.array([1.5, 0.0])), [True, False])
    np.testing.assert_array_equal(p.support_mask(np.zeros(2)), [False, False])
    np.testing.assert_array_equal(p.support_mask(np.array([3.0, 0.5])), [True, True])
    # -0.0 is a zero; a NaN entry is support, as value's count_nonzero counts it.
    odd = np.array([-0.0, np.nan])
    np.testing.assert_array_equal(p.support_mask(odd), [False, True])
    assert np.count_nonzero(p.support_mask(odd)) == np.count_nonzero(odd) == 1
    assert p.quad.support_mask(np.array([1.5, 0.0])) is None
    # The support is the exact nonzeros; zero_tol admits only zero.
    for zero in (0.0, -0.0):
        L0LeastSquares(quad=p.quad, lam=1.0, zero_tol=zero)
    for bad in (1e-3, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="zero_tol"):
            L0LeastSquares(quad=p.quad, lam=1.0, zero_tol=bad)


def test_residual_l0_examples(identity_problem):
    p = identity_problem
    assert residual_at(p, np.array([1.5, 0.0])) == 1.5
    assert residual_at(p, np.zeros(2)) == 0.0
    # (3, 0) is a critical point: the supported gradient component vanishes.
    assert residual_at(p, np.array([3.0, 0.0])) == 0.0


def test_residual_smooth_examples(identity_problem):
    q = identity_problem.quad
    assert residual_at(q, np.array([3.0, 0.5])) == 0.0
    assert residual_at(q, np.zeros(2)) == pytest.approx(np.sqrt(9.25), rel=1e-15)
    q2 = SmoothQuadratic.from_data(np.diag([2.0, 1.0]), np.zeros(2))
    assert residual_at(q2, np.array([1.0, 0.0])) == 4.0


def test_objective_protocol(identity_problem):
    methods = {name for name, v in vars(Objective).items() if callable(v) and not name.startswith("_")}
    assert set(Objective.__annotations__) == {"lipschitz"}
    assert methods == {"value", "residual_from_grad", "grad", "prox", "nu", "support_mask"}
    for obj in (identity_problem, identity_problem.quad):
        assert all(hasattr(obj, name) for name in Objective.__annotations__.keys() | methods)
    # The protocol names only what the program calls.  Record each call into
    # objectives.py while a step is made, both variants run and their traces
    # are checked, on the l0 objective (whose `lipschitz` is a property) and
    # the smooth one.  co_name, not co_qualname, which Python 3.10 lacks.
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == objectives.__file__:
            called.add(frame.f_code.co_name)

    params, stop = LineSearchParams(), StopCriteria()
    sys.setprofile(hook)
    try:
        for obj in (identity_problem, identity_problem.quad):
            step = ProxGradientStep.default(obj)
            for variant in (params, None):
                run_diagnostics(run(np.zeros(2), step, variant, stop), step, params, stop)
    finally:
        sys.setprofile(None)
    assert Objective.__annotations__.keys() | methods <= called


def test_lam_must_be_positive(identity_problem):
    with pytest.raises(ValueError):
        L0LeastSquares(quad=identity_problem.quad, lam=0.0)


def test_gradient_matches_finite_differences():
    step = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        x = rng.standard_normal(8)
        quad = SmoothQuadratic.from_data(a, b)
        g = quad.grad(x)
        for i in range(8):
            e = np.zeros(8)
            e[i] = step
            fd = (quad.value(x + e) - quad.value(x - e)) / (2 * step)
            assert abs(g[i] - fd) <= 1e-5


def test_eval_l0_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 10))
    b = rng.standard_normal(6)
    x = rng.standard_normal(10)
    x[rng.integers(0, 10, size=4)] = 0.0
    p = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.3)
    assert p.value(x) >= 0.0
    perm = rng.permutation(10)
    p_perm = L0LeastSquares(quad=SmoothQuadratic.from_data(a[:, perm], b), lam=0.3)
    assert p_perm.value(x[perm]) == pytest.approx(p.value(x), rel=1e-12)


def test_l0_residual_below_smooth_residual():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 10))
    b = rng.standard_normal(6)
    p = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.3)
    for _ in range(20):
        x = rng.standard_normal(10)
        x[rng.integers(0, 10, size=3)] = 0.0
        assert residual_at(p, x) <= residual_at(p.quad, x) + 1e-12


def test_iht_fixed_points_have_zero_residual():
    # Post-convergence residual of the IHT map's fixed point is exactly zero.
    a, b, _ = generate_instance(InstanceSpec(16, 32, 3, 0.0, seed=8))
    p = L0LeastSquares(quad=SmoothQuadratic.from_data(a, b), lam=0.01)
    step = IHTStep.default(p)
    x = np.zeros(32)
    for _ in range(20_000):
        x_next = base_step(step, x)
        if np.array_equal(x_next, x):
            break
        x = x_next
    assert np.array_equal(base_step(step, x), x)
    assert residual_at(p, x) <= 1e-12


@pytest.mark.parametrize("zero_tol", [0.0])
def test_l0_value_is_the_mask_formula_as_a_python_float(zero_tol):
    # value counts nonzeros directly, with the bits of the mask formula, as
    # a Python float.
    a, b, _ = generate_instance(InstanceSpec(4, 8, 2, 0.01, seed=3))
    quad = SmoothQuadratic.from_data(a, b)
    p = L0LeastSquares(quad=quad, lam=0.01, zero_tol=zero_tol)
    below, above = np.nextafter(1e-3, 0.0), np.nextafter(1e-3, 1.0)
    x = np.array([-0.0, 5e-324, -5e-324, 0.0, 1e-3, below, above, -above])
    for v in (x, -x, x[::-1].copy(), np.zeros(8), np.full(8, -0.0)):
        value = p.value(v)
        assert type(value) is float
        expected = quad.value(v) + p.lam * int(np.count_nonzero(p.support_mask(v)))
        assert value.hex() == expected.hex()
    counted = round((p.value(x) - quad.value(x)) / p.lam)
    assert counted == 6


def _fresh(quad):
    """The same objective with an empty memo."""
    return SmoothQuadratic(A=quad.A, b=quad.b, lipschitz=quad.lipschitz)


def _bits(result):
    return result.hex() if type(result) is float else result.tobytes()


@pytest.mark.parametrize("second", ["value", "grad"])
@pytest.mark.parametrize("first", ["value", "grad"])
def test_memo_keeps_the_bits_of_fresh_calls(first, second):
    # The second call on the same point is served from the memo: the stored
    # f, or A.T times the stored residual.  Each must have the bits of a
    # call on a fresh objective and of the memo-free formulas, also where the
    # residual is +0.0 (an exact fit, b = A x) and where x has -0.0 entries.
    a, b, _ = generate_instance(InstanceSpec(32, 64, 4, 0.01, seed=4))
    x = np.linspace(-1.0, 1.0, 64)
    x[::3] = -0.0
    sparse = np.full(64, -0.0)
    sparse[[2, 5, 11]] = [1.5, -0.25, 3.0]
    fit = SmoothQuadratic.from_data(a, a.dot(sparse))
    assert full_formula(fit, "value", sparse).hex() == "0x0.0p+0"
    for quad, v in [(SmoothQuadratic.from_data(a, b), x), (SmoothQuadratic.from_data(a, b), -x),
                    (fit, sparse), (fit, x)]:
        got = [getattr(quad, name)(v) for name in (first, second)]
        fresh = [getattr(_fresh(quad), name)(v) for name in (first, second)]
        reference = [full_formula(quad, name, v) for name in (first, second)]
        assert [_bits(r) for r in got] == [_bits(r) for r in fresh] == [_bits(r) for r in reference]


def test_memo_misses_a_vector_mutated_in_place():
    # A memo keyed on the identity of x would serve the old product here.
    a, b, _ = generate_instance(InstanceSpec(8, 16, 2, 0.01, seed=4))
    quad = SmoothQuadratic.from_data(a, b)
    x = np.zeros(16)
    assert quad.value(x) == _fresh(quad).value(x)
    x[3] = 1.5
    assert quad.value(x) == _fresh(quad).value(x) != _fresh(quad).value(np.zeros(16))
    np.testing.assert_array_equal(quad.grad(x), _fresh(quad).grad(x))
    x[3] = 0.0
    np.testing.assert_array_equal(quad.grad(x), _fresh(quad).grad(x))


def test_memo_is_keyed_on_dtype_and_shape_not_bytes_alone():
    # An int64 view and an (n, 1) reshape have the bytes of the float64 x; a
    # memo keyed on bytes alone would serve them its float64 product.  The
    # column is no vector: it must raise, not broadcast A x - b to (m, m).
    # A list has no bytes to key on: it must raise a TypeError, not an
    # AttributeError from the key.
    a, b, _ = generate_instance(InstanceSpec(8, 16, 2, 0.01, seed=4))
    quad = SmoothQuadratic.from_data(a, b)
    x = np.linspace(-1.0, 1.0, 16)
    quad.grad(x)
    other = x.view(np.int64)
    got, want = quad.grad(other), _fresh(quad).grad(other)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    quad.value(x)
    assert quad.value(x.view(np.int64)) == _fresh(quad).value(x.view(np.int64)) != quad.value(x)
    cases = [(x.reshape(16, 1), DimensionMismatch, r"\(16, 1\)"),
             (x.tolist(), TypeError, "^x must be a numpy array, got list$")]
    for bad, error, match in cases:
        for name in ("value", "grad"):
            with pytest.raises(error, match=match):
                getattr(_fresh(quad), name)(bad)
            for first in ("value", "grad"):
                getattr(quad, first)(x)
                with pytest.raises(error, match=match):
                    getattr(quad, name)(bad)


def test_replace_starts_an_empty_memo(products):
    # `dataclasses.replace` reuses nothing: not the memo, and at 256x2048,
    # where a miss multiplies a kept copy of the support columns, not that
    # copy either, though x has the support it was made for.
    sparse = np.zeros(2048)
    sparse[[3, 700, 2000]] = [1.5, -0.25, 3.0]
    for rows, x, read in [(8, np.linspace(-1.0, 1.0, 16), 16), (256, sparse, 3)]:
        a, b, _ = generate_instance(InstanceSpec(rows, x.size, 2, 0.01, seed=4))
        quad = SmoothQuadratic.from_data(a, b)
        products.clear()
        quad.value(x)
        doubled = replace(quad, A=2.0 * a)
        assert doubled.value(x) == _fresh(doubled).value(x) != quad.value(x)
        np.testing.assert_array_equal(doubled.grad(x), _fresh(doubled).grad(x))
        assert quad == _fresh(quad) and "memo" not in repr(quad)
        mine, its = products.operands[:2]
        assert products.made[:2] == [("matvec", read)] * 2
        assert its is not mine and its.tobytes() == (2.0 * mine).tobytes()


def test_rule_gathers_exactly_where_it_holds(products):
    # A 256x2048 A has GATHER_MIN_ENTRIES entries, so a miss gathers while
    # 10 |S| <= 2048; one row fewer and every product is full.  With 2050
    # columns the rule holds with equality at |S| = 205.
    a, b, _ = generate_instance(InstanceSpec(256, 2048, 8, 0.01, seed=4))
    assert a.size == objectives.GATHER_MIN_ENTRIES and objectives.GATHER_COLS_PER_NONZERO == 10
    wide = np.hstack([a, a[:, :2]])
    for matrix, support, expected in [(a, 204, 204), (a, 205, 2048), (a, 0, 0), (a[:255], 1, 2048),
                                      (wide, 205, 205), (wide, 206, 2050)]:
        x = np.zeros(matrix.shape[1])
        x[:2 * support:2] = 1.0
        quad = SmoothQuadratic.from_data(matrix, b[:matrix.shape[0]], lipschitz=1.0)
        products.clear()
        quad.value(x)
        assert products.made == [("matvec", expected)]


@pytest.mark.parametrize("second", ["value", "grad"])
@pytest.mark.parametrize("first", ["value", "grad"])
def test_support_columns_keep_the_bits_of_the_support_formula(products, first, second):
    # Above the rule a miss multiplies only the nonzero columns of x.  Fresh
    # and from the memo, value and grad must have the bits of the support
    # formula: where x holds -0.0 (not support), at x = 0 (e = -b exactly),
    # with a NaN entry (support, so f is NaN) and on an int64 view, whose
    # nonzero integers are its support.  Of each pair of calls only the
    # first makes a product with A.  A shift of x comes between x and -x:
    # its support has the same size and other indices, so a copy of the
    # support columns kept for its size would serve the wrong columns.
    a, b, _ = generate_instance(InstanceSpec(256, 2048, 8, 0.01, seed=4))
    quad = SmoothQuadratic.from_data(a, b)
    signed = np.full(2048, -0.0)
    signed[[2, 700, 2047]] = [1.5, -0.25, 3.0]
    nan = np.zeros(2048)
    nan[[5, 9]] = [np.nan, 2.0]
    for x, support in [(signed, 3), (np.roll(signed, -1), 3), (-signed, 3), (np.zeros(2048), 0),
                       (nan, 2), (np.abs(signed).view(np.int64), 3)]:
        products.clear()
        got = [getattr(quad, name)(x) for name in (first, second)]
        assert [made for made in products.made if made[0] == "matvec"] == [("matvec", support)]
        fresh = [getattr(_fresh(quad), name)(x) for name in (first, second)]
        reference = [support_formula(quad, name, x) for name in (first, second)]
        assert [_bits(r) for r in got] == [_bits(r) for r in fresh] == [_bits(r) for r in reference]
    assert np.isnan(quad.value(nan))
    assert quad.value(np.zeros(2048)) == 0.5 * float(b.dot(b))
    np.testing.assert_array_equal(quad.grad(np.zeros(2048)), 0.0 - a.T.dot(b))
    for name in (first, second):
        with pytest.raises(TypeError, match="^x must be a numpy array, got list$"):
            getattr(quad, name)(signed.tolist())
        with pytest.raises(DimensionMismatch, match=r"\(2048, 1\)"):
            getattr(quad, name)(signed.reshape(2048, 1))
        for n in (2047, 2049):  # a support that fits A must not hide a wrong length
            with pytest.raises(DimensionMismatch, match=f"2048 columns, vector has length {n}"):
                getattr(quad, name)(np.zeros(n))


def test_gram_form_takes_supports_up_to_its_cap(products):
    # The gradient sums Gram columns only while |S| <= min(GRAM_MAX_SUPPORT,
    # m): 32 at 256x2048, and m = 16 at 16x32768.  On a fresh objective
    # such a gradient builds A^T b and one column per index, and the next
    # one on the same support builds nothing.  One index more takes A.T e
    # of the gathered residual, with its bits, and builds nothing, so the
    # Gram-form gradient after it builds everything.
    assert objectives.GRAM_MAX_SUPPORT == 32
    rng = np.random.default_rng(3)
    for rows, cols, cap in [(256, 2048, 32), (16, 32768, 16)]:
        a = rng.standard_normal((rows, cols)) / np.sqrt(rows)
        b = rng.standard_normal(rows)
        for size in (cap, cap + 1):
            quad = SmoothQuadratic.from_data(a, b, lipschitz=1.0)
            x = np.zeros(cols)
            x[:2 * size:2] = rng.uniform(0.5, 1.5, size)
            products.clear()
            g = quad.grad(x)
            if size == cap:
                assert g.tobytes() == support_formula(quad, "grad", x).tobytes()
                assert products.count("transpose_matvec") == 1 + cap
            else:
                e = a[:, :2 * size:2].copy().dot(x[:2 * size:2]) - b
                assert g.tobytes() == a.T.dot(e).tobytes() and products.count("transpose_matvec") == 1
            x = np.zeros(cols)
            x[:2 * cap:2] = rng.uniform(0.5, 1.5, cap)
            products.clear()
            assert quad.grad(x).tobytes() == support_formula(quad, "grad", x).tobytes()
            assert products.count("transpose_matvec") == (0 if size == cap else 1 + cap)


def test_column_cache_holds_at_most_m_columns_and_keeps_the_bits(products):
    # At 64x8192 the cache holds at most m = 64 columns, the bytes of A.
    # Two disjoint supports of 32 fill it; a third whose 16 new columns do
    # not fit beside them drops the cached columns outside it, and a support
    # of 33 columns takes A.T e and leaves the cache alone.  A cached column
    # is a build that does not happen, and a dropped one is built again
    # when its index returns: the third support then builds nothing, the
    # first all its 32 columns, and the second the 16 the third did not
    # keep.  Each gradient keeps the bits of a fresh objective and the
    # accuracy of A.T (A x - b).
    rng = np.random.default_rng(7)
    a = rng.standard_normal((64, 8192)) / 8.0
    b = rng.standard_normal(64)
    quad = SmoothQuadratic.from_data(a, b)
    first, second = range(0, 4096, 128), range(4096, 8192, 128)
    third = sorted([*range(4096, 6144, 128), *range(64, 2112, 128)])
    for support, builds in [(first, 1 + 32), (second, 32), (third, 16), (range(33), 1),
                            (third, 0), (first, 32), (second, 16)]:
        x = np.zeros(8192)
        x[list(support)] = rng.uniform(0.5, 1.5, len(support))
        products.clear()
        g = quad.grad(x)
        assert products.count("transpose_matvec") == builds
        assert g.tobytes() == _fresh(quad).grad(x).tobytes()
        np.testing.assert_allclose(g, a.T.dot(a.dot(x) - b), rtol=0.0, atol=1e-12)
        if len(support) == 33:
            e = a[:, :33].copy().dot(x[:33]) - b
            assert g.tobytes() == a.T.dot(e).tobytes()
