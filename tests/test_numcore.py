import tracemalloc

import numpy as np
import pytest

from bicaption.errors import ShapeError
from bicaption.numcore import (PANEL_HEIGHT, PANEL_MAX_ROWS, SLAB_SIZE,
                               all_finite, log_softmax, matvec, relu, sigmoid,
                               softmax, tanh_act)

from oracles import scalar_sigmoid


def assert_rows_close(got, want):
    """Within 1e-12 relative, each row against its largest magnitude: a
    matrix product and the matrix-vector products of its rows round
    differently."""
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestMatvec:
    def test_identity(self):
        np.testing.assert_array_equal(
            matvec(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_zero_matrix_annihilates(self):
        np.testing.assert_array_equal(
            matvec(np.zeros((2, 3)), np.array([5.0, 5.0, 5.0])), [0.0, 0.0])

    def test_hand_case(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matvec(m, np.array([1.0, 1.0])), [3.0, 7.0])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2,\)"):
            matvec(np.zeros((2, 3)), np.zeros(2))

    def test_distributes_over_addition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(16, 16))
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            lhs = matvec(m, a + b)
            rhs = matvec(m, a) + matvec(m, b)
            denom = np.maximum(np.abs(lhs), 1e-300)
            assert np.max(np.abs(lhs - rhs) / denom) < 1e-12

    def test_vector_bitwise_equal_plain_product(self):
        # also on strided operands: the text columns of a merged (version-1
        # checkpoint) M-LSTM input block, a transposed matrix, and a vector
        # taken at a step
        rng = np.random.default_rng(6)
        for height, width in ((3, 2), (20, 5), (PANEL_HEIGHT + 1, 16),
                              (300, 40), (1024, 256)):
            m = rng.normal(size=(height, width))
            v = rng.normal(size=width)
            stepped = rng.normal(size=3 * width)[::3]
            for mat, vec in ((m, v), (m, stepped),
                             (rng.normal(size=(height, width + 7))[:, :width],
                              v),
                             (rng.normal(size=(width, height)).T, v),
                             (rng.normal(size=(width, height)).T, stepped)):
                assert np.array_equal(matvec(mat, vec), mat @ vec)

    @pytest.mark.parametrize("rows", range(1, PANEL_MAX_ROWS + 3))
    def test_rows_match_one_product_and_vector_calls(self, rows):
        # a batch agrees to rounding with one product and with each row's
        # vector call: below, at and above one panel's height, over several
        # panels with a ragged last one, on a strided view of the text
        # columns of a wider matrix (as model.image_input hands over), and
        # at the 2000-word vocabulary
        rng = np.random.default_rng(rows)
        wide = rng.normal(size=(2 * PANEL_HEIGHT + 44, 64))
        for m in (rng.normal(size=(64, 16)), wide[:PANEL_HEIGHT],
                  wide[:PANEL_HEIGHT + 1], wide, wide[:, :24],
                  rng.normal(size=(2000, 256))):
            v = rng.normal(size=(rows, m.shape[1]))
            got = matvec(m, v)
            assert_rows_close(got, v @ m.T)
            assert_rows_close(got, np.array([matvec(m, row) for row in v]))

    @pytest.mark.parametrize("rows", range(1, PANEL_MAX_ROWS + 3))
    def test_panels_only_for_few_rows_against_a_tall_matrix(self, rows):
        # 2..PANEL_MAX_ROWS rows against a matrix taller than one panel run
        # panel by panel; every other batch is one product
        rng = np.random.default_rng(rows)
        for height in (PANEL_HEIGHT, PANEL_HEIGHT + 1, 300):
            m = rng.normal(size=(height, 32))
            v = rng.normal(size=(rows, 32))
            if 2 <= rows <= PANEL_MAX_ROWS and height > PANEL_HEIGHT:
                want = np.concatenate(
                    [v @ m[s:s + PANEL_HEIGHT].T
                     for s in range(0, height, PANEL_HEIGHT)], axis=1)
            else:
                want = v @ m.T
            assert np.array_equal(matvec(m, v), want), height


class TestSigmoid:
    def test_zero_is_half(self):
        np.testing.assert_array_equal(sigmoid(np.zeros(2)), [0.5, 0.5])

    def test_saturates_without_overflow(self):
        np.testing.assert_array_equal(sigmoid(np.array([1e9])), [1.0])
        np.testing.assert_array_equal(sigmoid(np.array([-1e9])), [0.0])

    def test_value_at_one(self):
        # high-precision reference: 0.731058578630004879...
        np.testing.assert_allclose(sigmoid(np.array([1.0])),
                                   [0.7310585786300049], rtol=0, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-50, 50, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0,
                                   rtol=0, atol=1e-15)

    def test_open_interval(self):
        x = np.linspace(-30, 30, 101)
        s = sigmoid(x)
        assert np.all(s > 0) and np.all(s < 1)

    def test_within_contract_of_scalar_oracle_and_monotone(self):
        # the error contract is absolute: values below ~1e-16 round to
        # multiples of 2^-54, so no relative bound holds there
        x = np.linspace(-40, 40, 200_001)
        s = sigmoid(x)
        ref = np.array([scalar_sigmoid(float(v)) for v in x])
        assert np.max(np.abs(s - ref)) <= 2.5e-16
        assert np.all(np.diff(s) >= 0)


@pytest.mark.parametrize("fn", [sigmoid, tanh_act])
@pytest.mark.parametrize("v", [np.array([-2, 0, 3]),
                               np.array([-2.5, 0.0, 3.0]),
                               [-2, 0.5, 3]])
def test_gate_functions_return_float64(fn, v):
    out = fn(v)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, fn(np.asarray(v, dtype=np.float64)))


@pytest.mark.parametrize("fn", [sigmoid, tanh_act])
def test_gate_functions_leave_a_read_only_input_unchanged(fn):
    # an in-place pass that aliased its input would raise here, instead of
    # overwriting a trace row
    v = np.random.default_rng(7).normal(scale=5.0, size=(3, 12))
    v.flags.writeable = False
    kept = v.tobytes()
    out = fn(v)
    assert v.tobytes() == kept and not np.shares_memory(out, v)


class TestTanh:
    def test_odd_at_zero(self):
        np.testing.assert_array_equal(tanh_act(np.array([0.0])), [0.0])

    def test_odd_symmetry(self):
        x = np.array([0.7])
        np.testing.assert_array_equal(tanh_act(-x), -tanh_act(x))

    def test_value_at_one(self):
        # high-precision reference: 0.761594155955764888...
        np.testing.assert_allclose(tanh_act(np.array([1.0])),
                                   [0.7615941559557649], rtol=0, atol=1e-15)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3),
                                   rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(z + 100.0), softmax(z),
                                   rtol=0, atol=1e-15)

    def test_direct_formula(self):
        np.testing.assert_allclose(
            softmax(np.array([1.0, 2.0, 3.0])),
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748218],
            rtol=0, atol=1e-15)

    def test_probability_vector_for_large_magnitudes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.uniform(-1e3, 1e3, size=rng.integers(1, 12))
            p = softmax(z)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))

    def test_rows_bitwise_equal_vector_calls(self):
        # a batch of rows gives each row's vector result bit for bit, at
        # the widths the model uses (up to the 2000-word vocabulary)
        rng = np.random.default_rng(5)
        for rows, width in ((1, 1), (1, 7), (3, 20), (12, 2000), (17, 2001)):
            z = rng.normal(scale=rng.uniform(0.1, 50.0), size=(rows, width))
            z[0, 0] = 700.0  # near the exp overflow edge, shifted away
            for fn in (softmax, log_softmax):
                p = fn(z)
                assert p.shape == z.shape
                for r in range(rows):
                    assert np.array_equal(p[r], fn(z[r])), (fn, rows, width, r)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=9)
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)),
                                   rtol=0, atol=1e-12)

    def test_finite_for_extreme_logits(self):
        z = np.array([0.0, -2000.0, 500.0])
        out = log_softmax(z)
        assert np.all(np.isfinite(out))
        assert np.all(out <= 0)


class TestRelu:
    def test_definition(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                                      [0.0, 0.0, 2.0])

    def test_all_negative(self):
        np.testing.assert_array_equal(relu(np.array([-3.0, -0.5])), [0.0, 0.0])

    def test_identity_on_positive(self):
        np.testing.assert_array_equal(relu(np.array([3.5])), [3.5])

    def test_idempotent_exact(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=64)
        once = relu(v)
        np.testing.assert_array_equal(relu(once), once)


class TestAllFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 7, -1])
    def test_any_non_finite_element_found(self, value, at):
        a = np.ones((3, 5))
        a.reshape(-1)[at] = value
        assert not all_finite(a)
        assert not all_finite(a[:, ::2])  # a strided view holding it

    def test_finite_and_empty_arrays_pass(self):
        assert all_finite(np.array([-1e308, 0.0, 1e308]))
        assert all_finite(np.empty((0, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_column_views_checked_apart(self, value):
        # a version-1 checkpoint's Wx and Wimg are column views of one
        # block; these span several slabs, the last one partial
        block = np.ones((SLAB_SIZE // 2 + 3, 7))
        wx, wimg = block[:, :3], block[:, 3:]
        block[-1, 5] = value
        assert all_finite(wx) and not all_finite(wimg)
        block[-1, 5], block[0, 2] = 1.0, value
        assert not all_finite(wx) and all_finite(wimg)

    def test_per_element_check_is_one_slab(self):
        # np.all(np.isfinite(a)) would make a 4 MiB bool array here
        a = np.ones((2048, 2048))
        tracemalloc.start()
        try:
            assert all_finite(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_glibc_settings_cap_the_heaps_at_two(monkeypatch):
    # the main heap and one worker's: a worker started before the last one
    # handed its arena back shares one instead of making a third
    import bicaption.numcore as numcore
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
    monkeypatch.setattr(numcore.platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(numcore.ctypes, "CDLL", lambda name: Libc())
    numcore._keep_freed_memory_mapped()
    assert calls == [(numcore._M_MMAP_THRESHOLD, 32 << 20),
                     (numcore._M_TRIM_THRESHOLD, 1 << 30),
                     (numcore._M_ARENA_MAX, 2)]
    assert numcore._M_ARENA_MAX == -8  # malloc.h
