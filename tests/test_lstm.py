import math

import numpy as np
import pytest

from bicaption.errors import ShapeError
from bicaption.lstm import (LstmParams, LstmTrace, cell_forward, gates,
                            input_drive, sequence_backward, sequence_forward)

from oracles import (central_difference_grad, fresh_cell_forward, max_rel_err,
                     scalar_lstm_forward)


def zeros_lstm(input_dim, hidden_dim):
    return LstmParams(
        Wx=np.zeros((4 * hidden_dim, input_dim)),
        Wh=np.zeros((4 * hidden_dim, hidden_dim)),
        b=np.zeros(4 * hidden_dim),
    )


def random_params(input_dim, hidden_dim, seed, scale=0.4):
    rng = np.random.default_rng(seed)
    return LstmParams(
        Wx=rng.uniform(-scale, scale, size=(4 * hidden_dim, input_dim)),
        Wh=rng.uniform(-scale, scale, size=(4 * hidden_dim, hidden_dim)),
        b=rng.uniform(-scale, scale, size=4 * hidden_dim),
    ), rng


def step(p, drive, h_prev, c_prev):
    """cell_forward into fresh storage: (a, c, h), a completed from a copy
    of the drive."""
    a, h, c = drive.copy(), np.empty_like(h_prev), np.empty_like(c_prev)
    cell_forward(p, a, h_prev, c_prev, h, c)
    return a, c, h


def cell(p, x, h_prev, c_prev):
    """One cell step on a vector input, with its drive formed from x:
    (i, f, o, g, c, h)."""
    a, c, h = step(p, input_drive(p, x), h_prev, c_prev)
    return (*gates(a), c, h)


def feedback_loop(p, below, V):
    """The cell whose input reads its own previous state, written per step:
    x_t = below[t] + V @ h_{t-1}, then its drive and cell_forward, each
    into the trace's rows."""
    T, H = len(below), p.hidden_dim
    tr = LstmTrace(np.empty((T, p.input_dim)), np.empty((T, 4 * H)),
                   np.zeros((T + 1, H)), np.zeros((T + 1, H)))
    for t in range(T):
        tr.x[t] = below[t] + V @ tr.hs[t]
        tr.a[t] = input_drive(p, tr.x[t])
        cell_forward(p, tr.a[t], tr.hs[t], tr.cs[t], tr.hs[t + 1],
                     tr.cs[t + 1])
    return tr


class TestCellForward:
    def test_all_zero(self):
        p = zeros_lstm(2, 3)
        i, f, o, g, c, h = cell(p, np.zeros(2), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(i, np.full(3, 0.5))
        np.testing.assert_array_equal(f, np.full(3, 0.5))
        np.testing.assert_array_equal(o, np.full(3, 0.5))
        np.testing.assert_array_equal(g, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_zero_params_halve_previous_cell(self):
        # f = 0.5 halves c_prev, i*g adds nothing; h = 0.5 * tanh(1)
        p = zeros_lstm(1, 1)
        *_, c, h = cell(p, np.zeros(1), np.zeros(1), np.array([2.0]))
        np.testing.assert_allclose(c, [1.0], rtol=0, atol=0)
        np.testing.assert_allclose(h, [0.3807970779778824], rtol=0, atol=1e-15)

    def test_saturated_forget_gate_drops_history(self):
        p = zeros_lstm(2, 2)
        p.b[2:4] = -1e9  # forget-gate bias rows
        c_prev = np.array([3.0, -7.0])
        i, f, _, g, c, _ = cell(p, np.ones(2), np.zeros(2), c_prev)
        np.testing.assert_array_equal(f, np.zeros(2))
        np.testing.assert_array_equal(c, i * g)

    def test_gate_ranges(self):
        p, rng = random_params(3, 4, seed=9, scale=2.0)
        for _ in range(20):
            i, f, o, g, _, _ = cell(p, rng.normal(size=3), rng.normal(size=4),
                                    rng.normal(size=4))
            assert np.all((i > 0) & (i < 1))
            assert np.all((f > 0) & (f < 1))
            assert np.all((o > 0) & (o < 1))
            assert np.all((g > -1) & (g < 1))

    def test_trace_identities_hold_exactly(self):
        p, rng = random_params(3, 4, seed=10)
        c_prev = rng.normal(size=4)
        i, f, o, g, c, h = cell(p, rng.normal(size=3), rng.normal(size=4),
                                c_prev)
        np.testing.assert_array_equal(c, f * c_prev + i * g)
        np.testing.assert_array_equal(h, o * np.tanh(c))

    @pytest.mark.parametrize("H", [1, 5, 16, 256])
    def test_gate_rows_are_the_lone_steps_activations(self, H):
        # the backward pass and gate traces form the activations from a
        # whole (T, 4H) block of pre-activations; row t must be bitwise what
        # the step formed alone, and the step's c and h must follow from it
        p, rng = random_params(3, H, seed=H, scale=3.0)
        tr = sequence_forward(p, rng.normal(size=(7, 3)) * 4.0)
        blocks = gates(tr.a)
        for t in range(7):
            lone = gates(tr.a[t])
            for got, want in zip(blocks, lone):
                np.testing.assert_array_equal(got[t], want)
            i, f, o, g = lone
            np.testing.assert_array_equal(tr.cs[t + 1], f * tr.cs[t] + i * g)
            np.testing.assert_array_equal(tr.hs[t + 1],
                                          o * np.tanh(tr.cs[t + 1]))

    @pytest.mark.parametrize("rows", [None, 3])
    def test_read_only_inputs_left_unchanged(self, rows):
        # the step writes only the drive it completes and its outputs; the
        # weights and the previous state, rows of a trace in
        # sequence_forward, are read
        p, rng = random_params(3, 5, seed=11)
        lead = () if rows is None else (rows,)
        h_prev, c_prev = rng.normal(size=(2,) + lead + (5,))
        read = (p.Wh, h_prev, c_prev)
        for arr in read:
            arr.flags.writeable = False
        kept = [arr.tobytes() for arr in read]
        a, c, h = step(p, rng.normal(size=lead + (20,)), h_prev, c_prev)
        assert [arr.tobytes() for arr in read] == kept
        assert c.shape == h.shape == lead + (5,)

    @pytest.mark.parametrize("H", [1, 5, 16, 256])
    @pytest.mark.parametrize("rows", [None, 1, 3, 8])
    def test_bitwise_equal_fresh_array_step(self, H, rows):
        # the drive completed in place and the states written into the
        # caller's rows are bit for bit the fresh-array step's results, for
        # a vector and for rows (3 rows of 4H > PANEL_HEIGHT run in panels)
        p, rng = random_params(7, H, seed=H, scale=3.0)
        lead = () if rows is None else (rows,)
        drive = rng.normal(size=lead + (4 * H,)) * 2.0
        h_prev, c_prev = rng.normal(size=(2,) + lead + (H,)) * 2.0
        got = step(p, drive, h_prev, c_prev)
        for g, want in zip(got, fresh_cell_forward(p, drive, h_prev, c_prev)):
            assert g.dtype == want.dtype and g.shape == want.shape
            assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [None, 3])
    def test_writes_nothing_outside_its_rows(self, rows):
        # the step's a, h and c are rows of larger blocks, as a trace's
        # rows or a decoding state block's are; every other byte of those
        # blocks, the weights and the previous state stay as they were
        p, rng = random_params(3, 4, seed=12)
        lead = () if rows is None else (rows,)
        a_block = rng.normal(size=(3,) + lead + (16,))
        states = rng.normal(size=(5,) + lead + (4,))
        a, (h_prev, c_prev, h, c) = a_block[1], states[:4]
        drive = a.copy()
        blocks = [a_block.copy(), states.copy(), p.Wh.copy()]
        cell_forward(p, a, h_prev, c_prev, h, c)
        want_a, want_c, want_h = fresh_cell_forward(p, drive, blocks[1][0],
                                                    blocks[1][1])
        blocks[0][1], blocks[1][2], blocks[1][3] = want_a, want_h, want_c
        for got, want in zip((a_block, states, p.Wh), blocks):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", ["h", "c", "both", "rows", "h_prev",
                                     "drive"])
    def test_misfit_storage_refused_before_any_write(self, bad):
        # outputs (or a state or drive) whose shape is not the state's:
        # one ShapeError, and nothing written
        p, rng = random_params(3, 4, seed=13)
        a, h_prev, c_prev = (rng.normal(size=(2, 16)),
                             *rng.normal(size=(2, 2, 4)))
        h, c = np.zeros((2, 4)), np.zeros((2, 4))
        wrong = {"h": (np.zeros(4), c), "c": (h, np.zeros((2, 5))),
                 "both": (np.zeros((3, 4)), np.zeros((3, 4))),
                 "rows": (h[:1], c[:1])}.get(bad, (h, c))
        if bad == "h_prev":
            h_prev = h_prev[0]
        if bad == "drive":
            a = a[0]
        kept = [arr.tobytes() for arr in (a, *wrong)]
        with pytest.raises(ShapeError):
            cell_forward(p, a, h_prev, c_prev, *wrong)
        assert [arr.tobytes() for arr in (a, *wrong)] == kept

    def test_shape_errors(self):
        p = zeros_lstm(2, 3)
        with pytest.raises(ShapeError):
            input_drive(p, np.zeros(5))
        with pytest.raises(ShapeError):
            cell_forward(p, np.zeros(12), np.zeros(4), np.zeros(3),
                         np.zeros(4), np.zeros(3))

    def test_drive_width_checked(self):
        p = zeros_lstm(2, 3)
        with pytest.raises(ShapeError):
            cell_forward(p, np.zeros(3), np.zeros(3), np.zeros(3),
                         np.zeros(3), np.zeros(3))


class TestSequenceForward:
    def test_single_step_equals_cell(self):
        p, rng = random_params(2, 3, seed=11)
        x = rng.normal(size=2)
        tr = sequence_forward(p, [x])
        # the drive as sequence_forward forms it: one product over the rows
        drive = input_drive(p, np.array([x]))[0]
        _, c, h = step(p, drive, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(tr.hs[1], h)
        np.testing.assert_array_equal(tr.cs[1], c)

    def test_composition_is_bitwise(self):
        # the trace's rows are a chain of cell_forward calls, each from the
        # previous rows' state and the zero state at t=0
        p, rng = random_params(3, 4, seed=12)
        xs = [rng.normal(size=3) for _ in range(3)]
        tr = sequence_forward(p, xs)
        assert (tr.x.shape, tr.a.shape) == ((3, 3), (3, 16))
        assert tr.cs.shape == tr.hs.shape == (4, 4)
        np.testing.assert_array_equal(tr.x, xs)
        drives = input_drive(p, np.array(xs))  # as sequence_forward forms them
        h, c = np.zeros(4), np.zeros(4)
        for t in range(3):
            np.testing.assert_array_equal(tr.hs[t], h)
            np.testing.assert_array_equal(tr.cs[t], c)
            a, c, h = step(p, drives[t], h, c)
            np.testing.assert_array_equal(tr.a[t], a)
            np.testing.assert_array_equal(tr.cs[t + 1], c)
            np.testing.assert_array_equal(tr.hs[t + 1], h)

    def test_empty_sequence(self):
        p = zeros_lstm(2, 3)
        tr = sequence_forward(p, [])
        assert len(tr) == 0
        assert (tr.x.shape, tr.a.shape) == ((0, 2), (0, 12))
        np.testing.assert_array_equal(tr.cs, np.zeros((1, 3)))
        np.testing.assert_array_equal(tr.hs, np.zeros((1, 3)))

    def test_matches_scalar_loop_oracle(self):
        p, rng = random_params(3, 4, seed=42)
        xs = [rng.normal(size=3) for _ in range(5)]
        tr = sequence_forward(p, xs)
        oracle = scalar_lstm_forward(p.Wx.tolist(), p.Wh.tolist(), p.b.tolist(),
                                     [x.tolist() for x in xs],
                                     [0.0] * 4, [0.0] * 4)
        assert max(abs(a - b) for a, b in zip(tr.hs[-1], oracle[-1][0])) < 1e-12

    @pytest.mark.parametrize("T", [0, 1, 5])
    def test_feedback_is_bitwise_the_per_step_loop(self, T):
        # with V, step t's input is xs[t] + V @ h_{t-1}, formed within the
        # step; the caller's rows, in either memory order, are read, not
        # written
        p, rng = random_params(3, 4, seed=21)
        V = rng.uniform(-0.4, 0.4, size=(3, 4))
        given = rng.normal(size=(T, 3))
        want = feedback_loop(p, given, V)
        for below in (given.copy(), np.asfortranarray(given)):
            tr = sequence_forward(p, below, V)
            for name in ("x", "a", "cs", "hs"):
                np.testing.assert_array_equal(getattr(tr, name),
                                              getattr(want, name))
            np.testing.assert_array_equal(below, given)

    def test_determinism(self):
        p, rng = random_params(3, 4, seed=13)
        xs = [rng.normal(size=3) for _ in range(4)]
        a = sequence_forward(p, xs)
        b = sequence_forward(p, xs)
        for name in ("x", "a", "cs", "hs"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def weight_grads(tr, da):
    """(dWx, dWh, db): the weight gradients of sequence_backward's da rows
    over the trace they came from."""
    return da.T @ tr.x, da.T @ tr.hs[:-1], da.sum(axis=0)


def seq_loss(p, xs, dh_seq):
    """Scalar objective: weighted sum of hidden outputs, so its analytic
    gradient is exactly sequence_backward's."""
    return sum(float(w @ h)
               for w, h in zip(dh_seq, sequence_forward(p, xs).hs[1:]))


class TestSequenceBackward:
    def test_zero_upstream_gives_zero_grads(self):
        p, rng = random_params(3, 4, seed=14)
        xs = [rng.normal(size=3) for _ in range(3)]
        traces = sequence_forward(p, xs)
        da, dx = sequence_backward(p, traces, [np.zeros(4)] * 3)
        np.testing.assert_array_equal(da, np.zeros((3, 16)))
        np.testing.assert_array_equal(dx, np.zeros((3, 3)))

    def test_scalar_output_gate_bias_symbolic(self):
        # T=1, D=H=1: h = sigmoid(a_o) * tanh(c); with x=h_prev=c_prev
        # fixed, d h / d b_o = s(a_o)(1 - s(a_o)) * tanh(c)
        p, rng = random_params(1, 1, seed=15)
        x = np.array([0.3])
        tr = sequence_forward(p, [x])
        da, _ = sequence_backward(p, tr, [np.ones(1)])
        a_o = p.Wx[2, 0] * x[0] + p.b[2]
        s = 1.0 / (1.0 + math.exp(-a_o))
        expected = s * (1.0 - s) * math.tanh(tr.cs[1, 0])
        assert abs(da[0, 2] - expected) < 1e-14

    def test_matches_finite_differences(self):
        p, rng = random_params(5, 6, seed=16)
        xs = [rng.normal(size=5) for _ in range(4)]
        dh_seq = [rng.normal(size=6) for _ in range(4)]

        traces = sequence_forward(p, xs)
        da, dx = sequence_backward(p, traces, dh_seq)

        def loss():
            return seq_loss(p, xs, dh_seq)

        for analytic, arr in zip(weight_grads(traces, da), (p.Wx, p.Wh, p.b)):
            numeric = central_difference_grad(loss, arr)
            assert max_rel_err(analytic, numeric) < 1e-5
        for t in range(4):
            numeric = central_difference_grad(loss, xs[t])
            assert max_rel_err(dx[t], numeric) < 1e-5

    def test_gradcheck_twenty_seeds(self):
        # block-level agreement: the largest discrepancy in a block against
        # the block's gradient scale (per-coordinate ratios are dominated by
        # finite-difference noise at the many near-zero coordinates)
        for seed in range(20):
            p, rng = random_params(3, 4, seed=100 + seed)
            xs = [rng.normal(size=3) for _ in range(5)]
            dh_seq = [rng.normal(size=4) for _ in range(5)]
            traces = sequence_forward(p, xs)
            da, _ = sequence_backward(p, traces, dh_seq)

            def loss():
                return seq_loss(p, xs, dh_seq)

            for analytic, arr in zip(weight_grads(traces, da),
                                     (p.Wx, p.Wh, p.b)):
                numeric = central_difference_grad(loss, arr)
                err = np.max(np.abs(analytic - numeric))
                scale = max(np.max(np.abs(analytic)),
                            np.max(np.abs(numeric)), 1e-8)
                assert err / scale < 1e-5, f"seed {seed}: {err / scale}"

    def test_truncation_consistency(self):
        # zero upstream grads past step k contribute nothing to dWx/dWh/db
        p, rng = random_params(3, 4, seed=18)
        xs = [rng.normal(size=3) for _ in range(6)]
        dh_seq = [rng.normal(size=4) for _ in range(6)]
        k = 3
        truncated = [d if t < k else np.zeros(4) for t, d in enumerate(dh_seq)]

        tr = sequence_forward(p, xs)
        short = LstmTrace(tr.x[:k], tr.a[:k], tr.cs[:k + 1], tr.hs[:k + 1])
        g_full = weight_grads(tr, sequence_backward(p, tr, truncated)[0])
        g_short = weight_grads(short,
                               sequence_backward(p, short, dh_seq[:k])[0])
        for full, part in zip(g_full, g_short):
            np.testing.assert_allclose(full, part, rtol=0, atol=1e-15)

    def test_feedback_input_matches_finite_differences(self):
        # the cell's input reads its own previous state,
        # u_t = U x_t + V h_{t-1}: both halves of the recurrence take V
        p, rng = random_params(3, 4, seed=20)
        U = rng.uniform(-0.4, 0.4, size=(3, 5))
        V = rng.uniform(-0.4, 0.4, size=(3, 4))
        xs = [rng.normal(size=5) for _ in range(5)]
        dh_seq = [rng.normal(size=4) for _ in range(5)]

        def forward():
            return sequence_forward(p, [U @ x for x in xs], V)

        def loss():
            return sum(float(w @ h) for w, h in zip(dh_seq, forward().hs[1:]))

        tr = forward()
        da, dx = sequence_backward(p, tr, dh_seq, V=V)
        blocks = (*zip(weight_grads(tr, da), (p.Wx, p.Wh, p.b)),
                  (dx.T @ np.array(xs), U), (dx.T @ tr.hs[:-1], V))
        for analytic, arr in blocks:
            numeric = central_difference_grad(loss, arr)
            err = np.max(np.abs(analytic - numeric))
            assert err / np.max(np.abs(numeric)) < 1e-6

    def test_length_mismatch(self):
        p = zeros_lstm(2, 3)
        traces = sequence_forward(p, [np.zeros(2)] * 2)
        with pytest.raises(ShapeError):
            sequence_backward(p, traces, [np.zeros(3)])
