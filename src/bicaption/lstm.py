"""Single-direction LSTM cell: forward recurrence and its analytic backward pass.

The four gates are packed into one 4H-row block in fixed order (i, f, o, g).
A step's input drive Wx @ x + b does not read the carried state, so a
caller forms it for all the rows it has at once (`input_drive`): a whole
sequence in `sequence_forward`, the live hypotheses of a decoding step.
The step itself adds Wh @ h_prev and runs the gate arithmetic.

A sequence's forward pass is one `LstmTrace` of four row blocks: the inputs
x (T, D), the gate pre-activations a (T, 4H), and the cell and hidden
states cs/hs (T+1, H), whose zero first row is the initial state, so the
previous states are the shifted views cs[:-1]/hs[:-1]. A step writes only
its a, c and h rows. The gate activations are not stored: `gates(a)` forms
them again, for the backward pass over all steps at once and for gate
traces. Every gate function is elementwise, so the activations it forms on
a row of a (T, 4H) block are bit for bit those the step formed on that row
alone. The backward pass forms every factor that does not read the carried
gradients once per sequence, as row blocks: o * (1 - tanh(c)^2) (T, H)
and da's factor (T, 4H); a step only multiplies the carried dh and dc by
its rows of them. It returns rows, from which `train.accumulate_grads`
forms each weight gradient as one product over a whole batch.

`sequence_forward` and `sequence_backward` are the one recurrence of both
LSTM layers, text and multimodal, in every architecture. Where a cell's
input reads its own previous hidden state (the bi-s-lstm multimodal
cell), both take that feedback matrix V.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numcore import matvec, sigmoid, tanh_act


@dataclass
class LstmParams:
    """Cell weights: Wx (4H x D), Wh (4H x H), b (4H), gate rows i,f,o,g."""

    Wx: np.ndarray
    Wh: np.ndarray
    b: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.Wx.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.Wh.shape[1]


@dataclass
class LstmTrace:
    """One sequence's forward pass in rows: the inputs x (T, D), the gate
    pre-activations a (T, 4H), and the cell and hidden states cs/hs
    (T+1, H), whose first row is the zero initial state."""

    x: np.ndarray
    a: np.ndarray
    cs: np.ndarray
    hs: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


def input_drive(p: LstmParams, x: np.ndarray) -> np.ndarray:
    """Wx @ x + b, the part of the gate pre-activations that does not read
    the carried state, for a vector or for (T, D) rows in one product."""
    return matvec(p.Wx, x) + p.b


def gates(a: np.ndarray):
    """(i, f, o, g) of gate pre-activations, a 4H vector or (., 4H) rows:
    the sigmoid of the first three H-wide blocks, in one call, and the tanh
    of the last."""
    H = a.shape[-1] // 4
    s = sigmoid(a[..., :3 * H])
    return s[..., :H], s[..., H:2 * H], s[..., 2 * H:], tanh_act(a[..., 3 * H:])


def cell_forward(p: LstmParams, a: np.ndarray, h_prev: np.ndarray,
                 c_prev: np.ndarray, h: np.ndarray, c: np.ndarray) -> None:
    """One gated update, written into storage the caller owns. `a` holds
    the step's input drive (`input_drive` of its input, formed by the
    caller) and is completed in place to the gate pre-activations,
    a += Wh @ h_prev; then, with (i, f, o, g) = gates(a), h and c receive
    h = o*tanh(c) and c = f*c_prev + i*g. The state and the outputs are
    vectors, or (B, H) rows that each step one sequence, all of one shape,
    and `a` is their (., 4H) drive; anything else is refused before a write.
    Nothing outside a, h and c is written, and the arithmetic is bitwise
    the expressions above."""
    H = p.Wh.shape[1]
    state = c_prev.shape
    if (a.shape != state[:-1] + (4 * H,) or state[-1] != H
            or not h_prev.shape == h.shape == c.shape == state):
        raise ShapeError(
            f"cell of hidden size {H} got drive {a.shape}, state "
            f"{h_prev.shape}/{state} and outputs {h.shape}/{c.shape}")
    a += p.Wh.dot(h_prev) if h_prev.ndim == 1 else matvec(p.Wh, h_prev)
    i, f, o, g = gates(a)
    np.multiply(f, c_prev, c)
    np.multiply(g, i, g)  # g is gates' own array, not a view of a
    np.add(c, g, c)
    np.tanh(c, h)
    np.multiply(h, o, h)


def sequence_forward(p: LstmParams, xs, V=None) -> LstmTrace:
    """Run the cell over a sequence of inputs ((T, D) rows, or a list of
    vectors) from a zero initial state. The input drives of all steps are
    one product, written into the pre-activation rows that each step
    completes with its Wh @ h; each step writes its states straight into
    the trace's next rows. V is given when the input reads the cell's own
    previous state: step t's input is then xs[t] + V @ h_{t-1}, and its
    drive Wx @ x_t + b, each formed within the step straight into its
    trace row."""
    T, H = len(xs), p.hidden_dim
    x = np.asarray(xs, dtype=np.float64) if T else np.empty((0, p.input_dim))
    cs, hs = np.zeros((T + 1, H)), np.zeros((T + 1, H))
    if V is None:
        a = input_drive(p, x)
    else:
        below, x, a = x, np.empty(x.shape), np.empty((T, 4 * H))
    for t in range(T):
        if V is not None:
            np.add(np.dot(V, hs[t], out=x[t]), below[t], out=x[t])
            np.add(np.dot(p.Wx, x[t], out=a[t]), p.b, out=a[t])
        cell_forward(p, a[t], hs[t], cs[t], hs[t + 1], cs[t + 1])
    return LstmTrace(x, a, cs, hs)


def cell_backward(p: LstmParams, rows, dh: np.ndarray, dc: np.ndarray):
    """Backward through one step, from its rows of the factors that
    `sequence_backward` forms once per sequence: (o * (1 - tanh(c)^2), f,
    and da's 4H-wide factor). Only the products with the carried dh and dc
    are left. Returns (da, dh_prev, dc_prev), where da is the gradient of
    the gate pre-activations."""
    o_dtanh_c, f, da_factor = rows
    dc_total = dc + dh * o_dtanh_c
    da = np.concatenate((dc_total, dc_total, dh, dc_total)) * da_factor
    return da, p.Wh.T @ da, dc_total * f


def sequence_backward(p: LstmParams, tr: LstmTrace, dh_seq, V=None):
    """Backpropagation through time over a recorded forward pass.

    dh_seq[t] is the loss gradient flowing into h_t from layers above.
    Returns the rows (da, dx): da[t] is the gradient of step t's gate
    pre-activations and dx[t] that of its input. The weight gradients are
    da.T @ tr.x (Wx), da.T @ tr.hs[:-1] (Wh) and da's column sum (b). V is
    given when the input reads the cell's own previous state,
    x_t = U @ below_t + V @ h_{t-1}: each step's input gradient
    Wx.T @ da_t then also flows into h_{t-1} as V.T @ dx_t. Without V, the
    input gradients are one product after the loop.
    """
    T, H = len(tr), p.hidden_dim
    if len(dh_seq) != T:
        raise ShapeError(f"{T} steps but {len(dh_seq)} upstream gradients")
    i, f, o, g = gates(tr.a)
    tanh_c = np.tanh(tr.cs[1:])
    o_dtanh_c = o * (1.0 - tanh_c * tanh_c)
    # A gate's da is its output's gradient (dc_total, or dh for o) times its
    # factor: the value the gate multiplies in the forward pass, times
    # s * (1 - s). The candidate g's is i * (1 - g*g).
    s = np.concatenate((i, f, o), axis=1)
    da_factor = np.concatenate((g, tr.cs[:-1], tanh_c, i), axis=1)
    da_factor[:, :3 * H] *= s * (1.0 - s)
    da_factor[:, 3 * H:] *= 1.0 - g * g
    da = np.empty((T, 4 * H))
    dx = np.empty((T, p.input_dim))
    dh_carry = np.zeros(H)
    dc_carry = np.zeros(H)
    for t in reversed(range(T)):
        da[t], dh_carry, dc_carry = cell_backward(
            p, (o_dtanh_c[t], f[t], da_factor[t]), dh_seq[t] + dh_carry,
            dc_carry)
        if V is not None:
            dx[t] = p.Wx.T @ da[t]
            dh_carry = dh_carry + V.T @ dx[t]
    if V is None:
        np.matmul(da, p.Wx, out=dx)
    return da, dx
