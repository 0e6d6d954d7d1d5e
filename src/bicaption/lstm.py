"""Single-direction LSTM cell: forward recurrence and its analytic backward pass.

The four gates are packed into one 4H-row block in fixed order (i, f, o, g).
A step's input drive Wx @ x + b does not read the carried state, so a
caller forms it for all the rows it has at once (`input_drive`): a whole
sequence in `sequence_forward`, the live hypotheses of a decoding step.
The step itself adds Wh @ h_prev and runs the gate arithmetic. Step traces
keep every intermediate needed by the backward pass, so nothing is
recomputed during backpropagation through time except tanh(c), which is
cheap. A backward step mutates nothing: it returns its gate gradient, and
the weight and input gradients are formed once per sequence from those
stacked rows.

`sequence_forward` and `sequence_backward` are the one recurrence of both
LSTM layers, text and multimodal, in every architecture. Only the
bi-s-lstm forward pass steps its multimodal cell through `model.step`,
because that cell's input reads its own previous hidden state;
`sequence_backward` takes that feedback matrix.
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
class LstmStepTrace:
    """One step's record: gate activations plus the states that produced them."""

    x: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    h: np.ndarray
    c_prev: np.ndarray
    h_prev: np.ndarray


@dataclass
class LstmGrads:
    """Parameter gradients summed over time, plus per-step input gradients
    (one row per step)."""

    dWx: np.ndarray
    dWh: np.ndarray
    db: np.ndarray
    dx_seq: np.ndarray


def input_drive(p: LstmParams, x: np.ndarray) -> np.ndarray:
    """Wx @ x + b, the part of the gate pre-activations that does not read
    the carried state, for a vector or for (T, D) rows in one product."""
    return matvec(p.Wx, x) + p.b


def cell_forward(p: LstmParams, x: np.ndarray, drive: np.ndarray,
                 h_prev: np.ndarray, c_prev: np.ndarray) -> LstmStepTrace:
    """One gated update from the step's input drive (`input_drive` of x,
    formed by the caller): a = drive + Wh @ h_prev, i,f,o = sigmoid gates,
    g = tanh candidate, c = f*c_prev + i*g, h = o*tanh(c). x is kept for the
    weight gradients. x, drive, h_prev and c_prev are vectors, or (B, .)
    batches of rows that each step one sequence; the trace then holds rows
    too."""
    H = p.hidden_dim
    if x.shape[-1] != p.input_dim or drive.shape[-1] != 4 * H:
        raise ShapeError(
            f"cell input/drive have len {x.shape[-1]}/{drive.shape[-1]}, "
            f"params expect {p.input_dim}/{4 * H}"
        )
    if h_prev.shape[-1] != H or c_prev.shape[-1] != H:
        raise ShapeError(
            f"state has len {h_prev.shape[-1]}/{c_prev.shape[-1]}, "
            f"params expect {H}"
        )
    a = drive + (p.Wh @ h_prev if h_prev.ndim == 1 else matvec(p.Wh, h_prev))
    gates = sigmoid(a[..., :3 * H])  # one call for the three sigmoid gates
    i = gates[..., :H]
    f = gates[..., H:2 * H]
    o = gates[..., 2 * H:]
    g = tanh_act(a[..., 3 * H:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return LstmStepTrace(x=x, i=i, f=f, o=o, g=g, c=c, h=h,
                         c_prev=c_prev, h_prev=h_prev)


def sequence_forward(p: LstmParams, xs) -> list[LstmStepTrace]:
    """Run the cell over a sequence of inputs ((T, D) rows, or a list of
    vectors) from a zero initial state. The input drives of all steps are
    one product; only Wh @ h runs step by step."""
    if len(xs) == 0:
        return []
    xs = np.asarray(xs, dtype=np.float64)
    h = c = np.zeros(p.hidden_dim)
    traces = []
    for x, drive in zip(xs, input_drive(p, xs)):
        tr = cell_forward(p, x, drive, h, c)
        traces.append(tr)
        h, c = tr.h, tr.c
    return traces


def hidden_rows(traces, hidden_dim: int) -> np.ndarray:
    """The hidden states of a sequence's step traces as (T, H) rows."""
    return np.array([tr.h for tr in traces]).reshape(len(traces), hidden_dim)


def cell_backward(p: LstmParams, trace: LstmStepTrace, dh: np.ndarray,
                  dc: np.ndarray):
    """Backward through one step. Returns (da, dh_prev, dc_prev), where da
    is the gradient of the gate pre-activations; the weight and input
    gradients are formed once per sequence from the stacked da rows."""
    H = p.hidden_dim
    tanh_c = np.tanh(trace.c)
    do = dh * tanh_c
    dc_total = dc + dh * trace.o * (1.0 - tanh_c * tanh_c)
    df = dc_total * trace.c_prev
    di = dc_total * trace.g
    dg = dc_total * trace.i
    dc_prev = dc_total * trace.f

    da = np.empty(4 * H)
    da[:H] = di * trace.i * (1.0 - trace.i)
    da[H:2 * H] = df * trace.f * (1.0 - trace.f)
    da[2 * H:3 * H] = do * trace.o * (1.0 - trace.o)
    da[3 * H:] = dg * (1.0 - trace.g * trace.g)
    return da, p.Wh.T @ da, dc_prev


def weight_grads(traces, da: np.ndarray, dWx: np.ndarray):
    """(dWx, dWh, db) summed over a sequence: one product each of the
    (T, 4H) gate gradients with the stacked step inputs and previous
    hidden states; dWx is written into `dWx`, as wide as the inputs."""
    T, H = len(traces), da.shape[1] // 4
    xs = np.array([tr.x for tr in traces]).reshape(T, dWx.shape[1])
    h_prevs = np.array([tr.h_prev for tr in traces]).reshape(T, H)
    return np.matmul(da.T, xs, out=dWx), da.T @ h_prevs, da.sum(axis=0)


def sequence_backward(p: LstmParams, traces, dh_seq, dWx=None,
                      V=None) -> LstmGrads:
    """Backpropagation through time over a recorded forward pass.

    dh_seq[t] is the loss gradient flowing into h_t from layers above. The
    input-weight gradient is written into `dWx` when given (a view of a
    wider block, say), else into a new array. V is given when the input reads the cell's own
    previous state, x_t = U @ below_t + V @ h_{t-1}: each step's input
    gradient Wx.T @ da_t then also flows into h_{t-1} as V.T @ dx_t.
    Without V, the input gradients are one product after the loop.
    """
    if len(traces) != len(dh_seq):
        raise ShapeError(
            f"{len(traces)} traces but {len(dh_seq)} upstream gradients"
        )
    T, H = len(traces), p.hidden_dim
    da = np.empty((T, 4 * H))
    dx = np.empty((T, p.input_dim))
    dh_carry = np.zeros(H)
    dc_carry = np.zeros(H)
    for t in range(T - 1, -1, -1):
        da[t], dh_carry, dc_carry = cell_backward(
            p, traces[t], dh_seq[t] + dh_carry, dc_carry)
        if V is not None:
            dx[t] = p.Wx.T @ da[t]
            dh_carry = dh_carry + V.T @ dx[t]
    if V is None:
        np.matmul(da, p.Wx, out=dx)
    if dWx is None:
        dWx = np.empty_like(p.Wx)
    return LstmGrads(*weight_grads(traces, da, dWx), dx)
