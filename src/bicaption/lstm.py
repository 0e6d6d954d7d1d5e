"""Single-direction LSTM cell: forward recurrence and its analytic backward pass.

The four gates are packed into one 4H-row block in fixed order (i, f, o, g),
so a step costs two matvecs. Step traces keep every intermediate needed by
the backward pass, so nothing is recomputed during backpropagation through
time except tanh(c), which is cheap.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .numcore import sigmoid, tanh_act


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

    def copy(self) -> "LstmParams":
        return LstmParams(self.Wx.copy(), self.Wh.copy(), self.b.copy())


def zeros_lstm(input_dim: int, hidden_dim: int) -> LstmParams:
    return LstmParams(
        Wx=np.zeros((4 * hidden_dim, input_dim)),
        Wh=np.zeros((4 * hidden_dim, hidden_dim)),
        b=np.zeros(4 * hidden_dim),
    )


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
    """Parameter gradients summed over time, plus per-step input gradients."""

    dWx: np.ndarray
    dWh: np.ndarray
    db: np.ndarray
    dx_seq: list = field(default_factory=list)
    dh0: np.ndarray | None = None
    dc0: np.ndarray | None = None


def zero_grads(p: LstmParams) -> LstmGrads:
    return LstmGrads(
        dWx=np.zeros_like(p.Wx),
        dWh=np.zeros_like(p.Wh),
        db=np.zeros_like(p.b),
    )


def cell_forward(p: LstmParams, x: np.ndarray, h_prev: np.ndarray,
                 c_prev: np.ndarray) -> LstmStepTrace:
    """One gated update: i,f,o = sigmoid gates, g = tanh candidate,
    c = f*c_prev + i*g, h = o*tanh(c)."""
    if x.shape[0] != p.input_dim:
        raise ShapeError(
            f"cell input has len {x.shape[0]}, params expect {p.input_dim}"
        )
    if h_prev.shape[0] != p.hidden_dim or c_prev.shape[0] != p.hidden_dim:
        raise ShapeError(
            f"state has len {h_prev.shape[0]}/{c_prev.shape[0]}, "
            f"params expect {p.hidden_dim}"
        )
    H = p.hidden_dim
    a = p.Wx @ x + p.Wh @ h_prev + p.b
    gates = sigmoid(a[:3 * H])  # one call for the three sigmoid gates
    i = gates[:H]
    f = gates[H:2 * H]
    o = gates[2 * H:]
    g = tanh_act(a[3 * H:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return LstmStepTrace(x=x, i=i, f=f, o=o, g=g, c=c, h=h,
                         c_prev=c_prev, h_prev=h_prev)


def sequence_forward(p: LstmParams, xs, h0: np.ndarray | None = None,
                     c0: np.ndarray | None = None) -> list[LstmStepTrace]:
    """Run the cell over a sequence; initial state defaults to zeros."""
    h = np.zeros(p.hidden_dim) if h0 is None else h0
    c = np.zeros(p.hidden_dim) if c0 is None else c0
    traces = []
    for x in xs:
        tr = cell_forward(p, x, h, c)
        traces.append(tr)
        h, c = tr.h, tr.c
    return traces


def cell_backward(p: LstmParams, trace: LstmStepTrace, dh: np.ndarray,
                  dc: np.ndarray, grads: LstmGrads):
    """Backward through one step. Accumulates dWx/dWh/db into `grads` and
    returns (dx, dh_prev, dc_prev)."""
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

    grads.dWx += np.outer(da, trace.x)
    grads.dWh += np.outer(da, trace.h_prev)
    grads.db += da
    dx = p.Wx.T @ da
    dh_prev = p.Wh.T @ da
    return dx, dh_prev, dc_prev


def sequence_backward(p: LstmParams, traces, dh_seq, dh_final=None,
                      dc_final=None) -> LstmGrads:
    """Backpropagation through time over a recorded forward pass.

    dh_seq[t] is the loss gradient flowing into h_t from layers above;
    dh_final/dc_final are extra gradients into the last step's state.
    """
    if len(traces) != len(dh_seq):
        raise ShapeError(
            f"{len(traces)} traces but {len(dh_seq)} upstream gradients"
        )
    grads = zero_grads(p)
    H = p.hidden_dim
    dh_carry = np.zeros(H) if dh_final is None else dh_final.copy()
    dc_carry = np.zeros(H) if dc_final is None else dc_final.copy()
    dx_rev = []
    for t in range(len(traces) - 1, -1, -1):
        dh = dh_seq[t] + dh_carry
        dx, dh_carry, dc_carry = cell_backward(p, traces[t], dh, dc_carry, grads)
        dx_rev.append(dx)
    grads.dx_seq = dx_rev[::-1]
    grads.dh0 = dh_carry
    grads.dc0 = dc_carry
    return grads
