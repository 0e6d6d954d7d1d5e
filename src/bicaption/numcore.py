"""Dense numeric primitives shared by every other module.

Conventions: a matrix is a C-contiguous 2-D float64 ndarray (row-major, which
is also the on-disk checkpoint layout), a vector is a 1-D float64 ndarray.
matvec, softmax and log_softmax also take a (B, n) batch of rows in place of
a vector and treat each row as that vector (their shape checks read the last
axis; a row's result is bitwise that of the vector call); the elementwise
functions take any shape.
All functions are pure; none mutate their inputs.
"""

import numpy as np

from .errors import ShapeError


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with an explicit shape check; for a batch of
    rows, the product of each row (one row of the result each)."""
    if m.ndim != 2 or v.ndim not in (1, 2) or m.shape[1] != v.shape[-1]:
        raise ShapeError(
            f"matvec shape mismatch: matrix {m.shape} vs vector {v.shape}"
        )
    return m @ v if v.ndim == 1 else v @ m.T


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, branched on sign so it never overflows."""
    v = np.asarray(v, dtype=np.float64)
    # exp is only ever taken of a non-positive argument; the result is
    # 1/(1+z) for v >= 0 and z/(1+z) otherwise
    z = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0, z) / (1.0 + z)


def tanh_act(v: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(np.asarray(v, dtype=np.float64))


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(0.0, np.asarray(v, dtype=np.float64))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax; output is a probability vector, one per row
    for a batch."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] == 0:
        raise ShapeError("softmax of an empty vector")
    zt = z.T  # as in log_softmax: each reduction over axis 0
    e = np.exp(zt - np.maximum.reduce(zt))
    return (e / np.add.reduce(e)).T


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(logits)) via log-sum-exp, safe for long-sequence sums;
    row by row for a batch."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] == 0:
        raise ShapeError("log_softmax of an empty vector")
    zt = z.T  # a batch's rows as columns, so each reduction over axis 0
    m = np.maximum.reduce(zt)  # broadcasts back along its column
    return (zt - (m + np.log(np.add.reduce(np.exp(zt - m))))).T
