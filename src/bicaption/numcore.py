"""Dense numeric primitives shared by every other module.

Conventions: a matrix is a C-contiguous 2-D float64 ndarray (row-major, which
is also the on-disk checkpoint layout), a vector is a 1-D float64 ndarray.
All functions are pure; none mutate their inputs.
"""

import numpy as np

from .errors import ShapeError


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with an explicit shape check."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(
            f"matvec shape mismatch: matrix {m.shape} vs vector {v.shape}"
        )
    return m @ v


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
    """Shift-invariant softmax; output is a probability vector."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("softmax of an empty vector")
    e = np.exp(z - np.max(z))
    return e / e.sum()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(logits)) via log-sum-exp, safe for long-sequence sums."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("log_softmax of an empty vector")
    m = z.max()
    return z - (m + np.log(np.exp(z - m).sum()))
