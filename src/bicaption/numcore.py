"""Dense numeric primitives shared by every other module.

Conventions: a matrix is a C-contiguous 2-D float64 ndarray (row-major, which
is also the on-disk checkpoint layout), a vector is a 1-D float64 ndarray.
matvec, softmax and log_softmax also take a (B, n) batch of rows in place of
a vector and treat each row as that vector (their shape checks read the last
axis); the elementwise functions take any shape (sigmoid one of at least
one axis, since it works in place on its one array). A row of softmax or
log_softmax is bitwise the vector call's result. A row of matvec is not: a
matrix product rounds differently from a matrix-vector product, so the two
agree within 1e-12 relative.
All functions are pure; none mutate their inputs.

Importing this module also keeps freed heap memory mapped on glibc, and
caps its heaps at two (see `_keep_freed_memory_mapped`).
"""

import ctypes
import math
import platform

import numpy as np

from .errors import ShapeError


# A few rows against a tall matrix run as products with row panels of it.
# Measured with OpenBLAS 0.3.31 on one thread (run-time core SkylakeX; the
# build's is Haswell): one product of 2-7 rows costs as much as a
# matrix-vector product per row or more, and 128-row panels cost 1.4-2.3x
# less at heights 1000-4000 and widths 256-1000, ~3 us more at 256x256 and
# 2-4 rows. Panels lose at 1 row and at 8 rows of width 1000, where rows x
# 128 x width passes 1e6 (consistent with the size limit of OpenBLAS's
# small-matrix kernel); teacher-forced sequences of 9+ rows keep one product.
PANEL_HEIGHT = 128
PANEL_MAX_ROWS = 7

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory_mapped() -> None:
    """Serve arrays below 32 MiB from the heap, and give its free top back
    to the kernel only above 1 GiB. A training batch frees its dense mean
    gradients and its examples' gradient rows (~47 and ~14 MB for 8
    bi-f-lstm examples at V=2000, F=1024, E=H=256). With glibc's defaults
    the heap top is trimmed after each batch and the next batch faults it
    back in: ~10k minor faults per such batch, ~9k in the mean (glibc 2.36,
    2-core Xeon), at most ~70 with these settings. Arrays of 32 MiB or more
    are still mapped fresh on each allocation. Also keeps to two heaps
    (arenas): the main one and one for the worker thread that `train`
    starts per call. A worker that starts before the last one has handed
    its heap back would otherwise make a third, which held `train-mid`'s
    peak RSS 5 MB higher in 2 of 6 runs. Does nothing on other libcs."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_ARENA_MAX, 2)


_keep_freed_memory_mapped()


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with an explicit shape check; for a batch of
    rows, the product of each row (one row of the result each). A vector's
    product is `m.dot(v)`, bitwise `m @ v` and cheaper to call. 2 to
    PANEL_MAX_ROWS rows against a matrix taller than PANEL_HEIGHT are
    multiplied one row panel of the matrix at a time."""
    if m.ndim != 2 or v.ndim not in (1, 2) or m.shape[1] != v.shape[-1]:
        raise ShapeError(
            f"matvec shape mismatch: matrix {m.shape} vs vector {v.shape}"
        )
    if v.ndim == 1:
        return m.dot(v)
    if len(m) <= PANEL_HEIGHT or not 2 <= len(v) <= PANEL_MAX_ROWS:
        return v @ m.T
    out = np.empty((len(v), len(m)))
    for s in range(0, len(m), PANEL_HEIGHT):
        e = s + PANEL_HEIGHT
        np.matmul(v, m[s:e].T, out=out[:, s:e])
    return out


# Float64 elements per slab: 256 KiB, so a slab of every operand of an
# update or a check stays inside a 2 MiB L2 while it is worked on.
SLAB_SIZE = 1 << 15


def slabs(shape: tuple[int, ...]) -> list[slice]:
    """Leading-axis slices that cover an array of this shape in slabs of at
    most SLAB_SIZE elements, or of one leading index where that is larger.
    A leading-axis slice is a view whatever the strides, so an in-place
    operation on it writes through to the array."""
    rows = max(1, SLAB_SIZE // max(1, math.prod(shape[1:])))
    return [slice(s, s + rows) for s in range(0, shape[0], rows)]


def all_finite(a: np.ndarray) -> bool:
    """True when no element of `a` is NaN or infinite; read slab by slab."""
    return all(np.isfinite(a[s]).all() for s in slabs(a.shape))


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function 1/(1 + exp(-v)), formed as
    1/2 + tanh(v/2)/2, which cannot overflow: one fresh array holds v/2,
    then its tanh, then that scaled and shifted in place. Within 2.5e-16
    absolute of the logistic function; results below ~1e-16 round to
    multiples of 2^-54 or to 0 (sigmoid(-40) is 0, not 4.2e-18)."""
    s = np.multiply(v, 0.5)
    np.tanh(s, s)
    return np.add(np.multiply(s, 0.5, s), 0.5, s)


def tanh_act(v: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(v)


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
