"""Joint two-direction training: SGD with momentum and weight decay over
the summed forward+backward cross-entropy loss, plus the finite-difference
gradient checker used to validate the analytic backward pass. An example's
gradients are groups of rows (`model.model_backward`), each naming the
blocks that share its left factor; `accumulate_grads` alone makes them
dense, per batch.

An example's two reading directions share nothing until their losses are
summed and their gradient rows listed, so `joint_loss` and
`joint_backward` run them on two threads when the model is wide enough
and the process may use two CPUs (`_both_directions`). No block of a
batch's mean or of an update reads another, so `accumulate_grads` and
each phase of `sgd_step` (checks, then update) work their blocks in two
shares of about equal cost on two threads when the model is large enough
(`_in_two_shares`), allocating every dense block on the calling thread.
BLAS keeps one thread per call and no result depends on the thread it is
formed on, so every result is bitwise the sequential one.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .data import BOUNDARY_ID, CaptionedExample
from .errors import ConfigError, DataError, ShapeError, TrainingError
from .lstm import sequence_forward
from .model import (ArchitectureKind, BACKWARD, CaptionModel,
                    DIRECTION_PREFIX, FORWARD, ForwardPassRecord, Scatter,
                    direction_forward, image_input, is_bias_block,
                    model_backward, softmax_logits, unroll)
from .numcore import SLAB_SIZE, all_finite, log_softmax, slabs


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 16
    max_epochs: int = 50
    early_stop_patience: int | None = 5
    grad_clip: float | None = None
    seed: int = 0

    def validate(self) -> None:
        # each check is written so that NaN fails it
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, "
                              f"got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.early_stop_patience is not None and self.early_stop_patience < 0:
            raise ConfigError("early_stop_patience must be >= 0 or None")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainState:
    model: CaptionModel
    velocity: dict[str, np.ndarray]
    epoch: int = 0
    best_val_loss: float = math.inf
    epochs_since_best: int = 0
    best_model: CaptionModel | None = None
    updates: int = 0


def make_state(model: CaptionModel) -> TrainState:
    velocity = {name: np.zeros_like(arr) for name, arr in model.blocks()}
    return TrainState(model=model, velocity=velocity)


def direction_io(tokens, direction: str) -> tuple[list[int], list[int]]:
    """Inputs start with the boundary token; targets end with it. The
    backward direction reads the caption reversed."""
    seq = list(tokens) if direction == FORWARD else list(reversed(tokens))
    return [BOUNDARY_ID] + seq, seq + [BOUNDARY_ID]


@dataclass
class JointLoss:
    loss_fwd: float
    loss_bwd: float

    @property
    def total(self) -> float:
        return self.loss_fwd + self.loss_bwd


def _target_nll(logits: np.ndarray, targets) -> float:
    """Negated sum of the targets' log-probabilities under (T, V) logits:
    one row-wise log-sum-exp (never the log of a saturated softmax), read at
    the targets and summed in step order."""
    return -sum(log_softmax(logits)[np.arange(len(targets)), targets])


def _direction_pass(m: CaptionModel, ex: CaptionedExample,
                    direction: str) -> tuple[ForwardPassRecord, list[int], float]:
    inputs, targets = direction_io(ex.tokens, direction)
    rec = direction_forward(m, direction, inputs, ex.feature)
    return rec, targets, _target_nll(rec.logits, targets)


# From this hidden size up, an example's two directions run on two threads.
# Measured with OpenBLAS 0.3.31 on one thread (2-core Xeon, 12-token
# caption), sequential time over two-thread time: joint_backward 0.40-0.46
# at H=16, 0.58-0.70 at 64, 0.90-0.95 at 128, 1.07-1.10 at 160, 1.26-1.44
# at 192 and 1.38-1.43 at 256; joint_loss 0.43 at 16, 1.30 at 128, 1.36 at
# 192 and 1.64 at 256. Below 192 the threads gain little or lose, mostly
# waiting on the GIL. On one CPU (taskset -c 0) they lose: 0.89 at 192,
# 0.98 at 256. At paper size (bi-f-lstm, V=2500, F=4096, E=H=1000) joint_backward
# took 254.9 ms in order and 149.5 ms on two threads.
CONCURRENT_MIN_HIDDEN = 192


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two_shares(large: bool, work, items, costs, prepare=None):
    """work(items) when not `large` (tested first, so a small model makes
    no system call) or with one CPU to run on. Otherwise work(items[:k]) +
    work(items[k:]), k leaving the shares' costs closest: the second share
    runs on a second thread, in a copy of the caller's context (numpy's
    errstate lives there), after prepare(items[k:]) on this one, which then
    runs the first; the thread is joined before this returns or raises. An
    error of the first share wins over the second's, as it does in order."""
    if not large or _usable_cpus() < 2:
        return work(items)
    k = min(range(len(items) + 1),
            key=lambda j: abs(sum(costs) - 2 * sum(costs[:j])))
    if prepare is not None:
        prepare(items[k:])
    second = []  # its result, or the error it raised

    def run_second():
        try:
            second.append(work(items[k:]))
        except BaseException as e:  # re-raised by the caller
            second.append(e)

    worker = threading.Thread(target=contextvars.copy_context().run,
                              args=(run_second,))
    worker.start()
    try:
        first = work(items[:k])
    finally:
        worker.join()
    if isinstance(second[0], BaseException):
        raise second[0]
    return first + second[0]


def _both_directions(m: CaptionModel, fn):
    """(fn(FORWARD), fn(BACKWARD)), on two threads from
    CONCURRENT_MIN_HIDDEN up (`_in_two_shares`)."""
    return tuple(_in_two_shares(m.hidden_dim >= CONCURRENT_MIN_HIDDEN,
                                lambda dns: [fn(dn) for dn in dns],
                                [FORWARD, BACKWARD], [1, 1]))


# From this many gradient elements up, accumulate_grads and sgd_step work
# their blocks on two threads. Sequential time over two-thread time,
# bi-f-lstm batch of 8 with grad_clip, same host and BLAS as above, three
# runs, by model elements: accumulate_grads 0.45-0.59 at 11k, 0.77-1.13 at
# 0.25M, 0.81-1.11 at 0.42M, 0.97-1.42 at 0.80M, 0.91-1.52 at 1.0M,
# 1.35-1.77 at 2.6M and 1.49-1.94 at 5.9M; sgd_step 0.29-0.37, 0.53-0.75,
# 0.67-0.88, 0.84-1.13, 0.90-1.23, 1.25-1.44 and 1.34-1.50. At paper size
# (75M elements) accumulate_grads took 344-372 ms in order and 184-295 ms
# on two threads, sgd_step 361-429 and 247-278 ms.
CONCURRENT_MIN_ELEMENTS = 1 << 20

# A group of the mean costs about its size times (its stacked rows +
# _ROW_COST; a scatter's are 0). At V=2000, F=1024, H=256, batch 8: an LSTM
# group (104 rows, 0.5M elements) 3.4 ms, the image weight (8 rows, 1M)
# 1.3 ms, the softmax (208 rows, 0.5M) 6.6 ms, an embedding (0.5M) 0.9 ms.
_ROW_COST = 20


def joint_loss(m: CaptionModel, ex: CaptionedExample) -> JointLoss:
    """Summed cross-entropy of both reading directions for one example."""
    if not ex.tokens:
        raise DataError(f"example {ex.image_id!r} has an empty caption")
    lf, lb = _both_directions(m, lambda dn: _direction_pass(m, ex, dn)[2])
    return JointLoss(loss_fwd=lf, loss_bwd=lb)


def joint_backward(m: CaptionModel,
                   ex: CaptionedExample) -> tuple[JointLoss, list]:
    """Loss plus the joint loss's gradient rows: the forward direction's
    groups (`model.model_backward`), then the backward one's."""
    if not ex.tokens:
        raise DataError(f"example {ex.image_id!r} has an empty caption")

    def one_direction(direction):
        rec, targets, loss = _direction_pass(m, ex, direction)
        return loss, model_backward(m, rec, targets)

    (lf, gf), (lb, gb) = _both_directions(m, one_direction)
    return JointLoss(loss_fwd=lf, loss_bwd=lb), gf + gb


def mean_joint_loss(m: CaptionModel, examples) -> float:
    examples = list(examples)
    if not examples:
        raise DataError("cannot average loss over an empty example set")
    return sum(joint_loss(m, ex).total for ex in examples) / len(examples)


def _widths(i: int, groups) -> dict[str, list]:
    """Block name -> for each group that names it, the group's block names
    and the widths of its left and right rows (None for a bias), or a
    `Scatter`'s row width and column count. Refuses rows whose counts
    differ: a left's and a right's, or a `Scatter`'s rows and ids."""
    out = {}
    for g in groups:
        if isinstance(g, Scatter):
            if len(g.rows) != len(g.ids):
                raise ShapeError(f"gradient {i} block {g.name} has "
                                 f"{len(g.rows)} rows, {len(g.ids)} ids")
            if len(g.ids) and not (0 <= np.min(g.ids)
                                   <= np.max(g.ids) < g.columns):
                raise ShapeError(f"gradient {i} block {g.name} has ids "
                                 f"outside 0..{g.columns - 1}")
            out.setdefault(g.name, []).append((g.rows.shape[1:], g.columns))
            continue
        for name, right in g[1].items():
            if right is not None and len(right) != len(g[0]):
                raise ShapeError(f"gradient {i} block {name} has "
                                 f"{len(g[0])} left rows, {len(right)} right")
            out.setdefault(name, []).append((
                tuple(g[1]), g[0].shape[1:],
                None if right is None else right.shape[1:]))
    return out


def accumulate_grads(grad_list) -> dict[str, np.ndarray]:
    """Mean of per-example gradient rows (`joint_backward`) as dense
    blocks; the inputs are left unchanged. Every example must hold the
    first one's groups with rows of the first one's widths, and the rows
    of a group agree in count. The groups that
    name the same blocks are gathered in example order, forward before
    backward, and each factor is stacked once: a weight is then one product
    of its (left, right) pair, the smaller factor scaled by 1/B, a bias one
    sum, an embedding one scatter. The groups are formed costliest first,
    in two shares (`_in_two_shares`); every block is made on the calling
    thread, the worker's before it starts, this thread's as it goes."""
    if not grad_list:
        raise DataError("no gradients to accumulate")
    want = _widths(0, grad_list[0])
    for i, groups in enumerate(grad_list[1:], 1):
        got = _widths(i, groups)
        for name in {**want, **got}:  # the first example's names, then extras
            widths, first = (w.get(name, "absent") for w in (got, want))
            if widths != first:
                raise ShapeError(f"gradient {i} block {name} has rows "
                                 f"{widths}, gradient 0 {first}")
    gathered = {}
    for g in (g for groups in grad_list for g in groups):
        key = (g.name,) if isinstance(g, Scatter) else tuple(g[1])
        gathered.setdefault(key, []).append(g)
    scale, out, jobs, elements = 1.0 / len(grad_list), {}, [], 0
    for groups in gathered.values():
        g, rows = groups[0], 0
        if isinstance(g, Scatter):
            shapes = {g.name: (g.rows.shape[1], g.columns)}
        else:
            shapes = {name: g[0].shape[1:] + (() if r is None else r.shape[1:])
                      for name, r in g[1].items()}
            rows = sum(len(left) for left, _ in groups)
        size = sum(map(math.prod, shapes.values()))
        elements += size
        jobs.append((size * (rows + _ROW_COST), shapes, groups))

    def allocate(jobs):  # the blocks not made yet, on the calling thread
        for _, shapes, groups in jobs:
            for name, shape in shapes.items():
                if name not in out:
                    out[name] = (np.zeros if isinstance(groups[0], Scatter)
                                 else np.empty)(shape)

    def mean(jobs):
        for job in jobs:
            allocate([job])  # a worker's blocks were made before it started
            groups = job[2]
            g = groups[0]
            if isinstance(g, Scatter):
                np.add.at(out[g.name].T, np.concatenate([s.ids for s in groups]),
                          np.concatenate([s.rows for s in groups]) * scale)
                continue
            left = np.concatenate([left for left, _ in groups])
            for name, right in g[1].items():
                if right is None:
                    np.multiply(left.sum(axis=0), scale, out=out[name])
                    continue
                right = np.concatenate([rights[name] for _, rights in groups])
                np.matmul(*((left * scale).T, right) if left.size <= right.size
                          else (left.T, right * scale), out=out[name])
            left = right = None  # before the next group's stacks
        return []

    jobs.sort(key=lambda job: -job[0])  # stable: ties keep their order
    _in_two_shares(elements >= CONCURRENT_MIN_ELEMENTS, mean, jobs,
                   [cost for cost, _, _ in jobs], allocate)
    return {name: out[name] for names in gathered for name in names}


def sgd_step(state: TrainState, grads: dict[str, np.ndarray],
             cfg: TrainConfig) -> TrainState:
    """v <- mu*v - eta*(g + lambda*theta); theta <- theta + v, biases without
    decay. Nothing moves unless every gradient fits a block and is finite.
    Each block is updated one slab at a time, through scratch slabs; a
    clipped gradient is scaled one slab at a time too, and a norm whose sum
    of squares overflows is taken again over g / max|g|. The checks, then
    the update, run in two shares (`_in_two_shares`): a prefix of `grads`
    and the rest, so the error raised is the first in the dict's order."""
    params, items = state.model.params, list(grads.items())
    sizes = [g.size for _, g in items]
    large = sum(sizes) >= CONCURRENT_MIN_ELEMENTS

    def check(share):  # each block's vdot, when clipping
        dots = []
        for name, g in share:
            shape = params[name].shape if name in params else "absent"
            if g.shape != shape:
                raise ShapeError(f"gradient for {name} has shape "
                                 f"{g.shape}, model block {shape}")
            if not all_finite(g):
                raise TrainingError(f"non-finite gradient in block {name}")
            if cfg.grad_clip is not None:
                dots.append(float(np.vdot(g, g)))
        return dots

    squares = sum(_in_two_shares(large, check, items, sizes))
    clip, top = None, 1.0
    if cfg.grad_clip is not None:
        if squares == math.inf:  # finite blocks whose squares overflow
            top = max(float(np.abs(g).max(initial=0.0)) for _, g in items)
            squares = sum(float(np.vdot(s, s))
                          for s in (g / top for _, g in items))
        if top * math.sqrt(squares) > cfg.grad_clip:
            clip = cfg.grad_clip / top / math.sqrt(squares)

    def update(share):
        # a slab holds at most SLAB_SIZE elements, or one leading index's
        scratch = np.empty((2, max([SLAB_SIZE, *(math.prod(g.shape[1:])
                                                 for _, g in share)])))
        for name, g in share:
            arr, v = params[name], state.velocity[name]
            for s in slabs(arr.shape):
                a, vs, gs = arr[s], v[s], g[s]
                step, clipped = (row[:a.size].reshape(a.shape) for row in scratch)
                if clip is not None:
                    gs = np.multiply(gs, clip, out=clipped)
                if is_bias_block(name):
                    np.multiply(gs, cfg.learning_rate, out=step)
                else:  # eta*(lambda*theta + g)
                    np.multiply(a, cfg.weight_decay, out=step)
                    step += gs
                    step *= cfg.learning_rate
                vs *= cfg.momentum
                vs -= step
                a += vs
        return []

    _in_two_shares(large, update, items, sizes)
    state.updates += 1
    return state


def train_epochs(state: TrainState, train_set, val_set, cfg: TrainConfig,
                 epoch_hook=None) -> TrainState:
    """Mini-batch SGD with per-epoch reseeded shuffles and early stopping on
    validation joint loss. Returns the state holding the best-val model.
    `epoch_hook(epoch, train_loss, val_loss)` runs after each epoch, and
    first as epoch 0, with a NaN train loss, for the untrained model's
    validation loss when a fresh state measures it as its baseline."""
    cfg.validate()
    train_set = list(train_set)
    val_set = list(val_set)
    if not train_set:
        raise DataError("empty training set")
    if cfg.early_stop_patience is not None and not val_set:
        raise ConfigError("early stopping requires a non-empty validation set")

    if val_set and math.isinf(state.best_val_loss):
        state.best_val_loss = mean_joint_loss(state.model, val_set)
        state.best_model = state.model.copy()
        state.epochs_since_best = 0
        if epoch_hook is not None:
            epoch_hook(0, math.nan, state.best_val_loss)

    n = len(train_set)
    for epoch in range(state.epoch + 1, cfg.max_epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch])
        perm = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [train_set[i] for i in perm[start:start + cfg.batch_size]]
            grad_list = []
            for ex in batch:
                loss, grads = joint_backward(state.model, ex)
                loss_sum += loss.total
                grad_list.append(grads)
            sgd_step(state, accumulate_grads(grad_list), cfg)
        state.epoch = epoch

        train_loss = loss_sum / n
        val_loss = mean_joint_loss(state.model, val_set) if val_set else math.nan
        if epoch_hook is not None:
            epoch_hook(epoch, train_loss, val_loss)

        if val_set:
            if val_loss < state.best_val_loss:
                state.best_val_loss = val_loss
                state.best_model = state.model.copy()
                state.epochs_since_best = 0
            else:
                state.epochs_since_best += 1
                if (cfg.early_stop_patience is not None
                        and state.epochs_since_best > cfg.early_stop_patience):
                    break

    if state.best_model is not None:
        state.model = state.best_model
    return state


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def has_live_relu_branches(m: CaptionModel, ex: CaptionedExample) -> bool:
    """True when, in both directions, each relu transition branch (shortcut
    and bottleneck) activates for at least one unit at some step. A dead
    branch makes its gradients exactly zero and starves the layers below,
    which leaves nothing for a finite-difference check to resolve; callers
    doing gradient checks should skip such degenerate operating points.
    Non-relu architectures are always live."""
    if m.arch != ArchitectureKind.BI_F_LSTM:
        return True
    ww = m.fwd.transition.W.shape[0]
    for direction in (FORWARD, BACKWARD):
        rec, _, _ = _direction_pass(m, ex, direction)
        pre = rec.transition_preacts
        if not (np.any(pre[:, :ww] > 0) and np.any(pre[:, ww:] > 0)):
            return False
    return True


@dataclass
class BlockCheck:
    """One block's comparison: the largest analytic/numeric discrepancy
    relative to the block's gradient scale (central differences at eps=1e-6
    carry absolute noise around 1e-9, so per-coordinate ratios are
    meaningless for the many coordinates smaller than that)."""

    name: str
    n_checked: int
    n_rejected: int
    max_abs_err: float
    grad_scale: float
    rel_err: float
    worst_index: int
    worst_analytic: float
    worst_numeric: float


@dataclass
class GradCheckReport:
    epsilon: float
    tolerance: float
    blocks: list[BlockCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return float(np.max([b.rel_err for b in self.blocks], initial=0.0))

    @property
    def passed(self) -> bool:
        return all(b.rel_err < self.tolerance for b in self.blocks)

    def lines(self) -> list[str]:
        out = []
        for b in self.blocks:
            status = "ok" if b.rel_err < self.tolerance else "FAIL"
            out.append(
                f"{status} {b.name} rel_err {b.rel_err:.3e} "
                f"(max_abs_err {b.max_abs_err:.3e} / scale {b.grad_scale:.3e}) "
                f"checked {b.n_checked} rejected {b.n_rejected} "
                f"worst (index {b.worst_index}, analytic {b.worst_analytic:.6e}, "
                f"numeric {b.worst_numeric:.6e})"
            )
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict} overall max_rel_err {self.max_rel_err:.3e} "
                   f"tolerance {self.tolerance:.3e}")
        return out


def grad_check(m: CaptionModel, ex: CaptionedExample, epsilon: float = 1e-6,
               tolerance: float = 1e-5) -> GradCheckReport:
    """Compare analytic joint-loss gradients against central differences.

    Every scalar is checked, perturbed in place in its block whatever the
    block's strides. Perturbations that flip a relu pre-activation sign are
    rejected rather than compared. Each block passes when its largest
    discrepancy, relative to the block's gradient scale
    max(|analytic|, |numeric|, 1e-8), is below the tolerance; its worst
    scalar is the first in C order with that discrepancy. A NaN loss makes
    its discrepancy NaN, which fails the block and the report.

    Each finite-difference loss is bitwise the full recompute of both
    directions (`tests/oracles.py::_fd_loss_and_signs`), but a perturbation
    reruns only what its block feeds. A block of one direction reruns that
    direction's `model.unroll`, from a new T-LSTM pass if the block feeds
    the T-LSTM (the embedding, `t_lstm.*`) and with a new image-folded
    M-LSTM cell if it feeds the cell (`m_lstm.Wimg`, `m_lstm.b`), else from
    the unperturbed T-LSTM rows and cell; the other direction's loss and
    relu signs stay at their unperturbed values. A softmax block reruns
    only the logits and the loss of both directions' unperturbed M-LSTM
    states.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ConfigError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    if not 0.0 < tolerance < math.inf:  # written so that NaN fails it
        raise ConfigError(f"tolerance must be positive and finite, "
                          f"got {tolerance}")

    analytic = accumulate_grads([joint_backward(m, ex)[1]])
    report = GradCheckReport(epsilon=epsilon, tolerance=tolerance)

    def run(d, targets, h1s, cell):  # loss, relu sign bytes, M-LSTM trace
        preacts, m_trace, logits = unroll(m, d, h1s, cell)
        return _target_nll(logits, targets), (preacts > 0.0).tobytes(), m_trace

    # every check restores its scalar exactly, so what the unperturbed
    # model forms here stands for every block that does not feed it:
    # direction -> (loss, M-LSTM outputs, what a rerun reads)
    base = {}
    for dn in (FORWARD, BACKWARD):
        d, (inputs, targets) = m.direction(dn), direction_io(ex.tokens, dn)
        h1s = sequence_forward(d.t_lstm, d.embedding.T[inputs]).hs[1:]
        cell = image_input(d, ex.feature)
        loss, _, m_trace = run(d, targets, h1s, cell)
        base[dn] = loss, m_trace.hs[1:], (d, inputs, targets, h1s, cell)

    for name, arr in m.blocks():
        if name.startswith("softmax_"):
            def fd_loss_and_signs():
                lf, lb = (_target_nll(softmax_logits(m, h2s), targets)
                          for _, h2s, (_, _, targets, _, _) in base.values())
                return lf + lb, b""
        else:
            prefix, _, layer = name.partition(".")
            dn = FORWARD if prefix == DIRECTION_PREFIX[FORWARD] else BACKWARD
            other = base[BACKWARD if dn == FORWARD else FORWARD][0]
            _, _, (d, inputs, targets, h1s, cell) = base[dn]
            feeds_t_lstm = layer == "embedding" or layer.startswith("t_lstm.")
            feeds_cell = layer in ("m_lstm.Wimg", "m_lstm.b")

            def fd_loss_and_signs():
                loss, signs, _ = run(
                    d, targets,
                    (sequence_forward(d.t_lstm, d.embedding.T[inputs]).hs[1:]
                     if feeds_t_lstm else h1s),
                    image_input(d, ex.feature) if feeds_cell else cell)
                return loss + other, signs

        lp, lm = np.empty(arr.size), np.empty(arr.size)
        kept = np.empty(arr.size, dtype=bool)
        for i, idx in enumerate(np.ndindex(arr.shape)):
            orig = arr[idx]
            arr[idx] = orig + epsilon
            lp[i], sp = fd_loss_and_signs()
            arr[idx] = orig - epsilon
            lm[i], sm = fd_loss_and_signs()
            arr[idx] = orig
            kept[i] = sp == sm
        checked = np.flatnonzero(kept)
        a = analytic[name].ravel()[checked]
        numeric = (lp - lm)[checked] / (2.0 * epsilon)
        err = np.abs(a - numeric)
        max_abs_err = float(err.max(initial=0.0))
        worst = (-1, 0.0, 0.0)
        if max_abs_err != 0.0:  # a NaN one too, the first in C order
            w = int(np.argmax(err))
            worst = (int(checked[w]), float(a[w]), float(numeric[w]))
        scale = float(np.abs([a, numeric]).max(initial=1e-8))
        report.blocks.append(BlockCheck(
            name=name, n_checked=len(checked),
            n_rejected=arr.size - len(checked), max_abs_err=max_abs_err,
            grad_scale=scale, rel_err=max_abs_err / scale,
            worst_index=worst[0], worst_analytic=worst[1],
            worst_numeric=worst[2],
        ))
    return report
