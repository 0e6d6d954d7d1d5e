"""The layer map: which bicaption functions are traced, which workloads each
one serves, the computed kernel counts, and the per-layer metrics derived
from the trace.

Each module of the package is one layer. `cli` only parses arguments and
delegates, so it has none.
"""

import os
import sys

from bicaption import (checkpoint, data, infer, lstm, metrics, model, numcore,
                       train)
from bicaption.model import is_bias_block

from tracer import Tracer

TRAIN, CAPTION, RETRIEVE, GRADCHECK = (
    "train-mid", "caption-beam3", "retrieve-toy", "gradcheck-acceptance")

NUMCORE_FUNCTIONS = ("sigmoid", "tanh_act", "relu", "softmax", "log_softmax",
                     "matvec")

# (module, function, workloads whose traced run must call it). A function
# that records no call on a workload listed here fails the liveness check,
# so a rename cannot leave its metrics silently at zero.
TRACED = [
    *[(numcore, fn, {RETRIEVE, GRADCHECK})
      for fn in ("sigmoid", "tanh_act", "softmax", "log_softmax")],
    (numcore, "relu", {GRADCHECK}),
    (numcore, "matvec", {GRADCHECK}),
    (lstm, "cell_forward", {TRAIN, CAPTION, RETRIEVE, GRADCHECK}),
    (lstm, "cell_backward", {TRAIN, GRADCHECK}),
    (lstm, "sequence_forward", {TRAIN, RETRIEVE, GRADCHECK}),
    (lstm, "sequence_backward", {TRAIN, GRADCHECK}),
    (model, "direction_forward", {TRAIN, RETRIEVE, GRADCHECK}),
    (model, "model_backward", {TRAIN, GRADCHECK}),
    (train, "joint_loss", {RETRIEVE}),
    (train, "joint_backward", {TRAIN, GRADCHECK}),
    (train, "accumulate_grads", {TRAIN}),
    (train, "sgd_step", {TRAIN}),
    (train, "grad_check", {GRADCHECK}),
    (infer, "decode_direction", {CAPTION}),
    (infer, "select_final_caption", {CAPTION}),
    (metrics, "build_score_matrix", {RETRIEVE}),
    (metrics, "score_pair", {RETRIEVE}),
    (metrics, "recall_at_k", {RETRIEVE}),
    (metrics, "median_rank", {RETRIEVE}),
    (checkpoint, "serialize_model", {TRAIN}),
    (checkpoint, "deserialize_model", {CAPTION}),
    (data, "read_features", {CAPTION}),
    (data, "make_toy_dataset", {RETRIEVE}),
]


def traced_name(mod, fn: str) -> str:
    return f"{mod.__name__.rsplit('.', 1)[-1]}.{fn}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# computed kernel counts (from argument shapes, not measured)
# ---------------------------------------------------------------------------

def cell_forward_cost(p) -> tuple[int, int]:
    """(flop, bytes) of one lstm.cell_forward. flop: the two matvecs, the
    bias and sum adds, and 9H elementwise operations (each transcendental
    counts as one). bytes: weights read once, x/h_prev/c_prev read, the six
    step vectors (i, f, o, g, c, h) written; 8 bytes per float64."""
    G, D = p.Wx.shape
    H = G // 4
    flop = 2 * G * (D + H) + 2 * G + 9 * H
    nbytes = 8 * (G * (D + H + 1) + D + 2 * H + 6 * H)
    return flop, nbytes


def cell_backward_cost(p) -> tuple[int, int]:
    """(flop, bytes) of one lstm.cell_backward. flop: the rank-1 updates of
    dWx and dWh (multiply and add), the db add, the two transposed matvecs
    and 22H elementwise operations. bytes: dWx/dWh/db read and written,
    Wx/Wh read, the nine step vectors plus dh/dc read, dx/dh_prev/dc_prev
    written."""
    G, D = p.Wx.shape
    H = G // 4
    flop = 4 * G * (D + H) + G + 22 * H
    nbytes = 8 * (2 * G * (D + H + 1) + G * (D + H)
                  + D + 10 * H + D + 2 * H)
    return flop, nbytes


def sgd_step_cost(grads) -> tuple[int, int]:
    """(flop, bytes) of one train.sgd_step. Per scalar: 6 flop with weight
    decay (g + wd*theta, mu*v, v - lr*step, theta + v), 4 without (biases).
    bytes: gradient, parameter and velocity read, parameter and velocity
    written once each."""
    flop = nbytes = 0
    for name, g in grads.items():
        flop += (4 if is_bias_block(name) else 6) * g.size
        nbytes += 40 * g.size
    return flop, nbytes


# ---------------------------------------------------------------------------
# tracer set-up
# ---------------------------------------------------------------------------

class LayerCounts:
    """Counts recorded at the traced boundaries, beside the span stats."""

    def __init__(self):
        self.lstm_flop = 0
        self.lstm_bytes = 0
        self.sgd_flop = 0
        self.sgd_bytes = 0
        # step -> [unrolls run, distinct (model, direction, tokens) keys]
        self.unrolls_by_step: dict[int, list] = {}
        self.fd_evals = 0
        self.fd_rejected = 0
        self.tokens_decoded = 0
        self.serialize_bytes = 0
        self.deserialize_bytes = 0
        self.features_bytes = 0


def build_tracer() -> tuple[Tracer, LayerCounts]:
    tracer = Tracer()
    counts = LayerCounts()

    def on_cell_forward(args, kwargs):
        flop, nbytes = cell_forward_cost(_arg(args, kwargs, 0, "p"))
        counts.lstm_flop += flop
        counts.lstm_bytes += nbytes

    def on_cell_backward(args, kwargs):
        flop, nbytes = cell_backward_cost(_arg(args, kwargs, 0, "p"))
        counts.lstm_flop += flop
        counts.lstm_bytes += nbytes

    def on_sgd_step(args, kwargs):
        flop, nbytes = sgd_step_cost(_arg(args, kwargs, 1, "grads"))
        counts.sgd_flop += flop
        counts.sgd_bytes += nbytes

    def on_direction_forward(args, kwargs):
        key = (id(_arg(args, kwargs, 0, "m")), _arg(args, kwargs, 1, "direction"),
               tuple(_arg(args, kwargs, 2, "tokens")))
        entry = counts.unrolls_by_step.setdefault(tracer.step, [0, set()])
        entry[0] += 1
        entry[1].add(key)

    def after_grad_check(args, kwargs, report):
        for block in report.blocks:
            counts.fd_evals += 2 * (block.n_checked + block.n_rejected)
            counts.fd_rejected += 2 * block.n_rejected

    def after_decode(args, kwargs, hyp):
        counts.tokens_decoded += len(hyp.tokens)

    def after_serialize(args, kwargs, blob):
        counts.serialize_bytes += len(blob)

    def on_deserialize(args, kwargs):
        counts.deserialize_bytes += len(_arg(args, kwargs, 0, "blob"))

    def on_read_features(args, kwargs):
        counts.features_bytes += os.path.getsize(_arg(args, kwargs, 0, "path"))

    hooks = {
        "lstm.cell_forward": (on_cell_forward, None),
        "lstm.cell_backward": (on_cell_backward, None),
        "train.sgd_step": (on_sgd_step, None),
        "model.direction_forward": (on_direction_forward, None),
        "train.grad_check": (None, after_grad_check),
        "infer.decode_direction": (None, after_decode),
        "checkpoint.serialize_model": (None, after_serialize),
        "checkpoint.deserialize_model": (on_deserialize, None),
        "data.read_features": (on_read_features, None),
    }
    for mod, fn, _ in TRACED:
        name = traced_name(mod, fn)
        before, after = hooks.get(name, (None, None))
        tracer.add(name, getattr(mod, fn), before, after)
    return tracer, counts


def package_modules():
    """Every loaded module of the package: the places a traced name can be
    bound."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "bicaption" or name.startswith("bicaption.")]


def dead_wrappers(tracer: Tracer, workload: str) -> list[str]:
    """Traced functions that serve `workload` but recorded no call."""
    return [traced_name(mod, fn) for mod, fn, serves in TRACED
            if workload in serves and tracer.calls(traced_name(mod, fn)) == 0]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, counts: LayerCounts) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    numcore_names = [f"numcore.{fn}" for fn in NUMCORE_FUNCTIONS]
    cell_s = total_s("lstm.cell_forward") + total_s("lstm.cell_backward")
    unroll_runs = sum(e[0] for e in counts.unrolls_by_step.values())
    unroll_distinct = sum(len(e[1]) for e in counts.unrolls_by_step.values())
    out = {
        "numcore.calls": (sum(calls(n) for n in numcore_names), "count"),
        "numcore.self_s": (sum(self_s(n) for n in numcore_names), "s"),
        "lstm.flop": (counts.lstm_flop, "flop"),
        "lstm.bytes": (counts.lstm_bytes, "B"),
        "lstm.gflop_per_s": (_ratio(counts.lstm_flop, cell_s) / 1e9, "GFLOP/s"),
        "lstm.flop_per_byte": (_ratio(counts.lstm_flop, counts.lstm_bytes),
                               "flop/B"),
        "model.t_lstm_useful_ratio": (_ratio(unroll_distinct, unroll_runs),
                                      "ratio"),
        "train.sgd_step.flop": (counts.sgd_flop, "flop"),
        "train.sgd_step.bytes": (counts.sgd_bytes, "B"),
        "train.grad_check.fd_evals": (counts.fd_evals, "count"),
        "train.grad_check.fd_evals_per_s": (
            _ratio(counts.fd_evals, total_s("train.grad_check")), "1/s"),
        "train.grad_check.rejected_ratio": (
            _ratio(counts.fd_rejected, counts.fd_evals), "ratio"),
        "infer.tokens_decoded": (counts.tokens_decoded, "count"),
        # where anything is decoded, the traced run calls cell_forward only
        # inside decoding, two cells per expanded hypothesis-step
        "infer.expansion_useful_ratio": (
            _ratio(counts.tokens_decoded, calls("lstm.cell_forward") / 2),
            "ratio"),
        "metrics.ranking.self_s": (
            self_s("metrics.recall_at_k") + self_s("metrics.median_rank"), "s"),
        "checkpoint.serialize_model.s": (total_s("checkpoint.serialize_model"),
                                         "s"),
        "checkpoint.serialize_model.bytes": (counts.serialize_bytes, "B"),
        "checkpoint.deserialize_model.s": (
            total_s("checkpoint.deserialize_model"), "s"),
        "checkpoint.deserialize_model.bytes": (counts.deserialize_bytes, "B"),
        "data.read_features.s": (total_s("data.read_features"), "s"),
        "data.read_features.bytes": (counts.features_bytes, "B"),
        "data.make_toy_dataset.s": (total_s("data.make_toy_dataset"), "s"),
    }
    for name in ("lstm.cell_forward", "lstm.cell_backward",
                 "lstm.sequence_forward", "model.direction_forward",
                 "model.model_backward", "train.joint_loss",
                 "infer.decode_direction", "metrics.score_pair"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("lstm.cell_forward", "lstm.cell_backward",
                 "lstm.sequence_backward", "model.direction_forward",
                 "model.model_backward", "train.joint_backward",
                 "train.joint_loss", "train.accumulate_grads",
                 "train.sgd_step", "train.grad_check",
                 "infer.decode_direction", "infer.select_final_caption",
                 "metrics.build_score_matrix"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    return out
