"""Caption model: embeddings, text LSTM, multimodal LSTM, deep transitions,
and the shared softmax, assembled into three bidirectional architectures.

Layer stack per direction and time step:

    token -> embedding column -> T-LSTM -> [transition] -> concat with the
    image feature -> M-LSTM -> shared softmax -> distribution of next word

The image feature joins the M-LSTM input at every step, through a block of
its own, Wimg. It is constant over a sequence, so Wimg @ feature is formed
once, into the bias (`image_input`), and a step multiplies only the text
input's block Wx. Architectures differ only in the
transition between the two LSTMs: none (plain), a linear stacked
transition fed by the T-LSTM output and the M-LSTM's previous hidden
state, or a relu layer whose output concatenates a direct projection of
the T-LSTM output (shortcut) with a two-matrix bottleneck of it.

`transition_forward` holds the forward pass's architecture branch. `unroll`
runs the layers above the T-LSTM over a whole teacher-forced sequence
(training, gradient checking, gate traces): the transition is one product
over the sequence's stacked rows and the M-LSTM runs `lstm.sequence_forward`
on its output. The bi-s-lstm transition also reads the previous M-LSTM
state, through V; that part is the M-LSTM's feedback, which
`sequence_forward` adds within its recurrence. `model_backward` runs
`lstm.sequence_backward` for both LSTMs, so each LSTM's recurrence is
written once, in `lstm`, and returns the gradient as groups of rows, each
one left factor and the blocks that read it, which
`train.accumulate_grads` makes dense over a batch. A row of a (T, .)
product rounds differently from a product of that row alone, so decoding
and teacher forcing agree to rounding (1e-12 relative), not bit for bit.
"""

import enum
import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, ShapeError, VocabError
from .lstm import LstmParams, LstmTrace, sequence_backward, sequence_forward
from .numcore import matvec, relu, softmax

FORWARD = "forward"
BACKWARD = "backward"
# each direction's block-name prefix, also its CaptionModel attribute
DIRECTION_PREFIX = {FORWARD: "fwd", BACKWARD: "bwd"}

INIT_SCALE = 0.08


class ArchitectureKind(enum.Enum):
    BI_LSTM = "bi-lstm"
    BI_S_LSTM = "bi-s-lstm"
    BI_F_LSTM = "bi-f-lstm"


@dataclass
class TransitionParams:
    """Deep-variant matrices. Stacked uses U, V; the relu variant adds W."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray | None = None


@dataclass
class DirectionParams:
    """One direction's parameters. embedding is (embed_dim x vocab)."""

    embedding: np.ndarray
    t_lstm: LstmParams
    m_lstm: LstmParams
    Wimg: np.ndarray
    transition: TransitionParams | None


@dataclass(frozen=True, eq=False)
class CaptionModel:
    """The parameter table: every block by name, in `block_shapes` order.
    The directions' parameters and the softmax are its arrays, and the
    dimensions are read from their shapes; neither an attribute nor a block
    can be rebound, so none can disagree with the table."""

    arch: ArchitectureKind
    params: Mapping[str, np.ndarray]
    fwd: DirectionParams = field(init=False, repr=False)
    bwd: DirectionParams = field(init=False, repr=False)
    softmax_w: np.ndarray = field(init=False, repr=False)
    softmax_b: np.ndarray = field(init=False, repr=False)
    vocab_size: int = field(init=False)
    feature_dim: int = field(init=False)
    embed_dim: int = field(init=False)
    hidden_dim: int = field(init=False)
    transition_widths: tuple[int, int, int] = field(init=False)  # U, V, W rows or 0

    def __post_init__(self):
        p = MappingProxyType(dict(self.params))
        fwd, bwd = (_direction_params(p, prefix)
                    for prefix in DIRECTION_PREFIX.values())
        widths = tuple(len(p.get(f"fwd.trans.{w}", ())) for w in "UVW")
        vocab_size, hidden_dim = p["softmax_w"].shape
        for name, value in dict(
                params=p, fwd=fwd, bwd=bwd, softmax_w=p["softmax_w"],
                softmax_b=p["softmax_b"], vocab_size=vocab_size,
                feature_dim=fwd.Wimg.shape[1], embed_dim=fwd.embedding.shape[0],
                hidden_dim=hidden_dim, transition_widths=widths).items():
            object.__setattr__(self, name, value)  # past the frozen setattr

    def direction(self, name: str) -> DirectionParams:
        if name not in DIRECTION_PREFIX:
            raise ConfigError(f"unknown direction {name!r}")
        return getattr(self, DIRECTION_PREFIX[name])

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        """All parameter blocks in declared (checkpoint) order."""
        return list(self.params.items())

    def copy(self) -> "CaptionModel":
        return CaptionModel(self.arch, {name: arr.copy()
                                        for name, arr in self.params.items()})


def _direction_params(p: Mapping[str, np.ndarray],
                      prefix: str) -> DirectionParams:
    """One direction's parameters: the blocks of `p` named `prefix`.*."""
    def lstm(layer: str) -> LstmParams:
        return LstmParams(*(p[f"{prefix}.{layer}.{w}"] for w in ("Wx", "Wh", "b")))

    trans = None if f"{prefix}.trans.U" not in p else TransitionParams(
        p[f"{prefix}.trans.U"], p[f"{prefix}.trans.V"], p.get(f"{prefix}.trans.W"))
    return DirectionParams(p[f"{prefix}.embedding"], lstm("t_lstm"),
                           lstm("m_lstm"), p[f"{prefix}.m_lstm.Wimg"], trans)


# an embedding block's gradient as rows: row t of `rows` is added to column
# ids[t] of the block `name`, (rows' width x columns)
Scatter = namedtuple("Scatter", "name rows ids columns")


def is_bias_block(name: str) -> bool:
    return name.endswith(".b") or name == "softmax_b"


def default_bif_widths(hidden_dim: int) -> tuple[int, int, int]:
    """Half-width bottleneck and shortcut keep the relu variant lean."""
    half = max(1, hidden_dim // 2)
    return (half, half, half)


def check_dims(**dims: int) -> None:
    """Refuse the first model dimension below 1, by its keyword's name."""
    for label, dim in dims.items():
        if dim < 1:
            raise ConfigError(f"{label} must be >= 1, got {dim}")


def check_addressable(name: str, shape: tuple[int, ...]) -> None:
    """Refuse a float64 block of `shape` whose byte count numpy cannot
    address (numpy raises a ValueError for it) as a failed allocation."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise MemoryError(f"{name} of shape {shape} is beyond numpy's "
                          "addressable size")


def block_shapes(arch: ArchitectureKind, vocab_size: int, feature_dim: int,
                 embed_dim: int, hidden_dim: int,
                 bif_widths: tuple[int, int, int] | None = None
                 ) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter block's name and shape, in declared (checkpoint)
    order. Nothing is allocated, so a checkpoint header's dimensions can be
    checked against its size before any block is built."""
    # hidden_dim before embed_dim, which defaults to it in the CLI
    check_dims(vocab_size=vocab_size, feature_dim=feature_dim,
               hidden_dim=hidden_dim, embed_dim=embed_dim)

    H, G = hidden_dim, 4 * hidden_dim
    if arch == ArchitectureKind.BI_LSTM:
        text_width, trans = H, []
    elif arch == ArchitectureKind.BI_S_LSTM:
        text_width, trans = H, [("U", (H, H)), ("V", (H, H))]
    else:
        widths = bif_widths or default_bif_widths(H)
        if min(widths) < 1:
            raise ConfigError(f"transition widths must be >= 1, got {widths}")
        ua, vb, ww = widths
        text_width = vb + ww  # bottleneck rows + shortcut rows
        trans = [("U", (ua, H)), ("V", (vb, ua)), ("W", (ww, H))]

    shapes = []
    for p in DIRECTION_PREFIX.values():
        shapes += [(f"{p}.embedding", (embed_dim, vocab_size)),
                   (f"{p}.t_lstm.Wx", (G, embed_dim)), (f"{p}.t_lstm.Wh", (G, H)),
                   (f"{p}.t_lstm.b", (G,)), (f"{p}.m_lstm.Wx", (G, text_width)),
                   (f"{p}.m_lstm.Wimg", (G, feature_dim)),
                   (f"{p}.m_lstm.Wh", (G, H)), (f"{p}.m_lstm.b", (G,)),
                   *((f"{p}.trans.{name}", shape) for name, shape in trans)]
    return shapes + [("softmax_w", (vocab_size, H)),
                     ("softmax_b", (vocab_size,))]


def build_model(arch: ArchitectureKind, vocab_size: int, feature_dim: int,
                embed_dim: int, hidden_dim: int,
                bif_widths: tuple[int, int, int] | None = None) -> CaptionModel:
    """All-zero model with the architecture's shapes (`block_shapes`), each
    checked addressable before any is built; init_model and random_model
    fill it."""
    shapes = block_shapes(arch, vocab_size, feature_dim, embed_dim,
                          hidden_dim, bif_widths)
    for name, shape in shapes:
        check_addressable(name, shape)
    return CaptionModel(arch, {name: np.zeros(shape) for name, shape in shapes})


def merged_layout(shapes) -> list[tuple[tuple[int, ...], list]]:
    """`block_shapes`' list with each M-LSTM's Wx and Wimg as one (4H, text
    + F) block at Wx's place, the version-1 checkpoint's and the seeded
    draws' layout: (shape, [(name, index) of each block it holds]) each."""
    layout = []
    for name, shape in shapes:
        if name.endswith(".m_lstm.Wimg"):
            (G, tw), [(wx, _)] = layout.pop()
            parts = [(wx, np.s_[:, :tw]), (name, np.s_[:, tw:])]
            layout.append(((G, tw + shape[1]), parts))
        else:
            layout.append((shape, [(name, ...)]))
    return layout


def _draw(m: CaptionModel, seed: int, scale: float, biases: bool):
    """m with its weights (and biases if `biases`) uniform on [-scale,
    scale], drawn as `merged_layout` lays them out, which keeps each seed's values."""
    rng = np.random.default_rng(seed)
    for shape, parts in merged_layout([(n, a.shape) for n, a in m.blocks()]):
        if biases or not is_bias_block(parts[0][0]):
            drawn = rng.uniform(-scale, scale, size=shape)
            for name, index in parts:
                m.params[name][...] = drawn[index]
            del drawn  # before the next draw: two alive at once raise the peak
    return m


def init_model(arch: ArchitectureKind, vocab_size: int, feature_dim: int,
               embed_dim: int, hidden_dim: int, seed: int = 0,
               bif_widths: tuple[int, int, int] | None = None) -> CaptionModel:
    """Weights i.i.d. uniform on [-0.08, 0.08], biases zero, reproducible
    per seed (`_draw`)."""
    return _draw(build_model(arch, vocab_size, feature_dim, embed_dim,
                             hidden_dim, bif_widths), seed, INIT_SCALE, False)


def random_model(arch: ArchitectureKind, vocab_size: int, feature_dim: int,
                 embed_dim: int, hidden_dim: int, seed: int = 0,
                 scale: float = 0.5,
                 bif_widths: tuple[int, int, int] | None = None) -> CaptionModel:
    """Model with every block (biases included) uniform on [-scale, scale].

    Used for gradient checking: unit-ish weights keep every block's gradient
    large enough for central differences to resolve, unlike the tiny
    training-time init. For the relu architecture the transition branches
    default to full width so a handful of dead units cannot starve the
    gradient flow to the layers below.
    """
    if arch == ArchitectureKind.BI_F_LSTM and bif_widths is None:
        bif_widths = (hidden_dim, hidden_dim, hidden_dim)
    return _draw(build_model(arch, vocab_size, feature_dim, embed_dim,
                             hidden_dim, bif_widths), seed, scale, True)


def transition_forward(arch: ArchitectureKind, tp: TransitionParams | None,
                       h1: np.ndarray, h2: np.ndarray | None):
    """The M-LSTM's text input from T-LSTM output h1 (a vector or rows): h1
    itself, U @ h1 + V @ h2 on the previous M-LSTM state h2 (bi-s-lstm, the
    only reader of h2; U @ h1 alone when h2 is None), or
    relu(concat(W @ h1, V @ (U @ h1))), whose W branch is the shortcut.
    Returns (relu pre-activation | None, text input)."""
    if arch == ArchitectureKind.BI_LSTM:
        return None, h1
    if arch == ArchitectureKind.BI_S_LSTM:
        text = matvec(tp.U, h1)
        return None, text if h2 is None else text + matvec(tp.V, h2)
    pre = np.concatenate([matvec(tp.W, h1), matvec(tp.V, matvec(tp.U, h1))],
                         axis=-1)
    return pre, relu(pre)


def image_input(d: DirectionParams, feature: np.ndarray) -> LstmParams:
    """Project the image through the M-LSTM once, for a whole sequence: the
    M-LSTM cell with Wimg @ feature folded into its bias, so that it
    multiplies only the text input (its Wx and Wh are the parameters). A
    feature whose length is not Wimg's width is refused."""
    if feature.shape[0] != d.Wimg.shape[1]:
        raise ShapeError(f"feature has len {feature.shape[0]}, model expects {d.Wimg.shape[1]}")
    p = d.m_lstm
    return LstmParams(p.Wx, p.Wh, d.Wimg @ feature + p.b)


def softmax_logits(m: CaptionModel, h2: np.ndarray) -> np.ndarray:
    """The shared softmax's logits of M-LSTM hidden states, a vector or
    rows in one product."""
    return matvec(m.softmax_w, h2) + m.softmax_b


def unroll(m: CaptionModel, d: DirectionParams, h1s: np.ndarray,
           m_cell: LstmParams):
    """The layers above the T-LSTM over a sequence's (T, H) T-LSTM outputs,
    from a zero M-LSTM state: the transition as one product over all rows,
    the M-LSTM as `sequence_forward` on its output, with the bi-s-lstm
    transition's V as the cell's feedback, then the logits as one product.
    Returns (relu pre-activations, M-LSTM trace, (T, V) logits); the
    pre-activations are (T, n) rows, n = 0 where the architecture has no
    relu."""
    pre, text = transition_forward(m.arch, d.transition, h1s, None)
    bi_s = m.arch == ArchitectureKind.BI_S_LSTM
    m_trace = sequence_forward(m_cell, text, d.transition.V if bi_s else None)
    logits = softmax_logits(m, m_trace.hs[1:])
    return (np.empty((len(h1s), 0)) if pre is None else pre), m_trace, logits


@dataclass
class ForwardPassRecord:
    """Everything one direction's forward pass produced, backward-ready.
    Per-step values are (T, n) rows; the relu pre-activations have n = 0
    where the architecture has no relu. The transition outputs are the
    M-LSTM trace's inputs."""

    direction: str
    tokens: list[int]
    feature: np.ndarray
    t_trace: LstmTrace
    m_trace: LstmTrace
    transition_preacts: np.ndarray
    logits: np.ndarray
    probs: np.ndarray

    def __len__(self) -> int:
        return len(self.probs)


def direction_forward(m: CaptionModel, direction: str, tokens,
                      feature: np.ndarray) -> ForwardPassRecord:
    """Run one direction over an input token sequence.

    probs[t] is the distribution over the word following tokens[t]. The
    caller supplies tokens already in the direction's reading order; this
    never reverses. The T-LSTM's inputs are the gathered embedding rows;
    the logits and probabilities are formed for all steps at once.
    """
    d = m.direction(direction)
    m_cell = image_input(d, feature)
    tokens = list(tokens)
    for t in tokens:
        if not 0 <= t < m.vocab_size:
            raise VocabError(f"token id {t} outside vocabulary of size {m.vocab_size}")
    t_trace = sequence_forward(d.t_lstm, d.embedding.T[tokens])
    preacts, m_trace, logits = unroll(m, d, t_trace.hs[1:], m_cell)
    return ForwardPassRecord(
        direction=direction, tokens=tokens, feature=feature,
        t_trace=t_trace, m_trace=m_trace, transition_preacts=preacts,
        logits=logits, probs=softmax(logits),
    )


def model_backward(m: CaptionModel, rec: ForwardPassRecord,
                   targets) -> list:
    """Gradients of the summed cross-entropy  sum_t -log probs[t][targets[t]]
    for the record's direction (softmax included), as rows that
    `train.accumulate_grads` makes dense: a list of groups, each one left
    factor and the blocks that read it, (left, {block name: right}), where
    a weight is left.T @ right and a bias (None) left's column sum; the
    embedding's is a `Scatter` of the T-LSTM's input gradients onto their
    token ids. Each LSTM runs `sequence_backward`, the M-LSTM on its text
    input, whose gradient feeds the transition; Wimg's left is db, its
    right the feature. Targets outside the vocabulary are refused first."""
    targets = list(targets)
    T = len(rec)
    if len(targets) != T:
        raise ShapeError(f"{T} steps but {len(targets)} targets")
    for t in targets:
        if not 0 <= t < m.vocab_size:
            raise VocabError(f"target id {t} outside vocabulary of size {m.vocab_size}")

    d = m.direction(rec.direction)
    prefix = DIRECTION_PREFIX[rec.direction]
    tr_params = d.transition
    bi_s = m.arch == ArchitectureKind.BI_S_LSTM
    t_tr, m_tr = rec.t_trace, rec.m_trace

    dlogits = rec.probs.copy()
    dlogits[np.arange(T), targets] -= 1.0
    m_da, d_text = sequence_backward(d.m_lstm, m_tr, dlogits @ m.softmax_w,
                                     tr_params.V if bi_s else None)

    h1s = t_tr.hs[1:]
    trans = f"{prefix}.trans."
    if m.arch == ArchitectureKind.BI_LSTM:
        dh1, trans_groups = d_text, []
    elif bi_s:
        dh1 = d_text @ tr_params.U
        trans_groups = [(d_text, {trans + "U": h1s, trans + "V": m_tr.hs[:-1]})]
    else:
        ww = tr_params.W.shape[0]
        dpre = d_text * (rec.transition_preacts > 0.0)
        dpre_w, dpre_v = dpre[:, :ww], dpre[:, ww:]
        du = dpre_v @ tr_params.V
        dh1 = dpre_w @ tr_params.W + du @ tr_params.U
        trans_groups = [(du, {trans + "U": h1s}),
                        (dpre_v, {trans + "V": h1s @ tr_params.U.T}),
                        (dpre_w, {trans + "W": h1s})]

    t_da, t_dx = sequence_backward(d.t_lstm, t_tr, dh1)
    lstm = [(da, {f"{p}Wx": tr.x, f"{p}Wh": tr.hs[:-1], f"{p}b": None})
            for p, da, tr in ((f"{prefix}.t_lstm.", t_da, t_tr),
                              (f"{prefix}.m_lstm.", m_da, m_tr))]
    return [Scatter(f"{prefix}.embedding", t_dx, np.array(rec.tokens),
                    m.vocab_size), *lstm,
            (m_da.sum(axis=0, keepdims=True),
             {f"{prefix}.m_lstm.Wimg": rec.feature[None]}),
            (dlogits, {"softmax_w": m_tr.hs[1:], "softmax_b": None}),
            *trans_groups]
