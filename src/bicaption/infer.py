"""Caption generation: beam search per direction (beam width 1 is exactly
greedy argmax), selection of the better direction by summed log-probability,
and gate-state trace export for inspecting the cells over time.

Beam search advances all live hypotheses of a direction as one batch: one
row of state per hypothesis, one `_decode_step` per time step, and the
image projected through the M-LSTM once per image and direction. It is the
only decoder: a gate trace is the teacher-forced pass over the greedy
(beam width 1) caption.
"""

from dataclasses import dataclass

import numpy as np

from .data import BOUNDARY_ID, Vocabulary
from .errors import ConfigError, DataError
from .lstm import LstmParams, LstmTrace, cell_forward, gates, input_drive
from .model import (BACKWARD, CaptionModel, DirectionParams, FORWARD,
                    direction_forward, image_input, softmax_logits, step)
from .numcore import log_softmax


@dataclass
class Hypothesis:
    """A decoded candidate. tokens includes the terminating boundary token
    when one was emitted."""

    tokens: list[int]
    logprob_sum: float
    per_step_logprobs: list[float]


@dataclass
class _DecodeState:
    """Both LSTMs' states, one row per live hypothesis."""

    h1: np.ndarray
    c1: np.ndarray
    h2: np.ndarray
    c2: np.ndarray

    def take(self, rows) -> "_DecodeState":
        return _DecodeState(self.h1[rows], self.c1[rows], self.h2[rows],
                            self.c2[rows])


def _decode_step(m: CaptionModel, d: DirectionParams, m_cell: LstmParams,
                 state: _DecodeState, tokens):
    """Advance one step: the T-LSTM on an array of token ids, one state row
    per id, whose input drives are one product; then the shared
    `model.step` and the softmax logits. Returns (logits, new_state), in
    rows."""
    x = d.embedding.T[tokens]
    _, c1, h1 = cell_forward(d.t_lstm, input_drive(d.t_lstm, x), state.h1,
                             state.c1)
    _, _, c2, h2 = step(m, d, h1, state.h2, state.c2, m_cell)
    return softmax_logits(m, h2), _DecodeState(h1, c1, h2, c2)


def _top_k(rows: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k largest values, largest first and ties
    to the lower index: the first k of a stable argsort of -row, without
    sorting the whole row."""
    neg = -rows
    if k >= neg.shape[-1]:
        return np.argsort(neg, axis=-1, kind="stable")
    kth = np.partition(neg, k - 1, axis=-1)[:, k - 1]
    out = np.empty((len(neg), k), dtype=np.intp)
    for r, row in enumerate(neg):
        # every index that can be among the k: usually exactly k of them,
        # more when values tie with the k-th
        idx = np.flatnonzero(row <= kth[r])
        out[r] = idx[np.argsort(row[idx], kind="stable")[:k]]
    return out


def decode_direction(m: CaptionModel, direction: str, feature: np.ndarray,
                     beam_k: int = 1, max_len: int = 50) -> Hypothesis:
    """Beam search from the boundary start token. A hypothesis finishes when
    it emits the boundary token or reaches max_len; the finished hypothesis
    with the highest summed log-probability wins (ties keep emission order).
    """
    if beam_k < 1:
        raise ConfigError(f"beam_k must be >= 1, got {beam_k}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")

    d = m.direction(direction)
    m_cell = image_input(d, feature)
    live = [Hypothesis([], 0.0, [])]
    state = _DecodeState(*np.zeros((4, 1, m.hidden_dim)))
    tokens = np.array([BOUNDARY_ID])
    finished: list[Hypothesis] = []

    while live:
        logits, state = _decode_step(m, d, m_cell, state, tokens)
        logprobs = log_softmax(logits)
        top = _top_k(logprobs, beam_k)
        top_lp = np.take_along_axis(logprobs, top, axis=1)
        sums = np.array([h.logprob_sum for h in live])[:, None] + top_lp
        # candidates in emission order (hypothesis, then rank within it);
        # the stable sort keeps that order among equal sums
        best = np.argsort(-sums, axis=None, kind="stable")[:beam_k]
        prev, live, rows = live, [], []
        for r, j in zip(*np.divmod(best, top.shape[1])):
            tok, lp = int(top[r, j]), float(top_lp[r, j])
            hyp = prev[r]
            ext = Hypothesis(hyp.tokens + [tok], float(sums[r, j]),
                             hyp.per_step_logprobs + [lp])
            if tok == BOUNDARY_ID or len(ext.tokens) >= max_len:
                finished.append(ext)
            else:
                live.append(ext)
                rows.append(r)
        state = state.take(rows)
        tokens = np.array([h.tokens[-1] for h in live])

    # live only empties once a candidate has finished, and the step at
    # max_len finishes every survivor, so finished is never empty
    return max(finished, key=lambda h: h.logprob_sum)


@dataclass
class SelectedCaption:
    caption: list[int]
    chosen: str


def select_final_caption(hf: Hypothesis, hb: Hypothesis) -> SelectedCaption:
    """Pick the direction with the higher summed log-probability (ties go
    forward). The backward winner is re-reversed into reading order, and the
    terminating boundary token is stripped from the returned caption."""
    if not hf.tokens or not hb.tokens:
        raise DataError("cannot select between empty hypotheses")
    if hf.logprob_sum >= hb.logprob_sum:
        chosen, hyp = FORWARD, hf
    else:
        chosen, hyp = BACKWARD, hb
    caption = list(hyp.tokens)
    if caption and caption[-1] == BOUNDARY_ID:
        caption = caption[:-1]
    if chosen == BACKWARD:
        caption = caption[::-1]
    return SelectedCaption(caption=caption, chosen=chosen)


# ---------------------------------------------------------------------------
# gate-state traces
# ---------------------------------------------------------------------------

@dataclass
class GateTrace:
    """Both LSTM layers' traces of the teacher-forced pass over one greedy
    caption, plus the emitted word at each step."""

    direction: str
    t_trace: LstmTrace
    m_trace: LstmTrace
    words: list[tuple[int, str, int, float]]  # (step, token, vocab index, prob)


def dump_gate_trace(m: CaptionModel, feature: np.ndarray, direction: str,
                    max_len: int = 50,
                    vocab: Vocabulary | None = None) -> GateTrace:
    """Greedy-decode (beam width 1), then record every step's
    gate/cell/hidden vectors for the text and multimodal LSTM layers from
    the teacher-forced pass over the caption, with each word's
    probability."""
    tokens = decode_direction(m, direction, feature, 1, max_len).tokens
    rec = direction_forward(m, direction, [BOUNDARY_ID] + tokens[:-1], feature)
    words = [(t, vocab.id_to_token[tok] if vocab is not None else str(tok),
              tok, float(rec.probs[t, tok])) for t, tok in enumerate(tokens)]
    return GateTrace(direction=direction, t_trace=rec.t_trace,
                     m_trace=rec.m_trace, words=words)


GATE_HEADER = "step,layer,direction,unit,i,f,o,g,c,h"
WORDS_HEADER = "step,token,vocab_index,prob"


def gate_trace_rows(trace: GateTrace) -> list[str]:
    """One row per step, layer and unit: the gate activations (`gates` of
    the step's pre-activations), then the cell and hidden state."""
    layers = [(layer, (*gates(tr.a), tr.cs[1:], tr.hs[1:])) for layer, tr in
              (("t_lstm", trace.t_trace), ("m_lstm", trace.m_trace))]
    rows = [GATE_HEADER]
    for step in range(len(trace.t_trace)):
        for layer, blocks in layers:
            for unit in range(blocks[-1].shape[1]):
                vals = ",".join(format(b[step, unit], ".17g") for b in blocks)
                rows.append(f"{step},{layer},{trace.direction},{unit},{vals}")
    return rows


def words_rows(trace: GateTrace) -> list[str]:
    rows = [WORDS_HEADER]
    for step, word, index, prob in trace.words:
        rows.append(f"{step},{word},{index},{format(prob, '.17g')}")
    return rows


def write_gate_trace(trace: GateTrace, gates_path, words_path) -> None:
    with open(gates_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(gate_trace_rows(trace)) + "\n")
    with open(words_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(words_rows(trace)) + "\n")
