"""Caption generation: beam search per direction (beam width 1 is exactly
greedy argmax), selection of the better direction by summed log-probability,
and gate-state trace export for inspecting the cells over time.

Beam search advances all live hypotheses of a direction as one batch: each
is a row of state, of tokens and of summed log-probability, and each time
step is one `_decode_step` and one selection (`_best`) over every
(hypothesis, token) sum; the image is projected through the M-LSTM once per
image and direction. It is the only decoder: a gate trace is the
teacher-forced pass over the greedy (beam width 1) caption.
"""

from dataclasses import dataclass

import numpy as np

from .data import BOUNDARY_ID, Vocabulary
from .errors import ConfigError, DataError
from .lstm import LstmParams, LstmTrace, cell_forward, gates, input_drive
from .model import (BACKWARD, CaptionModel, DirectionParams, FORWARD,
                    direction_forward, image_input, softmax_logits,
                    transition_forward)
from .numcore import log_softmax


@dataclass
class Hypothesis:
    """A finished candidate. tokens includes the terminating boundary token
    when one was emitted."""

    tokens: list[int]
    logprob_sum: float


def _decode_step(m: CaptionModel, d: DirectionParams, m_cell: LstmParams,
                 state: np.ndarray, tokens):
    """Advance one step: the T-LSTM on an array of token ids, one state row
    per id, then the transition, the image-folded M-LSTM cell and the
    softmax logits, each layer's products one over the rows. `state` is
    the (4, rows, H) block (h1, c1, h2, c2) of both LSTMs; both cells write
    the next state straight into a new block of that shape. Returns
    (logits, new_state), in rows."""
    h1, c1, h2, c2 = state
    new = np.empty_like(state)
    cell_forward(d.t_lstm, input_drive(d.t_lstm, d.embedding.T[tokens]), h1,
                 c1, new[0], new[1])
    _, text = transition_forward(m.arch, d.transition, new[0], h2)
    cell_forward(m_cell, input_drive(m_cell, text), h2, c2, new[2], new[3])
    return softmax_logits(m, new[2]), new


def _best(sums: np.ndarray, logprobs: np.ndarray, k: int):
    """The k best (hypothesis, token) pairs of a (rows, V) table of summed
    log-probabilities as (rows, tokens), best first by sum descending, then
    hypothesis, log-probability descending and token: each hypothesis's top
    k (ties to the lower token) stably sorted by sum. A stable sort of the
    sums alone differs: two log-probabilities can round to one sum."""
    neg = -sums.ravel()
    k = min(k, neg.size)
    # every candidate that can be among the k: usually exactly k of them,
    # more when sums tie with the k-th
    cand = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    rows, tokens = np.divmod(cand, sums.shape[1])
    order = np.lexsort((tokens, -logprobs[rows, tokens], rows, neg[cand]))
    return rows[order[:k]], tokens[order[:k]]


def decode_direction(m: CaptionModel, direction: str, feature: np.ndarray,
                     beam_k: int = 1, max_len: int = 50) -> Hypothesis:
    """Beam search from the boundary start token. A hypothesis finishes when
    it emits the boundary token or reaches max_len; the finished hypothesis
    with the highest summed log-probability wins (ties keep emission order).
    A step whose k-th best sum is NaN (from non-finite logits) is refused.
    """
    if beam_k < 1:
        raise ConfigError(f"beam_k must be >= 1, got {beam_k}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")

    d = m.direction(direction)
    m_cell = image_input(d, feature)
    # the live beam: each row's start token and tokens, and its sum
    seqs = np.array([[BOUNDARY_ID]])
    sums = np.zeros(1)
    state = np.zeros((4, 1, m.hidden_dim))
    finished: list[Hypothesis] = []

    while len(seqs):
        logits, state = _decode_step(m, d, m_cell, state, seqs[:, -1])
        logprobs = log_softmax(logits)
        table = sums[:, None] + logprobs
        rows, tokens = _best(table, logprobs, beam_k)
        if not len(rows):
            raise DataError(f"{direction} decoding step {seqs.shape[1]}: "
                            f"no candidate has a finite log-probability")
        seqs = np.column_stack((seqs[rows], tokens))
        sums = table[rows, tokens]
        done = (tokens == BOUNDARY_ID) | (seqs.shape[1] > max_len)
        finished += [Hypothesis(row[1:].tolist(), float(v))
                     for row, v in zip(seqs[done], sums[done])]
        seqs, sums, state = seqs[~done], sums[~done], state[:, rows[~done]]

    # the beam only empties once a candidate has finished, and the step at
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
