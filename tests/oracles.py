"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's own code paths: the LSTM
oracle is scalar Python loops, the full-stack oracle is straight-line numpy,
the decoding oracles re-run the forward pass from scratch on every prefix,
one hypothesis at a time, retrieval ranks are found one query at a time,
and BLEU-style counts are done by hand where needed. Two are exceptions.
The finite-difference loss is the library's own forward pass, rerun in
full for both directions, the reference that grad_check's reuse of
unperturbed rows must match bit for bit. The fresh-array LSTM step is the
library's step arithmetic with a new array for each result, the reference
that lstm.cell_forward's writes into its caller's rows must match bit for
bit.
"""

import math

import numpy as np

from bicaption.data import BOUNDARY_ID
from bicaption.lstm import LstmTrace, gates, sequence_forward
from bicaption.model import (ArchitectureKind, BACKWARD, FORWARD,
                             ForwardPassRecord, direction_forward, image_input)
from bicaption.numcore import log_softmax, matvec
from bicaption.train import _fd_direction, direction_io


def scalar_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def fresh_cell_forward(p, drive, h_prev, c_prev):
    """The LSTM step on fresh arrays: a = drive + Wh @ h_prev, then with
    (i, f, o, g) = gates(a), c = f*c_prev + i*g and h = o*tanh(c), each a
    new array, for a vector or (B, H) rows of state. Returns (a, c, h):
    the reference that lstm.cell_forward, which writes into its caller's
    rows, must equal bit for bit."""
    a = drive + (p.Wh @ h_prev if h_prev.ndim == 1 else matvec(p.Wh, h_prev))
    i, f, o, g = gates(a)
    c = f * c_prev
    c += i * g
    h = np.tanh(c)
    return a, c, np.multiply(h, o, out=h)


def scalar_lstm_forward(Wx, Wh, b, xs, h0, c0):
    """Gate recurrence evaluated with plain Python loops; returns the
    per-step (h, c) lists."""
    H = len(h0)
    D = len(xs[0]) if len(xs) else 0
    h = list(h0)
    c = list(c0)
    steps = []
    for x in xs:
        a = []
        for r in range(4 * H):
            s = b[r]
            for j in range(D):
                s += Wx[r][j] * x[j]
            for j in range(H):
                s += Wh[r][j] * h[j]
            a.append(s)
        i = [scalar_sigmoid(a[k]) for k in range(H)]
        f = [scalar_sigmoid(a[H + k]) for k in range(H)]
        o = [scalar_sigmoid(a[2 * H + k]) for k in range(H)]
        g = [math.tanh(a[3 * H + k]) for k in range(H)]
        c = [f[k] * c[k] + i[k] * g[k] for k in range(H)]
        h = [o[k] * math.tanh(c[k]) for k in range(H)]
        steps.append((list(h), list(c)))
    return steps


def inline_bilstm_probs(E, tWx, tWh, tb, mWx, mWh, mb, Ws, bs, tokens,
                        feature):
    """Straight-line re-statement of the plain bidirectional stack for one
    direction: embed, gated text cell, concat feature, gated multimodal
    cell, softmax. No calls into the library."""
    H = tWh.shape[1]
    h1 = np.zeros(H)
    c1 = np.zeros(H)
    h2 = np.zeros(H)
    c2 = np.zeros(H)
    probs = []
    for tok in tokens:
        x = E[:, tok]
        a = tWx @ x + tWh @ h1 + tb
        i = 1.0 / (1.0 + np.exp(-a[:H]))
        f = 1.0 / (1.0 + np.exp(-a[H:2 * H]))
        o = 1.0 / (1.0 + np.exp(-a[2 * H:3 * H]))
        g = np.tanh(a[3 * H:])
        c1 = f * c1 + i * g
        h1 = o * np.tanh(c1)
        z = np.concatenate([h1, feature])
        a2 = mWx @ z + mWh @ h2 + mb
        i2 = 1.0 / (1.0 + np.exp(-a2[:H]))
        f2 = 1.0 / (1.0 + np.exp(-a2[H:2 * H]))
        o2 = 1.0 / (1.0 + np.exp(-a2[2 * H:3 * H]))
        g2 = np.tanh(a2[3 * H:])
        c2 = f2 * c2 + i2 * g2
        h2 = o2 * np.tanh(c2)
        logits = Ws @ h2 + bs
        e = np.exp(logits - logits.max())
        probs.append(e / e.sum())
    return probs


def gate_activations(a):
    """(i, f, o, g) of one step's gate pre-activations."""
    H = a.shape[0] // 4
    z = np.exp(-np.abs(a[:3 * H]))
    s = np.where(a[:3 * H] >= 0.0, 1.0, z) / (1.0 + z)
    return s[:H], s[H:2 * H], s[2 * H:], np.tanh(a[3 * H:])


def _gated_step(Wx, Wh, b, x, h, c):
    """One LSTM step with one matrix-vector product per weight; returns
    (a, c, h)."""
    a = Wx @ x + Wh @ h + b
    i, f, o, g = gate_activations(a)
    c_new = f * c + i * g
    return a, c_new, o * np.tanh(c_new)


class _TraceRows:
    """A sequence's per-step lists, stacked into the LstmTrace that
    model.model_backward and the gate tests read."""

    def __init__(self, H):
        self.x, self.a, self.cs, self.hs = [], [], [np.zeros(H)], [np.zeros(H)]

    def append(self, x, step):
        a, c, h = step
        self.x.append(x)
        self.a.append(a)
        self.cs.append(c)
        self.hs.append(h)
        return h, c

    def trace(self):
        return LstmTrace(*map(np.array, (self.x, self.a, self.cs, self.hs)))


def _transition(tp, h1, h2):
    """(relu pre-activation | None, M-LSTM text input) of one step, one
    matrix-vector product per matrix."""
    if tp is None:
        return None, h1
    if tp.W is None:
        return None, tp.U @ h1 + tp.V @ h2
    pre = np.concatenate([tp.W @ h1, tp.V @ (tp.U @ h1)])
    return pre, np.maximum(0.0, pre)


def per_step_forward(m, direction, tokens, feature):
    """Teacher-forced pass of one direction, one time step at a time: every
    product (T-LSTM input, transition, M-LSTM text input, logits) is one
    matrix-vector product per step, the image projected once into the
    M-LSTM bias. Returns a ForwardPassRecord that model.model_backward
    accepts, its per-step values stacked into rows."""
    d = m.direction(direction)
    H = m.hidden_dim
    m_b = d.Wimg @ feature + d.m_lstm.b
    tp = d.transition
    h1 = c1 = h2 = c2 = np.zeros(H)
    t_rows, m_rows = _TraceRows(H), _TraceRows(H)
    preacts, logits, probs = [], [], []
    for tok in tokens:
        x = d.embedding[:, tok]
        h1, c1 = t_rows.append(x, _gated_step(
            d.t_lstm.Wx, d.t_lstm.Wh, d.t_lstm.b, x, h1, c1))
        pre, text = _transition(tp, h1, h2)
        if pre is not None:
            preacts.append(pre)
        h2, c2 = m_rows.append(text, _gated_step(
            d.m_lstm.Wx, d.m_lstm.Wh, m_b, text, h2, c2))
        z = m.softmax_w @ h2 + m.softmax_b
        e = np.exp(z - z.max())
        logits.append(z)
        probs.append(e / e.sum())
    return ForwardPassRecord(
        direction=direction, tokens=list(tokens), feature=feature,
        t_trace=t_rows.trace(), m_trace=m_rows.trace(),
        transition_preacts=(np.array(preacts) if preacts
                            else np.empty((len(tokens), 0))),
        logits=np.array(logits), probs=np.array(probs))


def greedy_gate_loop(m, direction, feature, max_len):
    """Greedy decode one step at a time on vector states, recording every
    step's T-LSTM and M-LSTM rows and the emitted token's probability.
    Returns (tokens, T-LSTM trace, M-LSTM trace, probs)."""
    d = m.direction(direction)
    H = m.hidden_dim
    m_b = d.Wimg @ feature + d.m_lstm.b
    h1 = c1 = h2 = c2 = np.zeros(H)
    tok = BOUNDARY_ID
    t_rows, m_rows = _TraceRows(H), _TraceRows(H)
    tokens, probs = [], []
    for _ in range(max_len):
        x = d.embedding[:, tok]
        h1, c1 = t_rows.append(x, _gated_step(
            d.t_lstm.Wx, d.t_lstm.Wh, d.t_lstm.b, x, h1, c1))
        _, text = _transition(d.transition, h1, h2)
        h2, c2 = m_rows.append(text, _gated_step(
            d.m_lstm.Wx, d.m_lstm.Wh, m_b, text, h2, c2))
        z = m.softmax_w @ h2 + m.softmax_b
        e = np.exp(z - z.max())
        p = e / e.sum()
        tok = int(np.argmax(p))
        tokens.append(tok)
        probs.append(float(p[tok]))
        if tok == BOUNDARY_ID:
            break
    return tokens, t_rows.trace(), m_rows.trace(), probs


def greedy_decode_loop(m, direction, feature, max_len):
    """Greedy decode that re-runs the full forward pass on the growing
    prefix each step instead of carrying incremental state."""
    inputs = [BOUNDARY_ID]
    emitted = []
    logprob = 0.0
    for _ in range(max_len):
        rec = direction_forward(m, direction, inputs, feature)
        lps = log_softmax(rec.logits[-1])
        tok = int(np.argmax(lps))
        emitted.append(tok)
        logprob += float(lps[tok])
        if tok == BOUNDARY_ID:
            break
        inputs.append(tok)
    return emitted, logprob


def two_stage_best(sums, logprobs, k):
    """A beam step's selection in two stages: each hypothesis's top k tokens
    (the first k of a stable argsort of its log-probabilities, ties to the
    lower token id), then a stable sort of those candidates' sums in
    emission order (hypothesis, then rank within it). Returns (rows,
    tokens) of the first k."""
    top = np.argsort(-logprobs, axis=1, kind="stable")[:, :k]
    top_sums = np.take_along_axis(sums, top, axis=1)
    rows, rank = np.divmod(
        np.argsort(-top_sums, axis=None, kind="stable")[:k], top.shape[1])
    return rows, top[rows, rank]


def per_hypothesis_beam(m, direction, feature, beam_k, max_len):
    """Beam search advancing one hypothesis at a time, each by a full
    forward pass over its prefix: every hypothesis's top beam_k tokens by a
    stable argsort of the whole distribution, candidates stably sorted by
    summed log-probability, and the first best finished hypothesis wins.
    Returns (tokens, logprob_sum) of the winner."""
    live = [([], 0.0)]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for tokens, lp_sum in live:
            rec = direction_forward(m, direction, [BOUNDARY_ID] + tokens,
                                    feature)
            lps = log_softmax(rec.logits[-1])
            for tok in np.argsort(-lps, kind="stable")[:beam_k]:
                candidates.append((tokens + [int(tok)],
                                   lp_sum + float(lps[tok])))
        candidates.sort(key=lambda c: -c[1])
        live = []
        for cand in candidates[:beam_k]:
            if cand[0][-1] == BOUNDARY_ID or len(cand[0]) >= max_len:
                finished.append(cand)
            else:
                live.append(cand)
    return max(finished, key=lambda c: c[1])


def enumerate_best_hypothesis(m, direction, feature, max_len):
    """Exhaustively score every emission sequence that terminates on the
    boundary token or at max_len; returns (tokens, logprob_sum) of the best."""
    best_tokens = None
    best_lp = -math.inf

    def extend(inputs, emitted, lp_sum):
        nonlocal best_tokens, best_lp
        rec = direction_forward(m, direction, inputs, feature)
        lps = log_softmax(rec.logits[-1])
        for tok in range(m.vocab_size):
            lp = lp_sum + float(lps[tok])
            seq = emitted + [tok]
            if tok == BOUNDARY_ID or len(seq) >= max_len:
                if lp > best_lp:
                    best_lp = lp
                    best_tokens = seq
            else:
                extend(inputs + [tok], seq, lp)

    extend([BOUNDARY_ID], [], 0.0)
    return best_tokens, best_lp


def per_query_ranks(scores, ground_truth, direction):
    """Retrieval ranks one query at a time: the ground truth inverted into a
    dict for sentence-to-image queries, then per query a stable argsort of
    its negated scores (ties keep the lower index), a position dict, and
    the best position of its ground-truth items. Returns one 1-based rank
    per query; the query grid is `scores` or its transpose."""
    if direction == "image_to_sentence":
        grid, gt = scores, ground_truth
    else:
        grid, gt = scores.T, {}
        for img, sents in ground_truth.items():
            for s in sents:
                gt.setdefault(s, set()).add(img)
    ranks = []
    for q in range(grid.shape[0]):
        order = np.argsort(-grid[q], kind="stable")
        position = {int(idx): rank for rank, idx in enumerate(order, start=1)}
        ranks.append(min(position[t] for t in gt[q]))
    return ranks


def _fd_loss_and_signs(m, ex):
    """Joint loss for the finite-difference loop, plus (for the relu
    architecture) the sign pattern of every transition pre-activation, used
    to reject kink-crossing perturbations: both directions recomputed in
    full, the reference for train.grad_check's reuse of unperturbed rows.

    Each direction runs the shared `model.unroll` that joint_loss runs
    through direction_forward, minus the probabilities, so the arithmetic
    is identical and a test pins the two to exact equality.
    """
    passes = []
    for direction in (FORWARD, BACKWARD):
        inputs, targets = direction_io(ex.tokens, direction)
        d = m.direction(direction)
        h1s = sequence_forward(d.t_lstm, d.embedding.T[inputs]).hs[1:]
        passes.append(_fd_direction(m, d, targets, h1s,
                                    image_input(d, ex.feature)))
    (lf, sf, _), (lb, sb, _) = passes
    return lf + lb, (sf + sb if m.arch == ArchitectureKind.BI_F_LSTM else None)


def central_difference_grad(loss_fn, arr, eps=1e-6):
    """Numeric gradient of loss_fn() with respect to every entry of arr
    (perturbed in place and restored)."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        lp = loss_fn()
        flat[idx] = orig - eps
        lm = loss_fn()
        flat[idx] = orig
        gflat[idx] = (lp - lm) / (2.0 * eps)
    return grad


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _rank1_lstm_step(Wx, Wh, tr, t, x, dh, dc, grads):
    """Step t of an LstmTrace backward, on its input x, adding its rank-1
    weight terms into grads = [dWx, dWh, db]; returns (da, dx, dh_prev,
    dc_prev)."""
    i, f, o, g = gate_activations(tr.a[t])
    tanh_c = np.tanh(tr.cs[t + 1])
    dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
    da = np.concatenate([
        dc_total * g * i * (1.0 - i),
        dc_total * tr.cs[t] * f * (1.0 - f),
        dh * tanh_c * o * (1.0 - o),
        dc_total * i * (1.0 - g * g),
    ])
    grads[0] += np.outer(da, x)
    grads[1] += np.outer(da, tr.hs[t])
    grads[2] += da
    return da, Wx.T @ da, Wh.T @ da, dc_total * f


def rank1_model_backward(m, rec, targets):
    """Per-step reference for model.model_backward: every weight gradient
    is accumulated one rank-1 np.outer term per time step, the M-LSTM and
    T-LSTM steps included. Returns (loss, block name -> gradient)."""
    d = m.direction(rec.direction)
    prefix = "fwd" if rec.direction == "forward" else "bwd"
    H = m.hidden_dim
    tr_p = d.transition
    g = {f"{prefix}.{name}": np.zeros_like(arr) for name, arr in (
        ("embedding", d.embedding), ("t_lstm.Wx", d.t_lstm.Wx),
        ("t_lstm.Wh", d.t_lstm.Wh), ("t_lstm.b", d.t_lstm.b),
        ("m_lstm.Wx", d.m_lstm.Wx), ("m_lstm.Wh", d.m_lstm.Wh),
        ("m_lstm.b", d.m_lstm.b), ("m_lstm.Wimg", d.Wimg))}
    g["softmax_w"] = np.zeros_like(m.softmax_w)
    g["softmax_b"] = np.zeros_like(m.softmax_b)
    if tr_p is not None:
        for name in ("U", "V", "W"):
            if getattr(tr_p, name) is not None:
                g[f"{prefix}.trans.{name}"] = np.zeros_like(getattr(tr_p, name))
    t_acc = [g[f"{prefix}.t_lstm.{k}"] for k in ("Wx", "Wh", "b")]
    m_acc = [g[f"{prefix}.m_lstm.{k}"] for k in ("Wx", "Wh", "b")]

    loss = -sum(log_softmax(rec.logits[t])[tgt] for t, tgt in enumerate(targets))
    T = len(targets)
    t_tr, m_tr = rec.t_trace, rec.m_trace
    dh1_seq = [np.zeros(H) for _ in range(T)]
    dh2_carry, dc2_carry = np.zeros(H), np.zeros(H)
    for t in range(T - 1, -1, -1):
        dlogit = rec.probs[t].copy()
        dlogit[targets[t]] -= 1.0
        g["softmax_w"] += np.outer(dlogit, m_tr.hs[t + 1])
        g["softmax_b"] += dlogit
        dh2 = m.softmax_w.T @ dlogit + dh2_carry
        # the trace holds the text input Wx multiplied; Wimg multiplied the
        # feature
        da, d_text, dh2_carry, dc2_carry = _rank1_lstm_step(
            d.m_lstm.Wx, d.m_lstm.Wh, m_tr, t, m_tr.x[t], dh2, dc2_carry,
            m_acc)
        g[f"{prefix}.m_lstm.Wimg"] += np.outer(da, rec.feature)
        h1 = t_tr.hs[t + 1]
        if tr_p is None:
            dh1_seq[t] += d_text
        elif tr_p.W is None:
            g[f"{prefix}.trans.U"] += np.outer(d_text, h1)
            g[f"{prefix}.trans.V"] += np.outer(d_text, m_tr.hs[t])
            dh1_seq[t] += tr_p.U.T @ d_text
            dh2_carry = dh2_carry + tr_p.V.T @ d_text
        else:
            dpre = d_text * (rec.transition_preacts[t] > 0.0)
            ww = tr_p.W.shape[0]
            dpre_w, dpre_v = dpre[:ww], dpre[ww:]
            g[f"{prefix}.trans.W"] += np.outer(dpre_w, h1)
            g[f"{prefix}.trans.V"] += np.outer(dpre_v, tr_p.U @ h1)
            du = tr_p.V.T @ dpre_v
            g[f"{prefix}.trans.U"] += np.outer(du, h1)
            dh1_seq[t] += tr_p.W.T @ dpre_w + tr_p.U.T @ du

    dh1_carry, dc1_carry = np.zeros(H), np.zeros(H)
    for t in range(T - 1, -1, -1):
        _, dx, dh1_carry, dc1_carry = _rank1_lstm_step(
            d.t_lstm.Wx, d.t_lstm.Wh, t_tr, t, t_tr.x[t],
            dh1_seq[t] + dh1_carry, dc1_carry, t_acc)
        g[f"{prefix}.embedding"][:, rec.tokens[t]] += dx
    return loss, g
