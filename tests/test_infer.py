import numpy as np
import pytest

import bicaption.infer as infer_mod
from bicaption.data import BOUNDARY_ID, make_toy_dataset
from bicaption.errors import ConfigError, DataError, ShapeError
from bicaption.infer import (GATE_HEADER, Hypothesis, WORDS_HEADER,
                             decode_direction, dump_gate_trace,
                             gate_trace_rows, select_final_caption,
                             words_rows, write_gate_trace)
from bicaption.lstm import gates
from bicaption.model import (ArchitectureKind, BACKWARD, FORWARD, build_model,
                             direction_forward, image_input, random_model)
from bicaption.numcore import PANEL_HEIGHT

from oracles import (enumerate_best_hypothesis, gate_activations,
                     greedy_decode_loop, greedy_gate_loop, per_hypothesis_beam,
                     two_stage_best)

BI = ArchitectureKind.BI_LSTM
BIS = ArchitectureKind.BI_S_LSTM


def tie(m, token, twin, lead=1.0):
    """Exact ties: `twin` duplicates `token` in the softmax and in both
    embeddings, and the two lead the softmax bias by `lead`, so they tie
    within a hypothesis and the hypotheses they extend tie at every later
    step."""
    m.softmax_w[twin] = m.softmax_w[token]
    m.softmax_b[[token, twin]] = m.softmax_b.max() + lead
    for d in (m.fwd, m.bwd):
        d.embedding[:, twin] = d.embedding[:, token]


def assert_beam_matches_reference(m, feature, beam_k, max_len, seed):
    """The batched search keeps the per-hypothesis search's tokens and tie
    order; a batch of rows is one matrix product (or one per row panel)
    rather than one per row, so sums may differ by rounding only."""
    for direction in (FORWARD, BACKWARD):
        hyp = decode_direction(m, direction, feature, beam_k, max_len)
        tokens, logprob, steps = per_hypothesis_beam(
            m, direction, feature, beam_k, max_len)
        assert hyp.tokens == tokens, (seed, direction)
        assert abs(hyp.logprob_sum - logprob) <= 1e-12 * abs(logprob)
        np.testing.assert_allclose(hyp.per_step_logprobs, steps,
                                   rtol=1e-12, atol=0)


class TestDecodeDirection:
    def test_rigged_steps_stop_on_boundary(self, monkeypatch):
        # scripted per-step distributions: token 3 dominates for three steps,
        # then the boundary probability rises to (near) one
        K = 5
        script = [3, 3, 3, BOUNDARY_ID]
        calls = {"n": 0}

        def fake_step(m, d, img, state, tokens):
            logits = np.zeros((len(tokens), K))
            logits[:, script[min(calls["n"], len(script) - 1)]] = 50.0
            calls["n"] += 1
            return logits, state

        monkeypatch.setattr(infer_mod, "_decode_step", fake_step)
        m = build_model(BI, K, 2, 3, 3)
        hyp = decode_direction(m, FORWARD, np.zeros(2), beam_k=1, max_len=10)
        assert hyp.tokens == [3, 3, 3, BOUNDARY_ID]
        assert hyp.tokens[-1] == BOUNDARY_ID  # finished by the boundary

    def test_beam_one_equals_independent_greedy_loop(self):
        archs = list(ArchitectureKind)
        for seed in range(50):
            arch = archs[seed % 3]
            m = random_model(arch, 6, 3, 4, 4, seed=seed, scale=0.8)
            rng = np.random.default_rng(seed)
            feature = rng.uniform(-1, 1, 3)
            direction = FORWARD if seed % 2 == 0 else BACKWARD
            hyp = decode_direction(m, direction, feature, beam_k=1, max_len=8)
            tokens, logprob = greedy_decode_loop(m, direction, feature, 8)
            assert hyp.tokens == tokens, seed
            assert abs(hyp.logprob_sum - logprob) < 1e-9

    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_decoding_and_teacher_forcing_share_one_step(self, arch):
        # feeding a fixed sequence to the decoder one token at a time gives
        # the logits of the teacher-forced pass over it; that pass forms each
        # product over all steps' rows at once, so they agree to rounding
        m = random_model(arch, 6, 3, 4, 4, seed=4, scale=0.8)
        feature = np.random.default_rng(4).uniform(-1, 1, 3)
        tokens = [BOUNDARY_ID, 3, 5, 2, 2, 4, 1]
        for direction in (FORWARD, BACKWARD):
            rec = direction_forward(m, direction, tokens, feature)
            d = m.direction(direction)
            m_cell = image_input(d, feature)
            state = np.zeros((4, 1, m.hidden_dim))
            for t, token in enumerate(tokens):
                logits, state = infer_mod._decode_step(
                    m, d, m_cell, state, np.array([token]))
                np.testing.assert_allclose(logits[0], rec.logits[t], rtol=1e-12,
                                           atol=0, err_msg=f"{direction} {t}")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    def test_beam_three_matches_exhaustive_enumeration(self, seed):
        m = random_model(BI, 4, 3, 3, 3, seed=seed, scale=1.0)
        rng = np.random.default_rng(seed)
        feature = rng.uniform(-1, 1, 3)
        hyp = decode_direction(m, FORWARD, feature, beam_k=3, max_len=3)
        best_tokens, best_lp = enumerate_best_hypothesis(m, FORWARD, feature, 3)
        assert hyp.tokens == best_tokens
        assert abs(hyp.logprob_sum - best_lp) < 1e-9

    @pytest.mark.parametrize("beam_k", [1, 2, 3, 4, 8])  # 8 > vocab size
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_batched_beam_matches_per_hypothesis_reference(self, arch, beam_k):
        for seed in range(12):
            m = random_model(arch, 7, 3, 4, 4, seed=seed, scale=1.2)
            if seed % 2 == 0:
                tie(m, 3, 5)
            feature = np.random.default_rng(seed).uniform(-1, 1, 3)
            assert_beam_matches_reference(m, feature, beam_k,
                                          (1, 2, 3, 5, 8)[seed % 5], seed)

    @pytest.mark.parametrize("beam_k", [2, 3, 4])
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_beam_over_panel_products_matches_reference(self, arch, beam_k):
        # 160 gate rows and a 300-word softmax: every gate and logit product
        # of a step of 2-4 rows runs in row panels (numcore.matvec); tokens
        # 3 and 260 sit in different panels of the softmax and still tie
        # (the lead of 3 makes them win some steps and lose others)
        for seed in range(6):
            m = random_model(arch, 300, 5, 8, 40, seed=seed, scale=1.2)
            assert m.softmax_w.shape[0] > 2 * PANEL_HEIGHT
            assert 4 * m.hidden_dim > PANEL_HEIGHT
            if seed % 2 == 0:
                tie(m, 3, 260, lead=3.0)
            feature = np.random.default_rng(seed).uniform(-1, 1, 5)
            assert_beam_matches_reference(m, feature, beam_k,
                                          (2, 3, 5)[seed % 3], seed)

    def test_one_batched_step_per_time_step(self, monkeypatch):
        calls = {"step": 0, "image": 0}
        real_step, real_image = infer_mod._decode_step, infer_mod.image_input

        def counting_step(*args):
            calls["step"] += 1
            return real_step(*args)

        def counting_image(*args):
            calls["image"] += 1
            return real_image(*args)

        monkeypatch.setattr(infer_mod, "_decode_step", counting_step)
        monkeypatch.setattr(infer_mod, "image_input", counting_image)
        m = random_model(BIS, 6, 3, 4, 4, seed=3)
        m.softmax_b[BOUNDARY_ID] = -1e4  # never ends early: three live to the end
        hyp = decode_direction(m, FORWARD, np.ones(3), beam_k=3, max_len=7)
        assert len(hyp.tokens) == 7
        assert calls == {"step": 7, "image": 1}

    def test_best_matches_two_stage_selection_on_ties(self):
        # signed zeros, repeated values, and sums that round together:
        # -1e3 + (-1 - 1e-14) == -1e3 + (-1), where the larger
        # log-probability wins, though a stable sort of the sums alone
        # would keep the lower token id
        rng = np.random.default_rng(0)
        values = np.array([-0.0, 0.0, -1.0, -1.0 - 1e-14, -2.5, -40.0])
        prevs = np.array([-0.0, 0.0, -1.0, -1e3, -2.5])
        for _ in range(10_000):
            n, width = int(rng.integers(1, 5)), int(rng.integers(1, 12))
            logprobs = rng.choice(values, size=(n, width))
            sums = rng.choice(prevs, size=n)[:, None] + logprobs
            k = int(rng.integers(1, n * width + 3))
            for got, want in zip(infer_mod._best(sums, logprobs, k),
                                 two_stage_best(sums, logprobs, k)):
                np.testing.assert_array_equal(got, want)
        logprobs = np.array([[-1.0 - 1e-14, -1.0]])
        sums = -1e3 + logprobs
        assert sums[0, 0] == sums[0, 1]
        assert [int(t) for t in infer_mod._best(sums, logprobs, 1)[1]] == [1]

    def test_logprob_bookkeeping(self):
        m = random_model(BI, 6, 3, 4, 4, seed=13)
        hyp = decode_direction(m, FORWARD, np.zeros(3), beam_k=2, max_len=6)
        assert all(lp <= 0 for lp in hyp.per_step_logprobs)
        assert abs(hyp.logprob_sum - sum(hyp.per_step_logprobs)) < 1e-12
        assert hyp.logprob_sum <= 0
        assert len(hyp.per_step_logprobs) == len(hyp.tokens)

    def test_shift_invariance_of_greedy(self):
        m = random_model(BI, 6, 3, 4, 4, seed=14)
        feature = np.ones(3) * 0.2
        before = decode_direction(m, FORWARD, feature, beam_k=1, max_len=8)
        m.softmax_b[...] += 7.5  # uniform logit shift at every step
        after = decode_direction(m, FORWARD, feature, beam_k=1, max_len=8)
        assert before.tokens == after.tokens

    def test_max_len_cutoff(self):
        m = build_model(BI, 5, 2, 3, 3)
        m.softmax_b[3] = 1e4  # always emits token 3, never the boundary
        hyp = decode_direction(m, FORWARD, np.zeros(2), beam_k=1, max_len=4)
        assert hyp.tokens == [3, 3, 3, 3]
        assert len(hyp.tokens) == 4  # finished by max_len

    def test_errors(self):
        m = build_model(BI, 5, 2, 3, 3)
        with pytest.raises(ConfigError):
            decode_direction(m, FORWARD, np.zeros(2), beam_k=0)
        with pytest.raises(ConfigError):
            decode_direction(m, FORWARD, np.zeros(2), max_len=0)
        with pytest.raises(ShapeError):
            decode_direction(m, FORWARD, np.zeros(3))


def hyp(tokens, logprob):
    steps = [logprob / len(tokens)] * len(tokens)
    return Hypothesis(tokens=list(tokens), logprob_sum=logprob,
                      per_step_logprobs=steps)


class TestSelectFinalCaption:
    def test_higher_sum_wins(self):
        sel = select_final_caption(hyp([2, 3, 0], -2.0), hyp([4, 5, 0], -5.0))
        assert sel.chosen == FORWARD
        assert sel.caption == [2, 3]

    def test_tie_goes_forward(self):
        sel = select_final_caption(hyp([2, 0], -1.0), hyp([3, 0], -1.0))
        assert sel.chosen == FORWARD

    def test_backward_winner_is_rereversed(self):
        # backward hypotheses read right-to-left; the returned caption is in
        # natural order
        sel = select_final_caption(hyp([2, 3, 0], -9.0), hyp([6, 5, 4, 0], -1.0))
        assert sel.chosen == BACKWARD
        assert sel.caption == [4, 5, 6]

    def test_swapped_arguments_pick_same_hypothesis(self):
        def mirror(h):
            body = h.tokens[:-1] if h.tokens[-1] == BOUNDARY_ID else h.tokens
            return hyp(body[::-1] + [BOUNDARY_ID], h.logprob_sum)

        hf, hb = hyp([2, 3, 0], -4.0), hyp([6, 5, 4, 0], -1.5)
        sel = select_final_caption(hf, hb)
        swapped = select_final_caption(mirror(hb), mirror(hf))
        assert sel.caption == swapped.caption
        assert sel.chosen != swapped.chosen

    def test_unfinished_cutoff_has_no_boundary_strip(self):
        sel = select_final_caption(hyp([2, 3], -1.0), hyp([4], -9.0))
        assert sel.caption == [2, 3]

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(DataError):
            select_final_caption(hyp([2], -1.0), Hypothesis([], 0.0, []))


class TestGateTrace:
    def test_zero_model_gate_values(self):
        m = build_model(BI, 5, 2, 3, 3)
        trace = dump_gate_trace(m, np.zeros(2), FORWARD, max_len=6)
        # uniform probs make the argmax the boundary id, one step
        assert len(trace.t_trace) == len(trace.m_trace) == 1
        for tr in (trace.t_trace, trace.m_trace):
            i, f, o, _ = gates(tr.a)
            np.testing.assert_array_equal(i, np.full((1, 3), 0.5))
            np.testing.assert_array_equal(f, np.full((1, 3), 0.5))
            np.testing.assert_array_equal(o, np.full((1, 3), 0.5))
            np.testing.assert_array_equal(tr.cs, np.zeros((2, 3)))
            np.testing.assert_array_equal(tr.hs, np.zeros((2, 3)))

    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_matches_step_by_step_greedy_loop(self, arch):
        # the trace is the teacher-forced pass over the greedy caption; it
        # forms each product over all steps' rows at once, so it agrees with
        # a one-step-at-a-time greedy loop to rounding
        for seed in range(8):
            m = random_model(arch, 7, 3, 4, 4, seed=seed, scale=0.8)
            feature = np.random.default_rng(seed).uniform(-1, 1, 3)
            for direction in (FORWARD, BACKWARD):
                trace = dump_gate_trace(m, feature, direction, max_len=8)
                tokens, t_ref, m_ref, probs = greedy_gate_loop(
                    m, direction, feature, 8)
                assert [w[2] for w in trace.words] == tokens, (seed, direction)
                for t in range(len(tokens)):
                    for got, want in ((trace.t_trace, t_ref),
                                      (trace.m_trace, m_ref)):
                        for name, got_v, want_v in zip(
                                "ifogch",
                                (*gates(got.a[t]), got.cs[t + 1], got.hs[t + 1]),
                                (*gate_activations(want.a[t]), want.cs[t + 1],
                                 want.hs[t + 1])):
                            err = np.max(np.abs(got_v - want_v))
                            assert err <= 1e-12 * np.max(np.abs(want_v)), \
                                (seed, direction, name, t)
                np.testing.assert_allclose([w[3] for w in trace.words], probs,
                                           rtol=1e-12, atol=0)

    def test_first_step_cell_is_input_times_candidate(self):
        # c_prev = 0 at step 0, so the forget gate cannot contribute
        m = random_model(BI, 6, 3, 4, 4, seed=15)
        trace = dump_gate_trace(m, np.ones(3) * 0.3, FORWARD, max_len=5)
        i, _, _, g = gates(trace.t_trace.a[0])
        np.testing.assert_array_equal(trace.t_trace.cs[1], i * g)

    def test_row_count_matches_decoded_length(self):
        m = random_model(BI, 6, 3, 4, 4, seed=16)
        trace = dump_gate_trace(m, np.zeros(3), FORWARD, max_len=7)
        greedy = decode_direction(m, FORWARD, np.zeros(3), beam_k=1, max_len=7)
        assert len(trace.t_trace) == len(greedy.tokens)
        assert len(trace.words) == len(greedy.tokens)
        rows = gate_trace_rows(trace)
        assert rows[0] == GATE_HEADER
        assert len(rows) == 1 + len(greedy.tokens) * 2 * 4  # steps x layers x units

    def test_words_rows_track_emissions(self):
        m = random_model(BI, 6, 3, 4, 4, seed=17)
        greedy = decode_direction(m, FORWARD, np.zeros(3), beam_k=1, max_len=7)
        trace = dump_gate_trace(m, np.zeros(3), FORWARD, max_len=7)
        assert [w[2] for w in trace.words] == greedy.tokens
        for step, word, index, prob in trace.words:
            assert word == str(index)
            assert 0.0 < prob <= 1.0
        rows = words_rows(trace)
        assert rows[0] == WORDS_HEADER

    def test_vocab_resolves_words(self):
        vocab, examples = make_toy_dataset(3, 10, 7, seed=1)
        m = random_model(BI, 10, 7, 4, 4, seed=18)
        trace = dump_gate_trace(m, examples[0].feature, FORWARD, max_len=5,
                                vocab=vocab)
        for _, word, index, _ in trace.words:
            assert word == vocab.id_to_token[index]

    def test_write_files(self, tmp_path):
        m = random_model(BI, 6, 3, 4, 4, seed=19)
        trace = dump_gate_trace(m, np.zeros(3), BACKWARD, max_len=4)
        gates = tmp_path / "g.csv"
        words = tmp_path / "w.csv"
        write_gate_trace(trace, gates, words)
        gate_lines = gates.read_text().strip().splitlines()
        assert gate_lines[0] == GATE_HEADER
        assert all(",backward," in line for line in gate_lines[1:])
        assert words.read_text().startswith(WORDS_HEADER)
