import sys
import tracemalloc

import numpy as np
import pytest

import bicaption.model as model_mod
import bicaption.numcore as numcore
from bicaption.data import CaptionedExample
from bicaption.errors import ConfigError, ShapeError, VocabError
from bicaption.lstm import cell_forward, input_drive
from bicaption.model import (ArchitectureKind, BACKWARD, FORWARD, Scatter,
                             TransitionParams, build_model, direction_forward,
                             image_input, init_model, model_backward,
                             random_model, transition_forward)
from bicaption.train import (accumulate_grads, direction_io, joint_backward,
                             joint_loss)

from oracles import (central_difference_grad, inline_bilstm_probs,
                     per_step_forward, rank1_model_backward)

BI = ArchitectureKind.BI_LSTM
BIS = ArchitectureKind.BI_S_LSTM
BIF = ArchitectureKind.BI_F_LSTM


class TestInitModel:
    def test_seed_determinism(self):
        a = init_model(BIS, 10, 4, 6, 8, seed=7)
        b = init_model(BIS, 10, 4, 6, 8, seed=7)
        for (na, aa), (nb, ab) in zip(a.blocks(), b.blocks()):
            assert na == nb
            np.testing.assert_array_equal(aa, ab)

    def test_weights_in_init_range_biases_zero(self):
        m = init_model(BIF, 10, 4, 6, 8, seed=1)
        for name, arr in m.blocks():
            if name.endswith(".b") or name == "softmax_b":
                np.testing.assert_array_equal(arr, np.zeros_like(arr))
            else:
                assert np.all(np.abs(arr) <= 0.08)
                assert np.any(arr != 0.0)

    def test_stacked_transition_shapes(self):
        m = init_model(BIS, 10, 4, 6, 8, seed=0)
        assert m.fwd.transition.U.shape == (8, 8)
        assert m.fwd.transition.V.shape == (8, 8)
        assert m.fwd.transition.W is None

    def test_relu_transition_default_widths(self):
        m = init_model(BIF, 10, 4, 6, 8, seed=0)
        assert m.fwd.transition.U.shape == (4, 8)
        assert m.fwd.transition.V.shape == (4, 4)
        assert m.fwd.transition.W.shape == (4, 8)
        # Wx reads the text side, W rows + V rows; Wimg the feature
        assert m.fwd.m_lstm.input_dim == 8
        assert m.fwd.Wimg.shape == (32, 4)

    def test_zero_dim_rejected(self):
        with pytest.raises(ConfigError):
            init_model(BI, 0, 4, 6, 8)
        with pytest.raises(ConfigError):
            init_model(BI, 10, 4, 6, -1)

    def test_directions_are_independent_parameters(self):
        m = init_model(BI, 6, 3, 4, 4, seed=5)
        assert not np.array_equal(m.fwd.embedding, m.bwd.embedding)

    @pytest.mark.parametrize("make", [init_model, random_model])
    def test_one_draw_alive_at_a_time(self, make):
        # each M-LSTM's Wx and Wimg are drawn as one 4H x (H + F) matrix;
        # a draw kept until the next one is made would add the M-LSTM Wh
        # drawn after it (2 MiB here) to the peak
        tracemalloc.start()
        try:
            m = make(BIS, 2000, 1024, 64, 256, seed=1)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        merged = 8 * 4 * 256 * (256 + 1024)  # the largest draw, 10 MiB
        assert size >= sum(arr.nbytes for _, arr in m.blocks())
        assert peak - size < merged + (1 << 19), (peak - size) / 2**20


class TestTransitions:
    def test_stacked_zero(self):
        _, out = transition_forward(
            BIS, TransitionParams(np.zeros((2, 2)), np.zeros((2, 2))),
            np.ones(2), np.ones(2))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_stacked_passthrough(self):
        h = np.array([0.3, -0.7])
        _, out = transition_forward(
            BIS, TransitionParams(np.eye(2), np.zeros((2, 2))), h, np.ones(2))
        np.testing.assert_array_equal(out, h)

    def test_stacked_hand_case(self):
        # U @ [1,1] = [1,2]; V @ [2,3] = [5,3]; sum = [6,5]
        U = np.array([[1.0, 0.0], [0.0, 2.0]])
        V = np.array([[1.0, 1.0], [0.0, 1.0]])
        _, out = transition_forward(BIS, TransitionParams(U, V),
                                    np.array([1.0, 1.0]), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(out, [6.0, 5.0])

    def test_relu_zero_matrices(self):
        _, out = transition_forward(
            BIF, TransitionParams(U=np.zeros((2, 4)), V=np.zeros((2, 2)),
                                  W=np.zeros((3, 4))), np.ones(4), None)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_relu_output_length_contract(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 4))
        U = rng.normal(size=(2, 4))
        V = rng.normal(size=(5, 2))
        _, out = transition_forward(BIF, TransitionParams(U=U, V=V, W=W),
                                    rng.normal(size=4), None)
        assert out.shape == (3 + 5,)

    def test_relu_scalar_hand_case(self):
        # W h = [-1]; V (U h) = [3 * (2 * -1)] = [-6]; relu -> [0, 0]
        _, out = transition_forward(
            BIF, TransitionParams(U=np.array([[2.0]]), V=np.array([[3.0]]),
                                  W=np.array([[1.0]])), np.array([-1.0]), None)
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestDirectionForward:
    def test_single_step_probs_normalized(self):
        m = init_model(BI, 6, 3, 4, 4, seed=2)
        rec = direction_forward(m, FORWARD, [0], np.zeros(3))
        assert len(rec) == 1
        assert abs(rec.probs[0].sum() - 1.0) < 1e-12

    def test_all_probs_are_probability_vectors(self):
        for arch in (BI, BIS, BIF):
            m = random_model(arch, 6, 3, 4, 4, seed=3)
            rec = direction_forward(m, FORWARD, [0, 2, 3, 2], np.ones(3))
            for p in rec.probs:
                assert np.all(p >= 0)
                assert abs(p.sum() - 1.0) < 1e-12

    def test_palindrome_with_mirrored_params(self):
        m = init_model(BI, 6, 3, 4, 4, seed=4)
        for name, arr in m.blocks():  # the backward blocks copy the forward's
            if name.startswith("bwd."):
                arr[...] = m.params["fwd." + name.removeprefix("bwd.")]
        tokens = [0, 2, 3, 2]  # palindromic input sequence
        feature = np.array([0.1, -0.2, 0.3])
        rec_f = direction_forward(m, FORWARD, tokens, feature)
        rec_b = direction_forward(m, BACKWARD, tokens, feature)
        for pf, pb in zip(rec_f.probs, rec_b.probs):
            np.testing.assert_array_equal(pf, pb)

    def test_matches_straight_line_oracle(self):
        m = init_model(BI, 5, 2, 3, 3, seed=11)
        tokens = [0, 2]
        feature = np.array([0.4, -0.6])
        rec = direction_forward(m, FORWARD, tokens, feature)
        d = m.fwd
        oracle = inline_bilstm_probs(
            d.embedding, d.t_lstm.Wx, d.t_lstm.Wh, d.t_lstm.b,
            np.hstack([d.m_lstm.Wx, d.Wimg]), d.m_lstm.Wh, d.m_lstm.b,
            m.softmax_w, m.softmax_b, tokens, feature)
        assert len(rec.probs) == 2
        for got, want in zip(rec.probs, oracle):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_token_out_of_range(self):
        m = init_model(BI, 5, 2, 3, 3, seed=0)
        with pytest.raises(VocabError):
            direction_forward(m, FORWARD, [0, 5], np.zeros(2))

    def test_feature_dim_mismatch(self):
        m = init_model(BI, 5, 2, 3, 3, seed=0)
        with pytest.raises(ShapeError):
            direction_forward(m, FORWARD, [0], np.zeros(3))

    def test_empty_sequence_is_valid(self):
        m = init_model(BI, 5, 2, 3, 3, seed=0)
        rec = direction_forward(m, FORWARD, [], np.zeros(2))
        assert len(rec) == 0
        assert len(rec.t_trace) == len(rec.m_trace) == 0

    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_m_lstm_trace_records_text_input(self, arch):
        # the image is folded into the M-LSTM cell's bias, so a step's trace
        # holds the text input the cell multiplied, not [text, feature]
        m = random_model(arch, 6, 3, 4, 4, seed=5)
        tw = m.fwd.m_lstm.input_dim
        rec = direction_forward(m, FORWARD, [0, 2, 3], np.ones(3))
        h1s = rec.t_trace.hs[1:]
        # the transition runs over all rows; the bi-s-lstm's V @ h2 is the
        # M-LSTM's feedback, added to each row within its step
        _, texts = transition_forward(arch, m.fwd.transition, h1s, None)
        if arch == BIS:
            texts = [text + m.fwd.transition.V.dot(h2)
                     for text, h2 in zip(texts, rec.m_trace.hs[:-1])]
        assert rec.m_trace.x.shape == (3, tw)
        np.testing.assert_array_equal(rec.m_trace.x, texts)
        rows = np.ones((2, 4))
        _, text = transition_forward(arch, m.fwd.transition, rows, 0 * rows)
        assert text.shape == (2, tw)

    def test_bi_s_lstm_rows_are_its_feedback_steps(self):
        # unroll's trace rows are the stacked transition's U @ h1 rows, each
        # completed with V @ h2 of the previous state, then that input's
        # drive and the (h, c) the image-folded cell wrote from it
        m = random_model(BIS, 6, 3, 4, 4, seed=6)
        feature = np.array([0.4, -0.2, 0.9])
        rec = direction_forward(m, FORWARD, [0, 2, 3, 5, 4], feature)
        m_cell = image_input(m.fwd, feature)
        tr = rec.m_trace
        _, below = transition_forward(BIS, m.fwd.transition,
                                      rec.t_trace.hs[1:], None)
        h2 = c2 = np.zeros(4)
        for t in range(len(rec)):
            h, c = np.empty((2, 4))
            x = below[t] + m.fwd.transition.V.dot(h2)
            a = input_drive(m_cell, x)
            cell_forward(m_cell, a, h2, c2, h, c)
            h2, c2 = h, c
            np.testing.assert_array_equal(tr.x[t], x)
            np.testing.assert_array_equal(tr.a[t], a)
            np.testing.assert_array_equal(tr.cs[t + 1], c2)
            np.testing.assert_array_equal(tr.hs[t + 1], h2)
        np.testing.assert_array_equal(tr.hs[0], np.zeros(4))
        np.testing.assert_array_equal(tr.cs[0], np.zeros(4))


class TestSharedSoftmax:
    def test_mutation_affects_both_directions(self):
        m = init_model(BI, 6, 3, 4, 4, seed=6)
        feature = np.ones(3)
        before_f = direction_forward(m, FORWARD, [0, 2], feature).probs[-1]
        before_b = direction_forward(m, BACKWARD, [0, 2], feature).probs[-1]
        m.softmax_w[...] += 0.05
        m.softmax_b[2] += 1.0
        after_f = direction_forward(m, FORWARD, [0, 2], feature).probs[-1]
        after_b = direction_forward(m, BACKWARD, [0, 2], feature).probs[-1]
        assert np.max(np.abs(after_f - before_f)) > 1e-6
        assert np.max(np.abs(after_b - before_b)) > 1e-6


class TestStackedDegeneratesToPlain:
    def test_identity_u_zero_v_reproduces_plain(self):
        plain = random_model(BI, 6, 3, 4, 4, seed=8)
        stacked = build_model(BIS, 6, 3, 4, 4)
        stacked.fwd.embedding[...] = plain.fwd.embedding
        stacked.fwd.t_lstm.Wx[...] = plain.fwd.t_lstm.Wx
        stacked.fwd.t_lstm.Wh[...] = plain.fwd.t_lstm.Wh
        stacked.fwd.t_lstm.b[...] = plain.fwd.t_lstm.b
        stacked.fwd.m_lstm.Wx[...] = plain.fwd.m_lstm.Wx
        stacked.fwd.Wimg[...] = plain.fwd.Wimg
        stacked.fwd.m_lstm.Wh[...] = plain.fwd.m_lstm.Wh
        stacked.fwd.m_lstm.b[...] = plain.fwd.m_lstm.b
        stacked.fwd.transition.U[...] = np.eye(4)
        stacked.fwd.transition.V[...] = 0.0
        stacked.softmax_w[...] = plain.softmax_w
        stacked.softmax_b[...] = plain.softmax_b

        tokens = [0, 2, 4]
        feature = np.array([0.3, -0.1, 0.7])
        rec_plain = direction_forward(plain, FORWARD, tokens, feature)
        rec_stacked = direction_forward(stacked, FORWARD, tokens, feature)
        # the transition collapses to a pass-through of the text hidden state
        for h1, h2_prev in zip(rec_stacked.t_trace.hs[1:],
                               rec_stacked.m_trace.hs[:-1]):
            _, trans = transition_forward(BIS, stacked.fwd.transition, h1,
                                          h2_prev)
            np.testing.assert_array_equal(trans, h1)
        for pp, ps in zip(rec_plain.probs, rec_stacked.probs):
            assert np.max(np.abs(pp - ps)) < 1e-12


class TestModelBackward:
    def test_perfect_prediction_gives_zero_grads(self):
        # a saturated softmax bias makes probs exactly one-hot on token 0
        m = build_model(BI, 5, 2, 3, 3)
        m.softmax_b[0] = 1e4
        ex = CaptionedExample("x", np.zeros(2), [0])
        grads = accumulate_grads([joint_backward(m, ex)[1]])
        for name, g in grads.items():
            assert np.max(np.abs(g)) < 1e-9, name

    def test_single_step_softmax_ce_identity(self):
        m = random_model(BI, 2, 2, 3, 3, seed=9)
        rec = direction_forward(m, FORWARD, [0], np.ones(2))
        grads = accumulate_grads([model_backward(m, rec, [1])])
        expected = rec.probs[0].copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(grads["softmax_b"], expected,
                                   rtol=0, atol=1e-15)

    def test_misaligned_targets(self):
        m = init_model(BI, 5, 2, 3, 3, seed=0)
        rec = direction_forward(m, FORWARD, [0, 2], np.zeros(2))
        with pytest.raises(ShapeError):
            model_backward(m, rec, [2])

    @pytest.mark.parametrize("target", [-1, 5])
    def test_target_outside_vocabulary_refused(self, target, monkeypatch):
        # -1 would train word V-1 and V would index past the softmax; the
        # refusal comes before the backward pass starts
        m = init_model(BI, 5, 2, 3, 3, seed=0)
        rec = direction_forward(m, FORWARD, [0, 2], np.zeros(2))
        monkeypatch.setattr(model_mod, "sequence_backward", None)
        with pytest.raises(VocabError, match=f"target id {target} outside"):
            model_backward(m, rec, [2, target])

    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_groups_name_each_block_once(self, arch):
        # a direction's groups name each of its blocks and the softmax's
        # exactly once; the blocks that read one left factor share a group
        m = random_model(arch, 9, 4, 5, 6, seed=1)
        per_direction = []
        for direction in (FORWARD, BACKWARD):
            inputs, targets = direction_io([3, 5, 2], direction)
            rec = direction_forward(m, direction, inputs, np.ones(4))
            names = [[g.name] if isinstance(g, Scatter) else list(g[1])
                     for g in model_backward(m, rec, targets)]
            p = "fwd" if direction == FORWARD else "bwd"
            want = [[f"{p}.embedding"],
                    [f"{p}.t_lstm.Wx", f"{p}.t_lstm.Wh", f"{p}.t_lstm.b"],
                    [f"{p}.m_lstm.Wx", f"{p}.m_lstm.Wh", f"{p}.m_lstm.b"],
                    [f"{p}.m_lstm.Wimg"], ["softmax_w", "softmax_b"]]
            want += {BI: [], BIS: [[f"{p}.trans.U", f"{p}.trans.V"]],
                     BIF: [[f"{p}.trans.{w}"] for w in "UVW"]}[arch]
            assert names == want
            per_direction.append([n for group in names for n in group])
        fwd, bwd = per_direction
        assert sorted(set(fwd) | set(bwd)) == sorted(n for n, _ in m.blocks())
        assert set(fwd) & set(bwd) == {"softmax_w", "softmax_b"}

    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_joint_gradients_match_finite_differences(self, arch):
        m = random_model(arch, 7, 3, 4, 5, seed=12)
        rng = np.random.default_rng(12)
        ex = CaptionedExample("x", rng.uniform(-0.5, 0.5, 3),
                              [int(t) for t in rng.integers(2, 7, size=3)])
        analytic = accumulate_grads([joint_backward(m, ex)[1]])

        def loss():
            return joint_loss(m, ex).total

        for name, arr in m.blocks():
            numeric = central_difference_grad(loss, arr)
            err = np.max(np.abs(analytic[name] - numeric))
            scale = max(np.max(np.abs(analytic[name])),
                        np.max(np.abs(numeric)), 1e-8)
            assert err / scale < 1e-5, f"{arch.value} {name}: {err / scale}"

    @pytest.mark.parametrize("make", [init_model, random_model])
    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_matches_per_step_rank1_reference(self, arch, make):
        # each weight gradient is one product over the example's rows
        # (accumulate_grads of the one example); it must agree with per-step
        # rank-1 accumulation to 1e-12 of the block's largest value
        for seed in range(3):
            m = make(arch, 9, 4, 5, 6, seed=seed)
            rng = np.random.default_rng([seed, 7])
            ex = CaptionedExample(
                "x", rng.uniform(-0.5, 0.5, 4),
                [int(t) for t in rng.integers(2, 9, size=5 + seed)])
            loss, rows = joint_backward(m, ex)
            grads = accumulate_grads([rows])

            ref_losses, ref = [], {}
            for direction in (FORWARD, BACKWARD):
                inputs, targets = direction_io(ex.tokens, direction)
                rec = direction_forward(m, direction, inputs, ex.feature)
                ref_loss, ref_grads = rank1_model_backward(m, rec, targets)
                ref_losses.append(ref_loss)
                for name, g in ref_grads.items():
                    ref[name] = ref[name] + g if name in ref else g

            assert [loss.loss_fwd, loss.loss_bwd] == ref_losses
            assert list(grads) == list(ref)
            for name, g in grads.items():
                err = np.max(np.abs(g - ref[name]))
                scale = np.max(np.abs(ref[name]))
                assert err <= 1e-12 * scale, \
                    f"{arch.value} seed {seed} {name}: {err} of {scale}"


class TestOneRecurrencePerLstm:
    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_both_lstms_run_the_lstm_module_loops(self, arch, monkeypatch):
        # each LSTM's recurrence is lstm.sequence_forward/sequence_backward,
        # the bi-s-lstm M-LSTM's feedback included; no model code steps a cell
        calls = {"sequence_forward": 0, "sequence_backward": 0}

        def counting(name):
            real = getattr(model_mod, name)

            def wrapped(*args):
                calls[name] += 1
                return real(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(model_mod, name, counting(name))
        m = random_model(arch, 9, 4, 5, 6, seed=1)
        tokens = [0, 3, 5, 2]
        rec = direction_forward(m, FORWARD, tokens, np.ones(4))
        assert calls == {"sequence_forward": 2, "sequence_backward": 0}
        model_backward(m, rec, tokens[1:] + [0])
        assert calls["sequence_backward"] == 2
        assert not hasattr(model_mod, "step")


def assert_matches_per_step_pass(m, ex):
    """Teacher forcing (each product over a sequence's stacked rows) agrees
    with `per_step_forward` (one product per step): logits and losses to
    1e-12 relative, every model_backward block, made dense by
    accumulate_grads, to 1e-12 of its largest value."""
    loss = joint_loss(m, ex)
    for direction, got_loss in ((FORWARD, loss.loss_fwd),
                                (BACKWARD, loss.loss_bwd)):
        inputs, targets = direction_io(ex.tokens, direction)
        rec = direction_forward(m, direction, inputs, ex.feature)
        ref = per_step_forward(m, direction, inputs, ex.feature)
        ref_logits = np.array(ref.logits)
        assert np.max(np.abs(rec.logits - ref_logits)) <= \
            1e-12 * np.max(np.abs(ref_logits))
        ref_loss = -sum(numcore.log_softmax(z)[tgt]
                        for z, tgt in zip(ref.logits, targets))
        assert abs(got_loss - ref_loss) <= 1e-12 * abs(ref_loss)
        grads = accumulate_grads([model_backward(m, rec, targets)])
        ref_grads = accumulate_grads([model_backward(m, ref, targets)])
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            err = np.max(np.abs(g - ref_grads[name]))
            scale = np.max(np.abs(ref_grads[name]))
            assert err <= 1e-12 * scale, \
                f"{m.arch.value} {direction} {name}: {err} of {scale}"


class TestPerSequenceForward:
    @pytest.mark.parametrize("make", [init_model, random_model])
    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_matches_per_step_pass(self, arch, make):
        for seed in range(3):
            m = make(arch, 9, 4, 5, 6, seed=seed)
            rng = np.random.default_rng([seed, 11])
            assert_matches_per_step_pass(m, CaptionedExample(
                "x", rng.uniform(-0.5, 0.5, 4),
                [int(t) for t in rng.integers(1, 9, size=4 + 3 * seed)]))

    @pytest.mark.parametrize("arch", [BI, BIS, BIF])
    def test_matches_per_step_pass_at_train_mid_widths(self, arch):
        m = init_model(arch, 2000, 1024, 256, 256, seed=1)
        rng = np.random.default_rng(1)
        assert_matches_per_step_pass(m, CaptionedExample(
            "x", rng.uniform(-1.0, 1.0, 1024),
            [int(t) for t in rng.integers(1, 2000, size=13)]))

    @pytest.mark.parametrize("arch", [BI, BIF])
    def test_matvec_calls_do_not_grow_with_caption_length(self, arch,
                                                          monkeypatch):
        calls = {"n": 0}
        real = numcore.matvec

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("bicaption")
                    and getattr(mod, "matvec", None) is real):
                monkeypatch.setattr(mod, "matvec", counting)
        m = random_model(arch, 9, 4, 5, 6, seed=2)
        counts = []
        for length in (1, 4, 12):
            calls["n"] = 0
            direction_forward(m, FORWARD, [0] + [3] * length, np.ones(4))
            counts.append(calls["n"])
        assert counts[0] > 0
        assert counts == [counts[0]] * 3


class TestBlockNaming:
    def test_declared_order_and_coverage(self):
        m = init_model(BIF, 5, 2, 3, 4, seed=0)
        names = [name for name, _ in m.blocks()]
        assert names[0] == "fwd.embedding"
        assert names[-2:] == ["softmax_w", "softmax_b"]
        assert "fwd.trans.W" in names and "bwd.trans.V" in names
        assert len(names) == len(set(names))

    def test_copy_is_deep(self):
        m = init_model(BI, 5, 2, 3, 4, seed=0)
        c = m.copy()
        c.fwd.embedding[0, 0] = 99.0
        assert m.fwd.embedding[0, 0] != 99.0

    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_copy_shares_no_array_and_views_its_own_table(self, arch):
        m = random_model(arch, 9, 4, 5, 6, seed=2)
        c = m.copy()
        for (name, a), (_, b) in zip(m.blocks(), c.blocks()):
            assert not np.shares_memory(a, b), name
            np.testing.assert_array_equal(a, b)
        own = {id(arr) for arr in c.params.values()}
        views = [c.softmax_w, c.softmax_b]
        for d in (c.fwd, c.bwd):
            views += [d.embedding, *vars(d.t_lstm).values(),
                      *vars(d.m_lstm).values(), d.Wimg]
            if d.transition is not None:
                views += [w for w in vars(d.transition).values() if w is not None]
        assert len(views) == len(own)
        assert all(id(v) in own for v in views)


class TestParameterTable:
    @pytest.mark.parametrize("arch, widths, expected", [
        (BI, None, (0, 0, 0)),
        (BIS, None, (8, 8, 0)),
        (BIF, (3, 2, 4), (3, 2, 4)),
        (BIF, None, (4, 4, 4)),
    ])
    def test_dimensions_are_read_from_the_blocks(self, arch, widths, expected):
        m = build_model(arch, 11, 5, 6, 8, bif_widths=widths)
        assert (m.vocab_size, m.feature_dim, m.embed_dim, m.hidden_dim) == \
            (11, 5, 6, 8)
        assert m.transition_widths == expected

    @pytest.mark.parametrize("attr", ["bwd", "softmax_w", "hidden_dim",
                                      "params"])
    def test_attributes_cannot_be_rebound(self, attr):
        m = init_model(BIS, 6, 3, 4, 5, seed=1)
        with pytest.raises(AttributeError):
            setattr(m, attr, getattr(m, attr))

    def test_blocks_cannot_be_rebound(self):
        m = init_model(BIS, 6, 3, 4, 5, seed=1)
        with pytest.raises(TypeError):
            m.params["softmax_w"] = np.zeros((6, 5))
