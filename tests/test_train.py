import math
import platform
import resource
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import bicaption.train as train_mod
from bicaption.data import CaptionedExample, make_toy_dataset
from bicaption.errors import (ConfigError, DataError, ShapeError,
                              TrainingError, VocabError)
from bicaption.model import (ArchitectureKind, BACKWARD, FORWARD, CaptionModel,
                             Scatter, build_model, direction_forward,
                             init_model, random_model)
from bicaption.train import (SLAB_SIZE, BlockCheck, TrainConfig,
                             accumulate_grads,
                             direction_io, grad_check, joint_backward,
                             joint_loss, make_state, mean_joint_loss,
                             sgd_step, train_epochs)

from oracles import (_fd_loss_and_signs, rank1_model_backward,
                     sequential_joint_backward)

BI = ArchitectureKind.BI_LSTM


def toy_example(seed=0, vocab=7, feat=3, length=3):
    rng = np.random.default_rng(seed)
    return CaptionedExample(
        "x", rng.uniform(-0.5, 0.5, feat),
        [int(t) for t in rng.integers(2, vocab, size=length)])


class TestDirectionIO:
    def test_forward_shift(self):
        inputs, targets = direction_io([4, 5, 6], FORWARD)
        assert inputs == [0, 4, 5, 6]
        assert targets == [4, 5, 6, 0]

    def test_backward_reverses(self):
        inputs, targets = direction_io([4, 5, 6], BACKWARD)
        assert inputs == [0, 6, 5, 4]
        assert targets == [6, 5, 4, 0]


class TestJointLoss:
    def test_uniform_model_analytic_value(self):
        # all-zero weights give a uniform softmax over K=8; each direction
        # sums T = len + 1 = 3 prediction steps of ln 8
        m = build_model(BI, 8, 2, 3, 3)
        ex = CaptionedExample("x", np.zeros(2), [2, 3])
        loss = joint_loss(m, ex)
        expected = 3 * math.log(8)
        assert abs(loss.loss_fwd - expected) < 1e-9
        assert abs(loss.loss_bwd - expected) < 1e-9
        assert abs(loss.total - 2 * expected) < 1e-9

    def test_perfect_model_zero_loss(self):
        m = build_model(BI, 5, 2, 3, 3)
        m.softmax_b[0] = 1e4  # probs exactly one-hot on the boundary id
        loss = joint_loss(m, CaptionedExample("x", np.zeros(2), [0]))
        assert abs(loss.total) < 1e-9

    def test_palindrome_mirrored_params_symmetry(self):
        m = init_model(BI, 7, 3, 4, 4, seed=3)
        for name, arr in m.blocks():  # the backward blocks copy the forward's
            if name.startswith("bwd."):
                arr[...] = m.params["fwd." + name.removeprefix("bwd.")]
        ex = CaptionedExample("x", np.array([0.2, -0.4, 0.1]), [3, 5, 3])
        loss = joint_loss(m, ex)
        assert loss.loss_fwd == loss.loss_bwd

    def test_losses_nonnegative(self):
        m = random_model(BI, 7, 3, 4, 4, seed=1)
        loss = joint_loss(m, toy_example(1))
        assert loss.loss_fwd >= 0 and loss.loss_bwd >= 0

    def test_empty_caption_rejected(self):
        m = init_model(BI, 7, 3, 4, 4, seed=0)
        with pytest.raises(DataError):
            joint_loss(m, CaptionedExample("x", np.zeros(3), []))

    def test_fd_loss_path_matches_joint_loss_bitwise(self):
        for arch in ArchitectureKind:
            for seed in range(4):
                m = random_model(arch, 9, 3, 4, 5, seed=seed)
                ex = toy_example(seed, vocab=9, length=4)
                lean, _ = _fd_loss_and_signs(m, ex)
                assert lean == joint_loss(m, ex).total


def usable_cpus(monkeypatch, count):
    """Make `train`'s CPU query report `count`; returns its call log."""
    queries = []
    monkeypatch.setattr(train_mod, "_usable_cpus",
                        lambda: queries.append(count) or count)
    return queries


WIDE = train_mod.CONCURRENT_MIN_HIDDEN


class TestBothDirections:
    """From CONCURRENT_MIN_HIDDEN up, with two CPUs, an example's backward
    direction runs on a second thread; nothing a caller reads changes."""

    @pytest.mark.parametrize("hidden", [16, WIDE])
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_bitwise_equal_to_sequential(self, arch, hidden, monkeypatch,
                                         started_threads):
        usable_cpus(monkeypatch, 2)
        m = random_model(arch, 11, 5, hidden, hidden, seed=hidden)
        for length in (1, 5, 9):
            ex = toy_example(length, vocab=11, feat=5, length=length)
            lf, lb, want = sequential_joint_backward(m, ex)
            loss, got = joint_backward(m, ex)
            assert (loss.loss_fwd, loss.loss_bwd) == (lf, lb)
            assert joint_loss(m, ex).total == lf + lb
            assert ([g.name if isinstance(g, Scatter) else list(g[1])
                     for g in got]
                    == [g.name if isinstance(g, Scatter) else list(g[1])
                        for g in want])
            assert ([a.tobytes() for a in row_arrays(got)]
                    == [a.tobytes() for a in row_arrays(want)])
        # one thread for each joint_backward and joint_loss when wide
        assert len(started_threads) == (6 if hidden >= WIDE else 0)

    @pytest.mark.parametrize("hidden, cpus, threads, queries", [
        (WIDE - 1, 2, 0, 0), (WIDE, 1, 0, 1), (WIDE, 2, 1, 1)])
    def test_threads_only_when_wide_on_two_cpus(self, hidden, cpus, threads,
                                                queries, monkeypatch,
                                                started_threads):
        # the width is tested first: a narrow model makes no system call
        asked = usable_cpus(monkeypatch, cpus)
        m = init_model(BI, 7, 3, hidden, hidden, seed=0)
        joint_backward(m, toy_example(0))
        assert (len(started_threads), len(asked)) == (threads, queries)

    def test_worker_runs_in_the_callers_numpy_errstate(self, monkeypatch,
                                                       started_threads):
        usable_cpus(monkeypatch, 2)
        with np.errstate(over="ignore", invalid="raise", divide="warn"):
            fwd, bwd = train_mod._both_directions(
                SimpleNamespace(hidden_dim=WIDE),
                lambda dn: (dn, np.geterr(), threading.get_ident()))
            want = np.geterr()
        assert len(started_threads) == 1
        assert (fwd[0], bwd[0]) == (FORWARD, BACKWARD)
        assert fwd[1] == bwd[1] == want
        assert bwd[2] != fwd[2] == threading.get_ident()

    @pytest.mark.parametrize("raising, error", [
        ({FORWARD}, "forward"), ({BACKWARD}, "backward"),
        ({FORWARD, BACKWARD}, "forward")])
    def test_error_of_either_direction_reaches_the_caller(
            self, raising, error, monkeypatch, started_threads):
        usable_cpus(monkeypatch, 2)

        def fn(direction):
            if direction in raising:
                raise ValueError(direction)
            return direction
        with pytest.raises(ValueError, match=f"^{error}$"):
            train_mod._both_directions(SimpleNamespace(hidden_dim=WIDE), fn)
        assert len(started_threads) == 1
        assert not started_threads[0].is_alive()

    def test_out_of_vocabulary_error_is_the_forward_directions(
            self, monkeypatch, started_threads):
        # each direction names the first bad id it reads: 20 forward, 30
        # backward
        usable_cpus(monkeypatch, 2)
        m = init_model(BI, 7, 3, WIDE, WIDE, seed=0)
        ex = CaptionedExample("x", np.zeros(3), [2, 20, 3, 30])
        before = threading.enumerate()
        for run in (joint_backward, joint_loss):
            with pytest.raises(VocabError, match="token id 20 outside"):
                run(m, ex)
        assert len(started_threads) == 2
        assert threading.enumerate() == before


class TestSgdStep:
    def make(self, seed=0):
        m = init_model(BI, 5, 2, 3, 3, seed=seed)
        return make_state(m)

    def zero_grads(self, m):
        return {name: np.zeros_like(arr) for name, arr in m.blocks()}

    def test_plain_sgd(self):
        state = self.make()
        cfg = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        grads = self.zero_grads(state.model)
        grads["softmax_b"] = np.ones(5)
        before = state.model.softmax_b.copy()
        sgd_step(state, grads, cfg)
        np.testing.assert_allclose(state.model.softmax_b, before - 0.1,
                                   rtol=0, atol=1e-15)

    def test_zero_grad_fixed_point(self):
        state = self.make()
        cfg = TrainConfig(momentum=0.5, weight_decay=0.0)
        before = {n: a.copy() for n, a in state.model.blocks()}
        sgd_step(state, self.zero_grads(state.model), cfg)
        for name, arr in state.model.blocks():
            np.testing.assert_array_equal(arr, before[name])

    def test_weight_decay_hand_value(self):
        # theta=1, g=0, eta=0.01, lambda=0.0005 -> theta' = 0.999995
        state = self.make()
        state.model.softmax_w[...] = 1.0
        cfg = TrainConfig(learning_rate=0.01, momentum=0.0, weight_decay=0.0005)
        sgd_step(state, self.zero_grads(state.model), cfg)
        np.testing.assert_allclose(state.model.softmax_w,
                                   np.full_like(state.model.softmax_w, 0.999995),
                                   rtol=0, atol=1e-15)

    def test_decay_never_touches_biases(self):
        state = self.make()
        state.model.softmax_b[...] = 1.0
        state.model.fwd.t_lstm.b[...] = -2.0
        cfg = TrainConfig(learning_rate=0.01, momentum=0.0, weight_decay=0.5)
        sgd_step(state, self.zero_grads(state.model), cfg)
        np.testing.assert_array_equal(state.model.softmax_b, np.ones(5))
        np.testing.assert_array_equal(state.model.fwd.t_lstm.b,
                                      np.full(12, -2.0))

    def test_momentum_accumulates(self):
        state = self.make()
        cfg = TrainConfig(learning_rate=1.0, momentum=0.5, weight_decay=0.0)
        grads = self.zero_grads(state.model)
        grads["softmax_b"] = np.ones(5)
        before = state.model.softmax_b.copy()
        sgd_step(state, grads, cfg)   # v = -1
        sgd_step(state, grads, cfg)   # v = -1.5
        np.testing.assert_allclose(state.model.softmax_b, before - 2.5,
                                   rtol=0, atol=1e-15)

    def test_global_clip_rescales(self):
        state = self.make()
        cfg = TrainConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0,
                          grad_clip=1.0)
        grads = self.zero_grads(state.model)
        grads["softmax_b"] = np.full(5, 2.0)  # norm = sqrt(20)
        before = state.model.softmax_b.copy()
        sgd_step(state, grads, cfg)
        moved = before - state.model.softmax_b
        assert abs(np.linalg.norm(moved) - 1.0) < 1e-12

    def test_nonfinite_gradient_names_block(self):
        state = self.make()
        grads = self.zero_grads(state.model)
        grads["fwd.t_lstm.Wx"][0, 0] = np.nan
        with pytest.raises(TrainingError, match="fwd.t_lstm.Wx"):
            sgd_step(state, grads, TrainConfig())

    @pytest.mark.parametrize("huge", [
        {"softmax_w": [1e200]},
        {"softmax_w": [1e200], "fwd.embedding": [-1e200]},
        {"softmax_w": [1e308, -1e308], "fwd.t_lstm.Wx": [1e308, 1e308]},
    ])
    def test_clip_holds_when_the_squared_norm_overflows(self, huge):
        # every element is finite but the sum of squares is not; the
        # clipped step still has norm lr * grad_clip, with no numpy warning
        # (the last case's norm, 2e308, is not a float either)
        state = self.make()
        cfg = TrainConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0,
                          grad_clip=1.0)
        grads = self.zero_grads(state.model)
        for name, values in huge.items():
            grads[name].reshape(-1)[:len(values)] = values
        norm = math.sqrt(sum((v / 1e308) ** 2 for vs in huge.values()
                             for v in vs))  # in units of 1e308
        before = {n: a.copy() for n, a in state.model.blocks()}
        sgd_step(state, grads, cfg)
        for name, arr in state.model.blocks():
            want = before[name] - 0.5 * (grads[name] / 1e308) / norm
            np.testing.assert_allclose(arr, want, rtol=1e-12, atol=0)

    def test_velocity_shapes_mirror_parameters(self):
        state = self.make()
        for name, arr in state.model.blocks():
            assert state.velocity[name].shape == arr.shape

    @pytest.mark.parametrize("bad, named", [
        ({"fwd.trans.U": np.ones((3, 3)), "sofmax_w": np.ones((5, 3))},
         "fwd.trans.U"),
        ({"softmax_b": np.ones(5), "sofmax_w": np.ones((5, 3))}, "sofmax_w"),
        ({"fwd.embedding": np.ones((3, 5)), "softmax_w": np.ones((3, 5))},
         "softmax_w"),
    ])
    def test_bad_gradient_dict_moves_nothing(self, bad, named):
        # an unknown block (the bi-lstm model has no transition) or a wrong
        # shape anywhere in the dict is refused before any parameter or
        # velocity moves, naming the first bad block
        state = self.make()
        before = [a.copy() for _, a in state.model.blocks()]
        with pytest.raises(ShapeError, match=named):
            sgd_step(state, bad, TrainConfig())
        for (_, arr), old in zip(state.model.blocks(), before):
            np.testing.assert_array_equal(arr, old)
        assert all(not v.any() for v in state.velocity.values())
        assert state.updates == 0

    @pytest.mark.parametrize("vocab", [6, 2 * SLAB_SIZE + 7])
    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_bitwise_reference_update(self, clip, vocab):
        # v = mu*v - lr*(g + wd*theta); theta += v, biases without decay,
        # on random blocks over three steps. softmax_w is Fortran-ordered;
        # at the large vocabulary it and softmax_b span several slabs with a
        # ragged last one, and each embedding row is over a slab by itself
        lr, mu, wd = 0.03, 0.9, 0.0005
        cfg = TrainConfig(learning_rate=lr, momentum=mu, weight_decay=wd,
                          grad_clip=clip)
        m = random_model(ArchitectureKind.BI_S_LSTM, vocab, 3, 4, 5, seed=1)
        state = make_state(CaptionModel(m.arch, {
            **m.params, "softmax_w": np.asfortranarray(m.softmax_w)}))
        assert not state.model.softmax_w.flags.c_contiguous
        theta = {n: a.copy() for n, a in state.model.blocks()}
        vel = {n: np.zeros_like(a) for n, a in theta.items()}
        rng = np.random.default_rng(2)
        for _ in range(3):
            grads = {n: rng.normal(size=a.shape) for n, a in theta.items()}
            sgd_step(state, grads, cfg)
            if clip is not None:
                # formed as sgd_step forms it, one dot product per block
                norm = math.sqrt(sum(float(np.vdot(g, g))
                                     for g in grads.values()))
                assert norm > clip
                grads = {n: g * (clip / norm) for n, g in grads.items()}
            for n, g in grads.items():
                decay = 0.0 if n.endswith(".b") or n == "softmax_b" else wd
                vel[n] = mu * vel[n] - lr * (g + decay * theta[n])
                theta[n] = theta[n] + vel[n]
        for n, arr in state.model.blocks():
            assert arr.tobytes() == theta[n].tobytes(), n
            assert state.velocity[n].tobytes() == vel[n].tobytes(), n


def rank1_batch_mean(m, batch):
    """The mean over a batch of `rank1_model_backward`'s per-step gradients,
    both directions of each example."""
    total = {}
    for ex in batch:
        for direction in (FORWARD, BACKWARD):
            inputs, targets = direction_io(ex.tokens, direction)
            rec = direction_forward(m, direction, inputs, ex.feature)
            for name, g in rank1_model_backward(m, rec, targets)[1].items():
                total[name] = total[name] + g if name in total else g
    return {name: g / len(batch) for name, g in total.items()}


def row_arrays(groups):
    """Every array of a list of gradient groups, in a fixed order."""
    out = []
    for g in groups:
        if isinstance(g, Scatter):
            out += [g.rows, g.ids]
        else:  # a left factor and its blocks' right rows, None for a bias
            left, rights = g
            out += [left, *(r for r in rights.values() if r is not None)]
    return out


# captions of ragged lengths; a token id repeats within an example (3, 7)
# and across examples (3, 5, 2)
BATCH_TOKENS = {1: [[4, 2, 4, 6]],
                4: [[3, 5, 3], [5, 2, 7, 7, 4], [6], [3, 8, 2, 5]]}


class TestAccumulateGrads:
    def test_mean_of_two(self):
        # a weight, a bias, and an embedding whose two rows of one example
        # scatter onto one column
        a = [(np.array([[1.0], [2.0]]), {"w": np.array([[1.0, 0.0],
                                                         [0.0, 1.0]])}),
             (np.array([[2.0], [0.0]]), {"b": None}),
             Scatter("e", np.array([[1.0], [3.0]]), np.array([2, 2]), 3)]
        b = [(np.array([[3.0]]), {"w": np.array([[1.0, 1.0]])}),
             (np.array([[4.0]]), {"b": None}),
             Scatter("e", np.array([[5.0]]), np.array([0]), 3)]
        out = accumulate_grads([a, b])
        np.testing.assert_array_equal(out["w"], [[2.0, 2.5]])
        np.testing.assert_array_equal(out["b"], [3.0])
        np.testing.assert_array_equal(out["e"], [[2.5, 0.0, 2.0]])

    def test_groups_naming_the_same_blocks_are_gathered(self):
        # a weight and a bias that share a left, in two groups per example
        # (as the softmax's do, one per direction): one product and one sum
        # over the rows of both examples
        def example(l1, l2):
            return [(np.array(l1), {"w": np.eye(2)[:len(l1)], "b": None}),
                    (np.array(l2), {"w": np.ones((len(l2), 2)), "b": None})]
        out = accumulate_grads([example([[1.0]], [[2.0], [4.0]]),
                                example([[3.0], [5.0]], [[6.0]])])
        assert list(out) == ["w", "b"]
        np.testing.assert_array_equal(out["w"], [[8.0, 8.5]])
        np.testing.assert_array_equal(out["b"], [10.5])

    @pytest.mark.parametrize("size", sorted(BATCH_TOKENS))
    @pytest.mark.parametrize("make", [init_model, random_model])
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_mean_matches_rank1_oracle(self, arch, make, size):
        # within 1e-12 of each block's largest value; the inputs stay
        # unchanged, the outputs share no memory with them, and a second
        # call gives the same bytes
        m = make(arch, 9, 4, 5, 6, seed=size)
        rng = np.random.default_rng(size)
        batch = [CaptionedExample(f"x{i}", rng.uniform(-0.5, 0.5, 4), tokens)
                 for i, tokens in enumerate(BATCH_TOKENS[size])]
        grad_list = [joint_backward(m, ex)[1] for ex in batch]
        inputs = [arr for grads in grad_list for arr in row_arrays(grads)]
        kept = [arr.tobytes() for arr in inputs]
        out = accumulate_grads(grad_list)
        ref = rank1_batch_mean(m, batch)
        assert sorted(out) == sorted(name for name, _ in m.blocks())
        for name, g in out.items():
            err = np.max(np.abs(g - ref[name]))
            scale = np.max(np.abs(ref[name]))
            assert err <= 1e-12 * scale, f"{name}: {err} of {scale}"
        assert [arr.tobytes() for arr in inputs] == kept
        assert not any(np.shares_memory(g, arr)
                       for g in out.values() for arr in inputs)
        again = accumulate_grads(grad_list)
        assert all(again[name].tobytes() == g.tobytes()
                   for name, g in out.items())

    W = (np.zeros((2, 3)), {"w": np.zeros((2, 4))})
    B = (np.zeros((2, 3)), {"b": None})
    E = Scatter("e", np.zeros((2, 5)), np.array([0, 1]), 6)

    @pytest.mark.parametrize("later, named", [
        ([W, E], "b"),  # lacks a block
        ([W, B, E, (np.zeros((1, 2)), {"u": None})], "u"),  # adds one
        ([(np.zeros((2, 2)), W[1]), B, E], "w"),  # left width
        ([(W[0], {"w": np.zeros((2, 5))}), B, E], "w"),  # right width
        ([(W[0], {"w": None}), B, E], "w"),  # a bias's rows for a weight's
        ([W, (np.zeros((2, 4)), {"b": None}), E], "b"),
        ([W, B, E._replace(rows=np.zeros((2, 4)))], "e"),
        ([W, B, E._replace(columns=7)], "e"),
        ([(W[0], {**W[1], "b": None}), E], "w"),  # w, b share a left
        ([(W[0], {"w": np.zeros((3, 4))}), B, E], "w"),  # 2 left, 3 right rows
        ([W, B, E._replace(rows=np.zeros((3, 5)))], "e"),  # 3 rows, 2 ids
    ])
    def test_disagreeing_groups_refused(self, later, named):
        first = [self.W, self.B, self.E]
        with pytest.raises(ShapeError, match=f"gradient 2 block {named} has"):
            accumulate_grads([first, first, later])

    @pytest.mark.parametrize("group, match", [
        ((W[0], {"w": np.zeros((3, 4))}), "block w has 2 left rows, 3 right"),
        (E._replace(rows=np.zeros((3, 5))), "block e has 3 rows, 2 ids"),
    ])
    def test_row_counts_refused_before_any_arithmetic(self, group, match):
        # a lone example is checked too: its group cannot reach the product
        # or the scatter, whose numpy errors would name neither
        with pytest.raises(ShapeError, match=f"gradient 0 {match}"):
            accumulate_grads([[group]])

    @pytest.mark.parametrize("ids", [[0, -1], [6, 1]])
    @pytest.mark.parametrize("at", [0, 1])
    def test_scatter_ids_outside_the_columns_refused(self, ids, at):
        # -1 would land on the last column and 6 outside the block; either
        # is refused with the other shape errors, before any block is formed
        first = [self.W, self.B, self.E]
        bad = [self.W, self.B, self.E._replace(ids=np.array(ids))]
        with pytest.raises(ShapeError,
                           match=f"^gradient {at} block e has ids outside 0..5$"):
            accumulate_grads([first] * at + [bad])


def wide_batch(arch, seed=0):
    """A model of at least CONCURRENT_MIN_ELEMENTS elements and the
    gradient rows of a batch of three examples."""
    m = random_model(arch, 11, 5, WIDE, WIDE, seed=seed)
    assert (sum(arr.size for _, arr in m.blocks())
            >= train_mod.CONCURRENT_MIN_ELEMENTS)
    batch = [toy_example(n, vocab=11, feat=5, length=n) for n in (1, 4, 7)]
    return m, [joint_backward(m, ex)[1] for ex in batch]


def first_named(groups):
    """Each block an example's groups name, in the order first named."""
    return list(dict.fromkeys(
        name for g in groups
        for name in ([g.name] if isinstance(g, Scatter) else g[1])))


class TestTwoShares:
    """From CONCURRENT_MIN_ELEMENTS up, with two CPUs, accumulate_grads and
    each phase of sgd_step work their blocks in two shares, the second on a
    second thread; nothing a caller reads changes."""

    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_bitwise_equal_with_and_without_the_worker(self, arch,
                                                       monkeypatch,
                                                       started_threads):
        m, grad_list = wide_batch(arch)
        runs = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            started_threads.clear()
            mean = accumulate_grads(grad_list)
            threads = [len(started_threads)]
            state = make_state(m.copy())
            for clip in (None, 1e-3, None):  # the second step is clipped
                sgd_step(state, mean, TrainConfig(grad_clip=clip))
                threads.append(len(started_threads) - sum(threads))
            runs.append((mean, state, threads))
        (seq, seq_state, none), (two, two_state, some) = runs
        assert none == [0, 0, 0, 0]
        assert some == [1, 2, 2, 2]  # an sgd_step: one per phase
        assert list(two) == list(seq) == first_named(grad_list[0])
        assert all(two[n].tobytes() == g.tobytes() for n, g in seq.items())
        for name, arr in seq_state.model.blocks():
            assert two_state.model.params[name].tobytes() == arr.tobytes()
            assert (two_state.velocity[name].tobytes()
                    == seq_state.velocity[name].tobytes())

    def test_bitwise_under_frequent_thread_switches(self, monkeypatch,
                                                    started_threads):
        # the calling thread adds its share's blocks to the dict while the
        # worker reads its own from it
        m, grad_list = wide_batch(ArchitectureKind.BI_S_LSTM)
        usable_cpus(monkeypatch, 1)
        want = accumulate_grads(grad_list)
        usable_cpus(monkeypatch, 2)
        started_threads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [accumulate_grads(grad_list) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert len(started_threads) == 3
        for got in runs:
            assert list(got) == list(want)
            assert all(got[n].tobytes() == g.tobytes() for n, g in want.items())

    def test_blocks_are_made_on_the_calling_thread(self, monkeypatch,
                                                   started_threads):
        # the worker only writes into blocks (`out=`): blocks it made would
        # sit in a heap of its own (glibc gives each thread an arena)
        m, grad_list = wide_batch(ArchitectureKind.BI_F_LSTM)
        usable_cpus(monkeypatch, 2)
        made = []
        for name in ("empty", "zeros"):
            monkeypatch.setattr(np, name, lambda *a, _make=getattr(np, name):
                                made.append(threading.current_thread())
                                or _make(*a))
        started_threads.clear()
        mean = accumulate_grads(grad_list)
        assert len(started_threads) == 1
        assert made == [threading.current_thread()] * len(mean)

    @pytest.mark.parametrize("wide, cpus, threads, queries", [
        (False, 2, 0, 0), (True, 1, 0, 3), (True, 2, 3, 3)])
    def test_threads_only_when_large_on_two_cpus(self, wide, cpus, threads,
                                                 queries, monkeypatch,
                                                 started_threads):
        # the size is tested first: a toy model makes no system call
        if wide:
            m, grad_list = wide_batch(BI)
        else:
            m = random_model(BI, 7, 3, 16, 16, seed=0)
            grad_list = [joint_backward(m, toy_example(0))[1]]
        asked = usable_cpus(monkeypatch, cpus)
        started_threads.clear()
        sgd_step(make_state(m), accumulate_grads(grad_list), TrainConfig())
        assert (len(started_threads), len(asked)) == (threads, queries)

    @pytest.mark.parametrize("clip", [None, 1.0])
    @pytest.mark.parametrize("faults, error, named", [
        ({-1: "nan"}, TrainingError, -1),
        ({-1: "shape"}, ShapeError, -1),
        ({-2: "nan", -1: "shape"}, TrainingError, -2),
        ({-2: "shape", -1: "nan"}, ShapeError, -2),
        ({0: "shape", -1: "nan"}, ShapeError, 0),  # the first share's
        ({0: "nan", -1: "shape"}, TrainingError, 0),
    ])
    def test_refusal_in_the_workers_share_moves_nothing(
            self, faults, error, named, clip, monkeypatch, started_threads):
        # the last blocks in the dict's order are the second thread's; the
        # error raised is the sequential order's first, and no parameter or
        # velocity moves in either share
        m = random_model(BI, 11, 5, WIDE, WIDE, seed=0)
        rng = np.random.default_rng(1)
        grads = {n: rng.normal(size=a.shape) for n, a in m.blocks()}
        names = list(grads)
        for at, fault in faults.items():
            g = grads[names[at]]
            grads[names[at]] = (np.full_like(g, np.nan) if fault == "nan"
                                else np.zeros(g.shape + (1,)))
        checked_on = {}
        real_all_finite = train_mod.all_finite

        def all_finite(a):
            checked_on[next(n for n, g in grads.items() if g is a)] = (
                threading.current_thread())
            return real_all_finite(a)
        monkeypatch.setattr(train_mod, "all_finite", all_finite)
        messages = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            state = make_state(m.copy())
            for v in state.velocity.values():
                v[...] = rng.normal(size=v.shape)
            before = [a.tobytes() for _, a in state.model.blocks()]
            velocity = [v.tobytes() for v in state.velocity.values()]
            with pytest.raises(error, match=names[named]) as caught:
                sgd_step(state, grads, TrainConfig(grad_clip=clip))
            messages.append(str(caught.value))
            assert [a.tobytes() for _, a in state.model.blocks()] == before
            assert [v.tobytes() for v in state.velocity.values()] == velocity
            assert state.updates == 0
        assert messages[0] == messages[1]
        assert len(started_threads) == 1 and not started_threads[0].is_alive()
        # the worker checked the blocks before the faulty ones at the end
        assert checked_on[names[-3]] is started_threads[0]


@pytest.mark.parametrize("length", [8, 16])
def test_gradient_rows_hold_a_fraction_of_the_parameters(length):
    # an example's gradients are rows, not dense blocks: the model's
    # parameters take ~3 MB here, a dense gradient dict as much
    vocab, feat, width = 500, 256, 64
    m = init_model(ArchitectureKind.BI_F_LSTM, vocab, feat, width, width,
                   seed=0)
    rng = np.random.default_rng(length)
    ex = CaptionedExample("x", rng.random(feat), [
        int(t) for t in rng.integers(2, vocab, size=length)])
    tracemalloc.start()
    try:
        grads = joint_backward(m, ex)[1]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grads
    params = sum(arr.nbytes for _, arr in m.blocks())
    assert held < params / 4, (held, params)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="freed memory is kept mapped on glibc only")
def test_training_batches_reuse_freed_memory():
    # once two batches have grown the heap, a batch takes its gradients from
    # memory the last one freed instead of faulting fresh pages in (glibc's
    # default trimming costs ~900-1,300 minor faults per batch at this size)
    vocab, feat, width = 500, 256, 64
    state = make_state(init_model(ArchitectureKind.BI_F_LSTM, vocab, feat,
                                  width, width, seed=0))
    rng = np.random.default_rng(0)
    batches = [[CaptionedExample("x", rng.random(feat), [
        int(t) for t in rng.integers(2, vocab, size=n)])
        for n in range(8, 16)] for _ in range(5)]
    faults = []
    for batch in batches:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sgd_step(state, accumulate_grads([joint_backward(state.model, ex)[1]
                                          for ex in batch]), TrainConfig())
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert max(faults[2:]) < 200, faults


class TestTrainEpochs:
    def test_determinism_bitwise(self):
        _, examples = make_toy_dataset(6, 10, 7, seed=5)
        results = []
        for _ in range(2):
            m = init_model(BI, 10, 7, 8, 8, seed=2)
            cfg = TrainConfig(batch_size=2, max_epochs=3,
                              early_stop_patience=None, seed=9)
            state = train_epochs(make_state(m), examples, examples, cfg)
            results.append({n: a.copy() for n, a in state.model.blocks()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_loss_decreases_on_toy_set(self):
        _, examples = make_toy_dataset(6, 10, 7, seed=5)
        m = init_model(BI, 10, 7, 8, 8, seed=2)
        initial = mean_joint_loss(m, examples)
        cfg = TrainConfig(batch_size=2, max_epochs=10,
                          early_stop_patience=None, seed=9)
        state = train_epochs(make_state(m), examples, examples, cfg)
        assert mean_joint_loss(state.model, examples) < initial

    def test_patience_zero_stops_after_first_worse_epoch(self):
        # a huge learning rate makes training diverge immediately, so the
        # first epoch's validation loss exceeds the pre-training baseline
        _, examples = make_toy_dataset(6, 10, 7, seed=5)
        m = init_model(BI, 10, 7, 8, 8, seed=2)
        cfg = TrainConfig(learning_rate=50.0, batch_size=2, max_epochs=20,
                          early_stop_patience=0, seed=9)
        state = train_epochs(make_state(m), examples, examples, cfg)
        assert state.epoch == 1
        # the returned model is the pre-divergence best
        ref = init_model(BI, 10, 7, 8, 8, seed=2)
        for (name, arr), (_, ref_arr) in zip(state.model.blocks(), ref.blocks()):
            np.testing.assert_array_equal(arr, ref_arr)

    def test_descent_along_negative_gradient(self):
        # one sufficiently small plain-SGD step along -g reduces batch loss
        _, examples = make_toy_dataset(5, 10, 7, seed=6)
        m = init_model(BI, 10, 7, 8, 8, seed=4)
        batch = examples[:5]
        grads = accumulate_grads([joint_backward(m, ex)[1] for ex in batch])
        before = mean_joint_loss(m, batch)
        state = make_state(m)
        cfg = TrainConfig(learning_rate=1e-4, momentum=0.0, weight_decay=0.0)
        sgd_step(state, grads, cfg)
        after = mean_joint_loss(state.model, batch)
        assert after < before + 1e-12

    def test_empty_train_set_rejected(self):
        m = init_model(BI, 10, 7, 8, 8, seed=0)
        with pytest.raises(DataError):
            train_epochs(make_state(m), [], [], TrainConfig())

    def test_early_stop_without_val_rejected(self):
        _, examples = make_toy_dataset(4, 10, 7, seed=5)
        m = init_model(BI, 10, 7, 8, 8, seed=0)
        with pytest.raises(ConfigError):
            train_epochs(make_state(m), examples, [],
                         TrainConfig(early_stop_patience=3))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0).validate()

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("grad_clip", math.nan),
    ])
    def test_non_finite_setting_rejected(self, field, value):
        # a NaN grad_clip would turn clipping off: norm > nan is False
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()


class TestOverfitCapacity:
    def test_toy_set_memorized_within_budget(self, toy_overfit):
        assert toy_overfit.updates <= 2000
        assert toy_overfit.per_token_loss < 0.05


def reference_block_checks(m, ex, epsilon):
    """grad_check's comparison, with both directions' full loss recomputed
    by _fd_loss_and_signs for every perturbation."""
    analytic = accumulate_grads([joint_backward(m, ex)[1]])
    out = []
    for name, arr in m.blocks():
        flat = arr.reshape(-1)
        gflat = analytic[name].reshape(-1)
        n_checked = n_rejected = 0
        max_abs_err = 0.0
        scale = 1e-8
        worst = (-1, 0.0, 0.0)
        for idx in range(arr.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            lp, sp = _fd_loss_and_signs(m, ex)
            flat[idx] = orig - epsilon
            lm, sm = _fd_loss_and_signs(m, ex)
            flat[idx] = orig
            if sp != sm:
                n_rejected += 1
                continue
            numeric = (lp - lm) / (2.0 * epsilon)
            a = float(gflat[idx])
            n_checked += 1
            scale = max(scale, abs(a), abs(numeric))
            err = abs(a - numeric)
            if err > max_abs_err:
                max_abs_err = err
                worst = (idx, a, numeric)
        out.append(BlockCheck(
            name=name, n_checked=n_checked, n_rejected=n_rejected,
            max_abs_err=max_abs_err, grad_scale=scale,
            rel_err=max_abs_err / scale, worst_index=worst[0],
            worst_analytic=worst[1], worst_numeric=worst[2]))
    return out


class TestGradCheck:
    def test_matches_full_recompute_reference_exactly(self):
        # at eps 1e-3 this relu model has perturbations that cross a kink,
        # so the rejection path is compared too
        for arch in ArchitectureKind:
            for epsilon in (1e-6, 1e-3):
                m = random_model(arch, 5, 2, 3, 3, seed=0)
                ex = toy_example(0, vocab=5, feat=2, length=2)
                expected = reference_block_checks(m, ex, epsilon)
                report = grad_check(m, ex, epsilon=epsilon)
                assert report.blocks == expected, (arch, epsilon)
                if arch == ArchitectureKind.BI_F_LSTM and epsilon == 1e-3:
                    assert sum(b.n_rejected for b in expected) > 0

    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_reruns_only_the_layers_a_perturbation_feeds(self, arch,
                                                         monkeypatch):
        # one run of each direction on the unperturbed model, then two per
        # scalar: the T-LSTM only for its own and the embedding's scalars,
        # model.unroll for every scalar but the softmax's
        calls = {"sequence_forward": 0, "unroll": 0}
        for fn in calls:
            def counting(*args, _fn=fn, _real=getattr(train_mod, fn)):
                calls[_fn] += 1
                return _real(*args)
            monkeypatch.setattr(train_mod, fn, counting)
        m = random_model(arch, 5, 2, 3, 3, seed=0)
        grad_check(m, toy_example(0, vocab=5, feat=2, length=2))
        sizes = {name: arr.size for name, arr in m.blocks()}
        below = sum(size for name, size in sizes.items()
                    if name.split(".")[1:2] in (["embedding"], ["t_lstm"]))
        directional = sum(size for name, size in sizes.items()
                          if name.startswith(("fwd.", "bwd.")))
        assert calls == {"sequence_forward": 2 + 2 * below,
                         "unroll": 2 + 2 * directional}

    def test_passes_at_default_tolerance(self):
        m = random_model(BI, 7, 3, 4, 5, seed=0)
        report = grad_check(m, toy_example(0))
        assert report.passed
        assert report.max_rel_err < 1e-5

    def test_impossible_tolerance_fails(self):
        m = random_model(BI, 5, 2, 3, 3, seed=0)
        report = grad_check(m, toy_example(0, vocab=5, feat=2, length=2),
                            tolerance=1e-12)
        assert not report.passed
        assert report.max_rel_err > 1e-12

    def test_report_lines_shape(self):
        m = random_model(BI, 5, 2, 3, 3, seed=0)
        report = grad_check(m, toy_example(0, vocab=5, feat=2, length=2))
        lines = report.lines()
        assert len(lines) == len(list(m.blocks())) + 1
        assert lines[-1].startswith("PASS" if report.passed else "FAIL")

    def test_non_finite_loss_fails(self):
        # an overflowing logit makes every loss NaN; no block may pass
        m = random_model(BI, 5, 2, 3, 3, seed=0)
        for d in (m.fwd, m.bwd):
            d.m_lstm.b[:] = 50.0
        m.softmax_w[0, :] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"):
            report = grad_check(m, toy_example(0, vocab=5, feat=2, length=2))
        assert not report.passed and math.isnan(report.max_rel_err)
        assert all(math.isnan(b.rel_err) and b.worst_index == 0
                   for b in report.blocks)

    def test_epsilon_bounds(self):
        m = random_model(BI, 5, 2, 3, 3, seed=0)
        with pytest.raises(ConfigError):
            grad_check(m, toy_example(0, vocab=5, feat=2), epsilon=0.0)
        with pytest.raises(ConfigError):
            grad_check(m, toy_example(0, vocab=5, feat=2), epsilon=1e-2)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-5, math.nan, math.inf])
    def test_tolerance_must_be_positive(self, tolerance):
        # a NaN tolerance would mark every block FAIL, an infinite one would
        # pass any gradients
        m = random_model(BI, 5, 2, 3, 3, seed=0)
        with pytest.raises(ConfigError, match="tolerance"):
            grad_check(m, toy_example(0, vocab=5, feat=2), tolerance=tolerance)
