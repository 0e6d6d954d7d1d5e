"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them). Tolerances are pinned here, not calibrated.
"""

import math
import time

import numpy as np

from bicaption.checkpoint import load_checkpoint, save_checkpoint
from bicaption.data import CaptionedExample, augment_plan, make_toy_dataset
from bicaption.errors import PlanError
from bicaption.infer import decode_direction
from bicaption.lstm import LstmParams, sequence_forward
from bicaption.metrics import (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE, bleu_n,
                               build_score_matrix, corpus_bleu_n, median_rank,
                               recall_at_k)
from bicaption.model import (ArchitectureKind, BACKWARD, FORWARD, build_model,
                             init_model, random_model)
from bicaption.train import (TrainConfig, grad_check, has_live_relu_branches,
                             joint_loss, make_state, train_epochs)

from oracles import (enumerate_best_hypothesis, greedy_decode_loop,
                     scalar_lstm_forward)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def gradcheck_case(arch, seed):
    m = random_model(arch, 7, 3, 4, 5, seed=seed)
    rng = np.random.default_rng([seed, 1])
    tokens = [int(t) for t in rng.integers(2, 7, size=3)]
    feature = rng.uniform(-0.5, 0.5, size=3)
    return m, CaptionedExample("gc", feature, tokens)


def test_gradient_correctness_all_architectures():
    t0 = time.perf_counter()
    worst = 0.0
    seconds = []  # per architecture, to attribute the budget
    for arch in ArchitectureKind:
        t_arch = time.perf_counter()
        passed_seeds = 0
        seed = 0
        while passed_seeds < 20:
            m, ex = gradcheck_case(arch, seed)
            seed += 1
            if not has_live_relu_branches(m, ex):
                continue  # a dead relu branch leaves nothing to resolve
            rep = grad_check(m, ex, epsilon=1e-6, tolerance=1e-5)
            worst = max(worst, rep.max_rel_err)
            assert rep.passed, f"{arch.value} seed {seed - 1}: {rep.max_rel_err:.3e}"
            passed_seeds += 1
        seconds.append(f"{arch.value} {time.perf_counter() - t_arch:.1f}s")
    elapsed = time.perf_counter() - t0
    report("gradient correctness",
           worst < 1e-5 and elapsed < 60.0,
           f"3 architectures x 20 seeds, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s ({', '.join(seconds)})")


def test_cell_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(100):
        D = int(rng.integers(1, 9))
        H = int(rng.integers(1, 9))
        T = int(rng.integers(1, 11))
        p = LstmParams(
            Wx=rng.uniform(-0.7, 0.7, size=(4 * H, D)),
            Wh=rng.uniform(-0.7, 0.7, size=(4 * H, H)),
            b=rng.uniform(-0.7, 0.7, size=4 * H),
        )
        xs = [rng.normal(size=D) for _ in range(T)]
        tr = sequence_forward(p, xs)
        oracle = scalar_lstm_forward(p.Wx.tolist(), p.Wh.tolist(),
                                     p.b.tolist(), [x.tolist() for x in xs],
                                     [0.0] * H, [0.0] * H)
        for h, c, (h_ref, c_ref) in zip(tr.hs[1:], tr.cs[1:], oracle):
            worst = max(worst,
                        float(np.max(np.abs(h - np.array(h_ref)))),
                        float(np.max(np.abs(c - np.array(c_ref)))))
    report("cell oracle equivalence", worst < 1e-12,
           f"100 instances (D,H,T)<=(8,8,10), max abs diff {worst:.2e}")


def test_overfit_capability(toy_overfit):
    ok = (toy_overfit.updates <= 2000
          and toy_overfit.per_token_loss < 0.05
          and toy_overfit.exact_decodes >= 9
          and toy_overfit.train_seconds < 300.0)
    report("overfit capability", ok,
           f"{toy_overfit.updates} updates, per-token loss "
           f"{toy_overfit.per_token_loss:.4f}, exact decodes "
           f"{toy_overfit.exact_decodes}/10, {toy_overfit.train_seconds:.1f}s")


def score_grid(m, examples):
    return build_score_matrix(
        m,
        [(ex.image_id, ex.feature) for ex in examples],
        [(f"s{j}", ex.tokens) for j, ex in enumerate(examples)],
    )


def test_retrieval_sanity(toy_overfit):
    examples = toy_overfit.examples
    gt = {i: {i} for i in range(len(examples))}

    sm = score_grid(toy_overfit.model, examples)
    overfit_ok = True
    overfit_detail = []
    for direction in (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE):
        r1 = recall_at_k(sm, gt, 1, direction)
        mr = median_rank(sm, gt, direction)
        overfit_ok &= (r1 == 100.0 and mr == 1.0)
        overfit_detail.append(f"{direction} R@1={r1:.0f} Medr={mr:.0f}")

    r1_values = []
    for seed in range(20):
        untrained = init_model(ArchitectureKind.BI_LSTM, 20, 7, 16, 16,
                               seed=1000 + seed)
        sm_u = score_grid(untrained, examples)
        r1_values.append(recall_at_k(sm_u, gt, 1, IMAGE_TO_SENTENCE))
        r1_values.append(recall_at_k(sm_u, gt, 1, SENTENCE_TO_IMAGE))
    mean_r1 = sum(r1_values) / len(r1_values)
    chance_ok = 0.0 <= mean_r1 <= 40.0

    report("retrieval sanity", overfit_ok and chance_ok,
           f"overfit [{'; '.join(overfit_detail)}], untrained mean R@1 "
           f"{mean_r1:.1f}% over 20 seeds (band 0-40)")


def test_bleu_oracle():
    perfect = bleu_n("a dog runs through the park".split(),
                     ["a dog runs through the park".split()], 4)
    clipped = bleu_n("the the the the the the the".split(),
                     ["the cat is on the mat".split()], 1)
    brevity = bleu_n("the cat".split(), ["the cat is here".split()], 1)
    ok = (abs(perfect.score - 1.0) < 1e-9
          and abs(clipped.precisions[0] - 2 / 7) < 1e-9
          and abs(brevity.score - math.exp(-1)) < 1e-9)

    rng = np.random.default_rng(7)
    letters = list("abcdefgh")
    agree = True
    for _ in range(25):
        cand = [letters[i] for i in rng.integers(0, 8, size=rng.integers(4, 9))]
        refs = [[letters[i] for i in rng.integers(0, 8, size=rng.integers(4, 9))]
                for _ in range(3)]
        for n in range(1, 5):
            agree &= corpus_bleu_n([(cand, refs)], n).score == bleu_n(cand, refs, n).score
    report("BLEU oracle", ok and agree,
           f"perfect {perfect.score:.9f}, clipped p1 {clipped.precisions[0]:.9f}, "
           f"brevity {brevity.score:.9f}, corpus==sentence on single pairs: {agree}")


def test_augmentation_count():
    plan = augment_plan(640, 480)
    bounds_ok = all(
        v.x >= 0 and v.y >= 0
        and v.x + v.w <= int(v.scale * 256) and v.y + v.h <= int(v.scale * 256)
        for v in plan
    )
    try:
        augment_plan(640, 480, crop_small=227)
        raises_ok = False
    except PlanError:
        raises_ok = True
    report("augmentation count", len(plan) == 40 and bounds_ok and raises_ok,
           f"{len(plan)} variants, bounds hold: {bounds_ok}, "
           f"infeasible crop raises: {raises_ok}")


def test_decoding_equivalences():
    archs = list(ArchitectureKind)
    greedy_ok = True
    for seed in range(50):
        m = random_model(archs[seed % 3], 6, 3, 4, 4, seed=seed, scale=0.8)
        rng = np.random.default_rng(seed)
        feature = rng.uniform(-1, 1, 3)
        direction = FORWARD if seed % 2 == 0 else BACKWARD
        hyp = decode_direction(m, direction, feature, beam_k=1, max_len=8)
        tokens, logprob = greedy_decode_loop(m, direction, feature, 8)
        greedy_ok &= (hyp.tokens == tokens
                      and abs(hyp.logprob_sum - logprob) < 1e-9)

    beam_ok = True
    for seed in (0, 1, 2, 3, 5):  # fixed tiny models, verified by the oracle
        m = random_model(ArchitectureKind.BI_LSTM, 4, 3, 3, 3, seed=seed,
                         scale=1.0)
        rng = np.random.default_rng(seed)
        feature = rng.uniform(-1, 1, 3)
        hyp = decode_direction(m, FORWARD, feature, beam_k=3, max_len=3)
        best_tokens, best_lp = enumerate_best_hypothesis(m, FORWARD, feature, 3)
        beam_ok &= (hyp.tokens == best_tokens
                    and abs(hyp.logprob_sum - best_lp) < 1e-9)
    report("decoding equivalences", greedy_ok and beam_ok,
           f"beam1==greedy on 50 models: {greedy_ok}, "
           f"beam3==enumeration (K=4, max_len=3): {beam_ok}")


def test_determinism_and_roundtrip(tmp_path):
    _, examples = make_toy_dataset(6, 12, 7, seed=9)
    finals = []
    for _ in range(2):
        m = init_model(ArchitectureKind.BI_S_LSTM, 12, 7, 8, 8, seed=4)
        cfg = TrainConfig(batch_size=2, max_epochs=3,
                          early_stop_patience=None, seed=6)
        state = train_epochs(make_state(m), examples, examples, cfg)
        finals.append(state.model)
    train_ok = all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(finals[0].blocks(), finals[1].blocks())
    )

    path = tmp_path / "model.ckpt"
    save_checkpoint(finals[0], path)
    loaded = load_checkpoint(path)
    roundtrip_ok = all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(finals[0].blocks(), loaded.blocks())
    )
    report("determinism & round-trip", train_ok and roundtrip_ok,
           f"fixed-seed training bitwise equal: {train_ok}, "
           f"checkpoint round-trip bitwise: {roundtrip_ok}")


def test_joint_loss_analytic_uniform():
    m = build_model(ArchitectureKind.BI_LSTM, 8, 2, 3, 3)
    ex = CaptionedExample("x", np.zeros(2), [2, 3])  # T = 3 steps per direction
    loss = joint_loss(m, ex)
    expected = 3 * math.log(8)
    err = max(abs(loss.loss_fwd - expected), abs(loss.loss_bwd - expected))
    report("joint-loss analytic check", err < 1e-6,
           f"per-direction loss vs 3*ln(8)={expected:.6f}, max err {err:.2e}")
