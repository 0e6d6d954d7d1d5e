"""The four workloads. Each builds its inputs from the seed, runs rounds of
timed calls into bicaption's public API, and checks every output afterwards.

A round is the unit at which a run may stop: one training batch, one
captioned image, one retrieval grid, or one grad-check per architecture.
`prepare` makes a round's inputs outside the timed and traced region;
`run_round` makes the timed calls and reports the items it completed, the
seconds the program spent on them, and the latency of each timed step.

Why these four, and which layer each one loads, is in README.md beside this
file.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from bicaption.checkpoint import load_checkpoint, save_checkpoint
from bicaption.data import (BOUNDARY_ID, CaptionedExample, make_toy_dataset,
                            read_features, write_features)
from bicaption.infer import decode_direction, select_final_caption
from bicaption.metrics import (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE,
                               build_score_matrix, median_rank, recall_at_k,
                               score_pair)
from bicaption.model import (ArchitectureKind, BACKWARD, FORWARD,
                             direction_forward, init_model, random_model)
from bicaption.numcore import log_softmax
from bicaption.train import (TrainConfig, accumulate_grads, grad_check,
                             has_live_relu_branches, joint_backward,
                             joint_loss, make_state, sgd_step)

from layers import CAPTION, GRADCHECK, RETRIEVE, TRAIN

clock = time.perf_counter

# paper-like widths for the two large workloads
VOCAB, FEATURE, WIDTH = 2000, 1024, 256

# seed streams, so each kind of input is drawn independently of the others
STREAM_TRAIN, STREAM_TRAIN_CHECK, STREAM_CAPTION, STREAM_RETRIEVE_CHECK = range(4)


@dataclass
class Round:
    items: int
    seconds: float
    samples: list[float]
    speed: float = 1.0  # host speed measured around the round

    def normalised(self, speed: float) -> "Round":
        """The round as timed on a host running at `speed` times nominal."""
        return Round(self.items, self.seconds * speed,
                     [s * speed for s in self.samples], 1.0)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Workload:
    """Set-up happens in the constructor, which the runner times."""

    name: str
    reference: str  # the host-speed kernel its times are rescaled by (hostspeed.py)
    item: str  # the unit counted by items_per_s
    step: str  # what one latency sample times

    def warmup(self) -> None:
        """One untimed call of each kind, so lazy set-up is done."""

    def prepare(self, index: int):
        """Inputs of round `index`, made outside the timed region."""
        return None

    def run_round(self, index: int, inputs) -> Round:
        raise NotImplementedError

    def finish(self) -> None:
        """Work done once at the end of a run."""

    def check(self) -> tuple[int, list[str]]:
        """(failed items, first problems) over every round run."""
        raise NotImplementedError

    def report(self, rounds: list[Round]) -> dict:
        """The workload's own metric names: name -> (value, unit)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class TrainMid(Workload):
    """bi-f-lstm batches of 8: joint_backward per example, then
    accumulate_grads and sgd_step; a checkpoint is saved at the end."""

    name = TRAIN
    reference = "matvec"
    item = "example"
    step = "joint_backward of one example"
    # a batch of 8: one caption of each length per batch (mean 12), so every batch holds
    # the same number of tokens and batch cost varies only with content
    LENGTHS = (8, 9, 10, 11, 13, 14, 15, 16)
    EPSILON = 1e-5  # directional finite-difference step
    DIRECTIONAL_TOL = 1e-6

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.ckpt_path = out_dir / f"{self.name}.ckpt"
        self.cfg = TrainConfig()
        self.state = make_state(init_model(ArchitectureKind.BI_F_LSTM, VOCAB,
                                           FEATURE, WIDTH, WIDTH, seed=seed))
        self.losses: list[tuple[float, float]] = []  # per example, fwd/bwd
        self.tokens = 0

    def batch(self, stream: int, index: int) -> list[CaptionedExample]:
        rng = np.random.default_rng([self.seed, stream, index])
        return [CaptionedExample(f"b{index}.{j}", rng.random(FEATURE),
                                 [int(t) for t in rng.integers(2, VOCAB, size=n)])
                for j, n in enumerate(rng.permutation(self.LENGTHS))]

    def warmup(self) -> None:
        joint_backward(self.state.model, self.batch(STREAM_TRAIN_CHECK, 1)[0])

    def prepare(self, index: int):
        return self.batch(STREAM_TRAIN, index)

    def run_round(self, index: int, batch) -> Round:
        samples = []
        grad_list = []
        t_round = clock()
        for ex in batch:
            t0 = clock()
            loss, grads = joint_backward(self.state.model, ex)
            samples.append(clock() - t0)
            grad_list.append(grads)
            self.losses.append((loss.loss_fwd, loss.loss_bwd))
        sgd_step(self.state, accumulate_grads(grad_list), self.cfg)
        seconds = clock() - t_round
        self.tokens += sum(2 * (len(ex.tokens) + 1) for ex in batch)
        return Round(len(batch), seconds, samples)

    def finish(self) -> None:
        save_checkpoint(self.state.model, self.ckpt_path)

    def check(self) -> tuple[int, list[str]]:
        """(failed examples, problems). A failed run-level check fails every
        example of the run."""
        problems = []
        err = self._directional_error()
        if not err <= self.DIRECTIONAL_TOL:
            problems.append(f"directional derivative off by {err:.3e} relative")
        saved = load_checkpoint(self.ckpt_path)
        if not all(np.array_equal(a, b) for (_, a), (_, b)
                   in zip(saved.blocks(), self.state.model.blocks())):
            problems.append("checkpoint does not round-trip bitwise")
        if problems:
            return len(self.losses), problems
        bad = sum(1 for pair in self.losses
                  if not all(math.isfinite(x) for x in pair))
        return bad, [f"{bad} examples with a non-finite loss"] if bad else []

    def _directional_error(self) -> float:
        """Relative gap between (L(theta + eps*u) - L(theta - eps*u)) / 2eps
        and |g| for the batch-mean loss L, its gradient g and u = g/|g|."""
        m = self.state.model
        batch = self.batch(STREAM_TRAIN_CHECK, 0)
        g = accumulate_grads([joint_backward(m, ex)[1] for ex in batch])
        norm = math.sqrt(sum(float(np.sum(x * x)) for x in g.values()))

        def shifted_loss(sign: float) -> float:
            shifted = m.copy()
            for name, arr in shifted.blocks():
                arr += (sign * self.EPSILON / norm) * g[name]
            return sum(joint_loss(shifted, ex).total for ex in batch) / len(batch)

        slope = (shifted_loss(1.0) - shifted_loss(-1.0)) / (2 * self.EPSILON)
        return abs(slope - norm) / norm

    def report(self, rounds: list[Round]) -> dict:
        seconds = sum(r.seconds for r in rounds)
        return {
            "train_examples_per_s": (sum(r.items for r in rounds) / seconds, "1/s"),
            "train_tokens_per_s": (self.tokens / seconds, "1/s"),
            "train_batch_s_p50": (float(np.median([r.seconds for r in rounds])),
                                  "s"),
        }


# ---------------------------------------------------------------------------

class CaptionBeam3(Workload):
    """bi-s-lstm loaded from a checkpoint file, features from a feature
    file; each image decodes both directions at beam 3, max_len 16, then
    picks the final caption."""

    name = CAPTION
    reference = "matvec"
    item = "image"
    step = "one image: both directions plus selection"
    IMAGES = 128
    BEAM, MAX_LEN = 3, 16
    RESCORE_TOL = 1e-9

    def __init__(self, seed: int, out_dir):
        ckpt_path = out_dir / f"{self.name}.ckpt"
        feat_path = out_dir / f"{self.name}.feat"
        save_checkpoint(init_model(ArchitectureKind.BI_S_LSTM, VOCAB, FEATURE,
                                   WIDTH, WIDTH, seed=seed), ckpt_path)
        rng = np.random.default_rng([seed, STREAM_CAPTION])
        write_features(feat_path, {f"img{i:03d}": rng.random(FEATURE)
                                   for i in range(self.IMAGES)})
        self.model = load_checkpoint(ckpt_path)
        self.features = list(read_features(feat_path).values())
        self.outputs = []

    def _caption(self, feature):
        hf = decode_direction(self.model, FORWARD, feature, beam_k=self.BEAM,
                              max_len=self.MAX_LEN)
        hb = decode_direction(self.model, BACKWARD, feature, beam_k=self.BEAM,
                              max_len=self.MAX_LEN)
        return hf, hb, select_final_caption(hf, hb)

    def warmup(self) -> None:
        self._caption(self.features[-1])

    def prepare(self, index: int):
        return self.features[index % len(self.features)]

    def run_round(self, index: int, feature) -> Round:
        t0 = clock()
        result = self._caption(feature)
        seconds = clock() - t0
        self.outputs.append((feature, *result))
        return Round(1, seconds, [seconds])

    def _rescore(self, direction: str, feature, tokens) -> float:
        """Summed log-probability of `tokens` by teacher forcing."""
        rec = direction_forward(self.model, direction,
                                [BOUNDARY_ID] + tokens[:-1], feature)
        total = 0.0
        for t, tok in enumerate(tokens):
            total += log_softmax(rec.logits[t])[tok]
        return total

    def check(self) -> tuple[int, list[str]]:
        failed = 0
        problems = []
        for feature, hf, hb, sel in self.outputs:
            errors = []
            for direction, hyp in ((FORWARD, hf), (BACKWARD, hb)):
                if not 1 <= len(hyp.tokens) <= self.MAX_LEN:
                    errors.append(f"{direction} length {len(hyp.tokens)}")
                elif not _close(self._rescore(direction, feature, hyp.tokens),
                                hyp.logprob_sum, self.RESCORE_TOL):
                    errors.append(f"{direction} logprob_sum does not rescore")
            chosen, hyp = ((FORWARD, hf) if hf.logprob_sum >= hb.logprob_sum
                           else (BACKWARD, hb))
            caption = hyp.tokens[:-1] if hyp.tokens[-1] == BOUNDARY_ID else hyp.tokens
            if chosen == BACKWARD:
                caption = caption[::-1]
            if sel.chosen != chosen or sel.caption != caption:
                errors.append("selection is not the higher-scoring direction")
            if errors:
                failed += 1
                problems.extend(errors)
        return failed, problems[:5]

    def report(self, rounds: list[Round]) -> dict:
        ms = sorted(1e3 * r.seconds for r in rounds)
        return {
            "caption_images_per_s": (len(rounds) / (sum(ms) / 1e3), "1/s"),
            "caption_image_ms_p50": (float(np.median(ms)), "ms"),
            "caption_image_ms_tail": (tail(ms)[0], "ms"),
        }


# ---------------------------------------------------------------------------

class RetrieveToy(Workload):
    """bi-lstm at the toy shape scoring a 60x60 image/sentence grid, then
    R@1/5/10 and median rank in both query directions."""

    name = RETRIEVE
    reference = "toy"
    item = "pair"
    step = "one 60x60 grid plus ranking"
    N = 60
    KS = (1, 5, 10)
    CELLS_CHECKED = 8  # per grid, recomputed with score_pair
    SCORE_TOL = 1e-12

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        _, examples = make_toy_dataset(self.N, 20, 7, seed=seed)
        self.model = init_model(ArchitectureKind.BI_LSTM, 20, 7, 16, 16,
                                seed=seed)
        self.images = [(ex.image_id, ex.feature) for ex in examples]
        self.sentences = [(f"s{j}", ex.tokens) for j, ex in enumerate(examples)]
        self.truth = {i: {i} for i in range(self.N)}
        self.outputs = []

    def _retrieve(self, images, sentences, truth):
        sm = build_score_matrix(self.model, images, sentences)
        ranking = {}
        for direction in (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE):
            ranking[direction] = (
                [recall_at_k(sm, truth, k, direction) for k in self.KS],
                median_rank(sm, truth, direction))
        return sm, ranking

    def warmup(self) -> None:
        n = max(self.KS)
        self._retrieve(self.images[:n], self.sentences[:n],
                       {i: {i} for i in range(n)})

    def run_round(self, index: int, _) -> Round:
        t0 = clock()
        result = self._retrieve(self.images, self.sentences, self.truth)
        seconds = clock() - t0
        self.outputs.append((index, *result))
        return Round(self.N * self.N, seconds, [seconds])

    def check(self) -> tuple[int, list[str]]:
        failed = 0
        problems = []
        for index, sm, ranking in self.outputs:
            errors = []
            rng = np.random.default_rng([self.seed, STREAM_RETRIEVE_CHECK, index])
            for i, j in rng.integers(0, self.N, size=(self.CELLS_CHECKED, 2)):
                score = score_pair(self.model, self.images[i][1],
                                   self.sentences[j][1])
                if not _close(score, sm.scores[i, j], self.SCORE_TOL):
                    errors.append(f"cell ({i}, {j}) is {float(sm.scores[i, j])!r}, "
                                  f"score_pair gives {float(score)!r}")
            for direction, (recalls, medr) in ranking.items():
                if not (all(0.0 <= r <= 100.0 for r in recalls)
                        and recalls == sorted(recalls)
                        and 1.0 <= medr <= self.N):
                    errors.append(f"{direction} R@K {recalls} Med r {medr}")
            if errors:
                failed += self.N * self.N
                problems.extend(errors)
        return failed, problems[:5]

    def report(self, rounds: list[Round]) -> dict:
        seconds = sum(r.seconds for r in rounds)
        return {"retrieve_pairs_per_s": (sum(r.items for r in rounds) / seconds,
                                         "1/s")}


# ---------------------------------------------------------------------------

class GradcheckAcceptance(Workload):
    """The acceptance gate's grad-check: random_model(arch, 7, 3, 4, 5), a
    3-token caption, eps 1e-6, tol 1e-5, on the gate's own 20 live case
    seeds per architecture. A round checks one case per architecture; the
    run's seed picks where in the gate's case list the run starts."""

    name = GRADCHECK
    reference = "toy"
    item = "check"
    # a check of each architecture, so every latency sample holds the same
    # work; per-check samples mix three costs, and a quantile of the mixture
    # jumps between them as the number of checks in a run changes
    step = "grad_check of one model of each architecture"
    GATE_SEEDS = 20  # live cases per architecture in the acceptance gate

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.case_seeds = {arch: [] for arch in ArchitectureKind}
        for arch, seeds in self.case_seeds.items():
            case_seed = 0
            while len(seeds) < self.GATE_SEEDS:
                if has_live_relu_branches(*self.case(arch, case_seed)):
                    seeds.append(case_seed)
                case_seed += 1
        self.reports = []

    @staticmethod
    def case(arch: ArchitectureKind, case_seed: int):
        """tests/test_acceptance.py's gradcheck_case."""
        m = random_model(arch, 7, 3, 4, 5, seed=case_seed)
        rng = np.random.default_rng([case_seed, 1])
        tokens = [int(t) for t in rng.integers(2, 7, size=3)]
        return m, CaptionedExample("gc", rng.uniform(-0.5, 0.5, size=3), tokens)

    def warmup(self) -> None:
        grad_check(random_model(ArchitectureKind.BI_LSTM, 7, 3, 4, 5),
                   CaptionedExample("gc", np.zeros(3), [2, 3, 4]),
                   epsilon=1e-6, tolerance=1e-5)

    def prepare(self, index: int):
        return [self.case(arch, seeds[(self.seed + index) % self.GATE_SEEDS])
                for arch, seeds in self.case_seeds.items()]

    def run_round(self, index: int, cases) -> Round:
        t0 = clock()
        for m, ex in cases:
            self.reports.append(grad_check(m, ex, epsilon=1e-6, tolerance=1e-5))
        seconds = clock() - t0
        return Round(len(cases), seconds, [seconds])

    def check(self) -> tuple[int, list[str]]:
        failed = 0
        problems = []
        for rep in self.reports:
            empty = [b.name for b in rep.blocks if b.n_checked == 0]
            if not rep.passed or empty or not rep.blocks:
                failed += 1
                problems.append(f"max_rel_err {rep.max_rel_err:.3e}, "
                                f"unchecked blocks {empty}")
        return failed, problems[:5]

    def report(self, rounds: list[Round]) -> dict:
        """The median check time is taken over rounds, of each round's mean
        check, so that the three architectures weigh alike in it."""
        return {
            "gradcheck_checks_per_s": (sum(r.items for r in rounds)
                                       / sum(r.seconds for r in rounds), "1/s"),
            "gradcheck_check_s_p50": (float(np.median(
                [r.seconds / r.items for r in rounds])), "s"),
        }


WORKLOADS = {w.name: w for w in (TrainMid, CaptionBeam3, RetrieveToy,
                                 GradcheckAcceptance)}


def tail(samples) -> tuple[float, float]:
    """(value, percentile): the highest percentile that has at least ten
    samples beyond it, i.e. the (n-10)-th smallest of n samples. A run with
    fewer than 11 samples has no such percentile and reports its slowest."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
