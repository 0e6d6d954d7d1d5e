"""Generation and retrieval metrics: BLEU-N with modified n-gram precision
and brevity penalty, model-driven image/sentence pair scoring, recall at K,
and median rank.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import CaptionedExample
from .errors import MetricError
from .model import CaptionModel
from .train import joint_loss

IMAGE_TO_SENTENCE = "image_to_sentence"
SENTENCE_TO_IMAGE = "sentence_to_image"


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

@dataclass
class BleuReport:
    n: int
    precisions: list[float]
    brevity_penalty: float
    candidate_len: int
    reference_len: int
    score: float


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def closest_ref_length(c: int, references) -> int:
    """Reference length closest to c; ties pick the shorter."""
    return min((len(r) for r in references),
               key=lambda rlen: (abs(rlen - c), rlen))


def _clipped_counts(candidate, references, n: int) -> tuple[int, int]:
    """(clipped matches, total candidate n-grams) for one pair."""
    cand = ngram_counts(candidate, n)
    total = sum(cand.values())
    if total == 0:
        return 0, 0
    max_ref: Counter = Counter()
    for ref in references:
        for gram, cnt in ngram_counts(ref, n).items():
            if cnt > max_ref[gram]:
                max_ref[gram] = cnt
    clipped = sum(min(cnt, max_ref[gram]) for gram, cnt in cand.items())
    return clipped, total


def _bleu_from_stats(matches, totals, c: int, r: int, n: int) -> BleuReport:
    precisions = [
        (matches[k] / totals[k]) if totals[k] > 0 else 0.0 for k in range(n)
    ]
    bp = min(1.0, math.exp(1.0 - r / c))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / n)
    return BleuReport(n=n, precisions=precisions, brevity_penalty=bp,
                      candidate_len=c, reference_len=r, score=score)


def bleu_n(candidate, references, n: int) -> BleuReport:
    """Sentence-level BLEU-N with uniform 1/N weights and no smoothing:
    `corpus_bleu_n` of the one pair; any zero precision yields a zero
    score."""
    return corpus_bleu_n([(candidate, references)], n)


def corpus_bleu_n(pairs, n: int) -> BleuReport:
    """Corpus-level BLEU-N: n-gram numerators/denominators and lengths are
    summed over (candidate, references) pairs before the ratios."""
    pairs = [(list(c), [list(r) for r in refs]) for c, refs in pairs]
    if not 1 <= n <= 4:
        raise MetricError(f"n must be in 1..4, got {n}")
    if not pairs:
        raise MetricError("empty corpus")
    matches = [0] * n
    totals = [0] * n
    c_sum = 0
    r_sum = 0
    for candidate, references in pairs:
        if not candidate:
            raise MetricError("empty candidate")
        if not references:
            raise MetricError("candidate without references")
        for k in range(1, n + 1):
            mk, tk = _clipped_counts(candidate, references, k)
            matches[k - 1] += mk
            totals[k - 1] += tk
        c_sum += len(candidate)
        r_sum += closest_ref_length(len(candidate), references)
    return _bleu_from_stats(matches, totals, c_sum, r_sum, n)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def score_pair(m: CaptionModel, feature: np.ndarray, tokens) -> float:
    """Match score for (image feature, sentence): the negated joint loss of
    both reading directions, so higher means a better match."""
    ex = CaptionedExample(image_id="", feature=feature, tokens=list(tokens))
    return -joint_loss(m, ex).total


@dataclass
class ScoreMatrix:
    """Image x sentence score grid with the id maps for each axis."""

    scores: np.ndarray
    image_ids: list[str]
    sentence_ids: list[str]


def build_score_matrix(m: CaptionModel, image_features,
                       sentences) -> ScoreMatrix:
    """Score every (image, sentence) cell. image_features is a sequence of
    (image_id, feature); sentences a sequence of (sentence_id, tokens)."""
    image_features = list(image_features)
    sentences = list(sentences)
    scores = np.empty((len(image_features), len(sentences)))
    for i, (_, feature) in enumerate(image_features):
        for j, (_, tokens) in enumerate(sentences):
            scores[i, j] = score_pair(m, feature, tokens)
    return ScoreMatrix(scores=scores,
                       image_ids=[i for i, _ in image_features],
                       sentence_ids=[s for s, _ in sentences])


def query_ranks(sm: ScoreMatrix, ground_truth: dict[int, set[int]],
                direction: str) -> np.ndarray:
    """1-based rank of the best-ranked ground-truth item for each query in
    `direction`, the vector that `recall_at_k` and `median_rank` reduce.
    ground_truth maps image row index -> set of sentence column indices."""
    n_images, n_sentences = sm.scores.shape
    truth = np.zeros(sm.scores.shape, dtype=bool)
    for img, sents in ground_truth.items():
        for axis, index, count in [("image", img, n_images)] + [
                ("sentence", s, n_sentences) for s in sents]:
            if not 0 <= index < count:
                raise MetricError(
                    f"ground-truth {axis} {index} outside 0..{count - 1}")
        truth[img, list(sents)] = True
    if direction == IMAGE_TO_SENTENCE:
        grid = sm.scores
    elif direction == SENTENCE_TO_IMAGE:
        grid, truth = sm.scores.T, truth.T
    else:
        raise MetricError(f"unknown retrieval direction {direction!r}")
    if not grid.shape[0]:
        raise MetricError(f"no queries to rank in direction {direction}")
    missing = np.flatnonzero(~truth.any(axis=1))
    if missing.size:
        raise MetricError(f"query {missing[0]} has no ground-truth items")
    order = np.argsort(-grid, axis=1, kind="stable")  # ties keep lower index
    return 1 + np.take_along_axis(truth, order, axis=1).argmax(axis=1)


def recall_at_k(sm: ScoreMatrix, ground_truth: dict[int, set[int]], k: int,
                direction: str) -> float:
    """Percentage of queries whose top-k contains a ground-truth item."""
    n_candidates = (sm.scores.shape[1] if direction == IMAGE_TO_SENTENCE
                    else sm.scores.shape[0])
    if k < 1 or k > n_candidates:
        raise MetricError(f"k={k} outside 1..{n_candidates}")
    ranks = query_ranks(sm, ground_truth, direction)
    return 100.0 * np.count_nonzero(ranks <= k) / len(ranks)


def median_rank(sm: ScoreMatrix, ground_truth: dict[int, set[int]],
                direction: str) -> float:
    """Median over queries of the first ground-truth item's rank (an even
    query count averages the two central values)."""
    return float(np.median(query_ranks(sm, ground_truth, direction)))


def write_score_matrix(sm: ScoreMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("image_id," + ",".join(sm.sentence_ids) + "\n")
        for i, image_id in enumerate(sm.image_ids):
            row = ",".join(format(v, ".17g") for v in sm.scores[i])
            fh.write(f"{image_id},{row}\n")
