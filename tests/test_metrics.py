import math

import numpy as np
import pytest

import bicaption.metrics as metrics_mod
from bicaption.data import CaptionedExample, make_toy_dataset
from bicaption.errors import MetricError
from bicaption.metrics import (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE,
                               ScoreMatrix, bleu_n, build_score_matrix,
                               closest_ref_length, corpus_bleu_n, median_rank,
                               recall_at_k, score_pair, write_score_matrix)
from bicaption.model import ArchitectureKind, random_model

from oracles import per_query_ranks


class TestBleu:
    def test_perfect_match_is_one_for_all_n(self):
        tokens = "a dog runs through the park".split()
        for n in range(1, 5):
            report = bleu_n(tokens, [tokens], n)
            assert abs(report.score - 1.0) < 1e-9
            assert report.brevity_penalty == 1.0

    def test_classic_clipping_case(self):
        candidate = "the the the the the the the".split()
        reference = "the cat is on the mat".split()
        report = bleu_n(candidate, [reference], 1)
        assert abs(report.precisions[0] - 2 / 7) < 1e-9
        assert abs(report.score - 2 / 7) < 1e-9  # c > r, no brevity penalty

    def test_brevity_penalty_case(self):
        report = bleu_n("the cat".split(), ["the cat is here".split()], 1)
        assert abs(report.brevity_penalty - math.exp(-1)) < 1e-9
        assert abs(report.score - math.exp(-1)) < 1e-9

    def test_zero_overlap_scores_zero(self):
        report = bleu_n("x y z".split(), ["a b c".split()], 2)
        assert report.score == 0.0

    def test_higher_order_zero_precision_zeroes_score(self):
        # shared unigrams but no shared bigrams
        report = bleu_n("a c b".split(), ["a x b".split()], 2)
        assert report.precisions[0] > 0
        assert report.precisions[1] == 0.0
        assert report.score == 0.0

    def test_reference_permutation_invariance(self):
        candidate = "a b c d".split()
        refs = ["a b x y".split(), "c d a b".split(), "d c b a".split()]
        r1 = bleu_n(candidate, refs, 4)
        r2 = bleu_n(candidate, list(reversed(refs)), 4)
        assert r1.score == r2.score
        assert r1.precisions == r2.precisions

    def test_score_never_exceeds_one_or_unigram_score(self):
        rng = np.random.default_rng(0)
        letters = list("abcdef")
        for _ in range(50):
            cand = [letters[i] for i in rng.integers(0, 6, size=6)]
            refs = [[letters[i] for i in rng.integers(0, 6, size=7)]]
            b1 = bleu_n(cand, refs, 1).score
            for n in (2, 3, 4):
                bn = bleu_n(cand, refs, n).score
                assert bn <= 1.0 + 1e-12
                assert bn <= b1 + 1e-12

    def test_closest_reference_tie_prefers_shorter(self):
        refs = [["a", "b"], ["a", "b", "c", "d"]]
        assert closest_ref_length(3, refs) == 2

    def test_corpus_equals_sentence_on_single_pair(self):
        rng = np.random.default_rng(1)
        letters = list("abcdefgh")
        for _ in range(20):
            cand = [letters[i] for i in rng.integers(0, 8, size=rng.integers(4, 9))]
            refs = [[letters[i] for i in rng.integers(0, 8, size=rng.integers(4, 9))]
                    for _ in range(2)]
            for n in range(1, 5):
                single = bleu_n(cand, refs, n)
                corpus = corpus_bleu_n([(cand, refs)], n)
                assert corpus.score == single.score
                assert corpus.precisions == single.precisions

    def test_corpus_pools_counts(self):
        pair_a = ("the cat".split(), ["the cat".split()])
        pair_b = ("a dog".split(), ["one dog".split()])
        report = corpus_bleu_n([pair_a, pair_b], 1)
        # 2 matches from pair_a + 1 from pair_b over 4 candidate unigrams
        assert abs(report.precisions[0] - 3 / 4) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(MetricError):
            bleu_n([], [["a"]], 1)
        with pytest.raises(MetricError):
            bleu_n(["a"], [], 1)
        with pytest.raises(MetricError):
            bleu_n(["a"], [["a"]], 5)
        with pytest.raises(MetricError):
            corpus_bleu_n([], 2)


def matrix(scores, image_ids=None, sentence_ids=None):
    scores = np.asarray(scores, dtype=float)
    n, m = scores.shape
    return ScoreMatrix(
        scores=scores,
        image_ids=image_ids or [f"i{k}" for k in range(n)],
        sentence_ids=sentence_ids or [f"s{k}" for k in range(m)],
    )


class TestRetrievalMetrics:
    def test_dominant_diagonal_gives_perfect_recall(self):
        sm = matrix(np.eye(4) * 10.0 + 0.1)
        gt = {i: {i} for i in range(4)}
        for direction in (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE):
            assert recall_at_k(sm, gt, 1, direction) == 100.0
            assert median_rank(sm, gt, direction) == 1.0

    def test_ground_truth_always_second(self):
        rows = []
        for i in range(3):
            row = [0.0] * 5
            row[4] = 5.0   # a distractor always wins
            row[i] = 3.0   # the ground-truth sentence ranks second
            rows.append(row)
        sm = matrix(rows)
        gt = {i: {i} for i in range(3)}
        assert recall_at_k(sm, gt, 1, IMAGE_TO_SENTENCE) == 0.0
        assert recall_at_k(sm, gt, 5, IMAGE_TO_SENTENCE) == 100.0
        assert median_rank(sm, gt, IMAGE_TO_SENTENCE) == 2.0

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(2)
        sm = matrix(rng.normal(size=(6, 6)))
        gt = {i: {i} for i in range(6)}
        values = [recall_at_k(sm, gt, k, IMAGE_TO_SENTENCE) for k in range(1, 7)]
        assert values == sorted(values)
        assert values[-1] == 100.0

    def test_k_of_all_candidates_is_exhaustive(self):
        rng = np.random.default_rng(3)
        sm = matrix(rng.normal(size=(4, 7)))
        gt = {i: {i + 1} for i in range(4)}
        assert recall_at_k(sm, gt, 7, IMAGE_TO_SENTENCE) == 100.0

    def test_ties_break_toward_lower_index(self):
        sm = matrix([[1.0, 1.0, 1.0]])
        assert median_rank(sm, {0: {0}}, IMAGE_TO_SENTENCE) == 1.0
        assert median_rank(sm, {0: {2}}, IMAGE_TO_SENTENCE) == 3.0

    def test_sentence_to_image_uses_transposed_grid(self):
        # sentence 0 is the caption of image 1
        sm = matrix([[0.1, 9.0], [5.0, 0.2]])
        gt = {1: {0}, 0: {1}}
        assert recall_at_k(sm, gt, 1, SENTENCE_TO_IMAGE) == 100.0

    def test_median_of_even_query_count(self):
        rows = [[5.0, 1.0, 0.5, 0.2, 0.1],
                [5.0, 1.0, 0.5, 0.2, 0.1]]
        sm = matrix(rows)
        gt = {0: {0}, 1: {3}}  # ranks 1 and 4
        assert median_rank(sm, gt, IMAGE_TO_SENTENCE) == 2.5

    def test_median_of_odd_query_count(self):
        rows = [[5.0, 1.0, 0.5], [1.0, 5.0, 0.5], [1.0, 0.5, 5.0]]
        sm = matrix(rows)
        gt = {0: {0}, 1: {0}, 2: {1}}  # ranks 1, 2, 3
        assert median_rank(sm, gt, IMAGE_TO_SENTENCE) == 2.0

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(5, 5))
        gt = {i: {(i + 2) % 5} for i in range(5)}
        a = matrix(raw)
        b = matrix(np.exp(raw))
        for direction in (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE):
            for k in (1, 3, 5):
                assert (recall_at_k(a, gt, k, direction)
                        == recall_at_k(b, gt, k, direction))
            assert median_rank(a, gt, direction) == median_rank(b, gt, direction)

    def test_k_out_of_range_rejected(self):
        sm = matrix(np.eye(3))
        gt = {i: {i} for i in range(3)}
        with pytest.raises(MetricError):
            recall_at_k(sm, gt, 4, IMAGE_TO_SENTENCE)
        with pytest.raises(MetricError):
            recall_at_k(sm, gt, 0, IMAGE_TO_SENTENCE)

    def test_query_without_ground_truth_rejected(self):
        sm = matrix(np.eye(3))
        with pytest.raises(MetricError):
            median_rank(sm, {0: {0}}, IMAGE_TO_SENTENCE)

    @pytest.mark.parametrize("direction", [IMAGE_TO_SENTENCE,
                                           SENTENCE_TO_IMAGE])
    @pytest.mark.parametrize("gt, bad", [
        ({0: {5}, 1: {0}}, "sentence 5 "),
        ({0: {-1}, 1: {0}}, "sentence -1 "),
        ({0: {0}, 1: {1}, 7: {2}}, "image 7 "),
        ({0: {0}, 1: {1}, -1: {2}}, "image -1 ")])
    def test_out_of_range_ground_truth_rejected(self, direction, gt, bad):
        sm = matrix(np.arange(6.0).reshape(2, 3))
        with pytest.raises(MetricError, match=bad):
            recall_at_k(sm, gt, 1, direction)
        with pytest.raises(MetricError, match=bad):
            median_rank(sm, gt, direction)

    @pytest.mark.parametrize("direction, shape", [
        (IMAGE_TO_SENTENCE, (0, 3)), (SENTENCE_TO_IMAGE, (3, 0))])
    def test_no_queries_rejected(self, direction, shape):
        # no image rows, or no sentence columns: there is no rank to average
        sm = matrix(np.zeros(shape))
        with pytest.raises(MetricError, match="no queries"):
            recall_at_k(sm, {}, 1, direction)
        with pytest.raises(MetricError, match="no queries"):
            median_rank(sm, {}, direction)


class TestRanksMatchPerQueryOracle:
    """Ranks from one row-wise stable sort per direction equal the
    per-query ranking of `oracles.per_query_ranks`."""

    @staticmethod
    def case(seed):
        # few distinct scores, so rows hold exact ties; every image and
        # every sentence has at least one ground-truth partner, and some
        # have several
        rng = np.random.default_rng([seed, 24])
        n_img, n_sent = (int(v) for v in rng.integers(1, 9, size=2))
        scores = rng.integers(-2, 3, size=(n_img, n_sent)) / 2.0
        owner = rng.integers(0, n_img, size=n_sent)
        gt = {i: set(np.flatnonzero(owner == i).tolist())
              for i in range(n_img)}
        for i in range(n_img):
            gt[i].add(int(rng.integers(0, n_sent)))
        return matrix(scores), gt

    def test_random_grids_with_ties(self):
        for seed in range(200):
            sm, gt = self.case(seed)
            for direction in (IMAGE_TO_SENTENCE, SENTENCE_TO_IMAGE):
                want = per_query_ranks(sm.scores, gt, direction)
                got = metrics_mod._query_ranks(sm, gt, direction)
                assert got.tolist() == want, (seed, direction)
                assert median_rank(sm, gt, direction) == float(
                    np.median(want))
                n = sm.scores.shape[1 if direction == IMAGE_TO_SENTENCE
                                    else 0]
                for k in range(1, n + 1):
                    hits = sum(1 for r in want if r <= k)
                    assert (recall_at_k(sm, gt, k, direction)
                            == 100.0 * hits / len(want))

    @pytest.mark.parametrize("direction, query", [
        (IMAGE_TO_SENTENCE, 1), (SENTENCE_TO_IMAGE, 2)])
    def test_first_query_without_ground_truth_named(self, direction, query):
        # image 1 and sentence 2 have no partner; image 3 and sentence 3
        # neither, and later queries are not the ones named
        sm = matrix(np.zeros((4, 4)))
        gt = {0: {0, 1}, 2: {0}}
        with pytest.raises(MetricError, match=f"query {query} has no"):
            median_rank(sm, gt, direction)


class TestScorePair:
    def test_overfit_caption_beats_every_mismatch(self, toy_overfit):
        m = toy_overfit.model
        examples = toy_overfit.examples
        for ex in examples:
            own = score_pair(m, ex.feature, ex.tokens)
            others = [score_pair(m, ex.feature, other.tokens)
                      for other in examples if other is not ex]
            assert own > max(others)

    def test_deterministic_and_finite(self):
        m = random_model(ArchitectureKind.BI_LSTM, 8, 3, 4, 4, seed=5)
        feature = np.array([0.1, 0.2, -0.3])
        a = score_pair(m, feature, [2, 5, 3])
        b = score_pair(m, feature, [2, 5, 3])
        assert a == b
        assert math.isfinite(a)
        assert a <= 0.0  # negated sum of cross-entropies

    def test_matches_negated_joint_loss(self):
        from bicaption.train import joint_loss
        m = random_model(ArchitectureKind.BI_LSTM, 8, 3, 4, 4, seed=6)
        ex = CaptionedExample("x", np.array([0.4, -0.1, 0.2]), [3, 4])
        assert score_pair(m, ex.feature, ex.tokens) == -joint_loss(m, ex).total


class TestScoreMatrixBuild:
    def test_build_and_export(self, tmp_path):
        vocab, examples = make_toy_dataset(3, 10, 7, seed=2)
        m = random_model(ArchitectureKind.BI_LSTM, 10, 7, 4, 4, seed=7)
        sm = build_score_matrix(
            m,
            [(ex.image_id, ex.feature) for ex in examples],
            [(f"s{j}", ex.tokens) for j, ex in enumerate(examples)],
        )
        assert sm.scores.shape == (3, 3)
        assert sm.image_ids == [ex.image_id for ex in examples]
        assert np.all(np.isfinite(sm.scores))

        path = tmp_path / "scores.csv"
        write_score_matrix(sm, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "image_id,s0,s1,s2"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == examples[0].image_id
        np.testing.assert_array_equal(
            [float(v) for v in first[1:]], sm.scores[0])
