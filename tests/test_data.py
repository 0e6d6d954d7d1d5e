import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bicaption.data import (AUGMENT_CORNERS, AUGMENT_MIRRORS, AUGMENT_SCALES,
                            BOUNDARY_ID, BOUNDARY_TOKEN, FEATURE_MAGIC,
                            UNK_ID, UNK_TOKEN, augment_plan, augment_plan_lines,
                            build_vocab, encode_example, make_toy_dataset,
                            read_captions, read_features, read_vocab,
                            tokenize, write_captions, write_features,
                            write_vocab)
from bicaption.errors import (BicaptionError, ConfigError, DataError,
                              PlanError)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("A man, walking!") == ["a", "man", "walking"]

    def test_hyphen_splits(self):
        assert tokenize("rock-n-roll") == ["rock", "n", "roll"]

    def test_empty_after_stripping(self):
        assert tokenize("!!! ...") == []


class TestBuildVocab:
    def test_no_filtering_when_all_frequent(self):
        corpus = [("i1", "dog runs fast")] * 5
        vocab = build_vocab(corpus, min_count=5)
        assert vocab.size == 3 + 2  # three words plus the reserved rows

    def test_rare_words_fall_to_unk(self):
        vocab = build_vocab([("i1", "a a a a a b")], min_count=5)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id
        assert vocab.encode("a b") == [vocab.token_to_id["a"], UNK_ID]

    def test_id_order_count_then_lexicographic(self):
        corpus = [("i1", "zebra zebra ant ant bee")]
        vocab = build_vocab(corpus, min_count=1)
        # counts: zebra 2, ant 2, bee 1; ties break lexicographically
        assert vocab.token_to_id["ant"] == 2
        assert vocab.token_to_id["zebra"] == 3
        assert vocab.token_to_id["bee"] == 4

    def test_determinism(self):
        corpus = [("i1", "b a c a b"), ("i2", "c b a")]
        v1 = build_vocab(corpus, min_count=1)
        v2 = build_vocab(corpus, min_count=1)
        assert v1.token_to_id == v2.token_to_id

    def test_reserved_ids(self):
        vocab = build_vocab([("i1", "x y z")], min_count=1)
        assert vocab.id_to_token[BOUNDARY_ID] == BOUNDARY_TOKEN
        assert vocab.id_to_token[UNK_ID] == UNK_TOKEN

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], min_count=5)


class TestEncodeExample:
    def setup_method(self):
        self.vocab = build_vocab(
            [("i1", "a man in a black jacket is walking down the street")],
            min_count=1)

    def test_round_trip_known_words(self):
        ex = encode_example(self.vocab, "i1", "man walking street", np.zeros(2))
        assert self.vocab.decode(ex.tokens) == ["man", "walking", "street"]

    def test_unknown_maps_to_unk(self):
        ex = encode_example(self.vocab, "i1", "man zeppelin", np.zeros(2))
        assert ex.tokens[1] == UNK_ID
        assert self.vocab.decode(ex.tokens) == ["man", UNK_TOKEN]

    def test_repeated_word_shares_one_id(self):
        # eleven words; "a" appears twice and maps to a single id
        text = "A man in a black jacket is walking down the street"
        ex = encode_example(self.vocab, "i1", text, np.zeros(2))
        assert len(ex.tokens) == 11
        assert ex.tokens[0] == ex.tokens[3]
        assert len(set(ex.tokens)) == 10

    def test_all_punctuation_rejected(self):
        with pytest.raises(DataError):
            encode_example(self.vocab, "i1", "?!...", np.zeros(2))


class TestAugmentPlan:
    def test_default_plan_has_forty_variants(self):
        plan = augment_plan(640, 480)
        assert len(plan) == 40
        combos = {(v.scale, v.corner, v.mirror) for v in plan}
        assert len(combos) == 40
        assert {v.scale for v in plan} == set(AUGMENT_SCALES)
        assert {v.corner for v in plan} == set(AUGMENT_CORNERS)
        assert {v.mirror for v in plan} == set(AUGMENT_MIRRORS)

    def test_crops_stay_inside_scaled_region(self):
        for v in augment_plan(64, 48):
            side = int(v.scale * 256)
            assert 0 <= v.x and 0 <= v.y
            assert v.x + v.w <= side
            assert v.y + v.h <= side

    def test_full_scale_top_left(self):
        v = next(v for v in augment_plan(10, 10)
                 if v.scale == 1.0 and v.corner == "TL" and v.mirror == "none")
        assert (v.x, v.y, v.w, v.h) == (0, 0, 227, 227)

    def test_center_crop_origin(self):
        v = next(v for v in augment_plan(10, 10)
                 if v.scale == 1.0 and v.corner == "C")
        assert (v.x, v.y) == ((256 - 227) // 2, (256 - 227) // 2)

    def test_oversized_subscale_crop_names_the_scale(self):
        # floor(0.925 * 256) = 236 < 237
        with pytest.raises(PlanError, match="0.925"):
            augment_plan(10, 10, crop_small=237)

    def test_full_crop_does_not_fit_subscales(self):
        # the classic conflict: 227 > floor(0.85 * 256) = 217
        with pytest.raises(PlanError, match="0.85|0.925|0.875"):
            augment_plan(10, 10, crop_small=227)

    def test_crop_larger_than_base_rejected(self):
        with pytest.raises(PlanError):
            augment_plan(10, 10, base=200, crop=227)

    def test_bad_dims_rejected(self):
        with pytest.raises(PlanError):
            augment_plan(0, 10)

    @pytest.mark.parametrize("sizes", [dict(crop=-5), dict(crop_small=0),
                                       dict(base=0, crop=0, crop_small=0)])
    def test_sizes_below_one_rejected(self, sizes):
        with pytest.raises(PlanError, match=">= 1"):
            augment_plan(64, 64, **sizes)

    def test_export_lines(self):
        plan = augment_plan(10, 10)
        lines = augment_plan_lines("img7", plan)
        assert len(lines) == 40
        assert lines[0] == "img7,1,TL,0,0,227,227,none"
        assert all(line.count(",") == 7 for line in lines)


class TestToyDataset:
    def test_determinism(self):
        v1, e1 = make_toy_dataset(10, 20, 7, seed=3)
        v2, e2 = make_toy_dataset(10, 20, 7, seed=3)
        assert v1.token_to_id == v2.token_to_id
        for a, b in zip(e1, e2):
            assert a.tokens == b.tokens
            np.testing.assert_array_equal(a.feature, b.feature)

    def test_features_well_separated(self):
        _, examples = make_toy_dataset(10, 20, 7, seed=3)
        for i, a in enumerate(examples):
            for b in examples[i + 1:]:
                assert np.max(np.abs(a.feature - b.feature)) >= 0.1

    def test_token_range_and_lengths(self):
        _, examples = make_toy_dataset(12, 9, 8, seed=0)
        for ex in examples:
            assert all(2 <= t < 9 for t in ex.tokens)
            assert 3 <= len(ex.tokens) <= 6

    def test_captions_distinct(self):
        _, examples = make_toy_dataset(15, 20, 7, seed=1)
        assert len({tuple(ex.tokens) for ex in examples}) == 15

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ConfigError):
            make_toy_dataset(3, 3, 7)

    def test_too_few_feature_slots_rejected(self):
        with pytest.raises(ConfigError):
            make_toy_dataset(3, 10, 4)


class TestFileFormats:
    def test_captions_round_trip(self, tmp_path):
        path = tmp_path / "caps.tsv"
        captions = [("img1", "a dog runs"), ("img2", "a cat sits"),
                    ("img1", "the dog rests")]
        write_captions(path, captions)
        assert read_captions(path) == captions

    def test_caption_line_without_tab_rejected(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("no tab here\n")
        with pytest.raises(DataError, match="1"):
            read_captions(path)

    def test_features_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = {
            "a": rng.standard_normal(5) * 100,
            "b": np.array([1e-300, -1e300, 1 / 3, np.pi, 0.1]),
        }
        path = tmp_path / "f.feat"
        write_features(path, feats)
        back = read_features(path)
        assert list(back) == ["a", "b"]
        for key in feats:
            np.testing.assert_array_equal(back[key], feats[key])

    def test_features_round_trip_edges(self, tmp_path):
        # one image, ids with spaces and non-ASCII text, extreme finite
        # values, and negative zero all come back exactly
        path = tmp_path / "f.feat"
        for feats in ({"only": np.array([2.5])},
                      {" a b ": np.array([-0.0, 5e-324, 1.7976931348623157e308]),
                       "café": np.array([-1e-310, 1.0, -2.0]),
                       "": np.array([0.0, 0.0, 0.0])}):
            write_features(path, feats)
            back = read_features(path)
            assert list(back) == list(feats)
            for key, vec in feats.items():
                assert back[key].tobytes() == vec.tobytes()

    @pytest.mark.parametrize("feats", [
        {},
        {"a": np.zeros(3), "b": np.zeros(2)},
        {"a": np.zeros((2, 3))},
        {"a": np.float64(1.0)},
        {"a": np.zeros(2), "b": np.array([0.0, np.nan])},
        {"a": np.array([np.inf, 0.0])},
        {"a": np.zeros(2), "b\tc": np.zeros(2)},
        {"a\nb": np.zeros(2)},
        {"a\rb": np.zeros(2)},
        {7: np.zeros(2)},
    ], ids=["empty", "lengths", "matrix", "scalar", "nan", "inf", "tab",
            "newline", "return", "int_id"])
    def test_unreadable_features_refused_before_writing(self, tmp_path, feats):
        # what read_features would refuse is never written
        path = tmp_path / "f.feat"
        with pytest.raises(DataError):
            write_features(path, feats)
        assert not path.exists()

    def test_feature_header_validated(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("WRONG 1 1 2\nx\t0 0\n")
        with pytest.raises(DataError, match="header"):
            read_features(path)

    def test_feature_count_mismatch(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("BICAP-FEAT 1 2 2\nx\t0 0\n")
        with pytest.raises(DataError):
            read_features(path)

    def test_feature_dim_mismatch(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("BICAP-FEAT 1 1 3\nx\t0 0\n")
        with pytest.raises(DataError):
            read_features(path)

    def test_feature_repeated_image_id_rejected(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("BICAP-FEAT 1 2 2\na\t1 2\na\t3 4\nb\t5 6\n")
        with pytest.raises(DataError, match=f"{path}:3: repeated image id"):
            read_features(path)

    def test_feature_row_past_header_count_rejected(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("BICAP-FEAT 1 1 2\na\t1 2\nb\t5 6\n")
        with pytest.raises(DataError, match=f"{path}:3: row past"):
            read_features(path)

    def test_vocab_round_trip(self, tmp_path):
        vocab = build_vocab([("i", "dog dog cat")], min_count=1)
        path = tmp_path / "v.tsv"
        write_vocab(path, vocab)
        back = read_vocab(path)
        assert back.token_to_id == vocab.token_to_id
        assert back.counts["dog"] == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0] == f"{BOUNDARY_TOKEN}\t0"
        assert lines[1] == f"{UNK_TOKEN}\t0"

    def test_feature_header_non_ascii_digit_rejected(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_text("BICAP-FEAT 1 \u00b2 2\nx\t0 0\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_features(path)

    def test_feature_header_count_past_int_digit_limit_rejected(self, tmp_path):
        # int() refuses more than 4300 digits with a ValueError
        path = tmp_path / "f.feat"
        path.write_text(f"BICAP-FEAT 1 {'9' * 5000} 2\nx\t0 0\n")
        with pytest.raises(DataError, match="header"):
            read_features(path)

    def test_vocab_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text(f"{BOUNDARY_TOKEN}\t0\n{UNK_TOKEN}\t0\nw02\tmany\n")
        with pytest.raises(DataError, match=f"{path}:3: count 'many'"):
            read_vocab(path)

    def test_vocab_repeated_token_rejected(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text(f"{BOUNDARY_TOKEN}\t0\n{UNK_TOKEN}\t0\n"
                        "dog\t2\ndog\t1\n")
        with pytest.raises(DataError, match=f"{path}:4: repeated token 'dog'"):
            read_vocab(path)

    def test_vocab_blank_line_only_after_last_token(self, tmp_path):
        path = tmp_path / "v.tsv"
        rows = f"{BOUNDARY_TOKEN}\t0\n{UNK_TOKEN}\t0\ndog\t2\n"
        path.write_text(rows + "\ncat\t1\n")
        with pytest.raises(DataError, match=f"{path}:4: blank line"):
            read_vocab(path)
        path.write_text(rows + "\n\n")
        assert read_vocab(path).decode(range(3)) == [
            BOUNDARY_TOKEN, UNK_TOKEN, "dog"]

    def test_vocab_missing_reserved_rows(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("dog\t2\ncat\t1\n")
        with pytest.raises(DataError):
            read_vocab(path)


# pieces of near-valid files: each format's own words, numbers in every
# form int() and float() read or refuse (one past int()'s digit limit),
# and line and field separators, Unicode ones included
pieces = st.one_of(
    st.sampled_from([
        FEATURE_MAGIC, BOUNDARY_TOKEN, UNK_TOKEN, "0", "1", "2", "-1", "+2",
        "1e308", "1e999", "nan", "-inf", "0x10", "1_0", "\u00b2", "\u0663",
        "9" * 5000, " ", "\t", "\n", "\r", "\r\n", "\x00", "\x0b", "\x85",
        "\u2028", "\ufeff"]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=5),
)


def fuzz_files(prefixes):
    """File contents: one of `prefixes` then joined pieces, or raw bytes."""
    return (st.tuples(st.sampled_from(prefixes), st.lists(pieces, max_size=24))
            .map(lambda t: (t[0] + "".join(t[1])).encode("utf-8"))
            | st.binary(max_size=60))


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReaderFuzz:
    """Any file either parses into what its reader promises or raises a
    BicaptionError."""

    @FUZZ
    @given(fuzz_files(["", f"{FEATURE_MAGIC} 1 ", f"{FEATURE_MAGIC} 1 1 2\n",
                       f"{FEATURE_MAGIC} 1 2 1\nimg\t"]))
    def test_read_features(self, tmp_path, blob):
        path = tmp_path / "fuzz.feat"
        path.write_bytes(blob)
        try:
            feats = read_features(path)
        except BicaptionError:
            return
        dims = {vec.shape for vec in feats.values()}
        assert feats and len(dims) == 1
        assert all(np.all(np.isfinite(vec)) for vec in feats.values())

    @FUZZ
    @given(fuzz_files(["", "img\t", "img\ta dog\n"]))
    def test_read_captions(self, tmp_path, blob):
        path = tmp_path / "fuzz.tsv"
        path.write_bytes(blob)
        try:
            captions = read_captions(path)
        except BicaptionError:
            return
        assert captions
        assert all(isinstance(image_id, str) and isinstance(text, str)
                   for image_id, text in captions)

    @FUZZ
    @given(fuzz_files(["", f"{BOUNDARY_TOKEN}\t0\n{UNK_TOKEN}\t0\n",
                       f"{BOUNDARY_TOKEN}\t0\n{UNK_TOKEN}\t"]))
    def test_read_vocab(self, tmp_path, blob):
        path = tmp_path / "fuzz.tsv"
        path.write_bytes(blob)
        try:
            vocab = read_vocab(path)
        except BicaptionError:
            return
        assert vocab.decode(range(2)) == [BOUNDARY_TOKEN, UNK_TOKEN]
        assert all(vocab.token_to_id[tok] == i
                   for i, tok in vocab.id_to_token.items())
