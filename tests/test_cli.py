import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bicaption.train as train_mod
from bicaption import cli, metrics
from bicaption.checkpoint import load_checkpoint, save_checkpoint
from bicaption.cli import main
from bicaption.data import (Vocabulary, make_toy_dataset, write_captions,
                            write_features, write_vocab)
from bicaption.errors import BicaptionError
from bicaption.model import ArchitectureKind


def toy_caption_text(vocab, ex):
    return " ".join(vocab.decode(ex.tokens))


def write_corpus(tmp_path, vocab, examples):
    captions_path = tmp_path / "captions.tsv"
    features_path = tmp_path / "features.feat"
    vocab_path = tmp_path / "vocab.tsv"
    write_captions(captions_path,
                   [(ex.image_id, toy_caption_text(vocab, ex))
                    for ex in examples])
    write_features(features_path, {ex.image_id: ex.feature for ex in examples})
    write_vocab(vocab_path, vocab)
    return captions_path, features_path, vocab_path


@pytest.fixture()
def toy_files(tmp_path, toy_overfit):
    captions, features, vocab = write_corpus(
        tmp_path, toy_overfit.vocab, toy_overfit.examples)
    ckpt = tmp_path / "overfit.ckpt"
    save_checkpoint(toy_overfit.model, ckpt)
    return dict(captions=captions, features=features, vocab=vocab, ckpt=ckpt,
                dir=tmp_path)


class TestTrainCommand:
    def test_smoke_train_writes_artifacts(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(6, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(out_dir),
                   "--max-epochs", "4", "--batch-size", "2",
                   "--patience", "-1", "--seed", "5"])
        assert rc == 0
        assert (out_dir / "model.ckpt").exists()
        assert (out_dir / "vocab.txt").exists()
        log_rows = (out_dir / "train_log.tsv").read_text().strip().splitlines()
        assert log_rows[0].startswith("0\tnan\t")
        initial_val = float(log_rows[0].split("\t")[2])
        final_val = float(log_rows[-1].split("\t")[2])
        assert final_val < initial_val
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4 + 1  # one per epoch, then the checkpoint
        assert lines[0].startswith("epoch 1 train_loss ")
        assert " val_loss " in lines[0]

    def test_validation_loss_measured_once_per_epoch(self, tmp_path,
                                                     monkeypatch, capsys):
        # epoch 0's baseline is one pass over the 4 validation captions,
        # shared by the log and early stopping; each trained epoch adds one
        calls = []
        loss = train_mod.joint_loss

        def counted(m, ex):
            calls.append(ex.image_id)
            return loss(m, ex)
        monkeypatch.setattr(train_mod, "joint_loss", counted)
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(tmp_path / "run"),
                   "--max-epochs", "2", "--seed", "5"])
        assert rc == 0
        assert len(calls) == 3 * 4
        log_rows = (tmp_path / "run" / "train_log.tsv").read_text().split("\n")
        assert [row.split("\t")[0] for row in log_rows] == ["0", "1", "2", ""]
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in out[:2]] == ["1", "2"]

    def test_arch_round_trips_through_checkpoint(self, tmp_path):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(out_dir),
                   "--arch", "bi-s-lstm", "--max-epochs", "1",
                   "--patience", "-1"])
        assert rc == 0
        m = load_checkpoint(out_dir / "model.ckpt")
        assert m.arch == ArchitectureKind.BI_S_LSTM

    def test_missing_feature_file_exits_2(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, _, _ = write_corpus(tmp_path, vocab, examples)
        missing = tmp_path / "nope.feat"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(missing), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nope.feat" in err

    def test_non_numeric_feature_value_exits_2(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        lines = features.read_text().splitlines()
        lines[2] = lines[2].replace(" ", " abc ", 1)
        features.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{features}:3:" in err

        lines[0] = lines[0].replace(" 4 ", " four ")
        features.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "bad feature header" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        config = tmp_path / "train.cfg"
        config.write_text("max_epochs=1\nbatch_size=2\npatience=-1\n")
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(out_dir),
                   "--config", str(config), "--max-epochs", "2"])
        assert rc == 0
        rows = (out_dir / "train_log.tsv").read_text().strip().splitlines()
        assert rows[-1].startswith("2\t")  # flag wins over the config value

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_hidden_dim_below_one_names_hidden_dim(self, value, tmp_path,
                                                  capsys):
        # embed_dim defaults to hidden_dim, so both are below one
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(tmp_path / "run"),
                   "--hidden-dim", value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: hidden_dim must be >= 1, got {value}\n"

    @pytest.mark.parametrize("flags, line", [
        (["--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        (["--embed-dim", "-1"], "embed_dim must be >= 1, got -1"),
    ])
    def test_model_size_checked_before_any_file_is_read(self, flags, line,
                                                        tmp_path, capsys):
        rc = main(["train", "--captions", str(tmp_path / "nope.tsv"),
                   "--features", str(tmp_path / "nope.feat"),
                   "--out-dir", str(tmp_path / "run"), *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "run").exists()

    def test_val_features_without_val_captions_rejected(self, tmp_path,
                                                        capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--val-features", str(features),
                   "--out-dir", str(out_dir)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert "--val-captions" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--momentum", "1.5", "momentum must be in [0, 1), got 1.5"),
        ("--max-epochs", "0", "max_epochs must be >= 1, got 0"),
    ])
    def test_bad_setting_refused_before_reading_or_writing(
            self, flag, value, message, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(out_dir), flag, value])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out_dir.exists()

    def test_val_feature_dim_checked_before_out_dir(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        val_features = tmp_path / "val.feat"
        write_features(val_features, {ex.image_id: np.append(ex.feature, 0.0)
                                      for ex in examples})
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--val-captions", str(captions),
                   "--val-features", str(val_features),
                   "--out-dir", str(out_dir)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {val_features}: feature for "
                       f"{examples[0].image_id!r} has dim 8, {features} "
                       f"expects 7\n")
        assert not out_dir.exists()

    def test_config_key_set_twice_rejected(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        config = tmp_path / "train.cfg"
        config.write_text("batch_size=3\n# comment\nbatch_size=1\n")
        out_dir = tmp_path / "run"
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(out_dir),
                   "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: {config}:3: repeated config key 'batch_size'\n")
        assert not out_dir.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 12, 7, seed=1)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        config = tmp_path / "train.cfg"
        config.write_text("learning=0.1\n")
        rc = main(["train", "--captions", str(captions), "--features",
                   str(features), "--out-dir", str(tmp_path / "run"),
                   "--config", str(config)])
        assert rc == 2
        assert "learning" in capsys.readouterr().err


class TestCaptionCommand:
    def test_overfit_model_reproduces_captions(self, toy_files, toy_overfit,
                                               capsys):
        rc = main(["caption", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--vocab", str(toy_files["vocab"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        truth = {ex.image_id: toy_caption_text(toy_overfit.vocab, ex)
                 for ex in toy_overfit.examples}
        exact = 0
        for line in lines:
            image_id, chosen, lp_f, lp_b, text = line.split("\t")
            assert chosen in ("forward", "backward")
            float(lp_f), float(lp_b)  # both directions always reported
            exact += text == truth[image_id]
        assert exact >= 9

    def test_rerun_is_byte_identical(self, toy_files, capsys):
        argv = ["caption", "--checkpoint", str(toy_files["ckpt"]),
                "--features", str(toy_files["features"]),
                "--vocab", str(toy_files["vocab"]), "--beam", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_dim_mismatch_exits_3(self, toy_files, toy_overfit, tmp_path,
                                  capsys):
        bad = tmp_path / "bad.feat"
        write_features(bad, {ex.image_id: ex.feature[:3]
                             for ex in toy_overfit.examples})
        rc = main(["caption", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(bad), "--vocab", str(toy_files["vocab"])])
        assert rc == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_non_integer_config_value_exits_2(self, toy_files, tmp_path,
                                              capsys):
        config = tmp_path / "caption.cfg"
        config.write_text("beam=2\nmax_len=abc\n")
        rc = main(["caption", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--vocab", str(toy_files["vocab"]), "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{config}:2:" in err

    def test_checkpoint_directory_exits_2(self, toy_files, capsys):
        rc = main(["caption", "--checkpoint", str(toy_files["dir"]),
                   "--features", str(toy_files["features"]),
                   "--vocab", str(toy_files["vocab"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(toy_files["dir"]) in err

    def test_checkpoint_header_too_large_to_allocate_exits_2(
            self, toy_files, capsys, tmp_path):
        # vocab and embed of 2^31 under a valid digest: numpy refuses the
        # embedding outright, so the size check must come first
        header = struct.Struct("<IB7I")
        payload = bytearray(toy_files["ckpt"].read_bytes()[:-8])
        fields = list(header.unpack_from(payload, 6))
        fields[2] = fields[4] = 2 ** 31
        header.pack_into(payload, 6, *fields)
        crafted = tmp_path / "crafted.ckpt"
        crafted.write_bytes(
            bytes(payload) + hashlib.blake2b(payload, digest_size=8).digest())
        rc = main(["caption", "--checkpoint", str(crafted),
                   "--features", str(toy_files["features"]),
                   "--vocab", str(toy_files["vocab"])])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "header implies" in captured.err


class TestRetrieveCommand:
    def test_overfit_model_retrieves_perfectly(self, toy_files, capsys):
        rc = main(["retrieve", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--captions", str(toy_files["captions"]),
                   "--vocab", str(toy_files["vocab"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        values = dict(line.split(",") for line in lines)
        assert float(values["image_to_sentence_R@1"]) == 100.0
        assert float(values["sentence_to_image_R@1"]) == 100.0
        assert float(values["image_to_sentence_Med_r"]) == 1.0
        assert float(values["sentence_to_image_Med_r"]) == 1.0

    def test_each_direction_ranked_once(self, toy_files, capsys,
                                        monkeypatch):
        # random scores, so the median rank is not 1; the printed values
        # are recall_at_k's and median_rank's, from 2 rankings, not 8
        real_build, real_ranks = (metrics.build_score_matrix,
                                  metrics.query_ranks)

        def build(*args):
            sm = real_build(*args)
            sm.scores[...] = np.random.default_rng(5).random(sm.scores.shape)
            return sm
        calls = []

        def ranks(*args):
            calls.append(args)
            return real_ranks(*args)
        monkeypatch.setattr(metrics, "build_score_matrix", build)
        monkeypatch.setattr(metrics, "query_ranks", ranks)
        rc = main(["retrieve", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--captions", str(toy_files["captions"]),
                   "--vocab", str(toy_files["vocab"])])
        assert rc == 0
        assert [direction for _, _, direction in calls] == [
            metrics.IMAGE_TO_SENTENCE, metrics.SENTENCE_TO_IMAGE]
        sm, ground_truth, _ = calls[0]
        want = []
        for direction in (metrics.IMAGE_TO_SENTENCE,
                          metrics.SENTENCE_TO_IMAGE):
            want += [f"{direction}_R@{k},"
                     f"{metrics.recall_at_k(sm, ground_truth, k, direction):.6f}"
                     for k in (1, 5, 10)]
            want.append(f"{direction}_Med_r,"
                        f"{metrics.median_rank(sm, ground_truth, direction):.6f}")
        assert capsys.readouterr().out == "\n".join(want) + "\n"
        assert any(line.split(",")[1] not in ("1.000000", "100.000000")
                   for line in want)

    def test_matrix_export(self, toy_files, capsys, tmp_path):
        out = tmp_path / "scores.csv"
        rc = main(["retrieve", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--captions", str(toy_files["captions"]),
                   "--vocab", str(toy_files["vocab"]),
                   "--matrix-out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert len(out.read_text().strip().splitlines()) == 11

    def test_non_integer_k_list_exits_2(self, toy_files, capsys):
        rc = main(["retrieve", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--captions", str(toy_files["captions"]),
                   "--vocab", str(toy_files["vocab"]), "--k-list", "1,x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'1,x'" in err


    @pytest.mark.parametrize("k_list, k", [("1,0", 0), ("5,99", 99),
                                           ("11", 11)])
    def test_out_of_range_k_refused_before_scoring(self, k_list, k, toy_files,
                                                   tmp_path, capsys):
        # 10 images and 10 captions: k is read in both query directions
        out = tmp_path / "scores.csv"
        rc = main(["retrieve", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--captions", str(toy_files["captions"]),
                   "--vocab", str(toy_files["vocab"]), "--k-list", k_list,
                   "--matrix-out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: k={k} outside 1..10\n")
        assert not out.exists()


class TestEvalBleuCommand:
    def test_known_scores(self, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        cands = tmp_path / "cands.tsv"
        write_captions(refs, [("i1", "the cat is on the mat"),
                              ("i2", "a dog runs in the park")])
        write_captions(cands, [("i1", "the cat is on the mat"),
                               ("i2", "a dog runs in the park")])
        rc = main(["eval-bleu", "--candidates", str(cands),
                   "--references", str(refs)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [f"BLEU-{n},1.000000" for n in range(1, 5)]

    def test_clipped_unigram_value(self, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        cands = tmp_path / "cands.tsv"
        write_captions(refs, [("i1", "the cat is on the mat")])
        write_captions(cands, [("i1", "the the the the the the the")])
        rc = main(["eval-bleu", "--candidates", str(cands),
                   "--references", str(refs), "--max-n", "1"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line == f"BLEU-1,{2 / 7:.6f}"

    def test_candidate_without_reference_fails(self, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        cands = tmp_path / "cands.tsv"
        write_captions(refs, [("i1", "a b")])
        write_captions(cands, [("i2", "a b")])
        rc = main(["eval-bleu", "--candidates", str(cands),
                   "--references", str(refs)])
        assert rc == 2

    @pytest.mark.parametrize("max_n", ["0", "-1", "5"])
    def test_max_n_outside_1_to_4_refused_before_output(self, max_n,
                                                        tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        write_captions(refs, [("i1", "the cat is on the mat")])
        rc = main(["eval-bleu", "--candidates", str(refs),
                   "--references", str(refs), "--max-n", max_n])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: max_n must be in 1..4, got {max_n}\n"


class TestGradcheckCommand:
    @pytest.mark.parametrize("arch", ["bi-lstm", "bi-s-lstm", "bi-f-lstm"])
    def test_default_dims_pass(self, arch, capsys):
        rc = main(["gradcheck", "--arch", arch])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().splitlines()[-1].startswith("PASS")

    def test_impossible_tolerance_exits_1(self, capsys):
        rc = main(["gradcheck", "--arch", "bi-lstm", "--tolerance", "1e-12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_infinite_tolerance_exits_2(self, capsys):
        # a check that cannot fail would pass whatever the gradients are
        rc = main(["gradcheck", "--arch", "bi-lstm", "--tolerance", "inf"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tolerance must be positive and finite, got inf\n"

    def test_same_seed_identical_report(self, capsys):
        argv = ["gradcheck", "--arch", "bi-lstm", "--seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_negative_seed_refused_before_any_draw(self, capsys):
        rc = main(["gradcheck", "--seed", "-1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be non-negative, got -1\n"


class TestAugmentPlanCommand:
    def test_single_image_plan(self, capsys):
        rc = main(["augment-plan", "--image-id", "img9", "--width", "640",
                   "--height", "480"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 40
        assert all(line.startswith("img9,") for line in lines)

    def test_dims_file(self, tmp_path, capsys):
        dims = tmp_path / "dims.tsv"
        dims.write_text("a\t640\t480\nb\t320\t240\n")
        rc = main(["augment-plan", "--dims-file", str(dims)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 80

    def test_non_integer_dims_row_exits_2(self, tmp_path, capsys):
        dims = tmp_path / "dims.tsv"
        dims.write_text("a\t640\t480\nb\t320\twide\n")
        rc = main(["augment-plan", "--dims-file", str(dims)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{dims}:2:" in err

    def test_infeasible_crop_exits_2(self, capsys):
        rc = main(["augment-plan", "--width", "10", "--height", "10",
                   "--crop-small", "227"])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_missing_dims_rejected(self, capsys):
        rc = main(["augment-plan", "--width", "10"])
        assert rc == 2


class TestDumpGatesCommand:
    def test_writes_trace_files(self, toy_files, toy_overfit, tmp_path,
                                capsys):
        out_dir = tmp_path / "traces"
        rc = main(["dump-gates", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--vocab", str(toy_files["vocab"]),
                   "--direction", "backward", "--out-dir", str(out_dir)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        first = toy_overfit.examples[0].image_id
        gates = (out_dir / f"{first}.backward.gates.csv").read_text()
        assert gates.startswith("step,layer,direction,unit,i,f,o,g,c,h")
        words = (out_dir / f"{first}.backward.words.csv").read_text()
        assert words.startswith("step,token,vocab_index,prob")

    def test_gate_dump_files(self, toy_files, toy_overfit, capsys, tmp_path):
        gates_dir = tmp_path / "gates"
        for direction in ("forward", "backward"):
            rc = main(["dump-gates", "--checkpoint", str(toy_files["ckpt"]),
                       "--features", str(toy_files["features"]),
                       "--vocab", str(toy_files["vocab"]),
                       "--direction", direction, "--out-dir", str(gates_dir)])
            assert rc == 0
        capsys.readouterr()
        first = toy_overfit.examples[0].image_id
        for direction in ("forward", "backward"):
            assert (gates_dir / f"{first}.{direction}.gates.csv").exists()
            assert (gates_dir / f"{first}.{direction}.words.csv").exists()

    def test_bad_direction_rejected(self, toy_files, capsys):
        rc = main(["dump-gates", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(toy_files["features"]),
                   "--direction", "sideways", "--out-dir", "x"])
        assert rc == 2

    def test_refused_trace_leaves_no_out_dir(self, toy_files, capsys):
        out_dir = toy_files["dir"] / "traces"
        rc = main(["dump-gates", *(a.format(**toy_files) for a in MODEL_ARGS),
                   "--max-len", "0", "--out-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: max_len must be >= 1, got 0\n")
        assert not out_dir.exists()


class TestFullPipeline:
    def test_train_caption_retrieve_chain(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(5, 12, 7, seed=8)
        captions, features, _ = write_corpus(tmp_path, vocab, examples)
        run_dir = tmp_path / "run"
        assert main(["train", "--captions", str(captions), "--features",
                     str(features), "--out-dir", str(run_dir),
                     "--max-epochs", "3", "--batch-size", "2",
                     "--patience", "-1", "--seed", "1"]) == 0
        capsys.readouterr()

        assert main(["caption", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--features", str(features),
                     "--vocab", str(run_dir / "vocab.txt")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5

        assert main(["retrieve", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--features", str(features), "--captions", str(captions),
                     "--vocab", str(run_dir / "vocab.txt"),
                     "--k-list", "1,2,5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 8
        assert all("," in row for row in rows)


class TestVocabMismatch:
    @pytest.mark.parametrize("command", ["caption", "retrieve", "dump-gates"])
    def test_vocab_size_differing_from_checkpoint_exits_2(
            self, command, toy_files, toy_overfit, tmp_path, capsys):
        words = {i: toy_overfit.vocab.id_to_token[i] for i in range(4)}
        small = tmp_path / "small.vocab"
        write_vocab(small, Vocabulary({w: i for i, w in words.items()}, words))
        argv = [command, "--checkpoint", str(toy_files["ckpt"]),
                "--features", str(toy_files["features"]),
                "--vocab", str(small)]
        if command == "retrieve":
            argv += ["--captions", str(toy_files["captions"])]
        if command == "dump-gates":
            argv += ["--out-dir", str(tmp_path / "traces")]
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "small.vocab" in captured.err


class TestNonUtf8Input:
    @pytest.mark.parametrize("kind", ["captions", "vocab", "features",
                                      "config"])
    def test_latin1_file_exits_2_naming_it(self, kind, toy_files, tmp_path,
                                           capsys):
        files = {k: toy_files[k] for k in ("captions", "vocab", "features")}
        files["config"] = tmp_path / "retrieve.cfg"
        files["config"].write_text("k_list=1,5\n")
        bad = files[kind]
        raw = bad.read_bytes()
        first_break = raw.index(b"\n") + 1
        # a Latin-1 "cafe" with an acute e on the second line
        bad.write_bytes(raw[:first_break] + b"caf\xe9" + raw[first_break:])
        rc = main(["retrieve", "--checkpoint", str(toy_files["ckpt"]),
                   "--features", str(files["features"]),
                   "--captions", str(files["captions"]),
                   "--vocab", str(files["vocab"]),
                   "--config", str(files["config"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err


def run_cli(argv, capsys):
    """Exit code and stderr of one run, argparse's SystemExit included."""
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    return rc, capsys.readouterr().err


# each command with valid required arguments; "{name}" is a toy_files entry
MODEL_ARGS = ["--checkpoint", "{ckpt}", "--features", "{features}",
              "--vocab", "{vocab}"]
BASE_ARGV = {
    "train": ["train", "--captions", "{captions}", "--features", "{features}",
              "--out-dir", "{dir}/run"],
    "caption": ["caption", *MODEL_ARGS],
    "retrieve": ["retrieve", *MODEL_ARGS, "--captions", "{captions}"],
    "eval-bleu": ["eval-bleu", "--candidates", "{captions}",
                  "--references", "{captions}"],
    "gradcheck": ["gradcheck"],
    "augment-plan": ["augment-plan", "--width", "64", "--height", "64"],
    "dump-gates": ["dump-gates", *MODEL_ARGS, "--out-dir", "{dir}/traces"],
}
COMMAND_KEYS = {
    "train": cli.TRAIN_KEYS, "caption": cli.CAPTION_KEYS,
    "retrieve": cli.RETRIEVE_KEYS, "eval-bleu": cli.EVAL_BLEU_KEYS,
    "gradcheck": cli.GRADCHECK_KEYS, "augment-plan": cli.AUGMENT_KEYS,
    "dump-gates": cli.DUMP_GATES_KEYS,
}
MALFORMED_ARGV = [
    ["gradcheck", "--seed", "abc"],
    ["gradcheck", "--tolerance", "tight"],
    ["gradcheck", "--arch", "nope"],
    ["gradcheck", "--caption-len", "-1"],
    ["gradcheck", "--vocab-size", "2"],
    ["gradcheck", "--vocab-size", "1"],
    [*BASE_ARGV["train"], "--lr", "fast"],
    [*BASE_ARGV["train"], "--batch-size", "2.5"],
    [*BASE_ARGV["train"], "--profile", "huge"],
    [*BASE_ARGV["train"], "--arch", "nope"],
    [*BASE_ARGV["caption"], "--beam", "wide"],
    [*BASE_ARGV["dump-gates"], "--direction", "sideways"],
    [*BASE_ARGV["eval-bleu"], "--max-n", "1.5"],
    ["augment-plan", "--width", "ten", "--height", "5"],
    [*BASE_ARGV["augment-plan"], "--crop", "-5"],
    [*BASE_ARGV["caption"], "--bogus"],
    ["gradcheck", "a\nb"],
    ["retrieve"],
    [],
    ["frobnicate"],
]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv", MALFORMED_ARGV,
        ids=lambda argv: " ".join(a for a in argv if "{" not in a) or "none")
    def test_one_line_exit_2(self, argv, toy_files, capsys):
        rc, err = run_cli([a.format(**toy_files) for a in argv], capsys)
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in COMMAND_KEYS.items()
        for key in keys])
    def test_flag_and_config_value_fail_alike(self, command, key, toy_files,
                                              tmp_path, capsys):
        base = [a.format(**toy_files) for a in BASE_ARGV[command]]
        flag = "--" + key.replace("_", "-")
        rc_flag, err_flag = run_cli(base + [flag, "abc"], capsys)
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key}=abc\n")
        rc_cfg, err_cfg = run_cli(base + ["--config", str(config)], capsys)
        assert rc_flag == rc_cfg == 2
        assert err_flag.count("\n") == err_cfg.count("\n") == 1
        assert key in err_cfg
        # the same message, located by the flag or by the file and line
        assert (err_flag.replace(flag, key)
                == err_cfg.replace(f"{config}:1: ", ""))


FUZZ_KEYS = {"seed": int, "lr": float, "arch": str}
config_lines = st.one_of(
    st.text(max_size=12),
    st.tuples(st.sampled_from(["seed", " lr ", "arch", "#seed", "Seed", ""])
              | st.text(max_size=4),
              st.sampled_from(["=", " = ", "==", ""]),
              st.text(max_size=8) | st.integers().map(str)
              | st.floats().map(str)).map("".join),
)


class TestConfigFileFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(config_lines, max_size=6).map(
               lambda lines: "\n".join(lines).encode("utf-8"))
           | st.binary(max_size=40))
    def test_parses_to_declared_types_or_raises(self, tmp_path, blob):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(blob)
        try:
            cfg = cli._load_config_file(path, FUZZ_KEYS)
        except BicaptionError:
            return
        assert set(cfg) <= set(FUZZ_KEYS)
        for key, value in cfg.items():
            assert type(value) is FUZZ_KEYS[key]


class TestSeedFlag:
    def test_caption_refuses_seed(self, toy_files, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["caption", "--checkpoint", str(toy_files["ckpt"]),
                  "--features", str(toy_files["features"]),
                  "--vocab", str(toy_files["vocab"]), "--seed", "1"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestNumericFailures:
    def test_out_of_memory_is_one_line_exit_2(self, monkeypatch, capsys):
        message = ("Unable to allocate 5.00 TiB for an array with shape "
                   "(400000000000, 1600) and data type float64")

        def allocate(args):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "cmd_augment_plan", allocate)
        rc, err = run_cli(BASE_ARGV["augment-plan"], capsys)
        assert rc == 2
        assert err == f"error: out of memory: {message}\n"

    def test_overflowing_training_reports_only_its_error(self, toy_files,
                                                         capsys):
        # a step that overflows to inf fails on the non-finite gradient it
        # leads to; numpy's warnings on the way there are not printed
        argv = [a.format(**toy_files) for a in BASE_ARGV["train"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = run_cli(argv + ["--lr", "1e308", "--momentum", "0.5"],
                              capsys)
        assert rc == 2
        assert err == "error: non-finite gradient in block fwd.embedding\n"
        assert caught == []

    def test_overflow_in_the_second_thread_reports_only_its_error(
            self, toy_files, capsys, monkeypatch, started_threads):
        # at this width each example's backward direction runs on a second
        # thread, in the command's numpy errstate
        monkeypatch.setattr(train_mod, "_usable_cpus", lambda: 2)
        argv = [a.format(**toy_files) for a in BASE_ARGV["train"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, err = run_cli(argv + ["--lr", "1e308", "--momentum", "0.5",
                                      "--hidden-dim", "192"], capsys)
        assert rc == 2
        assert err == "error: non-finite gradient in block fwd.embedding\n"
        assert caught == []
        assert started_threads


BIG = str(10 ** 30)
OVERSIZED_ARGV = [
    ([*BASE_ARGV["train"], "--hidden-dim", BIG], "fwd.t_lstm.Wx of shape"),
    ([*BASE_ARGV["train"], "--embed-dim", BIG], "fwd.t_lstm.Wx of shape"),
    (["gradcheck", "--hidden-dim", BIG], "fwd.t_lstm.Wx of shape"),
    (["gradcheck", "--vocab-size", BIG], "fwd.embedding of shape"),
    (["gradcheck", "--feature-dim", BIG], "fwd.m_lstm.Wimg of shape"),
    (["gradcheck", "--caption-len", BIG], "caption of shape"),
]


class TestOversizedIntegers:
    """An integer too large for numpy to address is refused by name, in one
    stderr line with exit 2, before any array of that size is made (numpy's
    own refusal would be a ValueError traceback)."""

    @pytest.mark.parametrize("argv, block", OVERSIZED_ARGV, ids=[
        " ".join(a for a in argv if "{" not in a)[:40]
        for argv, _ in OVERSIZED_ARGV])
    def test_model_dims_and_caption_len(self, argv, block, toy_files,
                                        capsys):
        rc, err = run_cli([a.format(**toy_files) for a in argv], capsys)
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: out of memory: {block} (")
        assert err.endswith(") is beyond numpy's addressable size\n")

    @pytest.mark.parametrize("flags, block", [
        (["--hidden-dim", BIG], "fwd.t_lstm.Wx"),
        (["--embed-dim", BIG], "fwd.t_lstm.Wx"),
        (["--hidden-dim", str(2 ** 31), "--embed-dim", "1"], "fwd.t_lstm.Wh")])
    def test_train_refuses_model_dims_before_reading(self, flags, block,
                                                     tmp_path, capsys):
        # the model size, not the missing files, is what the run reports
        missing = str(tmp_path / "missing")
        rc, err = run_cli(["train", "--captions", missing, "--features",
                           missing, "--out-dir", str(tmp_path / "run"),
                           *flags], capsys)
        assert rc == 2
        assert err.startswith(f"error: out of memory: {block} of shape (")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_augment_base(self, capsys):
        rc, err = run_cli([*BASE_ARGV["augment-plan"], "--base",
                           str(10 ** 400)], capsys)
        assert rc == 2
        assert err == "error: base must be at most 1.79769e+308\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        import subprocess
        proc = subprocess.run(
            ["bicaption", "augment-plan", "--width", "64", "--height", "64"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 40
