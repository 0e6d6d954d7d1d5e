"""Command-line entry point.

Commands: train, caption, retrieve, eval-bleu, gradcheck, augment-plan,
dump-gates. Each command's *_KEYS table declares its options once: every
key is both a flag (`--` + key, `_` as `-`) and a key of the key=value
file that --config reads, and both are converted by the same code.
Explicit flags win over config values. Every error, a malformed argument
or running out of memory included, exits nonzero with one diagnostic line
on stderr (3 for shape mismatches, else 2). numpy's floating-point
warnings are off, so a numeric failure shows only as the error it leads to.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import infer, metrics
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import BicaptionError, ConfigError, DataError, ShapeError
from .model import (ArchitectureKind, BACKWARD, FORWARD, check_addressable,
                    check_dims, init_model, random_model)
from .train import TrainConfig, grad_check, make_state, train_epochs

ARCH_BY_NAME = {a.value: a for a in ArchitectureKind}

PROFILES = {
    "toy": dict(hidden_dim=16, min_count=1, batch_size=2, max_epochs=30,
                patience=5),
    "paper": dict(hidden_dim=1000, min_count=5, batch_size=100, max_epochs=35,
                  patience=5),
}


def _convert(where, kind, value):
    """A flag or config value as its key's type; `where` names it in the
    one-line error."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"{where} needs a {kind.__name__} value, got {value!r}") from None


def _load_config_file(path, keys: dict) -> dict:
    """Parse key=value lines into values of each key's type."""
    cfg: dict = {}
    for lineno, line in enumerate(data_mod.text_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        cfg[key] = _convert(f"{path}:{lineno}: {key}", keys[key], value)
    return cfg


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _options(args, keys: dict) -> dict:
    """The values set by flag or config file (flags win), each converted to
    its key's type before the command starts; commands `.get` a default."""
    flags = {key: _convert(_flag(key), kind, getattr(args, key))
             for key, kind in keys.items() if getattr(args, key) is not None}
    cfg = _load_config_file(args.config, keys) if args.config else {}
    return {**cfg, **flags}


def _parse_arch(name: str) -> ArchitectureKind:
    if name not in ARCH_BY_NAME:
        raise ConfigError(
            f"unknown architecture {name!r}; choose from {sorted(ARCH_BY_NAME)}"
        )
    return ARCH_BY_NAME[name]


def _check_feature_dims(path, features: dict, dim: int, source) -> None:
    """Refuse the first feature of file `path` whose dim is not `dim`."""
    for image_id, vec in features.items():
        if vec.shape[0] != dim:
            raise ShapeError(f"{path}: feature for {image_id!r} has dim "
                             f"{vec.shape[0]}, {source} expects {dim}")


def _load_model_inputs(args):
    """The checkpoint, its vocab (None without --vocab) and the features,
    with the vocab size and every feature's dim checked against it."""
    m = load_checkpoint(args.checkpoint)
    vocab = None
    if args.vocab:
        vocab = data_mod.read_vocab(args.vocab)
        if vocab.size != m.vocab_size:
            raise DataError(f"{args.vocab}: vocab has {vocab.size} words, "
                            f"checkpoint has {m.vocab_size}")
    features = data_mod.read_features(args.features)
    _check_feature_dims(args.features, features, m.feature_dim, "checkpoint")
    return m, vocab, features


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_KEYS = {
    "arch": str, "profile": str, "seed": int, "hidden_dim": int,
    "embed_dim": int, "min_count": int, "lr": float, "momentum": float,
    "weight_decay": float, "batch_size": int, "max_epochs": int,
    "patience": int, "grad_clip": float,
}


def cmd_train(args) -> int:
    opt = _options(args, TRAIN_KEYS)
    profile_name = opt.get("profile", "toy")
    profile = PROFILES.get(profile_name)
    if profile is None:
        raise ConfigError(f"unknown profile {profile_name!r}")
    arch = _parse_arch(opt.get("arch", "bi-lstm"))
    patience = opt.get("patience", profile["patience"])
    cfg = TrainConfig(
        learning_rate=opt.get("lr", 0.01),
        momentum=opt.get("momentum", 0.9),
        weight_decay=opt.get("weight_decay", 0.0005),
        batch_size=opt.get("batch_size", profile["batch_size"]),
        max_epochs=opt.get("max_epochs", profile["max_epochs"]),
        early_stop_patience=None if patience < 0 else patience,
        grad_clip=opt.get("grad_clip"),
        seed=opt.get("seed", 0),
    )
    cfg.validate()  # before anything is read or written
    hidden_dim = opt.get("hidden_dim", profile["hidden_dim"])
    embed_dim = opt.get("embed_dim", hidden_dim)
    check_dims(hidden_dim=hidden_dim, embed_dim=embed_dim)
    # the blocks these two alone size, refused before any file is read
    check_addressable("fwd.t_lstm.Wx", (4 * hidden_dim, embed_dim))
    check_addressable("fwd.t_lstm.Wh", (4 * hidden_dim, hidden_dim))

    if args.val_features and not args.val_captions:
        raise ConfigError("--val-features needs --val-captions")
    captions = data_mod.read_captions(args.captions)
    features = data_mod.read_features(args.features)
    feature_dim = next(iter(features.values())).shape[0]  # the header's
    val_captions, val_features = captions, features
    if args.val_captions:
        val_captions = data_mod.read_captions(args.val_captions)
    if args.val_features:
        val_features = data_mod.read_features(args.val_features)
        _check_feature_dims(args.val_features, val_features, feature_dim,
                            args.features)

    min_count = opt.get("min_count", profile["min_count"])
    vocab = data_mod.build_vocab(captions, min_count=min_count)
    train_set = data_mod.assemble_examples(vocab, captions, features)
    val_set = data_mod.assemble_examples(vocab, val_captions, val_features)

    model = init_model(arch, vocab.size, feature_dim, embed_dim, hidden_dim,
                       seed=cfg.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.tsv"
    with open(log_path, "w", encoding="utf-8") as log:
        def hook(epoch, train_loss, val_loss):
            if epoch:  # epoch 0 is the untrained baseline: logged only
                print(f"epoch {epoch} train_loss {train_loss:.6f} "
                      f"val_loss {val_loss:.6f}")
            log.write(f"{epoch}\t{train_loss:.17g}\t{val_loss:.17g}\n")

        state = train_epochs(make_state(model), train_set, val_set, cfg,
                             epoch_hook=hook)

    save_checkpoint(state.model, out_dir / "model.ckpt")
    data_mod.write_vocab(out_dir / "vocab.txt", vocab)
    print(f"saved checkpoint to {out_dir / 'model.ckpt'} "
          f"(best val loss {state.best_val_loss:.6f})")
    return 0


# ---------------------------------------------------------------------------
# caption
# ---------------------------------------------------------------------------

CAPTION_KEYS = {"beam": int, "max_len": int}


def cmd_caption(args) -> int:
    opt = _options(args, CAPTION_KEYS)
    beam_k = opt.get("beam", 1)
    max_len = opt.get("max_len", 50)
    m, vocab, features = _load_model_inputs(args)
    for image_id, feature in features.items():
        hf = infer.decode_direction(m, FORWARD, feature, beam_k=beam_k,
                                    max_len=max_len)
        hb = infer.decode_direction(m, BACKWARD, feature, beam_k=beam_k,
                                    max_len=max_len)
        sel = infer.select_final_caption(hf, hb)
        text = " ".join(vocab.decode(sel.caption))
        print(f"{image_id}\t{sel.chosen}\t{hf.logprob_sum:.6f}"
              f"\t{hb.logprob_sum:.6f}\t{text}")
    return 0


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------

RETRIEVE_KEYS = {"k_list": str}


def cmd_retrieve(args) -> int:
    opt = _options(args, RETRIEVE_KEYS)
    k_text = opt.get("k_list", "1,5,10")
    try:
        k_list = [int(k) for k in k_text.split(",")]
    except ValueError:
        raise ConfigError(
            f"k_list needs comma-separated integers, got {k_text!r}") from None
    m, vocab, features = _load_model_inputs(args)
    captions = data_mod.read_captions(args.captions)

    image_ids = list(dict.fromkeys(image_id for image_id, _ in captions))
    for image_id in image_ids:
        if image_id not in features:
            raise DataError(f"no feature vector for image {image_id!r}")

    sentences = []
    ground_truth: dict[int, set[int]] = {i: set() for i in range(len(image_ids))}
    row_of = {image_id: i for i, image_id in enumerate(image_ids)}
    for j, (image_id, text) in enumerate(captions):
        tokens = vocab.encode(text)
        if not tokens:
            raise DataError(f"caption {j} for {image_id!r} has no tokens")
        sentences.append((f"s{j}", tokens))
        ground_truth[row_of[image_id]].add(j)

    k_max = min(len(image_ids), len(sentences))  # both query directions
    for k in k_list:
        if not 1 <= k <= k_max:
            raise ConfigError(f"k={k} outside 1..{k_max}")
    sm = metrics.build_score_matrix(
        m, [(i, features[i]) for i in image_ids], sentences)
    if args.matrix_out:
        metrics.write_score_matrix(sm, args.matrix_out)

    for direction in (metrics.IMAGE_TO_SENTENCE, metrics.SENTENCE_TO_IMAGE):
        # one ranking per direction, reduced as recall_at_k and median_rank do
        ranks = metrics.query_ranks(sm, ground_truth, direction)
        for k in k_list:
            recall = 100.0 * np.count_nonzero(ranks <= k) / len(ranks)
            print(f"{direction}_R@{k},{recall:.6f}")
        print(f"{direction}_Med_r,{float(np.median(ranks)):.6f}")
    return 0


# ---------------------------------------------------------------------------
# eval-bleu
# ---------------------------------------------------------------------------

EVAL_BLEU_KEYS = {"max_n": int}


def cmd_eval_bleu(args) -> int:
    opt = _options(args, EVAL_BLEU_KEYS)
    max_n = opt.get("max_n", 4)
    if not 1 <= max_n <= 4:
        raise ConfigError(f"max_n must be in 1..4, got {max_n}")
    candidates = data_mod.read_captions(args.candidates)
    references = data_mod.read_captions(args.references)
    refs_by_image: dict[str, list[list[str]]] = {}
    for image_id, text in references:
        refs_by_image.setdefault(image_id, []).append(data_mod.tokenize(text))

    pairs = []
    for image_id, text in candidates:
        refs = refs_by_image.get(image_id)
        if not refs:
            raise DataError(f"no references for image {image_id!r}")
        pairs.append((data_mod.tokenize(text), refs))

    for n in range(1, max_n + 1):
        report = metrics.corpus_bleu_n(pairs, n)
        print(f"BLEU-{n},{report.score:.6f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

GRADCHECK_KEYS = {
    "arch": str, "vocab_size": int, "feature_dim": int, "embed_dim": int,
    "hidden_dim": int, "caption_len": int, "seed": int, "tolerance": float,
    "epsilon": float,
}


def cmd_gradcheck(args) -> int:
    opt = _options(args, GRADCHECK_KEYS)
    arch = _parse_arch(opt.get("arch", "bi-lstm"))
    vocab_size = opt.get("vocab_size", 7)
    feature_dim = opt.get("feature_dim", 3)
    embed_dim = opt.get("embed_dim", 4)
    hidden_dim = opt.get("hidden_dim", 5)
    caption_len = opt.get("caption_len", 3)
    seed = opt.get("seed", 0)
    tolerance = opt.get("tolerance", 1e-5)
    epsilon = opt.get("epsilon", 1e-6)
    # ids 0 and 1 are reserved, so the caption draws from 2..vocab_size-1
    if vocab_size < 3:
        raise ConfigError(f"vocab_size must be >= 3, got {vocab_size}")
    if caption_len < 1:
        raise ConfigError(f"caption_len must be >= 1, got {caption_len}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    check_addressable("caption", (caption_len,))

    # unit-scale weights keep every block resolvable by central differences
    m = random_model(arch, vocab_size, feature_dim, embed_dim, hidden_dim,
                     seed=seed)
    rng = np.random.default_rng([seed, 1])
    tokens = [int(t) for t in rng.integers(2, vocab_size, size=caption_len)]
    feature = rng.uniform(-0.5, 0.5, size=feature_dim)
    ex = data_mod.CaptionedExample(image_id="gradcheck", feature=feature,
                                   tokens=tokens)
    report = grad_check(m, ex, epsilon=epsilon, tolerance=tolerance)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# augment-plan
# ---------------------------------------------------------------------------

AUGMENT_KEYS = {"base": int, "crop": int, "crop_small": int}


def cmd_augment_plan(args) -> int:
    opt = _options(args, AUGMENT_KEYS)
    base = opt.get("base", 256)
    crop = opt.get("crop", 227)
    crop_small = opt.get("crop_small", 196)

    if args.dims_file:
        entries = []
        for lineno, line in enumerate(data_mod.text_lines(args.dims_file), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(
                    f"{args.dims_file}:{lineno}: expected image_id<TAB>w<TAB>h"
                )
            try:
                entries.append((parts[0], int(parts[1]), int(parts[2])))
            except ValueError:
                raise DataError(f"{args.dims_file}:{lineno}: width and "
                                "height must be integers") from None
    else:
        if args.width is None or args.height is None:
            raise ConfigError("augment-plan needs --dims-file or --width/--height")
        entries = [(args.image_id, args.width, args.height)]

    for image_id, w, h in entries:
        plan = data_mod.augment_plan(w, h, base=base, crop=crop,
                                     crop_small=crop_small)
        for line in data_mod.augment_plan_lines(image_id, plan):
            print(line)
    return 0


# ---------------------------------------------------------------------------
# dump-gates
# ---------------------------------------------------------------------------

DUMP_GATES_KEYS = {"direction": str, "max_len": int}


def cmd_dump_gates(args) -> int:
    opt = _options(args, DUMP_GATES_KEYS)
    direction = opt.get("direction", FORWARD)
    if direction not in (FORWARD, BACKWARD):
        raise ConfigError(f"direction must be forward or backward, got {direction!r}")
    max_len = opt.get("max_len", 50)
    m, vocab, features = _load_model_inputs(args)

    out_dir = Path(args.out_dir)
    for image_id, feature in features.items():
        trace = infer.dump_gate_trace(m, feature, direction, max_len=max_len,
                                      vocab=vocab)
        # only now: a refused trace leaves no directory behind
        out_dir.mkdir(parents=True, exist_ok=True)
        infer.write_gate_trace(
            trace,
            out_dir / f"{image_id}.{direction}.gates.csv",
            out_dir / f"{image_id}.{direction}.words.csv",
        )
        print(f"{image_id}\t{len(trace.t_trace)} steps")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class ArgumentParser(argparse.ArgumentParser):
    """argparse with the CLI's error contract: one stderr line, exit 2.
    Subparsers are made from this class too."""

    def error(self, message):
        # an unrecognized argument is quoted raw and may hold a newline
        message = " ".join(message.splitlines())
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="bicaption",
        description="Bidirectional multimodal LSTM captioning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, keys, help):
        """A subcommand with --config and one untyped flag per key; each
        value is converted and checked by _options, as config values are."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key=value file; flags win on conflict")
        for key, kind in keys.items():
            p.add_argument(_flag(key), metavar=kind.__name__.upper())
        p.set_defaults(func=func)
        return p

    p = command("train", cmd_train, TRAIN_KEYS,
                "train a model and write a checkpoint")
    p.add_argument("--captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--val-captions")
    p.add_argument("--val-features")
    p.add_argument("--out-dir", required=True)

    p = command("caption", cmd_caption, CAPTION_KEYS,
                "generate captions for feature vectors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)

    p = command("retrieve", cmd_retrieve, RETRIEVE_KEYS,
                "image/sentence retrieval metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--captions", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--matrix-out")

    p = command("eval-bleu", cmd_eval_bleu, EVAL_BLEU_KEYS,
                "corpus BLEU of candidates vs references")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)

    command("gradcheck", cmd_gradcheck, GRADCHECK_KEYS,
            "finite-difference gradient check")

    p = command("augment-plan", cmd_augment_plan, AUGMENT_KEYS,
                "emit crop/scale/mirror variants")
    p.add_argument("--dims-file")
    p.add_argument("--image-id", default="image")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)

    p = command("dump-gates", cmd_dump_gates, DUMP_GATES_KEYS,
                "export gate/cell state traces")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab")
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except MemoryError as e:
        print(f"error: out of memory: {e or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        name = e.filename if e.filename else e
        print(f"error: file not found: {name}", file=sys.stderr)
        return 2
    except OSError as e:
        where = f"{e.filename}: " if e.filename else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 2
    except ShapeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except BicaptionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
