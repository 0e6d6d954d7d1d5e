"""Vocabulary, corpus/feature ingestion, toy dataset, and augmentation plans.

File formats owned here:
  captions:  UTF-8 lines  image_id<TAB>caption text
  features:  header  BICAP-FEAT 1 <count> <dim>  then  image_id<TAB>f1 f2 ...
             (floats printed with 17 significant digits, round-trip exact)
  vocab:     lines  token<TAB>count ; ids follow line order after the two
             reserved rows (distinct tokens, integer counts, blank lines
             only after the last token)
  augment:   one line per variant  image_id,scale,corner,x,y,w,h,mirror
"""

import math
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, PlanError

BOUNDARY_ID = 0
UNK_ID = 1
BOUNDARY_TOKEN = "BOUNDARY"
UNK_TOKEN = "UNK"

AUGMENT_SCALES = (1.0, 0.925, 0.875, 0.85)
AUGMENT_CORNERS = ("TL", "TR", "BL", "BR", "C")
AUGMENT_MIRRORS = ("none", "vertical")

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase, drop ASCII punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass
class Vocabulary:
    """Dense token<->id bijection with ids 0/1 reserved for BOUNDARY/UNK."""

    token_to_id: dict[str, int]
    id_to_token: dict[int, str]
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, text: str) -> list[int]:
        return [self.encode_token(t) for t in tokenize(text)]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def _reserved_maps() -> tuple[dict, dict]:
    t2i = {BOUNDARY_TOKEN: BOUNDARY_ID, UNK_TOKEN: UNK_ID}
    i2t = {BOUNDARY_ID: BOUNDARY_TOKEN, UNK_ID: UNK_TOKEN}
    return t2i, i2t


def build_vocab(captions, min_count: int = 5) -> Vocabulary:
    """Count tokens over (image_id, text) pairs and keep those occurring at
    least min_count times. Ids are assigned by descending count, ties broken
    lexicographically, after the two reserved ids."""
    counts: dict[str, int] = {}
    saw_any = False
    for _, text in captions:
        saw_any = True
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    if not saw_any:
        raise DataError("empty caption corpus")

    kept = sorted((tok for tok, n in counts.items() if n >= min_count),
                  key=lambda tok: (-counts[tok], tok))
    token_to_id, id_to_token = _reserved_maps()
    for offset, tok in enumerate(kept):
        token_to_id[tok] = 2 + offset
        id_to_token[2 + offset] = tok
    return Vocabulary(token_to_id, id_to_token, counts)


@dataclass
class CaptionedExample:
    """One training record: image id, its feature vector, and the caption
    token ids in natural order (no boundary tokens stored)."""

    image_id: str
    feature: np.ndarray
    tokens: list[int]


def encode_example(vocab: Vocabulary, image_id: str, text: str,
                   feature: np.ndarray) -> CaptionedExample:
    toks = vocab.encode(text)
    if not toks:
        raise DataError(f"caption for {image_id!r} has no tokens after tokenization")
    return CaptionedExample(image_id=image_id, feature=feature, tokens=toks)


def assemble_examples(vocab: Vocabulary, captions,
                      features: dict[str, np.ndarray]) -> list[CaptionedExample]:
    """Join captions with features by image id, preserving caption order."""
    out = []
    for image_id, text in captions:
        if image_id not in features:
            raise DataError(f"no feature vector for image {image_id!r}")
        out.append(encode_example(vocab, image_id, text, features[image_id]))
    return out


# ---------------------------------------------------------------------------
# augmentation plans (geometry only; pixel work happens downstream)
# ---------------------------------------------------------------------------

@dataclass
class CropVariant:
    scale: float
    corner: str
    x: int
    y: int
    w: int
    h: int
    mirror: str


def augment_plan(image_w: int, image_h: int, base: int = 256,
                 crop: int = 227, crop_small: int = 196) -> list[CropVariant]:
    """Five fixed crops x four scales x two mirrors = 40 variants.

    The image is treated as resized to base x base; each scale shrinks the
    region side to floor(s * base). Full-scale crops use `crop`; sub-scale
    crops use `crop_small` because `crop` does not fit inside the shrunken
    region at the default sizes. Infeasible sizes raise PlanError instead of
    being clamped.
    """
    if image_w < 1 or image_h < 1:
        raise PlanError(f"image dims must be >= 1, got {image_w}x{image_h}")
    if min(base, crop, crop_small) < 1:
        raise PlanError(f"base, crop and crop_small must be >= 1, "
                        f"got {base}, {crop}, {crop_small}")
    if crop > base:
        raise PlanError(f"crop {crop} exceeds base size {base}")

    variants = []
    for s in AUGMENT_SCALES:
        side = math.floor(s * base)
        c = crop if s == 1.0 else crop_small
        if c > side:
            raise PlanError(
                f"crop {c} does not fit scale {s} (region side {side})"
            )
        centre = (side - c) // 2
        origins = {
            "TL": (0, 0),
            "TR": (side - c, 0),
            "BL": (0, side - c),
            "BR": (side - c, side - c),
            "C": (centre, centre),
        }
        for corner in AUGMENT_CORNERS:
            x, y = origins[corner]
            for mirror in AUGMENT_MIRRORS:
                variants.append(CropVariant(scale=s, corner=corner, x=x, y=y,
                                            w=c, h=c, mirror=mirror))
    return variants


def augment_plan_lines(image_id: str, plan) -> list[str]:
    return [
        f"{image_id},{v.scale:g},{v.corner},{v.x},{v.y},{v.w},{v.h},{v.mirror}"
        for v in plan
    ]


# ---------------------------------------------------------------------------
# synthetic toy corpus
# ---------------------------------------------------------------------------

TOY_MIN_LEN = 3
TOY_MAX_LEN = 6


def make_toy_dataset(n_images: int, vocab_k: int, feat_dim: int,
                     seed: int = 0) -> tuple[Vocabulary, list[CaptionedExample]]:
    """Deterministic learnable toy set: every image gets a distinct caption
    of 3..6 word ids, and its feature vector spells the caption out directly
    (slot 0 holds the scaled length, slot 1+j the scaled j-th token id,
    -1.5 in unused slots), so distinct captions always get feature vectors
    separated by at least 0.1 in some coordinate."""
    if vocab_k < 4:
        raise ConfigError(f"toy vocab needs at least 4 ids, got {vocab_k}")
    if feat_dim < 1 + TOY_MAX_LEN:
        raise ConfigError(
            f"toy features need {1 + TOY_MAX_LEN} slots (length plus one per "
            f"caption position), got {feat_dim}"
        )
    max_distinct = sum((vocab_k - 2) ** n
                       for n in range(TOY_MIN_LEN, TOY_MAX_LEN + 1))
    if n_images > max_distinct:
        raise ConfigError(
            f"only {max_distinct} distinct captions exist for vocab {vocab_k}"
        )

    token_to_id, id_to_token = _reserved_maps()
    for i in range(2, vocab_k):
        word = f"w{i:02d}"
        token_to_id[word] = i
        id_to_token[i] = word

    # adjacent token ids sit exactly 0.1 apart in their slot, and lengths
    # 0.667 apart in slot 0, so any two distinct captions are separated
    mid = (2 + vocab_k - 1) / 2.0
    token_step = 0.1
    mid_len = (TOY_MIN_LEN + TOY_MAX_LEN) / 2.0

    rng = np.random.default_rng(seed)
    seen: set[tuple] = set()
    examples = []
    counts: dict[str, int] = {}
    for idx in range(n_images):
        while True:
            length = int(rng.integers(TOY_MIN_LEN, TOY_MAX_LEN + 1))
            toks = tuple(int(t) for t in rng.integers(2, vocab_k, size=length))
            if toks not in seen:
                seen.add(toks)
                break
        feature = np.full(feat_dim, -1.5)
        feature[0] = (length - mid_len) / (mid_len - TOY_MIN_LEN)
        for j, t in enumerate(toks):
            feature[1 + j] = (t - mid) * token_step
        examples.append(CaptionedExample(
            image_id=f"img{idx:03d}", feature=feature, tokens=list(toks)))
        for t in toks:
            word = id_to_token[t]
            counts[word] = counts.get(word, 0) + 1

    return Vocabulary(token_to_id, id_to_token, counts), examples


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def text_lines(path):
    """Yield the lines of a UTF-8 text file; a file that is not UTF-8
    raises a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def read_captions(path) -> list[tuple[str, str]]:
    out = []
    for lineno, line in enumerate(text_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected image_id<TAB>caption")
        image_id, text = line.split("\t", 1)
        out.append((image_id, text))
    if not out:
        raise DataError(f"{path}: no captions")
    return out


def write_captions(path, captions) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, text in captions:
            fh.write(f"{image_id}\t{text}\n")


FEATURE_MAGIC = "BICAP-FEAT"
FEATURE_VERSION = 1


def read_features(path) -> dict[str, np.ndarray]:
    """Parse a feature file into an ordered image_id -> vector map."""
    lines = text_lines(path)
    header = next(lines, "").split()
    if (len(header) != 4 or header[0] != FEATURE_MAGIC
            or header[1] != str(FEATURE_VERSION)
            or not all(n.isascii() and n.isdigit() for n in header[2:])):
        raise DataError(f"{path}: bad feature header")
    try:
        count, dim = int(header[2]), int(header[3])
    except ValueError:  # more digits than int() converts
        raise DataError(f"{path}: bad feature header") from None
    out: dict[str, np.ndarray] = {}
    for lineno in range(2, count + 2):
        line = next(lines, "")
        if not line:
            raise DataError(f"{path}: expected {count} rows, found {lineno - 2}")
        image_id, _, values = line.rstrip("\n").partition("\t")
        if image_id in out:
            raise DataError(f"{path}:{lineno}: repeated image id {image_id!r}")
        try:
            vec = np.array([float(v) for v in values.split()])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric feature value") from None
        if vec.shape[0] != dim:
            raise DataError(
                f"{path}:{lineno}: row has {vec.shape[0]} values, header says {dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        out[image_id] = vec
    for lineno, line in enumerate(lines, count + 2):
        if line.strip():
            raise DataError(f"{path}:{lineno}: row past the header's count {count}")
    if not out:
        raise DataError(f"{path}: no feature rows")
    return out


def write_features(path, features: dict[str, np.ndarray]) -> None:
    """Write an image_id -> vector map that `read_features` reads back
    exactly. What it would refuse is refused first, with a DataError,
    before the file is opened: an empty map, vectors that are not 1-D or
    not all of one length, non-finite values, and image ids that are not
    strings or hold a tab or a line break."""
    items = list(features.items())
    if not items:
        raise DataError(f"{path}: no feature rows to write")
    shape = np.shape(items[0][1])
    for image_id, vec in items:
        if (not isinstance(image_id, str) or "\t" in image_id
                or "\n" in image_id or "\r" in image_id):
            raise DataError(f"{path}: image id {image_id!r} is not a string "
                            f"free of tabs and line breaks")
        if np.ndim(vec) != 1 or np.shape(vec) != shape:
            raise DataError(f"{path}: image {image_id!r} has a feature of "
                            f"shape {np.shape(vec)}; features are vectors "
                            f"of one length, the first's {shape}")
        if not np.all(np.isfinite(vec)):
            raise DataError(f"{path}: image {image_id!r} has a non-finite "
                            f"feature value")
    dim = shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FEATURE_MAGIC} {FEATURE_VERSION} {len(items)} {dim}\n")
        for image_id, vec in items:
            text = " ".join(format(v, ".17g") for v in vec)
            fh.write(f"{image_id}\t{text}\n")


def read_vocab(path) -> Vocabulary:
    """Ids follow line order; blank lines may only trail the last token."""
    token_to_id: dict[str, int] = {}
    id_to_token: dict[int, str] = {}
    counts: dict[str, int] = {}
    blank = None
    for lineno, line in enumerate(text_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            blank = blank or lineno
            continue
        if blank:
            raise DataError(f"{path}:{blank}: blank line before the last token")
        tok, _, count = line.partition("\t")
        if tok in token_to_id:
            raise DataError(f"{path}:{lineno}: repeated token {tok!r}")
        try:
            counts[tok] = int(count) if count else 0
        except ValueError:
            raise DataError(f"{path}:{lineno}: count {count!r} is not an integer") from None
        idx = len(token_to_id)
        token_to_id[tok] = idx
        id_to_token[idx] = tok
    if token_to_id.get(BOUNDARY_TOKEN) != BOUNDARY_ID or token_to_id.get(UNK_TOKEN) != UNK_ID:
        raise DataError(f"{path}: reserved rows missing or out of order")
    return Vocabulary(token_to_id, id_to_token, counts)


def write_vocab(path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(vocab.size):
            tok = vocab.id_to_token[i]
            count = 0 if i < 2 else vocab.counts.get(tok, 0)
            fh.write(f"{tok}\t{count}\n")
