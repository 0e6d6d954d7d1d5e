"""Flat binary checkpoint format (owned by the CLI layer).

Layout, all integers little-endian:

    magic   6 bytes  b"BICAP1"
    version u32      2. Version 1 held each M-LSTM's Wx and Wimg as one block
                     of the same bytes (`model.merged_layout`); it still loads,
                     as column views of that block, not C-contiguous
    arch    u8       0 = bi-lstm, 1 = bi-s-lstm, 2 = bi-f-lstm
    dims    7 x u32  vocab, feature, embed, hidden, then the three
                     transition widths (rows of U, V, W; 0 when absent)
    blocks  float64 row-major bytes, declared block order
    digest  8 bytes  blake2b-64 of everything above

load(save(model)) reproduces the model bitwise. A load checks the payload
size the header implies before it builds any block. A save writes a temp file
beside the target and renames it over the target, so a save that fails
leaves any earlier checkpoint whole.

Memory: a save holds the model plus the blob, which is the one copy made of
the blocks. A load holds one copy of the blocks: the file is read once into
a buffer placed so that the blocks start on a 64-byte boundary, and every
block of the loaded model is a view of that buffer.
"""

import contextlib
import hashlib
import math
import os
import struct

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import ArchitectureKind, CaptionModel, block_shapes, merged_layout
from .numcore import all_finite

MAGIC = b"BICAP1"
VERSION = 2

_ARCH_CODES = {
    ArchitectureKind.BI_LSTM: 0,
    ArchitectureKind.BI_S_LSTM: 1,
    ArchitectureKind.BI_F_LSTM: 2,
}
_CODE_ARCHS = {code: arch for arch, code in _ARCH_CODES.items()}

_HEADER = struct.Struct("<IB7I")
# the blocks start here, after the magic and the header
_PAYLOAD_AT = len(MAGIC) + _HEADER.size
# a loaded file's blocks start on this boundary in memory
_ALIGN = 64


def _digest(*parts) -> bytes:
    """blake2b-64 of the parts' bytes, in order."""
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(part)
    return digest.digest()


def serialize_model(m: CaptionModel) -> bytes:
    """The checkpoint as bytes. The blocks are hashed and joined straight
    from their arrays, so the blob is the only copy made of them."""
    header = MAGIC + _HEADER.pack(
        VERSION, _ARCH_CODES[m.arch], m.vocab_size, m.feature_dim,
        m.embed_dim, m.hidden_dim, *m.transition_widths)
    blocks = [np.ascontiguousarray(arr, dtype="<f8") for _, arr in m.blocks()]
    return b"".join([header, *blocks, _digest(header, *blocks)])


def deserialize_model(blob) -> CaptionModel:
    """The model a checkpoint's bytes hold. The digest, the header and the
    size it implies, and every block's values are checked before any model
    exists. A writeable blob whose blocks lie float64-aligned, on a
    little-endian host, becomes the model's storage: each block is a view
    of it, so the caller must not reuse the blob. Any other blob (`bytes`,
    a misaligned buffer, a big-endian host) is copied, in one array."""
    if len(blob) < _PAYLOAD_AT + 8:
        raise CheckpointError("checkpoint truncated")
    payload = memoryview(blob)[:-8]  # a view, no copy
    digest = bytes(blob[-8:])
    if _digest(payload) != digest:
        raise CheckpointError("checkpoint checksum mismatch")
    if payload[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    (version, arch_code, vocab, feat, embed, hidden,
     wu, wv, ww) = _HEADER.unpack_from(payload, len(MAGIC))
    if version not in (1, VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if arch_code not in _CODE_ARCHS:
        raise CheckpointError(f"unknown architecture code {arch_code}")
    arch = _CODE_ARCHS[arch_code]

    bif_widths = (wu, wv, ww) if arch == ArchitectureKind.BI_F_LSTM else None
    try:
        shapes = block_shapes(arch, vocab, feat, embed, hidden, bif_widths)
    except ConfigError as e:
        raise CheckpointError(f"bad checkpoint header: {e}") from None
    # the size the header implies, in exact integers, before anything is built
    size = _PAYLOAD_AT + 8 * sum(math.prod(shape) for _, shape in shapes) + 8
    if size != len(blob):
        raise CheckpointError(
            f"checkpoint is {len(blob)} bytes, its header implies {size}")

    layout = merged_layout(shapes) if version == 1 else [
        (shape, [(name, ...)]) for name, shape in shapes]
    values = np.frombuffer(payload, dtype="<f8", offset=_PAYLOAD_AT)
    if not (values.flags.writeable and values.flags.aligned
            and values.dtype.isnative):  # copied: blocks are updated in place
        values = values.astype(np.float64)
    params, offset = {}, 0
    for shape, parts in layout:
        block = values[offset:offset + math.prod(shape)].reshape(shape)
        if not all_finite(block):
            raise CheckpointError(f"non-finite values in block {parts[0][0]}")
        params.update((name, block[index]) for name, index in parts)
        offset += block.size
    return CaptionModel(arch, params)


def save_checkpoint(m: CaptionModel, path) -> None:
    blob = serialize_model(m)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CaptionModel:
    """The model saved at `path`. The file is read once, into a buffer that
    `deserialize_model` adopts as the model's storage; a file that yields
    fewer bytes than its size is refused."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + _ALIGN, np.uint8)  # readinto fills it
        # the offset in buf that puts the blocks on an _ALIGN boundary
        start = -(buf.ctypes.data + _PAYLOAD_AT) % _ALIGN
        blob = memoryview(buf)[start:start + size]
        got = 0
        while got < size and (n := fh.readinto(blob[got:])):
            got += n
    if got < size:
        raise CheckpointError(
            f"checkpoint truncated: read {got} of {size} bytes")
    return deserialize_model(blob)
