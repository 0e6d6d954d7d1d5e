import errno
import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicaption.checkpoint as checkpoint_mod
from bicaption.checkpoint import (deserialize_model, load_checkpoint,
                                  save_checkpoint, serialize_model)
from bicaption.cli import main
from bicaption.data import make_toy_dataset, write_features, write_vocab
from bicaption.errors import BicaptionError, CheckpointError, TrainingError
from bicaption.model import (ArchitectureKind, CaptionModel, block_shapes,
                             init_model, random_model)
from bicaption.train import TrainConfig, make_state, sgd_step, train_epochs

# magic, then version u32, arch u8 and seven u32 dimensions
HEADER = struct.Struct("<IB7I")
HEADER_AT = len(b"BICAP1")
PAYLOAD_AT = HEADER_AT + HEADER.size  # where the blocks start


def resealed(blob: bytes, fields=None, extra: int = 0) -> bytes:
    """blob with its header fields replaced by `fields`, its payload cut or
    zero-padded by `extra` bytes, and a valid digest again, so the checks
    after the digest see the change."""
    payload = bytearray(blob[:-8])
    if fields is not None:
        HEADER.pack_into(payload, HEADER_AT, *fields)
    payload = (payload[:len(payload) + extra] if extra < 0
               else payload + bytes(extra))
    return bytes(payload) + hashlib.blake2b(payload, digest_size=8).digest()


def v1_blob(m) -> bytes:
    """m's checkpoint in the version-1 layout, where each M-LSTM's Wx and
    Wimg are one block, joined by columns at Wx's place."""
    fields = list(HEADER.unpack_from(serialize_model(m), HEADER_AT))
    blocks = []
    for name, arr in m.blocks():
        if name.endswith(".m_lstm.Wimg"):
            blocks[-1] = np.hstack([blocks[-1], arr])
        else:
            blocks.append(arr)
    payload = (b"BICAP1" + HEADER.pack(1, *fields[1:])
               + b"".join(np.ascontiguousarray(b, "<f8").tobytes()
                          for b in blocks))
    return payload + hashlib.blake2b(payload, digest_size=8).digest()


def placed(blob: bytes, past: int) -> memoryview:
    """blob in a writeable buffer of its own, placed so that its blocks
    start `past` bytes after a float64 boundary."""
    buf = bytearray(len(blob) + 8)
    address = np.frombuffer(buf, np.uint8).ctypes.data
    start = (past - address - PAYLOAD_AT) % 8
    view = memoryview(buf)[start:start + len(blob)]
    view[:] = blob
    return view


def assert_models_equal(a, b):
    assert a.arch == b.arch
    assert (a.vocab_size, a.feature_dim, a.embed_dim, a.hidden_dim) == \
        (b.vocab_size, b.feature_dim, b.embed_dim, b.hidden_dim)
    for (na, aa), (nb, ab) in zip(a.blocks(), b.blocks()):
        assert na == nb
        np.testing.assert_array_equal(aa, ab)


class TestRoundTrip:
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_bitwise_round_trip(self, arch, tmp_path):
        m = random_model(arch, 9, 4, 5, 6, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert_models_equal(m, back)
        for _, arr in back.blocks():  # training updates them in place
            assert arr.dtype == np.float64
            assert arr.flags.writeable and arr.flags.c_contiguous

    @pytest.mark.parametrize("arch, widths, digest", [
        (ArchitectureKind.BI_LSTM, None, "c48f64ec4cd1f41c3f5145f4735fc49d"),
        (ArchitectureKind.BI_S_LSTM, None, "29351ef1f4ac7a9860bb5ddd68474c5a"),
        (ArchitectureKind.BI_F_LSTM, None, "60526990778a1faebd4b193ccc2aff66"),
        (ArchitectureKind.BI_F_LSTM, (3, 2, 4),
         "bd0cb7c6c607d9c02a1f31b516e7e721"),
    ])
    def test_pinned_bytes(self, arch, widths, digest):
        # the init's draw and the version-1 layout, fixed: these are the
        # digests of the files that version 1 wrote
        m = init_model(arch, 20, 7, 5, 6, seed=3, bif_widths=widths)
        blob = v1_blob(m)
        assert hashlib.blake2b(blob, digest_size=16).hexdigest() == digest

    @pytest.mark.parametrize("arch, widths, digest", [
        (ArchitectureKind.BI_LSTM, None, "95fd421636aa6a5b247ccfaffdf9c5fb"),
        (ArchitectureKind.BI_S_LSTM, None, "b1d9b4157d5042b06cc534d4ab6b3cc6"),
        (ArchitectureKind.BI_F_LSTM, None, "59a3941e1508a3a0fa4cf6d6eb9fbb3e"),
        (ArchitectureKind.BI_F_LSTM, (3, 2, 4),
         "aec35618d663b4640ef09b9e241d88e0"),
    ])
    def test_pinned_v2_bytes(self, arch, widths, digest):
        # the version-2 block layout, fixed
        m = init_model(arch, 20, 7, 5, 6, seed=3, bif_widths=widths)
        blob = serialize_model(m)
        assert hashlib.blake2b(blob, digest_size=16).hexdigest() == digest

    def test_relu_widths_preserved(self, tmp_path):
        m = init_model(ArchitectureKind.BI_F_LSTM, 9, 4, 5, 6, seed=1,
                       bif_widths=(4, 2, 5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.fwd.transition.U.shape == (4, 6)
        assert back.fwd.transition.V.shape == (2, 4)
        assert back.fwd.transition.W.shape == (5, 6)

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(ArchitectureKind.BI_LSTM, 6, 3, 4, 4), path)
        before = path.read_bytes()

        class HalfWrite:
            """A file that takes half the bytes, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = open
        monkeypatch.setattr(checkpoint_mod, "open",
                            lambda p, mode: HalfWrite(real_open(p, mode)),
                            raising=False)
        with pytest.raises(OSError):
            save_checkpoint(random_model(ArchitectureKind.BI_LSTM, 6, 3, 4, 4),
                            path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bytes_independent_of_block_memory_order(self):
        # blocks are written row-major whatever their strides, and any
        # bytes-like blob loads
        m = random_model(ArchitectureKind.BI_S_LSTM, 9, 4, 5, 6, seed=3)
        blob = serialize_model(m)
        assert type(blob) is bytes
        assert serialize_model(CaptionModel(m.arch, {
            name: np.asfortranarray(arr) for name, arr in m.blocks()})) == blob
        assert_models_equal(deserialize_model(bytearray(blob)), m)

    def test_one_copy_of_the_blocks_each_way(self):
        # a save allocates the blob and a load the model's blocks, each
        # about the blocks' size; no per-block bytes or payload slice besides
        m = init_model(ArchitectureKind.BI_LSTM, 2000, 64, 64, 64)
        size = 8 * sum(arr.size for _, arr in m.blocks())
        tracemalloc.start()
        try:
            blob = serialize_model(m)
            _, peak_save = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            deserialize_model(blob)
            _, peak_load = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_save < 1.25 * size
        assert peak_load - base < 1.25 * size

    def test_serialization_is_deterministic(self):
        m = init_model(ArchitectureKind.BI_S_LSTM, 6, 3, 4, 4, seed=5)
        assert serialize_model(m) == serialize_model(m)

    def test_round_trip_after_training_then_resume(self, tmp_path):
        _, examples = make_toy_dataset(5, 10, 7, seed=4)
        m = init_model(ArchitectureKind.BI_LSTM, 10, 7, 8, 8, seed=2)
        cfg = TrainConfig(batch_size=2, max_epochs=2,
                          early_stop_patience=None, seed=3)
        state = train_epochs(make_state(m), examples, examples, cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(state.model, path)
        loaded = load_checkpoint(path)
        assert_models_equal(state.model, loaded)
        # the loaded model trains one more epoch without trouble
        cfg2 = TrainConfig(batch_size=2, max_epochs=1,
                           early_stop_patience=None, seed=3)
        resumed = train_epochs(make_state(loaded), examples, examples, cfg2)
        assert resumed.epoch == 1


class ShortReads:
    """A file read in chunks of at most 100 bytes that yields nothing past
    its last `lost` bytes, as a file cut while it is read would."""

    def __init__(self, fh, lost: int):
        self.fh = fh
        self.end = os.fstat(fh.fileno()).st_size - lost

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def readinto(self, view):
        n = max(0, min(len(view), 100, self.end - self.fh.tell()))
        return self.fh.readinto(view[:n])


def short_reads(monkeypatch, lost: int) -> None:
    """Make every checkpoint file opened for a load a `ShortReads`."""
    real_open = open
    monkeypatch.setattr(
        checkpoint_mod, "open",
        lambda *args, **kw: ShortReads(real_open(*args, **kw), lost),
        raising=False)


class TestLoadContract:
    """A load reads the file once into a buffer that it places itself; the
    model's blocks are views of that buffer."""

    def test_load_holds_one_copy_of_the_blocks(self, tmp_path):
        # a load that copied the blocks out of the file's bytes peaked at
        # about twice the file
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(ArchitectureKind.BI_LSTM, 2000, 64, 64, 64),
                        path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            m = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.vocab_size == 2000
        assert peak <= 1.1 * size, (peak, size)

    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_blocks_are_aligned_views_of_one_buffer(self, arch, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(arch, 9, 4, 5, 6, seed=3), path)
        blocks = [arr for _, arr in load_checkpoint(path).blocks()]
        assert blocks[0].ctypes.data % 64 == 0
        assert blocks[0].base is not None
        for arr in blocks:
            assert arr.dtype == np.float64
            assert arr.flags.writeable and arr.flags.aligned
            assert arr.flags.c_contiguous and not arr.flags.owndata
            assert arr.base is blocks[0].base

    def test_load_update_save_round_trips_bitwise(self, tmp_path):
        # an update writes into the loaded blocks' buffer, and a save of
        # the loaded model is the bytes of the same update made in memory
        m = random_model(ArchitectureKind.BI_F_LSTM, 9, 4, 5, 6, seed=3,
                         bif_widths=(3, 2, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        rng = np.random.default_rng(1)
        grads = {name: rng.normal(size=arr.shape) for name, arr in m.blocks()}
        cfg = TrainConfig(grad_clip=0.5)
        loaded = sgd_step(make_state(load_checkpoint(path)), grads, cfg).model
        updated = sgd_step(make_state(m), grads, cfg).model
        save_checkpoint(loaded, path)
        assert path.read_bytes() == serialize_model(updated)
        assert_models_equal(load_checkpoint(path), updated)

    def test_chunked_reads_load_bitwise(self, tmp_path, monkeypatch):
        m = random_model(ArchitectureKind.BI_S_LSTM, 9, 4, 5, 6, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        short_reads(monkeypatch, 0)
        assert_models_equal(load_checkpoint(path), m)

    @pytest.mark.parametrize("cut", ["on disk", "while read"])
    def test_short_file_refused(self, cut, tmp_path, monkeypatch, capsys):
        # by load_checkpoint with a CheckpointError, and by the CLI with
        # one stderr line and exit 2; the CLI loads the checkpoint before
        # it reads the vocab and features, which do not exist here
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(ArchitectureKind.BI_LSTM, 6, 3, 4, 4), path)
        if cut == "on disk":
            path.write_bytes(path.read_bytes()[:-20])
        else:
            short_reads(monkeypatch, 20)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        rc = main(["caption", "--checkpoint", str(path),
                   "--features", str(tmp_path / "absent.feat"),
                   "--vocab", str(tmp_path / "absent.vocab")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        if cut == "while read":
            assert "truncated: read" in captured.err

    @pytest.mark.parametrize("past, adopted", [
        (None, False),  # bytes: read-only
        (0, True),
        (4, False),
        (1, False),
    ])
    def test_only_a_writeable_aligned_blob_is_adopted(self, past, adopted):
        # any other blob is copied, and every blob loads bitwise
        m = random_model(ArchitectureKind.BI_S_LSTM, 9, 4, 5, 6, seed=3)
        blob = serialize_model(m)
        source = blob if past is None else placed(blob, past)
        back = deserialize_model(source)
        assert_models_equal(back, m)
        storage = np.frombuffer(source, np.uint8)
        for _, arr in back.blocks():
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert np.shares_memory(arr, storage) == adopted


class TestVersion1:
    """Files written before Wimg was split from Wx still load."""

    @pytest.mark.parametrize("adopted", [False, True])
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_loads_bitwise(self, arch, adopted):
        # copied from bytes, or adopted from an aligned writeable blob as
        # views; the merged block's two parts are its column views, the
        # only blocks that are not C-contiguous
        m = random_model(arch, 9, 4, 5, 6, seed=3)
        source = placed(v1_blob(m), 0) if adopted else v1_blob(m)
        back = deserialize_model(source)
        assert_models_equal(back, m)
        storage = np.frombuffer(source, np.uint8)
        for name, arr in back.blocks():
            assert arr.flags.writeable
            assert np.shares_memory(arr, storage) == adopted
            merged = name.endswith((".m_lstm.Wx", ".m_lstm.Wimg"))
            assert arr.flags.c_contiguous != merged, name

    def test_caption_output_matches_v2(self, tmp_path, capsys):
        vocab, examples = make_toy_dataset(4, 10, 7, seed=4)
        m = random_model(ArchitectureKind.BI_F_LSTM, 10, 7, 8, 8, seed=2)
        write_vocab(tmp_path / "vocab.tsv", vocab)
        write_features(tmp_path / "f.feat",
                       {ex.image_id: ex.feature for ex in examples})
        (tmp_path / "v1.ckpt").write_bytes(v1_blob(m))
        save_checkpoint(m, tmp_path / "v2.ckpt")
        outs = []
        for name in ("v1.ckpt", "v2.ckpt"):
            assert main(["caption", "--checkpoint", str(tmp_path / name),
                         "--features", str(tmp_path / "f.feat"),
                         "--vocab", str(tmp_path / "vocab.tsv"),
                         "--beam", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].count("\n") == 4

    @pytest.mark.parametrize("version", [0, 3])
    def test_other_versions_refused(self, version, tmp_path, capsys):
        blob = serialize_model(init_model(ArchitectureKind.BI_LSTM, 6, 3, 4, 4))
        fields = list(HEADER.unpack_from(blob, HEADER_AT))
        path = tmp_path / "m.ckpt"
        path.write_bytes(resealed(blob, [version, *fields[1:]]))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
        rc = main(["caption", "--checkpoint", str(path),
                   "--features", str(tmp_path / "absent.feat"),
                   "--vocab", str(tmp_path / "absent.vocab")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"unsupported checkpoint version {version}" in captured.err


@pytest.mark.parametrize("arch", list(ArchitectureKind))
def test_blocks_are_c_contiguous(arch, tmp_path):
    # numcore's convention for a matrix, in every model that is built or
    # loaded from a version-2 file
    path = tmp_path / "m.ckpt"
    models = [init_model(arch, 9, 4, 5, 6, seed=1),
              random_model(arch, 9, 4, 5, 6, seed=1)]
    save_checkpoint(models[0], path)
    models.append(load_checkpoint(path))
    for m in models:
        for name, arr in m.blocks():
            assert arr.flags.c_contiguous, name


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_non_finite_value_refused(value, at):
    # by a load, and by an SGD step given it as a gradient
    m = random_model(ArchitectureKind.BI_S_LSTM, 9, 4, 5, 6, seed=3)
    name = "bwd.m_lstm.Wimg"
    flat = m.params[name].reshape(-1)
    flat[{"first": 0, "middle": flat.size // 2, "last": -1}[at]] = value
    with pytest.raises(CheckpointError, match=f"non-finite values in block {name}"):
        deserialize_model(serialize_model(m))
    grads = {name: m.params[name]}
    state = make_state(random_model(ArchitectureKind.BI_S_LSTM, 9, 4, 5, 6))
    with pytest.raises(TrainingError, match=f"non-finite gradient in block {name}"):
        sgd_step(state, grads, TrainConfig())


class TestCorruption:
    def make_blob(self):
        return serialize_model(init_model(ArchitectureKind.BI_LSTM, 6, 3, 4, 4,
                                          seed=0))

    def test_flipped_payload_byte_detected(self):
        blob = bytearray(self.make_blob())
        blob[40] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            deserialize_model(bytes(blob))

    def test_flipped_digest_byte_detected(self):
        blob = bytearray(self.make_blob())
        blob[-1] ^= 0x01
        with pytest.raises(CheckpointError, match="checksum"):
            deserialize_model(bytes(blob))

    def test_truncation_detected(self):
        blob = self.make_blob()
        with pytest.raises(CheckpointError):
            deserialize_model(blob[: len(blob) // 2])

    def test_bad_magic_detected(self):
        blob = bytearray(self.make_blob())
        blob[0:6] = b"NOTBIC"
        # recompute a valid digest so the magic check itself is exercised
        import hashlib
        payload = bytes(blob[:-8])
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        with pytest.raises(CheckpointError, match="magic"):
            deserialize_model(payload + digest)

    def test_empty_file_detected(self):
        with pytest.raises(CheckpointError):
            deserialize_model(b"")

    def test_header_dims_too_large_to_allocate(self):
        # embedding 2^31 x 2^31: numpy refuses such an array outright, so
        # the header must be checked against the size before any block is
        # built
        blob = self.make_blob()
        fields = list(HEADER.unpack_from(blob, HEADER_AT))
        fields[2] = fields[4] = 2 ** 31  # vocab and embed
        with pytest.raises(CheckpointError, match="header implies"):
            deserialize_model(resealed(blob, fields))

    @pytest.mark.parametrize("extra", [-8, 8])
    def test_payload_size_differing_from_header(self, extra):
        with pytest.raises(CheckpointError, match="header implies"):
            deserialize_model(resealed(self.make_blob(), extra=extra))

    def test_zero_dimension_in_header(self):
        blob = self.make_blob()
        fields = list(HEADER.unpack_from(blob, HEADER_AT))
        fields[5] = 0  # hidden
        with pytest.raises(CheckpointError, match="hidden_dim"):
            deserialize_model(resealed(blob, fields))


class TestBlockShapes:
    @pytest.mark.parametrize("arch", list(ArchitectureKind))
    def test_declared_order_and_shapes_of_built_model(self, arch):
        m = init_model(arch, 9, 4, 5, 6, bif_widths=(3, 2, 4)
                       if arch == ArchitectureKind.BI_F_LSTM else None)
        shapes = block_shapes(arch, 9, 4, 5, 6, (3, 2, 4)
                              if arch == ArchitectureKind.BI_F_LSTM else None)
        assert shapes == [(name, arr.shape) for name, arr in m.blocks()]


@st.composite
def mutated_checkpoints(draw):
    """A small valid checkpoint whose header fields and payload length are
    mutated, then resealed: (blob, mutated)."""
    arch = draw(st.sampled_from(list(ArchitectureKind)))
    dims = [draw(st.integers(1, 4)) for _ in range(4)]
    widths = tuple(draw(st.integers(1, 4)) for _ in range(3))
    m = random_model(arch, *dims, seed=0, bif_widths=(
        widths if arch == ArchitectureKind.BI_F_LSTM else None))
    blob = serialize_model(m)
    fields = list(HEADER.unpack_from(blob, HEADER_AT))
    for k in draw(st.sets(st.integers(0, 8), max_size=3)):
        fields[k] = draw(st.integers(0, 3) if k < 2 else st.integers(0, 6))
    case = resealed(blob, fields, draw(st.integers(-24, 24)))
    return case, case != blob


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_checkpoints())
    def test_mutated_header_or_length_loads_or_raises(self, case):
        blob, mutated = case
        try:
            m = deserialize_model(blob)
        except BicaptionError:
            assert mutated
            return
        # what loads is consistent: its own blob has the same size
        assert len(serialize_model(m)) == len(blob)
