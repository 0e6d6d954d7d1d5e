import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import bicaption.train as train_mod
from bicaption.data import CaptionedExample, Vocabulary, make_toy_dataset
from bicaption.infer import decode_direction, select_final_caption
from bicaption.model import (ArchitectureKind, BACKWARD, CaptionModel,
                             FORWARD, init_model)
from bicaption.train import TrainConfig, joint_loss, make_state, train_epochs


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running (the library joins every
    thread it starts before the call that started it returns)."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads still alive after the test: {left}"


@pytest.fixture()
def started_threads(monkeypatch):
    """The threads that `bicaption.train` starts during the test, in order;
    each is started and run as usual."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(train_mod.threading, "Thread", Counted)
    return started


@dataclass
class ToyOverfit:
    """One trained-to-memorization toy run shared across test modules."""

    vocab: Vocabulary
    examples: list[CaptionedExample]
    model: CaptionModel
    updates: int
    per_token_loss: float
    exact_decodes: int
    train_seconds: float


TOY_TRAIN_CONFIG = TrainConfig(
    learning_rate=0.01, momentum=0.9, weight_decay=0.0005,
    batch_size=1, max_epochs=200, early_stop_patience=None, seed=11,
)


def per_token_joint_loss(model, examples) -> float:
    """Joint loss per predicted position (both directions each predict
    len+1 tokens, the trailing boundary included)."""
    total = sum(joint_loss(model, ex).total for ex in examples)
    positions = sum(2 * (len(ex.tokens) + 1) for ex in examples)
    return total / positions


def count_exact_decodes(model, examples, max_len=20) -> int:
    exact = 0
    for ex in examples:
        hf = decode_direction(model, FORWARD, ex.feature, beam_k=1,
                              max_len=max_len)
        hb = decode_direction(model, BACKWARD, ex.feature, beam_k=1,
                              max_len=max_len)
        if select_final_caption(hf, hb).caption == ex.tokens:
            exact += 1
    return exact


@pytest.fixture(scope="session")
def toy_overfit() -> ToyOverfit:
    import time

    vocab, examples = make_toy_dataset(10, 20, 7, seed=3)
    model = init_model(ArchitectureKind.BI_LSTM, vocab_size=20, feature_dim=7,
                       embed_dim=16, hidden_dim=16, seed=7)
    t0 = time.perf_counter()
    state = train_epochs(make_state(model), examples, examples,
                         TOY_TRAIN_CONFIG)
    elapsed = time.perf_counter() - t0
    return ToyOverfit(
        vocab=vocab,
        examples=examples,
        model=state.model,
        updates=state.updates,
        per_token_loss=per_token_joint_loss(state.model, examples),
        exact_decodes=count_exact_decodes(state.model, examples),
        train_seconds=elapsed,
    )
