"""Bidirectional multimodal LSTM image captioning.

Training, two-direction decoding with caption selection, and generation
and retrieval metrics, all on plain float64 numpy with analytic gradients
verified against finite differences.
"""

from .data import (BOUNDARY_ID, UNK_ID, CaptionedExample, Vocabulary,
                   augment_plan, build_vocab, encode_example, make_toy_dataset)
from .errors import BicaptionError
from .infer import (GateTrace, Hypothesis, decode_direction, dump_gate_trace,
                    select_final_caption)
from .metrics import (BleuReport, ScoreMatrix, bleu_n, build_score_matrix,
                      corpus_bleu_n, median_rank, recall_at_k, score_pair)
from .model import (ArchitectureKind, BACKWARD, CaptionModel, FORWARD,
                    direction_forward, init_model, model_backward)
from .train import (TrainConfig, TrainState, accumulate_grads, grad_check,
                    joint_backward, joint_loss, make_state, sgd_step,
                    train_epochs)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureKind", "BACKWARD", "BOUNDARY_ID", "BicaptionError",
    "BleuReport", "CaptionModel", "CaptionedExample", "FORWARD", "GateTrace",
    "Hypothesis", "ScoreMatrix", "TrainConfig", "TrainState", "UNK_ID",
    "Vocabulary", "accumulate_grads", "augment_plan", "bleu_n",
    "build_score_matrix", "build_vocab", "corpus_bleu_n", "decode_direction",
    "direction_forward", "dump_gate_trace", "encode_example", "grad_check",
    "init_model", "joint_backward", "joint_loss", "make_state",
    "make_toy_dataset", "median_rank", "model_backward", "recall_at_k",
    "score_pair", "select_final_caption", "sgd_step", "train_epochs",
]
