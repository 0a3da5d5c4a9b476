"""Span-based coreference resolution with multi-task mention learning."""

from .corpus import (ENTITY_TYPES, INFO_STATUSES, UNKNOWN, CorpusError, Document,
                     Mention, PredictionResult, SidecarRow, apply_sidecar,
                     load_documents, merge_sidecar, parse_conll,
                     prediction_from_document, prediction_to_document, read_jsonl,
                     read_sidecar, write_conll, write_jsonl, write_sidecar)
from .encoder import EncoderCapabilityError, EncoderConfig, build_vocab, encode
from .error_analysis import (ERROR_CLASSES, ERROR_KINDS, Contrast, ErrorRecord,
                             classify_anaphor, contrast, extract_errors,
                             format_contrast, tally_by_class)
from .evaluation import (EvaluationError, EvaluationReport, PRF1, evaluate,
                         format_report, markable_detection_prf, score_b_cubed,
                         score_ceaf_phi4, score_muc)
from .inference import build_clusters, decode_antecedents, predict_document
from .model import ModelConfig, MtlCorefModel
from .mtl import (PRESET_WEIGHTS, AuxiliaryLabels, TaskWeights, assign_aux_labels,
                  coref_loss_from_matrix, gold_antecedent_mask, total_loss)
from .scoring import (coarse_scores, pair_features, prune_spans, score_matrix,
                      unary_score_tensors)
from .spans import SpanCandidate, enumerate_spans, represent_spans
from .synthetic import generate_corpus, generate_document
from .training import (Checkpoint, CheckpointError, GradCheckReport, NumericError,
                       TrainConfig, TrainResult, gradient_check,
                       model_from_checkpoint, train)

__version__ = "0.1.0"
