"""Streamed filtering with validation triggers and incremental retraining.

Pass I trains a batch model over the training prefix; Pass II classifies
test batches until a validation criterion fires (accuracy at or below the
threshold, or a false-positive-rate increase); Pass III updates the
feature set on the retraining set (misclassified mail + support vectors
+ the violating batch) and retrains the model on it, then testing resumes.
`run_session` builds each retraining set; one of a single class halts the
session, recorded as the report's `halted` status.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields
from enum import Enum

from . import features, metrics, svm
from .corpus import Document, Label, LabeledCorpus, StreamPartition

logger = logging.getLogger(__name__)


class DriftLoopError(Exception):
    """Raised for invalid session inputs."""


class FprTrigger(Enum):
    PREV_BATCH = "prev_batch"
    SINCE_RETRAIN = "since_retrain"


class TriggerCause(Enum):
    ACCURACY_BELOW_RHO = "accuracy_below_rho"
    FPR_INCREASED = "fpr_increased"


class SessionMode(Enum):
    BATCH = "batch"
    INCREMENTAL = "incremental"


@dataclass(frozen=True)
class DriftConfig:
    rho: float = 0.9
    fpr_trigger: FprTrigger = FprTrigger.PREV_BATCH
    feature_dim: int = 500
    train_config: svm.TrainConfig = field(default_factory=svm.TrainConfig)
    selector: str = "tfdcr"

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise DriftLoopError(f"rho must be in (0,1), got {self.rho}")
        if type(self.feature_dim) is not int:
            raise DriftLoopError(f"feature_dim must be an int, got {self.feature_dim!r}")
        if self.feature_dim < 1:
            raise DriftLoopError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.selector not in features.SELECTORS:
            raise DriftLoopError(f"unknown selector: {self.selector!r}")


@dataclass(frozen=True)
class BatchRecord:
    index: int
    size: int
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    fpr: float | None
    fnr: float | None


@dataclass(frozen=True)
class FilterState:
    """One generation of the filter: its features, its model, and the
    documents that carry the model's support vectors. Sessions may share
    one Pass-I state; the per-generation bookkeeping lives in `run_session`.
    """

    feature_set: features.FeatureSet
    model: svm.SvmModel
    sv_documents: tuple[Document, ...]


@dataclass(frozen=True)
class RetrainEvent:
    batch_index: int
    generation: int
    cause: TriggerCause
    replaced_features: int
    retrain_size: int
    cumulative_seen: int
    pre_accuracy: float
    post_accuracy: float


def _label_to_int(label: Label) -> int:
    return 1 if label is Label.SPAM else -1


def _generation(docs, fs: features.FeatureSet, config: DriftConfig) -> FilterState:
    """The model trained on `docs` under `fs`, with the documents that carry
    its support vectors."""
    vectors = features.vectorize_all(docs, fs)
    labels = [_label_to_int(d.label) for d in docs]
    model = svm.train_smo(vectors, labels, config.train_config)
    return FilterState(fs, model, tuple(docs[i] for i in model.sv_indices))


def run_batch_phase(
    training: LabeledCorpus,
    config: DriftConfig,
    counts: features.CorpusCounts | None = None,
) -> FilterState:
    """Pass I: select features over the training corpus and train the model.

    `counts`, when given, is `features.count_stats(training)`; sessions that
    differ only in the selector can share it.
    """
    if counts is None:
        counts = features.count_stats(training)
    fs = features.select(config.selector, counts, config.feature_dim)
    return _generation(training.documents, fs, config)


def evaluate_batch(state: FilterState, batch: LabeledCorpus, index: int = 0):
    """Classify batch `index`: returns its record, the misclassified
    documents, and each document's score and true label (+1 spam, -1
    legitimate).

    A positive score is classed spam; a score of exactly 0 is classed
    legitimate. Misclassified documents are handed back with their true
    labels attached, standing in for the user feedback the retraining pass
    relies on.
    """
    if not batch.documents:
        raise DriftLoopError("cannot evaluate an empty batch")
    vectors = features.vectorize_all(batch.documents, state.feature_set)
    scores = svm.decision_scores(state.model, vectors)
    predictions = [1 if s > 0 else -1 for s in scores]
    truths = [_label_to_int(d.label) for d in batch.documents]
    cm = metrics.confusion(predictions, truths)
    report = metrics.MetricsReport.from_confusion(cm)
    misclassified = [
        doc for doc, pred, truth in zip(batch.documents, predictions, truths)
        if pred != truth
    ]
    record = BatchRecord(
        index=index,
        size=len(batch.documents),
        tp=cm.tp, tn=cm.tn, fp=cm.fp, fn=cm.fn,
        accuracy=report.accuracy, fpr=report.fpr, fnr=report.fnr,
    )
    return record, misclassified, scores, truths


def check_validation(history, config: DriftConfig) -> TriggerCause | None:
    """The validation criterion the latest batch violates, or None.

    `history` holds (accuracy, fpr) pairs since the last retrain. Accuracy
    at or below rho fires first; otherwise an FPR strictly above the
    reference (previous batch, or the first batch since retraining) fires.
    The FPR cause never fires while only one batch has been seen since the
    last retrain: there is no reference yet.
    """
    if not history:
        raise DriftLoopError("check_validation requires at least one batch")
    accuracy, fpr = history[-1]
    if accuracy <= config.rho:
        return TriggerCause.ACCURACY_BELOW_RHO
    if len(history) >= 2 and fpr is not None:
        if config.fpr_trigger is FprTrigger.PREV_BATCH:
            reference = history[-2][1]
        else:
            reference = history[0][1]
        if reference is not None and fpr > reference:
            return TriggerCause.FPR_INCREASED
    return None


def build_retraining_set(
    state: FilterState, misclassified, violating_batch: LabeledCorpus
) -> LabeledCorpus:
    """Union (by document id) of this generation's misclassified mail, the
    SV carriers, and the violating batch."""
    merged: dict[str, Document] = {}
    for doc in (*misclassified, *state.sv_documents, *violating_batch.documents):
        merged[doc.id] = doc
    docs = sorted(merged.values(), key=lambda d: d.arrival_index)
    return LabeledCorpus(tuple(docs))


def incremental_retrain(
    state: FilterState, rtrem: LabeledCorpus, config: DriftConfig
) -> tuple[FilterState, int]:
    """Pass III: update the feature set on the retraining set `rtrem` and
    retrain on it. Returns the new state and the number of features replaced.

    A single-class `rtrem` raises `features.FeatureError`. The solver
    restarts cold on the (small) retraining set because the feature space
    changes between generations, which invalidates previous kernel values;
    the saving comes from the retraining set's size.
    """
    fs_new, replaced = features.update_feature_set(state.feature_set, rtrem)
    return _generation(rtrem.documents, fs_new, config), replaced


SESSION_FORMAT = "driftfilter-session-2"


def _json_value(obj):
    """A dataclass as its field dict (no copies, unlike `asdict`), an enum
    as its value."""
    if isinstance(obj, Enum):
        return obj.value
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class SessionReport:
    """A session's outcome; `to_json` writes its fields as they are, so these
    dataclasses are the session file's schema.

    `roc` holds the (fpr, tpr) points of the scores each test batch got when
    first classified, or None when its truths hold one class. An incremental
    session's ROC pools the scores of several generations' models, whose
    scales differ.
    """

    mode: str
    selector: str
    batches: tuple[BatchRecord, ...]
    events: tuple[RetrainEvent, ...]
    final: metrics.MetricsReport
    avg_fpr: float | None
    avg_fnr: float | None
    partition_checksum: str
    halted: str | None
    roc: tuple[tuple[float, float], ...] | None

    def to_json(self) -> str:
        payload = {"format": SESSION_FORMAT, **_json_value(self)}
        return json.dumps(payload, sort_keys=True, default=_json_value)


def partition_checksum(partition: StreamPartition) -> str:
    """See `StreamPartition.checksum`."""
    return partition.checksum


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def run_session(
    partition: StreamPartition,
    config: DriftConfig,
    mode: SessionMode,
    state: FilterState | None = None,
) -> SessionReport:
    """Run one full session: Pass I, then the test stream.

    Batch mode never consults the validation triggers; incremental mode
    retrains whenever one fires, consuming the violating batch as training
    data and continuing with the next batch. A single-class retraining set
    halts the session gracefully, recorded in the report.

    `state`, when given, is the Pass-I result of `run_batch_phase` on this
    partition's training set and config.
    """
    if state is None:
        state = run_batch_phase(partition.training, config)
    records: list[BatchRecord] = []
    events: list[RetrainEvent] = []
    all_scores: list[float] = []
    all_truths: list[int] = []
    # This generation's misclassified mail and (accuracy, fpr) per batch.
    misclassified: list[Document] = []
    history: list[tuple[float, float | None]] = []
    seen = len(partition.training.documents)
    halted = None
    for k, batch in enumerate(partition.test_batches):
        record, errors, scores, truths = evaluate_batch(state, batch, k)
        seen += record.size
        records.append(record)
        misclassified.extend(errors)
        history.append((record.accuracy, record.fpr))
        all_scores.extend(scores)
        all_truths.extend(truths)
        if mode is SessionMode.INCREMENTAL:
            cause = check_validation(history, config)
            if cause is not None:
                rtrem = build_retraining_set(state, misclassified, batch)
                if rtrem.n_spam == 0 or rtrem.n_legit == 0:
                    halted = (
                        f"retraining set at batch {k} contains a single class "
                        f"({rtrem.n_spam} spam / {rtrem.n_legit} legitimate)"
                    )
                    logger.warning("session halted: %s", halted)
                    break
                state, replaced = incremental_retrain(state, rtrem, config)
                logger.info(
                    "retrained at batch %d: generation %d, %d features replaced, "
                    "%d documents", k, len(events) + 1, replaced, len(rtrem),
                )
                misclassified, history = [], []
                post = evaluate_batch(state, batch, k)[0]
                events.append(RetrainEvent(
                    batch_index=k,
                    generation=len(events) + 1,
                    cause=cause,
                    replaced_features=replaced,
                    retrain_size=len(rtrem),
                    cumulative_seen=seen,
                    pre_accuracy=record.accuracy,
                    post_accuracy=post.accuracy,
                ))
    roc = None
    if len(set(all_truths)) == 2:
        roc = tuple(metrics.roc_points(all_scores, all_truths))
    total = metrics.ConfusionMatrix(
        tp=sum(r.tp for r in records), tn=sum(r.tn for r in records),
        fp=sum(r.fp for r in records), fn=sum(r.fn for r in records),
    )
    return SessionReport(
        mode=mode.value,
        selector=config.selector,
        batches=tuple(records),
        events=tuple(events),
        final=metrics.MetricsReport.from_confusion(total),
        avg_fpr=_mean_or_none([r.fpr for r in records]),
        avg_fnr=_mean_or_none([r.fnr for r in records]),
        partition_checksum=partition_checksum(partition),
        halted=halted,
        roc=roc,
    )
