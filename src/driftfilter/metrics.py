"""Confusion-matrix bookkeeping, the six evaluation measures, ROC points.

Spam is the positive class throughout: tp counts spam classified as spam,
fp counts legitimate mail classified as spam (the costlier error). The
measures are the fields of `MetricsReport.from_confusion`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


class MetricsError(Exception):
    """Raised for empty or mismatched evaluation inputs."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def n_spam(self) -> int:
        return self.tp + self.fn

    @property
    def n_legit(self) -> int:
        return self.tn + self.fp

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(predictions, truths) -> ConfusionMatrix:
    """Count outcomes from parallel sequences of +1/-1 labels (+1 = spam)."""
    predictions = list(predictions)
    truths = list(truths)
    if len(predictions) != len(truths):
        raise MetricsError(
            f"length mismatch: {len(predictions)} predictions, {len(truths)} truths"
        )
    tp = tn = fp = fn = 0
    for pred, truth in zip(predictions, truths):
        if truth == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, tn, fp, fn)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


@dataclass(frozen=True)
class MetricsReport:
    """The measures of one confusion matrix; build it with `from_confusion`.

    A rate whose class is empty (fpr, fnr) is undefined and reported as
    None rather than a fabricated 0. Other zero denominators give 0:
    precision, recall and F1 terms, and MCC when a factor of its radicand
    is 0. micro_f1 is the F1 of the spam class; macro_f1 averages the F1 of
    both classes.
    """

    accuracy: float
    fpr: float | None
    fnr: float | None
    micro_f1: float
    macro_f1: float
    mcc: float
    precision_spam: float
    recall_spam: float
    precision_legit: float
    recall_legit: float

    @classmethod
    def from_confusion(cls, cm: ConfusionMatrix) -> "MetricsReport":
        if cm.total == 0:
            raise MetricsError("empty confusion matrix")
        p_s, r_s = _ratio(cm.tp, cm.tp + cm.fp), _ratio(cm.tp, cm.n_spam)
        p_l, r_l = _ratio(cm.tn, cm.tn + cm.fn), _ratio(cm.tn, cm.n_legit)
        f1_spam = _f1(p_s, r_s)
        denom = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
        return cls(
            accuracy=(cm.tn + cm.tp) / cm.total,
            fpr=cm.fp / cm.n_legit if cm.n_legit > 0 else None,
            fnr=cm.fn / cm.n_spam if cm.n_spam > 0 else None,
            micro_f1=f1_spam,
            macro_f1=(f1_spam + _f1(p_l, r_l)) / 2.0,
            mcc=(cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom) if denom else 0.0,
            precision_spam=p_s,
            recall_spam=r_s,
            precision_legit=p_l,
            recall_legit=r_l,
        )


def roc_points(scores, truths) -> list[tuple[float, float]]:
    """(fpr, tpr) points from sweeping the threshold over distinct scores.

    Includes (0,0) and (1,1); sorted by fpr ascending with non-decreasing
    tpr. Interior points collinear with their neighbours are dropped (they
    carry no curve information and leave the area unchanged). Requires both
    classes among the truths.
    """
    scores = list(scores)
    truths = list(truths)
    if len(scores) != len(truths):
        raise MetricsError(
            f"length mismatch: {len(scores)} scores, {len(truths)} truths"
        )
    if any(math.isnan(s) for s in scores):
        raise MetricsError("ROC scores must not be NaN")
    n_pos = sum(1 for t in truths if t == 1)
    n_neg = len(truths) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("ROC requires both classes among the truths")
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    points = [(0.0, 0.0)]
    tp = fp = 0
    for _, tied in itertools.groupby(order, key=scores.__getitem__):
        for i in tied:
            if truths[i] == 1:
                tp += 1
            else:
                fp += 1
        points.append((fp / n_neg, tp / n_pos))
    return _drop_collinear(points)


def _drop_collinear(points):
    kept = []
    for point in points:
        while len(kept) >= 2:
            (x0, y0), (x1, y1) = kept[-2], kept[-1]
            x2, y2 = point
            cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
            if abs(cross) <= 1e-12:
                kept.pop()
            else:
                break
        kept.append(point)
    return kept


def write_roc_tsv(points, path) -> None:
    """Two-column TSV (fpr, tpr), one point per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("fpr\ttpr\n")
        for x, y in points:
            handle.write(f"{x!r}\t{y!r}\n")
