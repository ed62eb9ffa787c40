"""Classification metrics: confusion counts, per-class P/R/F1, and ROC-AUC.

"undetermined" predictions are excluded from the confusion matrix and
reported separately by default; a flag counts them as errors instead.
AV is the positive class throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, EmptyInputError, LengthMismatchError

UNDETERMINED = "undetermined"
POSITIVE_LABEL = "AV"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[i][j] = samples with true label labels[i] predicted as labels[j]."""

    labels: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: dict[str, dict[str, float]]  # label -> {precision, recall, f1}
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: ConfusionMatrix
    n_samples: int
    n_undetermined: int
    roc_auc: float | None = None


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(
    predictions: list[str],
    labels: list[str],
    *,
    count_undetermined_as_error: bool = False,
) -> MetricsReport:
    """Score predictions against true labels.

    Undetermined predictions never enter the confusion matrix. By default
    they are dropped from every rate; with count_undetermined_as_error they
    stay in the accuracy and recall denominators as guaranteed misses.
    """
    if len(predictions) != len(labels):
        raise LengthMismatchError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    decided = [(p, y) for p, y in zip(predictions, labels) if p != UNDETERMINED]
    n_undetermined = len(predictions) - len(decided)
    if not decided:
        raise EmptyInputError("no determined predictions to score")

    class_names = sorted({y for _, y in decided} | {p for p, _ in decided})
    if count_undetermined_as_error:
        class_names = sorted(set(class_names) | {y for p, y in zip(predictions, labels) if p == UNDETERMINED})
    index = {c: i for i, c in enumerate(class_names)}
    counts = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    for p, y in decided:
        counts[index[y], index[p]] += 1

    # undetermined true-label counts, charged against recall when requested
    missed = np.zeros(len(class_names), dtype=np.int64)
    if count_undetermined_as_error:
        for p, y in zip(predictions, labels):
            if p == UNDETERMINED:
                missed[index[y]] += 1

    correct = int(np.trace(counts))
    denominator = len(decided) + (n_undetermined if count_undetermined_as_error else 0)
    accuracy = correct / denominator

    per_class: dict[str, dict[str, float]] = {}
    for c, i in index.items():
        predicted_c = int(counts[:, i].sum())
        true_c = int(counts[i, :].sum()) + int(missed[i])
        tp = int(counts[i, i])
        precision = tp / predicted_c if predicted_c else 0.0
        recall = tp / true_c if true_c else 0.0
        per_class[c] = {
            "precision": precision,
            "recall": recall,
            "f1": f1_score(precision, recall),
        }

    macro_precision = float(np.mean([m["precision"] for m in per_class.values()]))
    macro_recall = float(np.mean([m["recall"] for m in per_class.values()]))
    macro_f1 = float(np.mean([m["f1"] for m in per_class.values()]))
    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=macro_precision,
        macro_recall=macro_recall,
        macro_f1=macro_f1,
        confusion=ConfusionMatrix(
            labels=tuple(class_names),
            counts=tuple(tuple(int(v) for v in row) for row in counts),
        ),
        n_samples=len(predictions),
        n_undetermined=n_undetermined,
    )


def compute_roc_auc(scores: list[float], labels: list[str]) -> float:
    """Area under the ROC curve via average ranks (ties contribute one half).

    Equivalent to sweeping every threshold with trapezoidal interpolation.
    Raises DegenerateLabelsError unless both classes are present.
    """
    if len(scores) != len(labels):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(labels)} labels")
    if not scores:
        raise EmptyInputError("no scores to rank")
    pos = np.array([y == POSITIVE_LABEL for y in labels], dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("ROC-AUC needs both classes present")

    _, group, counts = np.unique(np.asarray(scores, dtype=np.float64),
                                 return_inverse=True, return_counts=True)
    # average 1-based rank of each group of tied scores
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
