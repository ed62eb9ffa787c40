"""Classification metrics: confusion counts, per-class P/R/F1, and ROC-AUC.

"undetermined" predictions are excluded from the confusion matrix and
reported separately by default; a flag counts them as errors instead.
AV is the positive class throughout.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DegenerateLabelsError, EmptyInputError, LengthMismatchError, NonFiniteError

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
    Raises EmptyInputError when no prediction is left to count.
    """
    if len(predictions) != len(labels):
        raise LengthMismatchError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    counted = [(p, y) for p, y in zip(predictions, labels)
               if p != UNDETERMINED or count_undetermined_as_error]
    n_undetermined = predictions.count(UNDETERMINED)
    if not counted:
        raise EmptyInputError("no determined predictions to score")

    class_names = sorted({y for _, y in counted} | {p for p, _ in counted if p != UNDETERMINED})
    pairs = Counter(counted)  # (predicted, true) -> count; undetermined ones are missed recall
    accuracy = sum(pairs[c, c] for c in class_names) / len(counted)

    per_class: dict[str, dict[str, float]] = {}
    for c in class_names:
        predicted_c = sum(n for (p, _), n in pairs.items() if p == c)
        true_c = sum(n for (_, y), n in pairs.items() if y == c)
        tp = pairs[c, c]
        precision = tp / predicted_c if predicted_c else 0.0
        recall = tp / true_c if true_c else 0.0
        per_class[c] = {
            "precision": precision,
            "recall": recall,
            "f1": f1_score(precision, recall),
        }

    macro = {k: sum(m[k] for m in per_class.values()) / len(per_class)
             for k in ("precision", "recall", "f1")}
    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=macro["precision"],
        macro_recall=macro["recall"],
        macro_f1=macro["f1"],
        confusion=ConfusionMatrix(
            labels=tuple(class_names),
            counts=tuple(tuple(pairs[p, y] for p in class_names) for y in class_names),
        ),
        n_samples=len(predictions),
        n_undetermined=n_undetermined,
    )


def compute_roc_auc(scores: list[float], labels: list[str]) -> float:
    """Area under the ROC curve via average ranks (ties contribute one half).

    Equivalent to sweeping every threshold with trapezoidal interpolation.
    Raises DegenerateLabelsError unless both classes are present, and
    NonFiniteError for a NaN score, which has no rank.
    """
    if len(scores) != len(labels):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(labels)} labels")
    if not scores:
        raise EmptyInputError("no scores to rank")
    if any(map(math.isnan, scores)):
        raise NonFiniteError("ROC-AUC needs scores that are not NaN")
    positive = [y == POSITIVE_LABEL for y in labels]
    n_pos = sum(positive)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("ROC-AUC needs both classes present")

    tied = Counter(scores)
    tied_pos = Counter(s for s, is_pos in zip(scores, positive) if is_pos)
    rank_sum = 0.0
    below = 0  # scores under the current group of tied scores
    for score in sorted(tied):
        # each tied score takes the group's average 1-based rank
        rank_sum += (below + (tied[score] + 1) / 2.0) * tied_pos[score]
        below += tied[score]
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
