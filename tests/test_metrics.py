import json
from dataclasses import asdict

import numpy as np
import pytest

from trajrules.errors import (
    DegenerateLabelsError,
    EmptyInputError,
    LengthMismatchError,
    NonFiniteError,
)
from trajrules.metrics import (
    UNDETERMINED,
    compute_metrics,
    compute_roc_auc,
    f1_score,
)


def test_perfect_predictions():
    preds = ["AV", "HDV", "AV", "HDV"]
    report = compute_metrics(preds, preds)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    for stats in report.per_class.values():
        assert stats == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_hand_worked_confusion():
    preds = ["AV", "AV", "HDV", "HDV", "AV"]
    labels = ["AV", "HDV", "HDV", "HDV", "AV"]
    report = compute_metrics(preds, labels)
    assert report.accuracy == pytest.approx(4 / 5)
    av = report.per_class["AV"]
    assert av["precision"] == pytest.approx(2 / 3)
    assert av["recall"] == pytest.approx(1.0)
    assert av["f1"] == pytest.approx(0.8)
    hdv = report.per_class["HDV"]
    assert hdv["precision"] == pytest.approx(1.0)
    assert hdv["recall"] == pytest.approx(2 / 3)
    # confusion rows are true labels, columns predictions
    i_av = report.confusion.labels.index("AV")
    i_hdv = report.confusion.labels.index("HDV")
    assert report.confusion.counts[i_av][i_av] == 2
    assert report.confusion.counts[i_hdv][i_av] == 1
    assert report.confusion.counts[i_hdv][i_hdv] == 2
    assert report.confusion.counts[i_av][i_hdv] == 0


def test_undetermined_dropped_by_default():
    preds = ["AV", UNDETERMINED, "HDV", UNDETERMINED]
    labels = ["AV", "AV", "HDV", "HDV"]
    report = compute_metrics(preds, labels)
    assert report.accuracy == 1.0
    assert report.n_undetermined == 2
    assert report.n_samples == 4


def test_undetermined_counted_as_error_when_asked():
    preds = ["AV", UNDETERMINED, "HDV", UNDETERMINED]
    labels = ["AV", "AV", "HDV", "HDV"]
    report = compute_metrics(preds, labels, count_undetermined_as_error=True)
    assert report.accuracy == pytest.approx(0.5)
    # recall pays for the misses, precision does not
    assert report.per_class["AV"]["recall"] == pytest.approx(0.5)
    assert report.per_class["AV"]["precision"] == 1.0
    assert report.per_class["HDV"]["recall"] == pytest.approx(0.5)


def test_input_validation():
    with pytest.raises(LengthMismatchError):
        compute_metrics(["AV"], ["AV", "HDV"])
    with pytest.raises(EmptyInputError):
        compute_metrics([UNDETERMINED], ["AV"])
    with pytest.raises(EmptyInputError):
        compute_metrics([], [])


def test_f1_zero_division():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)


def test_report_json_shape():
    # the JSON that evaluate writes for a report
    report = compute_metrics(["AV", "HDV"], ["AV", "HDV"])
    doc = json.loads(json.dumps(asdict(report)))
    assert doc["accuracy"] == 1.0
    assert doc["confusion"]["labels"] == ["AV", "HDV"]
    assert doc["roc_auc"] is None
    assert set(doc) == {
        "accuracy", "per_class", "macro_precision", "macro_recall",
        "macro_f1", "confusion", "n_samples", "n_undetermined", "roc_auc",
    }


def pairwise_auc(scores, labels, positive="AV"):
    """Independent oracle: fraction of (pos, neg) pairs ranked correctly."""
    pos = [s for s, y in zip(scores, labels) if y == positive]
    neg = [s for s, y in zip(scores, labels) if y != positive]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_perfect_and_inverted():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = ["AV", "AV", "HDV", "HDV"]
    assert compute_roc_auc(scores, labels) == 1.0
    assert compute_roc_auc([-s for s in scores], labels) == 0.0


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        # quantized scores force plenty of ties
        scores = list(np.round(rng.random(n), 1))
        labels = ["AV" if rng.random() < 0.4 else "HDV" for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        assert compute_roc_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )


def test_auc_all_tied_is_half():
    assert compute_roc_auc([0.5, 0.5, 0.5], ["AV", "HDV", "HDV"]) == pytest.approx(0.5)


def test_auc_monotone_invariance():
    rng = np.random.default_rng(6)
    scores = list(rng.random(40))
    labels = ["AV" if rng.random() < 0.5 else "HDV" for _ in range(40)]
    base = compute_roc_auc(scores, labels)
    assert compute_roc_auc([3.0 * s + 1.0 for s in scores], labels) == base
    assert compute_roc_auc(list(np.exp(scores)), labels) == base


def test_auc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        compute_roc_auc([0.1, 0.2], ["AV", "AV"])
    with pytest.raises(LengthMismatchError):
        compute_roc_auc([0.1], ["AV", "HDV"])
    with pytest.raises(EmptyInputError):
        compute_roc_auc([], [])


def test_auc_rejects_a_score_without_a_rank():
    # a NaN compares false with everything, so no sort can place it
    with pytest.raises(NonFiniteError):
        compute_roc_auc([float("nan"), 0.2, 0.9, 0.5], ["AV", "HDV", "AV", "HDV"])
    inf = float("inf")
    assert compute_roc_auc([inf, 0.2, -inf, 0.5], ["AV", "HDV", "HDV", "AV"]) == 1.0
