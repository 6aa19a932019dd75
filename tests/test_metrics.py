"""One-vs-rest scoring checked against hand counts."""

import numpy as np
import pytest

from crfqp import compute_metrics
from crfqp.metrics import confusion_matrix


def macro(report):
    return (
        report.macro_precision,
        report.macro_recall,
        report.macro_accuracy,
        report.macro_f1,
    )


def test_confusion_matrix_counts_by_hand():
    truth = [0, 0, 1, 1, 2, 2, 2]
    predicted = [0, 1, 1, 1, 0, 2, 2]
    counts = confusion_matrix(truth, predicted, 3)
    assert counts.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 2]]
    assert counts.sum() == 7


def test_confusion_matrix_validation():
    with pytest.raises(ValueError, match="equal length"):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(ValueError, match="empty"):
        confusion_matrix([], [], 2)
    with pytest.raises(ValueError, match=r"truth labels must lie in \[0, 2\)"):
        confusion_matrix([0, 2], [0, 1], 2)
    with pytest.raises(ValueError, match="predicted labels"):
        confusion_matrix([0, 1], [0, -1], 2)


def test_fractional_and_bool_labels_are_rejected():
    # truncated to [0, 1, 1], these scored a macro F1 of 1.0
    with pytest.raises(ValueError, match="truth labels must be integers, got 0.5"):
        compute_metrics([0.5, 1.7, 1.2], [0, 1, 1], 2)
    with pytest.raises(ValueError, match="predicted labels must be integers, got True"):
        compute_metrics([0, 1], [0, True], 2)
    with pytest.raises(ValueError, match="predicted labels must be integers, got nan"):
        confusion_matrix(np.array([0, 1]), np.array([0.0, np.nan]), 2)
    # integral floats and numpy integers are labels
    assert confusion_matrix([0.0, 1.0], [np.int64(1), 1], 2).tolist() == [[0, 1], [0, 1]]


def test_perfect_prediction_scores_one():
    truth = [0, 1, 2, 1, 0, 2]
    report = compute_metrics(truth, truth, 3)
    assert macro(report) == (1.0, 1.0, 1.0, 1.0)
    for k in range(3):
        stats = report.per_class[k]
        assert stats["precision"] == stats["recall"] == stats["f1"] == 1.0
        assert stats["support"] == 2


def test_constant_predictor_on_balanced_pair():
    # always predicting class 0 on a 50/50 truth: class 0 gets p=1/2,
    # r=1, f1=2/3; class 1 gets all zeros; macro averages the two
    truth = [0, 0, 1, 1]
    predicted = [0, 0, 0, 0]
    report = compute_metrics(truth, predicted, 2)
    c0, c1 = report.per_class[0], report.per_class[1]
    assert c0["precision"] == pytest.approx(0.5)
    assert c0["recall"] == 1.0
    assert c0["f1"] == pytest.approx(2.0 / 3.0)
    assert c0["accuracy"] == pytest.approx(0.5)
    assert c1["precision"] == c1["recall"] == c1["f1"] == 0.0
    assert report.macro_precision == pytest.approx(0.25)
    assert report.macro_recall == pytest.approx(0.5)
    assert report.macro_f1 == pytest.approx(1.0 / 3.0)


def test_absent_classes_do_not_dilute_macro():
    # class 2 never appears in truth; macro must average classes 0, 1 only
    truth = [0, 0, 1, 1]
    predicted = [0, 1, 1, 1]
    with_room = compute_metrics(truth, predicted, 3)
    tight = compute_metrics(truth, predicted, 2)
    assert macro(with_room) == macro(tight)
    assert with_room.per_class[2]["support"] == 0


def test_macro_invariant_under_simultaneous_relabeling():
    rng = np.random.default_rng(41)
    truth = rng.integers(0, 4, size=200)
    predicted = rng.integers(0, 4, size=200)
    base = compute_metrics(truth, predicted, 4)
    perm = rng.permutation(4)
    swapped = compute_metrics(perm[truth], perm[predicted], 4)
    assert macro(base) == pytest.approx(macro(swapped), abs=1e-12)


def test_macro_f1_brackets_per_class_scores():
    rng = np.random.default_rng(43)
    for _ in range(20):
        truth = rng.integers(0, 3, size=50)
        predicted = rng.integers(0, 3, size=50)
        report = compute_metrics(truth, predicted, 3)
        present = {k for k in range(3) if report.per_class[k]["support"] > 0}
        scores = [report.per_class[k]["f1"] for k in present]
        assert min(scores) - 1e-12 <= report.macro_f1 <= max(scores) + 1e-12
        assert 0.0 <= report.macro_f1 <= 1.0
