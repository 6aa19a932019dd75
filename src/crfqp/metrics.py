"""Labeling quality metrics: per-class one-vs-rest scores and macro
averages over the classes present in the ground truth."""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["compute_metrics"]

# The scores of every class and their macro averages, in table order.
_COLUMNS = ("precision", "recall", "accuracy", "f1")


@dataclass(frozen=True)
class MetricsReport:
    macro_precision: float
    macro_recall: float
    macro_accuracy: float
    macro_f1: float
    per_class: dict = field(repr=False)


def confusion_matrix(truth, predicted, num_labels):
    """K x K counts with rows indexed by truth, columns by prediction."""
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ValueError("truth and predicted must be 1-D arrays of equal length")
    if truth.size == 0:
        raise ValueError("cannot score an empty labeling")
    for name, arr in (("truth", truth), ("predicted", predicted)):
        if arr.min() < 0 or arr.max() >= num_labels:
            raise ValueError(f"{name} labels must lie in [0, {num_labels})")
    counts = np.zeros((num_labels, num_labels), dtype=np.int64)
    np.add.at(counts, (truth, predicted), 1)
    return counts


def _safe_div(num, den):
    return num / den if den > 0 else 0.0


def compute_metrics(truth, predicted, num_labels):
    """One-vs-rest precision/recall/accuracy/F1 per class, macro-averaged
    over the classes that actually appear in the truth.  0/0 ratios
    (class never predicted, or precision+recall both zero) score 0.
    """
    counts = confusion_matrix(truth, predicted, num_labels)
    total = counts.sum()
    present = np.nonzero(counts.sum(axis=1) > 0)[0]

    per_class = {}
    for k in range(num_labels):
        tp = counts[k, k]
        fp = counts[:, k].sum() - tp
        fn = counts[k, :].sum() - tp
        tn = total - tp - fp - fn
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        accuracy = _safe_div(tp + tn, total)
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        per_class[k] = {
            "precision": precision,
            "recall": recall,
            "accuracy": accuracy,
            "f1": f1,
            "support": int(counts[k, :].sum()),
        }

    macro = {
        key: float(np.mean([per_class[k][key] for k in present])) for key in _COLUMNS
    }
    return MetricsReport(
        macro_precision=macro["precision"],
        macro_recall=macro["recall"],
        macro_accuracy=macro["accuracy"],
        macro_f1=macro["f1"],
        per_class=per_class,
    )
