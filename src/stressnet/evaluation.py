"""Accuracy, weighted accuracy, confusion matrices, and PCA of the learned
nucleus-type embeddings.

Confusion matrices are 3x3 counts with rows = real label and columns =
predicted label, both in the order NonStress, Primary, Secondary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import Instances, require_gold
from .errors import AlignmentError, FormatError, InsufficientDimensions, LabelError
from .lexicon import NUCLEUS_TAGS, PAD_TYPE_INDEX

_CLASS_NAMES = ("Non stress", "Primary stress", "Secondary stress")


@dataclass
class EvalReport:
    accuracy: float
    weighted_accuracy: float | None
    confusion: np.ndarray                     # (3, 3) int64
    per_type_confusion: dict[str, np.ndarray]  # tag -> (3, 3) int64
    n_syllables: int
    n_words: int


def evaluate(predicted: np.ndarray, instances: Instances,
             weight_table: np.ndarray | None = None) -> EvalReport:
    """Score per-syllable predictions against gold labels.

    predicted holds one stress level per syllable, in the row order of
    the instances' arrays, which every scorer keeps; every syllable needs
    a gold label (LabelError otherwise), and a length other than the syllable
    count, or no syllable at all, is an AlignmentError. weighted_accuracy
    is weight-normalized correct mass, sum(w_i * correct_i) / sum(w_i)
    with w_i looked up by the syllable's nucleus type and real label; it
    is None without a weight table.
    """
    require_gold(instances)
    predicted = np.asarray(predicted)
    n_syllables = len(instances.labels)
    if predicted.shape != (n_syllables,):
        raise AlignmentError(f"predictions of shape {predicted.shape} for "
                             f"{n_syllables} syllables")
    if n_syllables == 0:
        raise AlignmentError("no syllables to score")
    if ((predicted < 0) | (predicted > 2)).any():
        raise LabelError("predictions must be stress levels 0, 1 or 2")
    types, real = instances.types, instances.labels
    # cell (type, real, predicted) of the per-type confusions
    n_types = len(NUCLEUS_TAGS)
    cells = np.bincount((types * 3 + real) * 3 + predicted,
                        minlength=n_types * 9).reshape(n_types, 3, 3)
    confusion = cells.sum(axis=0)
    accuracy = float(np.trace(confusion)) / n_syllables
    weighted = None
    if weight_table is not None:
        w = weight_table[types, real]
        # cumsum adds left to right, so the sums round as a loop's would
        weight_sum = float(np.cumsum(w)[-1])
        if weight_sum > 0:
            weighted = float(np.cumsum(w * (predicted == real))[-1]) / weight_sum
    per_type = {tag: cells[t] for t, tag in enumerate(NUCLEUS_TAGS)
                if cells[t].sum() > 0}
    return EvalReport(accuracy, weighted, confusion, per_type,
                      n_syllables, len(instances))


# --- PCA of type embeddings ---------------------------------------------------

@dataclass
class EmbeddingProjection:
    points: dict[str, np.ndarray]      # tag -> (n_components,) coordinates
    explained_variance: np.ndarray     # (n_components,) descending
    components: np.ndarray             # (D, n_components), orthonormal columns


def pca_type_embeddings(params: dict, n_components: int = 3,
                        ) -> EmbeddingProjection:
    """Principal components of the 16 learned type-embedding rows.

    Rows are centered (not scaled); the PAD row is excluded. The sign of
    each component is fixed so its largest-magnitude loading is positive,
    making the output deterministic.
    """
    if "E_type" not in params:
        raise InsufficientDimensions(
            "model has no type embeddings (not trained in all-features mode)")
    E = np.asarray(params["E_type"][:PAD_TYPE_INDEX], dtype=np.float64)
    D = E.shape[1]
    if D < n_components:
        raise InsufficientDimensions(
            f"embedding width {D} < {n_components} components")
    centered = E - E.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (E.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    variance = np.clip(eigvals[order], 0.0, None)
    components = eigvecs[:, order]
    for j in range(components.shape[1]):
        k = int(np.argmax(np.abs(components[:, j])))
        if components[k, j] < 0:
            components[:, j] = -components[:, j]
    coords = centered @ components
    points = {tag: coords[i] for i, tag in enumerate(NUCLEUS_TAGS)}
    return EmbeddingProjection(points, variance, components)


# --- rendering ----------------------------------------------------------------

def report_to_dict(report: EvalReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "weighted_accuracy": report.weighted_accuracy,
        "confusion": report.confusion.tolist(),
        "per_type_confusion": {
            tag: m.tolist() for tag, m in sorted(report.per_type_confusion.items())
        },
        "n_syllables": report.n_syllables,
        "n_words": report.n_words,
    }


def _matrix_lines(m: np.ndarray, indent: str = "  ") -> list[str]:
    width = max(len(name) for name in _CLASS_NAMES)
    cell = max(6, int(np.ceil(np.log10(max(m.max(), 1) + 1))) + 2)
    head = indent + " " * (width + 2) + "".join(
        f"{name[:cell - 1]:>{cell}}" for name in ("Non", "Prim", "Sec"))
    lines = [head]
    for r in range(3):
        row = "".join(f"{int(m[r, c]):>{cell}}" for c in range(3))
        lines.append(f"{indent}{_CLASS_NAMES[r]:<{width}}  {row}")
    return lines


def render_report(report: EvalReport, format: str = "text") -> str:
    """Human-readable tables or a machine-readable JSON document."""
    if format == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if format != "text":
        raise FormatError(f"unknown report format {format!r}")
    lines = [
        f"syllables scored : {report.n_syllables}",
        f"word instances   : {report.n_words}",
        f"accuracy         : {report.accuracy:.4%}",
    ]
    if report.weighted_accuracy is not None:
        lines.append(f"weighted accuracy: {report.weighted_accuracy:.4%}")
    lines.append("")
    lines.append("confusion (rows = real, columns = predicted):")
    lines.extend(_matrix_lines(report.confusion))
    lines.append("")
    if report.per_type_confusion:
        lines.append("per nucleus type:")
        for tag in NUCLEUS_TAGS:
            if tag not in report.per_type_confusion:
                continue
            lines.append(f" {tag}:")
            lines.extend(_matrix_lines(report.per_type_confusion[tag], "   "))
    else:
        lines.append("per nucleus type: (no per-type counts)")
    return "\n".join(lines) + "\n"
