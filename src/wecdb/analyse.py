"""Similarity analytics over retrieval results.

The sentence-level baseline: a sentence is the arithmetic mean of its word
vectors, excluding stopwords (and, implicitly, out-of-vocabulary tokens,
which never produced a vector); sentence pairs are ranked by a pluggable
distance metric, cosine distance by default. Word-level analytics build a
token-by-token similarity matrix from two unit results and export it as
CSV or a dependency-free SVG heatmap.

All reductions accumulate in float64 regardless of the stored float32
vectors. Metrics are plain callables ``(vec, vec) -> float``; anything with
that shape (e.g. ``scipy.spatial.distance.cosine``) plugs in. Pairs whose
sentence vector is undefined, or for which the metric returns a non-finite
value or raises :class:`UndefinedDistanceError`, are reported in
``undefined_pairs`` instead of being ranked with a fabricated distance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import AnalysisError, UndefinedDistanceError
from .retrieve import RetrievalResult, UnitResult

Metric = Callable[[np.ndarray, np.ndarray], float]


@dataclass
class SentenceVector:
    vector: np.ndarray | None
    used_tokens: list[str]
    excluded: list[str]

    @property
    def defined(self) -> bool:
        return bool(self.used_tokens)


@dataclass
class DistanceRanking:
    """Per-WEC sorted ``(distance, sentence1, sentence2)`` triples."""

    per_wec: list[tuple[str, list[tuple[float, str, str]]]] = field(default_factory=list)
    undefined_pairs: dict[str, list[int]] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.per_wec)


def average_vector(
    pairs: Iterable[tuple[str, np.ndarray]], stopwords: Iterable[str] = ()
) -> SentenceVector:
    """Mean of the vectors whose word is not a stopword.

    Undefined (``defined=False``) when nothing remains. Raises
    :class:`AnalysisError` on mixed vector lengths.
    """
    stopset = set(stopwords)
    used: list[str] = []
    excluded: list[str] = []
    vectors: list = []
    for word, vec in pairs:
        if word in stopset:
            excluded.append(word)
        else:
            used.append(word)
            vectors.append(vec)
    if not used:
        return SentenceVector(vector=None, used_tokens=[], excluded=excluded)
    width = len(vectors[0])
    for word, vec in zip(used, vectors):
        if len(vec) != width:
            raise AnalysisError(f"mixed vector lengths: {width} vs {len(vec)} for {word!r}")
    # A C-contiguous (n, d) sum along axis 0 adds the rows in order, so the
    # float64 total is the same as a row-by-row loop's. A single column
    # (d == 1) would be summed pairwise instead, so it takes a running sum.
    stacked = np.array(vectors, dtype=np.float64)
    if width > 1:
        total = stacked.sum(axis=0)
    else:
        total = np.add.accumulate(stacked, axis=0)[-1]
    mean = (total / len(used)).astype(np.float32)
    return SentenceVector(vector=mean, used_tokens=used, excluded=excluded)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2], accumulated in float64."""
    return 1.0 - cosine_similarity(a, b)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise AnalysisError(f"vector length mismatch: {av.shape} vs {bv.shape}")
    na = math.sqrt(float(np.dot(av, av)))
    nb = math.sqrt(float(np.dot(bv, bv)))
    if na == 0.0 or nb == 0.0:
        raise UndefinedDistanceError("cosine undefined for zero-norm vector")
    return min(1.0, max(-1.0, float(np.dot(av, bv)) / (na * nb)))


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise AnalysisError(f"vector length mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))


METRICS: dict[str, tuple[Metric, bool]] = {
    # name -> (callable, is_similarity): similarity metrics rank best-first
    # only when reverse=True, as with any user-supplied similarity.
    "cosine": (cosine_distance, False),
    "euclidean": (euclidean_distance, False),
    "cosine-similarity": (cosine_similarity, True),
}


def _sentence_text(unit: UnitResult) -> str:
    return unit.raw if unit.raw else " ".join(unit.tokens)


def pairwise_distances(
    res1: RetrievalResult,
    res2: RetrievalResult,
    metric: Metric = cosine_distance,
    reverse: bool = False,
    stopwords: Iterable[str] = (),
) -> DistanceRanking:
    """Elementwise sentence-pair ranking over two retrieval results.

    ``res1`` and ``res2`` must cover the same WECs in the same order with
    equal unit counts; unit i of one pairs with unit i of the other. Sorted
    ascending by distance (descending with ``reverse=True``, for similarity
    metrics), ties broken by sentence text.
    """
    if res1.identifiers() != res2.identifiers():
        raise AnalysisError(
            f"WEC sets differ: {res1.identifiers()} vs {res2.identifiers()}"
        )
    stopset = set(stopwords)
    ranking = DistanceRanking()
    for (norm, units1), (_, units2) in zip(res1.per_wec, res2.per_wec):
        if len(units1) != len(units2):
            raise AnalysisError(
                f"unit counts differ for {norm!r}: {len(units1)} vs {len(units2)}"
            )
        triples: list[tuple[float, str, str]] = []
        skipped: list[int] = []
        for index, (u1, u2) in enumerate(zip(units1, units2)):
            s1 = average_vector(u1.pairs, stopset)
            s2 = average_vector(u2.pairs, stopset)
            if not s1.defined or not s2.defined:
                skipped.append(index)
                continue
            try:
                d = float(metric(s1.vector, s2.vector))
            except UndefinedDistanceError:
                skipped.append(index)
                continue
            if not math.isfinite(d):
                skipped.append(index)
                continue
            triples.append((d, _sentence_text(u1), _sentence_text(u2)))
        triples.sort(key=lambda t: (-t[0] if reverse else t[0], t[1], t[2]))
        ranking.per_wec.append((norm, triples))
        if skipped:
            ranking.undefined_pairs[norm] = skipped
    return ranking


def write_ranking(ranking_rows: Sequence[tuple[float, str, str]], path: str | Path) -> None:
    """One ``distance<TAB>sentence1<TAB>sentence2`` line per pair, 6 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for distance, s1, s2 in ranking_rows:
            fh.write(f"{distance:.6f}\t{s1}\t{s2}\n")


def similarity_matrix(
    u1: UnitResult, u2: UnitResult, metric: Metric = cosine_similarity
) -> np.ndarray:
    """Cell (i, j) = metric(u1 vector i, u2 vector j).

    Rows follow ``u1.pairs``, columns ``u2.pairs`` (the exact lookup words,
    so joined phrases label their own rows). Errors on empty sides or
    mismatched dimensionality.
    """
    if not u1.pairs or not u2.pairs:
        raise AnalysisError("similarity matrix needs at least one vector on each side")
    v1 = u1.vectors()
    v2 = u2.vectors()
    if len(v1[0]) != len(v2[0]):
        raise AnalysisError(
            f"dimension mismatch: {len(v1[0])} vs {len(v2[0])} (different WECs?)"
        )
    out = np.empty((len(v1), len(v2)), dtype=np.float64)
    for i, a in enumerate(v1):
        for j, b in enumerate(v2):
            out[i, j] = metric(a, b)
    return out


def export_heatmap(
    matrix: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    path: str | Path,
    format: str = "csv",
) -> Path:
    """Write a labelled heatmap as CSV (6-decimal cells) or SVG.

    The SVG contains exactly rows x cols ``<rect>`` cells, filled on a
    linear grayscale over [min, max] of the matrix with black at the
    maximum (all black when min == max).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise AnalysisError("heatmap matrix must be two-dimensional")
    if matrix.shape != (len(row_labels), len(col_labels)):
        raise AnalysisError(
            f"matrix shape {matrix.shape} does not match labels"
            f" ({len(row_labels)} rows, {len(col_labels)} cols)"
        )
    path = Path(path)
    if format == "csv":
        _export_csv(matrix, row_labels, col_labels, path)
    elif format == "svg":
        _export_svg(matrix, row_labels, col_labels, path)
    else:
        raise AnalysisError(f"unknown heatmap format {format!r}")
    return path


def _export_csv(matrix, row_labels, col_labels, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(col_labels))
        for label, row in zip(row_labels, matrix):
            writer.writerow([label] + [f"{v:.6f}" for v in row])


def read_heatmap_csv(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col_labels = rows[0][1:]
    row_labels = [r[0] for r in rows[1:]]
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    return matrix, row_labels, col_labels


_CELL = 28
_GUTTER = 110


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _export_svg(matrix, row_labels, col_labels, path) -> None:
    n_rows, n_cols = matrix.shape
    lo = float(matrix.min())
    hi = float(matrix.max())
    span = hi - lo
    width = _GUTTER + n_cols * _CELL + 10
    height = _GUTTER + n_rows * _CELL + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        '<style>text { font: 11px sans-serif; }</style>',
    ]
    for i in range(n_rows):
        for j in range(n_cols):
            t = 1.0 if span == 0.0 else (matrix[i, j] - lo) / span
            shade = round(255 * (1.0 - t))
            x = _GUTTER + j * _CELL
            y = _GUTTER + i * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}"'
                f' fill="rgb({shade},{shade},{shade})">'
                f"<title>{matrix[i, j]:.6f}</title></rect>"
            )
    for i, label in enumerate(row_labels):
        y = _GUTTER + i * _CELL + _CELL * 0.65
        parts.append(
            f'<text x="{_GUTTER - 6}" y="{y:.1f}" text-anchor="end">'
            f"{_svg_escape(label)}</text>"
        )
    for j, label in enumerate(col_labels):
        x = _GUTTER + j * _CELL + _CELL * 0.65
        parts.append(
            f'<text x="{x:.1f}" y="{_GUTTER - 6}" text-anchor="start"'
            f' transform="rotate(-60 {x:.1f} {_GUTTER - 6})">{_svg_escape(label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
