"""Similarity analytics over retrieval results.

The sentence-level baseline: a sentence is the arithmetic mean of its word
vectors, excluding stopwords (and, implicitly, out-of-vocabulary tokens,
which never produced a vector); sentence pairs are ranked by a pluggable
distance metric, cosine distance by default. Word-level analytics build a
token-by-token similarity matrix from two unit results and export it as
CSV or a dependency-free SVG heatmap.

All reductions accumulate in float64 regardless of the stored float32
vectors. Metrics are plain callables ``(vec, vec) -> float``; anything with
that shape (e.g. ``scipy.spatial.distance.cosine``) plugs in. The built-in
metrics run as one array pass per WEC: all sentence means of a WEC in one
position-by-position sum, then one row-wise kernel call over all its pairs,
with the same bytes as the per-pair functions. Retrieved sentences are
summed straight from the read-only float32 matrix their WEC's store read
returned: the rows of all units of one read are gathered from the row
array of their batch in one step. The vectors of all hand-built units of
one width are stacked into one matrix for each call (nothing is stored on
the units) and go through the same sum. The means form one float32 matrix
per width, and each side of the pairs is taken from it with one float64
conversion. A user-supplied callable is called once per pair. Pairs whose
sentence vector is undefined, or for which the metric returns a non-finite
value or raises :class:`UndefinedDistanceError`, are reported in
``undefined_pairs`` instead of being ranked with a fabricated distance. A
NaN or infinite component makes every built-in undefined: the cosine
metrics raise (as they do on a zero norm), euclidean distance returns NaN
or inf.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import AnalysisError, UndefinedDistanceError
from .retrieve import RetrievalResult, UnitResult, _Batch

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
    pairs = list(pairs)
    stopset = set(stopwords)
    unit = UnitResult(raw="", tokens=[], pairs=pairs, missing=[])
    (width,), means = _unit_means([unit], stopset)
    vector = None if width < 0 else means[width][0]
    used = [w for w, _ in pairs if w not in stopset]
    return SentenceVector(vector, used, [w for w, _ in pairs if w in stopset])


def _unit_means(
    units: Sequence[UnitResult], stopset: set[str]
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Sentence vector of every unit, by width: ``(width, means)``.

    Unit i's vector is row i of the float32 matrix ``means[width[i]]``;
    ``width[i]`` is -1 where the vector is undefined. Retrieved units are
    grouped by the batch of their store read, and each group's rows come
    from one :meth:`~wecdb.retrieve._Batch.spans` call. Hand-built units are
    grouped by width, their pairs stacked for this call only (a vector
    changed between calls is read anew). Each group takes the stopword mask
    once per row of its matrix and goes to one :func:`_row_means`.
    """
    batches: dict[int, tuple[_Batch, list[int], list[int]]] = {}
    by_width: dict[int, tuple[list[int], list[tuple[str, np.ndarray]], list[int]]] = {}
    for i, unit in enumerate(units):
        batch = unit._batch
        if batch is not None:
            _, members, positions = batches.setdefault(id(batch), (batch, [], []))
            members.append(i)
            positions.append(unit._position)
            continue
        pairs = unit.pairs
        if not pairs:
            continue
        width = len(pairs[0][1])
        for word, vec in pairs:
            if len(vec) != width:
                raise AnalysisError(f"mixed vector lengths: {width} vs {len(vec)} for {word!r}")
        members, stacked, lengths = by_width.setdefault(width, ([], [], []))
        members.append(i)
        stacked += pairs
        lengths.append(len(pairs))
    groups = []
    for batch, members, positions in batches.values():
        groups.append((members, batch.found.matrix, batch.found.words, *batch.spans(positions)))
    for members, stacked, lengths in by_width.values():
        matrix = np.array([vec for _, vec in stacked])
        words = [word for word, _ in stacked]
        groups.append((members, matrix, words, np.arange(len(stacked)), lengths))
    width = np.full(len(units), -1, dtype=np.intp)
    means: dict[int, np.ndarray] = {}
    for members, matrix, words, rows, lengths in groups:
        unit_of = np.repeat(np.arange(len(members)), lengths)
        if stopset:
            stop = np.fromiter((w in stopset for w in words), dtype=bool, count=len(words))
            keep = ~stop[rows]
            rows, unit_of = rows[keep], unit_of[keep]
        vectors, counts = _row_means(matrix, rows, unit_of, len(members))
        defined = np.flatnonzero(counts)
        at = np.asarray(members)[defined]
        d = matrix.shape[1]
        if d not in means:
            means[d] = np.zeros((len(units), d), dtype=np.float32)
        means[d][at] = vectors[defined]
        width[at] = d
    return width, means


def _row_means(
    matrix: np.ndarray, rows: np.ndarray, unit_of: np.ndarray, n_units: int
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 mean of each unit's rows of ``matrix``, and each unit's row count.

    ``matrix[rows[j]]`` belongs to unit ``unit_of[j]``; ``unit_of`` is
    non-decreasing and each unit's rows come in the order they are added.
    With the units ordered longest first, the units that have a k-th row
    are a prefix, so row k of all of them is one gather and one float64
    add. Each sum starts from the first row, not from zeros
    (``0.0 + -0.0`` is ``+0.0``), so each mean has the bytes of a row-by-row
    loop at every width; ``np.add.reduceat`` does not promise that order.
    Temporaries stay at units x width. A unit without rows has count 0 and
    a zero row.
    """
    counts = np.bincount(unit_of, minlength=n_units)
    unit_in_slot = np.argsort(-counts, kind="stable")
    slot_of = np.empty(n_units, dtype=np.intp)
    slot_of[unit_in_slot] = np.arange(n_units)
    position = np.arange(len(rows)) - (np.cumsum(counts) - counts)[unit_of]
    rows = rows[np.argsort(position * n_units + slot_of[unit_of])]
    total = np.zeros((n_units, matrix.shape[1]))
    ends = np.cumsum(np.bincount(position)).tolist()
    if ends:
        total[: ends[0]] = matrix[rows[: ends[0]]]
        for start, end in zip(ends, ends[1:]):
            total[: end - start] += matrix[rows[start:end]]
    total /= np.maximum(counts[unit_in_slot], 1)[:, None]
    return total.astype(np.float32)[slot_of], counts


# Row kernels: (n, d) float64 arrays -> n values, non-finite where undefined
# (NaN for the cosine metrics). Row i of an n-row call equals a 1-row call
# bit for bit (einsum reduces each row on its own), so the per-pair
# functions below, which call their kernel on one row, and the batched path
# give the same bytes.


def _cosine_similarity_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dot = np.einsum("ij,ij->i", a, b)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a)) * np.sqrt(np.einsum("ij,ij->i", b, b))
    # A zero norm has no direction. A norm that is NaN or inf (a NaN or inf
    # entry, or a square sum past float64's range) leaves no cosine to trust.
    ok = np.isfinite(norms) & (norms > 0.0)
    cos = np.divide(dot, norms, out=np.full_like(dot, np.nan), where=ok)
    return np.clip(cos, -1.0, 1.0, out=cos)


def _cosine_distance_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 1.0 - _cosine_similarity_rows(a, b)


def _euclidean_distance_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a - b
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _one_row(kernel, a: np.ndarray, b: np.ndarray) -> float:
    av = np.ascontiguousarray(a, dtype=np.float64)
    bv = np.ascontiguousarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise AnalysisError(f"vector length mismatch: {av.shape} vs {bv.shape}")
    return float(kernel(av.reshape(1, -1), bv.reshape(1, -1))[0])


def _cosine_one_row(kernel, a: np.ndarray, b: np.ndarray) -> float:
    value = _one_row(kernel, a, b)
    if math.isnan(value):
        raise UndefinedDistanceError("cosine undefined for a zero-norm or non-finite vector")
    return value


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2], accumulated in float64."""
    return _cosine_one_row(_cosine_distance_rows, a, b)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """cos(a, b), in [-1, 1], accumulated in float64."""
    return _cosine_one_row(_cosine_similarity_rows, a, b)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||, accumulated in float64; NaN or inf for a non-finite input."""
    return _one_row(_euclidean_distance_rows, a, b)


METRICS: dict[str, tuple[Metric, bool]] = {
    # name -> (callable, is_similarity): similarity metrics rank best-first
    # only when reverse=True, as with any user-supplied similarity.
    "cosine": (cosine_distance, False),
    "euclidean": (euclidean_distance, False),
    "cosine-similarity": (cosine_similarity, True),
}

_ROW_KERNELS = (
    ("cosine_distance", _cosine_distance_rows),
    ("cosine_similarity", _cosine_similarity_rows),
    ("euclidean_distance", _euclidean_distance_rows),
)


def _row_kernel(metric: Metric):
    """The row kernel of a built-in metric, else None.

    The built-ins are looked up by their module names at call time, so a
    metric taken from :data:`METRICS` still matches after something (a
    tracer, a test) rebinds those names and the table's entries together.
    """
    names = globals()
    for name, kernel in _ROW_KERNELS:
        if metric is names[name]:
            return kernel
    return None


def _pair_rows(
    kernel, width: np.ndarray, means: dict[int, np.ndarray], left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """``kernel`` over the sentence vectors of units ``left[i]`` and
    ``right[i]`` (see :func:`_unit_means`), one call per width."""
    out = np.empty(len(left), dtype=np.float64)
    width_left, width_right = width[left], width[right]
    mismatch = np.flatnonzero(width_left != width_right)
    if len(mismatch):
        a, b = width_left[mismatch[0]], width_right[mismatch[0]]
        raise AnalysisError(f"vector length mismatch: ({a},) vs ({b},)")
    for d, matrix in means.items():
        at = np.flatnonzero(width_left == d)
        if len(at):
            out[at] = kernel(
                matrix[left[at]].astype(np.float64), matrix[right[at]].astype(np.float64)
            )
    return out


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
    metrics), ties broken by sentence text. The built-in metrics run as one
    row-kernel call per WEC; any other callable is called once per pair
    whose sentence vectors are both defined, in unit order.
    """
    if res1.identifiers() != res2.identifiers():
        raise AnalysisError(
            f"WEC sets differ: {res1.identifiers()} vs {res2.identifiers()}"
        )
    stopset = set(stopwords)
    kernel = _row_kernel(metric)
    ranking = DistanceRanking()
    for (norm, units1), (_, units2) in zip(res1.per_wec, res2.per_wec):
        if len(units1) != len(units2):
            raise AnalysisError(
                f"unit counts differ for {norm!r}: {len(units1)} vs {len(units2)}"
            )
        width, means = _unit_means([*units1, *units2], stopset)
        n = len(units1)
        defined = np.flatnonzero((width[:n] >= 0) & (width[n:] >= 0))
        distances = np.full(n, np.nan)
        if kernel is not None:
            distances[defined] = _pair_rows(kernel, width, means, defined, n + defined)
        else:
            w = width.tolist()
            for i in defined.tolist():
                try:
                    distances[i] = float(metric(means[w[i]][i], means[w[n + i]][n + i]))
                except UndefinedDistanceError:
                    pass
        triples: list[tuple[float, str, str]] = []
        skipped: list[int] = []
        for index, (d, u1, u2) in enumerate(zip(distances.tolist(), units1, units2)):
            if math.isfinite(d):
                triples.append((d, _sentence_text(u1), _sentence_text(u2)))
            else:
                skipped.append(index)
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
    v1, v2 = u1.vectors(), u2.vectors()
    if not v1 or not v2:
        raise AnalysisError("similarity matrix needs at least one vector on each side")
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


_QUOTE = {'"': "&quot;"}  # escape() replaces &, < and >; a label's '"' is replaced too


def _export_svg(matrix, row_labels, col_labels, path) -> None:
    # imported here: it imports urllib.request and ssl, ~7 MiB that only an SVG needs
    from xml.sax.saxutils import escape

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
            f"{escape(label, _QUOTE)}</text>"
        )
    for j, label in enumerate(col_labels):
        x = _GUTTER + j * _CELL + _CELL * 0.65
        parts.append(
            f'<text x="{x:.1f}" y="{_GUTTER - 6}" text-anchor="start"'
            f' transform="rotate(-60 {x:.1f} {_GUTTER - 6})">{escape(label, _QUOTE)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
