import csv
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wecdb import (
    AnalysisError,
    UndefinedDistanceError,
    average_vector,
    cosine_distance,
    cosine_similarity,
    export_heatmap,
    pairwise_distances,
    similarity_matrix,
)
from wecdb.analyse import euclidean_distance, read_heatmap_csv
from wecdb.retrieve import RetrievalResult, UnitResult


def _vec(*values):
    return np.array(values, dtype=np.float32)


def _unit(pairs, raw="", missing=()):
    return UnitResult(
        raw=raw,
        tokens=[w for w, _ in pairs] + list(missing),
        pairs=[(w, _vec(*v)) for w, v in pairs],
        missing=list(missing),
    )


def _result(ident, units):
    return RetrievalResult(per_wec=[(ident, units)])


# -- average_vector -----------------------------------------------------------


def test_average_is_arithmetic_mean():
    sv = average_vector([("a", _vec(1, 2)), ("b", _vec(3, 4))])
    assert sv.defined
    assert sv.vector.tolist() == [2.0, 3.0]
    assert sv.used_tokens == ["a", "b"]


def test_average_excludes_stopwords():
    sv = average_vector([("the", _vec(9, 9)), ("net", _vec(1, 1))], stopwords={"the"})
    assert sv.vector.tolist() == [1.0, 1.0]
    assert sv.excluded == ["the"]


def test_average_undefined_when_all_stopwords():
    sv = average_vector([("the", _vec(9, 9))], stopwords={"the"})
    assert not sv.defined
    assert sv.vector is None


def _loop_average(pairs, stopwords):
    """Reference: the row-by-row float64 accumulation the README specifies."""
    total = None
    n = 0
    for word, vec in pairs:
        if word in stopwords:
            continue
        v = np.asarray(vec, dtype=np.float64)
        total = v.copy() if total is None else total + v
        n += 1
    return None if total is None else (total / n).astype(np.float32)


@given(
    dims=st.sampled_from([1, 2, 3, 7, 50, 300]),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_average_matches_row_by_row_loop(dims, n, seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-6, 7, size=(n, 1))
    vectors = (rng.standard_normal((n, dims)) * scales).astype(np.float32)
    words = [f"w{rng.integers(0, 6)}" for _ in range(n)]
    pairs = list(zip(words, vectors))
    stopwords = {"w0", "w1"}
    sv = average_vector(pairs, stopwords)
    want = _loop_average(pairs, stopwords)
    if want is None:
        assert not sv.defined and sv.vector is None
    else:
        assert sv.vector.tobytes() == want.tobytes()
    assert sv.used_tokens == [w for w in words if w not in stopwords]


def test_average_of_one_dimensional_vectors_adds_in_order():
    # With nine or more values a plain 1-D sum switches to pairwise
    # summation; here that rounds 1e16 + 1 and -1e16 + 1 apart and gives 0.
    values = [1e16, 1.0, -1e16, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    pairs = [(f"w{i}", np.array([v])) for i, v in enumerate(values)]
    sv = average_vector(pairs)
    assert sv.vector.tobytes() == _loop_average(pairs, set()).tobytes()
    assert sv.vector[0] == np.float32(1.0 / 9)


def test_average_rejects_mixed_lengths():
    with pytest.raises(AnalysisError, match="mixed"):
        average_vector([("a", _vec(1, 2)), ("b", _vec(1, 2, 3))])


def test_average_of_duplicated_pairs_is_unchanged():
    pairs = [("a", _vec(1, 5)), ("b", _vec(3, 7))]
    once = average_vector(pairs)
    twice = average_vector(pairs + pairs)
    assert np.allclose(once.vector, twice.vector)


# -- cosine -------------------------------------------------------------------


def test_cosine_identical_vectors_is_zero():
    v = _vec(1, 2, 3)
    assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-7)


def test_cosine_orthogonal_is_one():
    assert cosine_distance(_vec(1, 0), _vec(0, 1)) == pytest.approx(1.0)


def test_cosine_formula_value():
    assert cosine_distance(_vec(1, 1), _vec(1, 0)) == pytest.approx(
        1 - 1 / math.sqrt(2), abs=1e-7
    )


def test_cosine_zero_norm_raises():
    with pytest.raises(UndefinedDistanceError):
        cosine_distance(_vec(0, 0), _vec(1, 2))


def test_cosine_agrees_with_float64_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = rng.normal(size=8).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        a64 = a.astype(np.float64)
        b64 = b.astype(np.float64)
        reference = 1.0 - (a64 * b64).sum() / (
            math.sqrt((a64 * a64).sum()) * math.sqrt((b64 * b64).sum())
        )
        assert abs(cosine_distance(a, b) - reference) < 1e-6


def test_cosine_range_clamped():
    a = _vec(1, 1, 1)
    assert 0.0 <= cosine_distance(a, a) <= 2.0
    assert 0.0 <= cosine_distance(a, -a) <= 2.0
    assert cosine_distance(a, -a) == pytest.approx(2.0)


# -- pairwise_distances --------------------------------------------------------


def _three_pair_fixture():
    lefts = [
        _unit([("a", (1, 0))], raw="s1-left"),
        _unit([("b", (1, 1))], raw="s2-left"),
        _unit([("c", (0, 1))], raw="s3-left"),
    ]
    rights = [
        _unit([("d", (1, 0))], raw="s1-right"),
        _unit([("e", (1, 0))], raw="s2-right"),
        _unit([("f", (1, 0))], raw="s3-right"),
    ]
    return _result("wec:one", lefts), _result("wec:one", rights)


def test_ranking_matches_brute_force_oracle():
    res1, res2 = _three_pair_fixture()
    ranking = pairwise_distances(res1, res2)
    # oracle: compute all three distances exhaustively and sort
    expected = sorted(
        [
            (cosine_distance(_vec(1, 0), _vec(1, 0)), "s1-left", "s1-right"),
            (cosine_distance(_vec(1, 1), _vec(1, 0)), "s2-left", "s2-right"),
            (cosine_distance(_vec(0, 1), _vec(1, 0)), "s3-left", "s3-right"),
        ]
    )
    got = ranking.per_wec[0][1]
    assert [s for _, s, _ in got] == [s for _, s, _ in expected]
    for (d1, *_), (d2, *_) in zip(got, expected):
        assert d1 == pytest.approx(d2)


def test_identical_sentences_rank_first():
    res1, res2 = _three_pair_fixture()
    ranking = pairwise_distances(res1, res2)
    top = ranking.per_wec[0][1][0]
    assert top[0] == pytest.approx(0.0)
    assert top[1] == "s1-left"


def test_reverse_orders_descending():
    res1, res2 = _three_pair_fixture()
    fwd = pairwise_distances(res1, res2)
    rev = pairwise_distances(res1, res2, reverse=True)
    assert [d for d, *_ in rev.per_wec[0][1]] == sorted(
        [d for d, *_ in fwd.per_wec[0][1]], reverse=True
    )


def test_stopword_and_oov_tokens_excluded_from_average():
    left = _unit([("the", (9, 9)), ("cat", (1, 0))], raw="the cat", missing=["OOVWORD"])
    right = _unit([("cat", (1, 0))], raw="cat")
    ranking = pairwise_distances(
        _result("w", [left]), _result("w", [right]), stopwords={"the"}
    )
    assert ranking.per_wec[0][1][0][0] == pytest.approx(0.0)


def test_undefined_pairs_reported_not_ranked():
    left = _unit([("the", (9, 9))], raw="all stopwords")
    right = _unit([("cat", (1, 0))], raw="cat")
    ok_left = _unit([("dog", (1, 1))], raw="dog")
    ranking = pairwise_distances(
        _result("w", [left, ok_left]),
        _result("w", [right, right]),
        stopwords={"the"},
    )
    assert ranking.undefined_pairs == {"w": [0]}
    rows = ranking.per_wec[0][1]
    assert len(rows) == 1
    assert len(rows) + len(ranking.undefined_pairs["w"]) == 2


def test_nonfinite_metric_value_goes_to_undefined():
    res1, res2 = _three_pair_fixture()
    bad = lambda a, b: float("nan")
    ranking = pairwise_distances(res1, res2, metric=bad)
    assert ranking.undefined_pairs["wec:one"] == [0, 1, 2]


def test_wec_set_mismatch_rejected():
    res1, _ = _three_pair_fixture()
    other = _result("wec:other", [_unit([("a", (1, 0))])])
    with pytest.raises(AnalysisError, match="WEC sets differ"):
        pairwise_distances(res1, other)


def test_unit_count_mismatch_rejected():
    res1, res2 = _three_pair_fixture()
    res2.per_wec[0] = (res2.per_wec[0][0], res2.per_wec[0][1][:2])
    with pytest.raises(AnalysisError, match="unit counts"):
        pairwise_distances(res1, res2)


def test_ties_broken_by_sentence_text():
    u = _unit([("a", (1, 0))], raw="zz")
    v = _unit([("a", (1, 0))], raw="aa")
    w = _unit([("a", (1, 0))], raw="mm")
    res1 = _result("w", [u, v, w])
    res2 = _result("w", [u, v, w])
    ranking = pairwise_distances(res1, res2)
    assert [s for _, s, _ in ranking.per_wec[0][1]] == ["aa", "mm", "zz"]


def test_scale_invariance_of_cosine_ranking():
    rng = random.Random(5)
    units1 = [
        _unit([("w", (rng.uniform(0.1, 1), rng.uniform(0.1, 1)))], raw=f"L{i}")
        for i in range(10)
    ]
    units2 = [
        _unit([("w", (rng.uniform(0.1, 1), rng.uniform(0.1, 1)))], raw=f"R{i}")
        for i in range(10)
    ]
    scaled1 = [
        _unit([(w, tuple(3.5 * x for x in v))], raw=u.raw)
        for u in units1
        for (w, v) in [(u.pairs[0][0], tuple(u.pairs[0][1]))]
    ]
    base = pairwise_distances(_result("w", units1), _result("w", units2))
    scaled = pairwise_distances(_result("w", scaled1), _result("w", units2))
    assert [s for _, s, _ in base.per_wec[0][1]] == [s for _, s, _ in scaled.per_wec[0][1]]


# -- similarity_matrix ---------------------------------------------------------


def test_self_similarity_has_unit_diagonal():
    u = _unit([("a", (1, 2)), ("b", (3, 1)), ("c", (0, 2))])
    m = similarity_matrix(u, u, metric=cosine_similarity)
    assert m.shape == (3, 3)
    assert np.allclose(np.diag(m), 1.0, atol=1e-7)


def test_orthogonal_one_by_one():
    u1 = _unit([("x", (1, 0))])
    u2 = _unit([("y", (0, 1))])
    m = similarity_matrix(u1, u2, metric=cosine_similarity)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(0.0)


def test_matrix_matches_cellwise_oracle():
    u1 = _unit([("a", (1, 2)), ("b", (0.5, -1))])
    u2 = _unit([("c", (2, 2)), ("d", (1, 0)), ("e", (-1, 1))])
    m = similarity_matrix(u1, u2, metric=cosine_similarity)
    for i, (_, va) in enumerate(u1.pairs):
        for j, (_, vb) in enumerate(u2.pairs):
            assert m[i, j] == pytest.approx(cosine_similarity(va, vb))


def test_matrix_symmetry_under_transpose():
    u1 = _unit([("a", (1, 2)), ("b", (0.5, -1))])
    u2 = _unit([("c", (2, 2)), ("d", (1, 0))])
    m12 = similarity_matrix(u1, u2, metric=cosine_similarity)
    m21 = similarity_matrix(u2, u1, metric=cosine_similarity)
    assert np.allclose(m12, m21.T, atol=1e-6)


def test_matrix_rejects_empty_or_mismatched():
    u = _unit([("a", (1, 2))])
    empty = _unit([])
    with pytest.raises(AnalysisError, match="each side"):
        similarity_matrix(u, empty)
    other = _unit([("b", (1, 2, 3))])
    with pytest.raises(AnalysisError, match="dimension mismatch"):
        similarity_matrix(u, other)


def test_scipy_metric_plugs_in():
    scipy_distance = pytest.importorskip("scipy.spatial.distance")
    u1 = _unit([("a", (1, 2)), ("b", (3, 4))])
    u2 = _unit([("c", (5, 6))])
    ours = similarity_matrix(u1, u2, metric=cosine_distance)
    theirs = similarity_matrix(u1, u2, metric=scipy_distance.cosine)
    assert np.allclose(ours, theirs, atol=1e-6)


# -- heatmap export -------------------------------------------------------------


def test_csv_export_round_trips(tmp_path):
    m = np.array([[1.0, 0.25], [0.333333, 1.0]])
    path = tmp_path / "h.csv"
    export_heatmap(m, ["r1", "r2"], ["c1", "c2"], path, format="csv")
    back, rows, cols = read_heatmap_csv(path)
    assert rows == ["r1", "r2"] and cols == ["c1", "c2"]
    assert np.allclose(back, m, atol=1e-6)


def test_csv_identity_has_unit_diagonal_text(tmp_path):
    path = tmp_path / "h.csv"
    export_heatmap(np.eye(2), ["a", "b"], ["a", "b"], path, format="csv")
    text = path.read_text()
    assert text.count("1.000000") == 2


def test_csv_labels_with_commas_survive(tmp_path):
    path = tmp_path / "h.csv"
    export_heatmap(np.eye(1), ["a,b"], ["c,d"], path, format="csv")
    _, rows, cols = read_heatmap_csv(path)
    assert rows == ["a,b"] and cols == ["c,d"]


def test_svg_rect_count_equals_cells(tmp_path):
    m = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "h.svg"
    export_heatmap(m, ["r1", "r2"], ["c1", "c2", "c3"], path, format="svg")
    svg = path.read_text()
    assert svg.count("<rect ") == 6
    assert svg.count("<svg") == 1


def test_svg_grayscale_black_at_max(tmp_path):
    m = np.array([[0.0, 1.0]])
    path = tmp_path / "h.svg"
    export_heatmap(m, ["r"], ["lo", "hi"], path, format="svg")
    svg = path.read_text()
    assert 'fill="rgb(0,0,0)"' in svg  # max
    assert 'fill="rgb(255,255,255)"' in svg  # min


def test_export_rejects_label_shape_mismatch(tmp_path):
    with pytest.raises(AnalysisError, match="labels"):
        export_heatmap(np.eye(2), ["only-one"], ["a", "b"], tmp_path / "x.csv")


def test_euclidean_metric():
    assert euclidean_distance(_vec(0, 0), _vec(3, 4)) == pytest.approx(5.0)
