import csv
import math
import random
import re
from xml.etree import ElementTree

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
from wecdb.analyse import (
    METRICS,
    _cosine_distance_rows,
    _cosine_similarity_rows,
    _euclidean_distance_rows,
    _unit_means,
    euclidean_distance,
    read_heatmap_csv,
)
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


def test_one_string_of_stopwords_is_refused_not_read_as_its_letters():
    # "the" would drop the words "t", "h" and "e", and keep "the"
    pairs = [("the", _vec(9, 9)), ("t", _vec(5, 5)), ("net", _vec(1, 1))]
    left, right = _unit(pairs, raw="the t net"), _unit([("net", (1, 1))], raw="net")
    with pytest.raises(AnalysisError, match="stopwords must be a collection of words"):
        average_vector(pairs, stopwords="the")
    with pytest.raises(AnalysisError, match="stopwords must be a collection of words"):
        pairwise_distances(_result("w", [left]), _result("w", [right]), stopwords="the")
    assert average_vector(pairs, stopwords=["the"]).excluded == ["the"]


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


_SPECIAL = np.array([-0.0, np.inf, -np.inf, np.nan], dtype=np.float32)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(
    dims=st.integers(1, 300),
    other_dims=st.integers(1, 300),
    rows=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_batched_means_match_row_by_row_loop(dims, other_dims, rows, seed):
    # Every unit of a WEC averaged at once: same bytes as the row loop per
    # unit, with stopwords, -0.0, +-inf and NaN components, two widths, and
    # one array object shared by several units (as retrieval shares them).
    # A NaN's sign is not compared: IEEE 754 leaves it open, and numpy's own
    # add gives inf + -inf then + NaN different signs in its vector loop and
    # its scalar tail, so it varies with the position in a row.
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(dims).astype(np.float32)
    units = []
    for n in rows:
        width = dims if rng.random() < 0.8 else other_dims
        scales = 10.0 ** rng.integers(-6, 7, size=(n, 1))
        vectors = (rng.standard_normal((n, width)) * scales).astype(np.float32)
        special = rng.random((n, width)) < 0.02
        vectors[special] = rng.choice(_SPECIAL, size=int(special.sum()))
        pairs = [(f"w{rng.integers(0, 6)}", vec) for vec in vectors]
        if width == dims and n:
            pairs[int(rng.integers(0, n))] = ("shared", shared)
        units.append(pairs)
    stopwords = {"w0", "w1"}
    hand_built = [UnitResult(raw="", tokens=[], pairs=pairs, missing=[]) for pairs in units]
    width, means = _unit_means(hand_built, stopwords)
    got = [None if w < 0 else means[w][i] for i, w in enumerate(width.tolist())]
    assert len(got) == len(units)
    for pairs, vector in zip(units, got):
        want = _loop_average(pairs, stopwords)
        sv = average_vector(pairs, stopwords)
        if want is None:
            assert vector is None
            assert not sv.defined and sv.vector is None
        else:
            assert vector.dtype == np.float32
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(vector), nan)
            assert vector[~nan].tobytes() == want[~nan].tobytes()
        assert sv.used_tokens == [w for w, _ in pairs if w not in stopwords]
        assert sv.excluded == [w for w, _ in pairs if w in stopwords]


def _reference_ranking(side1, side2, vectors, stopwords, metric, in_order):
    """Ranking from a sequential row loop and per-pair metric calls, with
    each unit's words found the way retrieval documents them."""
    triples, undefined = [], []
    for index, (tokens1, tokens2) in enumerate(zip(side1, side2)):
        means = []
        for tokens in (tokens1, tokens2):
            seq = tokens if in_order else list(dict.fromkeys(tokens))
            pairs = [(w, vectors[w]) for w in seq if w in vectors]
            means.append(_loop_average(pairs, stopwords))
        try:
            d = None if means[0] is None or means[1] is None else metric(*means)
        except UndefinedDistanceError:
            d = None
        if d is None or not math.isfinite(d):
            undefined.append(index)
        else:
            triples.append((d, " ".join(tokens1), " ".join(tokens2)))
    triples.sort()
    return triples, undefined


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("in_order", [False, True])
@pytest.mark.parametrize("dims", [1, 2, 50, 300])
def test_ranking_through_a_store_matches_a_row_loop_bytewise(db, tmp_path, dims, in_order):
    # Retrieved units are averaged straight from the store's matrix; their
    # distances must have the bytes of a per-pair metric over row-loop means.
    rng = np.random.default_rng(dims)
    vocab = [f"w{i}" for i in range(150)]
    scales = 10.0 ** rng.integers(-6, 7, size=(len(vocab), 1))
    matrix = (rng.standard_normal((len(vocab), dims)) * scales).astype(np.float32)
    special = rng.random(matrix.shape) < 0.02
    matrix[special] = rng.choice([-0.0, 1e-40, -3e-42], size=int(special.sum()))  # subnormals
    matrix[-3:, 0] = [np.nan, np.inf, -np.inf]
    vectors = dict(zip(vocab, matrix))
    text = "".join(f"{w} {' '.join(repr(float(x)) for x in v)}\n" for w, v in vectors.items())
    (tmp_path / "v.txt").write_text(text, encoding="utf-8")
    ident = f"algo:x;dataset:bytes;dims:{dims};fold:0;unit:token"
    db.import_from_file(tmp_path / "v.txt", ident)
    stopwords = set(vocab[:10])

    def unit(n):
        tokens = [vocab[i] for i in rng.choice(np.arange(10, len(vocab)), n, replace=False)]
        for extra in ("w0", "w1", "oov", tokens[0] if tokens else "w2"):
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), extra)
        return tokens

    lengths = [0, 1, 7, 8, 9, 60] * 3
    side1 = [unit(n) for n in lengths for _ in lengths[:6]]
    side2 = [unit(n) for _ in lengths for n in lengths[:6]]
    res1, res2 = (
        db.get_vectors(ident, None, inputs=side, raw=False, in_order=in_order)
        for side in (side1, side2)
    )
    for metric in (cosine_distance, euclidean_distance):
        ranking = pairwise_distances(res1, res2, metric=metric, stopwords=stopwords)
        want, undefined = _reference_ranking(side1, side2, vectors, stopwords, metric, in_order)
        got = ranking.per_wec[0][1]
        assert [(d.hex(), a, b) for d, a, b in got] == [(d.hex(), a, b) for d, a, b in want]
        assert ranking.undefined_pairs.get(ident, []) == undefined
        assert got and undefined

    # The same units in other arrangements: shuffled, a subset, one unit
    # repeated, units of both calls on one side, and hand-built units among them.
    pool_tokens = side1 + side2
    pool_units = res1.per_wec[0][1] + res2.per_wec[0][1]
    n, m = len(side1), len(side1) // 3
    subset1, subset2 = rng.choice(n, m, replace=False), n + rng.choice(n, m, replace=False)
    arrangements = [
        (rng.permutation(n), n + rng.permutation(n), ()),
        (subset1, subset2, ()),
        ([*subset1, subset1[0]], [*subset2, subset2[1]], ()),
        (rng.choice(2 * n, m), rng.choice(2 * n, m), ()),
        (subset1, rng.choice(2 * n, m), set(rng.choice(2 * n, n, replace=False).tolist())),
    ]

    def arranged(picks, by_hand):
        units = []
        for k in picks:
            tokens = pool_tokens[k]
            if k not in by_hand:
                units.append(pool_units[k])
                continue
            seq = tokens if in_order else list(dict.fromkeys(tokens))
            pairs = [(w, vectors[w]) for w in seq if w in vectors]
            units.append(UnitResult(raw="", tokens=list(tokens), pairs=pairs, missing=[]))
        return _result(ident, units)

    for left, right, by_hand in arrangements:
        left, right = np.asarray(left).tolist(), np.asarray(right).tolist()
        for metric in (cosine_distance, euclidean_distance):
            ranking = pairwise_distances(
                arranged(left, by_hand), arranged(right, by_hand), metric=metric,
                stopwords=stopwords,
            )
            want, undefined = _reference_ranking(
                [pool_tokens[k] for k in left], [pool_tokens[k] for k in right],
                vectors, stopwords, metric, in_order,
            )
            got = ranking.per_wec[0][1]
            assert [(d.hex(), a, b) for d, a, b in got] == [(d.hex(), a, b) for d, a, b in want]
            assert ranking.undefined_pairs.get(ident, []) == undefined



def test_ranking_iterates_per_wec_as_the_readme_loop_does():
    res1 = _result("w", [_unit([("a", (1, 0))], raw="a")])
    res2 = _result("w", [_unit([("b", (0, 1))], raw="b")])
    ranking = pairwise_distances(res1, res2)
    got = [(ident, distance, s1, s2) for ident, rows in ranking for distance, s1, s2 in rows]
    assert got == [("w", 1.0, "a", "b")]


def test_hand_built_unit_ranks_by_its_current_vectors():
    # Nothing is kept on a hand-built unit between calls: a vector changed
    # in place, or a pair replaced, shows in the next ranking.
    left, right = _unit([("a", (1, 0))]), _unit([("b", (1, 0)), ("c", (1, 0))])
    res1, res2 = _result("w", [left]), _result("w", [right])
    assert pairwise_distances(res1, res2).per_wec[0][1] == [(0.0, "a", "b c")]
    right.pairs[1][1][:] = (0, 1)
    want = cosine_distance(_vec(1, 0), _vec(0.5, 0.5))
    assert pairwise_distances(res1, res2).per_wec[0][1] == [(want, "a", "b c")]
    right.pairs[0] = ("b", _vec(0, 1))
    assert pairwise_distances(res1, res2).per_wec[0][1] == [(1.0, "a", "b c")]

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("metric", [cosine_distance, cosine_similarity])
def test_non_finite_component_makes_the_cosine_undefined(metric, bad):
    # min(1, max(-1, nan)) is -1.0, so a NaN cosine once came out as a
    # distance of 2.0; inf gave the same through inf / inf.
    with pytest.raises(UndefinedDistanceError):
        metric(np.array([bad, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(UndefinedDistanceError):
        metric(_vec(1, 1), _vec(1, bad))


def test_euclidean_of_a_non_finite_vector_is_nan_or_inf():
    assert math.isnan(euclidean_distance(np.array([np.nan, 1.0]), _vec(1, 1)))
    assert euclidean_distance(np.array([np.inf, 1.0]), _vec(1, 1)) == math.inf
    assert euclidean_distance(_vec(1, 1), np.array([1.0, -np.inf])) == math.inf
    # a - b overflows although both vectors are finite
    with np.errstate(over="ignore"):
        assert euclidean_distance(np.array([1e308, 0.0]), np.array([-1e308, 0.0])) == math.inf


def test_cosine_of_a_norm_past_float64_range_is_undefined():
    # ||a|| overflows to inf, so dot / norms would read 0 for parallel vectors.
    with pytest.raises(UndefinedDistanceError):
        cosine_distance(np.array([1e300, 1e300]), np.array([1.0, 1.0]))


def test_non_finite_sentence_vector_goes_to_undefined_pairs():
    lefts = [_unit([("a", (np.nan, 1))], raw="nan"), _unit([("b", (1, 1))], raw="ok"),
             _unit([("c", (np.inf, 1))], raw="inf")]
    rights = [_unit([("d", (1, 1))], raw=f"r{i}") for i in range(3)]
    for name, (metric, _) in METRICS.items():
        ranking = pairwise_distances(_result("w", lefts), _result("w", rights), metric=metric)
        assert ranking.undefined_pairs == {"w": [0, 2]}, name
        assert [s for _, s, _ in ranking.per_wec[0][1]] == ["ok"], name


_KERNELS = [
    (_cosine_distance_rows, cosine_distance),
    (_cosine_similarity_rows, cosine_similarity),
    (_euclidean_distance_rows, euclidean_distance),
]


@pytest.mark.parametrize("kernel, per_pair", _KERNELS)
def test_row_kernels_do_not_depend_on_batch_size(kernel, per_pair):
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 260))
        d = int(rng.integers(1, 320))
        a = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        b = rng.standard_normal((n, d))
        a[rng.random((n, d)) < 0.001] = np.nan
        b[rng.random(n) < 0.02] = 0.0  # zero-norm rows
        whole = kernel(a, b)
        assert whole.shape == (n,)
        start = int(rng.integers(0, n))
        stop = int(rng.integers(start + 1, n + 1))
        part = kernel(a[start:stop].copy(), b[start:stop].copy())
        assert part.tobytes() == whole[start:stop].tobytes()
        for i in rng.integers(0, n, size=3):
            one = kernel(a[i : i + 1].copy(), b[i : i + 1].copy())
            assert one.tobytes() == whole[i : i + 1].tobytes()
            try:
                value = per_pair(a[i], b[i])
            except UndefinedDistanceError:
                assert np.isnan(one[0])
            else:
                assert np.array([value]).tobytes() == one.tobytes()


@pytest.mark.parametrize("name", sorted(METRICS))
def test_batched_ranking_equals_per_pair_calls(name):
    metric, _ = METRICS[name]
    rng = np.random.default_rng(7)
    lefts, rights, expected, undefined = [], [], [], []
    for i in range(120):
        width = 5 if i % 4 else 3  # two widths, each pair of one width
        a = rng.standard_normal(width).astype(np.float32)
        b = rng.standard_normal(width).astype(np.float32)
        if i % 17 == 0:
            b[:] = 0.0
        lefts.append(UnitResult(raw=f"L{i:03d}", tokens=["x"], pairs=[("x", a)], missing=[]))
        rights.append(UnitResult(raw=f"R{i:03d}", tokens=["y"], pairs=[("y", b)], missing=[]))
        try:
            expected.append((metric(a, b), f"L{i:03d}", f"R{i:03d}"))
        except UndefinedDistanceError:
            undefined.append(i)
    ranking = pairwise_distances(_result("w", lefts), _result("w", rights), metric=metric)
    assert ranking.per_wec[0][1] == sorted(expected)
    assert ranking.undefined_pairs.get("w", []) == undefined == [
        i for i in range(120) if i % 17 == 0 and name != "euclidean"
    ]


def test_pair_of_different_widths_is_rejected_by_builtin_metrics():
    res1 = _result("w", [_unit([("a", (1, 0))]), _unit([("b", (1, 0))])])
    res2 = _result("w", [_unit([("c", (1, 0))]), _unit([("d", (1, 0, 0))])])
    for metric, _ in METRICS.values():
        with pytest.raises(AnalysisError, match="length mismatch"):
            pairwise_distances(res1, res2, metric=metric)
        with pytest.raises(AnalysisError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            metric(_vec(1, 0), _vec(1, 0, 0))


def test_user_metric_is_called_once_per_defined_pair_in_unit_order():
    lefts = [_unit([("a", (i + 1, 0))], raw=f"L{i}") for i in range(6)]
    lefts[2] = _unit([("the", (9, 9))], raw="L2")  # undefined after stopwords
    rights = [_unit([("b", (0, i + 1))], raw=f"R{i}") for i in range(6)]
    calls = []

    def metric(a, b):
        calls.append((a[0], b[1]))
        if a[0] == 4:
            raise UndefinedDistanceError("no")
        if a[0] == 5:
            return float("nan")
        return float(a[0])

    ranking = pairwise_distances(
        _result("w", lefts), _result("w", rights), metric=metric, stopwords={"the"}
    )
    assert calls == [(1, 1), (2, 2), (4, 4), (5, 5), (6, 6)]
    assert ranking.undefined_pairs == {"w": [2, 3, 4]}
    assert [d for d, *_ in ranking.per_wec[0][1]] == [1.0, 2.0, 6.0]


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


@pytest.mark.parametrize("name", sorted(METRICS))
def test_matrix_cells_equal_per_cell_calls_bitwise(name):
    metric, _ = METRICS[name]
    rng = np.random.default_rng(11)
    for rows, cols, dims in [(1, 1, 1), (3, 5, 50), (12, 9, 300), (7, 1, 7)]:
        u1 = UnitResult(raw="", tokens=[], missing=[], pairs=[
            (f"a{i}", rng.standard_normal(dims).astype(np.float32)) for i in range(rows)])
        u2 = UnitResult(raw="", tokens=[], missing=[], pairs=[
            (f"b{j}", rng.standard_normal(dims).astype(np.float32)) for j in range(cols)])
        batched = similarity_matrix(u1, u2, metric=metric)
        per_cell = similarity_matrix(u1, u2, metric=lambda a, b: metric(a, b))
        assert batched.shape == (rows, cols)
        assert batched.tobytes() == per_cell.tobytes()


def test_matrix_with_an_undefined_cell_raises_like_the_per_cell_metric():
    u1 = _unit([("a", (1, 2)), ("zero", (0, 0))])
    u2 = _unit([("b", (2, 1))])
    with pytest.raises(UndefinedDistanceError):
        similarity_matrix(u1, u2, metric=lambda a, b: cosine_similarity(a, b))
    with pytest.raises(UndefinedDistanceError):
        similarity_matrix(u1, u2, metric=cosine_similarity)
    assert similarity_matrix(u1, u2, metric=euclidean_distance)[1, 0] == pytest.approx(
        math.sqrt(5)
    )


def test_matrix_keeps_a_non_finite_euclidean_cell():
    u1 = _unit([("a", (1, 2)), ("nan", (np.nan, 0)), ("inf", (np.inf, 0))])
    u2 = _unit([("b", (2, 1))])
    m = similarity_matrix(u1, u2, metric=euclidean_distance)
    assert m[0, 0] == pytest.approx(math.sqrt(2))
    assert math.isnan(m[1, 0])
    assert m[2, 0] == math.inf


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


RED, WHITE, BLACK = "rgb(255,0,0)", "rgb(255,255,255)", "rgb(0,0,0)"


@pytest.mark.parametrize("cells, fills, titles", [
    ([np.nan, -np.inf, 1.0, 3.0], [RED, RED, WHITE, BLACK], ["nan", "-inf", "1.000000", "3.000000"]),
    ([np.nan, -np.inf, np.inf, np.nan], [RED] * 4, ["nan", "-inf", "inf", "nan"]),
])
def test_svg_grayscale_spans_the_finite_cells_and_marks_the_rest(tmp_path, cells, fills, titles):
    path = tmp_path / "h.svg"
    export_heatmap(np.array(cells).reshape(2, 2), ["a", "b"], ["c", "d"], path, format="svg")
    found = re.findall(r'fill="(rgb\([^)]*\))"><title>([^<]*)</title>', path.read_text())
    assert found == list(zip(fills, titles))


def test_svg_grayscale_spans_a_range_wider_than_float64(tmp_path):
    path = tmp_path / "h.svg"
    export_heatmap(np.array([[-1e308, 1e308, 0.0]]), ["r"], ["a", "b", "c"], path, format="svg")
    fills = re.findall(r'fill="(rgb\([^)]*\))"><title>', path.read_text())
    assert fills == [WHITE, BLACK, "rgb(128,128,128)"]


def test_export_rejects_label_shape_mismatch(tmp_path):
    with pytest.raises(AnalysisError, match="labels"):
        export_heatmap(np.eye(2), ["only-one"], ["a", "b"], tmp_path / "x.csv")


@pytest.mark.parametrize(
    "matrix, fmt, message",
    [
        (np.zeros(2), "csv", "must be two-dimensional"),
        (np.eye(2), "png", "unknown heatmap format 'png'"),
    ],
)
def test_export_rejects_a_bad_matrix_or_format(tmp_path, matrix, fmt, message):
    with pytest.raises(AnalysisError, match=message):
        export_heatmap(matrix, ["a", "b"], ["a", "b"], tmp_path / "x", format=fmt)
    assert not (tmp_path / "x").exists()


def test_svg_labels_are_escaped(tmp_path):
    path = tmp_path / "h.svg"
    export_heatmap(np.eye(1), ['a<b&"c">'], ["d'e"], path, format="svg")
    svg = path.read_text("utf-8")
    assert ">a&lt;b&amp;&quot;c&quot;&gt;</text>" in svg and ">d'e</text>" in svg
    # a character XML 1.0 cannot carry becomes U+FFFD; tab and LF stay
    labels = ["a\x01b\x1f\x00", "\ud800c\ufffe\uffff\t\n\U0001f600"]
    export_heatmap(np.eye(1), labels[:1], labels[1:], path, format="svg")
    texts = [t.text for t in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["a\ufffdb\ufffd\ufffd", "\ufffdc\ufffd\ufffd\t\n\U0001f600"]


def test_euclidean_metric():
    assert euclidean_distance(_vec(0, 0), _vec(3, 4)) == pytest.approx(5.0)
