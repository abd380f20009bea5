import json
import re
import sqlite3
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wecdb import Database, PreprocessCache, StoreError, UnknownWecError, WecdbError
from wecdb.catalog import Catalog
from wecdb.pipeline import run_pipeline
from wecdb.store import WecStore

from conftest import write_wec_text

TOY = "algo:glove;dataset:toy;dims:4;fold:1;unit:token"


def test_single_wec_tokens_input(db, toy_wec):
    ident, expected = toy_wec
    res = db.get_vectors(ident, None, inputs=[["theory", "computation"]], raw=False)
    assert len(res) == 1
    norm, units = res.per_wec[0]
    assert norm == "algo:glove;dataset:toy;dims:4;fold:1;unit:token"
    assert len(units) == 1
    unit = units[0]
    assert unit.raw == ""
    assert unit.tokens == ["theory", "computation"]
    assert unit.words() == ["theory", "computation"]
    assert unit.missing == []
    assert unit.pairs[0][1].tobytes() == expected["theory"].tobytes()


def test_empty_unit(db, toy_wec):
    res = db.get_vectors(TOY, None, inputs=[[]], raw=False)
    unit = res.per_wec[0][1][0]
    assert unit.tokens == [] and unit.pairs == [] and unit.missing == []


def test_raw_input_runs_bound_pipeline(db, toy_wec):
    cache = PreprocessCache()
    res = db.get_vectors(TOY, cache, inputs=["Theory!"], raw=True)
    unit = res.per_wec[0][1][0]
    assert unit.raw == "Theory!"
    assert unit.tokens == ["theory", "!"]
    assert unit.words() == ["theory"]
    assert unit.missing == ["!"]


def test_raw_false_equals_raw_true_after_pipeline(db, toy_wec):
    raw_line = "Theory of Computation"
    entry = db.catalog.require(TOY)
    tokens = run_pipeline(entry.pipeline, raw_line)
    res_raw = db.get_vectors(TOY, None, inputs=[raw_line], raw=True)
    res_tok = db.get_vectors(TOY, None, inputs=[tokens], raw=False)
    u1 = res_raw.per_wec[0][1][0]
    u2 = res_tok.per_wec[0][1][0]
    assert u1.tokens == u2.tokens
    assert u1.words() == u2.words()
    assert u1.missing == u2.missing


def test_phrase_join_applies_on_raw_path(db, toy_wec):
    res = db.get_vectors(TOY, None, inputs=["Petri net analysis"], raw=True)
    unit = res.per_wec[0][1][0]
    assert unit.tokens == ["petri_net", "analysis"]
    assert "petri_net" in unit.words()


def test_in_order_repeats_duplicate_tokens(db, toy_wec):
    tokens = ["net", "petri", "net"]
    in_order = db.get_vectors(TOY, None, inputs=[tokens], raw=False, in_order=True)
    unit = in_order.per_wec[0][1][0]
    assert unit.words() == ["net", "petri", "net"]
    assert unit.pairs[0][1].tobytes() == unit.pairs[2][1].tobytes()
    unordered = db.get_vectors(TOY, None, inputs=[tokens], raw=False, in_order=False)
    unit2 = unordered.per_wec[0][1][0]
    assert sorted(unit2.words()) == ["net", "petri"]
    assert len(unit2.pairs) == 2


def test_pairs_and_missing_partition_tokens(db, toy_wec):
    tokens = ["theory", "nope", "net", "nope", "zzz"]
    res = db.get_vectors(TOY, None, inputs=[tokens], raw=False)
    unit = res.per_wec[0][1][0]
    assert set(unit.words()) | set(unit.missing) == set(unit.tokens)
    assert unit.missing == ["nope", "zzz"]


def test_multi_wec_results_follow_expansion_order(db, tmp_path):
    words = ["alpha", "beta"]
    for dims in (2, 3):
        write_wec_text(tmp_path / f"w{dims}.txt", words, dims=dims)
        db.import_from_file(
            tmp_path / f"w{dims}.txt",
            f"algo:a;dataset:d;dims:{dims};fold:0;unit:token",
        )
    res = db.get_vectors(
        "algo:a;dataset:d;dims:{2,3};fold:0;unit:token", None,
        inputs=[["alpha"]], raw=False,
    )
    assert res.identifiers() == [
        "algo:a;dataset:d;dims:2;fold:0;unit:token",
        "algo:a;dataset:d;dims:3;fold:0;unit:token",
    ]
    assert [len(u.pairs[0][1]) for _, units in res for u in units] == [2, 3]


def test_unknown_wec_error_carries_identifier(db, toy_wec):
    with pytest.raises(UnknownWecError, match="dims:9"):
        db.get_vectors(
            "algo:glove;dataset:toy;dims:9;fold:1;unit:token", None,
            inputs=[["x"]], raw=False,
        )


def _three_wecs(db, tmp_path):
    for dims in (2, 3, 4):
        write_wec_text(tmp_path / f"w{dims}.txt", ["alpha", "beta"], dims=dims)
        db.import_from_file(
            tmp_path / f"w{dims}.txt", f"algo:a;dataset:d;dims:{dims};fold:0;unit:token"
        )


def test_multi_wec_call_reads_the_manifest_once(db, tmp_path, monkeypatch):
    _three_wecs(db, tmp_path)
    loads = []
    real_load = Catalog._load
    monkeypatch.setattr(Catalog, "_load", lambda self: loads.append(1) or real_load(self))
    res = db.get_vectors(
        "algo:a;dataset:d;dims:{2,3,4};fold:0;unit:token", None,
        inputs=["alpha gamma"], raw=True,
    )
    assert len(res) == 3
    assert len(loads) == 1


def test_unknown_last_wec_raises_before_any_store_opens(db, tmp_path, monkeypatch):
    _three_wecs(db, tmp_path)
    opens = []
    real_open = Database.open_store
    monkeypatch.setattr(
        Database, "open_store", lambda self, entry: opens.append(entry) or real_open(self, entry)
    )
    with pytest.raises(UnknownWecError) as exc:
        db.get_vectors(
            "algo:a;dataset:d;dims:{2,3,9};fold:0;unit:token", None,
            inputs=[["alpha"]], raw=False,
        )
    assert str(exc.value) == "no WEC registered as 'algo:a;dataset:d;dims:9;fold:0;unit:token'"
    assert opens == []


def _break_store(db, dims, how):
    """Damage the store of the three-WEC grid's ``dims`` WEC: give it a word
    whose value is not a vector, or delete its file."""
    entry = db.catalog.require(f"algo:a;dataset:d;dims:{dims};fold:0;unit:token")
    path = db.catalog.store_path(entry)
    if how == "bad row":
        conn = sqlite3.connect(path)
        conn.execute("INSERT INTO vectors VALUES ('gamma', x'00')")
        conn.commit()
        conn.close()
    else:
        path.unlink()


@pytest.mark.parametrize("first, second, message", [
    ("bad row", "missing", "vector of 'gamma' is not 2 float32 values"),
    ("missing", "bad row", "dims:2;fold:0;unit:token is missing"),
])
def test_the_first_failing_wec_raises_in_expansion_order(db, tmp_path, first, second, message):
    _three_wecs(db, tmp_path)
    _break_store(db, 2, first)
    _break_store(db, 3, second)
    before = threading.active_count()
    for raw in (False, True):
        with pytest.raises(StoreError, match=message):
            db.get_vectors("algo:a;dataset:d;dims:{2,3,4};fold:0;unit:token", None,
                           inputs=["alpha gamma"] if raw else [["alpha", "gamma"]], raw=raw)
        assert threading.active_count() == before


def test_a_multi_wec_call_reads_on_one_helper_thread_and_leaves_none(db, tmp_path, monkeypatch):
    _three_wecs(db, tmp_path)
    caller = threading.get_ident()
    starts, reads = [], []
    real_start, real_get_many = threading.Thread.start, WecStore.get_many
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(1) or real_start(self))
    monkeypatch.setattr(WecStore, "get_many", lambda self, words, pending=None: (
        reads.append((threading.get_ident(), pending is not None))
        or real_get_many(self, words, pending)))
    before = threading.active_count()
    res = db.get_vectors("algo:a;dataset:d;dims:{2,3,4};fold:0;unit:token", None,
                         inputs=["alpha gamma", "beta"], raw=True)
    assert [[u.words() for u in units] for _, units in res] == [[["alpha"], ["beta"]]] * 3
    assert starts == [1] and reads == [(caller, True)] * 3
    assert threading.active_count() == before
    starts.clear(), reads.clear()
    res = db.get_vectors("algo:a;dataset:d;dims:3;fold:0;unit:token", None,
                         inputs=[["beta", "alpha"]], raw=False)
    assert res.per_wec[0][1][0].words() == ["beta", "alpha"]
    assert starts == [] and reads == [(caller, False)]


@pytest.mark.parametrize("raw", [True, False])
def test_a_single_string_as_inputs_is_refused_before_any_store_opens(
    db, toy_wec, monkeypatch, raw
):
    opens = []
    real_open = Database.open_store
    monkeypatch.setattr(
        Database, "open_store", lambda self, entry: opens.append(entry) or real_open(self, entry)
    )
    with pytest.raises(WecdbError, match="not a single string"):
        db.get_vectors(TOY, None, inputs="theory net", raw=raw)
    assert opens == []


@pytest.mark.parametrize("raw", [True, False])
def test_units_of_the_other_shape_are_refused_before_any_store_opens(
    db, tmp_path, monkeypatch, raw
):
    _three_wecs(db, tmp_path)
    opens = []
    real_open = Database.open_store
    monkeypatch.setattr(
        Database, "open_store", lambda self, entry: opens.append(entry) or real_open(self, entry)
    )
    inputs, expected = {
        True: (["alpha", ["beta"]], "raw=True expects each input unit to be a string"),
        False: ([["alpha"], "beta"], "raw=False expects each input unit to be a token list"),
    }[raw]
    with pytest.raises(WecdbError, match=re.escape(expected)):
        db.get_vectors("algo:a;dataset:d;dims:{2,3};fold:0;unit:token", None,
                       inputs=inputs, raw=raw)
    assert opens == []


def test_result_entries_come_from_the_one_manifest_read(db, tmp_path):
    from wecdb.analyse import pairwise_distances
    from wecdb.retrieve import RetrievalResult

    _three_wecs(db, tmp_path)
    query = "algo:a;dataset:d;dims:{4,2,3};fold:0;unit:token"
    res = db.get_vectors(query, None, inputs=["alpha", "beta gamma"], raw=True)
    norms = [f"algo:a;dataset:d;dims:{d};fold:0;unit:token" for d in (4, 2, 3)]
    assert list(res.entries) == norms == res.identifiers()
    assert list(res.entries.values()) == db.catalog.require_all(norms)
    # slices built by hand, as ``wecdb sts`` makes them, carry no entries and still rank
    first = RetrievalResult([(norm, units[:1]) for norm, units in res])
    second = RetrievalResult([(norm, units[1:]) for norm, units in res])
    assert first.entries == {} and second.entries == {}
    ranking = pairwise_distances(first, second)
    assert [norm for norm, _ in ranking.per_wec] == norms
    assert all(len(rows) == 1 for _, rows in ranking.per_wec)


def test_shared_cache_hits_on_second_call(db, toy_wec):
    cache = PreprocessCache()
    inputs = ["Theory of computation", "Petri net analysis"]
    first = db.get_vectors(TOY, cache, inputs=inputs, raw=True)
    assert cache.hits == 0
    second = db.get_vectors(TOY, cache, inputs=inputs, raw=True)
    assert cache.hits == len(inputs)
    cold = db.get_vectors(TOY, None, inputs=inputs, raw=True)
    for (n1, u1), (n2, u2), (n3, u3) in zip(first, second, cold):
        assert n1 == n2 == n3
        for a, b, c in zip(u1, u2, u3):
            assert a.tokens == b.tokens == c.tokens
            assert a.words() == b.words() == c.words()


def test_cache_shared_between_wecs_with_identical_pipelines(db, tmp_path):
    words = ["same", "words"]
    for ds in ("one", "two"):
        write_wec_text(tmp_path / f"{ds}.txt", words, dims=2)
        db.import_from_file(
            tmp_path / f"{ds}.txt", f"algo:a;dataset:{ds};dims:2;fold:1;unit:token"
        )
    cache = PreprocessCache()
    db.get_vectors(
        "algo:a;dataset:one;dims:2;fold:1;unit:token&algo:a;dataset:two;dims:2;fold:1;unit:token",
        cache,
        inputs=["Same words"],
        raw=True,
    )
    # second WEC shares the first's pipeline hash, so it hits
    assert cache.hits == 1
    assert cache.misses == 1


def test_as_tuple_false_returns_bare_vectors(db, toy_wec):
    res = db.get_vectors(TOY, None, inputs=[["theory", "net"]], raw=False, as_tuple=False)
    unit = res.per_wec[0][1][0]
    assert all(isinstance(v, np.ndarray) for v in unit.pairs)
    with_words = db.get_vectors(TOY, None, inputs=[["theory", "net"]], raw=False)
    for bare, (word, vec) in zip(unit.pairs, with_words.per_wec[0][1][0].pairs):
        assert bare.tobytes() == vec.tobytes()



@pytest.mark.parametrize("dims", [2, 3])
def test_bare_vector_results_keep_their_words_for_analysis(db, tmp_path, dims):
    # as_tuple shapes only ``pairs``: words, vectors, sentence rankings and
    # similarity matrices of a bare-vector result match the tuple result.
    from wecdb import cosine_similarity, pairwise_distances, similarity_matrix
    from wecdb.retrieve import RetrievalResult

    write_wec_text(tmp_path / "w.txt", ["a", "b", "c", "d"], dims=dims)
    ident = f"algo:x;dataset:shape;dims:{dims};fold:0;unit:token"
    db.import_from_file(tmp_path / "w.txt", ident)
    inputs = [["a", "b"], ["c", "zz", "a"], ["d", "d"], ["b", "c", "d"]]
    tuples, bare = (
        db.get_vectors(ident, None, inputs=inputs, raw=False, as_tuple=shape).per_wec[0][1]
        for shape in (True, False)
    )
    assert [len(unit.pairs) for unit in bare] == [2, 2, 1, 3]  # pairs read before words()
    for t, b in zip(tuples, bare):
        assert b.words() == t.words()
        assert [v.tobytes() for v in b.vectors()] == [v.tobytes() for v in t.vectors()]
        assert [v.tobytes() for v in b.pairs] == [v.tobytes() for _, v in t.pairs]
    assert bare[0].words() == ["a", "b"]

    def ranking(units, stopwords):
        halves = (RetrievalResult([(ident, units[:2])]), RetrievalResult([(ident, units[2:])]))
        return pairwise_distances(*halves, stopwords=stopwords)

    for stopwords in ((), {"a"}):
        got, want = ranking(bare, stopwords), ranking(tuples, stopwords)
        assert got.per_wec == want.per_wec and got.undefined_pairs == want.undefined_pairs
        assert len(want.per_wec[0][1]) == 2
    got = similarity_matrix(bare[1], bare[3], metric=cosine_similarity)
    want = similarity_matrix(tuples[1], tuples[3], metric=cosine_similarity)
    assert got.shape == (2, 3) and got.tobytes() == want.tobytes()

def test_units_of_one_call_share_read_only_vectors(db, toy_wec):
    from wecdb import pairwise_distances
    from wecdb.retrieve import RetrievalResult, UnitResult

    _, expected = toy_wec
    inputs = [["theory", "net"], ["net", "petri", "zzz"], ["theory"]]
    res = db.get_vectors(TOY, None, inputs=inputs, raw=False)
    units = res.per_wec[0][1]
    vectors = [v for unit in units for v in unit.vectors()]
    assert vectors and not any(v.flags.writeable for v in vectors)
    assert units[0].pairs[1][1] is units[1].pairs[0][1]
    assert units[0].pairs[0][1] is units[2].pairs[0][1]
    assert [unit.words() for unit in units] == [["theory", "net"], ["net", "petri"], ["theory"]]
    assert res.to_jsonable() == {"results": [{"identifier": TOY, "units": [
        {"raw": "", "tokens": tokens, "missing": [t for t in tokens if t not in expected],
         "pairs": [[t, expected[t].tolist()] for t in tokens if t in expected]}
        for tokens in inputs
    ]}]}
    bare = db.get_vectors(TOY, None, inputs=inputs, raw=False, as_tuple=False)
    assert [[v.tobytes() for v in unit.pairs] for unit in bare.per_wec[0][1]] == [
        [expected[t].tobytes() for t in tokens if t in expected] for tokens in inputs
    ]

    # A unit built by hand ranks like the retrieved unit it copies, also
    # beside retrieved units whose pairs were never read.
    fresh = db.get_vectors(TOY, None, inputs=inputs, raw=False).per_wec[0][1]
    by_hand = [UnitResult(raw="", tokens=list(u.tokens), pairs=[(w, expected[w]) for w in
                          u.words()], missing=list(u.missing)) for u in units]
    lefts = RetrievalResult([(TOY, fresh[:2])])
    for rights in ([fresh[1], by_hand[2]], by_hand[1:]):
        got = pairwise_distances(lefts, RetrievalResult([(TOY, rights)]))
        want = pairwise_distances(lefts, RetrievalResult([(TOY, fresh[1:])]))
        assert got.per_wec == want.per_wec and len(got.per_wec[0][1]) == 2


def test_one_shot_inputs_reach_every_wec(db, tmp_path):
    for fold in (0, 1):
        write_wec_text(tmp_path / f"f{fold}.txt", ["a", "b"], dims=2)
        db.import_from_file(
            tmp_path / f"f{fold}.txt", f"algo:g;dataset:d;dims:2;fold:{fold};unit:token"
        )
    res = db.get_vectors(
        "algo:g;dataset:d;dims:2;fold:{0,1};unit:token", None,
        inputs=(s for s in ["a b", "b"]), raw=True,
    )
    assert [[unit.words() for unit in units] for _, units in res] == [[["a", "b"], ["b"]]] * 2


def test_raw_flag_must_match_input_shape(db, toy_wec):
    with pytest.raises(WecdbError, match="raw=True"):
        db.get_vectors(TOY, None, inputs=[["tokens"]], raw=True)
    with pytest.raises(WecdbError, match="raw=False"):
        db.get_vectors(TOY, None, inputs=["a string"], raw=False)


def test_pipeline_error_carries_wec_identifier(db, tmp_path):
    import sys

    from wecdb import PipelineError
    from wecdb.pipeline import pipeline_for_identifier
    from wecdb.identifier import parse_identifier

    ident_text = "algo:x;dataset:broken;dims:2;fold:0;unit:token"
    ident = parse_identifier(ident_text)
    failing = pipeline_for_identifier(
        ident, external=(f'{sys.executable} -c "import sys; sys.exit(1)"', None)
    )
    write_wec_text(tmp_path / "b.txt", ["a"], dims=2)
    db.register(ident, failing)
    db.import_into(tmp_path / "b.txt", ident_text)
    with pytest.raises(PipelineError, match="dataset:broken"):
        db.get_vectors(ident_text, None, inputs=["anything"], raw=True)


def test_jsonable_round_trip(db, toy_wec):
    res = db.get_vectors(TOY, None, inputs=["Petri net theory"], raw=True)
    doc = res.to_jsonable()
    parsed = json.loads(json.dumps(doc))
    assert parsed == doc
    assert parsed["results"][0]["identifier"] == TOY
    unit = parsed["results"][0]["units"][0]
    assert set(unit) == {"raw", "tokens", "pairs", "missing"}


def test_jsonable_reads_the_pair_shape_from_the_result(db, toy_wec):
    _, expected = toy_wec
    docs = [
        db.get_vectors(TOY, None, inputs=["Petri net theory"], raw=True, as_tuple=shape)
        .to_jsonable()
        for shape in (True, False)
    ]
    tuples, bare = (doc["results"][0]["units"][0]["pairs"] for doc in docs)
    assert [w for w, _ in tuples] == ["petri_net", "theory"]
    assert bare == [v for _, v in tuples]
    assert bare == [expected[w].tolist() for w in ("petri_net", "theory")]
    assert json.loads(json.dumps(docs)) == docs


# -- batched retrieval against the per-unit reference --------------------------

_JOIN = "algo:eq;dataset:join;dims:3;fold:0;unit:token"
_MODEL = "algo:eq;dataset:model;dims:3;fold:0;unit:token"
_PLAIN = "algo:eq;dataset:plain;dims:3;fold:0;unit:token"
_EQ_QUERY = "algo:eq;dataset:{join,model,plain};dims:3;fold:0;unit:token"
_EQ_VOCAB = ["a", "b", "c", "d", "a_b", "b_c", "a_b_c", "c_d", "d_a", "b_c_d"]


@pytest.fixture(scope="module")
def eq_db(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eq")
    write_wec_text(tmp / "v.txt", _EQ_VOCAB, dims=3)
    database = Database(tmp / "catalog", create_if_missing=True)
    database.import_from_file(tmp / "v.txt", _JOIN, vocab_join_max_len=3)
    database.import_from_file(tmp / "v.txt", _MODEL)
    database.train_phrases(["a b"] * 30 + ["c"] * 5, _MODEL, threshold=1.0)
    database.import_from_file(tmp / "v.txt", _PLAIN)
    yield database
    database.close()


def _reference_unit(db, norm, unit, raw, in_order):
    """Plain per-unit lookup, ``(raw, tokens, pairs, missing)``: pipeline,
    then the WEC's join, then one ``store.get`` per token (per distinct
    token unless ``in_order``); missing tokens once each, first seen first."""
    entry = db.catalog.require(norm)
    tokens = db.join_phrases(entry, run_pipeline(entry.pipeline, unit)) if raw else list(unit)
    store = db.open_store(entry)
    pairs, missing = [], []
    for token in tokens if in_order else dict.fromkeys(tokens):
        vector = store.get(token)
        if vector is not None:
            pairs.append((token, vector))
        elif token not in missing:
            missing.append(token)
    return (unit if raw else "", tokens, pairs, missing)


@given(
    units=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "zz"]), max_size=8),
                   max_size=6),
    raw=st.booleans(),
    in_order=st.booleans(),
    as_tuple=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_batched_retrieval_equals_per_unit_reference(eq_db, units, raw, in_order, as_tuple):
    inputs = [" ".join(u) for u in units] if raw else units
    res = eq_db.get_vectors(_EQ_QUERY, None, inputs=inputs, raw=raw, in_order=in_order,
                            as_tuple=as_tuple)
    assert res.identifiers() == [_JOIN, _MODEL, _PLAIN]
    for norm, got_units in res:
        assert len(got_units) == len(inputs)
        for unit, got in zip(inputs, got_units):
            want_raw, want_tokens, want_pairs, want_missing = _reference_unit(
                eq_db, norm, unit, raw, in_order
            )
            assert (got.raw, got.tokens, got.missing) == (want_raw, want_tokens, want_missing)
            want_pairs = [(w, v.tobytes()) for w, v in want_pairs]
            assert got.words() == [w for w, _ in want_pairs]
            assert [v.tobytes() for v in got.vectors()] == [v for _, v in want_pairs]
            if as_tuple:
                assert [(w, v.tobytes()) for w, v in got.pairs] == want_pairs
            else:
                assert [v.tobytes() for v in got.pairs] == [v for _, v in want_pairs]


def test_retrained_phrase_model_replaces_the_cached_one(db, tmp_path):
    # Retraining keeps the model's file name; the database that retrained
    # must not go on joining with the model it cached before.
    write_wec_text(tmp_path / "v.txt", _EQ_VOCAB, dims=3)
    db.import_from_file(tmp_path / "v.txt", _MODEL)
    db.train_phrases(["a b"] * 30 + ["c"] * 5, _MODEL, threshold=1.0)
    assert db.join_phrases(db.catalog.require(_MODEL), ["a", "b", "c"]) == ["a_b", "c"]
    db.train_phrases(["b c"] * 30 + ["a"] * 5, _MODEL, threshold=1.0)
    assert db.join_phrases(db.catalog.require(_MODEL), ["a", "b", "c"]) == ["a", "b_c"]
    res = db.get_vectors(_MODEL, None, inputs=["a b c"], raw=True)
    assert res.per_wec[0][1][0].tokens == ["a", "b_c"]


def test_a_call_looks_up_each_phrase_model_once(db, tmp_path, monkeypatch):
    # every unit of one call joins by one model version, however many units
    write_wec_text(tmp_path / "v.txt", _EQ_VOCAB, dims=3)
    other = "algo:eq;dataset:other;dims:3;fold:0;unit:token"
    for ident in (_MODEL, other, _PLAIN):
        db.import_from_file(tmp_path / "v.txt", ident)
    for ident in (_MODEL, other):
        db.train_phrases(["a b"] * 30 + ["c"] * 5, ident, threshold=1.0)
    lookups = []
    phrase_model = Database._phrase_model

    def counted(self, entry):
        lookups.append(entry.normalized)
        return phrase_model(self, entry)

    monkeypatch.setattr(Database, "_phrase_model", counted)
    query = "algo:eq;dataset:{model,other,plain};dims:3;fold:0;unit:token"
    for _ in range(2):
        res = db.get_vectors(query, None, inputs=["a b c"] * 50, raw=True)
        assert all(u.tokens == ["a_b", "c"] for _, units in res.per_wec[:2] for u in units)
    assert lookups == [_MODEL, other] * 2
    db.get_vectors(query, None, inputs=[["a", "b"]] * 50)
    assert lookups == [_MODEL, other] * 2
