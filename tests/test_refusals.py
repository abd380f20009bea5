"""Refusals of the store, the database and the phrase model: each check has
one place in wecdb, and each raise is reached here once."""

import re
import sqlite3

import pytest

from wecdb import PhraseModel, PipelineError, StoreError, WecdbError, train_phrase_model
from wecdb.phrases import apply_phrases_vocab
from wecdb.pipeline import build_pipeline
from wecdb.store import WecStore

from conftest import write_wec_text

IDENT = "algo:test;dataset:d;dims:3;fold:0;unit:token"


def _execute(db, sql, params):
    """Change the store of ``IDENT`` behind wecdb's back, through a plain connection."""
    with sqlite3.connect(db.catalog.store_path(db.catalog.require(IDENT))) as conn:
        conn.execute(sql, params)
    conn.close()


def test_contains_refuses_a_damaged_vector_as_get_does(db, tmp_path):
    write_wec_text(tmp_path / "wec.txt", ["a", "b"], dims=3)
    db.import_from_file(tmp_path / "wec.txt", IDENT)
    _execute(db, "UPDATE vectors SET vector = ? WHERE word = ?", (b"\0\0", "a"))
    message = re.escape("vector of 'a' is not 3 float32 values")
    for read in (db.get_vector, db.contains):
        with pytest.raises(StoreError, match=message):
            read(IDENT, "a")
    assert db.contains(IDENT, "b") and not db.contains(IDENT, "zz")


def test_pipeline_options_with_a_pipeline_are_refused(db, tmp_path):
    write_wec_text(tmp_path / "wec.txt", ["a"], dims=3)
    calls = [
        lambda **kw: db.register(IDENT, build_pipeline(), **kw),
        lambda **kw: db.import_from_file(tmp_path / "wec.txt", IDENT,
                                         pipeline=build_pipeline(), **kw),
    ]
    for call in calls:
        with pytest.raises(PipelineError,
                           match=re.escape("pipeline options (strip_special, tokenizer)")):
            call(tokenizer="whitespace", strip_special=True)
    assert db.catalog.list_entries() == []
    assert db.register(IDENT, build_pipeline(tokenizer="whitespace")).pipeline.serialize() \
        .startswith("tokenize(whitespace)")


def test_store_file_sqlite_cannot_open_is_refused_naming_it(tmp_path):
    with pytest.raises(StoreError, match=r"absent\.wec could not be read"):
        WecStore(tmp_path / "absent.wec")


def test_word_index_that_does_not_advance_is_refused(db, tmp_path):
    # a blob sorts after every text word, so the page of words ends in a non-word
    write_wec_text(tmp_path / "wec.txt", ["a", "b"], dims=3)
    db.import_from_file(tmp_path / "wec.txt", IDENT)
    _execute(db, "INSERT INTO vectors VALUES (?, ?)", (b"\1", bytes(12)))
    with pytest.raises(StoreError, match="its word index is out of order"):
        list(db.iterate_vocab(IDENT))


def _model_file(tmp_path):
    model = train_phrase_model([["petri", "net"]] * 3, threshold=0.0)
    path = tmp_path / "m.phr"
    model.save(path)
    return path


def test_phrase_model_file_keeps_its_delimiter_line(tmp_path):
    lines = _model_file(tmp_path).read_text("utf-8").splitlines()
    assert lines[:2] == ["# phrase model v1", "delimiter _"]
    assert PhraseModel.load(tmp_path / "m.phr").apply(["petri", "net"]) == ["petri_net"]


@pytest.mark.parametrize("delimiter", ["-", "%20", "__"])
def test_phrase_model_with_another_delimiter_is_refused_naming_its_line(tmp_path, delimiter):
    path = _model_file(tmp_path)
    path.write_text(path.read_text("utf-8").replace("delimiter _", f"delimiter {delimiter}"),
                    encoding="utf-8")
    with pytest.raises(WecdbError, match=rf"{re.escape(str(path))}:2: phrase delimiter"):
        PhraseModel.load(path)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: train_phrase_model([["a"]], discount=-1.0), "discount must be >= 0"),
        (lambda: train_phrase_model([["a"]], threshold=-1.0), "threshold must be >= 0"),
        (lambda: train_phrase_model([["a"]], passes=0), "passes must be >= 1"),
        (lambda: apply_phrases_vocab({"a_b"}.__contains__, ["a", "b"], max_len=1),
         "max_len must be >= 2"),
    ],
)
def test_phrase_parameters_out_of_range_are_refused(call, message):
    with pytest.raises(WecdbError, match=message):
        call()


def test_phrase_model_record_of_unknown_kind_is_refused_naming_its_line(tmp_path):
    path = _model_file(tmp_path)
    path.write_text(path.read_text("utf-8") + "t petri 1\n", encoding="utf-8")
    lineno = len(path.read_text("utf-8").splitlines())
    with pytest.raises(WecdbError, match=rf":{lineno}: unknown record 't'"):
        PhraseModel.load(path)



@pytest.mark.parametrize("name", ["discount", "threshold"])
def test_nan_phrase_parameter_is_refused(name):
    with pytest.raises(WecdbError, match=f"{name} must be >= 0"):
        train_phrase_model([["a"]], **{name: float("nan")})


@pytest.mark.parametrize(
    "record, message",
    [
        ("passes -2", "passes must be >= 1"),
        ("passes 0", "passes must be >= 1"),
        ("discount -5.0", "discount must be >= 0"),
        ("threshold nan", "threshold must be >= 0"),
        ("tokens -7", "tokens must be >= 0"),
        ("u petri -1", "count must be >= 1"),
        ("b petri net 0", "count must be >= 1"),
    ],
)
def test_phrase_model_record_out_of_range_is_refused_naming_its_line(tmp_path, record, message):
    path = _model_file(tmp_path)
    path.write_text(path.read_text("utf-8") + record + "\n", encoding="utf-8")
    lineno = len(path.read_text("utf-8").splitlines())
    with pytest.raises(WecdbError, match=rf"{re.escape(str(path))}:{lineno}: {message}"):
        PhraseModel.load(path)


def test_empty_phrase_model_loads(tmp_path):
    PhraseModel().save(tmp_path / "empty.phr")
    assert PhraseModel.load(tmp_path / "empty.phr") == PhraseModel()
