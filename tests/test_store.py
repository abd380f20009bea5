import os
import random
import re
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wecdb import (
    CatalogError,
    Database,
    DuplicateEntryError,
    DuplicateWordError,
    HeaderError,
    MalformedLineError,
    StoreError,
    WecdbError,
    WecImportError,
)
from wecdb.catalog import Catalog
from wecdb.pipeline import build_pipeline
from wecdb.store import WecStore, import_from_file, parse_vector_text

from conftest import write_wec_text

IDENT = "algo:test;dataset:d;dims:4;fold:0;unit:token"


def _store_files(db):
    return sorted(p.name for p in (db.root / "stores").iterdir())


def test_import_counts_three_lines(db, tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\nb 5 6 7 8\nc 9 10 11 12\n")
    writes = []
    write_manifest = Catalog._write_manifest

    def counted(self, entries):
        writes.append(entries)
        write_manifest(self, entries)

    monkeypatch.setattr(Catalog, "_write_manifest", counted)
    report = db.import_from_file(path, IDENT)
    assert len(writes) == 1  # registration and record count land in one manifest write
    assert report.imported == 3
    assert report.skipped_duplicates == 0
    assert report.malformed_lines == []
    assert db.vocab_size(IDENT) == 3
    # catalog entry tracks the store's record count
    assert db.catalog.lookup(IDENT).vocab_size == 3


def test_bit_exact_round_trip(db, tmp_path):
    words = [f"w{i}" for i in range(200)]
    expected = write_wec_text(tmp_path / "t.txt", words, dims=4, fmt="%.7g")
    # a root whose path must be quoted in the store's SQLite URI
    with Database(tmp_path / "cat a#b?c%20d", create_if_missing=True) as quoted:
        for database in (db, quoted):
            database.import_from_file(tmp_path / "t.txt", IDENT)
            for word, vec in expected.items():
                got = database.get_vector(IDENT, word)
                assert got.dtype == np.dtype("<f4")
                assert got.tobytes() == vec.tobytes(), word


def test_absent_word_returns_none_not_error(db, tmp_path):
    (tmp_path / "t.txt").write_text("a 1 2 3 4\n")
    db.import_from_file(tmp_path / "t.txt", IDENT)
    assert db.get_vector(IDENT, "zzz-not-present") is None


def test_lookup_is_case_literal(db, tmp_path):
    (tmp_path / "t.txt").write_text("theory 1 2 3 4\n")
    db.import_from_file(tmp_path / "t.txt", IDENT)
    assert db.get_vector(IDENT, "Theory") is None
    assert db.get_vector(IDENT, "theory") is not None


def test_duplicate_rejected_with_word_and_line(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("the 1 2 3 4\nnet 5 6 7 8\nthe 9 9 9 9\n")
    with pytest.raises(DuplicateWordError) as exc:
        db.import_from_file(path, IDENT)
    assert exc.value.word == "the"
    assert exc.value.line == 3
    # one-step register+import is all-or-nothing
    assert db.catalog.lookup(IDENT) is None
    assert _store_files(db) == []
    path.write_text("the 1 2 3 4\nnet 5 6 7 8\n")
    assert db.import_from_file(path, IDENT).imported == 2  # retry works


def test_reject_names_a_repeat_of_an_earlier_batch_after_new_words(tmp_path):
    from wecdb import store as store_mod

    assert store_mod._BATCH_ROWS == 4096
    lines = [f"w{i} {i} 0.5" for i in range(1, 4097)]  # the whole first batch
    lines += [f"new{i} {i} 1.5" for i in range(1, 11)]  # lines 4,097-4,106
    lines += ["w17 9 9", "new11 1 1"]  # line 4,107 repeats the word of line 17
    (tmp_path / "t.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(DuplicateWordError) as exc:
        import_from_file(tmp_path / "t.txt", tmp_path / "t.wec", 2)
    assert (exc.value.word, exc.value.line) == ("w17", 4107)


def test_failed_import_into_registered_wec_leaves_it_empty(db, tmp_path):
    db.register(IDENT)
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\na 5 6 7 8\n")
    with pytest.raises(DuplicateWordError):
        db.import_into(path, IDENT)
    # separately-made registration stays, still without a store file
    assert db.catalog.lookup(IDENT).vocab_size == 0
    assert db.vocab_size(IDENT) == 0
    assert _store_files(db) == []


def test_file_dims_inconsistent_with_identifier_dims(db, tmp_path):
    # identifier says 300-dim, file carries 50-wide vectors
    ident = "algo:test;dataset:wide;dims:300;fold:0;unit:token"
    path = tmp_path / "t.txt"
    rng = np.random.default_rng(1)
    path.write_text("w0 " + " ".join(f"{v:.4f}" for v in rng.uniform(-1, 1, 50)) + "\n")
    with pytest.raises(MalformedLineError, match="301 fields"):
        db.import_from_file(path, ident)


def test_keep_first_counts_duplicates(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("the 1 2 3 4\nnet 5 6 7 8\nthe 9 9 9 9\nnet 0 0 0 0\nnew 1 1 1 1\n")
    report = db.import_from_file(path, IDENT, on_duplicate="keep_first")
    assert report.imported == 3
    assert report.skipped_duplicates == 2
    # first occurrence wins
    assert db.get_vector(IDENT, "the").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_dimension_mismatch_is_fatal_by_default(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\nb 5 6 7\n")
    with pytest.raises(MalformedLineError, match="line 2"):
        db.import_from_file(path, IDENT)
    assert db.catalog.lookup(IDENT) is None
    assert _store_files(db) == []


def test_lenient_mode_records_malformed_lines(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\nb 5 6 7\n\nc x y z w\nd 1 1 1 1\n")
    report = db.import_from_file(path, IDENT, on_malformed="skip")
    assert report.imported == 2
    assert [line for line, _ in report.malformed_lines] == [2, 3, 4]
    reasons = [reason for _, reason in report.malformed_lines]
    assert "blank line" in reasons[1]
    assert report.imported + report.skipped_duplicates + len(report.malformed_lines) == 5


@pytest.mark.parametrize("line", [b"caf\xe9 1 2 3 4\n", b"cafe 1 2\xe9 3 4\n"])
def test_lenient_mode_skips_a_line_that_is_not_utf8(db, tmp_path, line):
    path = tmp_path / "t.txt"
    path.write_bytes(b"tea 1 2 3 4\n" + line)
    report = db.import_from_file(path, IDENT, on_malformed="skip")
    assert report.imported == 1
    assert report.malformed_lines == [(2, "not UTF-8 text (byte 0xe9)")]
    assert db.get_vector(IDENT, "tea").tolist() == [1, 2, 3, 4]


def test_header_autodetected_and_validated(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("2 4\na 1 2 3 4\nb 5 6 7 8\n")
    report = db.import_from_file(path, IDENT)
    assert report.imported == 2
    assert db.get_vector(IDENT, "2") is None


def test_header_dims_mismatch_rejected(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("2 300\na 1 2 3 4\n")
    with pytest.raises(HeaderError, match="300"):
        db.import_from_file(path, IDENT)
    assert db.catalog.lookup(IDENT) is None
    assert _store_files(db) == []


def test_expect_header_no_takes_first_line_as_data(db, tmp_path):
    # a dims-1 store whose first record looks like a header
    path = tmp_path / "t.txt"
    path.write_text("7 3\nx 1\n")
    ident = "algo:test;dataset:d;dims:1;fold:0;unit:token"
    report = db.import_from_file(path, ident, expect_header="no")
    assert report.imported == 2
    assert db.get_vector(ident, "7").tolist() == [3.0]


def test_expect_header_yes_requires_header(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\n")
    with pytest.raises(HeaderError):
        db.import_from_file(path, IDENT, expect_header="yes")
    path.write_text("1 4\na 1 2 3 4\n")
    assert db.import_from_file(path, IDENT, expect_header="yes").imported == 1
    assert db.get_vector(IDENT, "a").tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("option", ["on_duplicate", "expect_header", "on_malformed"])
def test_unknown_import_mode_is_refused_before_the_build(db, tmp_path, option):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\n")
    with pytest.raises(ValueError, match=f"invalid {option} .*'maybe'"):
        db.import_from_file(path, IDENT, **{option: "maybe"})
    assert db.catalog.lookup(IDENT) is None
    assert _store_files(db) == []


def test_words_keep_any_non_whitespace_bytes(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("petri_net 1 2 3 4\nüber-word 5 6 7 8\na,b=c.d 1 1 1 1\n")
    db.import_from_file(path, IDENT)
    assert db.contains(IDENT, "petri_net")
    assert db.contains(IDENT, "über-word")
    assert db.contains(IDENT, "a,b=c.d")


def test_store_smaller_than_text_at_typical_widths(db, tmp_path):
    # 300-d is the width of the paper's large collections; rows of 1,200 B
    # and more are where a B-tree layout can spill into overflow pages
    words = [f"word{i:05d}" for i in range(2000)]
    ratios = {}
    for dims in (50, 100, 200, 300, 768, 1024):
        write_wec_text(tmp_path / f"t{dims}.txt", words, dims=dims, fmt="%.5f")
        ident = f"algo:test;dataset:d;dims:{dims};fold:0;unit:token"
        report = db.import_from_file(tmp_path / f"t{dims}.txt", ident)
        assert report.bytes_store > 0
        ratios[dims] = report.bytes_store / report.bytes_text
    assert all(ratio < 1 for ratio in ratios.values()), ratios


def test_batch_lookup_dedups_and_orders(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\n")
    db.import_from_file(path, IDENT)
    found, missing = db.get_vectors_batch(IDENT, ["a", "qq", "a"])
    assert [w for w, _ in found] == ["a"]
    assert missing == ["qq"]
    found, missing = db.get_vectors_batch(IDENT, [])
    assert found == [] and missing == []
    found, missing = db.get_vectors_batch(IDENT, iter(["qq", "a"]))
    assert [w for w, _ in found] == ["a"] and missing == ["qq"]


def test_iterate_vocab_yields_sorted_words_on_both_formats(db, tmp_path):
    words = [f"tok{i}" for i in range(300)]
    random.Random(5).shuffle(words)
    vectors = write_wec_text(tmp_path / "t.txt", words, dims=4)
    old = "algo:test;dataset:old;dims:4;fold:0;unit:token"
    # an import always writes format 2, so the format-1 store is written directly
    rows = [(w, v.tobytes()) for w, v in vectors.items()]
    _write_format1_store(db.catalog.store_path(db.register(old)), 4, rows)
    db.import_from_file(tmp_path / "t.txt", IDENT)
    for ident, fmt in ((old, None), (IDENT, "2")):
        assert _meta(db.catalog.store_path(db.catalog.require(ident))).get("format") == fmt
        assert list(db.iterate_vocab(ident)) == sorted(words)


def test_iterate_vocab_streams_exact_word_set(db, tmp_path):
    words = [f"tok{i}" for i in range(500)]
    write_wec_text(tmp_path / "t.txt", words, dims=4)
    db.import_from_file(tmp_path / "t.txt", IDENT)
    assert set(db.iterate_vocab(IDENT)) == set(words)
    assert db.vocab_size(IDENT) == 500


def test_import_into_a_wec_with_records_is_refused_before_the_build(db, tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\n")
    db.import_from_file(path, IDENT)
    builds = []
    monkeypatch.setattr("wecdb.store.import_from_file", lambda *args, **kw: builds.append(args))
    with pytest.raises(WecImportError) as info:
        db.import_into(path, IDENT)
    store_file = db.catalog.require(IDENT).store_file
    assert type(info.value) is WecImportError
    assert str(info.value) == f"store {store_file} already contains records"
    assert builds == []


def test_reimport_into_populated_store_rejected(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\n")
    db.import_from_file(path, IDENT)
    with pytest.raises(WecImportError, match="already contains"):
        db.import_into(path, IDENT)
    with pytest.raises(FileExistsError):  # the store-level build never writes a taken path
        import_from_file(path, db.catalog.store_path(db.catalog.require(IDENT)), 4)
    assert db.vocab_size(IDENT) == 1
    # refusals that need no text come before the text file is opened
    missing = tmp_path / "missing.txt"
    with pytest.raises(DuplicateEntryError):
        db.import_from_file(missing, IDENT)
    other = "algo:test;dataset:other;dims:4;fold:0;unit:token"
    with pytest.raises(CatalogError, match="fold"):
        db.import_from_file(missing, other, pipeline=build_pipeline(case_fold=True))
    with pytest.raises(CatalogError, match="vocab_join_max_len"):
        db.import_from_file(missing, other, vocab_join_max_len=1)
    assert len(_store_files(db)) == 1


def test_unknown_wec_is_an_error(db):
    from wecdb import UnknownWecError

    with pytest.raises(UnknownWecError):
        db.get_vector(IDENT, "a")


def test_parse_vector_text_pins_float64_then_float32():
    import struct

    fields = ["0.28217", "-1.5e-3", "3", "6.02e23"]
    blob = parse_vector_text(fields)
    manual = b"".join(struct.pack("<f", float(f)) for f in fields)
    assert blob == manual


def test_persisted_store_reopens(tmp_path):
    path = tmp_path / "solo.wec"
    _write_store(path, 2, [("x", np.array([1, 2], dtype="<f4").tobytes())])
    with WecStore(path) as store:
        assert store.dims == 2
        assert store.get("x").tolist() == [1.0, 2.0]


def test_store_file_of_another_width_is_refused_naming_it(db, tmp_path):
    # dims:2 is the width every read of the WEC returns; a store file that
    # records 3-d rows is refused on open, whether a 2-d handle was cached or not
    two, three = (f"algo:test;dataset:d;dims:{d};fold:0;unit:token" for d in (2, 3))
    for ident, dims in ((two, 2), (three, 3)):
        write_wec_text(tmp_path / f"{dims}.txt", ["a", "b"], dims=dims)
        db.import_from_file(tmp_path / f"{dims}.txt", ident)
    assert db.get_vector(two, "a").shape == (2,)  # caches the 2-d handle
    path = db.catalog.store_path(db.catalog.require(two))
    copy = tmp_path / "three.wec"
    copy.write_bytes(db.catalog.store_path(db.catalog.require(three)).read_bytes())
    os.replace(copy, path)
    message = f"{re.escape(str(path))} records 3-d vectors, but {re.escape(two)} has dims:2"
    with Database(db.root) as fresh:
        for database in (db, fresh):
            reads = [
                lambda: database.get_vector(two, "a"),
                lambda: database.get_vectors(two, None, inputs=[["a", "b"]]),
                lambda: database.get_vectors_batch(two, ["a"]),
                lambda: database.contains(two, "a"),
            ]
            for read in reads:
                with pytest.raises(StoreError, match=message):
                    read()
            assert database.get_vector(three, "a").shape == (3,)


@given(
    dims=st.integers(1, 1100),
    count=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["%.5f", "%.9g", "%.17g", "%.3e"]),
)
@settings(max_examples=30, deadline=None)
def test_import_reads_back_bit_exact_at_any_width(tmp_path_factory, dims, count, seed, fmt):
    tmp = tmp_path_factory.mktemp("width")
    words = [f"w{i}" for i in range(count)]
    expected = write_wec_text(tmp / "v.txt", words, dims, np.random.default_rng(seed), fmt)
    ident = f"algo:test;dataset:d;dims:{dims};fold:0;unit:token"
    with Database(tmp / "catalog", create_if_missing=True) as database:
        assert database.import_from_file(tmp / "v.txt", ident).imported == count
        for word in words:
            assert database.get_vector(ident, word).tobytes() == expected[word].tobytes()
        res = database.get_vectors(ident, None, inputs=[words + ["absent"]])
        ((_, (unit,)),) = res
        assert unit.words() == words and unit.missing == ["absent"]
        assert [v.tobytes() for v in unit.vectors()] == [expected[w].tobytes() for w in words]


def test_get_many_uses_fixed_sql_texts(tmp_path):
    # A fixed set of statements keeps SQLite's per-connection statement
    # cache small whatever the batch size.
    import re

    words = [f"w{i:05d}" for i in range(6000)]
    _write_store(
        tmp_path / "s.wec",
        2,
        ((w, np.array([i, -i], dtype="<f4").tobytes()) for i, w in enumerate(words[:3000])),
    )
    with WecStore(tmp_path / "s.wec") as store:
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        # sizes on both sides of 16 and 256, which a fixed-size IN list
        # would fill only in part; a call binds its words once, as one value
        for n in (1, 16, 17, 272, 399, 400, 401, 5000):
            asked = words[3000 - (n + 1) // 2 :][:n]  # about half stored, half absent
            got = store.get_many(asked + asked[:7])
            stored = [w for w in asked if int(w[1:]) < 3000]
            assert sorted(got) == stored
            for w in stored:
                i = int(w[1:])
                assert got[w].tobytes() == np.array([i, -i], dtype="<f4").tobytes()
        store._conn.set_trace_callback(None)
    # the callback sees statements with their bound values filled in
    texts = {re.sub(r"'(?:[^']|'')*'|NULL", "?", s) for s in statements}
    assert 1 <= len(texts) <= 2


def test_get_many_returns_rows_of_one_read_only_matrix(tmp_path):
    rows = {"a": [1.0, -0.0, 2.5], "b": [3.0, 4.0, 1e-40]}
    path = tmp_path / "s.wec"
    _write_store(path, 3, ((w, np.array(v, dtype="<f4").tobytes()) for w, v in rows.items()))
    with WecStore(path) as store:
        got = store.get_many(["b", "zz", "a", "b"])
        assert len(got) == 2 and sorted(got) == ["a", "b"] and "zz" not in got
        assert got.matrix.shape == (2, 3) and not got.matrix.flags.writeable
        for word, values in rows.items():
            assert got[word].tobytes() == np.array(values, dtype="<f4").tobytes()
            assert got[word] is got[word] and np.shares_memory(got[word], got.matrix)
        with pytest.raises(KeyError):
            got["zz"]
        empty = store.get_many(["zz"])
        assert len(empty) == 0 and empty.matrix.shape == (0, 3)
        _execute(path, "INSERT INTO vectors VALUES (?, ?)", [("short", b"\0" * 8), ("int", 7),
                                                               ("text", "x" * 12)])
        for bad in ("short", "int", "text"):
            with pytest.raises(StoreError, match=f"'{bad}'"):
                store.get_many(["a", bad])
            with pytest.raises(StoreError, match=f"'{bad}'"):
                store.get(bad)
    _write_store(tmp_path / "no-dims.wec", 3)
    _execute(tmp_path / "no-dims.wec", "DELETE FROM meta WHERE key = 'dims'")
    with pytest.raises(StoreError, match="no-dims.wec records no vector width"):
        WecStore(tmp_path / "no-dims.wec")


def test_get_many_is_one_statement_per_call(tmp_path):
    words = [f"w{i:05d}" for i in range(5000)]
    _write_store(
        tmp_path / "s.wec",
        2,
        ((w, np.array([i, -i], dtype="<f4").tobytes()) for i, w in enumerate(words[::2])),
    )
    with WecStore(tmp_path / "s.wec") as store:
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        for n in (1, 256, 257, 5000):
            statements.clear()
            got = store.get_many(words[-n:])
            assert len(statements) == 1, (n, len(statements))
            assert sorted(got) == words[-n:][n % 2 :: 2]
        store._conn.set_trace_callback(None)


def test_get_many_reads_words_holding_nul_exactly(db, tmp_path):
    # JSON text cannot carry a NUL into SQLite: '["a\\u0000b"]' reads as 'a'
    words = ["a", "a\0b", "\0", "c\\u0000d", "b"]
    expected = write_wec_text(tmp_path / "t.txt", words, dims=4)
    db.import_from_file(tmp_path / "t.txt", IDENT)
    store = db.open_store(db.catalog.require(IDENT))
    for asked in (["a\0b"], ["a\0b", "zz"], ["\0", "a\0b", "a", "c\\u0000d", "zz"]):
        got = store.get_many(asked)
        assert sorted(got) == sorted(w for w in asked if w in expected)
        assert all(got[w].tobytes() == expected[w].tobytes() for w in got)
    for word in ("a\0b", "\0", "a"):
        assert store.get(word).tobytes() == expected[word].tobytes()
    assert store.get("a\0zz") is None
    pairs, missing = db.get_vectors_batch(IDENT, ["b", "a\0b", "zz", "\0"])
    assert [w for w, _ in pairs] == ["b", "a\0b", "\0"] and missing == ["zz"]
    assert all(vec.tobytes() == expected[w].tobytes() for w, vec in pairs)


def test_chunked_get_many_gives_the_same_rows(tmp_path, monkeypatch):
    from wecdb import store as store_mod

    words = [f"w{i:03d}" for i in range(40)] + ["a\0b"]
    _write_store(
        tmp_path / "s.wec", 2,
        ((w, np.array([i, -i], dtype="<f4").tobytes()) for i, w in enumerate(words[::2])),
    )
    asked = words[::-1] + ["zz", "w003", "a\0b"]
    with WecStore(tmp_path / "s.wec") as store:
        whole = store.get_many(asked)
        monkeypatch.setattr(store_mod, "_CHUNK_BYTES", 3 * 8)  # three 2-d vectors a chunk
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        chunked = store.get_many(asked)
        store._conn.set_trace_callback(None)
        # 41 distinct words without a NUL, in 14 chunks; the one with a NUL is read
        # by the row-by-row read, whose JSON array is then empty, and by itself
        assert len(statements) == 16
        assert chunked.words == whole.words and chunked.index == whole.index
        assert chunked.matrix.tobytes() == whole.matrix.tobytes()
        assert not chunked.matrix.flags.writeable
        _execute(tmp_path / "s.wec", "INSERT INTO vectors VALUES (?, ?)", [("w039", b"\0" * 4)])
        with pytest.raises(StoreError, match="'w039'"):
            store.get_many(asked)


def test_submitted_get_many_reads_on_the_executor_and_decodes_here(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    path = tmp_path / "s.wec"
    _write_store(path, 2, [("a", np.array([1, 2], dtype="<f4").tobytes()), ("b", b"\0" * 4)])
    with WecStore(path) as store, ThreadPoolExecutor(1) as helper:
        pending = store.submit_many(["zz", "a", "a"], helper)
        got = store.get_many(["zz", "a", "a"], pending=pending)
        assert got.words == ["a"] and got["a"].tolist() == [1.0, 2.0]
        pending = store.submit_many(["a", "b"], helper)
        with pytest.raises(StoreError, match="vector of 'b' is not 2 float32 values"):
            store.get_many(["a", "b"], pending=pending)


def test_store_in_a_utf16_encoding_is_refused_when_it_opens(tmp_path):
    path = tmp_path / "utf16.wec"
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA encoding = 'UTF-16le'")
    conn.execute("CREATE TABLE vectors (word TEXT PRIMARY KEY NOT NULL, vector BLOB NOT NULL)")
    conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    conn.execute("INSERT INTO meta VALUES ('format', '2'), ('dims', '1')")
    conn.execute("INSERT INTO vectors VALUES ('a', ?)", (np.float32(1).tobytes(),))
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="utf16.wec has text encoding UTF-16le"):
        WecStore(path)


def test_get_many_refuses_a_word_read_twice(tmp_path):
    # a format-1 store whose vectors table has no unique key, holding one word twice
    path = tmp_path / "twice.wec"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE vectors (word TEXT NOT NULL, vector BLOB NOT NULL)")
    conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    conn.execute("INSERT INTO meta VALUES ('dims', '2')")
    blob = np.array([1, 2], dtype="<f4").tobytes()
    conn.executemany("INSERT INTO vectors VALUES (?, ?)", [("a", blob), ("b", blob), ("a", blob)])
    conn.commit()
    conn.close()
    with WecStore(path) as store:
        assert list(store.get_many(["b", "zz"])) == ["b"]
        with pytest.raises(StoreError, match="twice.wec"):
            store.get_many(["b", "a"])


def test_store_read_errors_name_the_file(tmp_path):
    path = tmp_path / "gone.wec"
    _write_store(path, 2, [("a", np.array([1, 2], dtype="<f4").tobytes())])
    with WecStore(path) as store:
        assert store.count() == 1
        _execute(path, "DROP TABLE vectors")
        reads = [
            lambda: store.get("a"),
            lambda: store.get_many(["a"]),
            lambda: store.contains("a"),
            store.count,
            lambda: list(store.iter_words()),
        ]
        for read in reads:
            with pytest.raises(StoreError, match="gone.wec could not be read: no such table"):
                read()


def test_corrupt_store_reads_give_store_errors_or_asked_words(tmp_path):
    # Seeded byte flips of one small store. Flipped bits inside a vector blob
    # stay undetected (a store has no checksum), so every read must raise a
    # WecdbError or answer with words that were asked for, each once.
    rng = random.Random(16)
    words = [f"w{i:04d}" for i in range(600)]
    clean = tmp_path / "clean.wec"
    _write_store(
        clean, 4, ((w, np.full(4, i, dtype="<f4").tobytes()) for i, w in enumerate(words))
    )
    data = clean.read_bytes()
    asked = words[::7] + ["absent", "w"]
    outcomes = {"error": 0, "answer": 0}
    for case in range(400):
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        path = tmp_path / f"flip{case}.wec"
        path.write_bytes(flipped)
        try:
            with WecStore(path) as store:
                got = store.get_many(asked)
                assert got.keys() <= set(asked) and got.matrix.shape == (len(got), 4)
                for word in asked:
                    vector = store.get(word)
                    assert vector is None or vector.shape == (4,)
                store.count(), store.contains("w0007"), list(store.iter_words())
        except WecdbError:
            outcomes["error"] += 1
        else:
            outcomes["answer"] += 1
        path.unlink()
    assert outcomes["error"] and outcomes["answer"]


def _write_store(path, dims, rows=()):
    """A format-2 store as an import builds it, ``rows`` added through a plain connection."""
    text = path.with_suffix(".txt")
    text.write_text("")
    import_from_file(text, path, dims)
    _execute(path, "INSERT INTO vectors VALUES (?, ?)", rows)


def _execute(path, sql, rows=((),)):
    conn = sqlite3.connect(path)
    conn.executemany(sql, rows)
    conn.commit()
    conn.close()


def _write_format1_store(path, dims, rows):
    """A store in the format-1 layout: WITHOUT ROWID table, no format key."""
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE vectors (word TEXT PRIMARY KEY NOT NULL, vector BLOB NOT NULL)"
        " WITHOUT ROWID"
    )
    conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    conn.execute("INSERT INTO meta VALUES ('dims', ?)", (str(dims),))
    conn.executemany("INSERT INTO vectors VALUES (?, ?)", rows)
    conn.commit()
    conn.close()


def _meta(path):
    conn = sqlite3.connect(path)
    try:
        return dict(conn.execute("SELECT key, value FROM meta"))
    finally:
        conn.close()


def _table_sql(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT sql FROM sqlite_master WHERE name = 'vectors'").fetchone()[0]
    finally:
        conn.close()


def test_store_handle_keeps_a_1_mib_page_cache(tmp_path):
    path = tmp_path / "cache.wec"
    _write_store(path, 2)
    with WecStore(path) as store:
        assert store._rows("PRAGMA cache_size") == [(-1024,)]


def test_new_store_is_format_2_rowid_table(tmp_path):
    path = tmp_path / "new.wec"
    _write_store(path, 3)
    assert _meta(path) == {"format": "2", "dims": "3"}
    assert "WITHOUT ROWID" not in _table_sql(path).upper()
    # reopening leaves the key as it is
    WecStore(path).close()
    assert _meta(path)["format"] == "2"


def test_format_1_store_reads_bit_exact_and_keeps_its_format(tmp_path):
    rng = np.random.default_rng(3)
    vectors = {f"w{i:03d}": rng.standard_normal(300).astype("<f4") for i in range(40)}
    path = tmp_path / "old.wec"
    _write_format1_store(path, 300, [(w, v.tobytes()) for w, v in vectors.items()])
    with WecStore(path) as store:
        assert store.dims == 300
        for word, vec in vectors.items():
            assert store.get(word).tobytes() == vec.tobytes()
        got = store.get_many(list(vectors) + ["absent"])
        assert got.keys() == vectors.keys()
        assert all(got[w].tobytes() == v.tobytes() for w, v in vectors.items())
        assert list(store.iter_words()) == sorted(vectors)
    assert "format" not in _meta(path)
    assert "WITHOUT ROWID" in _table_sql(path).upper()


def test_store_with_an_unreadable_width_is_refused(tmp_path):
    path = tmp_path / "bad-dims.wec"
    _write_store(path, 2)
    # only a positive integer written as an import writes it; int() alone takes 0, -3, ' 2', '٢'
    for width in ("r", "0", "-3", "2.0", " 2", "\u0662"):
        _execute(path, "UPDATE meta SET value = ? WHERE key = 'dims'", [(width,)])
        with pytest.raises(StoreError, match="bad-dims.wec records a bad vector width"):
            WecStore(path)


def test_unknown_store_format_is_refused(tmp_path):
    path = tmp_path / "future.wec"
    _write_store(path, 2)
    _execute(path, "UPDATE meta SET value = '3' WHERE key = 'format'")
    with pytest.raises(StoreError, match="future.wec.*format '3'"):
        WecStore(path)
    assert _meta(path) == {"format": "3", "dims": "2"}  # refused before any write
