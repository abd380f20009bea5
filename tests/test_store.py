import random
import sqlite3

import numpy as np
import pytest

from wecdb import (
    Database,
    DuplicateWordError,
    HeaderError,
    MalformedLineError,
    StoreError,
    WecImportError,
)
from wecdb.store import WecStore, import_from_file, parse_vector_text

from conftest import write_wec_text

IDENT = "algo:test;dataset:d;dims:4;fold:0;unit:token"


def test_import_counts_three_lines(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\nb 5 6 7 8\nc 9 10 11 12\n")
    report = db.import_from_file(path, IDENT)
    assert report.imported == 3
    assert report.skipped_duplicates == 0
    assert report.malformed_lines == []
    assert db.vocab_size(IDENT) == 3
    # catalog entry tracks the store's record count
    assert db.catalog.lookup(IDENT).vocab_size == 3


def test_bit_exact_round_trip(db, tmp_path):
    words = [f"w{i}" for i in range(200)]
    expected = write_wec_text(tmp_path / "t.txt", words, dims=4, fmt="%.7g")
    db.import_from_file(tmp_path / "t.txt", IDENT)
    for word, vec in expected.items():
        got = db.get_vector(IDENT, word)
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
    path.write_text("the 1 2 3 4\nnet 5 6 7 8\n")
    assert db.import_from_file(path, IDENT).imported == 2  # retry works


def test_failed_import_into_registered_wec_leaves_it_empty(db, tmp_path):
    db.register(IDENT)
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\na 5 6 7 8\n")
    with pytest.raises(DuplicateWordError):
        db.import_into(path, IDENT)
    # separately-made registration stays; the store rolls back to empty
    assert db.catalog.lookup(IDENT).vocab_size == 0
    assert db.vocab_size(IDENT) == 0


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


def test_lenient_mode_records_malformed_lines(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\nb 5 6 7\n\nc x y z w\nd 1 1 1 1\n")
    report = db.import_from_file(path, IDENT, on_malformed="skip")
    assert report.imported == 2
    assert [line for line, _ in report.malformed_lines] == [2, 3, 4]
    reasons = [reason for _, reason in report.malformed_lines]
    assert "blank line" in reasons[1]
    assert report.imported + report.skipped_duplicates + len(report.malformed_lines) == 5


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
    write_wec_text(tmp_path / "t.txt", words, dims=4)
    old = "algo:test;dataset:old;dims:4;fold:0;unit:token"
    _write_format1_store(db.catalog.store_path(db.register(old)), 4, [])
    db.import_into(tmp_path / "t.txt", old)
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


def test_reimport_into_populated_store_rejected(db, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 2 3 4\n")
    db.import_from_file(path, IDENT)
    with pytest.raises(WecImportError, match="already contains"):
        db.import_into(path, IDENT)


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
    with WecStore(path, dims=2, create=True) as store:
        store._conn.executemany(
            "INSERT INTO vectors VALUES (?, ?)", [("x", np.array([1, 2], dtype="<f4").tobytes())]
        )
    with WecStore(path) as store:
        assert store.dims == 2
        assert store.get("x").tolist() == [1.0, 2.0]


def test_get_many_uses_fixed_sql_texts(tmp_path):
    # A fixed set of statements keeps SQLite's per-connection statement
    # cache small whatever the batch size.
    import re

    words = [f"w{i:05d}" for i in range(6000)]
    with WecStore(tmp_path / "s.wec", dims=2, create=True) as store:
        conn = store._conn
        conn.execute("BEGIN")
        conn.executemany(
            "INSERT INTO vectors VALUES (?, ?)",
            ((w, np.array([i, -i], dtype="<f4").tobytes()) for i, w in enumerate(words[:3000])),
        )
        conn.execute("COMMIT")
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        # 16, 17 and 272 end on a partly filled (NULL-padded) chunk
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
    with WecStore(tmp_path / "s.wec", dims=3, create=True) as store:
        conn = store._conn
        conn.executemany(
            "INSERT INTO vectors VALUES (?, ?)",
            ((w, np.array(v, dtype="<f4").tobytes()) for w, v in rows.items()),
        )
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
        conn.execute("INSERT INTO vectors VALUES ('short', ?)", (b"\0" * 8,))
        with pytest.raises(StoreError, match="'short'"):
            store.get_many(["a", "short"])
    with WecStore(tmp_path / "no-dims.wec", create=True) as store:
        with pytest.raises(StoreError, match="no vector width"):
            store.get_many(["a"])


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


def test_new_store_is_format_2_rowid_table(tmp_path):
    path = tmp_path / "new.wec"
    WecStore(path, dims=3, create=True).close()
    assert _meta(path) == {"format": "2", "dims": "3"}
    assert "WITHOUT ROWID" not in _table_sql(path).upper()
    # reopening, with or without create, leaves the key as it is
    WecStore(path, dims=3, create=True).close()
    WecStore(path).close()
    assert _meta(path)["format"] == "2"


def test_format_1_store_reads_bit_exact_and_keeps_its_format(tmp_path):
    rng = np.random.default_rng(3)
    vectors = {f"w{i:03d}": rng.standard_normal(300).astype("<f4") for i in range(40)}
    path = tmp_path / "old.wec"
    _write_format1_store(path, 300, [(w, v.tobytes()) for w, v in vectors.items()])
    for create in (False, True):
        with WecStore(path, dims=300, create=create) as store:
            assert store.dims == 300
            for word, vec in vectors.items():
                assert store.get(word).tobytes() == vec.tobytes()
            got = store.get_many(list(vectors) + ["absent"])
            assert got.keys() == vectors.keys()
            assert all(got[w].tobytes() == v.tobytes() for w, v in vectors.items())
            assert list(store.iter_words()) == sorted(vectors)
        assert "format" not in _meta(path)
        assert "WITHOUT ROWID" in _table_sql(path).upper()


def test_unknown_store_format_is_refused(tmp_path):
    path = tmp_path / "future.wec"
    WecStore(path, dims=2, create=True).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = '3' WHERE key = 'format'")
    conn.commit()
    conn.close()
    for create in (False, True):
        with pytest.raises(StoreError, match="future.wec.*format '3'"):
            WecStore(path, dims=5, create=create)
    assert _meta(path) == {"format": "3", "dims": "2"}  # refused before any write
