"""A byte that is not UTF-8 is one more malformed line.

An import decodes its text once, escaping each byte that is not UTF-8, and
refuses a line that holds one in line and batch order with every other
fault: under ``fail`` the first fault in that order is raised, under
``skip`` every fault is listed in that order. One byte-order mark at the
start of the file is not text; an empty file has no header line.
"""

import pytest

from wecdb import store
from wecdb.errors import DuplicateWordError, HeaderError, MalformedLineError, WecImportError
from wecdb.store import import_from_file

BAD = "not UTF-8 text (byte 0xe9)"


def _write(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


def test_malformed_line_before_a_non_utf8_line_is_raised_first(tmp_path):
    path = _write(tmp_path / "wec.txt", [b"a 1 2", b"b 3 4", b"c 5", b"d 6 7", b"caf\xe9 8 9"])
    with pytest.raises(MalformedLineError) as excinfo:
        import_from_file(path, tmp_path / "wec.db", 2)
    assert excinfo.value.line == 3


def test_skip_lists_the_same_faults_in_line_order(tmp_path):
    path = _write(tmp_path / "wec.txt", [b"a 1 2", b"b 3 4", b"c 5", b"d 6 7", b"caf\xe9 8 9"])
    report = import_from_file(path, tmp_path / "wec.db", 2, on_malformed="skip")
    assert report.imported == 3
    assert report.malformed_lines == [(3, "expected 3 fields (word + 2 floats), got 2"), (5, BAD)]


def test_non_utf8_line_before_a_malformed_one_is_raised_naming_the_file(tmp_path):
    path = _write(tmp_path / "wec.txt", [b"a 1 2", b"b 3 \xe9", b"c 5"])
    with pytest.raises(WecImportError) as excinfo:
        import_from_file(path, tmp_path / "wec.db", 2)
    assert str(excinfo.value) == f"{path}: line 2 is {BAD}"


def test_duplicate_in_a_batch_is_raised_before_a_non_utf8_line_in_the_next(tmp_path):
    # both lie in one block of the file, so a decode of the whole block would meet the byte first
    lines = [b"w%d %d.5 -%d" % (i, i, i) for i in range(1, store._BATCH_ROWS + 1)]
    lines[-2] = lines[0]  # line 4,095 repeats the word of line 1
    path = _write(tmp_path / "wec.txt", lines + [b"caf\xe9 1 2"])
    with pytest.raises(DuplicateWordError) as excinfo:
        import_from_file(path, tmp_path / "wec.db", 2)
    assert (excinfo.value.word, excinfo.value.line) == ("w1", store._BATCH_ROWS - 1)


@pytest.mark.parametrize("on_malformed", ["fail", "skip"])
def test_non_utf8_header_line_is_a_header_error_under_both_policies(tmp_path, on_malformed):
    path = _write(tmp_path / "wec.txt", [b"2 2\xe9", b"a 1 2", b"b 3 4"])
    with pytest.raises(HeaderError, match="expected a 'count dims' header line"):
        import_from_file(path, tmp_path / "wec.db", 2, expect_header="yes",
                         on_malformed=on_malformed)


def test_utf8_words_stay_on_the_grouped_parse(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(store, "_parse_line", lambda *args: calls.append(args))
    path = tmp_path / "wec.txt"
    path.write_text("".join(f"café{i} {i} 0.5\n" for i in range(100)), encoding="utf-8")
    report = import_from_file(path, tmp_path / "wec.db", 2)
    assert report.imported == 100 and calls == []


def test_byte_order_mark_is_not_part_of_the_first_word(db, tmp_path):
    path = _write(tmp_path / "wec.txt", [b"\xef\xbb\xbfcat 1 2", b"dog 3 4"])
    ident = "algo:a;dataset:bom;dims:2;fold:0;unit:token"
    report = db.import_from_file(path, ident)
    assert report.imported == 2 and report.bytes_text == path.stat().st_size
    assert db.get_vector(ident, "cat").tolist() == [1.0, 2.0]
    assert list(db.iterate_vocab(ident)) == ["cat", "dog"]


@pytest.mark.parametrize("expect_header", ["auto", "yes"])
def test_byte_order_mark_before_a_header_keeps_it_a_header(tmp_path, expect_header):
    path = _write(tmp_path / "wec.txt", [b"\xef\xbb\xbf2 2", b"cat 1 2", b"dog 3 4"])
    report = import_from_file(path, tmp_path / "wec.db", 2, expect_header=expect_header)
    assert report.imported == 2 and report.malformed_lines == []


def test_only_one_byte_order_mark_is_dropped(tmp_path):
    path = _write(tmp_path / "wec.txt", [b"\xef\xbb\xbf\xef\xbb\xbfcat 1 2"])
    import_from_file(path, tmp_path / "wec.db", 2)
    with store.WecStore(tmp_path / "wec.db") as built:
        assert list(built.iter_words()) == ["\ufeffcat"]


@pytest.mark.parametrize("on_malformed", ["fail", "skip"])
def test_empty_file_under_header_yes_is_a_header_error(tmp_path, on_malformed):
    path = _write(tmp_path / "wec.txt", [])
    with pytest.raises(HeaderError, match="expected a 'count dims' header line, got ''"):
        import_from_file(path, tmp_path / "wec.db", 2, expect_header="yes",
                         on_malformed=on_malformed)


def test_empty_file_under_header_yes_registers_nothing(db, tmp_path):
    path = _write(tmp_path / "wec.txt", [])
    ident = "algo:a;dataset:empty;dims:2;fold:0;unit:token"
    with pytest.raises(HeaderError):
        db.import_from_file(path, ident, expect_header="yes")
    assert db.catalog.lookup(ident) is None
    assert db.import_from_file(path, ident).imported == 0  # auto: no header is needed
