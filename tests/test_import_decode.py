"""A byte that is not UTF-8 is one more malformed line.

An import decodes its text once, escaping each byte that is not UTF-8, and
refuses a line that holds one in line and batch order with every other
fault: under ``fail`` the first fault in that order is raised, under
``skip`` every fault is listed in that order.
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
