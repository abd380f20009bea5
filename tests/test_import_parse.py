"""The grouped import parse against a line-by-line reference import.

``_reference_import`` is the import loop that parsed every data line on its
own (``line.split()`` plus :func:`parse_vector_text`); the grouped parse must
store the same rows in the same order, count and report the same lines, and
raise the same error at the same line.
"""

import sqlite3
import tempfile
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wecdb import store
from wecdb.errors import DuplicateWordError, HeaderError, MalformedLineError, WecImportError
from wecdb.store import ImportReport, import_from_file, parse_vector_text


def _reference_parse_line(lineno, line, dims, report, on_malformed):
    fields = line.split()
    if len(fields) != dims + 1:
        reason = (
            "blank line"
            if not fields
            else f"expected {dims + 1} fields (word + {dims} floats), got {len(fields)}"
        )
        return _reference_malformed(lineno, reason, report, on_malformed)
    try:
        blob = parse_vector_text(fields[1:])
    except (ValueError, OverflowError):
        return _reference_malformed(lineno, "unparseable float value", report, on_malformed)
    return (lineno, fields[0], blob)


def _reference_malformed(lineno, reason, report, on_malformed):
    if on_malformed == "fail":
        raise MalformedLineError(lineno, reason)
    report.malformed_lines.append((lineno, reason))
    return None


def _reference_import(path, dest, dims, on_duplicate, on_malformed, batch_rows):
    report = ImportReport()
    conn = sqlite3.connect(dest, isolation_level=None)
    try:
        conn.executescript(
            "BEGIN; CREATE TABLE vectors (word TEXT PRIMARY KEY NOT NULL, vector BLOB NOT NULL);"
        )
        with open(path, "r", encoding="utf-8") as fh:
            lines = enumerate(fh, start=1)
            first = next(lines, None)
            pending = []
            if first is not None:
                header = store._detect_header(first[1], "auto")
                if header is None:
                    pending.append(
                        _reference_parse_line(first[0], first[1], dims, report, on_malformed)
                    )
                elif header[1] != dims:
                    raise HeaderError(f"header declares dims {header[1]}, catalog dims is {dims}")
            for lineno, line in lines:
                pending.append(_reference_parse_line(lineno, line, dims, report, on_malformed))
                if len(pending) >= batch_rows:
                    store._insert_batch(conn, pending, on_duplicate, report)
                    pending.clear()
            store._insert_batch(conn, pending, on_duplicate, report)
        conn.execute("COMMIT")
    finally:
        conn.close()
    return report


def _outcome(run, dest):
    """(error type, its line, its message) or (imported, skipped, malformed, rows by rowid)."""
    try:
        report = run()
    except WecImportError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    with closing(sqlite3.connect(dest)) as conn:
        rows = conn.execute("SELECT word, vector FROM vectors ORDER BY rowid").fetchall()
    return report.imported, report.skipped_duplicates, report.malformed_lines, rows


def _compare(text, dims, on_duplicate, on_malformed, batch_rows, group_rows):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "wec.txt"
        path.write_bytes(text.encode("utf-8"))
        mp.setattr(store, "_BATCH_ROWS", batch_rows)
        mp.setattr(store, "_GROUP_BYTES", 8 * dims * group_rows)
        got_dest, want_dest = Path(tmp) / "got.wec", Path(tmp) / "want.wec"
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy's "input contained no data"
            got = _outcome(
                lambda: import_from_file(
                    path, got_dest, dims, on_duplicate=on_duplicate, on_malformed=on_malformed
                ),
                got_dest,
            )
        want = _outcome(
            lambda: _reference_import(
                path, want_dest, dims, on_duplicate, on_malformed, batch_rows
            ),
            want_dest,
        )
    assert got == want
    return got


VALUES = [
    "0.5", "-1.25", "3", "1e-3", ".5", "+2", "-0", "1_0", "١", "１", "nan", "-nan",
    "NaN", "-inf", "Infinity", "1e39", "-1e39", "1e-400", "nan(1)", "0x10", "abc", "1e", "",
]
WORDS = ["w\xa0z", "w\x0bz", "w\tz", "\xa0", "1", "１", "café"]
SEPARATORS = [" ", " ", " ", " ", "  ", "\t", " \t", "\xa0", "\x0b"]
TRAILING = ["", "", "", " ", "\t", "  ", "\xa0"]
ENDINGS = ["\n", "\n", "\n", "\r\n"]


@st.composite
def wec_texts(draw):
    dims = draw(st.integers(1, 4))
    value = st.one_of(
        st.sampled_from(VALUES),
        st.floats(width=64).map(repr),
        st.integers(-10**6, 10**6).map(str),
    )
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from([f"5 {dims}", f"5 {dims + 1}", "5"])))
    for i in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["data"] * 6 + ["blank", "count"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  "])))
            continue
        count = dims if kind == "data" else draw(st.sampled_from([0, dims - 1, dims + 1]))
        # mostly distinct words, with repeats to reach duplicate handling
        word = draw(st.one_of(
            st.just(f"w{i}"), st.just(f"w{i}"), st.sampled_from(WORDS), st.just("w0")
        ))
        values = draw(st.lists(value, min_size=count, max_size=count))
        parts = [word, *values]
        line = parts[0]
        for part in parts[1:]:
            line += draw(st.sampled_from(SEPARATORS)) + part
        lines.append(line + draw(st.sampled_from(TRAILING)))
    endings = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = ""  # last line without a newline
    return dims, "".join(line + end for line, end in zip(lines, endings))


@settings(max_examples=300, deadline=None)
@given(
    wec_texts(),
    st.sampled_from(["reject", "keep_first"]),
    st.integers(1, 7),
    st.integers(1, 5),
)
def test_grouped_parse_matches_the_line_by_line_import(case, on_duplicate, batch_rows, group_rows):
    dims, text = case
    for on_malformed in ("fail", "skip"):
        _compare(text, dims, on_duplicate, on_malformed, batch_rows, group_rows)


def _full_size_lines(n, dims, trailing):
    return [
        f"w{i} " + " ".join(f"{(i * 7 + j) % 101 / 13 - 3:.5f}" for j in range(dims)) + trailing
        for i in range(n)
    ]


@pytest.mark.parametrize("trailing", ["", " "])
@pytest.mark.parametrize("on_malformed", ["fail", "skip"])
def test_grouped_parse_matches_over_many_full_size_groups(on_malformed, trailing):
    # 64-d: 512 lines per group, 4,096 per batch; odd lines in the second batch
    dims = 64
    lines = _full_size_lines(5000, dims, trailing)
    # two lines that the per-line parse accepts and numpy's reader refuses
    lines[4500] = lines[4500].replace(" ", "  ", 1)
    word, _, rest = lines[4700].partition(" ")
    lines[4700] = f"{word} 1_0 {rest.partition(' ')[2]}"
    lines[4800] += " 1"  # one field too many
    outcome = _compare(
        "\n".join(lines) + "\n", dims, "reject", on_malformed, store._BATCH_ROWS, 512
    )
    if on_malformed == "skip":
        reason = "expected 65 fields (word + 64 floats), got 66"
        assert outcome[0] == 4999 and outcome[2] == [(4801, reason)]
    else:
        assert outcome[:2] == (MalformedLineError, 4801)


@pytest.mark.parametrize("trailing", ["", " ", " \t"])
def test_trailing_whitespace_stays_on_the_grouped_parse(tmp_path, monkeypatch, trailing):
    # word2vec and fastText text files end every line with a space
    calls = []
    monkeypatch.setattr(store, "_parse_line", lambda *args: calls.append(args))
    (tmp_path / "wec.txt").write_text("\n".join(_full_size_lines(1000, 64, trailing)) + "\n")
    report = import_from_file(tmp_path / "wec.txt", tmp_path / "wec.db", 64)
    assert report.imported == 1000 and calls == []


def _numbered(n):
    """``n`` valid 2-d lines; line i holds word ``w<i>``."""
    return [f"w{i} {i}.5 -{i}" for i in range(1, n + 1)]


def test_duplicate_in_first_batch_is_raised_before_a_malformed_line_after_it(tmp_path):
    lines = _numbered(store._BATCH_ROWS)
    lines[99] = lines[9]  # line 100 repeats the word of line 10
    lines.append("bad line")  # line 4,097, the first line of the next batch
    (tmp_path / "wec.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(DuplicateWordError) as excinfo:
        import_from_file(tmp_path / "wec.txt", tmp_path / "wec.db", 2)
    assert (excinfo.value.word, excinfo.value.line) == ("w10", 100)


def test_malformed_line_is_raised_before_a_duplicate_in_the_same_batch(tmp_path):
    lines = _numbered(store._BATCH_ROWS)
    lines[99] = lines[9]  # duplicate at line 100
    lines[4000] = "w4001 1.5"  # malformed line 4,001, within the first batch
    (tmp_path / "wec.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLineError) as excinfo:
        import_from_file(tmp_path / "wec.txt", tmp_path / "wec.db", 2)
    assert excinfo.value.line == 4001


def test_report_times_the_import_layers(tmp_path):
    (tmp_path / "wec.txt").write_text("".join(f"w{i} {i} 0.5\n" for i in range(10000)))
    report = import_from_file(tmp_path / "wec.txt", tmp_path / "wec.db", 2)
    assert report.imported == 10000
    assert min(report.parse_s, report.insert_s, report.sync_s) > 0
    assert report.parse_s + report.insert_s + report.sync_s <= report.elapsed


@pytest.mark.parametrize("sep, per_line", [(" ", 0), ("  ", 1)], ids=["grouped", "per-line"])
def test_values_beyond_binary32_import_as_infinity_without_warnings(tmp_path, monkeypatch,
                                                                    sep, per_line):
    # round to nearest: past binary32's largest finite value, 1e39 rounds to infinity
    parsed = []
    parse_line = store._parse_line
    monkeypatch.setattr(store, "_parse_line",
                        lambda *args: parsed.append(args) or parse_line(*args))
    (tmp_path / "wec.txt").write_text(f"w{sep}1e39 -1e39\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        import_from_file(tmp_path / "wec.txt", tmp_path / "wec.db", 2)
    assert len(parsed) == per_line
    with closing(sqlite3.connect(tmp_path / "wec.db")) as conn:
        (blob,) = conn.execute("SELECT vector FROM vectors WHERE word = 'w'").fetchone()
    assert blob == np.array([np.inf, -np.inf], dtype="<f4").tobytes()
