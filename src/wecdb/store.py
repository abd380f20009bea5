"""On-disk vector store: one file per WEC, unique word index, lazy lookup.

Each WEC lives in a single SQLite file with a rowid table,
``word TEXT PRIMARY KEY, vector BLOB``; lookups go through SQLite's
automatic unique index on ``word`` and then read the row from its table
leaf page. The blob is the little-endian IEEE-754 binary32 encoding of the
vector. The word is stored twice, in the table row and in the index, so an
n-record, d-dim store costs about ``n * (4d + 2 * len(word) + 22)`` bytes
plus the space left free on leaf pages that hold only a few rows -- far
below the plain text it was imported from at typical float print widths,
but above it at a few dimensions. A row of up to about 4 KB (about 1,000-d)
stays on its table leaf page. Point lookups never scan the store; that is
the whole point: retrieval cost depends on the words requested, not the
collection size. A batched read (:meth:`WecStore.get_many`) is one
aggregate statement: it binds the distinct words once, as one JSON array
read by SQLite's ``json_each`` (built in by default since SQLite 3.38.0),
probes the word index once per word, and answers with one row: the found
words' places in the array, their vectors end to end, and the place of the
first found value that is not one vector's blob, which names its word. One
``sqlite3_step`` does the whole read, and Python's ``sqlite3`` module
releases the GIL around it, so another thread runs Python meanwhile
(:meth:`WecStore.submit_many` hands the statement to a helper thread). A
request whose vectors would pass ``_CHUNK_BYTES`` is read in chunks, each
one statement, so that no answer nears SQLite's length limit. It returns a
read-only :class:`VectorRows` mapping: the vectors it found are the
read-only rows of one float32 matrix.
A point read (:meth:`WecStore.get`, :meth:`WecStore.contains`) reads its
word with one keyed statement, ``WHERE word = ?``, with the same checks;
so does a batch for each word that holds a NUL. Every read matches words
exactly (``COLLATE BINARY``), whatever the column's collation. A word
that is not UTF-8 text (one that holds a lone surrogate, as a byte that is
not UTF-8 does in a POSIX argument) reads as absent: an import refuses
such text, so no store holds it. A read that SQLite cannot complete on a
damaged file raises :class:`~wecdb.errors.StoreError` naming the file.

Store format (``format`` key of the ``meta`` table): ``2`` is the layout
above, stamped by the import that creates the table. A store without the
key is format 1, an earlier ``WITHOUT ROWID`` layout whose rows over about
1,000 B (250-d and wider) spill into overflow pages; it is read as it is,
since every statement here works on both layouts. An import writes
format 2. Any other value is refused. The ``dims`` key records the vector
width, the one source of a :class:`WecStore`'s width: a store that records
none, or one that is not a positive integer, is refused when opened, and
so is a store whose text encoding is not UTF-8 (``PRAGMA encoding``): the
aggregate read would transcode its vector bytes.

SQLite is an implementation detail behind :class:`WecStore`; any engine
providing a unique key, point lookup, atomic batch writes, and a single
file would do. Only :func:`import_from_file` makes a store file; a
:class:`WecStore` opens one read-only, so no read creates or changes a file.

Text format accepted by :func:`import_from_file`: UTF-8, after one
byte-order mark if the file starts with one; one record per line, fields
separated by single spaces, word first, then exactly ``dims`` decimal
floats. An optional first line of exactly two integers is treated
as a ``count dims`` header (word2vec text convention). Floats are parsed
to the nearest binary64 and then rounded to the nearest binary32
(round-half-even); re-retrieval is bit-exact against that conversion.
The file is read once, as UTF-8 that escapes each byte that is not UTF-8;
a line that holds such a byte is malformed. Data lines are parsed in
groups by numpy's C text reader (``np.loadtxt``), which also takes the
trailing space the word2vec and fastText tools write at the end of each
line, with the per-line parse (``line.split()`` and
:func:`parse_vector_text`) as the fallback for any group the reader
refuses or would read otherwise; the accepted set, the malformed-line
reports and the error raised are those of the per-line parse. Each batch
of ``_BATCH_ROWS`` data lines is parsed in line order and then inserted,
so faults are met in line order, a malformed line before a repeated word
of its batch.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import threading
import time
import weakref
from collections.abc import Iterable, Iterator, Mapping
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DuplicateWordError, HeaderError, MalformedLineError, StoreError, WecImportError,
    first_surrogate,
)

if TYPE_CHECKING:  # concurrent.futures imports logging, which only a multi-WEC read needs
    from concurrent.futures import Executor, Future

_BATCH_ROWS = 4096
_GROUP_BYTES = 256 * 1024  # bytes of float64 values per numpy parse call; bounds import memory
# COLLATE BINARY: exact matches, code point order, whatever the column's collation
_SELECT_ONE = "SELECT word, vector FROM vectors WHERE word = ? COLLATE BINARY"
_SELECT_PAGE = ("SELECT word FROM vectors WHERE word > ? COLLATE BINARY"
                " ORDER BY word COLLATE BINARY LIMIT ?")
# CROSS JOIN keeps json_each outermost: one word-index probe per requested word
_FROM_MANY = "FROM json_each(?) AS j CROSS JOIN vectors AS v ON v.word = j.value COLLATE BINARY"
# one row per batch: found words' array indexes, their vectors end to end, and
# the first array index whose value is not a blob of the bound byte width
_SELECT_MANY = (
    "SELECT group_concat(j.key), CAST(group_concat(v.vector, '') AS BLOB),"
    " min(CASE WHEN typeof(v.vector) != 'blob' OR length(v.vector) != ? THEN j.key END)"
    f" {_FROM_MANY}"
)
# vector bytes per statement of one batched read, far below SQLite's 1e9-byte length limit
_CHUNK_BYTES = 1 << 26
_HEADER_RE = re.compile(r"(\d+) (\d+)")
_WIDTH_RE = re.compile("[1-9][0-9]*")
_FORMAT = "2"
# what a read of a damaged file raises; SQLite's message may quote its damaged schema
_READ_ERRORS = (sqlite3.DatabaseError, UnicodeDecodeError)
# json.dumps(..., ensure_ascii=False) would build a new encoder on every call
_json_text = json.JSONEncoder(ensure_ascii=False).encode


@dataclass
class ImportReport:
    """Outcome of one plain-text import.

    ``elapsed`` is the whole import in seconds. Of it, ``parse_s`` reads and
    parses the text, ``insert_s`` inserts the parsed rows, and ``sync_s`` is
    the final COMMIT plus the fsync of the store file. There is no separate
    index build: SQLite maintains the word index (the PRIMARY KEY) during
    the inserts, so its cost is part of ``insert_s``.
    """

    imported: int = 0
    skipped_duplicates: int = 0
    malformed_lines: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0
    bytes_text: int = 0
    bytes_store: int = 0
    parse_s: float = 0.0
    insert_s: float = 0.0
    sync_s: float = 0.0

    @property
    def compression_ratio(self) -> float:
        return self.bytes_store / self.bytes_text if self.bytes_text else 0.0


class VectorRows(Mapping):
    """Read-only ``word -> vector`` mapping over one float32 matrix.

    ``matrix`` is the read-only ``(len(self), dims)`` array of one
    :meth:`WecStore.get_many` call, ``words`` lists the found words in row
    order and ``index`` maps each one to its row. A word's vector is a
    read-only view of its row, made on first access and returned as the
    same object after that.
    """

    __slots__ = ("matrix", "words", "index", "_views")

    def __init__(self, matrix: np.ndarray, words: list[str], index: dict[str, int]):
        self.matrix = matrix
        self.words = words
        self.index = index
        self._views: dict[str, np.ndarray] = {}

    def __getitem__(self, word: str) -> np.ndarray:
        view = self._views.get(word)
        if view is None:
            view = self._views[word] = self.matrix[self.index[word]]
        return view

    def __contains__(self, word: object) -> bool:
        return word in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


class WecStore:
    """Single-file store of ``<word, float32 vector>`` records for one WEC.

    The file is opened read-only and must exist: only :func:`import_from_file`
    makes store files. Its format and width (``dims``) come from the file's
    ``meta`` table, read once when it opens. A handle owns one SQLite
    connection, opened with it, and any thread may read through it, one
    statement at a time. The connection is closed by :meth:`close`, which
    waits for a read in flight, or once nothing refers to the handle. Until
    then it reads the file it opened, even after that file was replaced or
    deleted.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        try:
            # read-only URI: SQLite can neither create the file nor write to it;
            # it opens the file here, so a file gone since the caller saw it fails here
            self._conn = sqlite3.connect(f"{self.path.absolute().as_uri()}?mode=ro", uri=True,
                                         check_same_thread=False)
        except _READ_ERRORS as exc:
            raise StoreError(f"{self.path} could not be read: {exc}") from exc
        self._close = weakref.finalize(self, self._conn.close)
        try:
            # 1 MiB of SQLite's own page cache, half its default: the OS page
            # cache holds the store's pages too and serves every read
            self._rows("PRAGMA cache_size = -1024")
            # a batched read joins vectors as text, which SQLite would transcode
            if (encoding := self._rows("PRAGMA encoding")[0][0]) != "UTF-8":
                raise StoreError(f"{self.path} has text encoding {encoding};"
                                 " this wecdb reads UTF-8 stores only")
            meta = dict(self._rows("SELECT key, value FROM meta"))
            # a store without a format key predates the key: format 1, read as is
            if (fmt := meta.get("format")) not in (None, "1", _FORMAT):
                raise StoreError(f"{self.path} has store format {fmt!r};"
                                 f" this wecdb reads formats 1 and {_FORMAT}")
            if not isinstance(dims := meta.get("dims"), str) or not _WIDTH_RE.fullmatch(dims):
                raise StoreError(f"{self.path} records {'no' if dims is None else 'a bad'}"
                                 f" vector width (dims): {dims!r}")
        except StoreError:
            self.close()
            raise
        self.dims = int(dims)

    def _rows(self, sql: str, params: tuple = ()) -> list:
        """Every row of one statement; a read SQLite cannot complete raises
        :class:`StoreError` naming the file."""
        try:
            with self._lock:
                return self._conn.execute(sql, params).fetchall()
        except _READ_ERRORS as exc:
            raise StoreError(f"{self.path} could not be read: {exc}") from exc

    def get(self, word: str) -> np.ndarray | None:
        """``word``'s vector, or None: one keyed statement, with the checks of
        :meth:`get_many`."""
        return self._read_rows((word,)).get(word)

    def get_many(self, words: Iterable[str], pending: Future | None = None) -> VectorRows:
        """Found subset of ``words`` as a read-only mapping over one matrix.

        The distinct words are bound once, as one JSON array, to one
        aggregate statement that probes the word index once per word and
        answers with one row: the array indexes of the found words, their
        blobs end to end, and the first array index whose value is not a
        blob of ``4 * dims`` bytes, whose word the raised error names. Its
        one SQL text keeps SQLite's statement cache at one entry for any
        batch size. A request whose vectors could pass
        ``_CHUNK_BYTES`` runs it once per chunk of words. JSON text cannot
        carry a NUL into SQLite, so a word holding one is read on its own by
        the keyed statement of :meth:`get`. The blobs become one read-only
        float32 matrix with one row per found word, so a call makes one
        array, not one per word. A word found twice is refused as corrupt,
        and so is a value that is not ``dims`` float32 values. A word that is
        not UTF-8 text is left out of the read, as absent.

        ``pending`` is what :meth:`submit_many` returned for these ``words``:
        the call then waits for the executor's answer, not running the
        statements itself, and decodes it here.
        """
        if pending is None:
            request, answers = self._answers(self._request(words))
        else:
            request, answers = pending.result()
        chunks, _, held = request
        found, parts = [], []
        for chunk, (keys, data, bad) in zip(chunks, answers):
            if bad is not None:
                raise self._not_a_vector(chunk[bad])
            if keys is not None:
                found += map(chunk.__getitem__, map(int, keys.split(",")))
                parts.append(data)
        if held:
            rows = self._read_rows(held)
            found += rows.words
            parts.append(rows.matrix.tobytes())
        return self._vector_rows(found, b"".join(parts))

    def submit_many(self, words: Iterable[str], executor: Executor) -> Future:
        """Hand :meth:`get_many`'s statements for ``words`` to ``executor``;
        pass the result to ``get_many(words, pending=...)``.

        Only SQLite runs on the executor, with the GIL released. Until its
        first statement starts, though, the executor's thread needs the GIL,
        so this call returns only once that thread has started the read; a
        caller that went on with Python work first could make the statement
        wait a whole switch interval (``sys.getswitchinterval()``) to start.
        """
        started = threading.Event()
        answer = executor.submit(self._answers, self._request(words), started)
        started.wait()
        return answer

    def _request(self, words: Iterable[str]) -> tuple[list[list[str]], list[str], list[str]]:
        """``(chunks, texts, held)``: the distinct words that JSON text can
        carry, in chunks whose vectors fit ``_CHUNK_BYTES``, each chunk's
        JSON array, and the words that hold a NUL."""
        listed, held = _split_nul(words)
        step = max(1, _CHUNK_BYTES // (4 * self.dims))
        chunks = [listed[i : i + step] for i in range(0, len(listed), step)]
        return chunks, [_json_text(chunk) for chunk in chunks], held

    def _answers(self, request: tuple, started: threading.Event | None = None) -> tuple:
        """``(request, rows)``, ``rows`` the aggregate row of each chunk of
        ``request``: the SQLite part of a batched read, which any thread may
        run; ``started`` is set first."""
        if started is not None:
            started.set()
        return request, [self._rows(_SELECT_MANY, (4 * self.dims, text))[0] for text in request[1]]

    def _read_rows(self, words: Iterable[str]) -> VectorRows:
        """The found subset of ``words``, each read by one keyed statement, with
        :meth:`get_many`'s checks; a row of a word not asked for is refused as
        corrupt too. It serves point reads and words that hold a NUL."""
        size, found, blobs = 4 * self.dims, [], []
        for asked in chain(*_split_nul(words)):
            for word, blob in self._rows(_SELECT_ONE, (asked,)):
                if not isinstance(blob, bytes) or len(blob) != size:
                    raise self._not_a_vector(word)
                if word != asked:
                    raise StoreError(f"{self.path} is corrupt: its word index answered"
                                     " with other words")
                found.append(word)
                blobs.append(blob)
        return self._vector_rows(found, b"".join(blobs))

    def _not_a_vector(self, word: str) -> StoreError:
        """The error for a stored value of ``word`` that is not ``dims`` float32 values."""
        return StoreError(f"{self.path}: vector of {word!r} is not {self.dims} float32 values")

    def _vector_rows(self, found: list[str], data: bytes) -> VectorRows:
        """``found`` over the float32 matrix of ``data``; a word found twice is refused."""
        index = dict(zip(found, range(len(found))))
        if len(index) != len(found):
            raise StoreError(f"{self.path} is corrupt: its word index answered with a word twice")
        matrix = np.frombuffer(data, dtype="<f4").reshape(len(found), self.dims)
        return VectorRows(matrix, found, index)

    def contains(self, word: str) -> bool:
        """Whether ``word`` is stored: a :meth:`get` of it, with its checks."""
        return word in self._read_rows((word,))

    def count(self) -> int:
        return self._rows("SELECT count(*) FROM vectors")[0][0]

    def iter_words(self) -> Iterator[str]:
        """Every word in code point order, ``_BATCH_ROWS`` at a time after the last one read."""
        last = ""  # below every word: an import never stores an empty one
        while rows := self._rows(_SELECT_PAGE, (last, _BATCH_ROWS)):
            # a page must end past the last, or a damaged word index could loop forever
            if not isinstance(rows[-1][0], str) or rows[-1][0] <= last:
                raise StoreError(f"{self.path} is corrupt: its word index is out of order")
            yield from (word for (word,) in rows)
            last = rows[-1][0]

    def close(self) -> None:
        with self._lock:
            self._close()

    def __enter__(self) -> "WecStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EmptyStore(VectorRows):
    """Reads of a WEC that has no store file because no import filled it:
    an empty :class:`VectorRows` that also answers as a :class:`WecStore`."""

    __slots__ = ()

    def __init__(self, dims: int):
        super().__init__(np.frombuffer(b"", dtype="<f4").reshape(0, dims), [], {})

    def get_many(self, words: Iterable[str], pending: None = None) -> VectorRows:
        return self

    def submit_many(self, words: Iterable[str], executor) -> None:
        return None

    contains, count, iter_words = VectorRows.__contains__, VectorRows.__len__, VectorRows.__iter__


def _split_nul(words: Iterable[str]) -> tuple[list[str], list[str]]:
    """The distinct ``words`` in first-seen order that a store can hold, split
    into those that JSON text can carry into SQLite and those that hold a NUL,
    which it cannot. A word that is not UTF-8 text is left out: no store holds one."""
    listed = list(dict.fromkeys(words))
    joined = "".join(listed)
    if first_surrogate(joined):
        listed = [word for word in listed if not first_surrogate(word)]
    if "\0" not in joined:
        return listed, []
    return [word for word in listed if "\0" not in word], [word for word in listed if "\0" in word]


def parse_vector_text(fields: list[str]) -> bytes:
    """Pinned float conversion: decimal text -> binary64 -> binary32, little-endian."""
    return _to_binary32(np.array(fields, dtype="<f8")).tobytes()


def _to_binary32(values: np.ndarray) -> np.ndarray:
    """Little-endian binary32 of binary64 ``values``, each rounded to nearest; a value
    beyond binary32's range rounds to infinity of its sign, without a warning."""
    with np.errstate(over="ignore"):
        return values.astype("<f4")


def _detect_header(first_line: str, mode: str) -> tuple[int, int] | None:
    match = _HEADER_RE.fullmatch(first_line.rstrip("\n"))
    if mode == "yes":
        if match is None:
            raise HeaderError(f"expected a 'count dims' header line, got {first_line!r}")
        return int(match.group(1)), int(match.group(2))
    if mode == "no":
        return None
    return (int(match.group(1)), int(match.group(2))) if match else None


def import_from_file(
    path: str | Path,
    dest: str | Path,
    dims: int,
    *,
    on_duplicate: str = "reject",
    expect_header: str = "auto",
    on_malformed: str = "fail",
) -> ImportReport:
    """Build a new store file at ``dest``, a path not taken yet, from a text WEC file.

    ``on_duplicate``: ``reject`` fails on the first repeated word, naming it
    and its line; ``keep_first`` keeps the first occurrence and counts the
    rest. ``expect_header``: ``auto`` treats a first line of exactly two
    integers as a ``count dims`` header; ``yes`` requires one, so an empty
    file is refused; ``no`` takes every line as data. ``on_malformed``:
    ``fail`` aborts on the first bad line, one that is not UTF-8 included;
    ``skip`` records (line, reason) in the report and continues.

    No one reads ``dest`` until it is whole, so it is built without a journal
    on disk and synced once; a failed build may leave it for the caller.
    """
    if on_duplicate not in ("reject", "keep_first"):
        raise ValueError(f"invalid on_duplicate policy {on_duplicate!r}")
    if expect_header not in ("auto", "yes", "no"):
        raise ValueError(f"invalid expect_header mode {expect_header!r}")
    if on_malformed not in ("fail", "skip"):
        raise ValueError(f"invalid on_malformed mode {on_malformed!r}")
    report = ImportReport(bytes_text=os.path.getsize(path))
    started = time.perf_counter()
    open(dest, "x").close()  # refuses a taken path; SQLite takes an empty file as a new store
    conn = sqlite3.connect(dest, isolation_level=None)
    # a leading byte-order mark is dropped; a byte that is not UTF-8 reads as
    # one escape character, refused with its line
    with closing(conn), open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        conn.executescript(
            "PRAGMA journal_mode=MEMORY; PRAGMA synchronous=OFF; BEGIN;"
            " CREATE TABLE vectors (word TEXT PRIMARY KEY NOT NULL, vector BLOB NOT NULL);"
            " CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);"
            f" INSERT INTO meta VALUES ('format', '{_FORMAT}'), ('dims', '{int(dims)}');"
        )
        lines = enumerate(fh, start=1)
        first = next(lines, None)
        header = _detect_header("" if first is None else first[1], expect_header)
        if header is None:
            lines = chain([first] if first else [], lines)
        elif header[1] != dims:
            raise HeaderError(f"header declares dims {header[1]}, catalog dims is {dims}")
        # a group never crosses a batch boundary, so rows are inserted after
        # exactly every _BATCH_ROWS data lines, as in a line-by-line loop
        group_rows = max(1, _GROUP_BYTES // (8 * dims))
        pending: list[tuple[int, str, bytes] | None] = []
        while True:
            start = time.perf_counter()
            group = list(islice(lines, min(group_rows, _BATCH_ROWS - len(pending))))
            if group:
                pending += _parse_group(path, group, dims, report, on_malformed)
            report.parse_s += time.perf_counter() - start
            if len(pending) == _BATCH_ROWS or not group:
                start = time.perf_counter()
                _insert_batch(conn, pending, on_duplicate, report)
                pending.clear()
                report.insert_s += time.perf_counter() - start
            if not group:
                break
        start = time.perf_counter()
        conn.execute("COMMIT")
    with open(dest, "rb") as fh:
        os.fsync(fh.fileno())
    report.sync_s = time.perf_counter() - start

    report.elapsed = time.perf_counter() - started
    report.bytes_store = os.path.getsize(dest)
    return report


def _not_utf8(line: str) -> str | None:
    """The reason a line read with ``surrogateescape`` is refused, naming its
    first byte that is not UTF-8; None when it has none."""
    bad = first_surrogate(line)  # decoding escapes a byte as U+DC80 to U+DCFF
    return bad and f"not UTF-8 text (byte {ord(bad) - 0xDC00:#04x})"


def _parse_group(
    path: str | Path, group: list[tuple[int, str]], dims: int, report: ImportReport,
    on_malformed: str,
) -> list[tuple[int, str, bytes] | None]:
    """Parse ``(lineno, line)`` data lines with one numpy call, else line by line.

    The C reader of ``np.loadtxt`` parses the text after each line's first
    space, without its trailing whitespace, which ``line.split()`` drops too
    (the word2vec and fastText tools end every line with a space). Its
    result is used only when every word is what ``line.split()`` gives
    (non-empty, no whitespace, no byte that is not UTF-8), no line is blank
    after the word, and it holds one row of ``dims`` values per line. The
    reader refuses some text that :func:`_parse_line` accepts (``1_0``,
    non-ASCII digits, runs of spaces, tabs), and any value that holds a byte
    that is not UTF-8, so any other outcome parses the whole group line by
    line, in line order: a line with such a byte (escaped by the import's
    decode of ``path``) is refused, and every other line goes to
    :func:`_parse_line`. The accepted set, the malformed-line reports and the
    first error raised are those of a line-by-line parse. Both paths round
    each value to the nearest binary64 and then to the nearest binary32.
    """
    parts = [line.partition(" ") for _, line in group]
    words = [word for word, _, _ in parts]
    rests = [rest.rstrip() for _, _, rest in parts]
    joined = " ".join(words)
    # the reader skips blank lines, and warns on a group of nothing else
    if (joined.split() == words and "" not in rests
            and not first_surrogate(joined)):
        try:
            values = np.loadtxt(rests, dtype="<f8", delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(group), dims):
                return [
                    (lineno, word, row.tobytes())
                    for (lineno, _), word, row in zip(group, words, _to_binary32(values))
                ]
    return [
        _malformed(lineno, reason, report, on_malformed,
                   WecImportError(f"{path}: line {lineno} is {reason}"))
        if (reason := _not_utf8(line))
        else _parse_line(lineno, line, dims, report, on_malformed)
        for lineno, line in group
    ]


def _parse_line(
    lineno: int, line: str, dims: int, report: ImportReport, on_malformed: str
) -> tuple[int, str, bytes] | None:
    fields = line.split()
    if len(fields) != dims + 1:
        reason = (
            "blank line"
            if not fields
            else f"expected {dims + 1} fields (word + {dims} floats), got {len(fields)}"
        )
        return _malformed(lineno, reason, report, on_malformed)
    try:
        blob = parse_vector_text(fields[1:])
    except (ValueError, OverflowError):
        return _malformed(lineno, "unparseable float value", report, on_malformed)
    return (lineno, fields[0], blob)


def _malformed(lineno: int, reason: str, report: ImportReport, on_malformed: str,
               error: WecImportError | None = None) -> None:
    """Raise ``error`` (by default :class:`MalformedLineError`) under ``fail``;
    record the line and its reason under ``skip``."""
    if on_malformed == "fail":
        raise error or MalformedLineError(lineno, reason)
    report.malformed_lines.append((lineno, reason))
    return None


def _insert_batch(
    conn: sqlite3.Connection,
    pending: list[tuple[int, str, bytes] | None],
    on_duplicate: str,
    report: ImportReport,
) -> None:
    """Insert a batch's parsed rows, in line order, with one statement.

    ``conn.total_changes`` counts the rows inserted: under ``keep_first`` the
    rest are skipped duplicates; under ``reject`` the statement stops at the
    first duplicate, after every row before it went in.
    """
    items = [item for item in pending if item is not None]
    if not items:
        return
    verb = "INSERT OR IGNORE" if on_duplicate == "keep_first" else "INSERT"
    before = conn.total_changes
    try:
        conn.executemany(f"{verb} INTO vectors VALUES (?, ?)", [item[1:] for item in items])
    except sqlite3.IntegrityError:
        lineno, word, _ = items[conn.total_changes - before]
        raise DuplicateWordError(word, lineno) from None
    inserted = conn.total_changes - before
    report.imported += inserted
    report.skipped_duplicates += len(items) - inserted
