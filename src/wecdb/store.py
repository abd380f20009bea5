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
collection size. A batched read (:meth:`WecStore.get_many`) returns a
read-only :class:`VectorRows` mapping: the vectors it found are the
read-only rows of one float32 matrix.

Store format (``format`` key of the ``meta`` table): ``2`` is the layout
above, stamped when the table is created. A store without the key is
format 1, an earlier ``WITHOUT ROWID`` layout whose rows over about
1,000 B (250-d and wider) spill into overflow pages; it is read as it is,
since every statement here works on both layouts. Re-importing it gives
format 2. Any other value is refused.

SQLite is an implementation detail behind :class:`WecStore`; any engine
providing a unique key, point lookup, atomic batch writes, and a single
file would do. Concurrent readers are safe; an import takes the writer
lock on its own file only.

Text format accepted by :func:`import_from_file`: UTF-8, one record per
line, fields separated by single spaces, word first, then exactly ``dims``
decimal floats. An optional first line of exactly two integers is treated
as a ``count dims`` header (word2vec text convention). Floats are parsed
to the nearest binary64 and then rounded to the nearest binary32
(round-half-even); re-retrieval is bit-exact against that conversion.
"""

from __future__ import annotations

import re
import sqlite3
import threading
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateWordError,
    HeaderError,
    MalformedLineError,
    StoreError,
    WecImportError,
)

_BATCH_ROWS = 4096
_CHUNK = 256
_SELECT_IN = f"SELECT word, vector FROM vectors WHERE word IN ({','.join('?' * _CHUNK)})"
_HEADER_RE = re.compile(r"(\d+) (\d+)")
_FORMAT = "2"


@dataclass
class ImportReport:
    """Outcome of one plain-text import."""

    imported: int = 0
    skipped_duplicates: int = 0
    malformed_lines: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0
    bytes_text: int = 0
    bytes_store: int = 0

    @property
    def compression_ratio(self) -> float:
        return self.bytes_store / self.bytes_text if self.bytes_text else 0.0


class VectorRows(Mapping):
    """Read-only ``word -> vector`` mapping over one float32 matrix.

    ``matrix`` is the read-only ``(len(self), dims)`` array of one
    :meth:`WecStore.get_many` call and ``index`` maps each found word to its
    row. A word's vector is a read-only view of its row, made on first
    access and returned as the same object after that.
    """

    __slots__ = ("matrix", "index", "_views")

    def __init__(self, matrix: np.ndarray, index: dict[str, int]):
        self.matrix = matrix
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

    One instance may be shared between threads: every thread gets its own
    SQLite connection (thread-local), so concurrent readers never contend
    in Python, and the engine's file locking serializes the one writer an
    import brings along.
    """

    def __init__(self, path: str | Path, dims: int | None = None, create: bool = False):
        self.path = Path(path)
        if not create and not self.path.exists():
            raise StoreError(f"store file {self.path} does not exist")
        self._local = threading.local()
        self._all_conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        try:
            if create:
                self._create(dims)
            meta = dict(self._conn.execute("SELECT key, value FROM meta"))
        except sqlite3.Error as exc:
            raise StoreError(f"{self.path} is not a readable vector store: {exc}") from exc
        self._check_format(meta.get("format"))
        self.dims = int(meta["dims"]) if "dims" in meta else dims

    def _check_format(self, fmt: str | None) -> None:
        # a store without a format key predates the key: format 1, read as is
        if fmt not in (None, "1", _FORMAT):
            raise StoreError(
                f"{self.path} has store format {fmt!r}; this wecdb reads formats 1 and {_FORMAT}"
            )

    def _create(self, dims: int | None) -> None:
        """Create the tables if missing; only a table created here is stamped
        with the current format, so an older store keeps its own, and a store
        of an unknown format is refused before anything is written to it."""
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            new = conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type='table' AND name='vectors'"
            ).fetchone() is None
            conn.execute(
                "CREATE TABLE IF NOT EXISTS vectors"
                " (word TEXT PRIMARY KEY NOT NULL, vector BLOB NOT NULL)"
            )
            conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
            if new:
                conn.execute("INSERT OR REPLACE INTO meta VALUES ('format', ?)", (_FORMAT,))
            else:
                row = conn.execute("SELECT value FROM meta WHERE key = 'format'").fetchone()
                self._check_format(row[0] if row else None)
            if dims is not None:
                conn.execute("INSERT OR REPLACE INTO meta VALUES ('dims', ?)", (str(dims),))
            conn.execute("COMMIT")
        except Exception:
            conn.execute("ROLLBACK")
            raise

    @property
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            # check_same_thread off only to allow close() from the owner;
            # by construction each connection is used by a single thread.
            conn = sqlite3.connect(
                self.path, isolation_level=None, timeout=30.0, check_same_thread=False
            )
            self._local.conn = conn
            with self._conns_lock:
                self._all_conns.append(conn)
        return conn

    def get(self, word: str) -> np.ndarray | None:
        row = self._conn.execute(
            "SELECT vector FROM vectors WHERE word = ?", (word,)
        ).fetchone()
        if row is None:
            return None
        return np.frombuffer(row[0], dtype="<f4")

    def get_many(self, words: Iterable[str]) -> "VectorRows":
        """Found subset of ``words`` as a read-only mapping over one matrix.

        Distinct words are read through one indexed ``IN`` list of
        ``_CHUNK`` words per chunk; the last chunk is padded with NULL, which
        matches no row. The one SQL text keeps SQLite's per-connection
        statement cache at one prepared statement for any batch size; a list
        sized to each batch would fill the cache (128 entries) with large
        statements that stay resident. The blobs of every chunk become one
        read-only float32 matrix with one row per found word, so a call
        makes one array, not one per word.
        """
        if self.dims is None:
            raise StoreError(f"{self.path} records no vector width (dims)")
        unique = list(dict.fromkeys(words))
        found: list[str] = []
        blobs: list[bytes] = []
        conn = self._conn
        for start in range(0, len(unique), _CHUNK):
            chunk = unique[start : start + _CHUNK]
            chunk += [None] * (_CHUNK - len(chunk))
            for word, blob in conn.execute(_SELECT_IN, chunk):
                found.append(word)
                blobs.append(blob)
        size = 4 * self.dims
        if set(map(len, blobs)) - {size}:
            word = next(w for w, b in zip(found, blobs) if len(b) != size)
            raise StoreError(
                f"{self.path}: vector of {word!r} is not {self.dims} float32 values"
            )
        matrix = np.frombuffer(b"".join(blobs), dtype="<f4").reshape(len(blobs), self.dims)
        return VectorRows(matrix, dict(zip(found, range(len(found)))))

    def contains(self, word: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM vectors WHERE word = ? LIMIT 1", (word,)
        ).fetchone()
        return row is not None

    def count(self) -> int:
        return self._conn.execute("SELECT count(*) FROM vectors").fetchone()[0]

    def iter_words(self) -> Iterator[str]:
        cursor = self._conn.execute("SELECT word FROM vectors ORDER BY word")
        while True:
            rows = cursor.fetchmany(_BATCH_ROWS)
            if not rows:
                return
            for (word,) in rows:
                yield word

    def close(self) -> None:
        with self._conns_lock:
            for conn in self._all_conns:
                conn.close()
            self._all_conns.clear()
        self._local = threading.local()

    def __enter__(self) -> "WecStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_vector_text(fields: list[str]) -> bytes:
    """Pinned float conversion: decimal text -> binary64 -> binary32, little-endian."""
    return np.array(fields, dtype="<f8").astype("<f4").tobytes()


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
    store: WecStore,
    dims: int,
    *,
    on_duplicate: str = "reject",
    expect_header: str = "auto",
    on_malformed: str = "fail",
) -> ImportReport:
    """Import a plain-text WEC file into an empty store, atomically.

    ``on_duplicate``: ``reject`` fails on the first repeated word, naming it
    and its line; ``keep_first`` keeps the first occurrence and counts the
    rest. ``expect_header``: ``auto`` treats a first line of exactly two
    integers as a ``count dims`` header; ``yes`` requires one; ``no`` takes
    every line as data. ``on_malformed``: ``fail`` aborts on the first bad
    line; ``skip`` records (line, reason) in the report and continues.

    Any failure rolls the store back to empty; a partial import is never
    visible.
    """
    if on_duplicate not in ("reject", "keep_first"):
        raise ValueError(f"invalid on_duplicate policy {on_duplicate!r}")
    if expect_header not in ("auto", "yes", "no"):
        raise ValueError(f"invalid expect_header mode {expect_header!r}")
    if on_malformed not in ("fail", "skip"):
        raise ValueError(f"invalid on_malformed mode {on_malformed!r}")
    path = Path(path)
    if store.count() > 0:
        raise WecImportError(f"store {store.path} already contains records")

    report = ImportReport(bytes_text=path.stat().st_size)
    started = time.perf_counter()
    conn = store._conn
    conn.execute("PRAGMA journal_mode=MEMORY")
    conn.execute("PRAGMA synchronous=OFF")
    conn.execute("BEGIN")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = enumerate(fh, start=1)
            first = next(lines, None)
            pending: list[tuple[int, str, bytes]] = []
            if first is not None:
                header = _detect_header(first[1], expect_header)
                if header is not None:
                    if header[1] != dims:
                        raise HeaderError(
                            f"header declares dims {header[1]}, catalog dims is {dims}"
                        )
                else:
                    pending.append(_parse_line(first[0], first[1], dims, report, on_malformed))
            for lineno, line in lines:
                pending.append(_parse_line(lineno, line, dims, report, on_malformed))
                if len(pending) >= _BATCH_ROWS:
                    _insert_batch(conn, pending, on_duplicate, report)
                    pending.clear()
            _insert_batch(conn, pending, on_duplicate, report)
        conn.execute("COMMIT")
    except Exception:
        conn.execute("ROLLBACK")
        raise
    finally:
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA journal_mode=DELETE")

    report.elapsed = time.perf_counter() - started
    report.bytes_store = store.path.stat().st_size
    return report


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


def _malformed(lineno: int, reason: str, report: ImportReport, on_malformed: str) -> None:
    if on_malformed == "fail":
        raise MalformedLineError(lineno, reason)
    report.malformed_lines.append((lineno, reason))
    return None


def _insert_batch(
    conn: sqlite3.Connection,
    pending: list[tuple[int, str, bytes] | None],
    on_duplicate: str,
    report: ImportReport,
) -> None:
    rows = [(word, blob) for item in pending if item is not None for _, word, blob in [item]]
    if not rows:
        return
    cur = conn.cursor()
    if on_duplicate == "keep_first":
        cur.executemany("INSERT OR IGNORE INTO vectors VALUES (?, ?)", rows)
        report.imported += cur.rowcount
        report.skipped_duplicates += len(rows) - cur.rowcount
        return
    conn.execute("SAVEPOINT batch")
    try:
        cur.executemany("INSERT INTO vectors VALUES (?, ?)", rows)
        conn.execute("RELEASE batch")
        report.imported += len(rows)
    except sqlite3.IntegrityError:
        conn.execute("ROLLBACK TO batch")
        conn.execute("RELEASE batch")
        for item in pending:
            if item is None:
                continue
            lineno, word, blob = item
            try:
                cur.execute("INSERT INTO vectors VALUES (?, ?)", (word, blob))
            except sqlite3.IntegrityError:
                raise DuplicateWordError(word, lineno) from None
        raise WecImportError("duplicate insert failed on batch but not on replay")
