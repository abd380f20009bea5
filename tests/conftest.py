import os
import sqlite3
from contextlib import closing

import numpy as np
import pytest

from wecdb import Database


def pytest_sessionstart(session):
    """Print SQLite's version, and stop the run unless its JSON functions work:
    a batched store read binds its words as one JSON array read by json_each."""
    print("SQLite", sqlite3.sqlite_version)
    try:
        with closing(sqlite3.connect(":memory:")) as conn:
            rows = conn.execute("""SELECT value FROM json_each('["a"]')""").fetchall()
    except sqlite3.Error as exc:
        rows = exc
    if rows != [("a",)]:
        pytest.exit(
            f"SQLite {sqlite3.sqlite_version} has no working json_each ({rows});"
            " wecdb needs SQLite's JSON functions",
            returncode=1,
        )


def write_wec_text(path, words, dims, rng=None, fmt="%.5f", header=None):
    """Write a plain-text WEC file; returns {word: float32 vector} of expectation."""
    rng = rng or np.random.default_rng(0)
    expected = {}
    lines = []
    if header is not None:
        lines.append(header)
    for word in words:
        values = rng.uniform(-1.0, 1.0, size=dims)
        fields = [fmt % v for v in values]
        lines.append(word + " " + " ".join(fields))
        expected[word] = np.array(fields, dtype="<f8").astype("<f4")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return expected


def open_files_under(directory):
    """Paths under ``directory`` that this process holds open, one per descriptor
    (listed through ``/proc/self/fd``)."""
    prefix = os.path.realpath(directory) + os.sep
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(prefix):
            targets.append(target)
    return targets


@pytest.fixture
def db(tmp_path):
    database = Database(tmp_path / "catalog", create_if_missing=True)
    yield database
    database.close()


@pytest.fixture
def toy_wec(db, tmp_path):
    """Small fold:1 WEC with a phrase token, vocabulary join enabled."""
    words = ["theory", "of", "computation", "petri", "net", "petri_net", "analysis", "the"]
    expected = write_wec_text(tmp_path / "toy.txt", words, dims=4)
    ident = "algo:glove;dataset:toy;dims:4;fold:1;unit:token"
    db.import_from_file(tmp_path / "toy.txt", ident, vocab_join_max_len=4)
    return ident, expected
