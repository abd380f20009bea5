"""A process killed during ``import_from_file`` leaves its identifier absent
or complete, never registered with a partial or empty store."""

import os
import subprocess
import sys
import time
from pathlib import Path

import wecdb
from wecdb import Database

from conftest import write_wec_text

IDENT = "algo:kill;dataset:d;dims:200;fold:0;unit:token"
WORDS = [f"w{i:05d}" for i in range(4000)]
# kill points, as fractions of one uninterrupted import's run time
FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 1.2)

CHILD = """
import sys
from wecdb import Database
db = Database(sys.argv[1], create_if_missing=True)
print("ready", flush=True)
db.import_from_file(sys.argv[2], sys.argv[3])
print("done", flush=True)
"""


def _start(root: Path, text: Path) -> subprocess.Popen:
    paths = [str(Path(wecdb.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(root), str(text), IDENT],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    assert child.stdout.readline() == "ready\n"
    return child


def _assert_complete(db: Database, expected) -> None:
    assert db.catalog.lookup(IDENT).vocab_size == len(WORDS)
    for word in WORDS[::397] + WORDS[-1:]:
        assert db.get_vector(IDENT, word).tobytes() == expected[word].tobytes(), word


def test_killed_import_leaves_identifier_absent_or_complete(tmp_path):
    text = tmp_path / "v.txt"
    expected = write_wec_text(text, WORDS, dims=200, fmt="%.6f")

    child = _start(tmp_path / "whole", text)
    started = time.perf_counter()
    assert child.stdout.readline() == "done\n"
    run_time = time.perf_counter() - started
    child.stdout.close()
    assert child.wait() == 0

    outcomes = []
    for k, fraction in enumerate(FRACTIONS):
        root = tmp_path / f"killed{k}"
        child = _start(root, text)
        time.sleep(fraction * run_time)
        child.kill()
        child.wait()
        child.stdout.close()
        with Database(root) as db:
            entry = db.catalog.lookup(IDENT)
            outcomes.append(entry is not None)
            if entry is None:
                assert db.import_from_file(text, IDENT).imported == len(WORDS)  # retry
            _assert_complete(db, expected)
            store = entry.store_file if entry else db.catalog.require(IDENT).store_file
            # besides the store, only the killed build's private file may remain
            leftovers = [p.name for p in (root / "stores").iterdir() if p.name != store]
            assert all(name.startswith(".import-") for name in leftovers), leftovers
    assert not all(outcomes), "no kill landed before the import finished"
