import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import wecdb
from wecdb import Database, PreprocessCache, WecImportError, build_pipeline, run_pipeline

from conftest import open_files_under, write_wec_text

IDENT = "algo:t;dataset:conc;dims:4;fold:1;unit:token"


def _run_threads(worker, n=8):
    errors = []

    def wrapped(k):
        try:
            worker(k)
        except Exception as exc:  # noqa: BLE001 - surfaced via assertion below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == [], errors


def test_concurrent_readers_on_one_store(db, tmp_path):
    words = [f"cw{i}" for i in range(300)]
    expected = write_wec_text(tmp_path / "c.txt", words, dims=4)
    db.import_from_file(tmp_path / "c.txt", IDENT)

    def worker(k):
        for i in range(50):
            word = words[(k * 37 + i) % len(words)]
            vec = db.get_vector(IDENT, word)
            assert vec.tobytes() == expected[word].tobytes()
            found, missing = db.get_vectors_batch(IDENT, words[:50])
            assert len(found) == 50 and not missing

    _run_threads(worker)


def test_threads_that_first_read_a_file_at_once_share_one_copy(tmp_path):
    # none of them may replace, and close, the store handle another one uses
    write_wec_text(tmp_path / "c.txt", ["a", "b", "a_b"], dims=4)
    root = tmp_path / "catalog"
    with Database(root, create_if_missing=True) as db:
        db.import_from_file(tmp_path / "c.txt", IDENT)
        db.train_phrases(["a b"] * 30 + ["b"] * 5, IDENT, threshold=1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with Database(root) as db:
                entry = db.catalog.require(IDENT)
                start = threading.Barrier(16)  # more threads than cores
                seen = []

                def worker(k):
                    start.wait(timeout=30)
                    seen.append((db.open_store(entry), db._phrase_model(entry)))

                _run_threads(worker, n=16)
                stores, models = zip(*seen)
                assert len(set(map(id, stores))) == 1 and len(set(map(id, models))) == 1
                assert stores[0].get("a_b") is not None
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_pipeline_with_shared_cache():
    pipeline = build_pipeline(case_fold=True)
    cache = PreprocessCache()
    lines = [f"Line number {i} of Shared Text" for i in range(20)]
    expected = [run_pipeline(pipeline, line) for line in lines]

    def worker(k):
        for i, line in enumerate(lines):
            assert run_pipeline(pipeline, line, cache) == expected[i]

    _run_threads(worker)
    assert cache.hits + cache.misses == 8 * len(lines)


def test_concurrent_get_vectors_calls(db, tmp_path):
    write_wec_text(tmp_path / "c.txt", ["alpha", "beta", "gamma"], dims=4)
    db.import_from_file(tmp_path / "c.txt", IDENT)
    cache = PreprocessCache()
    reference = db.get_vectors(IDENT, None, inputs=["Alpha beta GAMMA"], raw=True)
    ref_words = reference.per_wec[0][1][0].words()

    def worker(k):
        res = db.get_vectors(IDENT, cache, inputs=["Alpha beta GAMMA"], raw=True)
        assert res.per_wec[0][1][0].words() == ref_words

    _run_threads(worker)


def test_concurrent_multi_wec_calls_share_store_handles_with_their_helpers(db, tmp_path):
    # each call's helper thread reads the same handles as the other calls and
    # their helpers, one statement at a time per handle
    words = [f"w{i}" for i in range(300)]
    grid = "algo:t;dataset:{a,b,c};dims:4;fold:1;unit:token"
    for name in "abc":
        write_wec_text(tmp_path / f"{name}.txt", words[::2] if name == "b" else words, dims=4)
        db.import_from_file(tmp_path / f"{name}.txt", grid.replace("{a,b,c}", name))
    units = [words[k::7] + ["absent"] for k in range(7)]
    reference = [[u.vectors() for u in us] for _, us in db.get_vectors(grid, inputs=units)]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def worker(k):
            for _ in range(5):
                res = db.get_vectors(grid, inputs=units)
                got = [[u.vectors() for u in us] for _, us in res]
                assert [[[v.tobytes() for v in u] for u in us] for us in got] == [
                    [[v.tobytes() for v in u] for u in us] for us in reference]

        _run_threads(worker, n=6)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_cross_process_registration_locking(tmp_path):
    # two processes racing to register distinct WECs must both land in the
    # manifest (flock-serialized read-modify-write)
    import subprocess
    import sys
    import textwrap

    root = tmp_path / "cat"
    Database(root, create_if_missing=True)
    script = textwrap.dedent(
        """
        import sys
        from wecdb import Database
        db = Database(sys.argv[1])
        for i in range(10):
            db.register(f"algo:p{sys.argv[2]};dataset:d{i};dims:2;fold:0;unit:token")
        """
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(root), str(k)])
        for k in range(2)
    ]
    for proc in procs:
        assert proc.wait() == 0
    db = Database(root)
    assert len(db.catalog.list_entries()) == 20


def test_processes_creating_one_catalog_at_once_keep_both_registrations(tmp_path):
    # each process opens the fresh root with create_if_missing=True; neither
    # may write its empty manifest over one the other has registered into
    root, go = tmp_path / "cat", tmp_path / "go"
    script = textwrap.dedent(
        """
        import os, sys, time
        from wecdb import Database
        open(sys.argv[2] + sys.argv[3], "w").close()  # imported: ready to race
        while not os.path.exists(sys.argv[2]):
            time.sleep(0.001)
        Database(sys.argv[1], create_if_missing=True).register(
            f"algo:p{sys.argv[3]};dataset:d;dims:2;fold:0;unit:token")
        """
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(root), str(go), str(k)])
        for k in range(2)
    ]
    deadline = time.monotonic() + 60
    while not all(Path(f"{go}{k}").exists() for k in range(2)) and time.monotonic() < deadline:
        time.sleep(0.01)
    go.touch()
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    with Database(root) as db:
        assert [e.identifier["algo"] for e in db.catalog.list_entries()] == ["p0", "p1"]


def test_parallel_imports_of_different_wecs(tmp_path):
    db = Database(tmp_path / "cat", create_if_missing=True)
    paths = []
    for i in range(4):
        path = tmp_path / f"w{i}.txt"
        write_wec_text(path, [f"t{i}_{j}" for j in range(200)], dims=3)
        paths.append(path)

    def worker(k):
        db.import_from_file(paths[k], f"algo:t;dataset:d{k};dims:3;fold:0;unit:token")

    _run_threads(worker, n=4)
    for k in range(4):
        assert db.vocab_size(f"algo:t;dataset:d{k};dims:3;fold:0;unit:token") == 200


def test_concurrent_imports_into_one_wec_let_exactly_one_succeed(tmp_path):
    db = Database(tmp_path / "cat", create_if_missing=True)
    texts = []
    for k in range(2):
        path = tmp_path / f"w{k}.txt"
        texts.append(write_wec_text(path, [f"t{j}" for j in range(300)], dims=3,
                                    rng=np.random.default_rng(k)))
    for trial in range(3):
        ident = f"algo:t;dataset:into{trial};dims:3;fold:0;unit:token"
        db.register(ident)
        start = threading.Barrier(2, timeout=60)
        outcomes = {}

        def worker(k):
            start.wait()
            try:
                outcomes[k] = db.import_into(tmp_path / f"w{k}.txt", ident).imported
            except WecImportError as exc:
                outcomes[k] = exc

        _run_threads(worker, n=2)
        (winner,) = [k for k, got in outcomes.items() if got == 300]
        assert "already contains records" in str(outcomes[1 - winner])
        assert db.catalog.require(ident).vocab_size == db.vocab_size(ident) == 300
        assert db.get_vector(ident, "t7").tobytes() == texts[winner]["t7"].tobytes()
    db.close()


_REPLACE_WHILE_READING = textwrap.dedent(
    """
    import sys, threading
    from collections import Counter
    import numpy as np
    from wecdb import Database, StoreError, UnknownWecError

    root, text, ident = sys.argv[1:4]
    expected = {}
    with open(text, encoding="utf-8") as fh:
        for line in fh:
            word, *fields = line.split()
            expected[word] = np.array(fields, dtype="<f8").astype("<f4").tobytes()
    words = sorted(expected)
    one, two = Database(root), Database(root)
    store_file = str(one.catalog.store_path(one.catalog.require(ident)))
    stop = threading.Event()
    reads, bad = [0, 0], Counter()
    sys.setswitchinterval(1e-5)  # switch threads often, inside reads too

    def reader(k):
        while not stop.is_set():
            try:
                found, missing = one.get_vectors_batch(ident, words)
            except UnknownWecError:
                continue  # between a delete and the import that follows it
            except Exception as exc:
                # a read that saw the manifest before a delete unlinked the file
                gone = isinstance(exc, StoreError) and store_file in str(exc)
                if not gone or "closed" in str(exc):
                    bad[f"{type(exc).__name__}: {exc}"] += 1
                continue
            if missing or any(vec.tobytes() != expected[w] for w, vec in found):
                bad["wrong or missing vectors"] += 1
            reads[k] += 1

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for i in range(200):
        # the readers' own Database drops the handle on delete, or on its next read
        writer = (one, two)[i % 2]
        writer.delete(ident, force=True)
        writer.import_from_file(text, ident)
    stop.set()
    for t in threads:
        t.join()
    one.close()
    two.close()
    print("reads", reads, "bad", bad)
    sys.exit(1 if bad or 0 in reads else 0)
    """
)


def test_reads_while_a_store_is_deleted_and_imported_again_neither_crash_nor_fail(tmp_path):
    # A crash ends the child, not pytest; its stderr carries faulthandler's stacks.
    ident = "algo:t;dataset:swap;dims:50;fold:1;unit:token"
    write_wec_text(tmp_path / "c.txt", [f"cw{i}" for i in range(100)], dims=50)
    root = tmp_path / "catalog"
    with Database(root, create_if_missing=True) as db:
        db.import_from_file(tmp_path / "c.txt", ident)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(wecdb.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-X", "faulthandler", "-c", _REPLACE_WHILE_READING,
         str(root), str(tmp_path / "c.txt"), ident],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stdout}\n{proc.stderr}"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files via /proc")
def test_short_lived_reader_threads_share_one_open_store_file(db, tmp_path):
    expected = write_wec_text(tmp_path / "c.txt", ["a", "b"], dims=4)
    db.import_from_file(tmp_path / "c.txt", IDENT)
    before = len(open_files_under(db.root))
    for _ in range(100):
        thread = threading.Thread(target=db.get_vector, args=(IDENT, "a"))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert len(open_files_under(db.root)) <= before + 1
    assert db.get_vector(IDENT, "a").tobytes() == expected["a"].tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files via /proc")
def test_a_replaced_store_handle_reads_on_from_the_file_it_opened(tmp_path):
    words = [f"w{i}" for i in range(50)]
    old = write_wec_text(tmp_path / "old.txt", words, dims=4, rng=np.random.default_rng(1))
    new = write_wec_text(tmp_path / "new.txt", words, dims=4, rng=np.random.default_rng(2))
    root = tmp_path / "catalog"
    with Database(root, create_if_missing=True) as other:
        other.import_from_file(tmp_path / "old.txt", IDENT)
    db = Database(root)
    before = open_files_under(root)
    handle = db.open_store(db.catalog.require(IDENT))
    with Database(root) as other:
        other.delete(IDENT, force=True)
        other.import_from_file(tmp_path / "new.txt", IDENT)
    assert db.get_vector(IDENT, "w0").tobytes() == new["w0"].tobytes()  # replaces the handle
    assert db.open_store(db.catalog.require(IDENT)) is not handle
    for word in words:
        assert handle.get(word).tobytes() == old[word].tobytes()
    assert handle.count() == len(words) and list(handle.iter_words()) == sorted(words)
    del handle  # the last reference: its file closes
    db.close()
    assert open_files_under(root) == before
