"""Only imports and catalog mutations write: opening a catalog and every read
API leave the catalog root as it was, and a store file that is gone is an
error, never a new empty store."""

import re

import pytest

from wecdb import CatalogError, Database, PreprocessCache, StoreError
from wecdb.catalog import Catalog
from wecdb.cli import main

from conftest import write_wec_text

FULL = "algo:x;dataset:full;dims:2;fold:0;unit:token"
EMPTY = "algo:x;dataset:empty;dims:2;fold:0;unit:token"
JOIN = "algo:x;dataset:join;dims:2;fold:0;unit:token"
QUERY = "algo:x;dataset:{empty,full,join};dims:2;fold:0;unit:token"
WORDS = ["a", "b", "c", "a_b"]


def _snapshot(root):
    """(name, inode, mtime, size) of the root and everything under it."""
    paths = [root, *sorted(root.rglob("*"))]
    return [
        (str(p.relative_to(root)), st.st_ino, st.st_mtime_ns, st.st_size)
        for p, st in ((p, p.stat()) for p in paths)
    ]


@pytest.fixture
def three(tmp_path):
    """An imported WEC, a registered but never imported one and a vocabulary-join one."""
    root = tmp_path / "catalog"
    write_wec_text(tmp_path / "v.txt", WORDS, dims=2)
    with Database(root, create_if_missing=True) as db:
        db.import_from_file(tmp_path / "v.txt", FULL)
        db.register(EMPTY)
        db.import_from_file(tmp_path / "v.txt", JOIN, vocab_join_max_len=2)
    return root


def test_reads_never_write(three, capsys):
    before = _snapshot(three)
    with Database(three) as db:
        for ident in (FULL, EMPTY, JOIN):
            full = ident != EMPTY
            assert (db.get_vector(ident, "a") is not None) == full
            assert db.get_vector(ident, "zz") is None
            tokens = db.get_vectors(ident, inputs=[["a", "b", "zz"]])
            assert tokens.per_wec[0][1][0].missing == (["zz"] if full else ["a", "b", "zz"])
            raw = db.get_vectors(ident, PreprocessCache(), inputs=["a b c"], raw=True)
            assert len(raw.per_wec[0][1][0].pairs) == (2 if ident == JOIN else 3 if full else 0)
            found, missing = db.get_vectors_batch(ident, ["a", "zz"])
            assert (len(found), missing) == ((1, ["zz"]) if full else (0, ["a", "zz"]))
            assert db.contains(ident, "a") == full
            assert db.vocab_size(ident) == (len(WORDS) if full else 0)
            assert list(db.iterate_vocab(ident)) == (sorted(WORDS) if full else [])
        assert len(db.catalog.list_entries()) == 3
        assert len(db.get_vectors(QUERY, inputs=["a b"], raw=True).per_wec) == 3
    for argv in (["list"], ["list", "--json"], ["vectors", QUERY, "--words", "a", "zz"],
                 ["vectors", QUERY, "--text", "a b c"]):
        assert main(["--root", str(three), *argv]) == 0
    capsys.readouterr()
    assert _snapshot(three) == before


def test_opening_a_directory_that_is_not_a_catalog_writes_nothing(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    for root in (empty, tmp_path / "absent"):
        with pytest.raises(CatalogError, match=re.escape(str(root))):
            Catalog(root)
        with pytest.raises(CatalogError, match=re.escape(str(root))):
            Database(root)
        assert main(["--root", str(root), "list"]) == 1
        assert "error:" in capsys.readouterr().err
    write_wec_text(tmp_path / "v.txt", WORDS, dims=2)
    assert main(["--root", str(empty), "import", str(tmp_path / "v.txt"), FULL]) == 1
    assert list(empty.iterdir()) == [] and not (tmp_path / "absent").exists()
    assert main(["--root", str(empty), "import", str(tmp_path / "v.txt"), FULL, "--create"]) == 0
    with Database(empty) as db:
        assert db.vocab_size(FULL) == len(WORDS)


def test_a_deleted_store_file_raises_and_creates_nothing(three, tmp_path, capsys):
    with Database(three) as cached, Database(three) as fresh:
        entry = cached.catalog.require(FULL)
        path = cached.catalog.store_path(entry)
        assert cached.get_vector(FULL, "a") is not None  # a handle is now cached
        path.unlink()
        named = re.escape(entry.store_file)
        for db in (cached, fresh):
            with pytest.raises(StoreError, match=named):
                db.get_vector(FULL, "a")
            with pytest.raises(StoreError, match=named):
                db.get_vectors(FULL, inputs=["a b"], raw=True)
            with pytest.raises(StoreError, match=named):
                db.vocab_size(FULL)
        assert main(["--root", str(three), "vectors", FULL, "--words", "a"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and entry.store_file in err
        assert not path.exists()
        assert cached.catalog.require(FULL).vocab_size == len(WORDS)
        cached.delete(FULL, force=True)
        write_wec_text(tmp_path / "again.txt", WORDS[:2], dims=2)
        cached.import_from_file(tmp_path / "again.txt", FULL)
        for db in (cached, fresh):
            assert db.vocab_size(FULL) == 2
            assert db.get_vector(FULL, "b") is not None
