"""Per-WEC side files (phrase models, CLI outputs) are named after the WEC's
store file, catalog files are replaced atomically, and every Database sees a
phrase model or a store file that another one replaced."""

import errno
import re

import pytest

from wecdb import CatalogError, Database, WecdbError
from wecdb import catalog as catalog_mod
from wecdb.cli import main
from wecdb.identifier import parse_identifier
from wecdb.phrases import train_phrase_model
from wecdb.pipeline import pipeline_for_identifier

from conftest import write_wec_text

# distinct identifiers whose plain store names are the same bytes
PLAIN = "algo:x;dataset:d;dims:2;fold:0;unit:token;zz:q"
DOTTED = "algo:x;dataset:d;dims:2;fold:0;unit:token.zz=q"
VOCAB = ["a", "b", "c", "a_b", "b_c"]


def _tokens(db, ident, text="a b c"):
    res = db.get_vectors(ident, None, inputs=[text], raw=True)
    return res.per_wec[0][1][0].tokens


@pytest.fixture
def colliding(tmp_path):
    root = tmp_path / "catalog"
    write_wec_text(tmp_path / "v.txt", VOCAB, dims=2)
    with Database(root, create_if_missing=True) as db:
        for ident in (PLAIN, DOTTED):
            db.import_from_file(tmp_path / "v.txt", ident)
        db.train_phrases(["a b"] * 30 + ["c"] * 5, PLAIN, threshold=1.0)
        db.train_phrases(["b c"] * 30 + ["a"] * 5, DOTTED, threshold=1.0)
    return root


def test_colliding_identifiers_keep_their_own_models(colliding):
    with Database(colliding) as db:
        plain, dotted = db.catalog.require(PLAIN), db.catalog.require(DOTTED)
        assert plain.phrase_model_ref != dotted.phrase_model_ref
        assert _tokens(db, PLAIN) == ["a_b", "c"]
        assert _tokens(db, DOTTED) == ["a", "b_c"]


@pytest.mark.parametrize("gone, kept, joined", [
    (PLAIN, DOTTED, ["a", "b_c"]),
    (DOTTED, PLAIN, ["a_b", "c"]),
], ids=["delete-plain", "delete-dotted"])
def test_deleting_one_keeps_the_others_model(colliding, gone, kept, joined):
    with Database(colliding) as db:
        db.delete(gone, force=True)
        assert db.catalog.phrase_model_path(db.catalog.require(kept)).exists()
        assert _tokens(db, kept) == joined
    assert len(list((colliding / "phrases").iterdir())) == 1


def test_delete_keeps_a_model_another_entry_still_refers_to(colliding):
    # manifests written before models were named by store file may record
    # one model file for two entries
    manifest = colliding / "catalog.manifest"
    with Database(colliding) as db:
        shared = db.catalog.require(PLAIN).phrase_model_ref
        old = db.catalog.require(DOTTED).phrase_model_ref
    manifest.write_text(manifest.read_text("utf-8").replace(old, shared), encoding="utf-8")
    (colliding / "phrases" / old).unlink()
    with Database(colliding) as db:
        db.delete(DOTTED, force=True)
        assert (colliding / "phrases" / shared).exists()
        assert _tokens(db, PLAIN) == ["a_b", "c"]
        db.delete(PLAIN, force=True)
    assert list((colliding / "phrases").iterdir()) == []


def test_sts_writes_one_ranking_per_colliding_wec(colliding, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a b\tb c\nc\ta\n", encoding="utf-8")
    outdir = tmp_path / "sts-out"
    code = main(["--root", str(colliding), "sts", f"{PLAIN}&{DOTTED}", str(pairs),
                 "--outdir", str(outdir), "--stopwords", "none"])
    assert code == 0
    files = sorted(p.name for p in outdir.glob("*.ranking.tsv"))
    assert len(files) == 2
    info = (outdir / "run.info").read_text("utf-8").splitlines()
    named = {
        fields[1]: fields[4].removeprefix("file=")
        for fields in (line.split(" ") for line in info if line.startswith("wec: "))
    }
    assert sorted(named) == sorted([PLAIN, DOTTED])
    assert sorted(named.values()) == files
    with Database(colliding) as db:
        for ident, name in named.items():
            assert name == f"{db.catalog.require(ident).file_stem}.ranking.tsv"


def test_second_database_sees_a_retrained_model(tmp_path):
    root = tmp_path / "catalog"
    write_wec_text(tmp_path / "v.txt", VOCAB, dims=2)
    with Database(root, create_if_missing=True) as one, Database(root) as two:
        one.import_from_file(tmp_path / "v.txt", PLAIN)
        one.train_phrases(["a b"] * 30 + ["c"] * 5, PLAIN, threshold=1.0)
        assert _tokens(two, PLAIN) == ["a_b", "c"]
        one.train_phrases(["b c"] * 30 + ["a"] * 5, PLAIN, threshold=1.0)
        assert _tokens(two, PLAIN) == ["a", "b_c"]
        assert _tokens(one, PLAIN) == ["a", "b_c"]



def test_second_database_sees_a_reimported_store(tmp_path):
    root = tmp_path / "catalog"
    (tmp_path / "old.txt").write_text("w 1 2\n", encoding="utf-8")
    (tmp_path / "new.txt").write_text("w 3 4\n", encoding="utf-8")
    with Database(root, create_if_missing=True) as one, Database(root) as two:
        one.import_from_file(tmp_path / "old.txt", PLAIN)
        assert two.get_vector(PLAIN, "w").tolist() == [1, 2]
        one.delete(PLAIN, force=True)
        one.import_from_file(tmp_path / "new.txt", PLAIN)
        assert two.get_vector(PLAIN, "w").tolist() == [3, 4]
        assert two.get_vectors_batch(PLAIN, ["w"])[0][0][1].tolist() == [3, 4]


def test_missing_phrase_model_is_a_catalog_error_naming_it_and_the_wec(colliding):
    with Database(colliding) as db, Database(colliding) as fresh:
        assert _tokens(db, PLAIN) == ["a_b", "c"]  # keeps the model
        path = db.catalog.phrase_model_path(db.catalog.require(PLAIN))
        path.unlink()
        for database in (db, fresh):
            with pytest.raises(CatalogError) as info:
                _tokens(database, PLAIN)
            assert str(info.value) == f"phrase model file {path} of {PLAIN} is missing"
        assert _tokens(db, DOTTED) == ["a", "b_c"]


def test_phrase_model_that_is_not_utf8_is_refused_naming_it(colliding):
    with Database(colliding) as db:
        path = db.catalog.phrase_model_path(db.catalog.require(PLAIN))
        path.write_bytes(path.read_bytes() + b"u caf\xe9 3\n")
        with pytest.raises(WecdbError, match=f"{re.escape(str(path))} is not UTF-8 text"):
            _tokens(db, PLAIN)


def test_retrain_leaves_no_temp_file(colliding):
    with Database(colliding) as db:
        db.train_phrases(["a c"] * 30, PLAIN, threshold=1.0)
        files = sorted(p.name for p in (colliding / "phrases").iterdir())
        assert files == sorted(db.catalog.require(i).phrase_model_ref for i in (PLAIN, DOTTED))
    assert not [p for p in colliding.iterdir() if p.name.endswith(".tmp")]


def test_failed_model_write_keeps_the_old_model(colliding):
    # the model is written to a temp file first: a write that fails leaves
    # the old model whole and no temp file behind
    class Unwritable:
        def save(self, path):
            path.write_text("# phrase model v1\n", encoding="utf-8")
            raise OSError("disk full")

    with Database(colliding) as db:
        path = db.catalog.phrase_model_path(db.catalog.require(PLAIN))
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            db.catalog.set_phrase_model(PLAIN, Unwritable())
        assert path.read_bytes() == before
        assert _tokens(db, PLAIN) == ["a_b", "c"]
    assert len(list((colliding / "phrases").iterdir())) == 2


def _failing_manifest_write(monkeypatch):
    """Every manifest write fails, as on a full disk; other catalog files are written."""
    write_atomic = catalog_mod._write_atomic

    def write(path, content):
        if path.name == catalog_mod.MANIFEST_NAME:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_atomic(path, content)

    monkeypatch.setattr(catalog_mod, "_write_atomic", write)


def _model_files(root):
    return sorted(p.name for p in (root / "phrases").iterdir())


def test_a_retrain_commits_with_its_model_file_alone(colliding, monkeypatch):
    # the entry names the same file before and after: the manifest is not written
    _failing_manifest_write(monkeypatch)
    before = _model_files(colliding)
    with Database(colliding) as db:
        db.train_phrases(["b a"] * 30 + ["c"] * 5, PLAIN, threshold=1.0)
        assert _tokens(db, PLAIN, "b a c") == ["b_a", "c"]
    with Database(colliding) as fresh:
        assert _tokens(fresh, PLAIN, "b a c") == ["b_a", "c"]
        assert _tokens(fresh, DOTTED) == ["a", "b_c"]
    assert _model_files(colliding) == before


def test_a_first_model_whose_manifest_write_fails_leaves_no_file(tmp_path, monkeypatch):
    root = tmp_path / "catalog"
    write_wec_text(tmp_path / "v.txt", VOCAB, dims=2)
    with Database(root, create_if_missing=True) as db:
        db.import_from_file(tmp_path / "v.txt", PLAIN, vocab_join_max_len=2)
        assert _tokens(db, PLAIN) == ["a_b", "c"]
        _failing_manifest_write(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            db.train_phrases(["b c"] * 30 + ["a"] * 5, PLAIN, threshold=1.0)
        assert _model_files(root) == []
        assert db.catalog.require(PLAIN).vocab_join_max_len == 2
        assert _tokens(db, PLAIN) == ["a_b", "c"]


def test_a_registration_whose_manifest_write_fails_leaves_no_model(colliding, monkeypatch):
    before = _model_files(colliding)
    third = "algo:x;dataset:e;dims:2;fold:0;unit:token"
    model = train_phrase_model([["a", "c"]] * 3, threshold=0.0)
    _failing_manifest_write(monkeypatch)
    with Database(colliding) as db:
        with pytest.raises(OSError, match="No space left"):
            db.register(third, phrase_model=model)
        assert db.catalog.lookup(third) is None
        assert _model_files(colliding) == before
        assert _tokens(db, PLAIN) == ["a_b", "c"]
        assert _tokens(db, DOTTED) == ["a", "b_c"]


def test_register_with_model_names_it_after_the_store_file(tmp_path):
    db = Database(tmp_path / "catalog", create_if_missing=True)
    model = train_phrase_model([["a", "b"]] * 3, threshold=0.0)
    for text in (PLAIN, DOTTED):
        ident = parse_identifier(text)
        entry = db.catalog.register(ident, pipeline_for_identifier(ident), phrase_model=model)
        assert entry.phrase_model_ref == f"{entry.file_stem}.phr"
        assert db.catalog.phrase_model_path(entry).exists()
    db.close()
