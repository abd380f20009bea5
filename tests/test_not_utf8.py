"""Text that is not UTF-8: a byte that is not UTF-8 reaches Python as a lone
surrogate (U+DC80 to U+DCFF) in a POSIX path or argument. No store holds such
a word, no identifier holds such a value, and no catalog records such a path."""

import errno
import json

import pytest

from wecdb import CatalogError, Database, IdentifierError, PipelineError
from wecdb.catalog import Catalog
from wecdb.cli import main
from wecdb.errors import ExternalStageError
from wecdb.identifier import parse_filter, parse_identifier, parse_query
from wecdb.pipeline import _ExternalProcess, build_pipeline

from conftest import write_wec_text

IDENT = "algo:a;dataset:d;dims:2;fold:0;unit:token"
BAD = "caf\udce9"  # b"caf\xe9" as a POSIX argument decodes it


def _stores(root):
    return sorted(p.name for p in (root / "stores").glob("*.wec"))


def _write_v(path):
    path.write_text("tea 3 4\ncup 1 2\n", encoding="utf-8")
    return path


def test_an_import_of_a_file_whose_name_is_not_utf8_leaves_no_store(tmp_path, capsys):
    root = tmp_path / "c"
    source = _write_v(tmp_path / f"{BAD}.txt")
    assert main(["--root", str(root), "import", str(source), IDENT, "--create"]) == 1
    assert capsys.readouterr().err.startswith("error: source path is not UTF-8 text")
    assert _stores(root) == []
    with Database(root) as db:
        db.register(IDENT)
        assert db.get_vector(IDENT, "tea") is None and db.vocab_size(IDENT) == 0
        with pytest.raises(CatalogError, match="source path is not UTF-8 text"):
            db.register("algo:b;dataset:d;dims:2;fold:0;unit:token", source=source)


def _failing_manifest_write(monkeypatch, root, seen):
    def write(self, entries):
        seen.append(_stores(root))  # the store is in place when the manifest is written
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Catalog, "_write_manifest", write)


def test_a_failed_manifest_write_removes_the_store_import_from_file_moved(
    db, tmp_path, monkeypatch
):
    source = _write_v(tmp_path / "v.txt")
    seen = []
    _failing_manifest_write(monkeypatch, db.root, seen)
    with pytest.raises(OSError, match="No space left"):
        db.import_from_file(source, IDENT)
    assert len(seen) == 1 and len(seen[0]) == 1
    assert _stores(db.root) == [] and db.catalog.list_entries() == []
    monkeypatch.undo()
    db.register(IDENT)
    assert db.get_vector(IDENT, "tea") is None and db.vocab_size(IDENT) == 0


def test_a_failed_manifest_write_removes_the_store_import_into_moved(db, tmp_path, monkeypatch):
    source = _write_v(tmp_path / "v.txt")
    db.register(IDENT)
    seen = []
    _failing_manifest_write(monkeypatch, db.root, seen)
    with pytest.raises(OSError, match="No space left"):
        db.import_into(source, IDENT)
    assert len(seen) == 1 and len(seen[0]) == 1
    assert _stores(db.root) == []
    assert db.catalog.require(IDENT).vocab_size == 0
    assert db.get_vector(IDENT, "tea") is None and db.vocab_size(IDENT) == 0
    monkeypatch.undo()
    assert db.import_into(source, IDENT).imported == 2
    assert db.get_vector(IDENT, "tea").tolist() == [3.0, 4.0]


@pytest.fixture
def toy(db, tmp_path):
    """A WEC that joins phrases by its vocabulary, holding 'café' as UTF-8,
    and a copy of it as dataset 'e'."""
    write_wec_text(tmp_path / "t.txt", ["tea", "café", "tea_cup", "cup"], dims=3)
    for dataset in ("e", "d"):
        ident = f"algo:a;dataset:{dataset};dims:3;fold:0;unit:token"
        db.import_from_file(tmp_path / "t.txt", ident, vocab_join_max_len=3)
    return ident


def test_a_word_that_is_not_utf8_reads_as_absent(db, toy):
    assert db.get_vector(toy, BAD) is None
    assert not db.contains(toy, BAD) and db.contains(toy, "café")
    pairs, missing = db.get_vectors_batch(toy, [BAD, "tea", "a\0" + BAD])
    assert [w for w, _ in pairs] == ["tea"] and missing == [BAD, "a\0" + BAD]
    store = db.open_store(db.catalog.require(toy))
    assert store.get_many([BAD, "cup", "\ud800"]).words == ["cup"]
    grid = "algo:a;dataset:{d,e};dims:3;fold:0;unit:token"  # two WECs: a helper thread
    for query in (toy, grid):
        res = db.get_vectors(query, None, inputs=[f"{BAD} tea cup"], raw=True)
        for _, (unit,) in res:
            assert unit.words() == ["tea_cup"] and unit.missing == [BAD]
        res = db.get_vectors(query, None, inputs=[[BAD, "tea"]], raw=False)
        for _, (unit,) in res:
            assert unit.words() == ["tea"] and unit.missing == [BAD]


def test_the_cli_reads_an_argument_that_is_not_utf8_as_absent(db, toy, tmp_path, capsys):
    root = str(db.root)
    for given in (["--words", BAD, "tea"], ["--text", f"{BAD} tea"]):
        assert main(["--root", root, "vectors", toy, *given]) == 0
        (unit,) = json.loads(capsys.readouterr().out)["results"][0]["units"]
        assert [w for w, _ in unit["pairs"]] == ["tea"] and unit["missing"] == [BAD]
    outdir = tmp_path / "heat"
    assert main(["--root", root, "heatmap", toy, f"{BAD} tea", "tea",
                 "--outdir", str(outdir)]) == 0
    assert "1x1" in capsys.readouterr().out


def test_an_identifier_value_that_is_not_utf8_is_refused_naming_its_key(tmp_path, capsys):
    spec = f"algo:{BAD};dataset:d;dims:2;fold:0;unit:token"
    for parse in (parse_identifier, parse_query, parse_filter):
        with pytest.raises(IdentifierError, match="value for key 'algo' is not UTF-8 text"):
            parse(spec)
    root = tmp_path / "c"
    source = _write_v(tmp_path / "v.txt")
    assert main(["--root", str(root), "import", str(source), spec, "--create"]) == 1
    assert capsys.readouterr().err.startswith("error: value for key 'algo'")
    assert _stores(root) == []


def test_an_external_command_that_is_not_utf8_is_refused_before_the_import_writes(
    tmp_path, capsys
):
    root = tmp_path / "c"
    source = _write_v(tmp_path / "v.txt")
    assert main(["--root", str(root), "import", str(source), IDENT, "--create",
                 "--external", "ca\udce9"]) == 1
    assert capsys.readouterr().err.startswith("error: external command is not UTF-8 text")
    assert _stores(root) == []
    with Database(root) as db:
        assert db.catalog.list_entries() == []
    script = tmp_path / "tok.py"
    script.write_text("")
    for external in (("ca\udce9", None), ("ca\udce9", script)):
        with pytest.raises(PipelineError, match="external command is not UTF-8 text"):
            build_pipeline(external=external)


def test_an_external_stage_refuses_text_it_cannot_encode_and_answers_on():
    runner = _ExternalProcess("cat")
    try:
        assert runner.process_line("tea") == ["tea"]
        proc = runner.proc
        with pytest.raises(ExternalStageError, match="external stage 'cat'"):
            runner.process_line(f"{BAD} tea")
        assert runner.process_line("hot tea") == ["hot", "tea"]
        assert runner.proc is proc
    finally:
        runner.close()
