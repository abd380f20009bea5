"""Lines end at ``\\n`` (and ``\\r\\n`` or ``\\r``, read as ``\\n``) only.

The manifest and the CLI's input files are read with universal newlines and
split at ``\\n`` alone; the other characters :meth:`str.splitlines` ends a
line at stay inside their line.
"""

import json

import pytest

from wecdb import CatalogError, Database
from wecdb.cli import main

IDENT = "algo:test;dataset:d;dims:2;fold:0;unit:token"
TOY = "algo:glove;dataset:toy;dims:3;fold:1;unit:token"
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
def test_source_path_holding_a_splitlines_break_reads_back(tmp_path, char):
    path = tmp_path / f"vec{char}s.txt"
    path.write_text("a 1 2\n", encoding="utf-8")
    with Database(tmp_path / "cat", create_if_missing=True) as db:
        db.import_from_file(path, IDENT)
    with Database(tmp_path / "cat") as db:
        assert db.get_vector(IDENT, "a").tolist() == [1, 2]
        assert [e.source_file for e in db.catalog.list_entries()] == [str(path)]


def test_source_path_holding_a_carriage_return_is_refused(tmp_path):
    path = tmp_path / "vec\rs.txt"
    path.write_text("a 1 2\n", encoding="utf-8")
    with Database(tmp_path / "cat", create_if_missing=True) as db:
        with pytest.raises(CatalogError, match="source path may not contain"):
            db.import_from_file(path, IDENT)
        assert db.catalog.list_entries() == []
        assert list((tmp_path / "cat" / "stores").iterdir()) == []


@pytest.fixture
def root(tmp_path):
    text = "theory 0.1 0.2 0.3\npetri 0.9 0.1 0.0\nnet 0.0 0.8 0.1\n"
    (tmp_path / "toy.txt").write_text(text, encoding="utf-8")
    root = str(tmp_path / "catalog")
    assert main(["--root", root, "import", str(tmp_path / "toy.txt"), TOY, "--create"]) == 0
    return root


def test_vectors_input_line_holding_a_form_feed_is_one_unit(root, tmp_path, capsys):
    units = tmp_path / "units.txt"
    units.write_text("petri\x0cnet\r\ntheory\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--root", root, "vectors", TOY, "--input", str(units)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [unit["raw"] for unit in doc["results"][0]["units"]] == ["petri\x0cnet", "theory"]


def test_sts_sentence_holding_a_line_separator_is_one_pair(root, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("petri\u2028net\ttheory\n", encoding="utf-8")
    outdir = tmp_path / "out"
    assert main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(outdir)]) == 0
    assert "pairs: 1" in (outdir / "run.info").read_text("utf-8").splitlines()


def test_train_phrases_corpus_line_holding_a_vertical_tab_is_one_line(root, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("petri\x0bnet\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--root", root, "train-phrases", str(corpus), TOY, "--threshold", "1"]) == 0
    assert "2 unigrams, 1 bigrams, 2 tokens" in capsys.readouterr().out
