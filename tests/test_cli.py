import gc
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from wecdb import PhraseModel
from wecdb.cli import main

from conftest import open_files_under, write_wec_text

TOY = "algo:glove;dataset:toy;dims:3;fold:1;unit:token"


def _write_toy(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(
        "theory 0.1 0.2 0.3\n"
        "computation 0.4 0.5 0.6\n"
        "petri 0.9 0.1 0.0\n"
        "net 0.0 0.8 0.1\n"
        "petri_net 0.5 0.5 0.5\n"
    )
    return path


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "catalog")


def _import_toy(root, tmp_path, *extra):
    path = _write_toy(tmp_path)
    code = main(["--root", root, "import", str(path), TOY, "--create", *extra])
    assert code == 0
    return path


def test_import_reports_counts(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    out = capsys.readouterr().out
    assert "imported: 5" in out
    assert "bytes store" in out
    assert re.search(r"^layers: parse \d+\.\d\ds, insert \d+\.\d\ds, sync \d+\.\d\ds$", out, re.M)


def test_import_rejects_bad_identifier(root, tmp_path, capsys):
    path = _write_toy(tmp_path)
    code = main(["--root", root, "import", str(path),
                 "algo:x;dataset:d;dims:3;fold:1", "--create"])
    assert code != 0
    assert "unit" in capsys.readouterr().err


def test_reimport_same_identifier_fails(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    path = tmp_path / "toy.txt"
    code = main(["--root", root, "import", str(path), TOY])
    assert code != 0
    assert "already registered" in capsys.readouterr().err


def test_list_text_and_json(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    assert main(["--root", root, "list"]) == 0
    text = capsys.readouterr().out
    assert TOY in text and "vocab=5" in text
    assert main(["--root", root, "list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["identifier"] == TOY
    assert doc[0]["vocab_size"] == 5


@pytest.mark.parametrize(
    "extra, pipeline_hash",
    [
        ((), "d36e0894436c73ec391d35bef022213b444fd56e8bfb7667305c2c84a4392dad"),
        (
            ("--stopword-list", "en", "--strip-special"),
            "368efc6c578f08b93ea8dbdda2e711ee5e90a9d335d88e8c4553f2ace9acd712",
        ),
    ],
)
def test_import_pipeline_hash_is_stable(root, tmp_path, capsys, extra, pipeline_hash):
    # the hash cites the preprocessing a WEC was imported with; it must not drift
    _import_toy(root, tmp_path, *extra)
    capsys.readouterr()
    assert main(["--root", root, "list", "--json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    assert doc["pipeline_hash"] == pipeline_hash


def test_list_filter(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    assert main(["--root", root, "list", "--filter", "algo:nope"]) == 0
    assert TOY not in capsys.readouterr().out
    assert main(["--root", root, "list", "--filter", " dims:3 ; algo:glove "]) == 0
    assert TOY in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, message",
    [
        ("Dims:3", "invalid key 'Dims'"),
        ("dims:{3,50}", "brace set not allowed in a filter (key 'dims')"),
        ("dims:3;dims:3", "duplicate key 'dims'"),
        ("algo", "malformed pair 'algo'"),
        ("algo:a b", "whitespace in value for key 'algo'"),
    ],
)
def test_list_filter_is_checked_as_an_identifier_is(root, tmp_path, capsys, spec, message):
    _import_toy(root, tmp_path)
    capsys.readouterr()
    assert main(["--root", root, "list", "--filter", spec]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert TOY not in captured.out


def test_vectors_json_output(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    capsys.readouterr()
    code = main(["--root", root, "vectors", TOY, "--text", "Theory of computation!"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    unit = doc["results"][0]["units"][0]
    assert unit["raw"] == "Theory of computation!"
    assert "theory" in unit["tokens"]
    assert ["of", "!"] == unit["missing"]
    words = [w for w, _ in unit["pairs"]]
    assert words == ["theory", "computation"]
    # document round-trips through json
    assert json.loads(json.dumps(doc)) == doc
    # --input FILE reads one raw unit per line
    (tmp_path / "units.txt").write_text("Theory of computation!\n", encoding="utf-8")
    assert main(["--root", root, "vectors", TOY, "--input", str(tmp_path / "units.txt")]) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_vectors_pretokenized_words(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    capsys.readouterr()
    code = main(["--root", root, "vectors", TOY, "--words", "theory", "zzz"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    unit = doc["results"][0]["units"][0]
    assert unit["raw"] == ""
    assert unit["missing"] == ["zzz"]


def test_vectors_only_omits_words(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    capsys.readouterr()
    code = main(["--root", root, "vectors", TOY, "--words", "theory", "net",
                 "--vectors-only"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    pairs = doc["results"][0]["units"][0]["pairs"]
    assert len(pairs) == 2
    assert all(isinstance(v, list) and isinstance(v[0], float) for v in pairs)


def test_vectors_requires_input(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    assert main(["--root", root, "vectors", TOY]) == 1
    assert "no input" in capsys.readouterr().err


def test_train_phrases_attaches_model(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("petri net\n" * 30 + "net\n" * 5)
    code = main(["--root", root, "train-phrases", str(corpus), TOY, "--threshold", "1"])
    assert code == 0
    assert "attached" in capsys.readouterr().out
    code = main(["--root", root, "vectors", TOY, "--text", "petri net theory"])
    doc = json.loads(capsys.readouterr().out)
    assert "petri_net" in doc["results"][0]["units"][0]["tokens"]



@pytest.mark.parametrize("record", ["u a", "u a many", "b a b", "tokens"])
def test_malformed_phrase_model_is_an_error_not_a_crash(root, tmp_path, capsys, record):
    _import_toy(root, tmp_path)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("petri net\n" * 30 + "net\n" * 5)
    assert main(["--root", root, "train-phrases", str(corpus), TOY, "--threshold", "1"]) == 0
    (model,) = (tmp_path / "catalog" / "phrases").glob("*.phr")
    lines = model.read_text("utf-8").splitlines()
    model.write_text("\n".join(lines + [record]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--root", root, "vectors", TOY, "--text", "petri net theory"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{model.name}:{len(lines) + 1}:" in err


def _trained_toy_model(root, tmp_path):
    _import_toy(root, tmp_path)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("petri net\n" * 30 + "net\n" * 5)
    assert main(["--root", root, "train-phrases", str(corpus), TOY, "--threshold", "1"]) == 0
    (model,) = (tmp_path / "catalog" / "phrases").glob("*.phr")
    return model


def test_phrase_model_that_is_not_utf8_is_an_error_not_a_crash(root, tmp_path, capsys):
    model = _trained_toy_model(root, tmp_path)
    model.write_bytes(model.read_bytes() + b"u caf\xe9 3\n")
    capsys.readouterr()
    assert main(["--root", root, "vectors", TOY, "--text", "petri net theory"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{model} is not UTF-8 text" in err


def test_missing_phrase_model_is_an_error_naming_the_wec(root, tmp_path, capsys):
    model = _trained_toy_model(root, tmp_path)
    model.unlink()
    capsys.readouterr()
    assert main(["--root", root, "vectors", TOY, "--text", "petri net theory"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: phrase model file {model} of {TOY} is missing\n"


def test_corrupt_manifest_number_is_an_error_not_a_crash(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    manifest = tmp_path / "catalog" / "catalog.manifest"
    lines = manifest.read_text("utf-8").splitlines()
    cols = lines[2].split("\t")
    lines[2] = "\t".join(cols[:2] + ["five"] + cols[3:])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--root", root, "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "catalog.manifest:3: vocab_size 'five'" in err

@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda line: line.replace("glove", "gl\udcffve", 1), "catalog.manifest is not UTF-8"),
        (lambda line: line.replace(".wec", "\0.wec", 1), "catalog.manifest:3: store"),
        (lambda line: line.replace("\talgo=", "\t../algo=", 1), "catalog.manifest:3: store"),
        (lambda line: _column(line, 0, "algo:a b"), "catalog.manifest:3: whitespace in value"),
        (lambda line: _column(line, 4, "tokenize(default"), "catalog.manifest:3: malformed stage"),
        (lambda line: _column(line, 4, "tokenize(nope)"), "catalog.manifest:3: unknown tokenize"),
        (lambda line: _column(line, 3, "0" * 16), "catalog.manifest:3: pipeline hash mismatch"),
        (lambda line: _column(line, 5, "vocab:0"), f"catalog.manifest:3: {TOY}: vocab_join_max"),
        (lambda line: _column(line, 5, "vocab:1"), f"catalog.manifest:3: {TOY}: vocab_join_max"),
    ],
)
def test_corrupt_manifest_file_is_an_error_not_a_crash(root, tmp_path, capsys, edit, message):
    _import_toy(root, tmp_path)
    manifest = tmp_path / "catalog" / "catalog.manifest"
    lines = manifest.read_text("utf-8").splitlines()
    lines[2] = edit(lines[2])
    manifest.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert main(["--root", root, "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _column(line, index, value):
    cols = line.split("\t")
    return "\t".join(cols[:index] + [value] + cols[index + 1 :])


def test_manifest_whose_stopword_list_is_missing_is_an_error(root, tmp_path, capsys):
    stops = tmp_path / "stops.txt"
    stops.write_text("alpha\nbeta\n", encoding="utf-8")
    _import_toy(root, tmp_path, "--stopword-list", str(stops))
    (copy,) = (tmp_path / "catalog" / "lists").glob("*.txt")
    copy.unlink()
    capsys.readouterr()
    assert main(["--root", root, "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "catalog.manifest:3: stopword list 'list:" in err


def test_stopword_list_copy_that_is_not_utf8_is_an_error(root, tmp_path, capsys):
    stops = tmp_path / "stops.txt"
    stops.write_text("alpha\nbeta\n", encoding="utf-8")
    _import_toy(root, tmp_path, "--stopword-list", str(stops))
    (copy,) = (tmp_path / "catalog" / "lists").glob("*.txt")
    copy.write_bytes(b"alpha\nb\xffta\n")
    for command in (["list"], ["vectors", TOY, "--words", "theory"]):
        capsys.readouterr()
        assert main(["--root", root, *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"catalog.manifest:3: {copy} is not UTF-8" in err


def test_import_of_text_that_is_not_utf8_is_an_error_naming_the_line(root, tmp_path, capsys):
    # the bad byte lies well past the first block a text file decodes at once
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"".join(b"w%d 0.1 0.2 0.3\n" % i for i in range(2000)) + b"caf\xe9 1 2 3\n")
    assert main(["--root", root, "import", str(path), TOY, "--create"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path}: line 2001 is not UTF-8 text (byte 0xe9)" in err
    assert os.listdir(os.path.join(root, "stores")) == []
    assert main(["--root", root, "list", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


@pytest.mark.parametrize("line", [b"caf\xe9 1 2 3\n", b"cafe 1 2\xe9 3\n"])
def test_lenient_import_skips_a_line_that_is_not_utf8(root, tmp_path, capsys, line):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"tea 0.1 0.2 0.3\n" + line)
    assert main(["--root", root, "import", str(path), TOY, "--create", "--lenient"]) == 0
    out = capsys.readouterr().out
    assert "imported: 1\n" in out and "malformed lines: 1\n" in out


@pytest.mark.parametrize("read", ["vectors --input", "sts pairs", "sts --stopwords",
                                  "train-phrases corpus", "import --stopword-list"])
def test_input_file_that_is_not_utf8_is_an_error_naming_it(root, tmp_path, capsys, read):
    toy = _import_toy(root, tmp_path)
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"petri net\tcaf\xe9\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("petri net\ttheory\n")
    out = str(tmp_path / "out")
    argv = {
        "vectors --input": ["vectors", TOY, "--input", str(bad)],
        "sts pairs": ["sts", TOY, str(bad), "--outdir", out],
        "sts --stopwords": ["sts", TOY, str(pairs), "--outdir", out, "--stopwords", str(bad)],
        "train-phrases corpus": ["train-phrases", str(bad), TOY],
        "import --stopword-list": ["import", str(toy), TOY.replace("toy", "toy2"),
                                   "--stopword-list", str(bad)],
    }[read]
    capsys.readouterr()
    assert main(["--root", root, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad} is not UTF-8 text" in err


def test_sts_pairs_file_with_a_byte_order_mark(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes("\ufefftheory\ttheory\n".encode("utf-8"))
    outdir = tmp_path / "out"
    assert main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(outdir)]) == 0
    (ranking,) = outdir.glob("*.ranking.tsv")
    assert ranking.read_text("utf-8") == "0.000000\ttheory\ttheory\n"


def test_input_files_with_a_byte_order_mark(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    text = tmp_path / "input.txt"
    text.write_bytes("\ufefftheory net\n".encode("utf-8"))
    capsys.readouterr()
    assert main(["--root", root, "vectors", TOY, "--input", str(text)]) == 0
    (unit,) = json.loads(capsys.readouterr().out)["results"][0]["units"]
    assert unit["raw"] == "theory net" and unit["missing"] == []
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("theory\tnet\n", encoding="utf-8")
    stops = tmp_path / "stops.txt"
    stops.write_bytes("\ufefftheory\nnet\n".encode("utf-8"))
    outdir = tmp_path / "out"
    assert main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(outdir),
                 "--stopwords", str(stops)]) == 0
    digest = hashlib.sha256(b"net\ntheory").hexdigest()
    assert f"stopwords: {stops} sha256={digest}" in (outdir / "run.info").read_text("utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes("\ufeffpetri net\npetri net\n".encode("utf-8"))
    assert main(["--root", root, "train-phrases", str(corpus), TOY]) == 0
    (model,) = (tmp_path / "catalog" / "phrases").glob("*.phr")
    assert PhraseModel.load(model).unigram_counts == {"petri": 2, "net": 2}


def test_missing_input_file_is_an_error_not_a_crash(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    missing = tmp_path / "absent.tsv"
    capsys.readouterr()
    assert main(["--root", root, "sts", TOY, str(missing), "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file" in err and str(missing) in err


def test_sts_writes_ranking_per_wec(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "The theory of computation\tA computation theory\n"
        "Petri net theory\tnet computation\n"
    )
    outdir = tmp_path / "sts-out"
    code = main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(outdir)])
    assert code == 0
    files = sorted(outdir.glob("*.ranking.tsv"))
    assert len(files) == 1
    lines = files[0].read_text().splitlines()
    assert len(lines) == 2
    first = lines[0].split("\t")
    assert float(first[0]) == pytest.approx(0.0)
    assert (outdir / "run.info").exists()
    # --stopwords FILE: run.info records the sorted set of its words by sha256
    stops = tmp_path / "stops.txt"
    stops.write_text("theory\nof\nthe\n", encoding="utf-8")
    code = main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(outdir),
                 "--stopwords", str(stops)])
    assert code == 0
    digest = hashlib.sha256(b"of\nthe\ntheory").hexdigest()
    info = (outdir / "run.info").read_text("utf-8").splitlines()
    assert f"stopwords: {stops} sha256={digest}" in info


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files via /proc")
def test_sts_closes_its_store_files(root, tmp_path, capsys):
    # A sqlite3 connection refers back to itself through its statement
    # cache, so a handle the command dropped would stay open until the
    # cyclic garbage collector ran; with it off, only closing frees it.
    _import_toy(root, tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("Petri net theory\tnet computation\n")
    argv = ["--root", root, "sts", TOY, str(pairs), "--outdir", str(tmp_path / "out")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert main(argv) == 0
            assert open_files_under(os.path.join(root, "stores")) == []
    finally:
        gc.enable()


def test_sts_rejects_malformed_tsv(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("only one column\n")
    code = main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(tmp_path / "o")])
    assert code == 1
    assert ":1:" in capsys.readouterr().err


def test_sts_rejects_empty_file(root, tmp_path, capsys):
    _import_toy(root, tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("")
    code = main(["--root", root, "sts", TOY, str(pairs), "--outdir", str(tmp_path / "o")])
    assert code == 1
    assert "empty" in capsys.readouterr().err


def test_heatmap_phrases_toggle(root, tmp_path, capsys):
    _import_toy(root, tmp_path, "--phrase-vocab", "4")
    with_dir = tmp_path / "with"
    without_dir = tmp_path / "without"
    assert main(["--root", root, "heatmap", TOY,
                 "Petri net theory", "net computation", "--outdir", str(with_dir)]) == 0
    assert main(["--root", root, "heatmap", TOY,
                 "Petri net theory", "net computation", "--outdir", str(without_dir),
                 "--no-phrases"]) == 0
    with_csv = next(with_dir.glob("*.csv")).read_text()
    without_csv = next(without_dir.glob("*.csv")).read_text()
    assert "petri_net" in with_csv
    assert "petri_net" not in without_csv


def test_heatmap_svg_format(root, tmp_path):
    _import_toy(root, tmp_path)
    outdir = tmp_path / "hm"
    assert main(["--root", root, "heatmap", TOY, "theory computation",
                 "net theory", "--outdir", str(outdir), "--format", "svg"]) == 0
    svg = next(outdir.glob("*.svg")).read_text()
    assert svg.count("<rect ") == 4


def test_heatmap_svg_with_an_infinite_cell(root, tmp_path):
    ident = "algo:a;dataset:d;dims:2;fold:0;unit:token"
    (tmp_path / "w.txt").write_text("theory 0.1 0.2\nnet 0.3 0.4\nbig 1e39 1\n")  # 1e39 is inf
    assert main(["--root", root, "import", str(tmp_path / "w.txt"), ident, "--create"]) == 0
    outdir = tmp_path / "hm"
    assert main(["--root", root, "heatmap", ident, "theory big", "net", "--outdir", str(outdir),
                 "--format", "svg", "--metric", "euclidean"]) == 0
    svg = next(outdir.glob("*.svg")).read_text()
    assert re.findall(r'fill="(rgb\([^)]*\))"><title>([^<]*)</title>', svg) == [
        ("rgb(0,0,0)", "0.282843"), ("rgb(255,0,0)", "inf")]


def test_heatmap_reads_the_manifest_once(root, tmp_path, monkeypatch):
    from wecdb.catalog import Catalog

    for dims in (2, 3, 4):
        write_wec_text(tmp_path / f"w{dims}.txt", ["theory", "net"], dims=dims)
        assert main(["--root", root, "import", str(tmp_path / f"w{dims}.txt"),
                     f"algo:a;dataset:d;dims:{dims};fold:0;unit:token", "--create"]) == 0
    loads = []
    real_load = Catalog._load
    monkeypatch.setattr(Catalog, "_load", lambda self: loads.append(1) or real_load(self))
    outdir = tmp_path / "hm"
    assert main(["--root", root, "heatmap", "algo:a;dataset:d;dims:{2,3,4};fold:0;unit:token",
                 "theory net", "net", "--outdir", str(outdir)]) == 0
    assert len(list(outdir.glob("*.csv"))) == 3
    assert len(loads) == 1


def test_heatmap_no_phrases_skips_a_trained_model_and_leaves_the_catalog(root, tmp_path):
    _import_toy(root, tmp_path)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("petri net\n" * 30 + "net\n" * 5)
    assert main(["--root", root, "train-phrases", str(corpus), TOY, "--threshold", "1"]) == 0
    manifest = tmp_path / "catalog" / "catalog.manifest"
    before = manifest.read_bytes()
    argv = ["--root", root, "heatmap", TOY, "Petri net theory", "net computation"]
    for outdir, flags, joined in (("off", ["--no-phrases"], False), ("on", [], True)):
        assert main(argv + ["--outdir", str(tmp_path / outdir)] + flags) == 0
        csv = next((tmp_path / outdir).glob("*.csv")).read_text()
        assert ("petri_net" in csv) is joined
        assert manifest.read_bytes() == before


def test_sts_reads_the_manifest_once(root, tmp_path, monkeypatch):
    from wecdb.catalog import Catalog

    for dims in (2, 3, 4):
        write_wec_text(tmp_path / f"w{dims}.txt", ["theory", "net"], dims=dims)
        assert main(["--root", root, "import", str(tmp_path / f"w{dims}.txt"),
                     f"algo:a;dataset:d;dims:{dims};fold:0;unit:token", "--create"]) == 0
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("theory net\tnet\nnet\ttheory\n")
    loads = []
    real_load = Catalog._load
    monkeypatch.setattr(Catalog, "_load", lambda self: loads.append(1) or real_load(self))
    outdir = tmp_path / "sts"
    assert main(["--root", root, "sts", "algo:a;dataset:d;dims:{2,3,4};fold:0;unit:token",
                 str(pairs), "--outdir", str(outdir)]) == 0
    assert len(list(outdir.glob("*.ranking.tsv"))) == 3
    assert len(loads) == 1


def test_heatmap_pipeline_error_names_the_wec(root, tmp_path, capsys):
    from wecdb import Database
    from wecdb.identifier import parse_identifier
    from wecdb.pipeline import pipeline_for_identifier

    ident_text = "algo:x;dataset:broken;dims:2;fold:0;unit:token"
    ident = parse_identifier(ident_text)
    failing = pipeline_for_identifier(
        ident, external=(f'{sys.executable} -c "import sys; sys.exit(1)"', None)
    )
    write_wec_text(tmp_path / "b.txt", ["a"], dims=2)
    with Database(root, create_if_missing=True) as db:
        db.register(ident, failing)
        db.import_into(tmp_path / "b.txt", ident_text)
    code = main(["--root", root, "heatmap", ident_text, "a b", "a",
                 "--outdir", str(tmp_path / "hm")])
    assert code == 1
    assert "dataset:broken" in capsys.readouterr().err


def test_missing_root_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("WECDB_ROOT", raising=False)
    assert main(["list"]) == 1
    assert "no catalog root" in capsys.readouterr().err


def test_root_env_fallback(root, tmp_path, capsys, monkeypatch):
    _import_toy(root, tmp_path)
    monkeypatch.setenv("WECDB_ROOT", root)
    assert main(["list"]) == 0
    assert TOY in capsys.readouterr().out


def test_console_entry_point_subprocess(root, tmp_path):
    path = _write_toy(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "wecdb.cli", "--root", root, "import", str(path), TOY,
         "--create"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "imported: 5" in proc.stdout
