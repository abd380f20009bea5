import gc
import json
import os
import subprocess
import sys

import pytest

from wecdb.cli import main

from conftest import write_wec_text

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


def _open_files_under(directory):
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
            assert _open_files_under(os.path.join(root, "stores")) == []
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
