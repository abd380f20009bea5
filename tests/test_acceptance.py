"""Acceptance suite: one test per criterion, timed where the criterion is.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The desk-scale fixtures (a million-record store and seven ~150k-vector
collections) are built once per session; expect the module to take around
a minute in total.
"""

import math
import os
import random
import statistics
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from wecdb import (
    Database,
    DuplicateWordError,
    IdentifierError,
    PreprocessCache,
    cosine_distance,
    export_heatmap,
    pairwise_distances,
    parse_identifier,
    parse_query,
    similarity_matrix,
)
from wecdb.analyse import read_heatmap_csv
from wecdb.cli import main
from wecdb.phrases import apply_phrases_vocab, train_phrase_model
from wecdb.retrieve import RetrievalResult, UnitResult

from test_phrases import reference_scan


def _ok(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion} PASS: {detail}")


def fast_wec_file(path, n, dims, seed=0, prefix="w"):
    """Vectorized writer: words ``w0000000..`` with single-digit float cells."""
    ids = np.arange(n)
    digits = np.empty((n, 7), dtype=np.uint8)
    x = ids.copy()
    for k in range(6, -1, -1):
        digits[:, k] = x % 10 + 48
        x //= 10
    word = np.concatenate([np.full((n, 1), ord(prefix), np.uint8), digits], axis=1)
    vals = np.random.default_rng(seed).integers(0, 10, size=(n, dims), dtype=np.uint8)
    cells = np.empty((n, 2 * dims), np.uint8)
    cells[:, 0::2] = 32
    cells[:, 1::2] = vals + 48
    rows = np.concatenate([word, cells, np.full((n, 1), 10, np.uint8)], axis=1)
    path.write_bytes(rows.tobytes())


# ---------------------------------------------------------------------------
# Criterion 1: grammar suite, property checks + fuzz, under 5 seconds
# ---------------------------------------------------------------------------


def test_c01_grammar_suite():
    started = time.perf_counter()
    query = parse_query("algo:glove;dataset:6b;dims:{50,100,200,300};fold:1;unit:token")
    assert [i["dims"] for i in query.expanded] == ["50", "100", "200", "300"]

    rng = random.Random(20260808)
    value_chars = "abcdefghijklmnopqrstuvwxyz0123456789._+-"
    for _ in range(300):
        attrs = {
            "algo": "".join(rng.choices(value_chars, k=rng.randint(1, 6))),
            "dataset": "".join(rng.choices(value_chars, k=rng.randint(1, 6))),
            "dims": str(rng.randint(1, 4096)),
            "fold": rng.choice("01"),
            "unit": rng.choice(["token", "stem"]),
        }
        for _ in range(rng.randint(0, 3)):
            attrs.setdefault(
                "".join(rng.choices("abcdefghij", k=3)),
                "".join(rng.choices(value_chars, k=4)),
            )
        ident = parse_identifier(";".join(f"{k}:{v}" for k, v in attrs.items()))
        norm = ident.normalized()
        # idempotence and permutation invariance
        assert parse_identifier(norm).normalized() == norm
        pairs = [f"{k}:{v}" for k, v in ident.attributes]
        rng.shuffle(pairs)
        assert parse_identifier(";".join(pairs)).normalized() == norm

    alphabet = "a:;&{},1 \t%$\n\\x"
    for _ in range(2000):
        junk = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        for parse in (parse_identifier, parse_query):
            try:
                parse(junk)
            except IdentifierError:
                pass  # structured rejection is the only acceptable failure
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"grammar suite took {elapsed:.2f}s"
    _ok("C1", f"grammar property + fuzz suite in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# Criterion 2: 10k x 50-dim store round trip, bit-exact, under 10 seconds
# ---------------------------------------------------------------------------


def test_c02_store_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    words = [f"word{i:05d}" for i in range(10_000)]
    lines = []
    for word in words:
        fields = " ".join(f"{v:.6f}" for v in rng.uniform(-1, 1, size=50))
        lines.append(f"{word} {fields}")
    path = tmp_path / "c2.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    started = time.perf_counter()
    db = Database(tmp_path / "cat", create_if_missing=True)
    ident = "algo:synth;dataset:c2;dims:50;fold:0;unit:token"
    report = db.import_from_file(path, ident)
    assert report.imported == 10_000

    mismatches = 0
    entry = db.catalog.require(ident)
    store = db.open_store(entry)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            # independent conversion oracle: struct, field by field
            expected = b"".join(struct.pack("<f", float(v)) for v in fields[1:])
            got = store.get(fields[0])
            if got is None or got.tobytes() != expected:
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 10.0, f"round trip took {elapsed:.2f}s"
    _ok("C2", f"10,000 x 50-dim bit-exact round trip, 0 mismatches, {elapsed:.2f}s (< 10s)")


# ---------------------------------------------------------------------------
# Criterion 3: duplicate handling is exact and deterministic
# ---------------------------------------------------------------------------


def test_c03_uniqueness(tmp_path):
    words = [f"tok{i}" for i in range(100)]
    dupes = ["tok3", "tok14", "tok15", "tok92", "tok65", "tok35", "tok89"]
    rng = np.random.default_rng(3)
    lines = [f"{w} " + " ".join(f"{v:.4f}" for v in rng.uniform(-1, 1, 4)) for w in words]
    lines += [f"{w} 1 1 1 1" for w in dupes]
    path = tmp_path / "c3.txt"
    path.write_text("\n".join(lines) + "\n")

    db = Database(tmp_path / "cat", create_if_missing=True)
    strict = "algo:synth;dataset:strict;dims:4;fold:0;unit:token"
    with pytest.raises(DuplicateWordError) as exc:
        db.import_from_file(path, strict)
    assert exc.value.word in dupes
    assert exc.value.line > 100
    assert db.catalog.lookup(strict) is None  # failed import leaves no WEC

    lenient = "algo:synth;dataset:lenient;dims:4;fold:0;unit:token"
    report = db.import_from_file(path, lenient, on_duplicate="keep_first")
    assert report.imported == 100
    assert report.skipped_duplicates == len(dupes)
    assert db.vocab_size(lenient) == 100
    _ok("C3", f"reject names '{exc.value.word}' at line {exc.value.line};"
              f" keep_first counts exactly {len(dupes)} duplicates")


# ---------------------------------------------------------------------------
# Criterion 4: lookup is lazy (scale-insensitive), import is the linear one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaling_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaling")
    db = Database(root / "cat", create_if_missing=True)
    times = {}
    for label, n in (("small", 10_000), ("large", 1_000_000)):
        path = root / f"{label}.txt"
        fast_wec_file(path, n, dims=8, seed=4)
        started = time.perf_counter()
        db.import_from_file(path, f"algo:synth;dataset:{label};dims:8;fold:0;unit:token")
        times[label] = time.perf_counter() - started
    return db, times


def test_c04_laziness_scaling(scaling_stores):
    db, import_times = scaling_stores
    probe = [f"w{i * 100:07d}" for i in range(100)]  # present in both stores

    def trial(ident: str) -> float:
        started = time.perf_counter()
        found, missing = db.get_vectors_batch(ident, probe)
        assert len(found) == 100 and not missing
        return time.perf_counter() - started

    small = "algo:synth;dataset:small;dims:8;fold:0;unit:token"
    large = "algo:synth;dataset:large;dims:8;fold:0;unit:token"
    trial(small), trial(large)  # open handles outside the measurement
    small_times = [trial(small) for _ in range(25)]
    large_times = [trial(large) for _ in range(25)]
    m_small = statistics.median(small_times)
    m_large = statistics.median(large_times)
    ratio = m_large / m_small
    assert ratio < 3.0, f"lookup median ratio {ratio:.2f}x (limit 3x)"

    import_ratio = import_times["large"] / import_times["small"]
    assert import_ratio > 10.0, (
        f"import should scale with store size, got {import_ratio:.1f}x for 100x records"
    )
    _ok("C4", f"100-word batch lookup medians {m_small*1e3:.2f}ms vs {m_large*1e3:.2f}ms"
              f" ({ratio:.2f}x < 3x) across 10^4 vs 10^6 records;"
              f" import {import_ratio:.0f}x (linear)")


# ---------------------------------------------------------------------------
# Criterion 5: fold/unit metadata drive preprocessing, exact matches
# ---------------------------------------------------------------------------


def test_c05_preprocessing_semantics(tmp_path):
    db = Database(tmp_path / "cat", create_if_missing=True)
    cased = tmp_path / "cased.txt"
    cased.write_text("Theory 1 2\ntheory 3 4\nComputation 5 6\n")
    folded = tmp_path / "folded.txt"
    folded.write_text("theory 1 2\ncomputation 5 6\n")
    stemmed = tmp_path / "stemmed.txt"
    stemmed.write_text("theori 1 2\ncomput 3 4\nrun 5 6\neasili 7 8\n")

    db.import_from_file(cased, "algo:s;dataset:pair;dims:2;fold:0;unit:token")
    db.import_from_file(folded, "algo:s;dataset:pair;dims:2;fold:1;unit:token")
    db.import_from_file(stemmed, "algo:s;dataset:stems;dims:2;fold:1;unit:stem")

    res0 = db.get_vectors(
        "algo:s;dataset:pair;dims:2;fold:0;unit:token", None, inputs=["Theory"], raw=True
    )
    assert res0.per_wec[0][1][0].words() == ["Theory"]
    res1 = db.get_vectors(
        "algo:s;dataset:pair;dims:2;fold:1;unit:token", None, inputs=["Theory"], raw=True
    )
    assert res1.per_wec[0][1][0].words() == ["theory"]
    # same raw input resolves to the case-matching stored row of each WEC
    assert res0.per_wec[0][1][0].pairs[0][1].tolist() == [1.0, 2.0]
    assert res1.per_wec[0][1][0].pairs[0][1].tolist() == [1.0, 2.0]

    res_stem = db.get_vectors(
        "algo:s;dataset:stems;dims:2;fold:1;unit:stem", None,
        inputs=["Theories of running computations, easily"], raw=True,
    )
    unit = res_stem.per_wec[0][1][0]
    assert unit.tokens == ["theori", "of", "run", "comput", ",", "easili"]
    assert unit.words() == ["theori", "run", "comput", "easili"]
    _ok("C5", "fold:0 keeps 'Theory', fold:1 resolves 'theory',"
              " unit:stem resolves inflections to Porter stems")


# ---------------------------------------------------------------------------
# Criteria 6, 7, 10: desk-scale end-to-end fixtures (seven WECs, >= 1M vectors)
# ---------------------------------------------------------------------------

SEVEN_QUERY = (
    "algo:glove;dataset:6b;dims:{50,100,200,300};fold:1;unit:token"
    "&algo:glove;dataset:42b;dims:300;fold:1;unit:token"
    "&algo:glove;dataset:840b;dims:300;fold:0;unit:token"
    "&algo:w2v;dataset:googlenews;dims:300;fold:0;unit:token"
)
_VECTORS_PER_WEC = 150_000  # 7 x 150k >= 1M vectors in total


@pytest.fixture(scope="module")
def desk_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    db = Database(root / "cat", create_if_missing=True)
    for seed, ident in enumerate(parse_query(SEVEN_QUERY).expanded):
        path = root / f"wec{seed}.txt"
        fast_wec_file(path, _VECTORS_PER_WEC, dims=ident.dims, seed=seed)
        report = db.import_from_file(path, ident)
        assert report.imported == _VECTORS_PER_WEC
        path.unlink()
    return root / "cat", db


def _synthetic_pairs(path, n_pairs=250, vocab_limit=10_000, seed=99):
    rng = random.Random(seed)
    lines = []
    for _ in range(n_pairs):
        cells = []
        for _ in range(2):
            words = [f"w{rng.randrange(vocab_limit):07d}" for _ in range(rng.randint(5, 12))]
            cells.append(" ".join(words))
        lines.append("\t".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_c06_sts_end_to_end_under_ten_seconds(desk_db, tmp_path, capsys):
    catalog_root, _ = desk_db
    pairs = tmp_path / "pairs.tsv"
    _synthetic_pairs(pairs)
    outdir = tmp_path / "sts-out"

    started = time.perf_counter()
    code = main(
        ["--root", str(catalog_root), "sts", SEVEN_QUERY, str(pairs),
         "--outdir", str(outdir), "--stopwords", "none"]
    )
    elapsed = time.perf_counter() - started
    assert code == 0, capsys.readouterr().err
    ranking_files = sorted(outdir.glob("*.ranking.tsv"))
    assert len(ranking_files) == 7
    for f in ranking_files:
        lines = f.read_text().splitlines()
        assert len(lines) <= 250
        assert len(lines) == 250  # all pairs resolve on synthetic vocab
        distances = [float(line.split("\t")[0]) for line in lines]
        assert distances == sorted(distances)
    assert elapsed < 10.0, f"cmd_sts took {elapsed:.2f}s"
    _ok("C6", f"250 pairs x 7 WECs ({7 * _VECTORS_PER_WEC:,} vectors) end-to-end"
              f" in {elapsed:.2f}s (< 10s)")


def test_c07_two_word_retrieval_under_two_seconds(desk_db):
    catalog_root, _ = desk_db
    fresh = Database(catalog_root)  # cold handles, like a new process
    started = time.perf_counter()
    res = fresh.get_vectors(
        SEVEN_QUERY, None, inputs=[["w0000123", "w0004242"]], raw=False
    )
    elapsed = time.perf_counter() - started
    assert len(res) == 7
    for _, units in res:
        assert len(units) == 1
        assert units[0].words() == ["w0000123", "w0004242"]
    assert elapsed < 2.0, f"retrieval took {elapsed:.3f}s"
    assert elapsed < 0.2, f"desk scale needs 10x margin, took {elapsed:.3f}s"
    _ok("C7", f"2 words from 7 catalogued WECs in {elapsed*1e3:.0f}ms"
              f" (< 2s with 10x margin)")


def test_c10_cache_correctness(desk_db):
    _, db = desk_db
    sentences = ["w0000001 w0000002 w0000003", "w0000004 w0000005"]
    cache = PreprocessCache()
    warm1 = db.get_vectors(SEVEN_QUERY, cache, inputs=sentences, raw=True)
    hits_after_first = cache.hits
    warm2 = db.get_vectors(SEVEN_QUERY, cache, inputs=sentences, raw=True)
    assert cache.hits > hits_after_first > 0  # WECs share pipelines within one call too
    cold = db.get_vectors(SEVEN_QUERY, None, inputs=sentences, raw=True)
    for (n1, u1), (n2, u2), (n3, u3) in zip(warm1, warm2, cold):
        assert n1 == n2 == n3
        for a, b, c in zip(u1, u2, u3):
            assert a.tokens == b.tokens == c.tokens
            assert a.missing == b.missing == c.missing
            assert [w for w, _ in a.pairs] == [w for w, _ in b.pairs] == [w for w, _ in c.pairs]
            for (_, va), (_, vb), (_, vc) in zip(a.pairs, b.pairs, c.pairs):
                assert va.tobytes() == vb.tobytes() == vc.tobytes()
    _ok("C10", f"shared cache reproduces cold results exactly"
               f" ({cache.hits} hits after second call)")


REAL_WEC_DIR = os.environ.get("WECDB_REAL_WEC_DIR")


@pytest.mark.skipif(
    not REAL_WEC_DIR,
    reason="optional full-scale check: set WECDB_REAL_WEC_DIR to a directory"
    " with glove.6B.{50,100,200,300}d.txt, glove.42B.300d.txt,"
    " glove.840B.300d.txt, GoogleNews-vectors-negative300.txt",
)
def test_c06_full_scale_optional(tmp_path_factory, tmp_path):
    """Same pipeline and 10s budget against the real multi-GB collections."""
    sources = {
        "algo:glove;dataset:6b;dims:50;fold:1;unit:token": "glove.6B.50d.txt",
        "algo:glove;dataset:6b;dims:100;fold:1;unit:token": "glove.6B.100d.txt",
        "algo:glove;dataset:6b;dims:200;fold:1;unit:token": "glove.6B.200d.txt",
        "algo:glove;dataset:6b;dims:300;fold:1;unit:token": "glove.6B.300d.txt",
        "algo:glove;dataset:42b;dims:300;fold:1;unit:token": "glove.42B.300d.txt",
        "algo:glove;dataset:840b;dims:300;fold:0;unit:token": "glove.840B.300d.txt",
        "algo:w2v;dataset:googlenews;dims:300;fold:0;unit:token":
            "GoogleNews-vectors-negative300.txt",
    }
    base = Path(REAL_WEC_DIR)
    missing = [name for name in sources.values() if not (base / name).exists()]
    if missing:
        pytest.skip(f"missing source files under {base}: {missing}")
    root = tmp_path_factory.mktemp("fullscale") / "cat"
    db = Database(root, create_if_missing=True)
    for ident, name in sources.items():
        db.import_from_file(base / name, ident)
    db.close()
    pairs = tmp_path / "pairs.tsv"
    rng = random.Random(6)
    english = ("the cat sat on the mat", "a dog chased the ball", "markets fell sharply",
               "the theory of computation", "petri nets model concurrency",
               "rain is expected tomorrow", "she plays the violin", "stocks rallied today")
    rows = [f"{rng.choice(english)}\t{rng.choice(english)}" for _ in range(250)]
    pairs.write_text("\n".join(rows) + "\n", encoding="utf-8")
    started = time.perf_counter()
    code = main(["--root", str(root), "sts", SEVEN_QUERY, str(pairs),
                 "--outdir", str(tmp_path / "out")])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 10.0, f"full-scale cmd_sts took {elapsed:.2f}s"
    _ok("C6-full", f"real 7-WEC run in {elapsed:.2f}s (< 10s)")


# ---------------------------------------------------------------------------
# Criterion 8: distance oracle
# ---------------------------------------------------------------------------


def test_c08_distance_oracle():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        dims = int(rng.integers(2, 64))
        a = rng.normal(size=dims).astype(np.float32)
        b = rng.normal(size=dims).astype(np.float32)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        reference = 1.0 - float(a64 @ b64) / (
            math.sqrt(float(a64 @ a64)) * math.sqrt(float(b64 @ b64))
        )
        worst = max(worst, abs(cosine_distance(a, b) - reference))
    assert worst < 1e-6

    def unit(tag, vec):
        return UnitResult(raw=tag, tokens=[tag], pairs=[(tag, vec)], missing=[])

    lefts, rights, expected = [], [], []
    for index in range(50):
        a = rng.normal(size=6).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        lefts.append(unit(f"L{index:02d}", a))
        rights.append(unit(f"R{index:02d}", b))
        expected.append((cosine_distance(a, b), f"L{index:02d}", f"R{index:02d}"))
    ranking = pairwise_distances(
        RetrievalResult(per_wec=[("x", lefts)]), RetrievalResult(per_wec=[("x", rights)])
    )
    assert ranking.per_wec[0][1] == sorted(expected)
    _ok("C8", f"cosine within {worst:.1e} of float64 oracle on 1,000 pairs;"
              " 50-pair ranking equals exhaustive sort")


# ---------------------------------------------------------------------------
# Criterion 9: phrase joining equals the brute-force rule
# ---------------------------------------------------------------------------


def test_c09_phrase_equivalence():
    rng = random.Random(909)
    alphabet = ["petri", "net", "deep", "learning", "graph", "theory", "x"]
    for trial in range(100):
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 7))]
            for _ in range(rng.randint(1, 10))
        ]
        model = train_phrase_model(
            corpus,
            discount=rng.choice([0.0, 0.5, 1.0]),
            threshold=rng.choice([0.0, 0.5, 1.5, 5.0]),
            passes=rng.choice([1, 2, 3]),
        )
        probe = [rng.choice(alphabet) for _ in range(rng.randint(0, 9))]
        assert model.apply(probe) == reference_scan(model, probe), trial

    vocab = {"petri_net", "petri", "net", "analysis"}
    assert apply_phrases_vocab(vocab.__contains__, ["petri", "net"]) == ["petri_net"]
    without = {"petri", "net", "analysis"}
    assert apply_phrases_vocab(without.__contains__, ["petri", "net"]) == ["petri", "net"]
    _ok("C9", "100 random corpora match the brute-force scoring+scan oracle;"
              " vocabulary join handles the petri-net example")


# ---------------------------------------------------------------------------
# Criterion 11: heatmap export
# ---------------------------------------------------------------------------


def test_c11_heatmap_export(tmp_path):
    rng = np.random.default_rng(11)
    vectors = [(f"t{i}", rng.normal(size=5).astype(np.float32)) for i in range(4)]
    unit = UnitResult(
        raw="", tokens=[w for w, _ in vectors], pairs=vectors, missing=[]
    )
    matrix = similarity_matrix(unit, unit)
    assert np.allclose(np.diag(matrix), 1.0, atol=1e-7)

    csv_path = tmp_path / "m.csv"
    export_heatmap(matrix, unit.words(), unit.words(), csv_path, format="csv")
    back, rows, cols = read_heatmap_csv(csv_path)
    assert rows == unit.words() and cols == unit.words()
    assert np.abs(back - matrix).max() < 1e-6

    svg_path = tmp_path / "m.svg"
    export_heatmap(matrix, unit.words(), unit.words(), svg_path, format="svg")
    svg = svg_path.read_text()
    assert svg.count("<rect ") == matrix.size
    _ok("C11", f"CSV round-trips within 1e-6; unit diagonal; SVG has"
               f" {matrix.size} rects = cells")
