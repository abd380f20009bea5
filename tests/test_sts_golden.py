"""Oracle for ``wecdb sts``: rankings and run.info must not change by a byte.

The fixture in ``tests/data/sts_golden`` holds three small collections
(case-folded, case-sensitive, and one with vocabulary joining up to three
tokens) and ten sentence pairs covering repeated words, stopwords,
out-of-vocabulary tokens, punctuation, a tie, and pairs whose sentence
vector is undefined. The expected files were written by the per-unit
retrieval path that preceded batched retrieval; any change to
preprocessing, joining, lookup, averaging, metrics or ranking output
shows here as a byte difference.
"""

from pathlib import Path

import pytest

from wecdb.cli import main

DATA = Path(__file__).parent / "data" / "sts_golden"
QUERY = (
    "algo:gold;dataset:d;dims:4;fold:{0,1};unit:token"
    "&algo:gold;dataset:j;dims:4;fold:1;unit:token"
)
IMPORTS = [
    ("fold0.txt", "algo:gold;dataset:d;dims:4;fold:0;unit:token", []),
    ("fold1.txt", "algo:gold;dataset:d;dims:4;fold:1;unit:token", []),
    ("join.txt", "algo:gold;dataset:j;dims:4;fold:1;unit:token", ["--phrase-vocab", "3"]),
]


def run_sts(root: Path, outdir: Path, metric: str) -> None:
    for filename, ident, extra in IMPORTS:
        assert main(["--root", str(root), "import", str(DATA / filename), ident,
                     "--create", *extra]) == 0
    assert main(["--root", str(root), "sts", QUERY, str(DATA / "pairs.tsv"),
                 "--outdir", str(outdir), "--metric", metric, "--stopwords", "en"]) == 0


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_sts_output_matches_golden_files(tmp_path, capsys, metric):
    outdir = tmp_path / "out"
    run_sts(tmp_path / "catalog", outdir, metric)
    expected_dir = DATA / "expected" / metric
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in outdir.iterdir()) == expected
    assert len(expected) == 4  # three rankings plus run.info
    for name in expected:
        assert (outdir / name).read_bytes() == (expected_dir / name).read_bytes(), name
