"""The benchmark's own tests: ``python3 -m pytest bench/tests``."""

import json
from pathlib import Path

import numpy as np
import pytest

import gen
import metrics
import run
import tracing
import workloads
from worker import Loop

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        # id, parent, name index, start, end, info
        (1, 0, 0, 0, 100, None),
        (2, 1, 0, 10, 30, None),  # child
        (3, 1, 0, 20, 50, None),  # overlaps the first child: 10..50 covered once
        (4, 1, 0, 90, 120, None),  # runs past the parent's end: clipped to 90..100
        (5, 3, 0, 25, 35, None),  # grandchild: only its own parent's time
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 100 - 40 - 10
    assert selfs[2] == 20
    assert selfs[3] == 30 - 10
    assert selfs[4] == 30
    assert selfs[5] == 10


def test_reference_latency_is_the_median_block_quotient():
    blocks = [
        # ops, their ns, reference units, their ns
        (100, 50_000_000, 2, 2_000_000),  # 0.5 ms per op, 1 ms per unit: 0.5
        (50, 50_000_000, 1, 2_000_000),  # 1 ms per op on a machine half as fast: 0.5
        (10, 60_000_000, 3, 3_000_000),  # 6 ms per op: an outlier the median drops
    ]
    assert metrics.reference_latency(blocks) == 0.5
    report = metrics.reference_report(blocks)
    assert report["blocks"] == 3
    assert report["reference_unit_ms"] == 7_000_000 / 6 / 1e6
    # builds of 2 s, 3 s and 9 s, with the unit taking 1 ms, 2 ms and 3 ms after them
    assert metrics.reference_seconds([2.0, 3.0, 9.0], [1.0, 2.0, 3.0]) == 2.0


def test_text_writer_prints_cells_like_percent_format():
    codes = np.array([[0, -1, 99_999, -99_999, 12_345], [5, -50, 100, -7, 1]], dtype=np.int32)
    words = ["ab", "bakirk"]
    text = gen.format_rows(words, codes).decode("ascii")
    expected = "".join(
        word + "".join(" %.5f" % (c / 1e5) for c in row) + "\n" for word, row in zip(words, codes)
    )
    assert text == expected


def test_inputs_follow_the_seed():
    a, b, c = gen.raw_inputs(4, "tiny"), gen.raw_inputs(4, "tiny"), gen.raw_inputs(5, "tiny")
    assert a.sentences == b.sentences and a.corpus == b.corpus
    assert all(np.array_equal(x.codes, y.codes) for x, y in zip(a.wecs, b.wecs))
    assert a.sentences != c.sentences


# Layers each workload is built to stress: their spans must be recorded,
# which fails if a wrapper is not at the name its callers look up.
STRESSED = {
    "import": ["store.import_parse_share", "catalog.self_us_per_op"],
    "point_lookup": ["catalog.pipeline_parses_per_require", "identifier.parse_calls_per_op",
                     "store.get_us_p50"],
    "sts": ["store.get_many_calls_per_op", "analyse.metric_calls_per_op", "cli.self_ms_per_op",
            "db.store_opens_per_op", "retrieve.lookup_unit_calls_per_op"],
    "raw_text": ["porter.stem_calls_per_op", "phrases.contains_per_token",
                 "phrases.model_apply_us_per_unit", "pipeline.self_us_per_line"],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_named_metric(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = run.run_benchmark(workload, 3, 0.3, trace, scale="tiny", work_root=tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, lines
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for name in STRESSED[workload]:
        assert result["metrics"][name]["value"] > 0, name


def test_a_corrupted_expected_vector_is_a_failure(tmp_path):
    workload = workloads.PointLookup
    wecs, inputs = workload.generate(3, "tiny")
    paths = {key: tmp_path / key for key in ("texts", "catalog", "ops")}
    gen.write_texts(wecs, paths["texts"], 3)
    workload.build(paths["catalog"], paths["texts"], inputs)
    data = workload.check_data(inputs, paths["texts"])
    stream = data["stream"]
    hit = next(i for i, (_, _, expected) in enumerate(stream) if expected is not None)
    ident, word, _ = stream[hit]
    stream[hit] = (ident, word, workloads.digest(b"not the stored vector"))

    loop = Loop(workload.Runner(data, paths))
    for _ in range(hit + 5):
        loop.one()
    assert loop.attempted == hit + 5
    assert loop.failed == 1
    assert f"wrong vector for {word!r}" in loop.errors[0]
