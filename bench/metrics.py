"""Metric definitions and the arithmetic that turns samples and spans into them.

``END_TO_END`` is what an untraced run reports; ``PER_LAYER`` is what a
traced run reports, each with the end-to-end metric it should move and the
workload where it has to show (``BENCHMARK.json`` has a fixed key set, so
this mapping lives here and is printed with every traced run).
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import self_times

# name, unit, better. The op latency is gated at the reference speed
# (reference_latency): on a shared 2-vCPU virtual machine the raw speed of
# the same code moved by about 25% between runs minutes apart, which is as
# much as the bound. The raw median, mean and tails are reported, not gated.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_ref_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("store_ratio_max", "ratio", "lower"),
]

# name, unit, better, end-to-end metric it should move, where it shows / predicted no change
PER_LAYER = [
    ("identifier.parse_calls_per_op", "count", "lower", "op_ref_ms",
     "point_lookup (1 + one per manifest entry) / no change on sts"),
    ("identifier.self_us_per_op", "us", "lower", "op_ref_ms", "point_lookup / no change on sts"),
    ("catalog.require_us_p50", "us", "lower", "op_ref_ms",
     "point_lookup (most of each call) / no change on sts, import"),
    ("catalog.self_us_per_op", "us", "lower", "op_ref_ms", "point_lookup / no change on sts, import"),
    ("catalog.pipeline_parses_per_require", "count", "lower", "op_ref_ms",
     "point_lookup (7 at the seed commit) / no change on sts, import"),
    ("db.store_opens_per_op", "count", "lower", "op_ref_ms",
     "sts (7 per op) / none on point_lookup after warm-up"),
    ("db.open_store_us_p50", "us", "lower", "op_ref_ms", "sts / none on point_lookup after warm-up"),
    ("db.self_us_per_op", "us", "lower", "op_ref_ms", "point_lookup, sts / small on import"),
    ("pipeline.self_us_per_line", "us", "lower", "op_ref_ms",
     "raw_text / small on sts (2 pipelines over 7 WECs), none on point_lookup"),
    ("pipeline.lines_per_op", "count", "lower", "op_ref_ms", "raw_text, sts / none on point_lookup"),
    ("pipeline.cache_hit_ratio", "ratio", "higher", "op_ref_ms",
     "sts (base: pipeline.cache_lookups_per_op) / 0 on raw_text (fresh cache per call)"),
    ("pipeline.cache_lookups_per_op", "count", "lower", "op_ref_ms", "sts, raw_text / none on point_lookup"),
    ("porter.stem_calls_per_op", "count", "lower", "op_ref_ms", "raw_text / none on sts, point_lookup"),
    ("porter.self_us_per_op", "us", "lower", "op_ref_ms", "raw_text / none on sts, point_lookup"),
    ("phrases.vocab_join_us_per_unit", "us", "lower", "op_ref_ms", "raw_text / none elsewhere"),
    ("phrases.contains_per_token", "count", "lower", "op_ref_ms",
     "raw_text (base: phrases.join_tokens_per_op) / none elsewhere"),
    ("phrases.join_tokens_per_op", "count", "lower", "op_ref_ms", "raw_text / none elsewhere"),
    ("phrases.model_apply_us_per_unit", "us", "lower", "op_ref_ms", "raw_text / none elsewhere"),
    ("store.get_us_p50", "us", "lower", "op_ref_ms", "point_lookup (300-d rows overflow) / none on sts"),
    ("store.get_many_calls_per_op", "count", "lower", "op_ref_ms",
     "sts (3,500 at the seed commit), raw_text / none on point_lookup"),
    ("store.words_per_get_many", "count", "higher", "op_ref_ms", "sts, raw_text / none on point_lookup"),
    ("store.get_many_self_us_per_op", "us", "lower", "op_ref_ms", "sts, raw_text / none on point_lookup"),
    ("store.hit_ratio", "ratio", "higher", "op_ref_ms",
     "every read workload (base: store.words_requested_per_op)"),
    ("store.words_requested_per_op", "count", "lower", "op_ref_ms", "every read workload"),
    ("store.import_parse_share", "ratio", "lower", "op_ref_ms",
     "import (parse_vector_text time / store.import_from_file time) / none on reads"),
    ("store.import_self_s_per_op", "s", "lower", "op_ref_ms",
     "import / no change on read workloads except through setup_s"),
    ("store.bytes_per_payload_byte.d50", "ratio", "lower", "store_ratio_max",
     "import, point_lookup, sts / read latency only through layout"),
    ("store.bytes_per_payload_byte.d300", "ratio", "lower", "store_ratio_max",
     "import, point_lookup, sts (overflow-page cliff) / read latency only through layout"),
    ("store.bytes_per_payload_byte.d1024", "ratio", "lower", "store_ratio_max",
     "import (where a larger page would move the cliff)"),
    ("retrieve.lookup_unit_calls_per_op", "count", "lower", "op_ref_ms",
     "sts (3,500), raw_text / bypassed by point_lookup"),
    ("retrieve.self_us_per_op", "us", "lower", "op_ref_ms", "sts, raw_text / bypassed by point_lookup"),
    ("analyse.self_ms_per_op", "ms", "lower", "op_ref_ms", "sts / none elsewhere"),
    ("analyse.metric_calls_per_op", "count", "lower", "op_ref_ms", "sts (1,750) / none elsewhere"),
    ("cli.self_ms_per_op", "ms", "lower", "op_ref_ms",
     "sts (TSV read, ranking and run.info writes) / none elsewhere"),
    ("trace.overhead_ratio", "ratio", "lower", "none",
     "every workload: traced / untraced op_ref_ms"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

_METRIC_FUNCTIONS = {"analyse.cosine_distance", "analyse.cosine_similarity", "analyse.euclidean_distance"}
_METRIC_CALLERS = {"analyse.pairwise_distances", "analyse.similarity_matrix"}


def percentile_report(samples_ns: list[int]) -> dict:
    """Sample count, median, mean, and each of p90/p99/p99.9 that has at
    least ten samples beyond it (ns in, ms out)."""
    n = len(samples_ns)
    report = {"n": n, "p50_ms": 0.0, "mean_ms": 0.0, "tails_ms": {}}
    if n:
        values = np.asarray(samples_ns, dtype=np.float64) / 1e6
        report.update(p50_ms=float(np.median(values)), mean_ms=float(values.mean()))
        for label, q in (("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)):
            if n * (1 - q / 100) >= 10:
                report["tails_ms"][label] = float(np.percentile(values, q))
    return report


def reference_latency(blocks) -> float:
    """Op latency in ms at the reference speed, where the reference unit
    (reference.py) takes 1 ms: the median over blocks of the block's mean op
    latency divided by the mean time of the units run right after it.

    Each block holds at least 50 ms of ops, so an op that is slow every few
    dozen calls stays in its block's mean; the median drops the blocks that
    a burst from another tenant hit on one side of the quotient only.
    """
    return float(statistics.median(
        (op_ns / ops) / (reference_ns / units) for ops, op_ns, units, reference_ns in blocks
    ))


def reference_seconds(times_s, unit_ms) -> float:
    """Median of the times, each in s at the reference speed: divided by the
    time in ms that the reference unit took right after it."""
    return float(statistics.median(t / u for t, u in zip(times_s, unit_ms)))


def reference_report(blocks) -> dict:
    units = sum(b[2] for b in blocks)
    return {
        "op_ref_ms": reference_latency(blocks),
        "blocks": len(blocks),
        "reference_unit_ms": sum(b[3] for b in blocks) / units / 1e6,
    }


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def op_spans(tracer) -> list[tuple]:
    """The spans recorded inside ``bench.op`` spans; answer checks run outside them."""
    keep: dict[int, bool] = {}
    # a span is appended when it ends, so every parent comes after its children
    for span_id, parent, index, *_ in reversed(tracer.spans):
        keep[span_id] = keep.get(parent, False) if parent else tracer.names[index] == "bench.op"
    return [s for s in tracer.spans if keep[s[0]]]


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics per traced op.

    ``*_self_*`` values are layer self times (span time minus child spans);
    ``*_us_p50`` and ``*_per_unit`` values are whole-call durations.
    """
    spans = op_spans(tracer)
    names = tracer.names
    n_ops = sum(1 for s in spans if names[s[2]] == "bench.op")
    selfs = self_times(spans)
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: names[s[2]] for s in spans}
    layer_self: dict[str, int] = {}
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        layer = tracer.layers[span[2]]
        layer_self[layer] = layer_self.get(layer, 0) + selfs[span[0]]
        by_name.setdefault(names[span[2]], []).append(span)

    def spans_of(name):
        return by_name.get(name, [])

    def durations(name):
        return [s[4] - s[3] for s in spans_of(name)]

    def under(span_id, ancestor_names) -> bool:
        node = span_id
        while node:
            if name_of.get(node) in ancestor_names:
                return True
            node = parent_of.get(node, 0)
        return False

    per_op = 1 / n_ops
    requires = spans_of("catalog.Catalog.require")
    opened = {s[1] for s in spans_of("store.WecStore.__init__")}
    cache_gets = spans_of("pipeline.PreprocessCache.get")
    joins = spans_of("phrases.apply_phrases_vocab")
    join_tokens = sum(s[5] or 0 for s in joins)
    get_manys = spans_of("store.WecStore.get_many")
    reads = spans_of("store.WecStore.get") + spans_of("store.WecStore.contains")
    requested = len(reads) + sum(s[5][0] for s in get_manys if s[5])
    found = sum(s[5] or 0 for s in reads) + sum(s[5][1] for s in get_manys if s[5])
    imports = spans_of("store.import_from_file")
    lines = len(spans_of("pipeline.run_pipeline"))
    # calls into the identifier layer from outside it
    identifier_calls = sum(
        1 for s in spans
        if tracer.layers[s[2]] == "identifier"
        and not name_of.get(s[1], "").startswith("identifier.")
    )
    return {
        "identifier.parse_calls_per_op": identifier_calls * per_op,
        "identifier.self_us_per_op": layer_self.get("identifier", 0) * per_op / 1e3,
        "catalog.require_us_p50": _p50(durations("catalog.Catalog.require")) / 1e3,
        "catalog.self_us_per_op": layer_self.get("catalog", 0) * per_op / 1e3,
        "catalog.pipeline_parses_per_require": ratio(
            sum(1 for s in spans_of("catalog.parse_pipeline")
                if under(s[0], {"catalog.Catalog.require"})),
            len(requires),
        ),
        "db.store_opens_per_op": len(spans_of("store.WecStore.__init__")) * per_op,
        "db.open_store_us_p50": _p50(
            [s[4] - s[3] for s in spans_of("db.Database.open_store") if s[0] in opened]
        ) / 1e3,
        "db.self_us_per_op": layer_self.get("db", 0) * per_op / 1e3,
        "pipeline.self_us_per_line": ratio(layer_self.get("pipeline", 0) / 1e3, lines),
        "pipeline.lines_per_op": lines * per_op,
        "pipeline.cache_hit_ratio": ratio(sum(s[5] or 0 for s in cache_gets), len(cache_gets)),
        "pipeline.cache_lookups_per_op": len(cache_gets) * per_op,
        "porter.stem_calls_per_op": len(spans_of("porter.stem")) * per_op,
        "porter.self_us_per_op": layer_self.get("porter", 0) * per_op / 1e3,
        "phrases.vocab_join_us_per_unit": ratio(sum(durations("phrases.apply_phrases_vocab")) / 1e3,
                                                 len(joins)),
        "phrases.contains_per_token": ratio(
            sum(1 for s in spans_of("store.WecStore.contains")
                if under(s[0], {"phrases.apply_phrases_vocab"})),
            join_tokens,
        ),
        "phrases.join_tokens_per_op": join_tokens * per_op,
        "phrases.model_apply_us_per_unit": ratio(
            sum(durations("phrases.PhraseModel.apply")) / 1e3, len(spans_of("phrases.PhraseModel.apply"))
        ),
        "store.get_us_p50": _p50(durations("store.WecStore.get")) / 1e3,
        "store.get_many_calls_per_op": len(get_manys) * per_op,
        "store.words_per_get_many": ratio(sum(s[5][0] for s in get_manys if s[5]), len(get_manys)),
        "store.get_many_self_us_per_op": sum(selfs[s[0]] for s in get_manys) * per_op / 1e3,
        "store.hit_ratio": ratio(found, requested),
        "store.words_requested_per_op": requested * per_op,
        "store.import_parse_share": ratio(
            sum(durations("store.parse_vector_text")), sum(durations("store.import_from_file"))
        ),
        "store.import_self_s_per_op": sum(
            selfs[s[0]] for s in spans
            if tracer.layers[s[2]] == "store" and under(s[0], {"store.import_from_file"})
        ) * per_op / 1e9 if imports else 0.0,
        "retrieve.lookup_unit_calls_per_op": len(spans_of("retrieve.lookup_unit")) * per_op,
        "retrieve.self_us_per_op": layer_self.get("retrieve", 0) * per_op / 1e3,
        "analyse.self_ms_per_op": layer_self.get("analyse", 0) * per_op / 1e6,
        "analyse.metric_calls_per_op": sum(
            1 for name in _METRIC_FUNCTIONS for s in spans_of(name)
            if name_of.get(s[1]) in _METRIC_CALLERS
        ) * per_op,
        "cli.self_ms_per_op": layer_self.get("cli", 0) * per_op / 1e6,
    }
