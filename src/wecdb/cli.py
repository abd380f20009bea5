"""Command-line front end.

Usage:
    wecdb --root DIR import FILE IDENTIFIER [options]
    wecdb --root DIR list [--filter SPEC] [--json]
    wecdb --root DIR vectors QUERY (--text S ... | --input FILE | --words W ...) [options]
    wecdb --root DIR train-phrases CORPUS IDENTIFIER [--discount D] [--threshold T] [--passes N]
    wecdb --root DIR sts QUERY PAIRS_TSV --outdir DIR [--metric M] [--reverse] [--stopwords F]
    wecdb --root DIR heatmap QUERY SENTENCE1 SENTENCE2 --outdir DIR [--format csv|svg]

The catalog root comes from ``--root`` or the ``WECDB_ROOT`` environment
variable. Exit code is 0 iff the command completed without an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from . import analyse
from .db import Database
from .errors import WecdbError, read_input_text, text_lines
from .identifier import parse_filter, parse_query
from .pipeline import PreprocessCache, stopword_list
from .retrieve import RetrievalResult, lookup_units


def _open_db(args, create: bool = False) -> Database:
    root = args.root or os.environ.get("WECDB_ROOT")
    if not root:
        raise WecdbError("no catalog root: pass --root or set WECDB_ROOT")
    return Database(root, create_if_missing=create)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wecdb",
        description="Embedded store and retrieval engine for word embedding collections.",
    )
    parser.add_argument("--root", help="catalog root directory (default: $WECDB_ROOT)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="import a plain-text WEC file")
    p.add_argument("file")
    p.add_argument("identifier", help="e.g. algo:w2v;dataset:news;dims:300;fold:0;unit:token")
    p.add_argument("--create", action="store_true", help="create the catalog root if missing")
    p.add_argument("--on-duplicate", choices=["reject", "keep-first"], default="reject")
    p.add_argument("--header", choices=["auto", "yes", "no"], default="auto")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed lines and count them instead of failing")
    p.add_argument("--tokenizer", default="default", help="tokenize rule set")
    p.add_argument("--stopword-list", default=None,
                   help="'en' for the bundled list or a path; default off")
    p.add_argument("--strip-special", action="store_true")
    p.add_argument("--external", default=None,
                   help="external preprocessing command (replaces the tokenizer)")
    p.add_argument("--external-script", default=None,
                   help="script file whose content identifies --external")
    p.add_argument("--phrase-vocab", type=int, metavar="MAX_LEN", default=None,
                   help="enable vocabulary-driven phrase joining up to MAX_LEN tokens")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("list", help="list catalogued WECs")
    p.add_argument("--filter", default=None, help="partial spec, e.g. 'algo:glove;dims:300'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("vectors", help="retrieve vectors for input units")
    p.add_argument("query")
    p.add_argument("--text", action="append", default=[],
                   help="raw input unit (repeatable); implies raw preprocessing")
    p.add_argument("--input", default=None, help="file with one raw input unit per line")
    p.add_argument("--words", nargs="+", default=None,
                   help="one pre-tokenized input unit (no preprocessing)")
    p.add_argument("--in-order", action="store_true")
    p.add_argument("--vectors-only", action="store_true", help="omit words from pairs")
    p.set_defaults(func=cmd_vectors)

    p = sub.add_parser("train-phrases", help="train a phrase model and attach it to a WEC")
    p.add_argument("corpus", help="file with one raw sentence per line")
    p.add_argument("identifier")
    p.add_argument("--discount", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=10.0)
    p.add_argument("--passes", type=int, default=1)
    p.set_defaults(func=cmd_train_phrases)

    p = sub.add_parser("sts", help="rank tab-separated sentence pairs per WEC")
    p.add_argument("query")
    p.add_argument("pairs", help="UTF-8 TSV, two raw sentences per line")
    p.add_argument("--outdir", default="sts-out")
    p.add_argument("--metric", choices=sorted(analyse.METRICS), default="cosine")
    p.add_argument("--reverse", action="store_true",
                   help="sort descending (for similarity metrics)")
    p.add_argument("--stopwords", default="en",
                   help="'en', 'none', or a path to a one-token-per-line file")
    p.set_defaults(func=cmd_sts)

    p = sub.add_parser("heatmap", help="word-level similarity heatmap for two sentences")
    p.add_argument("query")
    p.add_argument("sentence1")
    p.add_argument("sentence2")
    p.add_argument("--outdir", default="heatmap-out")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--metric", choices=sorted(analyse.METRICS), default="cosine-similarity")
    p.add_argument("--no-phrases", action="store_true",
                   help="temporarily disable level-2 phrase joining")
    p.set_defaults(func=cmd_heatmap)
    return parser


def cmd_import(args) -> int:
    with _open_db(args, create=args.create) as db:
        report = db.import_from_file(
            args.file,
            args.identifier,
            on_duplicate=args.on_duplicate.replace("-", "_"),
            expect_header=args.header,
            on_malformed="skip" if args.lenient else "fail",
            vocab_join_max_len=args.phrase_vocab,
            tokenizer=args.tokenizer,
            stopwords=args.stopword_list,
            strip_special=args.strip_special,
            external=(args.external, args.external_script) if args.external else None,
        )
    ratio = f"{report.compression_ratio:.2f}" if report.bytes_text else "n/a"
    print(f"imported: {report.imported}")
    print(f"skipped duplicates: {report.skipped_duplicates}")
    print(f"malformed lines: {len(report.malformed_lines)}")
    print(f"elapsed: {report.elapsed:.2f}s")
    print(
        f"layers: parse {report.parse_s:.2f}s, insert {report.insert_s:.2f}s,"
        f" sync {report.sync_s:.2f}s"
    )
    print(
        f"size: {report.bytes_text} bytes text -> {report.bytes_store} bytes store"
        f" (x{ratio})"
    )
    return 0


def cmd_list(args) -> int:
    with _open_db(args) as db:
        attr_filter = parse_filter(args.filter) if args.filter else None
        entries = db.catalog.list_entries(attr_filter)
    if args.json:
        doc = [
            {
                "identifier": e.normalized,
                "dims": e.dims,
                "vocab_size": e.vocab_size,
                "pipeline_hash": e.pipeline_hash,
                "phrases": e._phrases_field(),
                "source": e.source_file,
                "created_at": e.created_at,
            }
            for e in entries
        ]
        print(json.dumps(doc, indent=2))
        return 0
    for e in entries:
        print(f"{e.normalized}\tdims={e.dims}\tvocab={e.vocab_size}\tphrases={e._phrases_field()}")
    if not entries:
        print("(no entries)", file=sys.stderr)
    return 0


def cmd_vectors(args) -> int:
    given = [option for option, used in (("--text", bool(args.text)),
                                         ("--input", args.input is not None),
                                         ("--words", args.words is not None)) if used]
    if len(given) > 1:
        raise WecdbError(f"pass one input mode, not {' and '.join(given)}")
    with _open_db(args) as db:
        cache = PreprocessCache()
        if args.words is not None:
            inputs: list = [list(args.words)]
            raw = False
        elif args.input is not None:
            inputs = text_lines(read_input_text(args.input))
            raw = True
        elif args.text:
            inputs = list(args.text)
            raw = True
        else:
            raise WecdbError("no input: pass --text, --input, or --words")
        result = db.get_vectors(
            args.query,
            cache,
            inputs=inputs,
            raw=raw,
            in_order=args.in_order,
            as_tuple=not args.vectors_only,
        )
    print(json.dumps(result.to_jsonable()))
    return 0


def cmd_train_phrases(args) -> int:
    with _open_db(args) as db:
        lines = text_lines(read_input_text(args.corpus))
        model = db.train_phrases(
            lines,
            args.identifier,
            discount=args.discount,
            threshold=args.threshold,
            passes=args.passes,
        )
    print(
        f"trained phrase model: {len(model.unigram_counts)} unigrams,"
        f" {len(model.bigram_counts)} bigrams, {model.corpus_token_count} tokens"
    )
    print(f"attached to {args.identifier}")
    return 0


def cmd_sts(args) -> int:
    with _open_db(args) as db:
        lines = text_lines(read_input_text(args.pairs))
        if not lines:
            raise WecdbError(f"empty input file {args.pairs}")
        col1: list[str] = []
        col2: list[str] = []
        for lineno, line in enumerate(lines, start=1):
            cells = line.split("\t")
            if len(cells) != 2:
                raise WecdbError(
                    f"{args.pairs}:{lineno}: expected exactly two tab-separated sentences,"
                    f" got {len(cells)} field(s)"
                )
            col1.append(cells[0])
            col2.append(cells[1])
        metric, is_similarity = analyse.METRICS[args.metric]
        stopwords = set()
        if args.stopwords != "none":
            stopwords = set(stopword_list(args.stopwords)[1].split())
        cache = PreprocessCache()
        both = db.get_vectors(args.query, cache, inputs=col1 + col2, raw=True)
        n = len(col1)
        vecs_1 = RetrievalResult([(norm, units[:n]) for norm, units in both])
        vecs_2 = RetrievalResult([(norm, units[n:]) for norm, units in both])
        ranking = analyse.pairwise_distances(
            vecs_1, vecs_2, metric=metric, reverse=args.reverse, stopwords=stopwords
        )
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        stop_hash = hashlib.sha256(
            "\n".join(sorted(stopwords)).encode("utf-8")
        ).hexdigest()
        info = [
            f"pairs: {len(col1)}",
            f"metric: {args.metric} ({'similarity' if is_similarity else 'distance'})",
            f"reverse: {args.reverse}",
            f"stopwords: {args.stopwords} sha256={stop_hash}",
            f"cache: {cache.hits} hits / {cache.misses} misses",
        ]
        for norm, rows in ranking.per_wec:
            path = outdir / f"{both.entries[norm].file_stem}.ranking.tsv"
            analyse.write_ranking(rows, path)
            undefined = len(ranking.undefined_pairs.get(norm, []))
            info.append(f"wec: {norm} ranked={len(rows)} undefined={undefined} file={path.name}")
            print(f"{norm}: {len(rows)} ranked, {undefined} undefined -> {path}")
        (outdir / "run.info").write_text("\n".join(info) + "\n", encoding="utf-8")
        return 0


def cmd_heatmap(args) -> int:
    with _open_db(args) as db:
        query = parse_query(args.query)
        metric, _ = analyse.METRICS[args.metric]
        entries = db.catalog.require_all(query.expanded)
        if args.no_phrases:  # copies for this run; the catalog keeps their joins
            entries = [dataclasses.replace(entry, phrase_model_ref=None, vocab_join_max_len=None)
                       for entry in entries]
        per_wec = lookup_units(db, entries, [args.sentence1, args.sentence2], raw=True,
                               cache=PreprocessCache(), in_order=False)
        matrices = [analyse.similarity_matrix(one, two, metric=metric) for one, two in per_wec]
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for entry, (one, two), matrix in zip(entries, per_wec, matrices):
            path = outdir / f"{entry.file_stem}.heatmap.{args.format}"
            analyse.export_heatmap(matrix, one.words(), two.words(), path, format=args.format)
            print(f"{entry.normalized}: {matrix.shape[0]}x{matrix.shape[1]} -> {path}")
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WecdbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
