"""Span tracing for the benchmark's traced run, installed from outside wecdb.

:func:`install` replaces the public entry points of each wecdb module with
wrappers that record a span per call: ``(id, parent id, name, start, end,
info)``. A function is rebound under every name callers look it up by (any
``wecdb`` module attribute, or a tuple inside a module-level dict such as
``analyse.METRICS``, that holds the same object); methods are wrapped on
their class. Spans stay in memory until :meth:`Tracer.write` saves them
once, after the timed phase.

A span's self time is its duration minus the part of it that its child
spans cover (:func:`self_times`). Layers are this repository's modules;
``pipeline.parse_pipeline`` is charged to ``catalog`` because the catalog's
manifest load is its only caller on every read path.
"""

from __future__ import annotations

import sys
import time
import types
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        # (span id, parent id, name index, start ns, end ns, info)
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1

    def _name_index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, info=None, materialize_arg: int | None = None):
        index = self._name_index(name, layer)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if materialize_arg is not None and not isinstance(args[materialize_arg], (list, tuple)):
                args = args[:materialize_arg] + (list(args[materialize_arg]),) + args[materialize_arg + 1:]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, parent, index, start, _clock(), None))
                raise
            end = _clock()
            stack.pop()
            spans.append((span_id, parent, index, start, end, info(args, result) if info else None))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str, layer: str):
        """Record a span around a block of the benchmark's own code."""
        index = self.names.index(name) if name in self.names else self._name_index(name, layer)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans.append((span_id, parent, index, start, end, None))

    def write(self, path) -> None:
        """Write every span once, as tab-separated ``id parent name layer start end info``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, index, start, end, info in self.spans:
                fh.write(
                    f"{span_id}\t{parent}\t{self.names[index]}\t{self.layers[index]}"
                    f"\t{start}\t{end}\t{'' if info is None else info}\n"
                )


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns).

    Children are clipped to the parent's interval, and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def _found(args, result) -> int:
    return int(result is not None and result is not False)


def _get_many_info(args, result) -> tuple[int, int]:
    return (len(set(args[1])), len(result))


def _token_count(args, result) -> int:
    return len(args[1])


def _cache_hit(args, result) -> int:
    return int(result is not None)


def targets():
    """(owner, attribute, layer, info, materialize_arg) for every traced entry point."""
    from wecdb import analyse, catalog, cli, db, identifier, phrases, pipeline, porter, retrieve, store

    Catalog, Database, WecStore = catalog.Catalog, db.Database, store.WecStore
    return [
        (identifier, "parse_identifier", "identifier", None, None),
        (identifier, "parse_query", "identifier", None, None),
        (Catalog, "__init__", "catalog", None, None),
        (Catalog, "require", "catalog", None, None),
        (Catalog, "lookup", "catalog", None, None),
        (Catalog, "list_entries", "catalog", None, None),
        (Catalog, "register", "catalog", None, None),
        (Catalog, "set_vocab_size", "catalog", None, None),
        (Catalog, "set_phrase_model", "catalog", None, None),
        (Catalog, "delete", "catalog", None, None),
        (Catalog, "_write_manifest", "catalog", None, None),
        (catalog, "parse_pipeline", "catalog", None, None),
        (Database, "__init__", "db", None, None),
        (Database, "register", "db", None, None),
        (Database, "import_from_file", "db", None, None),
        (Database, "import_into", "db", None, None),
        (Database, "open_store", "db", None, None),
        (Database, "get_vector", "db", None, None),
        (Database, "get_vectors_batch", "db", None, None),
        (Database, "get_vectors", "db", None, None),
        (Database, "join_phrases", "db", None, None),
        (Database, "train_phrases", "db", None, None),
        (pipeline, "run_pipeline", "pipeline", None, None),
        (pipeline, "pipeline_for_identifier", "pipeline", None, None),
        (pipeline.PreprocessCache, "get", "pipeline", _cache_hit, None),
        (porter, "stem", "porter", None, None),
        (phrases, "apply_phrases_vocab", "phrases", _token_count, 1),
        (phrases.PhraseModel, "apply", "phrases", None, None),
        (phrases, "train_phrase_model", "phrases", None, None),
        (WecStore, "__init__", "store", None, None),
        (WecStore, "get", "store", _found, None),
        (WecStore, "get_many", "store", _get_many_info, 1),
        (WecStore, "contains", "store", _found, None),
        (WecStore, "count", "store", None, None),
        (store, "import_from_file", "store", None, None),
        (store, "parse_vector_text", "store", None, None),
        (retrieve, "get_vectors", "retrieve", None, None),
        (retrieve, "lookup_unit", "retrieve", None, None),
        (analyse, "pairwise_distances", "analyse", None, None),
        (analyse, "average_vector", "analyse", None, None),
        (analyse, "similarity_matrix", "analyse", None, None),
        (analyse, "cosine_distance", "analyse", None, None),
        (analyse, "cosine_similarity", "analyse", None, None),
        (analyse, "euclidean_distance", "analyse", None, None),
        (cli, "main", "cli", None, None),
    ]


def _rebind_everywhere(original, replacement, undo: list) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "wecdb" or mod_name.startswith("wecdb.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                undo.append((namespace.__setitem__, attr, value))
                namespace[attr] = replacement
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if isinstance(item, tuple) and any(x is original for x in item):
                        undo.append((value.__setitem__, key, item))
                        value[key] = tuple(replacement if x is original else x for x in item)


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo: list = []
    for owner, attr, layer, info, materialize_arg in targets():
        original = vars(owner)[attr]
        if isinstance(owner, types.ModuleType):
            _rebind_everywhere(original, tracer.wrap(original, f"{layer}.{attr}", layer, info,
                                                     materialize_arg), undo)
        else:
            name = f"{layer}.{owner.__name__}.{attr}"
            undo.append((lambda k, v, o=owner: setattr(o, k, v), attr, original))
            setattr(owner, attr, tracer.wrap(original, name, layer, info, materialize_arg))

    def uninstall():
        for setter, key, value in reversed(undo):
            setter(key, value)

    return uninstall
