"""Multi-WEC vector retrieval: expand the query, preprocess, look up, nest.

The result mirrors the identifier-first nesting users iterate over:

    RetrievalResult.per_wec          one (normalized identifier, units) per
                                     expanded query identifier, in expansion
                                     order
    UnitResult (one per input unit)  raw input, tokens used for lookup,
                                     (word, vector) pairs, missing tokens

With ``in_order=False`` (the default) ``pairs`` holds one entry per
distinct found word, in first-seen order; ``in_order=True`` repeats an
entry for every token occurrence, in token order. ``missing`` always lists
distinct not-found tokens in first-seen order. With ``as_tuple=False`` the
``pairs`` lists contain bare vectors in the same order, words omitted;
``words()``, ``vectors()`` and the analysis still see the words.

The vectors one call reads from one WEC are the read-only rows of one
float32 matrix (the :class:`~wecdb.store.VectorRows` of its one
``get_many``). A retrieved unit keeps its found words and their row
indices for its whole life; ``pairs`` is built from them on first read,
and units of one WEC share the one view of a word they have in common.
Analysis sums the rows straight from the matrix. A unit built by hand
holds only its ``pairs``; analysis stacks those per width on each call and
stores nothing on the unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import phrases
from .errors import PipelineError, WecdbError
from .pipeline import PreprocessCache, run_pipeline
from .store import VectorRows


class UnitResult:
    """Lookup outcome for one input unit against one WEC.

    ``UnitResult(raw=, tokens=, pairs=, missing=)`` builds a unit by hand.
    A unit that retrieval built holds its found words and their rows in the
    WEC's :class:`~wecdb.store.VectorRows`; its ``pairs`` are made from them
    on first read, as ``(word, vector)`` tuples or, for a unit of an
    ``as_tuple=False`` result, bare vectors.
    """

    __slots__ = ("raw", "tokens", "missing", "_pairs", "_found", "_words", "_rows", "_bare")

    def __init__(self, raw: str, tokens: list[str], pairs: list | None, missing: list[str]):
        self.raw = raw
        self.tokens = tokens
        self.missing = missing
        self._pairs = pairs
        self._found: VectorRows | None = None
        self._words: list[str] | None = None
        self._rows: list[int] | None = None
        self._bare = False

    @property
    def pairs(self) -> list:
        if self._pairs is None:
            found = self._found
            pairs = [(w, found[w]) for w in self._words]
            self._pairs = [v for _, v in pairs] if self._bare else pairs
        return self._pairs

    def _matrix_rows(self) -> tuple[VectorRows, list[int]] | None:
        """``(found, rows)`` of a retrieved unit: vector i is row ``rows[i]``
        of ``found.matrix``. None for a unit built by hand."""
        return None if self._found is None else (self._found, self._rows)

    def words(self) -> list[str]:
        return [w for w, _ in self.pairs] if self._found is None else list(self._words)

    def vectors(self) -> list[np.ndarray]:
        if self._found is None:
            return [v for _, v in self.pairs]
        return [self._found[w] for w in self._words]


@dataclass
class RetrievalResult:
    per_wec: list[tuple[str, list[UnitResult]]] = field(default_factory=list)

    def __iter__(self):
        return iter(self.per_wec)

    def __len__(self) -> int:
        return len(self.per_wec)

    def identifiers(self) -> list[str]:
        return [norm for norm, _ in self.per_wec]

    def to_jsonable(self) -> dict:
        """Stable machine-readable form (identifier / raw / tokens / pairs / missing);
        a pair is ``[word, vector]``, or the bare vector of an ``as_tuple=False`` result."""
        results = []
        for norm, units in self.per_wec:
            unit_docs = []
            for unit in units:
                unit_docs.append(
                    {
                        "raw": unit.raw,
                        "tokens": list(unit.tokens),
                        "pairs": [
                            [p[0], p[1].tolist()] if isinstance(p, tuple) else p.tolist()
                            for p in unit.pairs
                        ],
                        "missing": list(unit.missing),
                    }
                )
            results.append({"identifier": norm, "units": unit_docs})
        return {"results": results}


def lookup_unit(store, raw_text: str, tokens: list[str], in_order: bool) -> UnitResult:
    """Assemble one UnitResult from a store and a ready token list, with a
    store read of its own; :func:`lookup_units` shares one read between units."""
    return _assemble(raw_text, tokens, store.get_many(tokens), in_order)


def _assemble(
    raw_text: str, tokens: list[str], found: VectorRows, in_order: bool
) -> UnitResult:
    index = found.index
    words: list[str] = []
    rows: list[int] = []
    if in_order:
        for token in tokens:
            row = index.get(token)
            if row is not None:
                words.append(token)
                rows.append(row)
        missing = list(dict.fromkeys(t for t in tokens if t not in index))
    else:
        missing = []
        for token in dict.fromkeys(tokens):
            row = index.get(token)
            if row is None:
                missing.append(token)
            else:
                words.append(token)
                rows.append(row)
    unit = UnitResult(raw=raw_text, tokens=list(tokens), pairs=None, missing=missing)
    unit._found, unit._words, unit._rows = found, words, rows
    return unit


def lookup_units(
    db, entry, inputs, raw: bool, cache: PreprocessCache | None, in_order: bool,
    join: bool = True,
) -> list[UnitResult]:
    """Every input unit against one WEC, with a single store read.

    With ``raw=True`` each unit runs through the WEC's pipeline and, when
    ``join`` is on, its phrase model; one ``get_many`` then covers every
    token of every unit plus, for vocabulary joining, every candidate
    window, so the greedy join and the assembly both read that one mapping.
    """
    store = db.open_store(entry)
    texts: list[str] = []
    token_lists: list[list[str]] = []
    for unit in inputs:
        if raw:
            if not isinstance(unit, str):
                raise WecdbError("raw=True expects each input unit to be a string")
            try:
                tokens = run_pipeline(entry.pipeline, unit, cache)
            except PipelineError as exc:
                raise PipelineError(f"[{entry.normalized}] {exc}") from exc
            if join and entry.phrase_model_ref is not None:
                tokens = db.join_phrases(entry, tokens)
            texts.append(unit)
        else:
            if isinstance(unit, str):
                raise WecdbError("raw=False expects each input unit to be a token list")
            tokens = list(unit)
            texts.append("")
        token_lists.append(tokens)
    max_len = entry.vocab_join_max_len if raw and join else None
    wanted = [token for tokens in token_lists for token in tokens]
    if max_len is not None:
        wanted += [w for tokens in token_lists for w in phrases.vocab_windows(tokens, max_len)]
    found = store.get_many(wanted)
    if max_len is not None:
        token_lists = [
            phrases.apply_phrases_vocab(found.index.__contains__, tokens, max_len=max_len)
            for tokens in token_lists
        ]
    return [_assemble(text, tokens, found, in_order) for text, tokens in zip(texts, token_lists)]


def get_vectors(
    db,
    query,
    cache: PreprocessCache | None = None,
    inputs=(),
    raw: bool = False,
    in_order: bool = False,
    as_tuple: bool = True,
) -> RetrievalResult:
    """Retrieve vectors for every input unit from every WEC the query names.

    ``query`` is a grid query string (or an already-parsed
    :class:`~wecdb.identifier.WecQuery`). With ``raw=True`` each input unit
    is a string and is run through the owning WEC's bound pipeline (then
    its phrase model or vocabulary join, if configured) via the shared
    ``cache``; with ``raw=False`` each unit is a ready token list and the
    pipeline is bypassed. Each WEC's store is read once per call.
    """
    from .identifier import WecQuery, parse_query

    if not isinstance(query, WecQuery):
        query = parse_query(query)
    result = RetrievalResult()
    for ident in query.expanded:
        entry = db.catalog.require(ident)
        units = lookup_units(db, entry, inputs, raw, cache, in_order)
        if not as_tuple:
            for unit in units:
                unit._bare = True
        result.per_wec.append((entry.normalized, units))
    return result
