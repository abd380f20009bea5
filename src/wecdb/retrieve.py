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
``pairs`` lists contain bare vectors in the same order, words omitted.
Vectors are read-only arrays, and units of one WEC share the array of a
word they have in common.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import phrases
from .errors import PipelineError, WecdbError
from .pipeline import PreprocessCache, run_pipeline


@dataclass
class UnitResult:
    """Lookup outcome for one input unit against one WEC."""

    raw: str
    tokens: list[str]
    pairs: list
    missing: list[str]

    def words(self) -> list[str]:
        return [w for w, _ in self.pairs]

    def vectors(self) -> list[np.ndarray]:
        return [v for _, v in self.pairs]


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


def _assemble(raw_text: str, tokens: list[str], found: dict, in_order: bool) -> UnitResult:
    pairs = []
    missing = []
    seen: set[str] = set()
    if in_order:
        for token in tokens:
            vec = found.get(token)
            if vec is not None:
                pairs.append((token, vec))
            elif token not in seen:
                seen.add(token)
                missing.append(token)
    else:
        for token in tokens:
            if token in seen:
                continue
            seen.add(token)
            vec = found.get(token)
            if vec is None:
                missing.append(token)
            else:
                pairs.append((token, vec))
    return UnitResult(raw=raw_text, tokens=list(tokens), pairs=pairs, missing=missing)


def lookup_units(
    db, entry, inputs, raw: bool, cache: PreprocessCache | None, in_order: bool,
    join: bool = True,
) -> list[UnitResult]:
    """Every input unit against one WEC, with a single store read.

    With ``raw=True`` each unit runs through the WEC's pipeline and, when
    ``join`` is on, its phrase model; one ``get_many`` then covers every
    token of every unit plus, for vocabulary joining, every candidate
    window, so the greedy join and the assembly both read that one dict.
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
            phrases.apply_phrases_vocab(found.__contains__, tokens, max_len=max_len)
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
                unit.pairs = [v for _, v in unit.pairs]
        result.per_wec.append((entry.normalized, units))
    return result
