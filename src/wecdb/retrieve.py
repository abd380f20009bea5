"""Multi-WEC vector retrieval: expand the query, preprocess, look up, nest.

The result mirrors the identifier-first nesting users iterate over:

    RetrievalResult.per_wec          one (normalized identifier, units) per
                                     expanded identifier, in expansion order
    RetrievalResult.entries          each such identifier's catalog entry
                                     (empty in a result built by hand)
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
``get_many``). The call's units share one :class:`_Batch`: one array of
matrix rows for every found token of every unit, in unit order, and each
unit's start offset in it. A retrieved unit is a view of its span of that
array; ``pairs``, ``words()``, ``vectors()`` and ``missing`` are built from
the batch and the read's word list (``VectorRows.words``, in row order) on
first read, and units of one WEC share the one view of a word they have in
common. Analysis takes units' spans, grouped, from :func:`_unit_groups`:
a batch's rows as they are, with each unit's start and end in them, and
reads no layout itself. A unit built by hand holds only its ``pairs``;
``_unit_groups`` stacks those per width on each call and stores nothing on
the unit.
Each WEC read is one :class:`_Read`, with the entry's own pipeline and
join; ``heatmap --no-phrases`` passes :func:`lookup_units` copies of the
entries without a join. A call looks up the entry's phrase model once, so
its units join by one model version, as they read one catalog version.

:func:`get_vectors`, ``Database.get_vectors_batch`` and ``wecdb heatmap``
all read through one loop, :func:`lookup_units`, which returns one unit
list per entry. A call over two or more WECs opens one helper thread for
the call. Each ``_Read`` hands its store statement to it with
``WecStore.submit_many``, which returns once the helper has started the
statement, so this thread gives the helper the GIL until then. While WEC
k's statement runs, with the GIL released inside SQLite, this thread
decodes WEC k-1's answer in ``get_many``, builds WEC k-1's units and
preprocesses WEC k+1. Only the statement runs on the helper: pipelines,
phrase models, store opens and each read's ``get_many``, which decodes
its statement's answer, run on the calling thread, so errors are raised
there in expansion order, and a tracer that wraps those functions sees
every call on one thread. A one-WEC call starts no thread, and its
``get_many`` runs its statement itself.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import phrases
from .catalog import CatalogEntry
from .errors import AnalysisError, PipelineError, WecdbError
from .identifier import WecQuery, parse_query
from .pipeline import PreprocessCache, run_pipeline
from .store import VectorRows


class UnitResult:
    """Lookup outcome for one input unit against one WEC.

    ``UnitResult(raw=, tokens=, pairs=, missing=)`` builds a unit by hand.
    A unit that retrieval built is a view of unit ``position`` of the
    :class:`_Batch` of its store read; its ``pairs`` (``(word, vector)``
    tuples or, for a batch read with ``bare=True``, bare vectors),
    ``words()``, ``vectors()`` and ``missing`` are made from the batch when
    first read.
    """

    __slots__ = ("raw", "tokens", "_missing", "_pairs", "_batch", "_position")

    def __init__(self, raw: str, tokens: list[str], pairs: list | None, missing: list[str]):
        self.raw = raw
        self.tokens = tokens
        self._missing = missing
        self._pairs = pairs
        self._batch: _Batch | None = None
        self._position = 0

    @property
    def missing(self) -> list[str]:
        if self._missing is None:
            index = self._batch.found.index
            self._missing = list(dict.fromkeys(t for t in self.tokens if t not in index))
        return self._missing

    @property
    def pairs(self) -> list:
        if self._pairs is None:
            found = self._batch.found
            words = self.words()
            vectors = [found[w] for w in words]
            self._pairs = vectors if self._batch.bare else list(zip(words, vectors))
        return self._pairs

    def words(self) -> list[str]:
        if self._batch is None:
            return [w for w, _ in self.pairs]
        return self._batch.words(self._position)

    def vectors(self) -> list[np.ndarray]:
        if self._batch is None:
            return [v for _, v in self.pairs]
        found = self._batch.found
        return [found[w] for w in self.words()]


class _Batch:
    """Every unit of one store read against one WEC, column by column.

    Unit i's vectors are rows ``rows[starts[i]:starts[i + 1]]`` of
    ``found.matrix``, and its words the same entries of ``found.words``: one
    row per found token, in token order, or with ``in_order=False`` one per
    distinct found token, in first-seen order. ``bare`` makes each unit's
    ``pairs`` its vectors alone.
    """

    __slots__ = ("found", "rows", "starts", "bare")

    def __init__(
        self, found: VectorRows, token_lists: list[list[str]], in_order: bool, bare: bool
    ):
        get = found.index.get
        rows = np.array([get(t, -1) for tokens in token_lists for t in tokens], dtype=np.intp)
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
        unit_of = np.repeat(np.arange(len(token_lists)), lengths)
        hit = rows >= 0
        rows, unit_of = rows[hit], unit_of[hit]
        if not in_order:
            # np.unique returns each key's first position; sorted, they keep token order
            _, first = np.unique(unit_of * len(found) + rows, return_index=True)
            first.sort()
            rows, unit_of = rows[first], unit_of[first]
        self.found, self.rows, self.bare = found, rows, bare
        self.starts = np.searchsorted(unit_of, np.arange(len(token_lists) + 1))

    def words(self, position: int) -> list[str]:
        start, end = self.starts[position : position + 2].tolist()
        return list(map(self.found.words.__getitem__, self.rows[start:end].tolist()))


def _unit_groups(units: Sequence[UnitResult]):
    """Yield ``(members, matrix, words, rows, starts, ends)`` for each group of ``units``.

    ``members`` are the positions in ``units`` of the group's units, in
    order; unit ``members[k]`` has the span ``rows[starts[k]:ends[k]]`` of
    ``rows``, which index ``matrix`` and ``words``. Retrieved units are
    grouped by the :class:`_Batch` of their store read, and ``rows`` is that
    batch's own array, nothing copied. Hand-built units are grouped by
    width, their pairs stacked for this call only (a vector changed between
    calls is read anew); one with vectors of two lengths raises
    :class:`AnalysisError`.
    """
    batches: dict[int, tuple[_Batch, list[int], list[int]]] = {}
    by_width: dict[int, tuple[list[int], list[tuple[str, np.ndarray]], list[int]]] = {}
    for i, unit in enumerate(units):
        batch = unit._batch
        if batch is not None:
            _, members, positions = batches.setdefault(id(batch), (batch, [], []))
            members.append(i)
            positions.append(unit._position)
            continue
        pairs = unit.pairs
        if not pairs:
            continue
        width = len(pairs[0][1])
        for word, vec in pairs:
            if len(vec) != width:
                raise AnalysisError(f"mixed vector lengths: {width} vs {len(vec)} for {word!r}")
        members, stacked, lengths = by_width.setdefault(width, ([], [], []))
        members.append(i)
        stacked += pairs
        lengths.append(len(pairs))
    for batch, members, positions in batches.values():
        starts, ends = batch.starts[positions], batch.starts[np.add(positions, 1)]
        yield members, batch.found.matrix, batch.found.words, batch.rows, starts, ends
    for members, stacked, lengths in by_width.values():
        matrix = np.array([vec for _, vec in stacked])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        yield members, matrix, [word for word, _ in stacked], np.arange(len(stacked)), starts, ends


@dataclass
class RetrievalResult:
    per_wec: list[tuple[str, list[UnitResult]]] = field(default_factory=list)
    entries: dict[str, CatalogEntry] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.per_wec)

    def __len__(self) -> int:
        return len(self.per_wec)

    def identifiers(self) -> list[str]:
        return [norm for norm, _ in self.per_wec]

    def to_jsonable(self) -> dict:
        """Stable machine-readable form (identifier / raw / tokens / pairs / missing);
        a pair is ``[word, vector]``, or the bare vector of an ``as_tuple=False`` result."""
        def pair(p):
            return [p[0], p[1].tolist()] if isinstance(p, tuple) else p.tolist()

        results = [
            {"identifier": norm, "units": [
                {"raw": u.raw, "tokens": list(u.tokens),
                 "pairs": [pair(p) for p in u.pairs], "missing": list(u.missing)}
                for u in units
            ]}
            for norm, units in self.per_wec
        ]
        return {"results": results}


def lookup_unit(store, raw_text: str, tokens: list[str], in_order: bool) -> UnitResult:
    """One UnitResult from a store and a ready token list, with a store read
    of its own; :func:`lookup_units` shares one read between units."""
    (unit,) = _units(store.get_many(tokens), [raw_text], [list(tokens)], in_order, False)
    return unit


def _units(
    found: VectorRows, texts: list[str], token_lists: list[list[str]], in_order: bool,
    bare: bool,
) -> list[UnitResult]:
    """One unit per token list; each unit keeps its list as its ``tokens``."""
    batch = _Batch(found, token_lists, in_order, bare)
    units = []
    for i, (text, tokens) in enumerate(zip(texts, token_lists)):
        unit = UnitResult.__new__(UnitResult)  # a view; __init__ builds hand-built units
        unit.raw, unit.tokens, unit._missing, unit._pairs = text, tokens, None, None
        unit._batch, unit._position = batch, i
        units.append(unit)
    return units


class _Read:
    """One WEC's part of a call: its store, opened and its units preprocessed
    when made, and the words of its one store read (``wanted``), whose
    statements, when a helper is given, run there from the time the read
    is made."""

    __slots__ = ("store", "texts", "token_lists", "wanted", "max_len", "pending")

    def __init__(self, db, entry: CatalogEntry, inputs: Sequence, raw: bool,
                 cache: PreprocessCache | None, helper):
        self.store = db.open_store(entry)
        if raw:
            texts = inputs
            try:
                token_lists = [run_pipeline(entry.pipeline, unit, cache) for unit in inputs]
            except PipelineError as exc:
                raise PipelineError(f"[{entry.normalized}] {exc}") from exc
            if entry.phrase_model_ref is not None:
                apply = db._phrase_model(entry).apply  # one model version for every unit
                token_lists = [apply(tokens) for tokens in token_lists]
        else:
            texts = [""] * len(inputs)
            token_lists = [list(unit) for unit in inputs]
        self.max_len = max_len = entry.vocab_join_max_len if raw else None
        wanted = [token for tokens in token_lists for token in tokens]
        if max_len is not None:
            wanted += [w for tokens in token_lists for w in phrases.vocab_windows(tokens, max_len)]
        self.texts, self.token_lists, self.wanted = texts, token_lists, wanted
        self.pending = None if helper is None else self.store.submit_many(wanted, helper)

    def units(self, in_order: bool, bare: bool) -> list[UnitResult]:
        """The units, on this thread: ``get_many`` takes the store read's
        answer, or runs the read itself when no helper was given, and decodes
        it; then the units are built."""
        found = self.store.get_many(self.wanted, pending=self.pending)
        token_lists, max_len = self.token_lists, self.max_len
        if max_len is not None:
            token_lists = [
                phrases.apply_phrases_vocab(found.index.__contains__, tokens, max_len=max_len)
                for tokens in token_lists
            ]
        return _units(found, self.texts, token_lists, in_order, bare)


def lookup_units(
    db, entries: Sequence[CatalogEntry], inputs: Sequence, raw: bool,
    cache: PreprocessCache | None, in_order: bool, bare: bool = False,
) -> list[list[UnitResult]]:
    """One unit list per entry of ``entries``, in order: every input unit of
    the sequence ``inputs`` against that WEC, with a single store read.

    With ``raw=True`` each unit runs through the entry's pipeline and its
    phrase model, if it has one, looked up once for all units; one
    ``get_many`` then covers every token of every unit plus, for the entry's
    vocabulary join, every candidate window, so the greedy join and the
    units' :class:`_Batch` both read that one mapping. ``bare=True`` gives
    units whose ``pairs`` are bare vectors. Each unit must be a string with
    ``raw=True`` and a token list without; a call checks that before any
    store opens. A call over two or more entries has one helper thread (see
    the module docstring), gone when this returns or raises; an error is
    the first failing WEC's.
    """
    if raw and not all(isinstance(unit, str) for unit in inputs):
        raise WecdbError("raw=True expects each input unit to be a string")
    if not raw and any(isinstance(unit, str) for unit in inputs):
        raise WecdbError("raw=False expects each input unit to be a token list")
    many = len(entries) > 1
    if many:  # imported here: a one-WEC call starts no thread and needs none of it
        from concurrent.futures import ThreadPoolExecutor
    out, last = [], None  # last: the read made before this one, its units not yet built
    with ThreadPoolExecutor(1) if many else nullcontext() as helper:
        for entry in entries:
            try:
                read = _Read(db, entry, inputs, raw, cache, helper)
            except Exception:
                if last is not None:  # an error of the WEC before comes first
                    last.units(in_order, bare)
                raise
            if last is not None:
                out.append(last.units(in_order, bare))
            last = read
        if last is not None:  # else a WecQuery built by hand named no WEC
            out.append(last.units(in_order, bare))
    return out


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
    pipeline is bypassed. Every identifier the query expands to is resolved
    from one read of the catalog manifest, so a call sees one catalog
    version (the result's ``entries``) and an unknown identifier raises
    before any store is opened. Each WEC's store is read once per call;
    a call over two or more WECs runs those reads' statements on one helper
    thread of its own (:func:`lookup_units`).
    ``inputs`` that is one string, not a sequence of units, raises.
    """
    if isinstance(inputs, str):
        raise WecdbError("inputs must be a sequence of units, not a single string")
    if not isinstance(query, WecQuery):
        query = parse_query(query)
    inputs = list(inputs)  # read once: every WEC gets the same units
    entries = db.catalog.require_all(query.expanded)
    per_wec = lookup_units(db, entries, inputs, raw, cache, in_order, not as_tuple)
    result = RetrievalResult()
    for entry, units in zip(entries, per_wec):
        result.per_wec.append((entry.normalized, units))
        result.entries[entry.normalized] = entry
    return result
