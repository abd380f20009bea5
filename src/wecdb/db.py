"""Single entry point: a catalog root plus open store handles.

    from wecdb import Database
    db = Database("/data/wecs", create_if_missing=True)
    db.import_from_file("glove.6b.50d.txt",
                        "algo:glove;dataset:6b;dims:50;fold:1;unit:token")
    res = db.get_vectors("algo:glove;dataset:6b;dims:{50,100};fold:1;unit:token",
                         cache, inputs=["Theory of computation."], raw=True)

Store handles and phrase models are kept until their file changes or the database closes.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import phrases as phrases_mod
from . import store as store_mod
from .catalog import Catalog, CatalogEntry
from .errors import CatalogError, PipelineError, StoreError, WecImportError
from .identifier import WecIdentifier, as_identifier
from .phrases import PhraseModel
from .pipeline import PipelineDescriptor, PreprocessCache, pipeline_for_identifier, run_pipeline
from .retrieve import RetrievalResult, get_vectors as _get_vectors, lookup_units
from .store import EmptyStore, ImportReport, WecStore


def _registration(
    ident: WecIdentifier | str, pipeline: PipelineDescriptor | None, pipeline_options: dict
) -> tuple[WecIdentifier, PipelineDescriptor]:
    """The identifier to register and its pipeline: ``pipeline``, or the one its
    metadata implies with ``pipeline_options``. Options given with a pipeline are refused."""
    ident = as_identifier(ident)
    if pipeline is None:
        return ident, pipeline_for_identifier(ident, **pipeline_options)
    if pipeline_options:
        raise PipelineError(f"pipeline options ({', '.join(sorted(pipeline_options))})"
                            " cannot be given with pipeline=, which they would not change")
    return ident, pipeline


class Database:
    def __init__(self, root: str | Path, create_if_missing: bool = False):
        self.catalog = Catalog(root, create_if_missing=create_if_missing)
        # path -> (identity of the file read, store handle or phrase model; None if missing)
        self._files: dict[str, tuple[tuple | None, WecStore | PhraseModel | None]] = {}
        self._files_lock = threading.Lock()

    @property
    def root(self) -> Path:
        return self.catalog.root

    # -- registration and import ------------------------------------------

    def register(
        self,
        ident: WecIdentifier | str,
        pipeline: PipelineDescriptor | None = None,
        *,
        phrase_model: PhraseModel | None = None,
        vocab_join_max_len: int | None = None,
        source: str | Path = "",
        **pipeline_options,
    ) -> CatalogEntry:
        """Register a WEC; builds the metadata-implied pipeline when none given."""
        ident, pipeline = _registration(ident, pipeline, pipeline_options)
        return self.catalog.register(
            ident,
            pipeline,
            phrase_model=phrase_model,
            vocab_join_max_len=vocab_join_max_len,
            source=source,
        )

    def import_from_file(
        self,
        path: str | Path,
        ident: WecIdentifier | str,
        *,
        on_duplicate: str = "reject",
        expect_header: str = "auto",
        on_malformed: str = "fail",
        pipeline: PipelineDescriptor | None = None,
        vocab_join_max_len: int | None = None,
        **pipeline_options,
    ) -> ImportReport:
        """Register and import a plain-text WEC file in one step.

        The identifier must be unused: registering twice is a duplicate-
        identifier error (identifiers are one-per-import citations). Use
        :meth:`register` plus :meth:`import_into` to split the two halves.
        The store is built in a private file that the registering catalog
        write moves into place, so a failed or killed import leaves no entry,
        and no store file that a later registration of the identifier would read.
        """
        ident, pipeline = _registration(ident, pipeline, pipeline_options)
        self.catalog._check_new(self.catalog._load(), ident, pipeline, path, vocab_join_max_len)
        with self._build(path, ident.dims, on_duplicate, expect_header,
                         on_malformed) as (tmp, report):
            self.catalog._write(lambda entries: self.catalog._add(
                entries, ident, pipeline, path, vocab_join_max_len, report.imported), built=tmp)
        return report

    def import_into(
        self,
        path: str | Path,
        ident: WecIdentifier | str,
        *,
        on_duplicate: str = "reject",
        expect_header: str = "auto",
        on_malformed: str = "fail",
    ) -> ImportReport:
        """Import into a registered WEC without records (the catalog half done separately).
        A WEC with records is refused before the build, and again in the one catalog step
        that moves the store into place and sets ``vocab_size``, against a concurrent import."""

        def without_records(current: CatalogEntry) -> CatalogEntry:
            if current.vocab_size:
                raise WecImportError(f"store {current.store_file} already contains records")
            return current

        entry = without_records(self.catalog.require(ident))
        with self._build(path, entry.dims, on_duplicate, expect_header,
                         on_malformed) as (tmp, report):
            self.catalog._update(
                entry.identifier,
                lambda current: replace(without_records(current), vocab_size=report.imported),
                built=tmp,
            )
        return report

    @contextmanager
    def _build(self, path, dims, on_duplicate, expect_header, on_malformed):
        """Yield (file, report) of ``path`` built in this thread's file under ``stores/``."""
        tmp = self.root / "stores" / f".import-{os.getpid()}-{threading.get_ident()}.tmp"
        tmp.unlink(missing_ok=True)  # left by a killed process that had this pid
        try:
            yield tmp, store_mod.import_from_file(path, tmp, dims, on_duplicate=on_duplicate,
                                                  expect_header=expect_header,
                                                  on_malformed=on_malformed)
        finally:
            tmp.unlink(missing_ok=True)

    # -- store access ------------------------------------------------------

    def _kept(self, path: Path, load):
        """``load(path)``, kept while the file's (device, inode, mtime, size) stays the same,
        or None while it is missing. An unchanged file is answered without the lock.
        A store handle this replaces is dropped, not closed: a thread that still holds it
        reads on from the file it opened, and it closes once nothing refers to it."""
        key = str(path)
        try:
            st = os.stat(key)
            identity = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
        except FileNotFoundError:
            identity = None
        kept = self._files.get(key)
        if kept is None or kept[0] != identity:
            with self._files_lock:
                old = self._files.get(key)
                if old is None or old[0] != identity:  # else another thread read it meanwhile
                    self._files[key] = (identity, None if identity is None else load(path))
                kept = self._files[key]
        return kept[1]

    def open_store(self, entry: CatalogEntry) -> WecStore | EmptyStore:
        """The entry's read-only store, cached until its file changes; writes nothing.
        A WEC registered but never imported has no store file and reads as empty.
        A store whose recorded vector width is not the entry's ``dims`` is refused."""
        path = self.catalog.store_path(entry)
        handle = self._kept(path, WecStore)
        if handle is None and entry.vocab_size:
            raise StoreError(f"store file {path} of {entry.normalized} is missing")
        if handle is not None and handle.dims != entry.dims:
            raise StoreError(f"store file {path} records {handle.dims}-d vectors,"
                             f" but {entry.normalized} has dims:{entry.dims}")
        return EmptyStore(entry.dims) if handle is None else handle

    def _store_of(self, ident: WecIdentifier | str) -> WecStore | EmptyStore:
        """The store of one registered WEC, as :meth:`open_store` gives it."""
        return self.open_store(self.catalog.require(ident))

    def get_vector(self, ident: WecIdentifier | str, word: str) -> np.ndarray | None:
        """Exact-match single lookup; absent words return None, never an error."""
        return self._store_of(ident).get(word)

    def get_vectors_batch(
        self, ident: WecIdentifier | str, words: list[str]
    ) -> tuple[list[tuple[str, np.ndarray]], list[str]]:
        """(found pairs, missing words): one pair per distinct found word,
        missing in first-occurrence order."""
        entry = self.catalog.require(ident)
        ((unit,),) = lookup_units(self, [entry], [words], raw=False, cache=None, in_order=False)
        return unit.pairs, unit.missing

    def contains(self, ident: WecIdentifier | str, word: str) -> bool:
        return self._store_of(ident).contains(word)

    def vocab_size(self, ident: WecIdentifier | str) -> int:
        return self._store_of(ident).count()

    def iterate_vocab(self, ident: WecIdentifier | str):
        return self._store_of(ident).iter_words()

    # -- preprocessing and phrases ------------------------------------------

    def join_phrases(self, entry: CatalogEntry, tokens: list[str]) -> list[str]:
        """Apply the WEC's configured level-2 joining, if any."""
        if entry.phrase_model_ref is not None:
            model = self._phrase_model(entry)
            return model.apply(tokens)
        if entry.vocab_join_max_len is not None:
            store = self.open_store(entry)
            return phrases_mod.apply_phrases_vocab(
                store.contains, tokens, max_len=entry.vocab_join_max_len
            )
        return tokens

    def _phrase_model(self, entry: CatalogEntry) -> PhraseModel:
        path = self.catalog.phrase_model_path(entry)
        model = self._kept(path, PhraseModel.load)
        if model is None:
            raise CatalogError(f"phrase model file {path} of {entry.normalized} is missing")
        return model

    def train_phrases(
        self,
        raw_lines,
        ident: WecIdentifier | str,
        *,
        discount: float = phrases_mod.DEFAULT_DISCOUNT,
        threshold: float = phrases_mod.DEFAULT_THRESHOLD,
        passes: int = phrases_mod.DEFAULT_PASSES,
    ) -> PhraseModel:
        """Tokenize raw lines with the WEC's bound pipeline, train a phrase
        model and attach it to the WEC in place of any earlier join."""
        entry = self.catalog.require(ident)
        corpus = (run_pipeline(entry.pipeline, line) for line in raw_lines)
        model = phrases_mod.train_phrase_model(
            corpus, discount=discount, threshold=threshold, passes=passes
        )
        self.catalog.set_phrase_model(entry.identifier, model)
        return model

    def delete(self, ident: WecIdentifier | str, force: bool = False) -> None:
        """Drop the WEC from the catalog, then the handle kept for its store
        (dropped, not closed, as in :meth:`_kept`)."""
        entry = self.catalog.delete(ident, force=force)
        with self._files_lock:
            self._files.pop(str(self.catalog.store_path(entry)), None)

    # -- retrieval -----------------------------------------------------------

    def get_vectors(
        self,
        query,
        cache: PreprocessCache | None = None,
        inputs=(),
        raw: bool = False,
        in_order: bool = False,
        as_tuple: bool = True,
    ) -> RetrievalResult:
        return _get_vectors(
            self, query, cache, inputs=inputs, raw=raw, in_order=in_order, as_tuple=as_tuple
        )

    def close(self) -> None:
        with self._files_lock:
            for _, kept in self._files.values():
                if isinstance(kept, WecStore):  # phrase models hold no file
                    kept.close()
            self._files.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
