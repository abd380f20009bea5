"""Registry of stored WECs: identifiers, metadata, pipeline bindings.

The catalog root directory is self-describing and copyable:

    <root>/catalog.manifest     one tab-separated record per WEC
    <root>/stores/*.wec         one vector store file per WEC
    <root>/phrases/*.phr        trained phrase models
    <root>/lists/<sha16>.txt    user stopword lists, named by content hash

Manifest format (stable; ``# wecdb catalog v1`` header): one line per WEC
with tab-separated columns

    identifier  dims  vocab_size  pipeline_hash  pipeline  phrases  store  created_at  source

where ``phrases`` is ``-`` (off), ``model:<file>`` or ``vocab:<max_len>``
(a WEC joins phrases by a model or by its vocabulary, never both), and
``pipeline`` is the descriptor's serialized form. Mutations take an
exclusive file lock, and every catalog file is replaced atomically, so
readers never observe a half-written manifest, list or phrase model.

Store file names are the normalized identifier with ``:`` replaced by ``=``
and ``;`` by ``.``; names that would be unsafe, over-long, or collide fall
back to a truncated form with a content-hash suffix. A WEC's phrase model
and CLI outputs are named after its store file, so they are unique too.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import CatalogError, DuplicateEntryError, UnknownWecError
from .identifier import WecIdentifier, parse_identifier
from .phrases import PhraseModel
from .pipeline import (
    BUILTIN_STOPWORDS,
    PipelineDescriptor,
    builtin_stopwords_text,
    parse_pipeline,
)

MANIFEST_NAME = "catalog.manifest"
MANIFEST_HEADER = "# wecdb catalog v1"
_SAFE_NAME_RE = re.compile(r"[A-Za-z0-9._=+-]+")
_MAX_PLAIN_NAME = 120


@dataclass(frozen=True)
class CatalogEntry:
    identifier: WecIdentifier
    vocab_size: int
    pipeline: PipelineDescriptor
    phrase_model_ref: str | None
    vocab_join_max_len: int | None
    store_file: str
    created_at: str
    source_file: str

    def __post_init__(self):
        if self.phrase_model_ref is not None and self.vocab_join_max_len is not None:
            raise CatalogError(
                f"{self.normalized}: a phrase model and a vocabulary join exclude each other"
            )

    @property
    def normalized(self) -> str:
        return self.identifier.normalized()

    @property
    def dims(self) -> int:
        return self.identifier.dims

    @property
    def pipeline_hash(self) -> str:
        return self.pipeline.hash

    @property
    def file_stem(self) -> str:
        """The store file name without ``.wec``: the base of every per-WEC name."""
        return self.store_file.removesuffix(".wec")

    def _phrases_field(self) -> str:
        if self.phrase_model_ref is not None:
            return f"model:{self.phrase_model_ref}"
        if self.vocab_join_max_len is not None:
            return f"vocab:{self.vocab_join_max_len}"
        return "-"


def store_filename(normalized: str, taken: set[str] | None = None) -> str:
    encoded = normalized.replace(":", "=").replace(";", ".")
    name = f"{encoded}.wec"
    if (
        _SAFE_NAME_RE.fullmatch(encoded)
        and len(name) <= _MAX_PLAIN_NAME
        and (taken is None or name not in taken)
    ):
        return name
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]
    safe = re.sub(r"[^A-Za-z0-9._=+-]", "_", encoded)[:80]
    return f"{safe}-{digest}.wec"


class Catalog:
    """One catalog root; reads are lock-free, mutations serialize on a lock file."""

    def __init__(self, root: str | Path, create_if_missing: bool = False):
        self.root = Path(root)
        if not self.root.is_dir():
            if not create_if_missing:
                raise CatalogError(f"catalog root {self.root} does not exist")
            self.root.mkdir(parents=True, exist_ok=True)
        for sub in ("stores", "phrases", "lists"):
            (self.root / sub).mkdir(exist_ok=True)
        self._manifest = self.root / MANIFEST_NAME
        if not self._manifest.exists():
            self._write_manifest({})
        self._mutex = threading.Lock()

    # -- persistence ------------------------------------------------------

    def _resolve_list(self, ref: str) -> str:
        if ref == BUILTIN_STOPWORDS:
            return builtin_stopwords_text()
        if ref.startswith("list:"):
            path = self.root / "lists" / f"{ref[5:]}.txt"
            if not path.exists():
                raise CatalogError(f"stopword list {ref!r} missing from catalog")
            return path.read_text("utf-8")
        raise CatalogError(f"unresolvable stopword list ref {ref!r}")

    def _load(self) -> dict[str, CatalogEntry]:
        entries: dict[str, CatalogEntry] = {}
        for lineno, raw in enumerate(self._manifest.read_text("utf-8").splitlines(), start=1):
            if not raw or raw.startswith("#"):
                continue
            where = f"{self._manifest}:{lineno}"
            cols = raw.split("\t")
            if len(cols) != 9:
                raise CatalogError(f"{where}: corrupt manifest line: {raw!r}")
            ident = parse_identifier(cols[0])
            if cols[1] != str(ident.dims):
                raise CatalogError(f"{where}: dims {cols[1]!r} contradicts dims:{ident.dims}")
            pipeline = parse_pipeline(cols[4], self._resolve_list)
            if pipeline.hash != cols[3]:
                raise CatalogError(
                    f"pipeline hash mismatch for {cols[0]!r}: manifest has {cols[3]},"
                    f" recomputed {pipeline.hash}"
                )
            model_ref, vocab_len = None, None
            if cols[5].startswith("model:"):
                model_ref = cols[5][6:]
            elif cols[5].startswith("vocab:"):
                vocab_len = _manifest_int(cols[5][6:], "vocab join length", where)
            elif cols[5] != "-":
                raise CatalogError(f"{where}: corrupt phrases field {cols[5]!r}")
            entries[cols[0]] = CatalogEntry(
                identifier=ident,
                vocab_size=_manifest_int(cols[2], "vocab_size", where),
                pipeline=pipeline,
                phrase_model_ref=model_ref,
                vocab_join_max_len=vocab_len,
                store_file=cols[6],
                created_at=cols[7],
                source_file=cols[8],
            )
        return entries

    def _write_manifest(self, entries: dict[str, CatalogEntry]) -> None:
        lines = [MANIFEST_HEADER]
        lines.append(
            "# identifier\tdims\tvocab_size\tpipeline_hash\tpipeline\tphrases"
            "\tstore\tcreated_at\tsource"
        )
        for norm in sorted(entries):
            e = entries[norm]
            lines.append(
                "\t".join(
                    (
                        norm,
                        str(e.dims),
                        str(e.vocab_size),
                        e.pipeline_hash,
                        e.pipeline.serialize(),
                        e._phrases_field(),
                        e.store_file,
                        e.created_at,
                        e.source_file,
                    )
                )
            )
        _write_atomic(self._manifest, "\n".join(lines) + "\n")

    @contextmanager
    def _locked(self):
        """Exclusive cross-process lock (flock) plus in-process mutex."""
        with self._mutex, open(self.root / "catalog.lock", "a+") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- queries ----------------------------------------------------------

    def lookup(self, ident: WecIdentifier | str) -> CatalogEntry | None:
        """Entry for the identifier, or None. Not-found is not an error."""
        norm = _normalize_arg(ident)
        return self._load().get(norm)

    def require(self, ident: WecIdentifier | str) -> CatalogEntry:
        entry = self.lookup(ident)
        if entry is None:
            raise UnknownWecError(f"no WEC registered as {_normalize_arg(ident)!r}")
        return entry

    def list_entries(self, attr_filter: dict[str, str] | None = None) -> list[CatalogEntry]:
        """Entries whose identifier contains every filter pair, by normalized string."""
        entries = self._load()
        out = []
        for norm in sorted(entries):
            entry = entries[norm]
            if attr_filter is None or entry.identifier.matches(attr_filter):
                out.append(entry)
        return out

    def store_path(self, entry: CatalogEntry) -> Path:
        return self.root / "stores" / entry.store_file

    def phrase_model_path(self, entry: CatalogEntry) -> Path | None:
        if entry.phrase_model_ref is None:
            return None
        return self.root / "phrases" / entry.phrase_model_ref

    # -- mutations --------------------------------------------------------

    def register(
        self,
        ident: WecIdentifier,
        pipeline: PipelineDescriptor,
        phrase_model: PhraseModel | None = None,
        source: str | Path = "",
        vocab_join_max_len: int | None = None,
    ) -> CatalogEntry:
        """Create the entry for a new WEC; the store starts empty.

        The pipeline must agree with the identifier's metadata: case folding
        on iff ``fold:1``, stemming on iff ``unit:stem``. User stopword
        lists referenced by the pipeline are copied under the catalog root
        so the directory stays self-contained. At most one of
        ``phrase_model`` and ``vocab_join_max_len`` may be given.
        """
        if pipeline.case_fold_enabled != (ident.fold == 1):
            raise CatalogError(
                f"pipeline case_fold={'on' if pipeline.case_fold_enabled else 'off'}"
                f" contradicts fold:{ident.fold}"
            )
        if pipeline.stem_enabled != (ident.unit == "stem"):
            raise CatalogError(
                f"pipeline stem={'on' if pipeline.stem_enabled else 'off'}"
                f" contradicts unit:{ident.unit}"
            )
        if vocab_join_max_len is not None and vocab_join_max_len < 2:
            raise CatalogError("vocab_join_max_len must be >= 2")
        source = str(source)
        if "\t" in source or "\n" in source:
            raise CatalogError("source path may not contain tabs or newlines")
        norm = ident.normalized()
        with self._locked():
            entries = self._load()
            if norm in entries:
                raise DuplicateEntryError(
                    f"identifier {norm!r} already registered"
                    f" (store {entries[norm].store_file})"
                )
            entry = CatalogEntry(
                identifier=ident,
                vocab_size=0,
                pipeline=pipeline,
                phrase_model_ref=None,
                vocab_join_max_len=vocab_join_max_len,
                store_file=store_filename(norm, {e.store_file for e in entries.values()}),
                created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
                source_file=source,
            )
            if phrase_model is not None:
                # the entry refuses a model with a vocabulary join before the file is written
                entry = self._attach_model(entry, phrase_model)
            for ref, content in pipeline.resources:
                if ref.startswith("list:"):
                    list_path = self.root / "lists" / f"{ref[5:]}.txt"
                    if not list_path.exists():
                        _write_atomic(list_path, content)
            entries[norm] = entry
            self._write_manifest(entries)
        return entry

    def set_vocab_size(self, ident: WecIdentifier | str, vocab_size: int) -> CatalogEntry:
        return self._update(ident, lambda entry: replace(entry, vocab_size=vocab_size))

    def set_phrase_model(self, ident: WecIdentifier | str, model: PhraseModel) -> CatalogEntry:
        return self._update(
            ident, lambda entry: self._attach_model(replace(entry, vocab_join_max_len=None), model)
        )

    def _attach_model(self, entry: CatalogEntry, model: PhraseModel) -> CatalogEntry:
        """``entry`` joining by ``model``, saved as ``phrases/<store file stem>.phr``."""
        entry = replace(entry, phrase_model_ref=f"{entry.file_stem}.phr")
        _write_atomic(self.phrase_model_path(entry), model.save)
        return entry

    def _update(
        self, ident: WecIdentifier | str, change: Callable[[CatalogEntry], CatalogEntry]
    ) -> CatalogEntry:
        """Rewrite a registered entry as ``change(entry)``, under the lock;
        ``change`` may write the entry's own files before the manifest is."""
        norm = _normalize_arg(ident)
        with self._locked():
            entries = self._load()
            if norm not in entries:
                raise UnknownWecError(f"no WEC registered as {norm!r}")
            entry = entries[norm] = change(entries[norm])
            self._write_manifest(entries)
        return entry

    def delete(self, ident: WecIdentifier | str, force: bool = False) -> None:
        """Remove an entry and its store file. Requires ``force=True``:
        identifiers are stable citations and should rarely disappear."""
        if not force:
            raise CatalogError("deletion requires force=True")
        norm = _normalize_arg(ident)
        with self._locked():
            entries = self._load()
            entry = entries.pop(norm, None)
            if entry is None:
                raise UnknownWecError(f"no WEC registered as {norm!r}")
            self._write_manifest(entries)
            self.store_path(entry).unlink(missing_ok=True)
            # manifests written before models were named by store file may
            # share one model between entries
            refs = {e.phrase_model_ref for e in entries.values()}
            if entry.phrase_model_ref is not None and entry.phrase_model_ref not in refs:
                self.phrase_model_path(entry).unlink(missing_ok=True)


def _manifest_int(text: str, name: str, where: str) -> int:
    if not re.fullmatch(r"[0-9]+", text):
        raise CatalogError(f"{where}: {name} {text!r} is not a non-negative integer")
    return int(text)


def _normalize_arg(ident: WecIdentifier | str) -> str:
    if isinstance(ident, WecIdentifier):
        return ident.normalized()
    return parse_identifier(ident).normalized()


def _write_atomic(path: Path, content: str | Callable[[Path], object]) -> None:
    """Write ``content`` (text, or a function that writes a given path) to a
    temp file beside ``path``, then move it over ``path`` with ``os.replace``:
    readers see the old file or the whole new one, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        if isinstance(content, str):
            tmp.write_text(content, encoding="utf-8")
        else:
            content(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
