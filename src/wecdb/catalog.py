"""Registry of stored WECs: identifiers, metadata, pipeline bindings.

The catalog root directory is self-describing and copyable:

    <root>/catalog.manifest     one tab-separated record per WEC
    <root>/stores/*.wec         one vector store file per WEC
    <root>/phrases/*.phr        trained phrase models
    <root>/lists/<sha16>.txt    user stopword lists, named by content hash

Manifest format (stable; its first line is the ``# wecdb catalog v1``
header, and a manifest with any other first line is refused): one line per
WEC with tab-separated columns

    identifier  dims  vocab_size  pipeline_hash  pipeline  phrases  store  created_at  source

where ``phrases`` is ``-`` (off), ``model:<file>`` or ``vocab:<max_len>``
(a WEC joins phrases by a model or by its vocabulary, never both), and
``pipeline`` is the descriptor's serialized form. Each entry change takes an
exclusive file lock and writes the entry's files first (phrase model, list
copies, store) and the manifest last: a file the entry names anew is removed
when that write fails, and an unchanged entry writes no manifest. Every file
is replaced atomically, so readers never observe a half-written manifest,
list or phrase model.

Store file names are the normalized identifier with ``:`` replaced by ``=``
and ``;`` by ``.``; names that would be unsafe, over-long, or collide fall
back to a truncated form with a content-hash suffix. A WEC's phrase model
and CLI outputs are named after its store file, so they are unique too.
"""

from __future__ import annotations

import fcntl
import hashlib
import operator
import os
import re
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    CatalogError, DuplicateEntryError, UnknownWecError, WecdbError, first_surrogate, read_text,
    text_lines,
)
from .identifier import WecIdentifier, as_identifier, parse_identifier
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
        self._keep_int("vocab_size", 0)
        if self.vocab_join_max_len is not None:
            self._keep_int("vocab_join_max_len", 2)

    def _keep_int(self, name: str, least: int) -> None:
        """Hold field ``name`` as a plain int of at least ``least``, the form
        the manifest reader takes back; :class:`CatalogError` otherwise."""
        value = getattr(self, name)
        try:
            number = operator.index(value)
        except TypeError:
            number = None
        if number is None or isinstance(value, bool):
            raise CatalogError(f"{self.normalized}: {name} must be an integer, not {value!r}")
        if number < least:
            raise CatalogError(f"{self.normalized}: {name} must be >= {least}")
        object.__setattr__(self, name, number)

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
        self._manifest = self.root / MANIFEST_NAME
        self._mutex = threading.Lock()
        # (manifest text, ((list ref, list text), ...), entries) of the last
        # successful parse, which is a pure function of those texts
        self._parsed: tuple | None = None
        if not self._manifest.exists():
            if not create_if_missing:
                raise CatalogError(f"no wecdb catalog at {self.root}: {MANIFEST_NAME} is missing")
            for sub in ("stores", "phrases", "lists"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
            with self._locked():
                # another process may have made the catalog, and registered
                # into it, since the check above
                if not self._manifest.exists():
                    self._write_manifest({})

    # -- persistence ------------------------------------------------------

    def _resolve_list(self, ref: str) -> str:
        if ref == BUILTIN_STOPWORDS:
            return builtin_stopwords_text()
        if ref.startswith("list:"):
            return _read_text(self._list_path(ref), f"stopword list {ref!r} missing from catalog")
        raise CatalogError(f"unresolvable stopword list ref {ref!r}")

    def _list_path(self, ref: str) -> Path:  # ref is list:<sha16>
        return self.root / "lists" / f"{ref[5:]}.txt"

    def _load(self) -> dict[str, CatalogEntry]:
        """The registered entries, in a dict the caller may change.

        The manifest and every stopword list it names are read on every
        call; the records are parsed and checked again only when one of
        those texts differs from the last successful parse.
        """
        text = _read_text(self._manifest,
                          f"no wecdb catalog at {self.root}: {MANIFEST_NAME} is missing")
        resolve = self._resolve_list
        parsed = self._parsed
        if parsed is not None and parsed[0] == text:
            try:
                if all(resolve(ref) == list_text for ref, list_text in parsed[1]):
                    return dict(parsed[2])
            except CatalogError:
                pass  # a list that cannot be read: the full parse names its line
        lines = text_lines(text)
        if not lines or lines[0] != MANIFEST_HEADER:
            raise CatalogError(f"{self._manifest}: first line {lines[0] if lines else ''!r}"
                               f" is not the header {MANIFEST_HEADER!r}")
        entries: dict[str, CatalogEntry] = {}
        stores: set[str] = set()
        for lineno, raw in enumerate(lines):
            if not raw or raw[0] == "#":
                continue
            # IdentifierError, PipelineError, or CatalogError for a missing
            # stopword list, a rule of the entry's own or a check below: each
            # gets the line's place here, and only when one is raised
            try:
                cols = raw.split("\t")
                if len(cols) != 9:
                    raise CatalogError(f"corrupt manifest line: {raw!r}")
                (norm, dims, vocab_size, pipeline_hash, pipeline, phrases, store, created_at,
                 source) = cols
                model_ref = vocab_len = None
                if phrases.startswith("model:"):
                    model_ref = _plain_name(phrases[6:], "phrase model")
                elif phrases.startswith("vocab:"):
                    vocab_len = _manifest_int(phrases[6:], "vocab join length")
                elif phrases != "-":
                    raise CatalogError(f"corrupt phrases field {phrases!r}")
                vocab_size = _manifest_int(vocab_size, "vocab_size")
                _plain_name(store, "store")
                entry = CatalogEntry(
                    identifier=parse_identifier(norm),
                    vocab_size=vocab_size,
                    pipeline=parse_pipeline(pipeline, resolve),
                    phrase_model_ref=model_ref,
                    vocab_join_max_len=vocab_len,
                    store_file=store,
                    created_at=created_at,
                    source_file=source,
                )
                if entry.normalized != norm:
                    raise CatalogError(f"identifier {norm!r} is not in its normalized"
                                       f" form {entry.normalized!r}")
                if norm in entries:
                    raise CatalogError(f"identifier {norm!r} is on an earlier line too")
                if store in stores:
                    raise CatalogError(f"store {store!r} belongs to an earlier record")
                if dims != str(entry.dims):
                    raise CatalogError(f"dims {dims!r} contradicts dims:{entry.dims}")
                if entry.pipeline_hash != pipeline_hash:
                    raise CatalogError(
                        f"pipeline hash mismatch for {norm!r}: manifest has {pipeline_hash},"
                        f" recomputed {entry.pipeline_hash}"
                    )
            except WecdbError as exc:
                raise CatalogError(f"{self._manifest}:{lineno + 1}: {exc}") from exc
            entries[norm] = entry
            stores.add(store)
        lists = {pair for entry in entries.values() for pair in entry.pipeline.resources}
        self._parsed = (text, tuple(lists), entries)
        return dict(entries)

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
        norm = as_identifier(ident).normalized()
        return self._load().get(norm)

    def require(self, ident: WecIdentifier | str) -> CatalogEntry:
        (entry,) = self.require_all((ident,))
        return entry

    def require_all(self, idents) -> list[CatalogEntry]:
        """The entry of each identifier, in order, all from one read of the
        manifest; raises :class:`UnknownWecError` for the first unregistered one."""
        norms = [as_identifier(ident).normalized() for ident in idents]
        entries = self._load()
        return [_registered(entries, norm) for norm in norms]

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
        return self.root.joinpath("stores", entry.store_file)  # one join: read on every lookup

    def phrase_model_path(self, entry: CatalogEntry) -> Path:
        """The model file of an entry that has a ``phrase_model_ref``."""
        return self.root.joinpath("phrases", entry.phrase_model_ref)

    # -- mutations --------------------------------------------------------

    def register(
        self,
        ident: WecIdentifier,
        pipeline: PipelineDescriptor,
        phrase_model: PhraseModel | None = None,
        source: str | Path = "",
        vocab_join_max_len: int | None = None,
    ) -> CatalogEntry:
        """Create the entry for a new WEC, with no store file: it reads as empty until an import.

        The pipeline must agree with the identifier's metadata: case folding
        on iff ``fold:1``, stemming on iff ``unit:stem``. User stopword
        lists referenced by the pipeline are copied under the catalog root
        so the directory stays self-contained. At most one of
        ``phrase_model`` and ``vocab_join_max_len`` may be given.
        """
        return self._write(lambda entries: self._add(entries, ident, pipeline, source,
                                                     vocab_join_max_len, model=phrase_model))

    def _check_new(self, entries, ident, pipeline, source, vocab_join_max_len, vocab_size=0):
        """Raise what :meth:`register` would raise against ``entries``; else the new entry."""
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
        # a manifest read with universal newlines ends a line at "\r" too
        if any(c in str(source) for c in "\t\n\r"):
            raise CatalogError("source path may not contain tabs or newlines (\\t, \\n or \\r)")
        if first_surrogate(str(source)):  # the manifest is UTF-8 text
            raise CatalogError("source path is not UTF-8 text")
        norm = ident.normalized()
        if norm in entries:
            raise DuplicateEntryError(f"identifier {norm!r} already registered"
                                      f" (store {entries[norm].store_file})")
        return CatalogEntry(
            identifier=ident,
            vocab_size=vocab_size,
            pipeline=pipeline,
            phrase_model_ref=None,
            vocab_join_max_len=vocab_join_max_len,
            store_file=store_filename(norm, {e.store_file for e in entries.values()}),
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            source_file=str(source),
        )

    def _add(self, entries, ident, pipeline, source, vocab_join_max_len, vocab_size=0, model=None):
        """The :meth:`_write` change of a registration: the entry :meth:`_check_new`
        makes, after saving ``model`` and copying the pipeline's stopword lists."""
        entry = self._check_new(entries, ident, pipeline, source, vocab_join_max_len, vocab_size)
        if model is not None:
            # the entry refuses a model with a vocabulary join before the file is written
            entry = self._attach_model(entry, model)
        for ref, content in pipeline.resources:
            if ref.startswith("list:") and not (path := self._list_path(ref)).exists():
                _write_atomic(path, content)
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
        self, ident: WecIdentifier | str, change: Callable[[CatalogEntry], CatalogEntry],
        built: Path | None = None,
    ) -> CatalogEntry:
        """Rewrite a registered entry as ``change(entry)`` in one :meth:`_write`."""
        norm = as_identifier(ident).normalized()
        return self._write(lambda entries: change(_registered(entries, norm)), built)

    def _write(self, change: Callable[[dict[str, CatalogEntry]], CatalogEntry],
               built: Path | None = None) -> CatalogEntry:
        """Under the lock, ``change(entries)`` returns the new or changed entry, after
        writing its own files (model, list copies); the store file ``built``, if given,
        is moved to its store path; the manifest is written last, if the entry changed.
        A failed manifest write removes that store, and a model file no entry named."""
        with self._locked():
            entries = self._load()
            entry = change(entries)
            if built is not None:
                os.replace(built, self.store_path(entry))
            if entry != entries.get(entry.normalized):
                try:
                    self._write_manifest({**entries, entry.normalized: entry})
                except BaseException:
                    if built is not None:
                        self.store_path(entry).unlink(missing_ok=True)
                    ref = entry.phrase_model_ref
                    if ref and ref not in {e.phrase_model_ref for e in entries.values()}:
                        self.phrase_model_path(entry).unlink(missing_ok=True)
                    raise
        return entry

    def delete(self, ident: WecIdentifier | str, force: bool = False) -> CatalogEntry:
        """Remove an entry and its store file. Requires ``force=True``:
        identifiers are stable citations and should rarely disappear."""
        if not force:
            raise CatalogError("deletion requires force=True")
        norm = as_identifier(ident).normalized()
        with self._locked():
            entries = self._load()
            entry = _registered(entries, norm)
            del entries[norm]
            self._write_manifest(entries)
            self.store_path(entry).unlink(missing_ok=True)
            # manifests written before models were named by store file may
            # share one model between entries
            refs = {e.phrase_model_ref for e in entries.values()}
            if entry.phrase_model_ref is not None and entry.phrase_model_ref not in refs:
                self.phrase_model_path(entry).unlink(missing_ok=True)
        return entry


def _read_text(path: Path, missing: str) -> str:
    """The UTF-8 text of a catalog file; :class:`CatalogError` with ``missing``
    when there is no such file, or naming the file when it is not UTF-8."""
    try:
        return read_text(path, CatalogError)
    except FileNotFoundError:
        raise CatalogError(missing) from None


def _manifest_int(text: str, name: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise CatalogError(f"{name} {text!r} is not a non-negative integer")
    return int(text)


def _plain_name(text: str, name: str) -> str:
    """``text`` if it names a file in its directory, not a path elsewhere."""
    if text in ("", ".", "..") or "/" in text or "\0" in text:
        raise CatalogError(f"{name} {text!r} is not a plain file name")
    return text


def _registered(entries: dict[str, CatalogEntry], norm: str) -> CatalogEntry:
    """The entry registered as ``norm``; :class:`UnknownWecError` when there is none."""
    try:
        return entries[norm]
    except KeyError:
        raise UnknownWecError(f"no WEC registered as {norm!r}") from None


def _write_atomic(path: Path, content: str | Callable[[Path], object]) -> None:
    """Write ``content`` (text, or a function that writes a given path) to a
    temp file beside ``path``, sync it, then move it over ``path`` with
    ``os.replace``: readers and crashes see the old file or the whole new one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        if isinstance(content, str):
            tmp.write_text(content, encoding="utf-8")
        else:
            content(tmp)
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
