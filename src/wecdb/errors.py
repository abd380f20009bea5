"""Exception hierarchy, the one UTF-8 file reader that raises into it (and
its form for user input files), the one line splitter for the text it reads,
and the one check for text that UTF-8 cannot encode.

Everything raised on purpose by this package derives from :class:`WecdbError`,
so callers (and the CLI) can catch one type. Parsing and validation problems
are ``ValueError`` subclasses as well, which keeps them idiomatic for library
users who never import this module.
"""

from __future__ import annotations

import re
from pathlib import Path

_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class WecdbError(Exception):
    """Base class for all errors raised by wecdb."""


class IdentifierError(WecdbError, ValueError):
    """Malformed identifier or query string, or an invalid attribute value."""


class CatalogError(WecdbError):
    """Catalog-level failure (registration, persistence, deletion)."""


class DuplicateEntryError(CatalogError):
    """A WEC with the same normalized identifier is already registered."""


class UnknownWecError(CatalogError):
    """An operation referenced an identifier with no catalog entry."""


class StoreError(WecdbError):
    """Vector store failure outside of import."""


class WecImportError(WecdbError):
    """Import of a plain-text WEC file failed; the store is left unchanged."""


class DuplicateWordError(WecImportError):
    """Same word appears twice in the input under the ``reject`` policy."""

    def __init__(self, word: str, line: int):
        super().__init__(f"duplicate word {word!r} at line {line}")
        self.word = word
        self.line = line


class MalformedLineError(WecImportError):
    """A data line could not be parsed (field count, float syntax, blank)."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class HeaderError(WecImportError):
    """Header line missing, malformed, or inconsistent with the catalog."""


class PipelineError(WecdbError):
    """Invalid pipeline description or a stage failed at run time."""


class ExternalStageError(PipelineError):
    """The external preprocessing command failed or broke protocol."""


class EmptyCorpusError(WecdbError):
    """Phrase training was given a corpus with no tokens."""


class AnalysisError(WecdbError):
    """Invalid input to a similarity/ranking computation."""


class UndefinedDistanceError(AnalysisError):
    """Distance is undefined for the given vectors (e.g. zero norm)."""


def read_text(path: str | Path, error: type[WecdbError] = WecdbError) -> str:
    """The UTF-8 text of a file; ``error`` naming the file when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_input_text(path: str | Path, error: type[WecdbError] = WecdbError) -> str:
    """:func:`read_text` of a file a user hands in, without one leading
    byte-order mark; files that wecdb writes itself are read byte for byte."""
    return read_text(path, error).removeprefix("\ufeff")


def first_surrogate(text: str) -> str | None:
    """The first lone surrogate in ``text``, which UTF-8 cannot encode, or None.

    A byte that is not UTF-8 reaches Python as one such character (U+DC80 to
    U+DCFF) in a POSIX path or command-line argument, and in a file read with
    ``errors="surrogateescape"``; the text holding it is not UTF-8 text.
    """
    if text.isascii():
        return None
    found = _SURROGATE_RE.search(text)
    return found and found[0]


def text_lines(text: str) -> list[str]:
    """The lines of text read with universal newlines: split at ``\\n`` alone,
    never at the other characters :meth:`str.splitlines` ends a line at
    (``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028, U+2029),
    and without the empty piece after a final newline."""
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines
