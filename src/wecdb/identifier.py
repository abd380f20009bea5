"""Identifier grammar for word embedding collections.

A WEC is named by ``key:value`` attributes. Five system keys are mandatory
(``algo``, ``dataset``, ``dims``, ``unit``, ``fold``); any number of
user-defined keys may be added. The grammar, exactly:

    query := spec ("&" spec)*
    spec  := pair (";" pair)*
    pair  := key ":" (value | "{" value ("," value)* "}")

Whitespace around structural characters is trimmed, so queries may be split
over several (continuation) lines. Keys are lowercase ASCII identifiers.
Values are taken verbatim (case-sensitive) and must be UTF-8 text without
structural characters or whitespace. A brace set expands a spec into the
Cartesian product of its values; with several brace sets the leftmost one
varies slowest. ``&`` concatenates independent specs in the supplied order. A
filter (:func:`parse_filter`) is one spec without brace sets that may leave
out any key.

Two identifiers are equal iff their normalized strings (keys sorted
lexicographically) are byte-equal.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .errors import IdentifierError, first_surrogate

SYSTEM_KEYS = ("algo", "dataset", "dims", "fold", "unit")

_KEY_RE = re.compile(r"[a-z][a-z0-9_]*")
_RESERVED = frozenset(";:&{},")


def _validate_key(key: str) -> None:
    if not key:
        raise IdentifierError("empty attribute key")
    if not _KEY_RE.fullmatch(key):
        raise IdentifierError(
            f"invalid key {key!r}: keys are lowercase ASCII ([a-z][a-z0-9_]*)"
        )


def _validate_value(key: str, value: str) -> None:
    if not value:
        raise IdentifierError(f"empty value for key {key!r}")
    if first_surrogate(value):
        raise IdentifierError(f"value for key {key!r} is not UTF-8 text")
    for ch in value:
        if ch in _RESERVED:
            raise IdentifierError(f"reserved character {ch!r} in value for key {key!r}")
        if ch.isspace():
            raise IdentifierError(f"whitespace in value for key {key!r}")


@dataclass(frozen=True)
class WecIdentifier:
    """Validated, order-independent attribute map naming one WEC.

    ``attributes`` is stored sorted by key, so structural equality and
    hashing coincide with normalized-string equality. The normalized string
    and the integer width are worked out once, at construction, and kept as
    plain attributes, not fields: equality, hashing and ``repr`` see only
    ``attributes``.
    """

    attributes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        attrs = dict(self.attributes)
        if len(attrs) != len(self.attributes):
            raise IdentifierError("duplicate key in identifier attributes")
        object.__setattr__(self, "attributes", tuple(sorted(attrs.items())))
        for key, value in self.attributes:
            _validate_key(key)
            _validate_value(key, value)
        for key in SYSTEM_KEYS:
            if key not in attrs:
                raise IdentifierError(f"missing system key {key!r}")
        dims = attrs["dims"]
        if not (dims.isascii() and dims.isdigit()) or int(dims) <= 0:
            raise IdentifierError(f"invalid 'dims' value {dims!r}: not a positive integer")
        if attrs["fold"] not in ("0", "1"):
            raise IdentifierError(f"invalid 'fold' value {attrs['fold']!r}: must be 0 or 1")
        object.__setattr__(self, "_normalized",
                           ";".join(f"{k}:{v}" for k, v in self.attributes))
        object.__setattr__(self, "_dims", int(dims))

    @classmethod
    def from_attributes(cls, attributes: dict[str, str]) -> "WecIdentifier":
        return cls(tuple(attributes.items()))

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.attributes:
            if k == key:
                return v
        return default

    def __getitem__(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def fold(self) -> int:
        return int(self["fold"])

    @property
    def unit(self) -> str:
        return self["unit"]

    def normalized(self) -> str:
        """Normalized string form: ``key:value`` pairs joined by ``;``, keys sorted."""
        return self._normalized

    def matches(self, partial: dict[str, str]) -> bool:
        """True when this identifier contains every ``key:value`` of ``partial``."""
        return all(self.get(k) == v for k, v in partial.items())

    def __str__(self) -> str:
        return self._normalized


@dataclass(frozen=True)
class WecQuery:
    """A parsed grid query: the atomic identifiers it expands to, in order."""

    expanded: tuple[WecIdentifier, ...]

    def __len__(self) -> int:
        return len(self.expanded)

    def __iter__(self):
        return iter(self.expanded)


def _split_pair(pair_text: str) -> tuple[str, list[str], bool]:
    """Split one ``key:value`` or ``key:{v1,...,vn}`` into (key, values, braced),
    checking only its shape and braces: :class:`WecIdentifier` checks keys and values."""
    head, sep, tail = pair_text.partition(":")
    if not sep:
        raise IdentifierError(f"malformed pair {pair_text!r}: expected 'key:value'")
    key = head.strip()
    rest = tail.strip()
    if rest.startswith("{"):
        if not rest.endswith("}"):
            raise IdentifierError(f"unterminated brace set in pair for key {key!r}")
        inner = rest[1:-1]
        if "{" in inner or "}" in inner:
            raise IdentifierError(f"nested braces in pair for key {key!r}")
        values = [v.strip() for v in inner.split(",")]
        if values == [""]:
            raise IdentifierError(f"empty brace set for key {key!r}")
        return key, values, True
    if "{" in rest or "}" in rest:
        raise IdentifierError(f"stray brace in value for key {key!r}")
    return key, [rest], False


def _parse_spec(spec_text: str) -> list[tuple[str, list[str], bool]]:
    """Split a spec into (key, candidate values, braced) triples, in supplied order."""
    if not spec_text.strip():
        raise IdentifierError("empty spec")
    pairs: list[tuple[str, list[str], bool]] = []
    seen: set[str] = set()
    for chunk in spec_text.split(";"):
        key, values, braced = _split_pair(chunk.strip())
        if key in seen:
            raise IdentifierError(f"duplicate key {key!r}")
        seen.add(key)
        pairs.append((key, values, braced))
    return pairs


@functools.lru_cache(maxsize=1024)
def parse_identifier(text: str) -> WecIdentifier:
    """Parse one atomic identifier string (no brace sets, no ``&``).

    Attribute order in ``text`` is irrelevant; user-defined keys beyond the
    five system keys are preserved. Raises :class:`IdentifierError` naming
    the offending key on any violation. The result is a pure function of
    ``text``, so the last 1,024 distinct strings keep theirs (a
    :class:`WecIdentifier` is immutable); a string that fails is parsed, and
    fails, on every call.
    """
    if "&" in text:
        raise IdentifierError("'&' not allowed in an atomic identifier")
    if not text.strip():
        raise IdentifierError("empty identifier")
    return WecIdentifier(_plain_pairs(text, "an atomic identifier"))


def as_identifier(ident: WecIdentifier | str) -> WecIdentifier:
    """``ident`` itself, or the identifier the string ``ident`` parses to."""
    return ident if isinstance(ident, WecIdentifier) else parse_identifier(ident)


def parse_filter(text: str) -> dict[str, str]:
    """Parse a partial spec (``key:value`` pairs, no brace sets, any subset of
    keys) into a filter for :meth:`WecIdentifier.matches`; keys and values
    are checked as an identifier's are."""
    pairs = _plain_pairs(text, "a filter")
    for key, value in pairs:
        _validate_key(key)
        _validate_value(key, value)
    return dict(pairs)


def _plain_pairs(text: str, what: str) -> tuple[tuple[str, str], ...]:
    """The (key, value) pairs of a spec that ``what`` names, refusing brace sets."""
    pairs = _parse_spec(text)
    if braced := [key for key, _, is_set in pairs if is_set]:
        raise IdentifierError(f"brace set not allowed in {what} (key {braced[0]!r})")
    return tuple((key, values[0]) for key, values, _ in pairs)


def parse_query(text: str) -> WecQuery:
    """Parse a grid query into its atomic identifiers, in expansion order.

    Each spec expands to the Cartesian product of its brace sets: values of
    one set in supplied order, the leftmost set varying slowest. Expanded
    identifiers must be pairwise distinct across the whole query.
    """
    specs = [s.strip() for s in text.split("&")]
    if any(not s for s in specs):
        raise IdentifierError("empty spec in query")
    expanded: list[WecIdentifier] = []
    seen: set[str] = set()
    for spec_text in specs:
        pairs = _parse_spec(spec_text)
        keys = [k for k, _, _ in pairs]
        for combo in itertools.product(*(vs for _, vs, _ in pairs)):
            ident = WecIdentifier(tuple(zip(keys, combo)))
            norm = ident.normalized()
            if norm in seen:
                raise IdentifierError(f"duplicate expanded identifier {norm!r}")
            seen.add(norm)
            expanded.append(ident)
    return WecQuery(tuple(expanded))
