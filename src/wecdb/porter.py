"""Porter stemmer.

Implements the classic suffix-stripping algorithm (the original 1980 rule
tables, not the later "Porter2"/Snowball revision). Within each step the
longest matching suffix is selected; if its condition fails, the step does
nothing. Words of length one or two are returned unchanged, and only
lowercase ASCII words are stemmed (input is lowercased first; tokens with
non-alphabetic characters should not be passed here).

:func:`stem` is a pure function of its argument, so its answers are kept in
a bounded, process-wide least-recently-used memo of ``_STEM_MEMO_SIZE``
words (``stem.cache_info()`` reports its use): a repeated word costs one
dictionary lookup, and the results are those of the rules themselves
(``stem.__wrapped__``). The rule tables are built once, at import.
"""

from __future__ import annotations

import functools

_VOWELS = frozenset("aeiou")
# a full memo holds about 12.5 MiB: ~200 bytes per word of 3-15 letters, key and stem included
_STEM_MEMO_SIZE = 1 << 16


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the [C](VC)^m[V] decomposition of ``stem``."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _longest_rule(word: str, rules: list[tuple[str, str]]) -> tuple[str, str] | None:
    best = None
    for suffix, repl in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl)
    return best


_STEP1A_RULES = [("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")]
_STEP1B_RULES = [("at", "ate"), ("bl", "ble"), ("iz", "ize")]


def _step1a(word: str) -> str:
    rule = _longest_rule(word, _STEP1A_RULES)
    if rule:
        return word[: len(word) - len(rule[0])] + rule[1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        base = word[:-3]
        return base + "ee" if _measure(base) > 0 else word
    stripped = None
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            base = word[: len(word) - len(suffix)]
            if _has_vowel(base):
                stripped = base
            break
    if stripped is None:
        return word
    rule = _longest_rule(stripped, _STEP1B_RULES)
    if rule:
        return stripped[: len(stripped) - len(rule[0])] + rule[1]
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_RULES = [
    (suffix, "")
    for suffix in (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
]


def _step2(word: str) -> str:
    rule = _longest_rule(word, _STEP2_RULES)
    if rule and _measure(word[: len(word) - len(rule[0])]) > 0:
        return word[: len(word) - len(rule[0])] + rule[1]
    return word


def _step3(word: str) -> str:
    rule = _longest_rule(word, _STEP3_RULES)
    if rule and _measure(word[: len(word) - len(rule[0])]) > 0:
        return word[: len(word) - len(rule[0])] + rule[1]
    return word


def _step4(word: str) -> str:
    rule = _longest_rule(word, _STEP4_RULES)
    if rule is None:
        return word
    stem = word[: len(word) - len(rule[0])]
    if _measure(stem) <= 1:
        return word
    if rule[0] == "ion" and (not stem or stem[-1] not in "st"):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


_STEPS = (_step1a, _step1b, _step1c, _step2, _step3, _step4, _step5a, _step5b)


@functools.lru_cache(maxsize=_STEM_MEMO_SIZE)
def stem(word: str) -> str:
    """Return the Porter stem of ``word``, from the memo when it was asked before."""
    word = word.lower()
    if len(word) <= 2:
        return word
    for step in _STEPS:
        word = step(word)
    return word
