"""The bounded memo on porter.stem: the same answers as the rules, before and
after eviction, from any number of threads."""

import string
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from wecdb import porter

SUFFIXES = ["", "s", "ies", "ing", "ed", "eed", "ational", "ness", "ement", "ion", "ful", "ly"]


def _distinct_words(count: int) -> list[str]:
    """``count`` distinct mixed-case words: a 4-letter base-52 prefix, then a suffix."""
    letters = string.ascii_letters
    words = []
    for i in range(count):
        prefix = "".join(letters[(i // 52**k) % 52] for k in range(4))
        words.append(prefix + SUFFIXES[i % len(SUFFIXES)])
    return words


@pytest.fixture(scope="module")
def overflowed():
    """Fill the memo past its bound, so later calls evict and refill entries."""
    maxsize = porter.stem.cache_info().maxsize
    words = _distinct_words(maxsize + 4096)
    stems = [porter.stem(word) for word in words]
    assert porter.stem.cache_info().currsize == maxsize
    return words, stems


def test_memo_is_bounded():
    maxsize = porter.stem.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=string.ascii_letters, max_size=16), max_size=20))
def test_memo_answers_as_the_rules_after_eviction(overflowed, words):
    for word in words + words:  # the second pass reads the memo
        assert porter.stem(word) == porter.stem.__wrapped__(word)
    early, early_stems = overflowed
    for word, expected in zip(early[::997], early_stems[::997]):
        assert porter.stem(word) == expected == porter.stem.__wrapped__(word)


def test_threads_stem_as_one_thread():
    words = _distinct_words(3000) * 3
    serial = [porter.stem.__wrapped__(word) for word in words]
    porter.stem.cache_clear()  # the threads race on first answers too
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: [porter.stem(word) for word in words], range(8)))
    assert results == [serial] * 8
