"""Level-2 preprocessing: joining adjacent tokens into stored phrases.

Two mechanisms, matching how phrase-aware WECs come into existence:

* :class:`PhraseModel` -- trained bigram statistics. An adjacent pair
  ``(a, b)`` observed in training is joined to ``a_b`` when

      score(a, b) = (count(ab) - discount) * N / (count(a) * count(b))

  reaches ``threshold``, where ``N`` is the number of tokens counted.
  The scan is left-to-right and non-overlapping: after a join it resumes
  after the joined token, and it repeats up to ``passes`` times, so
  ``passes`` scans can build phrases of up to ``passes + 1`` words. A scan
  that joins nothing ends the repeats: the next would see the same tokens.
  Pairs never seen in training never join, whatever the threshold.

* :func:`apply_phrases_vocab` -- greedy longest-match against a WEC
  vocabulary, for collections that ship with phrase tokens but without the
  statistics that produced them.

Training with ``passes > 1`` re-tokenizes the corpus with the phrases found
so far after each round and accumulates all rounds' counts (and ``N``) into
the same tables, so the single model can support every scan.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import EmptyCorpusError, WecdbError, read_text

DEFAULT_DISCOUNT = 0.0
DEFAULT_THRESHOLD = 10.0
DEFAULT_PASSES = 1
DEFAULT_VOCAB_MAX_LEN = 4
DELIMITER = "_"  # what joins the tokens of a phrase, in both kinds of join


@dataclass
class PhraseModel:
    """Unigram/bigram counts plus the joining parameters."""

    unigram_counts: dict[str, int] = field(default_factory=dict)
    bigram_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    corpus_token_count: int = 0
    discount: float = DEFAULT_DISCOUNT
    threshold: float = DEFAULT_THRESHOLD
    passes: int = DEFAULT_PASSES

    def score(self, a: str, b: str) -> float | None:
        """Joining score for the adjacent pair, or None if unseen in training."""
        count_ab = self.bigram_counts.get((a, b), 0)
        if count_ab <= 0:
            return None
        count_a = self.unigram_counts.get(a, 0)
        count_b = self.unigram_counts.get(b, 0)
        if count_a <= 0 or count_b <= 0:
            return None
        return (count_ab - self.discount) * self.corpus_token_count / (count_a * count_b)

    def _scan_once(self, tokens: list[str]) -> list[str]:
        out: list[str] = []
        i = 0
        while i < len(tokens):
            if i + 1 < len(tokens):
                score = self.score(tokens[i], tokens[i + 1])
                if score is not None and score >= self.threshold:
                    out.append(tokens[i] + DELIMITER + tokens[i + 1])
                    i += 2
                    continue
            out.append(tokens[i])
            i += 1
        return out

    def apply(self, tokens: Iterable[str]) -> list[str]:
        result = list(tokens)
        for _ in range(self.passes):
            joined = self._scan_once(result)
            if len(joined) == len(result):  # nothing joined, so no later pass can join
                break
            result = joined
        return result

    def _count_sentence(self, tokens: list[str]) -> None:
        for token in tokens:
            self.unigram_counts[token] = self.unigram_counts.get(token, 0) + 1
        self.corpus_token_count += len(tokens)
        for pair in zip(tokens, tokens[1:]):
            self.bigram_counts[pair] = self.bigram_counts.get(pair, 0) + 1

    def save(self, path: str | Path) -> None:
        q = lambda s: urllib.parse.quote(s, safe="")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# phrase model v1\n")
            fh.write(f"delimiter {q(DELIMITER)}\n")
            fh.write(f"discount {self.discount!r}\n")
            fh.write(f"threshold {self.threshold!r}\n")
            fh.write(f"passes {self.passes}\n")
            fh.write(f"tokens {self.corpus_token_count}\n")
            for word, count in sorted(self.unigram_counts.items()):
                fh.write(f"u {q(word)} {count}\n")
            for (a, b), count in sorted(self.bigram_counts.items()):
                fh.write(f"b {q(a)} {q(b)} {count}\n")

    @classmethod
    def load(cls, path: str | Path) -> "PhraseModel":
        uq = urllib.parse.unquote
        model = cls()
        text = read_text(path)
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line or line.startswith("#"):
                continue
            fields = line.split(" ")
            try:
                if fields[0] == "delimiter":
                    if (delimiter := uq(fields[1])) != DELIMITER:
                        raise WecdbError(f"phrase delimiter {delimiter!r}"
                                         f" is not {DELIMITER!r}, the only one wecdb joins by")
                elif fields[0] == "discount":
                    model.discount = _at_least("discount", float(fields[1]), 0)
                elif fields[0] == "threshold":
                    model.threshold = _at_least("threshold", float(fields[1]), 0)
                elif fields[0] == "passes":
                    model.passes = _at_least("passes", int(fields[1]), 1)
                elif fields[0] == "tokens":
                    model.corpus_token_count = _at_least("tokens", int(fields[1]), 0)
                elif fields[0] == "u":
                    model.unigram_counts[uq(fields[1])] = _at_least("count", int(fields[2]), 1)
                elif fields[0] == "b":
                    pair = (uq(fields[1]), uq(fields[2]))
                    model.bigram_counts[pair] = _at_least("count", int(fields[3]), 1)
                else:
                    raise WecdbError(f"unknown record {fields[0]!r}")
            except (IndexError, ValueError) as exc:
                raise WecdbError(f"{path}:{lineno}: malformed record {line!r}") from exc
            except WecdbError as exc:
                raise WecdbError(f"{path}:{lineno}: {exc}") from None
        return model


def _at_least(name: str, value, least: int):
    """``value``, or :class:`WecdbError` when it is below ``least`` or NaN."""
    if not value >= least:
        raise WecdbError(f"{name} must be >= {least}")
    return value


def train_phrase_model(
    corpus: Iterable[Iterable[str]],
    discount: float = DEFAULT_DISCOUNT,
    threshold: float = DEFAULT_THRESHOLD,
    passes: int = DEFAULT_PASSES,
) -> PhraseModel:
    """Count unigrams and adjacent bigrams over a tokenized corpus.

    The corpus is materialized (multi-pass training re-reads it). Raises
    :class:`EmptyCorpusError` when it contains no tokens at all, and
    :class:`WecdbError` for a NaN or negative ``discount`` or ``threshold``
    or a ``passes`` below 1, which :meth:`PhraseModel.load` refuses too.
    """
    _at_least("discount", discount, 0)
    _at_least("threshold", threshold, 0)
    _at_least("passes", passes, 1)
    sentences = [list(s) for s in corpus]
    if not any(sentences):
        raise EmptyCorpusError("phrase training corpus contains no tokens")
    model = PhraseModel(discount=discount, threshold=threshold, passes=passes)
    for round_no in range(passes):
        for sentence in sentences:
            model._count_sentence(sentence)
        if round_no + 1 < passes:
            sentences = [model._scan_once(s) for s in sentences]
    return model


def apply_phrases_vocab(
    contains: Callable[[str], bool],
    tokens: Iterable[str],
    max_len: int = DEFAULT_VOCAB_MAX_LEN,
) -> list[str]:
    """Greedy longest-match joining against a vocabulary membership test.

    At position i, the longest window of at most ``max_len`` tokens whose
    ``_``-join is in the vocabulary becomes one token; otherwise token i
    passes through unchanged. Single tokens are never altered (a window of
    length one is not a join).
    """
    if max_len < 2:
        raise WecdbError("max_len must be >= 2")
    toks = list(tokens)
    out: list[str] = []
    i = 0
    n = len(toks)
    while i < n:
        joined = None
        for width in range(min(max_len, n - i), 1, -1):
            candidate = DELIMITER.join(toks[i : i + width])
            if contains(candidate):
                joined = (candidate, width)
                break
        if joined is None:
            out.append(toks[i])
            i += 1
        else:
            out.append(joined[0])
            i += joined[1]
    return out


def vocab_windows(tokens: list[str], max_len: int = DEFAULT_VOCAB_MAX_LEN) -> Iterator[str]:
    """Every candidate :func:`apply_phrases_vocab` may test on ``tokens``:
    each run of 2..``max_len`` adjacent tokens, ``_``-joined.

    Resolving these in one batch and joining against the result gives the
    same output as joining against the store, since membership is fixed.
    """
    n = len(tokens)
    for i in range(n - 1):
        for width in range(2, min(max_len, n - i) + 1):
            yield DELIMITER.join(tokens[i : i + width])
