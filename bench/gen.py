"""Seeded synthetic inputs for the wecdb benchmark.

Everything here is a pure function of ``(seed, scale)``: the same seed gives
byte-identical text files and the same query streams, so the run that
writes the files and the process that checks the program's answers can each
rebuild the inputs independently.

Vectors are printed GloVe-style, ``word v1 ... vd`` with single spaces and
every cell as ``%.5f`` of a value in (-1, 1). A cell is stored as the integer
``k`` with value ``k / 100000``. Dividing the exact integer by the exact
100000 in binary64 gives the binary64 nearest to the decimal, which is what
parsing the printed text gives, so the expected float32 vectors are
``(k / 1e5).astype("<f4")`` without re-parsing megabytes of text
(:func:`check_expected_matches_text` confirms it on sampled lines).

Words are synthetic ``(consonant vowel)+ coda`` strings such as ``bakirk``.
They end in two distinct consonants, so the Porter stemmer leaves them
unchanged and strips ``-s``, ``-ed`` and ``-ing`` back to them exactly; the
``raw_text`` workload relies on this to know which stems its inflected forms
must resolve to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONSONANTS = "bdfgkmnprstvz"
VOWELS = "aeiou"
CODAS = ("rk", "mp", "lp", "nd", "rd", "sk", "ft", "nk", "lt", "rm", "pt", "lf", "rb", "lm")
# Frequent English function words at the head of every synthetic language,
# so sentence averaging has stopwords to exclude.
FUNCTION_WORDS = (
    "the", "of", "and", "to", "in", "a", "is", "that", "for", "it", "as", "was",
    "with", "be", "by", "on", "not", "this", "are", "or", "from", "at", "which",
    "but", "have", "an", "had", "they", "you", "were",
)
SUFFIXES = ("s", "ed", "ing")
PUNCTUATION = (".", "!", "?")

SEVEN_QUERY = (
    "algo:glove;dataset:6b;dims:{50,100,200,300};fold:1;unit:token"
    "&algo:glove;dataset:42b;dims:300;fold:1;unit:token"
    "&algo:glove;dataset:840b;dims:300;fold:0;unit:token"
    "&algo:w2v;dataset:googlenews;dims:300;fold:0;unit:token"
)
SEVEN_IDENTIFIERS = (
    "algo:glove;dataset:6b;dims:50;fold:1;unit:token",
    "algo:glove;dataset:6b;dims:100;fold:1;unit:token",
    "algo:glove;dataset:6b;dims:200;fold:1;unit:token",
    "algo:glove;dataset:6b;dims:300;fold:1;unit:token",
    "algo:glove;dataset:42b;dims:300;fold:1;unit:token",
    "algo:glove;dataset:840b;dims:300;fold:0;unit:token",
    "algo:w2v;dataset:googlenews;dims:300;fold:0;unit:token",
)
RAW_QUERY = "algo:w2v;dataset:news;dims:100;fold:{0,1};unit:{token,stem}"
RAW_TOKEN_JOIN = "algo:w2v;dataset:news;dims:100;fold:0;unit:token"
RAW_STEM_0 = "algo:w2v;dataset:news;dims:100;fold:0;unit:stem"
RAW_TOKEN_MODEL = "algo:w2v;dataset:news;dims:100;fold:1;unit:token"
RAW_STEM_1 = "algo:w2v;dataset:news;dims:100;fold:1;unit:stem"
IMPORT_IDENTIFIERS = tuple(
    f"algo:synth;dataset:import;dims:{d};fold:0;unit:token" for d in (50, 300, 1024)
)

# Sizes per scale. "full" is what the benchmark runs; "tiny" keeps the
# benchmark's own tests fast.
SCALES = {
    "full": dict(
        seven_language=12_000, seven_head=3_500, seven_vocab=5_000, sts_pairs=250,
        raw_language=6_000, raw_bigrams=150, raw_trigrams=50, raw_corpus=2_000,
        raw_pool=3_000, import_words=2_000,
    ),
    "tiny": dict(
        seven_language=600, seven_head=200, seven_vocab=300, sts_pairs=20,
        raw_language=400, raw_bigrams=20, raw_trigrams=6, raw_corpus=300,
        raw_pool=200, import_words=60,
    ),
}


@dataclass
class Wec:
    """One collection to import: identifier, options, words and cell codes."""

    ident: str
    words: list[str]
    codes: np.ndarray  # int32 (len(words), dims); cell value is code / 1e5
    options: dict = field(default_factory=dict)
    filename: str = ""

    @property
    def dims(self) -> int:
        return self.codes.shape[1]

    def expected(self) -> dict[str, bytes]:
        """word -> little-endian float32 bytes the store must return."""
        vectors = expected_vectors(self.codes)
        return {w: vectors[i].tobytes() for i, w in enumerate(self.words)}


def expected_vectors(codes: np.ndarray) -> np.ndarray:
    return (codes.astype("<f8") / 1e5).astype("<f4")


def make_words(rng: np.random.Generator, n: int, exclude=()) -> list[str]:
    """``n`` distinct synthetic words, none of them in ``exclude``."""
    taken = set(exclude)
    out: list[str] = []
    while len(out) < n:
        batch = max(64, 2 * (n - len(out)))
        syllables = rng.integers(2, 4, size=batch)
        cons = rng.integers(0, len(CONSONANTS), size=(batch, 3))
        vows = rng.integers(0, len(VOWELS), size=(batch, 3))
        codas = rng.integers(0, len(CODAS), size=batch)
        for i in range(batch):
            word = "".join(
                CONSONANTS[cons[i, k]] + VOWELS[vows[i, k]] for k in range(syllables[i])
            ) + CODAS[codas[i]]
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == n:
                    break
    return out


def random_codes(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    return rng.integers(-99_999, 100_000, size=(n, dims), dtype=np.int32)


def format_rows(words: list[str], codes: np.ndarray) -> bytes:
    """GloVe text for ``words`` with ``%.5f`` cells, built without a per-line loop.

    Each row is laid out in a fixed-width byte matrix with NUL padding in
    place of the optional minus sign and after the word; dropping the NULs
    leaves single-space separated fields.
    """
    n, dims = codes.shape
    width = max(len(w) for w in words)
    word_block = np.frombuffer(
        b"".join(w.encode("ascii").ljust(width, b"\0") for w in words), np.uint8
    ).reshape(n, width)
    mags = np.abs(codes)
    cells = np.zeros((n, dims, 9), np.uint8)
    cells[:, :, 0] = ord(" ")
    cells[:, :, 1] = np.where(codes < 0, ord("-"), 0)
    cells[:, :, 2] = ord("0")
    cells[:, :, 3] = ord(".")
    for k in range(5):
        cells[:, :, 8 - k] = mags % 10 + ord("0")
        mags = mags // 10
    rows = np.concatenate(
        [word_block, cells.reshape(n, dims * 9), np.full((n, 1), ord("\n"), np.uint8)], axis=1
    ).ravel()
    return rows[rows != 0].tobytes()


def check_expected_matches_text(path: Path, wec: Wec, rng: np.random.Generator) -> None:
    """Parse sampled lines of the written file the way the README specifies
    (binary64, then binary32) and compare with the integer-derived vectors."""
    lines = path.read_bytes().split(b"\n")
    expected = expected_vectors(wec.codes)
    for i in rng.choice(len(wec.words), size=min(16, len(wec.words)), replace=False):
        fields = lines[i].decode("ascii").split(" ")
        got = np.array(fields[1:], dtype="<f8").astype("<f4")
        if fields[0] != wec.words[i] or got.tobytes() != expected[i].tobytes():
            raise AssertionError(f"{path.name}: line {i + 1} does not match its codes")


def zipf_cdf(n_ranks: int, s: float = 1.07) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_ranks + 1) ** s
    return np.cumsum(weights / weights.sum())


def zipf_ranks(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


def _finish_sentence(words: list[str], rng: np.random.Generator) -> str:
    words = [words[0].capitalize()] + words[1:]
    return " ".join(words) + PUNCTUATION[rng.integers(len(PUNCTUATION))]


# ---------------------------------------------------------------------------
# point_lookup and sts: the paper's seven collections
# ---------------------------------------------------------------------------


@dataclass
class SevenInputs:
    seed: int
    language: list[str]
    wecs: list[Wec]
    pairs: list[tuple[str, str]]
    pair_words: list[tuple[list[str], list[str]]]  # lowercase words of each side


def seven_inputs(seed: int, scale: str = "full") -> SevenInputs:
    size = SCALES[scale]
    rng = np.random.default_rng([seed, 7])
    language = list(FUNCTION_WORDS) + make_words(
        rng, size["seven_language"] - len(FUNCTION_WORDS), FUNCTION_WORDS
    )
    head, n_vocab = size["seven_head"], size["seven_vocab"]
    wecs = []
    for k, ident in enumerate(SEVEN_IDENTIFIERS):
        tail = np.sort(rng.choice(np.arange(head, len(language)), n_vocab - head, replace=False))
        words = language[:head] + [language[i] for i in tail]
        dims = int(ident.split("dims:")[1].split(";")[0])
        wecs.append(Wec(ident, words, random_codes(rng, n_vocab, dims), filename=f"wec{k}.txt"))

    # 5-20 Zipf-drawn words per sentence; every side needs a word outside the
    # function words that every vocabulary holds, not in first position (the
    # capitalised first word misses in the case-sensitive collections), so all
    # pairs are defined in every collection and each ranking has every pair.
    cdf = zipf_cdf(len(language))
    pairs, pair_words, seen = [], [], set()
    while len(pairs) < size["sts_pairs"]:
        side_ranks = [zipf_ranks(rng, cdf, int(rng.integers(5, 21))) for _ in range(2)]
        if not all(((ranks[1:] >= len(FUNCTION_WORDS)) & (ranks[1:] < head)).any()
                   for ranks in side_ranks):
            continue
        sides = [[language[r] for r in ranks] for ranks in side_ranks]
        texts = tuple(_finish_sentence(side, rng) for side in sides)
        if texts in seen:
            continue
        seen.add(texts)
        pairs.append(texts)
        pair_words.append((sides[0], sides[1]))
    return SevenInputs(seed, language, wecs, pairs, pair_words)


def lookup_stream(inputs: SevenInputs, seed: int, n: int):
    """``n`` (wec index, word) point lookups cycling over the seven WECs.

    Words are uniform over each vocabulary; about one in ten is a language
    word absent from that vocabulary, so the lookup must return None.
    """
    rng = np.random.default_rng([seed, 11])
    vocab_sets = [set(w.words) for w in inputs.wecs]
    absent = [[w for w in inputs.language if w not in s] for s in vocab_sets]
    stream = []
    for i in range(n):
        k = i % len(inputs.wecs)
        if rng.random() < 0.1:
            stream.append((k, absent[k][rng.integers(len(absent[k]))]))
        else:
            words = inputs.wecs[k].words
            stream.append((k, words[rng.integers(len(words))]))
    return stream


# ---------------------------------------------------------------------------
# raw_text: four 100-d collections with phrase and stem vocabularies
# ---------------------------------------------------------------------------


@dataclass
class RawInputs:
    wecs: list[Wec]  # in RAW_QUERY expansion order
    corpus: list[str]  # phrase-model training sentences
    sentences: list[str]
    planted_phrases: list[list[str]]  # per sentence: joined collocations in it
    planted_stems: list[list[str]]  # per sentence: stems of its inflected forms


def raw_inputs(seed: int, scale: str = "full") -> RawInputs:
    size = SCALES[scale]
    rng = np.random.default_rng([seed, 13])
    words = make_words(rng, size["raw_language"], FUNCTION_WORDS)
    language = list(FUNCTION_WORDS) + words
    n_colloc = size["raw_bigrams"] + size["raw_trigrams"]
    colloc_words = make_words(
        rng, 2 * size["raw_bigrams"] + 3 * size["raw_trigrams"], set(language)
    )
    collocations, pos = [], 0
    for i in range(n_colloc):
        width = 2 if i < size["raw_bigrams"] else 3
        collocations.append(colloc_words[pos : pos + width])
        pos += width

    language_cdf, words_cdf = zipf_cdf(len(language)), zipf_cdf(len(words))

    def sentence(rng):
        """(text, joined collocations, inflection stems) of one sentence."""
        parts, phrases, stems = [], [], []
        n = int(rng.integers(5, 21))
        first = language[zipf_ranks(rng, language_cdf, 1)[0]]
        parts.append(first)
        while len(parts) < n:
            kind = rng.random()
            if kind < 0.15:
                colloc = collocations[rng.integers(n_colloc)]
                parts.extend(colloc)
                phrases.append("_".join(colloc))
            elif kind < 0.30:
                stem = words[zipf_ranks(rng, words_cdf, 1)[0]]
                parts.append(stem + SUFFIXES[rng.integers(len(SUFFIXES))])
                stems.append(stem)
            else:
                parts.append(language[zipf_ranks(rng, language_cdf, 1)[0]])
        return _finish_sentence(parts, rng), phrases, stems

    corpus = [sentence(rng)[0] for _ in range(size["raw_corpus"])]
    sentences, planted_phrases, planted_stems = [], [], []
    for _ in range(size["raw_pool"]):
        text, phrases, stems = sentence(rng)
        sentences.append(text)
        planted_phrases.append(phrases)
        planted_stems.append(stems)

    bigram_tokens = ["_".join(c) for c in collocations[: size["raw_bigrams"]]]
    all_phrase_tokens = ["_".join(c) for c in collocations]
    base = language + colloc_words
    vocabularies = {
        RAW_TOKEN_JOIN: base + all_phrase_tokens,
        RAW_STEM_0: words + colloc_words,
        RAW_TOKEN_MODEL: base + bigram_tokens,
        RAW_STEM_1: words + colloc_words,
    }
    options = {
        RAW_TOKEN_JOIN: {"vocab_join_max_len": 4},
        RAW_STEM_0: {"stopwords": "en"},
        RAW_TOKEN_MODEL: {},
        RAW_STEM_1: {"stopwords": "en"},
    }
    order = (RAW_TOKEN_JOIN, RAW_STEM_0, RAW_TOKEN_MODEL, RAW_STEM_1)
    wecs = [
        Wec(ident, vocabularies[ident], random_codes(rng, len(vocabularies[ident]), 100),
            options[ident], filename=f"raw{k}.txt")
        for k, ident in enumerate(order)
    ]
    return RawInputs(wecs, corpus, sentences, planted_phrases, planted_stems)


# ---------------------------------------------------------------------------
# import: one file each at 50-d, 300-d and 1024-d
# ---------------------------------------------------------------------------


def import_inputs(seed: int, scale: str = "full") -> list[Wec]:
    size = SCALES[scale]
    rng = np.random.default_rng([seed, 17])
    words = make_words(rng, size["import_words"])
    return [
        Wec(ident, words, random_codes(rng, len(words), int(ident.split("dims:")[1].split(";")[0])),
            filename=f"import{k}.txt")
        for k, ident in enumerate(IMPORT_IDENTIFIERS)
    ]


def write_texts(wecs: list[Wec], directory: Path, seed: int) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 19])
    for wec in wecs:
        path = directory / wec.filename
        path.write_bytes(format_rows(wec.words, wec.codes))
        check_expected_matches_text(path, wec, rng)
