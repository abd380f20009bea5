"""The benchmark's four workloads.

Each workload has four parts:

* ``generate(seed, scale)`` -> (collections to write as text, inputs);
* ``build(root, texts, inputs)``: the set-up, building the workload's
  catalog with the code under test; ``setup_s`` is the median of
  ``setup_repeats`` builds, more of them where one build takes about a
  second, so the median spans several seconds of a noisy machine;
* ``check_data(inputs, texts)``: what the timed process needs to check
  answers, kept small so the benchmark adds little to ``peak_rss_mb``;
* ``Runner(data, paths)``: ``op(i)`` performs op ``i`` through wecdb's
  public API and ``check(i, result)`` returns an error message or None.

Every op is closed loop: one client in one process sends the next op only
after the previous one returned. Vector bytes are compared through 128-bit
BLAKE2b digests of the expected little-endian float32 bytes (see gen.py for
how those bytes follow from the text).
"""

from __future__ import annotations

import hashlib
import shutil
from importlib import resources
from pathlib import Path

import numpy as np

import gen

RAW_BATCH = 20


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _import_all(root: Path, texts: Path, wecs) -> None:
    from wecdb import Database

    with Database(root, create_if_missing=True) as db:
        for wec in wecs:
            report = db.import_from_file(texts / wec.filename, wec.ident, **wec.options)
            if report.imported != len(wec.words):
                raise RuntimeError(
                    f"{wec.ident}: imported {report.imported} of {len(wec.words)} words"
                )


def _vocab_digests(wec) -> dict[str, bytes]:
    return {word: digest(blob) for word, blob in wec.expected().items()}


class Import:
    name = "import"
    warmup_ops = 1
    setup_repeats = 7

    @staticmethod
    def generate(seed, scale):
        wecs = gen.import_inputs(seed, scale)
        return wecs, wecs

    @staticmethod
    def build(root, texts, wecs):
        _import_all(root, texts, wecs)

    @staticmethod
    def check_data(wecs, texts):
        rng = np.random.default_rng(0)
        samples = []
        for wec in wecs:
            vectors = gen.expected_vectors(wec.codes)
            rows = rng.choice(len(wec.words), size=min(32, len(wec.words)), replace=False)
            samples.append(
                (wec.ident, [(wec.words[r], vectors[r].tobytes()) for r in rows])
            )
        return {
            "wecs": [(w.ident, w.filename, len(w.words)) for w in wecs],
            "samples": samples,
            "text_bytes": sum((texts / w.filename).stat().st_size for w in wecs),
        }

    class Runner:
        def __init__(self, data, paths):
            from wecdb import Database

            self.Database = Database
            self.data = data
            self.texts = paths["texts"]
            self.ops = paths["ops"]
            self.op_bytes = data["text_bytes"]

        def op(self, i):
            root = self.ops / f"import-{i}"
            with self.Database(root, create_if_missing=True) as db:
                reports = [
                    db.import_from_file(self.texts / filename, ident)
                    for ident, filename, _ in self.data["wecs"]
                ]
            return root, reports

        def check(self, i, result):
            root, reports = result
            try:
                for (ident, _, n_words), report in zip(self.data["wecs"], reports):
                    if report.imported != n_words:
                        return f"{ident}: imported {report.imported} of {n_words}"
                with self.Database(root) as db:
                    for ident, samples in self.data["samples"]:
                        for word, expected in samples:
                            got = db.get_vector(ident, word)
                            if got is None or got.tobytes() != expected:
                                return f"{ident}: wrong vector for {word!r}"
                        if db.get_vector(ident, "absent-word") is not None:
                            return f"{ident}: absent word returned a vector"
                return None
            finally:
                shutil.rmtree(root, ignore_errors=True)


class PointLookup:
    name = "point_lookup"
    warmup_ops = 70
    setup_repeats = 3
    stream_length = 60_000

    @staticmethod
    def generate(seed, scale):
        inputs = gen.seven_inputs(seed, scale)
        return inputs.wecs, inputs

    @staticmethod
    def build(root, texts, inputs):
        _import_all(root, texts, inputs.wecs)

    @classmethod
    def check_data(cls, inputs, texts):
        vectors = [gen.expected_vectors(w.codes) for w in inputs.wecs]
        rows = [{word: r for r, word in enumerate(w.words)} for w in inputs.wecs]
        stream = []
        for k, word in gen.lookup_stream(inputs, inputs.seed, cls.stream_length):
            row = rows[k].get(word)
            expected = None if row is None else digest(vectors[k][row].tobytes())
            stream.append((inputs.wecs[k].ident, word, expected))
        return {"stream": stream}

    class Runner:
        def __init__(self, data, paths):
            from wecdb import Database

            self.stream = data["stream"]
            self.db = Database(paths["catalog"])

        def op(self, i):
            ident, word, _ = self.stream[i % len(self.stream)]
            return self.db.get_vector(ident, word)

        def check(self, i, result):
            ident, word, expected = self.stream[i % len(self.stream)]
            if expected is None:
                return None if result is None else f"{ident}: absent {word!r} returned a vector"
            if result is None:
                return f"{ident}: {word!r} not found"
            if digest(result.tobytes()) != expected:
                return f"{ident}: wrong vector for {word!r}"
            return None


def builtin_stopwords() -> set[str]:
    """The word list that ``--stopwords en`` names, read from the package data."""
    return set(resources.files("wecdb").joinpath("data/stopwords_en.txt").read_text("utf-8").split())


def sts_oracle(inputs, stopwords) -> dict[str, dict[tuple[str, str], float]]:
    """Cosine distance of every pair in every collection, recomputed in float64.

    A sentence vector is the mean of the distinct in-vocabulary words that
    are not stopwords, summed in float64 and rounded to float32, as the
    README's sentence baseline specifies.
    """
    oracle = {}
    for wec in inputs.wecs:
        vectors = gen.expected_vectors(wec.codes)
        rows = {word: r for r, word in enumerate(wec.words)}
        fold = ";fold:1;" in wec.ident
        distances = {}
        for (s1, s2), sides in zip(inputs.pairs, inputs.pair_words):
            means = []
            for side in sides:
                tokens = [side[0] if fold else side[0].capitalize()] + side[1:]
                used = [t for t in dict.fromkeys(tokens) if t in rows and t not in stopwords]
                total = vectors[rows[used[0]]].astype(np.float64)
                for t in used[1:]:
                    total = total + vectors[rows[t]].astype(np.float64)
                means.append((total / len(used)).astype(np.float32).astype(np.float64))
            a, b = means
            cos = float(np.dot(a, b)) / (np.sqrt(np.dot(a, a)) * np.sqrt(np.dot(b, b)))
            distances[(s1, s2)] = 1.0 - min(1.0, max(-1.0, cos))
        oracle[wec.ident] = distances
    return oracle


class Sts:
    name = "sts"
    warmup_ops = 1
    setup_repeats = 3
    # Ranking files print 6 decimals: a rounding flip plus float64 noise.
    tolerance = 1.0e-6 + 1.0e-9

    @staticmethod
    def generate(seed, scale):
        inputs = gen.seven_inputs(seed, scale)
        return inputs.wecs, inputs

    @staticmethod
    def build(root, texts, inputs):
        _import_all(root, texts, inputs.wecs)

    @staticmethod
    def check_data(inputs, texts):
        pairs_path = texts / "pairs.tsv"
        pairs_path.write_text("".join(f"{a}\t{b}\n" for a, b in inputs.pairs), encoding="utf-8")
        return {
            "pairs": str(pairs_path),
            "n_pairs": len(inputs.pairs),
            "oracle": sts_oracle(inputs, builtin_stopwords()),
        }

    class Runner:
        def __init__(self, data, paths):
            from wecdb import cli

            self.cli = cli  # main is looked up per call, so a traced run sees its wrapper
            self.data = data
            self.root = str(paths["catalog"])
            self.outdir = paths["ops"] / "sts-out"

        def op(self, i):
            return self.cli.main(
                ["--root", self.root, "sts", gen.SEVEN_QUERY, self.data["pairs"],
                 "--outdir", str(self.outdir), "--stopwords", "en"]
            )

        def check(self, i, result):
            try:
                return self._check(result)
            finally:
                shutil.rmtree(self.outdir, ignore_errors=True)

        def _check(self, code):
            if code != 0:
                return f"wecdb sts exited with {code}"
            oracle, n_pairs = self.data["oracle"], self.data["n_pairs"]
            info = (self.outdir / "run.info").read_text("utf-8").splitlines()
            wec_lines = [line.split(" ") for line in info if line.startswith("wec: ")]
            if [fields[1] for fields in wec_lines] != list(oracle):
                return "run.info does not list the seven collections in query order"
            for fields in wec_lines:
                ident, filename = fields[1], fields[4].removeprefix("file=")
                rows = (self.outdir / filename).read_text("utf-8").splitlines()
                if len(rows) != n_pairs:
                    return f"{ident}: {len(rows)} ranked rows, expected {n_pairs}"
                previous = -np.inf
                for row in rows:
                    text, s1, s2 = row.split("\t")
                    distance = float(text)
                    if distance < previous:
                        return f"{ident}: ranking not sorted ascending"
                    previous = distance
                    expected = oracle[ident].get((s1, s2))
                    if expected is None or abs(distance - expected) > Sts.tolerance:
                        return f"{ident}: distance {text} for {s1!r} / {s2!r}, expected {expected}"
            return None


class RawText:
    name = "raw_text"
    warmup_ops = 5  # their answers make up the printed digest
    setup_repeats = 7

    @staticmethod
    def generate(seed, scale):
        inputs = gen.raw_inputs(seed, scale)
        return inputs.wecs, inputs

    @staticmethod
    def build(root, texts, inputs):
        from wecdb import Database

        _import_all(root, texts, inputs.wecs)
        with Database(root) as db:
            db.train_phrases(inputs.corpus, gen.RAW_TOKEN_MODEL)

    @staticmethod
    def check_data(inputs, texts):
        return {
            "sentences": inputs.sentences,
            "planted_phrases": inputs.planted_phrases,
            "planted_stems": inputs.planted_stems,
            "vocab": {w.ident: _vocab_digests(w) for w in inputs.wecs},
        }

    class Runner:
        def __init__(self, data, paths):
            from wecdb import Database, PreprocessCache

            self.PreprocessCache = PreprocessCache
            self.data = data
            self.db = Database(paths["catalog"])
            self.hash = hashlib.sha256()

        def batch(self, i):
            n = len(self.data["sentences"])
            return [(RAW_BATCH * i + k) % n for k in range(RAW_BATCH)]

        def op(self, i):
            inputs = [self.data["sentences"][s] for s in self.batch(i)]
            return self.db.get_vectors(
                gen.RAW_QUERY, self.PreprocessCache(), inputs=inputs, raw=True, in_order=True
            )

        def check(self, i, result):
            vocab = self.data["vocab"]
            if [norm for norm, _ in result.per_wec] != list(vocab):
                return "collections missing or out of expansion order"
            for norm, units in result.per_wec:
                digests = vocab[norm]
                for s, unit in zip(self.batch(i), units, strict=True):
                    error = self._check_unit(norm, digests, s, unit)
                    if error:
                        return f"{norm}: {error} in {unit.raw!r}"
                    if i < RawText.warmup_ops:
                        self.hash.update(
                            repr((norm, unit.tokens, unit.missing, unit.words())).encode()
                        )
            return None

        def _check_unit(self, norm, digests, s, unit):
            if unit.raw != self.data["sentences"][s]:
                return "raw text not echoed"
            words = unit.words()
            if words != [t for t in unit.tokens if t in digests]:
                return "pairs do not follow the found tokens in order"
            if unit.missing != list(dict.fromkeys(t for t in unit.tokens if t not in digests)):
                return "missing tokens wrong"
            for word, vector in unit.pairs:
                if digest(vector.tobytes()) != digests[word]:
                    return f"wrong vector for {word!r}"
            if norm == gen.RAW_TOKEN_JOIN:
                planted = self.data["planted_phrases"][s]
            elif norm in (gen.RAW_STEM_0, gen.RAW_STEM_1):
                planted = self.data["planted_stems"][s]
            else:
                planted = ()
            for token in planted:
                if token not in words:
                    return f"expected token {token!r} not found"
            return None

        def answers_digest(self) -> str:
            return self.hash.hexdigest()


WORKLOADS = {w.name: w for w in (Import, PointLookup, Sts, RawText)}
