import random

import numpy as np
import pytest

from wecdb import EmptyCorpusError, PhraseModel, WecdbError, apply_phrases_vocab, train_phrase_model


def reference_scan(model, tokens):
    """Independent reimplementation of the scoring + scan rule.

    Kept deliberately naive: recompute the score formula inline, walk the
    token list once per pass, never join pairs unseen in training.
    """
    current = list(tokens)
    for _ in range(model.passes):
        out = []
        i = 0
        while i < len(current):
            joinable = False
            if i + 1 < len(current):
                a, b = current[i], current[i + 1]
                n_ab = model.bigram_counts.get((a, b), 0)
                n_a = model.unigram_counts.get(a, 0)
                n_b = model.unigram_counts.get(b, 0)
                if n_ab > 0 and n_a > 0 and n_b > 0:
                    score = (n_ab - model.discount) * model.corpus_token_count / (n_a * n_b)
                    joinable = score >= model.threshold
            if joinable:
                out.append(current[i] + "_" + current[i + 1])
                i += 2
            else:
                out.append(current[i])
                i += 1
        current = out
    return current


def test_apply_stops_after_a_pass_that_joins_nothing(monkeypatch):
    model = PhraseModel(unigram_counts={"a": 1, "b": 1, "a_b": 1, "c": 1},
                        bigram_counts={("a", "b"): 1, ("a_b", "c"): 1},
                        corpus_token_count=4, threshold=1.0, passes=10**6)
    scans = []
    real_scan = PhraseModel._scan_once
    monkeypatch.setattr(PhraseModel, "_scan_once",
                        lambda self, tokens: scans.append(1) or real_scan(self, tokens))
    assert model.apply(["a", "b", "c", "d"]) == ["a_b_c", "d"]
    assert len(scans) == 3  # two that join, one that joins nothing
    scans.clear()
    assert model.apply(["c", "a"]) == ["c", "a"] and len(scans) == 1
    model.passes = 5
    for tokens in (["a", "b", "c"], ["a", "b", "a", "b", "c"], ["x"], []):
        assert model.apply(tokens) == reference_scan(model, tokens)


def test_direct_counting_oracle():
    corpus = [["petri", "net"]] * 10 + [["net"]] * 10
    model = train_phrase_model(corpus, threshold=1.0)
    assert model.bigram_counts[("petri", "net")] == 10
    assert model.unigram_counts["net"] == 20
    assert model.unigram_counts["petri"] == 10
    assert model.corpus_token_count == 30


def test_score_formula_joins_above_threshold():
    corpus = [["petri", "net"]] * 10 + [["net", "analysis"]] * 2 + [["analysis"]] * 8
    model = train_phrase_model(corpus, discount=0.0, threshold=1.0)
    # N = 10*2 + 2*2 + 8 = 32; score(petri, net) = 10 * 32 / (10 * 12) ~ 2.67
    assert model.score("petri", "net") == pytest.approx(10 * 32 / (10 * 12))
    # score(net, analysis) = 2 * 32 / (12 * 10) = 0.53 stays below threshold
    assert model.apply(["petri", "net", "analysis"]) == [
        "petri_net",
        "analysis",
    ]


def test_discount_larger_than_every_bigram_count_joins_nothing():
    corpus = [["a", "b"]] * 5
    model = train_phrase_model(corpus, discount=6.0, threshold=0.0)
    assert model.apply(["a", "b", "a", "b"]) == ["a", "b", "a", "b"]


def test_untrained_pairs_never_join():
    model = train_phrase_model([["x", "y"]], threshold=0.0)
    assert model.apply(["p", "q"]) == ["p", "q"]
    assert model.apply([]) == []


def test_scan_resumes_after_a_join():
    # b appears both after a and before c; after joining (a, b) the scan
    # must not also consider (b, c).
    corpus = [["a", "b", "c"]] * 10
    model = train_phrase_model(corpus, threshold=0.1)
    out = model.apply(["a", "b", "c"])
    assert out == ["a_b", "c"]


def test_two_pass_training_joins_trigram():
    # "visit" is frequent on its own, so (visit, new) scores low; the
    # frequent trigram is joined across the two scan passes.
    corpus = (
        [["new", "york", "city"]] * 20
        + [["visit", "new", "york", "city"]] * 5
        + [["visit"]] * 60
    )
    model = train_phrase_model(corpus, threshold=1.0, passes=2)
    out = model.apply(["visit", "new", "york", "city"])
    assert out == ["visit", "new_york_city"]
    assert out == reference_scan(model, ["visit", "new", "york", "city"])


def test_single_pass_joins_at_most_bigrams():
    corpus = [["new", "york", "city"]] * 20 + [["visit", "new", "york", "city"]] * 5
    model = train_phrase_model(corpus, threshold=1.0, passes=1)
    out = model.apply(["new", "york", "city"])
    assert out == ["new_york", "city"]


def test_training_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        train_phrase_model([])
    with pytest.raises(EmptyCorpusError):
        train_phrase_model([[], []])


def test_model_save_load_round_trip(tmp_path):
    corpus = [["petri", "net", "theory"]] * 4 + [["net", "損 failures"]] * 2
    model = train_phrase_model(corpus, discount=0.5, threshold=2.5, passes=2)
    path = tmp_path / "model.phr"
    model.save(path)
    loaded = PhraseModel.load(path)
    assert loaded.unigram_counts == model.unigram_counts
    assert loaded.bigram_counts == model.bigram_counts
    assert loaded.corpus_token_count == model.corpus_token_count
    assert loaded.discount == model.discount
    assert loaded.threshold == model.threshold
    assert loaded.passes == model.passes


@pytest.mark.parametrize("field, value, message", [
    ("threshold", float("nan"), "threshold must be >= 0"),
    ("discount", -0.5, "discount must be >= 0"),
    ("discount", "x", "discount must be a number, not 'x'"),
    ("passes", 2.0, "passes must be an integer, not 2.0"),
    ("passes", 0, "passes must be >= 1"),
    ("corpus_token_count", -1, "tokens must be >= 0"),
    ("unigram_counts", {"a": 0}, "count must be >= 1"),
    ("bigram_counts", {("a", "b"): 1.5}, "count must be an integer, not 1.5"),
])
def test_save_refuses_what_load_refuses_before_opening_the_file(tmp_path, field, value, message):
    model = train_phrase_model([["a", "b"]] * 3, threshold=0.0)
    setattr(model, field, value)
    path = tmp_path / "model.phr"
    with pytest.raises(WecdbError, match=message):
        model.save(path)
    assert not path.exists()


def test_save_writes_numbers_in_the_form_load_parses(tmp_path):
    model = train_phrase_model([["a", "b"]] * 3, threshold=0.0)
    model.discount, model.threshold, model.passes = np.float32(0.5), np.float64(1.0), True
    model.corpus_token_count, model.unigram_counts["a"] = np.int64(6), np.int32(3)
    path = tmp_path / "model.phr"
    model.save(path)
    loaded = PhraseModel.load(path)
    assert (loaded.discount, loaded.threshold, loaded.passes) == (0.5, 1.0, 1)
    assert (loaded.corpus_token_count, loaded.unigram_counts["a"]) == (6, 3)
    assert loaded.apply(["a", "b"]) == ["a_b"]


def test_random_corpora_match_reference_scan():
    rng = random.Random(1234)
    alphabet = ["alpha", "beta", "gamma", "delta", "eps"]
    for trial in range(100):
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 12))
        ]
        threshold = rng.choice([0.0, 0.5, 1.0, 2.0, 10.0])
        discount = rng.choice([0.0, 0.5, 1.0])
        passes = rng.choice([1, 2, 3])
        model = train_phrase_model(
            corpus, discount=discount, threshold=threshold, passes=passes
        )
        probe = [rng.choice(alphabet) for _ in range(rng.randint(0, 10))]
        assert model.apply(probe) == reference_scan(model, probe), (
            trial,
            probe,
            threshold,
            discount,
            passes,
        )
        for a, b in model.bigram_counts:
            assert a in model.unigram_counts and b in model.unigram_counts


def test_joining_never_loses_material():
    rng = random.Random(7)
    alphabet = ["a", "b", "c", "d"]
    corpus = [[rng.choice(alphabet) for _ in range(6)] for _ in range(30)]
    model = train_phrase_model(corpus, threshold=0.5, passes=2)
    probe = [rng.choice(alphabet) for _ in range(12)]
    joined = model.apply(probe)
    flattened = [part for token in joined for part in token.split("_")]
    assert flattened == probe


# -- vocabulary-driven joining ------------------------------------------------


def test_vocab_join_petri_net():
    vocab = {"petri_net", "net", "petri"}
    assert apply_phrases_vocab(vocab.__contains__, ["petri", "net"]) == ["petri_net"]


def test_vocab_join_noop_without_phrase_entry():
    vocab = {"net", "petri"}
    assert apply_phrases_vocab(vocab.__contains__, ["petri", "net"]) == ["petri", "net"]


def test_vocab_join_longest_match_wins():
    vocab = {"a_b_c", "a_b"}
    assert apply_phrases_vocab(vocab.__contains__, ["a", "b", "c"], max_len=3) == ["a_b_c"]
    # exhaustive window-match oracle: every window of width 2..3 checked
    out = []
    tokens = ["a", "b", "c"]
    i = 0
    while i < len(tokens):
        for width in (3, 2, 1):
            cand = "_".join(tokens[i : i + width])
            if width == 1:
                out.append(tokens[i])
                i += 1
                break
            if len(tokens) - i >= width and cand in vocab:
                out.append(cand)
                i += width
                break
    assert apply_phrases_vocab(vocab.__contains__, tokens, max_len=3) == out


def test_vocab_join_respects_max_len():
    vocab = {"a_b_c_d", "a_b"}
    got = apply_phrases_vocab(vocab.__contains__, ["a", "b", "c", "d"], max_len=3)
    assert got == ["a_b", "c", "d"]


def test_vocab_join_outputs_only_vocabulary_phrases():
    rng = random.Random(9)
    vocab = {"x_y", "y_z_w", "w_x"}
    tokens = [rng.choice("xyzw") for _ in range(40)]
    out = apply_phrases_vocab(vocab.__contains__, tokens, max_len=4)
    for token in out:
        if "_" in token:
            assert token in vocab
    assert [p for t in out for p in t.split("_")] == tokens
