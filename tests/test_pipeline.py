import itertools
import pickle
import shlex
import sys
import time
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from wecdb import PipelineError, PreprocessCache, build_pipeline, parse_identifier, run_pipeline
from wecdb import porter
from wecdb.pipeline import (
    BUILTIN_STOPWORDS,
    PipelineDescriptor,
    Stage,
    _TOKENIZERS,
    _ExternalProcess,
    _external_for,
    builtin_stopwords_text,
    content_ref,
    parse_pipeline,
    pipeline_for_identifier,
)


def test_default_tokenizer_splits_edge_punctuation():
    p = build_pipeline()
    # oracle, by hand: whitespace split then peel leading/trailing punctuation
    assert run_pipeline(p, "nets, nets!") == ["nets", ",", "nets", "!"]


def test_default_tokenizer_keeps_internal_hyphens_and_underscores():
    p = build_pipeline()
    assert run_pipeline(p, "state-of-the-art petri_net") == ["state-of-the-art", "petri_net"]


def test_default_tokenizer_peels_nested_punctuation_in_order():
    p = build_pipeline()
    assert run_pipeline(p, '("quoted") end.') == ["(", '"', "quoted", '"', ")", "end", "."]


def test_empty_line_gives_empty_tokens():
    p = build_pipeline()
    assert run_pipeline(p, "") == []
    assert run_pipeline(p, "   \t  ") == []


def test_case_fold_on():
    p = build_pipeline(case_fold=True)
    assert run_pipeline(p, "Theory of Computation") == ["theory", "of", "computation"]


def test_case_fold_off_preserves_case():
    p = build_pipeline(case_fold=False)
    assert run_pipeline(p, "Theory") == ["Theory"]


def test_stem_stage_applies_porter():
    p = build_pipeline(case_fold=True, stem=True)
    assert run_pipeline(p, "running computations easily") == ["run", "comput", "easili"]


def test_stem_step_looks_porter_stem_up_when_it_runs(monkeypatch):
    # the benchmark's tracer counts stems by rebinding this name
    p = build_pipeline(case_fold=True, stem=True)
    monkeypatch.setattr(porter, "stem", str.upper)
    assert run_pipeline(p, "running computations") == ["RUNNING", "COMPUTATIONS"]


def test_stem_skips_non_alphabetic_tokens():
    p = build_pipeline(case_fold=True, stem=True)
    assert run_pipeline(p, "v2 running") == ["v2", "run"]


def test_stopword_filter_builtin_list():
    p = build_pipeline(case_fold=True, stopwords="en")
    assert run_pipeline(p, "The theory of the nets") == ["theory", "nets"]


def test_stopword_filter_user_file(tmp_path):
    listfile = tmp_path / "stops.txt"
    listfile.write_text("foo\nbar\n", encoding="utf-8")
    p = build_pipeline(stopwords=listfile)
    assert run_pipeline(p, "foo keep bar") == ["keep"]


def test_stopword_file_with_a_byte_order_mark(tmp_path):
    marked, plain = tmp_path / "marked.txt", tmp_path / "plain.txt"
    marked.write_bytes(b"\xef\xbb\xbfthe\nof\n")
    plain.write_bytes(b"the\nof\n")
    p = build_pipeline(stopwords=marked)
    assert run_pipeline(p, "the theory of nets") == ["theory", "nets"]
    assert p.resources == ((content_ref("the\nof\n"), "the\nof\n"),)
    assert p.hash == build_pipeline(stopwords=plain).hash


def test_strip_special_drops_pure_punctuation_tokens():
    p = build_pipeline(strip_special=True)
    assert run_pipeline(p, "nets, nets!") == ["nets", "nets"]


def test_whitespace_tokenizer():
    p = build_pipeline(tokenizer="whitespace")
    assert run_pipeline(p, "nets, nets!") == ["nets,", "nets!"]


def test_pipeline_for_identifier_derives_fold_and_unit():
    folded = parse_identifier("algo:a;dataset:d;dims:2;fold:1;unit:token")
    cased = parse_identifier("algo:a;dataset:d;dims:2;fold:0;unit:token")
    stemmed = parse_identifier("algo:a;dataset:d;dims:2;fold:1;unit:stem")
    assert pipeline_for_identifier(folded).case_fold_enabled
    assert not pipeline_for_identifier(cased).case_fold_enabled
    assert pipeline_for_identifier(stemmed).stem_enabled
    assert not pipeline_for_identifier(folded).stem_enabled


def test_hash_changes_with_any_stage_parameter():
    base = build_pipeline()
    assert build_pipeline(case_fold=True).hash != base.hash
    assert build_pipeline(stem=True, case_fold=True).hash != build_pipeline(case_fold=True).hash
    assert build_pipeline(tokenizer="whitespace").hash != base.hash
    assert build_pipeline(strip_special=True).hash != base.hash


def test_hash_changes_with_stopword_list_content(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("foo\n")
    b.write_text("foo\nbar\n")
    assert build_pipeline(stopwords=a).hash != build_pipeline(stopwords=b).hash


def test_hash_stable_across_serialize_parse(tmp_path):
    listfile = tmp_path / "stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    p = build_pipeline(case_fold=True, stem=False, stopwords=listfile)
    resolved = dict(p.resources)
    reparsed = parse_pipeline(p.serialize(), resolved.__getitem__)
    assert reparsed.hash == p.hash
    assert reparsed.serialize() == p.serialize()


def test_descriptor_rejects_bad_shapes():
    tok = Stage("tokenize", ("default",))
    ext = Stage("external", ("cat", "0123456789abcdef"))
    cases = [
        ((Stage("lemmatize", ()), tok), "unknown stage 'lemmatize'"),
        ((tok, tok), "tokenize stage after input is already tokenized"),
        ((ext, tok), "tokenize stage after input is already tokenized"),
        ((Stage("case_fold", ("on",)),), "pipeline must contain a tokenize or external stage"),
        ((Stage("tokenize", ("nope",)),), "unknown tokenize rule set ('nope',)"),
        ((Stage("tokenize", ()),), "unknown tokenize rule set ()"),
        ((tok, Stage("strip_special", ("fancy",))), "unknown strip_special rule set ('fancy',)"),
        ((tok, Stage("strip_special", ())), "unknown strip_special rule set ()"),
        ((tok, Stage("case_fold", ("yes",))), "case_fold parameter must be on/off, got ('yes',)"),
        ((tok, Stage("stem", ("on", "on"))), "stem parameter must be on/off, got ('on', 'on')"),
        ((Stage("stem", ("on",)), tok), "stem stage requires tokenized input"),
        ((Stage("stopword_filter", (BUILTIN_STOPWORDS,)), tok),
         "stopword_filter stage requires tokenized input"),
        ((Stage("strip_special", ("default",)), tok),
         "strip_special stage requires tokenized input"),
        ((tok, Stage("stopword_filter", ())), "stopword_filter takes one parameter"),
        ((tok, Stage("stopword_filter", ("list:0123456789abcdef",))),
         "stopword list 'list:0123456789abcdef' has no resolved content"),
        ((Stage("external", ("cat",)),), "external stage needs (command, content_hash)"),
    ]
    for stages, message in cases:
        with pytest.raises(PipelineError) as excinfo:
            PipelineDescriptor(stages)
        assert str(excinfo.value) == message
    # a stage that is off needs no tokens, so it may come first
    off = (Stage("stem", ("off",)), Stage("stopword_filter", ("off",)))
    assert run_pipeline(PipelineDescriptor(off + (tok,)), "a b") == ["a", "b"]


# hashes as this version computed them: the same options must keep giving
# the same hash, or every catalog's registered pipelines stop matching
PINNED_HASHES = {
    ("default", False, False, None, False):
        "9edb67df39ca0b91d28a7c0f4c0e49fa6c674f3203d67748deef97239cee54e7",
    ("default", False, False, None, True):
        "9b22f614368367bcfd8f05cb18ee69cc3127a15b14937f2b52291c2ef2747aee",
    ("default", False, False, "en", False):
        "cb3b33663eeaa4a48eb0b72bf654835f6473989b094879c8baa9e9d27b7dcaa3",
    ("default", False, False, "en", True):
        "c1bbb709b11f449d2980a5a5f0f331aa33834f1826e4fff1bd9718e3344e0659",
    ("default", False, False, "file", False):
        "6a03c089c5dd6270814a9007f0ba699652739f0b7157af728ea23d5c509ee714",
    ("default", False, False, "file", True):
        "9f0fcdd5f31066d364e3d38e2657d8e28c9b959dcca8def1e9541457a4edca69",
    ("default", False, True, None, False):
        "a175f4148a2cb338d187b45cd61f4f007c113fbcf519748e96daf7f61903bd35",
    ("default", False, True, None, True):
        "95bafe7e82c8e6fb6623c1c6002d6e3bb06c8b9ec692d7ae03f338ffe437e220",
    ("default", False, True, "en", False):
        "755707b370fea240c1f40ffc0fe5274d8d799ee3b43975cbbc414f6eb115d467",
    ("default", False, True, "en", True):
        "b2538594a92a6a49e0fd94188b37f353a6a1f6460078c2e60cc1211c2153b8fd",
    ("default", False, True, "file", False):
        "6efb191b9bbd29c976793be4fd23ae59bd70b2782ec5107fdfda0ae42935d031",
    ("default", False, True, "file", True):
        "2fafbcefdc8408ed0e7c5d837e1b9a16cb54bfd1fab2f1ed304f99e42a30fd7b",
    ("default", True, False, None, False):
        "d36e0894436c73ec391d35bef022213b444fd56e8bfb7667305c2c84a4392dad",
    ("default", True, False, None, True):
        "42bf9613b8956aa70914b6ba503394d8bc92ba4ea2479c38b496a5e62b74c03b",
    ("default", True, False, "en", False):
        "64783b7b631253a33c80e0112f723999f54c120bfb060676007508ea0b98a4a2",
    ("default", True, False, "en", True):
        "368efc6c578f08b93ea8dbdda2e711ee5e90a9d335d88e8c4553f2ace9acd712",
    ("default", True, False, "file", False):
        "c1817764d425af3407a2e8773540f6b8e131ab840f1dec5955149cfad1151876",
    ("default", True, False, "file", True):
        "95da8568226966188282bc222df1d17c7a405db9fdb388457ad9466e4e5e9182",
    ("default", True, True, None, False):
        "ba84395ef7f55d41ba1e65869a0c3378c0dc1860d079c15ab1d73f87be401319",
    ("default", True, True, None, True):
        "5dc40c4e9d857d37ad298d635d0ada63027c55c677d6e5c4e4e112c6655f87fd",
    ("default", True, True, "en", False):
        "7a605336e82cd0deb1a30cbe1b205abd2ade472ef4d98f473bd87491db8b543a",
    ("default", True, True, "en", True):
        "298d99d5832a382f6ac1226894e58edd5226eb2235cfeb8a82de8186ea119366",
    ("default", True, True, "file", False):
        "ac22b2859446937455924070c5aa4cec475cf3c0ae9701f12897f4b1a21c8407",
    ("default", True, True, "file", True):
        "33b0b2911cd1e8fe40d874762b6e2aad987de3a451f2dd1e7e09e903f6436ffd",
    ("whitespace", False, False, None, False):
        "2fa3306fc01a97e0428879694ebaea5d2fe8b218bd43d81f68fd30fab647a419",
    ("whitespace", False, False, None, True):
        "3fd27b118550bacb428d18816712eab5eb1cc3f1a37f89be8037727921d7d6b2",
    ("whitespace", False, False, "en", False):
        "aac9279d159a852d5a5544d540e77c0a7ed9920a82df520c401cc6805f7910f8",
    ("whitespace", False, False, "en", True):
        "56967298f325fadafbd33ae9524d9bb8742b89ad44e59c07f2ad4793690789db",
    ("whitespace", False, False, "file", False):
        "cca730f9aa2b5c46b4b34ddeeed25a4e46d2deb69e2eed7bd8ce8475a3a24375",
    ("whitespace", False, False, "file", True):
        "c8dfbbc9a26fbf22dfd5d502050d998d1c7df9fdb569b0a9c6d700c292640633",
    ("whitespace", False, True, None, False):
        "1678f7003ed1e8695c59aa13ed8d071677de4cb06485cc3e52bbf77b087b2051",
    ("whitespace", False, True, None, True):
        "e38c7aa3ed910cbbe63d790385cd3c1a9fc54aa8d7242be82de0d111ab77e8d0",
    ("whitespace", False, True, "en", False):
        "ec231dcee195974f8b172704b928b2f6c646c095185ace8d25f4cfd9833bc5db",
    ("whitespace", False, True, "en", True):
        "bad8fc8808a3bdde3276084b2a39a22f46b858a1d6258771cb4b3ff2b96ff449",
    ("whitespace", False, True, "file", False):
        "58001014a3a0a38bd7bbc5d1ac66d245fdaf9d1c77da2f054c10a1d48a5de66e",
    ("whitespace", False, True, "file", True):
        "467e806ec747ac16e2782f5a1191e3a249d0843450e560ac7b0232bab01c3749",
    ("whitespace", True, False, None, False):
        "45976e7478e655fc156997132d0b1f74f20985970ef119b08c1cefd5f5c97fe1",
    ("whitespace", True, False, None, True):
        "1e07b4015480df56985ab947a2ad87d4eb16f8f8ca15711c5401d1af4ed28ded",
    ("whitespace", True, False, "en", False):
        "2893cfb66dbae7a92132d88e081fcfc53b226698882a5b17b9ae254769c2c2ae",
    ("whitespace", True, False, "en", True):
        "837b380edd559397013175154b406cd2b1c74310a8fa711cad47827e8e9ef2a6",
    ("whitespace", True, False, "file", False):
        "a89f1431f1fd9ff9826c74f614d8ac59e2a4aea690edae3bd74694d180e31781",
    ("whitespace", True, False, "file", True):
        "a4e99f45b4c84c08526d54e81c0a348fa00162c1d134c6867254e8d5f5ce683c",
    ("whitespace", True, True, None, False):
        "da6361dd451a6a898213c2328854960b05eb7f405f267707767aaa924d69f503",
    ("whitespace", True, True, None, True):
        "e8292ecc628f62add0ec964f4d04821f4d2f471905d938e1d2dfda11d86c7e00",
    ("whitespace", True, True, "en", False):
        "7901178db2a5627409999505c915901b3628679ad0860e9aab7471c6fee9782c",
    ("whitespace", True, True, "en", True):
        "617d6255b03841260f1e33d32d9bd0cc3e35fd5459ecd4ae46b547f7d4c9ebbc",
    ("whitespace", True, True, "file", False):
        "c684f1f8978a0770cb1b9d0da11eb9ba06b1a6dc2645d7c8b37eef6474c0613a",
    ("whitespace", True, True, "file", True):
        "7f4c915b4b6d15852f08ca163001f029895f93ff8273d2e9f9c8fe894fc8bfad",
    ("external", False):
        "5d55091e116a713e305b50c036435d7edbc069214b3ed45d9609b1d36297cb99",
    ("external", True):
        "b711b76a138148a2bee4a8cc993d168ca0181801cba44002e4aae60e5f3468c7",
}


def test_build_pipeline_hashes_are_pinned(tmp_path):
    stops = tmp_path / "stops.txt"
    stops.write_text("foo\nbar\n", encoding="utf-8")
    script = tmp_path / "tok.py"
    script.write_text("print('x')\n", encoding="utf-8")
    flags = [False, True]
    tokenizers, stopword_options = ["default", "whitespace"], [None, "en", "file"]
    for key in itertools.product(tokenizers, flags, flags, stopword_options, flags):
        tokenizer, fold, stem, stopwords, strip = key
        p = build_pipeline(
            tokenizer=tokenizer,
            case_fold=fold,
            stem=stem,
            stopwords=stops if stopwords == "file" else stopwords,
            strip_special=strip,
        )
        assert p.hash == PINNED_HASHES[key], key
    for with_script in (False, True):
        p = build_pipeline(external=("python3 -u tok.py", script if with_script else None))
        assert p.hash == PINNED_HASHES["external", with_script]


def test_cache_transparency_and_counters():
    p = build_pipeline(case_fold=True)
    cache = PreprocessCache()
    cold = run_pipeline(p, "Cache Me Twice")
    first = run_pipeline(p, "Cache Me Twice", cache)
    second = run_pipeline(p, "Cache Me Twice", cache)
    assert cold == first == second
    assert cache.hits == 1
    assert cache.misses == 1
    assert len(cache) == 1


def test_cache_keyed_by_pipeline_hash():
    cache = PreprocessCache()
    folded = build_pipeline(case_fold=True)
    plain = build_pipeline(case_fold=False)
    assert run_pipeline(folded, "Mixed Case", cache) == ["mixed", "case"]
    assert run_pipeline(plain, "Mixed Case", cache) == ["Mixed", "Case"]
    assert cache.hits == 0 and cache.misses == 2


def test_cached_result_is_copied():
    p = build_pipeline()
    cache = PreprocessCache()
    first = run_pipeline(p, "a b", cache)
    first.append("mutated")
    assert run_pipeline(p, "a b", cache) == ["a", "b"]


def test_external_stage_round_trip():
    cmd = f'{sys.executable} -u -c "import sys\nfor line in sys.stdin: print(line.strip().upper(), flush=True)"'
    p = build_pipeline(external=(cmd, None))
    assert run_pipeline(p, "shout this line") == ["SHOUT", "THIS", "LINE"]
    # persistent process: second call reuses the conversation
    assert run_pipeline(p, "again") == ["AGAIN"]


def test_external_stage_failure_names_the_stage():
    from wecdb.errors import ExternalStageError

    cmd = f'{sys.executable} -c "import sys; sys.exit(3)"'
    p = build_pipeline(external=(cmd, None))
    with pytest.raises(ExternalStageError, match="external stage"):
        run_pipeline(p, "anything")



def test_an_exited_external_stage_leaves_no_open_pipes():
    from wecdb.errors import ExternalStageError

    runner = _ExternalProcess(f'{sys.executable} -c "pass"')
    with pytest.raises(ExternalStageError):
        runner.process_line("one")
    first = runner.proc
    first.wait(timeout=10)
    with pytest.raises(ExternalStageError):
        runner.process_line("two")  # starts a second process
    second = runner.proc
    assert second is not first
    assert first.stdin.closed and first.stdout.closed
    second.wait(timeout=10)
    runner.close()
    assert runner.proc is None
    assert second.stdin.closed and second.stdout.closed


def test_a_stage_that_closes_its_input_fails_the_next_request():
    import os
    import signal

    from wecdb.errors import ExternalStageError

    # closes its input before it answers, then stays alive without reading
    script = (
        "import os, sys, time\n"
        "sys.stdin.readline()\n"
        "os.close(0)\n"
        "sys.stdout.write('ok\\n'); sys.stdout.flush()\n"
        "time.sleep(60)\n"
    )
    runner = _ExternalProcess(f"exec {sys.executable} -c {shlex.quote(script)}")
    assert runner.process_line("one") == ["ok"]
    try:
        with pytest.raises(ExternalStageError, match="failed: .*Broken pipe"):
            runner.process_line("two")
    finally:
        os.killpg(runner.proc.pid, signal.SIGKILL)
        runner.close()


def test_external_content_hash_follows_script(tmp_path):
    script = tmp_path / "tok.py"
    script.write_text("print('x')\n")
    p1 = build_pipeline(external=("python3 tok.py", script))
    script.write_text("print('y')\n")
    p2 = build_pipeline(external=("python3 tok.py", script))
    assert p1.hash != p2.hash


def _apply_stage(stage, value, stopword_sets):
    """Reference interpreter: works out each stage's name, parameter and the
    shape of its input again for every line."""
    if stage.name == "tokenize":
        if stage.params == ("default",):
            return _reference_tokenize_default(value)
        return _TOKENIZERS[stage.params[0]](value)
    if stage.name == "external":
        line = value if isinstance(value, str) else " ".join(value)
        return _external_for(stage.params[0]).process_line(line)
    if stage.name == "case_fold":
        if stage.params == ("off",):
            return value
        if isinstance(value, str):
            return value.lower()
        return [t.lower() for t in value]
    if stage.name == "stem":
        if stage.params == ("off",):
            return value
        return [porter.stem(t) if t.isascii() and t.isalpha() else t for t in value]
    if stage.name == "stopword_filter":
        if stage.params == ("off",):
            return value
        return [t for t in value if t not in stopword_sets[stage.params[0]]]
    if stage.name == "strip_special":
        if stage.params == ("off",):
            return value
        return [t for t in value if any(ch.isalnum() for ch in t)]
    raise AssertionError(f"unknown stage {stage.name!r}")


def _reference_tokenize_default(line):
    """Reference default tokenizer: split on whitespace, then peel the
    punctuation and symbol characters off each chunk one at a time."""
    tokens = []
    for chunk in line.split():
        lead, trail = [], []
        while chunk and unicodedata.category(chunk[0])[0] in "PS":
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and unicodedata.category(chunk[-1])[0] in "PS":
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens += lead + ([chunk] if chunk else []) + trail[::-1]
    return tokens


def _reference_run(p, raw):
    stopword_sets = {ref: frozenset(text.split()) for ref, text in p.resources}
    value = raw
    for stage in p.stages:
        value = _apply_stage(stage, value, stopword_sets)
    assert isinstance(value, list)
    return value


WORDS = ["The", "running", "nets,", "of", "(quoted)", "state-of-the-art", "--", "v2", "1999.",
         "Café", "ÉCOLE", "İstanbul", "straße", "theory.", "caresses", "a", "AND", "²"]
any_line = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(WORDS), st.text(max_size=6)), max_size=12).map(" ".join),
)


@st.composite
def stage_lists(draw):
    on_off = st.sampled_from(["on", "off"])
    tokenize = Stage("tokenize", (draw(st.sampled_from(["default", "whitespace"])),))
    fold = Stage("case_fold", (draw(on_off),))
    user_list = "\n".join(draw(st.lists(st.one_of(st.sampled_from(WORDS), st.text(max_size=4)))))
    resources = {
        "off": (),
        "builtin": ((BUILTIN_STOPWORDS, builtin_stopwords_text()),),
        "user": ((content_ref(user_list), user_list),),
    }[draw(st.sampled_from(["off", "builtin", "user"]))]
    stop_ref = resources[0][0] if resources else "off"
    need_tokens = [
        Stage("stem", (draw(on_off),)),
        Stage("stopword_filter", (stop_ref,)),
        Stage("strip_special", (draw(st.sampled_from(["default", "off"])),)),
    ]
    if draw(st.booleans()):
        need_tokens.append(fold)
        before = []
    else:
        before = [fold]
    after = []
    for stage in draw(st.permutations(need_tokens)):
        # a stage that is off may stand anywhere
        if stage.params == ("off",) and draw(st.booleans()):
            before.append(stage)
        else:
            after.append(stage)
    return PipelineDescriptor(tuple(before + [tokenize] + after), resources)


def test_no_alphanumeric_character_is_punctuation_or_symbol():
    # The default tokenizer keeps a chunk that starts and ends with an
    # alphanumeric character whole, without looking for anything to peel.
    clashes = [
        hex(c) for c in range(sys.maxunicode + 1)
        if chr(c).isalnum() and unicodedata.category(chr(c))[0] in "PS"
    ]
    assert clashes == []


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    any_line, st.lists(st.sampled_from(list("a1,(²é$_-Ⅻ½ \t")), max_size=20).map("".join)
))
def test_default_tokenizer_matches_the_peeling_reference(line):
    assert _TOKENIZERS["default"](line) == _reference_tokenize_default(line)


@settings(max_examples=300, deadline=None)
@given(stage_lists(), any_line)
def test_run_pipeline_matches_the_reference_interpreter(p, raw):
    expected = _reference_run(p, raw)
    assert run_pipeline(p, raw) == expected
    reloaded = pickle.loads(pickle.dumps(p))
    assert reloaded.hash == p.hash
    assert run_pipeline(reloaded, raw) == expected


def test_external_after_tokenize_gets_the_tokens_joined_by_spaces():
    show_spaces = "print(line.strip().replace(' ', '_'), flush=True)"
    cmd = f'{sys.executable} -u -c "import sys\nfor line in sys.stdin: {show_spaces}"'
    tok, fold = Stage("tokenize", ("default",)), Stage("case_fold", ("on",))
    p = PipelineDescriptor((tok, fold, Stage("external", (cmd, "x"))))
    raw = "Nets,\tNets!"
    assert run_pipeline(p, raw) == _reference_run(p, raw) == ["nets_,_nets_!"]


def test_a_hung_external_stage_times_out_and_the_next_call_restarts_it(monkeypatch):
    import subprocess

    from wecdb import pipeline
    from wecdb.errors import ExternalStageError

    monkeypatch.setattr(pipeline, "_EXTERNAL_TIMEOUT_S", 0.5)
    started = []
    popen = subprocess.Popen

    def recorded(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recorded)
    cmd = f'{sys.executable} -c "import sys, time; sys.stdin.readline(); time.sleep(60)"'
    runner = _ExternalProcess(cmd)
    for call in (1, 2):
        began = time.monotonic()
        with pytest.raises(ExternalStageError, match=r"within 0\.5 s") as excinfo:
            runner.process_line("one")
        assert cmd in str(excinfo.value)
        assert time.monotonic() - began < 10
        assert runner.proc is None
        assert len(started) == call  # each call started its own process
        killed = started[-1]
        assert killed.returncode is not None
        assert killed.stdin.closed and killed.stdout.closed
    runner.close()


def test_a_stage_that_stops_reading_times_out_on_a_long_request(monkeypatch):
    from wecdb import pipeline
    from wecdb.errors import ExternalStageError

    monkeypatch.setattr(pipeline, "_EXTERNAL_TIMEOUT_S", 0.5)
    # the request is far larger than a pipe holds, and nothing reads it
    runner = _ExternalProcess(f'{sys.executable} -c "import time; time.sleep(60)"')
    began = time.monotonic()
    with pytest.raises(ExternalStageError, match=r"within 0\.5 s"):
        runner.process_line("x" * (1 << 20))
    assert time.monotonic() - began < 10
    assert runner.proc is None


def test_a_request_larger_than_the_pipe_reaches_the_stage_whole():
    runner = _ExternalProcess(
        f'{sys.executable} -u -c "import sys\nfor line in sys.stdin: print(len(line.split()))"'
    )
    assert runner.process_line("é " * 300_000) == ["300000"]
    assert runner.process_line("a b") == ["2"]
    runner.close()


def test_external_stage_lines_are_read_one_per_request():
    # two answers written at once, then one in two pieces: each request
    # gets exactly one line, with universal newlines as in readline()
    script = (
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('a b\\r\\nc\\n'); sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('d'); sys.stdout.flush(); time.sleep(0.2)\n"
        "sys.stdout.write(' e\\n'); sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('tail')\n"
    )
    runner = _ExternalProcess(f"{sys.executable} -c {shlex.quote(script)}")
    assert runner.process_line("1") == ["a", "b"]
    assert runner.process_line("2") == ["c"]
    assert runner.process_line("3") == ["d", "e"]
    assert runner.process_line("4") == ["tail"]  # last output without a newline
    runner.close()


def test_an_answer_ends_at_newline_alone():
    # an inner \r is whitespace inside the answer, not the end of a line
    script = (
        "import sys\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('x\\ry\\n'); sys.stdout.flush()\n"
        "for line in sys.stdin: print(line.strip(), flush=True)\n"
    )
    runner = _ExternalProcess(f"{sys.executable} -c {shlex.quote(script)}")
    try:
        assert runner.process_line("1") == ["x", "y"]
        assert runner.process_line("2") == ["2"]
    finally:
        runner.close()


def test_a_request_reaches_the_stage_as_utf8_bytes():
    script = (
        "import sys\n"
        "for line in iter(sys.stdin.buffer.readline, b''):\n"
        "    sys.stdout.buffer.write(line.rstrip(b'\\n').hex().encode() + b'\\n')\n"
        "    sys.stdout.buffer.flush()\n"
    )
    runner = _ExternalProcess(f"{sys.executable} -c {shlex.quote(script)}")
    try:
        assert runner.process_line("café") == ["636166c3a9"]
        assert runner.process_line("a\nb") == ["612062"]  # an inner newline is sent as a space
    finally:
        runner.close()
