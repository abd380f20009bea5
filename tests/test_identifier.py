import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from wecdb import IdentifierError, parse_identifier, parse_query
from wecdb.identifier import WecIdentifier, parse_filter

GOOGLENEWS = "algo:w2v;dataset:googlenews;dims:300;fold:0;unit:token"


def test_parse_googlenews_identifier():
    ident = parse_identifier(GOOGLENEWS)
    assert len(ident.attributes) == 5
    assert ident["algo"] == "w2v"
    assert ident.dims == 300
    assert ident.fold == 0
    assert ident.unit == "token"


def test_attribute_order_is_irrelevant():
    permuted = "dims:300;algo:w2v;dataset:googlenews;unit:token;fold:0"
    assert parse_identifier(permuted) == parse_identifier(GOOGLENEWS)
    assert parse_identifier(permuted).normalized() == parse_identifier(GOOGLENEWS).normalized()


def test_missing_system_key_is_an_error():
    with pytest.raises(IdentifierError, match="dataset"):
        parse_identifier("algo:w2v;dims:300;fold:0;unit:token")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("algo:w2v;algo:glove;dataset:d;dims:1;fold:0;unit:token", "duplicate key"),
        ("algo:w2v;dataset:d;dims:zero;fold:0;unit:token", "dims"),
        ("algo:w2v;dataset:d;dims:0;fold:0;unit:token", "dims"),
        # Unicode digits that str.isdigit accepts and int() may not
        ("algo:w2v;dataset:d;dims:\u00b2;fold:0;unit:token", "dims"),
        ("algo:w2v;dataset:d;dims:\u0665;fold:0;unit:token", "dims"),
        ("algo:w2v;dataset:d;dims:1;fold:2;unit:token", "fold"),
        ("algo:w2v;dataset:d;dims:1;fold:0;unit:", "empty value"),
        ("algo;dataset:d;dims:1;fold:0;unit:token", "malformed pair"),
        ("Algo:w2v;dataset:d;dims:1;fold:0;unit:token", "invalid key"),
        ("algo:w 2v;dataset:d;dims:1;fold:0;unit:token", "whitespace"),
        ("algo:{w2v};dataset:d;dims:1;fold:0;unit:token", "brace"),
        ("", "empty"),
    ],
)
def test_identifier_rejections(text, fragment):
    with pytest.raises(IdentifierError, match=fragment):
        parse_identifier(text)


def test_identifier_built_from_attributes_refuses_a_repeated_key():
    system = (("dataset", "d"), ("dims", "1"), ("fold", "0"), ("unit", "token"))
    with pytest.raises(IdentifierError, match="duplicate key in identifier attributes"):
        WecIdentifier((("algo", "a"), ("algo", "b")) + system)


@pytest.mark.parametrize("text", ["", "  "])
def test_empty_filter_is_refused(text):
    with pytest.raises(IdentifierError, match="empty spec"):
        parse_filter(text)


def test_normalize_sorts_keys_lexicographically():
    ident = WecIdentifier.from_attributes(
        {"dims": "50", "algo": "glove", "dataset": "6b", "fold": "1", "unit": "token"}
    )
    assert ident.normalized() == "algo:glove;dataset:6b;dims:50;fold:1;unit:token"


def test_user_key_sorts_between_system_keys():
    ident = WecIdentifier.from_attributes(
        {"algo": "a", "conflate": "0", "dataset": "d", "dims": "1", "fold": "0", "unit": "token"}
    )
    keys = [k for k, _ in ident.attributes]
    assert keys == sorted(keys)
    assert ident.normalized() == "algo:a;conflate:0;dataset:d;dims:1;fold:0;unit:token"


def test_normalize_is_idempotent():
    ident = parse_identifier("zeta:9;algo:w2v;dataset:d;dims:7;fold:1;unit:stem")
    once = ident.normalized()
    assert parse_identifier(once).normalized() == once


def test_grid_expansion_follows_supplied_value_order():
    query = parse_query("algo:glove;dataset:6b;dims:{50,100,200,300};fold:1;unit:token")
    assert [i["dims"] for i in query.expanded] == ["50", "100", "200", "300"]
    assert len(query) == 4


def test_query_iterates_over_its_expansion():
    query = parse_query("algo:g;dataset:d;dims:{1,2};fold:0;unit:token")
    assert list(query) == list(query.expanded)
    assert [ident.dims for ident in query] == [1, 2]


def test_identifier_prints_as_its_normalized_form():
    ident = parse_identifier("unit:token;fold:0;dims:300;dataset:googlenews;algo:w2v")
    assert str(ident) == ident.normalized() == GOOGLENEWS
    assert f"{ident}" == GOOGLENEWS


def test_ampersand_concatenates_in_supplied_order():
    query = parse_query(
        "algo:x;dataset:d;dims:1;fold:0;unit:token&algo:x;dataset:e;dims:1;fold:0;unit:token"
    )
    assert [i["dataset"] for i in query.expanded] == ["d", "e"]


def test_multi_brace_expansion_is_leftmost_slowest():
    query = parse_query("algo:{g,w};dataset:d;dims:{1,2};fold:0;unit:token")
    got = [(i["algo"], i["dims"]) for i in query.expanded]
    # oracle: explicit nested loops, leftmost attribute outermost
    expected = [(a, d) for a in ("g", "w") for d in ("1", "2")]
    assert got == expected


def test_query_trims_line_continuation_whitespace():
    query = parse_query(
        "algo:glove;dataset:6b;dims:{50,100};fold:1;unit:token&\n"
        "        algo:glove;dataset:42b;dims:300;fold:1;unit:token"
    )
    assert len(query) == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("algo:{};dataset:d;dims:1;fold:0;unit:token", "empty brace"),
        ("algo:{a,{b}};dataset:d;dims:1;fold:0;unit:token", "nested braces"),
        ("algo:{a,a};dataset:d;dims:1;fold:0;unit:token", "duplicate expanded"),
        ("algo:a;dataset:d;dims:1;fold:0;unit:token&algo:a;dataset:d;dims:1;fold:0;unit:token",
         "duplicate expanded"),
        ("algo:{a;dataset:d;dims:1;fold:0;unit:token", "brace"),
        ("&algo:a;dataset:d;dims:1;fold:0;unit:token", "empty spec"),
        ("", "empty spec"),
    ],
)
def test_query_rejections(text, fragment):
    with pytest.raises(IdentifierError, match=fragment):
        parse_query(text)


# -- property tests ---------------------------------------------------------

_keys = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_values = st.text(
    alphabet=st.characters(
        codec="ascii", min_codepoint=33, max_codepoint=126, exclude_characters=";:&{},"
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def identifiers(draw):
    attrs = {
        "algo": draw(_values),
        "dataset": draw(_values),
        "dims": str(draw(st.integers(min_value=1, max_value=9999))),
        "fold": draw(st.sampled_from(["0", "1"])),
        "unit": draw(st.sampled_from(["token", "stem", "lemma"])),
    }
    extra = draw(st.dictionaries(_keys, _values, max_size=3))
    for key, value in extra.items():
        attrs.setdefault(key, value)
    return WecIdentifier.from_attributes(attrs)


@settings(max_examples=80, deadline=None)
@given(identifiers())
def test_round_trip_parse_normalize(ident):
    assert parse_identifier(ident.normalized()) == ident
    assert ident.normalized() == ";".join(f"{k}:{v}" for k, v in sorted(ident.attributes))
    assert ident.dims == int(ident["dims"])
    # the stored forms are not fields, and travel with a pickled copy
    assert [f.name for f in dataclasses.fields(ident)] == ["attributes"]
    copy = pickle.loads(pickle.dumps(ident))
    assert (copy, copy.normalized(), copy.dims) == (ident, ident.normalized(), ident.dims)


@settings(max_examples=80, deadline=None)
@given(identifiers(), st.randoms())
def test_permutation_invariance(ident, rng):
    pairs = [f"{k}:{v}" for k, v in ident.attributes]
    rng.shuffle(pairs)
    assert parse_identifier(";".join(pairs)).normalized() == ident.normalized()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_values, min_size=1, max_size=3, unique=True), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=99),
)
def test_expansion_count_is_product_of_brace_sizes(value_sets, dims):
    pairs = [f"attr{i}:{{{','.join(vs)}}}" for i, vs in enumerate(value_sets)]
    spec = ";".join(pairs + [f"algo:a;dataset:d;dims:{dims};fold:0;unit:token"])
    expected = 1
    for vs in value_sets:
        expected *= len(vs)
    query = parse_query(spec)
    assert len(query.expanded) == expected
    # oracle: brute-force product reproduces the expansion order
    keys = [f"attr{i}" for i in range(len(value_sets))]
    oracle = [
        dict(zip(keys, combo)) for combo in itertools.product(*value_sets)
    ]
    got = [{k: ident[k] for k in keys} for ident in query.expanded]
    assert got == oracle


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_fuzz_only_structured_errors(text):
    for parse in (parse_identifier, parse_query):
        try:
            parse(text)
        except IdentifierError:
            pass


def test_parse_identifier_validates_each_value_once(monkeypatch):
    from wecdb import identifier

    calls = []
    check = identifier._validate_value

    def counting(key, value):
        calls.append(key)
        return check(key, value)

    monkeypatch.setattr(identifier, "_validate_value", counting)
    ident = parse_identifier("zeta:9;" + GOOGLENEWS)
    assert sorted(calls) == [k for k, _ in ident.attributes]


@settings(max_examples=80, deadline=None)
@given(identifiers(), st.randoms())
def test_atomic_identifier_parses_as_a_one_identifier_query(ident, rng):
    pairs = [f"{k}:{v}" for k, v in ident.attributes]
    rng.shuffle(pairs)
    text = " ; ".join(pairs)
    (expanded,) = parse_query(text).expanded
    assert parse_identifier(text) == expanded == ident
