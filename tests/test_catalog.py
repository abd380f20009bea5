import dataclasses

import pytest

from wecdb import (
    Catalog,
    CatalogError,
    DuplicateEntryError,
    UnknownWecError,
    parse_identifier,
    train_phrase_model,
)
from wecdb.catalog import store_filename
from wecdb.pipeline import build_pipeline, pipeline_for_identifier, run_pipeline

# the seven collections of the sentence-similarity setup
SEVEN = (
    [f"algo:glove;dataset:6b;dims:{d};fold:1;unit:token" for d in (50, 100, 200, 300)]
    + [
        "algo:glove;dataset:42b;dims:300;fold:1;unit:token",
        "algo:glove;dataset:840b;dims:300;fold:0;unit:token",
        "algo:w2v;dataset:googlenews;dims:300;fold:0;unit:token",
    ]
)


def _register(catalog, text, **kwargs):
    ident = parse_identifier(text)
    return catalog.register(ident, pipeline_for_identifier(ident), **kwargs)


@pytest.fixture
def catalog(tmp_path):
    return Catalog(tmp_path / "cat", create_if_missing=True)


def test_register_starts_with_zero_vocab(catalog):
    entry = _register(catalog, SEVEN[-1], source="GoogleNews-vectors-negative300.txt")
    assert entry.vocab_size == 0
    assert entry.dims == 300
    assert entry.source_file == "GoogleNews-vectors-negative300.txt"


def test_duplicate_registration_names_existing_entry(catalog):
    _register(catalog, SEVEN[0])
    with pytest.raises(DuplicateEntryError, match="already registered"):
        _register(catalog, SEVEN[0])


def test_lookup_normalizes_attribute_order(catalog):
    _register(catalog, SEVEN[-1])
    permuted = "dims:300;unit:token;algo:w2v;fold:0;dataset:googlenews"
    entry = catalog.lookup(permuted)
    assert entry is not None
    assert entry.normalized == parse_identifier(SEVEN[-1]).normalized()


def test_lookup_unknown_returns_none(catalog):
    assert catalog.lookup(SEVEN[0]) is None
    with pytest.raises(UnknownWecError):
        catalog.require(SEVEN[0])


def test_list_entries_filters(catalog):
    for text in SEVEN:
        _register(catalog, text)
    assert len(catalog.list_entries()) == 7
    assert len(catalog.list_entries({"algo": "glove"})) == 6
    assert len(catalog.list_entries({"dims": "300"})) == 4
    assert len(catalog.list_entries({"algo": "glove", "dims": "300"})) == 3
    assert catalog.list_entries({"algo": "nope"}) == []


def test_list_entries_sorted_by_normalized_string(catalog):
    for text in reversed(SEVEN):
        _register(catalog, text)
    norms = [e.normalized for e in catalog.list_entries()]
    assert norms == sorted(norms)


def test_filter_intersection_is_subset(catalog):
    for text in SEVEN:
        _register(catalog, text)
    both = {e.normalized for e in catalog.list_entries({"algo": "glove", "fold": "1"})}
    only = {e.normalized for e in catalog.list_entries({"algo": "glove"})}
    assert both <= only


def test_catalog_survives_reopen_byte_identically(tmp_path):
    root = tmp_path / "cat"
    catalog = Catalog(root, create_if_missing=True)
    for text in SEVEN[:3]:
        _register(catalog, text)
    manifest = (root / "catalog.manifest").read_bytes()
    reopened = Catalog(root)
    assert [e.normalized for e in reopened.list_entries()] == [
        e.normalized for e in catalog.list_entries()
    ]
    assert (root / "catalog.manifest").read_bytes() == manifest
    entry = reopened.lookup(SEVEN[0])
    assert entry.pipeline.case_fold_enabled
    assert entry.pipeline_hash == entry.pipeline.hash


def test_pipeline_must_match_fold(catalog):
    ident = parse_identifier(SEVEN[0])  # fold:1
    with pytest.raises(CatalogError, match="fold"):
        catalog.register(ident, build_pipeline(case_fold=False))


def test_pipeline_must_match_unit(catalog):
    ident = parse_identifier("algo:a;dataset:d;dims:2;fold:1;unit:stem")
    with pytest.raises(CatalogError, match="unit"):
        catalog.register(ident, build_pipeline(case_fold=True, stem=False))


def test_user_stopword_list_copied_into_root(tmp_path):
    root = tmp_path / "cat"
    catalog = Catalog(root, create_if_missing=True)
    listfile = tmp_path / "my-stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    ident = parse_identifier(SEVEN[0])
    pipeline = pipeline_for_identifier(ident, stopwords=listfile)
    catalog.register(ident, pipeline)
    listfile.unlink()  # catalog copy must be self-sufficient
    reopened = Catalog(root)
    entry = reopened.lookup(SEVEN[0])
    assert entry.pipeline.hash == pipeline.hash
    copies = list((root / "lists").glob("*.txt"))
    assert len(copies) == 1


def test_builtin_stopword_pipeline_survives_reopen(tmp_path):
    root = tmp_path / "cat"
    catalog = Catalog(root, create_if_missing=True)
    ident = parse_identifier(SEVEN[0])
    pipeline = pipeline_for_identifier(ident, stopwords="en")
    catalog.register(ident, pipeline)
    entry = Catalog(root).lookup(SEVEN[0])
    assert entry.pipeline.hash == pipeline.hash
    assert run_pipeline(entry.pipeline, "The Theory") == ["theory"]


def test_delete_requires_force(catalog, tmp_path):
    _register(catalog, SEVEN[0])
    with pytest.raises(CatalogError, match="force"):
        catalog.delete(SEVEN[0])
    catalog.delete(SEVEN[0], force=True)
    assert catalog.lookup(SEVEN[0]) is None


def test_store_filename_encoding():
    name = store_filename("algo:glove;dataset:6b;dims:50;fold:1;unit:token")
    assert name == "algo=glove.dataset=6b.dims=50.fold=1.unit=token.wec"


def test_store_filename_falls_back_for_unsafe_or_long_names():
    unsafe = store_filename("algo:a/b;dataset:d;dims:1;fold:0;unit:token")
    assert "/" not in unsafe
    assert unsafe.endswith(".wec")
    longname = store_filename(
        "algo:" + "x" * 300 + ";dataset:d;dims:1;fold:0;unit:token"
    )
    assert len(longname) <= 120


def test_store_filename_collision_disambiguated(catalog):
    # substitution maps both identifiers to the same plain name
    a = parse_identifier("algo:x;dataset:d;db:y.dc=w;dims:1;fold:0;unit:token")
    b = parse_identifier("algo:x;dataset:d;db:y;dc:w;dims:1;fold:0;unit:token")
    assert store_filename(a.normalized()) == store_filename(b.normalized())
    e1 = catalog.register(a, pipeline_for_identifier(a))
    e2 = catalog.register(b, pipeline_for_identifier(b))
    assert e1.store_file != e2.store_file


def test_vocab_size_update_roundtrip(catalog):
    _register(catalog, SEVEN[0])
    catalog.set_vocab_size(SEVEN[0], 12345)
    assert catalog.lookup(SEVEN[0]).vocab_size == 12345


def _model():
    return train_phrase_model([["petri", "net"]] * 3, threshold=0.0)


def test_register_rejects_phrase_model_with_vocabulary_join(catalog):
    # a WEC joins phrases by a model or by its vocabulary, never both
    with pytest.raises(CatalogError, match="exclude each other"):
        _register(catalog, SEVEN[0], phrase_model=_model(), vocab_join_max_len=3)
    assert catalog.lookup(SEVEN[0]) is None
    assert list((catalog.root / "phrases").iterdir()) == []


def test_entry_carries_at_most_one_join_setting(catalog):
    entry = _register(catalog, SEVEN[0], phrase_model=_model())
    with pytest.raises(CatalogError, match="exclude each other"):
        dataclasses.replace(entry, vocab_join_max_len=3)
    _register(catalog, SEVEN[1], vocab_join_max_len=3)
    entry = catalog.set_phrase_model(SEVEN[1], _model())
    assert entry.vocab_join_max_len is None
    assert catalog.require(SEVEN[1]) == entry


def test_set_phrase_model_on_unknown_wec_writes_no_file(catalog):
    with pytest.raises(UnknownWecError):
        catalog.set_phrase_model(SEVEN[0], _model())
    assert list((catalog.root / "phrases").iterdir()) == []


def _rewrite_manifest_line(catalog, edit):
    manifest = catalog.root / "catalog.manifest"
    lines = manifest.read_text("utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[i] = edit(lines[i].split("\t"))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_manifest_line_with_wrong_column_count_is_refused(catalog):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(catalog, lambda cols: "\t".join(cols[:8]))
    with pytest.raises(CatalogError, match="corrupt manifest line"):
        catalog.require(SEVEN[0])


def test_manifest_phrases_field_must_be_known(catalog):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(catalog, lambda cols: "\t".join(cols[:5] + ["phrase:x"] + cols[6:]))
    with pytest.raises(CatalogError, match="corrupt phrases field 'phrase:x'"):
        catalog.require(SEVEN[0])



@pytest.mark.parametrize(
    "column, value, message",
    [
        (1, "300", "dims '300' contradicts dims:50"),
        (1, "fifty", "dims 'fifty' contradicts dims:50"),
        (2, "12k", "vocab_size '12k' is not a non-negative integer"),
        (2, "-1", "vocab_size '-1' is not a non-negative integer"),
        (5, "vocab:four", "vocab join length 'four' is not a non-negative integer"),
    ],
)
def test_manifest_with_a_bad_number_is_refused_naming_the_line(catalog, column, value, message):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(
        catalog, lambda cols: "\t".join(cols[:column] + [value] + cols[column + 1 :])
    )
    with pytest.raises(CatalogError, match=f"catalog.manifest:3: {message}"):
        catalog.require(SEVEN[0])


def test_entry_dims_and_pipeline_hash_are_derived(catalog):
    entry = _register(catalog, SEVEN[0])
    fields = {f.name for f in dataclasses.fields(entry)}
    assert "dims" not in fields and "pipeline_hash" not in fields
    assert (entry.dims, entry.pipeline_hash) == (50, entry.pipeline.hash)
    assert catalog.require(SEVEN[0]) == entry

def test_rewritten_stopword_list_fails_the_pipeline_hash_check(catalog, tmp_path):
    listfile = tmp_path / "my-stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    ident = parse_identifier(SEVEN[0])
    catalog.register(ident, pipeline_for_identifier(ident, stopwords=listfile))
    (copy,) = (catalog.root / "lists").glob("*.txt")
    copy.write_text("alpha\ngamma\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="pipeline hash mismatch"):
        catalog.require(SEVEN[0])
