import dataclasses
import re
from pathlib import Path

import pytest

from wecdb import (
    Catalog,
    CatalogError,
    Database,
    DuplicateEntryError,
    IdentifierError,
    PipelineError,
    UnknownWecError,
    parse_identifier,
    train_phrase_model,
)
from wecdb import catalog as catalog_mod
from wecdb import pipeline as pipeline_mod
from wecdb.catalog import store_filename
from wecdb.pipeline import (
    PipelineDescriptor,
    Stage,
    build_pipeline,
    content_ref,
    pipeline_for_identifier,
    run_pipeline,
)

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


@pytest.mark.parametrize("source", ["a\tb.txt", "a\nb.txt"])
def test_source_holding_a_tab_or_newline_is_refused(catalog, source):
    with pytest.raises(CatalogError, match="source path may not contain tabs or newlines"):
        _register(catalog, SEVEN[0], source=source)
    assert catalog.list_entries() == []


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
    assert catalog.delete(SEVEN[0], force=True).normalized == SEVEN[0]
    assert catalog.lookup(SEVEN[0]) is None
    with pytest.raises(UnknownWecError, match="no WEC registered"):
        catalog.delete(SEVEN[0], force=True)


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


def test_an_unchanged_entry_writes_no_manifest(catalog, monkeypatch):
    _register(catalog, SEVEN[0], phrase_model=_model())
    writes = []
    write_manifest = Catalog._write_manifest

    def counted(self, entries):
        writes.append(entries)
        write_manifest(self, entries)

    monkeypatch.setattr(Catalog, "_write_manifest", counted)
    catalog.set_vocab_size(SEVEN[0], 0)  # the value it has
    catalog.set_phrase_model(SEVEN[0], _model())  # a retrain keeps the model's file name
    assert writes == []
    catalog.set_vocab_size(SEVEN[0], 7)
    assert len(writes) == 1 and catalog.require(SEVEN[0]).vocab_size == 7


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
    with pytest.raises(CatalogError, match=r"catalog\.manifest:3: corrupt manifest line"):
        catalog.require(SEVEN[0])


def test_manifest_phrases_field_must_be_known(catalog):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(catalog, lambda cols: "\t".join(cols[:5] + ["phrase:x"] + cols[6:]))
    with pytest.raises(CatalogError,
                       match=r"catalog\.manifest:3: corrupt phrases field 'phrase:x'"):
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


@pytest.mark.parametrize(
    "edit, found",
    [
        (lambda lines: ["# wecdb catalog v2"] + lines[1:], "'# wecdb catalog v2'"),
        (lambda lines: lines[1:], r"'# identifier\\tdims\\t.*'"),
    ],
)
def test_manifest_without_the_v1_header_is_refused_naming_it(catalog, edit, found):
    # a later format, or a file that is no manifest, must not be read as v1
    _register(catalog, SEVEN[0])
    manifest = catalog.root / "catalog.manifest"
    lines = edit(manifest.read_text("utf-8").splitlines())
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(
        CatalogError,
        match=rf"catalog\.manifest: first line {found} is not the header '# wecdb catalog v1'",
    ):
        catalog.require(SEVEN[0])


def test_manifest_that_is_not_utf8_is_refused_naming_it(catalog):
    _register(catalog, SEVEN[0])
    manifest = catalog.root / "catalog.manifest"
    manifest.write_bytes(manifest.read_bytes().replace(b"glove", b"gl\xffve", 1))
    with pytest.raises(CatalogError, match=r"catalog\.manifest is not UTF-8 text"):
        catalog.list_entries()


PATH_NAMES = [
    (6, ""), (6, "."), (6, ".."), (6, "../other.wec"), (6, "a\0b.wec"),
    (5, "model:"), (5, "model:.."), (5, "model:sub/m.phr"), (5, "model:m\0.phr"),
]


@pytest.mark.parametrize("column, value", PATH_NAMES)
def test_manifest_file_names_must_be_plain(catalog, column, value):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(
        catalog, lambda cols: "\t".join(cols[:column] + [value] + cols[column + 1 :])
    )
    with pytest.raises(CatalogError, match=r"catalog\.manifest:3: .* is not a plain file name"):
        catalog.list_entries()


@pytest.mark.parametrize(
    "column, value, message, cause",
    [
        (0, "algo:a b", "whitespace in value for key 'algo'", IdentifierError),
        (4, "tokenize(default", "malformed stage 'tokenize(default'", PipelineError),
        (4, "tokenize(nope)", "unknown tokenize rule set", PipelineError),
        (3, "0" * 16, "pipeline hash mismatch for 'algo:glove;", None),
        (4, "tokenize(default) | stopword_filter(elsewhere)",
         "unresolvable stopword list ref 'elsewhere'", None),
    ],
)
def test_manifest_record_that_fails_to_parse_names_its_line(catalog, column, value, message,
                                                            cause):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(
        catalog, lambda cols: "\t".join(cols[:column] + [value] + cols[column + 1 :])
    )
    with pytest.raises(CatalogError, match=rf"catalog\.manifest:3: {re.escape(message)}") as info:
        catalog.list_entries()
    assert cause is None or isinstance(info.value.__cause__, cause)


def test_manifest_record_whose_stopword_list_is_missing_names_its_line(catalog, tmp_path):
    listfile = tmp_path / "my-stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    ident = parse_identifier(SEVEN[0])
    catalog.register(ident, pipeline_for_identifier(ident, stopwords=listfile))
    (copy,) = (catalog.root / "lists").glob("*.txt")
    copy.unlink()
    with pytest.raises(
        CatalogError, match=r"catalog\.manifest:3: stopword list 'list:\w+' missing from catalog"
    ):
        catalog.list_entries()


def test_stopword_list_copy_that_is_not_utf8_is_refused_naming_it(catalog, tmp_path):
    listfile = tmp_path / "my-stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    ident = parse_identifier(SEVEN[0])
    catalog.register(ident, pipeline_for_identifier(ident, stopwords=listfile))
    (copy,) = (catalog.root / "lists").glob("*.txt")
    copy.write_bytes(b"alpha\nb\xffta\n")
    with pytest.raises(CatalogError, match=rf"catalog\.manifest:3: {re.escape(str(copy))}"
                                           " is not UTF-8 text"):
        catalog.list_entries()


def test_manifest_deleted_after_open_is_refused_naming_it(tmp_path):
    with Database(tmp_path / "cat", create_if_missing=True) as db:
        db.register(SEVEN[0])
        (db.root / "catalog.manifest").unlink()
        for read in (lambda: db.get_vector(SEVEN[0], "a"), db.catalog.list_entries):
            with pytest.raises(CatalogError, match=r"catalog\.manifest is missing"):
                read()


def _duplicate_first_record(lines):
    """The first record twice, the copy naming a store of its own."""
    cols = lines[2].split("\t")
    return lines + ["\t".join(cols[:6] + ["copy.wec"] + cols[7:])]


def _share_first_store(lines):
    """The second record naming the first record's store file."""
    cols = lines[3].split("\t")
    return lines[:3] + ["\t".join(cols[:6] + [lines[2].split("\t")[6]] + cols[7:])]


def _permute_first_identifier(lines):
    cols = lines[2].split("\t")
    cols[0] = ";".join(reversed(cols[0].split(";")))
    return lines[:2] + ["\t".join(cols)] + lines[3:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_permute_first_identifier,
         r":3: identifier 'unit:token;fold:1;dims:100;.*' is not in its normalized form"),
        (_duplicate_first_record, r":5: identifier 'algo:glove;.*;dims:100;.*' is on an earlier line"),
        (_share_first_store, r":4: store '.*dims=100.*\.wec' belongs to an earlier record"),
    ],
)
def test_manifest_record_that_contradicts_the_catalog_names_its_line(catalog, edit, message):
    # a later line must not silently replace an earlier one, an identifier
    # must be listed as it is looked up, and deleting one record must not
    # unlink another record's store
    _register(catalog, SEVEN[0])
    _register(catalog, SEVEN[1])
    manifest = catalog.root / "catalog.manifest"
    lines = edit(manifest.read_text("utf-8").splitlines())
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=r"catalog\.manifest" + message):
        catalog.list_entries()


@pytest.mark.parametrize("length", ["0", "1"])
def test_manifest_vocab_join_shorter_than_two_names_its_line(catalog, length):
    _register(catalog, SEVEN[0], vocab_join_max_len=2)
    _rewrite_manifest_line(catalog, lambda cols: "\t".join(cols[:5] + [f"vocab:{length}"] + cols[6:]))
    with pytest.raises(
        CatalogError, match=r"catalog\.manifest:3: algo:glove;.*: vocab_join_max_len must be >= 2"
    ):
        catalog.list_entries()
    with pytest.raises(CatalogError, match="vocab_join_max_len must be >= 2"):
        _register(catalog, SEVEN[1], vocab_join_max_len=int(length))


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


def test_stopword_list_recorded_with_a_byte_order_mark_passes_its_hash_check(catalog):
    # a captured list keeps no mark, but a catalog may hold a copy recorded with one
    text = "\ufeffalpha\nbeta\n"
    ref = content_ref(text)
    ident = parse_identifier(SEVEN[0])
    stages = tuple(Stage("stopword_filter", (ref,)) if stage.name == "stopword_filter" else stage
                   for stage in pipeline_for_identifier(ident).stages)
    entry = catalog.register(ident, PipelineDescriptor(stages, ((ref, text),)))
    assert (catalog.root / "lists" / f"{ref[5:]}.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert catalog.require(SEVEN[0]) == entry


def test_repeated_lookups_build_each_distinct_pipeline_at_most_once(catalog, monkeypatch):
    for text in SEVEN:
        _register(catalog, text)
    built = []
    build_steps = pipeline_mod._build_steps
    monkeypatch.setattr(pipeline_mod, "_build_steps",
                        lambda *args: built.append(args) or build_steps(*args))
    with Database(catalog.root) as db:
        assert db.get_vector(SEVEN[0], "theory") is None
        assert len(built) <= len(SEVEN)  # the first read parses each record once
        del built[:]
        for i in range(1, 100):
            assert db.get_vector(SEVEN[i % 7], "theory") is None
    assert built == []


def test_rewritten_stopword_list_fails_the_hash_check_after_a_good_read(catalog, tmp_path):
    listfile = tmp_path / "my-stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    ident = parse_identifier(SEVEN[0])
    entry = catalog.register(ident, pipeline_for_identifier(ident, stopwords=listfile))
    assert catalog.require(SEVEN[0]) == entry
    (copy,) = (catalog.root / "lists").glob("*.txt")
    copy.write_text("alpha\ngamma\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="pipeline hash mismatch"):
        catalog.require(SEVEN[0])
    copy.write_text("alpha\nbeta\n", encoding="utf-8")
    assert catalog.require(SEVEN[0]) == entry


@pytest.mark.parametrize(
    "column, value, message",
    [
        (0, "algo:a b", "whitespace in value for key 'algo'"),
        (4, "tokenize(default", "malformed stage 'tokenize(default'"),
    ],
)
def test_manifest_record_that_fails_to_parse_fails_every_read(catalog, column, value, message):
    _register(catalog, SEVEN[0])
    _rewrite_manifest_line(
        catalog, lambda cols: "\t".join(cols[:column] + [value] + cols[column + 1 :])
    )
    for _ in range(3):
        with pytest.raises(CatalogError, match=rf"catalog\.manifest:3: {re.escape(message)}"):
            catalog.list_entries()


def test_reads_of_an_unchanged_catalog_parse_each_record_once(catalog, monkeypatch):
    for text in SEVEN:
        _register(catalog, text)
    parsed = []
    parse = catalog_mod.parse_pipeline
    monkeypatch.setattr(catalog_mod, "parse_pipeline",
                        lambda *args: parsed.append(args) or parse(*args))
    first = catalog.require(SEVEN[3])
    assert catalog.require(SEVEN[3]) == first
    assert len(parsed) == len(SEVEN)


def test_a_registration_through_another_database_shows_on_the_next_read(tmp_path):
    with Database(tmp_path / "cat", create_if_missing=True) as first:
        first.register(SEVEN[0])
        assert [e.normalized for e in first.catalog.list_entries()] == [SEVEN[0]]
        with Database(tmp_path / "cat") as second:
            second.register(SEVEN[1])
        assert first.catalog.require(SEVEN[1]).normalized == SEVEN[1]
        assert len(first.catalog.list_entries()) == 2


def test_changing_the_entries_a_read_returned_leaves_the_next_read_whole(catalog):
    for text in SEVEN[:3]:
        _register(catalog, text)
    for _ in range(3):  # the first read parses, the later ones do not
        entries = catalog._load()
        assert entries == Catalog(catalog.root)._load()
        entries.clear()


def test_manifest_rewritten_with_the_same_bytes_reads_the_same_entries(catalog):
    for text in SEVEN[:3]:
        _register(catalog, text)
    before = catalog.list_entries()
    manifest = catalog.root / "catalog.manifest"
    inode = manifest.stat().st_ino
    catalog_mod._write_atomic(manifest, manifest.read_text("utf-8"))
    assert manifest.stat().st_ino != inode
    assert catalog.list_entries() == before


@pytest.mark.parametrize("read_first", [True, False])
def test_manifest_that_failed_to_parse_is_read_again_once_mended(catalog, read_first):
    _register(catalog, SEVEN[0])
    manifest = catalog.root / "catalog.manifest"
    good = manifest.read_text("utf-8")
    if read_first:
        assert catalog.require(SEVEN[0]).normalized == SEVEN[0]
    _rewrite_manifest_line(catalog, lambda cols: "\t".join(cols[:8]))
    with pytest.raises(CatalogError, match=r"catalog\.manifest:3: corrupt manifest line"):
        catalog.require(SEVEN[0])
    manifest.write_text(good, encoding="utf-8")
    assert catalog.require(SEVEN[0]) == Catalog(catalog.root).require(SEVEN[0])


def test_create_if_missing_keeps_a_catalog_made_since_its_check(tmp_path, monkeypatch):
    root = tmp_path / "cat"
    _register(Catalog(root, create_if_missing=True), SEVEN[0])
    manifest = root / "catalog.manifest"
    # another process makes the catalog and registers into it between this
    # process's check and its write: the check answers False once
    answers = [False]
    exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda path: answers.pop()
                        if path == manifest and answers else exists(path))
    catalog = Catalog(root, create_if_missing=True)
    assert answers == []
    assert [e.normalized for e in catalog.list_entries()] == [SEVEN[0]]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda copy: copy.unlink(), r"stopword list 'list:\w+' missing from catalog"),
        (lambda copy: copy.write_bytes(b"alpha\nb\xffta\n"), r"\S+\.txt is not UTF-8 text"),
    ],
    ids=["missing", "not-utf8"],
)
def test_stopword_list_copy_damaged_after_a_good_read_names_its_line(catalog, tmp_path, damage,
                                                                    message):
    listfile = tmp_path / "my-stops.txt"
    listfile.write_text("alpha\nbeta\n", encoding="utf-8")
    ident = parse_identifier(SEVEN[0])
    entry = catalog.register(ident, pipeline_for_identifier(ident, stopwords=listfile))
    assert catalog.require(SEVEN[0]) == entry
    (copy,) = (catalog.root / "lists").glob("*.txt")
    damage(copy)
    with pytest.raises(CatalogError, match=rf"catalog\.manifest:3: {message}"):
        catalog.require(SEVEN[0])
