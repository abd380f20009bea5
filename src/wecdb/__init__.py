"""wecdb: an embedded database for word embedding collections.

Import plain-text embedding files once, identify them by normalized
``attribute:value`` metadata, retrieve vectors lazily from an indexed
on-disk store, preprocess raw text reproducibly per collection (including
phrase joining), and run sentence/word similarity analyses on top.
"""

from .analyse import (
    DistanceRanking,
    SentenceVector,
    average_vector,
    cosine_distance,
    cosine_similarity,
    euclidean_distance,
    export_heatmap,
    pairwise_distances,
    similarity_matrix,
)
from .catalog import Catalog, CatalogEntry
from .db import Database
from .errors import (
    AnalysisError,
    CatalogError,
    DuplicateEntryError,
    DuplicateWordError,
    EmptyCorpusError,
    HeaderError,
    IdentifierError,
    MalformedLineError,
    PipelineError,
    StoreError,
    UndefinedDistanceError,
    UnknownWecError,
    WecdbError,
    WecImportError,
)
from .identifier import WecIdentifier, WecQuery, parse_identifier, parse_query
from .phrases import PhraseModel, apply_phrases_vocab, train_phrase_model
from .pipeline import (
    PipelineDescriptor,
    PreprocessCache,
    build_pipeline,
    pipeline_for_identifier,
    run_pipeline,
)
from .retrieve import RetrievalResult, UnitResult, get_vectors
from .store import ImportReport, WecStore

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "Database",
    "DistanceRanking",
    "DuplicateEntryError",
    "DuplicateWordError",
    "EmptyCorpusError",
    "HeaderError",
    "IdentifierError",
    "ImportReport",
    "MalformedLineError",
    "PhraseModel",
    "PipelineDescriptor",
    "PipelineError",
    "PreprocessCache",
    "RetrievalResult",
    "SentenceVector",
    "StoreError",
    "UndefinedDistanceError",
    "UnitResult",
    "UnknownWecError",
    "WecIdentifier",
    "WecImportError",
    "WecQuery",
    "WecStore",
    "WecdbError",
    "apply_phrases_vocab",
    "average_vector",
    "build_pipeline",
    "cosine_distance",
    "cosine_similarity",
    "euclidean_distance",
    "export_heatmap",
    "get_vectors",
    "pairwise_distances",
    "parse_identifier",
    "parse_query",
    "pipeline_for_identifier",
    "run_pipeline",
    "similarity_matrix",
    "train_phrase_model",
]
