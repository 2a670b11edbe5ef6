"""Invertible graph-to-sequence codec with a constrained hybrid-span decoder."""

from .altseq_codec import (
    AltSequence,
    SequenceDecodeError,
    Traversal,
    decode_sequence,
    encode,
    encode_bfs,
    encode_dfs,
    validate_sequence,
)
from .hybrid_index import TextSpan, span_rows, span_to_index
from .info_graph import (
    InfoGraph,
    Mention,
    OrderedGraph,
    RelationEdge,
    canonicalize,
    graph_equal,
    make_graph,
    validate_graph,
)
from .model import ExtractionModel, ModelConfig, TokenVocab
from .type_vocab import TypeVocab, build_vocab, segment_ids

__version__ = "0.1.0"

__all__ = [
    "AltSequence",
    "ExtractionModel",
    "InfoGraph",
    "Mention",
    "ModelConfig",
    "OrderedGraph",
    "RelationEdge",
    "SequenceDecodeError",
    "TextSpan",
    "TokenVocab",
    "Traversal",
    "TypeVocab",
    "build_vocab",
    "canonicalize",
    "decode_sequence",
    "encode",
    "encode_bfs",
    "encode_dfs",
    "graph_equal",
    "make_graph",
    "segment_ids",
    "span_rows",
    "span_to_index",
    "validate_graph",
    "validate_sequence",
]
