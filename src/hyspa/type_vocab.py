"""Ordered type vocabulary: the type block of the hybrid-span index space.

The index space is laid out as real edge types, then the three virtual edge
types, then node types, then text spans.  ``l_e`` and ``l_p`` are the two
boundaries all other modules key off.  A ``TypeVocab`` is plain data: its
names, both bounds and the indices of [SOS], [EOS], [SEP], [TYPE] and [NULL]
are computed once, when it is built, and read as attributes by the codec, the
constraint machine and the training tape.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

SOS = "[SOS]"
EOS = "[EOS]"
SEP = "[SEP]"
TYPE_EDGE = "[TYPE]"
NULL_TYPE = "[NULL]"

VIRTUAL_EDGE_TYPES = (SOS, EOS, SEP)


class VocabError(ValueError):
    """Raised for malformed vocabulary definitions."""


@dataclass(frozen=True)
class TypeVocab:
    """Immutable ordered layout: edge types ++ virtual edge types ++ node types.

    Equality and hashing read the two name tuples alone.  The layout is
    computed from them once, when the vocabulary is built, and read as plain
    attributes: ``names``, the bounds ``l_e`` and ``l_p``, and ``sos_index``,
    ``eos_index``, ``sep_index``, ``type_edge_index`` and ``null_type_index``.
    """

    edge_types: tuple[str, ...]
    node_types: tuple[str, ...]
    virtual_edge_types: ClassVar[tuple[str, ...]] = VIRTUAL_EDGE_TYPES

    def __post_init__(self):
        names = self.edge_types + self.virtual_edge_types + self.node_types
        index = {name: i for i, name in enumerate(names)}
        base = len(self.edge_types)
        self.__dict__.update(  # frozen: set once, here, and never again
            names=names, l_e=base + len(self.virtual_edge_types), l_p=len(names), _index=index,
            sos_index=base, eos_index=base + 1, sep_index=base + 2,
            type_edge_index=index.get(TYPE_EDGE), null_type_index=index.get(NULL_TYPE),
        )

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VocabError(f"unknown type name: {name!r}") from None

    def name(self, k: int) -> str:
        if not 0 <= k < self.l_p:
            raise VocabError(f"type index {k} outside [0, {self.l_p})")
        return self.names[k]

    @property
    def real_edge_indices(self) -> range:
        return range(len(self.edge_types))

    @property
    def node_type_indices(self) -> range:
        return range(self.l_e, self.l_p)

    def config_hash(self) -> str:
        blob = json.dumps({"edge_types": self.edge_types, "node_types": self.node_types})
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_vocab(edge_names, node_names) -> TypeVocab:
    """Assemble a TypeVocab, inserting [SOS], [EOS], [SEP] between edges and nodes.

    ``edge_names`` must contain [TYPE]; ``node_names`` must contain [NULL].
    """
    edge_names = tuple(edge_names)
    node_names = tuple(node_names)
    all_names = list(edge_names) + list(VIRTUAL_EDGE_TYPES) + list(node_names)
    seen = set()
    for name in all_names:
        if name in seen:
            raise VocabError(f"duplicate type name: {name!r}")
        seen.add(name)
    if TYPE_EDGE not in edge_names:
        raise VocabError(f"edge types must include {TYPE_EDGE}")
    if NULL_TYPE not in node_names:
        raise VocabError(f"node types must include {NULL_TYPE}")
    return TypeVocab(edge_types=edge_names, node_types=node_names)


def load_vocab(path) -> TypeVocab:
    """Read a vocab config file: {"edge_types": [...], "node_types": [...]},
    two lists of strings that ``build_vocab`` accepts; any other content
    raises VocabError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
        lists = [doc.get(key) for key in ("edge_types", "node_types")] if isinstance(doc, dict) else [None]
        if not all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in lists):
            raise VocabError("not an object with lists of strings edge_types and node_types")
        return build_vocab(*lists)
    except (ValueError, RecursionError) as err:  # not JSON, not UTF-8, nested too deep, or no vocabulary
        raise VocabError(f"vocab {path}: {err}") from None


def segment_ids(vocab: TypeVocab, n: int) -> list[int]:
    """Meta-type id per row of H: 0 edge, 1 virtual edge, 2 node type, 3 text."""
    if n < 1:
        raise VocabError(f"n must be >= 1, got {n}")
    return (
        [0] * len(vocab.edge_types)
        + [1] * len(vocab.virtual_edge_types)
        + [2] * len(vocab.node_types)
        + [3] * n
    )
