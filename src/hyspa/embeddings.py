"""Positional and structural embeddings for alternating sequences.

BFS sequences get a traversal embedding summing three components: a sinusoidal
level embedding shared across each traversal level, a learned parent/child
vector on node positions, and a tree embedding encoding each position's
depth-3 path within its level.  DFS sequences get a learned per-level vector
plus a sinusoidal intra-level connection embedding.

This module annotates positions (``make_annotator``, one ``push`` per item)
and builds the constant inputs of those embeddings (``bfs_components`` /
``dfs_components``), the only place a position's level rows, role selector
and path one-hot are derived; the learned tables belong to the model.  The
training tape applies them to a whole batch and the inference engine to one
annotation at a time, with the same formula.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .altseq_codec import Traversal
from .type_vocab import TypeVocab

TREE_BRANCH_CAP = 32  # one-hot width per depth; deeper branches clamp to the last slot
DFS_LEVEL_TABLE = 1024  # learned DFS level vectors, reused modulo this size


class Role(enum.Enum):
    PARENT = "parent"
    CHILD = "child"
    EDGE = "edge"
    SEPARATOR = "separator"


@dataclass(frozen=True)
class PositionAnnotation:
    level: int
    role: Role
    # depth-3 path within the level's tree; -1 marks "not present at this depth"
    path: tuple[int, int, int]
    offset: int  # position within the level (DFS connection distance)


@functools.lru_cache(maxsize=8)
def _frequencies(d_m: int) -> np.ndarray:
    """The d_m/2 sinusoid frequencies, cached read-only: the decoder asks for
    one position row per step."""
    if d_m % 2 != 0:
        raise ValueError(f"d_m must be even, got {d_m}")
    half = np.arange(d_m // 2, dtype=np.float64)
    freqs = np.power(10000.0, -2.0 * half / d_m)
    freqs.flags.writeable = False
    return freqs


def sinusoidal(pos, d_m: int) -> np.ndarray:
    """Interleaved sin/cos position encoding; pos=0 gives [0, 1, 0, 1, ...].

    ``pos`` is an int or an integer array; the result has shape
    np.shape(pos) + (d_m,), each row computed as for its int.
    """
    angles = np.multiply.outer(pos, _frequencies(d_m))
    out = np.empty(angles.shape[:-1] + (d_m,))
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


class BfsAnnotator:
    """Incremental position annotator for BFS sequences.

    Annotations depend only on the prefix, so rows computed for a growing
    sequence never change; the decoder caches them.
    """

    def __init__(self, vocab: TypeVocab):
        self.vocab = vocab
        self.level = 0
        self.offset = 0
        self.edge_count = 0

    def push(self, k: int) -> PositionAnnotation:
        cap = TREE_BRANCH_CAP - 1
        if self.offset % 2 == 0:
            if self.offset == 0:
                ann = PositionAnnotation(self.level, Role.PARENT, (0, -1, -1), self.offset)
            else:
                branch = min(self.edge_count - 1, cap)
                ann = PositionAnnotation(self.level, Role.CHILD, (0, branch, 0), self.offset)
        elif k == self.vocab.sep_index:
            ann = PositionAnnotation(self.level, Role.SEPARATOR, (-1, -1, -1), self.offset)
        else:
            branch = min(self.edge_count, cap)
            self.edge_count += 1
            ann = PositionAnnotation(self.level, Role.EDGE, (0, branch, -1), self.offset)
        if k == self.vocab.sep_index:
            self.level += 1
            self.offset = 0
            self.edge_count = 0
        else:
            self.offset += 1
        return ann

    def copy(self) -> "BfsAnnotator":
        clone = BfsAnnotator(self.vocab)
        clone.level, clone.offset, clone.edge_count = self.level, self.offset, self.edge_count
        return clone


class DfsAnnotator:
    """Incremental annotator for DFS sequences: level index and intra-level offset."""

    def __init__(self, vocab: TypeVocab):
        self.vocab = vocab
        self.level = 0
        self.offset = 0

    def push(self, k: int) -> PositionAnnotation:
        role = Role.SEPARATOR if k == self.vocab.sep_index else Role.CHILD
        ann = PositionAnnotation(self.level, role, (-1, -1, -1), self.offset)
        if k == self.vocab.sep_index:
            self.level += 1
            self.offset = 0
        else:
            self.offset += 1
        return ann

    def copy(self) -> "DfsAnnotator":
        clone = DfsAnnotator(self.vocab)
        clone.level, clone.offset = self.level, self.offset
        return clone


def make_annotator(traversal: Traversal, vocab: TypeVocab):
    """A fresh annotator for the traversal; ``push`` each item of a sequence
    in turn to get its annotation."""
    return BfsAnnotator(vocab) if traversal == Traversal.BFS else DfsAnnotator(vocab)


def bfs_components(
    annotations: list[PositionAnnotation], d_m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant inputs to the BFS traversal embedding: level sinusoids,
    parent/child selector rows, and tree rows holding one one-hot block of
    ``TREE_BRANCH_CAP`` slots per path depth (-1 depths stay zero)."""
    levels = sinusoidal(np.array([a.level for a in annotations], dtype=np.intp), d_m)
    roles = np.zeros((len(annotations), 2))
    trees = np.zeros((len(annotations), 3 * TREE_BRANCH_CAP))
    for row, a in enumerate(annotations):
        if a.role is Role.PARENT:
            roles[row, 0] = 1.0
        elif a.role is Role.CHILD:
            roles[row, 1] = 1.0
        for depth, branch in enumerate(a.path):
            if branch >= 0:
                trees[row, depth * TREE_BRANCH_CAP + min(branch, TREE_BRANCH_CAP - 1)] = 1.0
    return levels, roles, trees


def dfs_components(
    annotations: list[PositionAnnotation], d_m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Constant inputs to the DFS traversal embedding: level ids, connection sinusoids."""
    level_ids = np.array([a.level % DFS_LEVEL_TABLE for a in annotations], dtype=np.intp)
    conns = sinusoidal(np.array([a.offset for a in annotations], dtype=np.intp), d_m)
    return level_ids, conns
