"""Positional and structural embeddings for alternating sequences.

BFS sequences get a traversal embedding summing three components: a sinusoidal
level embedding shared across each traversal level, a learned parent/child
vector on node positions, and a tree embedding encoding each position's
depth-3 path within its level.  DFS sequences get a learned per-level vector
plus a sinusoidal intra-level connection embedding.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .altseq_codec import AltSequence, Traversal
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

    def __init__(self, vocab: TypeVocab, n: int, m: int):
        self.vocab = vocab
        self.n = n
        self.m = m
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
        clone = BfsAnnotator(self.vocab, self.n, self.m)
        clone.level, clone.offset, clone.edge_count = self.level, self.offset, self.edge_count
        return clone


class DfsAnnotator:
    """Incremental annotator for DFS sequences: level index and intra-level offset."""

    def __init__(self, vocab: TypeVocab, n: int, m: int):
        self.vocab = vocab
        self.n = n
        self.m = m
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
        clone = DfsAnnotator(self.vocab, self.n, self.m)
        clone.level, clone.offset = self.level, self.offset
        return clone


def make_annotator(traversal: Traversal, vocab: TypeVocab, n: int, m: int):
    return BfsAnnotator(vocab, n, m) if traversal == Traversal.BFS else DfsAnnotator(vocab, n, m)


def annotate_bfs(s: AltSequence) -> list[PositionAnnotation]:
    """Segment a BFS sequence into levels and assign parent/child/edge roles."""
    ann = BfsAnnotator(s.vocab, s.n, s.m)
    return [ann.push(k) for k in s.items]


def annotate_dfs(s: AltSequence) -> list[PositionAnnotation]:
    ann = DfsAnnotator(s.vocab, s.n, s.m)
    return [ann.push(k) for k in s.items]


def tree_onehot(path: tuple[int, int, int]) -> np.ndarray:
    """Concatenated one-hot blocks for the depth-3 path; -1 depths stay zero."""
    out = np.zeros(3 * TREE_BRANCH_CAP)
    for depth, branch in enumerate(path):
        if branch >= 0:
            out[depth * TREE_BRANCH_CAP + min(branch, TREE_BRANCH_CAP - 1)] = 1.0
    return out


def bfs_components(
    annotations: list[PositionAnnotation], d_m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant inputs to the BFS traversal embedding: level sinusoids,
    parent/child selector rows, tree one-hot rows (as ``tree_onehot``)."""
    levels = sinusoidal(np.array([a.level for a in annotations], dtype=np.intp), d_m)
    roles = np.array([(a.role is Role.PARENT, a.role is Role.CHILD) for a in annotations],
                     dtype=np.float64).reshape(-1, 2)
    paths = np.array([a.path for a in annotations], dtype=np.intp).reshape(-1, 3)
    trees = np.zeros((len(annotations), 3 * TREE_BRANCH_CAP))
    rows, depths = np.nonzero(paths >= 0)
    cols = depths * TREE_BRANCH_CAP + np.minimum(paths[rows, depths], TREE_BRANCH_CAP - 1)
    trees[rows, cols] = 1.0
    return levels, roles, trees


def dfs_components(
    annotations: list[PositionAnnotation], d_m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Constant inputs to the DFS traversal embedding: level ids, connection sinusoids."""
    level_ids = np.array([a.level % DFS_LEVEL_TABLE for a in annotations], dtype=np.intp)
    conns = sinusoidal(np.array([a.offset for a in annotations], dtype=np.intp), d_m)
    return level_ids, conns


def bfs_traversal_embed(
    annotations: list[PositionAnnotation],
    d_m: int,
    parent_child: np.ndarray,
    tree_proj: np.ndarray,
) -> np.ndarray:
    """Level + parent/child + tree components, summed pointwise.

    ``parent_child`` is a (2, d_m) learned table; edge and separator positions
    receive the zero vector.  ``tree_proj`` is (3*TREE_BRANCH_CAP, d_m).
    """
    levels, roles, trees = bfs_components(annotations, d_m)
    return levels + roles @ parent_child + trees @ tree_proj


def dfs_traversal_embed(
    annotations: list[PositionAnnotation],
    d_m: int,
    level_table: np.ndarray,
) -> np.ndarray:
    """Learned per-level vectors plus sinusoidal intra-level connection encoding."""
    level_ids, conns = dfs_components(annotations, d_m)
    return level_table[level_ids] + conns
