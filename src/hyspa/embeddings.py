"""Positional and structural embeddings for alternating sequences.

BFS sequences get a traversal embedding summing three components: a sinusoidal
level embedding shared across each traversal level, a learned parent/child
vector on node positions, and a tree embedding encoding each position's
depth-3 path within its level.  DFS sequences get a learned per-level vector
plus a sinusoidal intra-level connection embedding.

This module holds the position rule (``advance``: an item's level and its
offset within the level) and builds the constant inputs of those embeddings
from positions (``bfs_components`` / ``dfs_components``), the only place a
position's level rows, role selector and path one-hot are derived; the
learned tables belong to the model.  The training tape applies them to a
whole batch and the inference engine to one position at a time, with the
same formula.
"""
from __future__ import annotations

import functools

import numpy as np

TREE_BRANCH_CAP = 32  # one-hot width per depth; deeper branches clamp to the last slot
DFS_LEVEL_TABLE = 1024  # learned DFS level vectors, reused modulo this size


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


def advance(level: int, offset: int, k: int, sep: int) -> tuple[int, int]:
    """The (level, offset) of the item after item ``k`` at (level, offset):
    [SEP] opens the next level, any other item moves one place along its own.

    So a level counts the [SEP]s before an item and an offset the items since
    the last one.  Both the tape and the engine give each item the position
    (level, offset, k == sep), which holds all its traversal features.
    """
    return (level + 1, 0) if k == sep else (level, offset + 1)


def bfs_components(
    positions: list[tuple[int, int, bool]], d_m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant inputs to the BFS traversal embedding: level sinusoids,
    parent/child selector rows, and tree rows holding one one-hot block of
    ``TREE_BRANCH_CAP`` slots per depth of the item's path within its level.

    Every odd offset before an item held an edge (a [SEP] there would have
    ended the level), so the offset alone gives the path: offset 0 is the
    parent, path (0); an odd offset is an edge, path (0, offset//2), unless it
    is [SEP], which has no role and no path; an even one is a child, path
    (0, offset//2 - 1, 0).  Branches past the cap share the block's last slot.
    """
    levels = sinusoidal(np.array([level for level, _, _ in positions], dtype=np.intp), d_m)
    roles = np.zeros((len(positions), 2))
    trees = np.zeros((len(positions), 3 * TREE_BRANCH_CAP))
    for row, (_, offset, sep) in enumerate(positions):
        if offset % 2 and sep:
            continue
        trees[row, 0] = 1.0
        if offset == 0:
            roles[row, 0] = 1.0
            continue
        trees[row, TREE_BRANCH_CAP + min((offset - 1) // 2, TREE_BRANCH_CAP - 1)] = 1.0
        if offset % 2 == 0:
            roles[row, 1] = trees[row, 2 * TREE_BRANCH_CAP] = 1.0
    return levels, roles, trees


def dfs_components(
    positions: list[tuple[int, int, bool]], d_m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Constant inputs to the DFS traversal embedding: level ids, connection sinusoids."""
    level_ids = np.array([level % DFS_LEVEL_TABLE for level, _, _ in positions], dtype=np.intp)
    conns = sinusoidal(np.array([offset for _, offset, _ in positions], dtype=np.intp), d_m)
    return level_ids, conns
