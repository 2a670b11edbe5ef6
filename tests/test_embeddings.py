import math

import numpy as np
import pytest

from testutil import fig4_bfs_items, random_edge_freq, random_graph

from hyspa.altseq_codec import AltSequence, Traversal, encode
from hyspa.embeddings import (
    TREE_BRANCH_CAP,
    PositionAnnotation,
    Role,
    bfs_components,
    make_annotator,
    sinusoidal,
)
from hyspa.info_graph import canonicalize
from hyspa.model import _traversal_row


def bfs_seq(vocab, items, n=9, m=16):
    return AltSequence(tuple(items), Traversal.BFS, vocab, n, m)


def annotate(seq):
    annotator = make_annotator(seq.traversal, seq.vocab)
    return [annotator.push(k) for k in seq.items]


def traversal_rows(ann, traversal, d, tables):
    """The inference engine's traversal embedding, one row per annotation."""
    return np.stack([_traversal_row(a, traversal, d, tables) for a in ann])


class TestSinusoidal:
    def test_position_zero(self):
        v = sinusoidal(0, 8)
        assert v[0::2].tolist() == [0.0] * 4
        assert v[1::2].tolist() == [1.0] * 4

    def test_position_one_d4(self):
        v = sinusoidal(1, 4)
        expected = [math.sin(1), math.cos(1), math.sin(10000 ** -0.5), math.cos(10000 ** -0.5)]
        assert np.allclose(v, expected)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal(0, 5)

    def test_relative_offset_structure(self):
        # dot(v(p), v(p+k)) depends only on k for fixed k, by the angle-sum identity
        d = 32
        k = 3
        dots = [np.dot(sinusoidal(p, d), sinusoidal(p + k, d)) for p in range(0, 40, 7)]
        assert np.allclose(dots, dots[0], atol=1e-9)


class TestAnnotateBfs:
    def test_fig4_roles(self, vocab):
        seq = bfs_seq(vocab, fig4_bfs_items(vocab))
        ann = annotate(seq)
        roles = [a.role for a in ann]
        assert roles == [
            Role.PARENT, Role.EDGE, Role.CHILD, Role.SEPARATOR,
            Role.PARENT, Role.EDGE, Role.CHILD, Role.EDGE, Role.CHILD, Role.SEPARATOR,
        ]
        assert [a.level for a in ann] == [0] * 4 + [1] * 6

    def test_null_sequence(self, vocab):
        seq = bfs_seq(vocab, [vocab.null_type_index, vocab.sep_index], n=4)
        ann = annotate(seq)
        assert [a.role for a in ann] == [Role.PARENT, Role.SEPARATOR]
        assert [a.level for a in ann] == [0, 0]

    def test_one_parent_per_level(self, vocab, rng):
        for _ in range(20):
            g = random_graph(rng, vocab)
            seq = encode(canonicalize(g, random_edge_freq(rng, vocab), vocab), vocab, 16, Traversal.BFS)
            ann = annotate(seq)
            by_level = {}
            for a in ann:
                by_level.setdefault(a.level, []).append(a.role)
            for roles in by_level.values():
                assert roles.count(Role.PARENT) == 1

    def test_matches_reference_reparse(self, vocab, rng):
        # oracle: split on [SEP], then assign roles positionally per level
        for _ in range(10):
            g = random_graph(rng, vocab)
            seq = encode(canonicalize(g, {}, vocab), vocab, 16, Traversal.BFS)
            ann = annotate(seq)
            level, offset = 0, 0
            for a, k in zip(ann, seq.items):
                assert a.level == level
                assert a.offset == offset
                if k == vocab.sep_index:
                    assert a.role is Role.SEPARATOR
                    level += 1
                    offset = 0
                else:
                    expected = (
                        Role.PARENT if offset == 0
                        else (Role.CHILD if offset % 2 == 0 else Role.EDGE)
                    )
                    assert a.role is expected
                    offset += 1

    def test_tree_paths_fig4(self, vocab):
        seq = bfs_seq(vocab, fig4_bfs_items(vocab))
        ann = annotate(seq)
        # level 1: Baghdad(parent) TYPE GPE PHYS He: edges at branches 0,1
        assert ann[5].path == (0, 0, -1)
        assert ann[6].path == (0, 0, 0)
        assert ann[7].path == (0, 1, -1)
        assert ann[8].path == (0, 1, 0)


class TestBfsTraversalEmbed:
    def test_components_one_hot_layout(self, vocab):
        # roles select the parent (column 0) or child (column 1) vector; each
        # present path depth sets one slot of its TREE_BRANCH_CAP-wide block,
        # and a branch past the cap lands on the block's last slot
        ann = annotate(bfs_seq(vocab, fig4_bfs_items(vocab)))
        levels, roles, trees = bfs_components(ann, 16)
        assert np.array_equal(levels, sinusoidal(np.array([a.level for a in ann]), 16))
        for a, role, tree in zip(ann, roles, trees):
            assert role.tolist() == [float(a.role is Role.PARENT), float(a.role is Role.CHILD)]
            want = np.zeros(3 * TREE_BRANCH_CAP)
            for depth, branch in enumerate(a.path):
                if branch >= 0:
                    want[depth * TREE_BRANCH_CAP + branch] = 1.0
            assert np.array_equal(tree, want)
        far = [PositionAnnotation(0, Role.CHILD, (0, TREE_BRANCH_CAP + 5, 0), 2)]
        assert np.flatnonzero(bfs_components(far, 16)[2][0]).tolist() == [
            0, 2 * TREE_BRANCH_CAP - 1, 2 * TREE_BRANCH_CAP
        ]

    def test_level_component_shared(self, vocab, rng):
        seq = bfs_seq(vocab, fig4_bfs_items(vocab))
        ann = annotate(seq)
        d = 16
        pc = np.zeros((2, d))
        tree = np.zeros((3 * 32, d))
        out = traversal_rows(ann, Traversal.BFS, d, {"trav_pc": pc, "trav_tree": tree})
        # with zero pc/tree params, rows reduce to the level component
        assert np.allclose(out[0], out[1])
        assert np.allclose(out[4], out[9])
        assert not np.allclose(out[0], out[4])

    def test_parent_vs_child_differ(self, vocab, rng):
        per = vocab.index("PER")
        he = 19
        items = [he, vocab.type_edge_index, per, vocab.sep_index, 83,
                 vocab.type_edge_index, vocab.index("GPE"), vocab.index("PHYS"), he, vocab.sep_index]
        ann = annotate(bfs_seq(vocab, items))
        d = 16
        pc = rng.normal(size=(2, d))
        tree = rng.normal(size=(3 * 32, d))
        out = traversal_rows(ann, Traversal.BFS, d, {"trav_pc": pc, "trav_tree": tree})
        # "He" as parent (pos 0, level 0) vs "He" as child (pos 8, level 1):
        # both level and parent/child components differ
        lvl = np.stack([sinusoidal(a.level, d) for a in ann])
        role_part = out - lvl - bfs_components(ann, d)[2] @ tree
        assert np.allclose(role_part[0], pc[0])
        assert np.allclose(role_part[8], pc[1])

    def test_swapping_children_changes_only_tree(self, vocab, rng):
        d = 16
        pc = rng.normal(size=(2, d))
        tree = rng.normal(size=(3 * 32, d))
        items = [83, vocab.type_edge_index, vocab.index("GPE"), vocab.index("PHYS"), 19, vocab.sep_index]
        ann = annotate(bfs_seq(vocab, items))
        # children at positions 2 (under edge 0) and 4 (under edge 1)
        a2, a4 = ann[2], ann[4]
        assert a2.role is a4.role is Role.CHILD
        assert a2.level == a4.level
        trees = bfs_components([a2, a4], d)[2]
        diff = (trees[0] - trees[1]) @ tree
        out = traversal_rows(ann, Traversal.BFS, d, {"trav_pc": pc, "trav_tree": tree})
        assert np.allclose(out[2] - out[4], diff)


class TestDfsTraversalEmbed:
    def test_connection_offsets(self, vocab, rng):
        items = [19, vocab.type_edge_index, vocab.index("PER"), vocab.sep_index]
        seq = AltSequence(tuple(items), Traversal.DFS, vocab, 9, 16)
        ann = annotate(seq)
        d = 16
        table = rng.normal(size=(1024, d))
        out = traversal_rows(ann, Traversal.DFS, d, {"dfs_level": table})
        for i in range(4):
            assert np.allclose(out[i] - table[0], sinusoidal(i, d))

    def test_levels_get_distinct_vectors(self, vocab, rng):
        items = [19, vocab.type_edge_index, vocab.index("PER"), vocab.sep_index,
                 83, vocab.type_edge_index, vocab.index("GPE"), vocab.sep_index]
        seq = AltSequence(tuple(items), Traversal.DFS, vocab, 9, 16)
        ann = annotate(seq)
        assert [a.level for a in ann] == [0, 0, 0, 0, 1, 1, 1, 1]
        d = 16
        table = rng.normal(size=(1024, d))
        out = traversal_rows(ann, Traversal.DFS, d, {"dfs_level": table})
        # same intra-level offset, different level vector
        assert np.allclose(out[4] - out[0], table[1] - table[0])

    def test_shapes_match_sequence(self, vocab, rng):
        for _ in range(10):
            g = random_graph(rng, vocab)
            seq = encode(canonicalize(g, {}, vocab), vocab, 16, Traversal.DFS)
            ann = annotate(seq)
            out = traversal_rows(ann, Traversal.DFS, 8, {"dfs_level": rng.normal(size=(1024, 8))})
            assert out.shape == (len(seq.items), 8)
