import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from testutil import (
    FIG4_TOKENS,
    fig4_bfs_items,
    make_engine,
    pinned_vocab,
    positions,
    random_edge_freq,
    random_graph,
)

from hyspa.altseq_codec import AltSequence, Traversal, encode
from hyspa.embeddings import TREE_BRANCH_CAP, bfs_components, sinusoidal
from hyspa.info_graph import canonicalize
from hyspa.model import (
    DecodeSession,
    ModelConfig,
    TokenVocab,
    _traversal_embedding,
    encode_context,
    init_params,
)
from hyspa.numerics import Tensor


def bfs_seq(vocab, items, n=9, m=16):
    return AltSequence(tuple(items), Traversal.BFS, vocab, n, m)


def split_on_sep(items, sep):
    """Oracle: (level, offset) of every item from splitting the stream after each [SEP]."""
    out, level, start = [], 0, 0
    for i, k in enumerate(items):
        out.append((level, i - start))
        if k == sep:
            level, start = level + 1, i + 1
    return out


def role(roles_row, trees_row) -> str:
    """The role the BFS selector and tree columns of one row encode."""
    if roles_row[0]:
        return "parent"
    if roles_row[1]:
        return "child"
    return "edge" if trees_row.any() else "sep"


def path(trees_row) -> tuple[int, int, int]:
    """The depth-3 path one row's tree columns encode; -1 marks an empty depth."""
    blocks = trees_row.reshape(3, TREE_BRANCH_CAP)
    return tuple(int(np.flatnonzero(b)[0]) if b.any() else -1 for b in blocks)


def expected_role_and_path(offset: int, is_sep: bool) -> tuple[str, tuple[int, int, int]]:
    """Oracle for one BFS item: a [SEP] at an odd offset closes its level and
    has no role; otherwise the offset alternates parent/edge/child.  An edge's
    branch is the number of edges before it in the level, a child's that of
    the edge it hangs from, both clamped to the cap."""
    edges_before, cap = offset // 2, TREE_BRANCH_CAP - 1
    if offset == 0:
        return "parent", (0, -1, -1)
    if offset % 2:
        return ("sep", (-1, -1, -1)) if is_sep else ("edge", (0, min(edges_before, cap), -1))
    return "child", (0, min(edges_before - 1, cap), 0)


def traversal_rows(pos, traversal, d, tables):
    """The inference engine's traversal embedding, one row per position, from an
    engine whose only weights are ``tables``."""
    weights = {k: Tensor(v) for k, v in tables.items()}
    engine = make_engine(ModelConfig(d_m=d, layers=0, heads=1), weights, pinned_vocab(), TokenVocab(("[UNK]",)))
    return np.stack([engine.traversal_row(traversal, p) for p in pos])


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
    """Roles and tree paths as the BFS selector and tree columns encode them."""

    def test_fig4_roles(self, vocab):
        seq = bfs_seq(vocab, fig4_bfs_items(vocab))
        pos = positions(seq)
        _, roles, trees = bfs_components(pos, 16)
        assert roles.tolist() == [
            [1, 0], [0, 0], [0, 1], [0, 0],
            [1, 0], [0, 0], [0, 1], [0, 0], [0, 1], [0, 0],
        ]
        assert [role(r, t) for r, t in zip(roles, trees)] == [
            "parent", "edge", "child", "sep",
            "parent", "edge", "child", "edge", "child", "sep",
        ]
        assert [level for level, _, _ in pos] == [0] * 4 + [1] * 6

    def test_null_sequence(self, vocab):
        seq = bfs_seq(vocab, [vocab.null_type_index, vocab.sep_index], n=4)
        pos = positions(seq)
        _, roles, trees = bfs_components(pos, 16)
        assert [role(r, t) for r, t in zip(roles, trees)] == ["parent", "sep"]
        assert not trees[1].any()
        assert [level for level, _, _ in pos] == [0, 0]

    def test_one_parent_per_level(self, vocab, rng):
        for _ in range(20):
            g = random_graph(rng, vocab)
            seq = encode(canonicalize(g, random_edge_freq(rng, vocab), vocab), vocab, 16, Traversal.BFS)
            pos = positions(seq)
            roles = bfs_components(pos, 16)[1]
            parents = {}
            for (level, _, _), r in zip(pos, roles):
                parents[level] = parents.get(level, 0) + int(r[0])
            assert set(parents.values()) == {1}

    def test_matches_reference_reparse(self, vocab, rng):
        # oracle: split on [SEP], then assign roles positionally per level
        for _ in range(10):
            g = random_graph(rng, vocab)
            seq = encode(canonicalize(g, {}, vocab), vocab, 16, Traversal.BFS)
            pos = positions(seq)
            _, roles, trees = bfs_components(pos, 16)
            assert [(level, offset) for level, offset, _ in pos] == split_on_sep(seq.items, vocab.sep_index)
            for (_, offset, _), k, r, t in zip(pos, seq.items, roles, trees):
                if k == vocab.sep_index:
                    expected = "sep"
                else:
                    expected = "parent" if offset == 0 else ("child" if offset % 2 == 0 else "edge")
                assert role(r, t) == expected

    def test_tree_paths_fig4(self, vocab):
        trees = bfs_components(positions(bfs_seq(vocab, fig4_bfs_items(vocab))), 16)[2]
        # level 1: Baghdad(parent) TYPE GPE PHYS He: edges at branches 0,1
        assert [path(t) for t in trees[4:]] == [
            (0, -1, -1), (0, 0, -1), (0, 0, 0), (0, 1, -1), (0, 1, 0), (-1, -1, -1),
        ]


class TestBfsTraversalEmbed:
    def test_components_one_hot_layout(self, vocab):
        # roles select the parent (column 0) or child (column 1) vector; each
        # present path depth sets one slot of its TREE_BRANCH_CAP-wide block,
        # and a branch past the cap lands on the block's last slot
        pos = positions(bfs_seq(vocab, fig4_bfs_items(vocab)))
        levels, roles, trees = bfs_components(pos, 16)
        assert np.array_equal(levels, sinusoidal(np.array([level for level, _, _ in pos]), 16))
        assert roles.sum(axis=1).max() == 1.0
        assert set(np.unique(trees)) == {0.0, 1.0}
        for tree in trees:
            assert all(block.sum() <= 1.0 for block in tree.reshape(3, TREE_BRANCH_CAP))
        far = [(0, 2 * (TREE_BRANCH_CAP + 5) + 2, False)]  # a child on branch TREE_BRANCH_CAP + 5
        assert np.flatnonzero(bfs_components(far, 16)[2][0]).tolist() == [
            0, 2 * TREE_BRANCH_CAP - 1, 2 * TREE_BRANCH_CAP
        ]

    def test_level_component_shared(self, vocab, rng):
        pos = positions(bfs_seq(vocab, fig4_bfs_items(vocab)))
        d = 16
        pc = np.zeros((2, d))
        tree = np.zeros((3 * 32, d))
        out = traversal_rows(pos, Traversal.BFS, d, {"trav_pc": pc, "trav_tree": tree})
        # with zero pc/tree params, rows reduce to the level component
        assert np.allclose(out[0], out[1])
        assert np.allclose(out[4], out[9])
        assert not np.allclose(out[0], out[4])

    def test_parent_vs_child_differ(self, vocab, rng):
        per = vocab.index("PER")
        he = 19
        items = [he, vocab.type_edge_index, per, vocab.sep_index, 83,
                 vocab.type_edge_index, vocab.index("GPE"), vocab.index("PHYS"), he, vocab.sep_index]
        pos = positions(bfs_seq(vocab, items))
        d = 16
        pc = rng.normal(size=(2, d))
        tree = rng.normal(size=(3 * 32, d))
        out = traversal_rows(pos, Traversal.BFS, d, {"trav_pc": pc, "trav_tree": tree})
        # "He" as parent (pos 0, level 0) vs "He" as child (pos 8, level 1):
        # both level and parent/child components differ
        lvl = np.stack([sinusoidal(level, d) for level, _, _ in pos])
        role_part = out - lvl - bfs_components(pos, d)[2] @ tree
        assert np.allclose(role_part[0], pc[0])
        assert np.allclose(role_part[8], pc[1])

    def test_swapping_children_changes_only_tree(self, vocab, rng):
        d = 16
        pc = rng.normal(size=(2, d))
        tree = rng.normal(size=(3 * 32, d))
        items = [83, vocab.type_edge_index, vocab.index("GPE"), vocab.index("PHYS"), 19, vocab.sep_index]
        pos = positions(bfs_seq(vocab, items))
        # children at positions 2 (under edge 0) and 4 (under edge 1)
        _, roles, trees = bfs_components([pos[2], pos[4]], d)
        assert roles.tolist() == [[0, 1], [0, 1]]
        assert pos[2][0] == pos[4][0]
        diff = (trees[0] - trees[1]) @ tree
        out = traversal_rows(pos, Traversal.BFS, d, {"trav_pc": pc, "trav_tree": tree})
        assert np.allclose(out[2] - out[4], diff)


class TestDfsTraversalEmbed:
    def test_connection_offsets(self, vocab, rng):
        items = [19, vocab.type_edge_index, vocab.index("PER"), vocab.sep_index]
        seq = AltSequence(tuple(items), Traversal.DFS, vocab, 9, 16)
        pos = positions(seq)
        d = 16
        table = rng.normal(size=(1024, d))
        out = traversal_rows(pos, Traversal.DFS, d, {"dfs_level": table})
        for i in range(4):
            assert np.allclose(out[i] - table[0], sinusoidal(i, d))

    def test_levels_get_distinct_vectors(self, vocab, rng):
        items = [19, vocab.type_edge_index, vocab.index("PER"), vocab.sep_index,
                 83, vocab.type_edge_index, vocab.index("GPE"), vocab.sep_index]
        seq = AltSequence(tuple(items), Traversal.DFS, vocab, 9, 16)
        pos = positions(seq)
        assert [level for level, _, _ in pos] == [0, 0, 0, 0, 1, 1, 1, 1]
        d = 16
        table = rng.normal(size=(1024, d))
        out = traversal_rows(pos, Traversal.DFS, d, {"dfs_level": table})
        # same intra-level offset, different level vector
        assert np.allclose(out[4] - out[0], table[1] - table[0])

    def test_shapes_match_sequence(self, vocab, rng):
        for _ in range(10):
            g = random_graph(rng, vocab)
            seq = encode(canonicalize(g, {}, vocab), vocab, 16, Traversal.DFS)
            out = traversal_rows(positions(seq), Traversal.DFS, 8, {"dfs_level": rng.normal(size=(1024, 8))})
            assert out.shape == (len(seq.items), 8)


SEP = pinned_vocab().sep_index
# type slots and one-token spans of FIG4_TOKENS: items whose span rows the engine can encode
ITEMS = list(range(pinned_vocab().l_p)) + [pinned_vocab().l_p + 16 * i for i in range(len(FIG4_TOKENS))]


class TestPositionRule:
    """The tape and the engine count positions with one rule, on any item
    stream: decoding steps may feed streams that are not canonical sequences."""

    @pytest.fixture(scope="class")
    def engine(self, vocab):
        cfg = ModelConfig(d_m=16, layers=1, heads=2, m=16)
        token_vocab = TokenVocab.build([FIG4_TOKENS])
        return cfg, init_params(cfg, vocab, token_vocab, seed=3), token_vocab

    @given(
        streams=st.lists(
            st.lists(st.one_of(st.just(SEP), st.sampled_from(ITEMS)), max_size=90), min_size=1, max_size=3
        ),
        traversal=st.sampled_from(list(Traversal)),
    )
    @example(streams=[[19] + [0, 13] * (TREE_BRANCH_CAP + 8) + [SEP, 83]], traversal=Traversal.BFS)
    @settings(max_examples=150, deadline=None)
    def test_tape_rows_equal_engine_rows_bitwise(self, vocab, engine, streams, traversal):
        # (level, offset) is the split-on-[SEP] oracle's in both, the BFS roles
        # and paths are the oracle's, and the engine's memoised row of each
        # item is the tape's row, bit for bit, whether the memo of the one
        # engine every sequence shares computed it or served it
        cfg, params, token_vocab = engine
        seqs = [AltSequence(tuple(items), traversal, vocab, len(FIG4_TOKENS), cfg.m) for items in streams]
        t_pad = max(len(seq.items) for seq in seqs) + 1
        tape = _traversal_embedding(seqs, t_pad, cfg, params).data
        shared = make_engine(cfg, params, vocab, token_vocab)
        for b, seq in enumerate(seqs):
            oracle = split_on_sep(seq.items, SEP)
            assert [(level, offset) for level, offset, _ in positions(seq)] == oracle
            _, roles, trees = bfs_components(positions(seq), cfg.d_m)
            for (_, offset), k, r, t in zip(oracle, seq.items, roles, trees):
                assert (role(r, t), path(t)) == expected_role_and_path(offset, k == SEP)
            session = DecodeSession(encode_context(FIG4_TOKENS, shared), traversal, max_len=len(seq.items) + 1)
            for i, ((level, offset), k) in enumerate(zip(oracle, seq.items)):
                assert (session.level, session.offset) == (level, offset)
                session._input_row(k)
                assert np.array_equal(shared.rows[traversal, (level, offset, k == SEP)], tape[b, 1 + i])
            assert not tape[b, len(seq.items) + 1 :].any()
