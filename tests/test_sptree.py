"""Unit tests for the SP decomposition-tree structures."""

import pytest

from repro.sp import SPLeaf, SPParallel, SPSeries, parallel, series


class TestLeaf:
    def test_basics(self):
        leaf = SPLeaf(0, 1)
        assert (leaf.source, leaf.sink) == (0, 1)
        assert leaf.outsize == 1
        assert list(leaf.leaf_edges()) == [(0, 1)]
        assert leaf.nodes() == {0, 1}
        assert leaf.n_edges == 1
        assert list(leaf.inner_nodes()) == []
        assert "[0 - 1]" in leaf.pretty()


class TestSeries:
    def test_chaining(self):
        t = series(SPLeaf(0, 1), SPLeaf(1, 2))
        assert isinstance(t, SPSeries)
        assert (t.source, t.sink) == (0, 2)
        assert t.outsize == 1
        assert list(t.leaf_edges()) == [(0, 1), (1, 2)]

    def test_flattening_keeps_series_maximal(self):
        t = series(series(SPLeaf(0, 1), SPLeaf(1, 2)), SPLeaf(2, 3))
        assert isinstance(t, SPSeries)
        assert len(t.children) == 3  # not nested

    def test_n_ary_equals_pairwise(self):
        par = parallel([SPLeaf(1, 2), SPLeaf(1, 2)])
        parts = [SPLeaf(0, 1), par, series(SPLeaf(2, 3), SPLeaf(3, 4))]
        t = series(*parts)
        pairwise = series(series(parts[0], parts[1]), parts[2])
        assert t.children == pairwise.children
        assert len(t.children) == 4
        with pytest.raises(ValueError):
            series(SPLeaf(0, 1), SPLeaf(1, 2), SPLeaf(3, 4))

    def test_leaf_edges_left_to_right_in_nested_trees(self):
        detour = series(SPLeaf(2, 5), SPLeaf(5, 3))
        inner = series(SPLeaf(1, 2), parallel([SPLeaf(2, 3), detour]))
        t = series(SPLeaf(0, 1), parallel([inner, SPLeaf(1, 3)]), SPLeaf(3, 4))
        assert list(t.leaf_edges()) == [
            (0, 1), (1, 2), (2, 3), (2, 5), (5, 3), (1, 3), (3, 4)
        ]
        assert t.n_edges == 7

    def test_mismatched_terminals_raise(self):
        with pytest.raises(ValueError):
            series(SPLeaf(0, 1), SPLeaf(2, 3))
        with pytest.raises(ValueError):
            SPSeries([SPLeaf(0, 1), SPLeaf(2, 3)])

    def test_needs_two_children(self):
        with pytest.raises(ValueError):
            SPSeries([SPLeaf(0, 1)])

    def test_inner_nodes_preorder(self):
        t = series(SPLeaf(0, 1), SPLeaf(1, 2))
        inner = list(t.inner_nodes())
        assert inner == [t]

    def test_outsize_follows_last_child(self):
        par = parallel([SPLeaf(1, 2), SPLeaf(1, 2)])
        t = series(SPLeaf(0, 1), par)
        assert t.outsize == 2


class TestParallel:
    def test_basics(self):
        t = parallel([SPLeaf(0, 1), SPLeaf(0, 1)])
        assert isinstance(t, SPParallel)
        assert (t.source, t.sink) == (0, 1)
        assert t.outsize == 2
        assert t.n_edges == 2

    def test_single_tree_passthrough(self):
        leaf = SPLeaf(0, 1)
        assert parallel([leaf]) is leaf

    def test_flattening_keeps_parallel_maximal(self):
        inner = parallel([SPLeaf(0, 1), SPLeaf(0, 1)])
        t = parallel([inner, SPLeaf(0, 1)])
        assert len(t.children) == 3

    def test_mismatched_terminals_raise(self):
        with pytest.raises(ValueError):
            SPParallel([SPLeaf(0, 1), SPLeaf(0, 2)])

    def test_needs_two_children(self):
        with pytest.raises(ValueError):
            SPParallel([SPLeaf(0, 1)])


class TestComposite:
    def test_fig1_tree_by_hand(self):
        """Build the Fig. 1 decomposition manually and check node sets."""
        left = series(
            series(SPLeaf(0, 1), parallel(
                [SPLeaf(1, 3), series(SPLeaf(1, 2), SPLeaf(2, 3))]
            )),
            SPLeaf(3, 5),
        )
        right = series(SPLeaf(0, 4), SPLeaf(4, 5))
        root = parallel([left, right])
        assert root.nodes() == {0, 1, 2, 3, 4, 5}
        assert sorted(root.leaf_edges()) == sorted(
            [(0, 1), (1, 3), (1, 2), (2, 3), (3, 5), (0, 4), (4, 5)]
        )
        kinds = [type(op).__name__ for op in root.inner_nodes()]
        assert kinds.count("SPParallel") == 2
        assert kinds.count("SPSeries") == 3

    def test_pretty_renders_nested(self):
        t = parallel([SPLeaf(0, 1), series(SPLeaf(0, 2), SPLeaf(2, 1))])
        text = t.pretty()
        assert "P(0 - 1)" in text
        assert "S[0 - 1]" in text
        assert "[2 - 1]" in text

    def test_repr(self):
        assert "SPLeaf" in repr(SPLeaf(0, 1))
        assert "children" in repr(parallel([SPLeaf(0, 1), SPLeaf(0, 1)]))
        assert "->" in repr(series(SPLeaf(0, 1), SPLeaf(1, 2)))
