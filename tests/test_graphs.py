from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverball.graphs import (GraphError, MetricGraph, betti, delete_edge,
                              figure_eight, format_graph, girth, is_separating,
                              parse_graph, prune_leaves, random_connected,
                              reduce_graph, scale, shortest_paths,
                              smooth_degree2, theta_graph, tree_path,
                              trivalent_reference, validate)


def test_theta_shape():
    g = theta_graph()
    assert betti(g) == 2
    assert g.total_length() == 3
    assert girth(g) == 2
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_figure_eight_shape():
    g = figure_eight()
    assert betti(g) == 2
    assert girth(g) == 1
    assert g.degree(0) == 4


@pytest.mark.parametrize("b", [2, 3, 4, 6])
def test_trivalent_reference(b):
    g = trivalent_reference(b)
    assert betti(g) == b
    assert len(g.edges) == 3 * b - 3
    assert g.total_length() == 3 * b - 3
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_validate_reports_structure():
    rep = validate(theta_graph())
    assert rep["errors"] == []
    assert rep["connected"] and rep["betti"] == 2


def test_prune_leaves_removes_trees():
    g = MetricGraph.build([0, 1, 2, 3],
                          [(0, 0, 1, 1), (1, 0, 1, 1), (2, 1, 2, 1), (3, 2, 3, 1)])
    pruned, trace = prune_leaves(g)
    assert set(trace.removed_vertices) == {2, 3}
    assert betti(pruned) == betti(g)
    assert pruned.total_length() == 2


def test_smooth_degree2_merges_lengths():
    g = MetricGraph.build([0, 1, 2],
                          [(0, 0, 1, F(1, 2)), (1, 1, 2, F(1, 3)), (2, 0, 2, 1),
                           (3, 0, 2, 1)])
    sm, trace = smooth_degree2(g)
    assert 1 not in sm.vertices
    assert sm.total_length() == g.total_length()
    assert betti(sm) == betti(g)
    merged = [e for e in sm.edges if e.length == F(5, 6)]
    assert len(merged) == 1


@given(st.integers(2, 6), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_reduce_preserves_betti_never_lengthens(b, seed):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    red, _ = reduce_graph(g)
    assert betti(red) == betti(g)
    assert red.total_length() <= g.total_length()
    assert all(red.degree(v) >= 3 for v in red.vertices)


def test_separating_edge_detection():
    # two triangles joined by a bridge
    g = MetricGraph.build(range(6),
                          [(0, 0, 1, 1), (1, 1, 2, 1), (2, 0, 2, 1),
                           (3, 2, 3, 1),
                           (4, 3, 4, 1), (5, 4, 5, 1), (6, 3, 5, 1)])
    assert is_separating(g, 3)
    assert not is_separating(g, 0)
    cut = delete_edge(g, 3)
    assert len(cut.components()) == 2


def _bellman_ford(g, src, cutoff=None, skip_edge=None):
    dist = {src: F(0)}
    for _ in range(len(g.vertices)):
        for e in g.edges:
            if e.id == skip_edge:
                continue
            for a, b in ((e.u, e.w), (e.w, e.u)):
                if a not in dist:
                    continue
                nd = dist[a] + e.length
                if cutoff is not None and nd > cutoff:
                    continue
                if b not in dist or nd < dist[b]:
                    dist[b] = nd
    return dist


@given(st.integers(2, 6), st.integers(0, 99), st.none() | st.integers(0, 30),
       st.sampled_from([None, F(1, 2), F(5, 4), F(7, 3)]))
@example(4, 22, 22, None)     # skips a loop edge
@settings(max_examples=60, deadline=None)
def test_shortest_paths_match_bellman_ford(b, seed, skip, cutoff):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    src = min(g.vertices)
    skip_edge = None if skip is None else g.edges[skip % len(g.edges)].id
    dist, parent = shortest_paths(g, src, cutoff, skip_edge)
    assert dist == _bellman_ford(g, src, cutoff, skip_edge)
    assert set(parent) == set(dist) and parent[src] is None
    for v in dist:
        path = tree_path(parent, v)
        assert path[0] == src and path[-1] == v
        length = F(0)
        for a, c in zip(path, path[1:]):
            length += min(e.length for e in g.incident(a)
                          if e.other(a) == c and e.id != skip_edge)
        assert length == dist[v]


def test_shortest_paths_tie_rule_and_unknown_source():
    # unit 4-cycle 0-1-2-3: both neighbours reach 2 at distance 2, the
    # first one popped (1) becomes its parent
    g = MetricGraph.build(range(4), [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1),
                                     (3, 3, 0, 1)])
    dist, parent = shortest_paths(g, 0)
    assert dist[2] == 2 and parent[2] == 1
    assert tree_path(parent, 2) == [0, 1, 2]
    with pytest.raises(GraphError):
        shortest_paths(g, 9)


def test_scale_is_exact():
    g = theta_graph()
    s = scale(g, F(7, 5))
    assert s.total_length() == F(21, 5)
    assert girth(s) == F(14, 5)


@given(st.integers(2, 6), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_format_parse_round_trip(b, seed):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    text = format_graph(g)
    assert format_graph(parse_graph(text)) == text


def test_parse_rejects_malformed():
    with pytest.raises(GraphError):
        parse_graph("v 0\ne 0 0 0\n")
