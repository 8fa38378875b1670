import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (NERVE_PACK_MESHES, corpus_surface, edge_by_edge_girth,
                      heap_grid_shortest_paths, prune_then_smooth,
                      random_bounded_instance, relabeled)
from coverball.graphs import (GraphError, MetricGraph, betti, delete_edge,
                              figure_eight, format_graph, girth,
                              grid_shortest_paths, is_separating,
                              parse_graph, random_connected, reduce_graph,
                              scale, theta_graph, tree_path,
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
    pruned, removed = reduce_graph(g)
    assert set(removed[:2]) == {2, 3}
    assert betti(pruned) == betti(g)
    assert pruned.total_length() == 2
    # the leaves go first; then the 2-cycle 0-1 smooths to a loop at 1
    assert removed == (3, 2, 0) and pruned.vertices == {1}


def test_smooth_degree2_merges_lengths():
    g = MetricGraph.build([0, 1, 2],
                          [(0, 0, 1, F(1, 2)), (1, 1, 2, F(1, 3)), (2, 0, 2, 1),
                           (3, 0, 2, 1)])
    sm, removed = reduce_graph(g)
    assert 1 not in sm.vertices
    assert sm.total_length() == g.total_length()
    assert betti(sm) == betti(g)
    merged = [e for e in sm.edges if e.length == F(5, 6)]
    assert len(merged) == 1


def _relabeled(g: MetricGraph, rng: random.Random) -> MetricGraph:
    """g with sparse shuffled vertex and edge ids and random endpoint order."""
    vmap = dict(zip(sorted(g.vertices), rng.sample(range(100), len(g.vertices))))
    ids = rng.sample(range(1000), len(g.edges))
    edges = []
    for i, e in zip(ids, g.edges):
        u, w = (e.u, e.w) if rng.random() < 0.5 else (e.w, e.u)
        edges.append((i, vmap[u], vmap[w], e.length))
    return MetricGraph.build(vmap.values(), edges)


def _reduction_cases(rng: random.Random):
    """(kind, graph) pairs: random multigraphs, trees, paths, cycles with
    and without pendant trees, and relabeled multigraphs with extra loops
    and parallel edges."""
    def length():
        return F(rng.randint(1, 16), 8)

    def tree(n, first=0):
        return [(v, rng.randrange(first, v)) for v in range(first + 1, first + n)]

    def build(nv, pairs):
        return MetricGraph.build(range(nv), [(i, u, w, length())
                                             for i, (u, w) in enumerate(pairs)])

    yield "single-edge", build(2, [(0, 1)])
    yield "single-vertex", build(1, [])
    for k in range(500):
        b = 2 + k % 7
        yield "random", random_connected(b, (F(1, 4), F(1)), rng.randrange(10**6))
        yield "bounded", random_bounded_instance(b, F(1, 6) * (3 * b - 3),
                                                 rng.randrange(10**6))
        n = rng.randint(1, 12)
        yield "tree", _relabeled(build(n, tree(n)), rng)
        n = rng.randint(1, 10)
        yield "path", _relabeled(build(n, [(v - 1, v) for v in range(1, n)]), rng)
        n = rng.randint(1, 10)
        yield "cycle", _relabeled(build(n, [(v, (v + 1) % n) for v in range(n)]), rng)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        pairs = [(v, (v + 1) % n) for v in range(n)]
        pairs += [(rng.randrange(n), n)] + tree(m, n)
        yield "cycle-pendant", _relabeled(build(n + m, pairs), rng)
        g = random_connected(b, (F(1, 4), F(1)), rng.randrange(10**6))
        verts = sorted(g.vertices)
        edges = [(e.id, e.u, e.w, e.length) for e in g.edges]
        for _ in range(rng.randint(1, 4)):
            u = rng.choice(verts)
            w = u if rng.random() < 0.5 else rng.choice(verts)
            for _ in range(rng.randint(1, 2)):
                edges.append((len(edges), u, w, length()))
        yield "multigraph", _relabeled(MetricGraph.build(g.vertices, edges), rng)


def test_reduce_graph_matches_prune_then_smooth():
    rng = random.Random(16)
    count = 0
    for kind, g in _reduction_cases(rng):
        red, removed = reduce_graph(g)
        want, want_removed = prune_then_smooth(g)
        assert (red.vertices, red.edges, removed) == \
            (want.vertices, want.edges, want_removed), (kind, format_graph(g))
        count += 1
    assert count >= 3000
    two = MetricGraph.build([0, 1, 5, 6], [(0, 0, 1, 1), (1, 5, 6, 1)])
    with pytest.raises(GraphError):
        reduce_graph(two)
    with pytest.raises(GraphError):
        prune_then_smooth(two)
    # a pure cycle keeps its largest vertex, carrying a loop of its length
    square = MetricGraph.build(range(4), [(v, v, (v + 1) % 4, 1) for v in range(4)])
    red, removed = reduce_graph(square)
    assert removed == (0, 1, 2) and red.vertices == {3}
    assert [(e.u, e.w, e.length) for e in red.edges] == [(3, 3, 4)]


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
    h = g if skip_edge is None else delete_edge(g, skip_edge)
    D = h.int_grid()[0]
    grid, parent = grid_shortest_paths(
        h, src, None if cutoff is None else math.floor(cutoff * D))
    dist = {v: F(d, D) for v, d in grid.items()}
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


@given(st.integers(2, 6), st.integers(0, 99), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_grid_shortest_paths_bound_past_cutoff(b, seed, rng):
    """A 1-Lipschitz bound, min over a few sources c of d(c, v) + a_c (no
    source leaves every vertex unbounded): within the cutoff the tree is
    the unbounded one; past it, exactly the vertices whose distance beats
    their bound come back, with their true distance and parent."""
    g = random_connected(b, (F(1, 4), F(1)), seed, denom=rng.choice((4, 8, 12)))
    verts = sorted(g.vertices)
    src = rng.choice(verts)
    full, full_parent = grid_shortest_paths(g, src)
    bound = dict.fromkeys(verts, math.inf)
    for c in rng.sample(verts, rng.randint(0, len(verts))):
        a = rng.randint(0, 8)
        for v, d in grid_shortest_paths(g, c)[0].items():
            bound[v] = min(bound[v], d + a)
    cutoff = rng.randint(0, max(full.values()) + 1)
    dist, parent = grid_shortest_paths(g, src, cutoff, bound)
    assert set(dist) == {v for v, d in full.items() if d <= cutoff or d < bound[v]}
    assert dist == {v: full[v] for v in dist}
    assert parent == {v: full_parent[v] for v in dist}


def _lipschitz_bound(g, rng) -> dict:
    """min over a few sources c of d(c, v) + a_c, 1-Lipschitz on the grid
    like the packing's min over its centers (no source leaves every vertex
    unbounded)."""
    bound = dict.fromkeys(g.int_grid()[1], math.inf)
    for c in rng.sample(sorted(bound), rng.randint(0, min(3, len(bound)))):
        a = rng.randint(0, 8)
        for v, d in heap_grid_shortest_paths(g, c)[0].items():
            bound[v] = min(bound[v], d + a)
    return bound


def _assert_heap_tree(g, src, rng):
    """``grid_shortest_paths`` from src gives the heap oracle's very dist
    and parent maps, with no cutoff, a cutoff alone, and a cutoff with a
    1-Lipschitz bound: the same first tight reacher of every vertex."""
    full = heap_grid_shortest_paths(g, src)
    assert grid_shortest_paths(g, src) == full, src
    cutoff = rng.randint(0, max(full[0].values()) + 1)
    assert grid_shortest_paths(g, src, cutoff) == \
        heap_grid_shortest_paths(g, src, cutoff), (src, cutoff)
    bound = _lipschitz_bound(g, rng)
    assert grid_shortest_paths(g, src, cutoff, bound) == \
        heap_grid_shortest_paths(g, src, cutoff, bound), (src, cutoff)


@st.composite
def _tie_graphs(draw):
    """Multigraphs with loops and parallel edges, their lengths all equal,
    drawn from three values, or all distinct (k/997, k unique)."""
    n = draw(st.integers(1, 8))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=16))
    kind = draw(st.sampled_from(["equal", "few", "distinct"]))
    if kind == "equal":
        lengths = [F(1, 3)] * len(ends)
    elif kind == "few":
        lengths = draw(st.lists(st.sampled_from([F(1, 2), F(1), F(3, 2)]),
                                min_size=len(ends), max_size=len(ends)))
    else:
        lengths = [F(k, 997) for k in draw(st.lists(
            st.integers(1, 3000), unique=True, min_size=len(ends), max_size=len(ends)))]
    return MetricGraph.build(range(n), [(i, u, w, l) for i, ((u, w), l)
                                        in enumerate(zip(ends, lengths))])


@given(_tie_graphs(), st.randoms(use_true_random=False))
@example(theta_graph(), random.Random(0))
@example(trivalent_reference(5), random.Random(0))
@settings(max_examples=150, deadline=None)
def test_shortest_path_trees_match_heap_oracle(g, rng):
    for src in sorted(g.vertices):
        _assert_heap_tree(g, src, rng)


@pytest.mark.parametrize("make", [
    *(lambda n=n: corpus_surface(n) for n in (
        "torus7.surf", "torus7_sub.surf", "torus7_sub_sixth.surf",
        "genus2.surf", "genus2_neck.surf")),
    *(lambda m=m: relabeled(m(), 5, shuffle_faces=True)
      for m in NERVE_PACK_MESHES.values())],
    ids=["torus7", "torus7_sub", "torus7_sub_sixth", "genus2", "genus2_neck",
         *(f"{n}_relabeled" for n in NERVE_PACK_MESHES)])
def test_surface_shortest_path_trees_match_heap_oracle(make):
    # every root of a corpus surface, a dozen of each nerve-pack mesh
    s = make()
    rng = random.Random(11)
    verts = sorted(s.vertices)
    for src in verts if len(verts) <= 100 else rng.sample(verts, 12):
        _assert_heap_tree(s, src, rng)


@st.composite
def _multigraphs(draw):
    """Small multigraphs, not necessarily connected: loops, parallel and
    pendant edges, trees and isolated vertices all occur."""
    n = draw(st.integers(1, 6))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                   st.integers(1, 8)), max_size=10))
    return MetricGraph.build(range(n), [(i, u, w, F(k, 4))
                                        for i, (u, w, k) in enumerate(ends)])


@given(_multigraphs())
@example(theta_graph())
@example(trivalent_reference(5))
@settings(max_examples=150, deadline=None)
def test_girth_and_separating_match_edge_deletion(g):
    assert girth(g) == edge_by_edge_girth(g)
    if not g.is_connected():
        return
    for e in g.edges:
        # deleting a bridge leaves the Betti number, any other edge lowers it
        assert is_separating(g, e.id) == (betti(delete_edge(g, e.id)) == betti(g))


def test_shortest_paths_tie_rule_and_unknown_source():
    # unit 4-cycle 0-1-2-3: both neighbours reach 2 at distance 2, and the
    # first settled in the bucket of distance 1, vertex 1, is its parent
    g = MetricGraph.build(range(4), [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1),
                                     (3, 3, 0, 1)])
    dist, parent = grid_shortest_paths(g, 0)
    assert F(dist[2], g.int_grid()[0]) == 2 and parent[2] == 1
    assert tree_path(parent, 2) == [0, 1, 2]
    with pytest.raises(GraphError):
        grid_shortest_paths(g, 9)


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
