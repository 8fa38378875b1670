"""Metric graphs with exact rational edge lengths.

Vertices are integer ids.  Edges carry their own integer id, an unordered
endpoint pair (equal endpoints give a loop) and a strictly positive
``Fraction`` length.  Parallel edges are allowed.  All values are frozen
after construction; every operation returns a new graph.

Every vertex-distance search goes through one Dijkstra core,
``grid_shortest_paths``, on the common-denominator integer grid.  It runs on
anything that has ``int_grid()`` (a ``MetricGraph`` or a surface), with an
optional cutoff and a per-vertex bound past it, and returns grid distances
and a shortest-path tree.  Its queue is a bucket of vertices per grid
distance under a heap of the distinct distances (Dial's), each bucket
settled in ascending vertex order, so a vertex's parent is the first
vertex in (distance, vertex) order that reached it at its final distance.
A caller that needs exact distances divides by D itself, and only where it
reports them.
``reduce_graph`` prunes leaves and smooths degree-2 vertices in one pass
over a table of degrees and incident edge ids.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Structural problem with a metric graph or an operation on it."""


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    w: int
    length: Fraction

    @property
    def is_loop(self) -> bool:
        return self.u == self.w

    def other(self, v: int) -> int:
        if v == self.u:
            return self.w
        if v == self.w:
            return self.u
        raise GraphError(f"vertex {v} not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class MetricGraph:
    vertices: frozenset[int]
    edges: tuple[Edge, ...]
    _adj: dict[int, list[Edge]] = field(init=False, repr=False, compare=False)
    _grid: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [e.id for e in self.edges]
        if len(ids) != len(set(ids)):
            raise GraphError("duplicate edge ids")
        adj: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.length <= 0:
                raise GraphError(f"nonpositive length on edge {e.id}")
            if e.u not in self.vertices or e.w not in self.vertices:
                raise GraphError(f"edge {e.id} has unknown endpoint")
            adj[e.u].append(e)
            if not e.is_loop:
                adj[e.w].append(e)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_grid", None)

    @staticmethod
    def build(vertices: Iterable[int],
              edges: Iterable[tuple[int, int, int, Fraction | int | str]]) -> "MetricGraph":
        es = tuple(Edge(i, u, w, Fraction(l)) for i, u, w, l in edges)
        return MetricGraph(frozenset(vertices), es)

    def incident(self, v: int) -> list[Edge]:
        return self._adj[v]

    def int_grid(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """(D, adj): D is the lcm of the length denominators and adj[v]
        lists (length * D, other end) in ``incident`` order."""
        if self._grid is None:
            D = math.lcm(*(e.length.denominator for e in self.edges))
            adj = {v: [(e.length.numerator * (D // e.length.denominator),
                        e.other(v)) for e in es]
                   for v, es in self._adj.items()}
            object.__setattr__(self, "_grid", (D, adj))
        return self._grid

    def degree(self, v: int) -> int:
        # loops counted twice
        return sum(2 if e.is_loop else 1 for e in self._adj[v])

    def edge_by_id(self, eid: int) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise GraphError(f"unknown edge id {eid}")

    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for e in self._adj[v]:
                    for x in (e.u, e.w):
                        if x not in comp:
                            comp.add(x)
                            stack.append(x)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def next_edge_id(self) -> int:
        return max((e.id for e in self.edges), default=-1) + 1


def betti(g: MetricGraph) -> int:
    """First Betti number e - v + n."""
    return len(g.edges) - len(g.vertices) + len(g.components())


def girth(g: MetricGraph) -> Fraction | None:
    """Length of the shortest cycle, or None for a forest.

    Loops count as cycles of their own length; a pair of parallel edges is a
    cycle of the summed lengths.  For each vertex v with shortest-path tree
    T, every edge (a, b) outside T closes a walk of length d(a) + l + d(b)
    that holds a cycle no longer (the two tree paths part at their last
    common vertex), and a shortest cycle through v has an edge outside T
    at which the bound is its length.  Tree edges go by edge id, since
    parallel edges share their ends: the first tight edge from the parent.
    """
    D, adj = g.int_grid()
    best = None
    for v in g.vertices:
        dist, parent = grid_shortest_paths(g, v)
        tree = set()
        for u, p in parent.items():
            if p is not None:
                tree.add(next(e.id for (l, x), e in zip(adj[u], g.incident(u))
                              if x == p and dist[p] + l == dist[u]))
        for e in g.edges:
            if e.id not in tree and e.u in dist:
                l = e.length.numerator * (D // e.length.denominator)
                cand = dist[e.u] + l + dist[e.w]
                if best is None or cand < best:
                    best = cand
    return None if best is None else Fraction(best, D)


def grid_shortest_paths(g, src: int, cutoff: int | None = None,
                        bound: Mapping[int, int] | None = None
                        ) -> tuple[dict[int, int], dict[int, int | None]]:
    """Dijkstra from ``src`` on the common-denominator integer grid of
    ``g.int_grid()``: distances, ``cutoff`` and ``bound`` are integers in
    units of 1/D.  ``g`` is anything with ``int_grid()``: a ``MetricGraph``
    or a ``TriSurface``.

    Returns (dist, parent).  ``dist`` maps every reached vertex to its
    distance; ``parent`` maps ``src`` to None and every other reached vertex
    to the vertex that first reached it at its final distance.  The queue is
    Dial's: a bucket of vertices per grid distance, under a heap of the
    distinct distances.  Each bucket is settled in ascending vertex order,
    skipping entries whose distance has since fallen, and relaxes edges in
    ``incident`` order on strict improvement.  Every grid length is at
    least 1, so no relaxation lands in the bucket being settled, and
    vertices settle in (distance, vertex) order.  A relaxation beyond
    ``cutoff`` is dropped, unless ``bound`` is given and it beats
    ``bound[u]``.  So every vertex within the cutoff is reached with its
    true distance and parent, and so is every vertex whose distance beats
    its bound, when the bound is 1-Lipschitz (every vertex on a shortest
    path to it then beats its own bound); no other vertex is reached.
    A ``bool`` source is refused, not taken as vertex 0 or 1.
    """
    adj = g.int_grid()[1]
    if isinstance(src, bool) or src not in adj:
        raise GraphError(f"unknown source vertex {src!r}")
    dist = {src: 0}
    parent: dict[int, int | None] = {src: None}
    buckets = {0: [src]}
    keys = [0]
    while keys:
        d = heapq.heappop(keys)
        bucket = buckets.pop(d)
        bucket.sort()
        for v in bucket:
            if dist[v] != d:
                continue        # stale: v settled at a shorter distance
            for l, u in adj[v]:
                nd = d + l
                if cutoff is not None and nd > cutoff and (
                        bound is None or nd >= bound[u]):
                    continue
                if u not in dist or nd < dist[u]:
                    dist[u] = nd
                    parent[u] = v
                    if nd in buckets:
                        buckets[nd].append(u)
                    else:
                        buckets[nd] = [u]
                        heapq.heappush(keys, nd)
    return dist, parent


def tree_path(parent: Mapping[int, int | None], v: int) -> list[int]:
    """Vertex path from the root of a ``grid_shortest_paths`` tree (its
    parent map) down to v."""
    path = [v]
    while (v := parent[v]) is not None:
        path.append(v)
    path.reverse()
    return path


def validate(g: MetricGraph) -> dict:
    """Structural diagnostics; violations are listed, never fixed."""
    errors: list[str] = []
    for e in g.edges:
        if e.length <= 0:
            errors.append(f"nonpositive length on edge {e.id}")
    degsum = sum(g.degree(v) for v in g.vertices)
    if degsum != 2 * len(g.edges):
        errors.append("degree sum != 2e")
    connected = g.is_connected()
    return {
        "connected": connected,
        "components": len(g.components()),
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "betti": betti(g),
        "min_degree": min((g.degree(v) for v in g.vertices), default=0),
        "degree_sum": degsum,
        "total_length": g.total_length(),
        "errors": errors,
    }


def reduce_graph(g: MetricGraph) -> tuple[MetricGraph, tuple[int, ...]]:
    """Prune leaves, then smooth degree-2 vertices, in one pass over a
    degree table.  Returns the reduced graph and the removed vertices in
    removal order; surviving vertices and edges keep their ids.

    Each pruning round removes, in ascending order, the degree-1 vertices
    of its start; a round of one edge keeps its smaller end, so a tree
    collapses to one vertex.  Smoothing visits the survivors once in
    ascending order and replaces the two edges at each loop-free degree-2
    vertex by one edge of summed length between its neighbours, ends in
    edge-id order, ids counting up past the largest left after pruning.  A
    merge changes no degree, so one pass leaves nothing to smooth; a pure
    cycle keeps its largest vertex, with a loop of the cycle's length.
    """
    if not g.is_connected():
        raise GraphError("reduce_graph requires a connected graph")
    edges = {e.id: e for e in g.edges}
    deg = dict.fromkeys(g.vertices, 0)      # loops count twice
    inc: dict[int, set[int]] = {v: set() for v in g.vertices}
    for e in g.edges:
        for x in (e.u, e.w):
            deg[x] += 1
            inc[x].add(e.id)
    removed: list[int] = []

    leaves = sorted(v for v, d in deg.items() if d == 1)
    while leaves:
        if len(leaves) == len(deg):
            leaves = leaves[1:]
        touched = set()
        for v in leaves:
            # one edge left: leaves of a round meet only in the one-edge case
            (i,) = inc.pop(v)
            x = edges.pop(i).other(v)
            inc[x].remove(i)
            deg[x] -= 1
            del deg[v]
            removed.append(v)
            touched.add(x)
        leaves = sorted(x for x in touched if deg[x] == 1)

    next_id = max(edges, default=-1) + 1
    for v in sorted(deg):
        if deg[v] != 2 or len(inc[v]) != 2:
            continue
        i, j = sorted(inc.pop(v))
        e1, e2 = edges.pop(i), edges.pop(j)
        a, b = e1.other(v), e2.other(v)
        for x, k in ((a, i), (b, j)):
            inc[x].remove(k)
            inc[x].add(next_id)
        edges[next_id] = Edge(next_id, a, b, e1.length + e2.length)
        next_id += 1
        del deg[v]
        removed.append(v)
    return (MetricGraph(frozenset(deg), tuple(edges[i] for i in sorted(edges))),
            tuple(removed))


def is_separating(g: MetricGraph, edge_id: int) -> bool:
    """True iff deleting the open edge disconnects g.  Loops never separate.

    One search over ``incident`` that never crosses the edge, from its end
    u and then, if u's side misses it, from its other end w: g is connected
    iff the two sides cover every vertex, and the edge separates iff w was
    not on u's side.  No graph is built."""
    e = g.edge_by_id(edge_id)
    seen: set[int] = set()
    sides = 0
    for start in (e.u, e.w):
        if start in seen:
            continue
        sides += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for f in g.incident(v):
                x = f.other(v)
                if f.id != edge_id and x not in seen:
                    seen.add(x)
                    stack.append(x)
    if len(seen) != len(g.vertices):
        raise GraphError("is_separating requires a connected graph")
    return sides == 2


def delete_edge(g: MetricGraph, edge_id: int) -> MetricGraph:
    g.edge_by_id(edge_id)
    return MetricGraph(g.vertices, tuple(e for e in g.edges if e.id != edge_id))


def induced_subgraph(g: MetricGraph, verts: set[int]) -> MetricGraph:
    es = tuple(e for e in g.edges if e.u in verts and e.w in verts)
    return MetricGraph(frozenset(verts), es)


def scale(g: MetricGraph, mu: Fraction | int | str) -> MetricGraph:
    mu = Fraction(mu)
    if mu <= 0:
        raise GraphError("scale factor must be positive")
    return MetricGraph(g.vertices,
                       tuple(Edge(e.id, e.u, e.w, e.length * mu) for e in g.edges))


# ---------------------------------------------------------------------------
# generators

def theta_graph() -> MetricGraph:
    """Two vertices joined by three unit edges."""
    l = Fraction(1)
    return MetricGraph.build([0, 1], [(0, 0, 1, l), (1, 0, 1, l), (2, 0, 1, l)])


def figure_eight() -> MetricGraph:
    """One vertex with two unit loops."""
    l = Fraction(1)
    return MetricGraph.build([0], [(0, 0, 0, l), (1, 0, 0, l)])


def trivalent_reference(b: int) -> MetricGraph:
    """Unit-length trivalent graph of first Betti number b (3b-3 edges).

    A path on 2(b-1) vertices with a loop at each end; consecutive
    vertices k, k+1 are joined by one edge for even k and two for odd k,
    so every vertex has degree 3 for b >= 3.  b = 2 is the theta graph.
    """
    if b < 2:
        raise GraphError("trivalent reference needs b >= 2")
    if b == 2:
        return theta_graph()
    n = 2 * (b - 1)
    pairs = [(0, 0), (n - 1, n - 1)]
    for k in range(n - 1):
        pairs += [(k, k + 1)] * (1 + k % 2)
    return MetricGraph.build(range(n), [(i, u, w, 1) for i, (u, w) in enumerate(pairs)])


def random_connected(b: int, length_range: tuple[Fraction, Fraction], seed: int,
                     denom: int = 8) -> MetricGraph:
    """Seeded random connected multigraph of first Betti number b.

    Lengths are multiples of 1/denom inside ``length_range``.
    """
    if b < 2:
        raise GraphError("random_connected needs b >= 2")
    rng = random.Random(seed)
    lo, hi = Fraction(length_range[0]), Fraction(length_range[1])
    klo, khi = -(-lo * denom // 1), hi * denom // 1
    if klo > khi or klo <= 0:
        raise GraphError("empty length range at this denominator")

    def rand_len():
        return Fraction(rng.randint(int(klo), int(khi)), denom)

    nv = rng.randint(2, 2 * b)
    verts = list(range(nv))
    edges = []
    eid = 0
    order = verts[1:]
    rng.shuffle(order)
    joined = [verts[0]]
    for v in order:
        u = rng.choice(joined)
        edges.append((eid, u, v, rand_len())); eid += 1
        joined.append(v)
    for _ in range(b):
        u = rng.choice(verts)
        w = rng.choice(verts)
        edges.append((eid, u, w, rand_len())); eid += 1
    return MetricGraph.build(verts, edges)


def generate(kind: str, b: int | None = None, seed: int = 0) -> MetricGraph:
    """A graph of the named kind; the last two kinds need the Betti number b."""
    if kind == "theta":
        return theta_graph()
    if kind == "figure_eight":
        return figure_eight()
    if kind == "trivalent_reference":
        return trivalent_reference(b)
    if kind == "random_connected":
        return random_connected(b, (Fraction(1, 4), Fraction(1)), seed)
    raise GraphError(f"unknown graph kind {kind!r}")


# ---------------------------------------------------------------------------
# text format: `v <id>` / `e <id> <u> <w> <p>/<q>` lines, '#' comments

def parse_graph(text: str) -> MetricGraph:
    verts: list[int] = []
    edges: list[tuple[int, int, int, Fraction]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                verts.append(int(parts[1]))
            elif parts[0] == "e" and len(parts) == 5:
                edges.append((int(parts[1]), int(parts[2]), int(parts[3]),
                              Fraction(parts[4])))
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise GraphError(f"malformed graph line {ln}: {raw!r}") from None
    if not verts:
        raise GraphError("no vertices")
    return MetricGraph.build(verts, edges)


def format_graph(g: MetricGraph) -> str:
    lines = [f"v {v}" for v in sorted(g.vertices)]
    for e in sorted(g.edges, key=lambda e: e.id):
        u, w = min(e.u, e.w), max(e.u, e.w)
        lines.append(f"e {e.id} {u} {w} {e.length.numerator}/{e.length.denominator}")
    return "\n".join(lines) + "\n"
