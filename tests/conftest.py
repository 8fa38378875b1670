import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping

from coverball import cover, fixtures, surfballs
from coverball.graphs import (Edge, GraphError, MetricGraph, betti, delete_edge,
                             grid_shortest_paths, tree_path)
from coverball.surface import (SurfaceError, TriSurface, _edge_set, _pair,
                               capturing_test, parse_surface, prune_pieces,
                               subgraph_length, subgraph_metric_graph)


def _cover_tree_edges(g: MetricGraph, base: int, R: Fraction):
    """The cover tree edges leaving the base lift and every one entered at
    distance below R, as (entry distance, length): expand non-backtracking
    directed paths one tree edge at a time, no aggregation."""
    departures: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    head = {}
    length = {}
    for e in g.edges:
        head[(e.id, 0)] = e.w
        head[(e.id, 1)] = e.u
        length[(e.id, 0)] = length[(e.id, 1)] = e.length
        departures[e.u].append((e.id, 0))
        departures[e.w].append((e.id, 1))
    stack = [(t, Fraction(0)) for t in departures[base]]
    while stack:
        t, d = stack.pop()
        l = length[t]
        yield d, l
        if d + l < R:
            rev = (t[0], 1 - t[1])
            for s in departures[head[t]]:
                if s != rev:
                    stack.append((s, d + l))


def brute_force_cover_ball(g: MetricGraph, base: int, R: Fraction) -> Fraction:
    """Independent oracle: sum of clipped lengths over the cover tree."""
    R = Fraction(R)
    return sum((min(l, R - d) for d, l in _cover_tree_edges(g, base, R)),
               Fraction(0))


def brute_force_cover_nodes(g: MetricGraph, base: int, R: Fraction) -> int:
    """Independent oracle: cover tree vertices within distance R."""
    R = Fraction(R)
    return 1 + sum(d + l <= R for d, l in _cover_tree_edges(g, base, R))


def covered_length(length: Fraction, R: Fraction, du: Fraction,
                   dw: Fraction) -> Fraction:
    """Oracle for ``cover.grid_covered_length``, one edge in ``Fraction``s:
    the part of an edge of ``length`` within R of a base at distances du
    and dw from its ends, R - d in from each end within R, and never more
    than the whole edge."""
    return min(length, max(R - du, 0) + max(R - dw, 0))


def fraction_finite_ball(g: MetricGraph, base: int, R: Fraction) -> Fraction:
    """Oracle for ``cover.finite_ball_length`` at a vertex base:
    ``covered_length`` summed in ``Fraction``s over the edges, at the heap
    oracle's distances, an end the base does not reach counted as one at
    distance R, which covers nothing."""
    R = Fraction(R)
    D = g.int_grid()[0]
    dist = {v: Fraction(d, D)
            for v, d in heap_grid_shortest_paths(g, base)[0].items()}
    return sum((covered_length(e.length, R, dist.get(e.u, R), dist.get(e.w, R))
                for e in g.edges), Fraction(0))


def _transitions(g: MetricGraph):
    """Directed-traversal tables.

    A traversal is (edge id, direction); direction 0 runs u->w, 1 runs w->u.
    A loop contributes two distinct departures at its vertex; only the exact
    reversal of the incoming traversal is forbidden.
    """
    head = {}
    length = {}
    departures: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        head[(e.id, 0)] = e.w
        head[(e.id, 1)] = e.u
        length[(e.id, 0)] = length[(e.id, 1)] = e.length
        departures[e.u].append((e.id, 0))
        departures[e.w].append((e.id, 1))
    for v in departures:
        departures[v].sort()
    nxt = {}
    for t in head:
        rev = (t[0], 1 - t[1])
        nxt[t] = [s for s in departures[head[t]] if s != rev]
    return head, length, departures, nxt


def heap_ball_length(g: MetricGraph, base, R, budget: int = cover.DEFAULT_BUDGET):
    """Independent oracle for ``cover.ball_length``: the state-by-state
    expansion, one heap of keys and a dict of traversal multiplicities per
    key.  Each processed state pushes its multiplicity into the slots of
    all deg - 1 successor traversals, and the states of a key are
    expanded in sorted (edge id, direction) order until the budget is
    spent.  Returns the same ``GrowthReport``, profile included."""
    R = Fraction(R)
    if R < 0:
        raise GraphError("radius must be nonnegative")
    if budget < 1:
        raise GraphError("budget must be at least 1")
    if not g.is_connected():
        raise GraphError("ball_length requires a connected graph")
    orig_base = base
    g, base_v = cover._with_base_vertex(g, base)

    D = math.lcm(*(e.length.denominator for e in g.edges), R.denominator)
    K = R * D
    assert K.denominator == 1
    K = K.numerator
    _, length, departures, nxt = _transitions(g)
    # traversals as ints in sorted (edge id, direction) order, which is the
    # order states of one key are expanded in, so the budget cuts the same
    trav = sorted(length)
    index = {t: i for i, t in enumerate(trav)}
    ilen = [int(length[t] * D) for t in trav]
    inxt = [[index[s] for s in nxt[t]] for t in trav]

    pending = {0: {index[t]: 1 for t in departures[base_v]}}
    keys = [0]
    entered: dict[int, int] = {}
    ended: dict[int, int] = {}
    slots = 0
    stop = None
    while keys:
        k = heapq.heappop(keys)
        batch = pending.pop(k)
        n_in = 0
        for t in sorted(batch):
            if slots >= budget:
                stop = k
                break
            slots += 1
            mult = batch[t]
            n_in += mult
            k2 = k + ilen[t]
            if k2 <= K:
                ended[k2] = ended.get(k2, 0) + mult
                if k2 < K:
                    tgt = pending.get(k2)
                    if tgt is None:
                        tgt = pending[k2] = {}
                        heapq.heappush(keys, k2)
                    for s in inxt[t]:
                        tgt[s] = tgt.get(s, 0) + mult
        entered[k] = n_in
        if stop is not None:
            break
    cuts = sorted(entered.keys() | ended.keys())
    slope = weighted = reached = 0
    sums = [(0, 0, 0)]
    for c in cuts:
        n_end = ended.get(c, 0)
        change = entered.get(c, 0) - n_end
        slope += change
        weighted += change * c
        reached += n_end
        sums.append((slope, weighted, reached))
    return cover._Profile(D, cuts, sums, stop).report(orig_base, R)


def random_bounded_instance(b: int, total_bound: Fraction, seed: int,
                            denom: int = 64) -> MetricGraph:
    """Random connected multigraph of Betti number b whose edge lengths are
    multiples of 1/denom and whose total length is at most ``total_bound``."""
    rng = random.Random(seed)
    nv = rng.randint(2, 2 * b)
    verts = list(range(nv))
    edges = []
    eid = 0
    order = verts[1:]
    rng.shuffle(order)
    joined = [verts[0]]
    for v in order:
        edges.append([eid, rng.choice(joined), v])
        eid += 1
        joined.append(v)
    for _ in range(b):
        edges.append([eid, rng.choice(verts), rng.choice(verts)])
        eid += 1
    hi = int(Fraction(total_bound) / len(edges) * denom)
    if hi < 1:
        raise ValueError("bound too small for this denominator")
    full = [(i, u, w, Fraction(rng.randint(1, hi), denom))
            for (i, u, w) in edges]
    return MetricGraph.build(verts, full)


def prune_leaves(g: MetricGraph) -> tuple[MetricGraph, tuple[int, ...]]:
    """Iteratively remove degree-1 vertices with their incident edges.

    A tree collapses to its single surviving vertex (the smallest id when the
    last round would empty the graph).  Degrees are recounted over all edges.
    """
    if not g.is_connected():
        raise GraphError("prune_leaves requires a connected graph")
    verts = set(g.vertices)
    edges = {e.id: e for e in g.edges}
    removed: list[int] = []

    def deg(v):
        return sum(2 if e.is_loop else 1 for e in edges.values() if v in (e.u, e.w))

    while True:
        leaves = sorted(v for v in verts if deg(v) == 1)
        if not leaves:
            break
        if len(leaves) == len(verts):
            # final pair of a path: keep the smallest id
            leaves = leaves[1:]
        for v in leaves:
            removed.append(v)
            verts.discard(v)
            for eid in [i for i, e in edges.items() if v in (e.u, e.w)]:
                del edges[eid]
    reduced = MetricGraph(frozenset(verts), tuple(sorted(edges.values(), key=lambda e: e.id)))
    return reduced, tuple(removed)


def smooth_degree2(g: MetricGraph) -> tuple[MetricGraph, tuple[int, ...]]:
    """Merge the two edges at every degree-2 vertex into one of summed length,
    restarting the ascending scan after each merge.

    A pure cycle cannot be emptied: the vertex smoothed last (the largest
    id) keeps a loop carrying the whole cycle length.  Total length and
    Betti number are preserved exactly.
    """
    if not g.is_connected():
        raise GraphError("smooth_degree2 requires a connected graph")
    verts = set(g.vertices)
    edges = {e.id: e for e in g.edges}
    removed: list[int] = []
    next_id = g.next_edge_id()

    def deg(v):
        return sum(2 if e.is_loop else 1 for e in edges.values() if v in (e.u, e.w))

    changed = True
    while changed:
        changed = False
        for v in sorted(verts):
            if deg(v) != 2:
                continue
            inc = [e for e in edges.values() if v in (e.u, e.w)]
            if len(inc) == 1:
                # v carries a loop: nothing to merge
                continue
            e1, e2 = sorted(inc, key=lambda e: e.id)
            a, b = e1.other(v), e2.other(v)
            if a == v or b == v:
                continue
            merged = Edge(next_id, a, b, e1.length + e2.length)
            del edges[e1.id], edges[e2.id]
            edges[next_id] = merged
            next_id += 1
            removed.append(v)
            verts.discard(v)
            changed = True
            break
    reduced = MetricGraph(frozenset(verts), tuple(sorted(edges.values(), key=lambda e: e.id)))
    return reduced, tuple(removed)


def prune_then_smooth(g: MetricGraph) -> tuple[MetricGraph, tuple[int, ...]]:
    """Independent oracle for ``graphs.reduce_graph``: ``prune_leaves``,
    then ``smooth_degree2`` on the pruned graph, removals concatenated."""
    pruned, r1 = prune_leaves(g)
    reduced, r2 = smooth_degree2(pruned)
    return reduced, r1 + r2


def heap_grid_shortest_paths(g, src: int, cutoff: int | None = None,
                             bound: Mapping[int, int] | None = None
                             ) -> tuple[dict[int, int], dict[int, int | None]]:
    """Oracle for ``graphs.grid_shortest_paths``: the same search on a heap
    of (d, v) entries, one pushed per strict improvement and stale ones
    skipped, so each vertex's parent is the vertex that first reached it at
    its final distance in (d, v) pop order, edges in ``incident`` order."""
    adj = g.int_grid()[1]
    if isinstance(src, bool) or src not in adj:
        raise GraphError(f"unknown source vertex {src!r}")
    dist = {src: 0}
    parent: dict[int, int | None] = {src: None}
    heap = [(0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for l, u in adj[v]:
            nd = d + l
            if cutoff is not None and nd > cutoff and (
                    bound is None or nd >= bound[u]):
                continue
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, parent


def edge_by_edge_girth(g: MetricGraph) -> Fraction | None:
    """Independent oracle for ``graphs.girth``: the least, over the edges,
    of a loop's length or an edge's length plus the distance between its
    ends once it is deleted; None when no edge lies on a cycle."""
    best = None
    for e in g.edges:
        if e.is_loop:
            cand = e.length
        else:
            h = delete_edge(g, e.id)
            d = grid_shortest_paths(h, e.u)[0].get(e.w)
            if d is None:
                continue
            cand = Fraction(d, h.int_grid()[0]) + e.length
        if best is None or cand < best:
            best = cand
    return best


def enumerate_simple_cycles(s: TriSurface, bound: Fraction,
                            through: int | None = None):
    """Independent oracle: all simple vertex cycles with total length <=
    bound, sorted by (length, cycle).

    Canonical form: smallest vertex first (or ``through`` first when given)
    and second vertex smaller than the last.  Pruned by straight-line
    shortest-path distance back to the start.
    """
    g = subgraph_metric_graph(s, s.edges)
    cycles = []
    starts = [through] if through is not None else sorted(s.vertices)
    for start in starts:
        d0 = s.distances_from(start)
        path = [start]
        onpath = {start}

        def dfs(length: Fraction):
            v = path[-1]
            for e in sorted(g.incident(v), key=lambda e: (e.other(v),)):
                u = e.other(v)
                nl = length + e.length
                if nl > bound:
                    continue
                if u == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append((nl, list(path)))
                    continue
                if u in onpath:
                    continue
                if through is None and u < start:
                    continue
                if nl + d0.get(u, nl) > bound:
                    continue
                path.append(u)
                onpath.add(u)
                dfs(nl)
                path.pop()
                onpath.discard(u)

        dfs(Fraction(0))
    # deduplicate (same cycle found from several starts when through is set)
    seen = set()
    out = []
    for length, cyc in sorted(cycles, key=lambda t: (t[0], t[1])):
        key = frozenset(_pair(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        if key in seen:
            continue
        seen.add(key)
        out.append((length, cyc))
    return out


# independent oracles for ``surfballs._face_pieces``: components grown one
# face at a time, and the Euler characteristic with every corner fan walked

def face_set_chi(s: TriSurface, faces_set: set[int], cut_edges: set) -> int:
    """Euler characteristic of the subsurface spanned by ``faces_set`` after
    cutting along ``cut_edges`` (each cut edge counts once per incident face
    in the set; vertices count once per corner fan)."""
    cut = {(_pair(*e)) for e in cut_edges}
    F = len(faces_set)
    E = 0
    for e, fs in s.edge_faces.items():
        inc = sum(1 for f in fs if f in faces_set)
        if not inc:
            continue
        E += inc if e in cut else 1
    # corner fans around each incident vertex
    V = 0
    vfaces: dict[int, list[int]] = {}
    for i in faces_set:
        for v in s.faces[i]:
            vfaces.setdefault(v, []).append(i)
    for v, fs in vfaces.items():
        fset = set(fs)
        seen: set[int] = set()
        for start in fs:
            if start in seen:
                continue
            V += 1
            comp = {start}
            stack = [start]
            while stack:
                i = stack.pop()
                a, b, c = s.faces[i]
                for (x, y) in ((a, b), (b, c), (c, a)):
                    if v not in (x, y):
                        continue
                    e = _pair(x, y)
                    if e in cut:
                        continue
                    for j in s.edge_faces[e]:
                        if j in fset and j not in comp:
                            comp.add(j)
                            stack.append(j)
            seen |= comp
    return V - E + F


def _face_components(s: TriSurface, faces_set: set[int], cut_edges: set) -> list[set[int]]:
    cut = {(_pair(*e)) for e in cut_edges}
    comps = []
    left = set(faces_set)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            a, b, c = s.faces[i]
            for (x, y) in ((a, b), (b, c), (c, a)):
                e = _pair(x, y)
                if e in cut:
                    continue
                for j in s.edge_faces[e]:
                    if j in left and j not in comp:
                        comp.add(j)
                        stack.append(j)
        comps.append(comp)
        left -= comp
    return comps


def faces_with_all_corners_in(s: TriSurface, inside) -> frozenset[int]:
    """Independent oracle for ``surfballs._ball_faces``: each face at a
    vertex inside, kept when all three of its vertices are inside, inserted
    in ascending order."""
    return frozenset(sorted({f for v in inside for f in s.vertex_faces[v]
                             if all(w in inside for w in s.faces[f])}))


def is_contractible_cycle(s: TriSurface, cycle_vertices) -> bool:
    """Independent oracle: cut along the simple cycle; contractible iff a
    complement component is a disk."""
    vs = list(cycle_vertices)
    if vs[0] == vs[-1]:
        vs = vs[:-1]
    if len(set(vs)) != len(vs):
        raise SurfaceError("cycle is not simple")
    cyc_edges = {_pair(a, b) for a, b in zip(vs, vs[1:] + vs[:1])}
    allf = set(range(len(s.faces)))
    for comp in _face_components(s, allf, cyc_edges):
        if face_set_chi(s, comp, cyc_edges) == 1:
            return True
    return False


def shortest_essential_cycle(s: TriSurface, bound: Fraction,
                             through: int | None = None):
    """Independent oracle: the length of the shortest non-contractible
    simple cycle no longer than ``bound`` (through ``through`` when
    given), or None."""
    for length, cyc in enumerate_simple_cycles(s, bound, through):
        if not is_contractible_cycle(s, cyc):
            return length
    return None


class FractionEchelon:
    """Independent oracle for ``linalg.Echelon``: an incremental sparse row
    echelon basis over Q.  Vectors are dicts mapping column index to a
    nonzero coefficient; entries are coerced to ``Fraction``."""

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec against the current basis (vec is not modified)."""
        v = {c: Fraction(x) for c, x in vec.items() if x}
        done = -1
        while True:
            todo = [c for c in v if c > done and c in self.pivots]
            if not todo:
                break
            c = min(todo)
            done = c
            row = self.pivots[c]
            coeff = v[c]
            for col, x in row.items():
                nv = v.get(col, 0) - coeff * x
                if nv:
                    v[col] = nv
                else:
                    v.pop(col, None)
        return v

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        c = min(res)
        lead = res[c]
        self.pivots[c] = {col: x / lead for col, x in res.items()}
        return True


def tuple_step(classes, x: int, y: int) -> tuple[int, ...]:
    """Tuple class of the directed edge x -> y under ``walked_homology``'s
    edge classes."""
    return classes[(x, y)] if x < y else tuple(-c for c in classes[(y, x)])


def class_of_walk(classes, walk_vertices) -> dict[int, int]:
    """Homology class of a closed walk given as a vertex list (first and
    last vertex equal, or closure implied), as the sparse vector
    ``FractionEchelon`` takes: the tuple classes of ``walked_homology``
    summed along the walk."""
    vs = list(walk_vertices)
    if vs[0] != vs[-1]:
        vs.append(vs[0])
    acc = [0] * len(next(iter(classes.values()), ()))
    for x, y in zip(vs, vs[1:]):
        for i, c in enumerate(tuple_step(classes, x, y)):
            acc[i] += c
    return {i: c for i, c in enumerate(acc) if c}


def fundamental_cycles(edges) -> list[list[int]]:
    """The fundamental cycles, as vertex lists, of a BFS spanning forest of
    the graph on the vertex pairs ``edges``: one per edge off the forest."""
    pairs = sorted({_pair(*e) for e in edges})
    adj: dict[int, list[int]] = {}
    for u, w in pairs:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    forest = set()
    for r in sorted(adj):
        if r in parent:
            continue
        parent[r], depth[r] = None, 0
        queue = [r]
        for v in queue:
            for u in adj[v]:
                if u not in parent:
                    parent[u], depth[u] = v, depth[v] + 1
                    forest.add(_pair(u, v))
                    queue.append(u)
    cycles = []
    for u, w in pairs:
        if (u, w) in forest:
            continue
        # climb from both ends to their common ancestor
        a, b = [u], [w]
        while a[-1] != b[-1]:
            if depth[a[-1]] >= depth[b[-1]]:
                a.append(parent[a[-1]])
            else:
                b.append(parent[b[-1]])
        cycles.append(a + b[-2::-1])
    return cycles


def fraction_greedy_capture(s: TriSurface):
    """Independent oracle for the unbased ``surfballs._greedy_capture``: the
    candidates of ``fraction_homology_candidates`` sorted by (``Fraction``
    length, cycle), each class summed along its walk and added to a
    ``FractionEchelon`` until it spans H1."""
    classes = walked_homology(s)[2]
    cands = sorted(fraction_homology_candidates(s)[0], key=lambda t: (t[0], t[1]))
    ech = FractionEchelon()
    edges: set = set()
    for length, cyc in cands:
        if ech.add(class_of_walk(classes, cyc)):
            edges |= {_pair(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        if ech.rank == 2 * s.genus:
            break
    if ech.rank != 2 * s.genus:
        raise SurfaceError("greedy capture failed to span H1")
    return subgraph_length(s, edges), edges


def independent_pair_rank(hom_classes) -> int:
    ech = FractionEchelon()
    for c in hom_classes:
        ech.add(c)
    return ech.rank


def capture_by_cycle_pairs(s: TriSurface, x: int | None = None,
                           slack: Fraction = Fraction(0)) -> tuple[Fraction, set]:
    """Independent oracle for exact capture on small genus-1 surfaces:
    exhaustive enumeration of simple cycle pairs with independent classes."""
    classes = walked_homology(s)[2]
    ub, _ = surfballs._greedy_capture(s, x)
    bound = ub + slack
    cycles = enumerate_simple_cycles(s, bound)
    info = []
    for length, cyc in cycles:
        cls = class_of_walk(classes, cyc)
        if cls:
            edges = frozenset(_pair(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            info.append((length, edges, cls))
    info.sort(key=lambda t: t[0])
    if x is not None:
        dx = s.distances_from(x)
    best: Fraction | None = None
    best_edges: set = set()
    for i in range(len(info)):
        l1, e1, c1 = info[i]
        # union length dominates both cycle lengths, so once the shorter
        # cycle alone reaches the incumbent no later pair can win
        if best is not None and l1 >= best:
            break
        for j in range(i + 1, len(info)):
            l2, e2, c2 = info[j]
            if best is not None and l2 >= best:
                break
            if independent_pair_rank([c1, c2]) != 2:
                continue
            union = e1 | e2
            length = subgraph_length(s, union)
            if x is not None:
                arc = min((dx[v] for e in union for v in e), default=None)
                if arc is None:
                    continue
                length += arc
            if best is None or length < best:
                best = length
                best_edges = set(union)
    if best is None:
        raise SurfaceError("no independent cycle pair within the search bound")
    return best, best_edges


def prune_by_capturing_test(s: TriSurface, pieces):
    """Independent oracle for ``surface.prune_pieces``: drop each piece, in
    order, when one ``capturing_test`` on the union of the pieces kept
    without it captures.  Returns the kept indices and every trial as
    (union, verdict)."""
    pieces = [{_pair(*e) for e in p} for p in pieces]
    kept = list(range(len(pieces)))
    trials = []
    for k in range(len(pieces)):
        rest = [j for j in kept if j != k]
        union = set().union(*(pieces[j] for j in rest))
        ok = capturing_test(s, union)[0]
        trials.append((union, ok))
        if ok:
            kept = rest
    return kept, trials


def fraction_homology_candidates(s: TriSurface, base: int | None = None):
    """Independent oracle for ``surfballs._grid_candidates``: the same
    candidate family with ``Fraction`` distances, each candidate's two tree
    paths walked and its class summed along the walk from the tuple classes
    of ``walked_homology``.

    Candidate loops: two shortest-tree paths plus a closing edge, over the
    tree of ``base`` or of every vertex.  Returns (cands, sep): cands lists
    (length, simple vertex cycle) for every homologically nontrivial simple
    candidate in root, then edge order; sep (genus >= 2 only, else None) is
    the first shortest simple candidate of class zero that bounds no disk
    and is shorter than every nontrivial candidate found before it.
    """
    classes = walked_homology(s)[2]
    g = subgraph_metric_graph(s, s.edges)
    best = None
    sep = None
    sources = [base] if base is not None else sorted(s.vertices)
    out = []
    for v0 in sources:
        dist = s.distances_from(v0)
        # deterministic shortest-path tree
        parent: dict[int, int] = {v0: v0}
        for v in sorted(dist, key=lambda v: (dist[v], v)):
            if v == v0:
                continue
            for e in sorted(g.incident(v), key=lambda e: e.id):
                u = e.other(v)
                if dist.get(u, None) is not None and dist[u] + e.length == dist[v]:
                    parent[v] = u
                    break

        def path_to(v):
            p = [v]
            while p[-1] != v0:
                p.append(parent[p[-1]])
            return p[::-1]

        sides = None        # _cotree_sides of this tree, built on first use
        for (u, w) in s.edges:
            if parent.get(u) == w or parent.get(w) == u:
                continue
            length = dist[u] + dist[w] + s.edge_lengths[(u, w)]
            pu, pw = path_to(u), path_to(w)
            walk = pu + pw[::-1]
            cyc = walk[:-1]
            if len(set(cyc)) != len(cyc):
                continue
            if class_of_walk(classes, walk):
                out.append((length, cyc))
                if best is None or length < best:
                    best = length
            elif (s.genus >= 2 and (best is None or length < best)
                  and (sep is None or length < sep[0])):
                # the cycle bounds the faces below (u, w) in C; a disk
                # on either side holds no L-edge
                if sides is None:
                    tree = {_pair(v, p) for v, p in parent.items() if v != v0}
                    sides = surfballs._cotree_sides(s, tree)
                if 0 < sides.get((u, w), 0) < 2 * s.genus:
                    sep = (length, cyc)
    return out, sep


def corpus_surface(name: str) -> TriSurface:
    """The bundled corpus surface ``name``, parsed."""
    return parse_surface((resources.files("coverball") / "corpus" / name).read_text())


def mixed_torus() -> TriSurface:
    """torus7 with lengths 2/3, 4/7, 5/6 and 3/5 in turn along the edges,
    so D = 210: any three of them meet the triangle inequality."""
    t = fixtures.torus7()
    cycle = (Fraction(2, 3), Fraction(4, 7), Fraction(5, 6), Fraction(3, 5))
    return TriSurface.build(t.faces, {e: cycle[i % 4] for i, e in enumerate(t.edges)})


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so each call appends its arguments to the
    returned list."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def relabeled(s: TriSurface, seed: int, shuffle_faces: bool = False) -> TriSurface:
    """s with its vertex ids shuffled, so vertex order and edge-id order
    disagree with the original's; with ``shuffle_faces`` its face list is
    shuffled too, so face 0 moves."""
    vs = sorted(s.vertices)
    perm = vs[:]
    rng = random.Random(seed)
    rng.shuffle(perm)
    m = dict(zip(vs, perm))
    faces = [tuple(m[v] for v in f) for f in s.faces]
    if shuffle_faces:
        rng.shuffle(faces)
    return TriSurface.build(faces, {(m[a], m[b]): l
                                    for (a, b), l in s.edge_lengths.items()})


# the meshes of the nerve-pack benchmark workload, built here: edges of
# length 1/32, 1344 on the torus and 624 on genus 2
NERVE_PACK_MESHES = {
    "torus7x3": lambda: fixtures.scale_surface(
        fixtures.subdivide(fixtures.torus7(), 3), Fraction(1, 4)),
    "genus2x2": lambda: fixtures.scale_surface(
        fixtures.subdivide(fixtures.genus2(), 2), Fraction(1, 8)),
}


def farthest_point_packing(s: TriSurface, separation: int, reach: int):
    """Oracle for ``nerve._farthest_point_packing``: the greedy
    farthest-point rule as a max over all vertices of (mind, -v), on a
    ``MetricGraph`` built here, its trees from ``heap_grid_shortest_paths``
    rather than the queue under test.  The first center's tree is
    complete; each later one runs to max(mind[far], reach), beyond which no
    vertex can get closer.  Returns (centers, dists, parents) on the grid."""
    g = MetricGraph.build(s.vertices, [(i, u, w, s.edge_lengths[(u, w)])
                                       for i, (u, w) in enumerate(s.edges)])
    verts = sorted(s.vertices)
    centers = [verts[0]]
    dists, parents = {}, {}
    dists[verts[0]], parents[verts[0]] = heap_grid_shortest_paths(g, verts[0])
    mind = dict(dists[verts[0]])
    while True:
        far = max(verts, key=lambda v: (mind[v], -v))
        if mind[far] <= separation:
            return centers, dists, parents
        centers.append(far)
        dists[far], parents[far] = heap_grid_shortest_paths(
            g, far, max(mind[far], reach))
        for v, d in dists[far].items():
            if d < mind[v]:
                mind[v] = d


def pairwise_nerve_edges(centers, dists, parents, reach: int, D: int):
    """Oracle for the nerve edges of ``nerve.nerve_graph``: every pair of
    centers i < j, joined when j lies within ``reach`` in the grid tree of
    center i.  Returns (nerve edges, center distances, phi paths), the
    edges and both dicts in (i, j) order."""
    cdist = {}
    phi = {}
    nerve_edges = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            d = dists[centers[i]].get(centers[j])
            if d is not None and d <= reach:
                cdist[(i, j)] = Fraction(d, D)
                phi[(i, j)] = tree_path(parents[centers[i]], centers[j])
                nerve_edges.append((i, j))
    return nerve_edges, cdist, phi


def _directed(face):
    a, b, c = face
    return ((a, b), (b, c), (c, a))


def walked_homology(s: TriSurface):
    """Independent oracle for ``surface.HomologyData``: the same
    tree-cotree decomposition, each cotree edge's class summed by walking
    its face's other two directed edges as tuples.  Returns
    (tree_parent, generators, edge_class)."""
    g = subgraph_metric_graph(s, s.edges)
    root = min(s.vertices)
    tree = set()
    tree_parent = {root: None}
    order = [root]
    for v in order:
        for e in sorted(g.incident(v), key=lambda e: e.id):
            u = e.other(v)
            if u not in tree_parent:
                tree.add(_pair(v, u))
                tree_parent[u] = v
                order.append(u)
    root_of = list(range(len(s.faces)))

    def find(x):
        while root_of[x] != x:
            root_of[x] = root_of[root_of[x]]
            x = root_of[x]
        return x

    dual = {}
    generators = []
    for e in s.edges:
        if e in tree:
            continue
        f1, f2 = s.edge_faces[e]
        r1, r2 = find(f1), find(f2)
        if r1 == r2:
            generators.append(e)
        else:
            root_of[r1] = r2
            dual.setdefault(f1, []).append((e, f2))
            dual.setdefault(f2, []).append((e, f1))
    k = len(generators)
    zero = (0,) * k
    cls = {e: zero for e in tree}
    for i, e in enumerate(generators):
        cls[e] = zero[:i] + (1,) + zero[i + 1:]

    up = {0: None}
    forder = [0]
    for f in forder:
        for e, h in dual.get(f, ()):
            if h not in up:
                up[h] = e
                forder.append(h)
    for f in reversed(forder[1:]):
        e = up[f]
        acc = zero
        for (x, y) in _directed(s.faces[f]):
            if _pair(x, y) == e:
                sign = 1 if x < y else -1
            else:
                acc = tuple(p + q for p, q in zip(acc, tuple_step(cls, x, y)))
        cls[e] = tuple(-c for c in acc) if sign > 0 else acc
    return tree_parent, generators, cls


def class_tuple(hom, packed: int) -> tuple:
    """The 2g coordinates of a class packed as in ``HomologyData``."""
    return tuple(hom.digits(packed))


def pack_class(hom, h: tuple) -> int:
    """The inverse of ``class_tuple``: coordinate i in digit 2g-1-i."""
    k = len(h)
    return sum(x << ((k - 1 - i) * hom.width) for i, x in enumerate(h))


def tuple_class_dijkstra(s: TriSurface, source: int, bound: int):
    """Independent oracle for ``surfballs._ClassSearch``: shortest walks
    from source, stratified by homology class, with (vertex, 2g-tuple)
    states from ``walked_homology``'s classes and every relaxation past
    ``bound`` dropped.

    Returns (dist, parent): dist maps (vertex, class) to its grid length
    <= bound, parent maps each state to the state it was first reached from
    at that length (None at the start).  Raises the search's SurfaceError
    once more than ``surfballs._STATE_CAP`` states are reached.
    """
    classes = walked_homology(s)[2]
    _, grid = s.int_grid()
    adj = {v: [(l, u, tuple_step(classes, v, u)) for l, u in es]
           for v, es in grid.items()}
    start = (source, (0,) * (2 * s.genus))
    dist = {start: 0}
    parent = {start: None}
    heap = [(0, start)]
    while heap:
        d, st = heapq.heappop(heap)
        if d > dist[st]:
            continue
        v, h = st
        for l, u, step in adj[v]:
            nd = d + l
            if nd > bound:
                continue
            ns = (u, tuple(a + i for a, i in zip(h, step)))
            old = dist.get(ns)
            if old is None or nd < old:
                if len(dist) > surfballs._STATE_CAP:
                    raise SurfaceError("class search state budget exceeded")
                dist[ns] = nd
                parent[ns] = st
                heapq.heappush(heap, (nd, ns))
    return dist, parent


def by_target(dist) -> dict:
    """A class search's (vertex, class) -> length map as per-target sorted
    (grid length, class) lists."""
    tgt: dict[int, list] = {}
    for (w, h), d in dist.items():
        tgt.setdefault(w, []).append((d, h))
    return {w: sorted(lst) for w, lst in tgt.items()}


def tuple_capture_tables(s: TriSurface, bound: int) -> dict:
    """Per source, per reached target, the sorted (grid length, class) list
    of ``tuple_class_dijkstra`` at ``bound``."""
    return {v: by_target(tuple_class_dijkstra(s, v, bound)[0])
            for v in sorted(s.vertices)}


def boundary_components(s: TriSurface, b) -> list[list[tuple[int, int]]]:
    """Boundary edges of the ball subcomplex ``b`` grouped into connected
    components, each grown by rescanning the edges left."""
    edges = set(b.boundary_edges)
    comps = []
    while edges:
        e0 = min(edges)
        comp = {e0}
        stack = [e0]
        while stack:
            e = stack.pop()
            for x in e:
                for f in edges - comp:
                    if x in f:
                        comp.add(f)
                        stack.append(f)
        comps.append(sorted(comp))
        edges -= comp
    return comps


def arc_dict_exact_capture(s: TriSurface, x: int | None) -> tuple[Fraction, set]:
    """Independent oracle for ``surfballs._exact_capture_search``: the same
    families over the same cached class tables, with the based theta
    family's arcs found per vertex pair by brute force over every foot w
    and every pair of table entries, kept in a dict per arc class (the
    first least-cost (w, entry) wins)."""
    D = s.int_grid()[0]
    ub, _ = surfballs._greedy_capture(s, x)
    best = surfballs._on_grid(ub, D)
    cache = surfballs._capture_cache(s)
    # see the table bound in surfballs: no walk of a candidate beating best
    # is longer than best - lambda1
    lambda1 = cache.lambda1
    searches = surfballs._capture_tables(s, best - lambda1)
    # the rank-indexed tables read by vertex, (a, b) tuple classes decoded
    # once: source -> target -> list
    hom = s.homology()
    tup = {h: class_tuple(hom, h)
           for h in {h for search in searches for lst in search.lists for _, h in lst}}
    rank = {v: r for r, v in enumerate(cache.packing.verts)}
    by_target = {u: {v: [(d, tup[h]) for d, h in lst]
                     for v, lst in zip(cache.packing.verts, searches[r].lists)}
                 for u, r in rank.items()}
    if x is not None:
        distx, parx = grid_shortest_paths(subgraph_metric_graph(s, s.edges), x)
    # the incumbent: its walks as (source, final state), and the vertex its
    # arc from x ends at (None when unbased)
    best_walks = None
    best_foot = None

    zero = (0, 0)
    # closed-walk minima per class: m[h] = (grid length, base vertex)
    verts = sorted(s.vertices)
    m: dict[tuple, tuple] = {}
    for v in verts:
        for d, h in by_target[v].get(v, ()):
            if h != zero and (h not in m or (d, v) < m[h]):
                m[h] = (d, v)
    msorted = sorted((d, v, h) for h, (d, v) in m.items())
    shortest = msorted[0][0] if msorted else None
    if shortest != (lambda1 if lambda1 <= cache.bound else None):
        raise SurfaceError("exact capture tables disagree with the greedy "
                           "shortest cycle")

    # disjoint pair / figure eight family: two closed walks with independent
    # classes; in the based variant one of them pays an arc from x
    if x is None:
        first = msorted
    else:
        # best base per class when the arc cost is charged to this walk
        cx: dict[tuple, tuple] = {}
        for v in verts:
            for d, h in by_target[v].get(v, ()):
                if h == zero:
                    continue
                c = d + distx[v]
                if h not in cx or (c, v) < cx[h]:
                    cx[h] = (c, v)
        first = sorted((c, v, h) for h, (c, v) in cx.items())
    for (c1, v1, h1) in first:
        if msorted and c1 + msorted[0][0] >= best:
            break
        for (d2, v2, h2) in msorted:
            tot = c1 + d2
            if tot >= best:
                break
            if h1[0] * h2[1] == h1[1] * h2[0]:
                continue
            best = tot
            best_walks = [(v1, (v1, h1)), (v2, (v2, h2))]
            best_foot = None if x is None else v1

    # theta family: three u-v paths with non-collinear classes; in the based
    # variant exactly one path is split at an arc foot w paying dist(x, w)
    if x is not None:
        rows = {u: [by_target[u].get(w, ()) for w in verts] for u in verts}
        dxs = [distx[w] for w in verts]
    for ui in range(len(verts)):
        u = verts[ui]
        for v in verts[ui + 1:]:
            # one shortest walk per class, sorted by (length, class)
            P = by_target[u].get(v, [])
            if len(P) < (2 if x is not None else 3):
                continue
            if x is None:
                A = P      # the "special" path is just another plain path
            else:
                # an arc path costing cut or more is never tried below, and
                # every arc path costs at least dist(x, u) and dist(x, v)
                cut = best - P[0][0] - P[1][0]
                if cut <= max(distx[u], distx[v]):
                    continue
                arc: dict[tuple, tuple] = {}
                for w, lu, lv, dxw in zip(verts, rows[u], rows[v], dxs):
                    for d1, g1 in lu:
                        if d1 + dxw >= cut:
                            break
                        for d2, g2 in lv:
                            c = d1 + d2 + dxw
                            if c >= cut:
                                break
                            h = (g1[0] - g2[0], g1[1] - g2[1])
                            if h not in arc or c < arc[h][0]:
                                arc[h] = (c, w, (w, g1), (w, g2))
                A = sorted((c, h, info) for h, (c, *info) in arc.items())
            for a in A:
                if x is None:
                    d1, h1 = a
                else:
                    d1, h1, info1 = a
                if len(P) >= 2 and d1 + P[0][0] + P[1][0] >= best:
                    break
                for j in range(len(P)):
                    d2, h2 = P[j]
                    if x is None and d2 < d1:
                        continue   # canonical order: special path is shortest
                    if d1 + d2 + P[0][0] >= best:
                        break
                    a0, a1 = h2[0] - h1[0], h2[1] - h1[1]
                    for k in range(j + 1, len(P)):
                        d3, h3 = P[k]
                        tot = d1 + d2 + d3
                        if tot >= best:
                            break
                        if a0 * (h3[1] - h1[1]) == a1 * (h3[0] - h1[0]):
                            continue
                        best = tot
                        best_walks = [(u, (v, h2)), (u, (v, h3))]
                        if x is None:
                            best_walks.append((u, (v, h1)))
                        else:
                            best_foot, su, sv = info1
                            best_walks += [(u, su), (v, sv)]

    if best_walks is None:
        # the greedy subgraph is already optimal
        return surfballs._greedy_capture(s, x)
    edges = set()
    if best_foot is not None:
        path = tree_path(parx, best_foot)
        edges |= {_pair(a, b) for a, b in zip(path, path[1:])}
    # recover the walks from the cached searches, which cover every one
    for source, (v, h) in best_walks:
        edges |= searches[rank[source]].walk_edges(
            cache.packing.state(rank[v], pack_class(hom, h)))
    realized = subgraph_length(s, edges)
    if x is not None and not any(x in e for e in edges):
        raise SurfaceError("based capture candidate misses the base point")
    ok, hrank = capturing_test(s, edges)
    if not ok:
        raise SurfaceError(f"exact capture candidate fails to capture (rank {hrank})")
    if realized * D > best:
        raise SurfaceError("exact capture bookkeeping mismatch")
    return realized, edges


# ---------------------------------------------------------------------------
# criterion 03: the explicit subtree behind the baby case

SUBTREE_NODE_LIMIT = 200_000    # nodes build_cover_subtree may grow


@dataclass(frozen=True)
class SubtreeWitness:
    base: int
    nodes: tuple[tuple, ...]           # cover nodes as traversal tuples ((),) is root
    node_depth: tuple[int, ...]
    super_edges: tuple[tuple[int, int, tuple, Fraction], ...]
    # (parent node index, child node index, traversal path, exact length)


def _path_length(g: MetricGraph, traversals) -> Fraction:
    return sum((g.edge_by_id(e).length for e, _ in traversals), Fraction(0))


def cover_distance(g: MetricGraph, p: tuple, q: tuple) -> Fraction:
    """Distance in the universal cover between the endpoints of two
    non-backtracking paths from the same base lift."""
    k = 0
    while k < len(p) and k < len(q) and p[k] == q[k]:
        k += 1
    return _path_length(g, p[k:]) + _path_length(g, q[k:])


def build_cover_subtree(g: MetricGraph, c_prime: Fraction | int | str,
                         depth: int) -> SubtreeWitness:
    """Greedy trivalent subtree in the cover with super-edges in [C', C'+c].

    From the base lift, grow three edge-disjoint reduced paths, each stopped
    at the first vertex where the accumulated length reaches ``c_prime``;
    from every frontier node grow two more, to combinatorial depth ``depth``.
    Departures are always the smallest-id ones available.
    """
    c_prime = Fraction(c_prime)
    if c_prime <= 0:
        raise GraphError("c_prime must be positive")
    if not g.is_connected():
        raise GraphError("subtree construction requires a connected graph")
    if min(g.degree(v) for v in g.vertices) < 3:
        raise GraphError("subtree construction requires an at least trivalent graph")
    head, length, departures, nxt = _transitions(g)

    base = min(g.vertices)
    nodes: list[tuple] = [()]
    node_depth = [0]
    super_edges: list[tuple[int, int, tuple, Fraction]] = []

    def grow_path(first: tuple[int, int]) -> tuple[tuple, Fraction]:
        path = [first]
        acc = length[first]
        while acc < c_prime:
            t = min(nxt[path[-1]])
            path.append(t)
            acc += length[t]
        return tuple(path), acc

    frontier = []  # (node index, incoming traversal or None)
    first_three = sorted(departures[base])[:3]
    for t in first_three:
        path, acc = grow_path(t)
        nodes.append(path)
        node_depth.append(1)
        super_edges.append((0, len(nodes) - 1, path, acc))
        frontier.append((len(nodes) - 1, path[-1]))
    d = 1
    while d < depth:
        nxt_frontier = []
        for idx, incoming in frontier:
            rev = (incoming[0], 1 - incoming[1])
            opts = sorted(s for s in departures[head[incoming]] if s != rev)[:2]
            for t in opts:
                if len(nodes) > SUBTREE_NODE_LIMIT:
                    raise GraphError("subtree depth budget exceeded")
                path, acc = grow_path(t)
                # grow_path returns the path relative to the node; store the
                # absolute path from the base lift
                abs_path = nodes[idx] + path
                nodes.append(abs_path)
                node_depth.append(d + 1)
                super_edges.append((idx, len(nodes) - 1, path, acc))
                nxt_frontier.append((len(nodes) - 1, path[-1]))
        frontier = nxt_frontier
        d += 1
    return SubtreeWitness(base, tuple(nodes), tuple(node_depth), tuple(super_edges))


# ---------------------------------------------------------------------------
# criterion 10: hyperbolic-area shrink factor and rescaling lambda

def area_shrink_factor(a: float) -> float:
    """Shrink factor c with a*V_H2(R) >= V_H2(R*c): c = sqrt(min(a, 1))."""
    if a <= 0:
        raise GraphError("shrink factor input must be positive")
    return math.sqrt(min(a, 1.0))


def shrink_factor_grid_check(a: float, radii) -> dict:
    c = area_shrink_factor(a)
    rows = []
    worst = float("inf")
    for R in radii:
        lhs = a * cover.hyperbolic_ball_area(R)
        rhs = cover.hyperbolic_ball_area(R * c)
        rows.append({"R": R, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs})
        worst = min(worst, lhs - rhs)
    # a row whose sides both exceed every float has a NaN margin: it decides
    # nothing, so it cannot pass
    return {"a": a, "c": c, "rows": rows, "worst_margin": worst,
            "ok": all(row["margin"] >= -1e-9 for row in rows)}


def rescaling_lambda_search(lam_grid, radii) -> dict:
    """Smallest grid lambda with (1/(4 pi lam^2 ln2)) V_H2(lam R ln2) >=
    V_H2(R) on the whole R grid, plus the induced area ratio delta."""
    radii = list(radii)
    if not radii:
        raise GraphError("empty radius grid")
    results = []
    found = None
    for lam in lam_grid:
        if lam <= 0:
            raise GraphError("lambda grid entries must be positive")
        ok = True
        for R in radii:
            lhs = cover.hyperbolic_ball_area(lam * R * math.log(2)) \
                / (4.0 * math.pi * lam * lam * math.log(2))
            rhs = cover.hyperbolic_ball_area(R)
            # with both sides beyond float range the comparison decides nothing
            if lhs < rhs or rhs == math.inf:
                ok = False
                break
        results.append({"lam": lam, "ok": ok})
        if ok and found is None:
            found = lam
    out = {"results": results, "lam": found}
    if found is not None:
        out["delta"] = 1.0 / ((1 << 13) * math.pi * found * found)
    return out


# ---------------------------------------------------------------------------
# criterion 06: pruning a capturing subgraph to a homology isomorphism

def prune_to_iso(s: TriSurface, sub_edges) -> set[tuple[int, int]]:
    """Greedy edge removal keeping the epimorphism; ends with Betti = 2g.

    One ``capturing_test`` checks that the input captures.  Then each edge,
    longest first (ties by edge), leaves while the rest still captures:
    ``prune_pieces`` with one edge per piece, which tests each removal as
    one dual edge added to its face union-find, so the whole pass costs
    about O(E log F) integer operations.
    """
    ok, rank = capturing_test(s, sub_edges)
    if not ok:
        raise SurfaceError(f"subgraph does not capture the topology (rank {rank})")
    order = sorted(_edge_set(s, sub_edges),
                   key=lambda e: (-s.edge_lengths[e], e))
    cur = {order[k] for k in prune_pieces(s, [[e] for e in order])}
    if betti(subgraph_metric_graph(s, cur)) != 2 * s.genus:
        raise SurfaceError("pruned subgraph has wrong Betti number")
    return cur


# ---------------------------------------------------------------------------
# surface text and the sphere fixture

def format_surface(s: TriSurface) -> str:
    lines = ["TSURF", f"nv {len(s.vertices)}"]
    for f in s.faces:
        lines.append(f"f {f[0]} {f[1]} {f[2]}")
    for (u, w) in s.edges:
        l = s.edge_lengths[(u, w)]
        if l != 1:
            lines.append(f"el {u} {w} {l.numerator}/{l.denominator}")
    return "\n".join(lines) + "\n"


def tetrahedron(length=1) -> TriSurface:
    l = Fraction(length)
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    lengths = {e: l for f in faces for e in
               [(_pair(f[0], f[1])), (_pair(f[1], f[2])), (_pair(f[0], f[2]))]}
    return TriSurface.build(faces, lengths)
