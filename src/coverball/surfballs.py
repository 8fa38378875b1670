"""Metric balls, systoles and minimal capturing graphs on triangulated
surfaces.

Balls are inner approximations: a face belongs to the ball when all three
of its vertices are within the radius.  Contractibility of a simple cycle
is decided combinatorially by cutting along it and looking for a disk
component (Euler characteristic 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .graphs import shortest_paths, tree_path
from .linalg import Echelon
from .surface import (SurfaceError, TriSurface, _pair, _sparse, _vadd,
                      _vneg, capturing_test, subgraph_length)

EXACT_CAPTURE_EDGE_LIMIT = 2000
SYSTOLE_ENUM_EDGE_LIMIT = 2000


# ---------------------------------------------------------------------------
# cut Euler characteristics

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


def is_contractible_cycle(s: TriSurface, cycle_vertices) -> bool:
    """Cut along the simple cycle; contractible iff a complement component
    is a disk."""
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


# ---------------------------------------------------------------------------
# systole

def _homology_candidates(s: TriSurface, base: int | None = None,
                         best_only: bool = False):
    """Candidate essential loops: two shortest-tree paths plus a closing
    edge.  Yields (length, simple vertex cycle) for homologically nontrivial
    simple candidates.  With ``best_only`` candidates longer than the best
    one found so far are skipped (enough for systole computations)."""
    hom = s.homology()
    g = s.skeleton()
    best = None
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

        for (u, w) in s.edges:
            if parent.get(u) == w or parent.get(w) == u:
                continue
            length = dist[u] + dist[w] + s.edge_lengths[(u, w)]
            if best_only and best is not None and length >= best:
                continue
            pu, pw = path_to(u), path_to(w)
            walk = pu + pw[::-1]
            cyc = walk[:-1]
            if len(set(cyc)) != len(cyc):
                continue
            if hom.class_of_walk(walk):
                out.append((length, cyc))
                if best is None or length < best:
                    best = length
    return out


def _enumerate_simple_cycles(s: TriSurface, bound: Fraction, through: int | None = None):
    """All simple vertex cycles with total length <= bound.

    Canonical form: smallest vertex first (or ``through`` first when given)
    and second vertex smaller than the last.  Pruned by straight-line
    shortest-path distance back to the start.
    """
    g = s.skeleton()
    dist_cache: dict[int, dict[int, Fraction]] = {}

    def dists(v):
        if v not in dist_cache:
            dist_cache[v] = s.distances_from(v)
        return dist_cache[v]

    cycles = []
    starts = [through] if through is not None else sorted(s.vertices)
    for start in starts:
        d0 = dists(start)
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


def systole(s: TriSurface, base: int | None = None,
            mode: str = "auto") -> tuple[Fraction, list[int]]:
    """Length of the shortest simple non-contractible cycle in the
    1-skeleton (restricted to cycles through ``base`` when given).

    Assumes the shortest non-contractible loop is realizable by a simple
    cycle, by analogy with the smooth case.  On genus >= 2 a separating
    non-contractible cycle could undercut the homological candidates; the
    exhaustive sweep that rules this out only runs below a size threshold
    (mode "exact" insists on it, mode "homological" always skips it).
    """
    if mode not in ("auto", "exact", "homological"):
        raise SurfaceError(f"unknown systole mode {mode!r}")
    if s.genus == 0:
        raise SurfaceError("genus-0 surface has no non-contractible cycle")
    big = len(s.edges) > SYSTOLE_ENUM_EDGE_LIMIT
    if mode == "exact" and big:
        raise SurfaceError("surface too large for exact systole enumeration")
    cands = _homology_candidates(s, base, best_only=True)
    if not cands:
        raise SurfaceError("no homologically nontrivial candidate loop found")
    best_len, best_cyc = min(cands, key=lambda t: (t[0], t[1]))
    if s.genus >= 2 and mode != "homological" and not big:
        # a separating (null-homologous) non-contractible cycle could be
        # shorter; sweep everything below the homological bound
        for length, cyc in _enumerate_simple_cycles(s, best_len, base):
            if (length, cyc) == (best_len, best_cyc):
                continue
            if length < best_len and not is_contractible_cycle(s, cyc):
                best_len, best_cyc = length, cyc
    return best_len, best_cyc


def systole_at(s: TriSurface, x: int) -> tuple[Fraction, list[int]]:
    return systole(s, base=x)


# ---------------------------------------------------------------------------
# ball subcomplexes

@dataclass(frozen=True)
class BallSubcomplex:
    center: int
    radius: Fraction
    interior: frozenset[int]
    faces: frozenset[int]
    boundary_edges: frozenset[tuple[int, int]]
    filled: bool

    def area(self, s: TriSurface) -> float:
        return sum(s.face_area(i) for i in self.faces)

    def boundary_length(self, s: TriSurface) -> Fraction:
        return sum((s.edge_lengths[e] for e in self.boundary_edges), Fraction(0))


def ball(s: TriSurface, x: int, R: Fraction | int | str) -> BallSubcomplex:
    R = Fraction(R)
    if R < 0:
        raise SurfaceError("radius must be nonnegative")
    dist = s.distances_from(x, cutoff=R)
    interior = frozenset(v for v, d in dist.items() if d <= R)
    faces = frozenset(i for i, f in enumerate(s.faces)
                      if all(v in interior for v in f))
    return BallSubcomplex(x, R, interior, faces,
                          _boundary_edges(s, faces), False)


def _boundary_edges(s: TriSurface, faces: frozenset[int]) -> frozenset[tuple[int, int]]:
    out = set()
    for e, fs in s.edge_faces.items():
        inc = sum(1 for f in fs if f in faces)
        if inc == 1:
            out.add(e)
    return frozenset(out)


def boundary_components(s: TriSurface, b: BallSubcomplex) -> list[list[tuple[int, int]]]:
    """Boundary edges grouped into connected components."""
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


def fill_to_bplus(s: TriSurface, b: BallSubcomplex) -> BallSubcomplex:
    """Add the faces of every disk component of the complement (filling the
    contractible boundary cycles)."""
    outside = set(range(len(s.faces))) - set(b.faces)
    fill: set[int] = set()
    for comp in _face_components(s, outside, b.boundary_edges):
        if face_set_chi(s, comp, b.boundary_edges) == 1:
            fill |= comp
    faces = frozenset(set(b.faces) | fill)
    return replace(b, faces=faces, boundary_edges=_boundary_edges(s, faces),
                   filled=True)


def ball_area(s: TriSurface, x: int, R) -> float:
    return ball(s, x, R).area(s)


# ---------------------------------------------------------------------------
# minimal capturing graphs and the height function

def capture_length(s: TriSurface, mode: str = "greedy",
                   x: int | None = None) -> tuple[Fraction, set]:
    """Shortest found capturing subgraph, optionally forced through ``x``.

    Exact mode certifies optimality among 1-skeleton subgraphs and is only
    implemented for genus 1, where a minimal capturing graph is a theta
    graph, a figure eight, or two disjoint cycles.  Each shape's length is
    bounded below by a sum of class-constrained shortest path lengths, and
    the union realizing the minimal sum captures, so the minimum is exact.
    """
    if mode == "greedy":
        return _greedy_capture(s, x)
    if mode != "exact":
        raise SurfaceError(f"unknown capture mode {mode!r}")
    if s.genus != 1:
        raise SurfaceError("exact capture is only supported for genus 1")
    if len(s.edges) > EXACT_CAPTURE_EDGE_LIMIT:
        raise SurfaceError("surface too large for exact capture search")
    return _exact_capture_g1(s, x)


def _greedy_capture(s: TriSurface, x: int | None = None) -> tuple[Fraction, set]:
    """Greedy homology basis from candidate loops; yields an upper bound."""
    hom = s.homology()
    cands = sorted(_homology_candidates(s), key=lambda t: (t[0], t[1]))
    ech = Echelon()
    edges: set = set()
    for length, cyc in cands:
        cls = hom.class_of_walk(cyc + [cyc[0]])
        if ech.add(cls):
            edges |= {_pair(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        if ech.rank == 2 * s.genus:
            break
    if ech.rank != 2 * s.genus:
        raise SurfaceError("greedy capture failed to span H1")
    length = subgraph_length(s, edges)
    if x is not None and not any(x in e for e in edges):
        dx = s.distances_from(x)
        length += min(dx[v] for e in edges for v in e)
    return length, edges


# Exact genus-1 capture.  A minimal capturing subgraph is bridgeless with
# first Betti number 2: a theta graph, a figure eight, or two disjoint
# simple cycles.  A theta with endpoints u,v and path classes h1,h2,h3
# captures iff the classes are not collinear, and costs at least
# d_h1(u,v)+d_h2(u,v)+d_h3(u,v) where d_h is the class-constrained shortest
# walk length; figure eights and disjoint pairs cost at least m(h1)+m(h2)
# over independent classes, m(h) the shortest class-h closed walk anywhere.
# Conversely the union realizing either minimum captures, so both bounds
# are attained and the family minimum equals the true optimum.  The based
# variant attaches x by a shortest arc to a path vertex w, handled by
# charging dist(x,w) inside the same minimization.

_STATE_CAP = 2_000_000


def _class_incs(hom):
    incs = {}
    for (u, w), t in hom.edge_class.items():
        incs[(u, w)] = t
        incs[(w, u)] = _vneg(t)
    return incs


def _class_rank(classes) -> int:
    ech = Echelon()
    for t in classes:
        ech.add(_sparse(t))
    return ech.rank


def _class_dijkstra(s: TriSurface, source: int, incs, bound: Fraction):
    """Shortest walks from source, stratified by homology-coordinate class.

    Returns (dist, parent): dist maps (vertex, class) to length <= bound,
    parent maps each state to (previous state, traversed edge pair).
    """
    import heapq
    zero = tuple(0 for _ in next(iter(incs.values()))) if incs else ()
    g = s.skeleton()
    start = (source, zero)
    dist = {start: Fraction(0)}
    parent = {start: None}
    heap = [(Fraction(0), start)]
    while heap:
        d, st = heapq.heappop(heap)
        if d > dist[st]:
            continue
        v, h = st
        for e in g.incident(v):
            u = e.other(v)
            nd = d + e.length
            if nd > bound:
                continue
            nh = _vadd(h, incs[(v, u)])
            ns = (u, nh)
            if ns not in dist or nd < dist[ns]:
                if len(dist) > _STATE_CAP:
                    raise SurfaceError("class search state budget exceeded")
                dist[ns] = nd
                parent[ns] = (st, _pair(v, u))
                heapq.heappush(heap, (nd, ns))
    return dist, parent


def _state_walk_edges(parent, state) -> set:
    out = set()
    while parent[state] is not None:
        state, e = parent[state]
        out.add(e)
    return out


def _capture_tables(s: TriSurface, bound: Fraction):
    cached = getattr(s, "_capture_cache", None)
    if cached is not None and cached[0] >= bound:
        return cached[1], cached[2]
    incs = _class_incs(s.homology())
    tables = {v: _class_dijkstra(s, v, incs, bound)
              for v in sorted(s.vertices)}
    # per source, class-stratified distances grouped by target vertex
    by_target = {}
    for v, (dist, _) in tables.items():
        tgt: dict[int, list] = {}
        for (w, h), d in dist.items():
            tgt.setdefault(w, []).append((d, h))
        for w in tgt:
            tgt[w].sort()
        by_target[v] = tgt
    s._capture_cache = (bound, tables, by_target)
    return tables, by_target


def _exact_capture_g1(s: TriSurface, x: int | None) -> tuple[Fraction, set]:
    ub, _ = _greedy_capture(s, x)
    tables, by_target = _capture_tables(s, ub)
    distx, parx = (shortest_paths(s.skeleton(), x) if x is not None
                   else (None, None))

    def arc_edges(w):
        path = tree_path(parx, w)
        return {_pair(a, b) for a, b in zip(path, path[1:])}

    zero = (0,) * len(s.homology().generators)

    best = ub
    best_build = None          # callable producing the edge set

    # closed-walk minima per class: m[h] = (length, base vertex, state)
    m: dict[tuple, tuple] = {}
    for v in sorted(s.vertices):
        dist, _ = tables[v]
        for (w, h), d in dist.items():
            if w != v or h == zero:
                continue
            if h not in m or (d, v) < m[h][:2]:
                m[h] = (d, v, (w, h))
    msorted = sorted((d, v, h) for h, (d, v, _) in m.items())

    def loop_edges(h):
        d, v, state = m[h]
        return _state_walk_edges(tables[v][1], state)

    # disjoint pair / figure eight family: two closed walks with independent
    # classes; in the based variant one of them pays an arc from x
    if x is None:
        first = [(d, v, h) for (d, v, h) in msorted]
    else:
        # best base per class when the arc cost is charged to this walk
        cx: dict[tuple, tuple] = {}
        for v in sorted(s.vertices):
            dist, _ = tables[v]
            for (w, h), d in dist.items():
                if w != v or h == zero:
                    continue
                c = d + distx[v]
                if h not in cx or (c, v) < cx[h][:2]:
                    cx[h] = (c, v, d)
        first = sorted((c, v, h) for h, (c, v, _) in cx.items())
    for (c1, v1, h1) in first:
        if msorted and c1 + msorted[0][0] >= best:
            break
        for (d2, v2, h2) in msorted:
            tot = c1 + d2
            if tot >= best:
                break
            if _class_rank([h1, h2]) != 2:
                continue
            def build(h1=h1, h2=h2, v1=v1):
                if x is None:
                    edges = loop_edges(h1)
                else:
                    dist, par = tables[v1]
                    edges = _state_walk_edges(par, (v1, h1))
                    edges |= arc_edges(v1)
                return edges | loop_edges(h2)
            best, best_build = tot, build

    # theta family: three u-v paths with non-collinear classes; in the based
    # variant exactly one path is split at an arc foot w paying dist(x, w)
    verts = sorted(s.vertices)
    for ui in range(len(verts)):
        u = verts[ui]
        for v in verts[ui + 1:]:
            raw = by_target[u].get(v, [])
            if not raw:
                continue
            plain: dict[tuple, Fraction] = {}
            for d, h in raw:
                if h not in plain:
                    plain[h] = d
            P = sorted((d, h) for h, d in plain.items())
            if len(P) < (2 if x is not None else 3):
                continue
            if x is None:
                A = P      # the "special" path is just another plain path
            else:
                arc: dict[tuple, tuple] = {}
                for w in verts:
                    lu = by_target[u].get(w, [])
                    lv = by_target[v].get(w, [])
                    dxw = distx[w]
                    for d1, g1 in lu:
                        if d1 + dxw >= best:
                            break
                        for d2, g2 in lv:
                            c = d1 + d2 + dxw
                            if c >= best:
                                break
                            h = _vadd(g1, _vneg(g2))
                            if h not in arc or c < arc[h][0]:
                                arc[h] = (c, w, g1, g2)
                A = sorted((c, h, (w, g1, g2))
                           for h, (c, w, g1, g2) in arc.items())
            for ia, a in enumerate(A):
                if x is None:
                    d1, h1 = a
                    info1 = None
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
                    for k in range(j + 1, len(P)):
                        d3, h3 = P[k]
                        tot = d1 + d2 + d3
                        if tot >= best:
                            break
                        if _class_rank([_vadd(h2, _vneg(h1)),
                                        _vadd(h3, _vneg(h1))]) != 2:
                            continue
                        def build(u=u, v=v, h1=h1, h2=h2, h3=h3, info1=info1):
                            edges = set()
                            edges |= _state_walk_edges(tables[u][1], (v, h2))
                            edges |= _state_walk_edges(tables[u][1], (v, h3))
                            if info1 is None:
                                edges |= _state_walk_edges(
                                    tables[u][1], (v, h1))
                            else:
                                w, g1, g2 = info1
                                edges |= _state_walk_edges(
                                    tables[u][1], (w, g1))
                                edges |= _state_walk_edges(
                                    tables[v][1], (w, g2))
                                edges |= arc_edges(w)
                            return edges
                        best, best_build = tot, build

    if best_build is None:
        # the greedy subgraph is already optimal
        return _greedy_capture(s, x)
    edges = best_build()
    realized = subgraph_length(s, edges)
    if x is not None and not any(x in e for e in edges):
        raise SurfaceError("based capture candidate misses the base point")
    ok, rank = capturing_test(s, edges)
    if not ok:
        raise SurfaceError(f"exact capture candidate fails to capture (rank {rank})")
    if realized > best:
        raise SurfaceError("exact capture bookkeeping mismatch")
    return realized, edges


def height(s: TriSurface, x: int, mode: str = "exact") -> dict:
    """H''(x) = L(M,x) - L(M,h), plus the distance bound H'' <= dist(x, G)."""
    L, gmin = capture_length(s, mode)
    Lx, gx = capture_length(s, mode, x=x)
    dx = s.distances_from(x)
    dist_bound = min(dx[v] for e in gmin for v in e)
    return {
        "L": L, "Lx": Lx, "Hpp": Lx - L,
        "dist_bound": dist_bound,
        "min_graph": gmin, "min_graph_x": gx,
    }


def small_ball_area_check(s: TriSurface, x: int, R: Fraction | int | str,
                 hpp: Fraction | None = None,
                 sys_x: Fraction | None = None, mode: str = "exact") -> dict:
    """Check area B(x,R) >= (R - H''(x))^2 / 2 inside the admissible window
    H''(x) < R < sys(M,x)/2.  Substituting H'' for min(H',H'') means only
    the implied weaker inequality is tested."""
    R = Fraction(R)
    if hpp is None:
        hpp = height(s, x, mode)["Hpp"]
    if sys_x is None:
        sys_x, _ = systole_at(s, x)
    if not (hpp < R < sys_x / 2):
        return {"x": x, "R": R, "Hpp": hpp, "sys_x": sys_x,
                "status": "inconclusive", "reason": "outside admissible window"}
    area = ball(s, x, R).area(s)
    required = float(R - hpp) ** 2 / 2.0
    return {"x": x, "R": R, "Hpp": hpp, "sys_x": sys_x,
            "area": area, "required": required, "margin": area - required,
            "status": "pass" if area >= required else "fail"}
