"""Metric balls, systoles and minimal capturing graphs on triangulated
surfaces.

Balls are inner approximations: a face belongs to the ball when all three
of its vertices are within the radius; filling a ball adds the complement
components that are disks (Euler characteristic 1, counted as F - J + C in
one walk over the faces, see ``_face_pieces``).

One candidate pass per surface, two shortest-path-tree paths plus one
edge, serves the systole at every base and unbased, the greedy capture
basis and lambda1.  A candidate of nonzero homology class is essential.
One of class zero is tested against a tree-cotree decomposition of the
same tree: it is the boundary of the faces below its edge in the dual
spanning tree, and it bounds a disk iff that side, or the other, holds
none of the 2g leftover edges.  On ties a nonzero-class candidate wins,
the first in root and edge order.  Each root's distances, tree and
candidate lengths are integers on the surface's common-denominator integer grid (``TriSurface.int_grid``),
and each candidate's simplicity and class are read off its two endpoints
in O(1); only returned lengths are ``Fraction``s.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain

from .graphs import GraphError, grid_shortest_paths, tree_path
from .linalg import Echelon
from .surface import (SurfaceError, TriSurface, _pair, capturing_test,
                      subgraph_length)

EXACT_CAPTURE_EDGE_LIMIT = 2000
LOW_INNER_AREA = "inner-ball area, a lower bound, is below the target"


# ---------------------------------------------------------------------------
# systole

def _cotree_sides(s: TriSurface, tree: set) -> dict:
    """Disk data for a spanning tree T of the 1-skeleton.

    C is a spanning tree of the dual graph on the edges outside T, grown
    breadth-first from face 0; the 2g edges in neither form L.  Returns,
    for each edge e of C, the number of L-edges whose two faces have their
    lowest common C-ancestor among the faces below e.
    """
    up: dict[int, tuple[int, tuple[int, int]]] = {}   # face -> (parent, edge)
    depth = {0: 0}
    order = [0]
    across = s.face_edges()
    for f in order:
        for e, h in across[f]:
            if e in tree:
                continue
            if h not in depth:
                up[h] = (f, e)
                depth[h] = depth[f] + 1
                order.append(h)
    cotree = {e for _, e in up.values()}
    count = dict.fromkeys(order, 0)
    for e in s.edges:
        if e in tree or e in cotree:
            continue
        f, h = s.edge_faces[e]
        while depth[f] > depth[h]:
            f = up[f][0]
        while depth[h] > depth[f]:
            h = up[h][0]
        while f != h:
            f, h = up[f][0], up[h][0]
        count[f] += 1
    below = {}
    for f in reversed(order[1:]):
        parent, e = up[f]
        count[parent] += count[f]
        below[e] = count[f]
    return below


def _grid_candidates(s: TriSurface):
    """The candidate pass: two shortest-tree paths plus a closing edge, over
    the tree of every vertex in ascending order.  Returns (reps, best,
    sep), each grid length n standing for n/D.

    ``reps`` maps each class c != 0 that some simple candidate has, up to
    sign and keyed by ``abs(c)``, its class packed as in ``HomologyData``,
    to the least such candidate in (grid length, cycle) order, as (grid
    length, simple vertex cycle, packed class).  ``best[v]`` is the first
    shortest simple nonzero-class candidate rooted at v, in edge order.
    ``sep[v]`` is root v's first shortest simple candidate of class zero
    that bounds no disk and is shorter than every nonzero-class one of root
    v before it, as (grid length, cycle, 0); it is sought on genus >= 2
    only (on the torus a simple cycle of class zero bounds a disk).

    Each root's work runs on the surface's integer grid.  Its tree takes
    the vertices in (distance, vertex) order, each hanging from its first
    tight neighbour in edge-id order, and records per vertex the class
    potential of its tree path and its branch ``top``, the child of the
    root it descends from.  A non-tree edge (u, w) then closes a cycle of
    grid length dist(u) + dist(w) + len(u, w), simple iff the branches of
    u and w differ, of class pot(u) + [u -> w] - pot(w), a sum of fewer
    than 2 * |V| edge classes.  A cycle starts at its root and roots
    ascend, so a vertex list is built only for a candidate that is shorter
    than its class's representative or ties it at the same root, and for
    ``best[v]`` once root v is done.
    """
    packed = s.homology().edge_class
    adj = s.int_grid()[1]
    glen = list(zip(s.edges, s.grid_lengths()))
    reps, best, sep = {}, {}, {}
    for v0 in sorted(s.vertices):
        dist = grid_shortest_paths(s, v0)[0]
        parent = {v0: None}
        pot = {v0: 0}
        top = {v0: v0}
        for v in sorted(dist, key=lambda v: (dist[v], v)):
            if v == v0:
                continue
            dv = dist[v]
            for l, u in adj[v]:
                if dist[u] + l == dv:
                    parent[v] = u
                    pot[v] = pot[u] + (packed[(u, v)] if u < v else -packed[(v, u)])
                    top[v] = v if u == v0 else top[u]
                    break

        def cycle(u, w):
            # v0 down the tree to u, then w up to the child of v0
            return tree_path(parent, u) + tree_path(parent, w)[:0:-1]

        first = None        # (grid length, u, w, class) of this root's best
        least = math.inf    # least grid length of this root's kept candidates
        sides = None        # _cotree_sides of this tree, built on first use
        for (u, w), l in glen:
            if parent[u] == w or parent[w] == u or top[u] == top[w]:
                continue
            length = dist[u] + dist[w] + l
            cls = pot[u] + packed[(u, w)] - pot[w]
            if cls:
                rep = reps.get(abs(cls))
                if rep is None or length < rep[0]:
                    reps[abs(cls)] = (length, cycle(u, w), cls)
                elif length == rep[0] and rep[1][0] == v0:
                    cyc = cycle(u, w)
                    if cyc < rep[1]:
                        reps[abs(cls)] = (length, cyc, cls)
                if first is None or length < first[0]:
                    first = (length, u, w, cls)
                least = min(least, length)
            elif s.genus >= 2 and length < least:
                # the cycle bounds the faces below (u, w) in C; a disk
                # on either side holds no L-edge
                if sides is None:
                    sides = _cotree_sides(s, {_pair(v, p) for v, p in parent.items()
                                              if p is not None})
                if 0 < sides.get((u, w), 0) < 2 * s.genus:
                    sep[v0] = (length, cycle(u, w), 0)
                    least = length
        if first is not None:
            length, u, w, cls = first
            best[v0] = (length, cycle(u, w), cls)
    return reps, best, sep


def _candidate_pass(s: TriSurface):
    """The ``_grid_candidates`` of ``s``, kept with its lambda1."""
    cache = _capture_cache(s)
    if cache.candidates is None:
        cache.candidates = _grid_candidates(s)
        cache.lambda1 = min((n for n, _, _ in cache.candidates[1].values()), default=None)
    return cache.candidates


def systole(s: TriSurface, base: int | None = None,
            mode: str = "auto") -> tuple[Fraction, list[int]]:
    """Length of the shortest non-contractible simple cycle in the
    1-skeleton, and that cycle; exact at every size.

    Some shortest non-contractible cycle is two shortest-path-tree paths
    plus one edge (Thomassen's 3-path condition, as used by Erickson and
    Har-Peled), so the result is read off the surface's candidate pass
    (``_grid_candidates``) over the tree T_v of every vertex v.  Mode
    "auto" gives the first shortest ``sep`` when it is strictly shorter than
    the first shortest ``best``, else that ``best``, both in root order.
    Mode "homological" ignores ``sep``; on genus >= 2 that can exceed the
    systole, since a separating essential cycle has class zero.

    With ``base`` the result is the shortest essential simple cycle among
    two T_base-paths plus one edge (only nontrivial ones in mode
    "homological"), by the same rule on root ``base`` of the cached pass.
    A based call runs the whole pass if it is not cached yet, though no
    command or workload does so: ``height`` runs the pass first.
    """
    if mode not in ("auto", "homological"):
        raise SurfaceError(f"unknown systole mode {mode!r}")
    if s.genus == 0:
        raise SurfaceError("genus-0 surface has no non-contractible cycle")
    if base is not None and (isinstance(base, bool) or base not in s.int_grid()[1]):
        raise GraphError(f"unknown source vertex {base!r}")
    _, best, sep = _candidate_pass(s)
    if base is None:
        hit = min(best.values(), key=lambda t: t[0], default=None)
        cut = min(sep.values(), key=lambda t: t[0], default=None)
    else:
        hit, cut = best.get(base), sep.get(base)
    if mode != "homological" and cut is not None and (hit is None or cut[0] < hit[0]):
        hit = cut
    if hit is None:
        raise SurfaceError("no homologically nontrivial candidate loop found")
    return Fraction(hit[0], s.int_grid()[0]), list(hit[1])


def systole_at(s: TriSurface, x: int) -> tuple[Fraction, list[int]]:
    return systole(s, base=x)


# ---------------------------------------------------------------------------
# ball subcomplexes

@dataclass(frozen=True)
class BallSubcomplex:
    radius: Fraction
    interior: frozenset[int]
    faces: frozenset[int]
    boundary_edges: frozenset[tuple[int, int]]

    def area(self, s: TriSurface) -> float:
        """The sum of the faces' areas (``TriSurface.face_areas``), in the
        order the face set iterates."""
        areas = s.face_areas()
        return sum(areas[i] for i in self.faces)

    def boundary_length(self, s: TriSurface) -> Fraction:
        """The boundary edges' grid lengths summed as ints, taken to one
        ``Fraction`` (``subgraph_length``)."""
        return subgraph_length(s, self.boundary_edges)


def ball(s: TriSurface, x: int, R: Fraction | int | str) -> BallSubcomplex:
    """The ball of radius R about x: the vertices within R of x and the
    faces they span (``_inner_ball``), with the edges of those faces that
    border a face outside, which the pipeline's boundary lengths and
    ``fill_to_bplus`` read."""
    R = Fraction(R)
    interior, faces = _inner_ball(s, x, R)
    return BallSubcomplex(R, interior, faces, _boundary_edges(s, faces))


def _inner_ball(s: TriSurface, x: int, R: Fraction) -> tuple[frozenset, frozenset]:
    """(interior, faces) of the ball of radius R about x, the one reading
    of a ball that ``ball`` and ``small_ball_area_check`` share.  A vertex
    at grid distance n from x, read from the surface's kept shortest-path
    tree of x (``TriSurface.tree``), lies within R iff n <= floor(R * D),
    as n is an integer; R * D need not be one."""
    if R < 0:
        raise SurfaceError("radius must be nonnegative")
    cut = math.floor(R * s.int_grid()[0])
    interior = frozenset(v for v, d in s.tree(x)[0].items() if d <= cut)
    return interior, _ball_faces(s, interior)


def _ball_faces(s: TriSurface, inside) -> frozenset[int]:
    """The faces with all three vertices in ``inside``, inserted in
    ascending order, so that a float sum over them runs in the same order
    however ``inside`` was built.  Each face is listed once in
    ``vertex_faces`` at each of its three distinct vertices, so it lies in
    the ball iff it is counted three times over the vertices inside."""
    corners = s.vertex_faces
    count = Counter(chain.from_iterable(corners[v] for v in inside))
    return frozenset(sorted(f for f, k in count.items() if k == 3))


def _boundary_edges(s: TriSurface, faces: frozenset[int]) -> frozenset[tuple[int, int]]:
    across = s.face_edges()
    return frozenset(e for f in faces for e, h in across[f] if h not in faces)


def _face_pieces(s: TriSurface, faces, cut) -> list[tuple[set[int], int]]:
    """The components of the face set ``faces``, faces joined across edges
    outside ``cut`` (edges (u, w), u < w), in order of their least face;
    each with the Euler characteristic of the surface it spans once cut
    along ``cut``.

    That is chi = F - J + C: F faces, J joins (uncut edges between two of
    its faces) and C the vertices at which every edge is a join.  A vertex
    with f faces and j joins there has f - j corner fans, or one when
    j = f (the fans close up), and the 3F face sides are 2J join sides
    plus the other edges, each counted once.
    """
    across = s.face_edges()
    left = set(faces)
    out = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        comp = {start}
        stack = [start]
        sides = 0           # join sides, two per join
        touched = set()     # vertices of the component
        open_ = set()       # vertices on a side that is not a join
        while stack:
            f = stack.pop()
            touched.update(s.faces[f])
            for e, h in across[f]:
                if e in cut or h not in faces:
                    open_.update(e)
                    continue
                sides += 1
                if h in left:
                    left.discard(h)
                    comp.add(h)
                    stack.append(h)
        out.append((comp, len(comp) - sides // 2 + len(touched) - len(open_)))
    return out


def fill_to_bplus(s: TriSurface, b: BallSubcomplex) -> BallSubcomplex:
    """Add the faces of every disk component of the complement (filling the
    contractible boundary cycles)."""
    outside = set(range(len(s.faces))) - b.faces
    fill: set[int] = set()
    for comp, chi in _face_pieces(s, outside, b.boundary_edges):
        if chi == 1:
            fill |= comp
    faces = b.faces | fill
    return replace(b, faces=faces, boundary_edges=_boundary_edges(s, faces))


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

    A based exact call on a surface whose unbased exact result is cached
    (``height`` computes it first) stops as soon as its incumbent reaches
    that length L(M): every candidate still to come costs at least
    L(M, x) >= L(M), so none could replace the incumbent, and the result is
    the one a full search returns.
    """
    if mode == "greedy":
        return _greedy_capture(s, x)
    if mode != "exact":
        raise SurfaceError(f"unknown capture mode {mode!r}")
    if s.genus != 1:
        raise SurfaceError("exact capture is only supported for genus 1")
    if len(s.edges) > EXACT_CAPTURE_EDGE_LIMIT:
        raise SurfaceError(f"surface too large for exact capture search: "
                           f"{len(s.edges)} edges, limit "
                           f"{EXACT_CAPTURE_EDGE_LIMIT}")
    if x is not None:
        return _exact_capture_search(s, x)
    cache = _capture_cache(s)
    if cache.exact is None:
        L, edges = _exact_capture_search(s, None)
        cache.exact = (L, _on_grid(L, s.int_grid()[0]), frozenset(edges))
    L, _, edges = cache.exact
    return L, set(edges)


def _greedy_capture(s: TriSurface, x: int | None = None) -> tuple[Fraction, set]:
    """Greedy homology basis from the candidate pass; yields an upper bound.

    The pass's class representatives are taken in (grid length, cycle)
    order, each ranked by its packed class.  The first one is a shortest
    cycle of nonzero class (Erickson and Whittlesey, SODA 2005), the cache's
    ``lambda1``.  Taking every simple candidate in that order spans the
    same basis: one whose class, up to sign, came earlier in the order is
    always dependent, so only each class's first candidate can enter.  Based,
    the graph is the basis plus its shortest arc from ``x`` (see
    ``_with_arc``), so it passes through ``x``.
    """
    length, n, edges = _greedy_basis(s)
    if x is None:
        return length, set(edges)
    n, edges = _with_arc(s.tree(x), n, edges)
    return Fraction(n, s.int_grid()[0]), edges


def _greedy_basis(s: TriSurface) -> tuple[Fraction, int, frozenset]:
    """The unbased greedy graph, kept in the cache as (length, grid length,
    edges), so that based calls add their arcs on the grid."""
    cache = _capture_cache(s)
    if cache.greedy is None:
        k = 2 * s.genus
        hom = s.homology()
        ech = Echelon()
        edges: set = set()
        reps = _candidate_pass(s)[0].values()
        for _, cyc, cls in sorted(reps, key=lambda t: (t[0], t[1])):
            if ech.add(hom.digits(cls)):
                edges |= {_pair(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
            if ech.rank == k:
                break
        if ech.rank != k:
            raise SurfaceError("greedy capture failed to span H1")
        length = subgraph_length(s, edges)
        cache.greedy = (length, _on_grid(length, s.int_grid()[0]), frozenset(edges))
    return cache.greedy


def _with_arc(tree: tuple, n: int, edges) -> tuple[int, set]:
    """The graph ``edges`` of grid length ``n`` joined to the root x of
    ``tree``, the grid (dist, parent) maps of ``grid_shortest_paths`` from
    x, by the tree path from x to the graph's vertex nearest x, the least
    one on ties: (grid length, edges).  The path's inner vertices are
    nearer x than every vertex of the graph, so it adds exactly its own
    length, the foot's grid distance."""
    if not edges:
        raise SurfaceError("genus-0 surface has an empty capturing graph, "
                           "which no arc from a base point reaches")
    dist, parent = tree
    d, foot = min((dist[v], v) for e in edges for v in e)
    return n + d, set(edges) | _path_edges(parent, foot)


def _path_edges(parent: dict, v: int) -> set:
    """Edges of the shortest-path-tree path from its root down to v."""
    path = tree_path(parent, v)
    return {_pair(a, b) for a, b in zip(path, path[1:])}


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
# charging dist(x,w) inside the same minimization.  The unbased search is
# the same code with dist(x, .) = 0: charging a closed walk nothing leaves
# its minima as they are, and the theta pair filter below keeps the pairs
# whose two shortest walks sum below best; only based calls split a path.
#
# Arc search: in the based theta one u-v path is split at the foot w, and
# its least cost in class h is
#     arc(v, h) = min over w, g1 of d_u(w, g1) + dist(x, w) + d_v(w, g1 - h).
# The class search that grows the tables finds it for every v and h, run
# once per source u with seeds: each table entry (d1, g1) of u at w seeds
# the state (w, g1) at cost d1 + dist(x, w), and walking on from w to v adds
# the walk's class, which is h - g1 when the reversed walk has class g1 - h.
# Its keys are grid costs on the packing's own adjacency, so each target's
# list comes out in (cost, class) order, the order in which the arcs of one
# pair are tried, as its plain paths are.  Of equal-cost arcs of one class
# the least foot and then the least entry wins: ``_arc_foot`` reads it once,
# for the final winner, off the seeds that start a shortest walk to its
# state.  An arc of the pair u,v is tried only below its cut
# best - P0 - P1, P0 and P1 the two shortest u-v walks, and best only
# falls, so one search to the largest cut of u's pairs serves them all; it
# settles no cost past cut - 1 and relaxes none, and a foot w with
# dist(x, w) at or past the cut seeds nothing.  P0 and P1 differ in class,
# so P0 + P1 >= lambda1 and every arc tried costs at most best - lambda1 - 1:
# both of its walks lie inside the table bound below, so the winner's walks
# are settled states of the cached searches from u and v, and no state
# leaves the width rule.
#
# The search runs on the surface's common-denominator integer grid
# (``TriSurface.int_grid``): every length, distance and bound is the
# integer n standing for n/D, and only the realized length of the winner is
# a Fraction.
#
# A class search state, a vertex v reached by a walk of class c packed as
# in ``HomologyData``, is the int r*M + Z + c, r the rank of v among the
# sorted vertices, M = 2**(2g*width) and Z = 2**(width-1) in every digit.
# Int order is then the order of (v, class tuple), and each directed edge
# adds one precomputed int, ``hom.step`` plus the change of rank times M.
# The class search runs at any genus; exact capture is genus-1 only.
#
# Table bound: a call with greedy upper bound ``best`` (unbased, or based
# with its arc) that the tables it finds cannot settle (see the trial below)
# grows them to best - lambda1 - 1, lambda1 the shortest cycle of nonzero
# class, which is the first cycle of the greedy basis.  Each walk of a
# candidate of grid total t pairs with another walk of the candidate, of a
# different class, into a closed walk of nonzero class, at least lambda1
# long, so the walk is at most t - lambda1 long; and a candidate beats best
# only if t <= best - 1.  The pairs are two of the three u-v paths of a
# theta, the two closed walks of a figure eight or a disjoint pair, and, in
# the based theta, the split arc path against a plain path.  So the tables
# hold every walk the search can use; the search checks that their
# shortest nonzero-class closed walk is lambda1 whenever lambda1 is within
# them.
#
# Trial: by the same pairing, tables at bound B hold every walk of each
# candidate that totals at most B + lambda1.  So a call that finds tables
# with B + lambda1 + 1 < best, and no cached floor at or above
# B + lambda1 + 1, first runs the search with best = B + lambda1 + 1 on the
# tables as they are, growing nothing (``_least_candidate``).  Only if that
# finds no candidate does it grow the tables to best - lambda1 - 1 and
# search again from best.  The search returns the first candidate, in
# enumeration order, of least total, or nothing if none beats best; a
# candidate the trial finds is that one.  Growing the tables only appends
# entries longer than B, so any candidate reading one totals more than
# B + lambda1: it is no least candidate, and it cannot change a minimum m or
# cx, an arc or a pair that a least candidate reads.
# Nothing here uses x, so an unbased call whose tables were grown by based
# calls takes the trial too.
#
# Width rule: every bound is at most best <= 2*S with S the total grid
# length; a state within the bound, or one edge past it, is reached by a
# walk of at most 2*S // lmin + 1 edges, lmin the shortest grid length.
# Every class coordinate of an edge is -1, 0 or 1, so each digit of a
# state's class, or of the difference of two, fits the ``HomologyData``
# width.  A search asked for a bound above 2*S raises SurfaceError rather
# than mis-order its states.
#
# Each surface keeps one ``_CaptureCache``: the candidate pass, which
# serves every base, and its lambda1, the unbased greedy basis and exact
# result, each with its grid length, so that a based call reads its greedy
# bound and its floor as ints, and one resumable class search per source.
# Every based reader takes its distances from x from the surface's own grid
# shortest-path tree of the last base asked about (``TriSurface.tree``):
# the based greedy arc, the exact search's dist(x, .) and arc, ``height``'s
# distance bound and the inner ball (``_inner_ball``, read by ``ball`` and
# the small-ball check); so height and balls at one x run one Dijkstra from
# x, and the systole at x none once the pass exists.  Sources and targets
# are vertex ranks: the tables are ``searches[u].lists[v]``, the walks from
# the vertex of rank u to that of rank v, and no other index is kept over
# them.  A search keeps one bucket of states per grid length under a heap
# of the distinct lengths (Dial's queue), settles each bucket in ascending
# state order, and appends each state to its target's (grid length, class)
# list; every step is at least 1 grid unit, so no relaxation lands in the
# bucket being settled, states settle in increasing (length, state) order
# and every list stays sorted.  When a base needs a larger bound, each
# search goes on from where it stopped: its relaxations past the old bound
# stay in their buckets.
#
# Floor: a based call on a surface whose unbased exact result is cached
# (``height`` makes the unbased call first) takes its length L(M) as a
# floor on best.  Each candidate's sum is at least the length of the union
# of its walks and its arc from x, a capturing graph through x, so it is
# at least L(M, x) >= L(M).  Once best equals L(M) no later candidate
# passes a ``tot < best`` test, so the search returns its incumbent there:
# after the greedy bound, after the closed-walk family, and before each
# theta source u and each pair (v, P).  The result is the one the full
# search returns.  Without a cached L(M) there is no floor: computing it
# only for the floor costs more than it saves on one based call.
#
# The searches keep no parent maps.  A state's walk runs back through the
# first settled neighbour that reached it at its final length; since states
# settle in (length, state) order, that is its tight predecessor least in
# that order, read off ``dist`` when the winner's walks are recovered.  So
# neither a state's length nor its walk depends on the bound once the bound
# covers it: a resumed search and one built in one go agree, whichever
# bases came before.
#
# ``_STATE_CAP`` bounds the states one search has reached, its frontier past
# the bound included.  It is checked before each state a bucket yields, so
# a search that hits it, even inside a bucket, is left whole: the unsettled
# rest of the bucket stays, the cache's bound does not rise, and the next
# call raises again or, under a larger cap, resumes.

_STATE_CAP = 2_000_000


class _CaptureCache:
    """What systole and capture reuse across calls on one surface: the
    candidate pass, which serves the systole at every base and keeps one
    cycle per root and one per class up to sign, and its least
    nonzero-class grid length ``lambda1``, the unbased greedy and exact
    results with their grid lengths, one resumable class search per source
    rank (no parents kept), its ``lists`` indexed by target rank, each
    grown to the grid bound ``bound``, which never falls (see the table
    bound and the trial above).  The surface keeps it
    (``TriSurface.capture_cache``), beside its own tables: the distances
    from a base come from ``TriSurface.tree``."""

    def __init__(self):
        self.candidates = None      # _grid_candidates (reps, best, sep)
        self.lambda1 = None         # least grid length in best
        self.greedy = None          # unbased greedy (length, grid length, edges)
        self.exact = None           # unbased exact (length, grid length, edges)
        self.packing = None         # see _ClassPacking
        self.searches = None        # _ClassSearch per source rank
        self.bound = -1             # grid bound every search has reached


def _capture_cache(s: TriSurface) -> _CaptureCache:
    return s.capture_cache(_CaptureCache)


def _on_grid(q: Fraction, D: int) -> int:
    n = Fraction(q) * D
    if n.denominator != 1:
        raise SurfaceError(f"length {q} is not on the grid 1/{D}")
    return n.numerator


class _ClassPacking:
    """Class search states as ints, r*M + Z + c, under the width rule above.

    ``adj[r]`` lists (grid length, state delta) for each directed edge out
    of the vertex of rank r, shortest first; ``limit`` is the largest grid
    bound the width allows, 2*S, as each edge is listed at both ends.
    """

    def __init__(self, s: TriSurface):
        hom = s.homology()
        adj = s.int_grid()[1]
        self.verts = sorted(s.vertices)
        rank = {v: r for r, v in enumerate(self.verts)}
        self.limit = sum(l for es in adj.values() for l, _ in es)
        width, k = hom.width, len(hom.generators)
        M = self.M = 1 << (k * width)
        self.Z = sum(1 << (i * width + width - 1) for i in range(k))
        self.adj = [sorted((l, (rank[u] - r) * M + hom.step(v, u)) for l, u in adj[v])
                    for r, v in enumerate(self.verts)]
        self.classes: dict[int, int] = {}   # low digits -> class, one int each

    def state(self, r: int, c: int) -> int:
        """The state of the vertex of rank r reached in class c."""
        return r * self.M + self.Z + c

    def vertex(self, state: int) -> int:
        return self.verts[state // self.M]


class _ClassSearch:
    """Shortest walks stratified by homology class, on packed states: the
    one resumable, seeded Dijkstra behind both the class tables and the
    based theta's arcs.

    ``seeds`` lists (key, state) pairs, one per state, each put in the
    bucket of its key; ``adj[r]`` lists (key step, state delta) for each
    directed edge out of the vertex of rank r, least step first, every
    step at least 1; ``limit`` is the largest key the search may ever
    settle.  Every key is a grid length and every adjacency the packing's:
    a table search is seeded with its source's zero-class state at key 0
    and grows up to the packing's limit, an arc search with its source's
    table entries at their arc costs up to its cut (see the arc search
    above).  ``buckets`` maps each pending key to its states and
    ``keys`` is a heap of those keys.  ``grow(bound)`` settles whole buckets
    up to the bound, each sorted descending and popped from its end, so
    states settle in increasing (key, state) order; it appends (key, class)
    to ``lists[r]``, r its target's rank.  Relaxations past the bound stay
    in their buckets for a later, larger bound, and those past ``limit`` are
    dropped.  ``dist`` maps each reached state to its key so far, final
    once it is <= the bound; a bucket entry whose key is above it is
    stale and skipped.
    """

    def __init__(self, packing: _ClassPacking, seeds: list, adj: list, limit: int):
        self.packing = packing
        self.adj = adj
        self.limit = limit
        self.dist = {st: k for k, st in seeds}
        self.buckets: dict[int, list[int]] = {}
        for k, st in seeds:
            self.buckets.setdefault(k, []).append(st)
        self.keys = list(self.buckets)
        heapify(self.keys)
        self.lists = [[] for _ in packing.verts]

    def grow(self, bound: int) -> None:
        if bound > self.limit:
            raise SurfaceError("class search bound exceeds its packing width")
        pk = self.packing
        dist, buckets, keys = self.dist, self.buckets, self.keys
        lists, adj = self.lists, self.adj
        limit = self.limit
        past = limit + 1        # the key of a state not reached yet
        M, Z, classes = pk.M, pk.Z, pk.classes
        cap = _STATE_CAP
        while keys and keys[0] <= bound:
            d = keys[0]
            bucket = buckets[d]
            bucket.sort(reverse=True)
            while bucket:
                if len(dist) > cap:
                    raise SurfaceError("class search state budget exceeded")
                st = bucket.pop()
                if dist[st] != d:
                    continue    # stale: settled at a lower key
                r, low = divmod(st, M)
                lists[r].append((d, classes.setdefault(low, low - Z)))
                for l, delta in adj[r]:
                    nd = d + l
                    if nd > limit:
                        break   # so is every later step of adj[r]
                    ns = st + delta
                    if nd < dist.get(ns, past):
                        dist[ns] = nd
                        if nd in buckets:
                            buckets[nd].append(ns)
                        else:
                            buckets[nd] = [ns]
                            heappush(keys, nd)
            heappop(keys)
            del buckets[d]

    def parent(self, state: int) -> int | None:
        """The settled state that first reached ``state`` at its final
        key (None at a seed).  Settling runs in (key, state) order, so it is
        the tight predecessor least in that order; the reverse of a directed
        edge is its negated delta."""
        d = self.dist[state]
        tight = [(d - l, state + delta)
                 for l, delta in self.adj[state // self.packing.M]
                 if self.dist.get(state + delta) == d - l]
        return min(tight)[1] if tight else None

    def walk_edges(self, state: int) -> set:
        """Edges of the walk that first reached the settled ``state``."""
        vertex = self.packing.vertex
        out = set()
        while (prev := self.parent(state)) is not None:
            out.add(_pair(vertex(prev), vertex(state)))
            state = prev
        return out


def _capture_tables(s: TriSurface, bound: int) -> list:
    """The class searches by source rank, grown to at least ``bound``:
    ``searches[u].lists[v]`` is the sorted (grid length, class) list of the
    class-stratified shortest walks from the vertex of rank u to that of
    rank v, complete up to ``bound``."""
    cache = _capture_cache(s)
    if cache.bound >= bound:
        return cache.searches
    if cache.searches is None:
        pk = cache.packing = _ClassPacking(s)
        cache.searches = [_ClassSearch(pk, [(0, pk.state(r, 0))], pk.adj, pk.limit)
                          for r in range(len(pk.verts))]
    for search in cache.searches:
        search.grow(bound)
    cache.bound = bound
    return cache.searches


def _arc_search(pk: _ClassPacking, row: list, dx: list,
                cut: int) -> _ClassSearch:
    """The seeded class search of one theta source u (see the arc search
    above), grown to every grid cost below ``cut``: its ``lists[v]`` holds
    u's least arc to the vertex of rank v in each class, as (cost, class)
    in (cost, class) order.  ``row`` is u's (grid length, class) lists by
    target rank and ``dx`` dist(x, w) by rank of w."""
    M, Z = pk.M, pk.Z
    seeds = []
    for r, (lst, d) in enumerate(zip(row, dx)):
        if d >= cut:
            continue    # every arc from this foot costs at least the cut
        for d1, g1 in lst:
            c = d1 + d
            if c >= cut:
                break
            seeds.append((c, r * M + Z + g1))   # pk.state(r, g1)
    search = _ClassSearch(pk, seeds, pk.adj, cut - 1)
    search.grow(cut - 1)
    return search


def _arc_foot(search: _ClassSearch, row: list, dx: list, state: int) -> tuple:
    """The least (foot rank, entry index) of the seeds of the arc search
    ``search`` (``_arc_search`` of ``row`` and ``dx``) that start a shortest
    walk to ``state``: those met walking back from it through every tight
    predecessor, as ``_ClassSearch.parent`` does, whose seed cost is their
    state's final key."""
    pk, dist = search.packing, search.dist
    feet, seen, stack = [], {state}, [state]
    while stack:
        st = stack.pop()
        d = dist[st]
        r, low = divmod(st, pk.M)
        feet += [(r, i) for i, (d1, g1) in enumerate(row[r])
                 if g1 == low - pk.Z and d1 + dx[r] == d]
        for l, delta in search.adj[r]:
            if st + delta not in seen and dist.get(st + delta) == d - l:
                seen.add(st + delta)
                stack.append(st + delta)
    return min(feet)


def _exact_capture_search(s: TriSurface, x: int | None) -> tuple[Fraction, set]:
    D = s.int_grid()[0]
    cache = _capture_cache(s)
    # the greedy bound and the floor are read on the grid, as the cache
    # keeps them: a based call converts no Fraction
    _, ub, ub_edges = _greedy_basis(s)
    if x is not None:
        tree = s.tree(x)
        ub, ub_edges = _with_arc(tree, ub, ub_edges)
    best = ub
    # see the floor above: a based call stops once best reaches the cached
    # unbased optimum (an unbased call never finds one cached)
    floor = None if cache.exact is None else cache.exact[1]
    if best == floor:
        return Fraction(ub, D), set(ub_edges)
    # see the trial above: the tables as they are settle every candidate
    # of total at most their bound plus lambda1
    lambda1 = cache.lambda1
    trial = cache.bound + lambda1 + 1
    found = None
    if cache.searches is not None and trial < best \
            and (floor is None or floor < trial):
        found = _least_candidate(s, x, trial, floor)
    if found is None:
        # see the table bound above: no walk of a candidate beating best is
        # longer than best - lambda1 - 1
        _capture_tables(s, best - lambda1 - 1)
        found = _least_candidate(s, x, best, floor)
    if found is None:
        # the greedy subgraph is already optimal
        return Fraction(ub, D), set(ub_edges)
    best, best_walks, best_foot = found
    searches, pk = cache.searches, cache.packing
    edges = set() if x is None else _path_edges(tree[1], pk.verts[best_foot])
    # recover the walks from the cached searches, which cover every one
    for source, (v, h) in best_walks:
        edges |= searches[source].walk_edges(pk.state(v, h))
    realized = subgraph_length(s, edges)
    if x is not None and not any(x in e for e in edges):
        raise SurfaceError("based capture candidate misses the base point")
    ok, rank = capturing_test(s, edges)
    if not ok:
        raise SurfaceError(f"exact capture candidate fails to capture (rank {rank})")
    if realized * D > best:
        raise SurfaceError("exact capture bookkeeping mismatch")
    return realized, edges


def _least_candidate(s: TriSurface, x: int | None, best: int,
                     floor: int | None) -> tuple | None:
    """The first candidate, in enumeration order, of least grid total below
    ``best``, on the cached class tables as they are: (total, walks, foot),
    its walks as (source rank, (target rank, class)) and foot the rank its
    arc from x ends at (read when based), or None if no candidate totals
    less than ``best``.  A candidate reaching ``floor`` ends the search."""
    cache = _capture_cache(s)
    searches, pk, lambda1 = cache.searches, cache.packing, cache.lambda1
    n, det = len(pk.verts), s.homology().det
    if x is None:
        dx = [0] * n
    else:
        distx = s.tree(x)[0]
        dx = [distx[v] for v in pk.verts]
    # best_arc is a based theta winner's (arc search, u, v, class), its foot
    # read once, after the search
    best_walks = best_foot = best_arc = None

    # closed-walk minima per class, as (grid length, base rank): m[h] plain,
    # cx[h] with the arc from x charged to the walk; cx is m when unbased,
    # since rank order is vertex order
    m: dict[int, tuple] = {}
    cx: dict[int, tuple] = {}
    for r in range(n):
        for d, h in searches[r].lists[r]:
            if not h:
                continue
            if h not in m or (d, r) < m[h]:
                m[h] = (d, r)
            c = d + dx[r]
            if h not in cx or (c, r) < cx[h]:
                cx[h] = (c, r)
    msorted = sorted((d, r, h) for h, (d, r) in m.items())
    shortest = msorted[0][0] if msorted else None
    if shortest != (lambda1 if lambda1 <= cache.bound else None):
        raise SurfaceError("exact capture tables disagree with the greedy "
                           "shortest cycle")

    # disjoint pair / figure eight family: two closed walks with independent
    # classes; the first one pays the arc from x
    for (c1, r1, h1) in sorted((c, r, h) for h, (c, r) in cx.items()):
        if msorted and c1 + msorted[0][0] >= best:
            break
        for (d2, r2, h2) in msorted:
            tot = c1 + d2
            if tot >= best:
                break
            if not det(h1, h2):
                continue
            best = tot
            best_walks = [(r1, (r1, h1)), (r2, (r2, h2))]
            best_foot = r1

    # theta family: three u-v paths with non-collinear classes; in the based
    # variant exactly one path is split at an arc foot w paying dist(x, w)
    for u in range(n):
        if best == floor:
            break
        row = searches[u].lists
        # pairs (v, P), P one shortest u-v walk per class, sorted by (length,
        # class).  A pair whose cut best - P0 - P1 is at most dist(x, u) or
        # dist(x, v) is never tried below: every special path costs at
        # least both.  Unbased, that leaves the pairs with P0 + P1 < best,
        # and a pair of two walks has no third class.  best only falls, so
        # one arc search to the largest cut of u's pairs serves them all.
        pairs = []
        cut = 0
        for v in range(u + 1, n):
            P = row[v]
            if len(P) >= 2:
                c = best - P[0][0] - P[1][0]
                if c > dx[u] and c > dx[v]:
                    pairs.append((v, P))
                    if c > cut:
                        cut = c
        if not pairs:
            continue
        if x is not None:
            arcs = _arc_search(pk, row, dx, cut)
        for v, P in pairs:
            if best == floor:
                break
            # unbased, the "special" path is just another plain path; based,
            # it is one arc per class, in (cost, class) order
            A = P if x is None else arcs.lists[v]
            for d1, h1 in A:
                if d1 + P[0][0] + P[1][0] >= best:
                    break
                for j in range(len(P)):
                    d2, h2 = P[j]
                    if x is None and d2 < d1:
                        continue   # canonical order: special path is shortest
                    if d1 + d2 + P[0][0] >= best:
                        break
                    h21 = h2 - h1
                    for k in range(j + 1, len(P)):
                        d3, h3 = P[k]
                        tot = d1 + d2 + d3
                        if tot >= best:
                            break
                        if not det(h21, h3 - h1):
                            continue
                        best = tot
                        best_walks = [(u, (v, h2)), (u, (v, h3))]
                        if x is None:
                            best_walks.append((u, (v, h1)))
                        else:
                            best_arc = (arcs, u, v, h1)

    if best_walks is None:
        return None
    if best_arc is not None:
        arcs, u, v, h1 = best_arc
        row = searches[u].lists
        best_foot, i = _arc_foot(arcs, row, dx, pk.state(v, h1))
        g1 = row[best_foot][i][1]
        best_walks += [(u, (best_foot, g1)), (v, (best_foot, g1 - h1))]
    return best, best_walks, best_foot


def height(s: TriSurface, x: int, mode: str = "exact") -> dict:
    """H''(x) = L(M,x) - L(M,h), plus the distance bound H'' <= dist(x, G),
    read off the surface's grid shortest-path tree of x
    (``TriSurface.tree``), the one the based capture call has just used."""
    L, gmin = capture_length(s, mode)
    Lx, gx = capture_length(s, mode, x=x)
    dx = s.tree(x)[0]
    dist_bound = Fraction(min(dx[v] for e in gmin for v in e),
                          s.int_grid()[0])
    return {
        "L": L, "Lx": Lx, "Hpp": Lx - L,
        "dist_bound": dist_bound,
        "min_graph": gmin, "min_graph_x": gx,
    }


def small_ball_area_check(s: TriSurface, x: int, R: Fraction | int | str,
                          hpp: Fraction, sys_x: Fraction) -> dict:
    """Check area B(x,R) >= (R - H''(x))^2 / 2 inside the admissible window
    H''(x) < R < sys(M,x)/2, given H''(x) (``height``) and sys(M,x)
    (``systole_at``).  Substituting H'' for min(H',H'') means only the
    implied weaker inequality is tested.  The area is that of the inner
    ball, a lower bound on the ball's, so one below the target reads
    inconclusive, never fail.  It is ``ball(s, x, R).area(s)`` to the last
    bit: the faces of ``_inner_ball``, which ``ball`` reads too, their
    areas summed in the same order; the check reads no ball boundary, so it
    builds none."""
    R = Fraction(R)
    if not (hpp < R < sys_x / 2):
        return {"x": x, "R": R, "Hpp": hpp, "sys_x": sys_x,
                "status": "inconclusive", "reason": "outside admissible window"}
    areas = s.face_areas()
    area = sum(areas[i] for i in _inner_ball(s, x, R)[1])
    required = float(R - hpp) ** 2 / 2.0
    rep = {"x": x, "R": R, "Hpp": hpp, "sys_x": sys_x,
           "area": area, "required": required, "margin": area - required,
           "status": "pass"}
    if area < required:
        rep.update(status="inconclusive", reason=LOW_INNER_AREA)
    return rep
