"""Triangulated closed orientable surfaces with exact edge lengths.

``TriSurface.build`` validates and orients a complex in one pass over its
faces and keeps that pass's incidence tables on the surface: the edges,
the two faces of each edge (the one running u -> w first, then the one
running w -> u, for u < w) and the faces at each vertex.  The surface owns
every other per-surface table as a declared field, each built on first use;
no other module attaches state to a surface:

- the integer grid (``int_grid``, ``grid_lengths``): build sets the common
  denominator D of the edge lengths and each edge's length in units of
  1/D, and compares the triangle inequality on those integers; it keeps
  those lengths by edge too, which face areas and ``subgraph_length`` read;
  the grid adjacency is built on first use;
- the face table (``face_edges``): per face, its three edges, each with the
  face across it;
- the grid shortest-path tree of the last base asked about (``tree``);
- the homology (``homology``) and the Heron face areas (``face_areas``);
- the capture cache of ``surfballs`` (``capture_cache``).

Every later surface computation reads these tables: shortest paths
(``graphs.grid_shortest_paths`` runs on the surface itself), homology,
face areas, balls, capture and the nerve.  There is one graph
view, ``subgraph_metric_graph(s, edges)``, a ``MetricGraph`` of the given
edges (all of ``s.edges`` for the 1-skeleton), and one ``Fraction`` view
of distances, ``distances_from``, which no computation here reads.

The surface metric is the shortest-path metric on the 1-skeleton; face
areas come from Heron's formula on the grid lengths.  First homology is
exact: a tree-cotree decomposition gives each edge its class in Z^{2g},
packed into one int (``HomologyData``).  Two spanning trees fix every
class: T on the vertices and C on the faces.  A cotree edge's class is
its signed crossings with the generators' dual cycles, read off by walking
each generator's path in C, so the homology builds no face table.

A subgraph captures when its cycles span H1(M).  ``capturing_test`` is the
one-shot query: it returns (captures, rank of the image) by exact
elimination.  Pruning asks the same question once per dropped piece, and
``prune_pieces`` answers it on the dual side instead (Eppstein, "Dynamic
generators of topologically embedded graphs", SODA 2003).  A subgraph
captures iff every cycle of the dual graph on the faces, joined across the
edges outside it, has zero intersection with each basis cycle of H1(M).
Removing edges only adds dual edges, so one union-find over the faces,
carrying crossing vectors and an undo log, tests each drop incrementally
with integer comparisons.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Edge, MetricGraph, grid_shortest_paths
from .linalg import Echelon


class SurfaceError(ValueError):
    """Invalid surface complex or operation."""


def heron(a: float, b: float, c: float) -> float:
    s = (a + b + c) / 2.0
    return math.sqrt(max(0.0, s * (s - a) * (s - b) * (s - c)))


def _pair(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def _vertex_id(v) -> int:
    """v as an int vertex id, through ``operator.index``: 2.5 is refused,
    not truncated, and so is a ``bool``.  A plain int is returned as it is."""
    if type(v) is int:
        return v
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise SurfaceError(f"vertex id {v!r} is not an integer")


def _length_key(k) -> tuple[int, int]:
    """A ``lengths`` key as an edge (u, w), u < w."""
    try:
        u, w = k
        return _pair(_vertex_id(u), _vertex_id(w))
    except (TypeError, ValueError):
        raise SurfaceError(f"length key {k!r} is not a vertex pair") from None


def _length_value(k, v) -> Fraction:
    """v as a ``Fraction``; a plain ``Fraction`` is returned as it is."""
    if type(v) is Fraction:
        return v
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise SurfaceError(f"length {v!r} on {k!r} is not a rational number") from None


_ONE = Fraction(1)
_LAZY = dict(default=None, init=False, repr=False, compare=False)


@dataclass
class TriSurface:
    vertices: tuple[int, ...]
    faces: tuple[tuple[int, int, int], ...]        # consistently oriented
    edge_lengths: dict[tuple[int, int], Fraction]
    edges: tuple[tuple[int, int], ...]             # (u, w), u < w, ascending
    # (face running u -> w, face running w -> u) for each edge (u, w), u < w
    edge_faces: dict[tuple[int, int], tuple[int, int]]
    vertex_faces: dict[int, list[int]]             # faces at v, ascending
    genus: int
    # the integer grid, set by build: D and each edge's length times D, in
    # ``edges`` order (see _grid_table) and by edge
    _D: int = field(repr=False, compare=False)
    _grid_lengths: list[int] = field(repr=False, compare=False)
    _edge_grid: dict[tuple[int, int], int] = field(repr=False, compare=False)
    # derived views, each built on first use
    _adj: dict | None = field(**_LAZY)            # grid adjacency
    _homology: HomologyData | None = field(**_LAZY)
    _face_areas: list[float] | None = field(**_LAZY)
    _face_edges: list | None = field(**_LAZY)     # see face_edges
    _tree: tuple | None = field(**_LAZY)          # (x, dist, parent), see tree
    _capture_cache: object | None = field(**_LAZY)   # see capture_cache

    @staticmethod
    def build(faces, lengths=None) -> "TriSurface":
        """Validate and orient a closed triangulated surface.

        ``faces`` are vertex triples; ``lengths`` maps unordered vertex
        pairs to positive rationals (default 1).  The checks, in the order
        they run: every vertex id is an integer (not a bool); there is a
        face; no face repeats a vertex; every edge lies in two faces; every
        vertex link is one cycle; the faces are connected; they can be
        oriented; each length key is a pair of vertex ids and each value a
        rational; lengths are given only on edges, and are positive; every
        face meets the triangle inequality.  One table lists each edge
        (u, w), u < w, with its two (face, runs u -> w?) sides, and one walk
        from face 0 across it both connects and orients: a face is flipped
        relative to its neighbour iff both run their shared edge the same
        way.  The three edge keys each face gets in that table's pass are
        reused by the link walk, the orientation walk and the triangle
        check.

        No ``Fraction`` arithmetic runs.  Positivity reads each length's
        numerator; then D, the lcm of the length denominators, puts every
        edge on the integer grid (length times D), and each face's three
        strict triangle inequalities are compared as integers, which is the
        ``Fraction`` test since D > 0.

        The surface keeps the tables of that pass: ``edges`` in ascending
        order, ``edge_faces[(u, w)]`` as (the face that runs u -> w, the
        face that runs w -> u) once oriented, ``vertex_faces`` with the
        faces at each vertex in ascending order, the genus from
        V - E + F = 2 - 2g, and D with the grid lengths in ``edges`` order
        (``int_grid``, ``grid_lengths``), and the grid lengths by edge.
        """
        faces = [tuple(map(_vertex_id, f)) for f in faces]
        if not faces:
            raise SurfaceError("no faces")
        verts = sorted({v for f in faces for v in f})
        for f in faces:
            if len(f) != 3 or len(set(f)) != 3:
                raise SurfaceError(f"degenerate face {f}")
        sides: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        vfaces: dict[int, list[int]] = {v: [] for v in verts}
        fkeys = []                     # per face, its edges ab, bc, ca
        for i, (a, b, c) in enumerate(faces):
            keys = []
            for u, w in ((a, b), (b, c), (c, a)):
                e = (u, w) if u < w else (w, u)
                sides.setdefault(e, []).append((i, u < w))
                vfaces[u].append(i)
                keys.append(e)
            fkeys.append(keys)
        for e, fs in sides.items():
            if len(fs) != 2:
                raise SurfaceError(f"non-manifold: edge {e} lies in {len(fs)} faces")
        # a face across an edge at v holds v, so the walk stays in vfaces[v]
        for v in verts:
            link = {vfaces[v][0]}
            stack = [vfaces[v][0]]
            while stack:
                for e in fkeys[stack.pop()]:
                    if v in e:
                        for j, _ in sides[e]:
                            if j not in link:
                                link.add(j)
                                stack.append(j)
            if len(link) != len(vfaces[v]):
                raise SurfaceError(f"non-manifold vertex {v} (disconnected link)")
        flip = {0: False}
        stack = [0]
        twisted = False
        while stack:
            i = stack.pop()
            for e in fkeys[i]:
                (h, dh), (j, dj) = sides[e]
                if j == i:
                    j = h
                want = flip[i] ^ (dh == dj)
                if j not in flip:
                    flip[j] = want
                    stack.append(j)
                elif flip[j] != want:
                    twisted = True
        # connectivity first: a complex with a twisted part and another
        # component reads "disconnected surface"
        if len(flip) < len(faces):
            raise SurfaceError("disconnected surface")
        if twisted:
            raise SurfaceError("non-orientable surface")
        oriented = tuple(f if not flip[i] else (f[0], f[2], f[1])
                         for i, f in enumerate(faces))
        lengths = {_length_key(k): _length_value(k, v)
                   for k, v in (lengths or {}).items()}
        for e in lengths:
            if e not in sides:
                raise SurfaceError(f"length given for {e}, which is not an edge of any face")
        full = {}
        for e in sides:
            l = lengths.get(e, _ONE)
            if l.numerator <= 0:
                raise SurfaceError(f"nonpositive length on edge {e}")
            full[e] = l
        D = math.lcm(*{l.denominator for l in full.values()})
        grid = {e: l.numerator * (D // l.denominator) for e, l in full.items()}
        for i, (x, y, z) in enumerate(fkeys):
            lx, ly, lz = grid[x], grid[y], grid[z]
            if not (lx < ly + lz and ly < lx + lz and lz < lx + ly):
                raise SurfaceError(f"triangle inequality fails on face {oriented[i]}")
        edges = tuple(sorted(sides))
        edge_faces = {}
        for e in edges:
            (h, dh), (j, _) = sides[e]
            edge_faces[e] = (h, j) if dh != flip[h] else (j, h)
        genus = (2 - len(verts) + len(edges) - len(faces)) // 2
        return TriSurface(tuple(verts), oriented, full, edges, edge_faces,
                          vfaces, genus, D, [grid[e] for e in edges], grid)

    # -- derived views -----------------------------------------------------
    def _grid_table(self) -> tuple:
        """(D, lengths, adj): D, the lcm of the length denominators, and
        ``lengths[i]``, ``edges[i]``'s length times D, both set by build;
        adj[v] lists (grid length, other end) for the edges at v in
        ``edges`` order, built on first use."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
            for (u, w), n in zip(self.edges, self._grid_lengths):
                adj[u].append((n, w))
                adj[w].append((n, u))
            self._adj = adj
        return self._D, self._grid_lengths, self._adj

    def int_grid(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """(D, adj): the common denominator D of the edge lengths, set by
        build, and, per vertex, (grid length, other end) in ``edges`` order,
        built on first use.  It equals
        ``subgraph_metric_graph(self, self.edges).int_grid()``, without
        building that graph."""
        D, _, adj = self._grid_table()
        return D, adj

    def grid_lengths(self) -> list[int]:
        """Each edge's length times D, in ``edges`` order, as build computed
        it for the triangle inequality."""
        return self._grid_lengths

    def face_areas(self) -> list[float]:
        """Each face's area, in ``faces`` order, built on first use and kept:
        the list itself is returned, so callers read it and never change
        it.  Heron's formula on the edge lengths as floats: each is n / D
        on the grid, and int true division rounds correctly, so it is the
        float of the ``Fraction`` length."""
        if self._face_areas is None:
            D, ln = self._D, self._edge_grid
            self._face_areas = [
                heron(ln[_pair(b, c)] / D, ln[_pair(a, c)] / D,
                      ln[_pair(a, b)] / D)
                for a, b, c in self.faces]
        return self._face_areas

    def total_area(self) -> float:
        """The sum of ``face_areas`` in face order."""
        return sum(self.face_areas())

    def face_edges(self) -> list[list[tuple[tuple[int, int], int]]]:
        """Per face (a, b, c), its edges (a, b), (b, c) and (a, c), each as
        (edge, the face across it).  One pass over ``edge_faces`` fills
        both faces of each edge, placing it by the face's vertex off it."""
        if self._face_edges is None:
            rows = [[None] * 3 for _ in self.faces]
            for e, (f1, f2) in self.edge_faces.items():
                for f, h in ((f1, f2), (f2, f1)):
                    a, b, c = self.faces[f]
                    z = a + b + c - e[0] - e[1]
                    rows[f][0 if z == c else 1 if z == a else 2] = (e, h)
            self._face_edges = rows
        return self._face_edges

    def tree(self, x: int) -> tuple[dict[int, int], dict[int, int | None]]:
        """The grid (dist, parent) maps of ``grid_shortest_paths`` from x,
        kept for the last base asked about, so that every based reader at
        one x shares one Dijkstra.  A ``bool`` never matches the kept base
        (True == 1), so it reaches ``grid_shortest_paths``, which refuses it
        as it refuses an unknown vertex."""
        kept = self._tree
        if kept is None or isinstance(x, bool) or kept[0] != x:
            kept = self._tree = (x, *grid_shortest_paths(self, x))
        return kept[1], kept[2]

    def capture_cache(self, new):
        """What ``surfballs`` reuses across systole and capture calls on this
        surface (its ``_CaptureCache``), made by ``new()`` on first use."""
        if self._capture_cache is None:
            self._capture_cache = new()
        return self._capture_cache

    def distances_from(self, src: int) -> dict[int, Fraction]:
        """Exact distances from ``src``: ``grid_shortest_paths`` on the
        surface, each grid distance taken back to a ``Fraction``.  No
        computation in the package reads it; it is the ``Fraction`` view
        for tests and for tracing."""
        D = self.int_grid()[0]
        return {v: Fraction(d, D)
                for v, d in grid_shortest_paths(self, src)[0].items()}

    def homology(self) -> "HomologyData":
        if self._homology is None:
            self._homology = HomologyData(self)
        return self._homology


class HomologyData:
    """First homology over Z from a tree-cotree decomposition.

    T is a BFS spanning tree of the 1-skeleton (``tree_parent``) and C a
    spanning tree of the dual graph on the remaining edges, taken greedily
    in edge order by a union-find; the 2g edges in neither are the
    generators.  Every edge (u, w), u < w, carries its class in Z^{2g}:
    zero on T, the i-th unit vector on the i-th generator, and on C the
    value its face relations force.  That value is the edge's signed
    crossings with the dual cycles: generator i's dual cycle crosses it
    from its u -> w face to its w -> u face and returns along C.  So with C
    rooted at face 0 (through ``edge_faces``), each generator walks its two
    faces' paths up to the root, the common part cancelling, and adds
    +-unit i to each edge of C it crosses (Eppstein, "Dynamic generators of
    topologically embedded graphs", SODA 2003).  The face relations are
    then checked once: each nonzero class is added to the face whose
    triangle runs u -> w and subtracted from the other, and every face
    total must be zero.  The cost is O(V + E + F + g * depth(C)).  The
    class of a closed walk is the sum of its directed edge classes
    (``step``).

    ``edge_class[(u, w)]`` is one int: the 2g coordinates as signed digits
    in base 2**``width``, coordinate i in digit 2g-1-i, so int order is the
    order of the coordinate tuples (``digits`` reads them back).  Each
    coordinate is -1, 0 or 1, as it counts the signed crossings of the edge
    with one simple dual cycle: generator i's dual edge plus the C-path
    between its faces.  ``width = N.bit_length() + 1`` with N = max(4|E|,
    2 * (2S // lmin + 1)), S the total and lmin the least grid edge length,
    keeps each digit of a signed sum of up to N such vectors below
    2**(width-1) in magnitude, so the sum is zero iff its int is.  A class
    search walk has at most 2S // lmin + 1 edges (``surfballs``), and the 2
    leaves room for the difference of two such classes.
    """

    def __init__(self, s: TriSurface):
        _, lengths, adj = s._grid_table()
        # BFS spanning tree, deterministic
        root = min(s.vertices)
        tree = set()
        self.tree_parent: dict[int, int | None] = {root: None}
        order = [root]
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            for _, u in adj[v]:
                if u not in self.tree_parent:
                    tree.add(_pair(v, u))
                    self.tree_parent[u] = v
                    order.append(u)
        # dual spanning tree of the non-tree edges; the rest generate H1
        root_of = list(range(len(s.faces)))

        def find(x):
            while root_of[x] != x:
                root_of[x] = root_of[root_of[x]]
                x = root_of[x]
            return x

        edge_faces = s.edge_faces
        cotree = [[] for _ in s.faces]          # per face, its edges in C
        self.generators: list[tuple[int, int]] = []
        for e in s.edges:
            if e in tree:
                continue
            f1, f2 = edge_faces[e]
            r1, r2 = find(f1), find(f2)
            if r1 == r2:
                self.generators.append(e)
            else:
                root_of[r1] = r2
                cotree[f1].append(e)
                cotree[f2].append(e)
        if len(self.generators) != 2 * s.genus:
            raise SurfaceError("tree-cotree decomposition has the wrong number of generators")
        n = max(4 * len(s.edges), 2 * (2 * sum(lengths) // min(lengths) + 1))
        self.width = width = n.bit_length() + 1
        cls = dict.fromkeys(s.edges, 0)
        for i, e in enumerate(reversed(self.generators)):
            cls[e] = 1 << (i * width)
        self.edge_class = cls
        # root C at face 0: up[f] is the edge of C from f towards face 0
        up = [None] * len(s.faces)
        forder = [0]
        for f in forder:
            for e in cotree[f]:
                if e != up[f]:
                    f1, f2 = edge_faces[e]
                    h = f2 if f1 == f else f1
                    up[h] = e
                    forder.append(h)
        # generator i's dual cycle crosses it from its u -> w face fl to its
        # w -> u face fr, then returns along C from fr to fl: up from fr,
        # down to fl, the common part cancelling.  Crossing an edge of C from
        # its u -> w face to its w -> u face adds unit i, the other way
        # subtracts it.
        for g in self.generators:
            unit = cls[g]
            fl, fr = edge_faces[g]
            for f, step in ((fr, unit), (fl, -unit)):
                while f:
                    e = up[f]
                    f1, f2 = edge_faces[e]
                    if f == f1:
                        cls[e] += step
                        f = f2
                    else:
                        cls[e] -= step
                        f = f1
        # each face's boundary, read off its oriented triangle, sums to zero
        total = [0] * len(s.faces)
        faces = s.faces
        for (u, w), c in cls.items():
            if c:
                f1, f2 = edge_faces[(u, w)]
                tri = faces[f1]
                if tri[tri.index(u) - 2] != w:   # f1 does not run u -> w
                    c = -c
                total[f1] += c
                total[f2] -= c
        if any(total):
            raise SurfaceError("face boundary has a nonzero homology class")

    def step(self, x: int, y: int) -> int:
        """Packed class of the directed edge x -> y."""
        if x < y:
            return self.edge_class[(x, y)]
        return -self.edge_class[(y, x)]

    def digits(self, packed: int) -> list[int]:
        """The 2g signed digits of a packed class, coordinate i at index i."""
        width = self.width
        half, mask = 1 << (width - 1), (1 << width) - 1
        out = []
        for _ in self.generators:
            x = ((packed + half) & mask) - half
            out.append(x)
            packed = (packed - x) >> width
        out.reverse()
        return out

    def det(self, p: int, q: int) -> int:
        """ad - bc for the genus-1 classes p = (a, b), q = (c, d):
        t(p)*q - t(q)*p, t(p) = a the top digit."""
        w = self.width
        half = 1 << (w - 1)
        return ((p + half) >> w) * q - ((q + half) >> w) * p


# ---------------------------------------------------------------------------
# capturing subgraphs

def capturing_test(s: TriSurface, sub_edges) -> tuple[bool, int]:
    """True iff the subgraph's cycle space surjects onto H1(M); also the
    rank of its image.  A one-shot query: pruning asks ``prune_pieces``.

    Potentials p(v) sum the packed edge classes along a DFS forest of the
    subgraph; each edge (u, w) closes a cycle of class p(u) + [u -> w] - p(w),
    a sum of fewer than 2 * |V| edge classes, and zero on the forest.
    """
    hom = s.homology()
    sub = sorted(_edge_set(s, sub_edges))
    adj: dict[int, list[int]] = {}
    for (u, w) in sub:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    pot: dict[int, int] = {}
    for r in adj:
        if r in pot:
            continue
        pot[r] = 0
        stack = [r]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in pot:
                    pot[u] = pot[v] + hom.step(v, u)
                    stack.append(u)
    full = 2 * s.genus
    ech = Echelon()
    for (u, w) in sub:
        if ech.rank == full:
            break
        c = pot[u] + hom.edge_class[(u, w)] - pot[w]
        if c:
            ech.add(hom.digits(c))
    return ech.rank == full, ech.rank


def _edge_set(s: TriSurface, pairs) -> set[tuple[int, int]]:
    """The edges (u, w), u < w, of the vertex pairs ``pairs``; SurfaceError
    names the first pair that is not an edge of ``s``."""
    out = set()
    for pair in pairs:
        e = _pair(*pair)
        if e not in s.edge_faces:
            raise SurfaceError(f"pair {tuple(pair)} is not an edge of the surface")
        out.add(e)
    return out


def _dual_crossings(s: TriSurface) -> dict:
    """Crossing data of the 2g basis cycles z_i, each the fundamental cycle
    of generator i in the homology BFS tree.

    ``cross[(u, w)]``, u < w, is the vector of coefficients of u -> w in
    the z_i, packed like ``hom.edge_class``: generator i's class is the unit
    of coordinate i.  Each digit is -1, 0 or 1, so a sum of up to
    4 * len(s.edges) such vectors is zero iff its int is.
    """
    hom = s.homology()
    cross = dict.fromkeys(s.edges, 0)
    up = hom.tree_parent
    for a, b in hom.generators:
        unit = hom.edge_class[(a, b)]
        cross[(a, b)] += unit
        # z_i = a -> b, then the tree path b -> a: up from b, down to a
        for v, step in ((b, unit), (a, -unit)):
            while up[v] is not None:
                p = up[v]
                cross[_pair(v, p)] += step if v < p else -step
                v = p
    return cross


def prune_pieces(s: TriSurface, pieces) -> list[int]:
    """Indices of the pieces kept when each piece, in order, is dropped
    whenever the union of the pieces still kept without it captures.

    ``pieces`` are edge sets whose union captures.  The test runs on the
    dual side.  Let D be the graph on the faces joined across the edges
    outside a subgraph G.  By Lefschetz duality the image of H1(G) in H1(M)
    is the annihilator of that of H1(D) under the intersection form
    (vertices outside G only add disks, whose boundaries are null), so G
    captures iff every cycle of D crosses each basis cycle z_i zero times.
    A union-find over the faces keeps, with each face, the crossing vector
    of a dual path from its root (union by size, no path compression);
    adding the dual edge of an edge between faces already joined closes a
    cycle whose vector is read off in O(log F).

    Dropping a piece frees the edges that only it covers.  Their dual edges
    are added one by one; the first cycle with a nonzero vector rejects the
    drop and the undo log restores the union-find.  Capturing is monotone,
    so a piece kept once stays needed: one pass is enough.
    """
    cross = _dual_crossings(s)
    pieces = [_edge_set(s, p) for p in pieces]
    count = dict.fromkeys(s.edges, 0)
    for p in pieces:
        for e in p:
            count[e] += 1
    root_of = list(range(len(s.faces)))
    offset = [0] * len(s.faces)      # crossing vector from root_of[f] to f
    size = [1] * len(s.faces)
    log: list[int] = []              # faces linked below another root

    def find(f):
        h = 0
        while root_of[f] != f:
            h += offset[f]
            f = root_of[f]
        return f, h

    def join(e) -> bool:
        """Add the dual edge of e, left face to right face; False iff it
        closes a cycle with a nonzero crossing vector."""
        fl, fr = s.edge_faces[e]
        (rl, hl), (rr, hr) = find(fl), find(fr)
        c = hl + cross[e] - hr
        if rl == rr:
            return c == 0
        if size[rl] < size[rr]:
            rl, rr, c = rr, rl, -c
        root_of[rr] = rl
        offset[rr] = c
        size[rl] += size[rr]
        log.append(rr)
        return True

    if not all(join(e) for e, k in count.items() if k == 0):
        raise SurfaceError("the pieces do not capture the topology")
    kept = []
    for k, p in enumerate(pieces):
        log.clear()
        if all(join(e) for e in p if count[e] == 1):
            for e in p:
                count[e] -= 1
            continue
        for f in reversed(log):
            size[root_of[f]] -= size[f]
            root_of[f] = f
            offset[f] = 0
        kept.append(k)
    return kept


def subgraph_length(s: TriSurface, sub_edges) -> Fraction:
    """Total length of the edges of the vertex pairs ``sub_edges``, each
    counted once: their grid lengths summed as ints, taken to a
    ``Fraction`` once.  SurfaceError names the first pair that is not an
    edge."""
    grid = s._edge_grid
    return Fraction(sum(grid[e] for e in _edge_set(s, sub_edges)), s._D)


def subgraph_metric_graph(s: TriSurface, sub_edges) -> MetricGraph:
    sub = sorted(_edge_set(s, sub_edges))
    verts = {v for e in sub for v in e}
    es = tuple(Edge(i, u, w, s.edge_lengths[(u, w)]) for i, (u, w) in enumerate(sub))
    return MetricGraph(frozenset(verts), es)


# ---------------------------------------------------------------------------
# file format

def parse_surface(text: str) -> TriSurface:
    faces = []
    lengths = {}
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "TSURF":
        raise SurfaceError("missing TSURF header")
    for raw in lines[1:]:
        parts = raw.split()
        try:
            if parts[0] == "f" and len(parts) == 4:
                faces.append(tuple(int(x) for x in parts[1:]))
            elif parts[0] == "el" and len(parts) == 4:
                lengths[(int(parts[1]), int(parts[2]))] = Fraction(parts[3])
            elif parts[0] == "nv" and len(parts) == 2:
                pass  # informational
            else:
                raise ValueError
        except (ValueError, IndexError, ZeroDivisionError):
            raise SurfaceError(f"malformed surface line: {raw!r}") from None
    return TriSurface.build(faces, lengths)
