"""Exact ball lengths in universal covers of metric graphs.

The universal cover of a connected metric graph is a tree whose nodes are
non-backtracking directed edge paths from a base point.  Because subtrees
hanging off equal-distance copies of the same directed edge are isometric,
the shortest-first expansion is run in aggregated form: states are pairs
(directed edge, entry distance) with an exact multiplicity count.  Distances
live on the integer grid of the common length denominator, so the whole
computation is exact.

The expansion is vertex-aggregated.  The paths arriving at a vertex v at
one distance may leave by every edge at v except the reverse of the one
they came by, so the state leaving by s carries the total arriving at v
minus what arrived by the reverse of s.  Each pending distance keeps one
flat row of ints: the arrival count by traversal index, then the arrival
total by vertex rank.  The loop runs over the edges by grid length and
takes both directions of an edge in one step, looking the target row up
once per run of equal lengths.  A ``budget`` counts expanded states in
the order (distance, edge id, direction).  No distance holds more states
than there are traversals, so one lists its states in that order only
when fewer than that many are left in the budget.

The pending distances are sparse on the grid: lengths 1 and 1 + 10^-12
make it 10^12 steps per unit, while the distances reached never outnumber
the states expanded.  So the rows sit in a dict keyed by distance and a
heap of those keys gives the next one; a ring of rows indexed by distance
modulo the longest grid length would be sized by the grid.

One expansion to radius R serves every radius up to R.  The ball length is
piecewise linear in the radius with breakpoints on the grid: it grows with
slope equal to the multiplicity of the states whose edge is still being
covered.  ``ball_length`` keeps those breakpoints with its report, and
``GrowthReport.at(r)`` reads from them the report a separate run to r would
give, truncation under the same budget included.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter, index, mul

from .graphs import Edge, GraphError, MetricGraph, grid_shortest_paths

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class _Profile:
    """Growth of one expansion to key K = R * D on the grid of denominator
    ``D``.

    ``keys`` are the sorted grid keys where a processed state is entered
    (the slope of the total length rises by its multiplicity) or where its
    edge ends (the slope falls and that many nodes are reached; kept only
    up to K).  ``sums[i]`` holds, over ``keys[:i]``, the slope, the sum of
    slope change times key, and the nodes reached, so the total length at
    x is x * slope - weighted over the keys below x.  The heap pops keys in
    order, so when the budget stopped the run at key ``stop``, the processed
    states with key below any x are exactly those a run to x would process.
    ``report`` reads x = r * D = n / q in ints and builds one ``Fraction``,
    the total (n * slope - q * weighted) / (q * D).
    """
    D: int
    keys: list[int]
    sums: list[tuple[int, int, int]]
    stop: int | None

    def report(self, base, r: Fraction) -> "GrowthReport":
        # with x = r * D = n / q: an int key k < x iff k < ceil(x), and
        # k <= x iff k <= floor(x)
        n, q = r.numerator * self.D, r.denominator
        slope, weighted, _ = self.sums[bisect_left(self.keys, -(-n // q))]
        nodes = 1 + self.sums[bisect_right(self.keys, n // q)][2]
        total = Fraction(n * slope - q * weighted, q * self.D)
        truncated = self.stop is not None and self.stop * q < n
        return GrowthReport(base, r, total, nodes, truncated, self)


@dataclass(frozen=True)
class GrowthReport:
    base: object                 # vertex id or (edge id, offset)
    radius: Fraction
    total_length: Fraction
    node_count: int
    truncated: bool
    profile: _Profile = field(compare=False, repr=False)

    def at(self, r: Fraction | int | str) -> "GrowthReport":
        """The report ``ball_length(g, base, r, budget)`` returns, for
        0 <= r <= radius, read from the expansion behind this one; equal
        to it in every field, truncation included.  The read is integer
        sums on the grid with one ``Fraction`` built, the total length."""
        r = Fraction(r)
        if not 0 <= r <= self.radius:
            raise GraphError(f"radius {r} outside [0, {self.radius}]")
        return self.profile.report(self.base, r)


def _count_arg(name: str, value, error: type[ValueError] = GraphError) -> int:
    """``value`` as an int of at least 1, through ``operator.index``: a
    ``bool`` is not a count, and 2.5, "3" or None are refused, not
    converted.  ``error`` names the argument and the value."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__") \
            and index(value) >= 1:
        return index(value)
    raise error(f"{name} {value!r} is not an integer of at least 1")


def _with_base_vertex(g: MetricGraph, base) -> tuple[MetricGraph, int]:
    """Resolve a base point to a vertex, subdividing an edge if needed.
    A ``bool`` is neither a vertex id nor an edge id."""
    if isinstance(base, int) and not isinstance(base, bool):
        if base not in g.vertices:
            raise GraphError(f"unknown base vertex {base}")
        return g, base
    try:
        eid, off = base
        off = Fraction(off)
    except (TypeError, ValueError, ZeroDivisionError):
        eid = None
    if not isinstance(eid, int) or isinstance(eid, bool):
        raise GraphError(f"base {base!r} is neither a vertex id nor an "
                         "(edge id, offset) pair")
    e = g.edge_by_id(eid)
    if not 0 <= off <= e.length:
        raise GraphError("base offset outside edge")
    if off == 0:
        return g, e.u
    if off == e.length:
        return g, e.w
    nv = max(g.vertices) + 1
    ne = g.next_edge_id()
    edges = tuple(x for x in g.edges if x.id != eid) + (
        Edge(ne, e.u, nv, off), Edge(ne + 1, nv, e.w, e.length - off))
    return MetricGraph(g.vertices | {nv}, edges), nv


def ball_length(g: MetricGraph, base, R: Fraction | int | str,
                budget: int = DEFAULT_BUDGET) -> GrowthReport:
    """Exact total length of the radius-R ball around any lift of ``base``.

    Deck transformations act by isometry, so the value does not depend on
    the chosen lift.  Each tree edge entered at distance d contributes
    min(length, R - d).  At most ``budget`` aggregated states are expanded;
    on exhaustion the accumulated value is a certified lower bound and the
    report is flagged truncated.  The report keeps the growth profile of
    the expansion, so ``report.at(r)`` gives the report of a run to any
    0 <= r <= R, with the same budget, without expanding again.
    """
    R = Fraction(R)
    if R < 0:
        raise GraphError("radius must be nonnegative")
    budget = _count_arg("budget", budget)
    if not g.is_connected():
        raise GraphError("ball_length requires a connected graph")
    orig_base = base
    g, base_v = _with_base_vertex(g, base)

    D = math.lcm(*(e.length.denominator for e in g.edges), R.denominator)
    K = R * D
    assert K.denominator == 1
    K = K.numerator
    # edge j in edge-id order is traversal 2j from u to w and 2j + 1 back,
    # so the budget takes the states of one key in traversal order.  A
    # pending key holds one row: the arrival multiplicity by traversal in
    # [0, T), then the arrival total by vertex rank in [T, T + V).  Per
    # edge: (grid length, 2j, 2j + 1, u's column, w's column)
    verts = sorted(g.vertices)
    T = 2 * len(g.edges)
    col = {v: c for c, v in enumerate(verts, T)}
    byid = [(int(e.length * D), 2 * j, 2 * j + 1, col[e.u], col[e.w])
            for j, e in enumerate(sorted(g.edges, key=attrgetter("id")))]
    edges = sorted(byid)
    deg = [g.degree(v) for v in verts]
    width = T + len(verts)
    row = [0] * width
    row[col[base_v]] = 1        # the base has one virtual arrival
    pending = {0: row}
    heap = [0]
    pget = pending.get
    push = heapq.heappush
    cuts = []       # (key, multiplicity entered, multiplicity ended)
    at_K = 0
    slots = 0
    stop = None
    while heap:
        k = heapq.heappop(heap)
        row = pending.pop(k)
        tots = row[T:]
        # a departure s from v carries every arrival at v but the one by
        # its reverse, so v's departures carry deg(v) * total minus v's
        # arrivals; every arrival ends an edge, the base's virtual one not
        n_end = sum(tots) if k else 0
        n_in = sum(map(mul, deg, tots)) - n_end
        if slots + T > budget:
            live = [(m, rs, c) for _, a, b, cu, cw in byid
                    for m, rs, c in ((row[cu] - row[b], b, cu),
                                     (row[cw] - row[a], a, cw)) if m]
            if slots + len(live) > budget:
                # the budget cuts here: keep the first states in order,
                # and make each later one carry nothing by raising its
                # reverse's arrival to its tail's total
                stop = k
                n_in = sum(m for m, _, _ in live[:budget - slots])
                for _, rs, c in live[budget - slots:]:
                    row[rs] = row[c]
        # both directions of an edge in one step, and one target row per
        # run of equal grid lengths; n counts the states that carry paths
        n = T
        run = None
        for L, a, b, cu, cw in edges:
            m1 = row[cu] - row[b]
            m2 = row[cw] - row[a]
            if not (m1 and m2):
                if not (m1 or m2):
                    n -= 2
                    continue
                n -= 1
            if L != run:
                run = L
                k2 = k + L
                r2 = None
                if k2 < K:
                    r2 = pget(k2)
                    if r2 is None:
                        r2 = pending[k2] = [0] * width
                        push(heap, k2)
            if r2:
                r2[a] = m1
                r2[cw] += m1
                r2[b] = m2
                r2[cu] += m2
            elif k2 == K:
                at_K += m1 + m2
        slots += n
        cuts.append((k, n_in, n_end))
        if stop is not None:
            break
    # after a cut, the keys reached but not expanded; then K: edges only
    # end there
    cuts += [(k, 0, sum(pending[k][T:])) for k in sorted(pending)]
    if at_K:
        cuts.append((K, 0, at_K))
    slope = weighted = reached = 0
    sums = [(0, 0, 0)]
    for k, n_in, n_end in cuts:
        slope += n_in - n_end
        weighted += (n_in - n_end) * k
        reached += n_end
        sums.append((slope, weighted, reached))
    return _Profile(D, [c[0] for c in cuts], sums, stop).report(orig_base, R)


def finite_ball_length(g: MetricGraph, base, R: Fraction | int | str) -> Fraction:
    """Total length of the radius-R ball in the graph itself (not the cover),
    measured by the grid distances of ``grid_shortest_paths`` from the base
    (``grid_covered_length``)."""
    return finite_ball_lengths(g, base, [R])[0]


def finite_ball_lengths(g: MetricGraph, base, radii) -> list[Fraction]:
    """``finite_ball_length`` at each radius of ``radii``, in order, all
    read from one shortest-path tree of the base: each row is an integer
    sum over the grid lengths and grid distances, with one ``Fraction``
    per radius."""
    radii = [Fraction(R) for R in radii]
    if any(R < 0 for R in radii):
        raise GraphError("radius must be nonnegative")
    g, base_v = _with_base_vertex(g, base)
    D = g.int_grid()[0]
    dist, _ = grid_shortest_paths(g, base_v)
    # an edge out of the base's reach covers nothing
    edges = [(e.length.numerator * (D // e.length.denominator),
              dist[e.u], dist[e.w]) for e in g.edges if e.u in dist]
    return [grid_covered_length(edges, D, R) for R in radii]


def grid_covered_length(edges, D: int, R: Fraction) -> Fraction:
    """The total length within R of a base of ``edges``, each given on the
    integer grid of denominator ``D`` as (grid length l, grid distances du
    and dw of its ends from the base).  An edge is covered R - d in from
    each end within R, and never more than whole.  With R * D = n / q that
    is min(l * q, max(n - du * q, 0) + max(n - dw * q, 0)) in units of
    1 / (q * D), so the sum is taken in ints and R need not lie on the
    grid; one ``Fraction`` is built, for the total."""
    n, q = R.numerator * D, R.denominator
    total = 0
    for l, du, dw in edges:
        lq = l * q
        a = n - du * q
        b = n - dw * q
        c = (a if a > 0 else 0) + (b if b > 0 else 0)
        total += lq if c > lq else c
    return Fraction(total, q * D)


def trivalent_tree_ball(R: Fraction | int | str) -> Fraction:
    """Ball length at a vertex of the unit trivalent tree:
    3(2^m - 1) + 3(R - m)2^m with m the integer part of R."""
    R = Fraction(R)
    if R < 0:
        raise GraphError("radius must be nonnegative")
    m = int(R)
    return 3 * (2**m - 1) + 3 * (R - m) * 2**m


def hyperbolic_ball_area(R: float) -> float:
    """Area of a radius-R disk in the hyperbolic plane: 2*pi*(cosh R - 1).
    ``math.inf`` when cosh R overflows: the area then exceeds every float."""
    if R < 0:
        raise GraphError("radius must be nonnegative")
    try:
        return 2.0 * math.pi * (math.cosh(R) - 1.0)
    except OverflowError:
        return math.inf


def entropy_estimate(g: MetricGraph, radii, base=None,
                     budget: int = DEFAULT_BUDGET) -> list[dict]:
    """log(ball length)/R for each R; values reported as-is, no limit claimed.

    One expansion to the largest radius gives every row through
    ``GrowthReport.at``."""
    if base is None:
        base = min(g.vertices)
    radii = [Fraction(R) for R in radii]
    if not radii:
        raise GraphError("entropy needs at least one positive radius")
    if min(radii) <= 0:
        raise GraphError("entropy radii must be positive")
    growth = ball_length(g, base, max(radii), budget)
    out = []
    for R in radii:
        rep = growth.at(R)
        if rep.total_length > 0:
            val = (math.log(rep.total_length.numerator)
                   - math.log(rep.total_length.denominator)) / float(R)
        else:
            val = float("-inf")
        out.append({"R": R, "estimate": val, "truncated": rep.truncated})
    return out
