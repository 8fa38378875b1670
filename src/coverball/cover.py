"""Exact ball lengths in universal covers of metric graphs.

The universal cover of a connected metric graph is a tree whose nodes are
non-backtracking directed edge paths from a base point.  Because subtrees
hanging off equal-distance copies of the same directed edge are isometric,
the shortest-first expansion is run in aggregated form: states are pairs
(directed edge, entry distance) with an exact multiplicity count.  Distances
live on the integer grid of the common length denominator, so the whole
computation is exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .graphs import Edge, GraphError, MetricGraph, shortest_paths

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class GrowthReport:
    base: object                 # vertex id or (edge id, offset)
    radius: Fraction
    total_length: Fraction
    node_count: int
    truncated: bool

    def as_dict(self) -> dict:
        return {
            "base": self.base if isinstance(self.base, int) else list(map(str, self.base)),
            "radius": str(self.radius),
            "total_length": str(self.total_length),
            "total_length_float": float(self.total_length),
            "node_count": self.node_count,
            "truncated": self.truncated,
        }


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _with_base_vertex(g: MetricGraph, base) -> tuple[MetricGraph, int]:
    """Resolve a base point to a vertex, subdividing an edge if needed."""
    if isinstance(base, int):
        if base not in g.vertices:
            raise GraphError(f"unknown base vertex {base}")
        return g, base
    eid, off = base
    off = Fraction(off)
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


def ball_length(g: MetricGraph, base, R: Fraction | int | str,
                budget: int = DEFAULT_BUDGET) -> GrowthReport:
    """Exact total length of the radius-R ball around any lift of ``base``.

    Deck transformations act by isometry, so the value does not depend on
    the chosen lift.  Each tree edge entered at distance d contributes
    min(length, R - d).  On budget exhaustion the accumulated value is a
    certified lower bound and the report is flagged truncated.
    """
    R = Fraction(R)
    if R < 0:
        raise GraphError("radius must be nonnegative")
    if not g.is_connected():
        raise GraphError("ball_length requires a connected graph")
    orig_base = base
    g, base_v = _with_base_vertex(g, base)
    if R == 0 or not g.edges:
        return GrowthReport(orig_base, R, Fraction(0), 1, False)

    D = reduce(_lcm, [e.length.denominator for e in g.edges] + [R.denominator])
    K = R * D
    assert K.denominator == 1
    K = K.numerator
    _, length, departures, nxt = _transitions(g)
    ilen = {t: int(length[t] * D) for t in length}

    pending: dict[int, dict[tuple[int, int], int]] = {0: {}}
    for t in departures[base_v]:
        pending[0][t] = pending[0].get(t, 0) + 1
    keys = [0]
    total = 0            # in 1/D units
    nodes = 1            # root
    slots = 0
    truncated = False
    while keys:
        k = heapq.heappop(keys)
        batch = pending.pop(k, None)
        if batch is None:
            continue
        for t, mult in sorted(batch.items()):
            if slots >= budget:
                truncated = True
                break
            slots += 1
            l = ilen[t]
            total += mult * min(l, K - k)
            k2 = k + l
            if k2 < K:
                nodes += mult
                for s in nxt[t]:
                    tgt = pending.get(k2)
                    if tgt is None:
                        tgt = pending[k2] = {}
                        heapq.heappush(keys, k2)
                    tgt[s] = tgt.get(s, 0) + mult
            elif k2 == K:
                nodes += mult
        if truncated:
            break
    return GrowthReport(orig_base, R, Fraction(total, D), nodes, truncated)


def finite_ball_length(g: MetricGraph, base, R: Fraction | int | str) -> Fraction:
    """Total length of the radius-R ball in the graph itself (not the cover),
    measured by shortest-path distances."""
    R = Fraction(R)
    g, base_v = _with_base_vertex(g, base)
    dist, _ = shortest_paths(g, base_v)
    total = Fraction(0)
    for e in g.edges:
        du = dist.get(e.u)
        dw = dist.get(e.w)
        if e.is_loop:
            if du is not None:
                total += min(e.length, 2 * max(Fraction(0), R - du))
            continue
        cov = Fraction(0)
        if du is not None:
            cov += max(Fraction(0), R - du)
        if dw is not None:
            cov += max(Fraction(0), R - dw)
        total += min(e.length, cov)
    return total


def trivalent_tree_ball(R: Fraction | int | str) -> Fraction:
    """Ball length at a vertex of the unit trivalent tree:
    3(2^m - 1) + 3(R - m)2^m with m the integer part of R."""
    R = Fraction(R)
    if R < 0:
        raise GraphError("radius must be nonnegative")
    m = int(R)
    return 3 * (2**m - 1) + 3 * (R - m) * 2**m


def v_prime(g: MetricGraph, R: Fraction | int | str, refinement: int = 0,
            budget: int = DEFAULT_BUDGET) -> GrowthReport:
    """Maximum ball length over all vertices plus ``refinement`` equally
    spaced interior points per edge: a certified lower bound for the
    supremum over the whole cover."""
    R = Fraction(R)
    if refinement < 0:
        raise GraphError("refinement must be nonnegative")
    bases: list[object] = sorted(g.vertices)
    for e in sorted(g.edges, key=lambda e: e.id):
        for j in range(1, refinement + 1):
            bases.append((e.id, e.length * j / (refinement + 1)))
    best: GrowthReport | None = None
    truncated = False
    for b in bases:
        rep = ball_length(g, b, R, budget)
        truncated = truncated or rep.truncated
        if best is None or rep.total_length > best.total_length:
            best = rep
    assert best is not None
    return GrowthReport(best.base, R, best.total_length, best.node_count, truncated)


def hyperbolic_ball_area(R: float) -> float:
    """Area of a radius-R disk in the hyperbolic plane: 2*pi*(cosh R - 1)."""
    if R < 0:
        raise GraphError("radius must be nonnegative")
    return 2.0 * math.pi * (math.cosh(R) - 1.0)


def entropy_estimate(g: MetricGraph, radii, base=None,
                     budget: int = DEFAULT_BUDGET) -> list[dict]:
    """log(ball length)/R for each R; values reported as-is, no limit claimed."""
    if base is None:
        base = min(g.vertices)
    out = []
    for R in radii:
        R = Fraction(R)
        if R <= 0:
            raise GraphError("entropy radii must be positive")
        rep = ball_length(g, base, R, budget)
        if rep.total_length > 0:
            val = (math.log(rep.total_length.numerator)
                   - math.log(rep.total_length.denominator)) / float(R)
        else:
            val = float("-inf")
        out.append({"R": R, "estimate": val, "truncated": rep.truncated})
    return out
