"""Nerve graphs of ball packings and the surface-to-graph pipeline.

A maximal system of disjoint radius-r0 balls gives a nerve graph with
quarter-length edges mapping into the surface by shortest paths; pruning
it to a homology isomorphism bounds the minimal capturing length.  The
pipeline chains this bound through the witness-vertex machinery down to
the hyperbolic-area comparison, reporting every inequality as a margin.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import cover, surfballs, witness
from .graphs import (Edge, MetricGraph, betti, girth,
                     grid_shortest_paths, induced_subgraph, scale, tree_path)
from .surface import (SurfaceError, TriSurface, _pair, capturing_test,
                      prune_pieces, subgraph_length, subgraph_metric_graph)

DEFAULT_R0 = Fraction(1, 32)
DEFAULT_EPS = Fraction(1, 64)


@dataclass
class NerveReport:
    r0: Fraction
    eps: Fraction
    centers: list[int]
    nerve: MetricGraph
    phi_paths: dict[tuple[int, int], list[int]]     # nerve edge -> vertex path
    center_distances: dict[tuple[int, int], Fraction]
    ball_areas: list[float]
    precondition_ok: bool                           # every r0-ball area >= r0^2/4
    packing_bound_ok: bool                          # |I| <= 2^12 * area
    non_expansion_ok: bool                          # every phi path <= 1/4
    image_captures: bool = False
    image_rank: int = 0
    pruned_nerve_edges: list[tuple[int, int]] = field(default_factory=list)
    pruned_image_edges: set = field(default_factory=set)
    pruned_length: Fraction = Fraction(0)           # length of the pruned nerve
    length_bound_ok: bool = False                   # length <= (v-1+2g)/4
    checks: dict = field(default_factory=dict)


def _farthest_point_packing(s: TriSurface, separation: int, reach: int
                            ) -> tuple[list[int], dict, dict]:
    """The centers, in the order they are picked, and each center's grid
    (dist, parent) maps, exact up to ``reach``; see ``nerve_graph``."""
    mind = dict.fromkeys(s.vertices, math.inf)
    far_heap = [(-math.inf, v) for v in sorted(s.vertices)]    # a heap
    centers = []
    dists, parents = {}, {}
    while True:
        negd, far = far_heap[0]
        if -negd != mind[far]:
            heapq.heappop(far_heap)     # stale: mind[far] has fallen since
            continue
        if -negd <= separation:
            return centers, dists, parents
        centers.append(far)
        dists[far], parents[far] = grid_shortest_paths(s, far, reach, mind)
        for v, d in dists[far].items():
            if d < mind[v]:
                mind[v] = d
                heapq.heappush(far_heap, (-d, v))


def nerve_graph(s: TriSurface, r0: Fraction | str = DEFAULT_R0,
                eps: Fraction | str = DEFAULT_EPS) -> NerveReport:
    """Greedy farthest-point packing and its nerve, with all side checks.

    Centers are vertices at pairwise distance > 2*r0 such that every vertex
    lies within 2*r0 of a center; nerve edges join centers at distance at
    most 4*r0 + 2*eps (``reach``) and carry length 1/4.  The packing runs
    on the surface's integer grid (``TriSurface.int_grid``).  Each next
    center is the farthest point (Gonzalez): the vertex of largest distance
    mind to the centers so far, the least one on ties, read off a lazy
    max-heap of (-mind, v) that takes a new entry whenever mind falls.  Its
    shortest-path tree runs to ``reach`` and, past it, only as far as it
    brings vertices closer than mind: mind is 1-Lipschitz, so a vertex the
    new center does not bring closer shields every vertex behind it.  So
    mind is exact, and each tree is exact up to reach, which is all that
    the packing distances, the phi path of every nerve edge and the
    center's r0-ball read.  Only the reported center distances become
    ``Fraction``s.

    One ``capturing_test`` decides whether the image captures and gives its
    rank.  ``prune_pieces`` then drops nerve edges in sorted order, each
    piece being the surface edges of one phi path, while the image still
    captures; it tests each drop on the dual side, without a rank.  On
    genus >= 1 the empty image never captures, so the last nerve edge
    stays; on a sphere the empty nerve captures and every edge goes.
    """
    r0 = Fraction(r0)
    eps = Fraction(eps)
    if r0 <= 0 or eps <= 0:
        raise SurfaceError("r0 and eps must be positive")
    if 4 * r0 + 2 * eps >= Fraction(1, 4):
        raise SurfaceError("slack constraint violated: need 4*r0 + 2*eps < 1/4")

    D = s.int_grid()[0]
    separation = math.floor(2 * r0 * D)
    reach = math.floor((4 * r0 + 2 * eps) * D)
    centers, dists, parents = _farthest_point_packing(s, separation, reach)

    # each center's tree gives the later centers within reach, by index, so
    # the edges come in (i, j) order with no pass over every pair; the key
    # views intersect over the smaller of the tree and the later centers
    later = {c: i for i, c in enumerate(centers)}
    cdist = {}
    phi = {}
    nerve_edges = []
    for i, c in enumerate(centers):
        del later[c]
        dist = dists[c]
        for j in sorted(later[v] for v in dist.keys() & later.keys()
                        if dist[v] <= reach):
            cdist[(i, j)] = Fraction(dist[centers[j]], D)
            phi[(i, j)] = tree_path(parents[c], centers[j])
            nerve_edges.append((i, j))

    quarter = Fraction(1, 4)
    nerve = MetricGraph(frozenset(range(len(centers))),
                        tuple(Edge(k, i, j, quarter)
                              for k, (i, j) in enumerate(nerve_edges)))

    # the face set surfballs.ball(s, p, r0) builds, in the same order
    radius = math.floor(r0 * D)
    face_areas = s.face_areas()
    areas = []
    for p in centers:
        inside = {v for v, d in dists[p].items() if d <= radius}
        areas.append(sum(face_areas[i]
                         for i in surfballs._ball_faces(s, inside)))
    min_area = float(r0) ** 2 / 4.0
    precondition_ok = all(a >= min_area for a in areas)
    total = s.total_area()
    packing_ok = len(centers) <= (1 << 12) * total
    non_exp = all(cdist[e] <= quarter for e in nerve_edges)

    def image_of(edge_subset):
        out = set()
        for e in edge_subset:
            path = phi[e]
            out |= {_pair(a, b) for a, b in zip(path, path[1:])}
        return out

    image = image_of(nerve_edges)
    captures, rank = capturing_test(s, image)
    rep = NerveReport(r0, eps, centers, nerve, phi, cdist, areas,
                      precondition_ok, packing_ok, non_exp,
                      image_captures=captures, image_rank=rank)

    if captures:
        kept = prune_pieces(s, [image_of([e]) for e in nerve_edges])
        pruned = [nerve_edges[k] for k in kept]
        rep.pruned_nerve_edges = pruned
        rep.pruned_image_edges = image_of(pruned)
        rep.pruned_length = quarter * len(pruned)
        bound = Fraction(len(centers) - 1 + 2 * s.genus, 4)
        rep.length_bound_ok = rep.pruned_length <= bound
        rep.checks["length_bound"] = {"length": rep.pruned_length, "bound": bound}
    rep.checks["packing"] = {"count": len(centers),
                             "area_bound": (1 << 12) * total}
    rep.checks["genus_count_bound"] = {
        "count": len(centers), "bound": 2 * s.genus - 1,
        "ok": len(centers) <= 2 * s.genus - 1}
    return rep


# ---------------------------------------------------------------------------
# closed-form anchors

def hyperbolic_area_lower_bound(R: float) -> float:
    """(1/(4*pi*ln2)) * V_H2(R*ln2), the target area bound."""
    return cover.hyperbolic_ball_area(R * math.log(2)) / (4.0 * math.pi * math.log(2))


def coarea_closed_form(R: float) -> float:
    """(1/2) * integral_0^R sinh(r ln2) dr, evaluated exactly; ``math.inf``
    when cosh overflows, since the integral then exceeds every float."""
    try:
        return (math.cosh(R * math.log(2)) - 1.0) / (2.0 * math.log(2))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# the staged pipeline

def surface_growth_pipeline(s: TriSurface, r_grid: int = 8,
                            budget: int = cover.DEFAULT_BUDGET) -> dict:
    """Run the whole surface-to-growth chain, reporting each inequality.

    Every stage is diagnostic: hypothesis failures are recorded and the
    remaining stages still run, since the constructed capturing graph is
    only approximately minimal anyway.  ``r_grid`` and ``budget`` are
    checked before any stage runs, by ``ball_length``'s budget rule.  Each
    ball-domination row reads the surface's kept grid tree of u (the
    witness, or gamma's least vertex) through ``surfballs.ball``, whose
    face set ``surfballs.fill_to_bplus`` fills to B+, and its ball in gamma
    from one grid tree of u in gamma, built once for all rows
    (``cover.finite_ball_lengths``).  Only B+'s boundary is built, for its
    length.  The rows' lengths are integer sums on the grid with one
    ``Fraction`` per reported value: B+'s boundary (``subgraph_length``),
    gamma inside the ball and gamma's own ball
    (``cover.grid_covered_length``) and the cover ball
    (``GrowthReport.at``).  The coarea stage sums the face areas of the
    last row's ball, unfilled, in the face set's order.
    """
    r_grid = cover._count_arg("r_grid", r_grid, SurfaceError)
    budget = cover._count_arg("budget", budget, SurfaceError)
    g = s.genus
    report: dict = {"genus": g, "stages": []}
    area = s.total_area()
    hyp_area = 4.0 * math.pi * max(g - 1, 0)      # Gauss-Bonnet at genus g
    sys_len = None
    if g >= 1:
        try:
            sys_len, _ = surfballs.systole(s)
        except SurfaceError as exc:
            report["stages"].append({"stage": "systole", "status": "skipped",
                                     "reason": str(exc)})
    area_ok = g >= 2 and area <= (2 * g - 1) / float(1 << 12)
    sys_ok = sys_len is not None and sys_len >= Fraction(1, 2)
    report["stages"].append({
        "stage": "hypotheses", "area": area, "hyperbolic_area": hyp_area,
        "area_bound": (2 * g - 1) / float(1 << 12) if g >= 1 else 0.0,
        "area_ok": area_ok, "systole": sys_len, "systole_ok": sys_ok,
        "status": "pass" if (area_ok and sys_ok) else "hypothesis failed",
    })

    # capturing graph
    if g < 1:
        report["stages"].append({"stage": "capture", "status": "skipped",
                                 "reason": "genus 0 has trivial homology"})
        return report
    image_edges = None
    try:
        nrep = nerve_graph(s)
        if nrep.pruned_image_edges:
            image_edges = nrep.pruned_image_edges
        report["stages"].append({
            "stage": "nerve", "centers": len(nrep.centers),
            "precondition_ok": nrep.precondition_ok,
            "packing_bound_ok": nrep.packing_bound_ok,
            "non_expansion_ok": nrep.non_expansion_ok,
            "image_captures": nrep.image_captures,
            "length_bound_ok": nrep.length_bound_ok,
            "pruned_length": nrep.pruned_length,
            "status": "pass" if nrep.image_captures else "capture failed",
        })
    except SurfaceError as exc:
        report["stages"].append({"stage": "nerve", "status": "failed",
                                 "reason": str(exc)})
    if image_edges is None:
        length, image_edges = surfballs.capture_length(s, "greedy")
        report["stages"].append({"stage": "greedy-capture", "length": length,
                                 "status": "pass"})
    cap_len = subgraph_length(s, image_edges)
    length_bound = Fraction(2 * g - 1, 2)
    report["stages"].append({
        "stage": "length-bound", "length": cap_len, "bound": length_bound,
        "ok": cap_len <= length_bound,
        "status": "pass" if cap_len <= length_bound else "fail",
    })

    gamma = subgraph_metric_graph(s, image_edges)
    comp = max(gamma.components(), key=len)
    if len(comp) < len(gamma.vertices):
        gamma = induced_subgraph(gamma, comp)
    b = betti(gamma)
    lam = Fraction(1, 6)
    hyp_len = lam * (3 * b - 3)
    scaled_by = Fraction(1)
    work = gamma
    if b >= 2 and gamma.total_length() > hyp_len:
        # diagnostic rescale so the witness machinery can still run
        scaled_by = hyp_len / gamma.total_length()
        work = scale(gamma, scaled_by)
    if b < 2:
        report["stages"].append({"stage": "witness", "status": "skipped",
                                 "reason": "captured graph has Betti < 2"})
        u = min(gamma.vertices)
        cert = None
    else:
        cert = witness.find_witness(work, lam)
        u = cert.witness
        report["stages"].append({
            "stage": "witness", "witness": u, "betti": b,
            "scaled_by": scaled_by, "factor": cert.factor,
            "status": "pass" if scaled_by == 1 else "hypothesis failed (rescaled)",
        })

    # boundary domination and projection identities on an R grid
    sys_cap = sys_len if sys_len is not None else Fraction(1)
    rmax = sys_cap / 2
    gamma_girth = girth(gamma)
    D = s.int_grid()[0]
    grid_u = s.tree(u)[0]
    # every image edge, in or out of gamma's largest component, as (grid
    # length, grid distances of its ends from u on the surface)
    grid = s._edge_grid
    image_grid = [(grid[e], grid_u[e[0]], grid_u[e[1]]) for e in image_edges]
    cover_growth = cover.ball_length(gamma, u, rmax, budget)
    radii = [rmax * k / r_grid for k in range(1, r_grid + 1)]
    rows = []
    for r, gball in zip(radii, cover.finite_ball_lengths(gamma, u, radii)):
        ball = surfballs.ball(s, u, r)
        bplus = surfballs.fill_to_bplus(s, ball)
        boundary = subgraph_length(s, surfballs._boundary_edges(s, bplus))
        # portion of the capturing graph inside the surface ball, with
        # partial edges measured by surface distances from u
        gamma_cap = cover.grid_covered_length(image_grid, D, r)
        cover_ball = cover_growth.at(r)
        proj_exact = (r <= gamma_girth / 2)
        # boundary domination is only argued for contractible filled balls:
        # check that B+ is a single disk (one piece, F - J + C = 1)
        pieces = surfballs._face_pieces(s, bplus)
        contractible = len(pieces) == 1 and pieces[0][1] == 1
        rows.append({
            "R": r,
            "boundary_length": boundary,
            "gamma_in_ball": gamma_cap,
            "boundary_margin": boundary - gamma_cap,
            "gamma_ball": gball,
            "containment_margin": gamma_cap - gball,
            "cover_ball": cover_ball.total_length,
            "projection_exact": (gball == cover_ball.total_length) if proj_exact else None,
            "truncated": cover_ball.truncated,
            "contractible": contractible,
        })
    live = [row for row in rows if row["contractible"]]
    boundary_ok = all(row["boundary_margin"] >= 0 for row in live)
    containment_ok = all(row["containment_margin"] >= 0 for row in rows)
    projection_ok = all(row["projection_exact"] in (True, None) for row in rows)
    report["stages"].append({
        "stage": "ball-domination", "rows": rows, "rmax": rmax,
        "boundary_ok": boundary_ok, "containment_ok": containment_ok, "projection_ok": projection_ok,
        "status": "pass" if (boundary_ok and containment_ok and projection_ok) else "fail",
    })

    # coarea: integrate boundary lengths by trapezoid and compare targets
    rs = [Fraction(0)] + [row["R"] for row in rows]
    bs = [Fraction(0)] + [row["boundary_length"] for row in rows]
    integral = sum((rs[i + 1] - rs[i]) * (bs[i] + bs[i + 1]) / 2
                   for i in range(len(rs) - 1))
    R_final = float(rs[-1])
    areas = s.face_areas()
    ball_area_val = sum(areas[i] for i in ball)     # the last row's ball, unfilled
    target = hyperbolic_area_lower_bound(R_final)
    report["stages"].append({
        "stage": "coarea", "R": rs[-1],
        "integral": integral, "ball_area": ball_area_val,
        "target": target,
        "area_vs_target_margin": ball_area_val - target,
        "closed_form": coarea_closed_form(R_final),
        "status": "pass" if ball_area_val >= target else "inconclusive",
    })
    if ball_area_val < target:      # the inner ball's area is a lower bound
        report["stages"][-1]["reason"] = surfballs.LOW_INNER_AREA
    return report
