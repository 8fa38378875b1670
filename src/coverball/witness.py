"""Witness vertices with guaranteed cover-ball growth.

Given a connected metric graph whose total length is at most
lambda * (3b - 3), produces a vertex whose cover balls dominate
(1 - 3*lambda) times the unit trivalent tree reference at every radius,
together with a recursion trace and a verification routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cover
from .graphs import (GraphError, MetricGraph, betti, delete_edge,
                     induced_subgraph, reduce_graph, is_separating, scale)


class TheoremViolation(AssertionError):
    """A step the underlying theorem guarantees has failed: implementation bug."""


@dataclass(frozen=True)
class WitnessParams:
    lam: Fraction
    c: Fraction
    c_prime: Fraction
    mu: Fraction          # scale applied before the recursion

    def __post_init__(self):
        if self.lam != self.c / (3 * (self.c_prime + self.c)):
            raise GraphError("inconsistent witness parameters")
        if self.mu <= 0:
            raise GraphError("scale factor must be positive")


@dataclass(frozen=True)
class WitnessCertificate:
    witness: int                       # vertex id in the original graph
    factor: Fraction                   # 1 - 3*lambda
    trace: tuple[str, ...]

    def __post_init__(self):
        if not 0 < self.factor < 1:
            raise GraphError("certificate factor outside (0,1)")


def params_from_lambda(lam: Fraction | int | str) -> WitnessParams:
    lam = Fraction(lam)
    if not 0 < lam < Fraction(1, 3):
        raise GraphError("lambda must lie in (0, 1/3)")
    c = Fraction(1)
    c_prime = 1 / (3 * lam) - 1
    # scaling by c_prime + c = 1/(3*lambda) turns the hypothesis
    # length <= lambda*(3b-3) into length <= c*(b-1)
    return WitnessParams(lam, c, c_prime, c_prime + c)


def find_witness(g: MetricGraph, lam: Fraction | int | str) -> WitnessCertificate:
    lam = Fraction(lam)
    params = params_from_lambda(lam)
    if not g.is_connected():
        raise GraphError("find_witness requires a connected graph")
    b = betti(g)
    if b < 2:
        raise GraphError("find_witness requires first Betti number >= 2")
    if g.total_length() > lam * (3 * b - 3):
        raise GraphError("hypothesis violated: total length exceeds lambda*(3b-3)")

    c = params.c
    trace: list[str] = []
    cur = scale(g, params.mu)
    if cur.total_length() > c * (betti(cur) - 1):
        raise TheoremViolation("scaled hypothesis must hold")

    while True:
        reduced, _ = reduce_graph(cur)
        if len(reduced.edges) != len(cur.edges):
            trace.append("reduce")
        cur = reduced
        bc = betti(cur)
        if bc < 2:
            raise TheoremViolation("Betti number dropped below 2")
        long_edges = [e for e in cur.edges if e.length > c]
        if not long_edges:
            trace.append("baby-case")
            witness = min(cur.vertices)
            break
        w = sorted(long_edges, key=lambda e: (-e.length, e.id))[0]
        if not is_separating(cur, w.id):
            nxt = delete_edge(cur, w.id)
            if nxt.total_length() > c * (betti(nxt) - 1):
                raise TheoremViolation("non-separating branch length claim failed")
            trace.append(f"remove-nonseparating({w.id})")
            cur = nxt
        else:
            without = delete_edge(cur, w.id)
            comps = without.components()
            if len(comps) != 2:
                raise TheoremViolation("separating edge must leave two components")
            sides = [induced_subgraph(without, comp) for comp in comps]
            ok = []
            for s in sides:
                bs = betti(s)
                if s.total_length() <= c * (bs - 1):
                    ok.append((bs, min(s.vertices), s))
            if not ok:
                raise TheoremViolation("separating-side length claim failed")
            ok.sort(key=lambda t: (t[0], t[1]))
            bs, _, side = ok[0]
            if bs < 2:
                raise TheoremViolation("kept side must have Betti >= 2")
            trace.append(f"split-separating({w.id},betti={bs})")
            cur = side

    if witness not in g.vertices:
        raise TheoremViolation("witness did not pull back to the original graph")
    return WitnessCertificate(witness, 1 - 3 * lam, tuple(trace))


def verify_certificate(g: MetricGraph, cert: WitnessCertificate, radii,
                       budget: int = cover.DEFAULT_BUDGET) -> dict:
    """Check ball_length(g, witness, R) >= factor * trivalent_tree_ball(R)
    on each grid radius.  One expansion to the largest radius serves them
    all: each row reads its report with ``GrowthReport.at``, which equals a
    separate run to that radius under the same budget.  Truncated points
    where the certified lower bound already clears the target still pass;
    otherwise they are inconclusive."""
    radii = [Fraction(R) for R in radii]
    if not radii:
        raise GraphError("verify_certificate needs at least one radius")
    growth = cover.ball_length(g, cert.witness, max(radii), budget)
    rows = []
    failures = 0
    for R in radii:
        rep = growth.at(R)
        target = cert.factor * cover.trivalent_tree_ball(R)
        if rep.total_length >= target:
            status = "pass"
        elif rep.truncated:
            status = "inconclusive"
        else:
            status = "fail"
            failures += 1
        rows.append({
            "R": R,
            "ball_length": rep.total_length,
            "target": target,
            "margin": rep.total_length - target,
            "truncated": rep.truncated,
            "status": status,
        })
    return {"witness": cert.witness, "factor": cert.factor,
            "failures": failures, "rows": rows, "ok": failures == 0}
