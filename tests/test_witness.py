import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_cover_subtree, cover_distance, random_bounded_instance
from coverball import cover, witness
from coverball.graphs import (GraphError, MetricGraph, delete_edge,
                             is_separating, scale, theta_graph,
                             trivalent_reference)

LAMBDAS = [F(1, 20), F(1, 10), F(1, 6), F(1, 4), F(3, 10)]


def test_params_from_lambda():
    p = witness.params_from_lambda(F(1, 6))
    assert p.c == 1 and p.c_prime == 1 and p.mu == 2
    assert p.lam == p.c / (3 * (p.c_prime + p.c))
    with pytest.raises(GraphError):
        witness.params_from_lambda(F(1, 3))
    with pytest.raises(GraphError):
        witness.params_from_lambda(0)


def test_hypothesis_violation_raises():
    with pytest.raises(GraphError):
        witness.find_witness(theta_graph(), F(1, 6))


def test_scaled_theta_certificate():
    g = scale(theta_graph(), F(1, 6))   # total length 1/2 = (1/6)(3*2-3)
    cert = witness.find_witness(g, F(1, 6))
    assert cert.factor == F(1, 2)
    assert cert.witness in g.vertices
    radii = [F(k, 2) for k in range(1, 9)]
    assert witness.verify_certificate(g, cert, radii)["ok"]


@given(st.integers(2, 8), st.integers(0, 99), st.sampled_from(LAMBDAS))
@settings(max_examples=60, deadline=None)
def test_random_certificates_verify(b, seed, lam):
    g = random_bounded_instance(b, lam * (3 * b - 3), seed)
    cert = witness.find_witness(g, lam)
    assert cert.factor == 1 - 3 * lam
    mu = witness.params_from_lambda(lam).mu
    rep = witness.verify_certificate(g, cert, [mu, 2 * mu])
    assert rep["ok"]


def test_certificate_trace_records_cases():
    g = random_bounded_instance(4, F(1, 6) * 9, 3)
    cert = witness.find_witness(g, F(1, 6))
    assert cert.trace[-1] == "baby-case"


def _thetas_joined_by_a_bridge() -> MetricGraph:
    # two thetas of edge length 1/48; the bridge, edge 6, is the long edge
    t = F(1, 48)
    return MetricGraph.build([0, 1, 2, 3], [
        (0, 0, 1, t), (1, 0, 1, t), (2, 0, 1, t),
        (3, 2, 3, t), (4, 2, 3, t), (5, 2, 3, t), (6, 1, 2, 1)])


def _theta_with_a_loop() -> MetricGraph:
    # a theta of edge length 1/30; the loop, edge 3, is the long edge
    t = F(1, 30)
    return MetricGraph.build([0, 1], [(0, 0, 1, t), (1, 0, 1, t), (2, 0, 1, t),
                                      (3, 0, 0, F(3, 5))])


@pytest.mark.parametrize("make, trace", [
    (_thetas_joined_by_a_bridge, ("split-separating(6,betti=2)", "baby-case")),
    (_theta_with_a_loop, ("remove-nonseparating(3)", "baby-case")),
], ids=["split-separating", "remove-nonseparating"])
def test_certificate_trace_takes_edge_removal_branch(make, trace):
    g = make()
    cert = witness.find_witness(g, F(1, 6))
    assert cert.trace == trace
    assert witness.verify_certificate(g, cert, [2, 4])["ok"]


def _random_multigraph(rng: random.Random) -> MetricGraph:
    """A connected multigraph on up to 7 vertices: a random spanning tree
    plus loops and parallel edges."""
    n = rng.randint(1, 7)
    ends = [(v, rng.randrange(v)) for v in range(1, n)]
    for _ in range(rng.randint(0, 6)):
        r = rng.random()
        if r < 0.3:
            u = rng.randrange(n)
            ends.append((u, u))
        elif r < 0.6 and ends:
            ends.append(rng.choice(ends))       # parallel to an earlier edge
        else:
            ends.append((rng.randrange(n), rng.randrange(n)))
    return MetricGraph.build(range(n), [(i, u, w, F(rng.randint(1, 4), 4))
                                        for i, (u, w) in enumerate(ends)])


def test_is_separating_matches_edge_deletion():
    """``is_separating`` (one search that skips the edge) against deleting
    the edge and testing the rest for connectivity."""
    rng = random.Random(25)
    graphs = [_thetas_joined_by_a_bridge(), _theta_with_a_loop()]
    graphs += [_random_multigraph(rng) for _ in range(300)]
    kinds = set()
    for g in graphs:
        for e in g.edges:
            cut = is_separating(g, e.id)
            assert cut == (not delete_edge(g, e.id).is_connected())
            kinds.add((e.is_loop, cut))
    assert kinds == {(True, False), (False, False), (False, True)}
    with pytest.raises(GraphError, match="^unknown edge id 9$"):
        is_separating(_theta_with_a_loop(), 9)
    apart = MetricGraph.build(range(3), [(0, 0, 1, 1), (1, 0, 0, 1)])
    for eid in (0, 1):
        with pytest.raises(GraphError, match="^is_separating requires a connected graph$"):
            is_separating(apart, eid)


# ---------------------------------------------------------------------------
# the explicit subtree construction

def test_subtree_super_edge_lengths():
    g = trivalent_reference(3)
    c_prime = F(3, 2)
    sw = build_cover_subtree(g, c_prime, depth=3)
    for (_, _, _, length) in sw.super_edges:
        assert c_prime <= length <= c_prime + 1


def test_subtree_is_trivalent_in_counts():
    sw = build_cover_subtree(trivalent_reference(2), F(1), depth=4)
    per_depth = {}
    for d in sw.node_depth:
        per_depth[d] = per_depth.get(d, 0) + 1
    assert per_depth == {0: 1, 1: 3, 2: 6, 3: 12, 4: 24}


def test_subtree_bilipschitz_to_cover():
    g = trivalent_reference(2)
    c_prime = F(1)
    sw = build_cover_subtree(g, c_prime, depth=3)
    # tree distance between nodes i, j in super-edge steps
    import collections
    adj = collections.defaultdict(list)
    for (a, b, _, _) in sw.super_edges:
        adj[a].append(b)
        adj[b].append(a)
    n = len(sw.nodes)
    for i in range(n):
        seen = {i: 0}
        q = collections.deque([i])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen[y] = seen[x] + 1
                    q.append(y)
        for j in range(i + 1, n):
            steps = seen[j]
            d = cover_distance(g, sw.nodes[i], sw.nodes[j])
            assert c_prime * steps <= d <= (c_prime + 1) * steps


def test_verify_reports_failures():
    from coverball.graphs import MetricGraph
    loop = MetricGraph.build([0], [(0, 0, 0, 1)])   # cover is a line: slow growth
    cert = witness.WitnessCertificate(0, F(1, 2), ("baby-case",))
    rep = witness.verify_certificate(loop, cert, [F(2)])
    assert not rep["ok"] and rep["failures"] == 1
