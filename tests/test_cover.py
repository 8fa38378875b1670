from fractions import Fraction as F

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_cover_ball, brute_force_cover_nodes,
                      fraction_finite_ball, heap_ball_length,
                      random_bounded_instance)
from coverball import cover, witness
from coverball.graphs import (GraphError, MetricGraph, figure_eight, girth,
                              random_connected, scale, theta_graph,
                              trivalent_reference)


def test_single_loop_grows_linearly():
    g = MetricGraph.build([0], [(0, 0, 0, 1)])
    for R in (F(1, 2), F(3, 2), F(4)):
        assert cover.ball_length(g, 0, R).total_length == 2 * R


def test_theta_matches_brute_force():
    g = theta_graph()
    for R in (F(1, 4), F(1), F(3, 2), F(5, 2), F(4)):
        rep = cover.ball_length(g, 0, R)
        assert not rep.truncated
        assert rep.total_length == brute_force_cover_ball(g, 0, R)


def test_loop_lifts_two_departures():
    g = figure_eight()
    # 4-regular tree with unit edges: ball length 4*(3^m - 1)/... via oracle
    for R in (F(1, 2), F(1), F(2), F(3)):
        assert cover.ball_length(g, 0, R).total_length == \
            brute_force_cover_ball(g, 0, R)


@given(st.integers(2, 5), st.integers(0, 60), st.sampled_from([F(1, 2), F(1), F(2)]))
@settings(max_examples=50, deadline=None)
def test_random_graphs_match_brute_force(b, seed, R):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    base = min(g.vertices)
    assert cover.ball_length(g, base, R).total_length == \
        brute_force_cover_ball(g, base, R)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_trivalent_oracle_equality(b):
    g = trivalent_reference(b)
    for v in sorted(g.vertices):
        for k in range(0, 13):
            R = F(k, 4)
            assert cover.ball_length(g, v, R).total_length == \
                cover.trivalent_tree_ball(R)


def test_trivalent_tree_ball_values():
    assert cover.trivalent_tree_ball(0) == 0
    assert cover.trivalent_tree_ball(1) == 3
    assert cover.trivalent_tree_ball(2) == 9
    assert cover.trivalent_tree_ball(F(5, 2)) == 15


def test_edge_interior_base():
    g = theta_graph()
    e = g.edges[0]
    rep = cover.ball_length(g, (e.id, F(1, 2)), F(1, 4))
    assert rep.total_length == F(1, 2)


def test_monotone_in_radius():
    g = random_connected(3, (F(1, 4), F(1)), 5)
    base = min(g.vertices)
    vals = [cover.ball_length(g, base, F(k, 4)).total_length for k in range(13)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@given(st.integers(2, 5), st.integers(0, 40),
       st.sampled_from([F(1, 3), F(2), F(7, 5)]))
@settings(max_examples=40, deadline=None)
def test_scaling_identity(b, seed, mu):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    base = min(g.vertices)
    R = F(3, 4)
    assert cover.ball_length(scale(g, mu), base, mu * R).total_length == \
        mu * cover.ball_length(g, base, R).total_length


@given(st.integers(2, 5), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_projection_identity_below_half_girth(b, seed):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    base = min(g.vertices)
    R = girth(g) / 2
    assert cover.finite_ball_length(g, base, R) == \
        cover.ball_length(g, base, R).total_length


@given(st.integers(2, 4), st.integers(0, 60), st.integers(0, 2),
       st.sampled_from([F(1), F(3, 2), F(7, 3)]),
       st.sampled_from([6, cover.DEFAULT_BUDGET]))
@settings(max_examples=60, deadline=None)
def test_one_expansion_serves_every_smaller_radius(b, seed, which, R, budget):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    e = g.edges[seed % len(g.edges)]
    base = [min(g.vertices), max(g.vertices), (e.id, e.length / 3)][which]
    full = cover.ball_length(g, base, R, budget)
    # grid radii, and radii whose denominators 7 and 11 are not in the grid
    for r in [R * k / 4 for k in range(5)] + [R / 7, R * 10 / 11]:
        rep = full.at(r)
        assert rep == cover.ball_length(g, base, r, budget)
        if not rep.truncated:
            sub, v = cover._with_base_vertex(g, base)
            assert rep.total_length == brute_force_cover_ball(sub, v, r)
            assert rep.node_count == brute_force_cover_nodes(sub, v, r)
    for r in (R + F(1, 7), F(-1, 7)):
        with pytest.raises(GraphError):
            full.at(r)


@given(st.integers(2, 5), st.integers(0, 60), st.integers(0, 2),
       st.sampled_from([F(1), F(3, 2), F(7, 3)]))
@settings(max_examples=60, deadline=None)
def test_finite_ball_lengths_match_fraction_oracle(b, seed, which, R):
    # each row is an int sum on the grid; the oracle sums covered_length in
    # Fractions over Fraction distances, radius by radius
    g = random_connected(b, (F(1, 4), F(1)), seed)
    e = g.edges[seed % len(g.edges)]
    base = [min(g.vertices), max(g.vertices), (e.id, e.length / 3)][which]
    # grid radii, and radii whose denominators 7 and 11 are not in the grid
    radii = [R * k / 4 for k in range(5)] + [R / 7, R * 10 / 11]
    sub, v = cover._with_base_vertex(g, base)
    assert cover.finite_ball_lengths(g, base, radii) == \
        [fraction_finite_ball(sub, v, r) for r in radii]


def test_finite_ball_counts_only_the_base_component():
    # edges the base does not reach cover nothing, at every radius
    g = MetricGraph.build([0, 1, 2, 3], [(0, 0, 1, F(1, 2)), (1, 1, 0, F(2, 3)),
                                         (2, 2, 3, F(3, 4)), (3, 3, 3, 1)])
    radii = [F(1, 5), F(1, 2), F(7, 11), F(5)]
    got = cover.finite_ball_lengths(g, 0, radii)
    assert got == [fraction_finite_ball(g, 0, r) for r in radii]
    assert got == [F(2, 5), F(1), F(7, 6), F(7, 6)]


@pytest.mark.parametrize("b,seed,budget", [(2, 0, 6), (3, 4, 17), (4, 9, 40),
                                           (5, 2, 25), (3, 11, 9)])
def test_at_reads_around_the_budget_stop(b, seed, budget):
    # a read at r * D = n / q bisects the int keys at ceil and floor of n / q
    # and is truncated iff stop * q < n: read at the stop key, one grid step
    # and a third of a step either side, each against a separate run
    g = random_connected(b, (F(1, 4), F(1)), seed)
    e = g.edges[seed % len(g.edges)]
    for base in (min(g.vertices), (e.id, e.length / 3)):
        full = cover.ball_length(g, base, 4, budget)
        D, stop = full.profile.D, full.profile.stop
        assert full.truncated and stop >= 1
        for x in (stop, stop - 1, stop + 1, stop - F(1, 3), stop + F(1, 3)):
            r = F(x) / D
            rep = full.at(r)
            assert rep == cover.ball_length(g, base, r, budget)
            assert rep.truncated == (x > stop)


def test_budget_truncation_is_flagged_lower_bound():
    g = figure_eight()
    full = cover.ball_length(g, 0, 6)
    cut = cover.ball_length(g, 0, 6, budget=10)
    assert cut.truncated and not full.truncated
    assert cut.total_length <= full.total_length
    # the budget counts expanded states: one unit loop traversal of four
    one = cover.ball_length(g, 0, 6, budget=1)
    assert (one.total_length, one.node_count, one.truncated) == (1, 2, True)


def test_entropy_estimates():
    theta = cover.entropy_estimate(theta_graph(), [F(8), F(10)])
    assert abs(theta[-1]["estimate"] - math.log(2)) < 0.2
    eight = cover.entropy_estimate(figure_eight(), [F(6), F(8)])
    assert abs(eight[-1]["estimate"] - math.log(3)) < 0.3
    loop = cover.entropy_estimate(MetricGraph.build([0], [(0, 0, 0, 1)]),
                                  [F(20), F(40)])
    assert loop[-1]["estimate"] < 0.15


def test_negative_radius_rejected():
    with pytest.raises(GraphError):
        cover.ball_length(theta_graph(), 0, F(-1))


def test_finite_ball_negative_radius_rejected():
    with pytest.raises(GraphError, match="radius must be nonnegative"):
        cover.finite_ball_length(theta_graph(), 0, -1)
    assert cover.finite_ball_length(theta_graph(), 0, 0) == 0


class _Count:
    """An int-like count that is not an int."""

    def __index__(self):
        return 7


@pytest.mark.parametrize("budget", [2.5, F(5, 2), "3", None, True, False, 0,
                                    -1, 1.0], ids=repr)
def test_bad_budget_rejected_by_value(budget):
    """Each entry point that takes a budget refuses one that is not an
    integer of at least 1, naming it; a ``bool`` is not a count."""
    g = theta_graph()
    lam = F(1, 20)
    h = random_bounded_instance(3, lam * 6, 0, denom=64)
    cert = witness.find_witness(h, lam)
    calls = [lambda: cover.ball_length(g, 0, 2, budget),
             lambda: cover.entropy_estimate(g, [1, 2], budget=budget),
             lambda: witness.verify_certificate(h, cert, [1, 2], budget)]
    for call in calls:
        with pytest.raises(GraphError, match=re.escape(repr(budget))):
            call()


def test_budget_taken_through_index():
    g = figure_eight()
    assert cover.ball_length(g, 0, 6, _Count()) == \
        cover.ball_length(g, 0, 6, 7)


@pytest.mark.parametrize("base", [(0, "x"), "0", 0.5, True, (True, F(1, 4)),
                                  (0, "1/0")])
def test_malformed_base_rejected_by_name(base):
    with pytest.raises(GraphError, match=re.escape(repr(base))):
        cover.ball_length(theta_graph(), base, 1)


def _matches_heap_oracle(g, base, R, budget):
    """The report of ``ball_length`` equals the state-by-state heap
    expansion's, profile included."""
    rep = cover.ball_length(g, base, R, budget)
    ref = heap_ball_length(g, base, R, budget)
    assert rep == ref
    p, q = rep.profile, ref.profile
    assert (p.D, p.keys, p.sums, p.stop) == (q.D, q.keys, q.sums, q.stop)
    return rep


def _matches_at_every_budget(g, base, R) -> int:
    """Compare at budgets 1, 2, ... up to one past the states the full
    expansion needs; returns that number of states."""
    budget = 1
    while _matches_heap_oracle(g, base, R, budget).profile.stop is not None:
        budget += 1
    _matches_heap_oracle(g, base, R, budget + 1)
    assert not _matches_heap_oracle(g, base, R, cover.DEFAULT_BUDGET).truncated
    return budget


def _bounded(b, seed):
    g = random_bounded_instance(b, F(1, 4) * (3 * b - 3), seed, denom=16)
    degrees = {g.degree(v) for v in g.vertices}
    assert 1 in degrees and 2 in degrees
    return g


def _leaf(g):
    return min(v for v in g.vertices if g.degree(v) == 1)


def _degree_two(g):
    return min(v for v in g.vertices if g.degree(v) == 2)


_B2, _B3, _B3E, _B4 = (_bounded(2, 0), _bounded(3, 6), _bounded(3, 5),
                       _bounded(4, 6))
# loops (two at 0, one at 2), three parallel 0-1 edges (two of one
# length), a leaf 3 on 1 and a 1-2 edge whose length equals a loop's
_LOOPS_PARALLEL_LEAF = MetricGraph.build([0, 1, 2, 3], [
    (6, 0, 0, F(3, 4)), (0, 0, 0, F(1, 2)), (3, 1, 0, F(1, 2)),
    (5, 0, 1, F(1, 2)), (2, 0, 1, F(2, 3)), (8, 1, 3, F(1, 4)),
    (1, 2, 1, F(3, 4)), (4, 2, 2, F(1, 3))])


@pytest.mark.parametrize("g, base, R", [
    pytest.param(MetricGraph.build([0], [(0, 0, 0, F(1, 3))]), 0, F(5, 2),
                 id="one-loop"),
    pytest.param(MetricGraph.build([0], [(0, 0, 0, 1), (1, 0, 0, F(1, 2)),
                                         (2, 0, 0, F(2, 3))]), 0, F(2),
                 id="three-loops"),
    pytest.param(figure_eight(), 0, F(3), id="figure-eight"),
    pytest.param(theta_graph(), 1, F(4), id="theta"),
    pytest.param(MetricGraph.build([0, 1], [(0, 0, 1, 1), (1, 0, 1, F(1, 2)),
                                            (2, 1, 0, F(3, 4)),
                                            (3, 1, 1, F(1, 4))]), 0, F(5, 2),
                 id="parallel-edges-and-loop"),
    pytest.param(_B2, _leaf(_B2), F(1), id="bounded-b2-leaf"),
    pytest.param(_B3, _degree_two(_B3), F(1), id="bounded-b3-degree-two"),
    pytest.param(_B4, _leaf(_B4), F(5, 7), id="bounded-b4-radius-off-grid"),
    pytest.param(theta_graph(), (1, F(1, 3)), F(5, 2), id="theta-edge-point"),
    pytest.param(_B3E, (_B3E.edges[2].id, _B3E.edges[2].length / 3), F(4, 5),
                 id="bounded-b3-edge-point"),
    # listed in descending id order, all of one length: sorted by length,
    # the states of a key must still be cut in (edge id, direction) order
    pytest.param(MetricGraph.build([0, 1, 2], [(9, 2, 0, 1), (7, 1, 2, 1),
                                               (4, 0, 1, 1), (2, 1, 0, 1),
                                               (1, 2, 2, 1)]), 1, F(3),
                 id="equal-lengths-descending-ids"),
    pytest.param(_LOOPS_PARALLEL_LEAF, 1, F(5, 2),
                 id="loops-parallel-edges-and-leaf"),
    pytest.param(_LOOPS_PARALLEL_LEAF, 3, F(5, 2),
                 id="loops-parallel-edges-and-leaf-at-leaf"),
    pytest.param(_LOOPS_PARALLEL_LEAF, (5, F(1, 3)), F(2),
                 id="loops-parallel-edges-and-leaf-edge-point"),
])
def test_matches_heap_oracle_at_every_budget(g, base, R):
    assert _matches_at_every_budget(g, base, R) > 1


@given(st.integers(2, 5), st.integers(0, 60), st.integers(0, 2),
       st.sampled_from([F(1), F(5, 3), F(5, 2)]),
       st.sampled_from([6, cover.DEFAULT_BUDGET]))
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_heap_oracle(b, seed, which, R, budget):
    g = random_connected(b, (F(1, 4), F(1)), seed)
    e = g.edges[seed % len(g.edges)]
    base = [min(g.vertices), max(g.vertices), (e.id, e.length / 3)][which]
    _matches_heap_oracle(g, base, R, budget)


@pytest.mark.parametrize("b, seed", [(8, 6), (6, 20)])
def test_matches_heap_oracle_at_criterion_02_scale(b, seed):
    """At the witness of a criterion-02 graph and R = 4 mu every key holds
    many states and node counts pass 1000 bits."""
    lam = F(1, 20)
    g = random_bounded_instance(b, lam * (3 * b - 3), seed, denom=64)
    x = witness.find_witness(g, lam).witness
    R = 4 * witness.params_from_lambda(lam).mu
    full = _matches_heap_oracle(g, x, R, cover.DEFAULT_BUDGET)
    assert not full.truncated and full.node_count.bit_length() > 1000
    for budget in (1000, 30000):
        cut = _matches_heap_oracle(g, x, R, budget)
        # one state less stops at the same key, so this budget cuts inside it
        assert cut.profile.stop is not None
        assert cut.profile.stop == \
            cover.ball_length(g, x, R, budget - 1).profile.stop


@pytest.mark.parametrize("R", [6, 10])
def test_matches_heap_oracle_on_sparse_keys(R):
    """Lengths 1, 1 + 10^-12 and 1/3 put the grid at D = 3 * 10^12 steps
    per unit, so pending keys are far apart and K passes 10^13."""
    g = MetricGraph.build([0, 1], [(0, 0, 1, 1), (1, 0, 1, 1 + F(1, 10**12)),
                                   (2, 1, 1, F(1, 3))])
    rep = _matches_heap_oracle(g, 0, R, cover.DEFAULT_BUDGET)
    assert rep.profile.D == 3 * 10**12 and not rep.truncated
