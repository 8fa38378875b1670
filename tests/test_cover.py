from fractions import Fraction as F

import math
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_cover_ball, brute_force_cover_nodes
from coverball import cover
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


def test_budget_truncation_is_flagged_lower_bound():
    g = figure_eight()
    full = cover.ball_length(g, 0, 6)
    cut = cover.ball_length(g, 0, 6, budget=10)
    assert cut.truncated and not full.truncated
    assert cut.total_length <= full.total_length
    # the budget counts expanded states: one unit loop traversal of four
    one = cover.ball_length(g, 0, 6, budget=1)
    assert (one.total_length, one.node_count, one.truncated) == (1, 2, True)


def test_v_prime_dominates_every_vertex():
    g = random_connected(3, (F(1, 4), F(1)), 11)
    R = F(3, 2)
    best = cover.v_prime(g, R, refinement=2)
    for v in g.vertices:
        assert best.total_length >= cover.ball_length(g, v, R).total_length


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
