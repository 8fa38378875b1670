import dataclasses
import math
import re
from fractions import Fraction as F
from importlib import resources

import pytest

from conftest import (NERVE_PACK_MESHES, _count_calls, area_shrink_factor,
                      boundary_edges_of, bplus_oracle, corpus_surface,
                      covered_length, face_set_area, faces_with_all_corners_in,
                      farthest_point_packing, is_disk_oracle,
                      pairwise_nerve_edges, relabeled, rescaling_lambda_search,
                      shrink_factor_grid_check, tetrahedron)
from coverball import cover, fixtures, nerve, surfballs
from coverball.surface import (SurfaceError, TriSurface, _pair, capturing_test,
                               parse_surface, subgraph_length)


@pytest.fixture(scope="module")
def small_torus():
    # edges 1/64: per-ball precondition holds at r0 = 1/32
    return fixtures.scale_surface(fixtures.subdivide(fixtures.torus7(), 4),
                                  F(1, 4))


@pytest.fixture(scope="module")
def small_torus_nerve(small_torus):
    return nerve.nerve_graph(small_torus)


def test_slack_constraint_enforced():
    with pytest.raises(SurfaceError):
        nerve.nerve_graph(fixtures.torus7(), r0=F(1, 16), eps=F(1, 64))
    with pytest.raises(SurfaceError):
        nerve.nerve_graph(fixtures.torus7(), r0=F(-1, 32))


def test_packing_is_separated_and_covering(small_torus, small_torus_nerve):
    rep = small_torus_nerve
    d = {c: small_torus.distances_from(c) for c in rep.centers}
    for i, a in enumerate(rep.centers):
        for b in rep.centers[i + 1:]:
            assert d[a][b] > 2 * rep.r0
    for v in small_torus.vertices:
        assert min(d[c][v] for c in rep.centers) <= 2 * rep.r0


def test_nerve_checks_pass(small_torus, small_torus_nerve):
    rep = small_torus_nerve
    assert rep.precondition_ok
    assert rep.packing_bound_ok
    assert rep.non_expansion_ok
    assert rep.image_captures
    assert rep.image_rank == 2
    assert rep.length_bound_ok
    # pruned nerve is a homology isomorphism of the expected rank
    ok, rank = capturing_test(small_torus, rep.pruned_image_edges)
    assert ok and rank == 2


def test_nerve_edge_lengths_quarter(small_torus_nerve):
    rep = small_torus_nerve
    assert all(e.length == F(1, 4) for e in rep.nerve.edges)
    for e, d in rep.center_distances.items():
        assert d <= 4 * rep.r0 + 2 * rep.eps


def test_phi_paths_are_shortest_skeleton_walks(small_torus, small_torus_nerve):
    rep = small_torus_nerve
    assert set(rep.phi_paths) == set(rep.center_distances)
    for (i, j), path in rep.phi_paths.items():
        assert path[0] == rep.centers[i] and path[-1] == rep.centers[j]
        length = sum((small_torus.edge_lengths[_pair(a, b)]
                      for a, b in zip(path, path[1:])), F(0))
        assert length == rep.center_distances[(i, j)]


def test_ball_areas_match_surface_balls(small_torus, small_torus_nerve):
    rep = small_torus_nerve
    assert rep.ball_areas == [face_set_area(small_torus, surfballs.ball(small_torus, c, rep.r0))
                              for c in rep.centers]


# relabeled meshes with edges of length 1/32, the last two those of the
# nerve-pack benchmark workload
PACKING_SURFACES = {
    "torus7x2": lambda: relabeled(fixtures.scale_surface(
        fixtures.subdivide(fixtures.torus7(), 2), F(1, 8)), 1),
    "genus2x1": lambda: relabeled(fixtures.scale_surface(
        fixtures.subdivide(fixtures.genus2()), F(1, 16)), 2),
    "torus7x3_pack": lambda: relabeled(NERVE_PACK_MESHES["torus7x3"](), 3),
    "genus2x2_pack": lambda: relabeled(NERVE_PACK_MESHES["genus2x2"](), 4),
}


@pytest.mark.parametrize("r0, eps", [(F(1, 32), F(1, 64)), (F(1, 20), F(1, 64)),
                                     (F(1, 64), F(1, 128))])
@pytest.mark.parametrize("name", list(PACKING_SURFACES))
def test_pruned_packing_matches_farthest_point_oracle(name, r0, eps, monkeypatch):
    # the heap and the bounded trees against a max over all vertices and
    # trees run to max(mind, reach): every report field agrees
    rep = nerve.nerve_graph(PACKING_SURFACES[name](), r0, eps)
    monkeypatch.setattr(nerve, "_farthest_point_packing", farthest_point_packing)
    want = nerve.nerve_graph(PACKING_SURFACES[name](), r0, eps)
    assert len(want.centers) > 1
    for f in dataclasses.fields(nerve.NerveReport):
        assert getattr(rep, f.name) == getattr(want, f.name), f.name


@pytest.mark.parametrize("r0, eps", [(F(1, 32), F(1, 64)), (F(1, 20), F(1, 64))])
@pytest.mark.parametrize("name", list(PACKING_SURFACES) + ["torus7x3_unscaled"])
def test_nerve_edges_match_pairwise_oracle(name, r0, eps, monkeypatch):
    # the edges read off each center's tree against a test of every pair of
    # centers: the same edges, distances and phi paths, in the same order
    make = PACKING_SURFACES.get(name) or (lambda: relabeled(
        fixtures.subdivide(fixtures.torus7(), 3), 5))
    s = make()
    packings = []
    pack = nerve._farthest_point_packing
    monkeypatch.setattr(nerve, "_farthest_point_packing",
                        lambda *a: packings.append(pack(*a)) or packings[-1])
    rep = nerve.nerve_graph(s, r0, eps)
    (centers, dists, parents), = packings
    D = s.int_grid()[0]
    reach = math.floor((4 * r0 + 2 * eps) * D)
    edges, cdist, phi = pairwise_nerve_edges(centers, dists, parents, reach, D)
    assert edges
    assert [(e.u, e.w) for e in rep.nerve.edges] == edges
    assert list(rep.center_distances.items()) == list(cdist.items())
    assert list(rep.phi_paths.items()) == list(phi.items())


def test_nerve_on_a_sphere_prunes_to_the_empty_nerve():
    # the empty nerve captures a sphere, so the length bound holds at 0
    bare = nerve.nerve_graph(tetrahedron(), r0=F(1, 64), eps=F(1, 64))
    assert not bare.nerve.edges
    fine = nerve.nerve_graph(fixtures.scale_surface(
        fixtures.subdivide(tetrahedron(), 2), F(1, 4)))
    assert len(fine.nerve.edges) > 0
    for rep in (bare, fine):
        assert rep.image_captures and rep.image_rank == 0
        assert rep.pruned_nerve_edges == [] and not rep.pruned_image_edges
        assert rep.pruned_length == 0 and rep.length_bound_ok
        assert rep.checks["length_bound"] == {
            "length": 0, "bound": F(len(rep.centers) - 1, 4)}


# ---------------------------------------------------------------------------
# closed-form anchors

def test_coarea_identity():
    for R in range(1, 11):
        lhs = nerve.coarea_closed_form(R)
        rhs = nerve.hyperbolic_area_lower_bound(R)
        assert abs(lhs - rhs) < 1e-9


def test_coarea_matches_numeric_quadrature():
    R = 3.0
    n = 200000
    h = R / n
    total = sum(math.sinh((i + 0.5) * h * math.log(2)) for i in range(n)) * h / 2
    assert abs(total - nerve.coarea_closed_form(R)) < 1e-6


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 1.0, 4.0])
def test_area_shrink_factor_grid(a):
    radii = [k / 10 for k in range(1, 201)]
    rep = shrink_factor_grid_check(a, radii)
    assert rep["ok"]
    assert rep["c"] == math.sqrt(min(a, 1.0))


def test_shrink_factor_rejects_nonpositive():
    from coverball.graphs import GraphError
    with pytest.raises(GraphError):
        area_shrink_factor(0.0)


def test_lambda_search_finds_and_fails():
    grid = [k / 2 for k in range(1, 201)]    # the search wants lambda large
    radii = [k for k in range(1, 101)]
    rep = rescaling_lambda_search(grid, radii)
    assert rep["lam"] is not None
    assert rep["delta"] == 1.0 / ((1 << 13) * math.pi * rep["lam"] ** 2)
    bad = rescaling_lambda_search(grid, radii + [0.01])
    assert bad["lam"] is None


def test_rows_beyond_float_range_never_pass():
    # lambda = 6/5 fails at R = 100; at R = 1000 both sides exceed every float
    assert rescaling_lambda_search([1.2], [100])["lam"] is None
    assert rescaling_lambda_search([1.2], [1000])["lam"] is None
    rep = shrink_factor_grid_check(0.5, [1, 2000])
    assert math.isnan(rep["rows"][1]["margin"]) and not rep["ok"]


# ---------------------------------------------------------------------------
# pipeline smoke test on a small instance

def test_pipeline_stages_on_subdivided_torus():
    s = fixtures.subdivide(fixtures.torus7())
    rep = nerve.surface_growth_pipeline(s, r_grid=4)
    stages = {st["stage"]: st for st in rep["stages"]}
    assert rep["genus"] == 1
    assert stages["hypotheses"]["systole"] == 3
    bd = stages["ball-domination"]
    assert bd["containment_ok"] and bd["projection_ok"]
    for row in bd["rows"]:
        if row["contractible"]:
            assert row["boundary_margin"] >= 0
    assert "coarea" in stages


def test_pipeline_coarea_reads_a_low_inner_area_as_inconclusive():
    """The coarea stage's ball area is the inner ball's, a lower bound: on
    genus2_neck no face lies within R = 9/10 of u, so the area 0 misses the
    target and proves nothing.  The golden surfaces clear the target."""
    stages = {st["stage"]: st for st in
              nerve.surface_growth_pipeline(corpus_surface("genus2_neck.surf"))["stages"]}
    coarea = stages["coarea"]
    assert coarea["R"] == F(9, 10) and coarea["ball_area"] == 0 < coarea["target"]
    assert coarea["status"] == "inconclusive"
    assert coarea["reason"] == "inner-ball area, a lower bound, is below the target"
    for name in ("genus2.surf", "torus7_sub.surf"):
        rep = nerve.surface_growth_pipeline(corpus_surface(name))
        coarea = {st["stage"]: st for st in rep["stages"]}["coarea"]
        assert coarea["status"] == "pass" and "reason" not in coarea, name


@pytest.mark.parametrize("name", ["torus7_sub.surf", "genus2.surf"])
def test_pipeline_runs_one_candidate_pass(name, monkeypatch):
    # systole and greedy capture read the same unbased pass
    s = parse_surface((resources.files("coverball") / "corpus" / name).read_text())
    passes = []
    run_pass = surfballs._grid_candidates
    monkeypatch.setattr(surfballs, "_grid_candidates",
                        lambda *a: passes.append(a) or run_pass(*a))
    rep = nerve.surface_growth_pipeline(s)
    assert "greedy-capture" in {st["stage"] for st in rep["stages"]}
    assert passes == [(s,)]


@pytest.mark.parametrize("name", ["torus7_sub.surf", "genus2.surf"])
def test_pipeline_builds_no_fraction_distance_map(name, monkeypatch):
    # each ball-domination row takes its ball from the surface's grid tree
    s = corpus_surface(name)
    maps = _count_calls(monkeypatch, TriSurface, "distances_from")
    balls = _count_calls(monkeypatch, surfballs, "ball")
    rep = nerve.surface_growth_pipeline(s, r_grid=4)
    rows = {st["stage"]: st for st in rep["stages"]}["ball-domination"]["rows"]
    assert maps == []
    assert [a[2] for a in balls] == [row["R"] for row in rows]
    assert len({a[1] for a in balls}) == 1


@pytest.mark.parametrize("name", ["torus7_sub.surf", "genus2.surf"])
def test_pipeline_rows_read_one_tree_of_gamma(name, monkeypatch):
    # one shortest-path tree of gamma from the row base serves every row's
    # ball in gamma, and each row is the one-radius call at its R
    s = corpus_surface(name)
    trees = _count_calls(monkeypatch, cover, "grid_shortest_paths")
    rep = nerve.surface_growth_pipeline(s, r_grid=5)
    rows = {st["stage"]: st for st in rep["stages"]}["ball-domination"]["rows"]
    assert len(trees) == 1
    gamma, u = trees[0]
    monkeypatch.undo()
    assert [row["gamma_ball"] for row in rows] == \
        [cover.finite_ball_length(gamma, u, row["R"]) for row in rows]
    assert len(set(row["gamma_ball"] for row in rows)) > 1


@pytest.mark.parametrize("name", ["torus7.surf", "torus7_sub.surf",
                                  "torus7_sub_sixth.surf", "genus2.surf",
                                  "genus2_neck.surf"])
def test_pipeline_row_lengths_match_fraction_oracles(name):
    # the rows' gamma_in_ball is the integer covered-length rule on the
    # grid lengths and the kept grid tree of u, and the boundary lengths of
    # each ball and its B+ int sums of grid lengths; all against Fraction
    # sums, at every vertex, at the pipeline's radii and at two radii off
    # the grid
    s = corpus_surface(name)
    try:
        rmax = surfballs.systole(s)[0] / 2
    except SurfaceError:
        rmax = F(1, 2)
    radii = [rmax * k / 8 for k in range(1, 9)] + [rmax / 7, rmax * 10 / 11]
    _, image_edges = surfballs.capture_length(s, "greedy")
    D = s.int_grid()[0]
    assert any((r * D).denominator > 1 for r in radii)
    for u in s.vertices:
        dist = s.distances_from(u)
        grid_u = s.tree(u)[0]
        image_grid = [(s._edge_grid[e], grid_u[e[0]], grid_u[e[1]])
                      for e in image_edges]
        for r in radii:
            assert cover.grid_covered_length(image_grid, D, r) == \
                sum((covered_length(s.edge_lengths[e], r, dist[e[0]], dist[e[1]])
                     for e in image_edges), F(0))
            b = surfballs.ball(s, u, r)
            for faces in (b, surfballs.fill_to_bplus(s, b)):
                assert subgraph_length(s, surfballs._boundary_edges(s, faces)) == \
                    sum((s.edge_lengths[e] for e in boundary_edges_of(s, faces)), F(0))


@pytest.mark.parametrize("name", ["torus7.surf", "torus7_sub.surf",
                                  "torus7_sub_sixth.surf", "genus2.surf",
                                  "genus2_neck.surf"])
def test_pipeline_rows_fill_and_test_bplus_as_the_fan_oracle(name, monkeypatch):
    # each row's contractible flag and boundary length against B+ filled
    # from the exact-distance ball by the corner-fan oracle: complement
    # pieces of chi 1 join the ball, and B+ is contractible iff it is one
    # piece of chi 1
    s = corpus_surface(name)
    balls = _count_calls(monkeypatch, surfballs, "ball")
    rep = nerve.surface_growth_pipeline(s)
    rows = {st["stage"]: st for st in rep["stages"]}["ball-domination"]["rows"]
    monkeypatch.undo()
    u = balls[0][1]
    dist = s.distances_from(u)
    flags, boundaries = [], []
    for row in rows:
        inside = {v for v, d in dist.items() if d <= row["R"]}
        bplus = bplus_oracle(s, faces_with_all_corners_in(s, inside))
        flags.append(is_disk_oracle(s, bplus))
        boundaries.append(sum((s.edge_lengths[e] for e in boundary_edges_of(s, bplus)), F(0)))
    assert [row["contractible"] for row in rows] == flags
    assert [row["boundary_length"] for row in rows] == boundaries


@pytest.mark.parametrize("value", [2.5, "3", True, 0, None])
@pytest.mark.parametrize("arg", ["r_grid", "budget"])
def test_pipeline_refuses_a_bad_count_before_any_stage(arg, value, monkeypatch):
    def stage(*a, **k):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(surfballs, "systole", stage)
    monkeypatch.setattr(nerve, "nerve_graph", stage)
    with pytest.raises(SurfaceError, match=f"^{arg} {re.escape(repr(value))} "):
        nerve.surface_growth_pipeline(fixtures.torus7(), **{arg: value})


def test_pipeline_skips_capture_on_sphere():
    rep = nerve.surface_growth_pipeline(tetrahedron())
    kinds = [st["stage"] for st in rep["stages"]]
    assert "capture" in kinds
    assert rep["genus"] == 0
