import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FractionEchelon, _count_calls, _face_components,
                      arc_dict_exact_capture, boundary_components, by_target,
                      capture_by_cycle_pairs, class_of_walk, class_tuple,
                      corpus_surface, face_set_chi, faces_with_all_corners_in,
                      fraction_greedy_capture, fraction_homology_candidates,
                      fundamental_cycles, is_contractible_cycle, mixed_torus,
                      relabeled, shortest_essential_cycle, tetrahedron,
                      tuple_capture_tables, tuple_class_dijkstra,
                      walked_homology)
from coverball import fixtures, surface, surfballs
from coverball.graphs import GraphError, grid_shortest_paths
from coverball.surface import (SurfaceError, TriSurface, capturing_test,
                               subgraph_length)


@pytest.fixture(scope="module")
def torus():
    return fixtures.torus7()


@pytest.fixture(scope="module")
def sub_torus():
    return fixtures.subdivide(fixtures.torus7())


@pytest.fixture(scope="module")
def g2():
    return fixtures.genus2()


@pytest.fixture(scope="module")
def g2_sub():
    return fixtures.subdivide(fixtures.genus2())


NECK = [(0, 1), (1, 3), (0, 3)]   # genus2's separating triangle


def _neck_surface() -> TriSurface:
    g2 = fixtures.genus2()
    return TriSurface.build(g2.faces, {**g2.edge_lengths,
                                       **{e: F(3, 5) for e in NECK}})


@pytest.fixture(scope="module")
def neck():
    return _neck_surface()


# ---------------------------------------------------------------------------
# contractibility and systole

def test_face_cycles_are_contractible(torus):
    for f in torus.faces:
        assert is_contractible_cycle(torus, list(f))


def test_essential_cycle_detected(torus):
    assert not is_contractible_cycle(torus, [2, 4, 6])


def test_systole_torus_exhaustive_oracle(torus):
    length, cyc = surfballs.systole(torus, mode="auto")
    assert length == 3
    assert not is_contractible_cycle(torus, cyc)
    # oracle: sweep every simple cycle up to length 3 and take the shortest
    # non-contractible one
    assert shortest_essential_cycle(torus, F(3)) == length


def test_systole_modes_agree(torus, sub_torus, g2):
    for s in (torus, sub_torus, g2):
        hom, _ = surfballs.systole(s, mode="homological")
        auto, _ = surfballs.systole(s, mode="auto")
        assert hom == auto == 3


def test_separating_neck_is_the_systole(neck):
    # the shrunk neck is essential but null-homologous, so only the
    # homological quantity misses it
    length, cyc = surfballs.systole(neck, mode="auto")
    assert length == F(9, 5)
    assert not is_contractible_cycle(neck, cyc)
    assert surfballs.systole(neck, mode="homological")[0] == F(13, 5)


def _g2_sub_neck(g2):
    """The six half edges of the neck after one midpoint subdivision."""
    mid = {e: max(g2.vertices) + 1 + i for i, e in enumerate(g2.edges)}
    return [tuple(sorted((v, mid[e]))) for e in NECK for v in e]


@given(st.booleans(), st.data(), st.sampled_from([None, F(4, 5), F(7, 8)]))
@settings(max_examples=20, deadline=None)
def test_systole_matches_enumeration_oracle(subdivided, data, neck_length):
    # any two lengths in [1, 7/4] beat a third, and so does a neck edge
    # above 3/4, since no face has two neck edges
    s = fixtures.genus2()
    neck_edges = NECK
    if subdivided:
        neck_edges = _g2_sub_neck(s)
        s = fixtures.subdivide(s)
    pick = st.sampled_from([F(1), F(5, 4), F(3, 2), F(7, 4)])
    lengths = {e: data.draw(pick) for e in s.edges}
    if neck_length is not None:
        lengths.update({e: neck_length for e in neck_edges})
    s = TriSurface.build(s.faces, lengths)
    length, cyc = surfballs.systole(s)
    assert shortest_essential_cycle(s, length) == length
    assert not is_contractible_cycle(s, cyc)
    assert surfballs.systole(s, mode="homological")[0] >= length


def test_systole_at_matches_through_base_oracle(g2, neck, g2_sub):
    for s in (g2, neck, g2_sub):
        for x in s.vertices:
            length, cyc = surfballs.systole_at(s, x)
            assert x in cyc and not is_contractible_cycle(s, cyc)
            assert shortest_essential_cycle(s, length, through=x) == length


def test_default_systole_on_twice_subdivided_genus2():
    s = fixtures.subdivide(fixtures.genus2(), 2)
    assert len(s.edges) == 624
    assert surfballs.systole(s)[0] == 3


def test_candidate_pass_keeps_one_cycle_per_class_and_root():
    # genus 2 subdivided twice has 15,692 simple nonzero-class candidates;
    # the kept pass holds one per class up to sign, and one per root
    s = fixtures.subdivide(fixtures.genus2(), 2)
    surfballs.systole(s)
    reps, best, sep = s._capture_cache.candidates
    assert len(reps) == 15
    assert all(key == abs(c) for key, (_, _, c) in reps.items())
    assert sorted(best) == sorted(s.vertices)
    assert all(cyc[0] == v for v, (_, cyc, _) in best.items())


def test_systole_scales(torus):
    s = fixtures.scale_surface(torus, F(1, 4))
    assert surfballs.systole(s)[0] == F(3, 4)


def test_systole_at_dominates_free(torus):
    free, _ = surfballs.systole(torus)
    for x in torus.vertices:
        based, cyc = surfballs.systole_at(torus, x)
        assert based >= free
        assert x in cyc


CANDIDATE_SURFACES = {
    "torus7": fixtures.torus7,
    "torus7_sub": lambda: fixtures.subdivide(fixtures.torus7()),
    "torus7_sub_relabeled": lambda: relabeled(fixtures.subdivide(fixtures.torus7()), 5),
    "torus7_mixed": lambda: _mixed_torus(1),
    "genus2": fixtures.genus2,
    "neck": _neck_surface,
    "genus2_sub": lambda: fixtures.subdivide(fixtures.genus2()),
}


@pytest.mark.parametrize("name", ["genus2", "genus2_sub", "torus7_sub", "neck"])
def test_capturing_test_matches_fraction_oracle(name):
    """On random edge subsets, ``capturing_test`` gives the rank that
    ``FractionEchelon`` finds for the ``walked_homology`` classes of the
    subgraph's fundamental cycles."""
    s = CANDIDATE_SURFACES[name]()
    classes = walked_homology(s)[2]
    edges = sorted(s.edges)
    rng = random.Random(name)
    for _ in range(40):
        sub = rng.sample(edges, rng.randint(1, len(edges)))
        oracle = FractionEchelon()
        for cyc in fundamental_cycles(sub):
            oracle.add(class_of_walk(classes, cyc))
        assert capturing_test(s, sub) == (oracle.rank == 2 * s.genus, oracle.rank)


def _oracle_systoles(cands, sep):
    """The systole of an oracle pass (``fraction_homology_candidates``) in
    modes auto and homological, as (length, cycle): the first shortest
    candidate, unless ``sep`` is strictly shorter in mode auto."""
    hom = min(cands, key=lambda t: t[0], default=None)
    if sep is not None and (hom is None or sep[0] < hom[0]):
        return sep, hom
    return hom, hom


def _up_to_sign(cls: dict) -> frozenset:
    """A sparse ``class_of_walk`` class and its negative, as one key."""
    return frozenset({tuple(sorted(cls.items())),
                      tuple(sorted((i, -x) for i, x in cls.items()))})


@pytest.mark.parametrize("name", sorted(CANDIDATE_SURFACES))
def test_grid_candidates_match_fraction_oracle(name):
    """The one pass against the oracle run at every base and unbased:
    ``best[v]`` and ``sep[v]`` are the oracle's pass over the tree of v
    alone, and ``reps`` holds, for each class up to sign of the oracle's
    pass over every tree, its least candidate in (length, cycle) order."""
    s = CANDIDATE_SURFACES[name]()
    if name == "torus7_mixed":
        assert s.int_grid()[0] > 1
    hom, classes = s.homology(), walked_homology(s)[2]
    D = s.int_grid()[0]
    reps, best, sep = surfballs._grid_candidates(s)
    assert all(type(n) is int and key == abs(c) for key, (n, _, c) in reps.items())
    assert all({i: x for i, x in enumerate(hom.digits(c)) if x}
               == class_of_walk(classes, cyc)
               for _, cyc, c in reps.values())
    got = {_up_to_sign(class_of_walk(classes, cyc)): (F(n, D), cyc)
           for n, cyc, _ in reps.values()}
    assert len(got) == len(reps)
    unbased = fraction_homology_candidates(s)
    want_reps = {}
    for length, cyc in unbased[0]:
        key = _up_to_sign(class_of_walk(classes, cyc))
        want_reps[key] = min(want_reps.get(key, (length, cyc)), (length, cyc))
    assert got == want_reps
    assert all(type(length) is F for length, _ in got.values())
    assert list(best) == sorted(best) and list(sep) == sorted(sep)
    for v in sorted(s.vertices):
        want, want_sep = fraction_homology_candidates(s, v)
        if want_sep is None:
            assert v not in sep, v
        else:
            n, cyc, c = sep[v]
            assert type(n) is int and c == 0
            assert (F(n, D), cyc) == want_sep, v
            assert not class_of_walk(classes, cyc)
        n, cyc, _ = best[v]
        assert (F(n, D), cyc) == min(want, key=lambda t: t[0]), v
        # the based systole in both modes, read off best[v] and sep.get(v)
        for mode, (length, cyc) in zip(("auto", "homological"),
                                       _oracle_systoles(want, want_sep)):
            assert surfballs.systole(s, base=v, mode=mode) == (length, cyc), (v, mode)
    # the greedy basis from the representatives is the one from every
    # candidate
    assert surfballs._greedy_capture(s) == fraction_greedy_capture(s)
    auto, homological = (surfballs.systole(s, mode=m)[0] for m in ("auto", "homological"))
    # the shrunk neck undercuts every nonzero class
    assert (auto < homological) == (name == "neck")
    for mode, (length, cyc) in zip(("auto", "homological"), _oracle_systoles(*unbased)):
        assert surfballs.systole(s, mode=mode) == (length, cyc), mode


@pytest.mark.parametrize("name", sorted(CANDIDATE_SURFACES))
def test_systole_at_reads_the_cached_pass(name, monkeypatch):
    # after one unbased call, the systole at every base in both modes runs
    # no Dijkstra, reads no kept base tree and runs no pass
    s = CANDIDATE_SURFACES[name]()
    surfballs.systole(s)
    trees = _count_calls(monkeypatch, surface, "grid_shortest_paths")
    trees_here = _count_calls(monkeypatch, surfballs, "grid_shortest_paths")
    kept = _count_calls(monkeypatch, TriSurface, "tree")
    passes = _count_calls(monkeypatch, surfballs, "_grid_candidates")
    for x in sorted(s.vertices):
        surfballs.systole_at(s, x)
        surfballs.systole(s, base=x, mode="homological")
    assert trees == trees_here == kept == passes == []


@pytest.mark.parametrize("name", sorted(CANDIDATE_SURFACES))
def test_systole_at_on_a_fresh_surface_runs_one_pass(name, monkeypatch):
    s = CANDIDATE_SURFACES[name]()
    passes = _count_calls(monkeypatch, surfballs, "_grid_candidates")
    surfballs.systole_at(s, max(s.vertices))
    assert passes == [(s,)]
    surfballs.systole(s)
    surfballs.systole(s, mode="homological")
    assert passes == [(s,)]


SYSTOLE_AND_GREEDY = {
    "auto": lambda s: surfballs.systole(s),
    "homological": lambda s: surfballs.systole(s, mode="homological"),
    "greedy": lambda s: surfballs.capture_length(s, "greedy"),
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_SURFACES))
def test_one_candidate_pass_serves_systole_and_greedy(name, monkeypatch):
    make = CANDIDATE_SURFACES[name]
    fresh = {k: call(make()) for k, call in SYSTOLE_AND_GREEDY.items()}
    passes = []
    run_pass = surfballs._grid_candidates
    monkeypatch.setattr(surfballs, "_grid_candidates",
                        lambda *a: passes.append(a) or run_pass(*a))
    for order in itertools.permutations(SYSTOLE_AND_GREEDY):
        s = make()
        passes.clear()
        for k in order:
            assert SYSTOLE_AND_GREEDY[k](s) == fresh[k], (order, k)
        # the returned cycle is the caller's: clearing it leaves the cache
        surfballs.systole(s)[1].clear()
        assert surfballs.systole(s) == fresh["auto"]
        assert passes == [(s,)], order


# ---------------------------------------------------------------------------
# balls and filling

def test_ball_area_monotone(torus):
    areas = [surfballs.ball(torus, 0, F(k, 4)).area(torus) for k in range(1, 9)]
    assert all(a <= b + 1e-12 for a, b in zip(areas, areas[1:]))


def test_fill_never_shrinks_area_or_adds_boundary(torus, g2):
    for s in (torus, g2):
        for x in (0, 1):
            for k in range(1, 7):
                b = surfballs.ball(s, x, F(k, 4))
                bp = surfballs.fill_to_bplus(s, b)
                assert bp.area(s) >= b.area(s) - 1e-12
                assert len(boundary_components(s, bp)) <= \
                    len(boundary_components(s, b))
                assert b.faces <= bp.faces


def _assert_ball_matches_distances(s, b, dist):
    """The ball b against its definition: the vertices at exact distance
    at most R in ``dist`` (``distances_from`` of its centre), the faces
    with all three corners among them, in ``list(faces)`` order too, and
    the edges with one of those faces on one side only."""
    assert b.interior == {v for v, d in dist.items() if d <= b.radius}
    want = faces_with_all_corners_in(s, b.interior)
    assert b.faces == want and list(b.faces) == list(want)
    assert b.boundary_edges == {e for e, fs in s.edge_faces.items()
                                if sum(f in b.faces for f in fs) == 1}


@pytest.mark.parametrize("make", [lambda: fixtures.subdivide(fixtures.torus7()),
                                  mixed_torus],
                         ids=["torus7_sub", "mixed_torus"])
def test_ball_at_off_grid_radii_matches_distance_oracle(make):
    """``ball`` decides n <= floor(R * D) on the grid; at radii k/3, k/7
    and k/11 (off the grid of D = 2 for most k, and at k/11 off that of
    D = 210) its interior and faces are those the exact distances give."""
    s = make()
    D = s.int_grid()[0]
    off_grid = 0
    for x in sorted(s.vertices):
        full = s.distances_from(x)
        far = max(full.values())
        for q in (3, 7, 11):
            for k in range(1, int(q * far) + 2):
                R = F(k, q)
                _assert_ball_matches_distances(s, surfballs.ball(s, x, R), full)
                off_grid += (R * D).denominator != 1
    assert off_grid > 50


def _piece_surfaces():
    """The corpus surfaces, each subdivided once, and the tetrahedron."""
    corpus = [corpus_surface(n) for n in ("torus7.surf", "torus7_sub.surf", "genus2.surf")]
    return corpus + [fixtures.subdivide(s) for s in corpus] + [tetrahedron()]


def _fan_pieces(s, faces, cut):
    return [(comp, face_set_chi(s, comp, cut))
            for comp in _face_components(s, faces, cut)]


def test_face_pieces_match_fan_oracle():
    """``_face_pieces`` (chi = F - J + C) against the corner-fan oracle:
    seeded random face and cut sets, then the complement and the filled
    ball of every ball at every vertex and radius k/4; and each ball
    against the distance oracle ``_assert_ball_matches_distances``."""
    rng = random.Random(14)
    checked = 0
    for s in _piece_surfaces():
        nf = len(s.faces)
        for p in (0.2, 0.5, 0.8, 1.0):
            for q in (0.0, 0.1, 0.3):
                for _ in range(3):
                    faces = {f for f in range(nf) if rng.random() < p}
                    cut = {e for e in s.edges if rng.random() < q}
                    assert surfballs._face_pieces(s, faces, cut) == \
                        _fan_pieces(s, faces, cut)
                    checked += 1
        for x in sorted(s.vertices):
            full = s.distances_from(x)
            for k in range(1, int(4 * max(full.values())) + 2):
                R = F(k, 4)
                b = surfballs.ball(s, x, R)
                _assert_ball_matches_distances(s, b, full)
                outside = set(range(nf)) - b.faces
                assert surfballs._face_pieces(s, outside, b.boundary_edges) == \
                    _fan_pieces(s, outside, b.boundary_edges)
                bp = surfballs.fill_to_bplus(s, b)
                assert surfballs._face_pieces(s, bp.faces, bp.boundary_edges) == \
                    _fan_pieces(s, bp.faces, bp.boundary_edges)
                checked += 3
    assert checked > 2000


def test_ball_faces_match_corner_oracle():
    """``_ball_faces`` (a count of each face's corners inside) against the
    face-by-face rule, on seeded random vertex sets of every density."""
    rng = random.Random(25)
    checked = 0
    for s in _piece_surfaces():
        verts = sorted(s.vertices)
        for p in (0.0, 0.2, 0.5, 0.8, 0.95, 1.0):
            for _ in range(8):
                inside = {v for v in verts if rng.random() < p}
                got = surfballs._ball_faces(s, inside)
                want = faces_with_all_corners_in(s, inside)
                assert got == want and list(got) == list(want)
                checked += bool(want)
    assert checked > 200


def test_based_op_runs_one_shortest_path_tree(monkeypatch):
    """A capture-height op at x (height, systole at x, three small-ball
    checks) runs one grid Dijkstra, from x, and builds no Fraction distance
    map: height and the ball checks share the surface's kept tree of x
    (``TriSurface.tree``), and the systole at x reads the candidate pass
    that serves every base, which runs none once built.  Each check reads
    the inner ball's faces once and builds no ball boundary."""
    s = relabeled(fixtures.subdivide(fixtures.torus7()), 1)
    surfballs.capture_length(s, "exact")    # the unbased pass, once per surface
    trees = _count_calls(monkeypatch, surface, "grid_shortest_paths")
    trees_here = _count_calls(monkeypatch, surfballs, "grid_shortest_paths")
    maps = _count_calls(monkeypatch, TriSurface, "distances_from")
    inner = _count_calls(monkeypatch, surfballs, "_inner_ball")
    boundaries = _count_calls(monkeypatch, surfballs, "_boundary_edges")
    for x in sorted(s.vertices):
        trees.clear()
        h = surfballs.height(s, x, mode="exact")
        sys_x, _ = surfballs.systole_at(s, x)
        hpp = h["Hpp"]
        for k in (1, 2, 3):
            R = hpp + (sys_x / 2 - hpp) * F(k, 4)
            check = surfballs.small_ball_area_check(s, x, R, hpp=hpp, sys_x=sys_x)
            assert check.get("reason") != "outside admissible window"
        assert [a[1] for a in trees] == [x] and trees_here == []
        assert maps == []
    assert len(inner) == 3 * len(s.vertices)
    assert boundaries == []


def test_cached_base_refuses_bool():
    """The kept base tree is looked up so that True and False never stand
    for vertices 1 and 0, though True == 1: every based entry point still
    raises GraphError for them right after a call at that vertex."""
    s = fixtures.torus7()
    based = [lambda x: surfballs.systole_at(s, x),
             lambda x: surfballs.capture_length(s, "greedy", x=x),
             lambda x: surfballs.capture_length(s, "exact", x=x),
             lambda x: surfballs.ball(s, x, F(3, 2)),
             lambda x: surfballs.height(s, x, mode="exact"),
             lambda x: surfballs.height(s, x, mode="greedy")]
    for v in (0, 1):
        for call in based:
            call(v)
            with pytest.raises(GraphError, match=f"^unknown source vertex {bool(v)}$"):
                call(bool(v))
    for call in based:
        with pytest.raises(GraphError, match="^unknown source vertex 99$"):
            call(99)


def test_saturated_ball_has_no_boundary(torus):
    b = surfballs.ball(torus, 0, F(4))
    assert len(b.faces) == len(torus.faces)
    assert not b.boundary_edges


# ---------------------------------------------------------------------------
# capture

def test_exact_capture_matches_enumeration_oracle(torus):
    L, edges = surfballs.capture_length(torus, mode="exact")
    L_oracle, _ = capture_by_cycle_pairs(torus)
    assert L == L_oracle == 5
    ok, rank = capturing_test(torus, edges)
    assert ok and rank == 2
    assert subgraph_length(torus, edges) == L


@pytest.mark.parametrize("x", [0, 3, 6])
def test_exact_based_capture_matches_oracle(torus, x):
    L, edges = surfballs.capture_length(torus, mode="exact", x=x)
    L_oracle, _ = capture_by_cycle_pairs(torus, x=x)
    assert L == L_oracle
    assert x in {v for e in edges for v in e}
    ok, _ = capturing_test(torus, edges)
    assert ok


def test_exact_capture_stable_under_subdivision(sub_torus):
    L, edges = surfballs.capture_length(sub_torus, mode="exact")
    assert L == 5
    ok, rank = capturing_test(sub_torus, edges)
    assert ok and rank == 2


def _mixed_torus(seed: int) -> TriSurface:
    """torus7 with lengths drawn from {3/5, 2/3, 3/4, 5/6, 1}: the common
    denominator exceeds 1, and any two sides beat the third."""
    rng = random.Random(seed)
    t = fixtures.torus7()
    choices = [F(3, 5), F(2, 3), F(3, 4), F(5, 6), F(1)]
    return TriSurface.build(t.faces, {e: rng.choice(choices) for e in t.edges})


def _assert_captures_with_length(s, x, L, edges):
    ok, rank = capturing_test(s, edges)
    assert ok and rank == 2
    on = {v for e in edges for v in e}
    arc = 0 if x is None or x in on else min(s.distances_from(x)[v] for v in on)
    assert subgraph_length(s, edges) + arc == L


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_capture_on_mixed_denominators(seed):
    s = _mixed_torus(seed)
    assert s.int_grid()[0] > 1
    for x in (None, 0, 2, 5):
        L, edges = surfballs.capture_length(s, mode="exact", x=x)
        assert L == capture_by_cycle_pairs(s, x=x)[0]
        _assert_captures_with_length(s, x, L, edges)


def _greedy_ends_and_far(s):
    """The least and the largest vertex of the unbased greedy graph, and the
    base farthest from it (the largest greedy bound), the least on ties."""
    _, greedy = surfballs.capture_length(s, mode="greedy")
    on = sorted({v for e in greedy for v in e})
    dx = {v: min(s.distances_from(v)[w] for w in on) for v in s.vertices}
    far = max(sorted(s.vertices), key=dx.get)
    assert dx[far] > 0
    # the tables a, b leave settle no candidate at far: L(M, far) is not
    # below their bound plus lambda1, the unbased greedy length, so far grows
    # them (on torus7_sub every base has H'' = 0 and no base does)
    assert surfballs.capture_length(s, mode="exact", x=far)[0] >= \
        surfballs.capture_length(s, mode="greedy")[0]
    return on[0], on[-1], far


# inputs whose farthest base from the greedy graph has a large H'': the
# tables of the bases on the greedy graph cannot settle it
FAR_MAKERS = [lambda: _skewed_sub_torus(7), lambda: _mixed_torus(2)]
FAR_IDS = ["torus7_sub_skewed7", "torus7_mixed"]


@pytest.mark.parametrize("make", FAR_MAKERS, ids=FAR_IDS)
def test_capture_cache_leaves_results_unchanged(make):
    a, b, far = _greedy_ends_and_far(make())
    # far after a, b raises the table bound; b after far reads larger tables
    for order in ((a, b, far), (far, a, b)):
        s = make()
        for x in order[:2]:
            surfballs.capture_length(s, mode="exact", x=x)
        bound = s._capture_cache.bound
        got = surfballs.capture_length(s, mode="exact", x=order[2])
        assert (s._capture_cache.bound > bound) == (order[2] == far)
        assert got == surfballs.capture_length(make(), mode="exact", x=order[2])
    # callers own the edge sets they are given
    for mode in ("exact", "greedy"):
        L, edges = surfballs.capture_length(s, mode=mode)
        kept = set(edges)
        edges.clear()
        assert surfballs.capture_length(s, mode=mode) == (L, kept)


def _grid_bound(s, x=None) -> int:
    """The greedy upper bound of a capture call, on the integer grid."""
    D = s.int_grid()[0]
    return surfballs._on_grid(surfballs.capture_length(s, mode="greedy", x=x)[0], D)


def _table_bound(s, x=None) -> int:
    """The class-table bound of an exact capture call: the greedy bound less
    the shortest nonzero-class cycle, less one, on the integer grid."""
    D = s.int_grid()[0]
    lambda1 = surfballs.systole(s, mode="homological")[0]
    return _grid_bound(s, x) - surfballs._on_grid(lambda1, D) - 1


GENUS1_MAKERS = [fixtures.torus7,
                 lambda: fixtures.subdivide(fixtures.torus7()),
                 lambda: relabeled(fixtures.subdivide(fixtures.torus7()), 5),
                 lambda: _mixed_torus(1), lambda: _mixed_torus(2),
                 lambda: _mixed_torus(3)]
GENUS1_IDS = ["torus7", "torus7_sub", "torus7_sub_relabeled",
              "mixed1", "mixed2", "mixed3"]


def _reached(tables) -> dict:
    """Capture tables without the targets no walk reached."""
    return {v: {w: lst for w, lst in t.items() if lst} for v, t in tables.items()}


def _tuple_lists(s, search) -> dict:
    """A class search's lists keyed by target vertex, classes decoded to
    2g-tuples."""
    hom = s.homology()
    return {w: [(d, class_tuple(hom, h)) for d, h in lst]
            for w, lst in zip(sorted(s.vertices), search.lists)}


def _vertex_tables(s, bound) -> dict:
    """``_capture_tables`` keyed by vertex: source -> target -> list."""
    searches = surfballs._capture_tables(s, bound)
    return {u: _tuple_lists(s, search)
            for u, search in zip(sorted(s.vertices), searches)}


def _check_class_search(s, bounds):
    """Each source's one search, resumed through the rising ``bounds``,
    against ``tuple_class_dijkstra``: settled lengths, parents and sorted
    per-target lists, states and classes decoded through ``hom.digits``."""
    hom = s.homology()
    packing = surfballs._ClassPacking(s)

    def decode(st):
        r, low = divmod(st, packing.M)
        return packing.verts[r], class_tuple(hom, low - packing.Z)

    def table_search(r):
        # seeded as ``_capture_tables`` seeds the search from rank r
        return surfballs._ClassSearch(packing, [(0, packing.state(r, 0))],
                                      packing.adj, packing.limit)

    for r, v in enumerate(packing.verts):
        search = table_search(r)
        for bound in bounds:
            search.grow(bound)
            dist, parent = tuple_class_dijkstra(s, v, bound)
            settled = [st for st, d in search.dist.items() if d <= bound]
            assert {decode(st): search.dist[st] for st in settled} == dist, (v, bound)
            parents = {st: search.parent(st) for st in settled}
            assert {decode(st): None if p is None else decode(p)
                    for st, p in parents.items()} == parent, (v, bound)
            assert _reached({v: _tuple_lists(s, search)}) == \
                {v: by_target(dist)}, (v, bound)
    with pytest.raises(SurfaceError, match="packing width"):
        table_search(r).grow(packing.limit + 1)


@pytest.mark.parametrize("make", GENUS1_MAKERS, ids=GENUS1_IDS)
def test_packed_class_search_matches_tuple_oracle(make):
    s = make()
    ub = _grid_bound(s)
    _check_class_search(s, (ub, ub + 1, ub + 3))


@pytest.mark.parametrize("make", [fixtures.genus2,
                                  lambda: fixtures.subdivide(fixtures.genus2())],
                         ids=["genus2", "genus2_sub"])
def test_class_search_on_z4_matches_tuple_oracle(make):
    # the same search on Z^4 states, which no capture call builds yet
    _check_class_search(make(), (2, 4, 6))


def test_det_matches_tuple_determinant():
    # random genus-1 class pairs with digits up to the packing's limits,
    # which bound the difference of two classes, and those limits themselves
    hom = fixtures.subdivide(fixtures.torus7()).homology()
    w = hom.width
    half = 1 << (w - 1)
    rng = random.Random(7)
    edge = [-half, -half + 1, -1, 0, 1, half - 1]
    pairs = [(p, q) for p in itertools.product(edge, repeat=2)
             for q in itertools.product(edge, repeat=2)]
    pairs += [tuple(tuple(rng.randrange(-half, half) for _ in range(2))
                    for _ in range(2)) for _ in range(2000)]
    for (a, b), (c, d) in pairs:
        p, q = (a << w) + b, (c << w) + d
        assert hom.det(p, q) == a * d - b * c, ((a, b), (c, d))


@pytest.mark.parametrize("make", FAR_MAKERS, ids=FAR_IDS)
def test_resumed_capture_tables_equal_fresh_build(make, monkeypatch):
    a, b, far = _greedy_ends_and_far(make())
    for order in ((a, b, far), (far, a, b)):
        s = make()
        for x in order:
            surfballs.capture_length(s, mode="exact", x=x)
        bound = s._capture_cache.bound
        assert bound == _table_bound(s, far)
        resumed = _vertex_tables(s, bound)
        assert resumed == _vertex_tables(make(), bound)
        assert _reached(resumed) == tuple_capture_tables(s, bound)

    # a state budget hit while resuming: the same error as the oracle's, the
    # bound stays, and no later call reads the half-grown tables
    s = make()
    for x in (a, b):
        surfballs.capture_length(s, mode="exact", x=x)
    low, high = s._capture_cache.bound, _table_bound(s, far)
    assert low < high
    cap = max(len(tuple_class_dijkstra(s, v, low)[0]) for v in s.vertices)
    monkeypatch.setattr(surfballs, "_STATE_CAP", cap)
    with pytest.raises(SurfaceError) as oracle:
        for v in sorted(s.vertices):
            tuple_class_dijkstra(s, v, high)
    for _ in range(2):
        with pytest.raises(SurfaceError) as resumed:
            surfballs.capture_length(s, mode="exact", x=far)
        assert str(resumed.value) == str(oracle.value)
        assert s._capture_cache.bound == low
    monkeypatch.undo()
    assert surfballs.capture_length(s, mode="exact", x=far) == \
        surfballs.capture_length(make(), mode="exact", x=far)
    assert _vertex_tables(s, high) == _vertex_tables(make(), high)


def test_state_cap_inside_a_bucket_leaves_the_search_whole(monkeypatch):
    # torus7x2 has one grid length, so each key's bucket holds many states.
    # A cap equal to the states search 0 has reached once every key below
    # d has settled trips after the first state of bucket d, inside it
    def make():
        return fixtures.subdivide(fixtures.torus7(), 2)

    s = make()
    low, high = 4, 8
    cache = surfballs._capture_cache(s)
    first = surfballs._capture_tables(s, low)[0]
    d = low + 1
    size = len(first.buckets[d])
    assert size > 1
    monkeypatch.setattr(surfballs, "_STATE_CAP", len(first.dist))
    with pytest.raises(SurfaceError) as oracle:
        tuple_class_dijkstra(s, min(s.vertices), high)
    for _ in range(2):
        with pytest.raises(SurfaceError) as raised:
            surfballs._capture_tables(s, high)
        assert str(raised.value) == str(oracle.value)
        assert cache.bound == low
        assert 0 < len(first.buckets[d]) < size     # the rest of bucket d
    monkeypatch.undo()
    resumed = surfballs._capture_tables(s, high)
    fresh = surfballs._capture_tables(make(), high)
    assert cache.bound == high
    for a, b in zip(resumed, fresh):
        assert a.lists == b.lists
        assert a.dist == b.dist


@pytest.mark.parametrize("make", GENUS1_MAKERS, ids=GENUS1_IDS)
def test_exact_capture_independent_of_table_bound(make):
    # tables grown first to the largest greedy bound of any call give the
    # results of tables grown only as far as each call needs
    s = make()
    surfballs._capture_tables(s, max(_grid_bound(s, x) for x in s.vertices))
    for x in [None] + sorted(s.vertices):
        assert surfballs.capture_length(s, mode="exact", x=x) == \
            surfballs.capture_length(make(), mode="exact", x=x), x


ARC_ORACLE_MAKERS = GENUS1_MAKERS + [
    lambda: relabeled(fixtures.subdivide(fixtures.torus7()), 11),
    lambda: fixtures.subdivide(_mixed_torus(1))]
ARC_ORACLE_IDS = GENUS1_IDS + ["torus7_sub_relabeled11", "mixed1_sub"]


@pytest.mark.parametrize("make", ARC_ORACLE_MAKERS, ids=ARC_ORACLE_IDS)
def test_based_capture_matches_arc_dict_oracle(make):
    # every base, ascending on one surface and descending on a fresh one, so
    # each call meets tables grown by the calls before it in both orders
    bases = sorted(make().vertices)
    for order in (bases, bases[::-1]):
        s = make()
        for x in order:
            assert surfballs.capture_length(s, mode="exact", x=x) == \
                arc_dict_exact_capture(s, x), x


def test_based_capture_matches_arc_dict_oracle_on_finer_torus():
    s = fixtures.subdivide(fixtures.torus7(), 2)
    bases = sorted(s.vertices)
    for x in (bases[0], bases[len(bases) // 2], bases[-1]):
        assert surfballs.capture_length(s, mode="exact", x=x) == \
            arc_dict_exact_capture(s, x), x


def _skewed_sub_torus(seed: int) -> TriSurface:
    """torus7 subdivided once with lengths drawn from {1, 9/8, 5/4, 11/8,
    3/2}: many bases then lie off every minimal capturing graph."""
    rng = random.Random(seed)
    t = fixtures.subdivide(fixtures.torus7())
    choices = [F(1), F(9, 8), F(5, 4), F(11, 8), F(3, 2)]
    return TriSurface.build(t.faces, {e: rng.choice(choices) for e in t.edges})


def test_based_capture_floor_leaves_results_unchanged():
    # after the unbased call a based call stops at the unbased optimum; it
    # returns what it returns with nothing cached, and what the oracle does.
    # The oracle grows the tables it reads, so the bases are also taken in a
    # shuffled order on a surface that only the capture calls grow, where
    # each call meets the tables the calls before it left
    heights = set()
    for k, make in enumerate(ARC_ORACLE_MAKERS + [
            lambda seed=seed: _skewed_sub_torus(seed) for seed in (1, 2, 3)]):
        s, fresh = make(), make()
        L, _ = surfballs.capture_length(s, mode="exact")
        want = {}
        for x in sorted(s.vertices):
            got = want[x] = surfballs.capture_length(s, mode="exact", x=x)
            assert got == surfballs.capture_length(fresh, mode="exact", x=x) == \
                arc_dict_exact_capture(s, x), x
            heights.add(got[0] > L)
        assert fresh._capture_cache.exact is None
        shuffled = sorted(want)
        random.Random(k).shuffle(shuffled)
        s = make()
        surfballs.capture_length(s, mode="exact")
        for x in shuffled:
            assert surfballs.capture_length(s, mode="exact", x=x) == want[x], x
    assert heights == {False, True}


def test_height_sweep_keeps_the_unbased_table_bound():
    # every base of torus7_sub has H'' = 0: the tables the unbased call
    # grows settle each based search, so none grows them further
    s = fixtures.subdivide(fixtures.torus7())
    L, _ = surfballs.capture_length(s, mode="exact")
    bound = s._capture_cache.bound
    assert bound == _table_bound(s)
    bases = sorted(s.vertices)
    assert len(bases) == 28
    for x in bases:
        assert surfballs.height(s, x)["Hpp"] == 0, x
        assert s._capture_cache.bound == bound, x


@pytest.mark.parametrize("make", [lambda: _skewed_sub_torus(1),
                                  lambda: _mixed_torus(1)],
                         ids=["torus7_sub_skewed1", "torus7_mixed1"])
def test_capture_on_smaller_tables_matches_fresh_build(make):
    # tables grown to b hold every walk of a candidate of total at most
    # b + lambda1: a call whose optimum is at most that keeps them as they
    # are, any other grows them to its greedy bound less lambda1 less one,
    # and either returns what a fresh surface does, unbased and based alike
    fresh = make()
    D = fresh.int_grid()[0]
    lambda1 = surfballs._on_grid(surfballs.systole(fresh, mode="homological")[0], D)
    bases = sorted(fresh.vertices)
    for x in (None, bases[0], bases[len(bases) // 2], bases[-1]):
        want = surfballs.capture_length(make(), mode="exact", x=x)
        need = _table_bound(fresh, x)
        edge = surfballs._on_grid(want[0], D) - lambda1   # kept from edge on
        kept = set()
        for b in sorted({0, lambda1 - 1, edge - 1, edge, edge + 1, need - 1}):
            if not 0 <= b < need:
                continue
            s = make()
            surfballs._capture_tables(s, b)
            assert surfballs.capture_length(s, mode="exact", x=x) == want, (x, b)
            assert s._capture_cache.bound == (b if b >= edge else need), (x, b)
            kept.add(b >= edge)
        if x is None:
            assert kept == {False, True}


@pytest.mark.parametrize("make", ARC_ORACLE_MAKERS + [lambda: _skewed_sub_torus(2)],
                         ids=ARC_ORACLE_IDS + ["torus7_sub_skewed2"])
def test_unbased_capture_after_based_calls_matches_fresh(make):
    s = make()
    for x in sorted(s.vertices)[::3]:
        surfballs.capture_length(s, mode="exact", x=x)
    assert s._capture_cache.exact is None
    assert surfballs.capture_length(s, mode="exact") == \
        surfballs.capture_length(make(), mode="exact")


def test_based_capture_floor_skips_arc_searches(monkeypatch):
    # every base of torus7_sub has H'' = 0; the full search runs 27 arc
    # searches at each
    s = fixtures.subdivide(fixtures.torus7())
    calls = _count_calls(monkeypatch, surfballs, "_arc_search")
    L, _ = surfballs.capture_length(s, mode="exact")
    assert not calls
    for x in sorted(s.vertices):
        calls.clear()
        assert surfballs.capture_length(s, mode="exact", x=x)[0] == L
        assert len(calls) <= 2, x
    # the counter sees the arc searches a based call runs
    fresh = fixtures.subdivide(fixtures.torus7())
    surfballs.capture_length(fresh, mode="exact", x=5)
    assert len(calls) > 2


@pytest.mark.parametrize("case", ["two-feet", "two-entries", "past-a-seed",
                                  "late-seed"])
def test_arc_search_tie_rule(case):
    # hand-built tables on torus7 (vertex = rank, unit lengths, dist(x, .) = 0)
    # whose seeds reach the state (v, (0, 0)): of the seeds that start a
    # shortest walk to it, the least foot rank wins, then the least entry
    # index
    s = fixtures.torus7()
    packing = surfballs._ClassPacking(s)
    step = s.homology().step

    def neg(*hs):
        return -sum(hs)

    w1, w2, v, y = 1, 4, 6, 0
    target = packing.state(v, 0)
    if case == "two-feet":
        # w1 -> v and w2 -> v, one edge each
        seeds = [(w1, (0, neg(step(w1, v)))), (w2, (0, neg(step(w2, v))))]
        cost, want = 1, (w1, 0)
    elif case == "two-entries":
        # w1 -> y -> v from entry 0, w1 -> v from entry 1, w2 -> v
        assert neg(step(w1, y), step(y, v)) != neg(step(w1, v))
        seeds = [(w1, (0, neg(step(w1, y), step(y, v)))),
                 (w1, (1, neg(step(w1, v)))), (w2, (1, neg(step(w2, v))))]
        cost, want = 2, (w1, 0)
    elif case == "past-a-seed":
        # a -> z -> v from a's entry, where the entry of z, a larger foot,
        # seeds the walk's state at z at its final cost 1: the walk back goes
        # on past that seed to a
        a, z = 2, w2
        seeds = [(a, (0, neg(step(a, z), step(z, v)))),
                 (z, (1, neg(step(z, v))))]
        cost, want = 2, (a, 0)
    else:
        # w1 -> y -> v from w1's entry; the entry of y, a smaller foot, seeds
        # the walk's state at y at cost 3, past its final cost 1, so its walk
        # to v costs 4 and it loses
        seeds = [(y, (3, neg(step(y, v)))),
                 (w1, (0, neg(step(w1, y), step(y, v))))]
        cost, want = 2, (w1, 0)

    def winner(chosen, cut):
        # the arc search over the chosen entries, the cost of its arc to
        # (v, (0, 0)) and that arc's (foot rank, entry index)
        row = [[] for _ in packing.verts]
        for w, entry in chosen:
            row[w].append(entry)
        dx = [0] * len(row)
        search = surfballs._arc_search(packing, row, dx, cut)
        found, = [d for d, h in search.lists[v] if h == 0]
        return search, (found, surfballs._arc_foot(search, row, dx, target))

    # the cut of the full set also seeds the late entry
    search, got = winner(seeds, cost + 3)
    assert got == (cost, want)
    tight = {target + delta for l, delta in packing.adj[v]
             if search.dist.get(target + delta) == cost - l}
    if case == "past-a-seed":
        # every shortest walk to the target runs through z's seeded state
        assert tight == {packing.state(z, seeds[1][1][1])}
    elif case == "late-seed":
        # the late entry's state is the target's one tight predecessor
        assert tight == {packing.state(y, seeds[0][1][1])}
    # each seed alone, at the cost it reaches the target at
    for w, (d1, g1) in seeds:
        alone = cost if case != "late-seed" or w != y else d1 + 1
        assert winner([(w, (d1, g1))], alone + 1)[1] == (alone, (w, 0))


@pytest.mark.parametrize("make", [lambda: fixtures.subdivide(fixtures.torus7()),
                                  lambda: _skewed_sub_torus(1)],
                         ids=["torus7_sub", "torus7_sub_skewed1"])
def test_arc_search_matches_table_brute_force(make):
    # each source u's seeded search against a brute force over the tuple
    # oracle's tables: per target v and class h, the least
    # d_u(w, g1) + dist(x, w) + d_v(w, g1 - h) below the cut over every foot
    # w and entry g1 of u at w, with the least (foot rank, entry index) of
    # the cheapest, which ``_arc_foot`` reads; every walk of such an arc
    # lies within the tables
    s = make()
    cut = _grid_bound(s)
    searches = surfballs._capture_tables(s, cut)
    tables = tuple_capture_tables(s, cut)
    pk, hom = s._capture_cache.packing, s.homology()
    verts = pk.verts
    for x in (verts[0], verts[-1]):
        distx = grid_shortest_paths(s, x)[0]
        dx = [distx[w] for w in verts]
        for ru, u in enumerate(verts):
            row = searches[ru].lists
            search = surfballs._arc_search(pk, row, dx, cut)
            got = {(v, class_tuple(hom, h)):
                   (k, *surfballs._arc_foot(search, row, dx, pk.state(rv, h)))
                   for rv, (v, lst) in enumerate(zip(verts, search.lists))
                   for k, h in lst}
            want = {}
            for rw, w in enumerate(verts):
                for i, (d1, g1) in enumerate(tables[u].get(w, ())):
                    if d1 + dx[rw] >= cut:
                        break
                    for v in verts:
                        for d2, g2 in tables[v].get(w, ()):
                            c = d1 + dx[rw] + d2
                            if c >= cut:
                                break
                            h = tuple(a - b for a, b in zip(g1, g2))
                            if (v, h) not in want or (c, rw, i) < want[v, h]:
                                want[v, h] = (c, rw, i)
            assert got == want, (x, u)
            # one arc per class, each target's in (cost, class) order
            assert len(got) == sum(map(len, search.lists)), (x, u)
            assert all(lst == sorted(lst) for lst in search.lists), (x, u)


def test_exact_capture_refuses_a_wrong_lambda1():
    for shift in (-1, 1):
        s = fixtures.subdivide(fixtures.torus7())
        surfballs._capture_tables(s, _grid_bound(s))   # lambda1 within them
        s._capture_cache.lambda1 += shift
        with pytest.raises(SurfaceError, match="greedy shortest cycle"):
            surfballs.capture_length(s, mode="exact")


GREEDY_SURFACES = {**CANDIDATE_SURFACES,
                   "torus7_mixed2": lambda: _mixed_torus(2),
                   "torus7_mixed3": lambda: _mixed_torus(3)}


@pytest.mark.parametrize("name", sorted(GREEDY_SURFACES))
def test_greedy_capture_matches_fraction_oracle(name):
    s = GREEDY_SURFACES[name]()
    L, edges = fraction_greedy_capture(s)
    on = {v for e in edges for v in e}
    assert surfballs.capture_length(s, mode="greedy") == (L, edges)
    for x in sorted(s.vertices):
        # based, a shortest arc from x joins the unbased basis
        arc = min(s.distances_from(x)[v] for v in on)
        Lx, ex = surfballs.capture_length(s, mode="greedy", x=x)
        assert Lx == L + arc == subgraph_length(s, ex), x
        assert edges <= ex and x in {v for e in ex for v in e}, x
        assert capturing_test(s, ex)[0], x
    lengths = [length for length, _ in fraction_homology_candidates(s)[0]]
    D = s.int_grid()[0]
    assert s._capture_cache.lambda1 == surfballs._on_grid(min(lengths), D)


def test_bool_base_refused():
    # True would otherwise stand for vertex 1, with or without a cached
    # unbased result
    for cached in (False, True):
        s = fixtures.torus7()
        if cached:
            surfballs.capture_length(s, mode="exact")
        for call in (lambda: surfballs.capture_length(s, mode="exact", x=True),
                     lambda: surfballs.capture_length(s, mode="greedy", x=True),
                     lambda: surfballs.systole_at(s, True)):
            with pytest.raises(GraphError, match="unknown source vertex True"):
                call()


def test_greedy_capture_upper_bounds_exact(torus):
    Lg, eg = surfballs.capture_length(torus, mode="greedy")
    Le, _ = surfballs.capture_length(torus, mode="exact")
    assert Lg >= Le
    ok, _ = capturing_test(torus, eg)
    assert ok


def test_greedy_capture_genus2(g2):
    L, edges = surfballs.capture_length(g2, mode="greedy")
    ok, rank = capturing_test(g2, edges)
    assert ok and rank == 4


# ---------------------------------------------------------------------------
# height and the small-ball window

def test_height_nonnegative_and_bounded(sub_torus):
    for x in (0, 7, 27):
        h = surfballs.height(sub_torus, x)
        assert h["Hpp"] >= 0
        assert h["Hpp"] <= h["dist_bound"]


def test_window_check_passes_on_refined_torus(sub_torus):
    h = surfballs.height(sub_torus, 7)
    sys_x, _ = surfballs.systole_at(sub_torus, 7)
    rep = surfballs.small_ball_area_check(sub_torus, 7, F(5, 4), hpp=h["Hpp"],
                                          sys_x=sys_x)
    assert rep["status"] == "pass"


def test_window_check_reads_a_low_inner_area_as_inconclusive():
    """The inner ball's area is only a lower bound: at base 0 of torus7_sub,
    R = 1/4 and 3/8 lie in the window (H'' = 0, sys/2 = 3/2), but no face
    has all three corners within R, so the area 0 misses the target and
    proves nothing; at R = 1/2 the check passes."""
    s = corpus_surface("torus7_sub.surf")
    h = surfballs.height(s, 0)
    sys_x, _ = surfballs.systole_at(s, 0)
    assert h["Hpp"] == 0 and sys_x == 3
    for R in (F(1, 4), F(3, 8)):
        rep = surfballs.small_ball_area_check(s, 0, R, hpp=h["Hpp"], sys_x=sys_x)
        assert rep["status"] == "inconclusive" and rep["area"] == 0
        assert rep["required"] == float(R) ** 2 / 2
        assert rep["reason"] == "inner-ball area, a lower bound, is below the target"
    rep = surfballs.small_ball_area_check(s, 0, F(1, 2), hpp=h["Hpp"], sys_x=sys_x)
    assert rep["status"] == "pass" and rep["margin"] >= 0 and "reason" not in rep


def test_window_check_inconclusive_outside(sub_torus):
    h = surfballs.height(sub_torus, 0)
    sys_x, _ = surfballs.systole_at(sub_torus, 0)
    rep = surfballs.small_ball_area_check(sub_torus, 0, F(2), hpp=h["Hpp"],
                                          sys_x=sys_x)   # 2 >= sys/2 = 3/2
    assert rep["status"] == "inconclusive"


@pytest.mark.parametrize("make", [
    lambda: corpus_surface("torus7_sub.surf"),
    lambda: relabeled(corpus_surface("torus7_sub.surf"), 3),
    lambda: _skewed_sub_torus(1)],
    ids=["torus7_sub", "torus7_sub_relabeled3", "torus7_sub_skewed1"])
def test_window_check_area_is_the_ball_area(make):
    """The check's area is ``ball(s, x, R).area(s)`` as a float, bit for
    bit, and its status and reason follow from that area: at every vertex,
    for each multiple of 1/8 inside the window (H'', sys_x/2) and for
    R = 11/8, in the window or not."""
    s = make()
    statuses = set()
    for x in sorted(s.vertices):
        hpp = surfballs.height(s, x)["Hpp"]
        sys_x, _ = surfballs.systole_at(s, x)
        radii = [F(k, 8) for k in range(math.floor(8 * hpp) + 1, math.ceil(4 * sys_x))]
        assert radii and all(hpp < R < sys_x / 2 for R in radii)
        for R in radii + [F(11, 8)]:
            rep = surfballs.small_ball_area_check(s, x, R, hpp=hpp, sys_x=sys_x)
            if not hpp < R < sys_x / 2:
                assert (rep["status"], rep["reason"]) == \
                    ("inconclusive", "outside admissible window")
                continue
            area = surfballs.ball(s, x, R).area(s)
            assert rep["area"] == area, (x, R)
            low = area < float(R - hpp) ** 2 / 2
            assert rep["status"] == ("inconclusive" if low else "pass"), (x, R)
            assert rep.get("reason") == (surfballs.LOW_INNER_AREA if low else None)
            statuses.add(rep["status"])
    assert statuses == {"pass", "inconclusive"}


def _scaled_corpus(name: str) -> TriSurface:
    return fixtures.scale_surface(corpus_surface(name), F(1, 10**12 + 3))


CORPUS_SURFACES = ["torus7.surf", "torus7_sub.surf", "torus7_sub_sixth.surf",
                   "genus2.surf", "genus2_neck.surf"]


@pytest.mark.parametrize("scaled", [False, True], ids=["corpus", "scaled"])
@pytest.mark.parametrize("name", CORPUS_SURFACES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_subgraph_length_matches_fraction_sum(name, scaled, data):
    """``subgraph_length`` sums grid lengths and builds one Fraction: it
    equals the Fraction sum over the distinct edges, for any pairs in any
    order and direction, repeats included, on the corpus and on copies
    scaled by 1/(10**12 + 3)."""
    s = _scaled_corpus(name) if scaled else corpus_surface(name)
    picks = data.draw(st.lists(st.tuples(st.sampled_from(s.edges), st.booleans()),
                               max_size=2 * len(s.edges)))
    pairs = [(w, u) if flip else (u, w) for (u, w), flip in picks]
    want = sum((s.edge_lengths[e] for e in {e for e, _ in picks}), F(0))
    assert subgraph_length(s, pairs) == want


def test_based_exact_capture_adds_no_fractions(monkeypatch):
    """On torus7_sub with the unbased result cached, a based exact call
    reads its greedy bound and floor on the grid and sums its realized
    length as ints: no Fraction addition runs, at any base."""
    s = corpus_surface("torus7_sub.surf")
    L, _ = surfballs.capture_length(s, mode="exact")
    adds = _count_calls(monkeypatch, F, "__add__")
    for x in sorted(s.vertices):
        assert surfballs.capture_length(s, mode="exact", x=x)[0] == L, x
    assert adds == []


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
@pytest.mark.parametrize("make, bounds_seen", [(lambda: _skewed_sub_torus(1), 1),
                                               (lambda: _mixed_torus(3), 2)],
                         ids=["torus7_sub_skewed1", "torus7_mixed3"])
def test_kept_arc_adjacency_follows_the_tables(make, bounds_seen, descending):
    """Every arc search runs on the packing's own adjacency, whatever the
    tables hold.  On fresh surfaces whose based calls grow the tables (the
    skewed torus7_sub from nothing, the mixed torus7 again later in both
    orders), each result is the oracle's, run on its own copy, which grows
    its own tables."""
    s, ref = make(), make()
    bases = sorted(s.vertices, reverse=descending)
    cache = surfballs._capture_cache(s)
    bounds = set()
    for x in bases:
        got = surfballs.capture_length(s, mode="exact", x=x)
        assert got == arc_dict_exact_capture(ref, x), x
        bounds.add(cache.bound)
    assert len(bounds) == bounds_seen
