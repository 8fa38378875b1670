import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverball import fixtures, nerve
from coverball.graphs import MetricGraph, betti
from coverball.linalg import Echelon
from coverball.surface import (SurfaceError, TriSurface, capturing_test,
                               heron, parse_surface, prune_pieces,
                               subgraph_length, subgraph_metric_graph, _pair)

from conftest import (NERVE_PACK_MESHES, FractionEchelon, _count_calls,
                      corpus_surface, format_surface, mixed_torus, pack_class,
                      prune_by_capturing_test, prune_to_iso, relabeled,
                      tetrahedron, walked_homology)


def test_tetrahedron_is_a_sphere():
    s = tetrahedron()
    assert s.genus == 0
    assert len(s.vertices) == 4 and len(s.edges) == 6 and len(s.faces) == 4
    assert len(s.homology().generators) == 0


def test_torus7_counts_and_genus():
    s = fixtures.torus7()
    assert (len(s.vertices), len(s.edges), len(s.faces)) == (7, 21, 14)
    assert s.genus == 1
    assert len(s.homology().generators) == 2


def test_genus2_counts_and_genus():
    s = fixtures.genus2()
    assert (len(s.vertices), len(s.edges), len(s.faces)) == (11, 39, 26)
    assert s.genus == 2
    assert len(s.homology().generators) == 4


def test_non_surface_rejected():
    with pytest.raises(SurfaceError, match=r"^non-manifold: edge \(0, 1\) lies in 3 faces$"):
        # edge shared by three faces
        TriSurface.build([(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4),
                          (2, 3, 0), (2, 4, 1), (3, 4, 1)], {})


def test_pinched_vertex_rejected():
    # two tetrahedra sharing only vertex 0: every edge lies in two faces and
    # vertex 0 has as many edges as faces, but its link is two cycles
    tet = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    pinched = tet + [tuple(v + 3 if v else 0 for v in f) for f in tet]
    with pytest.raises(SurfaceError, match=r"^non-manifold vertex 0 \(disconnected link\)$"):
        TriSurface.build(pinched)


TET = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def _shifted(faces, k):
    return [tuple(v + k for v in f) for f in faces]


@pytest.mark.parametrize("faces, lengths, message", [
    ([], None, "no faces"),
    (TET[:3] + [(1, 2, 2)], None, "degenerate face (1, 2, 2)"),
    (TET[:3] + [(1, 2, 3, 1)], None, "degenerate face (1, 2, 3, 1)"),
    (TET[:3], None, "non-manifold: edge (1, 2) lies in 1 faces"),
    (TET + _shifted(TET, 4), None, "disconnected surface"),
    (RP2, None, "non-orientable surface"),
    # the twisted part alone would read "non-orientable surface"
    (RP2 + _shifted(TET, 6), None, "disconnected surface"),
    (TET, {(5, 0): 1}, "length given for (0, 5), which is not an edge of any face"),
    (TET, {(2, 1): 0}, "nonpositive length on edge (1, 2)"),
    (TET, {(0, 1): 2}, "triangle inequality fails on face (0, 1, 2)"),
    # the message names the face as oriented: (0, 1, 3) runs 0 -> 1 as
    # face 0 does, so it is flipped
    (TET, {(1, 3): 2}, "triangle inequality fails on face (0, 3, 1)"),
    # an id is taken through operator.index, never truncated by int()
    ([(0, 1, 2.5)] + TET[1:], None, "vertex id 2.5 is not an integer"),
    ([(0, 1, True)] + TET[1:], None, "vertex id True is not an integer"),
    (TET, {(0, 1, 2): 1}, "length key (0, 1, 2) is not a vertex pair"),
    (TET, {(0, 1): "x"}, "length 'x' on (0, 1) is not a rational number"),
    (TET, {(0, 1): "1/0"}, "length '1/0' on (0, 1) is not a rational number"),
    # positivity runs before the triangle check: (0, 1) = 2 makes face
    # (0, 1, 2) flat, but the zero on (2, 3) is named
    (TET, {(0, 1): 2, (2, 3): 0}, "nonpositive length on edge (2, 3)"),
    # lengths on non-edges are refused before any length is read
    (TET, {(0, 1): 0, (5, 0): 1},
     "length given for (0, 5), which is not an edge of any face"),
], ids=["no_faces", "degenerate", "four_vertex_face", "edge_in_one_face",
        "two_tetrahedra", "rp2", "rp2_and_tetrahedron", "length_on_non_edge",
        "nonpositive_length", "triangle_inequality",
        "triangle_inequality_on_flipped_face", "non_integer_vertex",
        "bool_vertex", "length_key_not_a_pair", "length_not_rational",
        "length_zero_denominator", "zero_length_before_flat_face",
        "non_edge_before_zero_length"])
def test_build_rejects_with_message(faces, lengths, message):
    with pytest.raises(SurfaceError, match=f"^{re.escape(message)}$"):
        TriSurface.build(faces, lengths)


NEAR_ONE = F(10**12 - 1, 10**12 + 1)        # a denominator near 10**12
# in [1/2, 1] any three lengths meet the strict triangle inequality but
# (1, 1/2, 1/2), which is flat; the wide pool adds short sides
NARROW = [F(1, 2), F(8, 15), F(4, 7), F(3, 5), F(2, 3), F(5, 6), F(1), NEAR_ONE]
WIDE = NARROW + [F(1, 3), F(1, 5), F(1, 7), F(7, 15), F(1, 6)]


def _first_bad_face(s, ls):
    """Fraction oracle: the first face of ``s`` whose lengths under ``ls``
    miss a strict triangle inequality, or None."""
    for a, b, c in s.faces:
        la, lb, lc = ls[_pair(b, c)], ls[_pair(a, c)], ls[_pair(a, b)]
        if not (la < lb + lc and lb < la + lc and lc < la + lb):
            return (a, b, c)
    return None


@given(st.sampled_from(["tetrahedron", "torus7"]), st.data())
@settings(max_examples=200, deadline=None)
def test_build_triangle_check_matches_fraction_oracle(name, data):
    s = tetrahedron() if name == "tetrahedron" else fixtures.torus7()
    pool = data.draw(st.sampled_from([NARROW, WIDE]))
    scale = data.draw(st.sampled_from([F(1), F(1, 3), F(7, 15), F(1, 10**12 + 3)]))
    ls = {e: data.draw(st.sampled_from(pool)) * scale for e in s.edges}
    if data.draw(st.booleans()):
        # one face made exactly flat: 1/3 + 1/6 = 1/2
        a, b, c = data.draw(st.sampled_from(s.faces))
        flat = data.draw(st.permutations([F(1, 3), F(1, 6), F(1, 2)]))
        for e, l in zip((_pair(a, b), _pair(b, c), _pair(a, c)), flat):
            ls[e] = l * scale
    bad = _first_bad_face(s, ls)
    if bad is not None:
        message = f"triangle inequality fails on face {bad}"
        with pytest.raises(SurfaceError, match=f"^{re.escape(message)}$"):
            TriSurface.build(s.faces, ls)
        return
    t = TriSurface.build(s.faces, ls)
    assert t.faces == s.faces and t.edge_lengths == ls
    D = math.lcm(*(l.denominator for l in ls.values()))
    assert t.int_grid()[0] == D
    assert t.grid_lengths() == [ls[e] * D for e in t.edges]


def test_build_runs_no_fraction_arithmetic(monkeypatch):
    # the nerve-pack torus7x3 mesh: 1344 edges of length 1/32
    m = fixtures.scale_surface(fixtures.subdivide(fixtures.torus7(), 3), F(1, 4))
    calls = {name: _count_calls(monkeypatch, F, name)
             for name in ("__add__", "__sub__", "__lt__", "__le__", "__gt__", "__ge__")}
    s = TriSurface.build(m.faces, m.edge_lengths)
    assert len(s.edges) == 1344
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)


ORIENTED = [fixtures.torus7(), fixtures.genus2(), fixtures.subdivide(fixtures.torus7())]


@pytest.mark.parametrize("s", ORIENTED, ids=["torus7", "genus2", "torus7_sub"])
def test_build_orients_reversed_faces(s):
    for faces in _reversed_face_inputs(s):
        t = TriSurface.build(faces, s.edge_lengths)
        assert t.faces == s.faces


def _reversed_face_inputs(s):
    """Five face lists of ``s`` with random faces other than face 0 reversed."""
    rng = random.Random(len(s.faces))
    for _ in range(5):
        flipped = rng.sample(range(1, len(s.faces)), rng.randrange(1, len(s.faces)))
        faces = list(s.faces)
        for i in flipped:
            a, b, c = faces[i]
            faces[i] = (a, c, b)
        yield faces


def test_incidence_tables_match_definitions():
    base = [corpus_surface(n) for n in ("torus7.surf", "torus7_sub.surf", "genus2.surf")]
    base += [tetrahedron()]
    surfaces = base + [fixtures.subdivide(s) for s in base]
    surfaces += [relabeled(s, seed) for s in base for seed in (1, 2)]
    surfaces += [TriSurface.build(faces, s.edge_lengths)
                 for s in ORIENTED for faces in _reversed_face_inputs(s)]
    for s in surfaces:
        runs = {}
        at = {v: [] for v in s.vertices}
        for i, (a, b, c) in enumerate(s.faces):
            for u, w in ((a, b), (b, c), (c, a)):
                assert (u, w) not in runs
                runs[(u, w)] = i
            for v in (a, b, c):
                at[v].append(i)
        assert s.edge_faces == {(u, w): (i, runs[(w, u)])
                                for (u, w), i in runs.items() if u < w}
        assert s.vertex_faces == at
        assert s.edges == tuple(sorted(s.edge_faces))
        # per face (a, b, c): edges (a, b), (b, c), (a, c), each with the
        # face that runs it the other way
        assert s.face_edges() == [
            [(_pair(u, w), runs[(w, u)]) for u, w in ((a, b), (b, c), (c, a))]
            for a, b, c in s.faces]
        V, E, F_ = len(s.vertices), len(s.edges), len(s.faces)
        assert 2 * s.genus == 2 - V + E - F_


@pytest.mark.parametrize("s", [fixtures.genus2(),
                               fixtures.subdivide(fixtures.torus7())],
                         ids=["genus2", "torus7_sub"])
def test_skeleton_grid_adjacency_in_edge_id_order(s):
    g = subgraph_metric_graph(s, s.edges)
    D, adj = g.int_grid()
    assert (D, adj) == s.int_grid()
    for v in s.vertices:
        es = sorted(g.incident(v), key=lambda e: e.id)
        assert adj[v] == [(e.length * D, e.other(v)) for e in es]


def near_one_torus() -> TriSurface:
    """torus7 with lengths 2/3, 4/7, NEAR_ONE, 5/6 and 3/5 in turn, all in
    (1/2, 1), so D = 210 * (10**12 + 1)."""
    t = fixtures.torus7()
    cycle = (F(2, 3), F(4, 7), NEAR_ONE, F(5, 6), F(3, 5))
    return TriSurface.build(t.faces, {e: cycle[i % 5] for i, e in enumerate(t.edges)})


GRID_SURFACES = {
    "torus7.surf": lambda: corpus_surface("torus7.surf"),
    "torus7_sub.surf": lambda: corpus_surface("torus7_sub.surf"),
    "genus2.surf": lambda: corpus_surface("genus2.surf"),
    "genus2x1": lambda: fixtures.subdivide(fixtures.genus2()),
    "torus7x2": lambda: fixtures.subdivide(fixtures.torus7(), 2),
    "mixed_torus": mixed_torus,
    "mixed_torus_x1_relabeled": lambda: relabeled(fixtures.subdivide(mixed_torus()), 6),
    "torus7x2_scaled": lambda: fixtures.scale_surface(
        fixtures.subdivide(fixtures.torus7(), 2), F(7, 15)),
    "genus2x1_scaled_relabeled": lambda: relabeled(fixtures.scale_surface(
        fixtures.subdivide(fixtures.genus2()), F(1, 3)), 4),
    "near_one_torus_x1": lambda: fixtures.subdivide(near_one_torus()),
}


@pytest.mark.parametrize("name", list(GRID_SURFACES))
def test_grid_table_matches_metric_graph_and_fractions(name):
    s = GRID_SURFACES[name]()
    # build keeps D and the grid lengths; the adjacency waits for first use
    assert s._adj is None
    D = math.lcm(*(l.denominator for l in s.edge_lengths.values()))
    assert s.grid_lengths() == [s.edge_lengths[e] * D for e in s.edges]
    assert s._adj is None
    assert s.int_grid() == subgraph_metric_graph(s, s.edges).int_grid()
    assert s.int_grid()[0] == D
    for i, (a, b, c) in enumerate(s.faces):
        want = heron(float(s.edge_lengths[_pair(b, c)]),
                     float(s.edge_lengths[_pair(a, c)]),
                     float(s.edge_lengths[_pair(a, b)]))
        assert s.face_areas()[i].hex() == want.hex()


@pytest.mark.parametrize("name", list(GRID_SURFACES))
def test_nerve_capture_and_pruning_build_no_skeleton(name, monkeypatch):
    # they read the surface's grid table: the one graph built is the nerve
    s = GRID_SURFACES[name]()
    built = _count_calls(monkeypatch, MetricGraph, "__post_init__")
    rep = nerve.nerve_graph(s)
    capturing_test(s, s.edges)
    prune_pieces(s, [[e] for e in s.edges])
    assert [a[0] for a in built] == [rep.nerve]


def test_heron_area_unit_torus():
    s = fixtures.torus7()
    import math
    assert abs(s.total_area() - 14 * math.sqrt(3) / 4) < 1e-12


def test_distances_symmetric_triangle_inequality():
    s = fixtures.torus7()
    d = {v: s.distances_from(v) for v in s.vertices}
    for a in s.vertices:
        for b in s.vertices:
            assert d[a][b] == d[b][a]
            for c in s.vertices:
                assert d[a][c] <= d[a][b] + d[b][c]


def test_subdivision_preserves_distances():
    s = fixtures.torus7()
    sub = fixtures.subdivide(s)
    d0 = s.distances_from(0)
    d1 = sub.distances_from(0)
    for v in s.vertices:
        assert d0[v] == d1[v]


def test_scale_surface():
    s = fixtures.scale_surface(fixtures.torus7(), F(1, 4))
    assert all(l == F(1, 4) for l in s.edge_lengths.values())
    assert s.genus == 1


# ---------------------------------------------------------------------------
# homology and capturing

def torus_loop_pair(s):
    # 0-1-2-...-0 by step 1 and by step 2 are independent torus loops
    a = [(i, (i + 1) % 7) for i in range(7)]
    b = [(0, 2), (2, 4), (4, 6), (6, 1), (1, 3), (3, 5), (5, 0)]
    return {_pair(u, w) for (u, w) in a} | {_pair(u, w) for (u, w) in b}


def test_torus_generating_pair_rank2():
    s = fixtures.torus7()
    sub = torus_loop_pair(s)
    ok, rank = capturing_test(s, sub)
    assert ok and rank == 2


def test_torus_single_loop_fails():
    s = fixtures.torus7()
    sub = {_pair(i, (i + 1) % 7) for i in range(7)}
    ok, rank = capturing_test(s, sub)
    assert not ok and rank == 1


def test_genus2_four_loops_and_drop_one():
    s = fixtures.genus2()
    # two non-face triangles per handle, supported away from the gluing
    loops = [[2, 4, 6], [2, 5, 6], [9, 11, 13], [9, 12, 13]]
    sets = [{_pair(a, b) for a, b in zip(l, l[1:] + l[:1])} for l in loops]
    union = set().union(*sets)
    ok, rank = capturing_test(s, union)
    assert ok and rank == 4
    for k in range(4):
        dropped = set().union(*(sets[j] for j in range(4) if j != k))
        ok, rank = capturing_test(s, dropped)
        assert not ok and rank == 3


@pytest.mark.parametrize("fix", [fixtures.torus7, fixtures.genus2])
def test_prune_full_skeleton_to_iso(fix):
    s = fix()
    sub = prune_to_iso(s, set(s.edges))
    ok, rank = capturing_test(s, sub)
    assert ok and rank == 2 * s.genus
    assert betti(subgraph_metric_graph(s, sub)) == 2 * s.genus


def test_prune_to_iso_on_1344_edge_torus():
    big = fixtures.subdivide(fixtures.torus7(), 2)
    assert len(big.edges) == 336
    bigger = fixtures.subdivide(big)
    assert len(bigger.edges) == 1344
    assert len(bigger.homology().generators) == 2
    sub = prune_to_iso(bigger, set(bigger.edges))
    ok, rank = capturing_test(bigger, sub)
    assert ok and rank == 2


def test_echelon_rank_and_membership():
    e = FractionEchelon()
    assert e.add({0: F(1), 2: F(2)})
    assert e.add({2: F(1)})
    assert not e.add({0: F(2), 2: F(4)})
    assert e.rank == 2
    # residual reduction continues past pivotless columns
    r = e.reduce({0: F(1), 1: F(5), 2: F(3)})
    assert 0 not in r and 2 not in r and r[1] == F(5)


def test_echelon_exact_on_integer_input():
    # the fourth vector is 3*v1 - 2*v2 + v3; float pivots from integer
    # division once made it look independent
    vecs = [{0: 6, 1: -9, 2: 6, 3: -8}, {0: 9, 1: 9, 2: 3, 3: -4, 4: -4},
            {0: 7, 1: -2, 2: -9, 3: -3, 4: 8}, {0: 7, 1: -47, 2: 3, 3: -19, 4: 16}]
    e = FractionEchelon()
    assert [e.add(v) for v in vecs] == [True, True, True, False]
    assert e.rank == 3
    assert all(isinstance(x, F) for row in e.pivots.values() for x in row.values())


def _width_rule_n(s: TriSurface) -> int:
    """N of the width rule in ``HomologyData``: max(4|E|, 2(2S // lmin + 1))."""
    lengths = s.edge_lengths.values()
    return max(4 * len(s.edges), 2 * (2 * sum(lengths) // min(lengths) + 1))


# N on the nerve-pack surface, genus 2 subdivided twice: its packing keeps
# the coordinates of a sum of up to N edge classes, each at most N in size
ROW_N = _width_rule_n(fixtures.subdivide(fixtures.genus2(), 2))


@st.composite
def echelon_rows(draw):
    """Rows of k <= 30 integer entries in [-N, N], zeros and units often,
    some rows exact integer combinations of earlier ones."""
    k = draw(st.integers(1, 30))
    entry = st.sampled_from((0, 0, 1, -1)) | st.integers(-ROW_N, ROW_N)
    rows = []
    for _ in range(draw(st.integers(1, k + 3))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * r[i] for c, r in zip(coeffs, rows))
                         for i in range(k)])
        else:
            rows.append(draw(st.lists(entry, min_size=k, max_size=k)))
    return rows


@example([[6, -9, 6, -8, 0], [9, 9, 3, -4, -4], [7, -2, -9, -3, 8],
          [7, -47, 3, -19, 16]])      # the fourth row is 3v1 - 2v2 + v3
@settings(max_examples=200, deadline=None)
@given(echelon_rows())
def test_integer_echelon_matches_fraction_oracle(rows):
    ech, oracle = Echelon(), FractionEchelon()
    assert [ech.add(r) for r in rows] == [oracle.add(dict(enumerate(r))) for r in rows]
    assert ech.rank == oracle.rank
    # the same pivot columns; each integer pivot row is primitive and a
    # multiple of the oracle's, whose lead is 1
    assert ech.pivots.keys() == oracle.pivots.keys()
    for c, p in ech.pivots.items():
        assert math.gcd(*p) == 1
        assert [F(x, p[c]) for x in p] == [oracle.pivots[c].get(i, 0)
                                           for i in range(len(p))]


def test_surface_round_trip():
    for fix in (fixtures.torus7, fixtures.genus2):
        text = format_surface(fix())
        assert format_surface(parse_surface(text)) == text


def test_subgraph_length():
    s = fixtures.torus7()
    sub = {_pair(i, (i + 1) % 7) for i in range(7)}
    assert subgraph_length(s, sub) == 7


# ---------------------------------------------------------------------------
# independent homology oracle: rank of Z1(sub) in C1 / B over Q^E

def _rational_rank_increase(pivots, rows) -> int:
    """Insert rows into a dict-of-pivot-rows echelon over Q (updated in
    place); returns how many enlarged the span."""
    grew = 0
    for row in rows:
        v = {c: F(x) for c, x in row.items() if x}
        while v:
            c = min(v)
            if c not in pivots:
                pivots[c] = {k: x / v[c] for k, x in v.items()}
                grew += 1
                break
            f = v[c]
            for k, x in pivots[c].items():
                nv = v.get(k, 0) - f * x
                if nv:
                    v[k] = nv
                else:
                    del v[k]
    return grew


def _chain(s, walk) -> dict[int, int]:
    index = {e: i for i, e in enumerate(s.edges)}
    out: dict[int, int] = {}
    for x, y in zip(walk, walk[1:]):
        i = index[_pair(x, y)]
        out[i] = out.get(i, 0) + (1 if x < y else -1)
    return out


def _cycle_basis_chains(s, sub):
    """Fundamental cycles of a BFS forest of the subgraph, as edge chains."""
    adj: dict[int, list[int]] = {}
    for u, w in sub:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    parent: dict[int, int | None] = {}
    for r in sorted(adj):
        if r in parent:
            continue
        parent[r] = None
        queue = [r]
        for v in queue:
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    queue.append(u)

    def to_root(v):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    tree = {_pair(v, p) for v, p in parent.items() if p is not None}
    for u, w in sub:
        if (u, w) not in tree:
            yield _chain(s, [u] + to_root(w) + to_root(u)[::-1][1:])


ORACLE_SURFACES = {
    "torus7": fixtures.torus7,
    "genus2": fixtures.genus2,
    "genus2x1": lambda: fixtures.subdivide(fixtures.genus2()),
    "torus7x2": lambda: fixtures.subdivide(fixtures.torus7(), 2),
    "genus2x2": lambda: fixtures.subdivide(fixtures.genus2(), 2),
}


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_capturing_rank_matches_face_relation_oracle(name):
    s = ORACLE_SURFACES[name]()
    assert len(s.homology().generators) == 2 * s.genus
    boundaries: dict = {}
    dim_b = _rational_rank_increase(
        boundaries, (_chain(s, f + f[:1]) for f in s.faces))
    assert dim_b == len(s.faces) - 1
    rng = random.Random(len(s.edges))
    ranks = set()
    # densities near the bond percolation threshold give every rank
    for density in (0.25, 0.3, 0.35, 0.4, 0.45, 1.0):
        for _ in range(3):
            sub = [e for e in s.edges if rng.random() < density]
            expected = _rational_rank_increase(dict(boundaries),
                                               _cycle_basis_chains(s, sub))
            ok, rank = capturing_test(s, sub)
            assert rank == expected
            assert ok == (rank == 2 * s.genus)
            ranks.add(rank)
    assert any(0 < r < 2 * s.genus for r in ranks)


def _short_edge_torus() -> TriSurface:
    """torus7 subdivided once, one edge of length 1/2 and the rest 1, so
    that 2S / lmin exceeds 2|E|."""
    t = fixtures.subdivide(fixtures.torus7())
    return TriSurface.build(t.faces, {t.edges[0]: F(1, 2)})


HOMOLOGY_SURFACES = {
    "torus7": fixtures.torus7,
    "genus2": fixtures.genus2,
    "genus2x2": lambda: fixtures.subdivide(fixtures.genus2(), 2),
    "torus7x3": lambda: fixtures.subdivide(fixtures.torus7(), 3),
    "torus7_sub_relabeled": lambda: relabeled(fixtures.subdivide(fixtures.torus7()), 5),
    "torus7_sub_short_edge": _short_edge_torus,
    **GRID_SURFACES,
    # face 0 and the union-find's edge order both move, so C differs
    **{f"{name}_pack_shuffled{seed}":
       lambda make=make, seed=seed: relabeled(make(), seed, shuffle_faces=True)
       for name, make in NERVE_PACK_MESHES.items() for seed in (1, 2)},
}


@pytest.mark.parametrize("name", list(HOMOLOGY_SURFACES))
def test_homology_matches_walked_oracle(name):
    s = HOMOLOGY_SURFACES[name]()
    hom = s.homology()
    tree_parent, generators, edge_class = walked_homology(s)
    assert hom.tree_parent == tree_parent
    assert hom.generators == generators
    assert {e: tuple(hom.digits(c)) for e, c in hom.edge_class.items()} == edge_class


def test_face_check_reads_the_oriented_triangles():
    """The face relations are checked on the triangles, not on
    ``edge_faces`` alone: with one generator's two faces listed the wrong
    way round, T, C and the generators stay, but the walk's classes no
    longer close up around the triangles."""
    hom = fixtures.genus2().homology()
    t = fixtures.genus2()
    g = hom.generators[0]
    t.edge_faces = {**t.edge_faces, g: t.edge_faces[g][::-1]}
    with pytest.raises(SurfaceError,
                       match="^face boundary has a nonzero homology class$"):
        t.homology()


@pytest.mark.parametrize("name", list(NERVE_PACK_MESHES))
def test_homology_and_nerve_build_no_face_table(name):
    """The edge classes come from the two spanning trees alone, so neither
    the homology nor a whole nerve run fills ``face_edges``."""
    s = NERVE_PACK_MESHES[name]()
    s.homology()
    assert s._face_edges is None
    s = NERVE_PACK_MESHES[name]()
    assert nerve.nerve_graph(s).image_captures
    assert s._homology is not None and s._face_edges is None


@pytest.mark.parametrize("name", list(HOMOLOGY_SURFACES))
def test_packed_class_width_rule(name):
    """Edge class digits are -1, 0 or 1, coordinate i in digit 2g-1-i, and
    ``width`` leaves room for a signed sum of N = max(4|E|, 2(2S//lmin + 1))
    of them: ``digits`` inverts packing at digits of magnitude N and on such
    sums, and int order is the order of the coordinate tuples."""
    s = HOMOLOGY_SURFACES[name]()
    hom = s.homology()
    k, four_e = 2 * s.genus, 4 * len(s.edges)
    n = _width_rule_n(s)
    # the length term widens the digits only where an edge is short
    assert (hom.width > four_e.bit_length() + 1) == (name == "torus7_sub_short_edge")

    def pack(digits):
        return pack_class(hom, tuple(digits))

    digits = walked_homology(s)[2]
    for e, c in hom.edge_class.items():
        assert set(digits[e]) <= {-1, 0, 1}
        assert c == pack(digits[e])
    for vec in itertools.product((-n, -1, 0, 1, n), repeat=k):
        assert hom.digits(pack(vec)) == list(vec)
    rng = random.Random(n)
    edges = sorted(hom.edge_class)
    for _ in range(10):
        total, want = 0, [0] * k
        for _ in range(n):
            e, sign = rng.choice(edges), rng.choice((1, -1))
            total += sign * hom.edge_class[e]
            for i, x in enumerate(digits[e]):
                want[i] += sign * x
        assert hom.digits(total) == want
    vecs = [tuple(rng.randint(-n, n) for _ in range(k)) for _ in range(200)]
    vecs += list(itertools.product((-n, 0, n), repeat=k))
    assert sorted(vecs, key=pack) == sorted(vecs)


# ---------------------------------------------------------------------------
# the dual-side pruner against the per-trial capturing_test loop

PRUNE_SURFACES = {
    "torus7": fixtures.torus7(),
    "genus2": fixtures.genus2(),
    "genus2x1": fixtures.subdivide(fixtures.genus2()),
    "torus7_sub": fixtures.subdivide(fixtures.torus7()),
}


def _random_pieces(s, rng):
    """Walks of 1 to 6 steps, so pieces overlap, then (mostly, and always
    when the walks alone do not capture) each uncovered edge on its own."""
    g = subgraph_metric_graph(s, s.edges)
    nbrs = {v: sorted(e.other(v) for e in g.incident(v)) for v in s.vertices}
    pieces = []
    for _ in range(rng.randint(1, len(s.edges))):
        walk = [rng.choice(s.vertices)]
        for _ in range(rng.randint(1, 6)):
            walk.append(rng.choice(nbrs[walk[-1]]))
        pieces.append({_pair(a, b) for a, b in zip(walk, walk[1:])})
    covered = set().union(*pieces)
    if rng.random() < 0.8 or not capturing_test(s, covered)[0]:
        pieces += [{e} for e in s.edges if e not in covered]
    rng.shuffle(pieces)
    return pieces


@given(st.sampled_from(sorted(PRUNE_SURFACES)), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_prune_pieces_matches_capturing_test_loop(name, rng):
    s = PRUNE_SURFACES[name]
    pieces = _random_pieces(s, rng)
    kept, trials = prune_by_capturing_test(s, pieces)
    assert prune_pieces(s, pieces) == kept
    # each trial alone: the full skeleton leaves iff the union captures
    # (then the union stays, as the empty graph does not capture)
    for union, ok in trials:
        assert prune_pieces(s, [s.edges, union]) == ([1] if ok else [0])


# vertex pairs that are not edges: an unknown vertex, either way round, a
# loop, and two vertices of genus2 with no edge between them
NON_EDGES = [("torus7", (0, 99)), ("torus7", (99, 0)), ("torus7", (0, 0)),
             ("genus2", (2, 9))]


@pytest.mark.parametrize("name, pair", NON_EDGES)
def test_non_edge_pair_is_named(name, pair):
    s = getattr(fixtures, name)()
    message = re.escape(f"pair {pair} is not an edge of the surface")
    with pytest.raises(SurfaceError, match=message):
        capturing_test(s, list(s.edges) + [pair])
    with pytest.raises(SurfaceError, match=message):
        prune_pieces(s, [s.edges, [pair]])
    for call in (subgraph_length, subgraph_metric_graph, prune_to_iso):
        with pytest.raises(SurfaceError, match=message):
            call(s, list(s.edges) + [pair])


def test_prune_pieces_refuses_a_non_capturing_union():
    s = fixtures.torus7()
    with pytest.raises(SurfaceError):
        prune_pieces(s, [[_pair(i, (i + 1) % 7)] for i in range(7)])
