"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each."""

import math
import random
import time
from fractions import Fraction as F
from importlib import resources

import pytest

from conftest import (build_cover_subtree, cover_distance, format_surface,
                      prune_to_iso, random_bounded_instance,
                      rescaling_lambda_search, shrink_factor_grid_check)
from coverball import cli, cover, fixtures, nerve, surfballs, witness
from coverball.graphs import (MetricGraph, betti, format_graph, girth,
                              parse_graph, random_connected, reduce_graph,
                              scale, trivalent_reference)
from coverball.surface import (capturing_test, parse_surface,
                               subgraph_metric_graph, _pair)

LAMBDAS = [F(1, 20), F(1, 10), F(1, 6), F(1, 4), F(3, 10)]


def report(n, ok, detail=""):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_reference_ball_identity():
    t0 = time.time()
    g = trivalent_reference(2)
    base = min(g.vertices)
    ok = True
    for k in range(41):
        R = F(k, 4)
        exact = cover.ball_length(g, base, R)
        ok &= not exact.truncated
        ok &= exact.total_length == cover.trivalent_tree_ball(R)
        ok &= float(cover.trivalent_tree_ball(R)) >= \
            math.sinh(float(R) * math.log(2)) - 1e-9
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10, f"{elapsed:.2f}s")


def test_criterion_02_randomized_witness_verification():
    t0 = time.time()
    failures = 0
    for seed in range(200):
        b = 2 + seed % 7
        lam = LAMBDAS[seed % 5]
        g = random_bounded_instance(b, lam * (3 * b - 3), seed)
        cert = witness.find_witness(g, lam)
        mu = witness.params_from_lambda(lam).mu
        rep = witness.verify_certificate(g, cert, [k * mu for k in (1, 2, 3, 4)])
        failures += rep["failures"]
    elapsed = time.time() - t0
    report(2, failures == 0 and elapsed < 300,
           f"200 graphs, {failures} failures, {elapsed:.1f}s")


def test_criterion_03_subtree_structure():
    ok = True
    for i in range(50):
        rng = random.Random(1000 + i)
        b = 2 + i % 3
        lam = LAMBDAS[i % 5]
        c_prime = 1 / (3 * lam) - 1
        base = trivalent_reference(b)
        g = MetricGraph.build(
            sorted(base.vertices),
            [(e.id, e.u, e.w, F(rng.randint(1, 8), 8)) for e in base.edges])
        sw = build_cover_subtree(g, c_prime, depth=4)
        for (_, _, _, length) in sw.super_edges:
            ok &= c_prime <= length <= c_prime + 1
        # tree combinatorial distances by BFS over super-edges
        import collections
        adj = collections.defaultdict(list)
        for (a, bb, _, _) in sw.super_edges:
            adj[a].append(bb)
            adj[bb].append(a)
        n = len(sw.nodes)
        for s0 in range(n):
            seen = {s0: 0}
            q = collections.deque([s0])
            while q:
                x = q.popleft()
                for y in adj[x]:
                    if y not in seen:
                        seen[y] = seen[x] + 1
                        q.append(y)
            for s1 in range(s0 + 1, n):
                d = cover_distance(g, sw.nodes[s0], sw.nodes[s1])
                ok &= c_prime * seen[s1] <= d <= (c_prime + 1) * seen[s1]
        if not ok:
            break
    report(3, ok, "50 instances, depth 4")


def test_criterion_04_reductions_dominate():
    ok = True
    for seed in range(50):
        rng = random.Random(2000 + seed)
        g = random_connected(2 + seed % 5, (F(1, 4), F(1)), seed)
        # hang pendant edges so the reduction has work to do
        edges = [(e.id, e.u, e.w, e.length) for e in g.edges]
        nv = max(g.vertices) + 1
        eid = g.next_edge_id()
        verts = list(g.vertices)
        for _ in range(rng.randint(1, 3)):
            edges.append((eid, rng.choice(sorted(g.vertices)), nv,
                          F(rng.randint(1, 8), 8)))
            verts.append(nv)
            nv += 1
            eid += 1
        full = MetricGraph.build(verts, edges)
        red, _ = reduce_graph(full)
        ok &= betti(red) == betti(full)
        ok &= red.total_length() <= full.total_length()
        for v in sorted(red.vertices):
            for R in (F(1, 2), F(1), F(2)):
                ok &= cover.ball_length(red, v, R).total_length <= \
                    cover.ball_length(full, v, R).total_length
        if not ok:
            break
    report(4, ok, "50 graphs, R in {1/2, 1, 2}")


def test_criterion_05_scaling_and_projection():
    ok = True
    for seed in range(20):
        g = random_connected(2 + seed % 4, (F(1, 4), F(1)), 3000 + seed)
        v = min(g.vertices)
        R = F(3, 4)
        for mu in (F(1, 3), F(2), F(7, 5)):
            ok &= cover.ball_length(scale(g, mu), v, mu * R).total_length == \
                mu * cover.ball_length(g, v, R).total_length
        half_girth = girth(g) / 2
        for Rp in (half_girth / 2, half_girth):
            ok &= cover.finite_ball_length(g, v, Rp) == \
                cover.ball_length(g, v, Rp).total_length
        if not ok:
            break
    report(5, ok, "20 graphs, mu in {1/3, 2, 7/5}")


def test_criterion_06_homology_capturing_ranks():
    ok = True
    torus = fixtures.torus7()
    pair = {_pair(i, (i + 1) % 7) for i in range(7)} | \
        {_pair(u, w) for (u, w) in
         [(0, 2), (2, 4), (4, 6), (6, 1), (1, 3), (3, 5), (5, 0)]}
    captures, rank = capturing_test(torus, pair)
    ok &= captures and rank == 2

    g2 = fixtures.genus2()
    loops = [[2, 4, 6], [2, 5, 6], [9, 11, 13], [9, 12, 13]]
    sets = [{_pair(a, b) for a, b in zip(l, l[1:] + l[:1])} for l in loops]
    captures, rank = capturing_test(g2, set().union(*sets))
    ok &= captures and rank == 4
    for k in range(4):
        dropped = set().union(*(sets[j] for j in range(4) if j != k))
        captures, rank = capturing_test(g2, dropped)
        ok &= (not captures) and rank == 3

    for s in (torus, g2):
        iso = prune_to_iso(s, set(s.edges))
        captures, rank = capturing_test(s, iso)
        ok &= captures and rank == 2 * s.genus
        ok &= betti(subgraph_metric_graph(s, iso)) == 2 * s.genus
    report(6, ok, "torus rank 2, genus-2 rank 4/3-on-drop, iso Betti 2g")


def test_criterion_07_nerve_pipeline():
    t0 = time.time()
    ok = True
    for s in (fixtures.scale_surface(fixtures.subdivide(fixtures.torus7(), 4),
                                     F(1, 4)),
              fixtures.scale_surface(fixtures.subdivide(fixtures.genus2(), 3),
                                     F(1, 4))):
        rep = nerve.nerve_graph(s)
        ok &= rep.precondition_ok          # per-ball area >= r0^2/4
        ok &= rep.packing_bound_ok         # |I| <= 2^12 * area
        ok &= rep.non_expansion_ok         # every nerve edge maps 1/4 -> <= 1/4
        ok &= rep.image_captures
        bound = F(len(rep.centers) - 1 + 2 * s.genus, 4)
        ok &= rep.pruned_length <= bound   # exact rational comparison
    elapsed = time.time() - t0
    report(7, ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_08_small_ball_window():
    s = fixtures.subdivide(fixtures.torus7())
    ok = True
    checked = 0
    negatives = []
    for x in sorted(s.vertices):
        h = surfballs.height(s, x, mode="exact")
        sys_x, _ = surfballs.systole_at(s, x)
        for R in (F(1, 2), F(1), F(11, 8)):
            if not (h["Hpp"] < R < sys_x / 2):
                continue
            rep = surfballs.small_ball_area_check(s, x, R, hpp=h["Hpp"], sys_x=sys_x)
            checked += 1
            if rep["status"] != "pass":
                negatives.append((x, R, rep["margin"]))
    ok = checked > 0 and not negatives
    report(8, ok, f"{checked} (x,R) samples, negatives: {negatives}")


def test_criterion_09_coarea_identity():
    ok = True
    for R in range(1, 11):
        closed = nerve.coarea_closed_form(float(R))
        target = nerve.hyperbolic_area_lower_bound(float(R))
        ok &= abs(closed - target) < 1e-9
        # independent Simpson quadrature of (1/2) * int_0^R sinh(r ln2) dr
        n = 20000
        hstep = R / n
        acc = 0.0
        for i in range(n):
            a = i * hstep
            m = a + hstep / 2
            b = a + hstep
            acc += hstep / 6 * (math.sinh(a * math.log(2))
                                + 4 * math.sinh(m * math.log(2))
                                + math.sinh(b * math.log(2)))
        ok &= abs(acc / 2 - target) < 1e-9
    report(9, ok, "R in 1..10, tol 1e-9")


def test_criterion_10_shrink_and_lambda_search():
    ok = True
    radii = [k / 10 for k in range(1, 201)]        # (0, 20]
    for a in (0.1, 0.25, 0.5, 1.0, 4.0):
        ok &= shrink_factor_grid_check(a, radii)["ok"]
    grid = [k / 2 for k in range(1, 201)]
    found = rescaling_lambda_search(grid, list(range(1, 101)))
    ok &= found["lam"] is not None and found["delta"] > 0
    failing = rescaling_lambda_search(grid, list(range(1, 101)) + [0.01])
    ok &= failing["lam"] is None
    report(10, ok, f"lambda = {found['lam']}")


def test_criterion_11_cli_contract(tmp_path, capsys):
    ok = True
    root = resources.files("coverball") / "corpus"
    for name in sorted(p.name for p in root.iterdir()):
        text = (root / name).read_text()
        if name.endswith(".graph"):
            ok &= format_graph(parse_graph(text)) == text
        else:
            ok &= format_surface(parse_surface(text)) == text

    def run(*argv):
        rc = cli.run(list(argv))
        out = capsys.readouterr()
        return rc, out.out

    import json
    rc1, out1 = run("gen", "--kind", "random_connected", "--b", "3",
                    "--seed", "42")
    rc2, out2 = run("gen", "--kind", "random_connected", "--b", "3",
                    "--seed", "42")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timestamp"), d2.pop("timestamp")
    ok &= rc1 == rc2 == 0 and d1 == d2

    rc, _ = run("graph", "witness", "theta.graph", "--lambda", "1/6")
    ok &= rc == 1                      # forced hypothesis violation
    rc, _ = run("graph", "growth", "not_in_corpus.graph")
    ok &= rc == 1                      # input absent from the corpus
    try:
        cli.run(["graph", "growth", "theta.graph", "--no-such-option"])
        ok = False
    except SystemExit as exc:
        ok &= exc.code == 2            # usage error
    capsys.readouterr()
    report(11, ok, "round trip, determinism, exit codes 1/2")
