"""Seeded inputs owned by the benchmark.

The bounded-instance generator is a copy of the one the test suite uses, so
edits to the tests never change what the benchmark measures.  Relabeling
permutes vertex and edge ids (and, for surfaces, shuffles the face list)
while keeping the geometry, so the amount of work barely depends on the
seed but no result can be memorised by label.
"""

from __future__ import annotations

import random
from fractions import Fraction

from coverball import fixtures
from coverball.graphs import MetricGraph
from coverball.surface import TriSurface, _pair

LAMBDAS = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 6), Fraction(1, 4),
           Fraction(3, 10)]


def rng_for(*key) -> random.Random:
    """A generator seeded by a tuple of keys; stable across processes."""
    return random.Random(":".join(map(str, key)))


def random_bounded_instance(b: int, total_bound: Fraction, seed: int,
                            denom: int = 64) -> MetricGraph:
    """Random connected multigraph of Betti number b whose edge lengths are
    multiples of 1/denom and whose total length is at most ``total_bound``."""
    rng = random.Random(seed)
    nv = rng.randint(2, 2 * b)
    verts = list(range(nv))
    edges = []
    eid = 0
    order = verts[1:]
    rng.shuffle(order)
    joined = [verts[0]]
    for v in order:
        edges.append([eid, rng.choice(joined), v])
        eid += 1
        joined.append(v)
    for _ in range(b):
        edges.append([eid, rng.choice(verts), rng.choice(verts)])
        eid += 1
    hi = int(Fraction(total_bound) / len(edges) * denom)
    if hi < 1:
        raise ValueError("bound too small for this denominator")
    full = [(i, u, w, Fraction(rng.randint(1, hi), denom))
            for (i, u, w) in edges]
    return MetricGraph.build(verts, full)


def sweep_graph(i: int) -> tuple[MetricGraph, Fraction]:
    """The i-th graph of the criterion-02 family and its lambda."""
    b, lam = 2 + i % 7, LAMBDAS[i % 5]
    return random_bounded_instance(b, lam * (3 * b - 3), i), lam


def relabel_graph(g: MetricGraph, rng: random.Random) -> MetricGraph:
    """Permute vertex ids and edge ids and flip edge directions."""
    verts = sorted(g.vertices)
    perm = verts[:]
    rng.shuffle(perm)
    vmap = dict(zip(verts, perm))
    ids = [e.id for e in g.edges]
    rng.shuffle(ids)
    edges = []
    for eid, e in zip(ids, g.edges):
        u, w = vmap[e.u], vmap[e.w]
        if rng.random() < 0.5:
            u, w = w, u
        edges.append((eid, u, w, e.length))
    return MetricGraph.build(perm, edges)


def relabel_surface(s: TriSurface, rng: random.Random):
    """Vertex permutation plus face shuffle; returns the faces and lengths
    for ``TriSurface.build`` and the map from old to new vertex ids."""
    verts = list(s.vertices)
    perm = verts[:]
    rng.shuffle(perm)
    vmap = dict(zip(verts, perm))
    faces = [tuple(vmap[v] for v in f) for f in s.faces]
    rng.shuffle(faces)
    lengths = {_pair(vmap[u], vmap[w]): l for (u, w), l in s.edge_lengths.items()}
    return faces, lengths, vmap


def height_surface() -> TriSurface:
    """Criterion 08's surface: torus7 subdivided once (84 edges)."""
    return fixtures.subdivide(fixtures.torus7())


def nerve_surfaces() -> dict[str, TriSurface]:
    """Criterion-07 meshes on a smaller area: torus7 subdivided three times
    at scale 1/4 (1344 edges of length 1/32) and genus2 subdivided twice at
    scale 1/8 (624 edges of length 1/32)."""
    return {
        "torus7x3": fixtures.scale_surface(
            fixtures.subdivide(fixtures.torus7(), 3), Fraction(1, 4)),
        "genus2x2": fixtures.scale_surface(
            fixtures.subdivide(fixtures.genus2(), 2), Fraction(1, 8)),
    }


def verify_pool() -> list[tuple[str, MetricGraph, Fraction]]:
    """Bounded graphs for ``graph verify``; their reports are in the golden
    file, so the seed only chooses among them."""
    pool = []
    for j in range(16):
        b = 2 + j % 4
        lam = LAMBDAS[2 + j % 3]
        g = random_bounded_instance(b, lam * (3 * b - 3), 7000 + j)
        pool.append((f"bounded{j:02d}", g, lam))
    return pool
