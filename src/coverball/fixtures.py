"""Reference triangulated surfaces and refinement operators.

The 7-vertex torus is the minimal simplicial torus (every vertex pair is an
edge); the genus-2 surface is two copies of it glued along a removed face.
Both have unit edge lengths; ``scale_surface`` rescales.
Midpoint subdivision quarters each face and halves the mesh size, keeping
lengths exact via the midline rule.  Each new length is computed once: a
subdivision makes one half, and a rescaling one product, per distinct
length, read off the surface's integer grid, and the edges that carry that
length share it.
"""

from __future__ import annotations

from fractions import Fraction

from .surface import TriSurface, _pair


def torus7() -> TriSurface:
    faces = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + \
            [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    lengths = {(i, j): Fraction(1) for i in range(7) for j in range(i + 1, 7)}
    return TriSurface.build(faces, lengths)


def genus2() -> TriSurface:
    """Connected sum of two 7-vertex tori along the removed face (0,1,3)."""
    base = torus7()
    glued = {0: 0, 1: 1, 3: 3}

    def relabel(v):
        return glued[v] if v in glued else v + 7

    faces = []
    for f in base.faces:
        if set(f) == {0, 1, 3}:
            continue
        faces.append(f)
        faces.append(tuple(relabel(v) for v in f))
    lengths = {}
    for e, l in base.edge_lengths.items():
        lengths[e] = l
        lengths[_pair(relabel(e[0]), relabel(e[1]))] = l
    return TriSurface.build(faces, lengths)


def subdivide(s: TriSurface, times: int = 1) -> TriSurface:
    """Midpoint subdivision: one new vertex per edge, four faces per face.
    Half edges get half the original length; each medial edge gets half the
    length of the side it is parallel to.  Each half is computed once per
    distinct length, as grid length over 2D, and shared by the edges that
    carry it."""
    for _ in range(times):
        nv = max(s.vertices) + 1
        mid = dict(zip(s.edges, range(nv, nv + len(s.edges))))
        D, grid = s._D, s._edge_grid
        halves = {n: Fraction(n, 2 * D) for n in set(grid.values())}
        half = {e: halves[n] for e, n in grid.items()}
        faces = []
        lengths = {}
        for (a, b, c) in s.faces:
            ab, bc, ca = _pair(a, b), _pair(b, c), _pair(c, a)
            mab, mbc, mca = mid[ab], mid[bc], mid[ca]
            faces += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc),
                      (mab, mbc, mca)]
            lengths[_pair(mab, mbc)] = half[ca]
            lengths[_pair(mbc, mca)] = half[ab]
            lengths[_pair(mca, mab)] = half[bc]
        # mid ids exceed every old vertex, so (u, m) and (w, m) are ordered
        for (u, w), m in mid.items():
            lengths[(u, m)] = lengths[(w, m)] = half[(u, w)]
        s = TriSurface.build(faces, lengths)
    return s


def scale_surface(s: TriSurface, mu) -> TriSurface:
    """s with every length times mu: one product per distinct length."""
    mu = Fraction(mu)
    D, grid = s._D, s._edge_grid
    scaled = {n: Fraction(n, D) * mu for n in set(grid.values())}
    return TriSurface.build(s.faces, {e: scaled[n] for e, n in grid.items()})
