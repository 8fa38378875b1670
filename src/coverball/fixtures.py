"""Reference triangulated surfaces and refinement operators.

The 7-vertex torus is the minimal simplicial torus (every vertex pair is an
edge); the genus-2 surface is two copies of it glued along a removed face.
Both have unit edge lengths; ``scale_surface`` rescales.
Midpoint subdivision quarters each face and halves the mesh size, keeping
lengths exact via the midline rule.
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
    length of the side it is parallel to."""
    for _ in range(times):
        nv = max(s.vertices) + 1
        mid = {}
        for e in s.edges:
            mid[e] = nv
            nv += 1
        faces = []
        lengths = {}
        for (a, b, c) in s.faces:
            mab = mid[_pair(a, b)]
            mbc = mid[_pair(b, c)]
            mca = mid[_pair(c, a)]
            faces += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc),
                      (mab, mbc, mca)]
            lengths[_pair(mab, mbc)] = s.edge_lengths[_pair(c, a)] / 2
            lengths[_pair(mbc, mca)] = s.edge_lengths[_pair(a, b)] / 2
            lengths[_pair(mca, mab)] = s.edge_lengths[_pair(b, c)] / 2
        for (u, w), l in s.edge_lengths.items():
            lengths[_pair(u, mid[(u, w)])] = l / 2
            lengths[_pair(w, mid[(u, w)])] = l / 2
        s = TriSurface.build(faces, lengths)
    return s


def scale_surface(s: TriSurface, mu) -> TriSurface:
    mu = Fraction(mu)
    return TriSurface.build(s.faces, {e: l * mu for e, l in s.edge_lengths.items()})
