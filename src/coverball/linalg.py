"""Sparse row echelon form over the rationals.

Vectors are dicts mapping column index to a nonzero coefficient.  Entries
are coerced to ``Fraction``, so ranks and memberships are exact.
"""

from __future__ import annotations

from fractions import Fraction


class Echelon:
    """Incremental row echelon basis over Q."""

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec against the current basis (vec is not modified)."""
        v = {c: Fraction(x) for c, x in vec.items() if x}
        done = -1
        while True:
            todo = [c for c in v if c > done and c in self.pivots]
            if not todo:
                break
            c = min(todo)
            done = c
            row = self.pivots[c]
            coeff = v[c]
            for col, x in row.items():
                nv = v.get(col, 0) - coeff * x
                if nv:
                    v[col] = nv
                else:
                    v.pop(col, None)
        return v

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        c = min(res)
        lead = res[c]
        self.pivots[c] = {col: x / lead for col, x in res.items()}
        return True
