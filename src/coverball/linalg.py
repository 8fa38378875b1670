"""Row echelon form over the rationals, kept in integers.

Rows are equal-length lists of ints.  Elimination is fraction-free: a row
is reduced by cross-multiplying it against each pivot row, and each pivot
row is stored divided by the gcd of its entries, so ranks and memberships
are exact and entries stay bounded by minors of the rows added.
"""

from __future__ import annotations

import math


class Echelon:
    """Incremental row echelon basis over Q, in integer rows."""

    def __init__(self):
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: list[int]) -> list[int]:
        """Residual of row against the current basis: a nonzero multiple of
        row plus a combination of pivot rows, zero in every pivot column
        (row is not modified)."""
        v = row
        for c in sorted(self.pivots):
            x = v[c]
            if x:
                p = self.pivots[c]
                lead = p[c]
                v = [lead * y - x * z for y, z in zip(v, p)]
        return v

    def add(self, row: list[int]) -> bool:
        """Insert row; returns True if it enlarged the span."""
        res = self.reduce(row)
        g = math.gcd(*res)
        if not g:
            return False
        c = next(i for i, x in enumerate(res) if x)
        self.pivots[c] = [x // g for x in res]
        return True
