"""Exact linear algebra over the rationals and homology of finite chain
complexes.

Matrices carry arbitrary-precision integer entries.  One sparse column
elimination takes every rank, over Q or over F_p for an optional prime
modulus: over Q a column scaled during reduction is divided by the gcd of
its entries, so no rational arithmetic ever occurs and the integers stay
small.

Every complex the package takes homology of is built by one function,
``subset_homology``: a family of subsets graded by size, with the
alternating-sign boundary that drops faces outside the family.  A
down-closed family is a reduced simplicial chain complex.  Hochster's
formula hands over restrictions that are not cones, each cut by the star
of one vertex to a convex family with the same homology one size up,
built as a bitset from the minimal nonfaces with no face enumerated; a
cut of one or two cells is read off there, and the larger cuts of all
restrictions of one size go over as one direct sum, told apart by bits
above the ground.  An up-closed family is a multigraded
Koszul strand (``betti._strands``, for the oracle and the Koszul tables
alike); ``betti._strand`` cuts it by the Morse matching on its last
variable to a convex family with the same homology, shifted by one, which
``betti._batch_homology`` counts with a batch of others, ranking it alone
only if two of its critical sizes are adjacent.  The builder makes each
boundary once and checks d∘d = 0 with one OR per boundary entry and one
AND per cell; the matrices it ranks skip the checks of the
``ExactMatrix`` constructor, since it makes their entries itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable


@dataclass
class ExactMatrix:
    """Sparse integer matrix; immutable by convention after construction."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) outside a {self.rows}x{self.cols} matrix")
            if not isinstance(v, int) or v == 0:
                raise ValueError("entries must be nonzero integers")

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict[tuple[int, int], int]) -> ExactMatrix:
        """Wrap entries already known to be nonzero integers inside the shape."""
        matrix = object.__new__(cls)
        matrix.rows, matrix.cols, matrix.entries = rows, cols, entries
        return matrix

    def compose(self, other: ExactMatrix) -> ExactMatrix:
        """Matrix product self * other (self applied after other)."""
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for composition")
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = out.get(key, 0) + v * w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return ExactMatrix(self.rows, other.cols, out)

    def rank(self, modulus: int | None = None) -> int:
        """Rank over Q (default) or over F_p when a prime modulus is given.

        Each column, a {row: value} dict (entries reduced mod p first), is
        reduced against the pivots kept so far, keyed by their lowest row,
        through vec <- a*vec - b*pivot with a the pivot's leading entry; when
        a divides b this is vec - (b/a)*pivot.  Over Q a scaled vector is
        divided by the gcd of its entries, so integers stay small; over F_p
        every entry stays reduced and pivots are scaled to a leading 1.  A
        column left nonzero becomes a pivot, and the elimination stops once
        every row leads one.  Pivots have distinct leading rows, so they are
        independent, and a is nonzero (mod p too), so each update keeps the
        span.
        """
        columns: dict[int, dict[int, int]] = {}
        for (r, c), v in self.entries.items():
            if modulus is not None:
                v %= modulus
            if v:
                columns.setdefault(c, {})[r] = v
        pivots: dict[int, dict[int, int]] = {}
        for vec in columns.values():
            while vec:
                lead = min(vec)
                pivot = pivots.get(lead)
                if pivot is None:
                    if modulus is not None:
                        inverse = pow(vec[lead], -1, modulus)
                        vec = {r: v * inverse % modulus for r, v in vec.items()}
                    pivots[lead] = vec
                    break
                a, b = pivot[lead], vec[lead]
                if b % a:
                    vec = {r: a * v for r, v in vec.items()}
                else:
                    a, b = 1, b // a
                for r, w in pivot.items():
                    s = vec.get(r, 0) - b * w
                    if modulus is not None:
                        s %= modulus
                    if s:
                        vec[r] = s
                    else:
                        vec.pop(r, None)
                if a != 1:
                    g = gcd(*vec.values())
                    vec = {r: v // g for r, v in vec.items()}
            if len(pivots) == self.rows:
                break
        return len(pivots)


def subset_homology(family: Iterable[int], modulus: int | None = None, ground: int = -1) -> dict[int, int]:
    """Homology dimensions {size: dim H_size} of the chain complex spanned
    by a family of subsets of the ground, given as bitmasks (bits above the
    ground tag the summands of a direct sum) and graded by size, for every
    size up to the largest in the family.

    The boundary is d(F) = sum over t in F of (-1)^#{s in F : s < t} (F - t),
    with the terms outside the family dropped.  The empty family has no
    homology at all (empty dict).  Raises ValueError when d∘d is not zero,
    that is when P(F - t) is not inside P(F) for some boundary entry
    (F - t, F), with P(F) the t in F with F - t in the family: the paths
    from F through F - s and F - t to F - s - t have opposite signs.
    """
    levels: list[list[int]] = []
    for mask in set(family):
        size = (mask & ground).bit_count()
        while len(levels) <= size:
            levels.append([])
        levels[size].append(mask)
    # ranks[size] is the rank of the boundary out of that size, so
    # dim H_size = dim C_size - ranks[size] - ranks[size + 1]
    ranks = [0] * (len(levels) + 1)
    parts = [0] * len(levels[0]) if levels else []  # P(F) of each cell of the size below, by row
    for size in range(1, len(levels)):
        below = {mask: row for row, mask in enumerate(levels[size - 1])}
        entries, found = {}, []  # the boundary out of this size, and P(F) of each of its cells
        for col, mask in enumerate(levels[size]):
            sign, part, need, rest = 1, 0, 0, mask & ground
            while rest:
                low = rest & -rest
                row = below.get(mask ^ low)
                if row is not None:
                    entries[row, col] = sign
                    part |= low
                    need |= parts[row]
                sign = -sign
                rest ^= low
            if need & ~part:
                raise ValueError("consecutive boundary maps do not compose to zero")
            found.append(part)
        if entries:
            ranks[size] = ExactMatrix._trusted(len(below), len(found), entries).rank(modulus)
        parts = found
    return {size: len(level) - ranks[size] - ranks[size + 1] for size, level in enumerate(levels)}
