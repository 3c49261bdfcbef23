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
down-closed family is a reduced simplicial chain complex (Hochster
restrictions); an up-closed one is a multigraded Koszul strand (the Betti
oracle and the suffix Koszul complexes).  Each is validated through
``FiniteChainComplex``, so d∘d = 0 is checked on every complex built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

from .simplicial import SimplicialComplex


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
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> ExactMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> ExactMatrix:
        return cls(rows, cols, {})

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    @property
    def is_zero(self) -> bool:
        return not self.entries

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


@dataclass
class FiniteChainComplex:
    """A finite chain complex of finite-dimensional vector spaces.

    ``boundaries[k]`` is the matrix of the differential C_{k+1} -> C_k;
    the composition of consecutive differentials must vanish.
    """

    dims: tuple[int, ...]
    boundaries: tuple[ExactMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one boundary map between consecutive groups")
        for k, b in enumerate(self.boundaries):
            if b.rows != self.dims[k] or b.cols != self.dims[k + 1]:
                raise ValueError(
                    f"boundary {k} has shape {b.rows}x{b.cols}, expected {self.dims[k]}x{self.dims[k + 1]}"
                )
        for k in range(len(self.boundaries) - 1):
            if not self.boundaries[k].compose(self.boundaries[k + 1]).is_zero:
                raise ValueError("consecutive boundary maps do not compose to zero")


def homology_dims(complex_: FiniteChainComplex, modulus: int | None = None) -> tuple[int, ...]:
    """dim H_k = dim C_k - rank d_k - rank d_{k+1} for each k."""
    dims = complex_.dims
    ranks = [b.rank(modulus) for b in complex_.boundaries]
    out = []
    for k in range(len(dims)):
        rank_out = ranks[k - 1] if k >= 1 else 0
        rank_in = ranks[k] if k < len(ranks) else 0
        out.append(dims[k] - rank_out - rank_in)
    return tuple(out)


def subset_homology(family: Iterable[int], modulus: int | None = None) -> dict[int, int]:
    """Homology dimensions {size: dim H_size} of the chain complex spanned
    by a family of subsets of {0, 1, ...}, given as bitmasks and graded by
    size, for every size up to the largest in the family.

    The boundary is d(F) = sum over t in F of (-1)^#{s in F : s < t} (F - t),
    with the terms outside the family dropped.  The empty family has no
    homology at all (empty dict).
    """
    levels: list[list[int]] = []
    for mask in set(family):
        size = mask.bit_count()
        while len(levels) <= size:
            levels.append([])
        levels[size].append(mask)
    boundaries = []
    for size in range(1, len(levels)):
        below = {mask: row for row, mask in enumerate(levels[size - 1])}
        entries: dict[tuple[int, int], int] = {}
        for col, mask in enumerate(levels[size]):
            sign = 1
            rest = mask
            while rest:
                low = rest & -rest
                row = below.get(mask ^ low)
                if row is not None:
                    entries[(row, col)] = sign
                sign = -sign
                rest ^= low
        boundaries.append(ExactMatrix(len(levels[size - 1]), len(levels[size]), entries))
    chain = FiniteChainComplex(tuple(len(level) for level in levels), tuple(boundaries))
    return dict(enumerate(homology_dims(chain, modulus)))


def reduced_simplicial_homology(
    complex_: SimplicialComplex, modulus: int | None = None
) -> dict[int, int]:
    """Reduced homology dimensions {k: dim H_k} for k = -1 .. dim.

    The VOID complex has no homology at all (empty dict); the complex {∅}
    has H_{-1} of dimension one.
    """
    faces: set[int] = set()
    for facet in complex_.facets:
        top = sum(1 << (v - 1) for v in facet)
        sub = top
        while True:  # every submask of the facet, down to the empty face
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    return {size - 1: d for size, d in subset_homology(faces, modulus).items()}
