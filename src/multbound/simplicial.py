"""Simplicial complexes on [n], Alexander duality, the Stanley-Reisner
correspondence in both directions, and polarization of monomial ideals.

A complex is stored by its facets.  Two degenerate values are distinguished:
the VOID complex (no faces at all; empty facet tuple) and the complex {∅}
whose single facet is the empty face.  Vertices may be absent from every
facet; Alexander duals need that freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .monomials import Monomial, MonomialIdeal, minimalize


def _facet_key(f: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(f), tuple(sorted(f)))


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension, starting with f_{-1} = 1."""

    counts: tuple[int, ...]

    def f(self, i: int) -> int:
        """Number of i-dimensional faces (0 outside the stored range)."""
        if -1 <= i < len(self.counts) - 1:
            return self.counts[i + 1]
        return 0

    @property
    def dim(self) -> int:
        return len(self.counts) - 2


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for f in self.facets:
            if not isinstance(f, frozenset):
                raise ValueError("facets must be frozensets")
            if not all(isinstance(v, int) and 1 <= v <= self.n for v in f):
                raise ValueError(f"facet {sorted(f)} not within vertex set 1..{self.n}")
        keys = [_facet_key(f) for f in self.facets]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("facets not in canonical order")
        for a in self.facets:
            for b in self.facets:
                if a is not b and a <= b:
                    raise ValueError("facet list is not an antichain")

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
        """Build a complex from any facet list; non-maximal faces are dropped."""
        sets = {frozenset(f) for f in facets}
        maximal = [f for f in sets if not any(f < g for g in sets)]
        return cls(n, tuple(sorted(maximal, key=_facet_key)))

    @classmethod
    def void(cls, n: int) -> SimplicialComplex:
        """The complex with no faces at all (not even the empty face)."""
        return cls(n, ())

    @classmethod
    def empty(cls, n: int) -> SimplicialComplex:
        """The complex {∅} whose only face is the empty set."""
        return cls(n, (frozenset(),))

    @classmethod
    def full(cls, n: int) -> SimplicialComplex:
        return cls(n, (frozenset(range(1, n + 1)),))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_full_simplex(self) -> bool:
        return any(len(f) == self.n for f in self.facets)

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    @property
    def is_full_vertex_set(self) -> bool:
        """True iff every singleton {i} is a face."""
        seen: set[int] = set()
        for f in self.facets:
            seen |= f
        return len(seen) == self.n

    def has_face(self, face: Iterable[int]) -> bool:
        f = frozenset(face)
        return any(f <= g for g in self.facets)

    def faces_by_dimension(self) -> dict[int, list[tuple[int, ...]]]:
        """All faces as sorted vertex tuples, keyed by dimension (-1 .. dim)."""
        if self.is_void:
            return {}
        seen: set[tuple[int, ...]] = set()
        for f in self.facets:
            vs = sorted(f)
            for k in range(len(vs) + 1):
                for combo in combinations(vs, k):
                    seen.add(combo)
        out: dict[int, list[tuple[int, ...]]] = {}
        for face in seen:
            out.setdefault(len(face) - 1, []).append(face)
        for level in out.values():
            level.sort()
        return out

    def f_vector(self) -> FVector:
        faces = self.faces_by_dimension()
        return FVector(tuple(len(faces.get(k, [])) for k in range(-1, self.dim + 1)))

    @property
    def top_face_count(self) -> int:
        """Number of faces of maximal dimension."""
        top = self.dim + 1
        return sum(1 for f in self.facets if len(f) == top)

    def restriction(self, vertices: Iterable[int]) -> SimplicialComplex:
        """The subcomplex of faces contained in the given vertex set."""
        w = frozenset(vertices)
        if self.is_void:
            return self
        return SimplicialComplex.from_facets(self.n, [f & w for f in self.facets])

    def minimal_nonfaces(self) -> tuple[frozenset[int], ...]:
        """Subsets that are not faces but whose proper subsets all are."""
        if self.is_void:
            return (frozenset(),)
        out = []
        # a minimal non-face has every proper subset a face, so size <= dim + 2
        for size in range(1, min(self.n, self.dim + 2) + 1):
            for combo in combinations(range(1, self.n + 1), size):
                if self.has_face(combo):
                    continue
                if all(self.has_face(combo[:t] + combo[t + 1:]) for t in range(size)):
                    out.append(frozenset(combo))
        return tuple(sorted(out, key=_facet_key))

    def alexander_dual(self) -> SimplicialComplex:
        """The complex of all F whose complement is not a face.

        The dual of the full simplex is VOID and conversely; the duality is
        an involution on every complex.
        """
        if self.is_void:
            return SimplicialComplex.full(self.n)
        nonfaces = self.minimal_nonfaces()
        if not nonfaces:
            return SimplicialComplex.void(self.n)
        everything = frozenset(range(1, self.n + 1))
        return SimplicialComplex.from_facets(self.n, [everything - f for f in nonfaces])

    def __str__(self) -> str:
        if self.is_void:
            return "<void>"
        return "<" + ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets) + ">"


def stanley_reisner_ideal(complex_: SimplicialComplex) -> MonomialIdeal:
    """The squarefree ideal generated by the minimal non-faces."""
    gens = []
    for f in complex_.minimal_nonfaces():
        e = [0] * complex_.n
        for v in f:
            e[v - 1] = 1
        gens.append(Monomial(tuple(e)))
    return minimalize(gens, complex_.n)


def _minimal_hitting_sets(edges: list[frozenset[int]]) -> list[frozenset[int]]:
    """All inclusion-minimal sets meeting every edge (edges are nonempty)."""
    found: list[frozenset[int]] = []

    def rec(chosen: frozenset[int], remaining: list[frozenset[int]]) -> None:
        if not remaining:
            found.append(chosen)
            return
        edge = min(remaining, key=len)
        for v in sorted(edge):
            rec(chosen | {v}, [e for e in remaining if v not in e])

    rec(frozenset(), edges)
    minimal = [s for s in found if not any(t < s for t in found)]
    return sorted(set(minimal), key=_facet_key)


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces are the squarefree monomials outside the ideal.

    Inverse to :func:`stanley_reisner_ideal`; requires a squarefree ideal.
    """
    if not ideal.is_squarefree:
        raise ValueError("only squarefree ideals correspond to complexes")
    if ideal.is_unit:
        return SimplicialComplex.void(ideal.n)
    edges = [frozenset(g.support) for g in ideal.gens]
    everything = frozenset(range(1, ideal.n + 1))
    # facets are complements of minimal transversals of the generator supports
    facets = [everything - t for t in _minimal_hitting_sets(edges)]
    return SimplicialComplex.from_facets(ideal.n, facets)


def facet_duality_generators(complex_: SimplicialComplex) -> tuple[Monomial, ...]:
    """The monomials x_{F^c} over the facets F; these are exactly the
    minimal generators of the Stanley-Reisner ideal of the Alexander dual."""
    if complex_.is_void or complex_.is_full_simplex:
        raise ValueError("facet duality requires a proper complex")
    out = []
    for f in complex_.facets:
        e = [1] * complex_.n
        for v in f:
            e[v - 1] = 0
        out.append(Monomial(tuple(e)))
    return tuple(sorted(out, key=lambda m: m.sort_key))


def polarize(ideal: MonomialIdeal) -> tuple[MonomialIdeal, dict[tuple[int, int], int]]:
    """Squarefree ideal with the same Betti table, multiplicity and
    codimension; x_i^e expands to the product of the first e copies of x_i.

    Returns the polarized ideal and the map (variable, copy) -> new index,
    with copies numbered from 1.
    """
    maxes = [max((g.exponents[i] for g in ideal.gens), default=0) for i in range(ideal.n)]
    var_map: dict[tuple[int, int], int] = {}
    next_index = 1
    for i in range(ideal.n):
        for copy in range(1, maxes[i] + 1):
            var_map[(i + 1, copy)] = next_index
            next_index += 1
    total = next_index - 1
    gens = []
    for g in ideal.gens:
        e = [0] * total
        for i, exp in enumerate(g.exponents):
            for copy in range(1, exp + 1):
                e[var_map[(i + 1, copy)] - 1] = 1
        gens.append(Monomial(tuple(e)))
    return minimalize(gens, total), var_map


def complex_to_json(complex_: SimplicialComplex) -> dict:
    if complex_.is_void:
        return {"n": complex_.n, "facets": None}
    return {"n": complex_.n, "facets": [sorted(f) for f in complex_.facets]}


def complex_from_json(obj: dict) -> SimplicialComplex:
    """Parse {"n": 3, "facets": [[1,3],[2,3]]}; null facets denote VOID."""
    if not isinstance(obj, dict):
        raise ValueError("complex JSON must be an object")
    n = obj.get("n")
    facets = obj.get("facets")
    if type(n) is not int or n < 0:  # JSON true/false are ints to isinstance
        raise ValueError("field 'n' must be a non-negative integer")
    if facets is None:
        return SimplicialComplex.void(n)
    if not isinstance(facets, list):
        raise ValueError("field 'facets' must be a list or null")
    parsed = []
    for row in facets:
        if not isinstance(row, list) or not all(type(v) is int and 1 <= v <= n for v in row):
            raise ValueError(f"facet {row!r} is not a list of vertices in 1..{n}")
        if len(set(row)) != len(row):
            raise ValueError(f"facet {row!r} has repeated vertices")
        parsed.append(frozenset(row))
    return SimplicialComplex.from_facets(n, parsed)
