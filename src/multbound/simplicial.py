"""Simplicial complexes on [n], Alexander duality, the Stanley-Reisner
correspondence in both directions, and polarization of monomial ideals.

A complex is stored by its facets.  Two degenerate values are distinguished:
the VOID complex (no faces at all; empty facet tuple) and the complex {∅}
whose single facet is the empty face.  Vertices may be absent from every
facet; Alexander duals need that freedom.

Both directions of the correspondence are one hypergraph dualization,
:func:`_minimal_hitting_sets`: a complex's minimal nonfaces, found once and
kept, are the minimal transversals of its facet complements, and the facets
of the complex of a squarefree ideal are the complements of the minimal
transversals of the generator supports, which it keeps as its nonfaces.  The
Stanley-Reisner ideal of the Alexander dual needs no dualization at all: it
is generated by the facet complements.  Every output is an antichain already,
so it is built with no antichain or minimality rescan; only outside input is
validated (``from_facets`` needs only a vertex check after its maximality filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .monomials import Monomial, MonomialIdeal


def _facet_key(f: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(f), tuple(sorted(f)))


def _check_facets(n: int, facets: Iterable[frozenset[int]]) -> None:
    for f in facets:
        if not isinstance(f, frozenset):
            raise ValueError("facets must be frozensets")
        if not all(isinstance(v, int) and 1 <= v <= n for v in f):
            raise ValueError(f"facet {sorted(f)} not within vertex set 1..{n}")


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        _check_facets(self.n, self.facets)
        keys = [_facet_key(f) for f in self.facets]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("facets not in canonical order")
        for a in self.facets:
            for b in self.facets:
                if a is not b and a <= b:
                    raise ValueError("facet list is not an antichain")

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
        """Build a complex from any facet list; non-maximal faces are dropped.
        Faces kept largest first, unless a kept face contains them, form a
        canonical antichain, so only the vertices are checked."""
        kept: list[frozenset[int]] = []
        for f in sorted({frozenset(f) for f in facets}, key=_facet_key, reverse=True):
            if not any(f < g for g in kept):
                kept.append(f)
        out = cls._trusted(n, kept)
        _check_facets(n, out.facets)
        return out

    @classmethod
    def _trusted(cls, n: int, facets: Iterable[frozenset[int]], **known: object) -> SimplicialComplex:
        """Wrap facets known to form an antichain on [n], skipping __post_init__; known presets ``_nonfaces``."""
        out = object.__new__(cls)
        out.__dict__.update(n=n, facets=tuple(sorted(facets, key=_facet_key)), **known)
        return out

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

    def restriction(self, vertices: Iterable[int]) -> SimplicialComplex:
        """The subcomplex of faces contained in the given vertex set."""
        w = frozenset(vertices)
        if self.is_void:
            return self
        return SimplicialComplex.from_facets(self.n, [f & w for f in self.facets])

    def minimal_nonfaces(self) -> tuple[frozenset[int], ...]:
        """Subsets that are not faces but whose proper subsets all are.

        A set is a nonface iff it meets every facet complement, so these are
        the minimal transversals of the facet complements: (∅,) for the void
        complex and () for the full simplex.  They are found once and kept;
        complex_of_ideal knows them already.
        """
        if "_nonfaces" not in self.__dict__:  # no field, so == and hash ignore it
            everything = frozenset(range(1, self.n + 1))
            self.__dict__["_nonfaces"] = tuple(_minimal_hitting_sets([everything - f for f in self.facets]))
        return self.__dict__["_nonfaces"]

    def alexander_dual(self) -> SimplicialComplex:
        """The complex of all F whose complement is not a face.

        The dual of the full simplex is VOID and conversely; the duality is
        an involution on every complex.
        """
        everything = frozenset(range(1, self.n + 1))
        return SimplicialComplex._trusted(self.n, [everything - f for f in self.minimal_nonfaces()])

    def __str__(self) -> str:
        if self.is_void:
            return "<void>"
        return "<" + ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets) + ">"


def _squarefree(n: int, sets: Iterable[frozenset[int]]) -> tuple[Monomial, ...]:
    """The products of the variables x_v over each vertex set, in canonical order."""
    out = [Monomial._trusted(tuple([int(v in s) for v in range(1, n + 1)])) for s in sets]
    return tuple(sorted(out, key=lambda m: m.sort_key))


def stanley_reisner_ideal(complex_: SimplicialComplex) -> MonomialIdeal:
    """The squarefree ideal generated by the minimal non-faces."""
    return MonomialIdeal._trusted(complex_.n, _squarefree(complex_.n, complex_.minimal_nonfaces()))


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minimal_hitting_sets(edges: list[frozenset[int]]) -> list[frozenset[int]]:
    """All inclusion-minimal sets meeting every edge, sorted like facets.

    This is the module's one dualization routine.  No edges give the single
    transversal ∅; an empty edge can never be met, so it gives none.

    Each step branches on the uncovered edge with the fewest allowed
    vertices, and the branch through its k-th vertex forbids the k-1 before
    it, so every transversal is reached once.  A branch is cut as soon as a
    chosen vertex has no private edge (one that no other chosen vertex
    meets), so every transversal reached is minimal.  Sets are bitmasks:
    vertex t is bit t of a vertex mask, edge k bit k of an edge mask.
    """
    vertices = sorted(set().union(*edges))
    masks = [sum(1 << t for t, v in enumerate(vertices) if v in e) for e in edges]
    occurs = [sum(1 << k for k, e in enumerate(edges) if v in e) for v in vertices]
    found: list[frozenset[int]] = []

    def rec(chosen: list[int], private: list[int], uncovered: int, forbidden: int) -> None:
        if not uncovered:
            found.append(frozenset(vertices[t] for t in chosen))
            return
        edge = min((masks[k] & ~forbidden for k in _bits(uncovered)), key=int.bit_count)
        for t in _bits(edge):
            # edges met by t stop being private to the vertices already chosen
            kept = [p & ~occurs[t] for p in private]
            if all(kept):
                rec(chosen + [t], kept + [uncovered & occurs[t]], uncovered & ~occurs[t], forbidden)
            forbidden |= 1 << t

    rec([], [], (1 << len(edges)) - 1, 0)
    return sorted(found, key=_facet_key)


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces are the squarefree monomials outside the ideal.

    Inverse to :func:`stanley_reisner_ideal`; requires a squarefree ideal.
    """
    if not ideal.is_squarefree:
        raise ValueError("only squarefree ideals correspond to complexes")
    edges = [frozenset(g.support) for g in ideal.gens]
    everything = frozenset(range(1, ideal.n + 1))
    # facets are complements of minimal transversals of the generator supports, its minimal nonfaces
    return SimplicialComplex._trusted(ideal.n, [everything - t for t in _minimal_hitting_sets(edges)],
                                      _nonfaces=tuple(sorted(edges, key=_facet_key)))


def facet_duality_generators(complex_: SimplicialComplex) -> tuple[Monomial, ...]:
    """The monomials x_{F^c} over the facets F; these are exactly the
    minimal generators of the Stanley-Reisner ideal of the Alexander dual."""
    if complex_.is_void or complex_.is_full_simplex:
        raise ValueError("facet duality requires a proper complex")
    everything = frozenset(range(1, complex_.n + 1))
    return _squarefree(complex_.n, [everything - f for f in complex_.facets])


def polarize(ideal: MonomialIdeal) -> tuple[MonomialIdeal, dict[tuple[int, int], int]]:
    """Squarefree ideal with the same Betti table, multiplicity and
    codimension; x_i^e expands to the product of the first e copies of x_i.

    Returns the polarized ideal and the map (variable, copy) -> new index,
    with copies numbered from 1.  pol(g) divides pol(h) iff g divides h, so
    the polarized generators stay minimal and only need sorting.
    """
    maxes = [max((g.exponents[i] for g in ideal.gens), default=0) for i in range(ideal.n)]
    copies = [(i + 1, copy) for i in range(ideal.n) for copy in range(1, maxes[i] + 1)]
    gens = [Monomial._trusted(tuple(int(g.exponents[i - 1] >= copy) for i, copy in copies)) for g in ideal.gens]
    return (MonomialIdeal._trusted(len(copies), tuple(sorted(gens, key=lambda g: g.sort_key))),
            {key: index for index, key in enumerate(copies, 1)})


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
