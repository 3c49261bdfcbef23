"""Monomials, exponent bound vectors, and monomial ideals.

Variables are 1-indexed in every public interface (supports, variable
surgeries, serialized forms); exponent tuples are 0-indexed internally.
All values are immutable after construction.

Divisibility goes through a trie with one level per variable, keyed by
exponent; a probe x^a follows only branches at most a.  ``contains`` builds
its ideal's trie on the first call; ``minimalize`` probes a trie of the
generators it has kept so far.  ``minimalize`` and ``truncate`` (a degree
prefix of a minimal canonical set) skip the validating public constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

INFINITY = math.inf


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {self.exponents!r}")

    @classmethod
    def one(cls, n: int) -> Monomial:
        return cls((0,) * n)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @cached_property
    def degree(self) -> int:
        return sum(self.exponents)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """1-based indices of the variables that occur."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    @cached_property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    @property
    def top_index(self) -> int:
        """Largest 1-based variable index with a nonzero exponent."""
        for i in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[i]:
                return i + 1
        raise ValueError("the constant monomial has no top variable")

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: total degree, then lexicographic on exponents."""
        return (self.degree, self.exponents)

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: Monomial) -> Monomial:
        return Monomial(tuple(map(max, self.exponents, other.exponents)))

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def exchange(self, i: int, j: int) -> Monomial:
        """The monomial x_j * u / x_i; requires x_i | u."""
        if self.exponents[i - 1] == 0:
            raise ValueError(f"x{i} does not divide {self}")
        e = list(self.exponents)
        e[i - 1] -= 1
        e[j - 1] += 1
        return Monomial(tuple(e))

    def __str__(self) -> str:
        if self.is_constant:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


@dataclass(frozen=True)
class BoundVector:
    """Per-variable exponent bounds: each entry is an integer >= 2 or INFINITY."""

    entries: tuple[int | float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        for a in self.entries:
            if a is INFINITY or a == INFINITY:
                continue
            if not isinstance(a, int) or a < 2:
                raise ValueError(f"bound entries must be integers >= 2 or INFINITY, got {a!r}")

    @classmethod
    def unbounded(cls, n: int) -> BoundVector:
        return cls((INFINITY,) * n)

    @classmethod
    def uniform(cls, n: int, value: int | float) -> BoundVector:
        return cls((value,) * n)

    @classmethod
    def from_text(cls, text: str) -> BoundVector:
        """Parse a comma-separated list such as "2,3,inf"."""
        entries: list[int | float] = []
        for part in text.split(","):
            part = part.strip()
            entries.append(INFINITY if part in ("inf", "infinity", "oo") else int(part))
        return cls(tuple(entries))

    def to_text(self) -> str:
        return ",".join("inf" if a == INFINITY else str(a) for a in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def bounds_strictly(self, u: Monomial) -> bool:
        """True iff u_i < a_i for every i."""
        return all(e < a for e, a in zip(u.exponents, self.entries))


def saturation_count(u: Monomial, bounds: BoundVector) -> int:
    """Number of indices below the top variable of u whose exponent sits at
    its bound minus one.  Infinite bounds are never attained."""
    if u.is_constant:
        raise ValueError("undefined for the constant monomial")
    if u.n != bounds.n:
        raise ValueError("monomial and bound vector live in different variable counts")
    if not bounds.bounds_strictly(u):
        raise ValueError(f"{u} is not strictly bounded by {bounds.to_text()}")
    top = u.top_index
    return sum(1 for i in range(top - 1) if u.exponents[i] == bounds.entries[i] - 1)


_END = None  # marks a stored vector; else an empty trie with n = 0 would divide 1
_LEAF = {_END: True}  # the bottom node, shared by every stored vector to save memory


def _trie_insert(trie: dict, exponents: tuple[int, ...]) -> None:
    if not exponents:
        trie[_END] = True
    for i, e in enumerate(exponents, 1):
        trie = trie.setdefault(e, {} if i < len(exponents) else _LEAF)


def _trie_divides(trie: dict, exponents: tuple[int, ...]) -> bool:
    """Whether an exponent vector stored in the trie divides x^exponents."""
    n = len(exponents)
    stack = [(trie, 0)]
    while stack:
        node, i = stack.pop()
        if i == n:
            return _END in node
        e = exponents[i]
        for k, child in node.items():
            if k <= e:
                stack.append((child, i + 1))
    return False


def monomials_of_degree(n: int, d: int) -> Iterator[Monomial]:
    """All degree-d monomials in n variables, in a fixed deterministic order."""
    if d < 0:
        return
    if n == 0:
        if d == 0:
            yield Monomial(())
        return
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        yield Monomial(tuple(e))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held as its minimal generating set in canonical order.

    The representation is canonical: equal ideals have identical fields, so
    dataclass equality is ideal equality.  Use :func:`minimalize` to build
    one from an arbitrary generating set.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        expected = minimalize(self.gens, self.n)
        if self.gens != expected.gens:
            raise ValueError(f"generating set not minimal or not in canonical order; expected {expected}")

    @classmethod
    def _trusted(cls, n: int, gens: tuple[Monomial, ...]) -> MonomialIdeal:
        """Wrap generators already known to be minimal and in canonical order."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "gens", gens)
        return ideal

    @classmethod
    def zero(cls, n: int) -> MonomialIdeal:
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> MonomialIdeal:
        return cls(n, (Monomial.one(n),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_constant

    @cached_property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    @cached_property
    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    @cached_property
    def min_gen_degree(self) -> int:
        return min((g.degree for g in self.gens), default=0)

    @cached_property
    def _index(self) -> dict:
        trie: dict = {}
        for g in self.gens:
            _trie_insert(trie, g.exponents)
        return trie

    def contains(self, m: Monomial) -> bool:
        if m.n != self.n:
            raise ValueError("monomial lives in a different variable count")
        return _trie_divides(self._index, m.exponents)

    def component(self, d: int) -> MonomialIdeal:
        """The ideal generated by all degree-d monomials of this ideal."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        out: set[Monomial] = set()
        for g in self.gens:
            if g.degree <= d:
                for m in monomials_of_degree(self.n, d - g.degree):
                    out.add(g * m)
        return minimalize(out, self.n)

    def truncate(self, k: int) -> MonomialIdeal:
        """The ideal generated by the elements of degree at most k."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        return MonomialIdeal._trusted(self.n, tuple(g for g in self.gens if g.degree <= k))

    def colon_by_variable(self, i: int, k: int = 1) -> MonomialIdeal:
        """The colon ideal (I : x_i^k)."""
        self._check_index(i)
        shifted = []
        for g in self.gens:
            e = list(g.exponents)
            e[i - 1] = max(e[i - 1] - k, 0)
            shifted.append(Monomial(tuple(e)))
        return minimalize(shifted, self.n)

    def sum_with_variable(self, i: int, k: int = 1) -> MonomialIdeal:
        """The ideal I + (x_i^k)."""
        self._check_index(i)
        power = tuple(k if j == i - 1 else 0 for j in range(self.n))
        return minimalize(list(self.gens) + [Monomial(power)], self.n)

    def kill_variables(self, kill: Iterable[int]) -> MonomialIdeal:
        """Image of I in the smaller polynomial ring with the given
        variables set to zero; remaining variables are re-indexed."""
        killed = set(kill)
        for i in killed:
            self._check_index(i)
        keep = [i for i in range(self.n) if i + 1 not in killed]
        survivors = []
        for g in self.gens:
            if all(g.exponents[i - 1] == 0 for i in killed):
                survivors.append(Monomial(tuple(g.exponents[i] for i in keep)))
        return minimalize(survivors, len(keep))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def minimalize(raw_gens: Iterable[Monomial], n: int) -> MonomialIdeal:
    """The ideal generated by raw_gens, with divisibility-redundant
    generators removed.  Idempotent and insensitive to input order."""
    gens = set()
    for g in raw_gens:
        if g.n != n:
            raise ValueError(f"generator {g} has {g.n} variables, expected {n}")
        gens.add(g)
    kept: list[Monomial] = []
    trie: dict = {}
    # a proper divisor always sorts earlier, so one ascending scan suffices
    for g in sorted(gens, key=lambda g: g.sort_key):
        if not _trie_divides(trie, g.exponents):
            kept.append(g)
            _trie_insert(trie, g.exponents)
    return MonomialIdeal._trusted(n, tuple(kept))


def stable_exchanges(u: Monomial, bounds: BoundVector) -> Iterator[Monomial]:
    """Exchanges x_j * u / x_top for every j below the top variable of u
    whose exponent has headroom under the bounds."""
    if u.is_constant:
        return
    top = u.top_index
    for j in range(1, top):
        if u.exponents[j - 1] < bounds.entries[j - 1] - 1:
            yield u.exchange(top, j)


def strong_moves(u: Monomial) -> Iterator[Monomial]:
    """Exchanges x_j * u / x_i for every i in the support of u and j < i."""
    for i in u.support:
        for j in range(1, i):
            yield u.exchange(i, j)


def squarefree_moves(u: Monomial) -> Iterator[Monomial]:
    """The strong moves x_j * u / x_i with x_j not dividing u."""
    for i in u.support:
        for j in range(1, i):
            if u.exponents[j - 1] == 0:
                yield u.exchange(i, j)


def _escapes(ideal: MonomialIdeal, moves) -> Iterator[Monomial]:
    """The moves of generators that leave the ideal, in generator order."""
    return (v for g in ideal.gens for v in moves(g) if not ideal.contains(v))


def is_stable(ideal: MonomialIdeal, bounds: BoundVector) -> bool:
    """Bounded-exchange stability.

    True iff every generator is strictly bounded by ``bounds`` and every
    exchange x_j * u / x_top of a generator stays in the ideal.  With all
    bounds infinite this is classical stability; with all bounds equal to 2
    it is squarefree stability.  The zero ideal is vacuously stable.
    """
    if bounds.n != ideal.n:
        raise ValueError("bound vector has the wrong length")
    if not all(bounds.bounds_strictly(g) for g in ideal.gens):
        return False
    return not any(_escapes(ideal, lambda g: stable_exchanges(g, bounds)))


def is_squarefree_strongly_stable(ideal: MonomialIdeal) -> bool:
    """True iff the ideal is squarefree and closed under every exchange
    (x_F / x_i) * x_j with i in the support, j < i, and x_j not dividing x_F."""
    return ideal.is_squarefree and not any(_escapes(ideal, squarefree_moves))


def _saturate(seeds: Iterable[Monomial], n: int, moves) -> MonomialIdeal:
    ideal = minimalize(seeds, n)
    while new := list(_escapes(ideal, moves)):
        ideal = minimalize(list(ideal.gens) + new, n)
    return ideal


def stable_closure(seeds: Iterable[Monomial], bounds: BoundVector) -> MonomialIdeal:
    """Smallest bounded-stable ideal containing the seeds.

    Exchange moves preserve degree and stay inside the bound box, so the
    saturation terminates; the result is a fixed point of the moves.
    """
    seeds = list(seeds)
    for s in seeds:
        if not bounds.bounds_strictly(s):
            raise ValueError(f"seed {s} is not strictly bounded by {bounds.to_text()}")
    return _saturate(seeds, bounds.n, lambda g: stable_exchanges(g, bounds))


def strongly_stable_closure(seeds: Iterable[Monomial], n: int) -> MonomialIdeal:
    """Smallest strongly stable (Borel-fixed, char 0) ideal containing the seeds."""
    return _saturate(seeds, n, strong_moves)


def squarefree_strongly_stable_closure(seeds: Iterable[Monomial], n: int) -> MonomialIdeal:
    """Smallest squarefree strongly stable ideal containing squarefree seeds."""
    seeds = list(seeds)
    for s in seeds:
        if not s.is_squarefree:
            raise ValueError(f"seed {s} is not squarefree")
    return _saturate(seeds, n, squarefree_moves)


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    return {"n": ideal.n, "generators": [list(g.exponents) for g in ideal.gens]}


def ideal_from_json(obj: dict) -> MonomialIdeal:
    """Parse {"n": 3, "generators": [[2,0,0],[1,1,0]]}; rejects rows of the
    wrong length or with negative entries."""
    if not isinstance(obj, dict):
        raise ValueError("ideal JSON must be an object")
    n = obj.get("n")
    rows = obj.get("generators")
    if type(n) is not int or n < 0:  # JSON true/false are ints to isinstance
        raise ValueError("field 'n' must be a non-negative integer")
    if not isinstance(rows, list):
        raise ValueError("field 'generators' must be a list of exponent rows")
    gens = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"exponent row {row!r} does not have length {n}")
        if not all(type(e) is int and e >= 0 for e in row):
            raise ValueError(f"exponent row {row!r} has entries that are not non-negative integers")
        gens.append(Monomial(tuple(row)))
    return minimalize(gens, n)
