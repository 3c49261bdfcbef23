"""Monomials, exponent bound vectors, and monomial ideals.

Variables are 1-indexed in every public interface (supports, variable
surgeries, serialized forms); exponent tuples are 0-indexed internally.
All values are immutable after construction.

Divisibility goes through a divisor index with one bit per stored vector:
each variable keeps its sorted distinct nonzero exponents and the bits of
the vectors at least each, so an insert touches only its nonzero entries
and a probe clears at most one bitset per variable, the one at the first
key above its exponent; nothing is sized by n or by an exponent.
``contains`` looks a generator up by hash before it probes the ideal's
index, built on the first call.  ``minimalize``, ``truncate`` (a degree
prefix of a minimal canonical set) and ``kill_variables`` (survivors of
one, 0 on every killed variable) skip the validating constructor.

``minimalize`` and the closures are one pass, on exponent tuples, over the
distinct seeds in ascending degree and their moves; ``minimalize`` has no
moves.  The closures walk every bounded exchange of the top variable, but
only the elementary strong and squarefree moves, whose chains give the rest
(the step docstrings); a monomial's steps are tuples of one list that each
changes at two places and restores.  Moves keep the degree and the ideal of
the lower degrees is closed under them, so a pop that a kept monomial
divides is dropped with its moves; any other is a new minimal generator.  A
kept one of the pop's degree divides it only as a repeat, skipped before the
probe, so only lower degrees are indexed.  The stability tests probe the
same steps: ``is_stable`` each distinct step once, by ``contains``, when the
column maxima of the generators lie under the bounds, and the squarefree
test each step by the tuple helper ``_holds``; a move keeps a monomial
valid, so none validates.  Each stops at the first step outside the ideal.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import lt
from typing import Iterable, Iterator, Sequence

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
    def _trusted(cls, exponents: tuple[int, ...]) -> Monomial:
        """Wrap an exponent tuple already known to be valid, skipping __post_init__."""
        out = object.__new__(cls)
        out.__dict__["exponents"] = exponents
        return out

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
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order: total degree, then lexicographic on exponents."""
        return (self.degree, self.exponents)

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __str__(self) -> str:
        parts = (f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(self.exponents) if e)
        return "*".join(parts) or "1"


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
        entries: list[int | float | str] = []
        for part in text.split(","):
            part = part.strip()
            # text that is no whole number stays text, for the constructor to reject by name
            entries.append(INFINITY if part in ("inf", "infinity", "oo")
                           else int(part) if part.isdecimal() else part)
        return cls(tuple(entries))

    def to_text(self) -> str:
        return ",".join("inf" if a == INFINITY else str(a) for a in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def bounds_strictly(self, u: Monomial) -> bool:
        """True iff u_i < a_i for every i."""
        return all(e < a for e, a in zip(u.exponents, self.entries))


class _DivisorIndex:
    """Stored exponent vectors, bit b for the b-th added; a 0 entry is stored
    nowhere, only nonzero exponents are keys (module docstring)."""

    __slots__ = ("size", "levels")

    def __init__(self, rows: Iterable[tuple[int, ...]] = ()) -> None:
        self.size = 0
        self.levels: dict[int, tuple[list[int], list[int]]] = {}  # variable -> (nonzero exponents, bits)
        for row in rows:
            self.add(row)

    def add(self, exponents: tuple[int, ...]) -> None:
        bit = 1 << self.size
        self.size += 1
        for v, e in enumerate(exponents):
            if e:
                keys, bits = self.levels.setdefault(v, ([], []))
                k = bisect_left(keys, e)
                if k == len(keys) or keys[k] != e:
                    keys.insert(k, e)
                    bits.insert(k, bits[k] if k < len(bits) else 0)  # the vectors at least the next key
                for j in range(k + 1):
                    bits[j] |= bit

    def divisors(self, exponents: Sequence[int]) -> int:
        """The bits of the stored vectors that divide x^exponents."""
        found = (1 << self.size) - 1
        for v, (keys, bits) in self.levels.items():
            if (k := bisect_right(keys, exponents[v])) < len(keys):
                found &= ~bits[k]  # clear the vectors above exponents[v]
                if not found:
                    return 0
        return found

    def divisor_masks(self, exponents: Sequence[int]) -> tuple[list[int], list[int]]:
        """Per variable v, the bits of the stored vectors whose entry v is at
        most exponents[v], and those whose entry v is at most exponents[v] + 1."""
        full = (1 << self.size) - 1
        at, past = [full] * len(exponents), [full] * len(exponents)
        for v, (keys, bits) in self.levels.items():
            for masks, e in ((at, exponents[v]), (past, exponents[v] + 1)):
                if (k := bisect_right(keys, e)) < len(keys):
                    masks[v] = full & ~bits[k]
        return at, past


def _exponents_of_degree(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The exponent tuples of degree d in n variables, descending lexicographically."""
    if d < 0 or d and not n:
        return
    e = [d] + [0] * (n - 1) if n else []
    while True:
        yield tuple(e)
        # the successor: the last nonzero e[i], i < n - 1, gives a unit to e[i + 1], which takes e[-1] too
        i = n - 2
        while i >= 0 and not e[i]:
            i -= 1
        if i < 0:
            return
        e[i], e[-1], e[i + 1] = e[i] - 1, 0, e[-1] + 1


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
    def _index(self) -> _DivisorIndex:
        """Divisor index of the generators; bit b is gens[b]."""
        return _DivisorIndex(g.exponents for g in self.gens)

    @cached_property
    def _generator_exponents(self) -> frozenset[tuple[int, ...]]:
        return frozenset(g.exponents for g in self.gens)

    @cached_property
    def _stability(self) -> dict[tuple[int | float, ...], bool]:
        """``is_stable`` verdicts keyed by bound entries."""
        return {}

    def contains(self, m: Monomial) -> bool:
        if len(m.exponents) != self.n:
            raise ValueError("monomial lives in a different variable count")
        return self._holds(m.exponents)

    def _holds(self, exponents: tuple[int, ...]) -> bool:
        """``contains`` on an exponent tuple of length n: a generator by hash, else the index."""
        return exponents in self._generator_exponents or self._index.divisors(exponents) != 0

    def truncate(self, k: int) -> MonomialIdeal:
        """The ideal generated by the elements of degree at most k."""
        if k < 0:
            raise ValueError("degree must be non-negative")
        return MonomialIdeal._trusted(self.n, tuple(g for g in self.gens if g.degree <= k))

    def kill_variables(self, kill: Iterable[int]) -> MonomialIdeal:
        """Image of I in the smaller polynomial ring with the given
        variables set to zero; remaining variables are re-indexed."""
        killed = set(kill)
        for i in killed:
            self._check_index(i)
        keep = [i for i in range(self.n) if i + 1 not in killed]
        survivors = (g.exponents for g in self.gens if all(g.exponents[i - 1] == 0 for i in killed))
        gens = tuple(Monomial._trusted(tuple(e[i] for i in keep)) for e in survivors)
        return MonomialIdeal._trusted(len(keep), gens)

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
    return _saturate(raw_gens, n, lambda e: ())


def colon_exponents(gens: Sequence[tuple[int, ...]], p: int, k: int) -> list[tuple[int, ...]]:
    """Minimal generators of (I : x_p^k), p 0-based, in no fixed order, from
    the minimal generators of I, none with 0 < g_p < k.  A shifted generator
    with g_p >= k is divided by no other, as that would hold before the shift,
    so only a free g (g_p = 0) can be redundant, divided by a shifted one with
    g_p = k.  Each g / x_v, v in supp g, is looked up among those by hash, and a
    hit drops g; only a g that no lookup drops is probed against their index."""
    shifted = [g[:p] + (g[p] - k,) + g[p + 1:] for g in gens if g[p]]
    lows = {e for e in shifted if not e[p]}
    rest = []
    for g in gens:
        if not g[p]:
            out = list(g)
            for v, x in enumerate(g):
                if x:
                    out[v] = x - 1
                    if tuple(out) in lows:
                        break
                    out[v] = x
            else:
                rest.append(g)
    if rest:
        index = _DivisorIndex(lows)
        return shifted + [g for g in rest if not index.divisors(g)]
    return shifted


def _stable_steps(e: tuple[int, ...], bounds: tuple[int | float, ...]) -> list[tuple[int, ...]]:
    """The exchanges x_j * x^e / x_top for every j below the top variable
    of e whose exponent has headroom under the bounds."""
    top = len(e) - 1
    while top > 0 and not e[top]:
        top -= 1
    steps, out = [], list(e)
    for j in range(top):
        if e[j] < bounds[j] - 1:
            out[j], out[top] = e[j] + 1, e[top] - 1
            steps.append(tuple(out))
            out[j] = e[j]
    return steps


def _strong_steps(e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The adjacent exchanges x_{i-1} * x^e / x_i, whose chains give every Borel
    move; for m = g * w in I, x_i | w or x_i | g keeps m's steps in I when g's are."""
    steps, out = [], list(e)
    for i in range(1, len(e)):
        if e[i]:
            out[i - 1], out[i] = e[i - 1] + 1, e[i] - 1
            steps.append(tuple(out))
            out[i - 1], out[i] = e[i - 1], e[i]
    return steps


def _squarefree_steps(e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Each i in the support moved to the largest free j < i; chains of these give every
    squarefree Borel move.  For m = g * w in I, x_i | w keeps the step in I; if x_i | g, g's
    largest free j' >= j, and j' > j puts x_j' in w: x_j * m / x_i = (x_j' * g / x_i) * (w / x_j') * x_j."""
    steps, out, free = [], list(e), -1
    for i, x in enumerate(e):
        if not x:
            free = i
        elif free >= 0:
            out[free], out[i] = 1, x - 1
            steps.append(tuple(out))
            out[free], out[i] = 0, x
    return steps


def is_stable(ideal: MonomialIdeal, bounds: BoundVector) -> bool:
    """Bounded-exchange stability.

    True iff every generator is strictly bounded by ``bounds`` and every
    exchange x_j * u / x_top of a generator stays in the ideal.  With all
    bounds infinite this is classical stability; with all bounds equal to 2
    it is squarefree stability.  The zero ideal is vacuously stable.  The
    verdict is computed once per ideal and bound vector and kept on the ideal.
    """
    if bounds.n != ideal.n:
        raise ValueError("bound vector has the wrong length")
    cache = ideal._stability
    if bounds.entries not in cache:
        rows = [g.exponents for g in ideal.gens]
        steps = chain.from_iterable(_stable_steps(e, bounds.entries) for e in rows)
        cache[bounds.entries] = (all(map(lt, map(max, zip(*rows)), bounds.entries)) and
                                 all(map(ideal.contains, map(Monomial._trusted, dict.fromkeys(steps)))))
    return cache[bounds.entries]


def _saturate(seeds: Iterable[Monomial], n: int, steps, limit: float = INFINITY) -> MonomialIdeal | None:
    distinct = set()
    for g in seeds:
        if g.n != n:
            raise ValueError(f"generator {g} has {g.n} variables, expected {n}")
        distinct.add(g.exponents)
    kept: list[tuple[int, ...]] = []  # only grows: each lower degree is settled first (module docstring)
    index = _DivisorIndex()  # kept[:index.size], those below the current seed's degree
    popped = set()  # a repeat is kept or divided by a kept monomial already
    for seed in sorted(distinct, key=lambda e: (sum(e), e)):  # a proper divisor sorts earlier
        while index.size < len(kept) and sum(kept[index.size]) < sum(seed):
            index.add(kept[index.size])
        stack = [seed]
        while stack:
            e = stack.pop()
            if e not in popped:
                popped.add(e)
                if not index.divisors(e):
                    kept.append(e)
                    stack.extend(steps(e))
                    if len(kept) > limit:
                        return None
    return MonomialIdeal._trusted(n, tuple(map(Monomial._trusted, sorted(kept, key=lambda e: (sum(e), e)))))


def stable_closure(seeds: Iterable[Monomial], bounds: BoundVector, limit: float = INFINITY) -> MonomialIdeal | None:
    """Smallest bounded-stable ideal containing the seeds; None past ``limit`` generators.

    Exchange moves preserve degree and stay inside the bound box, so the
    saturation terminates; the result is a fixed point of the moves.
    """
    seeds = list(seeds)
    for s in seeds:
        if not bounds.bounds_strictly(s):
            raise ValueError(f"seed {s} is not strictly bounded by {bounds.to_text()}")
    return _saturate(seeds, bounds.n, lambda e: _stable_steps(e, bounds.entries), limit)


def strongly_stable_closure(seeds: Iterable[Monomial], n: int, limit: float = INFINITY) -> MonomialIdeal | None:
    """Smallest strongly stable (Borel-fixed, char 0) ideal containing the seeds; None past ``limit`` generators."""
    return _saturate(seeds, n, _strong_steps, limit)


def squarefree_strongly_stable_closure(seeds: Iterable[Monomial], n: int, limit: float = INFINITY) -> MonomialIdeal | None:
    """Smallest squarefree strongly stable ideal containing squarefree seeds; None past ``limit`` generators."""
    seeds = list(seeds)
    for s in seeds:
        if not s.is_squarefree:
            raise ValueError(f"seed {s} is not squarefree")
    return _saturate(seeds, n, _squarefree_steps, limit)


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
