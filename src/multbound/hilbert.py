"""Exact Hilbert series of monomial quotients.

The numerator N(t) with H_{S/I}(t) = N(t)/(1-t)^n is computed by the pivot
recursion N(I) = N(I + (x_p^k)) + t^k * N(I : x_p^k), exact for any
monomial pivot: x_p occurs in the most generators and k is its least
positive exponent among the non-pure-power ("mixed") ones, so each step
drops a distinct exponent from them and the depth does not grow with the
degree.  No generator has 0 < g_p < k, so S/(I + (x_p^k)) is the tensor
product of S/(free), free the generators with g_p = 0, and S/(x_p^k): its
numerator (1 - t^k) * N(free) takes no node of its own.  Neither child is
minimalized: of I : x_p^k only a free generator g can be redundant, and
``colon_exponents`` drops it when some g / x_v is a shifted generator, by
hash, and builds a divisor index only for those that no lookup drops.  A
generator on variables that no other generator has first splits off its
tensor factor 1 - t^deg, so monomials with disjoint supports (pure powers
among them) are the base case; the generators are scanned for such a one
only when some variable occurs in just one of them, or for the unit ideal's
constant.  Subproblems are cached on their sorted exponent tuples.
Polynomials are dense integer coefficient tuples; none in the recursion has
degree above that of the lcm of the generators, so ``numerator`` refuses an
lcm degree above HILBERT_BUDGET before it recurses."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest

from .monomials import MonomialIdeal, colon_exponents

Poly = tuple[int, ...]
HILBERT_BUDGET = 2**20  # lcm degree: coefficient tuples of up to this length


def poly_trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(p: Poly, q: Poly) -> Poly:
    return poly_trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_trim([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_shift(p: Poly, k: int) -> Poly:
    """Multiply by t^k."""
    return ((0,) * k + p) if p else ()


def poly_div_one_minus_t(p: Poly) -> Poly | None:
    """Exact quotient p / (1 - t), or None when the division has remainder."""
    sums = list(accumulate(p))  # the quotient's coefficients, then p(1)
    return None if sums and sums[-1] else poly_trim(sums[:-1])


def numerator(ideal: MonomialIdeal) -> Poly:
    """Numerator of the Hilbert series of S/I over (1-t)^n.  Raises
    ValueError when the lcm of the generators has degree above
    HILBERT_BUDGET."""
    degree = sum(max(column) for column in zip(*(g.exponents for g in ideal.gens)))
    if degree > HILBERT_BUDGET:
        raise ValueError(f"the lcm of the generators has degree {degree}, over the Hilbert "
                         f"budget {HILBERT_BUDGET}")
    return _numerator(ideal.n, tuple(sorted(g.exponents for g in ideal.gens)))


# keyed on sorted exponent tuples, not the ideal, so that no cached entry
# keeps an ideal's divisor index alive; bounded for long in-process campaigns
@lru_cache(maxsize=4096)
def _numerator(n: int, gens: tuple[tuple[int, ...], ...]) -> Poly:
    occurs = [len(gens) - column.count(0) for column in zip(*gens)]
    # a generator on variables of its own splits off the tensor factor
    # S/(g), with numerator 1 - t^deg g (0 for the unit ideal's constant);
    # with no variable in one generator, only the constant can be one
    own = ()
    if 1 in occurs or not any(occurs):
        own = [g for g in gens if all(occurs[i] == 1 for i, e in enumerate(g) if e)]
    if own or not gens:
        out: Poly = (1,)
        for g in own:
            out = poly_mul(out, poly_sub((1,), poly_shift((1,), sum(g))))
        rest = tuple(g for g in gens if g not in own)
        return poly_mul(out, _numerator(n, rest)) if rest else out
    pivot = occurs.index(max(occurs))  # in two generators, one of them mixed
    k = min(g[pivot] for g in gens if g[pivot] and g.count(0) < n - 1)
    # no generator has 0 < g_p < k: a pure power x_p^j, j <= k, would divide
    # the mixed generator that sets k, so I + (x_p^k) = (free) + (x_p^k), a
    # power on a variable of its own: N(I) = (1 - t^k) N(free) + t^k N(I : x_p^k)
    free = _numerator(n, tuple(g for g in gens if not g[pivot]))
    colon = _numerator(n, tuple(sorted(colon_exponents(gens, pivot, k))))
    return poly_add(free, poly_shift(poly_sub(colon, free), k))


@dataclass(frozen=True)
class HilbertSummary:
    """Hilbert data of a proper monomial quotient S/I.

    numerator N(t) satisfies H = N/(1-t)^n; reduced_numerator Q(t) has
    Q(1) != 0 and N = Q * (1-t)^codim; multiplicity is Q(1) (for an
    Artinian quotient this is its length).
    """

    n: int
    numerator: Poly
    reduced_numerator: Poly
    dim: int
    codim: int
    multiplicity: int


def summarize(ideal: MonomialIdeal) -> HilbertSummary:
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Hilbert summary")
    num = numerator(ideal)
    reduced = num
    codim = 0
    while sum(reduced) == 0:
        quotient = poly_div_one_minus_t(reduced)
        assert quotient is not None  # (1-t) divides exactly when Q(1) = 0
        reduced = quotient
        codim += 1
    if codim > ideal.n:
        raise AssertionError("numerator vanishes at 1 to order beyond the variable count")
    return HilbertSummary(
        n=ideal.n,
        numerator=num,
        reduced_numerator=reduced,
        dim=ideal.n - codim,
        codim=codim,
        multiplicity=sum(reduced),
    )

