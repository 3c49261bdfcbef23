"""Exact Hilbert series of monomial quotients.

The numerator N(t) with H_{S/I}(t) = N(t)/(1-t)^n is computed by the pivot
recursion N(I) = N(I + (x_i^k)) + t^k * N(I : x_i^k), exact for any
monomial pivot: x_i occurs in the most non-pure-power ("mixed") generators
and k is its least positive exponent among them, so each step drops a
distinct exponent from them and the depth does not grow with the degree.
Regular sequences of pure powers are the base case.  Polynomials are dense
integer coefficient tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .monomials import MonomialIdeal

Poly = tuple[int, ...]


def poly_trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(p: Poly, q: Poly) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, tuple(-c for c in q))


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


def poly_eval_at_one(p: Poly) -> int:
    return sum(p)


def poly_div_one_minus_t(p: Poly) -> Poly | None:
    """Exact quotient p / (1 - t), or None when the division has remainder."""
    if not p:
        return ()
    out = []
    carry = 0
    for c in p[:-1]:
        carry += c
        out.append(carry)
    if carry + p[-1] != 0:
        return None
    return poly_trim(out)


@lru_cache(maxsize=4096)  # bounded for long in-process campaigns
def numerator(ideal: MonomialIdeal) -> Poly:
    """Numerator of the Hilbert series of S/I over (1-t)^n."""
    if ideal.is_unit:
        return ()
    mixed = [g for g in ideal.gens if len(g.support) >= 2]
    if not mixed:
        # pure powers of distinct variables form a regular sequence
        out: Poly = (1,)
        for g in ideal.gens:
            factor = [0] * (g.degree + 1)
            factor[0] = 1
            factor[g.degree] = -1
            out = poly_mul(out, tuple(factor))
        return out
    counts = [0] * ideal.n
    for g in mixed:
        for i in g.support:
            counts[i - 1] += 1
    pivot = max(range(ideal.n), key=lambda i: (counts[i], -i))
    k = min(g.exponents[pivot] for g in mixed if g.exponents[pivot])
    with_power = numerator(ideal.sum_with_variable(pivot + 1, k))
    colon = numerator(ideal.colon_by_variable(pivot + 1, k))
    return poly_add(with_power, poly_shift(colon, k))


def numerator_inclusion_exclusion(ideal: MonomialIdeal) -> Poly:
    """Independent oracle: N(t) = sum over generator subsets F of
    (-1)^{|F|} t^{deg lcm F}.  Exponential in the generator count."""
    n = ideal.n
    coeffs: dict[int, int] = {0: 1}
    for size in range(1, len(ideal.gens) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(ideal.gens, size):
            m = subset[0]
            for g in subset[1:]:
                m = m.lcm(g)
            coeffs[m.degree] = coeffs.get(m.degree, 0) + sign
    if not coeffs:
        return ()
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return poly_trim(out)


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
    while poly_eval_at_one(reduced) == 0:
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
        multiplicity=poly_eval_at_one(reduced),
    )


def annihilator_series(ideal: MonomialIdeal, i: int) -> Poly | None:
    """Hilbert function of (I : x_i)/I as a polynomial when it has finite
    length, else None.  Exact: the series difference must be divisible by
    (1-t)^n."""
    diff = poly_sub(numerator(ideal), numerator(ideal.colon_by_variable(i)))
    for _ in range(ideal.n):
        quotient = poly_div_one_minus_t(diff)
        if quotient is None:
            return None
        diff = quotient
    return diff


def finite_length_colon(ideal: MonomialIdeal, i: int) -> bool:
    """Whether x_i has a finite-length annihilator on S/I (is almost
    regular)."""
    return annihilator_series(ideal, i) is not None


def annihilator_length(ideal: MonomialIdeal, i: int) -> int | None:
    series = annihilator_series(ideal, i)
    return None if series is None else poly_eval_at_one(series)


def hilbert_function(ideal: MonomialIdeal, top: int) -> list[int]:
    """Values dim_K (S/I)_d for d = 0..top."""
    coeffs = list(numerator(ideal)) + [0] * (top + 1)
    coeffs = coeffs[: top + 1]
    for _ in range(ideal.n):
        for d in range(1, top + 1):
            coeffs[d] += coeffs[d - 1]
    return coeffs
