"""Hilbert-series helpers that only the tests use: an inclusion-exclusion
numerator, independent of the pivot recursion it checks, and the Hilbert
function read off the numerator."""

from multbound.hilbert import Poly, numerator, poly_trim
from multbound.monomials import MonomialIdeal


def numerator_inclusion_exclusion(ideal: MonomialIdeal) -> Poly:
    """Independent oracle: N(t) = sum over generator subsets F of
    (-1)^{|F|} t^{deg lcm F}.  The subsets are grouped by their lcm, in a
    signed map lcm -> sum of (-1)^{|F|} updated one generator at a time, so
    the cost follows the lcm lattice rather than the 2^|gens| subsets."""
    signed: dict[tuple[int, ...], int] = {(0,) * ideal.n: 1}
    for g in ideal.gens:
        for m, c in list(signed.items()):
            lcm = tuple(map(max, m, g.exponents))
            signed[lcm] = signed.get(lcm, 0) - c
    out = [0] * (max(map(sum, signed)) + 1)
    for m, c in signed.items():
        out[sum(m)] += c
    return poly_trim(out)


def hilbert_function(ideal: MonomialIdeal, top: int) -> list[int]:
    """Values dim_K (S/I)_d for d = 0..top."""
    coeffs = list(numerator(ideal)) + [0] * (top + 1)
    coeffs = coeffs[: top + 1]
    for _ in range(ideal.n):
        for d in range(1, top + 1):
            coeffs[d] += coeffs[d - 1]
    return coeffs
