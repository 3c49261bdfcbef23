"""Reference routines that only the tests use: an inclusion-exclusion
numerator, independent of the pivot recursion it checks, the Hilbert
function read off the numerator, and a Koszul strand walker that probes
every subset mask, independent of the tight sets and the Morse matching
of ``betti.strand_table``."""

from typing import Iterable

from multbound.hilbert import Poly, numerator, poly_trim
from multbound.homology import subset_homology
from multbound.monomials import Monomial, MonomialIdeal


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


def strand_table_by_probes(
    ideal: MonomialIdeal,
    multidegrees: Iterable[tuple[int, ...]],
    variables: Iterable[int],
    modulus: int | None = None,
) -> dict[tuple[int, int], int]:
    """Reference for ``betti.strand_table``: in each multidegree a, probe
    x^(a - 1_F) with ``contains`` for every subset F of the ground
    (supp(a) within the variables) and take the homology of the whole
    standard family, with no reduction."""
    variables = tuple(variables)
    table: dict[tuple[int, int], int] = {}
    for a in multidegrees:
        ground = [v for v in variables if a[v]]

        def is_standard(mask: int) -> bool:
            e = list(a)
            for t, v in enumerate(ground):
                if mask >> t & 1:
                    e[v] -= 1
            return not ideal.contains(Monomial(tuple(e)))

        family = [mask for mask in range(1 << len(ground)) if is_standard(mask)]
        for i, d in subset_homology(family, modulus).items():
            if d:
                key = (i, sum(a))
                table[key] = table.get(key, 0) + d
    return table
