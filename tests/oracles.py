"""Reference routines that only the tests use: an inclusion-exclusion
numerator, independent of the pivot recursion it checks, the pivot
recursion itself with the generators free of the pivot and the colon
each minimalized from a whole generating set, independent of the
structural children of ``hilbert._numerator``, the colon I : x_p^k by
``minimalize``, independent of the hash lookups of
``monomials.colon_exponents``, the Hilbert numerator as the alternating
sum of a Betti table,
the Hilbert function read off the numerator, the annihilator (I : x_i)/I
read off the numerators of I and of its killed quotient, for any i,
independent of ``koszul._suffix_walk``, a Koszul strand walker that probes
every subset mask, independent of the lcm-lattice codes, the tight sets
and the Morse matching of ``betti._strands``, a tuple-to-code encoder
that feeds ``_strands`` tuple multidegrees off the cone rule, the
divisors, degree and levels that ``_strands`` should hand its kernel
``betti._strand``, by a scan of every generator, the cut families that
the kernel hands its counting step, built by one subsets-missing pass per
tight set, independent of its tight masks and down-closures, that counting
step one family at a time, untiled, with the shifts that tile and untile
its batches, the Koszul
strand table over every multidegree up to its bound by probes,
independent of the cone rule and the codes of ``koszul.koszul_strands``,
Hochster's formula on whole restrictions,
independent of the vertex-star pairs of ``betti.betti_hochster``, the
star cuts that it visits as first chosen, one subsets-missing pass per
vertex set and ``min`` over the stars,
closures by re-minimalizing rounds, independent of the one ascending
pass of ``monomials._saturate``, the Borel and squarefree Borel moves
that define strongly stable and squarefree strongly stable ideals,
independent of the elementary steps the closures walk, the divisor trie
that ``monomials`` used before its bitset index, divisor bits by a scan
of every stored row, the closed Betti formula of bounded-stable ideals
through each generator's top variable and saturation count, independent
of the generator-shape count of ``betti.betti_stable_formula``, the Betti
tables, codimensions and multiplicities of m^d, of the squarefree
Veronese ideals, of the edge ideals of cycles and of squarefree complete
intersections in closed form, ``is_stable`` as first written, by list
copies and ``contains``, independent of its one-list steps, one exchange
by its own list copy, the squarefree strongly stable test that the package
no longer exports, every
degree-d monomial as a multiset of variables, independent of the
successor loop of ``monomials._exponents_of_degree``, reduced simplicial
homology by ``subset_homology`` on every face mask, that builder as it
was before its d∘d rule, checking d∘d = 0 by pushing each column through
the boundary below, the small monomial
and face helpers that the tests build their references from, and a
child-process runner for the tests that must finish within a timeout or
an address-space cap."""

import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from pathlib import Path
from typing import Iterable, Iterator

import pytest

import multbound
from multbound import betti
from multbound.betti import SUBJECT_IDEAL, SUBJECT_QUOTIENT, BettiTable
from multbound.hilbert import (Poly, numerator, poly_add, poly_div_one_minus_t, poly_mul, poly_shift, poly_sub,
                               poly_trim)
from multbound.homology import ExactMatrix, subset_homology
from multbound.monomials import BoundVector, Monomial, MonomialIdeal, _squarefree_steps, minimalize
from multbound.simplicial import SimplicialComplex


def child_run(code, cap=None, timeout=10):
    """Run code in a fresh interpreter on this multbound, with its address
    space capped at cap bytes when given; returns the finished process, or
    raises subprocess.TimeoutExpired after timeout seconds."""
    env = {**os.environ, "PYTHONPATH": str(Path(multbound.__file__).parents[1])}
    limit = None
    if cap is not None:
        resource = pytest.importorskip("resource")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout, preexec_fn=limit)


def monomials_of_degree(n: int, d: int) -> Iterator[Monomial]:
    """Every degree-d monomial in n variables, one per multiset of d variables."""
    for combo in combinations_with_replacement(range(n), d):
        yield Monomial(tuple(combo.count(v) for v in range(n)))


def multiply(u: Monomial, v: Monomial) -> Monomial:
    return Monomial(tuple(a + b for a, b in zip(u.exponents, v.exponents)))


def component(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """The ideal generated by all degree-d monomials of the ideal."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    out = {multiply(g, m) for g in ideal.gens if g.degree <= d
           for m in monomials_of_degree(ideal.n, d - g.degree)}
    return minimalize(out, ideal.n)


def saturate_by_rounds(seeds: Iterable[Monomial], n: int, moves) -> MonomialIdeal:
    """The smallest ideal containing the seeds whose generators' moves stay
    inside it, by rounds: each round adds the moves of the last round's new
    generators that leave the ideal and minimalizes the whole ideal again.
    ``moves`` maps an exponent tuple to the exponent tuples of its moves."""
    ideal = minimalize(seeds, n)
    fresh = ideal.gens
    while new := [m for g in fresh for m in map(Monomial, moves(g.exponents)) if not ideal.contains(m)]:
        ideal = minimalize(list(ideal.gens) + new, n)
        added = set(new)
        fresh = [g for g in ideal.gens if g in added]
    return ideal


def borel_moves(e: tuple[int, ...], squarefree: bool = False) -> list[tuple[int, ...]]:
    """Every Borel move x_j * x^e / x_i with x_i | x^e and j < i, 0-based;
    with ``squarefree``, only those with x_j not dividing x^e."""
    return [e[:j] + (e[j] + 1,) + e[j + 1:i] + (e[i] - 1,) + e[i + 1:]
            for i in range(len(e)) if e[i] for j in range(i) if not (squarefree and e[j])]


_END = None  # marks a stored vector; else an empty trie with n = 0 would divide 1
_LEAF = {_END: True}  # the bottom node, shared by every stored vector to save memory


def trie_insert(trie: dict, exponents: tuple[int, ...]) -> None:
    """Store an exponent vector in a trie with one level per variable,
    keyed by exponent."""
    if not exponents:
        trie[_END] = True
    for i, e in enumerate(exponents, 1):
        trie = trie.setdefault(e, {} if i < len(exponents) else _LEAF)


def trie_divides(trie: dict, exponents: tuple[int, ...]) -> bool:
    """Whether an exponent vector stored in the trie divides x^exponents: a
    probe follows only the branches whose exponent is at most its own."""
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


def divisor_bits(rows: Iterable[tuple[int, ...]], probe: tuple[int, ...]) -> int:
    """Brute force: bit b set iff the b-th row divides x^probe."""
    return sum(1 << b for b, row in enumerate(rows) if all(r <= p for r, p in zip(row, probe)))


def top_index(u: Monomial) -> int:
    """The largest 1-based index of a variable of u; 0 for the constant monomial."""
    return max(u.support, default=0)


def saturation_count(u: Monomial, bounds: BoundVector) -> int:
    """The indices below the top variable of u whose exponent sits at its
    bound minus one; an infinite bound is never reached."""
    return sum(1 for i in range(top_index(u) - 1) if u.exponents[i] == bounds.entries[i] - 1)


def formula_by_saturation_count(ideal: MonomialIdeal, bounds: BoundVector) -> BettiTable:
    """The closed formula b_{i,i+deg u}(I) += C(top(u) - 1 - saturation(u), i)
    over the generators u of a bounded-stable ideal, per ``Monomial``."""
    entries: Counter = Counter()
    for g in ideal.gens:
        width = top_index(g) - 1 - saturation_count(g, bounds)
        for i in range(width + 1):
            entries[(i, i + g.degree)] += comb(width, i)
    return BettiTable(SUBJECT_IDEAL, ideal.n, dict(entries))


def maximal_power(n: int, d: int) -> tuple[MonomialIdeal, BettiTable, int, int]:
    """m^d in n variables, d >= 1, from every monomial of degree d, with its
    Betti table over the ideal, codimension and multiplicity in closed form:
    b_{i,i+d}(I) = C(d+n-1, d+i) C(d+i-1, i) for i < n, codim n and
    e = C(n+d-1, n), the monomials of degree below d."""
    table = {(i, i + d): comb(d + n - 1, d + i) * comb(d + i - 1, i) for i in range(n)}
    return minimalize(monomials_of_degree(n, d), n), BettiTable(SUBJECT_IDEAL, n, table), n, comb(n + d - 1, n)


def squarefree_veronese(n: int, d: int) -> tuple[MonomialIdeal, BettiTable, int, int]:
    """I_{n,d}, every squarefree monomial of degree d in n variables,
    1 <= d <= n, with its Betti table over the ideal, codimension and
    multiplicity in closed form: b_{i,i+d}(I) = C(n, d+i) C(d+i-1, i) for
    i <= n - d, codim n - d + 1 and e = C(n, d - 1), the facets of its
    Stanley-Reisner complex, every (d-1)-subset of the n vertices."""
    gens = [Monomial(tuple(int(v in face) for v in range(n))) for face in combinations(range(n), d)]
    table = {(i, i + d): comb(n, d + i) * comb(d + i - 1, i) for i in range(n - d + 1)}
    return minimalize(gens, n), BettiTable(SUBJECT_IDEAL, n, table), n - d + 1, comb(n, d - 1)


def cycle_edge_ideal(n: int) -> tuple[MonomialIdeal, BettiTable, int, int]:
    """The edge ideal of the cycle C_n, n >= 3, generated by x_j x_{j+1} and
    x_n x_1, with its Betti table over the ideal, codimension and
    multiplicity in closed form (Jacques, PhD thesis, Sheffield 2004,
    Thm 7.6.28).  For d < n, b_{i,d}(S/I) = n/(n - 2k) C(k, i - k)
    C(n - 2k, k) with k = d - i; degree n holds one entry, 2 at i = 2n/3
    when 3 divides n, else 1 at i = (2n + 1)/3 or (2n - 1)/3.  Its codim is
    ceil(n/2), and e counts the minimum vertex covers: 2 for even n, n for
    odd n."""
    quotient = {}
    for k in range(n // 2 + 1):
        for i in range(k, min(2 * k, n - k - 1) + 1):
            value, rest = divmod(n * comb(k, i - k) * comb(n - 2 * k, k), n - 2 * k)
            assert rest == 0, (n, i, k)
            if value:
                quotient[(i, i + k)] = value
    quotient[((2 * n + (n % 3 == 1) - (n % 3 == 2)) // 3, n)] = 2 if n % 3 == 0 else 1
    edges = [Monomial(tuple(int(v in (j, (j + 1) % n)) for v in range(n))) for j in range(n)]
    table = BettiTable(SUBJECT_QUOTIENT, n, quotient).to_ideal()
    return minimalize(edges, n), table, (n + 1) // 2, 2 if n % 2 == 0 else n


def complete_intersection(degrees: tuple[int, ...]) -> tuple[MonomialIdeal, BettiTable, int, int]:
    """Squarefree monomials of the given degrees on disjoint blocks of
    variables, a complete intersection, with its Betti table over the ideal,
    codimension and multiplicity in closed form: the Koszul complex gives
    sum_{i,j} b_{i,j}(S/I) s^i t^j = prod_j (1 + s t^{d_j}), codim the number
    of generators and e the product of their degrees."""
    n, poly = sum(degrees), {(0, 0): 1}
    for d in degrees:
        product = Counter(poly)
        for (i, j), v in poly.items():
            product[(i + 1, j + d)] += v
        poly = product
    blocks = [sum(degrees[:j]) for j in range(len(degrees) + 1)]
    gens = [Monomial(tuple(int(a <= v < b) for v in range(n))) for a, b in zip(blocks, blocks[1:])]
    return minimalize(gens, n), BettiTable(SUBJECT_QUOTIENT, n, dict(poly)).to_ideal(), len(degrees), prod(degrees)


def alternating_numerator(table: BettiTable) -> Poly:
    """The Hilbert numerator sum_{i,j} (-1)^i b_{i,j}(S/I) t^j read off a
    Betti table in either view."""
    quotient = table.to_quotient().entries
    coeffs = [0] * (max(j for _, j in quotient) + 1)
    for (i, j), v in quotient.items():
        coeffs[j] += -v if i % 2 else v
    return poly_trim(coeffs)


def exchanged(e: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The exponents of x_j * x^e / x_i, 0-based; requires e_i > 0 (the
    one-copy-per-step helper that ``monomials`` once built its moves with)."""
    out = list(e)
    out[i] -= 1
    out[j] += 1
    return tuple(out)


def colon_by_minimalize(gens: Iterable[tuple[int, ...]], p: int, k: int) -> list[tuple[int, ...]]:
    """Reference for ``monomials.colon_exponents``: the minimal generators,
    sorted, of the generators with g_p >= k shifted down by k at p (p
    0-based) together with the free ones (g_p = 0), taken by ``minimalize``."""
    gens = list(gens)
    n = len(gens[0]) if gens else 0
    shifted = [g[:p] + (g[p] - k,) + g[p + 1:] if g[p] else g for g in gens]
    return sorted(g.exponents for g in minimalize(map(Monomial, shifted), n).gens)


def exchanges_by_copy(e: tuple[int, ...], bounds: tuple[int | float, ...]) -> list[tuple[int, ...]]:
    """The exchanges x_j * x^e / x_top with e_j < a_j - 1, j ascending, each
    from its own list copy, as ``monomials._stable_steps`` first built them."""
    top = max((i for i, x in enumerate(e) if x), default=0)
    out = []
    for j in range(top):
        if e[j] < bounds[j] - 1:
            step = list(e)
            step[top] -= 1
            step[j] += 1
            out.append(tuple(step))
    return out


def is_stable_by_exchanges(ideal: MonomialIdeal, bounds: BoundVector) -> bool:
    """``monomials.is_stable`` as first written, uncached: every generator
    ``bounds_strictly`` bounded, and every ``exchanges_by_copy`` step of
    every generator in the ideal by ``contains``."""
    return (all(bounds.bounds_strictly(g) for g in ideal.gens) and
            all(ideal.contains(Monomial(v)) for g in ideal.gens for v in exchanges_by_copy(g.exponents, bounds.entries)))


def has_face(complex_: SimplicialComplex, face: Iterable[int]) -> bool:
    f = frozenset(face)
    return any(f <= g for g in complex_.facets)


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


def numerator_by_minimalize(ideal: MonomialIdeal) -> tuple[Poly, int]:
    """Reference pivot recursion: the same pivot rule and subproblems as
    ``hilbert._numerator``, but the generators free of x_p and I : x_p^k
    are each minimalized from their whole generating sets, and
    N(I + (x_p^k)) is (1 - t^k) times the free part's numerator by a
    polynomial product.  Returns the numerator and the number of distinct
    subproblems solved."""
    n = ideal.n
    memo: dict[tuple[Monomial, ...], Poly] = {}

    def solve(gens: tuple[Monomial, ...]) -> Poly:
        if gens in memo:
            return memo[gens]
        occurs = Counter(i for g in gens for i in g.support)
        own = [g for g in gens if all(occurs[i] == 1 for i in g.support)]
        if own or not gens:
            out: Poly = (1,)
            for g in own:
                out = poly_mul(out, poly_sub((1,), poly_shift((1,), g.degree)))
            rest = tuple(g for g in gens if g not in own)
            result = poly_mul(out, solve(rest)) if rest else out
        else:
            p = max(occurs, key=lambda i: (occurs[i], -i)) - 1
            k = min(g.exponents[p] for g in gens if g.exponents[p] and len(g.support) >= 2)
            free = solve(minimalize([g for g in gens if not g.exponents[p]], n).gens)
            shifted = [Monomial(tuple(max(e - k, 0) if j == p else e for j, e in enumerate(g.exponents)))
                       for g in gens]
            # I + (x_p^k) is (free) + (x_p^k), a tensor product with S/(x_p^k)
            with_power = poly_mul(poly_sub((1,), poly_shift((1,), k)), free)
            result = poly_add(with_power, poly_shift(solve(minimalize(shifted, n).gens), k))
        memo[gens] = result
        return result

    return solve(ideal.gens), len(memo)


def hilbert_function(ideal: MonomialIdeal, top: int) -> list[int]:
    """Values dim_K (S/I)_d for d = 0..top."""
    coeffs = list(numerator(ideal)) + [0] * (top + 1)
    coeffs = coeffs[: top + 1]
    for _ in range(ideal.n):
        for d in range(1, top + 1):
            coeffs[d] += coeffs[d - 1]
    return coeffs


def annihilator_series(ideal: MonomialIdeal, i: int) -> Poly | None:
    """Hilbert function of (I : x_i)/I as a polynomial when it has finite
    length, else None.  Multiplication by x_i gives the exact sequence
    0 -> ((I : x_i)/I)(-1) -> (S/I)(-1) -> S/I -> S/(I + x_i) -> 0, so the
    series is (N_K - N_I) / (t * (1-t)^(n-1)), with N_K the numerator of
    the killed quotient over n - 1 variables."""
    num = numerator(ideal)  # first: an ideal over the budget raises with its lcm degree
    diff = poly_sub(numerator(ideal.kill_variables({i})), num)
    # both constant terms are 1, or both numerators are () for the unit ideal
    assert not diff or diff[0] == 0
    diff = diff[1:]
    for _ in range(ideal.n - 1):
        quotient = poly_div_one_minus_t(diff)
        if quotient is None:
            return None
        diff = quotient
    return diff


def strand_table_by_probes(
    ideal: MonomialIdeal,
    multidegrees: Iterable[tuple[int, ...]],
    variables: Iterable[int],
    modulus: int | None = None,
) -> dict[tuple[int, int], int]:
    """Reference for ``betti._strands``: in each multidegree a, probe
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


def is_cone(ideal: MonomialIdeal, a: tuple[int, ...], variables: Iterable[int]) -> bool:
    """Whether a has a positive exponent on one of the variables that no
    generator has there: then its strand on them is a cone, so acyclic."""
    return any(a[v] and all(g.exponents[v] != a[v] for g in ideal.gens) for v in variables)


def strand_table_by_codes(
    ideal: MonomialIdeal,
    multidegrees: Iterable[tuple[int, ...]],
    variables: Iterable[int],
    modulus: int | None = None,
) -> dict[tuple[int, int], int]:
    """``betti._strands`` on the given variables as ground over the
    multidegrees off the cone rule (the cones are dropped), each coded here:
    every exponent in unary, one bit per generator exponent of its variable
    that it reaches, in the fields of ``betti._fields``."""
    variables = tuple(variables)
    ranks, offsets, codes = betti._fields(ideal)
    ground = sum((1 << offsets[v + 1]) - (1 << offsets[v]) for v in variables)
    items = [(sum((1 << sum(0 < x <= e for x in ranks[v])) - 1 << offsets[v] for v, e in enumerate(a)),
              sum(e for v, e in enumerate(a) if v not in variables))
             for a in multidegrees if not is_cone(ideal, a, variables)]
    return betti._strands(ranks, offsets, codes, items, ground, modulus)


def strand_inputs(
    ideal: MonomialIdeal,
    multidegrees: Iterable[tuple[int, ...]],
    variables: Iterable[int],
) -> Counter:
    """Reference for what ``betti._strands`` hands ``betti._strand`` in each
    multidegree a, counted: |a|, the divisors of x^a (bit b for gens[b]) by
    a scan of every generator, and, per ground variable v (supp a within the
    variables) in ascending order, the divisors g with g_v = a_v."""
    variables = tuple(variables)
    rows = [g.exponents for g in ideal.gens]
    fed = Counter()
    for a in multidegrees:
        divisors = divisor_bits(rows, a)
        levels = tuple(divisors & sum(1 << b for b, row in enumerate(rows) if row[v] == a[v])
                       for v in variables if a[v])
        fed[sum(a), divisors, levels] += 1
    return fed


def subsets_missing(bits: list[int], m: int) -> int:
    """The subsets of the ground that miss the mask m, as one set of subsets:
    bit s of it is the subset s of the ground renumbered in order (bits)."""
    subsets = 1
    for i, bit in enumerate(bits):
        if not m & bit:
            subsets |= subsets << (1 << i)
    return subsets


def cut_families_by_missing(
    ideal: MonomialIdeal,
    multidegrees: Iterable[tuple[int, ...]],
    variables: Iterable[int],
) -> list[tuple[int, int]]:
    """Reference for the (family, k) pairs, in order, that ``betti._strand``
    hands to its counting step: in each multidegree, the tight sets built bit by
    bit per divisor, found by a scan of every generator, and the cut family as
    the OR of the subsets missing each c - v, c a tight set with the last
    ground variable v, less the OR of those missing each tight set p without
    v, one ``subsets_missing`` per tight set, over the ground below v
    numbered by how many tight sets hold each element, fewest first."""
    variables = tuple(variables)
    rows = [g.exponents for g in ideal.gens]
    pairs = []
    for a in multidegrees:
        divisors = divisor_bits(rows, a)
        ground = [v for v in variables if a[v]]
        equal = [sum(1 << b for b, row in enumerate(rows) if row[v] == a[v]) for v in ground]
        if not ground or any(divisors >> b & 1 and not any(level >> b & 1 for level in equal)
                             for b in range(len(rows))):
            continue
        tight = {sum(1 << t for t, level in enumerate(equal) if level >> b & 1)
                 for b in range(len(rows)) if divisors >> b & 1}
        top = len(ground) - 1
        bits = [1 << t for t in sorted(range(top), key=lambda t: (divisors & equal[t]).bit_count())]
        cells = 0
        for c in tight:
            if c >> top & 1:
                cells |= subsets_missing(bits, c)
        for p in tight:
            if not p >> top & 1:
                cells &= ~subsets_missing(bits, p)
        if cells:
            pairs.append((cells, top))
    return pairs


def family_homology_by_counting(family: int, k: int, modulus: int | None = None) -> dict[int, int]:
    """Reference for one family of ``betti._batch_homology``: the homology
    {size: dim} of a convex set of subsets of range(k), one 2^k-bit integer,
    as the strand kernel counted it one family at a time, with no tiling:
    the ascending element matchings, the convexity check, then the critical
    cells counted by size, at once if one or none is left, or the whole
    family ranked when two critical sizes are adjacent."""
    up = down = critical = family
    for j, lack in enumerate(betti._lacks(k)):
        up |= (up & lack) << (1 << j)
        down |= down >> (1 << j) & lack
        pairs = critical & lack & critical >> (1 << j)
        critical ^= pairs | pairs << (1 << j)
    if up & down != family:
        raise ValueError("the family of subsets is not convex")
    if not critical & critical - 1:  # at most one critical cell, so no differential
        return {(critical.bit_length() - 1).bit_count(): 1} if critical else {}
    sizes = Counter(cell.bit_count() for cell in betti._members(critical))
    if any(s + 1 in sizes for s in sizes):
        return subset_homology(betti._members(family), modulus)
    return sizes


def tiled(families: Iterable[int], k: int) -> int:
    """Families of subsets of range(k) as one ``betti._batch_homology``
    batch, by shifts: family b at bit b·2^k."""
    return sum(family << (b << k) for b, family in enumerate(families))


def untiled(batch: int, k: int) -> list[int]:
    """The families of a batch over range(k), block by block up to its last
    nonempty one, the empty ones included."""
    bits = 1 << k
    return [batch >> b * bits & (1 << bits) - 1 for b in range(-(-batch.bit_length() // bits))]


def is_squarefree_strongly_stable(ideal: MonomialIdeal) -> bool:
    """True iff the ideal is squarefree and the ``_squarefree_steps`` of every
    generator lie in it, hence every squarefree Borel move of its monomials:
    the package's test as it was before it left the API, which no route
    called, kept for the tests that check closures with it."""
    return ideal.is_squarefree and all(ideal._holds(v) for g in ideal.gens for v in _squarefree_steps(g.exponents))


def every_multidegree(n: int, degree_bound: int) -> list[tuple[int, ...]]:
    """The exponent tuples of every monomial of degree at most degree_bound."""
    return [m.exponents for j in range(degree_bound + 1) for m in monomials_of_degree(n, j)]


def koszul_dims_by_enumeration(ideal: MonomialIdeal, k: int, degree_bound: int) -> dict[tuple[int, int], int]:
    """Reference for the dims of ``koszul.koszul_strands``: the strands on
    the last k variables, by probes, summed over every multidegree of degree
    at most degree_bound, the cones that the cone rule skips included."""
    return strand_table_by_probes(ideal, every_multidegree(ideal.n, degree_bound), range(ideal.n - k, ideal.n))


def subset_homology_by_push(family: Iterable[int], modulus: int | None = None) -> dict[int, int]:
    """Homology dimensions {size: dim H_size} of the chain complex spanned
    by a family of subsets of {0, 1, ...}, given as bitmasks and graded by
    size, for every size up to the largest in the family.

    The boundary is d(F) = sum over t in F of (-1)^#{s in F : s < t} (F - t),
    with the terms outside the family dropped.  The empty family has no
    homology at all (empty dict).  Raises ValueError when d∘d is not zero,
    which a family that is not convex (F ⊂ G ⊂ H with F and H in it but
    not G) can cause.
    """
    levels: list[list[int]] = []
    for mask in set(family):
        size = mask.bit_count()
        while len(levels) <= size:
            levels.append([])
        levels[size].append(mask)
    # ranks[size] is the rank of the boundary out of that size, so
    # dim H_size = dim C_size - ranks[size] - ranks[size + 1]
    ranks = [0] * (len(levels) + 1)
    lower: list[dict[int, int]] = []  # the boundary out of size - 1 as columns {row: sign}
    for size in range(1, len(levels)):
        below = {mask: row for row, mask in enumerate(levels[size - 1])}
        columns = []
        entries: dict[tuple[int, int], int] = {}
        for col, mask in enumerate(levels[size] if below else ()):
            column = {}
            sign = 1
            rest = mask
            while rest:
                low = rest & -rest
                row = below.get(mask ^ low)
                if row is not None:
                    column[row] = entries[row, col] = sign
                sign = -sign
                rest ^= low
            if lower:  # d∘d of this column, through the boundary below
                image: dict[int, int] = {}
                for row, sign in column.items():
                    for r, s in lower[row].items():
                        image[r] = image.get(r, 0) + sign * s
                if any(image.values()):
                    raise ValueError("consecutive boundary maps do not compose to zero")
            columns.append(column)
        if entries:
            ranks[size] = ExactMatrix._trusted(len(below), len(columns), entries).rank(modulus)
        lower = columns
    return {size: len(level) - ranks[size] - ranks[size + 1] for size, level in enumerate(levels)}


def reduced_simplicial_homology(complex_: SimplicialComplex, modulus: int | None = None) -> dict[int, int]:
    """Reduced homology dimensions {k: dim H_k} for k = -1 .. dim, by
    ``subset_homology`` on every face as a bitmask, vertex v being bit v - 1.
    The VOID complex has no homology at all (empty dict); the complex {∅}
    has H_{-1} of dimension one."""
    faces = {0} if complex_.facets else set()
    for facet in complex_.facets:
        top = sub = sum(1 << (v - 1) for v in facet)
        while sub:  # every nonempty submask of the facet
            faces.add(sub)
            sub = (sub - 1) & top
    return {size - 1: d for size, d in subset_homology(faces, modulus).items()}


def star_cuts_by_min(complex_: SimplicialComplex) -> Iterator[tuple[int, int]]:
    """``betti._star_cuts`` as it was before its subsets tables: one
    ``subsets_missing`` per visited W for its subsets, and the smallest cut
    by ``min`` over a dict of the stars (ties to the lowest vertex)."""
    nonfaces, unions = [sum(1 << v - 1 for v in m) for m in complex_.minimal_nonfaces()], {0}
    for m in nonfaces:
        unions |= {u | m for u in unions}
    ground = max(unions)  # U
    bits = [1 << t for t in range(ground.bit_length()) if ground >> t & 1]
    faces = (1 << (1 << len(bits))) - 1
    for m in nonfaces:
        faces &= ~(subsets_missing(bits, m) << sum(1 << i for i, bit in enumerate(bits) if m & bit))
    stars = {bit: faces & subsets_missing(bits, bit) & ~(faces >> (1 << i))
             for i, bit in enumerate(bits) if bit not in nonfaces}
    for w in sorted(unions)[1:]:  # past the empty set
        within = subsets_missing(bits, ground ^ w)  # the subsets of W
        yield w, min((cut & within for v, cut in stars.items() if v & w), key=int.bit_count, default=1)


def hochster_by_restriction(complex_: SimplicialComplex, modulus: int | None = None) -> BettiTable:
    """Reference Hochster route: b_{i,|W|}(I) sums the reduced homology of
    the restriction of the complex to W, in degree |W| - i - 2, over every
    nonempty vertex set W."""
    n = complex_.n
    out: dict[tuple[int, int], int] = {}
    for size in range(1, n + 1):
        for w in combinations(range(1, n + 1), size):
            for k, d in reduced_simplicial_homology(complex_.restriction(w), modulus).items():
                i = size - k - 2
                if d and i >= 0:
                    out[(i, size)] = out.get((i, size), 0) + d
    return BettiTable(SUBJECT_IDEAL, n, out).to_quotient()
