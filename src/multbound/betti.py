"""Graded Betti tables of monomial ideals by four routes: a definitional
oracle (multigraded Koszul strands over the lcm lattice, counted off Morse
matchings a batch of strands at a time), a linear-quotient certificate
tried before it, Hochster's formula for squarefree ideals, and the closed
binomial formula for bounded-stable ideals; plus every resolution statistic
derived from them, and the Koszul strand tables of S/I on the last k variables.

Tables come in two views: over the quotient S/I (entries b_{i,j}(S/I),
with (0,0) = 1) and over the ideal (entries b_{i,j}(I)); the views are
related by b_{i,j}(S/I) = b_{i-1,j}(I) for i >= 1.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import accumulate
from math import comb
from operator import and_, lt, or_
from typing import Iterable, Iterator

from . import hilbert
from .homology import subset_homology
from .monomials import BoundVector, MonomialIdeal, _DivisorIndex, _exponents_of_degree, is_stable
from .simplicial import SimplicialComplex

SUBJECT_QUOTIENT = "quotient"
SUBJECT_IDEAL = "ideal"

NEG_INFINITY = float("-inf")  # regularity of the zero module
ROUTE_LINEAR_QUOTIENTS = "linear-quotients"
ROUTE_ORACLE = "oracle"
ORACLE_BUDGET = 2**20  # candidate cells per run: 0.1-0.7 s for the oracle, up to 1.6 s for a Koszul strand table


class OracleCapError(RuntimeError):
    """Raised when the candidate cells of the definitional oracle or of a
    Koszul strand table would pass ORACLE_BUDGET."""


@dataclass
class BettiTable:
    subject: str
    n: int
    entries: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.subject not in (SUBJECT_QUOTIENT, SUBJECT_IDEAL):
            raise ValueError(f"unknown subject {self.subject!r}")
        for (i, j), v in self.entries.items():
            if v <= 0:
                raise ValueError("stored multiplicities must be positive")
            if i < 0:
                raise ValueError("homological index must be non-negative")
        if self.subject == SUBJECT_QUOTIENT:
            if self.entries.get((0, 0)) != 1 or any(
                i == 0 and j != 0 for (i, j) in self.entries
            ):
                raise ValueError("a quotient table has exactly the entry (0,0) = 1 in column 0")

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def to_ideal(self) -> BettiTable:
        if self.subject == SUBJECT_IDEAL:
            return self
        return BettiTable(
            SUBJECT_IDEAL,
            self.n,
            {(i - 1, j): v for (i, j), v in self.entries.items() if i >= 1},
        )

    def to_quotient(self) -> BettiTable:
        if self.subject == SUBJECT_QUOTIENT:
            return self
        entries = {(i + 1, j): v for (i, j), v in self.entries.items()}
        entries[(0, 0)] = 1
        return BettiTable(SUBJECT_QUOTIENT, self.n, entries)

    @property
    def max_index(self) -> int:
        """Largest homological index with a nonzero entry."""
        return max((i for (i, _) in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(v for (k, _), v in self.entries.items() if k == i)

    def format_grid(self) -> str:
        """Fixed text layout: columns are homological indices, rows are
        degree slopes j - i, plus a totals row; zero entries print as dots."""
        table = self.to_quotient()
        pdim = table.max_index
        reg = regularity(table)
        cols = list(range(pdim + 1))
        rows = list(range(reg + 1))
        cells = [[table.entry(i, i + d) for i in cols] for d in rows]
        totals = [table.total(i) for i in cols]
        rendered = [[str(v) if v else "." for v in row] for row in cells]
        rendered_totals = [str(v) for v in totals]
        widths = [
            max(len(str(c)), len(rendered_totals[c]), *(len(r[c]) for r in rendered))
            for c in cols
        ]
        label_width = max(len("total:"), *(len(f"{d}:") for d in rows))
        lines = [
            " " * label_width + " " + " ".join(str(c).rjust(widths[c]) for c in cols),
            "total:".rjust(label_width) + " " + " ".join(rendered_totals[c].rjust(widths[c]) for c in cols),
        ]
        for d in rows:
            lines.append(
                f"{d}:".rjust(label_width) + " " + " ".join(rendered[d][c].rjust(widths[c]) for c in cols)
            )
        return "\n".join(lines)


def _missing(bits: list[int], m: int) -> int:
    """The subsets of the ground that miss the mask m, as one set of subsets:
    bit s of it is the subset s of the ground renumbered in order (bits)."""
    subsets = 1
    for i, bit in enumerate(bits):
        if not m & bit:
            subsets |= subsets << (1 << i)
    return subsets


@cache
def _lacks(k: int) -> list[int]:
    """For each j < k, the subsets of range(k) missing j, as one 2^k-bit integer."""
    return [_missing([1 << i for i in range(k)], 1 << j) for j in range(k)]


def _members(family: int, tag: int = 0) -> list[int]:
    """The set bits of family, ascending, each plus tag, found by str.rfind
    over its binary digits from the lowest, so in time linear in its size."""
    members, at, top = [], None, len(digits := bin(family)) - 1 + tag
    while (at := digits.rfind("1", 2, at)) >= 0:
        members.append(top - at)
    return members


def _batch_homology(families: int, lacks: list[int], modulus: int | None = None) -> dict[tuple[int, int], int]:
    """Homology {(b, size): dim}, zero sizes perhaps left out, of each convex
    family of subsets of range(k) in a batch, family b at bit b·2^k and the k
    ``_lacks`` masks tiled alike, under the boundary of ``subset_homology``.
    Matching each cell G without j with G + j, for j = 0..k-1 in turn on the
    cells left, is acyclic (Jonsson, Simplicial Complexes of Graphs, LNM
    1928) at coefficients ±1, so the homology over Q and every F_p is that
    of a Morse complex on the critical cells (Sköldberg 2006;
    Jöllenbeck-Welker, Mem. AMS 2009); no shift by 2^j under a tiled mask
    leaves its block.  A family with no two critical sizes adjacent has a
    zero Morse differential, so H_s counts its critical cells of size s; any
    other is ranked.  Counting skips the d∘d = 0 check, so a family other
    than its up-closure meet its down-closure raises ValueError first."""
    up = down = critical = families
    for j, lack in enumerate(lacks):
        up |= (up & lack) << (1 << j)
        down |= down >> (1 << j) & lack
        pairs = critical & lack & critical >> (1 << j)
        critical ^= pairs | pairs << (1 << j)
    if up & down != families:
        raise ValueError("the family of subsets is not convex")
    k, counted = len(lacks), {}  # (family, size) -> critical cells
    for cell in _members(critical):
        key = cell >> k, (cell & (1 << k) - 1).bit_count()
        counted[key] = counted.get(key, 0) + 1
    ranked = {b for b, s in counted if (b, s + 1) in counted}  # a Morse differential that need not vanish
    homology = {key: d for key, d in counted.items() if key[0] not in ranked}
    for b in ranked:
        for size, d in subset_homology(_members(families >> (b << k) & (1 << (1 << k)) - 1), modulus).items():
            homology[b, size] = d
    return homology


FLUSH = 64  # strands a queue holds before it is counted; a Hochster sum is ranked at 2·FLUSH cells
FLOOR_K = 4  # the least k of a queue, so a block is whole bytes; a family over range(k) is one over range(k + 1)


class _Tally:
    """Koszul homology {(i, |a|): dim} in entries, and per k the queued
    strands not yet counted, each as its two complements and its degree."""

    def __init__(self) -> None:
        self.entries: dict[tuple[int, int], int] = {}
        self.queues: dict[int, list[int]] = {}

    def count(self, k: int, modulus: int | None) -> None:
        """Tile a queue's complements, without and with v in turn, and the
        lack masks alike; take every down-closure at once; cut each with-v
        block by the one below; add each family's homology one size up."""
        queue, width = self.queues.pop(k), 1 << k - 3
        degrees = queue[2::3]
        del queue[2::3]
        closed = int.from_bytes(b"".join([m.to_bytes(width, "little") for m in queue]), "little")
        lacks = [int.from_bytes(lack.to_bytes(width, "little") * len(queue), "little") for lack in _lacks(k)]
        for j, lack in enumerate(lacks):
            closed |= closed >> (1 << j) & lack
        cut = closed >> 8 * width & ~closed & int.from_bytes((b"\xff" * width + bytes(width)) * len(degrees), "little")
        for (block, size), d in _batch_homology(cut, lacks, modulus).items():
            if d:
                key = size + 1, degrees[block >> 1]
                self.entries[key] = self.entries.get(key, 0) + d


def _strand(table: _Tally, degree: int, divisors: int, levels: list[int], modulus: int | None) -> None:
    """Add the Koszul homology of S/I in one multidegree a to the table's
    entries at (i, degree).  The level-i basis is the i-subsets F of the ground with
    x^(a - 1_F) standard: F hits the tight set {v in the ground : g_v = a_v}
    of each generator g | x^a (the bits of divisors), as masks walked lowest
    bit first off levels[t], the divisors with g_v = a_v for the t-th ground
    variable v in ascending order: the last v on top, the rest numbered by
    how many tight sets hold each, fewest first, a relabelling that leaves
    the homology but fewer families to rank.  That family U is closed
    upwards; matching F with F + v leaves the critical cells G + v with G
    not in U, whose Morse differential is restriction, so the strand's
    H_{i+1} is H_i of the family of those G: the down-closure of the
    complements of the c - v, c a tight set with v, less that of the
    complements of the tight sets without v: {∅} with v alone, added at
    once, else queued under k = max(|ground| - 1, FLOOR_K) and counted a
    batch at a time by ``_Tally.count``, at FLUSH strands or at the end."""
    if divisors & ~reduce(or_, levels, 0):
        return  # a divisor with an empty tight set: x^(a - 1_ground) lies in I
    if not levels:  # U = {∅}, with no variable to match on
        table.entries[0, degree] = table.entries.get((0, degree), 0) + 1
        return
    top = len(levels) - 1
    if not levels[top]:
        return  # no tight set holds v, so no G misses one
    if not top:  # every tight set is {v}
        table.entries[1, degree] = table.entries.get((1, degree), 0) + 1
        return
    full, outside, bit = (1 << top) - 1, {}, 1  # generator bit -> the ground below v off its tight set, + v if on
    for level in [*sorted(levels[:top], key=int.bit_count), levels[top]]:
        while level:
            low = level & -level
            outside[low] = outside.get(low, full) ^ bit
            level ^= low
        bit <<= 1
    strand = [0, 0, degree]  # below v, the complements of the tight sets without v and with v, as sets of subsets
    for mask in outside.values():
        strand[mask >> top] |= 1 << (mask & full)
    queue = table.queues.setdefault(k := max(top, FLOOR_K), [])
    queue += strand
    if len(queue) == 3 * FLUSH:
        table.count(k, modulus)


def _fields(ideal: MonomialIdeal) -> tuple[list[list[int]], list[int], list[int]]:
    """Per variable its ranks (0, then its generator exponents) and field offset; the generators' codes."""
    ranks = [sorted({0, *(g.exponents[v] for g in ideal.gens)}) for v in range(ideal.n)]
    offsets = list(accumulate((len(r) - 1 for r in ranks), initial=0))
    return ranks, offsets, [_code(ranks, offsets, g.exponents) for g in ideal.gens]


def _code(ranks: list[list[int]], offsets: list[int], exponents: Iterable[int]) -> int:
    """x^exponents coded on the first fields: each exponent in unary by the largest rank at or below it."""
    code = 0
    for r, o, e in zip(ranks, offsets, exponents):
        code |= (1 << bisect_right(r, e) - 1) - 1 << o
    return code


def _strands(ranks: list[list[int]], offsets: list[int], codes: list[int], items: Iterable[tuple[int, int]],
             ground: int, modulus: int | None = None) -> dict[tuple[int, int], int]:
    """Koszul homology of S/I on the variables whose fields are the bits of
    ground, {(i, |a|): dim} summed over the items (code m of a, degree of a
    off the ground), read by ``_strand`` undecoded: g | x^a unless g holds
    the bit past the top of a field of m, a ground variable's level is the
    divisors holding its top bit, and the tops' exponents add up the rest."""
    low = sum(1 << o for o, r in zip(offsets, ranks) if len(r) > 1)  # the rank-1 bit of each nonempty field
    last = (low | 1 << offsets[-1]) >> 1  # the top bit of each nonempty field
    value = {1 << p: e for p, e in enumerate(x for r in ranks for x in r[1:])}  # the exponent each bit stands for
    has = {p: sum(1 << b for b, code in enumerate(codes) if code & p) for p in value}  # the generators holding p
    full, fields, table = (1 << len(codes)) - 1, (1 << offsets[-1]) - 1, _Tally()
    for m, degree in items:
        past, over = (m << 1 | low) & ~m & fields, 0  # the bit past the top of each field short of full
        while past:
            over |= has[past & -past]
            past &= past - 1
        divisors, tops, levels = full & ~over, m & (~(m >> 1) | last) & ground, []
        while tops:  # ascending, so the ground in variable order
            levels.append(divisors & has[p := tops & -tops])
            degree += value[p]
            tops ^= p
        _strand(table, degree, divisors, levels, modulus)
    for k in [*table.queues]:
        table.count(k, modulus)
    return table.entries


def _charge(cells: int, where: str = "") -> None:
    """Refuse a run whose candidate cells, counted so far, pass ORACLE_BUDGET:
    the one refusal site of the oracle and of the Koszul strand tables."""
    if cells > ORACLE_BUDGET:
        raise OracleCapError(f"at least {cells} candidate cells{where} exceed the oracle budget {ORACLE_BUDGET}")


def betti_oracle(ideal: MonomialIdeal, modulus: int | None = None) -> BettiTable:
    """Exact graded Betti numbers of S/I from the definition.

    Candidate multidegrees are the lcms of generator subsets, each an OR of
    generator codes (``_fields``), read by ``_strands`` with every field as
    ground, in no order: the table is a sum.  Raises OracleCapError once the
    candidate cells (the 2^|supp a| subsets that span the strand in each
    multidegree a before it is cut down), counted as the lattice grows, pass
    ORACLE_BUDGET."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Betti table")
    ranks, offsets, codes = _fields(ideal)
    low = sum(1 << o for o, r in zip(offsets, ranks) if len(r) > 1)  # the rank-1 bit of each nonempty field
    lcms, cells = {0}, 1
    for code in codes:
        new = {m | code for m in lcms} - lcms
        cells += sum(1 << (m & low).bit_count() for m in new)
        _charge(cells)
        lcms |= new
    return BettiTable(SUBJECT_QUOTIENT, ideal.n, _strands(ranks, offsets, codes, ((m, 0) for m in lcms), -1, modulus))


@dataclass(frozen=True)
class KoszulStrandTable:
    """Homology dimensions H_i of the Koszul complex on the last k
    variables, recorded per internal degree j up to degree_bound.  Only
    nonzero dimensions are stored; ``truncated``, read off the ideal's Hilbert
    series on first use, is False exactly when all strands above the bound
    provably vanish (the chain groups are empty)."""

    k: int
    dims: dict[tuple[int, int], int]
    degree_bound: int
    ideal: MonomialIdeal = field(repr=False)

    @cached_property
    def truncated(self) -> bool:
        summary = hilbert.summarize(self.ideal)  # an Artinian S/I has no chains above deg Q + k
        return summary.dim > 0 or len(summary.reduced_numerator) - 1 + self.k > self.degree_bound

    def dim(self, i: int, j: int) -> int:
        if j > self.degree_bound and self.truncated:
            raise ValueError(f"degree {j} beyond the computed bound {self.degree_bound}")
        return self.dims.get((i, j), 0)

    def row_max(self, i: int) -> int:
        """Largest degree with nonzero H_i, or 0 when the row vanishes."""
        return max((j for (r, j) in self.dims if r == i), default=0)


def koszul_strands(ideal: MonomialIdeal, k: int, degree_bound: int) -> KoszulStrandTable:
    """Degreewise Koszul homology of S/I with respect to the last k
    variables, for internal degrees up to degree_bound; at k = n the
    strands are the graded Betti numbers of S/I.

    The degree-j strand of level i has basis {(b, F)} with F an i-subset of
    the last k variable indices and x^b a standard monomial of degree j - i.
    The cone rule: a multidegree a whose exponent a_v on a suffix variable v
    is positive and the exponent g_v of no generator g has an acyclic strand.
    A generator dividing x^(a - 1_F), F without v, has g_v < a_v, so it
    divides x^(a - 1_F - e_v) too: F is a cell exactly when F + v is, so
    matching F with F + v pairs off every cell, over Q and every F_p.  Only
    the other multidegrees are walked, coded as the oracle codes its lcm
    lattice and fed to ``_strands`` with the suffix fields as ground; the
    H_0 rows need the prefix exponents, so those stay free.  Raises
    OracleCapError, before any strand, when the walked multidegrees a pass
    ORACLE_BUDGET in cells, one per subset of a's support within the suffix.
    The table computes no Hilbert series until its truncated flag is read."""
    n = ideal.n
    if not 1 <= k <= n:
        raise ValueError(f"suffix length {k} out of range 1..{n}")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if ideal.is_unit:
        raise ValueError("the unit ideal has trivial Koszul homology everywhere")
    # x^b e_F has multidegree b + 1_F, so the degree-j strand sums the strands
    # of the degree-j multidegrees head + tail: a tail t kept by the cone rule,
    # coded on the suffix fields in tails[|t|], and any of the C(degree_bound
    # - |t| + n - k, n - k) heads that fit.  cells[s] sums 2^|supp t| over
    # tails[s]; growing by 0 keeps it, so each step's count bounds the table's cells
    ranks, offsets, codes = _fields(ideal)
    tails, cells = {0: [0]}, {0: 1}
    for v in range(n - k, n):
        exponents = [(e, (1 << r) - 1 << offsets[v]) for r, e in enumerate(ranks[v]) if e <= degree_bound]
        grown, grown_cells = {}, {}
        for e, _ in exponents:
            for s, c in cells.items():
                if s + e <= degree_bound:
                    grown_cells[s + e] = grown_cells.get(s + e, 0) + (2 * c if e else c)
        total = sum(comb(degree_bound - s + n - k, n - k) * c for s, c in grown_cells.items())
        _charge(total, " in the Koszul strand table")
        for e, bits in exponents:
            for s, row in tails.items():
                if s + e <= degree_bound:
                    grown.setdefault(s + e, []).extend(t | bits for t in row)
        tails, cells = grown, grown_cells
    items = (
        (head | tail, d)
        for d in range(degree_bound + 1 if k < n else 1)  # with no prefix, () is the only head
        for head in (_code(ranks, offsets, h) for h in _exponents_of_degree(n - k, d))
        for s, row in tails.items() if s + d <= degree_bound
        for tail in row
    )
    dims = _strands(ranks, offsets, codes, items, -1 << offsets[n - k])
    return KoszulStrandTable(k=k, dims=dims, degree_bound=degree_bound, ideal=ideal)


def betti_linear_quotients(ideal: MonomialIdeal) -> BettiTable | None:
    """Betti table of S/I from linear quotients (Herzog-Takayama), or None
    when the generators, by degree and then descending exponent tuple, fail.

    set(u) = {i : x_i u lies in the ideal J of the generators before u}, one
    divisor-index probe each; the colon J : u is generated by those variables
    unless a monomial off them multiplies u into J, which one probe on u
    raised past every exponent off set(u) rules out.  The order raises the
    degree, so b_{i,i+j}(I) = sum over the u of degree j of C(|set(u)|, i)
    in every characteristic (Sharifan-Varbaro), and I is componentwise
    linear (Jahan-Zheng).  Per generator the index is read once, two masks
    a variable (the earlier generators at or below u_v, and at or below
    u_v + 1); probe i, on x_i u, is the AND of the first masks of the other
    variables, from prefix and suffix ANDs, with the second mask of x_i, and
    the last probe is the AND of the first masks over set(u).  So the
    certificate takes O(k n) index reads and ANDs of k-bit masks."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Betti table")
    earlier = _DivisorIndex()  # the generators before u
    entries = {(0, 0): 1}
    for g in sorted(ideal.gens, key=lambda g: (g.degree, [-e for e in g.exponents])):
        at, past = earlier.divisor_masks(g.exponents)
        full = (1 << earlier.size) - 1
        before = list(accumulate(at, and_, initial=full))  # before[i]: the AND over v < i
        after = list(accumulate(reversed(at), and_, initial=full))[::-1]  # after[i]: over v >= i
        colon = [before[i] & past[i] & after[i + 1] != 0 for i in range(len(at))]
        if reduce(and_, (m for m, c in zip(at, colon) if c), full):
            return None
        earlier.add(g.exponents)
        width = sum(colon)
        for i in range(width + 1):
            entries[i + 1, i + g.degree] = entries.get((i + 1, i + g.degree), 0) + comb(width, i)
    return BettiTable(SUBJECT_QUOTIENT, ideal.n, entries)


def _star_cuts(complex_: SimplicialComplex) -> Iterator[tuple[int, int]]:
    """Each vertex set W that Hochster's formula visits, ascending, with the
    smallest star cut of the restriction to W.  Only unions of the complex's
    kept minimal nonfaces are visited, generated one nonface at a time: in any
    other W a vertex in no nonface inside W is a cone point.  The faces inside
    their union U are one set of subsets of U, all minus each nonface's up-set.
    The star pairs of each face vertex v (faces F without v, F + v no face) are
    built once; cut to W, v in W, they have the restriction's homology one size
    up.  The subsets of W miss L - W, L the lowest bit_length(|U|) vertices of
    U, from a table by W ∩ L (at most 2|U| sets), and miss H - W, H the rest,
    made once per run of one W ∩ H.  One pass over the stars keeps the first
    with fewest cells, so ties go to the lowest v; with no face vertex, {∅}."""
    nonfaces, unions = [sum(1 << v - 1 for v in m) for m in complex_.minimal_nonfaces()], {0}
    for m in nonfaces:
        unions |= {u | m for u in unions}
    unions = sorted(unions)  # ascending, and the set's table is freed
    ground = unions[-1]  # U
    bits = [1 << t for t in range(ground.bit_length()) if ground >> t & 1]
    faces = (1 << (1 << len(bits))) - 1
    for m in nonfaces:
        faces &= ~(_missing(bits, m) << sum(1 << i for i, bit in enumerate(bits) if m & bit))
    stars = [(bit, faces & _missing(bits, bit) & ~(faces >> (1 << i)))
             for i, bit in enumerate(bits) if bit not in nonfaces]
    low = sum(bits[:len(bits).bit_length()])  # L
    high, lows, part = ground ^ low, {}, -1  # H, the table by W ∩ L, and the W ∩ H that missing is made for
    for w in unions[1:]:  # past the empty set
        if w & high != part:  # -1 stands for every subset, in no 2^|U|-bit set
            part, missing = w & high, _missing(bits, high & ~w) if high & ~w else -1
        if (within := lows.get(w & low)) is None:
            within = lows[w & low] = _missing(bits, low & ~w) if low & ~w else -1
        within &= missing  # the subsets of W
        cut, fewest = 1, 2 << len(bits)  # more cells than U has subsets
        for v, star in stars:
            if v & w and (count := (star & within).bit_count()) < fewest:
                cut, fewest = star & within, count
        yield w, cut


def betti_hochster(complex_: SimplicialComplex, modulus: int | None = None) -> BettiTable:
    """Betti table of the Stanley-Reisner quotient by Hochster's formula:
    b_{i,|W|}(I) is the dimension of the reduced homology of the restriction
    to W in degree |W| - i - 2, summed over the W of ``_star_cuts``.  A cut
    of two cells or fewer is read off: two cells, one a facet of the other,
    are acyclic, and otherwise each cell F is a cycle, H_|F| = 1.  Larger
    cuts of one |W| form a direct sum, cells tagged by W above the n vertex
    bits, ranked at 2·FLUSH cells and at the end."""
    if complex_.is_void:
        raise ValueError("the void complex corresponds to the unit ideal")
    n, entries, ranked, sums = complex_.n, Counter(), [], [[] for _ in range(complex_.n + 1)]  # sums: by |W|
    for w, cut in _star_cuts(complex_):
        size = w.bit_count()
        if (above := cut & cut - 1) & above - 1:  # three cells or more
            sums[size] += _members(cut, w << n)
            if len(sums[size]) >= 2 * FLUSH:
                ranked.append((size, subset_homology(sums[size], modulus, (1 << n) - 1)))
                sums[size] = []
        elif cut:
            top, bottom = cut.bit_length() - 1, (cut & -cut).bit_length() - 1
            if (top ^ bottom).bit_count() != 1:  # else a facet pair, acyclic
                for cell in {top, bottom}:
                    entries[size - cell.bit_count() - 1, size] += 1
    ranked += [(size, subset_homology(cells, modulus, (1 << n) - 1)) for size, cells in enumerate(sums) if cells]
    for size, homology in ranked:  # |W| - i - 2 is the reduced degree s - 1
        entries.update({(size - s - 1, size): d for s, d in homology.items() if d})
    return BettiTable(SUBJECT_IDEAL, n, entries).to_quotient()


def betti_stable_formula(ideal: MonomialIdeal, bounds: BoundVector) -> BettiTable:
    """Closed binomial formula for the Betti numbers of a bounded-stable
    ideal: b_{i,i+j}(I) counts generators of degree j weighted by
    C(top(u) - 1 - saturation(u), i), added once per (degree, width) shape
    times its generator count.  Characteristic independent."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Betti table")
    if not is_stable(ideal, bounds):
        raise ValueError("the closed formula requires a bounded-stable ideal")
    caps = [a - 1 for a in bounds.entries]
    shapes: Counter = Counter()  # (degree, width) -> generators
    for g in ideal.gens:
        e = g.exponents  # strictly below the bounds, as is_stable checked
        top = len(e) - 1
        while not e[top]:
            top -= 1
        shapes[sum(e), sum(map(lt, e[:top], caps))] += 1  # unsaturated below top(u)
    entries: Counter = Counter()
    for (degree, width), count in shapes.items():
        for i in range(width + 1):
            entries[i, i + degree] += count * comb(width, i)
    return BettiTable(SUBJECT_IDEAL, ideal.n, dict(entries))


@dataclass(frozen=True)
class ResolutionStats:
    """Shift data of the minimal free resolution of S/I.

    max_shifts[i-1] and min_shifts[i-1] are the extreme degrees at
    homological step i; corner is the largest step whose shift reaches the
    regularity row.
    """

    pdim: int
    reg: int
    max_shifts: tuple[int, ...]
    min_shifts: tuple[int, ...]
    corner: int
    pure: bool

    def max_shift(self, i: int) -> int:
        return self.max_shifts[i - 1]


def stats(table: BettiTable) -> ResolutionStats:
    t = table.to_quotient()
    pdim = t.max_index
    reg = regularity(t)
    shifts: dict[int, list[int]] = {}
    for (i, j) in t.entries:
        shifts.setdefault(i, []).append(j)
    max_shifts = tuple(max(shifts[i]) for i in range(1, pdim + 1))
    min_shifts = tuple(min(shifts[i]) for i in range(1, pdim + 1))
    corner = max(i for (i, j) in t.entries if j - i == reg)
    pure = all(len(set(shifts[i])) == 1 for i in range(1, pdim + 1))
    return ResolutionStats(pdim, reg, max_shifts, min_shifts, corner, pure)


def regularity(table: BettiTable) -> int | float:
    """Castelnuovo-Mumford regularity of the table's subject; the zero
    module (an empty ideal-view table) regularizes to minus infinity."""
    if not table.entries:
        return NEG_INFINITY
    return max(j - i for (i, j) in table.entries)


def stable_regularity(ideal: MonomialIdeal, bounds: BoundVector) -> int | float:
    """Regularity of a bounded-stable ideal: the maximal generator degree."""
    if not is_stable(ideal, bounds):
        raise ValueError("requires a bounded-stable ideal")
    if ideal.is_zero:
        return NEG_INFINITY
    return ideal.max_gen_degree


@dataclass(frozen=True)
class Invariants:
    """Everything the bound checks read about one proper ideal, each part
    computed once: the Betti table of S/I, built with the record, then the
    Hilbert summary and shift stats, on first read.  route names where the
    table came from: the linear-quotient certificate, which needs no budget,
    or else the oracle.  Over the oracle budget, table, stats and cm are None
    and cap_message says why."""

    ideal: MonomialIdeal
    route: str  # ROUTE_LINEAR_QUOTIENTS or ROUTE_ORACLE
    table: BettiTable | None
    cap_message: str | None = None

    @cached_property
    def summary(self) -> hilbert.HilbertSummary:
        return hilbert.summarize(self.ideal)

    @cached_property
    def stats(self) -> ResolutionStats | None:
        return None if self.table is None else stats(self.table)

    @property
    def cm(self) -> bool | None:
        """Cohen-Macaulay: pdim(S/I) equals the codimension."""
        return None if self.stats is None else self.stats.pdim == self.summary.codim


def invariants(ideal: MonomialIdeal) -> Invariants:
    """The record of one proper ideal, the one way to its Betti table.  No
    Hilbert series is computed, and so none passes HILBERT_BUDGET and raises
    ValueError, until summary or cm is read."""
    table = betti_linear_quotients(ideal)
    if table is not None:
        return Invariants(ideal, ROUTE_LINEAR_QUOTIENTS, table)
    try:
        return Invariants(ideal, ROUTE_ORACLE, betti_oracle(ideal))
    except OracleCapError as exc:
        return Invariants(ideal, ROUTE_ORACLE, None, str(exc))


def is_componentwise_linear(record: Invariants) -> bool:
    """True at once for a certified record: linear quotients in a
    degree-increasing order make I componentwise linear (Jahan-Zheng).
    Otherwise the truncation criterion: I is componentwise linear iff the
    ideal generated in degrees <= k has regularity <= k for every k.  Only
    the generator degrees k are informative; the top truncation is I itself,
    whose table the record holds, so it is read first.  Each lower truncation
    reads the table of its own record, certified or else the oracle's; its lcm
    lattice lies inside I's, so that oracle run stays within the budget that
    I's run met.  No Hilbert series is read."""
    if record.route == ROUTE_LINEAR_QUOTIENTS:
        return True
    if record.table is None:
        raise OracleCapError(record.cap_message)
    ideal = record.ideal
    *lower, top = sorted({g.degree for g in ideal.gens})
    return regularity(record.table.to_ideal()) <= top and all(
        regularity(invariants(ideal.truncate(k)).table.to_ideal()) <= k for k in lower)
