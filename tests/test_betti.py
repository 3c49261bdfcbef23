import inspect
import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

import pytest

import multbound
from multbound import betti, hilbert
from multbound.betti import (
    NEG_INFINITY,
    BettiTable,
    OracleCapError,
    betti_hochster,
    betti_linear_quotients,
    betti_oracle,
    betti_stable_formula,
    invariants,
    is_componentwise_linear,
    regularity,
    stable_regularity,
    stats,
)
from multbound.campaign import FAMILIES, CampaignConfig, generate_complex, generate_ideal
from multbound.hilbert import numerator, summarize
from multbound.homology import subset_homology
from multbound.monomials import (
    INFINITY,
    BoundVector,
    Monomial,
    MonomialIdeal,
    is_stable,
    minimalize,
    squarefree_strongly_stable_closure,
    stable_closure,
    strongly_stable_closure,
)
from multbound.simplicial import SimplicialComplex, complex_of_ideal, stanley_reisner_ideal
from oracles import (
    alternating_numerator,
    child_run,
    complete_intersection,
    component,
    cut_families_by_missing,
    cycle_edge_ideal,
    every_multidegree,
    family_homology_by_counting,
    formula_by_saturation_count,
    has_face,
    hochster_by_restriction,
    is_cone,
    maximal_power,
    monomials_of_degree,
    reduced_simplicial_homology,
    squarefree_veronese,
    star_cuts_by_min,
    strand_inputs,
    strand_table_by_codes,
    strand_table_by_probes,
    subsets_missing,
    tiled,
    top_index,
    untiled,
)


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


def cx(n, *facets):
    return SimplicialComplex.from_facets(n, [frozenset(f) for f in facets])


def entries(table):
    return dict(table.entries)


def random_ideal(rng, n, max_degree=3, max_gens=5):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_degree)
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        gens.append(Monomial(tuple(e)))
    return minimalize(gens, n)


def sparse_complex(rng, max_n):
    """A random complex on 1..max_n vertices with facets of at most four
    vertices, ghost vertices and {∅} included."""
    n = rng.randint(1, max_n)
    facets = [rng.sample(range(1, n + 1), rng.randint(0, min(n, 4))) for _ in range(rng.randint(1, 2 * n))]
    return cx(n, *facets)


def random_complex(rng, n):
    facets = [
        frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        for _ in range(rng.randint(1, 2 * n))
    ]
    return SimplicialComplex.from_facets(n, facets)


class TestTableViews:
    def test_conversion_round_trip(self):
        t = betti_oracle(ideal(2, (1, 0), (0, 1)))
        assert t.to_ideal().to_quotient() == t
        assert t.to_ideal().entries == {(0, 1): 2, (1, 2): 1}

    def test_quotient_invariant_enforced(self):
        with pytest.raises(ValueError):
            BettiTable("quotient", 2, {(0, 1): 1})
        with pytest.raises(ValueError):
            BettiTable("quotient", 2, {(0, 0): 2})
        with pytest.raises(ValueError):
            BettiTable("ideal", 2, {(0, 1): 0})


class TestOracle:
    def test_linear_regular_sequence(self):
        t = betti_oracle(ideal(2, (1, 0), (0, 1)))
        assert entries(t) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_edge_pair(self):
        t = betti_oracle(ideal(3, (1, 1, 0), (1, 0, 1)))
        assert entries(t) == {(0, 0): 1, (1, 2): 2, (2, 3): 1}

    def test_square_of_maximal_ideal(self):
        t = betti_oracle(ideal(2, (2, 0), (1, 1), (0, 2)))
        assert entries(t) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    def test_zero_ideal_is_table_of_ring(self):
        assert entries(betti_oracle(MonomialIdeal.zero(3))) == {(0, 0): 1}

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            betti_oracle(MonomialIdeal.unit(2))

    def test_cap(self, monkeypatch):
        # 11 lcms with 37 candidate cells: one cell over a budget of 36
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 36)
        I = ideal(2, (3, 0), (2, 1), (1, 2), (0, 3))
        with pytest.raises(OracleCapError):
            betti_oracle(I)

    @staticmethod
    def strands_handed_over(monkeypatch):
        # the (degree, divisors, levels) of each multidegree handed to the
        # strand kernel by the code feed
        handed = Counter()
        strand = betti._strand

        def spy(table, degree, divisors, levels, modulus):
            handed[degree, divisors, tuple(levels)] += 1
            return strand(table, degree, divisors, levels, modulus)

        monkeypatch.setattr(betti, "_strand", spy)
        return handed

    def test_rank_lattice_equals_the_tuple_lattice(self, monkeypatch):
        # the oracle builds its lcm lattice on exponent ranks in unary and
        # reads each code undecoded: the degrees, divisors and levels it
        # hands the strand kernel and the cells it counts equal the tuple
        # reference's, for exponents of 1000 and more, variables in no
        # generator and the zero ideal
        rng = random.Random(131)
        corpus = [ideal(3, (1000, 1, 0), (0, 1000, 1), (1, 0, 1000)),
                  ideal(5, (0, 3, 0, 1, 0), (0, 1, 0, 2, 0), (0, 0, 0, 5, 0))]  # no x1, x3 or x5
        for _ in range(30):
            n = rng.randint(1, 5)
            gens = [Monomial(tuple(rng.choice((0, 0, 1, 2, 999, 1000, 1500)) for _ in range(n)))
                    for _ in range(rng.randint(1, 5))]
            corpus.append(minimalize(gens, n))
        corpus = [I for I in corpus if not I.is_unit] + [MonomialIdeal.zero(0), MonomialIdeal.zero(3)]
        assert sum(1 for I in corpus if any(e > 1 for g in I.gens for e in g.exponents)) > 25
        handed = self.strands_handed_over(monkeypatch)
        for I in corpus:
            lattice = lcm_lattice(I)
            cells = sum(1 << sum(1 for e in a if e) for a in lattice)
            monkeypatch.setattr(betti, "ORACLE_BUDGET", cells)  # the count exactly: not refused
            handed.clear()
            table = betti_oracle(I)
            assert handed == strand_inputs(I, lattice, range(I.n)), I
            assert entries(table) == strand_table_by_probes(I, lattice, range(I.n)), I
            if I.gens:  # the count is checked per generator; with none it stays at 1
                monkeypatch.setattr(betti, "ORACLE_BUDGET", cells - 1)
                with pytest.raises(OracleCapError, match=f"at least {cells} candidate cells"):
                    betti_oracle(I)
        assert handed == Counter({(0, 0, ()): 1}) and entries(table) == {(0, 0): 1}  # the zero ideal comes last

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_code_feed_at_field_edges(self, modulus, monkeypatch):
        # codes whose fields meet at their edges: a full field next to an
        # empty one, the last field full, and a variable in no generator
        # (a field of no bits) between two nonempty fields, where the top of
        # a full field lies right below the bits of the next
        cases = [
            (ideal(3, (2, 0, 1), (1, 1, 0), (0, 2, 2)), (2, 0, 1)),  # x1 full, x2 empty
            (ideal(3, (1, 0, 2), (0, 1, 1), (1, 1, 0)), (1, 0, 2)),  # x3, the last field, full
            (ideal(3, (2, 0, 1), (1, 0, 2)), (2, 0, 1)),  # x1 full, x2 in no generator, x3 nonempty
            (ideal(5, (3, 0, 1, 0, 0), (0, 0, 3, 2, 0), (2, 0, 2, 0, 1), (0, 0, 0, 3, 3), (1, 0, 0, 1, 4)),
             (3, 0, 2, 0, 1)),
        ]
        handed = self.strands_handed_over(monkeypatch)
        for I, edge in cases:
            lattice = lcm_lattice(I)
            assert edge in lattice
            handed.clear()
            table = betti_oracle(I, modulus)
            assert handed == strand_inputs(I, lattice, range(I.n)), I
            assert entries(table) == strand_table_by_probes(I, lattice, range(I.n), modulus), I
        # the last case, whose totals 1 5 10 8 2 the console-script check step of CI greps for
        assert entries(table) == {(0, 0): 1, (1, 4): 1, (1, 5): 2, (1, 6): 2, (2, 6): 1, (2, 8): 3, (2, 9): 3,
                                  (2, 10): 3, (3, 9): 1, (3, 10): 1, (3, 11): 6, (4, 12): 2}

    def test_koszul_complex_of_variables(self):
        from math import comb

        t = betti_oracle(ideal(4, *[[1 if k == i else 0 for k in range(4)] for i in range(4)]))
        for i in range(5):
            assert t.entry(i, i) == comb(4, i)

    def test_alternating_sum_is_hilbert_numerator(self):
        rng = random.Random(12)
        for _ in range(30):
            I = random_ideal(rng, rng.randint(1, 4))
            t = betti_oracle(I)
            top = max(j for (_, j) in t.entries)
            coeffs = [0] * (top + 1)
            for (i, j), v in t.entries.items():
                coeffs[j] += (-1) ** i * v
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            assert tuple(coeffs) == numerator(I)

    def test_column_zero_counts_generators(self):
        rng = random.Random(13)
        for _ in range(20):
            I = random_ideal(rng, 3)
            view = betti_oracle(I).to_ideal()
            for d in range(1, I.max_gen_degree + 1):
                expected = sum(1 for g in I.gens if g.degree == d)
                assert view.entry(0, d) == expected


# the small closure shapes of the benchmark (campaign-mix and check-large):
# (closure, seed, bounds, generator count); all three are over 18 generators
SMALL_CLOSURES = {
    "borel": (lambda s, b: strongly_stable_closure(s, b.n), (0, 1, 2, 2), "inf,inf,inf,inf", 43),
    "sqfree": (lambda s, b: squarefree_strongly_stable_closure(s, b.n), (0, 0, 0, 1, 0, 1, 1),
               "2,2,2,2,2,2,2", 34),
    "bounded": (stable_closure, (0, 0, 1, 4), "2,3,inf,inf", 21),
}


def small_closure(name):
    close, seed, bounds_text, size = SMALL_CLOSURES[name]
    b = BoundVector.from_text(bounds_text)
    ideal = close([Monomial(seed)], b)
    assert len(ideal.gens) == size
    return ideal, b


def complete_graph_edges(n):
    """The edge ideal of K_n: C(n, 2) generators, and an lcm lattice with an
    element for every vertex set of size other than 1."""
    return ideal(n, *[[1 if k in e else 0 for k in range(n)] for e in combinations(range(n), 2)])


class TestOracleBudget:
    @pytest.mark.parametrize("name", sorted(SMALL_CLOSURES))
    def test_stable_closures_past_eighteen_generators(self, name):
        I, b = small_closure(name)
        assert betti_oracle(I).to_ideal() == betti_stable_formula(I, b)

    def test_far_over_budget_is_refused_fast(self):
        I = complete_graph_edges(24)  # 276 generators, about 2^24 cells
        start = time.perf_counter()
        with pytest.raises(OracleCapError, match="exceed the oracle budget 1048576"):
            betti_oracle(I)
        assert time.perf_counter() - start < 1.0

    def test_no_public_cap_parameter(self):
        for name in multbound.__all__:
            obj = getattr(multbound, name)
            if callable(obj):
                try:
                    params = inspect.signature(obj).parameters
                except ValueError:  # exception classes have no signature
                    continue
                assert "cap" not in params, name


def campaign_corpus(count=6):
    """Seeded ideals of the six campaign families in 3..7 variables, drawn
    as a campaign draws them."""
    corpus = []
    for family in FAMILIES:
        for n in range(3, 8):
            cfg = CampaignConfig(family, n=n, max_degree=3, count=count, master_seed=11)
            for i in range(count):
                if family == "random-complex":
                    corpus.append((family, stanley_reisner_ideal(generate_complex(cfg, i))))
                else:
                    corpus.append((family, generate_ideal(cfg, i)))
    return corpus


def cwl_by_oracle(I):
    """The truncation criterion with every table taken by the oracle."""
    return all(regularity(betti_oracle(I.truncate(k)).to_ideal()) <= k for k in {g.degree for g in I.gens})


class TestLinearQuotients:
    """The linear-quotient certificate against the oracle, the truncation
    criterion and the closed formula."""

    def test_certified_tables_equal_the_oracle(self):
        certified = {family: 0 for family in FAMILIES}
        total = {family: 0 for family in FAMILIES}
        for family, I in campaign_corpus():
            total[family] += 1
            table = betti_linear_quotients(I)
            if table is not None:
                certified[family] += 1
                assert table == betti_oracle(I) == betti_oracle(I, modulus=2), I
        # stable, bounded-stable and squarefree strongly stable ideals have
        # linear quotients in this order; the random families need not
        for family in ("stable", "a-stable", "sqfree-strongly-stable", "borel-codim2"):
            assert certified[family] == total[family], family
        assert certified["random-monomial"] < total["random-monomial"]
        assert certified["random-complex"] < total["random-complex"]

    def test_cwl_verdicts_equal_the_truncation_criterion(self):
        rng = random.Random(29)
        corpus = [I for _, I in campaign_corpus(3)]
        corpus += [random_ideal(rng, rng.randint(2, 5), max_degree=4, max_gens=6) for _ in range(40)]
        seen = set()
        for I in corpus:
            record = invariants(I)
            verdict = is_componentwise_linear(record)
            assert verdict == cwl_by_oracle(I), I
            seen.add((record.route, verdict))
        # a certified ideal is componentwise linear; an uncertified one may be either
        assert seen == {(betti.ROUTE_LINEAR_QUOTIENTS, True), (betti.ROUTE_ORACLE, True),
                        (betti.ROUTE_ORACLE, False)}

    @pytest.mark.parametrize("close, seed, bounds_text, size", [
        (lambda s, b: strongly_stable_closure(s, b.n), (0, 1, 1, 2, 3), "inf,inf,inf,inf,inf", 261),
        (lambda s, b: squarefree_strongly_stable_closure(s, b.n), (0,) * 7 + (1,) * 4, "2," * 10 + "2", 330),
        (stable_closure, (0, 0, 0, 0, 0, 8), "2,3,3,3,4,inf", 210),
    ], ids=["borel", "sqfree", "bounded"])
    def test_large_closures_equal_the_formula(self, close, seed, bounds_text, size):
        b = BoundVector.from_text(bounds_text)
        I = close([Monomial(seed)], b)
        assert len(I.gens) == size
        assert betti_linear_quotients(I).to_ideal() == betti_stable_formula(I, b)
        # the bench's stable gate: a cold pivot recursion gives the alternating sum of the table
        hilbert._numerator.cache_clear()
        assert summarize(I).numerator == alternating_numerator(betti_stable_formula(I, b))

    def test_final_probe_refuses_a_complete_intersection(self):
        # set(x3*x4) is empty, so without the last probe the order would pass,
        # though the colon (x1*x2) : x3*x4 = (x1*x2) is not generated by variables
        assert betti_linear_quotients(ideal(4, (1, 1, 0, 0), (0, 0, 1, 1))) is None
        assert betti_linear_quotients(ideal(2, (3, 0), (0, 3))) is None

    def test_many_variables_take_linear_probes(self):
        # (x2, ..., x300): each generator's probes come from one read of the
        # index, so the 299 generators in 300 variables certify in well
        # under a second (a probe per variable per generator took seconds)
        n = 300
        I = ideal(n, *(tuple(int(v == i) for v in range(n)) for i in range(1, n)))
        start = time.perf_counter()
        table = betti_linear_quotients(I)
        assert time.perf_counter() - start < 1.0
        assert entries(table) == {(i, i): comb(n - 1, i) for i in range(n)}

    def test_degenerate_ideals(self):
        assert entries(betti_linear_quotients(MonomialIdeal.zero(3))) == {(0, 0): 1}
        assert entries(betti_linear_quotients(MonomialIdeal.zero(0))) == {(0, 0): 1}
        assert betti_linear_quotients(ideal(2, (1, 2))) == betti_oracle(ideal(2, (1, 2)))
        with pytest.raises(ValueError):
            betti_linear_quotients(MonomialIdeal.unit(2))


def lcm_lattice(I):
    """The lcms of the generator subsets of I, sorted, the empty one included."""
    lcms = {(0,) * I.n}
    for g in I.gens:
        lcms |= {tuple(map(max, m, g.exponents)) for m in lcms}
    return sorted(lcms)


def squarefree_corpus(rng, count):
    """Seeded squarefree ideals in 8 to 10 variables, each minimalized from
    8 to 14 supports of 2 to 4 variables."""
    corpus = []
    for _ in range(count):
        n = rng.randint(8, 10)
        corpus.append(minimalize([Monomial(tuple(int(v in support) for v in range(n)))
                                  for support in (rng.sample(range(n), rng.randint(2, 4))
                                                  for _ in range(rng.randint(8, 14)))], n))
    return corpus


def strand_corpus():
    """Seeded squarefree, non-squarefree and stable ideals in 1..5
    variables, plus zero ideals (one in no variables) and a principal ideal."""
    rng = random.Random(97)
    corpus = [MonomialIdeal.zero(0), MonomialIdeal.zero(3), ideal(2, (2, 3))]
    for _ in range(12):
        n = rng.randint(1, 5)
        corpus.append(stanley_reisner_ideal(random_complex(rng, n)))
        corpus.append(random_ideal(rng, n))
        seeds = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(2)]
        corpus.append(stable_closure([s for s in seeds if s.degree] or [seeds[0]], BoundVector.unbounded(n)))
    return [I for I in corpus if not I.is_unit]


class TestStrandTable:
    """The tight-set walker with its Morse matching, fed tuple multidegrees
    through the oracles' tuple-to-code encoder, against the reference
    walker, which probes every subset mask and reduces nothing.  The
    encoder drops the cones, whose strands the reference finds acyclic."""

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_lcm_lattice_on_all_variables(self, modulus):
        for I in strand_corpus():
            lcms = {(0,) * I.n}
            for g in I.gens:
                lcms |= {tuple(map(max, m, g.exponents)) for m in lcms}
            got = strand_table_by_codes(I, sorted(lcms), range(I.n), modulus)
            assert got == strand_table_by_probes(I, sorted(lcms), range(I.n), modulus), I

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_every_multidegree_on_a_suffix(self, modulus):
        empty_grounds = cones = 0
        for I in strand_corpus():
            multidegrees = [m.exponents for d in range(5) for m in monomials_of_degree(I.n, d)]
            for k in range(1, I.n + 1):
                suffix = range(I.n - k, I.n)
                empty_grounds += sum(1 for a in multidegrees if not any(a[v] for v in suffix))
                got = strand_table_by_codes(I, multidegrees, suffix, modulus)
                assert got == strand_table_by_probes(I, multidegrees, suffix, modulus), (I, k)
                dropped = [a for a in multidegrees if is_cone(I, a, suffix)]
                assert strand_table_by_probes(I, dropped, suffix, modulus) == {}, (I, k)
                cones += len(dropped)
        assert empty_grounds > 100  # a = 0 and the multidegrees off the suffix
        assert cones > 5000  # 5 528 multidegrees with a suffix exponent that is no generator's

    @staticmethod
    def families_handed_over(monkeypatch):
        families = []

        def spy(family, modulus=None):
            families.append(sorted(family))
            return subset_homology(families[-1], modulus)

        monkeypatch.setattr(betti, "subset_homology", spy)
        return families

    @staticmethod
    def families_counted(monkeypatch):
        # each nonempty family of each batch the strand kernel hands to the
        # counting step, block by block, with the k of its batch
        families = []
        count = betti._batch_homology

        def spy(batch, lacks, modulus=None):
            families.extend((family, len(lacks)) for family in untiled(batch, len(lacks)) if family)
            return count(batch, lacks, modulus)

        monkeypatch.setattr(betti, "_batch_homology", spy)
        return families

    @staticmethod
    def by_queue(pairs):
        # (family, k) pairs as the kernel queues them: k raised to FLOOR_K,
        # and the families of each k in the order of their multidegrees
        queues = {}
        for family, k in pairs:
            queues.setdefault(max(k, betti.FLOOR_K), []).append(family)
        return queues

    @staticmethod
    def one_family_at_a_time(monkeypatch, homology=None):
        # replace the counting step by one that takes each family's homology
        # alone: by ranking, or by the given {size: dim} of (family, k)
        def each(batch, lacks, modulus=None):
            k = len(lacks)
            return {(b, size): d for b, family in enumerate(untiled(batch, k)) if family
                    for size, d in (homology(family, k) if homology else
                                    subset_homology(betti._members(family), modulus)).items()}

        monkeypatch.setattr(betti, "_batch_homology", each)

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_repeated_element_matching(self, modulus, monkeypatch):
        # at the top multidegree the tight sets are {0, 1} and {2, 3, 4}
        # (resp. {2, 3}): after the match on the last variable, the cut
        # family is the G that meet {0, 1} and miss {2, 3}, so x2 and x3,
        # in no tight set without it, lie in no cell: {0}, {1}, {0, 1} are
        # left; over x2 x3 x4 only the empty cell is
        cases = [(ideal(5, (1, 1, 0, 0, 0), (0, 0, 1, 1, 1)), (1, 1, 1, 1, 1), [1, 2, 3], {(2, 5): 1}),
                 (ideal(4, (2, 1, 0, 0), (0, 0, 1, 2)), (2, 1, 1, 2), [1, 2, 3], {(2, 6): 1}),
                 (ideal(5, (0, 0, 1, 1, 1)), (0, 0, 1, 1, 1), [0], {(1, 3): 1})]
        for I, top, cells, expected in cases:
            families = self.families_counted(monkeypatch)
            assert strand_table_by_codes(I, [top], range(I.n), modulus) == expected
            assert [betti._members(family) for family, _ in families] == [cells]
            lcms = {(0,) * I.n}
            for g in I.gens:
                lcms |= {tuple(map(max, m, g.exponents)) for m in lcms}
            got = strand_table_by_codes(I, sorted(lcms), range(I.n), modulus)
            assert got == strand_table_by_probes(I, sorted(lcms), range(I.n), modulus), I

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_free_variable_reaches_no_homology(self, modulus, monkeypatch):
        # in a = x0 x1 x2 over (x1 x2, x0 x1^2), x0 lies in no tight set:
        # the cut family {∅, {x0}} reaches the counting step, whose matching
        # on x0 pairs its two cells, so no cell is left and nothing is
        # ranked; over (x1 x2) alone, a is a cone on x0, dropped by the
        # encoder, and acyclic
        assert is_cone(ideal(3, (0, 1, 1)), (1, 1, 1), range(3))
        assert strand_table_by_probes(ideal(3, (0, 1, 1)), [(1, 1, 1)], range(3), modulus) == {}
        I = ideal(3, (0, 1, 1), (1, 2, 0))
        counted = self.families_counted(monkeypatch)
        ranked = self.families_handed_over(monkeypatch)
        assert strand_table_by_codes(I, [(1, 1, 1)], range(3), modulus) == {}
        assert ranked == []
        assert [self.critical_sizes(family, k) for family, k in counted] == [Counter()]
        assert strand_table_by_probes(I, [(1, 1, 1)], range(3), modulus) == {}

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_cut_family_is_the_definition(self, modulus, monkeypatch):
        # each family handed to the counting step is, over the ground below
        # the last ground variable v in its documented order, the set of G
        # with x^(a - 1_G) in I and x^(a - 1_{G+v}) not in I, probed with
        # contains
        corpus = strand_corpus() + squarefree_corpus(random.Random(103), 8)
        counted = self.families_counted(monkeypatch)
        handed = reordered = 0
        for I in corpus:
            suffix = range(I.n // 2, I.n)
            for a in lcm_lattice(I):
                counted.clear()
                table = strand_table_by_codes(I, [a], suffix, modulus)
                ground = [v for v in suffix if a[v]]
                top = len(ground) - 1
                # the ground below v numbered by how many generators g | x^a
                # have g_u = a_u, fewest first, ties in ascending order
                divisors = [g.exponents for g in I.gens if all(e <= x for e, x in zip(g.exponents, a))]
                order = sorted(range(top), key=lambda t: sum(g[ground[t]] == a[ground[t]] for g in divisors))

                def inside(mask):  # x^(a - 1_mask) in I, mask over the ground
                    e = list(a)
                    for t, v in enumerate(ground):
                        e[v] -= mask >> t & 1
                    return I.contains(Monomial(tuple(e)))

                def over_ground(g):  # bit i of g is the ground element order[i]
                    return sum(1 << t for i, t in enumerate(order) if g >> i & 1)

                expected = sum(1 << g for g in range(1 << top)
                               if inside(over_ground(g)) and not inside(over_ground(g) | 1 << top)) if ground else 0
                if top == 0:  # the family below a lone v, {∅} or none, is read off as H_1 or nothing
                    assert counted == [] and table == ({(1, sum(a)): 1} if expected else {}), (I, a)
                    handed += expected
                elif counted:
                    assert counted == [(expected, max(top, betti.FLOOR_K))], (I, a)
                    handed += 1
                    reordered += order != sorted(order)
                else:
                    assert expected == 0, (I, a)
        assert handed > 600  # 713 multidegrees hand a nonempty family over, 128 of them {∅} read off
        assert reordered > 100  # 124 of them number the ground out of ascending order

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_cut_families_equal_the_missing_construction(self, modulus, monkeypatch):
        # the tight masks and the two down-closures, tiled, hand the counting
        # step exactly the families, with their k and in the order of their
        # multidegrees within each queue, that one subsets_missing per tight
        # set builds: on lcm lattices over every variable and on a suffix,
        # and on every multidegree up to degree 3 over each Koszul suffix
        counted = self.families_counted(monkeypatch)
        handed = 0
        for I in strand_corpus() + squarefree_corpus(random.Random(109), 8):
            lcms = lcm_lattice(I)
            cases = [(lcms, range(I.n)), (lcms, range(I.n // 2, I.n))]
            if I.n <= 5:
                low = every_multidegree(I.n, 3)
                cases += [(low, range(I.n - k, I.n)) for k in range(1, I.n + 1)]
            for multidegrees, variables in cases:
                counted.clear()
                strand_table_by_codes(I, multidegrees, variables, modulus)
                kept = [a for a in multidegrees if not is_cone(I, a, variables)]
                expected = cut_families_by_missing(I, kept, variables)
                assert all(family == 1 for family, k in expected if k == 0)  # {∅} below a lone v, read off
                queued = [(family, k) for family, k in expected if k]
                assert self.by_queue(counted) == self.by_queue(queued), (I, variables)
                handed += len(expected)
        assert handed > 2000  # 2 164 families, 363 of them {∅} read off: the cones, dropped, handed over 208 more

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_counting_equals_ranking(self, modulus, monkeypatch):
        # the same tables with every family ranked, on the corpus and on
        # random squarefree ideals in 8 to 10 variables; some families are
        # ranked, but fewer than one in a hundred (15 of the 3 252 counted,
        # past 197 {∅} read off; 62 with the ground matched in ascending order)
        corpus = strand_corpus() + squarefree_corpus(random.Random(101), 20)
        cases = [(I, lcm_lattice(I)) for I in corpus]

        def tables():
            return [(betti_oracle(I, modulus), strand_table_by_codes(I, lcms, range(I.n // 2, I.n), modulus))
                    for I, lcms in cases]

        counted = self.families_counted(monkeypatch)
        ranked = self.families_handed_over(monkeypatch)
        counting = tables()
        assert 0 < len(ranked) < len(counted) / 100
        self.one_family_at_a_time(monkeypatch)
        assert tables() == counting

    @staticmethod
    def critical_sizes(family, k):
        # the sizes of the cells that ascending element matchings leave,
        # matched over Python sets
        cells = set(betti._members(family))
        for j in range(k):
            pairs = {g for g in cells if not g >> j & 1 and g | 1 << j in cells}
            cells -= pairs | {g | 1 << j for g in pairs}
        return Counter(g.bit_count() for g in cells)

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_adjacent_critical_sizes_are_ranked(self, modulus, monkeypatch):
        # in one multidegree of (x3 x4 x5, x2 x4 x5, x1 x3 x5, x1 x2 x3) the
        # matchings leave critical cells of sizes 1 and 2, whose Morse
        # differential is not zero here: exactly that family is ranked, and
        # counting it anyway is wrong
        I = ideal(5, (0, 0, 1, 1, 1), (0, 1, 0, 1, 1), (1, 0, 1, 0, 1), (1, 1, 1, 0, 0))
        assert betti_linear_quotients(I) is None
        expected = betti_hochster(complex_of_ideal(I), modulus)
        counted = self.families_counted(monkeypatch)
        ranked = self.families_handed_over(monkeypatch)
        table = betti_oracle(I, modulus)
        assert table == expected
        assert "total: 1 4 3" in table.format_grid().splitlines()
        sizes = [sorted(self.critical_sizes(family, k)) for family, k in counted]
        adjacent = [(family, s) for (family, _), s in zip(counted, sizes) if any(t + 1 in s for t in s)]
        assert [s for _, s in adjacent] == [[1, 2]]
        assert ranked == [betti._members(family) for family, _ in adjacent]
        self.one_family_at_a_time(monkeypatch, self.critical_sizes)
        assert betti_oracle(I, modulus) != expected


def count_one(family, k, modulus=None):
    # a batch of one family, its homology keyed by size
    return {size: d for (b, size), d in betti._batch_homology(family, betti._lacks(k), modulus).items() if d}


def test_counting_rejects_a_family_that_is_not_convex():
    # {∅, {0, 1}}: ∅ ⊂ {0} ⊂ {0, 1} with {0} missing
    with pytest.raises(ValueError, match="not convex"):
        count_one(0b1001, 2)
    # {∅, {0}, {0, 1}} misses {1}; the matching on 0 pairs ∅ with {0} and
    # leaves the one cell {0, 1}, which is not counted before the check
    assert TestStrandTable.critical_sizes(0b1011, 2) == Counter({2: 1})
    with pytest.raises(ValueError, match="not convex"):
        count_one(0b1011, 2)
    with pytest.raises(ValueError, match="not convex"):
        count_one(0b1001 << 4 | 0b1000, 3)
    # one such family among convex ones is rejected as well
    with pytest.raises(ValueError, match="not convex"):
        betti._batch_homology(tiled([0b1111, 0b0110, 0b1001], 2), [tiled([lack] * 3, 2) for lack in betti._lacks(2)])
    assert count_one(0b1111, 2) == {}  # the full square is acyclic
    assert count_one(0b0110, 2) == {1: 2}  # {0} and {1} alone


@pytest.mark.parametrize("modulus", [None, 2])
def test_counting_equals_ranking_on_small_convex_families(modulus):
    # every convex family of subsets of range(k), k <= 3, and seeded ones of
    # up to 8 subsets of range(4) and range(5): the count, the one-cell
    # return included, equals the homology of the whole family
    def convex(family, k):
        members = betti._members(family)
        return all(family >> g & 1 for f in members for h in members if f & h == f
                   for g in range(1 << k) if f & g == f and g & h == g)

    rng = random.Random(113)
    cases = [(family, k) for k in range(4) for family in range(1, 1 << (1 << k)) if convex(family, k)]
    while len(cases) < 450:
        k = rng.choice((4, 5))
        family = sum(1 << g for g in rng.sample(range(1 << k), rng.randint(1, 8)))
        if convex(family, k):
            cases.append((family, k))
    cells = Counter()
    for family, k in cases:
        critical = sum(TestStrandTable.critical_sizes(family, k).values())
        cells[min(critical, 2)] += 1
        expected = {s: d for s, d in subset_homology(betti._members(family), modulus).items() if d}
        assert count_one(family, k, modulus) == expected, family
    assert min(cells.values()) > 20, cells  # no cell, one cell, and more


@pytest.mark.parametrize("modulus", [None, 2])
def test_batches_equal_the_count_one_family_at_a_time(modulus, monkeypatch):
    # queues of 1 to 130 strands over range(k), k = 0..10, each two random
    # sets of complements (without and with v) and a degree, queued at
    # max(k, FLOOR_K) as the kernel queues them: counted in one batch per
    # queue, the table is the sum of the reference's count of each cut family
    # alone, one size up at its degree, with ranked families next to counted
    # ones in the same batch
    rng = random.Random(127)
    ranked = []
    rank = betti.subset_homology
    monkeypatch.setattr(betti, "subset_homology",
                        lambda family, modulus=None: ranked.append(1) or rank(family, modulus))
    mixed = families = 0
    for k in range(11):
        bits = [1 << i for i in range(k)]
        for length in (1, 2, 7, 64, 130):
            table, expected, queue = betti._Tally(), {}, []
            for _ in range(length):
                without, cells = (reduce(or_, (1 << rng.getrandbits(k) for _ in range(rng.randint(lo, 3))), 0)
                                  for lo in (0, 1))
                degree = rng.randint(k, k + 2)
                queue += without, cells, degree
                family = 0
                for c in betti._members(cells):
                    family |= subsets_missing(bits, ~c)
                for p in betti._members(without):
                    family &= ~subsets_missing(bits, ~p)
                for size, d in family_homology_by_counting(family, k, modulus).items():
                    if d:
                        expected[size + 1, degree] = expected.get((size + 1, degree), 0) + d
                families += family != 0
            table.queues[max(k, betti.FLOOR_K)] = queue
            before = len(ranked)
            table.count(max(k, betti.FLOOR_K), modulus)
            assert table.entries == expected and not table.queues, (k, length)
            mixed += 0 < len(ranked) - before < length
    assert mixed > 10 and 20 < len(ranked) < families / 20, (mixed, len(ranked), families)  # 16, 26 and 1 691


def test_members_of_a_sparse_family():
    # the subsets of 12 of 24 elements, past the empty one: 4 095 members
    # spread over 2^24 bits, in ascending order as a bit loop lists them;
    # the loop runs per 64-bit word, since over the whole family it copies
    # all 2^24 bits once per member
    family = betti._missing([1 << t for t in range(24)], 0x555555) ^ 1
    data = family.to_bytes((family.bit_length() + 63) // 64 * 8, "little")
    expected = []
    for k in range(0, len(data), 8):
        word = int.from_bytes(data[k:k + 8], "little")
        while word:
            low = word & -word
            expected.append(8 * k + low.bit_length() - 1)
            word ^= low
    assert len(expected) == 4095
    assert betti._members(family) == expected
    assert betti._members(0) == [] and betti._members(0b1011) == [0, 1, 3]


class TestHochster:
    @staticmethod
    def cuts_taken(monkeypatch):
        # (W, the members of its star cut) for each vertex set W that
        # betti_hochster takes homology for, in the order it takes them,
        # whether the cut is read off or ranked in the sum of its size
        cuts = []
        take = betti._star_cuts

        def spy(complex_):
            for w, cut in take(complex_):
                cuts.append((w, betti._members(cut)))
                yield w, cut

        monkeypatch.setattr(betti, "_star_cuts", spy)
        return cuts

    @staticmethod
    def sums_ranked(monkeypatch):
        # each direct sum betti_hochster hands to subset_homology, as its
        # summands (W, the members of its star cut) in the order of the
        # cells, read off the tags above the ground of the n vertex bits
        sums = []
        rank = betti.subset_homology

        def spy(cells, modulus, ground):
            summands = {}
            for cell in cells:
                summands.setdefault(cell >> ground.bit_length(), []).append(cell & ground)
            sums.append([(w, sorted(family)) for w, family in summands.items()])
            return rank(cells, modulus, ground)

        monkeypatch.setattr(betti, "subset_homology", spy)
        return sums

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_matches_restriction_reference(self, modulus):
        rng = random.Random(83)
        for _ in range(100):
            d = sparse_complex(rng, 7)
            assert betti_hochster(d, modulus) == hochster_by_restriction(d, modulus), d

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_ghost_vertices(self, modulus):
        # x_v in I: v is no face, so W's top vertex may have no star
        rp2 = [{int(v) for v in f} for f in
               ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")]
        moved = [{v + (v >= 4) for v in f} for f in rp2]  # vertex 4 a ghost, 7 the last
        for d in (cx(7, *rp2), cx(7, *moved), cx(4, {1, 2}), cx(5, {1, 3}, {3, 4}, {1, 4})):
            ghosts = [v for v in range(1, d.n + 1) if not any(v in f for f in d.facets)]
            assert ghosts, d
            table = betti_hochster(d, modulus)
            assert table == hochster_by_restriction(d, modulus), d
            assert table == betti_oracle(stanley_reisner_ideal(d), modulus=modulus), d
            assert table.entry(1, 1) == len(ghosts)

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_cone_apex_is_never_visited(self, modulus, monkeypatch):
        # the apex 6 lies in no minimal nonface, so no W holding it is
        # visited: the cone takes exactly the base's W and star cuts
        base = [{1, 2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}]
        cone = cx(6, *(f | {6} for f in base))

        cuts = self.cuts_taken(monkeypatch)

        def run(d):
            cuts.clear()
            return betti_hochster(d, modulus), list(cuts)

        table, families = run(cone)
        base_table, base_families = run(cx(5, *base))
        assert families == base_families
        assert table == hochster_by_restriction(cone, modulus)
        assert entries(table) == entries(base_table)

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_visits_only_unions_of_minimal_nonfaces(self, modulus, monkeypatch):
        rng = random.Random(89)
        complexes = [SimplicialComplex.full(4), SimplicialComplex.empty(4), SimplicialComplex.empty(0),
                     cx(5, {1, 3}, {3, 4}, {1, 4}), cx(6, {1, 2}, {2, 3, 5})]
        complexes += [sparse_complex(rng, 7) for _ in range(60)]
        cuts = self.cuts_taken(monkeypatch)
        for d in complexes:
            cuts.clear()
            table = betti_hochster(d, modulus)
            unions = {0}
            for m in d.minimal_nonfaces():
                mask = sum(1 << v - 1 for v in m)
                unions |= {u | mask for u in unions}
            assert [w for w, _ in cuts] == sorted(unions - {0}), d
            for w in range(1, 1 << d.n):
                if w not in unions:
                    restriction = d.restriction(t + 1 for t in range(d.n) if w >> t & 1)
                    assert not any(reduced_simplicial_homology(restriction, modulus).values()), (d, w)
            assert table == hochster_by_restriction(d, modulus), d

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_star_pairs_at_every_face_vertex(self, modulus, monkeypatch):
        # the star of any vertex of W that is a face, not just the one that
        # betti_hochster picks, cuts the restriction to W without changing
        # its homology; the families are sets of subsets of the union U of
        # the minimal nonfaces, renumbered in order, built as betti_hochster
        # builds them, and it takes one of them for every W it visits
        handed = self.cuts_taken(monkeypatch)
        rng = random.Random(97)
        for _ in range(40):
            d = sparse_complex(rng, 6)
            nonfaces = [sum(1 << v - 1 for v in m) for m in d.minimal_nonfaces()]
            ground = reduce(or_, nonfaces, 0)
            bits = [1 << t for t in range(d.n) if ground >> t & 1]

            def absolute(r):  # a renumbered subset of U as a vertex mask
                return sum(bit for i, bit in enumerate(bits) if r >> i & 1)

            def vertices(w):
                return [t + 1 for t in range(d.n) if w >> t & 1]

            renumbered = {absolute(r): r for r in range(1 << len(bits))}
            faces = (1 << (1 << len(bits))) - 1
            for m in nonfaces:
                faces &= ~(betti._missing(bits, m) << renumbered[m])
            assert betti._members(faces) == [r for r in range(1 << len(bits)) if has_face(d, vertices(absolute(r)))]
            cuts = {bit: faces & betti._missing(bits, bit) & ~(faces >> (1 << i))
                    for i, bit in enumerate(bits) if faces >> (1 << i) & 1}
            families = {}
            for w in map(absolute, range(1, 1 << len(bits))):
                expected = reduced_simplicial_homology(d.restriction(vertices(w)), modulus)
                within = betti._missing(bits, ground ^ w)
                families[w] = [betti._members(cuts[v] & within) for v in cuts if v & w] or [[0]]
                for family in families[w]:
                    got = {size - 1: dim for size, dim in subset_homology(family, modulus).items() if dim}
                    assert got == {k: dim for k, dim in expected.items() if dim}, (d, vertices(w), family)
            handed.clear()
            assert betti_hochster(d, modulus) == hochster_by_restriction(d, modulus), d
            unions = {0}
            for m in nonfaces:
                unions |= {u | m for u in unions}
            assert [w for w, _ in handed] == sorted(unions)[1:], d
            for w, family in handed:
                assert family in families[w], (d, vertices(w))

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_hands_over_the_smallest_star_cut(self, modulus, monkeypatch):
        # of the star cuts at the face vertices of W, built as in the test
        # above, betti_hochster takes one with the fewest members
        handed = self.cuts_taken(monkeypatch)
        rng = random.Random(101)
        smaller = 0  # W where some face-vertex cut is larger than the smallest
        for _ in range(40):
            d = sparse_complex(rng, 6)
            nonfaces = [sum(1 << v - 1 for v in m) for m in d.minimal_nonfaces()]
            ground = reduce(or_, nonfaces, 0)
            bits = [1 << t for t in range(d.n) if ground >> t & 1]
            faces = (1 << (1 << len(bits))) - 1
            for m in nonfaces:
                faces &= ~(betti._missing(bits, m) << sum(1 << i for i, bit in enumerate(bits) if m & bit))
            cuts = {bit: faces & betti._missing(bits, bit) & ~(faces >> (1 << i))
                    for i, bit in enumerate(bits) if faces >> (1 << i) & 1}
            unions = {0}
            for m in nonfaces:
                unions |= {u | m for u in unions}
            handed.clear()
            assert betti_hochster(d, modulus) == hochster_by_restriction(d, modulus), d
            assert [w for w, _ in handed] == sorted(unions)[1:], d
            for w, family in handed:
                within = betti._missing(bits, ground ^ w)
                sizes = [(cuts[v] & within).bit_count() for v in cuts if v & w] or [1]
                assert len(family) == min(sizes), (d, w, family)
                smaller += max(sizes) > min(sizes)
        assert smaller > 20

    def test_star_cuts_equal_the_min_over_the_stars(self):
        # the two subsets tables and the one pass over the stars yield the
        # (W, cut) pairs of one subsets-missing pass per W and min over the
        # stars, in the same order and with ties to the lowest vertex, on
        # random complexes, C_4 to C_13 and 1 to 8 disjoint edges
        rng = random.Random(151)
        complexes = [sparse_complex(rng, 9) for _ in range(200)]
        complexes += [complex_of_ideal(cycle_edge_ideal(n)[0]) for n in range(4, 14)]
        complexes += [complex_of_ideal(complete_intersection((2,) * k)[0]) for k in range(1, 9)]
        visited = 0
        for d in complexes:
            cuts = list(betti._star_cuts(d))
            assert cuts == list(star_cuts_by_min(d)), d
            visited += len(cuts)
        assert visited > 5000, visited

    def test_low_table_holds_at_most_twice_the_union(self, monkeypatch):
        # _star_cuts calls _missing once per minimal nonface and per face
        # vertex of U, then, as the W ascend, once per run of one W ∩ H and
        # once per distinct W ∩ L, L the lowest bit_length(|U|) vertices of
        # U and H the rest, unless W holds all of H or all of L (every
        # subset then, with no set made): the low table never holds more
        # than 2|U| sets
        masks = []
        real = betti._missing
        monkeypatch.setattr(betti, "_missing", lambda bits, m: masks.append(m) or real(bits, m))
        rng = random.Random(157)
        complexes = [sparse_complex(rng, 9) for _ in range(100)]
        complexes += [complex_of_ideal(cycle_edge_ideal(13)[0]), complex_of_ideal(complete_intersection((2,) * 8)[0])]
        fuller = runs = 0  # complexes whose low table holds more than |U| sets, and W ∩ H runs past the first
        for d in complexes:
            masks.clear()
            visited = [w for w, _ in betti._star_cuts(d)]
            nonfaces = [sum(1 << v - 1 for v in m) for m in d.minimal_nonfaces()]
            ground = reduce(or_, nonfaces, 0)
            bits = [1 << t for t in range(d.n) if ground >> t & 1]
            low = sum(bits[:len(bits).bit_length()])
            expected, lows, part = nonfaces + [bit for bit in bits if bit not in nonfaces], set(), None
            for w in visited:
                if w & ground & ~low != part:
                    runs += part is not None
                    part = w & ground & ~low
                    expected.append(ground & ~low & ~w)
                if w & low not in lows:
                    lows.add(w & low)
                    expected.append(low & ~w)
            assert masks == [m for m in expected if m], d
            assert len(lows) <= 2 * len(bits), d
            fuller += len(lows) > len(bits)
        assert fuller > 25 and runs > 500, (fuller, runs)

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_reads_off_cuts_of_one_cell_or_none(self, modulus, monkeypatch):
        # the smallest star cut of W may be only ∅ (no vertex of W is a
        # face, as with ghost vertices: the restriction is {∅}), one cell F
        # (a chain complex with no boundary, homology in degree |F| - 1) or
        # two cells (each a cycle, unless one is a facet of the other and
        # the pair is acyclic); all are read off, and only cuts of three
        # cells or more are ranked, each a summand of one sum.  No visited
        # cut is empty: each vertex v of W lies in a minimal nonface N inside
        # W, and N - v is in the star cut of v; the empty cut, read off as no
        # homology, the one-cell cut, read off at (|W| - |F| - 1, |W|), and
        # the two-cell cuts are checked on their own
        read = {"none": (0b11, 0), "one": (0b111, 0b10), "two": (0b111, 0b110), "facet pair": (0b111, 0b1100)}
        for kind, expected in (("none", {(0, 0): 1}), ("one", {(0, 0): 1, (2, 3): 1}),
                               ("two", {(0, 0): 1, (2, 3): 2}), ("facet pair", {(0, 0): 1})):
            monkeypatch.setattr(betti, "_star_cuts", lambda complex_: iter([read[kind]]))
            assert entries(betti_hochster(cx(3, {1, 2}), modulus)) == expected, kind
        monkeypatch.undo()
        assert subset_homology([], modulus) == {}
        cuts = self.cuts_taken(monkeypatch)
        sums = self.sums_ranked(monkeypatch)
        rng = random.Random(107)
        complexes = [cx(4, {1, 2}), cx(5, {1, 3}, {3, 4}, {1, 4}), SimplicialComplex.empty(3)]
        complexes += [sparse_complex(rng, 6) for _ in range(80)] + [sparse_complex(rng, 8) for _ in range(30)]
        kinds = Counter()
        for d in complexes:
            cuts.clear()
            sums.clear()
            assert betti_hochster(d, modulus) == hochster_by_restriction(d, modulus), d
            ranked = sorted(summand for summands in sums for summand in summands)
            assert ranked == [(w, family) for w, family in cuts if len(family) > 2], d
            kinds.update("none" if not family else "{∅}" if family == [0] else "one" if len(family) == 1
                         else "two" if len(family) == 2 else "more" for _, family in cuts)
        assert kinds["none"] == 0 and min(kinds[kind] for kind in ("{∅}", "one", "two", "more")) > 40, kinds

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_two_cell_cuts_read_off_as_ranked(self, modulus, monkeypatch):
        # every convex two-cell family {A, B} of subsets of a ground of 0 to
        # 6 elements, handed over as the cut of a W one element larger: read
        # off, the table is the one subset_homology ranks, a facet pair
        # acyclic and any other pair two cycles
        kinds = Counter()
        for k in range(7):
            w = (1 << k + 1) - 1
            for a, b in combinations(range(1 << k), 2):
                if a & b == a and (a ^ b).bit_count() > 1:
                    continue  # A inside B, two sizes apart: not convex
                expected = Counter({(0, 0): 1})
                for s, d in subset_homology([a, b], modulus).items():
                    expected[k + 1 - s, k + 1] += d
                monkeypatch.setattr(betti, "_star_cuts", lambda complex_: iter([(w, 1 << a | 1 << b)]))
                assert entries(betti_hochster(cx(7, {1}), modulus)) == +expected, (k, a, b)
                kinds[sum(expected.values()) - 1] += 1
        assert kinds[0] > 300 and kinds[2] > 1000 and set(kinds) == {0, 2}, kinds

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_sums_hold_at_most_flush_cells_plus_one_summand(self, modulus, monkeypatch):
        # each sum holds the cuts of one |W|, three cells or more each, in
        # the order the W are visited, and is ranked once it holds 2·FLUSH
        # cells: before its last summand it held fewer.  Sums reach 2·FLUSH on
        # squarefree ideals of about the bench's check shape (10 variables,
        # 16 drawn supports of 2 to 4 variables), and the tables stay those
        # of the reference routes
        rng = random.Random(139)
        complexes = [sparse_complex(rng, 8) for _ in range(30)]
        bench_shape = [ideal(10, *[[int(v in s) for v in range(10)]
                                   for s in (rng.sample(range(10), 2 + k % 3) for k in range(16))]) for _ in range(4)]
        expected = [hochster_by_restriction(d, modulus) for d in complexes]
        expected += [betti_oracle(I, modulus) for I in bench_shape]
        sums = self.sums_ranked(monkeypatch)
        cuts = self.cuts_taken(monkeypatch)
        full = 0
        for d, table in zip([*complexes, *map(complex_of_ideal, bench_shape)], expected):
            sums.clear()
            cuts.clear()
            assert betti_hochster(d, modulus) == table, d
            order = [w for w, _ in cuts]
            for summands in sums:
                *before, (w, family) = summands
                assert len({v.bit_count() for v, _ in summands}) == 1, (d, summands)
                assert [v for v, _ in summands] == sorted(v for v, _ in summands), (d, summands)
                assert all(len(f) > 2 for _, f in summands) and w in order, (d, summands)
                assert sum(len(f) for _, f in before) < 2 * betti.FLUSH, (d, summands)
                full += sum(len(f) for _, f in summands) >= 2 * betti.FLUSH
        assert full > 5, full

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_tagged_star_cuts_sum_their_homology(self, modulus):
        # star cuts of two cells or more of random complexes on at most 6
        # vertices, subsets of range(6), acyclic or not, with a one-cell and
        # a {∅} summand among them: tagged as summands above the ground
        # range(6), the homology of their sum is the sum of each summand's own
        rng = random.Random(131)
        pool = [cut for _ in range(200) for _, cut in betti._star_cuts(sparse_complex(rng, 6)) if cut & cut - 1]
        kinds = Counter(any(subset_homology(betti._members(cut), modulus).values()) for cut in pool)
        assert kinds[True] > 20 and kinds[False] > 20, kinds
        for _ in range(150):
            summands = rng.sample(pool, rng.randint(1, 8)) + [1, 1 << rng.randrange(64)]
            rng.shuffle(summands)
            cells = [cell | j << 6 for j, cut in enumerate(summands) for cell in betti._members(cut)]
            expected = Counter()
            for cut in summands:
                expected.update(subset_homology(betti._members(cut), modulus))
            got = subset_homology(cells, modulus, (1 << 6) - 1)
            assert {s: d for s, d in got.items() if d} == {s: d for s, d in expected.items() if d}, summands

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_matches_oracle_at_bench_scale(self, modulus):
        # a random squarefree ideal in 10 variables with 16 generators of
        # degrees 2, 3 and 4, no support inside another
        rng = random.Random(7)
        supports = []
        for d in (2,) * 5 + (3,) * 7 + (4,) * 4:
            support = frozenset(rng.sample(range(10), d))
            while any(support <= s or s <= support for s in supports):
                support = frozenset(rng.sample(range(10), d))
            supports.append(support)
        I = ideal(10, *[[int(v in s) for v in range(10)] for s in supports])
        assert len(I.gens) == 16
        assert betti_hochster(complex_of_ideal(I), modulus) == betti_oracle(I, modulus=modulus)

    def test_one_edge_ideal(self):
        t = betti_hochster(cx(3, {1, 3}, {2, 3}))
        assert entries(t) == {(0, 0): 1, (1, 2): 1}

    def test_one_generator_in_many_variables(self):
        # (x1*x2) in 22 variables: the complex has two facets of 21 vertices,
        # 2^22 faces, but only vertices 1 and 2 lie in a minimal nonface; a
        # walk over every face (about 5 s on a 2-core host) times out here
        done = child_run("from multbound.betti import betti_hochster\n"
                         "from multbound.monomials import Monomial, MonomialIdeal\n"
                         "from multbound.simplicial import complex_of_ideal\n"
                         "I = MonomialIdeal(22, (Monomial((1, 1) + (0,) * 20),))\n"
                         "print(sorted(betti_hochster(complex_of_ideal(I)).entries.items()))",
                         timeout=3)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[((0, 0), 1), ((1, 2), 1)]"

    @pytest.mark.parametrize("blocks, expected", [
        (1, "[((0, 0), 1), ((1, 22), 1)]"),
        (2, "[((0, 0), 1), ((1, 11), 2), ((2, 22), 1)]"),
    ], ids=["one-block", "two-blocks"])
    def test_high_degree_generators_in_many_variables(self, blocks, expected):
        # (x1...x22) and (x1...x11, x12...x22): two and three entries, but
        # the minimal nonfaces cover all 22 vertices, under 2^22 faces; the
        # faces are one bitset with the nonfaces' up-sets taken out, not a
        # walk over every face (10 and 18 s on a 2-core host)
        done = child_run("from multbound.betti import betti_hochster\n"
                         "from multbound.monomials import Monomial, minimalize\n"
                         "from multbound.simplicial import complex_of_ideal\n"
                         f"size = 22 // {blocks}\n"
                         "I = minimalize([Monomial(tuple(int(k * size <= v < (k + 1) * size) for v in range(22)))\n"
                         f"                for k in range({blocks})], 22)\n"
                         "print(sorted(betti_hochster(complex_of_ideal(I)).entries.items()))",
                         timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected

    def test_full_simplex(self):
        assert entries(betti_hochster(SimplicialComplex.full(3))) == {(0, 0): 1}

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            betti_hochster(SimplicialComplex.void(2))

    def test_empty_complex_gives_maximal_ideal_koszul(self):
        from math import comb

        t = betti_hochster(SimplicialComplex.empty(4))
        for i in range(1, 5):
            assert t.entry(i, i) == comb(4, i)

    def test_matches_oracle_random(self):
        rng = random.Random(21)
        for _ in range(60):
            d = random_complex(rng, rng.randint(1, 5))
            if d.is_void:
                continue
            assert betti_hochster(d) == betti_oracle(stanley_reisner_ideal(d))

    @pytest.mark.parametrize("modulus", [None, 2, 3])
    def test_real_projective_plane_by_characteristic(self, modulus):
        # the 6-vertex RP^2: H_1 = Z/2, so the F_2 table gains a column
        rp2 = cx(6, *({int(v) for v in f} for f in
                      ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")))
        table = betti_hochster(rp2, modulus)
        assert table == betti_oracle(stanley_reisner_ideal(rp2), modulus=modulus)
        expected = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
        if modulus == 2:
            expected |= {(3, 6): 1, (4, 6): 1}
        assert entries(table) == expected


class TestStableFormula:
    def test_square_of_maximal_ideal(self):
        t = betti_stable_formula(ideal(2, (2, 0), (1, 1), (0, 2)), BoundVector.unbounded(2))
        assert entries(t) == {(0, 2): 3, (1, 3): 2}

    def test_squarefree_pair(self):
        t = betti_stable_formula(ideal(3, (1, 1, 0), (1, 0, 1)), BoundVector.uniform(3, 2))
        assert entries(t) == {(0, 2): 2, (1, 3): 1}

    def test_principal(self):
        t = betti_stable_formula(ideal(2, (1, 0)), BoundVector.unbounded(2))
        assert entries(t) == {(0, 1): 1}

    def test_requires_stability(self):
        with pytest.raises(ValueError):
            betti_stable_formula(ideal(2, (0, 1)), BoundVector.unbounded(2))

    def test_matches_the_saturation_count_reference(self):
        # closures under mixed finite and infinite bounds, with seeds at b_i - 1,
        # each read under its own bounds, unbounded and all-2 when stable there
        rng = random.Random(53)
        read = Counter()
        for _ in range(80):
            n = rng.randint(1, 5)
            own = BoundVector(tuple(rng.choice((INFINITY, 2, 3, 4)) for _ in range(n)))
            seeds = [Monomial(tuple(rng.randint(0, min(3, a - 1)) for a in own.entries))
                     for _ in range(rng.randint(0, 3))]
            I = stable_closure([s for s in seeds if s.degree], own)
            read["mixed"] += INFINITY in own.entries and own.entries.count(INFINITY) < n
            for kind, b in (("own", own), ("unbounded", BoundVector.unbounded(n)),
                            ("all-2", BoundVector.uniform(n, 2))):
                if is_stable(I, b):
                    assert betti_stable_formula(I, b) == formula_by_saturation_count(I, b), (I, b)
                    read[kind] += 1
                    read["saturated"] += any(g.exponents[i] == b.entries[i] - 1
                                             for g in I.gens for i in range(top_index(g) - 1))
        zero = MonomialIdeal.zero(3)
        for b in (BoundVector.unbounded(3), BoundVector.uniform(3, 2), BoundVector((2, INFINITY, 3))):
            assert betti_stable_formula(zero, b) == formula_by_saturation_count(zero, b)
            assert not betti_stable_formula(zero, b).entries
        assert min(read.values()) >= 10, read

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_grouped_formula_matches_the_oracle_on_family_closures(self, modulus):
        # closures that the stable, a-stable and sqfree-strongly-stable campaign
        # families draw, each read under the bounds its family closes under
        read = Counter()
        for family, n, bounds in (("stable", 4, BoundVector.unbounded(4)),
                                  ("a-stable", 5, BoundVector((2, 3, 3, INFINITY, INFINITY))),
                                  ("sqfree-strongly-stable", 6, BoundVector.uniform(6, 2))):
            cfg = CampaignConfig(family, n=n, max_degree=4, count=15, master_seed=71,
                                 bounds=bounds if family == "a-stable" else None)
            for index in range(cfg.count):
                I = generate_ideal(cfg, index)
                if not I.is_unit:
                    assert betti_stable_formula(I, bounds) == betti_oracle(I, modulus=modulus).to_ideal(), (family, I)
                    read[family] += 1
        assert min(read.values()) >= 10, read

    def test_matches_oracle_on_stable_closures(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(2, 4)
            bounds = BoundVector.unbounded(n)
            seed = Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
            if seed.degree == 0:
                continue
            I = stable_closure([seed], bounds)
            assert betti_stable_formula(I, bounds) == betti_oracle(I).to_ideal()

    def test_triple_agreement_squarefree_strongly_stable(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 5)
            supp = rng.sample(range(n), rng.randint(1, n - 1) if n > 1 else 1)
            seed = Monomial(tuple(1 if i in supp else 0 for i in range(n)))
            I = squarefree_strongly_stable_closure([seed], n)
            formula = betti_stable_formula(I, BoundVector.uniform(n, 2))
            oracle = betti_oracle(I).to_ideal()
            hochster = betti_hochster(complex_of_ideal(I)).to_ideal()
            assert formula == oracle == hochster

    def test_max_shifts_ride_regularity_row_when_strongly_stable(self):
        # squarefree strongly stable quotients have every maximal shift up
        # to the codimension sitting on the regularity row
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(2, 5)
            seeds = []
            for _ in range(rng.randint(1, 2)):
                supp = rng.sample(range(n), rng.randint(1, max(1, n - 1)))
                seeds.append(Monomial(tuple(1 if i in supp else 0 for i in range(n))))
            I = squarefree_strongly_stable_closure(seeds, n)
            if I.is_zero or MonomialIdeal.unit(n) == I:
                continue
            st = stats(betti_oracle(I))
            codim = summarize(I).codim
            assert codim <= st.corner
            for i in range(1, codim + 1):
                assert st.max_shift(i) == st.reg + i



class TestClosedForms:
    """m^d, the squarefree Veronese ideals I_{n,d}, the edge ideals of the
    cycles C_n and disjoint edges, whose Betti tables, codimensions and
    multiplicities have closed forms (``oracles``)."""

    def test_closed_forms_match_the_oracle(self):
        cases = [maximal_power(n, d) for n in range(1, 6) for d in range(1, 4)]
        cases += [maximal_power(4, 4)] + [squarefree_veronese(n, d) for n in range(1, 7) for d in range(1, n + 1)]
        for I, table, codim, multiplicity in cases:
            summary = summarize(I)
            assert betti_oracle(I).to_ideal() == table, I
            assert (summary.codim, summary.multiplicity) == (codim, multiplicity), I

    @pytest.mark.parametrize("kind, n, d, size", [("power", 6, 8, 1287), ("power", 5, 12, 1820),
                                                  ("veronese", 14, 7, 3432)])
    def test_pins_at_thousands_of_generators(self, kind, n, d, size):
        if kind == "power":
            (I, table, codim, multiplicity), bounds = maximal_power(n, d), BoundVector.unbounded(n)
        else:
            (I, table, codim, multiplicity), bounds = squarefree_veronese(n, d), BoundVector.uniform(n, 2)
        assert len(I.gens) == size
        assert betti_stable_formula(I, bounds) == table
        assert betti_linear_quotients(I) == table.to_quotient()
        summary = summarize(I)
        assert (summary.codim, summary.multiplicity) == (codim, multiplicity)
        assert summary.numerator == alternating_numerator(table)

    def test_cycle_tables_match_the_oracle(self):
        # C_13 is the largest cycle the oracle's budget admits; C_14 has 1 282 165 candidate cells
        for n in range(4, 14):
            I, table, _, _ = cycle_edge_ideal(n)
            assert betti_oracle(I).to_ideal() == table, n

    def test_cycle_codimension_and_multiplicity(self):
        for n in range(4, 25):
            I, _, codim, multiplicity = cycle_edge_ideal(n)
            summary = summarize(I)
            assert (summary.codim, summary.multiplicity) == (codim, multiplicity), n

    def test_hochster_pins_cycles_and_disjoint_edges(self):
        # the closed forms of C_4 to C_13 and of 1 to 8 disjoint edges, which
        # the two tests around this one pin through the oracle, through
        # Hochster's formula: its star cuts share no kernel with the oracle
        cases = [cycle_edge_ideal(n) for n in range(4, 14)] + [complete_intersection((2,) * k) for k in range(1, 9)]
        for I, table, _, _ in cases:
            assert betti_hochster(complex_of_ideal(I)).to_ideal() == table, I

    def test_disjoint_edges_are_a_koszul_complex(self):
        # k disjoint edges: prod (1 + s t^2); 9 edges have 5^9 candidate cells, over the budget
        for k in range(1, 9):
            I, table, codim, multiplicity = complete_intersection((2,) * k)
            summary = summarize(I)
            assert betti_oracle(I).to_ideal() == table, k
            assert (summary.codim, summary.multiplicity) == (codim, multiplicity), k

class TestStats:
    def test_linear_sequence(self):
        st = stats(betti_oracle(ideal(2, (1, 0), (0, 1))))
        assert st.max_shifts == (1, 2) and st.min_shifts == (1, 2)
        assert st.pure and st.max_shifts == (1, 2)
        assert st.reg == 0 and st.pdim == 2 and st.corner == 2

    def test_square_of_maximal_ideal(self):
        st = stats(betti_oracle(ideal(2, (2, 0), (1, 1), (0, 2))))
        assert st.max_shifts == (2, 3) and st.reg == 1 and st.corner == 2
        assert st.pure and st.max_shifts == (2, 3)

    def test_complete_intersection_tensor(self):
        st = stats(betti_oracle(ideal(3, (1, 1, 0), (0, 0, 2))))
        assert st.max_shifts == (2, 4) and st.min_shifts == (2, 4)

    def test_mixed_generator_degrees(self):
        # generator degrees 1 and 3: step 1 spans degrees 1..3, step 2 sits at 4
        st = stats(betti_oracle(ideal(2, (1, 0), (0, 3))))
        assert st.min_shifts[0] == 1 and st.max_shifts == (3, 4)

    def test_zero_ideal(self):
        st = stats(betti_oracle(MonomialIdeal.zero(3)))
        assert st.pdim == 0 and st.reg == 0 and st.max_shifts == ()
        assert st.corner == 0
        assert st.pure

    def test_accepts_ideal_view(self):
        over_ideal = betti_oracle(ideal(2, (1, 1))).to_ideal()
        assert stats(over_ideal).pdim == 1


class TestRegularity:
    def test_stable_regularity_examples(self):
        unbounded = BoundVector.unbounded(2)
        assert stable_regularity(ideal(2, (1, 0), (0, 3)), unbounded) == 3
        assert stable_regularity(ideal(2, (1, 0)), unbounded) == 1
        sq = ideal(3, (1, 1, 0), (1, 0, 1))
        assert stable_regularity(sq, BoundVector.uniform(3, 2)) == 2

    def test_matches_oracle(self):
        unbounded = BoundVector.unbounded(2)
        I = ideal(2, (1, 0), (0, 3))
        assert stable_regularity(I, unbounded) == regularity(betti_oracle(I).to_ideal())

    def test_zero_module_is_minus_infinity(self):
        assert stable_regularity(MonomialIdeal.zero(2), BoundVector.unbounded(2)) == NEG_INFINITY
        assert NEG_INFINITY < -(10**9)

    def test_requires_stability(self):
        with pytest.raises(ValueError):
            stable_regularity(ideal(2, (0, 1)), BoundVector.unbounded(2))


class TestComponentwiseLinear:
    def test_stable_with_two_degrees(self):
        assert is_componentwise_linear(invariants(ideal(2, (1, 0), (0, 3))))

    def test_complete_intersection_fails(self):
        # regularity of (x1^2, x2^3) is 4, exceeding the truncation degree 3
        assert not is_componentwise_linear(invariants(ideal(2, (2, 0), (0, 3))))

    def test_single_generator(self):
        assert is_componentwise_linear(invariants(ideal(3, (1, 0, 1))))

    def test_zero_ideal(self):
        assert is_componentwise_linear(invariants(MonomialIdeal.zero(2)))

    def test_a_failed_top_builds_no_truncation_table(self, monkeypatch):
        # the record's own table is read before any lower truncation's: a
        # record whose regularity exceeds its top degree builds no table, and
        # one within it builds the lowest truncation's table first
        rng = random.Random(63)
        records = [invariants(ideal(2, (2, 0), (0, 3)))]
        records += [invariants(random_ideal(rng, rng.randint(2, 5), max_degree=4, max_gens=6)) for _ in range(600)]
        built = []
        real = betti._betti_table
        monkeypatch.setattr(betti, "_betti_table", lambda I: built.append(I) or real(I))
        read = Counter()
        for record in records:
            degrees = sorted({g.degree for g in record.ideal.gens})
            if record.route != betti.ROUTE_ORACLE or len(degrees) < 2:
                continue
            built.clear()
            verdict = is_componentwise_linear(record)
            if regularity(record.table.to_ideal()) > degrees[-1]:
                assert not verdict and not built, record.ideal
                read["top fails"] += 1
            else:
                assert built and built[0] == record.ideal.truncate(degrees[0]), record.ideal
                read["top passes"] += 1
        assert min(read["top fails"], read["top passes"]) >= 5, read

    def test_component_route_agrees(self):
        # independent route: every degree component must have linear resolution
        rng = random.Random(61)
        for _ in range(12):
            I = random_ideal(rng, 3, max_degree=3, max_gens=3)
            by_components = True
            for d in range(I.min_gen_degree, I.max_gen_degree + 1):
                comp = component(I, d)
                if comp.is_zero:
                    continue
                if regularity(betti_oracle(comp).to_ideal()) != d:
                    by_components = False
                    break
            assert is_componentwise_linear(invariants(I)) == by_components


class TestCohenMacaulay:
    def test_complete_intersection(self):
        assert invariants(ideal(3, (1, 1, 0), (0, 0, 2))).cm

    def test_two_edges_not_cm(self):
        assert not invariants(ideal(3, (1, 1, 0), (1, 0, 1))).cm

    def test_linear_sequence(self):
        assert invariants(ideal(3, (1, 0, 0), (0, 1, 0))).cm


class TestGrid:
    def test_golden_layout(self):
        grid = betti_oracle(ideal(2, (2, 0), (1, 1), (0, 2))).format_grid()
        assert grid == "\n".join(
            [
                "       0 1 2",
                "total: 1 3 2",
                "    0: 1 . .",
                "    1: . 3 2",
            ]
        )

    def test_golden_wide_entries(self):
        grid = betti_oracle(ideal(2, (1, 0), (0, 3))).format_grid()
        assert grid == "\n".join(
            [
                "       0 1 2",
                "total: 1 2 1",
                "    0: 1 1 .",
                "    1: . . .",
                "    2: . 1 1",
            ]
        )


@pytest.mark.parametrize("subject, entries, message", [
    ("module", {(0, 0): 1}, "unknown subject"),
    ("ideal", {(-1, 2): 1}, "homological index must be non-negative"),
])
def test_table_rejects_malformed_input(subject, entries, message):
    with pytest.raises(ValueError, match=message):
        BettiTable(subject, 2, entries)
