import gc
import random
import time
import weakref
from collections import Counter

import pytest

from multbound import hilbert, monomials
from multbound.campaign import CampaignConfig, generate_ideal
from multbound.hilbert import numerator, poly_div_one_minus_t, summarize
from multbound.koszul import _suffix_walk, almost_regular_suffix
from multbound.monomials import (
    Monomial,
    MonomialIdeal,
    colon_exponents,
    minimalize,
    strongly_stable_closure,
)
from oracles import (annihilator_series, colon_by_minimalize, hilbert_function, monomials_of_degree, multiply,
                     numerator_by_minimalize, numerator_inclusion_exclusion)


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


def random_ideal(rng, n, max_degree=3, max_gens=5):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_degree)
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        gens.append(Monomial(tuple(e)))
    return minimalize(gens, n)


class TestPolyHelpers:
    def test_exact_division(self):
        # (1 - t)(1 + 2t) = 1 + t - 2t^2
        assert poly_div_one_minus_t((1, 1, -2)) == (1, 2)

    def test_inexact_division_returns_none(self):
        assert poly_div_one_minus_t((1, 1)) is None

    def test_zero(self):
        assert poly_div_one_minus_t(()) == ()


class TestNumerator:
    def test_principal(self):
        assert numerator(ideal(2, (1, 1))) == (1, 0, -1)

    def test_linear_regular_sequence(self):
        assert numerator(ideal(2, (1, 0), (0, 1))) == (1, -2, 1)

    def test_square_of_maximal_ideal(self):
        assert numerator(ideal(2, (2, 0), (1, 1), (0, 2))) == (1, 0, -3, 2)

    def test_zero_ideal(self):
        assert numerator(MonomialIdeal.zero(3)) == (1,)

    def test_unit_ideal(self):
        assert numerator(MonomialIdeal.unit(2)) == ()

    def test_own_variable_split_needs_a_variable_in_one_generator(self):
        # the unit ideal's constant has no variable, so no variable occurs
        # once; it still splits off with the numerator 1 - t^0 = 0
        for n in range(5):
            assert numerator(MonomialIdeal.unit(n)) == ()
        # pure powers and disjoint supports split off at once: one call
        for rows, factors in ((((3, 0, 0), (0, 2, 0), (0, 0, 1)), (3, 2, 1)),
                              (((2, 1, 0, 0), (0, 0, 1, 1)), (3, 2)),
                              (((0, 0, 0, 4), (1, 1, 1, 0)), (4, 3))):
            expected = (1,)
            for d in factors:
                expected = hilbert.poly_mul(expected, (1,) + (0,) * (d - 1) + (-1,))
            hilbert._numerator.cache_clear()
            assert numerator(ideal(len(rows[0]), *rows)) == expected
            assert hilbert._numerator.cache_info().misses == 1
        # x1 and x3 occur once, but not on their own; no variable occurs once
        for rows in (((1, 1, 0), (0, 1, 1)), ((1, 1, 0), (1, 0, 1), (0, 1, 1)), ((2, 1), (1, 2))):
            I = ideal(len(rows[0]), *rows)
            hilbert._numerator.cache_clear()
            assert numerator(I) == numerator_inclusion_exclusion(I)
            assert hilbert._numerator.cache_info().misses > 1

    def test_matches_inclusion_exclusion(self):
        rng = random.Random(2024)
        for _ in range(60):
            I = random_ideal(rng, rng.randint(1, 4))
            assert numerator(I) == numerator_inclusion_exclusion(I)

    def test_structural_children_match_the_minimalizing_reference(self):
        # pure powers (one-variable supports) and repeated exponents, n <= 7
        rng = random.Random(2027)
        powers = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(1, 8)):
                e = [0] * n
                for v in rng.sample(range(n), rng.randint(1, min(n, 3))):
                    e[v] = rng.choice((1, 1, 2, 2, 3))
                gens.append(Monomial(tuple(e)))
            I = minimalize(gens, n)
            expected, subproblems = numerator_by_minimalize(I)
            hilbert._numerator.cache_clear()
            assert numerator(I) == expected == numerator_inclusion_exclusion(I), I
            assert hilbert._numerator.cache_info().misses == subproblems, I
            for i in range(n):
                shifted = [Monomial(g.exponents[:i] + (max(g.exponents[i] - 1, 0),) + g.exponents[i + 1:])
                           for g in I.gens]
                colon = sorted(colon_exponents([g.exponents for g in I.gens], i, 1))
                assert colon == sorted(g.exponents for g in minimalize(shifted, n).gens), (I, i + 1)
            powers += any(len(g.support) == 1 for g in I.gens)
        assert powers >= 100

    def test_stable_closure_takes_no_minimalize_call(self, monkeypatch):
        I = strongly_stable_closure([Monomial((0, 1, 1, 2, 3))], 5)
        assert len(I.gens) == 261
        calls = []
        real = monomials.minimalize
        monkeypatch.setattr(monomials, "minimalize", lambda *args: calls.append(args) or real(*args))
        hilbert._numerator.cache_clear()
        summarize(I)
        assert not calls
        assert hilbert._numerator.cache_info().misses == 28

    def test_matches_standard_monomial_count(self):
        rng = random.Random(2025)
        for _ in range(20):
            n = rng.randint(1, 3)
            I = random_ideal(rng, n)
            hf = hilbert_function(I, 6)
            for d in range(7):
                count = sum(1 for m in monomials_of_degree(n, d) if not I.contains(m))
                assert hf[d] == count

    def test_disjoint_supports_split_off(self):
        # twelve disjoint edges: one call, no pivot step
        edges = ideal(24, *[[int(v // 2 == e) for v in range(24)] for e in range(12)])
        expected = (1,)
        for _ in range(12):
            expected = hilbert.poly_mul(expected, (1, 0, -1))
        hilbert._numerator.cache_clear()
        assert numerator(edges) == expected
        assert hilbert._numerator.cache_info().misses == 1
        # the 24-cycle splits into paths and isolated edges as it recurses
        cycle = ideal(24, *[[int(v in (e, (e + 1) % 24)) for v in range(24)] for e in range(24)])
        hilbert._numerator.cache_clear()
        numerator(cycle)
        assert hilbert._numerator.cache_info().misses < 200

    def test_disjoint_blocks_match_inclusion_exclusion(self):
        rng = random.Random(2026)
        mixed = 0  # ideals with a generator of two variables of its own beside shared ones
        for _ in range(80):
            blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            n = sum(blocks)
            gens = []
            start = 0
            for width in blocks:
                for g in random_ideal(rng, width).gens:
                    gens.append(Monomial((0,) * start + g.exponents + (0,) * (n - start - width)))
                start += width
            I = minimalize(gens, n)
            assert numerator(I) == numerator_inclusion_exclusion(I), I
            occurs = [sum(1 for g in I.gens if g.exponents[v]) for v in range(n)]
            own = [all(occurs[i - 1] == 1 for i in g.support) for g in I.gens]
            mixed += not all(own) and any(o and len(g.support) >= 2 for o, g in zip(own, I.gens))
        assert mixed >= 5

    def test_cache_is_bounded(self):
        # the cache is keyed on (n, generators), so no entry holds an ideal
        cache = hilbert._numerator
        limit = cache.cache_info().maxsize
        assert limit is not None
        n = limit.bit_length()
        for mask in range(1, limit + 2):  # one more distinct ideal than fits
            # the principal ideal of a squarefree monomial of degree k: 1 - t^k
            squarefree = [mask >> i & 1 for i in range(n)]
            k = sum(squarefree)
            assert numerator(ideal(n, squarefree)) == (1,) + (0,) * (k - 1) + (-1,)
        assert cache.cache_info().currsize == limit

    def test_cache_does_not_keep_the_ideal(self):
        # a probed ideal carries its divisor index; the cache must not pin it
        I = ideal(3, (2, 1, 0), (0, 1, 3), (1, 0, 1))
        assert I.contains(Monomial((2, 1, 1)))
        numerator(I)
        ref = weakref.ref(I)
        del I
        gc.collect()
        assert ref() is None


def colon_cases(I, rng):
    """Every pivot p of I with a random k in 1..min{g_p > 0}, so that no
    generator has 0 < g_p < k, as ``colon_exponents`` requires."""
    rows = [g.exponents for g in I.gens]
    for p in range(I.n):
        if positive := [g[p] for g in rows if g[p]]:
            yield rows, p, rng.randint(1, min(positive))


class TestColon:
    def test_matches_the_minimalizing_reference(self):
        # random ideals, where lookups mostly miss; closures of the four closure
        # families, where they hit; those closures with one random generator
        # more, where some hit and the rest fall back to the divisor index
        rng = random.Random(2029)
        ideals = [random_ideal(rng, rng.randint(1, 7), max_degree=4, max_gens=8) for _ in range(300)]
        for family in ("stable", "a-stable", "sqfree-strongly-stable", "borel-codim2"):
            for n in range(3, 8):
                cfg = CampaignConfig(family, n=n, max_degree=4, count=1, master_seed=29)
                closures = [generate_ideal(cfg, i) for i in range(8)]
                ideals += closures
                ideals += [minimalize(list(I.gens) + [Monomial(tuple(rng.randint(0, 3) for _ in range(n)))], n)
                           for I in closures]
        read = Counter()
        for I in ideals:
            for rows, p, k in colon_cases(I, rng):
                expected = colon_by_minimalize(rows, p, k)
                assert sorted(colon_exponents(rows, p, k)) == expected, (I, p + 1, k)
                lows = {g[:p] + (0,) + g[p + 1:] for g in rows if g[p] == k}
                for g in rows:
                    if not g[p]:
                        hit = any(g[:v] + (x - 1,) + g[v + 1:] in lows for v, x in enumerate(g) if x)
                        read["hit" if hit else "kept" if g in expected else "dropped by the index"] += 1
                read["k > 1"] += k > 1
        assert min(read.values()) >= 50, read

    def test_stable_closure_builds_no_divisor_index(self, monkeypatch):
        # each free generator of every colon of the 261-generator closure is
        # dropped by a lookup; one whose divisor differs in two places is not
        I = strongly_stable_closure([Monomial((0, 1, 1, 2, 3))], 5)
        built = []

        class Spy(monomials._DivisorIndex):
            def __init__(self, rows=()):
                built.append(self)
                super().__init__(rows)

        monkeypatch.setattr(monomials, "_DivisorIndex", Spy)
        hilbert._numerator.cache_clear()
        summarize(I)
        assert hilbert._numerator.cache_info().misses == 28
        assert not built
        # x1*x3 : x3 = (x1), and x1 divides the free x1^2*x2, though neither x1*x2 nor x1^2 is a generator
        assert colon_exponents([(1, 0, 1), (2, 1, 0)], 2, 1) == [(1, 0, 0)]
        assert len(built) == 1


class TestSummarize:
    def test_principal_quadric(self):
        s = summarize(ideal(2, (1, 1)))
        assert (s.dim, s.codim, s.multiplicity) == (1, 1, 2)
        assert s.reduced_numerator == (1, 1)

    def test_artinian_length(self):
        s = summarize(ideal(2, (2, 0), (1, 1), (0, 2)))
        assert (s.dim, s.codim, s.multiplicity) == (0, 2, 3)
        assert s.reduced_numerator == (1, 2)

    def test_polynomial_ring(self):
        s = summarize(MonomialIdeal.zero(4))
        assert (s.dim, s.codim, s.multiplicity) == (4, 0, 1)

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            summarize(MonomialIdeal.unit(2))

    def test_high_degree_generator(self):
        s = summarize(ideal(2, (600, 600)))
        assert (s.multiplicity, s.codim) == (1200, 1)

    def test_lcm_degree_over_budget_is_refused_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="degree 1000000001, over the Hilbert budget 1048576"):
            summarize(ideal(2, (10**9, 0), (1, 1)))
        assert time.perf_counter() - start < 1.0

    def test_complete_intersection_multiplicity(self):
        # degrees multiply for a monomial regular sequence
        s = summarize(ideal(3, (1, 1, 0), (0, 0, 2)))
        assert (s.codim, s.multiplicity) == (2, 4)


def walk(I):
    """The suffix walk's (variable, length) pairs, in order."""
    return [(last, length) for last, length, *_ in _suffix_walk(I, summarize(I))]


class TestAlmostRegular:
    def test_finite_annihilator(self):
        I = ideal(2, (2, 0), (1, 1))
        assert walk(I)[0] == (2, 1)
        assert annihilator_series(I, 2) == (0, 1)  # spanned by x1 in degree 1

    def test_infinite_annihilator(self):
        assert walk(ideal(2, (1, 1))) == []

    def test_regular_variable(self):
        assert walk(MonomialIdeal.zero(2)) == [(2, 0), (1, 0)]

    def test_variable_inside_ideal(self):
        # the annihilator of x2 on S/(x2) is everything; finite iff Artinian
        assert walk(ideal(2, (0, 1))) == []
        assert walk(ideal(1, (1,))) == [(1, 1)]

    def test_lcm_degree_over_budget_names_the_ideal(self):
        # the walk summarizes the input first, so the refusal names its lcm
        # degree, not the smaller one of the killed quotient
        with pytest.raises(ValueError, match="degree 2000000000, over the Hilbert budget"):
            almost_regular_suffix(ideal(2, (10**9, 0), (0, 10**9)))

    def test_quotient_laws_for_almost_regular_variables(self):
        # killing an almost regular variable drops the dimension by one
        # (when positive) and controls the multiplicity exactly
        rng = random.Random(19)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            I = random_ideal(rng, n)
            current = I
            for last, length, smaller, _, _ in _suffix_walk(I, summarize(I)):
                before = summarize(current)
                after = summarize(current.kill_variables({last}))
                if before.dim > 0:
                    assert after.dim == before.dim - 1
                if before.dim > 1:
                    assert after.multiplicity == before.multiplicity
                elif before.dim == 1:
                    assert before.multiplicity == after.multiplicity - length
                current = smaller
                checked += 1
        assert checked >= 20

    def test_walk_agrees_with_the_reference_at_every_step(self):
        # each step's length is the reference's for the last variable of the
        # quotient it starts from, and the walk stops exactly where the
        # reference finds an infinite-length annihilator
        rng = random.Random(23)
        stopped = finished = 0
        for trial in range(240):
            n = rng.randint(1, 5)
            I = MonomialIdeal.zero(n) if trial % 24 == 0 else random_ideal(rng, n)
            current = I
            for last, length, smaller, before, after in _suffix_walk(I, summarize(I)):
                assert last == current.n
                series = annihilator_series(current, last)
                assert series is not None and length == sum(series), (I, last)
                assert smaller == current.kill_variables({last})
                assert (before, after) == (summarize(current), summarize(smaller))
                current = smaller
            if current.n:
                assert annihilator_series(current, current.n) is None, (I, current)
                stopped += 1
            else:
                finished += 1
        assert stopped >= 50 and finished >= 50, (stopped, finished)

    def test_agrees_with_direct_length_count(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 3)
            I = random_ideal(rng, n)
            i = rng.randint(1, n)
            series = annihilator_series(I, i)
            x_i = Monomial(tuple(int(v == i - 1) for v in range(n)))
            # direct degreewise count of (I : x_i)/I up to a safe bound: the
            # monomials m outside I with x_i * m in I
            top = I.max_gen_degree + 4
            counts = []
            for d in range(top + 1):
                counts.append(
                    sum(
                        1
                        for m in monomials_of_degree(n, d)
                        if I.contains(multiply(x_i, m)) and not I.contains(m)
                    )
                )
            if series is None:
                assert counts[top] > 0 or counts[top - 1] > 0
            else:
                padded = list(series) + [0] * (top + 1 - len(series))
                assert padded[: top + 1] == counts
