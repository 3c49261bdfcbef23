import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multbound.monomials import (
    INFINITY,
    BoundVector,
    Monomial,
    MonomialIdeal,
    ideal_from_json,
    ideal_to_json,
    is_squarefree_strongly_stable,
    is_stable,
    minimalize,
    monomials_of_degree,
    saturation_count,
    squarefree_strongly_stable_closure,
    stable_closure,
    stable_exchanges,
    strongly_stable_closure,
)


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


def quadratic_minimalize(raw):
    """Reference: the distinct monomials that no other one divides, sorted."""
    distinct = set(raw)
    kept = [m for m in distinct if not any(o != m and o.divides(m) for o in distinct)]
    return tuple(sorted(kept, key=lambda m: m.sort_key))


def rows_in(n, **sizes):
    return st.lists(st.tuples(*[st.integers(0, 4)] * n), **sizes)


# random mixed-degree generating sets and probes in 0..5 variables
IDEAL_CASES = st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), rows_in(n, max_size=10), rows_in(n, min_size=1, max_size=10))
)


class TestMonomial:
    def test_degree_support(self):
        u = mono(1, 0, 2)
        assert u.degree == 3
        assert u.support == (1, 3)
        assert u.top_index == 3
        assert not u.is_squarefree

    def test_top_index_cases(self):
        assert mono(1, 0, 1).top_index == 3
        assert mono(2, 0, 0).top_index == 1
        assert mono(0, 2, 0, 1, 0).top_index == 4

    def test_constant_has_no_top(self):
        with pytest.raises(ValueError):
            _ = Monomial((0, 0)).top_index

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_divides_lcm_mul(self):
        a, b = mono(1, 1, 0), mono(1, 1, 1)
        assert a.divides(b) and not b.divides(a)
        assert a.lcm(mono(0, 2, 0)) == mono(1, 2, 0)
        assert a * mono(0, 0, 3) == mono(1, 1, 3)

    def test_exchange(self):
        assert mono(0, 1, 1).exchange(3, 1) == mono(1, 1, 0)
        with pytest.raises(ValueError):
            mono(1, 0).exchange(2, 1)


class TestBoundVector:
    def test_validation(self):
        BoundVector((2, 3, INFINITY))
        with pytest.raises(ValueError):
            BoundVector((1, 2))
        with pytest.raises(ValueError):
            BoundVector((2.5, 2))

    def test_text_round_trip(self):
        b = BoundVector.from_text("2,3,inf")
        assert b.entries == (2, 3, INFINITY)
        assert BoundVector.from_text(b.to_text()) == b

    def test_bounds_strictly(self):
        b = BoundVector((2, INFINITY))
        assert b.bounds_strictly(mono(1, 9))
        assert not b.bounds_strictly(mono(2, 0))


class TestSaturationCount:
    def test_small_square(self):
        assert saturation_count(mono(1, 1, 0), BoundVector.uniform(3, 2)) == 1

    def test_unbounded_never_counts(self):
        assert saturation_count(mono(1, 1), BoundVector.unbounded(2)) == 0

    def test_mixed_bounds(self):
        u = mono(1, 2, 0, 1)
        assert saturation_count(u, BoundVector((2, 3, 2, 2))) == 2

    def test_rejects_unbounded_violation(self):
        with pytest.raises(ValueError):
            saturation_count(mono(2, 1), BoundVector.uniform(2, 2))


class TestMinimalize:
    def test_divisibility_filter(self):
        I = ideal(2, (2, 0), (2, 1), (0, 1))
        assert I.gens == (mono(0, 1), mono(2, 0))

    def test_empty_is_zero_ideal(self):
        I = minimalize([], 3)
        assert I.is_zero and I.gens == ()

    def test_matches_pairwise_scan_oracle(self):
        rng = random.Random(42)
        raw = [Monomial(tuple(rng.randint(0, 3) for _ in range(4))) for _ in range(50)]
        raw = [m for m in raw if m.degree > 0]
        I = minimalize(raw, 4)
        # oracle: quadratic scan keeping monomials with no proper divisor present
        survivors = {
            m for m in raw if not any(o != m and o.divides(m) for o in raw)
        }
        assert set(I.gens) == survivors

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            minimalize([mono(1, 0)], 3)

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=8), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_order_insensitive(self, rows, rnd):
        gens = [Monomial(r) for r in rows]
        I = minimalize(gens, 3)
        assert minimalize(I.gens, 3) == I
        shuffled = list(gens)
        rnd.shuffle(shuffled)
        assert minimalize(shuffled, 3) == I


class TestConstructor:
    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError, match="not minimal"):
            MonomialIdeal(2, (mono(1, 0), mono(1, 1)))

    def test_rejects_non_canonical_order(self):
        with pytest.raises(ValueError, match="canonical order"):
            MonomialIdeal(2, (mono(0, 2), mono(1, 0)))


class TestContains:
    @given(IDEAL_CASES)
    @settings(max_examples=200, deadline=None)
    def test_divisor_index_matches_linear_scan(self, case):
        n, rows, probes = case
        raw = [Monomial(r) for r in rows]
        I = minimalize(raw, n)
        assert I.gens == quadratic_minimalize(raw)
        assert MonomialIdeal(n, I.gens) == I  # the trusted result passes validation
        for p in probes:
            assert I.contains(Monomial(p)) == any(g.divides(Monomial(p)) for g in raw)

    def test_no_variables(self):
        one = Monomial(())
        assert not MonomialIdeal.zero(0).contains(one)
        assert MonomialIdeal.unit(0).contains(one)

    def test_examples(self):
        I = ideal(3, (1, 1, 0))
        assert I.contains(mono(1, 1, 1))
        assert not I.contains(mono(1, 0, 1))

    def test_agrees_with_generator_scan(self):
        rng = random.Random(7)
        for _ in range(25):
            raw = [Monomial(tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(5)]
            raw = [m for m in raw if m.degree]
            I = minimalize(raw, 3)
            m = Monomial(tuple(rng.randint(0, 4) for _ in range(3)))
            assert I.contains(m) == any(g.divides(m) for g in raw)


class TestComponent:
    def test_principal_linear(self):
        I = ideal(3, (1, 0, 0))
        assert I.component(2) == ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1))

    def test_mixed(self):
        I = ideal(3, (1, 1, 0), (0, 0, 3))
        expected = ideal(3, (2, 1, 0), (1, 2, 0), (1, 1, 1), (0, 0, 3))
        assert I.component(3) == expected

    def test_below_initial_degree_is_zero(self):
        assert ideal(2, (1, 1)).component(1).is_zero

    def test_exactly_degree_d_monomials(self):
        rng = random.Random(3)
        for _ in range(10):
            raw = [Monomial(tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(4)]
            I = minimalize([m for m in raw if m.degree], 3)
            d = rng.randint(0, 4)
            comp = I.component(d)
            expected = {m for m in monomials_of_degree(3, d) if I.contains(m)}
            assert set(comp.gens) == expected


class TestTruncate:
    def test_generator_subset(self):
        I = ideal(2, (1, 0), (0, 3))
        assert I.truncate(2) == ideal(2, (1, 0))
        assert I.truncate(3) == I

    def test_monotone_membership(self):
        rng = random.Random(11)
        for _ in range(10):
            raw = [Monomial(tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(4)]
            I = minimalize([m for m in raw if m.degree], 3)
            for k in range(5):
                small, big = I.truncate(k), I.truncate(k + 1)
                for d in range(6):
                    for m in monomials_of_degree(3, d):
                        if small.contains(m):
                            assert big.contains(m)
                        # degree <= k monomials of I all lie in the truncation
                        if d <= k and I.contains(m):
                            assert small.contains(m)
                        if small.contains(m):
                            assert I.contains(m)


class TestSurgeries:
    def test_colon(self):
        I = ideal(2, (2, 0), (1, 1))
        assert I.colon_by_variable(2) == ideal(2, (1, 0))

    def test_sum(self):
        assert ideal(2, (1, 1)).sum_with_variable(1) == ideal(2, (1, 0))

    def test_kill_unused_variable(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        assert I.kill_variables({3}) == ideal(2, (2, 0), (1, 1), (0, 2))

    def test_kill_drops_divisible_generators(self):
        I = ideal(3, (1, 0, 1), (0, 2, 0))
        assert I.kill_variables({3}) == ideal(2, (0, 2))

    def test_kill_reindexes(self):
        I = ideal(3, (0, 1, 1))
        assert I.kill_variables({1}) == ideal(2, (1, 1))


class TestStability:
    def test_stable_square(self):
        I = ideal(2, (2, 0), (1, 1), (0, 2))
        assert is_stable(I, BoundVector.unbounded(2))

    def test_squarefree_stable_pair(self):
        I = ideal(3, (1, 1, 0), (1, 0, 1))
        assert is_stable(I, BoundVector.uniform(3, 2))

    def test_not_stable(self):
        I = ideal(2, (0, 1))
        assert not is_stable(I, BoundVector.unbounded(2))

    def test_unbounded_generator_fails(self):
        I = ideal(2, (2, 0))
        assert not is_stable(I, BoundVector.uniform(2, 2))

    def test_zero_ideal_vacuous(self):
        assert is_stable(MonomialIdeal.zero(3), BoundVector.unbounded(3))
        assert is_squarefree_strongly_stable(MonomialIdeal.zero(3))

    def test_membership_closure_extends_to_all_monomials(self):
        # exchange moves of any monomial of the ideal stay inside, not only
        # those of generators; checked up to the maximal generator degree
        rng = random.Random(5)
        for _ in range(15):
            seeds = [Monomial(tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(2)]
            seeds = [m for m in seeds if m.degree]
            if not seeds:
                continue
            bounds = BoundVector.unbounded(3)
            I = stable_closure(seeds, bounds)
            for d in range(1, I.max_gen_degree + 1):
                for m in monomials_of_degree(3, d):
                    if not I.contains(m):
                        continue
                    for v in stable_exchanges(m, bounds):
                        assert I.contains(v)


class TestSquarefreeStronglyStable:
    def test_examples(self):
        assert is_squarefree_strongly_stable(ideal(3, (1, 1, 0), (1, 0, 1)))
        assert not is_squarefree_strongly_stable(ideal(3, (0, 1, 1)))
        assert is_squarefree_strongly_stable(ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1)))

    def test_non_squarefree_rejected(self):
        assert not is_squarefree_strongly_stable(ideal(2, (2, 0)))

    def test_exchange_enumeration_oracle(self):
        rng = random.Random(9)
        for _ in range(20):
            size = rng.randint(1, 3)
            seeds = []
            for _ in range(2):
                supp = rng.sample(range(4), size)
                seeds.append(Monomial(tuple(1 if i in supp else 0 for i in range(4))))
            I = squarefree_strongly_stable_closure(seeds, 4)
            # brute-force all exchanges of all generators
            for g in I.gens:
                for i in g.support:
                    for j in range(1, i):
                        if g.exponents[j - 1] == 0:
                            assert I.contains(g.exchange(i, j))
            assert is_squarefree_strongly_stable(I)


class TestStableClosure:
    def test_square_from_seed(self):
        I = stable_closure([mono(0, 2)], BoundVector.unbounded(2))
        assert I == ideal(2, (2, 0), (1, 1), (0, 2))

    def test_already_closed(self):
        I = stable_closure([mono(1, 1, 0)], BoundVector.uniform(3, 2))
        assert I == ideal(3, (1, 1, 0))

    def test_squarefree_seed_saturates(self):
        bounds = BoundVector.uniform(3, 2)
        I = stable_closure([mono(0, 1, 1)], bounds)
        assert is_stable(I, bounds)
        assert I.contains(mono(0, 1, 1))
        # applying the closure again is the identity
        assert stable_closure(I.gens, bounds) == I

    def test_fixed_point_property(self):
        rng = random.Random(13)
        for _ in range(15):
            entries = tuple(rng.randint(0, 2) for _ in range(4))
            if sum(entries) == 0:
                continue
            bounds = BoundVector((3, 3, INFINITY, INFINITY))
            seed = Monomial(entries)
            if not bounds.bounds_strictly(seed):
                continue
            I = stable_closure([seed], bounds)
            assert is_stable(I, bounds)
            assert stable_closure(I.gens, bounds) == I

    def test_rejects_unbounded_seed(self):
        with pytest.raises(ValueError):
            stable_closure([mono(2, 0)], BoundVector.uniform(2, 2))

    def test_borel_closure(self):
        I = strongly_stable_closure([mono(0, 0, 2)], 3)
        # all degree-2 monomials arrive by repeated index-lowering moves
        assert I == ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


class TestJson:
    def test_round_trip(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0))
        assert ideal_from_json(ideal_to_json(I)) == I

    def test_parse_canonicalizes(self):
        I = ideal_from_json({"n": 2, "generators": [[2, 0], [2, 1], [0, 1]]})
        assert I == ideal(2, (2, 0), (0, 1))

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            ideal_from_json({"n": 3, "generators": [[1, 0]]})
        with pytest.raises(ValueError):
            ideal_from_json({"n": 2, "generators": [[1, -1]]})
        with pytest.raises(ValueError):
            ideal_from_json({"n": 2, "generators": "nope"})
