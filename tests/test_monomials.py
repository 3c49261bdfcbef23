import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multbound
from multbound.monomials import (
    INFINITY,
    BoundVector,
    Monomial,
    MonomialIdeal,
    _DivisorIndex,
    _exponents_of_degree,
    _squarefree_steps,
    _stable_steps,
    _strong_steps,
    ideal_from_json,
    ideal_to_json,
    is_stable,
    minimalize,
    squarefree_strongly_stable_closure,
    stable_closure,
    strongly_stable_closure,
)
from oracles import (borel_moves, child_run, component, divisor_bits, exchanged, exchanges_by_copy,
                     is_squarefree_strongly_stable, is_stable_by_exchanges, monomials_of_degree, multiply,
                     saturate_by_rounds, saturation_count, trie_divides, trie_insert)


def mono(*exps):
    return Monomial(tuple(exps))


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


CLOSURE_KINDS = ("stable", "strong", "squarefree")


def closure_case(kind, rng, n, count, top):
    """Random seeds of mixed degrees for one kind of closure, with the closure
    under test and the tuple moves that define it: the bounded exchanges of
    the top variable, every Borel move, or every squarefree Borel move, not
    the elementary steps the strong and squarefree closures walk.  Stable
    seeds get a bound vector with finite and infinite entries; exponents
    stay at most top."""
    if kind == "stable":
        bounds = BoundVector(tuple(rng.choice((INFINITY, rng.randint(2, top + 1))) for _ in range(n)))
        seeds = [Monomial(tuple(rng.randint(0, min(top, a - 1)) for a in bounds.entries)) for _ in range(count)]
        return seeds, lambda s: stable_closure(s, bounds), lambda e: _stable_steps(e, bounds.entries)
    if kind == "strong":
        seeds = [Monomial(tuple(rng.randint(0, top) for _ in range(n))) for _ in range(count)]
        return seeds, lambda s: strongly_stable_closure(s, n), borel_moves
    seeds = [Monomial(tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(count)]
    return seeds, lambda s: squarefree_strongly_stable_closure(s, n), lambda e: borel_moves(e, squarefree=True)


def exchange_scan(rows, bounds, squarefree):
    """Uncached stability: every row strictly bounded and every exchange
    divided by some row, squarefree moves when asked, else those of the top."""
    bounded = all(e < a for r in rows for e, a in zip(r, bounds))
    moves = []
    for r in rows:
        top = max((i for i, e in enumerate(r) if e), default=-1)
        for i in range(top + 1) if squarefree else [top]:
            for j in range(i):
                if r[i] and (r[j] == 0 if squarefree else r[j] < bounds[j] - 1):
                    moves.append(r[:j] + (r[j] + 1,) + r[j + 1:i] + (r[i] - 1,) + r[i + 1:])
    return bounded and all(divisor_bits(rows, m) for m in moves)


# stable without bounds but x1^2 is not below all-2 bounds; the squarefree
# triangle is stable under all-2 bounds but lacks x1^2 without bounds
WITH_SQUARE = ((2, 0, 0), (1, 1, 0))
TRIANGLE = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


@pytest.fixture
def membership_probes(monkeypatch):
    """The exponent tuples passed to ``MonomialIdeal._holds``, the membership
    test under ``contains`` and the stability tests, in call order."""
    calls = []
    real = MonomialIdeal._holds
    monkeypatch.setattr(MonomialIdeal, "_holds", lambda self, e: calls.append(e) or real(self, e))
    return calls


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
        assert not u.is_squarefree

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_list_becomes_a_tuple(self):
        u = Monomial([1, 0, 2])
        assert type(u.exponents) is tuple and u == mono(1, 0, 2) and hash(u) == hash(mono(1, 0, 2))

    def test_divides_lcm_mul(self):
        a, b = mono(1, 1, 0), mono(1, 1, 1)
        assert a.divides(b) and not b.divides(a)
        assert multiply(a, mono(0, 0, 3)) == mono(1, 1, 3)

    def test_exchange_equals_the_validated_constructor(self):
        # a move wraps its tuple with Monomial._trusted, skipping __post_init__;
        # its results must still be equal, hash equal and interchangeable as
        # set and dict keys
        rng = random.Random(18)
        for _ in range(300):
            n = rng.randint(1, 5)
            u = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            for i in range(1, n + 1):
                if not u.exponents[i - 1]:
                    continue
                for j in range(1, n + 1):
                    e = list(u.exponents)
                    e[i - 1] -= 1
                    e[j - 1] += 1
                    v, w = Monomial._trusted(exchanged(u.exponents, i - 1, j - 1)), Monomial(tuple(e))
                    assert v == w and hash(v) == hash(w) and {v: 1}[w] == 1
                    assert type(v.exponents) is tuple and v.exponents == w.exponents
                    assert (v.degree, v.support, str(v)) == (w.degree, w.support, str(w))


class TestExponentsOfDegree:
    def test_matches_combinations_in_order(self):
        for n in range(6):
            for d in range(-1, 7):
                expected = [m.exponents for m in monomials_of_degree(n, d)] if d >= 0 else []
                assert list(_exponents_of_degree(n, d)) == expected, (n, d)

    def test_many_variables(self):
        # each tuple is built in O(n), with no recursion as deep as n
        unit = list(_exponents_of_degree(2000, 1))
        assert len(unit) == 2000 and unit[0] == (1,) + (0,) * 1999 and unit[-1] == (0,) * 1999 + (1,)


class TestBoundVector:
    def test_validation(self):
        BoundVector((2, 3, INFINITY))
        with pytest.raises(ValueError):
            BoundVector((1, 2))
        with pytest.raises(ValueError):
            BoundVector((2.5, 2))

    def test_list_becomes_a_tuple(self):
        b = BoundVector([2, INFINITY])
        assert type(b.entries) is tuple and b == BoundVector((2, INFINITY))

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
        # the closures share minimalize's pass, and with it this check
        for build in (lambda seeds: minimalize(seeds, 3),
                      lambda seeds: stable_closure(seeds, BoundVector.uniform(3, 3)),
                      lambda seeds: strongly_stable_closure(seeds, 3),
                      lambda seeds: squarefree_strongly_stable_closure(seeds, 3)):
            with pytest.raises(ValueError, match="has 2 variables, expected 3"):
                build([mono(1, 0)])

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

    def test_str(self):
        assert str(MonomialIdeal.zero(3)) == "(0)"
        assert str(MonomialIdeal(2, (mono(1, 0), mono(0, 2)))) == "(x1, x2^2)"


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
            assert I.contains(Monomial(p)) == bool(divisor_bits(rows, p))

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
            rows = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(5)]
            rows = [r for r in rows if sum(r)]
            I = minimalize(map(Monomial, rows), 3)
            m = tuple(rng.randint(0, 4) for _ in range(3))
            assert I.contains(Monomial(m)) == bool(divisor_bits(rows, m))

    def test_generator_lookup_matches_a_scan_on_mixed_degrees(self):
        # contains answers a generator from a hash lookup, anything else from
        # the index: probe generators, their multiples by one variable, their
        # exchanges, and the monomials one degree below them
        rng = random.Random(19)
        for kind in CLOSURE_KINDS:
            for _ in range(40):
                n = rng.randint(1, 5)
                seeds, closure, _ = closure_case(kind, rng, n, rng.randint(1, 4), 3)
                for I in (closure(seeds), minimalize(seeds, n)):
                    rows = [g.exponents for g in I.gens]
                    probes = set(rows)
                    for g in rows:
                        for i in range(n):
                            probes.add(g[:i] + (g[i] + 1,) + g[i + 1:])
                            if g[i]:
                                probes.add(g[:i] + (g[i] - 1,) + g[i + 1:])
                                probes.update(exchanged(g, i, j) for j in range(n))
                    for p in probes:
                        assert I.contains(Monomial(p)) == bool(divisor_bits(rows, p))


class TestDivisorIndex:
    def test_nonzero_layout_after_every_add(self):
        # zeros after nonzero entries on the same variable, new keys below,
        # between and above the stored ones, a repeated key, and a variable
        # no vector uses; probes at, below and above every key
        stored = [(3, 0, 0), (0, 2, 0), (5, 1, 0), (1, 0, 0), (4, 0, 0), (0, 0, 0),
                  (3, 3, 0), (2, 0, 0), (0, 1, 0), (7, 0, 0)]
        index = _DivisorIndex()
        for count, row in enumerate(stored, 1):
            index.add(row)
            rows = stored[:count]
            assert index.size == count
            assert set(index.levels) == {v for r in rows for v, e in enumerate(r) if e}
            for v, (keys, bits) in index.levels.items():
                assert keys == sorted({r[v] for r in rows if r[v]})
                assert bits == [sum(1 << b for b, r in enumerate(rows) if r[v] >= key) for key in keys]
            for probe in product(range(9), range(5), range(2)):
                assert index.divisors(probe) == divisor_bits(rows, probe)

    def test_matches_brute_force_and_the_trie(self):
        # random insertion orders, repeated exponents, n = 0 and exponents up
        # to 10^9; checked after every insertion
        rng = random.Random(18)
        for _ in range(400):
            n = rng.randint(0, 5)
            pool = [0, 1, rng.randint(0, 4), rng.choice((3, 10**9 - 1, 10**9))]
            stored = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(rng.randint(0, 8))]
            rng.shuffle(stored)
            index, trie = _DivisorIndex(), {}
            for count in range(len(stored) + 1):
                probes = [tuple(max(rng.choice(pool) + rng.randint(-1, 1), 0) for _ in range(n))
                          for _ in range(6)] + stored
                for probe in probes:
                    expected = divisor_bits(stored[:count], probe)
                    assert index.divisors(probe) == expected
                    assert trie_divides(trie, probe) == bool(expected)
                if count < len(stored):
                    index.add(stored[count])
                    trie_insert(trie, stored[count])
            assert _DivisorIndex(stored).divisors((10**9,) * n) == (1 << len(stored)) - 1

    def test_divisor_masks_match_brute_force(self):
        # per variable, the stored vectors at or below the probe's entry and
        # at or below it plus one; keys at, one above and far from each entry
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(0, 5)
            pool = [0, 1, 2, rng.randint(0, 5), 10**9]
            stored = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(rng.randint(0, 8))]
            index = _DivisorIndex(stored)
            for probe in [tuple(max(rng.choice(pool) + rng.randint(-1, 1), 0) for _ in range(n))
                          for _ in range(6)] + stored:
                at, past = index.divisor_masks(probe)
                for v in range(n):
                    assert at[v] == sum(1 << b for b, r in enumerate(stored) if r[v] <= probe[v])
                    assert past[v] == sum(1 << b for b, r in enumerate(stored) if r[v] <= probe[v] + 1)

    def test_empty_and_no_variables(self):
        assert _DivisorIndex().divisors(()) == 0
        assert _DivisorIndex().divisors((5, 0, 10**9)) == 0
        assert _DivisorIndex([()]).divisors(()) == 1
        assert _DivisorIndex([(), ()]).divisors(()) == 0b11
        assert _DivisorIndex([(0, 0)]).levels == {}  # only variables some vector uses

    def test_ideal_bits_follow_the_generators(self):
        I = ideal(3, (2, 1, 0), (0, 1, 3), (1, 0, 1), (0, 2, 0))
        for a in [(2, 2, 3), (1, 1, 1), (0, 2, 0), (0, 0, 0), (5, 5, 5)]:
            assert I._index.divisors(a) == divisor_bits([g.exponents for g in I.gens], a)

    def test_huge_exponent_stays_sparse(self):
        # (x1^(10^9), x1*x2) in a child capped at 2 GB: a table with a slot
        # per exponent value fails at once instead of swapping
        done = child_run("from multbound.monomials import Monomial, minimalize\n"
                         "I = minimalize([Monomial((10**9, 0)), Monomial((1, 1)), Monomial((10**9, 1))], 2)\n"
                         "print(len(I.gens), I.contains(Monomial((10**9, 0))), "
                         "I.contains(Monomial((10**9 - 1, 0))), I.contains(Monomial((5, 1))))",
                         cap=2 * 1024**3)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "True", "False", "True"]


class TestComponent:
    def test_principal_linear(self):
        I = ideal(3, (1, 0, 0))
        assert component(I, 2) == ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1))

    def test_mixed(self):
        I = ideal(3, (1, 1, 0), (0, 0, 3))
        expected = ideal(3, (2, 1, 0), (1, 2, 0), (1, 1, 1), (0, 0, 3))
        assert component(I, 3) == expected

    def test_below_initial_degree_is_zero(self):
        assert component(ideal(2, (1, 1)), 1).is_zero

    def test_exactly_degree_d_monomials(self):
        rng = random.Random(3)
        for _ in range(10):
            raw = [Monomial(tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(4)]
            I = minimalize([m for m in raw if m.degree], 3)
            d = rng.randint(0, 4)
            comp = component(I, d)
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
    def test_kill_unused_variable(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        assert I.kill_variables({3}) == ideal(2, (2, 0), (1, 1), (0, 2))

    def test_kill_drops_divisible_generators(self):
        I = ideal(3, (1, 0, 1), (0, 2, 0))
        assert I.kill_variables({3}) == ideal(2, (0, 2))

    def test_kill_reindexes(self):
        I = ideal(3, (0, 1, 1))
        assert I.kill_variables({1}) == ideal(2, (1, 1))

    def test_kill_keeps_survivors_minimal_and_canonical(self):
        # the survivors of a minimal set are read off as they are, with no
        # minimalizing pass: the same ideal as minimalizing them, and one the
        # validating constructor accepts
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 6)
            I = minimalize([Monomial(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)))
                            for _ in range(rng.randint(0, 8))], n)
            kill = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            keep = [i for i in range(n) if i + 1 not in kill]
            survivors = [Monomial(tuple(g.exponents[i] for i in keep)) for g in I.gens
                         if all(g.exponents[i - 1] == 0 for i in kill)]
            killed = I.kill_variables(kill)
            assert killed == minimalize(survivors, len(keep)), (I, kill)
            assert MonomialIdeal(len(keep), killed.gens) == killed


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
        # the moves of any monomial of a closure stay inside, not only those
        # of generators, so the closure's ascending pass may skip the moves of
        # a monomial that lies in the ideal of the lower degrees; checked up
        # to the maximal generator degree
        rng = random.Random(5)
        for kind in CLOSURE_KINDS:
            for _ in range(15):
                seeds, closure, moves = closure_case(kind, rng, 3, 2, 2)
                I = closure(seeds)
                for d in range(1, I.max_gen_degree + 1):
                    for m in monomials_of_degree(3, d):
                        if I.contains(m):
                            assert all(I.contains(Monomial(v)) for v in moves(m.exponents))

    def test_checks_match_an_exchange_scan(self):
        # closures, whole and with one of up to six generators removed, under
        # their own bounds, unbounded and squarefree
        rng = random.Random(20)
        seen = set()
        for kind in CLOSURE_KINDS:
            for _ in range(30):
                n = rng.randint(1, 4)
                bounds = BoundVector(tuple(rng.choice((INFINITY, rng.randint(2, 4))) for _ in range(n)))
                seeds = [Monomial(tuple(rng.randint(0, min(2, a - 1)) for a in bounds.entries))
                         for _ in range(rng.randint(1, 3))]
                if kind == "stable":
                    I = stable_closure(seeds, bounds)
                elif kind == "strong":
                    I = strongly_stable_closure(seeds, n)
                else:
                    I = squarefree_strongly_stable_closure([Monomial(tuple(min(e, 1) for e in s.exponents))
                                                           for s in seeds], n)
                for k in [-1] + rng.sample(range(len(I.gens)), min(len(I.gens), 6)):
                    J = MonomialIdeal(n, I.gens[:k] + I.gens[k + 1:]) if k >= 0 else I
                    rows = [g.exponents for g in J.gens]
                    for b in (bounds, BoundVector.unbounded(n), BoundVector.uniform(n, 2)):
                        seen.add(is_stable(J, b))
                        assert is_stable(J, b) == exchange_scan(rows, b.entries, False)
                    seen.add(is_squarefree_strongly_stable(J))
                    assert is_squarefree_strongly_stable(J) == exchange_scan(rows, (2,) * n, True)
        assert seen == {True, False}

    def test_verdicts_are_kept_per_bound_vector(self, membership_probes):
        unbounded, squarefree = BoundVector.unbounded(3), BoundVector.uniform(3, 2)
        for rows, verdicts in ((WITH_SQUARE, {unbounded: True, squarefree: False}),
                               (TRIANGLE, {unbounded: False, squarefree: True})):
            for order in ((unbounded, squarefree), (squarefree, unbounded)):
                I = ideal(3, *rows)  # fresh: nothing kept yet
                for b in order:
                    membership_probes.clear()
                    assert is_stable(I, b) == exchange_scan(rows, b.entries, False) == verdicts[b]
                    assert bool(membership_probes) == all(b.bounds_strictly(g) for g in I.gens)
                for b in order + order:
                    membership_probes.clear()
                    assert is_stable(I, b) == verdicts[b]
                    assert not membership_probes
                assert I == ideal(3, *rows) and hash(I) == hash(ideal(3, *rows))

    def test_random_orders_match_an_exchange_scan(self):
        rng = random.Random(21)
        seen = set()
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))}
            I = ideal(n, *rows)
            rows = [g.exponents for g in I.gens]
            vectors = [BoundVector.unbounded(n), BoundVector.uniform(n, 2), BoundVector.uniform(n, 3),
                       BoundVector(tuple(rng.choice((INFINITY, 2, 3)) for _ in range(n)))]
            for b in rng.sample(vectors * 2, 8):
                verdict = is_stable(I, b)
                seen.add(verdict)
                assert verdict == exchange_scan(rows, b.entries, False)
        assert seen == {True, False}

    def test_matches_the_exchange_definition(self):
        # random ideals in 1-6 variables with entries up to the bound a_i (at
        # a_i - 1 a generator sits at the bound, at a_i it passes it), stable
        # closures whole and less one generator, and the zero ideal, under
        # bound vectors that mix 2, 3 and inf
        rng = random.Random(62)
        read = Counter()
        for _ in range(500):
            n = rng.randint(1, 6)
            b = BoundVector(tuple(rng.choice((2, 3, INFINITY)) for _ in range(n)))
            tops = [3 if a == INFINITY else a for a in b.entries]
            kind = rng.choice(("random", "closure", "less one", "zero"))
            if kind == "random":
                I = minimalize([Monomial(tuple(rng.randint(0, t) for t in tops)) for _ in range(rng.randint(1, 5))], n)
            elif kind == "zero":
                I = MonomialIdeal.zero(n)
            else:
                seeds = [Monomial(tuple(rng.randint(0, min(t, a - 1)) for t, a in zip(tops, b.entries)))
                         for _ in range(rng.randint(1, 3))]
                I = stable_closure([s for s in seeds if s.degree], b)
                if kind == "less one" and I.gens:
                    k = rng.randrange(len(I.gens))
                    I = MonomialIdeal(n, I.gens[:k] + I.gens[k + 1:])
            for g in I.gens:
                assert _stable_steps(g.exponents, b.entries) == exchanges_by_copy(g.exponents, b.entries), (g, b)
            verdict = is_stable(I, b)
            assert verdict == is_stable_by_exchanges(I, b), (I, b)
            read[kind, verdict] += 1
            read["at the bound"] += any(e == a - 1 for g in I.gens for e, a in zip(g.exponents, b.entries))
            read["past the bound"] += any(e >= a for g in I.gens for e, a in zip(g.exponents, b.entries))
        for unit in (MonomialIdeal.unit(0), MonomialIdeal.unit(2)):
            b = BoundVector.uniform(unit.n, 2)
            assert is_stable(unit, b) == is_stable_by_exchanges(unit, b)
        assert min(read[k] for k in (("random", False), ("closure", True), ("less one", False),
                                     ("zero", True), "at the bound", "past the bound")) >= 20, read

    def test_probes_a_non_generator_step_through_contains(self, monkeypatch):
        # x1*x2, the one step of x2^2, is no generator: contains asks the divisor index
        calls = []
        real = MonomialIdeal.contains
        monkeypatch.setattr(MonomialIdeal, "contains", lambda self, m: calls.append(m.exponents) or real(self, m))
        I = ideal(2, (1, 0), (0, 2))
        assert is_stable(I, BoundVector.unbounded(2))
        assert calls == [(1, 1)] and "_index" in vars(I)

    def test_wrong_length_raises_after_a_kept_verdict(self):
        I = ideal(2, (2, 0), (1, 1), (0, 2))
        assert is_stable(I, BoundVector.unbounded(2))
        for b in (BoundVector.unbounded(3), BoundVector.uniform(1, 2)):
            with pytest.raises(ValueError, match="wrong length"):
                is_stable(I, b)

    def test_invariants_refuse_bounds_asked_after_good_ones(self):
        unbounded, squarefree = BoundVector.unbounded(3), BoundVector.uniform(3, 2)
        for rows, good, bad in ((WITH_SQUARE, unbounded, squarefree), (TRIANGLE, squarefree, unbounded)):
            I = ideal(3, *rows)
            assert is_stable(I, good)
            assert multbound.stable_regularity(I, good) == 2
            assert multbound.betti_stable_formula(I, good).entries
            with pytest.raises(ValueError, match="bounded-stable"):
                multbound.betti_stable_formula(I, bad)
            with pytest.raises(ValueError, match="bounded-stable"):
                multbound.stable_regularity(I, bad)

    @pytest.mark.parametrize("squarefree", (False, True))
    def test_one_contains_per_exchange_and_no_index(self, membership_probes, squarefree):
        # a closure of one seed lies in one degree, so every exchange of a
        # generator is a generator: each is one hash-first membership probe,
        # and the divisor index is never built; is_stable probes each distinct
        # exchange once, in first-seen order (233 of the 890)
        if squarefree:
            I = squarefree_strongly_stable_closure([mono(0, 0, 1, 0, 1, 1, 1)], 7)
            exchanges = [v for g in I.gens for v in _squarefree_steps(g.exponents)]
            assert is_squarefree_strongly_stable(I)
        else:
            b = BoundVector.unbounded(5)
            I = strongly_stable_closure([mono(0, 1, 1, 2, 3)], 5)
            every = [v for g in I.gens for v in _stable_steps(g.exponents, b.entries)]
            exchanges = list(dict.fromkeys(every))
            assert (len(every), len(exchanges)) == (890, 233)
            assert len(I.gens) == 261 and is_stable(I, b)
        assert exchanges
        assert membership_probes == exchanges
        assert "_index" not in vars(I)

    def test_formula_and_regularity_reuse_the_verdict(self, membership_probes):
        I = strongly_stable_closure([mono(0, 1, 1, 2)], 4)
        b = BoundVector.unbounded(4)
        assert is_stable(I, b) and membership_probes
        membership_probes.clear()
        assert multbound.betti_stable_formula(I, b).entries
        assert multbound.stable_regularity(I, b) == 4
        assert not membership_probes


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
                for v in borel_moves(g.exponents, squarefree=True):
                    assert I.contains(Monomial(v))
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

    @pytest.mark.parametrize("kind", CLOSURE_KINDS)
    def test_matches_rounds_reference(self, kind):
        # n <= 5 and exponents <= 3 keep the reference's rounds fast
        rng = random.Random(16)
        for n in (1, 3):
            for seeds in ([], [Monomial.one(n)], [Monomial.one(n), Monomial((1,) * n)]):
                _, closure, moves = closure_case(kind, rng, n, 0, 3)
                assert closure(seeds).gens == saturate_by_rounds(seeds, n, moves).gens
        for _ in range(300):
            n = rng.randint(1, 5)
            seeds, closure, moves = closure_case(kind, rng, n, rng.randint(1, 4), 3)
            assert closure(seeds).gens == saturate_by_rounds(seeds, n, moves).gens

    def test_one_probe_per_distinct_monomial(self, monkeypatch):
        # x2*x3*x4^2*x5^3 reaches each monomial many times over; a repeat is
        # skipped before the index is probed
        probes = []
        divisors = _DivisorIndex.divisors
        monkeypatch.setattr(_DivisorIndex, "divisors", lambda index, e: probes.append(e) or divisors(index, e))
        seed = mono(0, 1, 1, 2, 3)
        I = strongly_stable_closure([seed], 5)
        reached = {seed.exponents} | {v for g in I.gens for v in _strong_steps(g.exponents)}
        assert len(I.gens) == 261
        assert sorted(probes) == sorted(reached)

    def test_one_degree_builds_no_index(self, monkeypatch):
        # every kept monomial of a one-seed closure has the pop degree, so none
        # can divide a later pop and none is indexed
        added = []
        add = _DivisorIndex.add
        monkeypatch.setattr(_DivisorIndex, "add", lambda index, e: added.append(e) or add(index, e))
        assert len(strongly_stable_closure([mono(0, 1, 1, 2, 3)], 5).gens) == 261
        assert not added

    def test_each_probe_sees_the_lower_degrees(self, monkeypatch):
        # on mixed-degree seeds the index of a closure, or of minimalize (the
        # pass with no moves), holds at each probe exactly the generators of
        # the result below the probe's degree
        stored, probes = {}, []
        add, divisors = _DivisorIndex.add, _DivisorIndex.divisors
        monkeypatch.setattr(_DivisorIndex, "add",
                            lambda index, e: stored.setdefault(index, []).append(e) or add(index, e))
        monkeypatch.setattr(_DivisorIndex, "divisors",
                            lambda index, e: probes.append((e, sorted(stored.get(index, ())))) or divisors(index, e))
        rng = random.Random(34)
        lower_probes = 0
        cases = []
        for kind in CLOSURE_KINDS:
            for _ in range(60):
                n = rng.randint(1, 5)
                seeds, closure, _ = closure_case(kind, rng, n, rng.randint(2, 4), 3)
                cases += [(seeds, closure), (seeds, lambda s, n=n: minimalize(s, n))]
        # x2^2 sorts before x1^2 but is not of lower degree, so x1^2's probe must not see it
        cases.append(([mono(2, 0), mono(0, 2), mono(1, 2)], lambda s: minimalize(s, 2)))
        for seeds, build in cases:
            gens = [g.exponents for g in build(seeds).gens]
            for e, rows in probes:
                assert rows == sorted(g for g in gens if sum(g) < sum(e))
                lower_probes += bool(rows)
            probes.clear()
        assert lower_probes > 100

    def test_high_degree_seed_finishes(self):
        # 5 821 generators in degree 40; a child process bounds the wait, so a
        # closure that re-minimalizes the whole ideal on every round (about
        # 20 s on a 2-core host) fails here instead of stalling the suite
        done = child_run("from multbound.monomials import BoundVector, Monomial, stable_closure\n"
                         "print(len(stable_closure([Monomial((0, 0, 10, 30))], BoundVector.unbounded(4)).gens))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "5821"


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


@pytest.mark.parametrize("build, message", [
    (lambda: ideal_from_json([[1, 0]]), "must be an object"),
    (lambda: ideal(2, (1, 0)).contains(mono(1, 0, 0)), "different variable count"),
    (lambda: ideal(2, (1, 0)).truncate(-1), "must be non-negative"),
    (lambda: ideal(2, (1, 0)).kill_variables({3}), "out of range 1..2"),
    (lambda: ideal(2, (1, 0)).kill_variables({0}), "out of range 1..2"),
    (lambda: ideal(2, (1, 0)).kill_variables({1, 3}), "out of range 1..2"),
    (lambda: is_stable(ideal(2, (1, 0)), BoundVector.unbounded(3)), "wrong length"),
    (lambda: squarefree_strongly_stable_closure([mono(2, 0)], 2), "not squarefree"),
])
def test_rejects_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
