import hashlib
import json
import random
import time
from bisect import bisect_left
from collections import Counter
from math import comb

import pytest

from multbound import betti, hilbert, monomials
from multbound.betti import OracleCapError, betti_oracle
from multbound.hilbert import summarize
from multbound.koszul import (
    almost_regular_suffix,
    koszul_strands,
    reduction_report,
)
from multbound.monomials import (
    Monomial,
    MonomialIdeal,
    minimalize,
    strongly_stable_closure,
)
from oracles import (
    every_multidegree,
    hilbert_function,
    koszul_dims_by_enumeration,
    strand_inputs,
    strand_table_by_probes,
)


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


# a codimension-2 Borel ideal in 6 variables whose reduction kills x6..x3
# with annihilator lengths 1, 1, 2, 2
BOREL_6 = ideal(6, (0, 1, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0), (0, 2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1),
                (1, 0, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0), (1, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0))


def spy_on_the_walk(monkeypatch):
    """The ideals that kill_variables returns, and those that
    hilbert.summarize and hilbert.numerator get, in call order."""
    kills, summarized, numerators = [], [], []
    kill, summarize_, numerator = MonomialIdeal.kill_variables, hilbert.summarize, hilbert.numerator
    monkeypatch.setattr(MonomialIdeal, "kill_variables", lambda self, k: kills.append(kill(self, k)) or kills[-1])
    monkeypatch.setattr(hilbert, "summarize", lambda I: summarized.append(I) or summarize_(I))
    monkeypatch.setattr(hilbert, "numerator", lambda I: numerators.append(I) or numerator(I))
    return kills, summarized, numerators


def spy_on_strand(monkeypatch):
    """The (degree, divisors, levels) of every multidegree that the strand
    kernel betti._strand gets, counted."""
    seen = Counter()
    real = betti._strand

    def spy(table, degree, divisors, levels, modulus):
        seen[degree, divisors, tuple(levels)] += 1
        return real(table, degree, divisors, levels, modulus)

    monkeypatch.setattr(betti, "_strand", spy)
    return seen


# (x1^2000000, x2): the lcm has degree 2000001, over hilbert.HILBERT_BUDGET, so
# no Hilbert series of it can be computed, while its strand tables are small
OVER_HILBERT = ideal(2, (2000000, 0), (0, 1))
OVER_HILBERT_REFUSAL = "degree 2000001, over the Hilbert budget"

# (ideal, k, bound) whose prefix heads meet the edges of their fields
HEAD_EDGES = [
    (ideal(3, (0, 2, 1), (0, 0, 3)), 2, 7),  # x1 in no generator: an empty field, each head coded 0
    (ideal(2, (5, 0), (2, 2), (0, 4)), 1, 5),  # x1 heads 1, 3 and 4 strictly between generator exponents
    (ideal(2, (1, 1), (0, 3)), 1, 6),  # x1 heads 2 to 6 above every generator exponent
    (ideal(4, (3, 0, 1, 0), (1, 0, 0, 2), (0, 0, 2, 1)), 2, 7),  # x1 between and above, x2 empty
    (ideal(2, (2, 1), (0, 3)), 2, 6),  # k = n: no head
]


def off_the_cone(ideal, k, bound):
    """Every multidegree of degree at most bound whose exponents on the last
    k variables are each 0 or some generator's: those the cone rule keeps."""
    suffix = range(ideal.n - k, ideal.n)
    exponents = {v: {g.exponents[v] for g in ideal.gens} for v in suffix}
    return [a for a in every_multidegree(ideal.n, bound) if all(a[v] == 0 or a[v] in exponents[v] for v in suffix)]


class TestStrands:
    def test_zero_ideal_full_sequence(self):
        table = koszul_strands(MonomialIdeal.zero(2), 2, 4)
        # full Koszul complex resolves the residue field: H_0 = K in degree 0
        assert table.dims == {(0, 0): 1}

    def test_full_sequence_recovers_betti(self):
        I = ideal(2, (2, 0), (1, 1), (0, 2))
        table = koszul_strands(I, 2, 5)
        assert table.dims == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
        assert not table.truncated

    def test_single_variable_strand_is_shifted_annihilator(self):
        I = ideal(2, (2, 0), (1, 1))
        table = koszul_strands(I, 1, 5)
        row = {(i, j): v for (i, j), v in table.dims.items() if i == 1}
        assert row == {(1, 2): 1}

    def test_h0_is_killed_quotient_hilbert_function(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 4)
            gens = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(3)]
            I = minimalize([g for g in gens if g.degree], n)
            k = rng.randint(1, n - 1)
            bound = 5
            table = koszul_strands(I, k, bound)
            killed = I.kill_variables(set(range(n - k + 1, n + 1)))
            hf = hilbert_function(killed, bound)
            for j in range(bound + 1):
                assert table.dim(0, j) == hf[j]

    def test_full_sequence_vs_oracle_random(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 3)
            gens = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(3)]
            I = minimalize([g for g in gens if g.degree], n)
            if I.is_zero:
                continue
            top = I.max_gen_degree + n + 1
            table = koszul_strands(I, n, top)
            oracle = betti_oracle(I)
            strand_entries = {key: v for key, v in table.dims.items()}
            assert strand_entries == dict(oracle.entries)

    def test_euler_characteristic_of_suffix_strands(self):
        # sum_i (-1)^i dim H_i in degree j equals the alternating count of
        # chain basis elements: C(k, i) wedge factors times HF(j - i)
        rng = random.Random(11)
        for _ in range(12):
            n = rng.randint(2, 4)
            gens = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(3)]
            I = minimalize([g for g in gens if g.degree], n)
            bound = 5
            hf = hilbert_function(I, bound)
            for k in range(1, n):
                table = koszul_strands(I, k, bound)
                for j in range(bound + 1):
                    chain = sum((-1) ** i * comb(k, i) * hf[j - i] for i in range(min(k, j) + 1))
                    assert sum((-1) ** i * table.dim(i, j) for i in range(k + 1)) == chain

    def test_extension_is_monotone(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 3, 0))
        small = koszul_strands(I, 2, 3)
        large = koszul_strands(I, 2, 6)
        for (i, j), v in small.dims.items():
            assert large.dims[(i, j)] == v
        for (i, j), v in large.dims.items():
            if j <= 3:
                assert small.dims.get((i, j), 0) == v

    def test_truncated_flag(self):
        artinian = ideal(2, (2, 0), (1, 1), (0, 2))
        assert not koszul_strands(artinian, 2, 5).truncated
        assert koszul_strands(artinian, 2, 2).truncated
        positive_dim = ideal(2, (1, 1))
        assert koszul_strands(positive_dim, 1, 8).truncated

    def test_a_table_over_the_hilbert_budget(self, monkeypatch):
        # the strands need no Hilbert series; only the truncated flag, and a
        # dimension past the bound that reads it, refuse, and only when read
        _, summarized, _ = spy_on_the_walk(monkeypatch)
        table = koszul_strands(OVER_HILBERT, 1, 10)
        assert len(table.dims) == 21 and table.dim(0, 5) == 1
        assert table.dims == {(i, j): 1 for j in range(11) for i in (0, 1) if (i, j) != (1, 0)}
        assert summarized == []
        with pytest.raises(ValueError, match=OVER_HILBERT_REFUSAL):
            table.truncated
        assert summarized == [OVER_HILBERT]
        with pytest.raises(ValueError, match=OVER_HILBERT_REFUSAL):
            table.dim(0, 11)

    def test_the_truncated_flag_is_summarized_once_on_first_read(self, monkeypatch):
        _, summarized, _ = spy_on_the_walk(monkeypatch)
        artinian = ideal(2, (2, 0), (1, 1), (0, 2))
        table = koszul_strands(artinian, 2, 2)
        assert summarized == []
        assert table.truncated and summarized == [artinian]
        with pytest.raises(ValueError, match="beyond the computed bound 2"):
            table.dim(2, 3)
        assert table.truncated and summarized == [artinian]

    def test_bad_arguments(self):
        I = ideal(2, (1, 1))
        with pytest.raises(ValueError):
            koszul_strands(I, 0, 3)
        with pytest.raises(ValueError):
            koszul_strands(I, 3, 3)
        with pytest.raises(ValueError):
            koszul_strands(MonomialIdeal.unit(2), 1, 3)

    def test_cone_rule_matches_every_multidegree(self):
        # a suffix exponent that no generator has makes the strand a cone,
        # so skipping those multidegrees leaves every table as it was
        rng = random.Random(17)
        cases = [(MonomialIdeal.zero(n), k, bound) for n in (1, 3) for k in range(1, n + 1) for bound in (0, 4)]
        for _ in range(250):
            n = rng.randint(1, 5)
            gens = [Monomial(tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(rng.randint(1, 4))]
            I = minimalize([g for g in gens if g.degree], n)
            cases += [(I, k, rng.randint(0, 9)) for k in range(1, n + 1)]
        assert any(k < I.n for I, k, _ in cases)
        for I, k, bound in cases:
            assert koszul_strands(I, k, bound).dims == koszul_dims_by_enumeration(I, k, bound), (I, k, bound)

    @pytest.mark.parametrize("seed, k, bound, visited, total", [
        ((0, 2, 0, 3), 4, 12, 541, 1820),
        ((0, 1, 0, 2), 4, 7, 129, 330),
        ((0, 1, 0, 2), 2, 7, None, 330),
    ])
    def test_visits_only_multidegrees_off_the_cone_rule(self, monkeypatch, seed, k, bound, visited, total):
        I = strongly_stable_closure([Monomial(seed)], 4)
        seen = spy_on_strand(monkeypatch)
        koszul_strands(I, k, bound)
        everything = every_multidegree(4, bound)
        kept = off_the_cone(I, k, bound)
        assert seen == strand_inputs(I, kept, range(4 - k, 4)) and len(everything) == total
        assert visited is None or sum(seen.values()) == visited
        skipped = sorted(set(everything) - set(kept))
        assert strand_table_by_probes(I, skipped, range(4 - k, 4)) == {}

    def test_heads_at_field_edges(self, monkeypatch):
        # a head is coded by the rank of the largest generator exponent at or
        # below it; a mutant that rounds up instead (bisect_left) codes a head
        # off the generator exponents as a larger exponent, or past its field
        for I, k, bound in HEAD_EDGES:
            assert koszul_strands(I, k, bound).dims == koszul_dims_by_enumeration(I, k, bound), (I, k)
        monkeypatch.setattr(betti, "_code", lambda ranks, offsets, exponents: sum(
            (1 << bisect_left(r, e)) - 1 << o for r, o, e in zip(ranks, offsets, exponents)))
        wrong = [koszul_strands(I, k, bound).dims != koszul_dims_by_enumeration(I, k, bound)
                 for I, k, bound in HEAD_EDGES]
        assert wrong == [True, True, True, True, False]  # with no head, k = n has nothing to round

    def test_far_over_budget_is_refused_fast(self):
        # (x1x4) in 4 variables: x4 keeps the exponents 0 and 1, under every
        # head of x1, x2, x3, so C(203, 3) + 2 C(202, 3) cells
        start = time.perf_counter()
        with pytest.raises(OracleCapError, match="^at least 4080501 candidate cells .* budget 1048576$"):
            koszul_strands(ideal(4, (1, 0, 0, 1)), 1, 200)
        assert time.perf_counter() - start < 1.0
        # (x1^600, x2^600) walks 4 multidegrees, 9 cells, however high the bound
        I = ideal(2, (600, 0), (0, 600))
        assert koszul_strands(I, 2, 1201).dims == betti_oracle(I).entries

    @pytest.mark.parametrize("k, bound", [(1, 3), (2, 4), (3, 2)])
    def test_budget_is_the_exact_cell_count(self, monkeypatch, k, bound):
        # brute force: each multidegree off the cone rule has
        # 2^|supp a ∩ suffix| cells, and those are the ones the strand kernel gets
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        kept = off_the_cone(I, k, bound)
        cells = sum(2 ** sum(1 for v in range(3 - k, 3) if a[v]) for a in kept)
        seen = spy_on_strand(monkeypatch)
        expected = koszul_strands(I, k, bound)
        assert seen == strand_inputs(I, kept, range(3 - k, 3))
        seen.clear()
        monkeypatch.setattr(betti, "ORACLE_BUDGET", cells - 1)
        with pytest.raises(OracleCapError, match=f"^at least {cells} candidate cells"):
            koszul_strands(I, k, bound)
        assert not seen  # refused before any strand
        monkeypatch.setattr(betti, "ORACLE_BUDGET", cells)
        assert koszul_strands(I, k, bound) == expected

    def test_cone_bound_costs_no_walk(self):
        # (x1^5) has two multidegrees off the cone rule at any bound
        start = time.perf_counter()
        assert koszul_strands(ideal(1, (5,)), 1, 30000).dims == {(0, 0): 1, (1, 5): 1}
        assert time.perf_counter() - start < 1.0

    def test_one_cell_multidegrees_past_the_old_count(self):
        # (x2^3) in 2 variables, k = 1: S/(x2^3, x2) = k[x1] in every degree,
        # and x2^2 k[x1] as the annihilator of x2, from degree 3 on
        dims = koszul_strands(ideal(2, (0, 3)), 1, 10000).dims
        assert dims == {**{(0, j): 1 for j in range(10001)}, **{(1, j): 1 for j in range(3, 10001)}}

    def test_queues_flush_at_the_constant(self, monkeypatch):
        # 3 699 multidegrees of a mixed ideal in 5 variables on its last 3:
        # every queue is counted at FLUSH strands or fewer, 19 of the 20 at
        # exactly FLUSH, and the table is the one the strands gave when each
        # family was counted alone (its sha256 pinned then)
        I = ideal(5, (2, 0, 1, 0, 1), (0, 1, 2, 1, 0), (1, 1, 0, 0, 2), (0, 0, 1, 2, 1))
        seen = spy_on_strand(monkeypatch)
        lengths = []
        count = betti._Tally.count

        def spy(table, k, modulus):
            lengths.append(len(table.queues[k]) // 3)
            return count(table, k, modulus)

        monkeypatch.setattr(betti._Tally, "count", spy)
        dims = koszul_strands(I, 3, 18).dims
        assert sum(seen.values()) == 3699
        assert max(lengths) == betti.FLUSH and lengths.count(betti.FLUSH) > 5, lengths
        assert hashlib.sha256(repr(sorted(dims.items())).encode()).hexdigest() == (
            "3aff7e25596a2800345c212c496061735e8451d6e6b8753c360d077940c3041e")


class TestAlmostRegularSuffix:
    def test_borel_square_in_three_vars(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        assert almost_regular_suffix(I) == 3

    def test_quadric_blocks_immediately(self):
        assert almost_regular_suffix(ideal(2, (1, 1))) == 0

    def test_zero_ideal_fully_regular(self):
        assert almost_regular_suffix(MonomialIdeal.zero(4)) == 4

    def test_unit_ideal_is_refused(self):
        # the walk starts from the input's summary, and the zero ring has none
        with pytest.raises(ValueError, match="the unit ideal has no Hilbert summary"):
            almost_regular_suffix(MonomialIdeal.unit(3))

    def test_each_quotient_is_killed_and_summarized_once(self, monkeypatch):
        # each annihilator is read off the numerators of the two summaries the
        # walk holds, so no step kills or summarizes a quotient twice
        kills, summarized, numerators = spy_on_the_walk(monkeypatch)
        assert almost_regular_suffix(BOREL_6) == 6
        assert len(kills) == 6
        assert summarized == numerators == [BOREL_6, *kills]
        del kills[:], summarized[:], numerators[:]
        r = reduction_report(BOREL_6)
        assert r.all_hold and [s.annihilator_length for s in r.steps] == [1, 1, 2, 2]
        assert len(kills) == 4
        # the records and the Koszul strand tables read no Hilbert series, so
        # nothing is summarized twice
        assert summarized == numerators == [BOREL_6, *kills]

    def test_walk_takes_no_minimalize_call(self, monkeypatch):
        # each annihilator is read off the quotient the walk moves to, and a
        # kill keeps the survivors as they are, so no step re-minimalizes
        I = strongly_stable_closure([Monomial((0, 1, 1, 2, 3))], 5)
        calls = []
        real = monomials.minimalize
        monkeypatch.setattr(monomials, "minimalize", lambda *args: calls.append(args) or real(*args))
        hilbert._numerator.cache_clear()
        assert almost_regular_suffix(I) == 5
        assert not calls


class TestReductionReport:
    def test_borel_square(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        r = reduction_report(I)
        assert r.applicable
        assert r.max_shifts == (2, 3) and r.reduced_max_shifts == (2, 3)
        assert r.strand_max_1 == 2 and r.strand_max_2 == 3
        assert r.multiplicity == 3 and r.reduced_multiplicity == 3
        assert r.all_hold
        # one reduction step, killing x3 which is regular here
        assert len(r.steps) == 1
        step = r.steps[0]
        assert step.variable == 3 and step.annihilator_length == 0
        assert step.dim_law and step.mult_law

    def test_borel_non_cm_example(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0))
        r = reduction_report(I)
        assert r.applicable and r.all_hold
        assert r.multiplicity <= r.reduced_multiplicity

    def test_two_variables_trivial(self):
        I = ideal(2, (1, 0), (0, 1))
        r = reduction_report(I)
        assert r.applicable and r.steps == ()
        assert r.max_shifts == r.reduced_max_shifts
        assert r.all_hold

    def test_wrong_codimension_inapplicable(self):
        r = reduction_report(ideal(3, (1, 1, 0)))
        assert not r.applicable and "codimension" in r.reason

    def test_non_almost_regular_inapplicable(self):
        # triangle edge ideal: codimension 2, but the annihilator of x3
        # contains every power of x1, so the suffix is not almost regular
        I = ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
        assert summarize(I).codim == 2
        r = reduction_report(I)
        assert not r.applicable and "annihilator" in r.reason

    def test_over_cap_is_inapplicable(self, monkeypatch):
        # (x1^3, x2^3) fails the certificate and has 9 candidate cells
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 8)
        r = reduction_report(ideal(2, (3, 0), (0, 3)))
        assert not r.applicable and r.codim == 2
        assert r.reason.startswith("at least 9 candidate cells exceed the oracle budget 8")

    def test_the_input_table_refuses_before_the_reduction(self, monkeypatch):
        # the input and its reduction both fail the certificate and pass the
        # budget; the input's table is built first, so its refusal is the reason
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 2)
        I = ideal(4, (0, 1, 0, 1), (0, 1, 1, 0), (0, 2, 0, 0), (2, 0, 0, 0))
        reduced = I.kill_variables({3, 4})
        assert betti.betti_linear_quotients(I) is None and betti.betti_linear_quotients(reduced) is None
        with pytest.raises(OracleCapError, match="^at least 3 candidate cells exceed the oracle budget 2"):
            betti_oracle(reduced)
        oracle = []
        real = betti.betti_oracle
        monkeypatch.setattr(betti, "betti_oracle", lambda J: oracle.append(J) or real(J))
        r = reduction_report(I)
        assert not r.applicable and len(r.steps) == 2
        assert r.reason.startswith("at least 5 candidate cells exceed the oracle budget 2")
        # the reduction's record is built only once the input's has a table
        assert oracle == [I]

    def test_strand_refusal_is_the_strand_table_message(self):
        # the 11-generator staircase in 2 variables is its own reduction
        I = ideal(2, *[(10000 * (10 - i), 10000 * i) for i in range(11)])
        r = reduction_report(I)
        assert not r.applicable and r.codim == 2
        bound = len(summarize(I).reduced_numerator) + 2
        with pytest.raises(OracleCapError) as refused:
            koszul_strands(I, 1, bound)
        assert r.reason == str(refused.value)

    def test_json_round_trip_fields(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        payload = json.loads(json.dumps(reduction_report(I).to_json()))
        assert payload["applicable"] is True
        assert payload["max_shifts"] == [2, 3]
        assert payload["strand_max_2"] == payload["strand_max_1"] + 1
        assert payload["steps"][0]["variable"] == 3
        assert set(payload["steps"][0]) == {"variable", "dim_before", "dim_after", "mult_before", "mult_after",
                                            "annihilator_length", "dim_law", "mult_law"}
        assert payload["all_hold"] is True

    def test_strand_identity_on_borel_closures(self):
        rng = random.Random(7)
        found = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            seeds = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(2)]
            seeds = [s for s in seeds if s.degree]
            if not seeds:
                continue
            I = strongly_stable_closure(seeds, n)
            if len(I.gens) > 18 or summarize(I).codim != 2:
                continue
            r = reduction_report(I)
            if not r.applicable:
                continue
            assert r.all_hold, f"reduction laws failed on {I}"
            found += 1
        assert found >= 5


@pytest.mark.parametrize("build, message", [
    (lambda: koszul_strands(ideal(2, (1, 1)), 1, -1), "must be non-negative"),
    # S/(x1 x2) has dimension 1, so its strands never provably vanish
    (lambda: koszul_strands(ideal(2, (1, 1)), 2, 3).dim(1, 4), "beyond the computed bound 3"),
])
def test_rejects_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
