import random

import pytest

from multbound.hilbert import (
    annihilator_length,
    annihilator_series,
    finite_length_colon,
    hilbert_function,
    numerator,
    numerator_inclusion_exclusion,
    poly_div_one_minus_t,
    summarize,
)
from multbound.monomials import Monomial, MonomialIdeal, minimalize, monomials_of_degree


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

    def test_matches_inclusion_exclusion(self):
        rng = random.Random(2024)
        for _ in range(60):
            I = random_ideal(rng, rng.randint(1, 4))
            assert numerator(I) == numerator_inclusion_exclusion(I)

    def test_matches_standard_monomial_count(self):
        rng = random.Random(2025)
        for _ in range(20):
            n = rng.randint(1, 3)
            I = random_ideal(rng, n)
            hf = hilbert_function(I, 6)
            for d in range(7):
                count = sum(1 for m in monomials_of_degree(n, d) if not I.contains(m))
                assert hf[d] == count

    def test_cache_is_bounded(self):
        limit = numerator.cache_info().maxsize
        assert limit is not None
        n = limit.bit_length()
        for mask in range(1, limit + 2):  # one more distinct ideal than fits
            # the principal ideal of a squarefree monomial of degree k: 1 - t^k
            squarefree = [mask >> i & 1 for i in range(n)]
            k = sum(squarefree)
            assert numerator(ideal(n, squarefree)) == (1,) + (0,) * (k - 1) + (-1,)
        assert numerator.cache_info().currsize == limit


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

    def test_complete_intersection_multiplicity(self):
        # degrees multiply for a monomial regular sequence
        s = summarize(ideal(3, (1, 1, 0), (0, 0, 2)))
        assert (s.codim, s.multiplicity) == (2, 4)


class TestAlmostRegular:
    def test_finite_annihilator(self):
        I = ideal(2, (2, 0), (1, 1))
        assert finite_length_colon(I, 2)
        assert annihilator_length(I, 2) == 1
        assert annihilator_series(I, 2) == (0, 1)  # spanned by x1 in degree 1

    def test_infinite_annihilator(self):
        assert not finite_length_colon(ideal(2, (1, 1)), 2)
        assert annihilator_length(ideal(2, (1, 1)), 2) is None

    def test_regular_variable(self):
        I = MonomialIdeal.zero(2)
        assert finite_length_colon(I, 1)
        assert annihilator_length(I, 1) == 0

    def test_variable_inside_ideal(self):
        # the annihilator of x1 on S/(x1) is everything; finite iff Artinian
        assert not finite_length_colon(ideal(2, (1, 0)), 1)
        assert finite_length_colon(ideal(1, (1,)), 1)

    def test_quotient_laws_for_almost_regular_variables(self):
        # killing an almost regular variable drops the dimension by one
        # (when positive) and controls the multiplicity exactly
        rng = random.Random(19)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            I = random_ideal(rng, n)
            length = annihilator_length(I, n)
            if length is None:
                continue
            before = summarize(I)
            after = summarize(I.kill_variables({n}))
            if before.dim > 0:
                assert after.dim == before.dim - 1
            if before.dim > 1:
                assert after.multiplicity == before.multiplicity
            elif before.dim == 1:
                assert before.multiplicity == after.multiplicity - length
            checked += 1
        assert checked >= 20

    def test_agrees_with_direct_length_count(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 3)
            I = random_ideal(rng, n)
            i = rng.randint(1, n)
            series = annihilator_series(I, i)
            colon = I.colon_by_variable(i)
            # direct degreewise count of (I : x_i)/I up to a safe bound
            top = I.max_gen_degree + 4
            counts = []
            for d in range(top + 1):
                counts.append(
                    sum(
                        1
                        for m in monomials_of_degree(n, d)
                        if colon.contains(m) and not I.contains(m)
                    )
                )
            if series is None:
                assert counts[top] > 0 or counts[top - 1] > 0
            else:
                padded = list(series) + [0] * (top + 1 - len(series))
                assert padded[: top + 1] == counts
