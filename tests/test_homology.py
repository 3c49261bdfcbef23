import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multbound.homology import ExactMatrix, subset_homology
from multbound.simplicial import SimplicialComplex
from oracles import has_face, reduced_simplicial_homology, subset_homology_by_push


def dense(rows):
    """An ExactMatrix from a list of equal-length rows, zeros left unstored."""
    return ExactMatrix(
        len(rows),
        len(rows[0]) if rows else 0,
        {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v},
    )


def laplace_det(rows):
    """Independent determinant by Laplace expansion (memoized on the set of
    remaining columns)."""
    n = len(rows)
    if n == 0:
        return 1
    memo = {}

    def rec(r, colmask):
        if r == n:
            return 1
        if colmask not in memo:  # r is determined by the popcount of colmask
            total = 0
            sign = 1
            for c in range(n):
                if colmask >> c & 1:
                    if rows[r][c]:
                        total += sign * rows[r][c] * rec(r + 1, colmask ^ (1 << c))
                    sign = -sign
            memo[colmask] = total
        return memo[colmask]

    return rec(0, (1 << n) - 1)


def minor_ranks(rows, moduli=(None, 2, 3)):
    """{modulus: largest s with an s x s minor that is nonzero} by Laplace
    certificates, a minor counting as nonzero mod p for a prime modulus p
    and over Q for None.  Each minor is expanded once for all moduli."""
    ranks = dict.fromkeys(moduli, 0)
    if not rows:
        return ranks
    nr, nc = len(rows), len(rows[0])
    unsettled = set(moduli)
    for s in range(min(nr, nc), 0, -1):
        for ri in combinations(range(nr), s):
            for ci in combinations(range(nc), s):
                det = laplace_det([[rows[r][c] for c in ci] for r in ri])
                for p in list(unsettled):
                    if (det if p is None else det % p) != 0:
                        ranks[p] = s
                        unsettled.remove(p)
                if not unsettled:
                    return ranks
    return ranks


class TestRank:
    def test_empty(self):
        assert ExactMatrix(0, 0).rank() == 0
        assert ExactMatrix(3, 5).rank() == 0

    def test_identity(self):
        m = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m.rank() == 3

    @pytest.mark.parametrize("target_rank", [0, 1, 2, 3, 4, 5])
    def test_controlled_rank_vs_minor_oracle(self, target_rank):
        rng = random.Random(100 + target_rank)
        for _ in range(3):
            if target_rank == 0:
                rows = [[0] * 8 for _ in range(8)]
            else:
                left = [[rng.randint(-3, 3) for _ in range(target_rank)] for _ in range(8)]
                right = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(target_rank)]
                rows = [
                    [sum(left[r][k] * right[k][c] for k in range(target_rank)) for c in range(8)]
                    for r in range(8)
                ]
            m = dense(rows)
            ranks = minor_ranks(rows)
            assert m.rank() == ranks[None] <= target_rank
            for p in (2, 3):
                assert m.rank(modulus=p) == ranks[p]
        # boundary-shaped: sparse entries in {-1, 0, 1}, a zero column and an
        # all-zero row
        rows = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(9)] for _ in range(7)]
        zero_col = rng.randrange(9)
        for row in rows:
            row[zero_col] = 0
        rows[rng.randrange(7)] = [0] * 9
        m = dense(rows)
        for p, rank in minor_ranks(rows).items():
            assert m.rank(modulus=p) == rank

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(5)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
            transpose = [list(col) for col in zip(*rows)]
            assert dense(rows).rank() == dense(transpose).rank()

    def test_permutation_invariance(self):
        rng = random.Random(17)
        rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
        m = dense(rows)
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled = dense([rows[p] for p in perm])
        assert m.rank() == shuffled.rank()

    def test_big_entries_stay_exact(self):
        big = 10**30
        m = dense([[big, big], [big, big + 1]])
        assert m.rank() == 2

    def test_prime_field_mode(self):
        m = dense([[2, 4], [1, 2]])
        assert m.rank() == 1
        assert m.rank(modulus=5) == 1
        # rank can drop modulo a prime dividing a pivot
        m2 = dense([[5]])
        assert m2.rank() == 1 and m2.rank(modulus=5) == 0


class TestMatrixPlumbing:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExactMatrix(1, 1, {(1, 0): 2})

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            ExactMatrix(1, 1, {(0, 0): 0})

    def test_compose(self):
        a = dense([[1, 2], [0, 1]])
        b = dense([[1], [3]])
        assert a.compose(b).entries == {(0, 0): 7, (1, 0): 3}


class TestChainComplex:
    def test_rejects_nonzero_composition(self):
        # the triangle {0,1,2}, its edges {1,2} and {0,1}, and the vertices
        # 2 and 0: with the edge {0,2} and the vertex 1 outside the family,
        # d∘d of the triangle is ±{2} ± {0}, not zero
        with pytest.raises(ValueError, match="do not compose to zero"):
            subset_homology([0b111, 0b110, 0b011, 0b100, 0b001])

    def test_rejects_nonzero_composition_past_the_first_pair(self):
        # the empty face, the vertices 0, 1 and 2, the edges {0,1} and {1,2}
        # and the triangle: the first pair of boundaries composes to zero,
        # but the second skips the edge {0,2}, so d∘d of the triangle is
        # ±{2} ± {0}
        with pytest.raises(ValueError, match="do not compose to zero"):
            subset_homology([0, 0b001, 0b010, 0b100, 0b011, 0b110, 0b111])
        assert subset_homology([0, 0b001, 0b010, 0b100, 0b011, 0b110]) == {0: 0, 1: 0, 2: 0}

    def test_two_points(self):
        # reduced chain complex of two vertices: 0 -> K^2 -> K -> 0
        assert subset_homology({0, 1, 2}) == {0: 0, 1: 1}

    def test_hollow_triangle(self):
        d = reduced_simplicial_homology(
            SimplicialComplex.from_facets(3, [{1, 2}, {1, 3}, {2, 3}])
        )
        assert d == {-1: 0, 0: 0, 1: 1}


class TestReducedHomology:
    def test_empty_complex_convention(self):
        assert reduced_simplicial_homology(SimplicialComplex.empty(3)) == {-1: 1}

    def test_void_complex(self):
        assert reduced_simplicial_homology(SimplicialComplex.void(3)) == {}

    def test_full_simplex_acyclic(self):
        h = reduced_simplicial_homology(SimplicialComplex.full(3))
        assert all(v == 0 for v in h.values())

    def test_two_components(self):
        h = reduced_simplicial_homology(SimplicialComplex.from_facets(4, [{1, 2}, {3, 4}]))
        assert h[0] == 1 and h[-1] == 0

    def test_euler_characteristic(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 6)
            facets = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                for _ in range(rng.randint(1, 5))
            ]
            complex_ = SimplicialComplex.from_facets(n, facets)
            chain_euler = sum(
                (-1) ** (size - 1)
                for size in range(n + 1)
                for face in combinations(range(1, n + 1), size)
                if has_face(complex_, face)
            )
            h = reduced_simplicial_homology(complex_)
            homology_euler = sum((-1) ** k * v for k, v in h.items())
            assert chain_euler == homology_euler

    def test_permuting_boundary_basis_keeps_homology(self):
        # relabeling vertices permutes every chain basis
        complex_ = SimplicialComplex.from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
        relabeled = SimplicialComplex.from_facets(4, [{3, 4}, {4, 1}, {1, 2}, {2, 3}])
        assert reduced_simplicial_homology(complex_) == reduced_simplicial_homology(relabeled)


class TestSubsetHomology:
    def test_empty_family(self):
        assert subset_homology(set()) == {}

    @given(
        st.integers(1, 6).flatmap(
            lambda m: st.tuples(st.just(m), st.lists(st.sets(st.integers(0, m - 1)), max_size=6))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_up_closed_family_is_the_pair_simplex_complement(self, case):
        # an up-closed family U spans C(simplex)/C(K) for its complement K,
        # and the simplex is acyclic, so H_i(U) = reduced H_{i-2}(K)
        m, facets = case
        down = {
            sum(1 << v for v in face)
            for f in facets
            for r in range(len(f) + 1)
            for face in combinations(sorted(f), r)
        }
        up = set(range(1 << m)) - down
        complement = SimplicialComplex.from_facets(m, [{v + 1 for v in f} for f in facets])
        h = subset_homology(up)
        expected = reduced_simplicial_homology(complement)
        for i in range(m + 2):
            assert h.get(i, 0) == expected.get(i - 2, 0)

    @pytest.mark.parametrize("modulus", [None, 2])
    def test_composition_rule_matches_the_push(self, modulus):
        # random families of subsets of grounds of 0 to 6 elements: sparse
        # and dense ones, down-closed ones, convex ones (a down-closure less
        # another) and convex ones with one cell toggled.  The rule
        # P(F - t) ⊆ P(F) gives the dict that pushing each column through the
        # boundary below gives, or raises the same ValueError where the push
        # raises, also where the first two sizes compose to zero
        def down(seeds, cells):
            return {g for g in cells if any(g & s == g for s in seeds)}

        def outcome(build, family):
            try:
                return build(family, modulus)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(137)
        kinds = Counter()
        for _ in range(2500):
            k = rng.randint(0, 6)
            cells = range(1 << k)
            shape = rng.randrange(4)
            if shape == 0:
                family = set(rng.sample(cells, rng.randint(0, len(cells))))
            else:
                family = down(rng.choices(cells, k=rng.randint(1, 4)), cells)
                if shape > 1:
                    family -= down(rng.choices(cells, k=rng.randint(0, 3)), cells)
                if shape > 2:
                    family ^= {rng.choice(cells)}
            expected = outcome(subset_homology_by_push, family)
            assert outcome(subset_homology, family) == expected, (k, sorted(family))
            if isinstance(expected, str):
                low = outcome(subset_homology_by_push, [m for m in family if m.bit_count() <= 2])
                kinds["past the first pair" if isinstance(low, dict) else "raised"] += 1
            else:
                kinds["homology" if any(expected.values()) else "acyclic"] += 1
        assert min(kinds.values()) > 100, kinds
