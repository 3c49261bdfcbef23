import random
from itertools import combinations

import pytest

from multbound import cli, monomials, simplicial
from multbound.betti import betti_hochster
from multbound.monomials import (
    Monomial,
    MonomialIdeal,
    minimalize,
    squarefree_strongly_stable_closure,
)
from multbound.simplicial import (
    SimplicialComplex,
    _minimal_hitting_sets,
    complex_from_json,
    complex_of_ideal,
    complex_to_json,
    facet_duality_generators,
    polarize,
    stanley_reisner_ideal,
)
from oracles import child_run, has_face, is_squarefree_strongly_stable


def cx(n, *facets):
    return SimplicialComplex.from_facets(n, [frozenset(f) for f in facets])


def ideal(n, *rows):
    return minimalize([Monomial(tuple(r)) for r in rows], n)


def random_complex(rng, n):
    facets = [
        frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        for _ in range(rng.randint(1, 2 * n))
    ]
    return SimplicialComplex.from_facets(n, facets)


def subset_enumeration_dual(complex_):
    """Oracle: keep F with complement not a face, scanning all 2^n subsets."""
    n = complex_.n
    kept = []
    everything = set(range(1, n + 1))
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            if not has_face(complex_, everything - set(combo)):
                kept.append(frozenset(combo))
    return SimplicialComplex.from_facets(n, kept) if kept else SimplicialComplex.void(n)


def subset_enumeration_nonfaces(complex_):
    """Oracle: scan all 2^n subsets for nonfaces whose subsets one vertex
    smaller are all faces."""
    n = complex_.n
    return tuple(
        frozenset(combo)
        for size in range(n + 1)
        for combo in combinations(range(1, n + 1), size)
        if not has_face(complex_, combo)
        and all(has_face(complex_, combo[:t] + combo[t + 1:]) for t in range(size))
    )


def complexes_up_to_8(rng):
    """For each n in 0..8: the void complex, {∅}, the full simplex and six
    random complexes whose facets may be empty."""
    for n in range(9):
        yield SimplicialComplex.void(n)
        yield SimplicialComplex.empty(n)
        yield SimplicialComplex.full(n)
        for _ in range(6):
            facets = [
                rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 2 * n + 1))
            ]
            yield SimplicialComplex.from_facets(n, facets)


class TestConstruction:
    def test_maximalization(self):
        d = cx(3, {1}, {1, 3}, {2, 3})
        assert d.facets == (frozenset({1, 3}), frozenset({2, 3}))

    def test_void_vs_empty(self):
        void = SimplicialComplex.void(3)
        empty = SimplicialComplex.empty(3)
        assert void.is_void and not empty.is_void
        assert empty.dim == -1
        with pytest.raises(ValueError):
            _ = void.dim

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            cx(2, {1, 3})


def maximal_then_validated(n, facets):
    """Oracle: the maximal faces, sorted, through the validating constructor."""
    sets = {frozenset(f) for f in facets}
    maximal = [f for f in sets if not any(f < g for g in sets)]
    return SimplicialComplex(n, tuple(sorted(maximal, key=lambda f: (len(f), sorted(f)))))


class TestFromFacets:
    """from_facets checks only the vertices; its maximality filter must leave
    exactly what the validating constructor accepts."""

    def test_complexes_up_to_8(self):
        for d in complexes_up_to_8(random.Random(2024)):
            assert SimplicialComplex.from_facets(d.n, d.facets) == maximal_then_validated(d.n, d.facets) == d

    def test_repeats_and_non_maximal_faces(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(0, 8)
            faces = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(0, 12))]
            # repeat some faces, and add subfaces of others
            faces += [rng.choice(faces) for _ in range(3)] if faces else []
            faces += [f[: rng.randint(0, len(f))] for f in faces[:4]]
            built = SimplicialComplex.from_facets(n, faces)
            assert built == maximal_then_validated(n, faces)
            assert SimplicialComplex(n, built.facets) == built

    @pytest.mark.parametrize("faces", [[[1, 2], [0]], [[1, 4]], [[1], [2, 3, 4]], [[4], [1, 4]], [[1.0, 2]], [["1"]]])
    def test_rejects_bad_vertices(self, faces):
        with pytest.raises(ValueError, match="not within vertex set 1..3"):
            SimplicialComplex.from_facets(3, faces)


def face_counts(complex_):
    """Number of faces of each size 0..dim+1, by scanning subsets."""
    return tuple(
        sum(1 for combo in combinations(range(1, complex_.n + 1), size) if has_face(complex_, combo))
        for size in range(complex_.dim + 2)
    )


def top_facet_count(complex_):
    return sum(1 for f in complex_.facets if len(f) == complex_.dim + 1)


class TestFaces:
    def test_f_vector_triangle_boundary(self):
        d = cx(3, {1, 2}, {1, 3}, {2, 3})
        assert face_counts(d) == (1, 3, 3)
        assert d.dim == 1
        assert top_facet_count(d) == 3

    def test_f_vector_two_edges(self):
        d = cx(3, {1, 3}, {2, 3})
        assert face_counts(d) == (1, 3, 2)
        assert d.dim == 1
        assert top_facet_count(d) == 2

    def test_top_face_count_nonpure(self):
        d = cx(4, {1, 2, 3}, {3, 4})
        assert d.dim == 2 and top_facet_count(d) == 1


class TestAlexanderDual:
    def test_two_edges(self):
        d = cx(3, {1, 3}, {2, 3})
        assert d.alexander_dual() == cx(3, {3})

    def test_path(self):
        d = cx(3, {1, 2}, {2, 3})
        assert d.alexander_dual() == cx(3, {2})

    def test_involution_examples(self):
        d = cx(3, {1, 3}, {2, 3})
        assert d.alexander_dual().alexander_dual() == d

    def test_full_simplex_dual_is_void(self):
        assert SimplicialComplex.full(3).alexander_dual().is_void
        assert SimplicialComplex.void(3).alexander_dual() == SimplicialComplex.full(3)

    def test_empty_complex_dual(self):
        d = SimplicialComplex.empty(3).alexander_dual()
        assert d == cx(3, {1, 2}, {1, 3}, {2, 3})

    def test_matches_subset_enumeration(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 6)
            d = random_complex(rng, n)
            assert d.alexander_dual() == subset_enumeration_dual(d)

    def test_involution_random(self):
        rng = random.Random(71)
        for _ in range(40):
            d = random_complex(rng, rng.randint(1, 6))
            assert d.alexander_dual().alexander_dual() == d


class TestStanleyReisner:
    def test_two_edges_ideal(self):
        assert stanley_reisner_ideal(cx(3, {1, 3}, {2, 3})) == ideal(3, (1, 1, 0))

    def test_full_simplex_zero_ideal(self):
        assert stanley_reisner_ideal(SimplicialComplex.full(3)).is_zero

    def test_void_unit_ideal(self):
        assert stanley_reisner_ideal(SimplicialComplex.void(2)).is_unit

    def test_empty_complex_maximal_ideal(self):
        assert stanley_reisner_ideal(SimplicialComplex.empty(3)) == ideal(
            3, (1, 0, 0), (0, 1, 0), (0, 0, 1)
        )

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(1, 7)
            d = random_complex(rng, n)
            assert complex_of_ideal(stanley_reisner_ideal(d)) == d

    def test_round_trip_from_ideal_side(self):
        rng = random.Random(78)
        for _ in range(40):
            n = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(1, 4)):
                supp = rng.sample(range(n), rng.randint(1, n))
                gens.append(Monomial(tuple(1 if i in supp else 0 for i in range(n))))
            ideal_ = minimalize(gens, n)
            d = complex_of_ideal(ideal_)
            # rebuilt from its facets, the complex dualizes afresh instead of
            # reading back the generator supports complex_of_ideal kept
            assert stanley_reisner_ideal(SimplicialComplex(d.n, d.facets)) == ideal_

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            complex_of_ideal(ideal(2, (2, 0)))

    def test_zero_ideal_full_simplex(self):
        assert complex_of_ideal(MonomialIdeal.zero(3)) == SimplicialComplex.full(3)


class TestStanleyReisnerInvariants:
    def test_dimension_and_multiplicity_match_complex(self):
        from multbound.hilbert import summarize

        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(2, 7)
            d = random_complex(rng, n)
            if d.is_full_simplex:
                continue
            summary = summarize(stanley_reisner_ideal(d))
            assert summary.dim == d.dim + 1
            assert summary.multiplicity == top_facet_count(d)


class TestDualizationAgainstSubsets:
    def test_minimal_nonfaces_ideal_and_dual(self):
        for d in complexes_up_to_8(random.Random(2024)):
            nonfaces = subset_enumeration_nonfaces(d)
            assert d.minimal_nonfaces() == nonfaces
            expected_ideal = minimalize(
                [Monomial(tuple(int(v in f) for v in range(1, d.n + 1))) for f in nonfaces], d.n
            )
            assert stanley_reisner_ideal(d) == expected_ideal
            assert complex_of_ideal(expected_ideal) == d
            assert d.alexander_dual() == subset_enumeration_dual(d)


def squarefree_corpus(rng):
    """For each n in 0..9 the zero and unit ideals, and for n >= 1 22 random
    squarefree ideals whose generators have 1 to 4 variables."""
    for n in range(10):
        yield MonomialIdeal.zero(n)
        yield MonomialIdeal.unit(n)
        for _ in range(22 if n else 0):
            supports = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 2 * n))]
            yield minimalize([Monomial(tuple(int(v in s) for v in range(n))) for s in supports], n)


class TestDualizationOutputsPassValidation:
    """complex_of_ideal, alexander_dual, stanley_reisner_ideal and the dual
    ideal of the dual check are built without validation, so the validating
    constructors must accept exactly what they build."""

    def check(self, d):
        sr = stanley_reisner_ideal(d)
        assert MonomialIdeal(d.n, sr.gens) == sr
        for built in (complex_of_ideal(sr), d.alexander_dual()):
            assert SimplicialComplex(built.n, built.facets) == built
            assert SimplicialComplex.from_facets(built.n, built.facets) == built
        if not (d.is_void or d.is_full_simplex):
            gens = facet_duality_generators(d)
            assert MonomialIdeal(d.n, gens) == minimalize(gens, d.n) == stanley_reisner_ideal(d.alexander_dual())

    def test_complexes_up_to_8(self):
        for d in complexes_up_to_8(random.Random(2024)):
            self.check(d)
            assert complex_of_ideal(stanley_reisner_ideal(d)) == d

    def test_squarefree_ideals(self):
        ideals = list(squarefree_corpus(random.Random(21)))
        assert len(ideals) >= 200
        assert sum(any(g.degree == 1 for g in I.gens) for I in ideals) >= 20
        for I in ideals:
            d = complex_of_ideal(I)
            assert stanley_reisner_ideal(SimplicialComplex(d.n, d.facets)) == I  # dualized afresh
            self.check(d)

    def test_kept_nonfaces_equal_a_fresh_dualization(self):
        # complex_of_ideal keeps the generator supports as the minimal
        # nonfaces, in the facet order a dualization returns them in, which
        # is not generator order; the zero ideal keeps (), the unit ideal (∅,)
        ideals = list(squarefree_corpus(random.Random(22)))
        reordered = 0
        for I in ideals:
            d = complex_of_ideal(I)
            kept = d.minimal_nonfaces()
            assert type(kept) is tuple and kept == SimplicialComplex(d.n, d.facets).minimal_nonfaces(), I
            reordered += list(kept) != [frozenset(g.support) for g in I.gens]
        assert complex_of_ideal(MonomialIdeal.zero(3)).minimal_nonfaces() == ()
        assert complex_of_ideal(MonomialIdeal.unit(3)).minimal_nonfaces() == (frozenset(),)
        assert reordered > 100, reordered

    def test_each_complex_dualizes_once(self, monkeypatch, tmp_path, capsys):
        # Hochster's formula on the complex of an ideal makes only the
        # dualization that builds the complex; a parsed complex dualizes
        # once for its Alexander dual and its Stanley-Reisner ideal, as
        # `multbound dual` asks for both
        calls = []
        dualize = simplicial._minimal_hitting_sets
        monkeypatch.setattr(simplicial, "_minimal_hitting_sets", lambda edges: calls.append(edges) or dualize(edges))
        checked = 0
        for I in squarefree_corpus(random.Random(23)):
            if I.is_unit:  # VOID: Hochster's formula rejects it
                continue
            calls.clear()
            betti_hochster(complex_of_ideal(I))
            assert calls == [[frozenset(g.support) for g in I.gens]], I
            checked += 1
        assert checked > 200
        d = complex_from_json({"n": 5, "facets": [[1, 2, 3], [3, 4], [4, 5], [1, 5], [2, 4]]})
        calls.clear()
        d.alexander_dual()
        stanley_reisner_ideal(d)
        assert len(calls) == 1
        path = tmp_path / "complex.json"
        path.write_text('{"n": 5, "facets": [[1, 2, 3], [3, 4], [4, 5], [1, 5], [2, 4]]}')
        calls.clear()
        cli.main(["dual", str(path)])
        assert len(calls) == 1, capsys.readouterr().out

    def test_sixteen_disjoint_edges(self):
        # 2^16 facets of size 16; a maximality or antichain rescan of them
        # (about 41 s already at 14 edges on a 2-core host) times out here
        done = child_run("from multbound.monomials import Monomial, minimalize\n"
                         "from multbound.simplicial import complex_of_ideal, facet_duality_generators\n"
                         "I = minimalize([Monomial(tuple(int(v // 2 == k) for v in range(32))) for k in range(16)], 32)\n"
                         "d = complex_of_ideal(I)\n"
                         "g = facet_duality_generators(d)\n"
                         "print(len(d.facets), *{len(f) for f in d.facets}, len(g), *{m.degree for m in g})",
                         timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["65536", "16", "65536", "16"]


class TestMinimalHittingSets:
    def test_against_subset_enumeration(self):
        # arbitrary edge lists: repeated, nested and empty edges included
        rng = random.Random(808)
        for _ in range(400):
            n = rng.randint(0, 8)
            edges = [
                frozenset(v for v in range(1, n + 1) if rng.random() < 0.4)
                for _ in range(rng.randint(0, 7))
            ]
            hitting = [
                frozenset(combo)
                for size in range(n + 1)
                for combo in combinations(range(1, n + 1), size)
                if all(e & set(combo) for e in edges)
            ]
            expected = [h for h in hitting if not any(g < h for g in hitting)]
            assert _minimal_hitting_sets(edges) == expected


class TestFacetDuality:
    def test_examples(self):
        d = cx(3, {1, 3}, {2, 3})
        gens = facet_duality_generators(d)
        assert set(gens) == {Monomial((1, 0, 0)), Monomial((0, 1, 0))}
        assert set(gens) == set(stanley_reisner_ideal(d.alexander_dual()).gens)

    def test_path_example(self):
        d = cx(3, {1, 2}, {2, 3})
        assert set(facet_duality_generators(d)) == {Monomial((0, 0, 1)), Monomial((1, 0, 0))}

    def test_full_simplex_rejected(self):
        with pytest.raises(ValueError):
            facet_duality_generators(SimplicialComplex.full(2))

    def test_cross_check_random(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 7)
            d = random_complex(rng, n)
            if d.is_full_simplex:
                continue
            assert set(facet_duality_generators(d)) == set(
                stanley_reisner_ideal(d.alexander_dual()).gens
            )


class TestSquarefreeStronglyStableDuality:
    def test_dual_preserves_strong_stability(self):
        rng = random.Random(55)
        found = 0
        for _ in range(40):
            n = rng.randint(2, 6)
            seeds = []
            for _ in range(rng.randint(1, 2)):
                supp = rng.sample(range(n), rng.randint(1, n - 1))
                seeds.append(Monomial(tuple(1 if i in supp else 0 for i in range(n))))
            ideal_ = squarefree_strongly_stable_closure(seeds, n)
            d = complex_of_ideal(ideal_)
            if d.is_full_simplex or d.is_void:
                continue
            dual_ideal = stanley_reisner_ideal(d.alexander_dual())
            assert is_squarefree_strongly_stable(dual_ideal)
            found += 1
        assert found >= 20


class TestPolarize:
    def test_pure_power(self):
        p, var_map = polarize(ideal(1, (2,)))
        assert p == ideal(2, (1, 1))
        assert var_map == {(1, 1): 1, (1, 2): 2}

    def test_two_generators(self):
        p, var_map = polarize(ideal(2, (2, 0), (1, 1)))
        # x1 gets two copies, x2 one: x1^2 -> y1 y2, x1 x2 -> y1 y3
        assert p == ideal(3, (1, 1, 0), (1, 0, 1))
        assert var_map == {(1, 1): 1, (1, 2): 2, (2, 1): 3}

    def test_squarefree_fixed_up_to_unused_variables(self):
        I = ideal(3, (1, 1, 0), (0, 1, 1))
        p, _ = polarize(I)
        assert p == I

    def test_drops_unused_variables(self):
        p, var_map = polarize(ideal(3, (0, 2, 0)))
        assert p == ideal(2, (1, 1))
        assert var_map == {(2, 1): 1, (2, 2): 2}

    def test_keeps_the_minimal_generators_without_minimalize(self, monkeypatch):
        # pol(g) divides pol(h) iff g divides h, so polarize only sorts; its
        # output still passes the validating constructor
        rng = random.Random(33)
        ideals = [ideal(n, *[tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))])
                  for n in (1, 2, 3, 4) for _ in range(25)] + [MonomialIdeal.zero(3), MonomialIdeal.unit(2)]
        calls = []
        spy = lambda gens, n: calls.append(n) or minimalize(gens, n)  # noqa: E731
        for module in (monomials, simplicial):  # every binding a caller could reach
            monkeypatch.setattr(module, "minimalize", spy, raising=False)
        polarized = [polarize(I)[0] for I in ideals]
        monkeypatch.undo()
        assert not calls
        for I, p in zip(ideals, polarized):
            assert p == MonomialIdeal(p.n, p.gens) and len(p.gens) == len(I.gens)


class TestJson:
    def test_round_trip(self):
        d = cx(3, {1, 3}, {2, 3})
        assert complex_from_json(complex_to_json(d)) == d

    def test_void_serializes_null(self):
        void = SimplicialComplex.void(4)
        payload = complex_to_json(void)
        assert payload == {"n": 4, "facets": None}
        assert complex_from_json(payload) == void

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            complex_from_json({"n": 2, "facets": [[1, 3]]})
        with pytest.raises(ValueError):
            complex_from_json({"n": 2, "facets": [[1, 1]]})


@pytest.mark.parametrize("build, message", [
    (lambda: SimplicialComplex(3, ([1, 2],)), "must be frozensets"),
    (lambda: SimplicialComplex(3, (frozenset({1, 2}), frozenset({3}))), "canonical order"),
    (lambda: SimplicialComplex(3, (frozenset({1}), frozenset({1, 2}))), "not an antichain"),
    (lambda: complex_from_json([[1, 2]]), "must be an object"),
    (lambda: complex_from_json({"n": 3, "facets": "12"}), "must be a list or null"),
])
def test_rejects_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
