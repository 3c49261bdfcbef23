"""Acceptance suite.

Each test exercises one exit criterion over its full seeded corpus with
exact (tolerance-free) comparisons and prints a PASS line on success.
"""

import random
from math import factorial, prod

from multbound.betti import (
    betti_hochster,
    betti_oracle,
    betti_stable_formula,
    invariants,
    is_componentwise_linear,
    regularity,
    stable_regularity,
    stats,
)
from multbound.bounds import (
    PASS,
    check_dual_identities,
    check_pure_multiplicity_formula,
    check_regularity_binomial_bound,
    check_two_sided_bound_cm,
    check_upper_bound_codim,
)
from multbound.campaign import (
    CampaignConfig,
    derive_seed,
    generate_complex,
    run_campaign,
)
from multbound.hilbert import numerator, summarize
from multbound.koszul import reduction_report
from multbound.monomials import Monomial, minimalize, strongly_stable_closure
from multbound.simplicial import polarize, stanley_reisner_ideal
from oracles import numerator_inclusion_exclusion


def test_criterion_01_closed_formula_vs_oracle(bounded_stable_corpus):
    for ideal, bounds in bounded_stable_corpus:
        formula = betti_stable_formula(ideal, bounds)
        oracle = betti_oracle(ideal).to_ideal()
        assert formula == oracle, f"closed formula disagrees with oracle on {ideal}"
    print(f"\nACCEPTANCE 1 closed formula vs oracle: PASS ({len(bounded_stable_corpus)} instances)")


def test_criterion_02_hochster_vs_oracle():
    count = 0
    for i in range(100):
        cfg = CampaignConfig("random-complex", n=2 + i % 5, max_degree=3, count=1,
                             master_seed=8000, max_gens=24)
        complex_ = generate_complex(cfg, i)
        ideal = stanley_reisner_ideal(complex_)
        assert betti_hochster(complex_) == betti_oracle(ideal)
        count += 1
    print(f"\nACCEPTANCE 2 Hochster vs oracle: PASS ({count} complexes)")


def test_criterion_03_upper_bound_everywhere(mixed_corpus):
    by_label = {}
    for record in mixed_corpus:
        result = check_upper_bound_codim(record["summary"], record["stats"])
        assert result.verdict == PASS, f"upper bound failed: {record['ideal']} [{result.detail}]"
        by_label[record["label"]] = by_label.get(record["label"], 0) + 1
    # the tight case: e equals the bound exactly
    square = minimalize([Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))], 2)
    summary = summarize(square)
    st = stats(betti_oracle(square))
    bound = prod(st.max_shifts[: summary.codim])
    assert summary.multiplicity == 3
    assert summary.multiplicity * factorial(summary.codim) == bound == 6
    counts = ", ".join(f"{k}={v}" for k, v in sorted(by_label.items()))
    print(f"\nACCEPTANCE 3 codimension upper bound: PASS ({counts}; tight case reproduced)")


def test_criterion_04_two_sided_bound_and_pure_formula():
    checked = pure_checked = 0
    for i in range(100):
        rng = random.Random(derive_seed(9000, i))
        n = rng.randint(2, 5)
        order = rng.sample(range(n), n)
        k = rng.randint(1, n)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        blocks = []
        prev = 0
        for cut in cuts + [n]:
            blocks.append(order[prev:cut])
            prev = cut
        equal_degree = rng.random() < 0.5
        degree = rng.randint(1, 4)
        gens = []
        for block in blocks:
            d = degree if equal_degree else rng.randint(1, 4)
            exponents = [0] * n
            for _ in range(d):
                exponents[rng.choice(block)] += 1
            gens.append(Monomial(tuple(exponents)))
        ideal = minimalize(gens, n)
        record_stats = stats(betti_oracle(ideal))
        summary = summarize(ideal)
        assert record_stats.pdim == summary.codim  # regular sequence is CM
        result = check_two_sided_bound_cm(summary, record_stats, cm=True)
        assert result.verdict == PASS, f"two-sided bound failed on {ideal}"
        hm = check_pure_multiplicity_formula(summary, record_stats, cm=True)
        assert hm.verdict != "fail", f"pure formula failed on {ideal}"
        pure_checked += hm.verdict == PASS
        checked += 1
    borel_cm = 0
    i = 0
    while borel_cm < 100 and i < 2000:
        rng = random.Random(derive_seed(9100, i))
        i += 1
        n = rng.randint(2, 4)
        seeds = [Monomial(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(2)]
        seeds = [s for s in seeds if s.degree]
        if not seeds:
            continue
        ideal = strongly_stable_closure(seeds, n)
        if not ideal.gens or len(ideal.gens) > 18:
            continue
        record_stats = stats(betti_oracle(ideal))
        summary = summarize(ideal)
        if record_stats.pdim != summary.codim:
            continue
        result = check_two_sided_bound_cm(summary, record_stats, cm=True)
        assert result.verdict == PASS, f"two-sided bound failed on Borel {ideal}"
        hm = check_pure_multiplicity_formula(summary, record_stats, cm=True)
        assert hm.verdict != "fail", f"pure formula failed on Borel {ideal}"
        pure_checked += hm.verdict == PASS
        borel_cm += 1
    assert borel_cm == 100, "could not collect 100 Cohen-Macaulay Borel instances"
    print(f"\nACCEPTANCE 4 two-sided CM bound: PASS (100 complete intersections, "
          f"{borel_cm} CM Borel; pure formula on {pure_checked} pure instances)")


def test_criterion_05_duality_identities(complex_corpus_n7):
    for complex_ in complex_corpus_n7:
        result = check_dual_identities(complex_)
        assert result.verdict == PASS, f"duality identities failed on {complex_} [{result.detail}]"
    print(f"\nACCEPTANCE 5 duality identities: PASS ({len(complex_corpus_n7)} complexes)")


def test_criterion_06_artinian_reduction(mixed_corpus):
    reduced = 0
    for record in mixed_corpus:
        if record["label"] != "borel-codim2":
            continue
        report = reduction_report(record["ideal"])
        assert report.applicable, f"reduction unexpectedly inapplicable on {record['ideal']}"
        assert report.checks["reduced_max_shift_1_le"], record["ideal"]
        assert report.checks["reduced_max_shift_2_le"], record["ideal"]
        assert report.checks["strand_identity"], record["ideal"]
        assert report.checks["multiplicity_le"], record["ideal"]
        assert report.checks["codim_preserved"], record["ideal"]
        for step in report.steps:
            assert step.dim_law is True, f"dimension law failed at {step} on {record['ideal']}"
            assert step.mult_law is True, f"multiplicity law failed at {step} on {record['ideal']}"
        reduced += 1
    assert reduced == 100
    print(f"\nACCEPTANCE 6 codimension-2 reduction: PASS ({reduced} Borel instances)")


def test_criterion_07_componentwise_linear_and_regularity(bounded_stable_corpus):
    checked = 0
    for ideal, bounds in bounded_stable_corpus[:100]:
        assert is_componentwise_linear(invariants(ideal)), f"not componentwise linear: {ideal}"
        closed = stable_regularity(ideal, bounds)
        assert closed == ideal.max_gen_degree
        assert closed == regularity(betti_oracle(ideal).to_ideal())
        checked += 1
    print(f"\nACCEPTANCE 7 componentwise linearity and regularity: PASS ({checked} instances)")


def test_criterion_08_regularity_binomial_bound(mixed_corpus):
    for record in mixed_corpus:
        result = check_regularity_binomial_bound(record["summary"], record["stats"])
        assert result.verdict == PASS, f"binomial bound failed: {record['ideal']} [{result.detail}]"
    print(f"\nACCEPTANCE 8 regularity binomial bound: PASS ({len(mixed_corpus)} instances)")


def test_criterion_09_hilbert_cross_checks(mixed_corpus):
    checked = 0
    for record in mixed_corpus:
        ideal = record["ideal"]
        pivot = numerator(ideal)
        assert pivot == numerator_inclusion_exclusion(ideal), f"numerator mismatch on {ideal}"
        top = max(j for (_, j) in record["table"].entries)
        coeffs = [0] * (top + 1)
        for (i, j), v in record["table"].entries.items():
            coeffs[j] += (-1) ** i * v
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        assert tuple(coeffs) == pivot, f"alternating sum mismatch on {ideal}"
        checked += 1
    assert checked == 1700
    print(f"\nACCEPTANCE 9 Hilbert numerator cross-checks: PASS ({checked} instances)")


def test_criterion_10_polarization_invariance():
    for i in range(50):
        rng = random.Random(derive_seed(9500, i))
        n = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 3)
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            gens.append(Monomial(tuple(e)))
        ideal = minimalize(gens, n)
        polarized, _ = polarize(ideal)
        assert betti_oracle(ideal).entries == betti_oracle(polarized).entries
        before, after = summarize(ideal), summarize(polarized)
        assert before.multiplicity == after.multiplicity
        assert before.codim == after.codim
    print("\nACCEPTANCE 10 polarization invariance: PASS (50 ideals)")


def test_criterion_11_campaign_determinism(tmp_path):
    runs = []
    base = dict(family="stable", n=4, max_degree=3, count=25, master_seed=424242,
                checks=("c2", "weak", "cwl"))
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        path = tmp_path / f"{name}.csv"
        code = run_campaign(CampaignConfig(**base, jobs=jobs), str(path))
        assert code == 0
        runs.append(path.read_bytes())
    assert runs[0] == runs[1] == runs[2]
    print("\nACCEPTANCE 11 campaign determinism: PASS (serial x2 and 2-way parallel byte-identical)")
