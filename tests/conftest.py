"""Shared corpora for the acceptance suite.

Everything is generated from fixed master seeds so the suite is fully
reproducible; corpora are session-scoped because several criteria share
them.
"""

import random

import pytest

from multbound.betti import betti_oracle, stats
from multbound.campaign import (
    CampaignConfig,
    derive_seed,
    generate_complex,
    generate_ideal,
    random_bounded_monomial,
)
from multbound.hilbert import summarize
from multbound.monomials import INFINITY, BoundVector, stable_closure


def build_record(label, ideal):
    table = betti_oracle(ideal)
    return {
        "label": label,
        "ideal": ideal,
        "table": table,
        "stats": stats(table),
        "summary": summarize(ideal),
    }


def mixed_bounds(rng, n):
    return BoundVector(tuple(rng.choice([2, 3, 4, INFINITY]) for _ in range(n)))


def bounded_stable_instance(seed, n, max_degree, bounds, max_gens=18):
    """Closure of random bounded seeds, retried until it has at most
    max_gens generators."""
    rng = random.Random(seed)
    for _ in range(80):
        seeds = [
            random_bounded_monomial(rng, n, max_degree, bounds)
            for _ in range(rng.randint(1, 2))
        ]
        ideal = stable_closure(seeds, bounds)
        if ideal.gens and len(ideal.gens) <= max_gens:
            return ideal
    low = random_bounded_monomial(rng, n, 1, bounds)
    return stable_closure([low], bounds)


@pytest.fixture(scope="session")
def bounded_stable_corpus():
    """200 bounded-stable instances spanning unbounded, all-2, and mixed
    bound vectors; n up to 5, generator degrees up to 4."""
    corpus = []
    for i in range(200):
        n = 2 + i % 4
        kind = i % 3
        rng = random.Random(derive_seed(1001, i))
        if kind == 0:
            bounds = BoundVector.unbounded(n)
        elif kind == 1:
            bounds = BoundVector.uniform(n, 2)
        else:
            bounds = mixed_bounds(rng, n)
        ideal = bounded_stable_instance(derive_seed(1002, i), n, 4, bounds)
        corpus.append((ideal, bounds))
    return corpus


@pytest.fixture(scope="session")
def mixed_corpus():
    """The bound-check corpus: 1000 random monomial ideals, 200 stable,
    200 bounded-stable, 200 squarefree strongly stable, 100 Borel
    codimension-2 instances."""
    records = []
    for i in range(1000):
        cfg = CampaignConfig("random-monomial", n=2 + i % 4, max_degree=4, count=1,
                             master_seed=2000 + i % 7)
        records.append(build_record("random", generate_ideal(cfg, i)))
    for i in range(200):
        cfg = CampaignConfig("stable", n=2 + i % 4, max_degree=4, count=1, master_seed=3000)
        records.append(build_record("stable", generate_ideal(cfg, i)))
    for i in range(200):
        n = 2 + i % 4
        rng = random.Random(derive_seed(4000, i))
        bounds = mixed_bounds(rng, n)
        ideal = bounded_stable_instance(derive_seed(4001, i), n, 4, bounds)
        records.append(build_record("a-stable", ideal))
    for i in range(200):
        cfg = CampaignConfig("sqfree-strongly-stable", n=2 + i % 4, max_degree=4, count=1,
                             master_seed=5000)
        records.append(build_record("sqfree-strongly-stable", generate_ideal(cfg, i)))
    for i in range(100):
        cfg = CampaignConfig("borel-codim2", n=3 + i % 3, max_degree=4, count=1, master_seed=6000)
        records.append(build_record("borel-codim2", generate_ideal(cfg, i)))
    return records


@pytest.fixture(scope="session")
def complex_corpus_n7():
    """200 random proper complexes on up to 7 vertices."""
    out = []
    for i in range(200):
        cfg = CampaignConfig("random-complex", n=3 + i % 5, max_degree=3, count=1,
                             master_seed=7000, max_gens=40)
        out.append(generate_complex(cfg, i))
    return out
