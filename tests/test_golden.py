"""Golden outputs: the campaign CSV bytes, the ``check``, ``reduce`` and
``dual`` text, the generators, Hilbert numerators and Betti tables of
three large stable closures, and the Hochster Betti grids of a seeded
corpus of complexes and of RP^2 must not change when the internals are
reorganised.

The digests were recorded once and are kept fixed; a change that alters
them on purpose must say so and record new ones.
"""

import contextlib
import hashlib
import io
import json

import random

import pytest

from multbound.betti import betti_hochster, betti_stable_formula
from multbound.bounds import CHECK_NAMES
from multbound import campaign
from multbound.campaign import CampaignConfig, CampaignError, generate_complex, run_campaign
from multbound.cli import main
from multbound.hilbert import summarize
from multbound.simplicial import SimplicialComplex, complex_to_json
from multbound.monomials import (
    BoundVector,
    Monomial,
    minimalize,
    squarefree_strongly_stable_closure,
    stable_closure,
    strongly_stable_closure,
)

SEED = 31

CAMPAIGN_DIGESTS = {
    ("stable", 4, 4, None):
        "2a459dc51be236c75f1d8969008438b17134e7115490a473b2d1944b91a1aafd",
    ("a-stable", 4, 5, "2,3,4,inf"):
        "7b2da1726f2580d1ae12ecf97c412ef754890baa8304819fc7451c13cd91e22c",
    ("sqfree-strongly-stable", 6, 3, None):
        "63aa670fe75269d5d612844c25e259d6f4afe4567b9591c1c94051edef9f4fc6",
    ("random-monomial", 4, 5, None):
        "ddd0caec5cac4badbfe1bb6900bf022eaf50fa20c1bcd24b57b5c9f846599e8f",
    ("random-complex", 6, 3, None):
        "fb5fdb91a588d81806c50be530781901f57e4591a66be04089f962aba7330c0f",
    ("borel-codim2", 4, 4, None):
        "fd0f42478625758b93e36bb6557dabfa37c09efd9cdb48b83216a22fa5f57f11",
}

# jobs=1 campaigns whose draws reach a fallback: (family, n, max_degree,
# max_gens, master seed, count, bounds) -> digest.  Row 1 of the stable
# campaign, row 3 of the a-stable one and the only row of the squarefree one
# take the draw at degree cap 2 after 60 misses; the borel-codim2 row takes
# (x1, x2) after 400 misses.  random-complex has no such campaign: a draw of
# one facet already fits whenever the single vertex would (n - 1 <= max_gens),
# so 200 misses in a row are out of reach at any n that runs quickly.
FALLBACK_DIGESTS = {
    ("stable", 5, 7, 2, 1, 4, None):
        "760633c9085375933d820f8c84e2c54584c135f929210860b4fb09b85ce25a00",
    ("a-stable", 5, 4, 1, 1, 4, "2,3,4,5,inf"):
        "37dddfaddf50439745776af07ead6fddcc03a5e71a6483815b451f8cb5ddc4d8",
    ("sqfree-strongly-stable", 9, 5, 1, 25, 1, None):
        "2089a46b8a0ceb239acd5de49ac0a9a68c8f849450c907ebc0b01410f4a1bf4e",
    ("borel-codim2", 2, 300, 2, 1332, 1, None):
        "d1e86a863568102dc646087d9e40e4e9941fc9d4c91de3ff006c01c71cc2bba8",
}
# campaigns whose fallback does not fit either, and the exact error text;
# random-complex reaches its fallback only with every draw mocked over the limit
INSTANCE_ERROR = "could not draw an instance within max_gens generators"
COMPLEX_ERROR = "could not draw a complex within max_gens generators"
FALLBACK_ERRORS = {
    ("stable", 4, 8, 1, 4, 1, None): INSTANCE_ERROR,
    ("borel-codim2", 2, 2, 1, 1, 1, None): INSTANCE_ERROR,
}


def campaign_digest(tmp_path, shape, jobs=1):
    family, n, max_degree, max_gens, seed, count, bounds = shape
    cfg = CampaignConfig(family, n=n, max_degree=max_degree, count=count, master_seed=seed,
                         checks=CHECK_NAMES, bounds=bounds and BoundVector.from_text(bounds),
                         max_gens=max_gens, jobs=jobs)
    out = tmp_path / "rows.csv"
    run_campaign(cfg, str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("shape", sorted(FALLBACK_DIGESTS, key=str), ids=lambda s: s[0])
def test_fallback_campaign_bytes(tmp_path, shape):
    assert campaign_digest(tmp_path, shape) == FALLBACK_DIGESTS[shape]


def test_fallback_campaign_bytes_in_parallel(tmp_path):
    shape = ("stable", 5, 7, 2, 1, 4, None)
    assert campaign_digest(tmp_path, shape, jobs=2) == FALLBACK_DIGESTS[shape]


# 100-row campaigns of the strongly stable and squarefree strongly stable
# closure families at n = 10, max-deg 5, in the same shape as FALLBACK_DIGESTS;
# recorded when the closures still walked every Borel move
CLOSURE_CAMPAIGN_DIGESTS = {
    ("borel-codim2", 10, 5, 18, 1, 100, None):
        "94e3ae33b08f36ce98762603983b148dce1dafe1e779140d475292fa62cb0e8c",
    ("sqfree-strongly-stable", 10, 5, 18, 1, 100, None):
        "38ee9a2f81fe56f85971db5aa7009a625e632a9cc20a8d7e0f3bfc4629f7434e",
}


@pytest.mark.parametrize("shape", sorted(CLOSURE_CAMPAIGN_DIGESTS, key=str), ids=lambda s: s[0])
def test_closure_campaign_bytes(tmp_path, shape):
    assert campaign_digest(tmp_path, shape) == CLOSURE_CAMPAIGN_DIGESTS[shape]


# borel-codim2 campaigns in the same shape, recorded when each draw's
# codimension still came from the Hilbert series of its closure, not from
# its seeds: many variables, few, and a high degree cap in three
BOREL_CODIM2_DIGESTS = {
    ("borel-codim2", 12, 6, 18, 4, 100, None):
        "1b2dfeedb546009652de14adee92e3270a2d345f8d465b5bd6012267aea8c44d",
    ("borel-codim2", 5, 3, 18, 3, 300, None):
        "f3abc7f34296d1aebc2341b615ea2706023e558aa347536fea01bcd8b572879b",
    ("borel-codim2", 3, 5, 18, 5, 300, None):
        "7c9caedad484b804ed2655547d15697115bce0683c55e2b9f432cb8a8223368f",
}


@pytest.mark.parametrize("shape", sorted(BOREL_CODIM2_DIGESTS), ids=lambda s: f"n{s[1]}")
def test_borel_codim2_campaign_bytes(tmp_path, shape):
    assert campaign_digest(tmp_path, shape) == BOREL_CODIM2_DIGESTS[shape]


@pytest.mark.parametrize("shape", sorted(FALLBACK_ERRORS, key=str), ids=lambda s: s[0])
def test_fallback_error_text(tmp_path, shape):
    with pytest.raises(CampaignError) as caught:
        campaign_digest(tmp_path, shape)
    assert str(caught.value) == FALLBACK_ERRORS[shape]


# 32 rows at jobs=2 go to the workers in chunks of 2: every borel-codim2 row
# fails to draw, and only row 0 of the stable one does
@pytest.mark.parametrize("shape", [("borel-codim2", 2, 2, 1, 1, 32, None), ("stable", 4, 8, 1, 4, 32, None)],
                         ids=lambda s: s[0])
def test_fallback_error_text_in_parallel(tmp_path, shape):
    for jobs in (1, 2):
        with pytest.raises(CampaignError) as caught:
            campaign_digest(tmp_path, shape, jobs=jobs)
        assert str(caught.value) == INSTANCE_ERROR


def test_complex_fallback_error_text(monkeypatch):
    # every draw and the single vertex {1}, whose ideal is (x2, x3, x4), have 3 > 2 generators
    three = minimalize([Monomial(tuple(int(i == j) for j in range(4))) for i in range(1, 4)], 4)
    monkeypatch.setattr(campaign, "stanley_reisner_ideal", lambda complex_: three)
    cfg = CampaignConfig("random-complex", n=4, max_degree=3, count=1, master_seed=1, max_gens=2)
    with pytest.raises(CampaignError) as caught:
        generate_complex(cfg, 0)
    assert str(caught.value) == COMPLEX_ERROR


# every random-complex draw over n 1-8, seeds 1-3, max_gens 2, 5 and 18 and
# indices 0-9; the conftest complex corpus comes from generate_complex
COMPLEX_GRID_DIGEST = "f7d1002e9c22a57d1e843b50acb43c74d1597bee6a5832988102066e4c5d8a63"


def test_generated_complexes():
    drawn = [complex_to_json(generate_complex(CampaignConfig("random-complex", n=n, max_degree=3, count=10,
                                                             master_seed=seed, max_gens=max_gens), i))
             for n in range(1, 9) for seed in (1, 2, 3) for max_gens in (2, 5, 18) for i in range(10)]
    assert hashlib.sha256(json.dumps(drawn).encode()).hexdigest() == COMPLEX_GRID_DIGEST


# the pentagon: Gorenstein, so c1 and hm apply; not componentwise linear,
# so cwl fails, which violates no bound: the exit code is 0
CHECK_IDEAL = {"n": 5, "generators": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0],
                                      [0, 0, 0, 1, 1], [1, 0, 0, 0, 1]]}
CHECK_DIGEST = "1f104796311831479e137982fc21a01df5112f73cb29ea4e8487c6109255aeef"

# the strongly stable closure of x2^3 and x1*x2*x4^2: codimension 2, and the
# reduction kills x4 then x3 (two steps), each step named by its variable alone
REDUCE_IDEAL = {"n": 4, "generators": [[0, 3, 0, 0], [1, 2, 0, 0], [2, 1, 0, 0], [3, 0, 0, 0],
                                       [1, 1, 0, 2], [1, 1, 1, 1], [1, 1, 2, 0], [2, 0, 0, 2],
                                       [2, 0, 1, 1], [2, 0, 2, 0]]}
PENTAGON = {"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
COMMAND_DIGESTS = {
    "reduce": (REDUCE_IDEAL, 0, "29d1d6bbf75ce2ebf5738cd04ca4fa4dc751b8cb1b14a1b60b72daf1f5e5f5b0"),
    "dual": (PENTAGON, 0, "3ca887b89b3d7dc543c0f728743cdb32bde4f6db69810dded0423da8e1a8dc38"),
}


@pytest.mark.parametrize("shape", sorted(CAMPAIGN_DIGESTS, key=str), ids=lambda s: s[0])
def test_campaign_csv_bytes(tmp_path, shape):
    family, n, max_degree, bounds = shape
    cfg = CampaignConfig(
        family=family,
        n=n,
        max_degree=max_degree,
        count=9,
        master_seed=SEED,
        checks=CHECK_NAMES,
        bounds=BoundVector.from_text(bounds) if bounds else None,
    )
    out = tmp_path / "rows.csv"
    run_campaign(cfg, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CAMPAIGN_DIGESTS[shape]


def test_check_text(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(CHECK_IDEAL))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check", str(path), "--checks", ",".join(CHECK_NAMES), "--betti-grid"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CHECK_DIGEST


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_text(tmp_path, command):
    payload, expected_code, digest = COMMAND_DIGESTS[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, str(path)])
    assert code == expected_code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# the three large closure shapes of the benchmark's stable-large workload:
# (closure, seed, bounds, generator count)
CLOSURE_SHAPES = {
    "borel": (lambda s, b: strongly_stable_closure(s, b.n), (0, 1, 1, 2, 3), "inf,inf,inf,inf,inf", 261),
    "sqfree": (lambda s, b: squarefree_strongly_stable_closure(s, b.n), (0,) * 7 + (1,) * 4, "2," * 10 + "2", 330),
    "bounded": (stable_closure, (0, 0, 0, 0, 0, 8), "2,3,3,3,4,inf", 210),
}
CLOSURE_DIGESTS = {
    "borel": (
        "f659e49d72e3eaef0d4ad6d47e1939c035e29455b28407adc996fdf5abee9fd1",
        "d5fb80011a85d6696de32caf803c624c82a3ced13a798d27fd0a15b0d5f949ab",
        "6cfe85f61dc07e5ad039075042a8d18dcb9f054d39d9e337ded9ea6d31fa72d6",
    ),
    "sqfree": (
        "8ce5861c6391871a85cc2a193004635cf12c2ba8391f279525bc15b1fc84fbfd",
        "ddcd3ad567fe6c166ee215423d873b60eb174cdf9dfba56bacb42bac543f516c",
        "b374ecb9643f5e166c303a1b0f38de6b3a0b53c3cc5214edabe5525e34f1caff",
    ),
    "bounded": (
        "24d729cf95d4fe4cbc94252d7bc4d85e63cc6df34ee3f2cdae0ee62d7342b50f",
        "cf0cc7ea37b9ee015e2b463f5edc6f2614b663f03b55b4bb4babcc8c0fc0c61e",
        "f527b805a21ff6026ba20a0f84f58ed6880b7c897a606fee069275717cd944eb",
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def closure_digests(name: str) -> tuple[str, str, str]:
    close, seed, bounds_text, size = CLOSURE_SHAPES[name]
    b = BoundVector.from_text(bounds_text)
    ideal = close([Monomial(seed)], b)
    assert len(ideal.gens) == size
    return (
        _digest([list(g.exponents) for g in ideal.gens]),
        _digest(summarize(ideal).numerator),
        _digest(sorted(betti_stable_formula(ideal, b).entries.items())),
    )


@pytest.mark.parametrize("name", sorted(CLOSURE_SHAPES))
def test_closure_digests(name):
    assert closure_digests(name) == CLOSURE_DIGESTS[name]


# Hochster grids: 24 complexes on 1..7 vertices with faces of up to 3
# vertices, drawn from HOCHSTER_SEED, one digest of all their grids per
# characteristic; and the 6-vertex RP^2, whose F_2 table differs from the
# others
HOCHSTER_SEED = 8
HOCHSTER_CORPUS_DIGESTS = {
    None: "7038d25999c746c13a8e154643873077db5cd6c6f3d0846ace7ef99bc9282e52",
    2: "7038d25999c746c13a8e154643873077db5cd6c6f3d0846ace7ef99bc9282e52",
}
RP2_FACETS = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")
RP2_DIGESTS = {
    None: "0ed4db14f710026d5258b75b6e6d9cf330cbdecaad43a5ab63ea597fd8589015",
    2: "05f80cec81ef98d371f43a2eebb89e0800cc459381c2836157168f38fd401afa",
    3: "0ed4db14f710026d5258b75b6e6d9cf330cbdecaad43a5ab63ea597fd8589015",
}


def hochster_corpus() -> list[SimplicialComplex]:
    rng = random.Random(HOCHSTER_SEED)
    out = []
    for i in range(24):
        n = 1 + i % 7
        facets = [rng.sample(range(1, n + 1), rng.randint(0, min(n, 3))) for _ in range(rng.randint(1, 2 * n))]
        out.append(SimplicialComplex.from_facets(n, facets))
    return out


@pytest.mark.parametrize("modulus", sorted(HOCHSTER_CORPUS_DIGESTS, key=str))
def test_hochster_corpus_grids(modulus):
    grids = "\n\n".join(betti_hochster(c, modulus).format_grid() for c in hochster_corpus())
    assert hashlib.sha256(grids.encode()).hexdigest() == HOCHSTER_CORPUS_DIGESTS[modulus]


@pytest.mark.parametrize("modulus", sorted(RP2_DIGESTS, key=str))
def test_hochster_rp2_grid(modulus):
    rp2 = SimplicialComplex.from_facets(6, [[int(v) for v in f] for f in RP2_FACETS])
    grid = betti_hochster(rp2, modulus).format_grid()
    assert hashlib.sha256(grid.encode()).hexdigest() == RP2_DIGESTS[modulus]
