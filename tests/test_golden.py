"""Golden outputs: the campaign CSV bytes, the ``check``, ``reduce`` and
``dual`` text, and the generators, Hilbert numerators and Betti tables of
three large stable closures must not change when the internals are
reorganised.

The digests were recorded once and are kept fixed; a change that alters
them on purpose must say so and record new ones.
"""

import contextlib
import hashlib
import io
import json

import pytest

from multbound.betti import betti_stable_formula
from multbound.bounds import CHECK_NAMES
from multbound.campaign import CampaignConfig, run_campaign
from multbound.cli import main
from multbound.hilbert import summarize
from multbound.monomials import (
    BoundVector,
    Monomial,
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

# the pentagon: Gorenstein, so c1 and hm apply; not componentwise linear,
# so cwl fails and the exit code is 1
CHECK_IDEAL = {"n": 5, "generators": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0],
                                      [0, 0, 0, 1, 1], [1, 0, 0, 0, 1]]}
CHECK_DIGEST = "1f104796311831479e137982fc21a01df5112f73cb29ea4e8487c6109255aeef"

# the strongly stable closure of x2^3 and x1*x2*x4^2: codimension 2, and the
# reduction kills x4 then x3 (two steps)
REDUCE_IDEAL = {"n": 4, "generators": [[0, 3, 0, 0], [1, 2, 0, 0], [2, 1, 0, 0], [3, 0, 0, 0],
                                       [1, 1, 0, 2], [1, 1, 1, 1], [1, 1, 2, 0], [2, 0, 0, 2],
                                       [2, 0, 1, 1], [2, 0, 2, 0]]}
PENTAGON = {"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
COMMAND_DIGESTS = {
    "reduce": (REDUCE_IDEAL, 0, "85169f871cd24012ec379dc4b3e5aa58419018c55aaabd8c4137da76d0311961"),
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
    assert code == 1
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
