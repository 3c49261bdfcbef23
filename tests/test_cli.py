import csv
import json
import os
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import multbound
from multbound import betti, campaign
from multbound.cli import main
from multbound.monomials import Monomial, ideal_to_json, squarefree_strongly_stable_closure


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def square_ideal(tmp_path):
    return write(tmp_path / "ideal.json", {"n": 2, "generators": [[2, 0], [1, 1], [0, 2]]})


class TestCheck:
    def test_passes(self, tmp_path, capsys):
        code = main(["check", square_ideal(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "c2: pass" in out and "weak: pass" in out and "hm: pass" in out
        assert "e=3" in out

    def test_betti_grid(self, tmp_path, capsys):
        code = main(["check", square_ideal(tmp_path), "--betti-grid"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total: 1 3 2" in out

    def test_check_selection(self, tmp_path, capsys):
        code = main(["check", square_ideal(tmp_path), "--checks", "cwl"])
        out = capsys.readouterr().out
        assert code == 0 and "cwl: pass" in out and "c2:" not in out

    def test_cwl_fail_violates_no_bound(self, tmp_path, capsys):
        # (x1^2, x2^2) is not componentwise linear, which bounds nothing: exit 0
        path = write(tmp_path / "powers.json", {"n": 2, "generators": [[2, 0], [0, 2]]})
        code = main(["check", path, "--checks", "c2,cwl"])
        out = capsys.readouterr().out
        assert code == 0 and "c2: pass" in out and "cwl: fail  [a truncation has excess regularity]" in out

    def test_c2_fail_exits_1(self, tmp_path, capsys, monkeypatch):
        # a table of (x1^2, x2^2) with maximal shifts 2 and 3: e * 2! = 8 > 6
        table = betti.BettiTable(betti.SUBJECT_QUOTIENT, 2, {(0, 0): 1, (1, 2): 2, (2, 3): 1})
        monkeypatch.setattr(betti, "betti_oracle", lambda ideal, modulus=None: table)
        path = write(tmp_path / "powers.json", {"n": 2, "generators": [[2, 0], [0, 2]]})
        code = main(["check", path, "--checks", "c2,cwl"])
        out = capsys.readouterr().out
        assert code == 1 and "c2: fail" in out and "cwl: pass" in out

    def test_bad_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_row_length_is_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "bad.json", {"n": 3, "generators": [[1, 0]]})
        assert main(["check", path]) == 2

    def test_unknown_check_is_exit_2(self, tmp_path, capsys):
        assert main(["check", square_ideal(tmp_path), "--checks", "bogus"]) == 2

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["check", "/nonexistent.json"]) == 2

    def test_high_degree_generator(self, tmp_path, capsys):
        # the Hilbert recursion depth follows distinct exponents, not degree
        path = write(tmp_path / "big.json", {"n": 2, "generators": [[600, 600]]})
        code = main(["check", path, "--checks", "c1"])
        out = capsys.readouterr().out
        assert code == 0 and "e=1200 codim=1" in out and "c1: pass" in out

    def test_dual_over_cap_is_inapplicable(self, tmp_path, capsys, monkeypatch):
        # (x1, x2)(x3, x4) is certified; its dual ideal (x1*x2, x3*x4) is
        # not, and has 25 candidate cells
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        rows = [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]
        path = write(tmp_path / "ideal.json", {"n": 4, "generators": rows})
        code = main(["check", path, "--checks", "dual"])
        out = capsys.readouterr().out
        assert code == 0 and "dual: inapplicable" in out

    def test_betti_grid_over_cap_prints_the_cap_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        path = write(tmp_path / "ci.json", {"n": 4, "generators": [[1, 1, 0, 0], [0, 0, 1, 1]]})
        code = main(["check", path, "--betti-grid"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c2: inapplicable" in out and "total:" not in out
        assert out.splitlines()[-1] == "at least 25 candidate cells exceed the oracle budget 24"


    def test_squarefree_closure_past_eighteen_generators(self, tmp_path, capsys):
        # 34 generators: every check runs, and only the Cohen-Macaulay
        # hypotheses of c1 and hm are not met
        closure = squarefree_strongly_stable_closure([Monomial((0, 0, 0, 1, 0, 1, 1))], 7)
        assert len(closure.gens) == 34
        path = write(tmp_path / "closure.json", ideal_to_json(closure))
        code = main(["check", path, "--checks", "c2,c1,hm,weak,hyp,cwl,dual"])
        out = capsys.readouterr().out
        assert code == 0 and "budget" not in out
        for name in ("c2", "weak", "hyp", "cwl", "dual"):
            assert f"{name}: pass" in out
        for name in ("c1", "hm"):
            assert f"{name}: inapplicable  [quotient is not Cohen-Macaulay]" in out

    def test_far_over_budget_is_refused_fast(self, tmp_path, capsys):
        # (x1...x12, x13...x24) fails the certificate: the colon of its second
        # generator is (x1...x12), not generated by variables; its lcm lattice
        # has about 2^24 candidate cells
        rows = [[1] * 12 + [0] * 12, [0] * 12 + [1] * 12]
        path = write(tmp_path / "ci.json", {"n": 24, "generators": rows})
        start = time.perf_counter()
        code = main(["check", path, "--betti-grid"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0 and elapsed < 1.0
        assert "c2: inapplicable" in out
        assert out.splitlines()[-1] == "at least 16785409 candidate cells exceed the oracle budget 1048576"

    def test_certified_past_the_budget_gets_full_verdicts(self, tmp_path, capsys, monkeypatch):
        # the edges of K_24: 276 generators and about 3^24 candidate cells,
        # but squarefree strongly stable, so certified with no oracle run
        def refuse(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(betti, "betti_oracle", refuse)
        rows = [[1 if k in e else 0 for k in range(24)] for e in combinations(range(24), 2)]
        path = write(tmp_path / "k24.json", {"n": 24, "generators": rows})
        start = time.perf_counter()
        code = main(["check", path, "--checks", "c2,c1,hm,weak,hyp,cwl,dual", "--betti-grid"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0 and elapsed < 2.0
        assert "e=24 codim=23 pdim=23 reg=1" in out and "tightness=1 " in out
        for name in ("c2", "c1", "hm", "weak", "hyp", "cwl", "dual"):
            assert f"{name}: pass" in out
        assert out.splitlines()[-1].split() == ["1:", "."] + [str(comb(24, i + 1) * i) for i in range(1, 24)]

    def test_cap_option_is_gone(self, tmp_path, capsys):
        assert main(["check", square_ideal(tmp_path), "--cap", "18"]) == 2


@pytest.mark.parametrize(
    "command, payload",
    [
        ("check", {"n": 2, "generators": [[True, 0]]}),  # exponent
        ("check", {"n": True, "generators": [[1]]}),
        ("dual", {"n": 2, "facets": [[True]]}),  # vertex
        ("dual", {"n": True, "facets": [[1]]}),
    ],
)
def test_json_booleans_are_exit_2(tmp_path, capsys, command, payload):
    assert main([command, write(tmp_path / "input.json", payload)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_lcm_degree_over_hilbert_budget_is_exit_2(tmp_path, capsys, command):
    path = write(tmp_path / "huge.json", {"n": 2, "generators": [[10**9, 0], [1, 1]]})
    assert main([command, path]) == 2
    assert "over the Hilbert budget 1048576" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("check", [[1, 0]], "ideal JSON must be an object"),
        ("dual", [[1, 2]], "complex JSON must be an object"),
        ("dual", {"n": 3, "facets": "12"}, "field 'facets' must be a list or null"),
    ],
)
def test_malformed_input_is_exit_2(tmp_path, capsys, command, payload, message):
    assert main([command, write(tmp_path / "input.json", payload)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "0", "n must be at least 1"),
        ("--max-deg", "0", "max degree must be at least 1"),
        ("--jobs", "0", "jobs must be at least 1"),
        ("--checks", ",", "empty check list"),
        ("--checks", "c2,c3", "unknown check 'c3'; choose from c2, c1, hm, weak, hyp, cwl, dual"),
        ("--a", "2,2,2", "a bound vector applies only to the a-stable family"),
    ],
)
def test_campaign_bad_options_are_exit_2(tmp_path, capsys, flag, value, message):
    args = {"--family": "stable", "--n": "3", "--max-deg": "3", "--count": "1", "--seed": "1",
            "--out": str(tmp_path / "x.csv"), flag: value}
    assert main(["campaign", *(part for item in args.items() for part in item)]) == 2
    assert message in capsys.readouterr().err


def test_zero_ideal_in_a_billion_variables(tmp_path):
    # a 35-byte input; nothing may allocate per variable.  The address-space
    # cap applies to the child only, so a list of 10^9 counters fails at
    # once instead of swapping
    resource = pytest.importorskip("resource")
    path = write(tmp_path / "zero.json", {"n": 10**9, "generators": []})
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 * 1024**3 if hard == resource.RLIM_INFINITY else min(2 * 1024**3, hard)
    env = {**os.environ, "PYTHONPATH": str(Path(multbound.__file__).parents[1])}
    outputs = []
    for command in (["check", path, "--betti-grid"], ["reduce", path]):
        done = subprocess.run(
            [sys.executable, "-m", "multbound", *command], capture_output=True, text=True,
            env=env, timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert "e=1 codim=0" in outputs[0]
    assert json.loads(outputs[1])["reason"] == "codimension is 0, not 2"


class TestDual:
    def test_two_edges(self, tmp_path, capsys):
        path = write(tmp_path / "complex.json", {"n": 3, "facets": [[1, 3], [2, 3]]})
        code = main(["dual", path])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.splitlines()[0]) == {"n": 3, "facets": [[3]]}
        assert "dual: pass" in out

    def test_dual_over_cap_is_inapplicable(self, tmp_path, capsys, monkeypatch):
        # two disjoint edges: the dual ideal (x1*x2, x3*x4) fails the
        # certificate and has 25 candidate cells
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 24)
        path = write(tmp_path / "complex.json", {"n": 4, "facets": [[1, 2], [3, 4]]})
        code = main(["dual", path])
        out = capsys.readouterr().out
        assert code == 0 and "dual: inapplicable" in out
        assert "at least 25 candidate cells exceed the oracle budget 24" in out

    def test_full_simplex_void_dual(self, tmp_path, capsys):
        path = write(tmp_path / "full.json", {"n": 2, "facets": [[1, 2]]})
        code = main(["dual", path])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.splitlines()[0]) == {"n": 2, "facets": None}
        assert "inapplicable" in out


class TestReduce:
    def test_borel_square(self, tmp_path, capsys):
        path = write(tmp_path / "ideal.json",
                     {"n": 3, "generators": [[2, 0, 0], [1, 1, 0], [0, 2, 0]]})
        code = main(["reduce", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["applicable"] and payload["all_hold"]

    def test_inapplicable_still_exit_0(self, tmp_path, capsys):
        path = write(tmp_path / "ideal.json", {"n": 3, "generators": [[1, 1, 0]]})
        code = main(["reduce", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and not payload["applicable"]

    def test_over_cap_is_inapplicable(self, tmp_path, capsys, monkeypatch):
        # (x1^3, x2^3) fails the certificate and has 9 candidate cells
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 8)
        path = write(tmp_path / "ci.json", {"n": 2, "generators": [[3, 0], [0, 3]]})
        code = main(["reduce", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and not payload["applicable"]
        assert "at least 9 candidate cells exceed the oracle budget 8" in payload["reason"]

    def test_over_budget_strands_are_refused_fast(self, tmp_path, capsys):
        # the staircase x1^(10000(10 - i)) x2^(10000 i), i = 0..10: its k = 1
        # table, to degree 110001, keeps 11 exponents of x2 under the heads of x1
        rows = [[10000 * (10 - i), 10000 * i] for i in range(11)]
        path = write(tmp_path / "staircase.json", {"n": 2, "generators": rows})
        start = time.perf_counter()
        code = main(["reduce", path])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and elapsed < 1.0
        assert not payload["applicable"]
        assert payload["reason"] == (
            "at least 1210042 candidate cells in the Koszul strand table exceed the oracle budget 1048576"
        )

    def test_strands_under_budget_are_computed(self, tmp_path, capsys):
        # (x1^150, x2^150): 606 and 9 candidate cells in the two strand tables
        path = write(tmp_path / "powers.json", {"n": 2, "generators": [[150, 0], [0, 150]]})
        code = main(["reduce", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["applicable"] and payload["all_hold"]
        assert payload["reduced_max_shifts"] == [150, 300]

    def test_pure_powers_count_only_the_walked_cells(self, tmp_path, capsys):
        # (x1^600, x2^600): the strand tables reach degree 1201, but walk
        # only x2^0 and x2^600 under x1, and 4 multidegrees in both variables
        path = write(tmp_path / "powers.json", {"n": 2, "generators": [[600, 0], [0, 600]]})
        code = main(["reduce", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["applicable"] and payload["all_hold"]
        assert (payload["strand_max_1"], payload["strand_max_2"]) == (1199, 1200)


class TestCampaign:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "campaign", "--family", "stable", "--n", "3", "--max-deg", "3",
            "--count", "4", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 5

    def test_a_stable_with_bounds(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "campaign", "--family", "a-stable", "--n", "3", "--max-deg", "3",
            "--count", "3", "--seed", "8", "--a", "2,2,2", "--out", str(out),
        ])
        assert code == 0

    def test_a_stable_with_a_fractional_bound_is_exit_2(self, tmp_path, capsys):
        code = main([
            "campaign", "--family", "a-stable", "--n", "3", "--max-deg", "3",
            "--count", "3", "--seed", "8", "--a", "2,3,1.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: bound entries must be integers >= 2 or INFINITY, got '1.5'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_zero_count_is_exit_2(self, tmp_path, capsys):
        code = main([
            "campaign", "--family", "stable", "--n", "3", "--max-deg", "3",
            "--count", "0", "--seed", "7", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, monkeypatch):
        evaluated = []
        monkeypatch.setattr(campaign, "evaluate_row", lambda cfg, i: evaluated.append(i))
        out = tmp_path / "missing" / "x.csv"
        code = main([
            "campaign", "--family", "stable", "--n", "3", "--max-deg", "3",
            "--count", "2", "--seed", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err
        assert evaluated == [] and not out.parent.exists()

    def test_random_monomial_respects_max_gens(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "campaign", "--family", "random-monomial", "--n", "4", "--max-deg", "3",
            "--count", "8", "--seed", "1", "--max-gens", "1", "--out", str(out),
        ])
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert code == 0 and len(rows) == 8
        assert {row["num_gens"] for row in rows} == {"1"}

    def test_cwl_fails_alone_exit_0(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "campaign", "--family", "random-monomial", "--n", "4", "--max-deg", "4",
            "--count", "30", "--seed", "1", "--checks", "c2,cwl", "--out", str(out),
        ])
        with open(out, newline="") as handle:
            verdicts = [row["verdicts"] for row in csv.DictReader(handle)]
        assert code == 0 and capsys.readouterr().out == f"wrote 30 rows to {out}\n"
        assert verdicts.count("c2=pass|cwl=fail") == 4 and "c2=fail" not in "".join(verdicts)

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["campaign", "--family", "stable"]) == 2
        assert main(["frobnicate"]) == 2
