import concurrent.futures
import csv
import dataclasses
import sys

import pytest

from multbound import betti, bounds, campaign, monomials
from multbound.bounds import CHECK_NAMES
from multbound.campaign import (
    CampaignConfig,
    CampaignError,
    derive_seed,
    evaluate_row,
    generate_complex,
    generate_ideal,
    random_bounded_monomial,
    random_monomial,
    run_campaign,
)
from multbound.hilbert import summarize
from multbound.koszul import almost_regular_suffix
from multbound.monomials import (
    BoundVector,
    Monomial,
    MonomialIdeal,
    is_stable,
    minimalize,
    strongly_stable_closure,
)
import random

from oracles import child_run, is_squarefree_strongly_stable


class TestGenerators:
    def test_seed_derivation_is_stable(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_random_monomial_degree(self):
        rng = random.Random(0)
        for _ in range(50):
            d = rng.randint(1, 6)
            m = random_monomial(rng, 4, d)
            assert m.degree == d

    def test_stable_family(self):
        cfg = CampaignConfig("stable", n=4, max_degree=3, count=5, master_seed=9)
        for i in range(5):
            I = generate_ideal(cfg, i)
            assert is_stable(I, BoundVector.unbounded(4))
            assert 1 <= len(I.gens) <= cfg.max_gens

    def test_a_stable_family(self):
        bounds = BoundVector.from_text("2,3,inf,inf")
        cfg = CampaignConfig("a-stable", n=4, max_degree=3, count=5, master_seed=3, bounds=bounds)
        for i in range(5):
            assert is_stable(generate_ideal(cfg, i), bounds)

    def test_squarefree_family(self):
        cfg = CampaignConfig("sqfree-strongly-stable", n=5, max_degree=3, count=5, master_seed=4)
        for i in range(5):
            assert is_squarefree_strongly_stable(generate_ideal(cfg, i))

    def test_borel_codim2_family(self):
        cfg = CampaignConfig("borel-codim2", n=3, max_degree=3, count=5, master_seed=5)
        for i in range(5):
            I = generate_ideal(cfg, i)
            assert summarize(I).codim == 2
            assert almost_regular_suffix(I) >= I.n - 2

    def test_borel_codim2_draws_have_the_whole_almost_regular_suffix(self):
        # x_n, ..., x_1 is almost regular on every strongly stable ideal
        # (Borel-fixed ideals are in generic coordinates), so the draw does not test it
        for n in range(2, 7):
            for max_degree in range(1, 6):
                cfg = CampaignConfig("borel-codim2", n=n, max_degree=max_degree, count=40, master_seed=1)
                for i in range(40):
                    I = generate_ideal(cfg, i)
                    assert almost_regular_suffix(I) == I.n, (n, max_degree, i)
            for d in range(1, 7):
                fallback = minimalize([Monomial((a, d - a) + (0,) * (n - 2)) for a in range(d + 1)], n)
                assert almost_regular_suffix(fallback) == n, (n, d)

    def test_borel_codim2_fallback_respects_max_gens(self):
        # every draw falls back to a power of (x1, x2), which has at least 2
        # generators; (x1, x2)^4 has 5
        cfg = CampaignConfig("borel-codim2", n=4, max_degree=4, count=3, master_seed=1, max_gens=1)
        for i in range(3):
            with pytest.raises(CampaignError, match="within max_gens"):
                generate_ideal(cfg, i)

    def test_complex_fallback_respects_max_gens(self, monkeypatch):
        # with every draw over the limit, the fallback's (x2, x3, x4) is too
        variables = minimalize([Monomial((1, 0, 0, 0)), Monomial((0, 1, 0, 0)), Monomial((0, 0, 1, 0))], 4)
        monkeypatch.setattr(campaign, "stanley_reisner_ideal", lambda complex_: variables)
        cfg = CampaignConfig("random-complex", n=4, max_degree=3, count=1, master_seed=1, max_gens=2)
        with pytest.raises(CampaignError, match="within max_gens"):
            generate_complex(cfg, 0)

    @pytest.mark.parametrize("family", [f for f in campaign.FAMILIES if f != "random-complex"])
    def test_only_random_complex_generates_complexes(self, family):
        cfg = CampaignConfig(family, n=3, max_degree=2, count=1, master_seed=1)
        with pytest.raises(CampaignError, match=f"family {family!r} does not generate complexes"):
            generate_complex(cfg, 0)

    def test_complex_fallback_is_one_vertex(self, monkeypatch):
        # with every draw over the limit, the fallback's real (x2, x3, x4) fits
        real = campaign.stanley_reisner_ideal
        variables = minimalize([Monomial(tuple(int(i == j) for j in range(4))) for i in range(4)], 4)
        monkeypatch.setattr(campaign, "stanley_reisner_ideal",
                            lambda complex_: real(complex_) if complex_.facets == (frozenset({1}),) else variables)
        cfg = CampaignConfig("random-complex", n=4, max_degree=3, count=1, master_seed=1, max_gens=3)
        d = generate_complex(cfg, 0)
        assert d.facets == (frozenset({1}),)
        assert len(real(d).gens) == 3 <= cfg.max_gens

    @pytest.mark.parametrize("text, top", [("2,3,inf", 4), ("2,2,3", 4), ("2,2,2", 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_monomial_fill_fallback(self, monkeypatch, text, top, seed):
        # every draw misses x1 < 2, so the exponents are filled left to right;
        # the degree, drawn before the draws, is in 1..min(4, headroom)
        monkeypatch.setattr(campaign, "random_monomial", lambda rng, n, degree: Monomial((2,) * n))
        bounds = BoundVector.from_text(text)
        m = random_bounded_monomial(random.Random(seed), 3, 4, bounds)
        assert bounds.bounds_strictly(m)
        assert m.degree == random.Random(seed).randint(1, top)

    @pytest.mark.parametrize("family, closure, bounds", [
        ("stable", "stable_closure", None),
        ("a-stable", "stable_closure", BoundVector.from_text("2,3,inf,inf")),
        ("sqfree-strongly-stable", "squarefree_strongly_stable_closure", None),
    ])
    def test_closure_fallback_draws_at_degree_two(self, monkeypatch, family, closure, bounds):
        # the first 60 draws come back empty, so one more is drawn at degree <= 2
        real = getattr(campaign, closure)
        calls = []

        def empty_draws(*args):
            calls.append(args)
            return real(*args) if len(calls) > 60 else MonomialIdeal.zero(4)

        monkeypatch.setattr(campaign, closure, empty_draws)
        cfg = CampaignConfig(family, n=4, max_degree=4, count=1, master_seed=3, bounds=bounds)
        I = generate_ideal(cfg, 0)
        assert len(calls) == 61 and I == real(*calls[-1])
        assert all(seed.degree <= 2 for seed in calls[-1][0])
        assert 1 <= len(I.gens) <= cfg.max_gens
        if family == "sqfree-strongly-stable":
            assert is_squarefree_strongly_stable(I)
        else:
            assert is_stable(I, bounds or BoundVector.unbounded(4))

    def test_closure_fallback_respects_max_gens(self, monkeypatch):
        monkeypatch.setattr(campaign, "stable_closure", lambda seeds, bounds, *limit: MonomialIdeal.zero(4))
        cfg = CampaignConfig("stable", n=4, max_degree=3, count=1, master_seed=2)
        with pytest.raises(CampaignError, match="within max_gens"):
            generate_ideal(cfg, 0)

    def test_borel_codim2_fallback_is_a_power_of_the_first_two_variables(self, monkeypatch):
        # the seed test refuses all 400 draws before any closure runs, so the
        # fallback x2^d, whose closure is (x1, x2)^d, is the one draw closed
        real_codim, real_closure = campaign._seed_codim, campaign.strongly_stable_closure
        tested, closed = [], []

        def refused_draws(seeds):
            tested.append(seeds)
            return real_codim(seeds) if len(tested) > 400 else 1

        monkeypatch.setattr(campaign, "_seed_codim", refused_draws)
        monkeypatch.setattr(campaign, "strongly_stable_closure",
                            lambda seeds, n, *limit: closed.append(seeds) or real_closure(seeds, n, *limit))
        cfg = CampaignConfig("borel-codim2", n=4, max_degree=3, count=1, master_seed=1, max_gens=4)
        I = generate_ideal(cfg, 0)
        d = I.max_gen_degree
        assert len(tested) == 401 and 1 <= d <= 3
        assert closed == tested[-1:] == [[Monomial((0, d, 0, 0))]]
        assert I == minimalize([Monomial((a, d - a, 0, 0)) for a in range(d + 1)], 4)
        assert summarize(I).codim == 2 and almost_regular_suffix(I) >= I.n - 2
        assert len(I.gens) <= cfg.max_gens

    def test_rejected_closure_draws_stop_past_max_gens(self, monkeypatch):
        # a draw is closed only when the seed test gives codimension 2; every
        # closure generator found is kept once and its moves pushed once, so
        # counting the moves counts the kept monomials of each closure
        real, codim, tested, draws = campaign.strongly_stable_closure, campaign._seed_codim, [], []
        moves = monomials._strong_steps

        def counted_moves(e):
            draws[-1][2] += 1
            return moves(e)

        def closure(seeds, n, *limit):
            draws.append([seeds, limit, 0, None])
            draws[-1][3] = real(seeds, n, *limit)
            return draws[-1][3]

        monkeypatch.setattr(monomials, "_strong_steps", counted_moves)
        monkeypatch.setattr(campaign, "strongly_stable_closure", closure)
        monkeypatch.setattr(campaign, "_seed_codim", lambda seeds: tested.append(seeds) or codim(seeds))
        cfg = CampaignConfig("borel-codim2", n=10, max_degree=5, count=8, master_seed=1)
        rejected_rows = 0
        for index in range(cfg.count):
            tested.clear()
            draws.clear()
            generate_ideal(cfg, index)
            assert [seeds for seeds, _, _, _ in draws] == [seeds for seeds in tested if codim(seeds) == 2]
            assert all(limit == (cfg.max_gens,) for _, limit, _, _ in draws)
            rejected = [(seeds, kept) for seeds, _, kept, ideal in draws if ideal is None]
            rejected_rows += bool(rejected)
            for seeds, kept in rejected:
                assert kept == cfg.max_gens + 1
                assert len(real(seeds, cfg.n).gens) > cfg.max_gens
        assert rejected_rows >= cfg.count // 2  # at this shape most rows close a draw past max_gens

    def test_seed_codim_is_the_codimension_of_the_closure(self):
        # the largest first variable of the seeds, against the Hilbert series of their closure
        rng = random.Random(44)
        for _ in range(400):
            n = rng.randint(2, 7)
            seeds = [random_monomial(rng, n, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
            assert campaign._seed_codim(seeds) == summarize(strongly_stable_closure(seeds, n)).codim, seeds

    def test_complex_rows_compute_each_ideal_once(self, monkeypatch, tmp_path):
        # 5 vertices have at most 10 minimal nonfaces, so every first draw fits
        real, calls = campaign.stanley_reisner_ideal, []
        monkeypatch.setattr(campaign, "stanley_reisner_ideal", lambda complex_: calls.append(complex_) or real(complex_))
        cfg = CampaignConfig("random-complex", n=5, max_degree=3, count=12, master_seed=1, max_gens=10)
        run_campaign(cfg, str(tmp_path / "rows.csv"))
        assert len(calls) == cfg.count

    def test_complex_family_proper(self):
        cfg = CampaignConfig("random-complex", n=5, max_degree=3, count=8, master_seed=6)
        for i in range(8):
            d = generate_complex(cfg, i)
            assert not d.is_void and not d.is_full_simplex

    def test_generation_is_deterministic(self):
        cfg = CampaignConfig("stable", n=3, max_degree=3, count=1, master_seed=11)
        assert generate_ideal(cfg, 0) == generate_ideal(cfg, 0)


class TestConfigValidation:
    def test_zero_count_rejected(self):
        with pytest.raises(CampaignError):
            CampaignConfig("stable", n=3, max_degree=3, count=0, master_seed=1)

    def test_unknown_family(self):
        with pytest.raises(CampaignError):
            CampaignConfig("nope", n=3, max_degree=3, count=1, master_seed=1)

    def test_unknown_check(self):
        with pytest.raises(CampaignError) as caught:
            CampaignConfig("stable", n=3, max_degree=3, count=1, master_seed=1, checks=("c3",))
        assert str(caught.value) == "unknown check 'c3'; choose from c2, c1, hm, weak, hyp, cwl, dual"

    def test_max_gens_below_one_rejected(self):
        with pytest.raises(CampaignError, match="max gens must be at least 1"):
            CampaignConfig("random-complex", n=4, max_degree=3, count=1, master_seed=1, max_gens=0)

    @pytest.mark.parametrize("field, message", [
        ("n", "n must be at least 1"),
        ("max_degree", "max degree must be at least 1"),
        ("jobs", "jobs must be at least 1"),
    ])
    def test_sizes_below_one_rejected(self, field, message):
        with pytest.raises(CampaignError, match=message):
            CampaignConfig("stable", **{"n": 3, "max_degree": 3, "jobs": 1, field: 0},
                           count=1, master_seed=1)

    @pytest.mark.parametrize("family", [f for f in campaign.FAMILIES if f != "a-stable"])
    def test_bounds_only_for_a_stable(self, family):
        with pytest.raises(CampaignError, match="applies only to the a-stable family"):
            CampaignConfig(family, n=3, max_degree=2, count=1, master_seed=1,
                           bounds=BoundVector.from_text("2,3,inf"))

    def test_bound_length_checked(self):
        with pytest.raises(CampaignError):
            CampaignConfig(
                "a-stable", n=3, max_degree=2, count=1, master_seed=1,
                bounds=BoundVector.from_text("2,2"),
            )


class TestRunCampaign:
    def test_csv_layout_and_exit_code(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = CampaignConfig("random-monomial", n=3, max_degree=3, count=6, master_seed=20,
                             checks=("c2", "weak"))
        assert run_campaign(cfg, str(out)) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "instance_seed", "n", "num_gens", "max_deg", "e", "codim", "pdim", "reg",
            "M_vector", "bound_num", "bound_den", "tightness_num", "tightness_den", "verdicts",
        ]
        assert len(rows) == 7
        for row in rows[1:]:
            assert row[1] == "3"
            assert row[13] == "c2=pass|weak=pass"

    @pytest.mark.parametrize("verdicts, code", [(("fail", "pass"), 1), (("pass", "fail"), 0)],
                             ids=["c2-fail", "cwl-fail"])
    def test_exit_code_counts_bound_fails_only(self, tmp_path, monkeypatch, verdicts, code):
        # the campaign reads its rows' verdict text by the rule of BoundReport.any_fail: a cwl fail bounds nothing
        real, reports = campaign.evaluate_ideal, []

        def forced(ideal, checks):
            results = {name: bounds.CheckResult(name, v) for name, v in zip(checks, verdicts)}
            reports.append(dataclasses.replace(real(ideal, checks), results=results))
            return reports[-1]

        monkeypatch.setattr(campaign, "evaluate_ideal", forced)
        cfg = CampaignConfig("stable", n=3, max_degree=3, count=3, master_seed=1, checks=("c2", "cwl"))
        assert run_campaign(cfg, str(tmp_path / "rows.csv")) == code
        assert reports and all(report.any_fail == bool(code) for report in reports)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = CampaignConfig("stable", n=3, max_degree=3, count=5, master_seed=33,
                             checks=("c2", "weak", "cwl"))
        run_campaign(cfg, str(a))
        run_campaign(cfg, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        base = dict(family="random-monomial", n=3, max_degree=3, count=8, master_seed=44,
                    checks=("c2", "weak"))
        run_campaign(CampaignConfig(**base, jobs=1), str(serial))
        run_campaign(CampaignConfig(**base, jobs=2), str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_dual_check_on_complexes(self, tmp_path):
        out = tmp_path / "dual.csv"
        cfg = CampaignConfig("random-complex", n=5, max_degree=3, count=6, master_seed=50,
                             checks=("dual", "c2"))
        assert run_campaign(cfg, str(out)) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            assert "dual=pass" in row[13]

    def test_dual_over_cap_completes(self, tmp_path):
        # instance 9 has 15 generators and an Alexander dual with 20, whose
        # lcm lattice has 43 elements and 657 candidate cells
        out = tmp_path / "dual.csv"
        cfg = CampaignConfig("sqfree-strongly-stable", n=6, max_degree=4, count=10, master_seed=1,
                             checks=("dual",))
        assert run_campaign(cfg, str(out)) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 11
        assert rows[-1][13] == "dual=pass"

    def test_dual_over_budget_completes(self, tmp_path, monkeypatch):
        # instance 8's primal ideal is certified, and its dual fails the
        # certificate with 169 candidate cells: a budget of 168 refuses
        # that dual, and the default budget admits it
        out = tmp_path / "dual.csv"
        cfg = CampaignConfig("random-complex", n=6, max_degree=3, count=9, master_seed=4,
                             checks=("dual",))
        assert run_campaign(cfg, str(out)) == 0
        with open(out) as handle:
            assert list(csv.reader(handle))[-1][13] == "dual=pass"
        monkeypatch.setattr(betti, "ORACLE_BUDGET", 168)
        assert run_campaign(cfg, str(out)) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 10
        assert rows[-1][13] == "dual=inapplicable"

    @pytest.mark.parametrize("family, n, max_degree, bounds", [
        ("stable", 6, 6, None),
        ("a-stable", 6, 8, "2,3,4,5,inf,inf"),
        ("sqfree-strongly-stable", 10, 6, None),
    ])
    def test_closures_past_the_default_max_gens(self, tmp_path, monkeypatch, family, n, max_degree, bounds):
        # with max_gens = 150, eight or nine of the 20 closures have 20 to
        # 125 generators; the certificate gives every table, with no oracle run
        def refuse(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(betti, "betti_oracle", refuse)
        out = tmp_path / "large.csv"
        cfg = CampaignConfig(family, n=n, max_degree=max_degree, count=20, master_seed=1,
                             checks=CHECK_NAMES, bounds=bounds and BoundVector.from_text(bounds),
                             max_gens=150)
        assert run_campaign(cfg, str(out)) == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 20 and sum(int(row[2]) > 18 for row in rows) >= 8
        for row in rows:
            verdicts = dict(v.split("=") for v in row[13].split("|"))
            assert list(verdicts) == list(CHECK_NAMES) and "fail" not in verdicts.values()
            assert all(verdicts[name] == "pass" for name in ("c2", "weak", "hyp", "cwl"))
            assert 0 < int(row[11]) <= int(row[12])  # tightness e * c! / prod M_i in (0, 1]

    def test_workers_clamped(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = CampaignConfig("random-monomial", n=3, max_degree=3, count=2, master_seed=44,
                             checks=("c2",), jobs=8)
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: 16)
        run_campaign(cfg, str(tmp_path / "a.csv"))
        assert pools == [2]  # the row count
        for cores in (1, None):  # one core, or a count the platform cannot tell
            monkeypatch.setattr(campaign.os, "cpu_count", lambda: cores)
            run_campaign(cfg, str(tmp_path / "b.csv"))
        assert pools == [2]  # both runs took the serial path
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rows_go_to_workers_in_chunks(self, tmp_path, monkeypatch):
        # about eight chunks per worker, and at least one row in each
        chunks = []

        class ChunkPool:
            def __init__(self, max_workers):
                self.workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                chunks.append((self.workers, chunksize))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ChunkPool)
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
        for count in (3, 40):
            cfg = CampaignConfig("random-monomial", n=3, max_degree=2, count=count, master_seed=44,
                                 checks=("c2",), jobs=2)
            run_campaign(cfg, str(tmp_path / "rows.csv"))
        assert chunks == [(2, 1), (2, 2)]

    def test_rows_are_not_hashed(self, tmp_path, monkeypatch):
        # a row's CSV columns hold no ideal hash, so the campaign computes none
        calls = []
        real = bounds.ideal_hash
        for name, module in list(sys.modules.items()):
            if name.startswith("multbound") and getattr(module, "ideal_hash", None) is real:
                monkeypatch.setattr(module, "ideal_hash", lambda ideal: calls.append(ideal) or real(ideal))
        cfg = CampaignConfig("stable", n=4, max_degree=3, count=20, master_seed=1, checks=CHECK_NAMES)
        run_campaign(cfg, str(tmp_path / "rows.csv"))
        assert calls == []

    def test_each_distinct_ideal_is_evaluated_once(self, tmp_path, monkeypatch):
        # stable draws repeat ideals; every repeat renders from its first report
        cfg = CampaignConfig("stable", n=7, max_degree=4, count=60, master_seed=1, checks=CHECK_NAMES)
        distinct = {generate_ideal(cfg, i) for i in range(cfg.count)}
        assert 3 * len(distinct) <= 2 * cfg.count  # a third of the rows or more are repeats
        calls = []
        real = bounds.evaluate_ideal
        for name, module in list(sys.modules.items()):
            if name.startswith("multbound") and getattr(module, "evaluate_ideal", None) is real:
                monkeypatch.setattr(module, "evaluate_ideal",
                                    lambda ideal, checks: calls.append(ideal) or real(ideal, checks))
        run_campaign(cfg, str(tmp_path / "memo.csv"))
        assert len(calls) == len(distinct) and set(calls) == distinct
        assert campaign._reports is None  # nothing outlives the call
        # a memo capped at two reports evaluates the other repeats again, to the same bytes
        monkeypatch.setattr(campaign, "_REPORT_CAP", 2)
        calls.clear()
        run_campaign(cfg, str(tmp_path / "capped.csv"))
        assert len(calls) > len(distinct)
        assert (tmp_path / "memo.csv").read_bytes() == (tmp_path / "capped.csv").read_bytes()

    def test_pool_is_imported_only_for_more_than_one_worker(self, tmp_path):
        # a fresh interpreter: import, a serial campaign and check load neither the pool nor
        # multiprocessing; two workers (cpu_count pinned to 2) then write the serial bytes
        ideal = tmp_path / "ideal.json"
        ideal.write_text('{"n": 4, "generators": [[1,1,0,0],[0,0,1,1]]}')
        done = child_run(
            "import os, sys\n"
            "import multbound\n"
            "from multbound import cli\n"
            "from multbound.campaign import CampaignConfig, run_campaign\n"
            "base = dict(family='stable', n=5, max_degree=3, count=30, master_seed=3, checks=('c2', 'cwl'))\n"
            f"run_campaign(CampaignConfig(**base), {str(tmp_path / 'one.csv')!r})\n"
            f"assert cli.main(['check', {str(ideal)!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')]\n"
            "assert loaded == [], loaded\n"
            "os.cpu_count = lambda: 2\n"
            f"run_campaign(CampaignConfig(**base, jobs=2), {str(tmp_path / 'two.csv')!r})\n"
            "assert 'concurrent.futures.process' in sys.modules\n",
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_row_rendering_matches_report(self):
        cfg = CampaignConfig("random-monomial", n=3, max_degree=2, count=1, master_seed=60,
                             checks=("c2",))
        row = evaluate_row(cfg, 0)
        assert row[0] == str(derive_seed(60, 0))
        assert row[13].startswith("c2=")
