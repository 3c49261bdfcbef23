import csv
import json

import pytest

from multbound.cli import main


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

    def test_dual_over_cap_is_inapplicable(self, tmp_path, capsys):
        path = write(tmp_path / "ideal.json", {"n": 3, "generators": [[1, 1, 0]]})
        code = main(["check", path, "--checks", "dual", "--cap", "1"])
        out = capsys.readouterr().out
        assert code == 0 and "dual: inapplicable" in out

    def test_betti_grid_over_cap_prints_the_cap_message(self, tmp_path, capsys):
        path = write(tmp_path / "cube.json", {"n": 2, "generators": [[3, 0], [2, 1], [1, 2], [0, 3]]})
        code = main(["check", path, "--cap", "2", "--betti-grid"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c2: inapplicable" in out and "total:" not in out
        assert out.splitlines()[-1] == (
            "4 generators exceed the oracle cap 2; "
            "use the bounded-stable formula or the Hochster route"
        )


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


class TestDual:
    def test_two_edges(self, tmp_path, capsys):
        path = write(tmp_path / "complex.json", {"n": 3, "facets": [[1, 3], [2, 3]]})
        code = main(["dual", path])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.splitlines()[0]) == {"n": 3, "facets": [[3]]}
        assert "dual: pass" in out

    def test_dual_over_cap_is_inapplicable(self, tmp_path, capsys):
        path = write(tmp_path / "complex.json", {"n": 3, "facets": [[1, 3], [2, 3]]})
        code = main(["dual", path, "--cap", "1"])
        out = capsys.readouterr().out
        assert code == 0 and "dual: inapplicable" in out

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

    def test_over_cap_is_inapplicable(self, tmp_path, capsys):
        path = write(tmp_path / "cube.json", {"n": 2, "generators": [[3, 0], [2, 1], [1, 2], [0, 3]]})
        code = main(["reduce", path, "--cap", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and not payload["applicable"]
        assert "4 generators exceed the oracle cap 2" in payload["reason"]


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

    def test_zero_count_is_exit_2(self, tmp_path, capsys):
        code = main([
            "campaign", "--family", "stable", "--n", "3", "--max-deg", "3",
            "--count", "0", "--seed", "7", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["campaign", "--family", "stable"]) == 2
        assert main(["frobnicate"]) == 2
