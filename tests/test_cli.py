"""CLI contract: exit codes, file format round trip, deterministic output."""

import json

import pytest

from cvghz import cli, paradox, states
from cvghz.paradox import builtin


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid(monkeypatch, module, name):
    """Make module.name fail the test if anything calls it."""
    def called(*args, **kwargs):
        pytest.fail(f"{name} ran")
    monkeypatch.setattr(module, name, called)


class TestFileFormat:
    def test_round_trip_builtins(self):
        for name in ("v4", "w6"):
            s = builtin(name)
            again = cli.set_from_dict(cli.set_to_dict(s))
            assert again == s

    @pytest.mark.parametrize("mutation", [
        lambda d: d.pop("d"),
        lambda d: d.update(d=1),
        lambda d: d.update(parties="three"),
        lambda d: d.update(operators=[]),
        lambda d: d["operators"][0].pop(),
        lambda d: d["operators"][0].__setitem__(0, [1, "x"]),
        lambda d: d["operators"][0].__setitem__(0, [True, False]),
    ])
    def test_malformed_rejected(self, mutation):
        data = cli.set_to_dict(builtin("v4"))
        mutation(data)
        with pytest.raises(cli.InputError):
            cli.set_from_dict(data)


class TestVerify:
    def test_v4_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "v4")
        assert code == 0
        assert "phase 1/2 turn" in out
        assert "X_A^pi X_B^pi X_C^pi" in out

    def test_w6_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "w6")
        assert code == 0
        assert "X_A^q" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", "v4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["is_paradox"] is True
        assert data["product_phase"] == "1/2"
        assert data["column_sums"] == [[0, 0]] * 3

    def test_non_paradox_file_exit_one(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps(
            {"d": 2, "parties": 3, "operators": [[[1, 0], [0, 0], [0, 0]]]}))
        code, _, _ = run(capsys, "verify", "--file", str(path))
        assert code == 1

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert "line" in err

    def test_boolean_exponents_exit_two(self, capsys, tmp_path):
        # JSON true/false load as Python bools, which are ints
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(
            {"d": 2, "parties": True, "operators": [[[True, False]]]}))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ")

    def test_unknown_builtin_exit_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--set", "nope")
        assert code == 2

    def test_set_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, _ = run(capsys, "verify", "--set", "v4", "--file", str(path))
        assert code == 2


class TestSearch:
    def test_small_search_negative(self, capsys):
        code, out, _ = run(capsys, "search", "--parties", "1", "--dim", "2",
                           "--operators", "1", "--max-exp", "1")
        assert code == 1
        assert out.startswith("0 paradox")

    def test_refusal_exit_three(self, capsys):
        code, _, err = run(capsys, "search", "--parties", "4", "--dim", "2",
                           "--operators", "6", "--max-exp", "3",
                           "--max-space", "1000")
        assert code == 3
        assert "refused" in err

    def test_nan_ceiling_exit_two(self, capsys):
        # NaN compares False with every estimate, so it must not reach it
        code, out, err = run(capsys, "search", "--parties", "1", "--dim",
                             "2", "--operators", "2", "--max-exp", "1",
                             "--max-space", "nan")
        assert (code, out) == (2, "")
        assert "NaN" in err

    def test_infinite_ceiling_runs(self, capsys):
        code, out, _ = run(capsys, "search", "--parties", "1", "--dim", "2",
                           "--operators", "2", "--max-exp", "1",
                           "--max-space", "inf")
        assert code == 0
        assert out.startswith("2 paradox")

    def test_emit_files_parse_back(self, capsys, tmp_path):
        out_dir = tmp_path / "found"
        code, out, _ = run(capsys, "search", "--parties", "1", "--dim", "2",
                           "--operators", "2", "--max-exp", "1",
                           "--emit", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert files
        for f in files:
            s = cli.set_from_dict(json.loads(f.read_text()))
            code2, _, _ = run(capsys, "verify", "--file", str(f))
            assert code2 == 0

    def test_emit_into_regular_file_rejected_before_search(
            self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "taken"
        target.write_text("keep\n")
        forbid(monkeypatch, paradox, "search")
        code, out, err = run(capsys, "search", "--parties", "1", "--dim",
                             "2", "--operators", "2", "--max-exp", "1",
                             "--emit", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert target.read_text() == "keep\n"


class TestOracle:
    def test_v4(self, capsys):
        code, out, _ = run(capsys, "oracle", "--set", "v4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert float(data["max_commutator_norm"]) < 1e-10
        assert float(data["product_deviation"]) < 1e-10

    def test_dimension_refusal(self, capsys):
        code, out, err = run(capsys, "oracle", "--set", "w6",
                             "--max-dim", "512")
        assert code == 3
        assert out == ""
        assert err == "refused: dense dimension 1024 exceeds ceiling 512\n"

    def test_non_finite_tol_exit_two(self, capsys):
        for tol in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, "oracle", "--set", "v4",
                                 f"--tol={tol}")
            assert (code, out) == (2, ""), tol
            assert "finite" in err

    def test_exponents_beyond_int64(self, capsys, tmp_path):
        # X^d = Y^d = I: adding a multiple of d = 2 changes no matrix
        data = cli.set_to_dict(builtin("v4"))
        data["operators"][0][0] = [1 + 2 ** 70, 0]
        data["operators"][1][0] = [-1 - 2 ** 70, 0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "oracle", "--file", str(path))
        assert code == 0
        assert out == run(capsys, "oracle", "--set", "v4")[1]
        assert "pass: True" in out

    def test_identity_set_trivial_pass(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(
            {"d": 2, "parties": 1, "operators": [[[0, 0]]]}))
        code, _, _ = run(capsys, "oracle", "--file", str(path))
        assert code == 0


class TestSimulate:
    def test_single_delta(self, capsys, tmp_path):
        out_csv = tmp_path / "conv.csv"
        code, _, _ = run(capsys, "simulate", "--delta", "0.05",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("delta,re_V1")
        assert len(lines) == 2
        assert float(lines[1].split(",")[-1]) < 0.05

    def test_three_deltas_monotone(self, capsys):
        code, out, _ = run(capsys, "simulate", "--delta", "0.2,0.1,0.05")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        devs = [float(r.split(",")[-1]) for r in rows]
        assert devs == sorted(devs, reverse=True)

    def test_empty_delta_exit_two(self, capsys):
        code, _, _ = run(capsys, "simulate", "--delta", "")
        assert code == 2

    def test_ascending_delta_exit_two(self, capsys):
        code, _, _ = run(capsys, "simulate", "--delta", "0.05,0.1")
        assert code == 2

    def test_non_finite_exit_two(self, capsys):
        for argv in (["--delta", "nan"], ["--delta", "0.1,inf"],
                     ["--delta", "0.1", "--envelope", "inf"]):
            code, out, err = run(capsys, "simulate", *argv)
            assert (code, out) == (2, ""), argv
            assert "finite" in err

    def test_out_in_missing_dir_rejected_before_study(
            self, capsys, monkeypatch, tmp_path):
        forbid(monkeypatch, states, "convergence_study")
        code, out, err = run(capsys, "simulate", "--delta", "0.05",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_byte_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", "--delta", "0.1,0.05", "--out", str(a))
        run(capsys, "simulate", "--delta", "0.1,0.05", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_bad_flags_exit_two(capsys):
    # an unparsable value, then each value the search rejects; argparse
    # keeps the last occurrence of a repeated flag
    for bad in (["--parties", "x"], ["--max-exp", "0"], ["--dim", "1"],
                ["--parties", "0"], ["--operators", "0"]):
        code, out, _ = run(capsys, "search", "--parties", "1", "--dim", "2",
                           "--operators", "4", "--max-exp", "1", *bad)
        assert (code, out) == (2, ""), bad
