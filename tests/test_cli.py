"""CLI contract: exit codes, file format round trip, deterministic output."""

import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import cvghz
from cvghz import cli, oracle, orderly, paradox, states
from cvghz.paradox import builtin
from cvghz.weyl import RationalPhase


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_pinned(capsys, tmp_path, argv, code, size, digest):
    """Run argv; check exit code, empty stderr, stdout size and SHA-256.

    A dict at argv[1] stands for a set file, passed as `--file`.
    """
    if isinstance(argv[1], dict):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(argv[1]))
        argv = [argv[0], "--file", str(path), *argv[2:]]
    got, out, err = run(capsys, *argv)
    assert (got, err, len(out.encode())) == (code, "", size)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def cvghz_env() -> dict:
    """The environment of a fresh interpreter that imports this cvghz."""
    src = str(Path(cvghz.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


CVGHZ = [sys.executable, "-m", "cvghz.cli"]

# os.wait4 reports a child's peak resident set counting the pages of the
# process it was forked from, so `run_measured` forks the CLI from this
# small launcher, which loads no site-packages, and not from pytest.
# argv: address-space cap in bytes and CPU limit in seconds (0: none),
# stdout path, stderr path, and the CLI's arguments; it prints the CLI's
# exit code and ru_maxrss.
LAUNCHER = """
import os, sys
cap, cpu, out, err, *argv = sys.argv[1:]
pid = os.fork()
if pid == 0:
    try:
        import resource
        for limit, value in ((resource.RLIMIT_AS, int(cap)),
                             (resource.RLIMIT_CPU, int(cpu))):
            hard = resource.getrlimit(limit)[1]
            if value:
                if hard != resource.RLIM_INFINITY:
                    value = min(value, hard)
                resource.setrlimit(limit, (value, hard))
        for fd, path in ((1, out), (2, err)):
            os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
        os.execv(sys.executable, [sys.executable, "-m", "cvghz.cli", *argv])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""

needs_wait4 = pytest.mark.skipif(
    resource is None or not hasattr(os, "wait4"),
    reason="needs resource and os.wait4")


def run_measured(tmp_path, argv, cap_mib=0, cpu_s=0):
    """Run the CLI in a fresh process under an optional address-space cap
    and CPU-time limit; past the limit the kernel kills it with SIGXCPU.

    Returns its exit code, stdout, stderr and peak resident set in MiB.
    """
    out, err = tmp_path / "out.txt", tmp_path / "err.txt"
    launched = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, str(cap_mib * 2 ** 20),
         str(cpu_s), str(out), str(err), *argv],
        capture_output=True, text=True, env=cvghz_env(), check=True)
    code, maxrss = map(int, launched.stdout.split())
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return (code, out.read_text(), err.read_text(),
            maxrss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10))


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
        lambda d: d.update(name=["x", 1]),
        lambda d: d.update(name=4),
    ])
    def test_malformed_rejected(self, mutation):
        data = cli.set_to_dict(builtin("v4"))
        mutation(data)
        with pytest.raises(cli.InputError):
            cli.set_from_dict(data)

    def test_name_may_be_null_or_missing(self):
        data = cli.set_to_dict(builtin("v4"))
        assert cli.set_from_dict(dict(data, name=None)).name is None
        del data["name"]
        assert cli.set_from_dict(data).name is None

    def test_duplicate_key_exit_two(self, capsys, tmp_path):
        # json keeps the last of two equal keys: this file would verify v4's
        # operators as d = 2 whatever the first "d" said
        text = json.dumps(cli.set_to_dict(builtin("v4")))
        path = tmp_path / "twice.json"
        path.write_text(text.replace('{"d": 2,', '{"d": 3, "d": 2,'))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "input error: duplicate key 'd'\n"

    def test_many_keys_checked_in_linear_time(self, capsys, tmp_path):
        # 30,000 keys took about 15 s when every key was counted afresh
        data = cli.set_to_dict(builtin("v4"))
        data.update((f"k{i}", i) for i in range(30_000))
        text = json.dumps(data)
        path = tmp_path / "wide.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        # k3 occurs first in the file of the two keys repeated at its end
        path.write_text(text[:-1] + ', "k7": 0, "k3": 0}')
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "input error: duplicate key 'k3'\n")


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

    def test_non_string_name_exit_two(self, capsys, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps(
            dict(cli.set_to_dict(builtin("v4")), name=["x", 1])))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "input error: field 'name' must be a string, " \
                      "got ['x', 1]\n"

    def test_parties_past_z_labelled_apart(self, capsys, tmp_path):
        # A..Z, then AA: 27 parties, 27 labels, the first 26 as before
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"d": 2, "parties": 27, "operators": [[[1, 0]] * 27]}))
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == 1
        text = out.splitlines()[1]
        assert text.startswith("  [1] ")
        code, out, _ = run(capsys, "verify", "--file", str(path), "--json")
        assert code == 1
        operator = json.loads(out)["operators"][0]
        for rendered in (text[len("  [1] "):], operator):
            labels = [t[len("X_"):-len("^pi")] for t in rendered.split()]
            assert labels == list("ABCDEFGHIJKLMNOPQRSTUVWXYZ") + ["AA"]

    def test_unknown_builtin_exit_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--set", "nope")
        assert code == 2

    def test_set_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, _ = run(capsys, "verify", "--set", "v4", "--file", str(path))
        assert code == 2

    @pytest.mark.parametrize("argv, code, size, digest", [
        (["--set", "v4"], 0, 338, "5995db08a1d728f207e434b49d3b78e7"
                                  "4bf35ef43f3834ea52e92a53f58d4ad2"),
        (["--set", "w6", "--json"], 0, 1141,
         "a9021c6aea558f4799c5dd810f78499e1713dcc1cbf75d9ab57ddf60e6ac947a"),
        ([{"d": 2, "parties": 1, "operators": [[[1, 0]], [[0, 1]]]}], 1, 224,
         "7fe1eb71b3291181636342d638a4befb98a1489f4c41f97c0815ca7c18ead22a"),
        ([{"d": 2, "parties": 2,
           "operators": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]}], 1, 259,
         "c08b668841043d6f059d8fd7ed9c405d45ad69d4721a85aff2989ef7ae85ba0c"),
        ([{"d": 2, "parties": 2,
           "operators": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]}, "--json"], 1,
         393,
         "ab8b3de7dfa7e9fd717811f9b4c11c7290a5a88a9bd7463f63811b16f1045435"),
        ([{"d": 2, "parties": 1, "operators": [[[1, 0]], [[-1, 0]]]}], 1, 226,
         "76a48d5c21cb634128b2b888d7a564f7d2ce80073085f8586238c1a3e3d24b55"),
        ([{"d": 3, "parties": 2, "operators": [[[1, 2], [0, -1]]]}], 1, 244,
         "10b5c57fa6cd55cb289f1f5f4b6bcd5e5d9fe775b4db8716452c6c0dd622941c"),
    ], ids=["v4", "w6-json", "d2-XY", "XX-YY-not-scalar",
            "XX-YY-not-scalar-json", "phase-zero", "one-operator"])
    def test_verify_listing_pinned(self, capsys, tmp_path, argv, code, size,
                                   digest):
        assert_pinned(capsys, tmp_path, ["verify", *argv], code, size, digest)


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

    @pytest.mark.parametrize("argv", [
        # 9^200 - 1 rows: the row count squared is beyond float range
        ["--parties", "200", "--operators", "2", "--max-exp", "1"],
        # a multiset count beyond float range
        ["--parties", "2", "--operators", "30000", "--max-exp", "20"],
        # one whose exact value would have millions of digits
        ["--parties", "2", "--operators", "3000000", "--max-exp", "20"],
        # 9^3000000 - 1 rows: a row count with millions of digits
        ["--parties", "3000000", "--operators", "2", "--max-exp", "1"],
    ], ids=["rows-squared", "multisets", "multisets-not-computed",
            "rows-not-computed"])
    def test_refusal_beyond_float_range(self, capsys, monkeypatch, argv):
        forbid(monkeypatch, orderly, "tables")
        start = time.perf_counter()
        code, out, err = run(capsys, "search", "--dim", "2", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("refused: estimated enumeration size inf exceeds "
                       "ceiling 2e+13; tighten the bounds\n")

    @needs_wait4
    def test_refusal_lists_no_exponent_box(self, tmp_path):
        # (2 * 10^6 + 1)^2 pairs per party: a list of them fills the
        # 512 MiB cap, and a copy of the 2 * 10^6 + 1 exponents alone
        # takes 90 MiB, so the refusal must come before either
        start = time.perf_counter()
        code, out, err, peak_mib = run_measured(
            tmp_path, ["search", "--parties", "1", "--dim", "2",
                       "--operators", "2", "--max-exp", "1000000"],
            cap_mib=512)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert peak_mib < 50

    @pytest.mark.parametrize("dim,operators,size,digest", [
        ("2", "4", 381035, "1c6a3647ffc38b9bb75b3885b96291cf"
                           "abc0d274461c5b6e92e00224ca4e265c"),
        ("3", "4", 269609, "e334b865587ee0632c3b4e92a813fb24"
                           "2babc109cb1e92121433cf349e360a02"),
        ("3", "5", 983699, "823ab9d9989ca33db6ff62cb20106298"
                           "5955410e6b4f68e265f148357c11cbda"),
        pytest.param("2", "5", 5777510, "e6a4627b748b678b8056db116f3db4a1"
                                        "6dbfd041c41080b08d5e2df923a1aeb1",
                     marks=pytest.mark.slow),
    ], ids=["d2-k4", "d3-k4", "d3-k5", "d2-k5"])
    def test_gate_search_listing_pinned(self, capsys, dim, operators, size,
                                        digest):
        # the 3-party searches over the unit box that gate search changes
        code, out, err = run(capsys, "search", "--parties", "3", "--dim",
                             dim, "--operators", operators, "--max-exp", "1")
        assert (code, err, len(out.encode())) == (0, "", size)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_walk_deeper_than_the_stack_refused(self, capsys, monkeypatch):
        # the walk nests one call per operator; the default ceiling would
        # refuse this by its size alone
        forbid(monkeypatch, orderly, "tables")
        start = time.perf_counter()
        code, out, err = run(capsys, "search", "--parties", "1", "--dim",
                             "2", "--operators", "1100", "--max-exp", "1",
                             "--max-space", "1e30")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("refused: search depth 1100 exceeds ")
        assert err.count("\n") == 1

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

    def test_emit_below_regular_file_rejected_before_search(
            self, capsys, monkeypatch, tmp_path):
        # the nearest existing ancestor of the target is a regular file
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        forbid(monkeypatch, paradox, "search")
        code, out, err = run(capsys, "search", "--parties", "3", "--dim",
                             "2", "--operators", "4", "--max-exp", "1",
                             "--emit", str(taken / "sub" / "deeper"))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert taken.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_refusal_makes_no_emit_dir(self, capsys, tmp_path):
        target = tmp_path / "found"
        code, out, err = run(capsys, "search", "--parties", "3", "--dim",
                             "2", "--operators", "4", "--max-exp", "1",
                             "--max-space", "1e6", "--emit", str(target))
        assert (code, out) == (3, "")
        assert err.startswith("refused: ")
        assert not target.exists()

    def test_rejected_arguments_make_no_emit_dir(self, capsys, tmp_path):
        target = tmp_path / "found"
        code, out, _ = run(capsys, "search", "--parties", "1", "--dim", "2",
                           "--operators", "2", "--max-exp", "0",
                           "--emit", str(target))
        assert (code, out) == (2, "")
        assert not target.exists()

    def test_emit_write_failure_exit_two_before_output(self, capsys,
                                                        tmp_path):
        # the second class's file name is taken by a directory
        (tmp_path / "paradox_0001.json").mkdir()
        code, out, err = run(capsys, "search", "--parties", "1", "--dim",
                             "2", "--operators", "2", "--max-exp", "1",
                             "--emit", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot write ")
        assert err.count("\n") == 1


class TestOracle:
    def test_v4(self, capsys):
        code, out, _ = run(capsys, "oracle", "--set", "v4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert float(data["max_commutator_norm"]) < 1e-10
        assert float(data["product_deviation"]) < 1e-10

    def test_monomials_built_once(self, capsys, monkeypatch):
        built = []

        def counted(word, *args):
            built.append(word)
            return real(word, *args)

        real = oracle.monomial
        monkeypatch.setattr(oracle, "monomial", counted)
        code, _, _ = run(capsys, "oracle", "--set", "w6")
        assert code == 0
        assert len(built) == 7  # the six operators, then their product

    def test_dimension_refusal(self, capsys):
        code, out, err = run(capsys, "oracle", "--set", "w6",
                             "--max-dim", "512")
        assert code == 3
        assert out == ""
        assert err == "refused: dense dimension 1024 exceeds ceiling 512\n"
        # the least ceiling that is not an input error
        assert run(capsys, "oracle", "--set", "v4", "--max-dim", "1") == (
            3, "", "refused: dense dimension 8 exceeds ceiling 1\n")

    @pytest.mark.parametrize("ceiling", ["0", "-1"])
    def test_ceiling_below_one_exit_two(self, capsys, monkeypatch, ceiling):
        # it would refuse every set; rejected before any set is loaded
        forbid(monkeypatch, cli, "load_set")
        code, out, err = run(capsys, "oracle", "--set", "v4",
                             "--max-dim", ceiling)
        assert (code, out) == (2, "")
        assert err == f"input error: --max-dim must be >= 1, got {ceiling}\n"

    def test_default_dimension_ceiling(self, capsys, tmp_path):
        # 13 qubit parties: D = 8192, above the default ceiling of 4096
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"d": 2, "parties": 13, "operators": [[[1, 0]] * 13]}))
        code, out, err = run(capsys, "oracle", "--file", str(path))
        assert (code, out) == (3, "")
        assert err == "refused: dense dimension 8192 exceeds ceiling 4096\n"

    def test_negative_seed_exit_two(self, capsys, monkeypatch):
        forbid(monkeypatch, oracle, "check_set")
        code, out, err = run(capsys, "oracle", "--set", "v4", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "seed" in err

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

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("name", ["v4", "w6"])
    def test_decided_from_the_images(self, capsys, monkeypatch, name,
                                     json_flag):
        # the eigenvector is gated by the images' commutator norm, and the
        # product phase read off the symbolic product: no verify of the set
        forbid(monkeypatch, paradox, "verify")
        code, out, err = run(capsys, "oracle", "--set", name, *json_flag)
        assert (code, err) == (0, "")
        if json_flag:
            data = json.loads(out)
            assert data["pass"] is True
            assert data["product_phase"] == "1/2"
            assert len(data["eigenvalues"]) == len(builtin(name).rows)
        else:
            assert "  product_phase: 1/2\n" in out
            assert "  joint eigenvalues: " in out
            assert out.endswith("  pass: True\n")

    def test_pass_needs_the_exact_eigenvalue_sum(self, capsys, monkeypatch):
        # a quarter turn off one eigenvalue moves the sum off 1/2 turn
        real = oracle.joint_eigenvector

        def shifted(report, seed=0):
            vec, vals = real(report, seed)
            return vec, [vals[0] + RationalPhase(1, 4), *vals[1:]]

        monkeypatch.setattr(oracle, "joint_eigenvector", shifted)
        code, out, err = run(capsys, "oracle", "--set", "v4")
        assert (code, err) == (1, "")
        assert "  product_phase: 1/2\n" in out
        assert out.endswith("  pass: False\n")

    def test_identity_set_trivial_pass(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(
            {"d": 2, "parties": 1, "operators": [[[0, 0]]]}))
        code, _, _ = run(capsys, "oracle", "--file", str(path))
        assert code == 0

    @pytest.mark.parametrize("argv, code, size, digest", [
        (["--set", "v4"], 0, 228, "3cdf22eb8283f533bedf6216255f7fb1"
                                  "a1b6d0730781484a62ff56d3d4829f6e"),
        (["--set", "w6"], 0, 243, "dcb3cc67d7d7e1f19b620f269a65b0a7"
                                  "e1630b3bf23156a04d3cd72f79607917"),
        (["--set", "w6", "--json", "--seed", "7"], 0, 316,
         "b17ae39ab203f298aa22e366d83adc04a5002c79680f359b0918ba1991f834ec"),
        (["--set", "v4", "--json", "--seed", "5"], 0, 289,
         "3e227a6a30a2c00978434ff3547d97188ed9aed5605e5ee5b7665c1f214d1167"),
        ([{"d": 2, "parties": 1, "operators": [[[1, 0]], [[0, 1]]]}], 1, 137,
         "45f8d51243fa7980fb668a157b3b0c8944b152518b729456ab4291397798cacf"),
        ([{"d": 3, "parties": 1, "operators": [[[1, 0]], [[1, 0]]]},
          "--json"], 0, 230,
         "cd36db77ce0897f4c0385b4671126c938099f563d51266c5d9df7017533d17c7"),
    ], ids=["v4", "w6", "w6-json-seed7", "v4-json-seed5", "d2-XY",
            "d3-commuting"])
    def test_oracle_listing_pinned(self, capsys, tmp_path, argv, code, size,
                                   digest):
        # every eigenvalue is exact, turn k/d^2, and printed as verify
        # prints its product phase: the lines move only with the walk's
        # choice of basis state
        assert_pinned(capsys, tmp_path, ["oracle", *argv], code, size, digest)


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

    def test_empty_delta_exit_two(self, capsys, monkeypatch):
        # padded numbers are numbers; an empty or blank item is not
        assert run(capsys, "simulate", "--delta", "0.2, 0.1") \
            == run(capsys, "simulate", "--delta", "0.2,0.1")
        forbid(monkeypatch, states, "ghz_state")
        for delta in ("", " ", "0.2,,0.1", "0.2,0.1,"):
            code, out, err = run(capsys, "simulate", "--delta", delta)
            assert (delta, code, out) == (delta, 2, "")
            assert err.startswith("input error: bad --delta list: ")
            assert err.count("\n") == 1

    def test_ascending_delta_exit_two(self, capsys):
        code, _, _ = run(capsys, "simulate", "--delta", "0.05,0.1")
        assert code == 2

    def test_non_finite_exit_two(self, capsys, monkeypatch):
        forbid(monkeypatch, states, "ghz_state")
        # and widths whose squares underflow to 0 or overflow
        for argv in (["--delta", "nan"], ["--delta", "0.1,inf"],
                     ["--delta", "0.1", "--envelope", "inf"],
                     ["--delta", "1e-300"], ["--delta", "0.2,1e200"],
                     ["--delta", "0.2", "--envelope", "1e-300"],
                     ["--delta", "0.2", "--envelope", "1e300"]):
            code, out, err = run(capsys, "simulate", *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("input error: ") and err.count("\n") == 1
            assert "finite" in err

    def test_non_finite_max_dev_exit_two(self, capsys, monkeypatch):
        forbid(monkeypatch, states, "convergence_study")
        for dev in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, "simulate", "--delta", "0.2,0.1",
                                 f"--max-dev={dev}")
            assert (code, out) == (2, ""), dev
            assert err.startswith("input error: ") and err.count("\n") == 1
            assert "finite" in err

    def test_out_in_missing_dir_rejected_before_study(
            self, capsys, monkeypatch, tmp_path):
        forbid(monkeypatch, states, "convergence_study")
        code, out, err = run(capsys, "simulate", "--delta", "0.05",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_out_directory_rejected_before_study(
            self, capsys, monkeypatch, tmp_path):
        forbid(monkeypatch, states, "convergence_study")
        code, out, err = run(capsys, "simulate", "--delta", "0.05",
                             "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"input error: cannot write {tmp_path}: is a directory\n"

    @pytest.mark.parametrize("argv", [
        ["--delta", "0.1,0.2"],
        ["--delta", "0.2", "--envelope", "1e-300"],
        ["--delta", "0.2", "--peaks", "0"],  # a zero-norm GHZ state
    ])
    def test_rejected_run_leaves_out_file_alone(self, capsys, tmp_path,
                                                argv):
        target = tmp_path / "out.csv"
        target.write_text("keep\n")
        code, out, err = run(capsys, "simulate", *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert target.read_text() == "keep\n"

    @pytest.mark.parametrize("peaks", ["-1", "0"])
    def test_peaks_below_one_named_before_study(self, capsys, monkeypatch,
                                                peaks):
        # --peaks 0 is one peak, whose up and down combs are equal
        forbid(monkeypatch, states, "convergence_study")
        code, out, err = run(capsys, "simulate", "--delta", "0.2",
                             "--peaks", peaks)
        assert (code, out) == (2, "")
        assert err == f"input error: --peaks must be >= 1, got {peaks}\n"

    @needs_wait4
    def test_peaks_beyond_ceiling_refused(self, tmp_path):
        # 10^8 peaks per side: the combs alone would fill the 512 MiB cap
        start = time.perf_counter()
        code, out, err, peak_mib = run_measured(
            tmp_path, ["simulate", "--delta", "0.2", "--peaks", "100000000"],
            cap_mib=512)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("refused: 100000000 peaks per side exceed the "
                       "ceiling 10000\n")
        assert peak_mib < 50

    def test_width_errors_name_the_flag(self, capsys, monkeypatch):
        forbid(monkeypatch, states, "convergence_study")
        for flag, argv in (("--envelope", ["--delta", "0.2",
                                           "--envelope", "1e-300"]),
                           ("--delta", ["--delta", "0.2,1e-300"])):
            code, out, err = run(capsys, "simulate", *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"input error: {flag} must be "), err

    def test_byte_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", "--delta", "0.1,0.05", "--out", str(a))
        run(capsys, "simulate", "--delta", "0.1,0.05", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, size, digest", [
        (["0.2,0.1,0.05"], 523, "c9055ec9c5e7131b094cd5e454af8707"
                                "8c551510fbe01000b741e0c5101b7b37"),
        (["0.2,0.1,0.05,0.02,0.01,0.005", "--peaks", "120", "--envelope",
          "40"], 995, "e2366954a4db530693e9142cde8802c5"
                      "4593224c3d62007b096f233f530871d6"),
    ], ids=["default", "benchmark"])
    def test_simulate_listing_pinned(self, capsys, argv, size, digest):
        # the noise-level imaginary cells move with any reordering of the
        # floating-point sums over peak pairs
        code, out, err = run(capsys, "simulate", "--delta", *argv)
        assert (code, err, len(out.encode())) == (0, "", size)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_wide_peaks_sum_few_offsets(self, capsys):
        # the band reaches about 1.7e151 peaks either way, but only the
        # 13 offsets that pair some of the 7 peaks are summed
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--delta", "1e150",
                             "--peaks", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (
            1, "delta,re_V1,im_V1,re_V2,im_V2,re_V3,im_V3,re_V4,im_V4,"
               "deviation\n1e+150,0,0,0,0,0,0,0,0,1\n",
            "check failed: final deviation 1 >= 0.05\n")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full")


ACCEPTANCE_6 = ["search", "--parties", "3", "--dim", "2", "--operators", "4",
                "--max-exp", "1"]

# a CSV of 73,650 bytes, more than a pipe's 64 KiB buffer, in about 0.5 s
SIMULATE_500 = ["simulate", "--delta", ",".join(
    format(0.5 - i * 0.0009, ".4g") for i in range(500)),
    "--peaks", "1", "--max-dev", "10"]


def grid_set(tmp_path) -> str:
    """A file of the 121 one-party d=2 operators with |m|, |n| <= 5.

    `verify --json` prints its 14,641 pairwise phases in about 190 KB.
    """
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"d": 2, "parties": 1, "operators": [
        [[m, n]] for m in range(-5, 6) for n in range(-5, 6)]}))
    return str(path)


# stdout is a buffered writer without PYTHONUNBUFFERED and a raw file with it
UNBUFFERED = [None, "1"]


def stdout_env(unbuffered: str | None) -> dict:
    env = cvghz_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def recorded_writes(monkeypatch, argv, code) -> list[str]:
    """The strings that `main(argv)`, exiting with code, writes to stdout."""
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == code
    monkeypatch.undo()
    return out.writes


class TestStdoutFailure:
    """An output that cannot be written exits 2 with one stderr line."""

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "v4"],
        ["search", "--parties", "3", "--dim", "2", "--operators", "3",
         "--max-exp", "1"],
        ["simulate", "--delta", "0.2"],  # fails its check, after the write
        ["oracle", "--set", "v4"],
        ["--help"],  # argparse's own writer would swallow the error
        ["verify", "--help"],
    ])
    def test_full_device(self, argv):
        for unbuffered in UNBUFFERED:
            with open("/dev/full", "w") as full:
                proc = subprocess.run(CVGHZ + argv, stdout=full, text=True,
                                      stderr=subprocess.PIPE,
                                      env=stdout_env(unbuffered))
            assert (unbuffered, proc.returncode) == (unbuffered, 2)
            assert proc.stderr == ("input error: cannot write stdout: "
                                   "[Errno 28] No space left on device\n")

    def test_reader_closes_pipe(self, tmp_path):
        # as `| head -1`: each output is larger than the pipe's buffer,
        # so the command is still writing when the reader goes away
        for argv, first in (
                (ACCEPTANCE_6, b"2758 paradox class(es) found\n"),
                (SIMULATE_500, b"delta,re_V1,im_V1,re_V2,im_V2,re_V3,im_V3,"
                               b"re_V4,im_V4,deviation\n"),
                (["verify", "--json", "--file", grid_set(tmp_path)], b"{\n")):
            for unbuffered in UNBUFFERED:
                proc = subprocess.Popen(
                    CVGHZ + argv, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, env=stdout_env(unbuffered))
                assert proc.stdout.readline() == first
                proc.stdout.close()
                err = proc.stderr.read()
                proc.stderr.close()
                assert (argv[0], unbuffered, proc.wait()) \
                    == (argv[0], unbuffered, 2)
                assert err == b"input error: cannot write stdout: " \
                              b"[Errno 32] Broken pipe\n"

    def test_full_listing_through_a_pipe(self, capsys):
        # 381,035 bytes, read to the end: the same bytes as in-process
        code, want, _ = run(capsys, *ACCEPTANCE_6)
        assert (code, len(want)) == (0, 381035)
        for unbuffered in UNBUFFERED:
            proc = subprocess.run(CVGHZ + ACCEPTANCE_6, capture_output=True,
                                  env=stdout_env(unbuffered))
            assert (unbuffered, proc.returncode, proc.stderr) \
                == (unbuffered, 0, b"")
            assert proc.stdout == want.encode()

    def test_search_writes_whole_pipe_blocks(self, monkeypatch):
        # a pipe write of at most PIPE_BUF (4,096) bytes is never cut short
        writes = recorded_writes(monkeypatch, [
            "search", "--parties", "3", "--dim", "2", "--operators", "3",
            "--max-exp", "1"], 0)
        text = "".join(writes)
        assert text.startswith("127 paradox class(es) found\n-- class 0:\n")
        assert len(text) == 12589
        assert max(map(len, writes)) == 4096

    def test_json_writes_whole_pipe_blocks(self, capsys, monkeypatch,
                                           tmp_path):
        argv = ["verify", "--json", "--file", grid_set(tmp_path)]
        code, want, _ = run(capsys, *argv)
        writes = recorded_writes(monkeypatch, argv, code)
        assert len(want) > 40 * 4096
        assert max(map(len, writes)) <= 4096
        assert "".join(writes) == want

    @needs_dev_full
    def test_out_file_failure_names_the_file(self, capsys):
        code, out, err = run(capsys, "simulate", "--delta", "0.2",
                             "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("input error: cannot write /dev/full: ")
        assert err.count("\n") == 1


@needs_wait4
def test_search_memory_is_bounded(tmp_path):
    # 225 pairs per party give 50,624 rows; one bitmask of that many bits
    # per row took this search to 420 MiB
    code, out, _, peak_mib = run_measured(
        tmp_path, ["search", "--parties", "2", "--dim", "2",
                   "--operators", "2", "--max-exp", "7"])
    assert code == 0
    assert out.startswith("2592 paradox class(es) found\n")
    assert peak_mib < 120


@needs_wait4
def test_oracle_memory_is_bounded(tmp_path):
    # v4 on 3 of 16 parties: D = 2**16 entries per image; the run peaks
    # near 49 MiB and takes about 0.7 s
    rows = [row + ((0, 0),) * 13 for row in builtin("v4").rows]
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(cli.set_to_dict(paradox.set_from_rows(2,
                                                                     rows))))
    start = time.perf_counter()
    code, out, err, peak_mib = run_measured(
        tmp_path, ["oracle", "--file", str(path), "--max-dim", "65536"],
        cpu_s=30)
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert out.startswith("  dimension: 65536\n")
    assert out.endswith("  pass: True\n")
    assert peak_mib < 70


@needs_wait4
def test_eigenvector_memory_is_bounded(tmp_path):
    # one party at d = 1024: with all d vectors M^t v held at once the run
    # peaked at 54 MiB; with one at a time it peaks near 14 MiB
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"d": 1024, "parties": 1,
                                "operators": [[[1, 1]]]}))
    code, out, err, peak_mib = run_measured(
        tmp_path, ["oracle", "--file", str(path)], cpu_s=30)
    assert (code, err) == (0, "")
    assert out.endswith("  pass: True\n")
    assert peak_mib < 30


@needs_wait4
@pytest.mark.parametrize("d, parties, bound", [
    (2, 15_000, "2^15000"),  # 4,516 digits: more than str() will print
    (10 ** 4299, 20_000, "2^285600000"),  # minutes to build the power
], ids=["d2", "d1e4299"])
def test_huge_dimension_refused_in_bounded_time(tmp_path, d, parties,
                                                 bound):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"d": d, "parties": parties, "operators": [[[1, 0]] * parties]}))
    start = time.perf_counter()
    code, out, err, _ = run_measured(
        tmp_path, ["oracle", "--file", str(path)], cap_mib=512, cpu_s=5)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"refused: dense dimension at least {bound} exceeds "
                   f"ceiling 4096\n")


@needs_wait4
def test_search_tables_do_not_grow_with_d(capsys, tmp_path):
    # a table of d entries per residue pair would need gigabytes here
    argv = ["search", "--parties", "1", "--dim", "1000000000",
            "--operators", "2", "--max-exp", "1"]
    start = time.perf_counter()
    code, out, err, _ = run_measured(tmp_path, argv, cap_mib=512, cpu_s=5)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    argv[4] = "1000"
    assert out == run(capsys, *argv)[1]


def loaded(code: str, modules: list[str]) -> list[str]:
    """Run `code` in a fresh interpreter; which of `modules` did it import?"""
    probe = (f"\nimport sys\n"
             f"print(*[m for m in {modules!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code + probe],
                          capture_output=True, text=True, env=cvghz_env(),
                          check=True)
    return proc.stdout.splitlines()[-1].split()


def numpy_loaded(code: str) -> bool:
    return loaded(code, ["numpy"]) == ["numpy"]


# Start-up cost of every job: `dataclasses` pulls in `inspect` (and with it
# `ast`, `dis` and `tokenize`), `fractions` pulls in `decimal`.
SLOW_IMPORTS = ["dataclasses", "inspect", "fractions", "decimal"]

STARTUP_CODES = [
    "import cvghz",
    "from cvghz import cli; cli.main(['--help'])",
    "from cvghz import cli; cli.main(['verify', '--set', 'v4'])",
    "from cvghz import cli; cli.main(['search', '--parties', '1', "
    "'--dim', '2', '--operators', '2', '--max-exp', '1'])",
    "from cvghz import cli; cli.main(['oracle', '--set', 'v4'])",
    "from cvghz import cli; "
    "cli.main(['oracle', '--set', 'w6', '--max-dim', '512'])",
    "from cvghz import cli; cli.main(['simulate', '--delta', '0.2'])",
]


class TestStartup:
    """No subcommand needs numpy or the slow standard-library imports, so
    none loads them."""

    @pytest.mark.parametrize("code", STARTUP_CODES)
    def test_numpy_not_loaded(self, code):
        assert not numpy_loaded(code)

    def test_probe_sees_numpy(self):
        assert numpy_loaded("from cvghz import oracle, paradox; "
                            "oracle.represent(paradox.builtin('v4')"
                            ".operators[0])")

    def test_numpy_imported_only_in_represent(self):
        # the dense matrix for tests is the one place; any other numpy
        # import would load it on a CLI path or stand where tests belong
        found = []

        def visit(node, module, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                names = []
                if isinstance(child, ast.Import):
                    names = [alias.name for alias in child.names]
                elif isinstance(child, ast.ImportFrom):
                    names = [child.module or ""]
                if any(name.split(".")[0] == "numpy" for name in names):
                    found.append(".".join((module,) + scope))
                visit(child, module, inner)

        for path in sorted(Path(cvghz.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
        assert found == ["oracle.represent"]

    @pytest.mark.parametrize("code,want", zip(STARTUP_CODES + [
        "from cvghz import cli; cli.main(['search', '--parties', '4', "
        "'--dim', '2', '--operators', '6', '--max-exp', '2', "
        "'--max-space', '1e6'])",
    ], [[], [], [], ["cvghz.orderly"], ["cvghz.oracle"], ["cvghz.oracle"],
        ["cvghz.oracle", "cvghz.states"], []], strict=True))
    def test_modules_loaded_only_where_needed(self, code, want):
        # the search's walk, the oracle and the comb states are imported
        # only by the subcommands that run them; a refused search (the
        # last code) never reaches the walk
        assert loaded(code, ["cvghz.orderly", "cvghz.oracle",
                             "cvghz.states"]) == want

    @pytest.mark.parametrize("code", STARTUP_CODES)
    def test_slow_imports_not_loaded(self, code):
        assert loaded(code, SLOW_IMPORTS) == []

    def test_probe_sees_slow_imports(self):
        # RationalPhase.turns is the one caller of fractions in cvghz
        assert loaded("import cvghz; cvghz.RationalPhase(1, 2).turns; "
                      "import dataclasses",
                      SLOW_IMPORTS) == SLOW_IMPORTS


class TestFilesClosed:
    """Every file a subcommand opens is closed before it returns.

    An unclosed file warns only when it is collected, inside `__del__`,
    where pytest's `-W error` cannot turn the warning into a failure; so
    the warnings are recorded here and the garbage collected at once.
    """

    @pytest.mark.parametrize("argv", [
        ["search", "--parties", "1", "--dim", "2", "--operators", "2",
         "--max-exp", "1", "--emit", "{tmp}/found"],
        ["simulate", "--delta", "0.05", "--out", "{tmp}/conv.csv"],
        ["verify", "--file", "{tmp}/v4.json"],
    ])
    def test_no_resource_warning(self, capsys, tmp_path, argv):
        (tmp_path / "v4.json").write_text(
            json.dumps(cli.set_to_dict(builtin("v4"))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([a.format(tmp=tmp_path) for a in argv])
            gc.collect()
        capsys.readouterr()
        assert code == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []


class TestStandardLibraryOnly:
    """`python -S` loads no site-packages, so no numpy: same results."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "v4"],
        ["search", "--parties", "3", "--dim", "2", "--operators", "3",
         "--max-exp", "1"],
        ["oracle", "--set", "w6"],
        ["simulate", "--delta", "0.2,0.1,0.05"],
        ["simulate", "--delta", "0.2,0.1,0.05,0.02,0.01,0.005",
         "--peaks", "120", "--envelope", "40"],
    ])
    def test_same_output_without_site_packages(self, argv):
        bare = [sys.executable, "-S"]
        if subprocess.run(bare + ["-c", "import numpy"], env=cvghz_env(),
                          capture_output=True).returncode == 0:
            pytest.skip("numpy is importable without site-packages")
        runs = [subprocess.run(python + ["-m", "cvghz.cli"] + argv,
                               capture_output=True, env=cvghz_env())
                for python in (bare, [sys.executable])]
        assert runs[0].stderr == b""
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout


def test_bad_flags_exit_two(capsys, monkeypatch):
    # an unparsable value, then each value the search rejects; argparse
    # keeps the last occurrence of a repeated flag
    argv = ["search", "--parties", "1", "--dim", "2", "--operators", "4",
            "--max-exp", "1"]
    for bad in (["--parties", "x"], ["--max-exp", "0"], ["--dim", "1"],
                ["--parties", "0"], ["--operators", "0"]):
        code, out, _ = run(capsys, *argv, *bad)
        assert (code, out) == (2, ""), bad
    # a ceiling at or below 0 would refuse every search: it is malformed,
    # and rejected before the search starts
    assert run(capsys, *argv, "--max-space", "1")[0] == 3
    assert run(capsys, *argv, "--max-space", "1e6")[0] == 1  # it ran
    forbid(monkeypatch, paradox, "search")
    for bad in ("0", "-0", "-1", "-inf"):
        code, out, err = run(capsys, *argv, f"--max-space={bad}")
        assert (code, out) == (2, ""), bad
        assert err == (f"input error: --max-space must be > 0 and not NaN, "
                       f"got {float(bad)}\n")


class TestExitPolicy:
    """`main` alone maps exceptions to exit codes."""

    @pytest.mark.parametrize("argv", [
        ["search", "--parties", "4", "--dim", "2", "--operators", "6",
         "--max-exp", "3", "--max-space", "1000"],
        ["oracle", "--set", "w6", "--max-dim", "512"],
    ], ids=["search", "oracle"])
    def test_refusal_exit_three(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("refused: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["search", "--parties", "1", "--dim", "1", "--operators", "2",
         "--max-exp", "1"],  # LatticeParams rejects d = 1
        ["simulate", "--delta", "0.1,0.2"],  # the study rejects the order
    ], ids=["search", "simulate"])
    def test_library_value_error_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, argv", [
        ("verify", ["--set", "v4"]),
        ("search", ["--parties", "1", "--dim", "2", "--operators", "2",
                    "--max-exp", "1"]),
        ("oracle", ["--set", "v4"]),
        ("simulate", ["--delta", "0.2"]),
    ])
    def test_other_exceptions_propagate(self, monkeypatch, command, argv):
        def broken(args):
            raise RuntimeError("a bug")
        monkeypatch.setattr(cli, f"cmd_{command}", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            cli.main([command, *argv])
