"""CLI behaviour: round trips, reproducibility, exit codes."""

import hashlib
import json
import subprocess
import sys
import time
from importlib import resources

import pytest

from spliceops import cli, tree
from spliceops.cli import build_parser, main
from spliceops.expr import parse_expr
from spliceops.tree import canonicalize

from test_expr import depth2_corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_input_error(code, out, err):
    """Exit 2, nothing on stdout, one line on stderr and no traceback."""
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1, err


class TestCanonAndEq:
    def test_canon_round_trip_corpus(self, capsys):
        for text in depth2_corpus():
            try:
                code, out, _ = run(capsys, "canon", text)
            except Exception:
                raise AssertionError(f"canon failed on {text!r}")
            assert code == 0
            expr = out.strip()
            assert canonicalize(parse_expr(expr)) == parse_expr(expr)
            code2, out2, _ = run(capsys, "canon", expr)
            assert out2.strip() == expr  # canonical output is a fixed point

    def test_eq_detects_same_knot(self, capsys):
        code, out, _ = run(capsys, "eq", "sum(T(2,3),T(2,5))", "sum(T(2,5),T(2,3))")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "eq", "T(2,3)", "mirror(T(2,3))")
        assert code == 0 and out.strip() == "false"

    def test_complexity(self, capsys):
        code, out, _ = run(capsys, "complexity", "sum(T(2,3),T(2,3))")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run(capsys, "complexity", "unknot")
        assert out.strip() == "0"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "canon", "--json", "sum(T(2,3),fig8)")
        data = json.loads(out)
        assert data["kind"] == "sum"


class TestAxioms:
    def test_reproducible_bytes(self, capsys):
        args = ("axioms", "--operad", "overlap", "--trials", "40", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_corrupt_mode_fails_with_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--operad", "splice", "--trials", "5", "--seed", "1", "--corrupt"
        )
        assert code == 1
        assert "counterexample" in out

    def test_all_operads_pass(self, capsys):
        for operad in ("cubes", "overlap", "splice"):
            code, out, _ = run(
                capsys, "axioms", "--operad", operad, "--trials", "25", "--seed", "2"
            )
            assert code == 0, out
            assert "result: OK" in out


class TestRealize:
    def test_verdict(self, capsys):
        code, out, _ = run(
            capsys, "realize", "--n", "10", "--p", "2", "--q", "5", "--cycles", "(5)-"
        )
        assert code == 0
        assert out.startswith("ACCEPT")
        assert "rule 4" in out

    def test_swap_convention(self, capsys):
        code, out, _ = run(
            capsys,
            "realize", "--n", "10", "--p", "5", "--q", "2",
            "--cycles", "(5)-", "--convention", "swap",
        )
        assert out.startswith("ACCEPT")

    def test_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "realize", "--n", "10", "--p", "2", "--q", "5", "--enumerate", "--k", "5"
        )
        assert code == 0
        assert "(5)-" in out

    def test_k_matching_cycles_accepted(self, capsys):
        argv = ["realize", "--n", "10", "--p", "2", "--q", "5", "--cycles", "(5)- (2)+"]
        assert run(capsys, *argv) == run(capsys, *argv, "--k", "7")

    @pytest.mark.parametrize("k", ["0", "5", "8"])
    def test_k_mismatching_cycles_exits_2(self, capsys, k):
        argv = ["realize", "--n", "10", "--p", "2", "--q", "5", "--cycles", "(5)- (2)+", "--k", k]
        code, out, err = run(capsys, *argv)
        assert_input_error(code, out, err)
        assert err == f"realize: --k {k} does not match --cycles, which has 7 circles\n"

    def test_k_mismatching_a_total_past_the_int_string_limit_exits_2(self, capsys):
        # each entry converts, but their sum has one digit more than the limit
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        argv = ["realize", "--n", "6", "--p", "1", "--q", "5", "--cycles", f"({nines})+ ({nines})+"]
        code, out, err = run(capsys, *argv, "--k", "1")
        assert_input_error(code, out, err)
        assert err == f"realize: --k 1 does not match --cycles, which has at least 10^{limit} circles\n"

    def test_enumerate_with_cycles_exits_2(self, capsys):
        argv = ["realize", "--n", "10", "--p", "2", "--q", "5", "--enumerate", "--k", "5"]
        code, out, err = run(capsys, *argv, "--cycles", "(3)+ (9)-")
        assert_input_error(code, out, err)
        assert err == "realize: --enumerate lists the cycle types for --k and takes no --cycles\n"

    def test_fixed_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "realize", "--n", "6", "--p", "3", "--q", "2",
            "--cycles", "(6)+ (1)+", "--fixed",
        )
        assert out.startswith("ACCEPT")


class TestGeomAndEmit:
    def test_geom_selftest(self, capsys):
        code, out, _ = run(capsys, "geom", "selftest", "--samples", "200")
        assert code == 0
        assert "result: OK" in out

    def test_emit_dot(self, capsys):
        code, out, _ = run(capsys, "emit", "--dot", "sum(T(2,3),fig8)")
        assert code == 0
        assert out.startswith("digraph")

    def test_emit_json(self, capsys):
        code, out, _ = run(capsys, "emit", "--json", "cable(2,3;fig8)")
        assert json.loads(out)["kind"] == "cable"


class TestErrors:
    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canon", "--bogus", "unknot"])
        assert exc.value.code == 2

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "canon", "sum(T(2,3)")
        assert code == 2
        assert "error" in err

    def test_reducible_satellite_exits_2(self, capsys):
        code, _, err = run(capsys, "canon", "splice(whitehead; unknot)")
        assert code == 2
        assert "unknot" in err

    def test_bad_trials(self, capsys):
        code, _, err = run(capsys, "axioms", "--operad", "cubes", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_samples(self, capsys, samples):
        assert_input_error(*run(capsys, "geom", "selftest", "--samples", samples))

    def test_usage_error_leaves_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canon"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "canon", "sum(T(2,5),T(2,3))") == (0, "sum(T(2,3),T(2,5))\n", "")
        dot = 'digraph splice_tree {\n  n0 [label="cable(2,3)"];\n  n1 [label="fig8"];\n  n0 -> n1;\n}\n'
        assert run(capsys, "emit", "--dot", "cable(2,3;fig8)") == (0, dot, "")
        assert build_parser() is build_parser()

    def test_non_decimal_digit_exits_2(self, capsys):
        code, out, err = run(capsys, "canon", "T(\u00b2,3)")
        assert_input_error(code, out, err)
        assert err == "error: 1:3: expected an integer\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["canon", "T(2,{})"], "error: 1:5: integer too long"),
            (["realize", "--n", "6", "--p", "1", "--q", "5", "--cycles", "({})+"], "error: cycle entry too long"),
        ],
        ids=["canon", "realize"],
    )
    def test_integer_past_the_int_string_limit_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *(arg.format("9" * 5000) for arg in argv))
        assert_input_error(code, out, err)
        assert err == message + "\n"

    def test_deep_nesting_exits_2(self, capsys):
        code, out, err = run(capsys, "canon", "mirror(" * 3000 + "T(2,3)" + ")" * 3000)
        assert_input_error(code, out, err)
        assert err.startswith("error:") and "nested deeper" in err


class TestCatalogueFlag:
    def test_custom_catalogue(self, tmp_path, capsys):
        data = {
            "knots": [{"name": "customknot", "invertible": True, "amphichiral": True}],
            "links": [],
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "--catalogue", str(path), "canon", "rev(customknot)")
        assert code == 0
        assert out.strip() == "customknot"

    def test_environment_variable(self, tmp_path, capsys, monkeypatch):
        data = {
            "knots": [{"name": "envknot", "invertible": False, "amphichiral": False}],
            "links": [],
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("SPLICE_CATALOGUE", str(path))
        code, out, _ = run(capsys, "canon", "rev(envknot)")
        assert code == 0
        assert out.strip() == "rev(envknot)"

    def test_load_catalogue_shares_the_bundled_catalogue(self, tmp_path):
        assert tree.load_catalogue() is tree.default_catalogue()
        assert tree.load_catalogue() is tree.load_catalogue()
        path = tmp_path / "cat.json"
        path.write_text(resources.files("spliceops").joinpath("data/catalogue.json").read_text())
        fresh = tree.load_catalogue(str(path))
        assert fresh is not tree.load_catalogue(str(path))
        assert fresh is not tree.default_catalogue()
        assert sorted(fresh.knots) == sorted(tree.default_catalogue().knots)

    def test_bundled_catalogue_loaded_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        load = cli.load_catalogue
        monkeypatch.setattr(cli, "load_catalogue", lambda path=None: calls.append(path) or load(path))
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        for argv in (
            ["canon", "rev(fig8)"],
            ["complexity", "fig8"],
            ["eq", "fig8", "mirror(fig8)"],
            ["emit", "--dot", "fig8"],
        ):
            assert run(capsys, *argv)[0] == 0
        assert calls == []
        path = tmp_path / "cat.json"
        path.write_text(resources.files("spliceops").joinpath("data/catalogue.json").read_text())
        monkeypatch.setenv("SPLICE_CATALOGUE", str(path))
        assert run(capsys, "canon", "rev(fig8)") == (0, "fig8\n", "")
        assert calls == [str(path)]

    @pytest.mark.parametrize(
        "content",
        [None, "{bad", '{"knots": [{"name": "k", "amphichiral": true}], "links": []}'],
        ids=["missing", "malformed", "incomplete"],
    )
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_unusable_catalogue_exits_2(self, tmp_path, capsys, monkeypatch, content, via_env):
        path = tmp_path / "cat.json"
        if content is not None:
            path.write_text(content)
        argv = ["canon", "unknot"]
        if via_env:
            monkeypatch.setenv("SPLICE_CATALOGUE", str(path))
        else:
            argv = ["--catalogue", str(path)] + argv
        code, out, err = run(capsys, *argv)
        assert_input_error(code, out, err)
        assert err.startswith("error:") and str(path) in err


def test_console_entry_subprocess():
    out1 = subprocess.run(
        [sys.executable, "-m", "spliceops.cli", "axioms", "--operad", "cubes",
         "--trials", "20", "--seed", "7"],
        capture_output=True, text=True,
    )
    out2 = subprocess.run(
        [sys.executable, "-m", "spliceops.cli", "axioms", "--operad", "cubes",
         "--trials", "20", "--seed", "7"],
        capture_output=True, text=True,
    )
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout


class TestRealizeFeasibility:
    def test_k_only_feasibility(self, capsys):
        code, out, _ = run(capsys, "realize", "--n", "10", "--p", "2", "--q", "5", "--k", "5")
        assert code == 0 and out.strip() == "feasible"
        code, out, _ = run(capsys, "realize", "--n", "10", "--p", "3", "--q", "7", "--k", "5")
        assert code == 0 and out.strip() == "infeasible"

    # n/gcd(q,n) = 2 and n/gcd(p,n) = 12: k = 10**30 is even, and k-1 is 3 mod 12
    @pytest.mark.parametrize("fixed, want", [([], "feasible"), (["--fixed"], "infeasible")])
    def test_huge_k_answers_at_once(self, capsys, fixed, want):
        start = time.perf_counter()
        args = ["realize", "--n", "12", "--p", "5", "--q", "6", "--k", str(10**30)] + fixed
        code, out, _ = run(capsys, *args)
        assert code == 0 and out.strip() == want
        assert time.perf_counter() - start < 1.0

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "realize", "--n", "10", "--p", "2", "--q", "5")
        assert code == 2
        code, _, err = run(capsys, "realize", "--n", "10", "--p", "2", "--q", "5", "--enumerate")
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--enumerate"]])
    def test_negative_k_exits_2(self, capsys, extra):
        argv = ["realize", "--n", "10", "--p", "2", "--q", "5", "--k", "-1"] + extra
        assert_input_error(*run(capsys, *argv))

    def test_thousand_cycles(self, capsys):
        cycles = " ".join(["(5)+"] * 1000)
        code, out, err = run(capsys, "realize", "--n", "5", "--p", "2", "--q", "3", "--cycles", cycles)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "ACCEPT" and len(lines) == 1001

    def test_enumerate_thousand_cycles(self, capsys):
        argv = ["realize", "--n", "5", "--p", "2", "--q", "3", "--enumerate", "--k", "5000"]
        assert run(capsys, *argv) == (0, " ".join(["(5)+"] * 1000) + "\n", "")

    # line counts and output digests taken from the multiset enumerator, which
    # needed 0.8 s and 14-18 s for these queries; the bound is generous
    @pytest.mark.parametrize(
        "k, lines, digest",
        [
            (80, 285, "e6cccc8176f6d2338e786b6a63a17f69e78fa2500e53e7ac115fe50bd41f49cc"),
            (160, 1785, "0690720fe04b51f6201c810c017bb9185781d1e271feb9bbec887f857810b812"),
        ],
    )
    def test_enumerate_large_k(self, capsys, k, lines, digest):
        start = time.perf_counter()
        code, out, err = run(capsys, "realize", "--n", "10", "--p", "2", "--q", "5", "--enumerate", "--k", str(k))
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scripts_run():
    for cmd in (
        [sys.executable, "scripts/run_axiom_sweep.py", "--trials", "40"],
        [sys.executable, "scripts/reproduce_examples.py"],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=".")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
    proc = subprocess.run(
        [sys.executable, "scripts/run_axiom_sweep.py", "--trials", "0"],
        capture_output=True, text=True, cwd=".",
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--trials must be at least 1" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_import_leaves_numpy_unloaded():
    # only `geom selftest` needs numpy, so the other verbs start without it
    code = "import sys, spliceops.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_reproduce_examples_pinned():
    # the worked examples print exact values; any changed byte changes the digest
    proc = subprocess.run(
        [sys.executable, "scripts/reproduce_examples.py"], capture_output=True, cwd="."
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == "14098b2934af3e2a4615de4fee0d3634928058a23af33a46fab93b96c877c392"
