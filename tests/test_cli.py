"""CLI behaviour: round trips, reproducibility, exit codes."""

import argparse
import hashlib
import json
import random
import re
import subprocess
import sys
import time
from importlib import resources

import pytest

from spliceops import tree
from spliceops.cli import build_parser, main
from spliceops.errors import ParseError, ReducibilityError, StructuralError
from spliceops.realize import _ENUMERATE_MAX_CYCLES
from spliceops.tree import canonicalize

from oracles import reference_parse_expr
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
            assert canonicalize(reference_parse_expr(expr)) == reference_parse_expr(expr)
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

    def test_enumerate_k_0_prints_the_empty_type(self, capsys):
        code, out, err = run(capsys, "realize", "--n", "3", "--p", "1", "--q", "1", "--enumerate", "--k", "0")
        assert (code, out, err) == (0, "()\n", "")

    def test_empty_cycles_read_back(self, capsys):
        argv = ["realize", "--n", "3", "--p", "1", "--q", "1"]
        assert run(capsys, *argv, "--cycles", "()") == run(capsys, *argv, "--cycles", "")
        code, out, err = run(capsys, *argv, "--cycles", "()", "--k", "0")
        assert code == 0 and out.strip() and err == ""

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

    def test_geom_selftest_fails_an_unchecked_property(self, capsys):
        # the one sample at seed 375 lies within 1e-3 of the pole, so no sample
        # checks the two properties read in the stereographic chart
        code, out, _ = run(capsys, "geom", "selftest", "--samples", "1", "--seed", "375")
        assert code == 1
        assert "  conjugation: not checked on any sample (budget 1e-09) FAIL\n" in out
        assert "  stereo_round_trip: not checked on any sample (budget 1e-10) FAIL\n" in out
        assert "  unit_norm: max error" in out and out.endswith("result: FAIL\n")

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

    # the knot verbs canonicalize while they parse, yet a parse error still
    # wins over a satellite slot that canonicalizes to the unknot, and the
    # first expression's error wins over the second's
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["canon", "sum(splice(whitehead; unknot), cable(2,4;fig8))"],
             "1:32: cable parameters need gcd(p,q) = 1 and p not dividing q: (2, 4)"),
            (["canon", "splice(whitehead; sum(unknot,unknot)) x"], "1:39: unexpected trailing input 'x'"),
            (["eq", "splice(whitehead; unknot)", "sum(T(2,3)"], "satellite slot of whitehead received the unknot"),
            (["canon", "cable(2,4; junk)"], "1:12: unknown generator 'junk'"),
        ],
    )
    def test_which_error_wins(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

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
        assert tree.load_catalogue() is tree.load_catalogue()
        path = tmp_path / "cat.json"
        path.write_text(resources.files("spliceops").joinpath("data/catalogue.json").read_text())
        fresh = tree.load_catalogue(str(path))
        assert fresh is not tree.load_catalogue(str(path))
        assert fresh is not tree.load_catalogue()
        assert sorted(fresh.knots) == sorted(tree.load_catalogue().knots)

    def test_bundled_catalogue_loaded_once(self, tmp_path, capsys, monkeypatch):
        tree.load_catalogue()  # the bundled catalogue is read by now
        calls = []
        read = tree._read_catalogue
        monkeypatch.setattr(tree, "_read_catalogue", lambda path: calls.append(path) or read(path))
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

    @staticmethod
    def _bundled_copy(tmp_path, section, name, change):
        """A copy of the bundled catalogue with change applied to one entry."""
        data = json.loads(resources.files("spliceops").joinpath("data/catalogue.json").read_text())
        (entry,) = [e for e in data[section] if e["name"] == name]
        change(entry)
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(data))
        return path

    def test_bundled_copy_keeps_mirror_flags(self, tmp_path, capsys):
        path = self._bundled_copy(tmp_path, "knots", "k5_2", lambda e: e.update(amphichiral=False))
        assert run(capsys, "--catalogue", str(path), "canon", "mirror(k5_2)") == (0, "mirror(k5_2)\n", "")

    @pytest.mark.parametrize(
        "section, name, field, value, kind",
        [
            ("knots", "k5_2", "amphichiral", "false", "boolean"),  # once loaded as True
            ("knots", "fig8", "invertible", 1, "boolean"),
            ("links", "borromean", "arity", 1.5, "integer"),  # once loaded as 1
            ("links", "borromean", "arity", True, "integer"),
            ("links", "whitehead", "outer", "1", "integer"),
            ("links", "borromean", "perm", [2.0, 1], "integer"),
            ("links", "chain4", "signs", [1, True, 1], "integer"),
            ("knots", "fig8", "name", 5, "string"),
            ("links", "whitehead", "name", None, "string"),
        ],
    )
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, section, name, field, value, kind):
        def change(entry):
            if field in ("outer", "perm", "signs"):
                entry["symmetries"][0][field] = value
            else:
                entry[field] = value

        path = self._bundled_copy(tmp_path, section, name, change)
        code, out, err = run(capsys, "--catalogue", str(path), "canon", "mirror(k5_2)")
        assert_input_error(code, out, err)
        named = value if field == "name" else name
        assert err.startswith(f"error: bad catalogue {path}: catalogue entry {named!r}: ")
        assert f"{field} must be a JSON {kind}, got " in err

    @pytest.mark.parametrize(
        "section, name, other",
        [
            ("knots", "fig8", {"invertible": False, "amphichiral": False}),
            ("links", "whitehead", {"symmetries": []}),
        ],
    )
    def test_duplicate_name_exits_2(self, tmp_path, capsys, section, name, other):
        data = json.loads(resources.files("spliceops").joinpath("data/catalogue.json").read_text())
        (entry,) = [e for e in data[section] if e["name"] == name]
        data[section].append({**entry, **other})  # a second entry by the name, with other symmetry data
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "--catalogue", str(path), "canon", "mirror(fig8)")
        assert_input_error(code, out, err)
        assert err == f"error: bad catalogue {path}: duplicate catalogue name {name!r}\n"

    def test_link_arity_over_the_bound_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cat.json"
        for arity in (tree.MAX_LINK_ARITY + 1, 10**8):
            path.write_text(json.dumps({"knots": [], "links": [{"name": "big", "arity": arity}]}))
            code, out, err = run(capsys, "--catalogue", str(path), "canon", "T(2,3)")
            assert_input_error(code, out, err)
            bound = f"arity must be at most {tree.MAX_LINK_ARITY}, got {arity}"
            assert err == f"error: bad catalogue {path}: catalogue entry 'big': {bound}\n"
        path.write_text(json.dumps({"knots": [], "links": [{"name": "big", "arity": tree.MAX_LINK_ARITY}]}))
        assert run(capsys, "--catalogue", str(path), "canon", "T(2,3)") == (0, "T(2,3)\n", "")

    @pytest.mark.parametrize("arity", [0, -3])
    def test_link_arity_below_one_names_the_entry(self, tmp_path, capsys, arity):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"links": [{"name": "zero", "arity": arity, "notes": "x"}]}))
        code, out, err = run(capsys, "--catalogue", str(path), "canon", "T(2,3)")
        assert_input_error(code, out, err)
        assert err == f"error: bad catalogue {path}: catalogue entry 'zero': arity must be at least 1, got {arity}\n"

    @pytest.mark.parametrize("content", ["[]", '"knots"', "null"])
    def test_top_level_not_an_object_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cat.json"
        path.write_text(content)
        code, out, err = run(capsys, "--catalogue", str(path), "canon", "fig8")
        assert_input_error(code, out, err)
        assert err == f"error: bad catalogue {path}: the top level must be a JSON object\n"


# ---------------------------------------------------------------------------
# equivalence: main hands an argv that starts with a verb to that verb's
# subparser; the reference is the full top-level parse it replaced


def _run_verb(args):
    try:
        return args.func(args)
    except (ParseError, StructuralError, ReducibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _reference_main(argv=None):
    return _run_verb(build_parser().parse_args(argv))


def _main_without_leftover_check(argv):
    """A main that parses a verb line with the verb's own parser and drops
    the tokens it leaves over: the negative control of the equivalence test."""
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:
        return _run_verb(parser.parse_args(argv))
    args, _ = verb.parse_known_args(argv[1:])
    args.catalogue, args.verb = None, argv[0]
    return _run_verb(args)


def _observe(capsys, entry, argv):
    """(exit code, stdout, stderr) of one call; usage errors and help exit
    through SystemExit."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _compare_mains(capsys, entry, argvs):
    """Compare entry with the reference argv by argv; a mismatch fails with
    the index of the first argv that differs.  Returns the exit codes seen."""
    codes = []
    for i, argv in enumerate(argvs):
        want = _observe(capsys, _reference_main, argv)
        got = _observe(capsys, entry, argv)
        if want != got:
            raise AssertionError(f"argv {i}: {argv!r}: reference {want!r}, got {got!r}")
        codes.append(want[0])
    return codes


REALIZE_NPQ = ["--n", "10", "--p", "2", "--q", "5"]

# every verb, well-formed
WELL_FORMED_ARGVS = [
    ["canon", "sum(T(2,5),T(2,3))"],
    ["canon", "--json", "splice(borromean;fig8,rev(k9_32))"],
    ["complexity", "sum(T(2,3),T(2,3))"],
    ["complexity", "cable(2,3;fig8)", "--json"],
    ["eq", "sum(T(2,3),T(2,5))", "sum(T(2,5),T(2,3))"],
    ["eq", "--json", "T(2,3)", "mirror(T(2,3))"],
    ["axioms", "--operad", "cubes", "--trials", "3", "--seed", "4"],
    ["axioms", "--operad", "splice", "--trials", "2", "--seed", "1", "--corrupt"],
    ["realize", *REALIZE_NPQ, "--cycles", "(5)-"],
    ["realize", *REALIZE_NPQ, "--enumerate", "--k", "5"],
    ["realize", *REALIZE_NPQ, "--k", "5", "--fixed"],
    ["geom", "selftest", "--samples", "20", "--seed", "3"],
    ["emit", "--dot", "cable(2,3;fig8)"],
    ["emit", "--json", "sum(T(2,3),fig8)"],
]

# well-formed verb lines with malformed inputs of the benchmark's kinds
INPUT_ERROR_ARGVS = [
    ["canon", "sum(T(2,3),frobnicate)"],
    ["complexity", "T(2,4)"],
    ["emit", "--json", "cable(2,4;fig8)"],
    ["canon", "splice(borromean;fig8)"],
    ["complexity", "splice(whitehead;sum(unknot,rev(unknot)))"],
    ["emit", "--json", "sum(T(2,3),fig8"],
    ["canon", "sum(T(2,3),fig8))"],
    ["realize", "--n", "0", "--p", "1", "--q", "1", "--k", "5"],
    ["realize", "--n", "6", "--p", "1", "--q", "5", "--cycles", "(6)+ (x)-"],
]


def _equivalence_argvs(catalogue):
    """Argvs over every dispatch path: well-formed verbs, help, missing and
    extra positionals, --opt=value, abbreviations, --catalogue on either side
    of the verb, --, unknown verbs, an empty argv and malformed inputs of the
    kinds the benchmark generates."""
    return [
        *WELL_FORMED_ARGVS,
        # help after a verb, and before any
        *([verb, flag] for verb in ("canon", "complexity", "eq", "axioms", "realize", "geom", "emit")
          for flag in ("-h", "--help")),
        ["canon", "fig8", "--help"],
        ["-h"],
        ["--help", "canon"],
        # a missing or an extra positional
        ["canon"],
        ["eq", "fig8"],
        ["geom"],
        ["emit", "--dot"],
        ["canon", "T(2,3)", "T(2,5)"],
        ["eq", "fig8", "k5_2", "k6_1"],
        ["geom", "selftest", "again"],
        ["axioms", "--operad", "cubes", "surplus"],
        # unknown, malformed and mistyped options
        ["canon", "--bogus", "unknot"],
        ["canon", "-x", "fig8"],
        ["canon", "-5"],
        ["emit", "--dot", "--json", "fig8"],
        ["axioms", "--operad", "knots"],
        ["axioms", "--operad", "cubes", "--trials", "many"],
        ["realize", "--n", "6", "--p", "1"],
        # --opt=value
        ["axioms", "--operad=overlap", "--trials=2", "--seed=5"],
        ["realize", "--n=10", "--p=2", "--q=5", "--cycles=(5)- (2)+", "--k=7"],
        ["canon", "--json=yes", "fig8"],
        ["--catalogue=" + catalogue, "canon", "rev(customknot)"],
        # abbreviations
        ["canon", "--js", "fig8"],
        ["emit", "--d", "fig8"],
        ["realize", *REALIZE_NPQ, "--enum", "--k", "5"],
        ["realize", "--n", "10", "--p", "5", "--q", "2", "--cycles", "(5)-", "--conv", "swap"],
        ["realize", *REALIZE_NPQ, "--c", "(5)-"],
        ["realize", *REALIZE_NPQ, "--fix", "--k", "3"],
        ["--cat", catalogue, "canon", "customknot"],
        # --catalogue before and after the verb
        ["--catalogue", catalogue, "canon", "rev(customknot)"],
        ["--catalogue", catalogue, "eq", "customknot", "rev(customknot)"],
        ["canon", "--catalogue", catalogue, "rev(customknot)"],
        ["canon", "rev(customknot)", "--catalogue", catalogue],
        ["--catalogue"],
        ["--catalogue", catalogue],
        # --
        ["canon", "--", "fig8"],
        ["canon", "--json", "--", "fig8"],
        ["canon", "fig8", "--"],
        ["eq", "--", "fig8", "--json"],
        ["--", "canon", "fig8"],
        ["canon", "--", "fig8", "k5_2"],
        # an unknown verb, a verb in another case, an empty argv
        ["frobnicate"],
        ["frobnicate", "T(2,3)"],
        ["Canon", "fig8"],
        [],
        # malformed inputs of the benchmark's kinds
        *INPUT_ERROR_ARGVS,
        ["frobnicate", "sum(T(2,3),fig8)"],
    ]


def _leftover(capsys, subparser, args):
    """The arguments a verb's subparser leaves over; none if it exits."""
    try:
        return subparser.parse_known_args(args)[1]
    except SystemExit:
        return []
    finally:
        capsys.readouterr()


@pytest.fixture
def custom_catalogue(tmp_path):
    data = {
        "knots": [{"name": "customknot", "invertible": True, "amphichiral": True}],
        "links": [],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestVerbDispatch:
    def test_matches_full_parse(self, capsys, monkeypatch, custom_catalogue):
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        codes = _compare_mains(capsys, main, _equivalence_argvs(custom_catalogue))
        assert {0, 1, 2} <= set(codes)

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, custom_catalogue):
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        for argv in (["canon", "fig8"], ["canon", "fig8", "extra"], ["canon", "-h"], [],
                     ["--catalogue", custom_catalogue, "canon", "rev(customknot)"]):
            monkeypatch.setattr(sys, "argv", ["spliceops", *argv])
            _compare_mains(capsys, main, [None])

    def test_negative_control(self, capsys, monkeypatch, custom_catalogue):
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        argvs = _equivalence_argvs(custom_catalogue)
        verbs = build_parser().verbs
        first = next(i for i, argv in enumerate(argvs) if argv and argv[0] in verbs
                     and _leftover(capsys, verbs[argv[0]], argv[1:]))
        with pytest.raises(AssertionError, match=rf"^argv {first}: "):
            _compare_mains(capsys, _main_without_leftover_check, argvs)


# ---------------------------------------------------------------------------
# the verb readers: a seeded argv fuzzer compared with the reference, a
# reader that also takes option prefixes as its negative control, and a check
# that well-formed lines never reach argparse

FUZZ_SEED = 20240611
FUZZ_PER_VERB = 300

# every int is at most 3, so axioms --trials and geom --samples stay cheap
_FUZZ_INTS = ("0", "1", "2", "3", "03", "-1", "-5")
_FUZZ_NON_INTS = ("x", "1.5", "0x3", "", "-x", "-")
_FUZZ_WORDS = ("cubes", "overlap", "splice", "as-given", "swap", "selftest", "knots", "Swap")
_FUZZ_EXPRS = ("fig8", "T(2,3)", "sum(T(2,3),fig8)", "cable(2,3;fig8)", "rev(customknot)",
               "T(2,4)", "sum(T(2,3)", "frobnicate", "-fig8")
_FUZZ_CYCLES = ("(5)-", "(5)- (2)+", "(1)+", "(x)-", "-(5)")
_FUZZ_ANY = _FUZZ_INTS + _FUZZ_NON_INTS + _FUZZ_WORDS + _FUZZ_EXPRS + _FUZZ_CYCLES


def _fuzz_value(rng, action):
    """A value for action: mostly of its own kind, sometimes of any kind."""
    if rng.random() < 0.2:
        return rng.choice(_FUZZ_ANY)
    if action.choices is not None:
        return rng.choice(action.choices)
    if action.type is int:
        return rng.choice(_FUZZ_INTS)
    return rng.choice(_FUZZ_CYCLES if action.option_strings else _FUZZ_EXPRS)


def _fuzz_line(rng, parser, name):
    """A well-formed line of the verb name: its required arguments, some of
    its optional ones and one member of each required group, options in a
    random order and positionals in theirs.  An option with a default above
    3, such as axioms --trials or geom --samples, is always given."""
    verb = parser.verbs[name]
    actions = [a for a in verb._actions if a.option_strings != ["-h", "--help"]]
    grouped = {a for g in verb._mutually_exclusive_groups for a in g._group_actions}
    chosen = [a for a in actions if a.required or (type(a.default) is int and a.default > 3)
              or (a not in grouped and rng.random() < 0.4)]
    chosen += [rng.choice(g._group_actions) for g in verb._mutually_exclusive_groups]
    pieces = [[a.option_strings[0]] + ([] if a.nargs == 0 else [_fuzz_value(rng, a)])
              for a in chosen if a.option_strings]
    positionals = [a for a in chosen if not a.option_strings]
    pieces += [None] * len(positionals)
    rng.shuffle(pieces)
    values = iter(_fuzz_value(rng, a) for a in positionals)
    argv = [name]
    for piece in pieces:
        argv += piece if piece is not None else [next(values)]
    return argv


def _fuzz_mutate(rng, parser, argv, catalogue):
    """argv with one change that argparse reads another way, or rejects."""
    verb = parser.verbs[argv[0]]
    at = rng.randint(1, len(argv))
    options = [i for i, t in enumerate(argv) if t in verb._option_string_actions]
    kind = rng.randrange(11)
    if kind == 0 and options:  # --opt=value
        i = rng.choice(options)
        return argv[:i] + [argv[i] + "=" + (argv[i + 1] if i + 1 < len(argv) else "")] + argv[i + 2:]
    if kind == 1 and options:  # an abbreviation
        i = rng.choice(options)
        return argv[:i] + [argv[i][:rng.randint(2, max(2, len(argv[i]) - 1))]] + argv[i + 1:]
    if kind == 2:
        return argv[:at] + [rng.choice(("--", "-"))] + argv[at:]
    if kind == 3:
        return argv[:at] + [rng.choice(("-h", "--help"))] + argv[at:]
    if kind == 4:  # a repeated flag or option
        action = rng.choice([a for a in verb._actions if a.option_strings])
        piece = [rng.choice(action.option_strings)] + ([] if action.nargs == 0 else [_fuzz_value(rng, action)])
        return argv[:at] + piece + argv[at:]
    if kind == 5:
        return argv[:at] + ["--dot", "--json"] + argv[at:]
    if kind == 6 and len(argv) > 1:  # a missing value or positional
        i = rng.randrange(1, len(argv))
        return argv[:i] + argv[i + 1:]
    if kind == 7:  # an extra positional
        return argv[:at] + [rng.choice(_FUZZ_EXPRS)] + argv[at:]
    if kind == 8:
        return ["--catalogue", catalogue] + argv
    if kind == 9:
        return argv[:at] + ["--catalogue", catalogue] + argv[at:]
    return argv[:at] + [rng.choice(("--bogus", "-x", "--jsonx"))] + argv[at:]


def _fuzz_argvs(catalogue, seed=FUZZ_SEED, per_verb=FUZZ_PER_VERB):
    """Seeded argvs for every verb: a well-formed line with up to three
    changes, half of them with none."""
    rng = random.Random(seed)
    parser = build_parser()
    argvs = []
    for name in parser.verbs:
        for _ in range(per_verb):
            argv = _fuzz_line(rng, parser, name)
            for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
                if argv and argv[0] in parser.verbs:
                    argv = _fuzz_mutate(rng, parser, argv, catalogue)
            argvs.append(argv)
    return argvs


def _prefix_reader(parser, name):
    """The reader of the verb name, taking a token that begins exactly one of
    its option strings as that option string; -h and --help are none of them."""
    read = parser.readers[name]
    names = [s for a in parser.verbs[name]._actions if a.option_strings != ["-h", "--help"]
             for s in a.option_strings]

    def read_prefixes(tokens):
        expanded = []
        for token in tokens:
            matches = [s for s in names if s.startswith(token)]
            expanded.append(matches[0] if len(matches) == 1 else token)
        return read(expanded)

    return read_prefixes


def _main_reading_prefixes(argv):
    """main with readers that also take option prefixes: the negative control
    of the fuzzer.  Argparse reads -- as the end of the options and a lone -
    as a positional, but both begin --json."""
    parser = build_parser()
    readers = parser.readers
    parser.readers = {name: _prefix_reader(parser, name) for name in readers}
    try:
        return main(argv)
    finally:
        parser.readers = readers


def _misread(capsys, parser, argv):
    """Does the prefix-taking reader read argv to a namespace that argparse
    does not give, or give at all?"""
    if not argv or argv[0] not in parser.verbs:
        return False
    got = _prefix_reader(parser, argv[0])(argv[1:])
    if got is None:
        return False
    try:
        want, extra = parser.verbs[argv[0]].parse_known_args(argv[1:])
    except SystemExit:
        return True
    finally:
        capsys.readouterr()
    return bool(extra) or want != got


class TestVerbReader:
    def test_fuzz_matches_full_parse(self, capsys, monkeypatch, custom_catalogue):
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        argvs = _fuzz_argvs(custom_catalogue)
        assert len(argvs) >= 2000
        codes = _compare_mains(capsys, main, argvs)
        assert {0, 1, 2} <= set(codes)
        # both paths carry a good share of the lines
        parser = build_parser()
        read = sum(argv[0] in parser.verbs and parser.readers[argv[0]](argv[1:]) is not None for argv in argvs)
        assert len(argvs) / 4 < read < len(argvs) * 3 / 4

    def test_negative_control(self, capsys, monkeypatch, custom_catalogue):
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        argvs = _fuzz_argvs(custom_catalogue)
        parser = build_parser()
        first = next(i for i, argv in enumerate(argvs) if _misread(capsys, parser, argv))
        with pytest.raises(AssertionError, match=rf"^argv {first}: {re.escape(repr(argvs[first]))}: "):
            _compare_mains(capsys, _main_reading_prefixes, argvs)

    def test_well_formed_lines_skip_argparse(self, capsys, monkeypatch):
        monkeypatch.delenv("SPLICE_CATALOGUE", raising=False)
        argvs = [*WELL_FORMED_ARGVS, *INPUT_ERROR_ARGVS, ["realize", "--n", "15", "--p", "-5", "--q", "-1", "--k", "4"]]
        want = [_observe(capsys, _reference_main, argv) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed line")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert [_observe(capsys, main, argv) for argv in argvs] == want


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

    def test_enumerate_cycle_limit(self, capsys):
        head = ["realize", "--n", "5", "--p", "2", "--q", "3", "--enumerate", "--k"]
        limit = _ENUMERATE_MAX_CYCLES
        assert run(capsys, *head, str(5 * limit)) == (0, " ".join(["(5)+"] * limit) + "\n", "")
        # no type has a total length off the multiples of 5, however large
        for k in (5 * limit + 1, 10**30 + 1):
            assert run(capsys, *head, str(k)) == (0, "(none)\n", "")
        for k in (5 * limit + 5, 10**30):
            code, out, err = run(capsys, *head, str(k))
            assert_input_error(code, out, err)
            assert err.startswith(f"realize: --enumerate: the types for k = {k} have more than {limit} ")

    def test_enumerate_output_limit(self, capsys):
        # every type for k = 19998 has at least 9999 cycles, within the limit,
        # but the (2)+ and (1)+ mixes make about 10^4 types and 10^8 cycles
        start = time.perf_counter()
        head = ["realize", "--n", "2", "--p", "1", "--q", "2", "--enumerate", "--k"]
        code, out, err = run(capsys, *head, "19998")
        assert time.perf_counter() - start < 1.0
        assert_input_error(code, out, err)
        assert err.startswith("realize: --enumerate: the types for k = 19998 have more than ")
        code, out, err = run(capsys, *head, "446")  # 224 types, 74928 cycles
        assert (code, err) == (0, "") and len(out.splitlines()) == 224

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


def test_package_imports_only_stdlib():
    # spliceops has no runtime dependency; modules the site hooks load come
    # before the snapshot, so they do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import spliceops, spliceops.cli, spliceops.geom\n"
        "code = spliceops.cli.main(['geom', 'selftest', '--samples', '20'])\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(code, sorted(added - set(sys.stdlib_module_names) - {'spliceops'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_reproduce_examples_pinned():
    # the worked examples print exact values; any changed byte changes the digest
    proc = subprocess.run(
        [sys.executable, "scripts/reproduce_examples.py"], capture_output=True, cwd="."
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == "14098b2934af3e2a4615de4fee0d3634928058a23af33a46fab93b96c877c392"
