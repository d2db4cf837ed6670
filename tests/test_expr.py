"""Grammar round-trip and parse error tests."""

import hashlib
import itertools
import random

import pytest

from spliceops.errors import ParseError
from spliceops.expr import parse_expr, print_expr
from spliceops.harness import rand_tree
from spliceops.tree import (
    Cable,
    HypLeaf,
    HypSatellite,
    Keychain,
    TorusLeaf,
    UNKNOT,
    canonicalize,
    default_catalogue,
    mirror_tree,
    reverse_tree,
)

CAT = default_catalogue()


class TestParse:
    def test_unknot(self):
        assert parse_expr("unknot") == UNKNOT

    def test_sum(self):
        t = parse_expr("sum(T(2,3),T(2,3))")
        assert t == Keychain((TorusLeaf(2, 3), TorusLeaf(2, 3)))

    def test_splice(self):
        t = parse_expr("splice(whitehead; T(2,3))")
        assert t == HypSatellite("whitehead", False, ((1, TorusLeaf(2, 3)),))

    def test_torus_normalization(self):
        assert parse_expr("T(3,2)") == TorusLeaf(2, 3)
        assert parse_expr("T(2,-3)") == TorusLeaf(2, 3, -1)

    def test_cable(self):
        assert parse_expr("cable(2,7;fig8)") == Cable(2, 7, False, HypLeaf("fig8"))

    def test_involutions(self):
        assert parse_expr("mirror(T(2,3))") == TorusLeaf(2, 3, -1)
        assert parse_expr("rev(k9_32)") == HypLeaf("k9_32", reverse=True)
        assert parse_expr("rev(mirror(k5_2))") == HypLeaf("k5_2", mirror=True, reverse=True)

    def test_whitespace_tolerated(self):
        assert parse_expr(" sum( T(2,3) ,\n T(2,5) ) ") == Keychain(
            (TorusLeaf(2, 3), TorusLeaf(2, 5))
        )

    def test_nested(self):
        t = parse_expr("splice(borromean; sum(T(2,3),fig8), cable(3,2;k5_2))")
        assert isinstance(t, HypSatellite)
        assert len(t.slots) == 2


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "sum(T(2,3)",
            "T(2 3)",
            "unknot extra",
            "sum()",
            "cable(2,3,T(2,3))",
            "mirror",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as err:
            parse_expr("sum(T(2,3),nosuchknot)")
        assert err.value.line == 1
        assert err.value.col > 1

    def test_unknown_link(self):
        with pytest.raises(ParseError):
            parse_expr("splice(nosuchlink; T(2,3))")

    def test_splice_arity_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_expr("splice(borromean; T(2,3))")
        assert "companions" in str(err.value)

    def test_bad_torus(self):
        with pytest.raises(ParseError):
            parse_expr("T(1,3)")
        with pytest.raises(ParseError):
            parse_expr("T(2,4)")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u00b9", "\u2466"])
    def test_non_decimal_digit_is_not_an_integer(self, digit):
        # str.isdigit accepts these, int() does not
        with pytest.raises(ParseError, match=r"^1:3: expected an integer$"):
            parse_expr(f"T({digit},3)")

    @pytest.mark.parametrize("text, col", [("T(2,{})", 5), ("cable(3,-{};fig8)", 9)])
    def test_integer_past_the_int_string_limit(self, text, col):
        with pytest.raises(ParseError, match=rf"^1:{col}: integer too long$"):
            parse_expr(text.format("9" * 5000))

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_expr("sum(T(2,3),\n  oops)")
        assert err.value.line == 2
        assert err.value.col == 3

    def test_error_positions_pinned(self):
        chunks = []
        for text in _malformed_corpus():
            try:
                parse_expr(text)
                chunks.append("ok")
            except ParseError as err:
                chunks.append(f"{err}|{err.line}|{err.col}")
        digest = hashlib.sha256("\0".join(chunks).encode()).hexdigest()
        assert digest == "e34fb12dc380c67e26237c14c7726ef1c2366c6cc3dfb305381cdab271cc15fc"


def _malformed_corpus():
    """Every truncation and seeded one-character mutations of the depth-2
    corpus, on one line and spread over several lines."""
    rnd = random.Random(8)
    texts = []
    for text in depth2_corpus():
        spread = text.replace(",", ",\n  ").replace(";", ";\n\t")
        for t in (text, spread):
            texts += [t[:k] for k in range(len(t))]
            for _ in range(4):
                i = rnd.randrange(len(t))
                texts.append(t[:i] + rnd.choice("(),;-\n xT9") + t[i + 1 :])
    return texts


def depth2_corpus(cat=CAT):
    """Exhaustive generator-depth-2 corpus over a compact leaf pool."""
    leaves = ["unknot", "T(2,3)", "mirror(T(2,3))", "fig8", "rev(k9_32)", "mirror(k5_2)"]
    exprs = list(leaves)
    depth1 = []
    for a, b in itertools.product(["T(2,3)", "fig8"], repeat=2):
        depth1.append(f"sum({a},{b})")
    for leaf in ["T(2,5)", "k6_1"]:
        depth1.append(f"cable(2,3;{leaf})")
        depth1.append(f"cable(3,-2;{leaf})")
        depth1.append(f"splice(whitehead; {leaf})")
    depth1.append("splice(borromean; T(2,3), fig8)")
    depth1.append("splice(chain4; fig8, T(2,3), k5_2)")
    exprs += depth1
    for inner in depth1[:8]:
        exprs.append(f"sum({inner},T(2,3))")
        exprs.append(f"mirror({inner})")
        exprs.append(f"rev({inner})")
        exprs.append(f"splice(whitehead; {inner})")
    return exprs


class TestRoundTrip:
    def test_exhaustive_depth2(self):
        for text in depth2_corpus():
            t = parse_expr(text)
            assert parse_expr(print_expr(t)) == t

    def test_canonical_trees_round_trip(self):
        rnd = random.Random(0)
        for _ in range(300):
            t = rand_tree(rnd, 2)
            assert parse_expr(print_expr(t)) == t

    def test_involution_wrappers_round_trip(self):
        rnd = random.Random(1)
        for _ in range(100):
            t = rand_tree(rnd, 1)
            for wrapped in (mirror_tree(t), reverse_tree(t), mirror_tree(reverse_tree(t))):
                assert parse_expr(print_expr(wrapped)) == wrapped

    def test_print_of_canonical_is_parseable_to_same_canonical(self):
        rnd = random.Random(2)
        for _ in range(100):
            t = rand_tree(rnd, 2)
            assert canonicalize(parse_expr(print_expr(t))) == t
