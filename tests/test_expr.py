"""Grammar round-trip and parse error tests."""

import hashlib
import itertools
import random
import re
import sys

import pytest

from spliceops import expr
from spliceops.errors import ParseError, ReducibilityError, StructuralError
from spliceops.expr import MAX_DEPTH, parse_expr, print_expr
from spliceops.harness import rand_tree
from spliceops.tree import (
    Cable,
    Catalogue,
    HypLeaf,
    HypSatellite,
    KnotEntry,
    Keychain,
    LinkEntry,
    TorusLeaf,
    UNKNOT,
    _same_tree,
    canonicalize,
    load_catalogue,
    mirror_tree,
    reverse_tree,
    tree_to_json,
)

from oracles import reference_parse_expr

CAT = load_catalogue()


class TestParse:
    """parse_expr returns the canonical tree of the text."""

    def test_unknot(self):
        assert parse_expr("unknot") == UNKNOT
        assert parse_expr("sum(unknot,cable(2,1;unknot))") == UNKNOT

    def test_sum(self):
        t = parse_expr("sum(T(2,3),T(2,3))")
        assert t == Keychain((TorusLeaf(2, 3), TorusLeaf(2, 3)))
        t = parse_expr("sum(fig8,unknot,sum(T(2,5),T(2,3)))")  # flattened, the unit dropped, sorted
        assert t == Keychain((TorusLeaf(2, 3), TorusLeaf(2, 5), HypLeaf("fig8")))

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
        # k5_2 is invertible, so the reverse flag drops; fig8 is amphichiral too
        assert parse_expr("rev(mirror(k5_2))") == HypLeaf("k5_2", mirror=True)
        assert parse_expr("rev(mirror(fig8))") == HypLeaf("fig8")

    def test_whitespace_tolerated(self):
        assert parse_expr(" sum( T(2,3) ,\n T(2,5) ) ") == Keychain(
            (TorusLeaf(2, 3), TorusLeaf(2, 5))
        )

    def test_nested(self):
        t = parse_expr("splice(borromean; sum(T(2,3),fig8), cable(3,2;k5_2))")
        # the slots are the least image under borromean's slot symmetries
        cable = Cable(3, 2, False, HypLeaf("k5_2"))
        assert t == HypSatellite("borromean", False, ((1, cable), (1, Keychain((TorusLeaf(2, 3), HypLeaf("fig8"))))))


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
    """print_expr writes the tree it is given: the raw parser reads it back."""

    def test_exhaustive_depth2(self):
        for text in depth2_corpus():
            t = reference_parse_expr(text)
            assert reference_parse_expr(print_expr(t)) == t

    def test_canonical_trees_round_trip(self):
        rnd = random.Random(0)
        for _ in range(300):
            t = rand_tree(rnd, 2)
            assert reference_parse_expr(print_expr(t)) == t
            assert parse_expr(print_expr(t)) == t

    def test_involution_wrappers_round_trip(self):
        rnd = random.Random(1)
        for _ in range(100):
            t = rand_tree(rnd, 1)
            for wrapped in (mirror_tree(t), reverse_tree(t), mirror_tree(reverse_tree(t))):
                assert reference_parse_expr(print_expr(wrapped)) == wrapped

    def test_print_of_canonical_is_parseable_to_same_canonical(self):
        rnd = random.Random(2)
        for _ in range(100):
            t = rand_tree(rnd, 2)
            assert canonicalize(reference_parse_expr(print_expr(t))) == t


def _nesting_texts():
    """Each construct nested to the limit and one past it, each text also cut
    short, closed once too often and with its leaf's last letters spoiled."""
    texts = []
    for depth in (MAX_DEPTH, MAX_DEPTH + 1):
        for head in ("mirror(", "rev(", "sum(fig8,", "cable(2,3;", "splice(whitehead;"):
            text = head * depth + "T(2,3)" + ")" * depth
            texts += [text, text[:-1], text + ")", text[: -depth - 2] + "x" + ")" * depth]
    return texts


# characters the scanner's str predicates and the token regex's classes could
# read differently: non-ASCII letters, digits, spaces and marks
_UNICODE_INPUTS = [
    "\u00e9",  # LATIN SMALL LETTER E WITH ACUTE
    "sum(T(2,3),\u00e9t\u00e9)",
    "T(\u0663,2)",  # ARABIC-INDIC DIGIT THREE, a decimal digit
    "cable(\uff12,-\uff13;fig8)",  # FULLWIDTH DIGITS TWO and THREE
    "T(2,\u00b2)",  # SUPERSCRIPT TWO: a digit, not a decimal
    "T(-\u00b2,3)",
    "cable(2,-\u0663;T(2,3))",
    "k6_1\u0663",
    "\xa0sum(\xa0T(2,3)\xa0,fig8\xa0)\xa0",  # NO-BREAK SPACE
    "mirror\u2003(\u2003rev(k9_32)\u2003)",  # EM SPACE
    "splice(\u3000whitehead\u3000;\u2028T(2,3))",  # IDEOGRAPHIC SPACE, LINE SEPARATOR
    "\x85fig8\x1c",  # NEXT LINE and FILE SEPARATOR are str.isspace
    "\u200bfig8",  # ZERO WIDTH SPACE is not
    "fig8\u0301",  # COMBINING ACUTE ACCENT: neither a letter nor a digit
    "\u216bT",  # ROMAN NUMERAL TWELVE: alphanumeric, not a letter
    "splice(\u216b;fig8)",
    "splice(_w\u00e9;fig8)",
    "sum(fig8,\n\xa0\u00e9)",
]


class TestReferenceParser:
    """Where the raw parser and parse_expr could read characters apart."""

    def test_names_that_are_identifiers_but_not_letters(self):
        # U+216B is an identifier start that str.isalpha rejects, so the
        # scanner could not read these catalogue names
        cat = Catalogue(
            [KnotEntry("\u216bk", True, True), KnotEntry("k\u216b", True, True)],
            [LinkEntry("\u216bl", 1, CAT.links["whitehead"].symmetries)],
        )
        texts = ["\u216bk", "k\u216b", "splice(\u216bl;k\u216b)", "mirror(k\u216b)"]
        assert compare_canonical_parse(texts, (cat,)) == 2

    def test_classes_agree_with_the_scanner_predicates(self):
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        for cls, pred in (
            (r"\s", str.isspace),
            (r"\d", str.isdecimal),
            (r"\w", lambda c: c.isalnum() or c == "_"),
        ):
            assert set(re.findall(cls, chars)) == set(filter(pred, chars)), cls


# ---------------------------------------------------------------------------
# parse_expr's one-pass canonical parse against the two passes it fuses: the
# raw parser, then canonicalize


def _outcome(run, *args):
    """("ok", run(*args)) or the error's type, message, line and column."""
    try:
        return "ok", run(*args)
    except (ParseError, StructuralError, ReducibilityError) as err:
        return type(err).__name__, str(err), getattr(err, "line", None), getattr(err, "col", None)


def compare_canonical_parse(texts, cats=(CAT,), one_pass=parse_expr):
    """Compare the one-pass canonical parse with canonicalize after
    reference_parse_expr, input by input and under each catalogue of cats:
    the same tree, node types and JSON form alike, or the same error.  The
    catalogues must name the same generators, so one reference parse serves
    them all.  A mismatch fails with the index and text of the first input
    that differs and the catalogue's index.  Returns how many inputs
    canonicalized under all of cats."""
    accepted = 0
    for i, text in enumerate(texts):
        raw = _outcome(reference_parse_expr, text, cats[0])
        ok = parsed = raw[0] == "ok"
        for j, cat in enumerate(cats):
            want = _outcome(canonicalize, raw[1], cat) if parsed else raw
            got = _outcome(one_pass, text, cat)
            same = want[0] == got[0] and (
                _same_tree(want[1], got[1]) and tree_to_json(want[1]) == tree_to_json(got[1])
                if want[0] == "ok"
                else want == got
            )
            if not same:
                raise AssertionError(f"input {i}: {text!r}: catalogue {j}: two passes {want}, one pass {got}")
            ok = ok and want[0] == "ok"
        accepted += ok
    return accepted


class TestOnePassCanonicalParse:
    def test_depth2_corpus(self):
        assert compare_canonical_parse(depth2_corpus()) == len(depth2_corpus())

    def test_malformed_corpus(self):
        texts = _malformed_corpus()
        assert 0 < compare_canonical_parse(texts) < len(texts) // 2

    def test_unicode_inputs(self):
        assert 0 < compare_canonical_parse(_UNICODE_INPUTS) < len(_UNICODE_INPUTS)

    def test_nesting_limit(self):
        texts = _nesting_texts()
        assert 0 < compare_canonical_parse(texts) < len(texts)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("splice(whitehead; unknot)", "satellite slot of whitehead received the unknot"),
            # a parse error after a failed canon step wins
            ("sum(splice(whitehead; unknot), cable(2,4;fig8))", "1:32: cable parameters need"),
            ("splice(whitehead; sum(unknot,unknot)) x", "1:39: unexpected trailing input"),
            ("sum(splice(whitehead; unknot), nosuch)", "1:32: unknown generator"),
            # of two failed steps, the first to close wins
            ("sum(splice(whitehead; unknot), splice(chain4; fig8, unknot, fig8))", "satellite slot of whitehead"),
            ("sum(splice(chain4; fig8, unknot, fig8), splice(whitehead; unknot))", "satellite slot of chain4"),
            ("splice(whitehead; splice(borromean; fig8, cable(3,1;unknot)))", "satellite slot of borromean"),
        ],
    )
    def test_a_failed_canon_step_raises_after_the_parse(self, text, error):
        assert compare_canonical_parse([text]) == 0
        assert str(_outcome(parse_expr, text, CAT)[1]).startswith(error)

    def test_negative_control_leaf_step(self, monkeypatch):
        class KeepsReverse(HypLeaf):
            def canon(self, pairs, cat):  # the form keeps the reverse flag
                ((form, _), twin) = HypLeaf.canon(self, pairs, cat)
                kept = HypLeaf(self.name, form.mirror, self.reverse)
                return (kept, kept.key(())), twin

        monkeypatch.setattr(expr, "HypLeaf", KeepsReverse)
        first = re.escape("'rev(sum(T(2,3),fig8))': catalogue 0: two passes ")
        with pytest.raises(AssertionError, match=rf"^input \d+: {first}"):
            compare_canonical_parse(depth2_corpus())
