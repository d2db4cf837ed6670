"""The ASCII expression grammar for splice trees.

    knot := "unknot" | "T(" int "," int ")" | NAME
          | "sum(" knot { "," knot } ")"
          | "cable(" int "," int ";" knot ")"
          | "splice(" NAME ";" knot { "," knot } ")"
          | "mirror(" knot ")" | "rev(" knot ")"

NAME resolves against the catalogue: bare names are hyperbolic knot leaves,
names in splice(...) are hyperbolic links.  mirror and rev apply the formal
involutions, so every printable tree round-trips through parse.

The parser reads the text in one pass over the matches of one compiled
token regex, with the constructs it has opened on an explicit stack.  mirror(
and rev( only toggle the mirror and reverse flags in force, and every leaf and
node is built already mirrored and reversed as the flags say, so the parser
builds the tree the involutions would give without rebuilding a subtree;
print_expr runs the other way, handing each child its flags.

The one grammar loop serves two builders.  parse_expr's builds the raw tree;
the knot verbs' (``_canonical_expr``) runs each node kind's canon step of
``tree.py`` on its children's keyed (form, twin) pairs as each construct
closes, so text reaches its canonical tree with no raw tree and no second
walk: the same tree, and the same error, as ``canonicalize`` after
``parse_expr``.
"""

from __future__ import annotations

import re

from .errors import ParseError, ReducibilityError, StructuralError
from .tree import (
    Cable,
    Catalogue,
    HypLeaf,
    HypSatellite,
    Keychain,
    UNKNOT,
    _node,
    load_catalogue,
    torus,
)

# Deepest knot nesting parse_expr accepts: the CLI's limit on its input.  The
# parser keeps its open constructs on an explicit stack, and the tree passes
# take trees of any depth, so the limit guards no Python stack.
MAX_DEPTH = 100

# One token, after the whitespace before it.  A torus leaf and the heads of
# cable(...; and splice(...; are one token each; a head that does not match
# whole arrives as its bare word and is read again one token at a time, to
# find the fault.  With str patterns, \s is str.isspace, \d str.isdecimal and
# \w str.isalnum or "_"; a NAME must also start with a letter or "_".  The
# alternatives are tried in order: the commonest first, a keyword's head
# before the bare word, and each head's group is named after its keyword.
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<close>\)) | (?P<comma>,) | (?P<mirror>mirror\s*\()
      | (?P<T>T\s*\(\s*(?P<tp>-?\d+)\s*,\s*(?P<tq>-?\d+)\s*\))
      | (?P<splice>splice\s*\((?P<at>\s*)(?P<link>\w+)\s*;)
      | (?P<cable>cable\s*\(\s*(?P<cp>-?\d+)\s*,\s*(?P<cq>-?\d+)\s*;)
      | (?P<sum>sum\s*\() | (?P<rev>rev\s*\()
      | (?P<int>-?\d+) | (?P<word>\w+) | (?P<end>\Z) | (?P<char>\S)
    )""",
    re.VERBOSE,
)

# The steps of each construct's head after its word: punctuation, an integer
# (i) or a NAME (n).
_HEADS = {"T": "(i,i)", "cable": "(i,i;", "splice": "(n;", "sum": "(", "mirror": "(", "rev": "("}


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at text position pos, with its line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _is_name(word: str) -> bool:
    return word[0].isalpha() or word[0] == "_"


def _integer(text: str, tok, group: str) -> int:
    try:
        return int(tok[group])
    except ValueError:  # more digits than the interpreter converts
        raise _error(text, "integer too long", tok.start(group)) from None


class _Raw:
    """What parse_expr builds as each construct closes: the raw tree."""

    @staticmethod
    def leaf(leaf):
        return leaf

    @staticmethod
    def cable(p, q, m, child):  # the constructor checks p and q
        return Cable(p, q, m, child)

    @staticmethod
    def keychain(kids):
        return Keychain(kids)

    @staticmethod
    def satellite(entry, m, kids):
        return HypSatellite(entry.name, m, [(1, c) for c in kids])

    @staticmethod
    def result(knot):
        return knot


class _Canonical:
    """What _canonical_expr builds as each construct closes: the keyed
    (form, twin) pair of its canonical form, by its node kind's canon step
    on its children's pairs, so the canonical tree comes with no raw tree.

    A canon step that fails is raised only when the text has parsed, as if
    the tree were canonicalized after parsing: a parse error anywhere wins,
    and of the failed steps the first to close wins, which is the first the
    post-order fold would reach.  Only the satellite step can fail on a
    parsed construct (a slot that canonicalizes to the unknot); the unknot's
    pair stands in for it while the parse goes on.
    """

    def __init__(self, cat):
        self.cat = cat
        self.failed = None

    def leaf(self, leaf):
        return leaf.canon((), self.cat)

    def cable(self, p, q, m, child):  # the generator's constructor checks p and q
        return Cable(p, q, m, UNKNOT).canon((child,), self.cat)

    def keychain(self, kids):
        return Keychain.canon(kids, self.cat)

    def satellite(self, entry, m, kids):
        try:
            return HypSatellite._untwisted_canon(entry, m, kids)
        except ReducibilityError as exc:
            if self.failed is None:
                self.failed = exc
            return UNKNOT.canon((), self.cat)

    def result(self, knot):
        if self.failed is not None:
            raise self.failed
        (form, _), _ = knot
        return form


def parse_expr(text: str, cat: Catalogue | None = None):
    """Parse an expression to a splice tree; errors carry line and column."""
    return _parse(text, cat or load_catalogue(), _Raw)


def _canonical_expr(text: str, cat: Catalogue | None = None):
    """canonicalize(parse_expr(text, cat), cat), in the parser's one pass:
    the same tree, or the same error."""
    cat = cat or load_catalogue()
    return _parse(text, cat, _Canonical(cat))


def _parse(text: str, cat: Catalogue, build):
    """The grammar loop: one pass over the tokens, where build makes each
    leaf and each closed construct from its parts.

    Each open construct is a frame (its word, its start, the mirror and
    reverse flags in force at it, its children so far and its parameters) on
    an explicit stack.  mirror( and rev( toggle a flag, leaves are built
    under the flags in force, and a closing ")" builds its node under its
    frame's flags over children built under the same flags, so the tree is
    the one the formal involutions would give, with nothing rebuilt.  Each
    check runs where the text reaches it.
    """
    match = _TOKEN.match
    knots, links = cat.knots, cat.links
    leaf = build.leaf
    stack = []  # open constructs: (word, start, mirror, reverse, children, a, b)
    m = r = False  # the mirror and reverse flags in force
    pos = 0
    while True:
        tok = match(text, pos)  # a knot starts here
        kind = tok.lastgroup
        pos = tok.end()
        if len(stack) > MAX_DEPTH:
            raise _error(text, f"knots nested deeper than {MAX_DEPTH} levels", tok.start(kind))
        if kind == "mirror":
            stack.append((kind, None, m, r, None, None, None))
            m = not m
            continue
        if kind == "word":
            word = tok["word"]
            if word == "unknot":
                knot = leaf(UNKNOT)
            elif word in knots and _is_name(word):
                knot = leaf(HypLeaf(word, m, r))
            elif not _is_name(word):
                raise _error(text, "expected a name", tok.start(kind))
            elif word in _HEADS:  # the construct's head did not match whole
                raise _head_fault(text, pos, word, links)
            else:
                raise _error(text, f"unknown generator {word!r}", tok.start(kind))
        elif kind == "T":
            p, q = _integer(text, tok, "tp"), _integer(text, tok, "tq")
            if abs(p) < 2 or abs(q) < 2:
                raise _error(text, f"torus knot needs |p|, |q| >= 2: T({p},{q})", tok.start(kind))
            try:
                knot = torus(p, q, -1 if m else 1)
            except StructuralError as exc:
                raise _error(text, str(exc), tok.start(kind)) from None
            knot = leaf(knot)
        elif kind == "splice":
            name = tok["link"]
            if not _is_name(name):
                raise _error(text, "expected a name", tok.start("link"))
            if name not in links:
                raise _error(text, f"unknown hyperbolic link {name!r}", tok.start("at"))
            stack.append((kind, tok.start(kind), m, r, [], links[name], None))
            continue
        elif kind == "cable":
            p, q = _integer(text, tok, "cp"), _integer(text, tok, "cq")
            stack.append((kind, tok.start(kind), m, r, None, p, q))
            continue
        elif kind == "sum":
            stack.append((kind, None, m, r, [], None, None))
            continue
        elif kind == "rev":
            stack.append((kind, None, m, r, None, None, None))
            r = not r
            continue
        else:
            raise _error(text, "expected a name", tok.start(kind))
        while True:  # a knot ends here: close the constructs it completes
            tok = match(text, pos)
            kind = tok.lastgroup
            pos = tok.end()
            if kind == "close" and stack:
                word, start, m, r, kids, a, b = stack.pop()
                if kids is None:
                    if word == "cable":
                        try:
                            knot = build.cable(a, b, m, knot)
                        except StructuralError as exc:
                            raise _error(text, str(exc), start) from None
                    continue
                kids.append(knot)
                if word == "sum":
                    knot = build.keychain(kids)
                elif len(kids) == a.arity:
                    knot = build.satellite(a, m, kids)
                else:
                    raise _error(text, f"{a.name} takes {a.arity} companions, got {len(kids)}", start)
            elif kind == "comma" and stack and stack[-1][4] is not None:
                stack[-1][4].append(knot)
                break
            elif not stack:
                if kind == "end":
                    return build.result(knot)
                start = tok.start(kind)
                raise _error(text, f"unexpected trailing input {text[start:]!r}", start)
            else:
                got = text[tok.start(kind)] if kind != "end" else "end of input"
                raise _error(text, f"expected ')', got {got!r}", tok.start(kind))


def _head_fault(text: str, pos: int, word: str, links) -> ParseError:
    """The ParseError in the head of the construct word, read from pos one
    token at a time; the head did not match as one token, so one step fails.
    An integer too long to convert raises at once, as in the single token."""
    for step in _HEADS[word]:
        tok = _TOKEN.match(text, pos)
        kind = tok.lastgroup
        start = tok.start(kind)
        if step == "i":
            if kind != "int":
                return _error(text, "expected an integer", start + text.startswith("-", start))
            _integer(text, tok, "int")
        elif step == "n":
            name = tok["word"] if kind == "word" else kind
            if kind not in _HEADS and (kind != "word" or not _is_name(name)):
                return _error(text, "expected a name", start)
            if name not in links:
                return _error(text, f"unknown hyperbolic link {name!r}", pos)
        elif not text.startswith(step, start):
            got = text[start] if kind != "end" else "end of input"
            return _error(text, f"expected {step!r}, got {got!r}", start)
        pos = tok.end()


def print_expr(t) -> str:
    """Render a tree in the grammar; parse(print(t)) recovers the tree.

    Each node kind prints itself, mirrored and reversed as its flags say,
    and passes its children on with their own flags; the pieces are emitted
    top-down on an explicit stack.  Only leaves carry mirror and rev flags in
    the grammar, so a mirrored cable or satellite prints as mirror(...) of
    its mirror image, and a twisted slot prints its flipped child.
    """
    out = []
    todo = [(t, False, False)]  # (subtree, mirror, reverse) items and text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            node, m, r = item
            todo.extend(reversed(_node(node).expr(m, r)))
    return "".join(out)
