"""The ASCII expression grammar for splice trees.

    knot := "unknot" | "T(" int "," int ")" | NAME
          | "sum(" knot { "," knot } ")"
          | "cable(" int "," int ";" knot ")"
          | "splice(" NAME ";" knot { "," knot } ")"
          | "mirror(" knot ")" | "rev(" knot ")"

NAME resolves against the catalogue: bare names are hyperbolic knot leaves,
names in splice(...) are hyperbolic links.  mirror and rev apply the formal
involutions, so every printable tree round-trips through parse.
"""

from __future__ import annotations

from .errors import ParseError, StructuralError
from .tree import (
    Cable,
    Catalogue,
    HypLeaf,
    HypSatellite,
    Keychain,
    UNKNOT,
    _node,
    default_catalogue,
    mirror_tree,
    reverse_tree,
    torus,
)

# Deepest knot nesting parse_expr accepts: the input guard of the CLI for
# this recursive-descent parser, which takes a few frames per level.  The
# tree passes run on explicit stacks and take trees of any depth.
MAX_DEPTH = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at text position pos (by default the current one)."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise self.error(f"expected {ch!r}, got {got!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            raise self.error("expected a name")
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdecimal():
            raise self.error("expected an integer")
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than the interpreter converts
            raise self.error("integer too long", start) from None

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_expr(text: str, cat: Catalogue | None = None):
    """Parse an expression to a splice tree; errors carry line and column."""
    cat = cat or default_catalogue()
    sc = _Scanner(text)
    tree = _parse_knot(sc, cat, 0)
    if not sc.at_end():
        raise sc.error(f"unexpected trailing input {sc.text[sc.pos:]!r}")
    return tree


def _parse_knot(sc: _Scanner, cat: Catalogue, depth: int):
    sc.skip_ws()
    start = sc.pos
    if depth > MAX_DEPTH:
        raise sc.error(f"knots nested deeper than {MAX_DEPTH} levels")
    word = sc.name()
    if word == "unknot":
        return UNKNOT
    if word == "T":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(")")
        if abs(p) < 2 or abs(q) < 2:
            raise sc.error(f"torus knot needs |p|, |q| >= 2: T({p},{q})", start)
        try:
            return torus(p, q)
        except StructuralError as exc:
            raise sc.error(str(exc), start)
    if word == "sum":
        sc.expect("(")
        return Keychain(_parse_knots(sc, cat, depth + 1))
    if word == "cable":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(";")
        child = _parse_knot(sc, cat, depth + 1)
        sc.expect(")")
        try:
            return Cable(p, q, False, child)
        except StructuralError as exc:
            raise sc.error(str(exc), start)
    if word == "splice":
        sc.expect("(")
        name_pos = sc.pos
        name = sc.name()
        if name not in cat.links:
            raise sc.error(f"unknown hyperbolic link {name!r}", name_pos)
        entry = cat.links[name]
        sc.expect(";")
        children = _parse_knots(sc, cat, depth + 1)
        if len(children) != entry.arity:
            raise sc.error(f"{name} takes {entry.arity} companions, got {len(children)}", start)
        return HypSatellite(name, False, tuple((1, c) for c in children))
    if word in ("mirror", "rev"):
        sc.expect("(")
        child = _parse_knot(sc, cat, depth + 1)
        sc.expect(")")
        return mirror_tree(child) if word == "mirror" else reverse_tree(child)
    if word in cat.knots:
        return HypLeaf(word)
    raise sc.error(f"unknown generator {word!r}", start)


def _parse_knots(sc: _Scanner, cat: Catalogue, depth: int) -> tuple:
    """A comma-separated list of knots and the closing parenthesis."""
    knots = [_parse_knot(sc, cat, depth)]
    while sc.peek() == ",":
        sc.expect(",")
        knots.append(_parse_knot(sc, cat, depth))
    sc.expect(")")
    return tuple(knots)


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
