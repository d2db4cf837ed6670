"""Pinned outputs of the word, splice, cube and overlap layers.

The digests cover seeded splice composites (plain and with a dropped
conjugator, outer arity up to 32, some outers and arguments from
overlapping cubes), both word actions, the text and JSON forms of cubes,
affine maps and overlap elements, and cycle-notation parsing with its error
messages.  Any change of a printed byte changes a digest.
"""

import hashlib
import random

from spliceops.cubes import (
    AffineMap,
    CubesElement,
    cubes_to_json,
    format_affine,
    format_cube,
    format_interval,
    parse_affine,
    parse_cube,
    parse_interval,
)
from spliceops.errors import StructuralError
from spliceops.harness import (
    rand_cube,
    rand_disjoint_element,
    rand_overlap_element,
    rand_splice_element,
    rand_word,
)
from spliceops.overlap import overlap_to_json
from spliceops.perm import SignedCycleType, parse_perm, parse_signed_perm
from spliceops.splice import include_overlap, overlap_act, splice_act, splice_compose, splice_to_json
from spliceops.words import format_word


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def _element(rnd, dim, arity, tag):
    """A splicing element, from overlapping cubes of dimension ``dim`` one time in three."""
    if rnd.random() < 1 / 3:
        return include_overlap(rand_overlap_element(rnd, dim, arity))
    return rand_splice_element(rnd, arity, tag, nonempty_base=rnd.random() < 0.5)


def test_splice_layer_pinned():
    rnd = random.Random(2026)
    chunks = []
    for _ in range(150):
        dim = rnd.randint(1, 2)
        k = rnd.choice((rnd.randint(0, 4), rnd.randint(5, 32)))
        outer = _element(rnd, dim, k, "J")
        args = [_element(rnd, dim, rnd.randint(0, 2), f"L{a}") for a in range(k)]
        for corrupt in (False, True):
            chunks.append(splice_to_json(splice_compose(outer, args, corrupt=corrupt)))
        words = [rand_word(rnd, 3) for _ in range(k)]
        chunks.append(format_word(splice_act(outer, words)))
        elem = rand_overlap_element(rnd, dim, rnd.randint(0, 8))
        words = [rand_word(rnd, 3) for _ in range(elem.arity)]
        chunks += [format_word(overlap_act(elem, words)), overlap_to_json(elem)]
    assert _digest(chunks) == "8dc1edbc0114d07f1b133e2a541f33ec8cee144c27d326ede463f725be165f5e"


def _outcome(parse, text) -> str:
    try:
        return repr(parse(text))
    except (StructuralError, ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_text_forms_pinned():
    rnd = random.Random(2027)
    chunks = []
    for _ in range(100):
        dim = rnd.randint(1, 3)
        elem = rand_disjoint_element(rnd, dim, rnd.randint(0, 4))
        cube = rand_cube(rnd, dim)
        affine = AffineMap(cube.as_affine().inverse().axes + ((3, -2),))
        chunks += [cubes_to_json(elem), format_cube(cube), format_affine(affine)]
        chunks += [format_interval(f) for f in cube.factors]
        chunks.append(repr(parse_cube(format_cube(cube))))
        chunks.append(repr(parse_affine(format_affine(affine))))
    for text in ("1/2*x+1/2", " 1 * x - 0 ", "2*x+0", "1/2*x", "-1/2*x+0", "1/0*x+0", ""):
        chunks += [_outcome(parse_interval, text), _outcome(parse_affine, text)]
    chunks.append(_outcome(parse_affine, "1/2*x+1/4,3*x-2"))
    chunks.append(_outcome(parse_affine, "1/2*x+1/4,,3*x-2"))
    chunks.append(repr(CubesElement(1, [parse_cube("1/2*x-1/2"), parse_cube("1/2*x+1/2")])))
    assert _digest(chunks) == "53c92b1fbdec3341f81c9338942fc6c133176ec76b063073bfd688fb40ed1764"


def test_cycle_notation_pinned():
    texts = [
        "", "()", " () ", "(1 3 2)(4)", "(1 3 2) (4) ", "(1 2)+", "(0 1)", "(1 2)(2 3)",
        "(1 2", "1 2", "(1 2 3)- (4)+", "(1 -3 -2)+", "(-1 2)", "(1 0)", "(1 2)-(3)",
        "(5)- (1)+", "(5)-(1)+(2)", "(5 1)-", "(a)", "( 3 )  ( 2 )-", "()-",
    ]
    chunks = []
    for text in texts:
        chunks += [
            _outcome(parse_perm, text),
            _outcome(parse_signed_perm, text),
            _outcome(SignedCycleType.parse, text),
        ]
    # "()" reads as the empty type in all three notations, as the empty
    # signed cycle type prints
    assert chunks[5] == chunks[8] == "SignedCycleType(pairs=())"
    assert _digest(chunks) == "77f033ba515ac85c19cb3e5db10cbb07953ae5a9779e55bfaa57f62e8d8c2ec3"
