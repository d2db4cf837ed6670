"""Pinned outputs of the splice-tree passes and CLI verbs.

The digests cover the CLI verbs over the whole depth-2 corpus and the tree
passes (print, JSON, DOT, node order) over seeded random trees, including
raw trees with mirrored nodes and twisted slots.  Any change of a printed
byte changes a digest.
"""

import hashlib
import random

import pytest

from spliceops.cli import main
from spliceops.errors import StructuralError
from spliceops.expr import print_expr
from spliceops.tree import (
    HypSatellite,
    Keychain,
    TorusLeaf,
    UNKNOT,
    canonicalize,
    mirror_tree,
    reverse_tree,
    sort_key,
    tree_to_dot,
    tree_to_json,
)

from oracles import rand_tree
from test_expr import depth2_corpus


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_cli_tree_verbs_pinned(capsys):
    chunks = []
    for text in depth2_corpus():
        for argv in (
            ["canon", text],
            ["canon", "--json", text],
            ["complexity", text],
            ["emit", "--dot", text],
            ["eq", text, f"mirror({text})"],
        ):
            code = main(argv)
            out = capsys.readouterr()
            chunks += [" ".join(argv), str(code), out.out, out.err]
    assert _digest(chunks) == "f31127befe7680415a33881985c9665b45d16dfe76b3c42c7464ac4b0a6d0777"


def _pin_trees():
    rnd = random.Random(2026)
    trees = []
    for _ in range(150):
        t = rand_tree(rnd, 3)
        trees += [t, mirror_tree(t), reverse_tree(t)]
        if t != UNKNOT:
            trees.append(HypSatellite("whitehead", True, ((-1, t),)))
    return trees


def test_tree_passes_pinned():
    trees = _pin_trees()
    chunks = []
    for t in trees:
        chunks += [print_expr(t), tree_to_json(t), tree_to_dot(t)]
    order = sorted(range(len(trees)), key=lambda i: sort_key(trees[i]))
    chunks.append(",".join(map(str, order)))
    assert _digest(chunks) == "a739438e0c1c5662c0638f59e09b2493e90c43a12dc57e181f34677201144bd4"


_NESTED_LIST = HypSatellite("whitehead", False, ((1, HypSatellite("whitehead", False, ((1, [1]),))),))


@pytest.mark.parametrize(
    "bad",
    [5, "T(2,3)", Keychain((TorusLeaf(2, 3), None)), _NESTED_LIST],
    ids=["int", "str", "none-in-sum", "unhashable-under-satellites"],
)
@pytest.mark.parametrize(
    "tree_pass", [canonicalize, mirror_tree, sort_key, tree_to_json, print_expr]
)
def test_non_node_raises_structural_error(tree_pass, bad):
    with pytest.raises(StructuralError, match="not a tree node"):
        tree_pass(bad)
