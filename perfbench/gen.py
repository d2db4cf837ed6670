"""Seeded input generation for the three benchmark workloads.

Run as its own process, before any timed process starts:

    python3 perfbench/gen.py WORKLOAD SEED COUNT OUT.jsonl

It writes plain data only (numbers, strings, lists), so no program object or
cache built here can reach the timed loop.  The file is JSON lines: a header
(workload, seed, input shares), then one op per line.  The timed process
keeps each op as its line of text and decodes it just before running it: a
string is not tracked by the garbage collector, so the inputs do not make the
program's own collections slower.  The same seed and count give the
same file.  Where an expected output needs the program (the canonical form a
``canon`` rewrite must print, the splice elements of ``wide_splice``), it is
computed here, in this separate process.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
import sys

GOLDEN = (math.sqrt(5) - 1) / 2

AXIOM_SUITES = ("cubes", "overlap", "splice", "assoc")
# Acceptance proportions 10:10:10:10:1 (criteria 1-3), one block per 41 ops.
AXIOM_BLOCK = [s for s in AXIOM_SUITES for _ in range(10)] + ["equiv"]
# One control per 50 ops of each corruptible suite: 2 per 100, as in criterion 2.
CONTROL_EVERY_BLOCKS = 5

# A quarter of the ops have cube letters.  k16 holds more than half of the
# ops, so the median op lies well inside one class, not on a class boundary.
WIDE_BLOCK = ["cubes_k16"] * 2 + ["k16"] * 5 + ["k32"]

KNOT_BLOCK = (
    ["canon"] * 7
    + ["complexity"] * 7
    + ["eq"] * 7
    + ["emit"] * 7
    + ["realize_k"] * 4
    + ["realize_cycles"] * 3
    + ["realize_enumerate"] * 3
    + ["malformed"] * 2
)

SATELLITES = ("whitehead", "borromean", "chain4", "cable")


class Stratified:
    """Low-discrepancy stream in [0, 1): every prefix covers the interval evenly,
    so a short run sees the same spread of sizes as a long one."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def next(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u


def schedule(rng: random.Random, block):
    """Class labels in shuffled blocks, so every prefix keeps the block's mix.

    Blocks are drawn lazily from the same generator as the ops, so the first
    ops do not depend on how many are generated."""
    while True:
        b = list(block)
        rng.shuffle(b)
        yield from b


# ---------------------------------------------------------------------------
# axioms


def gen_axioms(seed: int, count: int):
    rng = random.Random(f"perfbench:axioms:{seed}")
    ops = []
    while len(ops) < count:
        # One control per suite in each span of 5 blocks: 1 in 50 of its ops.
        span = []
        for _ in range(CONTROL_EVERY_BLOCKS):
            block = list(AXIOM_BLOCK)
            rng.shuffle(block)
            span.extend(block)
        controls = {rng.choice([i for i, c in enumerate(span) if c == s]) for s in AXIOM_SUITES}
        ops.extend([cls, rng.getrandbits(40), i in controls] for i, cls in enumerate(span))
    ops = ops[:count]
    return {"ops": ops, "shares": {"controls": sum(op[2] for op in ops) / count}}


# ---------------------------------------------------------------------------
# wide_splice


def _word_text(rng: random.Random, min_len: int = 0, length: int | None = None) -> str:
    """A random word of at most 2 knot/group letters, in the program's text form."""
    letters = []
    for _ in range(rng.randint(min_len, 2) if length is None else length):
        name = rng.choice(("f1", "f2", "f3", "g1", "g2"))
        kind = "K" if name.startswith("f") else "G"
        letters.append(f"{kind}.{name}" + rng.choice(("", "^-1")))
    return " ".join(letters) or "e"


def _balanced(rng: random.Random, k: int):
    """Sizes 0-2 in equal shares and random order, so the work of one op
    varies little from op to op."""
    sizes = [i % 3 for i in range(k)]
    rng.shuffle(sizes)
    return sizes


def _splice_data(rng: random.Random, k: int, tag: str, nonempty_base: bool):
    """Plain data of a splicing element: each puck is a puck symbol times a
    random word, constraints oriented by a random height witness."""
    sigma = list(range(1, k + 1))
    rng.shuffle(sigma)
    height = {img: pos for pos, img in enumerate(sigma, start=1)}
    constraints = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if rng.random() < 0.5:
                constraints.append([i, j] if height[i] < height[j] else [j, i])
    pucks = []
    for i, length in enumerate(_balanced(rng, k), start=1):
        word = _word_text(rng, length=length)
        pucks.append(f"P.{tag}s{i}" + ("" if word == "e" else " " + word))
    return {
        "base": _word_text(rng, 1 if nonempty_base else 0),
        "pucks": pucks,
        "constraints": sorted(constraints),
        "witness": sigma,
    }


def gen_wide_splice(seed: int, count: int):
    from spliceops import harness
    from spliceops.splice import include_overlap, splice_to_json

    rng = random.Random(f"perfbench:wide_splice:{seed}")
    dims = itertools.cycle((1, 2))
    ops = []
    for cls in itertools.islice(schedule(rng, WIDE_BLOCK), count):
        if cls == "cubes_k16":
            elem = harness.rand_overlap_element(rng, next(dims), 16)
            outer = splice_to_json(include_overlap(elem))
        else:
            k = 16 if cls == "k16" else 32
            outer = json.dumps(_splice_data(rng, k, "J", True), sort_keys=True)
        k = len(json.loads(outer)["pucks"])
        mid_ar = _balanced(rng, k)
        mids = [_splice_data(rng, j, f"L{a}", True) for a, j in enumerate(mid_ar)]
        inner_ar = _balanced(rng, sum(mid_ar))
        inners = [_splice_data(rng, j, f"M{n}", False) for n, j in enumerate(inner_ar)]
        ops.append(
            {
                "cls": cls,
                "outer": outer,
                "mids": [json.dumps(m, sort_keys=True) for m in mids],
                "inners": [json.dumps(m, sort_keys=True) for m in inners],
            }
        )
    cube_share = sum(op["cls"] == "cubes_k16" for op in ops) / max(count, 1)
    return {"ops": ops, "shares": {"cube_letter_ops": cube_share}}


# ---------------------------------------------------------------------------
# knot_queries: a small parser and printer of the expression grammar, so
# rewrites and node counts are the benchmark's own, not the program's.


def parse_ast(text: str):
    pos = 0

    def ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        ws()
        if text[pos : pos + 1] != ch:
            raise ValueError(f"expected {ch!r} at {pos} in {text!r}")
        pos += 1

    def name():
        nonlocal pos
        ws()
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def integer():
        nonlocal pos
        ws()
        start = pos
        if text[pos : pos + 1] == "-":
            pos += 1
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return int(text[start:pos])

    def peek():
        ws()
        return text[pos : pos + 1]

    def knot():
        word = name()
        if word == "unknot":
            return ["unknot"]
        if word == "T":
            expect("(")
            p = integer()
            expect(",")
            q = integer()
            expect(")")
            return ["T", p, q]
        if word in ("sum", "splice"):
            expect("(")
            head = []
            if word == "splice":
                head = [name()]
                expect(";")
            kids = [knot()]
            while peek() == ",":
                expect(",")
                kids.append(knot())
            expect(")")
            return [word] + head + [kids]
        if word == "cable":
            expect("(")
            p = integer()
            expect(",")
            q = integer()
            expect(";")
            kid = knot()
            expect(")")
            return ["cable", p, q, kid]
        if word in ("mirror", "rev"):
            expect("(")
            kid = knot()
            expect(")")
            return [word, kid]
        if not word:
            raise ValueError(f"expected a name at {pos} in {text!r}")
        return ["leaf", word]

    tree = knot()
    ws()
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return tree


def print_ast(t) -> str:
    kind = t[0]
    if kind == "unknot":
        return "unknot"
    if kind == "T":
        return f"T({t[1]},{t[2]})"
    if kind == "leaf":
        return t[1]
    if kind == "sum":
        return "sum(" + ",".join(print_ast(c) for c in t[1]) + ")"
    if kind == "splice":
        return f"splice({t[1]};" + ",".join(print_ast(c) for c in t[2]) + ")"
    if kind == "cable":
        return f"cable({t[1]},{t[2]};{print_ast(t[3])})"
    return f"{kind}({print_ast(t[1])})"


def node_count(t) -> int:
    """Nodes of a printed canonical tree: mirror/rev are flags, not nodes."""
    kind = t[0]
    if kind == "unknot":
        return 0
    if kind in ("T", "leaf"):
        return 1
    if kind == "sum":
        return 1 + sum(node_count(c) for c in t[1])
    if kind == "splice":
        return 1 + sum(node_count(c) for c in t[2])
    if kind == "cable":
        return 1 + node_count(t[3])
    return node_count(t[1])


def _torus(rng):
    while True:
        p, q = rng.randint(2, 5), rng.randint(3, 11)
        if p < q and math.gcd(p, q) == 1:
            return ["T", p, q]


def _cable_params(rng):
    while True:
        p, q = rng.randint(2, 3), rng.choice((-7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7))
        if math.gcd(p, abs(q)) == 1 and abs(q) % p != 0:
            return p, q


def _flags(rng, t, rate=0.25):
    if rng.random() < rate:
        t = ["mirror", t]
    if rng.random() < rate:
        t = ["rev", t]
    return t


def _leaf(rng, knots):
    if rng.random() < 0.5:
        return _flags(rng, _torus(rng))
    return _flags(rng, ["leaf", rng.choice(knots)])


def _shallow_prime(rng, knots):
    roll = rng.random()
    if roll < 0.6:
        return _leaf(rng, knots)
    if roll < 0.85:
        p, q = _cable_params(rng)
        return _flags(rng, ["cable", p, q, _leaf(rng, knots)])
    return _flags(rng, ["splice", "whitehead", [_leaf(rng, knots)]])


def _keychain_source(rng, knots):
    return ["sum", [_shallow_prime(rng, knots) for _ in range(rng.randint(4, 8))]]


def _satellite_source(rng, knots, arity, depth):
    """A spine of ``depth`` satellite or cable nodes; off-spine slots get leaves."""
    t = _leaf(rng, knots)
    for _ in range(depth):
        gen = rng.choice(SATELLITES)
        if gen == "cable":
            p, q = _cable_params(rng)
            t = ["cable", p, q, t]
        else:
            kids = [_leaf(rng, knots) for _ in range(arity[gen])]
            kids[rng.randrange(len(kids))] = t
            t = ["splice", gen, kids]
        t = _flags(rng, t, 0.2)
    return t


def _rewrite_once(rng, t):
    """One knot-preserving rewrite at a random node."""
    paths = []

    def walk(node, path):
        paths.append(path)
        kind = node[0]
        if kind == "sum":
            for i, c in enumerate(node[1]):
                walk(c, path + ((1, i),))
        elif kind == "splice":
            for i, c in enumerate(node[2]):
                walk(c, path + ((2, i),))
        elif kind == "cable":
            walk(node[3], path + ((3, None),))
        elif kind in ("mirror", "rev"):
            walk(node[1], path + ((1, None),))

    walk(t, ())
    path = rng.choice(paths)
    node = t
    for field, idx in path:
        node = node[field] if idx is None else node[field][idx]
    roll = rng.random()
    if node[0] == "sum" and roll < 0.5:
        kids = list(node[1])
        rng.shuffle(kids)
        if len(kids) >= 3:
            i = rng.randrange(len(kids) - 1)
            kids[i : i + 2] = [["sum", kids[i : i + 2]]]
        new = ["sum", kids]
    elif roll < 0.65:
        new = ["mirror", ["mirror", node]]
    elif roll < 0.8:
        new = ["rev", ["rev", node]]
    else:
        pair = [node, ["unknot"]]
        rng.shuffle(pair)
        new = ["sum", pair]
    if not path:
        return new
    out = copy.deepcopy(t)
    parent = out
    for field, idx in path[:-1]:
        parent = parent[field] if idx is None else parent[field][idx]
    field, idx = path[-1]
    if idx is None:
        parent[field] = new
    else:
        parent[field][idx] = new
    return out


def rewrite(rng, t):
    for _ in range(rng.randint(1, 3)):
        t = _rewrite_once(rng, t)
    return t


def feasible(n, p, q, swap, k, fixed) -> bool:
    """The counting condition by shortest paths over residues (Boecker and
    Liptak 2007): t is a non-negative combination of the values iff t is at
    least the least such combination in its residue class mod the smallest value."""
    rp, rq = (q, p) if swap else (p, q)
    gp, gq = math.gcd(abs(rp), n), math.gcd(abs(rq), n)
    if k < 0:
        return False
    if fixed:
        if gq <= 1 or k < 1:
            return False
        target, values = k - 1, {n, n // gp}
    else:
        target, values = k, {n, n // gq, n // gp}
    m = min(values)
    dist = [math.inf] * m
    dist[0] = 0
    done = [False] * m
    for _ in range(m):
        r = min((d, r) for r, d in enumerate(dist) if not done[r])[1]
        done[r] = True
        for v in values:
            s = (r + v) % m
            dist[s] = min(dist[s], dist[r] + v)
    return target >= dist[target % m]


def _coprime_params(rng):
    while True:
        p, q = rng.randint(-7, 7), rng.randint(-7, 7)
        if p and q and math.gcd(p, q) == 1:
            return p, q


def _three_value_params(rng):
    """n = a*b*m and p = ±a, q = ±b for distinct primes a and b.

    Then gcd(p, n) = a and gcd(q, n) = b, so the counting condition combines
    three distinct values, n, n/a and n/b.  Its cost is then about 3k and
    depends on k alone, so the slowest --k queries of a run do not depend on
    which parameters the seed happened to pair with the largest k."""
    a, b = rng.sample((2, 3, 5, 7), 2)
    n = a * b * rng.randint(1, 5)
    return n, a * rng.choice((1, -1)), b * rng.choice((1, -1))


def _realize_head(rng, n):
    p, q = _coprime_params(rng)
    argv = ["realize", "--n", str(n), "--p", str(p), "--q", str(q)]
    swap = rng.random() < 0.3
    if swap:
        argv += ["--convention", "swap"]
    fixed = rng.random() < 0.25
    if fixed:
        argv.append("--fixed")
    return argv, p, q, swap, fixed


MALFORMED_KINDS = (
    "unknown_generator",
    "bad_torus",
    "bad_cable",
    "splice_arity",
    "unknot_slot",
    "unbalanced",
    "trailing",
    "bad_realize",
    "bad_cycles",
    "unknown_verb",
)


def _malformed(rng, text, u):
    kind = MALFORMED_KINDS[int(u * len(MALFORMED_KINDS))]
    verb = rng.choice(("canon", "complexity", "emit"))
    head = [verb, "--json"] if verb == "emit" else [verb]
    if kind == "unknown_generator":
        return kind, head + [f"sum({text},frobnicate)"]
    if kind == "bad_torus":
        return kind, head + [rng.choice(("T(1,5)", "T(2,4)", "T(3,9)"))]
    if kind == "bad_cable":
        return kind, head + [f"cable(2,4;{text})"]
    if kind == "splice_arity":
        return kind, head + [f"splice(borromean;{text})"]
    if kind == "unknot_slot":
        return kind, head + [f"splice(whitehead;sum(unknot,{rng.choice(('unknot', 'rev(unknot)'))}))"]
    if kind == "unbalanced":
        return kind, head + [text[:-1]]
    if kind == "trailing":
        return kind, head + [text + ")"]
    if kind == "bad_realize":
        return kind, ["realize", "--n", "0", "--p", "1", "--q", "1", "--k", "5"]
    if kind == "bad_cycles":
        return kind, ["realize", "--n", "6", "--p", "1", "--q", "5", "--cycles", "(6)+ (x)-"]
    return kind, ["frobnicate", text]


def gen_knot_queries(seed: int, count: int):
    from spliceops.expr import parse_expr, print_expr
    from spliceops.tree import canonicalize, load_catalogue

    cat = load_catalogue()
    knots = sorted(cat.knots)
    arity = {name: cat.links[name].arity for name in cat.links}
    rng = random.Random(f"perfbench:knot_queries:{seed}")
    s_kind, s_depth, s_k, s_enum, s_bad, s_same = (Stratified(rng) for _ in range(6))
    depth_hist = [0] * 6
    sources = []

    def source():
        keychain = s_kind.next() < 0.5
        if keychain:
            t, depth = _keychain_source(rng, knots), 0
        else:
            depth = 1 + int(s_depth.next() * 5)
            t = _satellite_source(rng, knots, arity, depth)
        depth_hist[depth] += 1
        canon = print_expr(canonicalize(parse_expr(print_ast(t), cat), cat))
        ast = parse_ast(canon)
        if print_ast(ast) != canon:
            raise RuntimeError(f"benchmark printer disagrees with {canon!r}")
        sources.append(canon)
        return canon, ast

    ops = []
    for cls in itertools.islice(schedule(rng, KNOT_BLOCK), count):
        op = {"cls": cls}
        if cls in ("canon", "complexity", "emit"):
            canon, ast = source()
            text = print_ast(rewrite(rng, ast))
            if cls == "canon":
                op["argv"], op["expect"] = ["canon", text], canon
            elif cls == "complexity":
                op["argv"], op["expect"] = ["complexity", text], node_count(ast)
            else:
                fmt = rng.choice(("--json", "--dot"))
                op["argv"], op["expect"] = ["emit", fmt, text], node_count(ast)
        elif cls == "eq":
            canon, ast = source()
            left = print_ast(rewrite(rng, ast))
            if s_same.next() < 0.5:
                other, other_ast = canon, ast
            else:
                other, other_ast = source()
            right = print_ast(rewrite(rng, other_ast))
            op["argv"], op["expect"] = ["eq", left, right], canon == other
        elif cls == "realize_k":
            n, p, q = _three_value_params(rng)
            argv = ["realize", "--n", str(n), "--p", str(p), "--q", str(q)]
            swap = rng.random() < 0.3
            if swap:
                argv += ["--convention", "swap"]
            k = int(10 ** (6 * s_k.next()))
            op["argv"] = argv + ["--k", str(k)]
            op["expect"] = feasible(n, p, q, swap, k, False)
        elif cls == "realize_enumerate":
            argv, *_ = _realize_head(rng, rng.randint(2, 12))
            k = 1 + int(24 * s_enum.next())
            op["argv"], op["expect"] = argv + ["--enumerate", "--k", str(k)], k
        elif cls == "realize_cycles":
            n = rng.randint(2, 30)
            argv, *_ = _realize_head(rng, n)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            cycles = [(rng.choice(divisors), rng.choice("+-")) for _ in range(rng.randint(1, 4))]
            op["argv"] = argv + ["--cycles", " ".join(f"({l}){s}" for l, s in cycles)]
            op["expect"] = len(cycles)
        else:
            canon, ast = source()
            kind, op["argv"] = _malformed(rng, print_ast(rewrite(rng, ast)), s_bad.next())
            op["expect"] = kind
        ops.append(op)
    trees = sum(depth_hist)
    shares = {
        "tree_inputs": trees,
        "satellite_depth_ge3": sum(depth_hist[3:]) / max(trees, 1),
        "keychain_heavy": depth_hist[0] / max(trees, 1),
        "distinct_sources": len(set(sources)) / max(len(sources), 1),
    }
    return {"ops": ops, "shares": shares}


GENERATORS = {
    "axioms": gen_axioms,
    "wide_splice": gen_wide_splice,
    "knot_queries": gen_knot_queries,
}


def encode(workload: str, seed: int, data: dict) -> str:
    header = {"workload": workload, "seed": seed, "shares": data["shares"]}
    return "\n".join([json.dumps(header)] + [json.dumps(op) for op in data["ops"]]) + "\n"


def main(argv) -> int:
    workload, seed, count, out = argv[1], int(argv[2]), int(argv[3]), argv[4]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(encode(workload, seed, GENERATORS[workload](seed, count)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
