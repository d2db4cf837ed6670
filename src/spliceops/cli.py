"""Command line front end.

Verbs: canon, complexity, eq, axioms, realize, geom, emit.  Exit codes:
0 success, 1 property failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ParseError, ReducibilityError, StructuralError
from .expr import parse_expr, print_expr
from .geom import selftest_text
from .harness import run_axioms
from .perm import SignedCycleType
from .realize import ActionParams, check_representation, enumerate_admissible, feasible_k
from .tree import (
    _node_count,
    canonicalize,
    load_catalogue,
    tree_to_dot,
    tree_to_json,
)


def _canonical(args, *texts):
    """Parse and canonicalize each expression; the bundled catalogue is loaded once."""
    path = args.catalogue or os.environ.get("SPLICE_CATALOGUE")
    cat = load_catalogue(path)
    return [canonicalize(parse_expr(text, cat), cat) for text in texts]


def _cmd_canon(args) -> int:
    (tree,) = _canonical(args, args.expr)
    print(tree_to_json(tree) if args.json else print_expr(tree))
    return 0


def _cmd_complexity(args) -> int:
    (tree,) = _canonical(args, args.expr)
    value = _node_count(tree)  # tree is canonical by construction
    print(f'{{"complexity": {value}}}' if args.json else value)
    return 0


def _cmd_eq(args) -> int:
    left, right = _canonical(args, args.left, args.right)
    equal = "true" if left == right else "false"
    print(f'{{"equal": {equal}}}' if args.json else equal)
    return 0


def _cmd_axioms(args) -> int:
    if args.trials < 1:
        print("axioms: --trials must be at least 1", file=sys.stderr)
        return 2
    report = run_axioms(args.operad, args.trials, args.seed, corrupt=args.corrupt)
    print(report.text(), end="")
    return 0 if report.ok else 1


def _cmd_realize(args) -> int:
    if args.k is not None and args.k < 0:
        print("realize: --k must be non-negative", file=sys.stderr)
        return 2
    params = ActionParams(args.n, args.p, args.q, swap_roles=(args.convention == "swap"))
    if args.enumerate:
        if args.cycles is not None:
            print("realize: --enumerate lists the cycle types for --k and takes no --cycles", file=sys.stderr)
            return 2
        if args.k is None:
            print("realize: --enumerate requires --k", file=sys.stderr)
            return 2
        try:
            found = enumerate_admissible(params, args.k, require_fixed=args.fixed)
        except StructuralError as exc:
            print(f"realize: --enumerate: {exc}", file=sys.stderr)
            return 2
        for t in found:
            print(str(t))
        if not found:
            print("(none)")
        return 0
    if args.cycles is None:
        if args.k is not None:
            ok = feasible_k(params, args.k, fixed_component=args.fixed)
            print("feasible" if ok else "infeasible")
            return 0
        print("realize: provide --cycles, or --enumerate/--k", file=sys.stderr)
        return 2
    t = SignedCycleType.parse(args.cycles)
    if args.k is not None and args.k != t.total:
        try:
            total = str(t.total)
        except ValueError:  # more digits than the interpreter's int-string limit
            total = f"at least 10^{sys.get_int_max_str_digits()}"
        print(f"realize: --k {args.k} does not match --cycles, which has {total} circles", file=sys.stderr)
        return 2
    verdict = check_representation(params, t, require_fixed=args.fixed)
    print(verdict.text())
    return 0


def _cmd_geom(args) -> int:
    if args.samples < 1:
        print("geom: --samples must be at least 1", file=sys.stderr)
        return 2
    text, ok = selftest_text(seed=args.seed, samples=args.samples)
    print(text, end="")
    return 0 if ok else 1


def _cmd_emit(args) -> int:
    (tree,) = _canonical(args, args.expr)
    print(tree_to_dot(tree) if args.dot else tree_to_json(tree))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spliceops",
        description="Operad calculus for cubes and splicing: canonical splice "
        "trees, complexity, axiom suites, realization checks, geometry kernels.",
    )
    parser.add_argument("--catalogue", help="path to a generator catalogue JSON file")
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices  # verb name -> its subparser, read by main

    p = sub.add_parser("canon", help="canonical form of a knot expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("complexity", help="complexity of a knot expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("eq", help="are two expressions the same knot")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("axioms", help="run a seeded operad axiom suite")
    p.add_argument("--operad", choices=("cubes", "overlap", "splice"), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true", help="negative control: inject a fault")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("realize", help="signed-cycle-type realization checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cycles", help='signed cycle type, e.g. "(5)- (1)+"')
    p.add_argument("--fixed", action="store_true", help="require the fixed-component rule")
    p.add_argument("--convention", choices=("as-given", "swap"), default="as-given")
    p.add_argument("--enumerate", action="store_true", help="list admissible types for --k")
    p.add_argument("--k", type=int, help="number of companion circles")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("geom", help="numeric kernel self test")
    p.add_argument("action", choices=("selftest",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=_cmd_geom)

    p = sub.add_parser("emit", help="emit a canonical tree as DOT or JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_emit)

    return parser


def main(argv=None) -> int:
    """Run one verb.  An argv that starts with a verb name is parsed by that
    verb's subparser alone: the top-level parse would hand it the same tokens
    after scanning them all.  Usage errors exit through argparse with code 2."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is None:  # no verb first: --catalogue, -h, an unknown verb, nothing
        args = parser.parse_args(argv)
    else:
        args, extra = verb.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.catalogue = None
        args.verb = argv[0]
    try:
        return args.func(args)
    except (ParseError, StructuralError, ReducibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
