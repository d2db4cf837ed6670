"""Command line front end.

Verbs: canon, complexity, eq, axioms, realize, geom, emit.  Exit codes:
0 success, 1 property failure, 2 usage or input error.

Each verb's options are declared once, on its argparse subparser.  A plain
line of a verb, made of its exact option strings, their values and its
positionals, is read by a small reader built from that subparser's actions;
every other line goes to argparse, so help text, usage errors and exit codes
are argparse's own, byte for byte.

The module imports only what the knot and realize verbs run; ``axioms`` and
``geom`` import their own stacks (``harness``, ``geom``) when they run.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ParseError, ReducibilityError, StructuralError
from .expr import _canonical_expr, print_expr
from .perm import SignedCycleType
from .realize import ActionParams, check_representation, enumerate_admissible, feasible_k
from .tree import (
    _node_count,
    canonicalize,  # no verb calls it; bound for perfbench, whose tracer wraps and checks it here
    load_catalogue,
    tree_to_dot,
    tree_to_json,
)


def _canonical(args, *texts):
    """The canonical tree of each expression, each from the parser's one
    pass; the bundled catalogue is loaded once.  The first text that fails
    raises before the next is read."""
    path = args.catalogue or os.environ.get("SPLICE_CATALOGUE")
    cat = load_catalogue(path)
    return [_canonical_expr(text, cat) for text in texts]


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
    from .harness import run_axioms

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
    from .geom import selftest_text

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
    parser.verbs = sub.choices  # verb name -> its subparser

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

    parser.readers = {name: _verb_reader(verb) for name, verb in parser.verbs.items()}
    return parser


_READABLE = (argparse._StoreAction, argparse._StoreTrueAction, argparse._HelpAction)


def _verb_reader(verb):
    """The reader of the plain argvs of the subparser verb, built from its
    own actions; None if verb declares an action other than store,
    store_true or help, or anything else the reader does not model.

    The reader returns the namespace argparse would, or None for an argv it
    does not take, which argparse then parses.  It takes an argv when each
    token is an exact option string of a store or store_true action, that
    option's value, or a positional; when every value converts with its
    action's type and lies in its choices; when every required argument is
    there; and when no mutually exclusive group is broken.  A value that
    starts with a prefix character is taken only if it looks like a negative
    number, which argparse takes as an argument when no option string starts
    with a dash and a digit or a dot.  So --, =, abbreviations, -h and
    unknown options all go to argparse.
    """
    actions = verb._actions
    if verb.fromfile_prefix_chars is not None or any(
        type(a) not in _READABLE
        or a.nargs not in (None, 0)
        or (isinstance(a.default, str) and a.type is not None)  # argparse converts it if unused
        or any(s[1:2].isdecimal() or s[1:2] == "." for s in a.option_strings)
        for a in actions
    ):
        return None
    options = {s: a for a in actions if type(a) is not argparse._HelpAction for s in a.option_strings}
    positionals = [a for a in actions if not a.option_strings]
    convert = {a: verb._registry_get("type", a.type, a.type) for a in actions}
    required = {a for a in actions if a.required}
    groups = [set(g._group_actions) for g in verb._mutually_exclusive_groups]
    required_groups = [set(g._group_actions) for g in verb._mutually_exclusive_groups if g.required]
    defaults = {}
    for a in actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults.setdefault(a.dest, a.default)
    for dest, value in verb._defaults.items():
        defaults.setdefault(dest, value)
    prefix = tuple(verb.prefix_chars)
    negative = verb._negative_number_matcher

    def is_argument(token):
        return not token.startswith(prefix) or negative.match(token) is not None

    def read(argv):
        args = argparse.Namespace()
        values = vars(args)  # filled in place: Namespace(**values) costs a setattr a key
        values.update(defaults)
        seen, non_default = set(), set()
        i, n, end = 0, 0, len(argv)
        while i < end:
            token = argv[i]
            i += 1
            action = options.get(token)
            if action is None:
                if n == len(positionals) or not is_argument(token):
                    return None
                action = positionals[n]
                n += 1
            elif action.nargs == 0:
                values[action.dest] = action.const
                seen.add(action)
                non_default.add(action)
                continue
            elif i == end or not is_argument(argv[i]):
                return None
            else:
                token = argv[i]
                i += 1
            try:
                value = convert[action](token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            seen.add(action)
            if value is not action.default:  # argparse's own test for a group member
                non_default.add(action)
        if not required <= seen:
            return None
        if any(len(g & non_default) > 1 for g in groups) or any(not g & non_default for g in required_groups):
            return None
        return args

    return read


def main(argv=None) -> int:
    """Run one verb.  A plain line of a verb, an argv that starts with the
    verb's name, is read by that verb's reader.  Any other argv is parsed
    whole by argparse, which hands the verb the same tokens, prints help
    and usage errors, and exits with code 2 on the latter."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    read = parser.readers.get(argv[0]) if argv else None
    args = read(argv[1:]) if read else None
    if args is None:
        args = parser.parse_args(argv)
    else:
        args.catalogue = None
        args.verb = argv[0]
    try:
        return args.func(args)
    except (ParseError, StructuralError, ReducibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
