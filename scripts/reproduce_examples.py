#!/usr/bin/env python3
"""Reproduce the worked examples end to end and print what each one shows."""

from fractions import Fraction

from spliceops.cubes import CubesElement, LittleCube, LittleInterval, cube_compose, format_interval
from spliceops.expr import parse_expr, print_expr
from spliceops.overlap import project_to_overlap
from spliceops.perm import SignedCycleType, parse_signed_perm
from spliceops.realize import ActionParams, build_witness, check_representation
from spliceops.tree import complexity


def show(title):
    print(f"\n== {title}")


def main():
    show("exact affine composition")
    outer = CubesElement(1, [LittleCube([LittleInterval(Fraction(1, 2), Fraction(-1, 2))])])
    inner = CubesElement(1, [LittleCube([LittleInterval(Fraction(1, 2), Fraction(1, 2))])])
    out = cube_compose(outer, [inner]).cubes[0].factors[0]
    lo, hi = out.image()
    print(f"(x/2 - 1/2) o (x/2 + 1/2) = {format_interval(out)}, image [{lo}, {hi}]")

    show("projection keeps only realized height order")
    hi = LittleCube([LittleInterval(Fraction(1, 2), 0), LittleInterval(Fraction(1, 4), Fraction(1, 2))])
    lo = LittleCube([LittleInterval(Fraction(1, 2), Fraction(1, 4)), LittleInterval(Fraction(1, 4), Fraction(-1, 2))])
    flat = project_to_overlap(CubesElement(2, [hi, lo]))
    print(f"overlapping pair: constraints {sorted(flat.constraints)} (cube 2 strictly below cube 1)")

    show("canonical splice trees and complexity")
    for text in (
        "sum(T(2,3),unknot,sum(T(2,5),fig8))",
        "cable(2,3;unknot)",
        "splice(whitehead; sum(T(2,3),T(2,3)))",
        "rev(mirror(fig8))",
    ):
        tree = parse_expr(text)
        print(f"{text}  ->  {print_expr(tree)}   c = {complexity(tree)}")

    show("connected sum is a free commutative monoid at the level of forms")
    a = parse_expr("sum(T(2,3),fig8)")
    b = parse_expr("sum(fig8,T(2,3))")
    print(f"sum(T(2,3),fig8) == sum(fig8,T(2,3)): {a == b}")

    show("order-10 cyclic action (5,2): the signed 5-cycle is realizable")
    params = ActionParams(10, 5, 2, swap_roles=True)  # displayed order, swapped roles
    w = parse_signed_perm("(1 2 3 4 5)-")
    verdict = check_representation(params, w.signed_cycle_type())
    print(f"cycle string: {w.cycle_string()}, order {w.order()}")
    print(verdict.text())

    show("order-6 cyclic action (3,2) with a fixed companion circle")
    verdict = check_representation(
        ActionParams(6, 3, 2), SignedCycleType.parse("(6)+ (1)+"), require_fixed=True
    )
    print(verdict.text())
    witness = build_witness(SignedCycleType.parse("(6)+ (1)+"))
    print(f"witness: {witness.cycle_string()} with order {witness.order()} dividing 6")


if __name__ == "__main__":
    main()
