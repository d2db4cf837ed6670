"""Exact operad calculus for little and overlapping cubes, symbolic splicing,
splice trees for long knots, and realization checks for signed cyclic actions."""

from .cubes import CubesElement, LittleCube, LittleInterval, cube_compose, permute_cubes
from .overlap import OverlapElement, overlap_canonical, overlap_compose, project_to_overlap
from .perm import Perm, SignedCycleType, SignedPerm, WreathElement, Z2, block_perm
from .realize import ActionParams, admissible_cycles, check_representation, feasible_k
from .splice import SpliceElement, overlap_act, splice_act, splice_compose, verify_associativity
from .tree import canonicalize, complexity, connect_sum, load_catalogue, splice_graft
from .words import GroupWord, conjugate, reduce_word

__version__ = "0.1.0"

__all__ = [
    "ActionParams",
    "CubesElement",
    "GroupWord",
    "LittleCube",
    "LittleInterval",
    "OverlapElement",
    "Perm",
    "SignedCycleType",
    "SignedPerm",
    "SpliceElement",
    "WreathElement",
    "Z2",
    "admissible_cycles",
    "block_perm",
    "canonicalize",
    "check_representation",
    "complexity",
    "conjugate",
    "connect_sum",
    "cube_compose",
    "feasible_k",
    "load_catalogue",
    "overlap_act",
    "overlap_canonical",
    "overlap_compose",
    "permute_cubes",
    "project_to_overlap",
    "reduce_word",
    "splice_act",
    "splice_compose",
    "splice_graft",
    "verify_associativity",
]
