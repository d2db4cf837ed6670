"""The public surface: ``spliceops.__all__`` changes only with a line in
CHANGES.md that says so, and every name it lists resolves."""

import spliceops

PUBLIC = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC) == 32
    assert sorted(spliceops.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in spliceops.__all__:
        assert getattr(spliceops, name, None) is not None, name
