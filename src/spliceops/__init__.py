"""Exact operad calculus for little and overlapping cubes, symbolic splicing,
splice trees for long knots, and realization checks for signed cyclic actions.

Importing the package imports none of its submodules.  Each public name
resolves on use: the module ``__getattr__`` imports the submodule that owns
the name and returns that submodule's own object, keeping no copy, so a
rebinding in the submodule is seen through the package too.
"""

import importlib

__version__ = "0.1.0"

# each submodule, with the public names it exports
_EXPORTS = {
    "cubes": ("CubesElement", "LittleCube", "LittleInterval", "cube_compose", "permute_cubes"),
    "overlap": ("OverlapElement", "overlap_canonical", "overlap_compose", "project_to_overlap"),
    "perm": ("Perm", "SignedCycleType", "SignedPerm", "WreathElement", "Z2", "block_perm"),
    "realize": ("ActionParams", "admissible_cycles", "check_representation", "feasible_k"),
    "splice": ("SpliceElement", "overlap_act", "splice_act", "splice_compose", "verify_associativity"),
    "tree": ("canonicalize", "complexity", "connect_sum", "load_catalogue", "splice_graft"),
    "words": ("GroupWord", "conjugate", "reduce_word"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
