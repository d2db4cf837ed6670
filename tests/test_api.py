"""The public surface: ``spliceops.__all__`` changes only with a line in
CHANGES.md that says so, and every name it lists resolves."""

import ast
import importlib
import pathlib
import re
import shutil
from collections import Counter, defaultdict

import pytest

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


# ---------------------------------------------------------------------------
# the lazy surface: each name resolves on use to its submodule's own object


def test_every_public_name_is_its_submodules_object():
    for name in spliceops.__all__:
        owner = importlib.import_module(f"spliceops.{spliceops._OWNER[name]}")
        assert getattr(spliceops, name) is getattr(owner, name), name
        assert name not in vars(spliceops), name  # resolved, not stored


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spliceops import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spliceops.__all__)


def test_dir_lists_every_public_name():
    assert set(spliceops.__all__) <= set(dir(spliceops))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'spliceops' has no attribute 'no_such_name'$"):
        spliceops.no_such_name
    assert not hasattr(spliceops, "no_such_name")


def test_a_rebinding_in_the_submodule_shows_through_the_package(monkeypatch):
    import spliceops.tree

    def patched(t, catalogue=None):
        return t

    monkeypatch.setattr(spliceops.tree, "canonicalize", patched)
    assert spliceops.canonicalize is patched
    monkeypatch.undo()
    assert spliceops.canonicalize is not patched


# ---------------------------------------------------------------------------
# census: every public function, class and method in src/spliceops is reached
# from code that runs outside the tests, or has a reason on this list

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spliceops"
OUTSIDE = [*sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("perfbench/**/*.py")), ROOT / "README.md"]

_GENERATOR = "builds a generator, the argument splice_graft takes"
CENSUS_ALLOWED = {
    "cubes.parse_cube": "reads the cube text form, pinned in tests/test_splice_outputs.py",
    "cubes.cubes_to_json": "the cube JSON form, pinned in tests/test_splice_outputs.py",
    "cubes.cubes_from_json": "reads the cube JSON form back",
    "overlap.overlap_to_json": "the overlap JSON form, beside the cube JSON form",
    "perm.parse_perm": "its outcomes are pinned in tests/test_splice_outputs.py",
    "tree.slot_flip": "the slot twist, the involution that canonical forms commute with",
    "tree.keychain_gen": _GENERATOR,
    "tree.seifert_gen": _GENERATOR,
    "tree.hyperbolic_gen": _GENERATOR,
    "tree.hopf_gen": _GENERATOR,
}


def _words(node):
    """The identifiers that code under node refers to: names, attributes,
    imported names and the words of its string constants, docstrings aside."""
    docstrings = {
        id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            yield from re.findall(r"\w+", n.value)


def _definitions(body, prefix=""):
    """(qualname, node) of every function, class and method under body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def _public_definitions(module):
    """The public top-level functions and classes, and the public methods of
    public classes."""
    for qualname, node in _definitions(module.body):
        parts = qualname.split(".")
        if len(parts) <= 2 and not any(part.startswith("_") for part in parts):
            yield qualname, node


def _load_time_code(body):
    """The nodes of the code that runs when body runs: its statements, the
    decorators and defaults of its functions, and whole class bodies but the
    bodies of their methods."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from (*node.decorator_list, *node.bases, *node.keywords)
            yield from _load_time_code(node.body)
        elif isinstance(node, ast.FunctionDef):
            yield from (*node.decorator_list, *node.args.defaults, *filter(None, node.args.kw_defaults))
        else:
            yield node


def _code_spans(text):
    """The code blocks and inline code spans of a markdown text."""
    return re.findall(r"```.*?```|`[^`]*`", text, re.S)


def unreferenced(src, outside, allowed=()):
    """module.qualname of each public top-level function or class, and each
    public method, in the modules under src that no code outside the tests
    reaches.  The walk starts from the code of the .py files in outside, the
    code spans of any other file in outside, the load-time code of src, every
    dunder method and the definitions named in allowed; a definition is
    reached when a root or a reached function or method names it.  Names
    are matched bare, so a name reaches every definition that bears it."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    names = []
    for path in outside:
        text = path.read_text()
        names += _words(ast.parse(text)) if path.suffix == ".py" else re.findall(r"\w+", "".join(_code_spans(text)))
    callees = defaultdict(list)  # bare name -> the functions and methods of that name
    for stem, module in modules.items():
        names += (w for node in _load_time_code(module.body) for w in _words(node))
        for qualname, node in _definitions(module.body):
            if isinstance(node, ast.ClassDef):
                continue  # its load-time code is a root already
            if re.fullmatch(r"__\w+__", node.name) or f"{stem}.{qualname}" in allowed:
                names += _words(node)
            else:
                callees[node.name].append(node)
    reached = set()
    while names:
        name = names.pop()
        if name not in reached:
            reached.add(name)
            names += (w for node in callees.pop(name, ()) for w in _words(node))
    return [
        f"{stem}.{qualname}"
        for stem, module in modules.items()
        for qualname, node in _public_definitions(module)
        if node.name not in reached
    ]


def test_every_public_definition_has_a_caller():
    found = unreferenced(SRC, OUTSIDE, CENSUS_ALLOWED)
    assert [name for name in found if name not in CENSUS_ALLOWED] == []
    # a kept name that gains a caller, or goes, leaves the list
    assert sorted(CENSUS_ALLOWED) == sorted(found)


def _mentioned_census(src, outside):
    """The census this walk replaced: a definition counted as used when any
    word of src or of outside, past its own definition, named it."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = Counter(w for module in modules.values() for w in _words(module))
    for path in outside:
        text = path.read_text()
        used.update(_words(ast.parse(text)) if path.suffix == ".py" else re.findall(r"\w+", text))
    found = []
    for stem, module in modules.items():
        for qualname, node in _public_definitions(module):
            name = qualname.rsplit(".", 1)[-1]
            if used[name] <= Counter(_words(node))[name]:
                found.append(f"{stem}.{qualname}")
    return found


def test_census_names_an_unused_definition(tmp_path):
    src = tmp_path / "spliceops"
    shutil.copytree(SRC, src)
    with open(src / "words.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef orphan(w):\n    return orphan(w)  # its own call is no caller\n"
            "\n\nclass Holder:\n    def lonely(self):\n        return self\n"
            "\n\nHOLDER = Holder()\n"
            "\n\ndef ping(w):\n    return pong(w)  # two callers of each other are no caller\n"
            "\n\ndef pong(w):\n    return ping(w)\n"
        )
    found = unreferenced(src, OUTSIDE, CENSUS_ALLOWED)
    unused = ["words.orphan", "words.Holder.lonely", "words.ping", "words.pong"]
    assert [name for name in found if name not in CENSUS_ALLOWED] == unused
    # counting mentions took the pair for used
    assert [name for name in _mentioned_census(src, OUTSIDE) if name not in CENSUS_ALLOWED] == unused[:2]
