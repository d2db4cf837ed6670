"""Which modules each entry point loads, each checked in a fresh interpreter.

The package root imports no submodule; ``spliceops.cli`` imports only what
the knot and realize verbs run, and ``axioms`` and ``geom`` import their own
stacks when they run."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CLI_MODULES = [
    "spliceops",
    "spliceops.cli",
    "spliceops.errors",
    "spliceops.expr",
    "spliceops.perm",
    "spliceops.realize",
    "spliceops.tree",
]

# runs each step of argv[1] in turn and prints, as its last line, the modules
# each step added to sys.modules; modules the site hooks load come before
_PROBE = """
import json, sys
seen = set(sys.modules)
added = []
for step in json.loads(sys.argv[1]):
    exec(step)
    added.append(sorted(set(sys.modules) - seen))
    seen.update(sys.modules)
print(json.dumps(added))
"""


def modules_added(steps, src=SRC, flags=()):
    """For each code step, run in order in one fresh interpreter that imports
    spliceops from src, the sorted names of the modules it loaded."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE, json.dumps(steps)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def package_modules(names):
    return [name for name in names if name.partition(".")[0] == "spliceops"]


def cli_import_mismatch(src=SRC):
    """None, or how the package modules that ``import spliceops.cli`` loads
    differ from CLI_MODULES."""
    (added,) = modules_added(["import spliceops.cli"], src)
    got = package_modules(added)
    extra, missing = sorted(set(got) - set(CLI_MODULES)), sorted(set(CLI_MODULES) - set(got))
    if extra or missing:
        return f"import spliceops.cli loads {extra} beyond its verbs' modules and lacks {missing}"
    return None


def test_package_root_loads_no_submodule():
    (added,) = modules_added(["import spliceops"])
    assert package_modules(added) == ["spliceops"]


def test_cli_loads_only_what_its_knot_verbs_run():
    assert cli_import_mismatch() is None


def test_axioms_and_geom_load_their_own_stacks():
    _, axioms, geom = modules_added([
        "from spliceops.cli import main",
        "main(['axioms', '--operad', 'cubes', '--trials', '1'])",
        "main(['geom', 'selftest', '--samples', '5'])",
    ])
    stack = ["spliceops.cubes", "spliceops.harness", "spliceops.overlap", "spliceops.splice", "spliceops.words"]
    assert package_modules(axioms) == stack
    assert package_modules(geom) == ["spliceops.geom"]


def test_bundled_catalogue_loads_without_importlib_resources():
    # without site hooks, which may load importlib.resources themselves
    steps = ["import spliceops.cli", "spliceops.cli.load_catalogue()"]
    added = modules_added(steps, flags=("-S",))
    assert "importlib.resources" not in [name for step in added for name in step]


def test_import_check_names_an_eager_stack(tmp_path):
    src = tmp_path / "spliceops"
    shutil.copytree(SRC / "spliceops", src)
    cli = src / "cli.py"
    text = cli.read_text()
    anchor = "from .expr import parse_expr, print_expr\n"
    assert anchor in text
    cli.write_text(text.replace(anchor, anchor + "from .harness import run_axioms\n"))
    failure = cli_import_mismatch(tmp_path)
    assert failure is not None
    assert "spliceops.harness" in failure
