"""The benchmark tracer's contract with the program.

``perfbench/layertrace.py`` wraps each entry of its ``TARGETS`` list when it
installs: a method is read from its class's own ``__dict__`` (an inherited
method is not found there), a function is read as a module attribute.  A
refactor that moves a traced method into a base class breaks the tracer, so
this checks every entry the way the tracer reads it.  The list is read from
the benchmark's file and not edited here.
"""

import importlib
import importlib.util
from pathlib import Path

from spliceops import perm

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def unresolved_targets(targets):
    """The metric names of the entries the tracer could not wrap."""
    missing = []
    for name, module, cls, attrs, _ in targets:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls, None) if cls else None
        for attr in attrs:
            if cls:
                found = owner is not None and attr in vars(owner)
            else:
                found = callable(getattr(mod, attr, None))
            if not found:
                missing.append(name)
    return missing


def test_every_target_resolves():
    targets = _targets()
    assert targets
    assert unresolved_targets(targets) == []


def test_a_method_moved_to_a_base_class_is_named(monkeypatch):
    inverse = perm.Perm.__dict__["inverse"]
    monkeypatch.setattr(perm._ImagePerm, "inverse", inverse, raising=False)
    monkeypatch.delattr(perm.Perm, "inverse")
    assert perm.Perm((2, 3, 1)).inverse() == perm.Perm((3, 1, 2))
    assert unresolved_targets(_targets()) == ["perm.Perm.inverse"]
