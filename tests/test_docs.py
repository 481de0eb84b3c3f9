"""The documentation names only live code: every cross-reference target in
the package's docstrings, and every backticked dotted name of the package
in the README, resolves to an attribute."""

import importlib
import re
from pathlib import Path

import pytest

import nsdeblur

SRC = Path(nsdeblur.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

#: :func:, :meth:, :class: and :data: targets, which may wrap a line
ROLE = re.compile(r":(?:func|meth|class|data):`~?([\w.\s]+?)`")

#: backticked dotted names, such as `grid.fold` or `CnsBasis.null_gap`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")

MODULES = sorted(path.stem for path in SRC.glob("*.py")
                 if path.stem not in ("__init__", "__main__"))


def lookup(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(name: str, module) -> bool:
    """True when ``name`` is an attribute path from ``module``, or from a
    module named by one of its leading parts."""
    parts = name.split(".")
    if lookup(module, parts):
        return True
    for i in range(1, len(parts)):
        try:
            base = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        if lookup(base, parts[i:]):
            return True
    return False


def role_targets(module_name):
    text = (SRC / f"{module_name}.py").read_text()
    return ["".join(t.split()) for t in ROLE.findall(text)]


@pytest.mark.parametrize("module_name", MODULES)
def test_docstring_targets_resolve(module_name):
    module = importlib.import_module(f"nsdeblur.{module_name}")
    stale = [t for t in role_targets(module_name) if not resolves(t, module)]
    assert stale == []


def test_docstrings_hold_targets():
    """The pattern finds the package's cross-references at all."""
    assert sum(len(role_targets(name)) for name in MODULES) >= 40


def test_readme_names_resolve():
    """Names of the package's modules (`grid.fold`) and of its exported
    classes (`CnsBasis.null_gap`); other dotted names, such as
    `numpy.fft` or `CHANGES.md`, are not the package's."""
    names = [name for name in DOTTED.findall(README.read_text())
             if name.split(".")[0] in MODULES
             or hasattr(nsdeblur, name.split(".")[0])]
    assert len(names) >= 15
    stale = [name for name in names
             if not resolves(f"nsdeblur.{name}", nsdeblur)]
    assert stale == []
