"""Importing the package must stay cheap: ``scipy.signal`` costs about
0.8 s and ``scipy.fft`` 30-40 ms per process, and the package needs
neither (its only FFT is ``numpy.fft``).  Nor does importing it start a
thread: the image optimizers' worker starts on first use."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_out_slow_scipy_modules():
    probe = ("import sys, threading, nsdeblur; print(sorted(m for m in "
             "('scipy.signal', 'scipy.fft') if m in sys.modules), "
             "threading.active_count())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] 1"



SCRIPTS = sorted((SRC.parent / "demos").glob("*.py")) + sorted(
    (SRC.parent / "perfbench").glob("*.py"))


def package_references(tree: ast.AST):
    """(line, dotted name, keyword arguments) of every package name a
    script reaches: each ``from nsdeblur[.mod] import X``, each attribute
    read through a name bound to the package or one of its modules, and
    the keywords of each call made through either."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nsdeblur":
                    bound[alias.asname or alias.name] = alias.name
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "nsdeblur"):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                yield node.lineno, name, []
                bound[alias.asname or alias.name] = name
    keywords = {id(node.func): [k.arg for k in node.keywords if k.arg]
                for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield (node.lineno, f"{bound[node.value.id]}.{node.attr}",
                   keywords.get(id(node), []))
        elif (isinstance(node, ast.Name) and node.id in bound
              and id(node) in keywords):
            yield node.lineno, bound[node.id], keywords[id(node)]


def resolve(dotted: str):
    """The package module or module attribute ``dotted`` names, or None."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        pass
    owner, _, attr = dotted.rpartition(".")
    try:
        return getattr(importlib.import_module(owner), attr, None)
    except ImportError:
        return None


def unknown_keywords(fn, keywords) -> set[str]:
    params = inspect.signature(fn).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return set()
    return set(keywords) - {p.name for p in params}


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_demo_and_benchmark_names_resolve(script):
    """The demos and the benchmark are not run by this suite, so every
    package name and keyword argument they use is checked here."""
    text = script.read_text()
    refs = list(package_references(ast.parse(text)))
    assert refs or "nsdeblur" not in text
    lost = []
    for line, name, keywords in refs:
        target = resolve(name)
        if target is None:
            lost.append(f"line {line}: {name}")
        elif keywords:
            lost += [f"line {line}: {name}({k}=)"
                     for k in sorted(unknown_keywords(target, keywords))]
    assert not lost, f"{script.name} uses names the package lacks: {lost}"
