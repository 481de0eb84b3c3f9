"""Importing the package must stay cheap: ``scipy.ndimage`` and
``scipy.linalg`` cost about 0.45 s per process, ``scipy.signal`` about
0.8 s more, and the package imports none of them (its filters, FFTs and
solves are numpy's; scipy serves the tests alone).  Nor does importing it
start a thread: the image optimizers' worker starts on first use."""

import ast
import importlib
import inspect

import pytest

from conftest import SRC, run_probe, run_python
from nsdeblur.fileio import write_pgm
from nsdeblur.synth import texture

SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


def test_import_leaves_out_slow_scipy_modules():
    probe = ("import sys, threading, nsdeblur; "
             f"print({SCIPY_MODULES}, threading.active_count())")
    assert run_probe(probe) == "[] 1"


def test_every_command_runs_without_scipy(tmp_path):
    """One process runs each command on a 96 x 96 texture, through both
    inverse routes, the prefilter and both image optimizers, and ends with
    no scipy module loaded."""
    write_pgm(tmp_path / "clean.pgm", texture((96, 96), seed=5))
    runs = [
        ["synth", "clean.pgm", "--blur", "gaussian:1.0:5", "--noise", "0.01",
         "--output", "blurred.pgm", "--kernel-out", "true.kern"],
        ["estimate", "blurred.pgm", "--ar-order", "9", "9",
         "--psf-size", "5", "5", "--out-psf", "h.kern",
         "--out-ipsf", "g.kern", "--report", "r.txt"],
        ["estimate", "blurred.pgm", "--denoise", "--ipsf", "space",
         "--ar-order", "9", "9", "--psf-size", "5", "5",
         "--out-psf", "h_space.kern", "--out-ipsf", "g_space.kern",
         "--report", "r_space.txt"],
        ["deblur", "blurred.pgm", "--ipsf-file", "g.kern", "--psf-file",
         "h.kern", "--optimizer", "bvdr", "--output", "bvdr.pgm"],
        ["deblur", "blurred.pgm", "--ipsf-file", "g.kern", "--psf-file",
         "h.kern", "--optimizer", "cs", "--output", "cs.pgm"],
        ["quality", "blurred.pgm", "bvdr.pgm", "cs.pgm",
         "--reference", "clean.pgm", "--fragment", "64"],
    ]
    probe = ("import sys; from nsdeblur.cli import main; "
             f"codes = [main(argv) for argv in {runs!r}]; "
             f"print(codes, {SCIPY_MODULES})")
    last = run_probe(probe, cwd=tmp_path).splitlines()[-1]
    assert last == f"{[0] * len(runs)} []"
    for name in ("bvdr.pgm", "cs.pgm", "g_space.kern"):
        assert (tmp_path / name).stat().st_size > 0


PACKAGE = sorted((SRC / "nsdeblur").glob("*.py"))


def scipy_imports(tree: ast.AST) -> list[str]:
    """Line and name of every scipy import anywhere in a module, at its top
    or inside a function."""
    found = []
    for node in ast.walk(tree):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom)
                 and node.level == 0 else [])
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_package_source_imports_no_scipy():
    """Import probes only see the paths they run; this reads every
    module, so a lazy import on a rare path shows too."""
    assert len(PACKAGE) > 1
    found = {p.name: scipy_imports(ast.parse(p.read_text()))
             for p in PACKAGE}
    assert not {name: lines for name, lines in found.items() if lines}


DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_import_no_scipy():
    """The demos run on the numpy-only install the README gives."""
    assert len(DEMOS) > 1
    found = {p.name: scipy_imports(ast.parse(p.read_text())) for p in DEMOS}
    assert not {name: lines for name, lines in found.items() if lines}


SCRIPTS = DEMOS + sorted((SRC.parent / "perfbench").glob("*.py"))


def package_references(tree: ast.AST):
    """(line, dotted name, call) of every package name a script reaches:
    each ``from nsdeblur[.mod] import X`` and each attribute read through a
    name bound to the package or one of its modules, with the call made
    through it, if any."""
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
                yield node.lineno, name, None
                bound[alias.asname or alias.name] = name
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield (node.lineno, f"{bound[node.value.id]}.{node.attr}",
                   calls.get(id(node)))
        elif (isinstance(node, ast.Name) and node.id in bound
              and id(node) in calls):
            yield node.lineno, bound[node.id], calls[id(node)]


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


def call_mismatches(fn, call: ast.Call) -> list[str]:
    """The keywords of ``call`` that ``fn`` lacks, and its positional
    arguments past those ``fn`` takes."""
    params = inspect.signature(fn).parameters.values()
    lost = []
    if not any(p.kind is p.VAR_KEYWORD for p in params):
        names = {p.name for p in params}
        lost += [f"{k.arg}=" for k in call.keywords
                 if k.arg and k.arg not in names]
    positional = [p for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if (not any(p.kind is p.VAR_POSITIONAL for p in params)
            and not any(isinstance(a, ast.Starred) for a in call.args)
            and len(call.args) > len(positional)):
        lost.append(f"{len(call.args)} positional")
    return sorted(lost)


@pytest.mark.parametrize("script", SCRIPTS,
                         ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_demo_and_benchmark_names_resolve(script):
    """The benchmark is not run by this suite, so every package name it
    and the demos use, and the keywords and number of positional
    arguments of each call through one, is checked here.  Attribute reads
    on the objects the package returns are not names: the demos' are
    checked by running them (:func:`test_demo_runs`)."""
    text = script.read_text()
    refs = list(package_references(ast.parse(text)))
    assert refs or "nsdeblur" not in text
    lost = []
    for line, name, call in refs:
        target = resolve(name)
        if target is None:
            lost.append(f"line {line}: {name}")
        elif call is not None:
            lost += [f"line {line}: {name}({arg})"
                     for arg in call_mismatches(target, call)]
    assert not lost, f"{script.name} uses names the package lacks: {lost}"


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    """Each Python demo runs to exit 0 in a fresh interpreter, so an
    attribute it reads on an object the package returns, which
    :func:`test_demo_and_benchmark_names_resolve` cannot see, still
    exists."""
    run = run_python([str(script)], cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
