"""The benchmark's tracer wraps package functions by module and attribute
name and reads some of their parameters by name.  A rename would silently
drop a span or a figure, so every name it relies on is checked here."""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def read_parameters(fn) -> set[str]:
    """Parameter names a figures function reads from its bound arguments,
    following the functions it closes over."""
    names = set(re.findall(r'args(?:\[|\.get\()"(\w+)"',
                           inspect.getsource(fn)))
    for cell in fn.__closure__ or ():
        inner = cell.cell_contents
        for f in inner if isinstance(inner, tuple) else (inner,):
            if inspect.isfunction(f):
                names |= read_parameters(f)
    return names


@pytest.mark.parametrize("modules, attr, name, figures", tracing.TARGETS,
                         ids=[t[2] + ":" + t[1] for t in tracing.TARGETS])
def test_traced_target_is_bound_with_read_parameters(modules, attr, name,
                                                     figures):
    reads = read_parameters(figures) if figures else set()
    for mod_name in modules:
        module = importlib.import_module(f"nsdeblur.{mod_name}")
        fn = getattr(module, attr, None)
        assert callable(fn), f"nsdeblur.{mod_name}.{attr} is gone"
        lost = reads - set(inspect.signature(fn).parameters)
        assert not lost, f"nsdeblur.{mod_name}.{attr} lost parameters {lost}"


def test_config_names_read_by_tracer_exist():
    from nsdeblur import config
    for attr in set(re.findall(r"config\.(\w+)", TRACING.read_text())):
        assert hasattr(config, attr), f"nsdeblur.config.{attr} is gone"
