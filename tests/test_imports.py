"""Importing the package must stay cheap: ``scipy.signal`` costs about
0.8 s and ``scipy.fft`` 30-40 ms per process, and the package needs
neither (its only FFT is ``numpy.fft``)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_out_slow_scipy_modules():
    probe = ("import sys, nsdeblur; print(sorted(m for m in "
             "('scipy.signal', 'scipy.fft') if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
