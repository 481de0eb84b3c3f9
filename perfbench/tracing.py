"""Span tracing of nsdeblur from outside the package.

The tracer replaces public functions at the module namespaces where the
package calls them (``nsdeblur.cli``, ``nsdeblur.pipeline``,
``nsdeblur.deconv``, ``nsdeblur.ipsf.convolve``) with wrappers that record
a span per call: layer name, start, end, parent span and request id, plus
a few figures read from the arguments and the result.  Nothing under
``src/`` changes, and the originals are put back when tracing ends.
Spans stay in memory until the run writes them out.

Limits of reaching in from outside:

* ``bvdr_optimize`` binds ``reg_operator=curvature_operator`` as a default
  argument when the function is defined, so its curvature calls never go
  through ``nsdeblur.deconv.curvature_operator``.  The ``surface.*``
  metrics therefore count ``cs_optimize``'s calls only.
* A call made from a module whose binding is not listed below (for example
  ``psf.optimize_psf`` reaching ``psf.iterate_spectrum``) is inside its
  caller's span and has none of its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

from nsdeblur import config


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in its request
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Work figures read from one call.  They are computed from array sizes,
# not measured: the Gram figures count 2 * windows * unknowns^2 for the
# direct GEMM formulation, and stay the reference once a faster Gram lands.

def _ar_work(args, result) -> dict:
    """GFLOP of the model-fit window Gram.  The fit region mirrors the
    default of ``estimate_ar``: a centred square of side
    min(image side, max(2pq, 64)) unless a region is passed."""
    p, q = args["p"], args["q"]
    if args.get("region") is not None:
        rows, cols = args["region"][2:]
    else:
        rows = cols = min(min(args["image"].shape), max(2 * p * q, 64))
    windows = (rows - p + 1) * (cols - q + 1)
    return {"armodel.gram_gflop_computed": 2.0 * windows * (p * q) ** 2 / 1e9}


def _space_work(args, result) -> dict:
    """GFLOP of one (2l-1)(2m-1)-tap space-route system."""
    rows, cols = args["image"].shape
    l, m = args["h"].shape
    taps = (2 * l - 1) * (2 * m - 1)
    windows = (rows - 2 * l + 2) * (cols - 2 * m + 2)
    return {"ipsf.space_gram_gflop_computed": 2.0 * windows * taps ** 2 / 1e9}


def _null_dim(args, result) -> dict:
    # the prefilter's single-vector basis has K = 1 by construction
    return {} if args.get("force_single") else {"nullspace.null_dim": result.null_dim}


def lambda_halvings(report, lambda0: float, floor: float) -> int:
    """Rejected regularization weights of one gate: log2(lambda0/lambda_used)
    when a weight passed, every attempt down to ``floor`` when none did."""
    if report.iterations == 0:
        return int(math.floor(math.log2(lambda0 / floor))) + 1
    return round(math.log2(lambda0 / float(report.lambda_trace[0])))


def _gate(prefix: str):
    """Iterations and rejected weights of a kernel-shape optimizer; the
    halvings add up per layer (``psf`` or ``ipsf``)."""
    def attrs(args, result) -> dict:
        cfg = args.get("cfg") or config.OptimizerConfig()
        report = result[1]
        return {f"{prefix}_iters": report.iterations,
                f"{prefix.split('.')[0]}.lambda_halvings": lambda_halvings(
                    report, cfg.lambda0, config.LAMBDA_FLOOR)}
    return attrs


def _iters(metric: str):
    return lambda args, result: {metric: result[1].iterations}


def _both(*fns):
    return lambda args, result: {k: v for fn in fns
                                 for k, v in fn(args, result).items()}


#: (modules, attribute, layer name, figures read from the call).  Each
#: attribute is wrapped in every listed module that binds it.
TARGETS = (
    (("cli",), "cmd_estimate", "cli.estimate", None),
    (("cli",), "cmd_deblur", "cli.deblur", None),
    (("cli",), "read_image", "fileio.read_image", None),
    (("cli",), "write_image", "fileio.write_image", None),
    (("cli",), "read_kernel", "fileio.kernel_io", None),
    (("cli",), "write_kernel", "fileio.kernel_io", None),
    (("cli", "pipeline"), "estimate_kernels", "pipeline.estimate_kernels", None),
    (("cli", "pipeline"), "restore", "pipeline.restore", None),
    (("pipeline", "deconv"), "estimate_ar", "armodel.estimate_ar", _ar_work),
    (("pipeline", "deconv"), "build_operator", "armodel.build_operator", None),
    (("pipeline", "deconv"), "compute_cns", "nullspace.compute_cns", _null_dim),
    (("pipeline",), "gradient_stats", "psf.gradient_stats", None),
    (("pipeline",), "estimate_psf", "psf.estimate_psf", None),
    (("pipeline",), "optimize_psf", "psf.optimize_psf", _gate("psf.optimize_psf")),
    (("pipeline",), "ipsf_spectral", "ipsf.ipsf_spectral", None),
    (("pipeline",), "optimize_ipsf_spectral", "ipsf.optimize_ipsf_spectral",
     _gate("ipsf.optimize_ipsf_spectral")),
    (("pipeline", "deconv"), "ipsf_space", "ipsf.ipsf_space", _space_work),
    (("pipeline",), "optimize_ipsf_space", "ipsf.optimize_ipsf_space",
     _both(_space_work, _gate("ipsf.optimize_ipsf_space"))),
    (("pipeline",), "denoise_prefilter", "deconv.denoise_prefilter", None),
    (("pipeline", "deconv"), "deconvolve_once", "deconv.deconvolve_once", None),
    (("pipeline",), "bvdr_optimize", "deconv.bvdr_optimize", _iters("deconv.bvdr_iters")),
    (("pipeline",), "cs_optimize", "deconv.cs_optimize", _iters("deconv.cs_iters")),
    (("deconv", "ipsf"), "convolve", "grid.convolve", None),
    (("deconv",), "curvature_operator", "surface.curvature_operator", None),
    (("deconv",), "metric_determinant", "surface.metric_determinant", None),
    (("quality",), "anisotropy_index", "quality.anisotropy_index", None),
)


class Tracer:
    """Records the spans of one request at a time while installed."""

    def __init__(self) -> None:
        self.requests: list[list[Span]] = []
        self.missing: list[str] = []
        self._spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    len(self.requests) - 1)
        self._stack.append(len(self._spans))
        self._spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, image: int):
        """Root span around one whole request on corpus image ``image``; its
        spans form a new list whose parent indices are local to it."""
        self._spans = []
        self.requests.append(self._spans)
        span = self._open("request")
        span.attrs["image"] = image
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, attrs):
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs(bound.arguments, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.  A target the
        package no longer binds is skipped and listed in ``missing``."""
        originals = []
        try:
            for modules, attr, name, attrs in TARGETS:
                for mod_name in modules:
                    module = importlib.import_module(f"nsdeblur.{mod_name}")
                    fn = getattr(module, attr, None)
                    if fn is None:
                        if f"{mod_name}.{attr}" not in self.missing:
                            self.missing.append(f"{mod_name}.{attr}")
                        continue
                    originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, name, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def _ancestor(spans: list[Span], span: Span, names) -> str | None:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name in names:
            return span.name
    return None


def self_seconds(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover (one thread,
    so children never overlap)."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def covered_seconds(spans: list[Span], names) -> float:
    """Length of the union of the intervals of spans named in ``names``."""
    total, reach = 0.0, -math.inf
    for start, end in sorted((s.start, s.end) for s in spans if s.name in names):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _rate(amount: float, per: float) -> float:
    return amount / per if per else 0.0


_OPTIMIZERS = {"deconv.bvdr_optimize": "bvdr", "deconv.cs_optimize": "cs"}


def request_figures(spans: list[Span]) -> dict:
    """Per-layer figures of one traced request, keyed by metric name."""
    v: defaultdict = defaultdict(float)
    for s in spans:
        v[f"{s.name}_s"] += s.seconds
        v[f"{s.name}_calls"] += 1
        for key, x in s.attrs.items():
            v[key] += x
        if s.name == "grid.convolve":
            inside = _ancestor(spans, s, _OPTIMIZERS)
            if inside:
                v[f"grid.convolve_calls_in_{_OPTIMIZERS[inside]}"] += 1
    for opt in _OPTIMIZERS.values():
        v[f"grid.convolve_calls_per_{opt}_iter"] = _rate(
            v[f"grid.convolve_calls_in_{opt}"], v[f"deconv.{opt}_iters"])
    v["armodel.gram_gflops"] = _rate(v["armodel.gram_gflop_computed"],
                                     v["armodel.estimate_ar_s"])
    v["ipsf.space_gram_gflops"] = _rate(
        v["ipsf.space_gram_gflop_computed"],
        v["ipsf.ipsf_space_s"] + v["ipsf.optimize_ipsf_space_s"])
    return v


def layer_metrics(names, requests: list[list[Span]]) -> dict:
    """Each named figure (0 where the layer never ran), as the median over
    corpus images of its median over that image's traced requests.  A count
    is then the same on every run of the same seed, whatever the number of
    requests the time allowed."""
    by_image = defaultdict(list)
    for spans in requests:
        by_image[spans[0].attrs["image"]].append(request_figures(spans))
    return {name: float(median(median(f[name] for f in figures)
                               for figures in by_image.values()))
            for name in names}


def share(spans: list[Span], names) -> float:
    """Share of the request covered by spans named in ``names``."""
    return covered_seconds(spans, names) / spans[0].seconds


def dump(spans: list[Span]) -> list[dict]:
    own = self_seconds(spans)
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request,
             "self_s": own[i], **({"attrs": s.attrs} if s.attrs else {})}
            for i, s in enumerate(spans)]
