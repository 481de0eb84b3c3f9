"""Command-line front end.

Commands: estimate (kernel pair from one degraded image), deblur (restore
with a stored inverse kernel), synth (make degraded test images with a
known kernel), quality (no-reference sharpness and optional PSNR).
Exit codes: 0 ok, 2 input error, 3 consistency error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import MISSING, fields

import numpy as np

from .config import (STOP_NOT_RUN, OptimizerConfig, check_setting,
                     format_report, make_report)
from .errors import DeblurError, DegenerateKernelError, InputError
from .fileio import (read_image, read_kernel, write_image, write_kernel,
                     write_text)
from .grid import (KERNEL_GAIN_MAX, KERNEL_SUM_TOL, as_kernel, check_fits,
                   convolve)
from .pipeline import PipelineConfig, estimate_kernels, restore
from .quality import AiConfig, anisotropy_index, psnr
from .synth import (add_impulse_noise, disk_kernel, disk_shape,
                    gaussian_kernel, gaussian_shape, motion_kernel,
                    motion_shape)


def _settings(cls) -> dict:
    """Name -> type of every dataclass field with a plain default."""
    return {f.name: type(f.default) for f in fields(cls)
            if f.default is not MISSING}


_SOLVER_KEYS = _settings(OptimizerConfig)
_CONFIG_KEYS = {**_settings(PipelineConfig), **_SOLVER_KEYS}
#: The settings each command reads; it ignores a settings file's others.
READS = {"estimate": {"ar_p", "ar_q", "psf_l", "psf_m", "ipsf_route",
                      "denoise", "denoise_order", "denoise_size",
                      "lambda0", "q", "theta", "eps", "max_iters"},
         "deblur": {"optimizer", "lambda0", "delta_t", "eps", "max_iters",
                    "alpha"}}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def read_config_file(path) -> dict:
    """Plain "key = value" settings, # comments, one per line."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise InputError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, _, val = body.partition("=")
                key, val = key.strip(), val.strip()
                if key not in _CONFIG_KEYS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                conv = _CONFIG_KEYS[key]
                try:
                    values[key] = (_BOOLS[val.lower()] if conv is bool
                                   else conv(val))
                except (KeyError, ValueError):
                    raise InputError(
                        f"{path}:{lineno}: bad {conv.__name__} value "
                        f"{val!r} for {key}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    return values


def _build_config(args) -> PipelineConfig:
    """The settings file overridden by the flags, kept to the settings
    the command reads; the others keep their defaults."""
    flags = vars(args)
    values = read_config_file(flags["config"]) if "config" in flags else {}
    for pair, keys in (("ar_order", ("ar_p", "ar_q")),
                       ("psf_size", ("psf_l", "psf_m"))):
        values.update(zip(keys, flags.get(pair, ())))
    values.update(flags)
    values = {k: v for k, v in values.items() if k in READS[args.command]}
    solver = {k: values.pop(k) for k in _SOLVER_KEYS if k in values}
    return PipelineConfig(**values, solver=OptimizerConfig(**solver))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lambda0", type=float, metavar="LAMBDA",
                   help="initial regularization weight")
    p.add_argument("--eps", type=float, help="stop tolerance")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="iteration cap")
    p.add_argument("--config", help="settings file (key = value lines)")


#: Each ``--blur`` kind: its usage, its parameter types (only the first
#: required), and the functions that give its kernel's shape and build it.
_BLURS = {"gaussian": ("SIGMA[:SIZE]", (float, int), gaussian_shape,
                       gaussian_kernel),
          "motion": ("LENGTH[:ANGLE]", (int, float), motion_shape,
                     motion_kernel),
          "disk": ("RADIUS", (float,), disk_shape, disk_kernel)}
_BLUR_USAGE = " | ".join(f"{kind}:{v[0]}" for kind, v in _BLURS.items())


def _parse_blur(spec: str) -> tuple:
    """(shape, build) of a ``--blur`` spec: the kernel's shape, found
    without building the kernel, and the function that builds it."""
    kind, *values = spec.split(":")
    if kind.lower() not in _BLURS:
        raise InputError(f"unknown blur type {kind!r} ({_BLUR_USAGE})")
    usage, types, shape, build = _BLURS[kind.lower()]
    try:
        if not 1 <= len(values) <= len(types):
            raise ValueError(f"expected {kind}:{usage}")
        args = [convert(v) for convert, v in zip(types, values)]
        return shape(*args), lambda: build(*args)
    except ValueError as exc:
        raise InputError(f"bad blur spec {spec!r}: {exc}") from exc


def cmd_estimate(args) -> int:
    stage = "config"
    try:
        cfg = _build_config(args)
        stage = "load"
        image = read_image(args.input)
        stage = "estimate"
        result = estimate_kernels(image, cfg)
        stage = "write"
        write_kernel(args.out_psf, result.psf)
        write_kernel(args.out_ipsf, result.ipsf)
        write_text(args.report,
                   "# kernel estimation\n"
                   f"null_dim = {result.basis.null_dim}\n"
                   f"null_gap = {result.basis.null_gap:.17g}\n"
                   f"ar_residual = {result.model.residual:.17g}\n"
                   f"ar_ridge = {result.model.ridge:.17g}\n"
                   f"fit_region = {' '.join(map(str, result.model.region))}\n"
                   "# kernel shape optimization\n"
                   + format_report(result.psf_report)
                   + "# inverse shape optimization\n"
                   + ("" if result.space_ridge is None
                      else f"space_ridge = {result.space_ridge:.17g}\n")
                   + format_report(result.ipsf_report))
    except DeblurError as exc:
        print(f"estimate failed at stage {stage}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def _read_usable_kernel(path) -> np.ndarray:
    """Kernel file with odd dimensions, finite taps, a tap sum away from
    zero and a gain of at most KERNEL_GAIN_MAX; else it restores garbage."""
    kernel = as_kernel(read_kernel(path))
    with np.errstate(over="ignore"):    # an overflowed gain is inf
        total = float(kernel.sum())
        gain = float(np.abs(kernel).sum())
    if abs(total) <= KERNEL_SUM_TOL:
        raise DegenerateKernelError(f"{path}: taps sum to {total:.3e}")
    if gain > KERNEL_GAIN_MAX:
        raise DegenerateKernelError(
            f"{path}: tap gain {gain:.3e} exceeds {KERNEL_GAIN_MAX:.0e}")
    return kernel


def cmd_deblur(args) -> int:
    stage = "config"
    try:
        cfg = _build_config(args)
        stage = "load"
        image = read_image(args.input)
        ipsf = _read_usable_kernel(args.ipsf_file)
        psf = _read_usable_kernel(args.psf_file) if args.psf_file else None
        if cfg.optimizer != "none" and psf is None:
            raise InputError("iterative optimizers need --psf-file in "
                             "addition to --ipsf-file")
        stage = "restore"
        restored, report = restore(image, ipsf, psf, cfg)
        stage = "write"
        write_image(args.output, restored)
        if args.report:
            write_text(args.report, format_report(
                report if report is not None
                else make_report([], [], STOP_NOT_RUN)))
    except DeblurError as exc:
        print(f"deblur failed at stage {stage}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def cmd_synth(args) -> int:
    stage = "config"
    try:
        shape, build_kernel = _parse_blur(args.blur)
        check_setting("noise", args.noise, 0)
        if args.noise > 1:
            raise InputError(f"noise must be in [0, 1], got {args.noise!r}")
        check_setting("seed", args.seed, 0)
        stage = "load"
        image = read_image(args.input)
        stage = "degrade"
        # before the kernel is built: gaussian:1e6 would take 288 TB
        check_fits(shape, image.shape)
        kernel = build_kernel()
        degraded = convolve(image, kernel)
        if args.noise > 0:
            degraded = add_impulse_noise(degraded, args.noise, args.seed)
        stage = "write"
        write_image(args.output, degraded)
        if args.kernel_out:
            write_kernel(args.kernel_out, kernel)
        if args.manifest:
            write_text(args.manifest,
                       f"input = {args.input}\n"
                       f"output = {args.output}\n"
                       f"blur = {args.blur}\n"
                       f"kernel = {args.kernel_out or ''}\n"
                       f"noise = {args.noise:.17g}\n"
                       f"seed = {args.seed}\n")
    except DeblurError as exc:
        print(f"synth failed at stage {stage}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def cmd_quality(args) -> int:
    try:
        cfg = AiConfig(window=args.window, fragment=args.fragment)
        reference = read_image(args.reference) if args.reference else None
        for path in args.images:
            image = read_image(path)
            ai = anisotropy_index(image, cfg)
            line = f"{path} AI={ai:.6f}"
            if reference is not None:
                line += f" PSNR={psnr(image, reference):.4f}"
            print(line)
    except DeblurError as exc:
        print(f"quality failed: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    about 1.5 ms, mostly argparse's message and terminal-size lookups,
    and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nsdeblur",
        description="Blind single-image deblurring: estimate a blur kernel "
                    "and its inverse, then restore.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate",
                           help="estimate kernel and inverse from an image",
                           argument_default=argparse.SUPPRESS)
    p_est.add_argument("input", help="degraded image (.pgm/.png)")
    p_est.add_argument("--out-psf", default="h.kern")
    p_est.add_argument("--out-ipsf", default="g.kern")
    p_est.add_argument("--report", default="report.txt")
    p_est.add_argument("--ipsf", dest="ipsf_route",
                       choices=("spectral", "space"))
    p_est.add_argument("--denoise", action="store_true",
                       help="apply the high-order prefilter first")
    p_est.add_argument("--ar-order", nargs=2, type=int, metavar=("P", "Q"),
                       help="model orders (odd)")
    p_est.add_argument("--psf-size", nargs=2, type=int, metavar=("L", "M"),
                       help="kernel size (odd, smaller than the model order)")
    p_est.add_argument("--theta", type=float, help="contraction gate factor")
    _add_common(p_est)

    p_deb = sub.add_parser("deblur", help="restore an image with a stored "
                                          "inverse kernel",
                           argument_default=argparse.SUPPRESS)
    p_deb.add_argument("input")
    p_deb.add_argument("--ipsf-file", required=True, metavar="G_KERN")
    p_deb.add_argument("--psf-file", metavar="H_KERN", default=None)
    p_deb.add_argument("--output", required=True)
    p_deb.add_argument("--report", default=None)
    p_deb.add_argument("--optimizer", choices=("none", "bvdr", "cs"))
    p_deb.add_argument("--delta-t", dest="delta_t", type=float,
                       help="relaxation (step) parameter")
    p_deb.add_argument("--alpha", type=float, help="dynamic-weight seed scale")
    _add_common(p_deb)

    p_syn = sub.add_parser("synth", help="degrade a clean image with a "
                                         "known kernel")
    p_syn.add_argument("input")
    p_syn.add_argument("--blur", required=True, help=_BLUR_USAGE)
    p_syn.add_argument("--output", required=True)
    p_syn.add_argument("--kernel-out")
    p_syn.add_argument("--manifest")
    p_syn.add_argument("--noise", type=float, default=0.0,
                       help="impulse-noise density in [0, 1]")
    p_syn.add_argument("--seed", type=int, default=0)

    p_q = sub.add_parser("quality", help="no-reference sharpness index "
                                         "(and PSNR against a reference)")
    p_q.add_argument("images", nargs="+")
    p_q.add_argument("--reference")
    p_q.add_argument("--window", type=int, default=8)
    p_q.add_argument("--fragment", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so a wrapper
    # put on a module's cmd_* name after the parser was built is called
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
