"""Solver configuration, :func:`iterate`, the one loop of all five
optimizers (each supplies its step and refusal rule), and run reports."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

STOP_EPS = "eps_reached"
STOP_INCREASE = "residual_increased"
STOP_CAP = "iter_cap"
STOP_GATE = "lambda_gate_failed"
STOP_NOT_RUN = "not_run"

#: Smallest regularization weight tried before a run is declared gated out.
LAMBDA_FLOOR = 1e-5


def check_setting(name: str, value, low: float, above: bool = False) -> None:
    """Raise InputError unless ``value`` is finite and at least ``low``
    (above it when ``above``); NaN and +-inf are out of every range."""
    if not (math.isfinite(value) and (value > low if above else value >= low)):
        raise InputError(f"{name} must be finite and {'>' if above else '>='}"
                         f" {low}, got {value!r}")


def check_integers(cfg, *names: str) -> None:
    """Raise InputError unless each named field of ``cfg`` holds an
    integer (numpy's included, a bool not)."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InputError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the iterative optimizers, checked when built.

    delta_t   relaxation (step) parameter of the image schemas
    lambda0   initial / maximum regularization weight
    q         number of leading iterations the contraction gate inspects
    theta     required contraction factor over those iterations
    eps       stop tolerance on the (mean or summed) squared step
    max_iters iteration cap
    alpha     scale constant inside the dynamic-weight seed formula
    """

    delta_t: float = 0.1
    lambda0: float = 0.01
    q: int = 3
    theta: float = 10.0
    eps: float = 1e-8
    max_iters: int = 20
    alpha: float = 1.0

    def __post_init__(self) -> None:
        check_integers(self, "q", "max_iters")
        for name in ("delta_t", "lambda0", "eps", "alpha"):
            check_setting(name, getattr(self, name), 0, above=True)
        for name in ("q", "theta", "max_iters"):
            check_setting(name, getattr(self, name), 1)


@dataclass
class RunReport:
    """Per-iteration trace of one optimizer run.

    ``residual_trace[t]`` is the squared step size of iteration t+1 (mean
    over pixels for image runs, summed over taps for kernel runs);
    ``lambda_trace[t]`` the regularization weight used (mean pointwise
    weight for the curved-space schema).  ``convergence_ratio_max`` is the
    largest consecutive residual ratio after ``transition_iter``.
    """

    iterations: int
    residual_trace: np.ndarray
    lambda_trace: np.ndarray
    stop_reason: str
    convergence_ratio_max: float
    transition_iter: int = 0
    extras: dict = field(default_factory=dict)


def make_report(residuals, lambdas, stop_reason: str,
                transition_iter: int = 0, extras: dict | None = None
                ) -> RunReport:
    """Assemble a report, deriving the post-transition ratio maximum."""
    res = np.asarray(residuals, dtype=np.float64)
    lam = np.asarray(lambdas, dtype=np.float64)
    if res.shape != lam.shape:
        raise ValueError("residual and lambda traces must have equal length")
    ratio_max = 0.0
    for t in range(max(transition_iter, 0), res.size - 1):
        if res[t] > 0:
            ratio_max = max(ratio_max, res[t + 1] / res[t])
    return RunReport(iterations=int(res.size), residual_trace=res,
                     lambda_trace=lam, stop_reason=stop_reason,
                     convergence_ratio_max=ratio_max,
                     transition_iter=transition_iter,
                     extras=extras or {})


def iterate(state, step, cfg: OptimizerConfig, refused
            ) -> tuple[object, list[float], str]:
    """Up to cfg.max_iters steps from ``state``; returns (last state
    taken, squared step sizes, stop reason).  ``step(state)`` returns
    (next state, squared step size), or None when the step failed, which
    stops the run with STOP_GATE.  ``refused(sizes)`` judges the step just
    recorded: a refused step is not taken and stops the run with
    STOP_INCREASE.  Otherwise the run stops with STOP_EPS at a size of at
    most cfg.eps, or with STOP_CAP.
    """
    sizes: list[float] = []
    for _ in range(cfg.max_iters):
        result = step(state)
        if result is None:
            return state, sizes, STOP_GATE
        state_next, size = result
        sizes.append(size)
        if refused(sizes):
            return state, sizes, STOP_INCREASE
        state = state_next
        if size <= cfg.eps:
            return state, sizes, STOP_EPS
    return state, sizes, STOP_CAP


def gated_iterate(state0, step, cfg: OptimizerConfig
                  ) -> tuple[object, RunReport]:
    """Gate-and-iterate loop of the kernel-shape optimizers.

    ``step(state, lam)`` is :func:`iterate`'s step at weight ``lam``.  The
    weight starts at cfg.lambda0 and is halved, restarting from
    ``state0``, while a run ends in a failed step or in one of its first
    cfg.q + 1 steps failing the contraction gate.  If no weight down to
    LAMBDA_FLOOR passes, ``state0`` is returned with a gate-failed report.
    """
    def refused(sizes):
        # the first pair measures the initialization jump, so it only
        # needs to not grow; later pairs must contract by theta
        factor = 1.0 if len(sizes) == 2 else cfg.theta
        return (2 <= len(sizes) <= cfg.q + 1 and sizes[-1] > cfg.eps
                and sizes[-1] * factor > sizes[-2])

    lam = cfg.lambda0
    while lam >= LAMBDA_FLOOR:
        state, sizes, stop = iterate(state0, lambda s: step(s, lam), cfg,
                                     refused)
        if stop not in (STOP_GATE, STOP_INCREASE):
            return state, make_report(sizes, [lam] * len(sizes), stop)
        lam *= 0.5
    return state0, make_report([], [], STOP_GATE)


def format_report(report: RunReport) -> str:
    """Plain-text iteration table: header, one line per iteration
    "k residual lambda", stop-reason trailer."""
    lines = ["k residual lambda"]
    for t in range(report.iterations):
        lines.append(f"{t + 1} {report.residual_trace[t]:.17g} "
                     f"{report.lambda_trace[t]:.17g}")
    lines.append(f"stop_reason: {report.stop_reason}")
    return "\n".join(lines) + "\n"

