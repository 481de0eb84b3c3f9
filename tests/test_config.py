import math

import numpy as np
import pytest

from nsdeblur.config import (LAMBDA_FLOOR, STOP_CAP, STOP_EPS, STOP_GATE,
                             STOP_INCREASE, OptimizerConfig, gated_iterate,
                             iterate)
from nsdeblur.errors import InputError


@pytest.mark.parametrize("name", ["delta_t", "lambda0", "theta", "eps",
                                  "alpha"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_optimizer_config_rejects_non_finite(name, value):
    """lambda0 = inf, say, would otherwise halve forever in the gate."""
    with pytest.raises(InputError, match=name):
        OptimizerConfig(**{name: value})


@pytest.mark.parametrize("settings", [
    {"lambda0": -1.0}, {"eps": 0.0}, {"alpha": 0.0}, {"q": 0},
    pytest.param({"max_iters": 2.5}, id="max_iters-float"),
    pytest.param({"max_iters": 20.0}, id="max_iters-integral-float"),
    pytest.param({"q": 2.5}, id="q-float"),
    pytest.param({"q": True}, id="q-bool"),
], ids=lambda settings: next(iter(settings)))
def test_optimizer_config_rejects_out_of_range(settings):
    with pytest.raises(ValueError):       # InputError is a ValueError
        OptimizerConfig(**settings)


def test_optimizer_config_takes_numpy_integers():
    cfg = OptimizerConfig(q=np.int64(2), max_iters=np.int32(5))
    assert (cfg.q, cfg.max_iters) == (2, 5)


def shrinking_step(contraction_below: float):
    """Scalar step whose size shrinks 4x per step at weights up to
    ``contraction_below`` and only 0.9x above it."""
    def step(state, lam):
        ratio = 0.25 if lam <= contraction_below else 0.9
        return state * ratio, state * ratio
    return step


def test_gate_halves_weight_until_steps_contract():
    cfg = OptimizerConfig(lambda0=0.01, q=3, theta=2.0, eps=1e-6,
                          max_iters=20)
    state, rep = gated_iterate(1.0, shrinking_step(0.0025), cfg)
    # 0.01 and 0.005 fail the theta gate at the third step; 0.0025 passes
    assert list(rep.lambda_trace) == [0.0025] * 10
    assert rep.residual_trace[-1] == pytest.approx(0.25 ** 10)
    assert rep.stop_reason == STOP_EPS
    assert state == rep.residual_trace[-1]


def test_gate_runs_to_cap_once_passed():
    cfg = OptimizerConfig(lambda0=0.01, theta=2.0, eps=1e-300, max_iters=5)
    _, rep = gated_iterate(1.0, shrinking_step(1.0), cfg)
    assert rep.iterations == 5 and rep.stop_reason == STOP_CAP
    assert rep.lambda_trace[0] == 0.01


@pytest.mark.parametrize("step", [lambda s, lam: None,
                                  shrinking_step(LAMBDA_FLOOR / 4)])
def test_gate_failure_returns_initial_state(step):
    cfg = OptimizerConfig(lambda0=0.01, theta=2.0, eps=1e-6)
    state, rep = gated_iterate(1.0, step, cfg)
    assert state == 1.0
    assert rep.stop_reason == STOP_GATE and rep.iterations == 0


def scripted_step(sizes):
    """Step that counts the states it takes and reports the scripted
    squared sizes in turn; None in the script fails that step."""
    script = iter(sizes)

    def step(state):
        size = next(script)
        return None if size is None else (state + 1, size)
    return step


def never(sizes):
    return False


def grew(sizes):
    return len(sizes) >= 2 and sizes[-1] > sizes[-2]


@pytest.mark.parametrize("script, refused, state, sizes, stop", [
    ([0.5, 0.25, 1e-9, 1.0], never, 3, [0.5, 0.25, 1e-9], STOP_EPS),
    ([0.5, 0.25, 0.2, 0.1], never, 3, [0.5, 0.25, 0.2], STOP_CAP),
    ([0.5, 0.25, None, 0.1], never, 2, [0.5, 0.25], STOP_GATE),
    ([0.5, 0.25, 0.3, 0.1], grew, 2, [0.5, 0.25, 0.3], STOP_INCREASE),
    ([None], never, 0, [], STOP_GATE),
], ids=["eps", "cap", "gate", "increase", "gate-first"])
def test_iterate_stops(script, refused, state, sizes, stop):
    cfg = OptimizerConfig(eps=1e-8, max_iters=3)
    assert iterate(0, scripted_step(script), cfg, refused) == (state, sizes,
                                                               stop)


def test_iterate_records_a_refused_step_but_keeps_its_state():
    """The refused third step is in ``sizes``; the state is the one
    before it, even when its size is below eps."""
    judged = []

    def refuse_third(sizes):
        judged.append(list(sizes))
        return len(sizes) == 3

    cfg = OptimizerConfig(eps=1e-3, max_iters=10)
    state, sizes, stop = iterate(0, scripted_step([0.5, 0.25, 1e-9]), cfg,
                                 refuse_third)
    assert (state, sizes, stop) == (2, [0.5, 0.25, 1e-9], STOP_INCREASE)
    assert judged == [[0.5], [0.5, 0.25], [0.5, 0.25, 1e-9]]
