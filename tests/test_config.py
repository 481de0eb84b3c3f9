import pytest

from nsdeblur.config import (LAMBDA_FLOOR, STOP_CAP, STOP_EPS, STOP_GATE,
                             OptimizerConfig, gated_iterate)


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
